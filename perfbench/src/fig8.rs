//! `fig8_ghost`: Figure 8's cross-layer deployment at 12K RPS — native
//! SCAN-Avoid at socket select plus the ghOSt GET-priority agent, 36
//! threads on 6 cores (one for the agent), 50% GET / 50% SCAN.
//!
//! ```text
//! arrival ─► NIC RSS ─► NIC ring ─► driver poll ─► stack
//!   ─► socket-select hook (native SCAN-Avoid) ─► 36 FIFO sockets
//!   ─► ghOSt agent (thread_ready / thread_stopped) ─► thread on a core
//!   ─► completion
//! ```
//!
//! The thread logic follows `syrup_apps::mt_world`: the application
//! publishes the class each thread serves in the shared map, which both
//! the socket policy and the ghOSt agent read; preempted threads bank
//! their remaining service.

use std::time::Instant;

use syrup::apps::mt_world::{MtConfig, SchedKind};
use syrup::apps::server_world::SocketPolicyKind;
use syrup::core::{Hook, HookMeta, MapDef, MapRef, PolicySource, Syrupd};
use syrup::ebpf::Backend;
use syrup::ghost::ghost::{class, GhostParams};
use syrup::ghost::{Assignment, CoreId, GhostSched, ThreadId, ThreadScheduler};
use syrup::net::{flow, AppHeader, Delivery, FiveTuple, Frame, Nic, RequestClass, ReuseportGroup};
use syrup::policies::ScanAvoidPolicy;
use syrup::sim::{ArrivalGen, Duration, EventQueue, RequestMix, SimRng, Time};

use crate::stats::Fnv;
use crate::timer::{Layer, Timer, NO_REQ};
use crate::Round;

/// Simulated traffic per round.
const ROUND: Duration = Duration::from_millis(2_000);
/// Offered load: the combined deployment's last flat point in
/// `results/fig8a_get_latency.csv` before it collapses at 14K.
const LOAD_RPS: f64 = 12_000.0;
/// NIC RX descriptors per queue.
const RING: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Req {
    id: u32,
    class: RequestClass,
    service: Duration,
    flow: u32,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    req: Req,
    remaining: Duration,
    started: Option<Time>,
}

enum Ev {
    Arrival(Req),
    Poll(u32),
    Deliver(Req),
    ThreadStart {
        thread: usize,
        core: CoreId,
        token: u64,
    },
    Complete {
        thread: usize,
        token: u64,
    },
}

/// Everything a round builds before its first request.
struct World {
    cfg: MtConfig,
    rng: SimRng,
    arrivals: ArrivalGen,
    mix: RequestMix,
    next_id: u32,
    end: Time,
    syrupd: Syrupd,
    class_map: MapRef,
    ghost: GhostSched,
    nic: Nic<Req>,
    group: ReuseportGroup<Req>,
    queue: EventQueue<Ev>,
    flows: Vec<FiveTuple>,
    flow_hashes: Vec<u32>,
    /// Datagram per class code, copied into `pkt` per hook.
    templates: [Vec<u8>; 2],
    pkt: Vec<u8>,
    poll_armed: Vec<bool>,
    current: Vec<Option<InFlight>>,
    on_core: Vec<Option<CoreId>>,
    token: Vec<u64>,
    // Outputs.
    offered: u64,
    completed: u64,
    per_class: [u64; 2],
    policy_drops: u64,
    events: u64,
    assignments: u64,
    preemptions: u64,
    hash: Fnv,
}

fn class_code(c: RequestClass) -> u64 {
    if c == RequestClass::Scan {
        class::SCAN
    } else {
        class::GET
    }
}

impl World {
    fn new(seed: u64) -> Self {
        let cfg = MtConfig::fig8(
            SocketPolicyKind::ScanAvoid,
            SchedKind::Ghost,
            LOAD_RPS,
            seed,
        );
        let syrupd = Syrupd::new();
        // Pin the engine so `SYRUP_BACKEND` in the caller's shell cannot
        // change what is measured (this workload runs no VM code, which
        // is the point of contrast with `fig7_token_ebpf`).
        syrupd.set_backend(Backend::default());
        let (app, maps) = syrupd
            .register_app("rocksdb-mt", &[cfg.port])
            .expect("fresh daemon");
        let class_map = maps
            .create_pinned("thread_class", MapDef::u64_array(64))
            .expect("create class map");
        for t in 0..cfg.threads as u32 {
            class_map.update_u64(t, class::GET).expect("in range");
        }
        let policy = ScanAvoidPolicy::new(class_map.clone(), cfg.threads as u32, seed ^ 0x5A5A);
        syrupd
            .deploy(
                app,
                Hook::SocketSelect,
                PolicySource::Native(Box::new(policy)),
            )
            .expect("SCAN-Avoid deploys");
        let ghost = GhostSched::new(
            (0..cfg.cores as u32).map(CoreId).collect(),
            class_map.clone(),
            GhostParams::default(),
        );
        let mut rng = SimRng::new(cfg.seed);
        let flows = flow::client_flows(cfg.num_flows, cfg.port, &mut rng);
        let flow_hashes = flows.iter().map(|f| f.flow_hash()).collect();
        let template = |c: RequestClass| {
            Frame::build(
                &flows[0],
                &AppHeader {
                    req_type: c.code(),
                    user_id: 0,
                    key_hash: 0,
                    req_id: 0,
                },
            )
            .datagram()
            .to_vec()
        };
        let templates = [template(RequestClass::Get), template(RequestClass::Scan)];
        World {
            rng,
            arrivals: ArrivalGen::poisson(cfg.load_rps),
            mix: RequestMix::new(&[
                (RequestClass::Get.class_id(), cfg.get_fraction),
                (RequestClass::Scan.class_id(), 1.0 - cfg.get_fraction),
            ]),
            next_id: 0,
            end: Time::ZERO + ROUND,
            syrupd,
            class_map,
            ghost,
            nic: Nic::new(cfg.cores, RING),
            group: ReuseportGroup::new(cfg.threads, cfg.socket_capacity),
            queue: EventQueue::new(),
            flows,
            flow_hashes,
            templates,
            pkt: Vec::new(),
            poll_armed: vec![false; cfg.cores],
            current: vec![None; cfg.threads],
            on_core: vec![None; cfg.threads],
            token: vec![0; cfg.threads],
            offered: 0,
            completed: 0,
            per_class: [0; 2],
            policy_drops: 0,
            events: 0,
            assignments: 0,
            preemptions: 0,
            hash: Fnv::default(),
            cfg,
        }
    }

    fn next_request(&mut self) -> Option<(Time, Req)> {
        let at = self.arrivals.next_arrival(&mut self.rng)?;
        if at >= self.end {
            return None;
        }
        let class = if self.mix.sample(&mut self.rng) == RequestClass::Scan.class_id() {
            RequestClass::Scan
        } else {
            RequestClass::Get
        };
        let flow = self.rng.index(self.flow_hashes.len()) as u32;
        let service = self.cfg.model.sample(class, &mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        Some((
            at,
            Req {
                id,
                class,
                service,
                flow,
            },
        ))
    }

    fn run<T: Timer>(&mut self, t: &mut T) {
        if let Some((at, req)) = self.next_request() {
            t.time(Layer::SimQueue, req.id, || {
                self.queue.push(at, Ev::Arrival(req))
            });
        }
        while let Some((now, ev)) = t.time(Layer::SimQueue, NO_REQ, || self.queue.pop()) {
            self.events += 1;
            match ev {
                Ev::Arrival(req) => self.on_arrival(t, now, req),
                Ev::Poll(q) => self.on_poll(t, now, q),
                Ev::Deliver(req) => self.on_deliver(t, now, req),
                Ev::ThreadStart {
                    thread,
                    core,
                    token,
                } => self.on_thread_start(t, now, thread, core, token),
                Ev::Complete { thread, token } => self.on_complete(t, now, thread, token),
            }
        }
    }

    fn on_arrival<T: Timer>(&mut self, t: &mut T, now: Time, req: Req) {
        t.req_begin(req.id);
        if let Some((at, next)) = self.next_request() {
            t.time(Layer::SimQueue, next.id, || {
                self.queue.push(at, Ev::Arrival(next))
            });
        }
        self.offered += 1;
        let flow = &self.flows[req.flow as usize];
        let q = t.time(Layer::NetRss, req.id, || self.nic.select_queue(flow, None));
        if !t.time(Layer::NetNicRing, req.id, || self.nic.enqueue(q, req)) {
            t.req_end(req.id);
            return;
        }
        if !self.poll_armed[q as usize] {
            self.poll_armed[q as usize] = true;
            let at = now + self.cfg.stack.irq_and_driver;
            t.time(Layer::SimQueue, req.id, || self.queue.push(at, Ev::Poll(q)));
        }
    }

    /// Driver poll: one descriptor per `irq_and_driver` interval.
    fn on_poll<T: Timer>(&mut self, t: &mut T, now: Time, q: u32) {
        let Some(req) = t.time(Layer::NetNicRing, NO_REQ, || self.nic.dequeue(q)) else {
            self.poll_armed[q as usize] = false;
            return;
        };
        let s = &self.cfg.stack;
        let at = now + s.skb_alloc + s.protocol + s.socket_deliver;
        t.time(Layer::SimQueue, req.id, || {
            self.queue.push(at, Ev::Deliver(req))
        });
        let at = now + s.irq_and_driver;
        t.time(Layer::SimQueue, NO_REQ, || self.queue.push(at, Ev::Poll(q)));
    }

    fn on_deliver<T: Timer>(&mut self, t: &mut T, now: Time, req: Req) {
        self.pkt.clear();
        self.pkt
            .extend_from_slice(&self.templates[usize::from(req.class == RequestClass::Scan)]);
        let meta = HookMeta {
            now_ns: now.as_nanos(),
            cpu: 0,
            rx_queue: 0,
            dst_port: self.cfg.port,
            trace: syrup::trace::TraceCtx::none(),
        };
        let (_, verdict) = t.time(Layer::CoreSockSelect, req.id, || {
            self.syrupd
                .schedule_verdict(Hook::SocketSelect, &mut self.pkt, &meta)
        });
        let hash = self.flow_hashes[req.flow as usize];
        match t.time(Layer::NetSock, req.id, || {
            self.group.deliver_verdict(req, hash, verdict)
        }) {
            Delivery::Enqueued(thread) => {
                let idle = self.current[thread].is_none();
                // Publish the class this thread will serve next if it is
                // about to pick this request up (head of an empty queue).
                if idle && self.group.socket(thread).map(|s| s.len()) == Some(1) {
                    let _ = self
                        .class_map
                        .update_u64(thread as u32, class_code(req.class));
                }
                if idle {
                    let a = t.time(Layer::Ghost, req.id, || {
                        self.ghost.thread_ready(ThreadId(thread as u32), now)
                    });
                    self.apply(t, now, a);
                }
            }
            Delivery::Dropped { buffer_full } => {
                if !buffer_full {
                    self.policy_drops += 1;
                }
                t.req_end(req.id);
            }
        }
    }

    fn apply<T: Timer>(&mut self, t: &mut T, now: Time, assignments: Vec<Assignment>) {
        for a in assignments {
            self.assignments += 1;
            if let Some(victim) = a.preempted {
                self.preemptions += 1;
                self.pause_thread(victim.0 as usize, a.start_at.max(now));
            }
            let thread = a.thread.0 as usize;
            self.token[thread] += 1;
            let ev = Ev::ThreadStart {
                thread,
                core: a.core,
                token: self.token[thread],
            };
            t.time(Layer::SimQueue, NO_REQ, || self.queue.push(a.start_at, ev));
        }
    }

    /// Stops a running thread at `at`, banking its remaining service.
    fn pause_thread(&mut self, thread: usize, at: Time) {
        self.token[thread] += 1;
        self.on_core[thread] = None;
        if let Some(inflight) = self.current[thread].as_mut() {
            if let Some(started) = inflight.started.take() {
                inflight.remaining = inflight.remaining - at.since(started);
            }
        }
    }

    /// Takes the head request of `thread`'s socket and publishes its class.
    fn take_request<T: Timer>(&mut self, t: &mut T, thread: usize) -> Option<Req> {
        let req = t.time(Layer::NetSock, NO_REQ, || self.group.recv(thread))?;
        let _ = self
            .class_map
            .update_u64(thread as u32, class_code(req.class));
        Some(req)
    }

    fn on_thread_start<T: Timer>(
        &mut self,
        t: &mut T,
        now: Time,
        thread: usize,
        core: CoreId,
        token: u64,
    ) {
        if self.token[thread] != token {
            return;
        }
        self.on_core[thread] = Some(core);
        if self.current[thread].is_none() {
            let Some(req) = self.take_request(t, thread) else {
                // Spurious wakeup: nothing to do, block again.
                let a = t.time(Layer::Ghost, NO_REQ, || {
                    self.ghost
                        .thread_stopped(ThreadId(thread as u32), core, now)
                });
                self.apply(t, now, a);
                return;
            };
            self.current[thread] = Some(InFlight {
                req,
                remaining: self.cfg.per_request_overhead + req.service,
                started: None,
            });
        }
        let inflight = self.current[thread].as_mut().expect("set above");
        inflight.started = Some(now);
        let (at, id) = (now + inflight.remaining, inflight.req.id);
        t.time(Layer::SimQueue, id, || {
            self.queue.push(at, Ev::Complete { thread, token })
        });
    }

    fn on_complete<T: Timer>(&mut self, t: &mut T, now: Time, thread: usize, token: u64) {
        if self.token[thread] != token {
            return;
        }
        let inflight = self.current[thread].take().expect("was running");
        let core = self.on_core[thread].expect("completing thread is on a core");
        let req = inflight.req;
        self.completed += 1;
        self.per_class[usize::from(req.class == RequestClass::Scan)] += 1;
        self.hash
            .words(&[u64::from(req.id), thread as u64, now.as_nanos()]);
        t.req_end(req.id);
        // More work queued? The thread keeps its core and loops.
        if let Some(req) = self.take_request(t, thread) {
            self.token[thread] += 1;
            let token = self.token[thread];
            let remaining = self.cfg.per_request_overhead + req.service;
            self.current[thread] = Some(InFlight {
                req,
                remaining,
                started: Some(now),
            });
            t.time(Layer::SimQueue, req.id, || {
                self.queue
                    .push(now + remaining, Ev::Complete { thread, token })
            });
            return;
        }
        // Idle: release the core.
        let _ = self.class_map.update_u64(thread as u32, class::GET);
        self.on_core[thread] = None;
        self.token[thread] += 1;
        let a = t.time(Layer::Ghost, NO_REQ, || {
            self.ghost
                .thread_stopped(ThreadId(thread as u32), core, now)
        });
        self.apply(t, now, a);
    }

    /// Fingerprint, conservation and the deterministic layer counters.
    fn finish(self, setup_s: f64, wall_s: f64) -> Round {
        let ring_drops = self.nic.ring_drops();
        let sock_drops = self.group.total_buffer_drops();
        let in_flight = self.queue.len()
            + self.nic.depths().iter().sum::<usize>()
            + self.group.depths().iter().sum::<usize>()
            + self.current.iter().filter(|c| c.is_some()).count();
        let drops = ring_drops + sock_drops + self.policy_drops;
        let (failed, problem) = crate::conservation(self.offered, self.completed, drops, in_flight);
        let snap = self.syrupd.telemetry_snapshot();
        let mut fp = self.hash;
        fp.words(&[
            self.offered,
            self.completed,
            ring_drops,
            sock_drops,
            self.policy_drops,
            self.per_class[0],
            self.per_class[1],
            self.preemptions,
        ]);
        let per_req = |x: u64| x as f64 / self.completed.max(1) as f64;
        Round {
            setup_s,
            wall_s,
            offered: self.offered,
            completed: self.completed,
            failed,
            fingerprint: fp.0,
            summary: format!(
                "offered={} completed={} get={} scan={} ring_drops={ring_drops} \
                 sock_drops={sock_drops} policy_drops={} preemptions={}",
                self.offered,
                self.completed,
                self.per_class[0],
                self.per_class[1],
                self.policy_drops,
                self.preemptions
            ),
            problems: problem.into_iter().collect(),
            counters: vec![
                ("sim.events_per_req", per_req(self.events)),
                ("net.nic_ring.drops", ring_drops as f64),
                ("net.sock.drops", sock_drops as f64),
                (
                    "core.dispatches_per_req",
                    per_req(snap.counter("syrupd/dispatches")),
                ),
                ("ghost.assignments_per_req", per_req(self.assignments)),
                ("ghost.preemptions_per_req", per_req(self.preemptions)),
            ],
        }
    }
}

/// One round: build (timed as set-up), run the request loop (timed as
/// the loop), then check and fingerprint the outputs.
pub fn round<T: Timer>(seed: u64, t: &mut T) -> Round {
    let started = Instant::now();
    let mut world = World::new(seed);
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    world.run(t);
    let wall_s = started.elapsed().as_secs_f64();
    world.finish(setup_s, wall_s)
}

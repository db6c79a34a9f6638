//! `fig7_token_ebpf`: Figure 7's two-tenant token QoS at 400K RPS, with
//! both hooks running compiled C in the eBPF VM.
//!
//! ```text
//! arrival ─► NIC RSS ─► NIC ring ─► driver poll ─► XDP hook (C round robin)
//!   ─► stack ─► socket-select hook (C token policy) ─► 6 FIFO sockets
//!   ─► worker (syscalls + GET service) ─► completion
//! ```
//!
//! The userspace `TokenAgent` refills the token map every 100µs. The
//! XDP verdict picks the CPU that runs the rest of the RX path; the
//! socket-select verdict picks the socket (or drops the request when its
//! tenant is out of tokens).

use std::time::Instant;

use syrup::apps::server_world::{ServerConfig, SocketPolicyKind};
use syrup::apps::{RocksDbModel, TokenAgent};
use syrup::core::{CompileOptions, Decision, Hook, HookMeta, MapDef, MapRef, PolicySource, Syrupd};
use syrup::ebpf::Backend;
use syrup::net::{flow, AppHeader, Delivery, FiveTuple, Frame, Nic, RequestClass, ReuseportGroup};
use syrup::policies::{RoundRobinPolicy, TokenPolicy};
use syrup::sim::{ArrivalGen, Duration, EventQueue, SimRng, Time};

use crate::stats::Fnv;
use crate::timer::{Layer, Timer, NO_REQ};
use crate::Round;

/// Simulated traffic per round.
const ROUND: Duration = Duration::from_millis(30);
/// LS token generation rate (the paper's 350K/s).
const TOKEN_RATE: u64 = 350_000;
/// Per-tenant offered load (LS = BE = 200K, 400K total).
const TENANT_RPS: f64 = 200_000.0;
/// NIC RX descriptors per queue.
const RING: usize = 256;
/// Requests the policy oracle replays through the native twins.
const ORACLE_PREFIX: usize = 10_000;

fn config(seed: u64) -> ServerConfig {
    ServerConfig::fig7(
        SocketPolicyKind::TokenBased {
            rate_per_sec: TOKEN_RATE,
        },
        TENANT_RPS,
        TENANT_RPS,
        seed,
    )
}

#[derive(Debug, Clone, Copy)]
struct Req {
    id: u32,
    user: u32,
    service: Duration,
    flow: u32,
}

/// The seeded request stream: arrival instants plus per-request tenant,
/// flow and service time. The world and the policy oracle draw from
/// identical streams.
struct Traffic {
    rng: SimRng,
    arrivals: ArrivalGen,
    tenant_cum: Vec<(f64, u32)>,
    num_flows: usize,
    model: RocksDbModel,
    next_id: u32,
    end: Time,
}

impl Traffic {
    fn new(cfg: &ServerConfig, rng: SimRng, end: Time) -> Self {
        let total: f64 = cfg.tenants.iter().map(|t| t.weight).sum();
        let mut acc = 0.0;
        let tenant_cum = cfg
            .tenants
            .iter()
            .map(|t| {
                acc += t.weight / total;
                (acc, t.user_id)
            })
            .collect();
        Traffic {
            rng,
            arrivals: ArrivalGen::poisson(cfg.load_rps),
            tenant_cum,
            num_flows: cfg.num_flows,
            model: cfg.model,
            next_id: 0,
            end,
        }
    }

    fn next(&mut self) -> Option<(Time, Req)> {
        let at = self.arrivals.next_arrival(&mut self.rng)?;
        if at >= self.end {
            return None;
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let user = self
            .tenant_cum
            .iter()
            .find(|&&(cum, _)| u < cum)
            .or(self.tenant_cum.last())
            .map_or(0, |&(_, id)| id);
        let flow = self.rng.index(self.num_flows) as u32;
        let service = self.model.sample(RequestClass::Get, &mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        Some((
            at,
            Req {
                id,
                user,
                service,
                flow,
            },
        ))
    }
}

enum Ev {
    Arrival(Req),
    Poll(u32),
    Deliver { req: Req, cpu: u32, queue: u32 },
    Complete(usize),
    TokenEpoch,
}

/// Everything a round builds before its first request.
struct World {
    cfg: ServerConfig,
    syrupd: Syrupd,
    agent: TokenAgent,
    nic: Nic<Req>,
    group: ReuseportGroup<Req>,
    queue: EventQueue<Ev>,
    traffic: Traffic,
    flows: Vec<FiveTuple>,
    flow_hashes: Vec<u32>,
    /// Datagram per tenant (index = user id), copied into `pkt` per hook.
    templates: Vec<Vec<u8>>,
    pkt: Vec<u8>,
    poll_armed: Vec<bool>,
    busy: Vec<Option<Req>>,
    end: Time,
    // Outputs.
    offered: u64,
    completed: u64,
    per_tenant: [u64; 2],
    policy_drops: u64,
    events: u64,
    hash: Fnv,
}

/// Registers the app and deploys both policies: compiled C, or (for the
/// oracle) their native twins. Returns the token map the agent refills.
fn deploy(syrupd: &Syrupd, cfg: &ServerConfig, native: bool) -> MapRef {
    let n = cfg.threads as u32;
    let (app, maps) = syrupd
        .register_app("rocksdb", &[cfg.port])
        .expect("fresh daemon has no port conflicts");
    let c = |source: &str| PolicySource::C {
        source: source.to_string(),
        options: CompileOptions::new().define("NUM_THREADS", i64::from(n)),
    };
    let xdp = if native {
        PolicySource::Native(Box::new(RoundRobinPolicy::new(n)))
    } else {
        c(syrup::policies::c_sources::ROUND_ROBIN)
    };
    syrupd
        .deploy(app, Hook::XdpDrv, xdp)
        .expect("XDP round robin deploys");
    if native {
        let map = maps
            .create_pinned("token_map", MapDef::u64_array(16))
            .expect("create token map");
        let policy = TokenPolicy::new(map.clone(), n);
        syrupd
            .deploy(
                app,
                Hook::SocketSelect,
                PolicySource::Native(Box::new(policy)),
            )
            .expect("native token policy deploys");
        map
    } else {
        let handle = syrupd
            .deploy(
                app,
                Hook::SocketSelect,
                c(syrup::policies::c_sources::TOKEN_BASED),
            )
            .expect("C token policy deploys");
        maps.open(&handle.pinned_maps["token_map"])
            .expect("policy pinned its token map")
    }
}

fn new_daemon() -> Syrupd {
    let syrupd = Syrupd::new();
    // Pin the engine so `SYRUP_BACKEND` in the caller's shell cannot
    // change what is measured.
    syrupd.set_backend(Backend::default());
    syrupd
}

fn agent(map: MapRef) -> TokenAgent {
    let mut agent = TokenAgent::new(map, Duration::from_micros(100), TOKEN_RATE, 0, 1);
    agent.on_epoch();
    agent
}

impl World {
    fn new(seed: u64) -> Self {
        let cfg = config(seed);
        let syrupd = new_daemon();
        let agent = agent(deploy(&syrupd, &cfg, false));
        let mut rng = SimRng::new(cfg.seed);
        let flows = flow::client_flows(cfg.num_flows, cfg.port, &mut rng);
        let flow_hashes = flows.iter().map(|f| f.flow_hash()).collect();
        let templates = (0..2)
            .map(|user| {
                Frame::build(
                    &flows[0],
                    &AppHeader {
                        req_type: RequestClass::Get.code(),
                        user_id: user,
                        key_hash: 0,
                        req_id: 0,
                    },
                )
                .datagram()
                .to_vec()
            })
            .collect();
        let end = Time::ZERO + ROUND;
        let mut group = ReuseportGroup::new(cfg.threads, cfg.socket_capacity);
        group.attach_telemetry(syrupd.telemetry(), "sock");
        World {
            traffic: Traffic::new(&cfg, rng, end),
            syrupd,
            agent,
            nic: Nic::new(cfg.threads, RING),
            group,
            queue: EventQueue::new(),
            flows,
            flow_hashes,
            templates,
            pkt: Vec::new(),
            poll_armed: vec![false; cfg.threads],
            busy: vec![None; cfg.threads],
            end,
            offered: 0,
            completed: 0,
            per_tenant: [0; 2],
            policy_drops: 0,
            events: 0,
            hash: Fnv::default(),
            cfg,
        }
    }

    fn meta(&self, now: Time, cpu: u32, queue: u32) -> HookMeta {
        HookMeta {
            now_ns: now.as_nanos(),
            cpu,
            rx_queue: queue,
            dst_port: self.cfg.port,
            trace: syrup::trace::TraceCtx::none(),
        }
    }

    fn load_pkt(&mut self, user: u32) {
        self.pkt.clear();
        self.pkt.extend_from_slice(&self.templates[user as usize]);
    }

    fn run<T: Timer>(&mut self, t: &mut T) {
        if let Some((at, req)) = self.traffic.next() {
            t.time(Layer::SimQueue, req.id, || {
                self.queue.push(at, Ev::Arrival(req))
            });
        }
        let epoch = self.agent.epoch;
        t.time(Layer::SimQueue, NO_REQ, || {
            self.queue.push(Time::ZERO + epoch, Ev::TokenEpoch)
        });
        while let Some((now, ev)) = t.time(Layer::SimQueue, NO_REQ, || self.queue.pop()) {
            self.events += 1;
            match ev {
                Ev::Arrival(req) => self.on_arrival(t, now, req),
                Ev::Poll(q) => self.on_poll(t, now, q),
                Ev::Deliver { req, cpu, queue } => self.on_deliver(t, now, req, cpu, queue),
                Ev::Complete(thread) => self.on_complete(t, now, thread),
                Ev::TokenEpoch => {
                    t.time(Layer::TokenAgent, NO_REQ, || self.agent.on_epoch());
                    if now < self.end {
                        t.time(Layer::SimQueue, NO_REQ, || {
                            self.queue.push(now + epoch, Ev::TokenEpoch)
                        });
                    }
                }
            }
        }
    }

    fn on_arrival<T: Timer>(&mut self, t: &mut T, now: Time, req: Req) {
        t.req_begin(req.id);
        if let Some((at, next)) = self.traffic.next() {
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
        self.load_pkt(req.user);
        let meta = self.meta(now, q, q);
        let (_, xdp) = t.time(Layer::CoreXdp, req.id, || {
            self.syrupd.schedule(Hook::XdpDrv, &mut self.pkt, &meta)
        });
        let cpu = match xdp {
            Decision::Executor(cpu) => Some(cpu),
            Decision::Pass => Some(q),
            Decision::Drop => None,
        };
        if let Some(cpu) = cpu {
            let s = &self.cfg.stack;
            let at = now + s.skb_alloc + s.protocol + s.socket_deliver;
            t.time(Layer::SimQueue, req.id, || {
                self.queue.push(at, Ev::Deliver { req, cpu, queue: q })
            });
        } else {
            self.policy_drops += 1;
            t.req_end(req.id);
        }
        let at = now + self.cfg.stack.irq_and_driver;
        t.time(Layer::SimQueue, NO_REQ, || self.queue.push(at, Ev::Poll(q)));
    }

    fn on_deliver<T: Timer>(&mut self, t: &mut T, now: Time, req: Req, cpu: u32, queue: u32) {
        self.load_pkt(req.user);
        let meta = self.meta(now, cpu, queue);
        let (_, verdict) = t.time(Layer::CoreSockSelect, req.id, || {
            self.syrupd
                .schedule_verdict(Hook::SocketSelect, &mut self.pkt, &meta)
        });
        let hash = self.flow_hashes[req.flow as usize];
        match t.time(Layer::NetSock, req.id, || {
            self.group.deliver_verdict(req, hash, verdict)
        }) {
            Delivery::Enqueued(socket) => {
                if self.busy[socket].is_none() {
                    self.start_next(t, now, socket);
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

    fn start_next<T: Timer>(&mut self, t: &mut T, now: Time, thread: usize) {
        let Some(req) = t.time(Layer::NetSock, NO_REQ, || self.group.recv(thread)) else {
            return;
        };
        self.busy[thread] = Some(req);
        let at = now + self.cfg.per_request_overhead + req.service;
        t.time(Layer::SimQueue, req.id, || {
            self.queue.push(at, Ev::Complete(thread))
        });
    }

    fn on_complete<T: Timer>(&mut self, t: &mut T, now: Time, thread: usize) {
        if let Some(req) = self.busy[thread].take() {
            self.completed += 1;
            self.per_tenant[req.user as usize] += 1;
            self.hash
                .words(&[u64::from(req.id), thread as u64, now.as_nanos()]);
            t.req_end(req.id);
        }
        self.start_next(t, now, thread);
    }

    /// Fingerprint, conservation and the deterministic layer counters.
    fn finish(self, setup_s: f64, wall_s: f64) -> Round {
        let ring_drops = self.nic.ring_drops();
        let sock_drops = self.group.total_buffer_drops();
        let in_flight = self.queue.len()
            + self.nic.depths().iter().sum::<usize>()
            + self.group.depths().iter().sum::<usize>()
            + self.busy.iter().filter(|b| b.is_some()).count();
        let drops = ring_drops + sock_drops + self.policy_drops;
        let (mut failed, problem) =
            crate::conservation(self.offered, self.completed, drops, in_flight);
        let mut problems: Vec<String> = problem.into_iter().collect();
        let snap = self.syrupd.telemetry_snapshot();
        let traps = snap.counter("vm/traps");
        if traps != 0 {
            problems.push(format!("{traps} VM traps"));
            failed += traps;
        }
        let mut fp = self.hash;
        fp.words(&[
            self.offered,
            self.completed,
            ring_drops,
            sock_drops,
            self.policy_drops,
            self.per_tenant[0],
            self.per_tenant[1],
        ]);
        let per_req = |x: u64| x as f64 / self.completed.max(1) as f64;
        let hist_mean = |name: &str| snap.histogram(name).map_or(0.0, |h| h.mean());
        Round {
            setup_s,
            wall_s,
            offered: self.offered,
            completed: self.completed,
            failed,
            fingerprint: fp.0,
            summary: format!(
                "offered={} completed={} ls={} be={} ring_drops={ring_drops} \
                 sock_drops={sock_drops} policy_drops={}",
                self.offered,
                self.completed,
                self.per_tenant[0],
                self.per_tenant[1],
                self.policy_drops
            ),
            problems,
            counters: vec![
                ("sim.events_per_req", per_req(self.events)),
                ("net.nic_ring.drops", ring_drops as f64),
                ("net.sock.drops", sock_drops as f64),
                (
                    "core.dispatches_per_req",
                    per_req(snap.counter("syrupd/dispatches")),
                ),
                ("ebpf.runs_per_req", per_req(snap.counter("vm/runs"))),
                ("ebpf.insns_per_run", hist_mean("vm/run_insns")),
                ("ebpf.cycles_per_run", hist_mean("vm/run_cycles")),
                ("ebpf.traps", traps as f64),
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

/// Replays a prefix of the round's traffic through the C policies and
/// through their native twins (`RoundRobinPolicy`, `TokenPolicy`), each
/// with its own token map and agent, and counts verdicts that differ.
/// Returns `(requests checked, mismatches)`.
pub fn oracle(seed: u64) -> (u64, u64) {
    let cfg = config(seed);
    let c = new_daemon();
    let native = new_daemon();
    let mut agents = [
        agent(deploy(&c, &cfg, false)),
        agent(deploy(&native, &cfg, true)),
    ];
    let mut rng = SimRng::new(cfg.seed);
    let flows = flow::client_flows(cfg.num_flows, cfg.port, &mut rng);
    let mut traffic = Traffic::new(&cfg, rng, Time::ZERO + ROUND);
    let epoch = agents[0].epoch;
    let mut next_epoch = Time::ZERO + epoch;
    let (mut checked, mut mismatches) = (0u64, 0u64);
    for _ in 0..ORACLE_PREFIX {
        let Some((at, req)) = traffic.next() else {
            break;
        };
        while next_epoch <= at {
            agents.iter_mut().for_each(TokenAgent::on_epoch);
            next_epoch += epoch;
        }
        let frame = Frame::build(
            &flows[req.flow as usize],
            &AppHeader {
                req_type: RequestClass::Get.code(),
                user_id: req.user,
                key_hash: 0,
                req_id: u64::from(req.id),
            },
        );
        let meta = HookMeta {
            now_ns: at.as_nanos(),
            cpu: 0,
            rx_queue: 0,
            dst_port: cfg.port,
            trace: syrup::trace::TraceCtx::none(),
        };
        let verdicts: Vec<_> = [&c, &native]
            .iter()
            .map(|d| {
                let mut pkt = frame.datagram().to_vec();
                let xdp = d.schedule(Hook::XdpDrv, &mut pkt, &meta).1;
                let sock = d.schedule_verdict(Hook::SocketSelect, &mut pkt, &meta).1;
                (xdp, sock)
            })
            .collect();
        checked += 1;
        if verdicts[0] != verdicts[1] {
            mismatches += 1;
        }
    }
    (checked, mismatches)
}

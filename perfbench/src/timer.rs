//! Per-layer call timing from the benchmark's side of each layer's API.
//!
//! The request loops call every layer through [`Timer::time`]. Untraced
//! rounds use [`Off`], which compiles to the bare call, so the end-to-end
//! numbers carry no timing code. Traced rounds use [`Spans`], which
//! brackets each call with two clock reads, adds the interval to the
//! layer's aggregate and keeps full spans for a sampled subset of
//! requests.

use std::collections::HashMap;
use std::time::Instant;

/// The layers the pipelines time, named after the crates they live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `EventQueue::push` / `pop` (syrup-sim timer wheel).
    SimQueue,
    /// `Nic::select_queue` (Toeplitz RSS).
    NetRss,
    /// `Nic::enqueue` / `dequeue` (NIC RX rings).
    NetNicRing,
    /// `ReuseportGroup::deliver_verdict` / `recv` (sockets + ExecQueue).
    NetSock,
    /// `Syrupd::schedule(Hook::XdpDrv)`.
    CoreXdp,
    /// `Syrupd::schedule_verdict(Hook::SocketSelect)`.
    CoreSockSelect,
    /// `ThreadScheduler::thread_ready` / `thread_stopped` on `GhostSched`.
    Ghost,
    /// `TokenAgent::on_epoch`.
    TokenAgent,
}

/// Number of [`Layer`] variants.
pub const NUM_LAYERS: usize = 8;

/// Every layer with its metric-name prefix, in [`Layer`] order.
pub const LAYERS: [(Layer, &str); NUM_LAYERS] = [
    (Layer::SimQueue, "sim.queue"),
    (Layer::NetRss, "net.rss"),
    (Layer::NetNicRing, "net.nic_ring"),
    (Layer::NetSock, "net.sock"),
    (Layer::CoreXdp, "core.xdp"),
    (Layer::CoreSockSelect, "core.sock_select"),
    (Layer::Ghost, "ghost"),
    (Layer::TokenAgent, "apps.token_agent"),
];

/// Request id for calls that belong to no single request (queue pops,
/// agent epochs). Never sampled.
pub const NO_REQ: u32 = u32::MAX;

/// Times calls into layers on behalf of a request loop.
pub trait Timer {
    /// Runs `f`, attributing its duration to `layer` (and to request
    /// `req`'s sampled timeline).
    fn time<R>(&mut self, layer: Layer, req: u32, f: impl FnOnce() -> R) -> R;
    /// Opens request `req`'s loop span (its arrival is being handled).
    fn req_begin(&mut self, req: u32);
    /// Closes request `req`'s loop span (it completed or was dropped).
    fn req_end(&mut self, req: u32);
}

/// The untraced timer: every call is made directly.
pub struct Off;

impl Timer for Off {
    #[inline(always)]
    fn time<R>(&mut self, _layer: Layer, _req: u32, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    fn req_begin(&mut self, _req: u32) {}
    #[inline(always)]
    fn req_end(&mut self, _req: u32) {}
}

/// One recorded span, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, or `"loop"` for a request's loop span.
    pub layer: &'static str,
    /// Request id.
    pub req: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// The traced timer: per-layer aggregates for every call plus full
/// spans for requests whose id is a multiple of `sample_every`.
pub struct Spans {
    epoch: Instant,
    sample_every: u32,
    /// Calls per layer, indexed by `Layer as usize`.
    pub calls: [u64; NUM_LAYERS],
    /// Measured ns per layer (clock cost included).
    pub ns: [u64; NUM_LAYERS],
    open: HashMap<u32, u64>,
    /// Sampled spans, in recording order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A tracer keeping full spans for one request in `sample_every`.
    pub fn new(sample_every: u32) -> Self {
        Spans {
            epoch: Instant::now(),
            sample_every: sample_every.max(1),
            calls: [0; NUM_LAYERS],
            ns: [0; NUM_LAYERS],
            open: HashMap::new(),
            spans: Vec::new(),
        }
    }

    fn sampled(&self, req: u32) -> bool {
        req != NO_REQ && req.is_multiple_of(self.sample_every)
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Total timed calls across layers.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

impl Timer for Spans {
    #[inline(always)]
    fn time<R>(&mut self, layer: Layer, req: u32, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let i = layer as usize;
        self.calls[i] += 1;
        self.ns[i] += t1.duration_since(t0).as_nanos() as u64;
        if self.sampled(req) {
            let (start_ns, end_ns) = (self.since_epoch(t0), self.since_epoch(t1));
            self.spans.push(Span {
                layer: LAYERS[i].1,
                req,
                start_ns,
                end_ns,
            });
        }
        r
    }

    fn req_begin(&mut self, req: u32) {
        if self.sampled(req) {
            let now = self.since_epoch(Instant::now());
            self.open.insert(req, now);
        }
    }

    fn req_end(&mut self, req: u32) {
        if let Some(start_ns) = self.open.remove(&req) {
            let end_ns = self.since_epoch(Instant::now());
            self.spans.push(Span {
                layer: "loop",
                req,
                start_ns,
                end_ns,
            });
        }
    }
}

/// What one traced span costs on this host.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Measured duration of an empty timed call: the clock cost inside
    /// every interval, subtracted from each `ns_per_call`.
    pub empty_span_ns: f64,
    /// Wall cost of one timed empty call including the tracer's own
    /// bookkeeping outside the interval.
    pub full_span_ns: f64,
}

/// Times empty calls through [`Spans`] in several batches and keeps the
/// median batch, so one slow burst on the host does not set the figure.
/// The calls carry an unsampled request id, so they pay the sampling
/// test that real calls pay.
pub fn calibrate() -> Calibration {
    const BATCHES: usize = 9;
    const PER_BATCH: u32 = 20_000;
    let mut inside = Vec::with_capacity(BATCHES);
    let mut full = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut spans = Spans::new(64);
        let started = Instant::now();
        for _ in 0..PER_BATCH {
            spans.time(Layer::SimQueue, 1, || std::hint::black_box(()));
        }
        let wall = started.elapsed().as_nanos() as f64;
        inside.push(spans.ns[Layer::SimQueue as usize] as f64 / f64::from(PER_BATCH));
        full.push(wall / f64::from(PER_BATCH));
    }
    Calibration {
        empty_span_ns: crate::stats::median(&inside),
        full_span_ns: crate::stats::median(&full),
    }
}

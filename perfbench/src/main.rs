//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig7_token_ebpf|fig8_ghost> --seed <n> \
//!     --seconds <s> --trace <0|1> [--trace-out <path>]
//! ```
//!
//! A run repeats one seeded workload in equal rounds until `--seconds`
//! have passed. Each round builds the workload from scratch (timed as
//! set-up), runs its request loop (timed as the loop) and checks its
//! outputs. Every round of a run replays the same inputs, so their
//! fingerprints must agree. Rates come from the fastest round (see
//! [`rate`]), so that phases of neighbouring load on the host do not set
//! them.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced rounds and prints the per-layer metrics. The
//! last line of standard output is one JSON object. The run exits
//! non-zero when any output check fails. Nothing is written to disk
//! unless `--trace-out` names a file. See `perfbench/README.md`.

mod fig7;
mod fig8;
mod stats;
mod timer;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use stats::{iqr_pct, median, quantile};
use timer::{Calibration, Off, Spans, LAYERS};

/// What one round measured and produced.
pub struct Round {
    /// Seconds spent building the workload.
    pub setup_s: f64,
    /// Seconds spent in the request loop.
    pub wall_s: f64,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests the output checks could not account for.
    pub failed: u64,
    /// Hash of the simulated outputs; equal for equal inputs.
    pub fingerprint: u64,
    /// The fingerprinted counts, for mismatch reports.
    pub summary: String,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Deterministic per-layer counters (traced metrics).
    pub counters: Vec<(&'static str, f64)>,
}

/// Request conservation: every offered request completed or was dropped
/// for a counted reason, and nothing is left in flight after the drain.
/// Returns the requests it cannot account for and, if any, the failure.
pub fn conservation(
    offered: u64,
    completed: u64,
    drops: u64,
    in_flight: usize,
) -> (u64, Option<String>) {
    let unaccounted = offered.abs_diff(completed + drops) + in_flight as u64;
    let problem = (unaccounted > 0).then(|| {
        format!(
            "conservation: offered {offered}, completed {completed}, dropped {drops}, \
             {in_flight} in flight"
        )
    });
    (unaccounted, problem)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fig7TokenEbpf,
    Fig8Ghost,
}

const WORKLOADS: [(&str, Workload); 2] = [
    ("fig7_token_ebpf", Workload::Fig7TokenEbpf),
    ("fig8_ghost", Workload::Fig8Ghost),
];

/// Rounds a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 8;
/// Requests whose full span timelines a traced run keeps: one in this many.
const SAMPLE_EVERY: u32 = 64;

struct Args {
    workload: Workload,
    name: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = value("--workload").ok_or("missing --workload")?;
    let &(name, workload) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
        trace_out: value("--trace-out").map(str::to_string),
    })
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Completed requests per second of loop time in the run's fastest
/// round.
///
/// The loops are single-threaded, and neighbouring load on the host
/// arrives in phases that slow every round inside them by up to half
/// and never speed one up. In a busy stretch only a handful of a run's
/// short rounds fall outside such a phase, so the fastest round repeats
/// across runs where the median and the lower quantiles do not.
fn rate(rounds: &[&Round]) -> f64 {
    rounds
        .iter()
        .map(|r| r.completed as f64 / r.wall_s)
        .fold(0.0, f64::max)
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(untraced: &[&Round]) -> Result<Metrics, String> {
    let setups: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
    Ok(vec![
        ("reqs_per_s".into(), rate(untraced), "1/s"),
        ("setup_s".into(), median(&setups), "s"),
        ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
    ])
}

/// The unit of each deterministic counter a workload reports.
const COUNTERS: [(&str, &str); 10] = [
    ("sim.events_per_req", "event/req"),
    ("net.nic_ring.drops", "count"),
    ("net.sock.drops", "count"),
    ("core.dispatches_per_req", "dispatch/req"),
    ("ebpf.runs_per_req", "run/req"),
    ("ebpf.insns_per_run", "insn/run"),
    ("ebpf.cycles_per_run", "cycle/run"),
    ("ebpf.traps", "count"),
    ("ghost.assignments_per_req", "assign/req"),
    ("ghost.preemptions_per_req", "preempt/req"),
];

/// The per-layer ledger of a traced run. Over the traced rounds' loop
/// wall time `W`, with `e` the clock cost inside each timed interval and
/// `f` the full cost of one timed call (clock plus bookkeeping):
///
/// `W = Σ_layers (ns − calls·e) + spans·f + self`
///
/// so the layer shares, `trace.share` and `apps.loop.share` sum to 1.
fn per_layer(untraced: &[&Round], traced: &[&Round], spans: &Spans, cal: Calibration) -> Metrics {
    let e = cal.empty_span_ns;
    let wall_ns: f64 = traced.iter().map(|r| r.wall_s * 1e9).sum();
    let completed: f64 = traced.iter().map(|r| r.completed as f64).sum();
    let span_ns = spans.total_calls() as f64 * cal.full_span_ns;
    let mut m: Metrics = Vec::new();
    let mut layers_ns = 0.0;
    for (layer, name) in LAYERS {
        let (calls, ns) = (spans.calls[layer as usize], spans.ns[layer as usize]);
        let own = ns as f64 - calls as f64 * e;
        layers_ns += own;
        let per_call = if calls == 0 { 0.0 } else { own / calls as f64 };
        m.push((format!("{name}.ns_per_call"), per_call, "ns"));
        m.push((format!("{name}.share"), share(own, wall_ns), "ratio"));
    }
    let self_ns = wall_ns - layers_ns - span_ns;
    let per_req = if completed > 0.0 {
        self_ns / completed
    } else {
        0.0
    };
    m.push(("apps.loop.self_ns_per_req".into(), per_req, "ns"));
    m.push(("apps.loop.share".into(), share(self_ns, wall_ns), "ratio"));
    m.push(("trace.share".into(), share(span_ns, wall_ns), "ratio"));
    for (name, unit) in COUNTERS {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.counters.iter().find(|(n, _)| *n == name))
            .map(|&(_, v)| v)
            .collect();
        m.push((name.into(), median(&values), unit));
    }
    let untraced_walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    m.push(("trace.empty_span_ns".into(), e, "ns"));
    m.push((
        "trace.overhead_pct".into(),
        (rate(untraced) / rate(traced) - 1.0) * 100.0,
        "%",
    ));
    m.push(("noise.round_iqr_pct".into(), iqr_pct(&untraced_walls), "%"));
    m
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes the traced run's metrics and sampled spans to `path`.
fn write_trace(path: &str, header: &str, metrics: &Metrics, spans: &Spans) -> Result<(), String> {
    let mut out = format!(
        "{{\"run\": \"{header}\", \"metrics\": {}, \"spans\": [",
        metrics_json(metrics)
    );
    for (i, s) in spans.spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"layer\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.layer, s.req, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fig7_token_ebpf|fig8_ghost> \
                 --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let header = format!(
        "perfbench workload={} seed={} nproc={nproc} backend={} trace={}",
        args.name,
        args.seed,
        syrup::ebpf::Backend::default(),
        u8::from(args.trace)
    );
    println!("# {header}");

    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    if args.workload == Workload::Fig7TokenEbpf {
        let (checked, mismatches) = fig7::oracle(args.seed);
        attempted += checked;
        failed += mismatches;
        if mismatches > 0 {
            problems.push(format!(
                "policy oracle: {mismatches} of {checked} verdicts differ from the native twins"
            ));
        }
    }

    let cal = args.trace.then(timer::calibrate);
    let mut spans = Spans::new(SAMPLE_EVERY);
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let started = Instant::now();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && rounds.len() % 2 == 1;
        let r = match (args.workload, traced) {
            (Workload::Fig7TokenEbpf, false) => fig7::round(args.seed, &mut Off),
            (Workload::Fig7TokenEbpf, true) => fig7::round(args.seed, &mut spans),
            (Workload::Fig8Ghost, false) => fig8::round(args.seed, &mut Off),
            (Workload::Fig8Ghost, true) => fig8::round(args.seed, &mut spans),
        };
        rounds.push((traced, r));
    }

    let first = &rounds[0].1;
    for (i, (_, r)) in rounds.iter().enumerate() {
        attempted += r.offered;
        failed += r.failed;
        problems.extend(r.problems.iter().map(|p| format!("round {i}: {p}")));
        if r.fingerprint != first.fingerprint {
            failed += r.offered;
            problems.push(format!(
                "round {i}: fingerprint differs from round 0 ({} vs {})",
                r.summary, first.summary
            ));
        }
    }
    if first.completed == 0 {
        problems.push("no request completed".into());
    }

    let untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let metrics = match cal {
        Some(cal) => per_layer(&untraced, &traced, &spans, cal),
        None => end_to_end(&untraced)?,
    };

    println!("# outputs: {} ({} rounds)", first.summary, rounds.len());
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s * 1e3).collect();
    println!(
        "# untraced round ms: min {:.3} p10 {:.3} q1 {:.3} median {:.3} q3 {:.3}",
        quantile(&walls, 0.0),
        quantile(&walls, 0.1),
        quantile(&walls, 0.25),
        quantile(&walls, 0.5),
        quantile(&walls, 0.75)
    );
    for p in &problems {
        println!("# FAILED CHECK: {p}");
    }
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    println!("{:<34} {failed_ratio:>16} ratio", "failed_ratio");
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    if let Some(path) = &args.trace_out {
        write_trace(path, &header, &metrics, &spans)?;
    }
    let correct = problems.is_empty() && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(&metrics)
    );
    Ok(correct)
}

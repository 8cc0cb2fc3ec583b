//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//! perfbench --record
//! ```
//!
//! Run from the repository root. With `--trace 0` it times the workload's
//! closed loop (one client, one shard thread) for `--seconds` and reports
//! the end-to-end metrics; with `--trace 1` it runs the traced pass, which
//! records spans around calls into each layer and reports the per-layer
//! metrics. Every output is checked; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` and the exit code
//! is nonzero when any check failed. `--record` prints the fleet answers
//! for the shipped seeds as the `expected.rs` tables.

mod expected;
mod fleet;
mod spans;
mod spec;
mod statespace;
mod util;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use spans::Tracer;
use util::{median, peak_rss_mb, quantile, Probe, Tally};

pub const WORKLOADS: [&str; 4] = [
    "fleet-bare",
    "fleet-observed",
    "spec-screen",
    "nue-statespace",
];

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// What a timed, untraced run measured.
pub struct Measured {
    /// What `rates` count: events, states or requests.
    pub work: &'static str,
    /// One entry per set-up repetition, as timed.
    pub setup_s: Vec<f64>,
    /// The probe factor of each set-up repetition.
    pub setup_k: Vec<f64>,
    /// One entry per request (per arm check for `nue-statespace`), as
    /// timed.
    pub latencies_ms: Vec<f64>,
    /// The probe factor of each latency's stretch.
    pub latency_k: Vec<f64>,
    /// Work per second, one entry per request, round or request batch,
    /// as timed.
    pub rates: Vec<f64>,
    /// The probe factor of each rate's stretch.
    pub rate_k: Vec<f64>,
    /// Count metrics this run shares with the traced pass.
    pub counts: Vec<(&'static str, f64)>,
    /// Workload-specific metrics: (name, unit, value, samples).
    pub extra: Vec<(&'static str, &'static str, f64, usize)>,
    /// Host-speed probe sampled after every timed stretch; it scales the
    /// timed metrics.
    pub probe: Probe,
}

impl Measured {
    pub fn new(work: &'static str) -> Self {
        Self {
            work,
            setup_s: Vec::new(),
            setup_k: Vec::new(),
            latencies_ms: Vec::new(),
            latency_k: Vec::new(),
            rates: Vec::new(),
            rate_k: Vec::new(),
            counts: Vec::new(),
            extra: Vec::new(),
            probe: Probe::new(),
        }
    }

    /// Record one set-up repetition, then take probe samples for its
    /// factor.
    pub fn set_up(&mut self, secs: f64, probe_samples: usize) {
        let k = self.probe.factor(probe_samples);
        self.setup_s.push(secs);
        self.setup_k.push(k);
    }

    /// Record one timed stretch: its work rate and the latencies of its
    /// requests, then take `probe_samples` probe samples for its factor.
    pub fn stretch(&mut self, rate: f64, latencies_ms: &[f64], probe_samples: usize) {
        let k = self.probe.factor(probe_samples);
        self.rates.push(rate);
        self.rate_k.push(k);
        self.latencies_ms.extend_from_slice(latencies_ms);
        self.latency_k.extend(latencies_ms.iter().map(|_| k));
    }
}

/// Per-layer metric values by name.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// One per-layer metric: name, unit, whether it is a count (must repeat
/// exactly), and the end-to-end metric and workload it should move.
struct Layer {
    name: &'static str,
    unit: &'static str,
    count: bool,
    moves: &'static str,
}

const FLEET_BARE_RATE: &str = "events_per_s (work_per_s) on fleet-bare";
const FLEET_OBS_RATE: &str = "events_per_s (work_per_s) on fleet-observed; no change on fleet-bare";
const FLEET_RSS: &str = "peak_rss_mb on fleet-bare and fleet-observed";
const NUE_RATE: &str = "states_per_s (work_per_s) and peak_rss_mb on nue-statespace";
const SPEC_FRONT: &str =
    "reject_p50_us and verdict_p50_ms (latency_p50_ms) on spec-screen; no change elsewhere";
const SPEC_CHECK: &str = "verdict_p50_ms (latency_p50_ms) on spec-screen";
const SPEC_TAIL: &str = "verdict_p99_ms (latency_p90_ms) on spec-screen";

const LAYERS: &[Layer] = &[
    Layer {
        name: "netsim.kernel.ns_per_event",
        unit: "ns",
        count: false,
        moves: FLEET_BARE_RATE,
    },
    Layer {
        name: "netsim.wheel.ns_per_op",
        unit: "ns",
        count: false,
        moves: FLEET_BARE_RATE,
    },
    Layer {
        name: "netsim.wheel.cascades_per_schedule",
        unit: "ratio",
        count: true,
        moves: FLEET_BARE_RATE,
    },
    Layer {
        name: "netsim.wheel.peak_len",
        unit: "count",
        count: true,
        moves: FLEET_BARE_RATE,
    },
    Layer {
        name: "netsim.eventqueue.ns_per_op",
        unit: "ns",
        count: false,
        moves: "none: oracle reference for netsim.wheel.ns_per_op",
    },
    Layer {
        name: "netsim.trace.ns_per_event",
        unit: "ns",
        count: false,
        moves: FLEET_OBS_RATE,
    },
    Layer {
        name: "netsim.trace.evicted_per_event",
        unit: "ratio",
        count: true,
        moves: FLEET_OBS_RATE,
    },
    Layer {
        name: "netsim.live.ns_per_event",
        unit: "ns",
        count: false,
        moves: FLEET_OBS_RATE,
    },
    Layer {
        name: "netsim.live.confirmed",
        unit: "count",
        count: true,
        moves: FLEET_OBS_RATE,
    },
    Layer {
        name: "netsim.live.dropped",
        unit: "count",
        count: true,
        moves: FLEET_OBS_RATE,
    },
    Layer {
        name: "netsim.inject.ns_per_event",
        unit: "ns",
        count: false,
        moves: FLEET_OBS_RATE,
    },
    Layer {
        name: "netsim.arena.bytes_per_ue",
        unit: "B",
        count: false,
        moves: FLEET_RSS,
    },
    Layer {
        name: "netsim.events",
        unit: "count",
        count: true,
        moves: FLEET_RSS,
    },
    Layer {
        name: "mck.successor.ns_per_transition",
        unit: "ns",
        count: false,
        moves: NUE_RATE,
    },
    Layer {
        name: "mck.store.hash_compact.ns_per_transition",
        unit: "ns",
        count: false,
        moves: NUE_RATE,
    },
    Layer {
        name: "mck.store.collapse.ns_per_transition",
        unit: "ns",
        count: false,
        moves: NUE_RATE,
    },
    Layer {
        name: "mck.store.hash_compact.bytes_per_state",
        unit: "B",
        count: false,
        moves: NUE_RATE,
    },
    Layer {
        name: "mck.store.collapse.bytes_per_state",
        unit: "B",
        count: false,
        moves: NUE_RATE,
    },
    Layer {
        name: "mck.frontier.spilled_bytes",
        unit: "B",
        count: true,
        moves: NUE_RATE,
    },
    Layer {
        name: "mck.frontier.peak",
        unit: "count",
        count: true,
        moves: NUE_RATE,
    },
    Layer {
        name: "mck.por.transition_ratio",
        unit: "ratio",
        count: true,
        moves: NUE_RATE,
    },
    Layer {
        name: "specl.lex.ns_per_byte",
        unit: "ns",
        count: false,
        moves: SPEC_FRONT,
    },
    Layer {
        name: "specl.parse.ns_per_byte",
        unit: "ns",
        count: false,
        moves: SPEC_FRONT,
    },
    Layer {
        name: "specl.sema.us_per_spec",
        unit: "us",
        count: false,
        moves: SPEC_FRONT,
    },
    Layer {
        name: "specl.lower.us_per_spec",
        unit: "us",
        count: false,
        moves: SPEC_FRONT,
    },
    Layer {
        name: "specl.overlay.us_per_merge",
        unit: "us",
        count: false,
        moves: SPEC_FRONT,
    },
    Layer {
        name: "specl.reject_share",
        unit: "ratio",
        count: true,
        moves: SPEC_FRONT,
    },
    Layer {
        name: "specl.interp.ns_per_transition",
        unit: "ns",
        count: false,
        moves: SPEC_CHECK,
    },
    Layer {
        name: "mck.check.us_per_request",
        unit: "us",
        count: false,
        moves: SPEC_CHECK,
    },
    Layer {
        name: "mck.check.states_per_request",
        unit: "count",
        count: true,
        moves: SPEC_CHECK,
    },
    Layer {
        name: "core.lattice.us_per_point",
        unit: "us",
        count: false,
        moves: SPEC_TAIL,
    },
    Layer {
        name: "core.lattice.points",
        unit: "count",
        count: true,
        moves: SPEC_TAIL,
    },
    Layer {
        name: "bench.trace_overhead",
        unit: "ratio",
        count: false,
        moves: "none: traced wall over untraced wall of the workload's own requests",
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--record") {
        return Ok(None);
    }
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            "--commit" => a.commit = val.clone(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Some(a))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return expected::record(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = Path::new(".");
    for needed in ["specs", "crates/bench/golden/fivegs_smoke.txt"] {
        if !root.join(needed).exists() {
            eprintln!("perfbench: run from the repository root ({needed} not found)");
            std::process::exit(2);
        }
    }
    let out_dir = root.join(".bench_build/perfbench");
    let spill = out_dir.join(format!("spill-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let started = Instant::now();
    let mut tally = Tally::default();
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let (metrics, counts) = if args.trace {
        traced(
            &args,
            root,
            &spill,
            &out_dir.join(format!("spans-{tag}.jsonl")),
            &mut tally,
        )
    } else {
        untraced(&args, root, &spill, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&spill);

    let correct = tally.failed == 0 && tally.attempted > 0;
    for e in &tally.errors {
        println!("FAILED: {e}");
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let meta = format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cpus\":{host_cpus},\"commit\":\"{}\",\"profile\":\"{profile}\",\"wall_s\":{}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.commit.replace('"', ""),
        started.elapsed().as_secs_f64()
    );
    println!("run {}", meta.replace('"', ""));
    let json_metrics = metrics
        .iter()
        .map(|(n, u, v, _)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect::<Vec<_>>()
        .join(",");
    let json_counts = counts
        .iter()
        .map(|(n, v)| format!("\"{n}\":{v}"))
        .collect::<Vec<_>>()
        .join(",");
    let samples = metrics
        .iter()
        .map(|(n, _, _, s)| format!("\"{n}\":{s}"))
        .collect::<Vec<_>>()
        .join(",");
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json_metrics}}}}}",
        tally.attempted, tally.failed
    );
    let record = format!(
        "{{{meta},\"result\":{result},\"samples\":{{{samples}}},\"counts\":{{{json_counts}}}}}\n"
    );
    if let Err(e) = std::fs::write(out_dir.join(format!("result-{tag}.json")), record) {
        eprintln!("perfbench: cannot write result file: {e}");
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

type MetricRows = Vec<(String, &'static str, f64, usize)>;
type CountRows = Vec<(String, f64)>;

fn finite(name: &str, v: f64, tally: &mut Tally) -> f64 {
    if v.is_finite() {
        v
    } else {
        tally.op(Err(format!("{name}: not a finite number")));
        0.0
    }
}

fn untraced(args: &Args, root: &Path, spill: &Path, tally: &mut Tally) -> (MetricRows, CountRows) {
    let (w, seed, secs) = (args.workload.as_str(), args.seed, args.seconds);
    let m = match w {
        "fleet-bare" => fleet::measure(w, fleet::BARE, seed, secs, tally),
        "fleet-observed" => fleet::measure(w, fleet::OBSERVED, seed, secs, tally),
        "spec-screen" => spec::measure(root, seed, secs, tally),
        _ => statespace::measure(seed, secs, spill, tally),
    };
    // The probe's tables stay resident for the whole run; they are not the
    // workload's memory.
    let probe_mb = m.probe.resident_bytes() as f64 / (1024.0 * 1024.0);
    let rss = peak_rss_mb() - probe_mb;
    // Every set-up, rate and latency is scaled by the probe factor of its
    // own stretch.
    let (setup, raw_rate) = (median(&m.setup_s), median(&m.rates));
    let setups: Vec<f64> = m
        .setup_s
        .iter()
        .zip(&m.setup_k)
        .map(|(s, k)| s * k)
        .collect();
    let rates: Vec<f64> = m.rates.iter().zip(&m.rate_k).map(|(r, k)| r / k).collect();
    let lats: Vec<f64> = m
        .latencies_ms
        .iter()
        .zip(&m.latency_k)
        .map(|(l, k)| l * k)
        .collect();
    let mut rows: MetricRows = vec![
        ("setup_s".into(), "s", median(&setups), setups.len()),
        ("work_per_s".into(), "1/s", median(&rates), rates.len()),
        (
            "latency_p50_ms".into(),
            "ms",
            quantile(&lats, 0.5),
            lats.len(),
        ),
        (
            "latency_p90_ms".into(),
            "ms",
            quantile(&lats, 0.9),
            lats.len(),
        ),
        ("peak_rss_mb".into(), "MB", rss, 1),
    ];
    for r in &mut rows {
        r.2 = finite(&r.0, r.2, tally);
        if r.3 == 0 {
            tally.op(Err(format!("{}: no samples", r.0)));
        }
    }

    // The end-to-end metrics under the names a reader of the workload
    // knows them by, as measured on this host.
    println!(
        "workload {w}: work unit = {}; raw values on this host:",
        m.work
    );
    let rate = match w {
        "nue-statespace" => Some("states_per_s"),
        "spec-screen" => None,
        _ => Some("events_per_s"),
    };
    let mut named: Vec<(&str, &str, Option<f64>, usize)> = vec![
        ("setup_s", "s", Some(setup), rows[0].3),
        ("events_per_s", "1/s", None, 0),
        ("states_per_s", "1/s", None, 0),
        ("verdicts_per_s", "1/s", None, 0),
        ("verdict_p50_ms", "ms", None, 0),
        ("verdict_p99_ms", "ms", None, 0),
        ("reject_p50_us", "us", None, 0),
        ("reject_p99_us", "us", None, 0),
        ("peak_rss_mb", "MB", Some(rss), 1),
        (
            "error_rate",
            "ratio",
            Some(tally.failed as f64 / tally.attempted.max(1) as f64),
            tally.attempted as usize,
        ),
    ];
    for n in &mut named {
        if Some(n.0) == rate {
            n.2 = Some(raw_rate);
            n.3 = rows[1].3;
        }
        if let Some(&(_, _, v, s)) = m.extra.iter().find(|e| e.0 == n.0) {
            n.2 = Some(v);
            n.3 = s;
        }
    }
    for (name, unit, v, s) in named {
        match v {
            Some(v) => println!("  {name:<16} {v:>14.4} {unit:<5} (n={s})"),
            None => println!("  {name:<16} {:>14} {unit:<5} (not measured by {w})", "n/a"),
        }
    }
    let p = &m.probe;
    println!(
        "host probe: {:.4} ms per sample (n={}), reference {} ms; the timed metrics below are scaled stretch by stretch",
        p.median_s() * 1e3,
        p.samples(),
        Probe::REFERENCE_S * 1e3
    );
    for (name, unit, v, s) in &rows {
        println!("  e2e {name:<16} {v:>14.4} {unit:<5} (n={s})");
    }
    let counts = m.counts.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    (rows, counts)
}

fn traced(
    args: &Args,
    root: &Path,
    spill: &Path,
    spans_path: &Path,
    tally: &mut Tally,
) -> (MetricRows, CountRows) {
    let (w, seed) = (args.workload.as_str(), args.seed);
    let mut tr = Tracer::default();
    let mut vals = Values::default();
    let fleet_home = w.starts_with("fleet");
    fleet::layers(
        &mut tr,
        seed,
        if fleet_home {
            fleet::UES
        } else {
            fleet::COMPACT_UES
        },
        tally,
        &mut vals,
    );
    let nue = if w == "nue-statespace" {
        statespace::FULL
    } else {
        statespace::COMPACT
    };
    statespace::layers(&mut tr, seed, &nue, spill, tally, &mut vals);
    let n_spec = if w == "spec-screen" {
        spec::TRACED_REQUESTS
    } else {
        spec::COMPACT_REQUESTS
    };
    let corpus = spec::Corpus::load(root, seed, tally);
    let spec_s = match &corpus {
        Ok(c) => spec::layers(&mut tr, c, seed, n_spec, tally, &mut vals),
        Err(e) => {
            tally.op(Err(e.clone()));
            0.0
        }
    };
    let overhead = match (w, &corpus) {
        ("fleet-bare", _) => fleet::overhead(&mut tr, fleet::BARE, seed, 3, tally),
        ("fleet-observed", _) => fleet::overhead(&mut tr, fleet::OBSERVED, seed, 2, tally),
        ("nue-statespace", _) => statespace::overhead(&tr, seed, spill, tally),
        (_, Ok(c)) => spec::overhead(c, seed, n_spec, spec_s, tally),
        (_, Err(_)) => 0.0,
    };
    vals.set("bench.trace_overhead", overhead);
    if let Err(e) = tr.write_jsonl(spans_path) {
        tally.op(Err(format!("writing spans: {e}")));
    }

    println!("traced pass for {w}: per-layer metrics (self time from spans)");
    let mut rows = MetricRows::new();
    let mut counts = CountRows::new();
    for l in LAYERS {
        let v = match vals.0.get(l.name) {
            Some(&v) => finite(l.name, v, tally),
            None => {
                tally.op(Err(format!("{}: not measured", l.name)));
                0.0
            }
        };
        let kind = if l.count { " (count)" } else { "" };
        println!(
            "  {:<42} {v:>16.4} {:<5}{kind}  moves {}",
            l.name, l.unit, l.moves
        );
        rows.push((l.name.to_string(), l.unit, v, 1));
        if l.count {
            counts.push((l.name.to_string(), v));
        }
    }
    println!("  spans written to {}", spans_path.display());
    (rows, counts)
}

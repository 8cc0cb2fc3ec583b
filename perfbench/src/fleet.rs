//! Fleet workloads (`fleet-bare`, `fleet-observed`) and the `netsim` layer
//! section of the traced pass.
//!
//! One request is one fleet run: a quarter of the `repro --exp live`
//! population (5k UEs, OP-I/OP-II alternating, every fifth UE typical-3G)
//! over one simulated day on one shard thread. Request `r` runs fleet seed
//! `request_seed(seed, r)`; the seeds cycle through [`REQUEST_SEEDS`]
//! values, so every repeat of a seed must reproduce its digest exactly.

use std::collections::HashMap;
use std::time::Instant;

use netsim::{
    BehaviorProfile, Campaign, EventQueue, FaultPhase, FaultPolicy, FleetConfig, FleetSim,
    KernelStats, LiveConfig, NodeId, PolicyRule, Signature, SimTime, TimingWheel, UeSpec,
};

use crate::spans::Tracer;
use crate::util::{fnv, guarded, median, splitmix, Rng, Tally, FNV_OFFSET};
use crate::{expected, Measured, Values, SETUP_REPS};

/// Population of the timed workloads and of their traced section. At the
/// 20k UEs of `repro --exp live` a `fleet-observed` request took 1.2–2 s on
/// a 2-vCPU Xeon VM, so a 30 s run had too few requests for its p90 to
/// have ten beyond it; at 5k it has 60–100.
pub const UES: usize = 5_000;
/// Population of the fleet section when another workload's traced pass
/// runs it.
pub const COMPACT_UES: usize = 2_000;
/// Distinct request seeds a run cycles through.
pub const REQUEST_SEEDS: u64 = 8;

/// A fleet configuration toggle set.
#[derive(Clone, Copy, Debug)]
pub struct Arm {
    /// Per-UE trace bound (`Some(0)` = count-only).
    pub trace: Option<usize>,
    /// In-line study signatures (verdict_cap 4).
    pub live: bool,
    /// The `--exp live` fault campaign plus NAS retransmission timers.
    pub campaign: bool,
}

pub const BARE: Arm = Arm {
    trace: Some(0),
    live: false,
    campaign: false,
};

pub const OBSERVED: Arm = Arm {
    trace: Some(32),
    live: true,
    campaign: true,
};

/// Fleet seed of request `r`.
pub fn request_seed(seed: u64, r: u64) -> u64 {
    splitmix(seed ^ splitmix(r % REQUEST_SEEDS)) % 1_000_000_007
}

fn population(ues: usize) -> Vec<UeSpec> {
    (0..ues)
        .map(|i| UeSpec {
            op: if i % 2 == 0 {
                netsim::op_i()
            } else {
                netsim::op_ii()
            },
            behavior: if i % 5 == 0 {
                BehaviorProfile::typical_3g()
            } else {
                BehaviorProfile::typical_4g()
            },
        })
        .collect()
}

/// The `--exp live` campaign: lossy mobility signaling 02:00–06:00, then
/// an MSC outage 10:00–12:00.
fn campaign(seed: u64) -> Campaign {
    use cellstack::MsgClass;
    Campaign::new("live-smoke", seed)
        .with_phase(FaultPhase::new(
            "lossy-mobility",
            7_200_000,
            21_600_000,
            vec![
                PolicyRule::on_class(MsgClass::Mobility, FaultPolicy::dropping(0.25)),
                PolicyRule::any(FaultPolicy::dropping(0.05)),
            ],
        ))
        .with_phase(FaultPhase::outage(
            "msc-outage",
            36_000_000,
            43_200_000,
            vec![NodeId::Msc],
        ))
}

/// Everything a request builds before the kernel runs.
pub fn config(fleet_seed: u64, ues: usize, arm: Arm, sigs: &[Signature]) -> FleetConfig {
    let mut cfg = FleetConfig::new(fleet_seed, 1, 1, population(ues));
    cfg.trace_capacity = arm.trace;
    if arm.live {
        let mut live = LiveConfig::new(sigs.to_vec());
        live.verdict_cap = 4;
        cfg.live = Some(live);
    }
    if arm.campaign {
        cfg.campaign = Some(campaign(fleet_seed));
        cfg.nas_retx = true;
    }
    cfg
}

/// What one fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetOut {
    pub events: u64,
    /// Hash of the streaming report digest and the per-signature tallies.
    pub fingerprint: u64,
    /// Confirmed/refuted per signature (empty without live monitors).
    pub tallies: Vec<u64>,
    pub confirmed: u64,
    pub dropped: u64,
    pub poisoned: u64,
    pub kernel: KernelStats,
}

#[derive(Default)]
struct Acc {
    tallies: Vec<u64>,
    dropped: u64,
    poisoned: u64,
}

pub fn run(cfg: FleetConfig) -> FleetOut {
    let n = cfg.live.as_ref().map_or(0, |l| l.signatures.len());
    let (report, shards) = FleetSim::new(cfg).run_fold(Acc::default, |acc, u| {
        if let Some(l) = &u.live {
            if acc.tallies.is_empty() {
                acc.tallies = vec![0; 2 * n];
            }
            for k in 0..n {
                acc.tallies[k] += u64::from(l.confirmed[k]);
                acc.tallies[n + k] += u64::from(l.refuted[k]);
            }
            acc.dropped += l.stream.dropped;
            acc.poisoned += u64::from(l.poisoned);
        }
    });
    let mut tallies = vec![0u64; 2 * n];
    let (mut dropped, mut poisoned) = (0, 0);
    for s in shards {
        for (t, v) in tallies.iter_mut().zip(&s.tallies) {
            *t += v;
        }
        dropped += s.dropped;
        poisoned += s.poisoned;
    }
    let mut fingerprint = fnv(FNV_OFFSET, report.digest().as_bytes());
    for t in &tallies {
        fingerprint = fnv(fingerprint, &t.to_le_bytes());
    }
    FleetOut {
        events: report.total_events,
        fingerprint,
        confirmed: tallies[..n].iter().sum(),
        tallies,
        dropped,
        poisoned,
        kernel: report.kernel,
    }
}

/// Correctness of one request: no quarantined lane, work done, the same
/// answer as every earlier run of this request seed, and the recorded
/// answer when the seed is one the benchmark ships.
fn verify(
    workload: &str,
    seed: u64,
    r: u64,
    out: &FleetOut,
    seen: &mut HashMap<u64, (u64, u64)>,
) -> Result<(), String> {
    let slot = r % REQUEST_SEEDS;
    let got = (out.events, out.fingerprint);
    if out.poisoned > 0 || out.kernel.monitor_quarantined > 0 {
        return Err(format!(
            "request {r}: {} monitor lanes quarantined",
            out.poisoned
        ));
    }
    if out.events == 0 {
        return Err(format!("request {r}: no events simulated"));
    }
    if let Some(&want) = seen.get(&slot) {
        if want != got {
            return Err(format!(
                "request {r}: (events, digest) {got:?} differs from an earlier run {want:?}"
            ));
        }
    }
    seen.insert(slot, got);
    if let Some(want) = expected::fleet(workload, seed, slot) {
        if want != got {
            return Err(format!(
                "request {r} (seed {seed}): (events, digest) {got:?}, recorded {want:?}"
            ));
        }
    }
    Ok(())
}

/// The timed, untraced run of a fleet workload.
pub fn measure(workload: &str, arm: Arm, seed: u64, seconds: f64, tally: &mut Tally) -> Measured {
    let mut m = Measured::new("events");
    let mut seen = HashMap::new();
    let mut first = None;
    // Set-up, SETUP_REPS times: compile the signatures, build the first
    // request's configuration and warm up on a compact cohort.
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let out = guarded("fleet set-up", || {
            let sigs = userstudy::study_signatures();
            std::hint::black_box(config(request_seed(seed, 0), UES, arm, &sigs));
            run(config(request_seed(seed, 0), COMPACT_UES, arm, &sigs))
        });
        m.set_up(t0.elapsed().as_secs_f64(), 3);
        tally.op(out.map(drop));
    }
    let sigs = userstudy::study_signatures();
    let start = Instant::now();
    let mut r = 0u64;
    while r < 3 || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let out = guarded("fleet request", || {
            run(config(request_seed(seed, r), UES, arm, &sigs))
        });
        let wall = t0.elapsed().as_secs_f64();
        tally.op(out.and_then(|o| {
            m.stretch(o.events as f64 / wall, &[wall * 1e3], 3);
            let ok = verify(workload, seed, r, &o, &mut seen);
            if r == 0 {
                first = Some(o);
            }
            ok
        }));
        r += 1;
    }
    if let Some(o) = first {
        m.counts = fleet_counts(&o, arm);
    }
    m
}

/// The count metrics an untraced request shares with the traced pass.
fn fleet_counts(o: &FleetOut, arm: Arm) -> Vec<(&'static str, f64)> {
    if arm.campaign {
        vec![
            (
                "netsim.trace.evicted_per_event",
                o.kernel.trace_evicted as f64 / o.events as f64,
            ),
            ("netsim.live.confirmed", o.confirmed as f64),
            ("netsim.live.dropped", o.dropped as f64),
        ]
    } else {
        vec![
            ("netsim.events", o.events as f64),
            (
                "netsim.wheel.cascades_per_schedule",
                cascades_per_schedule(&o.kernel),
            ),
            ("netsim.wheel.peak_len", o.kernel.wheel_peak_len as f64),
        ]
    }
}

fn cascades_per_schedule(k: &KernelStats) -> f64 {
    k.wheel_cascades as f64 / k.wheel_scheduled.max(1) as f64
}

/// Trace overhead: `k` requests of the workload's own arm traced (one span
/// around the kernel call) against `k` untraced, ratio of the medians.
pub fn overhead(tr: &mut Tracer, arm: Arm, seed: u64, k: u64, tally: &mut Tally) -> f64 {
    let sigs = userstudy::study_signatures();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for r in 0..k {
        let t0 = Instant::now();
        let a = run(config(request_seed(seed, r), UES, arm, &sigs));
        plain.push(t0.elapsed().as_secs_f64());
        tr.request(100 + r);
        let t0 = Instant::now();
        let b = tr.span("netsim.fleet.request", |_| {
            run(config(request_seed(seed, r), UES, arm, &sigs))
        });
        traced.push(t0.elapsed().as_secs_f64());
        tally.expect_eq(
            "traced vs untraced fleet digest",
            b.fingerprint,
            a.fingerprint,
        );
    }
    median(&traced) / median(&plain)
}

/// The `netsim` section of the traced pass over `ues` UEs.
///
/// Trace, live-monitor and inject costs are attributed by the difference
/// between toggled arms of the same population: count-only, ring32,
/// ring32 + live, ring32 + live + campaign. A count-only + live arm gives
/// the retention-invariance oracle.
pub fn layers(tr: &mut Tracer, seed: u64, ues: usize, tally: &mut Tally, out: &mut Values) {
    let sigs = userstudy::study_signatures();
    let fleet_seed = request_seed(seed, 0);
    tr.request(1);
    let arms = [
        ("netsim.arm.count_only", BARE),
        (
            "netsim.arm.ring32",
            Arm {
                trace: Some(32),
                ..BARE
            },
        ),
        ("netsim.arm.count_only_live", Arm { live: true, ..BARE }),
        (
            "netsim.arm.ring32_live",
            Arm {
                campaign: false,
                ..OBSERVED
            },
        ),
        ("netsim.arm.campaign", OBSERVED),
    ];
    // Several passes over the arms; each arm's wall is its fastest run, so
    // one slow run cannot make a difference negative. Compact arms are
    // short and noisier, so they get more passes.
    let mut res: Vec<(f64, FleetOut)> = Vec::new();
    let passes = if ues < UES { 4 } else { 2 };
    for pass in 0..passes {
        for (i, (name, arm)) in arms.into_iter().enumerate() {
            let cfg = config(fleet_seed, ues, arm, &sigs);
            let o = tr.span(name, |_| run(cfg));
            let ns = tr.last_ns(name) as f64;
            if pass == 0 {
                res.push((ns, o));
            } else {
                tally.expect_eq(
                    "fleet arm digest across passes",
                    o.fingerprint,
                    res[i].1.fingerprint,
                );
                res[i].0 = res[i].0.min(ns);
            }
        }
    }
    let [(w_bare, bare), (w_ring, ring), (_, bare_live), (w_live, ring_live), (w_camp, camp)] =
        &res[..]
    else {
        unreachable!("five arms ran")
    };
    let (w_bare, w_ring, w_live, w_camp) = (*w_bare, *w_ring, *w_live, *w_camp);
    let ev = bare.events as f64;

    // Oracles: retention changes neither the event stream nor the tallies.
    tally.expect_eq("count-only vs ring32 events", ring.events, bare.events);
    tally.expect_eq(
        "live tallies, count-only vs ring32",
        &bare_live.tallies,
        &ring_live.tallies,
    );
    tally.expect_eq("campaign arm quarantined lanes", camp.poisoned, 0);

    out.set("netsim.events", ev);
    out.set("netsim.kernel.ns_per_event", w_bare / ev);
    out.set(
        "netsim.wheel.cascades_per_schedule",
        cascades_per_schedule(&bare.kernel),
    );
    out.set("netsim.wheel.peak_len", bare.kernel.wheel_peak_len as f64);
    out.set("netsim.arena.bytes_per_ue", bare.kernel.bytes_per_ue as f64);
    out.set("netsim.trace.ns_per_event", (w_ring - w_bare) / ev);
    out.set("netsim.live.ns_per_event", (w_live - w_ring) / ev);
    out.set(
        "netsim.inject.ns_per_event",
        w_camp / camp.events as f64 - w_live / ev,
    );
    for (k, v) in fleet_counts(camp, OBSERVED) {
        out.set(k, v);
    }

    // The public timing wheel and its `EventQueue` oracle on the same
    // seeded, fleet-shaped schedule/cancel/pop stream.
    let ops = wheel_stream(seed, ues * 100);
    tr.request(2);
    let wheel = tr.span("netsim.wheel.replay", |_| replay_wheel(&ops));
    let queue = tr.span("netsim.eventqueue.replay", |_| replay_queue(&ops));
    tally.expect_eq("wheel vs event-queue pop order", wheel, queue);
    let n = ops.len() as f64;
    out.set(
        "netsim.wheel.ns_per_op",
        tr.last_ns("netsim.wheel.replay") as f64 / n,
    );
    out.set(
        "netsim.eventqueue.ns_per_op",
        tr.last_ns("netsim.eventqueue.replay") as f64 / n,
    );
}

/// One operation of the replay stream.
#[derive(Clone, Copy)]
pub enum Op {
    /// Schedule an event this many ms after the last popped time.
    Schedule(u64),
    /// Cancel the n-th scheduled event (it may already have fired).
    Cancel(usize),
    Pop,
}

/// A fleet-shaped stream: about 192 pending events (64 lanes × 3), one
/// pop per step followed by 0–2 follow-ups, 12 % cancels. Delays mix
/// signaling hops (5–400 ms), NAS timers and calls (1–60 s) and next
/// activities (10 min–12 h).
pub fn wheel_stream(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x77ee1);
    let delay = |rng: &mut Rng| match rng.below(100) {
        0..=54 => rng.range(5, 400),
        55..=84 => rng.range(1_000, 60_000),
        _ => rng.range(600_000, 43_200_000),
    };
    let mut ops = Vec::with_capacity(len);
    let (mut pending, mut scheduled) = (0usize, 0usize);
    while ops.len() < len {
        if pending > 0 {
            ops.push(Op::Pop);
            pending -= 1;
        }
        let follow = match pending {
            0..=149 => 2,
            150..=249 => rng.below(3) as usize,
            _ => 0,
        };
        for _ in 0..follow {
            ops.push(Op::Schedule(delay(&mut rng)));
            pending += 1;
            scheduled += 1;
        }
        if scheduled > 0 && rng.below(100) < 12 {
            let back = rng.below(256.min(scheduled as u64)) as usize;
            ops.push(Op::Cancel(scheduled - 1 - back));
            pending = pending.saturating_sub(1);
        }
    }
    ops
}

/// Replay through [`TimingWheel`]; returns a hash of the pop order and
/// cancel results.
pub fn replay_wheel(ops: &[Op]) -> u64 {
    let mut w = TimingWheel::new();
    let mut handles = Vec::new();
    let (mut now, mut h) = (0u64, FNV_OFFSET);
    for op in ops {
        match *op {
            Op::Schedule(d) => {
                handles.push(w.schedule(SimTime::from_millis(now + d), handles.len()))
            }
            Op::Cancel(i) => h = fnv(h, &[u8::from(w.cancel(handles[i]))]),
            Op::Pop => {
                if let Some((t, id)) = w.pop() {
                    now = t.as_millis();
                    h = fnv(h, &(now ^ ((id as u64) << 40)).to_le_bytes());
                }
            }
        }
    }
    h
}

/// The same replay through the `EventQueue` oracle.
pub fn replay_queue(ops: &[Op]) -> u64 {
    let mut q = EventQueue::new();
    let mut handles = Vec::new();
    let (mut now, mut h) = (0u64, FNV_OFFSET);
    for op in ops {
        match *op {
            Op::Schedule(d) => {
                handles.push(q.schedule(SimTime::from_millis(now + d), handles.len()))
            }
            Op::Cancel(i) => h = fnv(h, &[u8::from(q.cancel(handles[i]))]),
            Op::Pop => {
                if let Some((t, id)) = q.pop() {
                    now = t.as_millis();
                    h = fnv(h, &(now ^ ((id as u64) << 40)).to_le_bytes());
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_and_queue_agree_on_the_replay_stream() {
        let ops = wheel_stream(5, 50_000);
        assert_eq!(replay_wheel(&ops), replay_queue(&ops));
    }

    #[test]
    fn request_seeds_cycle() {
        assert_eq!(request_seed(9, 1), request_seed(9, 1 + REQUEST_SEEDS));
        assert_ne!(request_seed(9, 1), request_seed(9, 2));
    }
}

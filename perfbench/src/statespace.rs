//! `nue-statespace`: the N-UE population model through three visited-set
//! store arms, and the `mck` section of the traced pass.
//!
//! One round checks `NUeModel` (7 context phases × 6 UEs = 7⁶ = 117,649
//! states) once per arm: `hash-compact` (the default store),
//! `collapse` (lossless) and `collapse` + POR, each with the spillable
//! frontier on and paths off. The seed only orders the arms of a round.

use std::path::Path;
use std::time::Instant;

use cnetverifier::models::nue::NUeModel;
use mck::{Checker, Model, SearchStrategy, StoreMode};

use crate::spans::Tracer;
use crate::util::{guarded, Rng, Tally};
use crate::{Measured, Values, SETUP_REPS};

/// The timed model: 7⁶ = 117,649 states. A round took 0.5–1.1 s on a
/// 2-vCPU Xeon VM, so a 30 s run has 25–60 rounds to take the median of;
/// at 10⁶ states a round took 5–7 s and five rounds were too few.
pub const FULL: NUeModel = NUeModel {
    ues: 6,
    contexts: 7,
};
/// The model when another workload's traced pass runs this section:
/// 7⁵ = 16,807 states.
pub const COMPACT: NUeModel = NUeModel {
    ues: 5,
    contexts: 7,
};
/// Warm-up model of the set-up: 10⁴ states.
const WARM: NUeModel = NUeModel {
    ues: 4,
    contexts: 10,
};
/// Spill segment size: small enough that the widest BFS layer spills
/// (the `repro --exp statespace` size on the full model).
fn segment(model: &NUeModel) -> usize {
    if model.state_count() >= 1_000_000 {
        1 << 14
    } else {
        1 << 10
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArmKind {
    HashCompact,
    Collapse,
    CollapsePor,
}

const ARMS: [ArmKind; 3] = [
    ArmKind::HashCompact,
    ArmKind::Collapse,
    ArmKind::CollapsePor,
];

impl ArmKind {
    fn span(self) -> &'static str {
        match self {
            ArmKind::HashCompact => "mck.arm.hash_compact",
            ArmKind::Collapse => "mck.arm.collapse",
            ArmKind::CollapsePor => "mck.arm.collapse_por",
        }
    }
}

#[derive(Clone, Debug)]
pub struct ArmOut {
    pub kind: ArmKind,
    pub unique: u64,
    pub transitions: u64,
    pub complete: bool,
    pub violations: usize,
    pub bytes_per_state: f64,
    pub spilled_bytes: u64,
    pub peak_frontier: usize,
}

pub fn run_arm(model: &NUeModel, kind: ArmKind, spill_dir: &Path) -> ArmOut {
    let store = match kind {
        ArmKind::HashCompact => StoreMode::HashCompact,
        ArmKind::Collapse | ArmKind::CollapsePor => StoreMode::Collapse,
    };
    let r = Checker::new(model.clone())
        .strategy(SearchStrategy::Bfs)
        .store(store)
        .por(kind == ArmKind::CollapsePor)
        .spill(segment(model))
        .spill_dir(spill_dir.to_path_buf())
        .track_paths(false)
        .max_states(model.state_count() + 1)
        .run();
    ArmOut {
        kind,
        unique: r.stats.unique_states,
        transitions: r.stats.transitions,
        complete: r.complete,
        violations: r.violations.len(),
        bytes_per_state: r.stats.bytes_per_state(),
        spilled_bytes: r.stats.store.spilled_bytes,
        peak_frontier: r.stats.peak_frontier,
    }
}

fn arm(outs: &[ArmOut], kind: ArmKind) -> &ArmOut {
    outs.iter().find(|o| o.kind == kind).expect("every arm ran")
}

/// A round is correct when every arm completes without a violation, the
/// lossless arms reach exactly cⁿ states, and hash-compact reaches the
/// same count and transitions as collapse.
fn verify(model: &NUeModel, outs: &[ArmOut], tally: &mut Tally) {
    for o in outs {
        let ok = if !o.complete {
            Err(format!("{:?}: search incomplete", o.kind))
        } else if o.violations > 0 {
            Err(format!("{:?}: phase-overflow reported", o.kind))
        } else {
            Ok(())
        };
        tally.op(ok);
    }
    let (hc, co, por) = (
        arm(outs, ArmKind::HashCompact),
        arm(outs, ArmKind::Collapse),
        arm(outs, ArmKind::CollapsePor),
    );
    tally.expect_eq("collapse states = c^n", co.unique, model.state_count());
    tally.expect_eq("collapse+POR states = c^n", por.unique, model.state_count());
    tally.expect_eq("hash-compact vs collapse states", hc.unique, co.unique);
    tally.expect_eq(
        "hash-compact vs collapse transitions",
        hc.transitions,
        co.transitions,
    );
}

fn round(model: &NUeModel, order: &[ArmKind], dir: &Path) -> Result<Vec<ArmOut>, String> {
    guarded("state-space round", || {
        order.iter().map(|&k| run_arm(model, k, dir)).collect()
    })
}

/// The seeded arm order of round `r`.
fn order(seed: u64, r: u64) -> [ArmKind; 3] {
    let mut o = ARMS;
    let mut rng = Rng::new(seed ^ r.wrapping_mul(0x51ed));
    for i in (1..3).rev() {
        o.swap(i, rng.below(i as u64 + 1) as usize);
    }
    o
}

/// The timed, untraced run.
pub fn measure(seed: u64, seconds: f64, dir: &Path, tally: &mut Tally) -> Measured {
    let mut m = Measured::new("states");
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let outs = (|| {
            std::fs::create_dir_all(dir).map_err(|e| format!("spill dir: {e}"))?;
            round(&WARM, &ARMS, dir)
        })();
        m.set_up(t0.elapsed().as_secs_f64(), 3);
        match outs {
            Ok(outs) => verify(&WARM, &outs, tally),
            Err(e) => tally.op(Err(e)),
        }
    }
    let start = Instant::now();
    let mut r = 0u64;
    while r < 2 || start.elapsed().as_secs_f64() < seconds {
        // Each arm is one request; the round is the stretch.
        let mut arm_ms = Vec::with_capacity(ARMS.len());
        let outs = guarded("state-space round", || {
            order(seed, r)
                .iter()
                .map(|&k| {
                    let t0 = Instant::now();
                    let o = run_arm(&FULL, k, dir);
                    arm_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    o
                })
                .collect::<Vec<_>>()
        });
        let wall = arm_ms.iter().sum::<f64>() / 1e3;
        match outs {
            Ok(outs) => {
                verify(&FULL, &outs, tally);
                let states: u64 = outs.iter().map(|o| o.unique).sum();
                m.stretch(states as f64 / wall, &arm_ms, 3);
                if r == 0 {
                    m.counts = counts(&outs);
                }
            }
            Err(e) => tally.op(Err(e)),
        }
        r += 1;
    }
    m
}

fn counts(outs: &[ArmOut]) -> Vec<(&'static str, f64)> {
    let (hc, co, por) = (
        arm(outs, ArmKind::HashCompact),
        arm(outs, ArmKind::Collapse),
        arm(outs, ArmKind::CollapsePor),
    );
    vec![
        (
            "mck.frontier.spilled_bytes",
            (hc.spilled_bytes + co.spilled_bytes + por.spilled_bytes) as f64,
        ),
        ("mck.frontier.peak", hc.peak_frontier as f64),
        (
            "mck.por.transition_ratio",
            por.transitions as f64 / co.transitions as f64,
        ),
    ]
}

/// Sample states of `model` by seeded random walks (restarting every 64
/// steps), then time `Model::actions` + `Model::next_state` over them until
/// at least `min_transitions` successors were generated. Returns ns per
/// transition.
pub fn successor_ns<M: Model>(model: &M, seed: u64, samples: usize, min_transitions: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x5cc);
    let inits = model.init_states();
    let mut states = Vec::with_capacity(samples);
    let mut acts = Vec::new();
    let mut cur = inits[0].clone();
    while states.len() < samples {
        if states.len() % 64 == 0 {
            cur = inits[rng.below(inits.len() as u64) as usize].clone();
        }
        acts.clear();
        model.actions(&cur, &mut acts);
        let next = if acts.is_empty() {
            None
        } else {
            model.next_state(&cur, &acts[rng.below(acts.len() as u64) as usize])
        };
        states.push(cur.clone());
        cur = next.unwrap_or_else(|| inits[0].clone());
    }
    let mut transitions = 0u64;
    let t0 = Instant::now();
    while transitions < min_transitions {
        for s in &states {
            acts.clear();
            model.actions(s, &mut acts);
            for a in &acts {
                std::hint::black_box(model.next_state(s, a));
                transitions += 1;
            }
        }
        if transitions == 0 {
            break;
        }
    }
    t0.elapsed().as_nanos() as f64 / transitions.max(1) as f64
}

/// One traced round: each arm in its own span.
fn traced_round(
    tr: &mut Tracer,
    model: &NUeModel,
    dir: &Path,
    request: u64,
) -> Result<Vec<ArmOut>, String> {
    tr.request(request);
    guarded("traced state-space round", || {
        ARMS.iter()
            .map(|&k| tr.span(k.span(), |_| run_arm(model, k, dir)))
            .collect()
    })
}

/// The `mck` section of the traced pass.
pub fn layers(
    tr: &mut Tracer,
    seed: u64,
    model: &NUeModel,
    dir: &Path,
    tally: &mut Tally,
    out: &mut Values,
) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        tally.op(Err(format!("spill dir: {e}")));
        return;
    }
    let successor = tr.span("mck.successor.probe", |_| {
        successor_ns(model, seed, 20_000, model.state_count().min(1_000_000) * 2)
    });
    out.set("mck.successor.ns_per_transition", successor);
    let outs = match traced_round(tr, model, dir, 3) {
        Ok(o) => o,
        Err(e) => return tally.op(Err(e)),
    };
    verify(model, &outs, tally);
    // Store and frontier self time: the arm's span minus the successor
    // generation share the probe measured.
    for (kind, name) in [
        (ArmKind::HashCompact, "hash_compact"),
        (ArmKind::Collapse, "collapse"),
    ] {
        let o = arm(&outs, kind);
        let per = tr.last_ns(kind.span()) as f64 / o.transitions as f64 - successor;
        out.set(format!("mck.store.{name}.ns_per_transition"), per);
        out.set(
            format!("mck.store.{name}.bytes_per_state"),
            o.bytes_per_state,
        );
    }
    for (k, v) in counts(&outs) {
        out.set(k, v);
    }
}

/// Trace overhead: the traced round [`layers`] ran on the full model
/// against one untraced round of the same arms.
pub fn overhead(tr: &Tracer, seed: u64, dir: &Path, tally: &mut Tally) -> f64 {
    let traced_ns: u64 = ARMS.iter().map(|k| tr.last_ns(k.span())).sum();
    let t0 = Instant::now();
    match round(&FULL, &order(seed, 0), dir) {
        Ok(outs) => verify(&FULL, &outs, tally),
        Err(e) => tally.op(Err(e)),
    }
    traced_ns as f64 / 1e9 / t0.elapsed().as_secs_f64()
}

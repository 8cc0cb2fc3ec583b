//! The S2 story: signaling loss during the attach procedure detaches users
//! right after they were accepted — and the paper's reliable shim layer
//! eliminates it.
//!
//! Three views of the same defect:
//! 1. the model checker's counterexample (design-level proof),
//! 2. the simulator's statistics under injected loss (validation),
//! 3. the Figure 12-left sweep showing the shim's effect (solution).
//!
//! ```sh
//! cargo run --example attach_under_loss
//! ```

use cellstack::{RatSystem, UpdateKind};
use cnetverifier::models::attach::AttachModel;
use mck::{Checker, Model, SearchStrategy};
use netsim::{op_i, Ev, FaultKind, Injection, SimTime, TraceEvent, World, WorldConfig};

fn main() {
    println!("=== S2: out-of-sequence signaling in the attach procedure ===\n");

    // 1. Design-level: the checker finds the lost/duplicated-signal race.
    println!("1) Screening the EMM <-> MME exchange over unreliable RRC:");
    let model = AttachModel::paper();
    let result = Checker::new(AttachModel::paper())
        .strategy(SearchStrategy::Bfs)
        .run();
    println!("   explored: {}", result.stats);
    let v = result
        .violation(cnetverifier::props::PACKET_SERVICE_OK)
        .expect("the design defect is always found");
    println!("   shortest counterexample ({} steps):", v.path.len());
    for (i, action) in v.path.actions().enumerate() {
        println!("     {:>2}. {}", i + 1, model.format_action(action));
    }

    // 2. Validation: inject loss on the simulated carrier and count
    //    implicit detaches across repeated attach + TAU cycles.
    println!("\n2) Attach+TAU cycles on the simulated carrier (40% uplink drop):");
    let mut cfg = WorldConfig::new(op_i(), 7);
    cfg.inject_ul_4g = Injection::dropping(0.4);
    let mut w = World::new(cfg);
    for i in 0..30u64 {
        let base = i * 40_000;
        w.schedule_at(SimTime::from_millis(base), Ev::PowerOn(RatSystem::Lte4g));
        w.schedule_at(
            SimTime::from_millis(base + 20_000),
            Ev::TriggerUpdate(UpdateKind::TrackingArea),
        );
        w.schedule_at(SimTime::from_millis(base + 35_000), Ev::Detach);
    }
    w.run_until(SimTime::from_secs(1_300));
    println!(
        "   {} implicit detaches over 30 cycles",
        w.metrics.implicit_detaches
    );
    // A few trace lines around the first detach:
    for line in w
        .trace
        .entries()
        .iter()
        .filter(|e| match &e.event {
            TraceEvent::Fault(f) => f.kind == FaultKind::Drop,
            TraceEvent::Registration { registered, .. } => !registered,
            _ => false,
        })
        .take(6)
    {
        println!("   {line}");
    }

    // 3. Solution: the Figure 12-left sweep.
    println!("\n3) Figure 12 (left): detaches vs drop rate, with/without the shim:");
    let (with, without) = remedies::figure12_left(2014);
    println!("   {:>6} {:>10} {:>10}", "drop", "w/o shim", "w/ shim");
    for ((rate, wo), (_, wi)) in without.iter().zip(with.iter()) {
        println!("   {:>5.0}% {:>10} {:>10}", rate, wo, wi);
    }
    println!("\nThe shim's sequence numbers + retransmission give EMM the");
    println!("reliable, in-order transport it wrongly assumed RRC provides.");
}

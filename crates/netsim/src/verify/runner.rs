//! Driving monitors over trace feeds.

use crate::trace::TraceEntry;
use crate::SimTime;

use crate::verify::automaton::{Monitor, MonitorReport, Signature};
use crate::verify::verdict::Verdict;

/// Run one signature over a complete trace, closing it at `end`.
pub fn run_signature(sig: Signature, entries: &[TraceEntry], end: SimTime) -> MonitorReport {
    let mut m = Monitor::new(sig);
    for e in entries {
        if m.feed(e).is_definite() {
            break;
        }
    }
    m.finish(end);
    m.report()
}

/// Count how many times `sig` occurs across a long trace, closing it at
/// `end` — the fleet/user-study shape, where one 14-day stream contains
/// many independent episodes of the same hazard.
///
/// The automaton restarts whenever it settles: a `Confirmed` verdict
/// counts one occurrence and [`Monitor::restart`] (anchored at the
/// settling entry's timestamp) takes over from the *next* entry, so
/// matched episodes never overlap and a refuted prefix can never mask a
/// later genuine occurrence. A final occurrence still pending at `end` is
/// settled by [`Monitor::finish`].
pub fn count_signature(sig: &Signature, entries: &[TraceEntry], end: SimTime) -> usize {
    if sig.steps.is_empty() {
        // A stepless signature is vacuously confirmed; counting its
        // "occurrences" over a stream is meaningless.
        return 0;
    }
    let mut count = 0;
    let mut m = Monitor::new(sig.clone());
    for e in entries {
        if m.feed(e).is_definite() {
            if m.verdict() == Verdict::Confirmed {
                count += 1;
            }
            m.restart(e.ts);
        }
    }
    if m.finish(end) == Verdict::Confirmed {
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::pattern::Pattern;
    use cellstack::{Protocol, RatSystem};
    use crate::trace::{CallPhase, TraceCollector, TraceEvent, TraceType};

    fn record(t: &mut TraceCollector, at_ms: u64, event: TraceEvent) {
        t.record(
            SimTime::from_millis(at_ms),
            TraceType::State,
            RatSystem::Utran3g,
            Protocol::Rrc3g,
            event,
        );
    }

    /// connected → released, with a refutation arc on a 4G camp.
    fn call_sig() -> Signature {
        Signature::new("call")
            .step("connected", Pattern::call(CallPhase::Connected))
            .step("released", Pattern::call(CallPhase::Released))
            .forbid("left 3G mid-call", Pattern::camped_on(RatSystem::Lte4g))
    }

    #[test]
    fn counts_every_disjoint_episode() {
        let mut t = TraceCollector::new();
        for i in 0..5u64 {
            record(&mut t, i * 100_000, TraceEvent::Call(CallPhase::Connected));
            record(
                &mut t,
                i * 100_000 + 30_000,
                TraceEvent::Call(CallPhase::Released),
            );
        }
        let n = count_signature(&call_sig(), t.entries(), SimTime::from_secs(600));
        assert_eq!(n, 5);
    }

    #[test]
    fn refuted_prefix_does_not_mask_later_occurrences() {
        let mut t = TraceCollector::new();
        // First episode refutes (camped 4G mid-call)…
        record(&mut t, 10_000, TraceEvent::Call(CallPhase::Connected));
        record(&mut t, 12_000, TraceEvent::CampedOn(RatSystem::Lte4g));
        record(&mut t, 14_000, TraceEvent::Call(CallPhase::Released));
        // …the second confirms.
        record(&mut t, 100_000, TraceEvent::Call(CallPhase::Connected));
        record(&mut t, 130_000, TraceEvent::Call(CallPhase::Released));
        let n = count_signature(&call_sig(), t.entries(), SimTime::from_secs(600));
        assert_eq!(n, 1);
    }

    #[test]
    fn final_pending_occurrence_is_settled_at_end() {
        let mut t = TraceCollector::new();
        record(&mut t, 10_000, TraceEvent::Call(CallPhase::Connected));
        // Release never traced: the monitor is still pending at `end`,
        // and a two-step untimed signature cannot confirm from there.
        let n = count_signature(&call_sig(), t.entries(), SimTime::from_secs(600));
        assert_eq!(n, 0);
    }

    #[test]
    fn stepless_signature_counts_nothing() {
        let mut t = TraceCollector::new();
        record(&mut t, 10_000, TraceEvent::Call(CallPhase::Connected));
        let n = count_signature(&Signature::new("empty"), t.entries(), SimTime::from_secs(60));
        assert_eq!(n, 0);
    }
}

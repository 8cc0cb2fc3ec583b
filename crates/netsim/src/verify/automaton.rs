//! Signature automata and their online evaluation.
//!
//! A [`Signature`] is a deterministic matcher: an ordered list of
//! [`Step`]s plus negation arcs. A [`Monitor`] evaluates one signature
//! online — entries stream in via [`Monitor::feed`], the automaton
//! advances greedily on the first entry matching the awaited step, and
//! the verdict hardens to [`Verdict::Confirmed`] when the last step
//! matches, or to [`Verdict::Refuted`] the moment a forbidden pattern
//! fires or a timed step's deadline passes. [`Monitor::finish`] closes
//! the trace and settles anything still pending.

use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

use crate::trace::{TraceEntry, WireEvent};
use crate::SimTime;

use crate::verify::pattern::Pattern;
use crate::verify::verdict::Verdict;

/// One step of a signature automaton.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Step {
    /// Human-readable label, shown in evidence spans.
    pub label: String,
    /// What the step waits for.
    pub pattern: Pattern,
    /// Deadline relative to the previous step's match (trace start for the
    /// first step): if no match arrives within this many ms, the signature
    /// is refuted (timed-step expiry).
    pub within_ms: Option<u64>,
    /// Negation arcs active only while this step is awaited.
    pub forbidden: Vec<Pattern>,
}

/// A declarative signature automaton.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// Signature name (e.g. `S3-hand`, `S2-compiled`).
    pub name: String,
    /// Ordered steps; all must match for `Confirmed`.
    pub steps: Vec<Step>,
    /// Labelled negation arcs active for the whole run.
    pub forbidden: Vec<(String, Pattern)>,
}

impl Signature {
    /// An empty signature with `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            steps: Vec::new(),
            forbidden: Vec::new(),
        }
    }

    /// Append an untimed step.
    pub fn step(mut self, label: impl Into<String>, pattern: Pattern) -> Self {
        self.steps.push(Step {
            label: label.into(),
            pattern,
            within_ms: None,
            forbidden: Vec::new(),
        });
        self
    }

    /// Append a step that must match within `within_ms` of the previous
    /// one.
    pub fn timed_step(
        mut self,
        label: impl Into<String>,
        pattern: Pattern,
        within_ms: u64,
    ) -> Self {
        self.steps.push(Step {
            label: label.into(),
            pattern,
            within_ms: Some(within_ms),
            forbidden: Vec::new(),
        });
        self
    }

    /// Add a negation arc to the most recently added step (active only
    /// while that step is awaited).
    ///
    /// # Panics
    /// Panics if no step has been added yet.
    pub fn forbid_while(mut self, pattern: Pattern) -> Self {
        self.steps
            .last_mut()
            .expect("forbid_while needs a preceding step")
            .forbidden
            .push(pattern);
        self
    }

    /// Add a signature-global negation arc.
    pub fn forbid(mut self, label: impl Into<String>, pattern: Pattern) -> Self {
        self.forbidden.push((label.into(), pattern));
        self
    }

    /// Label a run's matched entries (one per completed step, in order)
    /// with the steps they satisfied.
    pub fn evidence(&self, span: Vec<TraceEntry>) -> Vec<MatchedEvent> {
        self.steps
            .iter()
            .zip(span)
            .map(|(step, entry)| MatchedEvent {
                step: step.label.clone(),
                entry,
            })
            .collect()
    }
}

/// One matched event of an evidence span: the entry that satisfied a
/// step. Its JSON is `{ts, step, desc, event}`, the description rendered
/// from the entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchedEvent {
    /// The step label it satisfied.
    pub step: String,
    /// The matched trace entry.
    pub entry: TraceEntry,
}

impl Serialize for MatchedEvent {
    fn to_value(&self) -> Value {
        let e = &self.entry;
        Value::Map(vec![
            ("ts".into(), e.ts.to_value()),
            ("step".into(), self.step.to_value()),
            ("desc".into(), e.desc().to_value()),
            ("event".into(), WireEvent(&e.event).to_value()),
        ])
    }
}

/// The full outcome of running one monitor over one trace.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct MonitorReport {
    /// Signature name.
    pub signature: String,
    /// Final verdict.
    pub verdict: Verdict,
    /// The matched event span (one entry per completed step; for refuted
    /// runs, the prefix matched before refutation).
    pub span: Vec<MatchedEvent>,
    /// Total number of steps in the signature.
    pub steps_total: usize,
    /// Why the signature was refuted, when it was.
    pub refutation: Option<String>,
}

/// Why a monitor refuted, kept typed until [`Monitor::report`] renders it.
/// The awaited step is the monitor's `next` at refutation time.
#[derive(Clone, Debug)]
enum Refutation {
    /// A negation arc fired on the entry: the signature-global arc with
    /// this index, or (`None`) one of the awaited step's.
    Forbidden(Option<usize>, TraceEntry),
    /// The awaited step's deadline passed: an entry arrived at `at`, or
    /// (`ended`) the trace ended there.
    Expired { at: SimTime, deadline: SimTime, ended: bool },
}

/// Online evaluator for one [`Signature`]. The signature is shared, not
/// owned: a fleet's lanes all point at one copy of each automaton.
#[derive(Clone, Debug)]
pub struct Monitor {
    sig: Arc<Signature>,
    next: usize,
    anchor: SimTime,
    /// The entry that satisfied each completed step, in step order.
    span: Vec<TraceEntry>,
    verdict: Verdict,
    refutation: Option<Refutation>,
}

impl Monitor {
    /// A monitor at the start of `sig`, anchored at trace time zero.
    pub fn new(sig: Signature) -> Self {
        Self::shared(Arc::new(sig))
    }

    /// A monitor at the start of a signature other monitors share.
    pub(crate) fn shared(sig: Arc<Signature>) -> Self {
        let mut m = Self {
            sig,
            next: 0,
            anchor: SimTime::from_millis(0),
            span: Vec::new(),
            verdict: Verdict::Inconclusive,
            refutation: None,
        };
        m.restart(SimTime::from_millis(0));
        m
    }

    /// Reset to the first step in place, anchored at `anchor`, and hand
    /// back the entries the settled run matched. This is the restart used
    /// when counting repeated occurrences over one long stream, where
    /// "trace start" for a timed first step is the point the previous
    /// occurrence settled.
    pub fn restart(&mut self, anchor: SimTime) -> Vec<TraceEntry> {
        self.next = 0;
        self.anchor = anchor;
        // Degenerate: a stepless signature has nothing to wait for.
        self.verdict = if self.sig.steps.is_empty() {
            Verdict::Confirmed
        } else {
            Verdict::Inconclusive
        };
        self.refutation = None;
        std::mem::take(&mut self.span)
    }

    /// The current verdict.
    pub fn verdict(&self) -> Verdict {
        self.verdict
    }

    /// The signature this monitor evaluates.
    #[cfg(test)]
    pub(crate) fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    fn deadline(&self) -> Option<SimTime> {
        self.sig.steps[self.next]
            .within_ms
            .map(|ms| self.anchor + ms)
    }

    fn refute(&mut self, why: Refutation) -> Verdict {
        self.verdict = Verdict::Refuted;
        self.refutation = Some(why);
        Verdict::Refuted
    }

    /// Feed one trace entry; returns the (possibly hardened) verdict.
    ///
    /// Precedence per entry: signature-global negation arcs, then the
    /// awaited step's negation arcs, then timed-step expiry, then the
    /// awaited step's own pattern.
    pub fn feed(&mut self, entry: &TraceEntry) -> Verdict {
        if self.verdict.is_definite() {
            return self.verdict;
        }
        if let Some(i) = self.sig.forbidden.iter().position(|(_, pat)| pat.matches(entry)) {
            return self.refute(Refutation::Forbidden(Some(i), entry.clone()));
        }
        let step = &self.sig.steps[self.next];
        if step.forbidden.iter().any(|pat| pat.matches(entry)) {
            return self.refute(Refutation::Forbidden(None, entry.clone()));
        }
        if let Some(deadline) = self.deadline() {
            if entry.ts > deadline {
                return self.refute(Refutation::Expired { at: entry.ts, deadline, ended: false });
            }
        }
        if step.pattern.matches(entry) {
            self.span.push(entry.clone());
            self.anchor = entry.ts;
            self.next += 1;
            if self.next == self.sig.steps.len() {
                self.verdict = Verdict::Confirmed;
            }
        }
        self.verdict
    }

    /// Close the trace at time `end`: a pending timed step whose deadline
    /// lies before `end` is refuted; anything else pending stays
    /// `Inconclusive`.
    pub fn finish(&mut self, end: SimTime) -> Verdict {
        if self.verdict.is_definite() {
            return self.verdict;
        }
        if let Some(deadline) = self.deadline() {
            if end > deadline {
                return self.refute(Refutation::Expired { at: end, deadline, ended: true });
            }
        }
        self.verdict
    }

    /// Snapshot the outcome, rendering the span and refutation text.
    pub fn report(&self) -> MonitorReport {
        MonitorReport {
            signature: self.sig.name.clone(),
            verdict: self.verdict,
            span: self.sig.evidence(self.span.clone()),
            steps_total: self.sig.steps.len(),
            refutation: self.refutation.as_ref().map(|r| self.render(r)),
        }
    }

    fn render(&self, why: &Refutation) -> String {
        let label = &self.sig.steps[self.next].label;
        match why {
            Refutation::Forbidden(Some(i), e) => format!(
                "forbidden event at {}: {} ({})",
                e.ts.hhmmss(),
                self.sig.forbidden[*i].0,
                e.desc()
            ),
            Refutation::Forbidden(None, e) => format!(
                "forbidden while awaiting `{label}` at {}: {}",
                e.ts.hhmmss(),
                e.desc()
            ),
            Refutation::Expired { at, deadline, ended: false } => format!(
                "step `{label}` expired at {} (deadline {})",
                at.hhmmss(),
                deadline.hhmmss()
            ),
            Refutation::Expired { at, deadline, ended: true } => format!(
                "step `{label}` still unmatched when the trace ended at {} (deadline {})",
                at.hhmmss(),
                deadline.hhmmss()
            ),
        }
    }
}

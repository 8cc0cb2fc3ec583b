//! The binary-heap event queue: the timing wheel's oracle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event: fires at `at`; `seq` breaks ties deterministically in
/// insertion order.
#[derive(Clone, Debug)]
struct Pending<E> {
    at: SimTime,
    payload: E,
}

/// A deterministic time-ordered event queue on a binary heap.
///
/// No simulator schedules on it: [`crate::TimingWheel`] drives both
/// [`crate::World`] and the fleet. It stays public as the wheel's
/// reference implementation, the oracle the netsim property tests and the
/// benchmark's traced pass replay the wheel against.
///
/// Events at equal times fire in insertion order, so runs are reproducible
/// regardless of payload contents (no reliance on payload ordering).
///
/// Cancellation is O(1) and lazy (the heap entry stays behind), but the
/// queue keeps itself compact: the heap front is always a live event (so
/// [`Self::peek_time`] is O(1)), mass cancellation triggers a heap
/// rebuild, and the backing allocations shrink after large drains — long
/// churny runs hold memory proportional to the live event count, not the
/// historical peak.
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    // Payloads stored separately keyed by seq to avoid Ord bounds on E.
    slots: std::collections::HashMap<u64, Pending<E>>,
    next_seq: u64,
    /// Cancellations since the last heap rebuild — the rebuild trigger.
    cancelled_since_rebuild: usize,
    /// Heap rebuilds over the queue's lifetime (observability for the
    /// compaction-thrash regression test).
    rebuilds: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slots: std::collections::HashMap::new(),
            next_seq: 0,
            cancelled_since_rebuild: 0,
            rebuilds: 0,
        }
    }

    /// Schedule `payload` at absolute time `at`. Returns a handle that can
    /// cancel it.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.slots.insert(seq, Pending { at, payload });
        EventHandle(seq)
    }

    /// Cancel a previously scheduled event. Returns true if it was pending.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let was_live = self.slots.remove(&handle.0).is_some();
        if was_live {
            self.compact_front();
            // Mass cancellation leaves the heap dominated by dead entries;
            // rebuild it from the live set before it grows unbounded. The
            // trigger counts cancellations since the previous rebuild
            // rather than comparing instantaneous sizes: a size comparison
            // re-fires every time the live set halves during one drain
            // (and can re-fire after fewer cancels than the rebuild costs
            // under cancel/re-arm cycles — NAS retx storms), while the
            // counter guarantees at least `live + 64` cancellations
            // between rebuilds, so rebuild work stays amortized O(1) per
            // cancel with a hysteresis floor of 64.
            self.cancelled_since_rebuild += 1;
            if self.cancelled_since_rebuild > self.slots.len() + 64 {
                self.heap = self
                    .slots
                    .iter()
                    .map(|(seq, p)| Reverse((p.at, *seq)))
                    .collect();
                self.cancelled_since_rebuild = 0;
                self.rebuilds += 1;
            }
        }
        was_live
    }

    /// Heap rebuilds triggered by mass cancellation so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Pop the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // The front is live by invariant; restore the invariant after.
        let popped = self.heap.pop().map(|Reverse((_, seq))| {
            let p = self.slots.remove(&seq).expect("heap front is live");
            (p.at, p.payload)
        });
        self.compact_front();
        // After large drains, return the spare allocation instead of
        // holding the high-water mark for the rest of the run.
        if self.slots.capacity() > 4 * self.slots.len() + 64 {
            self.slots.shrink_to_fit();
            self.heap.shrink_to_fit();
        }
        popped
    }

    /// Time of the earliest pending event. O(1): the heap front is always
    /// live (cancelled entries are compacted away eagerly).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    /// Drop dead (cancelled) entries off the heap front so the minimum is
    /// always a live event.
    fn compact_front(&mut self) {
        while let Some(Reverse((_, seq))) = self.heap.peek() {
            if self.slots.contains_key(seq) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// No live events pending.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Handle to a scheduled event, used for cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), "keep1");
        let h = q.schedule(SimTime::from_millis(2), "drop");
        q.schedule(SimTime::from_millis(3), "keep2");
        assert!(q.cancel(h));
        assert!(!q.cancel(h), "double-cancel is a no-op");
        assert_eq!(q.len(), 2);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["keep1", "keep2"]);
    }

    #[test]
    fn peek_time_ignores_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(9), ());
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(9)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn mass_cancellation_rebuilds_heap() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..10_000u64)
            .map(|i| q.schedule(SimTime::from_millis(i), i))
            .collect();
        // Cancel everything except the last event.
        for h in &handles[..9_999] {
            q.cancel(*h);
        }
        assert_eq!(q.len(), 1);
        assert!(
            q.heap.len() <= 2 * q.len() + 64,
            "dead heap entries must be rebuilt away, have {}",
            q.heap.len()
        );
        assert_eq!(q.pop().unwrap().1, 9_999);
    }

    #[test]
    fn churn_keeps_memory_steady() {
        let mut q = EventQueue::new();
        // A retransmission-timer style workload: every event schedules a
        // follow-up and cancels a stale timer, for a long time.
        let mut live = std::collections::VecDeque::new();
        for i in 0..200_000u64 {
            live.push_back(q.schedule(SimTime::from_millis(i), i));
            if live.len() > 8 {
                q.cancel(live.pop_front().unwrap());
                q.pop();
            }
        }
        while q.pop().is_some() {}
        assert!(q.is_empty());
        assert!(
            q.heap.len() <= 64 && q.slots.capacity() <= 256,
            "after the churn drains, the queue must not hold peak-sized \
             allocations (heap {}, slots cap {})",
            q.heap.len(),
            q.slots.capacity()
        );
    }

    #[test]
    fn cancel_rearm_cycles_do_not_thrash_rebuilds() {
        // A NAS-retx-storm shape: ~1000 timers stay armed while every step
        // cancels one and re-arms a replacement. The rebuild trigger must
        // honour its hysteresis floor — at least `live + 64` cancellations
        // between rebuilds — instead of re-firing on instantaneous sizes.
        let mut q = EventQueue::new();
        let mut armed: std::collections::VecDeque<_> = (0..1_000u64)
            .map(|i| q.schedule(SimTime::from_millis(i), i))
            .collect();
        let mut cancels = 0u64;
        for i in 1_000..101_000u64 {
            let h = armed.pop_front().unwrap();
            if q.cancel(h) {
                cancels += 1;
            }
            armed.push_back(q.schedule(SimTime::from_millis(i), i));
        }
        assert_eq!(q.len(), 1_000);
        // With ~1000 live events, each rebuild needs > 1064 cancellations.
        assert!(
            q.rebuilds() <= cancels / 1_000 + 1,
            "{} rebuilds for {} cancels thrashes the compactor",
            q.rebuilds(),
            cancels
        );
        assert!(q.rebuilds() >= 1, "the storm must eventually compact");
        // The memory invariant survives: dead entries stay bounded by the
        // live count plus the hysteresis floor.
        assert!(q.heap.len() <= 2 * q.len() + 64 + 1);
    }

    #[test]
    fn one_mass_drain_costs_logarithmic_rebuilds() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..10_000u64)
            .map(|i| q.schedule(SimTime::from_millis(i), i))
            .collect();
        for h in handles {
            q.cancel(h);
        }
        assert!(q.is_empty());
        assert!(
            q.rebuilds() <= 16,
            "a single mass-cancel drain did {} rebuilds",
            q.rebuilds()
        );
    }

    #[test]
    fn peek_time_stays_live_under_interleaved_cancels() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_millis(1), "a");
        let h2 = q.schedule(SimTime::from_millis(2), "b");
        q.schedule(SimTime::from_millis(3), "c");
        q.cancel(h2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        q.cancel(h1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.peek_time(), None);
    }
}

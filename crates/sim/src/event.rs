//! Typed simulation events and their deterministic queue order.
//!
//! The kernel's vocabulary is a small closed set of [`EventKind`]s; every
//! scheduled occurrence is a [`SimEvent`] — plain `Copy` data, no boxed
//! payloads — so the steady-state path moves events by value and never
//! allocates per event.
//!
//! Determinism (DESIGN.md §15): the queue is ordered by the total key
//! `(time, seq, source)`, where `seq` is the *per-source* emission
//! counter. Event times are non-negative finite floats, so comparing
//! `f64::to_bits` is order-preserving and bit-exact — no `partial_cmp`
//! edge cases on the hot path. Because `(source, seq)` pairs are unique,
//! the key is a total order: pop order depends only on what each
//! component emitted, never on insertion order — which is exactly the
//! registration-order invariance the kernel differential harness pins
//! with a property test.
//!
//! Layout (DESIGN.md §9): the queue is one
//! `std::collections::BinaryHeap<QueuedEvent>` owned by the
//! [`crate::Kernel`]. [`QueuedEvent`] orders by its *reversed* key, so the
//! std max-heap pops the minimum `(time, seq, source)`; since keys are
//! unique, any correct min-heap pops the same sequence.

use std::cmp::Ordering;

/// Index of a component registered with the [`crate::Kernel`].
///
/// Ids are caller-assigned, stable slot indices (e.g. core `k` of a
/// platform is component `k`), not registration handles — two runs that
/// wire the same components to the same slots order events identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ComponentId(pub usize);

/// Number of distinct [`EventKind`]s (the per-kind counter array width).
pub const EVENT_KINDS: usize = 7;

/// The closed event taxonomy of the simulation kernel.
///
/// `Release` and `Dispatch` are *wake* events: they drive a core engine's
/// next step. The remaining kinds are *notes* — semantic observations
/// (a completion, an injected fault, an (m,k) skip, a frame boundary, a
/// budget throttle) addressed to observer components. Notes carry no
/// float state, so they feed the per-component counters without touching
/// simulation arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A job release instant (also the engine wake used while idle).
    Release,
    /// A job completed (executed to its actual demand).
    Completion,
    /// A dispatch-path engine wake (speed/review/execution continuation).
    Dispatch,
    /// An injected-fault observation (overrun, jitter, drop, shed, abort,
    /// forced full speed).
    Fault,
    /// A model-layer (m,k) skip of a weakly-hard job.
    Skip,
    /// A frame-task release boundary.
    FrameBoundary,
    /// A shared-power-budget throttle decision.
    Budget,
}

impl EventKind {
    /// Every kind, in counter-array order.
    pub const ALL: [EventKind; EVENT_KINDS] = [
        EventKind::Release,
        EventKind::Completion,
        EventKind::Dispatch,
        EventKind::Fault,
        EventKind::Skip,
        EventKind::FrameBoundary,
        EventKind::Budget,
    ];

    /// The kind's slot in per-kind counter arrays.
    pub fn index(self) -> usize {
        match self {
            EventKind::Release => 0,
            EventKind::Completion => 1,
            EventKind::Dispatch => 2,
            EventKind::Fault => 3,
            EventKind::Skip => 4,
            EventKind::FrameBoundary => 5,
            EventKind::Budget => 6,
        }
    }

    /// A short stable label (used in reports and logs).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Release => "release",
            EventKind::Completion => "completion",
            EventKind::Dispatch => "dispatch",
            EventKind::Fault => "fault",
            EventKind::Skip => "skip",
            EventKind::FrameBoundary => "frame-boundary",
            EventKind::Budget => "budget",
        }
    }
}

/// One scheduled occurrence: plain `Copy` data, no payload allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEvent {
    /// Simulated time of the occurrence, in seconds (non-negative finite).
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
    /// The emitting component.
    pub source: ComponentId,
    /// The component the kernel delivers the event to.
    pub target: ComponentId,
}

/// A queued event plus its per-source emission ordinal (the tiebreaker).
///
/// `Ord` is the *reversed* [`QueuedEvent::key`] (and `Eq` is key
/// equality), so a `BinaryHeap<QueuedEvent>` pops the minimum key first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEvent {
    pub(crate) event: SimEvent,
    pub(crate) seq: u64,
}

impl QueuedEvent {
    /// Stamps `event` with its source's sequence number.
    pub(crate) fn new(event: SimEvent, seq: u64) -> QueuedEvent {
        debug_assert!(
            event.time.is_finite() && event.time >= 0.0,
            "event time must be non-negative finite, got {}",
            event.time
        );
        QueuedEvent { event, seq }
    }

    /// The total ordering key `(time, seq, source)`. Times are
    /// non-negative finite, so the IEEE-754 bit pattern orders exactly
    /// like the float value.
    fn key(&self) -> (u64, u64, usize) {
        (self.event.time.to_bits(), self.seq, self.event.source.0)
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for QueuedEvent {}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Queue occupancy readings, kept only so existing benchmark readers
/// still compile. Both fields are always 0: the queue is a single binary
/// heap, with no wheel or overflow tier to fill them. The type and
/// [`crate::SimScratch::queue_stats`] go away with the next benchmark
/// change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Always 0 (there is no timing wheel).
    pub wheel_occupancy_hwm: u64,
    /// Always 0 (there is no overflow tier).
    pub overflow_pushes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(time: f64, source: usize) -> SimEvent {
        SimEvent {
            time,
            kind: EventKind::Dispatch,
            source: ComponentId(source),
            target: ComponentId(source),
        }
    }

    fn drain(mut q: BinaryHeap<QueuedEvent>) -> Vec<(f64, u64, usize)> {
        std::iter::from_fn(|| q.pop())
            .map(|q| (q.event.time, q.seq, q.event.source.0))
            .collect()
    }

    #[test]
    fn pops_in_time_then_seq_then_source_order() {
        let mut q = BinaryHeap::new();
        q.push(QueuedEvent::new(ev(2.0, 0), 0));
        q.push(QueuedEvent::new(ev(1.0, 1), 5));
        q.push(QueuedEvent::new(ev(1.0, 0), 3));
        q.push(QueuedEvent::new(ev(1.0, 2), 3));
        assert_eq!(
            drain(q),
            vec![(1.0, 3, 0), (1.0, 3, 2), (1.0, 5, 1), (2.0, 0, 0)]
        );
    }

    #[test]
    fn pop_order_is_insertion_order_invariant() {
        let events: Vec<QueuedEvent> = [
            (ev(0.0, 0), 0),
            (ev(0.0, 1), 0),
            (ev(0.5, 0), 1),
            (ev(0.5, 2), 0),
            (ev(1.0, 1), 1),
        ]
        .into_iter()
        .map(|(e, s)| QueuedEvent::new(e, s))
        .collect();
        let forward = drain(events.iter().copied().collect());
        let reverse = drain(events.iter().rev().copied().collect());
        assert_eq!(forward, reverse);
    }

    #[test]
    fn kind_indices_are_a_bijection() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn clear_keeps_buffer_empties_queue() {
        let mut q = BinaryHeap::new();
        q.push(QueuedEvent::new(ev(1.0, 0), 0));
        assert_eq!(q.len(), 1);
        let capacity = q.capacity();
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.capacity(), capacity);
        assert!(q.pop().is_none());
    }

    /// Removes and returns the minimum pending key by linear scan.
    fn scan_min(pending: &mut Vec<QueuedEvent>) -> Option<(u64, u64, usize)> {
        let i = (0..pending.len()).min_by_key(|&i| pending[i].key())?;
        Some(pending.swap_remove(i).key())
    }

    /// Property: pushes and pops interleaved over few distinct times (deep
    /// ties) or hundreds always pop the linear-scan minimum of the
    /// pending keys.
    #[test]
    fn pops_match_linear_scan_minimum() {
        for case in 0..crate::rng::cases(256) {
            let mut rng = crate::rng::Rng::new(case);
            let distinct_times = if case % 2 == 0 {
                rng.u64_in(1..4)
            } else {
                rng.u64_in(200..600)
            };
            let mut seqs = [0u64; 4];
            let mut heap = BinaryHeap::new();
            let mut pending = Vec::new();
            for _ in 0..rng.usize_in(1..400) {
                if rng.u64_in(0..3) == 0 {
                    let popped = heap.pop().map(|q: QueuedEvent| q.key());
                    assert_eq!(popped, scan_min(&mut pending), "case seed {case}");
                } else {
                    let time = rng.u64_in(0..distinct_times) as f64 * 0.125;
                    let source = rng.usize_in(0..seqs.len());
                    let queued = QueuedEvent::new(ev(time, source), seqs[source]);
                    seqs[source] += 1;
                    heap.push(queued);
                    pending.push(queued);
                }
            }
            loop {
                let expected = scan_min(&mut pending);
                assert_eq!(heap.pop().map(|q| q.key()), expected, "case seed {case}");
                if expected.is_none() {
                    break;
                }
            }
        }
    }
}

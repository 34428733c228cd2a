//! The discrete-event simulation kernel: a shared deterministic clock
//! and the typed wake queue.
//!
//! A [`Kernel`] owns the clock and the event queue; the components it
//! drives (the core engines) implement [`crate::EventHandler`] and are
//! addressed by caller-assigned [`crate::ComponentId`] slots. [`Kernel::run`]
//! pops events in the total `(time, seq, source)` order and delivers
//! each to its target with a [`crate::ComponentCtx`] through which the
//! component reads the clock, emits future events, and reaches the
//! run-scoped [`SharedState`] (currently the optional power-budget
//! ledger).
//!
//! The queue is one `std::collections::BinaryHeap` of queued events,
//! ordered by the reversed `(time, seq, source)` key so the max-heap pops
//! the minimum; the kernel lends it to each [`crate::ComponentCtx`] as is.
//!
//! Allocation discipline: the kernel lives inside the run scratch
//! ([`crate::SimScratch`] / [`crate::PlatformScratch`]) and
//! [`Kernel::reset`] clears the heap and the sequence table (keeping
//! their buffers) across runs — the steady-state event path allocates
//! nothing and boxes nothing (components are pre-registered in an
//! index-addressed slice; events are `Copy`).

use std::collections::BinaryHeap;

use crate::budget::BudgetLedger;
use crate::component::{ComponentCtx, EventHandler};
use crate::event::{QueuedEvent, SimEvent};
use crate::SimError;

/// Run-scoped state the kernel lends to every component through
/// [`ComponentCtx::shared`]. Owned by the kernel (not `Rc<RefCell<_>>`):
/// exactly one component borrows it at a time — the one currently
/// handling an event — so there is nothing to lock and nothing that can
/// panic.
#[derive(Debug, Clone, Default)]
pub struct SharedState {
    /// The shared power-budget ledger, when this run is budget-capped
    /// (see [`crate::PlatformSim::run_budgeted`]).
    pub budget: Option<BudgetLedger>,
}

/// The discrete-event kernel: clock, deterministic queue and
/// per-component sequence counters.
#[derive(Debug, Clone, Default)]
pub struct Kernel {
    queue: BinaryHeap<QueuedEvent>,
    seqs: Vec<u64>,
    now: f64,
    delivered: u64,
    shared: SharedState,
}

impl Kernel {
    /// Creates an empty kernel; buffers grow on first use.
    pub fn new() -> Kernel {
        Kernel::default()
    }

    /// Resets for a run with `components` slots and optional shared
    /// budget state. Reuses every buffer — no allocation once the
    /// sequence table has grown to the platform's component count.
    pub fn reset(&mut self, components: usize, budget: Option<BudgetLedger>) {
        self.queue.clear();
        self.seqs.clear();
        self.seqs.resize(components, 0);
        self.now = 0.0;
        self.delivered = 0;
        self.shared = SharedState { budget };
    }

    /// Number of registered component slots.
    pub fn components(&self) -> usize {
        self.seqs.len()
    }

    /// The kernel clock: the time of the event being (or last) delivered.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total events delivered so far this run.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Events still pending in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Seeds an event before (or outside) [`Kernel::run`], stamped with
    /// the source component's next sequence number.
    ///
    /// Out-of-range source or target ids are rejected in debug builds and
    /// dropped in release builds.
    pub fn schedule(&mut self, event: SimEvent) {
        let s = event.source.0;
        if s >= self.seqs.len() || event.target.0 >= self.seqs.len() {
            debug_assert!(false, "schedule outside component table: {event:?}");
            return;
        }
        let seq = self.seqs[s];
        self.seqs[s] += 1;
        self.queue.push(QueuedEvent::new(event, seq));
    }

    /// Read access to the shared run state.
    pub fn shared(&self) -> &SharedState {
        &self.shared
    }

    /// Takes the budget ledger out of the shared state (after a run, to
    /// build the [`crate::BudgetReport`]).
    pub fn take_budget(&mut self) -> Option<BudgetLedger> {
        self.shared.budget.take()
    }

    /// Drains the queue, delivering every event to `handlers[target]` in
    /// the deterministic `(time, seq, source)` order. `handlers` is the
    /// pre-registered component table: slot `i` handles events targeted
    /// at [`crate::ComponentId`]`(i)`.
    ///
    /// The kernel clock is *ordering-only*: component arithmetic uses the
    /// components' own state (a core engine advances its own clock), so
    /// delivery timing can never perturb float results (DESIGN.md §15).
    ///
    /// # Errors
    ///
    /// Propagates the first error a handler returns; the remaining queue
    /// is abandoned (the next [`Kernel::reset`] clears it).
    pub fn run(&mut self, handlers: &mut [&mut dyn EventHandler]) -> Result<(), SimError> {
        debug_assert_eq!(
            handlers.len(),
            self.seqs.len(),
            "handler table must match the registered component count"
        );
        while let Some(queued) = self.queue.pop() {
            let event = queued.event;
            debug_assert!(
                event.time >= self.now,
                "kernel clock moved backwards: {} -> {}",
                self.now,
                event.time
            );
            self.now = event.time;
            self.delivered += 1;
            let t = event.target.0;
            if t >= handlers.len() {
                debug_assert!(false, "event targets unregistered component: {event:?}");
                continue;
            }
            let mut ctx = ComponentCtx {
                queue: &mut self.queue,
                seqs: &mut self.seqs,
                now: event.time,
                delivered: self.delivered,
                shared: &mut self.shared,
                self_id: event.target,
            };
            handlers[t].handle(event, &mut ctx)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ComponentId, EventKind};

    /// Records every delivery and optionally echoes one derived event.
    struct Recorder {
        log: Vec<(u64, f64, EventKind, usize)>,
        echo_to: Option<ComponentId>,
    }

    impl EventHandler for Recorder {
        fn handle(&mut self, event: SimEvent, ctx: &mut ComponentCtx<'_>) -> Result<(), SimError> {
            self.log
                .push((ctx.delivered(), ctx.now(), event.kind, event.source.0));
            if let Some(target) = self.echo_to {
                if event.kind == EventKind::Release {
                    ctx.emit(ctx.now() + 1.0, EventKind::Dispatch, target);
                }
            }
            Ok(())
        }
    }

    fn release_at(time: f64, id: usize) -> SimEvent {
        SimEvent {
            time,
            kind: EventKind::Release,
            source: ComponentId(id),
            target: ComponentId(id),
        }
    }

    #[test]
    fn delivers_in_time_order() {
        let mut kernel = Kernel::new();
        kernel.reset(2, None);
        kernel.schedule(release_at(1.0, 1));
        kernel.schedule(release_at(0.5, 0));
        let mut a = Recorder {
            log: Vec::new(),
            echo_to: Some(ComponentId(1)),
        };
        let mut b = Recorder {
            log: Vec::new(),
            echo_to: None,
        };
        {
            let mut handlers: [&mut dyn EventHandler; 2] = [&mut a, &mut b];
            kernel.run(&mut handlers).unwrap();
        }
        // a's release at 0.5 first, then b's at 1.0, then the echoed
        // dispatch at 1.5.
        assert_eq!(a.log, vec![(1, 0.5, EventKind::Release, 0)]);
        assert_eq!(
            b.log,
            vec![
                (2, 1.0, EventKind::Release, 1),
                (3, 1.5, EventKind::Dispatch, 0)
            ]
        );
        assert_eq!(kernel.delivered(), 3);
        assert!((kernel.now() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_queue() {
        let mut kernel = Kernel::new();
        kernel.reset(1, None);
        kernel.schedule(release_at(0.0, 0));
        kernel.reset(1, None);
        assert_eq!(kernel.pending(), 0);
        assert_eq!(kernel.delivered(), 0);
        assert!(kernel.shared().budget.is_none());
    }

    #[test]
    fn handler_errors_stop_the_run() {
        struct Failing;
        impl EventHandler for Failing {
            fn handle(&mut self, _: SimEvent, _: &mut ComponentCtx<'_>) -> Result<(), SimError> {
                Err(SimError::EventLimitExceeded { limit: 1 })
            }
        }
        let mut kernel = Kernel::new();
        kernel.reset(1, None);
        kernel.schedule(release_at(0.0, 0));
        kernel.schedule(release_at(1.0, 0));
        let mut failing = Failing;
        let mut handlers: [&mut dyn EventHandler; 1] = [&mut failing];
        let err = kernel.run(&mut handlers).unwrap_err();
        assert!(matches!(err, SimError::EventLimitExceeded { limit: 1 }));
        // The second event was abandoned with the run.
        assert_eq!(kernel.delivered(), 1);
    }
}

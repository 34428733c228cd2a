//! The event-driven preemptive EDF / DVS simulation engine.

use stadvs_power::Processor;

use crate::component::{CoreEngine, CoreScratch, EventHandler, Step};
use crate::event::{ComponentId, EventKind, SimEvent};
use crate::exec::ExecutionSource;
use crate::fault::FaultPlan;
use crate::governor::Governor;
use crate::kernel::Kernel;
use crate::model::SkipPolicy;
use crate::outcome::SimOutcome;
use crate::task::TaskSet;
use crate::SimError;

/// Absolute tolerance for event-time comparisons (1 ns).
pub const TIME_EPS: f64 = 1.0e-9;
/// Absolute tolerance below which remaining work counts as zero.
pub const WORK_EPS: f64 = 1.0e-12;

/// What to do when a job misses its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissPolicy {
    /// Record the miss in the job record and keep simulating (the default;
    /// lets experiments *count* misses).
    #[default]
    Record,
    /// Abort the simulation with [`SimError::DeadlineMiss`]. Use in tests
    /// that assert the hard-real-time guarantee.
    Fail,
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    horizon: f64,
    record_trace: bool,
    miss_policy: MissPolicy,
    max_events: u64,
    skip_policy: SkipPolicy,
}

impl Default for SimConfig {
    /// The canonical defaults shared by every construction path: a 1 s
    /// horizon, no trace recording, [`MissPolicy::Record`], and a
    /// 20-million-event runaway guard. All call sites (including
    /// [`crate::PlatformSim`]) build on this single definition via the
    /// builder methods — the literals live nowhere else.
    fn default() -> SimConfig {
        SimConfig {
            horizon: 1.0,
            record_trace: false,
            miss_policy: MissPolicy::Record,
            max_events: 20_000_000,
            skip_policy: SkipPolicy::Greedy,
        }
    }
}

impl SimConfig {
    /// Creates a configuration simulating `[0, horizon)` seconds.
    ///
    /// Jobs released strictly before the horizon are simulated; releases at
    /// or after it are not generated. For fair cross-governor comparisons
    /// choose the horizon as a multiple of the hyperperiod (or much larger
    /// than the largest period). Everything else takes the
    /// [`SimConfig::default`] values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `horizon` is not finite and
    /// positive.
    pub fn new(horizon: f64) -> Result<SimConfig, SimError> {
        SimConfig::default().with_horizon(horizon)
    }

    /// Replaces the simulated horizon.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `horizon` is not finite and
    /// positive.
    pub fn with_horizon(mut self, horizon: f64) -> Result<SimConfig, SimError> {
        if !horizon.is_finite() || horizon <= 0.0 {
            return Err(SimError::InvalidConfig {
                field: "horizon",
                value: horizon,
            });
        }
        self.horizon = horizon;
        Ok(self)
    }

    /// Enables or disables full trace recording (off by default; job records
    /// and energy totals are always kept).
    pub fn with_trace(mut self, record: bool) -> SimConfig {
        self.record_trace = record;
        self
    }

    /// Sets the deadline-miss policy.
    pub fn with_miss_policy(mut self, policy: MissPolicy) -> SimConfig {
        self.miss_policy = policy;
        self
    }

    /// Sets the (m,k)-firm skip policy (see [`SkipPolicy`]); irrelevant for
    /// task sets without weakly-hard tasks.
    pub fn with_skip_policy(mut self, policy: SkipPolicy) -> SimConfig {
        self.skip_policy = policy;
        self
    }

    /// Sets the runaway guard (maximum scheduler events).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `max_events` is zero.
    pub fn with_max_events(mut self, max_events: u64) -> Result<SimConfig, SimError> {
        if max_events == 0 {
            return Err(SimError::InvalidConfig {
                field: "max_events",
                value: 0.0,
            });
        }
        self.max_events = max_events;
        Ok(self)
    }

    /// The simulated horizon in seconds.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Whether a full trace is recorded.
    pub fn records_trace(&self) -> bool {
        self.record_trace
    }

    /// The deadline-miss policy.
    pub fn miss_policy(&self) -> MissPolicy {
        self.miss_policy
    }

    /// The (m,k)-firm skip policy.
    pub fn skip_policy(&self) -> SkipPolicy {
        self.skip_policy
    }

    /// The scheduler-event budget before the run aborts.
    pub fn max_events(&self) -> u64 {
        self.max_events
    }
}

/// Reusable working memory for [`Simulator::run_with_scratch`].
///
/// One simulation run needs the per-core scheduling buffers (ready set,
/// release queue, per-task counters) plus the kernel's event queue and
/// sequence table. All of them are sized by the task set, not the
/// horizon, and all of them are fully reset at the start of each run — so
/// a single `SimScratch` can be threaded through thousands of runs (the
/// experiment sweeps do exactly this, one scratch per worker thread)
/// without re-allocating per case.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    pub(crate) core: CoreScratch,
    pub(crate) kernel: Kernel,
}

impl SimScratch {
    /// Creates an empty scratch space; buffers grow on first use.
    pub fn new() -> SimScratch {
        SimScratch::default()
    }

    /// Always [`crate::QueueStats::default`]: the event queue is one
    /// binary heap, with no wheel or overflow tier to count. Kept only for
    /// existing benchmark readers until the next benchmark change.
    pub fn queue_stats(&self) -> crate::QueueStats {
        crate::QueueStats::default()
    }
}

/// A reusable simulator for one task set on one processor.
///
/// [`Simulator::run`] is `&self`: the same simulator can replay the same
/// workload under different governors, which is exactly how the energy
/// comparisons are produced.
///
/// ```
/// use stadvs_power::{Processor, Speed};
/// use stadvs_sim::{ConstantRatio, Governor, SchedulerView, ActiveJob,
///                  SimConfig, Simulator, Task, TaskSet};
///
/// struct FullSpeed;
/// impl Governor for FullSpeed {
///     fn name(&self) -> &str { "full" }
///     fn select_speed(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
///         Speed::FULL
///     }
/// }
///
/// # fn main() -> Result<(), stadvs_sim::SimError> {
/// let tasks = TaskSet::new(vec![Task::new(1.0e-3, 10.0e-3)?])?;
/// let sim = Simulator::new(tasks, Processor::ideal_continuous(), SimConfig::new(0.1)?)?;
/// let outcome = sim.run(&mut FullSpeed, &ConstantRatio::new(0.5))?;
/// assert!(outcome.all_deadlines_met());
/// assert_eq!(outcome.jobs.len(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    tasks: TaskSet,
    processor: Processor,
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Infeasible`] if the task set's worst-case density
    /// exceeds 1 — no speed assignment (not even always-full-speed) could
    /// then guarantee deadlines, so simulating it as a *hard* system is
    /// meaningless.
    pub fn new(
        tasks: TaskSet,
        processor: Processor,
        config: SimConfig,
    ) -> Result<Simulator, SimError> {
        let density = tasks.density();
        if density > 1.0 + 1.0e-9 {
            return Err(SimError::Infeasible { density });
        }
        Ok(Simulator {
            tasks,
            processor,
            config,
        })
    }

    /// The scheduled task set.
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// The platform.
    pub fn processor(&self) -> &Processor {
        &self.processor
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs one simulation of the configured horizon.
    ///
    /// # Errors
    ///
    /// * [`SimError::DeadlineMiss`] under [`MissPolicy::Fail`] when a job
    ///   completes after its deadline;
    /// * [`SimError::EventLimitExceeded`] if the runaway guard trips.
    pub fn run<G, E>(&self, governor: &mut G, exec: &E) -> Result<SimOutcome, SimError>
    where
        G: Governor + ?Sized,
        E: ExecutionSource + ?Sized,
    {
        self.run_with_scratch(governor, exec, &mut SimScratch::new())
    }

    /// Runs one simulation, reusing `scratch`'s buffers.
    ///
    /// Observably identical to [`Simulator::run`]; callers replaying many
    /// cases (the experiment runner, the benchmarks) thread one scratch per
    /// worker through all of them to avoid per-case allocation churn.
    ///
    /// # Errors
    ///
    /// * [`SimError::DeadlineMiss`] under [`MissPolicy::Fail`] when a job
    ///   completes after its deadline;
    /// * [`SimError::EventLimitExceeded`] if the runaway guard trips.
    pub fn run_with_scratch<G, E>(
        &self,
        governor: &mut G,
        exec: &E,
        scratch: &mut SimScratch,
    ) -> Result<SimOutcome, SimError>
    where
        G: Governor + ?Sized,
        E: ExecutionSource + ?Sized,
    {
        self.run_faulted_with_scratch(governor, exec, &FaultPlan::NONE, scratch)
    }

    /// Runs one simulation under the fault-injection recipe `plan`.
    ///
    /// Injected faults and the resulting degradation are reported in
    /// [`SimOutcome::faults`]. Deadline misses of *contaminated* jobs (jobs
    /// that shared a busy interval with overrun backlog, were aborted, or
    /// were shed) are fault-attributed: they are recorded but never trip
    /// [`MissPolicy::Fail`] — a miss that *does* trip it under fault
    /// injection is an algorithm bug, not an injected fault.
    ///
    /// With [`FaultPlan::none`] this is bit-for-bit identical to
    /// [`Simulator::run`].
    ///
    /// # Errors
    ///
    /// * [`SimError::DeadlineMiss`] under [`MissPolicy::Fail`] when an
    ///   **uncontaminated** job completes after its deadline;
    /// * [`SimError::EventLimitExceeded`] if the runaway guard trips.
    pub fn run_faulted<G, E>(
        &self,
        governor: &mut G,
        exec: &E,
        plan: &FaultPlan,
    ) -> Result<SimOutcome, SimError>
    where
        G: Governor + ?Sized,
        E: ExecutionSource + ?Sized,
    {
        self.run_faulted_with_scratch(governor, exec, plan, &mut SimScratch::new())
    }

    /// [`Simulator::run_faulted`], reusing `scratch`'s buffers.
    ///
    /// # Errors
    ///
    /// See [`Simulator::run_faulted`].
    pub fn run_faulted_with_scratch<G, E>(
        &self,
        governor: &mut G,
        exec: &E,
        plan: &FaultPlan,
        scratch: &mut SimScratch,
    ) -> Result<SimOutcome, SimError>
    where
        G: Governor + ?Sized,
        E: ExecutionSource + ?Sized,
    {
        let SimScratch { core, kernel } = scratch;
        // One component: the engine is slot 0, as on a 1-core platform.
        const ENGINE: ComponentId = ComponentId(0);
        kernel.reset(1, None);
        let mut engine = CoreEngine::new(
            &self.tasks,
            &self.processor,
            &self.config,
            governor,
            exec,
            plan,
            core,
            0,
        );
        kernel.schedule(SimEvent {
            time: 0.0,
            kind: EventKind::Release,
            source: ENGINE,
            target: ENGINE,
        });
        kernel.run(&mut [&mut engine as &mut dyn EventHandler])?;
        engine.finish()
    }

    /// Drives the very same [`CoreEngine`] the kernel-backed facade uses,
    /// but directly — no event queue, no kernel clock — as the oracle for
    /// the kernel differential harness: any divergence between this path
    /// and [`Simulator::run_faulted_with_scratch`] is a bug in the kernel
    /// plumbing, not in the engine.
    ///
    /// Not part of the supported API; use the regular run methods.
    #[doc(hidden)]
    pub fn run_faulted_direct<G, E>(
        &self,
        governor: &mut G,
        exec: &E,
        plan: &FaultPlan,
        scratch: &mut SimScratch,
    ) -> Result<SimOutcome, SimError>
    where
        G: Governor + ?Sized,
        E: ExecutionSource + ?Sized,
    {
        let mut engine = CoreEngine::new(
            &self.tasks,
            &self.processor,
            &self.config,
            governor,
            exec,
            plan,
            &mut scratch.core,
            0,
        );
        while let Step::Continue = engine.step(None)? {}
        engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ConstantRatio, WorstCase};
    use crate::governor::SchedulerView;
    use crate::job::ActiveJob;
    use crate::task::{Task, TaskId};
    use crate::trace::SegmentKind;
    use stadvs_power::Speed;

    /// Runs everything at full speed.
    struct FullSpeed;
    impl Governor for FullSpeed {
        fn name(&self) -> &str {
            "full-speed"
        }
        fn select_speed(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
            Speed::FULL
        }
    }

    /// Runs everything at a fixed speed (possibly missing deadlines).
    struct Fixed(f64);
    impl Governor for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn select_speed(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
            Speed::new(self.0).unwrap()
        }
    }

    fn two_task_set() -> TaskSet {
        TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(2.0, 8.0).unwrap(),
        ])
        .unwrap()
    }

    fn sim(tasks: TaskSet, horizon: f64) -> Simulator {
        Simulator::new(
            tasks,
            stadvs_power::Processor::ideal_continuous(),
            SimConfig::new(horizon).unwrap().with_trace(true),
        )
        .unwrap()
    }

    #[test]
    fn full_speed_edf_meets_all_deadlines() {
        let s = sim(two_task_set(), 32.0);
        let out = s.run(&mut FullSpeed, &WorstCase).unwrap();
        assert!(out.all_deadlines_met());
        // 8 jobs of T0 + 4 jobs of T1 over 32 s.
        assert_eq!(out.jobs.len(), 12);
        assert_eq!(out.completed_jobs(), 12);
        // Busy time = total worst-case work = 8*1 + 4*2 = 16.
        assert!((out.busy_time - 16.0).abs() < 1e-9);
        assert!((out.idle_time - 16.0).abs() < 1e-9);
        // Energy: 16 s at power 1 (cubic, s=1) with free idle.
        assert!((out.total_energy() - 16.0).abs() < 1e-9);
        assert_eq!(out.switches, 0);
    }

    #[test]
    fn half_speed_doubles_busy_time_and_cuts_energy() {
        // U = 0.5, so half speed is exactly the static-optimal point.
        let s = sim(two_task_set(), 32.0);
        let out = s.run(&mut Fixed(0.5), &WorstCase).unwrap();
        assert!(out.all_deadlines_met(), "static U-speed must be feasible");
        assert!((out.busy_time - 32.0).abs() < 1e-9);
        // Energy: 32 s at 0.125 W = 4 J (vs 16 J at full speed).
        assert!((out.total_energy() - 4.0).abs() < 1e-9);
        // One switch: FULL -> 0.5 at t=0.
        assert_eq!(out.switches, 1);
    }

    #[test]
    fn too_slow_speed_misses_and_fail_policy_errors() {
        let s = Simulator::new(
            two_task_set(),
            stadvs_power::Processor::ideal_continuous(),
            SimConfig::new(32.0)
                .unwrap()
                .with_miss_policy(MissPolicy::Fail),
        )
        .unwrap();
        let err = s.run(&mut Fixed(0.25), &WorstCase).unwrap_err();
        assert!(matches!(err, SimError::DeadlineMiss { .. }));

        // Same run under Record policy counts misses instead.
        let s2 = sim(two_task_set(), 32.0);
        let out = s2.run(&mut Fixed(0.25), &WorstCase).unwrap();
        assert!(out.miss_count() > 0);
    }

    #[test]
    fn actual_below_wcet_creates_idle_time() {
        let s = sim(two_task_set(), 32.0);
        let out = s.run(&mut FullSpeed, &ConstantRatio::new(0.5)).unwrap();
        assert!(out.all_deadlines_met());
        assert!((out.busy_time - 8.0).abs() < 1e-9);
        assert!((out.total_energy() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn preemption_is_counted() {
        // T0 = (1, 4) preempts T1 = (6.5, 12): T1 runs in [1,4) and [5,8)
        // and is preempted at t=4 (T0#1, deadline 8) and at t=8 (T0#2,
        // deadline 12 — the tie with T1's deadline breaks to the lower task
        // id), finally finishing at t=9.5.
        let tasks = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(6.5, 12.0).unwrap(),
        ])
        .unwrap();
        let s = sim(tasks, 12.0);
        let out = s.run(&mut FullSpeed, &WorstCase).unwrap();
        assert!(out.all_deadlines_met());
        let t1 = out.jobs.iter().find(|r| r.id.task == TaskId(1)).unwrap();
        assert_eq!(t1.preemptions, 2);
    }

    #[test]
    fn edf_order_is_respected_in_trace() {
        let tasks = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(2.0, 8.0).unwrap(),
        ])
        .unwrap();
        let s = sim(tasks, 8.0);
        let out = s.run(&mut FullSpeed, &WorstCase).unwrap();
        let trace = out.trace.as_ref().unwrap();
        // First segment must execute T0 (deadline 4 < 8).
        match trace.segments()[0].kind {
            SegmentKind::Execute { job } => assert_eq!(job.task, TaskId(0)),
            ref k => panic!("unexpected first segment {k:?}"),
        }
        // Work conservation per job: trace work equals actual demand.
        for r in out.jobs.iter().filter(|r| r.completion.is_some()) {
            let w = trace.work_executed_for(r.id);
            assert!((w - r.actual).abs() < 1e-9, "job {} work {w}", r.id);
        }
    }

    #[test]
    fn infeasible_task_set_is_rejected() {
        let tasks = TaskSet::new(vec![
            Task::new(3.0, 4.0).unwrap(),
            Task::new(2.0, 4.0).unwrap(),
        ])
        .unwrap();
        let err = Simulator::new(
            tasks,
            stadvs_power::Processor::ideal_continuous(),
            SimConfig::new(8.0).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Infeasible { .. }));
    }

    #[test]
    fn event_limit_guards_runaway() {
        let s = Simulator::new(
            two_task_set(),
            stadvs_power::Processor::ideal_continuous(),
            SimConfig::new(1.0e6).unwrap().with_max_events(10).unwrap(),
        )
        .unwrap();
        let err = s.run(&mut FullSpeed, &WorstCase).unwrap_err();
        assert!(matches!(err, SimError::EventLimitExceeded { limit: 10 }));
    }

    #[test]
    fn transition_latency_consumes_time() {
        use stadvs_power::{TransitionEnergy, TransitionOverhead};
        let cpu = stadvs_power::Processor::ideal_continuous().with_overhead(
            TransitionOverhead::new(0.5, TransitionEnergy::Constant(0.125)).unwrap(),
        );
        let tasks = TaskSet::new(vec![Task::new(1.0, 8.0).unwrap()]).unwrap();
        let s = Simulator::new(tasks, cpu, SimConfig::new(8.0).unwrap().with_trace(true)).unwrap();
        // Fixed 0.5 speed: one switch at t=0 (0.5 s latency), then the job
        // runs 2 s. Deadline 8 still met.
        let out = s.run(&mut Fixed(0.5), &WorstCase).unwrap();
        assert!(out.all_deadlines_met());
        assert_eq!(out.switches, 1);
        assert!((out.transition_time - 0.5).abs() < 1e-9);
        assert!((out.energy.transition - 0.125).abs() < 1e-12);
        let first = out.jobs.first().unwrap();
        assert!((first.completion.unwrap() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn same_workload_replays_identically() {
        let s = sim(two_task_set(), 64.0);
        let a = s.run(&mut FullSpeed, &ConstantRatio::new(0.7)).unwrap();
        let b = s.run(&mut FullSpeed, &ConstantRatio::new(0.7)).unwrap();
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.total_energy(), b.total_energy());
    }

    #[test]
    fn config_validation() {
        assert!(SimConfig::new(0.0).is_err());
        assert!(SimConfig::new(f64::NAN).is_err());
        assert!(SimConfig::new(1.0).unwrap().with_max_events(0).is_err());
        let c = SimConfig::new(2.0).unwrap().with_trace(true);
        assert_eq!(c.horizon(), 2.0);
        assert!(c.records_trace());
        assert_eq!(c.miss_policy(), MissPolicy::Record);
    }

    #[test]
    fn config_default_is_the_single_construction_path() {
        // `new` must be exactly `default` + `with_horizon`: same defaults,
        // one source of truth for the literals.
        let d = SimConfig::default();
        assert_eq!(d.horizon(), 1.0);
        assert!(!d.records_trace());
        assert_eq!(d.miss_policy(), MissPolicy::Record);
        assert_eq!(SimConfig::new(1.0).unwrap(), d);
        assert_eq!(
            SimConfig::new(3.5).unwrap(),
            d.clone().with_horizon(3.5).unwrap()
        );
        assert!(d.with_horizon(-1.0).is_err());
    }

    /// A two-phase governor: run the first half of each job at `low`, then
    /// switch to full speed — exercising the power-management-point path.
    struct TwoPhase {
        low: f64,
        pending: Option<f64>,
    }
    impl Governor for TwoPhase {
        fn name(&self) -> &str {
            "two-phase"
        }
        fn select_speed(&mut self, _: &SchedulerView<'_>, job: &ActiveJob) -> Speed {
            let half = job.wcet / 2.0;
            if job.executed() < half {
                let speed = Speed::new(self.low).unwrap();
                self.pending = Some((half - job.executed()) / speed.ratio());
                speed
            } else {
                self.pending = None;
                Speed::FULL
            }
        }
        fn review_after(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Option<f64> {
            self.pending.take()
        }
    }

    #[test]
    fn review_points_enable_intra_job_speed_changes() {
        // One task (2, 8), worst case. Plan: first 1.0 of work at 0.25
        // (4 s), second 1.0 at full speed (1 s) → completion at 5 < 8.
        let tasks = TaskSet::new(vec![Task::new(2.0, 8.0).unwrap()]).unwrap();
        let s = sim(tasks, 8.0);
        let out = s
            .run(
                &mut TwoPhase {
                    low: 0.25,
                    pending: None,
                },
                &WorstCase,
            )
            .unwrap();
        assert!(out.all_deadlines_met());
        let completion = out.jobs[0].completion.unwrap();
        assert!(
            (completion - 5.0).abs() < 1e-6,
            "completion {completion} != planned 5.0"
        );
        // Without the review point the low speed would have persisted:
        // 2.0 / 0.25 = 8 s — exactly the deadline, but with a different
        // trace. Check the trace really has both phases.
        let trace = out.trace.as_ref().unwrap();
        let speeds: Vec<f64> = trace
            .segments()
            .iter()
            .filter(|seg| matches!(seg.kind, SegmentKind::Execute { .. }))
            .map(|seg| seg.speed.ratio())
            .collect();
        assert_eq!(speeds, vec![0.25, 1.0]);
        assert_eq!(out.switches, 2); // FULL -> 0.25 -> FULL
    }

    #[test]
    fn review_floor_prevents_zero_progress_loops() {
        /// Pathological governor: always demands an immediate re-review.
        struct Spinner;
        impl Governor for Spinner {
            fn name(&self) -> &str {
                "spinner"
            }
            fn select_speed(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
                Speed::FULL
            }
            fn review_after(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Option<f64> {
                Some(0.0)
            }
        }
        let tasks = TaskSet::new(vec![Task::new(1.0e-3, 4.0e-3).unwrap()]).unwrap();
        let s = Simulator::new(
            tasks,
            stadvs_power::Processor::ideal_continuous(),
            SimConfig::new(0.05).unwrap(),
        )
        .unwrap();
        // 1 µs floor → at most ~1000 reviews per 1 ms job; well under the
        // event limit, and the run completes correctly.
        let out = s.run(&mut Spinner, &WorstCase).unwrap();
        assert!(out.all_deadlines_met());
        assert_eq!(out.completed_jobs(), 13);
    }

    #[test]
    fn all_hard_run_has_quiet_model_report() {
        let s = sim(two_task_set(), 32.0);
        let out = s.run(&mut FullSpeed, &ConstantRatio::new(0.7)).unwrap();
        assert!(out.models.is_quiet(), "{:?}", out.models);
    }

    fn mixed_set() -> TaskSet {
        TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(1.0, 4.0).unwrap().weakly_hard(1, 2).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn greedy_skip_alternates_and_records_instant_completions() {
        let s = sim(mixed_set(), 32.0);
        let out = s.run(&mut FullSpeed, &WorstCase).unwrap();
        assert!(out.all_deadlines_met());
        // (1,2) under Greedy: even indices are licensed (the odd
        // predecessor met) and shed; odd indices are not (the even
        // predecessor was a loss).
        assert_eq!(out.models.skips, 4);
        assert_eq!(out.models.weakly_hard_jobs, 8);
        let skipped: Vec<u64> = out.models.skipped.iter().map(|j| j.index).collect();
        assert_eq!(skipped, vec![0, 2, 4, 6]);
        assert!(out.models.skipped.iter().all(|j| j.task == TaskId(1)));
        for r in out.jobs.iter().filter(|r| out.models.is_skipped(r.id)) {
            assert_eq!(r.actual, 0.0);
            assert_eq!(r.completion, Some(r.release));
            assert_eq!(r.wall_time, 0.0);
        }
        // The shed WCETs never execute: busy time is 8 hard + 4 executed
        // weakly-hard jobs.
        assert!((out.busy_time - 12.0).abs() < 1e-9);
    }

    #[test]
    fn never_policy_executes_every_weakly_hard_job() {
        let s = Simulator::new(
            mixed_set(),
            stadvs_power::Processor::ideal_continuous(),
            SimConfig::new(32.0)
                .unwrap()
                .with_skip_policy(SkipPolicy::Never),
        )
        .unwrap();
        let out = s.run(&mut FullSpeed, &WorstCase).unwrap();
        assert!(out.all_deadlines_met());
        assert_eq!(out.models.skips, 0);
        assert!(out.models.skipped.is_empty());
        assert_eq!(out.models.weakly_hard_jobs, 8);
        assert!((out.busy_time - 16.0).abs() < 1e-9);
    }

    #[test]
    fn seeded_policy_replays_bit_identically() {
        let s = Simulator::new(
            mixed_set(),
            stadvs_power::Processor::ideal_continuous(),
            SimConfig::new(64.0)
                .unwrap()
                .with_skip_policy(SkipPolicy::seeded(0.5, 9).unwrap()),
        )
        .unwrap();
        let a = s.run(&mut FullSpeed, &WorstCase).unwrap();
        let b = s.run(&mut FullSpeed, &WorstCase).unwrap();
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.models, b.models);
        // Seeded at 0.5 takes some licensed skips but not all 8.
        assert!(a.models.skips < 8, "skips {}", a.models.skips);
    }

    #[test]
    fn sporadic_releases_follow_seeded_gaps() {
        let tasks = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(1.0, 10.0).unwrap().sporadic(0.5, 42).unwrap(),
        ])
        .unwrap();
        let sporadic = tasks.task(TaskId(1)).clone();
        let s = sim(tasks, 100.0);
        let out = s.run(&mut FullSpeed, &WorstCase).unwrap();
        assert!(out.all_deadlines_met());
        let releases: Vec<f64> = out
            .jobs
            .iter()
            .filter(|r| r.id.task == TaskId(1))
            .map(|r| r.release)
            .collect();
        assert!(releases.len() > 5, "horizon must cover several arrivals");
        assert_eq!(releases[0], 0.0);
        for (i, pair) in releases.windows(2).enumerate() {
            let gap = pair[1] - pair[0];
            let expected = sporadic.arrival_gap(i as u64 + 1);
            assert!(
                (gap - expected).abs() < 1e-9,
                "gap {gap} != seeded {expected} at #{i}"
            );
            assert!(gap >= 10.0, "sporadic gap compressed below the period");
        }
        assert_eq!(out.models.sporadic_jobs, releases.len() as u64);
        assert_eq!(out.models.skips, 0, "sporadic jobs are never skipped");
    }

    #[test]
    fn frame_boost_floors_dispatches_until_recovery() {
        // One frame task at fixed 0.4 speed: each job takes 5 s against a
        // 4 s deadline, so un-boosted frames miss; the post-miss boost
        // floor (1.0) makes the *next* frame complete on time, which
        // clears the boost again — miss / recover / miss / recover.
        let tasks = TaskSet::new(vec![Task::new(2.0, 4.0).unwrap().frame(1.0).unwrap()]).unwrap();
        let s = Simulator::new(
            tasks,
            stadvs_power::Processor::ideal_continuous(),
            SimConfig::new(16.0).unwrap(),
        )
        .unwrap();
        let out = s.run(&mut Fixed(0.4), &WorstCase).unwrap();
        assert_eq!(out.models.frame_jobs, 4);
        assert_eq!(out.models.frame_misses, 2);
        assert_eq!(out.models.max_frame_miss_streak, 1);
        assert_eq!(out.models.boosted_dispatches, 2);
        assert_eq!(out.miss_count(), 2);
        // The recovered frames really completed on time.
        let completions: Vec<f64> = out.jobs.iter().filter_map(|r| r.completion).collect();
        assert!((completions[1] - 7.0).abs() < 1e-9);
        assert!((completions[3] - 15.0).abs() < 1e-9);
    }

    #[test]
    fn phased_release_creates_initial_idle() {
        let tasks =
            TaskSet::new(vec![Task::new(1.0, 4.0).unwrap().with_phase(2.0).unwrap()]).unwrap();
        let s = sim(tasks, 10.0);
        let out = s.run(&mut FullSpeed, &WorstCase).unwrap();
        // Releases at 2 and 6 only; job at 10 is outside the horizon.
        assert_eq!(out.jobs.len(), 2);
        let trace = out.trace.as_ref().unwrap();
        assert!(matches!(trace.segments()[0].kind, SegmentKind::Idle));
        assert!((trace.segments()[0].end - 2.0).abs() < 1e-9);
    }
}

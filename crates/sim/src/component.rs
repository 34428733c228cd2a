//! Kernel components: the handler trait, the per-delivery context, and
//! the per-core EDF-DVS engine.
//!
//! [`CoreEngine`] is the heart of the refactor: the legacy monolithic
//! simulator loop, relocated *instruction-for-instruction* into a
//! component. One handled kernel event executes exactly one iteration of
//! the legacy loop body, after which the engine schedules its own next
//! wake at its own post-iteration clock. All floating-point arithmetic
//! happens inside the engine on its own clock — the kernel clock is
//! ordering-only — so the same float operations run in the same order as
//! the pre-kernel loop and the results are bit-identical by construction
//! (pinned by the golden corpus and `kernel_differential`).
//!
//! The engine emits nothing but its own wakes. Everything it observes
//! (completions, faults, skips, frame jobs, budget throttles) lands in
//! its [`SimOutcome`] and [`crate::BudgetReport`]; the one piece of
//! kernel state it reads is the shared [`BudgetLedger`] of a budgeted
//! platform run.

use std::collections::BinaryHeap;

use stadvs_power::{EnergyAccumulator, Processor, Speed};

use crate::budget::BudgetLedger;
use crate::event::{ComponentId, EventKind, QueuedEvent, SimEvent};
use crate::exec::ExecutionSource;
use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultReport, OverrunPolicy};
use crate::governor::{Governor, SchedulerView};
use crate::job::{ActiveJob, JobId, JobRecord};
use crate::kernel::SharedState;
use crate::model::{mk_skip_allowed, ModelReport, SkipPolicy};
use crate::outcome::SimOutcome;
use crate::queue::{ReadySet, ReleaseQueue};
use crate::simulator::{MissPolicy, SimConfig, TIME_EPS, WORK_EPS};
use crate::task::{TaskId, TaskKind, TaskSet};
use crate::trace::{Segment, SegmentKind, Trace};
use crate::SimError;

/// A simulation component driven by the [`crate::Kernel`].
///
/// The handler's slot in the kernel's handler table is its
/// [`ComponentId`]; events targeted at that id are delivered here, in
/// deterministic `(time, seq, source)` order.
pub trait EventHandler {
    /// Handles one delivered event. Future events are emitted through
    /// `ctx`; an `Err` aborts the kernel run.
    ///
    /// # Errors
    ///
    /// Component-specific; a core engine surfaces its simulation errors
    /// ([`SimError::DeadlineMiss`], [`SimError::EventLimitExceeded`], …).
    fn handle(&mut self, event: SimEvent, ctx: &mut ComponentCtx<'_>) -> Result<(), SimError>;
}

/// The per-delivery view of the kernel a component acts through: read
/// the clock, emit future events (stamped with the component's own
/// sequence counter), and reach the run-scoped [`SharedState`].
pub struct ComponentCtx<'k> {
    pub(crate) queue: &'k mut BinaryHeap<QueuedEvent>,
    pub(crate) seqs: &'k mut [u64],
    pub(crate) now: f64,
    pub(crate) delivered: u64,
    pub(crate) shared: &'k mut SharedState,
    pub(crate) self_id: ComponentId,
}

impl ComponentCtx<'_> {
    /// The kernel clock (the delivered event's time).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The handling component's id.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// The global delivery ordinal of the event being handled (1-based).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The run-scoped shared state (budget ledger, when present).
    pub fn shared(&mut self) -> &mut SharedState {
        self.shared
    }

    /// Emits an event at `time ≥ now` from this component to `target`.
    pub fn emit(&mut self, time: f64, kind: EventKind, target: ComponentId) {
        debug_assert!(
            time + TIME_EPS >= self.now,
            "component {} emitted into the past: {} < {}",
            self.self_id.0,
            time,
            self.now
        );
        let s = self.self_id.0;
        let seq = self.seqs[s];
        self.seqs[s] += 1;
        self.queue.push(QueuedEvent::new(
            SimEvent {
                // Clamp within tolerance: queue times must be monotone.
                time: time.max(self.now),
                kind,
                source: self.self_id,
                target,
            },
            seq,
        ));
    }
}

/// What one engine step decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// The loop body ran to a continuation point; schedule the next wake.
    Continue,
    /// The horizon was reached; no further wakes.
    Done,
}

/// Structure-of-arrays copy of the per-task hot parameters, filled once
/// per run from the [`TaskSet`] so the release scan reads contiguous
/// `f64` lanes instead of pointer-hopping `Task` structs (which also
/// carry a name `String` and model payloads the hot path never needs).
/// The values are verbatim copies — every formula computed from them
/// (e.g. `phase + index * period`) is the exact expression the `Task`
/// methods evaluate, so the arithmetic is bit-identical.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskHot {
    pub(crate) wcet: Vec<f64>,
    /// Relative deadline.
    pub(crate) deadline: Vec<f64>,
    pub(crate) period: Vec<f64>,
    pub(crate) phase: Vec<f64>,
    pub(crate) kind: Vec<TaskKind>,
}

impl TaskHot {
    /// Refills the arrays from `tasks` (allocation-free once warm).
    fn fill(&mut self, tasks: &TaskSet) {
        self.wcet.clear();
        self.deadline.clear();
        self.period.clear();
        self.phase.clear();
        self.kind.clear();
        for (_, t) in tasks.iter() {
            self.wcet.push(t.wcet());
            self.deadline.push(t.deadline());
            self.period.push(t.period());
            self.phase.push(t.phase());
            self.kind.push(t.kind());
        }
    }

    /// Nominal release instant of job `index` of `task` — the same
    /// expression as [`crate::task::Task::release_of`].
    fn release_of(&self, task: usize, index: u64) -> f64 {
        self.phase[task] + index as f64 * self.period[task]
    }
}

/// The per-task scheduling buffers of one core, reused across runs (the
/// guts of the legacy `SimScratch`, shared by the uniprocessor and the
/// platform paths).
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreScratch {
    pub(crate) ready: ReadySet,
    pub(crate) releases: ReleaseQueue,
    pub(crate) hot: TaskHot,
    pub(crate) next_index: Vec<u64>,
    pub(crate) due: Vec<usize>,
    /// Per-task flag set by [`OverrunPolicy::SkipNext`]: the task's next
    /// release is suppressed. Fully reset at the start of each run — a
    /// stale flag would silently shed a job of the *next* workload.
    pub(crate) skip_next: Vec<bool>,
    /// Per-task (m,k) outcome rings for weakly-hard tasks: bit `index % 64`
    /// is set iff that job completed on time. Since `k ≤ 64`, the trailing
    /// `k − 1` outcomes a skip decision inspects are always collision-free.
    /// Fully reset per run.
    pub(crate) mk_met: Vec<u64>,
    /// Per-task frame-recovery flag: set while a frame task is past a
    /// missed frame and not yet back on time (its dispatches are boosted).
    pub(crate) frame_boost: Vec<bool>,
    /// Per-task current run of consecutive late frames.
    pub(crate) frame_streak: Vec<u64>,
}

/// The per-core EDF-DVS engine: the legacy simulator loop as a kernel
/// component. Construction runs the legacy pre-loop setup (scratch
/// resets, `Governor::on_start`); each [`CoreEngine::step`] is one legacy
/// loop iteration; [`CoreEngine::finish`] is the legacy post-loop
/// (horizon drain, sorting, outcome assembly).
pub(crate) struct CoreEngine<'s, G, E: ?Sized> {
    // Static run inputs.
    tasks: &'s TaskSet,
    processor: &'s Processor,
    exec: &'s E,
    plan: &'s FaultPlan,
    governor: G,
    scratch: &'s mut CoreScratch,
    horizon: f64,
    miss_policy: MissPolicy,
    max_events: u64,
    skip_policy: SkipPolicy,
    /// The core's platform index, which keys the budget ledger (its
    /// kernel slot skips idle cores, so the two can differ).
    core_index: usize,
    faults_on: bool,
    jittered: bool,
    models_on: bool,
    // Run state (the legacy loop's locals).
    now: f64,
    events: u64,
    records: Vec<JobRecord>,
    acc: EnergyAccumulator,
    trace: Option<Trace>,
    current_speed: Speed,
    last_running: Option<JobId>,
    /// Set after a speed transition: the job the speed was committed
    /// for. If it is still the EDF choice afterwards, the commitment
    /// holds and the governor is not re-consulted — re-consulting would
    /// let the latency-shrunk slack demand a marginally different speed
    /// and chain transitions forever (real platforms commit too).
    committed_for: Option<JobId>,
    switch_ordinal: u64,
    /// Bumped whenever any task's next-release instant advances, so
    /// governors can key release-derived caches on the epoch (see
    /// [`SchedulerView::release_epoch`]).
    release_epoch: u64,
    /// Histogram of same-instant release batch sizes (see
    /// [`crate::SimOutcome::release_batches`] for the bucket geometry).
    release_batches: [u64; 8],
    model_report: ModelReport,
    skipped_ids: Vec<JobId>,
    report: FaultReport,
    contaminated_ids: Vec<JobId>,
    contamination_active: bool,
    recovery_start: Option<f64>,
    // Runtime invariant audit (debug builds only): the clock must never
    // move backwards, and idle + transition + execution time must tile
    // `[0, now]` — a gap or overlap means the trace and the energy
    // accounting have diverged from wall-clock time.
    audit_prev_now: f64,
    audit_accounted: f64,
    done: bool,
}

impl<'s, G, E> CoreEngine<'s, G, E>
where
    G: Governor,
    E: ExecutionSource + ?Sized,
{
    /// Creates the engine and runs the legacy pre-loop setup.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        tasks: &'s TaskSet,
        processor: &'s Processor,
        config: &SimConfig,
        mut governor: G,
        exec: &'s E,
        plan: &'s FaultPlan,
        scratch: &'s mut CoreScratch,
        core_index: usize,
    ) -> CoreEngine<'s, G, E> {
        let horizon = config.horizon();
        let n = tasks.len();

        // Fault-injection state. `faults_on` is checked once per gate so the
        // no-fault path stays branch-predictable; `jittered` additionally
        // gates the sporadic release recurrence, which is float-identical to
        // the periodic one only in the absence of delays.
        let faults_on = !plan.is_none();
        let jittered = faults_on && plan.has_jitter();
        // Task-model state. `models_on` plays the same role for the model
        // bookkeeping that `faults_on` plays for the fault channels: checked
        // once per run, so all-hard task sets simulate bit-identically to
        // the pre-model engine.
        let models_on = !tasks.all_hard();

        scratch.ready.reset(n);
        scratch.hot.fill(tasks);
        if jittered {
            scratch.releases.reset(
                tasks
                    .iter()
                    .map(|(id, t)| t.phase() + plan.release_delay(id, 0, t.period())),
            );
        } else {
            scratch.releases.reset(tasks.iter().map(|(_, t)| t.phase()));
        }
        scratch.next_index.clear();
        scratch.next_index.resize(n, 0);
        scratch.due.clear();
        scratch.skip_next.clear();
        scratch.skip_next.resize(n, false);
        scratch.mk_met.clear();
        scratch.mk_met.resize(n, 0);
        scratch.frame_boost.clear();
        scratch.frame_boost.resize(n, false);
        scratch.frame_streak.clear();
        scratch.frame_streak.resize(n, 0);
        // Pre-size for the jobs this horizon generates (capped: the records
        // move into the outcome, so a hostile horizon must not pre-book
        // unbounded memory).
        let expected_jobs: usize = tasks
            .iter()
            .map(|(_, t)| {
                if t.phase() >= horizon {
                    0
                } else {
                    ((horizon - t.phase()) / t.period()).ceil() as usize + 1
                }
            })
            .sum();
        let records: Vec<JobRecord> = Vec::with_capacity(expected_jobs.min(1 << 20));
        let acc = processor.energy_accumulator();
        let trace = config.records_trace().then(Trace::new);

        governor.on_start(tasks, processor);

        CoreEngine {
            tasks,
            processor,
            exec,
            plan,
            governor,
            scratch,
            horizon,
            miss_policy: config.miss_policy(),
            max_events: config.max_events(),
            skip_policy: config.skip_policy(),
            core_index,
            faults_on,
            jittered,
            models_on,
            now: 0.0,
            events: 0,
            records,
            acc,
            trace,
            current_speed: Speed::FULL,
            last_running: None,
            committed_for: None,
            switch_ordinal: 0,
            release_epoch: 0,
            release_batches: [0; 8],
            model_report: ModelReport::default(),
            skipped_ids: Vec::new(),
            report: FaultReport::default(),
            contaminated_ids: Vec::new(),
            contamination_active: false,
            recovery_start: None,
            audit_prev_now: 0.0,
            audit_accounted: 0.0,
            done: false,
        }
    }

    /// Whether the ready set is empty (the next wake is a release wait).
    fn waiting_for_release(&self) -> bool {
        self.scratch.ready.is_empty()
    }

    /// One iteration of the legacy simulator loop. `budget` is the shared
    /// power-budget ledger of a budgeted kernel run, and `None` otherwise
    /// (unbudgeted runs and the direct oracle path take the same
    /// instructions).
    ///
    /// # Errors
    ///
    /// * [`SimError::DeadlineMiss`] under [`MissPolicy::Fail`];
    /// * [`SimError::EventLimitExceeded`] if the runaway guard trips.
    pub(crate) fn step(&mut self, budget: Option<&mut BudgetLedger>) -> Result<Step, SimError> {
        self.events += 1;
        if self.events > self.max_events {
            return Err(SimError::EventLimitExceeded {
                limit: self.max_events,
            });
        }
        debug_assert!(
            self.now >= self.audit_prev_now,
            "clock moved backwards: {} -> {}",
            self.audit_prev_now,
            self.now
        );
        debug_assert!(
            (self.audit_accounted - self.now).abs() <= TIME_EPS * self.events as f64,
            "timeline not tiled: accounted {}, clock {}",
            self.audit_accounted,
            self.now
        );
        self.audit_prev_now = self.now;
        let horizon = self.horizon;
        let now = self.now;

        // 1. Release every job due at (or within tolerance of) `now`, in
        //    ascending task order, draining the whole same-instant batch
        //    in one pass (the due scan collects the batch; each task may
        //    owe several jobs if its period is tiny). Per-task parameters
        //    come from the SoA copy in scratch; the `Task` struct is only
        //    touched on the lazy paths (demand sampling, sporadic gaps).
        let mut batch_size: u64 = 0;
        self.scratch
            .releases
            .pop_due(now, horizon, &mut self.scratch.due);
        let mut d = 0;
        while d < self.scratch.due.len() {
            let i = self.scratch.due[d];
            while self.scratch.releases.time(i) <= now + TIME_EPS
                && self.scratch.releases.time(i) < horizon
            {
                batch_size += 1;
                let kind = self.scratch.hot.kind[i];
                let id = JobId {
                    task: TaskId(i),
                    index: self.scratch.next_index[i],
                };
                let release = self.scratch.releases.time(i);
                let fault_shed = self.faults_on && self.scratch.skip_next[i];
                if self.models_on {
                    match kind {
                        TaskKind::Hard => {}
                        TaskKind::WeaklyHard { .. } => {
                            self.model_report.weakly_hard_jobs += 1;
                            // The ring slot wraps to this job: its
                            // outcome starts as "lost" and is only set
                            // on an on-time completion. Position
                            // `index % 64` is outside every trailing
                            // window a skip decision inspects (k ≤ 64),
                            // so clearing before deciding is safe.
                            self.scratch.mk_met[i] &= !(1u64 << (id.index % 64));
                        }
                        TaskKind::Sporadic { .. } => self.model_report.sporadic_jobs += 1,
                        TaskKind::Frame { .. } => self.model_report.frame_jobs += 1,
                    }
                }
                // A fault-shed (OverrunPolicy::SkipNext) takes priority
                // over a model skip; the latter only applies to
                // weakly-hard jobs whose (m,k) contract stays
                // satisfiable AND which the run's SkipPolicy elects.
                let mut shed_record: Option<JobRecord> = None;
                if fault_shed {
                    // OverrunPolicy::SkipNext sheds this release: the
                    // job is recorded as never run and fault-attributed.
                    self.scratch.skip_next[i] = false;
                    self.report.skipped_releases += 1;
                    self.report.events.push(FaultEvent {
                        job: id,
                        at: release,
                        kind: FaultKind::SkippedRelease,
                    });
                    self.contaminated_ids.push(id);
                    self.records.push(JobRecord {
                        id,
                        release,
                        deadline: release + self.scratch.hot.deadline[i],
                        wcet: self.scratch.hot.wcet[i],
                        actual: 0.0,
                        completion: None,
                        wall_time: 0.0,
                        preemptions: 0,
                    });
                } else {
                    let mut model_skip = false;
                    if self.models_on {
                        if let TaskKind::WeaklyHard { m, k } = kind {
                            model_skip = mk_skip_allowed(self.scratch.mk_met[i], id.index, m, k)
                                && self.skip_policy.wants_skip(id);
                        }
                    }
                    if model_skip {
                        // Energy-aware skip: shed the job at release as
                        // an instant zero-work completion. The governor
                        // sees the completion (not the release), so
                        // reclaiming governors bank the entire WCET as
                        // slack. The met bit stays cleared: a skipped
                        // job is a loss in the (m,k) window.
                        self.model_report.skips += 1;
                        self.skipped_ids.push(id);
                        shed_record = Some(JobRecord {
                            id,
                            release,
                            deadline: release + self.scratch.hot.deadline[i],
                            wcet: self.scratch.hot.wcet[i],
                            actual: 0.0,
                            completion: Some(release),
                            wall_time: 0.0,
                            preemptions: 0,
                        });
                    } else {
                        let task = self.tasks.task(TaskId(i));
                        let actual = self.exec.actual_work(id.task, task, id.index);
                        let mut job = ActiveJob::new(
                            id,
                            release,
                            release + self.scratch.hot.deadline[i],
                            self.scratch.hot.wcet[i],
                            actual,
                        );
                        job.kind = kind;
                        if self.faults_on {
                            // Multiplying by exactly 1.0 (the
                            // not-selected case) is a bit-exact no-op,
                            // so no branch.
                            job.actual *= self.plan.overrun_factor(id.task, id.index);
                            let nominal = self.scratch.hot.release_of(i, id.index);
                            if self.jittered && release > nominal + TIME_EPS {
                                self.report.jittered_releases += 1;
                                self.report.events.push(FaultEvent {
                                    job: id,
                                    at: release,
                                    kind: FaultKind::JitteredRelease {
                                        delay: release - nominal,
                                    },
                                });
                            }
                            if self.contamination_active {
                                job.contaminated = true;
                            }
                        }
                        self.scratch.ready.push(job);
                    }
                }
                self.scratch.next_index[i] += 1;
                if self.models_on && matches!(kind, TaskKind::Sporadic { .. }) {
                    // Sporadic recurrence: the next arrival trails this
                    // one by the seeded gap (≥ the period, so arrivals
                    // never precede the periodic lattice — the same
                    // safety class as delay-only jitter). Under a jitter
                    // channel the injected delay adds on top.
                    let gap = self
                        .tasks
                        .task(TaskId(i))
                        .arrival_gap(self.scratch.next_index[i]);
                    let next = if self.jittered {
                        release
                            + gap
                            + self.plan.release_delay(
                                id.task,
                                self.scratch.next_index[i],
                                self.scratch.hot.period[i],
                            )
                    } else {
                        release + gap
                    };
                    self.scratch.releases.set_time(i, next);
                } else if self.jittered {
                    // Jittered periodic recurrence: delay the nominal
                    // release but never compress inter-arrival times
                    // below the period — compression could overload even
                    // a full-speed EDF schedule, which would make the
                    // injected jitter indistinguishable from an
                    // algorithm bug.
                    let nominal = self.scratch.hot.release_of(i, self.scratch.next_index[i]);
                    let delay = self.plan.release_delay(
                        id.task,
                        self.scratch.next_index[i],
                        self.scratch.hot.period[i],
                    );
                    self.scratch.releases.set_time(
                        i,
                        (nominal + delay).max(release + self.scratch.hot.period[i]),
                    );
                } else {
                    self.scratch.releases.set_time(
                        i,
                        self.scratch.hot.release_of(i, self.scratch.next_index[i]),
                    );
                }
                self.release_epoch += 1;
                if !fault_shed {
                    // The dense release array already holds this task's
                    // advanced instant (set_time above) and the not-yet-
                    // processed due tasks' current ones, so the plain
                    // fold-min is exact mid-batch — no staging to fold
                    // back in.
                    let next_arrival = self.scratch.releases.next_arrival();
                    let view = SchedulerView::new(
                        now,
                        self.tasks,
                        self.processor,
                        self.scratch.ready.jobs(),
                        self.scratch.releases.times(),
                        next_arrival,
                        self.current_speed,
                        self.release_epoch,
                    );
                    if let Some(record) = shed_record {
                        // The skipped job never enters the ready set:
                        // the governor observes an instant zero-work
                        // completion at the release instant.
                        self.governor.on_completion(&view, &record);
                        self.records.push(record);
                    } else if let Some(released) = self.scratch.ready.last() {
                        self.governor.on_release(&view, released);
                    }
                }
            }
            d += 1;
        }
        if batch_size > 0 {
            // Exponential buckets: 1, 2, 3, 4, 5–8, 9–16, 17–32, 33+.
            let bucket = match batch_size {
                1..=4 => batch_size as usize - 1,
                5..=8 => 4,
                9..=16 => 5,
                17..=32 => 6,
                _ => 7,
            };
            self.release_batches[bucket] += 1;
        }

        if now >= horizon - TIME_EPS {
            self.done = true;
            return Ok(Step::Done);
        }

        let next_arrival = self.scratch.releases.next_arrival();

        // 2. Idle until the next arrival (or the horizon) if nothing is
        //    ready. An empty ready set also ends any overrun recovery
        //    episode: backlog contamination cannot cross an idle
        //    instant.
        if self.scratch.ready.is_empty() {
            if self.faults_on && self.contamination_active {
                self.contamination_active = false;
                if let Some(start) = self.recovery_start.take() {
                    let recovery = now - start;
                    self.report.recovery_episodes += 1;
                    self.report.recovery_time += recovery;
                    if recovery > self.report.max_recovery_latency {
                        self.report.max_recovery_latency = recovery;
                    }
                }
            }
            {
                let view = SchedulerView::new(
                    now,
                    self.tasks,
                    self.processor,
                    self.scratch.ready.jobs(),
                    self.scratch.releases.times(),
                    next_arrival,
                    self.current_speed,
                    self.release_epoch,
                );
                self.governor.on_idle(&view);
            }
            // An idle core draws no active power from the shared rail.
            if let Some(ledger) = budget {
                ledger.settle_idle(self.core_index);
            }
            let wake = next_arrival.min(horizon).max(now);
            if wake > now {
                self.acc.add_idle(wake - now);
                if let Some(tr) = self.trace.as_mut() {
                    tr.push(Segment {
                        start: now,
                        end: wake,
                        speed: self.current_speed,
                        kind: SegmentKind::Idle,
                    });
                }
                self.audit_accounted += wake - now;
                self.now = wake;
            }
            return Ok(Step::Continue);
        }

        // 3. Dispatch the EDF job (argmin over the packed key array; the
        //    selection order is identical to a linear scan of the jobs).
        let Some(ji) = self.scratch.ready.edf_index() else {
            // Unreachable: the ready set was checked non-empty above.
            self.done = true;
            return Ok(Step::Done);
        };
        let cur_id = self.scratch.ready.job(ji).id;
        if let Some(prev) = self.last_running {
            if prev != cur_id {
                if let Some(p) = self.scratch.ready.job_mut_by_id(prev) {
                    p.preemptions += 1;
                }
            }
        }
        self.last_running = Some(cur_id);

        // 4. Select (and if needed transition to) the execution speed,
        //    and ask for an optional intra-job review point. A job
        //    forced to full speed by an overrun policy bypasses the
        //    governor entirely — its certificate is already invalid.
        let committed = self.committed_for.take() == Some(cur_id);
        let forced = self.faults_on && self.scratch.ready.job(ji).forced_max;
        let mut review: Option<f64> = None;
        let requested = if forced {
            Speed::FULL
        } else if committed {
            self.current_speed
        } else {
            let view = SchedulerView::new(
                now,
                self.tasks,
                self.processor,
                self.scratch.ready.jobs(),
                self.scratch.releases.times(),
                next_arrival,
                self.current_speed,
                self.release_epoch,
            );
            let speed = self
                .governor
                .select_speed(&view, self.scratch.ready.job(ji));
            review = self
                .governor
                .review_after(&view, self.scratch.ready.job(ji));
            speed
        };
        let mut speed = self.processor.quantize_up(requested);
        if self.models_on && !forced {
            // Frame-recovery boost: after a missed frame, the task's
            // dispatches are floored at its boost ratio until it
            // completes on time again. A speed floor (like the level
            // clamp below) only ever raises speeds, so other tasks'
            // deadlines are never endangered.
            if let TaskKind::Frame { boost, .. } = self.scratch.ready.job(ji).kind {
                if self.scratch.frame_boost[cur_id.task.0] && speed.ratio() < boost {
                    speed = self
                        .processor
                        .quantize_up(Speed::clamped(boost, self.processor.min_speed()));
                    self.model_report.boosted_dispatches += 1;
                }
            }
        }
        if self.faults_on && !forced {
            // Level-floor clamp: the platform's lowest operating points
            // are unavailable, so every selection is raised to the
            // floor (deadline-safe: speeds only ever increase).
            if let Some(floor) = self.plan.level_floor() {
                if speed.ratio() < floor {
                    speed = self
                        .processor
                        .quantize_up(Speed::clamped(floor, self.processor.min_speed()));
                    self.report.clamped_selections += 1;
                }
            }
            // Switch-drop channel: each candidate *downward* switch may
            // be dropped (the DVS command was lost; the processor keeps
            // its previous, faster speed). Upward switches always go
            // through — dropping those could cause unattributed misses.
            if speed.ratio() < self.current_speed.ratio() && !speed.same_point(self.current_speed) {
                let ordinal = self.switch_ordinal;
                self.switch_ordinal += 1;
                if self.plan.drops_switch(ordinal) {
                    self.report.dropped_switches += 1;
                    self.report.events.push(FaultEvent {
                        job: cur_id,
                        at: now,
                        kind: FaultKind::DroppedSwitch,
                    });
                    speed = self.current_speed;
                }
            }
        }
        // Shared power budget (kernel-backed budgeted runs only): the
        // ledger throttles the grant to the rail's remaining headroom.
        // Placed after every legacy adjustment so unbudgeted runs take no
        // branch here; overrun-forced full speed overrides the cap (the
        // certificate is already void — recovery wins over the rail).
        if !forced {
            if let Some(ledger) = budget {
                speed = ledger.grant(self.core_index, speed, self.processor);
            }
        }
        if !speed.same_point(self.current_speed) {
            self.acc.add_transition(self.current_speed, speed);
            self.current_speed = speed;
            let latency = self.processor.overhead().latency();
            if latency > 0.0 {
                let end = (now + latency).min(horizon);
                if let Some(tr) = self.trace.as_mut() {
                    tr.push(Segment {
                        start: now,
                        end,
                        speed,
                        kind: SegmentKind::Transition,
                    });
                }
                self.audit_accounted += end - now;
                self.now = end;
                // Re-enter the loop: releases that occurred during the
                // transition are processed; if this job is still the
                // EDF choice it executes at the committed speed.
                self.committed_for = Some(cur_id);
                return Ok(Step::Continue);
            }
        }

        // 5. Execute until completion, next arrival, or the horizon —
        //    whichever comes first.
        let job = self.scratch.ready.job_mut(ji);
        let dt_complete = job.remaining_actual() / speed.ratio();
        let dt_arrival = (next_arrival - now).max(0.0);
        let dt_horizon = horizon - now;
        // Governor-requested power-management point (floored to keep
        // progress even against a misbehaving governor).
        let dt_review = review.map_or(f64::INFINITY, |r| r.max(1.0e-6));
        // Budget bound: a job whose injected demand exceeds its WCET
        // must stop *at* the WCET crossing so the overrun is detected
        // at the exact instant the certificate becomes invalid.
        let dt_budget = if self.faults_on && !job.overrun && job.actual > job.wcet + WORK_EPS {
            (job.wcet - job.executed).max(0.0) / speed.ratio()
        } else {
            f64::INFINITY
        };
        let dt = dt_complete
            .min(dt_arrival)
            .min(dt_horizon)
            .min(dt_review)
            .min(dt_budget)
            .max(0.0);
        if dt > 0.0 {
            debug_assert!(dt.is_finite(), "non-finite execution step at {now}");
            job.executed += speed.ratio() * dt;
            job.wall_used += dt;
            debug_assert!(
                job.remaining_actual() >= -WORK_EPS,
                "job {:?} executed past its actual demand by {}",
                cur_id,
                -job.remaining_actual()
            );
            self.acc.add_execution(speed, dt);
            self.audit_accounted += dt;
            if let Some(tr) = self.trace.as_mut() {
                tr.push(Segment {
                    start: now,
                    end: now + dt,
                    speed,
                    kind: SegmentKind::Execute { job: cur_id },
                });
            }
            self.now = now + dt;
        }
        let now = self.now;

        // 5b. Overrun detection: the instant executed work crosses the
        //     WCET with demand still remaining, the governor's budget
        //     certificate is invalid. Everything currently ready (and
        //     everything released until the backlog drains) is
        //     contaminated: its misses are fault-attributed.
        if self.faults_on {
            let j = self.scratch.ready.job(ji);
            let detected = !j.overrun
                && j.actual > j.wcet + WORK_EPS
                && j.executed >= j.wcet - WORK_EPS
                && j.remaining_actual() > WORK_EPS;
            let factor = j.actual / j.wcet;
            if detected {
                self.report.overruns += 1;
                self.report.events.push(FaultEvent {
                    job: cur_id,
                    at: now,
                    kind: FaultKind::WcetOverrun { factor },
                });
                self.contamination_active = true;
                if self.recovery_start.is_none() {
                    self.recovery_start = Some(now);
                }
                for ready_job in self.scratch.ready.jobs_mut() {
                    ready_job.contaminated = true;
                }
                self.scratch.ready.job_mut(ji).overrun = true;
                {
                    let view = SchedulerView::new(
                        now,
                        self.tasks,
                        self.processor,
                        self.scratch.ready.jobs(),
                        self.scratch.releases.times(),
                        next_arrival,
                        self.current_speed,
                        self.release_epoch,
                    );
                    self.governor.on_overrun(&view, self.scratch.ready.job(ji));
                }
                // Exhaustive on purpose (no `_` arm): a new policy
                // variant must force a decision at this exact point
                // (enforced by the `fault-policy-exhaustive` lint).
                match self.plan.resolve_policy(self.governor.overrun_policy()) {
                    OverrunPolicy::Abort => {
                        let job = self.scratch.ready.complete(ji);
                        self.report.aborted += 1;
                        self.report.events.push(FaultEvent {
                            job: job.id,
                            at: now,
                            kind: FaultKind::Aborted,
                        });
                        self.contaminated_ids.push(job.id);
                        self.last_running = None;
                        self.records.push(JobRecord {
                            id: job.id,
                            release: job.release,
                            deadline: job.deadline,
                            wcet: job.wcet,
                            actual: job.actual,
                            completion: None,
                            wall_time: job.wall_used,
                            preemptions: job.preemptions,
                        });
                    }
                    OverrunPolicy::CompleteAtMax => {
                        self.scratch.ready.job_mut(ji).forced_max = true;
                        self.report.forced_full_speed += 1;
                        self.report.events.push(FaultEvent {
                            job: cur_id,
                            at: now,
                            kind: FaultKind::ForcedFullSpeed,
                        });
                    }
                    OverrunPolicy::SkipNext => {
                        self.scratch.ready.job_mut(ji).forced_max = true;
                        self.report.forced_full_speed += 1;
                        self.report.events.push(FaultEvent {
                            job: cur_id,
                            at: now,
                            kind: FaultKind::ForcedFullSpeed,
                        });
                        self.scratch.skip_next[cur_id.task.0] = true;
                    }
                }
                return Ok(Step::Continue);
            }
        }

        // 6. Completion handling.
        if self.scratch.ready.job(ji).remaining_actual() <= WORK_EPS {
            let job = self.scratch.ready.complete(ji);
            let fault_attributed = self.faults_on && job.contaminated;
            if fault_attributed {
                self.contaminated_ids.push(job.id);
            }
            let record = JobRecord {
                id: job.id,
                release: job.release,
                deadline: job.deadline,
                wcet: job.wcet,
                actual: job.actual,
                completion: Some(now),
                wall_time: job.wall_used,
                preemptions: job.preemptions,
            };
            if self.miss_policy == MissPolicy::Fail
                && now > record.deadline + TIME_EPS
                && !fault_attributed
            {
                return Err(SimError::DeadlineMiss {
                    job: record.id,
                    deadline: record.deadline,
                    completed: now,
                });
            }
            self.last_running = None;
            if self.models_on {
                let on_time = !record.missed(self.horizon);
                match job.kind {
                    TaskKind::Hard | TaskKind::Sporadic { .. } => {}
                    TaskKind::WeaklyHard { .. } => {
                        if on_time {
                            self.scratch.mk_met[record.id.task.0] |= 1u64 << (record.id.index % 64);
                        }
                    }
                    TaskKind::Frame { .. } => {
                        let ti = record.id.task.0;
                        if on_time {
                            self.scratch.frame_boost[ti] = false;
                            self.scratch.frame_streak[ti] = 0;
                        } else {
                            self.scratch.frame_boost[ti] = true;
                            self.scratch.frame_streak[ti] += 1;
                            self.model_report.frame_misses += 1;
                            if self.scratch.frame_streak[ti]
                                > self.model_report.max_frame_miss_streak
                            {
                                self.model_report.max_frame_miss_streak =
                                    self.scratch.frame_streak[ti];
                            }
                        }
                    }
                }
            }
            let view = SchedulerView::new(
                now,
                self.tasks,
                self.processor,
                self.scratch.ready.jobs(),
                self.scratch.releases.times(),
                next_arrival,
                self.current_speed,
                self.release_epoch,
            );
            self.governor.on_completion(&view, &record);
            self.records.push(record);
        }
        Ok(Step::Continue)
    }

    /// The legacy post-loop: drains incomplete jobs, sorts and
    /// deduplicates the attribution lists, and assembles the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DeadlineMiss`] under [`MissPolicy::Fail`] if
    /// an uncontaminated job already past its deadline never completed.
    pub(crate) fn finish(mut self) -> Result<SimOutcome, SimError> {
        let horizon = self.horizon;
        // Jobs still incomplete when the horizon ended.
        for job in self.scratch.ready.drain_jobs() {
            let fault_attributed = self.faults_on && job.contaminated;
            if fault_attributed {
                self.contaminated_ids.push(job.id);
            }
            let record = JobRecord {
                id: job.id,
                release: job.release,
                deadline: job.deadline,
                wcet: job.wcet,
                actual: job.actual,
                completion: None,
                wall_time: job.wall_used,
                preemptions: job.preemptions,
            };
            if self.miss_policy == MissPolicy::Fail && record.missed(horizon) && !fault_attributed {
                return Err(SimError::DeadlineMiss {
                    job: record.id,
                    deadline: record.deadline,
                    completed: horizon,
                });
            }
            self.records.push(record);
        }
        // Unstable sort is safe: `(task, index)` job ids are unique, so
        // there are no equal keys whose relative order could differ.
        self.records
            .sort_unstable_by_key(|r| (r.id.task, r.id.index));

        // A recovery episode still open at the horizon is closed there: the
        // latency lower-bounds what a longer horizon would have measured.
        if let Some(start) = self.recovery_start.take() {
            let recovery = self.now - start;
            self.report.recovery_episodes += 1;
            self.report.recovery_time += recovery;
            if recovery > self.report.max_recovery_latency {
                self.report.max_recovery_latency = recovery;
            }
        }
        if self.faults_on {
            self.contaminated_ids.sort_unstable();
            self.contaminated_ids.dedup();
            self.report.contaminated = self.contaminated_ids;
        }
        if self.models_on {
            self.skipped_ids.sort_unstable();
            self.skipped_ids.dedup();
            self.model_report.skipped = self.skipped_ids;
        }

        let (busy, idle, transition) = match self.trace.as_ref() {
            Some(tr) => (tr.busy_time(), tr.idle_time(), tr.transition_time()),
            None => {
                let busy: f64 = self.records.iter().map(|r| r.wall_time).sum();
                (busy, 0.0, 0.0) // idle/transition splits need a trace
            }
        };

        Ok(SimOutcome {
            governor: self.governor.name().to_string(),
            horizon,
            energy: self.acc.breakdown(),
            switches: self.acc.switch_count(),
            jobs: self.records,
            events: self.events,
            busy_time: busy,
            idle_time: idle,
            transition_time: transition,
            faults: self.report,
            models: self.model_report,
            release_batches: self.release_batches,
            analysis: self.governor.analysis_stats().unwrap_or_default(),
            trace: self.trace,
        })
    }
}

impl<G, E> EventHandler for CoreEngine<'_, G, E>
where
    G: Governor,
    E: ExecutionSource + ?Sized,
{
    fn handle(&mut self, _event: SimEvent, ctx: &mut ComponentCtx<'_>) -> Result<(), SimError> {
        if self.done {
            // Horizon already reached; a stray wake is absorbed.
            return Ok(());
        }
        match self.step(ctx.shared().budget.as_mut())? {
            Step::Continue => {
                // Self-schedule the next legacy-loop iteration at the
                // engine's own post-iteration clock. The kind is a label:
                // waiting-for-release wakes read as releases, all others
                // as dispatch continuations.
                let kind = if self.waiting_for_release() {
                    EventKind::Release
                } else {
                    EventKind::Dispatch
                };
                ctx.emit(self.now, kind, ctx.self_id());
            }
            Step::Done => {}
        }
        Ok(())
    }
}

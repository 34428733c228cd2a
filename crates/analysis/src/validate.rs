//! Post-hoc validation of simulation outcomes — the hard-real-time audit.

use std::fmt;

use stadvs_power::Processor;
use stadvs_sim::{JobId, JobRecord, Segment, SegmentKind, SimOutcome, TaskSet, Trace};

const TOL: f64 = 1.0e-6;

/// One problem found while auditing an outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Issue {
    /// A job completed after its deadline (or never completed although due).
    DeadlineMiss {
        /// The offending job.
        job: JobId,
        /// Completion time (horizon if never completed).
        completed: f64,
        /// The job's absolute deadline.
        deadline: f64,
    },
    /// Trace work for a completed job differs from its actual demand.
    WorkMismatch {
        /// The offending job.
        job: JobId,
        /// Work found in the trace.
        traced: f64,
        /// The job's recorded actual demand.
        actual: f64,
    },
    /// An execution segment ran at a speed the platform does not offer.
    UnavailableSpeed {
        /// The segment's start time.
        at: f64,
        /// The offending speed ratio.
        speed: f64,
    },
    /// A job executed before its release or after its deadline.
    ExecutionOutsideWindow {
        /// The offending job.
        job: JobId,
        /// Start of the offending segment.
        at: f64,
    },
    /// Trace segments do not tile the horizon (gap or overlap).
    BrokenTimeline {
        /// Where the discontinuity was found.
        at: f64,
    },
    /// The number of released jobs does not match the periodic pattern.
    WrongJobCount {
        /// Expected number of jobs.
        expected: usize,
        /// Number of job records present.
        found: usize,
    },
    /// A completed job's recorded wall time differs from the total duration
    /// of its execution segments in the trace.
    WallTimeMismatch {
        /// The offending job.
        job: JobId,
        /// Wall time summed from the trace.
        traced: f64,
        /// Wall time the simulator recorded.
        reported: f64,
    },
    /// The energy bill recomputed from the trace disagrees with the
    /// simulator's accounting.
    EnergyMismatch {
        /// Energy component that disagrees ("active", "idle",
        /// "transition", or "switches").
        component: String,
        /// Value recomputed from the trace.
        recomputed: f64,
        /// Value the simulator reported.
        reported: f64,
    },
}

impl fmt::Display for Issue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Issue::DeadlineMiss {
                job,
                completed,
                deadline,
            } => write!(f, "job {job} missed deadline {deadline} (done {completed})"),
            Issue::WorkMismatch {
                job,
                traced,
                actual,
            } => {
                write!(f, "job {job} traced work {traced} != actual {actual}")
            }
            Issue::UnavailableSpeed { at, speed } => {
                write!(f, "segment at {at} runs at unavailable speed {speed}")
            }
            Issue::ExecutionOutsideWindow { job, at } => {
                write!(f, "job {job} executed outside [release, deadline] at {at}")
            }
            Issue::BrokenTimeline { at } => write!(f, "trace discontinuity at {at}"),
            Issue::WallTimeMismatch {
                job,
                traced,
                reported,
            } => write!(
                f,
                "job {job} traced wall time {traced} != recorded {reported}"
            ),
            Issue::WrongJobCount { expected, found } => {
                write!(f, "expected {expected} job records, found {found}")
            }
            Issue::EnergyMismatch {
                component,
                recomputed,
                reported,
            } => write!(
                f,
                "{component} energy recomputed from trace ({recomputed}) != reported ({reported})"
            ),
        }
    }
}

/// The result of auditing one [`SimOutcome`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValidationReport {
    /// All problems found (empty for a clean run).
    pub issues: Vec<Issue>,
    /// Number of job records audited.
    pub jobs_checked: usize,
}

impl ValidationReport {
    /// Whether the outcome passed every check.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Number of deadline misses among the issues.
    pub fn miss_count(&self) -> usize {
        self.issues
            .iter()
            .filter(|i| matches!(i, Issue::DeadlineMiss { .. }))
            .count()
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean ({} jobs audited)", self.jobs_checked)
        } else {
            writeln!(
                f,
                "{} issue(s) over {} jobs:",
                self.issues.len(),
                self.jobs_checked
            )?;
            for i in &self.issues {
                writeln!(f, "  - {i}")?;
            }
            Ok(())
        }
    }
}

/// Audits a simulation outcome against the task set and platform:
///
/// 1. every due job met its deadline;
/// 2. the number of job records matches the periodic release pattern;
/// 3. with a trace: segments tile `[0, horizon]` with no gaps/overlaps,
///    every execution segment runs at an available speed, inside the job's
///    `[release, deadline]` window (for jobs that met their deadline), and
///    each completed job's traced work equals its recorded actual demand
///    (work conservation);
/// 4. with a trace: the energy bill recomputed from the segments equals
///    the simulator's accounting.
///
/// The trace audit is one pass over the segments: job records are found
/// through an id-sorted index built once, so the whole audit costs
/// O((segments + jobs) · log jobs).
///
/// This is the independent referee for the "hard real-time" claim: governors
/// are audited from the outside, not trusted.
pub fn validate_outcome(
    outcome: &SimOutcome,
    tasks: &TaskSet,
    processor: &Processor,
) -> ValidationReport {
    let mut issues = Vec::new();
    audit_jobs(outcome, tasks, &mut issues);
    if let Some(trace) = outcome.trace.as_ref() {
        audit_trace(outcome, trace, processor, &mut issues);
        audit_energy(outcome, trace, processor, &mut issues);
    }
    ValidationReport {
        issues,
        jobs_checked: outcome.jobs.len(),
    }
}

/// Checks 1 and 2 of [`validate_outcome`]: deadlines and the release
/// pattern.
fn audit_jobs(outcome: &SimOutcome, tasks: &TaskSet, issues: &mut Vec<Issue>) {
    let horizon = outcome.horizon;
    for r in &outcome.jobs {
        if r.missed(horizon) {
            issues.push(Issue::DeadlineMiss {
                job: r.id,
                completed: r.completion.unwrap_or(horizon),
                deadline: r.deadline,
            });
        }
    }

    let expected: usize = tasks
        .iter()
        .map(|(_, t)| {
            if t.phase() >= horizon {
                0
            } else {
                ((horizon - t.phase() - 1e-12) / t.period()).floor() as usize + 1
            }
        })
        .sum();
    if expected != outcome.jobs.len() {
        issues.push(Issue::WrongJobCount {
            expected,
            found: outcome.jobs.len(),
        });
    }
}

/// Reports a segment that runs at a speed `processor` does not offer.
fn audit_speed(seg: &Segment, processor: &Processor, issues: &mut Vec<Issue>) {
    let granted = processor.quantize_up(seg.speed);
    if (granted.ratio() - seg.speed.ratio()).abs() > 1e-12
        || seg.speed.ratio() > 1.0 + 1e-12
        || seg.speed.ratio() < processor.min_speed().ratio() - 1e-9
    {
        issues.push(Issue::UnavailableSpeed {
            at: seg.start,
            speed: seg.speed.ratio(),
        });
    }
}

/// Check 3 of [`validate_outcome`], in one pass over the segments.
///
/// `by_id` holds `(id, position)` for every record, sorted; a segment's
/// record is the lowest position with its id (the first match of a linear
/// scan), and its traced work and wall time accumulate in trace order into
/// the slot of that first sorted entry. Every record with a given id
/// therefore reads the same sums, bit for bit those of filtering the trace
/// by id and summing — duplicated, missing and unsorted records included.
fn audit_trace(
    outcome: &SimOutcome,
    trace: &Trace,
    processor: &Processor,
    issues: &mut Vec<Issue>,
) {
    let jobs = &outcome.jobs;
    let horizon = outcome.horizon;
    let mut by_id: Vec<(JobId, usize)> = jobs.iter().map(|r| r.id).zip(0..).collect();
    by_id.sort_unstable();
    let slot_of = |job: JobId| {
        let k = by_id.partition_point(|&(id, _)| id < job);
        by_id.get(k).filter(|&&(id, _)| id == job).map(|_| k)
    };
    // `-0.0` is the neutral element `Iterator::sum` starts from.
    let mut work = vec![-0.0; jobs.len()];
    let mut wall = vec![-0.0; jobs.len()];

    let mut cursor = 0.0;
    for seg in trace.segments() {
        if (seg.start - cursor).abs() > TOL || seg.end < seg.start - TOL {
            issues.push(Issue::BrokenTimeline { at: seg.start });
        }
        cursor = seg.end;
        if let SegmentKind::Execute { job } = seg.kind {
            audit_speed(seg, processor, issues);
            if let Some(k) = slot_of(job) {
                let rec = &jobs[by_id[k].1];
                let inside = seg.start >= rec.release - TOL
                    && (seg.end <= rec.deadline + TOL || rec.missed(horizon));
                if !inside {
                    issues.push(Issue::ExecutionOutsideWindow { job, at: seg.start });
                }
                work[k] += seg.duration() * seg.speed.ratio();
                wall[k] += seg.duration();
            }
        }
    }
    if (cursor - horizon).abs() > TOL {
        issues.push(Issue::BrokenTimeline { at: cursor });
    }

    for r in jobs {
        let Some(k) = slot_of(r.id) else { continue };
        audit_job_sums(r, work[k], wall[k], issues);
    }
}

/// Work conservation and wall-time agreement of one record, given the
/// work and wall time the trace shows for its id.
fn audit_job_sums(r: &JobRecord, traced: f64, traced_wall: f64, issues: &mut Vec<Issue>) {
    if r.completion.is_some() {
        if (traced - r.actual).abs() > TOL.max(r.actual * 1e-6) {
            issues.push(Issue::WorkMismatch {
                job: r.id,
                traced,
                actual: r.actual,
            });
        }
        if (traced_wall - r.wall_time).abs() > TOL.max(r.wall_time * 1e-6) {
            issues.push(Issue::WallTimeMismatch {
                job: r.id,
                traced: traced_wall,
                reported: r.wall_time,
            });
        }
    } else if traced > r.actual + TOL || traced > r.wcet + TOL {
        // A job cut off by the horizon can have executed at most its
        // actual demand (which is itself at most its worst case).
        issues.push(Issue::WorkMismatch {
            job: r.id,
            traced,
            actual: r.actual,
        });
    }
}

/// Check 4 of [`validate_outcome`]: the energy bill recomputed from the
/// trace against the simulator's accounting.
fn audit_energy(
    outcome: &SimOutcome,
    trace: &Trace,
    processor: &Processor,
    issues: &mut Vec<Issue>,
) {
    let (recomputed, switches) = recompute_energy(trace, processor);
    let checks = [
        ("active", recomputed.active, outcome.energy.active),
        ("idle", recomputed.idle, outcome.energy.idle),
        (
            "transition",
            recomputed.transition,
            outcome.energy.transition,
        ),
        ("switches", switches as f64, outcome.switches as f64),
    ];
    for (component, got, reported) in checks {
        let tol = TOL.max(reported.abs() * 1e-6);
        if (got - reported).abs() > tol {
            issues.push(Issue::EnergyMismatch {
                component: component.to_string(),
                recomputed: got,
                reported,
            });
        }
    }
}

/// Recomputes the energy bill of a trace from first principles: active and
/// idle energy by integrating the power model over the segments, transition
/// energy and switch count by diffing the speeds of adjacent segments
/// (starting from the platform's initial full speed). Returns the breakdown
/// and the switch count.
pub fn recompute_energy(
    trace: &Trace,
    processor: &Processor,
) -> (stadvs_power::EnergyBreakdown, u64) {
    use stadvs_power::Speed;
    let power = processor.power_model();
    let overhead = processor.overhead();
    let mut breakdown = stadvs_power::EnergyBreakdown::default();
    let mut switches = 0u64;
    let mut current = Speed::FULL;
    for seg in trace.segments() {
        if !seg.speed.same_point(current) {
            breakdown.transition += overhead.energy(current, seg.speed);
            switches += 1;
            current = seg.speed;
        }
        match seg.kind {
            SegmentKind::Execute { .. } => {
                breakdown.active += power.active_energy(seg.speed, seg.duration());
            }
            SegmentKind::Idle => {
                breakdown.idle += power.idle_energy(seg.duration());
            }
            SegmentKind::Transition => {}
        }
    }
    (breakdown, switches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stadvs_power::Speed;
    use stadvs_sim::{
        ActiveJob, ConstantRatio, Governor, SchedulerView, SimConfig, Simulator, Task,
    };

    struct FullSpeed;
    impl Governor for FullSpeed {
        fn name(&self) -> &str {
            "full"
        }
        fn select_speed(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
            Speed::FULL
        }
    }

    struct TooSlow;
    impl Governor for TooSlow {
        fn name(&self) -> &str {
            "slow"
        }
        fn select_speed(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
            Speed::new(0.2).unwrap()
        }
    }

    fn setup() -> (TaskSet, Processor) {
        let tasks = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(2.0, 8.0).unwrap(),
        ])
        .unwrap();
        (tasks, Processor::ideal_continuous())
    }

    #[test]
    fn clean_run_validates() {
        let (tasks, cpu) = setup();
        let sim = Simulator::new(
            tasks.clone(),
            cpu.clone(),
            SimConfig::new(32.0).unwrap().with_trace(true),
        )
        .unwrap();
        let out = sim.run(&mut FullSpeed, &ConstantRatio::new(0.6)).unwrap();
        let report = validate_outcome(&out, &tasks, &cpu);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.jobs_checked, 12);
        assert!(report.to_string().contains("clean"));
    }

    #[test]
    fn misses_are_reported() {
        let (tasks, cpu) = setup();
        let sim = Simulator::new(
            tasks.clone(),
            cpu.clone(),
            SimConfig::new(32.0).unwrap().with_trace(true),
        )
        .unwrap();
        let out = sim.run(&mut TooSlow, &ConstantRatio::new(1.0)).unwrap();
        let report = validate_outcome(&out, &tasks, &cpu);
        assert!(!report.is_clean());
        assert!(report.miss_count() > 0);
        assert_eq!(report.miss_count(), out.miss_count());
    }

    #[test]
    fn tampered_job_count_is_detected() {
        let (tasks, cpu) = setup();
        let sim =
            Simulator::new(tasks.clone(), cpu.clone(), SimConfig::new(32.0).unwrap()).unwrap();
        let mut out = sim.run(&mut FullSpeed, &ConstantRatio::new(0.6)).unwrap();
        out.jobs.pop();
        let report = validate_outcome(&out, &tasks, &cpu);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, Issue::WrongJobCount { .. })));
    }

    #[test]
    fn tampered_actual_breaks_work_conservation() {
        let (tasks, cpu) = setup();
        let sim = Simulator::new(
            tasks.clone(),
            cpu.clone(),
            SimConfig::new(32.0).unwrap().with_trace(true),
        )
        .unwrap();
        let mut out = sim.run(&mut FullSpeed, &ConstantRatio::new(0.6)).unwrap();
        out.jobs[0].actual *= 2.0;
        let report = validate_outcome(&out, &tasks, &cpu);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, Issue::WorkMismatch { .. })));
    }

    #[test]
    fn tampered_wall_time_is_detected() {
        let (tasks, cpu) = setup();
        let sim = Simulator::new(
            tasks.clone(),
            cpu.clone(),
            SimConfig::new(32.0).unwrap().with_trace(true),
        )
        .unwrap();
        let mut out = sim.run(&mut FullSpeed, &ConstantRatio::new(0.6)).unwrap();
        out.jobs[0].wall_time *= 2.0;
        let report = validate_outcome(&out, &tasks, &cpu);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, Issue::WallTimeMismatch { .. })));
    }

    #[test]
    fn discrete_platform_speed_audit() {
        // Run a continuous-speed trace against a discrete platform: the
        // 0.6-speed segments are not operating points of a 2-level platform.
        let (tasks, cpu) = setup();
        let sim = Simulator::new(
            tasks.clone(),
            cpu,
            SimConfig::new(16.0).unwrap().with_trace(true),
        )
        .unwrap();
        struct Fixed;
        impl Governor for Fixed {
            fn name(&self) -> &str {
                "fixed-0.6"
            }
            fn select_speed(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
                Speed::new(0.6).unwrap()
            }
        }
        let out = sim.run(&mut Fixed, &ConstantRatio::new(1.0)).unwrap();
        let two_level = stadvs_power::Processor::uniform_discrete(2).unwrap();
        let report = validate_outcome(&out, &tasks, &two_level);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, Issue::UnavailableSpeed { .. })));
    }

    /// The audit as it was before the id index: check 3 with a linear
    /// `find` per segment and two whole-trace scans per record. Kept only
    /// as the reference the one-pass audit must reproduce.
    fn reference_validate(
        outcome: &SimOutcome,
        tasks: &TaskSet,
        processor: &Processor,
    ) -> ValidationReport {
        let mut issues = Vec::new();
        audit_jobs(outcome, tasks, &mut issues);
        if let Some(trace) = outcome.trace.as_ref() {
            let horizon = outcome.horizon;
            let mut cursor = 0.0;
            for seg in trace.segments() {
                if (seg.start - cursor).abs() > TOL || seg.end < seg.start - TOL {
                    issues.push(Issue::BrokenTimeline { at: seg.start });
                }
                cursor = seg.end;
                if let SegmentKind::Execute { job } = seg.kind {
                    audit_speed(seg, processor, &mut issues);
                    if let Some(rec) = outcome.jobs.iter().find(|r| r.id == job) {
                        let inside = seg.start >= rec.release - TOL
                            && (seg.end <= rec.deadline + TOL || rec.missed(horizon));
                        if !inside {
                            issues.push(Issue::ExecutionOutsideWindow { job, at: seg.start });
                        }
                    }
                }
            }
            if (cursor - horizon).abs() > TOL {
                issues.push(Issue::BrokenTimeline { at: cursor });
            }
            for r in &outcome.jobs {
                let traced = trace.work_executed_for(r.id);
                let traced_wall: f64 = trace
                    .segments()
                    .iter()
                    .filter(|s| matches!(s.kind, SegmentKind::Execute { job } if job == r.id))
                    .map(|s| s.duration())
                    .sum();
                audit_job_sums(r, traced, traced_wall, &mut issues);
            }
            audit_energy(outcome, trace, processor, &mut issues);
        }
        ValidationReport {
            issues,
            jobs_checked: outcome.jobs.len(),
        }
    }

    #[test]
    fn one_pass_audit_matches_the_reference() {
        use stadvs_baselines::{CcEdf, NoDvs};
        use stadvs_core::SlackEdf;
        use stadvs_sim::rng::{cases, Rng};
        use stadvs_sim::{FaultPlan, MissPolicy};
        use stadvs_workload::{DemandPattern, ExecutionModel, TaskSetSpec};

        let cpu = Processor::ideal_continuous();
        let (mut cut_off, mut flagged) = (0usize, 0usize);
        for case in 0..cases(64) {
            let mut rng = Rng::new(case);
            let tasks = TaskSetSpec::new(rng.usize_in(2..7), rng.f64_in(0.3..1.0))
                .and_then(|spec| spec.with_seed(rng.next_u64()).generate())
                .unwrap_or_else(|e| panic!("case seed {case}: {e}"));
            let exec = ExecutionModel::new(DemandPattern::Uniform { min: 0.1, max: 1.0 })
                .expect("valid pattern")
                .with_seed(rng.next_u64());
            // Odd cases overrun their budgets, so jobs miss and pile up
            // unfinished at the horizon.
            let plan = if case % 2 == 1 {
                FaultPlan::new(case)
                    .with_overrun(0.4, 1.8)
                    .expect("valid overrun")
            } else {
                FaultPlan::NONE
            };
            let config = SimConfig::new(rng.f64_in(0.5..4.0))
                .expect("valid horizon")
                .with_trace(true)
                .with_miss_policy(MissPolicy::Record);
            let sim = Simulator::new(tasks.clone(), cpu.clone(), config)
                .unwrap_or_else(|e| panic!("case seed {case}: {e}"));
            let governors: [Box<dyn Governor>; 3] = [
                Box::new(NoDvs::new()),
                Box::new(CcEdf::new()),
                Box::new(SlackEdf::new()),
            ];
            for mut governor in governors {
                let out = sim
                    .run_faulted(governor.as_mut(), &exec, &plan)
                    .unwrap_or_else(|e| panic!("case seed {case}: {e}"));
                cut_off += out.jobs.iter().filter(|r| r.completion.is_none()).count();

                let mut reversed = out.clone();
                reversed.jobs.reverse();
                // A dropped record leaves its segments without a record.
                let mut dropped = out.clone();
                dropped.jobs.remove(rng.usize_in(0..out.jobs.len()));
                // A perturbed duplicate: which copy a segment's window is
                // read from now depends on record order.
                let mut duplicated = out.clone();
                let mut copy = out.jobs[rng.usize_in(0..out.jobs.len())].clone();
                copy.release += rng.f64_in(0.0..1.0);
                copy.actual *= 1.5;
                duplicated
                    .jobs
                    .insert(rng.usize_in(0..out.jobs.len() + 1), copy);

                let variants = [
                    ("as simulated", out),
                    ("reversed", reversed),
                    ("dropped", dropped),
                    ("duplicated", duplicated),
                ];
                for (label, outcome) in &variants {
                    let fast = validate_outcome(outcome, &tasks, &cpu);
                    let reference = reference_validate(outcome, &tasks, &cpu);
                    // Debug prints each float exactly, so this is bitwise.
                    assert_eq!(
                        format!("{fast:?}"),
                        format!("{reference:?}"),
                        "case seed {case}, {}, {label}",
                        governor.name()
                    );
                    flagged += usize::from(!fast.is_clean());
                }
            }
        }
        assert!(cut_off > 0, "no job was cut off at the horizon");
        assert!(flagged > 0, "no variant raised an issue");
    }

    #[test]
    fn issue_display_nonempty() {
        let issues = [
            Issue::BrokenTimeline { at: 1.0 },
            Issue::WrongJobCount {
                expected: 3,
                found: 2,
            },
        ];
        for i in issues {
            assert!(!i.to_string().is_empty());
        }
    }
}

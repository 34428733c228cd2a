//! The platform differential harness: the multiprocessor engine against
//! the uniprocessor engine it generalizes.
//!
//! Two facts pin [`PlatformSim`] to the existing single-core semantics:
//!
//! 1. **One core is the identity.** A 1-core `PlatformSim` (original task
//!    order, same config) must reproduce the legacy [`Simulator`]
//!    *bit-for-bit* — energy breakdown, switch/event counts, every job
//!    record, every trace segment, and the miss set — across the golden
//!    corpus parameters (3 seeds × 3 governors). Any divergence means the
//!    platform layer changed simulation semantics, not just arity.
//! 2. **Many cores keep the hard guarantee.** Partitioned union workloads
//!    on 4 cores run under [`MissPolicy::Fail`] with one fresh governor
//!    per core, and every core's outcome must pass the fault-aware audit
//!    referee ([`PlatformSim::audit`]) — for both partitioners, with the
//!    per-core demand streams routed through the partition's id
//!    translation.
//! 3. **Each core runs as if alone.** Partitioned cores share no state,
//!    so interleaving their wakes on one kernel must leave every core's
//!    outcome bit-identical to a standalone [`Simulator`] run of that
//!    core's task set, demand stream and fault plan — with an idle core
//!    in the middle of the platform shifting the later cores' kernel ids.

use stadvs::experiments::{make_governor, WorkloadCase};
use stadvs::power::{Platform, Processor};
use stadvs::sim::{
    FaultPlan, MissPolicy, PlatformScratch, PlatformSim, SimConfig, SimOutcome, SimScratch,
    Simulator,
};
use stadvs::workload::{partitioner_by_name, DemandPattern};

/// The golden-trace corpus parameters (see
/// `crates/experiments/tests/golden_trace.rs`): the trivial, the
/// baseline-reclaiming, and the full slack-analysis scheduling paths.
const SEEDS: [u64; 3] = [11, 23, 47];
const GOVERNORS: [&str; 3] = ["no-dvs", "cc-edf", "st-edf"];
const N_TASKS: usize = 6;
const UTILIZATION: f64 = 0.75;
const HORIZON: f64 = 4.0;

/// The identity of every missed job, sorted.
fn miss_set(out: &SimOutcome) -> Vec<(usize, u64)> {
    let mut set: Vec<(usize, u64)> = out
        .jobs
        .iter()
        .filter(|j| j.missed(out.horizon))
        .map(|j| (j.id.task.0, j.id.index))
        .collect();
    set.sort_unstable();
    set
}

#[test]
fn one_core_platform_is_bit_identical_to_the_legacy_simulator() {
    for seed in SEEDS {
        let case = WorkloadCase::synthetic(
            N_TASKS,
            UTILIZATION,
            DemandPattern::Uniform { min: 0.3, max: 1.0 },
            seed,
        );
        let config = SimConfig::default()
            .with_horizon(HORIZON)
            .expect("valid horizon")
            .with_trace(true);
        let legacy_sim = Simulator::new(
            case.tasks.clone(),
            Processor::ideal_continuous(),
            config.clone(),
        )
        .expect("corpus task sets are feasible");
        let platform_sim =
            PlatformSim::uniprocessor(case.tasks.clone(), Processor::ideal_continuous(), config)
                .expect("same feasibility check as the legacy engine");
        for name in GOVERNORS {
            let mut governor = make_governor(name).expect("corpus governor exists");
            let legacy = legacy_sim
                .run(governor.as_mut(), &case.exec)
                .expect("legacy run succeeds");
            let platform = platform_sim
                .run(
                    |_| make_governor(name).expect("corpus governor exists"),
                    &case.exec,
                )
                .expect("platform run succeeds");
            assert_eq!(platform.cores.len(), 1);
            // The acceptance triple, by name, for readable failures …
            assert_eq!(
                platform.cores[0].energy, legacy.energy,
                "{name}/{seed}: energy diverged"
            );
            assert_eq!(
                miss_set(&platform.cores[0]),
                miss_set(&legacy),
                "{name}/{seed}: miss set diverged"
            );
            assert_eq!(
                platform.cores[0].trace, legacy.trace,
                "{name}/{seed}: trace diverged"
            );
            // … and the full-outcome equality that subsumes it (job
            // records, switches, event counts, preemptions, …).
            assert_eq!(platform.cores[0], legacy, "{name}/{seed}: outcome diverged");
            // Platform-level aggregates collapse to the single core.
            assert_eq!(platform.total_energy(), legacy.energy.total());
            assert_eq!(platform.switches(), legacy.switches);
            assert_eq!(platform.miss_count(), legacy.miss_count());
        }
    }
}

#[test]
fn multi_core_partitions_keep_the_hard_guarantee() {
    const CORES: usize = 4;
    for partitioner_name in ["ffd", "wfd"] {
        let partitioner = partitioner_by_name(partitioner_name).expect("registered");
        for seed in SEEDS {
            let case = WorkloadCase::synthetic_union(
                CORES,
                N_TASKS,
                0.5,
                DemandPattern::Uniform { min: 0.3, max: 1.0 },
                seed,
            );
            let report = partitioner
                .partition(&case.tasks, CORES)
                .expect("positive core count");
            assert!(
                report.admitted(),
                "{partitioner_name}/{seed}: rejected a task at U = 0.5/core"
            );
            let assignments: Vec<_> = (0..CORES)
                .map(|c| report.core_task_set(&case.tasks, c))
                .collect();
            let sim = PlatformSim::new(
                Platform::homogeneous(CORES, Processor::ideal_continuous())
                    .expect("positive core count"),
                assignments,
                SimConfig::default()
                    .with_horizon(HORIZON)
                    .expect("valid horizon")
                    .with_miss_policy(MissPolicy::Fail),
            )
            .expect("admitted partitions are per-core feasible");
            let execs: Vec<_> = (0..CORES)
                .map(|c| report.core_demand(&case.exec, c))
                .collect();
            for name in GOVERNORS {
                let outcome = sim
                    .run_faulted_with_scratch(
                        |_| make_governor(name).expect("corpus governor exists"),
                        &execs,
                        &FaultPlan::NONE,
                        &mut PlatformScratch::new(),
                    )
                    .unwrap_or_else(|e| {
                        panic!("{partitioner_name}/{name}/{seed} violated the hard guarantee: {e}")
                    });
                assert!(outcome.all_deadlines_met());
                // The per-core audit referee: exact periodic releases, no
                // overruns, no unattributed misses, on every core.
                let reports = sim
                    .audit(&outcome, &FaultPlan::NONE)
                    .expect("outcome matches the platform");
                assert_eq!(reports.len(), CORES);
                for (core, audit) in reports.iter().enumerate() {
                    assert!(
                        audit.is_clean(),
                        "{partitioner_name}/{name}/{seed} core {core} failed the audit: {audit}"
                    );
                }
            }
        }
    }
}

#[test]
fn each_core_of_a_partitioned_platform_matches_a_standalone_run() {
    const PARTITION_CORES: usize = 4;
    /// The platform core left idle; the partition's cores fill the rest
    /// in order.
    const IDLE: usize = 2;
    const LINEUP: [&str; 5] = ["no-dvs", "cc-edf", "st-edf", "la-edf", "dra"];
    let config = SimConfig::default()
        .with_horizon(HORIZON)
        .expect("valid horizon")
        .with_trace(true)
        .with_miss_policy(MissPolicy::Record);
    // Cores compared behind the idle one, i.e. with a shifted kernel id.
    let mut shifted = 0usize;
    for partitioner_name in ["ffd", "wfd"] {
        let partitioner = partitioner_by_name(partitioner_name).expect("registered");
        for seed in SEEDS {
            let case = WorkloadCase::synthetic_union(
                PARTITION_CORES,
                N_TASKS,
                0.5,
                DemandPattern::Uniform { min: 0.3, max: 1.0 },
                seed,
            );
            let report = partitioner
                .partition(&case.tasks, PARTITION_CORES)
                .expect("positive core count");
            let mut assignments: Vec<_> = (0..PARTITION_CORES)
                .map(|c| report.core_task_set(&case.tasks, c))
                .collect();
            assignments.insert(IDLE, None);
            let mut execs: Vec<_> = (0..PARTITION_CORES)
                .map(|c| report.core_demand(&case.exec, c))
                .collect();
            // Never queried: the idle core runs nothing.
            execs.insert(IDLE, execs[0].clone());
            let sim = PlatformSim::new(
                Platform::homogeneous(PARTITION_CORES + 1, Processor::ideal_continuous())
                    .expect("positive core count"),
                assignments,
                config.clone(),
            )
            .expect("partitions are per-core feasible");
            let plans = [
                ("none", FaultPlan::NONE),
                (
                    "overrun+jitter",
                    FaultPlan::new(seed)
                        .with_overrun(0.25, 1.4)
                        .expect("valid overrun parameters")
                        .with_release_jitter(0.3, 0.15)
                        .expect("valid jitter parameters"),
                ),
            ];
            for (plan_name, plan) in &plans {
                for name in LINEUP {
                    let label = format!("{partitioner_name}/{seed}/{plan_name}/{name}");
                    let outcome = sim
                        .run_faulted_with_scratch(
                            |_| make_governor(name).expect("lineup governor exists"),
                            &execs,
                            plan,
                            &mut PlatformScratch::new(),
                        )
                        .unwrap_or_else(|e| panic!("{label}: platform run failed: {e}"));
                    for (core, exec) in execs.iter().enumerate() {
                        let Some(tasks) = sim.core_tasks(core) else {
                            continue;
                        };
                        let alone = Simulator::new(
                            tasks.clone(),
                            Processor::ideal_continuous(),
                            config.clone(),
                        )
                        .expect("same feasibility check as the platform")
                        .run_faulted_with_scratch(
                            make_governor(name)
                                .expect("lineup governor exists")
                                .as_mut(),
                            exec,
                            plan,
                            &mut SimScratch::new(),
                        )
                        .unwrap_or_else(|e| panic!("{label}: core {core} alone failed: {e}"));
                        assert_eq!(
                            outcome.cores[core], alone,
                            "{label}: core {core} diverged from its standalone run"
                        );
                        shifted += usize::from(core > IDLE);
                    }
                }
            }
        }
    }
    assert!(shifted > 0, "no core ran behind the idle one");
}

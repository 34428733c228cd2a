//! Differential pinning of the simulation kernel facade.
//!
//! [`Simulator::run_faulted_with_scratch`] is a thin facade over the
//! wake-only kernel: the legacy scheduler loop, re-expressed as a
//! `CoreEngine` component woken by self-scheduled events. Its contract is
//! that the kernel is **unobservable** — the whole outcome (job records,
//! full traces, energy bits, switch and event counts, fault and model
//! reports) must be bit-identical to the kernel-less oracle drive
//! (`Simulator::run_faulted_direct`), which steps the very same engine in
//! a bare loop.
//!
//! The matrix crosses seeds × the full capable lineup × {fault-free,
//! overrun + release jitter, mixed task models}: jitter moves releases
//! off the periodic lattice, overruns exercise the fault/recovery paths,
//! and the mixed model mix drives (m,k) skips, sporadic gaps, and frame
//! boosts through the kernel-driven engine.
//!
//! A second harness pins the kernel's determinism contract directly: the
//! delivery order of a fixed event set is invariant to the order in which
//! components hand their events to the queue (the `(time, seq, source)`
//! key is a total order, so heap insertion order is unobservable).

use stadvs_experiments::{
    capable_lineup, jitter_safe_lineup, make_governor, required_caps, WorkloadCase, STANDARD_LINEUP,
};
use stadvs_power::Processor;
use stadvs_sim::rng::{cases, Rng};
use stadvs_sim::{
    ComponentCtx, ComponentId, EventHandler, EventKind, FaultPlan, Kernel, SimConfig, SimError,
    SimEvent, SimScratch, Simulator, TaskSet,
};
use stadvs_workload::{DemandPattern, ExecutionModel, ModelMix, TaskSetSpec};

/// Builds the shared test configuration: traces on, so the comparison
/// covers every segment the run produced, not just the aggregates.
fn config(horizon: f64) -> SimConfig {
    SimConfig::new(horizon)
        .expect("test horizon is valid")
        .with_trace(true)
}

/// Runs one (task set, exec, governor, plan) case through both drive
/// paths with fresh governors and scratches, and asserts bit-identity of
/// the whole outcome.
fn assert_facade_matches_direct(
    label: &str,
    tasks: &TaskSet,
    exec: &ExecutionModel,
    name: &str,
    horizon: f64,
    plan: &FaultPlan,
) {
    let sim = Simulator::new(
        tasks.clone(),
        Processor::ideal_continuous(),
        config(horizon),
    )
    .expect("test task sets are feasible");
    let mut facade_gov = make_governor(name).expect("lineup names resolve");
    let facade = sim
        .run_faulted_with_scratch(facade_gov.as_mut(), exec, plan, &mut SimScratch::new())
        .expect("facade run succeeds");
    let mut direct_gov = make_governor(name).expect("lineup names resolve");
    let direct = sim
        .run_faulted_direct(direct_gov.as_mut(), exec, plan, &mut SimScratch::new())
        .expect("direct run succeeds");

    // Bit-identical: job records, trace segments, energy bits, switches,
    // event counts, fault and model reports.
    assert_eq!(
        facade, direct,
        "{label}/{name}: facade diverged from the direct oracle"
    );
}

/// The fault-plan axis: fault-free and overrun + release jitter combined
/// (both fault event paths live in the same run).
fn fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::NONE),
        (
            "overrun+jitter",
            FaultPlan::new(seed)
                .with_overrun(0.25, 1.4)
                .expect("valid overrun parameters")
                .with_release_jitter(0.3, 0.15)
                .expect("valid jitter parameters"),
        ),
    ]
}

#[test]
fn facade_matches_direct_oracle_across_seeds_lineup_and_faults() {
    let mut cases = 0usize;
    for seed in [11u64, 23, 47] {
        let case =
            WorkloadCase::synthetic(6, 0.75, DemandPattern::Uniform { min: 0.3, max: 1.0 }, seed);
        for (plan_name, plan) in fault_plans(seed ^ 0xFACADE) {
            // Jitter is delay-only; governors that cannot absorb it are
            // excluded exactly as the experiment runner excludes them.
            for name in jitter_safe_lineup(STANDARD_LINEUP, &plan) {
                let label = format!("seed {seed}/{plan_name}");
                assert_facade_matches_direct(&label, &case.tasks, &case.exec, name, 12.0, &plan);
                cases += 1;
            }
        }
    }
    assert!(cases >= 30, "matrix too small: {cases} cases");
}

#[test]
fn facade_matches_direct_oracle_under_mixed_task_models() {
    let mix = ModelMix::new()
        .with_weakly_hard(2, 1, 3)
        .expect("mix literals valid")
        .with_sporadic(2, 0.5)
        .expect("mix literals valid")
        .with_frame(1, 0.5)
        .expect("mix literals valid");
    let mut cases = 0usize;
    for seed in [11u64, 23, 47] {
        let tasks = TaskSetSpec::new(6, 0.6)
            .expect("test parameters are valid")
            .with_model_mix(mix)
            .expect("mix fits the task count")
            .with_seed(seed)
            .generate()
            .expect("generation succeeds");
        let exec = ExecutionModel::new(DemandPattern::Uniform { min: 0.2, max: 1.0 })
            .expect("test pattern is valid")
            .with_seed(seed ^ 0x5EED);
        for name in capable_lineup(STANDARD_LINEUP, required_caps(&tasks)) {
            let label = format!("seed {seed}/mixed-models");
            assert_facade_matches_direct(&label, &tasks, &exec, name, 12.0, &FaultPlan::NONE);
            cases += 1;
        }
    }
    assert!(cases >= 15, "matrix too small: {cases} cases");
}

// ---------------------------------------------------------------------
// Kernel ordering invariance
// ---------------------------------------------------------------------

/// Probe component: records `(global delivery index, time bits, source)`
/// for every event delivered to it.
#[derive(Default)]
struct Probe {
    seen: Vec<(u64, u64, usize)>,
}

impl EventHandler for Probe {
    fn handle(&mut self, event: SimEvent, ctx: &mut ComponentCtx<'_>) -> Result<(), SimError> {
        self.seen
            .push((ctx.delivered(), event.time.to_bits(), event.source.0));
        Ok(())
    }
}

/// Replays `events` into a fresh kernel in the given interleaving and
/// returns the global delivery sequence as `(time bits, source)` pairs.
fn delivery_sequence(components: usize, events: &[SimEvent]) -> Vec<(u64, usize)> {
    let mut kernel = Kernel::new();
    kernel.reset(components, None);
    for &event in events {
        kernel.schedule(event);
    }
    let mut probes: Vec<Probe> = (0..components).map(|_| Probe::default()).collect();
    {
        let mut handlers: Vec<&mut dyn EventHandler> = probes
            .iter_mut()
            .map(|p| p as &mut dyn EventHandler)
            .collect();
        kernel
            .run(&mut handlers)
            .expect("probe handlers never fail");
    }
    let mut merged: Vec<(u64, u64, usize)> = probes.into_iter().flat_map(|p| p.seen).collect();
    merged.sort_unstable();
    merged
        .into_iter()
        .map(|(_, time, source)| (time, source))
        .collect()
}

/// The reference model the queue's total order is defined against: stamp
/// each event with its per-source sequence number in registration order,
/// then sort by the unique `(time bits, seq, source)` key — the order the
/// kernel's heap must reproduce.
fn model_sequence(components: usize, events: &[SimEvent]) -> Vec<(u64, usize)> {
    let mut seqs = vec![0u64; components];
    let mut keyed: Vec<([u64; 3], SimEvent)> = events
        .iter()
        .map(|&event| {
            let seq = seqs[event.source.0];
            seqs[event.source.0] += 1;
            ([event.time.to_bits(), seq, event.source.0 as u64], event)
        })
        .collect();
    keyed.sort_unstable_by_key(|a| a.0);
    keyed
        .into_iter()
        .map(|(_, event)| (event.time.to_bits(), event.source.0))
        .collect()
}

/// A seeded round-robin interleaving of per-source event lists that
/// preserves each source's own emission order (the per-source seq stamp
/// makes that order part of the contract).
fn interleave(mut per_source: Vec<Vec<SimEvent>>, rng: &mut Rng) -> Vec<SimEvent> {
    let components = per_source.len();
    let mut schedule = Vec::new();
    while per_source.iter().any(|q| !q.is_empty()) {
        let pick = rng.usize_in(0..components);
        for offset in 0..components {
            let source = (pick + offset) % components;
            if !per_source[source].is_empty() {
                schedule.push(per_source[source].remove(0));
                break;
            }
        }
    }
    schedule
}

/// `2..5` components, each emitting `1..max_events` events on the time
/// grid `0..grid` (in units of the caller's step).
fn random_times(rng: &mut Rng, max_events: usize, grid: u64) -> Vec<Vec<u64>> {
    (0..rng.usize_in(2..5))
        .map(|_| {
            (0..rng.usize_in(1..max_events))
                .map(|_| rng.u64_in(0..grid))
                .collect()
        })
        .collect()
}

/// Each component's events at `times[source] × step`, targeting the next
/// component.
fn events(times: &[Vec<u64>], step: f64) -> Vec<Vec<SimEvent>> {
    let components = times.len();
    times
        .iter()
        .enumerate()
        .map(|(source, times)| {
            times
                .iter()
                .map(|&t| SimEvent {
                    time: t as f64 * step,
                    kind: EventKind::Dispatch,
                    source: ComponentId(source),
                    target: ComponentId((source + 1) % components),
                })
                .collect()
        })
        .collect()
}

#[test]
fn pop_order_matches_sort_model_under_wide_spread() {
    // 240 distinct pending timestamps, all scheduled before the run, so
    // the queue holds the whole spread at once.
    const COMPONENTS: usize = 4;
    // Distinct across all sources: interleaved lattices.
    let times: Vec<Vec<u64>> = (0..4)
        .map(|source| (0..60).map(|i| i * 4 + source).collect())
        .collect();
    let schedule = interleave(events(&times, 0.125), &mut Rng::new(0x1234_5678_9ABC_DEF1));

    let mut kernel = Kernel::new();
    kernel.reset(COMPONENTS, None);
    for &event in &schedule {
        kernel.schedule(event);
    }
    let mut probes: Vec<Probe> = (0..COMPONENTS).map(|_| Probe::default()).collect();
    {
        let mut handlers: Vec<&mut dyn EventHandler> = probes
            .iter_mut()
            .map(|p| p as &mut dyn EventHandler)
            .collect();
        kernel
            .run(&mut handlers)
            .expect("probe handlers never fail");
    }
    let mut merged: Vec<(u64, u64, usize)> = probes.into_iter().flat_map(|p| p.seen).collect();
    merged.sort_unstable();
    let actual: Vec<(u64, usize)> = merged
        .into_iter()
        .map(|(_, time, source)| (time, source))
        .collect();
    assert_eq!(model_sequence(COMPONENTS, &schedule), actual);
}

// ---------------------------------------------------------------------
// SoA field sync
// ---------------------------------------------------------------------

#[test]
fn soa_job_parameters_match_the_task_structs() {
    // The per-core engine reads task parameters from its SoA hot table,
    // not from the `Task` structs. Every job record a run produces must
    // carry parameters bit-identical to what the struct-of-arrays source
    // of truth derives — any copy-in drift (wrong stride, stale column,
    // reordered tasks) shows up as a bit diff here. Periodic tasks and a
    // fault-free plan keep the nominal lattice exact.
    for seed in [11u64, 23, 47] {
        let case =
            WorkloadCase::synthetic(6, 0.75, DemandPattern::Uniform { min: 0.3, max: 1.0 }, seed);
        let sim = Simulator::new(
            case.tasks.clone(),
            Processor::ideal_continuous(),
            config(12.0),
        )
        .expect("test task sets are feasible");
        let mut governor = make_governor("st-edf").expect("lineup names resolve");
        let outcome = sim
            .run_with_scratch(governor.as_mut(), &case.exec, &mut SimScratch::new())
            .expect("run succeeds");
        assert!(!outcome.jobs.is_empty(), "seed {seed}: no jobs released");
        for record in &outcome.jobs {
            let task = case.tasks.task(record.id.task);
            let expected_release = task.release_of(record.id.index);
            let expected_deadline = task.deadline_of(record.id.index);
            assert_eq!(
                record.release.to_bits(),
                expected_release.to_bits(),
                "seed {seed}/{}: release drifted from the task struct",
                record.id
            );
            assert_eq!(
                record.deadline.to_bits(),
                expected_deadline.to_bits(),
                "seed {seed}/{}: deadline drifted from the task struct",
                record.id
            );
            assert_eq!(
                record.wcet.to_bits(),
                task.wcet().to_bits(),
                "seed {seed}/{}: wcet drifted from the task struct",
                record.id
            );
        }
    }
}

/// Property: the delivery order of a fixed per-component event set is
/// invariant to the interleaving in which components hand their events to
/// the kernel — including heavy time ties, which the coarse time grid
/// makes frequent.
#[test]
fn delivery_order_is_registration_order_invariant() {
    for case in 0..cases(256) {
        let mut rng = Rng::new(case);
        let times = random_times(&mut rng, 8, 4);
        let per_source = events(&times, 0.5);
        // Canonical interleaving: source-major order.
        let canonical: Vec<SimEvent> = per_source.iter().flatten().copied().collect();
        let expected = delivery_sequence(times.len(), &canonical);
        let permuted = interleave(per_source, &mut rng);
        let actual = delivery_sequence(times.len(), &permuted);
        assert_eq!(expected, actual, "case {case}: times {times:?}");
    }
}

/// Property: the kernel's delivery order is bit-identical to the sort
/// model (per-source seq stamping + sort on the `(time bits, seq,
/// source)` key) for arbitrary event sets — from all-ties through wide
/// spreads of distinct times.
#[test]
fn delivery_matches_sort_model() {
    for case in 0..cases(256) {
        let times = random_times(&mut Rng::new(case), 50, 120);
        let schedule: Vec<SimEvent> = events(&times, 0.125).concat();
        let actual = delivery_sequence(times.len(), &schedule);
        assert_eq!(
            model_sequence(times.len(), &schedule),
            actual,
            "case {case}: times {times:?}"
        );
    }
}

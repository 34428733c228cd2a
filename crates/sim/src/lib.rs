//! # stadvs-sim — event-driven preemptive EDF scheduler and DVS simulator
//!
//! The simulation substrate of the `stadvs` reproduction of the DATE 2002
//! paper *"A Dynamic Voltage Scaling Algorithm for Dynamic-Priority Hard
//! Real-Time Systems Using Slack Time Analysis"*.
//!
//! * [`Task`] / [`TaskSet`] — periodic hard real-time tasks (WCET, period,
//!   constrained deadline, phase),
//! * [`ExecutionSource`] — deterministic per-job *actual* execution demand,
//! * [`Governor`] — the plug-in interface every DVS algorithm implements;
//!   it sees a non-clairvoyant [`SchedulerView`] at each scheduling point,
//! * [`Kernel`] — the discrete-event core: a deterministic queue of
//!   engine wake [`SimEvent`]s with a stable `(time, seq, component)`
//!   total order, delivered to pre-registered [`EventHandler`] components,
//! * [`Simulator`] — the preemptive EDF engine (a thin facade over one
//!   kernel-driven core component): releases, dispatches, preempts,
//!   applies speed changes (with optional transition latency and energy),
//!   integrates energy, and records [`JobRecord`]s and an optional
//!   [`Trace`],
//! * [`SimOutcome`] — energy breakdown, deadline audit, switch counts,
//!   fault and task-model reports,
//! * [`PlatformSim`] — N per-core engines under partitioned multiprocessor
//!   EDF composed on one shared kernel (fresh governor, scratch, and
//!   energy account per core; no migration), aggregated into a
//!   [`PlatformOutcome`] — optionally under a shared power cap
//!   ([`BudgetLedger`]).
//!
//! ```
//! use stadvs_power::{Processor, Speed};
//! use stadvs_sim::{ActiveJob, ConstantRatio, Governor, SchedulerView,
//!                  SimConfig, Simulator, Task, TaskSet};
//!
//! /// The classic static-EDF policy: run at the utilization.
//! struct Static;
//! impl Governor for Static {
//!     fn name(&self) -> &str { "static" }
//!     fn select_speed(&mut self, view: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
//!         Speed::clamped(view.utilization(), view.processor().min_speed())
//!     }
//! }
//!
//! # fn main() -> Result<(), stadvs_sim::SimError> {
//! let tasks = TaskSet::new(vec![Task::new(1.0e-3, 4.0e-3)?, Task::new(1.0e-3, 8.0e-3)?])?;
//! let sim = Simulator::new(tasks, Processor::ideal_continuous(), SimConfig::new(1.0)?)?;
//! let out = sim.run(&mut Static, &ConstantRatio::new(0.6))?;
//! assert!(out.all_deadlines_met());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod budget;
mod component;
mod error;
mod event;
mod exec;
mod fault;
mod governor;
mod job;
mod kernel;
mod model;
mod outcome;
mod platform_sim;
mod queue;
mod render;
pub mod rng;
mod simulator;
mod task;
mod trace;

pub use audit::{audit_outcome, AuditIssue, AuditReport, MkWindow};
pub use budget::{BudgetLedger, BudgetReport};
pub use component::{ComponentCtx, EventHandler};
pub use error::SimError;
pub use event::{ComponentId, EventKind, QueueStats, SimEvent};
pub use exec::{ConstantRatio, ExecutionSource, WorstCase};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultReport, OverrunPolicy};
pub use governor::{Governor, SchedulerView};
pub use job::{ActiveJob, JobId, JobRecord};
pub use kernel::{Kernel, SharedState};
pub use model::{ModelReport, SkipPolicy};
pub use outcome::{AnalysisStats, SimOutcome};
pub use platform_sim::{PlatformOutcome, PlatformScratch, PlatformSim};
pub use render::render_gantt;
pub use simulator::{MissPolicy, SimConfig, SimScratch, Simulator, TIME_EPS, WORK_EPS};
pub use task::{Task, TaskId, TaskKind, TaskSet};
pub use trace::{Segment, SegmentKind, Trace};

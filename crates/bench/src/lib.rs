//! # dophy-bench
//!
//! Experiment harness for the Dophy reproduction: regenerates every
//! figure/table of the (reconstructed) evaluation and hosts the criterion
//! microbenchmarks.
//!
//! * [`scenario`] — runs a full simulation and extracts estimates, ground
//!   truth, overhead, churn, and accuracy checkpoints;
//! * [`plan`] — declarative experiments: labelled simulation cells plus a
//!   pure reduce closure;
//! * [`executor`] — shared bounded worker pool with a content-addressed
//!   run cache and per-cell panic isolation, and [`execute_cell`], the one
//!   call that runs a spec;
//! * [`figures`] — one function per experiment (see DESIGN.md's experiment
//!   index); each returns a [`plan::Plan`];
//! * [`report`] — text-table rendering and JSON persistence.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p dophy-bench --bin experiments -- all
//! cargo run --release -p dophy-bench --bin experiments -- fig7 --quick --jobs 4
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod executor;
pub mod figures;
pub mod plan;
pub mod report;
pub mod scenario;
pub mod telemetry;

pub use executor::{
    cache_key, execute_cell, execute_plans, resolve_jobs, HarnessReport, SuiteOutcome,
};
pub use plan::{Cell, CellOutput, CellWork, Plan};
pub use report::{FigureResult, Series};
pub use scenario::{
    run_scenario, run_scenario_with, FaultSummary, Instruments, RunOutput, RunSpec,
};
pub use telemetry::{ProgressMeter, RunTelemetry};

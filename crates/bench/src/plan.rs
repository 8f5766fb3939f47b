//! Declarative experiment plans: the *what* of an experiment, split from
//! the *how* of running it.
//!
//! An experiment used to be an opaque `fn(quick) -> FigureResult` that
//! built specs, ran simulations (sometimes on its own ad-hoc threads), and
//! folded the outputs — all interleaved. A [`Plan`] separates those
//! concerns:
//!
//! * [`Cell`]s name the simulation runs the experiment needs. Each cell is
//!   data — a [`RunSpec`] plus optional [`Instruments`] — so the executor
//!   can schedule every cell of every selected experiment on one shared
//!   bounded worker pool, and content-address identical specs to run them
//!   once (see [`crate::executor`]).
//! * The `reduce` closure is the pure tail of the experiment: it folds the
//!   finished [`RunOutput`]s (in cell order) into a [`FigureResult`] and
//!   touches no global state, so results are identical at any worker
//!   count.
//!
//! Experiments that drive the [`dophy_sim::Engine`] directly mid-run (the
//! tracking and energy studies) don't decompose into `RunSpec` cells;
//! they become a single [`CellWork::Custom`] cell, which still rides the
//! shared pool and panic isolation but bypasses the run cache.

use crate::report::FigureResult;
use crate::scenario::{Instruments, RunOutput, RunSpec};
use std::sync::Arc;

/// The work one cell performs.
pub enum CellWork {
    /// A declarative simulation run: hashable spec, optional instruments.
    /// Cacheable when the instruments are all off (the default).
    Run {
        /// Scenario to execute (boxed: a full config tree is ~500 bytes,
        /// which would otherwise dominate the enum).
        spec: Box<RunSpec>,
        /// Optional observability attached to the run. Instruments never
        /// change results, but an instrumented cell bypasses the run
        /// cache so its observer sees exactly its own run.
        instruments: Instruments,
    },
    /// An imperative experiment body producing its figure directly.
    /// Runs on the pool with panic isolation, but is never cached.
    Custom(Box<dyn FnOnce() -> FigureResult + Send>),
}

/// One schedulable unit of an experiment.
pub struct Cell {
    /// Short label for telemetry (`cap=4`, `sigma=0.02`, ...), unique
    /// within its plan.
    pub label: String,
    /// What the cell does.
    pub work: CellWork,
}

impl Cell {
    /// Uninstrumented (and therefore cacheable) simulation cell.
    pub fn run(label: impl Into<String>, spec: RunSpec) -> Self {
        Self {
            label: label.into(),
            work: CellWork::Run {
                spec: Box::new(spec),
                instruments: Instruments::default(),
            },
        }
    }
}

/// A finished cell's output, as handed to the reduce closure.
pub enum CellOutput {
    /// Output of a [`CellWork::Run`] cell. Shared (`Arc`) because the
    /// content-addressed cache hands the same run to every cell whose
    /// spec hashes equal.
    Run(Arc<RunOutput>),
    /// Output of a [`CellWork::Custom`] cell.
    Figure(FigureResult),
}

/// Pure fold from finished cells (in declaration order) to the figure.
pub type Reduce = Box<dyn FnOnce(Vec<CellOutput>) -> FigureResult + Send>;

/// A declarative experiment: labelled cells plus a pure reduce.
pub struct Plan {
    /// Registry id (`fig7`, `tab3-seeds`, ...).
    pub id: &'static str,
    /// The simulation cells, in the order the reduce will see them.
    pub cells: Vec<Cell>,
    /// Folds the cell outputs into the experiment's figure.
    pub reduce: Reduce,
}

impl Plan {
    /// Plan over simulation cells whose reduce sees the [`RunOutput`]s in
    /// cell order.
    ///
    /// # Panics
    ///
    /// The wrapped reduce panics (failing only this experiment) if any
    /// cell is [`CellWork::Custom`] — mixed plans must use the raw
    /// constructor and match on [`CellOutput`] themselves.
    pub fn new(
        id: &'static str,
        cells: Vec<Cell>,
        reduce: impl FnOnce(Vec<Arc<RunOutput>>) -> FigureResult + Send + 'static,
    ) -> Self {
        Self {
            id,
            cells,
            reduce: Box::new(move |outs| {
                let runs: Vec<Arc<RunOutput>> = outs
                    .into_iter()
                    .map(|o| match o {
                        CellOutput::Run(r) => r,
                        CellOutput::Figure(_) => {
                            panic!("Plan::new reduce expects run cells only")
                        }
                    })
                    .collect();
                reduce(runs)
            }),
        }
    }

    /// Single-run plan: one cell, reduce over its output.
    pub fn single(
        id: &'static str,
        label: impl Into<String>,
        spec: RunSpec,
        reduce: impl FnOnce(&RunOutput) -> FigureResult + Send + 'static,
    ) -> Self {
        Plan::new(id, vec![Cell::run(label, spec)], move |outs| {
            reduce(&outs[0])
        })
    }

    /// Plan wrapping one imperative experiment body (engine-driving
    /// experiments that don't decompose into `RunSpec` cells).
    pub fn custom(
        id: &'static str,
        label: impl Into<String>,
        work: impl FnOnce() -> FigureResult + Send + 'static,
    ) -> Self {
        Self {
            id,
            cells: vec![Cell {
                label: label.into(),
                work: CellWork::Custom(Box::new(work)),
            }],
            reduce: Box::new(|mut outs| match outs.pop() {
                Some(CellOutput::Figure(fig)) => fig,
                _ => panic!("custom plan expects exactly one figure cell"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_plan_reduces_to_its_figure() {
        let plan = Plan::custom("t", "only", || FigureResult::new("t-fig", "T", "x", "y"));
        assert_eq!(plan.id, "t");
        assert_eq!(plan.cells.len(), 1);
        let fig = (plan.reduce)(vec![CellOutput::Figure(FigureResult::new(
            "t-fig", "T", "x", "y",
        ))]);
        assert_eq!(fig.id, "t-fig");
    }

    #[test]
    fn run_cells_are_cacheable_by_default() {
        let spec = RunSpec::new(
            dophy_sim::SimConfig::canonical(1),
            dophy::protocol::DophyConfig::default(),
            dophy_sim::SimDuration::from_secs(60),
        );
        let cell = Cell::run("a", spec);
        match cell.work {
            CellWork::Run { instruments, .. } => {
                assert!(instruments.observer.is_none());
                assert!(instruments.metrics_every.is_none());
                assert!(!instruments.progress);
            }
            CellWork::Custom(_) => panic!("expected a run cell"),
        }
    }
}

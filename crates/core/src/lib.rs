//! # swscc-core — parallel SCC detection for small-world graphs
//!
//! A faithful Rust implementation of *"On Fast Parallel Detection of
//! Strongly Connected Components (SCC) in Small-World Graphs"* (Hong,
//! Rodia, Olukotun — SC'13), including the paper's baseline and both
//! proposed methods, plus three independent sequential oracles.
//!
//! ## Algorithms
//!
//! [`Algorithm`] names nine runs: three sequential oracles and six
//! parallel algorithms, each of which is a stock stage list
//! ([`Pipeline::stock`]) executed by the [`pipeline`] engine.
//!
//! | [`Algorithm`] | Paper | Runs as |
//! |---|---|---|
//! | `Tarjan` | speedup baseline | [`tarjan::tarjan_scc`], sequential |
//! | `Kosaraju` | (test oracle) | [`kosaraju::kosaraju_scc`], sequential |
//! | `Pearce` | (test oracle) | [`pearce::pearce_scc`], sequential |
//! | `FwBw` | FW-BW \[13\], no Trim | `tasks` |
//! | `Coloring` | related work \[8\], \[9\] | `trim,coloring` |
//! | `Baseline` | Alg. 3 | `trim,tasks` |
//! | `Method1` | Alg. 6 | `trim,fwbw,trim,tasks` |
//! | `Method2` | Alg. 9 | `trim,fwbw,trim,trim2,trim,wcc,tasks` |
//! | `Multistep` | Slota et al. (follow-on) | `trim,peel,trim,colortail,serial` |
//!
//! The entry points are [`detect_scc`] and its cancellable form
//! [`run_checked`], taking an [`Algorithm`] and an [`SccConfig`]; they
//! return the component assignment ([`SccResult`]) and a
//! [`instrument::RunReport`] with the per-phase timings/counters behind
//! the paper's Figures 7 and 8 and the §3.3 task log. [`run_pipeline`]
//! runs any legal custom composition (the CLI's `--pipeline` flag) with
//! the same per-phase breakdown.
//!
//! ## Quick start
//!
//! ```
//! use swscc_core::{detect_scc, Algorithm, SccConfig};
//! use swscc_graph::CsrGraph;
//!
//! // two 3-cycles joined by one edge, plus an isolated node
//! let g = CsrGraph::from_edges(
//!     7,
//!     &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)],
//! );
//! let (result, _report) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
//! assert_eq!(result.num_components(), 3); // {0,1,2}, {3,4,5}, {6}
//! assert_eq!(result.largest_component_size(), 3);
//! ```

pub mod config;
mod driver;
pub mod error;
pub mod fwbw;
pub mod incremental;
pub mod instrument;
pub mod kosaraju;
pub mod multireach;
pub mod pearce;
pub mod pipeline;
pub mod result;
pub mod snapshot;
pub mod state;
pub mod tarjan;
pub mod trim;
pub mod trim2;
pub mod wcc;

pub use config::{CompactionPolicy, PanicPolicy, PivotStrategy, SccConfig, WccImpl};
pub use error::{Canceller, RunGuard, SccError};
pub use incremental::{EngineCounters, IncrementalEngine, Mutation, MutationOutcome};
pub use instrument::{RecoveryEvent, RunReport};
pub use pipeline::{run_pipeline, Pipeline, PipelineError, Stage};
pub use result::SccResult;
pub use snapshot::SccSnapshot;

use swscc_graph::CsrGraph;

/// Which SCC implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sequential Tarjan (the paper's "optimal sequential algorithm").
    Tarjan,
    /// Sequential Kosaraju (oracle).
    Kosaraju,
    /// Sequential Pearce (oracle).
    Pearce,
    /// The original FW-BW algorithm (Fleischer et al. \[13\]) with no Trim
    /// step — the pre-paper state of the art, kept for the Trim ablation.
    FwBw,
    /// Orzan's Coloring algorithm (max-label propagation) — the other
    /// classic parallel SCC family, compared against by the paper's
    /// related work (\[8\], \[9\]) and follow-ons.
    Coloring,
    /// Paper Algorithm 3: parallel Trim + recursive FW-BW via work queue.
    Baseline,
    /// Paper Algorithm 6: two-phase parallelization.
    Method1,
    /// Paper Algorithm 9: Method 1 + Trim2 + parallel WCC.
    Method2,
    /// Multistep (Slota et al., IPDPS'14) — the paper's direct follow-on:
    /// Trim → degree-product FW-BW peel → Coloring tail → serial finish.
    /// Implemented as an extension feature.
    Multistep,
}

impl Algorithm {
    /// All algorithms, sequential oracles first.
    pub fn all() -> [Algorithm; 9] {
        [
            Algorithm::Tarjan,
            Algorithm::Kosaraju,
            Algorithm::Pearce,
            Algorithm::FwBw,
            Algorithm::Coloring,
            Algorithm::Baseline,
            Algorithm::Method1,
            Algorithm::Method2,
            Algorithm::Multistep,
        ]
    }

    /// The three parallel methods evaluated in Fig. 6/7.
    pub fn parallel() -> [Algorithm; 3] {
        [Algorithm::Baseline, Algorithm::Method1, Algorithm::Method2]
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Tarjan => "tarjan",
            Algorithm::Kosaraju => "kosaraju",
            Algorithm::Pearce => "pearce",
            Algorithm::FwBw => "fwbw",
            Algorithm::Coloring => "coloring",
            Algorithm::Baseline => "baseline",
            Algorithm::Method1 => "method1",
            Algorithm::Method2 => "method2",
            Algorithm::Multistep => "multistep",
        }
    }

    /// Parses a name as printed by [`Algorithm::name`].
    pub fn from_name(s: &str) -> Option<Algorithm> {
        Algorithm::all().into_iter().find(|a| a.name() == s)
    }
}

/// Runs the selected SCC algorithm on `g` and returns the component
/// assignment plus the instrumentation report: [`run_checked`] under a
/// fresh [`RunGuard`].
///
/// # Panics
///
/// Panics if the run ends in a typed [`SccError`] even without a
/// deadline or a cancel: a worker panic under [`PanicPolicy::Fail`] or a
/// watchdog trip.
pub fn detect_scc(g: &CsrGraph, algo: Algorithm, cfg: &SccConfig) -> (SccResult, RunReport) {
    run_checked(g, algo, cfg, &RunGuard::new())
        .unwrap_or_else(|e| panic!("{} run failed: {e}", algo.name()))
}

/// Fault-tolerant entry point: runs the selected algorithm under `guard`
/// (cooperative cancellation + optional deadline) with panic recovery per
/// [`SccConfig::on_panic`] and watchdog-bounded fixpoint loops.
///
/// The six parallel algorithms run their stock stage list
/// ([`Pipeline::stock`]) through [`run_pipeline`], which polls the guard
/// at stage/round granularity and returns a typed [`SccError`] on abort.
/// The sequential oracles cannot be interrupted mid-run; for those the
/// guard is honoured once at entry.
#[must_use = "dropping the result discards both the SCC partition and the run's error/recovery record"]
pub fn run_checked(
    g: &CsrGraph,
    algo: Algorithm,
    cfg: &SccConfig,
    guard: &RunGuard,
) -> Result<(SccResult, RunReport), SccError> {
    let oracle: fn(&CsrGraph) -> SccResult = match algo {
        Algorithm::Tarjan => tarjan::tarjan_scc,
        Algorithm::Kosaraju => kosaraju::kosaraju_scc,
        Algorithm::Pearce => pearce::pearce_scc,
        _ => {
            let pipeline = Pipeline::stock(algo).expect("every parallel algorithm is stocked");
            return run_pipeline(g, &pipeline, cfg, guard);
        }
    };
    guard.check()?;
    Ok(instrument::timed_sequential(|| oracle(g)))
}

//! Epoch-snapshot payload of the always-on service: one immutable
//! partition plus its condensation DAG, with the query surface the
//! `swscc-serve` daemon answers from.
//!
//! A snapshot is built once per published partition —
//! [`SccSnapshot::from_result`] materializes the condensation of an
//! already-computed [`SccResult`] (the serve daemon publishes through
//! [`crate::IncrementalEngine::snapshot`]) — and is then shared read-only
//! behind an `swscc_sync::epoch::EpochCell`. Nothing in here mutates after
//! construction, so any number of connection handlers can answer
//! queries from one snapshot while a recompute builds the next.
//!
//! Query cost model: [`SccSnapshot::scc_id`] and
//! [`SccSnapshot::same_scc`] are O(1) array reads;
//! [`SccSnapshot::condensation_reach`] is a BFS over the condensation
//! DAG (small-world condensations are tiny — the giant SCC collapses to
//! one node) that polls its guard every level, so a per-request deadline
//! interrupts it mid-walk with a typed [`SccError::DeadlineExceeded`].

use crate::error::{RunGuard, SccError};
use crate::result::SccResult;
use swscc_graph::bfs::Direction;
use swscc_graph::{CsrGraph, GraphView, NodeId};

/// An immutable SCC partition + condensation DAG over one input graph,
/// ready to answer point queries. See the module docs for the role it
/// plays in the serve epoch cycle.
#[derive(Clone, Debug)]
pub struct SccSnapshot {
    result: SccResult,
    condensation: CsrGraph,
    num_nodes: usize,
    num_edges: usize,
}

impl SccSnapshot {
    /// Packages an already-computed partition of `g` with its
    /// condensation.
    pub fn from_result<G: GraphView>(g: &G, result: SccResult) -> SccSnapshot {
        SccSnapshot {
            condensation: result.condensation(g),
            num_nodes: g.num_nodes(),
            num_edges: g.num_edges(),
            result,
        }
    }

    /// The partition.
    pub fn result(&self) -> &SccResult {
        &self.result
    }

    /// The condensation DAG (one node per SCC, inter-SCC edges
    /// deduplicated).
    pub fn condensation(&self) -> &CsrGraph {
        &self.condensation
    }

    /// Node count of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Directed edge count of the underlying graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of SCCs.
    pub fn num_components(&self) -> usize {
        self.result.num_components()
    }

    /// Component id of `u`, or `None` if `u` is out of range — the
    /// serve layer turns that into a typed out-of-range reply instead of
    /// an indexing panic on untrusted input.
    pub fn scc_id(&self, u: NodeId) -> Option<u32> {
        if (u as usize) < self.num_nodes {
            Some(self.result.component(u))
        } else {
            None
        }
    }

    /// Whether `u` and `v` are in the same SCC; `None` if either is out
    /// of range.
    pub fn same_scc(&self, u: NodeId, v: NodeId) -> Option<bool> {
        Some(self.scc_id(u)? == self.scc_id(v)?)
    }

    /// Whether `v` is reachable from `u` in the input graph — answered
    /// on the condensation (u reaches v iff scc(u) reaches scc(v) in the
    /// DAG). `Ok(None)` if either endpoint is out of range. Polls
    /// `guard` once per BFS level, so a request deadline lands as
    /// [`SccError::DeadlineExceeded`] rather than a stuck handler.
    pub fn condensation_reach(
        &self,
        u: NodeId,
        v: NodeId,
        guard: &RunGuard,
    ) -> Result<Option<bool>, SccError> {
        let (Some(from), Some(to)) = (self.scc_id(u), self.scc_id(v)) else {
            return Ok(None);
        };
        if from == to {
            return Ok(Some(true));
        }
        let dag = &self.condensation;
        let mut seen = vec![false; dag.num_nodes()];
        let mut frontier = vec![from];
        seen[from as usize] = true;
        while !frontier.is_empty() {
            guard.check()?;
            let mut next = Vec::new();
            let mut hit = false;
            for &c in &frontier {
                GraphView::for_each_neighbor_while(dag, Direction::Forward, c, |w| {
                    if w == to {
                        hit = true;
                        return false;
                    }
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        next.push(w);
                    }
                    true
                });
                if hit {
                    return Ok(Some(true));
                }
            }
            frontier = next;
        }
        Ok(Some(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_pipeline, Algorithm, Pipeline, SccConfig};
    use std::time::Duration;

    /// Two 3-cycles joined by one edge, an OUT tendril, an isolated node.
    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
                (7, 0),
            ],
        )
    }

    /// Method 2 on `g` (either backend), packaged as a snapshot.
    fn snapshot<G: GraphView>(g: &G) -> SccSnapshot {
        let pipeline = Pipeline::stock(Algorithm::Method2).unwrap();
        let cfg = SccConfig::with_threads(2);
        let (result, _report) = run_pipeline(g, &pipeline, &cfg, &RunGuard::new()).unwrap();
        SccSnapshot::from_result(g, result)
    }

    #[test]
    fn point_queries_match_partition() {
        let g = diamond();
        let snap = snapshot(&g);
        assert_eq!(snap.num_components(), 4); // {0,1,2}, {3,4,5}, {6}, {7}
        assert_eq!(snap.same_scc(0, 2), Some(true));
        assert_eq!(snap.same_scc(0, 3), Some(false));
        assert_eq!(snap.scc_id(0), snap.scc_id(1));
        assert_eq!(snap.scc_id(99), None);
        assert_eq!(snap.same_scc(0, 99), None);
    }

    #[test]
    fn condensation_reach_follows_dag() {
        let g = diamond();
        let snap = snapshot(&g);
        let guard = RunGuard::new();
        // Within an SCC, across the bridge, down the tendril.
        assert_eq!(snap.condensation_reach(0, 1, &guard), Ok(Some(true)));
        assert_eq!(snap.condensation_reach(0, 5, &guard), Ok(Some(true)));
        assert_eq!(snap.condensation_reach(1, 6, &guard), Ok(Some(true)));
        assert_eq!(snap.condensation_reach(7, 6, &guard), Ok(Some(true)));
        // Never backwards.
        assert_eq!(snap.condensation_reach(3, 0, &guard), Ok(Some(false)));
        assert_eq!(snap.condensation_reach(6, 0, &guard), Ok(Some(false)));
        assert_eq!(snap.condensation_reach(0, 7, &guard), Ok(Some(false)));
        // Out of range is typed, not a panic.
        assert_eq!(snap.condensation_reach(0, 99, &guard), Ok(None));
    }

    #[test]
    fn reach_honours_an_expired_deadline() {
        let g = diamond();
        let snap = snapshot(&g);
        let guard = RunGuard::with_deadline(Duration::ZERO);
        assert_eq!(
            snap.condensation_reach(0, 6, &guard),
            Err(SccError::DeadlineExceeded)
        );
    }

    #[test]
    fn build_over_compressed_backend_matches_raw() {
        let g = diamond();
        let z = swscc_graph::CompressedCsr::from_csr(&g);
        let raw = snapshot(&g);
        let zs = snapshot(&z);
        assert_eq!(
            raw.result().canonical_labels(),
            zs.result().canonical_labels()
        );
        assert_eq!(
            raw.condensation().num_nodes(),
            zs.condensation().num_nodes()
        );
    }
}

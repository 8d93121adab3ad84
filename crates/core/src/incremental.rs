//! Incremental SCC maintenance over a [`DeltaGraph`] — the dynamic
//! condensation engine (ROADMAP item 2, after Sa, arXiv 1804.01276).
//!
//! The engine keeps three things in lockstep with a stream of edge
//! mutations: a per-node component label, the member list of every
//! component, and a **topological position** per component — a sparse
//! `u64` rank over the condensation DAG with wide gaps, so local edits
//! rarely renumber anything outside the touched region. The maintenance
//! algebra per mutation:
//!
//! * **Insert, in order** (`pos[scc(u)] < pos[scc(v)]`, or intra-SCC):
//!   the current order already proves acyclicity — O(1), touch nothing.
//! * **Insert, back edge**: bounded bidirectional discovery on the
//!   condensation, restricted to the position window
//!   `[pos[scc(v)], pos[scc(u)]]` (the Pearce–Kelly affected region,
//!   arXiv cs/0608010 applied at SCC granularity): forward from `v`,
//!   backward from `u`, expanding whole components via their member
//!   lists. The intersection is the merge set — collapsed into one
//!   component — and the region's positions are reassigned B-side from
//!   the bottom of the old position pool, F-side from the top, which
//!   preserves every constraint against untouched components (B-side
//!   never moves up, F-side never moves down, and edges from outside the
//!   window are outside the pool's range entirely).
//! * **Delete, cross-component**: removing a condensation edge cannot
//!   create a cycle or break the order — O(1).
//! * **Delete, intra-component**: the owning SCC is dirty. Its members
//!   are extracted as a local residue subgraph and the stock pipeline
//!   re-runs on that residue only (the same LiveSet-restricted kernels
//!   as a batch run, on a |residue|-sized input); a split allocates
//!   fresh labels and packs the parts, in residue topological order,
//!   into the position gap the old component occupied.
//!
//! Any mutation whose affected region exceeds
//! [`SccConfig::incremental_residue_limit`] degrades to a full rebuild —
//! correctness never depends on the bound, only the work ceiling.
//!
//! # Failure containment
//!
//! The back-edge merge passes the `incr-merge` fault point *after*
//! discovery and *before* the first label write, so a kill there leaves
//! the partition state exactly as it was. The serve layer catches the
//! panic, marks the engine poisoned ([`IncrementalEngine::poison`]), and
//! the next operation heals through a full rebuild over the (already
//! mutated) graph. The previous epoch keeps serving throughout.

use crate::config::SccConfig;
use crate::error::{RunGuard, SccError};
use crate::pipeline::{run_pipeline, Pipeline};
use crate::result::SccResult;
use crate::snapshot::SccSnapshot;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;
use swscc_graph::bfs::Direction;
use swscc_graph::delta::CompactBackend;
use swscc_graph::{CsrGraph, DeltaGraph, GraphView, NodeId};
use swscc_sync::fault;

/// Spacing between consecutive topological positions after a (re)build.
/// Splits carve positions out of the gaps; a gap that runs dry triggers
/// one global renumbering, which restores the full spacing.
const POS_GAP: u64 = 1 << 32;

/// What one mutation did to the partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationOutcome {
    /// The edge was already live / already absent / out of range — the
    /// graph and the partition are untouched.
    Noop,
    /// O(1) fast path: the mutation could not change any component
    /// (in-order insert, intra-SCC insert, cross-component delete).
    InOrder,
    /// A back edge that created no cycle; the affected region's
    /// topological positions were reassigned (Pearce–Kelly), components
    /// unchanged.
    Reordered,
    /// A back edge closed a cycle; `merged` components collapsed into
    /// one.
    Merged {
        /// Components folded together (≥ 2).
        merged: usize,
    },
    /// An intra-SCC delete re-ran the pipeline on the dirty residue;
    /// the component split into `parts` (1 = it survived intact).
    Repaired {
        /// Components the residue resolved into.
        parts: usize,
    },
    /// The affected region exceeded the residue limit (or the engine was
    /// healing from a poisoned state): full recompute over the current
    /// graph.
    Rebuilt,
}

/// Cumulative per-path counters, surfaced through the serve `stats` verb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// O(1) mutations (in-order inserts + cross-component deletes).
    pub in_order: u64,
    /// Back-edge inserts that only reordered positions.
    pub reorders: u64,
    /// Back-edge inserts that merged components.
    pub merges: u64,
    /// Intra-SCC deletes repaired on the residue.
    pub dirty_repairs: u64,
    /// Repairs that actually split the component.
    pub splits: u64,
    /// Degradations to a full rebuild (limit breach or healing).
    pub full_rebuilds: u64,
}

/// One edge mutation, the unit the serve layer batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert the directed edge `u -> v`.
    Insert(NodeId, NodeId),
    /// Delete the directed edge `u -> v`.
    Delete(NodeId, NodeId),
}

/// Per-component bookkeeping: members and the topological position.
#[derive(Clone, Debug)]
struct CompMeta {
    pos: u64,
    members: Vec<NodeId>,
}

/// The maintenance engine: a mutable [`DeltaGraph`] plus the maintained
/// partition and condensation order. See the module docs for the
/// algorithm; [`IncrementalEngine::snapshot`] exports the partition as
/// the same [`SccSnapshot`] the batch path builds, so the serve layer's
/// epoch cycle is unchanged.
pub struct IncrementalEngine<G: CompactBackend> {
    graph: DeltaGraph<G>,
    pipeline: Pipeline,
    cfg: SccConfig,
    /// Node -> component label. Labels are *not* dense; snapshot export
    /// densifies through [`SccResult::from_assignment`].
    labels: Vec<u32>,
    comps: FxHashMap<u32, CompMeta>,
    /// Occupied topological positions (unique), for gap queries.
    positions: BTreeSet<u64>,
    next_label: u32,
    /// Set by [`IncrementalEngine::poison`] after a caught mid-merge
    /// panic: the graph holds a mutation the partition does not reflect,
    /// so the next operation must rebuild first.
    poisoned: bool,
    counters: EngineCounters,
}

impl<G: CompactBackend> IncrementalEngine<G> {
    /// Builds the engine with an initial full run of `pipeline` over
    /// `graph`.
    pub fn new(
        graph: DeltaGraph<G>,
        pipeline: Pipeline,
        cfg: SccConfig,
        guard: &RunGuard,
    ) -> Result<IncrementalEngine<G>, SccError> {
        let mut engine = IncrementalEngine {
            graph,
            pipeline,
            cfg,
            labels: Vec::new(),
            comps: FxHashMap::default(),
            positions: BTreeSet::new(),
            next_label: 0,
            poisoned: false,
            counters: EngineCounters::default(),
        };
        engine.rebuild_state(guard)?;
        Ok(engine)
    }

    /// The maintained graph (base + live overlay).
    pub fn graph(&self) -> &DeltaGraph<G> {
        &self.graph
    }

    /// Cumulative path counters.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Number of components in the maintained partition.
    pub fn num_components(&self) -> usize {
        self.comps.len()
    }

    /// Marks the partition out of sync with the graph — called by the
    /// serve layer after catching a mid-merge panic. The next mutation
    /// (or explicit [`IncrementalEngine::rebuild`]) heals via a full
    /// recompute; queries keep being served from the previous epoch.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Whether the engine needs a healing rebuild.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Applies one mutation, maintaining the partition.
    pub fn apply(&mut self, m: Mutation, guard: &RunGuard) -> Result<MutationOutcome, SccError> {
        match m {
            Mutation::Insert(u, v) => self.insert_edge(u, v, guard),
            Mutation::Delete(u, v) => self.delete_edge(u, v, guard),
        }
    }

    /// Inserts `u -> v` and repairs the partition. Any error (deadline,
    /// cancellation, pipeline failure) leaves the engine poisoned: the
    /// graph may already hold the edge the partition does not reflect,
    /// so the next operation heals by full rebuild first.
    pub fn insert_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        guard: &RunGuard,
    ) -> Result<MutationOutcome, SccError> {
        let r = self.insert_impl(u, v, guard);
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    fn insert_impl(
        &mut self,
        u: NodeId,
        v: NodeId,
        guard: &RunGuard,
    ) -> Result<MutationOutcome, SccError> {
        self.heal(guard)?;
        if !self.graph.insert_edge(u, v) {
            return Ok(MutationOutcome::Noop);
        }
        let cu = self.labels[u as usize];
        let cv = self.labels[v as usize];
        if cu == cv {
            self.counters.in_order += 1;
            return Ok(MutationOutcome::InOrder);
        }
        let pu = self.comps[&cu].pos;
        let pv = self.comps[&cv].pos;
        if pu < pv {
            // The current order already witnesses acyclicity of the new
            // condensation edge — nothing to do.
            self.counters.in_order += 1;
            return Ok(MutationOutcome::InOrder);
        }
        self.back_edge(cu, cv, guard)
    }

    /// Deletes `u -> v` and repairs the partition. Errors poison the
    /// engine — see [`IncrementalEngine::insert_edge`].
    pub fn delete_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        guard: &RunGuard,
    ) -> Result<MutationOutcome, SccError> {
        let r = self.delete_impl(u, v, guard);
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    fn delete_impl(
        &mut self,
        u: NodeId,
        v: NodeId,
        guard: &RunGuard,
    ) -> Result<MutationOutcome, SccError> {
        self.heal(guard)?;
        if !self.graph.delete_edge(u, v) {
            return Ok(MutationOutcome::Noop);
        }
        let cu = self.labels[u as usize];
        let cv = self.labels[v as usize];
        if cu != cv {
            // Dropping a condensation edge can neither create a cycle
            // nor invalidate the order.
            self.counters.in_order += 1;
            return Ok(MutationOutcome::InOrder);
        }
        self.repair_dirty(cu, guard)
    }

    /// Folds the delta overlay into a fresh base backend (labels and
    /// positions are adjacency-preserving, so the partition is
    /// untouched). Returns the overlay entries folded away.
    pub fn compact(&mut self) -> usize {
        self.graph.compact()
    }

    /// Full recompute over the current graph — the admin `recompute`
    /// verb, and the healing path.
    pub fn rebuild(&mut self, guard: &RunGuard) -> Result<(), SccError> {
        self.counters.full_rebuilds += 1;
        self.rebuild_state(guard)
    }

    /// Exports the maintained partition as the batch-path snapshot type
    /// (dense labels + condensation DAG over the current graph).
    pub fn snapshot(&self, guard: &RunGuard) -> Result<SccSnapshot, SccError> {
        guard.check()?;
        let result = SccResult::from_assignment(self.labels.clone());
        Ok(SccSnapshot::from_result(&self.graph, result))
    }

    fn heal(&mut self, guard: &RunGuard) -> Result<(), SccError> {
        if self.poisoned {
            self.counters.full_rebuilds += 1;
            self.rebuild_state(guard)?;
        }
        Ok(())
    }

    fn degrade(&mut self, guard: &RunGuard) -> Result<MutationOutcome, SccError> {
        self.counters.full_rebuilds += 1;
        self.rebuild_state(guard)?;
        Ok(MutationOutcome::Rebuilt)
    }

    /// Recomputes labels, members, and gapped topological positions from
    /// scratch. Poison is set on entry and cleared only on success, so a
    /// failed rebuild leaves the engine demanding another heal instead
    /// of serving a half-written partition.
    fn rebuild_state(&mut self, guard: &RunGuard) -> Result<(), SccError> {
        self.poisoned = true;
        let (result, _report) = run_pipeline(&self.graph, &self.pipeline, &self.cfg, guard)?;
        guard.check()?;
        let ranks = topo_ranks(&result.condensation(&self.graph));
        self.labels = result.assignment().to_vec();
        self.next_label = result.num_components() as u32;
        self.comps.clear();
        self.positions.clear();
        for c in 0..result.num_components() as u32 {
            let pos = (u64::from(ranks[c as usize]) + 1) * POS_GAP;
            self.comps.insert(
                c,
                CompMeta {
                    pos,
                    members: Vec::new(),
                },
            );
            self.positions.insert(pos);
        }
        for (n, &c) in self.labels.iter().enumerate() {
            self.comps
                .get_mut(&c)
                .expect("dense labels")
                .members
                .push(n as NodeId);
        }
        self.poisoned = false;
        Ok(())
    }

    /// Component-granular reachability sweep restricted to the position
    /// window `[lb, ub]`, expanding whole components via member lists.
    /// Returns `None` when the visited-vertex budget is exhausted.
    fn window_search(
        &self,
        start: u32,
        lb: u64,
        ub: u64,
        dir: Direction,
        limit: usize,
        guard: &RunGuard,
    ) -> Result<Option<FxHashSet<u32>>, SccError> {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        seen.insert(start);
        let mut stack = vec![start];
        let mut budget = 0usize;
        while let Some(c) = stack.pop() {
            guard.check()?;
            let members = &self.comps[&c].members;
            budget += members.len();
            if budget > limit {
                return Ok(None);
            }
            for &m in members {
                self.graph.for_each_neighbor(dir, m, |w| {
                    let cw = self.labels[w as usize];
                    if !seen.contains(&cw) {
                        let pw = self.comps[&cw].pos;
                        if (lb..=ub).contains(&pw) {
                            seen.insert(cw);
                            stack.push(cw);
                        }
                    }
                });
            }
        }
        Ok(Some(seen))
    }

    /// The Pearce–Kelly affected-region pass for an order-violating
    /// insert `scc(u)=cu -> scc(v)=cv` with `pos[cu] > pos[cv]`: discover
    /// forward/backward regions, collapse the cycle set if there is one,
    /// reassign the region's positions from its own old position pool.
    fn back_edge(
        &mut self,
        cu: u32,
        cv: u32,
        guard: &RunGuard,
    ) -> Result<MutationOutcome, SccError> {
        let lb = self.comps[&cv].pos;
        let ub = self.comps[&cu].pos;
        let limit = self.cfg.incremental_residue_limit.max(1);
        let Some(rf) = self.window_search(cv, lb, ub, Direction::Forward, limit, guard)? else {
            return self.degrade(guard);
        };
        let Some(rb) = self.window_search(cu, lb, ub, Direction::Backward, limit, guard)? else {
            return self.degrade(guard);
        };
        // Merge set: components on some v ->* u path (cv ->* C ->* cu).
        let merge: Vec<u32> = rf.intersection(&rb).copied().collect();
        let mut b_side: Vec<u32> = rb.difference(&rf).copied().collect();
        let mut f_side: Vec<u32> = rf.difference(&rb).copied().collect();
        b_side.sort_unstable_by_key(|c| self.comps[c].pos);
        f_side.sort_unstable_by_key(|c| self.comps[c].pos);
        let mut pool: Vec<u64> = rf.union(&rb).map(|c| self.comps[c].pos).collect();
        pool.sort_unstable();

        let merged = merge.len();
        if merged > 0 {
            // recovery: commit point of the merge — discovery above is
            // read-only, every write happens below, so a kill here
            // (injected incr-merge fault) leaves the maintained
            // partition untouched; the serve layer poisons the engine
            // and heals by rebuild while the old epoch keeps serving.
            fault::point(fault::INCR_MERGE);
            let mut absorbed: Vec<NodeId> = Vec::new();
            for &c in &merge {
                if c == cu {
                    continue;
                }
                let meta = self.comps.remove(&c).expect("merge set is live");
                for &m in &meta.members {
                    self.labels[m as usize] = cu;
                }
                absorbed.extend(meta.members);
            }
            self.comps
                .get_mut(&cu)
                .expect("representative is live")
                .members
                .extend(absorbed);
        }
        // Reassign: B-side packs the bottom of the pool (never moves
        // up), F-side packs the top (never moves down), the merged
        // component sits between them; leftover middle values retire
        // with the components they belonged to.
        for &p in &pool {
            self.positions.remove(&p);
        }
        let nf = f_side.len();
        for (i, &c) in b_side.iter().enumerate() {
            self.set_pos(c, pool[i]);
        }
        if merged > 0 {
            self.set_pos(cu, pool[b_side.len()]);
        }
        for (i, &c) in f_side.iter().enumerate() {
            self.set_pos(c, pool[pool.len() - nf + i]);
        }
        if merged > 0 {
            self.counters.merges += 1;
            Ok(MutationOutcome::Merged { merged })
        } else {
            self.counters.reorders += 1;
            Ok(MutationOutcome::Reordered)
        }
    }

    fn set_pos(&mut self, c: u32, pos: u64) {
        self.comps.get_mut(&c).expect("component is live").pos = pos;
        self.positions.insert(pos);
    }

    /// Intra-SCC delete: re-run the stock pipeline on the dirty
    /// component's residue only, then relabel and re-position any split
    /// parts inside the gap the old component occupied.
    fn repair_dirty(&mut self, c: u32, guard: &RunGuard) -> Result<MutationOutcome, SccError> {
        let limit = self.cfg.incremental_residue_limit.max(1);
        if self.comps[&c].members.len() > limit {
            return self.degrade(guard);
        }
        self.counters.dirty_repairs += 1;
        let members = self.comps[&c].members.clone();
        // Residue extraction stays O(|residue| + residue edges): a local
        // id map instead of an O(N) scatter array.
        let mut local: FxHashMap<NodeId, u32> = FxHashMap::default();
        for (i, &m) in members.iter().enumerate() {
            local.insert(m, i as u32);
        }
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (i, &m) in members.iter().enumerate() {
            guard.check()?;
            self.graph.for_each_neighbor(Direction::Forward, m, |w| {
                if let Some(&lw) = local.get(&w) {
                    edges.push((i as NodeId, lw));
                }
            });
        }
        let residue = CsrGraph::from_edges(members.len(), &edges);
        let (sub, _report) = run_pipeline(&residue, &self.pipeline, &self.cfg, guard)?;
        let parts = sub.num_components();
        if parts == 1 {
            // The SCC survived the deletion intact.
            return Ok(MutationOutcome::Repaired { parts: 1 });
        }
        self.counters.splits += 1;
        // Order the parts among themselves and pack them into the open
        // position interval around the old component's position — every
        // constraint against outside components held at the old position
        // and keeps holding anywhere strictly inside its gap.
        let ranks = topo_ranks(&sub.condensation(&residue));
        let (lo, hi) = self.gap_for(c, parts as u64);
        let step = (hi - lo) / (parts as u64 + 1);
        let meta = self.comps.remove(&c).expect("dirty component is live");
        self.positions.remove(&meta.pos);
        let mut part_label: Vec<u32> = Vec::with_capacity(parts);
        for r in 0..parts as u32 {
            // Reuse the old label for the topologically-first part; the
            // rest get fresh labels.
            let label = if r == 0 {
                c
            } else {
                self.next_label += 1;
                self.next_label
            };
            part_label.push(label);
            let pos = lo + step * (u64::from(r) + 1);
            self.comps.insert(
                label,
                CompMeta {
                    pos,
                    members: Vec::new(),
                },
            );
            self.positions.insert(pos);
        }
        for (i, &m) in meta.members.iter().enumerate() {
            let label = part_label[ranks[sub.component(i as NodeId) as usize] as usize];
            self.labels[m as usize] = label;
            self.comps
                .get_mut(&label)
                .expect("just inserted")
                .members
                .push(m);
        }
        Ok(MutationOutcome::Repaired { parts })
    }

    /// Open interval around component `c`'s position, between its
    /// neighboring occupied positions, with room for `need` distinct
    /// values strictly inside (`hi - lo > need` leaves an integer step
    /// ≥ 1) — globally renumbering first if the local gap has run dry.
    fn gap_for(&mut self, c: u32, need: u64) -> (u64, u64) {
        let pos = self.comps[&c].pos;
        let (lo, hi) = self.neighbors_of(pos);
        if hi - lo > need {
            return (lo, hi);
        }
        // Local gap exhausted by earlier splits: restore POS_GAP spacing
        // everywhere (need ≤ residue limit ≪ POS_GAP) and re-read.
        self.renumber();
        self.neighbors_of(self.comps[&c].pos)
    }

    /// Nearest occupied positions strictly below and above `pos`.
    fn neighbors_of(&self, pos: u64) -> (u64, u64) {
        let lo = self
            .positions
            .range(..pos)
            .next_back()
            .copied()
            .unwrap_or(0);
        let hi = self
            .positions
            .range(pos + 1..)
            .next()
            .copied()
            .unwrap_or(u64::MAX);
        (lo, hi)
    }

    /// Global renumbering: every component's position becomes
    /// `rank * POS_GAP` in the current order, restoring full gaps.
    fn renumber(&mut self) {
        let mut order: Vec<(u64, u32)> = self.comps.iter().map(|(&c, m)| (m.pos, c)).collect();
        order.sort_unstable();
        self.positions.clear();
        for (rank, (_, c)) in order.into_iter().enumerate() {
            let pos = (rank as u64 + 1) * POS_GAP;
            self.comps.get_mut(&c).expect("live").pos = pos;
            self.positions.insert(pos);
        }
    }
}

/// Kahn topological ranks over a condensation DAG: `ranks[c]` is the
/// position of component `c` in one valid topological order.
fn topo_ranks(cond: &CsrGraph) -> Vec<u32> {
    let n = cond.num_nodes();
    let mut indeg: Vec<u32> = (0..n).map(|c| cond.in_degree(c as NodeId) as u32).collect();
    let mut queue: std::collections::VecDeque<u32> =
        (0..n as u32).filter(|&c| indeg[c as usize] == 0).collect();
    let mut ranks = vec![0u32; n];
    let mut next = 0u32;
    while let Some(c) = queue.pop_front() {
        ranks[c as usize] = next;
        next += 1;
        cond.for_each_neighbor(Direction::Forward, c, |d| {
            indeg[d as usize] -= 1;
            if indeg[d as usize] == 0 {
                queue.push_back(d);
            }
        });
    }
    debug_assert_eq!(next as usize, n, "condensation must be acyclic");
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tarjan::tarjan_scc;
    use crate::Algorithm;

    fn engine(n: usize, edges: &[(NodeId, NodeId)]) -> IncrementalEngine<CsrGraph> {
        engine_with_limit(n, edges, SccConfig::default().incremental_residue_limit)
    }

    fn engine_with_limit(
        n: usize,
        edges: &[(NodeId, NodeId)],
        limit: usize,
    ) -> IncrementalEngine<CsrGraph> {
        let mut cfg = SccConfig::with_threads(2);
        cfg.incremental_residue_limit = limit;
        IncrementalEngine::new(
            DeltaGraph::new(CsrGraph::from_edges(n, edges)),
            Pipeline::stock(Algorithm::Method2).expect("stock pipeline"),
            cfg,
            &RunGuard::new(),
        )
        .expect("initial build")
    }

    /// The ground truth the engine must track: Tarjan over the
    /// materialized current graph, compared through canonical labels.
    fn assert_matches_oracle<G: CompactBackend>(engine: &IncrementalEngine<G>) {
        let materialized = engine.graph().materialize_csr();
        let oracle = tarjan_scc(&materialized);
        let maintained = SccResult::from_assignment(engine.labels.clone());
        assert_eq!(
            maintained.canonical_labels(),
            oracle.canonical_labels(),
            "maintained partition diverged from Tarjan"
        );
        // The maintained positions must be a topological order of the
        // maintained condensation.
        for (u, v) in materialized.edges() {
            let (cu, cv) = (engine.labels[u as usize], engine.labels[v as usize]);
            if cu != cv {
                assert!(
                    engine.comps[&cu].pos < engine.comps[&cv].pos,
                    "edge {u}->{v} violates the maintained topological order"
                );
            }
        }
    }

    #[test]
    fn in_order_and_intra_inserts_are_o1() {
        let guard = RunGuard::new();
        // 0 -> 1 -> 2 and a 2-cycle {3,4}.
        let mut e = engine(5, &[(0, 1), (1, 2), (3, 4), (4, 3)]);
        assert_eq!(e.num_components(), 4);
        assert_eq!(
            e.insert_edge(0, 2, &guard).unwrap(),
            MutationOutcome::InOrder,
            "forward edge respects the order"
        );
        assert_eq!(
            e.insert_edge(3, 4, &guard).unwrap(),
            MutationOutcome::Noop,
            "already live"
        );
        assert_eq!(e.insert_edge(4, 4, &guard).unwrap(), MutationOutcome::Noop);
        assert_eq!(e.counters().in_order, 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn back_edge_merges_the_cycle_set() {
        let guard = RunGuard::new();
        // Path 0 -> 1 -> 2 -> 3, plus bystander 4 after 3.
        let mut e = engine(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let out = e.insert_edge(3, 1, &guard).unwrap();
        assert_eq!(out, MutationOutcome::Merged { merged: 3 }, "{{1,2,3}}");
        assert_eq!(e.num_components(), 3);
        assert_eq!(e.counters().merges, 1);
        assert_matches_oracle(&e);
        // Growing the cycle merges again.
        let out = e.insert_edge(4, 0, &guard).unwrap();
        assert_eq!(out, MutationOutcome::Merged { merged: 3 });
        assert_eq!(e.num_components(), 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn back_edge_without_cycle_reorders() {
        let guard = RunGuard::new();
        // Two disjoint chains; insert an edge from the "later" chain to
        // the "earlier" one — depending on the initial Kahn order this
        // is either already in order or a pure reorder, never a merge.
        let mut e = engine(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let out = e.insert_edge(5, 0, &guard).unwrap();
        assert!(
            matches!(out, MutationOutcome::InOrder | MutationOutcome::Reordered),
            "no cycle exists, got {out:?}"
        );
        assert_eq!(e.num_components(), 6);
        assert_matches_oracle(&e);
        // Now 3->4->5->0->1->2; 2 -> 3 closes the global cycle.
        let out = e.insert_edge(2, 3, &guard).unwrap();
        assert_eq!(out, MutationOutcome::Merged { merged: 6 });
        assert_eq!(e.num_components(), 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn cross_component_delete_is_o1() {
        let guard = RunGuard::new();
        let mut e = engine(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        assert_eq!(
            e.delete_edge(0, 1, &guard).unwrap(),
            MutationOutcome::InOrder
        );
        assert_eq!(
            e.delete_edge(0, 1, &guard).unwrap(),
            MutationOutcome::Noop,
            "already gone"
        );
        assert_eq!(e.num_components(), 3);
        assert_matches_oracle(&e);
    }

    #[test]
    fn intra_delete_splits_the_component() {
        let guard = RunGuard::new();
        // 4-cycle plus an outside observer 4 <- 0.
        let mut e = engine(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]);
        assert_eq!(e.num_components(), 2);
        let out = e.delete_edge(2, 3, &guard).unwrap();
        assert_eq!(out, MutationOutcome::Repaired { parts: 4 });
        assert_eq!(e.num_components(), 5);
        assert_eq!(e.counters().splits, 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn intra_delete_that_keeps_the_scc_is_cheap() {
        let guard = RunGuard::new();
        // 3-cycle plus the chord 1 -> 0: the SCC survives losing the
        // chord.
        let mut e = engine(3, &[(0, 1), (1, 2), (2, 0), (1, 0)]);
        assert_eq!(e.num_components(), 1);
        let out = e.delete_edge(1, 0, &guard).unwrap();
        assert_eq!(out, MutationOutcome::Repaired { parts: 1 });
        assert_eq!(e.num_components(), 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn residue_limit_degrades_to_full_rebuild() {
        let guard = RunGuard::new();
        // Limit 1: any multi-node search or residue exceeds the budget.
        let mut e = engine_with_limit(4, &[(0, 1), (1, 2), (2, 3)], 1);
        assert_eq!(
            e.insert_edge(3, 0, &guard).unwrap(),
            MutationOutcome::Rebuilt
        );
        assert_eq!(e.num_components(), 1);
        assert_eq!(e.counters().full_rebuilds, 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn poisoned_engine_heals_before_the_next_mutation() {
        let guard = RunGuard::new();
        let mut e = engine(3, &[(0, 1), (1, 2)]);
        e.poison();
        assert!(e.is_poisoned());
        assert_eq!(
            e.insert_edge(2, 0, &guard).unwrap(),
            MutationOutcome::Merged { merged: 3 }
        );
        assert!(!e.is_poisoned());
        assert_eq!(e.counters().full_rebuilds, 1, "heal rebuilt first");
        assert_matches_oracle(&e);
    }

    #[test]
    fn killed_merge_leaves_partition_intact_and_heals() {
        use swscc_sync::fault::{arm, FaultKind, FaultPlan};
        let guard = RunGuard::new();
        let mut e = engine(4, &[(0, 1), (1, 2), (2, 3)]);
        let before: Vec<u32> = e.labels.clone();
        {
            let _g = arm(FaultPlan {
                site: Some(fault::INCR_MERGE),
                nth: 0,
                kind: FaultKind::Panic,
                repeat: false,
            });
            // recovery: the injected kill at the merge commit point must
            // not have touched any label or position.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.insert_edge(3, 0, &guard)
            }));
            assert!(r.is_err(), "planned fault must fire");
        }
        assert_eq!(e.labels, before, "partition untouched by the kill");
        // The graph holds the edge the partition does not reflect — the
        // serve layer would poison; emulate it and heal.
        e.poison();
        assert_eq!(e.apply(Mutation::Insert(3, 0), &guard).unwrap(), {
            MutationOutcome::Noop // edge is already live; heal only
        });
        assert_eq!(e.num_components(), 1);
        assert_matches_oracle(&e);
    }

    #[test]
    fn snapshot_matches_maintained_partition() {
        let guard = RunGuard::new();
        let mut e = engine(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        e.insert_edge(4, 3, &guard).unwrap();
        let snap = e.snapshot(&guard).unwrap();
        assert_eq!(snap.num_components(), e.num_components());
        assert_eq!(snap.same_scc(3, 4), Some(true));
        assert_eq!(snap.same_scc(0, 3), Some(false));
        assert_eq!(
            snap.condensation_reach(0, 4, &guard).unwrap(),
            Some(true),
            "0 reaches 4 through the condensation"
        );
    }

    #[test]
    fn compact_preserves_the_partition() {
        let guard = RunGuard::new();
        let mut e = engine(4, &[(0, 1), (1, 0)]);
        e.insert_edge(2, 3, &guard).unwrap();
        e.insert_edge(3, 2, &guard).unwrap();
        e.delete_edge(1, 0, &guard).unwrap();
        let folded = e.compact();
        assert!(folded > 0);
        assert_eq!(e.graph().pending(), 0);
        assert_matches_oracle(&e);
    }

    /// Randomized mutation storm vs the Tarjan oracle after every step —
    /// the in-crate smoke version of `tests/incremental_differential.rs`.
    #[test]
    fn random_mutation_storm_tracks_tarjan() {
        fn splitmix64(x: &mut u64) -> u64 {
            *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let guard = RunGuard::new();
        let n = 24u64;
        let mut s = 0x5CC_D31A;
        let mut e = engine_with_limit(n as usize, &[(0, 1), (1, 0), (2, 3)], 64);
        for step in 0..160 {
            let u = (splitmix64(&mut s) % n) as NodeId;
            let v = (splitmix64(&mut s) % n) as NodeId;
            let m = if splitmix64(&mut s).is_multiple_of(3) {
                Mutation::Delete(u, v)
            } else {
                Mutation::Insert(u, v)
            };
            e.apply(m, &guard).unwrap();
            assert_matches_oracle(&e);
            if step % 40 == 39 {
                e.compact();
                assert_matches_oracle(&e);
            }
        }
        let c = e.counters();
        assert!(
            c.merges > 0 && c.in_order > 0,
            "storm must hit the fast and merge paths: {c:?}"
        );
    }
}

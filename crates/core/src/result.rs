//! SCC detection output: a component assignment over the nodes.
//!
//! The paper's pseudocode returns "a collection of node sets". Materializing
//! N small `Vec`s is what downstream code never wants; the standard
//! representation (used by every SCC library and by the paper's own C++
//! implementation via its color arrays) is a dense `component id per node`
//! array, from which sets, sizes, histograms, and the condensation DAG are
//! all derivable in O(N + M).

use rustc_hash::FxHashMap;
use swscc_graph::bfs::Direction;
use swscc_graph::stats::SizeHistogram;
use swscc_graph::{CsrGraph, GraphBuilder, GraphView, NodeId};

/// The result of SCC detection: every node mapped to its component id.
///
/// Component ids are dense (`0..num_components`) but otherwise arbitrary —
/// different algorithms number the same components differently. Use
/// [`SccResult::canonical_labels`] to compare results across algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SccResult {
    component_of: Vec<u32>,
    num_components: usize,
}

impl SccResult {
    /// Wraps a raw assignment, renumbering ids to be dense in
    /// first-appearance order.
    pub fn from_assignment(raw: Vec<u32>) -> Self {
        let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
        let mut component_of = raw;
        for c in component_of.iter_mut() {
            let next = remap.len() as u32;
            *c = *remap.entry(*c).or_insert(next);
        }
        SccResult {
            num_components: remap.len(),
            component_of,
        }
    }

    /// Component id of `node`.
    #[inline]
    pub fn component(&self, node: NodeId) -> u32 {
        self.component_of[node as usize]
    }

    /// The full per-node assignment.
    pub fn assignment(&self) -> &[u32] {
        &self.component_of
    }

    /// Number of strongly connected components.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.component_of.len()
    }

    /// `true` iff `a` and `b` are in the same SCC.
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        self.component(a) == self.component(b)
    }

    /// Size of every component, indexed by component id.
    pub fn component_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_components];
        for &c in &self.component_of {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Size of the largest component (0 for an empty graph). Table 1's
    /// "Largest SCC Size" column.
    pub fn largest_component_size(&self) -> usize {
        self.component_sizes().into_iter().max().unwrap_or(0)
    }

    /// Number of size-1 ("trivial") components — the quantity that makes
    /// the paper's Trim step so effective (§2.2).
    pub fn num_trivial(&self) -> usize {
        self.component_sizes().iter().filter(|&&s| s == 1).count()
    }

    /// SCC-size histogram (Figures 2 and 9 of the paper).
    pub fn size_histogram(&self) -> SizeHistogram {
        SizeHistogram::from_assignment(&self.component_of)
    }

    /// Members of component `c`, ascending. O(N).
    pub fn members(&self, c: u32) -> Vec<NodeId> {
        self.component_of
            .iter()
            .enumerate()
            .filter(|&(_, &cc)| cc == c)
            .map(|(i, _)| i as NodeId)
            .collect()
    }

    /// A canonical labeling: component ids renumbered by each component's
    /// smallest member. Two `SccResult`s describe the same partition iff
    /// their canonical labels are equal.
    pub fn canonical_labels(&self) -> Vec<u32> {
        let mut min_member = vec![u32::MAX; self.num_components];
        for (i, &c) in self.component_of.iter().enumerate() {
            min_member[c as usize] = min_member[c as usize].min(i as u32);
        }
        self.component_of
            .iter()
            .map(|&c| min_member[c as usize])
            .collect()
    }

    /// Builds the condensation: the DAG whose nodes are the SCCs of `g` and
    /// whose edges are the inter-SCC edges of `g` (deduplicated). The result
    /// is acyclic by the definition of SCCs (tested). The inter-SCC edges
    /// stream through the [`GraphView`] neighbor decode, so the
    /// condensation of a compressed graph is built without materializing
    /// the raw CSR.
    ///
    /// # Panics
    ///
    /// Panics if `g` does not have the same node count as this result.
    pub fn condensation<G: GraphView>(&self, g: &G) -> CsrGraph {
        assert_eq!(g.num_nodes(), self.num_nodes(), "graph/result mismatch");
        let mut b = GraphBuilder::new(self.num_components);
        for u in g.nodes() {
            let cu = self.component(u);
            g.for_each_neighbor(Direction::Forward, u, |v| {
                let cv = self.component(v);
                if cu != cv {
                    b.add_edge(cu, cv);
                }
            });
        }
        b.build()
    }

    /// Checks internal consistency: ids dense, every node assigned.
    /// Used by tests and debug assertions; cheap (O(N)).
    pub fn check_dense(&self) -> bool {
        let mut seen = vec![false; self.num_components];
        for &c in &self.component_of {
            if c as usize >= self.num_components {
                return false;
            }
            seen[c as usize] = true;
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renumbering_is_dense() {
        let r = SccResult::from_assignment(vec![7, 7, 3, 9, 3]);
        assert_eq!(r.num_components(), 3);
        assert_eq!(r.assignment(), &[0, 0, 1, 2, 1]);
        assert!(r.check_dense());
    }

    #[test]
    fn sizes_and_trivial() {
        let r = SccResult::from_assignment(vec![0, 0, 1, 2, 2, 2]);
        assert_eq!(r.component_sizes(), vec![2, 1, 3]);
        assert_eq!(r.largest_component_size(), 3);
        assert_eq!(r.num_trivial(), 1);
    }

    #[test]
    fn same_component() {
        let r = SccResult::from_assignment(vec![0, 1, 0]);
        assert!(r.same_component(0, 2));
        assert!(!r.same_component(0, 1));
    }

    #[test]
    fn canonical_labels_ignore_numbering() {
        let a = SccResult::from_assignment(vec![0, 0, 1, 1, 2]);
        let b = SccResult::from_assignment(vec![5, 5, 2, 2, 9]);
        assert_eq!(a.canonical_labels(), b.canonical_labels());
        let c = SccResult::from_assignment(vec![0, 1, 1, 0, 2]);
        assert_ne!(a.canonical_labels(), c.canonical_labels());
    }

    #[test]
    fn members_listing() {
        let r = SccResult::from_assignment(vec![0, 1, 0, 1]);
        assert_eq!(r.members(0), vec![0, 2]);
        assert_eq!(r.members(1), vec![1, 3]);
    }

    #[test]
    fn condensation_collapses_cycles() {
        // 0 <-> 1 -> 2
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        let r = SccResult::from_assignment(vec![0, 0, 1]);
        let dag = r.condensation(&g);
        assert_eq!(dag.num_nodes(), 2);
        assert_eq!(dag.num_edges(), 1);
        assert!(dag.has_edge(0, 1));
    }

    #[test]
    fn condensation_dedups_parallel_edges() {
        // two SCCs with two cross edges
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (0, 2), (1, 3), (2, 3), (3, 2)]);
        let r = SccResult::from_assignment(vec![0, 0, 1, 1]);
        let dag = r.condensation(&g);
        assert_eq!(dag.num_edges(), 1);
    }

    #[test]
    fn empty_result() {
        let r = SccResult::from_assignment(vec![]);
        assert_eq!(r.num_components(), 0);
        assert_eq!(r.largest_component_size(), 0);
        assert!(r.check_dense());
    }

    #[test]
    fn histogram_hookup() {
        let r = SccResult::from_assignment(vec![0, 0, 0, 1, 2]);
        let h = r.size_histogram();
        assert_eq!(h.count_of(1), 2);
        assert_eq!(h.count_of(3), 1);
    }
}

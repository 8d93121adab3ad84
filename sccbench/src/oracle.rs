//! Answer checks. Partitions are compared with Tarjan's
//! (`swscc::core::tarjan`), and reachability with a breadth-first search
//! over a condensation built here from Tarjan's labels, independently of
//! the code under test.

use swscc::core::tarjan::tarjan_scc;
use swscc::graph::CsrGraph;

/// Tarjan's partition of `g` and the condensation DAG it induces.
pub struct Oracle {
    pub labels: Vec<u32>,
    pub num_components: usize,
    /// Forward adjacency of the condensation, deduplicated.
    dag: Vec<Vec<u32>>,
}

impl Oracle {
    pub fn new(g: &CsrGraph) -> Oracle {
        let result = tarjan_scc(g);
        let labels = result.assignment().to_vec();
        let num_components = result.num_components();
        let mut dag: Vec<Vec<u32>> = vec![Vec::new(); num_components];
        for (u, v) in g.edges() {
            let (cu, cv) = (labels[u as usize], labels[v as usize]);
            if cu != cv {
                dag[cu as usize].push(cv);
            }
        }
        for out in &mut dag {
            out.sort_unstable();
            out.dedup();
        }
        Oracle {
            labels,
            num_components,
            dag,
        }
    }

    /// The members of the largest component.
    pub fn largest_component(&self) -> Vec<u32> {
        let mut sizes = vec![0usize; self.num_components];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        let giant = (0..sizes.len()).max_by_key(|&c| sizes[c]).unwrap_or(0) as u32;
        (0..self.labels.len() as u32)
            .filter(|&u| self.labels[u as usize] == giant)
            .collect()
    }

    pub fn same_scc(&self, u: u32, v: u32) -> bool {
        self.labels[u as usize] == self.labels[v as usize]
    }

    /// Whether `v` is reachable from `u` in the graph.
    pub fn reach(&self, u: u32, v: u32) -> bool {
        let (from, to) = (self.labels[u as usize], self.labels[v as usize]);
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.dag.len()];
        let mut stack = vec![from];
        seen[from as usize] = true;
        while let Some(c) = stack.pop() {
            for &w in &self.dag[c as usize] {
                if w == to {
                    return true;
                }
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        false
    }
}

/// Incrementally checks that a stream of `(node, component id)` answers
/// is a relabelling of the oracle partition: ids must map one-to-one
/// onto oracle labels.
pub struct LabelMatcher<'a> {
    oracle: &'a [u32],
    fwd: Vec<u32>,
    back: std::collections::HashMap<u32, u32>,
}

impl<'a> LabelMatcher<'a> {
    pub fn new(oracle: &'a [u32], num_components: usize) -> LabelMatcher<'a> {
        LabelMatcher {
            oracle,
            fwd: vec![u32::MAX; num_components],
            back: std::collections::HashMap::new(),
        }
    }

    /// Records that `node` was answered with component `id`; `false` if
    /// that contradicts an earlier answer or the oracle.
    pub fn check(&mut self, node: u32, id: u32) -> bool {
        let want = self.oracle[node as usize];
        let slot = &mut self.fwd[want as usize];
        if *slot == u32::MAX {
            *slot = id;
        } else if *slot != id {
            return false;
        }
        *self.back.entry(id).or_insert(want) == want
    }
}

/// A partition in canonical form: components numbered in the order of
/// their first node. Two labellings describe the same partition exactly
/// when their canonical forms are equal, so checking an answer needs
/// only this form and one scratch array, both allocated up front.
pub struct Canonical {
    labels: Vec<u32>,
    /// Answer id -> canonical id while an answer is checked; all
    /// `u32::MAX` between checks.
    scratch: Vec<u32>,
}

impl Canonical {
    /// The canonical form of `labels`, whose ids lie below its length.
    pub fn new(labels: &[u32]) -> Canonical {
        let mut c = Canonical {
            labels: vec![0; labels.len()],
            scratch: vec![u32::MAX; labels.len()],
        };
        let mut next = 0;
        for (u, &id) in labels.iter().enumerate() {
            let slot = &mut c.scratch[id as usize];
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
            c.labels[u] = *slot;
        }
        c.scratch.fill(u32::MAX);
        c
    }

    /// Whether `labels` partitions the nodes exactly as this form does.
    /// Ids must lie below the node count, as `SccResult`'s dense ids do.
    pub fn matches(&mut self, labels: &[u32]) -> bool {
        if labels.len() != self.labels.len() {
            return false;
        }
        let mut next = 0;
        let mut same = true;
        for (&id, &want) in labels.iter().zip(&self.labels) {
            let Some(slot) = self.scratch.get_mut(id as usize) else {
                same = false;
                break;
            };
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
            if *slot != want {
                same = false;
                break;
            }
        }
        self.scratch.fill(u32::MAX);
        same
    }
}

/// Feeds corrupted answers to the checks and reports whether every one
/// fired. Run once per benchmark run, so a check that silently stopped
/// checking fails the run.
pub fn checks_fire() -> bool {
    // Two 3-cycles joined by 2 -> 3, a tail 5 -> 6 and an isolated 7.
    let g = CsrGraph::from_edges(
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
        ],
    );
    let oracle = Oracle::new(&g);
    let mut canonical = Canonical::new(&oracle.labels);
    let good = oracle.labels.clone();
    let mut moved = good.clone();
    moved[4] = moved[0]; // node 4 answered in the first cycle's component
    let mut split = good.clone();
    split[1] = 7; // one cycle split in two
    let mut merged = good.clone();
    merged[6] = merged[7]; // two singletons merged
    let mut fresh = good.clone();
    fresh[2] = 99; // an id beyond any dense numbering
    let mut matcher = LabelMatcher::new(&oracle.labels, oracle.num_components);
    canonical.matches(&good)
        && !canonical.matches(&moved)
        && !canonical.matches(&split)
        && !canonical.matches(&merged)
        && !canonical.matches(&fresh)
        && canonical.matches(&good)
        && matcher.check(0, 3)
        && !matcher.check(4, 3)
        && oracle.reach(0, 6)
        && !oracle.reach(6, 0)
        && !oracle.reach(0, 7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_answers_are_caught() {
        assert!(checks_fire());
    }

    #[test]
    fn relabelled_partition_is_accepted() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3)]);
        let oracle = Oracle::new(&g);
        let relabelled: Vec<u32> = oracle.labels.iter().map(|l| 3 - l).collect();
        assert!(Canonical::new(&oracle.labels).matches(&relabelled));
    }

    #[test]
    fn matcher_rejects_one_id_for_two_components() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0)]);
        let oracle = Oracle::new(&g);
        let mut m = LabelMatcher::new(&oracle.labels, oracle.num_components);
        assert!(m.check(0, 5));
        assert!(m.check(1, 5));
        assert!(!m.check(2, 5));
    }
}

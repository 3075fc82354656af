//! Local candidate filters ("local features" of Algorithm 1, lines 2/4).
//!
//! A data vertex `v` is a candidate for query vertex `u` only if:
//! 1. `l_G(v) = l_q(u)` (label filter);
//! 2. `d_G(v) ≥ d_q(u)` (degree filter);
//! 3. for every label `l` among `u`'s neighbours, `v` has at least as many
//!    neighbours with label `l` as `u` does (NLF, neighbour label frequency).
//!
//! These are the standard filters used by CFL/CECI/DAF, which the paper's
//! CST construction follows.

use graph_core::{Graph, QueryGraph, QueryVertexId, VertexId};

/// Precomputed per-query-vertex filter.
#[derive(Debug, Clone)]
pub struct CandidateFilter {
    degree: u32,
    label: graph_core::Label,
    /// Sorted `(label, min_count)` requirements.
    nlf: Vec<(graph_core::Label, u32)>,
}

impl CandidateFilter {
    /// Builds the filter for query vertex `u`.
    pub fn new(q: &QueryGraph, u: QueryVertexId) -> Self {
        CandidateFilter {
            degree: q.degree(u),
            label: q.label(u),
            nlf: q.neighbor_label_counts(u),
        }
    }

    /// Whether `v` passes label and degree checks (cheap pre-filter).
    #[inline]
    pub fn passes_basic(&self, g: &Graph, v: VertexId) -> bool {
        g.label(v) == self.label && g.degree(v) >= self.degree
    }

    /// Whether `v` passes the full filter including NLF. `scratch` is a
    /// reusable buffer for the per-vertex neighbour label counts.
    pub fn passes(&self, g: &Graph, v: VertexId, scratch: &mut Vec<(graph_core::Label, u32)>) -> bool {
        if !self.passes_basic(g, v) {
            return false;
        }
        if self.nlf.is_empty() {
            return true;
        }
        g.neighbor_label_counts(v, scratch);
        let mut i = 0;
        for &(need_label, need_count) in &self.nlf {
            // Both lists are sorted by label: advance a merged cursor.
            while i < scratch.len() && scratch[i].0 < need_label {
                i += 1;
            }
            if i >= scratch.len() || scratch[i].0 != need_label || scratch[i].1 < need_count {
                return false;
            }
        }
        true
    }

    /// Collects all candidates of `u` from the graph's label index.
    pub fn candidates(&self, g: &Graph) -> Vec<VertexId> {
        let mut scratch = Vec::new();
        g.vertices_with_label(self.label)
            .iter()
            .copied()
            .filter(|&v| self.passes(g, v, &mut scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::{GraphBuilder, Label};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    /// Data graph: hub h(l0) connected to two l1 and one l2 vertex;
    /// lone vertex a(l0) connected to one l1 vertex.
    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        let h = b.add_vertex(l(0));
        let a = b.add_vertex(l(0));
        let x1 = b.add_vertex(l(1));
        let x2 = b.add_vertex(l(1));
        let y = b.add_vertex(l(2));
        let x3 = b.add_vertex(l(1));
        b.add_edge(h, x1).unwrap();
        b.add_edge(h, x2).unwrap();
        b.add_edge(h, y).unwrap();
        b.add_edge(a, x3).unwrap();
        b.build()
    }

    /// Query: u0(l0) adjacent to two l1 vertices.
    fn query_two_l1() -> QueryGraph {
        QueryGraph::new(vec![l(0), l(1), l(1)], &[(0, 1), (0, 2)]).unwrap()
    }

    #[test]
    fn nlf_rejects_undersupplied_neighbourhoods() {
        let g = graph();
        let q = query_two_l1();
        let f = CandidateFilter::new(&q, QueryVertexId::new(0));
        let cands = f.candidates(&g);
        // Only the hub has two l1 neighbours; `a` has one.
        assert_eq!(cands, vec![VertexId::new(0)]);
    }

    #[test]
    fn degree_filter() {
        let g = graph();
        let q = QueryGraph::new(vec![l(1), l(0), l(0)], &[(0, 1), (0, 2)]).unwrap();
        let f = CandidateFilter::new(&q, QueryVertexId::new(0));
        // l1 vertices all have degree 1 < 2 → no candidates.
        assert!(f.candidates(&g).is_empty());
    }

    #[test]
    fn label_filter() {
        let g = graph();
        let q = QueryGraph::new(vec![l(2), l(0)], &[(0, 1)]).unwrap();
        let f = CandidateFilter::new(&q, QueryVertexId::new(0));
        assert_eq!(f.candidates(&g), vec![VertexId::new(4)]);
    }

    #[test]
    fn passes_basic_is_a_superset_of_passes() {
        let g = graph();
        let q = query_two_l1();
        let f = CandidateFilter::new(&q, QueryVertexId::new(0));
        let mut scratch = Vec::new();
        for v in g.vertices() {
            if f.passes(&g, v, &mut scratch) {
                assert!(f.passes_basic(&g, v));
            }
        }
    }
}

//! CST construction (paper Algorithm 1).
//!
//! Three phases, mirroring the paper:
//! 1. **Top-down construction** (lines 3-7): candidates of each query vertex
//!    are computed by local features (label / degree, optionally NLF) and
//!    restricted to vertices adjacent to at least one candidate of the
//!    BFS-tree parent.
//! 2. **Bottom-up refinement** (lines 8-14): a candidate `v` of `u` is valid
//!    only if, for every child `u_c` of `u` in `t_q`, `v` has at least one
//!    neighbour among `C(u_c)`. Invalid candidates are removed.
//! 3. **Non-tree edges** (lines 15-19): adjacency lists are populated for
//!    every query edge (tree *and* non-tree) between the surviving sets —
//!    this is what makes the CST a *complete* search space (unlike CPI) and
//!    therefore partitionable (Section V-A, Remark).
//!
//! The paper's Remark stresses the trade-off between search-space size and
//! construction cost (the FPGA is idle while the CPU builds the CST), so the
//! pruning strength is configurable via [`CstOptions`]: the benches ablate
//! NLF and refinement against end-to-end time.

use crate::filter::CandidateFilter;
use crate::structure::{CsrAdj, Cst};
use graph_core::{BfsTree, Graph, QueryGraph, VertexId};

/// Pruning knobs for CST construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CstOptions {
    /// Apply the neighbour-label-frequency filter on top of label/degree.
    pub use_nlf: bool,
    /// Number of bottom-up refinement passes. The paper's CST runs one
    /// (equivalent to the first two of CS's three refinements, per the
    /// Remark in Section V-A); DAF's CS corresponds to more passes.
    pub refine_passes: u32,
}

impl Default for CstOptions {
    fn default() -> Self {
        CstOptions {
            use_nlf: true,
            refine_passes: 1,
        }
    }
}

impl CstOptions {
    /// Label/degree filtering only, no refinement — the weakest sound
    /// configuration (what the paper's Fig. 3(b) illustration shows).
    pub fn minimal() -> Self {
        CstOptions {
            use_nlf: false,
            refine_passes: 0,
        }
    }

    /// DAF-style candidate space: full filters plus repeated refinement.
    pub fn daf_cs() -> Self {
        CstOptions {
            use_nlf: true,
            refine_passes: 3,
        }
    }
}

/// Statistics of a CST construction run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Candidates right after top-down construction, per query vertex.
    pub candidates_before_refine: Vec<usize>,
    /// Candidates removed by the bottom-up refinement, per query vertex.
    pub removed_by_refine: Vec<usize>,
    /// Total directed adjacency entries in the final CST.
    pub adjacency_entries: usize,
    /// Neighbour visits of the top-down pass — the phase-1 scan work, in
    /// the same unit as `RootProfile::probe_entries`. Each distinct (query
    /// vertex, data vertex) pair is filtered at most once. **0 for seeded
    /// builds** ([`build_cst_seeded`]), which restrict a memoised candidate
    /// space instead of re-scanning the graph.
    pub topdown_entries: usize,
}

/// Builds the CST of `q` over `g` with default (strongest) pruning.
pub fn build_cst(q: &QueryGraph, g: &Graph, tree: &BfsTree) -> Cst {
    build_cst_with_stats(q, g, tree, CstOptions::default()).0
}

/// Computes the root candidate set (phase 1 for the root only): every data
/// vertex passing the root's local filters, sorted by vertex id. This is the
/// sharding axis of the parallel pipeline (`cst::pipeline`): splitting the
/// returned list into contiguous chunks and calling
/// [`build_cst_from_roots`] per chunk yields CSTs whose search spaces are
/// disjoint at the root.
pub fn root_candidates(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: CstOptions,
) -> Vec<VertexId> {
    let root = tree.root();
    let filter = CandidateFilter::new(q, root);
    let mut scratch = Vec::new();
    let mut cands: Vec<VertexId> = g
        .vertices_with_label(q.label(root))
        .iter()
        .copied()
        .filter(|&v| {
            if options.use_nlf {
                filter.passes(g, v, &mut scratch)
            } else {
                filter.passes_basic(g, v)
            }
        })
        .collect();
    cands.sort_unstable();
    cands
}

/// [`build_cst`] with explicit options and construction statistics.
pub fn build_cst_with_stats(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: CstOptions,
) -> (Cst, BuildStats) {
    let roots = root_candidates(q, g, tree, options);
    build_cst_from_roots(q, g, tree, options, roots)
}

/// The memoised phase-1 output handed to a seeded build: per query vertex,
/// exactly the sorted candidate list the top-down pass of
/// [`build_cst_from_roots`] would produce for the corresponding root chunk.
/// Produced by `RootProfile::seed_chunks` (the planner's probe already ran
/// the global top-down pass; restricting its candidate space to one shard's
/// roots is an integer sweep, not a filtered graph scan).
#[derive(Debug, Clone, Default)]
pub struct TopDownSeed {
    /// Sorted, deduplicated candidates per query vertex (indexed by query
    /// vertex index; the tree root's entry is the shard's root chunk).
    pub candidates: Vec<Vec<VertexId>>,
}

/// Builds the CST whose root candidate set is exactly `roots` (which must be
/// sorted, deduplicated, and a subset of [`root_candidates`]). Phases 2-3 of
/// Algorithm 1 run unchanged; only the root seeding differs. With the full
/// root candidate list this is exactly [`build_cst_with_stats`]; with a
/// chunk of it, the result is the shard CST of the parallel pipeline.
pub fn build_cst_from_roots(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: CstOptions,
    roots: Vec<VertexId>,
) -> (Cst, BuildStats) {
    let n = q.vertex_count();
    let filters: Vec<CandidateFilter> = q
        .vertices()
        .map(|u| CandidateFilter::new(q, u))
        .collect();

    // Membership bitmaps over data vertices, one per query vertex.
    let words = g.vertex_count().div_ceil(64);
    let mut member: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
    let mut candidates: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut topdown_entries = 0usize;

    let set = |bits: &mut [u64], v: VertexId| bits[v.index() / 64] |= 1 << (v.index() % 64);
    let test = |bits: &[u64], v: VertexId| bits[v.index() / 64] >> (v.index() % 64) & 1 == 1;

    let mut scratch = Vec::new();
    let passes = |filter: &CandidateFilter, g: &Graph, v: VertexId, scratch: &mut Vec<_>| {
        if options.use_nlf {
            filter.passes(g, v, scratch)
        } else {
            filter.passes_basic(g, v)
        }
    };

    // --- Phase 1: top-down construction (root seeded by the caller). ---
    let root = tree.root();
    {
        debug_assert!(roots.windows(2).all(|w| w[0] < w[1]), "roots sorted+dedup");
        for &v in &roots {
            set(&mut member[root.index()], v);
        }
        candidates[root.index()] = roots;
    }
    // Vertices that failed the current level's filter, so each data vertex
    // is filtered at most once per level; their words are zeroed at level
    // end (only this level's rejections live in the bitmap).
    let mut rejected_bits = vec![0u64; words];
    let mut rejected = Vec::new();
    for &u in &tree.bfs_order()[1..] {
        let up = tree.parent(u).expect("non-root has a parent");
        let filter = &filters[u.index()];
        // Take u's bitmap out so the parent candidate list can stay borrowed.
        let mut member_u = std::mem::take(&mut member[u.index()]);
        let mut cands = Vec::new();
        for &vp in &candidates[up.index()] {
            for &w in g.neighbors(vp) {
                topdown_entries += 1;
                if test(&member_u, w) || test(&rejected_bits, w) {
                    continue;
                }
                if passes(filter, g, w, &mut scratch) {
                    set(&mut member_u, w);
                    cands.push(w);
                } else {
                    set(&mut rejected_bits, w);
                    rejected.push(w);
                }
            }
        }
        for w in rejected.drain(..) {
            rejected_bits[w.index() / 64] = 0;
        }
        cands.sort_unstable();
        member[u.index()] = member_u;
        candidates[u.index()] = cands;
    }
    refine_and_materialise(q, g, tree, options, candidates, member, topdown_entries)
}

/// Builds the CST from a precomputed phase-1 candidate space: phases 2-3 of
/// Algorithm 1 (bottom-up refinement, adjacency materialisation for every
/// query edge) run unchanged on `seed.candidates` — exactly what the
/// top-down pass of [`build_cst_from_roots`] would have produced, so the
/// result is **bit-identical** to the unseeded build
/// (`tests/prop_seeded_build.rs`). The seed must come from a probe of the
/// *same* `(q, g, tree, options)` (the pipeline checks the plan's
/// provenance fingerprint before seeding); note that the adjacency — tree
/// and non-tree edges alike — is re-materialised from the graph here: the
/// probe's stride-sampled non-tree edge *samples* are a counting estimate
/// and are never used as exact candidates.
pub fn build_cst_seeded(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: CstOptions,
    seed: TopDownSeed,
) -> (Cst, BuildStats) {
    let n = q.vertex_count();
    assert_eq!(seed.candidates.len(), n, "seed covers every query vertex");
    let words = g.vertex_count().div_ceil(64);
    let mut member: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
    let set = |bits: &mut [u64], v: VertexId| bits[v.index() / 64] |= 1 << (v.index() % 64);
    for (u, cands) in seed.candidates.iter().enumerate() {
        debug_assert!(cands.windows(2).all(|w| w[0] < w[1]), "seed sorted+dedup");
        for &v in cands {
            set(&mut member[u], v);
        }
    }
    refine_and_materialise(q, g, tree, options, seed.candidates, member, 0)
}

/// Phases 2-3 of Algorithm 1, shared by the scanning and seeded entry
/// points: bottom-up refinement over the phase-1 candidate sets (with their
/// membership bitmaps), then adjacency materialisation for every directed
/// query edge.
fn refine_and_materialise(
    q: &QueryGraph,
    g: &Graph,
    tree: &BfsTree,
    options: CstOptions,
    mut candidates: Vec<Vec<VertexId>>,
    mut member: Vec<Vec<u64>>,
    topdown_entries: usize,
) -> (Cst, BuildStats) {
    let n = q.vertex_count();
    let mut stats = BuildStats {
        candidates_before_refine: vec![0; n],
        removed_by_refine: vec![0; n],
        adjacency_entries: 0,
        topdown_entries,
    };
    for (u, cands) in candidates.iter().enumerate() {
        stats.candidates_before_refine[u] = cands.len();
    }

    let set = |bits: &mut [u64], v: VertexId| bits[v.index() / 64] |= 1 << (v.index() % 64);
    let test = |bits: &[u64], v: VertexId| bits[v.index() / 64] >> (v.index() % 64) & 1 == 1;

    // --- Phase 2: bottom-up refinement (the paper runs a single pass;
    //     extra passes approximate DAF's CS). ---
    for _ in 0..options.refine_passes {
        for u in tree.bottom_up_order() {
            let children = tree.children(u);
            if children.is_empty() {
                continue;
            }
            let ui = u.index();
            let mut cands = std::mem::take(&mut candidates[ui]);
            let before = cands.len();
            cands.retain(|&v| {
                children.iter().all(|&uc| {
                    g.neighbors(v).iter().any(|&w| test(&member[uc.index()], w))
                })
            });
            stats.removed_by_refine[ui] = before - cands.len();
            // Rebuild the bitmap for u after removals.
            member[ui].iter_mut().for_each(|w| *w = 0);
            for &v in &cands {
                set(&mut member[ui], v);
            }
            candidates[ui] = cands;
        }
    }

    // --- Phase 3: adjacency for every directed query edge. ---
    let mut pairs = Vec::with_capacity(q.edge_count() * 2);
    for u in q.vertices() {
        for un in q.neighbors(u) {
            let adj = build_directed_adjacency(
                g,
                &candidates[u.index()],
                &candidates[un.index()],
                &member[un.index()],
            );
            stats.adjacency_entries += adj.targets.len();
            pairs.push(((u, un), adj));
        }
    }

    (Cst::from_parts(n, candidates, pairs), stats)
}

/// Builds the CSR adjacency `N^u_{u'}` from sorted candidate sets, using the
/// target-side membership bitmap to filter and a binary search to re-index.
fn build_directed_adjacency(
    g: &Graph,
    sources: &[VertexId],
    targets: &[VertexId],
    target_member: &[u64],
) -> CsrAdj {
    let test =
        |bits: &[u64], v: VertexId| bits[v.index() / 64] >> (v.index() % 64) & 1 == 1;
    let mut offsets = Vec::with_capacity(sources.len() + 1);
    let mut out_targets = Vec::new();
    offsets.push(0u32);
    for &v in sources {
        for &w in g.neighbors(v) {
            if test(target_member, w) {
                let j = targets
                    .binary_search(&w)
                    .expect("bitmap member must be in candidate vec") as u32;
                out_targets.push(j);
            }
        }
        // Graph adjacency is sorted by vertex id and `targets` is sorted, so
        // the produced indices are already ascending.
        offsets.push(out_targets.len() as u32);
    }
    CsrAdj {
        offsets,
        targets: out_targets,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use graph_core::{GraphBuilder, Label, QueryVertexId};

    fn l(x: u16) -> Label {
        Label::new(x)
    }

    fn qv(x: usize) -> QueryVertexId {
        QueryVertexId::from_index(x)
    }

    fn dv(x: u32) -> VertexId {
        VertexId::new(x)
    }

    /// The paper's running example: Fig. 1 query + data graph.
    /// Labels: A=0, B=1, C=2, D=3, E=4.
    fn fig1() -> (QueryGraph, Graph, BfsTree) {
        let q = QueryGraph::new(
            vec![l(0), l(1), l(2), l(3)],
            &[(0, 1), (0, 2), (1, 2), (2, 3)],
        )
        .unwrap();
        // Data graph of Fig. 1(b): v1,v2 (A); v4,v6 (B); v3,v5,v7 (C);
        // v8,v9,v10 (D); v11,v12 (E). Index 0 is an unused decoy.
        let mut b = GraphBuilder::new();
        let labels = [
            l(9),
            l(0), // v1 A
            l(0), // v2 A
            l(2), // v3 C
            l(1), // v4 B
            l(2), // v5 C
            l(1), // v6 B
            l(2), // v7 C
            l(3), // v8 D
            l(3), // v9 D
            l(3), // v10 D
            l(4), // v11 E
            l(4), // v12 E
        ];
        for &lab in &labels {
            b.add_vertex(lab);
        }
        let edges = [
            (1, 4),
            (1, 3),
            (2, 6),
            (2, 5),
            (2, 7),
            (4, 3),
            (6, 5),
            (6, 7),
            (3, 9),
            (5, 10),
            (8, 1),
            (7, 11),
            (9, 12),
        ];
        for (a, bb) in edges {
            b.add_edge(dv(a), dv(bb)).unwrap();
        }
        let g = b.build();
        let tree = BfsTree::new(&q, qv(0));
        (q, g, tree)
    }

    #[test]
    fn fig1_minimal_options_match_fig3_illustration() {
        // With label/degree filtering only and no refinement, the CST matches
        // the paper's Fig. 3(b) exactly — including the false-positive v7,
        // which has no D-labelled neighbour.
        let (q, g, tree) = fig1();
        let (cst, _) = build_cst_with_stats(&q, &g, &tree, CstOptions::minimal());
        cst.validate(&q).unwrap();
        assert_eq!(cst.candidates(qv(0)), &[dv(1), dv(2)]);
        assert_eq!(cst.candidates(qv(1)), &[dv(4), dv(6)]);
        assert_eq!(cst.candidates(qv(2)), &[dv(3), dv(5), dv(7)]);
        assert_eq!(cst.candidates(qv(3)), &[dv(9), dv(10)]);
        // Example 2: N^{u1}_{u2}(v6) = {v5, v7}.
        let i = cst.candidate_index(qv(1), dv(6)).unwrap();
        let ns: Vec<VertexId> = cst
            .neighbors(qv(1), i, qv(2))
            .iter()
            .map(|&j| cst.candidate(qv(2), j))
            .collect();
        assert_eq!(ns, vec![dv(5), dv(7)]);
        // Example 2: N^{u2}_{u3}(v3) = {v9}.
        let i3 = cst.candidate_index(qv(2), dv(3)).unwrap();
        let ns3: Vec<VertexId> = cst
            .neighbors(qv(2), i3, qv(3))
            .iter()
            .map(|&j| cst.candidate(qv(3), j))
            .collect();
        assert_eq!(ns3, vec![dv(9)]);
    }

    #[test]
    fn fig1_default_options_prune_v7() {
        // Full pruning removes v7 (no D neighbour ⇒ fails both NLF and the
        // bottom-up refinement). The CST stays sound: v7 is in no embedding.
        let (q, g, tree) = fig1();
        let (cst, stats) = build_cst_with_stats(&q, &g, &tree, CstOptions::default());
        cst.validate(&q).unwrap();
        assert_eq!(cst.candidates(qv(2)), &[dv(3), dv(5)]);
        assert_eq!(cst.candidates(qv(3)), &[dv(9), dv(10)]);
        assert!(stats.adjacency_entries > 0);
    }

    #[test]
    fn refinement_removes_leafless_candidates() {
        // Path query A-B-C; data has an A-B pair without any C below it.
        let q = QueryGraph::new(vec![l(0), l(1), l(2)], &[(0, 1), (1, 2)]).unwrap();
        let mut b = GraphBuilder::new();
        let a1 = b.add_vertex(l(0));
        let b1 = b.add_vertex(l(1));
        let c1 = b.add_vertex(l(2));
        let a2 = b.add_vertex(l(0));
        let b2 = b.add_vertex(l(1)); // b2 has no C neighbour
        b.add_edge(a1, b1).unwrap();
        b.add_edge(b1, c1).unwrap();
        b.add_edge(a2, b2).unwrap();
        let g = b.build();
        let tree = BfsTree::new(&q, qv(0));
        let opts = CstOptions {
            use_nlf: false,
            refine_passes: 1,
        };
        let (cst, stats) = build_cst_with_stats(&q, &g, &tree, opts);
        // b2 never enters C(u1): the degree filter rejects it top-down.
        assert_eq!(cst.candidates(qv(1)), &[b1]);
        // a2's only B neighbour is gone, so bottom-up refinement removes a2.
        assert_eq!(cst.candidates(qv(0)), &[a1]);
        assert_eq!(stats.removed_by_refine.iter().sum::<usize>(), 1);
    }

    #[test]
    fn soundness_every_embedding_is_in_cst() {
        // Random graph; check the soundness constraint (Section V-A) by
        // brute-force triangle enumeration over G.
        use graph_core::generators::random_labelled_graph;
        let q = QueryGraph::new(vec![l(0), l(1), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let g = random_labelled_graph(40, 0.25, 2, 17);
        let tree = BfsTree::new(&q, qv(0));
        for opts in [CstOptions::default(), CstOptions::minimal()] {
            let (cst, _) = build_cst_with_stats(&q, &g, &tree, opts);
            cst.validate(&q).unwrap();
            for a in g.vertices() {
                for bb in g.vertices() {
                    for c in g.vertices() {
                        let distinct = a != bb && bb != c && a != c;
                        if distinct
                            && g.label(a) == l(0)
                            && g.label(bb) == l(1)
                            && g.label(c) == l(0)
                            && g.has_edge(a, bb)
                            && g.has_edge(bb, c)
                            && g.has_edge(a, c)
                        {
                            assert!(cst.candidate_index(qv(0), a).is_some());
                            assert!(cst.candidate_index(qv(1), bb).is_some());
                            assert!(cst.candidate_index(qv(2), c).is_some());
                            // The candidate edges must be present too.
                            let ia = cst.candidate_index(qv(0), a).unwrap();
                            let ib = cst.candidate_index(qv(1), bb).unwrap();
                            let ic = cst.candidate_index(qv(2), c).unwrap();
                            assert!(cst.has_candidate_edge(qv(0), ia, qv(1), ib));
                            assert!(cst.has_candidate_edge(qv(1), ib, qv(2), ic));
                            assert!(cst.has_candidate_edge(qv(0), ia, qv(2), ic));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_when_label_missing() {
        let q = QueryGraph::new(vec![l(7), l(1)], &[(0, 1)]).unwrap();
        let mut b = GraphBuilder::new();
        let x = b.add_vertex(l(0));
        let y = b.add_vertex(l(1));
        b.add_edge(x, y).unwrap();
        let g = b.build();
        let tree = BfsTree::new(&q, qv(0));
        let cst = build_cst(&q, &g, &tree);
        assert!(cst.any_empty());
    }

    #[test]
    fn stronger_pruning_never_grows_the_cst() {
        use graph_core::generators::random_labelled_graph;
        let q = QueryGraph::new(vec![l(0), l(1), l(0), l(1)], &[(0, 1), (1, 2), (2, 3), (3, 0)])
            .unwrap();
        let g = random_labelled_graph(60, 0.15, 2, 3);
        let tree = BfsTree::new(&q, qv(0));
        let (full, _) = build_cst_with_stats(&q, &g, &tree, CstOptions::default());
        let (min, _) = build_cst_with_stats(&q, &g, &tree, CstOptions::minimal());
        assert!(full.total_candidates() <= min.total_candidates());
        assert!(full.size_bytes() <= min.size_bytes());
    }

    /// Path query A–B–C over a graph whose B-labelled hub is adjacent to
    /// every A root yet fails NLF (it has no C neighbour), so a top-down
    /// pass visits the same rejected vertex once per parent candidate. Two
    /// accepted B vertices share their A neighbours, so the C level
    /// revisits rejected A vertices too. Without NLF the hub passes.
    pub(crate) fn rejected_hub_fixture() -> (QueryGraph, Graph, BfsTree) {
        let q = QueryGraph::new(vec![l(0), l(1), l(2)], &[(0, 1), (1, 2)]).unwrap();
        let mut b = GraphBuilder::new();
        let roots: Vec<VertexId> = (0..24).map(|_| b.add_vertex(l(0))).collect();
        let hub = b.add_vertex(l(1));
        let b1 = b.add_vertex(l(1));
        let b2 = b.add_vertex(l(1));
        let lonely = b.add_vertex(l(1)); // degree 1: fails the degree filter
        let c1 = b.add_vertex(l(2));
        let c2 = b.add_vertex(l(2));
        for (i, &a) in roots.iter().enumerate() {
            b.add_edge(a, hub).unwrap();
            if i % 2 == 0 {
                b.add_edge(a, b1).unwrap();
                b.add_edge(a, b2).unwrap();
            }
        }
        b.add_edge(roots[1], lonely).unwrap();
        b.add_edge(b1, c1).unwrap();
        b.add_edge(b2, c1).unwrap();
        b.add_edge(b2, c2).unwrap();
        let g = b.build();
        let tree = BfsTree::new(&q, qv(0));
        (q, g, tree)
    }

    /// The top-down pass without the rejection memo: every neighbour visit
    /// runs the filter again.
    fn naive_build_from_roots(
        q: &QueryGraph,
        g: &Graph,
        tree: &BfsTree,
        options: CstOptions,
        roots: Vec<VertexId>,
    ) -> (Cst, BuildStats) {
        let n = q.vertex_count();
        let words = g.vertex_count().div_ceil(64);
        let mut member: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
        let mut candidates: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut entries = 0usize;
        let mut scratch = Vec::new();
        let root = tree.root();
        for &v in &roots {
            member[root.index()][v.index() / 64] |= 1 << (v.index() % 64);
        }
        candidates[root.index()] = roots;
        for &u in &tree.bfs_order()[1..] {
            let up = tree.parent(u).unwrap();
            let filter = CandidateFilter::new(q, u);
            let mut cands = Vec::new();
            for &vp in &candidates[up.index()] {
                for &w in g.neighbors(vp) {
                    entries += 1;
                    let bit = 1u64 << (w.index() % 64);
                    let passes = if options.use_nlf {
                        filter.passes(g, w, &mut scratch)
                    } else {
                        filter.passes_basic(g, w)
                    };
                    if member[u.index()][w.index() / 64] & bit == 0 && passes {
                        member[u.index()][w.index() / 64] |= bit;
                        cands.push(w);
                    }
                }
            }
            cands.sort_unstable();
            candidates[u.index()] = cands;
        }
        refine_and_materialise(q, g, tree, options, candidates, member, entries)
    }

    #[test]
    fn topdown_memo_matches_unmemoised_reference() {
        use graph_core::generators::random_labelled_graph;
        let (q, g, tree) = rejected_hub_fixture();
        let mut cases = vec![(q, g, tree)];
        let queries = [
            QueryGraph::new(vec![l(0), l(1), l(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap(),
            QueryGraph::new(
                vec![l(0), l(1), l(2), l(1)],
                &[(0, 1), (1, 2), (2, 3), (3, 0)],
            )
            .unwrap(),
        ];
        for seed in 0..4 {
            for q in &queries {
                let g = random_labelled_graph(80, 0.12, 3, seed);
                let tree = BfsTree::new(q, qv(0));
                cases.push((q.clone(), g, tree));
            }
        }
        for (q, g, tree) in &cases {
            for opts in [CstOptions::default(), CstOptions::minimal()] {
                let roots = root_candidates(q, g, tree, opts);
                let (cst, stats) = build_cst_from_roots(q, g, tree, opts, roots.clone());
                let (naive_cst, naive_stats) = naive_build_from_roots(q, g, tree, opts, roots);
                assert_eq!(cst, naive_cst);
                assert_eq!(stats, naive_stats);
            }
        }
        // The fixture really exercises the memo: NLF rejects the hub, which
        // every root reaches.
        let (q, g, tree) = &cases[0];
        let (cst, stats) = build_cst_with_stats(q, g, tree, CstOptions::default());
        assert_eq!(cst.candidates(qv(1)), &[dv(25), dv(26)]);
        assert!(stats.topdown_entries > 24);
        let (min, _) = build_cst_with_stats(q, g, tree, CstOptions::minimal());
        assert!(min.candidates(qv(1)).contains(&dv(24)));
    }
}

//! Construction of the §5.3 biconnectivity oracle (Algorithm 2).

use super::local::{analyze_local, build_local_graph, intra_path_bridge_free, ClusterCtx};
use super::BiconnectivityOracle;
use crate::labeling::NO_LABEL;
use wec_asym::{FxHashMap, Ledger};
use wec_baseline::UnionFind;
use wec_core::{BuildOpts, ClustersGraph, ImplicitDecomposition};
use wec_graph::{GraphView, Priorities, Vertex};
use wec_prims::tree_ops::leaffix;
use wec_prims::{EulerTour, LcaIndex, RootedForest};

/// Witness-BCC kind sentinel: extends upward into the parent.
const KIND_UP: u32 = u32::MAX;

/// Clusters per **accounting** chunk in the per-cluster passes (steps 2
/// and 3): each cluster costs O(k²) operations, so small chunks keep the
/// charged split tree fine-grained. Cluster sizes are skewed;
/// `scoped_par`'s execution grain forks several tasks per worker so the
/// work-stealing pool rebalances them, and the accounted numbers come from
/// this chunk structure alone.
const STEP_GRAIN: usize = 16;

/// Build the oracle with cluster parameter `k` (callers pass `√ω`).
/// O(n·k) expected operations, O(n/k) writes.
pub fn build_biconnectivity_oracle<'a, G: GraphView>(
    led: &mut Ledger,
    g: &'a G,
    pri: &'a Priorities,
    vertices: &[Vertex],
    k: usize,
    seed: u64,
    opts: BuildOpts,
) -> BiconnectivityOracle<'a, G> {
    let d = ImplicitDecomposition::build(led, g, pri, vertices, k, seed, opts);
    let centers = d.centers();
    let nc = centers.len();
    let idx: FxHashMap<Vertex, u32> = centers
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i as u32))
        .collect();
    led.op(nc as u64);

    // ---- Step 1: clusters spanning forest with witness edges. ----
    // The level-parallel BFS over the implicit clusters graph; each
    // discovered cluster records the crossing edge that found it, and each
    // root records 0 for both words, so every slot is written once.
    let cg = ClustersGraph::new(&d);
    let mut witness_inner = vec![0 as Vertex; nc];
    let mut witness_outer = vec![0 as Vertex; nc];
    let (cparent, _) = cg.spanning_forest(led, centers, &idx, |led, yd, _, e, _| {
        let (inner, outer) = e.map_or((0, 0), |e| (e.outer, e.inner));
        witness_inner[yd as usize] = inner;
        witness_outer[yd as usize] = outer;
        led.write(2);
    });
    let forest = RootedForest::from_parents(led, cparent);
    let tour = EulerTour::new(led, &forest);
    let lca = LcaIndex::new(led, &forest, &tour);

    // ---- Step 2: clusters-graph BC labeling (aux union-find). ----
    // Each center's O(k²) implicit edge listing and its low/high fold touch
    // only that center's slots, so the whole sweep fans out over per-worker
    // ledger scopes (split/merge contract) and merges in index order. `lo`
    // and `hi` are registers; each cluster writes its `w_low`/`w_high` pair
    // once, and one word per non-tree pair it lists.
    let (cg_ref, idx_ref, forest_ref, tour_ref) = (&cg, &idx, &forest, &tour);
    let step2 = led.scoped_par(nc, STEP_GRAIN, &|r, s| {
        let mut w = Vec::with_capacity(r.len());
        let mut pairs = Vec::new();
        for ci in r.start as u32..r.end as u32 {
            let pre = tour_ref.pre[ci as usize];
            let (mut lo, mut hi) = (pre, pre);
            for e in cg_ref.neighbor_edges(s.ledger(), centers[ci as usize]) {
                let yd = idx_ref[&e.center];
                s.op(2);
                let tree = forest_ref.parent(yd) == ci || forest_ref.parent(ci) == yd;
                if tree {
                    continue;
                }
                lo = lo.min(tour_ref.pre[yd as usize]);
                hi = hi.max(tour_ref.pre[yd as usize]);
                if ci < yd && !tour_ref.is_ancestor(ci, yd) && !tour_ref.is_ancestor(yd, ci) {
                    pairs.push((ci, yd));
                    s.write(1);
                }
            }
            w.push((lo, hi));
        }
        s.write(2 * r.len() as u64);
        (w, pairs)
    });
    let mut w_low = Vec::with_capacity(nc);
    let mut w_high = Vec::with_capacity(nc);
    let mut nontree_pairs: Vec<(u32, u32)> = Vec::new();
    for (w, pairs) in step2 {
        for (lo, hi) in w {
            w_low.push(lo);
            w_high.push(hi);
        }
        nontree_pairs.extend(pairs);
    }
    let low = leaffix(led, &forest, &tour, &w_low, |a, b| a.min(b));
    let high = leaffix(led, &forest, &tour, &w_high, |a, b| a.max(b));
    let mut critical = vec![false; nc];
    led.write(nc as u64 / 64 + 1);
    for d_id in 0..nc as u32 {
        let p = forest.parent(d_id);
        if p == d_id {
            continue;
        }
        led.read(4);
        if tour.first(p) <= low[d_id as usize] && high[d_id as usize] <= tour.last(p) {
            critical[d_id as usize] = true;
        }
    }
    let mut uf = UnionFind::new(nc);
    led.write(nc as u64);
    for &(a, b) in &nontree_pairs {
        led.read(2);
        if uf.union(a, b) {
            led.write(1);
        }
    }
    for d_id in 0..nc as u32 {
        let p = forest.parent(d_id);
        if p != d_id && !forest.is_root(p) && !critical[d_id as usize] {
            led.read(2);
            if uf.union(d_id, p) {
                led.write(1);
            }
        }
    }
    let dense_labels = uf.labels();
    led.read(nc as u64);
    let mut cg_label = vec![NO_LABEL; nc];
    led.write(nc as u64);
    for ci in 0..nc {
        if !forest.is_root(ci as u32) {
            cg_label[ci] = dense_labels[ci];
        }
    }

    // ---- Step 3: per-cluster local pass. ----
    // Every cluster's local-graph build + Hopcroft–Tarjan analysis is
    // independent. Its record holds its count of internal BCCs and one
    // `ChildRec` per cluster-tree child, in `forest.children` order; Step 4
    // reads the records where they lie, so nothing is scattered into
    // per-cluster arrays.
    struct ChildRec {
        pass_up: bool,
        bridge_wit: bool,
        seg_bridge: bool,
        witness_kind: u32,
    }
    let records: Vec<(u64, Vec<ChildRec>)> = {
        let ctx = ClusterCtx {
            centers,
            idx: &idx,
            forest: &forest,
            tour: &tour,
            witness_inner: &witness_inner,
            witness_outer: &witness_outer,
            cg_label: &cg_label,
        };
        let ctx_ref = &ctx;
        let d_ref = &d;
        led.scoped_par_map(nc, STEP_GRAIN, &|i, sc| {
            let ci = i as u32;
            let l = sc.ledger();
            let lg = build_local_graph(l, d_ref, ctx_ref, ci);
            let bcc = analyze_local(l, &lg);
            let internal = bcc.bcc_touches_parent.iter().filter(|&&up| !up).count() as u64;
            l.write(1);
            let ci_root = ctx_ref.witness_inner[ci as usize];
            let mut kids = Vec::new();
            for &cj in ctx_ref.forest.children(ci) {
                let xo = lg.child_outside(cj).expect("child outside vertex");
                let wo = ctx_ref.witness_outer[cj as usize];
                let pass_up = match lg.parent_outside {
                    Some(po) => bcc.same_bcc(l, xo, po),
                    None => true,
                };
                let bw = bcc.edge_is_bridge(l, &lg.csr, lg.index[&wo], xo);
                let sb = !ctx_ref.forest.is_root(ci)
                    && !intra_path_bridge_free(l, &lg, &bcc, wo, ci_root);
                // Witness-edge BCC kind for label resolution.
                let pos = lg
                    .csr
                    .arc_position(lg.index[&wo], xo)
                    .expect("witness edge present in local graph");
                let b = bcc.edge_bcc[lg.csr.neighbor_edge_ids(lg.index[&wo])[pos] as usize];
                let wk = if bcc.bcc_touches_parent[b as usize] {
                    KIND_UP
                } else {
                    bcc.internal_rank[b as usize]
                };
                l.write(4);
                kids.push(ChildRec {
                    pass_up,
                    bridge_wit: bw,
                    seg_bridge: sb,
                    witness_kind: wk,
                });
            }
            (internal, kids)
        })
    };

    // ---- Step 4: offsets, labels, blocked depths (top-down). ----
    let mut offset = vec![0u64; nc];
    let mut acc = 0u64;
    led.write(nc as u64 + 1);
    for (ci, &(internal, _)) in records.iter().enumerate() {
        offset[ci] = acc;
        acc += internal;
    }
    let num_main_bcc = acc;
    // In preorder, a root writes its own slots with the defaults, and each
    // cluster writes its children's slots from its Step 3 record. A
    // cluster's slots are final before its children read them, and each
    // slot is written once.
    let mut root_label = vec![0u64; nc];
    let mut blocked_v_depth = vec![0u32; nc];
    let mut blocked_e_depth = vec![0u32; nc];
    let mut bridge_wit = vec![false; nc];
    for &p in &tour.order {
        let pu = p as usize;
        // "Blocked" bits describe the transit through `p`: they only apply
        // when `p` is itself a non-root cluster (paths never transit upward
        // through a forest root).
        let parent_transits = !forest.is_root(p);
        if !parent_transits {
            root_label[pu] = u64::MAX;
            blocked_v_depth[pu] = u32::MAX;
            blocked_e_depth[pu] = u32::MAX;
            bridge_wit[pu] = false;
            led.write(4);
        }
        for (&c, rec) in forest.children(p).iter().zip(&records[pu].1) {
            let cu = c as usize;
            led.read(4);
            root_label[cu] = if rec.witness_kind == KIND_UP {
                root_label[pu]
            } else {
                offset[pu] + rec.witness_kind as u64
            };
            let marked_v = parent_transits && !rec.pass_up;
            let marked_e = parent_transits && (rec.bridge_wit || rec.seg_bridge);
            blocked_v_depth[cu] = if marked_v {
                tour.depth[cu]
            } else {
                blocked_v_depth[pu]
            };
            blocked_e_depth[cu] = if marked_e {
                tour.depth[cu]
            } else {
                blocked_e_depth[pu]
            };
            bridge_wit[cu] = rec.bridge_wit;
            led.write(4);
        }
    }

    BiconnectivityOracle {
        d,
        idx,
        forest,
        tour,
        lca,
        witness_inner,
        witness_outer,
        cg_label,
        blocked_v_depth,
        bridge_wit,
        blocked_e_depth,
        root_label,
        offset,
        num_main_bcc,
    }
}

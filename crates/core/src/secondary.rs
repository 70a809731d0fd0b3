//! `SECONDARYCENTERS` (Algorithm 1, lines 6–12): cap cluster sizes at `k`
//! by recursively planting secondary centers.
//!
//! Each call enumerates the first `k+1` members of `v`'s current cluster
//! (in the canonical order, so they form a tree containing `v`). If the
//! cluster exceeds `k`, a *splitter* vertex `u` is chosen so that `u`'s
//! subtree and the rest are both a constant fraction of `k`, `u` is written
//! to `S1` (the call's one asymmetric write), and the recursion continues
//! on `v` and `u`.
//!
//! **Splitter choice** (substituting for the Rosenberg–Heath separator the
//! paper cites): descend from the root into the child with the largest
//! subtree while the current subtree exceeds `k/2`. The step that drops to
//! `≤ k/2` lands on a child whose subtree holds at least `(k/2 − 1)/Δ`
//! vertices (Δ = degree bound), so both sides are Ω(k) for bounded degree.
//!
//! The parallel variant (Lemma 3.7) additionally marks all cluster-tree
//! children of the call root, which makes the recursion depth bounded by
//! the cluster-tree height while adding only O(Δ) writes per call.
//!
//! **Why both variants stay.** The marking is not what makes the parallel
//! pass correct: `ρ(v)` reads only the secondaries on `v`'s path to
//! `ρ0(v)`, so the recursions of different primaries are independent, and
//! the sequential rule run per primary plants the same set in any primary
//! order. Dropping the marking cuts the build's writes but leaves fewer,
//! larger clusters, and every biconnectivity predicate query then builds
//! larger local graphs (`query_cold` reads per query +33% in wecbench).
//! So the sequential rule is the write-lean build, and the marking is the
//! query-lean one.

use crate::centers::{CenterSet, OverlayCenters};
use crate::cluster::{enumerate_cluster, Cluster};
use wec_asym::{FxHashMap, Ledger};
use wec_graph::{GraphView, Priorities, Vertex};

/// Pick the splitter of an enumerated (truncated) cluster tree of size
/// `> k/2`: returns a non-root member whose subtree size is in
/// `[(k/2 − 1)/Δ, k/2]` for degree bound Δ.
pub fn pick_splitter(led: &mut Ledger, cluster: &Cluster) -> Vertex {
    let k = cluster.members.len();
    debug_assert!(k >= 2, "splitter needs at least 2 members");
    // Subtree sizes over the enumerated tree: reverse-order accumulation
    // (parents precede children in `members`).
    let mut size: FxHashMap<Vertex, usize> = FxHashMap::default();
    for &v in &cluster.members {
        size.insert(v, 1);
    }
    // Init + one accumulation per non-root member (exactly members − 1 in a
    // single-rooted cluster tree): known counts, charged in bulk.
    led.op(2 * cluster.members.len() as u64 - 1);
    for (&v, &p) in cluster.members.iter().zip(&cluster.parents).rev() {
        if p != v {
            let sv = size[&v];
            *size.get_mut(&p).unwrap() += sv;
        }
    }
    let kids = cluster.children_map();
    // Descend from the root along maximum-subtree children while the
    // subtree at hand still exceeds k/2.
    let half = k / 2;
    let mut cur = cluster.center;
    loop {
        let best = kids[&cur]
            .iter()
            .copied()
            .max_by_key(|&c| (size[&c], std::cmp::Reverse(c)))
            .expect("internal vertex with subtree > 1 has a child");
        led.op(kids[&cur].len() as u64 + 1);
        if size[&best] <= half {
            return best;
        }
        cur = best;
    }
}

/// Run `SECONDARYCENTERS(v)` sequentially against a mutable center set.
/// Returns the number of secondary centers added.
pub fn secondary_centers_seq<G: GraphView>(
    led: &mut Ledger,
    g: &G,
    pri: &Priorities,
    centers: &mut CenterSet,
    v: Vertex,
    k: usize,
) -> usize {
    let mut added = 0;
    let mut work = vec![v];
    while let Some(x) = work.pop() {
        let c = enumerate_cluster(led, g, pri, &*centers, x, k + 1);
        if c.members.len() <= k {
            continue; // cluster already within bound
        }
        // first k members define the tree to split
        let head = c.truncated_to(k);
        let u = pick_splitter(led, &head);
        centers.insert(led, u, crate::centers::CenterLabel::Secondary);
        added += 1;
        work.push(x);
        work.push(u);
    }
    added
}

/// The parallel variant against a thread-local overlay: also marks the
/// call root's cluster-tree children. Returns the local additions.
pub fn secondary_centers_overlay<G: GraphView>(
    led: &mut Ledger,
    g: &G,
    pri: &Priorities,
    base: &CenterSet,
    v: Vertex,
    k: usize,
) -> Vec<Vertex> {
    let mut overlay = OverlayCenters::new(base);
    // Recursion realized as fork-join over the work items so the ledger
    // records the parallel depth. Each item re-enumerates under the current
    // overlay; items within one primary cluster are sequentialized through
    // the overlay (they must see each other's additions), but distinct
    // *primaries* run in parallel at the caller.
    let mut work = vec![v];
    while let Some(x) = work.pop() {
        let c = enumerate_cluster(led, g, pri, &overlay, x, k + 1);
        if c.members.len() <= k {
            continue;
        }
        let head = c.truncated_to(k);
        // mark the root's children (parallel-variant extra writes)...
        let kids: Vec<Vertex> = head
            .members
            .iter()
            .zip(&head.parents)
            .filter(|&(&m, &p)| p == x && m != x)
            .map(|(&m, _)| m)
            .collect();
        // ...and the splitter.
        let u = pick_splitter(led, &head);
        for &cchild in &kids {
            overlay.add_secondary(led, cchild);
        }
        if !kids.contains(&u) {
            overlay.add_secondary(led, u);
            work.push(u);
        }
        for cchild in kids {
            work.push(cchild);
        }
    }
    overlay.into_local()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centers::{CenterLabel, CenterSet};
    use crate::rho::rho;
    use wec_graph::gen::{bounded_degree_connected, caterpillar, grid, path};

    fn primary_only(led: &mut Ledger, g: &impl GraphView, prim: &[Vertex]) -> CenterSet {
        let mut s = CenterSet::new(led, g.n());
        for &p in prim {
            s.insert(led, p, CenterLabel::Primary);
        }
        s
    }

    fn cluster_sizes<G: GraphView>(
        led: &mut Ledger,
        g: &G,
        pri: &Priorities,
        centers: &CenterSet,
        n: usize,
    ) -> FxHashMap<Vertex, usize> {
        let mut sizes: FxHashMap<Vertex, usize> = FxHashMap::default();
        for v in 0..n as u32 {
            let a = rho(led, g, pri, centers, v);
            *sizes.entry(a.center.vertex()).or_insert(0) += 1;
        }
        sizes
    }

    #[test]
    fn splitter_balances_a_path() {
        let g = path(20);
        let pri = Priorities::identity(20);
        let mut led = Ledger::new(8);
        let cs = primary_only(&mut led, &g, &[0]);
        let c = enumerate_cluster(&mut led, &g, &pri, &cs, 0, 10);
        let u = pick_splitter(&mut led, &c);
        // path tree: subtree of u has between (10/2-1)/2 and 10/2 members
        let pos = c.members.iter().position(|&m| m == u).unwrap();
        let subtree = c.members.len() - pos; // path: suffix is the subtree
        assert!((2..=5).contains(&subtree), "subtree {subtree}");
    }

    #[test]
    fn sequential_caps_cluster_sizes_on_path() {
        let k = 5;
        let g = path(50);
        let pri = Priorities::identity(50);
        let mut led = Ledger::new(8);
        let mut cs = primary_only(&mut led, &g, &[0]);
        let added = secondary_centers_seq(&mut led, &g, &pri, &mut cs, 0, k);
        assert!(added >= 50 / k - 2, "needs ~n/k secondaries, got {added}");
        let sizes = cluster_sizes(&mut led, &g, &pri, &cs, 50);
        assert_eq!(sizes.values().sum::<usize>(), 50);
        for (&c, &sz) in &sizes {
            assert!(sz <= k, "cluster {c} has {sz} > k={k}");
        }
    }

    #[test]
    fn sequential_caps_cluster_sizes_on_grid() {
        let k = 8;
        let g = grid(9, 9);
        let pri = Priorities::random(81, 3);
        let mut led = Ledger::new(8);
        let mut cs = primary_only(&mut led, &g, &[40]);
        secondary_centers_seq(&mut led, &g, &pri, &mut cs, 40, k);
        let sizes = cluster_sizes(&mut led, &g, &pri, &cs, 81);
        assert_eq!(sizes.values().sum::<usize>(), 81);
        assert!(sizes.values().all(|&sz| sz <= k));
    }

    #[test]
    fn caterpillar_worst_case_stays_bounded() {
        let k = 6;
        let g = caterpillar(20, 3); // 80 vertices, heavy shallow branching
        let n = g.n();
        let pri = Priorities::random(n, 9);
        let mut led = Ledger::new(8);
        let mut cs = primary_only(&mut led, &g, &[0]);
        let added = secondary_centers_seq(&mut led, &g, &pri, &mut cs, 0, k);
        let sizes = cluster_sizes(&mut led, &g, &pri, &cs, n);
        assert!(sizes.values().all(|&sz| sz <= k));
        // O(n/k) centers with a generous constant (degree ≤ 5 here)
        assert!(
            added <= 6 * n / k,
            "added {added} secondaries for n={n}, k={k}"
        );
    }

    #[test]
    fn overlay_variant_matches_partition_invariants() {
        let k = 5;
        let g = grid(8, 8);
        let pri = Priorities::random(64, 1);
        let mut led = Ledger::new(8);
        let mut cs = primary_only(&mut led, &g, &[10]);
        let local = secondary_centers_overlay(&mut led, &g, &pri, &cs, 10, k);
        for u in local {
            cs.insert(&mut led, u, CenterLabel::Secondary);
        }
        let sizes = cluster_sizes(&mut led, &g, &pri, &cs, 64);
        assert_eq!(sizes.values().sum::<usize>(), 64);
        assert!(sizes.values().all(|&sz| sz <= k), "sizes {:?}", sizes);
    }

    #[test]
    fn sequential_secondaries_do_not_depend_on_primary_order() {
        let graphs = [
            (grid(20, 20), 8),
            (bounded_degree_connected(600, 4, 150, 5), 6),
            (caterpillar(30, 3), 6),
        ];
        for (g, k) in graphs {
            let n = g.n();
            let pri = Priorities::random(n, 11);
            let primaries: Vec<Vertex> = (0..n as u32)
                .filter(|&v| pri.rank(v) % (2 * k as u32) == 0)
                .collect();
            let plant = |order: &[Vertex]| {
                let mut led = Ledger::sequential(8);
                let mut cs = primary_only(&mut led, &g, &primaries);
                for &p in order {
                    secondary_centers_seq(&mut led, &g, &pri, &mut cs, p, k);
                }
                cs.iter_uncharged().collect::<Vec<_>>()
            };
            let reversed: Vec<Vertex> = primaries.iter().rev().copied().collect();
            let forward = plant(&primaries);
            assert!(forward.len() > primaries.len(), "no secondaries planted");
            assert_eq!(forward, plant(&reversed), "n = {n}, k = {k}");
        }
    }

    #[test]
    fn small_cluster_adds_nothing() {
        let g = path(4);
        let pri = Priorities::identity(4);
        let mut led = Ledger::new(8);
        let mut cs = primary_only(&mut led, &g, &[0]);
        assert_eq!(secondary_centers_seq(&mut led, &g, &pri, &mut cs, 0, 10), 0);
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn one_write_per_secondary_center() {
        let k = 5;
        let g = path(60);
        let pri = Priorities::identity(60);
        let mut led = Ledger::new(8);
        let mut cs = primary_only(&mut led, &g, &[0]);
        let w0 = led.costs().asym_writes;
        let added = secondary_centers_seq(&mut led, &g, &pri, &mut cs, 0, k);
        let dw = led.costs().asym_writes - w0;
        assert!(
            dw <= 3 * added as u64 + 2,
            "writes {dw} for {added} additions"
        );
    }
}

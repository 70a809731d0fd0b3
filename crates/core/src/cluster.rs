//! Cluster enumeration `C(s)` (Lemma 3.5) and the cluster tree (Lemma 3.3).
//!
//! BFS from the center `s`, but a discovered vertex joins (and is expanded)
//! only if `ρ(v) = s` — correct because every member's canonical path to
//! its center stays inside the cluster (Corollary 3.4). Each membership
//! check costs one `ρ` evaluation, so enumeration costs O(k·|C(s)|)
//! expected operations and **no asymmetric writes**.
//!
//! A rejected neighbor's `ρ` already names the cluster it belongs to, so
//! the enumeration keeps it: [`Cluster::boundary`] maps every boundary
//! vertex to its center (2 symmetric words each). Listing clusters-graph
//! edges (Lemma 4.3) and building local graphs (§5.3) look centers up there
//! instead of evaluating `ρ` again, so each boundary vertex costs one `ρ`.
//!
//! Members are produced in a canonical, deterministic order — level by
//! level (levels are exact hop distances from `s`: canonical paths are
//! shortest paths, so no member can appear "early"), ranked within a level
//! by (cluster-tree parent's rank, own priority). Cluster-tree parents
//! always precede their children, which is what `SECONDARYCENTERS`' "first
//! k vertices form a tree" step needs.

use crate::centers::CenterLookup;
use crate::rho::rho;
use crate::scratch::{self, Pool, Recycle};
use std::cell::RefCell;
use wec_asym::{FxHashMap, FxHashSet, Ledger};
use wec_graph::{GraphView, Priorities, Vertex};

/// An enumerated cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The center (stored or implicit) this cluster belongs to.
    pub center: Vertex,
    /// Members in canonical enumeration order (`members[0] == center`).
    pub members: Vec<Vertex>,
    /// Cluster-tree parent of each member (center maps to itself), in the
    /// same order as `members`.
    pub parents: Vec<Vertex>,
    /// True if enumeration stopped at `limit` with members remaining.
    pub truncated: bool,
    /// The boundary memo: `(vertex, its center)` for each non-member
    /// neighbor of a member, sorted by vertex. Complete only when
    /// `truncated` is false.
    pub boundary: Vec<(Vertex, Vertex)>,
}

impl Cluster {
    /// Size enumerated (≤ limit).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty (never: contains at least the center).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Keep only the first `k` members — a parent-closed prefix — and mark
    /// the cluster truncated.
    pub fn truncated_to(mut self, k: usize) -> Cluster {
        self.members.truncate(k);
        self.parents.truncate(k);
        self.truncated = true;
        self
    }

    /// The center of boundary vertex `w`, from the memo (a symmetric
    /// lookup; callers charge it). `None` means `w` is not a boundary
    /// vertex — for a neighbor of a member, that it is a member.
    pub fn boundary_center(&self, w: Vertex) -> Option<Vertex> {
        debug_assert!(
            !self.truncated,
            "the boundary memo of a truncated cluster is partial"
        );
        self.boundary
            .binary_search_by_key(&w, |&(b, _)| b)
            .ok()
            .map(|i| self.boundary[i].1)
    }

    /// Children lists of the enumerated cluster tree, keyed by member, in
    /// member order.
    pub fn children_map(&self) -> FxHashMap<Vertex, Vec<Vertex>> {
        let mut map: FxHashMap<Vertex, Vec<Vertex>> = FxHashMap::default();
        for (&v, &p) in self.members.iter().zip(&self.parents) {
            map.entry(v).or_default();
            if p != v {
                map.entry(p).or_default().push(v);
            }
        }
        map
    }
}

/// The reusable buffers of one enumeration, pooled per worker like the
/// search scratch in [`crate::detbfs`].
#[derive(Default)]
struct ClusterScratch {
    /// Rank of each member of the current level within that level.
    rank_of: FxHashMap<Vertex, u32>,
    member_set: FxHashSet<Vertex>,
    non_members: FxHashSet<Vertex>,
    /// `(candidate, parent's rank, cluster-tree parent)`, one entry per
    /// edge into a member candidate.
    cand: Vec<(Vertex, u32, Vertex)>,
    /// One member's neighbors.
    nbrs: Vec<Vertex>,
    /// Deduplicated candidates keyed for the canonical sort:
    /// `(parent rank, own priority rank, vertex, parent)`.
    next: Vec<(u32, u32, Vertex, Vertex)>,
    /// The current level.
    level: Vec<Vertex>,
}

impl Recycle for ClusterScratch {
    fn clear_capped(&mut self) {
        self.rank_of.clear_capped();
        self.member_set.clear_capped();
        self.non_members.clear_capped();
        self.cand.clear_capped();
        self.nbrs.clear_capped();
        self.next.clear_capped();
        self.level.clear_capped();
    }
}

thread_local! {
    static POOL: Pool<ClusterScratch> = const { RefCell::new(Vec::new()) };
}

/// Enumerate up to `limit` members of the cluster centered at `s`.
/// `s` must actually be a center (stored, or the implicit minimum of a
/// center-less component).
pub fn enumerate_cluster<G: GraphView>(
    led: &mut Ledger,
    g: &G,
    pri: &Priorities,
    centers: &impl CenterLookup,
    s: Vertex,
    limit: usize,
) -> Cluster {
    debug_assert!(limit >= 1);
    let mut buf = scratch::take(&POOL);
    let ClusterScratch {
        rank_of,
        member_set,
        non_members,
        cand,
        nbrs,
        next,
        level,
    } = &mut buf;
    let mut members = vec![s];
    let mut parents = vec![s];
    let mut boundary = Vec::new();
    rank_of.insert(s, 0);
    member_set.insert(s);
    let mut truncated = false;
    let mut sym_words = 2u64;
    led.sym_alloc(2);
    led.op(1);

    level.push(s);
    'levels: while !level.is_empty() {
        // Candidates adjacent to the current level, with their parents.
        cand.clear();
        for &v in level.iter() {
            debug_assert!(rank_of.contains_key(&v));
            nbrs.clear();
            g.neighbors_into(led, v, nbrs);
            for &w in nbrs.iter() {
                led.op(1);
                if member_set.contains(&w) || non_members.contains(&w) {
                    continue;
                }
                // Membership test: one fresh, charged ρ evaluation — a
                // candidate seen from several members is tested each time.
                let a = rho(led, g, pri, centers, w);
                let c = a.center.vertex();
                if c != s {
                    // A boundary vertex: memoize its center.
                    non_members.insert(w);
                    boundary.push((w, c));
                    led.sym_alloc(2);
                    sym_words += 2;
                    continue;
                }
                // w's cluster-tree parent is a member at the previous level
                // (= current `level`); order candidates by its rank.
                debug_assert!(member_set.contains(&a.parent_hop) || a.parent_hop == w);
                let pr = rank_of.get(&a.parent_hop).copied().unwrap_or(u32::MAX);
                cand.push((w, pr, a.parent_hop));
            }
        }
        if cand.is_empty() {
            break;
        }
        // ρ is a function of w, so every entry of one candidate is the
        // same; keep one.
        cand.sort_unstable();
        cand.dedup_by_key(|e| e.0);
        next.clear();
        next.extend(cand.iter().map(|&(w, pr, p)| (pr, pri.rank(w), w, p)));
        next.sort_unstable();
        led.op(next.len() as u64 * 4);
        for (rank, &(_, _, w, p)) in next.iter().enumerate() {
            if members.len() >= limit {
                truncated = true;
                break 'levels;
            }
            members.push(w);
            parents.push(p);
            member_set.insert(w);
            rank_of.insert(w, rank as u32);
            led.sym_alloc(3);
            sym_words += 3;
        }
        // ranks of the previous level are no longer needed
        for v in level.iter() {
            rank_of.remove(v);
        }
        level.clear();
        level.extend(next.iter().map(|&(_, _, w, _)| w));
    }
    led.sym_free(sym_words);
    scratch::give(&POOL, buf);
    boundary.sort_unstable();
    Cluster {
        center: s,
        members,
        parents,
        truncated,
        boundary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centers::{CenterLabel, CenterSet};
    use crate::scratch::SCRATCH_CAP;
    use wec_graph::gen::{grid, path, star};
    use wec_graph::Csr;

    fn centers_of(led: &mut Ledger, prim: &[Vertex], sec: &[Vertex]) -> CenterSet {
        let ids = prim.iter().chain(sec).max().map_or(0, |&m| m as usize + 1);
        let mut s = CenterSet::new(led, ids);
        for &p in prim {
            s.insert(led, p, CenterLabel::Primary);
        }
        for &x in sec {
            s.insert(led, x, CenterLabel::Secondary);
        }
        s
    }

    #[test]
    fn path_clusters_partition() {
        let g = path(10);
        let pri = Priorities::identity(10);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[0, 9], &[]);
        let c0 = enumerate_cluster(&mut led, &g, &pri, &cs, 0, usize::MAX);
        let c9 = enumerate_cluster(&mut led, &g, &pri, &cs, 9, usize::MAX);
        let mut all: Vec<_> = c0
            .members
            .iter()
            .chain(c9.members.iter())
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert!(!c0.truncated && !c9.truncated);
        assert_eq!(c0.members[0], 0);
    }

    #[test]
    fn secondary_center_splits_cluster() {
        let g = path(10);
        let pri = Priorities::identity(10);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[0], &[5]);
        let c0 = enumerate_cluster(&mut led, &g, &pri, &cs, 0, usize::MAX);
        let c5 = enumerate_cluster(&mut led, &g, &pri, &cs, 5, usize::MAX);
        assert_eq!(c0.members.len(), 5); // 0..=4
        assert_eq!(c5.members.len(), 5); // 5..=9
        assert!(c5.members.contains(&9));
        assert!(!c0.members.contains(&5));
    }

    #[test]
    fn parents_form_tree_rooted_at_center() {
        let g = grid(5, 5);
        let pri = Priorities::random(25, 4);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[12], &[]);
        let c = enumerate_cluster(&mut led, &g, &pri, &cs, 12, usize::MAX);
        assert_eq!(c.members.len(), 25);
        assert_eq!(c.parents[0], 12);
        use wec_asym::FxHashSet;
        let mut seen: FxHashSet<Vertex> = FxHashSet::default();
        for (i, (&v, &p)) in c.members.iter().zip(&c.parents).enumerate() {
            if i == 0 {
                assert_eq!(v, p);
            } else {
                assert!(
                    seen.contains(&p),
                    "parent {p} of {v} must be enumerated earlier"
                );
                assert!(
                    g.neighbors(v).contains(&p),
                    "tree edge must be a graph edge"
                );
            }
            seen.insert(v);
        }
    }

    #[test]
    fn truncation_respects_limit_and_tree_closure() {
        let g = grid(6, 6);
        let pri = Priorities::random(36, 7);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[0], &[]);
        let c = enumerate_cluster(&mut led, &g, &pri, &cs, 0, 10);
        assert!(c.truncated);
        assert_eq!(c.members.len(), 10);
        use wec_asym::FxHashSet;
        let set: FxHashSet<Vertex> = c.members.iter().copied().collect();
        for (&v, &p) in c.members.iter().zip(&c.parents) {
            assert!(v == p || set.contains(&p), "prefix must be parent-closed");
        }
    }

    #[test]
    fn enumeration_is_deterministic_and_write_free() {
        let g = grid(5, 5);
        let pri = Priorities::random(25, 11);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[3, 17], &[8]);
        let w0 = led.costs().asym_writes;
        let a = enumerate_cluster(&mut led, &g, &pri, &cs, 3, usize::MAX);
        let b = enumerate_cluster(&mut led, &g, &pri, &cs, 3, usize::MAX);
        assert_eq!(a.members, b.members);
        assert_eq!(a.parents, b.parents);
        assert_eq!(led.costs().asym_writes, w0);
        assert_eq!(led.sym_live(), 0);
    }

    #[test]
    fn cluster_members_rho_back_to_center() {
        let g = grid(4, 6);
        let pri = Priorities::random(24, 2);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[1, 20], &[10]);
        for s in [1u32, 20, 10] {
            let c = enumerate_cluster(&mut led, &g, &pri, &cs, s, usize::MAX);
            for &v in &c.members {
                let a = rho(&mut led, &g, &pri, &cs, v);
                assert_eq!(a.center.vertex(), s, "member {v} of cluster {s}");
            }
        }
    }

    #[test]
    fn implicit_cluster_enumerates_whole_component() {
        let g = Csr::from_edges(7, &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]);
        let pri = Priorities::identity(7);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[0], &[]); // second component centerless
        let c = enumerate_cluster(&mut led, &g, &pri, &cs, 3, usize::MAX);
        let mut m = c.members.clone();
        m.sort_unstable();
        assert_eq!(m, vec![3, 4, 5, 6]);
    }

    #[test]
    fn children_map_inverts_parents() {
        let g = path(6);
        let pri = Priorities::identity(6);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[0], &[]);
        let c = enumerate_cluster(&mut led, &g, &pri, &cs, 0, usize::MAX);
        let kids = c.children_map();
        assert_eq!(kids[&0], vec![1]);
        assert_eq!(kids[&4], vec![5]);
        assert!(kids[&5].is_empty());
    }

    #[test]
    fn interleaved_enumerations_match_runs_on_a_fresh_thread() {
        let graphs = [grid(6, 6), path(12), grid(9, 5)];
        let pris = [
            Priorities::random(36, 7),
            Priorities::identity(12),
            Priorities::random(45, 1),
        ];
        let mut led = Ledger::new(8);
        let centers = [
            centers_of(&mut led, &[0, 35], &[14]),
            centers_of(&mut led, &[0, 11], &[5]),
            centers_of(&mut led, &[2, 40], &[22]),
        ];
        let run = |i: usize, s: Vertex, limit: usize| {
            let mut led = Ledger::new(8);
            let c = enumerate_cluster(&mut led, &graphs[i], &pris[i], &centers[i], s, limit);
            let out = (c.members, c.parents, c.truncated, c.boundary);
            (out, led.costs(), led.depth(), led.sym_peak())
        };
        let calls = [
            (0, 0, usize::MAX),
            (1, 5, usize::MAX),
            (2, 40, 7),
            (0, 14, usize::MAX),
            (1, 0, 3),
            (2, 22, usize::MAX),
            (0, 35, 4),
            (1, 11, usize::MAX),
            (2, 2, usize::MAX),
        ];
        for _ in 0..3 {
            for &(i, s, limit) in &calls {
                let fresh = std::thread::scope(|t| t.spawn(|| run(i, s, limit)).join().unwrap());
                assert_eq!(run(i, s, limit), fresh, "graph {i}, center {s}");
            }
        }
    }

    #[test]
    fn enumerating_a_huge_cluster_leaves_the_pool_capped() {
        // Every leaf's ρ is the hub after one level, so the hub's cluster
        // is the whole star: far more members than a pooled buffer keeps.
        let n = 4 * SCRATCH_CAP;
        let g = star(n);
        let pri = Priorities::identity(n);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[0], &[]);
        let c = enumerate_cluster(&mut led, &g, &pri, &cs, 0, usize::MAX);
        assert_eq!(c.len(), n);
        POOL.with(|p| {
            let p = p.borrow();
            assert!(!p.is_empty(), "the enumeration returned its buffers");
            for b in p.iter() {
                for cap in [
                    b.rank_of.capacity(),
                    b.member_set.capacity(),
                    b.non_members.capacity(),
                    b.cand.capacity(),
                    b.nbrs.capacity(),
                    b.next.capacity(),
                    b.level.capacity(),
                ] {
                    assert!(cap <= SCRATCH_CAP, "capacity {cap}");
                }
            }
        });
    }
}

//! Rooted forests and Euler-tour (preorder) numbering.
//!
//! The paper's biconnectivity machinery labels each vertex with
//! `first(v)`/`last(v)`, the ranks of its first/last appearance on the Euler
//! tour of a rooted spanning tree. We use the equivalent preorder form:
//! `first(v) = pre(v)` and `last(v) = pre(v) + size(v) − 1`, so that
//! "subtree of `p` contains `u`" is the interval test
//! `pre(p) ≤ pre(u) ≤ last(p)`. Interval nesting is exactly the property the
//! Tarjan–Vishkin critical-edge predicate needs.

use wec_asym::Ledger;
use wec_graph::Vertex;

use crate::bfs::UNREACHED;

/// A rooted forest given by a parent array (`parent[root] = root`,
/// [`UNREACHED`] for vertices outside the forest), with materialized
/// children lists.
#[derive(Debug, Clone)]
pub struct RootedForest {
    parent: Vec<Vertex>,
    roots: Vec<Vertex>,
    children_off: Vec<u32>,
    children: Vec<Vertex>,
}

impl RootedForest {
    /// Build children lists by counting sort. Charges O(n) reads/writes.
    ///
    /// Shifted offsets: `p`'s child count goes to `children_off[p + 2]`;
    /// after the prefix sum `children_off[p + 1]` is where `p`'s children
    /// start, and placing through it as a cursor leaves it at their end,
    /// which is where `p + 1`'s children start. No separate degree or cursor
    /// array.
    pub fn from_parents(led: &mut Ledger, parent: Vec<Vertex>) -> Self {
        let n = parent.len();
        let mut children_off = vec![0u32; n + 2];
        let mut roots = Vec::new();
        led.read(n as u64);
        for v in 0..n as u32 {
            let p = parent[v as usize];
            if p == UNREACHED {
                continue;
            }
            if p == v {
                roots.push(v);
            } else {
                children_off[p as usize + 2] += 1;
            }
        }
        led.write(n as u64); // degree counters
        for i in 2..n + 2 {
            children_off[i] += children_off[i - 1];
        }
        led.write(n as u64 + 1);
        let mut children = vec![0 as Vertex; children_off[n + 1] as usize];
        for v in 0..n as u32 {
            let p = parent[v as usize];
            if p != UNREACHED && p != v {
                let slot = &mut children_off[p as usize + 1];
                children[*slot as usize] = v;
                *slot += 1;
            }
        }
        children_off.pop();
        led.write(children.len() as u64);
        RootedForest {
            parent,
            roots,
            children_off,
            children,
        }
    }

    /// Number of vertex slots (including out-of-forest ids).
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `v` (`v` itself for roots).
    #[inline]
    pub fn parent(&self, v: Vertex) -> Vertex {
        self.parent[v as usize]
    }

    /// Whether `v` belongs to the forest.
    #[inline]
    pub fn in_forest(&self, v: Vertex) -> bool {
        self.parent[v as usize] != UNREACHED
    }

    /// Whether `v` is a root.
    #[inline]
    pub fn is_root(&self, v: Vertex) -> bool {
        self.parent[v as usize] == v
    }

    /// Roots of the forest.
    pub fn roots(&self) -> &[Vertex] {
        &self.roots
    }

    /// Children of `v` (insertion order = vertex id order).
    #[inline]
    pub fn children(&self, v: Vertex) -> &[Vertex] {
        let (lo, hi) = (
            self.children_off[v as usize] as usize,
            self.children_off[v as usize + 1] as usize,
        );
        &self.children[lo..hi]
    }

    /// Words of storage: parents, roots, child offsets and child lists.
    pub fn words(&self) -> usize {
        self.parent.len() + self.roots.len() + self.children_off.len() + self.children.len()
    }
}

/// Preorder numbering of a rooted forest: `pre`, subtree `size`, `depth`,
/// and the preorder vertex sequence.
#[derive(Debug, Clone)]
pub struct EulerTour {
    /// Preorder index (`first(v)`), [`UNREACHED`] outside the forest.
    pub pre: Vec<u32>,
    /// Subtree size (0 outside the forest).
    pub size: Vec<u32>,
    /// Depth from the owning root (root depth 0).
    pub depth: Vec<u32>,
    /// Vertices in preorder (trees concatenated in root order).
    pub order: Vec<Vertex>,
}

impl EulerTour {
    /// Iterative DFS preorder. Charges 1 read per parent/child link touched
    /// and 3 writes per in-forest vertex (pre, size, depth records).
    pub fn new(led: &mut Ledger, forest: &RootedForest) -> Self {
        let n = forest.n();
        let mut pre = vec![UNREACHED; n];
        let mut size = vec![0u32; n];
        let mut depth = vec![0u32; n];
        let mut order = Vec::new();
        let mut counter = 0u32;
        // Explicit stack: (vertex, next child index).
        let mut stack: Vec<(Vertex, usize)> = Vec::new();
        for &r in forest.roots() {
            led.op(1);
            pre[r as usize] = counter;
            counter += 1;
            depth[r as usize] = 0;
            order.push(r);
            led.write(3);
            stack.push((r, 0));
            while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
                let kids = forest.children(v);
                led.read(1);
                if *ci < kids.len() {
                    let c = kids[*ci];
                    *ci += 1;
                    pre[c as usize] = counter;
                    counter += 1;
                    depth[c as usize] = depth[v as usize] + 1;
                    order.push(c);
                    led.write(3);
                    stack.push((c, 0));
                } else {
                    stack.pop();
                    let sz = 1 + kids.iter().map(|&c| size[c as usize]).sum::<u32>();
                    led.read(kids.len() as u64);
                    size[v as usize] = sz;
                    led.write(1);
                }
            }
        }
        EulerTour {
            pre,
            size,
            depth,
            order,
        }
    }

    /// `first(v)` — preorder rank.
    #[inline]
    pub fn first(&self, v: Vertex) -> u32 {
        self.pre[v as usize]
    }

    /// `last(v)` — preorder rank of the last vertex in `v`'s subtree.
    #[inline]
    pub fn last(&self, v: Vertex) -> u32 {
        self.pre[v as usize] + self.size[v as usize] - 1
    }

    /// Whether `anc`'s subtree contains `v` (reflexive).
    #[inline]
    pub fn is_ancestor(&self, anc: Vertex, v: Vertex) -> bool {
        let (p, q) = (self.pre[anc as usize], self.pre[v as usize]);
        p != UNREACHED && q != UNREACHED && p <= q && q <= self.last(anc)
    }

    /// Number of in-forest vertices.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Words of storage: `pre`, `size`, `depth` and `order`.
    pub fn words(&self) -> usize {
        self.pre.len() + self.size.len() + self.depth.len() + self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// parent array for a small fixed tree:
    ///        0
    ///      / | \
    ///     1  2  3
    ///    / \     \
    ///   4   5     6
    fn small_tree() -> Vec<Vertex> {
        vec![0, 0, 0, 0, 1, 1, 3]
    }

    #[test]
    fn forest_children_and_roots() {
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, small_tree());
        assert_eq!(f.roots(), &[0]);
        assert_eq!(f.children(0), &[1, 2, 3]);
        assert_eq!(f.children(1), &[4, 5]);
        assert_eq!(f.children(4), &[] as &[Vertex]);
        assert!(f.is_root(0));
        assert!(!f.is_root(4));
    }

    #[test]
    fn preorder_intervals_nest() {
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, small_tree());
        let t = EulerTour::new(&mut led, &f);
        assert_eq!(t.first(0), 0);
        assert_eq!(t.size[0], 7);
        assert_eq!(t.last(0), 6);
        assert_eq!(t.depth[4], 2);
        // every child interval nested in parent interval
        for v in 1..7u32 {
            let p = f.parent(v);
            assert!(t.first(p) < t.first(v));
            assert!(t.last(v) <= t.last(p));
        }
        assert!(t.is_ancestor(1, 5));
        assert!(t.is_ancestor(0, 6));
        assert!(!t.is_ancestor(1, 6));
        assert!(t.is_ancestor(2, 2));
    }

    #[test]
    fn order_is_a_permutation_in_preorder() {
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, small_tree());
        let t = EulerTour::new(&mut led, &f);
        assert_eq!(t.order.len(), 7);
        for (i, &v) in t.order.iter().enumerate() {
            assert_eq!(t.pre[v as usize], i as u32);
        }
        // parents precede children
        for v in 1..7u32 {
            assert!(t.first(f.parent(v)) < t.first(v));
        }
    }

    #[test]
    fn forest_with_unreached_and_multiple_roots() {
        // two trees {0<-1} and {2<-3}, vertex 4 outside
        let parent = vec![0, 0, 2, 2, UNREACHED];
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, parent);
        assert_eq!(f.roots(), &[0, 2]);
        assert!(!f.in_forest(4));
        let t = EulerTour::new(&mut led, &f);
        assert_eq!(t.len(), 4);
        assert_eq!(t.pre[4], UNREACHED);
        assert_eq!(t.size[2], 2);
        assert!(!t.is_ancestor(0, 3));
        assert!(!t.is_ancestor(4, 0));
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        let n = 200_000;
        let mut parent: Vec<Vertex> = (0..n as u32).map(|v| v.saturating_sub(1)).collect();
        parent[0] = 0;
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, parent);
        let t = EulerTour::new(&mut led, &f);
        assert_eq!(t.depth[n - 1], (n - 1) as u32);
        assert_eq!(t.size[0], n as u32);
    }

    #[test]
    fn euler_write_count_linear() {
        let n = 10_000usize;
        let mut parent: Vec<Vertex> = (0..n as u32).map(|v| v / 2).collect();
        parent[0] = 0;
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, parent);
        let w0 = led.costs().asym_writes;
        let _t = EulerTour::new(&mut led, &f);
        let w = led.costs().asym_writes - w0;
        assert!(w <= 4 * n as u64, "euler writes {w} should be ≤ 4n");
    }
}

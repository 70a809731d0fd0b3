//! Vertex priorities: the paper's "global ordering of the vertices".
//!
//! The deterministic tie-breaking BFS of Section 3 requires a total order on
//! vertices; the paper assumes an arbitrary one. We use a seeded random
//! permutation by default (identity for debugging). "Higher priority" means
//! *smaller* priority value, matching the figure's "lower letters have
//! higher priorities".

use crate::Vertex;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A total order on `0..n`: `rank(v)` is `v`'s position in the order, and
/// the vertex with the smallest rank has the highest priority.
#[derive(Debug, Clone)]
pub struct Priorities {
    rank: Vec<u32>,
}

impl Priorities {
    /// Identity order: vertex id = rank.
    pub fn identity(n: usize) -> Self {
        Priorities {
            rank: (0..n as u32).collect(),
        }
    }

    /// A seeded uniformly random total order.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut order: Vec<Vertex> = (0..n as u32).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        order.shuffle(&mut rng);
        let mut rank = vec![0u32; n];
        for (pos, &v) in order.iter().enumerate() {
            rank[v as usize] = pos as u32;
        }
        Priorities { rank }
    }

    /// Build from an explicit rank array (used by tests to force specific
    /// tie-breaks, e.g. to replicate Figure 1's "lower letters win").
    pub fn from_ranks(rank: Vec<u32>) -> Self {
        let n = rank.len();
        let mut seen = vec![false; n];
        for &r in &rank {
            assert!(
                (r as usize) < n && !seen[r as usize],
                "rank array must be a permutation"
            );
            seen[r as usize] = true;
        }
        Priorities { rank }
    }

    /// Number of vertices covered.
    pub fn n(&self) -> usize {
        self.rank.len()
    }

    /// Rank of `v` (smaller = higher priority).
    #[inline]
    pub fn rank(&self, v: Vertex) -> u32 {
        self.rank[v as usize]
    }

    /// Whether `a` beats `b` (strictly higher priority).
    #[inline]
    pub fn beats(&self, a: Vertex, b: Vertex) -> bool {
        self.rank[a as usize] < self.rank[b as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_ranks() {
        let p = Priorities::identity(5);
        assert_eq!(p.rank(3), 3);
        assert!(p.beats(1, 2));
    }

    #[test]
    fn random_is_permutation_and_deterministic() {
        let p1 = Priorities::random(100, 7);
        let p2 = Priorities::random(100, 7);
        let p3 = Priorities::random(100, 8);
        let mut seen = [false; 100];
        for v in 0..100u32 {
            assert_eq!(p1.rank(v), p2.rank(v));
            assert!(!seen[p1.rank(v) as usize]);
            seen[p1.rank(v) as usize] = true;
        }
        assert!((0..100u32).any(|v| p1.rank(v) != p3.rank(v)));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn from_ranks_rejects_duplicates() {
        let _ = Priorities::from_ranks(vec![0, 0, 1]);
    }
}

//! Uncharged structural helpers for tests and harnesses (plain BFS etc.).
//!
//! Nothing here participates in the cost model — these are ground-truth
//! utilities used to validate the model-charged algorithms.

use crate::csr::Csr;
use crate::Vertex;
use std::collections::VecDeque;

/// Component id per vertex and the number of components (plain BFS).
pub fn components(g: &Csr) -> (Vec<u32>, usize) {
    let n = g.n();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for s in 0..n as u32 {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        comp[s as usize] = count;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if comp[w as usize] == u32::MAX {
                    comp[w as usize] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    (comp, count as usize)
}

/// Whether the graph is connected (vacuously true for `n ≤ 1`).
pub fn is_connected(g: &Csr) -> bool {
    g.n() <= 1 || components(g).1 == 1
}

/// Hop distances from `src` (`u32::MAX` = unreachable). Plain BFS.
pub fn bfs_distances(g: &Csr, src: Vertex) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    dist[src as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        for &w in g.neighbors(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Whether the subgraph induced by `verts` is connected.
pub fn induced_connected(g: &Csr, verts: &[Vertex]) -> bool {
    if verts.len() <= 1 {
        return true;
    }
    use wec_asym::FxHashSet;
    let inside: FxHashSet<Vertex> = verts.iter().copied().collect();
    let mut seen: FxHashSet<Vertex> = Default::default();
    let mut queue = VecDeque::new();
    seen.insert(verts[0]);
    queue.push_back(verts[0]);
    while let Some(v) = queue.pop_front() {
        for &w in g.neighbors(v) {
            if inside.contains(&w) && seen.insert(w) {
                queue.push_back(w);
            }
        }
    }
    seen.len() == verts.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{cycle, disjoint_union, grid, path};

    #[test]
    fn components_on_union() {
        let g = disjoint_union(&[&path(3), &cycle(4), &path(1)]);
        let (comp, k) = components(&g);
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert!(!is_connected(&g));
        assert!(is_connected(&path(5)));
    }

    #[test]
    fn bfs_distance_on_path() {
        let d = bfs_distances(&path(6), 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn induced_checks() {
        let g = grid(3, 3);
        assert!(induced_connected(&g, &[0, 1, 2]));
        assert!(!induced_connected(&g, &[0, 8]));
    }
}

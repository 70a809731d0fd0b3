//! The [`GraphView`] abstraction: ledger-charged neighbor enumeration.
//!
//! The paper's §4.3 runs connectivity over a *clusters graph that is never
//! materialized* — its edges are produced on demand by decomposition queries
//! that each cost `O(k²)` operations. Algorithms that must work over both
//! explicit CSR graphs and such implicit graphs are written against this
//! trait, which threads the cost ledger through neighbor enumeration so the
//! implicit representation can charge its query costs.

use crate::csr::Csr;
use crate::Vertex;
use wec_asym::Ledger;

/// An undirected graph whose adjacency can be enumerated at a model cost.
pub trait GraphView: Sync {
    /// Number of vertices (ids are `0..n`). For implicit views this may be
    /// an id-space *bound* with holes; `is_vertex` discriminates.
    fn n(&self) -> usize;

    /// Whether `v` is an actual vertex of the view.
    fn is_vertex(&self, v: Vertex) -> bool {
        (v as usize) < self.n()
    }

    /// Append the neighbors of `v` to `out`, charging `led` for the reads
    /// (and, for implicit views, the query operations) this costs.
    fn neighbors_into(&self, led: &mut Ledger, v: Vertex, out: &mut Vec<Vertex>);

    /// A cheap upper bound on the degree of `v`, when available, for
    /// preallocation. 0 means unknown.
    fn degree_hint(&self, _v: Vertex) -> usize {
        0
    }

    /// The first neighbor of `v`, in [`GraphView::neighbors_into`] order,
    /// for which `hit` returns true; `hit` sees the neighbors in that order
    /// and is not called past the first hit. The default enumerates the
    /// whole list, so it charges exactly what `neighbors_into` charges; a
    /// view that can stop early overrides it to charge only the prefix it
    /// scans.
    fn find_neighbor(
        &self,
        led: &mut Ledger,
        v: Vertex,
        hit: &mut dyn FnMut(Vertex) -> bool,
    ) -> Option<Vertex> {
        let mut out = Vec::with_capacity(self.degree_hint(v));
        self.neighbors_into(led, v, &mut out);
        out.into_iter().find(|&w| hit(w))
    }

    /// Convenience wrapper allocating a fresh vector.
    fn neighbors_vec(&self, led: &mut Ledger, v: Vertex) -> Vec<Vertex> {
        let mut out = Vec::with_capacity(self.degree_hint(v));
        self.neighbors_into(led, v, &mut out);
        out
    }
}

impl GraphView for Csr {
    fn n(&self) -> usize {
        self.n()
    }

    fn neighbors_into(&self, led: &mut Ledger, v: Vertex, out: &mut Vec<Vertex>) {
        let adj = self.neighbors(v);
        // One asymmetric read per adjacency word, plus one for the offsets.
        led.read(adj.len() as u64 + 1);
        out.extend_from_slice(adj);
    }

    /// Stops at the first hit: one read for the offsets plus one per
    /// adjacency word scanned, hit included.
    fn find_neighbor(
        &self,
        led: &mut Ledger,
        v: Vertex,
        hit: &mut dyn FnMut(Vertex) -> bool,
    ) -> Option<Vertex> {
        let adj = self.neighbors(v);
        let pos = adj.iter().position(|&w| hit(w));
        led.read(1 + pos.map_or(adj.len(), |i| i + 1) as u64);
        pos.map(|i| adj[i])
    }

    fn degree_hint(&self, v: Vertex) -> usize {
        self.degree(v)
    }
}

impl<G: GraphView + ?Sized> GraphView for &G {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn is_vertex(&self, v: Vertex) -> bool {
        (**self).is_vertex(v)
    }

    fn neighbors_into(&self, led: &mut Ledger, v: Vertex, out: &mut Vec<Vertex>) {
        (**self).neighbors_into(led, v, out)
    }

    fn find_neighbor(
        &self,
        led: &mut Ledger,
        v: Vertex,
        hit: &mut dyn FnMut(Vertex) -> bool,
    ) -> Option<Vertex> {
        (**self).find_neighbor(led, v, hit)
    }

    fn degree_hint(&self, v: Vertex) -> usize {
        (**self).degree_hint(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_view_charges_reads() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let mut led = Ledger::new(8);
        let nb = g.neighbors_vec(&mut led, 0);
        assert_eq!(nb, vec![1, 2, 3]);
        assert_eq!(led.costs().asym_reads, 4);
        assert_eq!(led.costs().asym_writes, 0);
    }

    /// Charges of one `find_neighbor` call, its answer, and the neighbors
    /// `hit` saw.
    fn probe(g: &impl GraphView, v: Vertex, target: Vertex) -> (u64, Option<Vertex>, Vec<Vertex>) {
        let mut led = Ledger::new(8);
        let mut seen = Vec::new();
        let found = g.find_neighbor(&mut led, v, &mut |w| {
            seen.push(w);
            w == target
        });
        (led.costs().asym_reads, found, seen)
    }

    /// Reads `neighbors_into` charges for `v`.
    fn enumeration_reads(g: &impl GraphView, v: Vertex) -> u64 {
        let mut led = Ledger::new(8);
        g.neighbors_vec(&mut led, v);
        led.costs().asym_reads
    }

    #[test]
    fn csr_find_neighbor_charges_the_scanned_prefix() {
        let g = Csr::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        // Hit at position i: the offsets word plus i + 1 adjacency words,
        // and `hit` is not called past it.
        for (i, target) in (1..=5u32).enumerate() {
            let (reads, found, seen) = probe(&g, 0, target);
            assert_eq!(found, Some(target));
            assert_eq!(reads, 1 + i as u64 + 1);
            assert_eq!(seen, (1..=target).collect::<Vec<_>>());
        }
        // A miss scans the whole list, the charge of `neighbors_into`.
        let (reads, found, seen) = probe(&g, 0, 9);
        assert_eq!((reads, found), (6, None));
        assert_eq!(reads, enumeration_reads(&g, 0));
        assert_eq!(seen.len(), 5);
        // An isolated vertex still pays its offsets word.
        let lone = Csr::from_edges(2, &[]);
        assert_eq!(probe(&lone, 1, 0), (1, None, vec![]));
    }

    /// A view that drops the arcs to odd vertices and charges two extra
    /// reads per inspected arc, like the biconnectivity auxiliary view.
    /// It keeps the default `find_neighbor`.
    struct EvenOnly<'a>(&'a Csr);

    impl GraphView for EvenOnly<'_> {
        fn n(&self) -> usize {
            self.0.n()
        }

        fn neighbors_into(&self, led: &mut Ledger, v: Vertex, out: &mut Vec<Vertex>) {
            let adj = self.0.neighbors(v);
            led.read(adj.len() as u64 + 1);
            for &w in adj {
                led.read(2);
                if w % 2 == 0 {
                    out.push(w);
                }
            }
        }
    }

    #[test]
    fn default_find_neighbor_charges_the_whole_enumeration() {
        let g = crate::gen::gnm(40, 300, 3);
        let mut led = Ledger::new(8);
        let mut masked = crate::MaskedCsr::new(&mut led, &g);
        for eid in (0..g.m() as u32).step_by(3) {
            masked.ban(&mut led, eid);
        }
        let filter = EvenOnly(&g);
        for v in 0..g.n() as u32 {
            for target in [
                g.neighbors(v)[0],
                g.neighbors(v).last().copied().unwrap(),
                99,
            ] {
                let (reads, found, seen) = probe(&masked, v, target);
                assert_eq!(reads, enumeration_reads(&masked, v), "masked {v}");
                let mut listed = Vec::new();
                masked.neighbors_into(&mut led, v, &mut listed);
                assert_eq!(found, listed.contains(&target).then_some(target));
                assert!(listed.starts_with(&seen));

                let (reads, found, _) = probe(&filter, v, target);
                assert_eq!(reads, enumeration_reads(&filter, v), "filter {v}");
                assert_eq!(found, (target % 2 == 0).then_some(target));
            }
        }
    }

    #[test]
    fn reference_forwards_find_neighbor() {
        // Through `&G` the call reaches the CSR override (prefix charge),
        // not the default (whole-list charge).
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(probe(&&g, 0, 1), probe(&g, 0, 1));
        assert_eq!(probe(&&g, 0, 1).0, 2);
        assert!(enumeration_reads(&&g, 0) > 2);
    }

    #[test]
    fn reference_forwarding_works() {
        let g = Csr::from_edges(3, &[(0, 1)]);
        fn generic_n(v: &impl GraphView) -> usize {
            v.n()
        }
        assert_eq!(generic_n(&&g), 3);
    }
}

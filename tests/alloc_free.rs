//! The §5.3 query kernel runs in the paper's reused symmetric scratchpad:
//! once a thread's pools are warm, `biconnected`, `two_edge_connected`,
//! `is_articulation` and `edge_bcc` make no heap allocation at all — for
//! pairs inside one cluster, across clusters, and inside small
//! center-less components.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running concurrently in this binary do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wec::asym::Ledger;
use wec::biconnectivity::oracle::{build_biconnectivity_oracle, BiconnectivityOracle};
use wec::core::{BuildOpts, Center};
use wec::graph::gen::{bounded_degree_connected, cycle, disjoint_union, ladder, path};
use wec::graph::{Csr, Priorities, Vertex};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[derive(Debug, Clone, Copy)]
enum Q {
    Biconnected(Vertex, Vertex),
    TwoEdgeConnected(Vertex, Vertex),
    Articulation(Vertex),
    EdgeBcc(Vertex, Vertex),
}

fn run(oracle: &BiconnectivityOracle<'_, Csr>, led: &mut Ledger, q: Q) {
    match q {
        Q::Biconnected(u, v) => {
            std::hint::black_box(oracle.biconnected(led, u, v));
        }
        Q::TwoEdgeConnected(u, v) => {
            std::hint::black_box(oracle.two_edge_connected(led, u, v));
        }
        Q::Articulation(v) => {
            std::hint::black_box(oracle.is_articulation(led, v));
        }
        Q::EdgeBcc(u, v) => {
            std::hint::black_box(oracle.edge_bcc(led, u, v));
        }
    }
}

#[test]
fn warmed_predicate_queries_allocate_nothing() {
    // One large component that the decomposition splits into clusters, and
    // small components below k that stay center-less.
    let big = bounded_degree_connected(400, 4, 120, 5);
    let smalls: Vec<Csr> = (0..12)
        .map(|i| match i % 3 {
            0 => cycle(4),
            1 => ladder(2),
            _ => path(3),
        })
        .collect();
    let parts: Vec<&Csr> = std::iter::once(&big).chain(&smalls).collect();
    let g = disjoint_union(&parts);
    let n = g.n();
    let k = 8;
    let pri = Priorities::random(n, 5);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let mut led = Ledger::sequential(64);
    let oracle =
        build_biconnectivity_oracle(&mut led, &g, &pri, &verts, k, 5, BuildOpts::default());

    let center = |led: &mut Ledger, v: Vertex| oracle.decomposition().rho(led, v).center;
    let mut queries = Vec::new();
    let (mut same, mut cross, mut small) = (0, 0, 0);
    for (u, v) in g.edges().iter().copied().step_by(7) {
        let (cu, cv) = (center(&mut led, u), center(&mut led, v));
        match (cu, cv) {
            (Center::ImplicitMin(_), _) => small += 1,
            _ if cu == cv => same += 1,
            _ => cross += 1,
        }
        queries.push(Q::EdgeBcc(u, v));
        queries.push(Q::Articulation(u));
    }
    for i in 0..n as u32 {
        let (u, v) = (i, (i * 37 + 11) % n as u32);
        let (cu, cv) = (center(&mut led, u), center(&mut led, v));
        match (cu, cv) {
            (Center::ImplicitMin(a), Center::ImplicitMin(b)) if a == b => small += 1,
            (Center::Stored(a), Center::Stored(b)) if a == b => same += 1,
            (Center::Stored(_), Center::Stored(_)) => cross += 1,
            _ => {}
        }
        queries.push(Q::Biconnected(u, v));
        queries.push(Q::TwoEdgeConnected(u, v));
    }
    // Pairs inside each small component and inside each cluster.
    for i in 0..n as u32 - 1 {
        if center(&mut led, i) == center(&mut led, i + 1) {
            queries.push(Q::Biconnected(i, i + 1));
            queries.push(Q::TwoEdgeConnected(i + 1, i));
        }
    }
    assert!(
        same > 0 && cross > 0 && small > 0,
        "every case is covered: {same} same-cluster, {cross} cross-cluster, {small} small"
    );

    let round = |led: &mut Ledger| {
        allocations(|| {
            for &q in &queries {
                run(&oracle, led, q);
            }
        })
    };
    // The building thread's pools are warm already; a fresh thread's are
    // empty and fill through the allocator.
    let cold = std::thread::scope(|t| {
        t.spawn(|| round(&mut Ledger::sequential(64)))
            .join()
            .unwrap()
    });
    assert!(cold > 0, "a fresh thread allocates while its pools fill");
    for _ in 0..3 {
        round(&mut led);
    }
    let mut allocating = Vec::new();
    for &q in &queries {
        let a = allocations(|| run(&oracle, &mut led, q));
        if a != 0 {
            allocating.push((q, a));
        }
    }
    assert!(
        allocating.is_empty(),
        "{} of {} warmed queries allocated, e.g. {:?}",
        allocating.len(),
        queries.len(),
        &allocating[..allocating.len().min(5)]
    );
}

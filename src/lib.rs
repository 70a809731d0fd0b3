//! # wec — Write-Efficient Connectivity
//!
//! A from-scratch Rust reproduction of **"Implicit Decomposition for
//! Write-Efficient Connectivity Algorithms"** (Ben-David, Blelloch,
//! Fineman, Gibbons, Gu, McGuffey, Shun — IPDPS 2018, arXiv:1710.02637).
//!
//! The paper targets memories where writes cost `ω ≫ 1` times more than
//! reads (NVM-class technologies) and shows how to build *oracles* for
//! graph connectivity and biconnectivity using asymptotically fewer
//! writes than any conventional algorithm — down to `O(n/√ω)` writes for
//! bounded-degree graphs via an **implicit k-decomposition** whose only
//! stored state is a center set with 1-bit labels (here two bits per
//! vertex id plus the center list: `⌈n/32⌉ + n_c` words).
//!
//! This facade re-exports the workspace:
//!
//! * [`asym`] — the Asymmetric RAM / NP cost models (ledgers, fork-join
//!   work/depth accounting, tracked memory);
//! * [`graph`] — CSR graphs, deterministic generators, the §6
//!   bounded-degree transformation;
//! * [`prims`] — write-efficient BFS / filter / scan, Euler tours, LCA,
//!   low-diameter decomposition;
//! * [`baseline`] — prior-work comparators and brute-force test oracles;
//! * [`core`] — the implicit k-decomposition (paper §3);
//! * [`connectivity`] — §4.2 write-efficient connectivity + the §4.3
//!   sublinear-write connectivity oracle;
//! * [`biconnectivity`] — §5.2 BC labeling + the §5.3 sublinear-write
//!   biconnectivity oracle;
//! * [`serve`] — the serving layer over both oracles: sharded batch
//!   queries fanned out across per-shard ledger scopes, plus the streaming
//!   admission front end (micro-batch coalescing, submission-order
//!   delivery, per-shard result caches with affinity routing — repeat
//!   keys always land on the shard holding their entry — and
//!   deterministic CLOCK eviction, all under an exact, test-enforced
//!   cost contract), epoch-snapshot mutations (batched `GraphDelta`
//!   edge insertions staged into the next epoch's overlay and installed
//!   without ever blocking a read), and the wire-protocol front end:
//!   a length-prefixed binary codec behind a swappable `Transport`
//!   trait (in-process loopback; TCP), multi-tenant admission with
//!   quotas and deficit-round-robin fair-share batch composition, and
//!   per-connection windows mapped onto typed backpressure.
//!
//! ## Quickstart
//!
//! ```
//! use wec::asym::Ledger;
//! use wec::connectivity::{ConnectivityOracle, OracleBuildOpts};
//! use wec::graph::{gen, Priorities};
//!
//! let omega = 1024;                    // writes cost 1024 reads
//! let g = gen::bounded_degree_connected(2000, 4, 500, 7);
//! let pri = Priorities::random(g.n(), 7);
//! let verts: Vec<u32> = (0..g.n() as u32).collect();
//!
//! let mut led = Ledger::new(omega);
//! let k = led.sqrt_omega();            // k = √ω = 32
//! let oracle = ConnectivityOracle::build(
//!     &mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
//! assert!(led.costs().asym_writes < g.n() as u64, "sublinear writes");
//!
//! let w0 = led.costs().asym_writes;
//! let same = oracle.connected(&mut led, 3, 1997);
//! assert!(same);
//! assert_eq!(led.costs().asym_writes, w0, "queries never write");
//! ```

pub use wec_asym as asym;
pub use wec_baseline as baseline;
pub use wec_biconnectivity as biconnectivity;
pub use wec_connectivity as connectivity;
pub use wec_core as core;
pub use wec_graph as graph;
pub use wec_prims as prims;
pub use wec_serve as serve;

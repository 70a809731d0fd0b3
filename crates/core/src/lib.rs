//! # wec-core — the implicit k-decomposition (paper Section 3)
//!
//! The paper's central technical contribution: partition a bounded-degree
//! graph into connected clusters of size ≤ k such that the only stored
//! state is `O(n/k)` center vertices with a 1-bit label each (stored here
//! as two bits per vertex id, `⌈n/32⌉` words, plus the `n_c`-word center
//! list). The mapping `ρ(v)` from a vertex to its cluster's center is
//! *recomputed on demand* by a deterministic tie-breaking BFS — O(k)
//! expected operations and zero asymmetric-memory writes per query
//! (Theorem 3.1).
//!
//! Module map:
//!
//! * [`centers`] — the stored center set `S` (a two-bit-per-vertex array
//!   of member and primary bits) and the lookup trait construction
//!   overlays use;
//! * [`detbfs`] — the deterministic tie-breaking BFS realizing the paper's
//!   canonical path order `L(SP(·,·))`;
//! * [`rho`] — `ρ0`/`ρ` queries (Lemma 3.2) including the implicit-minimum
//!   centers of small center-less components;
//! * [`cluster`] — cluster enumeration `C(s)` and the cluster tree
//!   (Lemmas 3.3, 3.5);
//! * [`secondary`] — `SECONDARYCENTERS` with the balanced tree splitter
//!   (Lemma 3.6) and its parallel variant (Lemma 3.7);
//! * [`decomp`] — the [`ImplicitDecomposition`] oracle object;
//! * [`clusters_graph`] — the implicit clusters graph (Definition 1,
//!   Lemma 4.3) and its spanning-forest BFS, the one clusters pass of both
//!   the §4.3 and the §5.3 oracle.
//!
//! The searches behind `ρ` and cluster enumeration reuse per-worker pooled
//! buffers (the paper's reused symmetric scratchpad), so a steady stream
//! of queries allocates nothing; charges still come only from the model.

pub mod centers;
pub mod cluster;
pub mod clusters_graph;
pub mod decomp;
pub mod detbfs;
pub mod rho;
mod scratch;
pub mod secondary;

pub use centers::{CenterLabel, CenterLookup, CenterSet};
pub use cluster::Cluster;
pub use clusters_graph::{ClusterEdge, ClustersGraph};
pub use decomp::{BuildOpts, BuildStats, ImplicitDecomposition};
pub use rho::{Center, RhoAnswer};

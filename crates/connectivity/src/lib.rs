//! # wec-connectivity — write-efficient connectivity (paper Section 4)
//!
//! Two algorithms:
//!
//! * [`par`] (§4.2): parallel connectivity and spanning forest with
//!   `O(n + βm)` expected writes and `O(ωn + βωm + m)` expected work —
//!   one low-diameter decomposition with a small β (default `1/ω`), per-part
//!   spanning trees from the LDD's own BFS, a write-efficient filter of the
//!   cross edges, and a linear-work pass over the (small) contracted graph.
//!   Unlike prior work it never contracts recursively, so it never pays
//!   `Θ(m)` writes. Its spanning forest is the LDD's parent array plus the
//!   lifted cross edges; [`ConnResult::reroot`] makes it one rooted forest
//!   in place.
//! * [`oracle`] (§4.3): a connectivity **oracle in sublinear writes** for
//!   bounded-degree graphs — `O(n/√ω)` writes, `O(√ω·n)` work to build;
//!   `O(√ω)` expected work per query and no writes. Built by running
//!   connectivity over the *implicit* clusters graph of an implicit
//!   √ω-decomposition and storing one label per **center**.

pub mod delta;
pub mod oracle;
pub mod par;
pub mod star;

pub use delta::{GraphDelta, OverlayStore, OverlayView, DELTA_SAMPLE_GRAIN};
pub use oracle::{ComponentId, ConnQueryHandle, ConnectivityOracle, OracleBuildOpts};
pub use par::{connectivity_csr, connectivity_general, ConnResult};
pub use star::{star_connectivity, StarOracle, StarQueryHandle};

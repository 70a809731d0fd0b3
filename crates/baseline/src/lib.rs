//! # wec-baseline — prior-work comparators and brute-force test oracles
//!
//! Table 1 of the paper compares its algorithms against "prior work":
//! sequential BFS/DFS connectivity (`O(m + ωn)`), linear-work parallel
//! connectivity with `Θ(m)` writes (Shun et al., hence `Θ(ωm)` work in the
//! asymmetric model), and classic biconnectivity emitting the standard
//! per-edge output array (`Θ(m)` writes, `Θ(ωm)` work, sequentially via
//! Hopcroft–Tarjan or in parallel via Tarjan–Vishkin). Those comparators
//! must pay their writes in the *same* cost model, so they are implemented
//! here on the `wec-asym` substrate. (The Tarjan–Vishkin-equivalent
//! *parallel* comparator lives in `wec-biconnectivity::classic`, since it
//! shares the Euler-tour/low-high machinery.)
//!
//! The crate also carries deliberately naive, deletion-based oracles
//! ([`brute`]) used as ground truth in differential tests: they share no
//! code with any of the fast implementations.

pub mod brute;
pub mod hopcroft_tarjan;
pub mod seq;
pub mod shun;
pub mod unionfind;

pub use hopcroft_tarjan::{hopcroft_tarjan, hopcroft_tarjan_into, HtResult, HtScratch};
pub use seq::{seq_connectivity, seq_spanning_forest};
pub use shun::shun_connectivity;
pub use unionfind::UnionFind;

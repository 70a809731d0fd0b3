//! # wec-prims — write-efficient parallel primitives
//!
//! The paper leans on a toolbox from Ben-David et al. (SPAA 2016), "Parallel
//! algorithms for asymmetric read-write costs": write-efficient BFS, ordered
//! filter, block offsets, plus the classic Euler-tour technique for tree
//! computations and the Miller–Peng–Xu low-diameter decomposition. None of
//! that toolbox has public code, so this crate implements it from scratch on
//! the `wec-asym` substrate:
//!
//! * [`scan`] — per-block offsets, the write-efficient half of a scan;
//! * [`filter`] — write-efficient pack: writes proportional to the *output*
//!   size (plus one write per block), not the input size;
//! * [`fused`] — [`flat_collect`], the fused filter/flat-map: one charged
//!   pass over `n` slots whose only asymmetric writes are the items it
//!   emits;
//! * [`bfs`] — level-synchronous multi-source BFS over any
//!   [`wec_graph::GraphView`] with O(reached) writes, supporting per-round
//!   source injection (what the LDD needs);
//! * [`ldd`] — the (β, O(log n/β)) low-diameter decomposition of Miller,
//!   Peng and Xu with exponential start shifts, using the write-efficient
//!   BFS (paper Theorem 4.1 / Appendix C);
//! * [`euler`] — rooted forests, preorder/subtree intervals (`first`/`last`
//!   in the paper's notation), depths;
//! * [`tree_ops`] — leaffix-style subtree aggregates over preorder ranges;
//! * [`lca`] — O(1)-query LCA via a blocked range minimum over the
//!   preorder, with O(n) words of preprocessing.

pub mod bfs;
pub mod euler;
pub mod filter;
pub mod fused;
pub mod lca;
pub mod ldd;
pub mod scan;
pub mod tree_ops;

pub use bfs::{multi_bfs, BfsResult, UNREACHED};
pub use euler::{EulerTour, RootedForest};
pub use fused::flat_collect;
pub use lca::LcaIndex;
pub use ldd::{low_diameter_decomposition, LddResult};

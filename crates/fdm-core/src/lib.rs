//! # fdm-core
//!
//! Core algorithms for **fair max–min diversity maximization (FDM)** in data
//! streams, reproducing:
//!
//! > Yanhao Wang, Francesco Fabbri, Michael Mathioudakis.
//! > *Streaming Algorithms for Diversity Maximization with Fairness
//! > Constraints.* ICDE 2022 (arXiv:2208.00194).
//!
//! Given a set `X` of `n` elements in a metric space partitioned into `m`
//! disjoint groups with per-group quotas `k_1..k_m` (`k = Σ k_i`), FDM asks
//! for a subset `S` containing exactly `k_i` elements of each group `i` that
//! maximizes `div(S) = min_{x≠y ∈ S} d(x, y)`.
//!
//! ## What this crate provides
//!
//! * **Streaming algorithms** (one pass, memory independent of `n`):
//!   - [`streaming::unconstrained::StreamingDiversityMaximization`] — the
//!     unconstrained guess-ladder algorithm (Algorithm 1),
//!     `(1−ε)/2`-approximate.
//!   - [`streaming::sfdm1::Sfdm1`] — `(1−ε)/4`-approximate FDM for `m = 2`
//!     (Algorithm 2).
//!   - [`streaming::sfdm2::Sfdm2`] — `(1−ε)/(3m+2)`-approximate FDM for any
//!     `m` (Algorithm 3), built on matroid intersection (Algorithm 4).
//! * **Offline baselines** used in the paper's evaluation:
//!   [`offline::gmm`] (Gonzalez greedy), [`offline::fair_swap`],
//!   [`offline::fair_flow`], [`offline::fair_gmm`].
//! * **Substrates** those algorithms need, implemented from scratch:
//!   metric kernels ([`metric::Metric`]), partition matroids and
//!   Cunningham's matroid-intersection algorithm ([`matroid`]), threshold
//!   clustering ([`clustering`]), Dinic max-flow ([`flow`]), and exact
//!   brute-force oracles for testing ([`brute`]).
//!
//! ## Quick start
//!
//! ```
//! use fdm_core::prelude::*;
//!
//! // Eight points on a line, alternating between two groups.
//! let points: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
//! let groups: Vec<usize> = (0..8).map(|i| i % 2).collect();
//! let dataset = Dataset::from_rows(points, groups, Metric::Euclidean).unwrap();
//!
//! // Ask for 2 elements of each group (k = 4).
//! let constraint = FairnessConstraint::new(vec![2, 2]).unwrap();
//! let bounds = dataset.exact_distance_bounds().unwrap();
//!
//! let mut alg = Sfdm1::new(Sfdm1Config {
//!     constraint: constraint.clone(),
//!     epsilon: 0.1,
//!     bounds,
//!     metric: Metric::Euclidean,
//! })
//! .unwrap();
//! for element in dataset.iter() {
//!     alg.insert(&element);
//! }
//! let solution = alg.finalize().unwrap();
//! assert_eq!(solution.len(), 4);
//! assert!(constraint.is_satisfied_by(solution.group_counts(2).as_slice()));
//! assert!(solution.diversity > 0.0);
//! ```

// `deny` rather than `forbid`: the kernel dispatch in `kernel` opts back in
// with a scoped `#![allow(unsafe_code)]` to call its AVX2 entries after
// runtime detection, and CI greps that `unsafe` never escapes that module.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod brute;
pub mod clustering;
pub mod coreset;
pub mod dataset;
pub mod diversity;
pub mod error;
pub mod fairness;
pub mod flow;
pub mod guess;
pub mod kernel;
pub mod matroid;
pub mod metric;
pub mod offline;
mod par;
pub mod persist;
pub mod point;
pub mod solution;
pub mod streaming;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::dataset::{Dataset, DistanceBounds};
    pub use crate::diversity::{diversity, diversity_upper_bound};
    pub use crate::error::{FdmError, Result};
    pub use crate::fairness::FairnessConstraint;
    pub use crate::guess::GuessLadder;
    pub use crate::metric::Metric;
    pub use crate::offline::fair_flow::{FairFlow, FairFlowConfig};
    pub use crate::offline::fair_gmm::{FairGmm, FairGmmConfig};
    pub use crate::offline::fair_swap::{FairSwap, FairSwapConfig};
    pub use crate::offline::gmm::{gmm, gmm_with_start};
    pub use crate::persist::{Snapshot, SnapshotParams, Snapshottable};
    pub use crate::point::{Element, PointId, PointStore};
    pub use crate::solution::Solution;
    pub use crate::streaming::sfdm1::{Sfdm1, Sfdm1Config};
    pub use crate::streaming::sfdm2::{Sfdm2, Sfdm2Config};
    pub use crate::streaming::sharded::{ShardAlgorithm, ShardedStream};
    pub use crate::streaming::sliding::{SlidingWindowConfig, SlidingWindowFdm};
    pub use crate::streaming::summary::{DynSummary, SummarySpec};
    pub use crate::streaming::unconstrained::{StreamingDiversityMaximization, StreamingDmConfig};
}

pub use dataset::{Dataset, DistanceBounds};
pub use error::{FdmError, Result};
pub use fairness::FairnessConstraint;
pub use metric::Metric;
pub use persist::{Snapshot, SnapshotParams, Snapshottable};
pub use point::{Element, PointId, PointStore};
pub use solution::Solution;

//! One-pass streaming algorithms (the paper's contribution).
//!
//! All three algorithms share the same skeleton: a geometric
//! [`crate::guess::GuessLadder`] over the unknown optimum, and per guess `µ`
//! one or more bounded [`candidate::Candidate`] sets filled greedily with
//! elements at distance ≥ µ from the candidate. That stream phase is
//! written once, in [`ladder`]. They differ in post-processing:
//!
//! * [`unconstrained::StreamingDiversityMaximization`] (Algorithm 1) —
//!   return the fullest, most diverse candidate; `(1−ε)/2` (Theorem 1).
//! * [`sfdm1::Sfdm1`] (Algorithm 2, `m = 2`) — swap-balance each group-blind
//!   candidate against group-specific candidates; `(1−ε)/4` (Theorem 2).
//! * [`sfdm2::Sfdm2`] (Algorithm 3, any `m`) — cluster all retained elements
//!   and augment a partial solution via matroid intersection;
//!   `(1−ε)/(3m+2)` (Theorem 4).
//!
//! [`sharded::ShardedStream`] layers K-way scale-out on top of any of them:
//! round-robin partitioning into independent shard summaries processed
//! concurrently on the persistent pool, merged through one extra
//! guess-ladder pass.
//!
//! [`memo::FinalizeMemo`] keeps each guess's post-processing result, so a
//! repeated `finalize` — of one instance, or of a merge pass rebuilt on
//! every query — reruns only the guesses whose candidates changed.

//! [`summary::DynSummary`] unifies the whole family — every algorithm,
//! sharded or not, the sliding-window wrapper included — behind one
//! object-safe trait, and [`summary`]'s registry builds/restores any of
//! them by algorithm tag.

pub mod candidate;
pub mod ladder;
pub mod memo;
pub mod sfdm1;
pub mod sfdm2;
pub mod sharded;
pub mod sliding;
pub mod summary;
pub mod unconstrained;

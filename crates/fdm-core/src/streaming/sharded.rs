//! Sharded stream ingestion: K independent shard summaries merged through
//! the guess ladder.
//!
//! The paper's one-pass algorithms are sequential by construction — each
//! arrival mutates every accepting candidate. What *is* embarrassingly
//! parallel is running K **independent copies** of the stream-processing
//! phase over a partition of the stream, exactly the composable-summary
//! route the distributed diversity-maximization literature takes (Indyk et
//! al. PODS'14, Ceccarello et al. VLDB'17; cf. [`crate::coreset`]): each
//! shard's candidate sets are a small certified summary of its sub-stream,
//! and the union of the summaries preserves enough spread-out elements of
//! every group for a second (tiny) pass to recover a fair, near-optimal
//! solution.
//!
//! [`ShardedStream`] wraps any [`ShardAlgorithm`] (SFDM1, SFDM2, or the
//! unconstrained Algorithm 1):
//!
//! * arrivals are dealt **round-robin** across K shards, each with its own
//!   guess ladder, candidate sets, and private
//!   [`PointStore`](crate::point::PointStore) arena
//!   segment;
//! * [`ShardedStream::insert_batch`] runs the shards **concurrently** on
//!   rayon's persistent pool, each taking its round-robin stride of the
//!   borrowed batch — shards share no mutable state, so scheduling cannot
//!   affect results;
//! * [`ShardedStream::finalize`] streams the union of the shards' retained
//!   elements (shard-major, arena order — deterministic) through one fresh
//!   instance of the same algorithm and runs its full post-processing,
//!   yielding a solution that satisfies the fairness constraint exactly
//!   whenever one is returned.
//!
//! With `K = 1` no merge pass runs: the single shard *is* the unsharded
//! algorithm, so results are bit-identical (pinned by tests). For `K > 1`
//! the merged result carries the composable-summary guarantee: every group
//! present in the stream is represented in the union (a shard's per-group
//! candidate always retains the first element it sees of a group), and the
//! merge pass's guess ladder re-certifies diversity over the union, so the
//! empirical quality stays within the base algorithm's approximation band
//! of the single-shard run (property-tested in `tests/sharded.rs`).

use crate::error::{FdmError, Result};
use crate::par::maybe_par_for_each;
use crate::persist::{self, SnapshotParams, Snapshottable};
use crate::point::Element;
use crate::solution::Solution;
use crate::streaming::sfdm1::{Sfdm1, Sfdm1Config};
use crate::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use crate::streaming::unconstrained::{StreamingDiversityMaximization, StreamingDmConfig};

/// A streaming algorithm that can serve as one shard of a
/// [`ShardedStream`] — and as the merge instance for the shards' union.
///
/// Implementations must be deterministic functions of their insertion
/// sequence (all three guess-ladder algorithms are), so that per-shard
/// concurrency cannot change results.
pub trait ShardAlgorithm: Sized + Send {
    /// Per-instance configuration (constraint, ε, bounds, metric).
    type Config: Clone + Send + Sync;

    /// Builds an empty instance.
    fn build(config: &Self::Config) -> Result<Self>;

    /// The instance [`ShardedStream::finalize`] streams the shards' union
    /// through. `union_len` is the number of union elements about to be
    /// fed; the default — a plain fresh instance — is right for every
    /// unwindowed algorithm. Windowed algorithms must override it so the
    /// merge pass cannot age out earlier shards' summaries mid-merge (the
    /// union's insertion order is shard-major, not time order).
    fn merge_instance(config: &Self::Config, union_len: usize) -> Result<Self> {
        let _ = union_len;
        Self::build(config)
    }

    /// The configuration this instance was built with.
    fn config(&self) -> Self::Config;

    /// Processes one stream element.
    fn insert(&mut self, element: &Element);

    /// Processes a batch of stream elements: element-by-element insertion
    /// in batch order.
    fn insert_batch(&mut self, batch: &[Element]) {
        for element in batch {
            self.insert(element);
        }
    }

    /// All elements this instance has retained, in arena (insertion)
    /// order — the shard's composable summary.
    fn retained_elements(&self) -> Vec<Element>;

    /// Runs post-processing and returns the best feasible solution.
    fn finalize(&self) -> Result<Solution>;

    /// Number of elements seen.
    fn processed(&self) -> usize;

    /// Number of distinct retained elements.
    fn stored_elements(&self) -> usize;
}

macro_rules! impl_shard_algorithm {
    ($alg:ty, $cfg:ty) => {
        impl ShardAlgorithm for $alg {
            type Config = $cfg;

            fn build(config: &Self::Config) -> Result<Self> {
                <$alg>::new(config.clone())
            }

            fn config(&self) -> Self::Config {
                <$alg>::config(self)
            }

            fn insert(&mut self, element: &Element) {
                <$alg>::insert(self, element);
            }

            fn retained_elements(&self) -> Vec<Element> {
                let store = self.store();
                store.ids().map(|id| store.element(id)).collect()
            }

            fn finalize(&self) -> Result<Solution> {
                <$alg>::finalize(self)
            }

            fn processed(&self) -> usize {
                <$alg>::processed(self)
            }

            fn stored_elements(&self) -> usize {
                <$alg>::stored_elements(self)
            }
        }
    };
}

impl_shard_algorithm!(Sfdm1, Sfdm1Config);
impl_shard_algorithm!(Sfdm2, Sfdm2Config);
impl_shard_algorithm!(StreamingDiversityMaximization, StreamingDmConfig);

/// K-way sharded ingestion over any guess-ladder streaming algorithm. See
/// the module docs.
///
/// # Examples
///
/// ```
/// use fdm_core::prelude::*;
/// use fdm_core::streaming::sharded::ShardedStream;
///
/// let constraint = FairnessConstraint::new(vec![2, 2])?;
/// let config = Sfdm2Config {
///     constraint: constraint.clone(),
///     epsilon: 0.1,
///     bounds: DistanceBounds::new(1.0, 40.0)?,
///     metric: Metric::Euclidean,
/// };
/// let mut sharded: ShardedStream<Sfdm2> = ShardedStream::new(config, 4)?;
/// for i in 0..40 {
///     sharded.insert(&Element::new(i, vec![i as f64], i % 2));
/// }
/// let solution = sharded.finalize()?;
/// assert!(constraint.is_satisfied_by(&solution.group_counts(2)));
/// # Ok::<(), fdm_core::FdmError>(())
/// ```
#[derive(Debug)]
pub struct ShardedStream<S: ShardAlgorithm> {
    config: S::Config,
    shards: Vec<S>,
    /// Round-robin cursor: the shard the next arrival goes to.
    next: usize,
}

impl<S: ShardAlgorithm> ShardedStream<S> {
    /// Creates `shards ≥ 1` independent shard instances of the algorithm.
    pub fn new(config: S::Config, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(FdmError::InvalidShardCount);
        }
        let mut built = Vec::with_capacity(shards);
        for _ in 0..shards {
            built.push(S::build(&config)?);
        }
        Ok(ShardedStream {
            config,
            shards: built,
            next: 0,
        })
    }

    /// Number of shards `K`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read-only access to the shard instances.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Routes one arrival to its round-robin shard.
    pub fn insert(&mut self, element: &Element) {
        let shard = self.next;
        self.next = (self.next + 1) % self.shards.len();
        self.shards[shard].insert(element);
    }

    /// Routes a batch of arrivals round-robin and runs the shards
    /// concurrently on the persistent pool. Shard `s` takes, in order, the
    /// batch positions `i` with `(next + i) mod K = s`, borrowed in place.
    /// Equivalent to element-by-element [`ShardedStream::insert`] in batch
    /// order: shards share no mutable state, so scheduling cannot affect any
    /// shard's result.
    pub fn insert_batch(&mut self, batch: &[Element]) {
        let k = self.shards.len();
        let next = self.next;
        self.next = (next + batch.len()) % k;
        let work: Vec<(usize, &mut S)> = self.shards.iter_mut().enumerate().collect();
        maybe_par_for_each(work, |(s, shard)| {
            for element in batch.iter().skip((s + k - next) % k).step_by(k) {
                shard.insert(element);
            }
        });
    }

    /// Total elements seen across all shards.
    pub fn processed(&self) -> usize {
        self.shards.iter().map(S::processed).sum()
    }

    /// Total distinct retained elements across all shards (shards partition
    /// the stream, so per-shard counts never overlap).
    pub fn stored_elements(&self) -> usize {
        self.shards.iter().map(S::stored_elements).sum()
    }

    /// Merges the shard summaries into one solution.
    ///
    /// `K = 1` delegates directly to the single shard's post-processing —
    /// bit-identical to the unsharded algorithm. For `K > 1` the union of
    /// the shards' retained elements (shard-major, arena order) streams
    /// through a fresh instance of the algorithm whose post-processing
    /// produces the final solution; the fairness constraint is enforced
    /// exactly by that instance.
    pub fn finalize(&self) -> Result<Solution> {
        if self.shards.len() == 1 {
            return self.shards[0].finalize();
        }
        let unions: Vec<Vec<Element>> = self.shards.iter().map(S::retained_elements).collect();
        let union_len = unions.iter().map(Vec::len).sum();
        let mut merge = S::merge_instance(&self.config, union_len)?;
        for union in &unions {
            merge.insert_batch(union);
        }
        merge.finalize()
    }

    /// The union of the shards' retained elements, shard-major in arena
    /// order — exactly the stream [`ShardedStream::finalize`]'s merge
    /// instance would consume. This is the distributed-merge export: a
    /// coordinator unioning these per-node vectors in node order replays
    /// the same merge pass bit-identically.
    pub fn retained_elements(&self) -> Vec<Element> {
        self.shards
            .iter()
            .flat_map(|shard| shard.retained_elements())
            .collect()
    }
}

/// # Persistence
///
/// The state tree is a fixed-length array of per-shard state trees plus
/// the round-robin cursor. Because the shard count never changes, a delta
/// snapshot ([`SnapshotDelta`](crate::persist::SnapshotDelta)) diffs the
/// shard array **element-wise**, so each shard contributes only its own
/// appended arena rows and member ids. Both formats and `full + delta*`
/// chains restore bit-identically (`tests/persist_codec.rs`).
impl<S: ShardAlgorithm + Snapshottable> Snapshottable for ShardedStream<S> {
    fn algorithm_tag() -> String {
        format!("sharded:{}", S::algorithm_tag())
    }

    fn snapshot_params(&self) -> SnapshotParams {
        let mut params = self.shards[0].snapshot_params();
        params.algorithm = Self::algorithm_tag();
        params.shards = self.shards.len();
        // The round-robin split can leave trailing shards empty (dim still
        // unknown); the observed dimension is the first shard's that saw an
        // element.
        params.dim = self
            .shards
            .iter()
            .map(|s| s.snapshot_params().dim)
            .find(|&d| d != 0)
            .unwrap_or(0);
        params
    }

    fn snapshot_state(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert(
            "shards".to_string(),
            serde::Value::Array(self.shards.iter().map(S::snapshot_state).collect()),
        );
        map.insert("next".to_string(), serde::Serialize::to_value(&self.next));
        serde::Value::Object(map)
    }

    fn capture_cursor(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert(
            "shards".to_string(),
            serde::Value::Array(self.shards.iter().map(S::capture_cursor).collect()),
        );
        map.insert("next".to_string(), serde::Serialize::to_value(&self.next));
        serde::Value::Object(map)
    }

    fn state_patch_since(&self, cursor: &serde::Value) -> Option<persist::StatePatch> {
        let shard_cursors = cursor.get("shards")?.as_array()?;
        if shard_cursors.len() != self.shards.len() {
            return None;
        }
        let shards: Vec<persist::StatePatch> = self
            .shards
            .iter()
            .zip(shard_cursors)
            .map(|(shard, c)| shard.state_patch_since(c))
            .collect::<Option<Vec<_>>>()?;
        Some(persist::StatePatch::Object(vec![
            ("shards".to_string(), persist::StatePatch::Elements(shards)),
            (
                "next".to_string(),
                persist::StatePatch::Replace(serde::Serialize::to_value(&self.next)),
            ),
        ]))
    }

    fn restore_state(state: &serde::Value) -> Result<Self> {
        let shard_states = state
            .get("shards")
            .and_then(serde::Value::as_array)
            .ok_or_else(|| FdmError::CorruptSnapshot {
                detail: "missing `shards` array".to_string(),
            })?;
        if shard_states.is_empty() {
            return Err(FdmError::InvalidShardCount);
        }
        let mut shards: Vec<S> = Vec::with_capacity(shard_states.len());
        for (i, shard_state) in shard_states.iter().enumerate() {
            let shard = S::restore_state(shard_state).map_err(|e| match e {
                FdmError::CorruptSnapshot { detail } => FdmError::CorruptSnapshot {
                    detail: format!("shard {i}: {detail}"),
                },
                FdmError::IncompatibleSnapshot { detail } => FdmError::IncompatibleSnapshot {
                    detail: format!("shard {i}: {detail}"),
                },
                other => other,
            })?;
            shards.push(shard);
        }
        // All shards must share one configuration (their dimensions may
        // differ only in the "no element seen yet" wildcard state).
        let reference = {
            let mut p = shards[0].snapshot_params();
            p.dim = 0;
            p
        };
        for (i, shard) in shards.iter().enumerate().skip(1) {
            let mut p = shard.snapshot_params();
            p.dim = 0;
            if p != reference {
                return Err(FdmError::IncompatibleSnapshot {
                    detail: format!("shard {i} was configured differently from shard 0"),
                });
            }
        }
        let dims: Vec<usize> = shards
            .iter()
            .map(|s| s.snapshot_params().dim)
            .filter(|&d| d != 0)
            .collect();
        if dims.windows(2).any(|w| w[0] != w[1]) {
            return Err(FdmError::CorruptSnapshot {
                detail: format!("shards disagree on the point dimension: {dims:?}"),
            });
        }
        let next: usize = crate::persist::field(state, "next")?;
        if next >= shards.len() {
            return Err(FdmError::CorruptSnapshot {
                detail: format!(
                    "round-robin cursor {next} out of range for {} shards",
                    shards.len()
                ),
            });
        }
        Ok(ShardedStream {
            config: shards[0].config(),
            shards,
            next,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DistanceBounds};
    use crate::fairness::FairnessConstraint;
    use crate::metric::Metric;
    use rand::prelude::*;

    fn random_dataset(n: usize, m: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0])
            .collect();
        let mut groups: Vec<usize> = (0..n).map(|_| rng.random_range(0..m)).collect();
        for g in 0..m {
            groups[g] = g;
        }
        Dataset::from_rows(rows, groups, Metric::Euclidean).unwrap()
    }

    fn sfdm2_config(d: &Dataset, quotas: Vec<usize>) -> Sfdm2Config {
        Sfdm2Config {
            constraint: FairnessConstraint::new(quotas).unwrap(),
            epsilon: 0.1,
            bounds: d.exact_distance_bounds().unwrap(),
            metric: Metric::Euclidean,
        }
    }

    #[test]
    fn zero_shards_is_an_error() {
        let d = random_dataset(50, 2, 1);
        let cfg = sfdm2_config(&d, vec![2, 2]);
        assert_eq!(
            ShardedStream::<Sfdm2>::new(cfg, 0).unwrap_err(),
            FdmError::InvalidShardCount
        );
    }

    #[test]
    fn single_shard_is_bit_identical_to_unsharded() {
        let d = random_dataset(300, 3, 7);
        let cfg = sfdm2_config(&d, vec![2, 2, 3]);
        let mut plain = Sfdm2::new(cfg.clone()).unwrap();
        let mut sharded: ShardedStream<Sfdm2> = ShardedStream::new(cfg.clone(), 1).unwrap();
        // K = 1 batched goes through the stride dealer; it must agree too.
        let mut batched: ShardedStream<Sfdm2> = ShardedStream::new(cfg, 1).unwrap();
        let elements: Vec<Element> = d.iter().collect();
        for e in &elements {
            plain.insert(e);
            sharded.insert(e);
        }
        for chunk in elements.chunks(64) {
            batched.insert_batch(chunk);
        }
        assert_eq!(plain.stored_elements(), sharded.stored_elements());
        assert_eq!(plain.stored_elements(), batched.stored_elements());
        let a = plain.finalize().unwrap();
        let b = sharded.finalize().unwrap();
        let c = batched.finalize().unwrap();
        assert_eq!(a.ids(), b.ids());
        assert_eq!(a.diversity.to_bits(), b.diversity.to_bits());
        assert_eq!(a.ids(), c.ids());
        assert_eq!(a.diversity.to_bits(), c.diversity.to_bits());
    }

    #[test]
    fn batch_insert_matches_element_by_element() {
        let d = random_dataset(400, 2, 9);
        let cfg = sfdm2_config(&d, vec![3, 3]);
        let elements: Vec<Element> = d.iter().collect();
        let mut one_by_one: ShardedStream<Sfdm2> = ShardedStream::new(cfg.clone(), 3).unwrap();
        let mut batched: ShardedStream<Sfdm2> = ShardedStream::new(cfg, 3).unwrap();
        for e in &elements {
            one_by_one.insert(e);
        }
        for chunk in elements.chunks(71) {
            batched.insert_batch(chunk);
        }
        assert_eq!(one_by_one.processed(), batched.processed());
        assert_eq!(one_by_one.stored_elements(), batched.stored_elements());
        let a = one_by_one.finalize().unwrap();
        let b = batched.finalize().unwrap();
        assert_eq!(a.ids(), b.ids());
        assert_eq!(a.diversity.to_bits(), b.diversity.to_bits());
    }

    #[test]
    fn merged_solution_is_fair_across_shard_counts() {
        let d = random_dataset(500, 4, 11);
        let c = FairnessConstraint::new(vec![2, 3, 2, 1]).unwrap();
        for k in [1usize, 2, 4, 7] {
            let cfg = Sfdm2Config {
                constraint: c.clone(),
                epsilon: 0.1,
                bounds: d.exact_distance_bounds().unwrap(),
                metric: Metric::Euclidean,
            };
            let mut sharded: ShardedStream<Sfdm2> = ShardedStream::new(cfg, k).unwrap();
            for e in d.iter() {
                sharded.insert(&e);
            }
            let sol = sharded.finalize().unwrap();
            assert_eq!(sol.len(), 8, "K = {k}");
            assert!(
                c.is_satisfied_by(&sol.group_counts(4)),
                "K = {k}: {:?}",
                sol.group_counts(4)
            );
        }
    }

    #[test]
    fn sfdm1_shards_work() {
        let d = random_dataset(300, 2, 13);
        let cfg = Sfdm1Config {
            constraint: FairnessConstraint::new(vec![3, 3]).unwrap(),
            epsilon: 0.1,
            bounds: d.exact_distance_bounds().unwrap(),
            metric: Metric::Euclidean,
        };
        let mut sharded: ShardedStream<Sfdm1> = ShardedStream::new(cfg, 4).unwrap();
        for e in d.iter() {
            sharded.insert(&e);
        }
        assert_eq!(sharded.num_shards(), 4);
        let sol = sharded.finalize().unwrap();
        assert_eq!(sol.group_counts(2), vec![3, 3]);
    }

    #[test]
    fn unconstrained_shards_work() {
        let d = random_dataset(300, 1, 17);
        let cfg = StreamingDmConfig {
            k: 6,
            epsilon: 0.1,
            bounds: d.exact_distance_bounds().unwrap(),
            metric: Metric::Euclidean,
        };
        let mut sharded: ShardedStream<StreamingDiversityMaximization> =
            ShardedStream::new(cfg, 3).unwrap();
        for e in d.iter() {
            sharded.insert(&e);
        }
        let sol = sharded.finalize().unwrap();
        assert_eq!(sol.len(), 6);
        assert!(sol.diversity > 0.0);
    }

    #[test]
    fn space_is_bounded_by_k_times_single_shard_cap() {
        // Each shard's space bound is the unsharded bound; K shards cost at
        // most K times that (the price of the scale-out path).
        let bounds = DistanceBounds::new(0.05, 15.0).unwrap();
        let c = FairnessConstraint::new(vec![3, 3]).unwrap();
        let d = random_dataset(2000, 2, 19);
        let cfg = Sfdm2Config {
            constraint: c,
            epsilon: 0.1,
            bounds,
            metric: Metric::Euclidean,
        };
        let mut single = Sfdm2::new(cfg.clone()).unwrap();
        let mut sharded: ShardedStream<Sfdm2> = ShardedStream::new(cfg, 4).unwrap();
        for e in d.iter() {
            single.insert(&e);
            sharded.insert(&e);
        }
        assert!(sharded.stored_elements() <= 4 * (single.stored_elements() + 16));
    }

    #[test]
    fn retained_elements_preserve_external_ids_and_groups() {
        let d = random_dataset(120, 2, 23);
        let cfg = sfdm2_config(&d, vec![2, 2]);
        let mut alg = Sfdm2::new(cfg).unwrap();
        for e in d.iter() {
            alg.insert(&e);
        }
        for e in ShardAlgorithm::retained_elements(&alg) {
            assert_eq!(e.group, d.group(e.id));
            assert_eq!(&e.point[..], d.point(e.id));
        }
    }
}

//! SFDM1 — Algorithm 2: streaming FDM for `m = 2` groups,
//! `(1−ε)/4`-approximate (Theorem 2).
//!
//! **Stream processing**: per guess `µ` keep one group-blind candidate of
//! capacity `k = k_1 + k_2` plus one group-specific candidate of capacity
//! `k_i` per group (elements filtered by group).
//!
//! **Post-processing**: restrict to `U' = {µ : |S_µ| = k ∧ |S_µ,i| = k_i}`.
//! Each group-blind candidate either already satisfies the constraint or has
//! exactly one under-filled group; balance it by inserting the pool elements
//! furthest from the under-filled side, then deleting the over-filled
//! elements closest to it ([`crate::balance`]). Lemma 2 shows the balanced
//! candidate keeps `div ≥ µ/2`; Lemma 1 places a `µ' ≥ (1−ε)/2 · OPT_f`
//! in `U'`.
//!
//! Retained elements are interned once into a shared [`PointStore`];
//! candidates hold [`PointId`]s. The per-guess balancing of the
//! post-processing fans out across the ladder on the pool (identical
//! results however it is scheduled).

use std::collections::HashSet;

use serde::Serialize as _;

use crate::balance::{balance_two_groups, SwapStrategy};
use crate::dataset::DistanceBounds;
use crate::diversity::diversity_of_ids;
use crate::error::{FdmError, Result};
use crate::fairness::FairnessConstraint;
use crate::guess::GuessLadder;
use crate::metric::Metric;
use crate::par::maybe_par_map;
use crate::persist::{self, Snapshottable};
use crate::point::{Element, PointId, PointStore};
use crate::solution::Solution;
use crate::streaming::candidate::{ArrivalProxies, Candidate};
use crate::streaming::sharded::ShardAlgorithm;

/// Configuration for [`Sfdm1`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Sfdm1Config {
    /// Two-group quota vector.
    pub constraint: FairnessConstraint,
    /// Guess-ladder accuracy `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Known bounds with `d_min ≤ OPT_f ≤ d_max`.
    pub bounds: DistanceBounds,
    /// The distance metric.
    pub metric: Metric,
}

/// Streaming state of SFDM1.
#[derive(Debug, Clone)]
pub struct Sfdm1 {
    constraint: FairnessConstraint,
    metric: Metric,
    epsilon: f64,
    bounds: DistanceBounds,
    store: PointStore,
    /// Group-blind candidates, one per guess.
    blind: Vec<Candidate>,
    /// `specific[i][j]` = candidate for group `i`, guess `j`, capacity `k_i`.
    specific: [Vec<Candidate>; 2],
    strategy: SwapStrategy,
    /// Per-arrival proxy cache shared across all candidates (see
    /// [`ArrivalProxies`]).
    scratch: ArrivalProxies,
    processed: usize,
    store_initialized: bool,
}

impl Sfdm1 {
    /// Initializes the candidates for every guess in the ladder.
    pub fn new(config: Sfdm1Config) -> Result<Self> {
        Self::with_strategy(config, SwapStrategy::Greedy)
    }

    /// Like [`Sfdm1::new`] with an explicit balancing strategy (the
    /// `Arbitrary` variant exists for the ablation bench).
    pub fn with_strategy(config: Sfdm1Config, strategy: SwapStrategy) -> Result<Self> {
        if config.constraint.num_groups() != 2 {
            return Err(FdmError::InvalidGroup {
                group: config.constraint.num_groups(),
                num_groups: 2,
            });
        }
        config.metric.validate()?;
        let ladder = GuessLadder::new(config.bounds, config.epsilon)?;
        let k = config.constraint.total();
        let blind = ladder
            .values()
            .iter()
            .map(|&mu| Candidate::new(mu, k, config.metric))
            .collect();
        let specific = [0, 1].map(|g| {
            ladder
                .values()
                .iter()
                .map(|&mu| Candidate::new(mu, config.constraint.quota(g), config.metric))
                .collect()
        });
        Ok(Sfdm1 {
            constraint: config.constraint,
            metric: config.metric,
            epsilon: config.epsilon,
            bounds: config.bounds,
            store: PointStore::new(1),
            blind,
            specific,
            strategy,
            scratch: ArrivalProxies::new(),
            processed: 0,
            store_initialized: false,
        })
    }

    fn ensure_store_dim(&mut self, dim: usize) {
        if !self.store_initialized {
            self.store = PointStore::new(dim.max(1));
            self.store_initialized = true;
        }
    }

    /// Processes one stream element (Algorithm 2, lines 3–8).
    pub fn insert(&mut self, element: &Element) {
        debug_assert!(element.group < 2, "SFDM1 requires group labels in {{0, 1}}");
        self.ensure_store_dim(element.dim());
        self.processed += 1;
        // One shared proxy cache per arrival: candidates of neighboring
        // guesses hold largely the same members, so each arena row is
        // evaluated once however many candidates test it. (The freshly
        // interned id never needs a cache slot — it is only pushed into
        // candidates that already made their decision this arrival.)
        self.scratch
            .begin_arrival(&self.store, self.metric, &element.point);
        let mut interned: Option<PointId> = None;
        let store = &mut self.store;
        let scratch = &mut self.scratch;
        for candidate in self
            .blind
            .iter_mut()
            .chain(self.specific[element.group].iter_mut())
        {
            if candidate.accepts_cached(store, scratch, &element.point) {
                let id = *interned.get_or_insert_with(|| store.push_element(element));
                candidate.push(id);
            }
        }
    }

    /// Processes a batch of stream elements in order — the
    /// [`ShardAlgorithm::insert_batch`] loop, kept inherent so callers need
    /// not name the trait.
    pub fn insert_batch(&mut self, batch: &[Element]) {
        ShardAlgorithm::insert_batch(self, batch);
    }

    /// Number of elements seen so far.
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// Distinct retained element count — the paper's space metric.
    pub fn stored_elements(&self) -> usize {
        let ids: HashSet<usize> = self
            .store
            .ids()
            .map(|id| self.store.external_id(id))
            .collect();
        ids.len()
    }

    /// The shared arena of retained elements.
    pub fn store(&self) -> &PointStore {
        &self.store
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> Sfdm1Config {
        Sfdm1Config {
            constraint: self.constraint.clone(),
            epsilon: self.epsilon,
            bounds: self.bounds,
            metric: self.metric,
        }
    }

    /// Post-processing (Algorithm 2, lines 9–18): balance every candidate in
    /// `U'` and return the most diverse fair result. The per-guess balancing
    /// fans out across the ladder on the pool.
    pub fn finalize(&self) -> Result<Solution> {
        let k = self.constraint.total();
        let results: Vec<Option<(f64, Vec<PointId>)>> = maybe_par_map(self.blind.len(), |j| {
            let blind = &self.blind[j];
            // U' membership: blind full and both group candidates full.
            if blind.len() < k
                || self.specific[0][j].len() < self.constraint.quota(0)
                || self.specific[1][j].len() < self.constraint.quota(1)
            {
                return None;
            }
            let mut solution = blind.members().to_vec();
            let pools = [
                self.specific[0][j].members().to_vec(),
                self.specific[1][j].members().to_vec(),
            ];
            if !balance_two_groups(
                &self.store,
                &mut solution,
                &pools,
                &self.constraint,
                self.metric,
                self.strategy,
            ) {
                return None;
            }
            let div = diversity_of_ids(&self.store, &solution, self.metric);
            Some((div, solution))
        });
        // Serial reduction preserves the first-maximum tie-break regardless
        // of how the map above was scheduled.
        let mut best: Option<(f64, &Vec<PointId>)> = None;
        for r in results.iter().flatten() {
            let (div, ids) = r;
            if best.as_ref().is_none_or(|(b, _)| *div > *b) {
                best = Some((*div, ids));
            }
        }
        match best {
            Some((_, ids)) => Ok(Solution::from_ids(&self.store, ids, self.metric)),
            None => Err(FdmError::NoFeasibleCandidate),
        }
    }
}

/// # Persistence
///
/// Same append-mostly layout contract as [`Sfdm2`](crate::streaming::sfdm2::Sfdm2):
/// arena blobs and lane member lists only grow between checkpoints, so
/// delta snapshots ([`SnapshotDelta`](crate::persist::SnapshotDelta))
/// stay proportional to what actually changed, and the v2 binary codec
/// packs the blobs densely. Both formats and `full + delta*` chains
/// restore bit-identically (`tests/persist_codec.rs`).
impl Snapshottable for Sfdm1 {
    fn algorithm_tag() -> String {
        "sfdm1".to_string()
    }

    fn snapshot_params(&self) -> crate::persist::SnapshotParams {
        crate::persist::SnapshotParams {
            algorithm: Self::algorithm_tag(),
            dim: if self.store_initialized {
                self.store.dim()
            } else {
                0
            },
            epsilon: self.epsilon,
            metric: self.metric,
            bounds: self.bounds,
            quotas: self.constraint.quotas().to_vec(),
            k: self.constraint.total(),
            shards: 1,
            window: 0,
        }
    }

    fn snapshot_state(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("config".to_string(), self.config().to_value());
        map.insert("strategy".to_string(), self.strategy.to_value());
        map.insert("store".to_string(), self.store.to_value());
        map.insert(
            "store_initialized".to_string(),
            serde::Value::Bool(self.store_initialized),
        );
        map.insert(
            "processed".to_string(),
            serde::Serialize::to_value(&self.processed),
        );
        map.insert(
            "blind".to_string(),
            persist::lanes_of(&self.blind).to_value(),
        );
        let specific: Vec<persist::LadderLanes> =
            self.specific.iter().map(|c| persist::lanes_of(c)).collect();
        map.insert("specific".to_string(), specific.to_value());
        serde::Value::Object(map)
    }

    fn capture_cursor(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("store".to_string(), persist::store_cursor(&self.store));
        map.insert("blind".to_string(), persist::lanes_cursor(&self.blind));
        map.insert(
            "specific".to_string(),
            serde::Value::Array(
                self.specific
                    .iter()
                    .map(|c| persist::lanes_cursor(c))
                    .collect(),
            ),
        );
        serde::Value::Object(map)
    }

    fn state_patch_since(&self, cursor: &serde::Value) -> Option<persist::StatePatch> {
        let store = persist::store_patch_since(&self.store, cursor.get("store")?)?;
        let blind = persist::lanes_patch_since(&self.blind, cursor.get("blind")?)?;
        let specific_cursors = cursor.get("specific")?.as_array()?;
        if specific_cursors.len() != self.specific.len() {
            return None;
        }
        let specific: Vec<persist::StatePatch> = self
            .specific
            .iter()
            .zip(specific_cursors)
            .map(|(lanes, c)| persist::lanes_patch_since(lanes, c))
            .collect::<Option<Vec<_>>>()?;
        // `config` and `strategy` are static for the instance's lifetime → keep.
        Some(persist::StatePatch::Object(vec![
            ("store".to_string(), store),
            (
                "store_initialized".to_string(),
                persist::StatePatch::Replace(serde::Value::Bool(self.store_initialized)),
            ),
            (
                "processed".to_string(),
                persist::StatePatch::Replace(serde::Serialize::to_value(&self.processed)),
            ),
            ("blind".to_string(), blind),
            (
                "specific".to_string(),
                persist::StatePatch::Elements(specific),
            ),
        ]))
    }

    fn restore_state(state: &serde::Value) -> Result<Self> {
        let config: Sfdm1Config = persist::field(state, "config")?;
        let strategy: SwapStrategy = persist::field(state, "strategy")?;
        let mut alg = Self::with_strategy(config, strategy)?;
        let store: PointStore = persist::field(state, "store")?;
        let store_initialized: bool = persist::field(state, "store_initialized")?;
        if !store_initialized && !store.is_empty() {
            return Err(FdmError::CorruptSnapshot {
                detail: "arena holds points but is marked uninitialized".to_string(),
            });
        }
        if let Some(&bad) = store.groups_raw().iter().find(|&&g| g >= 2) {
            return Err(FdmError::CorruptSnapshot {
                detail: format!("group label {bad} out of range for SFDM1's two groups"),
            });
        }
        let blind: persist::LadderLanes = persist::field(state, "blind")?;
        persist::restore_lanes(&mut alg.blind, &blind, store.len(), "blind")?;
        let specific: Vec<persist::LadderLanes> = persist::field(state, "specific")?;
        if specific.len() != 2 {
            return Err(FdmError::CorruptSnapshot {
                detail: format!("expected 2 group ladders, found {}", specific.len()),
            });
        }
        for (g, lanes) in specific.iter().enumerate() {
            persist::restore_lanes(
                &mut alg.specific[g],
                lanes,
                store.len(),
                &format!("group {g}"),
            )?;
        }
        alg.processed = persist::field(state, "processed")?;
        alg.store = store;
        alg.store_initialized = store_initialized;
        Ok(alg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::exact_fair_optimum;
    use crate::dataset::Dataset;
    use rand::prelude::*;

    fn run(dataset: &Dataset, constraint: FairnessConstraint, eps: f64) -> Result<Solution> {
        let bounds = dataset.exact_distance_bounds().unwrap();
        let mut alg = Sfdm1::new(Sfdm1Config {
            constraint,
            epsilon: eps,
            bounds,
            metric: dataset.metric(),
        })?;
        for e in dataset.iter() {
            alg.insert(&e);
        }
        alg.finalize()
    }

    fn random_two_group_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0])
            .collect();
        let mut groups: Vec<usize> = (0..n).map(|_| rng.random_range(0..2)).collect();
        groups[0] = 0;
        groups[1] = 0;
        groups[2] = 1;
        groups[3] = 1;
        Dataset::from_rows(rows, groups, Metric::Euclidean).unwrap()
    }

    #[test]
    fn rejects_non_binary_constraint() {
        let c = FairnessConstraint::new(vec![1, 1, 1]).unwrap();
        let cfg = Sfdm1Config {
            constraint: c,
            epsilon: 0.1,
            bounds: DistanceBounds::new(1.0, 10.0).unwrap(),
            metric: Metric::Euclidean,
        };
        assert!(Sfdm1::new(cfg).is_err());
    }

    #[test]
    fn output_is_fair() {
        let d = random_two_group_dataset(200, 3);
        let c = FairnessConstraint::new(vec![4, 4]).unwrap();
        let sol = run(&d, c.clone(), 0.1).unwrap();
        assert_eq!(sol.len(), 8);
        assert!(c.is_satisfied_by(&sol.group_counts(2)));
    }

    #[test]
    fn theorem2_ratio_on_random_instances() {
        for trial in 0..8 {
            let d = random_two_group_dataset(14, 40 + trial);
            let c = FairnessConstraint::new(vec![2, 2]).unwrap();
            let (opt, _) = exact_fair_optimum(&d, &c);
            let eps = 0.1;
            let sol = run(&d, c, eps).unwrap();
            let guarantee = (1.0 - eps) / 4.0 * opt;
            assert!(
                sol.diversity >= guarantee - 1e-9,
                "trial {trial}: {} < {guarantee}",
                sol.diversity
            );
        }
    }

    #[test]
    fn skewed_quotas_work() {
        let d = random_two_group_dataset(300, 9);
        let c = FairnessConstraint::new(vec![7, 3]).unwrap();
        let sol = run(&d, c.clone(), 0.1).unwrap();
        assert!(c.is_satisfied_by(&sol.group_counts(2)));
    }

    #[test]
    fn unbalanced_group_sizes_work() {
        // 90/10 population split, equal quotas.
        let mut rng = StdRng::seed_from_u64(77);
        let n = 400;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0])
            .collect();
        let groups: Vec<usize> = (0..n).map(|i| usize::from(i % 10 == 0)).collect();
        let d = Dataset::from_rows(rows, groups, Metric::Euclidean).unwrap();
        let c = FairnessConstraint::new(vec![5, 5]).unwrap();
        let sol = run(&d, c.clone(), 0.1).unwrap();
        assert!(c.is_satisfied_by(&sol.group_counts(2)));
        assert!(sol.diversity > 0.0);
    }

    #[test]
    fn space_independent_of_stream_length() {
        let c = FairnessConstraint::new(vec![3, 3]).unwrap();
        let bounds = DistanceBounds::new(0.05, 15.0).unwrap();
        let mut sizes = Vec::new();
        for n in [200usize, 2000] {
            let d = random_two_group_dataset(n, 5);
            let mut alg = Sfdm1::new(Sfdm1Config {
                constraint: c.clone(),
                epsilon: 0.1,
                bounds,
                metric: Metric::Euclidean,
            })
            .unwrap();
            for e in d.iter() {
                alg.insert(&e);
            }
            sizes.push(alg.stored_elements());
            assert_eq!(alg.processed(), n);
        }
        // 10x the stream must not cost 10x the memory: bounded by the
        // ladder size times (k + k1 + k2) in both cases.
        let cap = GuessLadder::new(bounds, 0.1).unwrap().len() * (6 + 3 + 3);
        assert!(
            sizes[0] <= cap && sizes[1] <= cap,
            "sizes {sizes:?} exceed cap {cap}"
        );
    }

    #[test]
    fn infeasible_stream_errors() {
        // All elements in group 0; constraint needs group 1.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let d = Dataset::from_rows(rows, vec![0; 50], Metric::Euclidean).unwrap();
        let c = FairnessConstraint::new(vec![2, 2]).unwrap();
        let err = run(&d, c, 0.1).unwrap_err();
        assert_eq!(err, FdmError::NoFeasibleCandidate);
    }

    #[test]
    fn better_than_quarter_in_practice() {
        // The paper reports near-parity with FairSwap; sanity-check that the
        // practical ratio on easy instances is far above the worst case.
        let mut ratios = Vec::new();
        for trial in 0..5 {
            let d = random_two_group_dataset(16, 90 + trial);
            let c = FairnessConstraint::new(vec![2, 2]).unwrap();
            let (opt, _) = exact_fair_optimum(&d, &c);
            let sol = run(&d, c, 0.1).unwrap();
            ratios.push(sol.diversity / opt);
        }
        let avg: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            avg > 0.5,
            "average practical ratio {avg} too low: {ratios:?}"
        );
    }

    #[test]
    fn batch_insert_matches_element_by_element() {
        let d = random_two_group_dataset(300, 21);
        let c = FairnessConstraint::new(vec![4, 3]).unwrap();
        let bounds = d.exact_distance_bounds().unwrap();
        let cfg = Sfdm1Config {
            constraint: c,
            epsilon: 0.1,
            bounds,
            metric: Metric::Euclidean,
        };
        let mut one_by_one = Sfdm1::new(cfg.clone()).unwrap();
        let mut batched = Sfdm1::new(cfg).unwrap();
        let elements: Vec<Element> = d.iter().collect();
        for e in &elements {
            one_by_one.insert(e);
        }
        for chunk in elements.chunks(53) {
            batched.insert_batch(chunk);
        }
        assert_eq!(one_by_one.stored_elements(), batched.stored_elements());
        let a = one_by_one.finalize().unwrap();
        let b = batched.finalize().unwrap();
        assert_eq!(a.ids(), b.ids());
        assert_eq!(a.diversity, b.diversity);
    }
}

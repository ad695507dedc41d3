//! SFDM2 — Algorithm 3: streaming FDM for any number of groups,
//! `(1−ε)/(3m+2)`-approximate (Theorem 4).
//!
//! **Stream processing**: per guess `µ` keep one group-blind candidate of
//! capacity `k` and one per-group candidate of capacity `k` (not `k_i` — the
//! larger pools are what Lemma 4's cluster-counting argument needs).
//!
//! **Post-processing** (per guess in
//! `U' = {µ : |S_µ| = k ∧ |S_µ,i| ≥ k_i ∀i}`):
//!
//! 1. Seed a partial solution `S'_µ ⊆ S_µ` by truncating each over-filled
//!    group to its quota (Algorithm 3, line 11).
//! 2. Cluster `S_all` (all retained elements) with threshold `µ/(m+1)`
//!    ([`crate::clustering`]); Lemma 3 gives cross-cluster separation
//!    `≥ µ/(m+1)` and at most one element per candidate per cluster.
//! 3. Define the fairness partition matroid `M1` (≤ `k_i` per group) and
//!    the cluster matroid `M2` (≤ 1 per cluster) and augment `S'_µ` to a
//!    maximum common independent set with Cunningham's algorithm,
//!    greedily preferring far elements
//!    ([`crate::matroid::intersection`], Algorithm 4).
//! 4. Keep the fair size-`k` result with maximum diversity across guesses.
//!
//! Retained elements are interned once into a shared [`PointStore`];
//! candidates hold [`PointId`]s. The whole per-guess post-processing
//! pipeline (clustering + matroid intersection) runs only for guesses whose
//! candidates changed since the last `finalize` ([`crate::streaming::memo`])
//! and fans out across the ladder on the pool — the results are identical
//! to a fresh, sequential run.

use std::collections::HashSet;

use serde::Serialize as _;

use crate::clustering::threshold_clusters_ids;
use crate::dataset::DistanceBounds;
use crate::diversity::diversity_of_ids;
use crate::error::{FdmError, Result};
use crate::fairness::FairnessConstraint;
use crate::guess::GuessLadder;
use crate::matroid::intersection::max_common_independent_set;
use crate::matroid::PartitionMatroid;
use crate::metric::Metric;
use crate::persist::{self, Snapshottable};
use crate::point::{Element, PointId, PointStore};
use crate::solution::Solution;
use crate::streaming::candidate::{ArrivalProxies, Candidate};
use crate::streaming::memo::{self, FinalizeMemo, GuessPipeline, GuessTally, MemoCell};
use crate::streaming::sharded::ShardAlgorithm;

/// Configuration for [`Sfdm2`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Sfdm2Config {
    /// Quota vector over `m ≥ 2` groups.
    pub constraint: FairnessConstraint,
    /// Guess-ladder accuracy `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Known bounds with `d_min ≤ OPT_f ≤ d_max`.
    pub bounds: DistanceBounds,
    /// The distance metric.
    pub metric: Metric,
}

/// Whether SFDM2's matroid-intersection phase seeds from the partial
/// solution with greedy far-element preference (the paper's adaptation) or
/// from the empty set without scores (plain Cunningham) — ablation A2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum AugmentationMode {
    /// Partial-solution seed + greedy `argmax d(x, S)` selection (paper).
    #[default]
    SeededGreedy,
    /// Empty seed, ground-order selection (plain Cunningham baseline).
    PlainCunningham,
}

/// Streaming state of SFDM2.
///
/// # Examples
///
/// ```
/// use fdm_core::prelude::*;
///
/// // Twelve points on a line across three groups; one element per group.
/// let constraint = FairnessConstraint::new(vec![1, 1, 1])?;
/// let mut alg = Sfdm2::new(Sfdm2Config {
///     constraint: constraint.clone(),
///     epsilon: 0.1,
///     bounds: DistanceBounds::new(1.0, 11.0)?,
///     metric: Metric::Euclidean,
/// })?;
/// for i in 0..12 {
///     alg.insert(&Element::new(i, vec![i as f64], i % 3));
/// }
/// let solution = alg.finalize()?;
/// assert!(constraint.is_satisfied_by(&solution.group_counts(3)));
/// # Ok::<(), fdm_core::FdmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Sfdm2 {
    constraint: FairnessConstraint,
    metric: Metric,
    epsilon: f64,
    bounds: DistanceBounds,
    store: PointStore,
    blind: Vec<Candidate>,
    /// `specific[i][j]`: group `i`, guess `j`, capacity `k`.
    specific: Vec<Vec<Candidate>>,
    mode: AugmentationMode,
    /// Per-arrival proxy cache shared across all candidates (see
    /// [`ArrivalProxies`]).
    scratch: ArrivalProxies,
    processed: usize,
    store_initialized: bool,
    /// Per-guess post-processing results of the last `finalize`.
    memo: MemoCell,
}

impl Sfdm2 {
    /// Initializes the candidates for every guess in the ladder.
    pub fn new(config: Sfdm2Config) -> Result<Self> {
        Self::with_mode(config, AugmentationMode::SeededGreedy)
    }

    /// Like [`Sfdm2::new`] with an explicit augmentation mode (ablation).
    pub fn with_mode(config: Sfdm2Config, mode: AugmentationMode) -> Result<Self> {
        let m = config.constraint.num_groups();
        if m < 2 {
            return Err(FdmError::EmptyConstraint);
        }
        config.metric.validate()?;
        let ladder = GuessLadder::new(config.bounds, config.epsilon)?;
        let k = config.constraint.total();
        let blind: Vec<Candidate> = ladder
            .values()
            .iter()
            .map(|&mu| Candidate::new(mu, k, config.metric))
            .collect();
        let specific: Vec<Vec<Candidate>> = (0..m)
            .map(|_| {
                ladder
                    .values()
                    .iter()
                    .map(|&mu| Candidate::new(mu, k, config.metric))
                    .collect()
            })
            .collect();
        Ok(Sfdm2 {
            constraint: config.constraint,
            metric: config.metric,
            epsilon: config.epsilon,
            bounds: config.bounds,
            store: PointStore::new(1),
            blind,
            specific,
            mode,
            scratch: ArrivalProxies::new(),
            processed: 0,
            store_initialized: false,
            memo: MemoCell::default(),
        })
    }

    fn ensure_store_dim(&mut self, dim: usize) {
        if !self.store_initialized {
            self.store = PointStore::new(dim.max(1));
            self.store_initialized = true;
        }
    }

    /// Processes one stream element (Algorithm 3, lines 3–8).
    pub fn insert(&mut self, element: &Element) {
        debug_assert!(
            element.group < self.specific.len(),
            "group label out of range for the constraint"
        );
        self.ensure_store_dim(element.dim());
        self.processed += 1;
        // One shared proxy cache per arrival (see the Sfdm1 counterpart):
        // the blind and group ladders overlap heavily in members, so each
        // arena row costs one kernel evaluation per arrival at most.
        self.scratch.offer(
            &mut self.store,
            self.metric,
            self.blind
                .iter_mut()
                .chain(self.specific[element.group].iter_mut()),
            element,
        );
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
    pub fn config(&self) -> Sfdm2Config {
        Sfdm2Config {
            constraint: self.constraint.clone(),
            epsilon: self.epsilon,
            bounds: self.bounds,
            metric: self.metric,
        }
    }

    /// Post-processing (Algorithm 3, lines 9–19). Each guess's pipeline —
    /// clustering, matroid construction, Cunningham augmentation — is
    /// independent; guesses whose candidates are unchanged since the last
    /// call reuse its result ([`crate::streaming::memo`]) and the rest fan
    /// out across the ladder on the pool.
    pub fn finalize(&self) -> Result<Solution> {
        self.finalize_tallied(&mut GuessTally::default())
    }

    /// [`Sfdm2::finalize`], adding what the per-guess memo did to `tally`.
    pub fn finalize_tallied(&self, tally: &mut GuessTally) -> Result<Solution> {
        memo::finalize_owned(self, &self.memo, tally)
    }

    /// The merge pass's post-processing: this instance was just fed shard
    /// unions and is dropped afterwards, so the memo is `memo`, carried
    /// from the previous merge, and keeps this instance's arena.
    pub fn finalize_merge(
        self,
        memo: &mut FinalizeMemo,
        tally: &mut GuessTally,
    ) -> Result<Solution> {
        memo::finalize_carried(self, memo, tally)
    }
}

/// Algorithm 3's per-guess post-processing over `U' = {µ : |S_µ| = k ∧
/// |S_µ,i| ≥ k_i ∀i}`; a result smaller than `k` is dropped (line 19).
impl GuessPipeline for Sfdm2 {
    fn store(&self) -> &PointStore {
        &self.store
    }

    fn into_store(self) -> PointStore {
        self.store
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn guesses(&self) -> usize {
        self.blind.len()
    }

    fn mu(&self, j: usize) -> f64 {
        self.blind[j].mu()
    }

    fn lists(&self, j: usize) -> Vec<&[PointId]> {
        std::iter::once(self.blind[j].members())
            .chain(self.specific.iter().map(|lanes| lanes[j].members()))
            .collect()
    }

    fn in_u_prime(&self, j: usize) -> bool {
        self.blind[j].len() >= self.constraint.total()
            && (0..self.constraint.num_groups())
                .all(|g| self.specific[g][j].len() >= self.constraint.quota(g))
    }

    fn compute(&self, j: usize, sall: &[PointId]) -> Option<(f64, Vec<usize>)> {
        let m = self.constraint.num_groups();
        let blind = &self.blind[j];
        let mu = blind.mu();
        // Partial solution S'_µ: per group min(k_i, |S_µ ∩ X_i|)
        // elements of the blind candidate (Algorithm 3, line 11). The blind
        // members are distinct and come first in S_all, so the i-th blind
        // member sits at index i.
        let mut taken_per_group = vec![0usize; m];
        let mut initial: Vec<usize> = Vec::with_capacity(blind.len());
        for (i, &id) in blind.members().iter().enumerate() {
            debug_assert_eq!(sall[i], id);
            let g = self.store.group(id);
            if taken_per_group[g] < self.constraint.quota(g) {
                taken_per_group[g] += 1;
                initial.push(i);
            }
        }

        // Threshold clustering of S_all (Algorithm 3, lines 13–16).
        let threshold = mu / (m as f64 + 1.0);
        let (cluster_of, num_clusters) =
            threshold_clusters_ids(&self.store, sall, self.metric, threshold);

        // Matroids: fairness (M1) and one-per-cluster (M2).
        let groups_of: Vec<usize> = sall.iter().map(|&id| self.store.group(id)).collect();
        let m1 = PartitionMatroid::new(groups_of, self.constraint.quotas().to_vec())
            .expect("group labels validated on insert");
        let m2 = PartitionMatroid::unit_capacities(cluster_of, num_clusters)
            .expect("cluster labels are dense");

        // Algorithm 4.
        let result = match self.mode {
            AugmentationMode::SeededGreedy => {
                let score = |x: usize, members: &[usize]| {
                    let (row, norm) = (self.store.row(sall[x]), self.store.norm(sall[x]));
                    let mut best = f64::INFINITY;
                    for &y in members {
                        let p = self.metric.proxy_with_sqrt_norms(
                            row,
                            self.store.row(sall[y]),
                            norm,
                            self.store.norm(sall[y]),
                        );
                        if p < best {
                            best = p;
                        }
                    }
                    // Monotone proxy: argmax over proxies = argmax over
                    // distances, which is all the greedy selection needs.
                    best
                };
                max_common_independent_set(&m1, &m2, &initial, Some(&score))
            }
            AugmentationMode::PlainCunningham => max_common_independent_set(&m1, &m2, &[], None),
        };
        if result.len() != self.constraint.total() {
            return None; // line 19 keeps only size-k results
        }
        let ids: Vec<PointId> = result.iter().map(|&i| sall[i]).collect();
        let div = diversity_of_ids(&self.store, &ids, self.metric);
        Some((div, result))
    }
}

/// # Persistence
///
/// The state tree is laid out **append-mostly** on purpose: the arena's
/// coordinate/group/id blobs only grow and each ladder lane's member list
/// only gains ids, so an incremental checkpoint
/// ([`SnapshotDelta`](crate::persist::SnapshotDelta)) between two captures
/// records just the appended rows, the new member ids, and the `processed`
/// counter. In the v2 binary codec the blobs pack as dense `f64` rows and
/// varint ids. Restores of either format (and of `full + delta*` chains)
/// are bit-identical — pinned by `tests/persist_codec.rs`.
impl Snapshottable for Sfdm2 {
    fn algorithm_tag() -> String {
        "sfdm2".to_string()
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
        map.insert("mode".to_string(), self.mode.to_value());
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
        // `config` and `mode` are static for the instance's lifetime → keep.
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
        let config: Sfdm2Config = persist::field(state, "config")?;
        let mode: AugmentationMode = persist::field(state, "mode")?;
        let m = config.constraint.num_groups();
        let mut alg = Self::with_mode(config, mode)?;
        let store: PointStore = persist::field(state, "store")?;
        let store_initialized: bool = persist::field(state, "store_initialized")?;
        if !store_initialized && !store.is_empty() {
            return Err(FdmError::CorruptSnapshot {
                detail: "arena holds points but is marked uninitialized".to_string(),
            });
        }
        if let Some(&bad) = store.groups_raw().iter().find(|&&g| g as usize >= m) {
            return Err(FdmError::CorruptSnapshot {
                detail: format!("group label {bad} out of range for {m} groups"),
            });
        }
        let blind: persist::LadderLanes = persist::field(state, "blind")?;
        persist::restore_lanes(&mut alg.blind, &blind, store.len(), "blind")?;
        let specific: Vec<persist::LadderLanes> = persist::field(state, "specific")?;
        if specific.len() != m {
            return Err(FdmError::CorruptSnapshot {
                detail: format!("expected {m} group ladders, found {}", specific.len()),
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

    fn run(dataset: &Dataset, constraint: FairnessConstraint, eps: f64) -> Result<Solution> {
        let bounds = dataset.exact_distance_bounds().unwrap();
        let mut alg = Sfdm2::new(Sfdm2Config {
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

    #[test]
    fn output_is_fair_two_groups() {
        let d = random_dataset(150, 2, 1);
        let c = FairnessConstraint::new(vec![3, 3]).unwrap();
        let sol = run(&d, c.clone(), 0.1).unwrap();
        assert_eq!(sol.len(), 6);
        assert!(c.is_satisfied_by(&sol.group_counts(2)));
    }

    #[test]
    fn output_is_fair_many_groups() {
        let d = random_dataset(400, 5, 2);
        let c = FairnessConstraint::equal_representation(10, 5).unwrap();
        let sol = run(&d, c.clone(), 0.1).unwrap();
        assert_eq!(sol.len(), 10);
        assert!(c.is_satisfied_by(&sol.group_counts(5)));
    }

    #[test]
    fn theorem4_ratio_on_random_instances() {
        for trial in 0..6 {
            let m = 3;
            let d = random_dataset(15, m, 60 + trial);
            let c = FairnessConstraint::new(vec![1, 1, 2]).unwrap();
            let (opt, _) = exact_fair_optimum(&d, &c);
            if opt <= 0.0 {
                continue;
            }
            let eps = 0.1;
            let sol = run(&d, c, eps).unwrap();
            let guarantee = (1.0 - eps) / (3.0 * m as f64 + 2.0) * opt;
            assert!(
                sol.diversity >= guarantee - 1e-9,
                "trial {trial}: {} < {guarantee}",
                sol.diversity
            );
        }
    }

    #[test]
    fn practical_quality_is_well_above_worst_case() {
        let mut ratios = Vec::new();
        for trial in 0..5 {
            let d = random_dataset(16, 2, 70 + trial);
            let c = FairnessConstraint::new(vec![2, 2]).unwrap();
            let (opt, _) = exact_fair_optimum(&d, &c);
            let sol = run(&d, c, 0.1).unwrap();
            ratios.push(sol.diversity / opt);
        }
        let avg: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(avg > 0.4, "average ratio {avg}: {ratios:?}");
    }

    #[test]
    fn skewed_quotas_many_groups() {
        let d = random_dataset(500, 4, 8);
        let c = FairnessConstraint::new(vec![1, 2, 3, 4]).unwrap();
        let sol = run(&d, c.clone(), 0.1).unwrap();
        assert!(c.is_satisfied_by(&sol.group_counts(4)));
    }

    #[test]
    fn plain_cunningham_mode_is_fair_but_not_better() {
        let d = random_dataset(200, 3, 11);
        let c = FairnessConstraint::new(vec![2, 2, 2]).unwrap();
        let bounds = d.exact_distance_bounds().unwrap();
        let mut greedy = Sfdm2::new(Sfdm2Config {
            constraint: c.clone(),
            epsilon: 0.1,
            bounds,
            metric: Metric::Euclidean,
        })
        .unwrap();
        let mut plain = Sfdm2::with_mode(
            Sfdm2Config {
                constraint: c.clone(),
                epsilon: 0.1,
                bounds,
                metric: Metric::Euclidean,
            },
            AugmentationMode::PlainCunningham,
        )
        .unwrap();
        for e in d.iter() {
            greedy.insert(&e);
            plain.insert(&e);
        }
        let g = greedy.finalize().unwrap();
        let p = plain.finalize().unwrap();
        assert!(c.is_satisfied_by(&g.group_counts(3)));
        assert!(c.is_satisfied_by(&p.group_counts(3)));
        // The paper's §IV-B comparison: seeded greedy selection yields
        // higher (or equal) diversity than plain augmentation.
        assert!(g.diversity >= p.diversity - 1e-9);
    }

    #[test]
    fn space_scales_with_m_not_n() {
        let c = FairnessConstraint::equal_representation(8, 4).unwrap();
        let bounds = DistanceBounds::new(0.05, 15.0).unwrap();
        let ladder_len = GuessLadder::new(bounds, 0.1).unwrap().len();
        for n in [300usize, 3000] {
            let d = random_dataset(n, 4, 21);
            let mut alg = Sfdm2::new(Sfdm2Config {
                constraint: c.clone(),
                epsilon: 0.1,
                bounds,
                metric: Metric::Euclidean,
            })
            .unwrap();
            for e in d.iter() {
                alg.insert(&e);
            }
            // (m + 1) candidates of capacity k per guess.
            assert!(alg.stored_elements() <= ladder_len * 5 * 8);
        }
    }

    #[test]
    fn infeasible_stream_errors() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let d = Dataset::from_rows(rows, vec![0; 60], Metric::Euclidean).unwrap();
        let c = FairnessConstraint::new(vec![2, 2]).unwrap();
        let err = run(&d, c, 0.1).unwrap_err();
        assert_eq!(err, FdmError::NoFeasibleCandidate);
    }

    #[test]
    fn ten_groups_smoke() {
        let d = random_dataset(800, 10, 33);
        let c = FairnessConstraint::equal_representation(20, 10).unwrap();
        let sol = run(&d, c.clone(), 0.2).unwrap();
        assert_eq!(sol.len(), 20);
        assert!(c.is_satisfied_by(&sol.group_counts(10)));
    }

    #[test]
    fn batch_insert_matches_element_by_element() {
        let d = random_dataset(400, 3, 44);
        let c = FairnessConstraint::new(vec![2, 3, 2]).unwrap();
        let bounds = d.exact_distance_bounds().unwrap();
        let cfg = Sfdm2Config {
            constraint: c,
            epsilon: 0.1,
            bounds,
            metric: Metric::Euclidean,
        };
        let mut one_by_one = Sfdm2::new(cfg.clone()).unwrap();
        let mut batched = Sfdm2::new(cfg).unwrap();
        let elements: Vec<Element> = d.iter().collect();
        for e in &elements {
            one_by_one.insert(e);
        }
        for chunk in elements.chunks(61) {
            batched.insert_batch(chunk);
        }
        assert_eq!(one_by_one.stored_elements(), batched.stored_elements());
        let a = one_by_one.finalize().unwrap();
        let b = batched.finalize().unwrap();
        assert_eq!(a.ids(), b.ids());
        assert_eq!(a.diversity, b.diversity);
    }
}

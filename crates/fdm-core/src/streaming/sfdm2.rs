//! SFDM2 — Algorithm 3: streaming FDM for any number of groups,
//! `(1−ε)/(3m+2)`-approximate (Theorem 4).
//!
//! **Stream processing**: per guess `µ` keep one group-blind candidate of
//! capacity `k` and one per-group candidate of capacity `k` (not `k_i` — the
//! larger pools are what Lemma 4's cluster-counting argument needs). This
//! is the stream phase SFDM1 shares ([`crate::streaming::ladder`]), with
//! group capacities `k`; its state tree adds the augmentation `mode` after
//! `config`.
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
//! Retained elements are interned once into a shared
//! [`PointStore`](crate::point::PointStore); candidates hold [`PointId`]s.
//! The whole per-guess post-processing pipeline (clustering + matroid
//! intersection) runs only for guesses whose candidates changed since the
//! last `finalize` ([`crate::streaming::memo`]) and fans out across the
//! ladder on the pool — the results are identical to a fresh, sequential
//! run.

use crate::clustering::threshold_clusters_ids;
use crate::diversity::diversity_of_ids;
use crate::error::{FdmError, Result};
use crate::matroid::intersection::max_common_independent_set;
use crate::matroid::PartitionMatroid;
use crate::point::PointId;
use crate::solution::Solution;
use crate::streaming::ladder::{self, FairLadder, FairStreamConfig};
use crate::streaming::memo::{GuessPipeline, GuessTally};

/// Configuration for [`Sfdm2`]: a quota vector over `m ≥ 2` groups, `ε`,
/// the distance bounds and the metric.
pub type Sfdm2Config = FairStreamConfig;

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
    ladder: FairLadder,
    mode: AugmentationMode,
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
        let k = config.constraint.total();
        Ok(Sfdm2 {
            ladder: FairLadder::new(config, &vec![k; m])?,
            mode,
        })
    }

    /// Post-processing (Algorithm 3, lines 9–19). Each guess's pipeline —
    /// clustering, matroid construction, Cunningham augmentation — is
    /// independent; guesses whose candidates are unchanged since the last
    /// call reuse its result ([`crate::streaming::memo`]) and the rest fan
    /// out across the ladder on the pool.
    pub fn finalize(&self) -> Result<Solution> {
        self.finalize_tallied(&mut GuessTally::default())
    }
}

/// Algorithm 3's per-guess post-processing over `U' = {µ : |S_µ| = k ∧
/// |S_µ,i| ≥ k_i ∀i}`; a result smaller than `k` is dropped (line 19).
impl GuessPipeline for Sfdm2 {
    fn ladder(&self) -> &FairLadder {
        &self.ladder
    }

    fn into_ladder(self) -> FairLadder {
        self.ladder
    }

    fn compute(&self, j: usize, sall: &[PointId]) -> Option<(f64, Vec<usize>)> {
        let (store, config) = (self.ladder.store(), self.ladder.config());
        let (constraint, metric) = (&config.constraint, config.metric);
        let m = constraint.num_groups();
        let blind = self.ladder.blind(j);
        let mu = blind.mu();
        // Partial solution S'_µ: per group min(k_i, |S_µ ∩ X_i|)
        // elements of the blind candidate (Algorithm 3, line 11). The blind
        // members are distinct and come first in S_all, so the i-th blind
        // member sits at index i.
        let mut taken_per_group = vec![0usize; m];
        let mut initial: Vec<usize> = Vec::with_capacity(blind.len());
        for (i, &id) in blind.members().iter().enumerate() {
            debug_assert_eq!(sall[i], id);
            let g = store.group(id);
            if taken_per_group[g] < constraint.quota(g) {
                taken_per_group[g] += 1;
                initial.push(i);
            }
        }

        // Threshold clustering of S_all (Algorithm 3, lines 13–16).
        let threshold = mu / (m as f64 + 1.0);
        let (cluster_of, num_clusters) = threshold_clusters_ids(store, sall, metric, threshold);

        // Matroids: fairness (M1) and one-per-cluster (M2).
        let groups_of: Vec<usize> = sall.iter().map(|&id| store.group(id)).collect();
        let m1 = PartitionMatroid::new(groups_of, constraint.quotas().to_vec())
            .expect("group labels validated on insert");
        let m2 = PartitionMatroid::unit_capacities(cluster_of, num_clusters)
            .expect("cluster labels are dense");

        // Algorithm 4.
        let result = match self.mode {
            AugmentationMode::SeededGreedy => {
                let score = |x: usize, members: &[usize]| {
                    let (row, norm) = (store.row(sall[x]), store.norm(sall[x]));
                    let mut best = f64::INFINITY;
                    for &y in members {
                        let p = metric.proxy_with_sqrt_norms(
                            row,
                            store.row(sall[y]),
                            norm,
                            store.norm(sall[y]),
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
        if result.len() != constraint.total() {
            return None; // line 19 keeps only size-k results
        }
        let ids: Vec<PointId> = result.iter().map(|&i| sall[i]).collect();
        let div = diversity_of_ids(store, &ids, metric);
        Some((div, result))
    }
}

ladder::fair_stream!(Sfdm2, "Algorithm 3", "sfdm2", mode, with_mode);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::exact_fair_optimum;
    use crate::dataset::{Dataset, DistanceBounds};
    use crate::fairness::FairnessConstraint;
    use crate::guess::GuessLadder;
    use crate::metric::Metric;
    use crate::point::Element;
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

//! SFDM1 — Algorithm 2: streaming FDM for `m = 2` groups,
//! `(1−ε)/4`-approximate (Theorem 2).
//!
//! **Stream processing**: per guess `µ` keep one group-blind candidate of
//! capacity `k = k_1 + k_2` plus one group-specific candidate of capacity
//! `k_i` per group (elements filtered by group). This is the stream phase
//! SFDM2 shares ([`crate::streaming::ladder`]), with group capacities
//! `k_i`; its state tree adds the balancing `strategy` after `config`.
//!
//! **Post-processing**: restrict to `U' = {µ : |S_µ| = k ∧ |S_µ,i| = k_i}`.
//! Each group-blind candidate either already satisfies the constraint or has
//! exactly one under-filled group; balance it by inserting the pool elements
//! furthest from the under-filled side, then deleting the over-filled
//! elements closest to it ([`crate::balance`]). Lemma 2 shows the balanced
//! candidate keeps `div ≥ µ/2`; Lemma 1 places a `µ' ≥ (1−ε)/2 · OPT_f`
//! in `U'`.
//!
//! Retained elements are interned once into a shared
//! [`PointStore`](crate::point::PointStore); candidates hold [`PointId`]s.
//! The per-guess balancing of the post-processing runs only for guesses
//! whose candidates changed since the last `finalize`
//! ([`crate::streaming::memo`]) and fans out across the ladder on the pool
//! (identical results however it is scheduled).

use crate::balance::{balance_two_groups, SwapStrategy};
use crate::diversity::diversity_of_ids;
use crate::error::{FdmError, Result};
use crate::point::PointId;
use crate::solution::Solution;
use crate::streaming::ladder::{self, FairLadder, FairStreamConfig};
use crate::streaming::memo::{GuessPipeline, GuessTally};

/// Configuration for [`Sfdm1`]: a two-group quota vector, `ε`, the
/// distance bounds and the metric.
pub type Sfdm1Config = FairStreamConfig;

/// Streaming state of SFDM1.
#[derive(Debug, Clone)]
pub struct Sfdm1 {
    ladder: FairLadder,
    strategy: SwapStrategy,
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
            return Err(FdmError::TwoGroupsRequired {
                algorithm: "SFDM1",
                found: config.constraint.num_groups(),
            });
        }
        let quotas = config.constraint.quotas().to_vec();
        Ok(Sfdm1 {
            ladder: FairLadder::new(config, &quotas)?,
            strategy,
        })
    }

    /// Post-processing (Algorithm 2, lines 9–18): balance every candidate in
    /// `U'` and return the most diverse fair result. Guesses whose
    /// candidates are unchanged since the last call reuse its result
    /// ([`crate::streaming::memo`]); the rest balance on the pool.
    pub fn finalize(&self) -> Result<Solution> {
        self.finalize_tallied(&mut GuessTally::default())
    }
}

/// Algorithm 2's per-guess balancing over `U' = {µ : |S_µ| = k ∧ |S_µ,i| =
/// k_i}`.
impl GuessPipeline for Sfdm1 {
    fn ladder(&self) -> &FairLadder {
        &self.ladder
    }

    fn into_ladder(self) -> FairLadder {
        self.ladder
    }

    fn compute(&self, j: usize, sall: &[PointId]) -> Option<(f64, Vec<usize>)> {
        let ladder = &self.ladder;
        let (store, config) = (ladder.store(), ladder.config());
        let mut solution = ladder.blind(j).members().to_vec();
        let pools = [0, 1].map(|g| ladder.group(g, j).members().to_vec());
        if !balance_two_groups(
            store,
            &mut solution,
            &pools,
            &config.constraint,
            config.metric,
            self.strategy,
        ) {
            return None;
        }
        let div = diversity_of_ids(store, &solution, config.metric);
        let positions = solution
            .iter()
            .map(|id| {
                sall.iter()
                    .position(|s| s == id)
                    .expect("balancing draws from S_all")
            })
            .collect();
        Some((div, positions))
    }
}

ladder::fair_stream!(Sfdm1, "Algorithm 2", "sfdm1", strategy, with_strategy);

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
        assert_eq!(
            Sfdm1::new(cfg).unwrap_err(),
            FdmError::TwoGroupsRequired {
                algorithm: "SFDM1",
                found: 3
            }
        );
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

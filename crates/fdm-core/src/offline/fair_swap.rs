//! FairSwap — offline `1/4`-approximation for FDM with `m = 2` groups
//! (Moumoulidou et al., ICDT 2021; §V-A baseline).
//!
//! Runs GMM over the whole dataset for a group-blind solution of size
//! `k = k_1 + k_2`, runs GMM within each group for swap pools of size `k_i`,
//! and balances the blind solution with the same insert-furthest /
//! delete-closest rule as SFDM1's post-processing ([`crate::balance`]).
//! Unlike SFDM1 it keeps the entire dataset in memory and random-accesses it
//! (`O(n)` space, `O(nk)` time), which is exactly the inefficiency the
//! paper's streaming algorithms remove.

use crate::balance::{balance_two_groups, SwapStrategy};
use crate::dataset::Dataset;
use crate::error::{FdmError, Result};
use crate::fairness::FairnessConstraint;
use crate::offline::gmm::{gmm, gmm_on_subset};
use crate::point::PointId;
use crate::solution::Solution;

/// Configuration for [`FairSwap`].
#[derive(Debug, Clone)]
pub struct FairSwapConfig {
    /// Per-group quotas; must have exactly two groups.
    pub constraint: FairnessConstraint,
    /// Seed for GMM start-element selection.
    pub seed: u64,
    /// Insert/delete selection rule (paper uses [`SwapStrategy::Greedy`]).
    pub strategy: SwapStrategy,
}

/// The FairSwap algorithm. See the module docs.
#[derive(Debug, Clone)]
pub struct FairSwap {
    config: FairSwapConfig,
}

impl FairSwap {
    /// Creates the algorithm, validating that the constraint has two groups.
    pub fn new(config: FairSwapConfig) -> Result<Self> {
        if config.constraint.num_groups() != 2 {
            return Err(FdmError::TwoGroupsRequired {
                algorithm: "FairSwap",
                found: config.constraint.num_groups(),
            });
        }
        Ok(FairSwap { config })
    }

    /// Runs FairSwap on `dataset`.
    pub fn run(&self, dataset: &Dataset) -> Result<Solution> {
        let constraint = &self.config.constraint;
        constraint.check_feasible(dataset.group_sizes())?;
        let k = constraint.total();
        if dataset.len() < k {
            return Err(FdmError::NotEnoughElements {
                required: k,
                available: dataset.len(),
            });
        }

        // Group-blind GMM solution of size k (arena ids into the dataset's
        // point store — balancing runs over contiguous rows).
        let blind = gmm(dataset, k, self.config.seed);
        let mut solution: Vec<PointId> = blind.iter().map(|&i| dataset.point_id(i)).collect();

        // Group-specific GMM pools of size k_i.
        let mut pools: Vec<Vec<PointId>> = Vec::with_capacity(2);
        for g in 0..2 {
            let members = dataset.group_indices(g);
            let pool = gmm_on_subset(dataset, &members, constraint.quota(g), self.config.seed);
            pools.push(pool.iter().map(|&i| dataset.point_id(i)).collect());
        }

        let balanced = balance_two_groups(
            dataset.store(),
            &mut solution,
            &pools,
            constraint,
            dataset.metric(),
            self.config.strategy,
        );
        if !balanced {
            return Err(FdmError::NoFeasibleCandidate);
        }
        Ok(Solution::from_ids(
            dataset.store(),
            &solution,
            dataset.metric(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::exact_fair_optimum;
    use crate::metric::Metric;
    use rand::prelude::*;

    fn two_group_line(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let groups: Vec<usize> = (0..n).map(|i| i % 2).collect();
        Dataset::from_rows(rows, groups, Metric::Euclidean).unwrap()
    }

    fn config(k1: usize, k2: usize) -> FairSwapConfig {
        FairSwapConfig {
            constraint: FairnessConstraint::new(vec![k1, k2]).unwrap(),
            seed: 0,
            strategy: SwapStrategy::Greedy,
        }
    }

    #[test]
    fn returns_fair_solution() {
        let d = two_group_line(40);
        let alg = FairSwap::new(config(3, 3)).unwrap();
        let sol = alg.run(&d).unwrap();
        assert_eq!(sol.len(), 6);
        assert_eq!(sol.group_counts(2), vec![3, 3]);
        assert!(sol.diversity > 0.0);
    }

    #[test]
    fn rejects_non_binary_constraint() {
        let c = FairnessConstraint::new(vec![1, 1, 1]).unwrap();
        let cfg = FairSwapConfig {
            constraint: c,
            seed: 0,
            strategy: SwapStrategy::Greedy,
        };
        assert_eq!(
            FairSwap::new(cfg).unwrap_err(),
            FdmError::TwoGroupsRequired {
                algorithm: "FairSwap",
                found: 3
            }
        );
    }

    #[test]
    fn rejects_infeasible_dataset() {
        // Group 1 has only 1 element but quota 2.
        let d = Dataset::from_rows(
            vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            vec![0, 0, 0, 1],
            Metric::Euclidean,
        )
        .unwrap();
        let alg = FairSwap::new(config(2, 2)).unwrap();
        assert!(matches!(
            alg.run(&d),
            Err(FdmError::InfeasibleConstraint { .. })
        ));
    }

    #[test]
    fn quarter_approximation_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..8 {
            let n = 14;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| vec![rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0])
                .collect();
            let groups: Vec<usize> = (0..n).map(|_| rng.random_range(0..2)).collect();
            // Ensure both groups have at least 2 members.
            let mut groups = groups;
            groups[0] = 0;
            groups[1] = 0;
            groups[2] = 1;
            groups[3] = 1;
            let d = Dataset::from_rows(rows, groups, Metric::Euclidean).unwrap();
            let constraint = FairnessConstraint::new(vec![2, 2]).unwrap();
            let (opt, _) = exact_fair_optimum(&d, &constraint);
            let alg = FairSwap::new(FairSwapConfig {
                constraint,
                seed: trial,
                strategy: SwapStrategy::Greedy,
            })
            .unwrap();
            let sol = alg.run(&d).unwrap();
            assert!(
                sol.diversity >= opt / 4.0 - 1e-9,
                "trial {trial}: FairSwap {} < OPT_f/4 = {}",
                sol.diversity,
                opt / 4.0
            );
        }
    }

    #[test]
    fn skewed_groups_still_balanced() {
        // 90% group 0, 10% group 1.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i as f64).sin()]).collect();
        let groups: Vec<usize> = (0..50).map(|i| usize::from(i % 10 == 0)).collect();
        let d = Dataset::from_rows(rows, groups, Metric::Euclidean).unwrap();
        let alg = FairSwap::new(config(5, 5)).unwrap();
        let sol = alg.run(&d).unwrap();
        assert_eq!(sol.group_counts(2), vec![5, 5]);
    }
}

//! Algorithm 1 — streaming unconstrained max–min diversity maximization.
//!
//! One candidate per guess `µ ∈ U`; each arriving element is offered to
//! every candidate. After the pass, the full candidate with maximum
//! diversity is the solution. Borassi et al. proved `(1−ε)/5`; the paper's
//! Theorem 1 tightens the analysis of the same algorithm to `(1−ε)/2`,
//! which the test suite checks against brute-force optima.
//!
//! The candidates are SFDM1's and SFDM2's blind lane alone: they share the
//! arena half of that stream phase ([`crate::streaming::ladder`]), which
//! interns retained elements exactly once into a shared [`PointStore`],
//! tests thresholds in proxy space (see [`crate::metric`]) and lays out the
//! state tree, here with the lane under `candidates`. The per-guess
//! diversity scan of [`StreamingDiversityMaximization::finalize`] fans out
//! across the ladder on the pool.

use serde::Serialize as _;

use crate::dataset::DistanceBounds;
use crate::diversity::diversity_of_ids;
use crate::error::{FdmError, Result};
use crate::guess::GuessLadder;
use crate::metric::Metric;
use crate::par::maybe_par_map;
use crate::persist::{self, SnapshotParams, Snapshottable, StatePatch};
use crate::point::{Element, PointStore};
use crate::solution::Solution;
use crate::streaming::candidate::Candidate;
use crate::streaming::ladder::Arena;
use crate::streaming::sharded::ShardAlgorithm;

/// Configuration for [`StreamingDiversityMaximization`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StreamingDmConfig {
    /// Solution size `k ≥ 2`.
    pub k: usize,
    /// Guess-ladder accuracy `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Known bounds with `d_min ≤ OPT ≤ d_max`.
    pub bounds: DistanceBounds,
    /// The distance metric.
    pub metric: Metric,
}

/// Streaming state of Algorithm 1.
#[derive(Debug, Clone)]
pub struct StreamingDiversityMaximization {
    config: StreamingDmConfig,
    arena: Arena,
    candidates: Vec<Candidate>,
}

impl StreamingDiversityMaximization {
    /// Initializes the guess ladder and one empty candidate per guess.
    pub fn new(config: StreamingDmConfig) -> Result<Self> {
        if config.k < 2 {
            return Err(FdmError::SolutionSizeTooSmall { k: config.k });
        }
        config.metric.validate()?;
        let ladder = GuessLadder::new(config.bounds, config.epsilon)?;
        let candidates = ladder
            .values()
            .iter()
            .map(|&mu| Candidate::new(mu, config.k, config.metric))
            .collect();
        Ok(StreamingDiversityMaximization {
            config,
            arena: Arena::new(),
            candidates,
        })
    }

    /// Processes one stream element (Algorithm 1, lines 3–6).
    pub fn insert(&mut self, element: &Element) {
        self.arena
            .offer(self.config.metric, &mut self.candidates, element);
    }

    /// Processes a batch of stream elements in order — the
    /// [`ShardAlgorithm::insert_batch`] loop, kept inherent so callers need
    /// not name the trait.
    pub fn insert_batch(&mut self, batch: &[Element]) {
        ShardAlgorithm::insert_batch(self, batch);
    }

    /// Number of elements seen so far.
    pub fn processed(&self) -> usize {
        self.arena.processed()
    }

    /// Number of guesses `|U|`.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Number of *distinct* elements currently retained across all
    /// candidates — the paper's space metric (Fig. 8).
    pub fn stored_elements(&self) -> usize {
        self.arena.stored_elements()
    }

    /// The shared arena of retained elements.
    pub fn store(&self) -> &PointStore {
        self.arena.store()
    }

    /// Read-only view of the candidates (used by tests and diagnostics).
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> StreamingDmConfig {
        self.config.clone()
    }

    /// Algorithm 1, line 7: the full candidate maximizing `div(S_µ)`.
    pub fn finalize(&self) -> Result<Solution> {
        let (store, metric) = (self.arena.store(), self.config.metric);
        let diversities: Vec<Option<f64>> = maybe_par_map(self.candidates.len(), |j| {
            let c = &self.candidates[j];
            (c.len() == self.config.k).then(|| diversity_of_ids(store, c.members(), metric))
        });
        let best = diversities
            .iter()
            .enumerate()
            .filter_map(|(j, d)| d.map(|d| (j, d)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        match best {
            Some((j, _)) => Ok(Solution::from_ids(
                store,
                self.candidates[j].members(),
                metric,
            )),
            None => Err(FdmError::NoFeasibleCandidate),
        }
    }
}

/// # Persistence
///
/// The arena half's state tree ([`crate::streaming::ladder`]) after
/// `config`, with the one lane under `candidates`.
impl Snapshottable for StreamingDiversityMaximization {
    fn algorithm_tag() -> String {
        "unconstrained".to_string()
    }

    fn snapshot_params(&self) -> SnapshotParams {
        SnapshotParams {
            algorithm: Self::algorithm_tag(),
            dim: self.arena.dim(),
            epsilon: self.config.epsilon,
            metric: self.config.metric,
            bounds: self.config.bounds,
            quotas: Vec::new(),
            k: self.config.k,
            shards: 1,
            window: 0,
        }
    }

    fn snapshot_state(&self) -> serde::Value {
        self.arena.state(
            [("config", self.config.to_value())],
            &[("candidates", &self.candidates)],
        )
    }

    fn capture_cursor(&self) -> serde::Value {
        self.arena.cursor(&[("candidates", &self.candidates)])
    }

    fn state_patch_since(&self, cursor: &serde::Value) -> Option<StatePatch> {
        self.arena
            .patch_since(&[("candidates", &self.candidates)], cursor)
    }

    fn restore_state(state: &serde::Value) -> Result<Self> {
        let mut alg = Self::new(persist::field(state, "config")?)?;
        alg.arena = Arena::restore(state, &mut [("candidates", &mut alg.candidates)])?;
        Ok(alg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::exact_unconstrained_optimum;
    use crate::dataset::Dataset;
    use rand::prelude::*;

    fn config(k: usize, eps: f64, lo: f64, hi: f64) -> StreamingDmConfig {
        StreamingDmConfig {
            k,
            epsilon: eps,
            bounds: DistanceBounds::new(lo, hi).unwrap(),
            metric: Metric::Euclidean,
        }
    }

    fn run_stream(dataset: &Dataset, cfg: StreamingDmConfig) -> StreamingDiversityMaximization {
        let mut alg = StreamingDiversityMaximization::new(cfg).unwrap();
        for e in dataset.iter() {
            alg.insert(&e);
        }
        alg
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(StreamingDiversityMaximization::new(config(1, 0.1, 1.0, 10.0)).is_err());
        assert!(StreamingDiversityMaximization::new(config(3, 0.0, 1.0, 10.0)).is_err());
        assert!(StreamingDiversityMaximization::new(config(3, 1.0, 1.0, 10.0)).is_err());
    }

    #[test]
    fn finds_solution_on_line() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let d = Dataset::from_rows(rows, vec![0; 100], Metric::Euclidean).unwrap();
        let bounds = d.exact_distance_bounds().unwrap();
        let alg = run_stream(
            &d,
            StreamingDmConfig {
                k: 5,
                epsilon: 0.1,
                bounds,
                metric: Metric::Euclidean,
            },
        );
        let sol = alg.finalize().unwrap();
        assert_eq!(sol.len(), 5);
        // Optimal div for 5 points on 0..99 is 99/4 = 24.75; the algorithm
        // guarantees (1−ε)/2 ≈ 0.45 of that.
        assert!(
            sol.diversity >= 0.45 * 24.75 - 1e-9,
            "got {}",
            sol.diversity
        );
    }

    #[test]
    fn theorem1_ratio_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..10 {
            let n = 16;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| vec![rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0])
                .collect();
            let d = Dataset::from_rows(rows, vec![0; n], Metric::Euclidean).unwrap();
            let k = 4;
            let opt = exact_unconstrained_optimum(&d, k);
            let bounds = d.exact_distance_bounds().unwrap();
            let eps = 0.1;
            let alg = run_stream(
                &d,
                StreamingDmConfig {
                    k,
                    epsilon: eps,
                    bounds,
                    metric: Metric::Euclidean,
                },
            );
            let sol = alg.finalize().unwrap();
            let guarantee = (1.0 - eps) / 2.0 * opt;
            assert!(
                sol.diversity >= guarantee - 1e-9,
                "trial {trial}: {} < {guarantee}",
                sol.diversity
            );
        }
    }

    #[test]
    fn stream_order_does_not_break_guarantee() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 14;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random::<f64>() * 5.0, rng.random::<f64>() * 5.0])
            .collect();
        let d = Dataset::from_rows(rows, vec![0; n], Metric::Euclidean).unwrap();
        let k = 3;
        let opt = exact_unconstrained_optimum(&d, k);
        let bounds = d.exact_distance_bounds().unwrap();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..5 {
            order.shuffle(&mut rng);
            let mut alg = StreamingDiversityMaximization::new(StreamingDmConfig {
                k,
                epsilon: 0.1,
                bounds,
                metric: Metric::Euclidean,
            })
            .unwrap();
            for &i in &order {
                alg.insert(&d.element(i));
            }
            let sol = alg.finalize().unwrap();
            assert!(sol.diversity >= 0.45 * opt - 1e-9);
        }
    }

    #[test]
    fn space_is_bounded_by_candidates_times_k() {
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|i| vec![(i as f64).sin() * 50.0, (i as f64).cos() * 50.0])
            .collect();
        let d = Dataset::from_rows(rows, vec![0; 500], Metric::Euclidean).unwrap();
        let bounds = d.sampled_distance_bounds(50, 2.0).unwrap();
        let k = 8;
        let alg = run_stream(
            &d,
            StreamingDmConfig {
                k,
                epsilon: 0.2,
                bounds,
                metric: Metric::Euclidean,
            },
        );
        assert!(alg.stored_elements() <= alg.num_candidates() * k);
        assert!(
            alg.stored_elements() < 500,
            "must not store the whole stream"
        );
        assert_eq!(alg.processed(), 500);
    }

    #[test]
    fn too_short_stream_yields_error() {
        let rows: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64]).collect();
        let d = Dataset::from_rows(rows, vec![0; 3], Metric::Euclidean).unwrap();
        let bounds = d.exact_distance_bounds().unwrap();
        let alg = run_stream(
            &d,
            StreamingDmConfig {
                k: 5,
                epsilon: 0.1,
                bounds,
                metric: Metric::Euclidean,
            },
        );
        assert_eq!(alg.finalize().unwrap_err(), FdmError::NoFeasibleCandidate);
    }

    #[test]
    fn duplicate_points_are_never_both_kept() {
        let rows = vec![vec![0.0], vec![0.0], vec![5.0], vec![5.0], vec![10.0]];
        let d = Dataset::from_rows(rows, vec![0; 5], Metric::Euclidean).unwrap();
        let bounds = DistanceBounds::new(1.0, 10.0).unwrap();
        let alg = run_stream(
            &d,
            StreamingDmConfig {
                k: 3,
                epsilon: 0.1,
                bounds,
                metric: Metric::Euclidean,
            },
        );
        let sol = alg.finalize().unwrap();
        assert_eq!(sol.len(), 3);
        assert!(sol.diversity >= 1.0);
    }

    #[test]
    fn batch_insert_matches_element_by_element() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                vec![
                    (i as f64 * 0.77).sin() * 20.0,
                    (i as f64 * 0.31).cos() * 20.0,
                ]
            })
            .collect();
        let d = Dataset::from_rows(rows, vec![0; 200], Metric::Euclidean).unwrap();
        let bounds = d.sampled_distance_bounds(50, 2.0).unwrap();
        let cfg = StreamingDmConfig {
            k: 6,
            epsilon: 0.15,
            bounds,
            metric: Metric::Euclidean,
        };
        let one_by_one = run_stream(&d, cfg.clone());
        let mut batched = StreamingDiversityMaximization::new(cfg).unwrap();
        let elements: Vec<Element> = d.iter().collect();
        for chunk in elements.chunks(37) {
            batched.insert_batch(chunk);
        }
        assert_eq!(one_by_one.processed(), batched.processed());
        assert_eq!(one_by_one.stored_elements(), batched.stored_elements());
        let a = one_by_one.finalize().unwrap();
        let b = batched.finalize().unwrap();
        assert_eq!(a.ids(), b.ids());
        assert_eq!(a.diversity, b.diversity);
    }
}

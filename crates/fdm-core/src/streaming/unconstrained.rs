//! Algorithm 1 — streaming unconstrained max–min diversity maximization.
//!
//! One candidate per guess `µ ∈ U`; each arriving element is offered to
//! every candidate. After the pass, the full candidate with maximum
//! diversity is the solution. Borassi et al. proved `(1−ε)/5`; the paper's
//! Theorem 1 tightens the analysis of the same algorithm to `(1−ε)/2`,
//! which the test suite checks against brute-force optima.
//!
//! Retained elements are interned exactly once into a shared [`PointStore`]
//! arena; candidates hold [`PointId`]s and test thresholds in proxy space
//! (see [`crate::metric`]). The per-guess diversity scan of
//! [`StreamingDiversityMaximization::finalize`] fans out across the ladder
//! on the pool.

use std::collections::HashSet;

use serde::Serialize as _;

use crate::dataset::DistanceBounds;
use crate::error::{FdmError, Result};
use crate::guess::GuessLadder;
use crate::metric::Metric;
use crate::par::maybe_par_map;
use crate::persist::{self, Snapshottable};
use crate::point::{Element, PointId, PointStore};
use crate::solution::Solution;
use crate::streaming::candidate::{ArrivalProxies, Candidate};
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
    store: PointStore,
    candidates: Vec<Candidate>,
    metric: Metric,
    k: usize,
    epsilon: f64,
    bounds: DistanceBounds,
    /// Per-arrival proxy cache shared across all candidates (see
    /// [`ArrivalProxies`]).
    scratch: ArrivalProxies,
    processed: usize,
    store_initialized: bool,
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
            // Dimension is unknown until the first element arrives.
            store: PointStore::new(1),
            candidates,
            metric: config.metric,
            k: config.k,
            epsilon: config.epsilon,
            bounds: config.bounds,
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

    /// Processes one stream element (Algorithm 1, lines 3–6).
    pub fn insert(&mut self, element: &Element) {
        self.ensure_store_dim(element.dim());
        self.processed += 1;
        // One shared proxy cache per arrival: the ladder's candidates hold
        // overlapping members, so each retained row costs one kernel
        // evaluation however many guesses test it.
        self.scratch
            .begin_arrival(&self.store, self.metric, &element.point);
        let mut interned: Option<PointId> = None;
        let store = &mut self.store;
        let scratch = &mut self.scratch;
        for candidate in &mut self.candidates {
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

    /// Number of guesses `|U|`.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Number of *distinct* elements currently retained across all
    /// candidates — the paper's space metric (Fig. 8).
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

    /// Read-only view of the candidates (used by tests and diagnostics).
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> StreamingDmConfig {
        StreamingDmConfig {
            k: self.k,
            epsilon: self.epsilon,
            bounds: self.bounds,
            metric: self.metric,
        }
    }

    /// Algorithm 1, line 7: the full candidate maximizing `div(S_µ)`.
    pub fn finalize(&self) -> Result<Solution> {
        let diversities: Vec<Option<f64>> = maybe_par_map(self.candidates.len(), |j| {
            let c = &self.candidates[j];
            (c.len() == self.k).then(|| c.diversity(&self.store))
        });
        let best = diversities
            .iter()
            .enumerate()
            .filter_map(|(j, d)| d.map(|d| (j, d)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        match best {
            Some((j, _)) => Ok(Solution::from_ids(
                &self.store,
                self.candidates[j].members(),
                self.metric,
            )),
            None => Err(FdmError::NoFeasibleCandidate),
        }
    }
}

/// # Persistence
///
/// Append-mostly state layout (arena blobs + one ladder of member lists
/// that only grow), so delta snapshots
/// ([`SnapshotDelta`](crate::persist::SnapshotDelta)) record just the
/// appended rows/ids and the `processed` counter; the v2 binary codec
/// packs both densely. Both formats and `full + delta*` chains restore
/// bit-identically (`tests/persist_codec.rs`).
impl Snapshottable for StreamingDiversityMaximization {
    fn algorithm_tag() -> String {
        "unconstrained".to_string()
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
            quotas: Vec::new(),
            k: self.k,
            shards: 1,
            window: 0,
        }
    }

    fn snapshot_state(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("config".to_string(), self.config().to_value());
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
            "candidates".to_string(),
            persist::lanes_of(&self.candidates).to_value(),
        );
        serde::Value::Object(map)
    }

    fn capture_cursor(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("store".to_string(), persist::store_cursor(&self.store));
        map.insert(
            "candidates".to_string(),
            persist::lanes_cursor(&self.candidates),
        );
        serde::Value::Object(map)
    }

    fn state_patch_since(&self, cursor: &serde::Value) -> Option<persist::StatePatch> {
        let store = persist::store_patch_since(&self.store, cursor.get("store")?)?;
        let candidates = persist::lanes_patch_since(&self.candidates, cursor.get("candidates")?)?;
        // `config` is static for the instance's lifetime → keep.
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
            ("candidates".to_string(), candidates),
        ]))
    }

    fn restore_state(state: &serde::Value) -> Result<Self> {
        let config: StreamingDmConfig = persist::field(state, "config")?;
        let mut alg = Self::new(config)?;
        let store: PointStore = persist::field(state, "store")?;
        let store_initialized: bool = persist::field(state, "store_initialized")?;
        if !store_initialized && !store.is_empty() {
            return Err(FdmError::CorruptSnapshot {
                detail: "arena holds points but is marked uninitialized".to_string(),
            });
        }
        let lanes: persist::LadderLanes = persist::field(state, "candidates")?;
        persist::restore_lanes(&mut alg.candidates, &lanes, store.len(), "candidates")?;
        alg.processed = persist::field(state, "processed")?;
        alg.store = store;
        alg.store_initialized = store_initialized;
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

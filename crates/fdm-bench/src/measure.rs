//! Algorithm runners with the paper's performance measures (§V-A).
//!
//! * **quality** — `div(S)` of the returned solution;
//! * **efficiency** — for streaming algorithms the *average update time*
//!   (wall-clock insert cost per arrival element; post-processing reported
//!   separately), for offline algorithms the total solution time — exactly
//!   the convention behind Table II's "time(s)" column;
//! * **space** — number of distinct stored elements (streaming only; the
//!   offline baselines keep the whole dataset, i.e. `n`).
//!
//! Every streaming run is one uninterrupted pass over a permutation of the
//! dataset; nothing is checkpointed, so the measured update time is
//! algorithm work alone. Persistence belongs to the serving engine.

use std::time::Instant;

use fdm_core::balance::SwapStrategy;
use fdm_core::dataset::Dataset;
use fdm_core::diversity::diversity;
use fdm_core::error::Result;
use fdm_core::fairness::FairnessConstraint;
use fdm_core::offline::fair_flow::{FairFlow, FairFlowConfig};
use fdm_core::offline::fair_gmm::{FairGmm, FairGmmConfig};
use fdm_core::offline::fair_swap::{FairSwap, FairSwapConfig};
use fdm_core::offline::gmm::gmm;
use fdm_core::point::Element;
use fdm_core::streaming::summary::{self, SummarySpec};
use fdm_datasets::stream::{shuffled_indices, stream_elements};

/// Batch size for the sharded ingestion path: large enough to amortize the
/// per-batch fan-out, small enough to keep shard sub-batches cache-warm.
const SHARD_BATCH: usize = 512;

/// The algorithms of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Gonzalez greedy (unconstrained reference).
    Gmm,
    /// Streaming unconstrained baseline (Algorithm 1).
    StreamingDm,
    /// Offline FairSwap (m = 2).
    FairSwap,
    /// Offline FairFlow (any m).
    FairFlow,
    /// Offline FairGMM (small k, m).
    FairGmm,
    /// Streaming SFDM1 (m = 2).
    Sfdm1,
    /// Streaming SFDM2 (any m).
    Sfdm2,
    /// Sliding-window wrapper over SFDM2 (checkpointed restart).
    Sliding,
}

impl Algo {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Gmm => "GMM",
            Algo::StreamingDm => "SDM",
            Algo::FairSwap => "FairSwap",
            Algo::FairFlow => "FairFlow",
            Algo::FairGmm => "FairGMM",
            Algo::Sfdm1 => "SFDM1",
            Algo::Sfdm2 => "SFDM2",
            Algo::Sliding => "Sliding",
        }
    }

    /// Whether the algorithm processes the data as a one-pass stream.
    pub fn is_streaming(&self) -> bool {
        matches!(
            self,
            Algo::StreamingDm | Algo::Sfdm1 | Algo::Sfdm2 | Algo::Sliding
        )
    }

    /// The summary registry tag for the streaming algorithms.
    fn registry_tag(&self) -> Option<&'static str> {
        match self {
            Algo::StreamingDm => Some("unconstrained"),
            Algo::Sfdm1 => Some("sfdm1"),
            Algo::Sfdm2 => Some("sfdm2"),
            Algo::Sliding => Some("sliding"),
            _ => None,
        }
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm name.
    pub algo: &'static str,
    /// `div(S)` of the solution.
    pub diversity: f64,
    /// Total wall-clock time (stream pass + post-processing, or offline
    /// runtime), seconds.
    pub total_time_s: f64,
    /// Streaming only: average insert time per element, seconds.
    pub update_time_s: Option<f64>,
    /// Streaming only: post-processing (finalize) time, seconds.
    pub post_time_s: Option<f64>,
    /// Streaming only: distinct stored elements.
    pub stored_elements: Option<usize>,
}

impl RunResult {
    /// The paper's Table II "time(s)" value: per-element update time for
    /// streaming algorithms, total runtime for offline ones.
    pub fn paper_time_s(&self) -> f64 {
        self.update_time_s.unwrap_or(self.total_time_s)
    }
}

/// Parameters shared by all runs of one experiment cell.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Fairness constraint (`total()` = k).
    pub constraint: FairnessConstraint,
    /// Guess-ladder accuracy for the streaming algorithms.
    pub epsilon: f64,
    /// Seed: selects the stream permutation and the offline algorithms'
    /// start elements.
    pub seed: u64,
    /// Shard count for the streaming algorithms: 1 runs them unsharded
    /// (bit-identical to the plain algorithm); K > 1 routes the stream
    /// through `ShardedStream` with chunked batch ingestion.
    pub shards: usize,
    /// Sliding-window size for [`Algo::Sliding`]; every other algorithm
    /// ignores it.
    pub window: usize,
}

/// Runs one algorithm once and measures it.
pub fn run_algorithm(dataset: &Dataset, algo: Algo, config: &RunConfig) -> Result<RunResult> {
    let k = config.constraint.total();
    match algo {
        Algo::Gmm => {
            let start = Instant::now();
            let sol = gmm(dataset, k, config.seed);
            let div = diversity(dataset, &sol);
            Ok(RunResult {
                algo: algo.name(),
                diversity: div,
                total_time_s: start.elapsed().as_secs_f64(),
                update_time_s: None,
                post_time_s: None,
                stored_elements: None,
            })
        }
        Algo::FairSwap => {
            let alg = FairSwap::new(FairSwapConfig {
                constraint: config.constraint.clone(),
                seed: config.seed,
                strategy: SwapStrategy::Greedy,
            })?;
            let start = Instant::now();
            let sol = alg.run(dataset)?;
            Ok(RunResult {
                algo: algo.name(),
                diversity: sol.diversity,
                total_time_s: start.elapsed().as_secs_f64(),
                update_time_s: None,
                post_time_s: None,
                stored_elements: None,
            })
        }
        Algo::FairFlow => {
            let alg = FairFlow::new(FairFlowConfig {
                constraint: config.constraint.clone(),
                seed: config.seed,
            })?;
            let start = Instant::now();
            let sol = alg.run(dataset)?;
            Ok(RunResult {
                algo: algo.name(),
                diversity: sol.diversity,
                total_time_s: start.elapsed().as_secs_f64(),
                update_time_s: None,
                post_time_s: None,
                stored_elements: None,
            })
        }
        Algo::FairGmm => {
            let alg = FairGmm::new(FairGmmConfig::new(config.constraint.clone(), config.seed))?;
            let start = Instant::now();
            let sol = alg.run(dataset)?;
            Ok(RunResult {
                algo: algo.name(),
                diversity: sol.diversity,
                total_time_s: start.elapsed().as_secs_f64(),
                update_time_s: None,
                post_time_s: None,
                stored_elements: None,
            })
        }
        Algo::StreamingDm | Algo::Sfdm1 | Algo::Sfdm2 | Algo::Sliding => {
            run_streaming(algo, dataset, config)
        }
    }
}

/// The registry spec one streaming cell implies: every streaming algorithm
/// goes through this one translation, so adding an algorithm to the bench
/// is adding an [`Algo`] variant and its registry tag — no per-algorithm
/// runner.
fn summary_spec(algo: Algo, dataset: &Dataset, config: &RunConfig) -> Result<SummarySpec> {
    let tag = algo
        .registry_tag()
        .expect("summary_spec is only called for streaming algorithms");
    let bounds = dataset.sampled_distance_bounds(300, 4.0)?;
    let quotas = if tag == "unconstrained" {
        Vec::new()
    } else {
        config.constraint.quotas().to_vec()
    };
    Ok(SummarySpec {
        algorithm: tag.to_string(),
        epsilon: config.epsilon,
        bounds,
        metric: dataset.metric(),
        quotas,
        k: config.constraint.total(),
        shards: config.shards.max(1),
        window: if tag == "sliding" { config.window } else { 0 },
    })
}

/// Streams the permuted dataset through any registry-built summary and
/// measures it. `shards == 1` inserts element-by-element (the unsharded
/// reference path, bit-identical to the plain algorithm); `shards > 1`
/// ingests fixed-size batches so the shard fan-out can run concurrently on
/// the persistent pool.
fn run_streaming(algo: Algo, dataset: &Dataset, run: &RunConfig) -> Result<RunResult> {
    let spec = summary_spec(algo, dataset, run)?;
    let mut alg = summary::build(&spec)?;
    let order = shuffled_indices(dataset.len(), run.seed);
    // Pre-materialize the permuted stream for *both* paths so the measured
    // update time covers only algorithm work — comparisons across shard
    // counts stay apples-to-apples.
    let elements: Vec<Element> = stream_elements(dataset, &order).collect();
    let start = Instant::now();
    if spec.shards == 1 {
        for e in &elements {
            alg.insert(e);
        }
    } else {
        for chunk in elements.chunks(SHARD_BATCH) {
            alg.insert_batch(chunk);
        }
    }
    let stream_time = start.elapsed().as_secs_f64();
    let post_start = Instant::now();
    let sol = alg.finalize()?;
    let post_time = post_start.elapsed().as_secs_f64();
    Ok(RunResult {
        algo: algo.name(),
        diversity: sol.diversity,
        total_time_s: stream_time + post_time,
        update_time_s: Some(stream_time / elements.len().max(1) as f64),
        post_time_s: Some(post_time),
        stored_elements: Some(alg.stored_elements()),
    })
}

/// Runs an algorithm over several stream permutations and averages every
/// measure — the paper runs "each experiment 10 times with different
/// permutations of the same dataset".
pub fn run_averaged(
    dataset: &Dataset,
    algo: Algo,
    constraint: &FairnessConstraint,
    epsilon: f64,
    trials: usize,
) -> Result<RunResult> {
    run_averaged_cell(dataset, algo, constraint, epsilon, trials, 1, 0)
}

/// [`run_averaged`] with an explicit shard count and sliding-window size
/// (the `--shards` and `--window` CLI flags land here). Offline algorithms
/// ignore `shards`; only [`Algo::Sliding`] reads `window`.
pub fn run_averaged_cell(
    dataset: &Dataset,
    algo: Algo,
    constraint: &FairnessConstraint,
    epsilon: f64,
    trials: usize,
    shards: usize,
    window: usize,
) -> Result<RunResult> {
    assert!(trials > 0);
    let mut acc: Option<RunResult> = None;
    for seed in 0..trials as u64 {
        let r = run_algorithm(
            dataset,
            algo,
            &RunConfig {
                constraint: constraint.clone(),
                epsilon,
                seed,
                shards,
                window,
            },
        )?;
        acc = Some(match acc {
            None => r,
            Some(a) => RunResult {
                algo: a.algo,
                diversity: a.diversity + r.diversity,
                total_time_s: a.total_time_s + r.total_time_s,
                update_time_s: match (a.update_time_s, r.update_time_s) {
                    (Some(x), Some(y)) => Some(x + y),
                    _ => None,
                },
                post_time_s: match (a.post_time_s, r.post_time_s) {
                    (Some(x), Some(y)) => Some(x + y),
                    _ => None,
                },
                stored_elements: match (a.stored_elements, r.stored_elements) {
                    (Some(x), Some(y)) => Some(x + y),
                    _ => None,
                },
            },
        });
    }
    let mut a = acc.expect("trials > 0");
    let t = trials as f64;
    a.diversity /= t;
    a.total_time_s /= t;
    a.update_time_s = a.update_time_s.map(|x| x / t);
    a.post_time_s = a.post_time_s.map(|x| x / t);
    a.stored_elements = a.stored_elements.map(|x| x / trials);
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdm_core::metric::Metric;
    use fdm_datasets::synthetic::{synthetic_blobs, SyntheticConfig};

    fn dataset() -> Dataset {
        synthetic_blobs(SyntheticConfig {
            n: 1_500,
            m: 2,
            blobs: 10,
            seed: 3,
            dim: 2,
        })
        .unwrap()
    }

    #[test]
    fn all_algorithms_run_and_report() {
        let d = dataset();
        let c = FairnessConstraint::new(vec![3, 3]).unwrap();
        for algo in [
            Algo::Gmm,
            Algo::StreamingDm,
            Algo::FairSwap,
            Algo::FairFlow,
            Algo::FairGmm,
            Algo::Sfdm1,
            Algo::Sfdm2,
        ] {
            let r = run_algorithm(
                &d,
                algo,
                &RunConfig {
                    constraint: c.clone(),
                    epsilon: 0.1,
                    seed: 0,
                    shards: 1,
                    window: 0,
                },
            )
            .unwrap_or_else(|e| panic!("{algo:?} failed: {e}"));
            assert!(r.diversity > 0.0, "{algo:?} produced zero diversity");
            assert!(r.total_time_s >= 0.0);
            assert_eq!(r.update_time_s.is_some(), algo.is_streaming());
            assert_eq!(r.stored_elements.is_some(), algo.is_streaming());
        }
    }

    #[test]
    fn paper_time_uses_update_time_for_streaming() {
        let d = dataset();
        let c = FairnessConstraint::new(vec![3, 3]).unwrap();
        let r = run_algorithm(
            &d,
            Algo::Sfdm1,
            &RunConfig {
                constraint: c.clone(),
                epsilon: 0.1,
                seed: 0,
                shards: 1,
                window: 0,
            },
        )
        .unwrap();
        assert_eq!(r.paper_time_s(), r.update_time_s.unwrap());
        let r = run_algorithm(
            &d,
            Algo::FairSwap,
            &RunConfig {
                constraint: c,
                epsilon: 0.1,
                seed: 0,
                shards: 1,
                window: 0,
            },
        )
        .unwrap();
        assert_eq!(r.paper_time_s(), r.total_time_s);
    }

    #[test]
    fn averaging_runs_multiple_permutations() {
        let d = dataset();
        let c = FairnessConstraint::new(vec![2, 2]).unwrap();
        let r = run_averaged(&d, Algo::Sfdm2, &c, 0.1, 3).unwrap();
        assert!(r.diversity > 0.0);
        assert!(r.stored_elements.unwrap() > 0);
    }

    #[test]
    fn metric_is_respected() {
        // Manhattan dataset: diversity measured in Manhattan units.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 20) as f64, (i / 20) as f64])
            .collect();
        let groups: Vec<usize> = (0..200).map(|i| i % 2).collect();
        let d = Dataset::from_rows(rows, groups, Metric::Manhattan).unwrap();
        let c = FairnessConstraint::new(vec![2, 2]).unwrap();
        let r = run_algorithm(
            &d,
            Algo::Sfdm1,
            &RunConfig {
                constraint: c,
                epsilon: 0.1,
                seed: 1,
                shards: 1,
                window: 0,
            },
        )
        .unwrap();
        assert!(r.diversity > 0.0);
    }
}

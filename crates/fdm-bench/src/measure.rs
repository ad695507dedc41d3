//! Algorithm runners with the paper's performance measures (§V-A).
//!
//! * **quality** — `div(S)` of the returned solution;
//! * **efficiency** — for streaming algorithms the *average update time*
//!   (wall-clock insert cost per arrival element; post-processing reported
//!   separately), for offline algorithms the total solution time — exactly
//!   the convention behind Table II's "time(s)" column;
//! * **space** — number of distinct stored elements (streaming only; the
//!   offline baselines keep the whole dataset, i.e. `n`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
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
use fdm_core::persist::Snapshot;
use fdm_core::point::Element;
use fdm_core::streaming::summary::{self, DynSummary, SummarySpec};
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

/// Snapshot/restore options for the streaming runs (the `--snapshot-every`
/// / `--restore-from` CLI flags land here).
#[derive(Debug, Clone, Default)]
pub struct PersistOpts {
    /// Checkpoint the summary every N ingested arrivals.
    pub snapshot_every: Option<usize>,
    /// Where periodic checkpoints are written (required when
    /// `snapshot_every` is set; overwritten in place, latest wins).
    pub snapshot_path: Option<PathBuf>,
    /// Resume from this snapshot: the summary is restored (after a
    /// compatibility check against the run's own configuration — a
    /// mismatching snapshot is a typed error, never garbage distances) and
    /// the already-processed prefix of the permuted stream is skipped, so
    /// the resumed run finishes bit-identically to an uninterrupted one.
    pub restore_from: Option<PathBuf>,
    /// Pre-parsed resume snapshot. [`run_averaged_sharded_persist`] fills
    /// this by reading `restore_from` **once** before its repetition loop,
    /// so per-trial runs never re-read and re-parse the file; callers can
    /// also hand a snapshot they already hold. Takes precedence over
    /// `restore_from`.
    pub restore_snapshot: Option<Arc<Snapshot>>,
}

/// Times `Snapshot::read_from_file` was invoked by this module — the
/// regression counter for the "restore hoisted out of the repetition
/// loop" guarantee (see `snapshot_reads_happen_once_per_resume` in the
/// tests).
static SNAPSHOT_FILE_READS: AtomicUsize = AtomicUsize::new(0);

/// Current value of the snapshot-file read counter.
pub fn snapshot_file_reads() -> usize {
    SNAPSHOT_FILE_READS.load(Ordering::SeqCst)
}

/// Reads and parses a resume snapshot, counting the read.
fn read_restore_snapshot(path: &PathBuf) -> Result<Arc<Snapshot>> {
    SNAPSHOT_FILE_READS.fetch_add(1, Ordering::SeqCst);
    Ok(Arc::new(Snapshot::read_from_file(path)?))
}

/// The snapshot a run should resume from, if any: the pre-parsed one when
/// present, else one (counted) file read.
fn resume_snapshot(persist: &PersistOpts) -> Result<Option<Arc<Snapshot>>> {
    match (&persist.restore_snapshot, &persist.restore_from) {
        (Some(snapshot), _) => Ok(Some(snapshot.clone())),
        (None, Some(path)) => read_restore_snapshot(path).map(Some),
        (None, None) => Ok(None),
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
    /// Sliding-window size for [`Algo::Sliding`]; ignored (must be 0) for
    /// every other algorithm.
    pub window: usize,
    /// Snapshot/restore options for the streaming algorithms (checkpoint
    /// cost is part of the measured update time).
    pub persist: PersistOpts,
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
/// pre-materializes the stream and ingests fixed-size batches so the shard
/// fan-out can run concurrently on the persistent pool.
fn run_streaming(algo: Algo, dataset: &Dataset, run: &RunConfig) -> Result<RunResult> {
    let spec = summary_spec(algo, dataset, run)?;
    let shards = spec.shards;
    let mut alg: Box<dyn DynSummary> = match resume_snapshot(&run.persist)? {
        Some(snapshot) => {
            // Check the snapshot against this run's own configuration
            // *before* trusting its state: a wrong-algorithm/ε/metric/
            // quota snapshot must be a typed error, not garbage distances.
            let mut implied = summary::spec_params(&spec)?;
            // Pre-registry builds checkpointed every streaming run through
            // the sharded wrapper, so a --shards 1 checkpoint carries tag
            // `sharded:<algo>` with shards = 1 — bit-identical in behavior
            // to the unsharded algorithm (pinned by tests/sharded.rs).
            // Accept it by adopting the wrapper identity for the check;
            // `summary::restore` then rebuilds the K = 1 wrapper.
            if implied.shards == 1
                && snapshot.params.shards == 1
                && snapshot.params.algorithm == format!("sharded:{}", implied.algorithm)
            {
                implied.algorithm = snapshot.params.algorithm.clone();
            }
            snapshot.params.ensure_compatible(&implied)?;
            // A fresh spec hasn't seen data, so its dimension is the
            // 0 wildcard and `ensure_compatible` cannot vet it — but the
            // dataset's dimensionality is known here, and a mismatch would
            // panic in the arena on the first suffix element.
            if snapshot.params.dim != 0 && snapshot.params.dim != dataset.dim() {
                return Err(fdm_core::FdmError::IncompatibleSnapshot {
                    detail: format!(
                        "snapshot holds {}-dimensional points, dataset is {}-dimensional",
                        snapshot.params.dim,
                        dataset.dim()
                    ),
                });
            }
            summary::restore(&snapshot)?
        }
        None => summary::build(&spec)?,
    };
    let order = shuffled_indices(dataset.len(), run.seed);
    // Pre-materialize the permuted stream for *both* paths so the measured
    // update time covers only algorithm work — comparisons across shard
    // counts stay apples-to-apples.
    let elements: Vec<Element> = stream_elements(dataset, &order).collect();
    // Resume semantics: the restored summary already processed a prefix of
    // this permutation; only the remaining suffix is ingested.
    let skip = alg.processed().min(elements.len());
    let suffix = &elements[skip..];
    if let Some(path) = &run.persist.snapshot_path {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| fdm_core::FdmError::SnapshotIo {
                detail: format!("create snapshot dir {}: {e}", dir.display()),
            })?;
        }
    }
    let mut checkpointer = Checkpointer::new(&run.persist)?;
    let start = Instant::now();
    if shards == 1 {
        for e in suffix {
            alg.insert(e);
            checkpointer.after_ingest(alg.as_ref(), 1)?;
        }
    } else {
        for chunk in suffix.chunks(SHARD_BATCH) {
            alg.insert_batch(chunk);
            checkpointer.after_ingest(alg.as_ref(), chunk.len())?;
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
        update_time_s: Some(stream_time / suffix.len().max(1) as f64),
        post_time_s: Some(post_time),
        stored_elements: Some(alg.stored_elements()),
    })
}

/// Periodic checkpoint writer for the streaming runs.
struct Checkpointer<'a> {
    every: Option<usize>,
    path: Option<&'a PathBuf>,
    since_snapshot: usize,
}

impl<'a> Checkpointer<'a> {
    fn new(persist: &'a PersistOpts) -> Result<Self> {
        if persist.snapshot_every.is_some() && persist.snapshot_path.is_none() {
            return Err(fdm_core::FdmError::SnapshotIo {
                detail: "snapshot_every set without a snapshot_path".to_string(),
            });
        }
        Ok(Checkpointer {
            every: persist.snapshot_every,
            path: persist.snapshot_path.as_ref(),
            since_snapshot: 0,
        })
    }

    fn after_ingest(&mut self, alg: &dyn DynSummary, ingested: usize) -> Result<()> {
        let Some(every) = self.every else {
            return Ok(());
        };
        self.since_snapshot += ingested;
        if self.since_snapshot >= every {
            let path = self.path.expect("validated in Checkpointer::new");
            alg.snapshot().write_to_file(path)?;
            self.since_snapshot = 0;
        }
        Ok(())
    }
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
    run_averaged_sharded(dataset, algo, constraint, epsilon, trials, 1)
}

/// [`run_averaged`] with an explicit shard count for the streaming
/// algorithms (the `--shards` CLI flag lands here; offline algorithms
/// ignore it).
pub fn run_averaged_sharded(
    dataset: &Dataset,
    algo: Algo,
    constraint: &FairnessConstraint,
    epsilon: f64,
    trials: usize,
    shards: usize,
) -> Result<RunResult> {
    run_averaged_sharded_persist(
        dataset,
        algo,
        constraint,
        epsilon,
        trials,
        shards,
        &PersistOpts::default(),
    )
}

/// [`run_averaged_sharded_persist`] with a sliding-window size for
/// [`Algo::Sliding`] (the `--algorithm sliding --window N` CLI flags land
/// here; every other algorithm requires `window == 0`).
#[allow(clippy::too_many_arguments)]
pub fn run_averaged_windowed(
    dataset: &Dataset,
    algo: Algo,
    constraint: &FairnessConstraint,
    epsilon: f64,
    trials: usize,
    shards: usize,
    window: usize,
    persist: &PersistOpts,
) -> Result<RunResult> {
    run_averaged_inner(
        dataset, algo, constraint, epsilon, trials, shards, window, persist,
    )
}

/// [`run_averaged_sharded`] with snapshot/restore options (the
/// `--snapshot-every` / `--restore-from` CLI flags land here; offline
/// algorithms ignore them). Restoring requires `trials == 1`: each trial
/// streams a different permutation, and a checkpoint from one permutation
/// cannot resume another.
pub fn run_averaged_sharded_persist(
    dataset: &Dataset,
    algo: Algo,
    constraint: &FairnessConstraint,
    epsilon: f64,
    trials: usize,
    shards: usize,
    persist: &PersistOpts,
) -> Result<RunResult> {
    run_averaged_inner(
        dataset, algo, constraint, epsilon, trials, shards, 0, persist,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_averaged_inner(
    dataset: &Dataset,
    algo: Algo,
    constraint: &FairnessConstraint,
    epsilon: f64,
    trials: usize,
    shards: usize,
    window: usize,
    persist: &PersistOpts,
) -> Result<RunResult> {
    assert!(trials > 0);
    if (persist.restore_from.is_some() || persist.restore_snapshot.is_some()) && trials > 1 {
        // Silently averaging resumed-from-the-wrong-permutation runs would
        // be wrong in a way no later check catches; refuse up front.
        return Err(fdm_core::FdmError::IncompatibleSnapshot {
            detail: format!(
                "restore-from requires a single trial (got {trials}): each trial streams a \
                 different permutation, so a checkpoint of one cannot resume another"
            ),
        });
    }
    // Hoist the resume-snapshot read out of the repetition loop: the file
    // is read and parsed exactly once here, and every repetition below
    // resumes from the pre-parsed document.
    let mut persist = persist.clone();
    if persist.restore_snapshot.is_none() {
        if let Some(path) = &persist.restore_from {
            persist.restore_snapshot = Some(read_restore_snapshot(path)?);
        }
    }
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
                persist: persist.clone(),
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
                    persist: Default::default(),
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
                persist: Default::default(),
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
                persist: Default::default(),
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
    fn checkpoint_then_resume_matches_uninterrupted_run() {
        // This test resumes from a file, which increments the global
        // read counter the two counting tests below assert on.
        let _guard = COUNTER_LOCK.lock().unwrap();
        let d = dataset();
        let c = FairnessConstraint::new(vec![3, 3]).unwrap();
        let dir = std::env::temp_dir().join(format!("fdm_measure_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap = dir.join("sfdm2.snap");

        let base = RunConfig {
            constraint: c.clone(),
            epsilon: 0.1,
            seed: 0,
            shards: 1,
            window: 0,
            persist: Default::default(),
        };
        let reference = run_algorithm(&d, Algo::Sfdm2, &base).unwrap();

        // Checkpointing run: identical results, snapshot file left behind
        // (the last checkpoint lands at arrival 1400 of the 1500).
        let mut ckpt = base.clone();
        ckpt.persist.snapshot_every = Some(700);
        ckpt.persist.snapshot_path = Some(snap.clone());
        let checkpointed = run_algorithm(&d, Algo::Sfdm2, &ckpt).unwrap();
        assert_eq!(reference.diversity, checkpointed.diversity);
        assert!(snap.exists(), "checkpoint file must be written");

        // Resumed run: restore the 1400-arrival checkpoint, skip the
        // processed prefix, ingest the remaining 100 elements, and land on
        // the identical solution.
        let mut resume = base.clone();
        resume.persist.restore_from = Some(snap.clone());
        let resumed = run_algorithm(&d, Algo::Sfdm2, &resume).unwrap();
        assert_eq!(reference.diversity, resumed.diversity);
        assert_eq!(reference.stored_elements, resumed.stored_elements);

        // A mismatching configuration must be rejected, not ingested.
        let mut wrong = resume.clone();
        wrong.constraint = FairnessConstraint::new(vec![2, 2]).unwrap();
        let err = run_algorithm(&d, Algo::Sfdm2, &wrong).unwrap_err();
        assert!(
            matches!(err, fdm_core::FdmError::IncompatibleSnapshot { .. }),
            "{err}"
        );

        // Restoring across multiple trials (different permutations) must
        // be refused, not silently averaged.
        let err = run_averaged_sharded_persist(&d, Algo::Sfdm2, &c, 0.1, 3, 1, &resume.persist)
            .unwrap_err();
        assert!(
            matches!(err, fdm_core::FdmError::IncompatibleSnapshot { .. }),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Serializes the tests that assert on the global read counter.
    static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn snapshot_reads_happen_once_per_resume() {
        let _guard = COUNTER_LOCK.lock().unwrap();
        // Regression: the prefix-skip resume used to read + parse the
        // snapshot file inside the per-repetition path; the restore must
        // be hoisted so one resume costs exactly one file read.
        let d = dataset();
        let c = FairnessConstraint::new(vec![3, 3]).unwrap();
        let dir = std::env::temp_dir().join(format!("fdm_resume_reads_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("sfdm2.snap");

        let mut ckpt = PersistOpts {
            snapshot_every: Some(700),
            snapshot_path: Some(snap.clone()),
            ..Default::default()
        };
        run_averaged_sharded_persist(&d, Algo::Sfdm2, &c, 0.1, 1, 1, &ckpt).unwrap();
        assert!(snap.exists());

        ckpt.snapshot_every = None;
        ckpt.snapshot_path = None;
        ckpt.restore_from = Some(snap.clone());
        let before = snapshot_file_reads();
        run_averaged_sharded_persist(&d, Algo::Sfdm2, &c, 0.1, 1, 1, &ckpt).unwrap();
        assert_eq!(
            snapshot_file_reads() - before,
            1,
            "one resume must cost exactly one snapshot file read"
        );

        // A pre-parsed snapshot needs no file at all: delete it and run
        // again — proof the per-repetition path cannot be re-reading.
        let parsed = Arc::new(Snapshot::read_from_file(&snap).unwrap());
        std::fs::remove_file(&snap).unwrap();
        let preloaded = PersistOpts {
            restore_snapshot: Some(parsed),
            ..Default::default()
        };
        let before = snapshot_file_reads();
        let r = run_averaged_sharded_persist(&d, Algo::Sfdm2, &c, 0.1, 1, 1, &preloaded).unwrap();
        assert!(r.diversity > 0.0);
        assert_eq!(
            snapshot_file_reads(),
            before,
            "a pre-parsed snapshot must not touch the filesystem"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_sharded_tagged_checkpoint_resumes_unsharded_run() {
        // Pre-registry builds checkpointed every streaming cell through
        // the sharded wrapper, so a --shards 1 checkpoint carries the tag
        // `sharded:sfdm2` (shards = 1). Those documents must keep
        // resuming bit-identically after the DynSummary retarget.
        let d = dataset();
        let c = FairnessConstraint::new(vec![3, 3]).unwrap();
        let reference =
            run_averaged_sharded_persist(&d, Algo::Sfdm2, &c, 0.1, 1, 1, &Default::default())
                .unwrap();
        let bounds = d.sampled_distance_bounds(300, 4.0).unwrap();
        let cfg = fdm_core::streaming::sfdm2::Sfdm2Config {
            constraint: c.clone(),
            epsilon: 0.1,
            bounds,
            metric: d.metric(),
        };
        let mut legacy = fdm_core::streaming::sharded::ShardedStream::<
            fdm_core::streaming::sfdm2::Sfdm2,
        >::new(cfg, 1)
        .unwrap();
        // The prefix of the exact permutation a seed-0 trial streams.
        let order = shuffled_indices(d.len(), 0);
        let elements: Vec<Element> = stream_elements(&d, &order).collect();
        for e in &elements[..1000] {
            legacy.insert(e);
        }
        let snapshot = fdm_core::persist::Snapshottable::snapshot(&legacy);
        assert_eq!(snapshot.params.algorithm, "sharded:sfdm2");
        assert_eq!(snapshot.params.shards, 1);
        let resumed = run_averaged_sharded_persist(
            &d,
            Algo::Sfdm2,
            &c,
            0.1,
            1,
            1,
            &PersistOpts {
                restore_snapshot: Some(Arc::new(snapshot)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(reference.diversity, resumed.diversity);
        assert_eq!(reference.stored_elements, resumed.stored_elements);
    }

    #[test]
    fn checkpoints_honor_the_configured_format() {
        let _guard = COUNTER_LOCK.lock().unwrap();
        let d = dataset();
        let c = FairnessConstraint::new(vec![2, 2]).unwrap();
        let dir = std::env::temp_dir().join(format!("fdm_ckpt_format_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Checkpoints are always the v2 binary frame.
        let snap = dir.join("ckpt.bin");
        let opts = PersistOpts {
            snapshot_every: Some(700),
            snapshot_path: Some(snap.clone()),
            ..Default::default()
        };
        run_averaged_sharded_persist(&d, Algo::Sfdm2, &c, 0.1, 1, 1, &opts).unwrap();
        let bytes = std::fs::read(&snap).unwrap();
        assert!(bytes.starts_with(b"FDMSNAP2"));
        // The checkpoint resumes through the sniffing reader.
        let resume = PersistOpts {
            restore_from: Some(snap),
            ..Default::default()
        };
        run_averaged_sharded_persist(&d, Algo::Sfdm2, &c, 0.1, 1, 1, &resume).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
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
                persist: Default::default(),
            },
        )
        .unwrap();
        assert!(r.diversity > 0.0);
    }
}

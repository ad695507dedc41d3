//! The unified summary interface: one object-safe trait over every
//! streaming summary, plus the registry that builds and restores them by
//! algorithm tag.
//!
//! The paper's value is a *family* of interchangeable streaming summaries
//! (Algorithm 1, SFDM1, SFDM2, the sliding-window wrapper, each optionally
//! behind K-way sharding). [`DynSummary`] is that family as one object-safe
//! trait: anything that speaks it can be hosted by `fdm-serve`, measured by
//! `fdm-bench`, and checkpointed through the [`persist`](crate::persist)
//! envelope — without the hosting layer knowing which algorithm it holds.
//!
//! Every [`ShardAlgorithm`] that is also [`Snapshottable`] gets
//! `DynSummary` for free through a blanket impl, and
//! [`ShardedStream<S>`] implements it directly, so "sharded or not" is a
//! construction-time choice invisible to consumers.
//!
//! The registry half ([`build`], [`restore`], [`spec_params`]) maps tags (`unconstrained`, `sfdm1`,
//! `sfdm2`, `sliding`, and their `sharded:` variants) to builders and
//! restorers. Adding a future algorithm means: implement the two core
//! traits, add **one** registry line — no enum variants, no dispatch
//! macros, no per-crate match arms.

use crate::error::{FdmError, Result};
use crate::fairness::FairnessConstraint;
use crate::persist::{Snapshot, SnapshotParams, Snapshottable, StatePatch};
use crate::point::Element;
use crate::solution::Solution;
use crate::streaming::sfdm1::{Sfdm1, Sfdm1Config};
use crate::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use crate::streaming::sharded::{ShardAlgorithm, ShardedStream};
use crate::streaming::sliding::{SlidingWindowConfig, SlidingWindowFdm};
use crate::streaming::unconstrained::{StreamingDiversityMaximization, StreamingDmConfig};

/// One hosted streaming summary — any algorithm, sharded or not — as an
/// object-safe trait. See the module docs.
///
/// Restore is intentionally *not* part of the trait (it cannot be object
/// safe); it lives in [`restore`], which dispatches on the snapshot's
/// algorithm tag through the registry.
pub trait DynSummary: Send + Sync + std::fmt::Debug {
    /// Feeds one stream element.
    fn insert(&mut self, element: &Element);

    /// Feeds a batch of stream elements (equivalent to element-by-element
    /// insertion in batch order; a sharded summary fans out across shards).
    fn insert_batch(&mut self, batch: &[Element]);

    /// Runs post-processing and returns the best feasible solution.
    fn finalize(&self) -> Result<Solution>;

    /// Total arrivals observed.
    fn processed(&self) -> usize;

    /// Distinct retained elements (the paper's space metric).
    fn stored_elements(&self) -> usize;

    /// The envelope parameters describing this summary's configuration —
    /// the compatibility identity used by re-attach and restore checks.
    fn params(&self) -> SnapshotParams;

    /// Captures a complete snapshot through the persistence envelope.
    fn snapshot(&self) -> Snapshot;

    /// The raw state value tree [`DynSummary::snapshot`] wraps, exposed
    /// separately so a host can capture the envelope and the state under
    /// distinct (shorter) lock holds — the chunked-capture path in
    /// `fdm-serve`.
    fn snapshot_state_value(&self) -> serde::Value {
        self.snapshot().state
    }

    /// Dirty-set cursor marking the current capture position — see
    /// [`Snapshottable::capture_cursor`]. [`serde::Value::Null`] when the
    /// summary does no dirty tracking.
    fn capture_cursor(&self) -> serde::Value {
        serde::Value::Null
    }

    /// The structural changes since `cursor`, or `None` to force a full
    /// capture — see [`Snapshottable::state_patch_since`].
    fn state_patch_since(&self, cursor: &serde::Value) -> Option<StatePatch> {
        let _ = cursor;
        None
    }

    /// The retained elements (the summary's union export), in arena order;
    /// for sharded summaries, shard-major. This is what a distributed
    /// merge ([`merge_summaries`]) streams through the merge instance —
    /// the same vector [`ShardedStream::finalize`] consumes per shard.
    fn retained_elements(&self) -> Vec<Element>;
}

/// Every snapshottable shard algorithm is a summary (this is how the four
/// base algorithms join the family).
impl<T> DynSummary for T
where
    T: ShardAlgorithm + Snapshottable + Send + Sync + std::fmt::Debug,
{
    fn insert(&mut self, element: &Element) {
        ShardAlgorithm::insert(self, element);
    }

    fn insert_batch(&mut self, batch: &[Element]) {
        ShardAlgorithm::insert_batch(self, batch);
    }

    fn finalize(&self) -> Result<Solution> {
        ShardAlgorithm::finalize(self)
    }

    fn processed(&self) -> usize {
        ShardAlgorithm::processed(self)
    }

    fn stored_elements(&self) -> usize {
        ShardAlgorithm::stored_elements(self)
    }

    fn params(&self) -> SnapshotParams {
        self.snapshot_params()
    }

    fn snapshot(&self) -> Snapshot {
        Snapshottable::snapshot(self)
    }

    fn snapshot_state_value(&self) -> serde::Value {
        Snapshottable::snapshot_state(self)
    }

    fn capture_cursor(&self) -> serde::Value {
        Snapshottable::capture_cursor(self)
    }

    fn state_patch_since(&self, cursor: &serde::Value) -> Option<StatePatch> {
        Snapshottable::state_patch_since(self, cursor)
    }

    fn retained_elements(&self) -> Vec<Element> {
        ShardAlgorithm::retained_elements(self)
    }
}

/// K-way sharded wrapping of any base summary is a summary too.
impl<S> DynSummary for ShardedStream<S>
where
    S: ShardAlgorithm + Snapshottable + Sync + std::fmt::Debug,
    S::Config: std::fmt::Debug,
{
    fn insert(&mut self, element: &Element) {
        ShardedStream::insert(self, element);
    }

    fn insert_batch(&mut self, batch: &[Element]) {
        ShardedStream::insert_batch(self, batch);
    }

    fn finalize(&self) -> Result<Solution> {
        ShardedStream::finalize(self)
    }

    fn processed(&self) -> usize {
        ShardedStream::processed(self)
    }

    fn stored_elements(&self) -> usize {
        ShardedStream::stored_elements(self)
    }

    fn params(&self) -> SnapshotParams {
        self.snapshot_params()
    }

    fn snapshot(&self) -> Snapshot {
        Snapshottable::snapshot(self)
    }

    fn snapshot_state_value(&self) -> serde::Value {
        Snapshottable::snapshot_state(self)
    }

    fn capture_cursor(&self) -> serde::Value {
        Snapshottable::capture_cursor(self)
    }

    fn state_patch_since(&self, cursor: &serde::Value) -> Option<StatePatch> {
        Snapshottable::state_patch_since(self, cursor)
    }

    fn retained_elements(&self) -> Vec<Element> {
        ShardedStream::retained_elements(self)
    }
}

/// Algorithm-agnostic build specification: everything an `OPEN` command or
/// a bench cell needs to say to construct any member of the family.
#[derive(Debug, Clone, PartialEq)]
pub struct SummarySpec {
    /// Base algorithm tag: `unconstrained`, `sfdm1`, `sfdm2`, or `sliding`
    /// (sharding is selected by `shards`, not by the tag).
    pub algorithm: String,
    /// Guess-ladder accuracy `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Known distance bounds.
    pub bounds: crate::dataset::DistanceBounds,
    /// Distance metric.
    pub metric: crate::metric::Metric,
    /// Per-group quotas (fair algorithms); empty for `unconstrained`.
    pub quotas: Vec<usize>,
    /// Solution size for `unconstrained` (`Σ quotas` otherwise).
    pub k: usize,
    /// Shard count (`0`/`1` = unsharded).
    pub shards: usize,
    /// Sliding-window size; required (≥ 2 after clamping) for `sliding`,
    /// must be `0` for every other algorithm.
    pub window: usize,
}

/// A summary type the registry can build from a [`SummarySpec`].
trait RegisteredSummary:
    ShardAlgorithm + Snapshottable + Send + Sync + std::fmt::Debug + 'static
where
    Self::Config: std::fmt::Debug,
{
    /// Translates the agnostic spec into this algorithm's configuration,
    /// validating the spec fields the algorithm consumes.
    fn config_from_spec(spec: &SummarySpec) -> Result<Self::Config>;
}

fn spec_error(detail: String) -> FdmError {
    FdmError::IncompatibleSnapshot { detail }
}

/// The fair algorithms' shared quota translation.
fn constraint_of(spec: &SummarySpec) -> Result<FairnessConstraint> {
    if spec.quotas.is_empty() {
        return Err(spec_error(format!(
            "{} requires per-group quotas",
            spec.algorithm
        )));
    }
    FairnessConstraint::new(spec.quotas.clone())
}

/// Rejects a window on algorithms that have none.
fn no_window(spec: &SummarySpec) -> Result<()> {
    if spec.window != 0 {
        return Err(spec_error(format!(
            "{} takes no window= parameter (only sliding does)",
            spec.algorithm
        )));
    }
    Ok(())
}

impl RegisteredSummary for StreamingDiversityMaximization {
    fn config_from_spec(spec: &SummarySpec) -> Result<StreamingDmConfig> {
        if !spec.quotas.is_empty() {
            return Err(spec_error(
                "unconstrained takes k, not per-group quotas".to_string(),
            ));
        }
        no_window(spec)?;
        Ok(StreamingDmConfig {
            k: spec.k,
            epsilon: spec.epsilon,
            bounds: spec.bounds,
            metric: spec.metric,
        })
    }
}

impl RegisteredSummary for Sfdm1 {
    fn config_from_spec(spec: &SummarySpec) -> Result<Sfdm1Config> {
        no_window(spec)?;
        Ok(Sfdm1Config {
            constraint: constraint_of(spec)?,
            epsilon: spec.epsilon,
            bounds: spec.bounds,
            metric: spec.metric,
        })
    }
}

impl RegisteredSummary for Sfdm2 {
    fn config_from_spec(spec: &SummarySpec) -> Result<Sfdm2Config> {
        no_window(spec)?;
        Ok(Sfdm2Config {
            constraint: constraint_of(spec)?,
            epsilon: spec.epsilon,
            bounds: spec.bounds,
            metric: spec.metric,
        })
    }
}

impl RegisteredSummary for SlidingWindowFdm {
    fn config_from_spec(spec: &SummarySpec) -> Result<SlidingWindowConfig> {
        if spec.window < 2 {
            return Err(spec_error(format!(
                "sliding requires window ≥ 2 (got {})",
                spec.window
            )));
        }
        Ok(SlidingWindowConfig {
            inner: Sfdm2::config_from_spec(&SummarySpec {
                algorithm: "sfdm2".to_string(),
                window: 0,
                ..spec.clone()
            })?,
            window: spec.window,
        })
    }
}

/// One registry row: tag plus the monomorphized build/restore entry
/// points. Adding an algorithm to the family is adding one row.
struct Entry {
    tag: &'static str,
    build: fn(&SummarySpec) -> Result<Box<dyn DynSummary>>,
    restore: fn(&Snapshot) -> Result<Box<dyn DynSummary>>,
    restore_sharded: fn(&Snapshot) -> Result<Box<dyn DynSummary>>,
    /// Spec validation without construction (the [`spec_params`] fast
    /// path): exactly the checks `build` would make, minus the ladders.
    validate: fn(&SummarySpec) -> Result<()>,
    /// Merges per-part retained-element unions into one solution
    /// (the [`merge_summaries`] dispatch target).
    merge: fn(&SummarySpec, Vec<Vec<Element>>, usize) -> Result<Solution>,
}

fn build_one<S: RegisteredSummary>(spec: &SummarySpec) -> Result<Box<dyn DynSummary>>
where
    S::Config: std::fmt::Debug,
{
    let config = S::config_from_spec(spec)?;
    if spec.shards > 1 {
        Ok(Box::new(ShardedStream::<S>::new(config, spec.shards)?))
    } else {
        Ok(Box::new(S::build(&config)?))
    }
}

fn restore_one<S: RegisteredSummary>(snapshot: &Snapshot) -> Result<Box<dyn DynSummary>>
where
    S::Config: std::fmt::Debug,
{
    Ok(Box::new(S::restore(snapshot)?))
}

fn restore_sharded<S: RegisteredSummary>(snapshot: &Snapshot) -> Result<Box<dyn DynSummary>>
where
    S::Config: std::fmt::Debug,
{
    Ok(Box::new(ShardedStream::<S>::restore(snapshot)?))
}

fn validate_one<S: RegisteredSummary>(spec: &SummarySpec) -> Result<()>
where
    S::Config: std::fmt::Debug,
{
    S::config_from_spec(spec).map(|_| ())
}

/// The distributed analogue of [`ShardedStream::finalize`]'s merge pass:
/// streams the per-part unions (in part order) through merge instances,
/// reducing hierarchically in chunks of `fan_in` until one instance holds
/// the whole union, then runs its post-processing. With
/// `unions.len() ≤ fan_in` this is a single level — operation-for-operation
/// the merge pass a `ShardedStream` with the same shard unions performs.
fn merge_one<S: RegisteredSummary>(
    spec: &SummarySpec,
    mut unions: Vec<Vec<Element>>,
    fan_in: usize,
) -> Result<Solution>
where
    S::Config: std::fmt::Debug,
{
    let config = S::config_from_spec(spec)?;
    while unions.len() > fan_in {
        let mut next = Vec::with_capacity(unions.len().div_ceil(fan_in));
        for chunk in unions.chunks(fan_in) {
            let chunk_len = chunk.iter().map(Vec::len).sum();
            let mut merge = S::merge_instance(&config, chunk_len)?;
            for union in chunk {
                merge.insert_batch(union);
            }
            next.push(merge.retained_elements());
        }
        unions = next;
    }
    let union_len = unions.iter().map(Vec::len).sum();
    let mut merge = S::merge_instance(&config, union_len)?;
    for union in &unions {
        merge.insert_batch(union);
    }
    merge.finalize()
}

macro_rules! entry {
    ($tag:literal, $ty:ty) => {
        Entry {
            tag: $tag,
            build: build_one::<$ty>,
            restore: restore_one::<$ty>,
            restore_sharded: restore_sharded::<$ty>,
            validate: validate_one::<$ty>,
            merge: merge_one::<$ty>,
        }
    };
}

/// The summary family. One row per base algorithm; `sharded:` variants are
/// derived, never listed.
const ENTRIES: &[Entry] = &[
    entry!("unconstrained", StreamingDiversityMaximization),
    entry!("sfdm1", Sfdm1),
    entry!("sfdm2", Sfdm2),
    entry!("sliding", SlidingWindowFdm),
];

fn entry_for(tag: &str) -> Result<&'static Entry> {
    ENTRIES
        .iter()
        .find(|e| e.tag == tag)
        .ok_or_else(|| spec_error(format!("unknown algorithm `{tag}`")))
}

/// The base algorithm tags the registry knows, in registration order.
pub fn algorithm_tags() -> Vec<&'static str> {
    ENTRIES.iter().map(|e| e.tag).collect()
}

/// Whether `tag` names a registered base algorithm.
pub fn is_known_algorithm(tag: &str) -> bool {
    ENTRIES.iter().any(|e| e.tag == tag)
}

/// Builds an empty summary from a specification: the base algorithm named
/// by `spec.algorithm`, wrapped in [`ShardedStream`] when `spec.shards > 1`.
pub fn build(spec: &SummarySpec) -> Result<Box<dyn DynSummary>> {
    (entry_for(&spec.algorithm)?.build)(spec)
}

/// Restores any member of the family from a snapshot, dispatching on the
/// envelope's algorithm tag (`sharded:<base>` selects the sharded
/// restorer).
pub fn restore(snapshot: &Snapshot) -> Result<Box<dyn DynSummary>> {
    let tag = snapshot.params.algorithm.as_str();
    match tag.strip_prefix("sharded:") {
        Some(base) => (entry_for(base)
            .map_err(|_| spec_error(format!("snapshot holds unknown algorithm `{tag}`")))?
            .restore_sharded)(snapshot),
        None => (entry_for(tag)
            .map_err(|_| spec_error(format!("snapshot holds unknown algorithm `{tag}`")))?
            .restore)(snapshot),
    }
}

/// Merges independently grown summaries of one logical stream into a
/// single solution — the coordinator-side half of distributed FDM.
///
/// `parts` are summaries of disjoint stream partitions (one per worker
/// node), all built from `spec` (shard-count differences aside); part
/// order must be the partition order (worker 0 first). The merge replays
/// [`ShardedStream::finalize`] exactly:
///
/// * one part delegates to its own post-processing (the `K = 1` fast path
///   a `ShardedStream` takes);
/// * otherwise the parts' [retained elements](DynSummary::retained_elements)
///   stream part-major through a fresh merge instance whose
///   post-processing produces the solution — reduced hierarchically in
///   chunks of `fan_in` when more than `fan_in` parts fan in.
///
/// With `parts.len() ≤ fan_in` the result is **bit-identical** to a
/// single-process `ShardedStream` with `K = parts.len()` shards fed the
/// same arrival order (the distributed-identity suite asserts this);
/// deeper trees stay within the paper's approximation bounds by the same
/// composability lemma that justifies sharding at all.
pub fn merge_summaries(
    spec: &SummarySpec,
    parts: &[Box<dyn DynSummary>],
    fan_in: usize,
) -> Result<Solution> {
    let refs: Vec<&dyn DynSummary> = parts.iter().map(|p| p.as_ref()).collect();
    merge_summary_parts(spec, &refs, fan_in)
}

/// [`merge_summaries`] over borrowed parts: identical semantics, but the
/// summaries stay owned by the caller — a coordinator that caches one
/// restored summary per worker merges them on every `QUERY` without
/// moving (or cloning) the cache.
pub fn merge_summary_parts(
    spec: &SummarySpec,
    parts: &[&dyn DynSummary],
    fan_in: usize,
) -> Result<Solution> {
    if parts.is_empty() {
        return Err(FdmError::InvalidShardCount);
    }
    if parts.len() == 1 {
        return parts[0].finalize();
    }
    let unions: Vec<Vec<Element>> = parts.iter().map(|p| p.retained_elements()).collect();
    (entry_for(&spec.algorithm)?.merge)(spec, unions, fan_in.max(2))
}

/// The envelope parameters a specification implies, **without building the
/// summary** (constructing full guess ladders just to compare parameters
/// on re-attach would be wasted work). Mirrors what [`build`] +
/// [`DynSummary::params`] would produce on a freshly built stream:
/// `dim = 0` wildcard, `sharded:` tag and `shards ≥ 1` normalization, the
/// sliding window clamped to ≥ 2.
pub fn spec_params(spec: &SummarySpec) -> Result<SnapshotParams> {
    let entry = entry_for(&spec.algorithm)?;
    (entry.validate)(spec)?;
    let (quotas, k) = if spec.quotas.is_empty() {
        (Vec::new(), spec.k)
    } else {
        (spec.quotas.clone(), spec.quotas.iter().sum())
    };
    let window = spec.window;
    let shards = spec.shards.max(1);
    let algorithm = if shards > 1 {
        format!("sharded:{}", entry.tag)
    } else {
        entry.tag.to_string()
    };
    Ok(SnapshotParams {
        algorithm,
        dim: 0,
        epsilon: spec.epsilon,
        metric: spec.metric,
        bounds: spec.bounds,
        quotas,
        k,
        shards,
        window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DistanceBounds;
    use crate::metric::Metric;

    fn spec(algorithm: &str) -> SummarySpec {
        SummarySpec {
            algorithm: algorithm.to_string(),
            epsilon: 0.1,
            bounds: DistanceBounds::new(0.5, 30.0).unwrap(),
            metric: Metric::Euclidean,
            quotas: if algorithm == "unconstrained" {
                Vec::new()
            } else {
                vec![2, 2]
            },
            k: 4,
            shards: 1,
            window: if algorithm == "sliding" { 32 } else { 0 },
        }
    }

    fn feed(summary: &mut dyn DynSummary, n: usize) {
        for i in 0..n {
            let x = (i as f64 * 0.7391).sin() * 9.0;
            let y = (i as f64 * 0.2113).cos() * 9.0;
            summary.insert(&Element::new(i, vec![x, y], i % 2));
        }
    }

    #[test]
    fn registry_builds_every_tag_sharded_and_not() {
        for tag in algorithm_tags() {
            for shards in [1usize, 3] {
                let mut s = spec(tag);
                s.shards = shards;
                let mut summary = build(&s).unwrap_or_else(|e| panic!("{tag} x{shards}: {e}"));
                feed(summary.as_mut(), 60);
                assert_eq!(summary.processed(), 60, "{tag} x{shards}");
                assert!(summary.stored_elements() > 0, "{tag} x{shards}");
                let solution = summary.finalize().unwrap();
                assert_eq!(solution.len(), 4, "{tag} x{shards}");
                let params = summary.params();
                if shards > 1 {
                    assert_eq!(params.algorithm, format!("sharded:{tag}"));
                    assert_eq!(params.shards, shards);
                } else {
                    assert_eq!(params.algorithm, tag);
                }
            }
        }
    }

    #[test]
    fn snapshot_restore_round_trips_through_the_registry() {
        for tag in algorithm_tags() {
            for shards in [1usize, 2] {
                let mut s = spec(tag);
                s.shards = shards;
                let mut summary = build(&s).unwrap();
                feed(summary.as_mut(), 80);
                let snapshot = summary.snapshot();
                let restored = restore(&snapshot).unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_eq!(restored.processed(), 80, "{tag} x{shards}");
                assert_eq!(restored.params(), summary.params(), "{tag} x{shards}");
                assert_eq!(
                    restored.finalize().unwrap().ids(),
                    summary.finalize().unwrap().ids(),
                    "{tag} x{shards}"
                );
            }
        }
    }

    #[test]
    fn spec_params_match_freshly_built_streams() {
        for tag in algorithm_tags() {
            for shards in [1usize, 4] {
                let mut s = spec(tag);
                s.shards = shards;
                let implied = spec_params(&s).unwrap();
                let built = build(&s).unwrap();
                assert_eq!(implied, built.params(), "{tag} x{shards}");
            }
        }
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        assert!(build(&spec("bogus")).is_err());
        let mut s = spec("sfdm2");
        s.window = 10; // window on a non-sliding algorithm
        assert!(build(&s).is_err());
        assert!(spec_params(&s).is_err());
        let mut s = spec("sliding");
        s.window = 0;
        assert!(build(&s).is_err());
        let mut s = spec("unconstrained");
        s.quotas = vec![1, 1];
        assert!(build(&s).is_err());
        let mut s = spec("sfdm1");
        s.quotas = Vec::new();
        assert!(build(&s).is_err());
    }

    #[test]
    fn merge_summaries_is_bit_identical_to_sharded_stream() {
        for tag in algorithm_tags() {
            for parts_n in [1usize, 2, 4] {
                // Reference: one process, K round-robin shards.
                let mut sharded_spec = spec(tag);
                sharded_spec.shards = parts_n;
                let mut reference = build(&sharded_spec).unwrap();
                feed(reference.as_mut(), 90);
                // Distributed: K independent unsharded parts fed the same
                // arrival order through the same round-robin dealing.
                let part_spec = spec(tag);
                let mut parts: Vec<Box<dyn DynSummary>> =
                    (0..parts_n).map(|_| build(&part_spec).unwrap()).collect();
                for i in 0..90 {
                    let x = (i as f64 * 0.7391).sin() * 9.0;
                    let y = (i as f64 * 0.2113).cos() * 9.0;
                    parts[i % parts_n].insert(&Element::new(i, vec![x, y], i % 2));
                }
                let merged = merge_summaries(&part_spec, &parts, 8).unwrap();
                let expected = reference.finalize().unwrap();
                assert_eq!(merged.ids(), expected.ids(), "{tag} x{parts_n}");
                assert_eq!(
                    merged.diversity.to_bits(),
                    expected.diversity.to_bits(),
                    "{tag} x{parts_n}"
                );
            }
        }
    }

    #[test]
    fn merge_summaries_tree_reduction_stays_feasible() {
        // 5 parts under fan_in=2 forces a two-level tree; the answer need
        // not be bit-identical to the flat merge, but it must stay a full
        // feasible solution.
        let part_spec = spec("sfdm2");
        let mut parts: Vec<Box<dyn DynSummary>> =
            (0..5).map(|_| build(&part_spec).unwrap()).collect();
        for i in 0..120 {
            let x = (i as f64 * 0.7391).sin() * 9.0;
            let y = (i as f64 * 0.2113).cos() * 9.0;
            parts[i % 5].insert(&Element::new(i, vec![x, y], i % 2));
        }
        let merged = merge_summaries(&part_spec, &parts, 2).unwrap();
        assert_eq!(merged.len(), 4);
        assert!(merge_summaries(&part_spec, &[], 8).is_err());
    }

    #[test]
    fn restore_rejects_unknown_tags() {
        let mut summary = build(&spec("sfdm2")).unwrap();
        feed(summary.as_mut(), 20);
        let mut snapshot = summary.snapshot();
        snapshot.params.algorithm = "sharded:bogus".to_string();
        assert!(restore(&snapshot).is_err());
        snapshot.params.algorithm = "bogus".to_string();
        assert!(restore(&snapshot).is_err());
    }
}

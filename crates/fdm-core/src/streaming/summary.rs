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

use crate::dataset::DistanceBounds;
use crate::error::{FdmError, Result};
use crate::fairness::FairnessConstraint;
use crate::guess::GuessLadder;
use crate::persist::{Snapshot, SnapshotParams, Snapshottable, StatePatch};
use crate::point::Element;
use crate::solution::Solution;
use crate::streaming::memo::{FinalizeMemo, GuessTally};
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
    fn finalize(&self) -> Result<Solution> {
        self.finalize_tallied(&mut GuessTally::default())
    }

    /// [`DynSummary::finalize`], adding what the per-guess post-processing
    /// memos ([`crate::streaming::memo`]) did to `tally`.
    fn finalize_tallied(&self, tally: &mut GuessTally) -> Result<Solution>;

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
    /// merge ([`merge_unions`]) streams through the merge instance —
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

    fn finalize_tallied(&self, tally: &mut GuessTally) -> Result<Solution> {
        ShardAlgorithm::finalize_tallied(self, tally)
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

    fn finalize_tallied(&self, tally: &mut GuessTally) -> Result<Solution> {
        ShardedStream::finalize_tallied(self, tally)
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

/// [`merge_one`]'s signature: spec, unions, fan-in, memo, tally.
type MergeFn = fn(
    &SummarySpec,
    Vec<Vec<Element>>,
    usize,
    &mut FinalizeMemo,
    &mut GuessTally,
) -> Result<Solution>;

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
    /// (the [`merge_unions`] dispatch target).
    merge: MergeFn,
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

/// The largest footprint [`build`], [`spec_params`] and [`restore`]
/// accept. A spec's footprint is guesses × candidates per guess (the blind
/// one plus one per group) × shards × 2 for a window's two instances × k.
/// Each candidate holds at most `k` elements, so it bounds the element
/// slots a summary's candidates can hold together, and the candidates
/// allocated up front. The largest spec the paper's experiments use is
/// about 65,000; one above the ceiling is refused with
/// [`FdmError::SummaryTooLarge`] before anything is allocated.
pub const MAX_FOOTPRINT: u64 = 1 << 22;

/// Refuses a footprint (see [`MAX_FOOTPRINT`]) over the ceiling. The
/// ladder is sized by [`GuessLadder::predicted_len`], never built, and the
/// arithmetic is `f64`, so no product or quota sum can overflow.
fn check_footprint(
    bounds: DistanceBounds,
    epsilon: f64,
    quotas: &[usize],
    k: usize,
    shards: usize,
    window: usize,
) -> Result<()> {
    let guesses = GuessLadder::predicted_len(bounds, epsilon)?;
    let per_guess = 1.0 + quotas.len() as f64;
    let instances = if window > 0 { 2.0 } else { 1.0 };
    let k = if quotas.is_empty() {
        k as f64
    } else {
        quotas.iter().map(|&q| q as f64).sum()
    };
    let slots = guesses * per_guess * shards.max(1) as f64 * instances * k.max(1.0);
    if slots > MAX_FOOTPRINT as f64 {
        return Err(FdmError::SummaryTooLarge {
            slots,
            ceiling: MAX_FOOTPRINT,
        });
    }
    Ok(())
}

/// The distributed analogue of [`ShardedStream::finalize`]'s merge pass:
/// streams the per-part unions (in part order) through merge instances,
/// reducing hierarchically in chunks of `fan_in` until one instance holds
/// the whole union, then runs its post-processing. With
/// `unions.len() ≤ fan_in` this is a single level — operation-for-operation
/// the merge pass a `ShardedStream` with the same shard unions performs.
/// The last level's post-processing goes through `memo`.
fn merge_one<S: RegisteredSummary>(
    spec: &SummarySpec,
    mut unions: Vec<Vec<Element>>,
    fan_in: usize,
    memo: &mut FinalizeMemo,
    tally: &mut GuessTally,
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
    merge.finalize_merge(memo, tally)
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
/// A spec whose footprint is over [`MAX_FOOTPRINT`] is refused with
/// [`FdmError::SummaryTooLarge`] before anything is allocated.
pub fn build(spec: &SummarySpec) -> Result<Box<dyn DynSummary>> {
    let entry = entry_for(&spec.algorithm)?;
    check_footprint(
        spec.bounds,
        spec.epsilon,
        &spec.quotas,
        spec.k,
        spec.shards,
        spec.window,
    )?;
    (entry.build)(spec)
}

/// Restores any member of the family from a snapshot, dispatching on the
/// envelope's algorithm tag (`sharded:<base>` selects the sharded
/// restorer). An envelope over [`MAX_FOOTPRINT`] is refused before any
/// ladder is built, as [`build`] refuses the spec.
pub fn restore(snapshot: &Snapshot) -> Result<Box<dyn DynSummary>> {
    let p = &snapshot.params;
    check_footprint(p.bounds, p.epsilon, &p.quotas, p.k, p.shards, p.window)?;
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

/// Merges the retained-element unions of independently grown summaries of
/// one logical stream into a single solution — the coordinator-side half
/// of distributed FDM, which pulls each worker's union and nothing else.
///
/// `unions` are the parts' [retained elements](DynSummary::retained_elements)
/// (one per worker node, from summaries all built from `spec`), in
/// partition order (worker 0 first). They stream part-major through a
/// fresh merge instance whose post-processing produces the solution —
/// reduced hierarchically in chunks of `fan_in` when more than `fan_in`
/// parts fan in. This is [`ShardedStream::finalize`]'s merge pass, so with
/// `unions.len() ≤ fan_in` the result is **bit-identical** to a
/// single-process `ShardedStream` with `K = unions.len()` shards fed the
/// same arrival order (the distributed-identity suite asserts this);
/// deeper trees stay within the paper's approximation bounds by the same
/// composability lemma that justifies sharding at all.
///
/// One union reproduces its part's own post-processing, which is what a
/// `K = 1` `ShardedStream` answers: candidates only grow, and each accepts
/// an arrival by its distance to earlier members, so an element no
/// candidate kept changed no state, and re-streaming the kept elements in
/// arrival order rebuilds the same candidates.
///
/// `memo` carries the merge pass's per-guess results from the caller's
/// previous merge of the same stream ([`crate::streaming::memo`]): only
/// guesses whose candidates differ rerun, and the answer is bit-identical
/// to a fresh memo's. `tally` gains what it reused and computed.
pub fn merge_unions(
    spec: &SummarySpec,
    unions: Vec<Vec<Element>>,
    fan_in: usize,
    memo: &mut MergeMemo,
    tally: &mut GuessTally,
) -> Result<Solution> {
    if unions.is_empty() {
        return Err(FdmError::InvalidShardCount);
    }
    if memo.spec.as_ref() != Some(spec) {
        *memo = MergeMemo {
            spec: Some(spec.clone()),
            memo: FinalizeMemo::default(),
        };
    }
    (entry_for(&spec.algorithm)?.merge)(spec, unions, fan_in.max(2), &mut memo.memo, tally)
}

/// The per-guess memo one caller carries between [`merge_unions`] calls.
/// It is bound to the spec it was filled under: a merge of another spec
/// starts it afresh.
#[derive(Debug, Default)]
pub struct MergeMemo {
    spec: Option<SummarySpec>,
    memo: FinalizeMemo,
}

/// [`merge_unions`] over the parts themselves, for an in-process caller,
/// with no memo.
pub fn merge_summary_parts(
    spec: &SummarySpec,
    parts: &[&dyn DynSummary],
    fan_in: usize,
) -> Result<Solution> {
    merge_unions(
        spec,
        parts.iter().map(|p| p.retained_elements()).collect(),
        fan_in,
        &mut MergeMemo::default(),
        &mut GuessTally::default(),
    )
}

/// The envelope parameters a specification implies, **without building the
/// summary** (constructing full guess ladders just to compare parameters
/// on re-attach would be wasted work). Mirrors what [`build`] +
/// [`DynSummary::params`] would produce on a freshly built stream:
/// `dim = 0` wildcard, `sharded:` tag and `shards ≥ 1` normalization, the
/// sliding window clamped to ≥ 2. Refuses what [`build`] refuses,
/// [`MAX_FOOTPRINT`] included.
pub fn spec_params(spec: &SummarySpec) -> Result<SnapshotParams> {
    let entry = entry_for(&spec.algorithm)?;
    check_footprint(
        spec.bounds,
        spec.epsilon,
        &spec.quotas,
        spec.k,
        spec.shards,
        spec.window,
    )?;
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

    fn arrival(i: usize) -> Element {
        let x = (i as f64 * 0.7391).sin() * 9.0;
        let y = (i as f64 * 0.2113).cos() * 9.0;
        Element::new(i, vec![x, y], i % 2)
    }

    fn feed(summary: &mut dyn DynSummary, n: usize) {
        for i in 0..n {
            summary.insert(&arrival(i));
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
                let mut restored = restore(&snapshot).unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_eq!(restored.processed(), 80, "{tag} x{shards}");
                assert_eq!(restored.params(), summary.params(), "{tag} x{shards}");
                assert_eq!(
                    restored.finalize().unwrap().ids(),
                    summary.finalize().unwrap().ids(),
                    "{tag} x{shards}"
                );
                // Restore-then-continue: the restored summary and its
                // uninterrupted twin take the same further arrivals, one by
                // one and then as one batch, and must stay bit-identical.
                let suffix: Vec<Element> = (80..200).map(arrival).collect();
                for stream in [&mut restored, &mut summary] {
                    for e in &suffix[..60] {
                        stream.insert(e);
                    }
                    stream.insert_batch(&suffix[60..]);
                }
                assert_eq!(restored.processed(), 200, "{tag} x{shards}");
                assert_eq!(restored.processed(), summary.processed(), "{tag} x{shards}");
                assert_eq!(
                    restored.stored_elements(),
                    summary.stored_elements(),
                    "{tag} x{shards}"
                );
                let (resumed, twin) = (restored.finalize().unwrap(), summary.finalize().unwrap());
                assert_eq!(resumed.ids(), twin.ids(), "{tag} x{shards}");
                assert_eq!(
                    resumed.diversity.to_bits(),
                    twin.diversity.to_bits(),
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
    fn specs_over_the_footprint_ceiling_are_refused_before_building() {
        let too_large = |s: &SummarySpec| {
            for result in [build(s).map(|_| ()), spec_params(s).map(|_| ())] {
                assert!(
                    matches!(result, Err(FdmError::SummaryTooLarge { .. })),
                    "{s:?}: {result:?}"
                );
            }
        };
        // A huge k: 2^40 + 1.
        let mut s = spec("sfdm2");
        s.quotas = vec![1 << 40, 1];
        too_large(&s);
        // Quotas whose sum overflows `usize`.
        s.quotas = vec![usize::MAX, 1];
        too_large(&s);
        let mut s = spec("unconstrained");
        s.k = usize::MAX;
        too_large(&s);
        // A ladder of about 6.4e9 guesses, never built.
        let mut s = spec("sfdm2");
        s.epsilon = 1e-9;
        s.bounds = DistanceBounds::new(0.05, 30.0).unwrap();
        too_large(&s);
        // Shards and the window's two instances count.
        let mut s = spec("sliding");
        s.shards = 1 << 20;
        too_large(&s);
        // Up to the ceiling is admitted: 39 guesses x 3 candidates x k = 4
        // is 468 slots per shard.
        let mut s = spec("sfdm2");
        assert_eq!(GuessLadder::new(s.bounds, s.epsilon).unwrap().len(), 39);
        s.shards = (MAX_FOOTPRINT / 468) as usize;
        assert!(spec_params(&s).is_ok());
        s.shards += 1;
        too_large(&s);
        // A snapshot envelope is checked the same way before restoring.
        let mut snapshot = build(&spec("sfdm2")).unwrap().snapshot();
        snapshot.params.epsilon = 1e-9;
        assert!(matches!(
            restore(&snapshot).map(|_| ()),
            Err(FdmError::SummaryTooLarge { .. })
        ));
    }

    #[test]
    fn merge_unions_is_bit_identical_to_sharded_stream() {
        for tag in algorithm_tags() {
            for parts_n in [1usize, 2, 4] {
                // Reference: one process, K round-robin shards.
                let mut sharded_spec = spec(tag);
                sharded_spec.shards = parts_n;
                let mut reference = build(&sharded_spec).unwrap();
                feed(reference.as_mut(), 90);
                let expected = reference.finalize().unwrap();
                // Distributed: K independent unsharded parts fed the same
                // arrival order through the same round-robin dealing.
                let part_spec = spec(tag);
                let mut parts: Vec<Box<dyn DynSummary>> =
                    (0..parts_n).map(|_| build(&part_spec).unwrap()).collect();
                for i in 0..90 {
                    parts[i % parts_n].insert(&arrival(i));
                }
                let unions = parts.iter().map(|p| p.retained_elements()).collect();
                let merged = merge_unions(
                    &part_spec,
                    unions,
                    8,
                    &mut MergeMemo::default(),
                    &mut GuessTally::default(),
                )
                .unwrap();
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
    fn merge_unions_tree_reduction_stays_feasible() {
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
        let unions = parts.iter().map(|p| p.retained_elements()).collect();
        let (mut memo, mut tally) = (MergeMemo::default(), GuessTally::default());
        let merged = merge_unions(&part_spec, unions, 2, &mut memo, &mut tally).unwrap();
        assert_eq!(merged.len(), 4);
        assert!(merge_unions(&part_spec, Vec::new(), 8, &mut memo, &mut tally).is_err());
        assert!(merge_summary_parts(&part_spec, &[], 8).is_err());
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

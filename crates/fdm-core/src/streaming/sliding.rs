//! Sliding-window fair diversity maximization (extension).
//!
//! The paper lists the sliding-window model as future work (§VI). This
//! module provides a practical **checkpointed-restart** wrapper: it keeps
//! two staggered [`Sfdm2`] instances, starting a fresh one every `W/2`
//! arrivals and retiring the older one, so that at any time the queried
//! instance has seen between the last `W/2` and the last `W` elements.
//!
//! This is a documented heuristic, not a reproduction artifact: it carries
//! no approximation guarantee relative to the true window optimum (a
//! rigorous sliding-window algorithm à la Borassi et al. would maintain
//! exponential-histogram checkpoints), but it preserves the fairness
//! constraint exactly, uses `O(km log(∆)/ε)` space, and gives downstream
//! users a drop-in way to age out stale elements.
//!
//! The wrapper is a first-class member of the summary family: it implements
//! [`ShardAlgorithm`] (so [`ShardedStream<SlidingWindowFdm>`](crate::streaming::sharded::ShardedStream) runs K
//! staggered windows over a round-robin partition of the stream),
//! [`Snapshottable`] (tag `sliding`, v2 binary with the v1 JSON reader,
//! delta chains — pinned by golden fixtures), and therefore
//! [`DynSummary`](crate::streaming::summary::DynSummary) through the
//! blanket impl, which is what lets `fdm-serve` host it (`OPEN name
//! sliding ... window=W`) and `fdm-bench` measure it (`--algorithm
//! sliding --window W`).

use crate::error::{FdmError, Result};
use crate::persist::{self, SnapshotParams, Snapshottable};
use crate::point::Element;
use crate::solution::Solution;
use crate::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use crate::streaming::sharded::ShardAlgorithm;

/// Configuration for [`SlidingWindowFdm`]: an [`Sfdm2Config`] plus the
/// window size `W`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SlidingWindowConfig {
    /// Configuration of the two staggered [`Sfdm2`] instances.
    pub inner: Sfdm2Config,
    /// Window size `W` (elements). Values below 2 are clamped to 2.
    pub window: usize,
}

/// Sliding-window wrapper over [`Sfdm2`]. See the module docs.
#[derive(Debug, Clone)]
pub struct SlidingWindowFdm {
    config: Sfdm2Config,
    /// Window size `W` (elements).
    window: usize,
    /// Older instance (covers ≥ W/2 most recent arrivals).
    primary: Sfdm2,
    /// Younger instance, promoted at the next checkpoint.
    secondary: Sfdm2,
    arrivals: usize,
}

impl SlidingWindowFdm {
    /// Creates the wrapper; `window` must be at least 2 so checkpoints make
    /// sense (values smaller than `2k` will rarely yield feasible windows).
    pub fn new(config: Sfdm2Config, window: usize) -> Result<Self> {
        let primary = Sfdm2::new(config.clone())?;
        let secondary = Sfdm2::new(config.clone())?;
        Ok(SlidingWindowFdm {
            config,
            window: window.max(2),
            primary,
            secondary,
            arrivals: 0,
        })
    }

    /// Creates the wrapper from a bundled [`SlidingWindowConfig`].
    pub fn with_config(config: SlidingWindowConfig) -> Result<Self> {
        Self::new(config.inner, config.window)
    }

    /// Window size `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total arrivals observed.
    pub fn arrivals(&self) -> usize {
        self.arrivals
    }

    /// Total arrivals observed (the family-wide counter name).
    pub fn processed(&self) -> usize {
        self.arrivals
    }

    /// The bundled configuration this instance was built with.
    pub fn config(&self) -> SlidingWindowConfig {
        SlidingWindowConfig {
            inner: self.config.clone(),
            window: self.window,
        }
    }

    /// Rotation cadence `W/2` (≥ 1).
    fn half(&self) -> usize {
        (self.window / 2).max(1)
    }

    /// Promotes the younger instance and starts a fresh one.
    fn rotate(&mut self) {
        let fresh = Sfdm2::new(self.config.clone()).expect("config validated at construction");
        self.primary = std::mem::replace(&mut self.secondary, fresh);
    }

    /// Processes one arrival; rotates instances every `W/2` arrivals.
    pub fn insert(&mut self, element: &Element) {
        self.primary.insert(element);
        self.secondary.insert(element);
        self.arrivals += 1;
        if self.arrivals.is_multiple_of(self.half()) {
            self.rotate();
        }
    }

    /// Processes a batch of arrivals in order — the
    /// [`ShardAlgorithm::insert_batch`] loop, kept inherent so callers need
    /// not name the trait. Rotations fire exactly as with element-by-element
    /// [`SlidingWindowFdm::insert`].
    pub fn insert_batch(&mut self, batch: &[Element]) {
        ShardAlgorithm::insert_batch(self, batch);
    }

    /// Fair solution over (a superset of the tail of) the current window.
    pub fn finalize(&self) -> Result<Solution> {
        self.primary.finalize()
    }

    /// Distinct elements retained across both instances — the paper's
    /// space metric, same contract as every other summary. (The physical
    /// footprint can reach twice this: the staggered instances each hold
    /// their own arena copy of the overlap.)
    pub fn stored_elements(&self) -> usize {
        let mut ids: std::collections::HashSet<usize> = self
            .primary
            .store()
            .ids()
            .map(|id| self.primary.store().external_id(id))
            .collect();
        ids.extend(
            self.secondary
                .store()
                .ids()
                .map(|id| self.secondary.store().external_id(id)),
        );
        ids.len()
    }
}

/// Membership in the shard/summary family: a sharded sliding stream runs K
/// staggered windows over a round-robin partition, and the merge pass
/// streams the union of their retained elements through one fresh window.
impl ShardAlgorithm for SlidingWindowFdm {
    type Config = SlidingWindowConfig;

    fn build(config: &Self::Config) -> Result<Self> {
        Self::with_config(config.clone())
    }

    fn merge_instance(config: &Self::Config, union_len: usize) -> Result<Self> {
        // The shards' union is already window-filtered per shard, and its
        // insertion order is shard-major — not time order — so the merge
        // window must be wide enough that no rotation fires mid-merge
        // (a rotation would age out *earlier shards*, not older elements).
        Self::new(config.inner.clone(), (2 * union_len + 2).max(config.window))
    }

    fn config(&self) -> Self::Config {
        SlidingWindowFdm::config(self)
    }

    fn insert(&mut self, element: &Element) {
        SlidingWindowFdm::insert(self, element);
    }

    fn retained_elements(&self) -> Vec<Element> {
        // Primary first (it is the queried instance), then the younger
        // instance's retained set. The two overlap on recent arrivals;
        // duplicates are harmless downstream (a zero-distance repeat can
        // never re-enter a candidate).
        let mut elements = ShardAlgorithm::retained_elements(&self.primary);
        elements.extend(ShardAlgorithm::retained_elements(&self.secondary));
        elements
    }

    fn finalize(&self) -> Result<Solution> {
        SlidingWindowFdm::finalize(self)
    }

    fn processed(&self) -> usize {
        self.arrivals
    }

    fn stored_elements(&self) -> usize {
        SlidingWindowFdm::stored_elements(self)
    }
}

/// # Persistence
///
/// The state tree bundles the window geometry (`window`, `arrivals`) with
/// the full state trees of both staggered [`Sfdm2`] instances, so both
/// formats, delta chains, and `full + WAL-replay` recovery restore the
/// rotation schedule bit-exactly: a restored wrapper rotates at the same
/// future arrivals and answers every query identically to one that never
/// went down (golden fixtures in `tests/persist_golden.rs`, round-trip
/// properties in `tests/persist_codec.rs`).
impl Snapshottable for SlidingWindowFdm {
    fn algorithm_tag() -> String {
        "sliding".to_string()
    }

    fn snapshot_params(&self) -> SnapshotParams {
        let mut params = self.primary.snapshot_params();
        params.algorithm = Self::algorithm_tag();
        params.window = self.window;
        // Both instances see every arrival; the secondary can only know the
        // dimension if the primary does too.
        params
    }

    fn snapshot_state(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert(
            "window".to_string(),
            serde::Serialize::to_value(&self.window),
        );
        map.insert(
            "arrivals".to_string(),
            serde::Serialize::to_value(&self.arrivals),
        );
        map.insert("primary".to_string(), self.primary.snapshot_state());
        map.insert("secondary".to_string(), self.secondary.snapshot_state());
        serde::Value::Object(map)
    }

    fn capture_cursor(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert(
            "arrivals".to_string(),
            serde::Serialize::to_value(&self.arrivals),
        );
        map.insert("primary".to_string(), self.primary.capture_cursor());
        map.insert("secondary".to_string(), self.secondary.capture_cursor());
        serde::Value::Object(map)
    }

    fn state_patch_since(&self, cursor: &serde::Value) -> Option<persist::StatePatch> {
        let old_arrivals = cursor.get("arrivals")?.as_u64()? as usize;
        // A rotation replaces both instance subtrees wholesale; patches
        // only describe rotation-free stretches. Rotations fire every
        // `half` arrivals, so crossing a multiple of `half` since the
        // cursor means at least one happened.
        if old_arrivals > self.arrivals || old_arrivals / self.half() != self.arrivals / self.half()
        {
            return None;
        }
        let primary = self.primary.state_patch_since(cursor.get("primary")?)?;
        let secondary = self.secondary.state_patch_since(cursor.get("secondary")?)?;
        // `window` is static for the instance's lifetime → keep.
        Some(persist::StatePatch::Object(vec![
            (
                "arrivals".to_string(),
                persist::StatePatch::Replace(serde::Serialize::to_value(&self.arrivals)),
            ),
            ("primary".to_string(), primary),
            ("secondary".to_string(), secondary),
        ]))
    }

    fn restore_state(state: &serde::Value) -> Result<Self> {
        let window: usize = persist::field(state, "window")?;
        if window < 2 {
            return Err(FdmError::CorruptSnapshot {
                detail: format!("sliding window {window} below the minimum of 2"),
            });
        }
        let arrivals: usize = persist::field(state, "arrivals")?;
        let sub = |key: &'static str| -> Result<Sfdm2> {
            let tree = state.get(key).ok_or_else(|| FdmError::CorruptSnapshot {
                detail: format!("missing state field `{key}`"),
            })?;
            Sfdm2::restore_state(tree).map_err(|e| match e {
                FdmError::CorruptSnapshot { detail } => FdmError::CorruptSnapshot {
                    detail: format!("{key} instance: {detail}"),
                },
                FdmError::IncompatibleSnapshot { detail } => FdmError::IncompatibleSnapshot {
                    detail: format!("{key} instance: {detail}"),
                },
                other => other,
            })
        };
        let primary = sub("primary")?;
        let secondary = sub("secondary")?;
        // Both instances must share one configuration (dimensions may
        // differ only through the "no element seen yet" wildcard, which
        // here can only be the younger instance right after a rotation).
        let neutral = |alg: &Sfdm2| {
            let mut p = alg.snapshot_params();
            p.dim = 0;
            p
        };
        if neutral(&primary) != neutral(&secondary) {
            return Err(FdmError::IncompatibleSnapshot {
                detail: "staggered instances were configured differently".to_string(),
            });
        }
        // The rotation schedule is a pure function of `arrivals` and
        // `window`; instance counters that disagree with it are corrupt
        // (they would silently shift every future rotation).
        let half = (window / 2).max(1);
        let (want_primary, want_secondary) = if arrivals < half {
            (arrivals, arrivals)
        } else {
            (arrivals % half + half, arrivals % half)
        };
        if primary.processed() != want_primary || secondary.processed() != want_secondary {
            return Err(FdmError::CorruptSnapshot {
                detail: format!(
                    "rotation counters disagree: {arrivals} arrivals with window {window} \
                     imply instance positions ({want_primary}, {want_secondary}), state \
                     holds ({}, {})",
                    primary.processed(),
                    secondary.processed()
                ),
            });
        }
        Ok(SlidingWindowFdm {
            config: primary.config(),
            window,
            primary,
            secondary,
            arrivals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DistanceBounds;
    use crate::fairness::FairnessConstraint;
    use crate::metric::Metric;
    use crate::persist::Snapshot;
    use rand::prelude::*;

    fn config() -> Sfdm2Config {
        Sfdm2Config {
            constraint: FairnessConstraint::new(vec![2, 2]).unwrap(),
            epsilon: 0.1,
            bounds: DistanceBounds::new(0.05, 30.0).unwrap(),
            metric: Metric::Euclidean,
        }
    }

    fn elem(rng: &mut StdRng, id: usize) -> Element {
        Element::new(
            id,
            vec![rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0],
            id % 2,
        )
    }

    #[test]
    fn produces_fair_solutions_continuously() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut alg = SlidingWindowFdm::new(config(), 100).unwrap();
        for id in 0..500 {
            alg.insert(&elem(&mut rng, id));
            if id > 100 && id % 97 == 0 {
                let sol = alg.finalize().unwrap();
                assert_eq!(sol.group_counts(2), vec![2, 2]);
            }
        }
        assert_eq!(alg.arrivals(), 500);
    }

    #[test]
    fn old_elements_age_out() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut alg = SlidingWindowFdm::new(config(), 50).unwrap();
        // First 100 arrivals are "early" ids; then 200 more.
        for id in 0..300 {
            alg.insert(&elem(&mut rng, id));
        }
        let sol = alg.finalize().unwrap();
        // The primary instance was restarted at arrival 250 at the latest,
        // so nothing older than id 225 can appear.
        for e in &sol.elements {
            assert!(e.id >= 225, "stale element {} leaked into the window", e.id);
        }
    }

    #[test]
    fn space_bounded_by_two_instances() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut alg = SlidingWindowFdm::new(config(), 64).unwrap();
        let mut single = Sfdm2::new(config()).unwrap();
        for id in 0..400 {
            let e = elem(&mut rng, id);
            alg.insert(&e);
            single.insert(&e);
        }
        assert!(alg.stored_elements() <= 2 * (single.stored_elements() + 64));
    }

    #[test]
    fn batch_insert_matches_element_by_element() {
        let mut rng = StdRng::seed_from_u64(9);
        let elements: Vec<Element> = (0..260).map(|id| elem(&mut rng, id)).collect();
        let mut one_by_one = SlidingWindowFdm::new(config(), 64).unwrap();
        let mut batched = SlidingWindowFdm::new(config(), 64).unwrap();
        for e in &elements {
            one_by_one.insert(e);
        }
        for chunk in elements.chunks(47) {
            batched.insert_batch(chunk);
        }
        assert_eq!(one_by_one.arrivals(), batched.arrivals());
        assert_eq!(one_by_one.stored_elements(), batched.stored_elements());
        let a = one_by_one.finalize().unwrap();
        let b = batched.finalize().unwrap();
        assert_eq!(a.ids(), b.ids());
    }

    #[test]
    fn tiny_window_still_works() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut alg = SlidingWindowFdm::new(config(), 1).unwrap();
        for id in 0..50 {
            alg.insert(&elem(&mut rng, id));
        }
        assert_eq!(alg.window(), 2);
    }

    #[test]
    fn snapshot_restore_continue_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(5);
        let elements: Vec<Element> = (0..300).map(|id| elem(&mut rng, id)).collect();
        // Cut at an arbitrary point (not a rotation boundary).
        for cut in [37usize, 150, 199] {
            let mut reference = SlidingWindowFdm::new(config(), 80).unwrap();
            for e in &elements {
                reference.insert(e);
            }
            let mut prefix = SlidingWindowFdm::new(config(), 80).unwrap();
            for e in &elements[..cut] {
                prefix.insert(e);
            }
            let snapshot = prefix.snapshot();
            let mut resumed = SlidingWindowFdm::restore(&snapshot).unwrap();
            assert_eq!(resumed.arrivals(), cut);
            for e in &elements[cut..] {
                resumed.insert(e);
            }
            assert_eq!(reference.stored_elements(), resumed.stored_elements());
            let a = reference.finalize().unwrap();
            let b = resumed.finalize().unwrap();
            assert_eq!(a.ids(), b.ids(), "cut {cut}");
            assert_eq!(a.diversity.to_bits(), b.diversity.to_bits(), "cut {cut}");
        }
    }

    #[test]
    fn tampered_rotation_counters_are_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut alg = SlidingWindowFdm::new(config(), 40).unwrap();
        for id in 0..90 {
            alg.insert(&elem(&mut rng, id));
        }
        let snapshot = alg.snapshot();
        // Shift the arrivals counter: the rotation schedule no longer
        // matches the embedded instance positions.
        let state = serde_json::to_string(&snapshot.state)
            .unwrap()
            .replace("\"arrivals\":90", "\"arrivals\":91");
        let tampered = Snapshot {
            params: snapshot.params.clone(),
            state: serde_json::parse_value(&state).unwrap(),
        };
        let err = SlidingWindowFdm::restore(&tampered).unwrap_err();
        assert!(
            matches!(
                err,
                FdmError::CorruptSnapshot { .. } | FdmError::IncompatibleSnapshot { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn envelope_carries_window_and_tag() {
        let alg = SlidingWindowFdm::new(config(), 64).unwrap();
        let params = alg.snapshot_params();
        assert_eq!(params.algorithm, "sliding");
        assert_eq!(params.window, 64);
        assert_eq!(params.k, 4);
        // A different window is a different deployment.
        let other = SlidingWindowFdm::new(config(), 128).unwrap();
        assert!(params.ensure_compatible(&other.snapshot_params()).is_err());
    }

    #[test]
    fn sharded_merge_does_not_age_out_early_shards() {
        use crate::streaming::sharded::ShardedStream;
        // Round-robin dealing sends arrival i to shard i % K. Confine
        // group 1 to positions ≡ 0 (mod 3): every group-1 element lands in
        // shard 0, whose summary is streamed *first* by the shard-major
        // merge. With a small window the naive merge (a fresh W-sized
        // sliding instance) would rotate group 1 away mid-merge and fail;
        // the widened merge window must keep the answer fair.
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = SlidingWindowConfig {
            inner: config(),
            window: 20,
        };
        let mut sharded: ShardedStream<SlidingWindowFdm> = ShardedStream::new(cfg, 3).unwrap();
        for i in 0..360 {
            let group = usize::from(i % 3 != 0);
            let point = vec![rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0];
            // quotas [2, 2]: group 0 is the shard-0-only group here.
            sharded.insert(&Element::new(i, point, 1 - group));
        }
        let sol = sharded.finalize().unwrap();
        assert_eq!(
            sol.group_counts(2),
            vec![2, 2],
            "the merge lost the group confined to the first shard"
        );
    }

    #[test]
    fn sharded_sliding_windows_age_out_and_stay_fair() {
        use crate::streaming::sharded::ShardedStream;
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = SlidingWindowConfig {
            inner: config(),
            window: 60,
        };
        let mut sharded: ShardedStream<SlidingWindowFdm> = ShardedStream::new(cfg, 3).unwrap();
        for id in 0..600 {
            sharded.insert(&elem(&mut rng, id));
        }
        assert_eq!(ShardedStream::processed(&sharded), 600);
        let sol = sharded.finalize().unwrap();
        assert_eq!(sol.group_counts(2), vec![2, 2]);
        // Each shard's window covers at most its last 60 arrivals; with
        // round-robin dealing nothing older than ~id 60·3·2 from the tail
        // can survive. Loose bound: no element from the first half.
        for e in &sol.elements {
            assert!(e.id >= 300, "stale element {} leaked through shards", e.id);
        }
    }
}

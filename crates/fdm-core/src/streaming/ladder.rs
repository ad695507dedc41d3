//! The stream phase of Algorithms 1–3: candidate lanes over one arena.
//!
//! SFDM1 (Algorithm 2) and SFDM2 (Algorithm 3) run the same stream phase.
//! Per guess `µ` of the [`GuessLadder`] they keep one group-blind candidate
//! `S_µ` of capacity `k` and one candidate `S_µ,i` per group, offered only
//! that group's elements. They differ in the group capacity (`k_i` in
//! SFDM1, `k` in SFDM2), which the algorithm passes in, and in
//! post-processing. `FairLadder` is that phase: the configuration, the
//! arena, the blind lane, the group lanes and the per-guess
//! post-processing memo ([`crate::streaming::memo`]). Algorithm 1 is the
//! blind lane alone; it shares the arena half (`Arena`: the [`PointStore`]
//! of retained elements with its lazily fixed dimension, the arrival count
//! and the per-arrival proxy cache) and keeps its own lane.
//!
//! # Persistence
//!
//! One writer lays out every ladder's state tree, in key order:
//!
//! * `config`, then SFDM1's `strategy` or SFDM2's `mode` (static for the
//!   instance's lifetime, so never in a patch);
//! * `store`, `store_initialized`, `processed` (the arena half);
//! * the lanes: `blind` and `specific` (one ladder per group), or
//!   Algorithm 1's `candidates`.
//!
//! The layout is append-mostly: the arena's coordinate, group and id blobs
//! only grow and each lane's member list only gains ids, so the
//! [`StatePatch`] between two captures records the appended rows, the new
//! member ids and the counters. The v2 binary codec packs the blobs as
//! dense `f64` rows and varint ids. Both formats and `full + delta*` chains
//! restore bit-identically (`tests/persist_codec.rs`), and a restore checks
//! the tree against the configuration: a non-empty arena marked
//! uninitialized, a group label `≥ m`, the wrong number of group ladders,
//! a lane count or guess digest the configuration does not imply, or a
//! member past the arena or over its lane's capacity is a typed error.

use std::collections::HashSet;

use serde::{Deserialize, Serialize, Value};

use crate::dataset::DistanceBounds;
use crate::error::{FdmError, Result};
use crate::fairness::FairnessConstraint;
use crate::guess::GuessLadder;
use crate::metric::Metric;
use crate::persist::{self, codec, SnapshotParams, StatePatch};
use crate::point::{Element, PointId, PointStore};
use crate::streaming::candidate::{ArrivalProxies, Candidate};
use crate::streaming::memo::MemoCell;

/// Configuration of the fair streaming algorithms, SFDM1 and SFDM2
/// (named [`Sfdm1Config`](crate::streaming::sfdm1::Sfdm1Config) and
/// [`Sfdm2Config`](crate::streaming::sfdm2::Sfdm2Config)).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FairStreamConfig {
    /// Quota vector: two groups for SFDM1, `m ≥ 2` for SFDM2.
    pub constraint: FairnessConstraint,
    /// Guess-ladder accuracy `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Known bounds with `d_min ≤ OPT_f ≤ d_max`.
    pub bounds: DistanceBounds,
    /// The distance metric.
    pub metric: Metric,
}

/// The arena half of a ladder: the retained elements, how many arrived,
/// and the per-arrival proxy cache.
#[derive(Debug, Clone)]
pub(crate) struct Arena {
    store: PointStore,
    /// Whether an arrival has fixed the arena's dimension.
    store_initialized: bool,
    processed: usize,
    /// Per-arrival proxy cache shared across all candidates (see
    /// [`ArrivalProxies`]).
    scratch: ArrivalProxies,
}

impl Arena {
    pub(crate) fn new() -> Arena {
        Arena {
            // Dimension is unknown until the first element arrives.
            store: PointStore::new(1),
            store_initialized: false,
            processed: 0,
            scratch: ArrivalProxies::new(),
        }
    }

    /// Counts one arrival and offers it to `candidates` in order. The
    /// shared proxy cache makes each arena row cost one kernel evaluation
    /// per arrival however many candidates test it.
    #[inline]
    pub(crate) fn offer<'a>(
        &mut self,
        metric: Metric,
        candidates: impl IntoIterator<Item = &'a mut Candidate>,
        element: &Element,
    ) {
        if !self.store_initialized {
            self.store = PointStore::new(element.dim().max(1));
            self.store_initialized = true;
        }
        self.processed += 1;
        self.scratch
            .offer(&mut self.store, metric, candidates, element);
    }

    pub(crate) fn processed(&self) -> usize {
        self.processed
    }

    pub(crate) fn store(&self) -> &PointStore {
        &self.store
    }

    /// The distinct retained element count — the paper's space metric.
    pub(crate) fn stored_elements(&self) -> usize {
        let ids: HashSet<usize> = self
            .store
            .ids()
            .map(|id| self.store.external_id(id))
            .collect();
        ids.len()
    }

    /// The dimension the first arrival fixed; `0` before it.
    pub(crate) fn dim(&self) -> usize {
        if self.store_initialized {
            self.store.dim()
        } else {
            0
        }
    }

    /// The state tree: `head`, the arena's three keys, then `lanes`.
    pub(crate) fn state<'a>(
        &self,
        head: impl IntoIterator<Item = (&'a str, Value)>,
        lanes: &[(&str, &dyn Lanes)],
    ) -> Value {
        let mut map = serde::Map::new();
        for (key, value) in head {
            map.insert(key.to_string(), value);
        }
        map.insert("store".to_string(), self.store.to_value());
        map.insert(
            "store_initialized".to_string(),
            Value::Bool(self.store_initialized),
        );
        map.insert("processed".to_string(), self.processed.to_value());
        for (key, lanes) in lanes {
            map.insert(key.to_string(), lanes.state());
        }
        Value::Object(map)
    }

    /// The capture cursor: the arena's row and coordinate counts (both
    /// append-only; the arena is only ever replaced while empty, which the
    /// patch's dimension replace covers), then each lane set's.
    pub(crate) fn cursor(&self, lanes: &[(&str, &dyn Lanes)]) -> Value {
        let mut store = serde::Map::new();
        store.insert("len".to_string(), Value::Number(self.store.len() as f64));
        store.insert(
            "coords".to_string(),
            Value::Number(self.store.coords_raw().len() as f64),
        );
        let mut map = serde::Map::new();
        map.insert("store".to_string(), Value::Object(store));
        for (key, lanes) in lanes {
            map.insert(key.to_string(), lanes.cursor());
        }
        Value::Object(map)
    }

    /// The state tree's changes since `cursor`: the arena's appended id,
    /// group and coordinate suffixes, its dimension (whose replace lowers
    /// to a keep whenever it is unchanged), the counters, and each lane
    /// set's appended members. The head keys are static and kept.
    pub(crate) fn patch_since(
        &self,
        lanes: &[(&str, &dyn Lanes)],
        cursor: &Value,
    ) -> Option<StatePatch> {
        let at = cursor.get("store")?;
        let old_len = at.get("len")?.as_u64()? as usize;
        let old_coords = at.get("coords")?.as_u64()? as usize;
        let ids = self.store.external_ids_raw();
        let groups = self.store.groups_raw();
        let coords = self.store.coords_raw();
        if old_len > ids.len() || old_coords > coords.len() {
            return None;
        }
        let append = |values: &mut dyn Iterator<Item = f64>| {
            StatePatch::Append(values.map(Value::Number).collect())
        };
        let store = StatePatch::Object(vec![
            (
                "dim".to_string(),
                StatePatch::Replace(Value::Number(self.store.dim() as f64)),
            ),
            (
                "external_ids".to_string(),
                append(&mut ids[old_len..].iter().map(|&v| v as f64)),
            ),
            (
                "groups".to_string(),
                append(&mut groups[old_len..].iter().map(|&v| f64::from(v))),
            ),
            (
                "coords".to_string(),
                append(&mut coords[old_coords..].iter().copied()),
            ),
        ]);
        let mut entries = vec![
            ("store".to_string(), store),
            (
                "store_initialized".to_string(),
                StatePatch::Replace(Value::Bool(self.store_initialized)),
            ),
            (
                "processed".to_string(),
                StatePatch::Replace(self.processed.to_value()),
            ),
        ];
        for (key, lanes) in lanes {
            entries.push((key.to_string(), lanes.patch_since(cursor.get(key)?)?));
        }
        Some(StatePatch::Object(entries))
    }

    /// Reads the arena half of `state` and fills the freshly built `lanes`
    /// from it, checking both against each other.
    pub(crate) fn restore(state: &Value, lanes: &mut [(&str, &mut dyn Lanes)]) -> Result<Arena> {
        let store: PointStore = persist::field(state, "store")?;
        let store_initialized: bool = persist::field(state, "store_initialized")?;
        if !store_initialized && !store.is_empty() {
            return Err(FdmError::CorruptSnapshot {
                detail: "arena holds points but is marked uninitialized".to_string(),
            });
        }
        for (key, lanes) in lanes.iter_mut() {
            lanes.restore(state, key, &store)?;
        }
        Ok(Arena {
            processed: persist::field(state, "processed")?,
            store,
            store_initialized,
            scratch: ArrivalProxies::new(),
        })
    }
}

/// The stream phase of SFDM1 and SFDM2 (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct FairLadder {
    config: FairStreamConfig,
    arena: Arena,
    /// Group-blind candidates, one per guess, of capacity `k`.
    blind: Vec<Candidate>,
    /// `specific[i][j]`: group `i`, guess `j`, of the algorithm's group
    /// capacity.
    specific: Vec<Vec<Candidate>>,
    /// Per-guess post-processing results of the last `finalize`.
    memo: MemoCell,
}

impl FairLadder {
    /// Empty lanes for every guess of the ladder `config` implies: the
    /// blind lane of capacity `k`, and group `i`'s of `group_capacity[i]`.
    pub(crate) fn new(config: FairStreamConfig, group_capacity: &[usize]) -> Result<FairLadder> {
        config.metric.validate()?;
        let ladder = GuessLadder::new(config.bounds, config.epsilon)?;
        let lane = |capacity: usize| -> Vec<Candidate> {
            ladder
                .values()
                .iter()
                .map(|&mu| Candidate::new(mu, capacity, config.metric))
                .collect()
        };
        let blind = lane(config.constraint.total());
        let specific = group_capacity.iter().map(|&c| lane(c)).collect();
        Ok(FairLadder {
            config,
            arena: Arena::new(),
            blind,
            specific,
            memo: MemoCell::default(),
        })
    }

    /// Offers one stream element to every guess's blind candidate and its
    /// group's candidate, in that order.
    #[inline]
    pub(crate) fn insert(&mut self, element: &Element) {
        debug_assert!(
            element.group < self.specific.len(),
            "group label out of range for the constraint"
        );
        self.arena.offer(
            self.config.metric,
            self.blind
                .iter_mut()
                .chain(self.specific[element.group].iter_mut()),
            element,
        );
    }

    pub(crate) fn config(&self) -> &FairStreamConfig {
        &self.config
    }

    pub(crate) fn arena(&self) -> &Arena {
        &self.arena
    }

    pub(crate) fn store(&self) -> &PointStore {
        &self.arena.store
    }

    /// The arena, by value (a carried memo keeps it).
    pub(crate) fn into_store(self) -> PointStore {
        self.arena.store
    }

    pub(crate) fn memo(&self) -> &MemoCell {
        &self.memo
    }

    /// Number of guesses in the ladder.
    pub(crate) fn guesses(&self) -> usize {
        self.blind.len()
    }

    /// `µ_j`.
    pub(crate) fn mu(&self, j: usize) -> f64 {
        self.blind[j].mu()
    }

    /// Guess `j`'s group-blind candidate `S_µ`.
    pub(crate) fn blind(&self, j: usize) -> &Candidate {
        &self.blind[j]
    }

    /// Guess `j`'s candidate `S_µ,g` for group `g`.
    pub(crate) fn group(&self, g: usize, j: usize) -> &Candidate {
        &self.specific[g][j]
    }

    /// Guess `j`'s candidate lists in S_all order: the group-blind
    /// candidate first, then each group's.
    pub(crate) fn lists(&self, j: usize) -> Vec<&[PointId]> {
        std::iter::once(self.blind[j].members())
            .chain(self.specific.iter().map(|lanes| lanes[j].members()))
            .collect()
    }

    /// Whether `µ_j ∈ U' = {µ : |S_µ| ≥ k ∧ |S_µ,i| ≥ k_i ∀i}`. For
    /// SFDM1's `k_i`-capacity group lanes (and the blind lane's capacity
    /// `k`) this is the paper's `|S_µ| = k ∧ |S_µ,i| = k_i`.
    pub(crate) fn in_u_prime(&self, j: usize) -> bool {
        let constraint = &self.config.constraint;
        self.blind[j].len() >= constraint.total()
            && self
                .specific
                .iter()
                .enumerate()
                .all(|(g, lanes)| lanes[j].len() >= constraint.quota(g))
    }

    /// The envelope parameters of an unsharded fair ladder.
    pub(crate) fn snapshot_params(&self, algorithm: String) -> SnapshotParams {
        SnapshotParams {
            algorithm,
            dim: self.arena.dim(),
            epsilon: self.config.epsilon,
            metric: self.config.metric,
            bounds: self.config.bounds,
            quotas: self.config.constraint.quotas().to_vec(),
            k: self.config.constraint.total(),
            shards: 1,
            window: 0,
        }
    }

    /// The lane sets in state-tree order.
    fn lanes(&self) -> [(&'static str, &dyn Lanes); 2] {
        [("blind", &self.blind), ("specific", &self.specific)]
    }

    /// The state tree, with `extra` (the algorithm's one key) after
    /// `config`.
    pub(crate) fn state(&self, extra: (&str, Value)) -> Value {
        self.arena
            .state([("config", self.config.to_value()), extra], &self.lanes())
    }

    pub(crate) fn capture_cursor(&self) -> Value {
        self.arena.cursor(&self.lanes())
    }

    pub(crate) fn state_patch_since(&self, cursor: &Value) -> Option<StatePatch> {
        self.arena.patch_since(&self.lanes(), cursor)
    }
}

/// Writes what a fair algorithm shares with the other: its inherent stream
/// API and its [`Snapshottable`](crate::persist::Snapshottable) impl over
/// the [`FairLadder`] in its `ladder` field. `$extra` is the one field it
/// persists after `config`, and `$build(config, $extra)` its constructor.
/// `finalize` and the post-processing stay with the algorithm.
macro_rules! fair_stream {
    ($alg:ident, $paper:literal, $tag:literal, $extra:ident, $build:ident) => {
        impl $alg {
            #[doc = concat!("Processes one stream element (", $paper, ", lines 3–8).")]
            pub fn insert(&mut self, element: &$crate::point::Element) {
                self.ladder.insert(element);
            }

            /// Processes a batch of stream elements in order — the
            /// [`ShardAlgorithm::insert_batch`](crate::streaming::sharded::ShardAlgorithm::insert_batch)
            /// loop, kept inherent so callers need not name the trait.
            pub fn insert_batch(&mut self, batch: &[$crate::point::Element]) {
                $crate::streaming::sharded::ShardAlgorithm::insert_batch(self, batch);
            }

            /// Number of elements seen so far.
            pub fn processed(&self) -> usize {
                self.ladder.arena().processed()
            }

            /// Distinct retained element count — the paper's space metric.
            pub fn stored_elements(&self) -> usize {
                self.ladder.arena().stored_elements()
            }

            /// The shared arena of retained elements.
            pub fn store(&self) -> &$crate::point::PointStore {
                self.ladder.store()
            }

            /// The configuration this instance was built with.
            pub fn config(&self) -> $crate::streaming::ladder::FairStreamConfig {
                self.ladder.config().clone()
            }

            #[doc = concat!("[`", stringify!($alg), "::finalize`], adding what the per-guess memo did to `tally`.")]
            pub fn finalize_tallied(
                &self,
                tally: &mut $crate::streaming::memo::GuessTally,
            ) -> $crate::error::Result<$crate::solution::Solution> {
                $crate::streaming::memo::finalize_owned(self, tally)
            }

            /// The merge pass's post-processing: this instance was just fed
            /// shard unions and is dropped afterwards, so the memo is
            /// `memo`, carried from the previous merge, and keeps this
            /// instance's arena.
            pub fn finalize_merge(
                self,
                memo: &mut $crate::streaming::memo::FinalizeMemo,
                tally: &mut $crate::streaming::memo::GuessTally,
            ) -> $crate::error::Result<$crate::solution::Solution> {
                $crate::streaming::memo::finalize_carried(self, memo, tally)
            }
        }

        /// # Persistence
        ///
        #[doc = concat!(
            "The stream phase's state tree ([`crate::streaming::ladder`]) with `",
            stringify!($extra),
            "` after `config`."
        )]
        impl $crate::persist::Snapshottable for $alg {
            fn algorithm_tag() -> String {
                $tag.to_string()
            }

            fn snapshot_params(&self) -> $crate::persist::SnapshotParams {
                self.ladder.snapshot_params(Self::algorithm_tag())
            }

            fn snapshot_state(&self) -> serde::Value {
                let extra = serde::Serialize::to_value(&self.$extra);
                self.ladder.state((stringify!($extra), extra))
            }

            fn capture_cursor(&self) -> serde::Value {
                self.ladder.capture_cursor()
            }

            fn state_patch_since(
                &self,
                cursor: &serde::Value,
            ) -> Option<$crate::persist::StatePatch> {
                self.ladder.state_patch_since(cursor)
            }

            fn restore_state(state: &serde::Value) -> $crate::error::Result<Self> {
                $crate::streaming::ladder::restore(
                    state,
                    stringify!($extra),
                    Self::$build,
                    |alg| &mut alg.ladder,
                )
            }
        }
    };
}
pub(crate) use fair_stream;

/// Rebuilds a fair algorithm from its state tree: `build` makes a fresh
/// instance from `config` and the algorithm's `extra` key, and `ladder`
/// reaches its stream phase, which is then filled from the tree.
pub(crate) fn restore<A, X: Deserialize>(
    state: &Value,
    extra: &str,
    build: impl FnOnce(FairStreamConfig, X) -> Result<A>,
    ladder: impl FnOnce(&mut A) -> &mut FairLadder,
) -> Result<A> {
    let config = persist::field(state, "config")?;
    let mut alg = build(config, persist::field(state, extra)?)?;
    let fair = ladder(&mut alg);
    let lanes: [(&str, &mut dyn Lanes); 2] =
        [("blind", &mut fair.blind), ("specific", &mut fair.specific)];
    let arena = Arena::restore(state, &mut { lanes })?;
    fair.arena = arena;
    Ok(alg)
}

/// A lane set's part of the state tree: one ladder of candidates, or one
/// ladder per group.
pub(crate) trait Lanes {
    /// The persisted form.
    fn state(&self) -> Value;

    /// The member count per lane (members are append-only, so a count is
    /// a complete high-water mark).
    fn cursor(&self) -> Value;

    /// The member ids appended to each lane since `cursor`.
    fn patch_since(&self, cursor: &Value) -> Option<StatePatch>;

    /// Fills these freshly built lanes from `state[key]`, checking them
    /// against the configuration and the restored arena `store`.
    fn restore(&mut self, state: &Value, key: &str, store: &PointStore) -> Result<()>;
}

impl Lanes for Vec<Candidate> {
    /// `mu_crc`, then `members` (see [`LadderLanes`]).
    fn state(&self) -> Value {
        let members: Vec<Vec<u32>> = self
            .iter()
            .map(|c| c.members().iter().map(|id| id.0).collect())
            .collect();
        let mut map = serde::Map::new();
        map.insert("mu_crc".to_string(), mu_digest(self).to_value());
        map.insert("members".to_string(), members.to_value());
        Value::Object(map)
    }

    fn cursor(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|c| Value::Number(c.members().len() as f64))
                .collect(),
        )
    }

    /// The `mu_crc` digest is a pure function of the configuration, so it
    /// is never mentioned (= keep).
    fn patch_since(&self, cursor: &Value) -> Option<StatePatch> {
        let counts = cursor.as_array()?;
        if counts.len() != self.len() {
            return None;
        }
        let mut lanes = Vec::with_capacity(self.len());
        for (candidate, old) in self.iter().zip(counts) {
            let old = old.as_u64()? as usize;
            let members = candidate.members();
            if old > members.len() {
                return None;
            }
            lanes.push(if old == members.len() {
                StatePatch::Keep
            } else {
                StatePatch::Append(
                    members[old..]
                        .iter()
                        .map(|id| Value::Number(f64::from(id.0)))
                        .collect(),
                )
            });
        }
        Some(StatePatch::Object(vec![(
            "members".to_string(),
            StatePatch::Elements(lanes),
        )]))
    }

    /// Checks the lane count, the thresholds (bit-exact), the capacities
    /// and the member ids against the arena.
    fn restore(&mut self, state: &Value, key: &str, store: &PointStore) -> Result<()> {
        let lanes: LadderLanes = persist::field(state, key)?;
        restore_ladder(self, &lanes, store.len(), key)
    }
}

impl Lanes for Vec<Vec<Candidate>> {
    fn state(&self) -> Value {
        Value::Array(self.iter().map(Lanes::state).collect())
    }

    fn cursor(&self) -> Value {
        Value::Array(self.iter().map(Lanes::cursor).collect())
    }

    fn patch_since(&self, cursor: &Value) -> Option<StatePatch> {
        let cursors = cursor.as_array()?;
        if cursors.len() != self.len() {
            return None;
        }
        let lanes = self
            .iter()
            .zip(cursors)
            .map(|(lanes, c)| lanes.patch_since(c))
            .collect::<Option<Vec<_>>>()?;
        Some(StatePatch::Elements(lanes))
    }

    /// Also checks the arena's group labels against the group count.
    fn restore(&mut self, state: &Value, key: &str, store: &PointStore) -> Result<()> {
        let m = self.len();
        if let Some(&bad) = store.groups_raw().iter().find(|&&g| g as usize >= m) {
            return Err(FdmError::CorruptSnapshot {
                detail: format!("group label {bad} out of range for {m} groups"),
            });
        }
        let ladders: Vec<LadderLanes> = persist::field(state, key)?;
        if ladders.len() != m {
            return Err(FdmError::CorruptSnapshot {
                detail: format!("expected {m} group ladders, found {}", ladders.len()),
            });
        }
        for (g, (lanes, stored)) in self.iter_mut().zip(&ladders).enumerate() {
            restore_ladder(lanes, stored, store.len(), &format!("group {g}"))?;
        }
        Ok(())
    }
}

/// One candidate ladder's persisted form: a digest of the guesses and, per
/// guess, the member ids into the shared arena.
///
/// Compatibility contract: the v1 reader stays forever (every document
/// ever written keeps restoring — pinned by the legacy golden fixture);
/// nothing writes v1. The state schema may still grow additively, as
/// this digest did. Consequence: rolling back to a build older than a
/// schema extension may require capturing a fresh snapshot with the old
/// build rather than reading the new file.
///
/// The guess thresholds are redundant with the configuration (the ladder
/// is rebuilt from `bounds`/`epsilon` on restore) and serve purely as an
/// integrity check, so they persist as a CRC32 over the `µ` bit patterns
/// (`mu_crc`) rather than a full-precision float list — a state tree
/// whose digest disagrees with the ladder its own configuration implies
/// is rejected, at 4 bytes per ladder instead of 8 per lane. Documents
/// written before the digest existed carry a `mus` array instead; those
/// restore through the original bit-exact per-lane comparison.
struct LadderLanes {
    /// CRC32 over the lane thresholds' `f64` bit patterns.
    mu_crc: Option<u32>,
    /// Legacy form: guess value `µ` per lane (still readable).
    mus: Option<Vec<f64>>,
    /// Member ids per lane (indices into the snapshot's arena).
    members: Vec<Vec<u32>>,
}

/// CRC32 digest of a ladder's thresholds (bit patterns, in lane order).
fn mu_digest(candidates: &[Candidate]) -> u32 {
    let mut bytes = Vec::new();
    for c in candidates {
        bytes.extend_from_slice(&c.mu().to_bits().to_le_bytes());
    }
    codec::crc32(&bytes)
}

impl Deserialize for LadderLanes {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::DeError> {
        let members = value
            .get("members")
            .ok_or_else(|| serde::DeError::custom("missing field `members`"))
            .and_then(<Vec<Vec<u32>> as Deserialize>::from_value)?;
        let mu_crc = match value.get("mu_crc") {
            Some(v) => Some(<u32 as Deserialize>::from_value(v)?),
            None => None,
        };
        let mus = match value.get("mus") {
            Some(v) => Some(<Vec<f64> as Deserialize>::from_value(v)?),
            None => None,
        };
        if mu_crc.is_none() && mus.is_none() {
            return Err(serde::DeError::custom(
                "ladder lanes need either `mu_crc` or the legacy `mus`",
            ));
        }
        Ok(LadderLanes {
            mu_crc,
            mus,
            members,
        })
    }
}

/// Fills freshly built ladder candidates from their persisted form,
/// validating lane count, thresholds (bit-exact), capacities, and member
/// ids against the restored arena.
fn restore_ladder(
    candidates: &mut [Candidate],
    lanes: &LadderLanes,
    store_len: usize,
    what: &str,
) -> Result<()> {
    let mu_lanes = lanes.mus.as_ref().map_or(lanes.members.len(), Vec::len);
    if mu_lanes != candidates.len() || lanes.members.len() != candidates.len() {
        return Err(FdmError::IncompatibleSnapshot {
            detail: format!(
                "{what}: snapshot has {} lanes, configuration implies {}",
                mu_lanes.max(lanes.members.len()),
                candidates.len()
            ),
        });
    }
    if let Some(stored) = lanes.mu_crc {
        let implied = mu_digest(candidates);
        if stored != implied {
            return Err(FdmError::IncompatibleSnapshot {
                detail: format!(
                    "{what}: snapshot ladder digest {stored:#010x} disagrees with the \
                     digest {implied:#010x} implied by the configuration"
                ),
            });
        }
    }
    for (lane, (candidate, members)) in candidates.iter_mut().zip(&lanes.members).enumerate() {
        if let Some(mus) = &lanes.mus {
            let mu = mus[lane];
            if mu.to_bits() != candidate.mu().to_bits() {
                return Err(FdmError::IncompatibleSnapshot {
                    detail: format!(
                        "{what} lane {lane}: snapshot guess µ = {mu} disagrees with \
                         the ladder value {} implied by the configuration",
                        candidate.mu()
                    ),
                });
            }
        }
        if members.len() > candidate.capacity() {
            return Err(FdmError::CorruptSnapshot {
                detail: format!(
                    "{what} lane {lane}: {} members exceed capacity {}",
                    members.len(),
                    candidate.capacity()
                ),
            });
        }
        if let Some(&bad) = members.iter().find(|&&id| (id as usize) >= store_len) {
            return Err(FdmError::CorruptSnapshot {
                detail: format!(
                    "{what} lane {lane}: member id {bad} is outside the stored \
                     arena of {store_len} points"
                ),
            });
        }
        candidate.restore_members(members.iter().map(|&id| PointId(id)).collect());
    }
    Ok(())
}

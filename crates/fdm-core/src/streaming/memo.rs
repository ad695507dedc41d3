//! Per-guess post-processing memo.
//!
//! SFDM1's balancing (Algorithm 2, lines 9–18) and SFDM2's clustering plus
//! matroid intersection (Algorithm 3, lines 9–19) run one pipeline per
//! guess `µ_j ∈ U'`, and each pipeline reads only guess `j`'s candidates.
//! Between two queries of a live stream almost no candidate changes, so a
//! [`FinalizeMemo`] keeps, per guess, the inputs it last saw and the result
//! they gave — `(diversity, positions in S_all)` — and a `finalize` pass
//! reruns only the guesses whose inputs differ. Misses fan out on the pool
//! as before and the serial first-maximum reduction runs in ladder order
//! over hits and misses alike, so a memoized pass answers bit-identically
//! to a fresh one (pinned by `tests/finalize_memo.rs`).
//!
//! A result is reused only when guess `j`'s inputs are exactly the ones it
//! was computed from. Two kinds of memo decide that differently:
//!
//! * **Owned** — each [`Sfdm1`](crate::streaming::sfdm1::Sfdm1) and
//!   [`Sfdm2`](crate::streaming::sfdm2::Sfdm2) instance holds one in a
//!   [`MemoCell`] beside its candidates ([`crate::streaming::ladder`]).
//!   Within one instance candidate member lists only grow, so the lists'
//!   lengths identify them.
//! * **Carried** — a merge pass streams the shards' unions through a fresh
//!   instance on every query ([`ShardedStream`], the coordinator's
//!   [`merge_unions`](crate::streaming::summary::merge_unions)), so the
//!   memo outlives the instances it serves. It keeps the last instance's
//!   arena and member ids, and a pass maps the new arena onto the old one
//!   one-to-one: a row maps to an unused old row with the same external id
//!   (the lookup key — balancing's identity and the answer's ids) and the
//!   same group and coordinate bits, compared in full. Two equal rows are
//!   still two elements (S_all dedupes by arena id), so they map to two
//!   distinct old rows or not at all; no hash is taken as proof of
//!   equality. Under the map, equal member lists are the same inputs.
//!
//! Positions in S_all do not depend on the instance, so a result computed
//! by one instance is reused by the next through its own S_all.
//!
//! [`ShardedStream`]: crate::streaming::sharded::ShardedStream

use std::collections::HashSet;
use std::sync::{Mutex, TryLockError};

use crate::error::{FdmError, Result};
use crate::par::maybe_par_map;
use crate::point::{PointId, PointStore};
use crate::solution::Solution;
use crate::streaming::ladder::FairLadder;

/// What the per-guess post-processing of `finalize` passes did, counted
/// over the guesses in `U'` (those whose pipeline would run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuessTally {
    /// Guesses answered from the memo.
    pub reused: u64,
    /// Guesses whose pipeline ran.
    pub computed: u64,
}

/// One guess's memoized inputs and result.
#[derive(Debug, Clone)]
struct Entry {
    /// `µ_j`'s bits.
    mu: u64,
    /// Lengths of the guess's candidate lists, in S_all order.
    lens: Vec<usize>,
    /// The lists' members, concatenated, as ids of the carried arena
    /// (empty in an owned memo, where lengths suffice).
    members: Vec<PointId>,
    /// `(diversity, positions in S_all)`, or `None` when the pipeline
    /// found no size-`k` result.
    result: Option<(f64, Vec<usize>)>,
}

impl Entry {
    /// Whether guess `mu` with `lists` has exactly this entry's inputs.
    /// `map` is the carried memo's arena map (`None` for an owned memo).
    fn matches(&self, mu: f64, lists: &[&[PointId]], map: Option<&[Option<PointId>]>) -> bool {
        if self.mu != mu.to_bits()
            || self.lens.len() != lists.len()
            || self
                .lens
                .iter()
                .zip(lists)
                .any(|(&len, list)| len != list.len())
        {
            return false;
        }
        match map {
            // Lists only grow within one instance.
            None => true,
            Some(map) => lists
                .iter()
                .flat_map(|list| list.iter())
                .zip(&self.members)
                .all(|(id, &old)| map[id.index()] == Some(old)),
        }
    }
}

/// The per-guess post-processing memo. See the module docs. An empty
/// (default) memo's first pass computes every guess.
#[derive(Debug, Default)]
pub struct FinalizeMemo {
    /// One slot per guess of the ladder.
    entries: Vec<Option<Entry>>,
    /// A carried memo's arena: the instance its member ids refer to.
    arena: Option<PointStore>,
}

/// An instance's own memo. `finalize` takes `&self` (under a host's read
/// lock), so the memo sits behind a mutex; a concurrent `finalize` that
/// finds it busy computes without it. A clone starts empty.
#[derive(Debug, Default)]
pub struct MemoCell(Mutex<FinalizeMemo>);

impl Clone for MemoCell {
    fn clone(&self) -> MemoCell {
        MemoCell::default()
    }
}

impl MemoCell {
    /// Runs `pass` on the memo, or on an empty one when another pass holds
    /// it. A memo a panicking pass left behind is dropped.
    pub(crate) fn with<T>(&self, pass: impl FnOnce(&mut FinalizeMemo) -> T) -> T {
        match self.0.try_lock() {
            Ok(mut memo) => pass(&mut memo),
            Err(TryLockError::Poisoned(poisoned)) => {
                let mut memo = poisoned.into_inner();
                *memo = FinalizeMemo::default();
                pass(&mut memo)
            }
            Err(TryLockError::WouldBlock) => pass(&mut FinalizeMemo::default()),
        }
    }
}

/// One algorithm's per-guess post-processing, as the memo drives it: the
/// stream phase it reads, and its pipeline.
pub(crate) trait GuessPipeline: Sync + Sized {
    /// The stream phase whose candidates the pipeline reads.
    fn ladder(&self) -> &FairLadder;

    /// The stream phase, by value (a carried memo keeps its arena).
    fn into_ladder(self) -> FairLadder;

    /// Guess `j`'s pipeline over its S_all (see [`s_all`]): the result's
    /// diversity and its elements as positions in `sall`, or `None`.
    fn compute(&self, j: usize, sall: &[PointId]) -> Option<(f64, Vec<usize>)>;
}

/// S_all of one guess: the union of its candidate lists in list order,
/// each id once. Elements are interned once per stream arrival, so
/// deduplication by arena id is deduplication by stream element.
fn s_all(lists: &[&[PointId]]) -> Vec<PointId> {
    let mut seen: HashSet<PointId> = HashSet::new();
    lists
        .iter()
        .flat_map(|list| list.iter())
        .copied()
        .filter(|&id| seen.insert(id))
        .collect()
}

/// `finalize` through the instance's own memo (or, when another pass holds
/// it, through none), adding the pass's counts to `tally`.
pub(crate) fn finalize_owned<P: GuessPipeline>(p: &P, tally: &mut GuessTally) -> Result<Solution> {
    let best = p
        .ladder()
        .memo()
        .with(|memo| run(p, memo, MemoKind::Owned, tally));
    solution(p.ladder(), best)
}

/// `finalize` of a merge instance through a memo carried from the previous
/// merge; the memo then keeps this instance's arena for the next one.
pub(crate) fn finalize_carried<P: GuessPipeline>(
    p: P,
    memo: &mut FinalizeMemo,
    tally: &mut GuessTally,
) -> Result<Solution> {
    let best = run(&p, memo, MemoKind::Carried, tally);
    let ladder = p.into_ladder();
    let solution = solution(&ladder, best);
    memo.arena = Some(ladder.into_store());
    solution
}

fn solution(ladder: &FairLadder, best: Option<Vec<PointId>>) -> Result<Solution> {
    match best {
        Some(ids) => Ok(Solution::from_ids(
            ladder.store(),
            &ids,
            ladder.config().metric,
        )),
        None => Err(FdmError::NoFeasibleCandidate),
    }
}

/// How a pass decides that a guess's inputs are unchanged (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoKind {
    Owned,
    Carried,
}

/// One post-processing pass through `memo`: reuses every guess whose
/// inputs are unchanged, runs the others' pipelines on the pool, adds the
/// counts to `tally`, and returns the most diverse result (first maximum
/// in ladder order) as ids of `p`'s arena. A carried pass also
/// re-expresses the memo in `p`'s ids.
fn run<P: GuessPipeline>(
    p: &P,
    memo: &mut FinalizeMemo,
    kind: MemoKind,
    tally: &mut GuessTally,
) -> Option<Vec<PointId>> {
    let ladder = p.ladder();
    let n = ladder.guesses();
    if memo.entries.len() != n {
        memo.entries = vec![None; n];
    }
    let map = match (kind, memo.arena.as_ref()) {
        (MemoKind::Owned, _) => None,
        (MemoKind::Carried, Some(old)) => Some(arena_map(ladder.store(), old)),
        (MemoKind::Carried, None) => Some(vec![None; ladder.store().len()]),
    };
    let mut misses = Vec::new();
    for j in 0..n {
        if !ladder.in_u_prime(j) {
            memo.entries[j] = None;
            continue;
        }
        let lists = ladder.lists(j);
        let hit = memo.entries[j]
            .as_ref()
            .is_some_and(|e| e.matches(ladder.mu(j), &lists, map.as_deref()));
        if hit {
            tally.reused += 1;
            if kind == MemoKind::Carried {
                // Equal under the map: the same lists in this arena's ids.
                let entry = memo.entries[j].as_mut().expect("hit");
                entry.members.clear();
                entry.members.extend(lists.iter().flat_map(|l| l.iter()));
            }
        } else {
            tally.computed += 1;
            misses.push(j);
        }
    }
    let computed = maybe_par_map(misses.len(), |i| {
        let j = misses[i];
        p.compute(j, &s_all(&ladder.lists(j)))
    });
    for (&j, result) in misses.iter().zip(computed) {
        let lists = ladder.lists(j);
        memo.entries[j] = Some(Entry {
            mu: ladder.mu(j).to_bits(),
            lens: lists.iter().map(|l| l.len()).collect(),
            members: match kind {
                MemoKind::Owned => Vec::new(),
                MemoKind::Carried => lists.iter().flat_map(|l| l.iter()).copied().collect(),
            },
            result,
        });
    }
    // Serial reduction: the first maximum in ladder order, however the
    // misses were scheduled and whichever guesses were reused.
    let mut best: Option<(f64, usize)> = None;
    for (j, entry) in memo.entries.iter().enumerate() {
        if let Some((div, _)) = entry.as_ref().and_then(|e| e.result.as_ref()) {
            if best.is_none_or(|(b, _)| *div > b) {
                best = Some((*div, j));
            }
        }
    }
    best.map(|(_, j)| {
        let sall = s_all(&ladder.lists(j));
        let (_, positions) = memo.entries[j]
            .as_ref()
            .and_then(|e| e.result.as_ref())
            .expect("the winner has a result");
        positions.iter().map(|&pos| sall[pos]).collect()
    })
}

/// A one-to-one map from `new`'s arena ids to `old`'s: each row goes to
/// the first unused old row with the same external id, group and
/// coordinate bits, or to `None`.
fn arena_map(new: &PointStore, old: &PointStore) -> Vec<Option<PointId>> {
    if new.dim() != old.dim() {
        return vec![None; new.len()];
    }
    let mut by_external: Vec<(usize, PointId)> =
        old.ids().map(|id| (old.external_id(id), id)).collect();
    by_external.sort_unstable();
    let mut used = vec![false; old.len()];
    new.ids()
        .map(|id| {
            let external = new.external_id(id);
            let start = by_external.partition_point(|&(e, _)| e < external);
            let found = by_external[start..]
                .iter()
                .take_while(|&&(e, _)| e == external)
                .map(|&(_, o)| o)
                .find(|&o| {
                    !used[o.index()]
                        && old.group(o) == new.group(id)
                        && old
                            .row(o)
                            .iter()
                            .zip(new.row(id))
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                })?;
            used[found.index()] = true;
            Some(found)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(rows: &[(usize, f64, usize)]) -> PointStore {
        let mut store = PointStore::new(1);
        for &(id, x, g) in rows {
            store.push(id, &[x], g);
        }
        store
    }

    #[test]
    fn arena_map_is_one_to_one_and_compares_every_bit() {
        let old = store(&[(7, 1.0, 0), (3, 2.0, 1), (7, 1.0, 0), (9, 0.0, 0)]);
        let new = store(&[
            (7, 1.0, 0),  // → old 0
            (7, 1.0, 0),  // → old 2: the second copy is a second element
            (7, 1.0, 0),  // no third copy in old
            (3, 2.0, 0),  // group differs
            (9, -0.0, 0), // -0.0 == 0.0, but not bit-equal
            (3, 2.0, 1),  // → old 1
        ]);
        assert_eq!(
            arena_map(&new, &old),
            vec![
                Some(PointId(0)),
                Some(PointId(2)),
                None,
                None,
                None,
                Some(PointId(1))
            ]
        );
    }

    #[test]
    fn s_all_keeps_first_occurrences_in_list_order() {
        let ids = |v: &[u32]| v.iter().map(|&i| PointId(i)).collect::<Vec<_>>();
        let (a, b, c) = (ids(&[4, 1]), ids(&[1, 2]), ids(&[2, 4, 0]));
        assert_eq!(s_all(&[&a, &b, &c]), ids(&[4, 1, 2, 0]));
    }

    #[test]
    fn busy_cell_computes_without_the_memo() {
        let cell = MemoCell::default();
        cell.with(|memo| memo.entries = vec![None; 3]);
        let inner = cell.with(|held| {
            assert_eq!(held.entries.len(), 3);
            cell.with(|other| other.entries.len())
        });
        assert_eq!(inner, 0, "a busy memo is not shared");
        assert_eq!(cell.clone().with(|memo| memo.entries.len()), 0);
    }
}

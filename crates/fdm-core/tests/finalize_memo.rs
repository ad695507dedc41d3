//! The per-guess post-processing memo answers exactly what a fresh
//! `finalize` answers.
//!
//! A memoized `finalize` reruns only the guesses whose candidates changed
//! since the last call; everything else comes from the memo. These
//! properties query live summaries at random points of random streams and
//! compare each answer — ids and `diversity.to_bits()` — against a fresh
//! summary fed the same prefix, whose first `finalize` computes every
//! guess. Covered: SFDM1, SFDM2 and the sliding window, unsharded and as
//! `ShardedStream`s of K ∈ {2, 3} (whose merge pass carries a memo across
//! rebuilt merge instances), `merge_unions` with a memo carried across
//! queries, restore-then-query, and streams that repeat an element (same
//! id and coordinates) so that copies land on different shards.
//!
//! CI also runs this suite under `taskset -c 0`, where every fan-out runs
//! inline.

use fdm_core::dataset::DistanceBounds;
use fdm_core::metric::Metric;
use fdm_core::point::Element;
use fdm_core::solution::Solution;
use fdm_core::streaming::memo::GuessTally;
use fdm_core::streaming::summary::{self, DynSummary, MergeMemo, SummarySpec};
use fdm_core::Result;
use proptest::prelude::*;

fn spec(algorithm: &str, m: usize, quota: usize, shards: usize) -> SummarySpec {
    SummarySpec {
        algorithm: algorithm.to_string(),
        epsilon: 0.1,
        bounds: DistanceBounds::new(0.05, 20.0).unwrap(),
        metric: Metric::Euclidean,
        quotas: vec![quota; m],
        k: quota * m,
        shards,
        window: if algorithm == "sliding" { 48 } else { 0 },
    }
}

/// Streams of 30–140 arrivals in `m` groups. Arrival `i` is either new —
/// id `i`, a random point and group — or, with `repeat` in 4, a copy of
/// an earlier arrival (same id, coordinates and group).
fn arrivals(m: usize) -> impl Strategy<Value = Vec<Element>> {
    proptest::collection::vec(
        (0.0f64..10.0, 0.0f64..10.0, 0usize..64, 0usize..4),
        30..=140,
    )
    .prop_map(move |raw| {
        let mut out: Vec<Element> = Vec::with_capacity(raw.len());
        for (i, &(x, y, pick, repeat)) in raw.iter().enumerate() {
            let element = if repeat == 0 && i > 0 {
                out[pick % i].clone()
            } else {
                Element::new(i, vec![x, y], pick % m)
            };
            out.push(element);
        }
        out
    })
}

/// Sorted query points in `1..=n`, always including the end of the stream.
fn query_points(n: usize, picks: &[usize]) -> Vec<usize> {
    let mut points: Vec<usize> = picks.iter().map(|p| 1 + p % n).collect();
    points.push(n);
    points.sort_unstable();
    points.dedup();
    points
}

fn fresh_answer(spec: &SummarySpec, prefix: &[Element]) -> Result<Solution> {
    let mut fresh = summary::build(spec).unwrap();
    fresh.insert_batch(prefix);
    fresh.finalize()
}

fn same(memoized: &Result<Solution>, fresh: &Result<Solution>) -> bool {
    match (memoized, fresh) {
        (Ok(a), Ok(b)) => a.ids() == b.ids() && a.diversity.to_bits() == b.diversity.to_bits(),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Feeds `stream` to one live summary, queries it at `points` (restoring
/// it from its own snapshot first at the `restore_at`-th query, if any)
/// and checks every answer against a fresh summary of the same prefix.
fn check_live(
    spec: &SummarySpec,
    stream: &[Element],
    points: &[usize],
    restore_at: Option<usize>,
) -> std::result::Result<(), TestCaseError> {
    let mut live: Box<dyn DynSummary> = summary::build(spec).unwrap();
    let mut fed = 0;
    for (q, &point) in points.iter().enumerate() {
        live.insert_batch(&stream[fed..point]);
        fed = point;
        if restore_at == Some(q) {
            live = summary::restore(&live.snapshot()).unwrap();
        }
        let memoized = live.finalize();
        let fresh = fresh_answer(spec, &stream[..point]);
        prop_assert!(
            same(&memoized, &fresh),
            "{} shards={} query {q} at {point}: memoized {memoized:?} vs fresh {fresh:?}",
            spec.algorithm,
            spec.shards
        );
        // An unchanged summary reruns nothing.
        let mut again = GuessTally::default();
        let repeat = live.finalize_tallied(&mut again);
        prop_assert!(same(&repeat, &fresh));
        prop_assert_eq!(again.computed, 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sfdm1_memo_matches_fresh(
        stream in arrivals(2),
        quota in 1usize..=3,
        shards in 1usize..=3,
        picks in proptest::collection::vec(0usize..1000, 1..6),
        restore in 0usize..8,
    ) {
        let points = query_points(stream.len(), &picks);
        check_live(&spec("sfdm1", 2, quota, shards), &stream, &points, Some(restore))?;
    }

    #[test]
    fn sfdm2_memo_matches_fresh(
        m in 2usize..=4,
        quota in 1usize..=2,
        shards in 1usize..=3,
        seed_stream in arrivals(12),
        picks in proptest::collection::vec(0usize..1000, 1..6),
        restore in 0usize..8,
    ) {
        let stream: Vec<Element> = seed_stream
            .into_iter()
            .map(|e| Element { group: e.group % m, ..e })
            .collect();
        let points = query_points(stream.len(), &picks);
        check_live(&spec("sfdm2", m, quota, shards), &stream, &points, Some(restore))?;
    }

    #[test]
    fn sliding_memo_matches_fresh(
        stream in arrivals(2),
        quota in 1usize..=2,
        shards in 1usize..=3,
        picks in proptest::collection::vec(0usize..1000, 1..6),
        restore in 0usize..8,
    ) {
        let points = query_points(stream.len(), &picks);
        check_live(&spec("sliding", 2, quota, shards), &stream, &points, Some(restore))?;
    }

    #[test]
    fn merge_unions_with_a_carried_memo_matches_fresh(
        algorithm in 0usize..3,
        parts_n in 1usize..=4,
        fan_in in 2usize..=8,
        stream in arrivals(2),
        picks in proptest::collection::vec(0usize..1000, 1..6),
    ) {
        let tag = ["sfdm1", "sfdm2", "sliding"][algorithm];
        let part_spec = spec(tag, 2, 2, 1);
        let mut parts: Vec<Box<dyn DynSummary>> =
            (0..parts_n).map(|_| summary::build(&part_spec).unwrap()).collect();
        let mut memo = MergeMemo::default();
        let mut tally = GuessTally::default();
        let mut fed = 0;
        for point in query_points(stream.len(), &picks) {
            for (i, e) in stream.iter().enumerate().take(point).skip(fed) {
                parts[i % parts_n].insert(e);
            }
            fed = point;
            // The parts in order, then reversed: the reversed merge holds
            // the same elements in another arena order, so only a guess
            // whose lists map member by member onto the memo's may reuse.
            for reversed in [false, true] {
                let unions = || {
                    let mut unions: Vec<Vec<Element>> =
                        parts.iter().map(|p| p.retained_elements()).collect();
                    if reversed {
                        unions.reverse();
                    }
                    unions
                };
                let carried =
                    summary::merge_unions(&part_spec, unions(), fan_in, &mut memo, &mut tally);
                let fresh = summary::merge_unions(
                    &part_spec,
                    unions(),
                    fan_in,
                    &mut MergeMemo::default(),
                    &mut GuessTally::default(),
                );
                prop_assert!(
                    same(&carried, &fresh),
                    "{tag} x{parts_n} fan_in={fan_in} reversed={reversed} at {point}: \
                     {carried:?} vs {fresh:?}"
                );
                // The same unions again: every guess is reused.
                let mut again = GuessTally::default();
                let repeat =
                    summary::merge_unions(&part_spec, unions(), fan_in, &mut memo, &mut again);
                prop_assert!(same(&repeat, &fresh));
                prop_assert_eq!(again.computed, 0);
            }
        }
    }
}

/// A merge memo is bound to its spec: the same unions merged under another
/// metric recompute every guess instead of reusing the Euclidean results.
#[test]
fn merge_memo_starts_afresh_under_another_spec() {
    let stream: Vec<Element> = (0..120)
        .map(|i| {
            let (x, y) = (
                (i as f64 * 0.7391).sin() * 9.0,
                (i as f64 * 0.2113).cos() * 9.0,
            );
            Element::new(i, vec![x, y], i % 2)
        })
        .collect();
    let euclidean = spec("sfdm2", 2, 2, 1);
    let manhattan = SummarySpec {
        metric: Metric::Manhattan,
        ..euclidean.clone()
    };
    let mut memo = MergeMemo::default();
    for part_spec in [&euclidean, &manhattan] {
        let mut parts: Vec<Box<dyn DynSummary>> =
            (0..2).map(|_| summary::build(part_spec).unwrap()).collect();
        for (i, e) in stream.iter().enumerate() {
            parts[i % 2].insert(e);
        }
        let unions = || parts.iter().map(|p| p.retained_elements()).collect();
        let mut tally = GuessTally::default();
        let carried = summary::merge_unions(part_spec, unions(), 8, &mut memo, &mut tally);
        let fresh = summary::merge_unions(
            part_spec,
            unions(),
            8,
            &mut MergeMemo::default(),
            &mut GuessTally::default(),
        );
        assert!(same(&carried, &fresh), "{:?}", part_spec.metric);
        assert_eq!(tally.reused, 0, "{:?}", part_spec.metric);
        assert!(tally.computed > 0, "{:?}", part_spec.metric);
    }
}

/// The first `finalize` of an instance computes every guess in U′; the
/// next one after a few arrivals computes only what they changed.
#[test]
fn first_finalize_is_cold_and_later_ones_reuse() {
    let mut live = summary::build(&spec("sfdm2", 2, 3, 1)).unwrap();
    for i in 0..400 {
        let (x, y) = (
            (i as f64 * 0.7391).sin() * 9.0,
            (i as f64 * 0.2113).cos() * 9.0,
        );
        live.insert(&Element::new(i, vec![x, y], i % 2));
    }
    let mut cold = GuessTally::default();
    live.finalize_tallied(&mut cold).unwrap();
    assert_eq!(cold.reused, 0);
    assert!(cold.computed > 5, "{cold:?}");
    live.insert(&Element::new(400, vec![9.5, -9.5], 0));
    let mut warm = GuessTally::default();
    live.finalize_tallied(&mut warm).unwrap();
    // The arrival can only add guesses to U′.
    assert!(
        warm.reused + warm.computed >= cold.computed,
        "{cold:?} {warm:?}"
    );
    assert!(warm.reused > warm.computed, "{warm:?}");
}

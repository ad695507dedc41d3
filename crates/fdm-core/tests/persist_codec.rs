//! Format-v2 persistence properties: for every summary type,
//! `encode → decode → continue suffix` is bit-identical to the
//! uncheckpointed run, and restoring a `full + k·delta` chain is
//! bit-identical to restoring the equivalent full snapshot. (The
//! `*_both_formats` cases keep their names from when v1 JSON was also
//! written; the frozen v1 reader is pinned by `persist_golden.rs`.)

use fdm_core::dataset::DistanceBounds;
use fdm_core::fairness::FairnessConstraint;
use fdm_core::metric::Metric;
use fdm_core::persist::delta::state_crc;
use fdm_core::persist::{CaptureMark, Snapshot, SnapshotDelta, SnapshotFormat, Snapshottable};
use fdm_core::point::Element;
use fdm_core::streaming::sfdm1::{Sfdm1, Sfdm1Config};
use fdm_core::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use fdm_core::streaming::sharded::ShardedStream;
use fdm_core::streaming::sliding::{SlidingWindowConfig, SlidingWindowFdm};
use fdm_core::streaming::unconstrained::{StreamingDiversityMaximization, StreamingDmConfig};
use proptest::prelude::*;
use rand::prelude::*;

fn random_elements(n: usize, m: usize, dim: usize, seed: u64) -> Vec<Element> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let point: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 10.0).collect();
            let group = if i < m { i } else { rng.random_range(0..m) };
            Element::new(i, point, group)
        })
        .collect()
}

fn bounds() -> DistanceBounds {
    DistanceBounds::new(0.05, 20.0).unwrap()
}

fn sfdm1_config() -> Sfdm1Config {
    Sfdm1Config {
        constraint: FairnessConstraint::new(vec![2, 2]).unwrap(),
        epsilon: 0.1,
        bounds: bounds(),
        metric: Metric::Euclidean,
    }
}

fn sfdm2_config(m: usize) -> Sfdm2Config {
    Sfdm2Config {
        constraint: FairnessConstraint::equal_representation(2 * m, m).unwrap(),
        epsilon: 0.1,
        bounds: bounds(),
        metric: Metric::Euclidean,
    }
}

fn dm_config() -> StreamingDmConfig {
    StreamingDmConfig {
        k: 5,
        epsilon: 0.1,
        bounds: bounds(),
        metric: Metric::Euclidean,
    }
}

fn restore_like<T: Snapshottable>(_witness: &T, snap: &Snapshot) -> fdm_core::error::Result<T> {
    T::restore(snap)
}

fn assert_same_outcome<T: Snapshottable + Finalizable>(reference: &T, restored: &T) {
    assert_eq!(reference.processed_count(), restored.processed_count());
    match (reference.finalize_solution(), restored.finalize_solution()) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.0, b.0, "solution ids must be bit-identical");
            assert_eq!(
                a.1.to_bits(),
                b.1.to_bits(),
                "diversity must be bit-identical"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b),
        (a, b) => panic!("reference {a:?} and restored {b:?} disagree"),
    }
}

/// The minimal observable surface the assertions need, implemented for all
/// four summaries so one generic harness covers them.
trait Finalizable {
    fn feed(&mut self, element: &Element);
    fn processed_count(&self) -> usize;
    fn finalize_solution(&self) -> Result<(Vec<usize>, f64), fdm_core::FdmError>;
}

macro_rules! impl_finalizable {
    ($($ty:ty),* $(,)?) => {$(
        impl Finalizable for $ty {
            fn feed(&mut self, element: &Element) {
                self.insert(element);
            }
            fn processed_count(&self) -> usize {
                self.processed()
            }
            fn finalize_solution(&self) -> Result<(Vec<usize>, f64), fdm_core::FdmError> {
                self.finalize().map(|s| (s.ids().to_vec(), s.diversity))
            }
        }
    )*};
}

impl_finalizable!(
    StreamingDiversityMaximization,
    Sfdm1,
    Sfdm2,
    SlidingWindowFdm,
    ShardedStream<Sfdm2>,
    ShardedStream<Sfdm1>,
    ShardedStream<StreamingDiversityMaximization>,
    ShardedStream<SlidingWindowFdm>,
);

fn sliding_config(window: usize) -> SlidingWindowConfig {
    SlidingWindowConfig {
        inner: sfdm2_config(2),
        window,
    }
}

/// `prefix → snapshot → binary frame → decode → restore → suffix` must be
/// bit-identical to the uncheckpointed run.
fn roundtrip_through_bytes<T: Snapshottable + Finalizable>(
    build: impl Fn() -> T,
    elements: &[Element],
    split: usize,
) {
    let split = split.min(elements.len());
    let mut reference = build();
    for e in elements {
        reference.feed(e);
    }
    let mut prefix = build();
    for e in &elements[..split] {
        prefix.feed(e);
    }
    let snap = prefix.snapshot();
    let bytes = snap.to_bytes(SnapshotFormat::Binary);
    let parsed = Snapshot::from_bytes(&bytes).expect("snapshot bytes parse");
    assert_eq!(parsed, snap, "envelope survives the byte round trip");
    let mut restored = restore_like(&prefix, &parsed).expect("snapshot restores");
    for e in &elements[split..] {
        restored.feed(e);
    }
    assert_same_outcome(&reference, &restored);
}

/// Capture checkpoints every `stride` arrivals as `full + delta*`, chain
/// them back together, and require the chained restore (plus suffix
/// replay) to match both the full-only restore and the uncheckpointed run.
fn delta_chain_matches_full<T: Snapshottable + Finalizable>(
    build: impl Fn() -> T,
    elements: &[Element],
    stride: usize,
    checkpoints: usize,
) {
    let stride = stride.max(1);
    let chain_end = (stride * checkpoints).min(elements.len());

    let mut reference = build();
    for e in elements {
        reference.feed(e);
    }

    // One instance walks the stream, capturing a full snapshot first and a
    // delta at every subsequent checkpoint.
    let mut walker = build();
    let full = walker.snapshot();
    let mut deltas: Vec<SnapshotDelta> = Vec::new();
    let mut tail = full.clone();
    for chunk in elements[..chain_end].chunks(stride) {
        for e in chunk {
            walker.feed(e);
        }
        let next = walker.snapshot();
        let delta = SnapshotDelta::between(&tail, &next).expect("delta diffs");
        // Deltas survive their own byte round trip.
        let delta = SnapshotDelta::from_bytes(&delta.to_bytes()).expect("delta bytes parse");
        deltas.push(delta);
        tail = next;
    }

    // Chain apply: full + delta* must reproduce the walker's snapshot
    // bit-exactly...
    let mut chained = full;
    for delta in &deltas {
        chained = delta.apply_to(&chained).expect("chain link applies");
    }
    assert_eq!(
        chained, tail,
        "full + delta* must equal the full-only capture"
    );

    // ...and restoring it + replaying the suffix matches the reference.
    let mut restored = restore_like(&walker, &chained).expect("chained snapshot restores");
    for e in &elements[chain_end..] {
        restored.feed(e);
    }
    assert_same_outcome(&reference, &restored);

    // Deltas applied out of order are refused, not silently wrong.
    if deltas.len() >= 2 {
        let full_again = build().snapshot();
        let err = deltas[1].apply_to(&full_again).unwrap_err();
        assert!(
            matches!(err, fdm_core::FdmError::IncompatibleSnapshot { .. }),
            "{err}"
        );
    }
}

/// Dirty-set capture must be **byte-identical** to the full-tree diff: at
/// every checkpoint, the delta lowered from the summary's own
/// [`StatePatch`](fdm_core::persist::StatePatch) through a [`CaptureMark`]
/// equals `SnapshotDelta::between(prev, cur)` byte for byte, and the
/// advanced mark's checksum equals the new state's. A refused patch
/// (`None`) exercises the engine's fallback: full capture, fresh mark.
fn dirty_set_matches_full_diff<T: Snapshottable + Finalizable>(
    build: impl Fn() -> T,
    elements: &[Element],
    stride: usize,
    checkpoints: usize,
    expect_lowerable: bool,
) {
    let stride = stride.max(1);
    let chain_end = (stride * checkpoints).min(elements.len());
    let mut walker = build();
    let mut tail = walker.snapshot();
    let mut mark = CaptureMark::of(tail.params.clone(), &tail.state);
    let mut cursor = walker.capture_cursor();
    let mut lowered_any = false;
    for chunk in elements[..chain_end].chunks(stride) {
        for e in chunk {
            walker.feed(e);
        }
        let next = walker.snapshot();
        let oracle = SnapshotDelta::between(&tail, &next).expect("full-tree diff");
        let fast = walker
            .state_patch_since(&cursor)
            .and_then(|patch| SnapshotDelta::from_patch(&mut mark, &next.params, patch));
        match fast {
            Some(delta) => {
                lowered_any = true;
                assert_eq!(
                    delta.to_bytes(),
                    oracle.to_bytes(),
                    "dirty-set delta must be byte-identical to the full-tree diff"
                );
                assert_eq!(
                    mark.state_crc(),
                    state_crc(&next.state),
                    "advanced mark checksum must match the new state"
                );
                // The lowered delta actually applies onto the old state.
                let applied = delta.apply_to(&tail).expect("dirty-set delta applies");
                assert_eq!(applied, next);
            }
            None => {
                // The engine's fallback path: anchor a full snapshot and
                // rebuild the mark from it.
                mark = CaptureMark::of(next.params.clone(), &next.state);
            }
        }
        cursor = walker.capture_cursor();
        tail = next;
    }
    if expect_lowerable && chain_end > 0 {
        assert!(
            lowered_any,
            "an append-only summary should lower at least one checkpoint incrementally"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn unconstrained_both_formats(seed in 0u64..1000, n in 40usize..140, split_pct in 0usize..=100) {
        let elements = random_elements(n, 1, 3, seed);
        roundtrip_through_bytes(
            || StreamingDiversityMaximization::new(dm_config()).unwrap(),
            &elements,
            n * split_pct / 100,
        );
    }

    #[test]
    fn sfdm1_both_formats(seed in 0u64..1000, n in 40usize..140, split_pct in 0usize..=100) {
        let elements = random_elements(n, 2, 3, seed);
        roundtrip_through_bytes(|| Sfdm1::new(sfdm1_config()).unwrap(), &elements, n * split_pct / 100);
    }

    #[test]
    fn sfdm2_both_formats(seed in 0u64..1000, n in 40usize..140, split_pct in 0usize..=100, m in 2usize..4) {
        let elements = random_elements(n, m, 3, seed);
        roundtrip_through_bytes(|| Sfdm2::new(sfdm2_config(m)).unwrap(), &elements, n * split_pct / 100);
    }

    #[test]
    fn sliding_both_formats(seed in 0u64..1000, n in 40usize..140, split_pct in 0usize..=100, window in 8usize..64) {
        let elements = random_elements(n, 2, 3, seed);
        roundtrip_through_bytes(
            || SlidingWindowFdm::new(sfdm2_config(2), window).unwrap(),
            &elements,
            n * split_pct / 100,
        );
    }

    #[test]
    fn sharded_sliding_both_formats(seed in 0u64..1000, n in 60usize..160, split_pct in 0usize..=100, shards in 1usize..4, window in 8usize..48) {
        let elements = random_elements(n, 2, 3, seed);
        roundtrip_through_bytes(
            || ShardedStream::<SlidingWindowFdm>::new(sliding_config(window), shards).unwrap(),
            &elements,
            n * split_pct / 100,
        );
    }

    #[test]
    fn sharded_both_formats(seed in 0u64..1000, n in 60usize..160, split_pct in 0usize..=100, shards in 1usize..5) {
        let elements = random_elements(n, 2, 3, seed);
        roundtrip_through_bytes(
            || ShardedStream::<Sfdm2>::new(sfdm2_config(2), shards).unwrap(),
            &elements,
            n * split_pct / 100,
        );
    }

    #[test]
    fn unconstrained_delta_chain(seed in 0u64..1000, n in 60usize..160, stride in 5usize..40, checkpoints in 1usize..6) {
        let elements = random_elements(n, 1, 3, seed);
        delta_chain_matches_full(
            || StreamingDiversityMaximization::new(dm_config()).unwrap(),
            &elements,
            stride,
            checkpoints,
        );
    }

    #[test]
    fn sfdm1_delta_chain(seed in 0u64..1000, n in 60usize..160, stride in 5usize..40, checkpoints in 1usize..6) {
        let elements = random_elements(n, 2, 3, seed);
        delta_chain_matches_full(|| Sfdm1::new(sfdm1_config()).unwrap(), &elements, stride, checkpoints);
    }

    #[test]
    fn sfdm2_delta_chain(seed in 0u64..1000, n in 60usize..160, stride in 5usize..40, checkpoints in 1usize..6, m in 2usize..4) {
        let elements = random_elements(n, m, 3, seed);
        delta_chain_matches_full(|| Sfdm2::new(sfdm2_config(m)).unwrap(), &elements, stride, checkpoints);
    }

    #[test]
    fn sliding_delta_chain(seed in 0u64..1000, n in 60usize..160, stride in 5usize..40, checkpoints in 1usize..6, window in 8usize..64) {
        let elements = random_elements(n, 2, 3, seed);
        delta_chain_matches_full(
            || SlidingWindowFdm::new(sfdm2_config(2), window).unwrap(),
            &elements,
            stride,
            checkpoints,
        );
    }

    #[test]
    fn sharded_delta_chain(seed in 0u64..1000, n in 80usize..180, stride in 10usize..50, checkpoints in 1usize..5, shards in 1usize..5) {
        let elements = random_elements(n, 2, 3, seed);
        delta_chain_matches_full(
            || ShardedStream::<Sfdm2>::new(sfdm2_config(2), shards).unwrap(),
            &elements,
            stride,
            checkpoints,
        );
    }

    #[test]
    fn unconstrained_dirty_set_matches_diff(seed in 0u64..1000, n in 60usize..160, stride in 5usize..40, checkpoints in 1usize..6) {
        let elements = random_elements(n, 1, 3, seed);
        dirty_set_matches_full_diff(
            || StreamingDiversityMaximization::new(dm_config()).unwrap(),
            &elements,
            stride,
            checkpoints,
            true,
        );
    }

    #[test]
    fn sfdm1_dirty_set_matches_diff(seed in 0u64..1000, n in 60usize..160, stride in 5usize..40, checkpoints in 1usize..6) {
        let elements = random_elements(n, 2, 3, seed);
        dirty_set_matches_full_diff(|| Sfdm1::new(sfdm1_config()).unwrap(), &elements, stride, checkpoints, true);
    }

    #[test]
    fn sfdm2_dirty_set_matches_diff(seed in 0u64..1000, n in 60usize..160, stride in 5usize..40, checkpoints in 1usize..6, m in 2usize..4) {
        let elements = random_elements(n, m, 3, seed);
        dirty_set_matches_full_diff(|| Sfdm2::new(sfdm2_config(m)).unwrap(), &elements, stride, checkpoints, true);
    }

    #[test]
    fn sliding_dirty_set_matches_diff(seed in 0u64..1000, n in 60usize..160, stride in 5usize..40, checkpoints in 1usize..6, window in 8usize..64) {
        // Rotations rebuild both staggered instances, so patches are only
        // available on rotation-free stretches — correctness (byte
        // identity whenever a patch IS produced) is still pinned.
        let elements = random_elements(n, 2, 3, seed);
        dirty_set_matches_full_diff(
            || SlidingWindowFdm::new(sfdm2_config(2), window).unwrap(),
            &elements,
            stride,
            checkpoints,
            false,
        );
    }

    #[test]
    fn sharded_dirty_set_matches_diff(seed in 0u64..1000, n in 80usize..180, stride in 10usize..50, checkpoints in 1usize..5, shards in 1usize..5) {
        let elements = random_elements(n, 2, 3, seed);
        dirty_set_matches_full_diff(
            || ShardedStream::<Sfdm2>::new(sfdm2_config(2), shards).unwrap(),
            &elements,
            stride,
            checkpoints,
            true,
        );
    }
}

/// Deltas of an append-only stream must be far smaller than the full
/// snapshot they advance — the economic reason the chain exists.
#[test]
fn deltas_are_much_smaller_than_full_snapshots() {
    let elements = random_elements(600, 2, 8, 42);
    let mut alg = Sfdm2::new(sfdm2_config(2)).unwrap();
    for e in &elements[..500] {
        alg.insert(e);
    }
    let base = alg.snapshot();
    for e in &elements[500..] {
        alg.insert(e);
    }
    let full = alg.snapshot();
    let delta = SnapshotDelta::between(&base, &full).unwrap();
    let full_len = full.to_bytes(SnapshotFormat::Binary).len();
    let delta_len = delta.encoded_len();
    assert!(
        delta_len * 4 < full_len,
        "delta of a late-stream window should be <1/4 of the full snapshot \
         (delta {delta_len} B vs full {full_len} B)"
    );
}

//! Snapshot/restore persistence: round-trip bit-identity for every
//! snapshot-able summary, and typed errors for corrupted, truncated,
//! wrong-version, and incompatible snapshot documents.
//!
//! The load-bearing property (the repo's acceptance criterion): snapshot →
//! restore → replay of any remaining stream suffix yields **bit-identical**
//! solutions to an uninterrupted run, for SFDM1, SFDM2, the unconstrained
//! algorithm, and `ShardedStream`.

use fdm_core::dataset::DistanceBounds;
use fdm_core::error::FdmError;
use fdm_core::fairness::FairnessConstraint;
use fdm_core::metric::Metric;
use fdm_core::persist::{Snapshot, SnapshotFormat, Snapshottable, SNAPSHOT_VERSION};
use fdm_core::point::Element;
use fdm_core::streaming::sfdm1::{Sfdm1, Sfdm1Config};
use fdm_core::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use fdm_core::streaming::sharded::ShardedStream;
use fdm_core::streaming::unconstrained::{StreamingDiversityMaximization, StreamingDmConfig};
use proptest::prelude::*;
use rand::prelude::*;

fn random_elements(n: usize, m: usize, dim: usize, seed: u64) -> Vec<Element> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let point: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 10.0).collect();
            // Ensure every group appears early so fair runs are feasible.
            let group = if i < m { i } else { rng.random_range(0..m) };
            Element::new(i, point, group)
        })
        .collect()
}

fn bounds() -> DistanceBounds {
    DistanceBounds::new(0.05, 20.0).unwrap()
}

/// Restores a snapshot into the same summary type as `_witness` (pins the
/// trait-method type inference inside the round-trip macro).
fn restore_like<T: Snapshottable>(_witness: &T, snap: &Snapshot) -> fdm_core::error::Result<T> {
    T::restore(snap)
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

/// Runs the interrupted pipeline (prefix → snapshot → binary frame →
/// restore → suffix) against the uninterrupted reference and asserts bit-identity of
/// the stored state and the final solution.
macro_rules! assert_roundtrip_bit_identical {
    ($build:expr, $elements:expr, $split:expr) => {{
        let elements: &[Element] = $elements;
        let split = $split.min(elements.len());

        let mut reference = $build;
        for e in elements {
            reference.insert(e);
        }

        let mut prefix = $build;
        for e in &elements[..split] {
            prefix.insert(e);
        }
        let snap = prefix.snapshot();
        let bytes = snap.to_bytes(SnapshotFormat::Binary);
        let parsed = Snapshot::from_bytes(&bytes).expect("snapshot frame parses");
        assert_eq!(parsed, snap, "envelope survives the byte round trip");
        let mut restored = restore_like(&prefix, &parsed).expect("snapshot restores");
        drop(prefix);
        for e in &elements[split..] {
            restored.insert(e);
        }

        assert_eq!(reference.processed(), restored.processed());
        assert_eq!(reference.stored_elements(), restored.stored_elements());
        match (reference.finalize(), restored.finalize()) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.ids(), b.ids(), "solution ids must be bit-identical");
                assert_eq!(
                    a.diversity.to_bits(),
                    b.diversity.to_bits(),
                    "diversity must be bit-identical"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("reference {a:?} and restored {b:?} disagree"),
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn unconstrained_roundtrip(seed in 0u64..1000, n in 40usize..160, split_pct in 0usize..=100) {
        let elements = random_elements(n, 1, 3, seed);
        assert_roundtrip_bit_identical!(
            StreamingDiversityMaximization::new(dm_config()).unwrap(),
            &elements,
            n * split_pct / 100
        );
    }

    #[test]
    fn sfdm1_roundtrip(seed in 0u64..1000, n in 40usize..160, split_pct in 0usize..=100) {
        let elements = random_elements(n, 2, 3, seed);
        assert_roundtrip_bit_identical!(
            Sfdm1::new(sfdm1_config()).unwrap(),
            &elements,
            n * split_pct / 100
        );
    }

    #[test]
    fn sfdm2_roundtrip(seed in 0u64..1000, n in 40usize..160, split_pct in 0usize..=100, m in 2usize..4) {
        let elements = random_elements(n, m, 3, seed);
        assert_roundtrip_bit_identical!(
            Sfdm2::new(sfdm2_config(m)).unwrap(),
            &elements,
            n * split_pct / 100
        );
    }

    #[test]
    fn sharded_roundtrip(seed in 0u64..1000, n in 60usize..180, split_pct in 0usize..=100, shards in 1usize..5) {
        let elements = random_elements(n, 2, 3, seed);
        assert_roundtrip_bit_identical!(
            ShardedStream::<Sfdm2>::new(sfdm2_config(2), shards).unwrap(),
            &elements,
            n * split_pct / 100
        );
    }
}

#[test]
fn snapshot_of_untouched_stream_restores() {
    // Edge case: snapshot before the first element (dimension unknown).
    let alg = Sfdm2::new(sfdm2_config(2)).unwrap();
    let snap = alg.snapshot();
    assert_eq!(snap.params.dim, 0, "dimension is a wildcard before data");
    let mut restored = Sfdm2::restore(&snap).unwrap();
    for e in random_elements(60, 2, 2, 7) {
        restored.insert(&e);
    }
    assert!(restored.finalize().is_ok());
}

#[test]
fn file_round_trip() {
    let mut alg = Sfdm1::new(sfdm1_config()).unwrap();
    for e in random_elements(80, 2, 3, 3) {
        alg.insert(&e);
    }
    let path = std::env::temp_dir().join("fdm_persist_file_round_trip.snap");
    alg.snapshot().write_to_file(&path).unwrap();
    let back = Snapshot::read_from_file(&path).unwrap();
    let restored = Sfdm1::restore(&back).unwrap();
    assert_eq!(restored.processed(), alg.processed());
    assert_eq!(
        restored.finalize().unwrap().ids(),
        alg.finalize().unwrap().ids()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_snapshot_io_error() {
    let err = Snapshot::read_from_file("/nonexistent/fdm.snap").unwrap_err();
    assert!(matches!(err, FdmError::SnapshotIo { .. }), "{err}");
}

fn sample_snapshot() -> Snapshot {
    let mut alg = Sfdm2::new(sfdm2_config(2)).unwrap();
    for e in random_elements(100, 2, 2, 11) {
        alg.insert(&e);
    }
    alg.snapshot()
}

/// A committed v1 document: nothing writes v1 any more, so the reader is
/// exercised on a frozen fixture.
fn v1_document() -> &'static str {
    include_str!("fixtures/snapshots/sfdm2.v1.json").trim_end()
}

#[test]
fn truncated_and_garbage_documents_are_corrupt() {
    let text = v1_document();
    for cut in [0, 1, text.len() / 2, text.len() - 1] {
        let err = Snapshot::from_json(&text[..cut]).unwrap_err();
        assert!(
            matches!(err, FdmError::CorruptSnapshot { .. }),
            "cut at {cut}: {err}"
        );
    }
    assert!(matches!(
        Snapshot::from_json("not json at all"),
        Err(FdmError::CorruptSnapshot { .. })
    ));
    assert!(matches!(
        Snapshot::from_json("{\"magic\":\"WRONG\",\"version\":1}"),
        Err(FdmError::CorruptSnapshot { .. })
    ));
}

#[test]
fn future_version_is_rejected() {
    let text = v1_document().replace("\"version\":1", "\"version\":2");
    assert_eq!(
        Snapshot::from_json(&text).unwrap_err(),
        FdmError::UnsupportedSnapshotVersion {
            found: 2,
            supported: SNAPSHOT_VERSION
        }
    );
}

#[test]
fn wrong_algorithm_is_incompatible() {
    let snap = sample_snapshot(); // sfdm2
    let err = Sfdm1::restore(&snap).unwrap_err();
    assert!(
        matches!(err, FdmError::IncompatibleSnapshot { .. }),
        "{err}"
    );
    let err = StreamingDiversityMaximization::restore(&snap).unwrap_err();
    assert!(
        matches!(err, FdmError::IncompatibleSnapshot { .. }),
        "{err}"
    );
    let err = ShardedStream::<Sfdm2>::restore(&snap).unwrap_err();
    assert!(
        matches!(err, FdmError::IncompatibleSnapshot { .. }),
        "{err}"
    );
}

#[test]
fn tampered_envelope_params_are_incompatible() {
    // The envelope advertises ε = 0.2 but the state was built with 0.1: the
    // cross-check must refuse rather than hand back a summary whose ladder
    // disagrees with its own description.
    let mut snap = sample_snapshot();
    snap.params.epsilon = 0.2;
    let err = Sfdm2::restore(&snap).unwrap_err();
    assert!(
        matches!(err, FdmError::IncompatibleSnapshot { .. }),
        "{err}"
    );
}

#[test]
fn dimension_mismatch_is_rejected_by_compatibility_check() {
    // A deployment ingesting 2-d points must refuse a 5-d snapshot instead
    // of producing garbage distances.
    let live = {
        let mut alg = Sfdm2::new(sfdm2_config(2)).unwrap();
        for e in random_elements(50, 2, 2, 1) {
            alg.insert(&e);
        }
        alg.snapshot_params()
    };
    let foreign = {
        let mut alg = Sfdm2::new(sfdm2_config(2)).unwrap();
        for e in random_elements(50, 2, 5, 1) {
            alg.insert(&e);
        }
        alg.snapshot()
    };
    let err = foreign.params.ensure_compatible(&live).unwrap_err();
    match err {
        FdmError::IncompatibleSnapshot { detail } => {
            assert!(detail.contains("dimension"), "{detail}");
        }
        other => panic!("expected IncompatibleSnapshot, got {other:?}"),
    }
}

#[test]
fn quota_mismatch_is_rejected_by_compatibility_check() {
    let a = Sfdm2::new(sfdm2_config(2)).unwrap().snapshot_params();
    let b = Sfdm2::new(sfdm2_config(3)).unwrap().snapshot_params();
    let err = a.ensure_compatible(&b).unwrap_err();
    assert!(
        matches!(err, FdmError::IncompatibleSnapshot { .. }),
        "{err}"
    );
}

/// The three unsharded ladders, each fed one stream, as `(tag, snapshot)`.
fn ladder_snapshots() -> Vec<(&'static str, Snapshot)> {
    fn fed<T: Snapshottable>(mut alg: T, insert: fn(&mut T, &Element)) -> Snapshot {
        for e in random_elements(100, 2, 2, 11) {
            insert(&mut alg, &e);
        }
        alg.snapshot()
    }
    vec![
        (
            "unconstrained",
            fed(
                StreamingDiversityMaximization::new(dm_config()).unwrap(),
                StreamingDiversityMaximization::insert,
            ),
        ),
        (
            "sfdm1",
            fed(Sfdm1::new(sfdm1_config()).unwrap(), Sfdm1::insert),
        ),
        (
            "sfdm2",
            fed(Sfdm2::new(sfdm2_config(2)).unwrap(), Sfdm2::insert),
        ),
    ]
}

/// Restores `state` as the state tree of the ladder tagged `algorithm`.
fn restore_ladder_state(algorithm: &str, state: &serde::Value) -> Result<(), FdmError> {
    match algorithm {
        "unconstrained" => StreamingDiversityMaximization::restore_state(state).map(drop),
        "sfdm1" => Sfdm1::restore_state(state).map(drop),
        "sfdm2" => Sfdm2::restore_state(state).map(drop),
        other => panic!("no ladder tagged {other}"),
    }
}

/// `tree` (an object) with `key` set to `value`.
fn with(tree: &serde::Value, key: &str, value: serde::Value) -> serde::Value {
    let mut map = tree.as_object().expect("an object").clone();
    map.insert(key.to_string(), value);
    serde::Value::Object(map)
}

/// The key of the ladder's group-blind lane.
fn blind_key(algorithm: &str) -> &'static str {
    if algorithm == "unconstrained" {
        "candidates"
    } else {
        "blind"
    }
}

#[test]
fn member_ids_past_the_arena_are_corrupt() {
    // Swap the arena for an empty one while the candidate lanes still
    // reference points: the member-id bounds check must fire.
    for (algorithm, snap) in ladder_snapshots() {
        let empty = StreamingDiversityMaximization::new(dm_config())
            .unwrap()
            .snapshot_state();
        let tampered = with(&snap.state, "store", empty.get("store").unwrap().clone());
        let err = restore_ladder_state(algorithm, &tampered).unwrap_err();
        assert!(
            matches!(err, FdmError::CorruptSnapshot { .. }),
            "{algorithm}: {err}"
        );
    }
}

#[test]
fn mangled_state_fields_are_corrupt() {
    for (algorithm, snap) in ladder_snapshots() {
        let mut keys = vec!["config", "processed", "store", "store_initialized"];
        keys.push(blind_key(algorithm));
        if algorithm != "unconstrained" {
            keys.extend([
                "specific",
                if algorithm == "sfdm1" {
                    "strategy"
                } else {
                    "mode"
                },
            ]);
        }
        for key in keys {
            for bogus in [serde::Value::String("many".into()), serde::Value::Null] {
                let tampered = with(&snap.state, key, bogus);
                let err = restore_ladder_state(algorithm, &tampered).unwrap_err();
                assert!(
                    matches!(err, FdmError::CorruptSnapshot { .. }),
                    "{algorithm} {key}: {err}"
                );
            }
        }
    }
}

#[test]
fn ladder_restore_checks_are_typed_errors() {
    // Each check a restore makes of a state tree against its configuration,
    // for every ladder it applies to: `true` expects `CorruptSnapshot`,
    // `false` `IncompatibleSnapshot`.
    type Tamper = fn(&str, &serde::Value) -> Option<serde::Value>;
    let cases: [(&str, bool, Tamper); 5] = [
        ("non-empty arena marked uninitialized", true, |_, state| {
            Some(with(state, "store_initialized", serde::Value::Bool(false)))
        }),
        // Both fair ladders here have m = 2 groups.
        ("group label ≥ m", true, |algorithm, state| {
            (algorithm != "unconstrained").then(|| {
                let store = state.get("store").unwrap();
                let mut groups = store.get("groups").unwrap().as_array().unwrap().clone();
                groups[0] = serde::Value::Number(2.0);
                with(
                    state,
                    "store",
                    with(store, "groups", serde::Value::Array(groups)),
                )
            })
        }),
        ("wrong number of group ladders", true, |algorithm, state| {
            (algorithm != "unconstrained").then(|| {
                let mut ladders = state.get("specific").unwrap().as_array().unwrap().clone();
                ladders.pop();
                with(state, "specific", serde::Value::Array(ladders))
            })
        }),
        ("lane count", false, |algorithm, state| {
            let blind = state.get(blind_key(algorithm)).unwrap();
            let mut members = blind.get("members").unwrap().as_array().unwrap().clone();
            members.pop();
            let blind = with(blind, "members", serde::Value::Array(members));
            Some(with(state, blind_key(algorithm), blind))
        }),
        ("ladder digest", false, |algorithm, state| {
            let blind = state.get(blind_key(algorithm)).unwrap();
            let crc = blind.get("mu_crc").unwrap().as_u64().unwrap();
            let blind = with(blind, "mu_crc", serde::Value::Number((crc ^ 1) as f64));
            Some(with(state, blind_key(algorithm), blind))
        }),
    ];
    for (algorithm, snap) in ladder_snapshots() {
        assert!(restore_ladder_state(algorithm, &snap.state).is_ok());
        for (case, corrupt, tamper) in cases {
            let Some(tampered) = tamper(algorithm, &snap.state) else {
                continue;
            };
            let err = restore_ladder_state(algorithm, &tampered).unwrap_err();
            let typed = match err {
                FdmError::CorruptSnapshot { .. } => corrupt,
                FdmError::IncompatibleSnapshot { .. } => !corrupt,
                _ => false,
            };
            assert!(typed, "{algorithm}, {case}: {err}");
        }
    }
}

#[test]
fn sliced_constraint_totals_are_rejected() {
    // A fairness constraint whose cached total disagrees with its quotas is
    // validation-level corruption, caught by the constraint deserializer.
    let snap = sample_snapshot();
    let text = serde_json::to_string(&snap.state).unwrap();
    let tampered = text.replace("\"total\":4", "\"total\":9");
    assert_ne!(text, tampered, "fixture must contain the quota total");
    let snap = Snapshot {
        params: snap.params,
        state: serde_json::parse_value(&tampered).unwrap(),
    };
    // The quotas live both in the envelope params and in the state config;
    // whichever is hit first, the outcome must be a typed error.
    let err = Sfdm2::restore(&snap).unwrap_err();
    assert!(
        matches!(
            err,
            FdmError::CorruptSnapshot { .. } | FdmError::IncompatibleSnapshot { .. }
        ),
        "{err}"
    );
}

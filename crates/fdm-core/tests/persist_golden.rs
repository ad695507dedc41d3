//! Golden snapshot fixtures: format compatibility pinned at the byte
//! level.
//!
//! For each summary type a canonical v1 (JSON) and v2 (binary) snapshot
//! is checked in under `tests/fixtures/snapshots/`. The tests assert that
//! today's code (a) decodes each fixture to exactly the snapshot of the
//! live summary, (b) restores it to the exact recorded stream position,
//! and (c) re-encodes the restored summary **byte-identically** to the v2
//! fixture — so any unannounced change to the binary format, the state
//! schema, the v1 reader or the restore path fails CI here under its own
//! name.
//!
//! Re-recording: `UPDATE_GOLDEN=1 cargo test -p fdm-core --test
//! persist_golden` rewrites the **v2** fixtures (the binary format may
//! evolve with a version bump). The v1 fixtures are frozen forever and
//! nothing writes v1 any more: a v1 mismatch means v1 reading
//! compatibility broke, which must never happen silently.
//!
//! The fixture streams are closed-form (no RNG), so the fixtures do not
//! depend on any random-number implementation detail.

use std::path::PathBuf;

use fdm_core::dataset::DistanceBounds;
use fdm_core::fairness::FairnessConstraint;
use fdm_core::metric::Metric;
use fdm_core::persist::{Snapshot, SnapshotFormat, Snapshottable};
use fdm_core::point::Element;
use fdm_core::streaming::sfdm1::{Sfdm1, Sfdm1Config};
use fdm_core::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use fdm_core::streaming::sharded::ShardedStream;
use fdm_core::streaming::sliding::{SlidingWindowConfig, SlidingWindowFdm};
use fdm_core::streaming::unconstrained::{StreamingDiversityMaximization, StreamingDmConfig};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("snapshots")
}

/// Deterministic 2-group stream, no RNG involved.
fn stream(n: usize, m: usize, dim: usize) -> Vec<Element> {
    (0..n)
        .map(|i| {
            let point: Vec<f64> = (0..dim)
                .map(|d| ((i * (d + 3)) as f64 * 0.7391).sin() * 9.0)
                .collect();
            Element::new(i, point, i % m)
        })
        .collect()
}

fn bounds() -> DistanceBounds {
    DistanceBounds::new(0.05, 25.0).unwrap()
}

fn unconstrained() -> StreamingDiversityMaximization {
    let mut alg = StreamingDiversityMaximization::new(StreamingDmConfig {
        k: 5,
        epsilon: 0.1,
        bounds: bounds(),
        metric: Metric::Euclidean,
    })
    .unwrap();
    for e in stream(90, 1, 3) {
        alg.insert(&e);
    }
    alg
}

fn sfdm1() -> Sfdm1 {
    let mut alg = Sfdm1::new(Sfdm1Config {
        constraint: FairnessConstraint::new(vec![2, 2]).unwrap(),
        epsilon: 0.1,
        bounds: bounds(),
        metric: Metric::Euclidean,
    })
    .unwrap();
    for e in stream(90, 2, 3) {
        alg.insert(&e);
    }
    alg
}

fn sfdm2() -> Sfdm2 {
    let mut alg = Sfdm2::new(Sfdm2Config {
        constraint: FairnessConstraint::new(vec![2, 1, 2]).unwrap(),
        epsilon: 0.1,
        bounds: bounds(),
        metric: Metric::Manhattan,
    })
    .unwrap();
    for e in stream(90, 3, 3) {
        alg.insert(&e);
    }
    alg
}

fn sharded() -> ShardedStream<Sfdm2> {
    let mut alg: ShardedStream<Sfdm2> = ShardedStream::new(
        Sfdm2Config {
            constraint: FairnessConstraint::new(vec![2, 2]).unwrap(),
            epsilon: 0.1,
            bounds: bounds(),
            metric: Metric::Euclidean,
        },
        3,
    )
    .unwrap();
    for e in stream(120, 2, 3) {
        alg.insert(&e);
    }
    alg
}

fn sliding() -> SlidingWindowFdm {
    let mut alg = SlidingWindowFdm::new(
        Sfdm2Config {
            constraint: FairnessConstraint::new(vec![2, 2]).unwrap(),
            epsilon: 0.1,
            bounds: bounds(),
            metric: Metric::Euclidean,
        },
        40,
    )
    .unwrap();
    // 90 arrivals with W/2 = 20: four rotations, both instances mid-cycle.
    for e in stream(90, 2, 3) {
        alg.insert(&e);
    }
    alg
}

fn sharded_sliding() -> ShardedStream<SlidingWindowFdm> {
    let mut alg: ShardedStream<SlidingWindowFdm> = ShardedStream::new(
        SlidingWindowConfig {
            inner: Sfdm2Config {
                constraint: FairnessConstraint::new(vec![2, 2]).unwrap(),
                epsilon: 0.1,
                bounds: bounds(),
                metric: Metric::Euclidean,
            },
            window: 30,
        },
        3,
    )
    .unwrap();
    for e in stream(120, 2, 3) {
        alg.insert(&e);
    }
    alg
}

fn check<T: Snapshottable>(name: &str, build: impl Fn() -> T) {
    let dir = fixture_dir();
    let live = build();
    let snapshot = live.snapshot();
    let read = |file: &str| {
        let path = dir.join(file);
        std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); v2 fixtures are recorded with UPDATE_GOLDEN=1",
                path.display()
            )
        })
    };

    // v2 may be re-recorded with a version bump; v1 is frozen forever and
    // nothing writes it any more.
    let v2_file = format!("{name}.v2.bin");
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(&v2_file),
            snapshot.to_bytes(SnapshotFormat::Binary),
        )
        .unwrap();
    }
    let v2 = read(&v2_file);

    for file in [format!("{name}.v1.json"), v2_file] {
        let fixture = read(&file);

        // 1. Today's reader decodes the fixture to the live snapshot...
        let parsed = Snapshot::from_bytes(&fixture)
            .unwrap_or_else(|e| panic!("{file}: fixture no longer parses: {e}"));
        assert_eq!(parsed, snapshot, "{file}: decoded snapshot drifted");

        // 2. ...restores it to the exact recorded stream position...
        let restored = T::restore(&parsed)
            .unwrap_or_else(|e| panic!("{file}: fixture no longer restores: {e}"));
        assert_eq!(
            restored.snapshot_params(),
            snapshot.params,
            "{file}: restored envelope drifted"
        );

        // 3. ...and re-encodes it to the v2 fixture byte-for-byte.
        let reencoded = restored.snapshot().to_bytes(SnapshotFormat::Binary);
        assert_eq!(
            reencoded,
            v2,
            "{file}: re-encoding the restored summary no longer matches the v2 fixture \
             ({} vs {} bytes) — if this is an intended v2 format change, bump the \
             version and re-record with UPDATE_GOLDEN=1",
            reencoded.len(),
            v2.len(),
        );
    }
}

#[test]
fn golden_unconstrained() {
    check("unconstrained", unconstrained);
}

#[test]
fn golden_sfdm1() {
    check("sfdm1", sfdm1);
}

#[test]
fn golden_sfdm2() {
    check("sfdm2", sfdm2);
}

#[test]
fn golden_sharded() {
    check("sharded-sfdm2", sharded);
}

#[test]
fn golden_sliding() {
    check("sliding", sliding);
}

#[test]
fn golden_sharded_sliding() {
    check("sharded-sliding", sharded_sliding);
}

/// The sliding envelope must carry its window (a different window is a
/// different deployment) while the pre-sliding fixtures stay window-free —
/// the serialization is additive, never reshaping old documents.
#[test]
fn sliding_fixture_envelope_carries_window() {
    let path = fixture_dir().join("sliding.v1.json");
    if !path.exists() {
        return; // created by golden_sliding's first UPDATE_GOLDEN run
    }
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"algorithm\":\"sliding\""));
    assert!(text.contains("\"window\":40"));
    for name in ["unconstrained", "sfdm1", "sfdm2", "sharded-sfdm2"] {
        let old = fixture_dir().join(format!("{name}.v1.json"));
        if old.exists() {
            let text = std::fs::read_to_string(&old).unwrap();
            assert!(
                !text.contains("\"window\""),
                "{name}: pre-sliding envelope grew a window field"
            );
        }
    }
}

/// PR3-era v1 documents carried a full `mus` array per ladder (today's
/// writer stores a CRC digest instead). That legacy shape must restore
/// forever: this test pins a checked-in legacy-`mus` fixture through the
/// compatibility read path and requires the restored summary to match
/// the digest-form snapshot exactly.
#[test]
fn golden_v1_legacy_mus_shape_still_restores() {
    let path = fixture_dir().join("sfdm2.v1-legacy-mus.json");
    let live = sfdm2();
    let snapshot = live.snapshot();

    let fixture = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing legacy fixture {} ({e})", path.display()));
    let text = String::from_utf8(fixture.clone()).unwrap();
    assert!(
        text.contains("\"mus\":["),
        "fixture must carry the legacy shape"
    );
    assert!(!text.contains("mu_crc"), "fixture must predate the digest");

    let parsed = Snapshot::from_bytes(&fixture).expect("legacy v1 parses");
    let restored = Sfdm2::restore(&parsed).expect("legacy v1 restores");
    // The legacy document restores to the same summary today's writer
    // would capture — digest and explicit thresholds are interchangeable.
    assert_eq!(restored.snapshot(), snapshot);
}

/// The v1 fixtures must parse as plain JSON with the frozen envelope
/// constants — belt and braces beyond the decode comparison above.
#[test]
fn v1_fixtures_are_json_version_1() {
    for name in [
        "unconstrained",
        "sfdm1",
        "sfdm2",
        "sharded-sfdm2",
        "sliding",
        "sharded-sliding",
    ] {
        let path = fixture_dir().join(format!("{name}.v1.json"));
        if !path.exists() {
            continue; // created by the per-summary tests' first UPDATE_GOLDEN run
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"magic\":\"FDMSNAP\""), "{name}");
        assert!(text.contains("\"version\":1"), "{name}");
    }
}

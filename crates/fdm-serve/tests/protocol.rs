//! End-to-end protocol tests: scripted sessions, snapshot/kill/restore
//! byte-identity, WAL crash recovery, v1 (JSON) snapshot files, Unix-socket
//! sessions, and error surfaces.

use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fdm_serve::{Engine, ServeConfig, Session};

/// Fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdm_serve_test_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a scripted session against a fresh in-memory engine and returns the
/// response lines.
fn run_script(engine: &Arc<Engine>, script: &str) -> Vec<String> {
    let mut output = Vec::new();
    Session::new(engine.clone())
        .run(Cursor::new(script.as_bytes().to_vec()), &mut output)
        .unwrap();
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

fn memory_engine() -> Arc<Engine> {
    Arc::new(Engine::new(ServeConfig::default()).unwrap())
}

/// A deterministic 2-group stream of `n` INSERT lines.
fn insert_lines(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.7391).sin() * 9.0;
            let y = (i as f64 * 0.2113).cos() * 9.0;
            format!("INSERT {i} {} {x} {y}", i % 2)
        })
        .collect()
}

const OPEN: &str = "OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30";

#[test]
fn uninterrupted_session_answers_queries() {
    let engine = memory_engine();
    let mut script = vec![OPEN.to_string()];
    script.extend(insert_lines(60));
    script.push("STATS".into());
    script.push("QUERY".into());
    script.push("QUERY 4".into());
    script.push("QUIT".into());
    let replies = run_script(&engine, &script.join("\n"));
    assert_eq!(replies[0], "OK opened jobs");
    assert!(replies[1..=60].iter().all(|r| r.starts_with("OK inserted")));
    assert!(replies[61].starts_with("OK stream=jobs algorithm=sfdm2"));
    assert!(replies[62].starts_with("OK k=4 diversity="));
    assert_eq!(
        replies[62], replies[63],
        "explicit k must not change output"
    );
    assert_eq!(replies.last().unwrap(), "OK bye");
}

#[test]
fn snapshot_kill_restore_is_byte_identical() {
    let dir = scratch("snap_restore");
    let snap = dir.join("jobs.snap").display().to_string();
    let inserts = insert_lines(80);

    // Uninterrupted reference run.
    let reference = {
        let engine = memory_engine();
        let mut script = vec![OPEN.to_string()];
        script.extend(inserts.iter().cloned());
        script.push("QUERY".into());
        run_script(&engine, &script.join("\n"))
            .last()
            .unwrap()
            .clone()
    };

    // Interrupted run: first half, SNAPSHOT, then the engine is dropped
    // ("killed"); a brand-new engine RESTOREs and replays the second half.
    {
        let engine = memory_engine();
        let mut script = vec![OPEN.to_string()];
        script.extend(inserts[..40].iter().cloned());
        script.push(format!("SNAPSHOT {snap}"));
        let replies = run_script(&engine, &script.join("\n"));
        assert!(
            replies.last().unwrap().starts_with("OK snapshot"),
            "{replies:?}"
        );
    }
    let resumed = {
        let engine = memory_engine();
        let mut script = vec![format!("RESTORE {snap}")];
        script.extend(inserts[40..].iter().cloned());
        script.push("QUERY".into());
        let replies = run_script(&engine, &script.join("\n"));
        assert_eq!(replies[0], "OK restored jobs processed=40");
        replies.last().unwrap().clone()
    };

    assert!(reference.starts_with("OK k="), "{reference}");
    assert_eq!(
        reference, resumed,
        "post-restore QUERY must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_crash_recovery_replays_the_tail() {
    let dir = scratch("wal_recovery");
    let config = ServeConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: Some(16),
        ..ServeConfig::default()
    };
    let inserts = insert_lines(70);

    // Reference: one uninterrupted in-memory run.
    let reference = {
        let engine = memory_engine();
        let mut script = vec![OPEN.to_string()];
        script.extend(inserts.iter().cloned());
        script.push("QUERY".into());
        run_script(&engine, &script.join("\n"))
            .last()
            .unwrap()
            .clone()
    };

    // Durable run, dropped without any explicit snapshot command: 70
    // inserts = 4 auto-snapshots (at 16/32/48/64) + 6 WAL-tail lines.
    {
        let engine = Arc::new(Engine::new(config.clone()).unwrap());
        let mut script = vec![OPEN.to_string()];
        script.extend(inserts.iter().cloned());
        let replies = run_script(&engine, &script.join("\n"));
        assert!(replies.iter().all(|r| r.starts_with("OK ")), "{replies:?}");
        // Crash: engine dropped here, nothing flushed beyond the WAL.
    }
    let wal = std::fs::read_to_string(dir.join("jobs.wal")).unwrap();
    assert_eq!(
        wal.lines().count(),
        1 + (70 - 64),
        "WAL should hold only the header and the post-snapshot tail"
    );

    // Recovery: a new engine over the same data dir replays snap + WAL.
    let engine = Arc::new(Engine::new(config).unwrap());
    assert_eq!(engine.stream_names(), vec!["jobs".to_string()]);
    let replies = run_script(&engine, &format!("{OPEN}\nSTATS\nQUERY"));
    assert_eq!(replies[0], "OK attached jobs processed=70");
    assert!(replies[1].contains("processed=70"), "{}", replies[1]);
    assert_eq!(replies[2], reference, "recovered QUERY must match");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_skips_wal_records_already_in_snapshot() {
    // The crash window between an auto-snapshot write and the WAL
    // truncation leaves records in the WAL that the snapshot already
    // contains; the sequence numbers must make replay exactly-once (no
    // inflated `processed`, identical QUERY output).
    let dir = scratch("wal_overlap");
    let config = ServeConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: Some(16),
        ..ServeConfig::default()
    };
    let inserts = insert_lines(20);

    let reference = {
        let engine = memory_engine();
        let mut script = vec![OPEN.to_string()];
        script.extend(inserts.iter().cloned());
        script.push("QUERY".into());
        run_script(&engine, &script.join("\n"))
            .last()
            .unwrap()
            .clone()
    };

    {
        let engine = Arc::new(Engine::new(config.clone()).unwrap());
        let mut script = vec![OPEN.to_string()];
        script.extend(inserts.iter().cloned());
        run_script(&engine, &script.join("\n"));
    }
    // Snapshot holds arrivals 1..=16; WAL holds 17..=20. Simulate the
    // crash window by re-prepending records 9..=16 (already snapshotted).
    let wal_path = dir.join("jobs.wal");
    let tail = std::fs::read_to_string(&wal_path).unwrap();
    assert_eq!(tail.lines().count(), 1 + 4, "header + 4 tail records");
    let mut overlapping = String::new();
    for (i, line) in inserts.iter().enumerate().take(16).skip(8) {
        overlapping.push_str(&format!("{} {line}\n", i + 1));
    }
    overlapping.push_str(&tail);
    std::fs::write(&wal_path, overlapping).unwrap();

    let engine = Arc::new(Engine::new(config).unwrap());
    let replies = run_script(&engine, &format!("{OPEN}\nSTATS\nQUERY"));
    assert_eq!(
        replies[0], "OK attached jobs processed=20",
        "overlapping WAL records must not double-apply"
    );
    assert_eq!(replies[2], reference, "recovered QUERY must match");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_sequence_gaps_are_corrupt() {
    let dir = scratch("wal_gap");
    let config = ServeConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: Some(100),
        ..ServeConfig::default()
    };
    {
        let engine = Arc::new(Engine::new(config.clone()).unwrap());
        let mut script = vec![OPEN.to_string()];
        script.extend(insert_lines(5));
        run_script(&engine, &script.join("\n"));
    }
    // Drop record 3 of 5: a hole in the history cannot be replayed
    // faithfully and must refuse recovery instead of guessing.
    let wal_path = dir.join("jobs.wal");
    let wal = std::fs::read_to_string(&wal_path).unwrap();
    let kept: Vec<&str> = wal.lines().filter(|l| !l.starts_with("3 ")).collect();
    assert_eq!(kept.len(), 1 + 4, "header + records 1, 2, 4, 5");
    std::fs::write(&wal_path, kept.join("\n")).unwrap();
    let err = match Engine::new(config) {
        Err(err) => err,
        Ok(_) => panic!("recovery over a gapped WAL must fail"),
    };
    assert!(err.to_string().contains("sequence gap"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_refuses_incompatible_live_stream() {
    let dir = scratch("incompatible");
    let snap = dir.join("other.snap").display().to_string();
    let engine = memory_engine();
    // Snapshot a 3-d unconstrained stream.
    let mut script = vec!["OPEN other unconstrained k=3 eps=0.1 dmin=0.05 dmax=30".to_string()];
    script.push("INSERT 0 0 1 2 3".into());
    script.push(format!("SNAPSHOT {snap}"));
    let replies = run_script(&engine, &script.join("\n"));
    assert!(replies.last().unwrap().starts_with("OK snapshot"));

    // A session bound to an sfdm2 stream must refuse to restore it.
    let engine = memory_engine();
    let script = format!("{OPEN}\nRESTORE {snap}");
    let replies = run_script(&engine, &script);
    assert_eq!(replies[0], "OK opened jobs");
    assert!(
        replies[1].starts_with("ERR incompatible snapshot"),
        "{}",
        replies[1]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let engine = memory_engine();
    let script = [
        "BOGUS",              // unknown command
        "INSERT 0 0 1.0",     // no stream bound
        "QUERY",              // no stream bound
        OPEN,                 // ok
        "INSERT 0 0 1.0",     // dim fixed at 2? no: first insert sets dim
        "INSERT 1 1 2.0 3.0", // dimension mismatch with the 1-d first insert
        "INSERT 2 9 4.0",     // group out of range
        "QUERY 7",            // wrong k
        "PING",
    ]
    .join("\n");
    let replies = run_script(&engine, &script);
    assert!(replies[0].starts_with("ERR unknown command"));
    assert!(replies[1].starts_with("ERR no stream bound"));
    assert!(replies[2].starts_with("ERR no stream bound"));
    assert_eq!(replies[3], "OK opened jobs");
    assert!(replies[4].starts_with("OK inserted"));
    assert!(
        replies[5].starts_with("ERR dimension mismatch"),
        "{}",
        replies[5]
    );
    assert!(replies[6].starts_with("ERR group label"), "{}", replies[6]);
    assert!(replies[7].starts_with("ERR"), "{}", replies[7]);
    assert_eq!(replies[8], "OK pong");
}

#[test]
fn two_sessions_share_one_stream() {
    let engine = memory_engine();
    let a = run_script(&engine, &format!("{OPEN}\nINSERT 0 0 1 1\nINSERT 1 1 5 5"));
    assert!(a.iter().all(|r| r.starts_with("OK ")), "{a:?}");
    // Second session attaches by OPENing the same name with the same spec.
    let b = run_script(&engine, &format!("{OPEN}\nSTATS"));
    assert_eq!(b[0], "OK attached jobs processed=2");
    assert!(b[1].contains("stored=2"), "{}", b[1]);
    // Attaching with a different spec is refused.
    let c = run_script(
        &engine,
        "OPEN jobs sfdm2 quotas=3,3 eps=0.1 dmin=0.05 dmax=30",
    );
    assert!(c[0].starts_with("ERR incompatible snapshot"), "{}", c[0]);
}

#[cfg(unix)]
#[test]
fn unix_socket_sessions_work() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};

    let dir = scratch("socket");
    let socket_path = dir.join("fdm.sock");
    let listener = UnixListener::bind(&socket_path).unwrap();
    let engine = memory_engine();
    let server_engine = engine.clone();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Session::new(server_engine).run(reader, stream).unwrap();
    });

    let mut client = UnixStream::connect(&socket_path).unwrap();
    write!(
        client,
        "{OPEN}\nINSERT 0 0 1 1\nINSERT 1 1 4 4\nSTATS\nQUIT\n"
    )
    .unwrap();
    let replies: Vec<String> = BufReader::new(client.try_clone().unwrap())
        .lines()
        .map(|l| l.unwrap())
        .collect();
    assert_eq!(replies[0], "OK opened jobs");
    assert!(replies[3].contains("processed=2"), "{}", replies[3]);
    assert_eq!(replies[4], "OK bye");
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sliding-window family member end-to-end: OPEN with a window,
/// ingest past several rotations, STATS reports the window, QUERY stays
/// fair, and old elements age out of the answers.
#[test]
fn sliding_stream_serves_and_ages_out() {
    let engine = memory_engine();
    let mut script =
        vec!["OPEN recent sliding quotas=2,2 eps=0.1 dmin=0.05 dmax=30 window=40".to_string()];
    script.extend(insert_lines(200));
    script.push("STATS".into());
    script.push("QUERY".into());
    let replies = run_script(&engine, &script.join("\n"));
    assert_eq!(replies[0], "OK opened recent");
    let stats = &replies[201];
    assert!(stats.contains("algorithm=sliding"), "{stats}");
    assert!(stats.contains("window=40"), "{stats}");
    assert!(stats.contains("processed=200"), "{stats}");
    let query = &replies[202];
    assert!(query.starts_with("OK k=4"), "{query}");
    // Rotation schedule (W/2 = 20): the queried instance was restarted at
    // arrival 180 at the latest, so nothing older than id 160 can appear.
    let ids = query.split("ids=").nth(1).unwrap();
    for id in ids.split(',') {
        let id: usize = id.parse().unwrap();
        assert!(id >= 160, "stale element {id} leaked into the window");
    }

    // Bad OPEN shapes are protocol errors.
    let errs = run_script(
        &engine,
        "OPEN w sliding quotas=2,2 eps=0.1 dmin=0.05 dmax=30\n\
         OPEN w sliding quotas=2,2 eps=0.1 dmin=0.05 dmax=30 window=1\n\
         OPEN w sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30 window=10",
    );
    assert!(errs.iter().all(|r| r.starts_with("ERR ")), "{errs:?}");

    // Re-attach requires the same window.
    let errs = run_script(
        &engine,
        "OPEN recent sliding quotas=2,2 eps=0.1 dmin=0.05 dmax=30 window=80",
    );
    assert!(
        errs[0].starts_with("ERR") && errs[0].contains("window"),
        "{errs:?}"
    );
}

/// `STATS` surfaces the per-stream persistence counters: WAL appends,
/// full/delta checkpoints, and the last checkpoint's size + format.
#[test]
fn stats_reports_persistence_counters() {
    let dir = scratch("stats_counters");
    let engine = Arc::new(
        Engine::new(ServeConfig {
            data_dir: Some(dir.clone()),
            snapshot_every: Some(10),
            full_every: 3,
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    let mut script = vec![OPEN.to_string()];
    script.extend(insert_lines(25));
    script.push("STATS".into());
    let replies = run_script(&engine, &script.join("\n"));
    let stats = replies.last().unwrap();
    // 25 inserts → every record write-ahead logged; the OPEN anchor wrote
    // the first (and only) full, and the checkpoints at 10 and 20 both
    // lower to dirty-set deltas — a chain of 2, under `full_every`, so
    // the compactor never runs.
    assert!(stats.contains("wal_records=25"), "{stats}");
    assert!(stats.contains("snapshots=1"), "{stats}");
    assert!(stats.contains("deltas=2"), "{stats}");
    assert!(stats.contains("compactions=0"), "{stats}");
    assert!(stats.contains("last_snapshot_format=delta"), "{stats}");
    let bytes: u64 = stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix("last_snapshot_bytes="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no last_snapshot_bytes in {stats}"));
    assert!(bytes > 0, "{stats}");
    let dirty: u64 = stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix("dirty_bytes="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no dirty_bytes in {stats}"));
    assert!(
        dirty > 0,
        "the delta checkpoint must count its bytes: {stats}"
    );

    // An explicit export bumps the full-snapshot counter and the kind.
    let export = dir.join("x.snap").display().to_string();
    let replies = run_script(
        &engine,
        &format!("OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30\nSNAPSHOT {export}\nSTATS"),
    );
    let stats = replies.last().unwrap();
    assert!(stats.contains("snapshots=2"), "{stats}");
    let kind = stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix("last_snapshot_format="));
    assert_eq!(kind, Some("bin"), "{stats}");

    // A memory-only engine reports zeroed counters (no WAL, no files).
    let engine = memory_engine();
    let mut script = vec![OPEN.to_string()];
    script.extend(insert_lines(5));
    script.push("STATS".into());
    let replies = run_script(&engine, &script.join("\n"));
    let stats = replies.last().unwrap();
    assert!(stats.contains("wal_records=0"), "{stats}");
    assert!(stats.contains("last_snapshot_format=none"), "{stats}");
    let _ = std::fs::remove_dir_all(&dir);
}

// v1 (JSON) snapshots at the serve layer. Nothing writes v1 any more, so
// a daemon meets it only in old data directories and old exported files;
// both must keep working. The fixtures are copies of `fdm-core`'s `sfdm2`
// golden pair: one summary (90 arrivals, quotas 2,1,2, Manhattan)
// encoded as v1 JSON and as the v2 binary frame.

const V1_OPEN: &str = "OPEN sfdm2 sfdm2 quotas=2,1,2 eps=0.1 dmin=0.05 dmax=25 metric=manhattan";

fn fixture(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(file)
}

/// `RESTORE`s fixture `file` into a fresh in-memory engine, re-exports it
/// to `export`, and returns the `QUERY` reply.
fn restore_query_export(file: &str, export: &Path) -> String {
    let replies = run_script(
        &memory_engine(),
        &format!(
            "{V1_OPEN}\nRESTORE {}\nQUERY\nSNAPSHOT {}",
            fixture(file).display(),
            export.display()
        ),
    );
    assert_eq!(replies[1], "OK restored sfdm2 processed=90", "{file}");
    assert!(
        replies[2].starts_with("OK k=5 diversity="),
        "{file}: {}",
        replies[2]
    );
    assert_eq!(
        replies[3],
        format!("OK snapshot {} processed=90", export.display()),
        "{file}"
    );
    replies[2].clone()
}

#[test]
fn v1_and_v2_exports_restore_to_the_same_answer() {
    let dir = scratch("v1_restore");
    let v2 = std::fs::read(fixture("sfdm2.v2.bin")).unwrap();
    let from_v1 = restore_query_export("sfdm2.v1.json", &dir.join("from_v1.snap"));
    let from_v2 = restore_query_export("sfdm2.v2.bin", &dir.join("from_v2.snap"));
    // Same ids, same diversity bits (the reply prints the shortest
    // round-trip decimal of the f64).
    assert_eq!(from_v1, from_v2);
    // Re-exporting a restored v1 file writes exactly the v2 encoding.
    assert_eq!(std::fs::read(dir.join("from_v1.snap")).unwrap(), v2);
    assert_eq!(std::fs::read(dir.join("from_v2.snap")).unwrap(), v2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn data_dir_with_a_v1_snapshot_recovers() {
    let dir = scratch("v1_data_dir");
    std::fs::copy(fixture("sfdm2.v1.json"), dir.join("sfdm2.snap")).unwrap();
    let engine = Arc::new(
        Engine::new(ServeConfig {
            data_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    let replies = run_script(&engine, &format!("{V1_OPEN}\nQUERY"));
    assert_eq!(replies[0], "OK attached sfdm2 processed=90");
    let reference = restore_query_export("sfdm2.v2.bin", &dir.join("reference.snap"));
    assert_eq!(replies[1], reference);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_refuses_a_format_field() {
    let dir = scratch("format_field");
    let engine = memory_engine();
    for retired in ["json", "bin"] {
        let path = dir.join(format!("x.{retired}"));
        let replies = run_script(
            &engine,
            &format!("{V1_OPEN}\nSNAPSHOT {} format={retired}", path.display()),
        );
        assert!(replies[0].starts_with("OK "), "{}", replies[0]);
        assert!(
            replies[1].starts_with("ERR ") && replies[1].contains("SNAPSHOT takes exactly <path>"),
            "{}",
            replies[1]
        );
        assert!(!path.exists(), "a refused SNAPSHOT must not create a file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

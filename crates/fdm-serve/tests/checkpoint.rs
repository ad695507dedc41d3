//! Checkpoint-pipeline tests: stream-name safety at the engine boundary,
//! the directory-listing delta sweep, the `full_every` edge cases (`0` =
//! deltas disabled, `1` = collapse after every delta), the exact collapse
//! schedule (the delta files on disk after every acknowledged insert), a
//! failed auto-checkpoint that must still acknowledge its insert, and
//! recovery over a chain with a stale (mismatched base-CRC) delta in the
//! *middle* of the list.

use std::io::Cursor;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fdm_client::Client;
use fdm_core::persist::{Snapshot, SnapshotDelta, SnapshotFormat};
use fdm_serve::protocol::{parse_line, Request, StreamSpec};
use fdm_serve::{serve_tcp, serve_unix, Engine, NetOptions, ServeConfig, Session};

const OPEN: &str = "OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30";

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fdm_checkpoint_test_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn insert_lines(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.7391).sin() * 9.0;
            let y = (i as f64 * 0.2113).cos() * 9.0;
            format!("INSERT {i} {} {x} {y}", i % 2)
        })
        .collect()
}

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

fn open_spec() -> StreamSpec {
    match parse_line(OPEN).unwrap().unwrap() {
        Request::Open { spec, .. } => spec,
        other => panic!("{other:?}"),
    }
}

/// The uninterrupted in-memory answer to `QUERY` after `n` inserts.
fn reference_query(n: usize) -> String {
    let engine = Arc::new(Engine::new(ServeConfig::default()).unwrap());
    let mut script = vec![OPEN.to_string()];
    script.extend(insert_lines(n));
    script.push("QUERY".into());
    run_script(&engine, &script.join("\n"))
        .last()
        .unwrap()
        .clone()
}

fn durable_engine(dir: &Path, snapshot_every: u64, full_every: u64) -> Arc<Engine> {
    Arc::new(
        Engine::new(ServeConfig {
            data_dir: Some(dir.to_path_buf()),
            snapshot_every: Some(snapshot_every),
            full_every,
            ..ServeConfig::default()
        })
        .unwrap(),
    )
}

/// Every file in `dir`, relative names, sorted.
fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn delta_files(dir: &Path, name: &str) -> Vec<String> {
    files_in(dir)
        .into_iter()
        .filter(|f| f.starts_with(&format!("{name}.delta.")) && !f.contains(".tmp."))
        .collect()
}

// --- Stream-name safety ----------------------------------------------------

const EVIL_NAMES: &[&str] = &[
    "../escape",
    "..",
    "a/b",
    "a\\b",
    ".hidden",
    "",
    "x..y",
    "../../etc/passwd",
];

/// `Engine::open` / `Engine::restore` are public API (callable without
/// the protocol parser in front): a raw name must not be spliced into
/// `<data-dir>/<name>.snap`-style paths, or `OPEN ../../x` writes outside
/// the data dir.
#[test]
fn engine_refuses_path_escaping_stream_names() {
    let outer = scratch("name_escape_engine");
    let inner = outer.join("inner");
    std::fs::create_dir_all(&inner).unwrap();
    let engine = durable_engine(&inner, 4, 2);
    for name in EVIL_NAMES {
        let err = engine
            .open(name, &open_spec())
            .expect_err(&format!("`{name}` must be refused"))
            .message;
        assert!(err.contains("invalid stream name"), "`{name}`: {err}");
        let err = engine
            .restore(name, inner.join("nonexistent.snap").to_str().unwrap())
            .expect_err(&format!("RESTORE `{name}` must be refused"))
            .message;
        assert!(err.contains("invalid stream name"), "`{name}`: {err}");
    }
    drop(engine);
    assert_eq!(
        files_in(&inner),
        Vec::<String>::new(),
        "a refused OPEN must create nothing inside the data dir"
    );
    assert_eq!(
        files_in(&outer),
        vec!["inner".to_string()],
        "a refused OPEN must create nothing outside the data dir"
    );
    let _ = std::fs::remove_dir_all(&outer);
}

/// The same escape attempt over every transport front-end (stdin session,
/// TCP, Unix socket) answers a typed `ERR` and creates nothing.
#[test]
fn every_transport_refuses_path_escaping_open() {
    let outer = scratch("name_escape_transports");
    let inner = outer.join("inner");
    std::fs::create_dir_all(&inner).unwrap();
    let engine = durable_engine(&inner, 4, 2);
    let evil_open = "OPEN ../escape sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30";

    // Stdin-style in-process session.
    let replies = run_script(&engine, evil_open);
    assert!(replies[0].starts_with("ERR "), "{replies:?}");

    // TCP.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let engine = engine.clone();
        std::thread::spawn(move || serve_tcp(engine, listener, NetOptions::default()));
    }
    let mut client = Client::connect_tcp(addr).unwrap();
    let reply = client.roundtrip(evil_open).unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");

    // Unix socket.
    let socket = outer.join("sock");
    let listener = std::os::unix::net::UnixListener::bind(&socket).unwrap();
    {
        let engine = engine.clone();
        std::thread::spawn(move || serve_unix(engine, listener, NetOptions::default()));
    }
    let mut client = Client::connect_unix(&socket).unwrap();
    let reply = client.roundtrip(evil_open).unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");

    drop(engine);
    assert_eq!(
        files_in(&inner),
        Vec::<String>::new(),
        "a refused OPEN must create nothing inside the data dir"
    );
    assert!(
        !outer.join("escape.snap").exists() && !outer.join("escape.wal").exists(),
        "a refused OPEN must not write outside the data dir: {:?}",
        files_in(&outer)
    );
    let _ = std::fs::remove_dir_all(&outer);
}

// --- Delta sweep -----------------------------------------------------------

/// The post-anchor delta sweep walks the *directory listing*, so stale
/// files survive gaps in the index sequence (the old `1..` walk stopped
/// at the first hole and stranded everything after it).
#[test]
fn anchor_sweep_removes_gapped_delta_files() {
    let dir = scratch("gapped_sweep");
    let engine = durable_engine(&dir, 4, 0); // full_every=0: every checkpoint anchors
    let replies = run_script(&engine, OPEN);
    assert_eq!(replies[0], "OK opened jobs");
    // Plant a gapped chain of stale droppings, as an earlier sweep that
    // failed on some of its removals would leave.
    for index in [1u64, 4, 9] {
        std::fs::write(dir.join(format!("jobs.delta.{index}")), b"stale").unwrap();
    }
    let mut script = vec![OPEN.to_string()];
    script.extend(insert_lines(4));
    let replies = run_script(&engine, &script.join("\n"));
    assert!(replies[1..].iter().all(|r| r.starts_with("OK inserted")));
    drop(engine);
    assert_eq!(
        delta_files(&dir, "jobs"),
        Vec::<String>::new(),
        "the insert-4 anchor must sweep every delta file, gaps included"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// --- full_every edges ------------------------------------------------------

/// `full_every = 0` disables deltas entirely: every checkpoint is an
/// inline full anchor and no `.delta.` file ever exists.
#[test]
fn full_every_zero_disables_deltas() {
    let dir = scratch("full_every_zero");
    let engine = durable_engine(&dir, 4, 0);
    let mut script = vec![OPEN.to_string()];
    script.extend(insert_lines(20));
    script.push("STATS".into());
    let replies = run_script(&engine, &script.join("\n"));
    let stats = replies.last().unwrap();
    // OPEN anchor + checkpoints at 4, 8, 12, 16, 20 — all full.
    assert!(stats.contains("snapshots=6"), "{stats}");
    assert!(stats.contains("deltas=0"), "{stats}");
    assert!(stats.contains("dirty_bytes=0"), "{stats}");
    drop(engine);
    assert_eq!(delta_files(&dir, "jobs"), Vec::<String>::new());

    // Recovery over the pure-full chain is exact.
    let engine = durable_engine(&dir, 4, 0);
    let replies = run_script(&engine, &format!("{OPEN}\nQUERY"));
    assert_eq!(replies[1], reference_query(20));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `full_every = 1` collapses the chain at every checkpoint after a
/// delta: deltas and full anchors alternate, so the on-disk chain never
/// holds more than one delta, and recovery is exact.
#[test]
fn full_every_one_collapses_after_every_checkpoint() {
    let dir = scratch("full_every_one");
    let engine = durable_engine(&dir, 4, 1);
    let mut script = vec![OPEN.to_string()];
    script.extend(insert_lines(40));
    let replies = run_script(&engine, &script.join("\n"));
    assert!(replies[1..].iter().all(|r| r.starts_with("OK inserted")));
    drop(engine);
    assert!(
        delta_files(&dir, "jobs").len() <= 1,
        "chain must stay collapsed to at most full_every deltas: {:?}",
        delta_files(&dir, "jobs")
    );
    let engine = durable_engine(&dir, 4, 1);
    let replies = run_script(&engine, &format!("{OPEN}\nQUERY"));
    assert_eq!(replies[1], reference_query(40));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The collapse schedule, pinned after every insert with no sleep: with
/// `snapshot_every = 4` and `full_every = 2` every checkpoint of this
/// insert sequence lowers to a delta, so checkpoints at 4 and 8 write
/// `delta.1` and `delta.2`, and the one at 12 finds the chain at its cap
/// and writes a full anchor instead, sweeping both. The delta files on
/// disk are always exactly those written since the last full anchor, and
/// recovery from the directory alone is exact.
#[test]
fn chain_collapses_inline_on_a_fixed_schedule() {
    let dir = scratch("collapse_schedule");
    let engine = durable_engine(&dir, 4, 2);
    assert_eq!(run_script(&engine, OPEN), ["OK opened jobs"]);
    for (i, line) in insert_lines(28).iter().enumerate() {
        let n = i + 1;
        let replies = run_script(&engine, &format!("{OPEN}\n{line}\nSTATS"));
        assert_eq!(replies[1], format!("OK inserted processed={n}"));
        let checkpoints = n / 4;
        let collapses = checkpoints / 3;
        let live: Vec<String> = (1..=checkpoints % 3)
            .map(|index| format!("jobs.delta.{index}"))
            .collect();
        assert_eq!(delta_files(&dir, "jobs"), live, "after insert {n}");
        let stats = &replies[2];
        for field in [
            format!("snapshots={}", 1 + collapses),
            format!("deltas={}", checkpoints - collapses),
            format!("compactions={collapses}"),
        ] {
            assert!(
                stats.split_whitespace().any(|f| f == field),
                "after insert {n}: expected {field} in {stats}"
            );
        }
    }
    drop(engine);
    let engine = durable_engine(&dir, 4, 2);
    let replies = run_script(&engine, &format!("{OPEN}\nQUERY"));
    assert_eq!(replies[1], reference_query(28));
    let _ = std::fs::remove_dir_all(&dir);
}

// --- Failed checkpoint -----------------------------------------------------

/// A failed auto-checkpoint must not fail the insert that triggered it:
/// that insert is already in the WAL and applied, so an `ERR` would make
/// a retrying client apply it twice. A directory planted where the first
/// delta goes makes the insert-4 checkpoint fail; the insert is still
/// acknowledged. A second directory planted over `jobs.snap` then makes
/// the full-anchor retries of inserts 5 and 6 fail too. Each failed
/// attempt counts in `checkpoint_failures`; once the directories are gone
/// the insert-7 retry anchors, the counter stays flat, and recovery lands
/// exactly on the acknowledged inserts.
#[test]
fn failed_auto_checkpoint_still_acknowledges_the_insert() {
    let dir = scratch("failed_checkpoint");
    let engine = durable_engine(&dir, 4, 2);
    assert_eq!(run_script(&engine, OPEN), ["OK opened jobs"]);
    let failures = |stats: &str, n: u64| {
        let field = format!("checkpoint_failures={n}");
        assert!(
            stats.split_whitespace().any(|f| f == field),
            "expected {field} in {stats}"
        );
    };
    let blocker = dir.join("jobs.delta.1");
    std::fs::create_dir(&blocker).unwrap();
    let lines = insert_lines(8);
    let replies = run_script(
        &engine,
        &format!("{OPEN}\n{}\nSTATS", lines[..4].join("\n")),
    );
    assert_eq!(replies[4], "OK inserted processed=4", "{replies:?}");
    failures(&replies[5], 1);
    assert!(
        !files_in(&dir).iter().any(|f| f.contains(".tmp.")),
        "the failed write must remove its temp file: {:?}",
        files_in(&dir)
    );

    let snap = dir.join("jobs.snap");
    std::fs::remove_file(&snap).unwrap();
    std::fs::create_dir(&snap).unwrap();
    let replies = run_script(
        &engine,
        &format!("{OPEN}\n{}\nSTATS", lines[4..6].join("\n")),
    );
    assert_eq!(replies[2], "OK inserted processed=6", "{replies:?}");
    failures(&replies[3], 3);

    std::fs::remove_dir(&snap).unwrap();
    std::fs::remove_dir(&blocker).unwrap();
    let mut script = vec![OPEN.to_string()];
    script.extend(lines[6..].iter().cloned());
    script.push("STATS".into());
    let replies = run_script(&engine, &script.join("\n"));
    assert_eq!(replies[2], "OK inserted processed=8", "{replies:?}");
    let stats = &replies[3];
    assert!(
        stats.contains("snapshots=2") && stats.contains("deltas=0"),
        "the insert-7 retry must anchor: {stats}"
    );
    failures(stats, 3);
    drop(engine);

    let engine = durable_engine(&dir, 4, 2);
    let replies = run_script(&engine, &format!("{OPEN}\nSTATS\nQUERY"));
    assert!(replies[1].contains("processed=8"), "{}", replies[1]);
    assert_eq!(replies[2], reference_query(8));
    let _ = std::fs::remove_dir_all(&dir);
}

// --- Stale mid-chain delta -------------------------------------------------

/// A chain whose *middle* delta has a mismatched base CRC — a superseded
/// link that survived its sweep, with a live delta behind it. Recovery
/// must skip the stale link and keep applying the rest, not end the chain
/// there.
#[test]
fn recovery_skips_stale_mid_chain_delta() {
    let dir = scratch("stale_mid_chain");

    // Build three real snapshots of the same stream at 0, 10, and 20
    // arrivals via the public export path.
    let export = |n: usize, path: &Path| {
        let engine = Arc::new(Engine::new(ServeConfig::default()).unwrap());
        let mut script = vec![OPEN.to_string()];
        script.extend(insert_lines(n));
        script.push(format!("SNAPSHOT {}", path.display()));
        let replies = run_script(&engine, &script.join("\n"));
        assert!(
            replies.last().unwrap().starts_with("OK snapshot"),
            "{replies:?}"
        );
    };
    let (s0_path, s1_path, s2_path) = (dir.join("s0"), dir.join("s1"), dir.join("s2"));
    export(0, &s0_path);
    export(10, &s1_path);
    export(20, &s2_path);
    let s0 = Snapshot::read_from_file(&s0_path).unwrap();
    let s1 = Snapshot::read_from_file(&s1_path).unwrap();
    let s2 = Snapshot::read_from_file(&s2_path).unwrap();

    // Chain: snap = S0; delta.1 = S0→S1 (live); delta.2 = S0→S1 again —
    // its base CRC (S0) cannot match the post-delta.1 state (S1), so it
    // is stale; delta.3 = S1→S2 (live, chains off delta.1's result).
    std::fs::write(dir.join("jobs.snap"), s0.to_bytes(SnapshotFormat::Binary)).unwrap();
    std::fs::write(
        dir.join("jobs.delta.1"),
        SnapshotDelta::between(&s0, &s1).unwrap().to_bytes(),
    )
    .unwrap();
    std::fs::write(
        dir.join("jobs.delta.2"),
        SnapshotDelta::between(&s0, &s1).unwrap().to_bytes(),
    )
    .unwrap();
    std::fs::write(
        dir.join("jobs.delta.3"),
        SnapshotDelta::between(&s1, &s2).unwrap().to_bytes(),
    )
    .unwrap();
    std::fs::write(dir.join("jobs.wal"), "0 WALV2\n").unwrap();
    let _ = std::fs::remove_file(&s0_path);
    let _ = std::fs::remove_file(&s1_path);
    let _ = std::fs::remove_file(&s2_path);

    let engine = durable_engine(&dir, 4, 2);
    let replies = run_script(&engine, &format!("{OPEN}\nSTATS\nQUERY"));
    assert!(
        replies[0].starts_with("OK attached jobs"),
        "{:?}",
        replies[0]
    );
    assert!(
        replies[1].contains("processed=20"),
        "stale mid-chain delta must be skipped, not end the chain: {}",
        replies[1]
    );
    assert_eq!(replies[2], reference_query(20));
    let _ = std::fs::remove_dir_all(&dir);
}

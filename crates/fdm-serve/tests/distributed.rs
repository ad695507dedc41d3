//! Distributed-identity suite for coordinator mode.
//!
//! The correctness anchor of the coordinator/worker fan-out: a coordinator
//! over K workers must answer every QUERY **bit-identically** to a
//! single-process `ShardedStream` with K shards fed the same arrival
//! order. The property holds because the coordinator's round-robin insert
//! routing *is* `ShardedStream`'s element-to-shard assignment, and its
//! MERGE fan-in streams the workers' unions through
//! `ShardedStream::finalize`'s merge pass operation-for-operation
//! (`summary::merge_unions`).
//!
//! Plus the failure cells: a dead worker degrades to a typed
//! `ERR worker unavailable: <addr>: <cause>` — never a hang — with the
//! outage visible in STATS and `/metrics`; a SIGKILLed worker restarts
//! from its own WAL and the next QUERY is exact; a worker that crashes
//! *inside* an insert (the WAL append → apply gap, via
//! `FDM_SERVE_CRASH_POINT`) replays the appended record on restart and a
//! restarted coordinator re-derives `processed`/cursor from the workers'
//! positions.

use std::io::Write as _;
use std::net::TcpListener;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use fdm_client::Client;
use fdm_core::point::Element;
use fdm_serve::protocol::{parse_line, ErrorKind, Payload, Request as Cmd, StreamSpec};
use fdm_serve::{serve_tcp, Engine, NetOptions, ServeConfig, Session};
use proptest::prelude::*;

// --- In-process cluster helpers -------------------------------------------

/// Starts one in-process worker engine behind a TCP listener and returns
/// its `ADDR:PORT` (the accept loop runs until the test process exits).
fn start_worker() -> String {
    let engine = Arc::new(Engine::new(ServeConfig::default()).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || serve_tcp(engine, listener, NetOptions::default()));
    addr.to_string()
}

/// A coordinator engine over `k` fresh in-process workers.
fn coordinator_over(workers: Vec<String>) -> Arc<Engine> {
    Arc::new(
        Engine::new(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
        .unwrap(),
    )
}

fn coordinator(k: usize) -> Arc<Engine> {
    coordinator_over((0..k).map(|_| start_worker()).collect())
}

/// The OPEN tail for one family member; `shards > 1` only on the
/// single-process reference (coordinator streams are always unsharded —
/// the workers are the shards).
fn open_line(algo: &str, shards: usize) -> String {
    let mut line = format!("OPEN jobs {algo} quotas=2,2 eps=0.1 dmin=0.05 dmax=30");
    if algo == "sliding" {
        line.push_str(" window=16");
    }
    if shards > 1 {
        line.push_str(&format!(" shards={shards}"));
    }
    line
}

fn spec_of(line: &str) -> (String, StreamSpec) {
    match parse_line(line).unwrap().unwrap() {
        Cmd::Open { name, spec } => (name, spec),
        other => panic!("{other:?}"),
    }
}

/// Feeds one arrival order and returns the QUERY outcome (errors included:
/// both sides must fail identically too).
fn feed_and_query(
    engine: &Engine,
    open: &str,
    arrivals: &[Element],
) -> Result<Payload, fdm_serve::protocol::ErrorReply> {
    let (name, spec) = spec_of(open);
    engine.open(&name, &spec)?;
    for e in arrivals {
        let line = format!(
            "INSERT {} {} {}",
            e.id,
            e.group,
            e.point
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        );
        engine.insert(&name, e, &line)?;
    }
    engine.query(&name, None)
}

fn deterministic_arrivals(n: usize) -> Vec<Element> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.7391).sin() * 9.0;
            let y = (i as f64 * 0.2113).cos() * 9.0;
            Element::new(i, vec![x, y], i % 2)
        })
        .collect()
}

// --- The bit-identity property --------------------------------------------

/// Random two-group streams with every group pinned to ≥ 4 early members,
/// so quotas=2,2 stays feasible regardless of the random labels.
fn arrivals_strategy() -> impl Strategy<Value = Vec<Element>> {
    proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0usize..2), 40..=96).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (x, y, g))| {
                let group = if i < 8 { i % 2 } else { g };
                Element::new(i, vec![x, y], group)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary arrival orders × K ∈ {1, 2, 4} × the family: the
    /// coordinator's QUERY must be bit-identical (ids and the exact f64
    /// diversity) to a single-process `ShardedStream` with K shards.
    #[test]
    fn coordinator_query_is_bit_identical_to_sharded_stream(
        arrivals in arrivals_strategy(),
        k in prop_oneof![Just(1usize), Just(2), Just(4)],
        algo in prop_oneof![Just("sfdm1"), Just("sfdm2"), Just("sliding")],
    ) {
        let reference = feed_and_query(
            &Engine::new(ServeConfig::default()).unwrap(),
            &open_line(algo, k),
            &arrivals,
        );
        let distributed = feed_and_query(&coordinator(k), &open_line(algo, 1), &arrivals);
        prop_assert_eq!(&distributed, &reference, "K={} algo={}", k, algo);
        if let (Ok(Payload::Query(d)), Ok(Payload::Query(r))) = (&distributed, &reference) {
            prop_assert_eq!(
                d.diversity.to_bits(),
                r.diversity.to_bits(),
                "diversity must match to the bit (K={}, algo={})",
                k,
                algo
            );
        }
    }
}

/// The batch-size grid for the pipelined INSERTB path: 1 (degenerate),
/// 7 (coprime with every K in the grid, so flush rounds straddle worker
/// boundaries), K (exactly one element per worker), 3K+1 (several whole
/// rounds plus a remainder).
fn batch_sizes(k: usize) -> [usize; 4] {
    [1, 7, k, 3 * k + 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched fan-out × interleaved MERGE fan-in. Arrivals feed via
    /// `INSERTB` in batches from `batch_sizes`, split into three segments
    /// with a QUERY after each: every such QUERY pulls a union block from
    /// each worker, and an immediate repeat QUERY must come from the
    /// merged-solution cache. Every QUERY — pulled or cached — must be
    /// bit-identical to a single-process `ShardedStream` fed the same
    /// prefix.
    #[test]
    fn batched_inserts_with_merge_are_bit_identical(
        arrivals in arrivals_strategy(),
        k in prop_oneof![Just(1usize), Just(2), Just(4)],
        algo in prop_oneof![Just("sfdm1"), Just("sfdm2"), Just("sliding")],
        batch_sel in 0usize..4,
    ) {
        let batch = batch_sizes(k)[batch_sel];
        let workers: Vec<String> = (0..k).map(|_| start_worker()).collect();
        let engine = coordinator_over(workers);
        let (name, spec) = spec_of(&open_line(algo, 1));
        engine.open(&name, &spec).unwrap();
        let reference = Engine::new(ServeConfig::default()).unwrap();
        let (ref_name, ref_spec) = spec_of(&open_line(algo, k));
        reference.open(&ref_name, &ref_spec).unwrap();

        let segment_len = arrivals.len().div_ceil(3);
        let mut fed = 0usize;
        for (i, segment) in arrivals.chunks(segment_len).enumerate() {
            for chunk in segment.chunks(batch) {
                match engine.insert_batch(&name, chunk).unwrap() {
                    Payload::InsertedBatch { seq, count } => {
                        fed += chunk.len();
                        prop_assert_eq!(seq, fed);
                        prop_assert_eq!(count, chunk.len());
                    }
                    other => prop_assert!(false, "unexpected reply {:?}", other),
                }
                for e in chunk {
                    insert_via(&reference, &ref_name, e).unwrap();
                }
            }
            let distributed = engine.query(&name, None).unwrap();
            let expected = reference.query(&ref_name, None).unwrap();
            prop_assert_eq!(
                &distributed, &expected,
                "segment {} (K={}, algo={}, batch={})", i, k, algo, batch
            );
            if let (Payload::Query(d), Payload::Query(r)) = (&distributed, &expected) {
                prop_assert_eq!(
                    d.diversity.to_bits(),
                    r.diversity.to_bits(),
                    "diversity must match to the bit"
                );
            }
            // No insert intervened: this repeat must be a cache hit — and
            // identical anyway.
            prop_assert_eq!(&engine.query(&name, None).unwrap(), &expected);
        }
    }
}

/// The golden cell: one fixed stream, K = 2, rendered through a protocol
/// session — the coordinator's reply lines are pinned verbatim, and the
/// QUERY line equals the single-process `shards=2` rendering.
#[test]
fn golden_coordinator_session_matches_sharded_reference() {
    let arrivals = deterministic_arrivals(50);
    let run = |engine: Arc<Engine>, open: &str| -> Vec<String> {
        let mut script = vec![open.to_string()];
        for e in &arrivals {
            let coords: Vec<String> = e.point.iter().map(f64::to_string).collect();
            script.push(format!("INSERT {} {} {}", e.id, e.group, coords.join(" ")));
        }
        script.push("QUERY".into());
        let mut output = Vec::new();
        Session::new(engine)
            .run(
                std::io::Cursor::new(script.join("\n").into_bytes()),
                &mut output,
            )
            .unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    };

    let coordinator_lines = run(coordinator(2), &open_line("sfdm2", 1));
    let reference_lines = run(
        Arc::new(Engine::new(ServeConfig::default()).unwrap()),
        &open_line("sfdm2", 2),
    );
    assert_eq!(
        coordinator_lines, reference_lines,
        "every rendered coordinator reply must match the sharded reference"
    );
    assert_eq!(
        coordinator_lines.last().unwrap(),
        GOLDEN_QUERY,
        "the pinned golden QUERY reply"
    );
}

/// The exact QUERY reply of `golden_coordinator_session_matches_sharded_reference`:
/// 50 deterministic arrivals, sfdm2 quotas=2,2 eps=0.1, K = 2. Any change
/// here is a wire-visible behavior change of the whole merge path.
const GOLDEN_QUERY: &str = "OK k=4 diversity=10.713654459069144 ids=0,6,9,15";

/// Runs one scripted session and returns its reply lines.
fn session_replies(engine: Arc<Engine>, script: &[String]) -> Vec<String> {
    let mut output = Vec::new();
    Session::new(engine)
        .run(
            std::io::Cursor::new(script.join("\n").into_bytes()),
            &mut output,
        )
        .unwrap();
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// The coordinator forwards the client's entry text, so a valid line
/// never grows on its way to a worker. Re-rendering did: `Display` spells
/// `1e-300` as a 302-byte decimal, which inflated this 59 KB INSERTB (256
/// elements, d=32) past the worker's 1 MiB frame guard and got it
/// refused. Now it is acked whole and answers like a K=2
/// `ShardedStream` fed the same elements.
#[test]
fn insertb_of_short_spellings_stays_under_the_worker_frame_guard() {
    let entries: Vec<String> = (0..256usize)
        .map(|i| {
            let coords: Vec<&str> = (0..32usize)
                .map(|j| {
                    if (i.wrapping_mul(2_654_435_761) + j * 40_503) >> 7 & 1 == 1 {
                        "2e-300"
                    } else {
                        "1e-300"
                    }
                })
                .collect();
            format!("{i} {} {}", i % 2, coords.join(" "))
        })
        .collect();
    let insertb = format!("INSERTB {}", entries.join(" | "));
    assert!(insertb.len() < 64 << 10, "{}", insertb.len());
    // Manhattan keeps these distances representable (squares underflow).
    let open = |shards: usize| {
        let mut line =
            "OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=1e-300 dmax=4e-299 metric=manhattan"
                .to_string();
        if shards > 1 {
            line.push_str(&format!(" shards={shards}"));
        }
        line
    };
    let script = |shards: usize| vec![open(shards), insertb.clone(), "QUERY".to_string()];
    let distributed = session_replies(coordinator(2), &script(1));
    let reference = session_replies(
        Arc::new(Engine::new(ServeConfig::default()).unwrap()),
        &script(2),
    );
    assert_eq!(distributed[1], "OK inserted processed=256 count=256");
    assert!(distributed[2].starts_with("OK k=4 "), "{}", distributed[2]);
    assert_eq!(distributed, reference);
}

/// The client's spelling of every float reaches a durable worker's WAL
/// verbatim — `0.10000000000000001` and `1.50` are not what `Display`
/// renders — and a SIGKILLed worker replays those records to a state
/// whose merged QUERY is bit-identical to a K=2 `ShardedStream` fed the
/// same elements.
#[test]
fn client_spelling_reaches_worker_wals_and_replays_exactly() {
    let entries: Vec<String> = (0..12usize)
        .map(|i| {
            format!(
                "{i} {} {}.{}0 0.10000000000000001 1.50",
                i % 2,
                (i * 5) % 11,
                i % 10
            )
        })
        .collect();
    let insertb = format!("INSERTB {}", entries.join(" | "));
    let dirs = [scratch("spelling_w0"), scratch("spelling_w1")];
    let (mut w0, addr0) = spawn_worker(&dirs[0], None);
    let (mut w1, addr1) = spawn_worker(&dirs[1], None);
    let replies = session_replies(
        coordinator_over(vec![addr0, addr1]),
        &[open_line("sfdm2", 1), insertb.clone()],
    );
    assert_eq!(replies[1], "OK inserted processed=12 count=12");

    // Six arrivals per worker stay below `--snapshot-every 8`, so every
    // record is still in the WAL: worker w holds entries w, w+2, ... at
    // positions 1, 2, ....
    for (w, dir) in dirs.iter().enumerate() {
        let wal = std::fs::read_to_string(dir.join("jobs.wal")).unwrap();
        for (pos, entry) in entries.iter().skip(w).step_by(2).enumerate() {
            let record = format!("{} INSERT {entry} #", pos + 1);
            assert!(
                wal.lines().any(|line| line.starts_with(&record)),
                "worker {w} WAL lacks `{record}`:\n{wal}"
            );
        }
    }

    for worker in [&mut w0, &mut w1] {
        worker.kill().unwrap();
        let _ = worker.wait();
    }
    let (_w0b, addr0b) = spawn_worker(&dirs[0], None);
    let (_w1b, addr1b) = spawn_worker(&dirs[1], None);
    let engine = coordinator_over(vec![addr0b, addr1b]);
    let (name, spec) = spec_of(&open_line("sfdm2", 1));
    match engine.open(&name, &spec).unwrap() {
        Payload::Attached { processed, .. } => assert_eq!(processed, 12, "WAL replay"),
        other => panic!("{other:?}"),
    }
    let reference = Engine::new(ServeConfig::default()).unwrap();
    let (ref_name, ref_spec) = spec_of(&open_line("sfdm2", 2));
    reference.open(&ref_name, &ref_spec).unwrap();
    let elements = match parse_line(&insertb).unwrap().unwrap() {
        Cmd::InsertBatch(elements) => elements,
        other => panic!("{other:?}"),
    };
    reference.insert_batch(&ref_name, &elements).unwrap();
    let (distributed, expected) = match (
        engine.query(&name, None).unwrap(),
        reference.query(&ref_name, None).unwrap(),
    ) {
        (Payload::Query(d), Payload::Query(r)) => (d, r),
        other => panic!("{other:?}"),
    };
    assert_eq!(distributed, expected);
    assert_eq!(
        distributed.diversity.to_bits(),
        expected.diversity.to_bits()
    );
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

// --- Typed failure cells ---------------------------------------------------

/// A worker nobody listens on: OPEN fails with the typed
/// `worker unavailable` error naming the address — after bounded connect
/// retries, never a hang.
#[test]
fn unreachable_worker_degrades_typed() {
    // Bind-then-drop reserves an address that will refuse connections.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let engine = coordinator_over(vec![addr.clone()]);
    let (name, spec) = spec_of(&open_line("sfdm2", 1));
    let started = std::time::Instant::now();
    let err = engine.open(&name, &spec).unwrap_err();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "the failure must be bounded by the connect retry budget"
    );
    assert_eq!(err.kind, ErrorKind::WorkerUnavailable);
    assert!(
        err.message.starts_with(&addr),
        "the error must name the failing worker: {err}"
    );
    assert!(err.to_string().starts_with("worker unavailable: "), "{err}");
}

/// A version-3 worker answers `MERGE` with a v2 snapshot frame, not a
/// union block. Played here by a stub that speaks just OPEN and MERGE:
/// the coordinator's QUERY fails with a typed error naming that worker —
/// never a wrong answer — and the worker stays up (the reply was read in
/// full, so the connection is still in step).
#[test]
fn version3_worker_snapshot_frame_is_a_typed_error_naming_the_worker() {
    let (name, spec) = spec_of(&open_line("sfdm2", 1));
    let mut summary =
        fdm_core::streaming::summary::build(&spec.to_summary_spec().unwrap()).unwrap();
    for e in deterministic_arrivals(10) {
        summary.insert(&e);
    }
    let frame = summary
        .snapshot()
        .to_bytes(fdm_core::persist::SnapshotFormat::Binary);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let old = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(conn) = conn else { return };
            let frame = frame.clone();
            std::thread::spawn(move || {
                use std::io::BufRead as _;
                let mut out = conn.try_clone().unwrap();
                for line in std::io::BufReader::new(conn).lines() {
                    let Ok(line) = line else { return };
                    let reply = if line.starts_with("OPEN") {
                        b"OK opened jobs\n".to_vec()
                    } else if line == "MERGE" {
                        let mut reply = format!(
                            "OK merge algorithm=sfdm2 processed=10 bytes={}\n",
                            frame.len()
                        )
                        .into_bytes();
                        reply.extend_from_slice(&frame);
                        reply
                    } else {
                        b"ERR unsupported\n".to_vec()
                    };
                    if out.write_all(&reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    let engine = coordinator_over(vec![old.clone(), start_worker()]);
    engine.open(&name, &spec).unwrap();
    let err = engine.query(&name, None).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Generic);
    assert!(
        err.message
            .starts_with(&format!("worker {old}: MERGE: not a union block")),
        "{err}"
    );
    assert_eq!(
        metric(&engine, &format!("fdm_worker_up{{worker=\"{old}\"}}")),
        1
    );
}

/// Coordinator streams reject `shards=` (the workers are the shards) and
/// QUERY on a zero-arrival stream is the typed `empty stream` error — on
/// the coordinator exactly as on a single node.
#[test]
fn coordinator_rejects_shards_and_types_empty_query() {
    let engine = coordinator(2);
    let (name, spec) = spec_of(&open_line("sfdm2", 2));
    let err = engine.open(&name, &spec).unwrap_err();
    assert!(err.message.contains("shards=1"), "{err}");

    for engine in [
        coordinator(2),
        Arc::new(Engine::new(ServeConfig::default()).unwrap()),
    ] {
        let (name, spec) = spec_of(&open_line("sfdm2", 1));
        engine.open(&name, &spec).unwrap();
        let err = engine.query(&name, None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::EmptyStream);
        assert_eq!(
            err.to_string(),
            "empty stream: stream `jobs` has processed no elements; INSERT before QUERY"
        );
    }
}

/// Each worker fixes a stream's dimension from its own first element, so
/// the coordinator keeps the dimension itself: the first acknowledged
/// insert fixes it, and an element of another dimension — in either order,
/// alone or inside an `INSERTB` — is refused with a typed `ERR` before
/// anything is routed. Before, both inserts were acked on different
/// workers and every later QUERY panicked in the merge. A coordinator
/// restarted over the same workers learns the dimension from them.
#[test]
fn coordinator_refuses_a_second_dimension_in_either_order() {
    let entry = |i: usize, dim: usize| {
        let coords: Vec<String> = (0..dim)
            .map(|j| ((((i * 7 + j) as f64) * 0.37).sin() * 9.0).to_string())
            .collect();
        format!("{i} {} {}", i % 2, coords.join(" "))
    };
    let insert = |i: usize, dim: usize| format!("INSERT {}", entry(i, dim));
    for (dim, other) in [(2, 3), (3, 2)] {
        let mismatch = format!("ERR dimension mismatch: expected {dim}, found {other}");
        let workers = vec![start_worker(), start_worker()];
        // (request, refused?)
        let mut script = vec![
            (open_line("sfdm2", 1), false),
            (insert(0, dim), false),
            (insert(1, other), true),
            (
                format!("INSERTB {} | {}", entry(1, dim), entry(2, other)),
                true,
            ),
        ];
        script.extend((1..16).map(|i| (insert(i, dim), false)));
        script.push(("QUERY".to_string(), false));
        script.push(("STATS".to_string(), false));
        let lines: Vec<String> = script.iter().map(|(line, _)| line.clone()).collect();
        let replies = session_replies(coordinator_over(workers.clone()), &lines);
        assert_eq!(replies.len(), script.len(), "{replies:?}");
        for ((line, refused), reply) in script.iter().zip(&replies) {
            if *refused {
                assert_eq!(reply, &mismatch, "{line}");
            } else {
                assert!(reply.starts_with("OK "), "{line} -> {reply}");
            }
        }
        assert!(
            replies[replies.len() - 1].contains(" processed=16"),
            "{replies:?}"
        );

        // A restarted coordinator takes the dimension from the workers.
        let lines = vec![
            open_line("sfdm2", 1),
            insert(16, other),
            insert(16, dim),
            "QUERY".to_string(),
        ];
        let replies = session_replies(coordinator_over(workers), &lines);
        assert!(replies[0].starts_with("OK attached"), "{replies:?}");
        assert_eq!(replies[1], mismatch);
        assert!(replies[2].starts_with("OK "), "{replies:?}");
        assert!(replies[3].starts_with("OK k=4 "), "{replies:?}");
    }
}

// --- Crash cells over real worker binaries ---------------------------------

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdm_distributed_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A spawned worker process, SIGKILLed and reaped on drop so no test —
/// passing or panicking — leaves a worker listening. Derefs to the
/// [`Child`] for explicit mid-test `kill()`/`wait()`.
struct Worker(Child);

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Deref for Worker {
    type Target = Child;

    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for Worker {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

/// Spawns a real `fdm-serve` worker with a TCP listener and returns the
/// guarded child plus its `ADDR:PORT` (parsed from the "listening on"
/// stderr line). Mirrors the crash-matrix helper; stdin is held open so
/// the process keeps serving.
fn spawn_worker(dir: &Path, crash_point: Option<&str>) -> (Worker, String) {
    spawn_worker_on(dir, crash_point, "127.0.0.1:0")
}

/// `spawn_worker` with an explicit listen address, for restarting a
/// killed worker on the port a still-running coordinator already holds.
fn spawn_worker_on(dir: &Path, crash_point: Option<&str>, listen: &str) -> (Worker, String) {
    use std::io::{BufRead, BufReader};
    let mut command = Command::new(env!("CARGO_BIN_EXE_fdm-serve"));
    command
        .args([
            "--data-dir",
            dir.to_str().unwrap(),
            "--snapshot-every",
            "8",
            "--listen",
            listen,
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    if let Some(point) = crash_point {
        command.env("FDM_SERVE_CRASH_POINT", point);
    }
    let mut child = Worker(command.spawn().expect("spawn fdm-serve worker"));
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut addr = None;
    let mut line = String::new();
    while stderr.read_line(&mut line).unwrap_or(0) > 0 {
        if let Some(rest) = line.trim().strip_prefix("fdm-serve: listening on tcp://") {
            addr = Some(rest.to_string());
            break;
        }
        line.clear();
    }
    std::thread::spawn(move || {
        let mut sink = String::new();
        while stderr.read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
    });
    (child, addr.expect("no tcp listen line on worker stderr"))
}

fn insert_via(
    engine: &Engine,
    name: &str,
    e: &Element,
) -> Result<Payload, fdm_serve::protocol::ErrorReply> {
    let coords: Vec<String> = e.point.iter().map(f64::to_string).collect();
    let line = format!("INSERT {} {} {}", e.id, e.group, coords.join(" "));
    engine.insert(name, e, &line)
}

/// A coordinator forwards `OPEN` to its workers, so an oversized spec is
/// refused by the first worker it reaches, and every node keeps serving.
/// The workers are real processes: a worker that aborted on the spec (as
/// one sizing every candidate by k = 2^40 + 1 used to) would show here as
/// a `worker unavailable` reply, not kill the test process.
#[test]
fn coordinator_passes_on_the_workers_refusal_of_an_oversized_open() {
    let dirs = [scratch("oversized_w0"), scratch("oversized_w1")];
    let (mut w0, addr0) = spawn_worker(&dirs[0], None);
    let (mut w1, addr1) = spawn_worker(&dirs[1], None);
    let engine = coordinator_over(vec![addr0, addr1]);
    let script: Vec<String> = [
        "OPEN big sfdm2 quotas=1099511627776,1 eps=0.1 dmin=0.05 dmax=30",
        "PING",
        "OPEN ok sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30",
    ]
    .map(String::from)
    .to_vec();
    let replies = session_replies(engine, &script);
    assert!(
        replies[0].starts_with("ERR summary too large"),
        "{}",
        replies[0]
    );
    assert_eq!(replies[1], "OK pong");
    assert_eq!(replies[2], "OK opened ok");
    for worker in [&mut w0, &mut w1] {
        assert!(worker.try_wait().unwrap().is_none(), "a worker exited");
    }
    drop((w0, w1));
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// SIGKILL a worker mid-stream: the next insert routed to it fails typed
/// (named address, health down in STATS and `/metrics`), the worker
/// restarts over its own data dir (WAL replay), a restarted coordinator
/// re-derives `processed`/cursor from the workers — and the next QUERY is
/// byte-identical to an uninterrupted single-process K=2 run.
#[test]
fn worker_sigkill_restart_then_query_exact() {
    let arrivals = deterministic_arrivals(30);
    let dir0 = scratch("sigkill_w0");
    let dir1 = scratch("sigkill_w1");
    let (mut w0, addr0) = spawn_worker(&dir0, None);
    let (w1, addr1) = spawn_worker(&dir1, None);

    let engine = coordinator_over(vec![addr0.clone(), addr1.clone()]);
    let (name, spec) = spec_of(&open_line("sfdm2", 1));
    engine.open(&name, &spec).unwrap();
    for e in &arrivals[..20] {
        insert_via(&engine, &name, e).unwrap();
    }

    // Cursor is at worker 0 (20 % 2): kill exactly the worker the next
    // insert routes to. SIGKILL = no cleanup, the WAL is the recovery.
    w0.kill().unwrap();
    let _ = w0.wait();
    let err = insert_via(&engine, &name, &arrivals[20]).unwrap_err();
    assert_eq!(err.kind, ErrorKind::WorkerUnavailable);
    assert!(err.message.starts_with(&addr0), "{err}");

    // The outage is operator-visible.
    let stats = match engine.stats(&name).unwrap() {
        Payload::Stats(line) => line,
        other => panic!("{other:?}"),
    };
    assert!(stats.contains("worker0_up=0"), "{stats}");
    assert!(stats.contains("worker1_up=1"), "{stats}");
    let metrics = engine.render_metrics();
    assert!(
        metrics.contains(&format!("fdm_worker_up{{worker=\"{addr0}\"}} 0")),
        "{metrics}"
    );
    assert!(
        metrics.contains(&format!(
            "fdm_worker_failures_total{{worker=\"{addr0}\"}} 1"
        )),
        "{metrics}"
    );

    // Restart worker 0 over the same data dir (fresh port — ports are
    // config, the data dir is the identity) and restart the coordinator:
    // it must re-derive processed=20 and cursor=0 from the workers.
    let (_w0b, addr0b) = spawn_worker(&dir0, None);
    let engine = coordinator_over(vec![addr0b, addr1]);
    match engine.open(&name, &spec).unwrap() {
        Payload::Attached { processed, .. } => assert_eq!(processed, 20, "WAL replay"),
        other => panic!("{other:?}"),
    }
    for e in &arrivals[20..] {
        insert_via(&engine, &name, e).unwrap();
    }

    let reference = feed_and_query(
        &Engine::new(ServeConfig::default()).unwrap(),
        &open_line("sfdm2", 2),
        &arrivals,
    )
    .unwrap();
    assert_eq!(
        engine.query(&name, None).unwrap(),
        reference,
        "post-restart QUERY must be bit-identical to the uninterrupted sharded run"
    );
    drop(w1);
    let _ = std::fs::remove_dir_all(&dir0);
    let _ = std::fs::remove_dir_all(&dir1);
}

/// The WAL append → apply gap on a *worker*, under coordinator traffic:
/// the armed insert dies without an ack (typed error at the coordinator),
/// but the record is in the worker's WAL — restart replays it, and the
/// restarted coordinator's re-derived position counts it. The continued
/// stream still matches the uninterrupted reference, because the crashed
/// element landed exactly where the round-robin order says it belongs.
#[test]
fn worker_crash_in_wal_gap_replays_and_stays_identical() {
    let arrivals = deterministic_arrivals(30);
    let dir0 = scratch("walgap_w0");
    let dir1 = scratch("walgap_w1");
    // Worker 0 aborts inside its 11th insert, after the WAL append.
    let (_w0, addr0) = spawn_worker(&dir0, Some("between-wal-append-and-apply:11"));
    let (_w1, addr1) = spawn_worker(&dir1, None);

    let engine = coordinator_over(vec![addr0.clone(), addr1.clone()]);
    let (name, spec) = spec_of(&open_line("sfdm2", 1));
    engine.open(&name, &spec).unwrap();
    for e in &arrivals[..20] {
        insert_via(&engine, &name, e).unwrap();
    }
    // Arrival 20 is worker 0's 11th insert: the crash point fires between
    // its WAL append and its apply — no ack, typed failure.
    let err = insert_via(&engine, &name, &arrivals[20]).unwrap_err();
    assert_eq!(err.kind, ErrorKind::WorkerUnavailable);
    assert!(err.message.starts_with(&addr0), "{err}");

    // Restart worker 0: recovery replays the appended record, so the
    // worker holds 11 arrivals — the un-acked element applied after all.
    // A restarted coordinator derives processed=21, cursor=1 and the
    // stream continues as if the crash never happened.
    let (_w0b, addr0b) = spawn_worker(&dir0, None);
    let engine = coordinator_over(vec![addr0b, addr1]);
    match engine.open(&name, &spec).unwrap() {
        Payload::Attached { processed, .. } => {
            assert_eq!(processed, 21, "the WAL-appended record must replay")
        }
        other => panic!("{other:?}"),
    }
    let stats = match engine.stats(&name).unwrap() {
        Payload::Stats(line) => line,
        other => panic!("{other:?}"),
    };
    assert!(stats.contains("cursor=1"), "{stats}");
    for e in &arrivals[21..] {
        insert_via(&engine, &name, e).unwrap();
    }

    let reference = feed_and_query(
        &Engine::new(ServeConfig::default()).unwrap(),
        &open_line("sfdm2", 2),
        &arrivals,
    )
    .unwrap();
    assert_eq!(engine.query(&name, None).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir0);
    let _ = std::fs::remove_dir_all(&dir1);
}

/// The value of one `/metrics` sample line (`<name>{labels} <value>`).
fn metric(engine: &Engine, sample: &str) -> u64 {
    let metrics = engine.render_metrics();
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(sample)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no `{sample}` in {metrics}"))
        .parse()
        .unwrap()
}

/// The length of the union block a bare `MERGE` pulls straight off a
/// worker.
fn worker_block_len(addr: &str, open: &str) -> u64 {
    let (name, spec) = spec_of(open);
    let mut client = Client::connect_tcp_retry(addr, 5, Duration::from_millis(25)).unwrap();
    client.open(&name, &spec).unwrap();
    let (_algorithm, _processed, bytes) = client.merge().unwrap();
    let union = fdm_serve::protocol::decode_union(&bytes).unwrap();
    assert_eq!(bytes.len(), 24 + union.len() * (16 + 2 * 8) + 4);
    bytes.len() as u64
}

/// Kill a worker *after* the coordinator has fetched MERGE blocks from
/// the fleet: a repeat QUERY with no intervening insert still answers —
/// served from the merged-solution cache, dead worker notwithstanding,
/// and pulling no bytes; an insert invalidates that cache and the next
/// QUERY fails typed, naming the dead worker; and once the worker
/// restarts over its own data dir (same port) the next QUERY pulls
/// exactly one union block per worker and answers bit-identically to the
/// uninterrupted reference.
#[test]
fn worker_killed_mid_query_cycle_recovers_bit_identical() {
    let arrivals = deterministic_arrivals(21);
    let dir0 = scratch("midquery_w0");
    let dir1 = scratch("midquery_w1");
    let (_w0, addr0) = spawn_worker(&dir0, None);
    let (mut w1, addr1) = spawn_worker(&dir1, None);

    let engine = coordinator_over(vec![addr0.clone(), addr1.clone()]);
    let (name, spec) = spec_of(&open_line("sfdm2", 1));
    engine.open(&name, &spec).unwrap();
    engine.insert_batch(&name, &arrivals[..20]).unwrap();

    // This QUERY pulls one union block per worker.
    let reference20 = feed_and_query(
        &Engine::new(ServeConfig::default()).unwrap(),
        &open_line("sfdm2", 2),
        &arrivals[..20],
    )
    .unwrap();
    assert_eq!(engine.query(&name, None).unwrap(), reference20);

    w1.kill().unwrap();
    let _ = w1.wait();

    // No insert intervened: the merged solution is served from cache,
    // and no worker is touched.
    const FULL: &str = "fdm_merge_bytes_total{kind=\"full\"}";
    const HITS: &str = "fdm_merge_cache_hits_total";
    let (full0, hits0) = (metric(&engine, FULL), metric(&engine, HITS));
    assert!(full0 > 0);
    assert_eq!(engine.query(&name, None).unwrap(), reference20);
    assert_eq!(metric(&engine, FULL), full0);
    assert_eq!(metric(&engine, HITS), hits0 + 1);

    // Cursor is at worker 0 (20 % 2), so the insert lands on the live
    // worker — and invalidates the cached solution. The next QUERY must
    // walk the fleet again and fails typed on the dead worker.
    insert_via(&engine, &name, &arrivals[20]).unwrap();
    let err = engine.query(&name, None).unwrap_err();
    assert_eq!(err.kind, ErrorKind::WorkerUnavailable);
    assert!(err.message.starts_with(&addr1), "{err}");

    // Restart worker 1 on its old port over its own data dir: the
    // coordinator re-dials lazily, and the next QUERY pulls exactly the
    // blocks a bare MERGE reads off each worker. The answer must be exact.
    let (_w1b, _) = spawn_worker_on(&dir1, None, &addr1);
    let blocks: u64 = [&addr0, &addr1]
        .iter()
        .map(|addr| worker_block_len(addr, &open_line("sfdm2", 1)))
        .sum();
    let full1 = metric(&engine, FULL);
    let reference21 = feed_and_query(
        &Engine::new(ServeConfig::default()).unwrap(),
        &open_line("sfdm2", 2),
        &arrivals,
    )
    .unwrap();
    assert_eq!(
        engine.query(&name, None).unwrap(),
        reference21,
        "post-restart QUERY must stay bit-identical"
    );
    assert_eq!(metric(&engine, FULL), full1 + blocks);
    let _ = std::fs::remove_dir_all(&dir0);
    let _ = std::fs::remove_dir_all(&dir1);
}

/// Mid-batch worker death *before* any WAL append — the acked prefix is
/// exactly what survives. Worker 0 aborts at the start of its second
/// `INSERTB` sub-batch, so of the second coordinator flush only worker
/// 1's half lands: the coordinator acks the longest contiguous prefix
/// (nothing of that flush), names the blocking worker in the typed
/// error, keeps `cursor ≡ processed mod K`, and remembers worker 1's
/// landed extras. After worker 0 restarts, a fresh coordinator
/// re-derives the acked prefix from the workers' positions and the
/// client's replay of the whole unacked suffix heals worker 1's half by
/// skip — ending bit-identical to the uninterrupted reference. The
/// replay runs both as one `INSERTB` and as per-element `INSERT`s: the
/// skip must hold for either verb.
#[test]
fn batch_crash_before_wal_append_acks_exact_prefix() {
    for per_element in [false, true] {
        batch_crash_before_wal_append_then_replay(per_element);
    }
}

fn batch_crash_before_wal_append_then_replay(per_element: bool) {
    let arrivals = deterministic_arrivals(16);
    let dir0 = scratch(&format!("batch_pre_w0_{per_element}"));
    let dir1 = scratch(&format!("batch_pre_w1_{per_element}"));
    let (_w0, addr0) = spawn_worker(&dir0, Some("before-batch-wal-append:2"));
    let (_w1, addr1) = spawn_worker(&dir1, None);
    let engine = coordinator_over(vec![addr0.clone(), addr1.clone()]);
    let (name, spec) = spec_of(&open_line("sfdm2", 1));
    engine.open(&name, &spec).unwrap();

    match engine.insert_batch(&name, &arrivals[..8]).unwrap() {
        Payload::InsertedBatch { seq, count } => {
            assert_eq!((seq, count), (8, 8));
        }
        other => panic!("{other:?}"),
    }
    // Second flush: worker 0 dies before appending anything, worker 1's
    // sub-batch lands. The contiguous prefix of this flush is empty.
    let err = engine.insert_batch(&name, &arrivals[8..]).unwrap_err();
    assert_eq!(err.kind, ErrorKind::WorkerUnavailable);
    assert!(err.message.starts_with(&addr0), "{err}");
    let stats = match engine.stats(&name).unwrap() {
        Payload::Stats(line) => line,
        other => panic!("{other:?}"),
    };
    assert!(stats.contains("processed=8"), "{stats}");
    assert!(stats.contains("cursor=0"), "{stats}");
    assert!(stats.contains("worker1_position=8"), "{stats}");

    // Restart worker 0: nothing of the second flush was appended, so it
    // recovers exactly its half of the acked prefix.
    let (_w0b, addr0b) = spawn_worker(&dir0, None);
    let engine = coordinator_over(vec![addr0b, addr1]);
    match engine.open(&name, &spec).unwrap() {
        Payload::Attached { processed, .. } => {
            assert_eq!(processed, 8, "exactly the acked prefix survives")
        }
        other => panic!("{other:?}"),
    }
    let stats = match engine.stats(&name).unwrap() {
        Payload::Stats(line) => line,
        other => panic!("{other:?}"),
    };
    assert!(stats.contains("cursor=0"), "{stats}");
    assert!(stats.contains("worker0_position=4"), "{stats}");
    assert!(stats.contains("worker1_position=8"), "{stats}");

    // Replay the whole unacked suffix: worker 1's four extras are healed
    // by skip, worker 0 receives its missing half.
    if per_element {
        for (i, e) in arrivals[8..].iter().enumerate() {
            match insert_via(&engine, &name, e).unwrap() {
                Payload::Inserted { seq } => assert_eq!(seq, 9 + i),
                other => panic!("{other:?}"),
            }
        }
    } else {
        match engine.insert_batch(&name, &arrivals[8..]).unwrap() {
            Payload::InsertedBatch { seq, count } => {
                assert_eq!((seq, count), (16, 8));
            }
            other => panic!("{other:?}"),
        }
    }
    let reference = feed_and_query(
        &Engine::new(ServeConfig::default()).unwrap(),
        &open_line("sfdm2", 2),
        &arrivals,
    )
    .unwrap();
    assert_eq!(
        engine.query(&name, None).unwrap(),
        reference,
        "per_element={per_element}"
    );
    let _ = std::fs::remove_dir_all(&dir0);
    let _ = std::fs::remove_dir_all(&dir1);
}

/// Mid-batch death in the WAL append → apply gap — the WAL decides, and
/// here it says *everything* is durable. Worker 0 aborts after appending
/// its whole second sub-batch but before applying it: the coordinator
/// acks nothing of that flush, but on restart the worker replays the
/// appended records, so the re-derived prefix covers the entire stream —
/// `Attached processed` tells the replaying client it has nothing left
/// to send.
#[test]
fn batch_crash_in_wal_gap_makes_whole_flush_durable() {
    let arrivals = deterministic_arrivals(16);
    let dir0 = scratch("batch_gap_w0");
    let dir1 = scratch("batch_gap_w1");
    let (_w0, addr0) = spawn_worker(&dir0, Some("between-wal-append-and-apply:2"));
    let (_w1, addr1) = spawn_worker(&dir1, None);
    let engine = coordinator_over(vec![addr0.clone(), addr1.clone()]);
    let (name, spec) = spec_of(&open_line("sfdm2", 1));
    engine.open(&name, &spec).unwrap();

    engine.insert_batch(&name, &arrivals[..8]).unwrap();
    let err = engine.insert_batch(&name, &arrivals[8..]).unwrap_err();
    assert_eq!(err.kind, ErrorKind::WorkerUnavailable);
    assert!(err.message.starts_with(&addr0), "{err}");
    let stats = match engine.stats(&name).unwrap() {
        Payload::Stats(line) => line,
        other => panic!("{other:?}"),
    };
    assert!(stats.contains("processed=8"), "{stats}");
    assert!(stats.contains("cursor=0"), "{stats}");

    // Restart worker 0: its WAL holds both sub-batches, replay applies
    // them — the whole stream turns out durable.
    let (_w0b, addr0b) = spawn_worker(&dir0, None);
    let engine = coordinator_over(vec![addr0b, addr1]);
    match engine.open(&name, &spec).unwrap() {
        Payload::Attached { processed, .. } => {
            assert_eq!(processed, 16, "the appended sub-batch must replay")
        }
        other => panic!("{other:?}"),
    }
    let stats = match engine.stats(&name).unwrap() {
        Payload::Stats(line) => line,
        other => panic!("{other:?}"),
    };
    assert!(stats.contains("cursor=0"), "{stats}");

    // The re-attach reported processed=16: the client's replay window
    // `arrivals[processed..]` is empty — nothing is sent twice, and the
    // stream already answers over the full 16 elements.
    let reference = feed_and_query(
        &Engine::new(ServeConfig::default()).unwrap(),
        &open_line("sfdm2", 2),
        &arrivals,
    )
    .unwrap();
    assert_eq!(engine.query(&name, None).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir0);
    let _ = std::fs::remove_dir_all(&dir1);
}

/// The full distributed loop over real processes end to end: a real
/// coordinator *binary* (not an in-process engine) fronting two real
/// workers, driven over its stdin session — the deployment shape
/// `examples/serve_cluster.sh` ships.
#[test]
fn coordinator_binary_fronts_real_workers() {
    let arrivals = deterministic_arrivals(30);
    let dir0 = scratch("binary_w0");
    let dir1 = scratch("binary_w1");
    let (_w0, addr0) = spawn_worker(&dir0, None);
    let (_w1, addr1) = spawn_worker(&dir1, None);

    let mut script = vec![open_line("sfdm2", 1)];
    for e in &arrivals {
        let coords: Vec<String> = e.point.iter().map(f64::to_string).collect();
        script.push(format!("INSERT {} {} {}", e.id, e.group, coords.join(" ")));
    }
    script.push("QUERY".into());
    script.push("QUIT".into());

    let mut child = Command::new(env!("CARGO_BIN_EXE_fdm-serve"))
        .args(["--worker", &addr0, "--worker", &addr1])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    {
        let mut stdin = child.stdin.take().unwrap();
        stdin
            .write_all(format!("{}\n", script.join("\n")).as_bytes())
            .unwrap();
    }
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let query_line = stdout.lines().rev().nth(1).unwrap().to_string();

    let reference = feed_and_query(
        &Engine::new(ServeConfig::default()).unwrap(),
        &open_line("sfdm2", 2),
        &arrivals,
    )
    .unwrap();
    let reference_line = fdm_serve::protocol::Response::Ok(reference).render();
    assert_eq!(query_line, reference_line);
    let _ = std::fs::remove_dir_all(&dir0);
    let _ = std::fs::remove_dir_all(&dir1);
}

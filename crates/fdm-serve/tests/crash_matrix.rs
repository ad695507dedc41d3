//! Crash-recovery matrix: the real `fdm-serve` binary is killed (via
//! deterministic crash injection — `FDM_SERVE_CRASH_POINT`, the same
//! no-cleanup `abort()` a SIGKILL delivers, but placeable between any two
//! persistence steps) at every phase of the persistence pipeline, and must
//! recover to the exact pre-kill query answers from
//! `full + delta* + WAL` replay.
//!
//! Covered kill windows:
//!
//! * during the WAL append → apply gap of one `INSERT`;
//! * mid-delta write (torn temp file, no rename);
//! * between a delta rename and the WAL truncation (overlap records);
//! * between the chunked-capture sections of a full anchor;
//! * mid-full-snapshot write during an inline anchor (torn temp file);
//! * between a full-snapshot rename and the stale-delta cleanup (the
//!   stale-chain window the delta base-checksum exists for);
//! * between the delta cleanup and the WAL truncation;
//! * inside the background compactor: mid-collapse (torn temp file) and
//!   between the collapsed-snapshot rename and the consumed-delta
//!   cleanup (stale mid-chain deltas recovery must skip over).
//!
//! Plus the **graceful** cells: SIGTERM must drain (in-flight inserts
//! complete, final checkpoint leaves zero WAL records to replay, durable
//! state byte-identical to an uninterrupted run, exit 0), and a second
//! SIGTERM must force an immediate exit.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

use fdm_serve::{Engine, ServeConfig, Session};

const OPEN: &str = "OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30";
/// The sliding-window cell of the matrix: same stream, windowed summary.
const OPEN_SLIDING: &str = "OPEN swin sliding quotas=2,2 eps=0.1 dmin=0.05 dmax=30 window=16";
const INSERTS: usize = 30;

/// Stream name of an OPEN line (the matrix runs one stream per scenario).
fn stream_name(open: &str) -> &str {
    open.split_whitespace().nth(1).unwrap()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdm_crash_matrix_{}_{tag}", std::process::id()));
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

/// The reference answer: an uninterrupted in-memory engine fed the first
/// `n` inserts.
fn reference_query_for(open: &str, n: usize) -> String {
    let engine = Arc::new(Engine::new(ServeConfig::default()).unwrap());
    let mut script = vec![open.to_string()];
    script.extend(insert_lines(n));
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
        .last()
        .unwrap()
        .to_string()
}

fn reference_query(n: usize) -> String {
    reference_query_for(OPEN, n)
}

/// Runs the real binary against `dir` with the given crash point armed,
/// feeds `open` + INSERTS, and returns its stdout lines after it dies (or
/// finishes, for scenarios whose point never fires). `full_every`
/// parameterizes the chain-length bound (`"0"` disables deltas entirely).
/// With `hold_stdin_open`, no `QUIT` is sent and stdin stays open until
/// the child dies — the shape the *compactor* cells need, because the
/// crash fires on a background thread whose timing is independent of the
/// input stream, and exiting on EOF would race it.
fn run_until_crash_opts(
    open: &str,
    dir: &Path,
    crash_point: &str,
    full_every: &str,
    hold_stdin_open: bool,
) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fdm-serve"))
        .args([
            "--data-dir",
            dir.to_str().unwrap(),
            "--snapshot-every",
            "4",
            "--full-every",
            full_every,
        ])
        .env("FDM_SERVE_CRASH_POINT", crash_point)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fdm-serve");
    let mut stdin = child.stdin.take().unwrap();
    let mut script = vec![open.to_string()];
    script.extend(insert_lines(INSERTS));
    if !hold_stdin_open {
        script.push("QUIT".into());
    }
    // The child aborts mid-stream; EPIPE on the remainder is expected.
    let _ = stdin.write_all(script.join("\n").as_bytes());
    let _ = stdin.write_all(b"\n");
    let stdin_keepalive = if hold_stdin_open { Some(stdin) } else { None };
    let output = child.wait_with_output().expect("wait for fdm-serve");
    drop(stdin_keepalive);
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

fn run_until_crash_with(open: &str, dir: &Path, crash_point: &str) -> Vec<String> {
    run_until_crash_opts(open, dir, crash_point, "2", false)
}

fn run_until_crash(dir: &Path, crash_point: &str) -> Vec<String> {
    run_until_crash_with(OPEN, dir, crash_point)
}

/// Restarts the binary over the same data dir (no crash point) and
/// returns `(processed, query_line)` from STATS + QUERY.
fn recover_with(open: &str, dir: &Path) -> (usize, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fdm-serve"))
        .args(["--data-dir", dir.to_str().unwrap(), "--snapshot-every", "4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("respawn fdm-serve");
    {
        let mut stdin = child.stdin.take().unwrap();
        write!(stdin, "{open}\nSTATS\nQUERY\nQUIT\n").unwrap();
    }
    let output = child.wait_with_output().expect("wait for recovery");
    assert!(output.status.success(), "recovery process failed");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[0].starts_with(&format!("OK attached {}", stream_name(open))),
        "recovery must re-attach: {lines:?}"
    );
    let stats = lines[1];
    let processed: usize = stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix("processed="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no processed= in {stats}"));
    let query = lines[2].to_string();
    assert!(query.starts_with("OK k="), "{query}");
    (processed, query)
}

fn recover(dir: &Path) -> (usize, String) {
    recover_with(OPEN, dir)
}

/// One matrix cell: arm `crash_point`, crash, recover, and require the
/// recovered answers to be byte-identical to an uninterrupted run over
/// exactly the recovered number of arrivals.
fn crash_and_recover(tag: &str, crash_point: &str, expect_processed: usize) {
    crash_and_recover_with(OPEN, tag, crash_point, expect_processed);
}

/// [`crash_and_recover`] for any OPEN line (the sliding cells reuse the
/// whole matrix machinery).
fn crash_and_recover_with(open: &str, tag: &str, crash_point: &str, expect_processed: usize) {
    let dir = scratch(tag);
    let live = run_until_crash_with(open, &dir, crash_point);
    let acked = live.iter().filter(|l| l.starts_with("OK inserted")).count();
    assert!(
        acked < INSERTS,
        "{tag}: the crash point must fire before the stream ends ({acked} acked)"
    );
    let (processed, query) = recover_with(open, &dir);
    assert_eq!(
        processed, expect_processed,
        "{tag}: recovered to an unexpected stream position ({acked} acked)"
    );
    assert!(
        processed >= acked,
        "{tag}: recovery lost acknowledged inserts ({acked} acked, {processed} recovered)"
    );
    assert_eq!(
        query,
        reference_query_for(open, processed),
        "{tag}: recovered QUERY differs from an uninterrupted run over {processed} arrivals"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// Checkpoint schedule with --snapshot-every 4 --full-every 2 under the
// dirty-set pipeline. For the sfdm2 stream every checkpoint lowers to a
// delta (the packed stored-id marks repack their bit width on growth
// instead of refusing the patch):
//
// OPEN → full#1 (processed 0); insert 4 → delta 1; 8 → delta 2 (chain at
// full-every → background compaction enqueued); 12..28 → more deltas,
// with collapses interleaving.
//
// Deterministic for this fixed insert sequence — the delta/full decision
// depends only on the stream's own state, never on compactor timing (the
// compactor changes which *files* hold the prefix, not the live mark).
// Mid-stream inline full anchors therefore happen only with
// `--full-every 0` (deltas disabled) or on a summary whose patch is
// genuinely unlowerable — the sliding window's rotation crossing at
// insert 8 (window=16, half 8) — and the full-anchor cells below arm one
// of those two shapes.

#[test]
fn kill_between_wal_append_and_apply() {
    // The armed insert is in the WAL but never applied or acknowledged;
    // recovery replays it (the WAL is the source of truth once appended).
    crash_and_recover("wal_gap", "between-wal-append-and-apply:13", 13);
}

#[test]
fn kill_mid_delta_write() {
    // Torn delta temp file, never renamed: recovery uses full#1 + WAL 1..4.
    crash_and_recover("mid_delta", "mid-delta-write:1", 4);
}

#[test]
fn kill_between_delta_and_wal_truncate() {
    // The second delta checkpoint lands at insert 8: the delta renamed
    // but the WAL still holds records 5..8; sequence numbers must dedupe
    // them against full#1 + delta 1 + delta 2.
    crash_and_recover("delta_wal_overlap", "between-delta-and-wal-truncate:2", 8);
}

#[test]
fn kill_mid_full_snapshot() {
    // `--full-every 0`: every checkpoint is an inline full anchor, so hit
    // 1 is the OPEN anchor and hit 2 the insert-4 checkpoint. Torn full#2
    // temp file, never renamed: recovery walks full#1 (empty) + WAL 1..4.
    let dir = scratch("mid_full");
    let live = run_until_crash_opts(OPEN, &dir, "mid-full-snapshot:2", "0", false);
    let acked = live.iter().filter(|l| l.starts_with("OK inserted")).count();
    assert!(acked < INSERTS, "the crash point must fire ({acked} acked)");
    let (processed, query) = recover(&dir);
    assert_eq!(processed, 4, "mid_full: expected full#1 + WAL 1..4");
    assert!(processed >= acked, "lost acknowledged inserts");
    assert_eq!(query, reference_query(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_between_full_snapshot_and_delta_cleanup() {
    // The sliding stream's insert-8 fallback anchor (full#2) landed but
    // delta 1 of the superseded chain lingers; the delta base-checksum
    // must recognize it as stale and skip it, with the WAL records 5..8
    // deduped by sequence number.
    crash_and_recover_with(
        OPEN_SLIDING,
        "stale_deltas",
        "between-full-and-delta-cleanup:2",
        8,
    );
}

#[test]
fn kill_between_delta_cleanup_and_wal_truncate() {
    // Same insert-8 sliding anchor, one step later: delta 1 is swept but
    // the WAL still overlaps full#2 with records 5..8.
    crash_and_recover_with(
        OPEN_SLIDING,
        "full_wal_overlap",
        "between-full-and-wal-truncate:2",
        8,
    );
}

/// The chunked-capture window: the crash lands between the params section
/// and the state section of a full anchor, before any file is touched —
/// the chain on disk must be exactly what the previous checkpoint left.
#[test]
fn kill_mid_chunked_capture() {
    // --full-every 0: every checkpoint is an inline full anchor, so hit 1
    // is the OPEN anchor and hit 2 the insert-4 checkpoint. Nothing was
    // written yet: recovery is full#1 (empty) + WAL 1..4.
    let dir = scratch("mid_chunked");
    let live = run_until_crash_opts(OPEN, &dir, "mid-chunked-capture:2", "0", false);
    let acked = live.iter().filter(|l| l.starts_with("OK inserted")).count();
    assert!(acked < INSERTS, "the crash point must fire ({acked} acked)");
    let (processed, query) = recover(&dir);
    assert_eq!(processed, 4, "mid_chunked: expected full#1 + WAL 1..4");
    assert!(processed >= acked, "lost acknowledged inserts");
    assert_eq!(query, reference_query(4));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn final WAL record (crash mid-append) must be dropped with a
/// warning, not brick recovery: the record was never acknowledged, so
/// dropping it is the correct contract.
#[test]
fn torn_wal_tail_is_dropped_not_fatal() {
    let dir = scratch("torn_tail");
    // Clean run: checkpoints at 4..28, WAL holds records 29 and 30.
    run_until_crash(&dir, "never-fires");
    let wal = dir.join("jobs.wal");
    let intact = std::fs::read_to_string(&wal).unwrap();
    assert_eq!(
        intact.lines().count(),
        3,
        "header + records 29, 30: {intact:?}"
    );
    // Simulate a crash mid-append: a record with its checksum (and part
    // of its coordinates) torn off, no trailing newline. The remaining
    // prefix still *parses* as a complete INSERT — only the per-record
    // checksum requirement exposes it as torn.
    std::fs::write(&wal, format!("{intact}31 INSERT 31 1 4.2")).unwrap();
    let (processed, query) = recover(&dir);
    assert_eq!(processed, 30, "the torn record must be dropped");
    assert_eq!(query, reference_query(30));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed record in the *middle* of the WAL is missing history, not
/// a torn append — recovery must still refuse it.
#[test]
fn corrupt_mid_wal_record_still_refuses_recovery() {
    let dir = scratch("mid_wal_corrupt");
    run_until_crash(&dir, "never-fires");
    let wal = dir.join("jobs.wal");
    let intact = std::fs::read_to_string(&wal).unwrap();
    let lines: Vec<&str> = intact.lines().collect();
    assert_eq!(lines.len(), 3, "header + records 29, 30");
    // Mangle the first record but keep the header and the second record.
    std::fs::write(&wal, format!("{}\n29 INS\n{}\n", lines[0], lines[2])).unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_fdm-serve"))
        .args(["--data-dir", dir.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run fdm-serve");
    assert!(
        !output.status.success(),
        "recovery over a mid-log corruption must fail"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("recovery failed"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stale-delta window actually leaves delta files behind — prove the
/// scenario is real, not vacuously passing.
#[test]
fn stale_delta_window_leaves_files_that_recovery_ignores() {
    let dir = scratch("stale_delta_files");
    run_until_crash_with(OPEN_SLIDING, &dir, "between-full-and-delta-cleanup:2");
    assert!(
        dir.join("swin.delta.1").exists(),
        "the crash window must leave the superseded chain's delta file behind"
    );
    let (processed, _) = recover_with(OPEN_SLIDING, &dir);
    assert_eq!(processed, 8);
    let _ = std::fs::remove_dir_all(&dir);
}

// --- Background-compactor cells -------------------------------------------
//
// The compactor collapses `full + delta*` on its own thread, so the crash
// lands at a point whose *insert-stream* position is nondeterministic (the
// first job is enqueued at insert 8; inserts keep flowing while it runs). The
// assertions are therefore relational rather than positional: recovery
// must land exactly on an uninterrupted run over however many arrivals
// survived, never behind an acknowledged insert — and the on-disk debris
// each window leaves must actually be there.

/// Kills the process from inside the compactor, after it read the chain
/// but before the collapsed temp file is renamed: the live chain must be
/// untouched (both consumed deltas still on disk) and recovery exact.
#[test]
fn kill_compactor_mid_collapse() {
    let dir = scratch("compactor_mid_collapse");
    let live = run_until_crash_opts(OPEN, &dir, "compactor-mid-collapse:1", "2", true);
    let acked = live.iter().filter(|l| l.starts_with("OK inserted")).count();
    assert!(
        acked >= 7,
        "the job is enqueued during insert 8's checkpoint; it cannot crash earlier ({acked} acked)"
    );
    assert!(
        dir.join("jobs.delta.1").exists() && dir.join("jobs.delta.2").exists(),
        "a collapse that never renamed must leave the chain untouched"
    );
    let (processed, query) = recover(&dir);
    assert!(
        processed >= acked,
        "recovery lost acknowledged inserts ({acked} acked, {processed} recovered)"
    );
    assert_eq!(query, reference_query(processed));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills the process between the compactor's snapshot rename and the
/// consumed-delta cleanup: the consumed deltas linger as *stale* files
/// whose base checksums no longer match the collapsed snapshot, possibly
/// with a *live* later delta behind them — recovery must skip the stale
/// links and keep walking.
#[test]
fn kill_between_compaction_and_delta_cleanup() {
    let dir = scratch("compactor_stale_deltas");
    let live = run_until_crash_opts(
        OPEN,
        &dir,
        "between-compaction-and-delta-cleanup:1",
        "2",
        true,
    );
    let acked = live.iter().filter(|l| l.starts_with("OK inserted")).count();
    assert!(acked >= 7, "{acked} acked before the compactor window");
    assert!(
        dir.join("jobs.delta.1").exists() && dir.join("jobs.delta.2").exists(),
        "the crash window must leave the consumed (now stale) deltas behind"
    );
    let (processed, query) = recover(&dir);
    assert!(
        processed >= acked,
        "recovery lost acknowledged inserts ({acked} acked, {processed} recovered)"
    );
    assert_eq!(query, reference_query(processed));
    let _ = std::fs::remove_dir_all(&dir);
}

// --- Sliding-window cells -------------------------------------------------
//
// The sliding summary rides the identical persistence pipeline; these
// cells prove its rotation state survives the same kill windows, and that
// an explicit v2-binary snapshot restores byte-identically after SIGKILL.

#[test]
fn sliding_kill_between_wal_append_and_apply() {
    crash_and_recover_with(
        OPEN_SLIDING,
        "sliding_wal_gap",
        "between-wal-append-and-apply:13",
        13,
    );
}

// The sliding summary (window=16, half 8) refuses to lower its patch
// across a rotation crossing, so the insert-8 checkpoint falls back to an
// inline full anchor — full#2 and the windows below land at insert 8.

#[test]
fn sliding_kill_mid_full_snapshot() {
    crash_and_recover_with(OPEN_SLIDING, "sliding_mid_full", "mid-full-snapshot:2", 8);
}

// (The stale-delta and WAL-overlap windows of the insert-8 sliding anchor
// are exercised by `kill_between_full_snapshot_and_delta_cleanup` and
// `kill_between_delta_cleanup_and_wal_truncate` above.)

/// OPEN → insert → QUERY → SNAPSHOT (v2 bin) → SIGKILL → RESTORE in a
/// fresh process: the restored stream answers the pre-kill QUERY
/// byte-identically, and re-encoding it reproduces the snapshot file
/// byte-for-byte.
#[test]
fn sliding_snapshot_kill_restore_is_byte_identical() {
    use std::io::{BufRead, BufReader};
    let dir = scratch("sliding_snap_kill");
    let snap = dir.join("export.bin");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fdm-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fdm-serve");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut script = vec![OPEN_SLIDING.to_string()];
    script.extend(insert_lines(INSERTS));
    script.push(format!("SNAPSHOT {}", snap.display()));
    script.push("QUERY".into());
    stdin
        .write_all(format!("{}\n", script.join("\n")).as_bytes())
        .unwrap();
    stdin.flush().unwrap();
    // One response per command; the last is the pre-kill QUERY answer.
    let mut lines = Vec::new();
    for _ in 0..script.len() {
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        lines.push(line.trim_end().to_string());
    }
    let pre_kill_query = lines.last().unwrap().clone();
    assert!(pre_kill_query.starts_with("OK k=4"), "{pre_kill_query}");
    assert!(
        lines[lines.len() - 2].starts_with("OK snapshot"),
        "{}",
        lines[lines.len() - 2]
    );
    // The no-cleanup death.
    child.kill().unwrap();
    let _ = child.wait();
    let first_bytes = std::fs::read(&snap).unwrap();
    assert!(first_bytes.starts_with(b"FDMSNAP2"), "v2 binary frame");

    // Fresh process, no data dir: RESTORE the export, answer, re-export.
    let snap2 = dir.join("reexport.bin");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fdm-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("respawn fdm-serve");
    {
        let mut stdin = child.stdin.take().unwrap();
        write!(
            stdin,
            "RESTORE {}\nQUERY\nSNAPSHOT {}\nQUIT\n",
            snap.display(),
            snap2.display()
        )
        .unwrap();
    }
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[0].starts_with(&format!("OK restored export processed={INSERTS}")),
        "{lines:?}"
    );
    assert_eq!(
        lines[1], pre_kill_query,
        "restored QUERY must be byte-identical to the pre-kill answer"
    );
    assert_eq!(
        std::fs::read(&snap2).unwrap(),
        first_bytes,
        "re-encoding the restored sliding stream must reproduce the snapshot byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// --- SIGTERM drain cells --------------------------------------------------

/// Spawns the binary with a TCP listener on an ephemeral port and returns
/// the child plus the bound port (parsed from its stderr "listening on"
/// line). Stdin is held open so the process keeps serving.
fn spawn_with_tcp(args: &[&str]) -> (std::process::Child, u16) {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_fdm-serve"))
        .args(args)
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fdm-serve");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut port = None;
    let mut line = String::new();
    while stderr.read_line(&mut line).unwrap_or(0) > 0 {
        if let Some(addr) = line.trim().strip_prefix("fdm-serve: listening on tcp://") {
            port = addr.rsplit(':').next().and_then(|p| p.parse().ok());
            break;
        }
        line.clear();
    }
    // Keep draining stderr on a throwaway thread: closing the pipe would
    // make the child's later eprintln!s fail, and letting it fill would
    // block the child.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while stderr.read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
    });
    (child, port.expect("no tcp listen line on stderr"))
}

/// Sends `sig` to `pid` without unsafe code (the workspace policy keeps
/// FFI out of tests): plain `kill(1)` via `sh`.
fn send_signal(pid: u32, sig: &str) {
    let status = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -{sig} {pid}"))
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -{sig} {pid} failed");
}

/// SIGTERM drain: every acknowledged insert survives, the final
/// checkpoint leaves **zero** WAL records to replay, the drained snapshot
/// is byte-identical to an uninterrupted run's export, and the exit is
/// clean (code 0).
#[test]
fn sigterm_drains_with_zero_replay_recovery() {
    use std::io::{BufRead, BufReader};
    let dir = scratch("sigterm_drain");
    let (mut child, port) = spawn_with_tcp(&[
        "--data-dir",
        dir.to_str().unwrap(),
        "--snapshot-every",
        "4",
        "--full-every",
        "2",
    ]);

    // Feed the stream over TCP and wait for every ack: nothing is
    // in-flight when the signal lands, so "in-flight inserts complete"
    // degenerates to "acknowledged inserts survive" — the stronger
    // overlapping case is exercised by the drain serialization on the
    // durable mutex.
    let mut client = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
    let mut script = vec![OPEN.to_string()];
    script.extend(insert_lines(INSERTS));
    script.push("QUERY".into());
    client
        .write_all(format!("{}\n", script.join("\n")).as_bytes())
        .unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    let mut pre_drain_query = String::new();
    for i in 0..script.len() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK "), "command {i}: {line}");
        pre_drain_query = line.trim_end().to_string();
    }

    send_signal(child.id(), "TERM");
    // Close our connection so the drain's grace wait sees zero live
    // sessions and proceeds to the final checkpoint.
    drop(reader);
    drop(client);
    let status = child.wait().expect("wait for drained fdm-serve");
    assert_eq!(status.code(), Some(0), "drain must exit cleanly: {status}");

    // Zero-replay contract: the drained WAL is just its header.
    let wal = std::fs::read_to_string(dir.join("jobs.wal")).unwrap();
    assert_eq!(wal, "0 WALV2\n", "drained WAL must hold zero records");
    assert!(
        !dir.join("jobs.delta.1").exists(),
        "the drain anchor must collapse the delta chain"
    );

    // Byte-identical durable state: an uninterrupted in-process run over
    // the same arrivals exports the same binary snapshot.
    let reference_snap = dir.join("reference.bin");
    {
        let engine = Arc::new(Engine::new(ServeConfig::default()).unwrap());
        let mut output = Vec::new();
        let mut script = vec![OPEN.to_string()];
        script.extend(insert_lines(INSERTS));
        script.push(format!("SNAPSHOT {}", reference_snap.display()));
        Session::new(engine)
            .run(
                std::io::Cursor::new(script.join("\n").into_bytes()),
                &mut output,
            )
            .unwrap();
    }
    assert_eq!(
        std::fs::read(dir.join("jobs.snap")).unwrap(),
        std::fs::read(&reference_snap).unwrap(),
        "drained snapshot must be byte-identical to an uninterrupted run's export"
    );

    // Recovery replays nothing and answers the pre-drain QUERY verbatim.
    let mut child = Command::new(env!("CARGO_BIN_EXE_fdm-serve"))
        .args(["--data-dir", dir.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("respawn fdm-serve");
    {
        let mut stdin = child.stdin.take().unwrap();
        write!(stdin, "{OPEN}\nSTATS\nQUERY\nQUIT\n").unwrap();
    }
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[1].contains(&format!("processed={INSERTS}")) && lines[1].contains("wal_records=0"),
        "zero-replay recovery: {}",
        lines[1]
    );
    assert_eq!(lines[2], pre_drain_query, "recovered QUERY must match");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second SIGTERM while a live connection stalls the drain must force
/// an immediate exit (code 143 = 128 + SIGTERM).
#[test]
fn second_sigterm_forces_immediate_exit() {
    use std::time::{Duration, Instant};
    let dir = scratch("sigterm_twice");
    let (mut child, port) =
        spawn_with_tcp(&["--data-dir", dir.to_str().unwrap(), "--drain-grace", "60"]);
    // Hold a connection open so the 60 s grace period would stall the
    // drain far past this test's patience.
    let mut client = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
    client.write_all(b"PING\n").unwrap();
    let mut reader = std::io::BufReader::new(client.try_clone().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert_eq!(line.trim(), "OK pong");

    send_signal(child.id(), "TERM");
    std::thread::sleep(Duration::from_millis(300));
    send_signal(child.id(), "TERM");
    let start = Instant::now();
    let status = child.wait().expect("wait for force-killed fdm-serve");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "second SIGTERM must not wait out the grace period"
    );
    assert_eq!(
        status.code(),
        Some(143),
        "forced exit must use 128+SIGTERM: {status}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

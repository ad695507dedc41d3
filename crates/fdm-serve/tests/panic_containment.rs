//! Panic-containment suite: a panic injected into one tenant's request
//! (via the deterministic `FDM_SERVE_PANIC_POINT` hook) must degrade to
//! one `ERR` reply on that connection — never a dead process, never a
//! poisoned lock bricking other tenants, never a WAL/state divergence.
//!
//! Every scenario spawns the real binary with the hook armed in the
//! child's environment, so the in-process test threads never race on a
//! process-global env var.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

const OPEN_VICTIM: &str = "OPEN victim sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30";
const OPEN_HEALTHY: &str = "OPEN healthy sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdm_panic_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns the binary with `FDM_SERVE_PANIC_POINT` armed and a TCP
/// listener on an ephemeral port; returns the child and the port.
fn spawn_armed(panic_point: &str, args: &[&str]) -> (std::process::Child, u16) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fdm-serve"))
        .args(args)
        .args(["--listen", "127.0.0.1:0"])
        .env("FDM_SERVE_PANIC_POINT", panic_point)
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
    std::thread::spawn(move || {
        let mut sink = String::new();
        while stderr.read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
    });
    (child, port.expect("no tcp listen line on stderr"))
}

fn connect(port: u16) -> (TcpStream, BufReader<TcpStream>) {
    let client = TcpStream::connect(("127.0.0.1", port)).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let reader = BufReader::new(client.try_clone().unwrap());
    (client, reader)
}

fn roundtrip(client: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    client.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

/// The headline acceptance: inserts into `victim` panic (every hit, via
/// the stream-name filter), and that must cost each request (`INSERT` or
/// `INSERTB`) one `ERR` — the victim connection survives, the victim
/// stream's WAL stays in lockstep with its (unchanged) state, and the
/// `healthy` stream serves normally throughout on another connection.
#[test]
fn insert_panic_degrades_to_one_err_and_other_tenants_keep_serving() {
    let dir = scratch("insert_apply");
    let (mut child, port) = spawn_armed(
        "insert-apply:victim",
        &["--data-dir", dir.to_str().unwrap(), "--snapshot-every", "4"],
    );

    let (mut victim, mut victim_r) = connect(port);
    let (mut healthy, mut healthy_r) = connect(port);
    assert_eq!(
        roundtrip(&mut victim, &mut victim_r, OPEN_VICTIM),
        "OK opened victim"
    );
    assert_eq!(
        roundtrip(&mut healthy, &mut healthy_r, OPEN_HEALTHY),
        "OK opened healthy"
    );

    // Every victim INSERT panics inside the summary apply; every one must
    // come back as a typed ERR on a connection that stays open.
    for i in 0..8 {
        let reply = roundtrip(&mut victim, &mut victim_r, &format!("INSERT {i} 0 1.0 {i}"));
        assert!(
            reply.starts_with("ERR internal error (panic contained)"),
            "insert {i}: {reply}"
        );
        // Interleave healthy traffic: the other tenant must never notice.
        let reply = roundtrip(
            &mut healthy,
            &mut healthy_r,
            &format!("INSERT {i} {} {}.0 {i}", i % 2, 2 + 3 * i),
        );
        assert_eq!(reply, format!("OK inserted processed={}", i + 1));
    }
    // A batch panics in the same apply and must roll back all its records.
    let reply = roundtrip(
        &mut victim,
        &mut victim_r,
        "INSERTB 8 0 1.0 8 | 9 1 4.0 9 | 10 0 7.0 10",
    );
    assert!(
        reply.starts_with("ERR internal error (panic contained)"),
        "insert batch: {reply}"
    );
    // The victim connection itself still serves (no poisoned-lock panic
    // on the read paths), and its state never advanced.
    let stats = roundtrip(&mut victim, &mut victim_r, "STATS");
    assert!(stats.contains("processed=0"), "{stats}");
    assert!(
        stats.contains("wal_records=0"),
        "WAL must be rolled back to match the unapplied state: {stats}"
    );
    let reply = roundtrip(&mut healthy, &mut healthy_r, "QUERY");
    assert!(reply.starts_with("OK k="), "{reply}");

    drop((victim, victim_r, healthy, healthy_r));
    let _ = child.kill();
    let _ = child.wait();

    // The rolled-back WAL holds zero records: a restart replays nothing
    // and the victim stream recovers to its true (empty) position.
    let wal = std::fs::read_to_string(dir.join("victim.wal")).unwrap();
    assert_eq!(wal, "0 WALV2\n", "victim WAL must be rolled back clean");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panic on the read path (`QUERY` finalize) is caught at the session
/// boundary; readers cannot poison the summary lock, so both further
/// reads and further writes keep working.
#[test]
fn query_panic_is_contained_at_the_session_boundary() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fdm-serve"))
        .env("FDM_SERVE_PANIC_POINT", "query-finalize")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fdm-serve");
    {
        let mut stdin = child.stdin.take().unwrap();
        write!(
            stdin,
            "{OPEN_VICTIM}\nINSERT 0 0 1 1\nQUERY\nINSERT 1 1 5 5\nSTATS\nQUIT\n"
        )
        .unwrap();
    }
    let output = child.wait_with_output().unwrap();
    assert!(
        output.status.success(),
        "a contained panic must not kill the process"
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "OK opened victim");
    assert_eq!(lines[1], "OK inserted processed=1");
    assert!(
        lines[2].starts_with("ERR internal error (panic contained)"),
        "{}",
        lines[2]
    );
    assert_eq!(
        lines[3], "OK inserted processed=2",
        "writes must keep working after a contained read-path panic"
    );
    assert!(lines[4].contains("processed=2"), "{}", lines[4]);
    assert_eq!(lines[5], "OK bye");
}

/// Connection-slot RAII (satellite): with the cap filled by a session
/// whose thread panics, the slot must be released on unwind so the next
/// connection is admitted — a leak would refuse everything forever.
#[test]
fn panicking_session_thread_releases_its_connection_slot() {
    let (mut child, port) = spawn_armed("session-thread:1", &["--max-connections", "1"]);

    // Connection 1 fills the cap; its session thread panics immediately
    // (the armed first hit), which we observe as EOF with no reply.
    let (mut first, mut first_r) = connect(port);
    let _ = first.write_all(b"PING\n");
    let mut reply = String::new();
    let n = first_r.read_line(&mut reply).unwrap_or(0);
    assert_eq!(n, 0, "the panicking session must just drop: {reply:?}");

    // The unwound thread must have released the slot: a later connection
    // gets it (retry to absorb scheduling).
    let mut admitted = false;
    for _ in 0..100 {
        let (mut next, mut next_r) = connect(port);
        if roundtrip(&mut next, &mut next_r, "PING") == "OK pong" {
            admitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        admitted,
        "the slot of a panicked session must be released (RAII), not leaked"
    );
    let _ = child.kill();
    let _ = child.wait();
}

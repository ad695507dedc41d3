//! The `fdm-serve` binary: protocol sessions over stdin/stdout and,
//! optionally, a Unix domain socket and/or a TCP listener, with WAL +
//! auto-snapshot durability.
//!
//! ```text
//! fdm-serve [--data-dir DIR] [--snapshot-every N] [--full-every N]
//!           [--socket PATH] [--listen ADDR:PORT] [--read-timeout SECS]
//!           [--metrics ADDR:PORT] [--auth-token TOKEN] [--max-connections N]
//!           [--max-pending N] [--rate-limit N] [--drain-grace SECS]
//!           [--worker ADDR:PORT]... [--coord-batch N]
//! ```
//!
//! * `--data-dir DIR` — enable durability: per-stream WAL + snapshots in
//!   `DIR`, with restore-then-replay crash recovery on startup.
//! * `--snapshot-every N` — auto-checkpoint (and truncate the WAL) every N
//!   accepted inserts per stream. Checkpoints and `SNAPSHOT` exports are
//!   always binary (v2); recovery and `RESTORE` also read v1 JSON files.
//! * `--full-every N` — collapse the incremental-delta chain into a fresh
//!   full snapshot every N deltas (default 8; `0` disables deltas).
//! * `--socket PATH` — additionally accept protocol sessions on a Unix
//!   domain socket (one thread per connection).
//! * `--listen ADDR:PORT` — additionally accept protocol sessions over
//!   TCP (remote tenants; per-connection read timeout + max-frame guard).
//! * `--read-timeout SECS` — idle-connection timeout for both socket
//!   transports (`0` waits forever). Defaults differ per transport: 300 s
//!   for TCP, none for the trusted local Unix socket.
//! * `--metrics ADDR:PORT` — HTTP `GET /metrics` endpoint (Prometheus
//!   text exposition; see `docs/serve.md` for the name/label contract).
//! * `--auth-token TOKEN` — TCP sessions must `AUTH TOKEN` before any
//!   command other than `PING`/`QUIT` (local stdin and Unix-socket
//!   sessions stay trusted).
//! * `--max-connections N` — per-listener concurrent-session cap
//!   (default 1024); excess connections get one `ERR` line.
//! * `--max-pending N` — per-stream bound on in-flight `INSERT`s
//!   (default 256); beyond it inserts get `ERR busy` instead of queueing.
//! * `--rate-limit N` — per-stream insert rate limit in inserts/sec
//!   (token bucket, one-second burst); over-limit inserts get `ERR busy`.
//! * `--drain-grace SECS` — on SIGTERM, how long to wait for in-flight
//!   sessions before checkpointing and exiting anyway (default 30).
//! * `--worker ADDR:PORT` (repeatable) — **coordinator mode**: this node
//!   hosts no summaries; `INSERT`s round-robin across the worker
//!   `fdm-serve` nodes and `QUERY` merges their summaries (pulled via the
//!   `MERGE` verb) bit-identically to a sharded single process. Excludes
//!   `--data-dir` (the workers own all durable state); see
//!   `docs/distributed.md`.
//! * `--coord-batch N` — coordinator mode: flush `INSERTB` batches to the
//!   workers in concurrent rounds of at most N elements (default 256).
//!
//! With a socket or listener configured the process keeps serving after
//! stdin closes. **SIGTERM drains gracefully**: new connections are
//! refused, live sessions get `--drain-grace` seconds to finish, every
//! stream is checkpointed with a full snapshot (zero-replay recovery) and
//! its WAL fsynced, and the process exits 0. A second SIGTERM exits
//! immediately (code 143). See `docs/serve.md` for the protocol and
//! `examples/serve_session.sh` / `examples/serve_tcp_session.sh` for
//! scripted end-to-end sessions.

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fdm_serve::{
    serve_metrics, serve_tcp, serve_unix, signal, Engine, NetOptions, ServeConfig, Session,
};

struct Args {
    config: ServeConfig,
    socket: Option<PathBuf>,
    listen: Option<String>,
    metrics: Option<String>,
    drain_grace: Duration,
    /// TCP limits (default: 300 s read timeout).
    tcp_net: NetOptions,
    /// Unix-socket limits (default: no read timeout — local clients are
    /// trusted and often long-lived/idle).
    unix_net: NetOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut config = ServeConfig::default();
    let mut socket = None;
    let mut listen = None;
    let mut metrics = None;
    let mut read_timeout: Option<u64> = None;
    let mut auth_token: Option<String> = None;
    let mut max_connections: Option<usize> = None;
    let mut drain_grace = Duration::from_secs(30);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} requires a value"));
        match arg.as_str() {
            "--data-dir" => config.data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--snapshot-every" => {
                let n: u64 = value("--snapshot-every")?
                    .parse()
                    .map_err(|_| "--snapshot-every: invalid number".to_string())?;
                config.snapshot_every = Some(n);
            }
            "--full-every" => {
                config.full_every = value("--full-every")?
                    .parse()
                    .map_err(|_| "--full-every: invalid number".to_string())?;
            }
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--listen" => listen = Some(value("--listen")?),
            "--metrics" => metrics = Some(value("--metrics")?),
            "--auth-token" => auth_token = Some(value("--auth-token")?),
            "--read-timeout" => {
                let secs: u64 = value("--read-timeout")?
                    .parse()
                    .map_err(|_| "--read-timeout: invalid number of seconds".to_string())?;
                read_timeout = Some(secs);
            }
            "--max-connections" => {
                let n: usize = value("--max-connections")?
                    .parse()
                    .map_err(|_| "--max-connections: invalid number".to_string())?;
                max_connections = Some(n);
            }
            "--max-pending" => {
                config.max_pending_inserts = value("--max-pending")?
                    .parse()
                    .map_err(|_| "--max-pending: invalid number".to_string())?;
            }
            "--rate-limit" => {
                let per_sec: f64 = value("--rate-limit")?
                    .parse()
                    .map_err(|_| "--rate-limit: invalid inserts/sec".to_string())?;
                if !per_sec.is_finite() || per_sec <= 0.0 {
                    return Err("--rate-limit: must be a positive number".to_string());
                }
                config.rate_limit = Some(per_sec);
            }
            "--drain-grace" => {
                let secs: u64 = value("--drain-grace")?
                    .parse()
                    .map_err(|_| "--drain-grace: invalid number of seconds".to_string())?;
                drain_grace = Duration::from_secs(secs);
            }
            "--worker" => config.workers.push(value("--worker")?),
            "--coord-batch" => {
                let n: usize = value("--coord-batch")?
                    .parse()
                    .map_err(|_| "--coord-batch: invalid number".to_string())?;
                if n == 0 {
                    return Err("--coord-batch: must be at least 1".to_string());
                }
                config.coord_batch = n;
            }
            "--help" | "-h" => {
                return Err("usage: fdm-serve [--data-dir DIR] [--snapshot-every N] \
                            [--full-every N] [--socket PATH] [--listen ADDR:PORT] \
                            [--read-timeout SECS] [--metrics ADDR:PORT] [--auth-token TOKEN] \
                            [--max-connections N] [--max-pending N] [--rate-limit N] \
                            [--drain-grace SECS] [--worker ADDR:PORT]... [--coord-batch N]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other}; try --help")),
        }
    }
    if config.snapshot_every.is_some() && config.data_dir.is_none() {
        return Err("--snapshot-every requires --data-dir".to_string());
    }
    if !config.workers.is_empty() && config.data_dir.is_some() {
        // The coordinator is stateless by design: durable state lives on
        // the workers, and a coordinator-side WAL would double-apply on
        // recovery.
        return Err("--worker (coordinator mode) excludes --data-dir".to_string());
    }
    // An explicit --read-timeout applies to both transports (0 = never);
    // the defaults differ: TCP times idle remotes out, Unix-socket
    // sessions are trusted local clients and may idle forever. The auth
    // token gates TCP only — stdin and the Unix socket are local-trust.
    let tcp_net = NetOptions {
        read_timeout: match read_timeout {
            Some(secs) => (secs > 0).then(|| Duration::from_secs(secs)),
            None => NetOptions::default().read_timeout,
        },
        max_connections: max_connections.unwrap_or(NetOptions::default().max_connections),
        auth_token: auth_token.map(Into::into),
        ..NetOptions::default()
    };
    let unix_net = NetOptions {
        read_timeout: read_timeout.and_then(|secs| (secs > 0).then(|| Duration::from_secs(secs))),
        max_connections: max_connections.unwrap_or(NetOptions::default().max_connections),
        ..NetOptions::default()
    };
    Ok(Args {
        config,
        socket,
        listen,
        metrics,
        drain_grace,
        tcp_net,
        unix_net,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let engine = match Engine::new(args.config) {
        Ok(engine) => Arc::new(engine),
        Err(e) => {
            eprintln!("fdm-serve: recovery failed: {e}");
            std::process::exit(1);
        }
    };
    let recovered = engine.stream_names();
    if !recovered.is_empty() {
        eprintln!("fdm-serve: recovered streams: {}", recovered.join(", "));
    }

    // Graceful drain: the handler only flips an atomic (and force-exits on
    // a second SIGTERM); this watcher does the actual work — refuse new
    // connections, give in-flight sessions the grace period, checkpoint
    // every stream (zero-replay recovery), fsync, exit 0.
    if signal::install_sigterm_handler() {
        let drain_engine = engine.clone();
        let grace = args.drain_grace;
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(25));
            if !signal::sigterm_received() {
                continue;
            }
            eprintln!("fdm-serve: SIGTERM; draining (new connections refused)");
            drain_engine.begin_drain();
            let deadline = Instant::now() + grace;
            while drain_engine.metrics().live_connections() > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            match drain_engine.drain() {
                Ok(n) => {
                    eprintln!("fdm-serve: drained {n} stream(s); exiting");
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("fdm-serve: drain checkpoint failed: {e}");
                    std::process::exit(1);
                }
            }
        });
    } else {
        eprintln!("fdm-serve: could not install SIGTERM handler; drain disabled");
    }

    if let Some(addr) = args.metrics {
        let listener = match TcpListener::bind(&addr) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("fdm-serve: bind metrics {addr}: {e}");
                std::process::exit(1);
            }
        };
        match listener.local_addr() {
            Ok(local) => eprintln!("fdm-serve: metrics on http://{local}/metrics"),
            Err(_) => eprintln!("fdm-serve: metrics on http://{addr}/metrics"),
        }
        let engine = engine.clone();
        std::thread::spawn(move || serve_metrics(engine, listener));
    }

    let (tcp_net, unix_net) = (args.tcp_net, args.unix_net);
    let socket_thread = args.socket.map(|path| {
        // A stale socket file from a previous run blocks bind; remove it.
        let _ = std::fs::remove_file(&path);
        let listener = match UnixListener::bind(&path) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("fdm-serve: bind {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        eprintln!("fdm-serve: listening on {}", path.display());
        let engine = engine.clone();
        std::thread::spawn(move || serve_unix(engine, listener, unix_net))
    });

    let listen_thread = args.listen.map(|addr| {
        let listener = match TcpListener::bind(&addr) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("fdm-serve: bind {addr}: {e}");
                std::process::exit(1);
            }
        };
        match listener.local_addr() {
            Ok(local) => eprintln!("fdm-serve: listening on tcp://{local}"),
            Err(_) => eprintln!("fdm-serve: listening on tcp://{addr}"),
        }
        let engine = engine.clone();
        std::thread::spawn(move || serve_tcp(engine, listener, tcp_net))
    });

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    if let Err(e) = Session::new(engine).run(stdin.lock(), stdout.lock()) {
        eprintln!("fdm-serve: stdin session error: {e}");
    }

    // With a socket or TCP listener configured the process is a daemon:
    // keep serving connections after stdin closes.
    if let Some(handle) = socket_thread {
        let _ = handle.join();
    }
    if let Some(handle) = listen_thread {
        let _ = handle.join();
    }
}

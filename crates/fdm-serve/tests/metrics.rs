//! `/metrics` suite: the exposition must be well-formed Prometheus text
//! (format 0.0.4) — every sample preceded by its `# TYPE`, no duplicate
//! series, histogram invariants (`+Inf` bucket == `_count`, cumulative
//! buckets) — and scraping must stay cheap enough that a storm of
//! concurrent inserts is never blocked behind a scrape.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fdm_serve::protocol::{parse_line, Payload, Request as Cmd};
use fdm_serve::{serve_metrics, serve_tcp, Engine, NetOptions, ServeConfig};

const OPENS: [&str; 2] = [
    "OPEN alpha sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30",
    "OPEN beta sliding quotas=2,2 eps=0.1 dmin=0.05 dmax=30 window=40",
];

fn engine_with_traffic(inserts: usize) -> Arc<Engine> {
    let engine = Arc::new(Engine::new(ServeConfig::default()).unwrap());
    for open in OPENS {
        let (name, spec) = match parse_line(open).unwrap().unwrap() {
            Cmd::Open { name, spec } => (name, spec),
            other => panic!("{other:?}"),
        };
        engine.open(&name, &spec).unwrap();
        for i in 0..inserts {
            let line = format!(
                "INSERT {i} {} {} {}",
                i % 2,
                (i as f64 * 0.7391).sin() * 9.0,
                (i as f64 * 0.2113).cos() * 9.0
            );
            match parse_line(&line).unwrap().unwrap() {
                Cmd::Insert(e) => {
                    engine.insert(&name, &e, &line).unwrap();
                }
                other => panic!("{other:?}"),
            }
        }
    }
    engine
}

/// Splits a sample line into (series-identity, value); the identity is
/// the metric name plus its full label set.
fn split_sample(line: &str) -> (&str, f64) {
    let split_at = if let Some(close) = line.rfind('}') {
        close + 1
    } else {
        line.find(' ').unwrap()
    };
    let (series, value) = line.split_at(split_at);
    (series.trim(), value.trim().parse().unwrap())
}

/// Structural lint for the exposition format; returns the samples.
fn lint_exposition(text: &str) -> Vec<(String, f64)> {
    let mut typed: HashSet<String> = HashSet::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    let mut samples = Vec::new();
    assert!(text.ends_with('\n'), "exposition must end with a newline");
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().unwrap().to_string();
            let kind = parts.next().unwrap();
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind} for {family}"
            );
            assert!(
                typed.insert(family.clone()),
                "family {family} TYPE-declared twice — families must be contiguous"
            );
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = split_sample(line);
        let name = series.split(['{', ' ']).next().unwrap();
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains(*f))
            .unwrap_or(name);
        assert!(
            typed.contains(family),
            "sample {series} has no preceding # TYPE {family}"
        );
        assert!(
            seen_series.insert(series.to_string()),
            "duplicate series {series}"
        );
        assert!(value.is_finite(), "non-finite value on {series}");
        samples.push((series.to_string(), value));
    }
    samples
}

/// Asserts histogram invariants for one `<family>{stream="<name>"}`:
/// buckets are cumulative, and the `+Inf` bucket equals `_count`.
fn check_histogram(samples: &[(String, f64)], family: &str, stream: &str) -> f64 {
    let label = format!("stream=\"{stream}\"");
    let buckets: Vec<f64> = samples
        .iter()
        .filter(|(s, _)| s.starts_with(&format!("{family}_bucket{{")) && s.contains(&label))
        .map(|(_, v)| *v)
        .collect();
    assert!(!buckets.is_empty(), "no buckets for {family}/{stream}");
    assert!(
        buckets.windows(2).all(|w| w[0] <= w[1]),
        "{family}/{stream}: buckets must be cumulative: {buckets:?}"
    );
    let count = samples
        .iter()
        .find(|(s, _)| s.starts_with(&format!("{family}_count{{")) && s.contains(&label))
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("no _count for {family}/{stream}"));
    assert_eq!(
        *buckets.last().unwrap(),
        count,
        "{family}/{stream}: +Inf bucket must equal _count"
    );
    count
}

#[test]
fn exposition_is_well_formed_and_counts_the_traffic() {
    let engine = engine_with_traffic(60);
    engine.query("alpha", None).unwrap();
    engine.query("beta", None).unwrap();
    let samples = lint_exposition(&engine.render_metrics());
    let get = |series: &str| -> f64 {
        samples
            .iter()
            .find(|(s, _)| s == series)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing series {series}"))
    };

    assert_eq!(get("fdm_streams"), 2.0);
    assert_eq!(get("fdm_stream_processed_total{stream=\"alpha\"}"), 60.0);
    assert_eq!(get("fdm_stream_processed_total{stream=\"beta\"}"), 60.0);
    assert_eq!(get("fdm_panics_contained_total"), 0.0);

    for stream in ["alpha", "beta"] {
        let inserts = check_histogram(&samples, "fdm_insert_latency_seconds", stream);
        assert_eq!(inserts, 60.0, "{stream}: one observation per insert");
        let queries = check_histogram(&samples, "fdm_query_latency_seconds", stream);
        assert_eq!(queries, 1.0, "{stream}: one observation per query");
    }
}

#[test]
fn http_endpoint_serves_scrapes_and_rejects_everything_else() {
    let engine = engine_with_traffic(10);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || serve_metrics(engine, listener));

    let request = |req: &str| -> String {
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client.write_all(req.as_bytes()).unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        response
    };

    let ok = request("GET /metrics HTTP/1.0\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
    assert!(
        ok.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{ok}"
    );
    let body = ok.split("\r\n\r\n").nth(1).unwrap();
    let samples = lint_exposition(body);
    assert!(samples.iter().any(|(s, _)| s == "fdm_streams"));

    let missing = request("GET /other HTTP/1.0\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.0 404 "), "{missing}");
    let bad_method = request("POST /metrics HTTP/1.0\r\n\r\n");
    assert!(bad_method.starts_with("HTTP/1.0 405 "), "{bad_method}");
}

/// The non-blocking guarantee: a tight scrape loop runs while inserter
/// threads hammer the engine; inserts must keep completing (throughput
/// sanity) and every concurrent scrape must still lint clean.
#[test]
fn scrapes_under_concurrent_load_stay_valid_and_do_not_block_inserts() {
    let engine = engine_with_traffic(5);
    let stop = Arc::new(AtomicBool::new(false));
    let mut inserters = Vec::new();
    for (s, stream) in ["alpha", "beta"].into_iter().enumerate() {
        let engine = engine.clone();
        let stop = stop.clone();
        inserters.push(std::thread::spawn(move || {
            let mut done = 0usize;
            for i in 5..5000 {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let line = format!("INSERT {i} {} {}.0 {s}.5", i % 2, i % 17);
                match parse_line(&line).unwrap().unwrap() {
                    Cmd::Insert(e) => {
                        engine.insert(stream, &e, &line).unwrap();
                    }
                    other => panic!("{other:?}"),
                }
                done += 1;
            }
            done
        }));
    }

    // Scrape continuously for a bounded window while the storm runs.
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut scrapes = 0usize;
    while Instant::now() < deadline {
        let text = engine.render_metrics();
        lint_exposition(&text);
        scrapes += 1;
    }
    stop.store(true, Ordering::SeqCst);
    let done: usize = inserters.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(scrapes >= 3, "scrape loop starved: {scrapes}");
    assert!(
        done >= 100,
        "inserts starved behind scrapes: only {done} completed"
    );

    // After the storm the book-keeping still adds up.
    let samples = lint_exposition(&engine.render_metrics());
    let processed: f64 = samples
        .iter()
        .filter(|(s, _)| s.starts_with("fdm_stream_processed_total{"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(processed as usize, done + 10, "5 warmup inserts per stream");
}

/// `STATS` and `/metrics` are two renderings of one registry: each STATS
/// counter equals its family's sample. Checked on a durable single node
/// (full snapshots, deltas and compactions all non-zero) and on a
/// coordinator over two in-process workers, whose logical streams count in
/// `fdm_streams` and report `processed` as `fdm_stream_processed_total`.
#[test]
fn stats_counters_equal_their_exposition_samples() {
    let stats = |engine: &Engine, name: &str| -> HashMap<String, String> {
        match engine.stats(name).unwrap() {
            Payload::Stats(line) => line
                .split_whitespace()
                .map(|field| {
                    let (key, value) = field.split_once('=').unwrap();
                    (key.to_string(), value.to_string())
                })
                .collect(),
            other => panic!("{other:?}"),
        }
    };
    let get = |samples: &[(String, f64)], series: &str| -> f64 {
        samples
            .iter()
            .find(|(s, _)| s == series)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing series {series}"))
    };
    let open_and_insert = |engine: &Engine, open: &str, inserts: usize| -> String {
        let (name, spec) = match parse_line(open).unwrap().unwrap() {
            Cmd::Open { name, spec } => (name, spec),
            other => panic!("{other:?}"),
        };
        engine.open(&name, &spec).unwrap();
        for i in 0..inserts {
            let line = format!(
                "INSERT {i} {} {} {}",
                i % 2,
                (i as f64 * 0.7391).sin() * 9.0,
                (i as f64 * 0.2113).cos() * 9.0
            );
            match parse_line(&line).unwrap().unwrap() {
                Cmd::Insert(e) => {
                    engine.insert(&name, &e, &line).unwrap();
                }
                other => panic!("{other:?}"),
            }
        }
        name
    };

    // Durable single node: every counter moves on the insert path, so one
    // STATS read per stream and one scrape see the same state.
    let dir = std::env::temp_dir().join(format!("fdm_metrics_agree_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::new(ServeConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: Some(5),
        full_every: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    // A directory where alpha's first delta goes fails every delta
    // checkpoint of alpha (each retry anchors, and the next delta is
    // `alpha.delta.1` again), so `checkpoint_failures` moves on one
    // stream only.
    std::fs::create_dir_all(dir.join("alpha.delta.1")).unwrap();
    let names: Vec<String> = OPENS
        .iter()
        .map(|open| open_and_insert(&engine, open, 60))
        .collect();
    // Two QUERYs of an unchanged stream: the first computes its guesses,
    // the second reuses them.
    for name in &names {
        engine.query(name, None).unwrap();
        engine.query(name, None).unwrap();
    }
    let lines: Vec<_> = names.iter().map(|n| stats(&engine, n)).collect();
    let samples = lint_exposition(&engine.render_metrics());
    for key in [
        "snapshots",
        "deltas",
        "dirty_bytes",
        "wal_records",
        "compactions",
        "checkpoint_failures",
        "guesses_reused",
        "guesses_computed",
    ] {
        let total: u64 = lines.iter().map(|l| l[key].parse::<u64>().unwrap()).sum();
        assert!(total > 0, "{key} stayed 0: {lines:?}");
    }
    assert_eq!(lines[1]["checkpoint_failures"], "0", "{lines:?}");
    for (name, line) in names.iter().zip(&lines) {
        for (key, series) in [
            (
                "processed",
                format!("fdm_stream_processed_total{{stream=\"{name}\"}}"),
            ),
            ("stored", format!("fdm_stream_stored{{stream=\"{name}\"}}")),
            (
                "wal_records",
                format!("fdm_wal_records_total{{stream=\"{name}\"}}"),
            ),
            (
                "snapshots",
                format!("fdm_snapshots_total{{stream=\"{name}\",kind=\"full\"}}"),
            ),
            (
                "deltas",
                format!("fdm_snapshots_total{{stream=\"{name}\",kind=\"delta\"}}"),
            ),
            (
                "dirty_bytes",
                format!("fdm_delta_dirty_bytes_total{{stream=\"{name}\"}}"),
            ),
            (
                "compactions",
                format!("fdm_compactions_total{{stream=\"{name}\"}}"),
            ),
            (
                "checkpoint_failures",
                format!("fdm_checkpoint_failures_total{{stream=\"{name}\"}}"),
            ),
            (
                "last_snapshot_bytes",
                format!("fdm_last_snapshot_bytes{{stream=\"{name}\"}}"),
            ),
            (
                "guesses_reused",
                format!("fdm_finalize_guesses_total{{stream=\"{name}\",outcome=\"reused\"}}"),
            ),
            (
                "guesses_computed",
                format!("fdm_finalize_guesses_total{{stream=\"{name}\",outcome=\"computed\"}}"),
            ),
        ] {
            let stat: f64 = line[key].parse().unwrap();
            assert_eq!(
                stat,
                get(&samples, &series),
                "{name}: STATS {key} vs {series}"
            );
        }
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    // Coordinator over two in-process workers; the streams get different
    // traffic so a crossed mapping shows.
    let workers: Vec<String> = (0..2)
        .map(|_| {
            let engine = Arc::new(Engine::new(ServeConfig::default()).unwrap());
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            std::thread::spawn(move || serve_tcp(engine, listener, NetOptions::default()));
            addr
        })
        .collect();
    let coordinator = Engine::new(ServeConfig {
        workers: workers.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let opens = [
        (OPENS[0], 30),
        (OPENS[1], 11),
        ("OPEN gamma sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30", 0),
    ];
    let names: Vec<String> = opens
        .iter()
        .map(|(open, inserts)| open_and_insert(&coordinator, open, *inserts))
        .collect();
    // alpha merges twice, beta once; the second merge of alpha (one more
    // insert, so not a cached answer) reuses guesses of the first.
    coordinator.query("alpha", None).unwrap();
    let line = "INSERT 30 0 4.5 -3.25";
    match parse_line(line).unwrap().unwrap() {
        Cmd::Insert(e) => coordinator.insert("alpha", &e, line).unwrap(),
        other => panic!("{other:?}"),
    };
    coordinator.query("alpha", None).unwrap();
    coordinator.query("beta", None).unwrap();
    let samples = lint_exposition(&coordinator.render_metrics());
    assert_eq!(get(&samples, "fdm_streams"), names.len() as f64);
    let alpha = stats(&coordinator, "alpha");
    for key in ["guesses_reused", "guesses_computed"] {
        assert_ne!(alpha[key], "0", "{key}: {alpha:?}");
    }
    for (name, (_, inserts)) in names.iter().zip(opens) {
        let line = stats(&coordinator, name);
        let inserts = inserts + usize::from(name == "alpha");
        assert_eq!(line["processed"], inserts.to_string(), "{name}");
        let series = format!("fdm_stream_processed_total{{stream=\"{name}\"}}");
        assert_eq!(inserts as f64, get(&samples, &series), "{name}: {series}");
        for (key, outcome) in [
            ("guesses_reused", "reused"),
            ("guesses_computed", "computed"),
        ] {
            let stat: f64 = line[key].parse().unwrap();
            let series =
                format!("fdm_finalize_guesses_total{{stream=\"{name}\",outcome=\"{outcome}\"}}");
            assert_eq!(
                stat,
                get(&samples, &series),
                "{name}: STATS {key} vs {series}"
            );
        }
        for (i, addr) in workers.iter().enumerate() {
            assert_eq!(line[&format!("worker{i}")], *addr);
            for (key, family) in [
                ("up", "fdm_worker_up"),
                ("failures", "fdm_worker_failures_total"),
            ] {
                let stat: f64 = line[&format!("worker{i}_{key}")].parse().unwrap();
                let series = format!("{family}{{worker=\"{addr}\"}}");
                assert_eq!(
                    stat,
                    get(&samples, &series),
                    "{name}: worker{i}_{key} vs {series}"
                );
            }
        }
    }
}

/// `fdm_checkpoint_seconds` splits every checkpoint and `SNAPSHOT` export
/// that `fdm_snapshots_total` counts into its capture and write phases:
/// after a durable run with anchors, deltas, collapses and an export, each
/// phase's `_count` equals STATS `snapshots + deltas`.
#[test]
fn checkpoint_phase_histograms_count_every_snapshot_and_delta() {
    let dir = std::env::temp_dir().join(format!("fdm_metrics_phases_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::new(ServeConfig {
        data_dir: Some(dir.clone()),
        snapshot_every: Some(4),
        full_every: 3,
        ..ServeConfig::default()
    })
    .unwrap();
    let (name, spec) = match parse_line(OPENS[0]).unwrap().unwrap() {
        Cmd::Open { name, spec } => (name, spec),
        other => panic!("{other:?}"),
    };
    engine.open(&name, &spec).unwrap();
    let export = dir.join("export.snap");
    for i in 0..50 {
        let line = format!(
            "INSERT {i} {} {} {}",
            i % 2,
            (i as f64 * 0.7391).sin() * 9.0,
            (i as f64 * 0.2113).cos() * 9.0
        );
        match parse_line(&line).unwrap().unwrap() {
            Cmd::Insert(e) => {
                engine.insert(&name, &e, &line).unwrap();
            }
            other => panic!("{other:?}"),
        }
        if i == 21 {
            engine.snapshot(&name, export.to_str().unwrap()).unwrap();
        }
    }
    let stats: HashMap<String, u64> = match engine.stats(&name).unwrap() {
        Payload::Stats(line) => line
            .split_whitespace()
            .filter_map(|field| {
                let (key, value) = field.split_once('=')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect(),
        other => panic!("{other:?}"),
    };
    assert!(stats["deltas"] > 0 && stats["compactions"] > 0, "{stats:?}");
    let written = stats["snapshots"] + stats["deltas"];
    let samples = lint_exposition(&engine.render_metrics());
    for phase in ["capture", "write"] {
        let labels = format!("stream=\"{name}\",phase=\"{phase}\"");
        let series = |suffix: &str| -> Vec<f64> {
            samples
                .iter()
                .filter(|(s, _)| {
                    s.starts_with(&format!("fdm_checkpoint_seconds_{suffix}{{"))
                        && s.contains(&labels)
                })
                .map(|(_, v)| *v)
                .collect()
        };
        let buckets = series("bucket");
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "{phase}: {buckets:?}"
        );
        assert_eq!(series("count"), [written as f64], "{phase}: {stats:?}");
        assert_eq!(buckets.last(), Some(&(written as f64)), "{phase}");
        assert!(series("sum")[0] > 0.0, "{phase}");
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The process-wide `fdm_request_parse_seconds` histogram takes one
/// observation per line a session hands to the parser — accepted,
/// rejected, blank and comment lines alike — and renders unlabelled,
/// with its `+Inf` bucket equal to `_count`.
#[test]
fn request_parse_histogram_counts_every_parsed_line() {
    let engine = Arc::new(Engine::new(ServeConfig::default()).unwrap());
    let script = "OPEN jobs sfdm2 quotas=1,1 eps=0.1 dmin=0.05 dmax=30\n\
                  INSERT 0 0 1.5 -2\n\
                  INSERTB 1 1 3 4 | 2 0 0.25 1\n\
                  INSERT 3 0 zebra\n\
                  \n\
                  # a comment\n\
                  FROB\n\
                  QUERY\n";
    let mut reply = Vec::new();
    fdm_serve::Session::new(engine.clone())
        .run(script.as_bytes(), &mut reply)
        .unwrap();
    let replies = String::from_utf8(reply).unwrap();
    assert_eq!(replies.lines().count(), 6, "{replies}");

    let samples = lint_exposition(&engine.render_metrics());
    let get = |series: &str| -> f64 {
        samples
            .iter()
            .find(|(s, _)| s == series)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing series {series}"))
    };
    let buckets: Vec<f64> = samples
        .iter()
        .filter(|(s, _)| s.starts_with("fdm_request_parse_seconds_bucket{le="))
        .map(|(_, v)| *v)
        .collect();
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    assert_eq!(get("fdm_request_parse_seconds_count"), 8.0);
    assert_eq!(
        get("fdm_request_parse_seconds_bucket{le=\"+Inf\"}"),
        get("fdm_request_parse_seconds_count")
    );
    assert!(get("fdm_request_parse_seconds_sum") >= 0.0);
}

/// A coordinator's QUERY phases: `fdm_coord_pull_seconds` takes one
/// observation per worker `MERGE` round trip and `fdm_coord_merge_seconds`
/// one per merge of the pulled unions; a cached QUERY adds to neither,
/// and the phases fit inside the QUERY latency they split. On a single
/// node neither family has a series.
#[test]
fn coordinator_query_phase_histograms_count_pulls_and_merges() {
    let workers: Vec<String> = (0..2)
        .map(|_| {
            let engine = Arc::new(Engine::new(ServeConfig::default()).unwrap());
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            std::thread::spawn(move || serve_tcp(engine, listener, NetOptions::default()));
            addr
        })
        .collect();
    let coordinator = Engine::new(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .unwrap();
    let (name, spec) = match parse_line(OPENS[0]).unwrap().unwrap() {
        Cmd::Open { name, spec } => (name, spec),
        other => panic!("{other:?}"),
    };
    coordinator.open(&name, &spec).unwrap();
    let insert = |i: usize| {
        let line = format!("INSERT {i} {} {} {}", i % 2, i as f64 * 0.5, -(i as f64));
        match parse_line(&line).unwrap().unwrap() {
            Cmd::Insert(e) => coordinator.insert(&name, &e, &line).unwrap(),
            other => panic!("{other:?}"),
        };
    };
    let sum = |samples: &[(String, f64)], family: &str| -> f64 {
        samples
            .iter()
            .find(|(s, _)| *s == format!("{family}_sum{{stream=\"alpha\"}}"))
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no _sum for {family}"))
    };
    for (round, (pulls, merges, queries)) in [(2.0, 1.0, 2.0), (4.0, 2.0, 4.0)].iter().enumerate() {
        for i in round * 10..round * 10 + 10 {
            insert(i);
        }
        coordinator.query(&name, None).unwrap();
        coordinator.query(&name, None).unwrap(); // cached
        let samples = lint_exposition(&coordinator.render_metrics());
        assert_eq!(
            check_histogram(&samples, "fdm_coord_pull_seconds", "alpha"),
            *pulls
        );
        assert_eq!(
            check_histogram(&samples, "fdm_coord_merge_seconds", "alpha"),
            *merges
        );
        assert_eq!(
            check_histogram(&samples, "fdm_coord_query_latency_seconds", "alpha"),
            *queries
        );
        assert!(
            sum(&samples, "fdm_coord_pull_seconds") + sum(&samples, "fdm_coord_merge_seconds")
                <= sum(&samples, "fdm_coord_query_latency_seconds")
        );
    }

    let node = engine_with_traffic(5);
    node.query("alpha", None).unwrap();
    let exposition = node.render_metrics();
    for family in ["fdm_coord_pull_seconds", "fdm_coord_merge_seconds"] {
        assert!(!exposition.contains(family), "{family} on a single node");
    }
}

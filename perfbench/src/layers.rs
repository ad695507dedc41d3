//! The traced run: the workload's own arrivals driven through each
//! layer's public entry point, innermost layer first, every call recorded
//! as a span. A layer's self time is its span minus the inner layer's span
//! on the same inputs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fdm_client::client::Client;
use fdm_client::protocol::{parse_line, Payload, Request, Response};
use fdm_core::persist::{self, CaptureMark, Snapshot, SnapshotDelta, SnapshotFormat};
use fdm_core::point::Element;
use fdm_core::streaming::summary::{self, DynSummary, SummarySpec};
use fdm_serve::{Engine, ServeConfig};

use crate::e2e::{self, Options, Streams};
use crate::stats::{mean, median};
use crate::sut::{self, stat_field, RunDir};
use crate::trace::SpanLog;
use crate::workload::{self, Arrivals, Kind, Workload};

/// Elements per `insert_batch` call in the in-process layers.
const CHUNK: usize = 256;
/// Arrivals in the delta-checkpoint window.
const DELTA_WINDOW: usize = 64;
/// Lines rendered and parsed per protocol repetition.
const PROTOCOL_SAMPLE: usize = 8192;
/// `INSERTB` batches between coordinator queries (the cluster's shape).
const COORD_QUERY_EVERY: usize = 8;
/// Pings per repetition of the round-trip probe.
const PINGS: usize = 200;
/// Timed steps sharing the run's time budget.
const STEPS: u32 = 10;

/// Per-layer metrics plus the self-time split of one request.
#[derive(Debug)]
pub struct LayerRun {
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Self time per insert request (query cost amortized over the
    /// inserts between two queries), by layer, in microseconds.
    pub split_us: Vec<(&'static str, f64)>,
    /// The layer with the largest self time.
    pub dominant: &'static str,
    /// Oracle problems of the traced and untraced passes.
    pub problems: Vec<String>,
    /// Requests attempted and failed by those passes.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Repeats `f` (each call returns one sample) until `budget` has elapsed
/// and at least `min` samples exist.
fn reps(
    budget: Duration,
    min: usize,
    mut f: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        out.push(f()?);
    }
    Ok(out)
}

fn build(spec: &SummarySpec) -> Result<Box<dyn DynSummary>, String> {
    summary::build(spec).map_err(err)
}

fn feed(summary: &mut dyn DynSummary, elements: &[Element]) {
    for chunk in elements.chunks(CHUNK) {
        summary.insert_batch(chunk);
    }
}

/// One streamed pass through a summary, one span per `insert_batch`;
/// returns ns per element and the filled summary.
fn ladder_pass(
    log: &mut SpanLog,
    spec: &SummarySpec,
    elements: &[Element],
    layer: &'static str,
) -> Result<(f64, Box<dyn DynSummary>), String> {
    let mut s = build(spec)?;
    let rep = log.begin();
    for chunk in elements.chunks(CHUNK) {
        log.time(rep.0, layer, "insert_batch", chunk.len() as u64, || {
            s.insert_batch(chunk)
        });
    }
    let secs = log.end(rep, 0, layer, "stream", elements.len() as u64);
    Ok((secs * 1e9 / elements.len() as f64, s))
}

/// Everything the traced run measures, innermost layer first.
pub fn run(
    workload: &Workload,
    arrivals: &Arrivals,
    streams: &mut Streams,
    seconds: f64,
    dir: &RunDir,
    log: &mut SpanLog,
) -> Result<LayerRun, String> {
    let share = Duration::from_secs_f64(seconds / f64::from(STEPS));
    let elements = &arrivals.elements;
    let n = elements.len();
    let spec1 = arrivals.spec.to_summary_spec().map_err(err)?;
    let spec2 = SummarySpec {
        shards: 2,
        ..spec1.clone()
    };
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();

    // fdm-core::kernel — consecutive arrivals as pairs.
    let pairs = (n - 1) as u64;
    let kernel = reps(share, 3, || {
        let (acc, secs) = log.time(0, "kernel", "sum_sq_diff", pairs, || {
            let mut acc = 0.0;
            for pair in elements.windows(2) {
                acc += fdm_core::kernel::sum_sq_diff(
                    black_box(&pair[0].point),
                    black_box(&pair[1].point),
                );
            }
            acc
        });
        black_box(acc);
        Ok(secs * 1e9 / pairs as f64)
    })?;
    metrics.push(("kernel.sum_sq_diff_ns", median(&kernel), "ns"));

    // fdm-core::streaming — the ladder alone, then behind K=2 dealing.
    let mut ladder_summary = None;
    let ladder = reps(share, 3, || {
        let (ns, s) = ladder_pass(log, &spec1, elements, "ladder")?;
        ladder_summary = Some(s);
        Ok(ns)
    })?;
    let ladder_summary = ladder_summary.expect("at least one repetition");
    let sharded = reps(share, 3, || {
        Ok(ladder_pass(log, &spec2, elements, "sharded")?.0)
    })?;
    let ladder_ns = median(&ladder);
    let sharded_ns = median(&sharded);
    metrics.push(("ladder.insert_ns_per_elem", ladder_ns, "ns"));
    metrics.push(("sharded.insert_ns_per_elem", sharded_ns, "ns"));
    metrics.push(("sharded.overhead_ns_per_elem", sharded_ns - ladder_ns, "ns"));

    // finalize of the shards=1 summary; merge of K=2 parts dealt
    // round-robin, as the cluster's workers hold them.
    let finalize = reps(share / 2, 5, || {
        let (solution, secs) = log.time(0, "finalize", "finalize", 0, || ladder_summary.finalize());
        solution.map_err(err)?;
        Ok(secs * 1e3)
    })?;
    metrics.push(("finalize.ms", median(&finalize), "ms"));
    let mut parts = [build(&spec1)?, build(&spec1)?];
    for (w, part) in parts.iter_mut().enumerate() {
        let dealt: Vec<Element> = elements.iter().skip(w).step_by(2).cloned().collect();
        feed(part.as_mut(), &dealt);
    }
    let part_refs: Vec<&dyn DynSummary> = parts.iter().map(|p| p.as_ref()).collect();
    let merge = reps(share / 2, 5, || {
        let (solution, secs) = log.time(0, "merge", "merge_summary_parts", 2, || {
            summary::merge_summary_parts(&spec1, &part_refs, 8)
        });
        solution.map_err(err)?;
        Ok(secs * 1e3)
    })?;
    let merge_ms = median(&merge);
    metrics.push(("merge.ms", merge_ms, "ms"));

    // fdm-core::persist — full snapshot codec, a delta over the last
    // DELTA_WINDOW arrivals, and one atomic durable write.
    let snapshot = ladder_summary.snapshot();
    let encode = reps(share / 3, 5, || {
        let (bytes, secs) = log.time(0, "persist", "to_bytes", 0, || {
            snapshot.to_bytes(SnapshotFormat::Binary)
        });
        black_box(bytes);
        Ok(secs * 1e6)
    })?;
    let full = snapshot.to_bytes(SnapshotFormat::Binary);
    let decode = reps(share / 3, 5, || {
        let (decoded, secs) = log.time(0, "persist", "from_bytes", 0, || {
            Snapshot::from_bytes(&full)
        });
        decoded.map_err(err)?;
        Ok(secs * 1e6)
    })?;
    let window = DELTA_WINDOW.min(n / 2);
    let mut moving = build(&spec1)?;
    feed(moving.as_mut(), &elements[..n - window]);
    let base_params = moving.params();
    let base_state = moving.snapshot_state_value();
    let cursor = moving.capture_cursor();
    feed(moving.as_mut(), &elements[n - window..]);
    let mut delta_bytes = 0usize;
    let delta = reps(share / 3, 5, || {
        let mut mark = CaptureMark::of(base_params.clone(), &base_state);
        let (bytes, secs) = log.time(0, "persist", "delta", window as u64, || {
            let patch = moving.state_patch_since(&cursor)?;
            SnapshotDelta::from_patch(&mut mark, &moving.params(), patch).map(|d| d.to_bytes())
        });
        delta_bytes = bytes
            .ok_or_else(|| "the delta window did not lower to a delta".to_string())?
            .len();
        Ok(secs * 1e6)
    })?;
    let snap_path = dir.path().join("layer.snap");
    let write = reps(share / 3, 5, || {
        let (written, secs) = log.time(0, "persist", "write_bytes_atomic", 0, || {
            persist::write_bytes_atomic(&snap_path, &full)
        });
        written.map_err(err)?;
        Ok(secs * 1e6)
    })?;
    metrics.push(("persist.encode_us", median(&encode), "us"));
    metrics.push(("persist.decode_us", median(&decode), "us"));
    metrics.push(("persist.full_bytes", full.len() as f64, "bytes"));
    metrics.push(("persist.delta_us", median(&delta), "us"));
    metrics.push(("persist.delta_bytes", delta_bytes as f64, "bytes"));
    metrics.push(("persist.write_fsync_us", median(&write), "us"));

    // fdm-client::protocol — INSERT lines, INSERTB lines of CHUNK, and the
    // insert reply of the workload's request shape.
    let sample = &elements[..n.min(PROTOCOL_SAMPLE)];
    let insert_lines: Vec<String> = sample
        .iter()
        .map(|e| Request::Insert(e.clone()).render())
        .collect();
    let batch_lines: Vec<String> = sample
        .chunks(CHUNK)
        .map(|c| Request::InsertBatch(c.to_vec()).render())
        .collect();
    let per_elem = |secs: f64| secs * 1e9 / sample.len() as f64;
    let mut buf = String::new();
    let render = reps(share / 4, 3, || {
        let (_, secs) = log.time(0, "protocol", "render_insert", sample.len() as u64, || {
            for e in sample {
                buf.clear();
                Request::Insert(e.clone()).render_into(&mut buf);
                black_box(&buf);
            }
        });
        Ok(per_elem(secs))
    })?;
    let parse = reps(share / 4, 3, || {
        let (_, secs) = log.time(0, "protocol", "parse_insert", sample.len() as u64, || {
            for line in &insert_lines {
                black_box(parse_line(line).is_ok());
            }
        });
        Ok(per_elem(secs))
    })?;
    let batch_render = reps(share / 4, 3, || {
        let (_, secs) = log.time(0, "protocol", "render_insertb", sample.len() as u64, || {
            for chunk in sample.chunks(CHUNK) {
                buf.clear();
                Request::InsertBatch(chunk.to_vec()).render_into(&mut buf);
                black_box(&buf);
            }
        });
        Ok(per_elem(secs))
    })?;
    let batch_parse = reps(share / 4, 3, || {
        let (_, secs) = log.time(0, "protocol", "parse_insertb", sample.len() as u64, || {
            for line in &batch_lines {
                black_box(parse_line(line).is_ok());
            }
        });
        Ok(per_elem(secs))
    })?;
    let replies: Vec<String> = (1..=sample.len().div_ceil(workload.batch))
        .map(|i| {
            let payload = if workload.batch == 1 {
                Payload::Inserted { seq: i }
            } else {
                Payload::InsertedBatch {
                    seq: i * workload.batch,
                    count: workload.batch,
                }
            };
            Response::Ok(payload).render()
        })
        .collect();
    let reply_parse = reps(share / 4, 3, || {
        let (_, secs) = log.time(0, "protocol", "reply_parse", replies.len() as u64, || {
            for line in &replies {
                black_box(Response::parse(line).is_ok());
            }
        });
        Ok(secs * 1e9 / replies.len() as f64)
    })?;
    let render_ns = median(&render);
    let parse_ns = median(&parse);
    let batch_render_ns = median(&batch_render);
    let batch_parse_ns = median(&batch_parse);
    let reply_parse_ns = median(&reply_parse);
    metrics.push(("protocol.render_ns_per_elem", render_ns, "ns"));
    metrics.push(("protocol.parse_ns_per_elem", parse_ns, "ns"));
    metrics.push(("protocol.batch_render_ns_per_elem", batch_render_ns, "ns"));
    metrics.push(("protocol.batch_parse_ns_per_elem", batch_parse_ns, "ns"));
    metrics.push(("protocol.reply_parse_ns", reply_parse_ns, "ns"));
    // Client-side render + server-side parse of one request, plus the
    // client's reply parse.
    let protocol_us = if workload.batch == 1 {
        (render_ns + parse_ns + reply_parse_ns) / 1e3
    } else {
        ((batch_render_ns + batch_parse_ns) * workload.batch as f64 + reply_parse_ns) / 1e3
    };

    // fdm-serve::engine — in process, the workload's ServeConfig (the
    // durable node's, or in-memory) and request shape.
    // What a single node hosts: the workload's own (sharded) summary for
    // lib-ingest, one shards=1 summary otherwise.
    let hosted_spec = match workload.kind {
        Kind::LibIngest => &arrivals.sharded_spec,
        Kind::WireDurable | Kind::WireCluster => &arrivals.spec,
    };
    let engine_config = || match workload.kind {
        Kind::WireDurable => sut::durable_config(dir.sub("engine-layer")),
        Kind::LibIngest | Kind::WireCluster => ServeConfig::default(),
    };
    let all_lines: Vec<String> = if workload.batch == 1 {
        elements
            .iter()
            .map(|e| Request::Insert(e.clone()).render())
            .collect()
    } else {
        Vec::new()
    };
    let engine = Engine::new(engine_config()).map_err(err)?;
    let mut engine_insert_us = Vec::new();
    let mut engine_query_ms = Vec::new();
    let mut last_stats = String::new();
    let mut rep = 0usize;
    reps(share, 1, || {
        let name = format!("e{rep}");
        rep += 1;
        engine.open(&name, hosted_spec).map_err(err)?;
        let requests = n.div_ceil(workload.batch);
        for (i, chunk) in elements.chunks(workload.batch).enumerate() {
            let (reply, secs) = log.time(0, "engine", "insert", chunk.len() as u64, || {
                if workload.batch == 1 {
                    engine.insert(&name, &chunk[0], &all_lines[i])
                } else {
                    engine.insert_batch(&name, chunk)
                }
            });
            reply.map_err(err)?;
            engine_insert_us.push(secs * 1e6);
            if workload::query_after(i, requests, workload.query_every) {
                let (reply, secs) = log.time(0, "engine", "query", 0, || engine.query(&name, None));
                reply.map_err(err)?;
                engine_query_ms.push(secs * 1e3);
            }
        }
        if let Payload::Stats(line) = engine.stats(&name).map_err(err)? {
            last_stats = line;
        }
        Ok(0.0)
    })?;
    drop(engine);
    let engine_us = median(&engine_insert_us);
    let inner_ladder_ns = if hosted_spec.shards > 1 {
        sharded_ns
    } else {
        ladder_ns
    };
    let engine_self_us = engine_us - inner_ladder_ns * workload.batch as f64 / 1e3;
    let stat = |key: &str| stat_field(&last_stats, key).unwrap_or(0) as f64;
    let processed = stat("processed").max(1.0);
    metrics.push(("engine.insert_us", engine_us, "us"));
    metrics.push(("engine.self_us", engine_self_us, "us"));
    metrics.push(("engine.query_ms", median(&engine_query_ms), "ms"));
    metrics.push((
        "engine.checkpoints",
        stat("snapshots") + stat("deltas"),
        "count",
    ));
    metrics.push(("engine.compactions", stat("compactions"), "count"));
    metrics.push(("engine.wal_records", stat("wal_records"), "count"));
    metrics.push((
        "engine.dirty_bytes_per_elem",
        stat("dirty_bytes") / processed,
        "bytes",
    ));

    // fdm-serve::coordinator — in process over two workers behind
    // serve_tcp, INSERTB of CHUNK with a query every COORD_QUERY_EVERY.
    let (coordinator, _) = sut::coordinator()?;
    let mut coord_insert_us = Vec::new();
    let mut coord_query_ms = Vec::new();
    let mut rep = 0usize;
    reps(share, 1, || {
        let name = format!("c{rep}");
        rep += 1;
        coordinator.open(&name, &arrivals.spec).map_err(err)?;
        let requests = n.div_ceil(CHUNK);
        for (i, chunk) in elements.chunks(CHUNK).enumerate() {
            let (reply, secs) = log.time(0, "coord", "insert_batch", chunk.len() as u64, || {
                coordinator.insert_batch(&name, chunk)
            });
            reply.map_err(err)?;
            coord_insert_us.push(secs * 1e6);
            if workload::query_after(i, requests, COORD_QUERY_EVERY) {
                let (reply, secs) =
                    log.time(0, "coord", "query", 0, || coordinator.query(&name, None));
                reply.map_err(err)?;
                coord_query_ms.push(secs * 1e3);
            }
        }
        Ok(0.0)
    })?;
    let exposition = coordinator.render_metrics();
    let merge_bytes = |kind: &str| {
        let sample = format!("fdm_merge_bytes_total{{kind=\"{kind}\"}}");
        exposition
            .lines()
            .find_map(|line| line.strip_prefix(&sample)?.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let queries = coord_query_ms.len().max(1) as f64;
    let coord_us = median(&coord_insert_us);
    let coord_query = median(&coord_query_ms);
    metrics.push(("coord.insertb_us", coord_us, "us"));
    metrics.push(("coord.query_ms", coord_query, "ms"));
    metrics.push(("coord.refresh_ms", coord_query - merge_ms, "ms"));
    metrics.push((
        "coord.merge_bytes_full",
        merge_bytes("full") / queries,
        "bytes",
    ));
    metrics.push((
        "coord.merge_bytes_delta",
        merge_bytes("delta") / queries,
        "bytes",
    ));

    // fdm-client::client / network — the workload's front server behind
    // serve_tcp: PING round trips, then the workload's insert requests.
    let front = match workload.kind {
        Kind::WireCluster => coordinator,
        Kind::LibIngest | Kind::WireDurable => Engine::new(engine_config()).map_err(err)?,
    };
    let front = Arc::new(front);
    let addr = sut::serve(front.clone())?;
    let mut client = Client::connect_tcp(addr.as_str()).map_err(err)?;
    let ping = reps(share / 2, 3, || {
        let (pinged, secs) = log.time(0, "net", "ping", PINGS as u64, || {
            (0..PINGS).try_for_each(|_| client.ping())
        });
        pinged.map_err(err)?;
        Ok(secs * 1e6 / PINGS as f64)
    })?;
    let mut rtt_us = Vec::new();
    let mut rep = 0usize;
    reps(share / 2, 1, || {
        let name = format!("n{rep}");
        rep += 1;
        client.open(&name, hosted_spec).map_err(err)?;
        for chunk in elements.chunks(workload.batch) {
            let (reply, secs) = log.time(0, "net", "insert", chunk.len() as u64, || {
                if workload.batch == 1 {
                    client.insert(&chunk[0]).map(|_| ())
                } else {
                    client.insert_batch(chunk).map(|_| ())
                }
            });
            reply.map_err(err)?;
            rtt_us.push(secs * 1e6);
        }
        Ok(0.0)
    })?;
    client.quit().map_err(err)?;
    if workload.kind == Kind::WireDurable {
        front.drain().map_err(err)?;
    }
    let inner_us = match workload.kind {
        Kind::WireCluster => coord_us,
        Kind::LibIngest | Kind::WireDurable => engine_us,
    };
    let net_self_us = median(&rtt_us) - inner_us - protocol_us;
    metrics.push(("net.ping_rtt_us", median(&ping), "us"));
    metrics.push(("net.self_us", net_self_us, "us"));

    // Tracing overhead: the same closed loop untraced, then with a span
    // per request.
    let untraced = e2e::run(workload, streams, share, 1, dir, Options::default(), None);
    let traced = e2e::run(
        workload,
        streams,
        share,
        1,
        dir,
        Options::default(),
        Some(log),
    );
    let overhead_pct = (mean(&traced.insert_us) / mean(&untraced.insert_us) - 1.0) * 100.0;

    // Self time per insert request, query cost amortized.
    let per_request = |ns_per_elem: f64| ns_per_elem * workload.batch as f64 / 1e3;
    let ladder_us = per_request(ladder_ns);
    let sharded_us = if workload.shards > 1 {
        per_request((sharded_ns - ladder_ns).max(0.0))
    } else {
        0.0
    };
    let query_ms = match workload.kind {
        Kind::LibIngest => median(&untraced.query_ms),
        Kind::WireDurable => median(&engine_query_ms),
        Kind::WireCluster => coord_query,
    };
    let (engine_part, protocol_part, net_part) = match workload.kind {
        Kind::LibIngest => (0.0, 0.0, 0.0),
        Kind::WireDurable => (engine_self_us, protocol_us, net_self_us),
        Kind::WireCluster => (coord_us - ladder_us - sharded_us, protocol_us, net_self_us),
    };
    let split = [
        ("ladder", "self.ladder_pct", ladder_us),
        ("sharded", "self.sharded_pct", sharded_us),
        (
            "query",
            "self.query_pct",
            query_ms * 1e3 / workload.query_every as f64,
        ),
        ("engine", "self.engine_pct", engine_part.max(0.0)),
        ("protocol", "self.protocol_pct", protocol_part.max(0.0)),
        ("net", "self.net_pct", net_part.max(0.0)),
    ];
    let total: f64 = split.iter().map(|(_, _, us)| us).sum();
    for (_, name, us) in split {
        metrics.push((name, us / total * 100.0, "%"));
    }
    let split_us: Vec<(&'static str, f64)> = split.iter().map(|&(l, _, us)| (l, us)).collect();
    metrics.push(("trace.overhead_pct", overhead_pct, "%"));
    let dominant = split_us
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(layer, _)| *layer)
        .expect("split is non-empty");

    let mut problems = untraced.problems.clone();
    problems.extend(traced.problems.iter().cloned());
    Ok(LayerRun {
        metrics,
        split_us,
        dominant,
        problems,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
    })
}

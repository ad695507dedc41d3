//! The line protocol: one grammar, both sides of the wire.
//!
//! One command per line, fields separated by whitespace, one `OK ...` or
//! `ERR ...` response line per command (`MERGE` additionally streams a raw
//! binary tail after its header line). The grammar is documented in
//! `docs/serve.md`; parsing **and rendering** live here so the server's
//! session loop, the WAL replayer, the coordinator, the client, and the
//! tests all share one implementation:
//!
//! * [`Request`] — a parsed command. The server parses requests with
//!   [`parse_line`]; the client renders them with [`Request::render`].
//! * [`Response`] — a typed reply: [`Payload`] on success, [`ErrorReply`]
//!   on failure. The server renders replies with [`Response::render`] (the
//!   only place an `OK `/`ERR ` line may be formatted — CI greps for
//!   strays); the client parses them with [`Response::parse`].
//!
//! Both directions round-trip: `parse(render(x)) == x` byte-for-byte, so
//! a reply relayed through the coordinator is indistinguishable from one
//! answered locally.

use fdm_core::metric::Metric;
use fdm_core::point::Element;

/// Upper bound on a `MERGE` reply's announced binary tail. Far above any
/// real summary (summaries are sublinear in the stream), low enough that a
/// corrupt header cannot OOM the client.
pub const MAX_MERGE_BYTES: usize = 256 << 20;

/// A parsed protocol command.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `OPEN <name> <algo> key=value...` — create (or re-attach to) a named
    /// stream.
    Open {
        /// Stream name (`[A-Za-z0-9_-]+`).
        name: String,
        /// Algorithm + parameters.
        spec: StreamSpec,
    },
    /// `INSERT <id> <group> <x1> ... <xd>` — feed one stream element.
    Insert(Element),
    /// `INSERTB <elem> | <elem> | ...` — feed a batch of elements in one
    /// round trip (each `<elem>` is an `INSERT` tail, `|`-separated). The
    /// batch is applied in order and atomically WAL-logged on a durable
    /// worker; the reply acknowledges the whole batch at once.
    InsertBatch(Vec<Element>),
    /// `QUERY [k]` — run post-processing and return the current solution.
    Query {
        /// Optional solution size; must match the configured `k`.
        k: Option<usize>,
    },
    /// `SNAPSHOT <path>` — checkpoint the bound stream to a file (binary
    /// v2).
    Snapshot {
        /// Destination path.
        path: String,
    },
    /// `RESTORE <path>` — load a snapshot into the session.
    Restore {
        /// Source path.
        path: String,
    },
    /// `STATS` — processed/stored counters of the bound stream.
    Stats,
    /// `MERGE [since=<epoch>:<crc>]` — export the bound stream's summary
    /// as an inline binary frame (header line + raw byte tail). The
    /// coordinator's QUERY fan-out pulls worker summaries through this
    /// verb. The plain form always ships a full v2 snapshot frame; the
    /// `since=` form names the caller's cached base (the `epoch`/`crc`
    /// pair from a previous `MERGE since=` reply) and lets the server
    /// answer with an incremental `FDMDELT2` delta frame when the base
    /// still matches its export cursor — or a fresh full frame otherwise.
    Merge {
        /// Cached-base identity from the previous `MERGE since=` reply;
        /// `None` requests the version-1 full-frame reply shape.
        since: Option<(u64, u32)>,
    },
    /// `AUTH <token>` — authenticate the session (required first when the
    /// server runs with `--auth-token`).
    Auth {
        /// The presented token.
        token: String,
    },
    /// `PING` — liveness check.
    Ping,
    /// `QUIT` — end the session.
    Quit,
}

impl Request {
    /// Renders the command back to its wire line (no trailing newline).
    /// Inverse of [`parse_line`]: `parse_line(&r.render()) == Ok(Some(r))`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the wire line to `out` (no trailing newline) — the
    /// allocation-free form of [`Request::render`], used by clients that
    /// reuse one write buffer per connection.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Request::Open { name, spec } => {
                let _ = write!(out, "OPEN {name} {}", spec.render());
            }
            Request::Insert(e) => render_insert_tail("INSERT", e, out),
            Request::InsertBatch(elements) => {
                out.push_str("INSERTB");
                for (i, e) in elements.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" |");
                    }
                    render_insert_tail("", e, out);
                }
            }
            Request::Query { k: None } => out.push_str("QUERY"),
            Request::Query { k: Some(k) } => {
                let _ = write!(out, "QUERY {k}");
            }
            Request::Snapshot { path } => {
                let _ = write!(out, "SNAPSHOT {path}");
            }
            Request::Restore { path } => {
                let _ = write!(out, "RESTORE {path}");
            }
            Request::Stats => out.push_str("STATS"),
            Request::Merge { since: None } => out.push_str("MERGE"),
            Request::Merge {
                since: Some((epoch, crc)),
            } => {
                let _ = write!(out, "MERGE since={epoch}:{crc:08x}");
            }
            Request::Auth { token } => {
                let _ = write!(out, "AUTH {token}");
            }
            Request::Ping => out.push_str("PING"),
            Request::Quit => out.push_str("QUIT"),
        }
    }
}

/// Appends `<verb> <id> <group> <x1> ... <xd>` to `out` (the shared tail
/// shape of `INSERT` and each `INSERTB` batch entry; an empty verb appends
/// just the fields, each space-prefixed).
fn render_insert_tail(verb: &str, e: &Element, out: &mut String) {
    use std::fmt::Write as _;
    out.push_str(verb);
    let _ = write!(out, " {} {}", e.id, e.group);
    for x in e.point.iter() {
        let _ = write!(out, " {x}");
    }
}

/// Algorithm choice + parameters from an `OPEN` command.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// A base algorithm tag the summary registry knows:
    /// `unconstrained`, `sfdm1`, `sfdm2`, or `sliding`.
    pub algo: String,
    /// Guess-ladder accuracy `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Lower distance bound `d_min > 0`.
    pub dmin: f64,
    /// Upper distance bound `d_max ≥ d_min`.
    pub dmax: f64,
    /// Distance metric (default Euclidean).
    pub metric: Metric,
    /// Per-group quotas (fair algorithms); empty for `unconstrained`.
    pub quotas: Vec<usize>,
    /// Solution size for `unconstrained` (`Σ quotas` otherwise).
    pub k: usize,
    /// Shard count (default 1 = unsharded).
    pub shards: usize,
    /// Sliding-window size `W` (required for `sliding`, rejected
    /// elsewhere; 0 = not windowed).
    pub window: usize,
}

/// Whether a stream name is safe to bind (and to embed in data-dir file
/// names): ASCII alphanumerics, `_`, `-`, non-empty.
pub fn valid_stream_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_metric(text: &str) -> std::result::Result<Metric, String> {
    match text {
        "euclidean" => Ok(Metric::Euclidean),
        "manhattan" => Ok(Metric::Manhattan),
        "chebyshev" => Ok(Metric::Chebyshev),
        "angular" => Ok(Metric::Angular),
        other => {
            if let Some(p) = other.strip_prefix("minkowski:") {
                let p: f64 = p
                    .parse()
                    .map_err(|_| format!("invalid Minkowski order `{p}`"))?;
                Ok(Metric::Minkowski(p))
            } else {
                Err(format!(
                    "unknown metric `{other}` (expected euclidean, manhattan, \
                     chebyshev, angular, or minkowski:<p>)"
                ))
            }
        }
    }
}

fn render_metric(metric: &Metric) -> String {
    match metric {
        Metric::Euclidean => "euclidean".to_string(),
        Metric::Manhattan => "manhattan".to_string(),
        Metric::Chebyshev => "chebyshev".to_string(),
        Metric::Angular => "angular".to_string(),
        Metric::Minkowski(p) => format!("minkowski:{p}"),
    }
}

impl StreamSpec {
    /// Parses the `<algo> key=value...` tail of an `OPEN` command. The
    /// algorithm name is validated against the summary registry, so a new
    /// registered algorithm is automatically OPEN-able.
    pub fn parse(fields: &[&str]) -> std::result::Result<StreamSpec, String> {
        let algo = *fields.first().ok_or("OPEN requires an algorithm")?;
        if !fdm_core::streaming::summary::is_known_algorithm(algo) {
            return Err(format!(
                "unknown algorithm `{algo}` (expected one of: {})",
                fdm_core::streaming::summary::algorithm_tags().join(", ")
            ));
        }
        let mut epsilon = None;
        let mut dmin = None;
        let mut dmax = None;
        let mut metric = Metric::Euclidean;
        let mut quotas: Vec<usize> = Vec::new();
        let mut k: Option<usize> = None;
        let mut shards = 1usize;
        let mut window: Option<usize> = None;
        for field in &fields[1..] {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, found `{field}`"))?;
            let bad = |what: &str| format!("invalid {what} `{value}`");
            match key {
                "eps" => epsilon = Some(value.parse::<f64>().map_err(|_| bad("eps"))?),
                "dmin" => dmin = Some(value.parse::<f64>().map_err(|_| bad("dmin"))?),
                "dmax" => dmax = Some(value.parse::<f64>().map_err(|_| bad("dmax"))?),
                "metric" => metric = parse_metric(value)?,
                "quotas" => {
                    quotas = value
                        .split(',')
                        .map(|q| q.parse::<usize>().map_err(|_| bad("quotas")))
                        .collect::<std::result::Result<_, _>>()?;
                }
                "k" => k = Some(value.parse::<usize>().map_err(|_| bad("k"))?),
                "shards" => shards = value.parse::<usize>().map_err(|_| bad("shards"))?,
                "window" => window = Some(value.parse::<usize>().map_err(|_| bad("window"))?),
                other => return Err(format!("unknown OPEN parameter `{other}`")),
            }
        }
        let epsilon = epsilon.ok_or("OPEN requires eps=<f>")?;
        let dmin = dmin.ok_or("OPEN requires dmin=<f>")?;
        let dmax = dmax.ok_or("OPEN requires dmax=<f>")?;
        let k = match (algo, k, quotas.is_empty()) {
            ("unconstrained", Some(k), true) => k,
            ("unconstrained", None, _) => return Err("unconstrained requires k=<n>".into()),
            ("unconstrained", _, false) => {
                return Err("unconstrained takes k=<n>, not quotas".into())
            }
            (_, Some(_), _) => {
                return Err(format!("{algo} takes quotas=a,b,..., not k (k = Σ quotas)"))
            }
            (_, None, true) => return Err(format!("{algo} requires quotas=a,b,...")),
            (_, None, false) => quotas.iter().sum(),
        };
        let window = match (algo, window) {
            ("sliding", Some(w)) if w >= 2 => w,
            ("sliding", Some(w)) => return Err(format!("sliding requires window ≥ 2 (got {w})")),
            ("sliding", None) => return Err("sliding requires window=<n>".into()),
            (_, Some(_)) => return Err(format!("{algo} takes no window= parameter")),
            (_, None) => 0,
        };
        Ok(StreamSpec {
            algo: algo.to_string(),
            epsilon,
            dmin,
            dmax,
            metric,
            quotas,
            k,
            shards,
            window,
        })
    }

    /// Translates the protocol-level specification into the summary
    /// registry's algorithm-agnostic
    /// [`SummarySpec`](fdm_core::streaming::summary::SummarySpec).
    pub fn to_summary_spec(
        &self,
    ) -> fdm_core::error::Result<fdm_core::streaming::summary::SummarySpec> {
        let bounds = fdm_core::dataset::DistanceBounds::new(self.dmin, self.dmax)?;
        Ok(fdm_core::streaming::summary::SummarySpec {
            algorithm: self.algo.clone(),
            epsilon: self.epsilon,
            bounds,
            metric: self.metric,
            quotas: self.quotas.clone(),
            k: self.k,
            shards: self.shards,
            window: self.window,
        })
    }

    /// Renders the spec back to the `<algo> key=value...` tail of an
    /// `OPEN` line. Inverse of [`StreamSpec::parse`].
    pub fn render(&self) -> String {
        let mut out = self.algo.clone();
        if self.quotas.is_empty() {
            out.push_str(&format!(" k={}", self.k));
        } else {
            let quotas: Vec<String> = self.quotas.iter().map(|q| q.to_string()).collect();
            out.push_str(&format!(" quotas={}", quotas.join(",")));
        }
        out.push_str(&format!(
            " eps={} dmin={} dmax={}",
            self.epsilon, self.dmin, self.dmax
        ));
        if self.metric != Metric::Euclidean {
            out.push_str(&format!(" metric={}", render_metric(&self.metric)));
        }
        if self.shards > 1 {
            out.push_str(&format!(" shards={}", self.shards));
        }
        if self.window != 0 {
            out.push_str(&format!(" window={}", self.window));
        }
        out
    }
}

/// Parses an `INSERT` tail (`<id> <group> <x1> ... <xd>`) into an element,
/// rejecting non-finite coordinates.
pub fn parse_insert(fields: &[&str]) -> std::result::Result<Element, String> {
    if fields.len() < 3 {
        return Err("INSERT requires <id> <group> <x1> [... <xd>]".to_string());
    }
    let id: usize = fields[0]
        .parse()
        .map_err(|_| format!("invalid element id `{}`", fields[0]))?;
    let group: usize = fields[1]
        .parse()
        .map_err(|_| format!("invalid group label `{}`", fields[1]))?;
    let point: Vec<f64> = fields[2..]
        .iter()
        .map(|f| {
            let x = f
                .parse::<f64>()
                .map_err(|_| format!("invalid coordinate `{f}`"))?;
            if !x.is_finite() {
                // Typed, distinct from a parse failure: NaN/±inf would
                // poison every distance this element touches and corrupt
                // snapshots downstream.
                return Err(format!(
                    "non-finite coordinate `{f}` (NaN and ±inf are rejected)"
                ));
            }
            Ok(x)
        })
        .collect::<std::result::Result<_, _>>()?;
    Ok(Element::new(id, point, group))
}

/// Parses one protocol line. Empty lines and `#` comments yield `None`.
pub fn parse_line(line: &str) -> std::result::Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split_whitespace().collect();
    let verb = fields[0].to_ascii_uppercase();
    let command = match verb.as_str() {
        "OPEN" => {
            if fields.len() < 3 {
                return Err("OPEN requires <name> <algo> key=value...".into());
            }
            let name = fields[1].to_string();
            if !valid_stream_name(&name) {
                return Err(format!("invalid stream name `{name}` (use [A-Za-z0-9_-]+)"));
            }
            let spec = StreamSpec::parse(&fields[2..])?;
            Request::Open { name, spec }
        }
        "INSERT" => Request::Insert(parse_insert(&fields[1..])?),
        "INSERTB" => {
            let mut elements = Vec::new();
            for chunk in fields[1..].split(|f| *f == "|") {
                if chunk.is_empty() {
                    return Err(
                        "INSERTB requires `<id> <group> <x...>` entries separated by `|`".into(),
                    );
                }
                elements.push(parse_insert(chunk)?);
            }
            if elements.is_empty() {
                return Err("INSERTB requires at least one element".into());
            }
            Request::InsertBatch(elements)
        }
        "QUERY" => {
            let k = match fields.get(1) {
                None => None,
                Some(f) => Some(
                    f.parse::<usize>()
                        .map_err(|_| format!("invalid QUERY size `{f}`"))?,
                ),
            };
            Request::Query { k }
        }
        "SNAPSHOT" => {
            let path = fields.get(1).ok_or("SNAPSHOT requires a path")?.to_string();
            if fields.len() > 2 {
                return Err("SNAPSHOT takes exactly <path>".into());
            }
            Request::Snapshot { path }
        }
        "RESTORE" => Request::Restore {
            path: fields.get(1).ok_or("RESTORE requires a path")?.to_string(),
        },
        "STATS" => Request::Stats,
        "MERGE" => match fields.len() {
            1 => Request::Merge { since: None },
            2 => {
                let value = fields[1].strip_prefix("since=").ok_or_else(|| {
                    format!("expected since=<epoch>:<crc>, found `{}`", fields[1])
                })?;
                let (epoch, crc) = value.split_once(':').ok_or_else(|| {
                    format!("expected since=<epoch>:<crc>, found `{}`", fields[1])
                })?;
                let epoch: u64 = epoch
                    .parse()
                    .map_err(|_| format!("invalid since epoch `{epoch}`"))?;
                let crc = u32::from_str_radix(crc, 16)
                    .map_err(|_| format!("invalid since crc `{crc}`"))?;
                Request::Merge {
                    since: Some((epoch, crc)),
                }
            }
            _ => return Err("MERGE takes at most since=<epoch>:<crc>".into()),
        },
        "AUTH" => {
            if fields.len() != 2 {
                return Err("AUTH requires exactly one <token>".into());
            }
            Request::Auth {
                token: fields[1].to_string(),
            }
        }
        "PING" => Request::Ping,
        "QUIT" | "EXIT" => Request::Quit,
        other => return Err(format!("unknown command `{other}`")),
    };
    Ok(Some(command))
}

// --- Replies ---------------------------------------------------------------

/// A `QUERY` answer: solution size, the paper's diversity objective, and
/// the selected element ids.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Solution size (`k`).
    pub k: usize,
    /// The max-min diversity value of the solution.
    pub diversity: f64,
    /// Selected element ids, in solution order.
    pub ids: Vec<usize>,
}

/// The success payload of a reply — everything after `OK `.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// `opened <name>` — a fresh stream was created.
    Opened {
        /// The bound stream name.
        name: String,
    },
    /// `attached <name> processed=<n>` — re-attached to an existing stream.
    Attached {
        /// The bound stream name.
        name: String,
        /// Arrivals already processed by the stream.
        processed: usize,
    },
    /// `inserted processed=<n>` — one element accepted; `n` is its
    /// sequence number (the stream position after the insert).
    Inserted {
        /// Stream position after this insert.
        seq: usize,
    },
    /// `inserted processed=<n> count=<c>` — an `INSERTB` batch accepted:
    /// `c` elements acknowledged, stream position `n` after the batch.
    InsertedBatch {
        /// Stream position after the acknowledged batch prefix.
        seq: usize,
        /// Elements acknowledged by this reply.
        count: usize,
    },
    /// `k=<k> diversity=<f> ids=<a,b,...>` — a QUERY answer.
    Query(QueryReply),
    /// `snapshot <path> processed=<n>` — checkpoint written.
    SnapshotWritten {
        /// Destination path, as requested.
        path: String,
        /// Arrivals captured by the checkpoint.
        processed: usize,
    },
    /// `restored <name> processed=<n>` — a snapshot was loaded and bound.
    Restored {
        /// The bound stream name (derived from the snapshot file stem).
        name: String,
        /// Arrivals restored.
        processed: usize,
    },
    /// `stream=<name> ...` — a STATS line (pre-rendered by the engine; the
    /// field set is documented in `docs/serve.md`).
    Stats(String),
    /// `merge algorithm=<tag> processed=<n> bytes=<len>` — a MERGE header.
    /// Exactly `len` raw bytes of a v2 binary snapshot frame follow the
    /// header line on the wire. [`Response::parse`] pre-sizes `bytes` to
    /// the announced length (zero-filled) so the client can `read_exact`
    /// straight into it.
    Merge {
        /// Algorithm tag of the exported summary.
        algorithm: String,
        /// Arrivals captured by the exported summary.
        processed: usize,
        /// The v2 binary snapshot frame.
        bytes: Vec<u8>,
    },
    /// `merge algorithm=<tag> processed=<n> kind=<full|delta> epoch=<e>
    /// crc=<hex> bytes=<len>` — the reply to `MERGE since=...`: like
    /// [`Payload::Merge`] (the raw frame follows the header line), but the
    /// frame is an incremental `FDMDELT2` delta against the caller's cached
    /// base when `kind=delta`, and `epoch`/`crc` name the exported state so
    /// the caller can anchor its cache for the next round trip.
    MergeSince {
        /// Algorithm tag of the exported summary.
        algorithm: String,
        /// Arrivals captured by the exported summary.
        processed: usize,
        /// `true` when the byte tail is a delta frame against the
        /// requested base; `false` for a fresh full snapshot frame.
        delta: bool,
        /// Export-cursor epoch (bumped on every full re-anchor).
        epoch: u64,
        /// CRC32 of the exported state (the next request's `since=` crc).
        crc: u32,
        /// The binary frame (`FDMSNAP2` full or `FDMDELT2` delta).
        bytes: Vec<u8>,
    },
    /// `authenticated`.
    Authenticated,
    /// `auth not required`.
    AuthNotRequired,
    /// `pong`.
    Pong,
    /// `bye`.
    Bye,
    /// Any `OK` payload this protocol version does not model — preserved
    /// verbatim so older clients survive newer servers.
    Other(String),
}

impl Payload {
    fn render(&self) -> String {
        match self {
            Payload::Opened { name } => format!("opened {name}"),
            Payload::Attached { name, processed } => {
                format!("attached {name} processed={processed}")
            }
            Payload::Inserted { seq } => format!("inserted processed={seq}"),
            Payload::InsertedBatch { seq, count } => {
                format!("inserted processed={seq} count={count}")
            }
            Payload::Query(q) => {
                let ids: Vec<String> = q.ids.iter().map(|id| id.to_string()).collect();
                format!("k={} diversity={} ids={}", q.k, q.diversity, ids.join(","))
            }
            Payload::SnapshotWritten { path, processed } => {
                format!("snapshot {path} processed={processed}")
            }
            Payload::Restored { name, processed } => {
                format!("restored {name} processed={processed}")
            }
            Payload::Stats(line) => line.clone(),
            Payload::Merge {
                algorithm,
                processed,
                bytes,
            } => format!(
                "merge algorithm={algorithm} processed={processed} bytes={}",
                bytes.len()
            ),
            Payload::MergeSince {
                algorithm,
                processed,
                delta,
                epoch,
                crc,
                bytes,
            } => format!(
                "merge algorithm={algorithm} processed={processed} kind={} \
                 epoch={epoch} crc={crc:08x} bytes={}",
                if *delta { "delta" } else { "full" },
                bytes.len()
            ),
            Payload::Authenticated => "authenticated".to_string(),
            Payload::AuthNotRequired => "auth not required".to_string(),
            Payload::Pong => "pong".to_string(),
            Payload::Bye => "bye".to_string(),
            Payload::Other(text) => text.clone(),
        }
    }

    /// Parses the text after `OK `. Unrecognized payloads land in
    /// [`Payload::Other`] verbatim (never an error: the success/failure
    /// split is carried by the `OK`/`ERR` prefix alone).
    fn parse(text: &str) -> Payload {
        match text {
            "authenticated" => return Payload::Authenticated,
            "auth not required" => return Payload::AuthNotRequired,
            "pong" => return Payload::Pong,
            "bye" => return Payload::Bye,
            _ => {}
        }
        Self::parse_structured(text).unwrap_or_else(|| Payload::Other(text.to_string()))
    }

    /// The multi-field payload shapes; `None` falls through to `Other`.
    fn parse_structured(text: &str) -> Option<Payload> {
        let fields: Vec<&str> = text.split_whitespace().collect();
        let field = |prefix: &str| {
            fields
                .iter()
                .find_map(|f| f.strip_prefix(prefix))
                .map(str::to_string)
        };
        let numeric =
            |prefix: &str| -> Option<usize> { field(prefix).and_then(|v| v.parse().ok()) };
        match *fields.first()? {
            "opened" if fields.len() == 2 => Some(Payload::Opened {
                name: fields[1].to_string(),
            }),
            "attached" if fields.len() == 3 => Some(Payload::Attached {
                name: fields[1].to_string(),
                processed: numeric("processed=")?,
            }),
            "inserted" if fields.len() == 2 => Some(Payload::Inserted {
                seq: numeric("processed=")?,
            }),
            "inserted" if fields.len() == 3 => Some(Payload::InsertedBatch {
                seq: numeric("processed=")?,
                count: numeric("count=")?,
            }),
            "snapshot" if fields.len() == 3 => Some(Payload::SnapshotWritten {
                path: fields[1].to_string(),
                processed: numeric("processed=")?,
            }),
            "restored" if fields.len() == 3 => Some(Payload::Restored {
                name: fields[1].to_string(),
                processed: numeric("processed=")?,
            }),
            "merge" if fields.len() == 4 => {
                let len = numeric("bytes=")?;
                if len > MAX_MERGE_BYTES {
                    return None;
                }
                Some(Payload::Merge {
                    algorithm: field("algorithm=")?,
                    processed: numeric("processed=")?,
                    bytes: vec![0u8; len],
                })
            }
            "merge" if fields.len() == 7 => {
                let len = numeric("bytes=")?;
                if len > MAX_MERGE_BYTES {
                    return None;
                }
                let delta = match field("kind=")?.as_str() {
                    "delta" => true,
                    "full" => false,
                    _ => return None,
                };
                Some(Payload::MergeSince {
                    algorithm: field("algorithm=")?,
                    processed: numeric("processed=")?,
                    delta,
                    epoch: field("epoch=")?.parse().ok()?,
                    crc: u32::from_str_radix(&field("crc=")?, 16).ok()?,
                    bytes: vec![0u8; len],
                })
            }
            first if first.starts_with("stream=") => Some(Payload::Stats(text.to_string())),
            first if first.starts_with("k=") => {
                let k = numeric("k=")?;
                let diversity: f64 = field("diversity=")?.parse().ok()?;
                let ids_text = field("ids=")?;
                let ids: Vec<usize> = if ids_text.is_empty() {
                    Vec::new()
                } else {
                    ids_text
                        .split(',')
                        .map(|id| id.parse().ok())
                        .collect::<Option<_>>()?
                };
                (fields.len() == 3).then_some(Payload::Query(QueryReply { k, diversity, ids }))
            }
            _ => None,
        }
    }
}

/// The failure class of an [`ErrorReply`] — carried on the wire as a
/// message prefix so existing line-oriented consumers keep working.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// No prefix: parse errors, bad state, internal errors.
    Generic,
    /// `busy: ` — backpressure (rate limit or queue full); retry later.
    Busy,
    /// `empty stream: ` — QUERY before any INSERT.
    EmptyStream,
    /// `worker unavailable: ` — a coordinator could not reach a worker;
    /// the message names the failing `ADDR:PORT`.
    WorkerUnavailable,
}

impl ErrorKind {
    fn prefix(self) -> &'static str {
        match self {
            ErrorKind::Generic => "",
            ErrorKind::Busy => "busy: ",
            ErrorKind::EmptyStream => "empty stream: ",
            ErrorKind::WorkerUnavailable => "worker unavailable: ",
        }
    }
}

/// A typed `ERR` reply: a failure class plus a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReply {
    /// Failure class (wire prefix).
    pub kind: ErrorKind,
    /// Message after the class prefix.
    pub message: String,
}

impl ErrorReply {
    /// An unclassified error.
    pub fn generic(message: impl Into<String>) -> ErrorReply {
        ErrorReply {
            kind: ErrorKind::Generic,
            message: message.into(),
        }
    }

    /// A backpressure rejection (`busy: ...`).
    pub fn busy(message: impl Into<String>) -> ErrorReply {
        ErrorReply {
            kind: ErrorKind::Busy,
            message: message.into(),
        }
    }

    /// A QUERY against a stream with zero arrivals (`empty stream: ...`).
    pub fn empty_stream(message: impl Into<String>) -> ErrorReply {
        ErrorReply {
            kind: ErrorKind::EmptyStream,
            message: message.into(),
        }
    }

    /// A coordinator-side worker failure (`worker unavailable: ...`).
    pub fn worker_unavailable(message: impl Into<String>) -> ErrorReply {
        ErrorReply {
            kind: ErrorKind::WorkerUnavailable,
            message: message.into(),
        }
    }

    /// Parses the text after `ERR `, classifying by prefix.
    fn parse(text: &str) -> ErrorReply {
        for kind in [
            ErrorKind::Busy,
            ErrorKind::EmptyStream,
            ErrorKind::WorkerUnavailable,
        ] {
            if let Some(rest) = text.strip_prefix(kind.prefix()) {
                return ErrorReply {
                    kind,
                    message: rest.to_string(),
                };
            }
        }
        ErrorReply::generic(text)
    }
}

impl std::fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.kind.prefix(), self.message)
    }
}

/// One reply line, typed. `Ok` carries a [`Payload`], `Err` an
/// [`ErrorReply`]; [`Response::render`] is the **only** sanctioned way to
/// produce an `OK `/`ERR ` line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `OK <payload>`.
    Ok(Payload),
    /// `ERR <kind-prefix><message>`.
    Err(ErrorReply),
}

impl Response {
    /// Renders the reply line (no trailing newline). For
    /// [`Payload::Merge`] this is the header line only; the binary tail is
    /// written separately by the session.
    pub fn render(&self) -> String {
        match self {
            Response::Ok(payload) => format!("OK {}", payload.render()),
            Response::Err(err) => format!("ERR {err}"),
        }
    }

    /// Parses one reply line. Inverse of [`Response::render`]:
    /// `parse(&r.render()) == Ok(r)` for every reply the server produces
    /// (for [`Payload::Merge`], up to the pre-sized zero-filled `bytes`).
    pub fn parse(line: &str) -> std::result::Result<Response, String> {
        let line = line.trim_end_matches(['\r', '\n']);
        if let Some(payload) = line.strip_prefix("OK ") {
            Ok(Response::Ok(Payload::parse(payload)))
        } else if let Some(err) = line.strip_prefix("ERR ") {
            Ok(Response::Err(ErrorReply::parse(err)))
        } else {
            Err(format!("malformed reply line `{line}`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_open_variants() {
        let cmd = parse_line("OPEN jobs sfdm2 quotas=2,3 eps=0.1 dmin=0.5 dmax=9")
            .unwrap()
            .unwrap();
        match cmd {
            Request::Open { name, spec } => {
                assert_eq!(name, "jobs");
                assert_eq!(spec.algo, "sfdm2");
                assert_eq!(spec.quotas, vec![2, 3]);
                assert_eq!(spec.k, 5);
                assert_eq!(spec.shards, 1);
                assert_eq!(spec.metric, Metric::Euclidean);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_line(
            "open u unconstrained k=6 eps=0.2 dmin=1 dmax=10 metric=minkowski:3 shards=4",
        )
        .unwrap()
        .unwrap();
        match cmd {
            Request::Open { spec, .. } => {
                assert_eq!(spec.k, 6);
                assert_eq!(spec.shards, 4);
                assert_eq!(spec.metric, Metric::Minkowski(3.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn open_rejects_bad_shapes() {
        for line in [
            "OPEN a sfdm2 eps=0.1 dmin=1 dmax=2",                // no quotas
            "OPEN a sfdm2 quotas=2,2 k=4 eps=0.1 dmin=1 dmax=2", // both
            "OPEN a unconstrained eps=0.1 dmin=1 dmax=2",        // no k
            "OPEN a unconstrained k=4 quotas=2 eps=0.1 dmin=1 dmax=2",
            "OPEN a bogus k=4 eps=0.1 dmin=1 dmax=2",
            "OPEN ../evil sfdm2 quotas=2,2 eps=0.1 dmin=1 dmax=2",
            "OPEN a sfdm2 quotas=2,2 dmin=1 dmax=2", // no eps
            "OPEN a sfdm2 quotas=2,2 eps=0.1 dmin=1 dmax=2 bogus=1",
        ] {
            assert!(parse_line(line).is_err(), "{line}");
        }
    }

    #[test]
    fn parses_insert_and_rejects_non_finite() {
        let cmd = parse_line("INSERT 7 1 0.5 -2.25").unwrap().unwrap();
        match cmd {
            Request::Insert(e) => {
                assert_eq!(e.id, 7);
                assert_eq!(e.group, 1);
                assert_eq!(&e.point[..], &[0.5, -2.25]);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_line("INSERT 7").is_err());
        // Non-finite coordinates get their own typed error, at any
        // position, in every spelling `f64::from_str` accepts.
        for line in [
            "INSERT 7 1 NaN",
            "INSERT 7 1 nan",
            "INSERT 7 1 inf",
            "INSERT 7 1 -inf",
            "INSERT 7 1 infinity",
            "INSERT 7 1 0.5 -inf 1.25",
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.contains("non-finite coordinate"), "{line}: {err}");
        }
        // ... while an unparseable token stays a plain invalid-coordinate
        // error.
        let err = parse_line("INSERT 7 1 zebra").unwrap_err();
        assert!(err.contains("invalid coordinate"), "{err}");
    }

    #[test]
    fn auth_parses() {
        assert_eq!(
            parse_line("AUTH s3cret").unwrap(),
            Some(Request::Auth {
                token: "s3cret".into()
            })
        );
        assert!(parse_line("AUTH").is_err());
        assert!(parse_line("AUTH a b").is_err());
    }

    #[test]
    fn snapshot_format_switch_parses() {
        assert_eq!(
            parse_line("SNAPSHOT /tmp/x.snap").unwrap().unwrap(),
            Request::Snapshot {
                path: "/tmp/x.snap".into(),
            }
        );
        // The encoding is not selectable: any field after the path is a
        // parse error, the retired `format=` switch included.
        assert!(parse_line("SNAPSHOT").is_err());
        for retired in ["json", "bin"] {
            assert!(parse_line(&format!("SNAPSHOT /tmp/x.snap format={retired}")).is_err());
        }
        assert!(parse_line("SNAPSHOT /tmp/x.snap json").is_err());
        assert!(parse_line("SNAPSHOT /tmp/x.snap extra field").is_err());
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("  # hi").unwrap(), None);
        assert_eq!(parse_line("PING").unwrap(), Some(Request::Ping));
        assert_eq!(parse_line("quit").unwrap(), Some(Request::Quit));
    }

    #[test]
    fn merge_parses_and_rejects_arguments() {
        assert_eq!(
            parse_line("MERGE").unwrap(),
            Some(Request::Merge { since: None })
        );
        assert_eq!(
            parse_line("merge").unwrap(),
            Some(Request::Merge { since: None })
        );
        assert_eq!(
            parse_line("MERGE since=3:00ab12cd").unwrap(),
            Some(Request::Merge {
                since: Some((3, 0x00ab_12cd))
            })
        );
        assert!(parse_line("MERGE now").is_err());
        assert!(parse_line("MERGE since=3").is_err());
        assert!(parse_line("MERGE since=x:00ab12cd").is_err());
        assert!(parse_line("MERGE since=3:zz").is_err());
        assert!(parse_line("MERGE since=1:2 extra").is_err());
    }

    #[test]
    fn insert_batch_parses_and_rejects_bad_shapes() {
        let cmd = parse_line("INSERTB 7 1 0.5 -2.25 | 8 0 1.5 3")
            .unwrap()
            .unwrap();
        match cmd {
            Request::InsertBatch(elements) => {
                assert_eq!(elements.len(), 2);
                assert_eq!(elements[0].id, 7);
                assert_eq!(&elements[0].point[..], &[0.5, -2.25]);
                assert_eq!(elements[1].id, 8);
                assert_eq!(elements[1].group, 0);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_line("INSERTB").is_err());
        assert!(parse_line("INSERTB 7 1 0.5 |").is_err());
        assert!(parse_line("INSERTB | 7 1 0.5").is_err());
        assert!(parse_line("INSERTB 7 1").is_err());
        let err = parse_line("INSERTB 7 1 0.5 | 8 0 NaN").unwrap_err();
        assert!(err.contains("non-finite coordinate"), "{err}");
    }

    #[test]
    fn request_render_round_trips() {
        for line in [
            "OPEN jobs sfdm2 quotas=2,3 eps=0.1 dmin=0.5 dmax=9",
            "OPEN u unconstrained k=6 eps=0.2 dmin=1 dmax=10 metric=minkowski:3 shards=4",
            "OPEN w sliding quotas=1,1 eps=0.1 dmin=0.05 dmax=30 metric=manhattan window=40",
            "INSERT 7 1 0.5 -2.25",
            "INSERT 0 0 1.0000000000000002",
            "INSERTB 7 1 0.5 -2.25 | 8 0 1.0000000000000002",
            "INSERTB 9 1 4.25",
            "QUERY",
            "QUERY 4",
            "SNAPSHOT /tmp/x.snap",
            "RESTORE /tmp/x.snap",
            "STATS",
            "MERGE",
            "MERGE since=7:00c0ffee",
            "AUTH s3cret",
            "PING",
            "QUIT",
        ] {
            let request = parse_line(line).unwrap().unwrap();
            assert_eq!(
                parse_line(&request.render()).unwrap().unwrap(),
                request,
                "{line}"
            );
        }
    }

    #[test]
    fn response_render_round_trips_byte_for_byte() {
        for line in [
            "OK opened jobs",
            "OK attached jobs processed=2",
            "OK inserted processed=41",
            "OK inserted processed=48 count=7",
            "OK k=4 diversity=11.65311262292763 ids=3,17,29,40",
            "OK snapshot /tmp/x.snap processed=40",
            "OK restored jobs processed=40",
            "OK stream=jobs algorithm=sfdm2 processed=40 stored=12",
            "OK merge algorithm=sfdm2 processed=40 bytes=2048",
            "OK merge algorithm=sfdm2 processed=40 kind=full epoch=2 crc=00c0ffee bytes=2048",
            "OK merge algorithm=sfdm2 processed=44 kind=delta epoch=2 crc=8badf00d bytes=96",
            "OK authenticated",
            "OK auth not required",
            "OK pong",
            "OK bye",
            "OK something from the future",
            "ERR unknown command `FROB`",
            "ERR busy: stream `jobs` is over its insert rate limit; retry later",
            "ERR empty stream: stream `jobs` has processed no elements; INSERT before QUERY",
            "ERR worker unavailable: 127.0.0.1:9001: connection refused",
        ] {
            let response = Response::parse(line).unwrap();
            assert_eq!(response.render(), line);
            assert_eq!(Response::parse(&response.render()).unwrap(), response);
        }
    }

    #[test]
    fn merge_header_presizes_bytes() {
        match Response::parse("OK merge algorithm=sliding processed=9 bytes=123").unwrap() {
            Response::Ok(Payload::Merge {
                algorithm,
                processed,
                bytes,
            }) => {
                assert_eq!(algorithm, "sliding");
                assert_eq!(processed, 9);
                assert_eq!(bytes.len(), 123);
                assert!(bytes.iter().all(|&b| b == 0));
            }
            other => panic!("{other:?}"),
        }
        // A corrupt astronomical length must not allocate; it degrades to
        // an opaque payload.
        match Response::parse("OK merge algorithm=sliding processed=9 bytes=999999999999").unwrap()
        {
            Response::Ok(Payload::Other(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn merge_since_header_parses_and_degrades() {
        match Response::parse(
            "OK merge algorithm=sfdm2 processed=44 kind=delta epoch=2 crc=8badf00d bytes=96",
        )
        .unwrap()
        {
            Response::Ok(Payload::MergeSince {
                algorithm,
                processed,
                delta,
                epoch,
                crc,
                bytes,
            }) => {
                assert_eq!(algorithm, "sfdm2");
                assert_eq!(processed, 44);
                assert!(delta);
                assert_eq!(epoch, 2);
                assert_eq!(crc, 0x8bad_f00d);
                assert_eq!(bytes.len(), 96);
            }
            other => panic!("{other:?}"),
        }
        // Unknown kind / oversized length degrade to an opaque payload
        // instead of erroring (forward compatibility).
        for line in [
            "OK merge algorithm=sfdm2 processed=44 kind=mystery epoch=2 crc=8badf00d bytes=96",
            "OK merge algorithm=sfdm2 processed=44 kind=delta epoch=2 crc=8badf00d bytes=999999999999",
        ] {
            match Response::parse(line).unwrap() {
                Response::Ok(Payload::Other(_)) => {}
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn error_kinds_classify_by_prefix() {
        let err = ErrorReply::parse("busy: try later");
        assert_eq!(err.kind, ErrorKind::Busy);
        assert_eq!(err.message, "try later");
        assert_eq!(err.to_string(), "busy: try later");
        let err = ErrorReply::parse("plain failure");
        assert_eq!(err.kind, ErrorKind::Generic);
        assert_eq!(err.to_string(), "plain failure");
    }

    #[test]
    fn query_reply_parses_structured() {
        match Response::parse("OK k=4 diversity=11.5 ids=3,17,29,40").unwrap() {
            Response::Ok(Payload::Query(q)) => {
                assert_eq!(q.k, 4);
                assert_eq!(q.diversity, 11.5);
                assert_eq!(q.ids, vec![3, 17, 29, 40]);
            }
            other => panic!("{other:?}"),
        }
    }
}

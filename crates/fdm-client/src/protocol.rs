//! The line protocol: one grammar, both sides of the wire.
//!
//! One command per line, fields separated by Unicode whitespace (one
//! tokenizer, [`Fields`]), one `OK ...` or `ERR ...` response line per
//! command (`MERGE` additionally streams a raw binary tail after its
//! header line). The grammar is documented in
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

use std::sync::Arc;

use fdm_core::metric::Metric;
use fdm_core::persist::codec::crc32;
use fdm_core::point::Element;

use crate::decimal::{push_f64, push_usize};

/// Upper bound on a `MERGE` reply's announced binary tail. Far above any
/// real union block (summaries are sublinear in the stream), low enough
/// that a corrupt header cannot OOM the client.
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
    /// `MERGE` — export the bound stream's retained elements as an inline
    /// union block (header line + raw byte tail, [`encode_union`]). The
    /// coordinator's QUERY fan-out pulls worker unions through this verb.
    Merge,
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
            Request::Insert(e) => {
                out.push_str("INSERT ");
                render_entry(e, out);
            }
            Request::InsertBatch(elements) => render_insert_batch(elements, out, render_entry),
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
            Request::Merge => out.push_str("MERGE"),
            Request::Auth { token } => {
                let _ = write!(out, "AUTH {token}");
            }
            Request::Ping => out.push_str("PING"),
            Request::Quit => out.push_str("QUIT"),
        }
    }
}

/// Appends one entry, `<id> <group> <x1> ... <xd>`, to `out` — the tail of
/// an `INSERT` and each `|`-separated piece of an `INSERTB`. Byte for byte
/// what `format!("{} {} {} …", id, group, x1, …)` writes: each coordinate
/// in `Display`'s shortest round-trip spelling, without going through
/// `core::fmt`.
pub fn render_entry(e: &Element, out: &mut String) {
    push_usize(out, e.id);
    out.push(' ');
    push_usize(out, e.group);
    for &x in e.point.iter() {
        out.push(' ');
        push_f64(out, x);
    }
}

/// Appends `INSERTB <e₁> | <e₂> | ...` to `out`, each entry written by
/// `entry` — the one batch layout, for parsed elements and for entry
/// texts forwarded verbatim alike.
pub(crate) fn render_insert_batch<T>(
    entries: &[T],
    out: &mut String,
    mut entry: impl FnMut(&T, &mut String),
) {
    out.push_str("INSERTB");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(if i == 0 { " " } else { " | " });
        entry(e, out);
    }
}

/// The entry texts of an `INSERT`/`INSERTB` line that [`parse_line`]
/// accepted, in order: the body after the verb, split on `|`, each piece
/// trimmed — the client's own spelling of each element. Sound because no
/// id, group or f64 token can contain `|`, so in an accepted line every
/// `|` byte is a separator token. A byte scan, not a second tokenizer:
/// the entries are never split into fields again here.
pub fn insert_entries(line: &str) -> impl Iterator<Item = &str> {
    let mut fields = Fields::new(line);
    fields.next();
    fields.rest().split('|').map(str::trim)
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
            (_, None, false) => quotas
                .iter()
                .try_fold(0usize, |k, &q| k.checked_add(q))
                .ok_or("quotas sum to more than the largest solution size k")?,
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

/// Whether each ASCII byte is whitespace in [`char::is_whitespace`]'s
/// sense: `\t \n \x0B \x0C \r` and space (`u8::is_ascii_whitespace`
/// misses `\x0B`).
const ASCII_SPACE: [bool; 128] = {
    let mut table = [false; 128];
    let spaces = [b'\t', b'\n', 0x0B, 0x0C, b'\r', b' '];
    let mut i = 0;
    while i < spaces.len() {
        table[spaces[i] as usize] = true;
        i += 1;
    }
    table
};

/// Whether the char at byte `at` of `text` is whitespace, and its byte
/// length. ASCII bytes are classified by table; any other byte decodes
/// its char and asks [`char::is_whitespace`].
#[inline]
fn char_at(text: &str, at: usize) -> (bool, usize) {
    let b = text.as_bytes()[at];
    if b < 0x80 {
        (ASCII_SPACE[b as usize], 1)
    } else {
        let c = text[at..].chars().next().expect("a char starts here");
        (c.is_whitespace(), c.len_utf8())
    }
}

/// The first byte index at or after `at` where a char that is whitespace
/// (`space = false`) or is not (`space = true`) begins, or `text.len()`.
/// The common runs are skipped without classifying each char: plain
/// spaces between fields, and printable ASCII within one, eight bytes at
/// a time while a whole word is in `0x21..=0x7F`.
#[inline]
fn skip(text: &str, mut at: usize, space: bool) -> usize {
    let bytes = text.as_bytes();
    loop {
        if space {
            while bytes.get(at) == Some(&b' ') {
                at += 1;
            }
        } else {
            // `w & 0x80…` flags a byte ≥ 0x80 and `(w - 0x21…) & !w & 0x80…`
            // one below 0x21 (a borrow may also flag the bytes above it,
            // which only ends the fast path early): zero means all eight
            // bytes are in `0x21..=0x7F`.
            while let Some(word) = bytes.get(at..at + 8) {
                let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
                if (w | (w.wrapping_sub(0x2121_2121_2121_2121) & !w)) & 0x8080_8080_8080_8080 != 0 {
                    break;
                }
                at += 8;
            }
            while bytes.get(at).is_some_and(|b| (0x21..0x80).contains(b)) {
                at += 1;
            }
        }
        if at == bytes.len() {
            return at;
        }
        let (is_space, len) = char_at(text, at);
        if is_space != space {
            return at;
        }
        at += len;
    }
}

/// The one request tokenizer: the fields of a line, separated by runs of
/// Unicode White_Space (exactly [`char::is_whitespace`]). [`parse_line`],
/// [`insert_entries`], the WAL replayer and the reply parser all read
/// their fields through it.
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Fields<'a> {
    /// The fields of `text`, from its start.
    pub fn new(text: &'a str) -> Fields<'a> {
        Fields { text, pos: 0 }
    }

    /// The text after the last field returned (leading whitespace
    /// included): the tail a verb's own grammar parses.
    pub fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let start = skip(self.text, self.pos, true);
        let end = skip(self.text, start, false);
        self.pos = end;
        (start < end).then(|| &self.text[start..end])
    }
}

/// Splits an `INSERTB` body at its first standalone `|` field: the entry
/// text before it, and the body after it (`None` past the last entry). A
/// `|` glued to other characters is part of a field, not a separator.
fn split_at_bar(body: &str) -> (&str, Option<&str>) {
    let mut from = 0;
    while let Some(i) = body[from..].find('|').map(|i| from + i) {
        let (before, after) = (&body[..i], &body[i + 1..]);
        if (before.is_empty() || before.ends_with(char::is_whitespace))
            && (after.is_empty() || after.starts_with(char::is_whitespace))
        {
            return (before, Some(after));
        }
        from = i + 1;
    }
    (body, None)
}

/// Parses one entry, `<id> <group> <x1> ... <xd>` — an `INSERT` tail, one
/// `|`-separated piece of an `INSERTB`, or a WAL record's tail — into an
/// element, rejecting non-finite coordinates. Errors come in field order:
/// fewer than three fields first, then the id, the group and each
/// coordinate left to right.
pub fn parse_entry(text: &str) -> std::result::Result<Element, String> {
    parse_entry_with(text, &mut Vec::new())
}

/// [`parse_entry`] with a caller-owned coordinate buffer, reused across
/// the entries of a batch: the element's storage is allocated once, at
/// its final size.
fn parse_entry_with(text: &str, coords: &mut Vec<f64>) -> std::result::Result<Element, String> {
    let mut fields = Fields::new(text);
    let (Some(id), Some(group), Some(first)) = (fields.next(), fields.next(), fields.next()) else {
        return Err("INSERT requires <id> <group> <x1> [... <xd>]".to_string());
    };
    let id: usize = id
        .parse()
        .map_err(|_| format!("invalid element id `{id}`"))?;
    let group: usize = group
        .parse()
        .map_err(|_| format!("invalid group label `{group}`"))?;
    coords.clear();
    for f in std::iter::once(first).chain(fields) {
        let x = f
            .parse::<f64>()
            .map_err(|_| format!("invalid coordinate `{f}`"))?;
        if !x.is_finite() {
            // Typed, distinct from a parse failure: NaN/±inf would poison
            // every distance this element touches and corrupt snapshots
            // downstream.
            return Err(format!(
                "non-finite coordinate `{f}` (NaN and ±inf are rejected)"
            ));
        }
        coords.push(x);
    }
    Ok(Element {
        id,
        point: Arc::from(coords.as_slice()),
        group,
    })
}

/// The command verbs.
#[derive(Debug, Clone, Copy)]
enum Verb {
    InsertBatch,
    Insert,
    Open,
    Query,
    Snapshot,
    Restore,
    Stats,
    Merge,
    Auth,
    Ping,
    Quit,
}

/// Each verb's spelling, matched case-insensitively; `INSERTB` first, as
/// the bulk path.
const VERBS: [(&str, Verb); 12] = [
    ("INSERTB", Verb::InsertBatch),
    ("INSERT", Verb::Insert),
    ("OPEN", Verb::Open),
    ("QUERY", Verb::Query),
    ("SNAPSHOT", Verb::Snapshot),
    ("RESTORE", Verb::Restore),
    ("STATS", Verb::Stats),
    ("MERGE", Verb::Merge),
    ("AUTH", Verb::Auth),
    ("PING", Verb::Ping),
    ("QUIT", Verb::Quit),
    ("EXIT", Verb::Quit),
];

/// Parses one protocol line. Empty lines and `#` comments yield `None`.
pub fn parse_line(line: &str) -> std::result::Result<Option<Request>, String> {
    let mut fields = Fields::new(line);
    let Some(word) = fields.next().filter(|w| !w.starts_with('#')) else {
        return Ok(None);
    };
    let verb = VERBS
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(word))
        .map(|&(_, verb)| verb)
        .ok_or_else(|| format!("unknown command `{}`", word.to_ascii_uppercase()))?;
    let command = match verb {
        Verb::InsertBatch => {
            let mut elements = Vec::new();
            let mut coords = Vec::new();
            let mut body = Some(fields.rest());
            while let Some(text) = body {
                let (entry, after) = split_at_bar(text);
                if skip(entry, 0, true) == entry.len() {
                    return Err(
                        "INSERTB requires `<id> <group> <x...>` entries separated by `|`".into(),
                    );
                }
                elements.push(parse_entry_with(entry, &mut coords)?);
                body = after;
            }
            Request::InsertBatch(elements)
        }
        Verb::Insert => Request::Insert(parse_entry(fields.rest())?),
        Verb::Open => {
            let fields: Vec<&str> = fields.collect();
            if fields.len() < 2 {
                return Err("OPEN requires <name> <algo> key=value...".into());
            }
            let name = fields[0].to_string();
            if !valid_stream_name(&name) {
                return Err(format!("invalid stream name `{name}` (use [A-Za-z0-9_-]+)"));
            }
            let spec = StreamSpec::parse(&fields[1..])?;
            Request::Open { name, spec }
        }
        Verb::Query => {
            let k = match fields.next() {
                None => None,
                Some(f) => Some(
                    f.parse::<usize>()
                        .map_err(|_| format!("invalid QUERY size `{f}`"))?,
                ),
            };
            Request::Query { k }
        }
        Verb::Snapshot => {
            let path = fields.next().ok_or("SNAPSHOT requires a path")?.to_string();
            if fields.next().is_some() {
                return Err("SNAPSHOT takes exactly <path>".into());
            }
            Request::Snapshot { path }
        }
        Verb::Restore => Request::Restore {
            path: fields.next().ok_or("RESTORE requires a path")?.to_string(),
        },
        Verb::Stats => Request::Stats,
        Verb::Merge => {
            if fields.next().is_some() {
                return Err("MERGE takes no arguments".into());
            }
            Request::Merge
        }
        Verb::Auth => match (fields.next(), fields.next()) {
            (Some(token), None) => Request::Auth {
                token: token.to_string(),
            },
            _ => return Err("AUTH requires exactly one <token>".into()),
        },
        Verb::Ping => Request::Ping,
        Verb::Quit => Request::Quit,
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
    /// Exactly `len` raw bytes of a union block ([`encode_union`]) follow
    /// the header line on the wire. [`Response::parse`] pre-sizes `bytes` to
    /// the announced length (zero-filled) so the client can `read_exact`
    /// straight into it.
    Merge {
        /// Algorithm tag of the exported summary.
        algorithm: String,
        /// Arrivals the exported summary has processed.
        processed: usize,
        /// The union block.
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
    /// Appends the text after `OK ` to `out`.
    fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = match self {
            Payload::Opened { name } => write!(out, "opened {name}"),
            Payload::Attached { name, processed } => {
                write!(out, "attached {name} processed={processed}")
            }
            Payload::Inserted { seq } => write!(out, "inserted processed={seq}"),
            Payload::InsertedBatch { seq, count } => {
                write!(out, "inserted processed={seq} count={count}")
            }
            Payload::Query(q) => {
                let _ = write!(out, "k={} diversity={} ids=", q.k, q.diversity);
                for (i, id) in q.ids.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{id}");
                }
                Ok(())
            }
            Payload::SnapshotWritten { path, processed } => {
                write!(out, "snapshot {path} processed={processed}")
            }
            Payload::Restored { name, processed } => {
                write!(out, "restored {name} processed={processed}")
            }
            Payload::Merge {
                algorithm,
                processed,
                bytes,
            } => write!(
                out,
                "merge algorithm={algorithm} processed={processed} bytes={}",
                bytes.len()
            ),
            Payload::Authenticated => write!(out, "authenticated"),
            Payload::AuthNotRequired => write!(out, "auth not required"),
            Payload::Pong => write!(out, "pong"),
            Payload::Bye => write!(out, "bye"),
            Payload::Stats(text) | Payload::Other(text) => write!(out, "{text}"),
        };
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
        let fields: Vec<&str> = Fields::new(text).collect();
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
    /// [`Payload::Merge`] this is the header line only; the session
    /// appends the binary tail.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the reply line to `out` (no trailing newline) — the
    /// allocation-free form of [`Response::render`], used by the session
    /// to build each reply in one reused buffer.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Response::Ok(payload) => {
                out.push_str("OK ");
                payload.render_into(out);
            }
            Response::Err(err) => {
                let _ = write!(out, "ERR {err}");
            }
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

// ---------------------------------------------------------------------------
// The MERGE union block
// ---------------------------------------------------------------------------

/// Leading magic of a `MERGE` reply's union block.
pub const UNION_MAGIC: [u8; 8] = *b"FDMUNON1";

/// Bytes before the first row: the magic, `dim` and `count` (u64 LE each).
const UNION_HEADER: usize = 24;

/// Bytes after the last row: the CRC32 of everything before it.
const UNION_TRAILER: usize = 4;

/// Why a `MERGE` tail is not a union block. Decoding never panics: every
/// malformed input is one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnionError {
    /// The block does not start with [`UNION_MAGIC`] — for example the
    /// `FDMSNAP2` snapshot frame a version-3 worker sends.
    Magic,
    /// The block is not as long as its header says (truncated, padded, or
    /// a header whose `dim`/`count` overflow). `expected` is
    /// `usize::MAX` when the header's size does not fit in memory.
    Length {
        /// The length the header implies.
        expected: usize,
        /// The length received.
        found: usize,
    },
    /// The trailing CRC32 does not match the bytes before it.
    Crc {
        /// The checksum the block carries.
        stored: u32,
        /// The checksum of the bytes received.
        computed: u32,
    },
    /// An id or group label does not fit this host's `usize`.
    Range,
}

impl std::fmt::Display for UnionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnionError::Magic => write!(
                f,
                "not a union block (no FDMUNON1 magic; a version-3 worker sends a snapshot frame — upgrade workers and coordinator together)"
            ),
            UnionError::Length { expected, found } => {
                write!(f, "union block is {found} bytes, its header implies {expected}")
            }
            UnionError::Crc { stored, computed } => write!(
                f,
                "union block CRC mismatch (stored {stored:08x}, computed {computed:08x})"
            ),
            UnionError::Range => write!(f, "union block id or group exceeds usize"),
        }
    }
}

impl std::error::Error for UnionError {}

/// Encodes a summary's retained elements, in order, as the `MERGE` reply's
/// union block: [`UNION_MAGIC`], then `dim` and `count` (u64 LE), then one
/// row per element — `id` (u64 LE), `group` (u64 LE), `dim` coordinates as
/// f64 bits (LE) — then the [`crc32`] of all of that (u32 LE). `dim` is the
/// first element's dimension (0 for an empty union), which every element of
/// one summary shares.
///
/// # Panics
///
/// If an element's dimension differs from the first one's.
pub fn encode_union(elements: &[Element]) -> Vec<u8> {
    let dim = elements.first().map_or(0, Element::dim);
    let mut out =
        Vec::with_capacity(UNION_HEADER + elements.len() * (16 + 8 * dim) + UNION_TRAILER);
    out.extend_from_slice(&UNION_MAGIC);
    out.extend_from_slice(&(dim as u64).to_le_bytes());
    out.extend_from_slice(&(elements.len() as u64).to_le_bytes());
    for e in elements {
        assert_eq!(e.dim(), dim, "a union block holds one dimension");
        out.extend_from_slice(&(e.id as u64).to_le_bytes());
        out.extend_from_slice(&(e.group as u64).to_le_bytes());
        for x in e.point.iter() {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a union block written by [`encode_union`] back into its
/// elements, in order, one `Arc<[f64]>` per element with the coordinates'
/// exact bits. The magic, the length the header implies and the CRC are
/// checked before any element is built.
pub fn decode_union(bytes: &[u8]) -> std::result::Result<Vec<Element>, UnionError> {
    if bytes.len() >= UNION_MAGIC.len() && bytes[..UNION_MAGIC.len()] != UNION_MAGIC {
        return Err(UnionError::Magic);
    }
    let found = bytes.len();
    if found < UNION_HEADER + UNION_TRAILER {
        return Err(UnionError::Length {
            expected: UNION_HEADER + UNION_TRAILER,
            found,
        });
    }
    let (dim, count) = (le_u64(&bytes[8..]), le_u64(&bytes[16..]));
    let row = dim.checked_mul(8).and_then(|c| c.checked_add(16));
    let expected = row
        .and_then(|row| row.checked_mul(count))
        .and_then(|rows| rows.checked_add((UNION_HEADER + UNION_TRAILER) as u64))
        .and_then(|n| usize::try_from(n).ok());
    if expected != Some(found) {
        return Err(UnionError::Length {
            expected: expected.unwrap_or(usize::MAX),
            found,
        });
    }
    let (body, trailer) = bytes.split_at(found - UNION_TRAILER);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let computed = crc32(body);
    if stored != computed {
        return Err(UnionError::Crc { stored, computed });
    }
    // `expected` fit in usize, so the row size does too.
    let row = row.expect("checked above") as usize;
    body[UNION_HEADER..]
        .chunks_exact(row)
        .map(|r| {
            let id = usize::try_from(le_u64(r)).map_err(|_| UnionError::Range)?;
            let group = usize::try_from(le_u64(&r[8..])).map_err(|_| UnionError::Range)?;
            let point = r[16..]
                .chunks_exact(8)
                .map(|c| f64::from_bits(le_u64(c)))
                .collect();
            Ok(Element { id, point, group })
        })
        .collect()
}

/// The u64 in the first eight bytes of `bytes` (little-endian).
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ascii_space_table_is_char_is_whitespace() {
        for b in 0u8..0x80 {
            assert_eq!(
                ASCII_SPACE[b as usize],
                (b as char).is_whitespace(),
                "{b:#04x}"
            );
        }
        let fields: Vec<&str> = Fields::new("\u{A0}a\x0Bb\u{3000}c\u{200B}d\t").collect();
        assert_eq!(fields, ["a", "b", "c\u{200B}d"]);
    }

    /// Every char class at every offset of a long field, across the
    /// eight-byte fast path's word boundaries: [`Fields`] splits exactly
    /// where `char::is_whitespace` does.
    #[test]
    fn fields_split_where_char_is_whitespace_does() {
        let field = "1.0000000000000002e-3_abcdefgh";
        for c in [
            ' ', '\t', '\x0B', '\x0C', '\r', '\n', '\u{85}', '\u{A0}', '\u{2003}', '\u{3000}',
            '\u{200B}', '\u{FEFF}', '\x00', '\x1F', '\x7F', '|', '\u{e9}', '\u{FF11}',
        ] {
            for at in 0..=field.len() {
                for prefix in ["", " ", "x", "\u{A0}"] {
                    let line = format!("{prefix}{}{c}{}  {field}", &field[..at], &field[at..]);
                    let expected: Vec<&str> = line.split_whitespace().collect();
                    let fields: Vec<&str> = Fields::new(&line).collect();
                    assert_eq!(fields, expected, "{line:?}");
                }
            }
        }
    }

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
            "OPEN a sfdm2 quotas=18446744073709551615,1 eps=0.1 dmin=1 dmax=2", // Σ overflows
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
        assert_eq!(parse_line("MERGE").unwrap(), Some(Request::Merge));
        assert_eq!(parse_line("merge").unwrap(), Some(Request::Merge));
        assert!(parse_line("MERGE now").is_err());
        // An old coordinator's incremental pull is refused with one typed
        // message.
        assert_eq!(
            parse_line("MERGE since=3:00ab12cd").unwrap_err(),
            "MERGE takes no arguments"
        );
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

    /// Whitespace runs the tokenizer accepts between fields (and around
    /// the line), each non-empty.
    fn separator() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                Just(" "),
                Just("\t"),
                Just("\x0B"),
                Just("\x0C"),
                Just("\r")
            ],
            1..4,
        )
        .prop_map(|run| run.concat())
    }

    /// One coordinate token in a spelling a client may send: `Display`,
    /// `Debug`, exponent forms, an explicit `+`, `%.17g`-style 17
    /// significant digits, trailing zeros, and fixed oddities.
    fn coordinate() -> impl Strategy<Value = String> {
        (-1.0e6f64..1.0e6, 0usize..9).prop_map(|(x, spelling)| match spelling {
            0 => format!("{x}"),
            1 => format!("{x:?}"),
            2 => format!("{x:e}"),
            3 => format!("{x:E}"),
            4 => format!("{x:+}"),
            5 => format!("{x:.16e}"),
            6 => format!("{x:+.2}0"),
            7 => "-0.0".to_string(),
            _ => "1E5".to_string(),
        })
    }

    /// One entry's tokens: id (sometimes zero-padded), group, 1–4
    /// coordinates.
    fn entry_tokens() -> impl Strategy<Value = Vec<String>> {
        (
            0usize..1_000_000,
            0usize..4,
            proptest::collection::vec(coordinate(), 1..5),
            0usize..2,
        )
            .prop_map(|(id, group, coords, pad)| {
                let mut tokens = vec![if pad == 1 {
                    format!("00{id}")
                } else {
                    id.to_string()
                }];
                tokens.push(group.to_string());
                tokens.extend(coords);
                tokens
            })
    }

    /// An accepted `INSERT` (one entry) or `INSERTB` (1–6 entries) line,
    /// in any letter case, with a separator run before every token and
    /// around the whole line.
    fn insert_line() -> impl Strategy<Value = String> {
        (
            prop_oneof![
                Just("INSERT"),
                Just("insert"),
                Just("INSERTB"),
                Just("insertb"),
                Just("InsertB")
            ],
            proptest::collection::vec(entry_tokens(), 1..7),
            proptest::collection::vec(separator(), 64),
        )
            .prop_map(|(verb, mut entries, seps)| {
                if !verb.eq_ignore_ascii_case("INSERTB") {
                    entries.truncate(1);
                }
                let mut seps = seps.into_iter().cycle();
                let mut line = seps.next().unwrap();
                line.push_str(verb);
                for (i, tokens) in entries.iter().enumerate() {
                    if i > 0 {
                        line.push_str(&seps.next().unwrap());
                        line.push('|');
                    }
                    for token in tokens {
                        line.push_str(&seps.next().unwrap());
                        line.push_str(token);
                    }
                }
                line.push_str(&seps.next().unwrap());
                line
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `insert_entries` slices exactly one entry per parsed element,
        /// and each entry re-parses to that element bit for bit.
        #[test]
        fn insert_entries_slice_exactly_the_parsed_elements(line in insert_line()) {
            let elements = match parse_line(&line) {
                Ok(Some(Request::Insert(e))) => vec![e],
                Ok(Some(Request::InsertBatch(elements))) => elements,
                other => return Err(TestCaseError::fail(format!("{line:?}: {other:?}"))),
            };
            let entries: Vec<&str> = insert_entries(&line).collect();
            prop_assert_eq!(entries.len(), elements.len(), "{:?}", line);
            for (entry, element) in entries.iter().zip(&elements) {
                prop_assert!(!entry.contains('|') && entry.trim() == *entry, "{:?}", entry);
                let parsed = parse_entry(entry).unwrap();
                prop_assert_eq!(parsed.id, element.id);
                prop_assert_eq!(parsed.group, element.group);
                let bits = |e: &Element| e.point.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&parsed), bits(element), "{:?}", entry);
            }
        }
    }

    /// Any finite `f64`: arbitrary bit patterns (every magnitude up to
    /// `f64::MAX`, either sign), subnormals, ±0 and the extremes.
    fn any_finite() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u64..=u64::MAX)
                .prop_map(f64::from_bits)
                .prop_filter("finite", |x| x.is_finite()),
            (0u64..1 << 52, 0u64..2).prop_map(|(m, sign)| f64::from_bits(sign << 63 | m)),
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::MAX),
                Just(f64::MIN),
                Just(f64::MIN_POSITIVE),
                Just(f64::from_bits(1)),
            ],
        ]
    }

    /// An element with an id and group anywhere in `usize` and 1–4
    /// coordinates from [`any_finite`].
    fn any_element() -> impl Strategy<Value = Element> {
        (
            prop_oneof![0usize..1000, 0usize..=usize::MAX],
            prop_oneof![0usize..4, 0usize..=usize::MAX],
            proptest::collection::vec(any_finite(), 1..5),
        )
            .prop_map(|(id, group, point)| Element::new(id, point, group))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A rendered `INSERTB` parses back to the same elements bit for
        /// bit over the whole finite `f64` range, and `insert_entries`
        /// slices exactly each element's `render_entry` text, which is
        /// `Display`'s spelling.
        #[test]
        fn insert_batch_round_trips_over_the_full_f64_range(
            elements in proptest::collection::vec(any_element(), 1..6)
        ) {
            let line = Request::InsertBatch(elements.clone()).render();
            let parsed = match parse_line(&line) {
                Ok(Some(Request::InsertBatch(parsed))) => parsed,
                other => return Err(TestCaseError::fail(format!("{line:?}: {other:?}"))),
            };
            prop_assert_eq!(parsed.len(), elements.len());
            let bits = |e: &Element| e.point.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (back, element) in parsed.iter().zip(&elements) {
                prop_assert_eq!(back.id, element.id);
                prop_assert_eq!(back.group, element.group);
                prop_assert_eq!(bits(back), bits(element), "{:?}", line);
            }
            let entries: Vec<&str> = insert_entries(&line).collect();
            prop_assert_eq!(entries.len(), elements.len());
            for (entry, element) in entries.iter().zip(&elements) {
                let mut rendered = String::new();
                render_entry(element, &mut rendered);
                prop_assert_eq!(*entry, rendered.as_str());
                // The spelling `core::fmt` writes, so WAL records and
                // forwarded entries keep their bytes.
                let mut formatted = format!("{} {}", element.id, element.group);
                for x in element.point.iter() {
                    formatted.push_str(&format!(" {x}"));
                }
                prop_assert_eq!(rendered, formatted);
            }
        }
    }

    #[test]
    fn insert_entries_keep_the_client_spelling() {
        let line = " insertB\t7 1 +1.50\x0B0.10000000000000001 |\r8 0  1E5 -0.0\x0C";
        assert!(parse_line(line).unwrap().is_some());
        assert_eq!(
            insert_entries(line).collect::<Vec<_>>(),
            ["7 1 +1.50\x0B0.10000000000000001", "8 0  1E5 -0.0"]
        );
        assert_eq!(
            insert_entries("INSERT 3 0 2.50").collect::<Vec<_>>(),
            ["3 0 2.50"]
        );
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
        // A corrupt astronomical length must not allocate, and a version-2
        // `MERGE since=` header is no longer a known shape: both degrade to
        // an opaque payload.
        for line in [
            "OK merge algorithm=sliding processed=9 bytes=999999999999",
            "OK merge algorithm=sfdm2 processed=44 kind=delta epoch=2 crc=8badf00d bytes=96",
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

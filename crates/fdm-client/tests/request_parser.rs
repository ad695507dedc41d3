//! The request parser against a frozen copy of its previous version.
//!
//! `parse_line` and `parse_entry` scan each line once, byte by byte, and
//! parse every entry straight into the element's storage. The language they
//! accept must not move: the `frozen` module below is the earlier
//! `split_whitespace`-based `parse_line` and `parse_insert`, copied
//! verbatim, and the properties compare the two on generated and mutated
//! lines: the same `Ok` value (coordinates compared bit for bit) or the
//! same `Err` string.

use fdm_client::protocol::{parse_entry, parse_line, Request};
use fdm_core::point::Element;
use proptest::prelude::*;

/// The earlier request parser, verbatim.
mod frozen {
    use fdm_client::protocol::{valid_stream_name, Request, StreamSpec};
    use fdm_core::point::Element;

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
                            "INSERTB requires `<id> <group> <x...>` entries separated by `|`"
                                .into(),
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
            "MERGE" => {
                if fields.len() > 1 {
                    return Err("MERGE takes no arguments".into());
                }
                Request::Merge
            }
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
}

/// Whitespace runs and near-misses: every ASCII whitespace byte
/// (`\x0B` included), Unicode White_Space outside ASCII, and characters
/// that look blank but are not White_Space (zero-width space, BOM, NUL,
/// unit separator), which glue to their neighbours.
const SEPARATORS: &[&str] = &[
    " ", " ", " ", "  ", "\t", "\x0B", "\x0C", "\r", "\n", " \t ", "\u{A0}", "\u{2003}",
    "\u{3000}", "\u{85}", "\u{2028}", "\u{200B}", "\u{FEFF}", "\x00", "\x1F",
];

/// The ASCII subset of [`SEPARATORS`] that is whitespace: lines built from
/// these alone are mostly well formed.
const PLAIN_SEPARATORS: &[&str] = &[" ", " ", " ", "  ", "\t", "\x0B", "\x0C", "\r"];

const VERBS: &[&str] = &[
    "INSERT",
    "insert",
    "Insert",
    "INSERTB",
    "insertb",
    "InsertB",
    "iNsErTb",
    "OPEN",
    "open",
    "QUERY",
    "query",
    "SNAPSHOT",
    "snapshot",
    "RESTORE",
    "STATS",
    "MERGE",
    "merge",
    "AUTH",
    "PING",
    "QUIT",
    "exit",
    "FROB",
    "frob",
    "INSERTBB",
    "INSER",
    "\u{130}NSERT",
    "insert\u{131}",
    "#",
    "#INSERT",
    "INSERT#",
];

const IDS: &[&str] = &[
    "0",
    "7",
    "42",
    "007",
    "+5",
    "-1",
    "1.0",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "\u{FF11}",
];

const COORDINATES: &[&str] = &[
    "0.5",
    "-2.25",
    "3",
    "1.0000000000000002",
    "+1e0",
    ".5",
    "5.",
    "1E-3",
    "-0",
    "-0.0",
    "1e400",
    "-1e400",
    "1e-400",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "+infinity",
    "Infinity",
    "0x10",
    "1_0",
    "1e",
    "e5",
    "--1",
    "1.2.3",
    "+",
    ".",
    "-.5e-7",
    "1e+308",
    "2.2250738585072014e-308",
];

const VALID_COORDINATES: &[&str] = &[
    "0.5",
    "-2.25",
    "3",
    "1.0000000000000002",
    "+1e0",
    ".5",
    "5.",
    "1E-3",
    "-0",
    "-0.0",
    "1e-400",
    "-.5e-7",
    "1e+308",
    "12.75",
];

const BARS: &[&str] = &["|", "|", "|", "||", "|7", "7|", "1.5|", "|0.5", "| |"];

const JUNK: &[&str] = &[
    "zebra",
    "\u{e9}",
    "a=b",
    "k=4",
    "quotas=1,1",
    "eps=0.1",
    "dmin=0.05",
    "dmax=30",
    "sfdm2",
    "unconstrained",
    "jobs",
    "/tmp/x.snap",
    "s3cret",
    "since=3:00ab12cd",
    "#",
    "4",
];

/// A small deterministic generator (splitmix64) driven by one proptest
/// seed, so a failing case prints as one number.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    /// An overlong field: hundreds of digits, as an id or a coordinate.
    fn overlong(&mut self) -> String {
        let n = 300 + self.below(400);
        match self.below(3) {
            0 => "1".repeat(n),
            1 => format!("0.{}1", "0".repeat(n)),
            _ => format!("{}.5", "9".repeat(n)),
        }
    }

    fn separator(&mut self, plain: bool) -> &'static str {
        if plain {
            self.pick(PLAIN_SEPARATORS)
        } else {
            self.pick(SEPARATORS)
        }
    }
}

/// An `INSERT`/`INSERTB` line, the verb in any case: half of them clean
/// (valid fields, plain separators, standalone bars), the rest with odd
/// separators, odd bars, short entries and bad or overlong fields.
fn insert_line(g: &mut Gen) -> String {
    let clean = g.chance(50);
    let plain = clean || g.chance(40);
    let verb = g.pick(&[
        "INSERT", "insert", "INSERTB", "insertb", "InsertB", "iNsErTb",
    ]);
    let mut line = String::new();
    if g.chance(30) {
        line.push_str(g.separator(plain));
    }
    line.push_str(verb);
    let single = verb.eq_ignore_ascii_case("INSERT") && (clean || g.chance(80));
    let entries = if single { 1 } else { 1 + g.below(6) };
    for e in 0..entries {
        if e > 0 {
            line.push_str(g.separator(plain));
            line.push_str(if clean || g.chance(80) {
                "|"
            } else {
                g.pick(BARS)
            });
        }
        let fields = if clean || g.chance(85) {
            3 + g.below(5)
        } else {
            g.below(3)
        };
        for f in 0..fields {
            line.push_str(g.separator(plain));
            let field = match f {
                0 | 1 if clean || g.chance(90) => g.below(1000).to_string(),
                0 | 1 => g.pick(IDS).to_string(),
                _ if clean || g.chance(85) => g.pick(VALID_COORDINATES).to_string(),
                _ if g.chance(90) => g.pick(COORDINATES).to_string(),
                _ => g.overlong(),
            };
            line.push_str(&field);
        }
    }
    if g.chance(40) {
        line.push_str(g.separator(plain));
    }
    line
}

/// A random soup: any verb, then fields from every pool.
fn soup_line(g: &mut Gen) -> String {
    let mut line = String::new();
    if g.chance(30) {
        line.push_str(g.separator(false));
    }
    line.push_str(g.pick(VERBS));
    for _ in 0..g.below(12) {
        let plain = g.chance(60);
        line.push_str(g.separator(plain));
        let field = match g.below(5) {
            0 => g.pick(IDS).to_string(),
            1 => g.pick(COORDINATES).to_string(),
            2 => g.pick(BARS).to_string(),
            3 => g.pick(JUNK).to_string(),
            _ if g.chance(10) => g.overlong(),
            _ => g.pick(VALID_COORDINATES).to_string(),
        };
        line.push_str(&field);
    }
    if g.chance(30) {
        line.push_str(g.separator(false));
    }
    line
}

/// Edits `line` at char boundaries: inserts a separator, a bar or a
/// field, deletes a char, or doubles a span.
fn mutate(g: &mut Gen, line: &mut String) {
    let boundaries: Vec<usize> = line
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(line.len()))
        .collect();
    let at = boundaries[g.below(boundaries.len())];
    match g.below(5) {
        0 => {
            let separator = g.separator(false);
            line.insert_str(at, separator);
        }
        1 => {
            let bar = g.pick(BARS);
            line.insert_str(at, bar);
        }
        2 => {
            let field = g.pick(COORDINATES);
            line.insert_str(at, field);
        }
        3 => {
            if let Some(&end) = boundaries.iter().find(|&&b| b > at) {
                line.replace_range(at..end, "");
            }
        }
        _ => {
            let end = boundaries[g.below(boundaries.len())].max(at);
            let span = line[at..end].to_string();
            line.insert_str(end, &span);
        }
    }
}

fn generated_line(seed: u64) -> String {
    let mut g = Gen(seed);
    let mut line = if g.chance(65) {
        insert_line(&mut g)
    } else {
        soup_line(&mut g)
    };
    let mutations = if g.chance(50) { 0 } else { 1 + g.below(3) };
    for _ in 0..mutations {
        mutate(&mut g, &mut line);
    }
    line
}

/// An element as `(id, group, coordinate bits)`: `Element`'s own
/// equality compares ids only.
fn bits(e: &Element) -> (usize, usize, Vec<u64>) {
    (e.id, e.group, e.point.iter().map(|x| x.to_bits()).collect())
}

/// A parse outcome in a form whose equality is exact.
fn canonical(outcome: &Result<Option<Request>, String>) -> String {
    match outcome {
        Ok(Some(Request::Insert(e))) => format!("Insert {:?}", bits(e)),
        Ok(Some(Request::InsertBatch(elements))) => format!(
            "InsertBatch {:?}",
            elements.iter().map(bits).collect::<Vec<_>>()
        ),
        other => format!("{other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `parse_line` ≡ the frozen parser on every generated line, and
    /// `parse_entry` ≡ the frozen `parse_insert` on the line's tail.
    #[test]
    fn parser_matches_the_frozen_copy(seed in 0u64..u64::MAX) {
        let line = generated_line(seed);
        let new = parse_line(&line);
        let old = frozen::parse_line(&line);
        prop_assert_eq!(canonical(&new), canonical(&old), "line {:?}", line);

        let tail = line.trim_start();
        let tail = &tail[tail.find(char::is_whitespace).unwrap_or(tail.len())..];
        let fields: Vec<&str> = tail.split_whitespace().collect();
        let new = parse_entry(tail).map(|e| bits(&e));
        let old = frozen::parse_insert(&fields).map(|e| bits(&e));
        prop_assert_eq!(new, old, "entry {:?}", tail);
    }
}

/// The generator reaches both sides of the language: multi-entry batches,
/// single inserts, and every error class of the insert grammar.
#[test]
fn generated_lines_cover_accepts_and_each_error() {
    let mut batches = 0;
    let mut inserts = 0;
    let mut errors = std::collections::BTreeSet::new();
    for seed in 0..4096u64 {
        match frozen::parse_line(&generated_line(seed)) {
            Ok(Some(Request::InsertBatch(elements))) if elements.len() > 1 => batches += 1,
            Ok(Some(Request::Insert(_))) => inserts += 1,
            Err(e) => {
                errors.insert(e.split(' ').take(2).collect::<Vec<_>>().join(" "));
            }
            _ => {}
        }
    }
    assert!(batches > 300, "{batches} multi-entry batches");
    assert!(inserts > 200, "{inserts} single inserts");
    for class in [
        "INSERT requires",
        "INSERTB requires",
        "invalid element",
        "invalid group",
        "invalid coordinate",
        "non-finite coordinate",
        "unknown command",
    ] {
        assert!(errors.contains(class), "{class} not reached: {errors:?}");
    }
}

/// Fixed spellings at the edges of the language, each checked against the
/// frozen copy.
#[test]
fn edge_spellings_match_the_frozen_copy() {
    for line in [
        "",
        "   ",
        "\u{A0}",
        "# INSERT 1 0 1",
        "  #",
        "INSERT\u{A0}1\u{2003}0\u{3000}1.5",
        "INSERT 1 0 1.5\u{200B}",
        "INSERT\x0B1\x0C0\r2\t3",
        "INSERT 1 0 1e400",
        "INSERT 1 0 -0",
        "INSERT 1 0",
        "INSERT x y",
        "INSERT 1 x 1",
        "INSERTB",
        "INSERTB |",
        "INSERTB 1 0 1 |",
        "INSERTB | 1 0 1",
        "INSERTB 1 0 1 || 2 0 2",
        "INSERTB 1 0 1| 2 0 2",
        "INSERTB 1 0 1 |2 0 2",
        "INSERTB 1 0 1 | | 2 0 2",
        "INSERTB 1 0 zebra | |",
        "INSERTB 1 0 1 | 2 0 NaN | |",
        "INSERTB 1 0 1\u{A0}|\u{A0}2 0 2",
        "INSERTB 1 0 1\u{200B}|\u{200B}2 0 2",
        "insertb 1 0 1 | 2 1 .5 5. +1e0 1E-3",
        "\u{130}NSERT 1 0 1",
        "frob",
        "OPEN",
        "OPEN jobs",
        "OPEN jobs sfdm2 quotas=1,1 eps=0.1 dmin=0.05 dmax=30",
        "OPEN ../x sfdm2 quotas=1,1 eps=0.1 dmin=0.05 dmax=30",
        "QUERY",
        "QUERY 4 extra",
        "QUERY x",
        "SNAPSHOT",
        "SNAPSHOT /tmp/x a",
        "RESTORE",
        "RESTORE /tmp/x extra",
        "MERGE",
        "MERGE x",
        "AUTH",
        "AUTH a b",
        "auth a",
        "STATS now",
        "ping",
        "exit",
    ] {
        assert_eq!(
            canonical(&parse_line(line)),
            canonical(&frozen::parse_line(line)),
            "{line:?}"
        );
    }
}

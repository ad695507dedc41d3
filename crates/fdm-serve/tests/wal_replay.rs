//! WAL replay reads the client's spelling through the same language the
//! session accepted it in.
//!
//! A durable node logs each entry as the client spelled it, so a restart
//! re-parses tabs, runs of spaces, U+00A0 separators and coordinates such
//! as `+1e0`, `.5`, `5.`, `1E-3` and `-0`. After the restart the stream's
//! `processed`, `stored` and `QUERY` answer must equal an uninterrupted
//! twin's, bit for bit.

use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;

use fdm_serve::protocol::{Payload, Response};
use fdm_serve::{Engine, ServeConfig, Session};

const OPEN: &str = "OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30";

/// Field separators a client may send: every one is Unicode White_Space.
const SEPARATORS: &[&str] = &[" ", "\t", "   ", "\u{A0}", " \t ", "\x0B", "\u{A0} "];

/// Coordinate spellings outside `f64`'s `Display` form.
const ODD: &[&str] = &[
    "+1e0", ".5", "5.", "1E-3", "-0", "-.25", "+7.5e-1", "3E0", "-2.", "0.1e1",
];

/// One entry, `<id> <group> <x> <y>`, spelled with odd separators and,
/// for every third coordinate, an odd literal.
fn entry(i: usize) -> String {
    let sep = |j: usize| SEPARATORS[(i * 3 + j) % SEPARATORS.len()];
    let coordinate = |j: usize| {
        if (i + j).is_multiple_of(3) {
            ODD[(i * 2 + j) % ODD.len()].to_string()
        } else {
            let x = ((i * 7 + j * 3) as f64 * 0.7391).sin() * 9.0;
            if j == 0 {
                format!("{x:e}")
            } else {
                format!("{x}")
            }
        }
    };
    format!(
        "{i}{}{}{}{}{}{}",
        sep(0),
        i % 2,
        sep(1),
        coordinate(0),
        sep(2),
        coordinate(1)
    )
}

/// OPEN, then 60 elements: single `INSERT`s in mixed-case verbs and
/// `INSERTB` batches whose `|` sits between odd separators.
fn script() -> Vec<String> {
    let mut lines = vec![OPEN.to_string()];
    let mut i = 0;
    while i < 60 {
        if i % 7 < 3 {
            let verb = ["INSERT", "insert\t", "Insert\u{A0}"][i % 3];
            lines.push(format!("{verb} {}", entry(i)));
            i += 1;
        } else {
            let batch: Vec<String> = (i..(i + 4).min(60)).map(entry).collect();
            i += batch.len();
            lines.push(format!("INSERTB\t{}", batch.join(" \u{A0}|\t")));
        }
    }
    lines
}

fn run(engine: &Arc<Engine>, lines: &[String]) -> Vec<String> {
    let mut output = Vec::new();
    Session::new(engine.clone())
        .run(Cursor::new(lines.join("\n").into_bytes()), &mut output)
        .unwrap();
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// `(processed, stored, wal_records)` from a STATS reply line.
fn stats(line: &str) -> (String, String, String) {
    let Response::Ok(Payload::Stats(text)) = Response::parse(line).unwrap() else {
        panic!("{line}");
    };
    let field = |key: &str| {
        text.split(' ')
            .find_map(|f| f.strip_prefix(key))
            .unwrap_or_else(|| panic!("{key} in {text}"))
            .to_string()
    };
    (field("processed="), field("stored="), field("wal_records="))
}

/// `(ids, diversity bits)` from a QUERY reply line.
fn query(line: &str) -> (Vec<usize>, u64) {
    let Response::Ok(Payload::Query(reply)) = Response::parse(line).unwrap() else {
        panic!("{line}");
    };
    (reply.ids, reply.diversity.to_bits())
}

#[test]
fn replay_of_odd_spellings_matches_an_uninterrupted_twin() {
    let lines = script();
    let twin = Arc::new(Engine::new(ServeConfig::default()).unwrap());
    let mut twin_script = lines.clone();
    twin_script.extend(["STATS".to_string(), "QUERY".to_string()]);
    let twin_replies = run(&twin, &twin_script);
    assert!(
        twin_replies[1..lines.len()]
            .iter()
            .all(|r| r.starts_with("OK inserted")),
        "{twin_replies:?}"
    );
    let (processed, stored, _) = stats(&twin_replies[lines.len()]);
    assert_eq!(processed, "60");
    let twin_query = query(&twin_replies[lines.len() + 1]);

    let dir: PathBuf =
        std::env::temp_dir().join(format!("fdm_wal_replay_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = |dir: &PathBuf| {
        Arc::new(
            Engine::new(ServeConfig {
                data_dir: Some(dir.clone()),
                ..ServeConfig::default()
            })
            .unwrap(),
        )
    };
    let replies = run(&durable(&dir), &lines);
    assert!(
        replies[1..].iter().all(|r| r.starts_with("OK inserted")),
        "{replies:?}"
    );
    // The log keeps the client's spelling, so the restart below must
    // re-parse it.
    let wal = std::fs::read_to_string(dir.join("jobs.wal")).unwrap();
    for spelling in ["\u{A0}", "\t", "+1e0", " .5", " 5.", "1E-3", " -0"] {
        assert!(wal.contains(spelling), "{spelling:?} not in the WAL");
    }

    let restarted = durable(&dir);
    let replies = run(
        &restarted,
        &[OPEN.to_string(), "STATS".into(), "QUERY".into()],
    );
    assert_eq!(replies[0], "OK attached jobs processed=60", "{replies:?}");
    assert_eq!(
        stats(&replies[1]),
        (processed, stored, "60".to_string()),
        "every element came back through WAL replay"
    );
    assert_eq!(query(&replies[2]), twin_query);
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

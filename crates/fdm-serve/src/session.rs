//! One protocol session: a command loop over any `BufRead`/`Write` pair.
//!
//! Sessions are cheap: they hold an engine reference and the name of the
//! stream they are currently bound to (`OPEN`/`RESTORE` bind it). The same
//! loop serves stdin/stdout, each Unix-socket connection, the WAL-driven
//! tests, and the scripted CI session.
//!
//! Every reply line is produced by [`Response::render_into`] — the
//! session never formats an `OK `/`ERR ` string itself (CI greps for
//! strays), so the wire grammar has exactly one implementation on each
//! side. The [`Payload::Merge`] reply is the one two-part frame: its
//! header line is rendered like any other, then the raw binary snapshot
//! bytes follow. Each reply, tail included,
//! reaches the writer as one `write_all` followed by one `flush`.
//!
//! The loop is also the process's **panic boundary**: every command runs
//! under `catch_unwind`, so a panic anywhere below (algorithm code, a
//! poisoned invariant, the deliberate test hook) degrades to one `ERR`
//! reply on this connection — the session, and every other tenant, keeps
//! serving.

use std::io::{BufRead, Read, Write};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

use crate::engine::{panic_message, Engine};
use crate::protocol::{parse_line, valid_stream_name, ErrorReply, Payload, Request, Response};

/// Default per-line (frame) byte cap for every session transport. One
/// protocol line is one command; even a 10 000-dimensional `INSERT` with
/// full 17-digit coordinates stays well under this, so anything larger is
/// a protocol violation or an attack, and the session closes instead of
/// buffering without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A single client session bound to the shared [`Engine`].
pub struct Session {
    engine: Arc<Engine>,
    current: Option<String>,
    /// Token this session must present (`AUTH <token>`) before any
    /// state-touching command; `None` disables the gate.
    required_token: Option<Arc<str>>,
    authenticated: bool,
}

impl Session {
    /// Creates a session over the shared engine.
    pub fn new(engine: Arc<Engine>) -> Session {
        Session {
            engine,
            current: None,
            required_token: None,
            authenticated: false,
        }
    }

    /// Requires `AUTH <token>` before any command other than
    /// `AUTH`/`PING`/`QUIT` (used by the TCP front end's `--auth-token`).
    pub fn with_auth(mut self, token: Option<Arc<str>>) -> Session {
        self.required_token = token;
        self
    }

    /// The stream this session is currently bound to.
    pub fn current_stream(&self) -> Option<&str> {
        self.current.as_deref()
    }

    /// Executes one already-parsed request, returning the typed success
    /// payload or the typed error.
    pub fn execute(&mut self, request: Request, raw_line: &str) -> Result<Payload, ErrorReply> {
        let bound = |current: &Option<String>| -> Result<String, ErrorReply> {
            current.clone().ok_or_else(|| {
                ErrorReply::generic("no stream bound to this session (OPEN or RESTORE first)")
            })
        };
        if let Request::Auth { token } = &request {
            return match self.required_token.as_deref() {
                None => Ok(Payload::AuthNotRequired),
                Some(required) if required == token.as_str() => {
                    self.authenticated = true;
                    Ok(Payload::Authenticated)
                }
                Some(_) => {
                    self.engine.metrics().auth_failure();
                    Err(ErrorReply::generic("invalid auth token"))
                }
            };
        }
        if self.required_token.is_some()
            && !self.authenticated
            && !matches!(request, Request::Ping | Request::Quit)
        {
            return Err(ErrorReply::generic(
                "authentication required (AUTH <token> first)",
            ));
        }
        match request {
            Request::Open { name, spec } => {
                let reply = self.engine.open(&name, &spec)?;
                self.current = Some(name);
                Ok(reply)
            }
            Request::Insert(element) => {
                let name = bound(&self.current)?;
                self.engine.insert(&name, &element, raw_line)
            }
            Request::InsertBatch(elements) => {
                let name = bound(&self.current)?;
                self.engine.insert_batch_line(&name, &elements, raw_line)
            }
            Request::Query { k } => {
                let name = bound(&self.current)?;
                self.engine.query(&name, k)
            }
            Request::Snapshot { path } => {
                let name = bound(&self.current)?;
                self.engine.snapshot(&name, &path)
            }
            Request::Restore { path } => {
                // Without an explicit binding the stream takes its name
                // from the snapshot file stem.
                let name = match &self.current {
                    Some(name) => name.clone(),
                    None => {
                        let stem = std::path::Path::new(&path)
                            .file_stem()
                            .and_then(|s| s.to_str())
                            .unwrap_or_default()
                            .to_string();
                        if !valid_stream_name(&stem) {
                            return Err(ErrorReply::generic(format!(
                                "cannot derive a stream name from `{path}`; OPEN a stream first"
                            )));
                        }
                        stem
                    }
                };
                let reply = self.engine.restore(&name, &path)?;
                self.current = Some(name);
                Ok(reply)
            }
            Request::Stats => {
                let name = bound(&self.current)?;
                self.engine.stats(&name)
            }
            Request::Merge => {
                let name = bound(&self.current)?;
                self.engine.merge(&name)
            }
            Request::Auth { .. } => unreachable!("AUTH is handled before the dispatch"),
            Request::Ping => Ok(Payload::Pong),
            Request::Quit => Ok(Payload::Bye),
        }
    }

    /// Runs the command loop until `QUIT` or EOF with the default
    /// [`MAX_LINE_BYTES`] frame guard. Every input line yields exactly one
    /// `OK ...`/`ERR ...` response line (blank lines and `#` comments are
    /// skipped).
    pub fn run(&mut self, reader: impl BufRead, writer: impl Write) -> std::io::Result<()> {
        self.run_bounded(reader, writer, MAX_LINE_BYTES)
    }

    /// [`Session::run`] with an explicit per-line byte cap: a line longer
    /// than `max_line` gets one `ERR` response, the unread remainder of
    /// that line is **discarded up to the next newline** (never buffered,
    /// never parsed as commands), and the session resynchronizes on the
    /// following line. An I/O error — including a socket read timeout —
    /// ends the session with that error.
    pub fn run_bounded(
        &mut self,
        mut reader: impl BufRead,
        mut writer: impl Write,
        max_line: usize,
    ) -> std::io::Result<()> {
        // The sanctioned reply path: the rendered line, its newline and,
        // for a MERGE header, the announced raw byte tail, handed to the
        // writer in one `write_all`. On an unbuffered socket with Nagle off
        // every write is a segment, so a split reply would wake the client
        // on a partial line. `out` is reused across requests.
        fn reply(
            writer: &mut impl Write,
            out: &mut String,
            response: &Response,
        ) -> std::io::Result<()> {
            out.clear();
            response.render_into(out);
            out.push('\n');
            match response {
                Response::Ok(Payload::Merge { bytes, .. }) => {
                    writer.write_all(&[out.as_bytes(), bytes].concat())?
                }
                _ => writer.write_all(out.as_bytes())?,
            }
            writer.flush()
        }
        let mut out = String::new();
        let mut buf: Vec<u8> = Vec::new();
        loop {
            buf.clear();
            // `take` caps how much one read_until may buffer; one extra
            // byte distinguishes "exactly max_line" from "over the cap".
            let mut limited = (&mut reader).take(max_line as u64 + 1);
            let n = limited.read_until(b'\n', &mut buf)?;
            if n == 0 {
                return Ok(()); // EOF
            }
            if buf.last() == Some(&b'\n') {
                buf.pop();
            } else if buf.len() > max_line {
                reply(
                    &mut writer,
                    &mut out,
                    &Response::Err(ErrorReply::generic(format!(
                        "line exceeds {max_line} bytes; discarding the rest of it"
                    ))),
                )?;
                // Drain the oversized line in bounded chunks: the tail of
                // a too-long frame is garbage, not fresh commands — it
                // must not be parsed, and it must not accumulate in
                // memory either.
                loop {
                    buf.clear();
                    let mut limited = (&mut reader).take(max_line as u64);
                    let n = limited.read_until(b'\n', &mut buf)?;
                    if n == 0 {
                        return Ok(()); // EOF mid-discard
                    }
                    if buf.last() == Some(&b'\n') {
                        break;
                    }
                }
                continue;
            }
            let line = match std::str::from_utf8(&buf) {
                Ok(line) => line,
                Err(_) => {
                    reply(
                        &mut writer,
                        &mut out,
                        &Response::Err(ErrorReply::generic("line is not valid UTF-8")),
                    )?;
                    continue;
                }
            };
            let started = Instant::now();
            let parsed = parse_line(line);
            self.engine.metrics().request_parsed(started.elapsed());
            match parsed {
                Ok(None) => continue,
                Ok(Some(request)) => {
                    let quit = request == Request::Quit;
                    // The panic boundary: a panic below this point (in the
                    // engine, an algorithm, or the deliberate test hook)
                    // costs this command one ERR reply — never the
                    // connection, never another tenant. The engine's locks
                    // recover from poisoning, and its insert path rolls
                    // the WAL back itself before re-raising.
                    let outcome =
                        std::panic::catch_unwind(AssertUnwindSafe(|| self.execute(request, line)));
                    let response = match outcome {
                        Ok(Ok(payload)) => Response::Ok(payload),
                        Ok(Err(err)) => Response::Err(err),
                        Err(payload) => {
                            // Insert-path panics never unwind this far
                            // (the engine catches them to roll its WAL
                            // back), so this count never doubles theirs.
                            self.engine.metrics().panic_contained();
                            Response::Err(ErrorReply::generic(format!(
                                "internal error (panic contained): {}",
                                panic_message(&*payload)
                            )))
                        }
                    };
                    reply(&mut writer, &mut out, &response)?;
                    if quit {
                        return Ok(());
                    }
                }
                Err(message) => {
                    reply(
                        &mut writer,
                        &mut out,
                        &Response::Err(ErrorReply::generic(message)),
                    )?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::*;
    use crate::engine::ServeConfig;

    /// A writer that keeps each `write` call it receives as one frame.
    #[derive(Default)]
    struct Frames(Vec<Vec<u8>>);

    impl Write for Frames {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// What a session answers to one input line, as separate writes of
    /// the rendered line, its newline and any MERGE tail would send it.
    fn expected_reply(session: &mut Session, line: &[u8], max_line: usize) -> Vec<u8> {
        let response = if line.len() > max_line {
            Response::Err(ErrorReply::generic(format!(
                "line exceeds {max_line} bytes; discarding the rest of it"
            )))
        } else {
            match std::str::from_utf8(line) {
                Err(_) => Response::Err(ErrorReply::generic("line is not valid UTF-8")),
                Ok(text) => match parse_line(text) {
                    Ok(Some(request)) => match session.execute(request, text) {
                        Ok(payload) => Response::Ok(payload),
                        Err(err) => Response::Err(err),
                    },
                    Ok(None) => unreachable!("the script has no blank lines"),
                    Err(message) => Response::Err(ErrorReply::generic(message)),
                },
            }
        };
        let mut bytes = response.render().into_bytes();
        bytes.push(b'\n');
        if let Response::Ok(Payload::Merge { bytes: tail, .. }) = &response {
            bytes.extend_from_slice(tail);
        }
        bytes
    }

    /// Every reply — OK, ERR, parse error, oversized line, non-UTF-8 line,
    /// and the MERGE frame with its binary tail — leaves the session
    /// as exactly one `write`, and its bytes are unchanged: the rendered
    /// line, a newline, then the tail.
    #[test]
    fn each_reply_is_one_write_of_unchanged_bytes() {
        const MAX_LINE: usize = 128;
        let mut lines: Vec<Vec<u8>> = [
            "PING",
            "OPEN jobs sfdm2 quotas=1,1 eps=0.1 dmin=0.05 dmax=30",
            "INSERT 0 0 1.5 -2",
            "INSERTB 1 1 3 4 | 2 0 0.25 1 | 3 1 -4 0.5",
            "INSERT 4 0 zebra",
            "QUERY",
            "MERGE",
            "MERGE since=0:00000000",
            "PING",
        ]
        .iter()
        .map(|line| line.as_bytes().to_vec())
        .collect();
        lines.push(vec![b'x'; MAX_LINE + 10]);
        lines.push(b"INSERT 5 0 \xff 1".to_vec());
        lines.push(b"QUIT".to_vec());
        let input: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.iter().chain(b"\n"))
            .copied()
            .collect();

        let mut frames = Frames::default();
        let engine = Arc::new(Engine::new(ServeConfig::default()).unwrap());
        Session::new(engine)
            .run_bounded(Cursor::new(input), &mut frames, MAX_LINE)
            .unwrap();

        let mut twin = Session::new(Arc::new(Engine::new(ServeConfig::default()).unwrap()));
        let expected: Vec<Vec<u8>> = lines
            .iter()
            .map(|line| expected_reply(&mut twin, line, MAX_LINE))
            .collect();
        assert_eq!(
            frames.0.len(),
            lines.len(),
            "one write per reply: {:?}",
            frames
                .0
                .iter()
                .map(|f| String::from_utf8_lossy(f))
                .collect::<Vec<_>>()
        );
        for ((line, frame), want) in lines.iter().zip(&frames.0).zip(&expected) {
            assert_eq!(frame, want, "reply to `{}`", String::from_utf8_lossy(line));
        }
        // The script reaches every reply shape it names.
        let heads: Vec<String> = frames
            .0
            .iter()
            .map(|f| {
                String::from_utf8_lossy(f)
                    .lines()
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert!(heads[2].starts_with("OK inserted processed=1"), "{heads:?}");
        assert!(
            heads[3].starts_with("OK inserted processed=4 count=3"),
            "{heads:?}"
        );
        assert!(heads[4].starts_with("ERR "), "{heads:?}");
        assert!(heads[5].starts_with("OK k="), "{heads:?}");
        assert!(heads[6].starts_with("OK merge") && frames.0[6].len() > heads[6].len() + 1);
        // An old coordinator's incremental pull gets one typed ERR, and
        // the session keeps serving.
        assert_eq!(heads[7], "ERR MERGE takes no arguments", "{heads:?}");
        assert_eq!(heads[8], "OK pong", "{heads:?}");
        assert!(heads[9].contains("line exceeds"), "{heads:?}");
        assert!(heads[10].contains("not valid UTF-8"), "{heads:?}");
    }
}

//! One protocol session: a command loop over any `BufRead`/`Write` pair.
//!
//! Sessions are cheap: they hold an engine reference and the name of the
//! stream they are currently bound to (`OPEN`/`RESTORE` bind it). The same
//! loop serves stdin/stdout, each Unix-socket connection, the WAL-driven
//! tests, and the scripted CI session.
//!
//! Every reply line is produced by [`Response::render`] — the session
//! never formats an `OK `/`ERR ` string itself (CI greps for strays), so
//! the wire grammar has exactly one implementation on each side. The
//! [`Payload::Merge`]/[`Payload::MergeSince`] replies are the two-part
//! frames: their header line is rendered like any other, then the raw
//! binary snapshot (or delta) bytes follow.
//!
//! The loop is also the process's **panic boundary**: every command runs
//! under `catch_unwind`, so a panic anywhere below (algorithm code, a
//! poisoned invariant, the deliberate test hook) degrades to one `ERR`
//! reply on this connection — the session, and every other tenant, keeps
//! serving.

use std::io::{BufRead, Read, Write};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

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
                self.engine.insert_batch(&name, &elements)
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
            Request::Merge { since } => {
                let name = bound(&self.current)?;
                match since {
                    None => self.engine.merge(&name),
                    Some(since) => self.engine.merge_since(&name, since),
                }
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
        // The sanctioned reply path: one rendered line, flushed — plus,
        // for a MERGE header, the announced raw byte tail.
        fn reply(writer: &mut impl Write, response: &Response) -> std::io::Result<()> {
            writeln!(writer, "{}", response.render())?;
            if let Response::Ok(Payload::Merge { bytes, .. } | Payload::MergeSince { bytes, .. }) =
                response
            {
                writer.write_all(bytes)?;
            }
            writer.flush()
        }
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
                        &Response::Err(ErrorReply::generic("line is not valid UTF-8")),
                    )?;
                    continue;
                }
            };
            match parse_line(line) {
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
                    reply(&mut writer, &response)?;
                    if quit {
                        return Ok(());
                    }
                }
                Err(message) => {
                    reply(&mut writer, &Response::Err(ErrorReply::generic(message)))?;
                }
            }
        }
    }
}

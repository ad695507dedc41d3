//! A small blocking client for the `fdm-serve` line protocol.
//!
//! [`Client`] wraps one connection — TCP or Unix socket — behind the typed
//! [`Request`]/[`Response`] grammar: render a
//! request, write the line, read the reply line, parse it (and, for
//! `MERGE`, read the announced binary tail). Raw line-level escape hatches
//! ([`Client::send_line`] / [`Client::read_reply_line`] /
//! [`Client::roundtrip`]) stay public for tests that deliberately speak
//! malformed or oversized lines.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use fdm_core::point::Element;

use crate::protocol::{
    render_entry, render_insert_batch, ErrorReply, Payload, QueryReply, Request, Response,
    StreamSpec,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write, timeout, EOF).
    Io(std::io::Error),
    /// The server's reply did not parse as protocol grammar.
    Protocol(String),
    /// The server answered `ERR ...` — a typed, successful round trip.
    Server(ErrorReply),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            ClientError::Server(err) => write!(f, "server error: {err}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A result specialized to [`ClientError`].
pub type Result<T> = std::result::Result<T, ClientError>;

/// One transport: TCP or Unix socket, split into a buffered reader and a
/// writer over `try_clone`d handles.
enum Transport {
    Tcp {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
    Unix {
        reader: BufReader<UnixStream>,
        writer: UnixStream,
    },
}

/// A blocking protocol client over one connection.
///
/// The client owns one reusable write buffer and one reusable reply-line
/// buffer, so the steady-state command loop (the coordinator's per-element
/// insert path, a bench driving millions of inserts) allocates nothing per
/// round trip.
pub struct Client {
    transport: Transport,
    /// Reused render buffer for outgoing request lines.
    write_buf: String,
    /// Reused buffer for incoming reply lines.
    line_buf: String,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.transport {
            Transport::Tcp { .. } => write!(f, "Client(tcp)"),
            Transport::Unix { .. } => write!(f, "Client(unix)"),
        }
    }
}

impl Client {
    /// Connects over TCP. Nagle's algorithm is disabled: the protocol is
    /// strictly request/reply, so there is never a follow-up write to
    /// coalesce with — leaving it on serializes every round trip against
    /// the peer's delayed-ACK timer.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client::over(Transport::Tcp { reader, writer }))
    }

    fn over(transport: Transport) -> Client {
        Client {
            transport,
            write_buf: String::new(),
            line_buf: String::new(),
        }
    }

    /// Connects over TCP, retrying with doubling backoff — the
    /// coordinator's worker-(re)connect path. `attempts` counts total
    /// tries; the first retry sleeps `initial_backoff`.
    pub fn connect_tcp_retry(
        addr: impl ToSocketAddrs + Clone,
        attempts: usize,
        initial_backoff: Duration,
    ) -> Result<Client> {
        let mut backoff = initial_backoff;
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            match Client::connect_tcp(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "zero connect attempts",
            ))
        }))
    }

    /// Connects over a Unix socket.
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Client> {
        let writer = UnixStream::connect(path)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client::over(Transport::Unix { reader, writer }))
    }

    /// Bounds every subsequent read (`None` = block forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        match &self.transport {
            Transport::Tcp { writer, .. } => writer.set_read_timeout(timeout)?,
            Transport::Unix { writer, .. } => writer.set_read_timeout(timeout)?,
        }
        Ok(())
    }

    /// Writes one raw line (newline appended) and flushes.
    pub fn send_line(&mut self, line: &str) -> Result<()> {
        self.write_buf.clear();
        self.write_buf.push_str(line);
        self.write_line()
    }

    /// Appends the newline to the line in `write_buf` and sends both in
    /// one write: with Nagle off, a separate newline write would be a
    /// second segment, and the peer would wake on a partial line.
    fn write_line(&mut self) -> Result<()> {
        self.write_buf.push('\n');
        let line = self.write_buf.as_bytes();
        match &mut self.transport {
            Transport::Tcp { writer, .. } => {
                writer.write_all(line)?;
                writer.flush()?;
            }
            Transport::Unix { writer, .. } => {
                writer.write_all(line)?;
                writer.flush()?;
            }
        }
        Ok(())
    }

    /// Reads one reply line, without its trailing newline. EOF is an
    /// [`ClientError::Io`] with [`std::io::ErrorKind::UnexpectedEof`].
    pub fn read_reply_line(&mut self) -> Result<String> {
        self.fill_reply_line()?;
        Ok(self.line_buf.clone())
    }

    /// Reads one reply line into the reused `line_buf` (trailing newline
    /// stripped) — the allocation-free core of [`Client::read_reply_line`].
    fn fill_reply_line(&mut self) -> Result<()> {
        self.line_buf.clear();
        let n = match &mut self.transport {
            Transport::Tcp { reader, .. } => reader.read_line(&mut self.line_buf)?,
            Transport::Unix { reader, .. } => reader.read_line(&mut self.line_buf)?,
        };
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        while self.line_buf.ends_with('\n') || self.line_buf.ends_with('\r') {
            self.line_buf.pop();
        }
        Ok(())
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        match &mut self.transport {
            Transport::Tcp { reader, .. } => reader.read_exact(buf)?,
            Transport::Unix { reader, .. } => reader.read_exact(buf)?,
        }
        Ok(())
    }

    /// Raw line round trip: send, read one reply line back verbatim
    /// (including its `OK `/`ERR ` prefix). For tests that assert exact
    /// wire bytes.
    pub fn roundtrip(&mut self, line: &str) -> Result<String> {
        self.send_line(line)?;
        self.read_reply_line()
    }

    /// One typed round trip: render the request (into the reused write
    /// buffer), read and parse the reply. `ERR` replies surface as
    /// [`ClientError::Server`]; a `MERGE` reply's binary tail is read into
    /// the returned payload.
    pub fn request(&mut self, request: &Request) -> Result<Payload> {
        self.write_buf.clear();
        request.render_into(&mut self.write_buf);
        self.send_write_buf()
    }

    /// The one send path: writes the request line already rendered into
    /// `write_buf` (newline appended), then reads and parses the reply.
    fn send_write_buf(&mut self) -> Result<Payload> {
        self.write_line()?;
        self.read_payload()
    }

    /// Reads and parses one reply, with a `MERGE` reply's binary tail.
    fn read_payload(&mut self) -> Result<Payload> {
        self.fill_reply_line()?;
        match Response::parse(&self.line_buf).map_err(ClientError::Protocol)? {
            Response::Ok(Payload::Merge {
                algorithm,
                processed,
                mut bytes,
            }) => {
                // `Response::parse` pre-sized `bytes` to the announced
                // length; fill it from the wire.
                self.read_exact(&mut bytes)?;
                Ok(Payload::Merge {
                    algorithm,
                    processed,
                    bytes,
                })
            }
            Response::Ok(payload) => Ok(payload),
            Response::Err(err) => Err(ClientError::Server(err)),
        }
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        extract: impl FnOnce(Payload) -> std::result::Result<T, Payload>,
    ) -> Result<T> {
        let payload = self.request(request)?;
        extract(payload).map_err(unexpected)
    }

    /// `AUTH <token>`.
    pub fn auth(&mut self, token: &str) -> Result<()> {
        self.expect(
            &Request::Auth {
                token: token.to_string(),
            },
            |p| match p {
                Payload::Authenticated | Payload::AuthNotRequired => Ok(()),
                other => Err(other),
            },
        )
    }

    /// `OPEN <name> <spec>` — returns the arrivals already processed (0
    /// for a fresh stream, the stream position on re-attach).
    pub fn open(&mut self, name: &str, spec: &StreamSpec) -> Result<usize> {
        self.expect(
            &Request::Open {
                name: name.to_string(),
                spec: spec.clone(),
            },
            |p| match p {
                Payload::Opened { .. } => Ok(0),
                Payload::Attached { processed, .. } => Ok(processed),
                other => Err(other),
            },
        )
    }

    /// `INSERT` one element — returns its sequence number.
    pub fn insert(&mut self, element: &Element) -> Result<usize> {
        self.write_buf.clear();
        self.write_buf.push_str("INSERT ");
        render_entry(element, &mut self.write_buf);
        match self.send_write_buf()? {
            Payload::Inserted { seq } => Ok(seq),
            other => Err(unexpected(other)),
        }
    }

    /// `INSERTB` a batch of elements in one round trip — returns
    /// `(stream position after the batch, elements acknowledged)`.
    pub fn insert_batch(&mut self, elements: &[Element]) -> Result<(usize, usize)> {
        self.write_insert_batch(elements, render_entry)?;
        self.read_inserted_batch()
    }

    /// `INSERTB` of entry texts (`<id> <group> <x1> ... <xd>` each) sent
    /// verbatim, without parsing or re-rendering them — the coordinator
    /// forwards its clients' spelling this way. Same reply as
    /// [`Client::insert_batch`].
    pub fn insert_entries(&mut self, entries: &[&str]) -> Result<(usize, usize)> {
        self.write_insert_entries(entries)?;
        self.read_inserted_batch()
    }

    /// Writes [`Client::insert_entries`]' request and returns before the
    /// reply: a caller fanning out to several servers writes every request
    /// first, then collects each reply with
    /// [`Client::read_inserted_batch`].
    pub fn write_insert_entries(&mut self, entries: &[&str]) -> Result<()> {
        self.write_insert_batch(entries, |entry, out| out.push_str(entry))
    }

    fn write_insert_batch<T>(
        &mut self,
        entries: &[T],
        entry: impl FnMut(&T, &mut String),
    ) -> Result<()> {
        self.write_buf.clear();
        render_insert_batch(entries, &mut self.write_buf, entry);
        self.write_line()
    }

    /// Reads the reply to an `INSERTB`: `(stream position after the
    /// batch, elements acknowledged)`.
    pub fn read_inserted_batch(&mut self) -> Result<(usize, usize)> {
        match self.read_payload()? {
            Payload::InsertedBatch { seq, count } => Ok((seq, count)),
            other => Err(unexpected(other)),
        }
    }

    /// `QUERY [k]`.
    pub fn query(&mut self, k: Option<usize>) -> Result<QueryReply> {
        self.expect(&Request::Query { k }, |p| match p {
            Payload::Query(reply) => Ok(reply),
            other => Err(other),
        })
    }

    /// `MERGE` — pulls the bound stream's retained elements as a union
    /// block: `(algorithm, processed, block bytes)`; decode the block with
    /// [`protocol::decode_union`](crate::protocol::decode_union).
    pub fn merge(&mut self) -> Result<(String, usize, Vec<u8>)> {
        self.write_merge()?;
        self.read_merge()
    }

    /// Writes a `MERGE` request and returns before the reply (see
    /// [`Client::write_insert_entries`]); read it with
    /// [`Client::read_merge`].
    pub fn write_merge(&mut self) -> Result<()> {
        self.write_buf.clear();
        Request::Merge.render_into(&mut self.write_buf);
        self.write_line()
    }

    /// Reads the reply to a `MERGE`: `(algorithm, processed, block bytes)`.
    pub fn read_merge(&mut self) -> Result<(String, usize, Vec<u8>)> {
        match self.read_payload()? {
            Payload::Merge {
                algorithm,
                processed,
                bytes,
            } => Ok((algorithm, processed, bytes)),
            other => Err(unexpected(other)),
        }
    }

    /// `STATS` — the pre-rendered stats line (field set in `docs/serve.md`).
    pub fn stats(&mut self) -> Result<String> {
        self.expect(&Request::Stats, |p| match p {
            Payload::Stats(line) => Ok(line),
            other => Err(other),
        })
    }

    /// `SNAPSHOT <path>` — returns the arrivals captured.
    pub fn snapshot(&mut self, path: &str) -> Result<usize> {
        self.expect(
            &Request::Snapshot {
                path: path.to_string(),
            },
            |p| match p {
                Payload::SnapshotWritten { processed, .. } => Ok(processed),
                other => Err(other),
            },
        )
    }

    /// `RESTORE <path>` — returns `(stream name, arrivals restored)`.
    pub fn restore(&mut self, path: &str) -> Result<(String, usize)> {
        self.expect(
            &Request::Restore {
                path: path.to_string(),
            },
            |p| match p {
                Payload::Restored { name, processed } => Ok((name, processed)),
                other => Err(other),
            },
        )
    }

    /// `PING`.
    pub fn ping(&mut self) -> Result<()> {
        self.expect(&Request::Ping, |p| match p {
            Payload::Pong => Ok(()),
            other => Err(other),
        })
    }

    /// `QUIT` — consumes the client (the server closes after `bye`).
    pub fn quit(mut self) -> Result<()> {
        self.expect(&Request::Quit, |p| match p {
            Payload::Bye => Ok(()),
            other => Err(other),
        })
    }
}

fn unexpected(payload: Payload) -> ClientError {
    ClientError::Protocol(format!("unexpected reply payload: {payload:?}"))
}

//! TCP front-end tests: the same line protocol over TCP, Unix socket, and
//! an in-process session must serve identical answers, and the TCP
//! defenses (max-frame guard, read timeout) must hold.
//!
//! Client-side wire access goes through [`fdm_client::Client`] — the typed
//! wrappers where the test cares about the payload, the raw
//! `send_line`/`read_reply_line`/`roundtrip` escape hatches where it
//! deliberately speaks malformed or oversized frames.

use std::io::Cursor;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fdm_client::{Client, ClientError};
use fdm_serve::protocol::{parse_line, Request, StreamSpec};
use fdm_serve::{serve_tcp, serve_unix, Engine, NetOptions, ServeConfig, Session};

const OPEN: &str = "OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30";

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(ServeConfig::default()).unwrap())
}

fn open_spec() -> (String, StreamSpec) {
    match parse_line(OPEN).unwrap().unwrap() {
        Request::Open { name, spec } => (name, spec),
        other => panic!("{other:?}"),
    }
}

fn script(n: usize) -> String {
    let mut lines = vec![OPEN.to_string()];
    lines.extend((0..n).map(|i| {
        let x = (i as f64 * 0.7391).sin() * 9.0;
        let y = (i as f64 * 0.2113).cos() * 9.0;
        format!("INSERT {i} {} {x} {y}", i % 2)
    }));
    lines.push("STATS".into());
    lines.push("QUERY".into());
    lines.push("QUIT".into());
    lines.join("\n") + "\n"
}

fn start_tcp(engine: Arc<Engine>, options: NetOptions) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || serve_tcp(engine, listener, options));
    addr
}

/// Round-trips every line of `text` through `client`, one reply per
/// command line (blank lines and comments get no reply).
fn roundtrip_script(client: &mut Client, text: &str) -> Vec<String> {
    text.lines()
        .filter(|line| parse_line(line).map(|c| c.is_some()).unwrap_or(true))
        .map(|line| client.roundtrip(line).unwrap())
        .collect()
}

#[test]
fn tcp_unix_and_inprocess_sessions_serve_identical_answers() {
    // Three transports, three *separate* engines fed the same stream: the
    // answers must be byte-identical across all of them.
    let text = script(60);

    // In-process reference.
    let reference = {
        let mut output = Vec::new();
        Session::new(engine())
            .run(Cursor::new(text.clone().into_bytes()), &mut output)
            .unwrap();
        String::from_utf8(output).unwrap()
    };
    let reference: Vec<String> = reference.lines().map(str::to_string).collect();
    assert!(
        reference.iter().any(|l| l.starts_with("OK k=")),
        "{reference:?}"
    );

    // TCP.
    let tcp_replies = {
        let addr = start_tcp(engine(), NetOptions::default());
        let mut client = Client::connect_tcp(addr).unwrap();
        roundtrip_script(&mut client, &text)
    };

    // Unix socket.
    let unix_replies = {
        use std::os::unix::net::UnixListener;
        let dir = std::env::temp_dir().join(format!("fdm_tcp_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fdm.sock");
        let listener = UnixListener::bind(&path).unwrap();
        let e = engine();
        std::thread::spawn(move || serve_unix(e, listener, NetOptions::default()));
        let mut client = Client::connect_unix(&path).unwrap();
        let replies = roundtrip_script(&mut client, &text);
        let _ = std::fs::remove_dir_all(&dir);
        replies
    };

    assert_eq!(reference, tcp_replies, "TCP answers must match in-process");
    assert_eq!(
        reference, unix_replies,
        "Unix answers must match in-process"
    );
}

#[test]
fn tcp_sessions_share_the_engine_across_connections() {
    let addr = start_tcp(engine(), NetOptions::default());
    let (name, spec) = open_spec();

    // Connection 1 opens and feeds the stream through the typed API.
    let mut a = Client::connect_tcp(addr).unwrap();
    assert_eq!(a.open(&name, &spec).unwrap(), 0, "fresh stream");
    for (i, (x, y)) in [(1.0, 1.0), (5.0, 5.0)].iter().enumerate() {
        let element = fdm_core::point::Element::new(i, vec![*x, *y], i % 2);
        assert_eq!(a.insert(&element).unwrap(), i + 1);
    }
    a.quit().unwrap();

    // Connection 2 attaches to the same named stream; the raw round trip
    // additionally pins the wire bytes of the attach reply.
    let mut b = Client::connect_tcp(addr).unwrap();
    assert_eq!(b.roundtrip(OPEN).unwrap(), "OK attached jobs processed=2");
    assert_eq!(b.open(&name, &spec).unwrap(), 2, "typed re-attach");
}

#[test]
fn oversized_lines_resync_on_the_next_newline() {
    let addr = start_tcp(
        engine(),
        NetOptions {
            read_timeout: Some(Duration::from_secs(5)),
            max_line: 1024,
            ..NetOptions::default()
        },
    );
    let mut client = Client::connect_tcp(addr).unwrap();
    // One >1 MiB line whose unread tail spells a valid command: the tail
    // belongs to the oversized line and must be discarded, never parsed —
    // if it were, the session would answer `OK bye` and close here.
    let mut huge = "x".repeat((1 << 20) + 37);
    huge.push_str(" QUIT");
    client.send_line(&huge).unwrap();
    assert!(client
        .read_reply_line()
        .unwrap()
        .starts_with("ERR line exceeds 1024 bytes"),);
    // The *next* line is a fresh command and must work normally.
    assert_eq!(client.roundtrip("PING").unwrap(), "OK pong");
    assert_eq!(client.roundtrip("QUIT").unwrap(), "OK bye");
}

#[test]
fn auth_token_gates_tcp_sessions() {
    let addr = start_tcp(
        engine(),
        NetOptions {
            read_timeout: Some(Duration::from_secs(5)),
            auth_token: Some(Arc::from("s3cret")),
            ..NetOptions::default()
        },
    );
    let mut client = Client::connect_tcp(addr).unwrap();
    // Raw round trips pin the exact reply lines of the auth choreography.
    assert_eq!(client.roundtrip("PING").unwrap(), "OK pong"); // health checks stay open pre-auth
    assert_eq!(
        client.roundtrip(OPEN).unwrap(),
        "ERR authentication required (AUTH <token> first)"
    );
    assert_eq!(
        client.roundtrip("AUTH wrong").unwrap(),
        "ERR invalid auth token"
    );
    // The typed wrapper surfaces the server rejection as a typed error.
    let err = client.auth("also-wrong").unwrap_err();
    assert!(
        matches!(&err, ClientError::Server(reply) if reply.message == "invalid auth token"),
        "{err}"
    );
    client.auth("s3cret").unwrap();
    assert_eq!(client.roundtrip(OPEN).unwrap(), "OK opened jobs");
    client.quit().unwrap();

    // Without --auth-token, AUTH is a no-op courtesy.
    let addr = start_tcp(engine(), NetOptions::default());
    let mut client = Client::connect_tcp(addr).unwrap();
    assert_eq!(
        client.roundtrip("AUTH anything").unwrap(),
        "OK auth not required"
    );
    client.auth("anything").unwrap();
    client.ping().unwrap();
    client.quit().unwrap();
}

#[test]
fn idle_tcp_connections_time_out() {
    let addr = start_tcp(
        engine(),
        NetOptions {
            read_timeout: Some(Duration::from_millis(200)),
            max_line: 1024,
            ..NetOptions::default()
        },
    );
    let mut client = Client::connect_tcp(addr).unwrap();
    // Send nothing. The server side must drop the connection once the
    // read timeout fires, which we observe as EOF on our read side well
    // before a generous deadline.
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let start = Instant::now();
    let err = client.read_reply_line().unwrap_err();
    assert!(
        matches!(&err, ClientError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "server must close the idle connection: {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "timeout took {:?}",
        start.elapsed()
    );
}

#[test]
fn connection_cap_refuses_excess_connections() {
    let addr = start_tcp(
        engine(),
        NetOptions {
            read_timeout: Some(Duration::from_secs(5)),
            max_connections: 2,
            ..NetOptions::default()
        },
    );
    let mut a = Client::connect_tcp(addr).unwrap();
    a.ping().unwrap();
    let mut b = Client::connect_tcp(addr).unwrap();
    b.ping().unwrap();
    // Third connection: refused with one ERR line, then closed.
    let mut c = Client::connect_tcp(addr).unwrap();
    assert!(c
        .read_reply_line()
        .unwrap()
        .starts_with("ERR server at connection limit"),);
    let err = c.read_reply_line().unwrap_err();
    assert!(
        matches!(&err, ClientError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "refused connection must be closed: {err}"
    );
    // Freeing a slot admits new connections again (the session thread
    // releases it when the closed connection's loop ends).
    drop(a);
    let mut admitted = false;
    for _ in 0..100 {
        let mut d = Client::connect_tcp(addr).unwrap();
        if d.ping().is_ok() {
            admitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(admitted, "a freed slot must admit new connections");
}

#[test]
fn tcp_snapshot_kill_restore_round_trip() {
    // The full persistence loop over TCP: feed half, SNAPSHOT (binary),
    // drop the engine, restore into a fresh engine over TCP, feed the
    // rest, and match an uninterrupted run.
    let dir = std::env::temp_dir().join(format!("fdm_tcp_snap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("jobs.snap");

    let inserts: Vec<String> = (0..80)
        .map(|i| {
            let x = (i as f64 * 0.7391).sin() * 9.0;
            let y = (i as f64 * 0.2113).cos() * 9.0;
            format!("INSERT {i} {} {x} {y}", i % 2)
        })
        .collect();

    let reference = {
        let mut output = Vec::new();
        let text = format!("{OPEN}\n{}\nQUERY\n", inserts.join("\n"));
        Session::new(engine())
            .run(Cursor::new(text.into_bytes()), &mut output)
            .unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .last()
            .unwrap()
            .to_string()
    };

    {
        let addr = start_tcp(engine(), NetOptions::default());
        let mut client = Client::connect_tcp(addr).unwrap();
        for line in std::iter::once(OPEN.to_string()).chain(inserts[..40].iter().cloned()) {
            let reply = client.roundtrip(&line).unwrap();
            assert!(reply.starts_with("OK "), "{reply}");
        }
        let captured = client.snapshot(&snap.display().to_string()).unwrap();
        assert_eq!(captured, 40);
        client.quit().unwrap();
    }
    assert!(snap.exists());

    let resumed = {
        let addr = start_tcp(engine(), NetOptions::default());
        let mut client = Client::connect_tcp(addr).unwrap();
        assert_eq!(
            client.restore(&snap.display().to_string()).unwrap(),
            ("jobs".to_string(), 40)
        );
        for line in &inserts[40..] {
            let reply = client.roundtrip(line).unwrap();
            assert!(reply.starts_with("OK "), "{reply}");
        }
        let last = client.roundtrip("QUERY").unwrap();
        client.quit().unwrap();
        last
    };
    assert_eq!(
        reference, resumed,
        "post-restore TCP QUERY must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! End-to-end robustness proof for the `td-serve` daemon.
//!
//! Each test boots the real binary on its own store + socket and
//! drives it over the wire:
//!
//! * miss → hit → corrupt → quarantine → recompute, with the `ok`
//!   responses byte-identical throughout (the cache is invisible except
//!   through `stats`);
//! * a worker panic (the hidden `faulty` experiment) retried to
//!   success, and — with retries exhausted — tripping the circuit
//!   breaker;
//! * a wall-clock deadline killing an oversized cell with a structured
//!   `deadline_exceeded`;
//! * admission control shedding a lower-priority queued request and
//!   rejecting on a full queue, then an in-band `shutdown` drain
//!   (exit 0) persisting the queue;
//! * SIGTERM drain (exit 130) persisting the unstarted queue to
//!   `pending.tdq`, and a restarted daemon replaying it and serving
//!   the same request as a cache hit;
//! * two simultaneous misses of one cell both computed and stored
//!   without a store-write failure;
//! * an unbounded or non-UTF-8 request line answered with a counted
//!   `bad_request`, the daemon still serving afterwards.
#![cfg(unix)]

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_td-serve");

struct Daemon {
    child: Child,
    socket: PathBuf,
    store: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("td-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_daemon(tag: &str, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
    let store = tmp_dir(tag);
    let socket = store.join("s.sock");
    spawn_daemon_at(&store, &socket, extra, envs)
}

fn spawn_daemon_at(store: &Path, socket: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
    let mut cmd = Command::new(EXE);
    cmd.arg("serve")
        .arg("--store")
        .arg(store)
        .arg("--socket")
        .arg(socket)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let child = cmd.spawn().expect("spawn td-serve");
    let daemon = Daemon {
        child,
        socket: socket.to_path_buf(),
        store: store.to_path_buf(),
    };
    // Wait until the daemon accepts connections.
    let start = Instant::now();
    loop {
        if UnixStream::connect(&daemon.socket).is_ok() {
            break daemon;
        }
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "daemon never came up on {}",
            daemon.socket.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One request, one reply, connection closed.
fn request(socket: &Path, line: &str) -> String {
    let stream = UnixStream::connect(socket).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(!reply.is_empty(), "daemon closed without replying");
    reply.trim_end().to_owned()
}

/// Open a connection and send a request without waiting for the reply —
/// for building up concurrent in-flight/queued work.
struct PendingReply {
    reader: BufReader<UnixStream>,
}

fn request_async(socket: &Path, line: &str) -> PendingReply {
    let stream = UnixStream::connect(socket).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    PendingReply {
        reader: BufReader::new(stream),
    }
}

impl PendingReply {
    fn recv(mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "daemon closed without replying");
        reply.trim_end().to_owned()
    }
}

/// Send `line` on every open connection, then read one reply from each.
fn exchange_all(conns: &mut [(UnixStream, BufReader<UnixStream>)], line: &str) -> Vec<String> {
    for (writer, _) in conns.iter_mut() {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
    }
    conns
        .iter_mut()
        .map(|(_, reader)| {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            reply.trim_end().to_owned()
        })
        .collect()
}

fn stats(socket: &Path) -> String {
    request(socket, "{\"op\":\"stats\"}")
}

/// Pull `"name":N` out of a stats/response line.
fn field(json: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no field {name} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("field {name} not numeric in {json}"))
}

/// Poll stats until `pred` holds (daemon-side state is asynchronous).
fn wait_stats(socket: &Path, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let start = Instant::now();
    loop {
        let s = stats(socket);
        if pred(&s) {
            break s;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}; last stats: {s}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A request that stays in the event loop long enough to trip any
/// wall-clock deadline: `multihop` (the heaviest topology) over a
/// 100 000 s simulation — minutes of dispatch in a debug build. The
/// deadline poll lives in the dispatch loop, so the busy experiment
/// must be dispatch-bound, not analysis-bound.
fn oversized(seed: u64, deadline_ms: u64) -> String {
    format!(
        "{{\"op\":\"simulate\",\"experiment\":\"multihop\",\"seed\":{seed},\
         \"sim_secs\":100000,\"deadline_ms\":{deadline_ms}}}"
    )
}

#[test]
fn miss_hit_corrupt_quarantine_recompute_byte_identical() {
    let d = spawn_daemon("cache", &["--jobs", "2"], &[]);
    let req = "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":5,\"sim_secs\":2}";

    // Miss: computed and stored.
    let first = request(&d.socket, req);
    assert!(first.contains("\"status\":\"ok\""), "miss reply: {first}");
    // Hit: byte-identical to the computed response.
    let second = request(&d.socket, req);
    assert_eq!(first, second, "cache hit must be byte-identical");
    let s = stats(&d.socket);
    assert_eq!(field(&s, "misses"), 1, "stats: {s}");
    assert_eq!(field(&s, "hits"), 1, "stats: {s}");
    assert_eq!(field(&s, "computed"), 1, "stats: {s}");
    assert_eq!(field(&s, "quarantined"), 0, "stats: {s}");

    // Corrupt the stored cell: flip one byte mid-file.
    let cell = std::fs::read_dir(&d.store)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "tdc"))
        .expect("a .tdc cell in the store");
    let mut bytes = std::fs::read(&cell).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&cell, &bytes).unwrap();

    // The daemon quarantines the corrupt cell and transparently
    // recomputes — the reply is still byte-identical.
    let third = request(&d.socket, req);
    assert_eq!(first, third, "recompute after quarantine must match");
    let s = stats(&d.socket);
    assert_eq!(field(&s, "quarantined"), 1, "stats: {s}");
    assert_eq!(field(&s, "recomputed"), 1, "stats: {s}");
    let quarantine = d.store.join("quarantine");
    let held = std::fs::read_dir(&quarantine)
        .map(Iterator::count)
        .unwrap_or(0);
    assert_eq!(held, 1, "corrupt cell should sit in quarantine/");

    // And the store is intact again: the recomputed cell verifies.
    let fourth = request(&d.socket, req);
    assert_eq!(first, fourth);
    let s = stats(&d.socket);
    assert_eq!(field(&s, "hits"), 2, "stats: {s}");

    // Sanity: a bad request is a structured rejection, not a hangup.
    let bad = request(&d.socket, "{\"op\":\"simulate\"}");
    assert!(
        bad.contains("\"status\":\"bad_request\""),
        "bad reply: {bad}"
    );
    let unknown = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"no-such-thing\"}",
    );
    assert!(
        unknown.contains("\"status\":\"bad_request\""),
        "unknown-experiment reply: {unknown}"
    );
}

#[test]
fn worker_panic_is_retried_to_success() {
    // The hidden `faulty` experiment panics on its first call, then
    // succeeds; one retry should rescue the request.
    let d = spawn_daemon(
        "retry",
        &["--jobs", "1", "--retries", "2", "--backoff-ms", "1"],
        &[("TD_FAULTY_PANICS", "1")],
    );
    let reply = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"faulty\",\"seed\":3}",
    );
    assert!(reply.contains("\"status\":\"ok\""), "reply: {reply}");
    let s = stats(&d.socket);
    assert_eq!(field(&s, "worker_panics"), 1, "stats: {s}");
    assert_eq!(field(&s, "retries"), 1, "stats: {s}");
    assert_eq!(field(&s, "failed"), 0, "stats: {s}");
    assert_eq!(field(&s, "computed"), 1, "stats: {s}");
}

#[test]
fn exhausted_retries_trip_the_circuit_breaker() {
    // Every call panics; two final failures open the breaker for the
    // config, after which requests are rejected without a worker.
    let d = spawn_daemon(
        "breaker",
        &[
            "--jobs",
            "1",
            "--retries",
            "1",
            "--backoff-ms",
            "1",
            "--breaker",
            "2",
        ],
        &[("TD_FAULTY_PANICS", "1000000")],
    );
    let r1 = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"faulty\",\"seed\":1}",
    );
    assert!(r1.contains("\"status\":\"failed\""), "r1: {r1}");
    assert_eq!(field(&r1, "attempts"), 2, "r1: {r1}");
    assert!(r1.contains("\"circuit_open\":false"), "r1: {r1}");

    let r2 = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"faulty\",\"seed\":2}",
    );
    assert!(r2.contains("\"status\":\"failed\""), "r2: {r2}");
    assert!(
        r2.contains("\"circuit_open\":true"),
        "second final failure should open the breaker: {r2}"
    );

    // Breaker open: rejected up front, attempts 0.
    let r3 = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"faulty\",\"seed\":3}",
    );
    assert!(r3.contains("\"status\":\"failed\""), "r3: {r3}");
    assert_eq!(field(&r3, "attempts"), 0, "r3: {r3}");
    assert!(r3.contains("circuit breaker open"), "r3: {r3}");

    let s = stats(&d.socket);
    assert_eq!(field(&s, "worker_panics"), 4, "stats: {s}");
    assert_eq!(field(&s, "retries"), 2, "stats: {s}");
    assert_eq!(field(&s, "failed"), 2, "stats: {s}");
    assert_eq!(field(&s, "circuit_open"), 1, "stats: {s}");
    // The daemon survived every panic: still answering.
    let pong = request(&d.socket, "{\"op\":\"ping\"}");
    assert!(pong.contains("\"pong\":true"), "pong: {pong}");
}

#[test]
fn deadline_kills_an_oversized_cell() {
    let d = spawn_daemon("deadline", &["--jobs", "1"], &[]);
    let reply = request(&d.socket, &oversized(99, 200));
    assert!(
        reply.contains("\"status\":\"deadline_exceeded\""),
        "reply: {reply}"
    );
    assert!(
        reply.contains("td-deadline exceeded") && reply.contains("event(s)"),
        "diagnostics should name sim time and events: {reply}"
    );
    let s = stats(&d.socket);
    assert_eq!(field(&s, "deadline_exceeded"), 1, "stats: {s}");
    // The daemon is unharmed and the cell was not stored.
    let quick = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":99,\"sim_secs\":1}",
    );
    assert!(quick.contains("\"status\":\"ok\""), "quick: {quick}");
}

#[test]
fn shed_queue_full_and_shutdown_drain() {
    let mut d = spawn_daemon("shed", &["--jobs", "1", "--queue-cap", "1"], &[]);

    // Occupy the single worker with an oversized cell; its 2s deadline
    // bounds how long the drain can take (the cell itself needs >3s).
    let busy = request_async(&d.socket, &oversized(1, 2000));
    wait_stats(&d.socket, "worker busy", |s| field(s, "in_flight") == 1);

    // Fill the queue with a priority-2 job.
    let low = request_async(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":11,\"sim_secs\":1,\"priority\":2}",
    );
    wait_stats(&d.socket, "queued job", |s| field(s, "queued") == 1);

    // A priority-5 job sheds it…
    let high = request_async(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":12,\"sim_secs\":1,\"priority\":5}",
    );
    let low_reply = low.recv();
    assert!(
        low_reply.contains("\"status\":\"overloaded\"")
            && low_reply.contains("\"reason\":\"shed\""),
        "shed victim reply: {low_reply}"
    );

    // …and a priority-1 job finds no lower-priority victim: queue_full.
    let rejected = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":13,\"sim_secs\":1,\"priority\":1}",
    );
    assert!(
        rejected.contains("\"reason\":\"queue_full\""),
        "reject reply: {rejected}"
    );

    // In-band shutdown: drains and exits 0.
    let ack = request(&d.socket, "{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"draining\":true"), "ack: {ack}");
    let high_reply = high.recv();
    assert!(
        high_reply.contains("\"reason\":\"draining\""),
        "queued client at drain: {high_reply}"
    );
    let busy_reply = busy.recv();
    assert!(
        busy_reply.contains("\"status\":\"deadline_exceeded\""),
        "in-flight reply: {busy_reply}"
    );
    let status = d.child.wait().expect("wait daemon");
    assert_eq!(status.code(), Some(0), "shutdown drain exits 0");
    // The queued-but-unstarted job was persisted.
    let pending = std::fs::read_to_string(d.store.join("pending.tdq")).unwrap();
    assert_eq!(pending.lines().count(), 1, "pending: {pending:?}");
}

#[test]
fn sigterm_drain_persists_queue_and_restart_replays_it() {
    let store = tmp_dir("drain");
    let socket1 = store.join("s1.sock");
    let mut d = spawn_daemon_at(&store, &socket1, &["--jobs", "1"], &[]);

    // Worker busy on a deadline-bounded oversized cell; two quick jobs
    // queued behind it.
    let busy = request_async(&d.socket, &oversized(1, 2000));
    wait_stats(&d.socket, "worker busy", |s| field(s, "in_flight") == 1);
    let q1 = request_async(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":21,\"sim_secs\":1}",
    );
    let q2 = request_async(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":22,\"sim_secs\":1}",
    );
    wait_stats(&d.socket, "two queued jobs", |s| field(s, "queued") == 2);

    // SIGTERM: graceful drain, exit 130.
    let pid = d.child.id();
    let kill = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
    for pending in [q1, q2] {
        let reply = pending.recv();
        assert!(
            reply.contains("\"reason\":\"draining\""),
            "queued client at drain: {reply}"
        );
    }
    let busy_reply = busy.recv();
    assert!(
        busy_reply.contains("\"status\":\"deadline_exceeded\""),
        "in-flight reply: {busy_reply}"
    );
    let status = d.child.wait().expect("wait daemon");
    assert_eq!(status.code(), Some(130), "signal drain exits 130");
    let pending = std::fs::read_to_string(store.join("pending.tdq")).unwrap();
    assert_eq!(pending.lines().count(), 2, "pending: {pending:?}");

    // Restart on the same store: the pending queue replays as orphan
    // jobs and lands in the store; the same request is then a hit.
    let socket2 = store.join("s2.sock");
    let d2 = spawn_daemon_at(&store, &socket2, &["--jobs", "2"], &[]);
    let s = wait_stats(&d2.socket, "restored queue drained", |s| {
        field(s, "queue_restored") == 2 && field(s, "computed") == 2 && field(s, "in_flight") == 0
    });
    assert!(
        !store.join("pending.tdq").exists(),
        "pending.tdq consumed at startup"
    );
    let hit = request(
        &d2.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":21,\"sim_secs\":1}",
    );
    assert!(hit.contains("\"status\":\"ok\""), "hit: {hit}");
    let s2 = stats(&d2.socket);
    assert_eq!(
        field(&s2, "hits"),
        field(&s, "hits") + 1,
        "restored job should make the request a cache hit: {s2}"
    );
}

#[test]
fn simultaneous_identical_misses_both_succeed() {
    let d = spawn_daemon("dupmiss", &["--jobs", "2"], &[]);
    // `multihop` over 1000 simulated seconds computes for ≈0.5 s in a
    // release build (more in debug). Each connection's lookup runs as soon
    // as its line arrives, so the second lookup misses unless scheduler
    // jitter delays it by a whole compute: the compute must dwarf that
    // jitter, which a cell of a few milliseconds does not.
    let req = "{\"op\":\"simulate\",\"experiment\":\"multihop\",\"seed\":31,\"sim_secs\":1000}";
    // Open both connections and have each answer a ping first, so both
    // are accepted and waiting before either request is sent. Both
    // lookups then miss before either worker finishes, and two workers
    // compute the cell and save the same key at about the same time.
    let mut conns: Vec<_> = (0..2)
        .map(|_| {
            let stream = UnixStream::connect(&d.socket).expect("connect");
            let writer = stream.try_clone().unwrap();
            (writer, BufReader::new(stream))
        })
        .collect();
    for pong in exchange_all(&mut conns, "{\"op\":\"ping\"}") {
        assert!(pong.contains("\"pong\":true"), "{pong}");
    }
    let replies = exchange_all(&mut conns, req);
    let (a, b) = (&replies[0], &replies[1]);
    assert!(a.contains("\"status\":\"ok\""), "first reply: {a}");
    assert_eq!(a, b, "duplicate misses must reply byte-identically");
    let s = stats(&d.socket);
    assert_eq!(field(&s, "misses"), 2, "stats: {s}");
    assert_eq!(field(&s, "computed"), 2, "stats: {s}");
    assert_eq!(field(&s, "failed"), 0, "stats: {s}");
    // The stored cell is intact: the next request is a hit.
    assert_eq!(&request(&d.socket, req), a);
    assert_eq!(field(&stats(&d.socket), "hits"), 1);
}

#[test]
fn unbounded_and_non_utf8_lines_are_bad_requests() {
    let d = spawn_daemon("longline", &["--jobs", "1"], &[]);

    // 1 MiB with no newline: rejected and the connection closed, long
    // before the client has finished sending.
    let stream = UnixStream::connect(&d.socket).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        // The daemon hangs up mid-stream, so this write may fail.
        let _ = writer.write_all(&vec![b'x'; 1 << 20]);
    });
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(
        reply.starts_with("{\"status\":\"bad_request\"") && reply.contains("exceeds"),
        "over-long reply: {reply}"
    );
    // Then the daemon hangs up: EOF, or a reset because it left the
    // rest of the stream unread.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "nothing after the reply"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    sender.join().unwrap();

    // A non-UTF-8 line is rejected, and the connection stays usable.
    let stream = UnixStream::connect(&d.socket).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"{\"op\":\"ping\xff\"}\n{\"op\":\"ping\"}\n")
        .unwrap();
    writer.flush().unwrap();
    let mut bad = String::new();
    reader.read_line(&mut bad).unwrap();
    assert!(bad.contains("not UTF-8"), "non-UTF-8 reply: {bad}");
    let mut pong = String::new();
    reader.read_line(&mut pong).unwrap();
    assert!(pong.contains("\"pong\":true"), "same connection: {pong}");

    // The daemon still serves fresh connections and counted both.
    assert!(request(&d.socket, "{\"op\":\"ping\"}").contains("\"pong\":true"));
    let s = stats(&d.socket);
    assert_eq!(field(&s, "bad_requests"), 2, "stats: {s}");
}

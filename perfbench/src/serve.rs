//! The td-serve side of the benchmark: start and stop the real `td-serve`
//! daemon, drive one closed-loop session of two clients against it, and
//! time the serve layer's public calls on the session's own inputs.

use crate::out::{fnv_hex, Obj};
use crate::sim::median;
use crate::spans;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use td_engine::telemetry::{self, Telemetry};
use td_engine::SimRng;
use td_experiments::registry::{config_hash, find, Profile};
use td_serve::proto::parse_request;
use td_serve::store::{encode_cell_file, CellData, CellKey, Store};

/// Every simulate request of the session asks for this cell family: the
/// fig8 experiment, quick profile, 60 simulated seconds (≈9 ms of compute).
const EXPERIMENT: &str = "fig8";
const SIM_SECS: u64 = 60;
/// Cells computed during set-up; hits are drawn from these.
const WARM_CELLS: usize = 32;
/// Requests client A sends per session. One request in every block of ten
/// is a miss, so a session has exactly `SESSION_REQUESTS / 10` misses from
/// A: enough for a p90 with ten samples beyond it.
const SESSION_REQUESTS: usize = 1000;
const MISS_EVERY: usize = 10;

fn simulate_line(seed: u64) -> String {
    format!(
        "{{\"op\":\"simulate\",\"experiment\":\"{EXPERIMENT}\",\"seed\":{seed},\
         \"profile\":\"quick\",\"sim_secs\":{SIM_SECS}}}"
    )
}

fn cell_key(seed: u64) -> CellKey {
    CellKey {
        config_hash: config_hash(
            EXPERIMENT,
            Profile::Quick,
            &[("sim_secs".to_owned(), SIM_SECS)],
        ),
        seed,
    }
}

/// Compute one session cell in this process, exactly as a daemon worker
/// does: returns the cell data and the engine counters of the run.
pub fn compute_cell(seed: u64) -> (CellData, Telemetry) {
    let entry = find(EXPERIMENT).expect("fig8 is registered");
    telemetry::reset();
    let report = {
        let _secs = td_experiments::override_sim_secs(SIM_SECS);
        entry.run(seed, Profile::Quick)
    };
    let events = telemetry::snapshot();
    let data = CellData {
        experiment: EXPERIMENT.to_owned(),
        profile: Profile::Quick,
        report,
    };
    (data, events)
}

/// The `payload_fnv` field an `ok` reply for this cell must carry.
fn payload_fnv(seed: u64, data: &CellData) -> String {
    fnv_hex(&encode_cell_file(cell_key(seed), data))
}

/// Seeds of the warm set and of fresh misses, all drawn from the
/// workload seed and pairwise distinct.
pub struct Seeds {
    pub warm: Vec<u64>,
    miss_base: u64,
    next_miss: [u64; 2],
}

impl Seeds {
    pub fn new(workload_seed: u64) -> Seeds {
        let mut rng = SimRng::new(workload_seed).derive(0x5EED);
        let warm_base = rng.next_below(1 << 40);
        let miss_base = (1 << 41) + rng.next_below(1 << 40);
        Seeds {
            warm: (0..WARM_CELLS as u64).map(|i| warm_base + i).collect(),
            miss_base,
            next_miss: [0, 0],
        }
    }
}

/// A running daemon; dropped without [`Daemon::stop`], it is killed.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Start `td-serve serve` with one worker on a fresh store in `dir`.
    /// Returns it, once it has answered a ping, with the seconds from spawn
    /// until its socket accepted a connection. The ping itself is not
    /// timed: when it is answered depends on where the accept loop's idle
    /// sleep happens to be, which `connect_hit_p50_ms` measures.
    pub fn start(bin: &Path, dir: &Path) -> io::Result<(Daemon, f64)> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let socket = dir.join("s.sock");
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--store")
            .arg(dir.join("store"))
            .arg("--socket")
            .arg(&socket)
            .args(["--jobs", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let daemon = Daemon {
            child: Some(child),
            socket,
        };
        let (mut conn, ready_s) = loop {
            if let Ok(conn) = Conn::open(&daemon.socket) {
                break (conn, t0.elapsed().as_secs_f64());
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err(io::Error::other("td-serve did not listen within 30 s"));
            }
            std::thread::sleep(Duration::from_micros(50));
        };
        let reply = conn.ask("{\"op\":\"ping\"}")?;
        if reply != "{\"status\":\"ok\",\"pong\":true}" {
            return Err(io::Error::other(format!("bad ping reply {reply}")));
        }
        Ok((daemon, ready_s))
    }

    fn connect(&self) -> io::Result<Conn> {
        Conn::open(&self.socket)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Reset the daemon's peak-RSS watermark to its current RSS.
    fn reset_peak_rss(&self) {
        let _ = std::fs::write(format!("/proc/{}/clear_refs", self.pid()), "5");
    }

    /// Peak resident memory of the daemon process in KiB since the last
    /// reset.
    fn peak_rss_kib(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0)
    }

    /// Ask the daemon to drain and wait for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        let reply = self.connect()?.ask("{\"op\":\"shutdown\"}")?;
        let status = self.child.take().expect("daemon running").wait()?;
        if reply != "{\"status\":\"ok\",\"draining\":true}" || !status.success() {
            return Err(io::Error::other(format!(
                "td-serve shutdown: reply {reply}, exit {status}"
            )));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection: a request line out, a reply line back.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn ask(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::other("td-serve closed the connection"));
        }
        Ok(reply.trim_end().to_owned())
    }
}

/// The integer value of `"key":N` in a flat JSON reply.
fn field(reply: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    reply
        .find(&pat)
        .map(|i| &reply[i + pat.len()..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0)
}

/// What one closed-loop session measured.
#[derive(Default)]
pub struct Session {
    /// Host seconds client A took for its fixed request count.
    pub wall_s: f64,
    /// Seconds until both clients finished.
    pub elapsed_s: f64,
    pub completed: u64,
    pub hit_a_ms: Vec<f64>,
    pub hit_b_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    /// `(seed, reply)` of every miss, checked after the session.
    pub misses: Vec<(u64, String)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub stats_hits: u64,
    pub stats_misses: u64,
    /// Request lines sent, for the parse probe.
    pub lines: Vec<String>,
    /// Events the daemon dispatched for this session's misses.
    pub miss_events: u64,
    /// Host milliseconds each miss took to compute in this process.
    pub miss_compute_ms: Vec<f64>,
    /// The daemon's peak RSS during the session.
    pub daemon_rss_kib: u64,
}

struct ClientLog {
    hits_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    misses: Vec<(u64, String)>,
    attempted: u64,
    failures: Vec<String>,
    lines: Vec<String>,
}

/// Client loop shared by both clients. `reuse` keeps one connection open
/// (client A); otherwise every request opens its own, timed from before
/// the connect (client B). Stops after `limit` requests or when `stop`
/// is raised.
#[allow(clippy::too_many_arguments)]
fn client(
    daemon: &Daemon,
    warm: &[(u64, String)],
    fresh: &mut dyn FnMut() -> u64,
    rng: &mut SimRng,
    reuse: bool,
    limit: usize,
    stop: &AtomicBool,
    traced: Option<usize>,
) -> ClientLog {
    let mut log = ClientLog {
        hits_ms: Vec::new(),
        miss_ms: Vec::new(),
        misses: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        lines: Vec::new(),
    };
    let mut kept: Option<Conn> = None;
    let mut miss_slot = 0;
    for i in 0..limit {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if i % MISS_EVERY == 0 {
            miss_slot = rng.next_below(MISS_EVERY as u64) as usize;
        }
        let miss = i % MISS_EVERY == miss_slot;
        let (seed, expect) = if miss {
            (fresh(), None)
        } else {
            let (s, reply) = &warm[rng.next_below(warm.len() as u64) as usize];
            (*s, Some(reply.as_str()))
        };
        let line = simulate_line(seed);
        log.attempted += 1;
        let span = traced.map(|p| spans::begin("serve.request", Some(p)));
        let t0 = Instant::now();
        let reply = if reuse {
            if kept.is_none() {
                kept = daemon.connect().ok();
            }
            kept.as_mut().map(|c| c.ask(&line))
        } else {
            daemon.connect().ok().map(|mut c| c.ask(&line))
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(id) = span {
            spans::end(id);
        }
        let reply = match reply {
            Some(Ok(r)) => r,
            Some(Err(e)) => format!("io error: {e}"),
            None => "io error: connect failed".to_owned(),
        };
        match expect {
            _ if !reply.starts_with("{\"status\":\"ok\"") => {
                log.failures.push(format!("seed {seed}: {reply}"));
            }
            Some(computed) if reply != computed => log.failures.push(format!(
                "seed {seed}: hit reply differs from the reply that computed it"
            )),
            Some(_) => log.hits_ms.push(ms),
            None => {
                log.miss_ms.push(ms);
                log.misses.push((seed, reply));
            }
        }
        log.lines.push(line);
    }
    log
}

/// Run one session: client A sends [`SESSION_REQUESTS`] requests on one
/// kept-open connection while client B sends requests on a new connection
/// each, until A is done. Both are closed loops.
pub fn session(
    daemon: &Daemon,
    warm: &[(u64, String)],
    seeds: &mut Seeds,
    rng_a: &mut SimRng,
    rng_b: &mut SimRng,
    traced: Option<usize>,
) -> io::Result<Session> {
    let mut admin = daemon.connect()?;
    let before = admin.ask("{\"op\":\"stats\"}")?;
    daemon.reset_peak_rss();
    let stop = AtomicBool::new(false);
    let miss_base = seeds.miss_base;
    let [mut ka, mut kb] = seeds.next_miss;
    let t0 = Instant::now();
    let (a, b, wall) = std::thread::scope(|s| {
        let stop = &stop;
        let kb = &mut kb;
        let b = s.spawn(move || {
            let mut fresh = || {
                *kb += 1;
                miss_base + 2 * (*kb - 1) + 1
            };
            client(
                daemon,
                warm,
                &mut fresh,
                rng_b,
                false,
                usize::MAX,
                stop,
                traced,
            )
        });
        let mut fresh = || {
            ka += 1;
            miss_base + 2 * (ka - 1)
        };
        let a = client(
            daemon,
            warm,
            &mut fresh,
            rng_a,
            true,
            SESSION_REQUESTS,
            stop,
            traced,
        );
        let wall = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let b = b.join().expect("client B panicked");
        (a, b, wall)
    });
    seeds.next_miss = [ka, kb];
    let elapsed = t0.elapsed().as_secs_f64();
    let daemon_rss_kib = daemon.peak_rss_kib();
    let after = admin.ask("{\"op\":\"stats\"}")?;
    let mut out = Session {
        wall_s: wall,
        elapsed_s: elapsed,
        completed: (a.hits_ms.len() + a.miss_ms.len() + b.hits_ms.len() + b.miss_ms.len()) as u64,
        hit_a_ms: a.hits_ms,
        hit_b_ms: b.hits_ms,
        stats_hits: field(&after, "hits") - field(&before, "hits"),
        stats_misses: field(&after, "misses") - field(&before, "misses"),
        attempted: a.attempted + b.attempted,
        daemon_rss_kib,
        ..Session::default()
    };
    out.miss_ms = a.miss_ms;
    out.miss_ms.extend(b.miss_ms);
    out.misses = a.misses;
    out.misses.extend(b.misses);
    out.failures = a.failures;
    out.failures.extend(b.failures);
    out.lines = a.lines;
    out.lines.extend(b.lines);
    Ok(out)
}

/// Recompute every miss of `s` in this process: each reply must carry the
/// payload fingerprint of the cell computed here, and the events the
/// cells dispatched are summed into `s.miss_events`.
pub fn check_misses(s: &mut Session) {
    let mut events = 0;
    for (seed, reply) in &s.misses {
        let ((data, t), secs) = spans::timed("serve.compute", None, || compute_cell(*seed));
        s.miss_compute_ms.push(secs * 1e3);
        events += t.events_dispatched;
        let want = format!("\"payload_fnv\":\"{}\"", payload_fnv(*seed, &data));
        if !reply.contains(&want) {
            s.failures.push(format!(
                "seed {seed}: miss reply payload differs from an in-process run"
            ));
        }
    }
    s.miss_events = events;
}

/// Compute the warm set through the daemon; returns each seed with the
/// reply that computed it.
pub fn warm_up(daemon: &Daemon, seeds: &Seeds) -> io::Result<Vec<(u64, String)>> {
    let mut conn = daemon.connect()?;
    seeds
        .warm
        .iter()
        .map(|&seed| {
            let reply = conn.ask(&simulate_line(seed))?;
            if !reply.starts_with("{\"status\":\"ok\"") {
                return Err(io::Error::other(format!("warm cell {seed}: {reply}")));
            }
            Ok((seed, reply))
        })
        .collect()
}

/// Nearest-rank 90th percentile, or NaN (written as null) when fewer than
/// ten samples lie beyond it.
fn p90(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * 9).div_ceil(10).max(1);
    if v.len() - rank.min(v.len()) < 10 {
        return f64::NAN;
    }
    v[rank - 1]
}

/// Time the serve layer's public calls on the session's inputs: parsing
/// its request lines, loading and saving one of its warm cells. Compute
/// and queueing times come from the in-process re-runs of its misses.
pub fn layer_probes(
    o: &mut Obj,
    s: &Session,
    warm_seed: u64,
    store_dir: &Path,
    scratch: &Path,
) -> io::Result<()> {
    const PARSE_ROUNDS: usize = 20;
    let (_, parse_s) = spans::timed("serve.parse", None, || {
        for _ in 0..PARSE_ROUNDS {
            for line in &s.lines {
                std::hint::black_box(parse_request(std::hint::black_box(line)).ok());
            }
        }
    });
    let parsed = (PARSE_ROUNDS * s.lines.len()).max(1);
    o.num("serve.parse_ns", parse_s * 1e9 / parsed as f64);

    let store = Store::open(store_dir)?;
    let key = cell_key(warm_seed);
    let loads: Vec<f64> = (0..50)
        .map(|_| {
            let (r, t) = spans::timed("serve.store_load", None, || store.load(key));
            std::hint::black_box(r.ok());
            t * 1e6
        })
        .collect();
    o.num("serve.store_load_us", median(loads));

    let (data, _) = compute_cell(warm_seed);
    let _ = std::fs::remove_dir_all(scratch);
    let scratch_store = Store::open(scratch)?;
    let mut saves = Vec::new();
    for i in 0..10 {
        let key = cell_key(warm_seed + i);
        let (r, t) = spans::timed("serve.store_save", None, || scratch_store.save(key, &data));
        r?;
        saves.push(t * 1e3);
    }
    let save_ms = median(saves);
    o.num("serve.store_save_ms", save_ms);
    let _ = std::fs::remove_dir_all(scratch);

    o.num("miss_p90_ms", p90(&s.miss_ms));
    o.num("serve.compute_ms", median(s.miss_compute_ms.clone()));
    let waits = s
        .miss_ms
        .iter()
        .zip(&s.miss_compute_ms)
        .map(|(latency, compute)| latency - compute)
        .collect();
    o.num("serve.miss_wait_ms", median(waits) - save_ms);
    o.num(
        "serve.connect_overhead_ms",
        median(s.hit_b_ms.clone()) - median(s.hit_a_ms.clone()),
    );
    let answered = (s.stats_hits + s.stats_misses).max(1);
    o.num("serve.hit_ratio", s.stats_hits as f64 / answered as f64);
    Ok(())
}

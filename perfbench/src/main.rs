//! `perfbench` — one part of one benchmark workload run against the
//! repository's crates, printing its raw measurements as one JSON object
//! on the last line of stdout. `run.py` builds this binary, runs its parts
//! (each pass in a fresh process, so no pass inherits another's heap), and
//! turns the raw samples into the benchmark's metrics.
//!
//! ```text
//! perfbench --workload repro-full|scale100k|serve-mixed --part setup|pass|serve|trace
//!           --seed N --seconds S --serve-bin PATH --out DIR
//! ```
//!
//! * `setup` — set-up samples (`setup_s`);
//! * `pass` — one pass over a simulation workload's cells;
//! * `serve` — serve sessions, as many as fit in `--seconds`;
//! * `trace` — the traced run: spans and per-layer metrics.

mod alloc;
mod out;
mod serve;
mod sim;
mod spans;

use out::Obj;
use serve::{Daemon, Seeds, Session};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use td_engine::{SimDuration, SimRng};
use td_experiments::registry::registry;

/// Daemon starts per `serve-mixed` set-up sample list.
const SERVE_SETUPS: usize = 21;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    part: String,
    seed: u64,
    seconds: f64,
    serve_bin: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        part: String::new(),
        seed: 1,
        seconds: 30.0,
        serve_bin: PathBuf::from("td-serve"),
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--part" => args.part = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let serving = args.workload == "serve-mixed";
    match (args.workload.as_str(), args.part.as_str()) {
        ("repro-full" | "scale100k" | "serve-mixed", "setup" | "serve" | "trace") => Ok(args),
        ("repro-full" | "scale100k", "pass") if !serving => Ok(args),
        (w, p) => Err(format!("unknown workload/part {w:?}/{p:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut o = Obj::default();
    o.str("workload", &args.workload);
    o.str("part", &args.part);
    o.int("sim_seed", sim::SIM_SEED);
    let profile = if args.workload == "serve-mixed" {
        "quick"
    } else {
        "full"
    };
    o.str("profile", profile);
    let result = match args.part.as_str() {
        "setup" => setup(&args, &mut o),
        "pass" => one_pass(&args, &mut o),
        "serve" => serve_part(&args, &mut o),
        _ => trace(&args, &mut o),
    };
    match result {
        Ok(()) => {
            println!("{}", o.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} {} failed: {e}", args.workload, args.part);
            ExitCode::FAILURE
        }
    }
}

/// Operations attempted and failures seen in a run.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failures: Vec<String>,
}

impl Ops {
    fn pass(&mut self, p: &sim::Pass) {
        self.attempted += p.cells;
        self.failures.extend(p.failures.iter().cloned());
    }

    fn session(&mut self, s: &Session) {
        self.attempted += s.attempted;
        self.failures.extend(s.failures.iter().cloned());
    }
}

/// A daemon with its warm set computed, ready for sessions.
struct Serving {
    daemon: Daemon,
    warm: Vec<(u64, String)>,
    seeds: Seeds,
    rng_a: SimRng,
    rng_b: SimRng,
    dir: PathBuf,
}

impl Serving {
    fn start(args: &Args, ops: &mut Ops) -> std::io::Result<Serving> {
        let dir = args.out.join(format!("serve-{}", std::process::id()));
        let (daemon, _) = Daemon::start(&args.serve_bin, &dir)?;
        let seeds = Seeds::new(args.seed);
        let warm = serve::warm_up(&daemon, &seeds)?;
        ops.attempted += warm.len() as u64;
        let rng = SimRng::new(args.seed);
        Ok(Serving {
            daemon,
            warm,
            seeds,
            rng_a: rng.derive(0xA),
            rng_b: rng.derive(0xB),
            dir,
        })
    }

    /// One session whose misses are then checked against in-process runs.
    fn session(&mut self, traced: Option<usize>, ops: &mut Ops) -> std::io::Result<Session> {
        let mut s = serve::session(
            &self.daemon,
            &self.warm,
            &mut self.seeds,
            &mut self.rng_a,
            &mut self.rng_b,
            traced,
        )?;
        serve::check_misses(&mut s);
        ops.session(&s);
        Ok(s)
    }

    /// FNV-1a over the replies that computed the warm set.
    fn digest(&self) -> String {
        let replies: Vec<&str> = self.warm.iter().map(|(_, r)| r.as_str()).collect();
        out::fnv_hex(replies.join("\n").as_bytes())
    }

    fn stop(self) -> std::io::Result<()> {
        self.daemon.stop()?;
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

/// Latency samples per session, and each session's throughput.
fn serve_samples(o: &mut Obj, sessions: &[Session]) {
    let rows = |f: fn(&Session) -> &Vec<f64>| -> Vec<Vec<f64>> {
        sessions.iter().map(|s| f(s).clone()).collect()
    };
    o.rows("hit_a_ms", &rows(|s| &s.hit_a_ms));
    o.rows("hit_b_ms", &rows(|s| &s.hit_b_ms));
    o.rows("miss_ms", &rows(|s| &s.miss_ms));
    let each = |f: fn(&Session) -> f64| -> Vec<f64> { sessions.iter().map(f).collect() };
    o.nums("session_completed", &each(|s| s.completed as f64));
    o.nums("session_elapsed_s", &each(|s| s.elapsed_s));
    o.nums("daemon_rss_kib", &each(|s| s.daemon_rss_kib as f64));
}

fn finish(o: &mut Obj, ops: Ops, digest: &str) {
    o.str("digest", digest);
    o.int("attempted", ops.attempted);
    o.strs("failures", &ops.failures);
}

/// Set-up samples, in seconds.
fn setup(args: &Args, o: &mut Obj) -> std::io::Result<()> {
    let samples = match args.workload.as_str() {
        "repro-full" => sim::repro_setup_samples(),
        "scale100k" => sim::scale_setup_samples(),
        _ => {
            let mut samples = Vec::new();
            for i in 0..SERVE_SETUPS {
                let dir = args.out.join(format!("setup-{}-{i}", std::process::id()));
                let (daemon, s) = Daemon::start(&args.serve_bin, &dir)?;
                daemon.stop()?;
                let _ = std::fs::remove_dir_all(&dir);
                samples.push(s);
            }
            samples
        }
    };
    o.nums("setup_s", &samples);
    Ok(())
}

/// One pass over a simulation workload's cells.
fn one_pass(args: &Args, o: &mut Obj) -> std::io::Result<()> {
    let p = sim::pass(&sim::cells(&args.workload));
    o.num("wall_s", p.wall_s);
    o.int("events", p.events_dispatched);
    o.int("rss_kib", p.rss_kib);
    let mut ops = Ops::default();
    ops.pass(&p);
    finish(o, ops, &p.digest);
    Ok(())
}

/// Serve sessions while the next one still fits in `--seconds`: all of
/// `serve-mixed`, or the serve probe of a simulation workload.
fn serve_part(args: &Args, o: &mut Obj) -> std::io::Result<()> {
    let mut ops = Ops::default();
    let mut serving = Serving::start(args, &mut ops)?;
    let t0 = Instant::now();
    let mut sessions = Vec::new();
    loop {
        let started = Instant::now();
        sessions.push(serving.session(None, &mut ops)?);
        let spent = t0.elapsed().as_secs_f64() + started.elapsed().as_secs_f64();
        if spent > args.seconds {
            break;
        }
    }
    let digest = serving.digest();
    serving.stop()?;
    o.nums(
        "wall_s",
        &sessions.iter().map(|s| s.wall_s).collect::<Vec<_>>(),
    );
    o.nums(
        "events",
        &sessions
            .iter()
            .map(|s| s.miss_events as f64)
            .collect::<Vec<_>>(),
    );
    serve_samples(o, &sessions);
    finish(o, ops, &digest);
    Ok(())
}

/// The traced run of any workload: per-layer metrics, spans written out.
fn trace(args: &Args, o: &mut Obj) -> std::io::Result<()> {
    let mut ops = Ops::default();
    let mut layers = Obj::default();
    let digest = if args.workload == "serve-mixed" {
        trace_serve(args, &mut layers, &mut ops)?
    } else {
        trace_sim(args, &mut layers, &mut ops)?
    };
    layers.num("failed_ratio", failed_ratio(&ops));
    o.obj("layers", layers);
    finish(o, ops, &digest);
    std::fs::create_dir_all(&args.out)?;
    let path = args
        .out
        .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, spans::to_json())?;
    o.str("spans_file", &path.to_string_lossy());
    Ok(())
}

fn trace_sim(args: &Args, layers: &mut Obj, ops: &mut Ops) -> std::io::Result<String> {
    let entries = sim::cells(&args.workload);
    let scale = args.workload == "scale100k";
    let untraced = sim::pass(&entries);
    ops.pass(&untraced);
    let (traced, batch) = sim::traced_pass(&entries);
    ops.pass(&traced);
    if traced.digest != untraced.digest {
        ops.failures.push(format!(
            "report digest changed between passes: {} then {}",
            untraced.digest, traced.digest
        ));
    }
    sim::engine_counts(
        layers,
        untraced.events_dispatched,
        untraced.events_scheduled,
        untraced.peak_queue_depth,
        args.seed,
    );
    if scale {
        sim::scale_phases(layers);
    }
    sim::fig45_phases(layers, !scale);
    for e in registry() {
        let name = format!("experiments.cell.{}", e.id);
        layers.num(
            &format!("experiments.cell_s.{}", e.id),
            spans::named_seconds(&name),
        );
    }
    layers.num(
        "experiments.runner_overhead_s",
        spans::seconds(batch) - spans::children_seconds(batch),
    );
    layers.num("trace.overhead_ratio", traced.wall_s / untraced.wall_s);
    serve_layers(args, layers, ops, false)?;
    Ok(untraced.digest)
}

fn failed_ratio(ops: &Ops) -> f64 {
    ops.failures.len() as f64 / ops.attempted.max(1) as f64
}

/// The `serve.*` metrics from one session. For `serve-mixed`, sessions
/// alternate without and with a span around every request, twice each, for
/// the tracing overhead. Returns the digest of the warm set's replies.
fn serve_layers(
    args: &Args,
    layers: &mut Obj,
    ops: &mut Ops,
    traced: bool,
) -> std::io::Result<String> {
    let mut serving = Serving::start(args, ops)?;
    let s = serving.session(None, ops)?;
    if traced {
        let (mut plain, mut spanned) = (vec![s.wall_s], Vec::new());
        for round in 0..3 {
            if round % 2 == 0 {
                let parent = spans::begin("serve.session", None);
                spanned.push(serving.session(Some(parent), ops)?.wall_s);
                spans::end(parent);
            } else {
                plain.push(serving.session(None, ops)?.wall_s);
            }
        }
        layers.num(
            "trace.overhead_ratio",
            sim::median(spanned) / sim::median(plain),
        );
    }
    serve::layer_probes(
        layers,
        &s,
        serving.warm[0].0,
        &serving.dir.join("store"),
        &serving.dir.join("probe-store"),
    )?;
    let digest = serving.digest();
    serving.stop()?;
    Ok(digest)
}

fn trace_serve(args: &Args, layers: &mut Obj, ops: &mut Ops) -> std::io::Result<String> {
    let seeds = Seeds::new(args.seed);
    let (mut dispatched, mut scheduled, mut peak) = (0, 0, 0);
    for &seed in &seeds.warm {
        let (_, t) = serve::compute_cell(seed);
        dispatched += t.events_dispatched;
        scheduled += t.events_scheduled;
        peak = peak.max(t.peak_queue_depth);
    }
    sim::engine_counts(layers, dispatched, scheduled, peak, args.seed);
    let mut sc =
        td_experiments::fig89::scenario(seeds.warm[0], 60, SimDuration::from_millis(10), 30, 25);
    sc.stream = true;
    sc.record_trace = false;
    sim::scenario_phases(layers, &sc);
    sim::fig45_phases(layers, false);
    for e in registry() {
        layers.num(&format!("experiments.cell_s.{}", e.id), 0.0);
    }
    layers.num("experiments.runner_overhead_s", 0.0);
    serve_layers(args, layers, ops, true)
}

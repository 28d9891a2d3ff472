//! The simulation side of the benchmark: whole-workload passes through the
//! experiment runner, and phase-by-phase re-runs of one representative
//! world through the layers' public functions.

use crate::alloc::allocations;
use crate::out::{fnv_hex, Obj};
use crate::spans;
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use td_analysis::plot::Plot;
use td_analysis::{csv, StreamAnalyzer, StreamSpec, SvgPlot};
use td_core::TcpSender;
use td_engine::{EventQueue, SimDuration, SimRng, SimTime};
use td_experiments::registry::{find, registry, Entry, Profile};
use td_experiments::runner::{run_batch, RunnerConfig};
use td_experiments::scale::{build_chain, ScaleParams};
use td_experiments::{Report, Run, Scenario};
use td_net::{CapturePoint, EndpointId, ShardedWorld, TraceObserver, World};

/// Simulation seed of both simulation workloads: the paper's canonical
/// seed, at which every registry row is in band.
pub const SIM_SEED: u64 = 1;

/// One pass over a workload's cells.
pub struct Pass {
    pub wall_s: f64,
    pub events_dispatched: u64,
    pub events_scheduled: u64,
    pub peak_queue_depth: usize,
    pub rss_kib: u64,
    /// FNV-1a over the rendered reports, in registry order.
    pub digest: String,
    pub cells: u64,
    pub failures: Vec<String>,
}

/// The cells of a simulation workload: every registry entry, in registry
/// order, for `repro-full`; the hidden 100k-connection rung for
/// `scale100k`.
pub fn cells(workload: &str) -> Vec<Entry> {
    match workload {
        "scale100k" => vec![find("scale100k").expect("scale100k is registered")],
        _ => registry(),
    }
}

/// Run `entries` once through the experiment runner: full profile, one
/// job, the canonical seed.
pub fn pass(entries: &[Entry]) -> Pass {
    let cfg = RunnerConfig {
        jobs: 1,
        profile: Profile::Full,
        master_seed: SIM_SEED,
        replicates: 1,
        progress: false,
        interrupt: None,
    };
    let t0 = Instant::now();
    let batch = run_batch(entries, &cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    // The runner resets the peak-RSS watermark before each cell, so at one
    // job each cell's reading is its own peak; the workload's is the largest.
    let rss_kib = batch
        .results
        .iter()
        .map(|r| r.timing.peak_rss_kib)
        .max()
        .unwrap_or(0);

    let mut failures = Vec::new();
    let mut rendered: Vec<(usize, String)> = Vec::new();
    let order: Vec<&str> = registry().iter().map(|e| e.id).collect();
    for r in &batch.results {
        if let Some(msg) = &r.panic {
            failures.push(format!("{}: panicked: {msg}", r.id));
        }
        if r.audit.total > 0 {
            failures.push(format!(
                "{}: {} invariant violation(s)",
                r.id, r.audit.total
            ));
        }
        if !r.report.all_ok() {
            failures.push(format!("{}: out of band: {:?}", r.id, r.report.failures()));
        }
        if let Some(d) = r
            .report
            .diagnostics
            .iter()
            .find(|d| d.to_lowercase().contains("stall"))
        {
            failures.push(format!("{}: stall: {d}", r.id));
        }
        let rank = order
            .iter()
            .position(|&id| id == r.id)
            .unwrap_or(order.len());
        rendered.push((rank, r.report.to_string()));
    }
    rendered.sort();
    let text: String = rendered.into_iter().map(|(_, s)| s).collect();
    Pass {
        wall_s,
        events_dispatched: batch
            .results
            .iter()
            .map(|r| r.timing.events_dispatched)
            .sum(),
        events_scheduled: batch
            .results
            .iter()
            .map(|r| r.timing.events_scheduled)
            .sum(),
        peak_queue_depth: batch
            .results
            .iter()
            .map(|r| r.timing.peak_queue_depth)
            .max()
            .unwrap_or(0),
        rss_kib,
        digest: fnv_hex(text.as_bytes()),
        cells: batch.results.len() as u64,
        failures,
    }
}

static TRACED_IDS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
static BATCH_SPAN: AtomicUsize = AtomicUsize::new(usize::MAX);

fn traced_cell(i: usize, seed: u64, profile: Profile) -> Report {
    let id = TRACED_IDS.lock().expect("traced ids poisoned")[i];
    let entry = find(id).expect("traced id is registered");
    let span = spans::begin(
        &format!("experiments.cell.{id}"),
        Some(BATCH_SPAN.load(Ordering::SeqCst)),
    );
    let report = entry.run(seed, profile);
    spans::end(span);
    report
}

macro_rules! wrappers {
    ($($i:literal)*) => {
        const WRAPPERS: &[fn(u64, Profile) -> Report] = &[$(|s, p| traced_cell($i, s, p)),*];
    };
}
wrappers!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31);

/// [`pass`] with a span around the batch and one around each cell's
/// `Entry::run`. Returns the pass and the batch span's id.
pub fn traced_pass(entries: &[Entry]) -> (Pass, usize) {
    assert!(
        entries.len() <= WRAPPERS.len(),
        "more cells than span wrappers"
    );
    *TRACED_IDS.lock().expect("traced ids poisoned") = entries.iter().map(|e| e.id).collect();
    let wrapped: Vec<Entry> = entries
        .iter()
        .zip(WRAPPERS)
        .map(|(e, &f)| Entry::new(e.id, e.about, f))
        .collect();
    let batch = spans::begin("experiments.batch", None);
    BATCH_SPAN.store(batch, Ordering::SeqCst);
    let p = pass(&wrapped);
    spans::end(batch);
    (p, batch)
}

/// 31 builds of the `scale` cell's 10k-connection world, up to its first
/// event: the one cell of `repro-full` whose set-up is not negligible.
pub fn repro_setup_samples() -> Vec<f64> {
    let p = ScaleParams::for_profile(Profile::Full);
    (0..31).map(|_| build_seconds(&p, 1)).collect()
}

/// Seconds to build the chain world of `p` under `shards` shards.
fn build_seconds(p: &ScaleParams, shards: u32) -> f64 {
    let t0 = Instant::now();
    let built = build_scale(p, shards);
    let s = t0.elapsed().as_secs_f64();
    drop(black_box(built));
    s
}

fn scale_params() -> ScaleParams {
    ScaleParams::rung_100k(Profile::Full)
}

fn build_scale(p: &ScaleParams, shards: u32) -> (ShardedWorld, td_experiments::scale::ScaleMap) {
    let map = RefCell::new(None);
    let sw = ShardedWorld::build(SIM_SEED, shards, |w| {
        let m = build_chain(w, SIM_SEED, p);
        map.borrow_mut().get_or_insert(m);
    });
    (sw, map.into_inner().expect("builder ran"))
}

/// 5 builds of the 100k-connection world (topology, routes and attach,
/// up to the first dispatched event), in seconds.
pub fn scale_setup_samples() -> Vec<f64> {
    let p = scale_params();
    (0..5).map(|_| build_seconds(&p, 1)).collect()
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Engine counts of a set of cells, as per-layer metrics.
pub fn engine_counts(o: &mut Obj, dispatched: u64, scheduled: u64, peak: usize, seed: u64) {
    o.int("engine.events_dispatched", dispatched);
    o.int("engine.events_scheduled", scheduled);
    o.int("engine.peak_queue_depth", peak as u64);
    o.num(
        "engine.undispatched_ratio",
        1.0 - dispatched as f64 / scheduled.max(1) as f64,
    );
    o.num("engine.queue_hold_ns", queue_hold_ns(peak, seed));
}

/// Hold model on a bare `EventQueue`: fill it to `depth`, then time
/// "pop the earliest, push one at a random later time" operations.
/// Median ns per operation over 5 batches.
fn queue_hold_ns(depth: usize, seed: u64) -> f64 {
    const MEAN_GAP_NS: u64 = 1_000_000;
    const OPS: usize = 200_000;
    let depth = depth.max(1);
    let mut rng = SimRng::new(seed).derive(0x401D);
    let mut q: EventQueue<u32> = EventQueue::with_capacity(depth);
    for i in 0..depth {
        q.schedule_in(
            SimDuration::from_nanos(rng.next_below(2 * MEAN_GAP_NS)),
            i as u32,
        );
    }
    let mut hold = |n: usize| {
        for _ in 0..n {
            let (_, e) = q.pop().expect("hold keeps the queue at depth");
            q.schedule_in(SimDuration::from_nanos(rng.next_below(2 * MEAN_GAP_NS)), e);
        }
    };
    hold(depth.min(OPS));
    let samples = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            hold(OPS);
            t0.elapsed().as_secs_f64() * 1e9 / OPS as f64
        })
        .collect();
    median(samples)
}

/// Build, route and dispatch one `Scenario` world phase by phase; fills
/// the `net.*` and `core.*` metrics and returns the finished run.
pub fn scenario_phases(o: &mut Obj, sc: &Scenario) -> Run {
    let (mut run, build_s) = spans::timed("net.build", None, || sc.build());
    let (_, routes_s) = spans::timed("net.routes", None, || run.world.compute_routes());
    let a0 = allocations();
    let (_, dispatch_s) = spans::timed("net.dispatch", None, || sc.finish(&mut run));
    let allocs = allocations() - a0;
    let events = run.world.events_dispatched();
    let retransmits = run
        .senders
        .keys()
        .map(|&c| run.sender(c).stats().retransmits)
        .sum();
    net_metrics(o, build_s, routes_s, dispatch_s, allocs, events);
    o.int("net.route_table_bytes", run.world.route_table_bytes());
    o.int("net.trace_records", run.world.trace().len() as u64);
    o.num("net.shard2_dispatch_s", 0.0);
    let audit = run.world.audit();
    core_metrics(o, audit.delivered(), audit.dropped(), retransmits);
    run
}

fn net_metrics(
    o: &mut Obj,
    build_s: f64,
    routes_s: f64,
    dispatch_s: f64,
    allocs: u64,
    events: u64,
) {
    let events = events.max(1) as f64;
    o.num("net.build_s", build_s - routes_s);
    o.num("net.routes_s", routes_s);
    o.num("net.dispatch_ns_per_event", dispatch_s * 1e9 / events);
    o.num("net.allocs_per_event", allocs as f64 / events);
}

fn core_metrics(o: &mut Obj, delivered: u64, dropped: u64, retransmits: u64) {
    o.int("core.packets_delivered", delivered);
    o.int("core.packets_dropped", dropped);
    o.int("core.retransmits", retransmits);
}

/// The 100k-connection world phase by phase: build, a second route
/// computation on a plain world of the same chain, streamed dispatch, and
/// the same dispatch under two shards.
pub fn scale_phases(o: &mut Obj) {
    let p = scale_params();
    let t1 = SimTime::from_secs(p.duration_s);
    let t0 = SimTime::from_secs(p.duration_s / 5);
    let observe = |sw: &mut ShardedWorld, map: &td_experiments::scale::ScaleMap| {
        sw.set_trace_enabled(p.trace);
        let mut spec = StreamSpec::new().queue(map.probe_trunk).canonical_ties();
        if let Some(lh) = map.long_haul {
            spec = spec.utilization(lh, t0, t1);
        }
        sw.add_observers(|_| Box::new(StreamAnalyzer::new(&spec)));
    };

    let ((mut sw, map), build_s) = spans::timed("net.build", None, || build_scale(&p, 1));
    observe(&mut sw, &map);
    let routes_s = {
        let mut w = World::new(SIM_SEED);
        build_chain(&mut w, SIM_SEED, &p);
        spans::timed("net.routes", None, || w.compute_routes()).1
    };
    let a0 = allocations();
    let (_, dispatch_s) = spans::timed("net.dispatch", None, || sw.run_until(t1));
    let allocs = allocations() - a0;
    net_metrics(
        o,
        build_s,
        routes_s,
        dispatch_s,
        allocs,
        sw.events_dispatched(),
    );
    o.int("net.route_table_bytes", sw.route_table_bytes());
    o.int("net.trace_records", sw.trace().len() as u64);
    let retransmits = (0..2 * p.total_conns())
        .filter_map(|i| sw.endpoint(EndpointId(i as u32)))
        .filter_map(|ep| ep.as_any().downcast_ref::<TcpSender>())
        .map(|s| s.stats().retransmits)
        .sum();
    let audit = sw.audit();
    core_metrics(o, audit.delivered(), audit.dropped(), retransmits);
    drop(sw);

    let (mut sw2, map2) = build_scale(&p, 2);
    observe(&mut sw2, &map2);
    let (_, shard2_s) = spans::timed("net.shard2_dispatch", None, || sw2.run_until(t1));
    o.num("net.shard2_dispatch_s", shard2_s);
}

/// The fig45 run (seed 1, 1000 s, buffer 20) through its public phases,
/// then the analysis layer on it: batch extractors, the trace replayed
/// into a `StreamAnalyzer`, and rendering of its figures. `net` selects
/// whether its build and dispatch also fill the `net.*`/`core.*` metrics.
pub fn fig45_phases(o: &mut Obj, net: bool) {
    let sc = td_experiments::fig45::scenario(SIM_SEED, 1000, 20);
    let mut scratch = Obj::default();
    let run = scenario_phases(if net { &mut *o } else { &mut scratch }, &sc);
    let (c1, c2) = (run.fwd[0], run.rev[0]);
    let ((q1, q2, cw1, cw2), batch_s) = spans::timed("analysis.batch", None, || {
        let series = run.queues_and_cwnds(c1, c2);
        black_box(run.clustering12());
        black_box(run.drops());
        series
    });
    o.num("analysis.batch_s", batch_s);

    let spec = StreamSpec::new()
        .queue(run.bottleneck_12)
        .queue(run.bottleneck_21)
        .utilization(run.bottleneck_12, run.t0, run.t1)
        .utilization(run.bottleneck_21, run.t0, run.t1)
        .drops()
        .departures(run.bottleneck_12)
        .cwnd(c1)
        .cwnd(c2);
    let records = run.world.trace().records();
    let (_, stream_s) = spans::timed("analysis.stream", None, || {
        let mut an = StreamAnalyzer::new(&spec);
        for r in records {
            an.on_record(r.t, &r.ev);
        }
        black_box(an.finish());
    });
    o.num(
        "analysis.stream_ns_per_record",
        stream_s * 1e9 / records.len().max(1) as f64,
    );

    let (w0, w1) = (run.t0, run.t0 + SimDuration::from_secs(60));
    let (_, render_s) = spans::timed("analysis.render", None, || {
        black_box(
            Plot::new("queue 1", w0, w1, 100, 10)
                .series(&q1, '#')
                .render(),
        );
        black_box(
            Plot::new("queue 2", w0, w1, 100, 10)
                .series(&q2, '#')
                .render(),
        );
        black_box(
            Plot::new("cwnd", w0, w1, 100, 12)
                .series(&cw1, '1')
                .series(&cw2, '2')
                .render(),
        );
        for (name, s) in [("qlen", &q1), ("qlen", &q2), ("cwnd", &cw1), ("cwnd", &cw2)] {
            black_box(csv::series_csv(name, s));
        }
        black_box(
            SvgPlot::new("queues", w0, w1, 900, 360)
                .series("queue 1", "#1f77b4", &q1)
                .series("queue 2", "#ff7f0e", &q2)
                .render(),
        );
        black_box(
            SvgPlot::new("cwnd", w0, w1, 900, 360)
                .series("TCP-1", "#1f77b4", &cw1)
                .series("TCP-2", "#ff7f0e", &cw2)
                .render(),
        );
        black_box(td_net::to_pcap_bytes(
            run.world.trace(),
            CapturePoint::ChannelWire(run.bottleneck_12),
        ));
    });
    o.num("analysis.render_s", render_s);
}

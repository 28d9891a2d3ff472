//! Simulator-core microbenchmarks: event queue, RNG, and the end-to-end
//! event-processing rate of a saturated dumbbell.
//!
//! Besides the human-readable table, the run emits a machine-readable
//! `BENCH_engine.json` (override the path with `TD_BENCH_JSON`; note that
//! `cargo bench` runs this binary with its cwd at the *package* root,
//! `crates/bench/`, so pass an absolute path to land elsewhere) so the
//! repository accumulates a perf trajectory; CI uploads it as an
//! artifact.

use std::hint::black_box;
use td_bench::Harness;
use td_engine::{EventQueue, SimDuration, SimRng, SimTime};
use td_experiments::{ConnSpec, Scenario};

/// Interleaved schedule/pop churn — the queue's steady-state gait.
fn event_queue_churn(c: &mut Harness) {
    c.bench_function("engine/event-queue push-pop 10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                let t = SimTime::from_nanos((i * 2_654_435_761) % 1_000_000_000);
                q.schedule_at(t.max(q.now()), i);
                if i % 3 == 0 {
                    black_box(q.pop());
                }
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        });
    });
}

/// Bulk schedule, cancel half, drain — the shape of a mass timer sweep.
fn event_queue_cancel_heavy(c: &mut Harness) {
    c.bench_function("engine/event-queue cancel-heavy 10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let ids: Vec<_> = (0..10_000u64)
                .map(|i| q.schedule_at(SimTime::from_nanos(i), i))
                .collect();
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        });
    });
}

/// The TCP retransmit-timer pattern: a working set of armed timers where
/// almost every timer is cancelled (ACKed) and re-armed before it can
/// expire — the workload that dominates timer-heavy two-way runs.
fn event_queue_timer_churn(c: &mut Harness) {
    const TIMERS: usize = 256;
    const ROUNDS: u64 = 10_000;
    c.bench_function("engine/event-queue timer-churn 256x10k", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut armed: Vec<_> = (0..TIMERS as u64)
                .map(|i| q.schedule_at(SimTime::from_millis(100 + i), i))
                .collect();
            for r in 0..ROUNDS {
                // An ACK arrives: cancel one armed timer, re-arm it later.
                let k = rng.next_below(TIMERS as u64) as usize;
                q.cancel(armed[k]);
                armed[k] = q.schedule_in(SimDuration::from_millis(100), r);
                // Occasionally the clock advances over a due event.
                if r % 64 == 0 {
                    if let Some((_, tag)) = q.pop() {
                        black_box(tag);
                    }
                }
            }
            black_box(q.len())
        });
    });
}

fn rng(c: &mut Harness) {
    c.bench_function("engine/rng next_u64 x1k", |b| {
        let mut r = SimRng::new(42);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(r.next_u64());
            }
            black_box(acc)
        });
    });
    c.bench_function("engine/rng next_below x1k", |b| {
        let mut r = SimRng::new(42);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc += r.next_below(12345);
            }
            black_box(acc)
        });
    });
}

fn end_to_end(c: &mut Harness) {
    // Events per second of wall time on a busy two-way scenario — the
    // number that determines how long paper-scale runs take.
    for trace_on in [true, false] {
        let label = if trace_on { "trace on" } else { "trace off" };
        c.bench_function(
            &format!("engine/dumbbell 60-sim-seconds 5+5 ({label})"),
            |b| {
                b.iter(|| {
                    let mut sc = Scenario::paper(SimDuration::from_millis(10), Some(30))
                        .with_fwd(5, ConnSpec::paper())
                        .with_rev(5, ConnSpec::paper());
                    sc.duration = SimDuration::from_secs(60);
                    sc.warmup = SimDuration::from_secs(10);
                    sc.record_trace = trace_on;
                    black_box(sc.run().world.events_dispatched())
                });
            },
        );
    }
}

fn main() {
    let mut c = Harness::new();
    event_queue_churn(&mut c);
    event_queue_cancel_heavy(&mut c);
    event_queue_timer_churn(&mut c);
    rng(&mut c);
    end_to_end(&mut c);
    let json_path = std::env::var("TD_BENCH_JSON").unwrap_or_else(|_| "BENCH_engine.json".into());
    if let Err(e) = c.write_json(std::path::Path::new(&json_path)) {
        eprintln!("could not write {json_path}: {e}");
    }
    c.finish();
}

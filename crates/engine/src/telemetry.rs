//! Per-thread simulation telemetry.
//!
//! The parallel experiment harness runs each experiment on its own worker
//! thread, and an experiment may build several [`crate::EventQueue`]s over
//! its lifetime (parameter sweeps, mode censuses). These thread-local
//! counters aggregate queue activity across every queue touched by the
//! current thread, so a harness can meter an experiment without threading
//! a stats handle through every scenario builder. World construction
//! folds in its route-computation time and BFS destination count the
//! same way ([`record_routes`]):
//!
//! ```
//! use td_engine::{telemetry, EventQueue, SimTime};
//!
//! telemetry::reset();
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::from_secs(1), "tick");
//! q.pop();
//! let t = telemetry::snapshot();
//! assert_eq!((t.events_scheduled, t.events_dispatched), (1, 1));
//! ```
//!
//! Hot-path cost: the queue does **not** touch thread-local storage per
//! operation. It accumulates plain-field deltas and folds them in with one
//! crate-internal `flush` per pop (and one on queue drop, covering events scheduled but
//! never dispatched), so a schedule-heavy workload pays zero TLS lookups
//! and a pop pays exactly one. All counters live in a single `thread_local`
//! struct, so one access reaches all of them. Because they never influence
//! simulation behaviour, they have no effect on determinism.

use std::cell::Cell;

struct Counters {
    scheduled: Cell<u64>,
    dispatched: Cell<u64>,
    peak_depth: Cell<usize>,
    routes_ns: Cell<u64>,
    route_bfs_dests: Cell<u64>,
}

thread_local! {
    static COUNTERS: Counters = const {
        Counters {
            scheduled: Cell::new(0),
            dispatched: Cell::new(0),
            peak_depth: Cell::new(0),
            routes_ns: Cell::new(0),
            route_bfs_dests: Cell::new(0),
        }
    };
}

/// A snapshot of this thread's counters since the last [`reset`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Events scheduled into any queue on this thread.
    pub events_scheduled: u64,
    /// Events popped (dispatched) from any queue on this thread.
    pub events_dispatched: u64,
    /// Largest live pending-event set observed on this thread.
    pub peak_queue_depth: usize,
    /// Wall-clock nanoseconds spent computing routes while building
    /// worlds on this thread.
    pub routes_ns: u64,
    /// Destination hosts whose routes came from a per-destination BFS
    /// rather than the linear tree pass (0 when every world built on
    /// this thread was a tree).
    pub route_bfs_dests: u64,
}

/// Zero this thread's counters (call before metering a workload).
///
/// Queues created before the reset still hold unflushed schedule deltas;
/// meter whole queue lifetimes (as the experiment runner does) rather than
/// resetting mid-run.
pub fn reset() {
    COUNTERS.with(|c| {
        c.scheduled.set(0);
        c.dispatched.set(0);
        c.peak_depth.set(0);
        c.routes_ns.set(0);
        c.route_bfs_dests.set(0);
    });
}

/// Read this thread's counters.
pub fn snapshot() -> Telemetry {
    COUNTERS.with(|c| Telemetry {
        events_scheduled: c.scheduled.get(),
        events_dispatched: c.dispatched.get(),
        peak_queue_depth: c.peak_depth.get(),
        routes_ns: c.routes_ns.get(),
        route_bfs_dests: c.route_bfs_dests.get(),
    })
}

/// Fold a snapshot taken on *another* thread into this thread's counters:
/// counts add, peak depth maxes in. Parallel harnesses (replicate sweeps)
/// meter each helper-run work item with a `reset`/`snapshot` pair and
/// merge the deltas back into the orchestrating thread, so its totals
/// match what a sequential run of the same items would have recorded.
pub fn merge(t: Telemetry) {
    flush(t.events_scheduled, t.events_dispatched, t.peak_queue_depth);
    record_routes(t.routes_ns, t.route_bfs_dests);
}

/// Fold one route computation into this thread's counters: `ns` of wall
/// time, `bfs_dests` destinations routed by per-destination BFS.
pub fn record_routes(ns: u64, bfs_dests: u64) {
    COUNTERS.with(|c| {
        c.routes_ns.set(c.routes_ns.get() + ns);
        c.route_bfs_dests.set(c.route_bfs_dests.get() + bfs_dests);
    });
}

/// Fold a batch of queue activity into this thread's counters: `scheduled`
/// schedules, `dispatched` pops, and a queue whose peak live depth so far
/// is `peak_depth` (maxed in, so repeated flushes are idempotent on peak).
pub(crate) fn flush(scheduled: u64, dispatched: u64, peak_depth: usize) {
    COUNTERS.with(|c| {
        c.scheduled.set(c.scheduled.get() + scheduled);
        c.dispatched.set(c.dispatched.get() + dispatched);
        if peak_depth > c.peak_depth.get() {
            c.peak_depth.set(peak_depth);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        flush(1, 0, 3);
        flush(1, 1, 1);
        let t = snapshot();
        assert_eq!(t.events_scheduled, 2);
        assert_eq!(t.events_dispatched, 1);
        assert_eq!(t.peak_queue_depth, 3, "peak is a running max");
        record_routes(40, 2);
        merge(Telemetry {
            routes_ns: 2,
            route_bfs_dests: 1,
            ..Telemetry::default()
        });
        let t = snapshot();
        assert_eq!((t.routes_ns, t.route_bfs_dests), (42, 3));
        reset();
        assert_eq!(snapshot(), Telemetry::default());
    }

    #[test]
    fn queue_flushes_on_pop_and_on_drop() {
        reset();
        let mut q = crate::EventQueue::new();
        q.schedule_at(crate::SimTime::from_secs(1), ());
        q.schedule_at(crate::SimTime::from_secs(2), ());
        q.pop();
        // One pop flushed both pending schedules and the dispatch.
        let t = snapshot();
        assert_eq!((t.events_scheduled, t.events_dispatched), (2, 1));
        assert_eq!(t.peak_queue_depth, 2);
        // The undispatched remainder is flushed when the queue drops.
        q.schedule_at(crate::SimTime::from_secs(3), ());
        drop(q);
        let t = snapshot();
        assert_eq!((t.events_scheduled, t.events_dispatched), (3, 1));
    }
}

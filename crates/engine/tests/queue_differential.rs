//! Differential test: the slab-backed 4-ary [`EventQueue`] must be
//! observably indistinguishable from the pre-slab binary-heap queue
//! ([`LegacyEventQueue`], below) under any interleaving of schedules,
//! cancels, and pops.
//!
//! One `SimRng`-generated script (≥100k ops) drives both implementations
//! in lockstep. After every operation the test asserts identical `len()`,
//! `dispatched()`, `peak_len()`, `scheduled()`, `now()` and `peek_time()`;
//! every pop must yield the identical `(time, payload)`; and every cancel
//! must return the identical verdict. Because the payload is the op index,
//! agreement on pop payloads proves the *total order* matches — including
//! the tie-break by schedule sequence that all experiment reproducibility
//! rests on.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use td_engine::{EventId, EventQueue, SimDuration, SimRng, SimTime};

// ---------------------------------------------------------------------
// The oracle: the engine's original `BinaryHeap + HashSet` queue, kept
// as it shipped (minus the conveniences this test does not call).
// Cancellation is lazy (a tombstone set consulted on every
// pop), and retired ids are tracked with a fired-set + watermark. Its
// value is being frozen: do not "improve" it.
// ---------------------------------------------------------------------

/// Opaque handle to an event scheduled into a [`LegacyEventQueue`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct LegacyEventId(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want min-(time, seq) on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pre-slab deterministic, cancellable discrete-event queue.
///
/// Same observable contract as [`EventQueue`] (total order
/// `(time, seq)`, clock at last pop, panics on scheduling into the past),
/// implemented with lazy cancellation.
struct LegacyEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Seqs of pending events that have been cancelled but not yet discarded.
    cancelled: HashSet<u64>,
    /// Fired seqs above `fired_watermark` (events can fire out of seq order).
    fired: HashSet<u64>,
    /// All seqs below this have fired; keeps `fired` small.
    fired_watermark: u64,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    /// Largest live length ever observed (post-schedule).
    peak_len: usize,
}

impl<E> LegacyEventQueue<E> {
    /// An empty queue with the clock at zero.
    fn new() -> Self {
        LegacyEventQueue {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            fired: HashSet::new(),
            fired_watermark: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            peak_len: 0,
        }
    }

    /// The current simulation time: the timestamp of the last popped event.
    fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped (dispatched) so far.
    fn dispatched(&self) -> u64 {
        self.popped
    }

    /// Number of events ever scheduled into this queue.
    fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of live pending events ever held at once.
    fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Number of live (not-yet-cancelled) pending events.
    fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before [`LegacyEventQueue::now`].
    fn schedule_at(&mut self, at: SimTime, event: E) -> LegacyEventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        let live = self.len();
        if live > self.peak_len {
            self.peak_len = live;
        }
        LegacyEventId(seq)
    }

    /// Schedule `event` to fire `delay` after the current time.
    fn schedule_in(&mut self, delay: SimDuration, event: E) -> LegacyEventId {
        let at = self.now + delay;
        self.schedule_at(at, event)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending.
    fn cancel(&mut self, id: LegacyEventId) -> bool {
        if id.0 >= self.next_seq || self.has_fired(id) {
            return false;
        }
        self.cancelled.insert(id.0)
    }

    /// True if the id refers to an event that has left the heap (fired, or
    /// cancelled and since lazily discarded).
    fn has_fired(&self, id: LegacyEventId) -> bool {
        id.0 < self.fired_watermark || self.fired.contains(&id.0)
    }

    /// Remove and return the earliest live event, advancing the clock.
    fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                self.note_done(entry.seq);
                continue; // lazily discard cancelled entry
            }
            debug_assert!(entry.at >= self.now, "heap produced an event in the past");
            self.now = entry.at;
            self.popped += 1;
            self.note_done(entry.seq);
            return Some((entry.at, entry.event));
        }
        None
    }

    /// Timestamp of the next live event without popping it. `&mut self`
    /// because it discards surfaced tombstones — the wart the slab queue
    /// removed.
    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
                self.note_done(seq);
                continue;
            }
            return Some(entry.at);
        }
        None
    }

    /// Record that `seq` has left the heap so later `cancel` calls on it
    /// report `false`.
    fn note_done(&mut self, seq: u64) {
        self.fired.insert(seq);
        while self.fired.remove(&self.fired_watermark) {
            self.fired_watermark += 1;
        }
    }
}

/// Handles for the same logical event in both queues.
#[derive(Clone, Copy)]
struct Pair {
    new: EventId,
    old: LegacyEventId,
}

fn lockstep(seed: u64, ops: u64, time_jitter: u64) {
    let mut nq: EventQueue<u64> = EventQueue::new();
    let mut oq: LegacyEventQueue<u64> = LegacyEventQueue::new();
    // Events believed pending (may contain already-fired ids; both queues
    // must agree on rejecting those cancels too).
    let mut handles: Vec<Pair> = Vec::new();
    let mut rng = SimRng::new(seed);
    let mut pops = 0u64;
    let mut cancels_accepted = 0u64;
    for step in 0..ops {
        match rng.next_below(8) {
            // Schedule at a jittered future instant; small jitter ranges
            // force heavy (time) ties so the seq tie-break is exercised.
            0..=2 => {
                let at = nq.now() + SimDuration::from_nanos(rng.next_below(time_jitter));
                handles.push(Pair {
                    new: nq.schedule_at(at, step),
                    old: oq.schedule_at(at, step),
                });
            }
            // Same, via the relative-time API.
            3 => {
                let d = SimDuration::from_nanos(rng.next_below(time_jitter));
                handles.push(Pair {
                    new: nq.schedule_in(d, step),
                    old: oq.schedule_in(d, step),
                });
            }
            // Cancel a (possibly stale) handle — verdicts must match.
            4..=5 if !handles.is_empty() => {
                let k = rng.next_below(handles.len() as u64) as usize;
                let h = handles[k];
                let verdict = nq.cancel(h.new);
                assert_eq!(
                    verdict,
                    oq.cancel(h.old),
                    "cancel verdicts diverged at step {step}"
                );
                if verdict {
                    cancels_accepted += 1;
                    handles.swap_remove(k);
                }
            }
            // Pop — the heart of the test: identical (time, payload).
            _ => {
                let got = nq.pop();
                assert_eq!(got, oq.pop(), "pop diverged at step {step}");
                if got.is_some() {
                    pops += 1;
                }
            }
        }
        assert_eq!(nq.len(), oq.len(), "len diverged at step {step}");
        assert_eq!(nq.now(), oq.now(), "clock diverged at step {step}");
        assert_eq!(
            nq.dispatched(),
            oq.dispatched(),
            "dispatched diverged at step {step}"
        );
        assert_eq!(
            nq.scheduled(),
            oq.scheduled(),
            "scheduled diverged at step {step}"
        );
        assert_eq!(
            nq.peak_len(),
            oq.peak_len(),
            "peak_len diverged at step {step}"
        );
        assert_eq!(
            nq.peek_time(),
            oq.peek_time(),
            "peek_time diverged at step {step}"
        );
    }
    // Drain both to the end: the full residual order must agree too.
    loop {
        let got = nq.pop();
        assert_eq!(got, oq.pop(), "drain diverged");
        if got.is_none() {
            break;
        }
        pops += 1;
    }
    assert_eq!(nq.dispatched(), oq.dispatched());
    assert_eq!(pops + cancels_accepted, nq.scheduled(), "events leaked");
    // Sanity: the script actually exercised the interesting paths.
    assert!(pops > ops / 10, "script popped too little to be meaningful");
    assert!(cancels_accepted > ops / 20, "script barely cancelled");
}

#[test]
fn new_queue_matches_legacy_on_100k_op_script() {
    // Dense time ties (jitter 50 ns): the seq tie-break does the ordering.
    lockstep(0xD1FF, 100_000, 50);
}

#[test]
fn new_queue_matches_legacy_on_sparse_times() {
    // Sparse times: ordering dominated by the time key, deep heaps.
    lockstep(0x5EED, 60_000, 1_000_000);
}

#[test]
fn new_queue_matches_legacy_across_seeds() {
    for seed in 1..=8u64 {
        lockstep(seed, 15_000, 200);
    }
}

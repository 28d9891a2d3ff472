//! The pending-event set: an indexed 4-ary min-heap over a slab.
//!
//! Events live in a **generation-counted slab**: scheduling claims a slot
//! (reusing freed ones), and the returned [`EventId`] is the pair
//! `(slot, generation)`. A parallel **4-ary heap of inline-key cells**
//! orders the pending set by `(time, key, seq)`, where `seq` is a monotone
//! counter assigned at scheduling time — so events scheduled for the same
//! instant (and key) fire in scheduling order. This total order is what
//! makes whole-simulation runs reproducible: there is never an
//! "arbitrary" choice left to hash-map iteration order or heap
//! tie-breaking, and it is byte-for-byte the order the engine's original
//! binary-heap queue produced (`tests/queue_differential.rs` keeps that
//! queue as an oracle and drives both in lockstep).
//!
//! Each heap cell carries its sort key inline — `(at, key, seq, slot)`,
//! 32 bytes — so a sift compares against adjacent heap memory only, and
//! each slot's heap position lives in a dense `u32` array beside the slab
//! rather than in the slot itself. A sift therefore never touches the
//! slab: on a deep queue of large events the four children of a node sit
//! in one or two cache lines instead of four random slab cells, and each
//! moved cell updates 4 bytes of a small array instead of a random slab
//! cell.
//!
//! Each slot's remembered heap position buys the two operations the old
//! design faked with tombstones:
//!
//! * [`EventQueue::cancel`] is a **true O(log n) removal** — swap the
//!   victim with the last heap entry and re-sift. No tombstone ever enters
//!   the heap, so `pop` and `peek_time` never loop over corpses, `len` is
//!   a plain `Vec::len`, and there is **no hashing anywhere** on the
//!   schedule/cancel/pop path (the old queue paid a `HashSet` probe per
//!   pop plus fired-set bookkeeping per event).
//! * Liveness checks ([`EventQueue::cancel`] re-cancel, [`EventQueue::has_fired`])
//!   are a **generation compare**: freeing a slot bumps its generation, so
//!   a stale handle can never alias a reused slot (generations are `u64`;
//!   they do not wrap in any feasible run).
//!
//! Why d = 4: a d-ary heap trades deeper trees for wider nodes. With
//! 4 children per node the tree is half as deep as a binary heap
//! (log₄ n = ½ log₂ n), sift-up — the operation `schedule_at` always pays —
//! does half the comparisons, and the four children sit in adjacent
//! `Vec` cells, so the extra comparisons in sift-down are against hot
//! cache lines. For discrete-event simulation, where schedules outnumber
//! sift-downs (every pop is preceded by exactly one schedule, but cancels
//! remove many events before they ever reach the root), this is the
//! standard sweet spot.

use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::SimTime;

/// Slot index marker for "not in the heap".
const NOT_IN_HEAP: u32 = u32::MAX;

/// Opaque handle to a scheduled event, used to cancel it.
///
/// A handle is `(slot, generation)`: the slab slot the event occupies and
/// the generation of that occupancy. Slots are reused after an event
/// retires, but each reuse bumps the generation, so operations on a stale
/// handle are detected exactly and return `false` instead of touching the
/// wrong event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u64,
}

impl EventId {
    /// Decompose the handle into `(slot, generation)` for snapshotting.
    pub fn into_raw(self) -> (u32, u64) {
        (self.slot, self.gen)
    }

    /// Rebuild a handle from captured `(slot, generation)` parts. Only
    /// meaningful against a queue whose slab was restored from the same
    /// snapshot; against any other queue the handle is simply stale (the
    /// generation check makes misuse a no-op, never a wrong-event hit).
    pub fn from_raw(slot: u32, gen: u64) -> Self {
        EventId { slot, gen }
    }
}

/// One slab cell. `event == None` means vacant (on the free list, its
/// `gen` already bumped past every handle issued for it).
///
/// `at`, `key` and `seq` duplicate the occupant's heap cell. Sifts never
/// read them; they are the slab's copy for the snapshot layout, which
/// records every slot cell for cell (a vacant slot keeps its last
/// occupant's key) and from which [`EventQueue::load_state`] rebuilds the
/// heap cells. The slot's heap position is `EventQueue::heap_pos[slot]`.
struct Slot<E> {
    /// Generation of the current (or next) occupant.
    gen: u64,
    /// Absolute due time of the current occupant.
    at: SimTime,
    /// Caller-supplied tie key, ordered before `seq` among same-time
    /// events. [`EventQueue::schedule_at`] always uses 0, preserving pure
    /// scheduling-order ties; [`EventQueue::schedule_keyed`] lets a caller
    /// impose a content-derived order that is independent of *when* the
    /// event was scheduled — the property sharded simulation needs.
    key: u64,
    /// Monotone schedule counter of the current occupant (tie-breaker).
    seq: u64,
    event: Option<E>,
}

/// One heap entry: the pending event's sort key `(at, key, seq)` inline,
/// plus the slab slot holding the event. Keys are unique (`seq` is), so
/// the derived order on the leading three fields is total.
#[derive(Clone, Copy, Debug)]
struct Cell {
    at: SimTime,
    key: u64,
    seq: u64,
    slot: u32,
}

impl Cell {
    #[inline]
    fn sort_key(&self) -> (SimTime, u64, u64) {
        (self.at, self.key, self.seq)
    }
}

/// A deterministic, cancellable discrete-event queue.
///
/// The queue also tracks the simulation clock: [`EventQueue::now`] is the
/// timestamp of the most recently popped event (initially [`SimTime::ZERO`]),
/// and scheduling into the past is a panic — causality violations are always
/// caller bugs.
///
/// Memory: the slab holds one cell per *concurrently pending* event (peak,
/// not total — retired slots are reused), and the heap holds one 32-byte
/// inline-key cell per pending event. Nothing grows with the number of
/// events ever scheduled.
pub struct EventQueue<E> {
    /// Inline-key cells, heap-ordered by `(at, key, seq)`.
    heap: Vec<Cell>,
    slots: Vec<Slot<E>>,
    /// Index into `heap` of each slot's occupant (parallel to `slots`);
    /// `NOT_IN_HEAP` when vacant.
    heap_pos: Vec<u32>,
    /// Vacant slot indices, reused LIFO.
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    /// Largest live length ever observed (post-schedule).
    peak_len: usize,
    /// Schedules not yet folded into the thread telemetry counters;
    /// flushed once per pop (and on drop) instead of per call.
    unflushed_sched: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        // Flush schedules that never saw a pop (drained-by-drop queues,
        // runs truncated by a time bound) so thread telemetry stays exact.
        crate::telemetry::flush(self.unflushed_sched, 0, self.peak_len);
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            heap_pos: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            peak_len: 0,
            unflushed_sched: 0,
        }
    }

    /// An empty queue with slab and heap capacity for `n` concurrently
    /// pending events (e.g. a peak depth observed by
    /// [`crate::telemetry`] on a previous comparable run).
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
            heap_pos: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            ..Self::new()
        }
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped (dispatched) so far. Handy as a progress /
    /// runaway-simulation guard.
    pub fn dispatched(&self) -> u64 {
        self.popped
    }

    /// Number of events ever scheduled into this queue.
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of live pending events ever held at once — the
    /// working-set size a capacity planner would care about.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Number of live pending events. Exact: cancelled events leave the
    /// heap immediately.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Store `cell` at heap position `pos` and point its slot back at it.
    #[inline]
    fn set_pos(&mut self, pos: usize, cell: Cell) {
        self.heap_pos[cell.slot as usize] = pos as u32;
        self.heap[pos] = cell;
    }

    /// Move the entry at `pos` rootward while it sorts before its parent.
    fn sift_up(&mut self, mut pos: usize) {
        let cell = self.heap[pos];
        let key = cell.sort_key();
        while pos > 0 {
            let parent = (pos - 1) / 4;
            let p = self.heap[parent];
            if key >= p.sort_key() {
                break;
            }
            self.set_pos(pos, p);
            pos = parent;
        }
        self.set_pos(pos, cell);
    }

    /// Move the entry at `pos` leafward while some child sorts before it;
    /// returns its final position.
    fn sift_down(&mut self, mut pos: usize) -> usize {
        let cell = self.heap[pos];
        let key = cell.sort_key();
        let len = self.heap.len();
        loop {
            let first = pos * 4 + 1;
            if first >= len {
                break;
            }
            let last = (first + 4).min(len);
            let mut best = first;
            let mut best_key = self.heap[first].sort_key();
            for c in first + 1..last {
                let k = self.heap[c].sort_key();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if best_key >= key {
                break;
            }
            let b = self.heap[best];
            self.set_pos(pos, b);
            pos = best;
        }
        self.set_pos(pos, cell);
        pos
    }

    /// Detach the heap entry at `pos` and restore heap order. The caller
    /// still owns the slot's contents.
    fn remove_heap_entry(&mut self, pos: usize) {
        let moved = self.heap.pop().expect("removing from an empty heap");
        if pos == self.heap.len() {
            return;
        }
        self.heap[pos] = moved;
        // The replacement came from a leaf: it can only need to move down,
        // unless the removed entry was below the replacement's parent chain.
        let pos = self.sift_down(pos);
        self.sift_up(pos);
    }

    /// Return `slot` to the free list, bumping its generation so every
    /// outstanding handle to the old occupant goes stale.
    fn retire(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        s.gen += 1;
        let ev = s.event.take().expect("retiring a vacant slot");
        self.heap_pos[slot as usize] = NOT_IN_HEAP;
        self.free.push(slot);
        ev
    }

    /// Schedule `event` to fire at absolute time `at`. Same-time events
    /// fire in scheduling order (tie key 0 for every event on this path,
    /// byte-for-byte the order the pre-key queue produced).
    ///
    /// # Panics
    /// Panics if `at` is before [`EventQueue::now`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        self.schedule_keyed(at, 0, event)
    }

    /// Schedule `event` to fire at absolute time `at` with an explicit
    /// tie `key`: same-time events order by `(key, scheduling order)`.
    /// A caller that derives keys from event *content* (and keeps them
    /// unique among simultaneous events) gets a dispatch order that no
    /// longer depends on scheduling interleaving — which is what lets a
    /// sharded simulation reproduce one canonical order for any shard
    /// count.
    ///
    /// # Panics
    /// Panics if `at` is before [`EventQueue::now`].
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.at = at;
                s.key = key;
                s.seq = seq;
                s.event = Some(event);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                assert!(slot != u32::MAX, "event slab full");
                self.slots.push(Slot {
                    gen: 0,
                    at,
                    key,
                    seq,
                    event: Some(event),
                });
                self.heap_pos.push(NOT_IN_HEAP);
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        let pos = self.heap.len();
        self.heap.push(Cell { at, key, seq, slot });
        self.sift_up(pos);
        if self.heap.len() > self.peak_len {
            self.peak_len = self.heap.len();
        }
        self.unflushed_sched += 1;
        EventId { slot, gen }
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: crate::SimDuration, event: E) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, event)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (and is now guaranteed not to fire), `false` if it had
    /// already fired, been cancelled, or was never scheduled.
    ///
    /// True removal: the event leaves the heap immediately (O(log n)
    /// sift), its slot is reusable at once, and no residue survives to be
    /// skipped by later pops.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.event.is_some() => {
                let pos = self.heap_pos[id.slot as usize] as usize;
                self.remove_heap_entry(pos);
                self.retire(id.slot);
                true
            }
            _ => false,
        }
    }

    /// True if the id refers to an event that has retired — fired, or been
    /// cancelled. (Mirrors the pre-slab queue, whose fired-set also
    /// absorbed cancelled entries once discarded; here the state is exact
    /// and immediate: a slot generation beyond the handle's.)
    pub fn has_fired(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|s| id.gen < s.gen)
    }

    /// Remove and return the earliest live event, advancing the clock.
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let &Cell { at, slot, .. } = self.heap.first()?;
        debug_assert!(at >= self.now, "heap produced an event in the past");
        self.remove_heap_entry(0);
        let event = self.retire(slot);
        self.now = at;
        self.popped += 1;
        crate::telemetry::flush(self.unflushed_sched, 1, self.peak_len);
        self.unflushed_sched = 0;
        Some((at, event))
    }

    /// Remove and return the earliest live event if it is due at or before
    /// `bound`. One call replaces the `peek_time` + `pop` pair in
    /// time-bounded run loops.
    pub fn pop_at_or_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > bound {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next live event without popping it. O(1) and
    /// `&self`: cancelled events are removed eagerly, so the root is
    /// always live.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|c| c.at)
    }

    /// Advance the clock to `t` without popping anything — a bounded run
    /// ends "at" its bound even when the last event fired earlier, and a
    /// sharded run must leave every shard's clock at the same instant.
    ///
    /// # Panics
    /// Panics if `t` is before [`EventQueue::now`] (the clock never
    /// rewinds).
    pub fn advance_clock(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "cannot rewind the clock: t={t:?} now={:?}",
            self.now
        );
        self.now = t;
    }

    /// Remove *every* pending event, returning them as
    /// `(at, key, event)` sorted by `(at, key, seq)` — the exact order
    /// they would have popped in. The clock, dispatch count, and schedule
    /// count are untouched; the slab and free list reset to empty.
    ///
    /// This is the shard-construction primitive: a shard builds the full
    /// world (so ids line up globally), then drains the queue and
    /// re-schedules only the events it owns.
    pub fn drain_pending(&mut self) -> Vec<(SimTime, u64, E)> {
        let mut out: Vec<(SimTime, u64, u64, E)> = Vec::with_capacity(self.heap.len());
        for c in std::mem::take(&mut self.heap) {
            let s = &mut self.slots[c.slot as usize];
            // Retire like `cancel`: generations bump so any outstanding
            // handle to a drained event goes stale instead of aliasing.
            s.gen += 1;
            self.heap_pos[c.slot as usize] = NOT_IN_HEAP;
            let ev = s.event.take().expect("heap entry points at vacant slot");
            out.push((c.at, c.key, c.seq, ev));
            self.free.push(c.slot);
        }
        out.sort_by_key(|&(at, key, seq, _)| (at, key, seq));
        out.into_iter()
            .map(|(at, key, _, e)| (at, key, e))
            .collect()
    }

    /// Borrow every pending event as `(at, key, &event)`, sorted by
    /// `(at, key, seq)` — pop order. Non-destructive; used to serialize a
    /// canonical (shard-count-independent) picture of the pending set.
    pub fn pending(&self) -> Vec<(SimTime, u64, &E)> {
        let mut refs: Vec<(SimTime, u64, u64, &E)> = self
            .heap
            .iter()
            .map(|c| {
                let s = &self.slots[c.slot as usize];
                let ev = s.event.as_ref().expect("heap entry points at vacant slot");
                (c.at, c.key, c.seq, ev)
            })
            .collect();
        refs.sort_by_key(|&(at, key, seq, _)| (at, key, seq));
        refs.into_iter()
            .map(|(at, key, _, e)| (at, key, e))
            .collect()
    }

    /// Like [`EventQueue::pending`], but also yields each event's live
    /// [`EventId`] so callers can correlate pending entries with handles
    /// held elsewhere (e.g. endpoint timer handles during a canonical
    /// snapshot).
    pub fn pending_entries(&self) -> Vec<(SimTime, u64, EventId, &E)> {
        let mut refs: Vec<(SimTime, u64, u64, EventId, &E)> = self
            .heap
            .iter()
            .map(|c| {
                let s = &self.slots[c.slot as usize];
                let ev = s.event.as_ref().expect("heap entry points at vacant slot");
                (c.at, c.key, c.seq, EventId::from_raw(c.slot, s.gen), ev)
            })
            .collect();
        refs.sort_by_key(|&(at, key, seq, _, _)| (at, key, seq));
        refs.into_iter()
            .map(|(at, key, _, id, e)| (at, key, id, e))
            .collect()
    }

    /// Serialize the queue's complete state — slab (including vacant
    /// slots and their generations), heap order, free list, clock, and
    /// counters — encoding each pending event with `enc`.
    ///
    /// The slab is captured **cell for cell**, not just the live events:
    /// external holders keep [`EventId`] handles into specific slots, and
    /// those handles only stay valid (and stale handles only stay stale)
    /// if slot indices and generations survive the round trip exactly.
    pub fn save_state(&self, w: &mut SnapWriter, mut enc: impl FnMut(&E, &mut SnapWriter)) {
        w.write_u64(self.next_seq);
        w.write_time(self.now);
        w.write_u64(self.popped);
        w.write_u64(self.peak_len as u64);
        w.write_u64(self.slots.len() as u64);
        for (s, &pos) in self.slots.iter().zip(&self.heap_pos) {
            w.write_u64(s.gen);
            w.write_u32(pos);
            w.write_time(s.at);
            w.write_u64(s.key);
            w.write_u64(s.seq);
            match &s.event {
                Some(e) => {
                    w.write_bool(true);
                    enc(e, w);
                }
                None => w.write_bool(false),
            }
        }
        w.write_u64(self.heap.len() as u64);
        for c in &self.heap {
            w.write_u32(c.slot);
        }
        w.write_u64(self.free.len() as u64);
        for &slot in &self.free {
            w.write_u32(slot);
        }
    }

    /// Rebuild a queue from [`EventQueue::save_state`] bytes, decoding
    /// each pending event with `dec`. Slab/heap cross-links are verified,
    /// so a corrupt snapshot fails here instead of panicking mid-run; the
    /// heap cells' inline keys are rebuilt from the slab.
    ///
    /// The rebuilt queue starts with a zero telemetry debt
    /// (`unflushed_sched`): its events were already counted by the queue
    /// that originally scheduled them.
    pub fn load_state(
        r: &mut SnapReader<'_>,
        mut dec: impl FnMut(&mut SnapReader<'_>) -> Result<E, SnapError>,
    ) -> Result<Self, SnapError> {
        let next_seq = r.read_u64()?;
        let now = r.read_time()?;
        let popped = r.read_u64()?;
        let peak_len = r.read_u64()? as usize;
        let n_slots = r.read_u64()? as usize;
        if n_slots > r.remaining() {
            // Each slot costs well over one byte; cheap sanity bound that
            // stops a corrupt length from attempting a huge allocation.
            return Err(SnapError::Truncated);
        }
        let mut slots = Vec::with_capacity(n_slots);
        let mut heap_pos = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let gen = r.read_u64()?;
            heap_pos.push(r.read_u32()?);
            let at = r.read_time()?;
            let key = r.read_u64()?;
            let seq = r.read_u64()?;
            let event = if r.read_bool()? { Some(dec(r)?) } else { None };
            slots.push(Slot {
                gen,
                at,
                key,
                seq,
                event,
            });
        }
        let n_heap = r.read_u64()? as usize;
        if n_heap > n_slots {
            return Err(SnapError::Corrupt("heap larger than slab".into()));
        }
        let mut heap_slots = Vec::with_capacity(n_heap);
        for _ in 0..n_heap {
            heap_slots.push(r.read_u32()?);
        }
        let n_free = r.read_u64()? as usize;
        if n_heap + n_free != n_slots {
            return Err(SnapError::Corrupt("slab accounting broken".into()));
        }
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            free.push(r.read_u32()?);
        }
        // Verify cross-links: every heap entry points at an occupied slot
        // that points back; every free entry at a vacant, detached slot.
        let mut heap = Vec::with_capacity(n_heap);
        for (pos, &slot) in heap_slots.iter().enumerate() {
            let s = slots
                .get(slot as usize)
                .ok_or_else(|| SnapError::Corrupt("heap entry out of slab".into()))?;
            if heap_pos[slot as usize] as usize != pos || s.event.is_none() {
                return Err(SnapError::Corrupt("heap/slab backlink broken".into()));
            }
            heap.push(Cell {
                at: s.at,
                key: s.key,
                seq: s.seq,
                slot,
            });
        }
        for &slot in &free {
            let s = slots
                .get(slot as usize)
                .ok_or_else(|| SnapError::Corrupt("free entry out of slab".into()))?;
            if heap_pos[slot as usize] != NOT_IN_HEAP || s.event.is_some() {
                return Err(SnapError::Corrupt("free list points at live slot".into()));
            }
        }
        Ok(EventQueue {
            heap,
            slots,
            heap_pos,
            free,
            next_seq,
            now,
            popped,
            peak_len,
            unflushed_sched: 0,
        })
    }

    /// Heap-shape invariant check, for tests: every parent sorts at or
    /// before its children, every slot/heap index link is mutual, and
    /// every cell's inline key equals its slot's.
    #[cfg(test)]
    fn assert_invariants(&self) {
        assert_eq!(
            self.heap.len() + self.free.len(),
            self.slots.len(),
            "slab accounting broken"
        );
        for (pos, c) in self.heap.iter().enumerate() {
            let s = &self.slots[c.slot as usize];
            assert_eq!(
                self.heap_pos[c.slot as usize] as usize, pos,
                "backlink broken"
            );
            assert!(s.event.is_some(), "vacant slot in heap");
            assert_eq!(
                c.sort_key(),
                (s.at, s.key, s.seq),
                "inline key differs from its slot"
            );
            if pos > 0 {
                assert!(
                    self.heap[(pos - 1) / 4].sort_key() <= c.sort_key(),
                    "heap order broken"
                );
            }
        }
        for &slot in &self.free {
            assert!(self.slots[slot as usize].event.is_none());
            assert_eq!(self.heap_pos[slot as usize], NOT_IN_HEAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_ties_order_by_key_then_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        // Scrambled insertion order; keys impose the canonical order.
        q.schedule_keyed(t, 3, "k3");
        q.schedule_keyed(t, 1, "k1b");
        q.schedule_keyed(t, 0, "k0");
        q.schedule_keyed(t, 1, "k1a");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        // Same key falls back to insertion order (seq).
        assert_eq!(order, vec!["k0", "k1b", "k1a", "k3"]);
    }

    #[test]
    fn keyed_events_sort_before_later_times_regardless_of_key() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_secs(2), 0, "later");
        q.schedule_keyed(SimTime::from_secs(1), u64::MAX, "earlier");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["earlier", "later"]);
    }

    #[test]
    fn drain_pending_returns_pop_order_and_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "first");
        q.pop(); // advance the clock so `now` is nonzero
        q.schedule_keyed(SimTime::from_secs(30), 2, "d");
        q.schedule_keyed(SimTime::from_secs(20), 5, "b");
        q.schedule_keyed(SimTime::from_secs(20), 5, "c"); // same (t, key): seq breaks tie
        q.schedule_keyed(SimTime::from_secs(20), 1, "a");
        let drained = q.drain_pending();
        assert_eq!(
            drained,
            vec![
                (SimTime::from_secs(20), 1, "a"),
                (SimTime::from_secs(20), 5, "b"),
                (SimTime::from_secs(20), 5, "c"),
                (SimTime::from_secs(30), 2, "d"),
            ]
        );
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        assert_eq!(
            q.now(),
            SimTime::from_secs(10),
            "drain must not move the clock"
        );
        // The slab is reusable after a drain.
        q.schedule_at(SimTime::from_secs(40), "again");
        assert_eq!(q.pop(), Some((SimTime::from_secs(40), "again")));
    }

    #[test]
    fn drain_pending_staleness_matches_cancel() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_secs(1), "x");
        q.drain_pending();
        assert!(!q.cancel(id), "drained handle must be stale");
        // Draining retires the slot, so the handle reports retired —
        // identical to what `cancel` would have left behind.
        assert!(q.has_fired(id));
        // Reusing the slot must not resurrect the old handle.
        let id2 = q.schedule_at(SimTime::from_secs(2), "y");
        assert_eq!(id.slot, id2.slot, "slot not reused — test premise broken");
        assert!(!q.cancel(id));
        assert!(q.cancel(id2));
    }

    #[test]
    fn pending_is_nondestructive_and_sorted() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_secs(2), 7, "b");
        q.schedule_keyed(SimTime::from_secs(1), 9, "a");
        let view: Vec<_> = q
            .pending()
            .into_iter()
            .map(|(t, k, e)| (t, k, *e))
            .collect();
        assert_eq!(
            view,
            vec![
                (SimTime::from_secs(1), 9, "a"),
                (SimTime::from_secs(2), 7, "b"),
            ]
        );
        assert_eq!(q.len(), 2, "pending() must not consume events");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
    }

    #[test]
    fn advance_clock_moves_now_forward() {
        let mut q = EventQueue::<()>::new();
        q.advance_clock(SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
        // Idempotent at the same time.
        q.advance_clock(SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "rewind")]
    fn advance_clock_rejects_rewind() {
        let mut q = EventQueue::<()>::new();
        q.advance_clock(SimTime::from_secs(5));
        q.advance_clock(SimTime::from_secs(4));
    }

    #[test]
    fn keyed_snapshot_roundtrip_preserves_order() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_secs(1), 5, 50u32);
        q.schedule_keyed(SimTime::from_secs(1), 2, 20u32);
        q.schedule_at(SimTime::from_secs(1), 99u32);
        let mut w = crate::snap::SnapWriter::new();
        q.save_state(&mut w, |e, w| w.write_u32(*e));
        let bytes = w.into_bytes();
        let mut restored: EventQueue<u32> =
            EventQueue::load_state(&mut crate::snap::SnapReader::new(&bytes), |r| r.read_u32())
                .unwrap();
        let order: Vec<_> = std::iter::from_fn(|| restored.pop())
            .map(|(_, e)| e)
            .collect();
        assert_eq!(order, vec![99, 20, 50]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(2), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(12));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(5), ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_secs(1), "dead");
        q.schedule_at(SimTime::from_secs(2), "alive");
        assert!(q.cancel(id));
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, "alive");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_secs(1), ());
        q.pop();
        assert!(!q.cancel(id));
        assert!(q.has_fired(id));
    }

    #[test]
    fn cancel_twice_returns_false() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_secs(1), ());
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q = EventQueue::<()>::new();
        assert!(!q.cancel(EventId { slot: 999, gen: 0 }));
        assert!(!q.has_fired(EventId { slot: 999, gen: 0 }));
    }

    #[test]
    fn stale_handle_cannot_touch_reused_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        q.pop();
        // The slot is reused for a new occupant at a later generation.
        let b = q.schedule_at(SimTime::from_secs(2), "b");
        assert_eq!(a.slot, b.slot, "slot not reused — test premise broken");
        assert!(q.has_fired(a));
        assert!(!q.has_fired(b));
        assert!(!q.cancel(a), "stale handle cancelled a reused slot");
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
    }

    #[test]
    fn len_is_exact_under_cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_is_immutable_and_skips_nothing() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        q.cancel(a);
        // `&self` peek: cancelled events are already gone from the heap.
        let q_ref: &EventQueue<()> = &q;
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn pop_at_or_before_respects_bound() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(3), "b");
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(2)),
            Some((SimTime::from_secs(1), "a"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(2)), None);
        // Bound exactly on the event time: it fires.
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(3)),
            Some((SimTime::from_secs(3), "b"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(100)), None);
    }

    #[test]
    fn dispatched_counts_pops() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule_at(SimTime::from_secs(i + 1), ());
        }
        while q.pop().is_some() {}
        assert_eq!(q.dispatched(), 5);
    }

    #[test]
    fn slab_memory_is_bounded_by_peak_not_total() {
        let mut q = EventQueue::new();
        // 10_000 events scheduled over time, never more than 2 pending.
        for i in 0..10_000u64 {
            q.schedule_at(SimTime::from_secs(i + 1), ());
            q.schedule_at(SimTime::from_secs(i + 1), ());
            q.pop();
            q.pop();
        }
        assert_eq!(q.scheduled(), 20_000);
        assert!(
            q.slots.len() <= 2,
            "slab grew to {} slots for a working set of 2",
            q.slots.len()
        );
    }

    /// Audit of true cancellation (no residue by construction): a long
    /// interleaving of schedules, cancels of live / fired / stale /
    /// never-scheduled ids, double-cancels, and pops must keep the slab
    /// and heap mutually consistent at every step and leave the slab
    /// fully free once drained. The invariant check also verifies heap
    /// order and slot↔heap backlinks, so any sift bug surfaces here.
    #[test]
    fn cancel_heavy_run_leaves_no_residue() {
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::new(0xCA9CE1);
        let mut live_ids: Vec<(EventId, u64)> = Vec::new();
        let mut fired_ids: Vec<EventId> = Vec::new();
        for step in 0..50_000u64 {
            match rng.next_below(10) {
                // Schedule at a jittered future instant (ties included).
                0..=3 => {
                    let at = q.now() + SimDuration::from_nanos(rng.next_below(50));
                    live_ids.push((q.schedule_at(at, step), step));
                }
                // Cancel something still (probably) pending.
                4..=6 if !live_ids.is_empty() => {
                    let k = rng.next_below(live_ids.len() as u64) as usize;
                    let (id, _) = live_ids.swap_remove(k);
                    q.cancel(id);
                    // Double-cancel must refuse and must not re-insert.
                    assert!(!q.cancel(id), "double cancel accepted");
                }
                // Cancel an id that already fired: must be a no-op.
                7 if !fired_ids.is_empty() => {
                    let k = rng.next_below(fired_ids.len() as u64) as usize;
                    assert!(!q.cancel(fired_ids[k]), "cancel of fired id accepted");
                    assert!(q.has_fired(fired_ids[k]));
                }
                // Cancel an id that was never scheduled: must be a no-op.
                8 => {
                    let bogus = EventId {
                        slot: u32::MAX - 1,
                        gen: step,
                    };
                    assert!(!q.cancel(bogus));
                }
                _ => {
                    if let Some((_, e)) = q.pop() {
                        if let Some(k) = live_ids.iter().position(|&(_, tag)| tag == e) {
                            fired_ids.push(live_ids.swap_remove(k).0);
                        }
                    }
                }
            }
            if step % 1024 == 0 {
                q.assert_invariants();
            }
            assert_eq!(q.len(), live_ids.len(), "len diverged at step {step}");
        }
        while q.pop().is_some() {}
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
        q.assert_invariants();
        assert_eq!(
            q.free.len(),
            q.slots.len(),
            "drained queue left occupied slots"
        );
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule_at(SimTime::from_secs(i + 1), i);
        }
        assert_eq!(q.peak_len(), 10);
        while q.pop().is_some() {}
        assert_eq!(q.peak_len(), 10, "peak survives draining");
        assert_eq!(q.scheduled(), 10);
        // Cancelled entries do not count toward the live peak.
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), 0);
        q.cancel(a);
        q.schedule_at(SimTime::from_secs(2), 1);
        assert_eq!(q.peak_len(), 1);
    }

    #[test]
    fn cancelled_event_reports_retired() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        assert!(!q.has_fired(a));
        q.cancel(a);
        // Retirement is immediate — no lazy-discard window as in the old
        // design, where this only became true after `a` surfaced at the
        // heap root.
        assert!(q.has_fired(a));
        assert!(!q.cancel(a));
        q.pop();
        assert!(q.pop().is_none());
    }

    /// Round-trip helper for a `u64`-event queue.
    fn roundtrip(q: &EventQueue<u64>) -> EventQueue<u64> {
        let mut w = SnapWriter::new();
        q.save_state(&mut w, |e, w| w.write_u64(*e));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let restored = EventQueue::load_state(&mut r, |r| r.read_u64()).unwrap();
        r.finish().unwrap();
        restored
    }

    #[test]
    fn snapshot_round_trip_replays_identically() {
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::new(0x5AFE);
        let mut ids = Vec::new();
        for step in 0..5_000u64 {
            match rng.next_below(4) {
                0..=1 => {
                    let at = q.now() + SimDuration::from_nanos(rng.next_below(100));
                    ids.push(q.schedule_at(at, step));
                }
                2 if !ids.is_empty() => {
                    let k = rng.next_below(ids.len() as u64) as usize;
                    q.cancel(ids.swap_remove(k));
                }
                _ => {
                    q.pop();
                }
            }
        }
        let mut restored = roundtrip(&q);
        restored.assert_invariants();
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.dispatched(), q.dispatched());
        assert_eq!(restored.scheduled(), q.scheduled());
        assert_eq!(restored.peak_len(), q.peak_len());
        // Outstanding handles survive: cancel through the restored queue.
        for &id in &ids {
            assert_eq!(q.has_fired(id), restored.has_fired(id));
        }
        // Both queues drain in the identical order and keep agreeing on
        // further mixed operations.
        loop {
            let a = q.pop();
            let b = restored.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// One random schedule-keyed / cancel / pop step, for snapshot tests.
    fn random_op(q: &mut EventQueue<u64>, ids: &mut Vec<EventId>, rng: &mut crate::SimRng, i: u64) {
        match rng.next_below(4) {
            0 | 1 => {
                let at = q.now() + SimDuration::from_nanos(rng.next_below(100));
                ids.push(q.schedule_keyed(at, rng.next_below(3), i));
            }
            2 if !ids.is_empty() => {
                let k = rng.next_below(ids.len() as u64) as usize;
                q.cancel(ids.swap_remove(k));
            }
            _ => {
                q.pop();
            }
        }
    }

    /// `load_state` rebuilds the inline heap keys from the slab: the
    /// restored queue re-encodes to the very same bytes, and keeps doing
    /// so in lockstep with the original through further operations.
    #[test]
    fn snapshot_bytes_survive_load_and_further_operations() {
        let encode = |q: &EventQueue<u64>| {
            let mut w = SnapWriter::new();
            q.save_state(&mut w, |e, w| w.write_u64(*e));
            w.into_bytes()
        };
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::new(0x1A1E);
        let mut ids = Vec::new();
        for i in 0..3_000u64 {
            random_op(&mut q, &mut ids, &mut rng, i);
        }
        let mut restored = roundtrip(&q);
        restored.assert_invariants();
        assert_eq!(encode(&restored), encode(&q));
        // The same operations on both: identical bytes throughout.
        let (mut ids_r, mut rng_r) = (ids.clone(), rng.clone());
        for i in 3_000..4_000u64 {
            random_op(&mut q, &mut ids, &mut rng, i);
            random_op(&mut restored, &mut ids_r, &mut rng_r, i);
            assert_eq!(encode(&restored), encode(&q), "diverged at op {i}");
        }
        restored.assert_invariants();
    }

    #[test]
    fn snapshot_preserves_handle_validity_and_staleness() {
        let mut q = EventQueue::new();
        let fired = q.schedule_at(SimTime::from_secs(1), 0u64);
        q.pop();
        // Reuses the fired slot at a later generation.
        let live = q.schedule_at(SimTime::from_secs(2), 1u64);
        let cancelled = q.schedule_at(SimTime::from_secs(3), 2u64);
        q.cancel(cancelled);
        let mut restored = roundtrip(&q);
        assert!(restored.has_fired(fired));
        assert!(restored.has_fired(cancelled));
        assert!(!restored.has_fired(live));
        assert!(!restored.cancel(fired), "stale handle accepted");
        assert!(restored.cancel(live), "live handle rejected");
    }

    #[test]
    fn corrupt_snapshot_is_rejected_structurally() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 7u64);
        let mut w = SnapWriter::new();
        q.save_state(&mut w, |e, w| w.write_u64(*e));
        let bytes = w.into_bytes();
        // Truncation at every prefix either loads (only at full length) or
        // errors — never panics.
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(
                EventQueue::<u64>::load_state(&mut r, |r| r.read_u64()).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.heap.capacity() >= 64);
        assert!(q.slots.capacity() >= 64);
        for i in 0..64u64 {
            q.schedule_at(SimTime::from_secs(i + 1), i);
        }
        assert_eq!(q.len(), 64);
    }
}

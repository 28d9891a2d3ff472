//! Streaming (trace-free) analysis: the [`extract`](crate::extract)
//! measurements computed *online during the run*, as a fold over trace
//! emissions, instead of offline from a stored [`td_net::Trace`].
//!
//! A [`StreamSpec`] names the measurements an experiment needs — queue
//! series per channel, cwnd series per connection, windowed utilization,
//! drops, departures — and [`StreamAnalyzer`] folds them incrementally as
//! a [`td_net::TraceObserver`] registered on a [`td_net::World`] (or one
//! per shard of a [`td_net::ShardedWorld`]). The world feeds observers at
//! every emission site **whether or not trace recording is enabled**, so
//! an experiment that registers an analyzer and disables its trace runs
//! in O(live state) memory instead of O(events): the trace becomes an
//! opt-in debugging artifact rather than the substrate of analysis.
//!
//! ## Parity contract
//!
//! Every fold replicates its batch extractor *exactly* — same arithmetic
//! on the same values in the same order — so a converted experiment's
//! metrics are byte-identical whichever path computes them. Two ordering
//! regimes exist:
//!
//! * A plain serial [`td_net::World`] stores records in emission order,
//!   and the analyzer folds in that same order: parity is trivial.
//! * A [`td_net::ShardedWorld`] re-sorts the merged trace into canonical
//!   `(time, causal rank, content)` order, while each shard's analyzer
//!   sees only its own emissions in dispatch order. Building the analyzer
//!   with [`StreamSpec::canonical_ties`] makes it buffer same-instant
//!   records and fold them in [`td_net::canonical_trace_cmp`] order. Only
//!   records some spec entry consumes are buffered: the relevant subset of
//!   a group, sorted by the same comparator, folds in the same order, and
//!   a world-scale trace no longer passes through the sort.
//!   Because every channel, connection, and endpoint lives wholly on one
//!   shard, sorting a *shard's* same-instant group by the global
//!   comparator puts each key's records in exactly the relative order
//!   they occupy in the merged trace — so per-key folds match the batch
//!   scan bit for bit at any shard count. Only drops aggregate across
//!   keys; they are kept as raw records and canonically re-sorted in
//!   [`StreamAnalyzer::merge`].
//!
//! ## Shard merge
//!
//! [`td_net::ShardedWorld::add_observers`] registers one analyzer per
//! shard; after the run, downcast them back (via
//! [`td_net::TraceObserver::into_any`]) and combine with
//! [`StreamAnalyzer::merge`] — the same union-of-disjoint-tallies shape
//! the audit and telemetry merges already use. Per-key state is disjoint
//! across shards, so merging is concatenation, never reconciliation;
//! a key with data in two parts trips an assertion rather than silently
//! interleaving.

use crate::epochs::DropEvent;
use crate::extract::Departure;
use crate::series::TimeSeries;
use std::any::Any;
use td_engine::{SimDuration, SimTime};
use td_net::{
    canonical_trace_cmp, ChannelId, ConnId, ProtoEvent, TraceEvent, TraceObserver, TraceRecord,
};

/// What a [`StreamAnalyzer`] should compute. Build one per experiment,
/// listing exactly the measurements its report needs.
#[derive(Clone, Debug, Default)]
pub struct StreamSpec {
    queues: Vec<ChannelId>,
    cwnds: Vec<ConnId>,
    utils: Vec<(ChannelId, SimTime, SimTime)>,
    drops: bool,
    departures: Vec<ChannelId>,
    canonical_ties: bool,
}

impl StreamSpec {
    /// An empty spec: computes nothing until measurements are added.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a buffer-occupancy series for `ch`
    /// (streaming [`crate::extract::queue_series`]).
    #[must_use]
    pub fn queue(mut self, ch: ChannelId) -> Self {
        self.queues.push(ch);
        self
    }

    /// Add a cwnd series for `conn`
    /// (streaming [`crate::extract::cwnd_series`]).
    #[must_use]
    pub fn cwnd(mut self, conn: ConnId) -> Self {
        self.cwnds.push(conn);
        self
    }

    /// Add windowed utilization of `ch` over `[t0, t1]`
    /// (streaming [`crate::extract::utilization_in`]).
    #[must_use]
    pub fn utilization(mut self, ch: ChannelId, t0: SimTime, t1: SimTime) -> Self {
        assert!(t1 > t0, "empty utilization window");
        self.utils.push((ch, t0, t1));
        self
    }

    /// Collect all drop events (streaming [`crate::extract::drop_events`]).
    #[must_use]
    pub fn drops(mut self) -> Self {
        self.drops = true;
        self
    }

    /// Collect departures (TxEnd) of `ch`
    /// (streaming [`crate::extract::departures`]).
    #[must_use]
    pub fn departures(mut self, ch: ChannelId) -> Self {
        self.departures.push(ch);
        self
    }

    /// Fold same-instant records in canonical merged-trace order instead
    /// of emission order. Required on sharded worlds (any shard count —
    /// the merged trace is canonically sorted even at `--shards 1`);
    /// wrong for plain serial worlds, whose trace keeps emission order.
    #[must_use]
    pub fn canonical_ties(mut self) -> Self {
        self.canonical_ties = true;
        self
    }
}

/// Streaming utilization state, mirroring the local variables of
/// [`crate::extract::utilization_in`]'s scan loop.
#[derive(Clone, Debug)]
struct UtilState {
    ch: ChannelId,
    t0: SimTime,
    t1: SimTime,
    busy: SimDuration,
    started: Option<SimTime>,
}

/// An incremental fold of the [`extract`](crate::extract) measurements,
/// fed record-by-record through [`td_net::TraceObserver`]. See the
/// [module docs](self) for the parity and shard-merge contracts.
#[derive(Debug)]
pub struct StreamAnalyzer {
    canonical_ties: bool,
    /// Same-instant records awaiting canonical ordering (canonical-ties
    /// mode only; always empty otherwise). Holds only records that
    /// [`StreamAnalyzer::consumes`] accepts.
    pending: Vec<TraceRecord>,
    queues: Vec<(ChannelId, TimeSeries)>,
    cwnds: Vec<(ConnId, TimeSeries)>,
    utils: Vec<UtilState>,
    drops: Option<Vec<TraceRecord>>,
    departures: Vec<(ChannelId, Vec<Departure>)>,
}

impl StreamAnalyzer {
    /// A fresh analyzer computing what `spec` lists.
    pub fn new(spec: &StreamSpec) -> Self {
        StreamAnalyzer {
            canonical_ties: spec.canonical_ties,
            pending: Vec::new(),
            queues: spec
                .queues
                .iter()
                .map(|&ch| (ch, TimeSeries::new()))
                .collect(),
            cwnds: spec.cwnds.iter().map(|&c| (c, TimeSeries::new())).collect(),
            utils: spec
                .utils
                .iter()
                .map(|&(ch, t0, t1)| UtilState {
                    ch,
                    t0,
                    t1,
                    busy: SimDuration::ZERO,
                    started: None,
                })
                .collect(),
            drops: spec.drops.then(Vec::new),
            departures: spec.departures.iter().map(|&ch| (ch, Vec::new())).collect(),
        }
    }

    /// Fold one record. The match arms are line-for-line transcriptions
    /// of the corresponding batch extractors.
    fn fold(&mut self, t: SimTime, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Enqueue { ch, qlen_after, .. } => {
                for (c, ts) in &mut self.queues {
                    if *c == ch {
                        ts.push(t, qlen_after as f64);
                    }
                }
            }
            TraceEvent::TxEnd {
                ch,
                pkt,
                qlen_after,
            } => {
                for (c, ts) in &mut self.queues {
                    if *c == ch {
                        ts.push(t, qlen_after as f64);
                    }
                }
                for u in &mut self.utils {
                    if u.ch == ch {
                        // A TxEnd without a seen TxStart means the
                        // transmission began before observation (clipped
                        // at t0 below via max) — same convention as
                        // `utilization_in`.
                        let s = u.started.take().unwrap_or(SimTime::ZERO);
                        let lo = s.max(u.t0);
                        let hi = t.min(u.t1);
                        if hi > lo {
                            u.busy += hi.since(lo);
                        }
                    }
                }
                for (c, deps) in &mut self.departures {
                    if *c == ch {
                        deps.push(Departure { t, pkt });
                    }
                }
            }
            TraceEvent::TxStart { ch, .. } => {
                for u in &mut self.utils {
                    if u.ch == ch {
                        u.started = Some(t);
                    }
                }
            }
            TraceEvent::Proto {
                conn,
                ev: ProtoEvent::Cwnd { cwnd, .. },
                ..
            } => {
                for (c, ts) in &mut self.cwnds {
                    if *c == conn {
                        ts.push(t, cwnd);
                    }
                }
            }
            TraceEvent::Drop { .. } => {
                if let Some(drops) = &mut self.drops {
                    drops.push(TraceRecord { t, ev: *ev });
                }
            }
            _ => {}
        }
    }

    /// True if folding `ev` would change some measurement: exactly the
    /// records a [`StreamAnalyzer::fold`] arm acts on.
    fn consumes(&self, ev: &TraceEvent) -> bool {
        match *ev {
            TraceEvent::Enqueue { ch, .. } => self.queues.iter().any(|(c, _)| *c == ch),
            TraceEvent::TxEnd { ch, .. } => {
                self.queues.iter().any(|(c, _)| *c == ch)
                    || self.utils.iter().any(|u| u.ch == ch)
                    || self.departures.iter().any(|(c, _)| *c == ch)
            }
            TraceEvent::TxStart { ch, .. } => self.utils.iter().any(|u| u.ch == ch),
            TraceEvent::Proto {
                conn,
                ev: ProtoEvent::Cwnd { .. },
                ..
            } => self.cwnds.iter().any(|(c, _)| *c == conn),
            TraceEvent::Drop { .. } => self.drops.is_some(),
            _ => false,
        }
    }

    /// Sort and fold the buffered same-instant group (canonical-ties
    /// mode).
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut group = std::mem::take(&mut self.pending);
        group.sort_by(canonical_trace_cmp);
        for rec in &group {
            self.fold(rec.t, &rec.ev);
        }
        group.clear();
        self.pending = group; // keep the allocation
    }

    /// Combine per-shard analyzers into one. Per-key state (queues,
    /// cwnds, utilization, departures) is disjoint across shards — every
    /// channel and connection lives wholly on one shard — so combining
    /// is a union; drops aggregate across shards and are canonically
    /// re-sorted into merged-trace order.
    ///
    /// # Panics
    /// Panics on an empty input, on parts built from different specs, or
    /// if two parts carry data for the same key (which would mean the
    /// disjointness invariant broke upstream).
    pub fn merge(parts: Vec<StreamAnalyzer>) -> StreamAnalyzer {
        let mut parts = parts.into_iter();
        let mut acc = parts.next().expect("merge of zero analyzers");
        acc.flush_pending();
        for mut part in parts {
            part.flush_pending();
            assert_eq!(acc.queues.len(), part.queues.len(), "spec mismatch");
            for ((c_a, a), (c_b, b)) in acc.queues.iter_mut().zip(part.queues) {
                assert_eq!(*c_a, c_b, "spec mismatch");
                *a = merge_disjoint_series(std::mem::take(a), b, "channel");
            }
            assert_eq!(acc.cwnds.len(), part.cwnds.len(), "spec mismatch");
            for ((c_a, a), (c_b, b)) in acc.cwnds.iter_mut().zip(part.cwnds) {
                assert_eq!(*c_a, c_b, "spec mismatch");
                *a = merge_disjoint_series(std::mem::take(a), b, "connection");
            }
            assert_eq!(acc.utils.len(), part.utils.len(), "spec mismatch");
            for (a, b) in acc.utils.iter_mut().zip(part.utils) {
                assert_eq!(a.ch, b.ch, "spec mismatch");
                a.busy += b.busy;
                assert!(
                    a.started.is_none() || b.started.is_none(),
                    "channel {:?} has in-flight transmissions on two shards",
                    a.ch
                );
                a.started = a.started.or(b.started);
            }
            match (&mut acc.drops, part.drops) {
                (Some(a), Some(b)) => a.extend(b),
                (None, None) => {}
                _ => panic!("spec mismatch"),
            }
            assert_eq!(acc.departures.len(), part.departures.len(), "spec mismatch");
            for ((c_a, a), (c_b, b)) in acc.departures.iter_mut().zip(part.departures) {
                assert_eq!(*c_a, c_b, "spec mismatch");
                assert!(
                    a.is_empty() || b.is_empty(),
                    "channel {c_b:?} has departures on two shards"
                );
                if a.is_empty() {
                    *a = b;
                }
            }
        }
        if let Some(drops) = &mut acc.drops {
            // Cross-shard aggregation: restore merged-trace order. Within
            // one part the records are already canonically ordered (ties
            // were flushed through the same comparator), so the stable
            // sort only interleaves parts.
            drops.sort_by(canonical_trace_cmp);
        }
        acc
    }

    /// Finish the fold and extract the computed measurements.
    pub fn finish(mut self) -> StreamMetrics {
        self.flush_pending();
        let utils = self
            .utils
            .into_iter()
            .map(|u| {
                let mut busy = u.busy;
                // A transmission still in progress at t1 — the trailing
                // clause of `utilization_in`.
                if let Some(s) = u.started {
                    let lo = s.max(u.t0);
                    if u.t1 > lo {
                        busy += u.t1.since(lo);
                    }
                }
                let frac = busy.as_secs_f64() / u.t1.since(u.t0).as_secs_f64();
                (u.ch, frac)
            })
            .collect();
        let drops = self.drops.map(|recs| {
            recs.into_iter()
                .map(|r| match r.ev {
                    TraceEvent::Drop {
                        ch, pkt, reason, ..
                    } => DropEvent {
                        t: r.t,
                        ch,
                        conn: pkt.conn,
                        seq: pkt.seq,
                        is_data: pkt.is_data(),
                        reason,
                    },
                    _ => unreachable!("drops hold only Drop records"),
                })
                .collect()
        });
        StreamMetrics {
            queues: self.queues,
            cwnds: self.cwnds,
            utils,
            drops,
            departures: self.departures,
        }
    }
}

impl TraceObserver for StreamAnalyzer {
    fn on_record(&mut self, t: SimTime, ev: &TraceEvent) {
        if self.canonical_ties {
            // Filtering before buffering keeps the fold order: the sort is
            // a total order, so the relevant records of a group sort the
            // same with or without the ignored ones between them.
            if !self.consumes(ev) {
                return;
            }
            if self.pending.first().is_some_and(|r| r.t != t) {
                self.flush_pending();
            }
            self.pending.push(TraceRecord { t, ev: *ev });
        } else {
            self.fold(t, ev);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Union of two per-key series under the one-shard-per-key invariant.
fn merge_disjoint_series(a: TimeSeries, b: TimeSeries, what: &str) -> TimeSeries {
    assert!(
        a.is_empty() || b.is_empty(),
        "{what} has series points on two shards"
    );
    if a.is_empty() {
        b
    } else {
        a
    }
}

/// The finished measurements of a [`StreamAnalyzer`]. Accessors panic on
/// keys the [`StreamSpec`] did not list — a converted experiment asking
/// for a measurement it forgot to register is a bug, not an empty result.
#[derive(Debug)]
pub struct StreamMetrics {
    queues: Vec<(ChannelId, TimeSeries)>,
    cwnds: Vec<(ConnId, TimeSeries)>,
    utils: Vec<(ChannelId, f64)>,
    drops: Option<Vec<DropEvent>>,
    departures: Vec<(ChannelId, Vec<Departure>)>,
}

impl StreamMetrics {
    /// The queue-occupancy series of `ch` (must be in the spec).
    pub fn queue(&self, ch: ChannelId) -> &TimeSeries {
        &self
            .queues
            .iter()
            .find(|(c, _)| *c == ch)
            .unwrap_or_else(|| panic!("channel {ch:?} not in the StreamSpec queues"))
            .1
    }

    /// The cwnd series of `conn` (must be in the spec).
    pub fn cwnd(&self, conn: ConnId) -> &TimeSeries {
        &self
            .cwnds
            .iter()
            .find(|(c, _)| *c == conn)
            .unwrap_or_else(|| panic!("connection {conn:?} not in the StreamSpec cwnds"))
            .1
    }

    /// The windowed utilization of `ch` (must be in the spec).
    pub fn utilization(&self, ch: ChannelId) -> f64 {
        self.utils
            .iter()
            .find(|(c, _)| *c == ch)
            .unwrap_or_else(|| panic!("channel {ch:?} not in the StreamSpec utilizations"))
            .1
    }

    /// All drop events, in trace order (the spec must have enabled
    /// [`StreamSpec::drops`]).
    pub fn drops(&self) -> &[DropEvent] {
        self.drops.as_deref().expect("drops not in the StreamSpec")
    }

    /// The departures of `ch`, in trace order (must be in the spec).
    pub fn departures(&self, ch: ChannelId) -> &[Departure] {
        &self
            .departures
            .iter()
            .find(|(c, _)| *c == ch)
            .unwrap_or_else(|| panic!("channel {ch:?} not in the StreamSpec departures"))
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{cwnd_series, departures, drop_events, queue_series, utilization_in};
    use td_engine::SimRng;
    use td_net::{DropReason, NodeId, Packet, PacketId, PacketKind, Trace};

    fn pkt(conn: u32, seq: u64, kind: PacketKind) -> Packet {
        Packet {
            id: PacketId(seq),
            conn: ConnId(conn),
            kind,
            seq,
            size: 500,
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: SimTime::ZERO,
            retx: false,
            ce: false,
            ack: 0,
        }
    }

    /// A deterministic synthetic trace exercising every fold: two
    /// channels' queue/tx activity, two connections' cwnd updates, drops
    /// of several reasons, interleaved and with same-instant bursts.
    fn synthetic_trace(seed: u64, n: usize) -> Trace {
        let mut rng = SimRng::new(seed);
        let mut tr = Trace::new();
        let mut t = SimTime::ZERO;
        for i in 0..n {
            // Bursts: ~1/3 of records share their predecessor's instant.
            if !rng.chance(0.34) {
                t += td_engine::SimDuration::from_micros(rng.next_range(1, 500));
            }
            let ch = ChannelId(rng.next_below(2) as u32);
            let conn = rng.next_below(2) as u32;
            let kind = if rng.chance(0.7) {
                PacketKind::Data
            } else {
                PacketKind::Ack
            };
            let p = pkt(conn, i as u64, kind);
            let qlen = rng.next_below(20) as u32;
            let ev = match rng.next_below(6) {
                0 => TraceEvent::Enqueue {
                    ch,
                    pkt: p,
                    qlen_after: qlen,
                },
                1 => TraceEvent::TxStart { ch, pkt: p },
                2 => TraceEvent::TxEnd {
                    ch,
                    pkt: p,
                    qlen_after: qlen,
                },
                3 => TraceEvent::Drop {
                    ch,
                    pkt: p,
                    reason: if rng.chance(0.5) {
                        DropReason::BufferFull
                    } else {
                        DropReason::EarlyDrop
                    },
                    qlen,
                },
                4 => TraceEvent::Proto {
                    conn: ConnId(conn),
                    node: NodeId(conn),
                    ev: ProtoEvent::Cwnd {
                        cwnd: rng.next_below(30) as f64 + 1.0,
                        ssthresh: 32.0,
                    },
                },
                _ => TraceEvent::Deliver {
                    node: NodeId(conn),
                    pkt: p,
                },
            };
            tr.push(t, ev);
        }
        tr
    }

    fn spec(t0: SimTime, t1: SimTime) -> StreamSpec {
        StreamSpec::new()
            .queue(ChannelId(0))
            .queue(ChannelId(1))
            .cwnd(ConnId(0))
            .cwnd(ConnId(1))
            .utilization(ChannelId(0), t0, t1)
            .utilization(ChannelId(1), t0, t1)
            .drops()
            .departures(ChannelId(0))
    }

    fn assert_matches_batch(m: &StreamMetrics, tr: &Trace, t0: SimTime, t1: SimTime) {
        for ch in [ChannelId(0), ChannelId(1)] {
            assert_eq!(*m.queue(ch), queue_series(tr, ch), "queue {ch:?}");
            let batch = utilization_in(tr, ch, t0, t1);
            assert_eq!(
                m.utilization(ch).to_bits(),
                batch.to_bits(),
                "utilization {ch:?}"
            );
        }
        for conn in [ConnId(0), ConnId(1)] {
            assert_eq!(*m.cwnd(conn), cwnd_series(tr, conn), "cwnd {conn:?}");
        }
        let batch_drops = drop_events(tr);
        assert_eq!(m.drops().len(), batch_drops.len());
        for (a, b) in m.drops().iter().zip(&batch_drops) {
            assert_eq!((a.t, a.ch, a.conn, a.seq), (b.t, b.ch, b.conn, b.seq));
            assert_eq!(a.is_data, b.is_data);
        }
        let batch_deps = departures(tr, ChannelId(0));
        assert_eq!(m.departures(ChannelId(0)).len(), batch_deps.len());
        for (a, b) in m.departures(ChannelId(0)).iter().zip(&batch_deps) {
            assert_eq!((a.t, a.pkt.id, a.pkt.seq), (b.t, b.pkt.id, b.pkt.seq));
        }
    }

    /// Emission-order folding matches batch extraction over the same
    /// trace, field for field and bit for bit.
    #[test]
    fn serial_fold_matches_batch_extractors() {
        let tr = synthetic_trace(42, 4000);
        let (t0, t1) = (SimTime::from_millis(50), SimTime::from_millis(900));
        let mut an = StreamAnalyzer::new(&spec(t0, t1));
        for r in tr.records() {
            an.on_record(r.t, &r.ev);
        }
        let m = an.finish();
        assert_matches_batch(&m, &tr, t0, t1);
    }

    /// Splitting a canonically-sorted trace across "shards" by channel
    /// (per-key disjointness) and merging the per-shard analyzers
    /// reproduces the whole-trace batch results — including same-instant
    /// groups folded through `canonical_ties`.
    #[test]
    fn sharded_fold_with_canonical_ties_matches_batch() {
        let mut records: Vec<TraceRecord> = synthetic_trace(7, 4000).records().to_vec();
        // The merged trace a ShardedWorld produces is canonically
        // sorted; build that view first.
        records.sort_by(canonical_trace_cmp);
        let mut sorted = Trace::new();
        let mut shard_views: Vec<Vec<TraceRecord>> = vec![Vec::new(), Vec::new()];
        for r in &records {
            sorted.push(r.t, r.ev);
            // Partition by channel; Proto/Deliver records go by
            // connection/node id, mirroring endpoint placement.
            let shard = match r.ev {
                TraceEvent::Enqueue { ch, .. }
                | TraceEvent::TxStart { ch, .. }
                | TraceEvent::TxEnd { ch, .. }
                | TraceEvent::Drop { ch, .. } => ch.0 as usize,
                TraceEvent::Proto { conn, .. } => conn.0 as usize,
                TraceEvent::Deliver { node, .. } | TraceEvent::Send { node, .. } => node.0 as usize,
            };
            shard_views[shard].push(*r);
        }
        let (t0, t1) = (SimTime::from_millis(50), SimTime::from_millis(900));
        let sp = spec(t0, t1).canonical_ties();
        let parts: Vec<StreamAnalyzer> = shard_views
            .iter()
            .map(|view| {
                let mut an = StreamAnalyzer::new(&sp);
                // Each shard sees its records in *dispatch* order, which
                // within an instant need not match the canonical order —
                // feed them reversed within the whole view to prove the
                // tie buffering reorders correctly. (Reversing breaks
                // cross-instant order too, so reverse only within each
                // same-t group.)
                let mut i = 0;
                while i < view.len() {
                    let j = view[i..]
                        .iter()
                        .position(|r| r.t != view[i].t)
                        .map_or(view.len(), |p| i + p);
                    for r in view[i..j].iter().rev() {
                        an.on_record(r.t, &r.ev);
                    }
                    i = j;
                }
                an
            })
            .collect();
        let m = StreamAnalyzer::merge(parts).finish();
        assert_matches_batch(&m, &sorted, t0, t1);
    }

    /// Records no spec entry consumes never reach `pending`, and dropping
    /// them changes nothing: an analyzer fed a trace that interleaves
    /// ignored records at the same instants as kept ones finishes exactly
    /// like one fed only the kept records, with and without
    /// `canonical_ties`.
    #[test]
    fn ignored_records_are_filtered_before_buffering() {
        let tr = synthetic_trace(11, 4000);
        let (t0, t1) = (SimTime::from_millis(50), SimTime::from_millis(900));
        // Channel 0 and connection 1 only, no drops: channel 1's queue
        // and tx records, connection 0's cwnds, drops and deliveries are
        // all ignored, and the synthetic trace puts them at the same
        // instants as kept records.
        let narrow = StreamSpec::new()
            .queue(ChannelId(0))
            .cwnd(ConnId(1))
            .utilization(ChannelId(0), t0, t1)
            .departures(ChannelId(0));
        // Relevance written out independently of `consumes`.
        let relevant = |ev: &TraceEvent| match *ev {
            TraceEvent::Enqueue { ch, .. }
            | TraceEvent::TxStart { ch, .. }
            | TraceEvent::TxEnd { ch, .. } => ch == ChannelId(0),
            TraceEvent::Proto {
                conn,
                ev: ProtoEvent::Cwnd { .. },
                ..
            } => conn == ConnId(1),
            _ => false,
        };
        let mut groups_mixed = 0;
        for sp in [narrow.clone(), narrow.canonical_ties()] {
            let mut fed_all = StreamAnalyzer::new(&sp);
            let mut fed_relevant = StreamAnalyzer::new(&sp);
            let mut ignored = 0;
            let mut prev: Option<(SimTime, bool)> = None;
            for r in tr.records() {
                let kept = relevant(&r.ev);
                fed_all.on_record(r.t, &r.ev);
                assert!(
                    fed_all.pending.iter().all(|p| relevant(&p.ev)),
                    "an ignored record was buffered"
                );
                if kept {
                    fed_relevant.on_record(r.t, &r.ev);
                } else {
                    ignored += 1;
                }
                if prev.is_some_and(|(t, k)| t == r.t && k != kept) {
                    groups_mixed += 1;
                }
                prev = Some((r.t, kept));
            }
            assert!(ignored > 1000, "the trace must carry ignored records");
            assert_eq!(
                format!("{:?}", fed_all.finish()),
                format!("{:?}", fed_relevant.finish())
            );
        }
        assert!(
            groups_mixed > 100,
            "ignored and kept records must share instants"
        );
    }

    /// The trailing in-flight transmission is clipped to t1, exactly as
    /// `utilization_in` does.
    #[test]
    fn utilization_counts_inflight_transmission() {
        let ch = ChannelId(0);
        let (t0, t1) = (SimTime::ZERO, SimTime::from_millis(100));
        let mut an = StreamAnalyzer::new(&StreamSpec::new().utilization(ch, t0, t1));
        an.on_record(
            SimTime::from_millis(90),
            &TraceEvent::TxStart {
                ch,
                pkt: pkt(0, 1, PacketKind::Data),
            },
        );
        let m = an.finish();
        assert!((m.utilization(ch) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not in the StreamSpec")]
    fn missing_key_panics() {
        let m = StreamAnalyzer::new(&StreamSpec::new()).finish();
        let _ = m.queue(ChannelId(0));
    }
}

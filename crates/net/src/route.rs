//! Compressed per-switch routing tables.
//!
//! The dense representation — one `HashMap<NodeId, ChannelId>` entry per
//! (switch, host) pair — is O(switches × hosts) and dominates the memory
//! footprint of large chains: at 640 clusters the next-hop maps rival the
//! simulation state itself, and at 6400 clusters they alone blow the
//! budget. This module replaces it with a sorted run-length table:
//!
//! * **Runs.** Destinations with consecutive node ids that share a
//!   next-hop channel collapse into one `(start ..= end) → channel` run.
//!   Topology builders allocate host ids in walk order, so a switch in a
//!   chain sees exactly "everything to my left", "my local hosts",
//!   "everything to my right" — a handful of runs regardless of scale.
//!   Lookup is a binary search over the runs.
//! * **Default-route elision.** When a switch routes to *every* host
//!   (the common, validated case), the channel covering the most hosts —
//!   the trunk direction — becomes the switch's default route and its
//!   runs are dropped; only local exceptions stay materialized. Elision
//!   is applied only on full coverage, so a lookup on a table without a
//!   default still distinguishes "no route" (→ dispatch panic) from a
//!   routed destination, exactly like the dense map did.
//!
//! A run may span node ids that are not hosts (switch ids interleave with
//! host ids in every builder); that is sound because packets are only
//! ever destined to hosts, and [`RouteTable::extend`] widens a run across
//! a gap only when no *host* id in the gap was skipped. The semantic
//! content of a table — what [`crate::World::structure_digest`] must
//! hash — is therefore its resolution over host ids only, exposed as
//! [`RouteTable::canonical_host_segments`].

use crate::packet::NodeId;
use crate::world::ChannelId;

/// One maximal range of destination ids sharing a next-hop channel.
/// Bounds are inclusive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Run {
    pub start: u32,
    pub end: u32,
    pub ch: ChannelId,
}

/// A compressed next-hop table: sorted disjoint runs plus an optional
/// default channel covering every id no run claims.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub(crate) struct RouteTable {
    runs: Vec<Run>,
    default: Option<ChannelId>,
}

impl RouteTable {
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Next-hop channel for `dst`: binary search over the runs, falling
    /// back to the default route. `None` means "no route" and makes the
    /// dispatch site panic, as the dense map's missing entry did.
    #[inline]
    pub fn lookup(&self, dst: NodeId) -> Option<ChannelId> {
        let i = self.runs.partition_point(|r| r.end < dst.0);
        match self.runs.get(i) {
            Some(r) if r.start <= dst.0 => Some(r.ch),
            _ => self.default,
        }
    }

    /// Append `(dst → ch)` during an ascending-destination build
    /// ([`crate::World::compute_routes`]): extends the last run when this
    /// switch also routed the immediately preceding host (`prev_host`)
    /// over the same channel — which guarantees no host id in the widened
    /// gap was skipped — and starts a new run otherwise.
    pub fn extend(&mut self, prev_host: Option<u32>, dst: NodeId, ch: ChannelId) {
        if let Some(last) = self.runs.last_mut() {
            debug_assert!(last.end < dst.0, "extend requires ascending destinations");
            if last.ch == ch && Some(last.end) == prev_host {
                last.end = dst.0;
                return;
            }
        }
        self.runs.push(Run {
            start: dst.0,
            end: dst.0,
            ch,
        });
    }

    /// Append the run `(start ..= end) → ch` during an ascending build
    /// (the tree pass of [`crate::World::compute_routes`]): merges into
    /// the last run when it has the same channel. The caller guarantees
    /// that no host id between the last run's end and `start` is skipped.
    pub fn push_run(&mut self, start: u32, end: u32, ch: ChannelId) {
        if let Some(last) = self.runs.last_mut() {
            debug_assert!(last.end < start, "push_run requires ascending runs");
            if last.ch == ch {
                last.end = end;
                return;
            }
        }
        self.runs.push(Run { start, end, ch });
    }

    /// Install a single route, preserving the run invariants: overwrites
    /// inside an existing run split it, neighbors with the same channel
    /// merge. This is the [`crate::World::set_route`] path — manual
    /// wiring of small worlds, never the bulk builder.
    pub fn insert(&mut self, dst: NodeId, ch: ChannelId) {
        let d = dst.0;
        let i = self.runs.partition_point(|r| r.end < d);
        match self.runs.get(i).copied() {
            Some(r) if r.start <= d => {
                // Inside an existing run: split around the overwrite.
                if r.ch == ch {
                    return;
                }
                let mut repl = Vec::with_capacity(3);
                if r.start < d {
                    repl.push(Run {
                        start: r.start,
                        end: d - 1,
                        ch: r.ch,
                    });
                }
                repl.push(Run {
                    start: d,
                    end: d,
                    ch,
                });
                if d < r.end {
                    repl.push(Run {
                        start: d + 1,
                        end: r.end,
                        ch: r.ch,
                    });
                }
                self.runs.splice(i..=i, repl);
            }
            _ => self.runs.insert(
                i,
                Run {
                    start: d,
                    end: d,
                    ch,
                },
            ),
        }
        self.coalesce();
    }

    /// Merge touching same-channel runs back into maximal form. O(runs),
    /// which is fine on the manual [`RouteTable::insert`] path; the bulk
    /// builder produces maximal runs directly.
    fn coalesce(&mut self) {
        let mut w = 0;
        for i in 1..self.runs.len() {
            let r = self.runs[i];
            let last = &mut self.runs[w];
            if last.ch == r.ch && u64::from(last.end) + 1 == u64::from(r.start) {
                last.end = r.end;
            } else {
                w += 1;
                self.runs[w] = r;
            }
        }
        self.runs.truncate(w + 1);
    }

    /// Drop every run, keeping the allocation for a rebuild.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.default = None;
    }

    /// Number of hosts this table resolves a route for. `host_ids` is the
    /// ascending list of all host node ids in the world.
    pub fn covered_hosts(&self, host_ids: &[u32]) -> usize {
        if self.default.is_some() {
            return host_ids.len();
        }
        self.runs
            .iter()
            .map(|r| {
                host_ids.partition_point(|&h| h <= r.end)
                    - host_ids.partition_point(|&h| h < r.start)
            })
            .sum()
    }

    /// Host ids (from the ascending `host_ids` list) this table has *no*
    /// route for.
    pub fn missing_hosts(&self, host_ids: &[u32]) -> Vec<u32> {
        host_ids
            .iter()
            .copied()
            .filter(|&h| self.lookup(NodeId(h)).is_none())
            .collect()
    }

    /// Default-route elision: when the table covers every host, replace
    /// the runs of the channel reaching the most hosts (ties broken by
    /// smaller channel id, for determinism) with a single default. Only
    /// applied on full coverage — a partial table keeps returning `None`
    /// for its unreachable hosts instead of silently misrouting them —
    /// and a no-op if the table already has a default.
    pub fn elide_default(&mut self, host_ids: &[u32]) {
        if self.default.is_some() || self.runs.is_empty() {
            return;
        }
        let mut per_ch: Vec<(u32, usize)> = Vec::new(); // (channel id, hosts)
        let mut total = 0usize;
        for r in &self.runs {
            let hosts = host_ids.partition_point(|&h| h <= r.end)
                - host_ids.partition_point(|&h| h < r.start);
            total += hosts;
            match per_ch.iter_mut().find(|(c, _)| *c == r.ch.0) {
                Some((_, n)) => *n += hosts,
                None => per_ch.push((r.ch.0, hosts)),
            }
        }
        if total < host_ids.len() {
            return;
        }
        let (best, _) = per_ch
            .into_iter()
            .max_by_key(|&(c, n)| (n, std::cmp::Reverse(c)))
            .expect("non-empty runs");
        self.default = Some(ChannelId(best));
        self.runs.retain(|r| r.ch.0 != best);
        self.runs.shrink_to_fit();
    }

    /// Release surplus capacity after a bulk build.
    pub fn shrink(&mut self) {
        self.runs.shrink_to_fit();
    }

    /// Heap bytes held by this table.
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<Run>()
    }

    /// The table's semantic content: maximal segments of *host* ids with
    /// a common resolved next-hop, as `(first_host, last_host, channel)`.
    /// Two tables that resolve identically over every host — whatever
    /// their run decomposition, default elision, or behavior on switch
    /// ids — produce identical segments, which is what makes this the
    /// right input for the structure digest's replica cross-check.
    pub fn canonical_host_segments(&self, host_ids: &[u32]) -> Vec<(u32, u32, u32)> {
        // Effective (start, end, ch) coverage in id space: runs, with
        // gaps filled by the default route when one exists.
        let mut cover: Vec<(u32, u32, ChannelId)> = Vec::new();
        let mut pos: u64 = 0;
        for r in &self.runs {
            if let Some(d) = self.default {
                if pos < u64::from(r.start) {
                    cover.push((pos as u32, r.start - 1, d));
                }
            }
            cover.push((r.start, r.end, r.ch));
            pos = u64::from(r.end) + 1;
        }
        if let Some(d) = self.default {
            if pos <= u64::from(u32::MAX) {
                cover.push((pos as u32, u32::MAX, d));
            }
        }
        // Clip each span to the hosts it contains, then merge adjacent
        // (in host order) segments sharing a channel.
        let mut out: Vec<(u32, u32, u32)> = Vec::new();
        let mut prev_host_idx: Option<usize> = None;
        for (start, end, ch) in cover {
            let lo = host_ids.partition_point(|&h| h < start);
            let hi = host_ids.partition_point(|&h| h <= end);
            if lo == hi {
                continue;
            }
            match out.last_mut() {
                Some(last) if last.2 == ch.0 && prev_host_idx == Some(lo) => {
                    last.1 = host_ids[hi - 1];
                }
                _ => out.push((host_ids[lo], host_ids[hi - 1], ch.0)),
            }
            prev_host_idx = Some(hi);
        }
        out
    }

    #[cfg(test)]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    #[cfg(test)]
    pub fn default_route(&self) -> Option<ChannelId> {
        self.default
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch(c: u32) -> ChannelId {
        ChannelId(c)
    }

    #[test]
    fn insert_splits_and_merges() {
        let mut t = RouteTable::new();
        t.insert(NodeId(5), ch(1));
        t.insert(NodeId(6), ch(1));
        t.insert(NodeId(4), ch(1));
        assert_eq!(t.run_count(), 1, "adjacent same-channel inserts merge");
        t.insert(NodeId(5), ch(2));
        assert_eq!(t.run_count(), 3, "overwrite splits the run");
        assert_eq!(t.lookup(NodeId(4)), Some(ch(1)));
        assert_eq!(t.lookup(NodeId(5)), Some(ch(2)));
        assert_eq!(t.lookup(NodeId(6)), Some(ch(1)));
        assert_eq!(t.lookup(NodeId(7)), None);
        t.insert(NodeId(5), ch(2));
        assert_eq!(t.run_count(), 3, "idempotent re-insert");
        // Bridge the split back together.
        t.insert(NodeId(5), ch(1));
        assert_eq!(t.run_count(), 1, "same-channel overwrite re-merges");
    }

    #[test]
    fn extend_bridges_only_hostless_gaps() {
        let mut t = RouteTable::new();
        // Hosts 1, 3, 7; host 5 skipped for this switch.
        t.extend(None, NodeId(1), ch(9));
        t.extend(Some(1), NodeId(3), ch(9));
        assert_eq!(t.run_count(), 1, "gap id 2 holds no skipped host");
        t.extend(Some(5), NodeId(7), ch(9));
        assert_eq!(t.run_count(), 2, "host 5 was skipped: no bridge");
        assert_eq!(t.lookup(NodeId(2)), Some(ch(9)), "non-host id inside run");
        assert_eq!(t.lookup(NodeId(5)), None);
    }

    #[test]
    fn elision_requires_full_coverage() {
        let hosts = [1, 3, 5];
        let mut partial = RouteTable::new();
        partial.insert(NodeId(1), ch(1));
        partial.insert(NodeId(3), ch(1));
        partial.elide_default(&hosts);
        assert_eq!(partial.default_route(), None, "host 5 unreachable");
        assert_eq!(partial.lookup(NodeId(5)), None);

        let mut full = RouteTable::new();
        full.insert(NodeId(1), ch(1));
        full.insert(NodeId(3), ch(1));
        full.insert(NodeId(5), ch(2));
        full.elide_default(&hosts);
        assert_eq!(full.default_route(), Some(ch(1)), "majority channel wins");
        assert_eq!(full.run_count(), 1, "only the exception stays");
        assert_eq!(full.lookup(NodeId(1)), Some(ch(1)));
        assert_eq!(full.lookup(NodeId(3)), Some(ch(1)));
        assert_eq!(full.lookup(NodeId(5)), Some(ch(2)));
    }

    #[test]
    fn canonical_segments_ignore_representation() {
        let hosts = [1, 3, 5, 7];
        // Dense inserts, no default.
        let mut a = RouteTable::new();
        for h in [1, 3] {
            a.insert(NodeId(h), ch(1));
        }
        for h in [5, 7] {
            a.insert(NodeId(h), ch(2));
        }
        // Run-built then elided.
        let mut b = RouteTable::new();
        b.extend(None, NodeId(1), ch(1));
        b.extend(Some(1), NodeId(3), ch(1));
        b.extend(Some(3), NodeId(5), ch(2));
        b.extend(Some(5), NodeId(7), ch(2));
        b.elide_default(&hosts);
        assert_ne!(a.default_route(), b.default_route());
        assert_eq!(
            a.canonical_host_segments(&hosts),
            b.canonical_host_segments(&hosts),
            "same resolution, same semantics"
        );
        assert_eq!(
            a.canonical_host_segments(&hosts),
            vec![(1, 3, 1), (5, 7, 2)]
        );
    }

    #[test]
    fn covered_and_missing_hosts() {
        let hosts = [2, 4, 6];
        let mut t = RouteTable::new();
        t.insert(NodeId(2), ch(0));
        t.insert(NodeId(6), ch(0));
        assert_eq!(t.covered_hosts(&hosts), 2);
        assert_eq!(t.missing_hosts(&hosts), vec![4]);
    }
}

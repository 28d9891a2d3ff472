//! Route-equivalence property test: the compressed run-length routing
//! tables must resolve exactly the same next-hop as a reference dense
//! map built by an independent BFS over the public topology surface —
//! for every (switch, host) pair, on every topology family the repo
//! ships (dumbbell, chain, star, scale cluster chains up to the
//! 640-cluster `scale100k` chain), and on the graphs that fall back from
//! the tree pass to the BFS (a ring of switches, hosts out of walk
//! order).
//!
//! The regression pins that make this a safe refactor live elsewhere
//! and are unchanged by the compression work: the golden output hash
//! (`runner_determinism.rs`), the serial-vs-sharded report diff
//! (`scale::tests::quick_report_is_shard_invariant` and the CI
//! determinism job), and the TDSW snapshot round-trip
//! (`snapshot_roundtrip.rs`).

use td_engine::{telemetry, SimDuration};
use td_experiments::registry::Profile;
use td_experiments::scale::{build_chain, ScaleParams};
use td_net::{ChannelId, LinkSpec, NodeId, World};

/// Reference next hops toward host `dst`: a BFS from scratch over the
/// public channel list (`incoming[n]` = channels into `n`, ascending
/// id), indexed by node, `None` where `dst` is unreachable. Same
/// tie-break contract as `World::compute_routes` (hop count, then
/// ascending channel id), but none of its code or data structures.
fn reference_next_hops(
    incoming: &[Vec<(NodeId, ChannelId)>],
    dst: NodeId,
) -> Vec<Option<ChannelId>> {
    let mut via = vec![None; incoming.len()];
    let mut seen = vec![false; incoming.len()];
    let mut frontier = std::collections::VecDeque::new();
    seen[dst.0 as usize] = true;
    frontier.push_back(dst);
    while let Some(u) = frontier.pop_front() {
        for &(src, ch) in &incoming[u.0 as usize] {
            if !seen[src.0 as usize] {
                seen[src.0 as usize] = true;
                via[src.0 as usize] = Some(ch);
                frontier.push_back(src);
            }
        }
    }
    via
}

/// Every (switch, host) pair must resolve identically through the
/// compressed table and the reference BFS — including pairs the
/// reference says are unreachable (both sides `None`). Checked one
/// destination at a time, so memory stays O(nodes) at any scale.
fn assert_equivalent(w: &World, label: &str) {
    let n = w.node_count();
    let mut incoming: Vec<Vec<(NodeId, ChannelId)>> = vec![Vec::new(); n];
    for ch in w.channel_ids() {
        let (src, dst) = w.channel_nodes(ch);
        incoming[dst.0 as usize].push((src, ch));
    }
    for adj in &mut incoming {
        adj.sort_by_key(|&(_, ch)| ch.0);
    }
    let switches: Vec<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|&s| w.is_switch(s))
        .collect();
    let mut pairs = 0u64;
    for host in (0..n as u32).map(NodeId).filter(|&h| !w.is_switch(h)) {
        let via = reference_next_hops(&incoming, host);
        for &sw in &switches {
            pairs += 1;
            assert_eq!(
                w.route_lookup(sw, host),
                via[sw.0 as usize],
                "{label}: next-hop mismatch at switch {} ({}) → host {} ({})",
                sw.0,
                w.node_name(sw),
                host.0,
                w.node_name(host),
            );
        }
    }
    assert!(pairs > 0, "{label}: no (switch, host) pairs checked");
}

/// Run `build` and return what it built plus the number of destinations
/// its route computations sent through the BFS fallback (0 when every
/// `compute_routes` call took the tree pass).
fn with_bfs_dests<T>(build: impl FnOnce() -> T) -> (T, u64) {
    telemetry::reset();
    let built = build();
    (built, telemetry::snapshot().route_bfs_dests)
}

#[test]
fn dumbbell_matches_reference() {
    let (d, bfs) = with_bfs_dests(|| {
        td_net::dumbbell(
            1,
            LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(20)),
            LinkSpec::paper_host_link(),
            SimDuration::from_micros(100),
        )
    });
    assert_eq!(bfs, 0, "the dumbbell is a tree");
    assert_equivalent(&d.world, "dumbbell");
}

#[test]
fn chains_match_reference() {
    for n_switches in [2, 4, 9] {
        let (c, bfs) = with_bfs_dests(|| {
            td_net::chain(
                1,
                n_switches,
                LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(30)),
                LinkSpec::paper_host_link(),
                SimDuration::from_micros(100),
            )
        });
        assert_eq!(bfs, 0, "chain-{n_switches} is a tree");
        assert_equivalent(&c.world, &format!("chain-{n_switches}"));
    }
}

#[test]
fn star_matches_reference() {
    let mut w = World::new(1);
    let hub = w.add_switch("hub");
    for i in 0..6 {
        let h = w.add_host(&format!("h{i}"), SimDuration::from_micros(10));
        LinkSpec::paper_host_link().add_between(&mut w, h, hub);
    }
    let ((), bfs) = with_bfs_dests(|| w.compute_routes());
    assert_eq!(bfs, 0, "the star is a tree");
    w.validate_routes();
    assert_equivalent(&w, "star");
}

#[test]
fn scale_cluster_chain_matches_reference() {
    for clusters in [1, 2, 5] {
        let p = ScaleParams {
            clusters,
            conns_per_cluster: 2,
            inter_conns: 2,
            duration_s: 1,
            trace: false,
        };
        let mut w = World::new(9);
        let (_, bfs) = with_bfs_dests(|| build_chain(&mut w, 9, &p));
        assert_eq!(bfs, 0, "scale-{clusters} is a tree");
        assert_equivalent(&w, &format!("scale-{clusters}-clusters"));
    }
}

/// The `scale100k` topology itself: 640 clusters, 2 560 switches × 2 560
/// hosts checked against the reference, on the tree pass, with the
/// compressed size pinned.
#[test]
fn scale_100k_chain_matches_reference() {
    let p = ScaleParams::rung_100k(Profile::Quick);
    let mut w = World::new(1);
    let (_, bfs) = with_bfs_dests(|| build_chain(&mut w, 1, &p));
    assert_eq!(bfs, 0, "the 640-cluster chain is a tree");
    assert_eq!(w.route_table_bytes(), 61_416);
    assert_equivalent(&w, "scale-640-clusters");
}

/// A ring of switches, one host each: cycles make shortest paths tie,
/// so this takes the BFS fallback and must still match the reference.
#[test]
fn switch_ring_matches_reference() {
    let mut w = World::new(1);
    let proc = SimDuration::from_micros(100);
    let switches: Vec<NodeId> = (0..6).map(|i| w.add_switch(&format!("s{i}"))).collect();
    for (i, &s) in switches.iter().enumerate() {
        let h = w.add_host(&format!("h{i}"), proc);
        LinkSpec::paper_host_link().add_between(&mut w, h, s);
    }
    let trunk = LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(20));
    for i in 0..switches.len() {
        trunk.add_between(&mut w, switches[i], switches[(i + 1) % switches.len()]);
    }
    let ((), bfs) = with_bfs_dests(|| w.compute_routes());
    assert_eq!(bfs, 6, "a ring takes the BFS for every host");
    w.validate_routes();
    assert_equivalent(&w, "ring");
}

/// A tree whose host ids are not in walk order: a chain whose trunks are
/// wired before its host links, so the walk from switch 0 runs down the
/// trunk first and meets the hosts right to left, highest id first. This
/// takes the BFS fallback.
#[test]
fn tree_with_hosts_out_of_walk_order_matches_reference() {
    let mut w = World::new(1);
    let proc = SimDuration::from_micros(100);
    let switches: Vec<NodeId> = (0..5).map(|i| w.add_switch(&format!("s{i}"))).collect();
    let trunk = LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(20));
    for pair in switches.windows(2) {
        trunk.add_between(&mut w, pair[0], pair[1]);
    }
    for (i, &s) in switches.iter().enumerate() {
        let h = w.add_host(&format!("h{i}"), proc);
        LinkSpec::paper_host_link().add_between(&mut w, h, s);
    }
    let ((), bfs) = with_bfs_dests(|| w.compute_routes());
    assert_eq!(bfs, 5, "out-of-order hosts take the BFS");
    w.validate_routes();
    assert_equivalent(&w, "reversed-hosts");
}

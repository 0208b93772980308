//! Route memoization for hot communication paths.
//!
//! The b_eff inner loops send millions of messages between a handful of
//! (src, dst) pairs; recomputing (and re-allocating) the link path per
//! message would dominate simulation cost. A single [`RouteTable`]
//! lives on each [`MachineNet`](crate::MachineNet) and is shared by
//! every rank of every world simulated on that machine: routes are
//! computed once per (src, dst) pair per *machine*, not once per rank
//! (the old per-rank `RouteCache` cloned the topology and re-derived
//! identical routes 512 times on the largest modeled system).
//!
//! The table is dense and lock-free: one row per source proc,
//! allocated on that source's first send, holding one write-once slot
//! per destination. A warm lookup is two indexed acquire loads (row,
//! then slot) and hands out a borrow — no lock, no reference count.
//! A miss computes the route once; a concurrent miss on the same slot
//! (two worlds on two replicas never share a table, but a `MachineNet`
//! is `Sync`) waits for the first and sees its route. Slots hold boxed
//! routes, one pointer each, so the 512×512 table of the largest
//! modeled machine costs ~4 MB of slots, not 512² inline routes.
//!
//! The MPI layer looks the route up on the sender (egress half) and
//! again on the receiver (ingress half); the envelope carries only the
//! sender's world rank.

use crate::topology::Topology;
use std::sync::OnceLock;

/// A route split into sender-booked and receiver-booked halves.
#[derive(Debug, Clone)]
pub struct SplitRoute {
    pub egress: Box<[usize]>,
    pub ingress: Box<[usize]>,
}

impl SplitRoute {
    /// The full path: egress links followed by ingress links.
    pub fn full(&self) -> Vec<usize> {
        let mut v = Vec::with_capacity(self.egress.len() + self.ingress.len());
        v.extend_from_slice(&self.egress);
        v.extend_from_slice(&self.ingress);
        v
    }
}

/// One source's destinations: a write-once boxed route per proc.
type Row = Box<[OnceLock<Box<SplitRoute>>]>;

/// Machine-wide, lazily-memoized all-pairs route table.
#[derive(Debug)]
pub struct RouteTable {
    rows: Box<[OnceLock<Row>]>,
}

impl RouteTable {
    /// An empty table for a machine of `procs` processors.
    pub fn new(procs: usize) -> Self {
        Self { rows: (0..procs).map(|_| OnceLock::new()).collect() }
    }

    /// The split route from `src` to `dst` (both halves empty for
    /// self-messages), computing and memoizing it on first use.
    #[inline]
    pub fn split(&self, topo: &Topology, src: usize, dst: usize) -> &SplitRoute {
        let procs = self.rows.len();
        let row = self.rows[src].get_or_init(|| (0..procs).map(|_| OnceLock::new()).collect());
        row[dst].get_or_init(|| {
            let (mut e, mut i) = (Vec::new(), Vec::new());
            topo.route_split_into(src, dst, &mut e, &mut i);
            Box::new(SplitRoute { egress: e.into_boxed_slice(), ingress: i.into_boxed_slice() })
        })
    }

    /// Number of memoized pairs (diagnostics).
    pub fn len(&self) -> usize {
        self.rows
            .iter()
            .filter_map(OnceLock::get)
            .map(|row| row.iter().filter(|slot| slot.get().is_some()).count())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_topology_for_all_pairs() {
        let topo = Topology::Torus2D { dims: [4, 4] };
        let table = RouteTable::new(16);
        for s in 0..16 {
            for d in 0..16 {
                let sr = table.split(&topo, s, d);
                let (mut e, mut i) = (Vec::new(), Vec::new());
                topo.route_split_into(s, d, &mut e, &mut i);
                assert_eq!(&*sr.egress, e.as_slice(), "{s}->{d}");
                assert_eq!(&*sr.ingress, i.as_slice(), "{s}->{d}");
                assert_eq!(sr.full(), topo.route(s, d), "{s}->{d}");
            }
        }
        assert_eq!(table.len(), 256);
    }

    #[test]
    fn table_does_not_grow_on_repeats() {
        let topo = Topology::Ring { procs: 8 };
        let table = RouteTable::new(8);
        table.split(&topo, 0, 1);
        table.split(&topo, 0, 1);
        table.split(&topo, 0, 1);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn repeated_lookups_share_one_allocation() {
        let topo = Topology::Crossbar { procs: 4 };
        let table = RouteTable::new(4);
        let a = table.split(&topo, 1, 3);
        let b = table.split(&topo, 1, 3);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn self_route_is_empty() {
        let table = RouteTable::new(4);
        let sr = table.split(&Topology::Crossbar { procs: 4 }, 2, 2);
        assert!(sr.egress.is_empty() && sr.ingress.is_empty());
    }

    #[test]
    fn concurrent_warmup_is_consistent() {
        let topo = Topology::Torus3D { dims: [4, 4, 4] };
        let table = RouteTable::new(64);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (table, topo) = (&table, &topo);
                s.spawn(move || {
                    for src in 0..64 {
                        let dst = (src + t + 1) % 64;
                        let sr = table.split(topo, src, dst);
                        assert_eq!(sr.full(), topo.route(src, dst));
                    }
                });
            }
        });
        assert_eq!(table.len(), 64 * 8, "every pair memoized exactly once");
    }
}

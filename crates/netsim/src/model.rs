//! The machine network cost model.
//!
//! [`MachineNet`] combines a [`Topology`] with per-link-kind parameters
//! ([`NetParams`]) and prices individual message transfers. The model is
//! LogGP-flavored:
//!
//! * `o_send` / `o_recv` — per-message CPU overheads (applied to the
//!   rank's virtual clock by the MPI engine),
//! * per-link latency — head-of-message propagation,
//! * per-link byte time — serial occupancy (1/bandwidth), reserved on
//!   the link's [`Resource`](beff_sim::Resource) so that
//!   concurrent messages crossing the same wire contend,
//! * streaming/pipelining — a message occupies consecutive links in a
//!   pipelined fashion, so an uncontended transfer costs
//!   `sum(latencies) + bytes * max(byte_time)`, not the sum of
//!   per-link transfer times.
//!
//! An optional **backplane** resource models machines whose aggregate
//! memory bandwidth saturates before the per-proc ports do (classic
//! shared-memory SMPs like the HP-V).
//!
//! Shared resources (torus hops, NICs, node buses, the backplane) can
//! additionally run in **fair-share contention mode**
//! ([`NetParams::contention`]): queued traffic is billed `factor` × its
//! serial time, so K simultaneous streams share the wire at
//! `bandwidth / factor` aggregate while an uncontended stream (e.g.
//! ping-pong) still sees the full rate. This reproduces the gap real
//! machines show between single-stream and many-stream effective rates
//! that ideal FIFO packing cannot express.

use crate::routing::{RouteTable, SplitRoute};
use crate::topology::{LinkKind, Topology};
use beff_json::{Json, ToJson};
use beff_sim::link::Link;
use beff_sim::units::{byte_time, Secs};
use std::sync::atomic::{AtomicBool, Ordering};

/// Latency/bandwidth pair for one link kind.
#[derive(Debug, Clone, Copy)]
pub struct Tier {
    /// Head latency in seconds.
    pub latency: Secs,
    /// Bandwidth in MByte/s (binary MB, matching the paper's units).
    pub mbps: f64,
}

impl Tier {
    pub const fn new(latency: Secs, mbps: f64) -> Self {
        Self { latency, mbps }
    }
    #[inline]
    pub fn byte_time(&self) -> Secs {
        byte_time(self.mbps)
    }
}

impl ToJson for Tier {
    fn to_json(&self) -> Json {
        Json::object()
            .field("latency", &self.latency)
            .field("mbps", &self.mbps)
            .build()
    }
}

/// Cost parameters of a machine's communication subsystem.
#[derive(Debug, Clone)]
pub struct NetParams {
    /// Sender CPU overhead per message (seconds).
    pub o_send: Secs,
    /// Receiver CPU overhead per message (seconds).
    pub o_recv: Secs,
    /// Bandwidth of a rank-to-self message (local memcpy), MByte/s.
    pub self_mbps: f64,
    /// Per-proc transmit/receive port (each direction separately).
    pub port: Tier,
    /// Per-proc memory system: all inbound *and* outbound bytes cross
    /// it, so bidirectional traffic halves the per-direction rate.
    pub node_mem: Tier,
    /// Ring/torus hop.
    pub hop: Tier,
    /// Reserved: SMP node bus aggregate (currently not routed — the
    /// per-rank NodeMem lanes bound node throughput; see topology docs).
    pub membus: Tier,
    /// SMP node NIC (both directions).
    pub nic: Tier,
    /// Optional machine-wide aggregate bandwidth ceiling.
    pub backplane: Option<Tier>,
    /// Fair-share contention factor for *shared* resources (torus hops,
    /// NICs, node buses, the backplane — see [`LinkKind::is_shared`]):
    /// a message that has to queue behind other traffic occupies
    /// `factor` × its serial time, so K simultaneous streams share the
    /// wire at `bandwidth / factor` aggregate while a lone stream still
    /// sees the full rate. `1.0` reproduces ideal FIFO packing
    /// bit-for-bit; real arbitration measures above it (calibrated
    /// per machine against the paper's Table 1).
    pub contention: f64,
}

impl Default for NetParams {
    /// A generic, unremarkable MPP: ~10 us latency, ~300 MB/s ports,
    /// ~1 GB/s hops. Machine crates override everything.
    fn default() -> Self {
        Self {
            o_send: 3e-6,
            o_recv: 3e-6,
            self_mbps: 2000.0,
            port: Tier::new(2e-6, 300.0),
            node_mem: Tier::new(0.0, 330.0),
            hop: Tier::new(0.5e-6, 1000.0),
            membus: Tier::new(1e-6, 800.0),
            nic: Tier::new(5e-6, 150.0),
            backplane: None,
            contention: 1.0,
        }
    }
}

impl ToJson for NetParams {
    fn to_json(&self) -> Json {
        Json::object()
            .field("o_send", &self.o_send)
            .field("o_recv", &self.o_recv)
            .field("self_mbps", &self.self_mbps)
            .field("port", &self.port)
            .field("node_mem", &self.node_mem)
            .field("hop", &self.hop)
            .field("membus", &self.membus)
            .field("nic", &self.nic)
            .field("backplane", &self.backplane)
            .field("contention", &self.contention)
            .build()
    }
}

impl NetParams {
    fn tier_for(&self, kind: LinkKind) -> Tier {
        match kind {
            LinkKind::PortOut | LinkKind::PortIn => self.port,
            LinkKind::NodeMem => self.node_mem,
            LinkKind::Hop => self.hop,
            LinkKind::MemBus => self.membus,
            LinkKind::NicOut | LinkKind::NicIn => self.nic,
        }
    }
}

/// Outcome of pricing one message (full-path form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// When the sender-side resource is free again (send completion for
    /// buffered/eager semantics).
    pub injected: Secs,
    /// When the last byte is available at the receiver.
    pub arrival: Secs,
}

/// Outcome of pricing the egress portion of a message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Egress {
    /// Sender-side completion (first egress resource free again).
    pub injected: Secs,
    /// When the stream began flowing on the last egress link (the
    /// earliest the ingress side can start draining).
    pub head: Secs,
    /// When the last byte left the egress path.
    pub finish: Secs,
}

/// A topology instantiated with links and ready to price transfers.
#[derive(Debug)]
pub struct MachineNet {
    topo: Topology,
    params: NetParams,
    links: Vec<Link>,
    backplane: Option<Link>,
    routes: RouteTable,
    /// Held by the one world run booking this net's links
    /// ([`try_lease`](Self::try_lease)).
    leased: AtomicBool,
}

/// The exclusive right to book a [`MachineNet`]'s links for one world
/// run; dropping it releases the net.
///
/// Link booking is single-writer (see [`Resource`](beff_sim::Resource)):
/// within a world the token scheduler orders every booking, and the
/// lease keeps a second world off the net until the first has joined.
/// Taking and releasing the lease are an acquire/release pair, so a
/// run on one host thread sees every booking a previous run made on
/// another.
#[derive(Debug)]
pub struct NetLease<'a> {
    held: &'a AtomicBool,
}

impl Drop for NetLease<'_> {
    fn drop(&mut self) {
        self.held.store(false, Ordering::Release);
    }
}

impl MachineNet {
    pub fn new(topo: Topology, params: NetParams) -> Self {
        let links = (0..topo.num_links())
            .map(|l| {
                let kind = topo.link_kind(l);
                let tier = params.tier_for(kind);
                let factor = if kind.is_shared() { params.contention } else { 1.0 };
                Link::with_contention(tier.latency, tier.byte_time(), factor)
            })
            .collect();
        let backplane = params
            .backplane
            .map(|t| Link::with_contention(t.latency, t.byte_time(), params.contention));
        let routes = RouteTable::new(topo.procs());
        Self { topo, params, links, backplane, routes, leased: AtomicBool::new(false) }
    }

    pub fn procs(&self) -> usize {
        self.topo.procs()
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// The machine-wide shared route table: the split route from `src`
    /// to `dst`, memoized on first use and shared by every rank of every
    /// world simulated on this machine. A warm lookup is two indexed
    /// loads and returns a borrow of the memoized route.
    #[inline]
    pub fn split_route(&self, src: usize, dst: usize) -> &SplitRoute {
        self.routes.split(&self.topo, src, dst)
    }

    /// Lease the net for one world run, or `None` while another run
    /// holds it. Replicas ([`replica`](Self::replica)) carry their own
    /// lease.
    pub fn try_lease(&self) -> Option<NetLease<'_>> {
        self.leased
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| NetLease { held: &self.leased })
    }

    /// Number of (src, dst) pairs memoized so far (diagnostics).
    pub fn routes_memoized(&self) -> usize {
        self.routes.len()
    }

    /// The instantiated links (diagnostics; indices match the
    /// topology's link-id space).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Compute the link path for a message (delegates to the topology).
    #[inline]
    pub fn route_into(&self, src: usize, dst: usize, path: &mut Vec<usize>) {
        self.topo.route_into(src, dst, path);
    }

    /// Price a transfer along a precomputed full `path` (empty =
    /// self-message) with the last byte handed to the network at
    /// `inject`. Prefer the split
    /// [`price_egress`](Self::price_egress)/[`price_ingress`](Self::price_ingress)
    /// pair, which the MPI engine uses so each rank's endpoint
    /// resources are booked by its own thread.
    pub fn price(&self, path: &[usize], bytes: u64, inject: Secs) -> Transfer {
        let eg = self.price_egress(path, bytes, inject);
        Transfer { injected: eg.injected, arrival: eg.finish }
    }

    /// Price the sender-side portion of a transfer: the sender's port
    /// and node memory plus the network hops.
    pub fn price_egress(&self, path: &[usize], bytes: u64, inject: Secs) -> Egress {
        if path.is_empty() {
            let t = inject + bytes as f64 * byte_time(self.params.self_mbps);
            return Egress { injected: t, head: t, finish: t };
        }
        let mut head = inject;
        let mut finish: Secs = inject;
        let mut injected: Secs = inject;
        for (i, &l) in path.iter().enumerate() {
            let (start, fin) = self.links[l].traverse(head, bytes);
            head = start;
            if fin > finish {
                finish = fin;
            }
            if i == 0 {
                injected = fin;
            }
        }
        if let Some(bp) = &self.backplane {
            let (_, fin) = bp.traverse(inject, bytes);
            if fin > finish {
                finish = fin;
            }
        }
        Egress { injected, head, finish }
    }

    /// Price the receiver-side drain of a message whose stream reached
    /// the destination at `head` (start of the last egress occupancy)
    /// and whose last byte left the network at `floor`. Called on the
    /// receiving rank's thread, so the destination's memory and port-in
    /// are scheduled by a single thread and pack tightly.
    pub fn price_ingress(&self, path: &[usize], bytes: u64, head: Secs, floor: Secs) -> Secs {
        let mut h = head;
        let mut finish = floor;
        for &l in path {
            let (start, fin) = self.links[l].traverse(h, bytes);
            h = start;
            if fin > finish {
                finish = fin;
            }
        }
        finish
    }

    /// Sum of link head latencies along the `src → dst` route. A
    /// read-only cost query (no resource is reserved) for closed-form
    /// models such as the simulated collective rendezvous.
    pub fn route_latency(&self, src: usize, dst: usize) -> Secs {
        let sr = self.split_route(src, dst);
        sr.egress
            .iter()
            .chain(sr.ingress.iter())
            .map(|&l| self.links[l].latency)
            .sum()
    }

    /// Route + price in one call (allocates; hot paths should cache the
    /// route and call [`price`](Self::price)).
    pub fn transfer(&self, src: usize, dst: usize, bytes: u64, inject: Secs) -> Transfer {
        let mut path = Vec::new();
        self.topo.route_into(src, dst, &mut path);
        self.price(&path, bytes, inject)
    }

    /// Clear all link occupancy (tests / between independent runs).
    pub fn reset(&self) {
        for l in &self.links {
            l.reset();
        }
        if let Some(bp) = &self.backplane {
            bp.reset();
        }
    }

    /// A fresh machine with identical topology and parameters and no
    /// link occupancy — route memoization and reservations start
    /// empty. A replica is indistinguishable from `self` after
    /// [`reset`](Self::reset), which is what makes batch-parallel runs
    /// on replicas byte-identical to serial runs with a reset in
    /// between.
    pub fn replica(&self) -> Self {
        Self::new(self.topo.clone(), self.params.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_sim::units::MB;

    fn crossbar(procs: usize, port_mbps: f64) -> MachineNet {
        let params = NetParams {
            o_send: 0.0,
            o_recv: 0.0,
            port: Tier::new(0.0, port_mbps),
            backplane: None,
            ..NetParams::default()
        };
        MachineNet::new(Topology::Crossbar { procs }, params)
    }

    #[test]
    fn pingpong_streams_at_port_bandwidth() {
        // With zero latency, a single large transfer is port-limited and
        // pipelined: arrival ~= bytes/port_bw, not 2x.
        let net = crossbar(2, 100.0);
        let t = net.transfer(0, 1, 100 * MB, 0.0);
        assert!((t.arrival - 1.0).abs() < 1e-6, "arrival={}", t.arrival);
    }

    #[test]
    fn bidirectional_traffic_halves_per_direction_bandwidth() {
        // Ports are duplex, but every byte in or out crosses the node
        // memory: bidirectional traffic runs at half the one-way rate.
        // This is the Table-1 ping-pong vs ring-per-proc mechanism.
        let params = NetParams {
            o_send: 0.0,
            o_recv: 0.0,
            port: Tier::new(0.0, 1000.0),
            node_mem: Tier::new(0.0, 100.0),
            ..NetParams::default()
        };
        let net = MachineNet::new(Topology::Crossbar { procs: 2 }, params);
        let one_way = net.transfer(0, 1, 100 * MB, 0.0).arrival;
        assert!((0.9..1.1).contains(&one_way), "one_way={one_way}");
        net.reset();
        let a = net.transfer(0, 1, 100 * MB, 0.0);
        let b = net.transfer(1, 0, 100 * MB, 0.0);
        let finish = a.arrival.max(b.arrival);
        assert!(finish > 1.9 && finish < 2.2, "finish={finish}");
    }

    #[test]
    fn self_message_uses_memcpy_bandwidth() {
        let params = NetParams { self_mbps: 1000.0, ..NetParams::default() };
        let net = MachineNet::new(Topology::Crossbar { procs: 2 }, params);
        let t = net.transfer(0, 0, 1000 * MB, 0.0);
        assert!((t.arrival - 1.0).abs() < 1e-6);
        assert_eq!(t.injected, t.arrival);
    }

    #[test]
    fn latency_accumulates_over_hops() {
        let params = NetParams {
            o_send: 0.0,
            o_recv: 0.0,
            port: Tier::new(1e-6, 1e9), // effectively infinite bw
            node_mem: Tier::new(0.0, 1e9),
            hop: Tier::new(1e-6, 1e9),
            ..NetParams::default()
        };
        let net = MachineNet::new(Topology::Ring { procs: 8 }, params);
        let near = net.transfer(0, 1, 0, 0.0).arrival; // 2 ports + 1 hop
        assert!((near - 3e-6).abs() < 1e-12, "near={near}");
        net.reset();
        let far = net.transfer(0, 4, 0, 0.0).arrival; // 2 ports + 4 hops
        assert!((far - 6e-6).abs() < 1e-12, "far={far}");
    }

    #[test]
    fn backplane_caps_aggregate_bandwidth() {
        let params = NetParams {
            o_send: 0.0,
            o_recv: 0.0,
            port: Tier::new(0.0, 1000.0),
            backplane: Some(Tier::new(0.0, 1000.0)),
            ..NetParams::default()
        };
        let net = MachineNet::new(Topology::Crossbar { procs: 8 }, params);
        // Four disjoint pairs, each port-limited at 1000 MB/s, but the
        // backplane only carries 1000 MB/s in total.
        let mut finish: f64 = 0.0;
        for p in 0..4 {
            let t = net.transfer(2 * p, 2 * p + 1, 250 * MB, 0.0);
            finish = finish.max(t.arrival);
        }
        assert!(finish > 0.9 && finish < 1.1, "finish={finish}");
    }

    #[test]
    fn replica_matches_a_reset_machine() {
        let net = MachineNet::new(Topology::Ring { procs: 8 }, NetParams::default());
        let warm = net.transfer(0, 3, MB, 0.0); // leaves occupancy behind
        assert!(warm.arrival > 0.0);
        let twin = net.replica();
        net.reset();
        let a = net.transfer(0, 3, MB, 0.0);
        let b = twin.transfer(0, 3, MB, 0.0);
        assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
        assert_eq!(a.injected.to_bits(), b.injected.to_bits());
        assert_eq!(twin.routes_memoized(), 0, "replica starts with an empty route table");
        twin.split_route(0, 3);
        assert_eq!(twin.routes_memoized(), 1);
    }

    #[test]
    fn injected_before_arrival_on_multihop() {
        let net = MachineNet::new(Topology::Ring { procs: 16 }, NetParams::default());
        let t = net.transfer(0, 8, MB, 0.0);
        assert!(t.injected <= t.arrival);
        assert!(t.injected > 0.0);
    }

    #[test]
    fn contention_on_shared_hop_links() {
        // Two messages that share hop links must take longer than two
        // that do not.
        let params = NetParams {
            o_send: 0.0,
            o_recv: 0.0,
            port: Tier::new(0.0, 1e6),
            hop: Tier::new(0.0, 100.0),
            ..NetParams::default()
        };
        let net = MachineNet::new(Topology::Ring { procs: 8 }, params);
        // 0->2 and 1->3 share the hop 1->2.
        let a = net.transfer(0, 2, 100 * MB, 0.0);
        let b = net.transfer(1, 3, 100 * MB, 0.0);
        let shared = a.arrival.max(b.arrival);
        net.reset();
        // 0->2 and 4->6 share nothing.
        let a = net.transfer(0, 2, 100 * MB, 0.0);
        let b = net.transfer(4, 6, 100 * MB, 0.0);
        let disjoint = a.arrival.max(b.arrival);
        assert!(shared > 1.5 * disjoint, "shared={shared} disjoint={disjoint}");
    }

    #[test]
    fn contention_factor_degrades_shared_links_only() {
        let params = |contention| NetParams {
            o_send: 0.0,
            o_recv: 0.0,
            port: Tier::new(0.0, 1e6),
            node_mem: Tier::new(0.0, 1e6),
            hop: Tier::new(0.0, 100.0),
            contention,
            ..NetParams::default()
        };
        // Two messages sharing the hop 1->2: with factor 2 the queued
        // one pays double, so the pair takes ~1.5x the FIFO time.
        let fifo = MachineNet::new(Topology::Ring { procs: 8 }, params(1.0));
        let a = fifo.transfer(0, 2, 100 * MB, 0.0);
        let b = fifo.transfer(1, 3, 100 * MB, 0.0);
        let fifo_finish = a.arrival.max(b.arrival);
        let fair = MachineNet::new(Topology::Ring { procs: 8 }, params(2.0));
        let a = fair.transfer(0, 2, 100 * MB, 0.0);
        let b = fair.transfer(1, 3, 100 * MB, 0.0);
        let fair_finish = a.arrival.max(b.arrival);
        assert!(
            fair_finish > 1.4 * fifo_finish,
            "fair {fair_finish} vs fifo {fifo_finish}"
        );
        // An uncontended transfer is not penalized at all.
        fifo.reset();
        fair.reset();
        let lone_fifo = fifo.transfer(0, 2, 100 * MB, 0.0).arrival;
        let lone_fair = fair.transfer(0, 2, 100 * MB, 0.0).arrival;
        assert_eq!(lone_fifo.to_bits(), lone_fair.to_bits());
        // Per-rank endpoint resources stay FIFO even under the factor:
        // back-to-back sends from one rank on a contention-free
        // crossbar cost the same with and without it.
        let cross = |contention| {
            let p = NetParams {
                o_send: 0.0,
                o_recv: 0.0,
                port: Tier::new(0.0, 100.0),
                node_mem: Tier::new(0.0, 1e6),
                contention,
                ..NetParams::default()
            };
            let net = MachineNet::new(Topology::Crossbar { procs: 4 }, p);
            let t1 = net.transfer(0, 1, 100 * MB, 0.0).arrival;
            let t2 = net.transfer(0, 1, 100 * MB, 0.0).arrival;
            (t1, t2)
        };
        assert_eq!(cross(1.0), cross(3.0));
    }

    #[test]
    fn backplane_contention_caps_aggregate_below_fifo() {
        let params = |contention| NetParams {
            o_send: 0.0,
            o_recv: 0.0,
            port: Tier::new(0.0, 1000.0),
            backplane: Some(Tier::new(0.0, 1000.0)),
            contention,
            ..NetParams::default()
        };
        let run = |contention| {
            let net = MachineNet::new(Topology::Crossbar { procs: 8 }, params(contention));
            let mut finish: f64 = 0.0;
            for p in 0..4 {
                let t = net.transfer(2 * p, 2 * p + 1, 250 * MB, 0.0);
                finish = finish.max(t.arrival);
            }
            finish
        };
        let fifo = run(1.0);
        let fair = run(2.0);
        // 4 concurrent streams: 1 uncontended + 3 at double cost.
        assert!((fifo - 1.0).abs() < 0.1, "fifo={fifo}");
        assert!(fair > 1.6, "fair={fair}");
    }

    #[test]
    fn price_with_cached_route_matches_transfer() {
        let net = MachineNet::new(Topology::Torus2D { dims: [4, 4] }, NetParams::default());
        let mut path = Vec::new();
        net.route_into(3, 9, &mut path);
        let a = net.price(&path, MB, 0.0);
        net.reset();
        let b = net.transfer(3, 9, MB, 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn lease_is_exclusive_until_dropped_and_per_replica() {
        let net = MachineNet::new(Topology::Ring { procs: 4 }, NetParams::default());
        let lease = net.try_lease();
        assert!(lease.is_some(), "an idle net leases");
        assert!(net.try_lease().is_none(), "a held lease refuses a second world");
        let twin = net.replica();
        assert!(twin.try_lease().is_some(), "a replica has its own lease");
        drop(lease);
        assert!(net.try_lease().is_some(), "dropping the lease releases the net");
    }
}

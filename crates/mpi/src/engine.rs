//! Execution engines: real wall-clock vs virtual-time simulation.
//!
//! The engine decides three things:
//!
//! 1. what a rank's clock is ([`RankClock`]),
//! 2. what a message transfer costs (nothing extra in real mode — the
//!    actual memcpy through the mailbox *is* the cost; the
//!    [`beff_netsim::MachineNet`] price in sim mode),
//! 3. whether benchmark payloads are materialized (`copy_data`).

use beff_faults::FaultSession;
use beff_netsim::MachineNet;
use beff_sim::{Clock, RealClock, Secs, VClock, Workers};
use std::sync::Arc;

/// World-level engine configuration, shared by all ranks.
#[derive(Clone)]
pub enum EngineCfg {
    /// Host threads, wall-clock timing, payloads always copied.
    Real,
    /// Virtual time priced by a machine model.
    Sim {
        net: Arc<MachineNet>,
        /// Materialize benchmark payload bytes (tests: `true`;
        /// large-machine benchmarking: `false`).
        copy_data: bool,
        /// Active fault injection, if any. `None` keeps every hot path
        /// byte-identical to the fault-free build (the hooks guard on
        /// this `Option` before touching any arithmetic).
        faults: Option<Arc<FaultSession>>,
        /// Worker pool for *batch*-parallel execution
        /// (`World::run_batch`): independent whole-world jobs fan out
        /// over machine replicas on up to this many OS threads.
        /// Within any single world, rank execution stays token-serial
        /// regardless — parallelism never touches the schedule that
        /// determinism depends on. Defaults to [`Workers::from_env`]
        /// (the `BEFF_WORKERS` knob; `1` = serial).
        workers: Workers,
    },
}

impl EngineCfg {
    pub fn is_sim(&self) -> bool {
        matches!(self, EngineCfg::Sim { .. })
    }

    /// The batch worker pool (`Workers::new(1)` in real mode — real
    /// worlds already own one host thread per rank).
    pub fn workers(&self) -> Workers {
        match self {
            EngineCfg::Real => Workers::new(1),
            EngineCfg::Sim { workers, .. } => *workers,
        }
    }

    /// Per-message sender CPU overhead.
    pub fn o_send(&self) -> Secs {
        match self {
            EngineCfg::Real => 0.0,
            EngineCfg::Sim { net, .. } => net.params().o_send,
        }
    }

    /// Per-message receiver CPU overhead.
    pub fn o_recv(&self) -> Secs {
        match self {
            EngineCfg::Real => 0.0,
            EngineCfg::Sim { net, .. } => net.params().o_recv,
        }
    }
}

/// A rank's clock: real or virtual.
#[derive(Debug)]
pub enum RankClock {
    Real(RealClock),
    Virt(VClock),
}

impl RankClock {
    #[inline]
    pub fn now(&self) -> Secs {
        match self {
            RankClock::Real(c) => c.now(),
            RankClock::Virt(c) => c.now(),
        }
    }
    #[inline]
    pub fn advance(&mut self, dt: Secs) {
        if let RankClock::Virt(c) = self {
            c.advance(dt);
        }
    }
    #[inline]
    pub fn advance_to(&mut self, t: Secs) {
        if let RankClock::Virt(c) = self {
            c.advance_to(t);
        }
    }
    pub fn is_virtual(&self) -> bool {
        matches!(self, RankClock::Virt(_))
    }
}

/// Mutable per-rank simulation state (the rank's clock).
///
/// Routes are *not* per-rank state: they live on the machine-wide
/// [`MachineNet`] route table (`net.split_route`), shared by all ranks
/// of all worlds on that machine. A warm lookup is a lock-free
/// borrow, so sender and receiver each look the route up; the
/// envelope carries only the sender's world rank.
///
/// Lives in an `Rc<RefCell<..>>` shared by all communicators of the
/// rank so that time keeps flowing across `Comm::split`.
pub struct RankState {
    pub clock: RankClock,
}

impl RankState {
    pub fn new(engine: &EngineCfg) -> Self {
        match engine {
            // beff-analyze: allow(taint): the Real engine is wall-clock by contract; sim worlds take the Virt arm below
            EngineCfg::Real => Self { clock: RankClock::Real(RealClock::new()) },
            EngineCfg::Sim { .. } => Self { clock: RankClock::Virt(VClock::new()) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_netsim::{NetParams, Topology};

    #[test]
    fn real_engine_has_zero_overheads() {
        let e = EngineCfg::Real;
        assert_eq!(e.o_send(), 0.0);
        assert_eq!(e.o_recv(), 0.0);
        assert!(!e.is_sim());
    }

    #[test]
    fn sim_engine_reports_model_overheads() {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 2 },
            NetParams { o_send: 1e-6, o_recv: 2e-6, ..NetParams::default() },
        ));
        let e = EngineCfg::Sim { net, copy_data: true, faults: None, workers: Workers::new(1) };
        assert_eq!(e.o_send(), 1e-6);
        assert_eq!(e.o_recv(), 2e-6);
        assert!(e.is_sim());
        assert!(e.workers().is_serial());
        assert!(EngineCfg::Real.workers().is_serial());
    }

    #[test]
    fn rank_clock_virtual_advances() {
        let mut c = RankClock::Virt(VClock::new());
        c.advance(1.0);
        c.advance_to(0.5);
        assert_eq!(c.now(), 1.0);
        assert!(c.is_virtual());
    }

    #[test]
    fn rank_state_matches_engine() {
        let real = RankState::new(&EngineCfg::Real);
        assert!(!real.clock.is_virtual());

        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 2 },
            NetParams::default(),
        ));
        let sim = RankState::new(&EngineCfg::Sim {
            net,
            copy_data: false,
            faults: None,
            workers: Workers::new(1),
        });
        assert!(sim.clock.is_virtual());
    }
}

//! The world runtime: spawn one thread per rank, hand each a
//! [`Comm`], join, and return the per-rank results in rank order.
//!
//! Two launch shapes exist:
//!
//! * [`World::run`] — spawn `n` scoped threads, run, join. Right for
//!   one-shot runs and non-`'static` closures.
//! * [`WorldSession`] — spawn the `n` rank threads *once* and dispatch
//!   any number of runs at them. Each run still gets a fresh
//!   world-shared state (mailboxes, contexts, scheduler), so results
//!   are identical to `World::run`; only the thread spawn/join cost is
//!   amortized. Benchmark drivers sweeping many configurations over
//!   one partition use this.
//!
//! If any rank panics, every mailbox is poisoned so that ranks blocked
//! on the dead peer abort instead of deadlocking (the moral equivalent
//! of `MPI_Abort`), and the first panic is re-thrown to the caller.
//!
//! A sim run leases its [`MachineNet`] for its whole duration
//! ([`MachineNet::try_lease`]): link booking is single-writer, so a
//! second world started on a net whose lease is held — say, from
//! inside a rank closure — is refused with [`BeffError::NetInUse`]
//! before any rank runs. Sequential runs and runs on replicas never
//! contend for a lease.

use crate::comm::{Comm, WorldShared};
use crate::engine::EngineCfg;
#[cfg(target_arch = "x86_64")]
use beff_sim::fiber::{init_fiber, FiberStack, STACK_SIZE};
use beff_faults::{BeffError, FaultSession};
use beff_netsim::{MachineNet, NetLease};
use beff_sim::{map_ordered, Workers};
use beff_sync::{channel, Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Run one rank's closure under the world's panic/scheduler protocol:
/// wait for the sim token (sim mode), run, and on panic poison every
/// mailbox and abort the scheduler so blocked peers unwind too.
fn run_rank<R>(
    shared: &Arc<WorldShared>,
    rank: usize,
    f: impl FnOnce(&mut Comm) -> R,
) -> Result<R, Box<dyn Any + Send>> {
    let mut comm = Comm::world(Arc::clone(shared), rank, shared.mailboxes.len());
    let out = catch_unwind(AssertUnwindSafe(|| {
        if let Some(s) = &shared.sched {
            s.wait_turn(rank);
        }
        f(&mut comm)
    }));
    match &out {
        Err(_) => {
            for mb in &shared.mailboxes {
                mb.poison();
            }
            if let Some(s) = &shared.sched {
                s.abort();
                // abort() granted this rank its own wakeup token; we
                // are unwinding and will never park for it.
                s.drain_grant(rank);
            }
        }
        Ok(_) => {
            if let Some(s) = &shared.sched {
                s.finish(rank);
            }
        }
    }
    out
}

/// Collapse per-rank outcomes (in rank order) into all results or the
/// run's *root cause*. When one rank raises a typed fault, the peers
/// that were blocked on it unwind with the secondary
/// [`BeffError::PeerFailed`]; reporting that cascade instead of the
/// fault would hide what actually happened, so a typed non-`PeerFailed`
/// payload wins over a `PeerFailed` one. String panics (true invariant
/// violations) always keep their first-in-rank-order payload.
fn settle<R>(
    slots: impl IntoIterator<Item = Result<R, Box<dyn Any + Send>>>,
) -> Result<Vec<R>, Box<dyn Any + Send>> {
    let mut out = Vec::new();
    let mut cause: Option<Box<dyn Any + Send>> = None;
    for slot in slots {
        match slot {
            Ok(r) => out.push(r),
            Err(p) => {
                let upgrade = match &cause {
                    None => true,
                    Some(prev) => {
                        matches!(
                            prev.downcast_ref::<BeffError>(),
                            Some(BeffError::PeerFailed)
                        ) && matches!(
                            p.downcast_ref::<BeffError>(),
                            Some(e) if *e != BeffError::PeerFailed
                        )
                    }
                };
                if upgrade {
                    cause = Some(p);
                }
            }
        }
    }
    match cause {
        Some(p) => Err(p),
        None => Ok(out),
    }
}

/// Downcast a settled panic payload into a typed error, or re-raise it
/// (invariant violations stay fatal).
fn into_typed<R>(settled: Result<Vec<R>, Box<dyn Any + Send>>) -> Result<Vec<R>, BeffError> {
    match settled {
        Ok(v) => Ok(v),
        Err(p) => match p.downcast::<BeffError>() {
            Ok(e) => Err(*e),
            Err(p) => resume_unwind(p),
        },
    }
}

/// Lease a sim engine's net for one run (real engines have no net).
/// A held lease refuses the run with a typed [`BeffError::NetInUse`]
/// payload, which `try_run` returns as a value and `run` re-raises.
fn lease_net(engine: &EngineCfg) -> Result<Option<NetLease<'_>>, Box<dyn Any + Send>> {
    match engine {
        EngineCfg::Sim { net, .. } => match net.try_lease() {
            Some(lease) => Ok(Some(lease)),
            None => Err(Box::new(BeffError::NetInUse)),
        },
        EngineCfg::Real => Ok(None),
    }
}

/// Run a simulated world on the calling thread with one fiber per rank
/// (the fast path: a token handoff is a user-space stack switch instead
/// of a futex round trip — see [`beff_sim::fiber`]). Semantics are
/// identical to the thread launcher: same FIFO token order, same
/// deadlock/abort protocol, bit-identical results.
#[cfg(target_arch = "x86_64")]
fn run_world_fibers<R, F>(
    n: usize,
    engine: &Arc<EngineCfg>,
    stacks: &[FiberStack],
    f: &F,
) -> Result<Vec<R>, Box<dyn Any + Send>>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    assert_eq!(stacks.len(), n);
    let shared = Arc::new(WorldShared::new_fibered(n, Arc::clone(engine)));
    let sched = shared.sched.as_ref().expect("fibered world has a scheduler");
    let mut results: Vec<Option<Result<R, Box<dyn Any + Send>>>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let slots = results.as_mut_ptr();
    for (rank, stack) in stacks.iter().enumerate() {
        let shared = &shared;
        // SAFETY: disjoint per-rank slot, written from this same thread
        // while `results` is otherwise untouched until the drive loop
        // ends.
        let slot = unsafe { slots.add(rank) };
        let body = Box::new(move || {
            let out = run_rank(shared, rank, f);
            // SAFETY: this fiber is the only writer of its slot, and the
            // host thread reads it only after drive_fibers() returns.
            unsafe { *slot = Some(out) };
            shared.sched.as_ref().expect("fibered world").fiber_exit(rank);
        });
        // Safety: stacks and every borrow in `body` outlive the drive
        // loop below, which runs each fiber to its final switch.
        let sp = unsafe { init_fiber(stack, body) };
        sched.fibers().install(rank, sp);
    }
    sched.drive_fibers();
    for st in stacks {
        assert!(st.canary_intact(), "fiber stack overflow (canary clobbered)");
    }
    let audit = sched.audit();
    assert!(audit.balanced(), "token leak after world join: {audit:?}");
    settle(results.into_iter().map(|slot| slot.expect("all fibers completed")))
}

/// Builder/launcher for a world of `n` ranks.
///
/// The engine config lives behind one `Arc`: every run/rebuild shares
/// it by reference count, and the builder methods copy-on-write via
/// [`Arc::make_mut`] (free while the handle is unshared, which it is
/// during building). Rebuild paths therefore never deep-clone the
/// config — the property the `beff-serve` session pool's checkout
/// relies on.
#[derive(Clone)]
pub struct World {
    n: usize,
    engine: Arc<EngineCfg>,
}

impl World {
    /// Real mode: `n` host threads, wall-clock timing.
    pub fn real(n: usize) -> Self {
        assert!(n > 0, "world needs at least one rank");
        Self { n, engine: Arc::new(EngineCfg::Real) }
    }

    /// Sim mode on the full machine (one rank per modeled proc).
    pub fn sim(net: Arc<MachineNet>) -> Self {
        let n = net.procs();
        Self::sim_partition(net, n)
    }

    /// Sim mode on the first `n` procs of the machine (a *partition*,
    /// as b_eff_io runs use).
    pub fn sim_partition(net: Arc<MachineNet>, n: usize) -> Self {
        assert!(n > 0, "world needs at least one rank");
        assert!(
            n <= net.procs(),
            "partition of {n} ranks exceeds machine size {}",
            net.procs()
        );
        Self {
            n,
            engine: Arc::new(EngineCfg::Sim {
                net,
                copy_data: false,
                faults: None,
                workers: Workers::from_env(),
            }),
        }
    }

    /// Materialize benchmark payload bytes in sim mode (tests use this
    /// to verify data integrity; big benchmark runs leave it off).
    pub fn copy_data(mut self, yes: bool) -> Self {
        if let EngineCfg::Sim { copy_data, .. } = Arc::make_mut(&mut self.engine) {
            *copy_data = yes;
        }
        self
    }

    /// Attach a fault session to this (sim) world: every run injects
    /// the session's plan. Panics on a real-mode world — fault
    /// injection prices virtual time.
    pub fn with_faults(mut self, session: Arc<FaultSession>) -> Self {
        match Arc::make_mut(&mut self.engine) {
            EngineCfg::Sim { faults, .. } => *faults = Some(session),
            EngineCfg::Real => panic!("fault injection requires the sim engine"),
        }
        // Typed fault raises are routine under injection; keep the
        // default hook's backtrace spam out of chaos sweeps.
        beff_faults::silence_fault_panics();
        self
    }

    /// Set the batch worker pool for [`run_batch`](Self::run_batch)
    /// (the construction default is `BEFF_WORKERS` / host cores).
    /// Panics on a real-mode world — real worlds already own one host
    /// thread per rank.
    pub fn with_workers(mut self, w: Workers) -> Self {
        match Arc::make_mut(&mut self.engine) {
            EngineCfg::Sim { workers, .. } => *workers = w,
            EngineCfg::Real => panic!("batch worker pools apply to the sim engine"),
        }
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Run `jobs` independent whole-world simulations in parallel, one
    /// machine *replica* per job, returning per-job rank-ordered
    /// results in job order.
    ///
    /// This is the parallel twin of the serial sweep idiom
    /// `for job { net.reset(); world.run(..) }`: a replica
    /// ([`MachineNet::replica`]) is indistinguishable from the shared
    /// machine after a reset, and each job's world keeps its own
    /// token-serial schedule, so the batch is **byte-identical at every
    /// worker count** — including `BEFF_WORKERS=1`, which spawns no
    /// threads at all. Panics if a fault session is attached: a
    /// [`FaultSession`] is stateful across runs and cannot be shared
    /// between replicas; build per-job worlds with per-job sessions
    /// instead (the chaos driver does).
    pub fn run_batch<R, F>(&self, jobs: usize, f: F) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(usize, &mut Comm) -> R + Sync,
    {
        let EngineCfg::Sim { net, copy_data, faults, workers } = self.engine.as_ref() else {
            panic!("run_batch requires the sim engine (real mode has no machine replicas)");
        };
        assert!(
            faults.is_none(),
            "run_batch cannot share a stateful fault session across machine replicas"
        );
        let (n, copy_data) = (self.n, *copy_data);
        map_ordered(*workers, (0..jobs).collect(), |_, job| {
            let world = World {
                n,
                engine: Arc::new(EngineCfg::Sim {
                    net: Arc::new(net.replica()),
                    copy_data,
                    faults: None,
                    workers: Workers::new(1),
                }),
            };
            world.run(|c| f(job, c))
        })
    }

    fn run_settled<R, F>(&self, f: F) -> Result<Vec<R>, Box<dyn Any + Send>>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let _lease = lease_net(&self.engine)?;
        #[cfg(target_arch = "x86_64")]
        if self.engine.is_sim() {
            let stacks: Vec<FiberStack> =
                (0..self.n).map(|_| FiberStack::new(STACK_SIZE)).collect();
            return run_world_fibers(self.n, &self.engine, &stacks, &f);
        }
        let shared = Arc::new(WorldShared::new(self.n, Arc::clone(&self.engine)));

        let settled = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.n);
            for rank in 0..self.n {
                let shared = Arc::clone(&shared);
                let f = &f;
                handles.push(scope.spawn(move || run_rank(&shared, rank, f)));
            }
            settle(handles.into_iter().map(|h| {
                h.join().expect("rank thread must not die outside catch_unwind")
            }))
        });
        if let Some(s) = &shared.sched {
            let audit = s.audit();
            assert!(audit.balanced(), "token leak after world join: {audit:?}");
        }
        settled
    }

    /// Launch: run `f` on every rank, return results in rank order.
    ///
    /// Panics (re-raising the rank's payload) if any rank panics.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        match self.run_settled(f) {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        }
    }

    /// Launch like [`run`](Self::run), but return a failed run's typed
    /// root cause ([`BeffError`]) as a value instead of panicking.
    /// String panics — true invariant violations — still propagate.
    pub fn try_run<R, F>(&self, f: F) -> Result<Vec<R>, BeffError>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        into_typed(self.run_settled(f))
    }

    /// Spawn the rank threads once and keep them resident for repeated
    /// runs (see [`WorldSession`]).
    pub fn session(&self) -> WorldSession {
        WorldSession::new(self)
    }
}

type Job = Box<dyn FnOnce() + Send>;

struct RunSlots<R> {
    results: Vec<Option<Result<R, Box<dyn Any + Send>>>>,
    done: usize,
}

/// How a session keeps its world resident between runs.
enum SessionMech {
    /// Real mode (and non-x86_64 sim): `n` worker threads, each waiting
    /// on a private job channel.
    Threads {
        senders: Vec<channel::Sender<Job>>,
        handles: Vec<std::thread::JoinHandle<()>>,
    },
    /// x86_64 sim: no threads at all — runs execute on the caller's
    /// thread over a cached set of fiber stacks.
    #[cfg(target_arch = "x86_64")]
    Fibers { stacks: Vec<FiberStack> },
}

/// A resident world, spawned once and reused for any number of runs.
/// Every [`run`](WorldSession::run) executes against a *fresh*
/// [`WorldShared`] (mailboxes, contexts, token scheduler), so a session
/// run is observationally identical to a fresh [`World::run`] —
/// including bit-determinism in sim mode — without paying per-run
/// spawn/join (real mode: resident rank threads; sim mode on x86_64:
/// cached fiber stacks, zero threads).
///
/// Shared machine state that outlives a run ([`MachineNet`] link
/// occupancy) is the *caller's* to reset between runs (`net.reset()`);
/// the memoized route table is topology-derived and correct to keep.
pub struct WorldSession {
    n: usize,
    engine: Arc<EngineCfg>,
    mech: SessionMech,
}

impl WorldSession {
    pub fn new(world: &World) -> Self {
        let n = world.n;
        #[cfg(target_arch = "x86_64")]
        if world.engine.is_sim() {
            return Self {
                n,
                engine: Arc::clone(&world.engine),
                mech: SessionMech::Fibers {
                    stacks: (0..n).map(|_| FiberStack::new(STACK_SIZE)).collect(),
                },
            };
        }
        let mut senders = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for rank in 0..n {
            let (tx, rx) = channel::unbounded::<Job>();
            senders.push(tx);
            let h = std::thread::Builder::new()
                .name(format!("beff-rank-{rank}"))
                .spawn(move || {
                    // The job itself contains the panic protocol; a
                    // worker outlives any panicking run.
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn resident rank thread");
            handles.push(h);
        }
        Self {
            n,
            engine: Arc::clone(&world.engine),
            mech: SessionMech::Threads { senders, handles },
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Rebuild a [`World`] launcher sharing this session's engine (an
    /// `Arc` bump, not a config clone). The `beff-serve` pool uses this
    /// for checked-out sessions that need a *variant* world — e.g. a
    /// per-job fault session attached via [`World::with_faults`] — while
    /// the resident session itself stays untouched and reusable.
    pub fn world(&self) -> World {
        World { n: self.n, engine: Arc::clone(&self.engine) }
    }

    /// True when this session runs the virtual-time engine.
    pub fn is_sim(&self) -> bool {
        self.engine.is_sim()
    }

    fn run_settled<R, F>(&self, f: F) -> Result<Vec<R>, Box<dyn Any + Send>>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        let _lease = lease_net(&self.engine)?;
        let senders = match &self.mech {
            SessionMech::Threads { senders, .. } => senders,
            #[cfg(target_arch = "x86_64")]
            SessionMech::Fibers { stacks } => {
                return run_world_fibers(self.n, &self.engine, stacks, &f);
            }
        };
        let shared = Arc::new(WorldShared::new(self.n, Arc::clone(&self.engine)));
        let f = Arc::new(f);
        let slots = Arc::new((
            Mutex::new(RunSlots::<R> { results: (0..self.n).map(|_| None).collect(), done: 0 }),
            Condvar::new(),
        ));
        for rank in 0..self.n {
            let shared = Arc::clone(&shared);
            let f = Arc::clone(&f);
            let slots = Arc::clone(&slots);
            let job: Job = Box::new(move || {
                let out = run_rank(&shared, rank, |c| f(c));
                let (m, cv) = &*slots;
                let mut g = m.lock();
                g.results[rank] = Some(out);
                g.done += 1;
                if g.done == g.results.len() {
                    cv.notify_all();
                }
            });
            senders[rank].send(job).expect("resident rank thread alive");
        }
        let (m, cv) = &*slots;
        let mut g = m.lock();
        while g.done < self.n {
            cv.wait(&mut g);
        }
        let outcomes: Vec<_> =
            g.results.drain(..).map(|slot| slot.expect("all ranks reported")).collect();
        drop(g);
        if let Some(s) = &shared.sched {
            let audit = s.audit();
            assert!(audit.balanced(), "token leak after world join: {audit:?}");
        }
        settle(outcomes)
    }

    /// Run `f` on every rank, returning results in rank order. Panics
    /// (re-raising the first rank's payload) if any rank panics; the
    /// session stays usable afterwards.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        match self.run_settled(f) {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        }
    }

    /// Run like [`run`](Self::run), but return a failed run's typed
    /// root cause ([`BeffError`]) as a value; the session stays usable
    /// afterwards. String panics still propagate.
    pub fn try_run<R, F>(&self, f: F) -> Result<Vec<R>, BeffError>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        into_typed(self.run_settled(f))
    }

    /// Batch-parallel runs on machine replicas (see
    /// [`World::run_batch`]). The session's resident mechanism cannot
    /// be shared across replicas, so this delegates to a per-job world;
    /// the session (and its worker knob) stays usable afterwards.
    pub fn run_batch<R, F>(&self, jobs: usize, f: F) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(usize, &mut Comm) -> R + Sync,
    {
        self.world().run_batch(jobs, f)
    }
}

impl Drop for WorldSession {
    fn drop(&mut self) {
        if let SessionMech::Threads { senders, handles } = &mut self.mech {
            // Disconnect the job channels so the workers' recv() errors
            // out, then join them.
            senders.clear();
            for h in handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use beff_netsim::{NetParams, Topology};

    #[test]
    fn real_world_runs_and_orders_results() {
        let out = World::real(4).run(|c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn p2p_roundtrip_real() {
        let out = World::real(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 5, b"hello");
                let (d, info) = c.recv_vec(Some(1), Some(6));
                assert_eq!(info.src, 1);
                d
            } else {
                let (d, _) = c.recv_vec(Some(0), Some(5));
                c.send(0, 6, &d);
                d
            }
        });
        assert_eq!(out[0], b"hello");
    }

    fn tiny_sim() -> World {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 4 },
            NetParams::default(),
        ));
        World::sim(net)
    }

    #[test]
    fn sim_world_virtual_time_advances_on_traffic() {
        let times = tiny_sim().run(|c| {
            let peer = c.rank() ^ 1;
            let sbuf = vec![0u8; 1024];
            let mut rbuf = vec![0u8; 1024];
            for _ in 0..10 {
                c.payload_sendrecv(peer, 1, &sbuf, Some(peer), Some(1), &mut rbuf);
            }
            c.now()
        });
        for &t in &times {
            assert!(t > 0.0, "virtual clock must advance: {times:?}");
            assert!(t < 1.0, "10 x 1kB cannot take a virtual second: {times:?}");
        }
    }

    #[test]
    fn sim_copy_data_transfers_real_bytes() {
        let out = tiny_sim().copy_data(true).run(|c| {
            if c.rank() == 0 {
                c.payload_send(1, 9, &[1, 2, 3, 4]);
                Vec::new()
            } else if c.rank() == 1 {
                let mut buf = [0u8; 4];
                c.recv(Some(0), Some(9), &mut buf);
                buf.to_vec()
            } else {
                Vec::new()
            }
        });
        assert_eq!(out[1], vec![1, 2, 3, 4]);
    }

    #[test]
    fn sim_without_copy_transfers_length_only() {
        let out = tiny_sim().run(|c| {
            if c.rank() == 0 {
                c.payload_send(1, 9, &[7; 4096]);
                0
            } else if c.rank() == 1 {
                let mut buf = [0u8; 4096];
                let info = c.recv(Some(0), Some(9), &mut buf);
                assert_eq!(buf[0], 0, "no bytes must be copied");
                info.len
            } else {
                0
            }
        });
        assert_eq!(out[1], 4096);
    }

    #[test]
    fn barrier_synchronizes_virtual_clocks() {
        let times = tiny_sim().run(|c| {
            // rank 0 does heavy local compute; the barrier must drag
            // everyone to at least that time.
            if c.rank() == 0 {
                c.compute(1.0);
            }
            c.barrier();
            c.now()
        });
        for &t in &times {
            assert!(t >= 1.0, "barrier must propagate the latest clock: {times:?}");
        }
    }

    #[test]
    fn allreduce_max_agrees_everywhere() {
        let out = World::real(5).run(|c| {
            c.allreduce_scalar(c.rank() as f64, ReduceOp::Max)
        });
        assert!(out.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn allreduce_sum_sim() {
        let out = tiny_sim().run(|c| c.allreduce_scalar(1.0, ReduceOp::Sum));
        assert!(out.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = World::real(7).run(|c| {
            let mut data = if c.rank() == 3 { b"payload".to_vec() } else { Vec::new() };
            c.bcast(3, &mut data);
            data
        });
        assert!(out.iter().all(|d| d == b"payload"));
    }

    #[test]
    fn reduce_to_root_only() {
        let out = World::real(6).run(|c| c.reduce_f64(2, &[1.0, 2.0], ReduceOp::Sum));
        for (r, v) in out.iter().enumerate() {
            if r == 2 {
                assert_eq!(v.as_deref(), Some(&[6.0, 12.0][..]));
            } else {
                assert!(v.is_none());
            }
        }
    }

    #[test]
    fn gather_bytes_collects_in_rank_order() {
        let out = World::real(4).run(|c| c.gather_bytes(0, &[c.rank() as u8]));
        let g = out[0].as_ref().unwrap();
        assert_eq!(g.len(), 4);
        for (i, d) in g.iter().enumerate() {
            assert_eq!(d, &vec![i as u8]);
        }
    }

    #[test]
    fn alltoallv_ring_counts() {
        // Each rank sends 4 bytes to left and right neighbors only.
        let n = 6;
        let out = World::real(n).run(|c| {
            let r = c.rank();
            let left = (r + n - 1) % n;
            let right = (r + 1) % n;
            let mut scounts = vec![0; n];
            let mut sdispls = vec![0; n];
            scounts[left] = 4;
            scounts[right] = 4;
            sdispls[left] = 0;
            sdispls[right] = 4;
            let sendbuf: Vec<u8> = vec![r as u8; 8];
            let mut rcounts = vec![0; n];
            let mut rdispls = vec![0; n];
            rcounts[left] = 4;
            rcounts[right] = 4;
            rdispls[left] = 0;
            rdispls[right] = 4;
            let mut recvbuf = vec![0u8; 8];
            c.payload_alltoallv(&sendbuf, &scounts, &sdispls, &mut recvbuf, &rcounts, &rdispls);
            recvbuf
        });
        for (r, data) in out.iter().enumerate() {
            let left = (r + n - 1) % n;
            let right = (r + 1) % n;
            assert_eq!(data[..4], vec![left as u8; 4][..]);
            assert_eq!(data[4..], vec![right as u8; 4][..]);
        }
    }

    #[test]
    fn split_by_parity() {
        let out = World::real(6).run(|c| {
            let color = (c.rank() % 2) as u32;
            let sub = c.split(Some(color), c.rank() as i64).unwrap();
            (sub.rank(), sub.size(), sub.world_rank())
        });
        assert_eq!(out[0], (0, 3, 0));
        assert_eq!(out[2], (1, 3, 2));
        assert_eq!(out[4], (2, 3, 4));
        assert_eq!(out[1], (0, 3, 1));
        assert_eq!(out[5], (2, 3, 5));
    }

    #[test]
    fn split_undefined_returns_none() {
        let out = World::real(4).run(|c| {
            if c.rank() == 3 {
                c.split(None, 0).is_none()
            } else {
                let sub = c.split(Some(1), 0).unwrap();
                sub.size() == 3
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn split_key_reverses_order() {
        let out = World::real(4).run(|c| {
            let sub = c.split(Some(0), -(c.rank() as i64)).unwrap();
            sub.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn dup_isolates_contexts() {
        let out = World::real(2).run(|c| {
            let mut d = c.dup();
            if c.rank() == 0 {
                // same tag on both comms; matching must separate them
                c.send(1, 77, b"base");
                d.send(1, 77, b"dup");
                0
            } else {
                let (on_dup, _) = d.recv_vec(Some(0), Some(77));
                let (on_base, _) = c.recv_vec(Some(0), Some(77));
                assert_eq!(on_dup, b"dup");
                assert_eq!(on_base, b"base");
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn rank_panic_aborts_world() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            World::real(3).run(|c| {
                if c.rank() == 1 {
                    panic!("injected failure");
                }
                // ranks 0 and 2 would deadlock without poisoning
                let (_d, _i) = c.recv_vec(Some(1), Some(1));
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn partition_smaller_than_machine() {
        let net = Arc::new(MachineNet::new(
            Topology::Torus3D { dims: [2, 2, 2] },
            NetParams::default(),
        ));
        let out = World::sim_partition(net, 3).run(|c| c.size());
        assert_eq!(out, vec![3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds machine size")]
    fn oversized_partition_panics() {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 2 },
            NetParams::default(),
        ));
        let _ = World::sim_partition(net, 3);
    }

    #[test]
    fn send_to_self_works() {
        let out = World::real(1).run(|c| {
            c.send(0, 1, b"self");
            let (d, _) = c.recv_vec(Some(0), Some(1));
            d
        });
        assert_eq!(out[0], b"self");
    }

    #[test]
    fn sim_runs_are_bit_deterministic() {
        let f = |c: &mut Comm| {
            let peer = c.rank() ^ 1;
            let sbuf = vec![0u8; 4096];
            let mut rbuf = vec![0u8; 4096];
            for _ in 0..20 {
                c.payload_sendrecv(peer, 1, &sbuf, Some(peer), Some(1), &mut rbuf);
            }
            c.barrier();
            c.now()
        };
        let a = tiny_sim().run(f);
        let b = tiny_sim().run(f);
        // Bitwise, not approximately: the token scheduler makes link
        // reservation order a pure function of the program.
        assert_eq!(
            a.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
    }

    /// A pattern-sweep-shaped job: per-rank neighbor traffic whose
    /// virtual finish times are contention-sensitive, so any schedule
    /// or occupancy divergence shows up bitwise.
    fn batch_job(job: usize, c: &mut Comm) -> u64 {
        let peer = c.rank() ^ 1;
        let bytes = 512 * (job + 1);
        let sbuf = vec![0u8; bytes];
        let mut rbuf = vec![0u8; bytes];
        for _ in 0..4 {
            c.payload_sendrecv(peer, 1, &sbuf, Some(peer), Some(1), &mut rbuf);
        }
        c.allreduce_scalar(c.now(), ReduceOp::Max).to_bits()
    }

    #[test]
    fn run_batch_matches_serial_sweep_at_every_worker_count() {
        let net = Arc::new(MachineNet::new(
            Topology::Ring { procs: 4 },
            NetParams::default(),
        ));
        // The reference: the pre-existing serial idiom — one shared
        // machine, reset between runs.
        let world = World::sim(Arc::clone(&net));
        let serial: Vec<Vec<u64>> = (0..6)
            .map(|job| {
                net.reset();
                world.run(|c| batch_job(job, c))
            })
            .collect();
        for w in [1, 2, 4, 8] {
            let batch = world
                .clone()
                .with_workers(Workers::new(w))
                .run_batch(6, batch_job);
            assert_eq!(serial, batch, "batch diverged from the serial sweep at {w} workers");
        }
    }

    #[test]
    fn session_run_batch_delegates_and_stays_usable() {
        let net = Arc::new(MachineNet::new(
            Topology::Ring { procs: 4 },
            NetParams::default(),
        ));
        let world = World::sim(Arc::clone(&net)).with_workers(Workers::new(2));
        let session = world.session();
        let a = session.run_batch(3, batch_job);
        let b = world.run_batch(3, batch_job);
        assert_eq!(a, b);
        net.reset();
        assert_eq!(session.run(|c| c.size()), vec![4; 4]);
    }

    #[test]
    #[should_panic(expected = "stateful fault session")]
    fn run_batch_refuses_a_shared_fault_session() {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 2 },
            NetParams::default(),
        ));
        let session = FaultSession::new(beff_faults::FaultPlan::empty(), 2);
        let _ = World::sim(net).with_faults(session).run_batch(2, |_, c| c.rank());
    }

    #[test]
    fn session_matches_world_run_and_is_reusable() {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 4 },
            NetParams::default(),
        ));
        let world = World::sim(Arc::clone(&net));
        let f = |c: &mut Comm| {
            let peer = c.rank() ^ 1;
            let sbuf = vec![0u8; 1024];
            let mut rbuf = vec![0u8; 1024];
            for _ in 0..5 {
                c.payload_sendrecv(peer, 2, &sbuf, Some(peer), Some(2), &mut rbuf);
            }
            c.allreduce_scalar(c.now(), ReduceOp::Max)
        };
        let direct = world.run(f);
        let session = world.session();
        // Shared machine state (link occupancy) is the caller's to
        // clear between runs; the route table is correct to keep.
        net.reset();
        let first = session.run(f);
        net.reset();
        let second = session.run(f);
        assert_eq!(
            direct.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            first.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            first.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn session_survives_a_panicking_run() {
        let session = World::real(3).session();
        let r = catch_unwind(AssertUnwindSafe(|| {
            session.run(|c| {
                if c.rank() == 1 {
                    panic!("injected failure");
                }
                let (_d, _i) = c.recv_vec(Some(1), Some(1));
            })
        }));
        assert!(r.is_err());
        let out = session.run(|c| c.rank());
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn sim_deadlock_panics_instead_of_hanging() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            tiny_sim().run(|c| {
                // every rank receives, nobody sends
                let (_d, _i) = c.recv_vec(None, Some(9));
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn a_world_started_inside_a_rank_on_its_own_net_is_refused() {
        let world = tiny_sim();
        let session = world.session();
        let nested = world.run(|c| {
            let world_refused = world.try_run(|c| c.rank()).err();
            let session_refused = session.try_run(|c| c.rank()).err();
            let raised = catch_unwind(AssertUnwindSafe(|| world.run(|c| c.rank())))
                .err()
                .and_then(|p| p.downcast::<BeffError>().ok())
                .map(|e| *e);
            (c.rank(), world_refused, session_refused, raised)
        });
        for (rank, world_refused, session_refused, raised) in nested {
            assert_eq!(world_refused, Some(BeffError::NetInUse), "rank {rank}: World::try_run");
            assert_eq!(session_refused, Some(BeffError::NetInUse), "rank {rank}: session");
            assert_eq!(raised, Some(BeffError::NetInUse), "rank {rank}: World::run raises typed");
        }
        // The refusals left the outer world's lease intact and released.
        assert_eq!(world.run(|c| c.rank()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn sequential_runs_on_one_net_are_unaffected_by_the_lease() {
        let net = Arc::new(MachineNet::new(Topology::Ring { procs: 4 }, NetParams::default()));
        let world = World::sim(Arc::clone(&net));
        let session = world.session();
        let ring = |c: &mut Comm| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let _ = c.sendrecv(next, 3, &[c.rank() as u8; 4096], Some(prev), Some(3));
            c.now().to_bits()
        };
        let first = world.run(ring);
        for _ in 0..3 {
            net.reset();
            assert_eq!(world.try_run(ring), Ok(first.clone()));
            net.reset();
            assert_eq!(session.try_run(ring), Ok(first.clone()));
        }
        // A failed run releases the lease too.
        assert_eq!(world.try_run(|_| BeffError::PeerFailed.raise()), Err(BeffError::PeerFailed));
        net.reset();
        assert_eq!(world.run(ring), first);
        assert!(net.try_lease().is_some(), "no run holds the lease afterwards");
    }

    #[test]
    fn replicas_are_unaffected_by_a_held_lease() {
        let net = Arc::new(MachineNet::new(Topology::Ring { procs: 4 }, NetParams::default()));
        let world = World::sim(Arc::clone(&net)).with_workers(Workers::new(2));
        let held = net.try_lease();
        assert!(held.is_some(), "an idle net leases");
        assert_eq!(world.try_run(|c| c.rank()), Err(BeffError::NetInUse));
        // Batch jobs run on replicas, each with its own lease.
        let batch = world.run_batch(3, |job, c| job * 10 + c.rank());
        assert_eq!(batch[2], vec![20, 21, 22, 23]);
        let replica = World::sim(Arc::new(net.replica()));
        assert_eq!(replica.run(|c| c.rank()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn sim_recv_time_is_at_least_arrival() {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 2 },
            NetParams::default(),
        ));
        let times = World::sim(net).run(|c| {
            if c.rank() == 0 {
                c.payload_send(1, 1, &vec![0u8; 1 << 20]);
                c.now()
            } else {
                let mut buf = vec![0u8; 1 << 20];
                c.recv(Some(0), Some(1), &mut buf);
                c.now()
            }
        });
        // the receiver finishes after the sender injected
        assert!(times[1] >= times[0] * 0.5, "times={times:?}");
        assert!(times[1] > 0.0);
    }
}

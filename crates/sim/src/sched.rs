//! Deterministic round-robin token scheduler for simulated worlds.
//!
//! Sim mode prices time with virtual clocks, so nothing is gained by
//! letting rank threads run concurrently — and plenty is lost: link
//! [`Resource`](crate::resource::Resource) reservations would follow host
//! thread scheduling, making runs causally consistent but not
//! bit-identical. A blocked sim-mode receiver parks here, not on its
//! [`Port`](crate::port::Port)'s condvar, so a push that completes its
//! receive signals no condvar (the port counts its condvar waiters and
//! notifies only when there are some) — the wakeup is the
//! [`SimScheduler::unblock`] re-queue below.
//!
//! Instead, exactly one rank runs at a time. The token moves only at
//! explicit points:
//!
//! * a rank blocks in `recv` or a collective rendezvous with nothing
//!   to do ([`SimScheduler::yield_blocked`]),
//! * a rank's closure finishes ([`SimScheduler::finish`]),
//! * a sender's push completes a blocked receiver's posted match, which
//!   re-queues (not immediately runs) the receiver
//!   ([`SimScheduler::unblock`]).
//!
//! Execution order is therefore a pure function of the program, so two
//! runs with the same seeds produce bit-identical results, and the
//! only wakeups ever issued are targeted grants to the single next
//! runner — no thundering herd.
//!
//! Two interchangeable switch mechanisms drive that token order:
//!
//! * **fibers** (x86_64): every rank is a user-space fiber and the
//!   world runs on the caller's thread; a handoff is a ~20-instruction
//!   stack switch (see [`crate::fiber`]). This is the fast path — OS
//!   thread handoffs measure ~4–5 µs each on one core at 512 ranks,
//!   and a large run makes millions of them. A rank that blocks marks
//!   itself blocked and pops the next ready rank under one `inner`
//!   lock, releases it, and switches fiber → fiber directly. Only an
//!   empty ready queue (deadlock) or an abort goes back to the host's
//!   drive loop, which also starts the world, and reaps finished and
//!   unwinding fibers.
//! * **parked threads** (any platform): one OS thread per rank, each
//!   parked on a private condvar until granted. The actor runtime and
//!   non-x86_64 sim worlds use this; real-mode worlds have no
//!   scheduler at all.
//!
//! Both replay the same FIFO ready-queue order, so they produce
//! bit-identical results; the `park_and_fiber_replay_one_token_order`
//! test runs one scripted workload under both and compares the logs.
//!
//! The handoff also orders link bookings: only the token holder books,
//! so the fiber switch (one host thread) or the parker mutex (parked
//! threads) puts every booking of one rank before the next rank's —
//! the single-writer contract of [`Resource`](crate::resource::Resource).
//!
//! Deadlock (every live rank blocked) is detected at token-handoff
//! time and turns into a panic on every live rank rather than a hang.

#[cfg(target_arch = "x86_64")]
use crate::fiber::FiberSet;
use crate::error::BeffError;
use beff_sync::{Condvar, Mutex, Rank};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Lock-hierarchy positions (DESIGN.md §8): the scheduler state is
/// taken before any per-rank parker flag (`grant_next` holds `inner`
/// while granting), never the other way around.
static SCHED_STATE_RANK: Rank = Rank::new(40, "sched.state");
static SCHED_PARKER_RANK: Rank = Rank::new(50, "sched.parker");

struct Parker {
    granted: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    fn new() -> Self {
        Self { granted: Mutex::ranked(&SCHED_PARKER_RANK, false), cv: Condvar::new() }
    }

    /// Returns `true` when this call actually set the flag (a newly
    /// issued token grant) — `false` when a grant was already pending,
    /// so the accounting counts each outstanding token exactly once.
    fn grant(&self) -> bool {
        let mut g = self.granted.lock();
        let newly = !*g;
        *g = true;
        self.cv.notify_one();
        newly
    }

    fn park(&self) {
        let mut g = self.granted.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
        *g = false;
    }

    /// Consume a pending, never-to-be-parked-for grant (a rank that is
    /// unwinding will not park again). Returns `true` if a grant was
    /// pending.
    fn drain(&self) -> bool {
        let mut g = self.granted.lock();
        std::mem::take(&mut *g)
    }
}

struct SchedState {
    /// Ranks runnable but not holding the token, in handoff order.
    ready: VecDeque<usize>,
    blocked: Vec<bool>,
    finished: Vec<bool>,
    /// Ranks whose closure has not finished.
    live: usize,
    /// A rank panicked: determinism is moot, wake everyone so they
    /// observe mailbox poison.
    aborted: bool,
}

/// How suspended ranks are represented and resumed.
enum Mech {
    /// One parked OS thread per rank.
    Park(Vec<Parker>),
    /// One fiber per rank, driven by [`SimScheduler::drive_fibers`] on
    /// the host thread.
    #[cfg(target_arch = "x86_64")]
    Fiber(FiberSet),
}

/// One token scheduler per simulated world run.
pub struct SimScheduler {
    inner: Mutex<SchedState>,
    /// Every live rank is blocked: wake them all into a panic. Written
    /// only under `inner`; read without it by a rank that has just been
    /// resumed or granted (the switch or the parker mutex orders the
    /// write before the read).
    deadlocked: AtomicBool,
    mech: Mech,
    /// Token accounting: every grant issued must eventually be consumed
    /// (by a park that wakes, or drained from a rank that will never
    /// park again). `granted == consumed` after the world joins is the
    /// no-token-leak invariant the property tests pin on every exit
    /// path — normal completion, injected crash, abort.
    granted: AtomicU64,
    consumed: AtomicU64,
}

/// Snapshot of the scheduler's terminal accounting state (tests,
/// diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedAudit {
    pub granted: u64,
    pub consumed: u64,
    pub live: usize,
    pub ready: usize,
    pub blocked: usize,
    pub finished: usize,
    pub deadlocked: bool,
    pub aborted: bool,
}

impl SchedAudit {
    /// No outstanding token and no runnable leftovers.
    pub fn balanced(&self) -> bool {
        self.granted == self.consumed
    }
}

fn new_state(n: usize) -> SchedState {
    SchedState {
        ready: (1..n).collect(),
        blocked: vec![false; n],
        finished: vec![false; n],
        live: n,
        aborted: false,
    }
}

impl SimScheduler {
    /// Thread-parking scheduler: `n` ranks, rank 0 holds the token
    /// first, then strict FIFO order among runnable ranks.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        let sched = Self {
            inner: Mutex::ranked(&SCHED_STATE_RANK, new_state(n)),
            deadlocked: AtomicBool::new(false),
            mech: Mech::Park((0..n).map(|_| Parker::new()).collect()),
            granted: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
        };
        let Mech::Park(parkers) = &sched.mech else { unreachable!() };
        sched.count_grant(parkers[0].grant());
        sched
    }

    /// Fiber scheduler: same token order, driven by
    /// [`drive_fibers`](Self::drive_fibers) after the runtime installs
    /// one initialized fiber per rank.
    #[cfg(target_arch = "x86_64")]
    pub fn new_fibers(n: usize) -> Self {
        assert!(n > 0);
        let mut st = new_state(n);
        // No out-of-band grant here: rank 0 starts from the ready
        // queue like everyone else, resumed by the drive loop.
        st.ready.push_front(0);
        Self {
            inner: Mutex::ranked(&SCHED_STATE_RANK, st),
            deadlocked: AtomicBool::new(false),
            mech: Mech::Fiber(FiberSet::new(n)),
            granted: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
        }
    }

    /// The fiber set to install stacks into (fiber mode only).
    #[cfg(target_arch = "x86_64")]
    pub fn fibers(&self) -> &FiberSet {
        let Mech::Fiber(fs) = &self.mech else {
            panic!("fibers() on a thread-parking scheduler")
        };
        fs
    }

    /// Hand the token to the next ready rank; if none exists but live
    /// ranks remain, the world is deadlocked — wake everyone into the
    /// panic path. (Thread mode only; the fiber drive loop plays this
    /// role in fiber mode.)
    fn grant_next(&self, st: &mut SchedState, parkers: &[Parker]) {
        if st.aborted || self.is_deadlocked() {
            return; // everyone has already been woken
        }
        if let Some(next) = st.ready.pop_front() {
            self.count_grant(parkers[next].grant());
        } else if st.live > 0 {
            self.deadlocked.store(true, Ordering::Relaxed);
            for (r, p) in parkers.iter().enumerate() {
                if !st.finished[r] {
                    self.count_grant(p.grant());
                }
            }
        }
    }

    #[inline]
    fn count_grant(&self, newly: bool) {
        if newly {
            self.granted.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    fn count_consume(&self) {
        self.consumed.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn is_deadlocked(&self) -> bool {
        self.deadlocked.load(Ordering::Relaxed)
    }

    /// After a rank regains the token: raise if it was woken into the
    /// deadlock protocol rather than by a peer.
    #[inline]
    fn raise_if_deadlocked(&self) {
        if self.is_deadlocked() {
            BeffError::Deadlock.raise();
        }
    }

    /// Fiber mode: the running rank gives up the token. Switch straight
    /// to `next` if a peer is ready, else back to the host's drive loop
    /// (deadlock, abort). Returns when this rank is resumed.
    ///
    /// # Safety
    /// Must be called from `rank`'s own fiber, with no lock held.
    #[cfg(target_arch = "x86_64")]
    unsafe fn hand_off(&self, fs: &FiberSet, rank: usize, next: Option<usize>) {
        match next {
            Some(next) => {
                // A direct switch is a grant consumed synchronously.
                self.count_grant(true);
                self.count_consume();
                // SAFETY: `rank` is the running fiber (caller contract)
                // and `next` came off the ready queue, so it is an
                // installed, unfinished fiber other than `rank`.
                unsafe { fs.switch(rank, next) };
            }
            // SAFETY: called from rank's own fiber (caller contract).
            None => unsafe { fs.to_host(rank) },
        }
    }

    /// Block until this rank holds the token (no-op in fiber mode: a
    /// fiber only runs while it holds the token). Panics if the world
    /// deadlocked while this rank was parked.
    pub fn wait_turn(&self, rank: usize) {
        match &self.mech {
            Mech::Park(parkers) => {
                parkers[rank].park();
                self.count_consume();
            }
            #[cfg(target_arch = "x86_64")]
            Mech::Fiber(_) => {}
        }
        self.raise_if_deadlocked();
    }

    /// The token holder blocks (recv miss or collective wait): release
    /// the token and suspend until a peer re-queues us (or the world
    /// dies).
    pub fn yield_blocked(&self, rank: usize) {
        match &self.mech {
            Mech::Park(parkers) => {
                {
                    let mut st = self.inner.lock();
                    st.blocked[rank] = true;
                    self.grant_next(&mut st, parkers);
                }
                self.wait_turn(rank);
            }
            #[cfg(target_arch = "x86_64")]
            Mech::Fiber(fs) => {
                let next = {
                    let mut st = self.inner.lock();
                    st.blocked[rank] = true;
                    if st.aborted || self.is_deadlocked() {
                        None
                    } else {
                        st.ready.pop_front()
                    }
                };
                // SAFETY: called from rank's own fiber (scheduler
                // contract), and the state lock is released above.
                unsafe { self.hand_off(fs, rank, next) };
                self.raise_if_deadlocked();
            }
        }
    }

    /// A push just completed `rank`'s posted receive: make it runnable
    /// again. Called by the token holder; the receiver runs when the
    /// token reaches it, preserving deterministic order.
    pub fn unblock(&self, rank: usize) {
        let mut st = self.inner.lock();
        if st.blocked[rank] {
            st.blocked[rank] = false;
            st.ready.push_back(rank);
        }
    }

    /// Cooperative rotation for actor workloads: the token holder
    /// re-queues itself behind every currently ready rank and hands
    /// the token on. No-op when nobody else is ready — the holder
    /// keeps the token rather than parking for a grant no peer will
    /// ever issue. Unlike [`yield_blocked`](Self::yield_blocked) the
    /// rank stays runnable, so this can never deadlock the world.
    pub fn yield_turn(&self, rank: usize) {
        match &self.mech {
            Mech::Park(parkers) => {
                {
                    let mut st = self.inner.lock();
                    if st.ready.is_empty() || st.aborted || self.is_deadlocked() {
                        return;
                    }
                    st.ready.push_back(rank);
                    self.grant_next(&mut st, parkers);
                }
                self.wait_turn(rank);
            }
            #[cfg(target_arch = "x86_64")]
            Mech::Fiber(fs) => {
                let next = {
                    let mut st = self.inner.lock();
                    if st.ready.is_empty() || st.aborted || self.is_deadlocked() {
                        return;
                    }
                    st.ready.push_back(rank);
                    st.ready.pop_front()
                };
                // SAFETY: called from rank's own fiber (scheduler
                // contract), and the state lock is released above; a
                // peer resumes us from the ready queue we just joined.
                unsafe { self.hand_off(fs, rank, next) };
                self.raise_if_deadlocked();
            }
        }
    }

    /// The token holder's closure returned: record it and (thread mode)
    /// hand the token on. Fiber mode suspends later, via
    /// [`fiber_exit`](Self::fiber_exit), after the rank's result is
    /// stored.
    pub fn finish(&self, rank: usize) {
        let mut st = self.inner.lock();
        debug_assert!(!st.finished[rank]);
        st.finished[rank] = true;
        st.live -= 1;
        match &self.mech {
            Mech::Park(parkers) => {
                if st.live > 0 {
                    self.grant_next(&mut st, parkers);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Mech::Fiber(_) => {}
        }
    }

    /// A rank panicked: wake every unfinished rank so it can observe
    /// mailbox poison and unwind (determinism no longer matters). In
    /// fiber mode the drive loop performs the waking.
    pub fn abort(&self) {
        let mut st = self.inner.lock();
        if st.aborted {
            return;
        }
        st.aborted = true;
        if self.is_deadlocked() {
            // The deadlock detector already granted every unfinished
            // rank exactly once; granting again would hand unwinding
            // ranks tokens nobody will ever consume.
            return;
        }
        if let Mech::Park(parkers) = &self.mech {
            for (r, p) in parkers.iter().enumerate() {
                if !st.finished[r] {
                    self.count_grant(p.grant());
                }
            }
        }
    }

    /// Consume any grant still pending for a rank that is unwinding and
    /// will never park again (the `run_rank` panic path calls this
    /// after [`abort`](Self::abort), which granted the panicking rank
    /// its own wakeup token).
    pub fn drain_grant(&self, rank: usize) {
        if let Mech::Park(parkers) = &self.mech {
            if parkers[rank].drain() {
                self.count_consume();
            }
        }
    }

    /// Terminal accounting snapshot. Meaningful after the world has
    /// joined; mid-run it is merely a consistent-at-some-instant view.
    pub fn audit(&self) -> SchedAudit {
        let st = self.inner.lock();
        SchedAudit {
            granted: self.granted.load(Ordering::Relaxed),
            consumed: self.consumed.load(Ordering::Relaxed),
            live: st.live,
            ready: st.ready.len(),
            blocked: st.blocked.iter().filter(|&&b| b).count(),
            finished: st.finished.iter().filter(|&&f| f).count(),
            deadlocked: self.is_deadlocked(),
            aborted: st.aborted,
        }
    }

    /// Final switch out of a rank's fiber, after its result (Ok or
    /// panic payload) is stored. Marks the rank finished if the panic
    /// path skipped [`finish`](Self::finish). Never returns control to
    /// the fiber: the drive loop drops finished ranks.
    #[cfg(target_arch = "x86_64")]
    pub fn fiber_exit(&self, rank: usize) {
        let Mech::Fiber(fs) = &self.mech else {
            panic!("fiber_exit on a thread-parking scheduler")
        };
        {
            let mut st = self.inner.lock();
            if !st.finished[rank] {
                st.finished[rank] = true;
                st.live -= 1;
            }
        }
        // SAFETY: called from rank's own fiber as its last action.
        unsafe { fs.to_host(rank) };
        // The drive loop never resumes a finished fiber; if it did, the
        // fiber's dead stack must not be re-entered.
        std::process::abort();
    }

    /// Run every fiber to completion on the calling thread, replaying
    /// the same FIFO token order as the thread-parking mechanism:
    /// rank 0 first, then the ready queue; on deadlock or abort, every
    /// unfinished fiber is resumed (in rank order) so it can unwind.
    /// Control comes back here only when a fiber finishes, or yields
    /// with nobody ready or after an abort; handoffs between runnable
    /// ranks switch fiber → fiber without visiting the host.
    #[cfg(target_arch = "x86_64")]
    pub fn drive_fibers(&self) {
        let Mech::Fiber(fs) = &self.mech else {
            panic!("drive_fibers on a thread-parking scheduler")
        };
        loop {
            let next = {
                let mut st = self.inner.lock();
                if st.live == 0 {
                    return;
                }
                if st.aborted || self.is_deadlocked() {
                    st.finished.iter().position(|&f| !f)
                } else if let Some(r) = st.ready.pop_front() {
                    Some(r)
                } else {
                    // Every live rank is blocked: flip to the deadlock
                    // protocol and resume them into the panic path.
                    self.deadlocked.store(true, Ordering::Relaxed);
                    st.finished.iter().position(|&f| !f)
                }
            };
            let Some(r) = next else { return };
            // A fiber resume is a grant consumed synchronously: the
            // fiber runs now, on this thread, or never.
            self.count_grant(true);
            self.count_consume();
            // SAFETY: r is unfinished and was initialized by the
            // runtime before driving started.
            unsafe { fs.resume(r) };
        }
    }
}

/// Test harness: run one scripted rank body under each switch
/// mechanism with the runtime's per-rank protocol (wait for the token,
/// run, then `finish` — or, on a raise, `abort` + `drain_grant`).
/// Each returns the typed error every rank raised (if any) and the
/// terminal audit.
#[cfg(test)]
pub(crate) mod testkit {
    use super::{SchedAudit, SimScheduler};
    use crate::error::BeffError;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A rank body; it runs while holding the token.
    pub(crate) type Script<'a> = dyn Fn(&SimScheduler, usize) + Sync + 'a;

    fn rank_protocol(s: &SimScheduler, rank: usize, body: &Script<'_>) -> Option<BeffError> {
        let out = catch_unwind(AssertUnwindSafe(|| {
            s.wait_turn(rank);
            body(s, rank);
        }));
        match out {
            Ok(()) => {
                s.finish(rank);
                None
            }
            Err(payload) => {
                s.abort();
                s.drain_grant(rank);
                let typed = payload.downcast::<BeffError>().map(|e| *e);
                Some(typed.unwrap_or_else(|_| BeffError::Io("untyped panic".into())))
            }
        }
    }

    /// One parked OS thread per rank ([`SimScheduler::new`]).
    pub(crate) fn run_parked(n: usize, body: &Script<'_>) -> (Vec<Option<BeffError>>, SchedAudit) {
        crate::error::silence_fault_panics();
        let s = SimScheduler::new(n);
        let raised = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let s = &s;
                    scope.spawn(move || rank_protocol(s, rank, body))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        (raised, s.audit())
    }

    /// One fiber per rank on this thread ([`SimScheduler::new_fibers`]).
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn run_fibers(n: usize, body: &Script<'_>) -> (Vec<Option<BeffError>>, SchedAudit) {
        use crate::fiber::{init_fiber, FiberStack, STACK_SIZE};
        crate::error::silence_fault_panics();
        let s = SimScheduler::new_fibers(n);
        let raised = std::cell::RefCell::new(vec![None; n]);
        let stacks: Vec<FiberStack> = (0..n).map(|_| FiberStack::new(STACK_SIZE)).collect();
        for (rank, stack) in stacks.iter().enumerate() {
            let (s, raised) = (&s, &raised);
            // SAFETY: the stacks and every borrow in the body outlive
            // `drive_fibers` below, which runs each fiber to its final
            // switch (`fiber_exit`).
            let sp = unsafe {
                init_fiber(
                    stack,
                    Box::new(move || {
                        raised.borrow_mut()[rank] = rank_protocol(s, rank, body);
                        s.fiber_exit(rank);
                    }),
                )
            };
            s.fibers().install(rank, sp);
        }
        s.drive_fibers();
        assert!(stacks.iter().all(FiberStack::canary_intact));
        (raised.into_inner(), s.audit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_rank_runs_immediately() {
        let s = SimScheduler::new(1);
        s.wait_turn(0);
        s.finish(0);
    }

    #[test]
    fn token_order_is_round_robin() {
        // Each rank appends its id on its turn, yields nothing (no
        // blocking), so finish() order must be 0, 1, 2, 3.
        let s = Arc::new(SimScheduler::new(4));
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for rank in 0..4 {
                let s = Arc::clone(&s);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    s.wait_turn(rank);
                    order.lock().push(rank);
                    s.finish(rank);
                });
            }
        });
        assert_eq!(&*order.lock(), &[0, 1, 2, 3]);
    }

    #[test]
    fn unblock_requeues_in_fifo_order() {
        // Rank 0 blocks; rank 1 unblocks it then finishes; rank 0 must
        // run again afterwards.
        let s = Arc::new(SimScheduler::new(2));
        let hits = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            {
                let s = Arc::clone(&s);
                let hits = Arc::clone(&hits);
                scope.spawn(move || {
                    s.wait_turn(0);
                    s.yield_blocked(0); // parks until rank 1 unblocks us
                    hits.fetch_add(1, Ordering::Relaxed);
                    s.finish(0);
                });
            }
            {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    s.wait_turn(1);
                    s.unblock(0);
                    s.finish(1);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn all_blocked_is_detected_as_deadlock() {
        let s = Arc::new(SimScheduler::new(2));
        let panics = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for rank in 0..2 {
                let s = Arc::clone(&s);
                let panics = Arc::clone(&panics);
                scope.spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        s.wait_turn(rank);
                        s.yield_blocked(rank); // nobody will ever unblock us
                    }));
                    if r.is_err() {
                        panics.fetch_add(1, Ordering::Relaxed);
                    }
                    s.finish(rank);
                });
            }
        });
        assert_eq!(panics.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn abort_wakes_parked_ranks() {
        let s = Arc::new(SimScheduler::new(2));
        std::thread::scope(|scope| {
            {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    s.wait_turn(0);
                    s.yield_blocked(0); // returns (not via deadlock panic) on abort
                    s.finish(0);
                });
            }
            {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    s.wait_turn(1);
                    s.abort();
                    s.finish(1);
                });
            }
        });
    }

    /// The fiber mechanism replays the identical token order: ranks
    /// 0..n-1 block, the last rank unblocks them all, and they resume
    /// in FIFO order.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fiber_drive_replays_fifo_token_order() {
        use crate::fiber::{init_fiber, FiberStack, STACK_SIZE};
        let n = 3;
        let s = SimScheduler::new_fibers(n);
        let log = std::cell::RefCell::new(Vec::new());
        let stacks: Vec<FiberStack> = (0..n).map(|_| FiberStack::new(STACK_SIZE)).collect();
        for (rank, stack) in stacks.iter().enumerate() {
            let s = &s;
            let log = &log;
            let sp = unsafe {
                init_fiber(
                    stack,
                    Box::new(move || {
                        s.wait_turn(rank);
                        log.borrow_mut().push(("start", rank));
                        if rank == n - 1 {
                            for peer in 0..n - 1 {
                                s.unblock(peer); // all already blocked
                            }
                        } else {
                            s.yield_blocked(rank);
                            log.borrow_mut().push(("resume", rank));
                        }
                        s.finish(rank);
                        s.fiber_exit(rank);
                    }),
                )
            };
            s.fibers().install(rank, sp);
        }
        s.drive_fibers();
        assert_eq!(
            log.borrow().as_slice(),
            &[
                ("start", 0),
                ("start", 1),
                ("start", 2),
                ("resume", 0),
                ("resume", 1),
            ]
        );
        for st in &stacks {
            assert!(st.canary_intact());
        }
    }

    /// Both mechanisms replay one token order: a scripted workload with
    /// several block/unblock rounds, a cooperative rotation, one rank
    /// (0) re-queued twice plus a redundant unblock, and a final
    /// all-blocked deadlock. The event logs, the per-rank `Deadlock`
    /// raises and the terminal audits must be identical, and the log
    /// must be the FIFO order derived by hand.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn park_and_fiber_replay_one_token_order() {
        fn script(log: &Mutex<Vec<(usize, &'static str)>>, s: &SimScheduler, rank: usize) {
            let note = |what| log.lock().push((rank, what));
            note("start");
            match rank {
                0 => {
                    s.yield_blocked(0);
                    note("resumed");
                    s.yield_blocked(0);
                    note("resumed again");
                }
                1 => {
                    s.unblock(0);
                    s.unblock(0); // already re-queued: a no-op
                    s.yield_blocked(1);
                    note("resumed");
                    s.unblock(0);
                }
                2 => {
                    s.yield_turn(2);
                    note("rotated");
                    s.unblock(1);
                    s.unblock(3);
                }
                _ => {
                    s.yield_blocked(3);
                    note("resumed");
                }
            }
            // Nobody is left to unblock anyone: the world deadlocks.
            s.yield_blocked(rank);
            note("escaped the deadlock");
        }
        let run = |fibers: bool| {
            let log = Mutex::new(Vec::new());
            let body = |s: &SimScheduler, rank: usize| script(&log, s, rank);
            let (raised, audit) = if fibers {
                testkit::run_fibers(4, &body)
            } else {
                testkit::run_parked(4, &body)
            };
            (log.into_inner(), raised, audit)
        };
        let (park_log, park_raised, park_audit) = run(false);
        let (fiber_log, fiber_raised, fiber_audit) = run(true);
        assert_eq!(
            park_log,
            [
                (0, "start"),
                (1, "start"),
                (2, "start"),
                (3, "start"),
                (0, "resumed"),
                (2, "rotated"),
                (1, "resumed"),
                (3, "resumed"),
                (0, "resumed again"),
            ]
        );
        assert_eq!(fiber_log, park_log);
        assert_eq!(park_raised, vec![Some(BeffError::Deadlock); 4]);
        assert_eq!(fiber_raised, park_raised);
        assert!(park_audit.balanced() && fiber_audit.balanced());
        assert!(park_audit.deadlocked && park_audit.aborted);
        // 1 start + 8 handoffs + 4 deadlock wakeups, in both mechanisms.
        assert_eq!(park_audit.granted, 13);
        // A raising rank never calls `finish`; only `fiber_exit` marks
        // its fiber finished (so the drive loop never resumes it), so
        // the live/finished split differs by design.
        let tokens = |a: SchedAudit| SchedAudit { live: 0, finished: 0, ..a };
        assert_eq!(tokens(fiber_audit), tokens(park_audit));
    }
}

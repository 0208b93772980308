//! Typed two-queue matching ports over generic actor ids.
//!
//! A [`Port`] is the workload-agnostic generalization of an MPI-style
//! mailbox: each actor owns one, holding two structures:
//!
//! * an *unexpected-message* queue: messages that arrived before any
//!   matching receive was posted, in arrival order;
//! * a *posted-receive* list: pending receives, each with a ticket and
//!   a slot the matching message is delivered into.
//!
//! What counts as "matching" is the personality's business: a message
//! type implements [`Message`] and names its [`Message::Filter`] — MPI
//! instantiates `Port<Envelope>` with a (context, source, tag) pattern;
//! a storage workload might match on request ids. The queue discipline
//! below is identical for every instantiation.
//!
//! A push first tries to complete the oldest open posted receive it
//! matches ([`PushOutcome::Matched`]); otherwise it appends to the
//! unexpected queue *silently* ([`PushOutcome::Queued`]). Receivers
//! scan the unexpected queue once, then post and sleep — no rescanning
//! of the whole queue per wakeup.
//!
//! Only a thread blocked in the real-mode [`Port::recv`] /
//! [`Port::recv_timeout`] ever sleeps on the port's condvar, and each
//! such thread is counted in the port while it waits. A matched push
//! (or a poison) signals the condvar only when that count is non-zero:
//! sim-mode receivers park on the token scheduler instead, which the
//! caller wakes on [`PushOutcome::Matched`], so a simulated message
//! path makes no wake syscall at all.
//!
//! *Non-overtaking* holds by construction: a receive only posts after
//! finding no match in the unexpected queue, so every message that
//! could match an open slot is a later arrival than anything queued —
//! per-sender program order is preserved across both paths.

use crate::error::BeffError;
use beff_sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::Duration;

/// A message deliverable through a [`Port`], together with the filter
/// its receivers match on.
pub trait Message: Send + std::fmt::Debug {
    /// The matching pattern a receive is posted with.
    type Filter: Copy + Send + std::fmt::Debug;

    /// Does `filter` accept `msg`? Must be a pure function: the
    /// two-queue optimization is behaviorally equivalent to a linear
    /// scan only if admission does not depend on queue state.
    fn admits(filter: &Self::Filter, msg: &Self) -> bool;
}

/// What a push did — drives the targeted-wakeup protocol: only
/// `Matched` means a receiver is waiting on this message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Delivered straight into a posted receive's slot.
    Matched,
    /// Nobody was waiting; appended to the unexpected queue (no wakeup).
    Queued,
}

/// Result of [`Port::claim_or_post`]: one lock acquisition either
/// finds the message, reports the world dead, or leaves a posted
/// receive behind.
#[derive(Debug)]
pub enum Claim<M> {
    /// A matching message was waiting in the unexpected queue.
    Ready(M),
    /// No match, and the world is poisoned: nothing will ever arrive.
    Poisoned,
    /// No match; a receive was posted under this ticket (redeem it with
    /// [`Port::take_delivered`] once woken).
    Posted(u64),
}

#[derive(Debug)]
struct Posted<M: Message> {
    ticket: u64,
    m: M::Filter,
    delivered: Option<M>,
}

#[derive(Debug)]
struct Inner<M: Message> {
    unexpected: VecDeque<M>,
    posted: Vec<Posted<M>>,
    next_ticket: u64,
    /// Set when the world aborts (an actor panicked); wakes blocked
    /// receivers so they do not deadlock on a dead peer.
    poisoned: bool,
    /// Threads currently blocked on the condvar (real-mode `recv` /
    /// `recv_timeout`). Pushes and poison skip the notify — a futex
    /// syscall even with nobody to wake — while this is zero.
    waiters: usize,
}

// Manual: `derive(Default)` would demand `M: Default`, which messages
// need not be.
impl<M: Message> Default for Inner<M> {
    fn default() -> Self {
        Self {
            unexpected: VecDeque::new(),
            posted: Vec::new(),
            next_ticket: 0,
            poisoned: false,
            waiters: 0,
        }
    }
}

impl<M: Message> Inner<M> {
    fn take_unexpected(&mut self, m: M::Filter) -> Option<M> {
        let pos = self.unexpected.iter().position(|e| M::admits(&m, e))?;
        Some(self.unexpected.remove(pos).expect("position just found"))
    }

    /// The receive prologue shared by every receive flavor: unexpected
    /// queue first, then poison, then post.
    fn claim_or_post(&mut self, m: M::Filter) -> Claim<M> {
        if let Some(msg) = self.take_unexpected(m) {
            Claim::Ready(msg)
        } else if self.poisoned {
            Claim::Poisoned
        } else {
            Claim::Posted(self.post(m))
        }
    }

    /// Has the slot for `ticket` been filled by a push?
    fn is_delivered(&self, ticket: u64) -> bool {
        self.posted.iter().any(|p| p.ticket == ticket && p.delivered.is_some())
    }

    fn post(&mut self, m: M::Filter) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.posted.push(Posted { ticket, m, delivered: None });
        ticket
    }

    /// Remove the slot for `ticket`, returning its delivery if any.
    fn remove_slot(&mut self, ticket: u64) -> Option<M> {
        let pos = self.posted.iter().position(|p| p.ticket == ticket)?;
        self.posted.swap_remove(pos).delivered
    }
}

/// Lock-hierarchy position of an actor's port (DESIGN.md §8): below
/// the scheduler locks — senders finish their port transaction before
/// touching the token scheduler.
static PORT_RANK: beff_sync::Rank = beff_sync::Rank::new(30, "sim.port");

/// Two-queue matching port + wakeup for one actor.
#[derive(Debug)]
pub struct Port<M: Message> {
    inner: Mutex<Inner<M>>,
    cond: Condvar,
}

impl<M: Message> Default for Port<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Message> Port<M> {
    pub fn new() -> Self {
        Self {
            inner: Mutex::ranked(&PORT_RANK, Inner::default()),
            cond: Condvar::new(),
        }
    }

    /// Deliver a message (called from the sender's thread). Signals
    /// the condvar only on [`PushOutcome::Matched`], and only if a
    /// real-mode receiver is blocked on it.
    pub fn push(&self, msg: M) -> PushOutcome {
        let mut g = self.inner.lock();
        if let Some(slot) = g
            .posted
            .iter_mut()
            .filter(|p| p.delivered.is_none() && M::admits(&p.m, &msg))
            .min_by_key(|p| p.ticket)
        {
            slot.delivered = Some(msg);
            let wake = g.waiters > 0;
            drop(g);
            if wake {
                self.cond.notify_all();
            }
            return PushOutcome::Matched;
        }
        g.unexpected.push_back(msg);
        PushOutcome::Queued
    }

    /// Abort: wake every blocked receiver with a panic.
    pub fn poison(&self) {
        let mut g = self.inner.lock();
        g.poisoned = true;
        let wake = g.waiters > 0;
        drop(g);
        if wake {
            self.cond.notify_all();
        }
    }

    /// Has the world been poisoned?
    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned
    }

    fn panic_poisoned() -> ! {
        // Typed so world drivers can report "a peer died" as a value
        // instead of tearing the caller down.
        BeffError::PeerFailed.raise()
    }

    /// Blocking receive of the first message matching `m` (unexpected
    /// arrivals first, in arrival order, which preserves per-sender
    /// ordering). Used in real mode; sim mode drives the nonblocking
    /// pieces below under the token scheduler.
    ///
    /// Panics if the world is poisoned (another actor died), so a
    /// failed run aborts instead of deadlocking.
    pub fn recv(&self, m: M::Filter) -> M {
        let mut g = self.inner.lock();
        let ticket = match g.claim_or_post(m) {
            Claim::Ready(msg) => return msg,
            Claim::Poisoned => Self::panic_poisoned(),
            Claim::Posted(ticket) => ticket,
        };
        g.waiters += 1;
        loop {
            self.cond.wait(&mut g);
            if g.is_delivered(ticket) {
                g.waiters -= 1;
                return g.remove_slot(ticket).expect("delivery just observed");
            }
            if g.poisoned {
                g.waiters -= 1;
                g.remove_slot(ticket);
                Self::panic_poisoned();
            }
        }
    }

    /// Like [`recv`](Self::recv) but gives up after `timeout` (used by
    /// deadlock-detecting tests; real mode only). Returns `None` on
    /// timeout or poison.
    pub fn recv_timeout(&self, m: M::Filter, timeout: Duration) -> Option<M> {
        // beff-analyze: allow(wall-clock): real-mode-only API; sim worlds never call this
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.inner.lock();
        let ticket = match g.claim_or_post(m) {
            Claim::Ready(msg) => return Some(msg),
            Claim::Poisoned => return None,
            Claim::Posted(ticket) => ticket,
        };
        g.waiters += 1;
        loop {
            // beff-analyze: allow(taint): real-mode-only API (see the wall-clock waiver above); sim worlds never block on a deadline
            let timed_out = self.cond.wait_until(&mut g, deadline).timed_out();
            // Check the slot even on timeout: a push may have completed
            // the match as the deadline expired, and that message must
            // not be lost.
            if g.is_delivered(ticket) {
                g.waiters -= 1;
                return g.remove_slot(ticket);
            }
            if g.poisoned || timed_out {
                g.waiters -= 1;
                g.remove_slot(ticket);
                return None;
            }
        }
    }

    // ----- nonblocking pieces for the sim-mode token scheduler ----------

    /// Take a matching message from the unexpected queue, if any.
    pub fn try_recv(&self, m: M::Filter) -> Option<M> {
        self.inner.lock().take_unexpected(m)
    }

    /// The whole nonblocking receive prologue under one lock: take a
    /// matching unexpected message, else report poison, else post a
    /// receive. Equivalent to [`try_recv`](Self::try_recv), then
    /// [`is_poisoned`](Self::is_poisoned), then [`post`](Self::post) —
    /// without releasing the lock between them.
    pub fn claim_or_post(&self, m: M::Filter) -> Claim<M> {
        self.inner.lock().claim_or_post(m)
    }

    /// Post a receive and return its ticket. The caller must have just
    /// tried [`try_recv`](Self::try_recv) (the non-overtaking argument
    /// relies on the unexpected queue holding no match at post time).
    pub fn post(&self, m: M::Filter) -> u64 {
        self.inner.lock().post(m)
    }

    /// Remove the posted slot for `ticket`, returning the delivered
    /// message if a push completed it.
    pub fn take_delivered(&self, ticket: u64) -> Option<M> {
        self.inner.lock().remove_slot(ticket)
    }

    // ----- probes / diagnostics -----------------------------------------

    /// Nonblocking probe: does an *unclaimed* matching message exist?
    /// (Messages already delivered to a posted receive are spoken for.)
    pub fn probe(&self, m: M::Filter) -> bool {
        self.inner.lock().unexpected.iter().any(|e| M::admits(&m, e))
    }

    /// Number of messages held (unexpected + delivered-but-untaken).
    pub fn len(&self) -> usize {
        let g = self.inner.lock();
        g.unexpected.len() + g.posted.iter().filter(|p| p.delivered.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Threads currently blocked on the condvar.
    #[cfg(test)]
    fn waiters(&self) -> usize {
        self.inner.lock().waiters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal non-MPI message: matched on an exact channel id and
    /// an optional kind wildcard.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Note {
        chan: u32,
        kind: u32,
        body: u64,
    }

    #[derive(Debug, Clone, Copy)]
    struct NoteFilter {
        chan: u32,
        kind: Option<u32>,
    }

    impl Message for Note {
        type Filter = NoteFilter;
        fn admits(f: &NoteFilter, n: &Note) -> bool {
            n.chan == f.chan && f.kind.is_none_or(|k| k == n.kind)
        }
    }

    fn note(chan: u32, kind: u32, body: u64) -> Note {
        Note { chan, kind, body }
    }

    #[test]
    fn matches_by_filter_fields() {
        let p: Port<Note> = Port::new();
        assert_eq!(p.push(note(0, 1, 10)), PushOutcome::Queued);
        assert_eq!(p.push(note(0, 2, 20)), PushOutcome::Queued);
        let n = p.recv(NoteFilter { chan: 0, kind: Some(2) });
        assert_eq!(n.body, 20);
        let n = p.recv(NoteFilter { chan: 0, kind: Some(1) });
        assert_eq!(n.body, 10);
        assert!(p.is_empty());
    }

    #[test]
    fn wildcard_takes_first_arrival() {
        let p: Port<Note> = Port::new();
        p.push(note(0, 3, 7));
        p.push(note(0, 1, 8));
        let n = p.recv(NoteFilter { chan: 0, kind: None });
        assert_eq!(n.kind, 3);
    }

    #[test]
    fn channel_isolation() {
        let p: Port<Note> = Port::new();
        p.push(note(1, 0, 5));
        assert!(!p.probe(NoteFilter { chan: 0, kind: None }));
        assert!(p.probe(NoteFilter { chan: 1, kind: None }));
    }

    #[test]
    fn oldest_posted_slot_wins() {
        let p: Port<Note> = Port::new();
        let t1 = p.post(NoteFilter { chan: 0, kind: None });
        let t2 = p.post(NoteFilter { chan: 0, kind: None });
        p.push(note(0, 4, 1));
        assert!(p.take_delivered(t1).is_some(), "first posted receive matches first");
        assert!(p.take_delivered(t2).is_none());
    }

    #[test]
    fn push_into_posted_slot_reports_matched_once() {
        let p: Port<Note> = Port::new();
        let ticket = p.post(NoteFilter { chan: 0, kind: Some(9) });
        assert_eq!(p.push(note(0, 9, 1)), PushOutcome::Matched);
        // a second matching push must NOT land in the filled slot
        assert_eq!(p.push(note(0, 9, 2)), PushOutcome::Queued);
        assert_eq!(p.take_delivered(ticket).map(|n| n.body), Some(1));
    }

    #[test]
    fn cancelled_post_leaves_no_slot() {
        let p: Port<Note> = Port::new();
        let ticket = p.post(NoteFilter { chan: 0, kind: None });
        assert!(p.take_delivered(ticket).is_none()); // removes the slot
        assert_eq!(p.push(note(0, 0, 1)), PushOutcome::Queued);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn poison_wakes_blocked_receiver_with_panic() {
        use std::sync::Arc;
        let p: Arc<Port<Note>> = Arc::new(Port::new());
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p2.recv(NoteFilter { chan: 0, kind: None });
            }));
            r.is_err()
        });
        std::thread::sleep(Duration::from_millis(20));
        p.poison();
        assert!(h.join().unwrap(), "receiver must panic on poison");
    }

    /// Spin (yielding) until `n` receivers are blocked on `p`.
    fn await_waiters(p: &Port<Note>, n: usize) {
        while p.waiters() != n {
            std::thread::yield_now();
        }
    }

    /// Join a receiver thread, re-raising its panic if it had one.
    fn joined<T>(h: std::thread::JoinHandle<T>) -> T {
        h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
    }

    #[test]
    fn blocked_receiver_is_woken_by_push_and_by_poison() {
        use std::sync::Arc;
        let p: Arc<Port<Note>> = Arc::new(Port::new());
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || p2.recv(NoteFilter { chan: 0, kind: None }).body);
        await_waiters(&p, 1);
        assert_eq!(p.push(note(0, 0, 42)), PushOutcome::Matched);
        assert_eq!(joined(h), 42);
        assert_eq!(p.waiters(), 0, "a delivered receive stops waiting");

        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p2.recv(NoteFilter { chan: 0, kind: None });
            }))
            .is_err()
        });
        await_waiters(&p, 1);
        p.poison();
        assert!(joined(h), "receiver must panic on poison");
        assert_eq!(p.waiters(), 0, "a poisoned receive stops waiting");
    }

    #[test]
    fn waiter_count_returns_to_zero_on_timeout_and_poison() {
        use std::sync::Arc;
        let p: Arc<Port<Note>> = Arc::new(Port::new());
        let f = NoteFilter { chan: 0, kind: None };
        assert!(p.recv_timeout(f, Duration::from_millis(5)).is_none());
        assert_eq!(p.waiters(), 0, "a timed-out receive stops waiting");
        assert_eq!(p.push(note(0, 0, 1)), PushOutcome::Queued, "its slot is gone too");

        let _ = p.recv(f);
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || p2.recv_timeout(f, Duration::from_secs(60)));
        await_waiters(&p, 1);
        p.poison();
        assert!(joined(h).is_none());
        assert_eq!(p.waiters(), 0, "a poisoned timed receive stops waiting");
    }

    #[test]
    fn sim_mode_pieces_never_count_a_waiter() {
        let p: Port<Note> = Port::new();
        let f = NoteFilter { chan: 0, kind: None };
        assert!(p.try_recv(f).is_none());
        let ticket = p.post(f);
        assert_eq!(p.push(note(0, 0, 7)), PushOutcome::Matched);
        assert_eq!(p.waiters(), 0);
        assert_eq!(p.take_delivered(ticket).map(|n| n.body), Some(7));

        let Claim::Posted(ticket) = p.claim_or_post(f) else { panic!("nothing queued") };
        assert_eq!(p.push(note(0, 0, 8)), PushOutcome::Matched);
        assert_eq!(p.waiters(), 0);
        assert_eq!(p.take_delivered(ticket).map(|n| n.body), Some(8));
        assert!(p.is_empty());
    }

    #[test]
    fn claim_or_post_prefers_queued_then_poison() {
        let p: Port<Note> = Port::new();
        let f = NoteFilter { chan: 0, kind: None };
        p.push(note(0, 0, 3));
        p.poison();
        // A message already queued is still handed out after poison,
        // exactly as try_recv-before-is_poisoned did.
        assert!(matches!(p.claim_or_post(f), Claim::Ready(n) if n.body == 3));
        assert!(matches!(p.claim_or_post(f), Claim::Poisoned));
        assert_eq!(p.push(note(0, 0, 4)), PushOutcome::Queued, "a poisoned claim posts nothing");
    }

    /// The two-queue structure must be observationally equivalent to
    /// the naive model: one linear list scanned per receive. Random
    /// push/recv interleavings drive both; every receive must return
    /// the same message. (The MPI-typed twin of this property lives in
    /// beff-mpi's property suite; this one pins the generic core.)
    #[test]
    fn two_queue_equals_linear_scan_model() {
        use crate::rng::Rng64;

        for case in 0..64u64 {
            let mut rng = Rng64::new(0x9A17_BEEF ^ case);
            let p: Port<Note> = Port::new();
            let mut model: Vec<Note> = Vec::new();
            let mut seq = 0u64;
            for _ in 0..200 {
                if rng.below(3) < 2 || model.is_empty() {
                    let n = note(rng.below(2) as u32, rng.below(3) as u32, seq);
                    seq += 1;
                    p.push(n);
                    model.push(n);
                } else {
                    let f = NoteFilter {
                        chan: rng.below(2) as u32,
                        kind: if rng.below(2) == 0 { None } else { Some(rng.below(3) as u32) },
                    };
                    let got = p.try_recv(f);
                    let want = model
                        .iter()
                        .position(|n| Note::admits(&f, n))
                        .map(|i| model.remove(i));
                    assert_eq!(got, want, "case {case}: port diverged from linear model");
                }
            }
            assert_eq!(p.len(), model.len(), "case {case}: residue count diverged");
        }
    }
}

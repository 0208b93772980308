//! Per-rank mailboxes with MPI-style two-queue matching.
//!
//! The queue mechanism — unexpected-message queue, posted-receive
//! list, oldest-ticket matching, targeted wakeups, poison — lives in
//! the substrate as the generic [`beff_sim::port::Port`]; this module
//! is the MPI instantiation: a [`Mailbox`] is a `Port<Envelope>`
//! matched by the MPI receive pattern ([`Match`]: communicator
//! context exact, source and tag each either exact or wildcard).
//!
//! MPI *non-overtaking* holds by construction: a receive only posts
//! after finding no match in the unexpected queue, so every envelope
//! that could match an open slot is a later arrival than anything
//! queued — per-sender program order is preserved across both paths.
//!
//! A single sender pushes its messages in program order, so messages
//! between the same pair with the same tag complete in order.

use crate::message::{Envelope, Tag};
use beff_sim::port::{Message, Port};

pub use beff_sim::port::{Claim, PushOutcome};

/// Matching pattern for a receive.
#[derive(Debug, Clone, Copy)]
pub struct Match {
    /// Communicator context (always exact).
    pub ctx: u32,
    /// `None` = MPI_ANY_SOURCE.
    pub src: Option<usize>,
    /// `None` = MPI_ANY_TAG.
    pub tag: Option<Tag>,
}

impl Match {
    /// Does this pattern accept the envelope? (Public so reference
    /// models in the property tests share the exact production
    /// predicate.)
    #[inline]
    pub fn matches(&self, e: &Envelope) -> bool {
        e.ctx == self.ctx
            && self.src.is_none_or(|s| s == e.src)
            && self.tag.is_none_or(|t| t == e.tag)
    }
}

impl Message for Envelope {
    type Filter = Match;

    #[inline]
    fn admits(filter: &Match, msg: &Envelope) -> bool {
        filter.matches(msg)
    }
}

/// Two-queue matching mailbox + wakeup for one rank: the MPI
/// instantiation of the substrate's typed port.
pub type Mailbox = Port<Envelope>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use std::sync::Arc;
    use std::time::Duration;

    fn env(ctx: u32, src: usize, tag: Tag) -> Envelope {
        Envelope { ctx, src, tag, head: 0.0, arrival: 0.0, payload: Payload::Len(0), route: None }
    }

    #[test]
    fn matches_by_src_and_tag() {
        let mb = Mailbox::new();
        assert_eq!(mb.push(env(0, 1, 10)), PushOutcome::Queued);
        assert_eq!(mb.push(env(0, 2, 20)), PushOutcome::Queued);
        let e = mb.recv(Match { ctx: 0, src: Some(2), tag: Some(20) });
        assert_eq!(e.src, 2);
        let e = mb.recv(Match { ctx: 0, src: Some(1), tag: Some(10) });
        assert_eq!(e.src, 1);
        assert!(mb.is_empty());
    }

    #[test]
    fn any_source_takes_first_arrival() {
        let mb = Mailbox::new();
        mb.push(env(0, 3, 7));
        mb.push(env(0, 1, 7));
        let e = mb.recv(Match { ctx: 0, src: None, tag: Some(7) });
        assert_eq!(e.src, 3);
    }

    #[test]
    fn context_isolation() {
        let mb = Mailbox::new();
        mb.push(env(1, 0, 5));
        assert!(!mb.probe(Match { ctx: 0, src: None, tag: None }));
        assert!(mb.probe(Match { ctx: 1, src: None, tag: None }));
    }

    #[test]
    fn non_overtaking_per_sender() {
        let mb = Mailbox::new();
        for i in 0..10u32 {
            let mut e = env(0, 0, 1);
            e.payload = Payload::Len(i as u64);
            mb.push(e);
        }
        for i in 0..10u64 {
            let e = mb.recv(Match { ctx: 0, src: Some(0), tag: Some(1) });
            assert_eq!(e.payload.len(), i);
        }
    }

    #[test]
    fn blocking_recv_wakes_on_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || {
            mb2.recv(Match { ctx: 0, src: Some(0), tag: Some(42) }).tag
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(mb.push(env(0, 0, 42)), PushOutcome::Matched);
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn push_into_posted_slot_reports_matched() {
        let mb = Mailbox::new();
        let ticket = mb.post(Match { ctx: 0, src: Some(1), tag: None });
        assert_eq!(mb.push(env(0, 1, 9)), PushOutcome::Matched);
        // a second matching push must NOT land in the filled slot
        assert_eq!(mb.push(env(0, 1, 9)), PushOutcome::Queued);
        assert!(mb.take_delivered(ticket).is_some());
    }

    #[test]
    fn push_skips_nonmatching_posted_slot() {
        let mb = Mailbox::new();
        let ticket = mb.post(Match { ctx: 0, src: Some(5), tag: None });
        assert_eq!(mb.push(env(0, 1, 9)), PushOutcome::Queued);
        assert!(mb.take_delivered(ticket).is_none());
        assert!(mb.try_recv(Match { ctx: 0, src: Some(1), tag: None }).is_some());
    }

    #[test]
    fn oldest_posted_slot_wins() {
        let mb = Mailbox::new();
        let t1 = mb.post(Match { ctx: 0, src: None, tag: None });
        let t2 = mb.post(Match { ctx: 0, src: None, tag: None });
        mb.push(env(0, 4, 1));
        assert!(mb.take_delivered(t1).is_some(), "first posted receive matches first");
        assert!(mb.take_delivered(t2).is_none());
    }

    #[test]
    fn cancelled_post_leaves_no_slot() {
        let mb = Mailbox::new();
        let ticket = mb.post(Match { ctx: 0, src: None, tag: None });
        assert!(mb.take_delivered(ticket).is_none()); // removes the slot
        assert_eq!(mb.push(env(0, 0, 1)), PushOutcome::Queued);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn recv_timeout_times_out() {
        let mb = Mailbox::new();
        let r = mb.recv_timeout(
            Match { ctx: 0, src: None, tag: None },
            Duration::from_millis(10),
        );
        assert!(r.is_none());
        assert_eq!(mb.push(env(0, 0, 1)), PushOutcome::Queued, "stale slot must be gone");
    }

    #[test]
    fn recv_timeout_returns_match() {
        let mb = Mailbox::new();
        mb.push(env(0, 0, 1));
        let r = mb.recv_timeout(
            Match { ctx: 0, src: None, tag: None },
            Duration::from_millis(10),
        );
        assert!(r.is_some());
    }

    #[test]
    fn wildcard_tag_specific_source() {
        let mb = Mailbox::new();
        mb.push(env(0, 5, 100));
        mb.push(env(0, 6, 200));
        let e = mb.recv(Match { ctx: 0, src: Some(6), tag: None });
        assert_eq!(e.tag, 200);
    }
}

#[cfg(test)]
mod poison_tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn poison_wakes_blocked_receiver_with_panic() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mb2.recv(Match { ctx: 0, src: None, tag: None });
            }));
            r.is_err()
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.poison();
        assert!(h.join().unwrap(), "receiver must panic on poison");
    }

    #[test]
    fn poisoned_recv_timeout_returns_none() {
        let mb = Mailbox::new();
        mb.poison();
        assert!(mb
            .recv_timeout(Match { ctx: 0, src: None, tag: None }, Duration::from_secs(5))
            .is_none());
    }
}

//! Message envelopes.
//!
//! An [`Envelope`] is what travels between rank mailboxes. In *sim*
//! mode with `copy_data = false` the payload of benchmark traffic is
//! just a length ([`Payload::Len`]) so that simulating terabytes of
//! virtual traffic does not copy terabytes of host memory; semantic
//! messages (collective reductions, control data) always carry real
//! bytes.

use beff_sim::Secs;

/// Message tag. Tags below [`COLLECTIVE_BASE`] are free for user
/// code; the collective algorithms use the space above it.
pub type Tag = u32;

/// First tag reserved for internal collective protocols.
pub const COLLECTIVE_BASE: Tag = 0xC000_0000;

/// Payload of a message.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Real bytes (always used in real mode and for semantic data).
    Data(Vec<u8>),
    /// Only the length, for modeled benchmark traffic.
    Len(u64),
}

impl Payload {
    #[inline]
    pub fn len(&self) -> u64 {
        match self {
            Payload::Data(d) => d.len() as u64,
            Payload::Len(n) => *n,
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One in-flight message.
#[derive(Debug)]
pub struct Envelope {
    /// Communicator context the message belongs to.
    pub ctx: u32,
    /// Sender rank *within that context*.
    pub src: usize,
    pub tag: Tag,
    /// When the stream began flowing on the last egress link (sim mode;
    /// the receiver's drain may start here). 0.0 in real mode.
    pub head: Secs,
    /// When the last byte left the egress path (sim mode); 0.0 in real
    /// mode. The receiver drains its own ingress resources from `head`
    /// and completes no earlier than this.
    pub arrival: Secs,
    pub payload: Payload,
    /// The sender's *world* rank (sim mode; `None` in real mode). The
    /// receiver looks the `(wsrc, own world rank)` route up in the
    /// machine's route table — a borrow, two indexed loads — and drains
    /// its ingress half; the sender priced the egress half of the same
    /// route.
    pub wsrc: Option<u32>,
}

/// Result of a completed receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvInfo {
    /// Sender rank within the receiving communicator.
    pub src: usize,
    pub tag: Tag,
    /// Message length in bytes.
    pub len: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_len() {
        assert_eq!(Payload::Data(vec![1, 2, 3]).len(), 3);
        assert_eq!(Payload::Len(1 << 40).len(), 1 << 40);
        assert!(Payload::Data(vec![]).is_empty());
        assert!(!Payload::Len(1).is_empty());
    }
}

//! Generic next-free-time reservation — the single contention primitive
//! of the whole simulation.
//!
//! A [`Resource`] is anything that serializes work in time: a network
//! link, a disk, an I/O server CPU, a memory bus. Callers ask to occupy
//! it for `duration` seconds starting no earlier than `earliest`; the
//! resource answers with the actual start time (max of `earliest` and
//! its previous next-free time) and remembers the new next-free time.
//!
//! Reservation order follows the deterministic token scheduler's rank
//! interleaving, which is a pure function of the program's own
//! communication structure — so contended results are bit-identical
//! across runs (DESIGN.md §3, *Simulator execution model*).
//!
//! ## Fair-share contention mode
//!
//! Plain next-free-time booking packs queued reservations back-to-back:
//! K overlapping streams deliver the resource's full aggregate rate.
//! Real shared wires do not — arbitration, packet framing and
//! fair-share scheduling cost throughput once independent agents
//! contend. [`Resource::with_contention`] models that: a reservation
//! that arrives while the resource is still busy (it had to queue) is
//! billed `duration * factor` instead of `duration`, so K simultaneous
//! streams serialize at `rate / factor` while a lone stream still sees
//! the full rate. The factor is a per-machine calibration constant
//! (`NetParams::contention` in beff-netsim); `1.0` reproduces plain
//! FIFO packing bit-for-bit.
//!
//! The scheme is work-conserving (the resource never idles while work
//! is queued) and, for a batch of equal-length requests wanting the
//! same start time, order-independent: the booked finish times are the
//! same multiset regardless of the order the scheduler books them in.
//!
//! ## Single-writer booking
//!
//! A resource has exactly one booker at a time. Reservation order *is*
//! the simulation result (DESIGN.md §3), so every booking already runs
//! under the token scheduler: a fibered world books from one host
//! thread, and a parked-thread world hands the token over through the
//! parker mutex, which orders one rank's bookings before the next
//! rank's. A world run holds a lease on its machine's network
//! (`MachineNet::try_lease` in beff-netsim), so two worlds never book
//! one net's links at once; a simulated filesystem's servers and
//! channels belong to the one world (or actor run) driving it.
//!
//! Booking is therefore a plain load of the next-free time, the float
//! arithmetic, and a store — no compare-and-swap, no lock. The
//! next-free time stays an `AtomicU64` holding `f64` bits, so sharing a
//! resource across threads is still memory-safe; two *concurrent*
//! bookers outside that contract may lose one of their updates, which
//! is why the contract exists.

use crate::units::Secs;
use std::sync::atomic::{AtomicU64, Ordering};

/// A serially-reusable resource with a next-free-time.
#[derive(Debug)]
pub struct Resource {
    /// Next-free time as `f64` bits.
    next_free: AtomicU64,
    /// Occupancy multiplier applied to reservations that had to queue
    /// (fair-share contention mode); 1.0 = ideal FIFO packing.
    contention: f64,
}

impl Default for Resource {
    fn default() -> Self {
        Self::new()
    }
}

impl Resource {
    pub fn new() -> Self {
        Self::with_contention(1.0)
    }

    /// A resource in fair-share contention mode: reservations that
    /// arrive while the resource is busy occupy `duration * factor`.
    /// `factor` must be finite and ≥ 1.0; `1.0` is byte-identical to
    /// [`Resource::new`].
    pub fn with_contention(factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "contention factor must be finite and >= 1.0, got {factor}"
        );
        Self { next_free: AtomicU64::new(0f64.to_bits()), contention: factor }
    }

    /// The configured contention factor.
    pub fn contention(&self) -> f64 {
        self.contention
    }

    /// Reserve the resource for `duration` seconds, starting no earlier
    /// than `earliest`. Returns the actual start time.
    pub fn reserve(&self, earliest: Secs, duration: Secs) -> Secs {
        self.reserve_span(earliest, duration).0
    }

    /// Like [`reserve`](Self::reserve) but returns `(start, finish)` of
    /// the booked occupancy. In fair-share mode a queued reservation's
    /// finish is `start + duration * factor`, so callers that need the
    /// real finish time must use this (or
    /// [`reserve_finish`](Self::reserve_finish)) rather than adding
    /// `duration` themselves.
    pub fn reserve_span(&self, earliest: Secs, duration: Secs) -> (Secs, Secs) {
        debug_assert!(duration >= 0.0, "negative duration {duration}");
        let nf = f64::from_bits(self.next_free.load(Ordering::Relaxed));
        let start = earliest.max(nf);
        // Queued behind pending work ⇒ contended ⇒ fair-share billing.
        let occupancy = if nf > earliest { duration * self.contention } else { duration };
        let finish = start + occupancy;
        self.next_free.store(finish.to_bits(), Ordering::Relaxed);
        (start, finish)
    }

    /// Like [`reserve`](Self::reserve) but returns the *finish* time,
    /// which is what most cost computations want.
    #[inline]
    pub fn reserve_finish(&self, earliest: Secs, duration: Secs) -> Secs {
        self.reserve_span(earliest, duration).1
    }

    /// Current next-free time (for drain/sync style queries).
    pub fn horizon(&self) -> Secs {
        f64::from_bits(self.next_free.load(Ordering::Relaxed))
    }

    /// Reset to idle at t=0 (used between benchmark repetitions in
    /// tests; production runs never rewind time).
    pub fn reset(&self) {
        self.next_free.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_reservations_serialize() {
        let r = Resource::new();
        assert_eq!(r.reserve(0.0, 1.0), 0.0);
        // Asked for t=0 again, but the resource is busy until t=1.
        assert_eq!(r.reserve(0.0, 1.0), 1.0);
        assert_eq!(r.horizon(), 2.0);
    }

    #[test]
    fn idle_gap_is_respected() {
        let r = Resource::new();
        r.reserve(0.0, 1.0);
        // Arriving later than the horizon starts immediately.
        assert_eq!(r.reserve(5.0, 2.0), 5.0);
        assert_eq!(r.horizon(), 7.0);
    }

    #[test]
    fn reserve_finish_is_start_plus_duration() {
        let r = Resource::new();
        assert_eq!(r.reserve_finish(3.0, 2.0), 5.0);
        assert_eq!(r.reserve_finish(0.0, 1.0), 6.0);
    }

    #[test]
    fn zero_duration_reservation_is_ok() {
        let r = Resource::new();
        assert_eq!(r.reserve(1.0, 0.0), 1.0);
        assert_eq!(r.horizon(), 1.0);
    }

    #[test]
    fn reset_rewinds() {
        let r = Resource::new();
        r.reserve(0.0, 10.0);
        r.reset();
        assert_eq!(r.horizon(), 0.0);
    }

    #[test]
    fn contended_reservations_inflate_by_the_factor() {
        let r = Resource::with_contention(2.0);
        // First stream: uncontended, full rate.
        assert_eq!(r.reserve_span(0.0, 1.0), (0.0, 1.0));
        // Second stream wanted t=0 but had to queue: pays 2x.
        assert_eq!(r.reserve_span(0.0, 1.0), (1.0, 3.0));
        assert_eq!(r.reserve_span(0.0, 1.0), (3.0, 5.0));
        // A later arrival on an idle resource is uncontended again.
        assert_eq!(r.reserve_span(10.0, 1.0), (10.0, 11.0));
    }

    #[test]
    fn arrival_exactly_at_horizon_is_uncontended() {
        // No queueing happened: the stream arrived as the wire went
        // idle, so fair-share billing does not apply.
        let r = Resource::with_contention(3.0);
        r.reserve(0.0, 1.0);
        assert_eq!(r.reserve_span(1.0, 1.0), (1.0, 2.0));
    }

    #[test]
    fn factor_one_is_bitwise_identical_to_plain_fifo() {
        // The contention-factor=1.0 path must reproduce the plain
        // next-free-time arithmetic bit-for-bit: this is what keeps the
        // golden results byte-identical after the fair-share change.
        let plain = Resource::new();
        let faired = Resource::with_contention(1.0);
        let mut reference_nf: f64 = 0.0;
        let reqs: [(f64, f64); 6] = [
            (0.0, 1.5),
            (0.3, 0.7),
            (10.0, 1e-6),
            (9.999999, 3.25),
            (11.0, 0.0),
            (0.1, 123.456),
        ];
        for &(earliest, dur) in &reqs {
            // Reference: the pre-fair-share implementation.
            let ref_start = earliest.max(reference_nf);
            reference_nf = ref_start + dur;
            let (ps, pf) = plain.reserve_span(earliest, dur);
            let (fs, ff) = faired.reserve_span(earliest, dur);
            assert_eq!(ps.to_bits(), ref_start.to_bits());
            assert_eq!(pf.to_bits(), reference_nf.to_bits());
            assert_eq!(fs.to_bits(), ref_start.to_bits());
            assert_eq!(ff.to_bits(), reference_nf.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "contention factor")]
    fn sub_unity_factor_rejected() {
        Resource::with_contention(0.5);
    }

    /// The single-writer contract, end to end: ranks on parked OS
    /// threads book one contended link (factor 2.0) in token order,
    /// rotating the token after every booking. The `(start, finish)`
    /// spans and the traffic counters match, bit for bit, the same
    /// script on fibers and a serial reference that books round by
    /// round in rank order — the parker mutex orders the bookings, so
    /// an unlocked booking loses nothing.
    #[test]
    fn token_ordered_bookings_match_the_serial_reference() {
        use crate::link::Link;
        use crate::sched::{testkit, SimScheduler};
        use beff_sync::Mutex;
        const RANKS: usize = 6;
        const ROUNDS: usize = 40;
        // Rounds 1 ms apart let the link drain, so each round's first
        // booking finds it idle and the other five queue (and pay the
        // factor).
        let request = |rank: usize, round: usize| {
            (round as f64 * 1e-3 + rank as f64 * 1e-6, 1000 + 700 * rank as u64)
        };
        let new_link = || Link::with_contention(1e-6, 1e-8, 2.0);
        type Booked = Vec<(usize, usize, u64, u64)>;
        let book = |link: &Link, log: &mut Booked, rank: usize, round: usize| {
            let (head, bytes) = request(rank, round);
            let (start, finish) = link.traverse(head, bytes);
            log.push((rank, round, start.to_bits(), finish.to_bits()));
        };

        let serial_link = new_link();
        let mut serial = Vec::new();
        for round in 0..ROUNDS {
            for rank in 0..RANKS {
                book(&serial_link, &mut serial, rank, round);
            }
        }
        let contended = serial.windows(2).filter(|w| w[1].2 == w[0].3).count();
        assert_eq!(contended, (RANKS - 1) * ROUNDS, "one idle booking per round, the rest queue");

        let scripted = |run: fn(usize, &testkit::Script<'_>) -> _| {
            let link = new_link();
            let log = Mutex::new(Vec::new());
            let body = |s: &SimScheduler, rank: usize| {
                for round in 0..ROUNDS {
                    book(&link, &mut log.lock(), rank, round);
                    if round + 1 < ROUNDS {
                        s.yield_turn(rank);
                    }
                }
            };
            let (raised, audit): (Vec<_>, crate::sched::SchedAudit) = run(RANKS, &body);
            assert!(raised.iter().all(Option::is_none) && audit.balanced());
            (log.into_inner(), link.bytes_carried(), link.messages_carried(), link.horizon())
        };
        let counters = (serial_link.bytes_carried(), serial_link.messages_carried());
        let (parked, bytes, msgs, horizon) = scripted(testkit::run_parked);
        assert_eq!(parked, serial);
        assert_eq!((bytes, msgs), counters);
        assert_eq!(msgs, (RANKS * ROUNDS) as u64);
        assert_eq!(horizon.to_bits(), serial_link.horizon().to_bits());
        #[cfg(target_arch = "x86_64")]
        {
            let (fibered, bytes, msgs, horizon) = scripted(testkit::run_fibers);
            assert_eq!(fibered, serial);
            assert_eq!((bytes, msgs), counters);
            assert_eq!(horizon.to_bits(), serial_link.horizon().to_bits());
        }
    }
}

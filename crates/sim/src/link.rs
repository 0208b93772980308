//! A network link: latency + per-byte occupancy over a [`Resource`].
//!
//! Links are booked single-writer, like the [`Resource`] under them:
//! only the token holder of the one world leasing the net prices
//! traffic, so the traffic counters are bumped with a plain load and
//! store rather than a locked read-modify-write.

use crate::resource::Resource;
use crate::units::Secs;
use beff_sync::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A fault-injected bandwidth degradation window: while the occupancy
/// start time falls in `[from, until)`, the link's per-byte cost is
/// multiplied by `slowdown`. Installed by the fault layer
/// (`beff-faults`); overlapping windows multiply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degrade {
    pub from: Secs,
    pub until: Secs,
    pub slowdown: f64,
}

/// One serially-shared wire/port/bus of the interconnect.
#[derive(Debug)]
pub struct Link {
    /// Time for the message head to appear at the far side.
    pub latency: Secs,
    /// Seconds per byte of occupancy (1 / bandwidth).
    pub byte_time: Secs,
    res: Resource,
    /// Traffic counters (diagnostics): total bytes and messages.
    bytes: AtomicU64,
    messages: AtomicU64,
    /// Fault state. `degraded` mirrors "the window list is non-empty"
    /// so the hot path pays one relaxed load — and, crucially, performs
    /// *bitwise-identical* float arithmetic to the pre-fault code when
    /// no fault is installed (no multiply by 1.0 sneaks in).
    faults: Mutex<Vec<Degrade>>,
    degraded: AtomicBool,
    dead: AtomicBool,
}

impl Link {
    pub fn new(latency: Secs, byte_time: Secs) -> Self {
        Self::with_contention(latency, byte_time, 1.0)
    }

    /// A link in fair-share contention mode: a message that has to
    /// queue behind pending traffic occupies `factor` times its serial
    /// byte time (see [`Resource::with_contention`]). `1.0` is plain
    /// FIFO packing.
    pub fn with_contention(latency: Secs, byte_time: Secs, factor: f64) -> Self {
        Self {
            latency,
            byte_time,
            res: Resource::with_contention(factor),
            bytes: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            faults: Mutex::new(Vec::new()),
            degraded: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        }
    }

    /// Push `bytes` through the link, with the head arriving at the link
    /// entrance at `head`. Returns `(start, finish)` of the occupancy —
    /// `start` is when the stream begins flowing on this link (so a
    /// downstream link may begin then), `finish` is when the last byte
    /// has crossed (queued messages on a contended link finish at the
    /// fair-share-degraded rate).
    #[inline]
    pub fn traverse(&self, head: Secs, bytes: u64) -> (Secs, Secs) {
        let mut occ = bytes as f64 * self.byte_time;
        if self.degraded.load(Ordering::Relaxed) {
            occ *= self.slowdown_at(head + self.latency);
        }
        let span = self.res.reserve_span(head + self.latency, occ);
        // Single writer (module docs): load + store, no locked RMW.
        self.bytes.store(self.bytes.load(Ordering::Relaxed) + bytes, Ordering::Relaxed);
        self.messages.store(self.messages.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        span
    }

    /// Product of the slowdowns of every installed window covering
    /// time `t` (1.0 when none does).
    fn slowdown_at(&self, t: Secs) -> f64 {
        let ws = self.faults.lock();
        ws.iter()
            .filter(|w| w.from <= t && t < w.until)
            .map(|w| w.slowdown)
            .product::<f64>()
            .max(1.0)
    }

    /// Install degradation windows (replacing any previous set). The
    /// windows are in this run's local virtual time; the fault layer
    /// handles epoch shifting.
    pub fn set_fault_windows(&self, windows: Vec<Degrade>) {
        let degraded = !windows.is_empty();
        *self.faults.lock() = windows;
        self.degraded.store(degraded, Ordering::Relaxed);
    }

    /// Mark the link permanently failed. The link still *prices*
    /// traffic (`traverse` works) — deciding what a dead route means is
    /// the wire layer's job (retransmit, then raise `LinkDead`).
    pub fn set_dead(&self, dead: bool) {
        self.dead.store(dead, Ordering::Relaxed);
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Remove every installed fault (degradation windows and the dead
    /// flag).
    pub fn clear_faults(&self) {
        self.faults.lock().clear();
        self.degraded.store(false, Ordering::Relaxed);
        self.dead.store(false, Ordering::Relaxed);
    }

    /// Next-free time (diagnostics / tests).
    pub fn horizon(&self) -> Secs {
        self.res.horizon()
    }

    /// Total bytes that have crossed this link (diagnostics).
    pub fn bytes_carried(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total messages that have crossed this link (diagnostics).
    pub fn messages_carried(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Reset occupancy and counters to idle. Installed faults are
    /// *kept*: they belong to the fault layer, which re-installs or
    /// clears them around each run (`FaultSession::install` /
    /// `clear_faults`), while `reset` belongs to the world-reuse path
    /// that recycles a net between runs.
    pub fn reset(&self) {
        self.res.reset();
        self.bytes.store(0, Ordering::Relaxed);
        self.messages.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_traverse_costs_latency_plus_bytes() {
        let l = Link::new(1e-6, 1e-9); // 1 us, 1 GB/s
        let (start, finish) = l.traverse(0.0, 1000);
        assert!((start - 1e-6).abs() < 1e-15);
        assert!((finish - (1e-6 + 1e-6)).abs() < 1e-15);
    }

    #[test]
    fn contended_messages_serialize() {
        let l = Link::new(0.0, 1e-6); // 1 MB/s, zero latency
        let (_, f1) = l.traverse(0.0, 100);
        let (s2, f2) = l.traverse(0.0, 100);
        assert!((f1 - 1e-4).abs() < 1e-12);
        assert!((s2 - 1e-4).abs() < 1e-12);
        assert!((f2 - 2e-4).abs() < 1e-12);
    }

    #[test]
    fn zero_byte_message_costs_latency_only() {
        let l = Link::new(5e-6, 1e-9);
        let (s, f) = l.traverse(1.0, 0);
        assert_eq!(s, 1.0 + 5e-6);
        assert_eq!(s, f);
    }

    #[test]
    fn contended_link_messages_pay_the_fair_share_factor() {
        let l = Link::with_contention(0.0, 1e-6, 2.0); // 1 MB/s, factor 2
        let (_, f1) = l.traverse(0.0, 100);
        let (s2, f2) = l.traverse(0.0, 100);
        assert!((f1 - 1e-4).abs() < 1e-12);
        assert!((s2 - 1e-4).abs() < 1e-12);
        // queued message pays 2x its serial occupancy
        assert!((f2 - 3e-4).abs() < 1e-12);
    }

    #[test]
    fn degrade_window_scales_occupancy_only_inside_the_window() {
        let l = Link::new(0.0, 1e-6); // 1 MB/s
        l.set_fault_windows(vec![Degrade { from: 1.0, until: 2.0, slowdown: 4.0 }]);
        let (_, f) = l.traverse(0.0, 100); // outside the window
        assert!((f - 1e-4).abs() < 1e-12);
        l.reset();
        let (_, f) = l.traverse(1.5, 100); // inside: 4x occupancy
        assert!((f - (1.5 + 4e-4)).abs() < 1e-12);
        l.clear_faults();
        l.reset();
        let (_, f) = l.traverse(1.5, 100);
        assert!((f - (1.5 + 1e-4)).abs() < 1e-12);
    }

    #[test]
    fn overlapping_windows_multiply() {
        let l = Link::new(0.0, 1e-6);
        l.set_fault_windows(vec![
            Degrade { from: 0.0, until: 10.0, slowdown: 2.0 },
            Degrade { from: 0.0, until: 10.0, slowdown: 3.0 },
        ]);
        let (_, f) = l.traverse(0.0, 100);
        assert!((f - 6e-4).abs() < 1e-12);
    }

    #[test]
    fn dead_flag_round_trips_and_clears() {
        let l = Link::new(0.0, 1e-9);
        assert!(!l.is_dead());
        l.set_dead(true);
        assert!(l.is_dead());
        l.clear_faults();
        assert!(!l.is_dead());
    }

    #[test]
    fn reset_keeps_installed_faults() {
        let l = Link::new(0.0, 1e-6);
        l.set_fault_windows(vec![Degrade { from: 0.0, until: 10.0, slowdown: 2.0 }]);
        l.set_dead(true);
        l.reset();
        assert!(l.is_dead());
        let (_, f) = l.traverse(0.0, 100);
        assert!((f - 2e-4).abs() < 1e-12);
    }

    #[test]
    fn traffic_counters_accumulate_and_reset() {
        let l = Link::new(0.0, 1e-9);
        l.traverse(0.0, 100);
        l.traverse(0.0, 200);
        assert_eq!(l.bytes_carried(), 300);
        assert_eq!(l.messages_carried(), 2);
        l.reset();
        assert_eq!(l.bytes_carried(), 0);
        assert_eq!(l.messages_carried(), 0);
    }
}

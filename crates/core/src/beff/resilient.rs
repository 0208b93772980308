//! Resilient per-pattern b_eff building blocks: watchdog deadlines,
//! straggler detection, and the stability report schema.
//!
//! The classic driver ([`super::run::run_beff`]) assumes a healthy
//! machine: one wedged pattern would stall the whole run, and one dead
//! rank aborts everything. The resilient path (driven from
//! `beff-bench`'s `ResilientRunner`) runs **one pattern per world
//! run**, so a fault is contained to the pattern it hit:
//!
//! * every measured point carries a **watchdog deadline** derived from
//!   the paper's 2.5–5 ms inner-loop window — a point that blows the
//!   budget ends the attempt (deterministically on every rank, since
//!   the decision is made on the allreduced maximum), and the driver
//!   retries with an exponentially larger budget;
//! * the per-rank timing spread (max/min of the local loop times)
//!   detects **stragglers**: a pattern that completes but with spread
//!   beyond the policy limit is flagged `degraded`, not `valid`;
//! * patterns that fail permanently are dropped from the averages and
//!   recorded in a [`StabilityReport`], so a run on a sick machine
//!   still emits b_eff — with the failure written into the output
//!   instead of a crashed process.

use super::measure::MeasureSchedule;
use super::methods::{Transfers, METHODS};
use super::result::{BeffResult, PatternResult};
use super::rings::{messages_per_iteration, Pattern};
use super::run::BeffConfig;
use super::sizes::{lmax, message_sizes};
use beff_json::{Json, ToJson};
use beff_mpi::{Comm, ReduceOp};
use beff_netsim::{Secs, MB};

/// Driver-side resilience policy: how long a point may take, how often
/// to retry, and how much per-rank spread is tolerated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogPolicy {
    /// Deadline for a single measured point (barrier → allreduce).
    pub point_budget: Secs,
    /// Retries after a watchdog trip or a retryable fault.
    pub max_retries: u32,
    /// Budget multiplier per retry (exponential backoff).
    pub backoff: f64,
    /// Max tolerated `dt_max / dt_min` across ranks before a completed
    /// pattern is flagged degraded (straggler detection).
    pub straggler_spread: f64,
}

impl WatchdogPolicy {
    /// Derive the deadline from a measurement schedule: the paper sizes
    /// the inner loop to land in the `[loop_min_time, loop_max_time]`
    /// window, and the first, unadapted point can overshoot it by the
    /// full `loop_start` factor — so the watchdog only fires two
    /// decades above the window's upper edge, where no healthy point
    /// can be.
    pub fn from_schedule(s: &MeasureSchedule) -> Self {
        Self {
            point_budget: s.loop_max_time * 100.0,
            max_retries: 2,
            backoff: 8.0,
            straggler_spread: 4.0,
        }
    }
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        Self::from_schedule(&MeasureSchedule::paper())
    }
}

/// How a pattern's measurement ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternStatus {
    /// Measured cleanly; participates in the b_eff averages.
    Valid,
    /// Measured, and the numbers participate in the averages, but
    /// something was off (watchdog retries, straggler spread).
    Degraded,
    /// No usable measurement; excluded from the averages.
    Failed,
}

impl PatternStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Valid => "valid",
            Self::Degraded => "degraded",
            Self::Failed => "failed",
        }
    }
}

impl ToJson for PatternStatus {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_string())
    }
}

/// Per-pattern health record in the stability report.
#[derive(Debug, Clone)]
pub struct PatternHealth {
    pub name: String,
    pub random: bool,
    pub status: PatternStatus,
    /// Human-readable cause for non-valid statuses ("" when valid).
    pub reason: String,
    pub retries: u32,
    pub watchdog_trips: u32,
    /// Largest observed `dt_max / dt_min` across ranks.
    pub max_spread: f64,
}

impl ToJson for PatternHealth {
    fn to_json(&self) -> Json {
        Json::object()
            .field("name", &self.name)
            .field("random", &self.random)
            .field("status", &self.status)
            .field("reason", &self.reason)
            .field("retries", &self.retries)
            .field("watchdog_trips", &self.watchdog_trips)
            .field("max_spread", &self.max_spread)
            .build()
    }
}

/// What one in-world pattern attempt reports back to the driver.
#[derive(Debug, Clone)]
pub struct PatternAttempt {
    pub result: PatternResult,
    /// The watchdog fired: the curve is truncated and must not enter
    /// the averages; the driver decides whether to retry.
    pub tripped: bool,
    /// Largest `dt_max / dt_min` seen over the attempt's points.
    pub max_spread: f64,
    /// Allreduced end time of the attempt (drives the fault epoch).
    pub t_end: Secs,
}

/// Measure one pattern, guarded. Collective: every rank calls it and
/// every rank returns the same decision (trip or not), because the
/// watchdog compares the *allreduced* loop time against the budget.
pub fn run_one_pattern(
    comm: &mut Comm,
    cfg: &BeffConfig,
    pattern: &Pattern,
    budget: Secs,
) -> PatternAttempt {
    let n = comm.size();
    let lmaxv = lmax(cfg.mem_per_proc);
    let sizes = message_sizes(lmaxv);
    let msgs = messages_per_iteration(n);
    let mut tr = Transfers::new(comm, lmaxv);
    let (left, right) = pattern.neighbors[comm.rank()];

    let mut looplength = cfg.schedule.loop_start;
    let mut curve = Vec::with_capacity(sizes.len());
    let mut tripped = false;
    let mut max_spread = 1.0f64;

    'sizes: for &len in &sizes {
        let mut best = 0.0f64;
        for method in METHODS {
            for _rep in 0..cfg.schedule.reps {
                comm.barrier();
                let t0 = comm.now();
                for _ in 0..looplength {
                    tr.ring_iteration(comm, method, left, right, len);
                }
                let dt_local = comm.now() - t0;
                let dt = comm.allreduce_scalar(dt_local, ReduceOp::Max);
                let dt_min = comm.allreduce_scalar(dt_local, ReduceOp::Min);
                if dt_min > 0.0 {
                    max_spread = max_spread.max(dt / dt_min);
                }
                if dt > budget {
                    tripped = true;
                    break 'sizes;
                }
                let bytes = len as f64 * msgs as f64 * looplength as f64;
                best = best.max(bytes / MB as f64 / dt.max(1e-12));
                looplength = cfg.schedule.adapt(looplength, dt);
            }
        }
        curve.push(best);
    }

    let t_end = comm.allreduce_scalar(comm.now(), ReduceOp::Max);
    PatternAttempt {
        result: PatternResult {
            name: pattern.name.clone(),
            random: pattern.random,
            ring_sizes: pattern.ring_sizes.clone(),
            curve,
        },
        tripped,
        max_spread,
        t_end,
    }
}

/// Machine stability summary attached to every resilient run.
#[derive(Debug, Clone)]
pub struct StabilityReport {
    /// Fault-plan seed (`None` for a fault-free resilient run).
    pub fault_seed: Option<u64>,
    pub severity: f64,
    pub valid: usize,
    pub degraded: usize,
    pub failed: usize,
    pub crashed_ranks: Vec<usize>,
    pub dead_links: Vec<usize>,
    pub drops: u64,
    pub retransmits: u64,
    pub pingpong_ok: bool,
    pub patterns: Vec<PatternHealth>,
}

impl StabilityReport {
    /// The machine measured cleanly: every pattern valid, nothing died.
    pub fn stable(&self) -> bool {
        self.degraded == 0
            && self.failed == 0
            && self.crashed_ranks.is_empty()
            && self.pingpong_ok
    }
}

impl ToJson for StabilityReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("fault_seed", &self.fault_seed)
            .field("severity", &self.severity)
            .field("valid", &self.valid)
            .field("degraded", &self.degraded)
            .field("failed", &self.failed)
            .field("crashed_ranks", &self.crashed_ranks)
            .field("dead_links", &self.dead_links)
            .field("drops", &self.drops)
            .field("retransmits", &self.retransmits)
            .field("pingpong_ok", &self.pingpong_ok)
            .field("stable", &self.stable())
            .field("patterns", &self.patterns)
            .build()
    }
}

/// A resilient run's output: the benchmark result (when enough
/// patterns survived to form the averages) plus the stability report.
#[derive(Debug, Clone)]
pub struct ResilientBeffResult {
    /// `None` when too few patterns survived (b_eff needs at least one
    /// ring and one random pattern for its two-level average).
    pub beff: Option<BeffResult>,
    pub stability: StabilityReport,
}

impl ResilientBeffResult {
    /// Did the run produce a usable b_eff number?
    pub fn usable(&self) -> bool {
        self.beff.is_some()
    }

    /// Strict-mode gate: a b_eff number exists and nothing failed.
    pub fn strict_ok(&self) -> bool {
        self.beff.is_some() && self.stability.failed == 0
    }
}

impl ToJson for ResilientBeffResult {
    fn to_json(&self) -> Json {
        Json::object()
            .field("beff", &self.beff)
            .field("stability", &self.stability)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_budget_leaves_headroom_over_the_loop_window() {
        let p = WatchdogPolicy::from_schedule(&MeasureSchedule::paper());
        assert!(p.point_budget >= 100.0 * 5e-3 - 1e-12);
        assert!(p.max_retries >= 1);
        assert!(p.backoff > 1.0);
    }

    #[test]
    fn status_strings_are_the_schema_values() {
        assert_eq!(PatternStatus::Valid.as_str(), "valid");
        assert_eq!(PatternStatus::Degraded.as_str(), "degraded");
        assert_eq!(PatternStatus::Failed.as_str(), "failed");
    }

    #[test]
    fn stability_report_serializes_with_stable_flag() {
        let rep = StabilityReport {
            fault_seed: Some(7),
            severity: 0.5,
            valid: 10,
            degraded: 1,
            failed: 1,
            crashed_ranks: vec![3],
            dead_links: vec![],
            drops: 4,
            retransmits: 4,
            pingpong_ok: true,
            patterns: vec![],
        };
        let s = beff_json::to_string(&rep);
        assert!(s.contains("\"stable\":false"));
        assert!(s.contains("\"fault_seed\":7"));
        beff_json::parse(&s).map(drop).expect("well-formed");
    }
}

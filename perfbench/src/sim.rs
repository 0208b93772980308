//! The two simulation workloads, `beff_t3e512` and `beffio_t3e64`, and
//! the traced mirrors of their drivers.
//!
//! The untraced runs call `beff_core::run_beff` / `run_beff_io` on a
//! resident world. The traced runs call mirrors of those two drivers,
//! composed only from `beff-core`'s public building blocks, with spans
//! recorded on rank 0 around each collective step (`measure_point`,
//! `run_pattern_type`, `compute_segment`). A mirror's result must be
//! bit-identical to the driver's for the same inputs.

use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, quartiles, ratio};
use crate::trace::{Recorder, Spans};
use crate::{derive, Args, Host};
use beff_bench::calibration::DEFAULT_TOLERANCE;
use beff_core::beff::extra::{pingpong, run_extras};
use beff_core::beff::measure::measure_point;
use beff_core::beff::rings::messages_per_iteration;
use beff_core::beff::{
    lmax, message_sizes, random_patterns, ring_patterns, BeffConfig, Method, PatternResult,
    Transfers, METHODS,
};
use beff_core::beffio::access::run_pattern_type;
use beff_core::beffio::segment::compute_segment;
use beff_core::beffio::{
    all_patterns, mpart, AccessMethod, BeffIoConfig, Bufs, MethodRun, PatternType, RunState,
    ACCESS_METHODS, PATTERN_TYPES,
};
use beff_core::{BeffIoResult, BeffResult};
use beff_json::ToJson;
use beff_machines::Machine;
use beff_mpi::{Comm, World, WorldSession};
use beff_mpiio::IoWorld;
use beff_netsim::{traffic_report, MachineNet};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Ranks of the `beff_t3e512` workload.
pub const BEFF_PROCS: usize = 512;
/// Ranks of the `beffio_t3e64` workload.
pub const BEFFIO_PROCS: usize = 64;
/// Scheduled virtual time T of the `beffio_t3e64` workload (the
/// harness's default quick b_eff_io schedule).
pub const BEFFIO_T: f64 = 30.0;

const SALT_PATTERNS: u64 = 0xB0EF;
const SALT_FILES: u64 = 0xF11E;

/// The T3E model both simulation workloads run on.
pub fn t3e() -> Machine {
    beff_machines::t3e()
}

/// The quick b_eff schedule with the random-pattern seed derived from
/// the workload seed.
pub fn beff_cfg(machine: &Machine, seed: u64) -> BeffConfig {
    let mut cfg = BeffConfig::quick(machine.mem_per_proc);
    cfg.seed = derive(seed, SALT_PATTERNS);
    cfg
}

/// The quick b_eff_io schedule at T = [`BEFFIO_T`]; the seed names the
/// files the run creates.
pub fn beffio_cfg(machine: &Machine, seed: u64) -> BeffIoConfig {
    let mut cfg = BeffIoConfig::quick(machine.mem_per_node).with_t(BEFFIO_T);
    cfg.prefix = format!("beffio-{:016x}", derive(seed, SALT_FILES));
    cfg
}

/// The paper's Table-1 b_eff of the T3E×512, MByte/s.
pub fn paper_beff_t3e512() -> Result<f64, String> {
    beff_machines::table1_paper()
        .iter()
        .find(|r| r.machine_key == "t3e" && r.procs == BEFF_PROCS)
        .map(|r| r.beff)
        .ok_or_else(|| "Table 1 has no t3e×512 row".to_string())
}

/// A machine network plus a resident simulated world on its first
/// `procs` processors.
pub struct Partition {
    pub net: Arc<MachineNet>,
    pub session: WorldSession,
}

/// Host seconds of one set-up, split by layer.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// `Machine::network` (machines layer).
    pub build: f64,
    /// `World::sim_partition(..).session()` (mpi/sim layers).
    pub launch: f64,
}

impl SetupTime {
    pub fn total(&self) -> f64 {
        self.build + self.launch
    }
}

/// Build the machine network and launch the resident world once.
pub fn launch(machine: &Machine, procs: usize, host: &Host) -> (Partition, SetupTime) {
    let (net, build) = host.time(|| machine.network());
    let (session, launch) = host.time(|| World::sim_partition(Arc::clone(&net), procs).session());
    (Partition { net, session }, SetupTime { build, launch })
}

/// Exact netsim counts of one run (`traffic_report` after the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    pub port_msgs: u64,
    pub hop_msgs: u64,
    pub bytes: u64,
}

impl Traffic {
    pub fn of(net: &MachineNet) -> Self {
        let t = traffic_report(net);
        Self {
            port_msgs: t.port_out.messages,
            hop_msgs: t.hop.messages,
            bytes: t.total_bytes(),
        }
    }

    pub fn add(&mut self, other: Traffic) {
        self.port_msgs += other.port_msgs;
        self.hop_msgs += other.hop_msgs;
        self.bytes += other.bytes;
    }

    /// Report the counts as the `netsim.*` per-layer metrics.
    pub fn report(&self, r: &mut Report) {
        r.metric("netsim.port_msgs", self.port_msgs as f64, "count");
        r.metric("netsim.hop_msgs", self.hop_msgs as f64, "count");
        r.metric("netsim.bytes", self.bytes as f64, "B");
        r.metric(
            "netsim.hops_per_msg",
            ratio(self.hop_msgs, self.port_msgs),
            "ratio",
        );
        r.note(format!(
            "netsim.hops_per_msg = {}",
            crate::stats::ratio_with_base(self.hop_msgs, self.port_msgs)
        ));
    }
}

/// The message of a panic payload.
pub fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, turning a panic into an error value.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// Every rank's result serialized; the first mismatch with rank 0 is a
/// failed check.
fn rank_agreement<T: ToJson>(results: &[T], what: &str, fails: &mut Vec<String>) -> String {
    let Some(first) = results.first() else {
        fails.push(format!("{what}: the world returned no rank results"));
        return String::new();
    };
    let reference = beff_json::to_string(first);
    if let Some(i) = results
        .iter()
        .position(|r| beff_json::to_string(r) != reference)
    {
        fails.push(format!("{what}: rank {i} disagrees with rank 0"));
    }
    reference
}

/// The output of one run, reduced to what repeated runs must agree on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub result: String,
    pub traffic: Traffic,
}

/// Checks one run against the first run of the same seed in this
/// process: identical result bytes and identical netsim counts.
#[derive(Debug, Default)]
pub struct Replay {
    first: Option<Fingerprint>,
}

impl Replay {
    pub fn check(&mut self, what: &str, fp: Fingerprint, fails: &mut Vec<String>) {
        match &self.first {
            None => self.first = Some(fp),
            Some(first) => {
                if first.result != fp.result {
                    fails.push(format!(
                        "{what}: result bytes differ from the first run of this seed"
                    ));
                }
                if first.traffic != fp.traffic {
                    fails.push(format!(
                        "{what}: netsim counts {:?} differ from the first run's {:?}",
                        fp.traffic, first.traffic
                    ));
                }
            }
        }
    }

    pub fn first(&self) -> Option<&Fingerprint> {
        self.first.as_ref()
    }
}

// ------------------------------------------------------ timed sections

/// Host seconds of the runs of one driver section, and the spans of its
/// traced runs.
#[derive(Default)]
pub struct Section {
    pub untraced: Vec<f64>,
    pub traced: Vec<(Spans, f64)>,
}

/// How a section alternates untraced and traced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced runs until the deadline: the end-to-end measurement.
    Timed,
    /// Untraced/traced pairs until the deadline: the traced run (each
    /// mirror checked against the driver).
    Pairs,
}

/// Run one driver per `mode` until host time `end` (at least one
/// round). `run(host)` makes one run — traced when given the clock —
/// and is timed alone; `check` sees its outputs after the clock stops.
pub fn drive<R>(
    host: &Host,
    end: f64,
    mode: Mode,
    what: &str,
    r: &mut Report,
    run: impl Fn(Option<&Host>) -> Result<(Vec<R>, Spans), String>,
    mut check: impl FnMut(&[R], &str) -> Vec<String>,
) -> Section {
    let mut s = Section::default();
    for round in 0.. {
        // Pairs alternate which side runs first, so neither side always
        // gets the warm-up run; round 0 is untraced first, which makes
        // `run_beff` / `run_beff_io` the reference the mirror must match.
        let order: &[bool] = match mode {
            Mode::Timed => &[false],
            Mode::Pairs if round % 2 == 0 => &[false, true],
            Mode::Pairs => &[true, false],
        };
        for &traced in order {
            let label = if traced {
                format!("traced {what} mirror")
            } else {
                format!("{what} run")
            };
            let (out, secs) = host.time(|| run(traced.then_some(host)));
            match out {
                Ok((results, spans)) => {
                    r.op(check(&results, &label));
                    if traced {
                        s.traced.push((spans, secs));
                    } else {
                        s.untraced.push(secs);
                    }
                }
                Err(e) => r.op(vec![format!("{label} failed: {e}")]),
            }
        }
        if host.now() >= end {
            break;
        }
    }
    s
}

impl Section {
    /// Median over the traced runs of a per-run quantity.
    pub fn med(&self, f: impl Fn(&Spans) -> f64) -> f64 {
        let v: Vec<f64> = self.traced.iter().map(|(s, _)| f(s)).collect();
        median(&v).unwrap_or(0.0)
    }

    /// `--trace 0` end-to-end metrics of a simulation workload (a job
    /// is one benchmark run) plus `sim_msgs_per_s`.
    fn end_to_end(&self, r: &mut Report, setup: SetupTime, replay: &Replay) -> Result<(), String> {
        let runs = &self.untraced;
        let run_s = median(runs).ok_or("no run completed")?;
        r.metric("setup_s", setup.total(), "s");
        r.metric("run_s", run_s, "s");
        r.metric("p50_ms", 1e3 * run_s, "ms");
        r.metric(
            "jobs_per_s",
            runs.len() as f64 / runs.iter().sum::<f64>(),
            "1/s",
        );
        r.metric("peak_rss_mb", peak_rss_mb()?, "MB");
        r.note(format!(
            "{} runs measured, in order: {runs:?} s; p50_ms is the median run",
            runs.len()
        ));
        if let Some((q1, q3)) = quartiles(runs) {
            r.note(format!("run_s quartiles: {q1} .. {q3} s"));
        }
        r.note("tail_ms: n/a (fewer than 11 runs; a run is one request here)".to_string());
        if let Some(fp) = replay.first() {
            r.note(format!(
                "sim_msgs_per_s = {} 1/s ({} netsim PortOut messages per run / median run_s)",
                fp.traffic.port_msgs as f64 / run_s,
                fp.traffic.port_msgs
            ));
        }
        Ok(())
    }

    /// Tracing overhead and span coverage of the driver, its netsim
    /// counts, and the spans appended to `all`.
    fn finish_traced(self, replay: &Replay, r: &mut Report, all: &mut Spans) {
        if let Some(fp) = replay.first() {
            fp.traffic.report(r);
        }
        let traced: Vec<f64> = self.traced.iter().map(|t| t.1).collect();
        if let (Some(u), Some(t)) = (median(&self.untraced), median(&traced)) {
            r.metric("trace.overhead_s", t - u, "s");
            r.metric("trace.uncovered_s", self.med(|s| s.self_secs(0)), "s");
            r.note(format!(
                "tracing overhead: traced run_s {t} s - untraced run_s {u} s ({} + {} runs)",
                traced.len(),
                self.untraced.len()
            ));
        }
        for (spans, _) in self.traced {
            all.adopt(spans);
        }
    }
}

/// Every value in `v` is the same.
fn all_equal<T: PartialEq>(v: &[T]) -> bool {
    v.windows(2).all(|w| w[0] == w[1])
}

// ---------------------------------------------------------------- b_eff

/// Metric-name stem of a b_eff method.
pub fn method_stem(m: Method) -> &'static str {
    match m {
        Method::Sendrecv => "sendrecv",
        Method::Alltoallv => "alltoallv",
        Method::NonBlocking => "isend",
    }
}

/// Span name of a `measure_point` call of method `m`.
fn point_span(m: Method) -> &'static str {
    match m {
        Method::Sendrecv => "beff.point.sendrecv",
        Method::Alltoallv => "beff.point.alltoallv",
        Method::NonBlocking => "beff.point.isend",
    }
}

/// `run_beff` rebuilt from core's public building blocks, with a span
/// around every `measure_point` (credited with the messages its timed
/// loop sends), every pattern, and the ping-pong/extras tail.
pub fn beff_mirror(comm: &mut Comm, cfg: &BeffConfig, host: &Host) -> (BeffResult, Spans) {
    let mut rec = Recorder::new(host, comm.rank() == 0);
    let root = rec.open("beff.run", None);
    let n = comm.size();
    let lmax = lmax(cfg.mem_per_proc);
    let sizes = message_sizes(lmax);
    let msgs = messages_per_iteration(n);
    let mut tr = Transfers::new(comm, lmax);

    let mut patterns = ring_patterns(n);
    patterns.extend(random_patterns(n, cfg.seed));

    let mut results = Vec::with_capacity(patterns.len());
    let mut run_msgs = 0u64;
    for pattern in &patterns {
        let kind = if pattern.random {
            "beff.random"
        } else {
            "beff.ring"
        };
        let ps = rec.open(kind, Some(root));
        let mut pattern_msgs = 0u64;
        let (left, right) = pattern.neighbors[comm.rank()];
        let mut looplength = cfg.schedule.loop_start;
        let mut curve = Vec::with_capacity(sizes.len());
        for &len in &sizes {
            let mut best = 0.0f64;
            for method in METHODS {
                for _rep in 0..cfg.schedule.reps {
                    let point = rec.open(point_span(method), Some(ps));
                    let m =
                        measure_point(comm, &mut tr, method, left, right, len, msgs, looplength);
                    let sent = msgs * u64::from(looplength);
                    rec.close(point, sent);
                    pattern_msgs += sent;
                    best = best.max(m.mbps);
                    looplength = cfg.schedule.adapt(looplength, m.dt);
                }
            }
            curve.push(best);
        }
        rec.close(ps, pattern_msgs);
        run_msgs += pattern_msgs;
        results.push(PatternResult {
            name: pattern.name.clone(),
            random: pattern.random,
            ring_sizes: pattern.ring_sizes.clone(),
            curve,
        });
    }

    let tail = rec.open("beff.extras", Some(root));
    let pp = pingpong(comm, &mut tr, lmax, cfg.extra_iters.max(1));
    let extras = if cfg.extras {
        run_extras(comm, &mut tr, lmax, cfg.extra_iters.max(1))
    } else {
        Vec::new()
    };
    rec.close(tail, 0);

    let result = BeffResult::assemble(n, cfg.mem_per_proc, lmax, sizes, results, pp, extras);
    rec.close(root, run_msgs);
    (result, rec.into_spans())
}

/// One b_eff run on the partition: `run_beff` untraced, or the mirror
/// with spans. Returns every rank's result and rank 0's spans.
pub fn run_beff(
    p: &Partition,
    cfg: &BeffConfig,
    host: Option<&Host>,
) -> Result<(Vec<BeffResult>, Spans), String> {
    p.net.reset();
    let cfg = cfg.clone();
    match host {
        None => {
            let rs = catch(|| p.session.run(move |c| beff_core::run_beff(c, &cfg)))?;
            Ok((rs, Spans::new()))
        }
        Some(host) => {
            let host = host.clone();
            let rs = catch(|| p.session.run(move |c| beff_mirror(c, &cfg, &host)))?;
            let mut spans = Spans::new();
            let mut results = Vec::with_capacity(rs.len());
            for (rank, (r, s)) in rs.into_iter().enumerate() {
                if rank == 0 {
                    spans = s;
                }
                results.push(r);
            }
            Ok((results, spans))
        }
    }
}

/// Output checks of one b_eff run: every rank agrees, b_eff is within
/// calibrate's tolerance of Table 1, and the run replays the first run
/// of this seed bit for bit (the first run is untraced whenever the
/// section has untraced runs, so a traced mirror is checked against
/// `run_beff` itself). Returns the failures and |b_eff − paper| / paper.
fn check_beff(
    results: &[BeffResult],
    net: &MachineNet,
    paper: f64,
    replay: &mut Replay,
    what: &str,
) -> (Vec<String>, f64) {
    let mut fails = Vec::new();
    let result = rank_agreement(results, what, &mut fails);
    let beff = results.first().map_or(0.0, |r| r.beff);
    let err = (beff - paper).abs() / paper;
    if err.is_nan() || err > DEFAULT_TOLERANCE {
        fails.push(format!(
            "{what}: b_eff {beff:.1} MB/s is {:.1} % off the paper's {paper:.0} (tolerance {:.0} %)",
            100.0 * err,
            100.0 * DEFAULT_TOLERANCE
        ));
    }
    replay.check(
        what,
        Fingerprint {
            result,
            traffic: Traffic::of(net),
        },
        &mut fails,
    );
    (fails, err)
}

/// Drive b_eff on a T3E×512 partition per `mode`.
fn beff_section(
    args: &Args,
    host: &Host,
    p: &Partition,
    mode: Mode,
    r: &mut Report,
) -> Result<(Section, Replay, f64), String> {
    let cfg = beff_cfg(&t3e(), args.seed);
    let paper = paper_beff_t3e512()?;
    let mut replay = Replay::default();
    let mut err = 0.0;
    let end = host.now() + args.seconds;
    let section = drive(
        host,
        end,
        mode,
        "b_eff",
        r,
        |h| run_beff(p, &cfg, h),
        |results, what| {
            let (fails, e) = check_beff(results, &p.net, paper, &mut replay, what);
            err = e;
            fails
        },
    );
    Ok((section, replay, 100.0 * err))
}

/// `--trace 0` on `beff_t3e512`.
pub fn timed_beff(args: &Args, host: &Host) -> Result<Report, String> {
    let mut r = Report::default();
    let (p, setup) = launch(&t3e(), BEFF_PROCS, host);
    let (section, replay, err_pct) = beff_section(args, host, &p, Mode::Timed, &mut r)?;
    section.end_to_end(&mut r, setup, &replay)?;
    r.note(format!(
        "beff_err_pct = {err_pct} % (|b_eff - {:.0} MB/s| / Table 1; calibrate tolerance {:.0} %)",
        paper_beff_t3e512()?,
        100.0 * DEFAULT_TOLERANCE
    ));
    Ok(r)
}

/// The `core.beff.*` metrics of traced b_eff runs, each the median
/// over `runs` (one span list per run). Fails when the runs' counts
/// differ: they are a pure function of the inputs.
pub fn report_beff_spans(runs: &[&Spans], r: &mut Report) -> Vec<String> {
    let med = |f: &dyn Fn(&Spans) -> f64| {
        let v: Vec<f64> = runs.iter().map(|s| f(s)).collect();
        median(&v).unwrap_or(0.0)
    };
    for m in METHODS {
        let name = format!("core.beff.{}_s", method_stem(m));
        r.metric(&name, med(&|s| s.secs(point_span(m))), "s");
    }
    r.metric("core.beff.ring_s", med(&|s| s.secs("beff.ring")), "s");
    r.metric("core.beff.random_s", med(&|s| s.secs("beff.random")), "s");
    r.metric("core.beff.extras_s", med(&|s| s.secs("beff.extras")), "s");
    let ns_per_msg = |s: &Spans, prefix: &str| 1e9 * s.secs(prefix) / s.work(prefix).max(1) as f64;
    r.metric(
        "core.beff.ns_per_msg",
        med(&|s| ns_per_msg(s, "beff.point.")),
        "ns",
    );
    for m in METHODS {
        let name = format!("core.beff.ns_per_msg.{}", method_stem(m));
        r.metric(&name, med(&|s| ns_per_msg(s, point_span(m))), "ns");
    }
    let counts: Vec<(usize, u64)> = runs
        .iter()
        .map(|s| (s.named("beff.point.").count(), s.work("beff.point.")))
        .collect();
    let (points, msgs) = counts.first().copied().unwrap_or_default();
    r.metric("core.beff.points", points as f64, "count");
    r.metric("core.beff.msgs", msgs as f64, "count");
    if all_equal(&counts) {
        Vec::new()
    } else {
        vec![format!(
            "core.beff counts (points, msgs) differ between traced runs: {counts:?}"
        )]
    }
}

/// `--trace 1` on `beff_t3e512`: untraced/traced pairs on the T3E×512.
pub fn trace_beff(args: &Args, host: &Host, r: &mut Report, all: &mut Spans) -> Result<(), String> {
    let (p, _) = launch(&t3e(), BEFF_PROCS, host);
    let (section, replay, _) = beff_section(args, host, &p, Mode::Pairs, r)?;
    if section.traced.is_empty() {
        return Err("no traced b_eff run completed".into());
    }
    let runs: Vec<&Spans> = section.traced.iter().map(|(s, _)| s).collect();
    let mut fails = report_beff_spans(&runs, r);
    let inputs = |seed| -> Vec<_> {
        random_patterns(BEFF_PROCS, beff_cfg(&t3e(), seed).seed)
            .into_iter()
            .map(|p| p.neighbors)
            .collect()
    };
    if inputs(args.seed) == inputs(args.seed.wrapping_add(1)) {
        fails.push("seed+1 generates the same random patterns".into());
    }
    r.op(fails);
    section.finish_traced(&replay, r, all);
    Ok(())
}

// ------------------------------------------------------------- b_eff_io

/// Metric-name stem of a b_eff_io access method.
pub fn access_stem(m: AccessMethod) -> &'static str {
    match m {
        AccessMethod::InitialWrite => "write",
        AccessMethod::Rewrite => "rewrite",
        AccessMethod::Read => "read",
    }
}

/// Metric-name stem of a b_eff_io pattern type.
pub fn type_stem(t: PatternType) -> &'static str {
    match t {
        PatternType::Scatter => "scatter",
        PatternType::Shared => "shared",
        PatternType::Separate => "separate",
        PatternType::Segmented => "segmented",
        PatternType::SegColl => "segcoll",
    }
}

/// Span name of an access method.
fn method_span(m: AccessMethod) -> &'static str {
    match m {
        AccessMethod::InitialWrite => "beffio.method.write",
        AccessMethod::Rewrite => "beffio.method.rewrite",
        AccessMethod::Read => "beffio.method.read",
    }
}

/// Span name of a `run_pattern_type` call.
fn type_span(t: PatternType) -> &'static str {
    match t {
        PatternType::Scatter => "beffio.type.scatter",
        PatternType::Shared => "beffio.type.shared",
        PatternType::Separate => "beffio.type.separate",
        PatternType::Segmented => "beffio.type.segmented",
        PatternType::SegColl => "beffio.type.segcoll",
    }
}

/// `run_beff_io` rebuilt from core's public building blocks, with a
/// span around every access method, every `run_pattern_type` (credited
/// with the bytes it moved) and the `compute_segment` step.
pub fn beffio_mirror(
    comm: &mut Comm,
    io: &Arc<IoWorld>,
    cfg: &BeffIoConfig,
    host: &Host,
) -> Result<(BeffIoResult, Spans), String> {
    let mut rec = Recorder::new(host, comm.rank() == 0);
    let root = rec.open("beffio.run", None);
    let mp = mpart(cfg.mem_per_node);
    let max_call = all_patterns()
        .iter()
        .map(|p| p.call_bytes(mp))
        .max()
        .unwrap_or(0);
    let mut bufs = Bufs::new(comm.rank(), max_call);
    let mut selfc = comm
        .split(Some(comm.rank() as u32), 0)
        .ok_or("rank got no self communicator from split")?;
    let mut state = RunState::new();

    let mut methods = Vec::with_capacity(ACCESS_METHODS.len());
    let mut run_bytes = 0u64;
    for method in ACCESS_METHODS {
        let ms = rec.open(method_span(method), Some(root));
        let mut types = Vec::with_capacity(PATTERN_TYPES.len());
        for ptype in PATTERN_TYPES {
            if method == AccessMethod::InitialWrite && ptype == PatternType::Segmented {
                let seg = rec.open("beffio.segment", Some(ms));
                compute_segment(comm, &mut state, mp);
                rec.close(seg, 0);
            }
            let ts = rec.open(type_span(ptype), Some(ms));
            let t = run_pattern_type(
                comm, &mut selfc, io, cfg, method, ptype, &mut state, &mut bufs,
            );
            rec.close(ts, t.bytes);
            types.push(t);
        }
        let method_bytes = types.iter().map(|t| t.bytes).sum();
        rec.close(ms, method_bytes);
        run_bytes += method_bytes;
        methods.push(MethodRun { method, types });
    }

    let result = BeffIoResult::assemble(comm.size(), cfg.t_sched, mp, state.segment, methods);
    rec.close(root, run_bytes);
    Ok((result, rec.into_spans()))
}

/// One b_eff_io run on the partition against a fresh (cold) filesystem:
/// `run_beff_io` untraced, or the mirror with spans.
pub fn run_beffio(
    p: &Partition,
    machine: &Machine,
    cfg: &BeffIoConfig,
    host: Option<&Host>,
) -> Result<(Vec<BeffIoResult>, Spans), String> {
    p.net.reset();
    let pfs = machine.filesystem().ok_or("the machine has no I/O model")?;
    let io = IoWorld::sim(pfs);
    let cfg = cfg.clone();
    match host {
        None => {
            let rs = catch(|| p.session.run(move |c| beff_core::run_beff_io(c, &io, &cfg)))?;
            Ok((rs, Spans::new()))
        }
        Some(host) => {
            let host = host.clone();
            let rs = catch(|| p.session.run(move |c| beffio_mirror(c, &io, &cfg, &host)))?;
            let mut spans = Spans::new();
            let mut results = Vec::with_capacity(rs.len());
            for (rank, out) in rs.into_iter().enumerate() {
                let (r, s) = out.map_err(|e| format!("rank {rank}: {e}"))?;
                if rank == 0 {
                    spans = s;
                }
                results.push(r);
            }
            Ok((results, spans))
        }
    }
}

/// Output checks of one b_eff_io run: every rank agrees, the value is
/// positive and finite, every pattern type moved data, and the run
/// replays the first run of this seed bit for bit. The b_eff_io model
/// has no paper reference value, so it is not checked against one.
fn check_beffio(
    results: &[BeffIoResult],
    net: &MachineNet,
    replay: &mut Replay,
    what: &str,
) -> Vec<String> {
    let mut fails = Vec::new();
    let result = rank_agreement(results, what, &mut fails);
    if let Some(r) = results.first() {
        if !(r.beff_io.is_finite() && r.beff_io > 0.0) {
            fails.push(format!("{what}: b_eff_io is {}", r.beff_io));
        }
        for m in &r.methods {
            for t in m.types.iter().filter(|t| t.bytes == 0) {
                fails.push(format!(
                    "{what}: {:?}/{:?} moved no bytes",
                    m.method, t.ptype
                ));
            }
        }
    }
    replay.check(
        what,
        Fingerprint {
            result,
            traffic: Traffic::of(net),
        },
        &mut fails,
    );
    fails
}

/// `core.beffio.bytes` and `core.beffio.reps` of one result.
fn beffio_counts(r: &BeffIoResult) -> (u64, u64) {
    let types = r.methods.iter().flat_map(|m| &m.types);
    let bytes = types.clone().map(|t| t.bytes).sum();
    let reps = types.flat_map(|t| &t.patterns).map(|p| p.reps).sum();
    (bytes, reps)
}

/// The T3E sized for the `beffio_t3e64` partition.
fn beffio_machine() -> Machine {
    t3e().sized_for(BEFFIO_PROCS)
}

/// Drive b_eff_io on a T3E×64 partition per `mode`; also returns the
/// `(bytes, reps)` counts of every traced run.
fn beffio_section(
    args: &Args,
    host: &Host,
    p: &Partition,
    mode: Mode,
    r: &mut Report,
) -> (Section, Replay, Vec<(u64, u64)>) {
    let machine = beffio_machine();
    let cfg = beffio_cfg(&machine, args.seed);
    let mut replay = Replay::default();
    let mut counts = Vec::new();
    let end = host.now() + args.seconds;
    let section = drive(
        host,
        end,
        mode,
        "b_eff_io",
        r,
        |h| run_beffio(p, &machine, &cfg, h),
        |results, what| {
            if what.starts_with("traced") {
                counts.extend(results.first().map(beffio_counts));
            }
            check_beffio(results, &p.net, &mut replay, what)
        },
    );
    (section, replay, counts)
}

/// `--trace 0` on `beffio_t3e64`.
pub fn timed_beffio(args: &Args, host: &Host) -> Result<Report, String> {
    let mut r = Report::default();
    let (p, setup) = launch(&beffio_machine(), BEFFIO_PROCS, host);
    let (section, replay, _) = beffio_section(args, host, &p, Mode::Timed, &mut r);
    section.end_to_end(&mut r, setup, &replay)?;
    r.note(
        "beff_err_pct: n/a (the b_eff_io model has no paper reference value; unvalidated)".into(),
    );
    Ok(r)
}

/// `--trace 1` on `beffio_t3e64`: untraced/traced pairs on the T3E×64.
pub fn trace_beffio(
    args: &Args,
    host: &Host,
    r: &mut Report,
    all: &mut Spans,
) -> Result<(), String> {
    let (p, _) = launch(&beffio_machine(), BEFFIO_PROCS, host);
    let (section, replay, counts) = beffio_section(args, host, &p, Mode::Pairs, r);
    let Some(&(bytes, reps)) = counts.first() else {
        return Err("no traced b_eff_io run completed".into());
    };
    for t in PATTERN_TYPES {
        let name = format!("core.beffio.{}_s", type_stem(t));
        r.metric(&name, section.med(|s| s.secs(type_span(t))), "s");
    }
    for m in ACCESS_METHODS {
        let name = format!("core.beffio.{}_s", access_stem(m));
        r.metric(&name, section.med(|s| s.secs(method_span(m))), "s");
    }
    r.metric(
        "core.beffio.segment_s",
        section.med(|s| s.secs("beffio.segment")),
        "s",
    );
    r.metric("core.beffio.bytes", bytes as f64, "B");
    r.metric("core.beffio.reps", reps as f64, "count");
    let mut fails = Vec::new();
    if !all_equal(&counts) {
        fails.push(format!(
            "core.beffio counts (bytes, reps) differ between traced runs: {counts:?}"
        ));
    }
    if beffio_cfg(&beffio_machine(), args.seed.wrapping_add(1)).prefix
        == beffio_cfg(&beffio_machine(), args.seed).prefix
    {
        fails.push("seed+1 generates the same b_eff_io file names".into());
    }
    r.op(fails);
    section.finish_traced(&replay, r, all);
    Ok(())
}

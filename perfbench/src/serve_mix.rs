//! The `serve_mix` workload: one closed-loop client sending seeded
//! `batch` frames through `Server::handle_frame`, each frame waiting for
//! its reply, against a server journaling to a scratch file.
//!
//! One resident server, like the `serve` daemon, answers the whole run.
//! The run is a sequence of streams, each a fixed number of frames.
//! Every frame carries [`BLOCK`] specs: one fresh spec and repeats of
//! specs the stream already sent (cache reads, or a duplicate of the
//! frame's own miss). Fresh specs cycle through [`MENU`] — small
//! partitions across the catalogue — in a seeded order with seeded
//! pattern seeds, so every stream does the same mix of work on
//! different inputs. About one t3e miss in ten carries an all-off
//! `fault` block, which sends it down the server's separate
//! resilient-driver path.
//!
//! The set-up is the daemon's restart: `Server::with_journal` over the
//! journal the run wrote in its first [`FIXED_STREAMS`] streams, so the
//! replay that warms the cache is part of it.

use crate::report::{peak_rss_mb, Report};
use crate::sim::{beff_mirror, catch, report_beff_spans, Traffic};
use crate::stats::{median, quartiles, ratio, ratio_with_base, tail};
use crate::trace::Spans;
use crate::{derive, Args, Host};
use beff_json::Json;
use beff_mpi::World;
use beff_serve::{FaultCfg, JobSpec, Journal, Server};
use beff_sim::{Rng64, Workers};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fresh-spec shapes: (machine key, ranks), one per catalogue machine
/// the stream visits.
pub const MENU: [(&str, usize); 7] = [
    ("t3e", 16),
    ("sr2201", 8),
    ("sx4", 16),
    ("ibm-sp", 32),
    ("sr8000-rr", 24),
    ("hpv", 7),
    ("sv1", 15),
];
/// Passes over [`MENU`] per stream: on the run's first stream, the
/// second pass finds the first pass's partitions idle in the pool.
pub const CYCLES: usize = 2;
/// Specs per `batch` frame: one fresh spec at a seeded position, the
/// rest repeats of specs the stream already sent (cache reads).
pub const BLOCK: usize = 5;
/// One t3e miss in this many carries an all-off fault block. Which
/// ones is fixed by position, not by the seed, so every run of a given
/// length does the same mix of pooled and resilient work.
pub const FAULT_EVERY: u64 = 10;
/// Distinct specs per stream recomputed and compared with the cache.
pub const AUDIT: usize = 2;
/// Streams after which `peak_rss_mb` is read and whose journal the
/// restart set-up replays: a fixed amount of work, so neither depends
/// on how many streams the host's speed fits into `--seconds`. Every
/// run makes at least this many; the `serve.*` counts cover them.
pub const FIXED_STREAMS: u64 = 8;
/// Restarts timed for `setup_s`; it is their median.
const RESTARTS: usize = 5;
/// Cached `run` frames timed for `serve.hit_us`.
const HIT_PROBES: usize = 200;
/// `Journal::open` replays timed for `serve.journal_open_ms`.
const OPEN_PROBES: usize = 5;

const SALT_STREAM: u64 = 0x5EED_5E4E;

/// The requests of one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Distinct specs, in the order the stream first sends them.
    pub specs: Vec<JobSpec>,
    pub frames: Vec<Frame>,
}

/// One `batch` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub payload: String,
    /// Index into [`Plan::specs`] of every spec in the frame.
    pub items: Vec<usize>,
    /// Whether the server must answer each item from the cache: true
    /// iff the spec was first sent in an earlier frame.
    pub cached: Vec<bool>,
}

fn t3e_per_stream() -> u64 {
    (MENU.iter().filter(|(m, _)| *m == "t3e").count() * CYCLES) as u64
}

/// The requests of stream `stream` of seed `seed`.
pub fn plan(seed: u64, stream: u64) -> Plan {
    let mut rng = Rng64::new(derive(seed ^ SALT_STREAM, stream));
    let mut t3e_ordinal = stream * t3e_per_stream();
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut first_frame = Vec::new();
    let mut frames = Vec::with_capacity(MENU.len() * CYCLES);
    for cycle in 0..CYCLES {
        for (i, shape) in rng.permutation(MENU.len()).into_iter().enumerate() {
            let f = frames.len();
            // the stream's first request must be fresh: nothing to repeat yet
            let fresh_at = if cycle == 0 && i == 0 {
                0
            } else {
                rng.below(BLOCK as u64) as usize
            };
            let mut items = Vec::with_capacity(BLOCK);
            for pos in 0..BLOCK {
                if pos != fresh_at {
                    items.push(rng.below(specs.len() as u64) as usize);
                    continue;
                }
                let (machine, procs) = MENU[shape];
                let mut spec = JobSpec::new(machine, procs).with_seed(rng.next_u64());
                if machine == "t3e" {
                    if t3e_ordinal.is_multiple_of(FAULT_EVERY) {
                        spec = spec.with_fault(FaultCfg::none(rng.next_u64()));
                    }
                    t3e_ordinal += 1;
                }
                specs.push(spec);
                first_frame.push(f);
                items.push(specs.len() - 1);
            }
            let cached = items.iter().map(|&s| first_frame[s] < f).collect();
            let bodies: Vec<String> = items
                .iter()
                .map(|&s| beff_json::to_string(&specs[s]))
                .collect();
            let payload = format!("{{\"op\":\"batch\",\"specs\":[{}]}}", bodies.join(","));
            frames.push(Frame {
                payload,
                items,
                cached,
            });
        }
    }
    Plan { specs, frames }
}

/// The server-side counts of one stream (a pure function of its plan
/// and of the streams before it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub jobs: u64,
    pub hits: u64,
    /// Partitions the pool built during the stream.
    pub pool_built: u64,
    /// Distinct clean specs executed on pooled partitions.
    pub pooled: u64,
    /// Distinct fault-block specs executed by the resilient driver.
    pub resilient: u64,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.jobs += o.jobs;
        self.hits += o.hits;
        self.pool_built += o.pool_built;
        self.pooled += o.pooled;
        self.resilient += o.resilient;
    }
}

/// One stream as the client saw it.
pub struct StreamRun {
    /// First send to last reply.
    pub secs: f64,
    /// Latency of every frame; each frame carries one miss.
    pub frame_secs: Vec<f64>,
    pub recompute_secs: Vec<f64>,
    pub counts: Counts,
    pub responses: Vec<String>,
    pub spans: Spans,
}

fn field<'a>(fields: &'a [(String, Json)], name: &str) -> Option<&'a Json> {
    fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn uint(v: Option<&Json>) -> Option<u64> {
    match v {
        Some(Json::UInt(n)) => Some(*n),
        Some(Json::Int(n)) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// The counters of the server's `stats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stats {
    hits: u64,
    misses: u64,
    built: u64,
    quarantined: u64,
    shed: u64,
}

fn stats(server: &Server) -> Result<Stats, String> {
    let (body, _) = server.handle_frame("{\"op\":\"stats\"}");
    let Ok(Json::Obj(f)) = beff_json::parse(&body) else {
        return Err(format!("stats frame did not parse: {body}"));
    };
    let get = |name: &str| uint(field(&f, name)).ok_or(format!("stats has no {name}: {body}"));
    Ok(Stats {
        hits: get("cache_hits")?,
        misses: get("cache_misses")?,
        built: get("partitions_built")?,
        quarantined: get("quarantined_worlds")?,
        shed: get("shed_jobs")?,
    })
}

/// Check one frame's response: one answer per spec, none an error,
/// each cached exactly when expected, each with its spec's digest, and
/// the same result bytes every time a spec is answered.
fn check_frame(
    plan: &Plan,
    frame: &Frame,
    response: &str,
    answers: &mut [Option<String>],
    r: &mut Report,
) {
    let results = match beff_json::parse(response) {
        Ok(Json::Obj(fields)) => match field(&fields, "results") {
            Some(Json::Arr(items)) => items.clone(),
            _ => Vec::new(),
        },
        _ => Vec::new(),
    };
    for (k, &s) in frame.items.iter().enumerate() {
        let mut fails = Vec::new();
        match results.get(k) {
            Some(Json::Obj(fields)) => {
                if let Some(e) = field(fields, "error") {
                    fails.push(format!(
                        "spec {s} answered with an error: {}",
                        beff_json::to_string(e)
                    ));
                }
                if field(fields, "cached") != Some(&Json::Bool(frame.cached[k])) {
                    fails.push(format!("spec {s}: cached flag is not {}", frame.cached[k]));
                }
                if field(fields, "digest") != Some(&Json::Str(plan.specs[s].key_digest())) {
                    fails.push(format!("spec {s}: wrong digest"));
                }
                match field(fields, "result").map(beff_json::to_string) {
                    None => fails.push(format!("spec {s}: no result")),
                    Some(bytes) => match &answers[s] {
                        None => answers[s] = Some(bytes),
                        Some(first) if *first != bytes => {
                            fails.push(format!("spec {s}: result differs from its first answer"))
                        }
                        Some(_) => {}
                    },
                }
            }
            _ => fails.push(format!("spec {s}: missing from the response")),
        }
        r.op(fails);
    }
}

/// Send one stream's frames to `server`, check every answer and the
/// server's counters, then recompute a seeded sample of its specs.
pub fn run_stream(
    server: &Server,
    plan: &Plan,
    host: &Host,
    traced: bool,
    audit_seed: u64,
    r: &mut Report,
) -> Result<StreamRun, String> {
    let before = stats(server)?;
    let mut spans = Spans::new();
    let mut frame_secs = Vec::with_capacity(plan.frames.len());
    let mut responses = Vec::with_capacity(plan.frames.len());
    let start = host.now();
    let root = if traced {
        spans.open("serve.stream", None, start)
    } else {
        0
    };
    for frame in &plan.frames {
        let t0 = host.now();
        let (response, _) = server.handle_frame(&frame.payload);
        let t1 = host.now();
        if traced {
            let id = spans.open("serve.frame", Some(root), t0);
            spans.close(id, t1, frame.items.len() as u64);
        }
        frame_secs.push(t1 - t0);
        responses.push(response);
    }
    let end = host.now();
    if traced {
        spans.close(
            root,
            end,
            plan.frames.iter().map(|f| f.items.len() as u64).sum(),
        );
    }

    let mut answers = vec![None; plan.specs.len()];
    for (frame, response) in plan.frames.iter().zip(&responses) {
        check_frame(plan, frame, response, &mut answers, r);
    }

    // The server's counters moved by exactly this stream's requests.
    let after = stats(server)?;
    let jobs: u64 = plan.frames.iter().map(|f| f.items.len() as u64).sum();
    let hits: u64 = plan
        .frames
        .iter()
        .flat_map(|f| &f.cached)
        .filter(|&&c| c)
        .count() as u64;
    let resilient = plan.specs.iter().filter(|s| s.fault.is_some()).count() as u64;
    let counts = Counts {
        jobs,
        hits,
        pool_built: after.built - before.built,
        pooled: plan.specs.len() as u64 - resilient,
        resilient,
    };
    let mut fails = Vec::new();
    for (name, got, want) in [
        ("cache_hits", after.hits - before.hits, hits),
        ("cache_misses", after.misses - before.misses, jobs - hits),
        ("quarantined_worlds", after.quarantined, 0),
        ("shed_jobs", after.shed, 0),
    ] {
        if got != want {
            fails.push(format!("stats {name} moved by {got}, expected {want}"));
        }
    }
    r.op(fails);

    // Audit: a seeded sample of distinct specs, recomputed with the
    // cache bypassed, must reproduce the cached bytes exactly.
    let mut rng = Rng64::new(audit_seed);
    let mut recompute_secs = Vec::with_capacity(AUDIT);
    for _ in 0..AUDIT.min(plan.specs.len()) {
        let spec = &plan.specs[rng.below(plan.specs.len() as u64) as usize];
        let cached = server.submit(spec);
        let (fresh, secs) = host.time(|| server.recompute(spec));
        recompute_secs.push(secs);
        r.op(match (cached, fresh) {
            (Ok(c), Ok(f)) if c.cached && *c.bytes == *f => Vec::new(),
            (Ok(c), Ok(_)) if !c.cached => vec![format!("audit: {} was not cached", c.digest)],
            (Ok(c), Ok(_)) => vec![format!(
                "audit: {} recomputed bytes differ from the cache",
                c.digest
            )],
            (Err(e), _) | (_, Err(e)) => vec![format!("audit: {e}")],
        });
    }

    Ok(StreamRun {
        secs: end - start,
        frame_secs,
        recompute_secs,
        counts,
        responses,
        spans,
    })
}

/// The worker count the server uses: `BEFF_WORKERS`, else the host's
/// cores.
fn workers() -> Result<Workers, String> {
    Workers::try_from_env().map_err(|e| e.to_string())
}

/// A scratch file of this run under `out`, removed first if a stale
/// one is there.
fn scratch(out: &Path, args: &Args, ext: &str) -> Result<PathBuf, String> {
    let path = out.join(format!(
        "serve_mix-{}-{}.{ext}",
        args.seed,
        std::process::id()
    ));
    remove(&path)?;
    Ok(path)
}

fn remove(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// The resident server of a run, journaling to `journal`.
fn open_server(workers: Workers, journal: &Path) -> Result<Server, String> {
    let (server, _) =
        Server::with_journal(workers, journal).map_err(|e| format!("open journal: {e}"))?;
    Ok(server)
}

/// `setup_s` of `serve_mix`: the daemon's restart. Copies the run's
/// journal as it stands after [`FIXED_STREAMS`] streams and times
/// `Server::with_journal` over the copy [`RESTARTS`] times; each
/// restart must heal nothing and hold exactly `entries` results.
fn restart_setup(
    journal: &Path,
    copy: &Path,
    workers: Workers,
    entries: usize,
    host: &Host,
    r: &mut Report,
) -> Result<f64, String> {
    std::fs::copy(journal, copy).map_err(|e| format!("copy {}: {e}", journal.display()))?;
    let mut secs = Vec::with_capacity(RESTARTS);
    for _ in 0..RESTARTS {
        let (opened, t) = host.time(|| Server::with_journal(workers, copy));
        secs.push(t);
        r.op(match opened {
            Ok((s, rec)) if rec.truncated.is_none() && s.cache_stats().entries == entries => {
                Vec::new()
            }
            Ok((s, rec)) => vec![format!(
                "restart: {} results (expected {entries}), healed {:?}",
                s.cache_stats().entries,
                rec.truncated
            )],
            Err(e) => vec![format!("restart: {e}")],
        });
    }
    remove(copy)?;
    median(&secs).ok_or_else(|| "no restart timed".to_string())
}

/// `--trace 0` on `serve_mix`.
pub fn timed(args: &Args, host: &Host, out: &Path) -> Result<Report, String> {
    let workers = workers()?;
    let journal = scratch(out, args, "journal")?;
    let server = open_server(workers, &journal)?;
    let mut r = Report::default();
    let (mut streams, mut frames) = (Vec::new(), Vec::new());
    let (mut jobs, mut entries) = (0u64, 0usize);
    let (mut rss, mut setup_s) = (0.0, 0.0);
    let end = host.now() + args.seconds;
    for k in 0.. {
        let plan = plan(args.seed, k);
        let s = run_stream(&server, &plan, host, false, derive(args.seed, k), &mut r)?;
        streams.push(s.secs);
        frames.extend(s.frame_secs);
        jobs += s.counts.jobs;
        entries += plan.specs.len();
        if k + 1 == FIXED_STREAMS {
            rss = peak_rss_mb()?;
            let copy = scratch(out, args, "restart")?;
            setup_s = restart_setup(&journal, &copy, workers, entries, host, &mut r)?;
        }
        if k + 1 >= FIXED_STREAMS && host.now() >= end {
            break;
        }
    }
    drop(server);
    remove(&journal)?;
    let run_s = median(&streams).ok_or("no stream completed")?;
    let p50 = median(&frames).ok_or("no frame answered")?;
    r.metric("setup_s", setup_s, "s");
    r.metric("run_s", run_s, "s");
    r.metric("p50_ms", 1e3 * p50, "ms");
    r.metric(
        "jobs_per_s",
        jobs as f64 / streams.iter().sum::<f64>(),
        "1/s",
    );
    r.metric("peak_rss_mb", rss, "MB");
    r.note(format!(
        "setup_s: median of {RESTARTS} restarts over the journal of the first {FIXED_STREAMS} streams; peak_rss_mb read after them"
    ));
    r.note(format!(
        "{} streams of {} requests on one server at {} workers; run_s is one stream, p50_ms one frame",
        streams.len(),
        MENU.len() * CYCLES * BLOCK,
        workers.get()
    ));
    if let Some((q1, q3)) = quartiles(&streams) {
        r.note(format!("run_s quartiles: {q1} .. {q3} s"));
    }
    match tail(&frames) {
        Some(t) => r.note(format!(
            "tail_ms = {} ms (p{:.2} of {} frames, {} beyond it)",
            1e3 * t.value,
            t.percentile,
            t.samples,
            crate::stats::TAIL_BEYOND
        )),
        None => r.note(format!(
            "tail_ms: n/a ({} frames, fewer than 11)",
            frames.len()
        )),
    }
    Ok(r)
}

/// `(canonical key, result bytes)` of every spec of `plan`, in
/// first-sent order, as the server caches them.
fn records(server: &Server, plan: &Plan) -> Result<Vec<(String, String)>, String> {
    plan.specs
        .iter()
        .map(|spec| match server.submit(spec) {
            Ok(o) => Ok((o.key, o.bytes.to_string())),
            Err(e) => Err(format!("cached spec refused: {e}")),
        })
        .collect()
}

/// `--trace 1` on `serve_mix`. One resident server answers streams
/// 0, 1, … for the run's seconds (at least [`FIXED_STREAMS`]),
/// alternating untraced and traced ones. Stream 0 is then replayed on a
/// fresh one-worker server, and its clean jobs through the traced b_eff
/// mirror outside the server for the `core.beff.*` and netsim counts.
pub fn trace(
    args: &Args,
    host: &Host,
    out: &Path,
    r: &mut Report,
    all: &mut Spans,
) -> Result<(), String> {
    let workers = workers()?;
    let journal = scratch(out, args, "journal")?;
    let server = open_server(workers, &journal)?;
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut fixed = Counts::default();
    let mut stream0 = None;
    let end = host.now() + args.seconds;
    let mut k = 0u64;
    for round in 0.. {
        // as in `sim::drive`: pairs alternate which side runs first
        let order: &[bool] = if round % 2 == 0 {
            &[false, true]
        } else {
            &[true, false]
        };
        for &t in order {
            let s = run_stream(&server, &plan(args.seed, k), host, t, derive(args.seed, k), r)?;
            if k < FIXED_STREAMS {
                fixed.add(s.counts);
            }
            if k == 0 {
                stream0 = Some((s.counts, s.responses.clone()));
            }
            k += 1;
            if t {
                traced.push(s);
            } else {
                untraced.push(s);
            }
        }
        if k >= FIXED_STREAMS && host.now() >= end {
            break;
        }
    }
    let Some((counts0, responses0)) = stream0 else {
        return Err("no stream".into());
    };
    let plan0 = plan(args.seed, 0);
    let mut fails = Vec::new();

    let pick = |f: &dyn Fn(&StreamRun) -> Vec<f64>| -> f64 {
        let v: Vec<f64> = traced.iter().flat_map(f).collect();
        median(&v).unwrap_or(0.0)
    };
    r.metric(
        "serve.recompute_ms",
        1e3 * pick(&|s| s.recompute_secs.clone()),
        "ms",
    );
    r.metric(
        "serve.batch_ms",
        1e3 * pick(&|s| s.frame_secs.clone()),
        "ms",
    );
    let probe = format!(
        "{{\"op\":\"run\",\"spec\":{}}}",
        beff_json::to_string(&plan0.specs[0])
    );
    let mut hits = Vec::with_capacity(HIT_PROBES);
    for _ in 0..HIT_PROBES {
        let (_, secs) = host.time(|| server.handle_frame(&probe));
        hits.push(secs);
    }
    r.metric("serve.hit_us", 1e6 * median(&hits).unwrap_or(0.0), "us");
    let records0 = records(&server, &plan0)?;
    drop(server);
    remove(&journal)?;

    // Replay stream 0's records into a scratch journal.
    let replay = scratch(out, args, "replay")?;
    let (j, _, _) = Journal::open(&replay).map_err(|e| format!("open replay journal: {e}"))?;
    let mut append = Vec::with_capacity(records0.len());
    for (key, bytes) in &records0 {
        let (res, secs) = host.time(|| j.append(key, bytes));
        res.map_err(|e| format!("journal append: {e}"))?;
        append.push(secs);
    }
    drop(j);
    let mut open = Vec::with_capacity(OPEN_PROBES);
    for _ in 0..OPEN_PROBES {
        let (res, secs) = host.time(|| Journal::open(&replay));
        let (_, recs, _) = res.map_err(|e| format!("journal reopen: {e}"))?;
        if recs != records0 {
            fails.push("journal replay returned different records".into());
        }
        open.push(secs);
    }
    remove(&replay)?;
    r.metric(
        "serve.journal_append_us",
        1e6 * median(&append).unwrap_or(0.0),
        "us",
    );
    r.metric(
        "serve.journal_open_ms",
        1e3 * median(&open).unwrap_or(0.0),
        "ms",
    );

    let executed = fixed.pooled + fixed.resilient;
    r.metric("serve.hit_ratio", ratio(fixed.hits, fixed.jobs), "ratio");
    r.metric("serve.pool_built", fixed.pool_built as f64, "count");
    r.metric(
        "serve.pool_reuse",
        fixed.pooled.saturating_sub(fixed.pool_built) as f64,
        "count",
    );
    r.metric(
        "serve.resilient_share",
        ratio(fixed.resilient, executed),
        "ratio",
    );
    r.note(format!(
        "serve.* counts over the first {FIXED_STREAMS} streams; serve.hit_ratio = {}",
        ratio_with_base(fixed.hits, fixed.jobs)
    ));
    r.note(format!(
        "serve.resilient_share = {}",
        ratio_with_base(fixed.resilient, executed)
    ));

    // Worker count is unobservable: one worker gives the same answers.
    let serial = run_stream(
        &Server::new(Workers::new(1)),
        &plan0,
        host,
        false,
        derive(args.seed, 0),
        r,
    )?;
    if serial.counts != counts0 || serial.responses != responses0 {
        fails.push(format!(
            "stream 0 at 1 worker differs from {} workers: {:?} vs {:?}",
            workers.get(),
            serial.counts,
            counts0
        ));
    }
    if plan(args.seed.wrapping_add(1), 0) == plan0 {
        fails.push("seed+1 generates the same stream".into());
    }
    replay_clean_jobs(&plan0, &records0, host, r, all)?;
    let uncovered: Vec<f64> = traced.iter().map(|s| s.spans.self_secs(0)).collect();
    let traced_s: Vec<f64> = traced.iter().map(|s| s.secs).collect();
    let untraced_s: Vec<f64> = untraced.iter().map(|s| s.secs).collect();
    if let (Some(t), Some(u)) = (median(&traced_s), median(&untraced_s)) {
        r.metric("trace.overhead_s", t - u, "s");
        r.metric("trace.uncovered_s", median(&uncovered).unwrap_or(0.0), "s");
        r.note(format!(
            "tracing overhead: traced stream {t} s - untraced stream {u} s ({} + {} streams)",
            traced_s.len(),
            untraced_s.len()
        ));
    }
    r.op(fails);
    for s in traced {
        all.adopt(s.spans);
    }
    Ok(())
}

/// The `core.beff.*` and netsim counts of the stream's clean jobs: each
/// is run again through the traced b_eff mirror on a partition of its
/// own, outside the server, and must reproduce the bytes the server
/// cached for it. Every metric sums over the jobs.
fn replay_clean_jobs(
    plan: &Plan,
    records: &[(String, String)],
    host: &Host,
    r: &mut Report,
    all: &mut Spans,
) -> Result<(), String> {
    let mut total = Traffic::default();
    let mut spans = Spans::new();
    for (spec, (_, cached)) in plan.specs.iter().zip(records) {
        if spec.fault.is_some() {
            continue;
        }
        let machine = spec.resolve().map_err(|e| e.to_string())?;
        let cfg = spec.beff_config(&machine);
        let net = machine.network();
        let session = World::sim_partition(Arc::clone(&net), spec.procs).session();
        let h = host.clone();
        let out = catch(|| session.run(move |c| beff_mirror(c, &cfg, &h)));
        let fails = match out {
            Ok(mut rs) if !rs.is_empty() => {
                let (res, s) = rs.swap_remove(0);
                spans.adopt(s);
                if beff_json::to_string(&res) == *cached {
                    Vec::new()
                } else {
                    vec![format!(
                        "{}: mirror replay differs from the served result",
                        spec.key_digest()
                    )]
                }
            }
            Ok(_) => vec![format!("{}: replay returned no rank", spec.key_digest())],
            Err(e) => vec![format!("{}: replay panicked: {e}", spec.key_digest())],
        };
        r.op(fails);
        total.add(Traffic::of(&net));
    }
    total.report(r);
    let fails = report_beff_spans(&[&spans], r);
    r.op(fails);
    all.adopt(spans);
    Ok(())
}

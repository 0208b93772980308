//! The benchmark report: metrics by name with their units, the
//! attempted/failed operation tally behind `error_rate`, and the
//! final JSON line.

use crate::stats::{ratio_with_base, valid_metric_name};
use crate::trace::Spans;
use crate::{probes, serve_mix, sim, Args, Host, Workload};
use beff_json::{Json, ToJson};
use std::path::Path;

/// The end-to-end metrics every `--trace 0` run prints: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every `--trace 1` run prints: (name, unit).
pub const PER_LAYER: [(&str, &str); 47] = [
    ("machines.network_build_s", "s"),
    ("mpi.session_launch_s", "s"),
    ("mpi.barrier_ns_per_rank", "ns"),
    ("core.beff.sendrecv_s", "s"),
    ("core.beff.alltoallv_s", "s"),
    ("core.beff.isend_s", "s"),
    ("core.beff.ring_s", "s"),
    ("core.beff.random_s", "s"),
    ("core.beff.extras_s", "s"),
    ("core.beff.ns_per_msg", "ns"),
    ("core.beff.ns_per_msg.sendrecv", "ns"),
    ("core.beff.ns_per_msg.alltoallv", "ns"),
    ("core.beff.ns_per_msg.isend", "ns"),
    ("core.beff.points", "count"),
    ("core.beff.msgs", "count"),
    ("core.beffio.scatter_s", "s"),
    ("core.beffio.shared_s", "s"),
    ("core.beffio.separate_s", "s"),
    ("core.beffio.segmented_s", "s"),
    ("core.beffio.segcoll_s", "s"),
    ("core.beffio.write_s", "s"),
    ("core.beffio.rewrite_s", "s"),
    ("core.beffio.read_s", "s"),
    ("core.beffio.segment_s", "s"),
    ("core.beffio.bytes", "B"),
    ("core.beffio.reps", "count"),
    ("netsim.port_msgs", "count"),
    ("netsim.hop_msgs", "count"),
    ("netsim.bytes", "B"),
    ("netsim.hops_per_msg", "ratio"),
    ("netsim.price_ns", "ns"),
    ("netsim.route_ns", "ns"),
    ("netsim.reset_us", "us"),
    ("pfs.write_ns", "ns"),
    ("pfs.read_ns", "ns"),
    ("mpiio.map_range_ns", "ns"),
    ("serve.hit_us", "us"),
    ("serve.recompute_ms", "ms"),
    ("serve.batch_ms", "ms"),
    ("serve.journal_append_us", "us"),
    ("serve.journal_open_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.pool_built", "count"),
    ("serve.pool_reuse", "count"),
    ("serve.resilient_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics, notes and the operation tally of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Count one attempted operation; it failed if any of its output
    /// checks did (a panic or typed error arrives here as a failed
    /// check too).
    pub fn op(&mut self, fails: Vec<String>) {
        self.attempted += 1;
        if !fails.is_empty() {
            self.failed += 1;
            self.failures.extend(fails);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Check that the report holds exactly the declared metrics of its
    /// mode — each once, finite, with its declared unit and a valid
    /// name — and put them in the declared order.
    pub fn finish(&mut self, args: &Args) -> Result<(), String> {
        let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut ordered = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let mut found = self.metrics.iter().filter(|m| m.name == name);
            let m = found
                .next()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if found.next().is_some() {
                return Err(format!("metric {name} was reported twice"));
            }
            if m.unit != unit || !m.value.is_finite() || !valid_metric_name(name) {
                return Err(format!(
                    "metric {name} = {} {} is malformed",
                    m.value, m.unit
                ));
            }
            ordered.push(m.clone());
        }
        if let Some(extra) = self
            .metrics
            .iter()
            .find(|m| !declared.iter().any(|d| d.0 == m.name))
        {
            return Err(format!("metric {} is not declared", extra.name));
        }
        self.metrics = ordered;
        Ok(())
    }

    /// Human-readable lines, then the JSON result as the last line.
    pub fn print(&self, args: &Args) {
        println!(
            "perfbench {} seed={} seconds={} trace={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for m in &self.metrics {
            println!("  {:<34} {} {}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            println!("  # {n}");
        }
        println!(
            "  # error_rate = {}",
            ratio_with_base(self.failed, self.attempted)
        );
        for f in self.failures.iter().take(20) {
            println!("  FAILED: {f}");
        }
        println!("{}", beff_json::to_string(&self.result_json()));
    }

    fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object()
                        .field("value", &m.value)
                        .field("unit", m.unit)
                        .build(),
                )
            })
            .collect();
        Json::object()
            .field("correct", &self.correct())
            .field("attempted", &self.attempted)
            .field("failed", &self.failed)
            .raw("metrics", Json::Obj(metrics))
            .build()
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Per-layer metric prefixes of the drivers a workload does not run.
/// Its traced run reports them as 0 and notes them as n/a: the flat
/// metric list of `BENCHMARK.json` must be complete on every workload.
pub fn not_exercised(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::BeffT3e512 => &["core.beffio.", "serve."],
        Workload::BeffioT3e64 => &["core.beff.", "serve."],
        Workload::ServeMix => &["core.beffio."],
    }
}

/// `--trace 1`: layer probes at the workload's scale, then the
/// workload's own driver with spans, and the spans written to `out`.
pub fn traced(args: &Args, host: &Host, out: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    let mut spans = Spans::new();
    probes::run(args, host, &mut r)?;
    match args.workload {
        Workload::BeffT3e512 => sim::trace_beff(args, host, &mut r, &mut spans)?,
        Workload::BeffioT3e64 => sim::trace_beffio(args, host, &mut r, &mut spans)?,
        Workload::ServeMix => serve_mix::trace(args, host, out, &mut r, &mut spans)?,
    }
    let absent = not_exercised(args.workload);
    for &(name, unit) in &PER_LAYER {
        if absent.iter().any(|p| name.starts_with(p)) {
            r.metric(name, 0.0, unit);
        }
    }
    r.note(format!(
        "n/a on {} (its drivers do not run; reported as 0): {}",
        args.workload.name(),
        absent
            .iter()
            .map(|p| format!("{p}*"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let path = out.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    let doc = Json::object()
        .field("workload", args.workload.name())
        .field("seed", &args.seed)
        .raw("spans", spans.to_json())
        .build();
    std::fs::write(&path, beff_json::to_string(&doc))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    r.note(format!(
        "{} spans written to {}",
        spans.all().len(),
        path.display()
    ));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(v: &'a Json, name: &str) -> Option<&'a Json> {
        match v {
            Json::Obj(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str_field<'a>(v: &'a Json, name: &str) -> &'a str {
        match field(v, name) {
            Some(Json::Str(s)) => s,
            _ => "",
        }
    }

    /// (name, unit) of every entry of a metric list in BENCHMARK.json.
    fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
        match field(doc, list) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    (
                        str_field(m, "name").to_string(),
                        str_field(m, "unit").to_string(),
                    )
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap_or_default();
        beff_json::parse(&text).unwrap_or(Json::Null)
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), pairs(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        assert!(names.iter().all(|n| valid_metric_name(n)));
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn finish_orders_and_rejects_undeclared_metrics() {
        let args = Args {
            workload: Workload::ServeMix,
            seed: 1,
            seconds: 1.0,
            trace: true,
        };
        let mut r = Report::default();
        for &(name, unit) in PER_LAYER.iter().rev() {
            r.metric(name, 1.0, unit);
        }
        assert_eq!(r.finish(&args), Ok(()));
        assert_eq!(
            r.metrics.first().map(|m| m.name.as_str()),
            Some(PER_LAYER[0].0)
        );

        r.metric("not.declared", 1.0, "s");
        assert!(r.finish(&args).is_err());
        let mut missing = Report::default();
        missing.metric(PER_LAYER[0].0, 1.0, PER_LAYER[0].1);
        assert!(missing.finish(&args).is_err());
    }

    #[test]
    fn every_layer_is_measured_on_some_workload() {
        for &(name, _) in &PER_LAYER {
            let on = Workload::ALL
                .iter()
                .filter(|&&w| !not_exercised(w).iter().any(|p| name.starts_with(p)))
                .count();
            assert!(on > 0, "{name} is n/a on every workload");
        }
        // "core.beff." must not swallow "core.beffio."
        assert!(!"core.beffio.read_s".starts_with("core.beff."));
    }

    #[test]
    fn an_operation_fails_when_any_check_does() {
        let mut r = Report::default();
        r.op(Vec::new());
        r.op(vec!["a".into(), "b".into()]);
        assert_eq!((r.attempted, r.failed, r.failures.len()), (2, 1, 2));
        assert!(!r.correct());
        assert!(
            !Report::default().correct(),
            "nothing attempted is not a pass"
        );
    }
}

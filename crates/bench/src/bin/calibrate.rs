//! Calibrates the machine-model constants against the paper's target
//! set (Table 1 rows, ping-pong, L_max; Fig. 1 balance rides on b_eff)
//! and gates the residuals.
//!
//! Usage:
//!   `calibrate -- --check [--tolerance 0.25] [--out results/calibration.json]
//!                 [--golden results/calibration.json]`
//!       Replay every Table 1 row on the catalog constants, write the
//!       residual report, and exit non-zero if any gated metric strays
//!       beyond the tolerance or a shape claim breaks. This is the CI
//!       gate `scripts/verify.sh` runs (no refit). `--golden FILE`
//!       additionally requires the report to match a committed golden
//!       byte-for-byte (the refactor-inertness gate).
//!   `calibrate -- --fit [group ...]`
//!       Coordinate descent over the named fit groups (default: all);
//!       prints the fitted constants to paste into `crates/machines`.
//!       Fitting never edits source — constants are baked by hand so
//!       the diff stays reviewable.

use beff_bench::calibration::{check, fit_group, fit_groups, DEFAULT_TOLERANCE};
use beff_bench::has_flag;

fn arg_after(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn run_fit() {
    let requested: Vec<String> = std::env::args()
        .skip_while(|a| a != "--fit")
        .skip(1)
        .take_while(|a| !a.starts_with("--"))
        .collect();
    let sweeps: usize =
        arg_after("--sweeps").map(|s| s.parse().expect("--sweeps N")).unwrap_or(3);
    for group in fit_groups() {
        if !requested.is_empty() && !requested.iter().any(|r| r == group.name) {
            continue;
        }
        let (fitted, obj) = fit_group(&group, sweeps);
        println!("\n== fitted {} (objective {obj:.4}) ==", group.name);
        println!("machines: {:?}", group.keys);
        println!("o_send/o_recv: {:.3e}", fitted.o_send);
        println!("port:     Tier::new({:.3e}, {:.1})", fitted.port.latency, fitted.port.mbps);
        println!(
            "node_mem: Tier::new({:.3e}, {:.1})",
            fitted.node_mem.latency, fitted.node_mem.mbps
        );
        println!("hop:      Tier::new({:.3e}, {:.1})", fitted.hop.latency, fitted.hop.mbps);
        println!("nic:      Tier::new({:.3e}, {:.1})", fitted.nic.latency, fitted.nic.mbps);
        match fitted.backplane {
            Some(bp) => {
                println!("backplane: Some(Tier::new({:.3e}, {:.1}))", bp.latency, bp.mbps)
            }
            None => println!("backplane: None"),
        }
        println!("contention: {:.3}", fitted.contention);
    }
}

fn run_check() -> bool {
    let tolerance: f64 = arg_after("--tolerance")
        .map(|s| s.parse().expect("--tolerance X"))
        .unwrap_or(DEFAULT_TOLERANCE);
    let out = arg_after("--out").unwrap_or_else(|| "results/calibration.json".to_string());
    let report = check(tolerance);

    println!(
        "\nCalibration residuals (gate: averaged metrics within ±{:.0}%)\n",
        tolerance * 100.0
    );
    for row in &report.rows {
        let lmax_ok = row.lmax_mb_measured == row.lmax_mb_paper;
        print!("{:<12} x{:<4}", row.machine_key, row.procs);
        print!(
            " Lmax {} MB {}",
            row.lmax_mb_measured,
            if lmax_ok { "=" } else { "BREACH" }
        );
        for m in &row.metrics {
            if !m.gated {
                continue;
            }
            let flag = if m.within(tolerance) { "" } else { " BREACH" };
            print!("  {} {:.2}{}", m.metric, m.ratio(), flag);
        }
        println!();
    }
    for s in &report.shapes {
        println!("shape {:<24} {}  ({})", s.name, if s.pass { "ok" } else { "BREACH" }, s.detail);
    }

    let text = beff_json::to_string_pretty(&report);
    beff_json::parse(&text).map(drop).expect("calibration JSON must be well-formed");
    let text = format!("{text}\n");
    std::fs::write(&out, &text).expect("write calibration report");
    if let Some(golden) = arg_after("--golden") {
        let want = std::fs::read_to_string(&golden).expect("read golden calibration report");
        if text != want {
            eprintln!("calibrate: report is not byte-identical to golden {golden}");
            return false;
        }
        println!("calibrate: byte-identical to golden {golden}");
    }
    println!(
        "\nwrote {out}: {} ({} breaches)",
        if report.pass() { "PASS" } else { "FAIL" },
        report.breaches()
    );
    report.pass()
}

fn main() {
    if has_flag("--fit") {
        run_fit();
        return;
    }
    // default: --check (the CI gate)
    if !run_check() {
        std::process::exit(1);
    }
}

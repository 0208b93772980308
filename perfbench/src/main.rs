//! perfbench — the repository benchmark.
//!
//! One command runs a named workload from a seed, times it from
//! outside the program through the public APIs of the b_eff crates,
//! checks the outputs, and prints every metric by name with its unit.
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//!
//! ```text
//! perfbench --workload <beff_t3e512|beffio_t3e64|serve_mix>
//!           --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it prints the per-layer
//! metrics (spans recorded by this package around calls into each
//! layer, layer probes, and the layers' public counters) and the
//! tracing overhead, and writes the spans to `perfbench/out/`.
//! The workloads, metrics and what each per-layer metric should move
//! are listed in `perfbench/README.md`.
//!
//! Host time is read only through `beff_sim::clock::RealClock`, the
//! substrate's sanctioned real-mode clock, so this package needs no
//! wall-clock waiver of its own.

mod probes;
mod report;
mod serve_mix;
mod sim;
mod stats;
mod trace;

use beff_sim::clock::{Clock, RealClock};
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where runs leave their scratch journals and span files, relative to
/// the checkout root the benchmark is started from.
pub const OUT_DIR: &str = "perfbench/out";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Quick-schedule b_eff on the T3E×512 torus (paper Table 1 row).
    BeffT3e512,
    /// Quick-pattern-table b_eff_io on T3E×64 with its striped PFS.
    BeffioT3e64,
    /// A closed-loop client sending seeded `batch` frames to a server.
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BeffT3e512,
        Workload::BeffioT3e64,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BeffT3e512 => "beff_t3e512",
            Workload::BeffioT3e64 => "beffio_t3e64",
            Workload::ServeMix => "serve_mix",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {s:?}; expected one of {}",
                    names.join(", ")
                )
            })
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("--seed {value:?}: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    })
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Host time in seconds since the benchmark started.
#[derive(Debug, Clone, Default)]
pub struct Host(RealClock);

impl Host {
    pub fn now(&self) -> f64 {
        self.0.now()
    }

    /// Run `f`, returning its value and the host seconds it took.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = self.now();
        let r = f();
        (r, self.now() - t0)
    }
}

/// SplitMix64 of `seed` and a salt: independent derived seeds for the
/// workloads' generated inputs.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run(args: &Args) -> Result<Report, String> {
    let out = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let host = Host::default();
    let mut report = if args.trace {
        report::traced(args, &host, &out)?
    } else {
        match args.workload {
            Workload::BeffT3e512 => sim::timed_beff(args, &host)?,
            Workload::BeffioT3e64 => sim::timed_beffio(args, &host)?,
            Workload::ServeMix => serve_mix::timed(args, &host, &out)?,
        }
    };
    report.finish(args)?;
    Ok(report)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print(&args);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(argv(
            "--workload serve_mix --seed 7 --seconds 2.5 --trace 1",
        ));
        assert_eq!(
            a,
            Ok(Args {
                workload: Workload::ServeMix,
                seed: 7,
                seconds: 2.5,
                trace: true
            })
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_mix --seed -1 --seconds 1 --trace 0",
            "--workload serve_mix --seed 1 --seconds 0 --trace 0",
            "--workload serve_mix --seed 1 --seconds 1 --trace 2",
            "--workload serve_mix --seed 1 --seconds 1",
            "--workload serve_mix --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(Args::parse(argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn derived_seeds_differ_by_seed_and_salt() {
        assert_ne!(derive(1, 0), derive(2, 0));
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_eq!(derive(5, 3), derive(5, 3));
    }
}

//! Verification-gate helper: check that a JSON file exists and is
//! well-formed (RFC 8259), using the in-tree parser. Exits nonzero
//! with a diagnostic otherwise — `scripts/verify.sh` runs this against
//! `BENCH_SIM.json` after the perf baseline.
//!
//! Usage: `cargo run --release -p beff-bench --bin json_check -- <file>...`

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: json_check <file>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("json_check: {path}: {e}");
                failed = true;
            }
            Ok(text) => match beff_json::parse(&text).map(drop) {
                Err(e) => {
                    eprintln!("json_check: {path}: {e}");
                    failed = true;
                }
                Ok(()) => println!("json_check: {path}: ok"),
            },
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

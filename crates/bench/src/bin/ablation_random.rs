//! Extension study (the paper's §6 future work): should *random*
//! access patterns join b_eff_io? Measures sequential vs random reads
//! and random writes over chunk sizes on two contrasting systems — the
//! T3E (small cache, seek-dominated) and the SX-5 (2 GB cache, random
//! access nearly free while the working set is resident).
//!
//! Usage: `cargo run --release -p beff-bench --bin ablation_random [--full]`

use beff_bench::full_mode;
use beff_core::beffio::{run_random_io, RandomIoConfig};
use beff_machines::by_key;
use beff_mpi::World;
use beff_mpiio::IoWorld;
use beff_netsim::MB;
use beff_pfs::Pfs;
use beff_report::{Align, Table};
use std::sync::Arc;

fn main() {
    let (region, t) = if full_mode() { (64 * MB, 10.0) } else { (8 * MB, 1.0) };

    let mut table = Table::new(&[
        "system",
        "chunk",
        "seq read MB/s",
        "rand read MB/s",
        "rand write MB/s",
        "rand/seq",
    ])
    .align(0, Align::Left)
    .align(1, Align::Left);

    for key in ["t3e", "sx5"] {
        let machine = by_key(key).expect("machine");
        let n = 8.min(machine.procs);
        let m = machine.sized_for(n);
        // cold-cache study with the disk seek model enabled: the
        // benchmark proper never probes seeks (the paper's point is
        // that most application patterns are sequential), so the
        // calibrated models leave it off — the extension turns it on
        let mut iocfg = m.io.clone().expect("io model");
        iocfg.cache_bytes = if key == "sx5" { iocfg.cache_bytes } else { 0 };
        let pfs = Arc::new(Pfs::new(iocfg));
        pfs.set_seek_overhead(7e-3); // ~7 ms disk arm movement
        let io = IoWorld::sim(pfs);
        let cfg = RandomIoConfig {
            region_per_rank: region,
            time_per_point: t,
            ..RandomIoConfig::quick()
        };
        let rs =
            World::sim_partition(m.network(), n).run(|c| run_random_io(c, &io, &cfg));
        let r = &rs[0];
        eprintln!("done: {key}");
        for p in &r.points {
            table.row(&[
                m.name.to_string(),
                beff_sim::units::fmt_bytes(p.chunk),
                format!("{:.1}", p.seq_read_mbps),
                format!("{:.1}", p.rand_read_mbps),
                format!("{:.1}", p.rand_write_mbps),
                format!("{:.2}", p.rand_read_mbps / p.seq_read_mbps.max(1e-9)),
            ]);
        }
    }

    println!("\nExtension — random access patterns (paper §6 future work)\n");
    println!("{}", table.render());
    println!("reading: a rand/seq ratio near 1 means random patterns would add");
    println!("little information to b_eff_io on that system; a low ratio means");
    println!("they probe a distinct subsystem property (seek/RMW costs).");
}

//! Micro-benchmarks of the substrates: how fast the *simulator itself*
//! runs (host time per virtual event), which is what bounds how large a
//! machine the harness can model.
//!
//! Plain `Instant`-based timing — no external harness — so the numbers
//! come from `cargo run --release -p beff-bench --bin micro` with zero
//! registry dependencies. Each benchmark is warmed up, the iteration
//! count auto-calibrated to a ~0.2 s budget, and one table row printed.

use beff_core::beff::{run_beff, BeffConfig, MeasureSchedule};
use beff_machines::t3e;
use beff_mpi::World;
use beff_mpiio::FileView;
use beff_netsim::{MachineNet, NetParams, Topology, KB, MB};
use beff_pfs::{stripe_split, DataRef, Pfs, PfsConfig};
use beff_report::{Align, Table};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One measured row: calibrate, run, record.
struct Harness {
    table: Table,
}

impl Harness {
    fn new() -> Self {
        let table = Table::new(&["group", "benchmark", "iters", "total", "per-iter"])
            .align(0, Align::Left)
            .align(1, Align::Left);
        Self { table }
    }

    fn bench<R>(&mut self, group: &str, name: &str, mut f: impl FnMut() -> R) {
        // warm-up + calibration: one timed call sizes the batch
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let iters = ((0.2 / once) as u64).clamp(1, 10_000_000);
        let t1 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let total = t1.elapsed().as_secs_f64();
        self.table.row(&[
            group.to_string(),
            name.to_string(),
            iters.to_string(),
            format!("{total:.3} s"),
            fmt_per_iter(total / iters as f64),
        ]);
    }
}

fn fmt_per_iter(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

fn bench_netsim(h: &mut Harness) {
    let net = MachineNet::new(Topology::Torus3D { dims: [8, 8, 8] }, NetParams::default());
    let path: Vec<usize> = net.split_route(0, 137).full();
    let mut t = 0.0;
    h.bench("netsim", "price_1mb_transfer", || {
        t += 1.0;
        net.price(&path, MB, t)
    });
    let topo = net.topology().clone();
    let mut buf = Vec::new();
    let mut i = 0usize;
    h.bench("netsim", "route_torus3d_uncached", || {
        i = (i + 97) % 512;
        topo.route_into(i, (i * 31) % 512, &mut buf);
        buf.len()
    });
    // A warm shared-table lookup hands out a borrow of the memoized
    // route: two indexed acquire loads, no lock, no reference count.
    // Memoize the 64 pairs first so the row times warm lookups only.
    for j in 0..64 {
        net.split_route(j, (j + 1) % 64);
    }
    let mut j = 0usize;
    h.bench("netsim", "route_shared_table", || {
        j = (j + 1) % 64;
        net.split_route(j, (j + 1) % 64)
    });
}

fn bench_mpi(h: &mut Harness) {
    let net =
        Arc::new(MachineNet::new(Topology::Crossbar { procs: 4 }, NetParams::default()));
    h.bench("mpi", "sim_world_1000_sendrecv_x4procs", || {
        let net = Arc::clone(&net);
        World::sim(net).run(|comm| {
            let peer = comm.rank() ^ 1;
            let buf = [0u8; 64];
            let mut scratch = [0u8; 64];
            for _ in 0..1000 {
                comm.payload_sendrecv(peer, 1, &buf, Some(peer), Some(1), &mut scratch);
            }
            comm.now()
        })
    });
    h.bench("mpi", "allreduce_x8procs", || {
        World::real(8).run(|comm| {
            let mut acc = 0.0;
            for i in 0..50 {
                acc += comm.allreduce_scalar(i as f64, beff_mpi::ReduceOp::Max);
            }
            acc
        })
    });
}

fn bench_sync(h: &mut Harness) {
    h.bench("sync", "channel_bounded_1k_msgs_x2threads", || {
        let (tx, rx) = beff_sync::bounded::<u64>(64);
        // beff-analyze: allow(threading): cross-thread channel micro-bench needs a real second thread
        let producer = std::thread::spawn(move || {
            for i in 0..1000u64 {
                tx.send(i).expect("receiver alive");
            }
        });
        let mut sum = 0u64;
        while let Ok(v) = rx.recv() {
            sum += v;
        }
        producer.join().expect("producer clean");
        sum
    });
}

fn bench_pfs(h: &mut Harness) {
    h.bench("pfs", "stripe_split_1mb_64k", || stripe_split(12345, MB, 64 * KB, 8));
    h.bench("pfs", "write_pricing", || {
        let pfs = Pfs::new(PfsConfig::default());
        let (f, mut t) = pfs.open("bench", 0.0);
        for i in 0..100u64 {
            t = pfs.write(0, &f, i * 32 * KB, DataRef::Len(32 * KB), t);
        }
        t
    });
}

fn bench_mpiio(h: &mut Harness) {
    let view = FileView::Strided { disp: 4096, block: 1024, stride: 16 * 1024 };
    h.bench("mpiio", "view_map_range_1mb_1k_chunks", || view.map_range(0, MB));
}

fn bench_beff(h: &mut Harness) {
    let machine = t3e();
    let cfg = BeffConfig {
        schedule: MeasureSchedule { loop_start: 2, reps: 1, ..MeasureSchedule::quick() },
        ..BeffConfig::quick(machine.mem_per_proc).without_extras()
    };
    h.bench("beff", "beff_t3e_8procs_micro_schedule", || {
        let out = World::sim_partition(machine.network(), 8).run(|comm| run_beff(comm, &cfg));
        out[0].beff
    });
}

fn main() {
    let mut h = Harness::new();
    bench_netsim(&mut h);
    bench_mpi(&mut h);
    bench_sync(&mut h);
    bench_pfs(&mut h);
    bench_mpiio(&mut h);
    bench_beff(&mut h);
    println!("{}", h.table.render());
}

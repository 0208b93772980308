//! Layer probes of the traced run: timed calls into one layer's public
//! functions at the workload's own scale (its machines, rank counts,
//! pattern pairs and message-size ladders). Each probe is repeated and
//! reported as the median per call; on `serve_mix`, which runs several
//! shapes, as the median over the shapes of each shape's median. The
//! pfs and mpiio probes always run at the `beffio_t3e64` scale, the
//! only workload that does I/O.

use crate::report::Report;
use crate::serve_mix::MENU;
use crate::sim::{self, launch, BEFFIO_PROCS, BEFF_PROCS};
use crate::stats::median;
use crate::{Args, Host, Workload};
use beff_core::beff::{lmax, message_sizes, random_patterns, ring_patterns};
use beff_core::beffio::{all_patterns, mpart, PatternType};
use beff_machines::Machine;
use beff_mpi::World;
use beff_mpiio::FileView;
use beff_pfs::{DataRef, Pfs};
use std::hint::black_box;
use std::sync::Arc;

/// Repetitions of every probe; each metric is the median over them.
const REPS: usize = 7;
/// Calls per chunk size in one pass of the PFS probes.
const PFS_CALLS_PER_SIZE: usize = 64;
/// `map_range` calls per scatter pattern in one pass.
const MAP_RANGE_CALLS: usize = 64;

/// One machine shape a workload runs, with the message sizes its b_eff
/// runs send.
pub struct Shape {
    pub machine: Machine,
    pub procs: usize,
    /// Message sizes priced by the netsim probe, bytes.
    pub ladder: Vec<u64>,
}

impl Shape {
    fn new(machine: Machine, procs: usize) -> Self {
        let ladder = message_sizes(lmax(machine.mem_per_proc));
        Self {
            machine: machine.sized_for(procs),
            procs,
            ladder,
        }
    }
}

/// The shapes the probes run at for one workload: the T3E×512, the
/// T3E×64 with the b_eff_io chunk ladder, or every [`MENU`] shape of
/// `serve_mix`.
pub fn shapes(workload: Workload) -> Result<Vec<Shape>, String> {
    Ok(match workload {
        Workload::BeffT3e512 => vec![Shape::new(sim::t3e(), BEFF_PROCS)],
        Workload::BeffioT3e64 => {
            let machine = sim::t3e().sized_for(BEFFIO_PROCS);
            let ladder = beffio_ladder(&machine);
            vec![Shape {
                machine,
                procs: BEFFIO_PROCS,
                ladder,
            }]
        }
        Workload::ServeMix => MENU
            .iter()
            .map(|&(key, procs)| {
                beff_machines::by_key(key)
                    .map(|m| Shape::new(m, procs))
                    .ok_or_else(|| format!("no catalogue machine {key:?}"))
            })
            .collect::<Result<_, _>>()?,
    })
}

/// The distinct disk-chunk sizes of the b_eff_io pattern table
/// (wellformed and +8 B), ascending.
pub fn beffio_ladder(machine: &Machine) -> Vec<u64> {
    let mp = mpart(machine.mem_per_node);
    let mut v: Vec<u64> = all_patterns().iter().map(|p| p.l(mp)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// The metrics probed on every shape, in the order of a shape's row.
const SHAPE_METRICS: [(&str, &str); 6] = [
    ("machines.network_build_s", "s"),
    ("mpi.session_launch_s", "s"),
    ("mpi.barrier_ns_per_rank", "ns"),
    ("netsim.price_ns", "ns"),
    ("netsim.route_ns", "ns"),
    ("netsim.reset_us", "us"),
];

/// Run every probe and report its per-layer metric.
pub fn run(args: &Args, host: &Host, r: &mut Report) -> Result<(), String> {
    let shapes = shapes(args.workload)?;
    let pattern_seed = sim::beff_cfg(&sim::t3e(), args.seed).seed;
    let mut rows = Vec::with_capacity(shapes.len());
    for shape in &shapes {
        let (build, launch_s) = setup_probe(shape, host);
        let barrier = barrier_probe(shape, host)?;
        let (price, route, reset) = netsim_probes(shape, pattern_seed, host);
        rows.push([build, launch_s, barrier, price, route, reset]);
    }
    for (i, &(name, unit)) in SHAPE_METRICS.iter().enumerate() {
        let per_shape: Vec<f64> = rows.iter().map(|row| row[i]).collect();
        r.metric(name, med(&per_shape), unit);
    }
    let io = sim::t3e().sized_for(BEFFIO_PROCS);
    pfs_probes(&io, host, r)?;
    map_range_probe(&io, host, r);
    Ok(())
}

/// `machines.network_build_s` and `mpi.session_launch_s` of one shape.
fn setup_probe(shape: &Shape, host: &Host) -> (f64, f64) {
    let mut build = Vec::with_capacity(REPS);
    let mut launch_s = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (_, t) = launch(&shape.machine, shape.procs, host);
        build.push(t.build);
        launch_s.push(t.launch);
    }
    (med(&build), med(&launch_s))
}

/// `mpi.barrier_ns_per_rank`: a `Comm::barrier` loop on a resident
/// world of the shape's rank count.
fn barrier_probe(shape: &Shape, host: &Host) -> Result<f64, String> {
    let n = shape.procs;
    let iters = (51_200 / n).max(100);
    let net = shape.machine.network();
    let session = World::sim_partition(Arc::clone(&net), n).session();
    let mut per_rank = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        net.reset();
        let (out, secs) = host.time(|| {
            sim::catch(|| {
                session.run(move |c| {
                    for _ in 0..iters {
                        c.barrier();
                    }
                })
            })
        });
        out.map_err(|e| format!("barrier probe panicked: {e}"))?;
        per_rank.push(1e9 * secs / (iters * n) as f64);
    }
    Ok(med(&per_rank))
}

/// `netsim.price_ns`, `netsim.route_ns` and `netsim.reset_us` of one
/// shape: replay `MachineNet::split_route` and `MachineNet::price` over
/// its ring and random pattern pairs and its size ladder.
fn netsim_probes(shape: &Shape, pattern_seed: u64, host: &Host) -> (f64, f64, f64) {
    let n = shape.procs;
    let mut pairs = Vec::new();
    for p in ring_patterns(n)
        .into_iter()
        .chain(random_patterns(n, pattern_seed))
    {
        pairs.extend(
            p.neighbors
                .iter()
                .enumerate()
                .map(|(rank, &(_, right))| (rank, right)),
        );
    }
    let net = shape.machine.network();
    // First pass memoizes every route; the timed passes are the warm
    // lookups the simulated ranks make.
    let paths: Vec<Vec<usize>> = pairs
        .iter()
        .map(|&(s, d)| net.split_route(s, d).full())
        .collect();

    let (mut route, mut price, mut reset) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let ((), secs) = host.time(|| {
            for &(s, d) in &pairs {
                black_box(net.split_route(black_box(s), black_box(d)));
            }
        });
        route.push(1e9 * secs / pairs.len().max(1) as f64);

        let ((), secs) = host.time(|| {
            let mut t = 0.0;
            for path in &paths {
                for &len in &shape.ladder {
                    t = net.price(black_box(path), len, t).injected;
                }
            }
            black_box(t);
        });
        price.push(1e9 * secs / (paths.len() * shape.ladder.len()).max(1) as f64);

        let ((), secs) = host.time(|| net.reset());
        reset.push(1e6 * secs);
    }
    (med(&price), med(&route), med(&reset))
}

/// `pfs.write_ns` and `pfs.read_ns`: `Pfs::write` then `Pfs::read` on
/// the T3E's filesystem model at every b_eff_io chunk size (wellformed
/// and +8 B), sequential offsets, clients round-robin.
fn pfs_probes(machine: &Machine, host: &Host, r: &mut Report) -> Result<(), String> {
    let ladder = beffio_ladder(machine);
    let (mut write, mut read) = (Vec::new(), Vec::new());
    let calls = (ladder.len() * PFS_CALLS_PER_SIZE) as f64;
    for _ in 0..REPS {
        let cfg = machine
            .io
            .clone()
            .ok_or("the machine has no I/O model")?;
        let clients = cfg.clients.max(1);
        let pfs = Pfs::new(cfg);
        let (file, mut t) = pfs.open("probe", 0.0);
        let ((), secs) = host.time(|| {
            let mut offset = 0;
            for (i, &len) in ladder
                .iter()
                .cycle()
                .take(ladder.len() * PFS_CALLS_PER_SIZE)
                .enumerate()
            {
                t = pfs.write(i % clients, &file, offset, DataRef::Len(len), t);
                offset += len;
            }
        });
        write.push(1e9 * secs / calls);
        let ((), secs) = host.time(|| {
            let mut offset = 0;
            for (i, &len) in ladder
                .iter()
                .cycle()
                .take(ladder.len() * PFS_CALLS_PER_SIZE)
                .enumerate()
            {
                let (got, done) = pfs.read(i % clients, &file, offset, len, None, t);
                t = done;
                offset += got;
            }
        });
        read.push(1e9 * secs / calls);
        black_box(t);
    }
    r.metric("pfs.write_ns", med(&write), "ns");
    r.metric("pfs.read_ns", med(&read), "ns");
    Ok(())
}

/// `mpiio.map_range_ns`: `FileView::map_range` of the scatter type's
/// strided views (rank p sees chunks of l bytes at stride n·l) over one
/// call's bytes, for every scatter pattern, at the T3E×64.
fn map_range_probe(machine: &Machine, host: &Host, r: &mut Report) {
    let mp = mpart(machine.mem_per_node);
    let n = BEFFIO_PROCS as u64;
    let views: Vec<(FileView, u64)> = all_patterns()
        .iter()
        .filter(|p| p.ptype == PatternType::Scatter)
        .enumerate()
        .map(|(i, p)| {
            let l = p.l(mp);
            let rank = i as u64 % n;
            (
                FileView::Strided {
                    disp: rank * l,
                    block: l,
                    stride: n * l,
                },
                p.call_bytes(mp),
            )
        })
        .collect();
    let mut per_call = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let ((), secs) = host.time(|| {
            for (view, call) in &views {
                for k in 0..MAP_RANGE_CALLS as u64 {
                    black_box(view.map_range(black_box(k * call), *call));
                }
            }
        });
        per_call.push(1e9 * secs / (views.len() * MAP_RANGE_CALLS).max(1) as f64);
    }
    r.metric("mpiio.map_range_ns", med(&per_call), "ns");
}

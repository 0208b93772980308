//! Top-level b_eff_io driver: three access methods × five pattern
//! types, with segment computation between types 2 and 3 of the
//! initial write.

use super::access::{run_pattern_type, BeffIoConfig, Bufs, RunState};
use super::patterns::{all_patterns, mpart, PatternType, PATTERN_TYPES};
use super::result::{AccessMethod, BeffIoResult, MethodRun, ACCESS_METHODS};
use super::segment::compute_segment;
use beff_mpi::Comm;
use beff_mpiio::IoWorld;
use std::sync::Arc;

/// Run the effective I/O bandwidth benchmark on `comm` against the
/// storage behind `io`. Collective; all ranks return the same result.
pub fn run_beff_io(comm: &mut Comm, io: &Arc<IoWorld>, cfg: &BeffIoConfig) -> BeffIoResult {
    let mp = mpart(cfg.mem_per_node);
    let max_call = all_patterns().iter().map(|p| p.call_bytes(mp)).max().expect("patterns");
    let mut bufs = Bufs::for_run(comm.rank(), max_call, cfg.verify || comm.copies_payload());
    let mut selfc = comm
        .split(Some(comm.rank() as u32), 0)
        .expect("self communicator");
    let mut state = RunState::new();

    let mut methods = Vec::with_capacity(3);
    for method in ACCESS_METHODS {
        let mut types = Vec::with_capacity(5);
        for ptype in PATTERN_TYPES {
            if method == AccessMethod::InitialWrite && ptype == PatternType::Segmented {
                // the segmented types are size-driven: derive their
                // repetition factors from what types 0-2 just measured
                compute_segment(comm, &mut state, mp);
            }
            types.push(run_pattern_type(
                comm, &mut selfc, io, cfg, method, ptype, &mut state, &mut bufs,
            ));
        }
        methods.push(MethodRun { method, types });
    }

    BeffIoResult::assemble(comm.size(), cfg.t_sched, mp, state.segment, methods)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_mpi::World;
    use beff_mpiio::Hints;
    use beff_netsim::{MachineNet, NetParams, Topology, MB};
    use beff_pfs::{Pfs, PfsConfig};

    fn setup(n: usize, store: bool) -> (World, Arc<IoWorld>) {
        let net =
            Arc::new(MachineNet::new(Topology::Crossbar { procs: n }, NetParams::default()));
        let pfs = Arc::new(Pfs::new(PfsConfig {
            clients: n,
            store_data: store,
            ..PfsConfig::default()
        }));
        (World::sim(net).copy_data(store), IoWorld::sim(pfs))
    }

    fn tiny_cfg() -> BeffIoConfig {
        // tiny T so CI stays fast; mem 256 MB -> M_PART = 2 MB
        BeffIoConfig::quick(256 * MB).with_t(1.5)
    }

    #[test]
    fn beff_io_completes_and_is_positive() {
        let (w, io) = setup(4, false);
        let cfg = tiny_cfg();
        let rs = w.run(move |c| run_beff_io(c, &io, &cfg));
        let r = &rs[0];
        assert!(r.beff_io > 0.0, "b_eff_io = {}", r.beff_io);
        assert_eq!(r.methods.len(), 3);
        for m in &r.methods {
            assert_eq!(m.types.len(), 5);
            for t in &m.types {
                assert!(t.bytes > 0, "{:?}/{:?} moved no bytes", m.method, t.ptype);
                assert!(t.open_close_secs > 0.0);
                let expect = match t.ptype {
                    PatternType::Scatter | PatternType::Segmented | PatternType::SegColl => 9,
                    PatternType::Shared | PatternType::Separate => 8,
                };
                assert_eq!(t.patterns.len(), expect, "{:?}", t.ptype);
            }
        }
        // all ranks agree on the single number
        for other in &rs[1..] {
            assert!((other.beff_io - r.beff_io).abs() < 1e-9);
        }
    }

    #[test]
    fn beff_io_with_data_verification() {
        // store_data + copy_data + verify: every read checks the fill
        let (w, io) = setup(2, true);
        let cfg = tiny_cfg().with_verify();
        let rs = w.run(move |c| run_beff_io(c, &io, &cfg));
        assert!(rs[0].beff_io > 0.0);
    }

    #[test]
    fn forced_two_phase_slows_segmented_collective() {
        // the paper's Fig. 4 SP anomaly: a naive collective that always
        // exchanges makes type 4 much slower than type 3
        let run = |force: bool| -> (f64, f64) {
            let (w, io) = setup(4, false);
            let mut cfg = tiny_cfg();
            cfg.hints = Hints { force_two_phase: force, ..Hints::default() };
            let rs = w.run(move |c| run_beff_io(c, &io, &cfg));
            let m = &rs[0].methods[0]; // initial write
            (m.types[3].mbps(), m.types[4].mbps())
        };
        let (t3_opt, t4_opt) = run(false);
        let (_t3_naive, t4_naive) = run(true);
        // optimized: type 4 is in the same league as type 3
        assert!(t4_opt > 0.3 * t3_opt, "optimized t4={t4_opt} t3={t3_opt}");
        // naive forced exchange costs real bandwidth
        assert!(t4_naive < t4_opt, "naive={t4_naive} opt={t4_opt}");
    }

    #[test]
    fn geometric_termination_also_completes() {
        let (w, io) = setup(2, false);
        let mut cfg = tiny_cfg();
        cfg.termination = super::super::schedule::Termination::Geometric;
        let rs = w.run(move |c| run_beff_io(c, &io, &cfg));
        assert!(rs[0].beff_io > 0.0);
    }

    #[test]
    fn detail_table_lists_all_43_slots() {
        let (w, io) = setup(2, false);
        let cfg = tiny_cfg();
        let rs = w.run(move |c| run_beff_io(c, &io, &cfg));
        let table = rs[0].detail_table();
        for id in [0, 8, 9, 16, 17, 24, 25, 33, 34, 42] {
            assert!(table.contains(&format!("#{id:<2}")), "missing pattern {id}\n{table}");
        }
    }
}

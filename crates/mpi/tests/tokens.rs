//! Token-accounting property tests: every token the scheduler grants
//! is consumed on **every** exit path — normal completion, injected
//! typed fault, invariant (string) panic, detected deadlock — and a
//! world session survives a faulted run without residue.
//!
//! The runtime itself asserts `audit().balanced()` after every world
//! join, so the world-level tests here double as end-to-end proofs:
//! if any path leaked a token, the run under test would panic with
//! "token leak after world join".

use beff_faults::silence_fault_panics;
use beff_mpi::{BeffError, ReduceOp, SimScheduler, World};
use beff_netsim::{MachineNet, NetParams, Topology};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn net(procs: usize) -> Arc<MachineNet> {
    Arc::new(MachineNet::new(Topology::Ring { procs }, NetParams::default()))
}

// ---- thread-parking scheduler, driven directly -----------------------
//
// On x86_64 the world runtime always uses the fiber mechanism for sim
// runs, so the `Mech::Park` grant/consume paths are exercised here by
// scripting the rank protocol on real threads.

#[test]
fn park_scheduler_balances_on_normal_completion() {
    let s = SimScheduler::new(4);
    std::thread::scope(|scope| {
        for rank in 0..4 {
            let s = &s;
            scope.spawn(move || {
                s.wait_turn(rank);
                s.finish(rank);
            });
        }
    });
    let a = s.audit();
    assert!(a.balanced(), "{a:?}");
    assert_eq!(a.finished, 4);
    assert!(!a.deadlocked && !a.aborted);
}

#[test]
fn park_scheduler_balances_after_midrun_abort() {
    // Rank 1 "panics" (runs the run_rank unwind protocol: abort +
    // drain its own re-grant); everyone else completes.
    let s = SimScheduler::new(4);
    std::thread::scope(|scope| {
        for rank in 0..4 {
            let s = &s;
            scope.spawn(move || {
                s.wait_turn(rank);
                if rank == 1 {
                    s.abort();
                    s.drain_grant(rank);
                } else {
                    s.finish(rank);
                }
            });
        }
    });
    let a = s.audit();
    assert!(a.balanced(), "{a:?}");
    assert!(a.aborted);
}

#[test]
fn park_scheduler_balances_after_deadlock_detection() {
    // Every rank blocks and nobody ever unblocks anyone: the last
    // blocker trips the deadlock detector, every rank wakes into the
    // typed Deadlock raise, and the unwind protocol drains cleanly.
    silence_fault_panics();
    let n = 3;
    let s = SimScheduler::new(n);
    std::thread::scope(|scope| {
        for rank in 0..n {
            let s = &s;
            scope.spawn(move || {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    s.wait_turn(rank);
                    s.yield_blocked(rank);
                }));
                let payload = out.expect_err("deadlock must raise");
                assert_eq!(
                    payload.downcast_ref::<BeffError>(),
                    Some(&BeffError::Deadlock)
                );
                s.abort();
                s.drain_grant(rank);
            });
        }
    });
    let a = s.audit();
    assert!(a.balanced(), "{a:?}");
    assert!(a.deadlocked);
}

// ---- world level (fiber mechanism on x86_64) -------------------------

#[test]
fn typed_fault_on_one_rank_settles_to_its_root_cause() {
    silence_fault_panics();
    let w = World::sim_partition(net(4), 4);
    let err = w
        .try_run(|c| {
            if c.rank() == 2 {
                BeffError::Io("injected".into()).raise();
            }
            c.barrier();
        })
        .expect_err("rank 2 raised");
    // Peers die with the secondary PeerFailed; the settle rule must
    // surface the injected fault, not the cascade.
    assert_eq!(err, BeffError::Io("injected".into()));
}

#[test]
fn recv_cycle_is_reported_as_typed_deadlock() {
    silence_fault_panics();
    let w = World::sim_partition(net(2), 2);
    let err = w
        .try_run(|c| {
            // 0 waits for 1, 1 waits for 0, nobody sends: a genuine
            // deadlock the scheduler must detect, not hang on.
            let from = 1 - c.rank();
            let _ = c.recv_vec(Some(from), None);
        })
        .expect_err("deadlock");
    assert_eq!(err, BeffError::Deadlock);
}

#[test]
fn session_reuse_after_faulted_run_is_bitwise_clean() {
    silence_fault_panics();
    let network = net(4);
    let workload = |c: &mut beff_mpi::Comm| {
        let msg = vec![0u8; 4096];
        let (left, right) = ((c.rank() + 3) % 4, (c.rank() + 1) % 4);
        let _ = c.sendrecv(right, 7, &msg, Some(left), Some(7));
        let t = c.allreduce_scalar(c.now(), ReduceOp::Max);
        (t, c.now())
    };

    // Reference: a clean run on a fresh world over a fresh network.
    let clean = World::sim_partition(net(4), 4).run(workload);

    // Same workload on a session that just survived a faulted run.
    let session = World::sim_partition(Arc::clone(&network), 4).session();
    let err = session
        .try_run(|c| {
            if c.rank() == 1 {
                BeffError::RankCrashed { rank: 1, at: 0.0 }.raise();
            }
            c.barrier();
        })
        .expect_err("rank 1 raised");
    assert!(err.is_permanent());

    network.reset();
    let after_fault = session.run(workload);
    assert_eq!(
        format!("{clean:?}"),
        format!("{after_fault:?}"),
        "post-fault session run must be bit-identical to a fresh world"
    );
}

// ---- worker-count parity (batch worlds) -----------------------------
//
// Worker count is *unobservable*: batched worlds must produce
// byte-identical results at 1, 2, 4, and 8 workers, and every world
// join re-asserts the token audit, so this doubles as a
// token-accounting property test for the parallel batch path.

use beff_sim::Workers;

#[test]
fn run_batch_token_audits_balance_at_every_worker_count() {
    // Each job runs a full 4-rank world on its own machine replica;
    // every world join asserts a balanced token audit internally, and
    // the batched results must match the serial (1-worker) reference
    // byte for byte.
    let workload = |job: usize, c: &mut beff_mpi::Comm| {
        let msg = vec![job as u8; 1024 * (job + 1)];
        let (left, right) = ((c.rank() + 3) % 4, (c.rank() + 1) % 4);
        let _ = c.sendrecv(right, 9, &msg, Some(left), Some(9));
        let t = c.allreduce_scalar(c.now(), ReduceOp::Max);
        (t.to_bits(), c.now().to_bits())
    };
    let reference = World::sim_partition(net(4), 4)
        .with_workers(Workers::new(1))
        .run_batch(6, workload);
    for w in [2, 4, 8] {
        let batched = World::sim_partition(net(4), 4)
            .with_workers(Workers::new(w))
            .run_batch(6, workload);
        assert_eq!(
            format!("{reference:?}"),
            format!("{batched:?}"),
            "batch results at {w} workers must match the serial sweep"
        );
    }
}

#[test]
fn string_panics_still_propagate_as_panics() {
    silence_fault_panics();
    let w = World::sim_partition(net(2), 2);
    let out = catch_unwind(AssertUnwindSafe(|| {
        w.try_run(|c| {
            if c.rank() == 0 {
                panic!("invariant violation stays fatal");
            }
            c.barrier();
        })
    }));
    let payload = out.expect_err("string panic must not become a typed error");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
    assert!(msg.contains("invariant violation"), "got: {msg}");
}

//! The checkpoint/resume acceptance guarantee: a sweep interrupted at
//! *any* shard boundary and resumed — under a *different* worker/shard
//! split — produces bit-identical `GroupedStats` / `OnlineStats` state
//! to an uninterrupted run.
//!
//! The interrupt points are exhaustive: for every split in
//! workers ∈ {1, 2, 7} × shard sizes ∈ {1, 5, 64}, the sweep is halted
//! after every shard boundary the split produces, the checkpoint file
//! on disk is reloaded, and the run is finished by a session with a
//! different parallelism. Bit-identity is asserted two ways — structural
//! equality of the accumulators and equality of their exact JSON
//! snapshots.

use std::path::{Path, PathBuf};
use zen2_ee::prelude::*;
use zen2_sim::checkpoint::{run_resumable, CheckpointState};

/// A 3 × 4 grid of instantaneous power reads — cheap enough to run a
/// few hundred times, rich enough that every cell differs.
fn grid() -> Sweep {
    let mut base = Scenario::new();
    base.probe("ac", Probe::AcPowerW, Window::at(20_000));
    let mut load = Axis::new("busy_threads");
    for n in [1u32, 4, 9] {
        load = load.with(format!("{n}"), move |draft| {
            let mut at = draft.scenario.at(0);
            for t in 0..n {
                at = at.workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
            }
        });
    }
    Sweep::new("resume-grid", SimConfig::epyc_7502_2s())
        .scenario(base)
        .seed(0xC0FFEE)
        .axis(load)
        .axis(Axis::param("rep", (0..4).map(f64::from)))
}

/// The accumulator bundle of every checkpointed experiment module's
/// shape: a grouped reducer plus one overall accumulator.
struct GridState {
    grouped: GroupedStats<OnlineStats>,
    overall: OnlineStats,
}

impl CheckpointState for GridState {
    fn save_into(&self, checkpoint: &mut Checkpoint) {
        checkpoint.set_grouped("grid", &self.grouped);
        checkpoint.set_single("overall", &self.overall);
    }

    fn restore_from(&mut self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        self.grouped = checkpoint.grouped("grid", &self.grouped)?;
        self.overall = checkpoint.single("overall")?;
        Ok(())
    }

    fn fold(&mut self, index: usize, run: Run) {
        let watts = run.watts("ac");
        self.grouped.entry(index).push(watts);
        self.overall.push(watts);
    }
}

/// Runs the grid through the shared resumable driver, persisting at
/// each shard boundary per `spec`. Returns `None` when the run halted
/// early.
fn run_grid(
    sweep: &Sweep,
    session: &Session,
    spec: &CheckpointSpec,
) -> Option<(GroupedStats<OnlineStats>, OnlineStats)> {
    let mut state = GridState {
        grouped: GroupedStats::new(sweep, &["busy_threads"]),
        overall: OnlineStats::new(),
    };
    let done = run_resumable(sweep, vec![], session, spec, &mut state).expect("checkpoint I/O");
    done.then_some((state.grouped, state.overall))
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zen2-resume-equiv-{tag}-{}", std::process::id()))
}

fn assert_bit_identical(
    (grouped, overall): &(GroupedStats<OnlineStats>, OnlineStats),
    baseline: &(GroupedStats<OnlineStats>, OnlineStats),
    context: &str,
) {
    assert_eq!(grouped, &baseline.0, "{context}");
    assert_eq!(overall, &baseline.1, "{context}");
    // Bit-identity, not just comparison equality: the exact snapshots
    // (every f64 rendered with full round-trip precision) must match.
    assert_eq!(grouped.to_json_text(), baseline.0.to_json_text(), "{context}");
    assert_eq!(overall.to_json_text(), baseline.1.to_json_text(), "{context}");
}

#[test]
fn every_shard_boundary_resumes_bit_identically_across_splits() {
    let sweep = grid();
    let total = sweep.len();
    assert_eq!(total, 12);
    let baseline =
        run_grid(&sweep, &Session::new().workers(1).shard_size(1), &CheckpointSpec::none())
            .expect("uninterrupted run completes");

    for workers in [1usize, 2, 7] {
        for shard in [1usize, 5, 64] {
            let group = workers * shard;
            let boundaries = total.div_ceil(group);
            for halt_after in 1..=boundaries {
                let context = format!("workers {workers} shard {shard} halt {halt_after}");
                let path = tmp(&format!("{workers}-{shard}-{halt_after}"));
                let interrupt_spec =
                    CheckpointSpec { halt_after: Some(halt_after), ..CheckpointSpec::at(&path) };
                let first = run_grid(
                    &sweep,
                    &Session::new().workers(workers).shard_size(shard),
                    &interrupt_spec,
                );
                // Halting at the final boundary completes the grid; any
                // earlier boundary leaves it unfinished.
                assert_eq!(first.is_some(), halt_after * group >= total, "{context}");
                // Resume under a *different* split than the one that
                // wrote the checkpoint.
                let resumed = run_grid(
                    &sweep,
                    &Session::new().workers(3).shard_size(2),
                    &CheckpointSpec::resume_from(&path),
                )
                .expect("resumed run completes");
                std::fs::remove_file(&path).unwrap();
                assert_bit_identical(&resumed, &baseline, &context);
            }
        }
    }
}

#[test]
fn a_checkpoint_survives_two_interruptions() {
    // Interrupt, resume, interrupt the resumed run, resume again: the
    // double-resumed result is still bit-identical.
    let sweep = grid();
    let path = tmp("double");
    let spec =
        |halt| CheckpointSpec { halt_after: halt, resume: true, ..CheckpointSpec::at(&path) };
    let baseline =
        run_grid(&sweep, &Session::new().workers(2).shard_size(3), &CheckpointSpec::none())
            .expect("uninterrupted run completes");
    assert!(run_grid(&sweep, &Session::new().workers(1).shard_size(3), &spec(Some(1))).is_none());
    assert!(run_grid(&sweep, &Session::new().workers(2).shard_size(2), &spec(Some(1))).is_none());
    let resumed = run_grid(&sweep, &Session::new().workers(7).shard_size(64), &spec(None))
        .expect("final resume completes");
    std::fs::remove_file(&path).unwrap();
    assert_bit_identical(&resumed, &baseline, "double interruption");
}

#[test]
fn resume_from_a_mismatched_sweep_is_an_error_not_a_panic() {
    let sweep = grid();
    let path = tmp("mismatch");
    let interrupted = run_grid(
        &sweep,
        &Session::new().workers(1).shard_size(5),
        &CheckpointSpec { halt_after: Some(1), ..CheckpointSpec::at(&path) },
    );
    assert!(interrupted.is_none());
    // A sweep with a different grid shape must be rejected up front.
    let reshaped = Sweep::new("resume-grid", SimConfig::epyc_7502_2s())
        .seed(0xC0FFEE)
        .axis(Axis::param("rep", (0..5).map(f64::from)));
    let err = CheckpointSpec::resume_from(&path).load(&reshaped, reshaped.len()).unwrap_err();
    assert!(err.to_string().contains("grid shape"), "{err}");
    // And a rewritten label too.
    let relabeled = grid();
    let relabeled = Sweep::new("other-grid", SimConfig::epyc_7502_2s())
        .seed(0xC0FFEE)
        .axis(relabeled.axes()[0].clone())
        .axis(relabeled.axes()[1].clone());
    let err = CheckpointSpec::resume_from(&path).load(&relabeled, relabeled.len()).unwrap_err();
    assert!(err.to_string().contains("other-grid"), "{err}");
    std::fs::remove_file(Path::new(&path)).unwrap();
}

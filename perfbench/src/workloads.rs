//! The four batch workloads. Each mainly loads one layer:
//!
//! * `dvfs-trace` — Fig. 3's configuration: one case of 2 500 down/up
//!   request pairs, a freq-event trace probe (scenario ops, SMU slots,
//!   trace recording, stepping with one busy thread);
//! * `idle-staircase` — Fig. 7's paper grid through the experiment
//!   module's checkpointed runner: 513 cases of 0.25 s each (1 ms slot
//!   stepping with 1–128 threads awake, the worker pool, checkpoint
//!   writes);
//! * `micro-grid` — the 20 µs throughput grid streamed with a grouped
//!   fold (fork, a few ops and about one slot per case: the engine);
//! * `checkpoint-fleet` — the same grid with one grouped row per case,
//!   run as `--shard-range`-style slices at the default shard cadence,
//!   then loaded and merged (the checkpoint layer's write and read
//!   paths).
//!
//! Each workload is sized so that one repetition takes 0.2–2 s of CPU
//! time, and a run repeats it ten times or more. The benchmark reports
//! the fastest repetition, and on a shared host the share of short
//! repetitions that the other guests leave alone is far steadier than
//! the time of a long one: at the paper's 10^5 pairs and 10 s per
//! case, dvfs-trace and idle-staircase took 6–14 s in one piece, and
//! ten runs of dvfs-trace and micro-grid (then 32 768 cases) spread by
//! about 0.2 of their median, against 0.04–0.1 at these sizes.

use std::cell::Cell;
use std::path::{Path, PathBuf};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use zen2_experiments::methodology_bridge::detection_noise_ns;
use zen2_experiments::{fig03_transition as fig03, fig07_idle_power as fig07, seeds, Scale};
use zen2_isa::{KernelClass, OperandWeight};
use zen2_sim::checkpoint::{run_resumable, CheckpointState};
use zen2_sim::time::{Ns, MICROSECOND};
use zen2_sim::trace::Event;
use zen2_sim::{
    Axis, Case, Checkpoint, CheckpointError, CheckpointSpec, GroupedStats, OnlineStats, Probe, Run,
    Scenario, Session, ShardRange, SimConfig, Sweep, System, Window,
};
use zen2_topology::ThreadId;

use crate::layers::{time, Samples, MS, US};
use crate::report::Digest;

/// Cases in the micro-grid workload (8 load levels × 1024 reps).
pub const MICRO_CASES: usize = 8_192;
/// Cases in the checkpoint-fleet grid. Every save re-serialises every
/// row folded so far, so checkpointing grows with the square of this;
/// at this size saving still takes most of the workload's time.
pub const FLEET_CASES: usize = 2_048;
/// `--shard-range`-style slices checkpoint-fleet runs and merges.
pub const FLEET_SLICES: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3 transition delays.
    DvfsTrace,
    /// Fig. 7 idle staircase on the paper grid, checkpointed.
    IdleStaircase,
    /// The 20 µs throughput grid, streamed.
    MicroGrid,
    /// The throughput grid as checkpointed slices, loaded and merged.
    CheckpointFleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::DvfsTrace,
        Workload::IdleStaircase,
        Workload::MicroGrid,
        Workload::CheckpointFleet,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DvfsTrace => "dvfs-trace",
            Workload::IdleStaircase => "idle-staircase",
            Workload::MicroGrid => "micro-grid",
            Workload::CheckpointFleet => "checkpoint-fleet",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the corresponding experiment bin uses.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::DvfsTrace => 0xF163,
            Workload::IdleStaircase => 0xF167,
            Workload::MicroGrid | Workload::CheckpointFleet => 1,
        }
    }
}

/// What building and validating a workload's inputs found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inputs {
    /// Cases one run executes.
    pub cases: u64,
    /// Scenario ops over all cases.
    pub ops: u64,
    /// Probe windows over all cases.
    pub probes: u64,
    /// Simulated seconds over all cases.
    pub sim_s: f64,
}

impl Inputs {
    fn add(&mut self, scenario: &Scenario) {
        self.cases += 1;
        self.ops += scenario.steps().len() as u64;
        self.probes += scenario.probes().len() as u64;
        self.sim_s += scenario.end() as f64 / 1e9;
    }
}

/// The sessions' per-worker shard size (the engine's default, set
/// explicitly so that [`setup`] derives the same first group the engine
/// pulls).
pub const SHARD_SIZE: usize = 16;

/// What [`setup`] built, dropped by the caller once the clock stopped.
pub struct Prepared {
    _cases: Vec<Case>,
    _reducer: Option<GroupedStats<OnlineStats>>,
    _prototype: Option<System>,
}

/// Set-up as the program does it before the workload's first case
/// runs: builds the scenario or sweep and the grouped reducer, derives
/// and validates the first shard group (`workers × SHARD_SIZE` cases),
/// and boots the prototype that group forks from. dvfs-trace's single
/// case gets no prototype: the engine boots a configuration used once
/// inside the case itself.
pub fn setup(w: Workload, seed: u64, workers: usize) -> Result<Prepared, String> {
    if w == Workload::DvfsTrace {
        let case = dvfs_case(seed);
        validate(&case, None)?;
        return Ok(Prepared { _cases: vec![case], _reducer: None, _prototype: None });
    }
    let sweep = sweep(w, seed);
    let reducer = reducer(w, &sweep);
    let cases: Vec<Case> = sweep.take_range(0, workers * SHARD_SIZE).collect();
    for case in &cases {
        validate(case, None)?;
    }
    let prototype = (cases.len() > 1).then(|| System::new(cases[0].config.clone(), 0));
    Ok(Prepared { _cases: cases, _reducer: Some(reducer), _prototype: prototype })
}

/// The grouped reducer a sweep workload folds into, keyed as its
/// experiment keys it (idle-staircase's is private to the Fig. 7
/// module, which groups by kind and thread count).
fn reducer(w: Workload, sweep: &Sweep) -> GroupedStats<OnlineStats> {
    let by: &[&str] = match w {
        Workload::IdleStaircase => &["kind", "threads"],
        Workload::MicroGrid => &["busy_threads"],
        _ => &["busy_threads", "rep"],
    };
    GroupedStats::new(sweep, by)
}

/// The grid a sweep workload runs (dvfs-trace has none).
fn sweep(w: Workload, seed: u64) -> Sweep {
    match w {
        Workload::IdleStaircase => fig07::sweep(&idle_config(), seed),
        Workload::MicroGrid => grid(MICRO_CASES, seed),
        _ => grid(FLEET_CASES, seed),
    }
}

/// Derives and validates every case of the workload, counting what one
/// run executes. With `samples`, the build, each case's derivation and
/// validation, and a prototype boot are timed.
pub fn inputs(w: Workload, seed: u64, mut samples: Option<&mut Samples>) -> Result<Inputs, String> {
    let mut inputs = Inputs::default();
    if w == Workload::DvfsTrace {
        let case = time(samples.as_deref_mut(), "scenario.build_ms", MS, || dvfs_case(seed));
        validate(&case, samples.as_deref_mut())?;
        inputs.add(&case.scenario);
    } else {
        let sweep = time(samples.as_deref_mut(), "scenario.build_ms", MS, || sweep(w, seed));
        for i in 0..sweep.len() {
            let case = time(samples.as_deref_mut(), "sweep.case_us", US, || sweep.case(i));
            validate(&case, samples.as_deref_mut())?;
            inputs.add(&case.scenario);
        }
        if w == Workload::IdleStaircase {
            // The all-C2 baseline rider: its scenario is private to
            // the Fig. 7 module, it holds no ops and shares the
            // grid's one probe window.
            let first = sweep.case(0).scenario;
            inputs.cases += 1;
            inputs.probes += 1;
            inputs.sim_s += first.end() as f64 / 1e9;
        }
    }
    time(samples, "system.boot_us", US, || System::new(SimConfig::epyc_7502_2s(), 0));
    Ok(inputs)
}

fn validate(case: &Case, samples: Option<&mut Samples>) -> Result<(), String> {
    time(samples, "scenario.validate_ms", MS, || case.scenario.validate(&case.config))
        .map_err(|e| format!("{}: {e}", case.label))
}

/// A paper value and how close the workload's measurement must land.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// What is compared.
    pub name: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// The measured value.
    pub measured: f64,
    /// The allowed absolute deviation (the paper-headline tests').
    pub tolerance: f64,
}

impl Headline {
    /// |measured − paper| / paper, in percent.
    pub fn err_pct(&self) -> f64 {
        (self.measured - self.paper).abs() / self.paper * 100.0
    }

    /// Whether the measurement is within tolerance.
    pub fn holds(&self) -> bool {
        (self.measured - self.paper).abs() < self.tolerance
    }
}

/// One complete run of a workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Digest of the workload's full result.
    pub digest: u64,
    /// Operations attempted: cases, checkpoint saves, loads and merges.
    pub ops: u64,
    /// Trace records the run's probes returned.
    pub trace_records: u64,
    /// Paper comparisons (dvfs-trace and idle-staircase).
    pub headlines: Vec<Headline>,
    /// Checkpoint saves (counted where the benchmark owns the state).
    pub saves: u64,
    /// Bytes of the checkpoint file(s) the run ends with.
    pub checkpoint_bytes: u64,
    /// Host time of each `Checkpoint::load`, ms.
    pub load_ms: Vec<f64>,
    /// Host time of each `Checkpoint::merge`, ms.
    pub merge_ms: Vec<f64>,
}

/// Runs the workload once on `session`, writing checkpoints under
/// `dir`. Session and checkpoint errors come back as `Err`.
pub fn run(w: Workload, seed: u64, session: &Session, dir: &Path) -> Result<Outcome, String> {
    match w {
        Workload::DvfsTrace => run_dvfs(seed, session),
        Workload::IdleStaircase => run_idle(seed, session, dir),
        Workload::MicroGrid => run_micro(seed, session),
        Workload::CheckpointFleet => run_fleet(seed, session, dir),
    }
}

// ---- dvfs-trace ---------------------------------------------------------

/// Down/up request pairs in dvfs-trace's case (the paper's is 10^5;
/// see the module documentation). The Fig. 3 mean of 2 500 delays,
/// uniform over 1 ms, has a standard error near 6 µs, well inside the
/// 30 µs tolerance.
pub const DVFS_PAIRS: usize = 2_500;

/// The paper's Fig. 3 configuration at [`DVFS_PAIRS`] pairs.
fn dvfs_config() -> fig03::Config {
    fig03::Config { samples: DVFS_PAIRS, ..fig03::Config::fig3(Scale::Paper) }
}

/// The Fig. 3 case exactly as `fig03_transition::run` builds it.
fn dvfs_case(seed: u64) -> Case {
    let cfg = dvfs_config();
    Case::new(
        "fig03",
        SimConfig::epyc_7502_2s(),
        fig03::scenario(&cfg, seed),
        seeds::child(seed, 0),
    )
}

/// The settle phase `fig03_transition` spends before its first sample.
const FIG03_SETTLE_NS: Ns = 20_000_000;

/// Down- and up-switch delays (µs) recovered from the freq-event trace,
/// with the same pairing and detection noise as
/// `fig03_transition::run` (whose reduction is private).
fn fig03_delays(cfg: &fig03::Config, seed: u64, run: &Run) -> (Vec<f64>, Vec<f64>) {
    let mut noise = ChaCha8Rng::seed_from_u64(seeds::child(seed, 2));
    let (mut down, mut up) = (Vec::new(), Vec::new());
    let mut pending: Option<(Ns, u32)> = None;
    for record in run.events("freq_events") {
        match record.event {
            Event::FreqRequested { target_mhz, .. }
                if pending.map(|(_, mhz)| mhz) != Some(target_mhz) =>
            {
                pending = Some((record.at_ns, target_mhz));
            }
            Event::FreqApplied { mhz, .. } => {
                let Some((requested_at, target)) = pending.take() else { continue };
                if mhz != target || requested_at < FIG03_SETTLE_NS {
                    continue;
                }
                let delay_us =
                    ((record.at_ns - requested_at) as f64 + detection_noise_ns(&mut noise)) / 1e3;
                if target == cfg.to_mhz {
                    down.push(delay_us);
                } else {
                    up.push(delay_us);
                }
            }
            _ => {}
        }
    }
    (down, up)
}

fn run_dvfs(seed: u64, session: &Session) -> Result<Outcome, String> {
    let cfg = dvfs_config();
    let case = dvfs_case(seed);
    let runs = session.run(std::slice::from_ref(&case)).map_err(|e| format!("{e:?}"))?;
    let run = &runs[0];
    let (down, up) = fig03_delays(&cfg, seed, run);
    if down.len() != cfg.samples || up.len() != cfg.samples {
        return Err(format!(
            "{} down and {} up delays recovered for {} request pairs",
            down.len(),
            up.len(),
            cfg.samples
        ));
    }
    let mut digest = Digest::default();
    for d in down.iter().chain(&up) {
        digest.f64(*d);
    }
    let down_mean = down.iter().sum::<f64>() / down.len() as f64;
    Ok(Outcome {
        digest: digest.value(),
        ops: 1,
        trace_records: run.events("freq_events").len() as u64,
        headlines: vec![Headline {
            name: "fig03 down mean [us]",
            paper: 890.0,
            measured: down_mean,
            tolerance: 30.0,
        }],
        ..Outcome::default()
    })
}

// ---- idle-staircase -----------------------------------------------------

/// Seconds of AC power measured per idle-staircase case (the paper
/// measures 10 s; see the module documentation). The Fig. 7 headlines
/// move by under 0.05 W between 0.25 s and 10 s.
pub const IDLE_WINDOW_S: f64 = 0.25;

/// The paper's Fig. 7 grid at [`IDLE_WINDOW_S`] per case.
fn idle_config() -> fig07::Config {
    fig07::Config { duration_s: IDLE_WINDOW_S, ..fig07::Config::new(Scale::Paper) }
}

fn run_idle(seed: u64, session: &Session, dir: &Path) -> Result<Outcome, String> {
    let path = dir.join("idle-staircase.ckpt");
    let cfg = idle_config();
    let result = fig07::run_checkpointed(&cfg, seed, session, &CheckpointSpec::at(&path))
        .map_err(|e| e.to_string())?
        .ok_or("fig07 halted without a halt configured")?;
    let t = zen2_obs::clock::now_ns();
    let checkpoint = Checkpoint::load(&path).map_err(|e| e.to_string())?;
    let load_ms = zen2_obs::clock::secs_since(t) * 1e3;
    if !checkpoint.is_complete() {
        return Err(format!("final checkpoint covers only {:?}", checkpoint.covered()));
    }
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut digest = Digest::default();
    digest.f64(result.baseline_w);
    for curve in &result.curves {
        for w in &curve.ac_w {
            digest.f64(*w);
        }
    }
    digest.bytes(&bytes);
    let (first, slope) = fig07::c1_staircase(&result);
    let cases = (cfg.thread_counts.len() * (1 + cfg.freqs_mhz.len()) + 1) as u64;
    Ok(Outcome {
        digest: digest.value(),
        ops: cases + 1,
        headlines: vec![
            Headline {
                name: "fig07 all-C2 baseline [W]",
                paper: fig07::paper::ALL_C2_W,
                measured: result.baseline_w,
                tolerance: 1.5,
            },
            Headline {
                name: "fig07 first C1 core [W]",
                paper: fig07::paper::FIRST_C1_W,
                measured: first,
                tolerance: 2.0,
            },
            Headline {
                name: "fig07 per C1 core [W]",
                paper: fig07::paper::PER_C1_CORE_W,
                measured: slope,
                tolerance: 0.02,
            },
        ],
        checkpoint_bytes: bytes.len() as u64,
        load_ms: vec![load_ms],
        ..Outcome::default()
    })
}

// ---- micro-grid ---------------------------------------------------------

/// The 20 µs throughput grid of `bench_trajectory`: eight busy-thread
/// load levels × repetitions, one instantaneous AC power read per case.
pub fn grid(cases: usize, seed: u64) -> Sweep {
    let levels = 8usize;
    let mut base = Scenario::new();
    base.probe("ac", Probe::AcPowerW, Window::at(20 * MICROSECOND));
    let mut load = Axis::new("busy_threads");
    for n in 1..=levels as u32 {
        load = load.with(format!("{n}"), move |draft| {
            let mut at = draft.scenario.at(0);
            for t in 0..n {
                at = at.workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
            }
        });
    }
    Sweep::new("bench", SimConfig::epyc_7502_2s())
        .scenario(base)
        .seed(seed)
        .axis(load)
        .axis(Axis::param("rep", (0..cases / levels).map(|r| r as f64)))
}

/// Digest of a grouped reducer's rows.
fn rows_digest(grouped: &GroupedStats<OnlineStats>) -> Digest {
    let mut digest = Digest::default();
    for (key, stats) in grouped.rows() {
        for label in key {
            digest.bytes(label.as_bytes());
        }
        digest.u64(stats.count());
        for x in [stats.mean(), stats.std_dev(), stats.min(), stats.max(), stats.p50()] {
            digest.f64(x);
        }
    }
    digest
}

fn run_micro(seed: u64, session: &Session) -> Result<Outcome, String> {
    let sweep = grid(MICRO_CASES, seed);
    let mut grouped = reducer(Workload::MicroGrid, &sweep);
    let mut windows = 0u64;
    let n = session
        .run_streaming(sweep.cases(), |i, run| {
            windows += run.measurements.len() as u64;
            grouped.entry(i).push(run.watts("ac"));
        })
        .map_err(|e| format!("{e:?}"))?;
    if n != sweep.len() || windows != n as u64 {
        return Err(format!("{n} of {} cases delivered, {windows} probe windows", sweep.len()));
    }
    Ok(Outcome { digest: rows_digest(&grouped).value(), ops: n as u64, ..Outcome::default() })
}

// ---- checkpoint-fleet ---------------------------------------------------

/// The fleet grid's accumulator: one grouped row per case (grouped by
/// every axis, as the experiment modules' per-cell reducers are), and a
/// count of the saves `run_resumable` asked for.
struct FleetState {
    grouped: GroupedStats<OnlineStats>,
    saves: Cell<u64>,
}

impl CheckpointState for FleetState {
    fn save_into(&self, checkpoint: &mut Checkpoint) {
        self.saves.set(self.saves.get() + 1);
        checkpoint.set_grouped("ac", &self.grouped);
    }
    fn restore_from(&mut self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        self.grouped = checkpoint.grouped("ac", &self.grouped)?;
        Ok(())
    }
    fn fold(&mut self, index: usize, run: Run) {
        self.grouped.entry(index).push(run.watts("ac"));
    }
}

/// Streams `range` of the fleet grid (the whole grid for `None`) to a
/// checkpoint at `path`; returns the saves made.
fn fleet_pass(
    sweep: &Sweep,
    session: &Session,
    path: &Path,
    shard: Option<ShardRange>,
) -> Result<u64, String> {
    let mut state =
        FleetState { grouped: reducer(Workload::CheckpointFleet, sweep), saves: Cell::new(0) };
    let spec = CheckpointSpec { shard, ..CheckpointSpec::at(path) };
    run_resumable(sweep, vec![], session, &spec, &mut state).map_err(|e| e.to_string())?;
    Ok(state.saves.get())
}

fn slice_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("fleet-slice{i}.ckpt"))
}

/// Runs the slices one after another, then loads, merges and saves
/// them; the digest is that of the merged file's bytes.
fn run_fleet(seed: u64, session: &Session, dir: &Path) -> Result<Outcome, String> {
    let sweep = grid(FLEET_CASES, seed);
    let mut out = Outcome::default();
    for i in 0..FLEET_SLICES {
        let shard = ShardRange { index: i, of: FLEET_SLICES };
        out.saves += fleet_pass(&sweep, session, &slice_path(dir, i), Some(shard))?;
    }
    let mut merged: Option<Checkpoint> = None;
    for i in 0..FLEET_SLICES {
        let path = slice_path(dir, i);
        let t = zen2_obs::clock::now_ns();
        let slice = Checkpoint::load(&path).map_err(|e| e.to_string())?;
        out.load_ms.push(zen2_obs::clock::secs_since(t) * 1e3);
        match merged.as_mut() {
            None => merged = Some(slice),
            Some(m) => {
                let t = zen2_obs::clock::now_ns();
                m.merge(&slice).map_err(|e| e.to_string())?;
                out.merge_ms.push(zen2_obs::clock::secs_since(t) * 1e3);
            }
        }
    }
    let merged = merged.ok_or("no slices")?;
    if !merged.is_complete() {
        return Err(format!("merged slices cover only {:?}", merged.covered()));
    }
    let merged_path = dir.join("fleet-merged.ckpt");
    merged.save(&merged_path).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&merged_path)
        .map_err(|e| format!("reading {}: {e}", merged_path.display()))?;
    let mut digest = Digest::default();
    digest.bytes(&bytes);
    out.digest = digest.value();
    out.checkpoint_bytes = bytes.len() as u64;
    // Cases, saves, one load per slice, the merges and the merged save.
    out.ops = FLEET_CASES as u64 + out.saves + 2 * FLEET_SLICES as u64;
    Ok(out)
}

/// The reference for checkpoint-fleet's output check: the whole grid
/// streamed to one single-pass checkpoint, whose bytes the merged
/// slices must reproduce. Returns the digest of those bytes and the
/// operations attempted (cases and saves).
pub fn fleet_single_pass(seed: u64, session: &Session, dir: &Path) -> Result<(u64, u64), String> {
    let sweep = grid(FLEET_CASES, seed);
    let path = dir.join("fleet-single.ckpt");
    let saves = fleet_pass(&sweep, session, &path, None)?;
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut digest = Digest::default();
    digest.bytes(&bytes);
    Ok((digest.value(), FLEET_CASES as u64 + saves))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_reduction_matches_the_experiment_module() {
        let cfg = fig03::Config { samples: 300, ..fig03::Config::fig3(Scale::Quick) };
        let seed = 0xF163;
        let expected = fig03::run(&cfg, seed);
        let case = Case::new(
            "fig03",
            SimConfig::epyc_7502_2s(),
            fig03::scenario(&cfg, seed),
            seeds::child(seed, 0),
        );
        let runs = Session::new().workers(1).run(std::slice::from_ref(&case)).unwrap();
        let (down, up) = fig03_delays(&cfg, seed, &runs[0]);
        assert_eq!(down, expected.down.delays_us);
        assert_eq!(up, expected.up.delays_us);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::report::valid_name(w.name()));
        }
        assert_eq!(Workload::from_name("all"), None);
    }
}

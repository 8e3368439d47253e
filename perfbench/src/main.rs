//! zen2-perfbench: the simulator's benchmark, end to end and per layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dvfs-trace|idle-staircase|micro-grid|checkpoint-fleet> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Run from the repository root. Each run is a closed loop: it submits
//! the whole workload, waits for the result, and repeats until
//! `--seconds` of measurement have passed (at least once). Everything
//! runs in this process on one `Session` of `min(nproc, 2)` workers.
//!
//! `--trace 0` reports the end-to-end metrics, whose times are process
//! CPU time (wall time is printed beside them); `--trace 1` alternates
//! untraced runs with runs that have a span recorder attached, and
//! times the layers' public calls, reporting the per-layer metrics.
//! Both run the correctness gate: stable digests (across repetitions,
//! across runs of the same build with the same seed, and with 1 worker
//! in traced runs), the paper tolerances, and checkpoint-fleet's byte
//! identity with a single pass. The last line of standard output is one
//! JSON object; the exit code is non-zero when any operation or check
//! failed.
//! See `perfbench/README.md` for the workloads and metrics.

mod cpu;
mod layers;
mod report;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use zen2_obs::clock;
use zen2_sim::obs::{SPAN_CASE, SPAN_CHECKPOINT, SPAN_FORK, SPAN_SIM};
use zen2_sim::Session;

use layers::{Samples, SpanRecorder};
use report::{result_line, Digest, Metric, Summary};
use workloads::{Inputs, Outcome, Workload, SHARD_SIZE};

const USAGE: &str = "usage: zen2-perfbench --workload \
    <dvfs-trace|idle-staircase|micro-grid|checkpoint-fleet> [--seed <n>] [--seconds <s>] \
    [--trace <0|1>]";

/// Set-up passes in a batch, at least.
const SETUP_REPS: usize = 15;
/// Wall time a batch of set-up passes repeats for, at least (a pass
/// takes about a millisecond).
const SETUP_SECONDS: f64 = 0.2;
/// Wall time between the starts of two batches, at least. An untraced
/// run makes one batch before its first repetition and more between
/// repetitions, so that the batches sample the whole run, as the
/// repetitions do; `setup_s` is the median pass of the fastest batch.
const SETUP_EVERY_SECONDS: f64 = 2.0;

/// The benchmark's working directory, relative to where it runs:
/// checkpoint files of the current run, and the digests earlier runs
/// of the same build recorded per workload and seed.
const STATE_DIR: &str = ".perfbench";

/// The end-to-end metrics, in report order, with their units. The
/// times are process CPU time (see [`cpu`]): on a shared host the wall
/// time moves with the hypervisor's steal time. `wall_s`,
/// `sim_s_per_host_s`, `paper_err_pct` and `failed_ratio` are
/// end-to-end results too, but they are reported with the per-layer
/// metrics, which carry no bound: wall time moves with the host's
/// load, the Fig. 3 error moves with the seed (a 2 500-sample mean),
/// `failed_ratio` is 0 on a correct run, and the tolerances and the
/// exit code gate the last two.
const END_TO_END: [(&str, &str); 4] =
    [("cpu_s", "s"), ("sim_s_per_cpu_s", "s/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer timings: base name and unit. Each is reported as
/// `<name>.p50`, `<name>.tail` and `<name>.n`.
const TIMINGS: [(&str, &str); 17] = [
    ("system.op_us.pstate", "us"),
    ("system.op_us.workload", "us"),
    ("system.step_us.b1", "us"),
    ("system.step_us.b32", "us"),
    ("system.step_us.b128", "us"),
    ("system.fork_us", "us"),
    ("msr.clone_us", "us"),
    ("system.boot_us", "us"),
    ("scenario.build_ms", "ms"),
    ("scenario.validate_ms", "ms"),
    ("sweep.case_us", "us"),
    ("session.sim_us", "us"),
    ("session.fork_us", "us"),
    ("stats.fold_ns", "ns"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.merge_ms", "ms"),
];

/// Per-layer counts and ratios, after the timings; `failed_ratio`
/// comes last because it is known only once the gate has run.
const LAYER_EXTRAS: [(&str, &str); 19] = [
    ("wall_s", "s"),
    ("sim_s_per_host_s", "s/s"),
    ("checkpoint.save_ms.max", "ms"),
    ("cases", "count"),
    ("sim_s", "s"),
    ("scenario.ops", "count"),
    ("trace.records", "count"),
    ("probe.windows", "count"),
    ("checkpoint.saves", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.save_frac", "fraction"),
    ("session.busy_frac", "fraction"),
    ("session.idle_ms", "ms"),
    ("session.sim_frac", "fraction"),
    ("session.sim_us_per_ms", "us/ms"),
    ("session.workers", "count"),
    ("obs.overhead_pct", "%"),
    ("paper_err_pct", "%"),
    ("failed_ratio", "fraction"),
];

/// Every per-layer metric name with its unit, in report order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for (base, unit) in TIMINGS {
        names.push((format!("{base}.p50"), unit));
        names.push((format!("{base}.tail"), unit));
        names.push((format!("{base}.n"), "count"));
    }
    names.extend(LAYER_EXTRAS.iter().map(|&(name, unit)| (name.to_string(), unit)));
    names
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed: seed.unwrap_or(workload.default_seed()), seconds, trace })
}

/// Facts about the host and build printed with every result.
struct Host {
    nproc: usize,
    workers: usize,
    profile: &'static str,
    rustc: &'static str,
    git: String,
}

impl Host {
    fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            nproc,
            workers: nproc.min(2),
            profile: env!("PERFBENCH_PROFILE"),
            rustc: env!("PERFBENCH_RUSTC"),
            git: git_revision().unwrap_or_else(|| "none (not a git checkout)".into()),
        }
    }
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Attempted and failed operations, and why each failure happened.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records one workload run: its operations, or one failed
    /// operation when it errored.
    fn run(&mut self, what: &str, result: Result<Outcome, String>) -> Option<Outcome> {
        match result {
            Ok(outcome) => {
                self.attempted += outcome.ops;
                Some(outcome)
            }
            Err(e) => {
                self.attempted += 1;
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Every digest must equal the first, and the one an earlier run
    /// recorded for this workload and seed. For checkpoint-fleet the
    /// single-pass checkpoint joins the comparison.
    fn digests(
        &mut self,
        w: Workload,
        seed: u64,
        session: &Session,
        dir: &Path,
        mut digests: Vec<(&str, u64)>,
    ) {
        if w == Workload::CheckpointFleet {
            match workloads::fleet_single_pass(seed, session, dir) {
                Ok((digest, ops)) => {
                    self.attempted += ops;
                    digests.push(("single-pass checkpoint", digest));
                }
                Err(e) => {
                    self.attempted += 1;
                    self.fail(format!("single pass: {e}"));
                }
            }
        }
        let Some(&(_, first)) = digests.first() else { return };
        for &(what, d) in &digests {
            if d != first {
                self.fail(format!("{what} digest {d:016x} differs from {first:016x}"));
            }
        }
        // Keyed by the build as well, so that a change to the program
        // is never held to the digests of another build.
        let Some(build) = build_id() else {
            println!("gate   no cross-run digest check: the executable cannot be read");
            return;
        };
        let store = Path::new(STATE_DIR).join("digests");
        let path = store.join(format!("{}-{seed}-{build:016x}", w.name()));
        match std::fs::read_to_string(&path) {
            Ok(recorded) if recorded.trim() == format!("{first:016x}") => {}
            Ok(recorded) => self.fail(format!(
                "digest {first:016x} differs from {} recorded by an earlier run",
                recorded.trim()
            )),
            Err(_) => {
                let tmp = path.with_extension("tmp");
                let written = std::fs::create_dir_all(&store)
                    .and_then(|()| std::fs::write(&tmp, format!("{first:016x}\n")))
                    .and_then(|()| std::fs::rename(&tmp, &path));
                if let Err(e) = written {
                    self.fail(format!("recording digest at {}: {e}", path.display()));
                }
            }
        }
    }

    /// Every paper headline must hold its tolerance.
    fn headlines(&mut self, outcome: &Outcome) -> f64 {
        let mut worst: f64 = 0.0;
        for h in &outcome.headlines {
            println!(
                "paper  {}: paper {} measured {:.4} err {:.3}% (tolerance ±{}) {}",
                h.name,
                h.paper,
                h.measured,
                h.err_pct(),
                h.tolerance,
                if h.holds() { "ok" } else { "FAIL" }
            );
            if !h.holds() {
                self.fail(format!("{} outside tolerance", h.name));
            }
            worst = worst.max(h.err_pct());
        }
        worst
    }
}

/// Digest of this executable: identifies the build whose digests the
/// cross-run check compares.
fn build_id() -> Option<u64> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let mut digest = Digest::default();
    digest.bytes(&bytes);
    Some(digest.value())
}

/// A session of `workers` at the shard size [`workloads::setup`]
/// assumes.
fn new_session(workers: usize) -> Session {
    Session::new().workers(workers).shard_size(SHARD_SIZE)
}

/// Times set-up passes, at least [`SETUP_REPS`] of them and for at
/// least `seconds` of wall time; returns each pass's CPU seconds.
fn setup_passes(args: &Args, workers: usize, seconds: f64, gate: &mut Gate) -> Vec<f64> {
    let mut passes = Vec::new();
    let start = clock::now_ns();
    while passes.len() < SETUP_REPS || clock::secs_since(start) < seconds {
        let t = cpu::process_ns();
        let prepared = workloads::setup(args.workload, args.seed, workers);
        passes.push(cpu::secs_since(t));
        if let Err(e) = prepared {
            gate.fail(format!("set-up: {e}"));
            break;
        }
    }
    passes
}

/// Host time of one workload run, wall and CPU.
#[derive(Debug, Clone, Copy)]
struct Took {
    wall_s: f64,
    cpu_s: f64,
}

/// Times one workload run on `session`.
fn timed_run(
    w: Workload,
    seed: u64,
    session: &Session,
    dir: &Path,
) -> (Took, Result<Outcome, String>) {
    let (t, c) = (clock::now_ns(), cpu::process_ns());
    let result = workloads::run(w, seed, session, dir);
    (Took { wall_s: clock::secs_since(t), cpu_s: cpu::secs_since(c) }, result)
}

/// Times rounded for the text report.
fn rounded(times: impl Iterator<Item = f64>) -> Vec<f64> {
    times.map(|t| (t * 1e4).round() / 1e4).collect()
}

fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The untraced run: set-up passes, then repeated full runs for
/// `seconds`. Returns the end-to-end metrics.
fn untraced(args: &Args, host: &Host, dir: &Path, gate: &mut Gate) -> Vec<Metric> {
    let (w, seed) = (args.workload, args.seed);
    let mut setup_batches = vec![setup_passes(args, host.workers, SETUP_SECONDS, gate)];
    let mut last_batch = clock::now_ns();
    let inputs = workloads::inputs(w, seed, None).unwrap_or_else(|e| {
        gate.fail(format!("inputs: {e}"));
        Inputs::default()
    });

    let session = new_session(host.workers);
    let mut took = Vec::new();
    let mut outcomes = Vec::new();
    let start = clock::now_ns();
    loop {
        let (t, result) = timed_run(w, seed, &session, dir);
        let Some(outcome) = gate.run("run", result) else { break };
        took.push(t);
        outcomes.push(outcome);
        if clock::secs_since(start) >= args.seconds {
            break;
        }
        if clock::secs_since(last_batch) >= SETUP_EVERY_SECONDS {
            last_batch = clock::now_ns();
            setup_batches.push(setup_passes(args, host.workers, SETUP_SECONDS, gate));
        }
    }
    let digests = outcomes.iter().map(|o| ("repetition", o.digest)).collect();
    gate.digests(w, seed, &session, dir, digests);
    if let Some(o) = outcomes.first() {
        gate.headlines(o);
    }

    // Like the fastest repetition, the fastest batch is the one the
    // other guests' contention slowed least.
    let batch_medians: Vec<f64> = setup_batches.iter().map(|b| median(b)).collect();
    let setup_s = batch_medians.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    println!(
        "setup  batches n={} passes n={} median pass per batch {:?} CPU ms",
        setup_batches.len(),
        setup_batches.iter().map(Vec::len).sum::<usize>(),
        rounded(batch_medians.iter().map(|m| m * 1e3))
    );
    println!(
        "runs   n={} CPU {:?} s; wall {:?} s",
        took.len(),
        rounded(took.iter().map(|t| t.cpu_s)),
        rounded(took.iter().map(|t| t.wall_s))
    );
    // The fastest repetition: every repetition does the same work, and
    // contention with the host's other guests only ever slows one down.
    let cpu_s = took.iter().map(|t| t.cpu_s).fold(f64::INFINITY, f64::min);
    let values = [cpu_s, inputs.sim_s / cpu_s, setup_s, peak_rss_mb()];
    END_TO_END.iter().zip(values).map(|(&(name, unit), v)| Metric::new(name, v, unit)).collect()
}

/// The traced run: untraced and traced full runs in turn, a 1-worker
/// run for the determinism check, and the layer probes. Returns the
/// per-layer metrics.
fn traced(args: &Args, host: &Host, dir: &Path, gate: &mut Gate) -> Vec<Metric> {
    let (w, seed) = (args.workload, args.seed);
    let mut samples = Samples::new();
    let inputs = workloads::inputs(w, seed, Some(&mut samples)).unwrap_or_else(|e| {
        gate.fail(format!("inputs: {e}"));
        Inputs::default()
    });
    let setup_s = setup_passes(args, host.workers, 0.0, gate);

    // Untraced and traced runs alternate for `seconds` (at least one
    // pair), so both sides see the same host conditions.
    let session = new_session(host.workers);
    let recorder = Arc::new(SpanRecorder::default());
    let traced_session = new_session(host.workers).recorder(recorder.clone());
    let (mut untraced_took, mut traced_took) = (Vec::new(), Vec::new());
    let mut first_case_s = Vec::new();
    let mut digests = Vec::new();
    let (mut first_untraced, mut traced) = (None, Outcome::default());
    let (mut load_ms, mut merge_ms) = (Vec::new(), Vec::new());
    let start = clock::now_ns();
    loop {
        let (t, result) = timed_run(w, seed, &session, dir);
        let Some(outcome) = gate.run("untraced run", result) else { break };
        untraced_took.push(t);
        digests.push(("untraced", outcome.digest));
        first_untraced.get_or_insert(outcome);

        let run_start = clock::now_ns();
        let (t, result) = timed_run(w, seed, &traced_session, dir);
        if let Some(first) = recorder.take_first_open(SPAN_CASE) {
            first_case_s.push(first.saturating_sub(run_start) as f64 / 1e9);
        }
        let Some(outcome) = gate.run("traced run", result) else { break };
        traced_took.push(t);
        digests.push(("traced", outcome.digest));
        load_ms.extend_from_slice(&outcome.load_ms);
        merge_ms.extend_from_slice(&outcome.merge_ms);
        traced = outcome;
        if clock::secs_since(start) >= args.seconds {
            break;
        }
    }
    let (_, single) = timed_run(w, seed, &new_session(1), dir);
    if let Some(outcome) = gate.run("1-worker run", single) {
        digests.push(("1-worker", outcome.digest));
    }
    gate.digests(w, seed, &session, dir, digests);
    let paper_err_pct = first_untraced.as_ref().map_or(f64::NAN, |o| gate.headlines(o));

    layers::probe_layers(&mut samples);
    let ns_to = |name: &str, unit_ns: f64| -> Vec<f64> {
        recorder.durations(name).iter().map(|&d| d as f64 / unit_ns).collect()
    };
    samples.insert("session.sim_us", ns_to(SPAN_SIM, layers::US));
    samples.insert("session.fork_us", ns_to(SPAN_FORK, layers::US));
    // Only the checkpointing workloads save at their shard boundaries;
    // micro-grid's boundary callback does nothing.
    let checkpoints = matches!(w, Workload::IdleStaircase | Workload::CheckpointFleet);
    let saves = if checkpoints { ns_to(SPAN_CHECKPOINT, layers::MS) } else { Vec::new() };
    let save_total_ms = saves.iter().fold(0.0, |acc, ms| acc + ms);
    let workload_saves = saves.len() as f64;
    // A checkpoint operation the workload does not make reports n = 0.
    samples.insert("checkpoint.load_ms", load_ms);
    samples.insert("checkpoint.merge_ms", merge_ms);
    samples.insert("checkpoint.save_ms", saves);
    println!(
        "setup  first case opened {:.6} wall s after a traced run started (median of {}); \
         the set-up pass takes {:.6} CPU s (median of {})",
        median(&first_case_s),
        first_case_s.len(),
        median(&setup_s),
        setup_s.len()
    );

    let busy_ns: u64 = recorder.durations(SPAN_CASE).iter().sum();
    let sim_ns: u64 = recorder.durations(SPAN_SIM).iter().sum();
    let capacity_ns = recorder.pool_capacity_ns() as f64;

    let mut values = Vec::new();
    for (base, unit) in TIMINGS {
        let s = Summary::of(samples.get(base).map_or(&[][..], Vec::as_slice));
        println!(
            "layer  {base:<24} n={:<7} p50={:<12.4} {}={:.4} {unit}",
            s.n,
            s.median,
            s.tail_label(),
            s.tail_value()
        );
        values.extend([s.median, s.tail_value(), s.n as f64]);
    }
    let traced_wall_ms = traced_took.iter().fold(0.0, |acc, t| acc + t.wall_s * 1e3);
    let medians =
        |took: &[Took], f: fn(&Took) -> f64| median(&took.iter().map(f).collect::<Vec<_>>());
    let untraced_wall = medians(&untraced_took, |t| t.wall_s);
    let (traced_cpu, untraced_cpu) =
        (medians(&traced_took, |t| t.cpu_s), medians(&untraced_took, |t| t.cpu_s));
    let overhead_pct = (traced_cpu / untraced_cpu - 1.0) * 100.0;
    println!(
        "ratio  checkpoint.save_frac = {save_total_ms:.3} ms saving / {traced_wall_ms:.3} ms \
         traced wall over {} traced runs",
        traced_took.len()
    );
    println!(
        "ratio  session.busy_frac = {:.3} ms in cases / {:.3} ms of pool worker time",
        busy_ns as f64 / 1e6,
        capacity_ns / 1e6
    );
    let runs = traced_took.len().max(1) as f64;
    println!(
        "ratio  session.sim_us_per_ms = {:.3} ms simulating / {:.3} s simulated ({runs} runs)",
        sim_ns as f64 / 1e6,
        inputs.sim_s * runs
    );
    println!(
        "ratio  obs.overhead_pct = {traced_cpu:.4} CPU s traced / {untraced_cpu:.4} CPU s \
         untraced - 1 (medians of {} and {} runs)",
        traced_took.len(),
        untraced_took.len()
    );
    println!(
        "ratio  sim_s_per_host_s = {:.3} s simulated / {untraced_wall:.4} s untraced wall \
         (median of {} runs)",
        inputs.sim_s,
        untraced_took.len()
    );
    let save_max = Summary::of(&samples["checkpoint.save_ms"]).max;
    values.extend([
        untraced_wall,
        inputs.sim_s / untraced_wall,
        save_max,
        inputs.cases as f64,
        inputs.sim_s,
        inputs.ops as f64,
        traced.trace_records as f64,
        inputs.probes as f64,
        workload_saves / runs,
        traced.checkpoint_bytes as f64,
        save_total_ms / traced_wall_ms,
        if capacity_ns > 0.0 { busy_ns as f64 / capacity_ns } else { 0.0 },
        (capacity_ns - busy_ns as f64).max(0.0) / 1e6,
        if capacity_ns > 0.0 { sim_ns as f64 / capacity_ns } else { 0.0 },
        sim_ns as f64 / 1e3 / (inputs.sim_s * 1e3 * runs),
        host.workers as f64,
        overhead_pct,
        paper_err_pct,
    ]);
    // Every per-layer metric but the last, failed_ratio, which main
    // adds once the gate is complete.
    per_layer_names()
        .into_iter()
        .zip(values)
        .map(|((name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("zen2-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    println!(
        "perfbench workload={} seed={} trace={} seconds={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!(
        "host   nproc={} workers={} profile={} rustc=\"{}\" git={}",
        host.nproc, host.workers, host.profile, host.rustc, host.git
    );

    let dir: PathBuf = Path::new(STATE_DIR).join(format!("run-{}", std::process::id()));
    let mut gate = Gate::default();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        gate.fail(format!("creating {}: {e}", dir.display()));
    }
    let metrics = if args.trace {
        traced(&args, &host, &dir, &mut gate)
    } else {
        untraced(&args, &host, &dir, &mut gate)
    };
    let _ = std::fs::remove_dir_all(&dir);

    let failed_ratio = gate.failed as f64 / gate.attempted.max(1) as f64;
    println!(
        "gate   failed_ratio = {failed_ratio} ({} of {} operations)",
        gate.failed, gate.attempted
    );
    let mut metrics = metrics;
    if args.trace {
        metrics.push(Metric::new("failed_ratio", failed_ratio, "fraction"));
    }
    for m in &metrics {
        if !m.value.is_finite() {
            gate.fail(format!("{} is not a finite number", m.name));
        }
        if !report::valid_name(&m.name) || !report::valid_unit(m.unit) {
            gate.fail(format!("metric {:?} [{}] breaks the naming rules", m.name, m.unit));
        }
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for why in &gate.failures {
        println!("FAILED {why}");
    }
    println!("gate   attempted={} failed={}", gate.attempted, gate.failed);
    let correct = gate.failed == 0;
    println!("{}", result_line(correct, gate.attempted.max(1), gate.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen2_sim::Json;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_default_the_seed() {
        let a = args(&["--workload", "idle-staircase", "--seconds", "10", "--trace", "1"]).unwrap();
        assert_eq!(a.workload, Workload::IdleStaircase);
        assert_eq!(a.seed, 0xF167);
        assert!(a.trace);
        assert_eq!(args(&["--workload", "micro-grid", "--seed", "7"]).unwrap().seed, 7);
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "micro-grid", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "micro-grid", "--seed"]).is_err());
    }

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let mut names: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        names.extend(per_layer_names());
        for (name, unit) in &names {
            assert!(report::valid_name(name), "{name}");
            assert!(report::valid_unit(unit), "{name}: {unit}");
        }
        let mut sorted: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(per_layer_names().len() <= 128);
    }

    /// The metric lists in `BENCHMARK.json` are the ones this program
    /// prints, with the same units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |entry: &Json, f: &str| -> String {
            entry.get(f).and_then(Json::as_str).expect("string field").to_string()
        };
        let listed = |key: &str| -> Vec<(String, String)> {
            let items = json.get(key).and_then(Json::items).expect(key);
            items.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
        };
        let owned = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        assert_eq!(listed("end_to_end"), owned(e2e));
        assert_eq!(listed("per_layer"), owned(per_layer_names()));
        let workloads = json.get("workloads").and_then(Json::items).expect("workloads");
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, expected);
    }
}

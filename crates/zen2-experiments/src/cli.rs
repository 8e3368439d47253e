//! The command line of the experiment binaries: one [`Args`] parse per
//! process, and [`main`], the whole `main` of every figure binary and
//! `all`.
//!
//! | Flag | Binaries | Effect |
//! |------|----------|--------|
//! | `--paper` | all report binaries | the paper's full parameters |
//! | `--json` | all report binaries | the summary tables as one JSON array |
//! | `--anomaly` | `fig03` | adds the §V-B 2.2↔2.5 GHz sweeps |
//! | `--checkpoint <path>` | grid binaries, `all` | persist each grid at every shard boundary |
//! | `--resume` | grid binaries, `all` | pick up from the checkpoint (a missing file starts fresh) |
//! | `--halt-after <n>` | single-grid binaries | testing aid: halt cleanly after `n` saves |
//! | `--shard-range i/N` | grid binaries, `all` | fleet mode: fold only slice `i` of `N` |
//! | `--workers <n>` / `--shard-size <n>` | grid binaries, `all`, `torture` | parallelism and checkpoint cadence |
//! | `--obs <path>` / `--progress` | grid binaries, `all`, `torture` | telemetry trace / heartbeats on stderr |
//!
//! The grid binaries are those whose [`EXPERIMENTS`](crate::EXPERIMENTS)
//! entries carry a grid. Any other argument — a misspelt flag, or a flag the binary
//! cannot honour — is a usage error: exit 2, nothing on stdout.
//! `docs/SWEEPS.md` and `docs/OBSERVABILITY.md` document the grid and
//! telemetry flags.

use crate::report::tables_to_json;
use crate::{can_halt, sections, Scale, ALL, FIG03_ANOMALY};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use zen2_obs::{Heartbeat, JsonlSink, Multi, Recorder, SummarySink};
use zen2_sim::{CheckpointSpec, Session, ShardRange};

/// The flag groups a binary honours; [`Args::parse`] rejects the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accepts {
    /// `--paper` and `--json`: the binary prints a report.
    pub report: bool,
    /// `--anomaly`.
    pub anomaly: bool,
    /// `--checkpoint`, `--resume` and `--shard-range`.
    pub checkpoint: bool,
    /// `--halt-after`.
    pub halt: bool,
    /// `--workers`, `--shard-size`, `--obs` and `--progress`.
    pub session: bool,
}

impl Accepts {
    /// Only the session flags (the `torture` soak, whose other flags
    /// are its own).
    pub const SESSION: Self =
        Self { report: false, anomaly: false, checkpoint: false, halt: false, session: true };

    /// What `bin` — a binary of [`EXPERIMENTS`](crate::EXPERIMENTS) or [`ALL`] — honours.
    pub fn of(bin: &str) -> Self {
        let grid = sections(bin).any(|e| e.grid.is_some());
        Self {
            report: true,
            anomaly: bin == FIG03_ANOMALY.bin,
            checkpoint: grid,
            halt: can_halt(bin),
            session: grid,
        }
    }

    /// The one-line usage synopsis of `bin`.
    pub fn usage(&self, bin: &str) -> String {
        let mut out = format!("usage: {bin}");
        let groups = [
            (self.report, " [--paper] [--json]"),
            (self.anomaly, " [--anomaly]"),
            (self.checkpoint, " [--checkpoint PATH [--resume] [--shard-range i/N]]"),
            (self.halt, " [--halt-after N]"),
            (self.session, " [--workers N] [--shard-size N] [--obs PATH] [--progress]"),
        ];
        for (on, flags) in groups {
            if on {
                out.push_str(flags);
            }
        }
        out
    }
}

/// The parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--paper` selects [`Scale::Paper`].
    pub scale: Scale,
    /// `--json`.
    pub json: bool,
    /// `--anomaly`.
    pub anomaly: bool,
    /// `--checkpoint`, `--resume`, `--halt-after` and `--shard-range`,
    /// with the path as given (before any per-grid suffix).
    pub checkpoint: CheckpointSpec,
    /// The `--obs` trace path.
    pub obs: Option<PathBuf>,
    /// `--progress`.
    pub progress: bool,
    /// `--workers`.
    pub workers: Option<usize>,
    /// `--shard-size`.
    pub shard_size: Option<usize>,
}

/// The value after `flag`.
///
/// # Errors
/// Errors when the arguments end first.
pub fn value(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// `base` with `suffix` appended to its final component — how a grid's
/// checkpoint file is named after the `--checkpoint` argument.
pub fn path_with_suffix(base: &Path, suffix: &str) -> PathBuf {
    let mut name = base.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(suffix);
    base.with_file_name(name)
}

fn count(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    let n = value(args, flag)?;
    n.parse().map_err(|_| format!("{flag} {n:?}: not a count"))
}

impl Args {
    /// Parses `args` (the process arguments without the program name).
    ///
    /// # Errors
    /// Errors with a usage message on an unknown flag, a flag outside
    /// `accepts`, a missing or malformed value, or an inconsistent set.
    pub fn parse(accepts: Accepts, args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        Self::parse_with(accepts, args, |_, _| Ok(false))
    }

    /// [`Args::parse`] for a binary with flags of its own: `own` sees
    /// every argument first and returns `true` when it took it (pulling
    /// any value with [`value`]).
    ///
    /// # Errors
    /// As [`Args::parse`], plus whatever `own` reports.
    pub fn parse_with(
        accepts: Accepts,
        args: impl IntoIterator<Item = String>,
        mut own: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Result<Self, String> {
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if own(&arg, &mut args)? {
                continue;
            }
            let honoured = match arg.as_str() {
                "--paper" | "--json" => accepts.report,
                "--anomaly" => accepts.anomaly,
                "--checkpoint" | "--resume" | "--shard-range" => accepts.checkpoint,
                "--halt-after" => accepts.halt,
                "--workers" | "--shard-size" | "--obs" | "--progress" => accepts.session,
                _ => return Err(format!("unknown flag {arg:?}")),
            };
            if !honoured {
                return Err(format!("{arg} does not apply to this binary"));
            }
            let spec = &mut out.checkpoint;
            match arg.as_str() {
                "--paper" => out.scale = Scale::Paper,
                "--json" => out.json = true,
                "--anomaly" => out.anomaly = true,
                "--checkpoint" => spec.path = Some(value(&mut args, &arg)?.into()),
                "--resume" => spec.resume = true,
                "--shard-range" => spec.shard = Some(ShardRange::parse(&value(&mut args, &arg)?)?),
                "--halt-after" => spec.halt_after = Some(count(&mut args, &arg)?),
                "--workers" => out.workers = Some(count(&mut args, &arg)?),
                "--shard-size" => out.shard_size = Some(count(&mut args, &arg)?),
                "--obs" => out.obs = Some(value(&mut args, &arg)?.into()),
                "--progress" => out.progress = true,
                _ => unreachable!("unknown flags returned above"),
            }
        }
        let spec = &out.checkpoint;
        if spec.path.is_none() {
            if spec.resume {
                return Err("--resume requires --checkpoint <path>".into());
            }
            if spec.halt_after.is_some() {
                return Err("--halt-after requires --checkpoint <path>".into());
            }
            if spec.shard.is_some() {
                return Err("--shard-range requires --checkpoint <path> — \
                            a shard's only output is its checkpoint file"
                    .into());
            }
        }
        Ok(out)
    }

    /// The checkpoint spec of one grid: the `--checkpoint` path with
    /// `suffix` appended to its final component.
    pub fn spec(&self, suffix: &str) -> CheckpointSpec {
        let path = self.checkpoint.path.as_deref().map(|p| path_with_suffix(p, suffix));
        CheckpointSpec { path, ..self.checkpoint.clone() }
    }

    /// The session the grids stream through, with the `--obs` /
    /// `--progress` sink stack attached when asked for. Results never
    /// depend on `--workers` / `--shard-size`; because checkpoints are
    /// cut at shard boundaries, every `workers × shard_size` cases, the
    /// two set the checkpoint cadence.
    ///
    /// # Errors
    /// Errors when the `--obs` trace file cannot be created.
    pub fn session(&self) -> Result<(Session, Option<ObsStack>), String> {
        let mut session = Session::new();
        if let Some(n) = self.workers {
            session = session.workers(n);
        }
        if let Some(n) = self.shard_size {
            session = session.shard_size(n);
        }
        let stack = ObsStack::new(self.obs.as_deref(), self.progress)?;
        if let Some(stack) = &stack {
            session = stack.attach(session);
        }
        Ok((session, stack))
    }
}

/// The live sink stack behind `--obs` / `--progress`: attach it to the
/// session before the run, [`ObsStack::finish`] it after.
///
/// * `--obs <path>` writes the run's telemetry as a JSONL trace and
///   prints an aggregate summary table (span durations, cache
///   counters, worker utilization) to stderr at the end.
/// * `--progress` prints rate-limited `done/total … cases/s … eta`
///   heartbeat lines to stderr while the sweep runs.
///
/// Telemetry is out-of-band by construction: stdout, `--json` and
/// checkpoints are byte-identical with or without it. See
/// `docs/OBSERVABILITY.md`.
pub struct ObsStack {
    recorder: Arc<Multi>,
    jsonl: Option<Arc<JsonlSink>>,
    summary: Option<Arc<SummarySink>>,
}

impl ObsStack {
    /// Builds the stack the flags ask for — `None` when neither was
    /// passed (the session then runs with zero telemetry overhead).
    ///
    /// # Errors
    /// Errors when the `obs` trace file cannot be created.
    pub fn new(obs: Option<&Path>, progress: bool) -> Result<Option<Self>, String> {
        let mut sinks: Vec<Arc<dyn Recorder>> = Vec::new();
        let mut jsonl = None;
        let mut summary = None;
        if let Some(path) = obs {
            let sink = Arc::new(
                JsonlSink::create(path).map_err(|e| format!("--obs {}: {e}", path.display()))?,
            );
            sinks.push(sink.clone());
            jsonl = Some(sink);
            let agg = Arc::new(SummarySink::new());
            sinks.push(agg.clone());
            summary = Some(agg);
        }
        if progress {
            sinks.push(Arc::new(Heartbeat::new()));
        }
        if sinks.is_empty() {
            return Ok(None);
        }
        Ok(Some(Self { recorder: Arc::new(Multi::new(sinks)), jsonl, summary }))
    }

    /// Attaches the stack to a session.
    pub fn attach(&self, session: Session) -> Session {
        session.recorder(self.recorder.clone())
    }

    /// Flushes the JSONL trace and prints the summary table to stderr.
    ///
    /// # Errors
    /// Errors when the trace file failed to write.
    pub fn finish(&self) -> Result<(), String> {
        if let Some(jsonl) = &self.jsonl {
            jsonl.finish().map_err(|e| format!("writing telemetry trace: {e}"))?;
        }
        if let Some(summary) = &self.summary {
            eprint!("{}", summary.render());
        }
        Ok(())
    }
}

/// The `main` of `bin`, a binary of [`EXPERIMENTS`](crate::EXPERIMENTS) or [`ALL`]: parses
/// the flags, runs the binary's sections, and prints the report — text
/// as each section finishes, or one `--json` array at the end.
///
/// Exit codes: 2 on a usage error (stdout stays empty), 1 when a
/// checkpoint or the telemetry trace fails, 0 otherwise. A run that
/// halted (`--halt-after`) or folded a `--shard-range` slice prints no
/// report and says so on stderr; a shard run skips the narrow sections,
/// which the fleet's re-emit pass runs.
pub fn main(bin: &str) {
    let accepts = Accepts::of(bin);
    let usage = |message: String| -> ! {
        eprintln!("{bin}: {message}\n{}", accepts.usage(bin));
        std::process::exit(2);
    };
    let fail = |message: String| -> ! {
        eprintln!("{bin}: {message}");
        std::process::exit(1);
    };
    let args = Args::parse(accepts, std::env::args().skip(1)).unwrap_or_else(|m| usage(m));
    let (session, stack) = args.session().unwrap_or_else(|m| usage(m));
    let shard = args.checkpoint.shard;
    let text = !args.json && shard.is_none();
    if bin == ALL && text {
        println!("=== zen2-ee: full experiment suite ({:?} scale) ===\n", args.scale);
    }
    let anomaly = args.anomaly.then_some(&FIG03_ANOMALY);
    let mut tables = Vec::new();
    let mut complete = true;
    let mut failure = None;
    for e in sections(bin).chain(anomaly).filter(|e| shard.is_none() || e.grid.is_some()) {
        if args.progress {
            eprintln!("{bin}: running {}", e.name);
        }
        let seed = if bin == ALL { e.all_seed } else { e.seed };
        let spec = args.spec(&e.suffix(bin).unwrap_or_default());
        match (e.run)(args.scale, seed, &session, &spec) {
            Ok(Some(section)) if text => print!("{}", section.text),
            Ok(Some(section)) => tables.extend(section.tables),
            Ok(None) => complete = false,
            Err(error) => {
                let name = if e.name == bin { String::new() } else { format!("{}: ", e.name) };
                failure = Some(format!("{name}{error}"));
                break;
            }
        }
    }
    if let Some(stack) = &stack {
        stack.finish().unwrap_or_else(|m| fail(m));
    }
    if let Some(message) = failure {
        fail(message);
    }
    match shard {
        Some(shard) if complete || args.checkpoint.halt_after.is_none() => eprintln!(
            "{bin}: shard {shard} done; merge the range checkpoints (zen2-fleet) to \
             produce the report"
        ),
        _ if !complete => eprintln!(
            "{bin}: halted mid-sweep (--halt-after); resume with --checkpoint {} --resume",
            args.checkpoint.path.as_deref().unwrap_or(Path::new("<path>")).display()
        ),
        _ if args.json => println!("{}", tables_to_json(&tables)),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bin: &str, args: &[&str]) -> Result<Args, String> {
        Args::parse(Accepts::of(bin), args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn grid_binaries_parse_the_checkpoint_flags() {
        let args = parse("fig09", &["--json", "--checkpoint", "ck.json", "--resume"]).unwrap();
        assert!(args.json);
        assert_eq!(args.checkpoint.path.as_deref(), Some(Path::new("ck.json")));
        assert!(args.checkpoint.resume);
        assert_eq!(args.checkpoint.halt_after, None);
        let args = parse("fig07", &["--checkpoint", "ck", "--halt-after", "3"]).unwrap();
        assert_eq!(args.checkpoint.halt_after, Some(3));
        let args = parse("tab1", &["--checkpoint", "ck", "--shard-range", "1/3"]).unwrap();
        assert_eq!(args.checkpoint.shard, Some(ShardRange { index: 1, of: 3 }));
        let args = parse(ALL, &["--workers", "2", "--shard-size", "5"]).unwrap();
        assert_eq!((args.workers, args.shard_size), (Some(2), Some(5)));
    }

    #[test]
    fn paper_is_accepted_by_every_report_binary() {
        for bin in crate::bins().chain([ALL]) {
            assert_eq!(parse(bin, &["--paper"]).unwrap().scale, Scale::Paper, "{bin}");
        }
        let quick = parse("fig04", &[]).unwrap();
        assert_eq!((quick.scale, quick.json), (Scale::Quick, false));
    }

    #[test]
    fn misspelt_flags_are_errors() {
        for (bin, args) in [
            ("tab1", &["--chekpoint", "ck"][..]),
            ("fig09", &["--checkpoint", "ck", "--halt-afer", "1"][..]),
            ("fig07", &["--jsn"][..]),
            ("fig01", &["extra"][..]),
            (ALL, &["--quick"][..]),
        ] {
            let err = parse(bin, args).unwrap_err();
            assert!(err.contains("unknown flag"), "{bin} {args:?} -> {err}");
        }
    }

    #[test]
    fn flags_a_binary_cannot_honour_are_errors() {
        for (bin, args) in [
            ("fig04", &["--checkpoint", "ck"][..]),
            ("fig01", &["--obs", "t.jsonl"][..]),
            ("sec7", &["--progress"][..]),
            ("fig05", &["--workers", "2"][..]),
            ("fig07", &["--anomaly"][..]),
            (ALL, &["--anomaly"][..]),
            ("fig10", &["--checkpoint", "f", "--halt-after", "1"][..]),
            (ALL, &["--checkpoint", "f", "--halt-after", "1"][..]),
        ] {
            let err = parse(bin, args).unwrap_err();
            assert!(err.contains("does not apply"), "{bin} {args:?} -> {err}");
        }
        assert!(parse("fig03", &["--anomaly"]).unwrap().anomaly);
        let torture =
            |args: &[&str]| Args::parse(Accepts::SESSION, args.iter().map(|s| s.to_string()));
        assert!(torture(&["--workers", "7", "--progress"]).is_ok());
        assert!(torture(&["--json"]).unwrap_err().contains("does not apply"));
    }

    #[test]
    fn incomplete_flags_are_errors() {
        assert!(parse("fig09", &["--checkpoint"]).unwrap_err().contains("needs a value"));
        assert!(parse("fig09", &["--resume"]).unwrap_err().contains("--checkpoint"));
        assert!(parse("fig09", &["--halt-after", "2"]).unwrap_err().contains("--checkpoint"));
        assert!(parse("fig09", &["--checkpoint", "ck", "--halt-after", "soon"]).is_err());
        assert!(parse("fig09", &["--shard-range", "0/3"]).unwrap_err().contains("--checkpoint"));
        assert!(parse("fig09", &["--checkpoint", "ck", "--shard-range", "3/3"])
            .unwrap_err()
            .contains("i/N"));
        assert!(parse("fig09", &["--obs"]).is_err());
        assert!(parse("fig09", &["--workers", "many"]).unwrap_err().contains("not a count"));
    }

    #[test]
    fn own_flags_are_seen_first() {
        let mut seed = None;
        let args = Args::parse_with(
            Accepts::SESSION,
            ["--seed", "9", "--workers", "2"].map(String::from),
            |flag, rest| match flag {
                "--seed" => {
                    seed = Some(value(rest, flag)?);
                    Ok(true)
                }
                _ => Ok(false),
            },
        )
        .unwrap();
        assert_eq!(seed.as_deref(), Some("9"));
        assert_eq!(args.workers, Some(2));
    }

    #[test]
    fn spec_appends_the_grid_suffix() {
        let args = parse(ALL, &["--checkpoint", "run/ck", "--resume"]).unwrap();
        let spec = args.spec("-fig09");
        assert_eq!(spec.path.as_deref(), Some(Path::new("run/ck-fig09")));
        assert!(spec.resume);
        assert_eq!(args.spec("").path, args.checkpoint.path);
        assert_eq!(Args::default().spec("-shr").path, None);
    }

    #[test]
    fn obs_stack_is_absent_without_flags() {
        assert!(ObsStack::new(None, false).unwrap().is_none());
        let stack = ObsStack::new(None, true).unwrap().expect("progress builds a stack");
        stack.finish().unwrap();
    }

    #[test]
    fn usage_lists_what_the_binary_takes() {
        assert_eq!(Accepts::of("fig04").usage("fig04"), "usage: fig04 [--paper] [--json]");
        assert!(Accepts::of("fig09").usage("fig09").contains("--halt-after"));
        assert!(!Accepts::of("fig10").usage("fig10").contains("--halt-after"));
        assert!(Accepts::of("fig03").usage("fig03").contains("--anomaly"));
        assert!(crate::EXPERIMENTS.iter().all(|e| Accepts::of(e.bin).report));
    }
}

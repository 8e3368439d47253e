//! The paper's experiments, one module per table/figure.
//!
//! Every experiment follows the same shape:
//!
//! * a `Config` with the paper's full parameters ([`Scale::Paper`]) and a
//!   cheaper variant for CI and quick runs ([`Scale::Quick`]),
//! * a `run(config, seed)` function that drives `zen2-sim` through the
//!   paper's methodology and returns a serializable result struct,
//! * a `render()` producing the paper-style text table, including the
//!   published reference values next to the measured ones.
//!
//! Sweeps are expressed declaratively: each configuration is a
//! `(SimConfig, Scenario, seed)` [`Case`](zen2_sim::Case) with a
//! deterministic child seed, and the batch executes through a
//! [`Session`] worker pool — no experiment module spawns threads
//! itself, and results are byte-identical regardless of parallelism.
//! The wide-grid modules additionally expose a `run_checkpointed`
//! entry point wired to the uniform `--checkpoint` / `--resume` /
//! `--halt-after` flags ([`cli::Args`]); `docs/SWEEPS.md` documents
//! that workflow end to end.
//!
//! [`EXPERIMENTS`] lists every report section once, in the `all`
//! report's order; the figure binaries, `all` and `zen2-fleet` are all
//! driven from it through [`cli::main`].
//!
//! | Module | Paper item |
//! |--------|-----------|
//! | [`fig01_green500`]   | Fig. 1 — Green500 efficiency by µarch |
//! | [`fig03_transition`] | Fig. 3 — frequency transition delays (+ §V-B anomaly) |
//! | [`tab1_mixed_freq`]  | Table I — mixed frequencies on one CCX |
//! | [`fig04_l3_latency`] | Fig. 4 — L3 latency under mixed frequencies |
//! | [`fig05_membw`]      | Fig. 5 — I/O-die P-states vs DRAM bandwidth/latency |
//! | [`fig06_firestarter`]| Fig. 6 — FIRESTARTER throttling ± SMT |
//! | [`fig07_idle_power`] | Fig. 7 — idle/C-state power staircase |
//! | [`fig08_wakeup`]     | Fig. 8 — C-state wakeup latencies |
//! | [`fig09_rapl_quality`]| Fig. 9 — RAPL vs AC reference scatter |
//! | [`fig10_hamming`]    | Fig. 10 — operand-weight power ECDFs |
//! | [`sec5a_sibling`]    | §V-A — idle/offline sibling raises core frequency |
//! | [`sec6b_offline`]    | §VI-B — offline threads block package C6 |
//! | [`sec7_update_rate`] | §VII — RAPL counter update interval |
//! | [`ext_manycore`]     | §VIII future work — many-core throttling prediction |
//! | [`ext_cstate_breakeven`] | extension — informed C-state break-even analysis |

pub mod cli;
pub mod ext_cstate_breakeven;
pub mod ext_manycore;
pub mod fig01_green500;
pub mod fig03_transition;
pub mod fig04_l3_latency;
pub mod fig05_membw;
pub mod fig06_firestarter;
pub mod fig07_idle_power;
pub mod fig08_wakeup;
pub mod fig09_rapl_quality;
pub mod fig10_hamming;
pub mod methodology_bridge;
pub mod report;
pub mod sec5a_sibling;
pub mod sec6b_offline;
pub mod sec7_update_rate;
pub mod seeds;
pub mod tab1_mixed_freq;

use report::Table;
use zen2_isa::KernelClass;
use zen2_sim::{CheckpointError, CheckpointSpec, Session};

/// Experiment size: the paper's full parameters or a CI-friendly subset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sample counts / durations; minutes of total runtime.
    #[default]
    Quick,
    /// The paper's published parameters.
    Paper,
}

impl Scale {
    /// Picks between the two scale values.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// One section's output: the paper-style text and the summary tables
/// `--json` prints instead.
#[derive(Debug, Clone)]
pub struct Report {
    /// The rendered text report.
    pub text: String,
    /// The summary tables.
    pub tables: Vec<Table>,
}

/// What a section's run returns: the report, or `None` when the grid
/// halted (`--halt-after`) or ran only a `--shard-range` slice.
pub type Outcome = Result<Option<Report>, CheckpointError>;

/// How a section runs: scale, seed, session and checkpoint spec in.
/// Narrow sections ignore the session and the spec.
pub type RunFn = fn(Scale, u64, &Session, &CheckpointSpec) -> Outcome;

/// One section of the report.
#[derive(Debug)]
pub struct Experiment {
    /// The section name: `all`'s `--progress` banner and checkpoint
    /// suffix (`-<name>`).
    pub name: &'static str,
    /// The binary that prints the section on its own.
    pub bin: &'static str,
    /// The seed the section's own binary runs it with.
    pub seed: u64,
    /// The seed `all` runs it with.
    pub all_seed: u64,
    /// For a section that folds a checkpointable sweep grid, the suffix
    /// its own binary appends to `--checkpoint`; `None` for a narrow
    /// section.
    pub grid: Option<&'static str>,
    /// Runs the section.
    pub run: RunFn,
}

/// The binary that runs every section, in table order.
pub const ALL: &str = "all";

impl Experiment {
    /// The checkpoint-file suffix of the section's grid when `bin` (its
    /// own binary or [`ALL`]) runs it; `None` for a narrow section.
    pub fn suffix(&self, bin: &str) -> Option<String> {
        self.grid.map(|own| if bin == ALL { format!("-{}", self.name) } else { own.into() })
    }
}

const fn row(
    name: &'static str,
    bin: &'static str,
    seed: u64,
    all_seed: u64,
    grid: Option<&'static str>,
    run: RunFn,
) -> Experiment {
    Experiment { name, bin, seed, all_seed, grid, run }
}

/// A narrow section's report.
fn narrow<R: ?Sized>(r: &R, render: fn(&R) -> String, tables: fn(&R) -> Vec<Table>) -> Outcome {
    Ok(Some(Report { text: render(r), tables: tables(r) }))
}

/// A grid section's report.
fn grid<R>(
    r: Result<Option<R>, CheckpointError>,
    render: fn(&R) -> String,
    tables: fn(&R) -> Vec<Table>,
) -> Outcome {
    Ok(r?.map(|r| Report { text: render(&r), tables: tables(&r) }))
}

/// Every section of the report, in the `all` report's order.
pub static EXPERIMENTS: [Experiment; 16] = [
    // name, binary, its seed, `all`'s seed, grid suffix, run.
    // Fig. 1 replays published Green500 data; it takes no seed.
    row("fig01", "fig01", 0, 0, None, |_, _, _, _| {
        use fig01_green500 as exp;
        narrow(exp::run().as_slice(), exp::render, exp::tables)
    }),
    row("fig03", "fig03", 0xF163, 1, None, |scale, seed, _, _| {
        use fig03_transition as exp;
        narrow(&exp::run(&exp::Config::fig3(scale), seed), exp::render, exp::tables)
    }),
    row("tab1", "tab1", 0x7AB1, 2, Some(""), |scale, seed, session, spec| {
        use tab1_mixed_freq as exp;
        let r = exp::run_checkpointed(&exp::Config::new(scale), seed, session, spec);
        grid(r, exp::render, exp::tables)
    }),
    row("fig04", "fig04", 0xF164, 3, None, |scale, seed, _, _| {
        use fig04_l3_latency as exp;
        narrow(&exp::run(&exp::Config::new(scale), seed), exp::render, exp::tables)
    }),
    row("fig05", "fig05", 0xF165, 4, None, |_, seed, _, _| {
        use fig05_membw as exp;
        narrow(&exp::run(seed), exp::render, exp::tables)
    }),
    row("fig06", "fig06", 0xF166, 5, Some(""), |scale, seed, session, spec| {
        use fig06_firestarter as exp;
        let r = exp::run_checkpointed(&exp::Config::new(scale), seed, session, spec);
        grid(r, exp::render, exp::tables)
    }),
    row("fig07", "fig07", 0xF167, 6, Some(""), |scale, seed, session, spec| {
        use fig07_idle_power as exp;
        let r = exp::run_checkpointed(&exp::Config::new(scale), seed, session, spec);
        grid(r, exp::render, exp::tables)
    }),
    row("fig08", "fig08", 0xF168, 7, None, |scale, seed, _, _| {
        use fig08_wakeup as exp;
        narrow(&exp::run(&exp::Config::new(scale), seed), exp::render, exp::tables)
    }),
    row("fig09", "fig09", 0xF169, 8, Some(""), |scale, seed, session, spec| {
        use fig09_rapl_quality as exp;
        let r = exp::run_checkpointed(&exp::Config::new(scale), seed, session, spec);
        grid(r, exp::render, exp::tables)
    }),
    row("fig10-vxorps", "fig10", 0xF1610, 9, Some("-vxorps"), |scale, seed, session, spec| {
        use fig10_hamming as exp;
        let cfg = exp::Config::new(scale);
        let r = exp::run_checkpointed(&cfg, seed, KernelClass::VXorps, session, spec);
        grid(r, exp::render, exp::tables)
    }),
    row("fig10-shr", "fig10", 0xF1611, 10, Some("-shr"), |scale, seed, session, spec| {
        use fig10_hamming as exp;
        let cfg = exp::Config::new(scale);
        let r = exp::run_checkpointed(&cfg, seed, KernelClass::Shr, session, spec);
        grid(r, exp::render, exp::tables)
    }),
    row("sec5a", "sec5a", 0x5EC5A, 11, None, |_, seed, _, _| {
        use sec5a_sibling as exp;
        narrow(&exp::run(seed), exp::render, exp::tables)
    }),
    row("sec6b", "sec6b", 0x5EC6B, 12, None, |_, seed, _, _| {
        use sec6b_offline as exp;
        narrow(&exp::run(seed), exp::render, exp::tables)
    }),
    row("sec7", "sec7", 0x5EC7, 13, None, |_, seed, _, _| {
        use sec7_update_rate as exp;
        narrow(&exp::run(&exp::Config::default(), seed), exp::render, exp::tables)
    }),
    row("ext_manycore", "ext_manycore", 0xE87, 14, Some(""), |scale, seed, session, spec| {
        use ext_manycore as exp;
        let r = exp::run_checkpointed(&exp::Config::new(scale), seed, session, spec);
        grid(r, exp::render, exp::tables)
    }),
    row("ext_cstate_breakeven", "ext_breakeven", 0xB4EA, 15, None, |_, seed, _, _| {
        use ext_cstate_breakeven as exp;
        narrow(&exp::run(seed), exp::render, exp::tables)
    }),
];

/// `fig03 --anomaly`'s extra section, outside `all`: the §V-B
/// 2.5↔2.2 GHz sweep (seed `0xF163A`) and its ≥5 ms-wait control
/// (seed `0xF163B`), appended to the Fig. 3 report.
pub static FIG03_ANOMALY: Experiment =
    row("fig03-anomaly", "fig03", 0xF163A, 0xF163A, None, |scale, seed, _, _| {
        use fig03_transition as exp;
        let fast = exp::run(&exp::Config::anomaly(scale), seed);
        let control = exp::run(&exp::Config::anomaly_long_waits(scale), seed + 1);
        Ok(Some(Report {
            text: format!(
                "\n--- SS V-B anomaly: 2.5 <-> 2.2 GHz, waits 0-10 ms ---\n{}\
                 \n--- SS V-B anomaly control: waits >= 5 ms (effect must vanish) ---\n{}",
                exp::render(&fast),
                exp::render(&control)
            ),
            tables: exp::tables(&fast).into_iter().chain(exp::tables(&control)).collect(),
        }))
    });

/// The sections `bin` prints, in order: every entry for [`ALL`], the
/// entries naming `bin` otherwise.
pub fn sections(bin: &str) -> impl Iterator<Item = &'static Experiment> + '_ {
    EXPERIMENTS.iter().filter(move |e| bin == ALL || e.bin == bin)
}

/// The per-section binaries, each once, in table order ([`ALL`] not
/// included).
pub fn bins() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS
        .iter()
        .enumerate()
        .filter(|&(i, e)| i == 0 || EXPERIMENTS[i - 1].bin != e.bin)
        .map(|(_, e)| e.bin)
}

/// Whether `bin` honours `--halt-after`. The flag counts one grid's
/// checkpoint saves, so only a binary that folds exactly one grid
/// takes it (not `fig10`, not [`ALL`]).
pub fn can_halt(bin: &str) -> bool {
    sections(bin).filter(|e| e.grid.is_some()).count() == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Quick.pick(1, 100), 1);
        assert_eq!(Scale::Paper.pick(1, 100), 100);
    }

    #[test]
    fn the_table_lists_each_binary_once_in_report_order() {
        let bins: Vec<_> = bins().collect();
        assert_eq!(bins.len(), 15);
        assert_eq!(&bins[..3], ["fig01", "fig03", "tab1"]);
        assert_eq!(sections("fig10").count(), 2);
        assert_eq!(sections(ALL).count(), EXPERIMENTS.len());
        // `all`'s seeds are the section indices; no two sections share one.
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(e.all_seed, i as u64, "{}", e.name);
        }
    }

    #[test]
    fn grid_suffixes_follow_the_running_binary() {
        let fig07 = sections("fig07").next().unwrap();
        assert_eq!(fig07.suffix("fig07").as_deref(), Some(""));
        assert_eq!(fig07.suffix(ALL).as_deref(), Some("-fig07"));
        let shr = sections("fig10").nth(1).unwrap();
        assert_eq!(shr.suffix("fig10").as_deref(), Some("-shr"));
        assert_eq!(shr.suffix(ALL).as_deref(), Some("-fig10-shr"));
        assert_eq!(sections("fig04").next().unwrap().suffix(ALL), None);
        assert!(can_halt("fig09") && can_halt("tab1"));
        assert!(!can_halt("fig10") && !can_halt(ALL) && !can_halt("fig04"));
    }
}

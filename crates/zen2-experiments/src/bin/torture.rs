//! Scenario-torture soak: streams seeded random cases through the
//! session worker pool and audits every run against the physics
//! invariants (`zen2_sim::torture`), optionally re-running each case
//! through `System::run_scenario` directly and asserting bit-identical
//! `Run`s (differential mode).
//!
//! ```text
//! torture [--seed N] [--cases N] [--differential]
//!         [--workers N] [--shard-size N] [--obs PATH] [--progress]
//!         [--report PATH] [--inject-fault residency|trace|power [--inject-at I]]
//! ```
//!
//! Stdout carries only the deterministic audit summary, byte-identical
//! for any `--workers`/`--shard-size` split — including a `digest:`
//! line that hashes every delivered run (pristine, before any injected
//! fault) in case order, pinned by `tests/golden/torture.txt` for
//! `--seed 1 --cases 500 --differential`; throughput and telemetry
//! go to stderr. On a violation the offending case is re-run under
//! `--workers 1`, shrunk to a minimal scenario, and written to the
//! `--report` path (default `torture-reproducer.txt`) as a
//! self-contained reproducer; the process exits 1. `--inject-fault`
//! deliberately tampers one run (case `--inject-at`, default 0) to
//! drill exactly that pipeline. See `docs/TORTURE.md`.

use std::path::PathBuf;
use zen2_experiments::cli::{value, Accepts, Args};
use zen2_sim::torture::{
    check_case, generate_case, inject_fault, render_reproducer, shrink_scenario, Fault, RunDigest,
    Violation,
};
use zen2_sim::{Case, Run, Scenario, Session, System};

struct Cli {
    seed: u64,
    cases: u64,
    differential: bool,
    report: PathBuf,
    fault: Option<Fault>,
    inject_at: u64,
}

fn usage(message: &str) -> ! {
    eprintln!("torture: {message}");
    eprintln!(
        "usage: torture [--seed N] [--cases N] [--differential] [--workers N] \
         [--shard-size N] [--obs PATH] [--progress] [--report PATH] \
         [--inject-fault residency|trace|power [--inject-at I]]"
    );
    std::process::exit(2);
}

/// Parses the soak's own flags, and the session flags through the
/// shared [`Args`] parse.
fn parse_cli() -> (Cli, Args) {
    let mut cli = Cli {
        seed: 1,
        cases: 1000,
        differential: false,
        report: PathBuf::from("torture-reproducer.txt"),
        fault: None,
        inject_at: 0,
    };
    let args = Args::parse_with(Accepts::SESSION, std::env::args().skip(1), |flag, rest| {
        match flag {
            "--seed" => {
                let v = value(rest, flag)?;
                cli.seed = v.parse().map_err(|_| format!("--seed {v:?}: not a number"))?;
            }
            "--cases" => {
                let v = value(rest, flag)?;
                cli.cases = v.parse().map_err(|_| format!("--cases {v:?}: not a count"))?;
            }
            "--differential" => cli.differential = true,
            "--report" => cli.report = PathBuf::from(value(rest, flag)?),
            "--inject-fault" => {
                let v = value(rest, flag)?;
                cli.fault = Some(Fault::parse(&v).ok_or_else(|| {
                    format!("--inject-fault {v:?}: expected residency, trace, or power")
                })?);
            }
            "--inject-at" => {
                let v = value(rest, flag)?;
                cli.inject_at =
                    v.parse().map_err(|_| format!("--inject-at {v:?}: not an index"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    })
    .unwrap_or_else(|message| usage(&message));
    if cli.fault.is_some() && cli.inject_at >= cli.cases {
        usage("--inject-at must be below --cases");
    }
    (cli, args)
}

/// One case's audit: invariant check (on the possibly tampered run)
/// plus the differential comparison (always on the pristine run).
fn audit(cli: &Cli, index: u64, mut run: Run, case: &Case) -> (Vec<Violation>, usize) {
    let mut violations = Vec::new();
    if cli.differential {
        let direct = System::new(case.config.clone(), case.seed)
            .run_scenario(&case.scenario)
            .unwrap_or_else(|e| usage(&format!("case {index} failed validation: {e}")));
        if direct != run {
            violations.push(Violation::Differential {
                detail: format!(
                    "System::run_scenario and the streaming path disagree on case {index} \
                     (direct: {} measurements ending {} ns; streamed: {} ending {} ns)",
                    direct.measurements.len(),
                    direct.end_ns,
                    run.measurements.len(),
                    run.end_ns,
                ),
            });
        }
    }
    if cli.fault.is_some() && index == cli.inject_at {
        if let Some(fault) = cli.fault {
            inject_fault(case, &mut run, fault);
        }
    }
    let measured = run.measurements.len();
    violations.extend(check_case(case, &run));
    (violations, measured)
}

/// Re-runs one failing case alone (workers = 1), shrinks its scenario
/// to a minimal still-failing one, and renders the reproducer.
fn reproduce(cli: &Cli, index: u64, violations: &[Violation]) -> String {
    let case = generate_case(cli.seed, index);
    let single = Session::new().workers(1);
    let rerun = single
        .run(std::slice::from_ref(&case))
        .ok()
        .and_then(|mut runs| runs.pop())
        .map(|run| audit(cli, index, run, &case).0);
    let confirmed = rerun.as_deref().unwrap_or(violations);
    let mut fails = |sc: &Scenario| {
        let candidate = Case::new("shrink", case.config.clone(), sc.clone(), case.seed);
        if candidate.scenario.validate(&candidate.config).is_err() {
            return false;
        }
        let Ok(mut runs) = single.run(std::slice::from_ref(&candidate)) else { return false };
        let Some(run) = runs.pop() else { return false };
        !audit(cli, index, run, &candidate).0.is_empty()
    };
    let shrunk = shrink_scenario(&case.scenario, &mut fails);
    render_reproducer(cli.seed, index, &case, confirmed, &shrunk)
}

fn main() {
    let (cli, args) = parse_cli();
    let (session, stack) = args.session().unwrap_or_else(|message| usage(&message));

    let start_ns = zen2_obs::clock::now_ns();
    let mut failures: Vec<(u64, Vec<Violation>)> = Vec::new();
    let mut measured = 0usize;
    let mut digest = RunDigest::default();
    let outcome = session.run_streaming(zen2_sim::torture::cases(cli.seed, cli.cases), |i, run| {
        let index = i as u64;
        // Regeneration is cheap and deterministic, so the sink needs no
        // side channel to know which scenario produced this run.
        let case = generate_case(cli.seed, index);
        digest.fold(&run);
        let (violations, m) = audit(&cli, index, run, &case);
        measured += m;
        if !violations.is_empty() {
            failures.push((index, violations));
        }
    });
    if let Some(stack) = &stack {
        if let Err(message) = stack.finish() {
            eprintln!("torture: {message}");
            std::process::exit(1);
        }
    }
    let delivered = match outcome {
        Ok(n) => n,
        Err(error) => {
            eprintln!("torture: {error}");
            std::process::exit(1);
        }
    };
    let elapsed = zen2_obs::clock::secs_since(start_ns);
    eprintln!(
        "torture: {delivered} cases in {elapsed:.2} s ({:.0} cases/s incl. checking)",
        delivered as f64 / elapsed.max(1e-9)
    );

    // The deterministic audit summary — stdout only, no timing, so the
    // output is byte-identical for any --workers/--shard-size split.
    println!("torture soak: seed {}, {} cases", cli.seed, cli.cases);
    println!(
        "checked: {delivered} runs, {measured} measurements, differential {}",
        if cli.differential { "on" } else { "off" }
    );
    println!("digest: {:016x}", digest.value());
    match cli.fault {
        Some(fault) => println!("injected: {} fault at case {}", fault.kind(), cli.inject_at),
        None => println!("injected: none"),
    }
    println!("violations: {}", failures.iter().map(|(_, v)| v.len()).sum::<usize>());
    for (index, violations) in &failures {
        for v in violations {
            println!("  case {index}: {v}");
        }
    }

    if let Some((index, violations)) = failures.first() {
        let report = reproduce(&cli, *index, violations);
        if let Err(e) = std::fs::write(&cli.report, &report) {
            eprintln!("torture: writing {}: {e}", cli.report.display());
        } else {
            eprintln!("torture: reproducer written to {}", cli.report.display());
        }
        std::process::exit(1);
    }
}

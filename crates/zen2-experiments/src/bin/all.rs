//! Runs every experiment and prints the full paper-vs-measured report,
//! each section as it finishes (`--json`: one array of every summary
//! table at the end). Flags: `zen2_experiments::cli`.
//!
//! `--checkpoint <prefix>` keeps one file per wide grid
//! (`<prefix>-fig06`, `<prefix>-fig09`, …), so a killed `--paper` suite
//! resumed with the same flags re-runs only the unfinished grid and
//! re-emits the finished ones from their checkpoints (see
//! `docs/SWEEPS.md`). `--shard-range` folds only the grids' slice for
//! `zen2-fleet`. `--progress` announces each section on stderr.
fn main() {
    zen2_experiments::cli::main(zen2_experiments::ALL);
}

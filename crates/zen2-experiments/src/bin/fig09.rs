//! Regenerates Fig. 9 (RAPL quality vs the AC reference) through the
//! streaming sweep engine. Flags: `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("fig09");
}

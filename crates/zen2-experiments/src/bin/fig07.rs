//! Regenerates Fig. 7 (idle-state power staircase) through the
//! streaming sweep engine. Flags: `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("fig07");
}

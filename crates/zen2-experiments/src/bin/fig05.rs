//! Regenerates Fig. 5 (I/O-die P-state and DRAM frequency sweep).
//! Flags: `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("fig05");
}

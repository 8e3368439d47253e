//! Regenerates Fig. 8 (C-state wakeup latencies). Flags:
//! `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("fig08");
}

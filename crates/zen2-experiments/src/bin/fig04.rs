//! Regenerates Fig. 4 (L3 latency under mixed frequencies). Flags:
//! `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("fig04");
}

//! Regenerates Fig. 6 (FIRESTARTER throttling with and without SMT)
//! through the streaming sweep engine. Flags: `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("fig06");
}

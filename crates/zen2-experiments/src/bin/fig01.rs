//! Regenerates Fig. 1 (Green500 efficiency by architecture). Flags:
//! `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("fig01");
}

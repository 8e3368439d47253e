//! Regenerates the §VII RAPL update-rate measurement. Flags:
//! `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("sec7");
}

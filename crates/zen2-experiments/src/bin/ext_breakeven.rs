//! Prints the informed C-state break-even analysis (extension). Flags:
//! `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("ext_breakeven");
}

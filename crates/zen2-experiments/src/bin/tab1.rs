//! Regenerates Table I (mixed frequencies on one CCX) through the
//! streaming sweep engine. Flags: `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("tab1");
}

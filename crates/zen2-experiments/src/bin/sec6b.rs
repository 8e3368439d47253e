//! Regenerates the §VI-B observation (offline threads block package C6).
//! Flags: `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("sec6b");
}

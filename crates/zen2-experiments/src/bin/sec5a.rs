//! Regenerates the §V-A observation (idle/offline sibling raises the core
//! frequency). Flags: `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("sec5a");
}

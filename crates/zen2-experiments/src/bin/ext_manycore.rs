//! Runs the many-core throttling prediction (paper §VIII future work)
//! through the streaming sweep engine. Flags: `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("ext_manycore");
}

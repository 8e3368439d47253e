//! Regenerates Fig. 3 (transition-delay histogram); `--anomaly` adds
//! the §V-B 2.2↔2.5 GHz sweeps. Flags: `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("fig03");
}

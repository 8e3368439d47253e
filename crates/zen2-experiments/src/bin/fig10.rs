//! Regenerates Fig. 10 (operand-Hamming-weight power ECDFs) for the
//! 256-bit vxorps sweep and the 64-bit shr contrast, one checkpoint file
//! per kernel (`<path>-vxorps`, `<path>-shr`). Flags:
//! `zen2_experiments::cli`.
fn main() {
    zen2_experiments::cli::main("fig10");
}

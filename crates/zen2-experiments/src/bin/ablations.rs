//! Functional ablations: re-run key paper results with one mechanism
//! removed at a time, showing that each modeled mechanism is load-bearing
//! for the corresponding observation.
//!
//! ```sh
//! cargo run --release -p zen2-experiments --bin ablations
//! ```

use zen2_isa::{KernelClass, OperandWeight};
use zen2_sim::perf::ThreadCounters;
use zen2_sim::{SimConfig, System};
use zen2_topology::{CoreId, ThreadId};

fn table1_cell(cfg: SimConfig) -> f64 {
    // The Table I (2.2 GHz under 2.5 GHz neighbors) cell.
    let mut sys = System::new(cfg, 1);
    for t in 0..8u32 {
        sys.set_workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
        sys.set_thread_pstate_mhz(ThreadId(t), if t < 2 { 2200 } else { 2500 });
    }
    sys.run_for_secs(0.05);
    let before = sys.counters(ThreadId(0));
    sys.run_for_secs(0.2);
    ThreadCounters::effective_ghz(&before, &sys.counters(ThreadId(0)), 2.5)
}

fn firestarter_equilibrium(cfg: SimConfig) -> (f64, f64) {
    let mut sys = System::new(cfg, 2);
    for t in 0..128u32 {
        sys.set_workload(ThreadId(t), KernelClass::Firestarter, OperandWeight::HALF);
    }
    sys.run_for_secs(0.2);
    sys.preheat();
    sys.run_for_secs(0.1);
    let t0 = sys.now_ns();
    sys.run_for_secs(0.5);
    (sys.effective_core_ghz(CoreId(0)), sys.trace_mean_w(t0, sys.now_ns()))
}

fn one_c1_power(cfg: SimConfig) -> f64 {
    let mut sys = System::new(cfg, 3);
    sys.set_cstate_enabled(ThreadId(64), 2, false); // a socket-1 thread
    sys.run_for_secs(0.05);
    let t0 = sys.now_ns();
    sys.run_for_secs(0.3);
    sys.trace_mean_w(t0, sys.now_ns())
}

fn fast_path_fraction(cfg: SimConfig) -> f64 {
    // Fraction of quick 2.2->2.5 GHz returns that complete in under 5 us.
    let mut sys = System::new(cfg, 4);
    sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
    sys.run_for_secs(0.02);
    let mut fast = 0;
    let n = 200;
    for _ in 0..n {
        sys.set_thread_pstate_mhz(ThreadId(1), 2200);
        sys.set_thread_pstate_mhz(ThreadId(0), 2200);
        sys.run_for_secs(0.002);
        let t0 = sys.now_ns();
        // The core transition triggers on whichever sibling request first
        // raises the core-level maximum.
        let a = sys.set_thread_pstate_mhz(ThreadId(1), 2500);
        let b = sys.set_thread_pstate_mhz(ThreadId(0), 2500);
        if let Some(p) = a.or(b) {
            if p.completes_at - t0 < 5_000 {
                fast += 1;
            }
        }
        sys.run_for_secs(0.002);
    }
    fast as f64 / n as f64
}

fn main() {
    println!("=== zen2-ee ablation study: remove one mechanism at a time ===\n");

    println!("[1] CCX clock coupling -> Table I cell (set 2.2 GHz, neighbors 2.5 GHz)");
    let base = table1_cell(SimConfig::epyc_7502_2s());
    let mut cfg = SimConfig::epyc_7502_2s();
    cfg.ccx_coupling = false;
    let ablated = table1_cell(cfg);
    println!("    with coupling (paper: 2.000 GHz): {base:.3} GHz");
    println!("    without coupling:                 {ablated:.3} GHz (the penalty disappears)\n");

    println!("[2] PPT/EDC telemetry loop -> FIRESTARTER equilibrium (paper: 2.03 GHz, 509 W)");
    let (f_base, w_base) = firestarter_equilibrium(SimConfig::epyc_7502_2s());
    let mut cfg = SimConfig::epyc_7502_2s();
    cfg.controller.enabled = false;
    let (f_abl, w_abl) = firestarter_equilibrium(cfg);
    println!("    with the manager:    {f_base:.3} GHz, {w_base:.0} W AC");
    println!("    without the manager: {f_abl:.3} GHz, {w_abl:.0} W AC (unconstrained draw)\n");

    println!("[3] global package-C6 criterion -> one C1 thread on socket 1 (paper: +81.2 W)");
    let base = one_c1_power(SimConfig::epyc_7502_2s());
    let mut cfg = SimConfig::epyc_7502_2s();
    cfg.global_package_c6 = false;
    let ablated = one_c1_power(cfg);
    println!("    global criterion (Rome behavior): {base:.1} W");
    println!("    per-package criterion (ablation): {ablated:.1} W (socket 0 stays asleep)\n");

    println!("[4] SMU settle-window fast path -> instantaneous 2.2->2.5 GHz returns (SS V-B)");
    let base = fast_path_fraction(SimConfig::epyc_7502_2s());
    let mut cfg = SimConfig::epyc_7502_2s();
    cfg.smu.fast_path_enabled = false;
    let ablated = fast_path_fraction(cfg);
    println!("    with the latched state: {:.0} % of quick returns are ~1 us", base * 100.0);
    println!("    without it:             {:.0} %\n", ablated * 100.0);

    println!("[5] offline-parking kernel behavior -> SS VI-B anomaly");
    let mut sys = System::new(SimConfig::epyc_7502_2s(), 6);
    sys.set_online(ThreadId(1), false);
    sys.run_for_secs(0.2);
    let anomalous = sys.ac_power_w();
    let mut cfg = SimConfig::epyc_7502_2s();
    cfg.os.offline_parks_in_c1 = false;
    let mut sys = System::new(cfg, 6);
    sys.set_online(ThreadId(1), false);
    sys.run_for_secs(0.2);
    println!("    offline parks in C1 (observed):  {anomalous:.1} W");
    println!("    clean parking (hypothetical):    {:.1} W", sys.ac_power_w());
}

//! Whole-system power evaluation for one machine state.
//!
//! Given a snapshot of thread states, workloads and clocks, computes the
//! true DC/AC power (what the LMG670 sees) and the SMU's estimated powers
//! (what RAPL reports and the PPT loop regulates), plus DRAM traffic.
//! The simulator calls this at every state change; power is constant
//! between changes, so energy integration is exact.

use crate::config::SimConfig;
use crate::cstate::{classify_core, CoreIdleClass, ThreadState};
use zen2_isa::{KernelClass, OperandWeight, SmtMode, WorkloadSet};
use zen2_mem::ClockPlan;

/// A full power evaluation of one machine state.
#[derive(Debug, Clone)]
pub struct PowerBreakdown {
    /// True DC power per core (active, clock-gate residual, or 0).
    pub core_true_w: Vec<f64>,
    /// SMU-estimated power per core.
    pub core_est_w: Vec<f64>,
    /// True package power (base + cores, with leakage feedback).
    pub pkg_true_w: Vec<f64>,
    /// SMU-estimated package power.
    pub pkg_est_w: Vec<f64>,
    /// Whether each package is awake (out of PC6).
    pub pkg_awake: Vec<bool>,
    /// Total DRAM traffic in GB/s after per-CCD capping.
    pub dram_traffic_gbs: f64,
    /// DIMM power.
    pub dram_w: f64,
    /// Total DC power (packages + DRAM + platform).
    pub dc_w: f64,
    /// Wall (AC) power.
    pub ac_w: f64,
}

/// Inputs that vary at runtime (everything else comes from [`SimConfig`]).
pub struct MachineState<'a> {
    /// Scheduling state per hardware thread.
    pub thread_states: &'a [ThreadState],
    /// Workload per thread (`None` while idle).
    pub workloads: &'a [Option<(KernelClass, OperandWeight)>],
    /// Effective (post-coupling) frequency per core, GHz.
    pub core_eff_ghz: &'a [f64],
    /// Supply voltage per core.
    pub core_voltage: &'a [f64],
    /// Die temperature per package, °C.
    pub die_temp_c: &'a [f64],
    /// Slow estimate-noise per core (resampled on workload changes).
    pub est_noise_w: &'a [f64],
}

/// Which packages are awake (out of PC6) in a scheduling state: under
/// the global package-C6 criterion every package wakes when any thread
/// blocks PC6, under the per-package ablation only that thread's own.
pub(crate) fn package_awake(cfg: &SimConfig, thread_states: &[ThreadState]) -> Vec<bool> {
    let topo = &cfg.topology;
    let offline_c1 = cfg.os.offline_parks_in_c1;
    let blocks = |t: &ThreadState| !t.allows_package_c6(offline_c1);
    if cfg.global_package_c6 {
        vec![thread_states.iter().any(blocks); topo.num_sockets()]
    } else {
        let per_pkg = topo.cores_per_socket() * topo.threads_per_core();
        thread_states.chunks(per_pkg).map(|pkg| pkg.iter().any(blocks)).collect()
    }
}

/// Evaluates the power of a machine state with the machine's kernel
/// table.
pub fn evaluate(
    cfg: &SimConfig,
    kernels: &WorkloadSet,
    state: &MachineState<'_>,
) -> PowerBreakdown {
    let topo = &cfg.topology;
    let num_cores = topo.num_cores();
    let num_pkgs = topo.num_sockets();
    let tpc = topo.threads_per_core();
    let offline_c1 = cfg.os.offline_parks_in_c1;
    let pkg_awake = package_awake(cfg, state.thread_states);

    let mut core_true_w = vec![0.0; num_cores];
    let mut core_est_w = vec![0.0; num_cores];
    let mut ccd_demand_gbs = vec![0.0; topo.num_ccds()];

    for core_idx in 0..num_cores {
        let core = zen2_topology::CoreId::from_index(core_idx);
        let pkg = topo.socket_of_core(core).index();
        if !pkg_awake[pkg] {
            continue;
        }
        let t0 = core_idx * tpc;
        let threads = &state.thread_states[t0..t0 + tpc];
        let die_c = state.die_temp_c[pkg];
        match classify_core(threads, offline_c1) {
            CoreIdleClass::Active { active_threads } => {
                let f = state.core_eff_ghz[core_idx];
                let v = state.core_voltage[core_idx];
                let smt = SmtMode::from_active(active_threads);
                // The kernel/weight of the first active thread drives the
                // core model; mixed-kernel cores take the busier kernel
                // (experiments never mix kernels within a core).
                let (class, weight) = (0..tpc)
                    .filter(|&i| threads[i].is_active())
                    .filter_map(|i| state.workloads[t0 + i])
                    .next()
                    .unwrap_or((KernelClass::Idle, OperandWeight::HALF));
                let kernel = kernels.kernel(class);
                core_true_w[core_idx] = cfg.power.core.active_power_w(kernel, smt, f, v, weight);
                core_est_w[core_idx] = cfg.rapl.core_estimate_w(kernel, smt, f, v, die_c)
                    + state.est_noise_w[core_idx];
                let ccd = topo.ccd_of_core(core).index();
                // zen2-lint: allow(float-order) — accumulates in ascending core-index order, fixed by the topology
                ccd_demand_gbs[ccd] += kernel.dram_demand_bytes_per_s(smt, f * 1e9) / 1e9;
            }
            CoreIdleClass::ClockGated => {
                core_true_w[core_idx] = cfg.power.core.c1_power_w();
                core_est_w[core_idx] = cfg.rapl.idle_core_estimate_w(die_c);
            }
            CoreIdleClass::PowerGated => {
                core_true_w[core_idx] = cfg.power.core.c2_power_w();
                core_est_w[core_idx] = cfg.rapl.idle_core_estimate_w(die_c);
            }
        }
    }

    // Cap per-CCD DRAM demand at the fabric/DRAM capacity.
    let plan = ClockPlan::resolve(cfg.iod_pstate, cfg.dram);
    let ccd_cap = cfg.bandwidth.link_cap_gbs(&plan).min(cfg.bandwidth.dram_cap_gbs(&plan));
    // zen2-lint: allow(float-order) — one pass in ascending CCD-index order, fixed by the topology
    let dram_traffic_gbs: f64 = ccd_demand_gbs.iter().map(|&d| d.min(ccd_cap)).sum();

    let any_awake = pkg_awake.iter().any(|&a| a);
    let dram_w = if any_awake {
        cfg.power.dram.power_w(dram_traffic_gbs)
    } else {
        cfg.power.dram.self_refresh_w()
    };

    let mut pkg_true_w = vec![0.0; num_pkgs];
    let mut pkg_est_w = vec![0.0; num_pkgs];
    for pkg in 0..num_pkgs {
        let cores = pkg * topo.cores_per_socket()..(pkg + 1) * topo.cores_per_socket();
        // zen2-lint: allow(float-order) — one pass in ascending core-index order, fixed by the topology
        let cores_true: f64 = core_true_w[cores.clone()].iter().sum();
        // zen2-lint: allow(float-order) — one pass in ascending core-index order, fixed by the topology
        let cores_est: f64 = core_est_w[cores].iter().sum();
        if pkg_awake[pkg] {
            let base = cfg.power.package.awake_base_w(cfg.iod_pstate, cfg.dram);
            let leak = cfg.power.leakage.multiplier(state.die_temp_c[pkg]);
            pkg_true_w[pkg] = (base + cores_true) * leak;
        } else {
            pkg_true_w[pkg] = cfg.power.package.sleeping_w();
        }
        pkg_est_w[pkg] = cfg.rapl.package_estimate_w(cores_est, pkg_awake[pkg]);
    }

    // zen2-lint: allow(float-order) — one pass in ascending package-index order, fixed by the topology
    let dc_w = pkg_true_w.iter().sum::<f64>() + dram_w + cfg.power.platform_dc_w;
    let ac_w = cfg.power.psu.ac_from_dc(dc_w);

    PowerBreakdown {
        core_true_w,
        core_est_w,
        pkg_true_w,
        pkg_est_w,
        pkg_awake,
        dram_traffic_gbs,
        dram_w,
        dc_w,
        ac_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_state(
        cfg: &SimConfig,
    ) -> (Vec<ThreadState>, Vec<Option<(KernelClass, OperandWeight)>>) {
        let n = cfg.topology.num_threads();
        (vec![ThreadState::C2; n], vec![None; n])
    }

    fn eval_with(
        cfg: &SimConfig,
        threads: &[ThreadState],
        workloads: &[Option<(KernelClass, OperandWeight)>],
    ) -> PowerBreakdown {
        let cores = cfg.topology.num_cores();
        let pkgs = cfg.topology.num_sockets();
        let state = MachineState {
            thread_states: threads,
            workloads,
            core_eff_ghz: &vec![2.5; cores],
            core_voltage: &vec![1.0; cores],
            die_temp_c: &vec![68.0; pkgs],
            est_noise_w: &vec![0.0; cores],
        };
        evaluate(cfg, &WorkloadSet::paper(), &state)
    }

    #[test]
    fn all_c2_idles_at_fig7_floor() {
        let cfg = SimConfig::epyc_7502_2s();
        let (threads, workloads) = idle_state(&cfg);
        let b = eval_with(&cfg, &threads, &workloads);
        assert!(!b.pkg_awake[0] && !b.pkg_awake[1]);
        assert!((b.ac_w - 99.1).abs() < 1.5, "all-C2 floor {:.1} W", b.ac_w);
    }

    #[test]
    fn one_c1_thread_costs_the_package_wake_adder() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, workloads) = idle_state(&cfg);
        threads[0] = ThreadState::C1;
        let b = eval_with(&cfg, &threads, &workloads);
        assert!(b.pkg_awake[0] && b.pkg_awake[1], "global criterion wakes both");
        assert!((b.ac_w - 180.3).abs() < 2.0, "one-C1 level {:.1} W", b.ac_w);
    }

    #[test]
    fn additional_c1_cores_cost_90_milliwatts() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, workloads) = idle_state(&cfg);
        threads[0] = ThreadState::C1;
        let one = eval_with(&cfg, &threads, &workloads);
        threads[2] = ThreadState::C1; // second core's first thread
        let two = eval_with(&cfg, &threads, &workloads);
        let delta = two.ac_w - one.ac_w;
        assert!((delta - 0.09).abs() < 0.01, "per-C1-core delta {delta:.3} W");
        // The sibling thread of an already-C1 core adds nothing.
        threads[1] = ThreadState::C1;
        let sib = eval_with(&cfg, &threads, &workloads);
        assert!((sib.ac_w - two.ac_w).abs() < 1e-9);
    }

    #[test]
    fn offline_anomaly_holds_power_at_c1_level() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, workloads) = idle_state(&cfg);
        threads[64] = ThreadState::Offline;
        let b = eval_with(&cfg, &threads, &workloads);
        assert!(b.pkg_awake[0], "offline thread blocks PC6");
        assert!((b.ac_w - 180.3).abs() < 2.0, "anomaly level {:.1} W", b.ac_w);

        // Ablation: a kernel that parks offline threads cleanly.
        let mut cfg2 = SimConfig::epyc_7502_2s();
        cfg2.os.offline_parks_in_c1 = false;
        let b2 = eval_with(&cfg2, &threads, &workloads);
        assert!((b2.ac_w - 99.1).abs() < 1.5, "clean parking restores the floor");
    }

    #[test]
    fn active_pause_core_costs_a_third_of_a_watt() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, mut workloads) = idle_state(&cfg);
        threads[0] = ThreadState::Active;
        workloads[0] = Some((KernelClass::Pause, OperandWeight::HALF));
        let one = eval_with(&cfg, &threads, &workloads);
        threads[2] = ThreadState::Active;
        workloads[2] = Some((KernelClass::Pause, OperandWeight::HALF));
        let two = eval_with(&cfg, &threads, &workloads);
        let delta = two.ac_w - one.ac_w;
        assert!((delta - 0.33).abs() < 0.03, "per-active-core delta {delta:.3} W");
    }

    #[test]
    fn memory_workload_power_is_invisible_to_rapl() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, mut workloads) = idle_state(&cfg);
        for t in 0..64 {
            threads[t * 2] = ThreadState::Active;
            workloads[t * 2] = Some((KernelClass::MemoryRead, OperandWeight::HALF));
        }
        let b = eval_with(&cfg, &threads, &workloads);
        assert!(b.dram_traffic_gbs > 50.0, "traffic {:.0} GB/s", b.dram_traffic_gbs);
        assert!(b.dram_w > cfg.power.dram.standby_w());
        // The estimate has no DRAM term: package estimate stays core-side.
        let est: f64 = b.pkg_est_w.iter().sum();
        let truth: f64 = b.pkg_true_w.iter().sum::<f64>() + b.dram_w;
        assert!(est < truth * 0.8, "est {est:.0} W vs true-with-dram {truth:.0} W");
    }

    #[test]
    fn dram_demand_is_capped_per_ccd() {
        let cfg = SimConfig::epyc_7502_2s();
        let (mut threads, mut workloads) = idle_state(&cfg);
        for t in 0..128 {
            threads[t] = ThreadState::Active;
            workloads[t] = Some((KernelClass::MemoryRead, OperandWeight::HALF));
        }
        let b = eval_with(&cfg, &threads, &workloads);
        let plan = ClockPlan::resolve(cfg.iod_pstate, cfg.dram);
        let cap = cfg.bandwidth.link_cap_gbs(&plan).min(cfg.bandwidth.dram_cap_gbs(&plan));
        assert!(b.dram_traffic_gbs <= cap * cfg.topology.num_ccds() as f64 + 1e-9);
    }
}

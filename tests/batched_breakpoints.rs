//! A scenario breakpoint applies every Op due at its instant as one
//! batch — each Op mutates machine state, then clocks and power
//! re-resolve once. That must be indistinguishable from applying the
//! same Ops one by one through `System`'s public setters, which
//! re-resolve after each: same power breakdown, clocks, counters,
//! energy, temperatures, P-state registers and event records, bit for
//! bit — package wake-and-sleep pairs inside one instant included.
//!
//! One named exception: the AC power trace behind `trace_mean_w`. It
//! records a new segment only when an evaluation moves AC power by more
//! than 1e-9 W from the previous evaluation, so what it holds depends on
//! how many evaluations an instant makes. Op by op, an instant whose Ops
//! move power away and back leaves an extra segment boundary (the sum
//! re-associates), and one whose last Op moves power by less than the
//! threshold leaves the earlier value; the batch evaluates once. The
//! trace mean is therefore held to that 1e-9 W threshold rather than to
//! the bit.

use zen2_ee::prelude::*;
use zen2_msr::address::{PSTATE_CTL, PSTATE_STAT};
use zen2_sim::scenario::{Op, Step};
use zen2_sim::time::Ns;
use zen2_sim::torture::{generate_case, rebuild};
use zen2_sim::trace::{Event, Record};

/// `steps` (time-sorted) with their times collapsed onto 1–3 shared
/// instants, order kept: the steps split into contiguous groups and each
/// group moves to its first step's time. The torture generator draws
/// times in ns over tens of ms, so without this it almost never puts two
/// Ops on one instant.
fn collapse(steps: &[Step], groups: usize) -> Vec<Step> {
    let per_group = steps.len().div_ceil(groups);
    steps
        .chunks(per_group)
        .flat_map(|chunk| chunk.iter().map(|s| Step { at: chunk[0].at, op: s.op }))
        .collect()
}

/// Applies one Op through the public, immediately re-resolving setters.
fn apply(sys: &mut System, op: Op) {
    match op {
        Op::Workload { thread, class, weight } => sys.set_workload(thread, class, weight),
        Op::Idle { thread } => sys.set_idle(thread),
        Op::PstateMhz { thread, mhz } => {
            let _ = sys.set_thread_pstate_mhz(thread, mhz);
        }
        Op::CstateEnabled { thread, level, enabled } => {
            sys.set_cstate_enabled(thread, level, enabled)
        }
        Op::Online { thread, online } => sys.set_online(thread, online),
        Op::Preheat => sys.preheat(),
        Op::Tracing(enabled) => sys.set_tracing(enabled),
    }
}

/// Everything observable about a machine after a run, floats as bits.
#[derive(Debug, PartialEq)]
struct Observed {
    breakdown: Vec<u64>,
    pkg_awake: Vec<bool>,
    core_ghz: Vec<u64>,
    counters: Vec<u64>,
    ac_energy_j: u64,
    die_temp_c: Vec<u64>,
    pstate_regs: Vec<(u64, u64)>,
    records: Vec<Record>,
}

fn observe(sys: &System) -> Observed {
    let topo = &sys.config().topology;
    let b = sys.power_breakdown();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut breakdown = Vec::new();
    for v in [&b.core_true_w, &b.core_est_w, &b.pkg_true_w, &b.pkg_est_w] {
        breakdown.extend(bits(v));
    }
    breakdown.extend(bits(&[b.dram_traffic_gbs, b.dram_w, b.dc_w, b.ac_w]));
    let threads = (0..topo.num_threads() as u32).map(ThreadId);
    Observed {
        breakdown,
        pkg_awake: b.pkg_awake.clone(),
        core_ghz: (0..topo.num_cores() as u32)
            .map(|c| sys.effective_core_ghz(CoreId(c)).to_bits())
            .collect(),
        counters: threads
            .clone()
            .flat_map(|t| {
                let c = sys.counters(t);
                bits(&[c.tsc, c.aperf, c.mperf, c.cycles, c.instructions])
            })
            .collect(),
        ac_energy_j: sys.ac_energy_j().to_bits(),
        die_temp_c: (0..topo.num_sockets() as u32)
            .map(|s| sys.die_temp_c(SocketId(s)).to_bits())
            .collect(),
        pstate_regs: threads
            .map(|t| (sys.msrs().peek(t, PSTATE_CTL), sys.msrs().peek(t, PSTATE_STAT)))
            .collect(),
        records: sys.tracer().records().to_vec(),
    }
}

/// The AC trace's recording threshold (see the module docs).
const TRACE_THRESHOLD_W: f64 = 1e-9;

/// Runs `steps` to `end` both ways, tracing on from boot, and asserts
/// the two machines' trace means over the whole run agree within the
/// recording threshold.
fn both_ways(config: &SimConfig, seed: u64, steps: &[Step], end: Ns) -> (Observed, Observed) {
    let mut batched = System::new(config.clone(), seed);
    batched.set_tracing(true);
    batched.run_scenario(&rebuild(steps, &[], end)).expect("collapsing keeps the Op order valid");

    let mut one_by_one = System::new(config.clone(), seed);
    one_by_one.set_tracing(true);
    for step in steps {
        if step.at > one_by_one.now_ns() {
            one_by_one.run_for_ns(step.at - one_by_one.now_ns());
        }
        apply(&mut one_by_one, step.op);
    }
    if end > one_by_one.now_ns() {
        one_by_one.run_for_ns(end - one_by_one.now_ns());
    }
    let (a, b) = (batched.trace_mean_w(0, end), one_by_one.trace_mean_w(0, end));
    assert!((a - b).abs() <= TRACE_THRESHOLD_W, "trace means {a} vs {b} over {steps:?}");
    (observe(&batched), observe(&one_by_one))
}

#[test]
fn a_batched_breakpoint_equals_op_by_op_application() {
    let mut shared_instants = 0;
    for index in 0..1000u64 {
        let case = generate_case(0xBA7C, index);
        let mut steps = case.scenario.steps().to_vec();
        if steps.len() < 2 {
            continue;
        }
        steps.sort_by_key(|s| s.at);
        let steps = collapse(&steps, 1 + (case.seed % 3) as usize);
        shared_instants += steps.windows(2).filter(|w| w[0].at == w[1].at).count();
        let (batched, one_by_one) = both_ways(&case.config, case.seed, &steps, case.scenario.end());
        assert_eq!(batched, one_by_one, "case {index}: {steps:?}");
    }
    assert!(shared_instants > 2000, "only {shared_instants} Ops shared an instant");
}

#[test]
fn a_package_that_wakes_and_sleeps_in_one_instant_keeps_both_records() {
    let config = SimConfig::epyc_7502_2s();
    let at = 3_000_000;
    let steps: Vec<Step> = [
        Op::Workload {
            thread: ThreadId(4),
            class: KernelClass::Pause,
            weight: OperandWeight::HALF,
        },
        Op::Idle { thread: ThreadId(4) },
    ]
    .into_iter()
    .map(|op| Step { at, op })
    .collect();
    let (batched, one_by_one) = both_ways(&config, 9, &steps, 2 * at);
    assert_eq!(batched, one_by_one);
    let sleeps: Vec<bool> = batched
        .records
        .iter()
        .filter(|r| r.at_ns == at)
        .filter_map(|r| match r.event {
            Event::PackageSleep { asleep, .. } => Some(asleep),
            _ => None,
        })
        .collect();
    // Both packages wake (global PC6 criterion), then both sleep again.
    assert_eq!(sleeps, [false, false, true, true]);
}

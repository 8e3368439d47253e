//! Determinism guarantees of the declarative scenario machinery: the same
//! `(SimConfig, Scenario, seed)` produces byte-identical [`Run`]s no
//! matter how it is executed — directly, twice, forked from a prototype,
//! or through [`Session`] pools of any worker count.

use zen2_ee::prelude::*;

/// A scenario touching every probe family: workloads, DVFS, C-states,
/// hotplug, pre-heat, counters, RAPL, metered AC and wakeup sampling.
fn rich_scenario() -> Scenario {
    let mut sc = Scenario::new();
    sc.at_secs(0.0)
        .workload(ThreadId(0), KernelClass::Firestarter, OperandWeight::HALF)
        .workload(ThreadId(2), KernelClass::AddPd, OperandWeight(0.8))
        .pstate(ThreadId(4), 1500)
        .cstate(ThreadId(6), 2, false)
        .online(ThreadId(9), false);
    sc.at_secs(0.1).preheat();
    sc.at_secs(0.15).idle(ThreadId(2)).online(ThreadId(9), true);

    sc.probe("ac_true", Probe::AcTrueMeanW, Window::span_secs(0.05, 0.35));
    sc.probe("ac_metered", Probe::AcMeteredW, Window::span_secs(0.05, 0.35));
    sc.probe("meter", Probe::MeterSamples, Window::span_secs(0.05, 0.35));
    sc.probe("rapl", Probe::RaplW, Window::span_secs(0.05, 0.35));
    sc.probe("perf", Probe::CounterDelta(ThreadId(0)), Window::span_secs(0.05, 0.35));
    sc.probe(
        "series",
        Probe::CounterSeries { thread: ThreadId(0), every: 50_000_000 },
        Window::span_secs(0.05, 0.35),
    );
    sc.probe(
        "wakeups",
        Probe::WakeupSamples { caller: ThreadId(0), callee: ThreadId(16), count: 20, gap: 200_000 },
        Window::span_secs(0.36, 0.36 + 20.0 * 0.0002),
    );
    sc.probe("energy", Probe::AcEnergyJ, Window::span_secs(0.0, 0.4));
    sc.probe("ghz", Probe::EffectiveGhz(CoreId(0)), Window::at_secs(0.4));
    sc.probe("pkg", Probe::PkgTrueW(SocketId(0)), Window::at_secs(0.4));
    sc.probe("rapl_core0", Probe::RaplCoreW(CoreId(0)), Window::span_secs(0.05, 0.35));
    sc.probe("l3", Probe::L3LatencyNs(CoreId(0)), Window::at_secs(0.4));
    sc.probe(
        "events",
        Probe::TraceEvents(EventFilter::PackageSleep(SocketId(0))),
        Window::span_secs(0.0, 0.4),
    );
    sc
}

/// Each case booted from scratch and run directly, outside any session:
/// the reference every forked, pooled execution must reproduce.
fn fresh_boots(batch: &[Case]) -> Vec<Run> {
    batch
        .iter()
        .map(|case| {
            System::new(case.config.clone(), case.seed).run_scenario(&case.scenario).unwrap()
        })
        .collect()
}

fn cases(n: u64) -> Vec<Case> {
    (0..n)
        .map(|i| {
            Case::new(format!("case{i}"), SimConfig::epyc_7502_2s(), rich_scenario(), 1000 + i)
        })
        .collect()
}

#[test]
fn same_inputs_same_run_twice() {
    let sc = rich_scenario();
    let a = System::new(SimConfig::epyc_7502_2s(), 77).run_scenario(&sc).unwrap();
    let b = System::new(SimConfig::epyc_7502_2s(), 77).run_scenario(&sc).unwrap();
    assert_eq!(a, b);
    // Byte-identical, not merely approximately equal.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn forked_prototype_matches_fresh_boot() {
    let sc = rich_scenario();
    let proto = System::new(SimConfig::epyc_7502_2s(), 0);
    let via_fork = proto.fork(123).run_scenario(&sc).unwrap();
    let via_new = System::new(SimConfig::epyc_7502_2s(), 123).run_scenario(&sc).unwrap();
    assert_eq!(via_fork, via_new);
    assert_eq!(format!("{via_fork:?}"), format!("{via_new:?}"));
}

#[test]
fn session_results_are_independent_of_worker_count() {
    let batch = cases(8);
    let serial = Session::new().workers(1).run(&batch).unwrap();
    let parallel = Session::new().workers(4).run(&batch).unwrap();
    let oversubscribed = Session::new().workers(64).run(&batch).unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial, oversubscribed);
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

#[test]
fn session_boot_reuse_does_not_change_results() {
    let batch = cases(4);
    let reused = Session::new().workers(2).run(&batch).unwrap();
    assert_eq!(reused, fresh_boots(&batch));
}

#[test]
fn different_seeds_differ() {
    // The stochastic surfaces (meter noise, wakeup jitter) must actually
    // flow from the seed, or the determinism tests above prove nothing.
    let sc = rich_scenario();
    let a = System::new(SimConfig::epyc_7502_2s(), 1).run_scenario(&sc).unwrap();
    let b = System::new(SimConfig::epyc_7502_2s(), 2).run_scenario(&sc).unwrap();
    assert_ne!(a.samples("meter"), b.samples("meter"));
    assert_ne!(a.durations_ns("wakeups"), b.durations_ns("wakeups"));
    // ...while the deterministic physics agree.
    assert_eq!(a.ghz("ghz"), b.ghz("ghz"));
}

#[test]
fn run_scenario_validates_against_live_machine_state() {
    // A machine that already has work scheduled (or threads offlined)
    // before the scenario starts: validation must see that state, not
    // boot defaults.
    let mut busy = System::new(SimConfig::epyc_7502_2s(), 5);
    busy.set_workload(ThreadId(2), KernelClass::BusyWait, OperandWeight::HALF);
    busy.run_for_ns(10_000_000);
    let mut wakeup = Scenario::new();
    wakeup.probe(
        "w",
        Probe::WakeupSamples { caller: ThreadId(0), callee: ThreadId(2), count: 3, gap: 1000 },
        Window::span(0, 3000),
    );
    assert!(busy.run_scenario(&wakeup).is_err(), "busy callee must fail validation");

    let mut offlined = System::new(SimConfig::epyc_7502_2s(), 5);
    offlined.set_online(ThreadId(3), false);
    let mut work = Scenario::new();
    work.at(0).workload(ThreadId(3), KernelClass::BusyWait, OperandWeight::HALF);
    assert!(offlined.run_scenario(&work).is_err(), "offline target must fail validation");
    // Re-onlining it first makes the same scenario valid.
    offlined.set_online(ThreadId(3), true);
    assert!(offlined.run_scenario(&work).is_ok());
}

#[test]
fn validation_rejects_bad_scenarios_before_simulating() {
    let cfg = SimConfig::epyc_7502_2s();

    let mut bad_thread = Scenario::new();
    bad_thread.at(0).idle(ThreadId(500));
    assert!(bad_thread.validate(&cfg).is_err());

    let mut bad_freq = Scenario::new();
    bad_freq.at(0).pstate(ThreadId(0), 1234);
    assert!(bad_freq.validate(&cfg).is_err());

    let mut bad_cstate = Scenario::new();
    bad_cstate.at(0).cstate(ThreadId(0), 6, false);
    assert!(bad_cstate.validate(&cfg).is_err());

    let mut offline_workload = Scenario::new();
    offline_workload.at(0).online(ThreadId(3), false);
    offline_workload.at_secs(0.1).workload(ThreadId(3), KernelClass::BusyWait, OperandWeight::HALF);
    assert!(offline_workload.validate(&cfg).is_err());

    let mut backwards = Scenario::new();
    backwards.probe("w", Probe::AcTrueMeanW, Window::span(100, 50));
    assert!(backwards.validate(&cfg).is_err());

    let mut idle_offline = Scenario::new();
    idle_offline.at(0).online(ThreadId(3), false);
    idle_offline.at_secs(0.1).idle(ThreadId(3));
    assert!(idle_offline.validate(&cfg).is_err());

    let mut duplicate = Scenario::new();
    duplicate.probe("ac", Probe::AcTrueMeanW, Window::span_secs(0.0, 0.1));
    duplicate.probe("ac", Probe::AcMeteredW, Window::span_secs(0.0, 0.1));
    assert!(duplicate.validate(&cfg).is_err());

    // A wakeup probe whose callee is busy (or offlined) at sample time
    // has no latency to measure; the validator must catch it pre-run.
    let mut busy_callee = Scenario::new();
    busy_callee.at(0).workload(ThreadId(2), KernelClass::BusyWait, OperandWeight::HALF);
    busy_callee.probe(
        "w",
        Probe::WakeupSamples { caller: ThreadId(0), callee: ThreadId(2), count: 5, gap: 1000 },
        Window::span(0, 5000),
    );
    assert!(busy_callee.validate(&cfg).is_err());

    // A POLL-latched callee (all C-states disabled while idle, then one
    // re-enabled) keeps spinning at runtime; the validator must model
    // that latch rather than assume re-enabling re-settles the thread.
    let mut poll_latched = Scenario::new();
    poll_latched.at(0).cstate(ThreadId(2), 2, false).cstate(ThreadId(2), 1, false);
    poll_latched.at_secs(0.001).cstate(ThreadId(2), 2, true);
    poll_latched.probe(
        "w",
        Probe::WakeupSamples { caller: ThreadId(0), callee: ThreadId(2), count: 3, gap: 1000 },
        Window::span_secs(0.002, 0.002 + 3.0 * 1e-6),
    );
    assert!(poll_latched.validate(&cfg).is_err());

    // Absurd sampling plans are rejected before they can exhaust memory.
    let mut dense = Scenario::new();
    dense.probe(
        "s",
        Probe::CounterSeries { thread: ThreadId(0), every: 1 },
        Window::span_secs(0.0, 0.3),
    );
    assert!(dense.validate(&cfg).is_err());

    // Streaming-core counts outside [1, machine cores] are rejected (a
    // huge count would wrap the bandwidth model's i32 exponent).
    let mut zero_cores = Scenario::new();
    zero_cores.probe("bw", Probe::StreamTriadGbs(0), Window::at(0));
    assert!(zero_cores.validate(&cfg).is_err());
    let mut too_many_cores = Scenario::new();
    too_many_cores.probe("bw", Probe::StreamTriadGbs(3_000_000_000), Window::at(0));
    assert!(too_many_cores.validate(&cfg).is_err());

    // ...but a callee that goes back to sleep before the window is fine.
    let mut sleeps_again = Scenario::new();
    sleeps_again.at(0).workload(ThreadId(2), KernelClass::BusyWait, OperandWeight::HALF);
    sleeps_again.at_secs(0.01).idle(ThreadId(2));
    sleeps_again.probe(
        "w",
        Probe::WakeupSamples { caller: ThreadId(0), callee: ThreadId(2), count: 5, gap: 1000 },
        Window::span_secs(0.02, 0.02 + 5.0 * 1e-6),
    );
    assert!(sleeps_again.validate(&cfg).is_ok());

    // Errors surface through Session with the case attributed.
    let err = Session::new().run(&[Case::new("broken", cfg, bad_thread, 1)]).unwrap_err();
    assert_eq!(err.case, "broken");
    assert!(matches!(err.kind, SessionErrorKind::InvalidScenario(_)));
}

#[test]
fn inverted_windows_are_rejected_for_every_probe_family() {
    // `Window::span`/`span_secs` happily construct a backwards window;
    // validation must reject it before it can reach probe evaluation as
    // a negative duration.
    let cfg = SimConfig::epyc_7502_2s();
    let probes = [
        Probe::AcTrueMeanW,
        Probe::AcMeteredW,
        Probe::MeterSamples,
        Probe::RaplW,
        Probe::RaplCoreW(CoreId(0)),
        Probe::CounterDelta(ThreadId(0)),
        Probe::AcEnergyJ,
        Probe::TraceEvents(EventFilter::All),
    ];
    for probe in probes {
        let mut sc = Scenario::new();
        sc.probe("w", probe, Window::span(100, 50));
        assert!(
            matches!(sc.validate(&cfg), Err(ScenarioError::NegativeWindow { .. })),
            "{probe:?} must reject an inverted window"
        );
        let mut sc = Scenario::new();
        sc.probe("w", probe, Window::span_secs(0.25, 0.05));
        assert!(sc.validate(&cfg).is_err(), "{probe:?} must reject inverted seconds");
        // ...and the rejection carries the case label through a Session.
        let mut sc = Scenario::new();
        sc.probe("w", probe, Window::span(100, 50));
        let err = Session::new().run(&[Case::new("inverted", cfg.clone(), sc, 1)]).unwrap_err();
        assert_eq!(err.case, "inverted");
    }
}

#[test]
fn mixed_config_batches_never_share_prototypes_across_configs() {
    // Prototype reuse is keyed by structural config identity: a batch
    // mixing two configurations must produce exactly what the same cases
    // produce when each is booted fresh.
    let sc = rich_scenario();
    let two_socket = SimConfig::epyc_7502_2s();
    let mut tweaked = two_socket.clone();
    tweaked.power.platform_dc_w += 5.0;
    assert_ne!(two_socket, tweaked);
    let batch = vec![
        Case::new("a0", two_socket.clone(), sc.clone(), 1),
        Case::new("b0", tweaked.clone(), sc.clone(), 1),
        Case::new("a1", two_socket.clone(), sc.clone(), 2),
        Case::new("b1", tweaked.clone(), sc.clone(), 2),
    ];
    let mixed = Session::new().workers(2).run(&batch).unwrap();
    assert_eq!(mixed, fresh_boots(&batch));
    // The two configs genuinely behave differently, so sharing a booted
    // prototype across them would have been observable.
    assert_ne!(mixed[0].measurements, mixed[1].measurements);
}

/// One newly ported experiment scenario per family (transition, memory,
/// RAPL, mixed-frequency): byte-identical [`Run`]s across worker counts.
#[test]
fn ported_experiment_scenarios_are_worker_count_invariant() {
    use zen2_ee::experiments as e;

    let transition = e::fig03_transition::scenario(
        &e::fig03_transition::Config {
            samples: 30,
            ..e::fig03_transition::Config::fig3(e::Scale::Quick)
        },
        99,
    );
    let memory = e::fig05_membw::cell_scenario();
    let rapl = e::fig09_rapl_quality::point_scenario(
        &e::fig09_rapl_quality::Config {
            duration_s: 0.2,
            placements: vec![(8, false)],
            freqs_mhz: vec![2200],
        },
        KernelClass::AddPd,
        8,
        false,
        2200,
    );
    let mixed_freq = e::tab1_mixed_freq::cell_scenario(
        &e::tab1_mixed_freq::Config { duration_s: 0.2, sample_interval_s: 0.1 },
        2200,
        2500,
    );
    let batch = vec![
        Case::new("transition", SimConfig::epyc_7502_2s(), transition, 1),
        Case::new("memory", SimConfig::epyc_7502_2s(), memory, 2),
        Case::new("rapl", SimConfig::epyc_7502_2s(), rapl, 3),
        Case::new("mixed-freq", SimConfig::epyc_7502_2s(), mixed_freq, 4),
    ];
    let serial = Session::new().workers(1).run(&batch).unwrap();
    let parallel = Session::new().workers(3).run(&batch).unwrap();
    let oversubscribed = Session::new().workers(16).run(&batch).unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial, oversubscribed);
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

/// Streaming sweeps must reduce to *bit-identical* statistics for any
/// worker count and any shard size: the sink sees runs in case order
/// regardless of scheduling, so order-sensitive floating-point
/// accumulation (Welford, P² quantiles, residency histograms) cannot
/// drift with parallelism.
#[test]
fn streamed_sweep_statistics_are_worker_and_shard_invariant() {
    use zen2_sim::time::MILLISECOND;

    let mut base = Scenario::new();
    base.at(0)
        .workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF)
        .pstate(ThreadId(0), 2200)
        .pstate(ThreadId(1), 2200);
    base.at(10 * MILLISECOND).pstate(ThreadId(0), 1500).pstate(ThreadId(1), 1500);
    base.probe("ac", Probe::AcTrueMeanW, Window::span(0, 30 * MILLISECOND));
    base.probe(
        "events",
        Probe::TraceEvents(EventFilter::Freq(CoreId(0))),
        Window::span(0, 30 * MILLISECOND),
    );
    let sweep = Sweep::new("invariance", SimConfig::epyc_7502_2s())
        .scenario(base)
        .seed(99)
        .axis(Axis::param("rep", (0..12).map(f64::from)));

    let reduce = |workers: usize, shard: usize| {
        let mut watts = OnlineStats::new();
        let mut residency = FreqResidency::new();
        let mut transitions = TransitionStats::new();
        let n = Session::new()
            .workers(workers)
            .shard_size(shard)
            .run_streaming(sweep.cases(), |_, run| {
                watts.push(run.watts("ac"));
                let records = run.events("events");
                residency.observe(records, 0, 30 * MILLISECOND);
                transitions.observe(records);
            })
            .unwrap();
        assert_eq!(n, 12, "workers {workers} shard {shard}");
        (watts, residency, transitions)
    };

    let baseline = reduce(1, 1);
    for (workers, shard) in [(2, 1), (2, 5), (7, 1), (7, 3), (7, 64), (1, 12)] {
        let other = reduce(workers, shard);
        assert_eq!(baseline, other, "workers {workers} shard {shard}");
    }
}

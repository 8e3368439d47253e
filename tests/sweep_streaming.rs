//! The sweep engine's acceptance guarantees: a 10^4-case grid streams
//! through `Session::run_streaming` with peak resident cases bounded by
//! `workers × shard_size`, and its aggregated statistics are identical
//! to a materialized `Session::run` of the same grid.

use std::cell::Cell;
use zen2_ee::prelude::*;
use zen2_sim::stats::TransitionStats;
use zen2_sim::time::{MICROSECOND, MILLISECOND};

/// A 10^4-point grid: 10 load levels × 1000 seeds, one instantaneous
/// power read per case shortly after the load lands.
fn grid() -> Sweep {
    let mut base = Scenario::new();
    base.probe("ac", Probe::AcPowerW, Window::at(20 * MICROSECOND));
    let mut load = Axis::new("busy_threads");
    for n in 1..=10u32 {
        load = load.with(format!("{n}"), move |draft| {
            let mut at = draft.scenario.at(0);
            for t in 0..n {
                at = at.workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
            }
        });
    }
    Sweep::new("grid10k", SimConfig::epyc_7502_2s())
        .scenario(base)
        .seed(0xABCD)
        .axis(load)
        .axis(Axis::param("rep", (0..1000).map(f64::from)))
}

#[test]
fn ten_thousand_case_sweep_has_bounded_residency_and_materialized_identical_stats() {
    let sweep = grid();
    assert_eq!(sweep.len(), 10_000);

    let (workers, shard) = (4, 8);
    let created = Cell::new(0usize);
    let delivered = Cell::new(0usize);
    let peak = Cell::new(0usize);
    let lazy_cases = sweep.cases().inspect(|_| {
        created.set(created.get() + 1);
        peak.set(peak.get().max(created.get() - delivered.get()));
    });

    let mut streamed = OnlineStats::new();
    let session = Session::new().workers(workers).shard_size(shard);
    let n = session
        .run_streaming(lazy_cases, |_, run| {
            delivered.set(delivered.get() + 1);
            streamed.push(run.watts("ac"));
        })
        .unwrap();
    assert_eq!(n, 10_000);
    assert!(
        peak.get() <= workers * shard,
        "peak resident cases {} exceeds workers × shard_size = {}",
        peak.get(),
        workers * shard
    );

    // The same grid, fully materialized through `Session::run`, reduces
    // to bit-identical statistics.
    let cases: Vec<Case> = sweep.cases().collect();
    let runs = Session::new().run(&cases).unwrap();
    let mut materialized = OnlineStats::new();
    for run in &runs {
        materialized.push(run.watts("ac"));
    }
    assert_eq!(streamed, materialized);
    assert_eq!(streamed.count(), 10_000);
    // Sanity on the numbers themselves: a loaded machine draws more
    // than the idle floor and the spread over placements is real.
    assert!(streamed.min() > 90.0);
    assert!(streamed.max() > streamed.min());
}

/// A 10 × 25 grid for grouped-aggregation tests: load levels × seeds,
/// with an instantaneous power read per case.
fn grouped_grid() -> Sweep {
    let mut base = Scenario::new();
    base.probe("ac", Probe::AcPowerW, Window::at(20 * MICROSECOND));
    let mut load = Axis::new("busy_threads");
    for n in 1..=10u32 {
        load = load.with(format!("{n}"), move |draft| {
            let mut at = draft.scenario.at(0);
            for t in 0..n {
                at = at.workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
            }
        });
    }
    Sweep::new("grouped", SimConfig::epyc_7502_2s())
        .scenario(base)
        .seed(0x6789)
        .axis(load)
        .axis(Axis::param("rep", (0..25).map(f64::from)))
}

#[test]
fn grouped_stats_are_invariant_across_worker_and_shard_splits() {
    // The per-axis-bucket reduction must be bit-identical for any
    // worker/shard split: same groups, same labels, same statistics.
    let sweep = grouped_grid();
    let reduce = |workers: usize, shard: usize| {
        let mut by_load: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["busy_threads"]);
        let session = Session::new().workers(workers).shard_size(shard);
        session
            .run_streaming(sweep.cases(), |i, run| by_load.entry(i).push(run.watts("ac")))
            .unwrap();
        by_load
    };
    let reference = reduce(1, 1);
    assert_eq!(reference.len(), 10);
    for (labels, stats) in reference.rows() {
        assert_eq!(labels.len(), 1);
        assert_eq!(stats.count(), 25, "load {labels:?}");
    }
    // More load draws more power, group by group.
    let means: Vec<f64> = reference.rows().map(|(_, s)| s.mean()).collect();
    assert!(means.windows(2).all(|w| w[0] < w[1]), "means not monotone: {means:?}");
    for workers in [1, 2, 7] {
        for shard in [1, 5, 64] {
            assert_eq!(reduce(workers, shard), reference, "workers {workers} shard {shard}");
        }
    }
}

#[test]
fn zero_case_grid_streams_nothing_and_grouped_stats_stay_empty() {
    // An axis with no values empties the whole grid: the stream
    // delivers zero runs and the grouped reducer has no rows.
    let sweep = grouped_grid().axis(Axis::new("empty"));
    assert!(sweep.is_empty());
    let mut grouped: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["busy_threads"]);
    let delivered = Session::new()
        .workers(3)
        .shard_size(4)
        .run_streaming(sweep.cases(), |i, _| {
            grouped.entry(i);
        })
        .unwrap();
    assert_eq!(delivered, 0);
    assert!(grouped.is_empty());
    assert_eq!(grouped.rows().count(), 0);
    assert_eq!(grouped.get(&["1"]), None);
}

#[test]
fn take_range_never_derives_cases_past_the_shard() {
    // The engine fetches a full workers × shard_size group from the
    // lazy case iterator before looking at what arrived, so a slice
    // must bound its tail, not only its front. Counted with the same
    // Cell pattern as the residency test above.
    let sweep = grouped_grid(); // 250 cases
    let session = Session::new().workers(4).shard_size(8); // 32-case group pulls

    // take_range derives exactly the shard's ten cases — the group pull
    // stops at the slice's end — and delivers them with global indices.
    let created = Cell::new(0usize);
    let bounded = sweep.take_range(10, 10).inspect(|_| created.set(created.get() + 1));
    let mut indices = Vec::new();
    let mut boundaries = Vec::new();
    let delivered = session
        .run_streaming_checkpointed(10, bounded, |event| {
            match event {
                StreamEvent::Run { index, .. } => indices.push(index),
                StreamEvent::ShardBoundary { next } => boundaries.push(next),
            }
            Ok(StreamControl::Continue)
        })
        .unwrap();
    assert_eq!(created.get(), 10);
    assert_eq!(delivered, 10);
    assert_eq!(indices, (10..20).collect::<Vec<_>>());
    assert_eq!(boundaries, [20]);

    // Both ends clamp to the grid.
    assert_eq!(sweep.take_range(245, 32).count(), 5);
    assert_eq!(sweep.take_range(260, 4).count(), 0);
}

/// A small sweep whose scenario switches frequencies, so the trace
/// reductions have transitions and residencies to chew on.
fn dvfs_sweep() -> Sweep {
    let mut base = Scenario::new();
    base.at(0)
        .workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF)
        .pstate(ThreadId(0), 2200)
        .pstate(ThreadId(1), 2200);
    base.at(20 * MILLISECOND).pstate(ThreadId(0), 1500).pstate(ThreadId(1), 1500);
    base.probe(
        "freq_events",
        Probe::TraceEvents(EventFilter::Freq(CoreId(0))),
        Window::span(0, 50 * MILLISECOND),
    );
    Sweep::new("dvfs", SimConfig::epyc_7502_2s())
        .scenario(base)
        .seed(7)
        .axis(Axis::param("rep", (0..6).map(f64::from)))
}

#[test]
fn trace_reductions_accumulate_over_a_streamed_sweep() {
    let sweep = dvfs_sweep();
    let mut residency = FreqResidency::new();
    let mut transitions = TransitionStats::new();
    let session = Session::new().workers(2).shard_size(2);
    let n = session
        .run_streaming(sweep.cases(), |_, run| {
            let records = run.events("freq_events");
            residency.observe(records, 0, 50 * MILLISECOND);
            transitions.observe(records);
        })
        .unwrap();
    assert_eq!(n, 6);

    // Every run contributes its full window to the histogram.
    assert_eq!(residency.total_ns(), 6 * 50 * MILLISECOND);
    // The 2200 → 1500 switch lands at 20 ms + SMU grant/ramp, so the
    // core spends roughly 20/50 of the window at 2200 and the rest at
    // 1500 (the lead-in before the first application is unknown).
    assert!(residency.residency()[&2200] > residency.unknown_ns());
    assert!(residency.residency()[&1500] > residency.residency()[&2200]);
    assert!((residency.share(1500) - 0.6).abs() < 0.05, "share {}", residency.share(1500));

    // Two completed transitions per run (boot → 2200, 2200 → 1500),
    // each granted at a 1 ms SMU slot and ramped in well under 2 ms.
    assert_eq!(transitions.completed(), 12);
    assert_eq!(transitions.latency_ns().count(), 12);
    assert!(transitions.latency_ns().max() < 2.0 * MILLISECOND as f64);

    // The reductions are worker- and shard-invariant, bit for bit.
    let mut invariant = FreqResidency::new();
    let mut invariant_tr = TransitionStats::new();
    Session::new()
        .workers(7)
        .shard_size(1)
        .run_streaming(sweep.cases(), |_, run| {
            let records = run.events("freq_events");
            invariant.observe(records, 0, 50 * MILLISECOND);
            invariant_tr.observe(records);
        })
        .unwrap();
    assert_eq!(residency, invariant);
    assert_eq!(transitions, invariant_tr);
}

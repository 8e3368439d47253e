//! Workspace-level guarantees of the telemetry layer (`zen2-sim::obs`
//! facade + `zen2-obs` sinks): attaching the full sink stack to a
//! session cannot change any result, the JSONL trace it writes is
//! well-formed, and the spans and counters it reports reflect real
//! engine behavior — one boot per case and the simulator's power
//! evaluations in particular.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use zen2_ee::prelude::*;
use zen2_experiments::fig07_idle_power::{self, Config};
use zen2_experiments::Scale;
use zen2_obs::{Heartbeat, JsonlSink, MemorySink, Multi, Record, SummarySink};
use zen2_sim::obs::{
    CTR_CASES_DONE, CTR_POWER_EVALS, SPAN_BOOT, SPAN_CASE, SPAN_FORK, SPAN_SHARD, SPAN_SWEEP,
};
use zen2_sim::time::{MICROSECOND, MILLISECOND};
use zen2_sim::torture::rebuild;
use zen2_sim::Op;

/// A 10 × 8 grid: load levels × reps, one instantaneous power read per
/// case — the same shape the sweep-engine acceptance tests use.
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
    Sweep::new("obs-grid", SimConfig::epyc_7502_2s())
        .scenario(base)
        .seed(0x0B5)
        .axis(load)
        .axis(Axis::param("rep", (0..8).map(f64::from)))
}

/// Every watt reading of a streamed run of `session`, as exact bits.
fn watt_bits(session: &Session, sweep: &Sweep) -> Vec<u64> {
    let mut bits = Vec::new();
    session
        .run_streaming(sweep.cases(), |_, run| bits.push(run.watts("ac").to_bits()))
        .expect("sweep validates");
    bits
}

/// A scratch path unique to this process (no wall-clock naming: the
/// `no-wallclock` lint covers this file too).
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zen2-obs-test-{}-{tag}.jsonl", std::process::id()))
}

#[test]
fn results_are_byte_identical_with_the_full_sink_stack_attached() {
    let sweep = grid();
    let reference = watt_bits(&Session::new().workers(1).shard_size(1), &sweep);
    assert_eq!(reference.len(), 80);

    for workers in [1usize, 2, 7] {
        for shard in [1usize, 5, 64] {
            let bare = Session::new().workers(workers).shard_size(shard);
            let plain = watt_bits(&bare, &sweep);

            let trace = scratch(&format!("{workers}-{shard}"));
            let jsonl = Arc::new(JsonlSink::create(&trace).expect("create trace file"));
            let stack = Multi::new(vec![
                jsonl.clone(),
                Arc::new(SummarySink::new()),
                Arc::new(Heartbeat::every_ns(u64::MAX)),
                Arc::new(MemorySink::new()),
            ]);
            let observed_session = bare.recorder(Arc::new(stack));
            let observed = watt_bits(&observed_session, &sweep);
            jsonl.finish().expect("flush trace");
            fs::remove_file(&trace).expect("remove scratch trace");

            assert_eq!(plain, reference, "workers {workers} shard {shard}: bare run drifted");
            assert_eq!(observed, reference, "workers {workers} shard {shard}: telemetry leaked");
        }
    }
}

#[test]
fn jsonl_trace_is_one_wellformed_object_per_line() {
    let sweep = grid();
    let trace = scratch("wellformed");
    let jsonl = Arc::new(JsonlSink::create(&trace).expect("create trace file"));
    let session = Session::new().workers(3).shard_size(4).recorder(jsonl.clone());
    session.run_streaming(sweep.cases(), |_, _| {}).expect("sweep validates");
    jsonl.finish().expect("flush trace");

    let text = fs::read_to_string(&trace).expect("read trace");
    fs::remove_file(&trace).expect("remove scratch trace");
    let mut opens = 0usize;
    let mut closes = 0usize;
    let mut lines = 0usize;
    for line in text.lines() {
        lines += 1;
        let v = Json::parse(line).unwrap_or_else(|e| panic!("line {lines} not JSON ({e}): {line}"));
        let kind = v.get("e").and_then(Json::as_str).expect("every line has a kind");
        v.get("t").and_then(|t| t.as_u64()).expect("every line has a timestamp");
        match kind {
            "span_open" => opens += 1,
            "span_close" => closes += 1,
            _ => {}
        }
    }
    assert!(lines > 80, "a full run leaves a real trace, got {lines} lines");
    assert_eq!(opens, closes, "a completed run closes every span it opens");
}

#[test]
fn every_case_boots_its_own_machine_under_mixed_config_sweeps() {
    // Seven pair-shards over six distinct configs (the first one comes
    // back at the end) and a final shard of two solo configs: however
    // configs repeat across and within shards, each case boots exactly
    // one machine of its own, under its own case span, and nothing forks.
    let mut scenario = Scenario::new();
    scenario.probe("ac", Probe::AcPowerW, Window::at(20 * MICROSECOND));
    let config_nr = |i: usize| {
        let mut c = SimConfig::epyc_7502_2s();
        c.controller.deadband_w += i as f64;
        c
    };
    let case = |i: usize, tag: &str| {
        Case::new(format!("mixed/{i}/{tag}"), config_nr(i), scenario.clone(), 1)
    };
    let mut cases = Vec::new();
    for i in [0usize, 1, 2, 3, 4, 5, 0] {
        cases.push(case(i, "a"));
        cases.push(case(i, "b"));
    }
    cases.push(case(6, "solo"));
    cases.push(case(7, "solo"));

    let sink = Arc::new(MemorySink::new());
    let session = Session::new().workers(1).shard_size(2).recorder(sink.clone());
    let n = session.run_streaming(cases, |_, _| {}).expect("cases validate");
    assert_eq!(n, 16);
    assert_eq!(sink.counter_total(CTR_CASES_DONE), 16);

    // One boot per case, each parented by a distinct case span.
    let records = sink.records();
    let mut case_spans: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            Record::SpanOpen { id, name, .. } if *name == SPAN_CASE => Some(*id),
            _ => None,
        })
        .collect();
    let mut boot_parents: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            Record::SpanOpen { parent, name, .. } if *name == SPAN_BOOT => {
                Some(parent.expect("a boot span has a parent"))
            }
            _ => None,
        })
        .collect();
    case_spans.sort_unstable();
    boot_parents.sort_unstable();
    assert_eq!(boot_parents, case_spans, "exactly one boot under every case span");
    assert_eq!(sink.span_count(SPAN_FORK), 0, "the engine never forks");

    // The span stream has the documented shape: one sweep root, a
    // shard per pull, a case per case.
    assert_eq!(sink.span_count(SPAN_SWEEP), 1);
    assert_eq!(sink.span_count(SPAN_SHARD), 8);
    assert_eq!(sink.span_count(SPAN_CASE), 16);
}

#[test]
fn a_fig7_breakpoint_costs_one_power_evaluation_and_totals_ignore_the_split() {
    let fig7 = fig07_idle_power::sweep(&Config::new(Scale::Quick), 7);
    let full = fig7
        .cases()
        .find(|c| {
            let steps = c.scenario.steps();
            steps.len() == 384
                && steps.iter().any(|s| matches!(s.op, Op::PstateMhz { mhz: 2500, .. }))
        })
        .expect("the 2.5 GHz active-pause case at 128 threads");
    // Its t = 0 breakpoint: two sibling P-state requests and a pause
    // loop for each of 128 threads, 384 Ops resolved as one batch.
    assert!(full.scenario.steps().iter().all(|s| s.at == 0));
    let mut sys = System::new(full.config.clone(), full.seed);
    assert_eq!(sys.power_evals(), 2, "a boot evaluates twice");
    sys.run_scenario(&rebuild(full.scenario.steps(), &[], 0)).expect("valid");
    assert_eq!(sys.power_evals(), 3, "one evaluation for the whole breakpoint");

    // The engine forwards each case's count; the totals are the sum of
    // the per-case counts under any worker/shard split. Cases stop at
    // 5 ms to keep the test quick.
    let cases: Vec<Case> = fig7
        .cases()
        .map(|c| {
            let scenario = rebuild(c.scenario.steps(), &[], 5 * MILLISECOND);
            Case::new(c.label.clone(), c.config.clone(), scenario, c.seed)
        })
        .collect();
    let expected: u64 = cases
        .iter()
        .map(|c| {
            let mut sys = System::new(c.config.clone(), c.seed);
            sys.run_scenario(&c.scenario).expect("valid");
            sys.power_evals()
        })
        .sum();
    for (workers, shard) in [(1usize, 1usize), (2, 5), (3, 64)] {
        let sink = Arc::new(MemorySink::new());
        let session = Session::new().workers(workers).shard_size(shard).recorder(sink.clone());
        session.run_streaming(cases.clone(), |_, _| {}).expect("cases validate");
        assert_eq!(sink.counter_total(CTR_POWER_EVALS), expected, "{workers}w/{shard}s");
    }
}

//! Per-layer timing: a span recorder attached through
//! `Session::recorder`, and timed calls into the public functions of
//! the layers below the session (`System`, `MsrFile`, `GroupedStats`).
//!
//! The `power`, `smu`, `controller`, `cstate` and `perf` modules have
//! no public call boundary on the hot path; they are measured through
//! the `System` operations and 1 ms steps that drive them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;

use zen2_isa::{KernelClass, OperandWeight};
use zen2_obs::clock;
use zen2_sim::obs::SPAN_POOL;
use zen2_sim::{Attr, AttrValue, GroupedStats, OnlineStats, Recorder, SimConfig, SpanId, System};
use zen2_topology::{CpuNumbering, LogicalCpu, ThreadId};

use crate::workloads;

/// Timing samples by metric base name, each in the unit its name
/// carries (`_us`, `_ms`, `_ns`).
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Nanoseconds per microsecond, the divisor for `_us` samples.
pub const US: f64 = 1e3;
/// Nanoseconds per millisecond, the divisor for `_ms` samples.
pub const MS: f64 = 1e6;

/// Runs `f`, records its host time under `name` (divided by `unit_ns`)
/// when `samples` is given, and returns its result. Whatever `f`
/// returns is dropped by the caller, outside the timed interval.
pub fn time<T>(
    samples: Option<&mut Samples>,
    name: &'static str,
    unit_ns: f64,
    f: impl FnOnce() -> T,
) -> T {
    let Some(samples) = samples else { return f() };
    let t = clock::now_ns();
    let out = black_box(f());
    let dt = clock::now_ns().saturating_sub(t);
    samples.entry(name).or_default().push(dt as f64 / unit_ns);
    out
}

/// An open span: its name, open time, and (for `pool` spans) the
/// worker count.
struct Open {
    name: &'static str,
    t: u64,
    workers: u64,
}

#[derive(Default)]
struct SpanState {
    open: BTreeMap<u64, Open>,
    /// When a span of each name first opened since it was last taken.
    first_open: BTreeMap<&'static str, u64>,
    closed: BTreeMap<&'static str, Vec<u64>>,
    /// Σ pool duration × pool workers: the worker time a pool offered.
    pool_capacity_ns: u128,
}

/// Collects the duration of every closed engine span by name.
#[derive(Default)]
pub struct SpanRecorder {
    state: Mutex<SpanState>,
}

impl SpanRecorder {
    /// Durations (ns) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let state = self.state.lock().expect("span recorder poisoned");
        state.closed.get(name).cloned().unwrap_or_default()
    }

    /// The `clock::now_ns` time at which a span named `name` first
    /// opened since the last call for that name, if one did.
    pub fn take_first_open(&self, name: &str) -> Option<u64> {
        self.state.lock().expect("span recorder poisoned").first_open.remove(name)
    }

    /// Worker time the session's pools offered, ns.
    pub fn pool_capacity_ns(&self) -> u128 {
        self.state.lock().expect("span recorder poisoned").pool_capacity_ns
    }
}

impl Recorder for SpanRecorder {
    fn span_open(
        &self,
        id: SpanId,
        _parent: Option<SpanId>,
        name: &'static str,
        attrs: &[Attr<'_>],
    ) {
        let t = clock::now_ns();
        let workers = if name == SPAN_POOL {
            attrs
                .iter()
                .find_map(|(k, v)| match v {
                    AttrValue::U64(w) if *k == "workers" => Some(*w),
                    _ => None,
                })
                .unwrap_or(1)
        } else {
            0
        };
        let mut state = self.state.lock().expect("span recorder poisoned");
        state.first_open.entry(name).or_insert(t);
        state.open.insert(id.0, Open { name, t, workers });
    }

    fn span_close(&self, id: SpanId) {
        let t = clock::now_ns();
        let mut state = self.state.lock().expect("span recorder poisoned");
        let Some(open) = state.open.remove(&id.0) else { return };
        let dt = t.saturating_sub(open.t);
        if open.name == SPAN_POOL {
            state.pool_capacity_ns += u128::from(dt) * u128::from(open.workers);
        }
        state.closed.entry(open.name).or_default().push(dt);
    }

    fn counter(&self, _name: &'static str, _delta: u64) {}
    fn gauge(&self, _name: &'static str, _value: f64) {}
    fn observe(&self, _name: &'static str, _value: f64) {}
    fn event(&self, _name: &'static str, _attrs: &[Attr<'_>]) {}
}

/// Samples per timed System call.
const CALLS: u64 = 2_000;
/// From-scratch boots timed (each costs about as much as a fork plus
/// the thermal settle).
const BOOTS: u64 = 50;
/// Awake-thread counts whose 1 ms step is timed (the dvfs-trace load
/// and two points of the idle staircase), with their metric names.
const STEP_LOADS: [(u32, &str); 3] =
    [(1, "system.step_us.b1"), (32, "system.step_us.b32"), (128, "system.step_us.b128")];
/// Pushes per `stats.fold_ns` sample (one push is too short to time
/// alone against the clock's own cost).
const FOLDS_PER_SAMPLE: usize = 256;

/// Times the public `System`, `MsrFile` and `GroupedStats` calls the
/// workloads spend their host time in, on the paper machine.
pub fn probe_layers(samples: &mut Samples) {
    let cfg = SimConfig::epyc_7502_2s();
    for seed in 0..BOOTS {
        let cfg = cfg.clone();
        time(Some(samples), "system.boot_us", US, move || System::new(cfg, seed));
    }
    let proto = System::new(cfg.clone(), 0);
    for seed in 0..CALLS {
        time(Some(samples), "system.fork_us", US, || proto.fork(seed));
        time(Some(samples), "msr.clone_us", US, || proto.msrs().clone());
    }

    // Frequency requests as dvfs-trace issues them: both siblings of
    // core 0 with one busy thread, a transition's worth of time apart.
    let mut sys = proto.fork(1);
    sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
    for k in 0..CALLS / 2 {
        let mhz = if k % 2 == 0 { 1500 } else { 2200 };
        for thread in [ThreadId(1), ThreadId(0)] {
            time(Some(samples), "system.op_us.pstate", US, || {
                sys.set_thread_pstate_mhz(thread, mhz);
            });
        }
        sys.run_for_ns(2_000_000);
    }

    // Workload placements as micro-grid issues them: up to eight
    // threads at a time, cleared between rounds.
    let mut sys = proto.fork(2);
    for _ in 0..CALLS / 8 {
        for t in 0..8 {
            time(Some(samples), "system.op_us.workload", US, || {
                sys.set_workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
            });
        }
        for t in 0..8 {
            sys.set_idle(ThreadId(t));
        }
        sys.run_for_ns(1_000_000);
    }

    // One 1 ms controller slot with n logical CPUs awake in a pause
    // loop, after 50 ms of settling.
    let numbering = CpuNumbering::linux_default(&cfg.topology);
    for (n, name) in STEP_LOADS {
        let mut sys = proto.fork(3);
        for cpu in 0..n {
            let thread = numbering.thread_of(LogicalCpu(cpu));
            sys.set_workload(thread, KernelClass::Pause, OperandWeight::HALF);
        }
        sys.run_for_ns(50_000_000);
        for _ in 0..CALLS {
            time(Some(samples), name, US, || sys.run_for_ns(1_000_000));
        }
    }

    // Folding one run's power into micro-grid's grouped reducer.
    let sweep = workloads::grid(workloads::MICRO_CASES, 1);
    let mut grouped: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["busy_threads"]);
    let mut index = 0usize;
    for _ in 0..CALLS / 4 {
        let t = clock::now_ns();
        for _ in 0..FOLDS_PER_SAMPLE {
            grouped.entry(index % sweep.len()).push(black_box(180.0 + (index % 7) as f64));
            index += 1;
        }
        let dt = clock::now_ns().saturating_sub(t);
        samples.entry("stats.fold_ns").or_default().push(dt as f64 / FOLDS_PER_SAMPLE as f64);
    }
    black_box(grouped);
}

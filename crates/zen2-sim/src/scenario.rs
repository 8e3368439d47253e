//! Declarative scenarios: timed machine actions recorded as data,
//! validated against the topology before any simulation runs.
//!
//! A [`Scenario`] is a schedule of [`Op`]s plus a set of
//! [`ProbeSpec`] observation windows. Building one does
//! not touch a machine; [`System::run_scenario`] (or a
//! [`Session`](crate::Session) batch) executes it:
//!
//! ```
//! use zen2_sim::{Probe, Scenario, SimConfig, System, Window};
//! use zen2_isa::{KernelClass, OperandWeight};
//! use zen2_topology::ThreadId;
//!
//! let mut sc = Scenario::new();
//! sc.at_secs(0.0).workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
//! sc.probe("busy", Probe::AcTrueMeanW, Window::span_secs(0.05, 0.25));
//! let run = System::new(SimConfig::epyc_7502_2s(), 7).run_scenario(&sc).unwrap();
//! assert!(run.watts("busy") > 150.0);
//! ```

use crate::config::SimConfig;
use crate::perf::ThreadCounters;
use crate::probe::{
    EventFilter, Measurement, Probe, ProbeSpec, RaplWindow, Run, Window, MAX_WINDOW_NS,
};
use crate::system::System;
use crate::time::{from_secs, to_secs, Ns, MILLISECOND};
use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_topology::ThreadId;

/// One machine action, recorded as data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Op {
    /// Schedule a workload on a hardware thread.
    Workload {
        /// Target thread.
        thread: ThreadId,
        /// Kernel class.
        class: KernelClass,
        /// Operand Hamming weight.
        weight: OperandWeight,
    },
    /// Remove the workload; the thread idles into its deepest C-state.
    Idle {
        /// Target thread.
        thread: ThreadId,
    },
    /// Set the userspace-governor frequency request of a thread.
    PstateMhz {
        /// Target thread.
        thread: ThreadId,
        /// Requested frequency; must be a defined P-state.
        mhz: u32,
    },
    /// Enable/disable an idle state (sysfs `cpuidle/stateN/disable`).
    CstateEnabled {
        /// Target thread.
        thread: ThreadId,
        /// C-state level (1 or 2 on this machine).
        level: u8,
        /// New enablement.
        enabled: bool,
    },
    /// Hotplug a thread (sysfs `online`).
    Online {
        /// Target thread.
        thread: ThreadId,
        /// New hotplug state.
        online: bool,
    },
    /// Fast-forward thermals to steady state (the paper's pre-heat).
    Preheat,
    /// Enable or disable the lo2s-style event tracer.
    Tracing(bool),
}

impl Op {
    /// The hardware thread this action targets, if any.
    pub fn target(&self) -> Option<ThreadId> {
        match *self {
            Op::Workload { thread, .. }
            | Op::Idle { thread }
            | Op::PstateMhz { thread, .. }
            | Op::CstateEnabled { thread, .. }
            | Op::Online { thread, .. } => Some(thread),
            Op::Preheat | Op::Tracing(_) => None,
        }
    }
}

/// A thread's scheduling state as the validator replays the schedule
/// (boot state: online, idle, every C-state enabled). Mirrors the
/// runtime transitions in [`System`], including the POLL latch: an idle
/// thread with every C-state disabled spins in an active POLL loop, and
/// re-enabling a C-state does *not* re-settle it (only a fresh idle
/// transition does — `set_cstate_enabled` leaves active threads alone).
#[derive(Debug, Clone, Copy)]
pub(crate) struct VThread {
    pub(crate) has_work: bool,
    pub(crate) polling: bool,
    pub(crate) offline: bool,
    pub(crate) c1_enabled: bool,
    pub(crate) c2_enabled: bool,
}

impl Default for VThread {
    fn default() -> Self {
        Self { has_work: false, polling: false, offline: false, c1_enabled: true, c2_enabled: true }
    }
}

impl VThread {
    fn all_cstates_disabled(&self) -> bool {
        !self.c1_enabled && !self.c2_enabled
    }

    /// Applies one action targeting this thread.
    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Workload { .. } => {
                self.has_work = true;
                self.polling = false;
            }
            Op::Idle { .. } => {
                if !self.offline {
                    self.has_work = false;
                    self.polling = self.all_cstates_disabled();
                }
            }
            Op::Online { online, .. } => {
                if !online {
                    self.offline = true;
                    self.has_work = false;
                    self.polling = false;
                } else if self.offline {
                    self.offline = false;
                    self.polling = self.all_cstates_disabled();
                }
            }
            Op::CstateEnabled { level, enabled, .. } => {
                match level {
                    1 => self.c1_enabled = enabled,
                    _ => self.c2_enabled = enabled,
                }
                // The runtime re-settles only threads that are not
                // active; a polling thread *is* active and keeps polling.
                if !self.offline && !self.has_work && !self.polling {
                    self.polling = self.all_cstates_disabled();
                }
            }
            Op::PstateMhz { .. } | Op::Preheat | Op::Tracing(_) => {}
        }
    }

    /// Whether the thread is asleep in some C-state.
    fn is_sleeping(&self) -> bool {
        !self.offline && !self.has_work && !self.polling
    }
}

/// A scheduled action.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Step {
    /// Scenario-relative time, ns.
    pub at: Ns,
    /// The action.
    pub op: Op,
}

/// A declarative machine schedule plus its observation plan.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Scenario {
    steps: Vec<Step>,
    probes: Vec<ProbeSpec>,
    /// Minimum run length, ns (the scenario runs to at least here even if
    /// no step or window reaches that far).
    run_until: Ns,
}

impl Scenario {
    /// An empty scenario.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a cursor scheduling actions at `t` nanoseconds.
    pub fn at(&mut self, t: Ns) -> At<'_> {
        At { scenario: self, t }
    }

    /// Opens a cursor scheduling actions at `t` seconds.
    pub fn at_secs(&mut self, t: f64) -> At<'_> {
        self.at(from_secs(t))
    }

    /// Registers an observation.
    pub fn probe(&mut self, label: impl Into<String>, probe: Probe, window: Window) -> &mut Self {
        self.probes.push(ProbeSpec { label: label.into(), probe, window });
        self
    }

    /// Extends the scenario to run at least until `t` nanoseconds.
    pub fn run_until(&mut self, t: Ns) -> &mut Self {
        self.run_until = self.run_until.max(t);
        self
    }

    /// Extends the scenario to run at least until `t` seconds.
    pub fn run_until_secs(&mut self, t: f64) -> &mut Self {
        self.run_until(from_secs(t))
    }

    /// The scheduled steps, in insertion order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The registered observations, in insertion order.
    pub fn probes(&self) -> &[ProbeSpec] {
        &self.probes
    }

    /// The explicit minimum run length set through
    /// [`run_until`](Self::run_until), ns (0 when never set). The
    /// scenario may still run longer — see [`end`](Self::end).
    pub fn run_until_ns(&self) -> Ns {
        self.run_until
    }

    /// Total scenario length: the furthest step, window edge, or
    /// [`run_until`](Self::run_until) point.
    pub fn end(&self) -> Ns {
        let step_end = self.steps.iter().map(|s| s.at).max().unwrap_or(0);
        let probe_end = self.probes.iter().map(|p| p.window.to).max().unwrap_or(0);
        self.run_until.max(step_end).max(probe_end)
    }

    /// Validates the schedule against a machine configuration without
    /// running anything: thread/core/socket bounds, P-state table
    /// membership, C-state levels, window shapes, unique probe labels,
    /// that no workload or idle transition targets a thread that is
    /// offline at that point of the schedule, and that wakeup probes
    /// only ever sample a sleeping callee. Threads are assumed online
    /// and idle at scenario start, as on a freshly booted machine;
    /// [`System::run_scenario`] validates against the machine's *actual*
    /// state instead.
    pub fn validate(&self, cfg: &SimConfig) -> Result<(), ScenarioError> {
        self.validate_with(cfg, vec![VThread::default(); cfg.topology.num_threads()])
    }

    /// [`validate`](Self::validate) from an explicit initial per-thread
    /// state (the live machine's, when running on a machine that has
    /// already executed something).
    pub(crate) fn validate_with(
        &self,
        cfg: &SimConfig,
        initial: Vec<VThread>,
    ) -> Result<(), ScenarioError> {
        let num_threads = cfg.topology.num_threads() as u32;
        let num_cores = cfg.topology.num_cores() as u32;
        let num_sockets = cfg.topology.num_sockets() as u32;
        let check_thread = |thread: ThreadId| {
            if thread.0 >= num_threads {
                Err(ScenarioError::ThreadOutOfRange { thread, num_threads })
            } else {
                Ok(())
            }
        };

        for step in &self.steps {
            match step.op {
                Op::Workload { thread, .. } | Op::Idle { thread } => check_thread(thread)?,
                Op::PstateMhz { thread, mhz } => {
                    check_thread(thread)?;
                    if cfg.pstates.index_of_frequency(mhz).is_none() {
                        return Err(ScenarioError::UndefinedPstate { mhz });
                    }
                }
                Op::CstateEnabled { thread, level, .. } => {
                    check_thread(thread)?;
                    if !(1..=2).contains(&level) {
                        return Err(ScenarioError::UndefinedCstate { level });
                    }
                }
                Op::Online { thread, .. } => check_thread(thread)?,
                Op::Preheat | Op::Tracing(_) => {}
            }
        }

        // Schedule consistency: replay the steps in time order, tracking
        // each thread's scheduling state, and reject transitions the
        // runtime would panic on (or silently ignore) mid-simulation.
        let mut ordered: Vec<&Step> = self.steps.iter().collect();
        ordered.sort_by_key(|s| s.at);
        assert_eq!(initial.len(), num_threads as usize, "initial state per thread");
        let mut threads = initial.clone();
        for step in &ordered {
            match step.op {
                Op::Workload { thread, .. } | Op::Idle { thread }
                    if threads[thread.index()].offline =>
                {
                    return Err(ScenarioError::ActionOnOfflineThread { thread, at: step.at });
                }
                _ => {}
            }
            if let Some(thread) = step.op.target() {
                threads[thread.index()].apply(&step.op);
            }
        }

        // The same cap that bounds windows bounds the whole scenario —
        // a stray ns/secs mix-up must not demand eons of simulated time.
        if self.end() > MAX_WINDOW_NS {
            return Err(ScenarioError::ScenarioTooLong { end: self.end() });
        }

        // zen2-lint: allow(no-unordered-iteration) — membership-only duplicate-label probe; never iterated
        let mut labels = std::collections::HashSet::new();
        for spec in &self.probes {
            if !labels.insert(spec.label.as_str()) {
                return Err(ScenarioError::DuplicateLabel { label: spec.label.clone() });
            }
            let w = spec.window;
            if w.from > w.to {
                return Err(ScenarioError::NegativeWindow { label: spec.label.clone() });
            }
            if w.to - w.from > MAX_WINDOW_NS {
                return Err(ScenarioError::WindowOutOfRange { label: spec.label.clone() });
            }
            if spec.probe.is_instant() != w.is_instant() {
                return Err(ScenarioError::WindowShapeMismatch {
                    label: spec.label.clone(),
                    instant_probe: spec.probe.is_instant(),
                });
            }
            match spec.probe {
                Probe::CounterDelta(thread) => check_thread(thread)?,
                Probe::CounterSeries { thread, every } => {
                    check_thread(thread)?;
                    if every == 0 {
                        return Err(ScenarioError::ZeroInterval { label: spec.label.clone() });
                    }
                    if (w.to - w.from) / every > MAX_PROBE_SAMPLES {
                        return Err(ScenarioError::SamplingPlanTooLarge {
                            label: spec.label.clone(),
                        });
                    }
                }
                Probe::WakeupSamples { caller, callee, count, gap } => {
                    check_thread(caller)?;
                    check_thread(callee)?;
                    if count == 0 || gap == 0 {
                        return Err(ScenarioError::ZeroInterval { label: spec.label.clone() });
                    }
                    if count as u64 > MAX_PROBE_SAMPLES {
                        return Err(ScenarioError::SamplingPlanTooLarge {
                            label: spec.label.clone(),
                        });
                    }
                    if w.from as u128 + count as u128 * gap as u128 > w.to as u128 {
                        return Err(ScenarioError::WindowOutOfRange { label: spec.label.clone() });
                    }
                    // The runtime panics when sampling a non-sleeping
                    // callee; one forward sweep replays the callee's
                    // state across the sample times (samples observe the
                    // state *before* actions scheduled at the same
                    // instant).
                    let mut state = initial[callee.index()];
                    let mut steps =
                        ordered.iter().filter(|s| s.op.target() == Some(callee)).peekable();
                    for k in 1..=count as u64 {
                        let t = w.from + k * gap;
                        while steps.peek().is_some_and(|s| s.at < t) {
                            state.apply(&steps.next().expect("peeked").op);
                        }
                        if !state.is_sleeping() {
                            return Err(ScenarioError::WakeupCalleeNotSleeping {
                                label: spec.label.clone(),
                                at: t,
                            });
                        }
                    }
                }
                Probe::EffectiveGhz(core) | Probe::RaplCoreW(core) | Probe::L3LatencyNs(core)
                    if core.0 >= num_cores =>
                {
                    return Err(ScenarioError::CoreOutOfRange { core: core.0, num_cores });
                }
                Probe::PkgTrueW(socket) if socket.0 >= num_sockets => {
                    return Err(ScenarioError::SocketOutOfRange { socket: socket.0, num_sockets });
                }
                Probe::StreamTriadGbs(0) => {
                    return Err(ScenarioError::ZeroInterval { label: spec.label.clone() });
                }
                Probe::StreamTriadGbs(cores) if cores > num_cores => {
                    return Err(ScenarioError::CoreOutOfRange { core: cores, num_cores });
                }
                Probe::AcMeteredW => {
                    // `metered_mean_w` averages LMG670 samples over the
                    // inner 80 % of the window and panics when none land
                    // there; samples arrive at `from + k*period`. Require
                    // a sample at least 1 ms inside the trimmed region so
                    // float rounding in the seconds-domain comparison can
                    // never starve the mean at runtime.
                    let len = w.to - w.from;
                    let period = from_secs(zen2_power::PowerMeter::lmg670().period_s());
                    let k = ((len + 10 * MILLISECOND).div_ceil(10 * period)).max(1);
                    let t = k * period;
                    if t > len || 10 * t + 10 * MILLISECOND > 9 * len {
                        return Err(ScenarioError::MeterWindowTooShort {
                            label: spec.label.clone(),
                        });
                    }
                }
                Probe::TraceEvents(filter) => match filter {
                    EventFilter::Freq(core) => {
                        if core.0 >= num_cores {
                            return Err(ScenarioError::CoreOutOfRange { core: core.0, num_cores });
                        }
                    }
                    EventFilter::ThreadState(thread) => check_thread(thread)?,
                    EventFilter::PackageSleep(socket) | EventFilter::CapChanged(socket) => {
                        if socket.0 >= num_sockets {
                            return Err(ScenarioError::SocketOutOfRange {
                                socket: socket.0,
                                num_sockets,
                            });
                        }
                    }
                    EventFilter::All => {}
                },
                _ => {}
            }
        }
        Ok(())
    }
}

/// A cursor scheduling actions at one point in time; every method chains.
pub struct At<'a> {
    scenario: &'a mut Scenario,
    t: Ns,
}

impl At<'_> {
    fn push(self, op: Op) -> Self {
        self.scenario.steps.push(Step { at: self.t, op });
        self
    }

    /// Schedules a workload on a hardware thread.
    pub fn workload(self, thread: ThreadId, class: KernelClass, weight: OperandWeight) -> Self {
        self.push(Op::Workload { thread, class, weight })
    }

    /// Schedules the removal of a thread's workload.
    pub fn idle(self, thread: ThreadId) -> Self {
        self.push(Op::Idle { thread })
    }

    /// Schedules a frequency request.
    pub fn pstate(self, thread: ThreadId, mhz: u32) -> Self {
        self.push(Op::PstateMhz { thread, mhz })
    }

    /// Schedules a C-state enable/disable.
    pub fn cstate(self, thread: ThreadId, level: u8, enabled: bool) -> Self {
        self.push(Op::CstateEnabled { thread, level, enabled })
    }

    /// Schedules a hotplug transition.
    pub fn online(self, thread: ThreadId, online: bool) -> Self {
        self.push(Op::Online { thread, online })
    }

    /// Schedules a thermal pre-heat (steady-state fast-forward).
    pub fn preheat(self) -> Self {
        self.push(Op::Preheat)
    }

    /// Schedules enabling/disabling the event tracer.
    pub fn tracing(self, enabled: bool) -> Self {
        self.push(Op::Tracing(enabled))
    }
}

/// Why a scenario failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A step or probe names a thread the topology does not have.
    ThreadOutOfRange {
        /// The offending thread.
        thread: ThreadId,
        /// Threads on this machine.
        num_threads: u32,
    },
    /// A probe names a core the topology does not have.
    CoreOutOfRange {
        /// The offending core index.
        core: u32,
        /// Cores on this machine.
        num_cores: u32,
    },
    /// A probe names a socket the topology does not have.
    SocketOutOfRange {
        /// The offending socket index.
        socket: u32,
        /// Sockets on this machine.
        num_sockets: u32,
    },
    /// A frequency request is not in the P-state table.
    UndefinedPstate {
        /// The offending frequency.
        mhz: u32,
    },
    /// A C-state level this machine does not expose.
    UndefinedCstate {
        /// The offending level.
        level: u8,
    },
    /// A workload or idle transition targets a thread that is offline at
    /// that point of the schedule.
    ActionOnOfflineThread {
        /// The offending thread.
        thread: ThreadId,
        /// When the action was scheduled, ns.
        at: Ns,
    },
    /// Two probes share a label; [`Run::get`](crate::Run::get) could only
    /// ever see the first.
    DuplicateLabel {
        /// The repeated label.
        label: String,
    },
    /// A wakeup probe would sample a callee that is active or offline at
    /// a sample time (there is no wakeup latency to measure).
    WakeupCalleeNotSleeping {
        /// The offending probe's label.
        label: String,
        /// The first sample time the callee is not sleeping, ns.
        at: Ns,
    },
    /// A window with `from > to`.
    NegativeWindow {
        /// The offending probe's label.
        label: String,
    },
    /// A window beyond the scenario end, absurdly long, or too short for
    /// its probe's sampling plan.
    WindowOutOfRange {
        /// The offending probe's label.
        label: String,
    },
    /// A span probe with an instant window or vice versa.
    WindowShapeMismatch {
        /// The offending probe's label.
        label: String,
        /// Whether the probe side is instantaneous.
        instant_probe: bool,
    },
    /// A series/sampling probe with a zero interval or count.
    ZeroInterval {
        /// The offending probe's label.
        label: String,
    },
    /// A series/sampling probe that would take more than
    /// [`MAX_PROBE_SAMPLES`] samples (guards the engine against
    /// accidental memory blow-ups from a tiny interval).
    SamplingPlanTooLarge {
        /// The offending probe's label.
        label: String,
    },
    /// The scenario's furthest step or window exceeds the simulated-time
    /// cap (usually a nanoseconds/seconds mix-up).
    ScenarioTooLong {
        /// The scenario end, ns.
        end: Ns,
    },
    /// An [`AcMeteredW`](Probe::AcMeteredW) window too short for the
    /// LMG670's 50 ms sample period to land a sample inside the inner
    /// 80 % of the window (the mean would have nothing to average).
    MeterWindowTooShort {
        /// The offending probe's label.
        label: String,
    },
}

/// Most samples any single probe may take across its window.
pub const MAX_PROBE_SAMPLES: u64 = 1_000_000;

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ThreadOutOfRange { thread, num_threads } => {
                write!(f, "thread {} out of range (machine has {num_threads})", thread.0)
            }
            Self::CoreOutOfRange { core, num_cores } => {
                write!(f, "core {core} out of range (machine has {num_cores})")
            }
            Self::SocketOutOfRange { socket, num_sockets } => {
                write!(f, "socket {socket} out of range (machine has {num_sockets})")
            }
            Self::UndefinedPstate { mhz } => write!(f, "{mhz} MHz is not a defined P-state"),
            Self::UndefinedCstate { level } => {
                write!(f, "the machine has C-states 1 and 2, not {level}")
            }
            Self::ActionOnOfflineThread { thread, at } => {
                write!(f, "workload/idle on offline thread {} at {at} ns", thread.0)
            }
            Self::DuplicateLabel { label } => {
                write!(f, "probe label {label:?} is used more than once")
            }
            Self::WakeupCalleeNotSleeping { label, at } => {
                write!(f, "probe {label:?}: wakeup callee is not sleeping at {at} ns")
            }
            Self::NegativeWindow { label } => write!(f, "probe {label:?}: window runs backwards"),
            Self::WindowOutOfRange { label } => {
                write!(f, "probe {label:?}: window too long or too short for its sampling plan")
            }
            Self::WindowShapeMismatch { label, instant_probe } => write!(
                f,
                "probe {label:?}: {} probe needs {} window",
                if *instant_probe { "an instant" } else { "a span" },
                if *instant_probe { "an instant (from == to)" } else { "a span (from < to)" },
            ),
            Self::ZeroInterval { label } => {
                write!(f, "probe {label:?}: sampling interval/count must be positive")
            }
            Self::SamplingPlanTooLarge { label } => {
                write!(f, "probe {label:?}: more than {MAX_PROBE_SAMPLES} samples in one window")
            }
            Self::ScenarioTooLong { end } => {
                write!(
                    f,
                    "scenario runs to {end} ns, beyond the {MAX_WINDOW_NS} ns cap \
                     (nanoseconds/seconds mix-up?)"
                )
            }
            Self::MeterWindowTooShort { label } => {
                write!(
                    f,
                    "probe {label:?}: window too short for a 50 ms meter sample to land \
                     in its inner 80 % (needs roughly 57 ms or more)"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Per-probe engine state while a scenario executes.
enum ProbeState {
    Idle,
    SpanOpen,
    CounterOpen { begin: ThreadCounters },
    SeriesOpen { snaps: Vec<ThreadCounters> },
    RaplOpen { window: RaplWindow },
    WakeupOpen { samples: Vec<f64> },
    EnergyOpen { start_j: f64 },
    Done(Measurement),
}

impl System {
    /// Executes a scenario on this machine and returns its [`Run`].
    ///
    /// Validates first — against the machine's *live* thread states, not
    /// boot defaults — so nothing is simulated if validation fails.
    /// Times in the scenario are relative to the machine's current time,
    /// so a scenario can also be replayed on a machine that has already
    /// run.
    ///
    /// Ordering within one timestamp is deterministic: probe sampling
    /// obligations and window *ends* first (measurements close before the
    /// machine changes), then scheduled actions, then window *starts*
    /// (measurements open on the post-action state).
    pub fn run_scenario(&mut self, scenario: &Scenario) -> Result<Run, ScenarioError> {
        scenario.validate_with(self.config(), self.scheduling_snapshot())?;
        Ok(self.run_scenario_prechecked(scenario))
    }

    /// Executes an already-validated scenario ([`Session`](crate::Session)
    /// validates each shard group up front and skips the per-case
    /// re-check).
    pub(crate) fn run_scenario_prechecked(&mut self, scenario: &Scenario) -> Run {
        let offset = self.now_ns();

        // A trace probe needs the tracer running for the whole scenario;
        // enable it up front so authors don't have to schedule an explicit
        // `tracing(true)` step (which remains available for finer control).
        // The implicit enable is undone at the end of the run, so a reused
        // machine does not keep recording (and growing) forever.
        let auto_tracing = !self.tracer().is_enabled()
            && scenario.probes().iter().any(|s| matches!(s.probe, Probe::TraceEvents(_)));
        if auto_tracing {
            self.set_tracing(true);
        }

        // Every scenario-relative instant the engine must stop at.
        let mut breakpoints: BTreeSet<Ns> = BTreeSet::new();
        for step in scenario.steps() {
            breakpoints.insert(step.at);
        }
        for spec in scenario.probes() {
            breakpoints.insert(spec.window.from);
            breakpoints.insert(spec.window.to);
            for t in spec.mid_times() {
                breakpoints.insert(t);
            }
        }
        breakpoints.insert(scenario.end());

        let mut states: Vec<ProbeState> =
            scenario.probes().iter().map(|_| ProbeState::Idle).collect();
        let mid_times: Vec<Vec<Ns>> =
            scenario.probes().iter().map(|spec| spec.mid_times()).collect();
        // `mid_times` are ascending and breakpoints iterate ascending, so
        // one cursor per probe matches each obligation in O(1); the same
        // holds for the time-sorted steps (stable sort keeps insertion
        // order within one tick).
        let mut mid_cursor = vec![0usize; mid_times.len()];
        let mut ordered_steps: Vec<&Step> = scenario.steps().iter().collect();
        ordered_steps.sort_by_key(|s| s.at);
        let mut step_cursor = 0usize;

        for &t in &breakpoints {
            let target = offset + t;
            if target > self.now_ns() {
                self.run_for_ns(target - self.now_ns());
            }

            // 1. Mid-window sampling obligations due now.
            for (i, (spec, state)) in scenario.probes().iter().zip(states.iter_mut()).enumerate() {
                if mid_times[i].get(mid_cursor[i]) != Some(&t) {
                    continue;
                }
                mid_cursor[i] += 1;
                match (&spec.probe, state) {
                    (Probe::CounterSeries { thread, .. }, ProbeState::SeriesOpen { snaps }) => {
                        snaps.push(self.counters(*thread));
                    }
                    (Probe::RaplW | Probe::RaplCoreW(_), ProbeState::RaplOpen { window }) => {
                        window.poll(self);
                    }
                    (
                        Probe::WakeupSamples { caller, callee, .. },
                        ProbeState::WakeupOpen { samples },
                    ) => {
                        samples.push(self.sample_wakeup_ns(*caller, *callee));
                    }
                    _ => {}
                }
            }

            // 2. Window ends (and instant reads) due now.
            for (spec, state) in scenario.probes().iter().zip(states.iter_mut()) {
                if spec.window.to != t {
                    continue;
                }
                let from = offset + spec.window.from;
                let to = offset + spec.window.to;
                let done = match (&spec.probe, std::mem::replace(state, ProbeState::Idle)) {
                    (Probe::AcTrueMeanW, ProbeState::SpanOpen) => {
                        Measurement::Watts(self.trace_mean_w(from, to))
                    }
                    (Probe::AcMeteredW, ProbeState::SpanOpen) => {
                        Measurement::Watts(self.metered_mean_w(from, to))
                    }
                    (Probe::MeterSamples, ProbeState::SpanOpen) => {
                        Measurement::Samples(self.meter_samples(from, to))
                    }
                    (Probe::RaplW, ProbeState::RaplOpen { window }) => {
                        let (pkg_w, core_w) = window.finish(self);
                        Measurement::WattsPair { pkg_w, core_w }
                    }
                    (Probe::RaplCoreW(core), ProbeState::RaplOpen { window }) => {
                        Measurement::Watts(window.finish_core(self, *core))
                    }
                    (Probe::TraceEvents(filter), ProbeState::SpanOpen) => Measurement::Events(
                        self.tracer()
                            .in_window(from, to)
                            .filter(|r| filter.matches(&r.event))
                            .cloned()
                            .collect(),
                    ),
                    (Probe::CounterDelta(thread), ProbeState::CounterOpen { begin }) => {
                        Measurement::CounterDelta {
                            begin,
                            end: self.counters(*thread),
                            wall_s: to_secs(to - from),
                        }
                    }
                    (Probe::CounterSeries { .. }, ProbeState::SeriesOpen { snaps }) => {
                        Measurement::CounterSeries(snaps)
                    }
                    (Probe::WakeupSamples { .. }, ProbeState::WakeupOpen { samples }) => {
                        Measurement::DurationsNs(samples)
                    }
                    (Probe::AcEnergyJ, ProbeState::EnergyOpen { start_j }) => {
                        Measurement::Joules(self.ac_energy_j() - start_j)
                    }
                    (Probe::EffectiveGhz(core), ProbeState::Idle) => {
                        Measurement::Ghz(self.effective_core_ghz(*core))
                    }
                    (Probe::AcPowerW, ProbeState::Idle) => Measurement::Watts(self.ac_power_w()),
                    (Probe::PkgTrueW(socket), ProbeState::Idle) => {
                        Measurement::Watts(self.power_breakdown().pkg_true_w[socket.index()])
                    }
                    (Probe::L3LatencyNs(core), ProbeState::Idle) => {
                        Measurement::Nanos(self.l3_latency_ns(*core))
                    }
                    (Probe::DramLatencyNs, ProbeState::Idle) => {
                        Measurement::Nanos(self.dram_latency_ns())
                    }
                    (Probe::StreamTriadGbs(cores), ProbeState::Idle) => {
                        Measurement::GigabytesPerSec(self.stream_triad_gbs(*cores))
                    }
                    (probe, _) => {
                        unreachable!(
                            "probe {probe:?} ({:?}) closed from a foreign state",
                            spec.label
                        )
                    }
                };
                *state = ProbeState::Done(done);
            }

            // 3. Scheduled actions due now (insertion order within the tick).
            while let Some(step) = ordered_steps.get(step_cursor).filter(|s| s.at == t) {
                step_cursor += 1;
                match step.op {
                    Op::Workload { thread, class, weight } => {
                        self.set_workload(thread, class, weight)
                    }
                    Op::Idle { thread } => self.set_idle(thread),
                    Op::PstateMhz { thread, mhz } => {
                        let _ = self.set_thread_pstate_mhz(thread, mhz);
                    }
                    Op::CstateEnabled { thread, level, enabled } => {
                        self.set_cstate_enabled(thread, level, enabled)
                    }
                    Op::Online { thread, online } => self.set_online(thread, online),
                    Op::Preheat => self.preheat(),
                    Op::Tracing(enabled) => self.set_tracing(enabled),
                }
            }

            // 4. Window starts due now open on the post-action state.
            for (spec, state) in scenario.probes().iter().zip(states.iter_mut()) {
                if spec.window.from != t || spec.window.is_instant() {
                    continue;
                }
                *state = match spec.probe {
                    Probe::CounterDelta(thread) => {
                        ProbeState::CounterOpen { begin: self.counters(thread) }
                    }
                    Probe::CounterSeries { thread, .. } => {
                        ProbeState::SeriesOpen { snaps: vec![self.counters(thread)] }
                    }
                    Probe::RaplW | Probe::RaplCoreW(_) => {
                        ProbeState::RaplOpen { window: RaplWindow::open(self) }
                    }
                    Probe::WakeupSamples { .. } => ProbeState::WakeupOpen { samples: Vec::new() },
                    Probe::AcEnergyJ => ProbeState::EnergyOpen { start_j: self.ac_energy_j() },
                    _ => ProbeState::SpanOpen,
                };
            }
        }

        let measurements = scenario
            .probes()
            .iter()
            .zip(states)
            .map(|(spec, state)| match state {
                ProbeState::Done(m) => (spec.label.clone(), m),
                _ => unreachable!("probe {:?} never closed", spec.label),
            })
            .collect();

        if auto_tracing {
            self.set_tracing(false);
        }

        Run {
            seed: self.seed(),
            end_ns: self.now_ns(),
            final_ac_w: self.ac_power_w(),
            measurements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::MAX_WINDOW_NS;
    use crate::time::SECOND;
    use zen2_topology::{CoreId, SocketId};

    fn cfg() -> SimConfig {
        SimConfig::epyc_7502_2s()
    }

    // One test per ScenarioError variant: every rejection path the
    // torture generator's invalid-proposal catalog relies on is pinned
    // here in its most direct form.

    #[test]
    fn rejects_thread_out_of_range() {
        let mut sc = Scenario::new();
        sc.at(0).idle(ThreadId(128));
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::ThreadOutOfRange { thread: ThreadId(128), num_threads: 128 })
        ));
    }

    #[test]
    fn rejects_core_out_of_range() {
        let mut sc = Scenario::new();
        sc.probe("g", Probe::EffectiveGhz(CoreId(64)), Window::at(0));
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::CoreOutOfRange { core: 64, num_cores: 64 })
        ));
    }

    #[test]
    fn rejects_socket_out_of_range() {
        let mut sc = Scenario::new();
        sc.probe("p", Probe::PkgTrueW(SocketId(2)), Window::at(0));
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::SocketOutOfRange { socket: 2, num_sockets: 2 })
        ));
    }

    #[test]
    fn rejects_undefined_pstate() {
        let mut sc = Scenario::new();
        sc.at(0).pstate(ThreadId(0), 1234);
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::UndefinedPstate { mhz: 1234 })));
    }

    #[test]
    fn rejects_undefined_cstate() {
        let mut sc = Scenario::new();
        sc.at(0).cstate(ThreadId(0), 3, true);
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::UndefinedCstate { level: 3 })));
    }

    #[test]
    fn rejects_workload_on_offline_thread_even_when_scheduled_out_of_order() {
        let mut sc = Scenario::new();
        // Inserted before the offlining step but scheduled after it: the
        // validator replays in *time* order.
        sc.at(2 * MILLISECOND).workload(ThreadId(5), KernelClass::BusyWait, OperandWeight::HALF);
        sc.at(MILLISECOND).online(ThreadId(5), false);
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::ActionOnOfflineThread { thread: ThreadId(5), .. })
        ));
    }

    #[test]
    fn rejects_duplicate_probe_labels() {
        let mut sc = Scenario::new();
        sc.probe("x", Probe::AcPowerW, Window::at(0));
        sc.probe("x", Probe::DramLatencyNs, Window::at(1));
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::DuplicateLabel { label }) if label == "x"
        ));
    }

    #[test]
    fn rejects_wakeup_probe_on_busy_callee() {
        let mut sc = Scenario::new();
        sc.at(0).workload(ThreadId(3), KernelClass::BusyWait, OperandWeight::HALF);
        sc.probe(
            "w",
            Probe::WakeupSamples {
                caller: ThreadId(0),
                callee: ThreadId(3),
                count: 1,
                gap: MILLISECOND,
            },
            Window::span(0, 2 * MILLISECOND),
        );
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::WakeupCalleeNotSleeping { .. })));
    }

    #[test]
    fn rejects_backwards_window() {
        let mut sc = Scenario::new();
        sc.probe("b", Probe::AcTrueMeanW, Window { from: 2, to: 1 });
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::NegativeWindow { .. })));
    }

    #[test]
    fn rejects_sampling_plan_overflowing_its_window() {
        let mut sc = Scenario::new();
        // 10 samples of 1 ms gap cannot fit a 5 ms window.
        sc.probe(
            "w",
            Probe::WakeupSamples {
                caller: ThreadId(0),
                callee: ThreadId(1),
                count: 10,
                gap: MILLISECOND,
            },
            Window::span(0, 5 * MILLISECOND),
        );
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::WindowOutOfRange { .. })));
    }

    #[test]
    fn rejects_span_probe_with_instant_window() {
        let mut sc = Scenario::new();
        sc.probe("m", Probe::AcTrueMeanW, Window::at(SECOND));
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::WindowShapeMismatch { instant_probe: false, .. })
        ));
    }

    #[test]
    fn rejects_zero_sampling_interval() {
        let mut sc = Scenario::new();
        sc.probe(
            "s",
            Probe::CounterSeries { thread: ThreadId(0), every: 0 },
            Window::span(0, MILLISECOND),
        );
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::ZeroInterval { .. })));
    }

    #[test]
    fn rejects_oversized_sampling_plan() {
        let mut sc = Scenario::new();
        sc.probe(
            "s",
            Probe::CounterSeries { thread: ThreadId(0), every: 1 },
            Window::span(0, 100 * MILLISECOND),
        );
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::SamplingPlanTooLarge { .. })));
    }

    #[test]
    fn rejects_scenario_beyond_the_time_cap() {
        let mut sc = Scenario::new();
        sc.run_until(MAX_WINDOW_NS + 1);
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::ScenarioTooLong { .. })));
    }

    #[test]
    fn rejects_metered_mean_over_a_sample_starved_window() {
        // 56 ms holds one 50 ms sample, but outside the inner 80 %.
        let mut sc = Scenario::new();
        sc.probe("m", Probe::AcMeteredW, Window::span(0, 56 * MILLISECOND));
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::MeterWindowTooShort { .. })));
        // 120 ms (the generator's floor) is comfortably enough.
        let mut ok = Scenario::new();
        ok.probe("m", Probe::AcMeteredW, Window::span(0, 120 * MILLISECOND));
        assert!(ok.validate(&cfg()).is_ok());
    }

    #[test]
    fn run_until_is_a_minimum_not_a_cap() {
        let mut sc = Scenario::new();
        sc.run_until(MILLISECOND);
        sc.at(5 * MILLISECOND).preheat();
        sc.probe("tail", Probe::AcPowerW, Window::at(7 * MILLISECOND));
        assert_eq!(sc.run_until_ns(), MILLISECOND);
        assert_eq!(sc.end(), 7 * MILLISECOND);
        assert!(sc.validate(&cfg()).is_ok(), "steps after run_until are legal");
    }
}

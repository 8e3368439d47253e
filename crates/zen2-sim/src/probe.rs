//! Declarative observation: probes, windows, and typed measurements.
//!
//! A [`Probe`] names a physical quantity; a [`Window`] names when to look.
//! The scenario engine evaluates every probe while it advances the
//! machine, so one pass over simulated time yields every observation a
//! [`Run`] needs — replacing the imperative
//! `run_for_secs` / `measure_*` call sequences the experiment modules
//! used to hand-roll.
//!
//! All windows are *scenario-relative*: time 0 is the instant the
//! scenario starts executing, which for [`Session`](crate::Session) runs
//! is a freshly booted machine.

use crate::perf::ThreadCounters;
use crate::system::System;
use crate::time::{to_secs, Ns, SECOND};
use crate::trace::{Event, Record};
use serde::Serialize;
use zen2_power::MeterSample;
use zen2_rapl::RaplReader;
use zen2_topology::{CoreId, SocketId, ThreadId};

/// When a probe observes: a `[from, to]` span, or an instant (`from ==
/// to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Window {
    /// Window start, ns from scenario start.
    pub from: Ns,
    /// Window end, ns from scenario start.
    pub to: Ns,
}

impl Window {
    /// A span window over `[from, to]` nanoseconds.
    pub fn span(from: Ns, to: Ns) -> Self {
        Self { from, to }
    }

    /// A span window over `[from, to]` seconds.
    pub fn span_secs(from: f64, to: f64) -> Self {
        Self { from: crate::time::from_secs(from), to: crate::time::from_secs(to) }
    }

    /// An instantaneous window at `t` nanoseconds.
    pub fn at(t: Ns) -> Self {
        Self { from: t, to: t }
    }

    /// An instantaneous window at `t` seconds.
    pub fn at_secs(t: f64) -> Self {
        let t = crate::time::from_secs(t);
        Self { from: t, to: t }
    }

    /// Whether this is an instantaneous window.
    pub fn is_instant(&self) -> bool {
        self.from == self.to
    }

    /// Window length in seconds.
    pub fn secs(&self) -> f64 {
        to_secs(self.to - self.from)
    }
}

/// An observable quantity of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Probe {
    /// True mean AC (wall) power over the window, from the power trace —
    /// no instrument noise. Span probe.
    AcTrueMeanW,
    /// Externally measured mean AC power: LMG670 samples over the window,
    /// averaged over the inner 80 % (the paper's 10 s / inner-8 s
    /// methodology). Span probe.
    AcMeteredW,
    /// The raw LMG670 sample stream over the window. Span probe.
    MeterSamples,
    /// Mean RAPL power as software computes it: the MSR energy counters
    /// polled at 100 ms over the window, reported as `(package sum, core
    /// sum)` watts. Span probe.
    RaplW,
    /// Performance-counter delta of one hardware thread over the window.
    /// Span probe.
    CounterDelta(ThreadId),
    /// Performance-counter snapshots of one hardware thread at `every`
    /// intervals across the window (first snapshot at the window start).
    /// Span probe.
    CounterSeries {
        /// Observed hardware thread.
        thread: ThreadId,
        /// Sampling period, ns.
        every: Ns,
    },
    /// Repeated cond-var wakeup latency samples: every `gap` ns the
    /// `caller` signals the idle `callee` once. Span probe.
    WakeupSamples {
        /// Signalling thread (must be active).
        caller: ThreadId,
        /// Woken thread (must be idle).
        callee: ThreadId,
        /// Number of samples.
        count: usize,
        /// Time between samples, ns.
        gap: Ns,
    },
    /// AC energy consumed over the window, joules. Span probe.
    AcEnergyJ,
    /// Mean RAPL power of one core's domain over the window (the MSR
    /// energy counter polled at 100 ms, like [`Probe::RaplW`] but for a
    /// single core). Span probe.
    RaplCoreW(CoreId),
    /// Tracer events recorded within `[from, to)`, filtered. When a
    /// scenario carries one of these, the engine enables the lo2s-style
    /// tracer for the duration of the run (and disables it again
    /// afterwards), so no explicit `tracing(true)` step is needed. Span
    /// probe.
    TraceEvents(EventFilter),
    /// Effective (post-coupling) frequency of a core, GHz. Instant probe.
    EffectiveGhz(CoreId),
    /// Instantaneous true AC power, W. Instant probe.
    AcPowerW,
    /// Instantaneous true package power of one socket, W. Instant probe.
    PkgTrueW(SocketId),
    /// Pointer-chase L3 hit latency of a reader core under the current
    /// CCX clocks, ns (Fig. 4 benchmark). Instant probe.
    L3LatencyNs(CoreId),
    /// Pointer-chase DRAM latency under the configured I/O-die P-state
    /// and DRAM clock, ns (Fig. 5b benchmark). Instant probe.
    DramLatencyNs,
    /// STREAM-triad bandwidth for this many streaming cores on one CCD,
    /// GB/s (Fig. 5a benchmark). The count must be between 1 and the
    /// machine's core count. Instant probe.
    StreamTriadGbs(u32),
}

impl Probe {
    /// Whether this probe observes an instant rather than a span.
    pub fn is_instant(&self) -> bool {
        matches!(
            self,
            Probe::EffectiveGhz(_)
                | Probe::AcPowerW
                | Probe::PkgTrueW(_)
                | Probe::L3LatencyNs(_)
                | Probe::DramLatencyNs
                | Probe::StreamTriadGbs(_)
        )
    }
}

/// Which recorded tracer events a [`Probe::TraceEvents`] collects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum EventFilter {
    /// Every recorded event.
    All,
    /// DVFS requests and applications of one core.
    Freq(CoreId),
    /// Scheduling-state changes of one thread.
    ThreadState(ThreadId),
    /// PC6 entries/exits of one socket.
    PackageSleep(SocketId),
    /// Throttle-cap movements of one socket.
    CapChanged(SocketId),
}

impl EventFilter {
    /// Whether a recorded event passes this filter.
    pub fn matches(&self, event: &Event) -> bool {
        match (*self, event) {
            (Self::All, _) => true,
            (
                Self::Freq(core),
                Event::FreqRequested { core: c, .. } | Event::FreqApplied { core: c, .. },
            ) => *c == core,
            (Self::ThreadState(thread), Event::ThreadState { thread: t, .. }) => *t == thread,
            (Self::PackageSleep(socket), Event::PackageSleep { socket: s, .. }) => *s == socket,
            (Self::CapChanged(socket), Event::CapChanged { socket: s, .. }) => *s == socket,
            _ => false,
        }
    }
}

/// A labelled probe bound to its observation window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProbeSpec {
    /// Name the measurement is retrieved by.
    pub label: String,
    /// What to observe.
    pub probe: Probe,
    /// When to observe.
    pub window: Window,
}

impl ProbeSpec {
    /// Scenario-relative times (beyond the window bounds) at which the
    /// engine must pause for this probe.
    pub(crate) fn mid_times(&self) -> Vec<Ns> {
        match self.probe {
            Probe::CounterSeries { every, .. } => {
                // u128: `from + every` can overflow u64 for huge intervals.
                let mut t = self.window.from as u128 + every as u128;
                let mut out = Vec::new();
                while t <= self.window.to as u128 {
                    out.push(t as Ns);
                    t += every as u128;
                }
                out
            }
            Probe::WakeupSamples { count, gap, .. } => {
                (1..=count as u64).map(|k| self.window.from + k * gap).collect()
            }
            Probe::RaplW | Probe::RaplCoreW(_) => {
                let len = self.window.to - self.window.from;
                let steps = rapl_poll_steps(len);
                // u128: `len * k` can exceed u64 for very long windows.
                (1..=steps)
                    .map(|k| self.window.from + (len as u128 * k as u128 / steps as u128) as Ns)
                    .collect()
            }
            _ => Vec::new(),
        }
    }
}

/// RAPL polling cadence of the probe engine: ~100 ms steps, staying far
/// from counter wrap.
fn rapl_poll_steps(len: Ns) -> u64 {
    (to_secs(len) / 0.1).ceil().max(1.0) as u64
}

/// One typed observation result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Measurement {
    /// A power, W.
    Watts(f64),
    /// RAPL package and core rails, W.
    WattsPair {
        /// Package-domain sum over all sockets.
        pkg_w: f64,
        /// Core-domain sum over all cores.
        core_w: f64,
    },
    /// A meter sample stream.
    Samples(Vec<MeterSample>),
    /// Counter snapshots at a window's ends.
    CounterDelta {
        /// Snapshot at the window start.
        begin: ThreadCounters,
        /// Snapshot at the window end.
        end: ThreadCounters,
        /// Window length, s.
        wall_s: f64,
    },
    /// Counter snapshots at regular intervals (first at window start).
    CounterSeries(Vec<ThreadCounters>),
    /// Latency samples, ns.
    DurationsNs(Vec<f64>),
    /// A frequency, GHz.
    Ghz(f64),
    /// An energy, J.
    Joules(f64),
    /// A latency, ns.
    Nanos(f64),
    /// A bandwidth, GB/s.
    GigabytesPerSec(f64),
    /// Recorded tracer events (machine-absolute timestamps).
    Events(Vec<Record>),
}

/// The complete result of executing one `(SimConfig, Scenario, seed)`
/// case: every probe's measurement plus closing machine state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Run {
    /// The seed the machine was booted with.
    pub seed: u64,
    /// Machine time when the scenario finished, ns.
    pub end_ns: Ns,
    /// Instantaneous true AC power at the end, W.
    pub final_ac_w: f64,
    /// `(label, measurement)` in probe declaration order.
    pub measurements: Vec<(String, Measurement)>,
}

impl Run {
    /// Looks a measurement up by label.
    pub fn get(&self, label: &str) -> &Measurement {
        self.measurements
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, m)| m)
            .unwrap_or_else(|| panic!("no measurement labelled {label:?}"))
    }

    /// A `Watts` measurement by label.
    pub fn watts(&self, label: &str) -> f64 {
        match self.get(label) {
            Measurement::Watts(w) => *w,
            other => panic!("{label:?} is {other:?}, not Watts"),
        }
    }

    /// A `WattsPair` measurement by label.
    pub fn watts_pair(&self, label: &str) -> (f64, f64) {
        match self.get(label) {
            Measurement::WattsPair { pkg_w, core_w } => (*pkg_w, *core_w),
            other => panic!("{label:?} is {other:?}, not WattsPair"),
        }
    }

    /// A `CounterDelta` measurement by label.
    pub fn counter_delta(&self, label: &str) -> (ThreadCounters, ThreadCounters, f64) {
        match self.get(label) {
            Measurement::CounterDelta { begin, end, wall_s } => (*begin, *end, *wall_s),
            other => panic!("{label:?} is {other:?}, not CounterDelta"),
        }
    }

    /// A `CounterSeries` measurement by label.
    pub fn counter_series(&self, label: &str) -> &[ThreadCounters] {
        match self.get(label) {
            Measurement::CounterSeries(s) => s,
            other => panic!("{label:?} is {other:?}, not CounterSeries"),
        }
    }

    /// A `DurationsNs` measurement by label.
    pub fn durations_ns(&self, label: &str) -> &[f64] {
        match self.get(label) {
            Measurement::DurationsNs(d) => d,
            other => panic!("{label:?} is {other:?}, not DurationsNs"),
        }
    }

    /// A `Ghz` measurement by label.
    pub fn ghz(&self, label: &str) -> f64 {
        match self.get(label) {
            Measurement::Ghz(g) => *g,
            other => panic!("{label:?} is {other:?}, not Ghz"),
        }
    }

    /// A `Joules` measurement by label.
    pub fn joules(&self, label: &str) -> f64 {
        match self.get(label) {
            Measurement::Joules(j) => *j,
            other => panic!("{label:?} is {other:?}, not Joules"),
        }
    }

    /// A `Samples` measurement by label.
    pub fn samples(&self, label: &str) -> &[MeterSample] {
        match self.get(label) {
            Measurement::Samples(s) => s,
            other => panic!("{label:?} is {other:?}, not Samples"),
        }
    }

    /// A `Nanos` measurement by label.
    pub fn nanos(&self, label: &str) -> f64 {
        match self.get(label) {
            Measurement::Nanos(n) => *n,
            other => panic!("{label:?} is {other:?}, not Nanos"),
        }
    }

    /// A `GigabytesPerSec` measurement by label.
    pub fn gbs(&self, label: &str) -> f64 {
        match self.get(label) {
            Measurement::GigabytesPerSec(b) => *b,
            other => panic!("{label:?} is {other:?}, not GigabytesPerSec"),
        }
    }

    /// An `Events` measurement by label.
    pub fn events(&self, label: &str) -> &[Record] {
        match self.get(label) {
            Measurement::Events(e) => e,
            other => panic!("{label:?} is {other:?}, not Events"),
        }
    }
}

/// An open RAPL measurement window: reader plus bookkeeping, so every
/// RAPL probe observes counters through the MSR path software uses.
pub(crate) struct RaplWindow {
    reader: RaplReader,
    from: Ns,
}

impl RaplWindow {
    /// Opens the window at the machine's current time.
    pub(crate) fn open(sys: &mut System) -> Self {
        sys.sync_rapl_msrs();
        let reader = RaplReader::new(&sys.config().topology, sys.msrs())
            .expect("simulator MSR file is always well-formed");
        Self { reader, from: sys.now_ns() }
    }

    /// Polls the counters at the machine's current time.
    pub(crate) fn poll(&mut self, sys: &mut System) {
        sys.sync_rapl_msrs();
        self.reader.poll(sys.msrs()).expect("simulator MSR file is always well-formed");
    }

    /// Closes the window, returning `(package sum, core sum)` watts.
    pub(crate) fn finish(self, sys: &System) -> (f64, f64) {
        let dt = to_secs(sys.now_ns() - self.from);
        assert!(dt > 0.0, "RAPL window must have positive length");
        (self.reader.package_sum_joules() / dt, self.reader.core_sum_joules() / dt)
    }

    /// Closes the window, returning one core domain's mean power in watts.
    pub(crate) fn finish_core(self, sys: &System, core: CoreId) -> f64 {
        let dt = to_secs(sys.now_ns() - self.from);
        assert!(dt > 0.0, "RAPL window must have positive length");
        self.reader.core_joules(core.index()) / dt
    }
}

/// Sanity: probe windows cannot exceed this many simulated seconds (guards
/// against accidentally huge scenarios; the paper's longest run is 120 s).
pub(crate) const MAX_WINDOW_NS: Ns = 100_000 * SECOND;

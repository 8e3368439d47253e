//! On-line statistics for streaming sweeps: bounded-size aggregators
//! that reduce arbitrarily many [`Run`](crate::Run)s to summaries.
//!
//! A million-case sweep cannot keep its runs around; these aggregators
//! consume one observation (or one run's trace records) at a time and
//! hold O(1) state:
//!
//! * [`Welford`] — numerically stable mean/standard deviation plus
//!   min/max, via Welford's on-line algorithm.
//! * [`P2Quantile`] — a streaming quantile estimate (Jain & Chlamtac's
//!   P² algorithm, five markers, exact until the sixth observation).
//! * [`OnlineStats`] — the bundle the sweep engine hands out: Welford
//!   plus p50/p95 estimators behind one `push`.
//! * [`FreqResidency`] — time-at-frequency histogram reduced from
//!   [`Probe::TraceEvents`](crate::Probe::TraceEvents) records.
//! * [`TransitionStats`] — DVFS transition counts and request→apply
//!   latency statistics from the same records.
//! * [`GroupedStats`] — any of the above (or any `Default` accumulator),
//!   bucketed by one or more [`Sweep`] axes, so a sink folds a wide grid
//!   into per-frequency / per-config rows.
//!
//! Every aggregator is deterministic in its input order. The streaming
//! session delivers runs in case order regardless of worker count or
//! shard size, so feeding these from a
//! [`Session::run_streaming`](crate::Session::run_streaming) sink gives
//! bit-identical summaries for any parallelism.
//!
//! Every aggregator also implements [`Snapshot`]: its exact state dumps
//! to a JSON tree and restores bit-for-bit, which is what lets a
//! [`Checkpoint`](crate::checkpoint::Checkpoint) persist a half-finished
//! sweep at a shard boundary and resume it later with byte-identical
//! output. `GroupedStats<A>` is snapshottable whenever its accumulator
//! `A` is — including experiment-specific accumulators that implement
//! [`Snapshot`] themselves.

use crate::snapshot::{Json, Snapshot, SnapshotError};
use crate::sweep::Sweep;
use crate::time::Ns;
use crate::trace::{Event, Record};
use std::collections::BTreeMap;

/// Welford's on-line mean and variance, with min/max tracking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one observation.
    pub fn push(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Observations consumed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean.
    ///
    /// # Panics
    /// Panics on an empty accumulator.
    pub fn mean(&self) -> f64 {
        assert!(self.count > 0, "mean of an empty accumulator");
        self.mean
    }

    /// Sample standard deviation (n−1 denominator).
    ///
    /// # Panics
    /// Panics with fewer than two observations.
    pub fn std_dev(&self) -> f64 {
        assert!(self.count >= 2, "standard deviation needs at least two observations");
        (self.m2 / (self.count - 1) as f64).sqrt()
    }

    /// Smallest observation.
    ///
    /// # Panics
    /// Panics on an empty accumulator.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of an empty accumulator");
        self.min
    }

    /// Largest observation.
    ///
    /// # Panics
    /// Panics on an empty accumulator.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of an empty accumulator");
        self.max
    }
}

/// A streaming quantile estimator: the P² algorithm (Jain & Chlamtac,
/// CACM 1985). Five markers, O(1) state, exact for the first five
/// observations and a parabolic-interpolation estimate afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights.
    q: [f64; 5],
    /// Marker positions (1-based observation ranks).
    n: [i64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired-position increments per observation.
    dn: [f64; 5],
    /// Initial buffer until five observations have arrived.
    initial: Vec<f64>,
    count: u64,
}

impl P2Quantile {
    /// An estimator for the `p`-quantile, `0 < p < 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
        Self {
            p,
            q: [0.0; 5],
            n: [1, 2, 3, 4, 5],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            initial: Vec::with_capacity(5),
            count: 0,
        }
    }

    /// Consumes one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            self.initial.push(x);
            if self.count == 5 {
                self.initial.sort_by(f64::total_cmp);
                for (slot, &v) in self.q.iter_mut().zip(&self.initial) {
                    *slot = v;
                }
            }
            return;
        }

        // Locate the cell, extending the extreme markers if needed.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            (0..4).find(|&i| self.q[i] <= x && x < self.q[i + 1]).expect("x within marker span")
        };

        for i in (k + 1)..5 {
            self.n[i] += 1;
        }
        for (np, dn) in self.np.iter_mut().zip(&self.dn) {
            *np += dn;
        }

        // Nudge the three middle markers toward their desired positions.
        for i in 1..4 {
            let d = self.np[i] - self.n[i] as f64;
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1)
            {
                let d = d.signum() as i64;
                let parabolic = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    parabolic
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: i64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        let d = d as f64;
        let above = ((n[i] - n[i - 1]) as f64 + d) * (q[i + 1] - q[i]) / ((n[i + 1] - n[i]) as f64);
        let below = ((n[i + 1] - n[i]) as f64 - d) * (q[i] - q[i - 1]) / ((n[i] - n[i - 1]) as f64);
        q[i] + d / ((n[i + 1] - n[i - 1]) as f64) * (above + below)
    }

    fn linear(&self, i: usize, d: i64) -> f64 {
        let j = (i as i64 + d) as usize;
        self.q[i] + d as f64 * (self.q[j] - self.q[i]) / ((self.n[j] - self.n[i]) as f64)
    }

    /// Observations consumed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The current quantile estimate (exact for ≤ 5 observations).
    ///
    /// # Panics
    /// Panics on an empty estimator.
    pub fn estimate(&self) -> f64 {
        assert!(self.count > 0, "quantile of an empty estimator");
        if self.count <= 5 {
            // Exact: linear interpolation on the sorted buffer.
            let mut sorted = self.initial.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = self.p * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
        }
        self.q[2]
    }
}

/// One observable's complete streaming summary: count, mean, standard
/// deviation, min/max, and p50/p95 estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStats {
    welford: Welford,
    p50: P2Quantile,
    p95: P2Quantile,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// An empty summary.
    pub fn new() -> Self {
        Self { welford: Welford::new(), p50: P2Quantile::new(0.5), p95: P2Quantile::new(0.95) }
    }

    /// Consumes one observation.
    pub fn push(&mut self, x: f64) {
        self.welford.push(x);
        self.p50.push(x);
        self.p95.push(x);
    }

    /// Observations consumed so far.
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.welford.mean()
    }

    /// Sample standard deviation (n−1 denominator).
    pub fn std_dev(&self) -> f64 {
        self.welford.std_dev()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.welford.min()
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.welford.max()
    }

    /// Streaming median estimate.
    pub fn p50(&self) -> f64 {
        self.p50.estimate()
    }

    /// Streaming 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.p95.estimate()
    }
}

/// A frequency-residency histogram: how long a core spent at each
/// applied frequency, reduced from
/// [`Probe::TraceEvents`](crate::Probe::TraceEvents) records (pair it
/// with [`EventFilter::Freq`](crate::EventFilter::Freq) so the records
/// describe one core). Time before the first `FreqApplied` record in a
/// window has no known frequency and lands in
/// [`unknown_ns`](Self::unknown_ns); calling
/// [`observe`](Self::observe) repeatedly accumulates across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FreqResidency {
    by_mhz: BTreeMap<u32, Ns>,
    unknown_ns: Ns,
}

impl FreqResidency {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one run's records over the machine-absolute window
    /// `[from_ns, to_ns)`. Records outside the window still establish
    /// the frequency that is current when the window opens.
    pub fn observe(&mut self, records: &[Record], from_ns: Ns, to_ns: Ns) {
        assert!(from_ns <= to_ns, "residency window runs backwards");
        let mut current: Option<u32> = None;
        let mut cursor = from_ns;
        for record in records {
            let Event::FreqApplied { mhz, .. } = record.event else { continue };
            if record.at_ns <= from_ns {
                current = Some(mhz);
                continue;
            }
            let end = record.at_ns.min(to_ns);
            if end > cursor {
                self.credit(current, end - cursor);
                cursor = end;
            }
            if record.at_ns >= to_ns {
                current = Some(mhz);
                break;
            }
            current = Some(mhz);
        }
        if to_ns > cursor {
            self.credit(current, to_ns - cursor);
        }
    }

    fn credit(&mut self, mhz: Option<u32>, ns: Ns) {
        match mhz {
            Some(mhz) => *self.by_mhz.entry(mhz).or_insert(0) += ns,
            None => self.unknown_ns += ns,
        }
    }

    /// Residency per applied frequency, ns, ascending by MHz.
    pub fn residency(&self) -> &BTreeMap<u32, Ns> {
        &self.by_mhz
    }

    /// Time with no applied frequency on record yet, ns.
    pub fn unknown_ns(&self) -> Ns {
        self.unknown_ns
    }

    /// Total accumulated window time, ns (known + unknown).
    pub fn total_ns(&self) -> Ns {
        self.by_mhz.values().sum::<Ns>() + self.unknown_ns
    }

    /// Fraction of the *known* time spent at `mhz` (0 when nothing is
    /// known yet).
    pub fn share(&self, mhz: u32) -> f64 {
        let known = self.total_ns() - self.unknown_ns;
        if known == 0 {
            return 0.0;
        }
        self.by_mhz.get(&mhz).copied().unwrap_or(0) as f64 / known as f64
    }
}

/// DVFS transition statistics reduced from
/// [`Probe::TraceEvents`](crate::Probe::TraceEvents) records: completed
/// request→apply transitions, fast-path count, and streaming latency
/// statistics (ns).
///
/// Pairing generalizes the Fig. 3 recovery: per core, requests queue in
/// order (a repeated request for an already-queued target does not
/// restart its clock — the SMU coalesces it), and an apply matches the
/// earliest queued request for its target, retiring every older request
/// with it. Requests that overlap an in-flight transition (the SMU
/// queues them) therefore still pair with their own later application.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransitionStats {
    completed: u64,
    fast_path: u64,
    latency_ns: OnlineStats,
}

impl TransitionStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one run's records. Requests left pending when the
    /// record stream ends are dropped (the run ended mid-transition).
    pub fn observe(&mut self, records: &[Record]) {
        // Per-core queue of pending requests: (time, target MHz).
        let mut pending: BTreeMap<u32, Vec<(Ns, u32)>> = BTreeMap::new();
        for record in records {
            match record.event {
                Event::FreqRequested { core, target_mhz } => {
                    let queue = pending.entry(core.0).or_default();
                    if queue.iter().all(|&(_, mhz)| mhz != target_mhz) {
                        queue.push((record.at_ns, target_mhz));
                    }
                }
                Event::FreqApplied { core, mhz, fast_path } => {
                    let Some(queue) = pending.get_mut(&core.0) else { continue };
                    // An apply with no matching request (e.g. a settle
                    // transition recorded before the window) pairs with
                    // nothing and leaves the queue untouched.
                    let Some(at) = queue.iter().position(|&(_, target)| target == mhz) else {
                        continue;
                    };
                    let (requested_at, _) = queue[at];
                    queue.drain(..=at);
                    self.completed += 1;
                    if fast_path {
                        self.fast_path += 1;
                    }
                    self.latency_ns.push((record.at_ns - requested_at) as f64);
                }
                _ => {}
            }
        }
    }

    /// Completed request→apply transitions.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Transitions that took a §V-B fast path.
    pub fn fast_path(&self) -> u64 {
        self.fast_path
    }

    /// Streaming latency statistics over completed transitions, ns.
    pub fn latency_ns(&self) -> &OnlineStats {
        &self.latency_ns
    }
}

/// A streaming reducer bucketed by [`Sweep`] axes: one accumulator per
/// combination of the chosen axes' values, so a sink folds a wide grid
/// into per-frequency / per-config rows without ever materializing its
/// runs.
///
/// Construction captures only the grid's *shape* (axis lengths and value
/// labels) from the sweep — no closures, no cases — and
/// [`entry`](Self::entry) routes a streamed case index to its group by
/// the same row-major decode as [`Sweep::axis_indices`]. The accumulator
/// is any `Default` type: one of this module's aggregators, or an
/// experiment-specific struct bundling several of them.
///
/// Rows come back in grid order (the first grouping axis outermost),
/// independent of the order groups were first touched. Because
/// [`Session::run_streaming`](crate::Session::run_streaming) delivers
/// runs in case order for any worker count or shard size, every group's
/// accumulator sees its observations in case order too — grouped
/// summaries are bit-identical for any worker/shard split.
///
/// ```
/// use zen2_sim::stats::{GroupedStats, OnlineStats};
/// use zen2_sim::{Axis, Probe, Scenario, Session, SimConfig, Sweep, Window};
/// use zen2_isa::{KernelClass, OperandWeight};
/// use zen2_topology::ThreadId;
///
/// // 2 load levels × 3 seeds; group the 6 cases by load level.
/// let mut base = Scenario::new();
/// base.probe("ac", Probe::AcPowerW, Window::at(20_000)); // 20 µs: load has landed
/// let mut load = Axis::new("busy_threads");
/// for n in [1u32, 8] {
///     load = load.with(format!("{n}"), move |draft| {
///         let mut at = draft.scenario.at(0);
///         for t in 0..n {
///             at = at.workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
///         }
///     });
/// }
/// let sweep = Sweep::new("demo", SimConfig::epyc_7502_2s())
///     .scenario(base)
///     .seed(7)
///     .axis(load)
///     .axis(Axis::param("rep", (0..3).map(f64::from)));
///
/// let mut by_load: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["busy_threads"]);
/// let session = Session::new().workers(2).shard_size(2);
/// session.run_streaming(sweep.cases(), |i, run| by_load.entry(i).push(run.watts("ac"))).unwrap();
///
/// assert_eq!(by_load.len(), 2);
/// let rows: Vec<_> = by_load.rows().collect();
/// assert_eq!(rows[0].0, ["1"]);
/// assert_eq!(rows[1].0, ["8"]);
/// assert_eq!(rows[0].1.count(), 3);
/// assert!(rows[0].1.mean() < rows[1].1.mean());
/// assert_eq!(by_load.get(&["8"]).unwrap().count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedStats<A> {
    /// Per grouping axis: its name and value labels, in grouping order.
    axes: Vec<(String, Vec<String>)>,
    /// Position of each grouping axis among the sweep's axes.
    positions: Vec<usize>,
    /// Every sweep axis length, for the row-major case-index decode.
    lens: Vec<usize>,
    /// Accumulators keyed by grouping-axis value indices (grid order).
    groups: BTreeMap<Vec<usize>, A>,
}

impl<A> GroupedStats<A> {
    /// A reducer over `sweep`'s grid, grouping by the named axes (in the
    /// order given, which sets the row order: first name outermost).
    ///
    /// # Panics
    /// Panics when `by` is empty, names an axis the sweep does not have,
    /// or names the same axis twice.
    pub fn new(sweep: &Sweep, by: &[&str]) -> Self {
        assert!(!by.is_empty(), "grouping needs at least one axis");
        let mut axes = Vec::with_capacity(by.len());
        let mut positions = Vec::with_capacity(by.len());
        for name in by {
            let position = sweep
                .axes()
                .iter()
                .position(|axis| axis.name() == *name)
                .unwrap_or_else(|| panic!("sweep has no axis named {name:?}"));
            assert!(!positions.contains(&position), "axis {name:?} listed twice");
            positions.push(position);
            let axis = &sweep.axes()[position];
            axes.push((axis.name().to_string(), axis.value_labels().map(String::from).collect()));
        }
        Self {
            axes,
            positions,
            lens: sweep.axes().iter().map(crate::sweep::Axis::len).collect(),
            groups: BTreeMap::new(),
        }
    }

    /// The names of the grouping axes, in row order.
    pub fn group_axes(&self) -> impl Iterator<Item = &str> {
        self.axes.iter().map(|(name, _)| name.as_str())
    }

    /// Decodes a case index into this reducer's group key.
    fn key_of(&self, case_index: usize) -> Vec<usize> {
        let total: usize = self.lens.iter().product();
        assert!(case_index < total, "case {case_index} out of range ({total} cases)");
        let mut rest = case_index;
        let mut all = vec![0; self.lens.len()];
        for (slot, len) in all.iter_mut().zip(&self.lens).rev() {
            *slot = rest % len;
            rest /= len;
        }
        self.positions.iter().map(|&p| all[p]).collect()
    }

    /// The accumulator for case `case_index`'s group, created on first
    /// touch — the call a streaming sink makes per delivery.
    ///
    /// # Panics
    /// Panics when `case_index` is outside the grid the reducer was
    /// built over.
    pub fn entry(&mut self, case_index: usize) -> &mut A
    where
        A: Default,
    {
        let key = self.key_of(case_index);
        self.groups.entry(key).or_default()
    }

    /// The number of groups touched so far (at most the product of the
    /// grouping axes' lengths).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no case has been routed yet (e.g. the grid was empty).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The accumulator for the group with the given value labels (one
    /// per grouping axis, in row order), or `None` when the labels name
    /// no group or the group was never touched.
    pub fn get(&self, labels: &[&str]) -> Option<&A> {
        if labels.len() != self.axes.len() {
            return None;
        }
        let key: Option<Vec<usize>> = self
            .axes
            .iter()
            .zip(labels)
            .map(|((_, values), label)| values.iter().position(|v| v == label))
            .collect();
        self.groups.get(&key?)
    }

    /// All touched groups in grid order (first grouping axis outermost),
    /// each as its value labels plus the accumulator.
    pub fn rows(&self) -> impl Iterator<Item = (Vec<&str>, &A)> {
        self.groups.iter().map(|(key, stats)| {
            let labels =
                self.axes.iter().zip(key).map(|((_, values), &v)| values[v].as_str()).collect();
            (labels, stats)
        })
    }

    /// Like [`rows`](Self::rows), but consuming the reducer and handing
    /// out owned accumulators (for building result structs).
    pub fn into_rows(self) -> impl Iterator<Item = (Vec<String>, A)> {
        let axes = self.axes;
        self.groups.into_iter().map(move |(key, stats)| {
            let labels = axes.iter().zip(&key).map(|((_, values), &v)| values[v].clone()).collect();
            (labels, stats)
        })
    }
}

// ---------------------------------------------------------------------
// Merge: pairwise combination of independently accumulated halves of a
// split stream — the reduction a fleet run performs when disjoint
// case-index ranges come back from separate processes (see
// [`Checkpoint::merge`](crate::checkpoint::Checkpoint::merge)).
// ---------------------------------------------------------------------

/// A merge failure: the two sides do not describe the same reduction
/// (e.g. two [`GroupedStats`] reducers with different shapes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError(String);

impl MergeError {
    /// Builds an error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        Self(reason.into())
    }
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for MergeError {}

/// Pairwise combination of two independently accumulated summaries:
/// after `a.merge(&b)`, `a` summarizes the concatenation of the two
/// input streams (`a`'s stream first).
///
/// Exactness varies by accumulator and is documented per impl:
/// [`FreqResidency`] and the counts of [`TransitionStats`] are integer
/// sums (exact, associative, commutative); [`Welford`] uses Chan et
/// al.'s pairwise combination (exact in real arithmetic, agrees with
/// one-pass accumulation up to floating-point rounding, and count /
/// min / max are always exact); [`P2Quantile`] is an approximation with
/// a stated bound plus a re-reduce escape hatch
/// ([`P2Quantile::from_samples`]). Merging with an empty side is always
/// bit-exact.
pub trait Merge {
    /// Folds `other` — the summary of the *later* half of a split
    /// stream — into `self`.
    fn merge(&mut self, other: &Self);
}

impl Merge for Welford {
    /// Chan et al.'s pairwise combination (updating formulae for the
    /// two-set case): with `nₐ`, `n_b` the counts, `δ = mean_b − meanₐ`,
    ///
    /// ```text
    /// n = nₐ + n_b
    /// mean = meanₐ + δ·n_b/n
    /// M2 = M2ₐ + M2_b + δ²·nₐ·n_b/n
    /// ```
    ///
    /// Exact in real arithmetic; in `f64` the result agrees with
    /// one-pass accumulation over the concatenated stream up to
    /// floating-point rounding (Chan et al. bound the pairwise error
    /// *tighter* than one-pass). `count`, `min`, and `max` are exact
    /// for any split, and merging with an empty side is bit-exact.
    fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (na, nb) = (self.count as f64, other.count as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        self.mean += delta * (nb / n);
        self.m2 += other.m2 + delta * delta * (na * nb / n);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }
}

/// Piecewise-linear inverse of a non-decreasing `(probability, height)`
/// polyline, clamped at the ends.
fn inverse_cdf(points: &[(f64, f64)], pr: f64) -> f64 {
    let first = points[0];
    let last = points[points.len() - 1];
    if pr <= first.0 {
        return first.1;
    }
    if pr >= last.0 {
        return last.1;
    }
    let mut i = 0;
    while i + 2 < points.len() && points[i + 1].0 < pr {
        i += 1;
    }
    let (p0, h0) = points[i];
    let (p1, h1) = points[i + 1];
    if p1 <= p0 {
        return h1;
    }
    h0 + (pr - p0) / (p1 - p0) * (h1 - h0)
}

impl P2Quantile {
    /// The re-reduce escape hatch: rebuilds an estimator by replaying
    /// `samples` in order — what a caller that retained (or can
    /// re-derive) the raw observations uses instead of
    /// [`merge`](Merge::merge) when it needs the exact one-pass result
    /// rather than the marker-weighted approximation.
    pub fn from_samples(p: f64, samples: impl IntoIterator<Item = f64>) -> Self {
        let mut est = Self::new(p);
        for x in samples {
            est.push(x);
        }
        est
    }

    /// This estimator's piecewise-linear empirical-CDF estimate at
    /// height `h`, read off the five markers. Only meaningful once the
    /// markers are live (`count > 5`).
    fn cdf_at(&self, h: f64) -> f64 {
        debug_assert!(self.count > 5, "marker CDF before the markers are live");
        if h <= self.q[0] {
            return 0.0;
        }
        if h >= self.q[4] {
            return 1.0;
        }
        let denom = (self.count - 1) as f64;
        for i in 0..4 {
            if h < self.q[i + 1] {
                let p0 = (self.n[i] - 1) as f64 / denom;
                let p1 = (self.n[i + 1] - 1) as f64 / denom;
                if self.q[i + 1] <= self.q[i] {
                    return p1;
                }
                return p0 + (h - self.q[i]) / (self.q[i + 1] - self.q[i]) * (p1 - p0);
            }
        }
        1.0
    }
}

impl Merge for P2Quantile {
    /// Marker-weighted combine. When either side still holds its raw
    /// observations (count ≤ 5, the `initial` buffer), they are simply
    /// replayed — exact one-pass accumulation. Otherwise each side's
    /// five markers define a piecewise-linear empirical CDF; the merged
    /// markers are read off the count-weighted mixture of the two CDFs
    /// at the five desired quantile positions (0, p/2, p, (1+p)/2, 1),
    /// with the extreme markers set to the exact global min/max.
    ///
    /// **Error bound.** Every P² marker height lies within the observed
    /// `[min, max]` (parabolic adjustments are clamped between their
    /// neighbours), and the mixture interpolation stays within the
    /// union of the marker heights — so a merged estimate and a
    /// re-reduced one ([`P2Quantile::from_samples`] over the
    /// concatenated stream) are both hard-bounded by the combined
    /// stream's `max − min`. Empirically the two agree far tighter: a
    /// few percent of that range on smooth 10⁴-sample streams (see the
    /// merge-law tests). Callers needing the exact one-pass value must
    /// re-reduce.
    ///
    /// # Panics
    /// Panics when the two sides estimate different quantiles.
    fn merge(&mut self, other: &Self) {
        assert!(
            self.p.to_bits() == other.p.to_bits(),
            "cannot merge a p={} estimator into a p={} estimator",
            other.p,
            self.p
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        if other.count <= 5 {
            // The later side still holds its raw observations: replay
            // them — exactly one-pass accumulation over the
            // concatenated stream.
            let theirs = other.initial.clone();
            for x in theirs {
                self.push(x);
            }
            return;
        }
        if self.count <= 5 {
            // Mirror image: replay our raw observations into a copy of
            // the other side. P² is order-sensitive, so this is the
            // replay order that keeps one side exact.
            let mine = std::mem::take(&mut self.initial);
            *self = other.clone();
            for x in mine {
                self.push(x);
            }
            return;
        }
        // Both sides are past their initial buffers: combine the two
        // marker sets through the count-weighted mixture CDF.
        let (na, nb) = (self.count as f64, other.count as f64);
        let mut heights: Vec<f64> = self.q.iter().chain(other.q.iter()).copied().collect();
        heights.sort_by(f64::total_cmp);
        let mixture: Vec<(f64, f64)> = heights
            .iter()
            .map(|&h| ((na * self.cdf_at(h) + nb * other.cdf_at(h)) / (na + nb), h))
            .collect();
        let probs = [0.0, self.p / 2.0, self.p, (1.0 + self.p) / 2.0, 1.0];
        let mut q = [0.0; 5];
        for (slot, &pr) in q.iter_mut().zip(&probs) {
            *slot = inverse_cdf(&mixture, pr);
        }
        q[0] = self.q[0].min(other.q[0]);
        q[4] = self.q[4].max(other.q[4]);
        for i in 1..4 {
            q[i] = q[i].max(q[i - 1]).min(q[4]);
        }
        let count = self.count + other.count;
        // Desired positions as if `count` observations had streamed
        // through one estimator: the initial positions grown by dn per
        // observation past the fifth.
        let base = [1.0, 1.0 + 2.0 * self.p, 1.0 + 4.0 * self.p, 3.0 + 2.0 * self.p, 5.0];
        let grown = (count - 5) as f64;
        let mut np = [0.0; 5];
        for ((slot, b), dn) in np.iter_mut().zip(&base).zip(&self.dn) {
            *slot = b + grown * dn;
        }
        // Actual positions: strictly increasing integers pinned at the
        // extremes, the middle three rounded from the desired positions.
        let mut n = [0i64; 5];
        n[0] = 1;
        n[4] = count as i64;
        for i in 1..4 {
            let hi = count as i64 - (4 - i as i64);
            n[i] = (np[i].round() as i64).clamp(n[i - 1] + 1, hi);
        }
        self.q = q;
        self.n = n;
        self.np = np;
        self.count = count;
        // `initial` keeps the earlier side's first five observations;
        // it is only ever read while count ≤ 5.
    }
}

impl Merge for OnlineStats {
    /// The Welford half merges exactly (Chan et al., see
    /// [`Welford`]'s impl); `p50`/`p95` carry the [`P2Quantile`] merge
    /// semantics and its documented tolerance.
    fn merge(&mut self, other: &Self) {
        self.welford.merge(&other.welford);
        self.p50.merge(&other.p50);
        self.p95.merge(&other.p95);
    }
}

impl Merge for FreqResidency {
    /// Integer addition per frequency bucket — exact, associative, and
    /// commutative.
    fn merge(&mut self, other: &Self) {
        for (&mhz, &ns) in &other.by_mhz {
            *self.by_mhz.entry(mhz).or_insert(0) += ns;
        }
        self.unknown_ns += other.unknown_ns;
    }
}

impl Merge for TransitionStats {
    /// Counts add exactly; the latency summary carries the
    /// [`OnlineStats`] merge semantics. Request→apply pairing is
    /// per-[`observe`](TransitionStats::observe) call (pending queues
    /// never span calls), so merging two accumulators equals observing
    /// both sides' record batches through one.
    fn merge(&mut self, other: &Self) {
        self.completed += other.completed;
        self.fast_path += other.fast_path;
        self.latency_ns.merge(&other.latency_ns);
    }
}

impl<A: Merge + Clone> GroupedStats<A> {
    /// Folds `other`'s rows into this reducer, row-wise: a row both
    /// sides touched merges its accumulators ([`Merge`]); a row only
    /// one side touched lands verbatim — bit-exact, which is the
    /// partition case a fleet run produces when a contiguous case-range
    /// split never cuts through a row (every wide grid in this tree
    /// groups by all of its axes, so this always holds there).
    ///
    /// # Errors
    /// Errors when the shapes disagree ([`shape_matches`](Self::shape_matches)
    /// is the guard; checkpoint-level merges additionally compare sweep
    /// fingerprints before getting here).
    pub fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if !self.shape_matches(other) {
            return Err(MergeError::new(format!(
                "cannot merge grouped reducers with different shapes: \
                 this side is {}, the other is {}",
                self.shape_description(),
                other.shape_description()
            )));
        }
        for (key, acc) in &other.groups {
            match self.groups.entry(key.clone()) {
                std::collections::btree_map::Entry::Occupied(mut slot) => slot.get_mut().merge(acc),
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(acc.clone());
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Snapshot impls: exact JSON round-trips for checkpoint/resume. Every
// field is persisted verbatim — nothing is re-derived on restore, so a
// restored accumulator continues bit-identically to the original.
// ---------------------------------------------------------------------

impl Snapshot for Welford {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("count", Json::u64(self.count)),
            ("mean", Json::f64(self.mean)),
            ("m2", Json::f64(self.m2)),
            ("min", Json::f64(self.min)),
            ("max", Json::f64(self.max)),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            count: json.get("count")?.as_u64()?,
            mean: json.get("mean")?.as_f64()?,
            m2: json.get("m2")?.as_f64()?,
            min: json.get("min")?.as_f64()?,
            max: json.get("max")?.as_f64()?,
        })
    }
}

/// Reads a fixed-length `f64` array field.
fn f64_array<const N: usize>(json: &Json) -> Result<[f64; N], SnapshotError> {
    let values = json.as_f64s()?;
    values.try_into().map_err(|_| SnapshotError::new(format!("expected an array of {N} numbers")))
}

impl Snapshot for P2Quantile {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("p", Json::f64(self.p)),
            ("q", Json::f64s(self.q)),
            ("n", Json::Arr(self.n.iter().map(|&v| Json::Num(v.to_string())).collect())),
            ("np", Json::f64s(self.np)),
            ("dn", Json::f64s(self.dn)),
            ("initial", Json::f64s(self.initial.iter().copied())),
            ("count", Json::u64(self.count)),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        let n_values: Vec<i64> =
            json.get("n")?.items()?.iter().map(Json::as_i64).collect::<Result<_, _>>()?;
        let n: [i64; 5] = n_values
            .try_into()
            .map_err(|_| SnapshotError::new("expected an array of 5 marker positions"))?;
        let p = json.get("p")?.as_f64()?;
        if !(p > 0.0 && p < 1.0) {
            return Err(SnapshotError::new(format!("quantile {p} outside (0, 1)")));
        }
        Ok(Self {
            p,
            q: f64_array(json.get("q")?)?,
            n,
            np: f64_array(json.get("np")?)?,
            dn: f64_array(json.get("dn")?)?,
            initial: json.get("initial")?.as_f64s()?,
            count: json.get("count")?.as_u64()?,
        })
    }
}

impl Snapshot for OnlineStats {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("welford", self.welford.snapshot()),
            ("p50", self.p50.snapshot()),
            ("p95", self.p95.snapshot()),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            welford: Welford::restore(json.get("welford")?)?,
            p50: P2Quantile::restore(json.get("p50")?)?,
            p95: P2Quantile::restore(json.get("p95")?)?,
        })
    }
}

impl Snapshot for FreqResidency {
    fn snapshot(&self) -> Json {
        let rows = self
            .by_mhz
            .iter()
            .map(|(&mhz, &ns)| Json::Arr(vec![Json::u64(mhz as u64), Json::u64(ns)]))
            .collect();
        Json::obj([("unknown_ns", Json::u64(self.unknown_ns)), ("residency", Json::Arr(rows))])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        let mut by_mhz = BTreeMap::new();
        for row in json.get("residency")?.items()? {
            let [mhz, ns] = row.items()? else {
                return Err(SnapshotError::new("expected [mhz, ns] residency pairs"));
            };
            let mhz = u32::try_from(mhz.as_u64()?)
                .map_err(|_| SnapshotError::new("frequency exceeds u32"))?;
            if by_mhz.insert(mhz, ns.as_u64()?).is_some() {
                return Err(SnapshotError::new(format!("duplicate residency row for {mhz} MHz")));
            }
        }
        Ok(Self { by_mhz, unknown_ns: json.get("unknown_ns")?.as_u64()? })
    }
}

impl Snapshot for TransitionStats {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("completed", Json::u64(self.completed)),
            ("fast_path", Json::u64(self.fast_path)),
            ("latency_ns", self.latency_ns.snapshot()),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            completed: json.get("completed")?.as_u64()?,
            fast_path: json.get("fast_path")?.as_u64()?,
            latency_ns: OnlineStats::restore(json.get("latency_ns")?)?,
        })
    }
}

impl<A> GroupedStats<A> {
    /// Whether `other` reduces the same grid the same way: same grouping
    /// axes (names and value labels), same axis positions, same sweep
    /// axis lengths. Accumulator contents are not compared — this is the
    /// resume-time guard that a checkpoint belongs to the sweep being
    /// resumed.
    pub fn shape_matches(&self, other: &Self) -> bool {
        self.axes == other.axes && self.positions == other.positions && self.lens == other.lens
    }

    /// A one-line rendering of the shape, for mismatch errors.
    pub fn shape_description(&self) -> String {
        let axes: Vec<String> =
            self.axes.iter().map(|(name, values)| format!("{name}({})", values.len())).collect();
        format!("grouped by [{}] over grid {:?}", axes.join(", "), self.lens)
    }

    /// The shape alone (axes, positions, lens) as JSON — the grouped
    /// header line of a checkpoint file.
    pub(crate) fn shape_snapshot(&self) -> Json {
        let axes = self
            .axes
            .iter()
            .map(|(name, values)| {
                Json::obj([
                    ("name", Json::str(name.clone())),
                    ("values", Json::Arr(values.iter().map(|v| Json::str(v.clone())).collect())),
                ])
            })
            .collect();
        Json::obj([
            ("axes", Json::Arr(axes)),
            ("positions", Json::usizes(self.positions.iter().copied())),
            ("lens", Json::usizes(self.lens.iter().copied())),
        ])
    }

    /// Rebuilds an empty reducer from a [`shape_snapshot`](Self::shape_snapshot).
    pub(crate) fn restore_shape(json: &Json) -> Result<Self, SnapshotError> {
        let mut axes = Vec::new();
        for axis in json.get("axes")?.items()? {
            let name = axis.get("name")?.as_str()?.to_string();
            let values = axis
                .get("values")?
                .items()?
                .iter()
                .map(|v| Ok(v.as_str()?.to_string()))
                .collect::<Result<Vec<_>, SnapshotError>>()?;
            axes.push((name, values));
        }
        let positions = json.get("positions")?.as_usizes()?;
        let lens = json.get("lens")?.as_usizes()?;
        if positions.len() != axes.len() {
            return Err(SnapshotError::new("positions and axes disagree in length"));
        }
        if positions.iter().any(|&p| p >= lens.len()) {
            return Err(SnapshotError::new("grouping position outside the sweep's axes"));
        }
        Ok(Self { axes, positions, lens, groups: BTreeMap::new() })
    }
}

impl<A: Snapshot> GroupedStats<A> {
    /// One `{"key": …, "acc": …}` object per touched group, in grid
    /// order — the row lines of a checkpoint file.
    pub(crate) fn row_snapshots(&self) -> impl Iterator<Item = Json> + '_ {
        self.groups.iter().map(|(key, acc)| {
            Json::obj([("key", Json::usizes(key.iter().copied())), ("acc", acc.snapshot())])
        })
    }

    /// Inserts one [`row_snapshots`](Self::row_snapshots) row back.
    pub(crate) fn restore_row(&mut self, json: &Json) -> Result<(), SnapshotError> {
        let key = json.get("key")?.as_usizes()?;
        if key.len() != self.axes.len() {
            return Err(SnapshotError::new(format!(
                "group key {key:?} has {} indices, the shape groups by {} axes",
                key.len(),
                self.axes.len()
            )));
        }
        for (i, (&v, (name, values))) in key.iter().zip(&self.axes).enumerate() {
            if v >= values.len() {
                return Err(SnapshotError::new(format!(
                    "group key index {v} out of range for axis {name:?} (position {i}, {} values)",
                    values.len()
                )));
            }
        }
        let acc = A::restore(json.get("acc")?)?;
        if self.groups.insert(key.clone(), acc).is_some() {
            return Err(SnapshotError::new(format!("duplicate group key {key:?}")));
        }
        Ok(())
    }
}

/// The whole reducer — shape plus every touched group's accumulator —
/// as one self-contained snapshot. Checkpoint files split the same data
/// across lines (shape first, then one object per row) via the
/// `pub(crate)` halves; this impl is the single-document form used by
/// round-trip tests and ad-hoc persistence.
impl<A: Snapshot> Snapshot for GroupedStats<A> {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("shape", self.shape_snapshot()),
            ("rows", Json::Arr(self.row_snapshots().collect())),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        let mut grouped = Self::restore_shape(json.get("shape")?)?;
        for row in json.get("rows")?.items()? {
            grouped.restore_row(row)?;
        }
        Ok(grouped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen2_topology::CoreId;

    fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
        let rank = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo])
    }

    #[test]
    fn welford_matches_batch_formulas() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 1000);
        assert!((w.mean() - crate::methodology::mean(&xs)).abs() < 1e-9);
        assert!((w.std_dev() - crate::methodology::std_dev(&xs)).abs() < 1e-9);
        assert_eq!(w.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(w.max(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn p2_is_exact_for_small_samples() {
        let mut q = P2Quantile::new(0.5);
        for x in [5.0, 1.0, 3.0] {
            q.push(x);
        }
        assert_eq!(q.estimate(), 3.0);
        q.push(2.0);
        q.push(4.0);
        assert_eq!(q.estimate(), 3.0);
    }

    #[test]
    fn p2_tracks_known_quantiles_of_a_large_stream() {
        // A deterministic, well-shuffled stream over [0, 1).
        let xs: Vec<f64> = (0..10_000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [0.5, 0.95] {
            let mut est = P2Quantile::new(p);
            for &x in &xs {
                est.push(x);
            }
            let exact = exact_quantile(&sorted, p);
            assert!(
                (est.estimate() - exact).abs() < 0.02,
                "p{p}: estimate {} vs exact {exact}",
                est.estimate()
            );
        }
    }

    #[test]
    fn online_stats_bundle() {
        let mut s = OnlineStats::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.count(), 100);
        assert!((s.mean() - 50.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.p50() - 50.5).abs() < 2.0);
        assert!((s.p95() - 95.0).abs() < 2.5);
    }

    fn applied(at_ns: Ns, mhz: u32) -> Record {
        Record { at_ns, event: Event::FreqApplied { core: CoreId(0), mhz, fast_path: false } }
    }

    fn requested(at_ns: Ns, target_mhz: u32) -> Record {
        Record { at_ns, event: Event::FreqRequested { core: CoreId(0), target_mhz } }
    }

    #[test]
    fn residency_attributes_segments_and_unknown_lead_in() {
        let records = [applied(100, 2200), applied(300, 1500), applied(900, 2200)];
        let mut r = FreqResidency::new();
        r.observe(&records, 0, 1000);
        assert_eq!(r.unknown_ns(), 100);
        assert_eq!(r.residency()[&2200], 200 + 100);
        assert_eq!(r.residency()[&1500], 600);
        assert_eq!(r.total_ns(), 1000);
        // A second observation accumulates, and pre-window records
        // establish the frequency at the window start.
        r.observe(&records, 400, 800);
        assert_eq!(r.residency()[&1500], 600 + 400);
    }

    #[test]
    fn residency_share_ignores_unknown_time() {
        let mut r = FreqResidency::new();
        r.observe(&[applied(500, 1500)], 0, 1000);
        assert_eq!(r.unknown_ns(), 500);
        assert!((r.share(1500) - 1.0).abs() < 1e-12);
        assert_eq!(r.share(2200), 0.0);
    }

    #[test]
    fn transitions_pair_requests_with_applies() {
        let records = [
            requested(100, 1500),
            // A repeat of the pending target must not restart the clock.
            requested(200, 1500),
            applied(500, 1500),
            requested(1000, 2200),
            applied(1400, 2200),
            // An apply with no pending request is ignored.
            applied(2000, 2500),
        ];
        let mut t = TransitionStats::new();
        t.observe(&records);
        assert_eq!(t.completed(), 2);
        assert_eq!(t.fast_path(), 0);
        assert_eq!(t.latency_ns().count(), 2);
        assert_eq!(t.latency_ns().min(), 400.0);
        assert_eq!(t.latency_ns().max(), 400.0);
    }

    #[test]
    fn transitions_survive_overlapping_requests() {
        // The SMU queues a request that arrives mid-transition; both
        // transitions complete and both must be counted with their own
        // request times.
        let records =
            [requested(0, 1500), requested(10, 2200), applied(500, 1500), applied(900, 2200)];
        let mut t = TransitionStats::new();
        t.observe(&records);
        assert_eq!(t.completed(), 2);
        assert_eq!(t.latency_ns().min(), 500.0);
        assert_eq!(t.latency_ns().max(), 890.0);
    }

    /// A 3×2 grid shape for grouped-routing tests (never simulated).
    fn shape_sweep() -> Sweep {
        Sweep::new("shape", crate::SimConfig::epyc_7502_2s())
            .axis(crate::sweep::Axis::param("outer", [10.0, 20.0, 30.0]))
            .axis(crate::sweep::Axis::param("inner", [1.0, 2.0]))
    }

    #[test]
    fn grouped_routes_case_indices_like_axis_indices() {
        let sweep = shape_sweep();
        let mut by_outer: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer"]);
        let mut by_inner: GroupedStats<Welford> = GroupedStats::new(&sweep, &["inner"]);
        for i in 0..sweep.len() {
            by_outer.entry(i).push(i as f64);
            by_inner.entry(i).push(i as f64);
        }
        // Row-major: outer varies every 2 cases, inner alternates.
        assert_eq!(by_outer.len(), 3);
        let outer: Vec<_> = by_outer.rows().collect();
        assert_eq!(outer[0].0, ["10"]);
        assert_eq!(outer[0].1.min(), 0.0);
        assert_eq!(outer[0].1.max(), 1.0);
        assert_eq!(outer[2].0, ["30"]);
        assert_eq!(outer[2].1.min(), 4.0);
        assert_eq!(by_inner.len(), 2);
        assert_eq!(by_inner.get(&["1"]).unwrap().count(), 3);
        assert_eq!(by_inner.get(&["2"]).unwrap().mean(), (1.0 + 3.0 + 5.0) / 3.0);
    }

    #[test]
    fn grouped_by_both_axes_gives_one_group_per_case() {
        let sweep = shape_sweep();
        let mut g: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer", "inner"]);
        for i in 0..sweep.len() {
            g.entry(i).push(i as f64);
        }
        assert_eq!(g.len(), 6);
        let labels: Vec<Vec<&str>> = g.rows().map(|(labels, _)| labels).collect();
        assert_eq!(labels[0], ["10", "1"]);
        assert_eq!(labels[1], ["10", "2"]);
        assert_eq!(labels[5], ["30", "2"]);
        assert_eq!(g.group_axes().collect::<Vec<_>>(), ["outer", "inner"]);
        // Owned extraction preserves grid order.
        let owned: Vec<(Vec<String>, Welford)> = g.into_rows().collect();
        assert_eq!(owned[5].0, ["30", "2"]);
        assert_eq!(owned[5].1.mean(), 5.0);
    }

    #[test]
    fn grouped_get_rejects_unknown_labels_and_wrong_arity() {
        let sweep = shape_sweep();
        let mut g: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer"]);
        g.entry(0).push(1.0);
        assert!(g.get(&["10"]).is_some());
        assert!(g.get(&["20"]).is_none(), "valid label, untouched group");
        assert!(g.get(&["nope"]).is_none());
        assert!(g.get(&["10", "1"]).is_none(), "arity mismatch");
        assert!(g.get(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "no axis named")]
    fn grouped_rejects_unknown_axis() {
        let _: GroupedStats<Welford> = GroupedStats::new(&shape_sweep(), &["nope"]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn grouped_rejects_out_of_range_case() {
        let sweep = shape_sweep();
        let mut g: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer"]);
        g.entry(6);
    }

    #[test]
    fn snapshots_round_trip_exactly() {
        let mut online = OnlineStats::new();
        let mut welford = Welford::new();
        let mut freq = FreqResidency::new();
        let mut trans = TransitionStats::new();
        for i in 0..100 {
            let x = ((i * 37) % 101) as f64 / 7.0 - 5.0;
            online.push(x);
            welford.push(x);
        }
        freq.observe(&[applied(100, 2200), applied(300, 1500)], 0, 1000);
        trans.observe(&[requested(100, 1500), applied(500, 1500)]);

        assert_eq!(OnlineStats::from_json_text(&online.to_json_text()).unwrap(), online);
        assert_eq!(Welford::from_json_text(&welford.to_json_text()).unwrap(), welford);
        assert_eq!(FreqResidency::from_json_text(&freq.to_json_text()).unwrap(), freq);
        assert_eq!(TransitionStats::from_json_text(&trans.to_json_text()).unwrap(), trans);

        // A restored accumulator continues bit-identically.
        let mut restored = OnlineStats::from_json_text(&online.to_json_text()).unwrap();
        online.push(0.123456789);
        restored.push(0.123456789);
        assert_eq!(online, restored);
        assert_eq!(online.p95().to_bits(), restored.p95().to_bits());
    }

    #[test]
    fn grouped_snapshot_round_trips_and_guards_shape() {
        let sweep = shape_sweep();
        let mut g: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer"]);
        for i in 0..4 {
            g.entry(i).push(i as f64);
        }
        let restored = GroupedStats::<Welford>::from_json_text(&g.to_json_text()).unwrap();
        assert_eq!(restored, g);
        assert!(restored.shape_matches(&g));
        // A reducer over different axes does not match.
        let other: GroupedStats<Welford> = GroupedStats::new(&sweep, &["inner"]);
        assert!(!other.shape_matches(&g));
        assert!(g.shape_description().contains("outer(3)"));
        // Restored reducers keep routing cases identically.
        let mut a = g.clone();
        let mut b = restored;
        a.entry(5).push(9.0);
        b.entry(5).push(9.0);
        assert_eq!(a, b);
    }

    #[test]
    fn grouped_restore_rejects_corrupt_rows() {
        let sweep = shape_sweep();
        let mut g: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer"]);
        g.entry(0).push(1.0);
        let shape = g.shape_snapshot();
        let mut fresh = GroupedStats::<Welford>::restore_shape(&shape).unwrap();
        // Key arity mismatch.
        let bad = Json::obj([("key", Json::usizes([0, 1])), ("acc", Welford::new().snapshot())]);
        assert!(fresh.restore_row(&bad).is_err());
        // Key index out of range for the axis.
        let bad = Json::obj([("key", Json::usizes([9])), ("acc", Welford::new().snapshot())]);
        assert!(fresh.restore_row(&bad).unwrap_err().to_string().contains("out of range"));
        // Duplicate rows are rejected.
        let row = g.row_snapshots().next().unwrap();
        fresh.restore_row(&row).unwrap();
        assert!(fresh.restore_row(&row).unwrap_err().to_string().contains("duplicate"));
    }

    #[test]
    fn transitions_track_fast_path_and_pending_drops() {
        let mut t = TransitionStats::new();
        t.observe(&[
            requested(0, 2500),
            Record {
                at_ns: 10,
                event: Event::FreqApplied { core: CoreId(0), mhz: 2500, fast_path: true },
            },
            // Left pending at end of stream: dropped.
            requested(100, 1500),
        ]);
        assert_eq!(t.completed(), 1);
        assert_eq!(t.fast_path(), 1);
    }

    #[test]
    fn welford_merge_is_chan_combination() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let mut one = Welford::new();
        for &x in &xs {
            one.push(x);
        }
        for cut in [0, 1, 499, 999, 1000] {
            let mut a = Welford::new();
            for &x in &xs[..cut] {
                a.push(x);
            }
            let mut b = Welford::new();
            for &x in &xs[cut..] {
                b.push(x);
            }
            a.merge(&b);
            assert_eq!(a.count(), one.count());
            assert_eq!(a.min(), one.min());
            assert_eq!(a.max(), one.max());
            assert!((a.mean() - one.mean()).abs() < 1e-9, "cut {cut}");
            assert!((a.std_dev() - one.std_dev()).abs() < 1e-9, "cut {cut}");
        }
        // Merging with an empty side is bit-exact in both directions.
        let mut left = one.clone();
        left.merge(&Welford::new());
        assert_eq!(left, one);
        let mut empty = Welford::new();
        empty.merge(&one);
        assert_eq!(empty, one);
    }

    #[test]
    fn p2_merge_replays_a_small_side_exactly() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 53) % 97) as f64 / 9.0).collect();
        let mut one = P2Quantile::new(0.5);
        for &x in &xs {
            one.push(x);
        }
        // Right side holds ≤ 5 observations: its raw samples are still
        // in the initial buffer, so the merge is exact one-pass replay.
        let mut a = P2Quantile::new(0.5);
        for &x in &xs[..96] {
            a.push(x);
        }
        let mut b = P2Quantile::new(0.5);
        for &x in &xs[96..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a, one);
    }

    #[test]
    fn p2_merge_tracks_re_reduce_on_a_large_stream() {
        // The documented empirical bound: merged vs re-reduced within a
        // few percent of the observed range on smooth 10⁴-sample
        // streams (the hard bound — the full range — is proptested).
        let xs: Vec<f64> = (0..10_000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        for p in [0.5, 0.95] {
            let re_reduced = P2Quantile::from_samples(p, xs.iter().copied());
            for cut in [50, 2_500, 5_000, 9_950] {
                let mut a = P2Quantile::from_samples(p, xs[..cut].iter().copied());
                let b = P2Quantile::from_samples(p, xs[cut..].iter().copied());
                a.merge(&b);
                assert_eq!(a.count(), 10_000);
                let diff = (a.estimate() - re_reduced.estimate()).abs();
                assert!(
                    diff < 0.05,
                    "p{p} cut {cut}: merged {} vs re-reduced {}",
                    a.estimate(),
                    re_reduced.estimate()
                );
            }
        }
    }

    #[test]
    fn residency_and_transition_merges_are_exact() {
        let batch_a = [applied(100, 2200), applied(300, 1500)];
        let batch_b = [applied(50, 2500), applied(700, 2200)];
        let mut one = FreqResidency::new();
        one.observe(&batch_a, 0, 1000);
        one.observe(&batch_b, 0, 1000);
        let mut a = FreqResidency::new();
        a.observe(&batch_a, 0, 1000);
        let mut b = FreqResidency::new();
        b.observe(&batch_b, 0, 1000);
        a.merge(&b);
        assert_eq!(a, one);

        let records_a = [requested(100, 1500), applied(500, 1500)];
        let records_b = [requested(0, 2200), applied(900, 2200)];
        let mut one = TransitionStats::new();
        one.observe(&records_a);
        one.observe(&records_b);
        let mut ta = TransitionStats::new();
        ta.observe(&records_a);
        let mut tb = TransitionStats::new();
        tb.observe(&records_b);
        ta.merge(&tb);
        assert_eq!(ta.completed(), one.completed());
        assert_eq!(ta.fast_path(), one.fast_path());
        assert_eq!(ta.latency_ns().count(), one.latency_ns().count());
        assert_eq!(ta.latency_ns().min(), one.latency_ns().min());
        assert_eq!(ta.latency_ns().max(), one.latency_ns().max());
        assert!((ta.latency_ns().mean() - one.latency_ns().mean()).abs() < 1e-9);
    }

    #[test]
    fn grouped_merge_unions_rows_and_guards_shape() {
        let sweep = shape_sweep();
        // Disjoint case ranges over an all-axes grouping: one case per
        // row, so the union is verbatim — bit-exact vs one pass.
        let mut left: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer", "inner"]);
        let mut right = left.clone();
        let mut one = left.clone();
        for i in 0..6 {
            one.entry(i).push(i as f64);
            if i < 3 {
                left.entry(i).push(i as f64);
            } else {
                right.entry(i).push(i as f64);
            }
        }
        left.merge(&right).unwrap();
        assert_eq!(left, one);
        // Rows both sides touched merge their accumulators.
        let mut a: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer"]);
        let mut b = a.clone();
        a.entry(0).push(1.0);
        b.entry(0).push(3.0);
        b.entry(4).push(9.0);
        a.merge(&b).unwrap();
        assert_eq!(a.get(&["10"]).unwrap().count(), 2);
        assert_eq!(a.get(&["10"]).unwrap().mean(), 2.0);
        assert_eq!(a.get(&["30"]).unwrap().count(), 1);
        // The shape guard names both shapes.
        let mut by_inner: GroupedStats<Welford> = GroupedStats::new(&sweep, &["inner"]);
        let err = by_inner.merge(&a).unwrap_err();
        assert!(err.to_string().contains("different shapes"), "{err}");
        assert!(err.to_string().contains("outer(3)"), "{err}");
    }

    #[test]
    fn online_stats_merge_bundles_all_three() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 31) % 83) as f64).collect();
        let mut one = OnlineStats::new();
        for &x in &xs {
            one.push(x);
        }
        let mut a = OnlineStats::new();
        for &x in &xs[..120] {
            a.push(x);
        }
        let mut b = OnlineStats::new();
        for &x in &xs[120..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), one.min());
        assert_eq!(a.max(), one.max());
        assert!((a.mean() - one.mean()).abs() < 1e-9);
        // Quantiles carry the P² merge tolerance: close on this smooth
        // stream, hard-bounded by the observed range in general.
        assert!((a.p50() - one.p50()).abs() < 5.0);
        assert!((a.p95() - one.p95()).abs() < 5.0);
    }
}

/// Merge laws (see the satellite battery in `tests/fleet_merge.rs` for
/// the checkpoint-level partition equivalence): merging any split of a
/// stream agrees with one-pass accumulation over the whole stream, and
/// merge is associative — exactly for integer state, up to
/// magnitude-scaled floating-point rounding for Welford means and
/// variances, and within the documented bounds for P² quantiles.
#[cfg(test)]
mod merge_props {
    use super::*;
    use crate::proptests::arb_finite_f64;
    use proptest::prelude::*;
    use zen2_topology::CoreId;

    /// A deterministic well-shuffled stream over [0, 1) from a seed.
    fn uniform_stream(seed: u64, len: usize) -> Vec<f64> {
        (0..len as u64)
            .map(|i| {
                let x = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let x = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((x ^ (x >> 27)) >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn folded<'a>(xs: impl IntoIterator<Item = &'a f64>) -> Welford {
        let mut w = Welford::new();
        for &x in xs {
            w.push(x);
        }
        w
    }

    /// Merged-vs-one-pass agreement for floating-point state: the two
    /// evaluation orders round differently, so agreement holds up to a
    /// tolerance scaled by the data's magnitude. Where the scale itself
    /// leaves the representable range (differences or squares overflow
    /// `f64`), either order may overflow and the comparison is vacuous.
    fn agrees(a: f64, b: f64, tol: f64) -> bool {
        if tol.is_infinite() {
            return true;
        }
        a.to_bits() == b.to_bits() || (a - b).abs() <= tol
    }

    fn mean_tol(n: usize, scale: f64) -> f64 {
        if scale > 8.0e307 {
            // mean differences up to 2·scale are not representable.
            return f64::INFINITY;
        }
        1e-9 * scale.max(1.0) * n.max(1) as f64
    }

    fn var_tol(n: usize, scale: f64) -> f64 {
        let s = scale.max(1.0) * n.max(1) as f64;
        1e-8 * s * s // overflows to +inf exactly when squares can
    }

    fn magnitude(xs: &[f64]) -> f64 {
        xs.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    fn variance(w: &Welford) -> f64 {
        let sd = w.std_dev();
        sd * sd
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        /// Welford: merging any split agrees with one-pass accumulation
        /// over the concatenated stream — count/min/max exactly,
        /// mean/variance up to magnitude-scaled rounding.
        #[test]
        fn welford_merge_agrees_with_one_pass(
            xs in prop::collection::vec(arb_finite_f64(), 0..200),
            raw_cut in any::<usize>(),
        ) {
            let cut = raw_cut % (xs.len() + 1);
            let one = folded(&xs);
            let mut merged = folded(&xs[..cut]);
            merged.merge(&folded(&xs[cut..]));
            prop_assert_eq!(merged.count(), one.count());
            if xs.is_empty() {
                return Ok(());
            }
            let scale = magnitude(&xs);
            prop_assert!(merged.min() == one.min() && merged.max() == one.max());
            prop_assert!(
                agrees(merged.mean(), one.mean(), mean_tol(xs.len(), scale)),
                "mean {} vs {}", merged.mean(), one.mean()
            );
            if xs.len() >= 2 {
                prop_assert!(
                    agrees(variance(&merged), variance(&one), var_tol(xs.len(), scale)),
                    "variance {} vs {}", variance(&merged), variance(&one)
                );
            }
        }

        /// Welford: merge is associative — (a⊕b)⊕c vs a⊕(b⊕c), same
        /// exact/tolerance split as above.
        #[test]
        fn welford_merge_is_associative(
            xs in prop::collection::vec(arb_finite_f64(), 0..200),
            raw_i in any::<usize>(),
            raw_j in any::<usize>(),
        ) {
            let i = raw_i % (xs.len() + 1);
            let j = i + raw_j % (xs.len() - i + 1);
            let (a, b, c) = (folded(&xs[..i]), folded(&xs[i..j]), folded(&xs[j..]));
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut right_tail = b;
            right_tail.merge(&c);
            let mut right = a;
            right.merge(&right_tail);
            prop_assert_eq!(left.count(), right.count());
            if xs.is_empty() {
                return Ok(());
            }
            let scale = magnitude(&xs);
            prop_assert!(left.min() == right.min() && left.max() == right.max());
            prop_assert!(agrees(left.mean(), right.mean(), mean_tol(xs.len(), scale)));
            if xs.len() >= 2 {
                prop_assert!(agrees(variance(&left), variance(&right), var_tol(xs.len(), scale)));
            }
        }

        /// OnlineStats: the Welford half follows the Welford laws; the
        /// quantile halves stay within the hard bound (both estimates
        /// are marker heights, confined to the observed range).
        #[test]
        fn online_stats_merge_agrees_with_one_pass(
            xs in prop::collection::vec(arb_finite_f64(), 1..200),
            raw_cut in any::<usize>(),
        ) {
            let cut = raw_cut % (xs.len() + 1);
            let mut one = OnlineStats::new();
            for &x in &xs {
                one.push(x);
            }
            let mut merged = OnlineStats::new();
            for &x in &xs[..cut] {
                merged.push(x);
            }
            let mut later = OnlineStats::new();
            for &x in &xs[cut..] {
                later.push(x);
            }
            merged.merge(&later);
            prop_assert_eq!(merged.count(), one.count());
            let scale = magnitude(&xs);
            prop_assert!(merged.min() == one.min() && merged.max() == one.max());
            prop_assert!(agrees(merged.mean(), one.mean(), mean_tol(xs.len(), scale)));
            // Hard quantile bound: estimates never leave [min, max].
            let span = one.max() - one.min();
            prop_assert!(agrees(merged.p50(), one.p50(), span.abs()));
            prop_assert!(agrees(merged.p95(), one.p95(), span.abs()));
        }

        /// FreqResidency: integer state — merge equals observing every
        /// batch through one accumulator, bit-for-bit, and is
        /// associative.
        #[test]
        fn freq_residency_merge_is_exact(
            batches in prop::collection::vec(
                prop::collection::vec((prop::sample::select(vec![1500u32, 2200, 2500]), 1u64..500), 0..8),
                3,
            ),
        ) {
            let records: Vec<Vec<Record>> = batches
                .iter()
                .map(|batch| {
                    let mut at = 0;
                    batch
                        .iter()
                        .map(|&(mhz, gap)| {
                            at += gap;
                            Record {
                                at_ns: at,
                                event: Event::FreqApplied { core: CoreId(0), mhz, fast_path: false },
                            }
                        })
                        .collect()
                })
                .collect();
            let mut one = FreqResidency::new();
            let parts: Vec<FreqResidency> = records
                .iter()
                .map(|records| {
                    one.observe(records, 0, 5000);
                    let mut part = FreqResidency::new();
                    part.observe(records, 0, 5000);
                    part
                })
                .collect();
            let mut left = parts[0].clone();
            left.merge(&parts[1]);
            left.merge(&parts[2]);
            let mut tail = parts[1].clone();
            tail.merge(&parts[2]);
            let mut right = parts[0].clone();
            right.merge(&tail);
            prop_assert_eq!(&left, &one);
            prop_assert_eq!(&right, &one);
        }

        /// TransitionStats: counts merge bit-exactly; the latency
        /// summary follows the OnlineStats laws.
        #[test]
        fn transition_merge_agrees_with_one_pass(
            batches in prop::collection::vec(
                prop::collection::vec((1u64..1_000_000, 1u64..2_000_000), 0..6),
                3,
            ),
        ) {
            // Sequential request→apply pairs, alternating targets so
            // every request pairs with its own apply.
            let records: Vec<Vec<Record>> = batches
                .iter()
                .map(|batch| {
                    let mut at = 0;
                    let mut out = Vec::new();
                    for (k, &(gap, delay)) in batch.iter().enumerate() {
                        let target = if k % 2 == 0 { 1500 } else { 2200 };
                        at += gap;
                        out.push(Record {
                            at_ns: at,
                            event: Event::FreqRequested { core: CoreId(0), target_mhz: target },
                        });
                        at += delay;
                        out.push(Record {
                            at_ns: at,
                            event: Event::FreqApplied {
                                core: CoreId(0),
                                mhz: target,
                                fast_path: false,
                            },
                        });
                    }
                    out
                })
                .collect();
            let mut one = TransitionStats::new();
            let parts: Vec<TransitionStats> = records
                .iter()
                .map(|records| {
                    one.observe(records);
                    let mut part = TransitionStats::new();
                    part.observe(records);
                    part
                })
                .collect();
            let mut merged = parts[0].clone();
            merged.merge(&parts[1]);
            merged.merge(&parts[2]);
            prop_assert_eq!(merged.completed(), one.completed());
            prop_assert_eq!(merged.fast_path(), one.fast_path());
            prop_assert_eq!(merged.latency_ns().count(), one.latency_ns().count());
            if one.latency_ns().count() > 0 {
                prop_assert!(merged.latency_ns().min() == one.latency_ns().min());
                prop_assert!(merged.latency_ns().max() == one.latency_ns().max());
                let n = one.latency_ns().count() as usize;
                prop_assert!(agrees(
                    merged.latency_ns().mean(),
                    one.latency_ns().mean(),
                    mean_tol(n, 2e6)
                ));
            }
        }

        /// P²: the merge error versus a re-reduce over the concatenated
        /// 10⁴-sample stream is small on smooth streams (≤ 5% of the
        /// range here) — the documented empirical bound.
        #[test]
        fn p2_merge_error_bounded_vs_re_reduce(
            seed in any::<u64>(),
            raw_cut in any::<usize>(),
        ) {
            let xs = uniform_stream(seed, 10_000);
            // Keep both sides past the initial buffer so the
            // marker-weighted path (not the exact replay) is exercised.
            let cut = 6 + raw_cut % (xs.len() - 12);
            for p in [0.5, 0.95] {
                let re_reduced = P2Quantile::from_samples(p, xs.iter().copied());
                let mut merged = P2Quantile::from_samples(p, xs[..cut].iter().copied());
                merged.merge(&P2Quantile::from_samples(p, xs[cut..].iter().copied()));
                prop_assert_eq!(merged.count(), 10_000);
                let diff = (merged.estimate() - re_reduced.estimate()).abs();
                prop_assert!(diff < 0.05, "p{} cut {}: diff {}", p, cut, diff);
            }
        }

        /// P² hard bound on arbitrary finite streams: merged and
        /// re-reduced estimates are both marker heights, so they can
        /// never differ by more than the observed range.
        #[test]
        fn p2_merge_respects_the_hard_range_bound(
            xs in prop::collection::vec(arb_finite_f64(), 12..300),
            raw_cut in any::<usize>(),
        ) {
            let cut = 6 + raw_cut % (xs.len() - 11);
            let re_reduced = P2Quantile::from_samples(0.5, xs.iter().copied());
            let mut merged = P2Quantile::from_samples(0.5, xs[..cut].iter().copied());
            merged.merge(&P2Quantile::from_samples(0.5, xs[cut..].iter().copied()));
            let lo = xs.iter().fold(f64::INFINITY, |m, &x| m.min(x));
            let hi = xs.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
            let span = hi - lo; // +inf when not representable: vacuous
            prop_assert!(agrees(merged.estimate(), re_reduced.estimate(), span));
        }
    }
}

//! Declarative parameter sweeps: a grid of axes lazily yielding
//! [`Case`]s, streamed through a [`Session`](crate::Session) worker
//! pool and reduced with the on-line aggregators in
//! [`stats`](crate::stats).
//!
//! A [`Sweep`] describes a cross product without materializing it: each
//! [`Axis`] contributes a list of labelled values, and every grid point
//! is built on demand by applying one value per axis to a draft of the
//! base `(config, scenario, seed)`.
//! [`Session::run_streaming`](crate::Session::run_streaming) over
//! [`Sweep::cases`] then pushes each completed [`Run`](crate::Run) to a
//! sink in case order while the session holds at most
//! `workers × shard_size` cases in memory — a million-point grid
//! reduces to bounded-size summaries:
//!
//! ```
//! use zen2_sim::stats::OnlineStats;
//! use zen2_sim::{Axis, Probe, Scenario, Session, SimConfig, Sweep, Window};
//! use zen2_isa::{KernelClass, OperandWeight};
//! use zen2_topology::{CoreId, ThreadId};
//!
//! let mut base = Scenario::new();
//! base.at(0).workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
//! base.probe("ghz", Probe::EffectiveGhz(CoreId(0)), Window::at_secs(0.03));
//! let sweep = Sweep::new("demo", SimConfig::epyc_7502_2s())
//!     .scenario(base)
//!     .seed(42)
//!     .axis(Axis::new("freq").with("1500", |d| {
//!         d.scenario.at(0).pstate(ThreadId(0), 1500).pstate(ThreadId(1), 1500);
//!     }).with("2200", |d| {
//!         d.scenario.at(0).pstate(ThreadId(0), 2200).pstate(ThreadId(1), 2200);
//!     }));
//! let mut ghz = OnlineStats::new();
//! let session = Session::new().workers(2).shard_size(4);
//! let n = session.run_streaming(sweep.cases(), |_, run| ghz.push(run.ghz("ghz"))).unwrap();
//! assert_eq!(n, 2);
//! assert!(ghz.min() < ghz.max());
//! ```

use crate::config::SimConfig;
use crate::scenario::Scenario;
use crate::session::Case;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// SplitMix64-based child-seed derivation: the `index`-th child of a
/// root seed. Deterministic, decorrelated between adjacent indices, and
/// shared with the experiment crate's fan-outs.
pub fn child_seed(root: u64, index: u64) -> u64 {
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut state = root ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
    let mut out = splitmix64(&mut state);
    // One extra round decorrelates adjacent indices thoroughly.
    out ^= splitmix64(&mut state);
    out
}

/// A case under construction: the base `(config, scenario, seed)` with
/// one value per axis applied to it, plus a scratch parameter map for
/// axes whose effect is only realized jointly (a [`Sweep::finish`] hook
/// reads the accumulated parameters and performs the combined edit).
#[derive(Debug, Clone)]
pub struct CaseDraft {
    /// The machine configuration this case will boot.
    pub config: SimConfig,
    /// The schedule this case will execute.
    pub scenario: Scenario,
    /// The seed this case will run under (pre-set from the sweep's seed
    /// derivation; an axis may overwrite it).
    pub seed: u64,
    params: BTreeMap<String, f64>,
}

impl CaseDraft {
    /// Stores a named parameter for a later axis or the
    /// [`Sweep::finish`] hook.
    pub fn set_param(&mut self, name: impl Into<String>, value: f64) {
        self.params.insert(name.into(), value);
    }

    /// Reads a stored parameter.
    ///
    /// # Panics
    /// Panics when no axis stored `name`.
    pub fn param(&self, name: &str) -> f64 {
        *self.params.get(name).unwrap_or_else(|| panic!("no sweep parameter named {name:?}"))
    }
}

type Applier = Arc<dyn Fn(&mut CaseDraft) + Send + Sync>;

/// One labelled value of an [`Axis`].
#[derive(Clone)]
struct AxisValue {
    label: String,
    apply: Applier,
}

/// One dimension of a sweep grid: a name plus an ordered list of
/// labelled values, each a [`CaseDraft`] edit.
#[derive(Clone)]
pub struct Axis {
    name: String,
    values: Vec<AxisValue>,
}

impl fmt::Debug for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field("values", &self.values.iter().map(|v| &v.label).collect::<Vec<_>>())
            .finish()
    }
}

impl Axis {
    /// An empty axis; add values with [`with`](Self::with).
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), values: Vec::new() }
    }

    /// Appends a labelled value applying an arbitrary draft edit
    /// (mutate the scenario, swap the config, override the seed, store
    /// a parameter — anything).
    pub fn with(
        mut self,
        label: impl Into<String>,
        apply: impl Fn(&mut CaseDraft) + Send + Sync + 'static,
    ) -> Self {
        self.values.push(AxisValue { label: label.into(), apply: Arc::new(apply) });
        self
    }

    /// An axis over whole machine configurations.
    pub fn configs(
        name: impl Into<String>,
        items: impl IntoIterator<Item = (String, SimConfig)>,
    ) -> Self {
        items.into_iter().fold(Self::new(name), |axis, (label, config)| {
            axis.with(label, move |draft| draft.config = config.clone())
        })
    }

    /// An axis over explicit seeds (replaces the sweep's derived seed).
    pub fn seeds(name: impl Into<String>, seeds: impl IntoIterator<Item = u64>) -> Self {
        seeds.into_iter().fold(Self::new(name), |axis, seed| {
            axis.with(format!("{seed}"), move |draft| draft.seed = seed)
        })
    }

    /// An axis storing a numeric parameter under this axis's name, for
    /// a later axis or the [`Sweep::finish`] hook to consume.
    pub fn param(name: impl Into<String>, values: impl IntoIterator<Item = f64>) -> Self {
        let name = name.into();
        let param = name.clone();
        values.into_iter().fold(Self::new(name), move |axis, value| {
            let param = param.clone();
            axis.with(format!("{value}"), move |draft| draft.set_param(param.clone(), value))
        })
    }

    /// The axis name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of values on this axis.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis has no values (its sweep yields no cases).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The label of value `i`, or `None` when `i` is out of range.
    pub fn value_label(&self, i: usize) -> Option<&str> {
        self.values.get(i).map(|v| v.label.as_str())
    }

    /// All value labels, in axis order.
    pub fn value_labels(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(|v| v.label.as_str())
    }
}

type SeedFn = Arc<dyn Fn(u64) -> u64 + Send + Sync>;

/// A declarative parameter grid over a base `(config, scenario)`. The
/// cross product of all axes is never materialized: [`cases`](Self::cases)
/// yields each grid point on demand, in row-major order (the first axis
/// declared is the outermost, the last varies fastest).
#[derive(Clone)]
pub struct Sweep {
    label: String,
    base_config: SimConfig,
    base_scenario: Scenario,
    axes: Vec<Axis>,
    seed_fn: SeedFn,
    finish: Option<Applier>,
}

impl fmt::Debug for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sweep")
            .field("label", &self.label)
            .field("axes", &self.axes)
            .field("len", &self.len())
            .finish()
    }
}

impl Sweep {
    /// A sweep over a base configuration with an empty scenario, no
    /// axes (one case: the base itself) and case index as the seed.
    pub fn new(label: impl Into<String>, config: SimConfig) -> Self {
        Self {
            label: label.into(),
            base_config: config,
            base_scenario: Scenario::new(),
            axes: Vec::new(),
            seed_fn: Arc::new(|index| index),
            finish: None,
        }
    }

    /// Sets the base scenario every case starts from.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.base_scenario = scenario;
        self
    }

    /// Derives each case's seed as [`child_seed`]`(root, index)`.
    pub fn seed(self, root: u64) -> Self {
        self.seed_fn(move |index| child_seed(root, index))
    }

    /// Replaces the seed derivation entirely (`case index → seed`).
    pub fn seed_fn(mut self, f: impl Fn(u64) -> u64 + Send + Sync + 'static) -> Self {
        self.seed_fn = Arc::new(f);
        self
    }

    /// Appends a grid dimension.
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// The grid's axes, in declaration order (outermost first).
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// The sweep's label (the prefix of every case label).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Installs a hook running after all axis values have been applied
    /// to a draft — the place to turn accumulated
    /// [parameters](CaseDraft::param) into one joint scenario/config
    /// edit.
    pub fn finish(mut self, f: impl Fn(&mut CaseDraft) + Send + Sync + 'static) -> Self {
        self.finish = Some(Arc::new(f));
        self
    }

    /// Grid size: the product of the axis lengths (1 with no axes; 0 if
    /// any axis is empty).
    pub fn len(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Whether the grid has no cases.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-axis value indices of case `index` (row-major decode) —
    /// the key for bucketing streamed results per grid point, and what
    /// [`GroupedStats`](crate::stats::GroupedStats) uses to route a case
    /// to its group.
    ///
    /// # Panics
    /// Panics when `index` is outside the grid (`index >= self.len()`).
    pub fn axis_indices(&self, index: usize) -> Vec<usize> {
        assert!(index < self.len(), "case {index} out of range ({} cases)", self.len());
        let mut rest = index;
        let mut out = vec![0; self.axes.len()];
        for (slot, axis) in out.iter_mut().zip(&self.axes).rev() {
            *slot = rest % axis.len();
            rest /= axis.len();
        }
        out
    }

    /// Builds case `index` of the grid.
    ///
    /// # Panics
    /// Panics when `index` is outside the grid (`index >= self.len()`),
    /// the same contract as [`axis_indices`](Self::axis_indices); use
    /// [`cases`](Self::cases) to iterate without index bookkeeping.
    pub fn case(&self, index: usize) -> Case {
        let mut draft = CaseDraft {
            config: self.base_config.clone(),
            scenario: self.base_scenario.clone(),
            seed: (self.seed_fn)(index as u64),
            params: BTreeMap::new(),
        };
        let mut label = self.label.clone();
        for (axis, value_index) in self.axes.iter().zip(self.axis_indices(index)) {
            let value = &axis.values[value_index];
            label.push_str(&format!("/{}={}", axis.name, value.label));
            (value.apply)(&mut draft);
        }
        if let Some(finish) = &self.finish {
            finish(&mut draft);
        }
        Case::new(label, draft.config, draft.scenario, draft.seed)
    }

    /// Lazily yields every case of the grid, in case-index order.
    pub fn cases(&self) -> impl Iterator<Item = Case> + '_ {
        (0..self.len()).map(|index| self.case(index))
    }

    /// Lazily yields exactly the cases `start..start + len` (clamped to
    /// the grid) — the resume and shard path. Because every case is a
    /// pure function of its index (seeds come from the sweep's seed
    /// derivation, labels and scenarios from the axis decode), a slice
    /// re-derives exactly the cases an interrupted run had left. Both
    /// ends are bounded: the session fetches a full
    /// `workers × shard_size` group at a time before it looks at what
    /// arrived, and a slice never derives a case outside itself no
    /// matter the worker/shard-size split.
    ///
    /// ```
    /// use zen2_sim::{Axis, SimConfig, Sweep};
    ///
    /// let sweep = Sweep::new("grid", SimConfig::epyc_7502_2s())
    ///     .seed(7)
    ///     .axis(Axis::param("x", [0.0, 1.0, 2.0]))
    ///     .axis(Axis::param("y", [0.0, 1.0]));
    /// let slice: Vec<_> = sweep.take_range(2, 3).map(|c| c.label).collect();
    /// let full: Vec<_> = sweep.cases().map(|c| c.label).collect();
    /// assert_eq!(slice, full[2..5]);
    /// // Both ends clamp to the grid.
    /// assert_eq!(sweep.take_range(4, 99).count(), 2);
    /// assert_eq!(sweep.take_range(99, 1).count(), 0);
    /// ```
    pub fn take_range(&self, start: usize, len: usize) -> impl Iterator<Item = Case> + '_ {
        let start = start.min(self.len());
        let end = start.saturating_add(len).min(self.len());
        (start..end).map(|index| self.case(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Probe, Window};

    fn instant_sweep() -> Sweep {
        let mut base = Scenario::new();
        base.probe("ac", Probe::AcPowerW, Window::at(0));
        Sweep::new("grid", SimConfig::epyc_7502_2s()).scenario(base).seed(7)
    }

    #[test]
    fn child_seed_is_deterministic_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| child_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| child_seed(42, i)).collect();
        assert_eq!(a, b);
        // zen2-lint: allow(no-unordered-iteration) — cardinality-only uniqueness check; never iterated
        let unique: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(unique.len(), 64);
        assert_ne!(child_seed(1, 0), child_seed(2, 0));
    }

    #[test]
    fn grid_is_row_major_with_first_axis_outermost() {
        let sweep = instant_sweep()
            .axis(Axis::param("outer", [0.0, 1.0, 2.0]))
            .axis(Axis::param("inner", [0.0, 1.0]));
        assert_eq!(sweep.len(), 6);
        assert_eq!(sweep.axis_indices(0), [0, 0]);
        assert_eq!(sweep.axis_indices(1), [0, 1]);
        assert_eq!(sweep.axis_indices(2), [1, 0]);
        assert_eq!(sweep.axis_indices(5), [2, 1]);
        assert_eq!(sweep.case(3).label, "grid/outer=1/inner=1");
    }

    #[test]
    fn axes_apply_in_order_and_finish_sees_all_params() {
        let sweep = instant_sweep()
            .axis(Axis::param("a", [2.0]))
            .axis(Axis::param("b", [3.0]))
            .finish(|draft| {
                let product = draft.param("a") * draft.param("b");
                draft.seed = product as u64;
            });
        assert_eq!(sweep.case(0).seed, 6);
    }

    #[test]
    fn seeds_default_to_child_derivation_and_axes_can_override() {
        let sweep = instant_sweep().axis(Axis::param("x", [0.0, 1.0, 2.0]));
        for i in 0..3 {
            assert_eq!(sweep.case(i).seed, child_seed(7, i as u64));
        }
        let fixed = instant_sweep().axis(Axis::seeds("seed", [100, 200]));
        assert_eq!(fixed.case(0).seed, 100);
        assert_eq!(fixed.case(1).seed, 200);
    }

    #[test]
    fn config_axis_swaps_the_machine() {
        let sweep = instant_sweep().axis(Axis::configs(
            "sku",
            [
                ("2s".to_string(), SimConfig::epyc_7502_2s()),
                ("1s".to_string(), SimConfig::epyc_7502_1s()),
            ],
        ));
        assert_eq!(sweep.case(0).config, SimConfig::epyc_7502_2s());
        assert_eq!(sweep.case(1).config, SimConfig::epyc_7502_1s());
        assert_eq!(sweep.case(1).label, "grid/sku=1s");
    }

    #[test]
    fn value_label_is_none_out_of_range() {
        let axis = Axis::param("x", [1.0, 2.0]);
        assert_eq!(axis.value_label(0), Some("1"));
        assert_eq!(axis.value_label(1), Some("2"));
        assert_eq!(axis.value_label(2), None);
        assert_eq!(axis.value_labels().collect::<Vec<_>>(), ["1", "2"]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn case_panics_out_of_range_as_documented() {
        let sweep = instant_sweep().axis(Axis::param("x", [1.0, 2.0]));
        let _ = sweep.case(2);
    }

    #[test]
    fn empty_axis_empties_the_grid_and_no_axes_mean_one_case() {
        assert_eq!(instant_sweep().len(), 1);
        let empty = instant_sweep().axis(Axis::new("none"));
        assert!(empty.is_empty());
        assert_eq!(empty.cases().count(), 0);
    }
}

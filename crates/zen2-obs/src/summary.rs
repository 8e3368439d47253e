//! The end-of-run summary sink: bounded-size aggregation of a whole
//! run's telemetry into one human-readable table.
//!
//! Everything aggregates through the same on-line accumulators the
//! sweeps themselves use ([`OnlineStats`] = Welford + P² quantiles), so
//! memory stays O(distinct names) no matter how many cases ran: span
//! durations per span name, one distribution per `observe` name,
//! plain totals per counter, last level per gauge, and per-worker busy
//! time derived from `case` spans' `worker` attribute against the
//! `pool` spans' wall time (the utilization column).

use std::collections::BTreeMap;
use std::sync::Mutex;

use zen2_sim::obs::{Attr, AttrValue, Recorder, SpanId, SPAN_CASE, SPAN_POOL};
use zen2_sim::OnlineStats;

use crate::clock;

/// Aggregates a run's telemetry; render the table with
/// [`SummarySink::render`] once the run is done.
#[derive(Debug, Default)]
pub struct SummarySink {
    inner: Mutex<Summary>,
}

#[derive(Debug, Default)]
struct Summary {
    /// Open spans: id → (name, open timestamp, `worker` attr of `case`
    /// spans).
    open: BTreeMap<u64, (&'static str, u64, Option<u64>)>,
    /// Span duration distributions (seconds), per span name.
    spans: BTreeMap<&'static str, OnlineStats>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    observed: BTreeMap<&'static str, OnlineStats>,
    /// Busy nanoseconds per worker index, from closed `case` spans.
    worker_busy_ns: BTreeMap<u64, u64>,
    /// Total wall nanoseconds spent inside `pool` spans.
    pool_wall_ns: u64,
}

impl SummarySink {
    /// An empty sink.
    pub fn new() -> SummarySink {
        SummarySink::default()
    }

    /// The aggregated table: span durations, counters, gauges, observed
    /// distributions, and per-worker utilization.
    pub fn render(&self) -> String {
        let s = self.inner.lock().expect("summary sink poisoned");
        let mut out = String::new();
        if !s.spans.is_empty() {
            out.push_str(&format!(
                "{:<14}{:>9}{:>12}{:>12}{:>12}{:>12}\n",
                "span", "count", "mean", "p50", "p95", "max"
            ));
            for (name, d) in &s.spans {
                out.push_str(&format!(
                    "{:<14}{:>9}{:>12}{:>12}{:>12}{:>12}\n",
                    name,
                    d.count(),
                    fmt_secs(d.mean()),
                    fmt_secs(d.p50()),
                    fmt_secs(d.p95()),
                    fmt_secs(d.max()),
                ));
            }
        }
        if !s.observed.is_empty() {
            out.push_str(&format!(
                "{:<14}{:>9}{:>12}{:>12}{:>12}{:>12}\n",
                "observed", "count", "mean", "p50", "p95", "max"
            ));
            for (name, d) in &s.observed {
                out.push_str(&format!(
                    "{:<14}{:>9}{:>12.2}{:>12.2}{:>12.2}{:>12.2}\n",
                    name,
                    d.count(),
                    d.mean(),
                    d.p50(),
                    d.p95(),
                    d.max(),
                ));
            }
        }
        if !s.counters.is_empty() {
            out.push_str(&format!("{:<22}{:>13}\n", "counter", "total"));
            for (name, total) in &s.counters {
                out.push_str(&format!("{name:<22}{total:>13}\n"));
            }
        }
        if !s.gauges.is_empty() {
            out.push_str(&format!("{:<22}{:>13}\n", "gauge", "last"));
            for (name, value) in &s.gauges {
                out.push_str(&format!("{name:<22}{value:>13.2}\n"));
            }
        }
        if !s.worker_busy_ns.is_empty() && s.pool_wall_ns > 0 {
            out.push_str(&format!("{:<10}{:>12}{:>8}\n", "worker", "busy", "util"));
            for (worker, busy) in &s.worker_busy_ns {
                let util = 100.0 * *busy as f64 / s.pool_wall_ns as f64;
                out.push_str(&format!(
                    "{:<10}{:>12}{:>7.1}%\n",
                    worker,
                    fmt_secs(*busy as f64 / 1e9),
                    util
                ));
            }
        }
        out
    }
}

/// A duration in seconds as a short human unit (ns/µs/ms/s).
fn fmt_secs(secs: f64) -> String {
    if !secs.is_finite() {
        return "-".to_string();
    }
    let ns = secs * 1e9;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{secs:.2}s")
    }
}

impl Recorder for SummarySink {
    fn span_open(
        &self,
        id: SpanId,
        _parent: Option<SpanId>,
        name: &'static str,
        attrs: &[Attr<'_>],
    ) {
        let t = clock::now_ns();
        let worker = (name == SPAN_CASE)
            .then(|| {
                attrs.iter().find_map(|(k, v)| match v {
                    AttrValue::U64(w) if *k == "worker" => Some(*w),
                    _ => None,
                })
            })
            .flatten();
        let mut s = self.inner.lock().expect("summary sink poisoned");
        s.open.insert(id.0, (name, t, worker));
    }

    fn span_close(&self, id: SpanId) {
        let t = clock::now_ns();
        let mut s = self.inner.lock().expect("summary sink poisoned");
        let Some((name, opened, worker)) = s.open.remove(&id.0) else { return };
        let dur_ns = t.saturating_sub(opened);
        s.spans.entry(name).or_default().push(dur_ns as f64 / 1e9);
        if name == SPAN_POOL {
            s.pool_wall_ns += dur_ns;
        }
        if let Some(w) = worker {
            *s.worker_busy_ns.entry(w).or_insert(0) += dur_ns;
        }
    }

    fn counter(&self, name: &'static str, delta: u64) {
        let mut s = self.inner.lock().expect("summary sink poisoned");
        *s.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        let mut s = self.inner.lock().expect("summary sink poisoned");
        s.gauges.insert(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        let mut s = self.inner.lock().expect("summary sink poisoned");
        s.observed.entry(name).or_default().push(value);
    }

    fn event(&self, _name: &'static str, _attrs: &[Attr<'_>]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_spans_counters_and_workers() {
        let sink = SummarySink::new();
        sink.span_open(SpanId(1), None, SPAN_POOL, &[]);
        sink.span_open(SpanId(2), Some(SpanId(1)), SPAN_CASE, &[("worker", AttrValue::U64(0))]);
        sink.span_close(SpanId(2));
        sink.span_close(SpanId(1));
        sink.counter("cases.done", 3);
        sink.counter("cases.done", 2);
        sink.gauge("queue.len", 4.0);
        sink.observe("shard.cases", 64.0);
        let table = sink.render();
        assert!(table.contains("case"), "span section: {table}");
        assert!(table.contains("cases.done"), "counter section: {table}");
        assert!(table.contains("5"), "counter total: {table}");
        assert!(table.contains("worker"), "worker section: {table}");
        assert!(table.contains("shard.cases"), "observed section: {table}");
    }

    #[test]
    fn duration_units_scale() {
        assert_eq!(fmt_secs(5e-9), "5ns");
        assert_eq!(fmt_secs(5e-6), "5.0µs");
        assert_eq!(fmt_secs(5e-3), "5.00ms");
        assert_eq!(fmt_secs(5.0), "5.00s");
    }
}

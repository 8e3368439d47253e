//! The live-progress sink: rate-limited one-line heartbeats on stderr.
//!
//! A paper-scale sweep is silent for minutes at a time; the heartbeat
//! turns the engine's own telemetry into `done/total`, cases/sec, and
//! an ETA without any extra thread or timer — it prints (at most once
//! per interval) from within the `cases.done` counter callback, which
//! the session emits on every delivery.
//!
//! The [`EVT_SWEEP_TOTAL`] event re-arms the sink with the sweep's
//! label, extent, and resume offset, so one shared heartbeat follows a
//! multi-experiment run (`all`) across its sweeps.

use std::sync::Mutex;

use zen2_sim::obs::{Attr, AttrValue, Recorder, SpanId, CTR_CASES_DONE, EVT_SWEEP_TOTAL};

use crate::clock;

/// Prints progress lines to stderr, at most once per interval.
#[derive(Debug)]
pub struct Heartbeat {
    interval_ns: u64,
    inner: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    label: String,
    total: u64,
    start: u64,
    done: u64,
    started_ns: u64,
    last_print_ns: u64,
}

impl Heartbeat {
    /// A heartbeat printing at most every 2 seconds.
    pub fn new() -> Heartbeat {
        Heartbeat::every_ns(2_000_000_000)
    }

    /// A heartbeat with an explicit minimum interval between lines.
    pub fn every_ns(interval_ns: u64) -> Heartbeat {
        Heartbeat { interval_ns, inner: Mutex::new(State::default()) }
    }
}

impl Default for Heartbeat {
    fn default() -> Self {
        Heartbeat::new()
    }
}

impl Recorder for Heartbeat {
    fn span_open(&self, _id: SpanId, _parent: Option<SpanId>, _name: &'static str, _: &[Attr<'_>]) {
    }

    fn span_close(&self, _id: SpanId) {}

    fn counter(&self, name: &'static str, delta: u64) {
        if name != CTR_CASES_DONE {
            return;
        }
        let now = clock::now_ns();
        let mut s = self.inner.lock().expect("heartbeat poisoned");
        s.done += delta;
        if now.saturating_sub(s.last_print_ns) < self.interval_ns {
            return;
        }
        s.last_print_ns = now;
        let elapsed = now.saturating_sub(s.started_ns) as f64 / 1e9;
        let rate = if elapsed > 0.0 { s.done as f64 / elapsed } else { 0.0 };
        let position = s.start + s.done;
        if s.total > 0 {
            let pct = 100.0 * position as f64 / s.total as f64;
            let eta = if rate > 0.0 {
                format!("{:.0}s", s.total.saturating_sub(position) as f64 / rate)
            } else {
                "-".to_string()
            };
            eprintln!(
                "[{}] {}/{} ({:.1}%) {:.0} cases/s eta {}",
                s.label, position, s.total, pct, rate, eta
            );
        } else {
            eprintln!("[{}] {} cases {:.0} cases/s", s.label, position, rate);
        }
    }

    fn gauge(&self, _name: &'static str, _value: f64) {}

    fn observe(&self, _name: &'static str, _value: f64) {}

    fn event(&self, name: &'static str, attrs: &[Attr<'_>]) {
        if name != EVT_SWEEP_TOTAL {
            return;
        }
        let mut s = self.inner.lock().expect("heartbeat poisoned");
        s.label = String::from("sweep");
        s.total = 0;
        s.start = 0;
        for (k, v) in attrs {
            match (*k, v) {
                ("sweep", AttrValue::Str(label)) => s.label = (*label).to_string(),
                ("total", AttrValue::U64(n)) => s.total = *n,
                ("start", AttrValue::U64(n)) => s.start = *n,
                _ => {}
            }
        }
        s.done = 0;
        s.started_ns = clock::now_ns();
        s.last_print_ns = 0;
        if s.start > 0 {
            eprintln!("[{}] resuming at {}/{}", s.label, s.start, s.total);
        } else {
            eprintln!("[{}] {} cases", s.label, s.total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_progress_state() {
        let hb = Heartbeat::every_ns(0);
        hb.event(
            EVT_SWEEP_TOTAL,
            &[
                ("sweep", AttrValue::Str("fig09")),
                ("total", AttrValue::U64(100)),
                ("start", AttrValue::U64(10)),
            ],
        );
        hb.counter(CTR_CASES_DONE, 1);
        hb.counter(CTR_CASES_DONE, 4);
        let s = hb.inner.lock().unwrap();
        assert_eq!(s.label, "fig09");
        assert_eq!(s.total, 100);
        assert_eq!(s.start, 10);
        assert_eq!(s.done, 5);
    }

    #[test]
    fn ignores_unrelated_telemetry() {
        let hb = Heartbeat::new();
        hb.counter("other.counter", 7);
        hb.event("other.event", &[("total", AttrValue::U64(9))]);
        let s = hb.inner.lock().unwrap();
        assert_eq!(s.done, 0);
        assert_eq!(s.total, 0);
    }
}

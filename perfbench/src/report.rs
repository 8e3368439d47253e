//! Sample summaries, metric naming, the result digest, and the result
//! line the benchmark prints last.

use std::fmt::Write as _;

/// Tail percentiles the reporting rule picks from, in per mille,
/// highest first.
const TAIL_LADDER_PER_MILLE: [usize; 5] = [999, 990, 900, 750, 500];

/// Samples that must lie above a reported tail percentile.
pub const MIN_ABOVE_TAIL: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n > 0`
/// samples.
fn nearest_rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).max(1)
}

/// The highest ladder percentile (per mille) that leaves at least
/// [`MIN_ABOVE_TAIL`] samples above its nearest rank, if any does.
pub fn tail_per_mille(n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER_PER_MILLE.into_iter().find(|&p| n - nearest_rank(n, p) >= MIN_ABOVE_TAIL)
}

/// A timing's sample count, median, and tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (mean of the two middle samples for even counts).
    pub median: f64,
    /// The tail rule's percentile (per mille) and its value.
    pub tail: Option<(usize, f64)>,
    /// The largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order). An empty set summarises to
    /// zeros with `n = 0`.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Summary { n, median: 0.0, tail: None, max: 0.0 };
        }
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        let tail = tail_per_mille(n).map(|p| (p, sorted[nearest_rank(n, p) - 1]));
        Summary { n, median, tail, max: sorted[n - 1] }
    }

    /// The reported tail: the rule's percentile, or the largest sample
    /// when there are too few samples for any percentile to qualify.
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(self.max, |(_, v)| v)
    }

    /// Names the reported tail (`p99`, `p99.9`, …, or `max`).
    pub fn tail_label(&self) -> String {
        match self.tail {
            Some((p, _)) if p % 10 == 0 => format!("p{}", p / 10),
            Some((p, _)) => format!("p{}.{}", p / 10, p % 10),
            None => "max".to_string(),
        }
    }
}

/// Whether `name` is a valid metric or workload name: 1–64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// The final result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`. Non-finite values cannot be
/// written as JSON numbers; they are written as 0 and the caller counts
/// them as failures.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

/// FNV-1a over everything a workload's result consists of: two runs
/// with equal digests produced the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds in a float's exact bits.
    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    /// Folds in an integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_above() {
        assert_eq!(tail_per_mille(0), None);
        assert_eq!(tail_per_mille(1), None);
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(99), Some(750));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(999), Some(900));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(9_999), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
        for n in 1..3000 {
            if let Some(p) = tail_per_mille(n) {
                assert!(n - nearest_rank(n, p) >= MIN_ABOVE_TAIL, "n={n} p={p}");
                let higher = TAIL_LADDER_PER_MILLE.iter().filter(|&&q| q > p);
                for &q in higher {
                    assert!(n - nearest_rank(n, q) < MIN_ABOVE_TAIL, "n={n} skipped {q}");
                }
            }
        }
    }

    #[test]
    fn summary_reports_median_tail_and_max() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((990, 990.0)));
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(s.max, 1000.0);

        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(few.median, 2.0);
        assert_eq!(few.tail, None);
        assert_eq!(few.tail_label(), "max");
        assert_eq!(few.tail_value(), 3.0);

        let deep = Summary::of(&vec![1.0; 10_000]);
        assert_eq!(deep.tail_label(), "p99.9");
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn metric_names_and_units_follow_the_syntax() {
        for ok in ["wall_s", "system.step_us.b128", "checkpoint.save_ms.p50", "dvfs-trace", "9a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".x", "_x", "-x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-second", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new("wall_s", 1.25, "s"), Metric::new("x", f64::NAN, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.f64(1.0);
        let mut b = Digest::default();
        b.f64(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(a, b);
    }
}

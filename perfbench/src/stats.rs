//! Statistics and reporting helpers: nearest-rank percentiles with a
//! tail-sample guard, ratios that keep their base, the metric-name rule,
//! and the report that prints every metric by name with its unit.

use aimq_catalog::Json;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the "tail" is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of ascending `sorted` samples
/// (`p` in `(0, 100]`). `None` when there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank_of(sorted.len(), p)?;
    sorted.get(rank - 1).copied()
}

/// The `p`-th percentile, but only when at least [`MIN_BEYOND`] samples
/// rank beyond it (for p99 that takes 1000 samples).
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank_of(sorted.len(), p)?;
    if sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    sorted.get(rank - 1).copied()
}

/// 1-based nearest rank `ceil(p/100 * n)`, clamped into `1..=n`.
fn rank_of(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Sort samples ascending (latencies are finite; NaN would sort last).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A ratio that never travels without its denominator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator (hits, failures, tuples examined, ...).
    pub part: f64,
    /// Denominator: what the part is a share of.
    pub base: u64,
}

impl Ratio {
    /// `part / base`, or 0 when the base is empty.
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part / self.base as f64
        }
    }
}

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit and
/// are at most 64 characters long.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// For ratios: the denominator and what it counts.
    base: Option<(u64, &'static str)>,
}

/// Every metric of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Record `name = value unit`. Names are checked here, so a bad or
    /// duplicate name is a bug caught on the first run.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.insert(name, value, unit, None);
    }

    /// Record a ratio together with its base.
    pub fn ratio(&mut self, name: &str, ratio: Ratio, base_label: &'static str) {
        self.insert(name, ratio.value(), "ratio", Some((ratio.base, base_label)));
    }

    fn insert(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        base: Option<(u64, &'static str)>,
    ) {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric `{name}` reported twice"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            base,
        });
    }

    /// Human-readable lines, one metric each, ratios with their base.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| match m.base {
                Some((base, label)) => format!(
                    "  {:<28} {:>14.6} {:<6} (base: {base} {label})",
                    m.name, m.value, m.unit
                ),
                None => format!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit),
            })
            .collect()
    }

    /// The one-line machine-readable result: `correct`, `attempted`,
    /// `failed`, and the metrics named in `keep` (all of them must have
    /// been recorded).
    pub fn result_line(&self, keep: &[&str], correct: bool, attempted: u64, failed: u64) -> String {
        let metrics = keep
            .iter()
            .map(|&name| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&s, 0.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond it.
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: rank 990 leaves nine beyond — not reported.
        assert_eq!(tail_percentile(&ramp(999), 99.0), None);
        assert_eq!(tail_percentile(&ramp(100), 99.0), None);
        // The median of 21 samples has ten beyond it.
        assert_eq!(tail_percentile(&ramp(21), 50.0), Some(11.0));
        assert_eq!(tail_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(tail_percentile(&ramp(19), 50.0), None);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio {
            part: 3.0,
            base: 12,
        };
        assert_eq!(r.value(), 0.25);
        assert_eq!(Ratio { part: 0.0, base: 0 }.value(), 0.0);

        let mut report = Report::default();
        report.ratio("storage.cache_hit_ratio", r, "lookups");
        let line = report.lines().join("\n");
        assert!(line.contains("base: 12 lookups"), "{line}");
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "latency_p50_ms",
            "storage.busy_ms",
            "afd.mine_s",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "a b",
            "a/b",
            "lat(ms)",
            "x".repeat(65).as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn report_rejects_bad_names() {
        Report::default().push("bad name", 1.0, "ms");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn report_rejects_duplicates() {
        let mut report = Report::default();
        report.push("x", 1.0, "ms");
        report.push("x", 2.0, "ms");
    }

    #[test]
    fn result_line_keeps_only_the_named_metrics() {
        let mut report = Report::default();
        report.push("latency_p50_ms", 1.25, "ms");
        report.push("setup_s", 0.5, "s");
        report.push("storage.busy_ms", 0.75, "ms");
        let line = report.result_line(&["latency_p50_ms", "setup_s"], true, 10, 0);
        let json = Json::parse(&line).expect("valid JSON");
        let metrics = json
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), 2);
        assert_eq!(
            json.get("metrics")
                .and_then(|m| m.get("latency_p50_ms"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
    }
}

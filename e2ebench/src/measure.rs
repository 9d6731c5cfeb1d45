//! Sample statistics, the metric vocabulary and the result line.
//!
//! Every metric the benchmark can print is declared once in
//! [`END_TO_END`] or [`PER_LAYER`] with its unit; `BENCHMARK.json` lists
//! the same names (a self-test checks that the two agree).

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run (`--trace 1`). A layer
/// that a workload bypasses reports 0 and is named in the run's
/// `bypassed` list.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_tail_ms", "ms"),
    ("latency_tail_pct", "pct"),
    ("latency_samples", "count"),
    ("failed_frac", "frac"),
    ("train_s", "s"),
    ("train.remainder_s", "s"),
    ("publish_s", "s"),
    ("publish.remainder_s", "s"),
    ("publish_samples", "count"),
    ("trace_overhead_frac", "frac"),
    ("serde_json.parse_ms", "ms"),
    ("serde_json.parse_ns_per_byte", "ns/byte"),
    ("serde_json.render_ms", "ms"),
    ("serde_json.stats_parse_ms", "ms"),
    ("serve.stats_reply_bytes", "bytes"),
    ("serve.worker_p50_ms", "ms"),
    ("serve.unaccounted_ms", "ms"),
    ("serve.daemon_cpu_ms_per_krow", "ms/krow"),
    ("serve.requests_served", "count"),
    ("serve.requests_shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.worker_panics", "count"),
    ("serve.refit_score_p50_ms", "ms"),
    ("serve.stats_poll_ms", "ms"),
    ("serve.swap_ms", "ms"),
    ("core.score_ns_per_row", "ns/row"),
    ("core.fit_s", "s"),
    ("core.pphase_s", "s"),
    ("core.nphase_s", "s"),
    ("core.score_matrix_s", "s"),
    ("core.artifact_save_ms", "ms"),
    ("core.artifact_load_ms", "ms"),
    ("core.refit_fit_ms", "ms"),
    ("core.refit_validate_ms", "ms"),
    ("core.refit_publish_ms", "ms"),
    ("data.ingest_s", "s"),
    ("data.ingest_rows_per_s", "rows/s"),
    ("rules.conditions_evaluated", "count"),
    ("rules.ns_per_condition", "ns"),
    ("rules.view_warm_ratio", "frac"),
    ("sentinel.observe_us", "us"),
];

/// Percentiles the tail helper may report, in tenths of a percent,
/// highest first.
const TAIL_CANDIDATES: &[usize] = &[999, 990, 950, 900, 750, 500];

/// Samples a percentile must leave beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// True when `name` is a valid metric name: 1 to 64 letters, digits,
/// `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// closest ranks. `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The highest candidate percentile that leaves at least ten of `n`
/// samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| n - (n * p).div_ceil(1000) >= MIN_BEYOND)
        .map(|p| p as f64 / 10.0)
}

/// The highest supported percentile of `values` and its value.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let pct = tail_percentile(values.len())?;
    Some((pct, quantile(values, pct / 100.0)?))
}

/// Index of the sample whose value is the (lower) median, so that a
/// breakdown can be read from one real run of the operation.
pub fn median_index(values: &[f64]) -> Option<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order.get(values.len().saturating_sub(1) / 2).copied()
}

/// Throughput and median latency in consecutive windows of a
/// closed-loop phase. Reporting the median window keeps a burst of
/// interference from another tenant of the host out of the result.
#[derive(Debug, Default)]
pub struct Windows {
    pub rows_per_s: Vec<f64>,
    pub p50_ms: Vec<f64>,
}

impl Windows {
    /// Completions per window, long enough to hold about fifty
    /// completions and at least one second (or the whole phase, if
    /// shorter); only whole windows count.
    /// `done_s[i]` is when request `i` completed (seconds since the phase
    /// started), `latency_ms[i]` its latency, and each request counts as
    /// `weight` rows.
    pub fn of(done_s: &[f64], latency_ms: &[f64], weight: f64) -> Windows {
        let end = done_s.iter().copied().fold(0.0, f64::max);
        if end <= 0.0 {
            return Windows::default();
        }
        let window = (50.0 * end / done_s.len() as f64).max(1.0).min(end);
        let n = (end / window).floor() as usize;
        let mut lat = vec![Vec::new(); n];
        for (&t, &ms) in done_s.iter().zip(latency_ms) {
            if let Some(w) = lat.get_mut((t / window) as usize) {
                w.push(ms);
            }
        }
        Windows {
            rows_per_s: lat
                .iter()
                .map(|w| w.len() as f64 * weight / window)
                .collect(),
            p50_ms: lat.iter().filter_map(|w| median(w)).collect(),
        }
    }

    pub fn json(&self) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"rows_per_s\": [{}], \"p50_ms\": [{}]}}",
            list(&self.rows_per_s),
            list(&self.p50_ms)
        )
    }
}

/// Selected metrics as `(name, value, unit)`, and the names of those
/// that read 0 because the workload bypasses their layer.
pub type Selection = (Vec<(&'static str, f64, &'static str)>, Vec<&'static str>);

/// Metric values gathered by one run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The values of every metric in `set`; a missing one is an error
    /// unless `bypass_as_zero`, in which case it reads 0 and is named in
    /// the returned list of bypassed metrics.
    pub fn select(
        &self,
        set: &[(&'static str, &'static str)],
        bypass_as_zero: bool,
    ) -> Result<Selection, String> {
        let mut out = Vec::with_capacity(set.len());
        let mut bypassed = Vec::new();
        for &(name, unit) in set {
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let value = match self.get(name) {
                Some(v) => v,
                None if bypass_as_zero => {
                    bypassed.push(name);
                    0.0
                }
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            out.push((name, value, unit));
        }
        Ok((out, bypassed))
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Renders a JSON string literal (names and units here are plain ASCII;
/// quotes and backslashes are escaped for safety).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a float with all its digits; integral values keep a `.0`
/// so every value reads as a JSON number of the same kind.
pub fn num(v: f64) -> String {
    format!("{v:?}")
}

/// The run's result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // the chosen percentile really leaves ten samples above it
        for n in [20usize, 57, 100, 345, 1000, 4321, 10_000] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (_, v) = tail(&values).unwrap();
            assert!(
                values.iter().filter(|&&x| x > v).count() >= MIN_BEYOND - 1,
                "n={n}"
            );
        }
    }

    #[test]
    fn windows_count_whole_windows_only() {
        // 200 completions over 4.0 s, one every 20 ms: 50-completion
        // windows are exactly one second long
        let done: Vec<f64> = (1..=200).map(|i| i as f64 * 0.02).collect();
        let latency: Vec<f64> = (1..=200).map(|i| (i % 10) as f64).collect();
        let w = Windows::of(&done, &latency, 2.0);
        assert_eq!(w.rows_per_s.len(), 4);
        assert!(w
            .rows_per_s
            .iter()
            .all(|&r| (r - 100.0).abs() <= 2.0 + 1e-9));
        assert_eq!(w.p50_ms.len(), 4);
        assert!(Windows::of(&[], &[], 1.0).rows_per_s.is_empty());
    }

    #[test]
    fn quantiles_interpolate_and_median_index_points_at_the_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median_index(&[5.0, 1.0, 3.0]), Some(2));
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), Some(3));
    }

    #[test]
    fn every_metric_name_is_valid_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "metric {name} declared twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("p99/s"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(crate::json::Json::arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(crate::json::Json::str)
                            .unwrap()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[("setup_s", 1.0, "s"), ("rows_per_s", 12.5, "rows/s")],
        );
        let v = crate::json::parse(&line).unwrap();
        let crate::json::Json::Obj(entries) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.at(&["metrics", "setup_s", "value"])
                .and_then(crate::json::Json::f64),
            Some(1.0)
        );
        let missing = Metrics::default().select(END_TO_END, false);
        assert!(missing.is_err());
        let (zeroed, bypassed) = Metrics::default().select(PER_LAYER, true).unwrap();
        assert_eq!(zeroed.len(), PER_LAYER.len());
        assert_eq!(bypassed.len(), PER_LAYER.len());
    }
}

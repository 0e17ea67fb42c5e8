//! The result of one workload run and its printed forms.

use crate::metrics::{unit_of, PER_LAYER};
use crate::stats;

/// Metrics and answer accounting of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    /// Queries sent (every one is checked).
    pub attempted: u64,
    /// Error replies, dropped or missing replies, and wrong or stale
    /// answers.
    pub failed: u64,
    /// The JSON metrics: end-to-end (untraced run) or per-layer (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Printed-only metrics.
    pub extra: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Self { workload, ..Self::default() }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn extra(&mut self, name: &'static str, value: f64) {
        self.extra.push((name, value));
    }

    /// Checks that the JSON metrics are exactly `expected`, each once.
    pub fn check_names(&self, expected: &[&str]) -> Result<(), String> {
        let mut got: Vec<&str> = self.metrics.iter().map(|&(name, _)| name).collect();
        let mut want = expected.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        if got == want {
            Ok(())
        } else {
            Err(format!("{} reported metrics {got:?}, expected {want:?}", self.workload))
        }
    }

    /// Reports 0 for every per-layer metric of a layer the workload never
    /// reaches (the server's counters on `paper` and `batch`, say).
    pub fn zero_unreached_layers(&mut self) {
        for layer in PER_LAYER {
            if !self.metrics.iter().any(|&(name, _)| name == layer.name) {
                self.metric(layer.name, 0.0);
            }
        }
    }

    /// Adds `latency_p50_ms` and the printed-only tail percentiles and
    /// sample count from millisecond samples.
    pub fn latencies(&mut self, samples_ms: &[f64]) -> Result<(), String> {
        let sorted = stats::sorted(samples_ms);
        let need = |p: f64| {
            stats::supported_percentile(&sorted, p).ok_or_else(|| {
                format!(
                    "{}: {} latency samples cannot support p{p} (fewer than {} beyond it)",
                    self.workload,
                    sorted.len(),
                    stats::TAIL_SUPPORT
                )
            })
        };
        let (p50, p90, p95, p99) = (need(50.0)?, need(90.0)?, need(95.0)?, need(99.0)?);
        self.metric("latency_p50_ms", p50);
        self.extra("latency_p90_ms", p90);
        self.extra("latency_p95_ms", p95);
        self.extra("latency_p99_ms", p99);
        self.extra("latency_samples", sorted.len() as f64);
        Ok(())
    }

    /// The human-readable lines: one `workload/metric value unit` each.
    pub fn lines(&self) -> Vec<String> {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.metrics
            .iter()
            .chain(&self.extra)
            .copied()
            .chain(std::iter::once(("error_rate", error_rate)))
            .map(|(name, value)| format!("{}/{name} {value} {}", self.workload, unit_of(name)))
            .collect()
    }

    /// The final JSON line. `prefixed` names metrics `workload/metric`
    /// (used when one command runs every workload).
    pub fn json(reports: &[Report], prefixed: bool) -> String {
        let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
        let failed: u64 = reports.iter().map(|r| r.failed).sum();
        let mut metrics = Vec::new();
        for r in reports {
            for &(name, value) in &r.metrics {
                let key =
                    if prefixed { format!("{}/{name}", r.workload) } else { name.to_string() };
                metrics.push(format!(
                    "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(value),
                    unit_of(name)
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which no metric should produce,
/// become 0).
fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "0".into();
    }
    let text = format!("{value:?}");
    text.strip_suffix(".0").map_or(text.clone(), str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report::new("paper");
        r.attempted = 10;
        r.metric("setup_s", 0.125);
        r.metric("throughput_qps", 2000.0);
        let json = Report::json(&[r], false);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
             \"throughput_qps\": {\"value\": 2000, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn latencies_need_a_supported_p99() {
        let mut r = Report::new("serve");
        assert!(r.latencies(&vec![1.0; 999]).is_err());
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        r.latencies(&samples).unwrap();
        assert_eq!(r.metrics, vec![("latency_p50_ms", 500.0)]);
        assert_eq!(
            r.extra,
            vec![
                ("latency_p90_ms", 900.0),
                ("latency_p95_ms", 950.0),
                ("latency_p99_ms", 990.0),
                ("latency_samples", 1000.0)
            ]
        );
        assert!(r.lines().contains(&"serve/error_rate 0 ratio".to_string()));
    }
}

//! Summary statistics and the result line.

use serde::Value;

/// Median of `values` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The percentiles a tail is reported at.
const TAIL_PERCENTILES: [f64; 4] = [75.0, 90.0, 95.0, 99.0];

/// The tail of a latency sample, as `(value, percentile)`: the highest
/// of [`TAIL_PERCENTILES`] with at least [`TAIL_BEYOND`] samples beyond
/// it. A fixed ladder keeps the reported percentile the same from run to
/// run of a workload, where the exact highest percentile would move
/// with the sample count; it stops at p99 because above that, at the
/// hundreds of thousands of requests a keep-alive run makes, the value
/// lands on single scheduler stalls and moves fourfold between runs.
/// With fewer than 40 samples no rung qualifies and the maximum is
/// reported (percentile 100); the caller prints which it was.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank: the smallest value with at least p% of the sample at
    // or below it (the guard absorbs round-off in n·p/100).
    let rank = |p: f64| ((n as f64 * p / 100.0 - 1e-9).ceil() as usize).max(1);
    match TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| n >= rank(p) + TAIL_BEYOND)
    {
        Some(&p) => (sorted[rank(p) - 1], p),
        None => (sorted.last().copied().unwrap_or(0.0), 100.0),
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports: the counts and the metrics of its mode.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The final stdout line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Result<String, String> {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Map(vec![
                        ("value".to_string(), Value::F64(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).map_err(|e| format!("cannot render the result line: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), (90.0, 90.0));
        assert_eq!(values.iter().filter(|&&v| v > 90.0).count(), 10);
        let many: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&many), (19_800.0, 99.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

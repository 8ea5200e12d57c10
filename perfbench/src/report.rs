//! Result plumbing: named metrics with units, the one-line JSON result,
//! order statistics, the simulated-state digest and the process's peak
//! resident set.

use std::fmt::Write as _;

use uarch_sim::EventCounts;

/// Metrics in print order.
#[derive(Default)]
pub struct Metrics(pub(crate) Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(self.0.iter().all(|(n, ..)| *n != name), "{name} set twice");
        // JSON has no NaN or infinity; a ratio over an empty denominator
        // reads as zero.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }

    /// One `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (n, v, u) in &self.0 {
            let _ = writeln!(out, "{n:<44} {v:>18.6} {u}");
        }
        out
    }

    /// The result object the benchmark prints as its last line.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (n, v, u)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a over 64-bit words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold every field of a counter set.
    pub fn counts(&mut self, c: &EventCounts) {
        for w in [
            c.instructions,
            c.code_fetches,
            c.loads,
            c.stores,
            c.mispredicts,
            c.store_misses,
            c.invalidations,
            c.remote_accesses,
        ] {
            self.word(w);
        }
        for m in c.misses {
            self.word(m);
        }
    }
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.123456789012, "s");
        m.put("ratio", f64::NAN, "ratio");
        assert_eq!(
            m.result_json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \
             \"ratio\": {\"value\": 0.0, \"unit\": \"ratio\"}}}"
        );
    }
}

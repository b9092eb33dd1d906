//! Shared utilities of the experiment harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `docs/ARCHITECTURE.md`); the Criterion
//! benches in `benches/` cover micro-level and ablation measurements.

#![warn(missing_docs)]

pub mod baseline;

use std::time::Instant;

/// Parses the `i`-th CLI argument as `f64`, with a default.
pub fn arg_f64(i: usize, default: f64) -> f64 {
    std::env::args()
        .nth(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Parses the `i`-th CLI argument as `usize`, with a default.
pub fn arg_usize(i: usize, default: usize) -> usize {
    std::env::args()
        .nth(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Parses the `i`-th CLI argument as a string, with a default.
pub fn arg_str(i: usize, default: &str) -> String {
    std::env::args()
        .nth(i)
        .unwrap_or_else(|| default.to_string())
}

/// Measures one closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Scales one of the paper's absolute thresholds (defined on the full
/// dataset) down to a scaled dataset, with a floor.
pub fn scaled_threshold(paper_value: f64, scale: f64, floor: usize) -> usize {
    ((paper_value * scale).round() as usize).max(floor)
}

/// Emits one tab-separated row to stdout (the harness output format; every
/// figure's series can be re-plotted from these rows).
pub fn tsv(fields: &[String]) {
    println!("{}", fields.join("\t"));
}

/// Convenience macro building a TSV row from display values.
#[macro_export]
macro_rules! row {
    ($($v:expr),+ $(,)?) => {
        $crate::tsv(&[$(format!("{}", $v)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_threshold_floors() {
        assert_eq!(scaled_threshold(400.0, 0.1, 8), 40);
        assert_eq!(scaled_threshold(400.0, 0.001, 8), 8);
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}

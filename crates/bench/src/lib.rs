//! Shared helpers for the Q3DE benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! binary in `src/bin/` that prints the rows/series the paper reports; the
//! README's figure map lists them.  Decoder timing lives in the
//! `perf_smoke` binary (the CI regression gate) and in the separate
//! `perfbench` package (the repository benchmark).
//!
//! All experiment binaries share one command-line front end (the [`cli`]
//! module): the engine flag set — `--samples`, `--seed`, `--matcher`,
//! `--threads`, `--json`, `--target-rse`, `--checkpoint`, `--resume`,
//! `--report` — parses into one [`EngineArgs`] struct, and `--help` output
//! is generated, so it is identical everywhere.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod fabric;
pub mod sweeps;

pub use cli::{Cli, EngineArgs, ExtraValues};

/// The adaptive-mode shot floor derived from a `--samples` ceiling: an
/// eighth of the budget, at least 32 shots, never above the ceiling.
pub fn adaptive_floor(samples: usize) -> usize {
    (samples / 8).max(32).min(samples.max(1))
}

/// Formats a table row of `(label, values)` with aligned columns.
pub fn format_row(label: &str, values: &[String]) -> String {
    format!("{label:<28} {}", values.join("  "))
}

/// Prints a table row of `(label, values)` with aligned columns to stdout.
pub fn print_row(label: &str, values: &[String]) {
    println!("{}", format_row(label, values));
}

/// Formats a probability in scientific notation.
pub fn sci(x: f64) -> String {
    format!("{x:10.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats_scientifically() {
        assert!(sci(1.234e-5).contains("e-5"));
    }

    #[test]
    fn adaptive_floor_respects_bounds() {
        assert_eq!(adaptive_floor(4000), 500);
        assert_eq!(adaptive_floor(100), 32);
        assert_eq!(adaptive_floor(10), 10);
        assert_eq!(adaptive_floor(0), 1);
    }
}

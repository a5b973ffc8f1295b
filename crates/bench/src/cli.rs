//! The shared command-line front end of the experiment binaries.
//!
//! Every binary in `src/bin/` used to hand-roll the same flag loop; this
//! module parses the engine flag set (`--samples`, `--seed`, `--matcher`,
//! `--threads`, `--target-rse`, `--checkpoint`, `--resume`, `--report`,
//! `--json`) exactly once, into one [`EngineArgs`] struct, and generates
//! identical `--help` text for every binary.  Binary-specific flags are
//! declared up front with [`Cli::flag`] and come back as [`ExtraValues`];
//! undeclared flags are an error (exit code 2), so a typo can no longer be
//! silently ignored.

use q3de::matching::MatcherKind;
use q3de::sim::engine::{SweepConfig, SweepPoint, SweepReport, SweepRunner};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{adaptive_floor, format_row};

/// The engine arguments shared by every experiment binary.
///
/// Parsed by [`Cli::parse`]; the fields mirror the sweep engine's
/// [`SweepConfig`] (see [`EngineArgs::sweep_config`]).
#[derive(Debug, Clone)]
pub struct EngineArgs {
    /// Monte-Carlo shots (or trials) per data point.  With `--target-rse`
    /// this becomes the per-point shot *ceiling* of the adaptive schedule.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Emit machine-readable JSON lines on stdout; all human-readable
    /// tables and progress move to stderr so piped JSON stays parseable.
    pub json: bool,
    /// Matching backend the decoding binaries run
    /// (`--matcher tree|greedy|union-find`).
    pub matcher: MatcherKind,
    /// Sweep worker threads (`--threads N`); `None` uses one per available
    /// core.  Thread count never changes tallies (pinned by the engine's
    /// thread-independence tests), only wall-clock time.
    pub threads: Option<usize>,
    /// Adaptive stopping target (`--target-rse 0.1`): stop a sweep point
    /// once the relative Wilson half-width of its tally reaches this value.
    /// `None` keeps the classic fixed-shot behaviour.
    pub target_rse: Option<f64>,
    /// Sweep checkpoint file (`--checkpoint PATH`): partial tallies are
    /// persisted there so a killed sweep can be resumed.
    pub checkpoint: Option<String>,
    /// Resume from the checkpoint file if it exists (`--resume`).
    pub resume: bool,
    /// Write the machine-readable sweep report (`--report PATH`), the
    /// `bench_report.json` artifact CI tracks.
    pub report: Option<String>,
}

impl EngineArgs {
    /// A reproducible RNG derived from the seed and a per-series salt.
    pub fn rng(&self, salt: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.stream_seed(salt))
    }

    /// The raw `u64` stream seed behind [`EngineArgs::rng`], for APIs
    /// (like [`q3de::sim::MemoryExperiment::estimate_parallel`] and the
    /// sweep engine's shot kernels) that derive per-shot RNGs themselves.
    pub fn stream_seed(&self, salt: u64) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(salt)
    }

    /// The sweep-engine configuration these flags describe: fixed
    /// `samples`-shot mode without `--target-rse`, adaptive mode (shot
    /// floor [`adaptive_floor`]`(samples)`, ceiling `samples`) with it,
    /// plus the thread-count and checkpoint/resume settings.
    pub fn sweep_config(&self) -> SweepConfig {
        let mut config = match self.target_rse {
            None => SweepConfig::fixed(self.samples),
            Some(rse) => SweepConfig::adaptive(adaptive_floor(self.samples), self.samples, rse),
        };
        if let Some(threads) = self.threads {
            config = config.with_threads(threads);
        }
        if let Some(path) = &self.checkpoint {
            config = config.with_checkpoint(path).with_resume(self.resume);
        }
        config
    }

    /// Runs `points` on the sweep engine under [`EngineArgs::sweep_config`],
    /// stamps the seed/sample metadata into the report, and writes the
    /// `--report` artifact if requested.  Engine errors (unreadable or
    /// mismatched checkpoints, unwritable reports) terminate the binary
    /// with exit code 2.
    pub fn run_sweep(&self, points: Vec<SweepPoint>) -> SweepReport {
        let runner = SweepRunner::new(self.sweep_config());
        let mut report = match runner.run(points) {
            Ok(report) => report,
            Err(error) => {
                eprintln!("sweep failed: {error}");
                std::process::exit(2);
            }
        };
        report.meta = vec![
            ("seed".into(), self.seed.to_string()),
            ("samples".into(), self.samples.to_string()),
            ("matcher".into(), self.matcher.name().to_string()),
        ];
        if let Some(path) = &self.report {
            if let Err(error) = report.write_json(std::path::Path::new(path)) {
                eprintln!("cannot write report: {error}");
                std::process::exit(2);
            }
        }
        report
    }

    /// Prints a human-readable line: to stdout normally, to stderr in
    /// `--json` mode so machine-readable stdout stays parseable.
    pub fn human(&self, line: impl AsRef<str>) {
        if self.json {
            eprintln!("{}", line.as_ref());
        } else {
            println!("{}", line.as_ref());
        }
    }

    /// Prints an aligned human-readable table row (see
    /// [`format_row`]), routed like [`EngineArgs::human`].
    pub fn human_row(&self, label: &str, values: &[String]) {
        self.human(format_row(label, values));
    }
}

/// A binary-specific flag declared with [`Cli::flag`].
#[derive(Debug, Clone)]
struct ExtraFlag {
    /// The literal flag, `--workers`.
    flag: &'static str,
    /// The value placeholder shown in `--help` (`N`, `PATH`, …); empty for
    /// boolean flags that take no value.
    value: &'static str,
    /// One help line.
    help: &'static str,
}

/// The values of the binary-specific flags found on the command line.
#[derive(Debug, Clone, Default)]
pub struct ExtraValues {
    values: Vec<(&'static str, String)>,
}

impl ExtraValues {
    /// The value of `flag`, if it was given (last occurrence wins).
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of `flag`, in command-line order (for flags that may
    /// repeat, like `q3de-sweepctl merge --deltas A --deltas B`).
    pub fn all(&self, flag: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether `flag` appeared at all (for boolean flags).
    pub fn is_set(&self, flag: &str) -> bool {
        self.values.iter().any(|(f, _)| *f == flag)
    }

    /// Parses the value of `flag`, terminating the binary with exit code 2
    /// (and `expected` in the message) when the value does not parse or
    /// fails `valid` — a typo must not silently fall back to a default.
    /// Returns `None` when the flag was not given.
    pub fn require<T: std::str::FromStr>(
        &self,
        flag: &str,
        expected: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Option<T> {
        let value = self.get(flag)?;
        match value.parse::<T>() {
            Ok(parsed) if valid(&parsed) => Some(parsed),
            _ => {
                eprintln!("invalid {flag} '{value}': expected {expected}");
                std::process::exit(2);
            }
        }
    }
}

/// The selectable `--matcher` names, `|`-separated (`tree|greedy|union-find`).
fn matcher_names() -> String {
    MatcherKind::ALL.map(MatcherKind::name).join("|")
}

/// A declarative command line for one experiment binary: name, summary,
/// default sample count and any binary-specific flags.  [`Cli::parse`]
/// yields the shared [`EngineArgs`] plus the [`ExtraValues`].
#[derive(Debug, Clone)]
pub struct Cli {
    bin: &'static str,
    summary: &'static str,
    default_samples: usize,
    extras: Vec<ExtraFlag>,
}

impl Cli {
    /// A new command line for binary `bin` with the given one-line
    /// `summary` (shown in `--help`) and default `--samples` count.
    pub fn new(bin: &'static str, summary: &'static str, default_samples: usize) -> Self {
        Self {
            bin,
            summary,
            default_samples,
            extras: Vec::new(),
        }
    }

    /// Declares a binary-specific flag: the literal `flag` (`--workers`),
    /// its `--help` value placeholder (`N`; empty for boolean flags), and a
    /// one-line help text.
    pub fn flag(mut self, flag: &'static str, value: &'static str, help: &'static str) -> Self {
        self.extras.push(ExtraFlag { flag, value, help });
        self
    }

    /// Parses `std::env::args`.  `--help`/`-h` prints the generated help
    /// and exits 0; unknown flags and malformed values print an error and
    /// exit 2.
    pub fn parse(self) -> (EngineArgs, ExtraValues) {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", self.help());
            std::process::exit(0);
        }
        match self.parse_from(&argv) {
            Ok(parsed) => parsed,
            Err(message) => {
                eprintln!("{}: {message}", self.bin);
                eprintln!("run '{} --help' for the flag list", self.bin);
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (no leading program name).  The
    /// testable core of [`Cli::parse`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown flag, missing value or
    /// malformed value.
    pub fn parse_from(&self, argv: &[String]) -> Result<(EngineArgs, ExtraValues), String> {
        fn number<T: std::str::FromStr>(
            flag: &str,
            value: &str,
            expected: &str,
        ) -> Result<T, String> {
            value
                .parse::<T>()
                .map_err(|_| format!("invalid {flag} '{value}': expected {expected}"))
        }
        let mut args = EngineArgs {
            samples: self.default_samples,
            seed: 2022,
            json: false,
            matcher: MatcherKind::default(),
            threads: None,
            target_rse: None,
            checkpoint: None,
            resume: false,
            report: None,
        };
        let mut extras = ExtraValues::default();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            let mut value = || -> Result<&String, String> {
                i += 1;
                argv.get(i)
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag {
                "--samples" => args.samples = number(flag, value()?, "a shot count")?,
                "--seed" => args.seed = number(flag, value()?, "an integer seed")?,
                "--matcher" => {
                    let name = value()?;
                    args.matcher = MatcherKind::parse(name).ok_or_else(|| {
                        format!("unknown matcher '{name}': expected {}", matcher_names())
                    })?;
                }
                "--threads" => {
                    let threads: usize = number(flag, value()?, "an integer >= 1")?;
                    if threads == 0 {
                        return Err(format!("invalid {flag} '0': expected an integer >= 1"));
                    }
                    args.threads = Some(threads);
                }
                "--target-rse" => {
                    let rse: f64 = number(flag, value()?, "a positive number")?;
                    if rse.is_nan() || rse <= 0.0 {
                        return Err(format!(
                            "invalid {flag} '{rse}': expected a positive number"
                        ));
                    }
                    args.target_rse = Some(rse);
                }
                "--checkpoint" => args.checkpoint = Some(value()?.clone()),
                "--report" => args.report = Some(value()?.clone()),
                "--resume" => args.resume = true,
                "--json" => args.json = true,
                other => {
                    let Some(extra) = self.extras.iter().find(|e| e.flag == other) else {
                        return Err(format!("unknown flag '{other}'"));
                    };
                    if extra.value.is_empty() {
                        extras.values.push((extra.flag, String::new()));
                    } else {
                        extras.values.push((extra.flag, value()?.clone()));
                    }
                }
            }
            i += 1;
        }
        Ok((args, extras))
    }

    /// The generated `--help` text: identical engine section everywhere,
    /// plus a per-binary section when extra flags are declared.
    pub fn help(&self) -> String {
        let engine: Vec<(String, String)> = vec![
            (
                "--samples N".into(),
                format!(
                    "shots per data point (default {}; the shot ceiling with --target-rse)",
                    self.default_samples
                ),
            ),
            ("--seed N".into(), "base RNG seed (default 2022)".into()),
            (
                "--matcher NAME".into(),
                format!(
                    "matching backend: {} (default {})",
                    matcher_names(),
                    MatcherKind::default().name()
                ),
            ),
            (
                "--threads N".into(),
                "sweep worker threads (default: one per available core)".into(),
            ),
            (
                "--target-rse X".into(),
                "adaptive stop: finish a point once its relative standard error reaches X".into(),
            ),
            (
                "--checkpoint PATH".into(),
                "persist partial tallies to PATH after every committed block".into(),
            ),
            (
                "--resume".into(),
                "resume from the --checkpoint file when it exists".into(),
            ),
            (
                "--report PATH".into(),
                "write the machine-readable sweep report (bench_report.json) to PATH".into(),
            ),
            (
                "--json".into(),
                "JSON lines on stdout; human-readable output moves to stderr".into(),
            ),
            ("-h, --help".into(), "print this help text".into()),
        ];
        let extra: Vec<(String, String)> = self
            .extras
            .iter()
            .map(|e| {
                let left = if e.value.is_empty() {
                    e.flag.to_string()
                } else {
                    format!("{} {}", e.flag, e.value)
                };
                (left, e.help.to_string())
            })
            .collect();
        let width = engine
            .iter()
            .chain(&extra)
            .map(|(left, _)| left.len())
            .max()
            .unwrap_or(0);
        let mut out = format!(
            "{bin} — {summary}\n\nUsage: {bin} [OPTIONS]\n\nEngine options:\n",
            bin = self.bin,
            summary = self.summary
        );
        for (left, help) in &engine {
            out.push_str(&format!("  {left:<width$}  {help}\n"));
        }
        if !extra.is_empty() {
            out.push_str(&format!("\n{} options:\n", self.bin));
            for (left, help) in &extra {
                out.push_str(&format!("  {left:<width$}  {help}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn args() -> EngineArgs {
        Cli::new("test", "test binary", 100)
            .parse_from(&[])
            .unwrap()
            .0
    }

    #[test]
    fn defaults_are_used_without_cli_flags() {
        let args = args();
        assert_eq!(args.samples, 100);
        assert_eq!(args.seed, 2022);
        assert_eq!(args.matcher, MatcherKind::Tree);
        assert!(!args.json && !args.resume);
        assert!(args.threads.is_none() && args.target_rse.is_none());
        let mut a = args.rng(0);
        let mut b = args.rng(0);
        use rand::Rng;
        assert_eq!(
            a.gen::<u64>(),
            b.gen::<u64>(),
            "same salt gives the same stream"
        );
        let mut c = args.rng(1);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn engine_flags_parse_into_engine_args() {
        let cli = Cli::new("test", "test binary", 100);
        let (args, _) = cli
            .parse_from(&argv(
                "--samples 5000 --seed 7 --matcher greedy --threads 3 \
                 --target-rse 0.05 --checkpoint cp.json --resume --report out.json --json",
            ))
            .unwrap();
        assert_eq!(args.samples, 5000);
        assert_eq!(args.seed, 7);
        assert_eq!(args.matcher, MatcherKind::Greedy);
        assert_eq!(args.threads, Some(3));
        assert_eq!(args.target_rse, Some(0.05));
        assert_eq!(args.checkpoint.as_deref(), Some("cp.json"));
        assert!(args.resume);
        assert_eq!(args.report.as_deref(), Some("out.json"));
        assert!(args.json);
    }

    #[test]
    fn unknown_flags_and_malformed_values_are_errors() {
        let cli = Cli::new("test", "test binary", 100);
        for (line, needle) in [
            ("--wat", "unknown flag '--wat'"),
            ("--samples", "--samples requires a value"),
            ("--samples x", "invalid --samples"),
            ("--seed 1.5", "invalid --seed"),
            ("--matcher qec", "unknown matcher 'qec'"),
            ("--matcher exact", "unknown matcher 'exact'"),
            ("--matcher blossom", "unknown matcher 'blossom'"),
            ("--threads 0", "invalid --threads '0'"),
            ("--target-rse -1", "invalid --target-rse"),
            ("--target-rse nope", "invalid --target-rse"),
        ] {
            let err = cli.parse_from(&argv(line)).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn extra_flags_must_be_declared() {
        let bare = Cli::new("test", "test binary", 100);
        assert!(bare.parse_from(&argv("--workers 4")).is_err());
        let cli = Cli::new("test", "test binary", 100)
            .flag("--workers", "N", "decode workers")
            .flag("--fast", "", "boolean flag");
        let (_, extras) = cli
            .parse_from(&argv("--workers 4 --fast --workers 8"))
            .unwrap();
        assert_eq!(extras.get("--workers"), Some("8"), "last occurrence wins");
        assert!(extras.is_set("--fast"));
        assert!(!extras.is_set("--slow"));
        assert_eq!(extras.get("--slow"), None);
    }

    #[test]
    fn help_text_lists_every_engine_flag_and_the_extras() {
        let cli = Cli::new("fig_service", "decode-service capacity sweep", 48).flag(
            "--workers",
            "N",
            "decode worker threads per shard",
        );
        let help = cli.help();
        for flag in [
            "--samples",
            "--seed",
            "--matcher",
            "--threads",
            "--target-rse",
            "--checkpoint",
            "--resume",
            "--report",
            "--json",
            "--help",
            "--workers",
        ] {
            assert!(help.contains(flag), "help is missing {flag}:\n{help}");
        }
        assert!(help.contains("matching backend: tree|greedy|union-find (default tree)"));
        assert!(help.contains("Usage: fig_service [OPTIONS]"));
        assert!(help.contains("default 48"));
        assert!(help.contains("fig_service options:"));
    }

    #[test]
    fn sweep_config_reflects_the_mode() {
        let fixed = args().sweep_config();
        assert_eq!(fixed.shot_floor, 64);
        assert_eq!(fixed.shot_ceiling, 100);
        assert_eq!(fixed.target_rse, None);
        assert_eq!(fixed.num_threads, None);

        let mut adaptive_args = args();
        adaptive_args.samples = 4000;
        adaptive_args.target_rse = Some(0.1);
        adaptive_args.threads = Some(2);
        adaptive_args.checkpoint = Some("cp.json".into());
        adaptive_args.resume = true;
        let adaptive = adaptive_args.sweep_config();
        assert_eq!(adaptive.shot_floor, 500);
        assert_eq!(adaptive.shot_ceiling, 4000);
        assert_eq!(adaptive.target_rse, Some(0.1));
        assert_eq!(adaptive.num_threads, Some(2));
        assert!(adaptive.resume);
        assert_eq!(
            adaptive.checkpoint.as_deref(),
            Some(std::path::Path::new("cp.json"))
        );
    }
}

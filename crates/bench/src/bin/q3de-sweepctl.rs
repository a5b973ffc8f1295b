//! `q3de-sweepctl` — distributed sweep controller.
//!
//! Plans, monitors and merges sweeps run by `q3de-sweepd` workers, which
//! write one delta file per shard:
//!
//! * `plan` partitions a registered sweep (`fig3`, `fig8`) into a job file
//!   of N disjoint, resumable shards;
//! * `status` folds delta files into the coordinator and reports per-point
//!   progress and the blocks still missing;
//! * `merge` folds delta files into the final `bench_report.json` —
//!   bit-identical (modulo timing fields) to a single-process run at the
//!   same seed;
//! * `resume` plans a follow-up job that continues from committed tallies;
//! * `diff` compares two report artifacts, ignoring timing fields — the
//!   fabric's acceptance check.
//!
//! `merge --checkpoint PATH` writes the sweep's checkpoint: the job's plan
//! rebased on the committed tallies, the same document a single-process
//! `fig3 --checkpoint PATH` writes, so `fig3 ... --checkpoint PATH --resume`
//! takes the sweep over in one process.
//!
//! Each subcommand reads only some of the shared engine flags (`plan`:
//! `--samples`, `--seed`, `--matcher`, `--target-rse`; `merge`:
//! `--checkpoint`; `status` and `resume`: none) and refuses the others
//! with exit code 2 rather than ignore them.

use std::path::Path;
use std::process::exit;

use q3de::sim::engine::json::JsonValue;
use q3de::sim::engine::{Coordinator, TallyDelta};
use q3de_bench::fabric::{self, diff_reports, Generator, SweepJob};
use q3de_bench::sweeps;
use q3de_bench::{Cli, ExtraValues};

const OVERVIEW: &str = "\
q3de-sweepctl — distributed sweep controller

Usage: q3de-sweepctl <plan|status|merge|resume|diff> [OPTIONS]

Subcommands:
  plan     partition a registered sweep into a job of N shards
  status   fold delta files and report per-point progress
  merge    fold delta files into the final report artifact
  resume   plan a follow-up job continuing from committed tallies
  diff     compare two report artifacts, ignoring timing fields

merge takes --checkpoint PATH: it writes the committed tallies as the
checkpoint a single-process run resumes from (for example
'fig3 --samples 800 --checkpoint PATH --resume').

Run 'q3de-sweepctl <subcommand> --help' for each flag list.
";

fn fail(bin: &str, message: impl AsRef<str>) -> ! {
    eprintln!("{bin}: {}", message.as_ref());
    eprintln!("run '{bin} --help' for the flag list");
    exit(2);
}

/// The engine flags `plan` and `merge` read; the other subcommands read
/// none.  Each refuses the engine flags it does not read.
const PLAN_READS: &[&str] = &["--samples", "--seed", "--matcher", "--target-rse"];
const MERGE_READS: &[&str] = &["--checkpoint"];

/// The first engine flag in `argv` that is not in `reads`.  `argv` has
/// parsed into `extras`, so each flag is an engine flag or a declared
/// extra, and every flag but `--resume` and `--json` is followed by its
/// value (every subcommand's own flags take one).
fn unread_engine_flag<'a>(
    argv: &'a [String],
    extras: &ExtraValues,
    reads: &[&str],
) -> Option<&'a str> {
    let mut tokens = argv.iter().map(String::as_str);
    while let Some(flag) = tokens.next() {
        if !extras.is_set(flag) && !reads.contains(&flag) {
            return Some(flag);
        }
        if !matches!(flag, "--resume" | "--json") {
            tokens.next();
        }
    }
    None
}

/// Parses a subcommand's argument list through the shared CLI front end
/// (identical engine flag set and generated help everywhere), refusing
/// with exit code 2 any engine flag not in `reads`: the subcommand would
/// otherwise drop it without a word.
fn parse(
    cli: &Cli,
    bin: &str,
    argv: &[String],
    reads: &[&str],
) -> (q3de_bench::EngineArgs, ExtraValues) {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", cli.help());
        let reads = if reads.is_empty() {
            "none".to_string()
        } else {
            reads.join(", ")
        };
        println!("\n{bin} reads these engine options only: {reads}; it refuses the others.");
        exit(0);
    }
    let (args, extras) = cli
        .parse_from(argv)
        .unwrap_or_else(|message| fail(bin, message));
    if let Some(flag) = unread_engine_flag(argv, &extras, reads) {
        fail(bin, format!("{flag} is not read by this subcommand"));
    }
    (args, extras)
}

fn required<'e>(extras: &'e ExtraValues, bin: &str, flag: &str) -> &'e str {
    extras
        .get(flag)
        .unwrap_or_else(|| fail(bin, format!("{flag} is required")))
}

fn load_job(bin: &str, path: &str) -> SweepJob {
    SweepJob::load(Path::new(path)).unwrap_or_else(|error| {
        eprintln!("{bin}: cannot load job: {error}");
        exit(2);
    })
}

/// Loads every `--deltas` file and folds it into a fresh coordinator.
fn fold(bin: &str, job: &SweepJob, delta_paths: &[&str]) -> (Coordinator, usize) {
    let mut coordinator = Coordinator::new(job.plan.clone());
    let mut total = 0usize;
    for path in delta_paths {
        let deltas: Vec<TallyDelta> =
            fabric::load_deltas(Path::new(path)).unwrap_or_else(|error| {
                eprintln!("{bin}: cannot load deltas: {error}");
                exit(2);
            });
        total += deltas.len();
        if let Err(error) = coordinator.submit_all(&deltas) {
            eprintln!("{bin}: {path} refused: {error}");
            exit(2);
        }
    }
    (coordinator, total)
}

fn cmd_plan(argv: &[String]) {
    let bin = "q3de-sweepctl plan";
    let cli = Cli::new(
        bin,
        "partition a registered sweep into a job of N disjoint shards",
        400,
    )
    .flag(
        "--sweep",
        "NAME",
        "registered sweep to plan: fig3|fig8 (required)",
    )
    .flag(
        "--shards",
        "N",
        "number of shards to partition into (required)",
    )
    .flag("--out", "PATH", "job file to write (required)");
    let (args, extras) = parse(&cli, bin, argv, PLAN_READS);
    let sweep = required(&extras, bin, "--sweep");
    if !sweeps::NAMES.contains(&sweep) {
        fail(
            bin,
            format!(
                "unknown sweep '{sweep}' (known: {})",
                sweeps::NAMES.join(", ")
            ),
        );
    }
    let shards: usize = extras
        .require("--shards", "an integer >= 1", |n: &usize| *n >= 1)
        .unwrap_or_else(|| fail(bin, "--shards is required"));
    let out = required(&extras, bin, "--out");

    let job = SweepJob::plan(Generator::from_args(sweep, &args), shards, None)
        .unwrap_or_else(|message| fail(bin, message));
    if let Err(error) = job.save(Path::new(out)) {
        eprintln!("{bin}: cannot write job: {error}");
        exit(2);
    }
    println!(
        "planned '{sweep}': {} points x {shards} shards -> {out}",
        job.plan.points.len()
    );
    println!("fingerprint: {}", job.plan.fingerprint());
}

fn cmd_status(argv: &[String]) {
    let bin = "q3de-sweepctl status";
    let cli = Cli::new(bin, "fold delta files and report sweep progress", 400)
        .flag(
            "--job",
            "PATH",
            "job file written by 'q3de-sweepctl plan' (required)",
        )
        .flag("--deltas", "PATH", "delta file to fold (repeatable)");
    let (_, extras) = parse(&cli, bin, argv, &[]);
    let job = load_job(bin, required(&extras, bin, "--job"));
    let (coordinator, total) = fold(bin, &job, &extras.all("--deltas"));

    println!(
        "sweep '{}': {} points, {} shards, {} deltas folded",
        job.generator.sweep,
        job.plan.points.len(),
        job.plan.num_shards,
        total
    );
    for (point, (shots, failures, finished, converged)) in
        coordinator.progress().into_iter().enumerate()
    {
        let state = match (finished, converged) {
            (true, true) => "converged",
            (true, false) => "finished",
            (false, _) => "running",
        };
        println!(
            "  {:<40} {shots:>8} shots {failures:>6} failures  {state}",
            job.plan.points[point].id
        );
    }
    let missing = coordinator.missing();
    if missing.is_empty() {
        println!("complete: ready to merge");
    } else {
        let preview: Vec<String> = missing
            .iter()
            .take(5)
            .map(|&(p, e, s)| format!("{}@{e}/shard{s}", job.plan.points[p].id))
            .collect();
        println!(
            "missing {} blocks (first: {})",
            missing.len(),
            preview.join(", ")
        );
    }
}

fn cmd_merge(argv: &[String]) {
    let bin = "q3de-sweepctl merge";
    let cli = Cli::new(
        bin,
        "fold delta files into the final sweep report artifact",
        400,
    )
    .flag(
        "--job",
        "PATH",
        "job file written by 'q3de-sweepctl plan' (required)",
    )
    .flag("--deltas", "PATH", "delta file to fold (repeatable)")
    .flag("--out", "PATH", "report file to write (required)");
    let (args, extras) = parse(&cli, bin, argv, MERGE_READS);
    let job = load_job(bin, required(&extras, bin, "--job"));
    let out = required(&extras, bin, "--out");
    let (coordinator, total) = fold(bin, &job, &extras.all("--deltas"));

    if let Some(path) = &args.checkpoint {
        if let Err(error) = coordinator.checkpoint().save(Path::new(path)) {
            eprintln!("{bin}: cannot write checkpoint: {error}");
            exit(2);
        }
    }
    // Wall-clock and thread count are per-process facts a merge does not
    // have; both are timing fields every consumer ignores.
    let mut report = match coordinator.report(0.0, job.plan.num_shards) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("{bin}: {error}");
            exit(1);
        }
    };
    job.stamp_meta(&mut report);
    if let Err(error) = report.write_json(Path::new(out)) {
        eprintln!("{bin}: cannot write report: {error}");
        exit(2);
    }
    println!(
        "merged {total} deltas: {} shots over {} points -> {out}",
        report.total_shots(),
        report.points.len()
    );
}

fn cmd_resume(argv: &[String]) {
    let bin = "q3de-sweepctl resume";
    let cli = Cli::new(
        bin,
        "plan a follow-up job continuing from committed tallies",
        400,
    )
    .flag(
        "--job",
        "PATH",
        "job file of the interrupted sweep (required)",
    )
    .flag("--deltas", "PATH", "delta file to fold (repeatable)")
    .flag("--out", "PATH", "follow-up job file to write (required)")
    .flag(
        "--shards",
        "N",
        "shard count of the follow-up (default: as before)",
    );
    let (_, extras) = parse(&cli, bin, argv, &[]);
    let job = load_job(bin, required(&extras, bin, "--job"));
    let out = required(&extras, bin, "--out");
    let shards = extras
        .require("--shards", "an integer >= 1", |n: &usize| *n >= 1)
        .unwrap_or(job.plan.num_shards);
    let (coordinator, total) = fold(bin, &job, &extras.all("--deltas"));

    // The checkpoint's baselines (the committed tallies) become the
    // follow-up plan's; its fingerprint differs, so stale deltas of the
    // old plan are refused.
    let baselines = coordinator.checkpoint().baselines();
    let follow_up = SweepJob::plan(job.generator.clone(), shards, Some(&baselines))
        .unwrap_or_else(|message| fail(bin, message));
    if let Err(error) = follow_up.save(Path::new(out)) {
        eprintln!("{bin}: cannot write job: {error}");
        exit(2);
    }
    let committed: usize = baselines.iter().map(|(shots, _)| shots).sum();
    println!(
        "resumed '{}' from {total} deltas ({committed} committed shots) x {shards} shards -> {out}",
        job.generator.sweep
    );
    println!("fingerprint: {}", follow_up.plan.fingerprint());
}

fn cmd_diff(argv: &[String]) {
    let bin = "q3de-sweepctl diff";
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{bin} — compare two report artifacts, ignoring timing fields");
        println!("\nUsage: {bin} REPORT_A REPORT_B");
        println!("\nIgnored fields: {}", fabric::TIMING_FIELDS.join(", "));
        exit(0);
    }
    let [a, b] = argv else {
        fail(bin, "expected exactly two report paths");
    };
    let load = |path: &str| -> JsonValue {
        let text = std::fs::read_to_string(path).unwrap_or_else(|error| {
            eprintln!("{bin}: cannot read {path}: {error}");
            exit(2);
        });
        JsonValue::parse(&text).unwrap_or_else(|message| {
            eprintln!("{bin}: cannot parse {path}: {message}");
            exit(2);
        })
    };
    let differences = diff_reports(&load(a), &load(b));
    if differences.is_empty() {
        println!("reports match (modulo timing fields)");
    } else {
        for difference in &differences {
            println!("{difference}");
        }
        eprintln!("{bin}: {} differences", differences.len());
        exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(subcommand) = argv.first() else {
        eprint!("{OVERVIEW}");
        exit(2);
    };
    let rest = &argv[1..];
    match subcommand.as_str() {
        "plan" => cmd_plan(rest),
        "status" => cmd_status(rest),
        "merge" => cmd_merge(rest),
        "resume" => cmd_resume(rest),
        "diff" => cmd_diff(rest),
        "--help" | "-h" => print!("{OVERVIEW}"),
        other => {
            eprintln!("q3de-sweepctl: unknown subcommand '{other}'");
            eprint!("{OVERVIEW}");
            exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// The refused flag of `line` under the subcommands' own flags.
    fn refused(line: &str, reads: &[&str]) -> Option<String> {
        let cli = ["--sweep", "--shards", "--out", "--job", "--deltas"]
            .into_iter()
            .fold(Cli::new("t", "t", 1), |cli, flag| cli.flag(flag, "V", ""));
        let argv = argv(line);
        let (_, extras) = cli.parse_from(&argv).unwrap();
        unread_engine_flag(&argv, &extras, reads).map(String::from)
    }

    #[test]
    fn engine_flags_a_subcommand_does_not_read_are_refused() {
        for (line, reads, expected) in [
            (
                "--sweep fig3 --shards 2 --out job.json --checkpoint cp.json --resume --threads 9 \
                 --report r.json",
                PLAN_READS,
                Some("--checkpoint"),
            ),
            (
                "--sweep fig3 --threads 9 --out job.json",
                PLAN_READS,
                Some("--threads"),
            ),
            ("--resume --sweep fig3", PLAN_READS, Some("--resume")),
            ("--job j --deltas d --samples 5", &[], Some("--samples")),
            ("--job j --json", &[], Some("--json")),
            ("--job j --out o --resume", MERGE_READS, Some("--resume")),
            (
                "--sweep fig3 --shards 2 --out job.json --samples 80 --seed 7 --matcher greedy \
                 --target-rse 0.5",
                PLAN_READS,
                None,
            ),
            ("--job j --out o --checkpoint cp.json", MERGE_READS, None),
            ("--job j --deltas d --out o", &[], None),
            // A value is never taken for a flag.
            ("--job j --out --threads", &[], None),
        ] {
            assert_eq!(refused(line, reads).as_deref(), expected, "{line}");
        }
    }

    /// The walk above skips a value after every engine flag but `--resume`
    /// and `--json`, as the shared front end reads them.
    #[test]
    fn engine_flag_arity_matches_the_shared_front_end() {
        let cli = Cli::new("t", "t", 1);
        for flag in [
            "--samples",
            "--seed",
            "--matcher",
            "--threads",
            "--target-rse",
            "--checkpoint",
            "--report",
        ] {
            let err = cli.parse_from(&argv(flag)).unwrap_err();
            assert!(err.contains("requires a value"), "{flag}: {err}");
        }
        assert!(cli.parse_from(&argv("--resume --json")).is_ok());
    }
}

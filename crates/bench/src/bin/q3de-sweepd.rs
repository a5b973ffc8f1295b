//! `q3de-sweepd` — distributed sweep worker.
//!
//! Runs one shard of a sweep planned by `q3de-sweepctl plan`.  The worker
//! rebuilds the sweep's kernels deterministically from the job's generator,
//! cross-checks them against the plan, runs its shard's stream slices and
//! writes one tally delta per scheduling block to its delta file.
//!
//! The delta file doubles as the shard checkpoint: `--resume` picks it back
//! up after a kill, losing at most the in-flight block.  `q3de-sweepctl
//! merge` folds the shards' files into a report bit-identical to a
//! single-process run.  Without a live coordinator, adaptive sweeps cannot
//! stop early: each shard runs its whole schedule and the merge discards
//! the overshoot.

use std::path::Path;
use std::process::exit;

use q3de::sim::engine::ShardWorker;
use q3de_bench::fabric::{FileSink, SweepJob};

const HELP: &str = "\
q3de-sweepd — distributed sweep worker (runs one shard planned by q3de-sweepctl)

Usage: q3de-sweepd --job PATH --shard K [--deltas PATH] [--resume]

Options:
  --job PATH         job file written by 'q3de-sweepctl plan'
  --shard K          shard index to run (0-based)
  --deltas PATH      delta/checkpoint file (default deltas-shardK.json)
  --resume           resume from the delta file when it exists
  -h, --help         print this help text
";

struct Args {
    job: Option<String>,
    shard: Option<usize>,
    deltas: Option<String>,
    resume: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        exit(0);
    }
    let fail = |message: String| -> ! {
        eprintln!("q3de-sweepd: {message}");
        eprintln!("run 'q3de-sweepd --help' for the flag list");
        exit(2);
    };
    let mut args = Args {
        job: None,
        shard: None,
        deltas: None,
        resume: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || -> String {
            i += 1;
            argv.get(i)
                .cloned()
                .unwrap_or_else(|| fail(format!("{flag} requires a value")))
        };
        match flag {
            "--job" => args.job = Some(value()),
            "--shard" => {
                let raw = value();
                args.shard = Some(
                    raw.parse()
                        .unwrap_or_else(|_| fail(format!("invalid --shard '{raw}'"))),
                );
            }
            "--deltas" => args.deltas = Some(value()),
            "--resume" => args.resume = true,
            other => fail(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    args
}

/// Runs one shard against its delta file.
fn run(job_path: &str, shard: usize, deltas: Option<String>, resume: bool) {
    let job = SweepJob::load(Path::new(job_path)).unwrap_or_else(|error| {
        eprintln!("q3de-sweepd: cannot load job: {error}");
        exit(2);
    });
    if shard >= job.plan.num_shards {
        eprintln!(
            "q3de-sweepd: shard {shard} out of range (the plan has {} shards)",
            job.plan.num_shards
        );
        exit(2);
    }
    let points = job.points().unwrap_or_else(|message| {
        eprintln!("q3de-sweepd: cannot rebuild the sweep: {message}");
        exit(2);
    });
    let deltas = deltas.unwrap_or_else(|| format!("deltas-shard{shard}.json"));
    let mut sink = FileSink::new(&deltas, resume).unwrap_or_else(|error| {
        eprintln!("q3de-sweepd: cannot open delta file: {error}");
        exit(2);
    });
    let completed = sink.deltas().to_vec();
    if !completed.is_empty() {
        eprintln!(
            "q3de-sweepd: resuming shard {shard} with {} committed blocks",
            completed.len()
        );
    }
    let result = ShardWorker::new(&job.plan, shard).run(&points, &completed, &mut sink);
    if let Err(error) = result {
        eprintln!("q3de-sweepd: shard {shard} failed: {error}");
        exit(2);
    }
    eprintln!(
        "q3de-sweepd: shard {shard} done, {} blocks in {deltas}",
        sink.deltas().len()
    );
}

fn main() {
    let args = parse_args();
    let (Some(job), Some(shard)) = (&args.job, args.shard) else {
        eprintln!("q3de-sweepd: need both --job PATH and --shard K");
        eprintln!("run 'q3de-sweepd --help' for the flag list");
        exit(2);
    };
    run(job, shard, args.deltas, args.resume);
}

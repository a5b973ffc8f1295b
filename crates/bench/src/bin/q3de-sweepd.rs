//! `q3de-sweepd` — distributed sweep worker.
//!
//! Runs one (file transport) or many (TCP transport) shards of a sweep
//! planned by `q3de-sweepctl plan`.  The worker rebuilds the sweep's
//! kernels deterministically from the job's generator, cross-checks them
//! against the plan, runs its shard's stream slices and emits one tally
//! delta per scheduling block.
//!
//! File transport: `--job job.json --shard K` writes the deltas to a file
//! that doubles as the shard checkpoint (`--resume` picks it back up after
//! a kill, losing at most the in-flight block).  The merged result is
//! bit-identical to a single-process run; without a live coordinator,
//! adaptive sweeps cannot stop early (the merge discards overshoot).
//!
//! TCP transport: `--connect HOST:PORT` claims shards from a
//! `q3de-sweepctl serve` coordinator until none remain.  The coordinator
//! checkpoints committed deltas itself and gates blocks live, so adaptive
//! sweeps stop early exactly like a single-process run.

use std::path::Path;
use std::process::exit;

use q3de::sim::engine::ShardWorker;
use q3de_bench::fabric::{FileSink, RemoteSink, SweepJob};

const HELP: &str = "\
q3de-sweepd — distributed sweep worker (runs shards planned by q3de-sweepctl)

Usage: q3de-sweepd --job PATH --shard K [--deltas PATH] [--resume]
       q3de-sweepd --connect HOST:PORT

Options:
  --job PATH         job file written by 'q3de-sweepctl plan'
  --shard K          shard index to run (0-based; file transport only)
  --deltas PATH      delta/checkpoint file (default deltas-shardK.json)
  --resume           resume from the delta file when it exists
  --connect ADDR     claim shards from a 'q3de-sweepctl serve' coordinator
  -h, --help         print this help text
";

struct Args {
    job: Option<String>,
    shard: Option<usize>,
    deltas: Option<String>,
    resume: bool,
    connect: Option<String>,
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
        connect: None,
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
            "--connect" => args.connect = Some(value()),
            other => fail(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    args
}

/// File transport: run one shard against a local delta file.
fn run_file(job_path: &str, shard: usize, deltas: Option<String>, resume: bool) {
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

/// TCP transport: claim and run shards until the coordinator drains.
fn run_tcp(addr: &str) {
    let mut ran = 0usize;
    loop {
        // One connection per shard: the coordinator ties a claim to its
        // connection so a dying worker releases the shard automatically.
        let mut sink = match RemoteSink::connect(addr) {
            Ok(sink) => sink,
            // A coordinator that has already merged its last block exits;
            // reconnecting for another claim then means "drained", not an
            // error — but an unreachable coordinator before any work is.
            Err(error) if ran > 0 => {
                eprintln!("q3de-sweepd: coordinator gone ({error}), assuming drained");
                break;
            }
            Err(error) => {
                eprintln!("q3de-sweepd: cannot connect: {error}");
                exit(2);
            }
        };
        let claim = sink.claim().unwrap_or_else(|error| {
            eprintln!("q3de-sweepd: claim failed: {error}");
            exit(2);
        });
        let Some((shard, job, completed)) = claim else {
            break;
        };
        let points = job.points().unwrap_or_else(|message| {
            eprintln!("q3de-sweepd: cannot rebuild the sweep: {message}");
            exit(2);
        });
        if !completed.is_empty() {
            eprintln!(
                "q3de-sweepd: taking over shard {shard} with {} committed blocks",
                completed.len()
            );
        }
        let result = ShardWorker::new(&job.plan, shard).run(&points, &completed, &mut sink);
        if let Err(error) = result {
            eprintln!("q3de-sweepd: shard {shard} failed: {error}");
            exit(2);
        }
        if let Err(error) = sink.finish() {
            eprintln!("q3de-sweepd: cannot report shard {shard} done: {error}");
            exit(2);
        }
        eprintln!("q3de-sweepd: shard {shard} done");
        ran += 1;
    }
    eprintln!("q3de-sweepd: coordinator drained after {ran} shards");
}

fn main() {
    let args = parse_args();
    match (&args.connect, &args.job, args.shard) {
        (Some(addr), None, None) => run_tcp(addr),
        (None, Some(job), Some(shard)) => run_file(job, shard, args.deltas, args.resume),
        _ => {
            eprintln!("q3de-sweepd: need either --connect ADDR or both --job PATH and --shard K");
            eprintln!("run 'q3de-sweepd --help' for the flag list");
            exit(2);
        }
    }
}

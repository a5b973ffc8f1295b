//! The distributed sweep fabric: job files and delta files behind
//! `q3de-sweepd` and `q3de-sweepctl`.
//!
//! A distributed sweep is the engine's shard protocol stretched across
//! processes:
//!
//! * `q3de-sweepctl plan` captures a sweep as a [`SweepJob`] — a
//!   [`Generator`] (the sweep name plus the engine knobs needed to rebuild
//!   its kernels deterministically) and the engine's
//!   [`ShardPlan`] (pure data: the deterministic stream partition);
//! * each `q3de-sweepd` worker rebuilds the identical points from the
//!   generator, runs its shard and writes its [`TallyDelta`]s to a delta
//!   file ([`FileSink`]);
//! * `q3de-sweepctl merge` folds the delta files through the engine's
//!   [`Coordinator`](q3de::sim::engine::Coordinator), whose merge is
//!   associative, commutative and duplicate-idempotent — so the merged
//!   report is **bit-identical** (modulo the [`TIMING_FIELDS`]) to a
//!   single-process run at the same seed, which `q3de-sweepctl diff`
//!   checks.
//!
//! A delta file has no live coordinator behind it, so its gate always
//! answers [`EpochGate::Run`]: an adaptive sweep's workers run every
//! scheduled block up to the ceiling, and the merge discards the blocks past
//! each point's stop boundary — same statistics, no early-stop savings.  A
//! single-process run (`fig3 --target-rse …` on all cores) keeps them.

use std::path::{Path, PathBuf};

use q3de::matching::MatcherKind;
use q3de::sim::engine::json::{check_schema_version, JsonValue};
use q3de::sim::engine::{
    read_document, write_atomic, DeltaSink, EngineError, EpochGate, ShardPlan, SweepPoint,
    SweepReport, TallyDelta,
};

use crate::{sweeps, EngineArgs};

/// Schema version of job and delta-file documents.
pub const FABRIC_SCHEMA_VERSION: u64 = 1;

/// Report fields that depend on wall-clock time, not on which streams ran.
/// [`diff_reports`] ignores them at any nesting depth; everything else must
/// match bit-for-bit between a sharded and a single-process run.
pub const TIMING_FIELDS: &[&str] = &["wall_clock_secs", "threads", "busy_secs", "shots_per_sec"];

/// Rebuilds a sweep's kernels deterministically on any machine: the
/// registered sweep name (see [`sweeps::NAMES`]) plus the engine knobs that
/// shape its points.  Pure data — two processes with the same generator
/// build byte-identical stream kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Generator {
    /// The registered sweep name (`fig3`, …).
    pub sweep: String,
    /// Base RNG seed (`--seed`).
    pub seed: u64,
    /// Shots per point, or the shot ceiling in adaptive mode (`--samples`).
    pub samples: usize,
    /// Matching backend (`--matcher`).
    pub matcher: MatcherKind,
    /// Adaptive stopping target (`--target-rse`), if any.
    pub target_rse: Option<f64>,
}

impl Generator {
    /// Captures the generator of a planned sweep from parsed engine flags.
    pub fn from_args(sweep: &str, args: &EngineArgs) -> Self {
        Self {
            sweep: sweep.to_string(),
            seed: args.seed,
            samples: args.samples,
            matcher: args.matcher,
            target_rse: args.target_rse,
        }
    }

    /// The engine arguments the generator describes (per-process settings —
    /// threads, checkpoints, output — left at their defaults).
    pub fn engine_args(&self) -> EngineArgs {
        EngineArgs {
            samples: self.samples,
            seed: self.seed,
            json: false,
            matcher: self.matcher,
            threads: None,
            target_rse: self.target_rse,
            checkpoint: None,
            resume: false,
            report: None,
        }
    }

    /// Rebuilds the sweep's full point list.
    ///
    /// # Errors
    ///
    /// Returns an error for a sweep name not in [`sweeps::NAMES`].
    pub fn build_points(&self) -> Result<Vec<SweepPoint>, String> {
        sweeps::build(&self.sweep, &self.engine_args()).ok_or_else(|| {
            format!(
                "unknown sweep '{}' (known: {})",
                self.sweep,
                sweeps::NAMES.join(", ")
            )
        })
    }

    /// The generator as a JSON document.  The seed is written as a string:
    /// JSON numbers go through `f64`, which cannot hold every `u64`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("sweep".into(), JsonValue::String(self.sweep.clone())),
            ("seed".into(), JsonValue::String(self.seed.to_string())),
            ("samples".into(), JsonValue::Number(self.samples as f64)),
            (
                "matcher".into(),
                JsonValue::String(self.matcher.name().into()),
            ),
            (
                "target_rse".into(),
                self.target_rse.map_or(JsonValue::Null, JsonValue::Number),
            ),
        ])
    }

    /// Parses a generator from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let seed = value
            .get("seed")
            .and_then(JsonValue::as_str)
            .ok_or("generator missing seed")?;
        let matcher = value
            .get("matcher")
            .and_then(JsonValue::as_str)
            .ok_or("generator missing matcher")?;
        // The bounds `Cli` enforces on `--samples` and `--target-rse`.
        let target_rse = match value.get("target_rse") {
            Some(JsonValue::Null) => None,
            Some(JsonValue::Number(rse)) if *rse > 0.0 => Some(*rse),
            _ => return Err("generator target_rse must be null or a positive number".into()),
        };
        Ok(Self {
            sweep: value
                .get("sweep")
                .and_then(JsonValue::as_str)
                .ok_or("generator missing sweep")?
                .to_string(),
            seed: seed
                .parse()
                .map_err(|_| format!("generator seed '{seed}' is not a u64"))?,
            samples: value
                .get("samples")
                .and_then(JsonValue::as_usize)
                .filter(|&samples| samples >= 1)
                .ok_or("generator samples must be a shot count >= 1")?,
            matcher: MatcherKind::parse(matcher)
                .ok_or_else(|| format!("generator has unknown matcher '{matcher}'"))?,
            target_rse,
        })
    }
}

/// A planned distributed sweep: the [`Generator`] that rebuilds its kernels
/// and the [`ShardPlan`] that partitions its streams.  This is the
/// `job.json` artifact `q3de-sweepctl plan` writes and every worker and
/// merge step loads.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepJob {
    /// How to rebuild the sweep's points.
    pub generator: Generator,
    /// The deterministic shard partition.
    pub plan: ShardPlan,
}

impl SweepJob {
    /// Plans a sweep: builds the generator's points and partitions their
    /// schedule into `num_shards`, continuing from `baselines` when the job
    /// extends committed tallies (see `q3de-sweepctl resume`).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown sweep name.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `baselines` has the wrong length.
    pub fn plan(
        generator: Generator,
        num_shards: usize,
        baselines: Option<&[(usize, usize)]>,
    ) -> Result<Self, String> {
        let points = generator.build_points()?;
        let config = generator.engine_args().sweep_config();
        let plan = ShardPlan::new(&config, &points, baselines, num_shards);
        Ok(Self { generator, plan })
    }

    /// Rebuilds the job's points and cross-checks them against the plan, so
    /// a worker whose binary builds a different grid (stale registry,
    /// different version) fails loudly instead of running wrong streams.
    ///
    /// # Errors
    ///
    /// Returns an error on an unknown sweep or any id mismatch.
    pub fn points(&self) -> Result<Vec<SweepPoint>, String> {
        let points = self.generator.build_points()?;
        if points.len() != self.plan.points.len() {
            return Err(format!(
                "sweep '{}' builds {} points but the plan has {}",
                self.generator.sweep,
                points.len(),
                self.plan.points.len()
            ));
        }
        for (point, planned) in points.iter().zip(&self.plan.points) {
            if point.id() != planned.id {
                return Err(format!(
                    "rebuilt point '{}' does not match planned '{}'",
                    point.id(),
                    planned.id
                ));
            }
        }
        Ok(points)
    }

    /// Stamps the generator metadata into a merged report — the same
    /// entries [`EngineArgs::run_sweep`] stamps, so a merged report is
    /// byte-identical to a single-process `--report` artifact.
    pub fn stamp_meta(&self, report: &mut SweepReport) {
        report.meta = vec![
            ("seed".into(), self.generator.seed.to_string()),
            ("samples".into(), self.generator.samples.to_string()),
            ("matcher".into(), self.generator.matcher.name().to_string()),
        ];
    }

    /// The job as a JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "schema_version".into(),
                JsonValue::Number(FABRIC_SCHEMA_VERSION as f64),
            ),
            ("generator".into(), self.generator.to_json()),
            ("plan".into(), self.plan.to_json()),
        ])
    }

    /// Parses a job from its JSON document, rejecting unknown schema
    /// majors.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        check_schema_version(value, FABRIC_SCHEMA_VERSION, "sweep job")?;
        Ok(Self {
            generator: Generator::from_json(
                value.get("generator").ok_or("job missing generator")?,
            )?,
            plan: ShardPlan::from_json(value.get("plan").ok_or("job missing plan")?)?,
        })
    }

    /// Writes the job atomically to `path`.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), EngineError> {
        write_atomic(path, &format!("{}\n", self.to_json()))
    }

    /// Loads a job from `path`.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be read or parsed.
    pub fn load(path: &Path) -> Result<Self, EngineError> {
        read_document(path, Self::from_json)
    }
}

/// Writes a delta set atomically to `path` (the body of a
/// `deltas-shardK.json` artifact).
///
/// # Errors
///
/// Returns an error when the file cannot be written.
pub fn save_deltas(path: &Path, deltas: &[TallyDelta]) -> Result<(), EngineError> {
    let doc = JsonValue::Object(vec![
        (
            "schema_version".into(),
            JsonValue::Number(FABRIC_SCHEMA_VERSION as f64),
        ),
        (
            "deltas".into(),
            JsonValue::Array(deltas.iter().map(TallyDelta::to_json).collect()),
        ),
    ]);
    write_atomic(path, &format!("{doc}\n"))
}

/// Loads a delta set from `path`.
///
/// # Errors
///
/// Returns an error when the file cannot be read or parsed, or carries an
/// unknown schema major.
pub fn load_deltas(path: &Path) -> Result<Vec<TallyDelta>, EngineError> {
    read_document(path, |value| {
        check_schema_version(value, FABRIC_SCHEMA_VERSION, "delta file")?;
        value
            .get("deltas")
            .and_then(JsonValue::as_array)
            .ok_or("delta file missing deltas")?
            .iter()
            .map(TallyDelta::from_json)
            .collect()
    })
}

/// The fabric's [`DeltaSink`]: every committed delta is appended to
/// an in-memory set and the whole set rewritten atomically, so the delta
/// file doubles as the worker's shard checkpoint — a killed worker restarts
/// with `--resume` and loses at most its in-flight block.
///
/// There is no live coordinator behind a file, so [`FileSink::gate`] always
/// answers [`EpochGate::Run`]: an adaptive sweep's shards run their whole
/// schedule and the merge discards blocks past each stop boundary.
#[derive(Debug)]
pub struct FileSink {
    path: PathBuf,
    deltas: Vec<TallyDelta>,
}

impl FileSink {
    /// A sink writing to `path`.  With `resume`, an existing file is loaded
    /// as the set of already-committed deltas; without it, a fresh sweep
    /// starts empty (any existing file is overwritten on the first delta).
    ///
    /// # Errors
    ///
    /// Returns an error when an existing file cannot be read or parsed.
    pub fn new(path: impl Into<PathBuf>, resume: bool) -> Result<Self, EngineError> {
        let path = path.into();
        let deltas = if resume && path.exists() {
            load_deltas(&path)?
        } else {
            Vec::new()
        };
        Ok(Self { path, deltas })
    }

    /// The deltas committed so far (pass to
    /// [`ShardWorker::run`](q3de::sim::engine::ShardWorker::run) as
    /// `completed` when resuming).
    pub fn deltas(&self) -> &[TallyDelta] {
        &self.deltas
    }
}

impl DeltaSink for FileSink {
    fn submit(&mut self, delta: TallyDelta) -> Result<(), EngineError> {
        // Resubmitted checkpoint deltas are exact duplicates: count once,
        // skip the rewrite.
        if self.deltas.contains(&delta) {
            return Ok(());
        }
        self.deltas.push(delta);
        save_deltas(&self.path, &self.deltas)
    }

    fn gate(&mut self, _point: usize, _epoch: usize) -> Result<EpochGate, EngineError> {
        Ok(EpochGate::Run)
    }
}

/// Compares two report documents field by field, ignoring the
/// [`TIMING_FIELDS`] at any depth.  Returns a human-readable line per
/// difference; an empty result means the reports are bit-identical modulo
/// timing — the fabric's acceptance check (`q3de-sweepctl diff`).
pub fn diff_reports(a: &JsonValue, b: &JsonValue) -> Vec<String> {
    let mut differences = Vec::new();
    diff_value("report", a, b, &mut differences);
    differences
}

fn diff_value(path: &str, a: &JsonValue, b: &JsonValue, out: &mut Vec<String>) {
    match (a, b) {
        (JsonValue::Object(fa), JsonValue::Object(fb)) => {
            let keys: Vec<&str> = fa
                .iter()
                .map(|(k, _)| k.as_str())
                .chain(
                    fb.iter()
                        .filter(|(k, _)| a.get(k).is_none())
                        .map(|(k, _)| k.as_str()),
                )
                .collect();
            for key in keys {
                if TIMING_FIELDS.contains(&key) {
                    continue;
                }
                let child = format!("{path}.{key}");
                match (a.get(key), b.get(key)) {
                    (Some(va), Some(vb)) => diff_value(&child, va, vb, out),
                    (Some(_), None) => out.push(format!("{child}: missing on the right")),
                    (None, _) => out.push(format!("{child}: missing on the left")),
                }
            }
        }
        (JsonValue::Array(ia), JsonValue::Array(ib)) => {
            if ia.len() != ib.len() {
                out.push(format!(
                    "{path}: {} elements vs {} elements",
                    ia.len(),
                    ib.len()
                ));
                return;
            }
            for (i, (va, vb)) in ia.iter().zip(ib).enumerate() {
                diff_value(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        _ if a == b => {}
        _ => out.push(format!("{path}: {a} vs {b}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q3de::sim::engine::{Coordinator, ShardWorker, SweepConfig, SweepRunner};

    fn generator() -> Generator {
        Generator {
            sweep: "fig3".into(),
            seed: 7,
            samples: 96,
            matcher: MatcherKind::Greedy,
            target_rse: None,
        }
    }

    #[test]
    fn job_json_round_trips() {
        let job = SweepJob::plan(generator(), 3, None).unwrap();
        let parsed = SweepJob::from_json(&job.to_json()).unwrap();
        assert_eq!(parsed, job);
        assert_eq!(parsed.plan.fingerprint(), job.plan.fingerprint());
        let points = parsed.points().unwrap();
        assert_eq!(points.len(), job.plan.points.len());
    }

    #[test]
    fn unknown_sweeps_and_schemas_are_refused() {
        let bad = Generator {
            sweep: "fig99".into(),
            ..generator()
        };
        assert!(bad.build_points().is_err());
        let job = SweepJob::plan(generator(), 2, None).unwrap();
        let mut doc = job.to_json();
        if let JsonValue::Object(fields) = &mut doc {
            fields[0].1 = JsonValue::Number(99.0);
        }
        let err = SweepJob::from_json(&doc).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
        // Matchers that no longer exist are refused by name, not a panic.
        for old in ["exact", "blossom"] {
            let mut doc = generator().to_json();
            if let JsonValue::Object(fields) = &mut doc {
                for (key, value) in fields.iter_mut() {
                    if key == "matcher" {
                        *value = JsonValue::String(old.into());
                    }
                }
            }
            let err = Generator::from_json(&doc).unwrap_err();
            assert!(err.contains(&format!("unknown matcher '{old}'")), "{err}");
        }
        // A target or shot count outside `Cli`'s bounds is refused by field
        // name, not read as a fixed sweep or passed on to the planner.
        let with = |key: &str, value: JsonValue| {
            let mut doc = generator().to_json();
            if let JsonValue::Object(fields) = &mut doc {
                fields.retain(|(k, _)| k != key);
                fields.push((key.into(), value));
            }
            Generator::from_json(&doc)
        };
        for bad in [
            JsonValue::String("0.5".into()),
            JsonValue::Number(-1.0),
            JsonValue::Number(0.0),
            JsonValue::Bool(true),
        ] {
            let err = with("target_rse", bad).unwrap_err();
            assert!(err.contains("target_rse"), "{err}");
        }
        for bad in [
            JsonValue::Number(0.0),
            JsonValue::Number(-3.0),
            JsonValue::Number(1.5),
            JsonValue::String("96".into()),
        ] {
            let err = with("samples", bad).unwrap_err();
            assert!(err.contains("samples"), "{err}");
        }
        assert_eq!(with("target_rse", JsonValue::Null).unwrap(), generator());
        assert_eq!(
            with("target_rse", JsonValue::Number(0.5))
                .unwrap()
                .target_rse,
            Some(0.5)
        );
    }

    #[test]
    fn delta_files_round_trip_and_file_sink_resumes() {
        let dir = std::env::temp_dir().join(format!("q3de-fabric-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deltas.json");
        let delta = TallyDelta {
            plan_fingerprint: "fp".into(),
            shard: 0,
            point: 0,
            point_id: "a".into(),
            epoch: 0,
            shots: 64,
            failures: 2,
            busy_secs: 0.25,
        };
        let mut sink = FileSink::new(&path, false).unwrap();
        sink.submit(delta.clone()).unwrap();
        sink.submit(delta.clone()).unwrap();
        assert_eq!(sink.deltas().len(), 1, "duplicates are counted once");
        assert_eq!(load_deltas(&path).unwrap(), vec![delta.clone()]);

        let resumed = FileSink::new(&path, true).unwrap();
        assert_eq!(resumed.deltas(), &[delta]);
        let fresh = FileSink::new(&path, false).unwrap();
        assert!(fresh.deltas().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_ignores_timing_but_not_tallies() {
        let report = |wall: f64, failures: usize| {
            JsonValue::Object(vec![
                ("wall_clock_secs".into(), JsonValue::Number(wall)),
                (
                    "points".into(),
                    JsonValue::Array(vec![JsonValue::Object(vec![
                        ("failures".into(), JsonValue::Number(failures as f64)),
                        ("busy_secs".into(), JsonValue::Number(wall * 2.0)),
                    ])]),
                ),
            ])
        };
        assert!(diff_reports(&report(1.0, 5), &report(9.0, 5)).is_empty());
        let differences = diff_reports(&report(1.0, 5), &report(1.0, 6));
        assert_eq!(differences.len(), 1);
        assert!(
            differences[0].contains("points[0].failures"),
            "{differences:?}"
        );
    }

    /// The toy job's points: closure kernels instead of decoder
    /// simulations (the registry kernels are exercised by the
    /// `engine_shards` integration tests and the CI shard-smoke job).
    fn toy_points() -> Vec<SweepPoint> {
        vec![
            SweepPoint::new("a", |s: u64| s.is_multiple_of(7)),
            SweepPoint::new("b", |s: u64| s.is_multiple_of(3)),
        ]
    }

    #[test]
    fn a_single_process_takes_over_from_the_merged_checkpoint() {
        let dir = std::env::temp_dir().join(format!("q3de-takeover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A real 2-shard plan over the toy points, 300 shots per point.
        let points = toy_points();
        let job = SweepJob {
            generator: generator(),
            plan: ShardPlan::new(&SweepConfig::fixed(300), &points, None, 2),
        };

        // What `q3de-sweepd --deltas` and `q3de-sweepctl merge --checkpoint`
        // do: every shard writes its delta file, the merge folds them all.
        let mut coordinator = Coordinator::new(job.plan.clone());
        for shard in 0..job.plan.num_shards {
            let deltas = dir.join(format!("d{shard}.json"));
            let mut sink = FileSink::new(&deltas, false).unwrap();
            ShardWorker::new(&job.plan, shard)
                .run(&points, &[], &mut sink)
                .unwrap();
            coordinator
                .submit_all(&load_deltas(&deltas).unwrap())
                .unwrap();
        }
        let path = dir.join("merged-cp.json");
        coordinator.checkpoint().save(&path).unwrap();

        // The merged report equals an in-process run of the same sweep.
        let mut merged = coordinator.report(0.0, job.plan.num_shards).unwrap();
        job.stamp_meta(&mut merged);
        let mut single = SweepRunner::new(SweepConfig::fixed(300))
            .run(toy_points())
            .unwrap();
        job.stamp_meta(&mut single);
        let differences = diff_reports(&merged.to_json(), &single.to_json());
        assert!(differences.is_empty(), "{differences:?}");

        // Extend the merged 300-shot sweep to 600 shots in one process.
        let config = SweepConfig::fixed(600);
        let resumed = SweepRunner::new(config.clone().with_checkpoint(&path).with_resume(true))
            .run(toy_points())
            .unwrap();
        let fresh = SweepRunner::new(config).run(toy_points()).unwrap();
        for (r, f) in resumed.points.iter().zip(&fresh.points) {
            assert_eq!(r.resumed_shots, 300, "point {}", r.id);
            assert_eq!(
                (r.id.as_str(), r.shots, r.failures),
                (f.id.as_str(), f.shots, f.failures)
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

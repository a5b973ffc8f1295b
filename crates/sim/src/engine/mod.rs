//! The adaptive Monte-Carlo sweep engine.
//!
//! Every figure of the paper is a Monte-Carlo estimate over a grid of
//! parameter points, and before this module existed each figure binary
//! hand-rolled its own fixed-shot loop — wasting cores on long-converged
//! points while starving the rare-event points cosmic-ray bursts live in.
//! [`SweepRunner`] replaces those loops with one shared scheduler:
//!
//! * **a sweep is a grid** — each [`SweepPoint`] wraps an arbitrary boxed
//!   [`ShotKernel`] (built from a [`MemoryExperimentConfig`], a
//!   [`ChipMemoryExperiment`], or any closure) that maps a global stream
//!   index to one shot's pass/fail outcome;
//! * **sharded execution** — the runner is an in-process instance of the
//!   [shard protocol](shard): it builds a [`ShardPlan`] with one shard per
//!   worker thread, each thread runs its deterministic slice of every
//!   scheduling block of every point, and a local
//!   [`Coordinator`] folds the resulting
//!   [`TallyDelta`]s — the exact code path the `q3de-sweepd` /
//!   `q3de-sweepctl` fabric runs across processes and machines, which is
//!   why a distributed sweep is bit-identical to a local one (the
//!   memory/chip kernels decode through pooled persistent decoder
//!   contexts, so each worker reuses one warm space-time graph across all
//!   the shots of its slices);
//! * **adaptive stopping** — with a `target_rse`, each point stops once the
//!   relative half-width of the Wilson score interval of its tally drops
//!   below the target, checked only at deterministic block boundaries
//!   (`shot_floor`, then doubling up to `shot_ceiling`), so results are
//!   bit-identical for a fixed seed regardless of thread count or machine;
//! * **checkpoint/resume** — after every completed block the sweep's
//!   [`ShardPlan`], rebased on the committed tallies (each always covering
//!   the stream prefix `0..shots`), is persisted as JSON; a killed sweep
//!   resumed from its checkpoint *with the same configuration* finishes
//!   with bit-identical statistics.  The same document is what the
//!   `q3de-sweepctl` coordinator writes, so a single process can take
//!   over a sharded sweep and vice versa.  A *finished*
//!   sweep can also be extended by resuming with a larger ceiling; the
//!   extended schedule doubles onward from the resumed count, so in
//!   adaptive mode its convergence look-points (and therefore the final
//!   shot counts) may differ from a fresh run at the larger ceiling —
//!   every tally is still an honest prefix estimate.
//!
//! Statistical honesty: the sequential looks at block boundaries inflate
//! the realised coverage of the final interval slightly (the usual optional
//! stopping caveat); boundaries double in size, so the number of looks is
//! logarithmic and the effect is small, and the shot floor keeps any point
//! from stopping on noise.
//!
//! ```
//! use q3de_sim::engine::{SweepConfig, SweepPoint, SweepRunner};
//!
//! // A toy kernel: stream parity. Real sweeps build points from
//! // MemoryExperimentConfig / ChipMemoryExperiment instead.
//! let points = vec![SweepPoint::new("even", |stream| stream % 2 == 0)];
//! let report = SweepRunner::new(SweepConfig::fixed(100)).run(points)?;
//! let point = report.point("even").unwrap();
//! assert_eq!((point.shots, point.failures), (100, 50));
//! # Ok::<(), q3de_sim::engine::EngineError>(())
//! ```

pub mod coordinator;
pub mod json;
pub mod shard;

pub use coordinator::{Coordinator, SubmitOutcome};
pub use shard::{
    DeltaSink, EpochGate, PlanPoint, ShardPlan, ShardWorker, TallyDelta, PLAN_SCHEMA_VERSION,
};

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::chip::{ChipMemoryExperiment, ChipMemoryExperimentConfig};
use crate::memory::{DecodingStrategy, MemoryExperiment, MemoryExperimentConfig};
use json::JsonValue;
use q3de_lattice::LatticeError;
use q3de_scaling::{relative_half_width, wilson_interval, Z_95};
use rand::{Rng, SeedableRng};

/// Errors of the sweep engine (checkpoint and report I/O).
#[derive(Debug)]
pub enum EngineError {
    /// Reading or writing a file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A file was read but is not a valid document.
    Parse {
        /// The file involved.
        path: PathBuf,
        /// What was wrong.
        message: String,
    },
    /// A checkpoint exists but belongs to a different sweep (other points,
    /// seeds, floor or target), or its tallies do not fit this schedule.
    CheckpointMismatch {
        /// Why the checkpoint cannot be resumed.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            EngineError::Parse { path, message } => {
                write!(f, "cannot parse {}: {message}", path.display())
            }
            EngineError::CheckpointMismatch { reason } => {
                write!(f, "checkpoint does not match this sweep: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One shot of a sweep point: maps a global stream index to whether the
/// shot *failed* (e.g. ended in a logical error).
///
/// Kernels must be deterministic in `stream` — the engine relies on the
/// tally over a stream set being independent of execution order and thread
/// assignment.  Blanket-implemented for closures.
pub trait ShotKernel: Send + Sync {
    /// Runs the shot of stream index `stream`; `true` means failure.
    fn run(&self, stream: u64) -> bool;
}

impl<F> ShotKernel for F
where
    F: Fn(u64) -> bool + Send + Sync,
{
    fn run(&self, stream: u64) -> bool {
        self(stream)
    }
}

/// A kernel that runs 64 shots per call: group `g` covers streams
/// `g · 64 .. g · 64 + 64`, and bit `lane` of the returned mask is the
/// failure flag of stream `g · 64 + lane`.
///
/// Like [`ShotKernel`], the mask must be deterministic in `group` —
/// independent of execution order, thread assignment and of how many other
/// groups run — so a sweep's tally stays reproducible under any
/// batch/thread configuration.  [`crate::PackedShotBatch`] is the canonical
/// implementation.
pub trait PackedShotKernel: Send + Sync {
    /// Runs the 64 shots of group `group` and returns their failure mask.
    fn run_group(&self, group: u64) -> u64;
}

impl<F> PackedShotKernel for F
where
    F: Fn(u64) -> u64 + Send + Sync,
{
    fn run_group(&self, group: u64) -> u64 {
        self(group)
    }
}

/// The two kernel shapes a sweep point can drive: one shot per call, or a
/// packed 64-shot group per call.
enum KernelImpl {
    PerShot(Box<dyn ShotKernel>),
    Packed(Box<dyn PackedShotKernel>),
}

/// One parameter point of a sweep: a stable identifier plus a boxed shot
/// kernel.
pub struct SweepPoint {
    id: String,
    kernel: KernelImpl,
}

impl fmt::Debug for SweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepPoint").field("id", &self.id).finish()
    }
}

impl SweepPoint {
    /// Wraps an arbitrary kernel.  The `id` keys checkpoint entries and
    /// report rows, so it must be unique within a sweep and stable across
    /// runs.
    pub fn new(id: impl Into<String>, kernel: impl ShotKernel + 'static) -> Self {
        Self {
            id: id.into(),
            kernel: KernelImpl::PerShot(Box::new(kernel)),
        }
    }

    /// Wraps a packed 64-shot-group kernel.  Scheduling, checkpointing and
    /// convergence work in shots exactly as for [`SweepPoint::new`]; the
    /// engine maps each scheduled stream range onto the groups that cover
    /// it and masks out-of-range lanes.
    pub fn new_packed(id: impl Into<String>, kernel: impl PackedShotKernel + 'static) -> Self {
        Self {
            id: id.into(),
            kernel: KernelImpl::Packed(Box::new(kernel)),
        }
    }

    /// A point whose shots run a single-patch memory experiment: stream
    /// `s` replays [`MemoryExperiment::run_stream`]`(strategy, base_seed, s)`
    /// with an RNG of type `R`, exactly like
    /// [`MemoryExperiment::estimate_parallel`].
    ///
    /// # Errors
    ///
    /// Returns an error if the configured code distance is invalid.
    pub fn from_memory<R>(
        id: impl Into<String>,
        config: MemoryExperimentConfig,
        strategy: DecodingStrategy,
        base_seed: u64,
    ) -> Result<Self, LatticeError>
    where
        R: Rng + SeedableRng,
    {
        let experiment = MemoryExperiment::new(config)?;
        Ok(Self::new(id, move |stream| {
            experiment
                .run_stream::<R>(strategy, base_seed, stream)
                .logical_failure
        }))
    }

    /// A point whose shots run through the bit-packed batch kernel
    /// ([`crate::PackedShotBatch`]): group `g` simulates streams
    /// `g · 64 .. g · 64 + 64` in one pass of bitwise sampling, packed
    /// parity extraction and quiet-lane-skipping decode.
    ///
    /// Equivalent to [`MemoryExperiment::estimate_packed`] over the same
    /// `(base_seed, shots)`; **not** stream-compatible with
    /// [`SweepPoint::from_memory`] (the packed path has its own group-level
    /// RNG discipline — see [`crate::PackedShotBatch`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the configured code distance is invalid.
    pub fn from_memory_packed<R>(
        id: impl Into<String>,
        config: MemoryExperimentConfig,
        strategy: DecodingStrategy,
        base_seed: u64,
    ) -> Result<Self, LatticeError>
    where
        R: Rng + SeedableRng + 'static,
    {
        let experiment = MemoryExperiment::new(config)?;
        Ok(Self::new_packed(
            id,
            experiment.packed::<R>(strategy, base_seed),
        ))
    }

    /// A point whose shots run a chip-level memory experiment: stream `s`
    /// replays [`ChipMemoryExperiment::run_chip_shot`] and fails when any
    /// patch fails, exactly like
    /// [`ChipMemoryExperiment::estimate_parallel`].
    ///
    /// # Errors
    ///
    /// Returns an error if the chip configuration is invalid.
    pub fn from_chip<R>(
        id: impl Into<String>,
        config: ChipMemoryExperimentConfig,
        strategy: DecodingStrategy,
        base_seed: u64,
    ) -> Result<Self, LatticeError>
    where
        R: Rng + SeedableRng,
    {
        let experiment = ChipMemoryExperiment::new(config)?;
        Ok(Self::new(id, move |stream| {
            let (failures, _struck) = experiment.run_chip_shot::<R>(strategy, base_seed, stream);
            failures.iter().any(|&failed| failed)
        }))
    }

    /// The point's identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Runs the shot of stream index `stream`.
    ///
    /// On a packed point this computes the whole 64-lane group containing
    /// `stream` and extracts one bit — correct but wasteful; batch
    /// schedulers go through [`SweepPoint::run_range`] instead.
    pub fn run(&self, stream: u64) -> bool {
        match &self.kernel {
            KernelImpl::PerShot(kernel) => kernel.run(stream),
            KernelImpl::Packed(kernel) => (kernel.run_group(stream / 64) >> (stream % 64)) & 1 == 1,
        }
    }

    /// Runs the `len` shots of streams `start .. start + len` and returns
    /// the failure count — the engine's batch entry point.
    ///
    /// Per-shot kernels just loop.  Packed kernels run each 64-lane group
    /// overlapping the range once and popcount the in-range lanes, so a
    /// group-aligned batch (the default `batch_size` of 64) costs exactly
    /// one `run_group` call.
    pub fn run_range(&self, start: u64, len: usize) -> usize {
        match &self.kernel {
            KernelImpl::PerShot(kernel) => (0..len)
                .filter(|&offset| kernel.run(start + offset as u64))
                .count(),
            KernelImpl::Packed(kernel) => {
                if len == 0 {
                    return 0;
                }
                let end = start + len as u64;
                let mut failures = 0usize;
                for group in start / 64..=(end - 1) / 64 {
                    let lo = start.saturating_sub(group * 64).min(64) as u32;
                    let hi = (end - group * 64).min(64) as u32;
                    // lanes lo..hi of this group are in range
                    let mask = if hi - lo == 64 {
                        u64::MAX
                    } else {
                        ((1u64 << (hi - lo)) - 1) << lo
                    };
                    failures += (kernel.run_group(group) & mask).count_ones() as usize;
                }
                failures
            }
        }
    }
}

/// Configuration of a [`SweepRunner`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Minimum shots per point before the first convergence check — the
    /// floor that keeps fixed-seed runs reproducible and stops no point on
    /// noise.  Clamped into `1..=shot_ceiling`.
    pub shot_floor: usize,
    /// Maximum shots per point (the budget of a point that never
    /// converges; in fixed mode, simply *the* shot count).
    pub shot_ceiling: usize,
    /// Adaptive stopping target: a point stops once the relative Wilson
    /// half-width of its tally is at most this value.  `None` disables
    /// adaptive stopping (every point runs to `shot_ceiling`).
    pub target_rse: Option<f64>,
    /// The `z` quantile of the Wilson interval (default [`Z_95`]).
    pub confidence_z: f64,
    /// Work-stealing granularity: shots per scheduled batch.  The default
    /// (64) matches the packed kernels' group width, so a packed point
    /// computes each group exactly once; any value works for any kernel —
    /// tallies are batch-size-independent either way.
    pub batch_size: usize,
    /// Worker threads; `None` uses [`std::thread::available_parallelism`].
    pub num_threads: Option<usize>,
    /// Checkpoint file: the sweep's [`ShardPlan`] rebased on its committed
    /// tallies, written after every completed block and loaded by
    /// [`SweepConfig::resume`].
    pub checkpoint: Option<PathBuf>,
    /// Whether to resume from an existing checkpoint file (a missing file
    /// is not an error — the sweep just starts fresh).
    pub resume: bool,
}

impl SweepConfig {
    /// A fixed-shot sweep: every point runs exactly `shots` shots.
    ///
    /// The shot floor is set to `min(shots, 64)` — with no stopping target
    /// it never ends a point early, it only sizes the first scheduling
    /// block, so long fixed sweeps checkpoint progressively (after 64, 128,
    /// 256, … shots per point) instead of only at completion, and a
    /// finished sweep can be extended by resuming with a larger `shots`
    /// (both runs need the same floor, i.e. `shots >= 64` in both, for the
    /// checkpoint to match).
    pub fn fixed(shots: usize) -> Self {
        Self {
            shot_floor: shots.min(64),
            shot_ceiling: shots,
            target_rse: None,
            confidence_z: Z_95,
            batch_size: 64,
            num_threads: None,
            checkpoint: None,
            resume: false,
        }
    }

    /// An adaptive sweep: each point runs at least `floor` and at most
    /// `ceiling` shots, stopping early once its relative Wilson half-width
    /// reaches `target_rse`.
    pub fn adaptive(floor: usize, ceiling: usize, target_rse: f64) -> Self {
        Self {
            shot_floor: floor,
            shot_ceiling: ceiling,
            target_rse: Some(target_rse),
            ..Self::fixed(ceiling)
        }
    }

    /// Sets the checkpoint path, builder style.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Enables or disables resuming, builder style.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Sets the worker-thread count, builder style.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.num_threads = Some(threads);
        self
    }

    /// Sets the batch size, builder style.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// The first block boundary of the schedule (0 for an empty sweep).
    fn first_target(&self) -> usize {
        if self.shot_ceiling == 0 {
            return 0;
        }
        self.shot_floor.clamp(1, self.shot_ceiling)
    }

    /// The block boundary after `current` (doubling, capped at the
    /// ceiling).
    fn next_target(&self, current: usize) -> usize {
        current.saturating_mul(2).min(self.shot_ceiling)
    }

    /// Whether a tally at a block boundary satisfies the stopping rule.
    fn is_converged(&self, shots: usize, failures: usize) -> bool {
        match self.target_rse {
            None => false,
            Some(target) => {
                shots >= self.first_target()
                    && relative_half_width(failures, shots, self.confidence_z) <= target
            }
        }
    }
}

/// The final tally of one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport {
    /// The point's identifier.
    pub id: String,
    /// Shots executed (tally covers streams `0..shots`).
    pub shots: usize,
    /// Logical failures among those shots.
    pub failures: usize,
    /// Whether the point stopped early on the adaptive target (`false`
    /// means it ran to the shot ceiling).
    pub converged: bool,
    /// Shots taken over from a resumed checkpoint (0 for a fresh sweep).
    /// Only the remaining `shots - resumed_shots` were timed in this
    /// process.
    pub resumed_shots: usize,
    /// Summed kernel wall-clock across all worker threads, in seconds
    /// (covers only the `shots - resumed_shots` shots run here).
    pub busy_secs: f64,
    /// The `z` quantile used by [`PointReport::wilson`].
    pub confidence_z: f64,
}

impl PointReport {
    /// The point estimate `failures / shots` (0 for an empty tally).
    pub fn failure_rate(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.failures as f64 / self.shots as f64
    }

    /// The Wilson score interval of the tally.
    pub fn wilson(&self) -> (f64, f64) {
        wilson_interval(self.failures, self.shots, self.confidence_z)
    }

    /// The relative Wilson half-width ([`f64::INFINITY`] for a
    /// zero-failure tally).
    pub fn relative_half_width(&self) -> f64 {
        relative_half_width(self.failures, self.shots, self.confidence_z)
    }

    /// Per-core decoding throughput, shots per busy second, measured over
    /// the shots actually run in this process (checkpoint-resumed shots
    /// carry no timing).  Returns [`f64::NAN`] when no shot ran here (a
    /// fully-resumed point; serialised as `null` in the JSON report) and
    /// [`f64::INFINITY`] when shots ran faster than the timer resolution.
    pub fn shots_per_sec(&self) -> f64 {
        let fresh = self.shots.saturating_sub(self.resumed_shots);
        if self.busy_secs > 0.0 {
            fresh as f64 / self.busy_secs
        } else if fresh > 0 {
            f64::INFINITY
        } else {
            f64::NAN
        }
    }
}

/// Schema version of the `bench_report.json` artifact.  Version 2 renamed
/// the field from `version` to `schema_version` (matching every other
/// engine artifact); readers reject other majors via
/// [`json::check_schema_version`].
pub const REPORT_SCHEMA_VERSION: u64 = 2;

/// The result of a sweep: one [`PointReport`] per point (input order) plus
/// sweep-level timing, serialisable as the `bench_report.json` artifact CI
/// tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-point tallies, in the order the points were submitted.
    pub points: Vec<PointReport>,
    /// End-to-end wall clock of the sweep, in seconds.
    pub wall_clock_secs: f64,
    /// Worker threads used.
    pub threads: usize,
    /// The shot floor of the schedule.
    pub shot_floor: usize,
    /// The shot ceiling of the schedule.
    pub shot_ceiling: usize,
    /// The adaptive stopping target, if any.
    pub target_rse: Option<f64>,
    /// Free-form key/value metadata (seed, binary name, …) embedded in the
    /// JSON report.
    pub meta: Vec<(String, String)>,
}

impl SweepReport {
    /// The report of the point with the given id.
    pub fn point(&self, id: &str) -> Option<&PointReport> {
        self.points.iter().find(|p| p.id == id)
    }

    /// Total shots across all points.
    pub fn total_shots(&self) -> usize {
        self.points.iter().map(|p| p.shots).sum()
    }

    /// Total failures across all points.
    pub fn total_failures(&self) -> usize {
        self.points.iter().map(|p| p.failures).sum()
    }

    /// The report as a JSON document (the `bench_report.json` schema,
    /// version [`REPORT_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "schema_version".into(),
                JsonValue::Number(REPORT_SCHEMA_VERSION as f64),
            ),
            (
                "wall_clock_secs".into(),
                JsonValue::Number(self.wall_clock_secs),
            ),
            ("threads".into(), JsonValue::Number(self.threads as f64)),
            (
                "shot_floor".into(),
                JsonValue::Number(self.shot_floor as f64),
            ),
            (
                "shot_ceiling".into(),
                JsonValue::Number(self.shot_ceiling as f64),
            ),
            (
                "target_rse".into(),
                self.target_rse.map_or(JsonValue::Null, JsonValue::Number),
            ),
            (
                "total_shots".into(),
                JsonValue::Number(self.total_shots() as f64),
            ),
            (
                "meta".into(),
                JsonValue::Object(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::String(v.clone())))
                        .collect(),
                ),
            ),
            (
                "points".into(),
                JsonValue::Array(
                    self.points
                        .iter()
                        .map(|p| {
                            let (low, high) = p.wilson();
                            JsonValue::Object(vec![
                                ("id".into(), JsonValue::String(p.id.clone())),
                                ("shots".into(), JsonValue::Number(p.shots as f64)),
                                ("failures".into(), JsonValue::Number(p.failures as f64)),
                                ("failure_rate".into(), JsonValue::Number(p.failure_rate())),
                                ("wilson_low".into(), JsonValue::Number(low)),
                                ("wilson_high".into(), JsonValue::Number(high)),
                                ("converged".into(), JsonValue::Bool(p.converged)),
                                (
                                    "resumed_shots".into(),
                                    JsonValue::Number(p.resumed_shots as f64),
                                ),
                                ("busy_secs".into(), JsonValue::Number(p.busy_secs)),
                                ("shots_per_sec".into(), JsonValue::Number(p.shots_per_sec())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the JSON report to `path` atomically (via [`write_atomic`]),
    /// so a killed run leaves either the previous report or the new one on
    /// disk — never a truncated document for the CI perf gate to mis-parse.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] when the file cannot be written.
    pub fn write_json(&self, path: &Path) -> Result<(), EngineError> {
        write_atomic(path, &format!("{}\n", self.to_json()))
    }
}

/// Writes `contents` to `path` atomically: the bytes go to a sibling
/// `.tmp` file first and only a successful write is renamed over `path`.
/// A crash mid-write therefore never leaves a truncated file where a
/// previous (complete) version existed — readers observe either the old
/// document or the new one.  Checkpoints ([`ShardPlan::save`]) and
/// reports ([`SweepReport::write_json`]) both persist through this helper;
/// it is public so other JSON-artifact writers (e.g. the service bench)
/// get the same guarantee.
///
/// # Errors
///
/// Returns [`EngineError::Io`] when the temporary file cannot be written
/// or renamed; `path` is untouched in that case.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), EngineError> {
    let io = |source| EngineError::Io {
        path: path.to_path_buf(),
        source,
    };
    let tmp: PathBuf = path.with_extension("tmp");
    std::fs::write(&tmp, contents).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}

/// Reads the JSON document at `path` and converts it with `parse` (an
/// artifact's `from_json`): the read side of [`write_atomic`].
///
/// # Errors
///
/// Returns [`EngineError::Io`] when the file cannot be read and
/// [`EngineError::Parse`] when it is not JSON or `parse` refuses it.
pub fn read_document<T>(
    path: &Path,
    parse: impl FnOnce(&JsonValue) -> Result<T, String>,
) -> Result<T, EngineError> {
    let text = std::fs::read_to_string(path).map_err(|source| EngineError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    JsonValue::parse(&text)
        .and_then(|value| parse(&value))
        .map_err(|message| EngineError::Parse {
            path: path.to_path_buf(),
            message,
        })
}

/// Shared state of an in-process sharded sweep: the coordinator behind a
/// mutex, plus the bookkeeping that orders checkpoint writes and fans
/// commit notifications out to waiting shard workers.
struct LocalHub<'p> {
    config: &'p SweepConfig,
    state: Mutex<LocalState>,
    /// Signalled on every committed block (and on abort) so workers parked
    /// in [`DeltaSink::wait_for_progress`] re-scan their gates.
    progress: Condvar,
    /// Serialises checkpoint file writes without holding the coordinator
    /// lock; holds the epoch of the last snapshot written so a slow older
    /// write can never clobber a newer one.
    checkpoint_io: Mutex<u64>,
}

struct LocalState {
    coordinator: Coordinator,
    /// Bumped on every committed block; lets a waiting worker detect
    /// commits that happened between its gate scan and its wait.
    generation: u64,
    /// Bumped every time a commit produces a checkpoint snapshot; orders
    /// the file writes.
    checkpoint_epoch: u64,
    /// First checkpoint-write failure, surfaced after the run.
    checkpoint_error: Option<EngineError>,
}

/// The [`DeltaSink`] of one in-process shard: submits into the shared
/// coordinator, persists a checkpoint after every committed block, and
/// blocks on the hub's condvar when its shard is ahead of the commit
/// frontier (adaptive mode's zero-overshoot gate).
struct LocalSink<'p> {
    hub: &'p LocalHub<'p>,
    /// The hub generation observed when this sink last woke up; waiting is
    /// skipped whenever a commit happened since (no missed wake-ups).
    seen_generation: u64,
}

impl LocalSink<'_> {
    fn abort_error() -> EngineError {
        EngineError::CheckpointMismatch {
            reason: "sweep aborted after a checkpoint write failure".into(),
        }
    }
}

impl DeltaSink for LocalSink<'_> {
    fn submit(&mut self, delta: TallyDelta) -> Result<(), EngineError> {
        let mut state = self.hub.state.lock().expect("engine lock poisoned");
        if state.checkpoint_error.is_some() {
            return Err(Self::abort_error());
        }
        let outcome = state.coordinator.submit(&delta)?;
        if !outcome.committed {
            return Ok(());
        }
        state.generation += 1;
        self.hub.progress.notify_all();
        let Some(path) = self.hub.config.checkpoint.as_deref() else {
            return Ok(());
        };
        // Snapshot under the coordinator lock (a small Vec clone), then
        // serialise and write the file outside it so disk latency never
        // stalls the other workers.
        state.checkpoint_epoch += 1;
        let epoch = state.checkpoint_epoch;
        let snapshot = state.coordinator.checkpoint();
        drop(state);
        let mut last_written = self
            .hub
            .checkpoint_io
            .lock()
            .expect("checkpoint lock poisoned");
        if epoch > *last_written {
            if let Err(error) = snapshot.save(path) {
                let mut state = self.hub.state.lock().expect("engine lock poisoned");
                state.checkpoint_error.get_or_insert(error);
                // Wake every waiting worker so the sweep aborts promptly
                // (the user asked for durability; silently losing it — or
                // computing for hours only to discard the tallies at the
                // end — would both be worse).
                self.hub.progress.notify_all();
                return Err(Self::abort_error());
            }
            *last_written = epoch;
        }
        Ok(())
    }

    fn gate(&mut self, point: usize, epoch: usize) -> Result<EpochGate, EngineError> {
        let state = self.hub.state.lock().expect("engine lock poisoned");
        if state.checkpoint_error.is_some() {
            return Err(Self::abort_error());
        }
        Ok(state.coordinator.gate(point, epoch))
    }

    fn wait_for_progress(&mut self) -> Result<(), EngineError> {
        let mut state = self.hub.state.lock().expect("engine lock poisoned");
        // `seen_generation` was recorded before the gate scan that found
        // nothing runnable, so any commit since then — during the scan or
        // right now — returns immediately instead of sleeping through the
        // wake-up.
        while state.generation == self.seen_generation {
            if state.checkpoint_error.is_some() {
                return Err(Self::abort_error());
            }
            if state.coordinator.all_finished() {
                break;
            }
            state = self.hub.progress.wait(state).expect("engine lock poisoned");
        }
        if state.checkpoint_error.is_some() {
            return Err(Self::abort_error());
        }
        self.seen_generation = state.generation;
        Ok(())
    }
}

/// The sweep scheduler: runs a grid of [`SweepPoint`]s under a
/// [`SweepConfig`].  See the [module docs](self) for the scheduling model.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    config: SweepConfig,
}

impl SweepRunner {
    /// Creates a runner.  A zero `shot_ceiling` is allowed and yields
    /// empty tallies (every point finishes immediately).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero, if an explicit thread count is
    /// zero, or if a `target_rse` is not positive.
    pub fn new(config: SweepConfig) -> Self {
        assert!(config.batch_size > 0, "batch_size must be positive");
        assert!(
            config.num_threads != Some(0),
            "num_threads must be positive"
        );
        if let Some(rse) = config.target_rse {
            assert!(rse > 0.0, "target_rse must be positive");
        }
        Self { config }
    }

    /// The runner's configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Runs the sweep to completion and returns the per-point tallies.
    ///
    /// The runner is an in-process instance of the shard protocol: it
    /// builds a [`ShardPlan`] with one shard per worker thread, drives a
    /// [`ShardWorker`] per thread against a shared local [`Coordinator`],
    /// and takes the final report from the coordinator's merge — the same
    /// code path the `q3de-sweepd`/`q3de-sweepctl` fabric runs across
    /// processes and machines, which is why a distributed sweep is
    /// bit-identical to this one.
    ///
    /// # Errors
    ///
    /// Returns an error when an existing checkpoint cannot be read, does
    /// not belong to this sweep, or cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if two points share an id, or if a worker thread (i.e. a
    /// shot kernel) panics.
    pub fn run(&self, points: Vec<SweepPoint>) -> Result<SweepReport, EngineError> {
        let config = &self.config;
        for (i, a) in points.iter().enumerate() {
            for b in &points[..i] {
                assert!(a.id() != b.id(), "duplicate sweep point id '{}'", a.id());
            }
        }
        let baselines = self.load_checkpoint(&points)?;

        let threads = config
            .num_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1);

        let plan = ShardPlan::new(config, &points, baselines.as_deref(), threads);
        let hub = LocalHub {
            config,
            state: Mutex::new(LocalState {
                coordinator: Coordinator::new(plan.clone()),
                generation: 0,
                checkpoint_epoch: 0,
                checkpoint_error: None,
            }),
            progress: Condvar::new(),
            checkpoint_io: Mutex::new(0),
        };

        let start = Instant::now();
        // Probe the checkpoint path up front (and persist the starting
        // state): an unwritable path fails here, before any shot runs,
        // instead of after hours of compute.
        if let Some(path) = config.checkpoint.as_deref() {
            let state = hub.state.lock().expect("engine lock poisoned");
            state.coordinator.checkpoint().save(path)?;
        }
        let has_work = {
            let state = hub.state.lock().expect("engine lock poisoned");
            !state.coordinator.all_finished()
        };
        if has_work {
            let worker_errors: Vec<EngineError> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|shard| {
                        let plan = &plan;
                        let points = &points;
                        let hub = &hub;
                        scope.spawn(move || {
                            let mut sink = LocalSink {
                                hub,
                                seen_generation: 0,
                            };
                            ShardWorker::new(plan, shard).run(points, &[], &mut sink)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .filter_map(|handle| handle.join().expect("sweep worker panicked").err())
                    .collect()
            });
            let mut state = hub.state.lock().expect("engine lock poisoned");
            if let Some(error) = state.checkpoint_error.take() {
                return Err(error);
            }
            if let Some(error) = worker_errors.into_iter().next() {
                return Err(error);
            }
            drop(state);
        }
        let wall_clock_secs = start.elapsed().as_secs_f64();

        let state = hub.state.into_inner().expect("engine lock poisoned");
        state.coordinator.report(wall_clock_secs, threads)
    }

    /// Loads and validates the checkpoint configured for this sweep, if
    /// resuming, and returns its baselines: the committed `(shots,
    /// failures)` of every point, in sweep order.
    ///
    /// The checkpoint must carry this sweep's point ids (in order), shot
    /// floor, stopping target and confidence quantile — everything that
    /// decides which streams a tally is made of and where block boundaries
    /// fall.  The shot *ceiling* may differ, so a finished sweep can be
    /// extended with a larger budget (in adaptive mode the extension's
    /// convergence look-points continue from the resumed count rather than
    /// replaying a fresh schedule — see the module docs).  The batch size
    /// and the shard (thread) count may differ too, and provably so: a
    /// committed tally is a pure function of its stream prefix `0..shots`,
    /// and block boundaries depend only on the floor and ceiling (pinned by
    /// `checkpoints_resume_across_batch_sizes_and_thread_counts`).
    fn load_checkpoint(
        &self,
        points: &[SweepPoint],
    ) -> Result<Option<Vec<(usize, usize)>>, EngineError> {
        let Some(path) = self.config.checkpoint.as_deref() else {
            return Ok(None);
        };
        if !self.config.resume || !path.exists() {
            return Ok(None);
        }
        let saved = ShardPlan::load(path)?;
        let expected = ShardPlan::new(&self.config, points, None, 1);
        let mismatch = |reason: String| Err(EngineError::CheckpointMismatch { reason });
        let ids = |plan: &ShardPlan| -> Vec<String> {
            plan.points.iter().map(|p| p.id.clone()).collect()
        };
        if ids(&saved) != ids(&expected) {
            return mismatch(format!(
                "checkpoint points {:?} are not this sweep's {:?}",
                ids(&saved),
                ids(&expected)
            ));
        }
        let schedule = |plan: &ShardPlan| (plan.shot_floor, plan.target_rse, plan.confidence_z);
        if schedule(&saved) != schedule(&expected) {
            return mismatch(format!(
                "checkpoint (floor, target, z) {:?} is not this sweep's {:?}",
                schedule(&saved),
                schedule(&expected)
            ));
        }
        // Any resumed shot count up to the ceiling is accepted as the
        // point's current block boundary (the schedule continues doubling
        // from it): checkpoints of *this* schedule are always at its own
        // boundaries, which preserves bit-identity with an uninterrupted
        // run, while checkpoints of a smaller finished sweep land wherever
        // its old ceiling was and simply extend.
        if let Some(point) = saved
            .points
            .iter()
            .find(|p| p.base_shots > self.config.shot_ceiling)
        {
            return mismatch(format!(
                "point '{}' already has {} shots, above the ceiling {}",
                point.id, point.base_shots, self.config.shot_ceiling
            ));
        }
        Ok(Some(saved.baselines()))
    }
}

/// Whether `shots` is one of the schedule's block boundaries
/// (`floor, 2·floor, 4·floor, …, ceiling`).
#[cfg(test)]
fn is_block_boundary(config: &SweepConfig, shots: usize) -> bool {
    let mut boundary = config.first_target();
    loop {
        if shots == boundary {
            return true;
        }
        if shots < boundary || boundary == config.shot_ceiling {
            return false;
        }
        boundary = config.next_target(boundary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A deterministic toy kernel: stream hash against a threshold.
    fn noisy_kernel(rate_per_64: u64) -> impl Fn(u64) -> bool + Send + Sync {
        move |stream| stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 64 < rate_per_64
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("q3de-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn fixed_sweep_runs_every_stream_exactly_once() {
        let executed = Arc::new(AtomicUsize::new(0));
        let executed_in = Arc::clone(&executed);
        let points = vec![SweepPoint::new("count", move |stream: u64| {
            executed_in.fetch_add(1, Ordering::SeqCst);
            stream < 10
        })];
        let report = SweepRunner::new(SweepConfig::fixed(101).with_batch_size(7))
            .run(points)
            .unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), 101);
        let point = report.point("count").unwrap();
        assert_eq!((point.shots, point.failures), (101, 10));
        assert!(!point.converged);
        assert_eq!(report.total_shots(), 101);
        assert_eq!(report.total_failures(), 10);
    }

    #[test]
    fn results_are_independent_of_thread_count_and_batch_size() {
        let run = |threads: usize, batch: usize| {
            let points = vec![
                SweepPoint::new("a", noisy_kernel(13)),
                SweepPoint::new("b", noisy_kernel(3)),
                SweepPoint::new("c", noisy_kernel(0)),
            ];
            let config = SweepConfig::adaptive(32, 512, 0.2)
                .with_threads(threads)
                .with_batch_size(batch);
            let report = SweepRunner::new(config).run(points).unwrap();
            report
                .points
                .iter()
                .map(|p| (p.id.clone(), p.shots, p.failures, p.converged))
                .collect::<Vec<_>>()
        };
        let reference = run(1, 32);
        assert_eq!(run(4, 32), reference);
        assert_eq!(run(3, 5), reference);
        assert_eq!(run(8, 100), reference);
    }

    #[test]
    fn adaptive_mode_stops_converged_points_early_and_rare_points_late() {
        let points = vec![
            SweepPoint::new("common", noisy_kernel(32)), // rate 0.5: converges fast
            SweepPoint::new("never", noisy_kernel(0)),   // no failures: runs to ceiling
        ];
        let report = SweepRunner::new(SweepConfig::adaptive(64, 4096, 0.25))
            .run(points)
            .unwrap();
        let common = report.point("common").unwrap();
        let never = report.point("never").unwrap();
        assert!(common.converged);
        assert!(common.shots < 4096, "converged point stopped at floor-ish");
        assert!(!never.converged);
        assert_eq!(never.shots, 4096, "zero-failure point must hit the ceiling");
        assert!(never.relative_half_width().is_infinite());
    }

    #[test]
    fn adaptive_tally_is_a_prefix_of_the_fixed_tally() {
        // The adaptive run executes streams 0..n for some boundary n, so
        // its tally must equal the fixed run's tally restricted to 0..n.
        let kernel = noisy_kernel(8);
        let adaptive = SweepRunner::new(SweepConfig::adaptive(32, 2048, 0.3))
            .run(vec![SweepPoint::new("p", noisy_kernel(8))])
            .unwrap();
        let point = adaptive.point("p").unwrap();
        let expected = (0..point.shots as u64).filter(|&s| kernel(s)).count();
        assert_eq!(point.failures, expected);
        assert!(is_block_boundary(
            &SweepConfig::adaptive(32, 2048, 0.3),
            point.shots
        ));
    }

    #[test]
    fn checkpointed_sweep_resumes_bit_identically() {
        let path = temp_path("resume.json");
        let _ = std::fs::remove_file(&path);
        let make_points = || {
            vec![
                SweepPoint::new("a", noisy_kernel(6)),
                SweepPoint::new("b", noisy_kernel(1)),
            ]
        };
        // Uninterrupted reference: 512 shots per point, floor 64.
        let full_config = SweepConfig {
            shot_floor: 64,
            ..SweepConfig::fixed(512)
        };
        let reference = SweepRunner::new(full_config.clone())
            .run(make_points())
            .unwrap();
        // "Killed" run: same floor, ceiling 64 → checkpoint at the first
        // boundary, then resume with the full ceiling.
        let partial = SweepConfig {
            shot_floor: 64,
            ..SweepConfig::fixed(64)
        }
        .with_checkpoint(&path);
        SweepRunner::new(partial).run(make_points()).unwrap();
        let resumed = SweepRunner::new(full_config.with_checkpoint(&path).with_resume(true))
            .run(make_points())
            .unwrap();
        for (r, f) in resumed.points.iter().zip(&reference.points) {
            assert_eq!(
                (r.id.as_str(), r.shots, r.failures),
                (f.id.as_str(), f.shots, f.failures)
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoints_resume_across_batch_sizes_and_thread_counts() {
        // A checkpoint need not match `batch_size` or the thread/shard
        // count: a committed tally is a pure function of its stream prefix
        // `0..shots` and block boundaries depend only on the floor and
        // ceiling, so a checkpoint written under one batch/thread setting
        // must resume bit-identically under any other.  This is the proof
        // `SweepRunner::load_checkpoint`'s doc promises.
        let path = temp_path("xbatch.json");
        let _ = std::fs::remove_file(&path);
        let full = SweepConfig {
            shot_floor: 64,
            ..SweepConfig::fixed(512)
        };
        let reference = SweepRunner::new(full.clone())
            .run(vec![SweepPoint::new("a", noisy_kernel(6))])
            .unwrap();
        // Partial run with batch 7 on 1 thread …
        let partial = SweepConfig {
            shot_floor: 64,
            ..SweepConfig::fixed(128)
        }
        .with_batch_size(7)
        .with_threads(1)
        .with_checkpoint(&path);
        SweepRunner::new(partial)
            .run(vec![SweepPoint::new("a", noisy_kernel(6))])
            .unwrap();
        // … resumed with batch 100 on 3 threads.
        let resumed = SweepRunner::new(
            full.with_batch_size(100)
                .with_threads(3)
                .with_checkpoint(&path)
                .with_resume(true),
        )
        .run(vec![SweepPoint::new("a", noisy_kernel(6))])
        .unwrap();
        let (r, f) = (resumed.point("a").unwrap(), reference.point("a").unwrap());
        assert_eq!((r.shots, r.failures), (f.shots, f.failures));
        assert_eq!(r.resumed_shots, 128);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_shot_sweeps_finish_immediately_with_empty_tallies() {
        let report = SweepRunner::new(SweepConfig::fixed(0))
            .run(vec![SweepPoint::new("x", noisy_kernel(6))])
            .unwrap();
        let point = report.point("x").unwrap();
        assert_eq!((point.shots, point.failures), (0, 0));
        assert_eq!(point.failure_rate(), 0.0);
        assert!(!point.converged);
    }

    #[test]
    fn unwritable_checkpoint_path_fails_before_any_shot_runs() {
        let executed = Arc::new(AtomicUsize::new(0));
        let executed_in = Arc::clone(&executed);
        let config =
            SweepConfig::fixed(64).with_checkpoint("/nonexistent-q3de-dir/checkpoint.json");
        let err = SweepRunner::new(config)
            .run(vec![SweepPoint::new("x", move |stream: u64| {
                executed_in.fetch_add(1, Ordering::SeqCst);
                noisy_kernel(6)(stream)
            })])
            .unwrap_err();
        assert!(matches!(err, EngineError::Io { .. }), "{err}");
        assert_eq!(
            executed.load(Ordering::SeqCst),
            0,
            "the up-front probe must fail before any kernel runs"
        );
    }

    #[test]
    fn finished_sweep_extends_from_a_non_aligned_ceiling() {
        // fixed(100) checkpoints its final tally at 100 shots — not a
        // boundary of the fixed(250) schedule (64, 128, 250) — and resuming
        // with the larger budget must still work and match a fresh run.
        let path = temp_path("extend.json");
        let _ = std::fs::remove_file(&path);
        SweepRunner::new(SweepConfig::fixed(100).with_checkpoint(&path))
            .run(vec![SweepPoint::new("a", noisy_kernel(6))])
            .unwrap();
        let extended = SweepRunner::new(
            SweepConfig::fixed(250)
                .with_checkpoint(&path)
                .with_resume(true),
        )
        .run(vec![SweepPoint::new("a", noisy_kernel(6))])
        .unwrap();
        let fresh = SweepRunner::new(SweepConfig::fixed(250))
            .run(vec![SweepPoint::new("a", noisy_kernel(6))])
            .unwrap();
        let (e, f) = (extended.point("a").unwrap(), fresh.point("a").unwrap());
        assert_eq!((e.shots, e.failures), (f.shots, f.failures));
        assert_eq!(e.resumed_shots, 100);
        assert_eq!(f.resumed_shots, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let path = temp_path("mismatch.json");
        // Foreign plans: other point ids, other floor, a stopping target,
        // another quantile, and a tally above this sweep's ceiling.
        let foreign = [
            (SweepConfig::fixed(128), "b", 64),
            (
                SweepConfig {
                    shot_floor: 32,
                    ..SweepConfig::fixed(128)
                },
                "a",
                64,
            ),
            (SweepConfig::adaptive(64, 128, 0.2), "a", 64),
            (
                SweepConfig {
                    confidence_z: 3.0,
                    ..SweepConfig::fixed(128)
                },
                "a",
                64,
            ),
            (SweepConfig::fixed(256), "a", 256),
        ];
        let resume = |config: SweepConfig, id: &str, shots: usize| {
            let points = [SweepPoint::new(id, noisy_kernel(1))];
            ShardPlan::new(&config, &points, Some(&[(shots, 1)]), 1)
                .save(&path)
                .unwrap();
            let config = SweepConfig::fixed(128)
                .with_checkpoint(&path)
                .with_resume(true);
            SweepRunner::new(config).run(vec![SweepPoint::new("a", noisy_kernel(1))])
        };
        for (config, id, shots) in foreign {
            let err = resume(config, id, shots).unwrap_err();
            assert!(
                matches!(err, EngineError::CheckpointMismatch { .. }),
                "{err}"
            );
        }
        // The control each foreign plan differs from by one field resumes.
        resume(SweepConfig::fixed(128), "a", 64).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fully_complete_checkpoint_resumes_without_rerunning_kernels() {
        let path = temp_path("complete.json");
        let _ = std::fs::remove_file(&path);
        let config = SweepConfig::fixed(64).with_checkpoint(&path);
        SweepRunner::new(config.clone())
            .run(vec![SweepPoint::new("a", noisy_kernel(6))])
            .unwrap();
        let executed = Arc::new(AtomicUsize::new(0));
        let executed_in = Arc::clone(&executed);
        let resumed = SweepRunner::new(config.with_resume(true))
            .run(vec![SweepPoint::new("a", move |stream: u64| {
                executed_in.fetch_add(1, Ordering::SeqCst);
                noisy_kernel(6)(stream)
            })])
            .unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), 0, "no shot may re-run");
        assert_eq!(resumed.point("a").unwrap().shots, 64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memory_point_matches_estimate_parallel() {
        use rand_chacha::ChaCha8Rng;
        let config = MemoryExperimentConfig::new(3, 2e-2);
        let experiment = MemoryExperiment::new(config).unwrap();
        let expected =
            experiment.estimate_parallel::<ChaCha8Rng>(96, DecodingStrategy::MbbeFree, 0xBEEF);
        let report = SweepRunner::new(SweepConfig::fixed(96))
            .run(vec![SweepPoint::from_memory::<ChaCha8Rng>(
                "mem",
                config,
                DecodingStrategy::MbbeFree,
                0xBEEF,
            )
            .unwrap()])
            .unwrap();
        assert_eq!(report.point("mem").unwrap().failures, expected.failures);
    }

    #[test]
    fn packed_memory_point_matches_estimate_packed() {
        use rand_chacha::ChaCha8Rng;
        let config = MemoryExperimentConfig::new(3, 2e-2);
        let experiment = MemoryExperiment::new(config).unwrap();
        // a shot count straddling a group boundary exercises tail masking
        let expected =
            experiment.estimate_packed::<ChaCha8Rng>(150, DecodingStrategy::MbbeFree, 0xBEEF);
        let report = SweepRunner::new(SweepConfig::fixed(150))
            .run(vec![SweepPoint::from_memory_packed::<ChaCha8Rng>(
                "mem_packed",
                config,
                DecodingStrategy::MbbeFree,
                0xBEEF,
            )
            .unwrap()])
            .unwrap();
        assert_eq!(
            report.point("mem_packed").unwrap().failures,
            expected.failures
        );
    }

    #[test]
    fn packed_points_are_batch_size_independent() {
        // A deterministic toy group kernel: the failure mask is a hash of
        // the group index, so any misrouted lane shows up in the tally.
        let group_kernel = |group: u64| group.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ group << 7;
        let reference: u32 = (0..3u64) // 155 shots = 2 full groups + 27 lanes
            .map(|g| {
                let mask = if g == 2 { (1u64 << 27) - 1 } else { u64::MAX };
                (group_kernel(g) & mask).count_ones()
            })
            .sum();
        for (threads, batch) in [(1, 64), (4, 64), (3, 7), (2, 100), (1, 1)] {
            let config = SweepConfig::fixed(155)
                .with_threads(threads)
                .with_batch_size(batch);
            let report = SweepRunner::new(config)
                .run(vec![SweepPoint::new_packed("p", group_kernel)])
                .unwrap();
            assert_eq!(
                report.point("p").unwrap().failures,
                reference as usize,
                "threads {threads} batch {batch}"
            );
        }
    }

    #[test]
    fn packed_point_run_extracts_single_lanes() {
        let group_kernel = |group: u64| group + 1; // bit 0 set in group 0, bit 1 in group 1 …
        let point = SweepPoint::new_packed("p", group_kernel);
        assert!(point.run(0));
        assert!(!point.run(1));
        assert!(point.run(65));
        assert_eq!(
            point.run_range(0, 130),
            (0..130).filter(|&s| point.run(s)).count()
        );
        assert_eq!(point.run_range(70, 0), 0);
        assert_eq!(
            point.run_range(63, 3),
            (63..66).filter(|&s| point.run(s)).count()
        );
    }

    #[test]
    fn chip_point_matches_estimate_parallel() {
        use rand_chacha::ChaCha8Rng;
        let config = ChipMemoryExperimentConfig::new(2, 2, MemoryExperimentConfig::new(3, 2e-2));
        let experiment = ChipMemoryExperiment::new(config).unwrap();
        let expected =
            experiment.estimate_parallel::<ChaCha8Rng>(48, DecodingStrategy::MbbeFree, 0xC41F);
        let report = SweepRunner::new(SweepConfig::fixed(48))
            .run(vec![SweepPoint::from_chip::<ChaCha8Rng>(
                "chip",
                config,
                DecodingStrategy::MbbeFree,
                0xC41F,
            )
            .unwrap()])
            .unwrap();
        assert_eq!(
            report.point("chip").unwrap().failures,
            expected.chip_failures
        );
    }

    #[test]
    fn report_serialises_and_reparses() {
        let report = SweepRunner::new(SweepConfig::fixed(40))
            .run(vec![SweepPoint::new("x", noisy_kernel(10))])
            .unwrap();
        let json = report.to_json();
        let text = json.to_string();
        let parsed = JsonValue::parse(&text).unwrap();
        let points = parsed.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get("id").unwrap().as_str(), Some("x"));
        assert_eq!(
            points[0].get("shots").unwrap().as_usize(),
            Some(report.points[0].shots)
        );
        assert_eq!(
            parsed.get("schema_version").unwrap().as_usize(),
            Some(REPORT_SCHEMA_VERSION as usize)
        );
        json::check_schema_version(&parsed, REPORT_SCHEMA_VERSION, "report").unwrap();
    }

    #[test]
    fn report_write_is_atomic_never_partial() {
        // A pre-existing report must stay intact when a new write cannot
        // complete: the writer goes through a sibling `.tmp` file, so a
        // failure before the rename leaves the old document untouched
        // (readers see old or new, never a truncated hybrid).  Blocking the
        // temporary path with a directory forces exactly that failure.
        let path = temp_path("atomic_report.json");
        let tmp = path.with_extension("tmp");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&tmp);
        let report = SweepRunner::new(SweepConfig::fixed(32))
            .run(vec![SweepPoint::new("x", noisy_kernel(10))])
            .unwrap();
        report.write_json(&path).unwrap();
        let old = std::fs::read_to_string(&path).unwrap();
        JsonValue::parse(&old).expect("the first report must be complete");

        std::fs::create_dir_all(&tmp).unwrap(); // sabotage the tmp slot
        let err = report.write_json(&path).unwrap_err();
        assert!(matches!(err, EngineError::Io { .. }), "{err}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            old,
            "a failed write must leave the previous report byte-identical"
        );

        std::fs::remove_dir_all(&tmp).unwrap();
        report.write_json(&path).unwrap(); // and a clean retry succeeds
        JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate sweep point id")]
    fn duplicate_ids_are_rejected() {
        let _ = SweepRunner::new(SweepConfig::fixed(1)).run(vec![
            SweepPoint::new("same", noisy_kernel(1)),
            SweepPoint::new("same", noisy_kernel(1)),
        ]);
    }

    #[test]
    fn block_boundaries_double_from_the_floor() {
        let config = SweepConfig::adaptive(50, 500, 0.1);
        for boundary in [50usize, 100, 200, 400, 500] {
            assert!(is_block_boundary(&config, boundary), "{boundary}");
        }
        for not in [1usize, 49, 51, 99, 300, 499] {
            assert!(!is_block_boundary(&config, not), "{not}");
        }
    }
}

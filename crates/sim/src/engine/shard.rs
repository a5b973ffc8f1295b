//! Shard-first sweep primitives: deterministic stream partitions and
//! mergeable tally deltas.
//!
//! A sweep's statistics are a pure function of *which streams ran*, never of
//! where or in what order they ran (every [`ShotKernel`](super::ShotKernel)
//! is deterministic in its stream index).  This module exploits that to
//! split one sweep across N workers — threads, processes or machines — so
//! that the merged result is **bit-identical to a single-process run by
//! construction**:
//!
//! * a [`ShardPlan`] partitions every scheduling block (the doubling
//!   `floor, 2·floor, …, ceiling` blocks of the adaptive schedule) into
//!   `num_shards` disjoint, contiguous stream ranges — shard `k` owns the
//!   same slice of every block of every point, deterministically;
//! * a worker runs its slices and emits one [`TallyDelta`] per
//!   `(point, epoch)` block, carrying the plan fingerprint and the block
//!   epoch so a coordinator can refuse stale shards and re-assemble blocks
//!   exactly;
//! * the [`Coordinator`](super::coordinator::Coordinator) folds deltas —
//!   an associative, commutative merge — and makes the adaptive stop
//!   decision only at completed block boundaries, exactly where a
//!   single-process [`SweepRunner`](super::SweepRunner) would.
//!
//! [`SweepRunner`](super::SweepRunner) itself is an instance of this
//! protocol (N in-process shards, one in-process coordinator); the
//! `q3de-sweepd`/`q3de-sweepctl` binaries are the same protocol over delta
//! files.
//!
//! A plan is also the one persisted form of sweep progress: a checkpoint
//! is the sweep's plan with every point's baseline set to its committed
//! tally ([`Coordinator::checkpoint`](super::coordinator::Coordinator::checkpoint)),
//! saved with [`ShardPlan::save`].  `SweepRunner --checkpoint` and
//! `q3de-sweepctl merge --checkpoint` both write it; a single-process `--resume` and `q3de-sweepctl resume` both read
//! its baselines.

use std::path::Path;

use super::json::JsonValue;
use super::{EngineError, SweepConfig, SweepPoint};

/// Schema version of plan, shard and delta documents.  Folded into
/// [`ShardPlan::fingerprint`], so a worker built against a different major
/// is refused at merge time instead of silently mis-merging.
pub const PLAN_SCHEMA_VERSION: u64 = 1;

/// One point of a [`ShardPlan`]: its stable id plus the tally baseline the
/// schedule continues from (non-zero when the plan extends a resumed
/// checkpoint; in a checkpoint, the point's committed tally).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanPoint {
    /// The sweep point's stable identifier.
    pub id: String,
    /// Shots already committed before this plan's first block: the tally
    /// covers exactly the streams `0..base_shots`.
    pub base_shots: usize,
    /// Failures among the baseline shots.
    pub base_failures: usize,
}

/// A deterministic partition of a sweep's stream-ID space across
/// `num_shards` disjoint, resumable shards.
///
/// The plan is pure data (ids and schedule parameters, no kernels), so a
/// coordinator can merge deltas without being able to *run* anything, and a
/// worker on another machine can rebuild the identical plan from the same
/// configuration and verify it via [`ShardPlan::fingerprint`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Number of shards the stream space is split into.
    pub num_shards: usize,
    /// Alignment of shard cut points (shard slices start at multiples of
    /// this within a block where possible), matching the packed kernels'
    /// 64-lane groups so a group is computed by one shard only.
    pub batch_size: usize,
    /// First block boundary of every point's schedule.
    pub shot_floor: usize,
    /// Shot budget per point.
    pub shot_ceiling: usize,
    /// Adaptive stopping target, if any.
    pub target_rse: Option<f64>,
    /// The `z` quantile of the Wilson stopping interval.
    pub confidence_z: f64,
    /// The points of the sweep, in sweep order.
    pub points: Vec<PlanPoint>,
}

impl ShardPlan {
    /// Builds the plan of a sweep: `config`'s schedule over `points`,
    /// continuing from `baselines` (committed `(shots, failures)` per
    /// point; pass `None` for a fresh sweep), split into `num_shards`.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `baselines` has the wrong length.
    pub fn new(
        config: &SweepConfig,
        points: &[SweepPoint],
        baselines: Option<&[(usize, usize)]>,
        num_shards: usize,
    ) -> Self {
        assert!(num_shards > 0, "a plan needs at least one shard");
        if let Some(baselines) = baselines {
            assert_eq!(baselines.len(), points.len(), "one baseline per point");
        }
        Self {
            num_shards,
            batch_size: config.batch_size,
            shot_floor: config.first_target(),
            shot_ceiling: config.shot_ceiling,
            target_rse: config.target_rse,
            confidence_z: config.confidence_z,
            points: points
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let (base_shots, base_failures) =
                        baselines.map_or((0, 0), |baselines| baselines[i]);
                    PlanPoint {
                        id: p.id().to_string(),
                        base_shots,
                        base_failures,
                    }
                })
                .collect(),
        }
    }

    /// The sweep configuration the plan's schedule was derived from
    /// (without checkpoint/thread settings, which are per-process).
    pub fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            shot_floor: self.shot_floor,
            shot_ceiling: self.shot_ceiling,
            target_rse: self.target_rse,
            confidence_z: self.confidence_z,
            batch_size: self.batch_size,
            num_threads: None,
            checkpoint: None,
            resume: false,
        }
    }

    /// The fingerprint every [`TallyDelta`] of this plan carries.  It folds
    /// the schema version, the full schedule (floor, ceiling, target,
    /// quantile), the shard layout (`num_shards`, `batch_size` — slice cuts
    /// depend on both) and every point's id and baseline, so deltas from a
    /// stale plan — different shard count, different resumed state,
    /// different points — are refused cleanly instead of silently merged.
    pub fn fingerprint(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| format!("{}={}+{}", p.id, p.base_shots, p.base_failures))
            .collect();
        format!(
            "plan-v{PLAN_SCHEMA_VERSION};shards={};batch={};floor={};ceiling={};rse={:?};z={};points={}",
            self.num_shards,
            self.batch_size,
            self.shot_floor,
            self.shot_ceiling,
            self.target_rse,
            self.confidence_z,
            points.join("\u{1f}")
        )
    }

    /// The block boundary the point's tally reaches after committing epoch
    /// `epoch` (the schedule doubles from the baseline: `b0` is the floor
    /// for a fresh point or `min(2·base, ceiling)` for a resumed one, then
    /// each boundary doubles up to the ceiling).
    ///
    /// Returns `None` when the point has no such epoch (its baseline is
    /// already at or above the ceiling, or the schedule ended earlier).
    pub fn boundary(&self, point: usize, epoch: usize) -> Option<usize> {
        let config = self.sweep_config();
        let base = self.points[point].base_shots;
        if base >= self.shot_ceiling || self.shot_ceiling == 0 {
            return None;
        }
        let mut boundary = if base == 0 {
            config.first_target()
        } else {
            config.next_target(base)
        };
        for _ in 0..epoch {
            if boundary >= self.shot_ceiling {
                return None;
            }
            boundary = config.next_target(boundary);
        }
        Some(boundary)
    }

    /// The stream range `[start, end)` of block `epoch` of `point`.
    pub fn epoch_range(&self, point: usize, epoch: usize) -> Option<(u64, u64)> {
        let end = self.boundary(point, epoch)?;
        let start = if epoch == 0 {
            self.points[point].base_shots
        } else {
            self.boundary(point, epoch - 1)?
        };
        Some((start as u64, end as u64))
    }

    /// Number of epochs in `point`'s schedule (0 when the baseline already
    /// covers the ceiling).
    pub fn num_epochs(&self, point: usize) -> usize {
        let mut epochs = 0;
        while self.boundary(point, epochs).is_some() {
            epochs += 1;
        }
        epochs
    }

    /// The contiguous sub-range of `[start, end)` owned by `shard`: the
    /// `num_shards` slices are disjoint, cover the range exactly, and cut
    /// points snap to absolute multiples of `batch_size` where possible (so
    /// a packed kernel's 64-lane group is computed by one shard only).
    /// Slices of a small range may be empty.
    pub fn shard_slice(&self, range: (u64, u64), shard: usize) -> (u64, u64) {
        assert!(shard < self.num_shards, "shard index out of range");
        let (start, end) = range;
        let len = end - start;
        let n = self.num_shards as u64;
        let batch = self.batch_size as u64;
        let cut = |i: u64| -> u64 {
            if i == 0 {
                return start;
            }
            if i == n {
                return end;
            }
            let ideal = start + (len * i) / n;
            // Snap down to the batch grid, but never below the range start.
            ((ideal / batch) * batch).clamp(start, end)
        };
        (cut(shard as u64), cut(shard as u64 + 1))
    }

    /// Index of the point with the given id.
    pub fn point_index(&self, id: &str) -> Option<usize> {
        self.points.iter().position(|p| p.id == id)
    }

    /// Every point's baseline `(base_shots, base_failures)`, in plan order:
    /// the committed tallies a resumed sweep continues from.
    pub fn baselines(&self) -> Vec<(usize, usize)> {
        self.points
            .iter()
            .map(|p| (p.base_shots, p.base_failures))
            .collect()
    }

    /// Saves the plan to `path` atomically (via [`super::write_atomic`]), so
    /// a crash mid-write never corrupts an existing checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), EngineError> {
        super::write_atomic(path, &format!("{}\n", self.to_json()))
    }

    /// Loads a plan (a checkpoint) from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] when the file cannot be read and
    /// [`EngineError::Parse`] when it is not a valid plan document.
    pub fn load(path: &Path) -> Result<Self, EngineError> {
        super::read_document(path, Self::from_json)
    }

    /// The plan as a JSON document (the body of a `plan.json` artifact).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "schema_version".into(),
                JsonValue::Number(PLAN_SCHEMA_VERSION as f64),
            ),
            (
                "num_shards".into(),
                JsonValue::Number(self.num_shards as f64),
            ),
            (
                "batch_size".into(),
                JsonValue::Number(self.batch_size as f64),
            ),
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
            ("confidence_z".into(), JsonValue::Number(self.confidence_z)),
            (
                "points".into(),
                JsonValue::Array(
                    self.points
                        .iter()
                        .map(|p| {
                            JsonValue::Object(vec![
                                ("id".into(), JsonValue::String(p.id.clone())),
                                ("base_shots".into(), JsonValue::Number(p.base_shots as f64)),
                                (
                                    "base_failures".into(),
                                    JsonValue::Number(p.base_failures as f64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a plan from its JSON document, rejecting unknown schema
    /// majors with a clear error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        super::json::check_schema_version(value, PLAN_SCHEMA_VERSION, "shard plan")?;
        let usize_field = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| format!("plan missing {key}"))
        };
        let points = value
            .get("points")
            .and_then(JsonValue::as_array)
            .ok_or("plan missing points")?
            .iter()
            .map(|p| {
                let point = PlanPoint {
                    id: p
                        .get("id")
                        .and_then(JsonValue::as_str)
                        .ok_or("plan point missing id")?
                        .to_string(),
                    base_shots: p
                        .get("base_shots")
                        .and_then(JsonValue::as_usize)
                        .ok_or("plan point missing base_shots")?,
                    base_failures: p
                        .get("base_failures")
                        .and_then(JsonValue::as_usize)
                        .ok_or("plan point missing base_failures")?,
                };
                if point.base_failures > point.base_shots {
                    return Err(format!(
                        "plan point '{}': base_failures {} > base_shots {}",
                        point.id, point.base_failures, point.base_shots
                    ));
                }
                Ok(point)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let plan = Self {
            num_shards: usize_field("num_shards")?,
            batch_size: usize_field("batch_size")?,
            shot_floor: usize_field("shot_floor")?,
            shot_ceiling: usize_field("shot_ceiling")?,
            target_rse: value.get("target_rse").and_then(JsonValue::as_f64),
            confidence_z: value
                .get("confidence_z")
                .and_then(JsonValue::as_f64)
                .ok_or("plan missing confidence_z")?,
            points,
        };
        if plan.num_shards == 0 {
            return Err("plan has zero shards".into());
        }
        if plan.batch_size == 0 {
            return Err("plan has zero batch size".into());
        }
        Ok(plan)
    }
}

/// The committed tally increment one shard emits for one scheduling block:
/// the shard's slice of block `epoch` of point `point`.
///
/// Deltas are the unit of the merge layer.  Merging is a fold over sets of
/// deltas — associative, commutative and duplicate-idempotent (a shard that
/// restarts may re-emit committed deltas; the coordinator verifies they are
/// identical and counts them once).
#[derive(Debug, Clone, PartialEq)]
pub struct TallyDelta {
    /// Fingerprint of the [`ShardPlan`] the delta belongs to; deltas with a
    /// foreign fingerprint are refused at merge time.
    pub plan_fingerprint: String,
    /// The emitting shard.
    pub shard: usize,
    /// Index of the point within the plan.
    pub point: usize,
    /// The point's id (redundant with `point`; cross-checked at merge time
    /// so a delta can never be attributed to the wrong point).
    pub point_id: String,
    /// The block epoch the delta belongs to.
    pub epoch: usize,
    /// Shots the shard ran in its slice of the block.
    pub shots: usize,
    /// Failures among those shots.
    pub failures: usize,
    /// Kernel wall-clock the shard spent on the slice, in seconds (a timing
    /// field: merged for reporting, irrelevant to the statistics).
    pub busy_secs: f64,
}

impl TallyDelta {
    /// The delta as a JSON document (one entry of a shard's delta file).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "schema_version".into(),
                JsonValue::Number(PLAN_SCHEMA_VERSION as f64),
            ),
            (
                "plan_fingerprint".into(),
                JsonValue::String(self.plan_fingerprint.clone()),
            ),
            ("shard".into(), JsonValue::Number(self.shard as f64)),
            ("point".into(), JsonValue::Number(self.point as f64)),
            ("point_id".into(), JsonValue::String(self.point_id.clone())),
            ("epoch".into(), JsonValue::Number(self.epoch as f64)),
            ("shots".into(), JsonValue::Number(self.shots as f64)),
            ("failures".into(), JsonValue::Number(self.failures as f64)),
            ("busy_secs".into(), JsonValue::Number(self.busy_secs)),
        ])
    }

    /// Parses a delta from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        super::json::check_schema_version(value, PLAN_SCHEMA_VERSION, "tally delta")?;
        let usize_field = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| format!("delta missing {key}"))
        };
        let delta = Self {
            plan_fingerprint: value
                .get("plan_fingerprint")
                .and_then(JsonValue::as_str)
                .ok_or("delta missing plan_fingerprint")?
                .to_string(),
            shard: usize_field("shard")?,
            point: usize_field("point")?,
            point_id: value
                .get("point_id")
                .and_then(JsonValue::as_str)
                .ok_or("delta missing point_id")?
                .to_string(),
            epoch: usize_field("epoch")?,
            shots: usize_field("shots")?,
            failures: usize_field("failures")?,
            busy_secs: value
                .get("busy_secs")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
        };
        if delta.failures > delta.shots {
            return Err(format!(
                "delta {}@{} has more failures than shots",
                delta.point_id, delta.epoch
            ));
        }
        Ok(delta)
    }
}

/// Whether a shard may run a given block yet — the coordinator's answer to
/// a worker's gate query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochGate {
    /// The block is runnable: every earlier epoch of the point is
    /// committed and the point has not stopped.
    Run,
    /// The block must not run *yet*: an earlier epoch is still missing
    /// deltas from other shards.  The worker should work on another point
    /// or wait.
    Wait,
    /// The point is finished (converged, at its ceiling, or past its stop
    /// boundary); the shard has no more work on it.
    Skip,
}

/// Where a shard worker sends its deltas (and asks whether blocks are
/// runnable).  In-process sinks wrap the
/// [`Coordinator`](super::coordinator::Coordinator) behind a mutex; the
/// fabric binaries implement a file-backed sink.
pub trait DeltaSink {
    /// Submits one delta.  Submission is idempotent: a re-sent committed
    /// delta (after a worker restart) is verified and ignored.
    ///
    /// # Errors
    ///
    /// Returns an error when the delta is refused (stale fingerprint,
    /// malformed) or the sink's transport fails; the worker aborts.
    fn submit(&mut self, delta: TallyDelta) -> Result<(), EngineError>;

    /// Whether `(point, epoch)` may run yet.  Sinks without live
    /// coordinator feedback (the fabric's delta files) always answer
    /// [`EpochGate::Run`]; the sweep still merges bit-identically, the
    /// worker just cannot stop early on adaptive convergence.
    ///
    /// # Errors
    ///
    /// Returns an error when the transport fails.
    fn gate(&mut self, point: usize, epoch: usize) -> Result<EpochGate, EngineError>;

    /// Blocks until the coordinator's state may have changed (a block
    /// committed or a point finished), after [`DeltaSink::gate`] returned
    /// only [`EpochGate::Wait`]s.  Sinks that never answer `Wait` can leave
    /// the default no-op.
    ///
    /// # Errors
    ///
    /// Returns an error when the transport fails.
    fn wait_for_progress(&mut self) -> Result<(), EngineError> {
        Ok(())
    }
}

/// Drives one shard of a plan: runs the shard's slice of every runnable
/// block, in round order (epoch 0 of every point, then epoch 1, …), and
/// submits one [`TallyDelta`] per block to the sink.
///
/// A worker that previously committed deltas (its shard checkpoint)
/// re-submits them via `completed` instead of re-running the kernels —
/// submission is idempotent, so a killed-and-restarted worker loses at most
/// its in-flight block.
pub struct ShardWorker<'a> {
    plan: &'a ShardPlan,
    shard: usize,
}

impl<'a> ShardWorker<'a> {
    /// A worker for shard `shard` of `plan`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn new(plan: &'a ShardPlan, shard: usize) -> Self {
        assert!(shard < plan.num_shards, "shard index out of range");
        Self { plan, shard }
    }

    /// Runs the shard to completion against `points` (which must match the
    /// plan's point list), re-submitting `completed` deltas first.
    ///
    /// # Errors
    ///
    /// Returns the first sink error.
    ///
    /// # Panics
    ///
    /// Panics if `points` does not match the plan.
    pub fn run(
        &self,
        points: &[SweepPoint],
        completed: &[TallyDelta],
        sink: &mut dyn DeltaSink,
    ) -> Result<(), EngineError> {
        assert_eq!(points.len(), self.plan.points.len(), "plan/point mismatch");
        for (point, plan_point) in points.iter().zip(&self.plan.points) {
            assert_eq!(point.id(), plan_point.id, "plan/point id mismatch");
        }
        let fingerprint = self.plan.fingerprint();
        // Epochs this shard has already committed (resumed from a shard
        // checkpoint): re-submit without re-running, idempotently.
        let mut done_epochs: Vec<Vec<bool>> = (0..points.len())
            .map(|p| vec![false; self.plan.num_epochs(p)])
            .collect();
        for delta in completed {
            if delta.plan_fingerprint != fingerprint {
                return Err(EngineError::CheckpointMismatch {
                    reason: format!(
                        "shard checkpoint delta {}@{} belongs to another plan",
                        delta.point_id, delta.epoch
                    ),
                });
            }
            sink.submit(delta.clone())?;
            if let Some(slot) = done_epochs
                .get_mut(delta.point)
                .and_then(|epochs| epochs.get_mut(delta.epoch))
            {
                *slot = true;
            }
        }

        // `next` tracks, per point, the first epoch this shard has not run
        // yet; `open` tracks points the shard still owes blocks.
        let mut next: Vec<usize> = (0..points.len())
            .map(|p| done_epochs[p].iter().take_while(|&&d| d).count())
            .collect();
        let mut open: Vec<bool> = (0..points.len())
            .map(|p| next[p] < self.plan.num_epochs(p))
            .collect();
        loop {
            let mut progressed = false;
            let mut remaining = false;
            for p in 0..points.len() {
                if !open[p] {
                    continue;
                }
                match sink.gate(p, next[p])? {
                    EpochGate::Skip => {
                        open[p] = false;
                        continue;
                    }
                    EpochGate::Wait => {
                        remaining = true;
                        continue;
                    }
                    EpochGate::Run => {}
                }
                let epoch = next[p];
                let range = self.plan.epoch_range(p, epoch).expect("epoch in schedule");
                let (start, end) = self.plan.shard_slice(range, self.shard);
                let started = std::time::Instant::now();
                let failures = points[p].run_range(start, (end - start) as usize);
                let delta = TallyDelta {
                    plan_fingerprint: fingerprint.clone(),
                    shard: self.shard,
                    point: p,
                    point_id: self.plan.points[p].id.clone(),
                    epoch,
                    shots: (end - start) as usize,
                    failures,
                    busy_secs: started.elapsed().as_secs_f64(),
                };
                sink.submit(delta)?;
                next[p] += 1;
                if next[p] >= self.plan.num_epochs(p) {
                    open[p] = false;
                } else {
                    remaining = true;
                }
                progressed = true;
            }
            if !remaining && !progressed {
                return Ok(());
            }
            if !progressed {
                sink.wait_for_progress()?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(floor: usize, ceiling: usize, shards: usize) -> ShardPlan {
        let config = SweepConfig {
            shot_floor: floor,
            ..SweepConfig::fixed(ceiling)
        };
        let points = vec![SweepPoint::new("a", |_s: u64| false)];
        ShardPlan::new(&config, &points, None, shards)
    }

    #[test]
    fn boundaries_double_from_the_floor_to_the_ceiling() {
        let plan = plan(64, 500, 3);
        let boundaries: Vec<usize> = (0..plan.num_epochs(0))
            .map(|e| plan.boundary(0, e).unwrap())
            .collect();
        assert_eq!(boundaries, vec![64, 128, 256, 500]);
        assert_eq!(plan.boundary(0, 4), None);
        assert_eq!(plan.epoch_range(0, 0), Some((0, 64)));
        assert_eq!(plan.epoch_range(0, 3), Some((256, 500)));
    }

    #[test]
    fn resumed_baselines_continue_the_schedule() {
        let config = SweepConfig {
            shot_floor: 64,
            ..SweepConfig::fixed(500)
        };
        let points = vec![SweepPoint::new("a", |_s: u64| false)];
        let plan = ShardPlan::new(&config, &points, Some(&[(100, 3)]), 2);
        // Resumed at 100 (a foreign boundary): the schedule doubles onward.
        assert_eq!(plan.boundary(0, 0), Some(200));
        assert_eq!(plan.boundary(0, 1), Some(400));
        assert_eq!(plan.boundary(0, 2), Some(500));
        assert_eq!(plan.num_epochs(0), 3);
        assert_eq!(plan.epoch_range(0, 0), Some((100, 200)));
        // A baseline at the ceiling has no epochs at all.
        let done = ShardPlan::new(&config, &points, Some(&[(500, 9)]), 2);
        assert_eq!(done.num_epochs(0), 0);
    }

    #[test]
    fn shard_slices_are_disjoint_and_cover_every_block() {
        for shards in [1usize, 2, 3, 5, 8] {
            let plan = plan(50, 1000, shards);
            for epoch in 0..plan.num_epochs(0) {
                let range = plan.epoch_range(0, epoch).unwrap();
                let mut cursor = range.0;
                for shard in 0..shards {
                    let (start, end) = plan.shard_slice(range, shard);
                    assert_eq!(start, cursor, "slices must tile the block in order");
                    assert!(end >= start);
                    cursor = end;
                }
                assert_eq!(cursor, range.1, "slices must cover the whole block");
            }
        }
    }

    #[test]
    fn shard_cuts_snap_to_the_batch_grid() {
        let plan = plan(64, 4096, 3);
        let range = plan.epoch_range(0, 4).unwrap(); // [1024, 2048)
        for shard in 0..3 {
            let (start, end) = plan.shard_slice(range, shard);
            assert_eq!(start % 64, 0, "cut {start} off the batch grid");
            if end != range.1 {
                assert_eq!(end % 64, 0, "cut {end} off the batch grid");
            }
        }
    }

    #[test]
    fn tiny_blocks_may_leave_some_shards_empty() {
        let plan = plan(2, 4, 8);
        let range = plan.epoch_range(0, 0).unwrap(); // [0, 2)
        let total: u64 = (0..8)
            .map(|s| {
                let (start, end) = plan.shard_slice(range, s);
                end - start
            })
            .sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn plan_json_roundtrips_and_fingerprint_is_stable() {
        let plan = plan(64, 500, 3);
        let parsed = ShardPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.fingerprint(), plan.fingerprint());
        // A different shard count is a different fingerprint.
        let other = super::ShardPlan {
            num_shards: 4,
            ..plan.clone()
        };
        assert_ne!(other.fingerprint(), plan.fingerprint());
    }

    /// A plan carrying committed tallies: the shape of a checkpoint.
    fn checkpoint_plan() -> ShardPlan {
        let config = SweepConfig::adaptive(64, 1024, 0.2);
        let points = vec![
            SweepPoint::new("fig3/d=5/p=4e-3", |_s: u64| false),
            SweepPoint::new("fig3/d=9/p=4e-3", |_s: u64| false),
        ];
        ShardPlan::new(&config, &points, Some(&[(128, 3), (64, 0)]), 2)
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let plan = checkpoint_plan();
        let parsed = ShardPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.baselines(), vec![(128, 3), (64, 0)]);
    }

    #[test]
    fn save_and_load_roundtrip_through_disk() {
        let dir = std::env::temp_dir().join(format!("q3de-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.json");
        let plan = checkpoint_plan();
        plan.save(&path).unwrap();
        // A second save must atomically replace the first.
        plan.save(&path).unwrap();
        let loaded = ShardPlan::load(&path).unwrap();
        assert_eq!(loaded, plan);
        assert_eq!(loaded.baselines(), vec![(128, 3), (64, 0)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = ShardPlan::load(Path::new("/nonexistent/q3de/checkpoint.json")).unwrap_err();
        assert!(matches!(err, EngineError::Io { .. }), "{err}");
    }

    #[test]
    fn schema_violations_are_rejected() {
        // The checkpoint document with field `key` replaced (or dropped).
        let with = |key: &str, value: Option<JsonValue>| {
            let mut doc = checkpoint_plan().to_json();
            if let JsonValue::Object(fields) = &mut doc {
                fields.retain(|(k, _)| k != key);
                fields.extend(value.map(|v| (key.to_string(), v)));
            }
            doc
        };
        let point = |shots: f64, failures: f64| {
            JsonValue::Array(vec![JsonValue::Object(vec![
                ("id".into(), JsonValue::String("a".into())),
                ("base_shots".into(), JsonValue::Number(shots)),
                ("base_failures".into(), JsonValue::Number(failures)),
            ])])
        };
        for (doc, what) in [
            (with("schema_version", None), "missing schema version"),
            (
                JsonValue::parse(r#"{"version": 1, "fingerprint": "x", "points": []}"#).unwrap(),
                "pre-rename version-1 checkpoint",
            ),
            (
                with("schema_version", Some(JsonValue::Number(99.0))),
                "unknown major",
            ),
            (with("points", None), "missing points"),
            (with("shot_floor", None), "missing shot floor"),
            (with("confidence_z", None), "missing quantile"),
            (
                with("num_shards", Some(JsonValue::Number(0.0))),
                "zero shards",
            ),
            (
                with("points", Some(point(1.0, 2.0))),
                "base_failures > base_shots",
            ),
        ] {
            assert!(ShardPlan::from_json(&doc).is_err(), "{what}");
        }
        assert!(ShardPlan::from_json(&with("points", Some(point(2.0, 2.0)))).is_ok());
    }

    #[test]
    fn old_checkpoint_documents_are_refused() {
        // The per-point tally checkpoint that preceded plan checkpoints
        // (`schema_version` 2, a sweep fingerprint, `shots`/`failures`).
        let dir = std::env::temp_dir().join(format!("q3de-old-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.json");
        std::fs::write(
            &path,
            r#"{"schema_version":2,"fingerprint":"v2;floor=64;rse=None;z=1.959963984540054;ids=a","points":[{"id":"a","shots":64,"failures":1}]}"#,
        )
        .unwrap();
        let err = ShardPlan::load(&path).unwrap_err();
        assert!(matches!(err, EngineError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("schema version 2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_json_roundtrips_and_rejects_bad_schemas() {
        let delta = TallyDelta {
            plan_fingerprint: "fp".into(),
            shard: 1,
            point: 0,
            point_id: "a".into(),
            epoch: 2,
            shots: 64,
            failures: 3,
            busy_secs: 0.5,
        };
        let parsed = TallyDelta::from_json(&delta.to_json()).unwrap();
        assert_eq!(parsed, delta);
        let mut bad = delta.to_json();
        if let JsonValue::Object(fields) = &mut bad {
            fields[0].1 = JsonValue::Number(99.0);
        }
        let err = TallyDelta::from_json(&bad).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }
}

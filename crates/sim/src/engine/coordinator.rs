//! The merge layer of the shard protocol: folds [`TallyDelta`]s into
//! committed tallies and makes the adaptive stop decision.
//!
//! A [`Coordinator`] owns the authoritative state of a sharded sweep.  It
//! accepts deltas **in any order** — the fold is associative, commutative
//! and idempotent under re-submission — and commits a block only when all
//! shards of the plan have reported it *and* every earlier block of the
//! point is committed.  Because commits happen in block order and the
//! adaptive stop rule is evaluated exactly at committed block boundaries
//! over the folded (complete) tally, the merged run is bit-identical to a
//! single-process [`SweepRunner`](super::SweepRunner) by construction:
//! both see the same tallies at the same boundaries and therefore make the
//! same decisions.
//!
//! Deltas past a point's stop boundary (speculative work a worker ran
//! before learning of convergence, or a `q3de-sweepd` worker that ran to
//! the ceiling) are accepted and discarded — they never contaminate the
//! committed tally.
//!
//! [`Coordinator::checkpoint`] — the plan rebased on the committed tallies
//! — is the one persisted form of sweep progress: every checkpoint writer
//! (the single-process runner and `q3de-sweepctl merge`) saves it,
//! and every resume reads its baselines.

use std::collections::BTreeMap;

use super::shard::{EpochGate, ShardPlan, TallyDelta};
use super::{EngineError, PointReport, SweepReport};

/// Accumulated per-epoch state while a block waits for stragglers.
#[derive(Debug, Clone, Default)]
struct EpochAcc {
    shots: usize,
    failures: usize,
    busy_secs: f64,
    reported: usize,
}

/// Per-point merge state.
#[derive(Debug, Clone)]
struct CoordPoint {
    committed_shots: usize,
    committed_failures: usize,
    busy_secs: f64,
    /// Next epoch to commit (everything below is folded in).
    next_epoch: usize,
    num_epochs: usize,
    finished: bool,
    converged: bool,
    resumed: usize,
    /// Blocks with at least one delta but not yet committed.
    pending: BTreeMap<usize, EpochAcc>,
    /// Every delta ever accepted, keyed by `(epoch, shard)` — the record
    /// that makes re-submission idempotent instead of double-counted.
    seen: BTreeMap<(usize, usize), (usize, usize)>,
}

/// The coordinator of a sharded sweep: validates and folds deltas, commits
/// blocks in order, and decides when each point stops.
#[derive(Debug, Clone)]
pub struct Coordinator {
    plan: ShardPlan,
    fingerprint: String,
    points: Vec<CoordPoint>,
}

/// What a [`Coordinator::submit`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// Whether at least one block was committed by this submission (the
    /// trigger for checkpoint writes and worker wake-ups).
    pub committed: bool,
}

impl Coordinator {
    /// A coordinator over `plan`, starting from the plan's baselines.
    /// Points whose baseline already satisfies the stop rule (or sits at
    /// the ceiling) start finished, exactly as in a single-process resume.
    pub fn new(plan: ShardPlan) -> Self {
        let fingerprint = plan.fingerprint();
        let config = plan.sweep_config();
        let points = (0..plan.points.len())
            .map(|i| {
                let base = &plan.points[i];
                let num_epochs = plan.num_epochs(i);
                let mut point = CoordPoint {
                    committed_shots: base.base_shots,
                    committed_failures: base.base_failures,
                    busy_secs: 0.0,
                    next_epoch: 0,
                    num_epochs,
                    finished: false,
                    converged: false,
                    resumed: base.base_shots,
                    pending: BTreeMap::new(),
                    seen: BTreeMap::new(),
                };
                if config.is_converged(base.base_shots, base.base_failures) {
                    point.finished = true;
                    point.converged = true;
                } else if num_epochs == 0 {
                    point.finished = true;
                }
                point
            })
            .collect();
        Self {
            plan,
            fingerprint,
            points,
        }
    }

    /// The plan being coordinated.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Folds one delta in.  Order-independent: any interleaving of the
    /// same delta set yields the same committed state.  Duplicate deltas
    /// are verified against the first copy and ignored; conflicting
    /// duplicates, foreign fingerprints, wrong slice sizes and unknown
    /// points are refused.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointMismatch`] when the delta cannot
    /// belong to this plan.
    pub fn submit(&mut self, delta: &TallyDelta) -> Result<SubmitOutcome, EngineError> {
        let refuse = |reason: String| EngineError::CheckpointMismatch { reason };
        if delta.plan_fingerprint != self.fingerprint {
            return Err(refuse(format!(
                "delta fingerprint '{}' does not match plan '{}'",
                delta.plan_fingerprint, self.fingerprint
            )));
        }
        if delta.shard >= self.plan.num_shards {
            return Err(refuse(format!("delta from unknown shard {}", delta.shard)));
        }
        let Some(point_state) = self.points.get_mut(delta.point) else {
            return Err(refuse(format!("delta for unknown point {}", delta.point)));
        };
        if self.plan.points[delta.point].id != delta.point_id {
            return Err(refuse(format!(
                "delta point id '{}' does not match plan point {} ('{}')",
                delta.point_id, delta.point, self.plan.points[delta.point].id
            )));
        }
        if delta.epoch >= point_state.num_epochs {
            return Err(refuse(format!(
                "delta epoch {} outside the {}-epoch schedule of '{}'",
                delta.epoch, point_state.num_epochs, delta.point_id
            )));
        }
        let range = self
            .plan
            .epoch_range(delta.point, delta.epoch)
            .expect("epoch checked above");
        let (start, end) = self.plan.shard_slice(range, delta.shard);
        if delta.shots != (end - start) as usize {
            return Err(refuse(format!(
                "delta {}@{} shard {} carries {} shots where the plan slice holds {}",
                delta.point_id,
                delta.epoch,
                delta.shard,
                delta.shots,
                end - start
            )));
        }
        // Idempotence: an exact duplicate is dropped, a conflicting one is
        // a corrupted shard.
        if let Some(&(shots, failures)) = point_state.seen.get(&(delta.epoch, delta.shard)) {
            if (shots, failures) == (delta.shots, delta.failures) {
                return Ok(SubmitOutcome { committed: false });
            }
            return Err(refuse(format!(
                "conflicting duplicate delta {}@{} from shard {}: ({}, {}) vs ({}, {})",
                delta.point_id,
                delta.epoch,
                delta.shard,
                delta.shots,
                delta.failures,
                shots,
                failures
            )));
        }
        point_state
            .seen
            .insert((delta.epoch, delta.shard), (delta.shots, delta.failures));
        // Work past the stop boundary (speculation, or a coordinator-blind
        // file worker running to the ceiling) is recorded but discarded.
        if point_state.finished {
            return Ok(SubmitOutcome { committed: false });
        }
        let acc = point_state.pending.entry(delta.epoch).or_default();
        acc.shots += delta.shots;
        acc.failures += delta.failures;
        acc.busy_secs += delta.busy_secs;
        acc.reported += 1;

        // Commit every now-complete block in order.
        let config = self.plan.sweep_config();
        let mut committed = false;
        while let Some(acc) = self.points[delta.point]
            .pending
            .get(&{ self.points[delta.point].next_epoch })
        {
            if acc.reported < self.plan.num_shards {
                break;
            }
            let point_state = &mut self.points[delta.point];
            let epoch = point_state.next_epoch;
            let acc = point_state.pending.remove(&epoch).expect("checked above");
            let boundary = self
                .plan
                .boundary(delta.point, epoch)
                .expect("committed epoch is in the schedule");
            point_state.committed_shots += acc.shots;
            point_state.committed_failures += acc.failures;
            point_state.busy_secs += acc.busy_secs;
            debug_assert_eq!(
                point_state.committed_shots, boundary,
                "committed tally must land exactly on the block boundary"
            );
            point_state.next_epoch += 1;
            committed = true;
            let converged =
                config.is_converged(point_state.committed_shots, point_state.committed_failures);
            if converged || point_state.committed_shots >= config.shot_ceiling {
                point_state.finished = true;
                point_state.converged = converged;
                point_state.pending.clear();
                break;
            }
        }
        Ok(SubmitOutcome { committed })
    }

    /// Whether `(point, epoch)` may run yet — the gate workers consult
    /// before starting a block.  In adaptive mode a block is runnable only
    /// once every earlier block of its point is committed (so convergence
    /// can stop the point with zero overshoot); without a stopping target
    /// every scheduled block will run regardless, so the gate never asks a
    /// shard to wait.
    pub fn gate(&self, point: usize, epoch: usize) -> EpochGate {
        let state = &self.points[point];
        if state.finished {
            return EpochGate::Skip;
        }
        if epoch >= state.num_epochs {
            return EpochGate::Skip;
        }
        if self.plan.target_rse.is_none() || epoch <= state.next_epoch {
            return EpochGate::Run;
        }
        EpochGate::Wait
    }

    /// Indices of the points that are finished (converged or at their
    /// ceiling).
    pub fn finished_points(&self) -> Vec<usize> {
        (0..self.points.len())
            .filter(|&i| self.points[i].finished)
            .collect()
    }

    /// Whether every point of the sweep is finished.
    pub fn all_finished(&self) -> bool {
        self.points.iter().all(|p| p.finished)
    }

    /// The `(point, epoch, shard)` blocks still missing before the sweep
    /// can finish — what `q3de-sweepctl status` reports.  For an
    /// unfinished point every epoch from its commit frontier up to the
    /// ceiling is listed (an adaptive sweep may stop needing later ones,
    /// but they are required until a boundary converges).
    pub fn missing(&self) -> Vec<(usize, usize, usize)> {
        let mut missing = Vec::new();
        for (i, state) in self.points.iter().enumerate() {
            if state.finished {
                continue;
            }
            for epoch in state.next_epoch..state.num_epochs {
                for shard in 0..self.plan.num_shards {
                    if !state.seen.contains_key(&(epoch, shard)) {
                        missing.push((i, epoch, shard));
                    }
                }
            }
        }
        missing
    }

    /// The sweep's checkpoint: the plan rebased on the committed tallies
    /// (every point's baseline set to its committed `(shots, failures)`).
    /// `SweepRunner --checkpoint` and `q3de-sweepctl merge --checkpoint`
    /// both persist this one document, so a sharded
    /// sweep can be taken over by a single process and vice versa.
    pub fn checkpoint(&self) -> ShardPlan {
        let mut plan = self.plan.clone();
        for (point, state) in plan.points.iter_mut().zip(&self.points) {
            point.base_shots = state.committed_shots;
            point.base_failures = state.committed_failures;
        }
        plan
    }

    /// The per-point progress `(committed shots, committed failures,
    /// finished, converged)`, in plan order.
    pub fn progress(&self) -> Vec<(usize, usize, bool, bool)> {
        self.points
            .iter()
            .map(|p| {
                (
                    p.committed_shots,
                    p.committed_failures,
                    p.finished,
                    p.converged,
                )
            })
            .collect()
    }

    /// The final report of a completed sweep.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointMismatch`] when a point is not
    /// finished (deltas are still missing) — see [`Coordinator::missing`].
    pub fn report(&self, wall_clock_secs: f64, threads: usize) -> Result<SweepReport, EngineError> {
        if !self.all_finished() {
            let missing = self.missing();
            let preview: Vec<String> = missing
                .iter()
                .take(5)
                .map(|&(p, e, s)| format!("{}@{e}/shard{s}", self.plan.points[p].id))
                .collect();
            return Err(EngineError::CheckpointMismatch {
                reason: format!(
                    "sweep is incomplete: {} blocks missing (first: {})",
                    missing.len(),
                    preview.join(", ")
                ),
            });
        }
        Ok(SweepReport {
            points: self
                .plan
                .points
                .iter()
                .zip(&self.points)
                .map(|(p, s)| PointReport {
                    id: p.id.clone(),
                    shots: s.committed_shots,
                    failures: s.committed_failures,
                    converged: s.converged,
                    resumed_shots: s.resumed,
                    busy_secs: s.busy_secs,
                    confidence_z: self.plan.confidence_z,
                })
                .collect(),
            wall_clock_secs,
            threads,
            shot_floor: self.plan.shot_floor,
            shot_ceiling: self.plan.shot_ceiling,
            target_rse: self.plan.target_rse,
            meta: Vec::new(),
        })
    }

    /// Folds a whole delta set at once (the offline `merge` entry point).
    ///
    /// # Errors
    ///
    /// Returns the first refusal.
    pub fn submit_all<'d>(
        &mut self,
        deltas: impl IntoIterator<Item = &'d TallyDelta>,
    ) -> Result<(), EngineError> {
        for delta in deltas {
            self.submit(delta)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SweepConfig, SweepPoint};
    use super::*;

    fn toy_points() -> Vec<SweepPoint> {
        vec![
            SweepPoint::new("a", |s: u64| s.is_multiple_of(7)),
            SweepPoint::new("b", |s: u64| s.is_multiple_of(3)),
        ]
    }

    fn deltas_for(plan: &ShardPlan, points: &[SweepPoint]) -> Vec<TallyDelta> {
        let mut out = Vec::new();
        for (p, point) in plan.points.iter().enumerate() {
            for epoch in 0..plan.num_epochs(p) {
                let range = plan.epoch_range(p, epoch).unwrap();
                for shard in 0..plan.num_shards {
                    let (start, end) = plan.shard_slice(range, shard);
                    out.push(TallyDelta {
                        plan_fingerprint: plan.fingerprint(),
                        shard,
                        point: p,
                        point_id: point.id.clone(),
                        epoch,
                        shots: (end - start) as usize,
                        failures: points[p].run_range(start, (end - start) as usize),
                        busy_secs: 0.0,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn any_submission_order_commits_the_same_tallies() {
        let config = SweepConfig::fixed(200);
        let points = toy_points();
        let plan = ShardPlan::new(&config, &points, None, 3);
        let mut deltas = deltas_for(&plan, &points);
        let reference = {
            let mut c = Coordinator::new(plan.clone());
            c.submit_all(&deltas).unwrap();
            c.report(0.0, 1).unwrap()
        };
        deltas.reverse();
        let reversed = {
            let mut c = Coordinator::new(plan.clone());
            c.submit_all(&deltas).unwrap();
            c.report(0.0, 1).unwrap()
        };
        assert_eq!(reference.points, reversed.points);
        // Duplicate re-submission is idempotent.
        let mut twice = Coordinator::new(plan);
        twice.submit_all(&deltas).unwrap();
        twice.submit_all(&deltas).unwrap();
        assert_eq!(twice.report(0.0, 1).unwrap().points, reference.points);
    }

    #[test]
    fn incomplete_merges_report_what_is_missing() {
        let config = SweepConfig::fixed(100);
        let points = toy_points();
        let plan = ShardPlan::new(&config, &points, None, 2);
        let deltas = deltas_for(&plan, &points);
        let mut c = Coordinator::new(plan);
        // Withhold the last delta.
        c.submit_all(&deltas[..deltas.len() - 1]).unwrap();
        assert!(!c.all_finished());
        let missing = c.missing();
        assert_eq!(missing.len(), 1);
        let err = c.report(0.0, 1).unwrap_err();
        assert!(
            matches!(err, EngineError::CheckpointMismatch { .. }),
            "{err}"
        );
        // Delivering it completes the sweep.
        c.submit(&deltas[deltas.len() - 1]).unwrap();
        assert!(c.all_finished());
        c.report(0.0, 1).unwrap();
    }

    #[test]
    fn foreign_and_conflicting_deltas_are_refused() {
        let config = SweepConfig::fixed(64);
        let points = toy_points();
        let plan = ShardPlan::new(&config, &points, None, 2);
        let deltas = deltas_for(&plan, &points);
        let mut c = Coordinator::new(plan);
        let mut foreign = deltas[0].clone();
        foreign.plan_fingerprint = "other".into();
        assert!(c.submit(&foreign).is_err());
        c.submit(&deltas[0]).unwrap();
        let mut conflicting = deltas[0].clone();
        conflicting.failures = deltas[0].failures + 1;
        let err = c.submit(&conflicting).unwrap_err();
        assert!(
            matches!(err, EngineError::CheckpointMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn adaptive_stop_discards_deltas_past_the_boundary() {
        // Point "a" fails every shot: it converges at the first boundary.
        let config = SweepConfig::adaptive(64, 512, 0.5);
        let points = vec![SweepPoint::new("a", |_s: u64| true)];
        let plan = ShardPlan::new(&config, &points, None, 2);
        let deltas = deltas_for(&plan, &points);
        let mut c = Coordinator::new(plan.clone());
        c.submit_all(&deltas).unwrap();
        let report = c.report(0.0, 1).unwrap();
        assert!(report.points[0].converged);
        assert_eq!(
            report.points[0].shots, 64,
            "the committed tally stops at the convergence boundary"
        );
        assert_eq!(report.points[0].failures, 64);
    }

    #[test]
    fn gates_enforce_commit_order_only_in_adaptive_mode() {
        let fixed_plan = ShardPlan::new(&SweepConfig::fixed(256), &toy_points(), None, 2);
        let fixed = Coordinator::new(fixed_plan);
        assert_eq!(fixed.gate(0, 2), EpochGate::Run, "fixed mode never waits");

        let adaptive_plan =
            ShardPlan::new(&SweepConfig::adaptive(64, 256, 0.1), &toy_points(), None, 2);
        let adaptive = Coordinator::new(adaptive_plan);
        assert_eq!(adaptive.gate(0, 0), EpochGate::Run);
        assert_eq!(adaptive.gate(0, 1), EpochGate::Wait);
    }
}

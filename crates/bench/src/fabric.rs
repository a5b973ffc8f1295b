//! The distributed sweep fabric: job files, delta files, and the
//! length-prefixed TCP protocol behind `q3de-sweepd` and `q3de-sweepctl`.
//!
//! A distributed sweep is the engine's shard protocol stretched across
//! processes:
//!
//! * `q3de-sweepctl plan` captures a sweep as a [`SweepJob`] — a
//!   [`Generator`] (the sweep name plus the engine knobs needed to rebuild
//!   its kernels deterministically) and the engine's
//!   [`ShardPlan`] (pure data: the deterministic stream partition);
//! * each `q3de-sweepd` worker rebuilds the identical points from the
//!   generator, runs its shard and emits [`TallyDelta`]s — to a delta file
//!   ([`FileSink`]) or to a live coordinator over TCP ([`RemoteSink`]);
//! * `q3de-sweepctl merge`/[`serve`] folds the deltas through the engine's
//!   [`Coordinator`], whose merge is associative, commutative and
//!   duplicate-idempotent — so the merged report is **bit-identical**
//!   (modulo the [`TIMING_FIELDS`]) to a single-process run at the same
//!   seed, which `q3de-sweepctl diff` checks.
//!
//! The file transport has no live coordinator, so its gate always answers
//! [`EpochGate::Run`]: an adaptive sweep's workers run every scheduled
//! block up to the ceiling, and the merge discards the blocks past each
//! point's stop boundary — same statistics, no early-stop savings.  The TCP
//! transport gates against the live coordinator and does stop early.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use q3de::matching::MatcherKind;
use q3de::sim::engine::json::{check_schema_version, JsonValue};
use q3de::sim::engine::{
    write_atomic, Coordinator, DeltaSink, EngineError, EpochGate, ShardPlan, SweepPoint,
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
                .ok_or("generator missing samples")?,
            matcher: MatcherKind::parse(matcher)
                .ok_or_else(|| format!("generator has unknown matcher '{matcher}'"))?,
            target_rse: value.get("target_rse").and_then(JsonValue::as_f64),
        })
    }
}

/// A planned distributed sweep: the [`Generator`] that rebuilds its kernels
/// and the [`ShardPlan`] that partitions its streams.  This is the
/// `job.json` artifact `q3de-sweepctl plan` writes and every worker and
/// merge step loads (or receives over TCP at claim time).
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
        let text = std::fs::read_to_string(path).map_err(|source| EngineError::Io {
            path: path.into(),
            source,
        })?;
        let value = JsonValue::parse(&text).map_err(|message| EngineError::Parse {
            path: path.into(),
            message,
        })?;
        Self::from_json(&value).map_err(|message| EngineError::Parse {
            path: path.into(),
            message,
        })
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
    let parse_error = |message: String| EngineError::Parse {
        path: path.into(),
        message,
    };
    let text = std::fs::read_to_string(path).map_err(|source| EngineError::Io {
        path: path.into(),
        source,
    })?;
    let value = JsonValue::parse(&text).map_err(parse_error)?;
    check_schema_version(&value, FABRIC_SCHEMA_VERSION, "delta file").map_err(parse_error)?;
    value
        .get("deltas")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| parse_error("delta file missing deltas".into()))?
        .iter()
        .map(|d| TallyDelta::from_json(d).map_err(parse_error))
        .collect()
}

/// The file transport's [`DeltaSink`]: every committed delta is appended to
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

/// Hard ceiling on one TCP frame's payload (a frame carries one JSON
/// message; the largest legitimate one is a job document).
pub const MAX_FRAME: usize = 16 << 20;

/// Writes one length-prefixed frame: a `u32` big-endian payload length
/// followed by the message's JSON text.
///
/// # Errors
///
/// Returns an error when the payload exceeds [`MAX_FRAME`] or the write
/// fails.
pub fn send_frame(stream: &mut impl Write, message: &JsonValue) -> io::Result<()> {
    let payload = message.to_string();
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME} limit",
                payload.len()
            ),
        ));
    }
    stream.write_all(&(payload.len() as u32).to_be_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()
}

/// Reads one length-prefixed frame.  Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the peer closed the connection).
///
/// # Errors
///
/// Returns an error on a truncated frame, an oversized length prefix, or
/// an unparseable payload.
pub fn recv_frame(stream: &mut impl Read) -> io::Result<Option<JsonValue>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match stream.read(&mut prefix[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    JsonValue::parse(&text)
        .map(Some)
        .map_err(|message| io::Error::new(io::ErrorKind::InvalidData, message))
}

/// A one-field JSON object `{"type": t}`, the skeleton of every protocol
/// message.
fn message(t: &str) -> Vec<(String, JsonValue)> {
    vec![("type".into(), JsonValue::String(t.into()))]
}

fn transport_error(addr: &str, source: io::Error) -> EngineError {
    EngineError::Io {
        path: PathBuf::from(addr),
        source,
    }
}

fn protocol_error(addr: &str, message: impl Into<String>) -> EngineError {
    transport_error(
        addr,
        io::Error::new(io::ErrorKind::InvalidData, message.into()),
    )
}

/// The TCP transport's [`DeltaSink`]: one connection to a [`serve`]
/// coordinator, speaking request/reply frames.  Unlike the file transport
/// it has live gating, so adaptive sweeps stop early exactly like a
/// single-process run.
///
/// Message types (worker → coordinator, each answered with one frame):
/// `claim` (assigns a shard, returning the job and the shard's committed
/// deltas), `delta`, `gate`, `done`.
#[derive(Debug)]
pub struct RemoteSink {
    stream: TcpStream,
    addr: String,
}

impl RemoteSink {
    /// Connects to a `q3de-sweepctl serve` coordinator.
    ///
    /// # Errors
    ///
    /// Returns an error when the connection fails.
    pub fn connect(addr: &str) -> Result<Self, EngineError> {
        let stream = TcpStream::connect(addr).map_err(|e| transport_error(addr, e))?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            addr: addr.to_string(),
        })
    }

    fn roundtrip(&mut self, request: JsonValue) -> Result<JsonValue, EngineError> {
        send_frame(&mut self.stream, &request).map_err(|e| transport_error(&self.addr, e))?;
        recv_frame(&mut self.stream)
            .map_err(|e| transport_error(&self.addr, e))?
            .ok_or_else(|| protocol_error(&self.addr, "coordinator closed the connection"))
    }

    /// Claims a shard.  Returns `None` when the coordinator has no shard
    /// left to hand out (all claimed or finished), otherwise the shard
    /// index, the job to run and the deltas this shard already committed
    /// (resubmitted instead of re-run after a worker was killed).
    ///
    /// # Errors
    ///
    /// Returns an error on transport failure or a malformed reply.
    pub fn claim(&mut self) -> Result<Option<(usize, SweepJob, Vec<TallyDelta>)>, EngineError> {
        let reply = self.roundtrip(JsonValue::Object(message("claim")))?;
        match reply.get("type").and_then(JsonValue::as_str) {
            Some("assign") => {}
            Some("drained") => return Ok(None),
            other => {
                return Err(protocol_error(
                    &self.addr,
                    format!("unexpected claim reply {other:?}"),
                ))
            }
        }
        let shard = reply
            .get("shard")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| protocol_error(&self.addr, "assign frame missing shard"))?;
        let job = reply
            .get("job")
            .ok_or_else(|| protocol_error(&self.addr, "assign frame missing job"))
            .and_then(|j| SweepJob::from_json(j).map_err(|m| protocol_error(&self.addr, m)))?;
        let completed = reply
            .get("completed")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| protocol_error(&self.addr, "assign frame missing completed"))?
            .iter()
            .map(|d| TallyDelta::from_json(d).map_err(|m| protocol_error(&self.addr, m)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Some((shard, job, completed)))
    }

    /// Reports the claimed shard finished, so the coordinator keeps the
    /// claim instead of releasing it when the connection closes.
    ///
    /// # Errors
    ///
    /// Returns an error on transport failure.
    pub fn finish(&mut self) -> Result<(), EngineError> {
        let reply = self.roundtrip(JsonValue::Object(message("done")))?;
        match reply.get("type").and_then(JsonValue::as_str) {
            Some("ok") => Ok(()),
            other => Err(protocol_error(
                &self.addr,
                format!("unexpected done reply {other:?}"),
            )),
        }
    }
}

impl DeltaSink for RemoteSink {
    fn submit(&mut self, delta: TallyDelta) -> Result<(), EngineError> {
        let mut fields = message("delta");
        fields.push(("delta".into(), delta.to_json()));
        let reply = self.roundtrip(JsonValue::Object(fields))?;
        match reply.get("type").and_then(JsonValue::as_str) {
            Some("ok") => Ok(()),
            Some("refused") => Err(EngineError::CheckpointMismatch {
                reason: reply
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("delta refused")
                    .to_string(),
            }),
            other => Err(protocol_error(
                &self.addr,
                format!("unexpected delta reply {other:?}"),
            )),
        }
    }

    fn gate(&mut self, point: usize, epoch: usize) -> Result<EpochGate, EngineError> {
        let mut fields = message("gate");
        fields.push(("point".into(), JsonValue::Number(point as f64)));
        fields.push(("epoch".into(), JsonValue::Number(epoch as f64)));
        let reply = self.roundtrip(JsonValue::Object(fields))?;
        match reply.get("gate").and_then(JsonValue::as_str) {
            Some("run") => Ok(EpochGate::Run),
            Some("wait") => Ok(EpochGate::Wait),
            Some("skip") => Ok(EpochGate::Skip),
            other => Err(protocol_error(
                &self.addr,
                format!("unexpected gate reply {other:?}"),
            )),
        }
    }

    fn wait_for_progress(&mut self) -> Result<(), EngineError> {
        // Another shard must commit a block before our gates can change;
        // a short poll interval keeps the protocol request/reply-only.
        std::thread::sleep(std::time::Duration::from_millis(25));
        Ok(())
    }
}

/// The live coordinator's shared state: the engine merge plus the shard
/// claim table the TCP handlers operate on.
struct ServeState {
    coordinator: Coordinator,
    /// Shards currently held by a connected worker.
    claimed: Vec<bool>,
    /// Shards whose worker reported `done` (never handed out again).
    done: Vec<bool>,
    /// Accepted deltas per shard, replayed to a worker that re-claims the
    /// shard after its predecessor died.
    committed: Vec<Vec<TallyDelta>>,
    /// First checkpoint-write failure, surfaced after the sweep.
    checkpoint_error: Option<EngineError>,
}

/// Runs the TCP coordinator of a sweep to completion: accepts workers,
/// hands out shards, folds their deltas through the engine's
/// [`Coordinator`] (gating adaptively at block boundaries) and returns the
/// merged report with the job's metadata stamped in.
///
/// A worker that disconnects without sending `done` has its shard released
/// for the next `claim`, along with the deltas it already committed — so a
/// killed worker costs at most its in-flight block.  With `checkpoint`,
/// the committed tallies are persisted after every merge step in the same
/// format a single-process sweep writes.
///
/// # Errors
///
/// Returns an error when accepting fails, a checkpoint cannot be written,
/// or the final report is incomplete.
///
/// # Panics
///
/// Panics if a connection-handler thread panics.
pub fn serve(
    listener: &TcpListener,
    job: &SweepJob,
    checkpoint: Option<&Path>,
) -> Result<SweepReport, EngineError> {
    let num_shards = job.plan.num_shards;
    let state = Mutex::new(ServeState {
        coordinator: Coordinator::new(job.plan.clone()),
        claimed: vec![false; num_shards],
        done: vec![false; num_shards],
        committed: vec![Vec::new(); num_shards],
        checkpoint_error: None,
    });
    let wake_addr = listener
        .local_addr()
        .map_err(|e| transport_error("listener", e))?;

    // Persist the starting state up front: an unwritable checkpoint path
    // fails before any worker runs a shot.
    if let Some(path) = checkpoint {
        let locked = state.lock().expect("serve lock poisoned");
        locked.coordinator.checkpoint().save(path)?;
    }

    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), EngineError> {
        loop {
            {
                let locked = state.lock().expect("serve lock poisoned");
                if locked.coordinator.all_finished() {
                    return Ok(());
                }
            }
            let (stream, _) = listener
                .accept()
                .map_err(|e| transport_error("listener", e))?;
            let state = &state;
            scope.spawn(move || serve_connection(stream, job, state, checkpoint, wake_addr));
        }
    })?;
    let wall_clock_secs = start.elapsed().as_secs_f64();

    let state = state.into_inner().expect("serve lock poisoned");
    if let Some(error) = state.checkpoint_error {
        return Err(error);
    }
    let mut report = state.coordinator.report(wall_clock_secs, num_shards)?;
    job.stamp_meta(&mut report);
    Ok(report)
}

/// Serves one worker connection until it closes.  Transport errors drop
/// the connection (the worker sees them on its side); a connection that
/// ends without `done` releases its claimed shard for takeover.
fn serve_connection(
    mut stream: TcpStream,
    job: &SweepJob,
    state: &Mutex<ServeState>,
    checkpoint: Option<&Path>,
    wake_addr: std::net::SocketAddr,
) {
    stream.set_nodelay(true).ok();
    let mut claimed_shard: Option<usize> = None;
    let mut finished_cleanly = false;
    while let Ok(Some(request)) = recv_frame(&mut stream) {
        let reply = match request.get("type").and_then(JsonValue::as_str) {
            Some("claim") => {
                let mut locked = state.lock().expect("serve lock poisoned");
                let free =
                    (0..locked.claimed.len()).find(|&k| !locked.claimed[k] && !locked.done[k]);
                match free {
                    Some(shard) if claimed_shard.is_none() => {
                        locked.claimed[shard] = true;
                        claimed_shard = Some(shard);
                        let mut fields = message("assign");
                        fields.push(("shard".into(), JsonValue::Number(shard as f64)));
                        fields.push(("job".into(), job.to_json()));
                        fields.push((
                            "completed".into(),
                            JsonValue::Array(
                                locked.committed[shard]
                                    .iter()
                                    .map(TallyDelta::to_json)
                                    .collect(),
                            ),
                        ));
                        JsonValue::Object(fields)
                    }
                    _ => JsonValue::Object(message("drained")),
                }
            }
            Some("delta") => {
                let delta = request
                    .get("delta")
                    .ok_or_else(|| "delta frame missing delta".to_string())
                    .and_then(TallyDelta::from_json);
                match delta {
                    Ok(delta) => {
                        let mut locked = state.lock().expect("serve lock poisoned");
                        match locked.coordinator.submit(&delta) {
                            Ok(_) => {
                                let shard = delta.shard;
                                if !locked.committed[shard].contains(&delta) {
                                    locked.committed[shard].push(delta);
                                }
                                if let Some(path) = checkpoint {
                                    if locked.checkpoint_error.is_none() {
                                        if let Err(error) =
                                            locked.coordinator.checkpoint().save(path)
                                        {
                                            locked.checkpoint_error = Some(error);
                                        }
                                    }
                                }
                                if locked.coordinator.all_finished() {
                                    // Wake the accept loop so it notices.
                                    drop(locked);
                                    drop(TcpStream::connect(wake_addr));
                                }
                                JsonValue::Object(message("ok"))
                            }
                            Err(error) => {
                                let mut fields = message("refused");
                                fields
                                    .push(("message".into(), JsonValue::String(error.to_string())));
                                JsonValue::Object(fields)
                            }
                        }
                    }
                    Err(error) => {
                        let mut fields = message("refused");
                        fields.push(("message".into(), JsonValue::String(error)));
                        JsonValue::Object(fields)
                    }
                }
            }
            Some("gate") => {
                let point = request.get("point").and_then(JsonValue::as_usize);
                let epoch = request.get("epoch").and_then(JsonValue::as_usize);
                match (point, epoch) {
                    (Some(point), Some(epoch)) if point < job.plan.points.len() => {
                        let locked = state.lock().expect("serve lock poisoned");
                        let gate = match locked.coordinator.gate(point, epoch) {
                            EpochGate::Run => "run",
                            EpochGate::Wait => "wait",
                            EpochGate::Skip => "skip",
                        };
                        let mut fields = message("gate");
                        fields.push(("gate".into(), JsonValue::String(gate.into())));
                        JsonValue::Object(fields)
                    }
                    _ => JsonValue::Object(message("drained")),
                }
            }
            Some("done") => {
                if let Some(shard) = claimed_shard {
                    state.lock().expect("serve lock poisoned").done[shard] = true;
                }
                finished_cleanly = true;
                JsonValue::Object(message("ok"))
            }
            _ => JsonValue::Object(message("drained")),
        };
        if send_frame(&mut stream, &reply).is_err() {
            break;
        }
    }
    if let Some(shard) = claimed_shard {
        if !finished_cleanly {
            state.lock().expect("serve lock poisoned").claimed[shard] = false;
        }
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
    use q3de::sim::engine::ShardWorker;

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
    fn frames_round_trip_over_a_buffer() {
        let value = JsonValue::Object(vec![("type".into(), JsonValue::String("claim".into()))]);
        let mut buffer = Vec::new();
        send_frame(&mut buffer, &value).unwrap();
        send_frame(&mut buffer, &JsonValue::Number(7.0)).unwrap();
        let mut reader = io::Cursor::new(buffer);
        assert_eq!(recv_frame(&mut reader).unwrap(), Some(value));
        assert_eq!(
            recv_frame(&mut reader).unwrap(),
            Some(JsonValue::Number(7.0))
        );
        assert_eq!(recv_frame(&mut reader).unwrap(), None, "clean EOF");

        let mut truncated = io::Cursor::new(vec![0, 0, 0, 9, b'{']);
        assert!(recv_frame(&mut truncated).is_err());
        let mut oversized = io::Cursor::new(0xFFFF_FFFFu32.to_be_bytes().to_vec());
        assert!(recv_frame(&mut oversized).is_err());
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

    /// A cheap toy job: real plan and protocol, closure kernels instead of
    /// decoder simulations (the registry kernels are exercised by the
    /// `engine_shards` integration tests and the CI shard-smoke job).
    fn toy_job(num_shards: usize) -> (SweepJob, Vec<SweepPoint>) {
        let points = vec![
            SweepPoint::new("a", |s: u64| s.is_multiple_of(7)),
            SweepPoint::new("b", |s: u64| s.is_multiple_of(3)),
        ];
        let config = q3de::sim::engine::SweepConfig::fixed(300);
        let plan = ShardPlan::new(&config, &points, None, num_shards);
        (
            SweepJob {
                generator: generator(),
                plan,
            },
            points,
        )
    }

    #[test]
    fn tcp_sweep_matches_the_in_process_merge() {
        let (job, points) = toy_job(2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();

        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve(&listener, &job, None).unwrap());
            for _ in 0..2 {
                let addr = addr.clone();
                let points = &points;
                let job = &job;
                scope.spawn(move || {
                    let mut sink = RemoteSink::connect(&addr).unwrap();
                    let (shard, remote_job, completed) = sink.claim().unwrap().expect("shard free");
                    assert_eq!(remote_job.plan.fingerprint(), job.plan.fingerprint());
                    ShardWorker::new(&job.plan, shard)
                        .run(points, &completed, &mut sink, |_| {})
                        .unwrap();
                    sink.finish().unwrap();
                });
            }
            let report = server.join().unwrap();

            // The merged tallies equal a local coordinator fold of the same
            // plan run through in-process workers.
            let mut coordinator = Coordinator::new(job.plan.clone());
            for shard in 0..job.plan.num_shards {
                let mut deltas = Vec::new();
                struct Collect<'a>(&'a mut Vec<TallyDelta>);
                impl DeltaSink for Collect<'_> {
                    fn submit(&mut self, delta: TallyDelta) -> Result<(), EngineError> {
                        self.0.push(delta);
                        Ok(())
                    }
                    fn gate(&mut self, _: usize, _: usize) -> Result<EpochGate, EngineError> {
                        Ok(EpochGate::Run)
                    }
                }
                ShardWorker::new(&job.plan, shard)
                    .run(&points, &[], &mut Collect(&mut deltas), |_| {})
                    .unwrap();
                coordinator.submit_all(&deltas).unwrap();
            }
            let mut local = coordinator.report(0.0, 2).unwrap();
            job.stamp_meta(&mut local);
            let differences = diff_reports(&report.to_json(), &local.to_json());
            assert!(differences.is_empty(), "{differences:?}");
        });
    }
}

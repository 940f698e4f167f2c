//! Versioned run checkpoints: stop a federated run at a round boundary and
//! resume it later to the *same final trace, byte for byte*.
//!
//! A [`Checkpoint`] captures everything the remaining rounds depend on:
//!
//! - the global model snapshot (flat parameters + BatchNorm statistics),
//! - the mask and its wire epoch,
//! - every device's error-feedback residual,
//! - the full [`CostLedger`] so far (the resumed ledger *continues*, it
//!   does not restart),
//! - the virtual clock ("RNG state" is implicit: every stochastic draw in
//!   this workspace is a pure function of `(seed, round, device)`, so the
//!   seed plus the round counter *is* the RNG state),
//! - for buffered runs, the whole event-loop state: in-flight device
//!   tasks (with the raw local outcomes and the wire context each task
//!   trained under), per-device task counters, and the event budget.
//!
//! The format is a little-endian binary blob with a magic/version header;
//! floats are stored as raw IEEE-754 bits, which is what makes the
//! resume-determinism guarantee exact rather than approximate. Loading
//! validates a fingerprint of the run configuration (seed, fleet size,
//! rounds, scheduler, codec) and rejects checkpoints from a different run
//! with a typed error instead of silently diverging.

use crate::bytes::{
    put_bitvec, put_blob, put_bn_stats, put_bool, put_f32_vec, put_f64, put_u32, put_u64,
    ByteReader, ReadError,
};
use crate::ledger::CostLedger;
use crate::sched::{Scheduler, Sim};
use crate::train::LocalOutcome;
use crate::ExperimentEnv;
use ft_nn::ModelSnapshot;
use ft_sparse::Codec;
use std::path::Path;

const MAGIC: &[u8; 4] = b"FTCK";
// v2: the ledger blob grew fault/quarantine counters.
const VERSION: u32 = 2;

/// Why a checkpoint failed to save, load, or match the resuming run.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// Filesystem failure (message carries the `io::Error`).
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file is structurally broken.
    Corrupt(String),
    /// The checkpoint belongs to a different run (the message names the
    /// mismatching field).
    Mismatch(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "checkpoint format version {v} is not supported")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::Mismatch(field) => {
                write!(f, "checkpoint belongs to a different run: {field} differs")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<ReadError> for CheckpointError {
    fn from(e: ReadError) -> Self {
        CheckpointError::Corrupt(e.to_string())
    }
}

/// One in-flight device task of a buffered run, as persisted.
#[derive(Clone, Debug)]
pub(crate) struct TaskState {
    /// Everything but `secs`, which is not persisted: it is read only
    /// against a barrier's deadline, and only buffered runs persist tasks.
    pub(crate) sim: Sim,
    /// Mask epoch of the wire context the task trained under.
    pub(crate) ctx_epoch: u64,
    /// Aliveness of that context (segments are the model's, stored once).
    pub(crate) ctx_alive: Vec<bool>,
    pub(crate) outcome: LocalOutcome,
}

/// Buffered-scheduler event-loop state, present only in buffered
/// checkpoints (saved at post-aggregation boundaries, where the arrival
/// buffer is empty by construction).
#[derive(Clone, Debug, Default)]
pub(crate) struct BufferedState {
    pub(crate) last_agg_secs: f64,
    pub(crate) events: usize,
    pub(crate) task_counter: Vec<usize>,
    pub(crate) in_flight: Vec<TaskState>,
}

/// A resumable snapshot of a federated run at a round boundary.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Run-identity fingerprint, validated on resume.
    pub(crate) seed: u64,
    pub(crate) devices: usize,
    pub(crate) total_rounds: usize,
    pub(crate) scheduler: Scheduler,
    pub(crate) codec: Codec,
    /// The evaluation cadence the run was started with (changes the
    /// history shape mid-run, so it is part of the fingerprint).
    pub(crate) eval_every: usize,
    /// The *full* `FlConfig` as canonical JSON: any hyperparameter change
    /// (batch size, local epochs, learning rate, participation, …) alters
    /// the remaining rounds' math and must refuse to resume.
    pub(crate) cfg_json: String,
    /// Rounds (or buffered versions) completed so far.
    pub(crate) rounds_done: usize,
    pub(crate) epoch: u64,
    pub(crate) clock_now: f64,
    pub(crate) history: Vec<f32>,
    pub(crate) snapshot: ModelSnapshot,
    pub(crate) mask_layers: Vec<Vec<bool>>,
    /// The mask most recently *applied* to the model (`apply_mask` at a
    /// fold). A hook may have moved `mask_layers` past it
    /// without re-applying; the sparse-dispatch state the devices clone
    /// follows the applied mask, so resume must re-arm exactly this one.
    pub(crate) applied_mask_layers: Vec<Vec<bool>>,
    pub(crate) residuals: Vec<Vec<f32>>,
    pub(crate) ledger: CostLedger,
    pub(crate) buffered: Option<BufferedState>,
    /// Opaque method-specific hook state (see
    /// [`crate::server::RunOptions::hook_save`]).
    pub(crate) hook_state: Vec<u8>,
}

/// Deterministic, operator-facing digest of a [`Checkpoint`], produced by
/// [`Checkpoint::summary`]. Everything here round-trips identically across
/// hosts and `FT_THREADS` settings; host wall-clock totals are excluded on
/// purpose so rendered output can be compared against committed goldens.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointSummary {
    pub format_version: u32,
    /// `"barrier"` or `"buffered"` depending on saved scheduler state.
    pub kind: &'static str,
    pub seed: u64,
    pub devices: usize,
    pub total_rounds: usize,
    pub rounds_done: usize,
    pub scheduler: String,
    pub codec: String,
    pub eval_every: usize,
    pub mask_epoch: u64,
    pub sim_now_secs: f64,
    /// Accuracy history at the saved evaluation cadence.
    pub history: Vec<f32>,
    /// Flat parameter count of the saved model snapshot.
    pub params: usize,
    pub mask_density: f32,
    pub applied_mask_density: f32,
    /// Devices with a non-empty error-feedback residual.
    pub residual_devices: usize,
    pub timeline_events: usize,
    pub zero_progress_rounds: usize,
    pub payload_down_bytes: f64,
    pub payload_up_bytes: f64,
    pub analytic_comm_bytes: f64,
    pub max_round_flops: f64,
    pub faults: ft_metrics::FaultCounters,
    /// Buffered-scheduler tasks still in flight (0 for barrier runs).
    pub in_flight_tasks: usize,
    pub hook_state_bytes: usize,
    /// Canonical JSON of the full `FlConfig` the run was started with.
    pub config_fingerprint: String,
}

impl Checkpoint {
    /// Rounds completed when this checkpoint was taken.
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// Simulated seconds elapsed when this checkpoint was taken.
    pub fn sim_now_secs(&self) -> f64 {
        self.clock_now
    }

    /// Operator-facing view of the checkpoint (`ft ckpt inspect`). Every
    /// field is deterministic across hosts and thread counts — host
    /// wall-clock values inside the ledger are deliberately excluded — so
    /// the rendered output can be pinned by a committed golden file.
    pub fn summary(&self) -> CheckpointSummary {
        let density = |layers: &[Vec<bool>]| -> f32 {
            let total: usize = layers.iter().map(|l| l.len()).sum();
            if total == 0 {
                return 1.0;
            }
            let alive: usize = layers
                .iter()
                .map(|l| l.iter().filter(|&&a| a).count())
                .sum();
            alive as f32 / total as f32
        };
        CheckpointSummary {
            format_version: VERSION,
            kind: if self.buffered.is_some() {
                "buffered"
            } else {
                "barrier"
            },
            seed: self.seed,
            devices: self.devices,
            total_rounds: self.total_rounds,
            rounds_done: self.rounds_done,
            scheduler: format!("{:?}", self.scheduler),
            codec: self.codec.name().to_string(),
            eval_every: self.eval_every,
            mask_epoch: self.epoch,
            sim_now_secs: self.clock_now,
            history: self.history.clone(),
            params: self.snapshot.params.len(),
            mask_density: density(&self.mask_layers),
            applied_mask_density: density(&self.applied_mask_layers),
            residual_devices: self.residuals.iter().filter(|r| !r.is_empty()).count(),
            timeline_events: self.ledger.timeline().len(),
            zero_progress_rounds: self.ledger.zero_progress_rounds(),
            payload_down_bytes: self.ledger.total_payload_download_bytes(),
            payload_up_bytes: self.ledger.total_payload_upload_bytes(),
            analytic_comm_bytes: self.ledger.total_comm_bytes(),
            max_round_flops: self.ledger.max_round_flops(),
            faults: *self.ledger.faults(),
            in_flight_tasks: self.buffered.as_ref().map_or(0, |b| b.in_flight.len()),
            hook_state_bytes: self.hook_state.len(),
            config_fingerprint: self.cfg_json.clone(),
        }
    }

    /// Field-level diff of two checkpoints (`ft ckpt diff`): one line per
    /// differing field, empty when the checkpoints describe identical run
    /// state. Bulk payloads (parameters, masks, residuals) are summarized
    /// as differing-element counts rather than dumped.
    pub fn diff(&self, other: &Checkpoint) -> Vec<String> {
        let mut out = Vec::new();
        let mut scalar = |field: &str, a: String, b: String| {
            if a != b {
                out.push(format!("{field}: {a} != {b}"));
            }
        };
        scalar("seed", self.seed.to_string(), other.seed.to_string());
        scalar(
            "devices",
            self.devices.to_string(),
            other.devices.to_string(),
        );
        scalar(
            "total_rounds",
            self.total_rounds.to_string(),
            other.total_rounds.to_string(),
        );
        scalar(
            "scheduler",
            format!("{:?}", self.scheduler),
            format!("{:?}", other.scheduler),
        );
        scalar(
            "codec",
            self.codec.name().to_string(),
            other.codec.name().to_string(),
        );
        scalar(
            "eval_every",
            self.eval_every.to_string(),
            other.eval_every.to_string(),
        );
        scalar(
            "config_fingerprint",
            self.cfg_json.clone(),
            other.cfg_json.clone(),
        );
        scalar(
            "rounds_done",
            self.rounds_done.to_string(),
            other.rounds_done.to_string(),
        );
        scalar(
            "mask_epoch",
            self.epoch.to_string(),
            other.epoch.to_string(),
        );
        // Floats compare (and print) as exact bit patterns: the checkpoint
        // format's whole point is bit-exact state.
        scalar(
            "sim_now_secs",
            format!("{:?}", self.clock_now),
            format!("{:?}", other.clock_now),
        );
        if self.history != other.history {
            out.push(format!(
                "history: {} vs {} eval points{}",
                self.history.len(),
                other.history.len(),
                if self.history.len() == other.history.len() {
                    let n = self
                        .history
                        .iter()
                        .zip(&other.history)
                        .filter(|(a, b)| a.to_bits() != b.to_bits())
                        .count();
                    format!(", {n} differ")
                } else {
                    String::new()
                }
            ));
        }
        if self.snapshot.params.len() != other.snapshot.params.len() {
            out.push(format!(
                "params: {} vs {} coordinates",
                self.snapshot.params.len(),
                other.snapshot.params.len()
            ));
        } else {
            let n = self
                .snapshot
                .params
                .iter()
                .zip(&other.snapshot.params)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            if n > 0 {
                out.push(format!(
                    "params: {n}/{} coordinates differ",
                    self.snapshot.params.len()
                ));
            }
        }
        if self.snapshot.bn != other.snapshot.bn {
            out.push("bn_stats: differ".to_string());
        }
        let mask_bits = |a: &[Vec<bool>], b: &[Vec<bool>]| -> Option<usize> {
            if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.len() != y.len()) {
                return None;
            }
            Some(
                a.iter()
                    .zip(b)
                    .map(|(x, y)| x.iter().zip(y).filter(|(p, q)| p != q).count())
                    .sum(),
            )
        };
        match mask_bits(&self.mask_layers, &other.mask_layers) {
            None => out.push("mask: layouts differ".to_string()),
            Some(0) => {}
            Some(n) => out.push(format!("mask: {n} bits differ")),
        }
        match mask_bits(&self.applied_mask_layers, &other.applied_mask_layers) {
            None => out.push("applied_mask: layouts differ".to_string()),
            Some(0) => {}
            Some(n) => out.push(format!("applied_mask: {n} bits differ")),
        }
        if self.residuals != other.residuals {
            let n = self
                .residuals
                .iter()
                .zip(&other.residuals)
                .filter(|(a, b)| a != b)
                .count()
                .max(self.residuals.len().abs_diff(other.residuals.len()));
            out.push(format!("residuals: differ for {n} devices"));
        }
        let (sa, sb) = (self.summary(), other.summary());
        let mut ledger_scalar = |field: &str, a: String, b: String| {
            if a != b {
                out.push(format!("ledger.{field}: {a} != {b}"));
            }
        };
        ledger_scalar(
            "timeline_events",
            sa.timeline_events.to_string(),
            sb.timeline_events.to_string(),
        );
        ledger_scalar(
            "zero_progress_rounds",
            sa.zero_progress_rounds.to_string(),
            sb.zero_progress_rounds.to_string(),
        );
        ledger_scalar(
            "payload_down_bytes",
            format!("{:?}", sa.payload_down_bytes),
            format!("{:?}", sb.payload_down_bytes),
        );
        ledger_scalar(
            "payload_up_bytes",
            format!("{:?}", sa.payload_up_bytes),
            format!("{:?}", sb.payload_up_bytes),
        );
        ledger_scalar(
            "analytic_comm_bytes",
            format!("{:?}", sa.analytic_comm_bytes),
            format!("{:?}", sb.analytic_comm_bytes),
        );
        ledger_scalar(
            "faults",
            format!("{:?}", sa.faults),
            format!("{:?}", sb.faults),
        );
        if sa.kind != sb.kind {
            out.push(format!("kind: {} != {}", sa.kind, sb.kind));
        }
        if sa.in_flight_tasks != sb.in_flight_tasks {
            out.push(format!(
                "buffered.in_flight: {} != {}",
                sa.in_flight_tasks, sb.in_flight_tasks
            ));
        }
        if self.hook_state != other.hook_state {
            out.push(format!(
                "hook_state: {} vs {} bytes",
                self.hook_state.len(),
                other.hook_state.len()
            ));
        }
        out
    }

    /// Canonical JSON fingerprint of a run configuration.
    pub(crate) fn cfg_fingerprint(cfg: &crate::FlConfig) -> String {
        serde_json::to_string(cfg).expect("FlConfig serializes")
    }

    /// Rejects a checkpoint that was produced by a different run than
    /// `env` (and its evaluation cadence) describes. The named checks give
    /// readable errors for the common mismatches; the full-config JSON
    /// fingerprint catches every remaining hyperparameter (batch size,
    /// local epochs, learning rate, participation, …) whose change would
    /// make the resumed rounds silently diverge.
    pub fn validate_against(
        &self,
        env: &ExperimentEnv,
        eval_every: usize,
    ) -> Result<(), CheckpointError> {
        if self.seed != env.cfg.seed {
            return Err(CheckpointError::Mismatch("seed"));
        }
        if self.devices != env.num_devices() {
            return Err(CheckpointError::Mismatch("device count"));
        }
        if self.total_rounds != env.cfg.rounds {
            return Err(CheckpointError::Mismatch("round count"));
        }
        if self.scheduler != env.scheduler {
            return Err(CheckpointError::Mismatch("scheduler"));
        }
        if self.codec != env.cfg.codec {
            return Err(CheckpointError::Mismatch("codec"));
        }
        if self.eval_every != eval_every {
            return Err(CheckpointError::Mismatch("evaluation cadence"));
        }
        if self.cfg_json != Self::cfg_fingerprint(&env.cfg) {
            return Err(CheckpointError::Mismatch("run configuration"));
        }
        Ok(())
    }

    /// Serializes the checkpoint into its binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_bool(&mut out, self.buffered.is_some());
        put_u64(&mut out, self.seed);
        put_u64(&mut out, self.devices as u64);
        put_u64(&mut out, self.total_rounds as u64);
        encode_scheduler(&mut out, self.scheduler);
        encode_codec(&mut out, self.codec);
        put_u64(&mut out, self.eval_every as u64);
        put_blob(&mut out, self.cfg_json.as_bytes());
        put_u64(&mut out, self.rounds_done as u64);
        put_u64(&mut out, self.epoch);
        put_f64(&mut out, self.clock_now);
        put_f32_vec(&mut out, &self.history);
        put_f32_vec(&mut out, &self.snapshot.params);
        put_bn_stats(&mut out, &self.snapshot.bn);
        put_u32(&mut out, self.mask_layers.len() as u32);
        for layer in &self.mask_layers {
            put_bitvec(&mut out, layer);
        }
        put_u32(&mut out, self.applied_mask_layers.len() as u32);
        for layer in &self.applied_mask_layers {
            put_bitvec(&mut out, layer);
        }
        put_u32(&mut out, self.residuals.len() as u32);
        for r in &self.residuals {
            put_f32_vec(&mut out, r);
        }
        self.ledger.encode_ckpt(&mut out);
        put_blob(&mut out, &self.hook_state);
        if let Some(b) = &self.buffered {
            put_f64(&mut out, b.last_agg_secs);
            put_u64(&mut out, b.events as u64);
            put_u32(&mut out, b.task_counter.len() as u32);
            for &c in &b.task_counter {
                put_u64(&mut out, c as u64);
            }
            put_u32(&mut out, b.in_flight.len() as u32);
            for t in &b.in_flight {
                put_u64(&mut out, t.sim.device as u64);
                put_f64(&mut out, t.sim.start_secs);
                put_f64(&mut out, t.sim.finish_secs);
                put_u64(&mut out, t.sim.start_version as u64);
                put_bool(&mut out, t.sim.dropped);
                put_f64(&mut out, t.sim.analytic_flops);
                put_f64(&mut out, t.sim.analytic_bytes);
                put_f64(&mut out, t.sim.download_bytes);
                put_u64(&mut out, t.ctx_epoch);
                put_bitvec(&mut out, &t.ctx_alive);
                put_f32_vec(&mut out, &t.outcome.delta);
                put_bn_stats(&mut out, &t.outcome.bn);
                put_u64(&mut out, t.outcome.samples as u64);
                put_f64(&mut out, t.outcome.realized_flops);
                put_f64(&mut out, t.outcome.wall_secs);
            }
        }
        out
    }

    /// Parses a checkpoint from its binary form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < 8 || &bytes[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let mut r = ByteReader::new(&bytes[4..]);
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let is_buffered = r.boolean()?;
        let seed = r.u64()?;
        let devices = r.len_u64()?;
        let total_rounds = r.len_u64()?;
        let scheduler = decode_scheduler(&mut r)?;
        let codec = decode_codec(&mut r)?;
        let eval_every = r.len_u64()?;
        let cfg_json = String::from_utf8(r.blob()?)
            .map_err(|_| CheckpointError::Corrupt("config fingerprint not UTF-8".into()))?;
        let rounds_done = r.len_u64()?;
        let epoch = r.u64()?;
        let clock_now = r.f64()?;
        let history = r.f32_vec()?;
        let params = r.f32_vec()?;
        let bn = r.bn_stats()?;
        let layers = r.u32()? as usize;
        let mut mask_layers = Vec::with_capacity(layers.min(4096));
        for _ in 0..layers {
            mask_layers.push(r.bitvec()?);
        }
        let applied_layers = r.u32()? as usize;
        let mut applied_mask_layers = Vec::with_capacity(applied_layers.min(4096));
        for _ in 0..applied_layers {
            applied_mask_layers.push(r.bitvec()?);
        }
        let n_res = r.u32()? as usize;
        let mut residuals = Vec::with_capacity(n_res.min(65536));
        for _ in 0..n_res {
            residuals.push(r.f32_vec()?);
        }
        let ledger = CostLedger::decode_ckpt(&mut r)?;
        let hook_state = r.blob()?;
        let buffered = if is_buffered {
            let last_agg_secs = r.f64()?;
            let events = r.len_u64()?;
            let n_counters = r.u32()? as usize;
            let mut task_counter = Vec::with_capacity(n_counters.min(65536));
            for _ in 0..n_counters {
                task_counter.push(r.len_u64()?);
            }
            let n_tasks = r.u32()? as usize;
            let mut in_flight = Vec::with_capacity(n_tasks.min(65536));
            for _ in 0..n_tasks {
                let (device, start_secs, finish_secs) = (r.len_u64()?, r.f64()?, r.f64()?);
                in_flight.push(TaskState {
                    sim: Sim {
                        device,
                        start_secs,
                        secs: finish_secs - start_secs,
                        finish_secs,
                        start_version: r.len_u64()?,
                        dropped: r.boolean()?,
                        analytic_flops: r.f64()?,
                        analytic_bytes: r.f64()?,
                        download_bytes: r.f64()?,
                    },
                    ctx_epoch: r.u64()?,
                    ctx_alive: r.bitvec()?,
                    outcome: LocalOutcome {
                        delta: r.f32_vec()?,
                        bn: r.bn_stats()?,
                        samples: r.len_u64()?,
                        realized_flops: r.f64()?,
                        wall_secs: r.f64()?,
                    },
                });
            }
            Some(BufferedState {
                last_agg_secs,
                events,
                task_counter,
                in_flight,
            })
        } else {
            None
        };
        if r.remaining() != 0 {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes",
                r.remaining()
            )));
        }
        Ok(Checkpoint {
            seed,
            devices,
            total_rounds,
            scheduler,
            codec,
            eval_every,
            cfg_json,
            rounds_done,
            epoch,
            clock_now,
            history,
            snapshot: ModelSnapshot { params, bn },
            mask_layers,
            applied_mask_layers,
            residuals,
            ledger,
            buffered,
            hook_state,
        })
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename), so
    /// a crash mid-save can never leave a torn checkpoint behind. The temp
    /// name *appends* `.tmp` to the full file name (rather than replacing
    /// the extension), so sibling checkpoints like `run.synchronous` and
    /// `run.buffered` never collide on one temp file.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut tmp_name = path
            .file_name()
            .ok_or_else(|| CheckpointError::Io("checkpoint path has no file name".into()))?
            .to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        std::fs::write(&tmp, self.to_bytes()).map_err(|e| CheckpointError::Io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Loads a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

fn encode_scheduler(out: &mut Vec<u8>, s: Scheduler) {
    match s {
        Scheduler::Synchronous => out.push(0),
        Scheduler::Deadline { deadline_secs } => {
            out.push(1);
            put_f64(out, deadline_secs);
        }
        Scheduler::Buffered { buffer_k } => {
            out.push(2);
            put_u64(out, buffer_k as u64);
        }
    }
}

fn decode_scheduler(r: &mut ByteReader<'_>) -> Result<Scheduler, CheckpointError> {
    match r.u8()? {
        0 => Ok(Scheduler::Synchronous),
        1 => Ok(Scheduler::Deadline {
            deadline_secs: r.f64()?,
        }),
        2 => Ok(Scheduler::Buffered {
            buffer_k: r.len_u64()?,
        }),
        t => Err(CheckpointError::Corrupt(format!("scheduler tag {t}"))),
    }
}

fn encode_codec(out: &mut Vec<u8>, c: Codec) {
    match c {
        Codec::Dense => out.push(0),
        Codec::MaskCsr => out.push(1),
        Codec::QuantInt8 => out.push(2),
        Codec::TopK {
            k_frac,
            error_feedback,
        } => {
            out.push(3);
            crate::bytes::put_f32(out, k_frac);
            put_bool(out, error_feedback);
        }
    }
}

fn decode_codec(r: &mut ByteReader<'_>) -> Result<Codec, CheckpointError> {
    match r.u8()? {
        0 => Ok(Codec::Dense),
        1 => Ok(Codec::MaskCsr),
        2 => Ok(Codec::QuantInt8),
        3 => Ok(Codec::TopK {
            k_frac: r.f32()?,
            error_feedback: r.boolean()?,
        }),
        t => Err(CheckpointError::Corrupt(format!("codec tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_nn::BnStats;

    fn sample_checkpoint(buffered: bool) -> Checkpoint {
        Checkpoint {
            seed: 42,
            devices: 3,
            total_rounds: 4,
            scheduler: if buffered {
                Scheduler::Buffered { buffer_k: 2 }
            } else {
                Scheduler::Deadline { deadline_secs: 2.5 }
            },
            codec: Codec::TopK {
                k_frac: 0.1,
                error_feedback: true,
            },
            eval_every: 1,
            cfg_json: "{}".into(),
            rounds_done: 2,
            epoch: 3,
            clock_now: 123.456,
            history: vec![0.25, 0.5],
            snapshot: ModelSnapshot {
                params: vec![1.0, -2.5, 0.0],
                bn: vec![BnStats {
                    mean: vec![0.1],
                    var: vec![0.9],
                }],
            },
            mask_layers: vec![vec![true, false, true]],
            applied_mask_layers: vec![vec![true, true, true]],
            residuals: vec![vec![0.5], Vec::new(), vec![-1.0, 2.0]],
            ledger: {
                let mut l = CostLedger::new();
                l.record_round_flops(1e9);
                l.record_sim_round(5.5);
                l.record_payload_round(100.0, 50.0);
                l.record_realized_round(9e8, 0.1);
                l.add_comm(4096.0);
                l.record_timeline(crate::ledger::TimelineEvent {
                    device: 1,
                    round: 0,
                    start_secs: 0.0,
                    finish_secs: 5.5,
                    applied: true,
                    staleness: 2,
                });
                l
            },
            buffered: buffered.then(|| BufferedState {
                last_agg_secs: 7.5,
                events: 11,
                task_counter: vec![1, 2, 3],
                in_flight: vec![TaskState {
                    sim: Sim {
                        device: 2,
                        start_secs: 1.0,
                        secs: 8.0,
                        finish_secs: 9.0,
                        start_version: 1,
                        dropped: false,
                        analytic_flops: 1e8,
                        analytic_bytes: 2048.0,
                        download_bytes: 1024.0,
                    },
                    ctx_epoch: 2,
                    ctx_alive: vec![true, true, false],
                    outcome: LocalOutcome {
                        delta: vec![0.5, -0.5, 0.0],
                        bn: Vec::new(),
                        samples: 8,
                        realized_flops: 9e7,
                        wall_secs: 0.01,
                    },
                }],
            }),
            hook_state: vec![1, 2, 3, 4],
        }
    }

    fn assert_roundtrip(ck: &Checkpoint) {
        let back = Checkpoint::from_bytes(&ck.to_bytes()).expect("roundtrip");
        assert_eq!(back.seed, ck.seed);
        assert_eq!(back.rounds_done, ck.rounds_done);
        assert_eq!(back.scheduler, ck.scheduler);
        assert_eq!(back.codec, ck.codec);
        assert_eq!(back.eval_every, ck.eval_every);
        assert_eq!(back.cfg_json, ck.cfg_json);
        assert_eq!(back.clock_now.to_bits(), ck.clock_now.to_bits());
        assert_eq!(back.history, ck.history);
        assert_eq!(back.snapshot, ck.snapshot);
        assert_eq!(back.mask_layers, ck.mask_layers);
        assert_eq!(back.applied_mask_layers, ck.applied_mask_layers);
        assert_eq!(back.residuals, ck.residuals);
        assert_eq!(back.hook_state, ck.hook_state);
        assert_eq!(back.ledger.sim_secs_history(), ck.ledger.sim_secs_history());
        assert_eq!(back.ledger.timeline(), ck.ledger.timeline());
        assert_eq!(back.buffered.is_some(), ck.buffered.is_some());
        if let (Some(a), Some(b)) = (&back.buffered, &ck.buffered) {
            assert_eq!(a.task_counter, b.task_counter);
            assert_eq!(a.events, b.events);
            assert_eq!(a.in_flight.len(), b.in_flight.len());
            assert_eq!(a.in_flight[0].outcome.delta, b.in_flight[0].outcome.delta);
            assert_eq!(a.in_flight[0].ctx_alive, b.in_flight[0].ctx_alive);
        }
    }

    #[test]
    fn ckpt_roundtrips_barrier_and_buffered() {
        assert_roundtrip(&sample_checkpoint(false));
        assert_roundtrip(&sample_checkpoint(true));
    }

    #[test]
    fn ckpt_rejects_bad_magic_version_and_truncation() {
        let bytes = sample_checkpoint(false).to_bytes();
        assert!(matches!(
            Checkpoint::from_bytes(b"NOPE1234"),
            Err(CheckpointError::BadMagic)
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&wrong_version),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
        for cut in 8..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            Checkpoint::from_bytes(&trailing),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn ckpt_validates_run_fingerprint() {
        let mut ck = sample_checkpoint(false);
        let mut env = ExperimentEnv::tiny_for_tests(42);
        env.cfg.rounds = 4;
        env.scheduler = Scheduler::Deadline { deadline_secs: 2.5 };
        env.cfg.codec = Codec::TopK {
            k_frac: 0.1,
            error_feedback: true,
        };
        ck.cfg_json = Checkpoint::cfg_fingerprint(&env.cfg);
        assert_eq!(ck.validate_against(&env, 1), Ok(()));
        let mut other = env.clone();
        other.cfg.seed = 43;
        assert_eq!(
            ck.validate_against(&other, 1),
            Err(CheckpointError::Mismatch("seed"))
        );
        let mut other = env.clone();
        other.scheduler = Scheduler::Synchronous;
        assert_eq!(
            ck.validate_against(&other, 1),
            Err(CheckpointError::Mismatch("scheduler"))
        );
        let mut other = env.clone();
        other.cfg.codec = Codec::Dense;
        assert_eq!(
            ck.validate_against(&other, 1),
            Err(CheckpointError::Mismatch("codec"))
        );
        // A different evaluation cadence would change the history shape.
        assert_eq!(
            ck.validate_against(&env, 2),
            Err(CheckpointError::Mismatch("evaluation cadence"))
        );
        // Any other hyperparameter change is caught by the full-config
        // fingerprint: the resumed rounds would silently diverge.
        let mut other = env;
        other.cfg.batch_size += 1;
        assert_eq!(
            ck.validate_against(&other, 1),
            Err(CheckpointError::Mismatch("run configuration"))
        );
    }

    #[test]
    fn ckpt_save_load_via_file() {
        let dir = std::env::temp_dir().join("ft_ckpt_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("run.ckpt");
        let ck = sample_checkpoint(true);
        ck.save(&path).expect("save");
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(back.rounds_done, ck.rounds_done);
        assert_eq!(back.snapshot, ck.snapshot);
        std::fs::remove_file(&path).ok();
    }
}

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
//! resume-determinism guarantee exact rather than approximate. Beside the
//! state, a checkpoint carries its run's identity ([`RunIdentity`]: the
//! data recipe, the configuration, the scheduler, the fleet, the evaluation
//! cadence and the model's architecture) as one canonical JSON record.
//! Resume compares it with the resuming run's and refuses a checkpoint of
//! a different run with a typed error naming the first field that differs,
//! instead of silently diverging or panicking.

use crate::ledger::CostLedger;
use crate::sched::{Scheduler, Sim};
use crate::train::LocalOutcome;
use crate::transport::{put_bn_stats, read_bn_stats};
use crate::{ExperimentEnv, FlConfig};
use ft_data::SynthConfig;
use ft_metrics::DeviceProfile;
use ft_nn::{sparse_layout, take_snapshot, ArchInfo, BnStats, Model, ModelSnapshot};
use ft_sparse::wire::{
    put_bitvec, put_blob, put_bool, put_f32_vec, put_f64, put_u32, put_u64, WireReader,
};
use ft_sparse::DecodeError;
use serde::{Deserialize, Serialize, Value};
use std::path::Path;

const MAGIC: &[u8; 4] = b"FTCK";
// v3: one canonical JSON run identity replaced v2's per-field header and
// its `FlConfig` JSON string (v2: the ledger blob grew fault/quarantine
// counters).
const VERSION: u32 = 3;

/// Why a checkpoint failed to save, load, or match the resuming run.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// Filesystem failure (message carries the `io::Error`).
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not this build's: older and newer
    /// files alike are refused, since there is one decoder.
    UnsupportedVersion(u32),
    /// The file is structurally broken.
    Corrupt(String),
    /// The checkpoint belongs to a different run: the path of the first
    /// field of the run identity that differs (e.g. `cfg.batch_size`), or
    /// `hook state`.
    Mismatch(String),
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

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
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

/// Everything besides the saved state that the remaining rounds of a run
/// depend on, but for a method's own configuration (a round hook's, such as
/// FedTiny's), which is not recorded. Resume refuses a checkpoint whose
/// identity differs from the resuming run's in any leaf.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct RunIdentity {
    /// The recipe the data was generated from.
    data: SynthConfig,
    /// The run configuration with `threads` written as 0: parallel and
    /// sequential execution are bit-identical, so a run resumes under any
    /// worker count.
    cfg: FlConfig,
    scheduler: Scheduler,
    fleet: Vec<DeviceProfile>,
    /// The evaluation cadence, which shapes the accuracy history.
    eval_every: usize,
    /// The model's architecture: the snapshot, masks and residuals are laid
    /// out by it.
    arch: ArchInfo,
}

impl RunIdentity {
    /// The identity of a run of `env` at `eval_every` on a model of `arch`.
    pub(crate) fn new(env: &ExperimentEnv, eval_every: usize, arch: ArchInfo) -> Self {
        RunIdentity {
            data: env.synth,
            cfg: FlConfig {
                threads: 0,
                ..env.cfg
            },
            scheduler: env.scheduler,
            fleet: env.fleet.clone(),
            eval_every,
            arch,
        }
    }

    /// The record beside `other`'s, leaf by leaf: `(path, ours, theirs)`
    /// in record order, the values as compact JSON.
    fn leaves(&self, other: &RunIdentity) -> Vec<(String, String, String)> {
        let json = |v: &Value| serde_json::to_string(v).expect("a value tree serializes");
        let mut out = Vec::new();
        walk(
            &self.to_value(),
            &other.to_value(),
            "",
            &mut |path, a, b| {
                out.push((path.to_string(), json(a), json(b)));
            },
        );
        out
    }
}

/// Walks two value trees in step and calls `leaf` at every pair of leaves
/// with their path (`cfg.sgd.lr`, `fleet[2].dropout`). Objects with the same
/// keys descend key by key, and arrays of objects or arrays with the same
/// length index by index. Anything else is a leaf: a scalar, an array of
/// scalars, or a node whose shape differs between the sides (another enum
/// variant, another fleet size).
fn walk(a: &Value, b: &Value, path: &str, leaf: &mut dyn FnMut(&str, &Value, &Value)) {
    let key = |k: &str| match path {
        "" => k.to_string(),
        _ => format!("{path}.{k}"),
    };
    let branch = |v: &Value| matches!(v, Value::Map(_) | Value::Seq(_));
    match (a, b) {
        (Value::Map(x), Value::Map(y)) if x.iter().map(|e| &e.0).eq(y.iter().map(|e| &e.0)) => {
            for ((k, u), (_, v)) in x.iter().zip(y) {
                walk(u, v, &key(k), leaf);
            }
        }
        (Value::Seq(x), Value::Seq(y)) if x.len() == y.len() && x.iter().any(branch) => {
            for (i, (u, v)) in x.iter().zip(y).enumerate() {
                walk(u, v, &format!("{path}[{i}]"), leaf);
            }
        }
        _ => leaf(path, a, b),
    }
}

/// A resumable snapshot of a federated run at a round boundary.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The run this checkpoint belongs to, validated on resume.
    pub(crate) run: RunIdentity,
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
    pub rounds_done: usize,
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
    /// The run identity leaf by leaf, as `(path, JSON value)`: the data
    /// recipe, the configuration, the scheduler, the fleet, the evaluation
    /// cadence and the model's architecture.
    pub run: Vec<(String, String)>,
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
            rounds_done: self.rounds_done,
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
            run: self
                .run
                .leaves(&self.run)
                .into_iter()
                .map(|(path, value, _)| (path, value))
                .collect(),
        }
    }

    /// Field-level diff of two checkpoints (`ft ckpt diff`): one line per
    /// differing field, empty when the checkpoints describe identical run
    /// state. The run identity differs leaf by leaf (`run.cfg.seed: 1 !=
    /// 2`); bulk payloads (parameters, masks, residuals) are summarized as
    /// differing-element counts rather than dumped.
    pub fn diff(&self, other: &Checkpoint) -> Vec<String> {
        let (sa, sb) = (self.summary(), other.summary());
        // Floats compare (and print) as exact bit patterns: the checkpoint
        // format's whole point is bit-exact state.
        type Field = fn(&CheckpointSummary) -> String;
        let scalars: [(&str, Field); 5] = [
            ("kind", |s| s.kind.to_string()),
            ("rounds_done", |s| s.rounds_done.to_string()),
            ("mask_epoch", |s| s.mask_epoch.to_string()),
            ("sim_now_secs", |s| format!("{:?}", s.sim_now_secs)),
            ("buffered.in_flight", |s| s.in_flight_tasks.to_string()),
        ];
        let run = self.run.leaves(&other.run).into_iter();
        let mut out: Vec<String> = run
            .map(|(path, a, b)| (format!("run.{path}"), a, b))
            .chain(scalars.map(|(field, f)| (field.to_string(), f(&sa), f(&sb))))
            .filter(|(_, a, b)| a != b)
            .map(|(field, a, b)| format!("{field}: {a} != {b}"))
            .collect();
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
        // Every deterministic ledger axis (all but host wall-clock): a value,
        // or for a history how many entries differ.
        let axes = self.ledger.deterministic_axes().into_iter();
        let pairs = axes.zip(other.ledger.deterministic_axes());
        for ((axis, a), (_, b)) in pairs.filter(|((_, a), (_, b))| a != b) {
            out.push(match (&a[..], &b[..]) {
                ([a], [b]) => format!("ledger.{axis}: {a} != {b}"),
                _ => {
                    let n = a.iter().zip(&b).filter(|(x, y)| x != y).count();
                    format!(
                        "ledger.{axis}: {} vs {} entries, {n} differ",
                        a.len(),
                        b.len()
                    )
                }
            });
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

    /// Refuses a checkpoint of another run than `run`, naming the first
    /// leaf of the identity that differs.
    pub(crate) fn validate_against(&self, run: &RunIdentity) -> Result<(), CheckpointError> {
        match self.run.leaves(run).into_iter().find(|(_, a, b)| a != b) {
            None => Ok(()),
            Some((path, ..)) => Err(CheckpointError::Mismatch(path)),
        }
    }

    /// Refuses stored state that does not fit the resuming run's `model`
    /// and fleet of `devices`: the parameter count, the BatchNorm channels,
    /// both mask layouts, every non-empty residual and in-flight update, and
    /// the per-device vectors. Restoring any of them would panic. Once the
    /// identity matches, only a damaged or hand-edited file fails here.
    pub(crate) fn check_state(
        &self,
        model: &dyn Model,
        devices: usize,
    ) -> Result<(), CheckpointError> {
        let (snap, lens) = (take_snapshot(model), sparse_layout(model).lens());
        let channels = |bn: &[BnStats]| -> Vec<(usize, usize)> {
            bn.iter().map(|s| (s.mean.len(), s.var.len())).collect()
        };
        let (params, bn) = (snap.params.len(), channels(&snap.bn));
        let fits = |mask: &[Vec<bool>]| mask.iter().map(Vec::len).eq(lens.iter().copied());
        let tasks = || self.buffered.iter().flat_map(|b| &b.in_flight);
        let counters = self
            .buffered
            .as_ref()
            .map_or(devices, |b| b.task_counter.len());
        let misfit = if self.snapshot.params.len() != params {
            "parameter count"
        } else if channels(&self.snapshot.bn) != bn {
            "BatchNorm channels"
        } else if !fits(&self.mask_layers) || !fits(&self.applied_mask_layers) {
            "mask layout"
        } else if self
            .residuals
            .iter()
            .any(|r| !r.is_empty() && r.len() != params)
        {
            "residual length"
        } else if tasks().any(|t| {
            let o = &t.outcome;
            o.delta.len() != params || t.ctx_alive.len() != params || channels(&o.bn) != bn
        }) {
            "in-flight update"
        } else if (self.residuals.len(), counters) != (devices, devices)
            || tasks().any(|t| t.sim.device >= devices)
        {
            "device count"
        } else {
            return Ok(());
        };
        Err(CheckpointError::Corrupt(format!(
            "{misfit} does not fit the resuming run"
        )))
    }

    /// Serializes the checkpoint into its binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_bool(&mut out, self.buffered.is_some());
        let run = serde_json::to_string(&self.run).expect("the run identity serializes");
        put_blob(&mut out, run.as_bytes());
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
        let mut r = WireReader::new(&bytes[4..]);
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let is_buffered = r.bool()?;
        // One encoding per value: a record that re-serialises to other
        // bytes (say `1.0` for `1`) is refused.
        let json = r.blob()?;
        let run = std::str::from_utf8(json)
            .ok()
            .and_then(|text| serde_json::from_str::<RunIdentity>(text).ok())
            .filter(|run| serde_json::to_string(run).is_ok_and(|text| text.as_bytes() == json))
            .ok_or_else(|| {
                CheckpointError::Corrupt("run identity is not a canonical record".into())
            })?;
        let rounds_done = r.len_u64()?;
        let epoch = r.u64()?;
        let clock_now = r.f64()?;
        let history = r.f32_vec()?;
        let params = r.f32_vec()?;
        let bn = read_bn_stats(&mut r)?;
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
        let hook_state = r.blob()?.to_vec();
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
                        dropped: r.bool()?,
                        analytic_flops: r.f64()?,
                        analytic_bytes: r.f64()?,
                        download_bytes: r.f64()?,
                    },
                    ctx_epoch: r.u64()?,
                    ctx_alive: r.bitvec()?,
                    outcome: LocalOutcome {
                        delta: r.f32_vec()?,
                        bn: read_bn_stats(&mut r)?,
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
            return Err(DecodeError::TrailingBytes(r.remaining()).into());
        }
        Ok(Checkpoint {
            run,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelSpec;
    use ft_sparse::Codec;

    /// The sample run: [`ExperimentEnv::tiny_for_tests`] at seed 42 over
    /// 4 rounds with a TopK codec, on [`ModelSpec::small_cnn_test`].
    fn sample_env(scheduler: Scheduler) -> (ExperimentEnv, ArchInfo) {
        let mut env = ExperimentEnv::tiny_for_tests(42);
        env.cfg.rounds = 4;
        env.scheduler = scheduler;
        env.cfg.codec = Codec::TopK {
            k_frac: 0.1,
            error_feedback: true,
        };
        let arch = env.build_model(&ModelSpec::small_cnn_test()).arch();
        (env, arch)
    }

    fn sample_checkpoint(buffered: bool) -> Checkpoint {
        let (env, arch) = sample_env(if buffered {
            Scheduler::Buffered { buffer_k: 2 }
        } else {
            Scheduler::Deadline { deadline_secs: 2.5 }
        });
        Checkpoint {
            run: RunIdentity::new(&env, 1, arch),
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
        assert_eq!(back.summary().run, ck.summary().run);
        assert_eq!(back.rounds_done, ck.rounds_done);
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

    /// The exact bytes of both sample checkpoints, pinned as length and
    /// FNV-1a: a change to the checkpoint codec that moves a byte fails
    /// here. The run identity comes from the test presets, so changing
    /// those moves it too.
    #[test]
    fn byte_pin_sample_checkpoints() {
        let pin = |bytes: &[u8]| {
            let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            (bytes.len(), hash)
        };
        let barrier = pin(&sample_checkpoint(false).to_bytes());
        assert_eq!(barrier, (1527, 0xf518_2236_e867_5ed2));
        let buffered = pin(&sample_checkpoint(true).to_bytes());
        assert_eq!(buffered, (1682, 0x1825_41c9_4085_f529));
    }

    #[test]
    fn ckpt_rejects_bad_magic_version_and_truncation() {
        let bytes = sample_checkpoint(false).to_bytes();
        assert!(matches!(
            Checkpoint::from_bytes(b"NOPE1234"),
            Err(CheckpointError::BadMagic)
        ));
        // An older file is refused like a newer one: there is one decoder.
        for version in [2, 99] {
            let mut wrong_version = bytes.clone();
            wrong_version[4..8].copy_from_slice(&u32::to_le_bytes(version));
            assert_eq!(
                Checkpoint::from_bytes(&wrong_version).unwrap_err(),
                CheckpointError::UnsupportedVersion(version)
            );
        }
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
    fn ckpt_validates_run_identity() {
        let (env, arch) = sample_env(Scheduler::Deadline { deadline_secs: 2.5 });
        let mut ck = sample_checkpoint(false);
        let check = |ck: &Checkpoint, env: &ExperimentEnv, eval_every: usize| {
            ck.validate_against(&RunIdentity::new(env, eval_every, arch.clone()))
        };
        let mismatch = |path: &str| Err(CheckpointError::Mismatch(path.to_string()));
        assert_eq!(check(&ck, &env, 1), Ok(()));
        let mut other = env.clone();
        other.cfg.seed = 43;
        assert_eq!(check(&ck, &other, 1), mismatch("cfg.seed"));
        let mut other = env.clone();
        other.scheduler = Scheduler::Synchronous;
        assert_eq!(check(&ck, &other, 1), mismatch("scheduler"));
        let mut other = env.clone();
        other.cfg.codec = Codec::Dense;
        assert_eq!(check(&ck, &other, 1), mismatch("cfg.codec"));
        // A different evaluation cadence would change the history shape.
        assert_eq!(check(&ck, &env, 2), mismatch("eval_every"));
        // The worker count only changes wall-clock: a checkpoint taken on
        // one worker resumes on four.
        let mut one = env.clone();
        one.cfg.threads = 1;
        ck.run = RunIdentity::new(&one, 1, arch.clone());
        let mut other = env.clone();
        other.cfg.threads = 4;
        assert_eq!(check(&ck, &other, 1), Ok(()));
        // Any other hyperparameter change would make the resumed rounds
        // silently diverge.
        other.cfg.batch_size += 1;
        assert_eq!(check(&ck, &other, 1), mismatch("cfg.batch_size"));
    }

    /// Stored state that does not fit the resuming run is `Corrupt`, never a
    /// panic in the restore: one parameter short, one BatchNorm channel
    /// short, one mask bit short, a residual or an in-flight update one
    /// coordinate short, one device's task counter missing.
    #[test]
    fn ckpt_state_that_does_not_fit_the_model_is_corrupt() {
        use crate::{no_hook, run_with, InProcess, RunOptions, ServerError};
        use ft_sparse::Mask;
        type Damage = fn(&mut Checkpoint);
        let damages: [(&str, Damage); 6] = [
            ("parameter count", |ck| {
                ck.snapshot.params.pop();
            }),
            ("BatchNorm channels", |ck| {
                let bn = &mut ck.snapshot.bn[0];
                bn.mean.pop();
                bn.var.pop();
            }),
            ("mask layout", |ck| {
                ck.applied_mask_layers[0].pop();
            }),
            ("residual length", |ck| {
                ck.residuals[0] = vec![0.0; ck.snapshot.params.len() - 1];
            }),
            ("in-flight update", |ck| {
                ck.buffered.as_mut().unwrap().in_flight[0]
                    .outcome
                    .delta
                    .pop();
            }),
            ("device count", |ck| {
                ck.buffered.as_mut().unwrap().task_counter.pop();
            }),
        ];
        let mut env = ExperimentEnv::tiny_for_tests(5);
        env.scheduler = Scheduler::Buffered { buffer_k: 2 };
        let path = std::env::temp_dir().join(format!("ft_ckpt_misfit_{}.ckpt", std::process::id()));
        let run = |resume: bool| {
            let mut model = env.build_model(&ModelSpec::small_cnn_test());
            let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
            let mut transport = InProcess;
            let mut opts = RunOptions::new(&mut transport);
            opts.checkpoint = Some(path.clone());
            opts.resume = resume;
            opts.halt_after = Some(1);
            let mut ledger = CostLedger::new();
            run_with(
                model.as_mut(),
                &mut mask,
                &env,
                1,
                &mut ledger,
                &mut no_hook(),
                opts,
            )
        };
        run(false).expect("halted run");
        let saved = Checkpoint::load(&path).expect("load");
        for (what, damage) in damages {
            let mut ck = saved.clone();
            damage(&mut ck);
            ck.save(&path).expect("save");
            match run(true) {
                Err(ServerError::Checkpoint(CheckpointError::Corrupt(e))) => {
                    assert!(e.starts_with(what), "{what}: {e}")
                }
                other => panic!("{what}: {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// `ft ckpt diff` sees every deterministic ledger axis, histories and
    /// timeline contents included, floats by their bits, and nothing in a
    /// self-diff or in host wall-clock.
    #[test]
    fn ckpt_diff_covers_every_deterministic_ledger_axis() {
        let sample = sample_checkpoint(false);
        assert!(sample.diff(&sample.clone()).is_empty());
        fn event(finish_secs: f64) -> crate::ledger::TimelineEvent {
            crate::ledger::TimelineEvent {
                device: 0,
                round: 1,
                start_secs: 0.0,
                finish_secs,
                applied: true,
                staleness: 0,
            }
        }
        // Each change runs on both sides, with `x = +0.0` and with `x`.
        type Change = fn(&mut CostLedger, f64);
        let changes: [(&str, f64, Change); 12] = [
            ("round_flops", 1.0, |l, x| l.record_round_flops(x)),
            ("realized_flops", 1.0, |l, x| {
                l.record_realized_round(x, 0.5)
            }),
            ("sim_secs", 1.0, |l, x| l.record_sim_round(x)),
            ("sim_secs", -0.0, |l, x| l.record_sim_round(x)),
            ("analytic_comm_bytes", 1.0, |l, x| l.add_comm(x)),
            ("payload_down_bytes", 1.0, |l, x| {
                l.record_payload_round(x, 8.0)
            }),
            ("payload_up_bytes", 1.0, |l, x| {
                l.record_payload_round(8.0, x)
            }),
            ("payload_extra_bytes", 1.0, |l, x| l.add_payload_comm(x)),
            ("extra_flops", 1.0, |l, x| l.add_extra_flops(x)),
            ("zero_progress_rounds", 1.0, |l, x| {
                if x > 0.0 {
                    l.record_zero_progress()
                }
            }),
            ("timeline", 1.0, |l, x| l.record_timeline(event(1.0 + x))),
            ("faults", 1.0, |l, x| l.record_clipped(x as usize)),
        ];
        for (axis, x, change) in changes {
            let (mut a, mut b) = (sample.clone(), sample.clone());
            change(&mut a.ledger, 0.0);
            change(&mut b.ledger, x);
            let diff = a.diff(&b);
            let prefix = format!("ledger.{axis}: ");
            assert!(
                diff.len() == 1 && diff[0].starts_with(&prefix),
                "{axis} at {x:?}: {diff:?}"
            );
        }
        let (mut a, mut b) = (sample.clone(), sample);
        a.ledger.record_realized_round(1.0, 0.5);
        b.ledger.record_realized_round(1.0, 9.0);
        assert!(a.diff(&b).is_empty(), "wall-clock is not run state");
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

//! The transport-agnostic federation server: the round loop behind every
//! scheduler.
//!
//! Every round walks the same four phases — four functions
//! (`phase_broadcast`, `phase_collect`, `phase_aggregate`, `phase_advance`)
//! that a barrier round calls in order:
//!
//! ```text
//!   Broadcast ──▶ Collect ──▶ Aggregate ──▶ Advance ──▶ (next round)
//! ```
//!
//! - **Broadcast** — sample the round's cohort, pin the round anchor
//!   (global parameters + wire context + mask epoch), and take the
//!   cohort's error-feedback residuals.
//! - **Collect** — the [`Transport`] moves the snapshot to the devices and
//!   their encoded updates back (function calls for [`InProcess`], real
//!   frame bytes for `SimTime`/`Tcp`); the virtual fleet then decides each
//!   update's arrival time and survival (deadline cut, dropout).
//! - **Aggregate** — the accepted `(update, weight)` pairs go through
//!   [`Aggregator::aggregate_into`](crate::Aggregator::aggregate_into), BN
//!   statistics are averaged under the same weights, and the mask is
//!   re-applied. The weight is the sample count under the barrier and the
//!   staleness-discounted sample count under the buffered loop.
//! - **Advance** — timeline/ledger accounting, the method hook, periodic
//!   evaluation, optional checkpointing, and the round counter.
//!
//! The buffered (FedBuff-style) scheduler runs the *same phases* as an
//! event loop: `Collect` pops one simulated arrival at a time (updates
//! cross the transport's byte boundary at arrival), `Aggregate`/`Advance`
//! fire when the buffer fills, and `Broadcast` relaunches the finisher
//! from the newest global. A launch only fixes the task's simulated finish
//! time; the training itself is deferred and runs for every launched task
//! side by side at the next point its result is needed (see
//! `train_pending`). Because it interleaves device training with arrivals
//! it requires a local transport ([`Transport::is_local`]).
//!
//! Under the [`InProcess`] transport the loop reproduces the committed
//! golden traces byte for byte, and the `SimTime` transport proves on every
//! run that a real encode → bytes → decode boundary changes nothing.
//!
//! ## Checkpoint / resume
//!
//! [`RunOptions::checkpoint`] saves a versioned [`Checkpoint`] at round
//! boundaries; [`RunOptions::resume`] picks an existing one up and
//! continues to the *same final trace, byte for byte* (see
//! `tests/checkpoint_resume.rs`).

use crate::aggregate::{staleness_weight, try_aggregate_bn_stats};
use crate::checkpoint::{BufferedState, Checkpoint, CheckpointError, CheckpointSpec, TaskState};
use crate::config::ConfigError;
use crate::env::ExperimentEnv;
use crate::ledger::{CostLedger, TimelineEvent};
use crate::rounds::{sample_cohort, RoundHook};
use crate::sched::{
    broadcast_payload_len, device_round_cost, should_eval, survivor_updates, PresenceSchedule,
    Scheduler,
};
use crate::train::{fans_out, thread_budget, train_one_device_raw, DeviceUpdate, LocalOutcome};
use crate::transport::{Delivery, InProcess, RoundRequest, Transport, TransportError};
use ft_data::Dataset;
use ft_metrics::{densities_from_mask, sparse_model_bytes, training_flops, SimClock};
use ft_nn::{
    apply_mask, flat_params, flat_params_into, restore_snapshot, set_flat_params, take_snapshot,
    wire_ctx, Model,
};
use ft_sparse::{Codec, Mask, Payload, WireCtx};
use std::cell::Cell;

/// Why a server run could not start or finish.
#[derive(Debug)]
pub enum ServerError {
    /// The run configuration failed structural validation.
    Config(ConfigError),
    /// The transport failed mid-run (socket error, bad frame).
    Transport(TransportError),
    /// A checkpoint could not be saved, loaded, or matched to this run.
    Checkpoint(CheckpointError),
    /// The scheduler needs a local transport (buffered aggregation
    /// interleaves training with arrivals).
    UnsupportedScheduler {
        /// The offending transport's name.
        transport: &'static str,
        /// The offending scheduler's name.
        scheduler: &'static str,
    },
    /// The codec keeps device-side error-feedback state the server cannot
    /// roll back over a remote transport: a deadline-cut or dropped upload
    /// would silently drain the device's residual and diverge from the
    /// in-process run.
    UnsupportedCodec {
        /// The offending transport's name.
        transport: &'static str,
        /// The offending codec's name.
        codec: &'static str,
    },
    /// A buffered checkpoint was asked to persist an in-flight task whose
    /// deferred training had not run — a bug in the event loop's flush
    /// points, reported instead of writing a checkpoint that cannot resume.
    UntrainedTask {
        /// The device whose task had no trained outcome.
        device: usize,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Config(e) => write!(f, "invalid configuration: {e}"),
            ServerError::Transport(e) => write!(f, "transport failure: {e}"),
            ServerError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            ServerError::UnsupportedScheduler {
                transport,
                scheduler,
            } => write!(
                f,
                "the {scheduler} scheduler requires a local transport, got {transport}"
            ),
            ServerError::UnsupportedCodec { transport, codec } => write!(
                f,
                "the {codec} codec keeps device-side error-feedback state and \
                 requires a local transport, got {transport}"
            ),
            ServerError::UntrainedTask { device } => write!(
                f,
                "in-flight task of device {device} reached a checkpoint untrained"
            ),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<ConfigError> for ServerError {
    fn from(e: ConfigError) -> Self {
        ServerError::Config(e)
    }
}

impl From<TransportError> for ServerError {
    fn from(e: TransportError) -> Self {
        ServerError::Transport(e)
    }
}

impl From<CheckpointError> for ServerError {
    fn from(e: CheckpointError) -> Self {
        ServerError::Checkpoint(e)
    }
}

/// Serializes method-specific hook state for the checkpoint.
pub type HookSave<'a> = &'a dyn Fn() -> Vec<u8>;
/// Restores what a [`HookSave`] captured.
pub type HookLoad<'a> = &'a dyn Fn(&[u8]);

/// How to run a federation: the transport plus durability knobs.
pub struct RunOptions<'a> {
    /// The transport device updates travel over.
    pub transport: &'a mut dyn Transport,
    /// Save a [`Checkpoint`] here at round boundaries.
    pub checkpoint: Option<CheckpointSpec>,
    /// If the checkpoint file already exists, resume from it instead of
    /// starting over (a missing file starts fresh, so passing `--resume`
    /// unconditionally is idempotent).
    pub resume: bool,
    /// Test/ops hook emulating a kill: stop (after saving any due
    /// checkpoint) once this many rounds have completed.
    pub halt_after: Option<usize>,
    /// Serializes method-specific hook state into the checkpoint (e.g.
    /// FedTiny's progressive-adjustment counter), so resumed hooks continue
    /// where they left off.
    pub hook_save: Option<HookSave<'a>>,
    /// Restores what [`hook_save`](Self::hook_save) captured.
    pub hook_load: Option<HookLoad<'a>>,
    /// Dynamic device registry: which devices are enrolled at which round
    /// (churn). Absent devices are filtered out of every sampled cohort,
    /// and rejoining devices are announced to the transport so it can
    /// re-accept their connection before the broadcast. `None` (or a
    /// trivial schedule) is the classic always-present fleet, bit for bit.
    /// Barrier schedulers only — the buffered event loop has no round
    /// boundary for a device to leave at and ignores the schedule.
    pub presence: Option<PresenceSchedule>,
    /// Live observability: at every round (barrier) or aggregation
    /// (buffered) boundary the server publishes the ledger's cumulative
    /// totals and any new [`TimelineEvent`]s to this hub, where a metrics
    /// endpoint serves them to scrapers and `ft watch` subscribers.
    /// Strictly observational — the hub only ever receives values the
    /// ledger already computed, so `None` and `Some` runs are
    /// bit-identical (golden traces included).
    pub metrics: Option<std::sync::Arc<ft_metrics::MetricsHub>>,
}

impl<'a> RunOptions<'a> {
    /// Plain options: run on `transport`, no checkpointing.
    pub fn new(transport: &'a mut dyn Transport) -> Self {
        RunOptions {
            transport,
            checkpoint: None,
            resume: false,
            halt_after: None,
            hook_save: None,
            hook_load: None,
            presence: None,
            metrics: None,
        }
    }
}

/// Runs `env.cfg.rounds` federated rounds through the four phases on the
/// given transport, with optional checkpoint/resume. Behavior under
/// [`InProcess`] is identical to the classic
/// [`run_federated_rounds`](crate::run_federated_rounds) — that function is
/// now a thin wrapper over this one.
///
/// Returns the accuracy history (always nonempty on a completed run;
/// possibly empty when halted early via [`RunOptions::halt_after`] before
/// the first evaluation).
pub fn run_with(
    global: &mut dyn Model,
    mask: &mut Mask,
    env: &ExperimentEnv,
    eval_every: usize,
    ledger: &mut CostLedger,
    hook: &mut RoundHook<'_>,
    opts: RunOptions<'_>,
) -> Result<Vec<f32>, ServerError> {
    let rt = env.cfg.runtime();
    run_on(global, mask, env, eval_every, ledger, hook, opts, rt)
}

/// [`run_with`] on an explicit worker pool — device fan-out and server-side
/// kernel parallelism share its thread budget for the whole run. Tests pass
/// [`Runtime::exact`](ft_runtime::Runtime::exact) to force real fan-out on
/// any host.
#[allow(clippy::too_many_arguments)]
fn run_on(
    global: &mut dyn Model,
    mask: &mut Mask,
    env: &ExperimentEnv,
    eval_every: usize,
    ledger: &mut CostLedger,
    hook: &mut RoundHook<'_>,
    mut opts: RunOptions<'_>,
    rt: ft_runtime::Runtime,
) -> Result<Vec<f32>, ServerError> {
    env.cfg.validate()?;
    env.scheduler.validate()?;
    if !opts.transport.is_local() && matches!(env.scheduler, Scheduler::Buffered { .. }) {
        return Err(ServerError::UnsupportedScheduler {
            transport: opts.transport.name(),
            scheduler: env.scheduler.name(),
        });
    }
    // Error-feedback residuals live on the device; the in-process loops
    // roll them back when an upload is lost, which no wire protocol here
    // can do for a remote device. Refuse rather than silently diverge from
    // the in-process run.
    if !opts.transport.is_local() && env.cfg.codec.uses_error_feedback() {
        return Err(ServerError::UnsupportedCodec {
            transport: opts.transport.name(),
            codec: env.cfg.codec.name(),
        });
    }

    // Resume: pick up a previous run's state if a matching checkpoint
    // exists at the configured path.
    let resumed: Option<Checkpoint> = match (&opts.checkpoint, opts.resume) {
        (Some(spec), true) if spec.path.exists() => {
            let ck = Checkpoint::load(&spec.path)?;
            ck.validate_against(env, eval_every)?;
            Some(ck)
        }
        _ => None,
    };

    let mut state = ServerState {
        env,
        eval_every,
        clock: SimClock::new(env.cfg.seed),
        epoch: 0,
        round: 0,
        residuals: vec![Vec::new(); env.num_devices()],
        history: Vec::new(),
        applied_mask: mask.clone(),
        agg_scratch: crate::aggregate::AggScratch::new(),
        published_events: 0,
        last_cohort: 0,
    };
    let mut buffered_resume: Option<BufferedState> = None;
    if let Some(ck) = resumed {
        state.round = ck.rounds_done;
        state.epoch = ck.epoch;
        state.clock.advance_to(ck.clock_now);
        state.residuals = ck.residuals;
        state.history = ck.history;
        *ledger = ck.ledger;
        restore_snapshot(global, &ck.snapshot);
        *mask = Mask::from_layers(ck.mask_layers);
        // Re-arm the sparse dispatch exactly as the uninterrupted run had
        // it: the *applied* mask (last `apply_mask` in an Aggregate phase)
        // may lag the current mask when a hook moved it without
        // re-applying. Pruned coordinates are already zero in the
        // snapshot, so this only notes the mask on the params.
        state.applied_mask = Mask::from_layers(ck.applied_mask_layers);
        apply_mask(global, &state.applied_mask);
        if let (Some(load), true) = (opts.hook_load, !ck.hook_state.is_empty()) {
            load(&ck.hook_state);
        }
        buffered_resume = ck.buffered;
        if state.round >= env.cfg.rounds {
            // The checkpointed run had already finished.
            opts.transport.shutdown();
            if state.history.is_empty() {
                state
                    .history
                    .push(crate::train::evaluate(global, &env.test));
            }
            return Ok(state.history);
        }
    }

    global.set_runtime(rt);
    let result = match env.scheduler {
        Scheduler::Synchronous => {
            state.run_barrier(global, mask, ledger, hook, &mut opts, rt, None)
        }
        Scheduler::Deadline { deadline_secs } => state.run_barrier(
            global,
            mask,
            ledger,
            hook,
            &mut opts,
            rt,
            Some(deadline_secs),
        ),
        Scheduler::Buffered { buffer_k } => state.run_buffered(
            global,
            mask,
            ledger,
            hook,
            &mut opts,
            rt,
            buffer_k,
            buffered_resume,
        ),
    };
    // Final flush: trailing collect events (buffered arrivals that never
    // aggregated) and zero-progress filler rounds reach the hub too, so a
    // post-run scrape agrees with the finished ledger exactly.
    state.publish_metrics(&opts, ledger);
    opts.transport.shutdown();
    result
}

/// Cross-round server state shared by both round loops.
struct ServerState<'e> {
    env: &'e ExperimentEnv,
    eval_every: usize,
    clock: SimClock,
    /// Wire epoch of the current mask (bumped whenever a hook changes it).
    epoch: u64,
    /// Completed rounds (barrier) or aggregations (buffered).
    round: usize,
    /// Per-device error-feedback accumulators.
    residuals: Vec<Vec<f32>>,
    history: Vec<f32>,
    /// The mask most recently applied to the model (Aggregate phase) —
    /// checkpointed separately from the current mask because a hook may
    /// move the mask without re-applying it.
    applied_mask: Mask,
    /// Recycled buffers of the sharded Aggregate phase: accumulators,
    /// produced params, robust-rule delta buffers, and the shard plan keyed
    /// by mask epoch. Steady-state rounds aggregate without allocating.
    agg_scratch: crate::aggregate::AggScratch,
    /// Timeline entries already pushed to the metrics hub (a cursor into
    /// `ledger.timeline()`); 0 on resume so the hub replays the resumed
    /// history and its histogram still matches the ledger exactly.
    published_events: usize,
    /// Cohort size of the last aggregation, re-published by the final
    /// flush so the gauge survives the end of the run.
    last_cohort: usize,
}

/// Scratch state of one in-flight barrier round, threaded through the
/// phases.
struct BarrierRound {
    cohort: Vec<usize>,
    parts: Vec<Dataset>,
    ctx: WireCtx,
    anchor: Vec<f32>,
    broadcast_len: f64,
    cohort_residuals: Vec<Vec<f32>>,
    residuals_before: Vec<Vec<f32>>,
    updates: Vec<Delivery>,
    per_sample_flops: f64,
    analytic_bytes: f64,
    round_start: f64,
    finish: Vec<f64>,
    alive: Vec<bool>,
    max_upload: f64,
    progressed: bool,
}

impl ServerState<'_> {
    /// Publishes new timeline events and the ledger's cumulative totals to
    /// the hub in `opts.metrics`, if any. Read-only against the run state —
    /// calling this more or less often cannot change what a run computes.
    fn publish_metrics(&mut self, opts: &RunOptions<'_>, ledger: &CostLedger) {
        let Some(hub) = &opts.metrics else { return };
        let timeline = ledger.timeline();
        for ev in &timeline[self.published_events.min(timeline.len())..] {
            hub.record_event(&ft_metrics::TraceEvent {
                device: ev.device as u64,
                round: ev.round as u64,
                start_secs: ev.start_secs,
                finish_secs: ev.finish_secs,
                applied: ev.applied,
                staleness: ev.staleness as u64,
            });
        }
        self.published_events = timeline.len();
        hub.observe_round(ft_metrics::RoundStats {
            rounds_completed: self.round as u64,
            cohort_size: self.last_cohort as u64,
            devices: self.env.num_devices() as u64,
            payload_down_bytes: ledger.payload_down_history().iter().sum(),
            payload_up_bytes: ledger.total_payload_upload_bytes(),
            sim_makespan_secs: ledger.sim_makespan_secs(),
            zero_progress_rounds: ledger.zero_progress_rounds() as u64,
            faults: *ledger.faults(),
        });
    }

    /// Assembles the checkpoint for the current state.
    fn checkpoint(
        &self,
        global: &dyn Model,
        mask: &Mask,
        ledger: &CostLedger,
        opts: &RunOptions<'_>,
        buffered: Option<BufferedState>,
    ) -> Checkpoint {
        Checkpoint {
            seed: self.env.cfg.seed,
            devices: self.env.num_devices(),
            total_rounds: self.env.cfg.rounds,
            scheduler: self.env.scheduler,
            codec: self.env.cfg.codec,
            eval_every: self.eval_every,
            cfg_json: Checkpoint::cfg_fingerprint(&self.env.cfg),
            rounds_done: self.round,
            epoch: self.epoch,
            clock_now: self.clock.now(),
            history: self.history.clone(),
            snapshot: take_snapshot(global),
            mask_layers: (0..mask.num_layers())
                .map(|l| mask.layer(l).to_vec())
                .collect(),
            applied_mask_layers: (0..self.applied_mask.num_layers())
                .map(|l| self.applied_mask.layer(l).to_vec())
                .collect(),
            residuals: self.residuals.clone(),
            ledger: ledger.clone(),
            buffered,
            hook_state: opts.hook_save.map(|f| f()).unwrap_or_default(),
        }
    }

    /// Saves a due checkpoint; returns `true` when the run should halt
    /// (the `halt_after` kill-emulation hook). `buffered` snapshots the
    /// buffered event loop and is only called when a checkpoint is written.
    fn checkpoint_and_halt(
        &self,
        global: &dyn Model,
        mask: &Mask,
        ledger: &CostLedger,
        opts: &RunOptions<'_>,
        buffered: impl FnOnce() -> Result<Option<BufferedState>, ServerError>,
    ) -> Result<bool, ServerError> {
        if let Some(spec) = &opts.checkpoint {
            if spec.due(self.round) || opts.halt_after == Some(self.round) {
                self.checkpoint(global, mask, ledger, opts, buffered()?)
                    .save(&spec.path)?;
            }
        }
        Ok(opts.halt_after == Some(self.round))
    }

    // -----------------------------------------------------------------
    // Barrier rounds (Synchronous, Deadline)
    // -----------------------------------------------------------------

    /// Barrier-style rounds: the four phases, in order, once per round.
    #[allow(clippy::too_many_arguments)]
    fn run_barrier(
        &mut self,
        global: &mut dyn Model,
        mask: &mut Mask,
        ledger: &mut CostLedger,
        hook: &mut RoundHook<'_>,
        opts: &mut RunOptions<'_>,
        rt: ft_runtime::Runtime,
        deadline: Option<f64>,
    ) -> Result<Vec<f32>, ServerError> {
        let env = self.env;
        let arch = global.arch();
        let max_samples = env.parts.iter().map(|p| p.len()).max().unwrap_or(0) as f64;
        let codec = env.cfg.codec;
        let presence = opts.presence.clone().unwrap_or_default();

        while self.round < env.cfg.rounds {
            let local = opts.transport.is_local();
            let mut rs = self.phase_broadcast(&*global, mask, codec, local, &presence);
            self.phase_collect(
                &mut rs,
                &*global,
                mask,
                &arch,
                codec,
                &rt,
                deadline,
                &presence,
                &mut *opts.transport,
            )?;
            self.phase_aggregate(&mut rs, global, mask, &rt, ledger);
            let halt = self.phase_advance(
                rs,
                global,
                mask,
                ledger,
                hook,
                opts,
                &rt,
                deadline,
                max_samples,
            )?;
            if halt {
                return Ok(std::mem::take(&mut self.history));
            }
        }
        if self.history.is_empty() {
            self.history.push(crate::train::evaluate(global, &env.test));
        }
        Ok(std::mem::take(&mut self.history))
    }

    /// Broadcast: sample the cohort, pin the round anchor and wire
    /// context, and take the cohort's error-feedback residuals.
    fn phase_broadcast(
        &mut self,
        global: &dyn Model,
        mask: &Mask,
        codec: Codec,
        local: bool,
        presence: &PresenceSchedule,
    ) -> BarrierRound {
        let env = self.env;
        // Partial participation: sample the round's cohort (all devices at
        // participation = 1.0, the paper's setting), then drop members the
        // churn schedule marks absent this round.
        let mut cohort = sample_cohort(env, self.round);
        if !presence.is_trivial() {
            let round = self.round;
            cohort.retain(|&k| presence.enrolled(round, k));
        }
        // Remote devices hold their own data — cloning the cohort datasets
        // would be pure memcpy the transport never reads.
        let parts: Vec<Dataset> = if local {
            cohort.iter().map(|&k| env.parts[k].clone()).collect()
        } else {
            Vec::new()
        };

        // The round's anchor and wire context. Within a barrier round the
        // server and every device share the mask epoch (the mask only moves
        // in the post-aggregation hook), so uploads are values-only.
        let ctx = wire_ctx(global, mask, self.epoch);
        let anchor = flat_params(global);
        let broadcast_len = broadcast_payload_len(codec, &ctx) as f64;
        let cohort_residuals: Vec<Vec<f32>> = cohort
            .iter()
            .map(|&k| std::mem::take(&mut self.residuals[k]))
            .collect();
        // Encoding consumes transmitted mass from the error-feedback
        // residuals; keep the pre-round state so a device whose upload is
        // then dropped or cut at the deadline can roll back (a lost upload
        // must leave the residual untouched, matching the buffered loop).
        let residuals_before: Vec<Vec<f32>> = if codec.uses_error_feedback() {
            cohort_residuals.clone()
        } else {
            Vec::new()
        };
        BarrierRound {
            cohort,
            parts,
            ctx,
            anchor,
            broadcast_len,
            cohort_residuals,
            residuals_before,
            updates: Vec::new(),
            per_sample_flops: 0.0,
            analytic_bytes: 0.0,
            round_start: 0.0,
            finish: Vec::new(),
            alive: Vec::new(),
            max_upload: 0.0,
            progressed: false,
        }
    }

    /// Collect: the transport moves the snapshot down and the updates
    /// back; the simulated fleet then fixes every cohort member's arrival
    /// time and survival, billed at the measured wire bytes.
    #[allow(clippy::too_many_arguments)]
    fn phase_collect(
        &mut self,
        rs: &mut BarrierRound,
        global: &dyn Model,
        mask: &Mask,
        arch: &ft_nn::ArchInfo,
        codec: Codec,
        rt: &ft_runtime::Runtime,
        deadline: Option<f64>,
        presence: &PresenceSchedule,
        transport: &mut dyn Transport,
    ) -> Result<(), ServerError> {
        let env = self.env;
        // Ground truth each cohort member's sample claim can be screened
        // against: the server knows every device's partition size.
        let sample_caps: Vec<usize> = rs.cohort.iter().map(|&k| env.parts[k].len()).collect();
        let rejoining = if presence.is_trivial() {
            Vec::new()
        } else {
            presence.rejoining_devices(self.round, env.num_devices())
        };
        let mut req = RoundRequest {
            global,
            mask,
            ctx: &rs.ctx,
            epoch: self.epoch,
            round: self.round,
            cohort: &rs.cohort,
            parts: &rs.parts,
            cfg: &env.cfg,
            rt,
            residuals: &mut rs.cohort_residuals,
            sample_caps: &sample_caps,
            rejoining: &rejoining,
        };
        rs.updates = transport.exchange_round(&mut req)?;
        for (taken, &k) in rs.cohort_residuals.iter_mut().zip(rs.cohort.iter()) {
            self.residuals[k] = std::mem::take(taken);
        }

        // Simulated fleet: finish time and survival of every cohort
        // member, with link time billed at the *measured* wire bytes
        // (broadcast down + encoded upload back).
        let densities = densities_from_mask(mask);
        rs.per_sample_flops = training_flops(arch, &densities);
        rs.analytic_bytes = 2.0 * sparse_model_bytes(arch, &densities);
        rs.round_start = self.clock.now();
        rs.finish = Vec::with_capacity(rs.cohort.len());
        rs.alive = Vec::with_capacity(rs.cohort.len());
        for (d, &k) in rs.updates.iter().zip(rs.cohort.iter()) {
            let Some(u) = d.update() else {
                // Quarantined member: its bytes never became an update, so
                // it has no finish time and cannot survive. `device_secs`
                // and `dropout_hits` are pure functions of `(round,
                // device)`, so skipping them here perturbs nobody else.
                rs.finish.push(0.0);
                rs.alive.push(false);
                continue;
            };
            let profile = env.device_profile(k);
            let flops = rs.per_sample_flops * u.samples as f64 * env.cfg.local_epochs as f64;
            let upload = u.payload.encoded_len(&rs.ctx) as f64;
            rs.max_upload = rs.max_upload.max(upload);
            let secs =
                self.clock
                    .device_secs(&profile, flops, rs.broadcast_len + upload, self.round, k);
            let timely = deadline.is_none_or(|d| secs <= d);
            let dropped = self.clock.dropout_hits(&profile, self.round, k);
            rs.finish.push(secs);
            rs.alive.push(timely && !dropped);
        }
        // Lost uploads keep their pre-round error-feedback residual: the
        // mass the encode step drained never reached the server.
        if codec.uses_error_feedback() {
            for ((&k, &a), before) in rs
                .cohort
                .iter()
                .zip(rs.alive.iter())
                .zip(std::mem::take(&mut rs.residuals_before))
            {
                if !a {
                    self.residuals[k] = before;
                }
            }
        }
        Ok(())
    }

    /// The fold both loops share: runs the accepted `(update, weight)` pairs
    /// through [`Aggregator::aggregate_into`](crate::Aggregator::aggregate_into)
    /// over `self.agg_scratch`'s recycled buffers (bit-identical for any
    /// shard count), averages the BN statistics under the same weights, and
    /// re-applies the mask — stale updates were trained under old masks and
    /// must not resurrect pruned weights. Returns `false` when the cohort
    /// was degenerate (empty or without usable weight) and the global model
    /// was left untouched.
    #[allow(clippy::too_many_arguments)]
    fn fold_into_global<'u>(
        &mut self,
        accepted: impl Iterator<Item = (&'u DeviceUpdate, f64)> + Clone,
        anchor: &[f32],
        ctx: &WireCtx,
        rt: &ft_runtime::Runtime,
        global: &mut dyn Model,
        mask: &Mask,
        ledger: &mut CostLedger,
    ) -> bool {
        let payloads: Vec<(&Payload, f64)> =
            accepted.clone().map(|(u, w)| (&u.payload, w)).collect();
        let aggregator = self.env.cfg.aggregator;
        let outcome = aggregator.aggregate_into(&payloads, anchor, ctx, rt, &mut self.agg_scratch);
        ledger.record_clipped(outcome.clipped);
        let progressed = match outcome.params {
            Some(new_params) => {
                set_flat_params(global, new_params);
                let bn_updates: Vec<_> = accepted.map(|(u, w)| (u.bn.as_slice(), w)).collect();
                if let Some(new_bn) = try_aggregate_bn_stats(&bn_updates) {
                    for (dst, src) in global.bn_stats_mut().into_iter().zip(new_bn.iter()) {
                        *dst = src.clone();
                    }
                }
                true
            }
            None => false,
        };
        apply_mask(global, mask);
        self.applied_mask = mask.clone();
        progressed
    }

    /// The tail both loops share once a round's accounting is on the
    /// ledger: the method hook (a moved mask bumps the wire epoch), the
    /// round's FLOPs, periodic evaluation, the round counter, and the
    /// metrics hub. Returns whether the hook moved the mask.
    #[allow(clippy::too_many_arguments)]
    fn finish_round(
        &mut self,
        global: &mut dyn Model,
        mask: &mut Mask,
        ledger: &mut CostLedger,
        hook: &mut RoundHook<'_>,
        opts: &RunOptions<'_>,
        analytic_flops: f64,
        cohort: usize,
    ) -> bool {
        let mask_before_hook = mask.clone();
        let extra = hook(global, mask, self.round, ledger);
        let mask_moved = *mask != mask_before_hook;
        if mask_moved {
            self.epoch += 1;
        }
        ledger.record_round_flops(analytic_flops + extra);
        if should_eval(self.eval_every, self.round, self.env.cfg.rounds) {
            self.history
                .push(crate::train::evaluate(global, &self.env.test));
        }
        self.round += 1;
        self.last_cohort = cohort;
        self.publish_metrics(opts, ledger);
        mask_moved
    }

    /// Aggregate: fold the surviving updates into the global model; an
    /// empty (or zero-weight) cohort leaves it untouched and records a
    /// zero-progress round.
    fn phase_aggregate(
        &mut self,
        rs: &mut BarrierRound,
        global: &mut dyn Model,
        mask: &Mask,
        rt: &ft_runtime::Runtime,
        ledger: &mut CostLedger,
    ) {
        // Quarantine accounting first: every faulted delivery is a typed,
        // counted event, never a panic.
        for d in &rs.updates {
            if let Some(fault) = d.fault() {
                ledger.record_fault(fault);
            }
        }
        let surviving = survivor_updates(&rs.updates, &rs.alive);
        rs.progressed = self.fold_into_global(
            surviving.iter().copied(),
            &rs.anchor,
            &rs.ctx,
            rt,
            global,
            mask,
            ledger,
        );
        if !rs.progressed {
            ledger.record_zero_progress();
        }
    }

    /// Advance: timeline + ledger accounting, the method hook, periodic
    /// evaluation, checkpointing, and the round counter. Returns `true`
    /// when the run should halt (`halt_after`).
    #[allow(clippy::too_many_arguments)]
    fn phase_advance(
        &mut self,
        rs: BarrierRound,
        global: &mut dyn Model,
        mask: &mut Mask,
        ledger: &mut CostLedger,
        hook: &mut RoundHook<'_>,
        opts: &RunOptions<'_>,
        rt: &ft_runtime::Runtime,
        deadline: Option<f64>,
        max_samples: f64,
    ) -> Result<bool, ServerError> {
        let env = self.env;
        for ((&k, &secs), &a) in rs.cohort.iter().zip(rs.finish.iter()).zip(rs.alive.iter()) {
            ledger.record_timeline(TimelineEvent {
                device: k,
                round: self.round,
                start_secs: rs.round_start,
                finish_secs: rs.round_start + secs,
                applied: rs.progressed && a,
                staleness: 0,
            });
        }

        // The round's simulated span: slowest cohort member, cut at the
        // deadline when one is set.
        let slowest = rs.finish.iter().cloned().fold(0.0, f64::max);
        let span = match deadline {
            Some(d) => slowest.min(d),
            None => slowest,
        };
        self.clock.advance_by(span);
        ledger.record_sim_round(span);

        // Cost accounting: analytic (paper-style, the heaviest device at
        // the round's densities — paid even by devices that were dropped)
        // next to the measured payload bytes and the realized execution
        // costs the devices reported.
        let round_flops = rs.per_sample_flops * max_samples * env.cfg.local_epochs as f64;
        ledger.add_comm(rs.analytic_bytes);
        ledger.record_payload_round(rs.broadcast_len, rs.max_upload);
        let max_realized = rs
            .updates
            .iter()
            .filter_map(|d| d.update())
            .map(|u| u.realized_flops)
            .fold(0.0, f64::max);
        // The round's training wall-clock: the slowest device when the
        // cohort really ran side by side, the sum when it ran one device
        // after another — `cfg.parallel` alone does not decide that.
        let walls = rs
            .updates
            .iter()
            .filter_map(|d| d.update())
            .map(|u| u.wall_secs);
        let round_wall = if fans_out(&env.cfg, rs.cohort.len(), rt) {
            walls.fold(0.0, f64::max)
        } else {
            walls.sum()
        };
        ledger.record_realized_round(max_realized, round_wall);

        self.finish_round(
            global,
            mask,
            ledger,
            hook,
            opts,
            round_flops,
            rs.cohort.len(),
        );
        self.checkpoint_and_halt(&*global, mask, ledger, opts, || Ok(None))
    }

    // -----------------------------------------------------------------
    // Buffered rounds (FedBuff-style event loop)
    // -----------------------------------------------------------------

    /// FedBuff-style buffered asynchronous rounds as the event-driven
    /// instantiation of the four phases: `Collect` pops one simulated
    /// arrival (the update crosses the transport byte boundary there),
    /// `Aggregate`/`Advance` fire once `buffer_k` updates are buffered, and
    /// `Broadcast` relaunches the finisher from the newest global.
    ///
    /// A launch ([`launch`](Self::launch)) fixes the task's simulated finish
    /// time and nothing else; its training is deferred to the next flush
    /// ([`train_pending`]), which trains every launched task side by side.
    /// The flushes sit where a result is needed or its inputs are about to
    /// change: when the arrival popped is still untrained, before the global
    /// model is folded, and before a checkpoint snapshot. Global, mask and
    /// epoch only move inside an aggregation, so a task trained late sees
    /// exactly what it would have seen at launch and every trace is
    /// bit-identical to training at launch time.
    #[allow(clippy::too_many_arguments)]
    fn run_buffered(
        &mut self,
        global: &mut dyn Model,
        mask: &mut Mask,
        ledger: &mut CostLedger,
        hook: &mut RoundHook<'_>,
        opts: &mut RunOptions<'_>,
        rt: ft_runtime::Runtime,
        buffer_k: usize,
        resume: Option<BufferedState>,
    ) -> Result<Vec<f32>, ServerError> {
        let env = self.env;
        let n = env.num_devices();
        if env.cfg.rounds == 0 || n == 0 {
            self.history.push(crate::train::evaluate(global, &env.test));
            return Ok(std::mem::take(&mut self.history));
        }
        let arch = global.arch();
        let codec = env.cfg.codec;
        let k_needed = buffer_k.clamp(1, n);
        let mut task_counter = vec![0usize; n];
        let mut last_agg_secs = 0.0f64;

        // Mask densities and wire context, refreshed only when the mask can
        // change (after an aggregation's hook) rather than on every event.
        let mut densities = densities_from_mask(mask);
        let mut ctx = std::sync::Arc::new(wire_ctx(&*global, mask, self.epoch));

        let mut events = 0usize;
        // Broadcast (initial wave): every device launches at t = 0 from
        // version 0 with the same `(seed, 0, device)` RNG streams as a
        // synchronous first round — or, on resume, the persisted in-flight
        // tasks are rehydrated (already trained) instead.
        let mut in_flight: Vec<InFlight> = match resume {
            Some(b) => {
                last_agg_secs = b.last_agg_secs;
                events = b.events;
                task_counter = b.task_counter;
                let segments = &ctx.segments;
                b.in_flight
                    .into_iter()
                    .map(|t| InFlight {
                        device: t.device,
                        start_secs: t.start_secs,
                        finish_secs: t.finish_secs,
                        start_version: t.start_version,
                        dropped: t.dropped,
                        analytic_flops: t.analytic_flops,
                        analytic_bytes: t.analytic_bytes,
                        download_bytes: t.download_bytes,
                        ctx: std::sync::Arc::new(WireCtx::new(
                            t.ctx_alive,
                            segments.clone(),
                            t.ctx_epoch,
                        )),
                        salt: 0,
                        outcome: Some(t.outcome),
                    })
                    .collect()
            }
            None => (0..n)
                .map(|k| self.launch(k, &arch, &densities, &ctx, &mut task_counter))
                .collect(),
        };

        // Safety valve: with pathological dropout (every update lost) the
        // buffer can never fill; cap the event count instead of spinning.
        let max_events = env.cfg.rounds.max(1) * n * 64;
        // Buffered arrivals awaiting aggregation: `event_idx` points at the
        // arrival's timeline entry, flipped to applied once it aggregates.
        // Empty at every checkpoint boundary by construction.
        let mut buffer: Vec<BufferedArrival> = Vec::new();
        // The global's flat parameters at each aggregation, refilled in
        // place.
        let mut current: Vec<f32> = Vec::new();

        while self.round < env.cfg.rounds && events < max_events {
            events += 1;
            // --- Collect: pop the earliest arrival; ties break on the
            // lower device index, so the event order is a pure function of
            // the simulated times.
            let next = in_flight
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.finish_secs
                        .total_cmp(&b.finish_secs)
                        .then(a.device.cmp(&b.device))
                })
                .map(|(i, _)| i)
                .expect("nonempty fleet");
            // Flush: the initial wave's first arrival, or a device that
            // laps the window and delivers before the aggregation that
            // would have trained it.
            if in_flight[next].outcome.is_none() && !in_flight[next].dropped {
                train_pending(&mut in_flight, &*global, mask, env, &rt);
            }
            let task = in_flight.swap_remove(next);
            self.clock.advance_to(task.finish_secs);
            let staleness = self.round - task.start_version;

            // Recorded as not-applied until it actually reaches an
            // aggregate; a dropped (or forever-buffered) update keeps
            // `applied: false`.
            let event_idx = ledger.record_timeline(TimelineEvent {
                device: task.device,
                round: self.round,
                start_secs: task.start_secs,
                finish_secs: task.finish_secs,
                applied: false,
                staleness,
            });
            if !task.dropped {
                // The actual transmission: encode the device-local delta
                // now that the server's current mask epoch is known (a
                // stale mask forces explicit indices), then push it across
                // the transport's byte boundary. Lost updates are never
                // encoded, so their error-feedback residual is untouched
                // (and a lost task that was still pending is never trained).
                let k = task.device;
                let residual = codec
                    .uses_error_feedback()
                    .then_some(&mut self.residuals[k]);
                let outcome = task.outcome.expect("arrivals are trained before delivery");
                let update = outcome.encode(codec, &task.ctx, self.epoch, residual);
                let update = opts.transport.deliver_update(update, &task.ctx);
                let upload_bytes = update.payload.encoded_len(&task.ctx) as f64;
                // FedBuff weight: sample count under the staleness discount.
                let weight = update.samples as f64 * staleness_weight(staleness);
                buffer.push(BufferedArrival {
                    update,
                    weight,
                    analytic_flops: task.analytic_flops,
                    analytic_bytes: task.analytic_bytes,
                    download_bytes: task.download_bytes,
                    upload_bytes,
                    event_idx,
                });
            }

            let mut aggregated = false;
            if buffer.len() >= k_needed {
                // Flush: the fold is about to move the global the pending
                // tasks were launched from. Nothing consumes them after the
                // run's last aggregation unless a final checkpoint does.
                if self.round + 1 < env.cfg.rounds || opts.checkpoint.is_some() {
                    train_pending(&mut in_flight, &*global, mask, env, &rt);
                }
                // --- Aggregate: the buffered updates folded into the
                // *current* global. A fully-quarantined (all-zero-weight)
                // buffer keeps it instead of dividing by zero.
                flat_params_into(&*global, &mut current);
                self.fold_into_global(
                    buffer.iter().map(|b| (&b.update, b.weight)),
                    &current,
                    &ctx,
                    &rt,
                    global,
                    mask,
                    ledger,
                );

                // --- Advance: per-device accounting (one round charges one
                // model transfer — the heaviest in the buffer), the hook,
                // evaluation, and the version counter.
                ledger.add_comm(buffer.iter().map(|b| b.analytic_bytes).fold(0.0, f64::max));
                ledger.record_payload_round(
                    buffer.iter().map(|b| b.download_bytes).fold(0.0, f64::max),
                    buffer.iter().map(|b| b.upload_bytes).fold(0.0, f64::max),
                );
                for b in &buffer {
                    ledger.set_timeline_applied(b.event_idx);
                }
                let analytic = buffer.iter().map(|b| b.analytic_flops).fold(0.0, f64::max);
                let realized = buffer
                    .iter()
                    .map(|b| b.update.realized_flops)
                    .fold(0.0, f64::max);
                let wall = buffer
                    .iter()
                    .map(|b| b.update.wall_secs)
                    .fold(0.0, f64::max);
                ledger.record_realized_round(realized, wall);
                ledger.record_sim_round(self.clock.now() - last_agg_secs);
                last_agg_secs = self.clock.now();
                buffer.clear();

                // The hook may have adjusted the mask: refresh the cached
                // densities and wire context (at the bumped epoch) for the
                // tasks launched from here on.
                if self.finish_round(global, mask, ledger, hook, opts, analytic, k_needed) {
                    densities = densities_from_mask(mask);
                    ctx = std::sync::Arc::new(wire_ctx(&*global, mask, self.epoch));
                }
                aggregated = true;
            }

            // --- Broadcast: the finisher relaunches immediately from the
            // current global (and the current mask/version — its next
            // update is fresh by construction). No relaunch once the final
            // round has aggregated.
            if self.round >= env.cfg.rounds {
                break;
            }
            in_flight.push(self.launch(task.device, &arch, &densities, &ctx, &mut task_counter));

            // Post-aggregation boundary: the buffer is empty and the fleet
            // is fully in flight again — the state a buffered checkpoint
            // captures (flushed first: it persists trained tasks only).
            if aggregated
                && self.checkpoint_and_halt(&*global, mask, ledger, opts, || {
                    train_pending(&mut in_flight, &*global, mask, env, &rt);
                    buffered_state(last_agg_secs, events, &task_counter, &in_flight).map(Some)
                })?
            {
                return Ok(std::mem::take(&mut self.history));
            }
        }

        // Rounds the event cap starved (pathological all-dropout fleets):
        // recorded as zero-progress so the ledger still covers
        // `cfg.rounds`.
        while self.round < env.cfg.rounds {
            ledger.record_round_flops(0.0);
            ledger.record_sim_round(0.0);
            ledger.record_zero_progress();
            self.round += 1;
        }
        if self.history.is_empty() {
            self.history.push(crate::train::evaluate(global, &env.test));
        }
        // Final-state checkpoint so a completed run resumes to a no-op.
        if let Some(spec) = &opts.checkpoint {
            train_pending(&mut in_flight, &*global, mask, env, &rt);
            let buffered = buffered_state(last_agg_secs, events, &task_counter, &in_flight)?;
            self.checkpoint(&*global, mask, ledger, opts, Some(buffered))
                .save(&spec.path)?;
        }
        Ok(std::mem::take(&mut self.history))
    }

    /// Buffered `Broadcast` for one device: launches its next task from the
    /// current global, version, mask densities and wire context. Only the
    /// simulated side is decided here — finish time (from the partition
    /// size, not the trained model) and dropout; training is deferred to
    /// [`train_pending`].
    fn launch(
        &self,
        k: usize,
        arch: &ft_nn::ArchInfo,
        densities: &[f32],
        ctx: &std::sync::Arc<WireCtx>,
        task_counter: &mut [usize],
    ) -> InFlight {
        let env = self.env;
        let codec = env.cfg.codec;
        let profile = env.device_profile(k);
        let (flops, analytic_bytes) =
            device_round_cost(arch, densities, env.parts[k].len(), env.cfg.local_epochs);
        // Measured wire bytes of the task: broadcast down plus the
        // (shared-epoch) encoded upload back.
        let down = broadcast_payload_len(codec, ctx) as f64;
        let up = codec.encoded_len_for(ctx, true) as f64;
        let task = task_counter[k];
        let secs = self.clock.device_secs(&profile, flops, down + up, task, k);
        let dropped = self.clock.dropout_hits(&profile, task, k);
        task_counter[k] += 1;
        InFlight {
            device: k,
            start_secs: self.clock.now(),
            finish_secs: self.clock.now() + secs,
            start_version: self.round,
            dropped,
            analytic_flops: flops,
            analytic_bytes,
            download_bytes: down,
            ctx: ctx.clone(),
            salt: task as u64,
            outcome: None,
        }
    }
}

/// One in-flight device task in the buffered event loop. The trained delta
/// stays *device-local* (a [`LocalOutcome`], not yet encoded): the wire
/// encoding happens at arrival time, when the server's current mask epoch
/// decides whether a `MaskCsr` upload can drop its indices.
struct InFlight {
    device: usize,
    start_secs: f64,
    finish_secs: f64,
    start_version: usize,
    dropped: bool,
    analytic_flops: f64,
    analytic_bytes: f64,
    /// Measured broadcast bytes the device downloaded at task start.
    download_bytes: f64,
    /// Wire context (mask + epoch) the device trained under — shared with
    /// every other task launched under the same mask.
    ctx: std::sync::Arc<WireCtx>,
    /// Separates the RNG streams of a device's repeated tasks at one server
    /// version (its task count at launch). Unused once trained.
    salt: u64,
    /// `None` from launch until [`train_pending`] runs.
    outcome: Option<LocalOutcome>,
}

/// One buffered arrival awaiting aggregation.
struct BufferedArrival {
    update: DeviceUpdate,
    /// Aggregation weight, fixed at arrival.
    weight: f64,
    analytic_flops: f64,
    analytic_bytes: f64,
    download_bytes: f64,
    upload_bytes: f64,
    event_idx: usize,
}

thread_local! {
    /// `(flushes, tasks)` of every [`train_pending`] call made on this thread.
    static TRAIN_COHORTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Tally of the buffered loop's deferred training on the calling thread:
/// how many flushes ran and how many tasks they trained in total, over
/// every buffered run driven from this thread so far. Purely a statistic
/// for benches and tests — tasks per flush is what decides whether the loop
/// can use a parallel pool.
pub fn buffered_train_cohorts() -> (u64, u64) {
    TRAIN_COHORTS.get()
}

/// Trains every launched-but-untrained task, side by side when the pool
/// fans out (sequential kernels inside a fanned cohort, the pool's kernels
/// for a lone task: [`thread_budget`]). Each task
/// trains from `global` under `mask` on its own `(start_version, device,
/// salt)` RNG stream, so the caller must flush before either moves.
fn train_pending(
    in_flight: &mut [InFlight],
    global: &dyn Model,
    mask: &Mask,
    env: &ExperimentEnv,
    rt: &ft_runtime::Runtime,
) {
    let pending: Vec<&mut InFlight> = in_flight
        .iter_mut()
        .filter(|t| t.outcome.is_none())
        .collect();
    if pending.is_empty() {
        return;
    }
    let (flushes, tasks) = TRAIN_COHORTS.get();
    TRAIN_COHORTS.set((flushes + 1, tasks + pending.len() as u64));
    let (fan_out, kernel_rt) = thread_budget(&env.cfg, pending.len(), rt);
    fan_out.scatter(pending, |t| {
        t.outcome = Some(train_one_device_raw(
            global,
            &env.parts[t.device],
            Some(mask),
            &env.cfg,
            t.start_version,
            t.device,
            t.salt,
            &kernel_rt,
        ));
    });
}

/// Snapshots the buffered event-loop state for a checkpoint. Every task
/// must have been trained ([`train_pending`]): the checkpoint persists
/// outcomes, not launches.
fn buffered_state(
    last_agg_secs: f64,
    events: usize,
    task_counter: &[usize],
    in_flight: &[InFlight],
) -> Result<BufferedState, ServerError> {
    let in_flight = in_flight
        .iter()
        .map(|t| {
            let outcome = t
                .outcome
                .clone()
                .ok_or(ServerError::UntrainedTask { device: t.device })?;
            Ok(TaskState {
                device: t.device,
                start_secs: t.start_secs,
                finish_secs: t.finish_secs,
                start_version: t.start_version,
                dropped: t.dropped,
                analytic_flops: t.analytic_flops,
                analytic_bytes: t.analytic_bytes,
                download_bytes: t.download_bytes,
                ctx_epoch: t.ctx.epoch,
                ctx_alive: t.ctx.alive.clone(),
                outcome,
            })
        })
        .collect::<Result<Vec<_>, ServerError>>()?;
    Ok(BufferedState {
        last_agg_secs,
        events,
        task_counter: task_counter.to_vec(),
        in_flight,
    })
}

/// Convenience used by the classic entry point: run on the [`InProcess`]
/// transport with no checkpointing, panicking on the (impossible for a
/// valid in-process configuration) error paths.
pub(crate) fn run_in_process(
    global: &mut dyn Model,
    mask: &mut Mask,
    env: &ExperimentEnv,
    eval_every: usize,
    ledger: &mut CostLedger,
    hook: &mut RoundHook<'_>,
) -> Vec<f32> {
    let mut transport = InProcess;
    run_with(
        global,
        mask,
        env,
        eval_every,
        ledger,
        hook,
        RunOptions::new(&mut transport),
    )
    .unwrap_or_else(|e| panic!("federated run failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::no_hook;
    use crate::spec::ModelSpec;
    use crate::transport::SimTime;
    use ft_nn::sparse_layout;

    #[test]
    fn run_with_rejects_invalid_config_typed() {
        let mut env = ExperimentEnv::tiny_for_tests(0);
        env.cfg.threads = crate::config::MAX_THREADS + 1;
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let mut transport = InProcess;
        let err = run_with(
            model.as_mut(),
            &mut mask,
            &env,
            0,
            &mut ledger,
            &mut no_hook(),
            RunOptions::new(&mut transport),
        )
        .expect_err("must reject");
        assert!(matches!(
            err,
            ServerError::Config(ConfigError::TooManyThreads { threads }) if threads > 4096
        ));
        // Bad scheduler parameters are equally typed.
        env.cfg.threads = 0;
        env.scheduler = Scheduler::Buffered { buffer_k: 0 };
        let err = run_with(
            model.as_mut(),
            &mut mask,
            &env,
            0,
            &mut ledger,
            &mut no_hook(),
            RunOptions::new(&mut transport),
        )
        .expect_err("must reject");
        assert!(matches!(err, ServerError::Config(ConfigError::ZeroBufferK)));
        assert!(err.to_string().contains("buffer_k"));
    }

    /// A transport that claims to be remote and must never be exchanged
    /// with — run_with has to reject unsupported combinations first.
    struct RemoteStub;
    impl Transport for RemoteStub {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn is_local(&self) -> bool {
            false
        }
        fn exchange_round(
            &mut self,
            _req: &mut RoundRequest<'_>,
        ) -> Result<Vec<Delivery>, TransportError> {
            unreachable!("never exchanged")
        }
        fn deliver_update(&mut self, u: DeviceUpdate, _ctx: &WireCtx) -> DeviceUpdate {
            u
        }
    }

    #[test]
    fn buffered_requires_local_transport() {
        let mut env = ExperimentEnv::tiny_for_tests(1);
        env.scheduler = Scheduler::Buffered { buffer_k: 2 };
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let mut transport = RemoteStub;
        let err = run_with(
            model.as_mut(),
            &mut mask,
            &env,
            0,
            &mut ledger,
            &mut no_hook(),
            RunOptions::new(&mut transport),
        )
        .expect_err("buffered over a remote transport must be rejected");
        assert!(matches!(err, ServerError::UnsupportedScheduler { .. }));
    }

    #[test]
    fn error_feedback_codecs_require_local_transport() {
        // The in-process loops roll a lost upload's error-feedback
        // residual back on the device; no wire protocol here can do that
        // for a remote device, so the combination is refused up front
        // instead of silently diverging from the in-process run.
        let mut env = ExperimentEnv::tiny_for_tests(2);
        env.cfg.codec = ft_sparse::Codec::TopK {
            k_frac: 0.1,
            error_feedback: true,
        };
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let mut transport = RemoteStub;
        let err = run_with(
            model.as_mut(),
            &mut mask,
            &env,
            0,
            &mut ledger,
            &mut no_hook(),
            RunOptions::new(&mut transport),
        )
        .expect_err("EF codec over a remote transport must be rejected");
        assert!(matches!(err, ServerError::UnsupportedCodec { .. }));
        assert!(err.to_string().contains("error-feedback"));
        // TopK *without* error feedback is stateless and stays allowed
        // (the stub then fails at exchange time, which is fine — we only
        // assert it passes validation).
        env.cfg.codec = ft_sparse::Codec::TopK {
            k_frac: 0.1,
            error_feedback: false,
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut model = env.build_model(&ModelSpec::small_cnn_test());
            let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
            let mut ledger = CostLedger::new();
            let mut transport = RemoteStub;
            let _ = run_with(
                model.as_mut(),
                &mut mask,
                &env,
                0,
                &mut ledger,
                &mut no_hook(),
                RunOptions::new(&mut transport),
            );
        }));
        assert!(result.is_err(), "stub must have reached exchange_round");
    }

    /// [`InProcess`] that also adds up every delivered update's training
    /// wall-clock, so a test can compare it with what the ledger recorded.
    struct WallProbe {
        device_wall_secs: f64,
    }
    impl Transport for WallProbe {
        fn name(&self) -> &'static str {
            "wall_probe"
        }
        fn is_local(&self) -> bool {
            true
        }
        fn exchange_round(
            &mut self,
            req: &mut RoundRequest<'_>,
        ) -> Result<Vec<Delivery>, TransportError> {
            let deliveries = InProcess.exchange_round(req)?;
            self.device_wall_secs += deliveries
                .iter()
                .filter_map(|d| d.update())
                .map(|u| u.wall_secs)
                .sum::<f64>();
            Ok(deliveries)
        }
        fn deliver_update(&mut self, u: DeviceUpdate, _ctx: &WireCtx) -> DeviceUpdate {
            u
        }
    }

    #[test]
    fn round_wall_under_a_sequential_pool_is_the_sum_of_device_walls() {
        // `cfg.parallel` alone does not fan devices out: on a one-thread
        // pool they train one after another, and the round's wall-clock is
        // the sum of theirs. Taking the max under-reported it up to K×.
        let mut env = ExperimentEnv::tiny_for_tests(5);
        env.cfg.parallel = true;
        env.cfg.threads = 1;
        assert!(!env.cfg.runtime().is_parallel());
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let mut transport = WallProbe {
            device_wall_secs: 0.0,
        };
        run_with(
            model.as_mut(),
            &mut mask,
            &env,
            0,
            &mut ledger,
            &mut no_hook(),
            RunOptions::new(&mut transport),
        )
        .expect("in-process run");
        assert!(transport.device_wall_secs > 0.0);
        assert!(
            ledger.total_train_wall_secs() >= transport.device_wall_secs,
            "recorded {} s for devices that trained {} s back to back",
            ledger.total_train_wall_secs(),
            transport.device_wall_secs
        );
    }

    /// The deterministic projection of one buffered run: final parameter
    /// bits, the timeline, and both payload histories.
    type BufferedTrace = (Vec<u32>, Vec<TimelineEvent>, Vec<u64>, Vec<u64>);

    /// One buffered run of `env` on the pool `rt`; also returns the
    /// `(flushes, tasks)` its deferred training took.
    fn buffered_run(
        env: &ExperimentEnv,
        rt: ft_runtime::Runtime,
        halt_after: Option<usize>,
    ) -> (BufferedTrace, (u64, u64)) {
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let mut transport = SimTime;
        let mut opts = RunOptions::new(&mut transport);
        opts.halt_after = halt_after;
        let before = buffered_train_cohorts();
        run_on(
            model.as_mut(),
            &mut mask,
            env,
            0,
            &mut ledger,
            &mut no_hook(),
            opts,
            rt,
        )
        .expect("buffered run");
        let after = buffered_train_cohorts();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let trace = (
            flat_params(model.as_ref())
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            ledger.timeline().to_vec(),
            bits(ledger.payload_up_history()),
            bits(ledger.payload_down_history()),
        );
        (trace, (after.0 - before.0, after.1 - before.1))
    }

    fn buffered_env(seed: u64, buffer_k: usize, fleet: Vec<crate::DeviceProfile>) -> ExperimentEnv {
        let mut env = ExperimentEnv::tiny_for_tests(seed);
        env.scheduler = Scheduler::Buffered { buffer_k };
        env.fleet = fleet;
        env.cfg.parallel = true;
        env.cfg.rounds = 6;
        env.cfg.codec = ft_sparse::Codec::TopK {
            k_frac: 0.1,
            error_feedback: true,
        };
        env.cfg.aggregator = crate::Aggregator::TrimmedMean { beta: 0.25 };
        env
    }

    #[test]
    fn sim_buffered_deferred_cohorts_match_sequential_bit_for_bit() {
        // Error-feedback residuals, a rank rule and dropouts all ride on
        // the order of arrivals; training the launches as a fanned cohort
        // must not move any of them.
        let n = ExperimentEnv::tiny_for_tests(33).num_devices();
        let mut fleet = crate::DeviceProfile::fleet_mixed(n);
        for p in &mut fleet {
            p.dropout = p.dropout.max(0.2);
        }
        let env = buffered_env(33, 3, fleet);
        let (seq, (seq_flushes, seq_tasks)) =
            buffered_run(&env, ft_runtime::Runtime::sequential(), None);
        let (par, par_cohorts) = buffered_run(&env, ft_runtime::Runtime::exact(4), None);
        assert_eq!(seq, par, "a fanned cohort diverged from one-at-a-time");
        assert_eq!((seq_flushes, seq_tasks), par_cohorts);
        assert!(
            seq.1.iter().any(|ev| !ev.applied),
            "no update was lost: the dropout profile is not exercised"
        );
        assert!(
            seq_tasks > seq_flushes,
            "{seq_tasks} tasks over {seq_flushes} flushes: nothing ever trained side by side"
        );
    }

    #[test]
    fn sim_buffered_device_lapping_the_window_is_trained_at_its_arrival() {
        // Device 0 is a thousand times faster than the rest, so it arrives
        // again before the window it relaunched in has filled: its task is
        // still pending when popped and must be flushed right there.
        let n = ExperimentEnv::tiny_for_tests(34).num_devices();
        let mut fleet = crate::DeviceProfile::fleet_uniform(n);
        fleet[0].flops_per_sec *= 1e3;
        fleet[0].bytes_per_sec *= 1e3;
        let env = buffered_env(34, n, fleet);
        let (seq, _) = buffered_run(&env, ft_runtime::Runtime::sequential(), None);
        let (par, _) = buffered_run(&env, ft_runtime::Runtime::exact(4), None);
        assert_eq!(seq, par);
        let laps = seq
            .1
            .iter()
            .filter(|ev| ev.device == 0 && ev.round == 0)
            .count();
        assert!(laps >= 2, "device 0 arrived {laps}x in the first window");
    }

    #[test]
    fn buffered_tasks_nobody_consumes_are_never_trained() {
        // No dropout, so every launch is trained unless the run ends (or
        // halts) first; launches = the initial wave + one per arrival.
        let n = ExperimentEnv::tiny_for_tests(35).num_devices();
        let env = buffered_env(35, 2, crate::DeviceProfile::fleet_uniform(n));
        let rt = ft_runtime::Runtime::sequential();
        // Halted without a checkpoint: only the finisher relaunched after
        // the aggregation is still pending, and it is dropped.
        let (halted, (_, tasks)) = buffered_run(&env, rt, Some(1));
        assert_eq!(tasks as usize, n + halted.1.len() - 1);
        // Run to the end: the final aggregation's finisher is not
        // relaunched, and the relaunches of the last window stay untrained.
        let (full, (_, tasks)) = buffered_run(&env, rt, None);
        let launched = n + full.1.len() - 1;
        assert!(
            (tasks as usize) < launched,
            "{tasks} of {launched} launches trained: the last window's were not dropped"
        );
    }

    #[test]
    fn buffered_state_refuses_an_untrained_task_typed() {
        let env = ExperimentEnv::tiny_for_tests(36);
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let mask = Mask::ones(&sparse_layout(model.as_ref()));
        let state = ServerState {
            env: &env,
            eval_every: 0,
            clock: SimClock::new(36),
            epoch: 0,
            round: 0,
            residuals: Vec::new(),
            history: Vec::new(),
            applied_mask: mask.clone(),
            agg_scratch: crate::aggregate::AggScratch::new(),
            published_events: 0,
            last_cohort: 0,
        };
        let ctx = std::sync::Arc::new(wire_ctx(model.as_ref(), &mask, 0));
        let mut task_counter = vec![0usize; env.num_devices()];
        let mut in_flight = vec![state.launch(
            1,
            &model.arch(),
            &densities_from_mask(&mask),
            &ctx,
            &mut task_counter,
        )];
        let err = buffered_state(0.0, 0, &task_counter, &in_flight)
            .expect_err("a launch is not a checkpointable outcome");
        assert!(matches!(err, ServerError::UntrainedTask { device: 1 }));
        assert!(err.to_string().contains("untrained"));
        let rt = ft_runtime::Runtime::sequential();
        train_pending(&mut in_flight, model.as_ref(), &mask, &env, &rt);
        let saved = buffered_state(0.0, 0, &task_counter, &in_flight).expect("trained");
        assert_eq!(saved.in_flight.len(), 1);
    }

    /// The in-memory byte-boundary transport reproduces the in-process run
    /// bit for bit, for every scheduler: this is the "the wire layer
    /// carries the whole federation" invariant.
    #[test]
    fn sim_time_transport_is_bit_identical_to_in_process() {
        for scheduler in [
            Scheduler::Synchronous,
            Scheduler::Deadline { deadline_secs: 2.0 },
            Scheduler::Buffered { buffer_k: 2 },
        ] {
            let run = |use_sim_time: bool| {
                let mut env = ExperimentEnv::tiny_for_tests(21);
                env.fleet = crate::DeviceProfile::fleet_mixed(env.num_devices());
                env.scheduler = scheduler;
                env.cfg.codec = ft_sparse::Codec::MaskCsr;
                let mut model = env.build_model(&ModelSpec::small_cnn_test());
                let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
                let mut ledger = CostLedger::new();
                let history = if use_sim_time {
                    let mut t = SimTime;
                    run_with(
                        model.as_mut(),
                        &mut mask,
                        &env,
                        1,
                        &mut ledger,
                        &mut no_hook(),
                        RunOptions::new(&mut t),
                    )
                    .expect("sim_time run")
                } else {
                    crate::run_federated_rounds(
                        model.as_mut(),
                        &mut mask,
                        &env,
                        1,
                        &mut ledger,
                        &mut no_hook(),
                    )
                };
                let bits: Vec<u32> = flat_params(model.as_ref())
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let sim: Vec<u64> = ledger
                    .sim_secs_history()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let up: Vec<u64> = ledger
                    .payload_up_history()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                (history, bits, sim, up)
            };
            assert_eq!(
                run(true),
                run(false),
                "{scheduler:?} diverged across the byte boundary"
            );
        }
    }
}

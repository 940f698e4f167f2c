//! The transport-agnostic federation server: one event loop behind every
//! scheduler.
//!
//! Device tasks wait in one in-flight queue. The server pops them in
//! simulated arrival order — `(finish_secs, device)`, so the event order is
//! a pure function of the simulated times — into a *window*, and folds the
//! window into the global model when it closes. A scheduler is three rules:
//!
//! | rule | `Synchronous`, `Deadline` (barrier) | `Buffered` (FedBuff) |
//! |---|---|---|
//! | **Launch** | when nothing is in flight: the round's sampled, present cohort, trained through [`Transport::exchange_round`]; arrival times from the measured upload bytes | the whole fleet at t = 0, then every finisher again from the newest global; training deferred |
//! | **Arrival** | cut past the deadline; lost if dropped or quarantined | lost if dropped |
//! | **Close** | once every member has arrived or been cut | at `buffer_k` accepted arrivals |
//!
//! An accepted arrival weighs `samples × staleness_weight(staleness)`. A
//! barrier's members are never stale, so the factor is exactly 1.0 and the
//! weight exactly `|D_k|`.
//!
//! Closing a window runs one tail: the fold
//! ([`Aggregator::aggregate_into`](crate::Aggregator::aggregate_into), BN
//! statistics under the same weights, the mask re-applied), the ledger
//! accounting, the method hook and periodic evaluation, then the
//! checkpoint. Only the billing differs: a barrier round bills the fleet's
//! heaviest device's FLOPs and the largest upload of its whole cohort, and
//! spans `min(slowest, deadline)`; a buffered aggregation bills the maxima
//! of its buffer and spans the time since the previous one.
//!
//! A buffered launch fixes only the task's simulated finish time; its
//! training waits for the next flush (`flush`). An accepted arrival's trained
//! outcome waits in the window, and that same next flush — at the latest the
//! close, before the fold — encodes it on the pool, side by side with the
//! flush's training; the encoded updates then cross the transport's byte
//! boundary in arrival order. That needs a local transport
//! ([`Transport::is_local`]).
//!
//! [`RunOptions`] adds checkpoint/resume to the *same final trace, byte for
//! byte* (`tests/checkpoint_resume.rs`); under the
//! [`InProcess`](crate::InProcess) and `SimTime` transports the loop
//! reproduces the committed golden traces.

use crate::aggregate::{staleness_weight, try_aggregate_bn_stats, AggScratch};
use crate::checkpoint::{BufferedState, Checkpoint, CheckpointError, RunIdentity, TaskState};
use crate::config::ConfigError;
use crate::env::ExperimentEnv;
use crate::ledger::{CostLedger, TimelineEvent};
use crate::rounds::{sample_cohort, RoundHook};
use crate::sched::{
    broadcast_payload_len, device_round_cost, should_eval, PresenceSchedule, Scheduler, Sim,
};
use crate::train::{
    deal_key, evaluate, fans_out, thread_budget, train_one_device_raw, DeviceUpdate, LocalOutcome,
};
use crate::transport::{Delivery, RoundRequest, Transport, TransportError};
use ft_data::Dataset;
use ft_metrics::{densities_from_mask, sparse_model_bytes, training_flops, SimClock};
use ft_nn::{
    apply_mask, flat_params_into, restore_snapshot, set_bn_stats, set_flat_params, take_snapshot,
    wire_ctx, ArchInfo, Model,
};
use ft_runtime::Runtime;
use ft_sparse::{Mask, Payload, WireCtx};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

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

/// Serializes method-specific hook state for the checkpoint. The blob is
/// never empty (saving asserts it): a checkpoint with an empty one was
/// written by a run without a hook.
pub type HookSave<'a> = &'a dyn Fn() -> Vec<u8>;
/// Restores what a [`HookSave`] captured, refusing a blob it cannot parse.
pub type HookLoad<'a> = &'a dyn Fn(&[u8]) -> Result<(), CheckpointError>;

/// How to run a federation: the transport plus durability knobs.
pub struct RunOptions<'a> {
    /// The transport device updates travel over.
    pub transport: &'a mut dyn Transport,
    /// Save a [`Checkpoint`] to this file (atomically: temp file + rename)
    /// after every completed round, and always at the end of the run, so
    /// resuming a finished run is a no-op.
    pub checkpoint: Option<PathBuf>,
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
    /// Restores what [`hook_save`](Self::hook_save) captured. A resumed
    /// checkpoint must carry hook state exactly when this is set; either
    /// mismatch, or a blob the hook refuses, fails the resume with
    /// [`ServerError::Checkpoint`].
    pub hook_load: Option<HookLoad<'a>>,
    /// Dynamic device registry: which devices are enrolled at which round
    /// (churn). It is read when a barrier round launches its cohort: absent
    /// devices are filtered out, and rejoining devices are announced to the
    /// transport so it can re-accept their connection before the
    /// broadcast. `None` (or a trivial schedule) is the classic
    /// always-present fleet, bit for bit. A buffered run launches the whole
    /// fleet and relaunches every finisher, so it has no cohort to filter
    /// and ignores the schedule.
    pub presence: Option<PresenceSchedule>,
    /// Live observability: whenever a round closes (a barrier round, a
    /// buffered aggregation), and once more when the run ends, the server
    /// publishes the ledger's cumulative totals and any new
    /// [`TimelineEvent`]s to this hub, where a metrics endpoint serves them
    /// to scrapers and `ft watch` subscribers. Strictly observational — the
    /// hub only ever receives values the ledger already computed, so `None`
    /// and `Some` runs are bit-identical (golden traces included).
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

/// Runs `env.cfg.rounds` federated rounds through the round loop on the
/// given transport, with optional checkpoint/resume. Under
/// [`InProcess`](crate::InProcess) this is
/// [`run_federated_rounds`](crate::run_federated_rounds).
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
    env.cfg.validate()?;
    env.scheduler.validate()?;
    if !opts.transport.is_local() && matches!(env.scheduler, Scheduler::Buffered { .. }) {
        return Err(ServerError::UnsupportedScheduler {
            transport: opts.transport.name(),
            scheduler: env.scheduler.name(),
        });
    }
    // Error-feedback residuals live on the device; the arrival rule rolls
    // them back when an upload is lost, which no wire protocol here can do
    // for a remote device. Refuse rather than silently diverge from the
    // in-process run.
    if !opts.transport.is_local() && env.cfg.codec.uses_error_feedback() {
        return Err(ServerError::UnsupportedCodec {
            transport: opts.transport.name(),
            codec: env.cfg.codec.name(),
        });
    }
    // The identity every checkpoint of this run carries, built only when
    // the run keeps one.
    let run = opts
        .checkpoint
        .is_some()
        .then(|| RunIdentity::new(env, eval_every, global.arch()));
    // Resume: pick up a previous run's state if a matching checkpoint
    // exists at the configured path.
    let resumed = match (&opts.checkpoint, &run) {
        (Some(path), Some(run)) if opts.resume && path.exists() => {
            let ck = Checkpoint::load(path)?;
            ck.validate_against(run)?;
            ck.check_state(&*global, env.num_devices())?;
            match (opts.hook_load, ck.hook_state.is_empty()) {
                (Some(load), false) => load(&ck.hook_state)?,
                (None, true) => {}
                _ => return Err(CheckpointError::Mismatch("hook state".into()).into()),
            }
            Some(ck)
        }
        _ => None,
    };

    // Device fan-out and server-side kernel parallelism share one pool.
    let rt = env.cfg.runtime();
    let mut server = Server::new(env, eval_every, global, mask, ledger, hook, opts, rt, run);
    if let Some(ck) = resumed {
        server.resume(ck);
    }
    let result = server.run();
    // Final flush: arrivals that never aggregated, zero-progress filler
    // rounds and the restored ledger of a resumed run that had already
    // finished reach the hub too, so a post-run scrape agrees with the
    // finished ledger exactly.
    server.publish_metrics();
    server.opts.transport.shutdown();
    result.map(|()| server.history)
}

/// One run of the server: the caller's model, mask, ledger and hook, the
/// cross-round state a checkpoint persists, and the event loop's queue.
struct Server<'r, 'o, 'h> {
    env: &'r ExperimentEnv,
    eval_every: usize,
    global: &'r mut dyn Model,
    mask: &'r mut Mask,
    ledger: &'r mut CostLedger,
    hook: &'r mut RoundHook<'h>,
    opts: RunOptions<'o>,
    rt: Runtime,
    /// The run's identity, `Some` exactly when it keeps a checkpoint.
    run: Option<RunIdentity>,
    clock: SimClock,
    /// Wire epoch of the current mask (bumped whenever a hook changes it).
    epoch: u64,
    /// Completed rounds: closed windows.
    round: usize,
    /// Per-device error-feedback accumulators.
    residuals: Vec<Vec<f32>>,
    history: Vec<f32>,
    /// The mask most recently applied to the model (at a fold) —
    /// checkpointed separately from the current mask because a hook may
    /// move the mask without re-applying it.
    applied_mask: Mask,
    /// Recycled buffers of the sharded fold (accumulators, params, robust-rule
    /// deltas, shard plan): steady-state rounds aggregate without allocating.
    agg_scratch: AggScratch,
    /// Timeline entries already pushed to the metrics hub; 0 on resume, so
    /// the hub replays the resumed history and matches the ledger exactly.
    published_events: usize,
    /// Cohort size of the last close, re-published by the final flush so
    /// the gauge survives the end of the run.
    last_cohort: usize,
    /// Tasks in flight, latest arrival first: the next arrival — the
    /// earliest `(finish_secs, device)` — is the last element.
    tasks: Vec<Task>,
    /// Arrivals since the last close.
    window: Vec<Arrival>,
    /// Clock at the last close: where a barrier round starts and a buffered
    /// aggregation's span is measured from.
    opened_at: f64,
    /// Tasks launched per device so far (a buffered task's RNG salt).
    task_counter: Vec<usize>,
    /// Arrivals popped so far.
    events: usize,
    arch: ArchInfo,
    /// What launches read from the mask: its densities and the wire
    /// context at the current epoch.
    densities: Vec<f32>,
    ctx: Arc<WireCtx>,
    /// The global's flat parameters at each close, refilled in place.
    anchor: Vec<f32>,
}

impl<'r, 'o, 'h> Server<'r, 'o, 'h> {
    /// A fresh run: nothing in flight, the clock at zero.
    #[allow(clippy::too_many_arguments)]
    fn new(
        env: &'r ExperimentEnv,
        eval_every: usize,
        global: &'r mut dyn Model,
        mask: &'r mut Mask,
        ledger: &'r mut CostLedger,
        hook: &'r mut RoundHook<'h>,
        opts: RunOptions<'o>,
        rt: Runtime,
        run: Option<RunIdentity>,
    ) -> Self {
        let n = env.num_devices();
        Server {
            env,
            eval_every,
            clock: SimClock::new(env.cfg.seed),
            epoch: 0,
            round: 0,
            residuals: vec![Vec::new(); n],
            history: Vec::new(),
            applied_mask: mask.clone(),
            agg_scratch: AggScratch::new(),
            published_events: 0,
            last_cohort: 0,
            tasks: Vec::new(),
            window: Vec::new(),
            opened_at: 0.0,
            task_counter: vec![0; n],
            events: 0,
            arch: global.arch(),
            densities: densities_from_mask(mask),
            ctx: Arc::new(wire_ctx(&*global, mask, 0)),
            anchor: Vec::new(),
            global,
            mask,
            ledger,
            hook,
            opts,
            rt,
            run,
        }
    }

    /// Picks a checkpointed run up exactly where it stopped.
    fn resume(&mut self, ck: Checkpoint) {
        self.round = ck.rounds_done;
        self.epoch = ck.epoch;
        self.clock.advance_to(ck.clock_now);
        self.opened_at = ck.clock_now;
        self.residuals = ck.residuals;
        self.history = ck.history;
        *self.ledger = ck.ledger;
        restore_snapshot(self.global, &ck.snapshot);
        *self.mask = Mask::from_layers(ck.mask_layers);
        // Re-arm the sparse dispatch with the mask the last fold applied,
        // which lags the current one when a hook moved it without
        // re-applying (pruned coordinates are already zero in the snapshot).
        self.applied_mask = Mask::from_layers(ck.applied_mask_layers);
        apply_mask(self.global, &self.applied_mask);
        self.track_mask();
        if let Some(b) = ck.buffered {
            // The persisted in-flight tasks come back already trained.
            self.opened_at = b.last_agg_secs;
            self.events = b.events;
            self.task_counter = b.task_counter;
            let segments = &self.ctx.segments;
            let tasks: Vec<Task> = b
                .in_flight
                .into_iter()
                .map(|t| Task {
                    sim: t.sim,
                    ctx: Arc::new(WireCtx::new(t.ctx_alive, segments.clone(), t.ctx_epoch)),
                    salt: 0,
                    work: Work::Trained(t.outcome),
                })
                .collect();
            self.enqueue(tasks);
        }
    }

    /// The round loop: launch, pop arrivals into the window, close it —
    /// until `cfg.rounds` windows have closed or `halt_after` stops it.
    fn run(&mut self) -> Result<(), ServerError> {
        let env = self.env;
        let (rounds, n) = (env.cfg.rounds, env.num_devices());
        let buffered = matches!(env.scheduler, Scheduler::Buffered { .. });
        self.global.set_runtime(self.rt);
        // Safety valve: under total dropout a buffered window never fills;
        // cap the event count instead of spinning.
        let max_events = rounds.max(1) * n * 64;
        while self.round < rounds && self.events < max_events {
            // Launch: a barrier round opens with its cohort, a fresh
            // buffered run with the whole fleet.
            if self.tasks.is_empty() {
                if buffered {
                    let wave: Vec<Task> = (0..n).map(|k| self.launch(k)).collect();
                    self.enqueue(wave);
                } else {
                    self.launch_cohort()?;
                }
            }
            let mut finisher = None;
            if !self.is_full() {
                // `None`: an empty fleet, where nothing will ever arrive.
                let Some(k) = self.arrive() else { break };
                finisher = Some(k);
            }
            let closed = self.is_full();
            if closed {
                self.close();
            }
            // Launch: a buffered finisher restarts at once from the newest
            // global — unless the final round has closed.
            if let Some(k) = finisher.filter(|_| buffered && self.round < rounds) {
                let task = self.launch(k);
                self.enqueue([task]);
            }
            if closed && self.checkpoint_and_halt()? {
                return Ok(());
            }
        }

        // A window the event cap starved never closed: its arrivals stay on
        // the timeline as not applied, and the rounds it held up count as
        // zero-progress so the ledger still covers `cfg.rounds`.
        // Its held outcomes are still encoded, so every residual reads as if
        // those uploads had gone out.
        self.flush(false);
        for a in std::mem::take(&mut self.window) {
            self.ledger.record_timeline(a.event(self.round, false));
        }
        let starved = self.round < rounds;
        while self.round < rounds {
            self.ledger.record_round_flops(0.0);
            self.ledger.record_sim_round(0.0);
            self.ledger.record_zero_progress();
            self.round += 1;
        }
        if self.history.is_empty() {
            self.history.push(evaluate(self.global, &env.test));
        }
        if starved {
            self.checkpoint_and_halt()?;
        }
        Ok(())
    }

    /// Barrier launch: the round's cohort trains through the transport, and
    /// each member's arrival is fixed from its measured upload bytes.
    fn launch_cohort(&mut self) -> Result<(), ServerError> {
        let env = self.env;
        let (codec, round) = (env.cfg.codec, self.round);
        let presence = self.opts.presence.clone().unwrap_or_default();
        // Partial participation samples the cohort (everyone at 1.0, the
        // paper's setting); the churn schedule drops its absent members.
        let mut cohort = sample_cohort(env, round);
        cohort.retain(|&k| presence.enrolled(round, k));
        // Remote devices hold their own data — cloning the cohort datasets
        // would be pure memcpy the transport never reads.
        let parts: Vec<Dataset> = if self.opts.transport.is_local() {
            cohort.iter().map(|&k| env.parts[k].clone()).collect()
        } else {
            Vec::new()
        };
        let mut residuals: Vec<Vec<f32>> = cohort
            .iter()
            .map(|&k| std::mem::take(&mut self.residuals[k]))
            .collect();
        // Encoding drains the error-feedback residuals; each task carries
        // the pre-round state for the arrival rule to restore.
        let before: Vec<Option<Vec<f32>>> = residuals
            .iter()
            .map(|r| codec.uses_error_feedback().then(|| r.clone()))
            .collect();
        // Ground truth each sample claim is screened against: the server
        // knows every device's partition size.
        let caps: Vec<usize> = cohort.iter().map(|&k| env.parts[k].len()).collect();
        let ctx = Arc::clone(&self.ctx);
        let deliveries = self.opts.transport.exchange_round(&mut RoundRequest {
            global: &*self.global,
            mask: &*self.mask,
            ctx: &ctx,
            epoch: self.epoch,
            round,
            cohort: &cohort,
            parts: &parts,
            cfg: &env.cfg,
            rt: &self.rt,
            residuals: &mut residuals,
            sample_caps: &caps,
            rejoining: &presence.rejoining_devices(round, env.num_devices()),
        })?;
        for (r, &k) in residuals.into_iter().zip(&cohort) {
            self.residuals[k] = r;
        }

        let download = broadcast_payload_len(codec, &ctx) as f64;
        let start = self.clock.now();
        let (clock, arch, densities) = (&self.clock, &self.arch, &self.densities);
        let tasks: Vec<Task> = deliveries
            .into_iter()
            .zip(&cohort)
            .zip(before)
            .map(|((delivery, &k), before)| {
                let profile = env.device_profile(k);
                // A quarantined member's bytes never became an update: it
                // arrives at once, carrying nothing. `device_secs` and
                // `dropout_hits` are pure functions of `(round, device)`,
                // so skipping them perturbs nobody else.
                let samples = delivery.update().map_or(0, |u| u.samples);
                let (flops, analytic_bytes) =
                    device_round_cost(arch, densities, samples, env.cfg.local_epochs);
                let (secs, dropped) = match delivery.update() {
                    Some(u) => {
                        let upload = u.payload.encoded_len(&ctx) as f64;
                        let secs = clock.device_secs(&profile, flops, download + upload, round, k);
                        (secs, clock.dropout_hits(&profile, round, k))
                    }
                    None => (0.0, false),
                };
                Task {
                    sim: Sim {
                        device: k,
                        start_secs: start,
                        secs,
                        finish_secs: start + secs,
                        start_version: round,
                        dropped,
                        analytic_flops: flops,
                        analytic_bytes,
                        download_bytes: download,
                    },
                    ctx: Arc::clone(&ctx),
                    salt: 0,
                    work: Work::Delivered(delivery, before),
                }
            })
            .collect();
        self.enqueue(tasks);
        Ok(())
    }

    /// Buffered launch of device `k`'s next task from the current version,
    /// mask and wire context. Only the simulated side is decided here —
    /// finish time (from the partition size, not the trained model) and
    /// dropout; training waits for a flush ([`Self::flush`]).
    fn launch(&mut self, k: usize) -> Task {
        let env = self.env;
        let codec = env.cfg.codec;
        let profile = env.device_profile(k);
        let (flops, analytic_bytes) = device_round_cost(
            &self.arch,
            &self.densities,
            env.parts[k].len(),
            env.cfg.local_epochs,
        );
        // Measured wire bytes of the task: broadcast down plus the
        // (shared-epoch) encoded upload back.
        let down = broadcast_payload_len(codec, &self.ctx) as f64;
        let up = codec.encoded_len_for(&self.ctx, true) as f64;
        let task = self.task_counter[k];
        self.task_counter[k] += 1;
        let secs = self.clock.device_secs(&profile, flops, down + up, task, k);
        Task {
            sim: Sim {
                device: k,
                start_secs: self.clock.now(),
                secs,
                finish_secs: self.clock.now() + secs,
                start_version: self.round,
                dropped: self.clock.dropout_hits(&profile, task, k),
                analytic_flops: flops,
                analytic_bytes,
                download_bytes: down,
            },
            ctx: Arc::clone(&self.ctx),
            salt: task as u64,
            work: Work::Pending,
        }
    }

    /// Puts tasks in flight, keeping the queue sorted latest arrival first
    /// (on a tie the lower device index arrives first).
    fn enqueue(&mut self, tasks: impl IntoIterator<Item = Task>) {
        self.tasks.extend(tasks);
        self.tasks.sort_unstable_by(|a, b| {
            b.sim
                .finish_secs
                .total_cmp(&a.sim.finish_secs)
                .then(b.sim.device.cmp(&a.sim.device))
        });
    }

    /// Arrival: pops the next task into the window — cut if it lands past
    /// the deadline, lost if it was dropped or quarantined, accepted
    /// otherwise — and returns its device (`None`: nothing is in flight).
    fn arrive(&mut self) -> Option<usize> {
        // Flush: the initial wave's first arrival, or a device that laps
        // the window and arrives before the close that would have trained
        // it.
        let next = self.tasks.last()?;
        if matches!(next.work, Work::Pending) && !next.sim.dropped {
            self.flush(true);
        }
        let task = self.tasks.pop()?;
        self.events += 1;
        let sim = task.sim;
        let cut = sim.secs > self.env.scheduler.cutoff_secs();
        if !cut {
            self.clock.advance_to(sim.finish_secs);
        }
        let lost = cut || sim.dropped;
        let (update, before, outcome) = match task.work {
            Work::Delivered(Delivery::Update(u), before) => (Some(u), before, None),
            Work::Delivered(Delivery::Faulted(fault), before) => {
                // Every quarantined delivery is a typed, counted event,
                // never a panic.
                self.ledger.record_fault(&fault);
                (None, before, None)
            }
            // The transmission waits for the next flush, which encodes the
            // delta at the server's current mask epoch (a stale mask forces
            // explicit indices): the epoch moves only after a fold.
            Work::Trained(outcome) if !lost => (None, None, Some(outcome)),
            // A lost buffered task is never encoded, so its error-feedback
            // residual is untouched (and one still pending never trains).
            Work::Trained(_) | Work::Pending => (None, None, None),
        };
        let accepted = !lost && (update.is_some() || outcome.is_some());
        // A lost or cut barrier upload keeps its pre-round residual: the
        // mass the encode step drained never reached the server.
        if let (false, Some(before)) = (accepted, before) {
            self.residuals[sim.device] = before;
        }
        self.window.push(Arrival {
            sim,
            ctx: task.ctx,
            outcome,
            update,
            accepted,
        });
        Some(sim.device)
    }

    /// The close rule: a barrier round once nothing is left in flight, a
    /// buffered window at `buffer_k` accepted arrivals.
    fn is_full(&self) -> bool {
        match self.env.scheduler {
            Scheduler::Buffered { buffer_k } => {
                let k = buffer_k.min(self.env.num_devices()).max(1);
                self.window.iter().filter(|a| a.accepted).count() >= k
            }
            _ => self.tasks.is_empty(),
        }
    }

    /// Close: the fold, then the one tail — timeline and cost accounting
    /// (only the billing differs between the rules), the method hook (a
    /// moved mask bumps the wire epoch), evaluation, the metrics hub.
    fn close(&mut self) {
        let env = self.env;
        let buffered = matches!(env.scheduler, Scheduler::Buffered { .. });
        // Flush: the fold reads the window's updates, and it is about to
        // move the global pending tasks were launched from (after the last
        // close only a checkpoint reads those).
        self.flush(self.round + 1 < env.cfg.rounds || self.opts.checkpoint.is_some());
        if !buffered {
            // A barrier folds and bills its cohort in cohort order —
            // ascending device ids — whatever order its members arrived in.
            self.window.sort_unstable_by_key(|a| a.sim.device);
        }
        let progressed = self.fold();
        if !progressed {
            self.ledger.record_zero_progress();
        }
        for a in &self.window {
            self.ledger
                .record_timeline(a.event(self.round, progressed && a.accepted));
        }

        // Billing: maxima over the arrivals that carry an update.
        let window = &self.window;
        let max = |f: fn(&Arrival, &DeviceUpdate) -> f64| {
            let with_update = window.iter().filter_map(|a| Some(f(a, a.update.as_ref()?)));
            with_update.fold(0.0, f64::max)
        };
        let up = max(|a, u| u.payload.encoded_len(&a.ctx) as f64);
        let realized = max(|_, u| u.realized_flops);
        let cohort = window.iter().filter(|a| a.accepted).count();
        let (flops, comm, down, wall, span) = if buffered {
            // One aggregation charges one model transfer and one device's
            // training: the heaviest in the buffer.
            (
                max(|a, _| a.sim.analytic_flops),
                max(|a, _| a.sim.analytic_bytes),
                max(|a, _| a.sim.download_bytes),
                max(|_, u| u.wall_secs),
                self.clock.now() - self.opened_at,
            )
        } else {
            // Paper-style analytic cost: the fleet's heaviest device at the
            // round's densities, paid even by members cut or lost.
            let max_samples = env.parts.iter().map(|p| p.len()).max().unwrap_or(0) as f64;
            let flops = training_flops(&self.arch, &self.densities)
                * max_samples
                * env.cfg.local_epochs as f64;
            // Training wall-clock: the makespan of the schedule the pool
            // ran; one thread trains them all, back to back.
            let walls = (window.iter())
                .map(|a| (a.sim.device, a.update.as_ref().map_or(0.0, |u| u.wall_secs)))
                .collect();
            let workers = if fans_out(window.len(), &self.rt) {
                self.rt.threads()
            } else {
                1
            };
            let wall = dealt_makespan(walls, &env.parts, workers);
            // Simulated span: the slowest member, cut at the deadline.
            let slowest = window.iter().map(|a| a.sim.secs).fold(0.0, f64::max);
            let span = slowest.min(env.scheduler.cutoff_secs());
            self.clock.advance_to(self.opened_at + span);
            let comm = 2.0 * sparse_model_bytes(&self.arch, &self.densities);
            let down = broadcast_payload_len(env.cfg.codec, &self.ctx) as f64;
            (flops, comm, down, wall, span)
        };
        self.ledger.record_sim_round(span);
        self.ledger.add_comm(comm);
        self.ledger.record_payload_round(down, up);
        self.ledger.record_realized_round(realized, wall);
        self.window.clear();
        self.opened_at = self.clock.now();

        let mask_before_hook = self.mask.clone();
        let extra = (self.hook)(
            &mut *self.global,
            &mut *self.mask,
            self.round,
            &mut *self.ledger,
        );
        if *self.mask != mask_before_hook {
            self.epoch += 1;
            self.track_mask();
        }
        self.ledger.record_round_flops(flops + extra);
        if should_eval(self.eval_every, self.round, env.cfg.rounds) {
            self.history.push(evaluate(self.global, &env.test));
        }
        self.round += 1;
        self.last_cohort = cohort;
        self.publish_metrics();
    }

    /// The fold: the window's accepted `(update, weight)` pairs through
    /// [`Aggregator::aggregate_into`](crate::Aggregator::aggregate_into)
    /// against the current global, BN statistics averaged under the same
    /// weights, the mask re-applied (stale updates must not resurrect pruned
    /// weights). `false`: a degenerate window left the global untouched.
    fn fold(&mut self) -> bool {
        flat_params_into(&*self.global, &mut self.anchor);
        let accepted = fold_inputs(&self.window, self.round);
        let payloads: Vec<(&Payload, f64)> =
            accepted.clone().map(|(u, w)| (&u.payload, w)).collect();
        let outcome = self.env.cfg.aggregator.aggregate_into(
            &payloads,
            &self.anchor,
            &self.ctx,
            &self.rt,
            &mut self.agg_scratch,
        );
        self.ledger.record_clipped(outcome.clipped);
        let progressed = match outcome.params {
            Some(new_params) => {
                set_flat_params(&mut *self.global, new_params);
                let bn_updates: Vec<_> = accepted.map(|(u, w)| (u.bn.as_slice(), w)).collect();
                if let Some(new_bn) = try_aggregate_bn_stats(&bn_updates) {
                    set_bn_stats(&mut *self.global, &new_bn);
                }
                true
            }
            None => false,
        };
        apply_mask(&mut *self.global, self.mask);
        self.applied_mask = self.mask.clone();
        progressed
    }

    /// Re-derives what launches read from the mask.
    fn track_mask(&mut self) {
        self.densities = densities_from_mask(self.mask);
        self.ctx = Arc::new(wire_ctx(&*self.global, self.mask, self.epoch));
    }

    /// A flush: in one scatter ([`thread_budget`]), trains every pending
    /// task (when `train`), longest partition first ([`deal_key`]), and
    /// encodes every outcome the window holds; then hands the encoded
    /// updates to the transport in arrival order.
    ///
    /// Flushes sit where a result is needed or its inputs are about to
    /// change — an untrained next arrival, a fold, a checkpoint — and
    /// global, mask and mask epoch only move inside a close, after its fold.
    /// So a task trained late sees what it would have seen at launch, each
    /// on its `(start_version, device, salt)` RNG stream, and an update
    /// encoded late reads the epoch it would have read at arrival. A
    /// device's residual moves only through its encodes, and those run in
    /// arrival order: a device that laps the window arrives again only
    /// after the flush that trained its next task, which encoded the
    /// outcome it held. Traces are bit-identical.
    fn flush(&mut self, train: bool) {
        let Server {
            env,
            global,
            mask,
            tasks,
            window,
            residuals,
            rt,
            epoch,
            opts,
            ..
        } = self;
        let (env, global, mask, epoch) = (*env, &**global, &**mask, *epoch);
        let mut pending: Vec<&mut Task> = (tasks.iter_mut())
            .filter(|t| train && matches!(t.work, Work::Pending))
            .collect();
        let held: Vec<usize> = (0..window.len())
            .filter(|&i| window[i].outcome.is_some())
            .collect();
        if pending.is_empty() && held.is_empty() {
            return;
        }
        if !pending.is_empty() {
            let (flushes, trained) = TRAIN_COHORTS.get();
            TRAIN_COHORTS.set((flushes + 1, trained + pending.len() as u64));
        }
        pending.sort_by_key(|t| deal_key(&env.parts, t.sim.device));
        let codec = env.cfg.codec;
        let mut residuals: Vec<Option<&mut Vec<f32>>> = match codec.uses_error_feedback() {
            true => residuals.iter_mut().map(Some).collect(),
            false => Vec::new(),
        };
        let mut jobs: Vec<FlushJob> = pending.into_iter().map(FlushJob::Train).collect();
        for a in window.iter_mut().filter(|a| a.outcome.is_some()) {
            // A device holds at most one outcome here: its next task trains
            // at a flush, and that flush encodes the one held before.
            let residual = (residuals.get_mut(a.sim.device))
                .map(|r| r.take().expect("one held outcome per device"));
            jobs.push(FlushJob::Encode(a, residual));
        }
        let (fan_out, kernel_rt) = thread_budget(jobs.len(), rt);
        fan_out.scatter(jobs, |job| match job {
            FlushJob::Train(t) => {
                t.work = Work::Trained(train_one_device_raw(
                    global,
                    &env.parts[t.sim.device],
                    Some(mask),
                    &env.cfg,
                    t.sim.start_version,
                    t.sim.device,
                    t.salt,
                    &kernel_rt,
                ));
            }
            FlushJob::Encode(a, residual) => {
                let outcome = a.outcome.take().expect("held outcome");
                a.update = Some(outcome.encode(codec, &a.ctx, epoch, residual));
            }
        });
        // The transmission, across the transport's byte boundary.
        for i in held {
            let a = &mut window[i];
            let encoded = a.update.take().expect("encoded by the flush");
            a.update = Some(opts.transport.deliver_update(encoded, &a.ctx));
        }
    }

    /// Saves the checkpoint, if the run keeps one, and returns whether to
    /// halt (`halt_after`). A buffered run persists its in-flight tasks,
    /// flushed first (outcomes, not launches); a barrier has nothing in
    /// flight between rounds.
    fn checkpoint_and_halt(&mut self) -> Result<bool, ServerError> {
        let halt = self.opts.halt_after == Some(self.round);
        if let Some((path, run)) = self.opts.checkpoint.clone().zip(self.run.clone()) {
            let buffered = if matches!(self.env.scheduler, Scheduler::Buffered { .. }) {
                self.flush(true);
                Some(self.in_flight_state()?)
            } else {
                None
            };
            self.checkpoint(run, buffered).save(&path)?;
        }
        Ok(halt)
    }

    /// Snapshots a buffered run's in-flight tasks; an untrained one is a
    /// typed error, never a checkpoint that cannot resume.
    fn in_flight_state(&self) -> Result<BufferedState, ServerError> {
        let in_flight = self
            .tasks
            .iter()
            .map(|t| match &t.work {
                Work::Trained(outcome) => Ok(TaskState {
                    sim: t.sim,
                    ctx_epoch: t.ctx.epoch,
                    ctx_alive: t.ctx.alive.clone(),
                    outcome: outcome.clone(),
                }),
                _ => Err(ServerError::UntrainedTask {
                    device: t.sim.device,
                }),
            })
            .collect::<Result<Vec<_>, ServerError>>()?;
        Ok(BufferedState {
            last_agg_secs: self.opened_at,
            events: self.events,
            task_counter: self.task_counter.clone(),
            in_flight,
        })
    }

    /// Assembles the checkpoint of run `run` for the current state.
    fn checkpoint(&self, run: RunIdentity, buffered: Option<BufferedState>) -> Checkpoint {
        let layers = |m: &Mask| (0..m.num_layers()).map(|l| m.layer(l).to_vec()).collect();
        Checkpoint {
            run,
            rounds_done: self.round,
            epoch: self.epoch,
            clock_now: self.clock.now(),
            history: self.history.clone(),
            snapshot: take_snapshot(&*self.global),
            mask_layers: layers(self.mask),
            applied_mask_layers: layers(&self.applied_mask),
            residuals: self.residuals.clone(),
            ledger: self.ledger.clone(),
            buffered,
            hook_state: self.opts.hook_save.map_or_else(Vec::new, |save| {
                let blob = save();
                assert!(!blob.is_empty(), "a HookSave blob is never empty");
                blob
            }),
        }
    }

    /// Publishes new timeline events and the ledger's totals to the metrics
    /// hub, if any. Read-only: it cannot change what a run computes.
    fn publish_metrics(&mut self) {
        let Some(hub) = &self.opts.metrics else {
            return;
        };
        let timeline = self.ledger.timeline();
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
            payload_down_bytes: self.ledger.total_payload_download_bytes(),
            payload_up_bytes: self.ledger.total_payload_upload_bytes(),
            sim_makespan_secs: self.ledger.sim_makespan_secs(),
            zero_progress_rounds: self.ledger.zero_progress_rounds() as u64,
            faults: *self.ledger.faults(),
        });
    }
}

/// One device task in flight.
struct Task {
    sim: Sim,
    /// Wire context (mask + epoch) the device trained under — shared with
    /// every other task launched under the same mask.
    ctx: Arc<WireCtx>,
    /// Separates the RNG streams of a device's repeated buffered tasks at
    /// one server version (its task count at launch); 0 under a barrier,
    /// which leaves the classic `(seed, round, device)` stream untouched.
    salt: u64,
    work: Work,
}

/// What a task's device has produced so far.
enum Work {
    /// Launched; training deferred to the next flush.
    Pending,
    /// Trained and still device-local (a [`LocalOutcome`], not yet
    /// encoded): an accepted arrival is encoded at the next flush, under the
    /// server's mask epoch at its arrival, which decides whether a `MaskCsr`
    /// upload can drop its indices.
    Trained(LocalOutcome),
    /// Across the transport already (a barrier cohort's `exchange_round`),
    /// with the device's error-feedback residual from before the round,
    /// for the arrival rule to restore if the upload is lost or cut.
    Delivered(Delivery, Option<Vec<f32>>),
}

/// A popped task, waiting in the window for its close.
struct Arrival {
    sim: Sim,
    /// Wire context (mask + epoch) the device trained under.
    ctx: Arc<WireCtx>,
    /// An accepted buffered arrival's trained outcome, until the next flush
    /// encodes it into `update`.
    outcome: Option<LocalOutcome>,
    /// The update as it crossed the transport; `None` when quarantined,
    /// lost, or not yet encoded.
    update: Option<DeviceUpdate>,
    /// Arrived in time and not lost: the fold takes it.
    accepted: bool,
}

/// One job of a flush's scatter.
enum FlushJob<'a> {
    /// A pending launch to train.
    Train(&'a mut Task),
    /// A held outcome to encode, with its device's error-feedback residual
    /// (`None` without error feedback).
    Encode(&'a mut Arrival, Option<&'a mut Vec<f32>>),
}

impl Arrival {
    /// The arrival's timeline entry in round `round`.
    fn event(&self, round: usize, applied: bool) -> TimelineEvent {
        TimelineEvent {
            device: self.sim.device,
            round,
            start_secs: self.sim.start_secs,
            finish_secs: self.sim.finish_secs,
            applied,
            staleness: round - self.sim.start_version,
        }
    }
}

/// What a closing window folds: every accepted arrival's update weighted
/// `samples × staleness_weight(staleness)`, in window order. A barrier's
/// arrivals are never stale, so their weight is exactly `|D_k|` and the
/// weights sum to the participating sample count.
fn fold_inputs(
    window: &[Arrival],
    round: usize,
) -> impl Iterator<Item = (&DeviceUpdate, f64)> + Clone {
    window.iter().filter(|a| a.accepted).filter_map(move |a| {
        let u = a.update.as_ref()?;
        let staleness = round - a.sim.start_version;
        Some((u, u.samples as f64 * staleness_weight(staleness)))
    })
}

/// The makespan of the schedule a fan-out runs over `workers` threads:
/// `walls` (device, seconds) dealt by [`deal_key`], each device to the
/// worker that is free first. One worker books the sum.
fn dealt_makespan(mut walls: Vec<(usize, f64)>, parts: &[Dataset], workers: usize) -> f64 {
    walls.sort_by_key(|&(k, _)| deal_key(parts, k));
    let mut free_at = vec![0.0f64; workers.max(1)];
    for (_, wall) in walls {
        let first = (0..free_at.len())
            .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
            .expect("at least one worker");
        free_at[first] += wall;
    }
    free_at.into_iter().fold(0.0, f64::max)
}

thread_local! {
    /// `(flushes, tasks)` of every deferred-training flush on this thread.
    static TRAIN_COHORTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Tally of the buffered launches' deferred training on the calling thread:
/// how many flushes ran and how many tasks they trained in total, over
/// every buffered run driven from this thread so far. Purely a statistic
/// for benches and tests — tasks per flush is what decides whether the loop
/// can use a parallel pool.
pub fn buffered_train_cohorts() -> (u64, u64) {
    TRAIN_COHORTS.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::no_hook;
    use crate::spec::ModelSpec;
    use crate::transport::{InProcess, SimTime};
    use ft_nn::{flat_params, sparse_layout};
    use proptest::prelude::*;

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
    /// Each round's walls are summed in [`deal_key`] order, the order the
    /// ledger books a one-worker round in: in device order the two `f64`
    /// sums can differ in the last bit.
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
            let mut walls: Vec<(usize, f64)> = (deliveries.iter().enumerate())
                .map(|(i, d)| (i, d.update().map_or(0.0, |u| u.wall_secs)))
                .collect();
            walls.sort_by_key(|&(i, _)| deal_key(req.parts, i));
            self.device_wall_secs += walls.iter().fold(0.0, |sum, (_, wall)| sum + wall);
            Ok(deliveries)
        }
        fn deliver_update(&mut self, u: DeviceUpdate, _ctx: &WireCtx) -> DeviceUpdate {
            u
        }
    }

    #[test]
    fn round_wall_under_a_sequential_pool_is_the_sum_of_device_walls() {
        // On a one-thread pool devices train one after another, and the
        // round's wall-clock is the sum of theirs. Taking the max
        // under-reported it up to K×.
        let mut env = ExperimentEnv::tiny_for_tests(5);
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

    #[test]
    fn round_wall_under_a_two_thread_pool_is_the_busiest_workers_share() {
        // Ten devices on two workers, each worker training one device after
        // another: the round took at least half of the devices' summed
        // wall-clock. Taking the slowest device booked a fifth of that.
        // `Runtime::exact` keeps the pool at two threads on a one-core host
        // too.
        let mut cfg = crate::FlConfig::tiny_for_tests();
        (cfg.devices, cfg.seed, cfg.alpha) = (10, 5, 100.0);
        let synth = ft_data::SynthConfig::tiny_for_tests(ft_data::DatasetProfile::Cifar10, 5);
        let env = ExperimentEnv::new(synth, cfg);
        assert_eq!(env.num_devices(), 10);
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let mut transport = WallProbe {
            device_wall_secs: 0.0,
        };
        let opts = RunOptions::new(&mut transport);
        let mut hook = no_hook();
        let rt = Runtime::exact(2);
        Server::new(
            &env,
            0,
            model.as_mut(),
            &mut mask,
            &mut ledger,
            &mut hook,
            opts,
            rt,
            None,
        )
        .run()
        .expect("in-process run");
        assert!(transport.device_wall_secs > 0.0);
        assert!(
            ledger.total_train_wall_secs() >= transport.device_wall_secs / 2.0,
            "recorded {} s for ten devices that trained {} s on two workers",
            ledger.total_train_wall_secs(),
            transport.device_wall_secs
        );
    }

    /// A barrier round books the makespan of the longest-first list
    /// schedule: on two workers the five-second device (the largest
    /// partition) is dealt first and the five one-second devices fill the
    /// other worker. Contiguous batches of three would book 1 + 5 + 1 = 7.
    #[test]
    fn round_wall_is_the_makespan_of_the_longest_first_schedule() {
        let env = ExperimentEnv::tiny_for_tests(5);
        let sizes = [3, 9, 3, 2, 2, 1];
        let parts: Vec<Dataset> = (sizes.iter())
            .map(|&n| env.test.subset(&(0..n).collect::<Vec<_>>()))
            .collect();
        let walls: Vec<(usize, f64)> = [1.0, 5.0, 1.0, 1.0, 1.0, 1.0]
            .into_iter()
            .enumerate()
            .collect();
        assert_eq!(dealt_makespan(walls.clone(), &parts, 2), 5.0);
        assert_eq!(dealt_makespan(walls.clone(), &parts, 1), 10.0);
        assert_eq!(dealt_makespan(walls, &parts, 8), 5.0);
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
        let mut hook = no_hook();
        Server::new(
            env,
            0,
            model.as_mut(),
            &mut mask,
            &mut ledger,
            &mut hook,
            opts,
            rt,
            None,
        )
        .run()
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
        let mut env = ExperimentEnv::tiny_for_tests(36);
        env.scheduler = Scheduler::Buffered { buffer_k: 2 };
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let (mut ledger, mut hook, mut transport) = (CostLedger::new(), no_hook(), InProcess);
        let mut server = Server::new(
            &env,
            0,
            model.as_mut(),
            &mut mask,
            &mut ledger,
            &mut hook,
            RunOptions::new(&mut transport),
            ft_runtime::Runtime::sequential(),
            None,
        );
        let task = server.launch(1);
        server.enqueue([task]);
        let err = server
            .in_flight_state()
            .expect_err("a launch is not a checkpointable outcome");
        assert!(matches!(err, ServerError::UntrainedTask { device: 1 }));
        assert!(err.to_string().contains("untrained"));
        server.flush(true);
        let saved = server.in_flight_state().expect("trained");
        assert_eq!(saved.in_flight.len(), 1);
    }

    /// An arrival as the window holds it: launched at `version`, accepted
    /// or not, with or without an update.
    fn arrival(samples: usize, version: usize, accepted: bool, update: bool) -> Arrival {
        Arrival {
            sim: Sim {
                start_version: version,
                ..Sim::default()
            },
            ctx: Arc::new(WireCtx::dense(1)),
            outcome: None,
            update: update.then(|| DeviceUpdate {
                payload: Payload::Dense { values: vec![0.0] },
                bn: Vec::new(),
                samples,
                realized_flops: 0.0,
                wall_secs: 0.0,
            }),
            accepted: accepted && update,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The weights a closing barrier window hands the aggregator always
        /// sum to the participating (accepted) sample count: cut, dropped
        /// and quarantined members carry none.
        #[test]
        fn sim_survivor_weights_sum_to_sample_count(
            samples in proptest::collection::vec(1usize..500, 1..8),
            fates in proptest::collection::vec(0u32..3, 1..8),
        ) {
            // 0: accepted; 1: trained but cut or dropped; 2: quarantined.
            let round = 5;
            let n = samples.len().min(fates.len());
            let window: Vec<Arrival> = samples[..n]
                .iter()
                .zip(&fates[..n])
                .map(|(&s, &fate)| arrival(s, round, fate == 0, fate != 2))
                .collect();
            let got: Vec<(&DeviceUpdate, f64)> = fold_inputs(&window, round).collect();
            let expected: usize = samples[..n]
                .iter()
                .zip(&fates[..n])
                .filter(|(_, &fate)| fate == 0)
                .map(|(&s, _)| s)
                .sum();
            let weight_sum: f64 = got.iter().map(|(_, w)| *w).sum();
            prop_assert_eq!(got.len(), fates[..n].iter().filter(|&&f| f == 0).count());
            prop_assert_eq!(weight_sum, expected as f64);
        }
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

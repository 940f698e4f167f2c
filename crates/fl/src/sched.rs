//! Virtual-time fleet scheduling: how the server closes rounds over a
//! heterogeneous device fleet.
//!
//! The classic loop assumes identical devices that all finish together. The
//! [`Scheduler`] policies relax that over the environment's
//! [`DeviceProfile`](ft_metrics::DeviceProfile) fleet, with every device's
//! analytic FLOPs + transfer bytes converted to *simulated seconds* by a
//! [`SimClock`](ft_metrics::SimClock):
//!
//! - [`Scheduler::Synchronous`] — the barrier: the server waits for every
//!   cohort member; the round's simulated span is the slowest device.
//! - [`Scheduler::Deadline`] — the server cuts the round at a deadline;
//!   late (and dropped) devices are excluded from the aggregate. An empty
//!   surviving cohort leaves the global unchanged and is recorded as a
//!   zero-progress round.
//! - [`Scheduler::Buffered`] — FedBuff-style asynchrony: devices train
//!   continuously against whatever global they last downloaded; the server
//!   applies a staleness-weighted aggregate as soon as `buffer_k` updates
//!   arrive. One aggregation = one "round".
//!
//! All policies keep the workspace's determinism contract: every stochastic
//! choice (batch order, jitter, dropout) is a pure function of
//! `(seed, round/task, device)`, so parallel and sequential host execution
//! produce bit-identical results.
//!
//! ## Wire billing
//!
//! Every transfer is billed to the [`SimClock`](ft_metrics::SimClock) and
//! the [`CostLedger`] at its **measured** size: the `encoded_len()` of the
//! actually-encoded [`Payload`](ft_sparse::Payload) upload plus the server
//! broadcast size, next to the classic analytic
//! [`sparse_model_bytes`] axis (the same measured-vs-analytic split the
//! FLOPs accounting uses). One caveat under buffered aggregation: a task's
//! finish time is fixed when its transfer is *scheduled*, so a stale
//! upload's extra index bytes (mask epoch drifted mid-flight) appear in the
//! ledger but not in its link time.

use crate::env::ExperimentEnv;
use ft_metrics::{sparse_model_bytes, training_flops, DeviceProfile};
use ft_nn::ArchInfo;
use ft_sparse::{Codec, WireCtx};
use serde::{Deserialize, Serialize};

/// Round-closing policy over the simulated fleet.
///
/// # Examples
///
/// ```
/// use ft_fl::Scheduler;
///
/// let mut env = ft_fl::ExperimentEnv::tiny_for_tests(0);
/// // Cut every round after 30 simulated seconds; stragglers are dropped.
/// env.scheduler = Scheduler::Deadline { deadline_secs: 30.0 };
/// assert_eq!(env.scheduler.name(), "deadline");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Scheduler {
    /// Barrier aggregation: wait for the whole cohort (the paper's
    /// setting). Round span = slowest cohort member.
    #[default]
    Synchronous,
    /// Barrier with a cutoff: updates arriving after `deadline_secs`
    /// simulated seconds are discarded. Round span = `min(slowest,
    /// deadline)`.
    Deadline {
        /// Simulated seconds after which the server closes the round.
        deadline_secs: f64,
    },
    /// FedBuff-style buffered asynchrony: the server aggregates
    /// staleness-weighted updates as soon as `buffer_k` arrive; devices
    /// immediately restart from the newest global. Partial participation is
    /// ignored — every device streams continuously.
    Buffered {
        /// Updates buffered before the server aggregates (clamped to
        /// `[1, devices]`).
        buffer_k: usize,
    },
}

impl Scheduler {
    /// Stable lowercase name for reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Scheduler::Synchronous => "synchronous",
            Scheduler::Deadline { .. } => "deadline",
            Scheduler::Buffered { .. } => "buffered",
        }
    }

    /// Structural validation, enforced before the round loop starts:
    /// rejects `Buffered { buffer_k: 0 }` (the server would wait forever
    /// for an aggregate that can never form) and negative or non-finite
    /// deadlines (every round would be cut before any device finishes).
    pub fn validate(&self) -> Result<(), crate::config::ConfigError> {
        match *self {
            Scheduler::Synchronous => Ok(()),
            Scheduler::Deadline { deadline_secs } => {
                if deadline_secs.is_finite() && deadline_secs >= 0.0 {
                    Ok(())
                } else {
                    Err(crate::config::ConfigError::BadDeadline { deadline_secs })
                }
            }
            Scheduler::Buffered { buffer_k } => {
                if buffer_k == 0 {
                    Err(crate::config::ConfigError::ZeroBufferK)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Simulated seconds after its launch past which the server stops
    /// waiting for an upload: the deadline, or `∞` for the policies that
    /// have none.
    pub(crate) fn cutoff_secs(&self) -> f64 {
        match *self {
            Scheduler::Deadline { deadline_secs } => deadline_secs,
            Scheduler::Synchronous | Scheduler::Buffered { .. } => f64::INFINITY,
        }
    }
}

/// Analytic cost of one local-training task at the given mask densities:
/// `(training FLOPs, transfer bytes)` for a device holding `samples`
/// samples. Bytes cover one download + one upload of the sparse model.
pub fn device_round_cost(
    arch: &ArchInfo,
    densities: &[f32],
    samples: usize,
    local_epochs: usize,
) -> (f64, f64) {
    let flops = training_flops(arch, densities) * samples as f64 * local_epochs as f64;
    let bytes = 2.0 * sparse_model_bytes(arch, densities);
    (flops, bytes)
}

/// Jitter-free simulated seconds one round takes on `profile` under the
/// *analytic* byte model — a deadline-picking heuristic. The round loops
/// bill the clock with measured payload bytes, which sit close to (and for
/// shared-epoch sparse transfers slightly below) this estimate.
pub fn device_sim_secs(
    profile: &DeviceProfile,
    arch: &ArchInfo,
    densities: &[f32],
    samples: usize,
    local_epochs: usize,
) -> f64 {
    let (flops, bytes) = device_round_cost(arch, densities, samples, local_epochs);
    profile.base_round_secs(flops, bytes)
}

/// A deadline strictly inside a fleet's spread: the geometric mean of the
/// fastest and the slowest device's jitter-free simulated round time at
/// `densities` — fast tiers land comfortably, the slowest tier is cut.
/// The shared heuristic behind the deadline benches, examples, and tests.
pub fn fleet_spread_deadline(env: &ExperimentEnv, arch: &ArchInfo, densities: &[f32]) -> f64 {
    let secs: Vec<f64> = (0..env.num_devices())
        .map(|k| {
            device_sim_secs(
                &env.device_profile(k),
                arch,
                densities,
                env.parts[k].len(),
                env.cfg.local_epochs,
            )
        })
        .collect();
    let fastest = secs.iter().cloned().fold(f64::INFINITY, f64::min);
    let slowest = secs.iter().cloned().fold(0.0f64, f64::max);
    (fastest * slowest).sqrt()
}

/// What the simulated fleet fixed for a task at its launch.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Sim {
    pub(crate) device: usize,
    pub(crate) start_secs: f64,
    /// Simulated seconds from launch to arrival.
    pub(crate) secs: f64,
    pub(crate) finish_secs: f64,
    /// The server version (closed rounds) the task was launched from.
    pub(crate) start_version: usize,
    /// The upload is lost on the way (dropout).
    pub(crate) dropped: bool,
    pub(crate) analytic_flops: f64,
    pub(crate) analytic_bytes: f64,
    /// Measured broadcast bytes the device downloaded at launch.
    pub(crate) download_bytes: f64,
}

/// Whether the round loop evaluates after round `round` of `rounds`.
pub(crate) fn should_eval(eval_every: usize, round: usize, rounds: usize) -> bool {
    (eval_every > 0 && round % eval_every == eval_every - 1) || round + 1 == rounds
}

/// Measured wire size of one server → device model broadcast under `codec`:
/// the full dense vector for `Codec::Dense`, otherwise the mask-structured
/// values-only form (both ends share the mask epoch by construction — the
/// server just told the device which mask to train under).
pub fn broadcast_payload_len(codec: Codec, ctx: &WireCtx) -> usize {
    match codec {
        Codec::Dense => Codec::Dense.encoded_len_for(ctx, true),
        _ => Codec::MaskCsr.encoded_len_for(ctx, true),
    }
}

/// The fleet's dynamic registry: which devices are enrolled at which
/// round. An empty schedule (the default) means every device is always
/// present — the pre-churn behavior, bit for bit. Absence windows model
/// devices leaving and rejoining between rounds: an absent device is
/// filtered out of every sampled cohort, and the round it comes back is
/// reported as *rejoining* so a reconnecting transport can re-accept its
/// stream before the broadcast.
///
/// # Examples
///
/// ```
/// use ft_fl::PresenceSchedule;
///
/// // Device 2 is gone for rounds 3 and 4, back at round 5.
/// let p = PresenceSchedule::new().absent(2, 3..5);
/// assert!(p.enrolled(2, 2));
/// assert!(!p.enrolled(3, 2));
/// assert!(!p.enrolled(4, 2));
/// assert!(p.enrolled(5, 2));
/// assert!(p.rejoining(5, 2));
/// assert!(!p.rejoining(6, 2));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PresenceSchedule {
    /// Half-open absence windows `[from, until)` per device.
    windows: Vec<(usize, std::ops::Range<usize>)>,
}

impl PresenceSchedule {
    /// The always-present schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `device` absent for the half-open round range `rounds`
    /// (builder-style; windows may overlap and accumulate).
    pub fn absent(mut self, device: usize, rounds: std::ops::Range<usize>) -> Self {
        self.windows.push((device, rounds));
        self
    }

    /// Whether `device` is enrolled (present) at `round`.
    pub fn enrolled(&self, round: usize, device: usize) -> bool {
        !self
            .windows
            .iter()
            .any(|(d, r)| *d == device && r.contains(&round))
    }

    /// Whether `device` comes back at `round` after being absent the round
    /// before — the transport must re-accept its connection before this
    /// round's broadcast.
    pub fn rejoining(&self, round: usize, device: usize) -> bool {
        round > 0 && self.enrolled(round, device) && !self.enrolled(round - 1, device)
    }

    /// The devices of `fleet_size` rejoining at `round`, ascending.
    pub fn rejoining_devices(&self, round: usize, fleet_size: usize) -> Vec<usize> {
        (0..fleet_size)
            .filter(|&d| self.rejoining(round, d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::CostLedger;
    use crate::rounds::{no_hook, run_federated_rounds};
    use crate::spec::ModelSpec;
    use ft_nn::{apply_mask, flat_params, sparse_layout};
    use ft_sparse::Mask;

    /// Runs one policy end-to-end on a mixed fleet and returns everything
    /// the determinism tests compare bit-for-bit.
    fn run_policy_with_codec(
        scheduler: Scheduler,
        parallel: bool,
        seed: u64,
        codec: Codec,
    ) -> (Vec<f32>, Vec<f32>, String) {
        let mut env = ExperimentEnv::tiny_for_tests(seed);
        env.cfg.threads = if parallel { 4 } else { 1 };
        env.cfg.codec = codec;
        env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
        env.scheduler = scheduler;
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let layout = sparse_layout(model.as_ref());
        let mut mask = Mask::ones(&layout);
        let mut ledger = CostLedger::new();
        let history = run_federated_rounds(
            model.as_mut(),
            &mut mask,
            &env,
            1,
            &mut ledger,
            &mut no_hook(),
        );
        (
            history,
            flat_params(model.as_ref()),
            format!("{:?}", ledger.deterministic_axes()),
        )
    }

    fn run_policy(scheduler: Scheduler, parallel: bool, seed: u64) -> (Vec<f32>, Vec<f32>, String) {
        run_policy_with_codec(scheduler, parallel, seed, Codec::Dense)
    }

    /// A fleet with no timing noise where the last device is 100x slower
    /// than the rest — a clean straggler regardless of how the non-iid
    /// split distributed the samples.
    fn two_speed_fleet(n: usize) -> Vec<DeviceProfile> {
        let reference = DeviceProfile::uniform();
        let mut straggler = reference;
        straggler.flops_per_sec /= 100.0;
        straggler.bytes_per_sec /= 100.0;
        let mut fleet = vec![reference; n.saturating_sub(1)];
        fleet.push(straggler);
        fleet
    }

    /// [`fleet_spread_deadline`] at dense densities for the test model —
    /// with [`two_speed_fleet`] this lands strictly between the reference
    /// devices and the 100x straggler.
    fn two_speed_deadline(env: &ExperimentEnv) -> f64 {
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let densities = vec![1.0f32; sparse_layout(model.as_ref()).num_layers()];
        fleet_spread_deadline(env, &model.arch(), &densities)
    }

    #[test]
    fn sim_synchronous_parallel_matches_sequential() {
        let a = run_policy(Scheduler::Synchronous, true, 9);
        let b = run_policy(Scheduler::Synchronous, false, 9);
        assert_eq!(a.0, b.0, "accuracy history diverged");
        assert_eq!(a.1, b.1, "final parameters diverged");
        assert_eq!(a.2, b.2, "ledger diverged");
    }

    #[test]
    fn sim_deadline_parallel_matches_sequential() {
        // 2 simulated seconds sits inside the mixed fleet's spread, so the
        // drop path is genuinely exercised on both sides of the comparison.
        let d = 2.0;
        let a = run_policy(Scheduler::Deadline { deadline_secs: d }, true, 9);
        let b = run_policy(Scheduler::Deadline { deadline_secs: d }, false, 9);
        assert_eq!(a.0, b.0, "accuracy history diverged");
        assert_eq!(a.1, b.1, "final parameters diverged");
        assert_eq!(a.2, b.2, "ledger diverged");
    }

    #[test]
    fn sim_deadline_unbounded_equals_synchronous() {
        // One close rule: a barrier round closes when its last member has
        // arrived or been cut. With a deadline no device can miss, nothing
        // is ever cut, so Deadline must be Synchronous bit for bit.
        let unbounded = run_policy(
            Scheduler::Deadline {
                deadline_secs: f64::MAX,
            },
            true,
            12,
        );
        let synchronous = run_policy(Scheduler::Synchronous, true, 12);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&unbounded.0), bits(&synchronous.0), "history diverged");
        assert_eq!(
            bits(&unbounded.1),
            bits(&synchronous.1),
            "parameters diverged"
        );
        assert_eq!(unbounded.2, synchronous.2, "ledger diverged");
    }

    #[test]
    fn sim_buffered_parallel_matches_sequential() {
        let a = run_policy(Scheduler::Buffered { buffer_k: 2 }, true, 9);
        let b = run_policy(Scheduler::Buffered { buffer_k: 2 }, false, 9);
        assert_eq!(a.0, b.0, "accuracy history diverged");
        assert_eq!(a.1, b.1, "final parameters diverged");
        assert_eq!(a.2, b.2, "ledger diverged");
    }

    #[test]
    fn sim_every_codec_parallel_matches_sequential() {
        // The payload pipeline keeps the determinism contract for every
        // codec under every scheduler: encoding, error feedback, and
        // measured byte accounting are all pure functions of
        // (seed, round/task, device).
        for codec in [
            Codec::Dense,
            Codec::MaskCsr,
            Codec::QuantInt8,
            Codec::TopK {
                k_frac: 0.1,
                error_feedback: true,
            },
        ] {
            for sched in [
                Scheduler::Synchronous,
                Scheduler::Deadline { deadline_secs: 2.0 },
                Scheduler::Buffered { buffer_k: 2 },
            ] {
                let a = run_policy_with_codec(sched, true, 13, codec);
                let b = run_policy_with_codec(sched, false, 13, codec);
                assert_eq!(a.0, b.0, "{codec:?}/{sched:?}: history diverged");
                assert_eq!(a.1, b.1, "{codec:?}/{sched:?}: parameters diverged");
                assert_eq!(a.2, b.2, "{codec:?}/{sched:?}: ledger diverged");
            }
        }
    }

    #[test]
    fn sim_measured_bytes_ordered_by_codec() {
        // At full density: MaskCsr ≈ Dense, QuantInt8 strictly smaller
        // uploads, TopK smallest. The measured axis must reflect the wire
        // formats, not the analytic formula.
        let upload_total = |codec: Codec| -> f64 {
            let mut env = ExperimentEnv::tiny_for_tests(3);
            env.cfg.codec = codec;
            let mut model = env.build_model(&ModelSpec::small_cnn_test());
            let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
            let mut ledger = CostLedger::new();
            let _ = run_federated_rounds(
                model.as_mut(),
                &mut mask,
                &env,
                0,
                &mut ledger,
                &mut no_hook(),
            );
            ledger.total_payload_upload_bytes()
        };
        let dense = upload_total(Codec::Dense);
        let quant = upload_total(Codec::QuantInt8);
        let topk = upload_total(Codec::TopK {
            k_frac: 0.05,
            error_feedback: true,
        });
        assert!(dense > 0.0);
        assert!(
            quant < dense / 3.0,
            "quantized uploads {quant} not ≥3x below dense {dense}"
        );
        assert!(
            topk < dense / 3.0,
            "top-k uploads {topk} not ≥3x below dense {dense}"
        );
    }

    #[test]
    fn sim_repeat_runs_are_bit_identical() {
        for sched in [
            Scheduler::Synchronous,
            Scheduler::Deadline {
                deadline_secs: 50.0,
            },
            Scheduler::Buffered { buffer_k: 2 },
        ] {
            let a = run_policy(sched, true, 4);
            let b = run_policy(sched, true, 4);
            assert_eq!(a.0, b.0, "{sched:?}: history diverged across runs");
            assert_eq!(a.1, b.1, "{sched:?}: parameters diverged across runs");
            assert_eq!(a.2, b.2, "{sched:?}: ledger diverged across runs");
        }
    }

    #[test]
    fn sim_deadline_drops_stragglers_but_progresses() {
        let mut env = ExperimentEnv::tiny_for_tests(5);
        env.fleet = two_speed_fleet(env.num_devices());
        let d = two_speed_deadline(&env);
        env.scheduler = Scheduler::Deadline { deadline_secs: d };
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let history = run_federated_rounds(
            model.as_mut(),
            &mut mask,
            &env,
            0,
            &mut ledger,
            &mut no_hook(),
        );
        assert!(!history.is_empty());
        assert!(ledger.dropped_updates() > 0, "no straggler was ever cut");
        assert_eq!(ledger.zero_progress_rounds(), 0, "fast tier should land");
        // The cut round can never span longer than the deadline.
        assert!(ledger.max_sim_round_secs() <= d + 1e-9);
    }

    /// `ft_round_cohort_size` counts the updates the last round accepted:
    /// the straggler a deadline cut is a cohort member, not an update.
    #[test]
    fn sim_cohort_gauge_counts_accepted_updates_on_a_barrier() {
        let mut env = ExperimentEnv::tiny_for_tests(5);
        env.fleet = two_speed_fleet(env.num_devices());
        let d = two_speed_deadline(&env);
        env.scheduler = Scheduler::Deadline { deadline_secs: d };
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let hub = ft_metrics::MetricsHub::new();
        let mut transport = crate::InProcess;
        let mut opts = crate::server::RunOptions::new(&mut transport);
        opts.metrics = Some(hub.clone());
        crate::server::run_with(
            model.as_mut(),
            &mut mask,
            &env,
            0,
            &mut ledger,
            &mut no_hook(),
            opts,
        )
        .expect("run");
        let last = env.cfg.rounds - 1;
        let members = ledger.timeline().iter().filter(|e| e.round == last);
        let applied = members.clone().filter(|e| e.applied).count();
        assert!(
            applied > 0 && applied < members.count(),
            "the last round must apply some updates and cut some"
        );
        let scrape = hub.render_text();
        let gauge = format!("\nft_round_cohort_size {applied}\n");
        assert!(scrape.contains(&gauge), "want {gauge:?} in:\n{scrape}");
    }

    #[test]
    fn sim_deadline_empty_cohort_keeps_global_unchanged() {
        let mut env = ExperimentEnv::tiny_for_tests(6);
        env.scheduler = Scheduler::Deadline { deadline_secs: 0.0 };
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let before = flat_params(model.as_ref());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let history = run_federated_rounds(
            model.as_mut(),
            &mut mask,
            &env,
            0,
            &mut ledger,
            &mut no_hook(),
        );
        assert_eq!(ledger.zero_progress_rounds(), env.cfg.rounds);
        assert_eq!(flat_params(model.as_ref()), before, "global must not move");
        assert!(history.iter().all(|a| a.is_finite()));
        assert!(before.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sim_buffered_completes_all_rounds_with_staleness() {
        let mut env = ExperimentEnv::tiny_for_tests(7);
        env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
        env.scheduler = Scheduler::Buffered { buffer_k: 1 };
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let history = run_federated_rounds(
            model.as_mut(),
            &mut mask,
            &env,
            1,
            &mut ledger,
            &mut no_hook(),
        );
        assert_eq!(ledger.rounds(), env.cfg.rounds);
        assert_eq!(history.len(), env.cfg.rounds);
        assert!(ledger.sim_makespan_secs() > 0.0);
        // With buffer_k = 1 on a mixed fleet the slow device's update must
        // land several versions stale.
        assert!(
            ledger.timeline().iter().any(|e| e.staleness > 0),
            "no stale update ever recorded"
        );
    }

    #[test]
    fn sim_buffered_never_resurrects_pruned_weights() {
        let mut env = ExperimentEnv::tiny_for_tests(8);
        env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
        env.scheduler = Scheduler::Buffered { buffer_k: 2 };
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let layout = sparse_layout(model.as_ref());
        let mut mask = Mask::ones(&layout);
        for i in 0..layout.layer(0).len {
            if i % 2 == 0 {
                mask.set(0, i, false);
            }
        }
        apply_mask(model.as_mut(), &mask);
        let mut ledger = CostLedger::new();
        let _ = run_federated_rounds(
            model.as_mut(),
            &mut mask,
            &env,
            0,
            &mut ledger,
            &mut no_hook(),
        );
        // Pruned coordinates stay zero in the final global.
        let mut offset = 0;
        for p in model.params() {
            if p.prunable {
                break;
            }
            offset += p.len();
        }
        let flat = flat_params(model.as_ref());
        for i in 0..layout.layer(0).len {
            if i % 2 == 0 {
                assert_eq!(flat[offset + i], 0.0, "pruned weight {i} resurrected");
            }
        }
    }

    #[test]
    fn sim_synchronous_span_is_slowest_cohort_member() {
        let mut env = ExperimentEnv::tiny_for_tests(10);
        env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let _ = run_federated_rounds(
            model.as_mut(),
            &mut mask,
            &env,
            0,
            &mut ledger,
            &mut no_hook(),
        );
        // Every round's span is at least the slow tier's jitter-free time
        // under the *measured* byte model the clock is billed with.
        let arch = model.arch();
        let densities = vec![1.0f32; mask.num_layers()];
        let ctx = ft_nn::wire_ctx(model.as_ref(), &mask, 0);
        let bytes = broadcast_payload_len(env.cfg.codec, &ctx) as f64
            + env.cfg.codec.encoded_len_for(&ctx, true) as f64;
        let flops = training_flops(&arch, &densities)
            * env.parts[2].len() as f64
            * env.cfg.local_epochs as f64;
        let slow_base = env.device_profile(2).base_round_secs(flops, bytes);
        assert!(
            ledger.max_sim_round_secs() >= slow_base,
            "span {} below the slow tier's base time {slow_base}",
            ledger.max_sim_round_secs()
        );
    }

    #[test]
    fn sim_scheduler_serde_roundtrip_and_names() {
        for sched in [
            Scheduler::Synchronous,
            Scheduler::Deadline {
                deadline_secs: 12.5,
            },
            Scheduler::Buffered { buffer_k: 3 },
        ] {
            let json = serde_json::to_string(&sched).expect("ser");
            let back: Scheduler = serde_json::from_str(&json).expect("de");
            assert_eq!(sched, back);
        }
        assert_eq!(Scheduler::Synchronous.name(), "synchronous");
        assert_eq!(Scheduler::default(), Scheduler::Synchronous);
        assert_eq!(Scheduler::Buffered { buffer_k: 1 }.name(), "buffered");
    }

    #[test]
    fn sim_slower_profiles_take_longer() {
        let env = ExperimentEnv::tiny_for_tests(11);
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let arch = model.arch();
        let densities = vec![1.0f32; sparse_layout(model.as_ref()).num_layers()];
        let fast = device_sim_secs(&DeviceProfile::fast(), &arch, &densities, 20, 1);
        let slow = device_sim_secs(&DeviceProfile::slow(), &arch, &densities, 20, 1);
        assert!(slow > fast * 5.0, "slow {slow} vs fast {fast}");
        // Sparser masks shrink simulated time.
        let sparse = device_sim_secs(
            &DeviceProfile::fast(),
            &arch,
            &vec![0.05f32; densities.len()],
            20,
            1,
        );
        assert!(sparse < fast);
    }
}

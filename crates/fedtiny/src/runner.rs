//! End-to-end FedTiny pipeline and its ablation variants.

use crate::progressive::{progressive_adjust, ProgressiveConfig};
use crate::selection::{
    adaptive_bn_selection, generate_candidate_pool, vanilla_selection, SelectionConfig,
    SelectionOutcome,
};
use ft_fl::{
    run_with, CheckpointError, Codec, CostLedger, ExperimentEnv, InProcess, ModelSpec, RunOptions,
    RunResult, ServerError, Transport,
};
use ft_metrics::ExtraMemory;
use ft_nn::{apply_mask, Model};
use ft_sparse::wire::put_u64;
use ft_sparse::{DecodeError, Mask, WireReader};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::path::PathBuf;

/// Which coarse-pruning selection the pipeline uses (Fig. 4 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionMode {
    /// Algorithm 1 (BN recalibration before scoring) — FedTiny's default.
    AdaptiveBn,
    /// Score candidates without BN recalibration.
    Vanilla,
}

/// Full FedTiny configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FedTinyConfig {
    /// Architecture to train.
    pub model: ModelSpec,
    /// Target overall density `d_target`.
    pub d_target: f32,
    /// Candidate pool size `C`.
    pub pool_size: usize,
    /// Uniform-noise half-width for candidate densities.
    pub noise_spread: f32,
    /// Coarse-pruning selection variant.
    pub selection: SelectionMode,
    /// Progressive pruning; `None` fine-tunes the coarse-pruned model only
    /// (the "selection only" ablation arms).
    pub progressive: Option<ProgressiveConfig>,
    /// Wire codec for the update exchange. FedTiny's point is a *sparse*
    /// model, so the default is `MaskCsr` — uploads carry only mask-alive
    /// values and the communication savings are measured on the wire.
    pub codec: Codec,
    /// Evaluate the global model every this many rounds (plus the final
    /// round).
    pub eval_every: usize,
}

impl FedTinyConfig {
    /// Paper defaults at a target density (pool `C* = 0.1/d`, adaptive BN,
    /// block-backward progressive pruning, `ΔR = 10`, `R_stop = 100`).
    pub fn paper_default(model: ModelSpec, d_target: f32, local_epochs: usize) -> Self {
        FedTinyConfig {
            model,
            d_target,
            pool_size: SelectionConfig::optimal_pool_size(d_target),
            noise_spread: 0.5,
            selection: SelectionMode::AdaptiveBn,
            progressive: Some(ProgressiveConfig::paper_default(local_epochs)),
            codec: Codec::MaskCsr,
            eval_every: 10,
        }
    }

    /// Millisecond-scale config for unit tests.
    pub fn tiny_for_tests(d_target: f32) -> Self {
        FedTinyConfig {
            model: ModelSpec::small_cnn_test(),
            d_target,
            pool_size: 3,
            noise_spread: 0.5,
            selection: SelectionMode::AdaptiveBn,
            progressive: Some(ProgressiveConfig::tiny_for_tests()),
            codec: Codec::MaskCsr,
            eval_every: 2,
        }
    }
}

impl Default for FedTinyConfig {
    fn default() -> Self {
        Self::paper_default(
            ModelSpec::ResNet18 {
                width: 1.0,
                input: 32,
            },
            0.01,
            5,
        )
    }
}

/// Durable-run knobs for [`run_fedtiny_with`]: which transport the update
/// exchange crosses, and checkpoint/resume plumbing for the fine-tuning
/// rounds (module 2). The coarse-pruning selection (module 1) is
/// deterministic and cheap, so a resumed run simply recomputes it — the
/// checkpoint then overwrites model, mask, ledger, and the progressive
/// hook's counters with the persisted state.
pub struct FedTinyRunOptions<'a> {
    /// Transport for the federated fine-tuning rounds.
    pub transport: &'a mut dyn Transport,
    /// Save a checkpoint to this file after every completed round.
    pub checkpoint: Option<PathBuf>,
    /// Resume from an existing checkpoint at that path (missing file =
    /// fresh start).
    pub resume: bool,
    /// Kill-emulation hook: stop after this many completed rounds.
    pub halt_after: Option<usize>,
    /// Optional live-metrics hub, forwarded to the round loop. Strictly
    /// observational; `None` and `Some` runs are bit-identical.
    pub metrics: Option<std::sync::Arc<ft_fl::MetricsHub>>,
}

impl<'a> FedTinyRunOptions<'a> {
    /// Plain options: run on `transport`, no checkpointing.
    pub fn new(transport: &'a mut dyn Transport) -> Self {
        FedTinyRunOptions {
            transport,
            checkpoint: None,
            resume: false,
            halt_after: None,
            metrics: None,
        }
    }
}

/// The selection a run under `cfg` makes (Alg. 1): the candidate pool of
/// `env`'s initial model, scored as `cfg.selection` says, and that model
/// pruned to the chosen mask.
pub fn coarse_prune(
    env: &ExperimentEnv,
    cfg: &FedTinyConfig,
) -> (Box<dyn Model>, SelectionOutcome) {
    let mut global = env.build_model(&cfg.model);
    let sel_cfg = SelectionConfig {
        d_target: cfg.d_target,
        pool_size: cfg.pool_size,
        noise_spread: cfg.noise_spread,
        seed: env.cfg.seed,
    };
    let pool = generate_candidate_pool(global.as_ref(), &sel_cfg);
    let outcome = match cfg.selection {
        SelectionMode::AdaptiveBn => adaptive_bn_selection(global.as_ref(), env, &pool),
        SelectionMode::Vanilla => vanilla_selection(global.as_ref(), env, &pool),
    };
    apply_mask(global.as_mut(), &outcome.mask);
    (global, outcome)
}

/// Runs the full FedTiny pipeline on an environment: coarse-pruning
/// selection, then sparse federated fine-tuning with (optional) progressive
/// grow/prune adjustments.
///
/// Returns the uniform [`RunResult`] used by every method in the workspace.
pub fn run_fedtiny(env: &ExperimentEnv, cfg: &FedTinyConfig) -> RunResult {
    let mut transport = InProcess;
    run_fedtiny_with(env, cfg, FedTinyRunOptions::new(&mut transport))
        .unwrap_or_else(|e| panic!("fedtiny run failed: {e}"))
}

/// [`run_fedtiny`] over an explicit transport, with checkpoint/resume: the
/// fine-tuning rounds (including the progressive-adjustment counters, which
/// ride in the checkpoint's hook-state blob) can be killed at a round
/// boundary and resumed to the byte-identical final trace.
pub fn run_fedtiny_with(
    env: &ExperimentEnv,
    cfg: &FedTinyConfig,
    opts: FedTinyRunOptions<'_>,
) -> Result<RunResult, ServerError> {
    let env = &env.clone().with_codec(cfg.codec);
    // --- Module 1: coarse pruning by candidate selection.
    let (mut global, outcome) = coarse_prune(env, cfg);
    let mut mask = outcome.mask.clone();

    let mut ledger = CostLedger::new();
    ledger.add_extra_flops(outcome.extra_flops);
    ledger.add_comm(outcome.comm_bytes);
    ledger.add_payload_comm(outcome.payload_bytes);

    // --- Module 2: sparse FedAvg + progressive pruning (Alg. 2 lines
    // 10–26), with the hook's counters in the checkpoint. Interior
    // mutability lets the round hook, the checkpoint saver, and the
    // checkpoint loader share them without aliasing conflicts.
    let progressive = cfg.progressive.as_ref();
    let state = RefCell::new(ProgState::default());
    let units = progressive.map(|p| p.units(global.as_ref(), mask.num_layers()));
    let mut hook =
        |model: &mut dyn Model, mask: &mut Mask, round: usize, ledger: &mut CostLedger| -> f64 {
            let (Some(pcfg), Some(units)) = (progressive, units.as_ref()) else {
                return 0.0;
            };
            if round < pcfg.start_round || !pcfg.schedule.adjusts_at(round) {
                return 0.0;
            }
            let mut st = state.borrow_mut();
            let unit = &units[st.adjustment_counter % units.len()];
            let report = progressive_adjust(model, mask, env, pcfg, unit, round);
            if report.adjusted.is_empty() {
                return 0.0;
            }
            st.adjustment_counter += 1;
            st.max_buffer = st.max_buffer.max(report.max_buffer);
            ledger.add_comm(report.comm_bytes);
            ledger.add_payload_comm(report.payload_bytes);
            report.extra_flops
        };
    let hook_save = || state.borrow().to_bytes();
    let hook_load = |bytes: &[u8]| -> Result<(), CheckpointError> {
        *state.borrow_mut() = ProgState::from_bytes(bytes)
            .map_err(|e| CheckpointError::Corrupt(format!("hook state: {e}")))?;
        Ok(())
    };
    let history = run_with(
        global.as_mut(),
        &mut mask,
        env,
        cfg.eval_every,
        &mut ledger,
        &mut hook,
        RunOptions {
            transport: opts.transport,
            checkpoint: opts.checkpoint,
            resume: opts.resume,
            halt_after: opts.halt_after,
            hook_save: Some(&hook_save),
            hook_load: Some(&hook_load),
            presence: None,
            metrics: opts.metrics,
        },
    )?;
    // A run halted before its first evaluation point has an empty history
    // (the checkpoint carries the real state); `from_ledger` reports NaN
    // rather than panicking out of a Result-returning API.
    let max_buffer = state.borrow().max_buffer;
    Ok(RunResult::from_ledger(
        method_name(cfg),
        history,
        &mask,
        &global.arch(),
        ExtraMemory::TopKBuffer(max_buffer),
        cfg.codec.name(),
        &ledger,
    ))
}

/// Progressive-adjustment hook state that must survive a checkpoint: the
/// round-robin unit counter and the largest top-k buffer seen. Serialized
/// as two little-endian `u64`s in the checkpoint's hook-state blob, and
/// read back through [`WireReader`]: a short or long blob is refused.
#[derive(Clone, Copy, Debug, Default)]
struct ProgState {
    adjustment_counter: usize,
    max_buffer: usize,
}

impl ProgState {
    fn to_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        put_u64(&mut out, self.adjustment_counter as u64);
        put_u64(&mut out, self.max_buffer as u64);
        out
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = WireReader::new(bytes);
        let st = ProgState {
            adjustment_counter: r.len_u64()?,
            max_buffer: r.len_u64()?,
        };
        match r.remaining() {
            0 => Ok(st),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

fn method_name(cfg: &FedTinyConfig) -> String {
    match (cfg.selection, cfg.progressive.is_some()) {
        (SelectionMode::AdaptiveBn, true) => "fedtiny".into(),
        (SelectionMode::AdaptiveBn, false) => "adaptive_bn".into(),
        (SelectionMode::Vanilla, true) => "vanilla+prog".into(),
        (SelectionMode::Vanilla, false) => "vanilla".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact bytes of the hook-state blob, pinned: two little-endian
    /// `u64`s, counter first.
    #[test]
    fn byte_pin_prog_state_blob() {
        let st = ProgState {
            adjustment_counter: 3,
            max_buffer: 0x0102_0304_0506,
        };
        let hex: String = st.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "03000000000000000605040302010000");
    }

    #[test]
    fn fedtiny_end_to_end() {
        let env = ExperimentEnv::tiny_for_tests(0);
        let cfg = FedTinyConfig::tiny_for_tests(0.3);
        let result = run_fedtiny(&env, &cfg);
        assert_eq!(result.method, "fedtiny");
        assert!(
            result.final_density <= 0.31,
            "density {}",
            result.final_density
        );
        assert!((0.0..=1.0).contains(&result.accuracy));
        assert!(!result.history.is_empty());
        assert!(result.max_round_flops > 0.0);
        assert!(result.memory_bytes > 0.0);
        assert!(result.comm_bytes > 0.0);
        assert!(result.extra_flops > 0.0);
    }

    #[test]
    fn ablation_arms_have_distinct_names() {
        let mut cfg = FedTinyConfig::tiny_for_tests(0.3);
        cfg.selection = SelectionMode::Vanilla;
        cfg.progressive = None;
        let env = ExperimentEnv::tiny_for_tests(1);
        let result = run_fedtiny(&env, &cfg);
        assert_eq!(result.method, "vanilla");
        assert!(result.final_density <= 0.31);
    }

    #[test]
    fn no_progressive_keeps_selected_mask() {
        let env = ExperimentEnv::tiny_for_tests(2);
        let mut cfg = FedTinyConfig::tiny_for_tests(0.4);
        cfg.progressive = None;
        let result = run_fedtiny(&env, &cfg);
        // Density unchanged by fine-tuning alone.
        assert!(
            result.final_density <= 0.41,
            "density {}",
            result.final_density
        ); // ceil rounding adds <1 weight/layer
        assert_eq!(result.method, "adaptive_bn");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = FedTinyConfig::tiny_for_tests(0.3);
        let a = run_fedtiny(&ExperimentEnv::tiny_for_tests(5), &cfg);
        let b = run_fedtiny(&ExperimentEnv::tiny_for_tests(5), &cfg);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.history, b.history);
        assert_eq!(a.final_density, b.final_density);
    }

    #[test]
    fn every_granularity_trains() {
        // Table III coverage in unit form: all granularity x order combos
        // run end-to-end and keep the density budget.
        use crate::progressive::Granularity;
        let env = ExperimentEnv::tiny_for_tests(7);
        for granularity in [Granularity::Layer, Granularity::Block, Granularity::Entire] {
            for backward in [true, false] {
                let mut cfg = FedTinyConfig::tiny_for_tests(0.3);
                if let Some(p) = &mut cfg.progressive {
                    p.granularity = granularity;
                    p.backward_order = backward;
                }
                let r = run_fedtiny(&env, &cfg);
                assert!(
                    r.final_density <= 0.31,
                    "{granularity:?}/{backward}: density {}",
                    r.final_density
                );
            }
        }
    }

    #[test]
    fn start_round_delays_first_adjustment() {
        // With start_round beyond R_stop no adjustment ever fires, so the
        // selected mask survives unchanged (same as progressive = None).
        let env = ExperimentEnv::tiny_for_tests(8);
        let mut delayed = FedTinyConfig::tiny_for_tests(0.3);
        if let Some(p) = &mut delayed.progressive {
            p.start_round = 100;
        }
        let mut none = delayed;
        none.progressive = None;
        let a = run_fedtiny(&env, &delayed);
        let b = run_fedtiny(&env, &none);
        assert_eq!(a.final_density, b.final_density);
        assert_eq!(a.accuracy, b.accuracy);
    }

    #[test]
    fn paper_default_wiring() {
        let cfg = FedTinyConfig::default();
        assert_eq!(cfg.pool_size, 10); // C* = 0.1 / 0.01
        assert!(matches!(cfg.selection, SelectionMode::AdaptiveBn));
        assert!(cfg.progressive.is_some());
    }
}

//! FedDST (Bibikar et al., AAAI 2022), adapted per Sec. IV-A3.
//!
//! The server random-prunes the initial model (uniform layer-wise density);
//! devices adjust the mask RigL-style (grow by gradient magnitude, drop by
//! weight magnitude) over the *entire* model each adjustment, with the same
//! `a_t` schedule as FedTiny; the server unifies the mask by weighted
//! gradient aggregation followed by magnitude pruning. Devices spend extra
//! recovery epochs around each adjustment (3 training + 2 fine-tuning per
//! paper), which is what makes FedDST's adjustment rounds expensive.
//!
//! The adjustment *is* FedTiny's:
//! [`progressive_adjust`](fedtiny::progressive::progressive_adjust) over all
//! layers at [`Granularity::Entire`] — the same probe batch per `(round,
//! device)`, the same pooled engine, the same top-`a_t` uploads, Eq. 7
//! aggregate and tie-break. What is FedDST's own is here: the random initial
//! mask (no selection stage), adjusting from round 0, the recovery-epoch
//! surcharge, and the mask bits in the device-memory model.

use fedtiny::progressive::progressive_adjust;
use fedtiny::{Granularity, ProgressiveConfig};
use ft_fl::{run_federated_rounds, CostLedger, ExperimentEnv, ModelSpec, RunResult};
use ft_metrics::{densities_from_mask, training_flops, ExtraMemory};
use ft_nn::{apply_mask, sparse_layout, Model};
use ft_sparse::{random_mask, uniform_density_vector, Mask, PruneSchedule};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Extra local epochs spent recovering grown weights per adjustment (the
/// paper configures 3 adjustment + 2 fine-tuning epochs).
pub const RECOVERY_EPOCHS: f64 = 2.0;

/// Runs FedDST.
pub fn run_feddst(
    env: &ExperimentEnv,
    spec: &ModelSpec,
    d_target: f32,
    schedule: PruneSchedule,
    eval_every: usize,
) -> RunResult {
    let (global, mask, ledger, history) = feddst_rounds(env, spec, d_target, schedule, eval_every);
    RunResult::from_ledger(
        "feddst",
        history,
        &mask,
        &global.arch(),
        ExtraMemory::MaskBits,
        env.cfg.codec.name(),
        &ledger,
    )
}

/// The run itself: the final global model and mask, the ledger and the
/// accuracy history.
pub(crate) fn feddst_rounds(
    env: &ExperimentEnv,
    spec: &ModelSpec,
    d_target: f32,
    schedule: PruneSchedule,
    eval_every: usize,
) -> (Box<dyn Model>, Mask, CostLedger, Vec<f32>) {
    let mut global = env.build_model(spec);
    let layout = sparse_layout(global.as_ref());
    let mut rng = ChaCha8Rng::seed_from_u64(env.cfg.seed ^ 0x00fe_dd57);
    let mut mask = random_mask(
        &mut rng,
        &layout,
        &uniform_density_vector(&layout, d_target),
    );
    apply_mask(global.as_mut(), &mask);

    let arch = global.arch();
    let mut ledger = CostLedger::new();
    let max_samples = env.parts.iter().map(|p| p.len()).max().unwrap_or(0) as f64;
    let entire = ProgressiveConfig {
        schedule,
        granularity: Granularity::Entire,
        backward_order: false,
        start_round: 0,
    };
    let all_layers: Vec<usize> = (0..mask.num_layers()).collect();

    let mut hook =
        |model: &mut dyn Model, mask: &mut Mask, round: usize, ledger: &mut CostLedger| -> f64 {
            if !schedule.adjusts_at(round) {
                return 0.0;
            }
            let report = progressive_adjust(model, mask, env, &entire, &all_layers, round);
            ledger.add_comm(report.comm_bytes);
            ledger.add_payload_comm(report.payload_bytes);
            // Recovery epochs around the adjustment.
            let densities = densities_from_mask(mask);
            RECOVERY_EPOCHS * training_flops(&arch, &densities) * max_samples
        };
    let history = run_federated_rounds(
        global.as_mut(),
        &mut mask,
        env,
        eval_every,
        &mut ledger,
        &mut hook,
    );
    (global, mask, ledger, history)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjustment_rounds_cost_more() {
        // Compare a FedDST run (with recovery epochs) against a fixed-mask
        // run at the same density: max round FLOPs must be higher.
        let env = ExperimentEnv::tiny_for_tests(41);
        let spec = ModelSpec::small_cnn_test();
        let schedule = PruneSchedule {
            delta_r: 1,
            r_stop: 2,
            local_iters: 1,
        };
        let dst = run_feddst(&env, &spec, 0.2, schedule, 0);
        let model = env.build_model(&spec);
        let mask = crate::atinit::l1_oneshot_mask(model.as_ref(), 0.2);
        let fixed =
            crate::fixed::run_with_fixed_mask(&env, &spec, &mask, "x", ExtraMemory::None, 0);
        assert!(dst.max_round_flops > fixed.max_round_flops);
    }

    #[test]
    fn mask_changes_over_run() {
        let env = ExperimentEnv::tiny_for_tests(42);
        let spec = ModelSpec::small_cnn_test();
        // Initial random mask at 0.2; history should show a live method.
        let schedule = PruneSchedule {
            delta_r: 1,
            r_stop: 3,
            local_iters: 1,
        };
        let r = run_feddst(&env, &spec, 0.2, schedule, 1);
        assert!(!r.history.is_empty());
        assert!(r.comm_bytes > 0.0);
    }
}

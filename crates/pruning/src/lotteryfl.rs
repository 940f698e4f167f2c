//! LotteryFL (Li et al., SEC 2021), adapted per Sec. IV-A3.
//!
//! LotteryFL iteratively magnitude-prunes with a fixed rate and rewinds the
//! surviving weights to their initial values (the lottery-ticket procedure).
//! Because it is personalized in the original, the paper lets it prune the
//! *global* model so every device shares one structure. Devices train the
//! full-size model between pruning events, so memory and FLOPs stay at the
//! dense level (Table I's 1× row).

use ft_fl::{run_federated_rounds, CostLedger, ExperimentEnv, ModelSpec, RunResult};
use ft_metrics::{dense_download_bytes, forward_flops_dense, ExtraMemory};
use ft_nn::{apply_mask, flat_params, set_flat_params, sparse_layout, Model};
use ft_sparse::{magnitude_mask_global, Mask, PruneSchedule};

/// Runs LotteryFL: iterative global magnitude pruning with weight rewinding,
/// reaching `d_target` by `schedule.r_stop`.
pub fn run_lotteryfl(
    env: &ExperimentEnv,
    spec: &ModelSpec,
    d_target: f32,
    schedule: PruneSchedule,
    eval_every: usize,
) -> RunResult {
    let mut global = env.build_model(spec);
    let theta0 = flat_params(global.as_ref());
    let mut mask = Mask::ones(&sparse_layout(global.as_ref()));
    let arch = global.arch();
    let mut ledger = CostLedger::new();

    // Pruning events until R_stop; exponential density schedule reaching the
    // target on the last event.
    let n_events = (schedule.r_stop / schedule.delta_r.max(1)).max(1);
    let mut event = 0usize;

    let history = {
        let mut hook = |model: &mut dyn Model,
                        mask: &mut Mask,
                        round: usize,
                        _ledger: &mut CostLedger|
         -> f64 {
            // Prune every ΔR rounds after at least one round of training,
            // until the event budget derived from R_stop is exhausted. (The
            // `adjusts_at` gate alone would never fire when R_stop < ΔR in
            // very short runs.)
            if round == 0 || !round.is_multiple_of(schedule.delta_r.max(1)) || event >= n_events {
                return 0.0;
            }
            event += 1;
            let d_event = d_target.powf(event as f32 / n_events as f32).max(d_target);
            let weights: Vec<Vec<f32>> = model
                .params()
                .into_iter()
                .filter(|p| p.prunable)
                .map(|p| p.data.data().to_vec())
                .collect();
            let slices: Vec<&[f32]> = weights.iter().map(|w| w.as_slice()).collect();
            *mask = magnitude_mask_global(&sparse_layout(model), &slices, d_event);
            // Rewind every parameter to initialization, then re-mask.
            set_flat_params(model, &theta0);
            apply_mask(model, mask);
            0.0
        };
        run_federated_rounds(
            global.as_mut(),
            &mut mask,
            env,
            eval_every,
            &mut ledger,
            &mut hook,
        )
    };

    // Devices train the dense model throughout: report dense costs
    // regardless of the sparse densities the generic loop recorded.
    let max_samples = env.parts.iter().map(|p| p.len()).max().unwrap_or(0) as f64;
    let dense_round_flops =
        3.0 * forward_flops_dense(&arch) * max_samples * env.cfg.local_epochs as f64;
    let dense_comm = 2.0 * dense_download_bytes(&arch) * env.cfg.rounds as f64;

    let mut result = RunResult::from_ledger(
        "lotteryfl",
        history,
        &mask,
        &arch,
        ExtraMemory::DenseTraining,
        env.cfg.codec.name(),
        &ledger,
    );
    result.max_round_flops = dense_round_flops;
    result.comm_bytes = dense_comm;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lotteryfl_reaches_target_density() {
        let env = ExperimentEnv::tiny_for_tests(50);
        let schedule = PruneSchedule {
            delta_r: 1,
            r_stop: 3,
            local_iters: 1,
        };
        let r = run_lotteryfl(&env, &ModelSpec::small_cnn_test(), 0.2, schedule, 2);
        assert_eq!(r.method, "lotteryfl");
        assert!(r.final_density <= 0.21, "density {}", r.final_density);
    }

    #[test]
    fn lotteryfl_costs_are_dense() {
        let env = ExperimentEnv::tiny_for_tests(51);
        let spec = ModelSpec::small_cnn_test();
        let schedule = PruneSchedule {
            delta_r: 1,
            r_stop: 3,
            local_iters: 1,
        };
        let lottery = run_lotteryfl(&env, &spec, 0.1, schedule, 0);
        let ones = Mask::ones(&sparse_layout(env.build_model(&spec).as_ref()));
        let dense =
            crate::run_with_fixed_mask(&env, &spec, &ones, "fedavg", ExtraMemory::DenseTraining, 0);
        assert!(
            (lottery.max_round_flops - dense.max_round_flops).abs() / dense.max_round_flops < 0.01
        );
        assert_eq!(lottery.memory_bytes, dense.memory_bytes);
    }

    #[test]
    fn rewind_resets_toward_init() {
        // After a run with rewinding, surviving weights descend from θ0, so
        // at minimum the mask is not all-ones and accuracy is defined.
        let env = ExperimentEnv::tiny_for_tests(52);
        let schedule = PruneSchedule {
            delta_r: 1,
            r_stop: 2,
            local_iters: 1,
        };
        let r = run_lotteryfl(&env, &ModelSpec::small_cnn_test(), 0.3, schedule, 1);
        assert!(r.final_density < 1.0);
        assert!((0.0..=1.0).contains(&r.accuracy));
    }
}

//! The generic federated round loop shared by every pruning method.

use crate::env::ExperimentEnv;
use crate::ledger::CostLedger;
use ft_nn::Model;
use ft_sparse::Mask;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Per-round method-specific logic, invoked *after* aggregation each round.
///
/// The hook may mutate the model and the mask (grow/prune adjustments,
/// rewinding, …) and must return the extra per-device FLOPs its work cost in
/// that round; communication should be added to the ledger directly.
pub type RoundHook<'a> = dyn FnMut(&mut dyn Model, &mut Mask, usize, &mut CostLedger) -> f64 + 'a;

/// Runs `env.cfg.rounds` rounds of (masked) FedAvg under the environment's
/// [`crate::Scheduler`] and simulated device fleet:
///
/// 1. every device trains `E` local epochs from the global model with
///    gradients masked by `mask` (Eq. 5);
/// 2. the server aggregates parameters and BN statistics weighted by
///    `|D_k|` — the whole cohort under `Synchronous`, the on-time survivors
///    under `Deadline`, a staleness-weighted buffer under `Buffered` — and
///    re-applies the mask;
/// 3. `hook` runs (mask adjustments, schedule events, …);
/// 4. the global model is evaluated every `eval_every` rounds and at the
///    end.
///
/// Per-round training FLOPs (at the round's density), model-transfer
/// bytes, realized execution costs, and the round's *simulated* fleet
/// makespan are recorded in `ledger`. Returns the accuracy history (always
/// nonempty).
///
/// This is [`crate::server::run_with`] on the
/// [`crate::transport::InProcess`] transport; call `run_with` directly to
/// pick another transport (`SimTime`, TCP) or to checkpoint/resume the run.
///
/// # Panics
///
/// Panics if the run fails, which an in-process run only does on an
/// invalid configuration.
pub fn run_federated_rounds(
    global: &mut dyn Model,
    mask: &mut Mask,
    env: &ExperimentEnv,
    eval_every: usize,
    ledger: &mut CostLedger,
    hook: &mut RoundHook<'_>,
) -> Vec<f32> {
    let mut transport = crate::transport::InProcess;
    let opts = crate::server::RunOptions::new(&mut transport);
    crate::server::run_with(global, mask, env, eval_every, ledger, hook, opts)
        .unwrap_or_else(|e| panic!("federated run failed: {e}"))
}

/// Samples the participating device indices for one round: all devices at
/// `participation = 1.0`, otherwise a seeded sample of
/// `ceil(K · participation)` devices (at least one).
pub(crate) fn sample_cohort(env: &ExperimentEnv, round: usize) -> Vec<usize> {
    let k = env.num_devices();
    let frac = env.cfg.participation.clamp(0.0, 1.0);
    if frac >= 1.0 {
        return (0..k).collect();
    }
    let take = ((k as f32 * frac).ceil() as usize).clamp(1, k);
    let mut rng =
        ChaCha8Rng::seed_from_u64(env.cfg.seed ^ 0xc0_0b7 ^ (round as u64).wrapping_mul(31));
    let mut idx: Vec<usize> = (0..k).collect();
    idx.shuffle(&mut rng);
    idx.truncate(take);
    idx.sort_unstable();
    idx
}

/// Convenience: the no-op hook for methods with a fixed mask.
pub fn no_hook() -> impl FnMut(&mut dyn Model, &mut Mask, usize, &mut CostLedger) -> f64 {
    |_: &mut dyn Model, _: &mut Mask, _: usize, _: &mut CostLedger| 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use ft_nn::{apply_mask, sparse_layout};

    #[test]
    fn dense_rounds_learn_something() {
        let env = ExperimentEnv::tiny_for_tests(0);
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let layout = sparse_layout(model.as_ref());
        let mut mask = Mask::ones(&layout);
        let mut ledger = CostLedger::new();
        let history = run_federated_rounds(
            model.as_mut(),
            &mut mask,
            &env,
            2,
            &mut ledger,
            &mut no_hook(),
        );
        assert!(!history.is_empty());
        assert_eq!(ledger.rounds(), env.cfg.rounds);
        assert!(ledger.max_round_flops() > 0.0);
        assert!(ledger.total_comm_bytes() > 0.0);
    }

    #[test]
    fn hook_runs_every_round_and_adds_flops() {
        let env = ExperimentEnv::tiny_for_tests(1);
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let layout = sparse_layout(model.as_ref());
        let mut mask = Mask::ones(&layout);
        let mut ledger = CostLedger::new();
        let mut calls = 0usize;
        {
            let mut hook = |_m: &mut dyn Model, _k: &mut Mask, _r: usize, _l: &mut CostLedger| {
                calls += 1;
                1e6
            };
            let _ =
                run_federated_rounds(model.as_mut(), &mut mask, &env, 0, &mut ledger, &mut hook);
        }
        assert_eq!(calls, env.cfg.rounds);
        // Every round got the extra 1e6.
        assert!(ledger.max_round_flops() > 1e6);
    }

    #[test]
    fn partial_participation_samples_subsets() {
        let mut env = ExperimentEnv::tiny_for_tests(3);
        env.cfg.participation = 0.34; // ceil(3 * 0.34) = 2 of 3 devices
        let c0 = sample_cohort(&env, 0);
        let c1 = sample_cohort(&env, 1);
        assert_eq!(c0.len(), 2);
        assert_eq!(c1.len(), 2);
        // Cohorts rotate across rounds (seeded, so deterministic).
        let differs = (0..10).any(|r| sample_cohort(&env, r) != c0);
        assert!(differs, "cohort never changed across rounds");
        // Full participation returns every device.
        env.cfg.participation = 1.0;
        assert_eq!(sample_cohort(&env, 0), vec![0, 1, 2]);
    }

    #[test]
    fn partial_participation_run_completes() {
        let mut env = ExperimentEnv::tiny_for_tests(4);
        env.cfg.participation = 0.5;
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let layout = sparse_layout(model.as_ref());
        let mut mask = Mask::ones(&layout);
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
        assert!((0.0..=1.0).contains(history.last().expect("nonempty")));
    }

    #[test]
    fn hook_can_mutate_mask() {
        let env = ExperimentEnv::tiny_for_tests(2);
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let layout = sparse_layout(model.as_ref());
        let mut mask = Mask::ones(&layout);
        let mut ledger = CostLedger::new();
        {
            let mut hook = |m: &mut dyn Model, k: &mut Mask, r: usize, _l: &mut CostLedger| {
                if r == 0 {
                    for i in 0..k.layer(0).len() / 2 {
                        k.set(0, i, false);
                    }
                    apply_mask(m, k);
                }
                0.0
            };
            let _ =
                run_federated_rounds(model.as_mut(), &mut mask, &env, 0, &mut ledger, &mut hook);
        }
        assert!(mask.density() < 1.0);
        // Pruned weights are zero in the final model.
        let p = model
            .params()
            .into_iter()
            .find(|p| p.prunable)
            .expect("prunable");
        assert_eq!(p.data.data()[0], 0.0);
    }
}

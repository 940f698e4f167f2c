//! The runner for methods whose mask is fixed before training: SNIP,
//! SynFlow, FL-PQSU, GraSP, and under a ones mask the dense FedAvg upper
//! bound and the small dense model.

use ft_fl::{no_hook, run_federated_rounds, CostLedger, ExperimentEnv, ModelSpec, RunResult};
use ft_metrics::ExtraMemory;
use ft_nn::{apply_mask, sparse_layout};
use ft_sparse::Mask;

/// Trains `spec` under a fixed `mask` with sparse FedAvg and returns the
/// uniform result record.
///
/// `extra_memory` is the method's device-memory surcharge for Table I.
///
/// # Panics
///
/// Panics if the mask does not match the model's prunable layout.
pub fn run_with_fixed_mask(
    env: &ExperimentEnv,
    spec: &ModelSpec,
    mask: &Mask,
    method: &str,
    extra_memory: ExtraMemory,
    eval_every: usize,
) -> RunResult {
    let mut global = env.build_model(spec);
    let layout = sparse_layout(global.as_ref());
    assert!(
        mask.matches_layout(&layout),
        "mask does not fit {method}'s model"
    );
    let mut mask = mask.clone();
    apply_mask(global.as_mut(), &mask);
    let mut ledger = CostLedger::new();
    let history = run_federated_rounds(
        global.as_mut(),
        &mut mask,
        env,
        eval_every,
        &mut ledger,
        &mut no_hook(),
    );
    RunResult::from_ledger(
        method,
        history,
        &mask,
        &global.arch(),
        extra_memory,
        env.cfg.codec.name(),
        &ledger,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atinit::l1_oneshot_mask;

    #[test]
    fn fixed_mask_run_keeps_density() {
        let env = ExperimentEnv::tiny_for_tests(20);
        let spec = ModelSpec::small_cnn_test();
        let model = env.build_model(&spec);
        let mask = l1_oneshot_mask(model.as_ref(), 0.3);
        let r = run_with_fixed_mask(&env, &spec, &mask, "flpqsu", ExtraMemory::None, 2);
        assert_eq!(r.method, "flpqsu");
        assert!((r.final_density - mask.density()).abs() < 1e-6);
        assert!(r.max_round_flops > 0.0);
    }

    #[test]
    fn sparse_run_costs_less_than_dense() {
        let env = ExperimentEnv::tiny_for_tests(22);
        let spec = ModelSpec::small_cnn_test();
        let model = env.build_model(&spec);
        let mask = l1_oneshot_mask(model.as_ref(), 0.05);
        let ones = Mask::ones(&sparse_layout(model.as_ref()));
        let sparse = run_with_fixed_mask(&env, &spec, &mask, "x", ExtraMemory::None, 0);
        let dense = run_with_fixed_mask(&env, &spec, &ones, "x", ExtraMemory::DenseTraining, 0);
        assert_eq!(dense.final_density, 1.0);
        assert!(sparse.max_round_flops < dense.max_round_flops);
        assert!(sparse.memory_bytes < dense.memory_bytes);
        assert!(sparse.comm_bytes < dense.comm_bytes);
    }
}

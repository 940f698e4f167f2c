//! FedTiny: distributed pruning towards tiny neural networks in federated
//! learning (Huang et al., ICDCS 2023).
//!
//! The two modules of the paper, built on the `ft-fl` simulator:
//!
//! - [`selection`] — **adaptive batch-normalization selection** (Alg. 1):
//!   the server magnitude-prunes a pool of candidate subnetworks with
//!   noisy layer-wise densities; devices re-estimate BN statistics on local
//!   development splits; the server aggregates the statistics, devices score
//!   the recalibrated candidates by local loss, and the candidate with the
//!   lowest weighted loss becomes the coarse-pruned model. The module also
//!   implements *vanilla selection* (no BN recalibration) for the Fig. 4
//!   ablation.
//! - [`progressive`] — **progressive pruning** (Alg. 2): sparse FedAvg
//!   fine-tuning interleaved with RigL-style grow/prune adjustments, one
//!   layer *block* at a time (backward order), with devices uploading only
//!   the top-`a_t^l` gradient magnitudes of pruned coordinates through an
//!   `O(a)` buffer.
//!
//! [`run_fedtiny`] wires both together into the end-to-end pipeline and
//! returns the same [`ft_fl::RunResult`] the baselines produce.
//!
//! # Examples
//!
//! ```
//! use fedtiny::{FedTinyConfig, run_fedtiny};
//! use ft_fl::ExperimentEnv;
//!
//! let env = ExperimentEnv::tiny_for_tests(0);
//! let cfg = FedTinyConfig::tiny_for_tests(0.2);
//! let result = run_fedtiny(&env, &cfg);
//! assert!(result.final_density <= 0.21);
//! ```

pub mod progressive;
pub mod selection;

mod runner;

pub use progressive::{probe_devices, Granularity, ProgressiveConfig};
pub use runner::{run_fedtiny, run_fedtiny_with, FedTinyConfig, FedTinyRunOptions, SelectionMode};
pub use selection::{
    adaptive_bn_selection, generate_candidate_pool, vanilla_selection, SelectionConfig,
    SelectionOutcome,
};

use ft_fl::{thread_budget, with_device_model};
use ft_nn::{Model, Runtime};

/// Runs `job(i, model)` for every `i` in `0..jobs` — selection candidates,
/// probing devices — each on a working copy of `global` borrowed from
/// `ft-fl`'s device-model pool, and returns the results in job order. This is
/// how both stages fan out: [`thread_budget`] decides whether the jobs occupy
/// `rt`'s workers (each job's model on sequential kernels) or run one after
/// another with `rt`'s kernels, and nothing is cloned either way. The jobs
/// are dealt in ascending `order(i)`: [`ft_fl::deal_key`] for devices.
pub(crate) fn on_device_models<T: Send, K: Ord>(
    global: &dyn Model,
    jobs: usize,
    rt: &Runtime,
    order: impl Fn(usize) -> K,
    job: impl Fn(usize, &mut dyn Model) -> T + Sync,
) -> Vec<T> {
    let (fan_out, kernel_rt) = thread_budget(jobs, rt);
    let mut out: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    let mut dealt: Vec<_> = out.iter_mut().enumerate().collect();
    dealt.sort_by_key(|&(i, _)| order(i));
    fan_out.scatter(dealt, |(i, slot)| {
        *slot = Some(with_device_model(global, &kernel_rt, |m| job(i, m)));
    });
    out.into_iter().map(|o| o.expect("job completed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_fl::{ExperimentEnv, ModelSpec};

    /// One thread budget in every fan-out: with four workers and several
    /// jobs, each job's model runs sequential kernels (the probe used to
    /// inherit the run's pool and spawn from inside a fanned job); a lone
    /// job gets the pool; on a one-thread pool the jobs queue on sequential
    /// kernels, whatever pool the global was handed.
    #[test]
    fn fanned_jobs_get_sequential_models_and_a_lone_job_the_pool() {
        let env = ExperimentEnv::tiny_for_tests(3);
        let mut global = env.build_model(&ModelSpec::small_cnn_test());
        let (rt, seq) = (Runtime::exact(4), Runtime::sequential());
        // The server hands the global the run's pool; borrowers must not
        // inherit it.
        global.set_runtime(rt);
        let runtimes = |rt: &Runtime, jobs: usize| {
            on_device_models(global.as_ref(), jobs, rt, |i| i, |_, m| m.runtime())
        };
        assert_eq!(runtimes(&rt, 6), vec![seq; 6]);
        assert_eq!(runtimes(&rt, 1), vec![rt]);
        assert_eq!(runtimes(&seq, 3), vec![seq; 3]);
    }
}

//! The method table: FedTiny, its Fig. 4 ablation arms, every baseline of
//! Sec. IV-A3 and the small dense model, each one [`Method`] that
//! [`run_method`] runs.

use fedtiny::{run_fedtiny, FedTinyConfig, ProgressiveConfig, SelectionMode};
use ft_fl::{Codec, ExperimentEnv, ModelSpec, RunResult};
use ft_metrics::ExtraMemory;
use ft_nn::sparse_layout;
use ft_pruning::{
    grasp_mask, l1_oneshot_mask, run_feddst, run_lotteryfl, run_prunefl, run_with_fixed_mask,
    snip_mask, synflow_mask, DEFAULT_ITERATIVE_STEPS,
};
use ft_sparse::{Mask, PruneSchedule};

/// Everything the experiment benches can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Full FedTiny (adaptive BN selection + progressive pruning).
    FedTiny,
    /// Fig. 4 arm: vanilla selection only.
    Vanilla,
    /// Fig. 4 arm: adaptive BN selection only (no progressive pruning).
    AdaptiveBnOnly,
    /// Fig. 4 arm: vanilla selection + progressive pruning.
    VanillaProgressive,
    /// Dense FedAvg (upper bound; first row of Table I; density ignored).
    FedAvg,
    /// FL-PQSU's pruning stage: one-shot L1 at initialization.
    FlPqsu,
    /// SNIP: iterative connection sensitivity at initialization.
    Snip,
    /// SynFlow: iterative data-free pruning at initialization.
    SynFlow,
    /// PruneFL: server init + full-gradient adaptive pruning.
    PruneFl,
    /// FedDST: random init + on-device mask adjustment.
    FedDst,
    /// LotteryFL: iterative magnitude pruning with rewinding.
    LotteryFl,
    /// GraSP (extension, not in the paper's tables): gradient-flow
    /// preserving at-init pruning on the server's public data.
    Grasp,
    /// The dense small 3-conv model of Tables IV/V (density ignored).
    SmallModel,
}

impl Method {
    /// Every method, in the order the golden record lists them.
    pub const ALL: [Method; 13] = [
        Method::FedTiny,
        Method::Vanilla,
        Method::AdaptiveBnOnly,
        Method::VanillaProgressive,
        Method::FedAvg,
        Method::FlPqsu,
        Method::Snip,
        Method::SynFlow,
        Method::PruneFl,
        Method::FedDst,
        Method::LotteryFl,
        Method::Grasp,
        Method::SmallModel,
    ];

    /// The method set of Fig. 3 / Table I (sparse baselines + FedTiny).
    pub const FIGURE3: [Method; 6] = [
        Method::FlPqsu,
        Method::Snip,
        Method::SynFlow,
        Method::PruneFl,
        Method::FedDst,
        Method::FedTiny,
    ];

    /// The four ablation arms of Fig. 4.
    pub const ABLATION: [Method; 4] = [
        Method::Vanilla,
        Method::AdaptiveBnOnly,
        Method::VanillaProgressive,
        Method::FedTiny,
    ];

    /// Stable report name; the `method` field of the method's records.
    pub fn name(self) -> &'static str {
        match self {
            Method::FedTiny => "fedtiny",
            Method::Vanilla => "vanilla",
            Method::AdaptiveBnOnly => "adaptive_bn",
            Method::VanillaProgressive => "vanilla+prog",
            Method::FedAvg => "fedavg",
            Method::FlPqsu => "flpqsu",
            Method::Snip => "snip",
            Method::SynFlow => "synflow",
            Method::PruneFl => "prunefl",
            Method::FedDst => "feddst",
            Method::LotteryFl => "lotteryfl",
            Method::Grasp => "grasp",
            Method::SmallModel => "small_model",
        }
    }

    /// The inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Method> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The wire format the method exchanges updates in by default: the
    /// dense runs (and LotteryFL, whose devices train the dense model) speak
    /// `Dense`, every sparse method uploads mask-structured `MaskCsr` deltas.
    pub fn codec(self) -> Codec {
        match self {
            Method::FedAvg | Method::LotteryFl | Method::SmallModel => Codec::Dense,
            _ => Codec::MaskCsr,
        }
    }

    /// The model the method runs when its config names `spec`: the small
    /// dense model sized against `spec` ([`small_spec_for`]), or `spec`.
    pub fn model(self, spec: &ModelSpec) -> ModelSpec {
        match self {
            Method::SmallModel => small_spec_for(spec),
            _ => *spec,
        }
    }

    /// The config [`run_method`] runs the method under at `d_target` on
    /// `spec`: the method's [`codec`](Self::codec); FedTiny's schedule
    /// scaled to the environment, which the iterative baselines share
    /// (`ΔR = rounds/30`, `R_stop = rounds/3`, the paper's 10/100 at 300
    /// rounds); pool size `C* = 0.1/d` (capped for tiny pools); paper noise;
    /// and an evaluation every fifth of the run.
    pub fn config(self, env: &ExperimentEnv, spec: &ModelSpec, d_target: f32) -> FedTinyConfig {
        let schedule = PruneSchedule::scaled_for(env.cfg.rounds, env.cfg.local_epochs);
        FedTinyConfig {
            model: *spec,
            d_target,
            pool_size: fedtiny::SelectionConfig::optimal_pool_size(d_target).clamp(4, 32),
            noise_spread: 0.5,
            selection: SelectionMode::AdaptiveBn,
            progressive: Some(ProgressiveConfig {
                schedule,
                granularity: fedtiny::Granularity::Block,
                backward_order: true,
                start_round: schedule.delta_r,
            }),
            codec: self.codec(),
            eval_every: (env.cfg.rounds / 5).max(1),
        }
    }
}

/// Runs `method` on `env` under `cfg` and returns the uniform result
/// record. [`Method::config`] builds the default `cfg`.
///
/// Every method reads its model, target density, evaluation cadence and
/// wire codec from `cfg`. The FedTiny arms run `cfg` with selection and
/// progressive pruning switched as the arm says; the iterative baselines
/// run on its progressive schedule.
pub fn run_method(env: &ExperimentEnv, method: Method, cfg: &FedTinyConfig) -> RunResult {
    let env = &env.clone().with_codec(cfg.codec);
    let (spec, d_target, eval_every) = (&cfg.model, cfg.d_target, cfg.eval_every);
    let schedule = || cfg.progressive.expect("the baselines' schedule").schedule;
    match method {
        Method::FedTiny | Method::Vanilla | Method::AdaptiveBnOnly | Method::VanillaProgressive => {
            let mut cfg = *cfg;
            if matches!(method, Method::Vanilla | Method::VanillaProgressive) {
                cfg.selection = SelectionMode::Vanilla;
            }
            if matches!(method, Method::Vanilla | Method::AdaptiveBnOnly) {
                cfg.progressive = None;
            }
            run_fedtiny(env, &cfg)
        }
        Method::PruneFl => run_prunefl(env, spec, d_target, schedule(), eval_every),
        Method::FedDst => run_feddst(env, spec, d_target, schedule(), eval_every),
        Method::LotteryFl => run_lotteryfl(env, spec, d_target, schedule(), eval_every),
        // Fixed-mask runs: an at-init mask, or a ones mask for the dense
        // runs, whose devices hold a weight and a gradient per parameter.
        Method::FlPqsu
        | Method::Snip
        | Method::SynFlow
        | Method::Grasp
        | Method::FedAvg
        | Method::SmallModel => {
            let spec = method.model(spec);
            let model = env.build_model(&spec);
            let (model, public) = (model.as_ref(), &env.server_public);
            let steps = DEFAULT_ITERATIVE_STEPS;
            let (mask, extra) = match method {
                Method::FlPqsu => (l1_oneshot_mask(model, d_target), ExtraMemory::None),
                Method::Snip => (snip_mask(model, public, d_target, steps), ExtraMemory::None),
                Method::SynFlow => (synflow_mask(model, d_target, steps), ExtraMemory::None),
                Method::Grasp => (grasp_mask(model, public, d_target), ExtraMemory::None),
                _ => (
                    Mask::ones(&sparse_layout(model)),
                    ExtraMemory::DenseTraining,
                ),
            };
            run_with_fixed_mask(env, &spec, &mask, method.name(), extra, eval_every)
        }
    }
}

/// Chooses a SmallCnn whose parameter count roughly matches 1% of the given
/// spec (Sec. IV-G sizes the small model to ResNet18 at 1% density).
pub fn small_spec_for(spec: &ModelSpec) -> ModelSpec {
    let input = spec.input_size();
    let width = match spec {
        ModelSpec::ResNet18 { width, .. } | ModelSpec::Vgg11 { width, .. } => {
            // Full ResNet18 at 1% ≈ 112k params; SmallCnn(width w) has
            // ≈ 8.3k·(w/4)² params at lab scale — width 64·w_spec lands near.
            ((64.0 * width) as usize).max(2)
        }
        ModelSpec::SmallCnn { width, .. } => *width,
    };
    ModelSpec::SmallCnn { width, input }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_parse_back() {
        let names: std::collections::HashSet<&str> = Method::ALL.map(Method::name).into();
        assert_eq!(names.len(), Method::ALL.len());
        for m in Method::ALL {
            assert_eq!(Method::from_name(m.name()), Some(m));
        }
        assert_eq!(Method::from_name("nope"), None);
    }

    /// Every method runs end to end on the tiny environment and keeps its
    /// density budget (the dense runs report 1).
    #[test]
    fn every_method_runs_on_the_tiny_env() {
        let env = ExperimentEnv::tiny_for_tests(60);
        let spec = ModelSpec::small_cnn_test();
        for m in Method::ALL {
            let r = run_method(&env, m, &m.config(&env, &spec, 0.2));
            assert_eq!(r.method, m.name());
            assert!((0.0..=1.0).contains(&r.accuracy), "{m:?}");
            assert!(r.max_round_flops > 0.0, "{m:?}");
            assert!(r.memory_bytes > 0.0, "{m:?}");
            match m {
                Method::FedAvg | Method::SmallModel => assert_eq!(r.final_density, 1.0),
                _ => assert!(r.final_density <= 0.35, "{m:?}: {}", r.final_density),
            }
        }
    }

    #[test]
    fn sparse_methods_cost_less_than_dense_lotteryfl() {
        let env = ExperimentEnv::tiny_for_tests(61);
        let spec = ModelSpec::small_cnn_test();
        let run = |m: Method| run_method(&env, m, &m.config(&env, &spec, 0.05));
        let synflow = run(Method::SynFlow);
        let lottery = run(Method::LotteryFl);
        let dense = run(Method::FedAvg);
        assert!(synflow.max_round_flops < lottery.max_round_flops);
        assert!(synflow.memory_bytes < lottery.memory_bytes);
        assert_eq!(lottery.memory_bytes, dense.memory_bytes);
    }
}

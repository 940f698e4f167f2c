//! One uniform entry point over FedTiny, its ablations, every baseline, and
//! the small dense model.

use fedtiny::{run_fedtiny, FedTinyConfig, ProgressiveConfig, SelectionMode};
use ft_fl::{ExperimentEnv, ModelSpec, RunResult};
use ft_metrics::ExtraMemory;
use ft_pruning::{run_baseline, run_with_fixed_mask, BaselineMethod};
use ft_sparse::{Mask, PruneSchedule};

/// Everything the experiment benches can run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Method {
    /// Full FedTiny (adaptive BN selection + progressive pruning).
    FedTiny,
    /// Fig. 4 arm: vanilla selection only.
    Vanilla,
    /// Fig. 4 arm: adaptive BN selection only (no progressive pruning).
    AdaptiveBnOnly,
    /// Fig. 4 arm: vanilla selection + progressive pruning.
    VanillaProgressive,
    /// One of the paper's baselines.
    Baseline(BaselineMethod),
    /// The dense small 3-conv model of Tables IV/V (density ignored).
    SmallModel,
}

impl Method {
    /// Stable report name.
    pub fn name(&self) -> String {
        match self {
            Method::FedTiny => "fedtiny".into(),
            Method::Vanilla => "vanilla".into(),
            Method::AdaptiveBnOnly => "adaptive_bn".into(),
            Method::VanillaProgressive => "vanilla+prog".into(),
            Method::Baseline(b) => b.name().into(),
            Method::SmallModel => "small_model".into(),
        }
    }

    /// The inverse of [`name`](Self::name): every method, baselines and the
    /// GraSP extension included, parses from the name its records carry.
    pub fn from_name(name: &str) -> Option<Method> {
        Some(match name {
            "fedtiny" => Method::FedTiny,
            "vanilla" => Method::Vanilla,
            "adaptive_bn" => Method::AdaptiveBnOnly,
            "vanilla+prog" => Method::VanillaProgressive,
            "small_model" => Method::SmallModel,
            other => Method::Baseline(
                BaselineMethod::all()
                    .into_iter()
                    .chain([BaselineMethod::Grasp])
                    .find(|b| b.name() == other)?,
            ),
        })
    }

    /// The method set of Fig. 3 / Table I (baselines + FedTiny).
    pub fn figure3_set() -> Vec<Method> {
        let mut v: Vec<Method> = BaselineMethod::figure3_set()
            .into_iter()
            .map(Method::Baseline)
            .collect();
        v.push(Method::FedTiny);
        v
    }

    /// The four ablation arms of Fig. 4.
    pub fn ablation_set() -> [Method; 4] {
        [
            Method::Vanilla,
            Method::AdaptiveBnOnly,
            Method::VanillaProgressive,
            Method::FedTiny,
        ]
    }
}

/// Builds the FedTiny config a bench run uses: schedule scaled to the
/// environment, pool size `C* = 0.1/d` (capped for tiny pools), paper noise.
pub fn fedtiny_config(env: &ExperimentEnv, spec: &ModelSpec, d_target: f32) -> FedTinyConfig {
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
        codec: ft_fl::Codec::MaskCsr,
        eval_every: (env.cfg.rounds / 5).max(1),
    }
}

/// Runs `method` on `env` at the target density and returns the uniform
/// result record.
pub fn run_method(
    env: &ExperimentEnv,
    spec: &ModelSpec,
    method: Method,
    d_target: f32,
) -> RunResult {
    let eval_every = (env.cfg.rounds / 5).max(1);
    match method {
        Method::FedTiny => run_fedtiny(env, &fedtiny_config(env, spec, d_target)),
        Method::Vanilla => {
            let mut cfg = fedtiny_config(env, spec, d_target);
            cfg.selection = SelectionMode::Vanilla;
            cfg.progressive = None;
            run_fedtiny(env, &cfg)
        }
        Method::AdaptiveBnOnly => {
            let mut cfg = fedtiny_config(env, spec, d_target);
            cfg.progressive = None;
            run_fedtiny(env, &cfg)
        }
        Method::VanillaProgressive => {
            let mut cfg = fedtiny_config(env, spec, d_target);
            cfg.selection = SelectionMode::Vanilla;
            run_fedtiny(env, &cfg)
        }
        Method::Baseline(b) => run_baseline(env, spec, b, d_target, eval_every),
        Method::SmallModel => {
            let small = small_spec_for(spec);
            let model = env.build_model(&small);
            let mask = Mask::ones(&ft_nn::sparse_layout(model.as_ref()));
            let mut r = run_with_fixed_mask(
                env,
                &small,
                &mask,
                "small_model",
                ExtraMemory::None,
                eval_every,
            );
            // A dense model stores no indices.
            r.memory_bytes = 8.0 * ft_metrics::total_params(&model.arch()) as f64;
            r
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
            // ≈ 8.3k·(w/4)² params at lab scale — width 8·w_spec lands near.
            ((64.0 * width) as usize).max(2)
        }
        ModelSpec::SmallCnn { width, .. } => *width,
    };
    ModelSpec::SmallCnn { width, input }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::{Scale, ScaleKind};
    use ft_data::DatasetProfile;

    /// Every method runs at smoke scale, and a record's `method` field feeds
    /// back into `--method`: it is the name the method parses from.
    #[test]
    fn every_method_runs_at_smoke_scale() {
        let s = Scale::new(ScaleKind::Smoke);
        let env = s.env(DatasetProfile::Cifar10, 0);
        let spec = s.resnet();
        let mut methods = vec![
            Method::FedTiny,
            Method::Vanilla,
            Method::AdaptiveBnOnly,
            Method::VanillaProgressive,
            Method::SmallModel,
            Method::Baseline(BaselineMethod::Grasp),
        ];
        methods.extend(BaselineMethod::all().map(Method::Baseline));
        assert_eq!(methods.len(), 13);
        for m in methods {
            assert_eq!(Method::from_name(&m.name()), Some(m));
            let r = run_method(&env, &spec, m, 0.2);
            assert_eq!(r.method, m.name());
            assert!((0.0..=1.0).contains(&r.accuracy), "{m:?}");
        }
    }

    #[test]
    fn figure3_set_has_six_methods() {
        assert_eq!(Method::figure3_set().len(), 6);
    }

    #[test]
    fn ablation_names_are_distinct() {
        let names: std::collections::HashSet<String> =
            Method::ablation_set().iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 4);
    }
}

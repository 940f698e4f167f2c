//! Experiment scale presets.

use crate::methods::small_spec_for;
use ft_data::{DatasetProfile, SynthConfig};
use ft_fl::{ExperimentEnv, FlConfig, ModelSpec};
use ft_nn::optim::SgdConfig;

/// How big the experiment runs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleKind {
    /// Seconds — wiring check.
    Smoke,
    /// Minutes — laptop-scale reproduction (default).
    Lab,
    /// The paper's full settings (hours+ on CPU).
    Paper,
}

impl ScaleKind {
    /// The scale called `smoke`, `lab` or `paper`; any other name is an
    /// error that lists those three.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "smoke" => Ok(ScaleKind::Smoke),
            "lab" => Ok(ScaleKind::Lab),
            "paper" => Ok(ScaleKind::Paper),
            other => Err(format!(
                "unknown scale {other:?}; expected smoke | lab | paper"
            )),
        }
    }

    /// Reads `FT_SCALE` through [`ScaleKind::from_name`], defaulting to
    /// `Lab` when it is unset or empty. A misspelt value is an error, never
    /// a silent lab-scale run.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("FT_SCALE").unwrap_or_default().as_str() {
            "" => Ok(ScaleKind::Lab),
            name => Self::from_name(name).map_err(|e| format!("FT_SCALE: {e}")),
        }
    }
}

/// All scale-dependent experiment parameters in one place.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Which preset this is.
    pub kind: ScaleKind,
    /// Image side length.
    pub resolution: usize,
    /// Model width multiplier.
    pub width: f32,
    /// Training samples per class (before dataset-profile size factors).
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Devices `K`.
    pub devices: usize,
    /// FL rounds.
    pub rounds: usize,
    /// Local epochs `E`.
    pub local_epochs: usize,
}

impl Scale {
    /// Builds the scale preset.
    pub fn new(kind: ScaleKind) -> Self {
        match kind {
            ScaleKind::Smoke => Scale {
                kind,
                resolution: 8,
                width: 0.125,
                train_per_class: 6,
                test_per_class: 4,
                devices: 3,
                rounds: 3,
                local_epochs: 1,
            },
            ScaleKind::Lab => Scale {
                kind,
                resolution: 8,
                width: 0.125,
                train_per_class: 20,
                test_per_class: 20,
                devices: 4,
                rounds: 24,
                local_epochs: 1,
            },
            ScaleKind::Paper => Scale {
                kind,
                resolution: 32,
                width: 1.0,
                train_per_class: 500,
                test_per_class: 100,
                devices: 10,
                rounds: 300,
                local_epochs: 5,
            },
        }
    }

    /// The preset selected by `FT_SCALE`.
    ///
    /// # Panics
    ///
    /// Panics if `FT_SCALE` is set to something other than `smoke`, `lab`
    /// or `paper`.
    pub fn from_env() -> Self {
        Self::new(ScaleKind::from_env().unwrap_or_else(|e| panic!("{e}")))
    }

    /// Federated-learning configuration at this scale.
    pub fn fl_config(&self, seed: u64) -> FlConfig {
        FlConfig {
            devices: self.devices,
            rounds: self.rounds,
            local_epochs: self.local_epochs,
            batch_size: 32,
            sgd: SgdConfig {
                lr: 0.05,
                clip_norm: 2.0,
            },
            alpha: 0.5,
            dev_fraction: 0.25,
            participation: 1.0,
            threads: 0,
            codec: ft_fl::Codec::Dense,
            aggregator: ft_fl::Aggregator::FedAvg,
            collect_timeout_secs: 30.0,
            seed,
        }
    }

    /// Synthetic-data configuration for a dataset profile.
    ///
    /// Per-class counts shrink with the class count so the *total* corpus
    /// size stays comparable across profiles — exactly like the real
    /// datasets (CIFAR-100 has 10x fewer images per class than CIFAR-10 at
    /// the same total size).
    pub fn synth(&self, profile: DatasetProfile, seed: u64) -> SynthConfig {
        let class_factor = (profile.classes() / 10).max(1);
        SynthConfig {
            profile,
            train_per_class: (self.train_per_class / class_factor).max(2),
            test_per_class: (self.test_per_class / class_factor).max(2),
            resolution: self.resolution,
            channels: 3,
            seed,
        }
    }

    /// A prepared environment for a profile.
    pub fn env(&self, profile: DatasetProfile, seed: u64) -> ExperimentEnv {
        ExperimentEnv::new(self.synth(profile, seed), self.fl_config(seed))
    }

    /// Environment with a Dirichlet α override (Fig. 6).
    pub fn env_with_alpha(&self, profile: DatasetProfile, alpha: f64, seed: u64) -> ExperimentEnv {
        let mut cfg = self.fl_config(seed);
        cfg.alpha = alpha;
        ExperimentEnv::new(self.synth(profile, seed), cfg)
    }

    /// ResNet18 spec at this scale.
    pub fn resnet(&self) -> ModelSpec {
        ModelSpec::ResNet18 {
            width: self.width,
            input: self.resolution,
        }
    }

    /// VGG11 spec at this scale.
    pub fn vgg(&self) -> ModelSpec {
        ModelSpec::Vgg11 {
            width: self.width,
            input: self.resolution,
        }
    }

    /// SmallCnn spec sized for Tables IV/V at this scale: the small model
    /// of [`resnet`](Self::resnet) ([`small_spec_for`]), width 8 at smoke
    /// and lab scale, 64 at paper scale.
    pub fn small_cnn(&self) -> ModelSpec {
        small_spec_for(&self.resnet())
    }

    /// The density sweep used by the figure benches, scaled to keep at
    /// least a handful of weights per layer at this model size.
    pub fn density_grid(&self) -> Vec<f32> {
        match self.kind {
            ScaleKind::Smoke => vec![0.3, 0.05],
            ScaleKind::Lab => vec![0.2, 0.1, 0.05, 0.02],
            ScaleKind::Paper => vec![0.5, 0.1, 0.01, 0.005, 0.001],
        }
    }

    /// The Table I/III density triple at this scale.
    pub fn table_densities(&self) -> Vec<f32> {
        match self.kind {
            ScaleKind::Smoke => vec![0.1, 0.05],
            ScaleKind::Lab => vec![0.1, 0.05, 0.02],
            ScaleKind::Paper => vec![0.01, 0.005, 0.001],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_monotonically() {
        let smoke = Scale::new(ScaleKind::Smoke);
        let lab = Scale::new(ScaleKind::Lab);
        let paper = Scale::new(ScaleKind::Paper);
        assert!(smoke.rounds < lab.rounds && lab.rounds < paper.rounds);
        assert!(smoke.train_per_class <= lab.train_per_class);
        assert_eq!(paper.devices, 10);
        assert_eq!(paper.rounds, 300);
    }

    #[test]
    fn env_builds_at_smoke_scale() {
        let s = Scale::new(ScaleKind::Smoke);
        let env = s.env(DatasetProfile::Cifar10, 0);
        assert_eq!(env.num_devices(), 3);
        let m = env.build_model(&s.resnet());
        assert_eq!(m.arch().input, [3, 8, 8]);
    }

    #[test]
    fn scale_names_round_trip_and_a_typo_is_an_error() {
        for (name, kind) in [
            ("smoke", ScaleKind::Smoke),
            ("lab", ScaleKind::Lab),
            ("paper", ScaleKind::Paper),
        ] {
            assert_eq!(ScaleKind::from_name(name), Ok(kind));
        }
        for typo in ["smok", "Lab", "demo"] {
            let err = ScaleKind::from_name(typo).unwrap_err();
            assert!(
                err.contains(typo) && err.contains("smoke | lab | paper"),
                "{err}"
            );
        }
    }

    #[test]
    fn density_grids_are_descending() {
        for kind in [ScaleKind::Smoke, ScaleKind::Lab, ScaleKind::Paper] {
            let g = Scale::new(kind).density_grid();
            assert!(g.windows(2).all(|w| w[0] > w[1]));
        }
    }
}

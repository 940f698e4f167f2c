//! Experiment environment: data generation + federated split.

use crate::config::FlConfig;
use crate::sched::Scheduler;
use crate::spec::ModelSpec;
use ft_data::{dirichlet_partition, Dataset, DatasetProfile, SynthConfig};
use ft_metrics::DeviceProfile;
use ft_nn::Model;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A fully-prepared federated experiment: per-device training datasets (from
/// a Dirichlet non-iid split), the central test set, the simulated device
/// fleet, and the run configuration.
#[derive(Clone, Debug)]
pub struct ExperimentEnv {
    /// Local training datasets, one per device.
    pub parts: Vec<Dataset>,
    /// Held-out test dataset.
    pub test: Dataset,
    /// A server-side "public one-shot dataset" `D_s` (Sec. IV-A3) used by
    /// SNIP/PruneFL-style server pruning — a small iid sample.
    pub server_public: Dataset,
    /// Run configuration.
    pub cfg: FlConfig,
    /// The recipe the data was generated from.
    pub synth: SynthConfig,
    /// Compute/link/reliability profile of each simulated device. Defaults
    /// to a uniform reliable fleet (the pre-fleet behavior); indexed modulo
    /// its length so hand-built environments with resized `parts` stay
    /// valid.
    pub fleet: Vec<DeviceProfile>,
    /// How the server closes rounds over that fleet. Defaults to
    /// [`Scheduler::Synchronous`] (the classic barrier).
    pub scheduler: Scheduler,
}

impl ExperimentEnv {
    /// Generates data with `synth` and splits it across `cfg.devices`
    /// devices with `Dirichlet(cfg.alpha)`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FlConfig::validate`] or the generated corpus
    /// has fewer samples than devices. Use [`try_new`](Self::try_new) for a
    /// typed error instead of a panic.
    pub fn new(synth: SynthConfig, cfg: FlConfig) -> Self {
        Self::try_new(synth, cfg).unwrap_or_else(|e| panic!("invalid FlConfig: {e}"))
    }

    /// [`new`](Self::new) with configuration validation surfaced as a typed
    /// [`ConfigError`](crate::ConfigError) instead of a downstream panic or
    /// hang.
    pub fn try_new(synth: SynthConfig, cfg: FlConfig) -> Result<Self, crate::ConfigError> {
        cfg.validate()?;
        let (train, test) = synth.generate();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x9a97_1710);
        let parts_idx = dirichlet_partition(
            &mut rng,
            train.labels(),
            train.classes(),
            cfg.devices,
            cfg.alpha,
        );
        let parts: Vec<Dataset> = parts_idx.iter().map(|idx| train.subset(idx)).collect();
        // Server public data: an iid sample of ~10% of the corpus.
        let server_public = train.dev_split(&mut rng, 0.1);
        Ok(ExperimentEnv {
            parts,
            test,
            server_public,
            cfg,
            synth,
            fleet: DeviceProfile::fleet_uniform(cfg.devices),
            scheduler: Scheduler::Synchronous,
        })
    }

    /// Replaces the simulated device fleet (builder style).
    pub fn with_fleet(mut self, fleet: Vec<DeviceProfile>) -> Self {
        self.fleet = fleet;
        self
    }

    /// Replaces the round scheduler (builder style).
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replaces the wire codec (builder style).
    pub fn with_codec(mut self, codec: ft_sparse::Codec) -> Self {
        self.cfg.codec = codec;
        self
    }

    /// The device profile of device `k` (fleet indexed modulo its length;
    /// an empty fleet falls back to the uniform reference profile).
    pub fn device_profile(&self, k: usize) -> DeviceProfile {
        if self.fleet.is_empty() {
            DeviceProfile::uniform()
        } else {
            self.fleet[k % self.fleet.len()]
        }
    }

    /// Millisecond-scale environment for unit tests.
    pub fn tiny_for_tests(seed: u64) -> Self {
        let mut cfg = FlConfig::tiny_for_tests();
        cfg.seed = seed;
        let synth = SynthConfig::tiny_for_tests(DatasetProfile::Cifar10, seed);
        Self::new(synth, cfg)
    }

    /// Laptop-scale environment matching the bench defaults.
    pub fn bench_default(profile: DatasetProfile, seed: u64) -> Self {
        let mut cfg = FlConfig::bench_default();
        cfg.seed = seed;
        let synth = SynthConfig::bench_default(profile, seed);
        Self::new(synth, cfg)
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.parts.len()
    }

    /// Total training samples across devices.
    pub fn total_train_samples(&self) -> usize {
        self.parts.iter().map(Dataset::len).sum()
    }

    /// Relative dataset weights `|D_k| / Σ|D_j|` used by every aggregation
    /// in the paper (Eqs. 4 and 7).
    pub fn device_weights(&self) -> Vec<f64> {
        let total = self.total_train_samples() as f64;
        self.parts.iter().map(|d| d.len() as f64 / total).collect()
    }

    /// Builds the model for this environment (input channels/classes come
    /// from the data).
    ///
    /// # Panics
    ///
    /// Panics if the spec's input resolution differs from the data's.
    pub fn build_model(&self, spec: &ModelSpec) -> Box<dyn Model> {
        let [c, h, _w] = self.test.sample_shape();
        assert_eq!(
            h,
            spec.input_size(),
            "model expects {} inputs but data is {h}px",
            spec.input_size()
        );
        spec.build(c, self.test.classes(), self.cfg.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_env_is_consistent() {
        let env = ExperimentEnv::tiny_for_tests(0);
        assert_eq!(env.num_devices(), 3);
        assert!(env.parts.iter().all(|p| !p.is_empty()));
        assert_eq!(env.test.classes(), 10);
        assert!(!env.server_public.is_empty());
        let w = env.device_weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ExperimentEnv::tiny_for_tests(3);
        let b = ExperimentEnv::tiny_for_tests(3);
        assert_eq!(a.parts[0].labels(), b.parts[0].labels());
    }

    #[test]
    fn sim_fleet_defaults_are_uniform_and_synchronous() {
        let env = ExperimentEnv::tiny_for_tests(0);
        assert_eq!(env.fleet.len(), env.cfg.devices);
        assert_eq!(env.scheduler, Scheduler::Synchronous);
        assert_eq!(env.device_profile(0), DeviceProfile::uniform());
        // Modulo indexing tolerates hand-resized environments; an empty
        // fleet falls back to the reference profile.
        let mut env = env.with_fleet(vec![DeviceProfile::slow()]);
        assert_eq!(env.device_profile(5), DeviceProfile::slow());
        env.fleet.clear();
        assert_eq!(env.device_profile(2), DeviceProfile::uniform());
    }

    #[test]
    fn try_new_rejects_invalid_configs_with_typed_error() {
        let mut cfg = FlConfig::tiny_for_tests();
        cfg.threads = crate::MAX_THREADS + 1;
        let synth = SynthConfig::tiny_for_tests(DatasetProfile::Cifar10, 0);
        match ExperimentEnv::try_new(synth, cfg) {
            Err(crate::ConfigError::TooManyThreads { threads }) => {
                assert_eq!(threads, crate::MAX_THREADS + 1);
            }
            other => panic!("expected TooManyThreads, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid FlConfig")]
    fn new_panics_with_readable_message_on_invalid_config() {
        let mut cfg = FlConfig::tiny_for_tests();
        cfg.batch_size = 0;
        let synth = SynthConfig::tiny_for_tests(DatasetProfile::Cifar10, 0);
        let _ = ExperimentEnv::new(synth, cfg);
    }

    #[test]
    fn build_model_checks_resolution() {
        let env = ExperimentEnv::tiny_for_tests(0);
        let m = env.build_model(&ModelSpec::small_cnn_test());
        assert_eq!(m.arch().input, [3, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "but data is")]
    fn build_model_rejects_resolution_mismatch() {
        let env = ExperimentEnv::tiny_for_tests(0);
        let _ = env.build_model(&ModelSpec::ResNet18 {
            width: 0.125,
            input: 16,
        });
    }
}

//! Federated-learning run configuration.

use crate::aggregate::Aggregator;
use ft_nn::optim::SgdConfig;
use ft_sparse::Codec;
use serde::{Deserialize, Serialize};

/// Hard cap on [`FlConfig::threads`]: a worker pool beyond this is always a
/// typo, and actually spawning it would exhaust the host before any kernel
/// runs.
pub const MAX_THREADS: usize = 4096;

/// A structurally invalid run configuration, rejected at construction
/// instead of surfacing as a panic or a hang deep inside the round loop.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `devices == 0`: there is no fleet to federate over.
    NoDevices,
    /// `batch_size == 0`: local SGD could never form a mini-batch.
    ZeroBatchSize,
    /// `local_epochs == 0`: devices would upload untrained deltas forever.
    ZeroLocalEpochs,
    /// `threads` beyond [`MAX_THREADS`] — spawning such a pool stalls the
    /// host long before any round completes.
    TooManyThreads {
        /// The rejected thread count.
        threads: usize,
    },
    /// `participation` is NaN (a silent empty-cohort generator).
    BadParticipation,
    /// `Scheduler::Buffered { buffer_k: 0 }`: the server would aggregate
    /// nothing, forever.
    ZeroBufferK,
    /// `Scheduler::Deadline` with a negative or non-finite deadline: every
    /// round would be cut before any device can finish.
    BadDeadline {
        /// The rejected deadline, in simulated seconds.
        deadline_secs: f64,
    },
    /// `Aggregator::TrimmedMean` with a trim fraction outside `[0, 0.5)`:
    /// trimming half or more of every column leaves nothing to average.
    BadTrimFraction {
        /// The rejected per-tail trim fraction.
        beta: f64,
    },
    /// `Aggregator::NormClipped` with a non-finite or non-positive clip
    /// threshold: every update would be scaled to nothing (or NaN).
    BadClipNorm {
        /// The rejected L2 threshold.
        tau: f64,
    },
    /// `collect_timeout_secs` is non-finite or non-positive: a tolerant
    /// Collect phase could never (or would instantly) time a silent device
    /// out.
    BadCollectTimeout {
        /// The rejected per-stream quiet timeout, in wall seconds.
        collect_timeout_secs: f64,
    },
    /// `alpha` is non-finite or non-positive: the Dirichlet split has no
    /// such concentration.
    BadAlpha {
        /// The rejected Dirichlet concentration.
        alpha: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoDevices => write!(f, "devices must be at least 1"),
            ConfigError::ZeroBatchSize => write!(f, "batch_size must be at least 1"),
            ConfigError::ZeroLocalEpochs => write!(f, "local_epochs must be at least 1"),
            ConfigError::TooManyThreads { threads } => {
                write!(f, "threads = {threads} exceeds the {MAX_THREADS} cap")
            }
            ConfigError::BadParticipation => write!(f, "participation must not be NaN"),
            ConfigError::ZeroBufferK => write!(f, "buffer_k must be at least 1"),
            ConfigError::BadDeadline { deadline_secs } => {
                write!(
                    f,
                    "deadline_secs = {deadline_secs} must be finite and non-negative"
                )
            }
            ConfigError::BadTrimFraction { beta } => {
                write!(f, "trim fraction beta = {beta} must be finite in [0, 0.5)")
            }
            ConfigError::BadClipNorm { tau } => {
                write!(f, "clip norm tau = {tau} must be finite and positive")
            }
            ConfigError::BadCollectTimeout {
                collect_timeout_secs,
            } => {
                write!(
                    f,
                    "collect_timeout_secs = {collect_timeout_secs} must be finite and positive"
                )
            }
            ConfigError::BadAlpha { alpha } => {
                write!(f, "Dirichlet alpha = {alpha} must be finite and positive")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Shared federated-learning knobs (Sec. IV-A1 of the paper).
///
/// `Deserialize` is hand-written (the derive shim has no `#[serde(default)]`)
/// so configs serialized before `collect_timeout_secs` existed still load,
/// getting the legacy 30 s constant.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct FlConfig {
    /// Number of participating devices `K` (paper: 10).
    pub devices: usize,
    /// Total FL rounds (paper: 300, or 200 for SVHN).
    pub rounds: usize,
    /// Local epochs per round `E` (paper: 5).
    pub local_epochs: usize,
    /// Mini-batch size (paper: 64).
    pub batch_size: usize,
    /// Local SGD hyperparameters.
    pub sgd: SgdConfig,
    /// Dirichlet concentration for the non-iid split (paper: 0.5).
    pub alpha: f64,
    /// Fraction of local data sampled as the development split `D̂_k`
    /// for BN adaptation (paper: 0.1).
    pub dev_fraction: f32,
    /// Fraction of devices participating per round (1.0 = all devices, the
    /// paper's setting; lower values model realistic partial participation).
    pub participation: f32,
    /// FedProx proximal coefficient µ; 0 disables the proximal term (the
    /// paper uses plain FedAvg). When set, each local step adds
    /// `µ(θ − θ_global)` to the gradient.
    pub prox_mu: f32,
    /// Per-round multiplicative learning-rate decay (1.0 = constant lr).
    pub lr_decay: f32,
    /// Run devices on parallel OS threads.
    pub parallel: bool,
    /// Worker threads of the run's [`ft_runtime::Runtime`] pool: device
    /// fan-out and kernel parallelism both draw from this one budget.
    /// `0` = auto (the `FT_THREADS` environment variable if set, otherwise
    /// all available cores); `1` = the exact legacy sequential path.
    /// Parallel and sequential execution are bit-identical, so this knob
    /// only changes wall-clock.
    pub threads: usize,
    /// Wire codec for the device → server update uploads (and the matching
    /// broadcast format). `Codec::Dense` reproduces the classic full-vector
    /// exchange; method runners typically override this per method.
    pub codec: Codec,
    /// Server aggregation rule. `Aggregator::FedAvg` is the paper's
    /// sample-weighted averaging; the robust rules defend against poisoned
    /// cohort members at extra decode cost.
    pub aggregator: Aggregator,
    /// Per-stream quiet timeout of a *tolerant* Collect phase, in wall
    /// seconds: a device whose stream makes no read progress for this long
    /// is quarantined as disconnected instead of hanging the round. Strict
    /// transports (the bit-identity harness) ignore it and wait
    /// indefinitely. Purely a liveness knob — it never changes what an
    /// on-time fleet computes, so golden traces are unaffected. Large
    /// fleets on slow links should raise it; absent from older configs it
    /// deserializes to the legacy 30 s constant.
    pub collect_timeout_secs: f64,
    /// Master seed for the whole run.
    pub seed: u64,
}

/// The pre-knob hardcoded tolerant-read timeout, kept as the deserialize
/// default so existing configs and checkpoints keep their exact behavior.
fn default_collect_timeout_secs() -> f64 {
    30.0
}

impl Deserialize for FlConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(FlConfig {
            devices: Deserialize::from_value(v.field("devices")?)?,
            rounds: Deserialize::from_value(v.field("rounds")?)?,
            local_epochs: Deserialize::from_value(v.field("local_epochs")?)?,
            batch_size: Deserialize::from_value(v.field("batch_size")?)?,
            sgd: Deserialize::from_value(v.field("sgd")?)?,
            alpha: Deserialize::from_value(v.field("alpha")?)?,
            dev_fraction: Deserialize::from_value(v.field("dev_fraction")?)?,
            participation: Deserialize::from_value(v.field("participation")?)?,
            prox_mu: Deserialize::from_value(v.field("prox_mu")?)?,
            lr_decay: Deserialize::from_value(v.field("lr_decay")?)?,
            parallel: Deserialize::from_value(v.field("parallel")?)?,
            threads: Deserialize::from_value(v.field("threads")?)?,
            codec: Deserialize::from_value(v.field("codec")?)?,
            aggregator: Deserialize::from_value(v.field("aggregator")?)?,
            collect_timeout_secs: match v.get("collect_timeout_secs") {
                Some(t) => Deserialize::from_value(t)?,
                None => default_collect_timeout_secs(),
            },
            seed: Deserialize::from_value(v.field("seed")?)?,
        })
    }
}

impl FlConfig {
    /// Structural validation, run by [`crate::ExperimentEnv::try_new`] and
    /// the server loop before anything expensive happens: rejects configs
    /// that could only panic or hang downstream (`devices == 0`,
    /// `batch_size == 0`, `local_epochs == 0`, NaN participation, a
    /// non-finite or non-positive Dirichlet `alpha`, or a worker pool beyond
    /// [`MAX_THREADS`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.devices == 0 {
            return Err(ConfigError::NoDevices);
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if self.local_epochs == 0 {
            return Err(ConfigError::ZeroLocalEpochs);
        }
        if self.threads > MAX_THREADS {
            return Err(ConfigError::TooManyThreads {
                threads: self.threads,
            });
        }
        if self.participation.is_nan() {
            return Err(ConfigError::BadParticipation);
        }
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err(ConfigError::BadAlpha { alpha: self.alpha });
        }
        if !self.collect_timeout_secs.is_finite() || self.collect_timeout_secs <= 0.0 {
            return Err(ConfigError::BadCollectTimeout {
                collect_timeout_secs: self.collect_timeout_secs,
            });
        }
        self.aggregator.validate()?;
        Ok(())
    }

    /// The run's worker pool: [`threads`](Self::threads) resolved through
    /// [`ft_runtime::resolve_threads`] (explicit count, else `FT_THREADS`,
    /// else available parallelism).
    pub fn runtime(&self) -> ft_runtime::Runtime {
        ft_runtime::Runtime::new(ft_runtime::resolve_threads(self.threads))
    }

    /// The paper's settings (expensive; used by `FT_SCALE=paper` benches).
    pub fn paper_default() -> Self {
        FlConfig {
            devices: 10,
            rounds: 300,
            local_epochs: 5,
            batch_size: 64,
            sgd: SgdConfig::default(),
            alpha: 0.5,
            dev_fraction: 0.1,
            participation: 1.0,
            prox_mu: 0.0,
            lr_decay: 1.0,
            parallel: true,
            threads: 0,
            codec: Codec::Dense,
            aggregator: Aggregator::FedAvg,
            collect_timeout_secs: default_collect_timeout_secs(),
            seed: 0,
        }
    }

    /// Laptop-scale settings the bench harnesses default to.
    pub fn bench_default() -> Self {
        FlConfig {
            devices: 6,
            rounds: 40,
            local_epochs: 2,
            batch_size: 32,
            sgd: SgdConfig {
                lr: 0.08,
                momentum: 0.0,
                weight_decay: 0.0,
                clip_norm: 2.0,
            },
            alpha: 0.5,
            dev_fraction: 0.2,
            participation: 1.0,
            prox_mu: 0.0,
            lr_decay: 1.0,
            parallel: true,
            threads: 0,
            codec: Codec::Dense,
            aggregator: Aggregator::FedAvg,
            collect_timeout_secs: default_collect_timeout_secs(),
            seed: 0,
        }
    }

    /// Millisecond-scale settings for unit tests.
    pub fn tiny_for_tests() -> Self {
        FlConfig {
            devices: 3,
            rounds: 4,
            local_epochs: 1,
            batch_size: 16,
            sgd: SgdConfig {
                lr: 0.1,
                momentum: 0.0,
                weight_decay: 0.0,
                clip_norm: 0.0,
            },
            alpha: 0.5,
            dev_fraction: 0.5,
            participation: 1.0,
            prox_mu: 0.0,
            lr_decay: 1.0,
            parallel: false,
            threads: 0,
            codec: Codec::Dense,
            aggregator: Aggregator::FedAvg,
            collect_timeout_secs: default_collect_timeout_secs(),
            seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_presets_and_rejects_degenerates() {
        for cfg in [
            FlConfig::paper_default(),
            FlConfig::bench_default(),
            FlConfig::tiny_for_tests(),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
        let base = FlConfig::tiny_for_tests();
        let mut c = base;
        c.devices = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoDevices));
        let mut c = base;
        c.batch_size = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroBatchSize));
        let mut c = base;
        c.local_epochs = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroLocalEpochs));
        let mut c = base;
        c.threads = MAX_THREADS + 1;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyThreads {
                threads: MAX_THREADS + 1
            })
        );
        let mut c = base;
        c.threads = MAX_THREADS; // at the cap is still legal
        assert_eq!(c.validate(), Ok(()));
        let mut c = base;
        c.participation = f32::NAN;
        assert_eq!(c.validate(), Err(ConfigError::BadParticipation));
        let mut c = base;
        c.aggregator = Aggregator::TrimmedMean { beta: 0.7 };
        assert_eq!(
            c.validate(),
            Err(ConfigError::BadTrimFraction { beta: 0.7 })
        );
        let mut c = base;
        c.aggregator = Aggregator::NormClipped { tau: -2.0 };
        assert_eq!(c.validate(), Err(ConfigError::BadClipNorm { tau: -2.0 }));
        let mut c = base;
        c.aggregator = Aggregator::TrimmedMean { beta: 0.25 };
        assert_eq!(c.validate(), Ok(()));
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mut c = base;
            c.collect_timeout_secs = bad;
            // NaN != NaN under the derived PartialEq, so match on the
            // variant and compare the carried value bit-for-bit.
            match c.validate() {
                Err(ConfigError::BadCollectTimeout {
                    collect_timeout_secs,
                }) => assert_eq!(collect_timeout_secs.to_bits(), bad.to_bits()),
                other => panic!("collect_timeout_secs = {bad} must be rejected, got {other:?}"),
            }
            let mut c = base;
            c.alpha = bad;
            match c.validate() {
                Err(ConfigError::BadAlpha { alpha }) => assert_eq!(alpha.to_bits(), bad.to_bits()),
                other => panic!("alpha = {bad} must be rejected, got {other:?}"),
            }
        }
        let mut c = base;
        c.collect_timeout_secs = 0.25; // sub-second is unusual but legal
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn config_errors_display_their_field() {
        assert!(ConfigError::TooManyThreads { threads: 9999 }
            .to_string()
            .contains("9999"));
        assert!(ConfigError::BadDeadline {
            deadline_secs: -1.0
        }
        .to_string()
        .contains("-1"));
        assert!(ConfigError::ZeroBufferK.to_string().contains("buffer_k"));
        assert!(ConfigError::BadTrimFraction { beta: 0.9 }
            .to_string()
            .contains("0.9"));
        assert!(ConfigError::BadClipNorm { tau: 0.0 }
            .to_string()
            .contains("0"));
        assert!(ConfigError::BadCollectTimeout {
            collect_timeout_secs: -3.0
        }
        .to_string()
        .contains("-3"));
        assert!(ConfigError::BadAlpha { alpha: -0.5 }
            .to_string()
            .contains("-0.5"));
    }

    #[test]
    fn collect_timeout_defaults_when_absent_from_serialized_config() {
        let mut cfg = FlConfig::tiny_for_tests();
        cfg.collect_timeout_secs = 7.5;
        // Round-trips carry the knob through...
        let back = FlConfig::from_value(&cfg.to_value()).unwrap();
        assert_eq!(back, cfg);
        // ...and a pre-knob serialized config (no such key) gets the legacy
        // 30 s constant instead of a missing-field error.
        let legacy = match cfg.to_value() {
            serde::Value::Map(pairs) => serde::Value::Map(
                pairs
                    .into_iter()
                    .filter(|(k, _)| k != "collect_timeout_secs")
                    .collect(),
            ),
            other => panic!("FlConfig must serialize to a map, got {other:?}"),
        };
        let loaded = FlConfig::from_value(&legacy).unwrap();
        assert_eq!(loaded.collect_timeout_secs, 30.0);
    }

    #[test]
    fn presets_are_sane() {
        let p = FlConfig::paper_default();
        assert_eq!(p.devices, 10);
        assert_eq!(p.rounds, 300);
        assert_eq!(p.local_epochs, 5);
        assert_eq!(p.batch_size, 64);
        let t = FlConfig::tiny_for_tests();
        assert!(t.rounds < 10 && t.devices <= 4);
    }
}

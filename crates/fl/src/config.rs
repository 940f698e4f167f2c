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
    /// `collect_timeout_secs` is non-finite or non-positive: a TCP Collect
    /// phase could never (or would instantly) time a silent device out.
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
    /// `dev_fraction` is outside `(0, 1]` (NaN included): no device could
    /// carve a development split from its partition.
    BadDevFraction {
        /// The rejected development-split fraction.
        dev_fraction: f32,
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
            ConfigError::BadDevFraction { dev_fraction } => {
                write!(f, "dev_fraction = {dev_fraction} must lie in (0, 1]")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Shared federated-learning knobs (Sec. IV-A1 of the paper).
///
/// Local training is the paper's plain FedAvg: devices run on parallel
/// workers whenever the pool has more than one ([`threads`](Self::threads)),
/// with a constant learning rate and no proximal term.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
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
    /// Per-stream quiet timeout of a TCP Collect phase, in wall seconds: a
    /// device whose stream makes no read progress for this long is
    /// quarantined as disconnected instead of hanging the round. Purely a
    /// liveness knob — it never changes what an on-time fleet computes, so
    /// golden traces are unaffected. Large fleets on slow links should
    /// raise it.
    pub collect_timeout_secs: f64,
    /// Master seed for the whole run.
    pub seed: u64,
}

impl FlConfig {
    /// Structural validation, run by [`crate::ExperimentEnv::try_new`] and
    /// the server loop before anything expensive happens: rejects configs
    /// that could only panic or hang downstream (`devices == 0`,
    /// `batch_size == 0`, `local_epochs == 0`, NaN participation, a
    /// non-finite or non-positive Dirichlet `alpha`, a `dev_fraction` outside
    /// `(0, 1]`, or a worker pool beyond [`MAX_THREADS`]).
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
        // Written so that NaN fails it too.
        if !(self.dev_fraction > 0.0 && self.dev_fraction <= 1.0) {
            return Err(ConfigError::BadDevFraction {
                dev_fraction: self.dev_fraction,
            });
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

    /// The paper's settings (Sec. IV-A1); the workspace's harnesses run
    /// their own scaled-down presets, so only tests construct this one.
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
            threads: 0,
            codec: Codec::Dense,
            aggregator: Aggregator::FedAvg,
            collect_timeout_secs: 30.0,
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
                clip_norm: 2.0,
            },
            alpha: 0.5,
            dev_fraction: 0.2,
            participation: 1.0,
            threads: 0,
            codec: Codec::Dense,
            aggregator: Aggregator::FedAvg,
            collect_timeout_secs: 30.0,
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
                clip_norm: 0.0,
            },
            alpha: 0.5,
            dev_fraction: 0.5,
            participation: 1.0,
            threads: 0,
            codec: Codec::Dense,
            aggregator: Aggregator::FedAvg,
            collect_timeout_secs: 30.0,
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
        for bad in [0.0, -0.5, 1.5, f32::NAN] {
            let mut c = base;
            c.dev_fraction = bad;
            match c.validate() {
                Err(ConfigError::BadDevFraction { dev_fraction }) => {
                    assert_eq!(dev_fraction.to_bits(), bad.to_bits())
                }
                other => panic!("dev_fraction = {bad} must be rejected, got {other:?}"),
            }
        }
        let mut c = base;
        c.dev_fraction = 1.0; // the whole partition is a legal dev split
        assert_eq!(c.validate(), Ok(()));
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
        assert!(ConfigError::BadDevFraction { dev_fraction: 1.5 }
            .to_string()
            .contains("1.5"));
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

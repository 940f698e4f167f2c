//! Synthetic dataset profiles and non-iid partitioning.
//!
//! The paper evaluates on CIFAR-10, CIFAR-100, CINIC-10 and SVHN. Real image
//! corpora are not available in this environment, so this crate generates
//! *class-conditional synthetic images*: each class has a smooth random
//! prototype pattern; samples are `signal · prototype + noise · N(0, 1)`.
//! Per-dataset profiles mirror the relative difficulty and size of the real
//! datasets (SVHN easiest, CINIC-10 hardest and largest, CIFAR-100 has 100
//! classes). The substitution keeps what the paper's comparisons rest on:
//! every method trains and is scored on the same class-conditional data,
//! device heterogeneity comes from the same Dirichlet label split, and
//! difficulty is ordered across profiles as across the real corpora.
//! Absolute accuracies are not comparable with the paper's.
//!
//! Non-iid federated splits use the standard Dirichlet(α) partition over
//! class proportions (Sec. IV-A1 of the paper, following Luo et al.).
//!
//! # Examples
//!
//! ```
//! use ft_data::{DatasetProfile, SynthConfig};
//!
//! let cfg = SynthConfig::tiny_for_tests(DatasetProfile::Cifar10, 0);
//! let (train, test) = cfg.generate();
//! assert_eq!(train.classes(), 10);
//! assert!(train.len() > 0 && test.len() > 0);
//! ```

mod dataset;
mod partition;
mod synth;

pub use dataset::{BatchBuf, BatchIter, Dataset};
pub use partition::dirichlet_partition;
pub use synth::{DatasetProfile, SynthConfig};

//! Quickstart: run the full FedTiny pipeline on a synthetic federated
//! CIFAR-10 and print what each stage did.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fedtiny::{coarse_prune, run_fedtiny, FedTinyConfig};
use fedtiny_suite::fl::{ExperimentEnv, FlConfig, ModelSpec};
use ft_bench::Method;

fn main() {
    // 1. A federated environment: synthetic CIFAR-10 split across 4 devices
    //    with a Dirichlet(0.5) non-iid partition.
    let synth = SynthConfig {
        profile: DatasetProfile::Cifar10,
        train_per_class: 16,
        test_per_class: 10,
        resolution: 8,
        channels: 3,
        seed: 42,
    };
    let mut cfg = FlConfig::bench_default();
    cfg.devices = 4;
    cfg.rounds = 12;
    cfg.seed = 42;
    let env = ExperimentEnv::new(synth, cfg);
    println!(
        "environment: {} devices, {} train samples, {} test samples",
        env.num_devices(),
        env.total_train_samples(),
        env.test.len()
    );

    // 2. Peek at what the adaptive BN selection module does in a run on
    //    the paper's schedule, scaled to this run's 12 rounds.
    let spec = ModelSpec::ResNet18 {
        width: 0.125,
        input: 8,
    };
    let ft = FedTinyConfig {
        pool_size: 6,
        eval_every: 10,
        ..Method::FedTiny.config(&env, &spec, 0.05)
    };
    let (_, outcome) = coarse_prune(&env, &ft);
    println!(
        "selection: candidate {} of {} wins (losses: {:?})",
        outcome.selected,
        outcome.candidate_losses.len(),
        outcome
            .candidate_losses
            .iter()
            .map(|l| format!("{l:.3}"))
            .collect::<Vec<_>>()
    );

    // 3. The full pipeline: selection + sparse FedAvg + progressive pruning.
    let result = run_fedtiny(&env, &ft);
    println!("{}", result.format_summary());
}

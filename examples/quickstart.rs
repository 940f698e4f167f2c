//! Quickstart: run the full FedTiny pipeline on a synthetic federated
//! CIFAR-10 and print what each stage did.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fedtiny::{
    adaptive_bn_selection, generate_candidate_pool, run_fedtiny, FedTinyConfig, SelectionConfig,
};
use fedtiny_suite::fl::{ExperimentEnv, FlConfig, ModelSpec};
use ft_bench::methods::fedtiny_config;

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

    // 2. Peek at what the adaptive BN selection module does.
    let spec = ModelSpec::ResNet18 {
        width: 0.125,
        input: 8,
    };
    let model = env.build_model(&spec);
    let sel = SelectionConfig {
        d_target: 0.05,
        pool_size: 6,
        noise_spread: 0.5,
        seed: 42,
    };
    let pool = generate_candidate_pool(model.as_ref(), &sel);
    let outcome = adaptive_bn_selection(model.as_ref(), &env, &pool);
    println!(
        "selection: candidate {} of {} wins (losses: {:?})",
        outcome.selected,
        pool.len(),
        outcome
            .candidate_losses
            .iter()
            .map(|l| format!("{l:.3}"))
            .collect::<Vec<_>>()
    );

    // 3. The full pipeline: selection + sparse FedAvg + progressive pruning,
    //    on the paper's schedule scaled to this run's 12 rounds.
    let ft = FedTinyConfig {
        pool_size: 6,
        eval_every: 10,
        ..fedtiny_config(&env, &spec, 0.05)
    };
    let result = run_fedtiny(&env, &ft);
    println!("{}", result.format_summary());
}

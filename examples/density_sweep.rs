//! Density sweep: FedTiny versus two representative baselines across
//! sparsity levels — a miniature of the paper's Fig. 3.
//!
//! ```bash
//! cargo run --release --example density_sweep
//! ```

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fedtiny::{run_fedtiny, FedTinyConfig};
use fedtiny_suite::fl::{ExperimentEnv, FlConfig, ModelSpec};
use ft_bench::methods::fedtiny_config;
use ft_bench::{run_method, Method};

fn main() {
    let synth = SynthConfig {
        profile: DatasetProfile::Cifar10,
        train_per_class: 16,
        test_per_class: 10,
        resolution: 8,
        channels: 3,
        seed: 7,
    };
    let mut cfg = FlConfig::bench_default();
    cfg.devices = 4;
    cfg.rounds = 24;
    cfg.local_epochs = 1;
    cfg.sgd.lr = 0.05;
    cfg.seed = 7;
    let env = ExperimentEnv::new(synth, cfg);
    let spec = ModelSpec::ResNet18 {
        width: 0.125,
        input: 8,
    };

    println!(
        "{:>8}  {:>8}  {:>8}  {:>8}",
        "density", "synflow", "feddst", "fedtiny"
    );
    for d in [0.5f32, 0.2, 0.05, 0.02] {
        let synflow = run_method(&env, &spec, Method::SynFlow, d);
        let feddst = run_method(&env, &spec, Method::FedDst, d);
        let ft_cfg = FedTinyConfig {
            pool_size: 6,
            eval_every: 0,
            ..fedtiny_config(&env, &spec, d)
        };
        let fedtiny = run_fedtiny(&env, &ft_cfg);
        println!(
            "{d:>8}  {:>8.4}  {:>8.4}  {:>8.4}",
            synflow.accuracy, feddst.accuracy, fedtiny.accuracy
        );
    }
    println!(
        "\nexpected shape: the gap between FedTiny and the baselines widens as density falls."
    );
}

//! Partial participation: run FedTiny with only half the devices active per
//! round (an extension beyond the paper, which always uses all K devices)
//! and compare against full participation.
//!
//! ```bash
//! cargo run --release --example partial_participation
//! ```

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fedtiny::{run_fedtiny, FedTinyConfig};
use fedtiny_suite::fl::{ExperimentEnv, FlConfig, ModelSpec};
use ft_bench::methods::fedtiny_config;

fn run_with_participation(participation: f32) -> (f32, f32) {
    let synth = SynthConfig {
        profile: DatasetProfile::Cifar10,
        train_per_class: 16,
        test_per_class: 10,
        resolution: 8,
        channels: 3,
        seed: 31,
    };
    let mut cfg = FlConfig::bench_default();
    cfg.devices = 6;
    cfg.rounds = 12;
    cfg.local_epochs = 1;
    cfg.participation = participation;
    cfg.seed = 31;
    let env = ExperimentEnv::new(synth, cfg);
    let spec = ModelSpec::ResNet18 {
        width: 0.125,
        input: 8,
    };
    let ft = FedTinyConfig {
        pool_size: 4,
        eval_every: 0,
        ..fedtiny_config(&env, &spec, 0.1)
    };
    let r = run_fedtiny(&env, &ft);
    (r.accuracy, r.final_density)
}

fn main() {
    println!("{:>14}  {:>8}  {:>8}", "participation", "top1", "density");
    for p in [1.0f32, 0.5, 0.34] {
        let (acc, density) = run_with_participation(p);
        println!("{p:>14}  {acc:>8.4}  {density:>8.4}");
    }
    println!(
        "\nexpected shape: accuracy degrades gracefully as fewer devices participate per\n\
         round — each round sees less data, but the BN-selected mask and progressive\n\
         adjustments still steer the subnetwork."
    );
}

//! Partial participation: run FedTiny with only half the devices active per
//! round (an extension beyond the paper, which always uses all K devices)
//! and compare against full participation.
//!
//! ```bash
//! cargo run --release --example partial_participation
//! ```

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fedtiny::{run_fedtiny, FedTinyConfig};
use fedtiny_suite::fl::{ExperimentEnv, FlConfig, ModelSpec, RunResult};
use ft_bench::claims::{nearest_class_mean_accuracy, no_worse};
use ft_bench::Method;

/// How much accuracy fewer participants per round may cost and still count
/// as a graceful degradation.
const GRACEFUL: f64 = 0.05;

/// The run at `participation`, and the nearest-class-mean accuracy of its
/// environment.
fn run_with_participation(participation: f32) -> (RunResult, f32) {
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
        ..Method::FedTiny.config(&env, &spec, 0.1)
    };
    (run_fedtiny(&env, &ft), nearest_class_mean_accuracy(&env))
}

fn main() {
    println!("{:>14}  {:>8}  {:>8}", "participation", "top1", "density");
    let runs = [1.0f32, 0.5, 0.34].map(|p| (p, run_with_participation(p)));
    for (p, (r, _)) in &runs {
        println!("{p:>14}  {:>8.4}  {:>8.4}", r.accuracy, r.final_density);
    }
    // The claim: each round sees less data, but the BN-selected mask and
    // progressive adjustments still steer the subnetwork.
    let arm = |i: usize| (format!("participation={}", runs[i].0), &runs[i].1 .0);
    let pairs = [(arm(1), arm(0)), (arm(2), arm(0))];
    let ncm = runs[0].1 .1;
    let id = "partial_participation.degrades_gracefully";
    println!("\n{}", no_worse(id, "participation", ncm, GRACEFUL, &pairs));
}

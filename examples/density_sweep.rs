//! Density sweep: FedTiny versus two representative baselines across
//! sparsity levels — Fig. 3's rows on a small environment of its own, run on
//! the grid and checked against Fig. 3's claim.
//!
//! ```bash
//! cargo run --release --example density_sweep
//! ```

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fl::{ExperimentEnv, FlConfig, ModelSpec};
use ft_bench::claims::nearest_class_mean_accuracy;
use ft_bench::paper::fig3_claim;
use ft_bench::{run_grid, Method, Row};

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

    let densities = [0.5f32, 0.2, 0.05, 0.02];
    let rows: Vec<Row> = (densities.iter())
        .flat_map(|&d| {
            let mut fedtiny = Row::method(&env, spec, Method::FedTiny, d);
            fedtiny.cfg.pool_size = 6;
            fedtiny.cfg.eval_every = 0;
            [
                Row::method(&env, spec, Method::SynFlow, d),
                Row::method(&env, spec, Method::FedDst, d),
                fedtiny,
            ]
        })
        .collect();
    let records = run_grid(&rows);
    println!(
        "{:>8}  {:>8}  {:>8}  {:>8}",
        "density", "synflow", "feddst", "fedtiny"
    );
    for (d, r) in densities.iter().zip(records.chunks(3)) {
        let [synflow, feddst, fedtiny] = [0, 1, 2].map(|i| r[i].accuracy);
        println!("{d:>8}  {synflow:>8.4}  {feddst:>8.4}  {fedtiny:>8.4}");
    }
    let lowest = &records[records.len() - 3..];
    let named = |i: usize| (format!("d=0.02 {}", lowest[i].method), &lowest[i]);
    let ncm = nearest_class_mean_accuracy(&env);
    println!(
        "\n{}",
        fig3_claim("cifar10", ncm, named(2), vec![named(0), named(1)])
    );
}

//! Non-iid BN selection: shows *why* adaptive batch-normalization selection
//! matters — as the Dirichlet α shrinks (more heterogeneous devices), the
//! candidate chosen with recalibrated BN statistics diverges from the one
//! vanilla scoring would pick, and the resulting model is better.
//!
//! ```bash
//! cargo run --release --example noniid_bn_selection
//! ```

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fedtiny::{coarse_prune, FedTinyConfig, SelectionMode};
use fedtiny_suite::fl::{ExperimentEnv, FlConfig, ModelSpec};
use ft_bench::claims::{nearest_class_mean_accuracy, no_worse, ACCURACY_TOLERANCE};
use ft_bench::{run_grid, Method, Row};

fn main() {
    let spec = ModelSpec::ResNet18 {
        width: 0.125,
        input: 8,
    };
    let alphas = [0.1f64, 0.5, 5.0];
    let envs = alphas.map(|alpha| {
        let synth = SynthConfig {
            profile: DatasetProfile::Cifar10,
            train_per_class: 16,
            test_per_class: 10,
            resolution: 8,
            channels: 3,
            seed: 13,
        };
        let mut cfg = FlConfig::bench_default();
        cfg.devices = 4;
        cfg.rounds = 24;
        cfg.local_epochs = 1;
        cfg.sgd.lr = 0.05;
        cfg.alpha = alpha;
        cfg.seed = 13;
        ExperimentEnv::new(synth, cfg)
    });
    // How each selection trains out, both pruning progressively: FedTiny
    // against vanilla selection + progressive pruning, 8 candidates.
    let rows: Vec<Row> = (envs.iter())
        .flat_map(|env| {
            [Method::FedTiny, Method::VanillaProgressive].map(|m| {
                let mut row = Row::method(env, spec, m, 0.1);
                row.cfg.pool_size = 8;
                row.cfg.eval_every = 0;
                row
            })
        })
        .collect();
    let records = run_grid(&rows);
    println!(
        "{:>6}  {:>12}  {:>12}  {:>12}  {:>12}",
        "alpha", "adaptive_idx", "vanilla_idx", "fedtiny", "vanilla+prog"
    );
    for (rows, records) in rows.chunks(2).zip(records.chunks(2)) {
        // Which candidate does each selection variant pick?
        let (env, cfg) = (&rows[0].env, rows[0].cfg);
        let [adaptive, vanilla] = [SelectionMode::AdaptiveBn, SelectionMode::Vanilla]
            .map(|selection| coarse_prune(env, &FedTinyConfig { selection, ..cfg }).1);
        println!(
            "{:>6}  {:>12}  {:>12}  {:>12.4}  {:>12.4}",
            env.cfg.alpha,
            adaptive.selected,
            vanilla.selected,
            records[0].accuracy,
            records[1].accuracy
        );
    }
    // The claim: on the most heterogeneous devices, adaptive BN selection
    // trains no worse than vanilla selection.
    let [fedtiny, vanilla] =
        [&records[0], &records[1]].map(|r| (format!("alpha={} {}", alphas[0], r.method), r));
    let claim = no_worse(
        "noniid.adaptive_bn_at_lowest_alpha",
        "Fig. 4",
        nearest_class_mean_accuracy(&envs[0]),
        ACCURACY_TOLERANCE,
        &[(fedtiny, vanilla)],
    );
    println!("\n{claim}");
}

//! Non-iid BN selection: shows *why* adaptive batch-normalization selection
//! matters — as the Dirichlet α shrinks (more heterogeneous devices), the
//! candidate chosen with recalibrated BN statistics diverges from the one
//! vanilla scoring would pick, and the resulting model is better.
//!
//! ```bash
//! cargo run --release --example noniid_bn_selection
//! ```

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fedtiny::{
    adaptive_bn_selection, generate_candidate_pool, run_fedtiny, vanilla_selection, FedTinyConfig,
    SelectionConfig, SelectionMode,
};
use fedtiny_suite::fl::{ExperimentEnv, FlConfig, ModelSpec};
use ft_bench::claims::{nearest_class_mean_accuracy, no_worse, ACCURACY_TOLERANCE};
use ft_bench::methods::fedtiny_config;

fn main() {
    let spec = ModelSpec::ResNet18 {
        width: 0.125,
        input: 8,
    };
    println!(
        "{:>6}  {:>12}  {:>12}  {:>10}  {:>10}",
        "alpha", "adaptive_idx", "vanilla_idx", "acc_adapt", "acc_vanilla"
    );
    let mut claim = None;
    for alpha in [0.1f64, 0.5, 5.0] {
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
        let env = ExperimentEnv::new(synth, cfg);

        // Which candidate does each selection variant pick?
        let model = env.build_model(&spec);
        let sel = SelectionConfig {
            d_target: 0.1,
            pool_size: 8,
            noise_spread: 0.5,
            seed: 13,
        };
        let pool = generate_candidate_pool(model.as_ref(), &sel);
        let adaptive = adaptive_bn_selection(model.as_ref(), &env, &pool);
        let vanilla = vanilla_selection(model.as_ref(), &env, &pool);

        // And how does each choice train out (selection-only arms)?
        let base = FedTinyConfig {
            pool_size: 8,
            eval_every: 0,
            ..fedtiny_config(&env, &spec, 0.1)
        };
        let adapt = run_fedtiny(&env, &base);
        let mut vcfg = base;
        vcfg.selection = SelectionMode::Vanilla;
        let plain = run_fedtiny(&env, &vcfg);

        println!(
            "{alpha:>6}  {:>12}  {:>12}  {:>10.4}  {:>10.4}",
            adaptive.selected, vanilla.selected, adapt.accuracy, plain.accuracy
        );
        // The claim: on the most heterogeneous devices, adaptive BN
        // selection trains no worse than vanilla selection.
        let arm = |name: &str, r| (format!("alpha={alpha} {name}"), r);
        claim.get_or_insert_with(|| {
            let pair = (arm("adaptive_bn", &adapt), arm("vanilla", &plain));
            let ncm = nearest_class_mean_accuracy(&env);
            no_worse(
                "noniid.adaptive_bn_at_lowest_alpha",
                "Fig. 4",
                ncm,
                ACCURACY_TOLERANCE,
                &[pair],
            )
        });
    }
    println!("\n{}", claim.expect("three alphas ran"));
}

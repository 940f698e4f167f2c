//! Table II: extra FLOPs spent in the adaptive BN selection module at the
//! pool size FedTiny's runs use (`C* = 0.1/d`, clamped to `[4, 32]`),
//! compared to the training FLOPs of one round.
//!
//! Paper shape: the one-off selection overhead is below (or around) one
//! round of sparse training — negligible across hundreds of rounds.

use fedtiny::{adaptive_bn_selection, generate_candidate_pool, SelectionConfig};
use ft_bench::methods::fedtiny_config;
use ft_bench::table::flops;
use ft_bench::{Scale, Table};
use ft_data::DatasetProfile;
use ft_metrics::{densities_from_mask, training_flops};

fn main() {
    let scale = Scale::from_env();
    let env = scale.env(DatasetProfile::Cifar10, 7);
    let spec = scale.vgg();

    let mut table = Table::new(
        "Table II — extra FLOPs in adaptive BN selection (VGG11, CIFAR-10)",
        [
            "density",
            "pool(C*)",
            "extra_flops_selection",
            "train_flops_one_round",
            "ratio",
        ],
    );
    for &d in &scale.table_densities() {
        // The selection every FedTiny run at this density makes.
        let cfg = fedtiny_config(&env, &spec, d);
        let global = env.build_model(&spec);
        let sel = SelectionConfig {
            d_target: d,
            pool_size: cfg.pool_size,
            noise_spread: cfg.noise_spread,
            seed: env.cfg.seed,
        };
        let pool = generate_candidate_pool(global.as_ref(), &sel);
        let outcome = adaptive_bn_selection(global.as_ref(), &env, &pool);
        let densities = densities_from_mask(&outcome.mask);
        let max_samples = env.parts.iter().map(|p| p.len()).max().unwrap_or(0) as f64;
        let round =
            training_flops(&global.arch(), &densities) * max_samples * env.cfg.local_epochs as f64;
        table.row(vec![
            format!("{d}"),
            format!("{}", cfg.pool_size),
            flops(outcome.extra_flops),
            flops(round),
            format!("{:.2}", outcome.extra_flops / round),
        ]);
    }
    table.print();
    println!(
        "\npaper reference (VGG11): d=0.01/C=10 → 9.15e10 vs 6.86e11; d=0.005/C=20 → 1.3e11 \
         vs 4.92e11; d=0.001/C=100 → 3.42e11 vs 3.56e11 (ratio rises toward ~1 as C* grows)."
    );
}

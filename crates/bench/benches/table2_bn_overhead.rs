//! Table II: extra FLOPs spent in the adaptive BN selection module at the
//! pool size FedTiny's runs use (`C* = 0.1/d`, clamped to `[4, 32]`),
//! compared to the training FLOPs of one round.
//!
//! The paper's VGG11 figures: 9.15e10 against 6.86e11 at d = 0.01 (C = 10),
//! 1.3e11 against 4.92e11 at 0.005 (C = 20), 3.42e11 against 3.56e11 at
//! 0.001 (C = 100). Claim: the one-off selection costs at most one round of
//! sparse training at every density, so it is negligible across hundreds of
//! rounds. Only selection runs here, no training, so no grid row fits.

use fedtiny::{adaptive_bn_selection, generate_candidate_pool, SelectionConfig};
use ft_bench::methods::fedtiny_config;
use ft_bench::table::flops;
use ft_bench::{Claim, Report, Scale, Table};
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
    let mut ratios = Vec::new();
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
        ratios.push((
            format!("d={d} selection/round"),
            outcome.extra_flops / round,
        ));
    }
    let within = ratios.iter().all(|&(_, ratio)| ratio <= 1.0);
    let id = "table2.selection_within_one_round";
    let claim = Claim::judged(id, "Table II", ratios, 0.0, within);
    Report {
        tables: vec![table],
        claims: vec![claim],
    }
    .print();
}

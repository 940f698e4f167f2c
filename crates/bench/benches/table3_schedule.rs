//! Table III: pruning-schedule ablation — granularity (layer / block /
//! entire model), unit ordering (forward vs backward), and frequency
//! (ΔR / R_stop) on VGG11, CIFAR-10.
//!
//! Paper shape: block granularity in backward order wins; layer granularity
//! converges too slowly; whole-model adjustment is competitive but costs
//! the most per round.

use fedtiny::{run_fedtiny, Granularity, ProgressiveConfig};
use ft_bench::methods::fedtiny_config;
use ft_bench::table::acc;
use ft_bench::{Scale, Table};
use ft_data::DatasetProfile;
use ft_sparse::PruneSchedule;

fn main() {
    let scale = Scale::from_env();
    let env = scale.env(DatasetProfile::Cifar10, 8);
    let spec = scale.vgg();
    let densities = scale.table_densities();

    // (label, granularity, backward, ΔR divisor, R_stop divisor) — the
    // divisors scale the paper's ΔR/R_stop pairs to this run's round count.
    let rows: &[(&str, Granularity, bool, usize, usize)] = &[
        ("layer 5/100", Granularity::Layer, false, 60, 3),
        ("layer(b) 5/100", Granularity::Layer, true, 60, 3),
        ("block 10/100", Granularity::Block, false, 30, 3),
        ("block(b) 10/100", Granularity::Block, true, 30, 3),
        ("block(b) 5/50", Granularity::Block, true, 60, 6),
        ("entire 50/100", Granularity::Entire, false, 6, 3),
        ("entire 25/50", Granularity::Entire, false, 12, 6),
    ];

    let mut header = vec!["schedule".to_string()];
    header.extend(densities.iter().map(|d| format!("d={d}")));
    let mut table = Table::new(
        "Table III — pruning scheduling strategies (VGG11, CIFAR-10)",
        header,
    );

    for &(label, granularity, backward, dr_div, rs_div) in rows {
        let mut cells = vec![label.to_string()];
        for &d in &densities {
            let mut cfg = fedtiny_config(&env, &spec, d);
            cfg.progressive = Some(ProgressiveConfig {
                schedule: PruneSchedule {
                    delta_r: (env.cfg.rounds / dr_div).max(1),
                    r_stop: (env.cfg.rounds / rs_div).max(1),
                    local_iters: env.cfg.local_epochs,
                },
                granularity,
                backward_order: backward,
                start_round: (env.cfg.rounds / dr_div).max(1),
            });
            let r = run_fedtiny(&env, &cfg);
            cells.push(acc(r.accuracy));
        }
        table.row(cells);
    }
    table.print();
    println!(
        "\npaper shape: block(b) 10/100 best overall (0.7883/0.7534/0.6311); backward order \
         beats forward at every granularity; layer-wise without ordering is worst."
    );
}

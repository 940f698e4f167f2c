//! Figure 3: top-1 accuracy of every pruning method across densities, on
//! all four dataset profiles with ResNet18.
//!
//! Paper result to reproduce (shape, not absolute numbers): FedTiny wins in
//! the low-density regime (d < 1e-2 at paper scale) where the at-init
//! baselines collapse; in the high-density regime every method converges
//! toward dense accuracy.

use ft_bench::table::acc;
use ft_bench::{run_method, Method, Scale, Table};
use ft_data::DatasetProfile;

fn main() {
    let scale = Scale::from_env();
    let profiles = [
        DatasetProfile::Cifar10,
        DatasetProfile::Svhn,
        DatasetProfile::Cifar100,
        DatasetProfile::Cinic10,
    ];
    let methods = Method::FIGURE3;
    let densities = scale.density_grid();

    for profile in profiles {
        let env = scale.env(profile, 3);
        let spec = scale.resnet();
        let mut header = vec!["density"];
        header.extend(methods.map(Method::name));
        let mut table = Table::new(
            &format!(
                "Fig. 3 — top-1 accuracy vs density ({}, ResNet18)",
                profile.name()
            ),
            header,
        );
        let mut cost_table = Table::new(
            &format!(
                "Fig. 3 cost check — analytic vs realized per-round FLOPs and wall-clock \
                 (FedTiny, {}, ResNet18)",
                profile.name()
            ),
            [
                "density",
                "analytic_flops",
                "realized_flops",
                "train_wall_s",
            ],
        );
        for &d in &densities {
            let mut row = vec![format!("{d}")];
            for &m in &methods {
                let r = run_method(&env, &spec, m, d);
                if m == Method::FedTiny {
                    cost_table.row(vec![
                        format!("{d}"),
                        format!("{:.3e}", r.max_round_flops),
                        format!("{:.3e}", r.realized_round_flops),
                        format!("{:.2}", r.train_wall_secs),
                    ]);
                }
                row.push(acc(r.accuracy));
            }
            table.row(row);
        }
        table.print();
        cost_table.print();
    }
    println!(
        "\npaper shape: FedTiny dominates for d < 1e-2; SNIP collapses first; \
         SynFlow/FedDST degrade gracefully; PruneFL stays accurate but pays ~0.34x dense FLOPs."
    );
}

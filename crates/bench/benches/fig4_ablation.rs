//! Figure 4: ablation of FedTiny's two modules on CIFAR-10 with VGG11.
//!
//! Arms: vanilla selection; adaptive BN selection only; vanilla selection +
//! progressive pruning; full FedTiny. Paper shape: each module alone helps;
//! progressive pruning matches FedTiny at high density but collapses without
//! adaptive BN selection at low density; the combination wins everywhere.

use ft_bench::table::acc;
use ft_bench::{run_method, Method, Scale, Table};
use ft_data::DatasetProfile;

fn main() {
    let scale = Scale::from_env();
    let env = scale.env(DatasetProfile::Cifar10, 5);
    let spec = scale.vgg();
    let arms = Method::ABLATION;

    let mut header = vec!["density"];
    header.extend(arms.map(Method::name));
    let mut table = Table::new("Fig. 4 — module ablation (VGG11, CIFAR-10)", header);

    for &d in &scale.density_grid() {
        let mut row = vec![format!("{d}")];
        for &m in &arms {
            let r = run_method(&env, &spec, m, d);
            row.push(acc(r.accuracy));
        }
        table.row(row);
    }
    table.print();
    println!(
        "\npaper shape: vanilla < adaptive-BN-only and vanilla < vanilla+progressive; \
         vanilla+progressive ~ FedTiny at high density but drops sharply at low density; \
         FedTiny best overall."
    );
}

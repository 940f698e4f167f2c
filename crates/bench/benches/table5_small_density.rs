//! Table V: pruned ResNet18 across densities versus the dense small model
//! on CIFAR-10.
//!
//! Paper shape: the small model's accuracy is density-independent, so it
//! overtakes weak pruning methods in the extreme-sparsity regime (it beats
//! SynFlow/PruneFL at d = 0.001) while FedTiny stays ahead or close.

use ft_bench::table::acc;
use ft_bench::{run_method, Method, Scale, Table};
use ft_data::DatasetProfile;

fn main() {
    let scale = Scale::from_env();
    let env = scale.env(DatasetProfile::Cifar10, 11);
    let spec = scale.resnet();
    let densities = match scale.kind {
        ft_bench::ScaleKind::Paper => vec![0.01, 0.005, 0.003, 0.001],
        _ => scale.density_grid(),
    };
    let methods = [
        Method::SynFlow,
        Method::PruneFl,
        Method::SmallModel,
        Method::FedTiny,
    ];

    let mut header = vec!["method".to_string()];
    header.extend(densities.iter().map(|d| format!("d={d}")));
    let mut table = Table::new(
        "Table V — ResNet18 vs small model across densities (CIFAR-10)",
        header,
    );
    for &m in &methods {
        let mut row = vec![m.name().to_string()];
        for &d in &densities {
            let r = run_method(&env, &spec, m, d);
            row.push(acc(r.accuracy));
        }
        table.row(row);
    }
    table.print();
    println!(
        "\npaper reference: SynFlow/PruneFL fall off a cliff at d=0.001 (0.286/0.296) where \
         the small model holds 0.6158; FedTiny reaches 0.6311 at d=0.001 and wins above it."
    );
}

//! Table IV: pruned ResNet18 (1% density at paper scale) versus a dense
//! small 3-conv model with a comparable parameter count, across all four
//! dataset profiles.
//!
//! Paper shape: the small dense model is competitive with the at-init
//! baselines but FedTiny's pruned ResNet18 beats it on every dataset.

use ft_bench::table::acc;
use ft_bench::{run_method, Method, Scale, Table};
use ft_data::DatasetProfile;

fn main() {
    let scale = Scale::from_env();
    let spec = scale.resnet();
    let d = match scale.kind {
        ft_bench::ScaleKind::Paper => 0.01,
        _ => *scale.table_densities().last().expect("nonempty"),
    };
    let methods = [
        Method::SynFlow,
        Method::PruneFl,
        Method::SmallModel,
        Method::FedTiny,
    ];
    let profiles = [
        DatasetProfile::Cifar10,
        DatasetProfile::Cinic10,
        DatasetProfile::Svhn,
        DatasetProfile::Cifar100,
    ];

    let mut header = vec!["method"];
    header.extend(profiles.map(|p| p.name()));
    let mut table = Table::new(
        &format!("Table IV — ResNet18 at d={d} vs small dense model"),
        header,
    );
    for &m in &methods {
        let mut row = vec![m.name().to_string()];
        for &p in &profiles {
            let env = scale.env(p, 10);
            let r = run_method(&env, &spec, m, d);
            row.push(acc(r.accuracy));
        }
        table.row(row);
    }
    table.print();
    println!(
        "\npaper reference: FedTiny 0.8523/0.6712/0.8826/0.4865 beats the small model \
         0.8019/0.5578/0.8395/0.4277 on every dataset."
    );
}

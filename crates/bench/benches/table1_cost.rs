//! Table I: top-1 accuracy, max per-round training FLOPs (as a multiple of
//! dense), and device memory footprint for every method on ResNet18 and
//! VGG11 (CIFAR-10 profile).
//!
//! Paper rows to reproduce in shape: FedTiny matches the cheapest methods'
//! FLOPs/memory while beating every baseline's accuracy; PruneFL pays ~0.34×
//! FLOPs and ~0.5× memory; LotteryFL pays full dense cost.

use ft_bench::table::{acc, factor, mb};
use ft_bench::{run_method, Method, Scale, Table};
use ft_data::DatasetProfile;

fn main() {
    let scale = Scale::from_env();
    let env = scale.env(DatasetProfile::Cifar10, 4);

    for (model_name, spec) in [("ResNet18", scale.resnet()), ("VGG11", scale.vgg())] {
        let mut table = Table::new(
            &format!("Table I — accuracy and training cost ({model_name}, CIFAR-10)"),
            ["density", "method", "top1", "max_flops", "memory"],
        );
        // Dense FedAvg reference first (density 1 row of the paper).
        let dense = run_method(&env, &spec, Method::FedAvg, 1.0);
        table.row(vec![
            "1".into(),
            "fedavg".into(),
            acc(dense.accuracy),
            format!("1x({:.2e})", dense.max_round_flops),
            mb(dense.memory_bytes),
        ]);
        let methods = [
            Method::FlPqsu,
            Method::Snip,
            Method::SynFlow,
            Method::PruneFl,
            Method::FedDst,
            Method::LotteryFl,
            Method::FedTiny,
        ];
        for &d in &scale.table_densities() {
            for &m in &methods {
                let r = run_method(&env, &spec, m, d);
                table.row(vec![
                    format!("{d}"),
                    m.name().into(),
                    acc(r.accuracy),
                    factor(r.max_round_flops, dense.max_round_flops),
                    mb(r.memory_bytes),
                ]);
            }
        }
        table.print();
    }
    println!(
        "\npaper shape @d=0.01 (ResNet18): FedTiny 0.8523 @ 0.014x/2.79MB; best baseline \
         (PruneFL) 0.8262 @ 0.34x/46.58MB; LotteryFL 1x/90.91MB."
    );
}

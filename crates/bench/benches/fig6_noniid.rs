//! Figure 6: robustness to data heterogeneity — top-1 accuracy of SynFlow,
//! PruneFL and FedTiny as the Dirichlet α decreases (lower α = more
//! non-iid), ResNet18 on CIFAR-10 at 1% density (lab scale uses its own
//! density grid's low point).
//!
//! Paper shape: baselines degrade as α falls; FedTiny's BN-informed
//! selection keeps it on top at every α.

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
    let alphas = [0.3f64, 0.5, 0.7, 1.0];
    let methods = [Method::SynFlow, Method::PruneFl, Method::FedTiny];

    let mut header = vec!["alpha"];
    header.extend(methods.map(Method::name));
    let mut table = Table::new(
        &format!("Fig. 6 — accuracy vs non-iid degree (ResNet18, CIFAR-10, d={d})"),
        header,
    );
    for &alpha in &alphas {
        let env = scale.env_with_alpha(DatasetProfile::Cifar10, alpha, 9);
        let mut row = vec![format!("{alpha}")];
        for &m in &methods {
            let r = run_method(&env, &spec, m, d);
            row.push(acc(r.accuracy));
        }
        table.row(row);
    }
    table.print();
    println!(
        "\npaper shape: all methods improve as alpha grows (more iid); FedTiny stays best \
         and degrades the least at low alpha."
    );
}

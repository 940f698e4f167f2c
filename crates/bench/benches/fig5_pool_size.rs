//! Figure 5: candidate pool size vs accuracy (left) and vs communication
//! cost of the adaptive BN selection module (right), VGG11 on CIFAR-10.
//!
//! Paper shape: accuracy saturates once `density × pool_size ≈ 0.1`
//! (the `C* = 0.1/d` rule), while the selection communication grows linearly
//! with the pool size.

use fedtiny::run_fedtiny;
use ft_bench::methods::fedtiny_config;
use ft_bench::table::{acc, mb};
use ft_bench::{Scale, Table};
use ft_data::DatasetProfile;

fn main() {
    let scale = Scale::from_env();
    let env = scale.env(DatasetProfile::Cifar10, 6);
    let spec = scale.vgg();
    let densities = scale.table_densities();
    let pools: &[usize] = match scale.kind {
        ft_bench::ScaleKind::Smoke => &[2, 4],
        _ => &[2, 4, 8, 16],
    };

    let mut table = Table::new(
        "Fig. 5 — pool size vs accuracy and selection communication (VGG11, CIFAR-10)",
        ["density", "pool", "d*pool", "top1", "selection_comm"],
    );
    for &d in &densities {
        for &c in pools {
            let mut cfg = fedtiny_config(&env, &spec, d);
            cfg.pool_size = c;
            let r = run_fedtiny(&env, &cfg);
            table.row(vec![
                format!("{d}"),
                format!("{c}"),
                format!("{:.3}", d * c as f32),
                acc(r.accuracy),
                mb(r.comm_bytes),
            ]);
        }
    }
    table.print();
    println!(
        "\npaper shape: accuracy saturates near d*pool = 0.1 (the C* = 0.1/d line); \
         communication grows linearly in the pool size and stays well under one \
         full-size model download for small pools."
    );
}

//! Communication compression: accuracy vs *measured* upload bytes for the
//! four wire codecs at two mask densities, printed next to the analytic
//! Fig. 5 numbers.
//!
//! This is the bench that backs the headline wire claims:
//!
//! - `MaskCsr`'s measured bytes track the analytic `sparse_model_bytes`
//!   formula (shared-mask form) at matched density;
//! - `QuantInt8` and `TopK` reach roughly dense-FedAvg accuracy at ≥ 3x
//!   fewer measured upload bytes.
//!
//! ```bash
//! FT_SCALE=smoke cargo bench -p ft-bench --bench fig_comm_compression  # wiring check
//! cargo bench -p ft-bench --bench fig_comm_compression                 # lab scale
//! ```

use ft_bench::table::{acc, mb};
use ft_bench::{Scale, Table};
use ft_data::DatasetProfile;
use ft_fl::Codec;
use ft_metrics::{densities_from_mask, sparse_model_bytes_with, ExtraMemory, IndexWidth};
use ft_nn::sparse_layout;
use ft_pruning::{l1_oneshot_mask, run_with_fixed_mask};
use ft_sparse::Mask;

fn main() {
    let scale = Scale::from_env();
    let env = scale.env(DatasetProfile::Cifar10, 23);
    let spec = scale.small_cnn();
    let densities: &[f32] = &[0.3, 0.05];
    let codecs = [
        Codec::Dense,
        Codec::MaskCsr,
        Codec::QuantInt8,
        Codec::TopK {
            k_frac: 0.1,
            error_feedback: true,
        },
    ];

    // The dense-FedAvg reference: full mask, dense wire.
    let dense_ref = {
        let model = env.build_model(&spec);
        let mask = Mask::ones(&sparse_layout(model.as_ref()));
        drop(model);
        let env = env.clone().with_codec(Codec::Dense);
        run_with_fixed_mask(&env, &spec, &mask, "fedavg", ExtraMemory::None, 0)
    };

    let mut table = Table::new(
        "Communication compression — accuracy vs measured upload bytes (small CNN, CIFAR-10)",
        [
            "density",
            "codec",
            "top1",
            "upload_meas",
            "analytic_fig5",
            "analytic_shared",
            "vs_dense",
        ],
    );
    table.row(vec![
        "1.0".into(),
        "dense".into(),
        acc(dense_ref.accuracy),
        mb(dense_ref.payload_upload_bytes),
        mb(dense_ref.comm_bytes / 2.0),
        "-".into(),
        "1.0x".into(),
    ]);

    for &d in densities {
        let model = env.build_model(&spec);
        let mask = l1_oneshot_mask(model.as_ref(), d);
        let arch = model.arch();
        drop(model);
        let layer_densities = densities_from_mask(&mask);
        let rounds = env.cfg.rounds as f64;
        let analytic_fig5 = sparse_model_bytes_with(&arch, &layer_densities, IndexWidth::PerLayer);
        let analytic_shared = sparse_model_bytes_with(&arch, &layer_densities, IndexWidth::Shared);
        for codec in codecs {
            let env = env.clone().with_codec(codec);
            let r = run_with_fixed_mask(&env, &spec, &mask, codec.name(), ExtraMemory::None, 0);
            let per_round_upload = r.payload_upload_bytes / rounds;
            let saving = dense_ref.payload_upload_bytes / r.payload_upload_bytes.max(1.0);
            table.row(vec![
                format!("{d}"),
                codec.name().into(),
                acc(r.accuracy),
                mb(per_round_upload * rounds),
                mb(analytic_fig5 * rounds),
                mb(analytic_shared * rounds),
                format!("{saving:.1}x"),
            ]);
        }
    }
    table.print();
    println!(
        "\nexpected shape: mask_csr's measured uploads sit within 25% of the shared-mask\n\
         analytic column (and below the classic Fig. 5 value+index column); quant_int8\n\
         and top_k reach roughly the dense accuracy at >= 3x fewer measured upload bytes.\n\
         All byte columns are whole-run totals ({} rounds).",
        env.cfg.rounds
    );
}

//! Communication compression: accuracy vs *measured* upload bytes for the
//! four wire codecs on one fixed L1 mask at two densities, printed next to
//! the analytic Fig. 5 numbers. No [`ft_bench::Method`] runs a mask under a
//! chosen codec, so the runs are a loop here rather than grid rows.
//!
//! This is the bench that backs the headline wire claims, at every density:
//!
//! - `MaskCsr`'s measured uploads sit within [`CSR_TRACKING`] of the
//!   analytic `sparse_model_bytes` formula in its shared-mask form;
//! - `QuantInt8` and `TopK` upload at least [`LOSSY_SAVING`]× fewer bytes
//!   than dense FedAvg, and read no worse than the same mask over the dense
//!   wire.
//!
//! ```bash
//! FT_SCALE=smoke cargo bench -p ft-bench --bench fig_comm_compression  # wiring check
//! cargo bench -p ft-bench --bench fig_comm_compression                 # lab scale
//! ```

use ft_bench::claims::{nearest_class_mean_accuracy, no_worse, ACCURACY_TOLERANCE};
use ft_bench::table::{acc, mb};
use ft_bench::{Claim, Report, Scale, Table};
use ft_data::DatasetProfile;
use ft_fl::Codec;
use ft_metrics::{densities_from_mask, sparse_model_bytes_with, ExtraMemory, IndexWidth};
use ft_nn::sparse_layout;
use ft_pruning::{l1_oneshot_mask, run_with_fixed_mask};
use ft_sparse::Mask;

/// How far `MaskCsr`'s measured uploads may stray from the shared-mask
/// analytic bytes, as a fraction of the latter.
const CSR_TRACKING: f64 = 0.25;

/// The upload saving over dense FedAvg the lossy codecs must reach.
const LOSSY_SAVING: f64 = 3.0;

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

    let mut runs = Vec::new();
    for &d in densities {
        let model = env.build_model(&spec);
        let mask = l1_oneshot_mask(model.as_ref(), d);
        let arch = model.arch();
        drop(model);
        let layer_densities = densities_from_mask(&mask);
        let rounds = env.cfg.rounds as f64;
        let analytic_fig5 = sparse_model_bytes_with(&arch, &layer_densities, IndexWidth::PerLayer);
        let analytic_shared = sparse_model_bytes_with(&arch, &layer_densities, IndexWidth::Shared);
        let mut records = Vec::new();
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
            records.push(r);
        }
        runs.push((d, analytic_shared * rounds, records));
    }
    let (mut tracking, mut savings, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
    for (d, shared, records) in &runs {
        let (dense, csr) = (&records[0], &records[1]);
        let tracks = csr.payload_upload_bytes / shared;
        tracking.push((format!("d={d} mask_csr/analytic_shared"), tracks));
        for r in &records[2..] {
            let saving = dense_ref.payload_upload_bytes / r.payload_upload_bytes.max(1.0);
            savings.push((format!("d={d} {} saving", r.method), saving));
            pairs.push((
                (format!("d={d} {}", r.method), r),
                (format!("d={d} dense"), dense),
            ));
        }
    }
    let tracks = tracking
        .iter()
        .all(|(_, t)| (t - 1.0).abs() <= CSR_TRACKING);
    let saves = savings.iter().all(|&(_, s)| s >= LOSSY_SAVING);
    let artifact = "Communication compression";
    let (id_track, id_save) = ("comm.mask_csr_tracks_analytic", "comm.lossy_codecs_save_3x");
    Report {
        tables: vec![table],
        claims: vec![
            Claim::judged(id_track, artifact, tracking, CSR_TRACKING, tracks),
            Claim::judged(id_save, artifact, savings, 0.0, saves),
            no_worse(
                "comm.lossy_codecs_keep_accuracy",
                artifact,
                nearest_class_mean_accuracy(&env),
                ACCURACY_TOLERANCE,
                &pairs,
            ),
        ],
    }
    .print();
}

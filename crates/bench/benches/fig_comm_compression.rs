//! Communication compression: accuracy vs *measured* upload bytes for the
//! four wire codecs on one fixed L1 mask at two densities, printed next to
//! the analytic Fig. 5 numbers. The runs are one grid: FL-PQSU (whose mask
//! is that one-shot L1 mask) under each codec, and dense FedAvg.
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
use ft_bench::{run_grid, Claim, Method, Report, Row, Scale, Table};
use ft_data::DatasetProfile;
use ft_fl::Codec;
use ft_metrics::{densities_from_mask, sparse_model_bytes_with, IndexWidth};
use ft_pruning::l1_oneshot_mask;

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
    let row = |method, d, codec| {
        let mut row = Row::method(&env, spec, method, d);
        row.cfg.codec = codec;
        row.cfg.eval_every = 0;
        row
    };
    // The dense-FedAvg reference (full mask, dense wire) first.
    let rows: Vec<Row> = std::iter::once(row(Method::FedAvg, 1.0, Codec::Dense))
        .chain((densities.iter()).flat_map(|&d| codecs.map(|codec| row(Method::FlPqsu, d, codec))))
        .collect();
    let records = run_grid(&rows);
    let (dense_ref, per_density) = records.split_first().expect("the dense row");

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

    let (mut tracking, mut savings, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
    for (&d, records) in densities.iter().zip(per_density.chunks(codecs.len())) {
        let model = env.build_model(&spec);
        let layer_densities = densities_from_mask(&l1_oneshot_mask(model.as_ref(), d));
        let rounds = env.cfg.rounds as f64;
        let [fig5, shared] = [IndexWidth::PerLayer, IndexWidth::Shared]
            .map(|width| sparse_model_bytes_with(&model.arch(), &layer_densities, width) * rounds);
        for (j, r) in records.iter().enumerate() {
            let saving = dense_ref.payload_upload_bytes / r.payload_upload_bytes.max(1.0);
            table.row(vec![
                format!("{d}"),
                r.codec.clone(),
                acc(r.accuracy),
                mb(r.payload_upload_bytes),
                mb(fig5),
                mb(shared),
                format!("{saving:.1}x"),
            ]);
            // The lossy codecs, against the same mask over the dense wire.
            if j >= 2 {
                savings.push((format!("d={d} {} saving", r.codec), saving));
                let dense = (format!("d={d} dense"), &records[0]);
                pairs.push(((format!("d={d} {}", r.codec), r), dense));
            }
        }
        let tracks = records[1].payload_upload_bytes / shared;
        tracking.push((format!("d={d} mask_csr/analytic_shared"), tracks));
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

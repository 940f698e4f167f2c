//! The layer pass: after the traced run, every lower layer is called in
//! isolation — through its public functions only — on the run's final
//! model, mask and fleet, so the opaque `fl.server.round` spans of the run
//! can be attributed outside-in.

use crate::measure::{median, quantile, time_repeated};
use crate::trace::Tracer;
use crate::workloads::{Final, Inputs};
use ft_data::BatchBuf;
use ft_fl::{
    evaluate, train_devices_parallel, train_one_device, AggScratch, DeviceUpdate, Runtime, WireSpec,
};
use ft_nn::loss::softmax_cross_entropy_into;
use ft_nn::optim::Sgd;
use ft_nn::{flat_params, sparse_layout, wire_ctx, LayerArch, Mode, Model};
use ft_sparse::{magnitude_mask, uniform_density_vector, CsrMatrix, PayloadView};
use ft_tensor::{matmul_into, sddmm_nt_into, spmm_into, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Batch the `nn.*` and `tensor.*` rows are taken at (the run's own).
const BATCH: usize = 32;

pub type Values = BTreeMap<&'static str, f64>;

fn median_ms(samples: &[f64]) -> f64 {
    median(samples) * 1e3
}

fn median_us(samples: &[f64]) -> f64 {
    median(samples) * 1e6
}

/// Deterministic filler for kernel operands (values in `[-1, 1)`).
fn filler(len: usize, mut state: u64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// GEMM shape `[m, k] × [k, n]` and mask layer of the prunable layer with
/// the most multiply-accumulates at batch [`BATCH`].
fn heaviest_prunable_layer(model: &dyn Model) -> Option<(usize, usize, usize, usize)> {
    model
        .arch()
        .layers
        .iter()
        .filter_map(|layer| match *layer {
            LayerArch::Conv {
                in_c,
                out_c,
                kernel,
                out_h,
                out_w,
                prunable_idx: Some(l),
            } => Some((l, out_c, in_c * kernel * kernel, BATCH * out_h * out_w)),
            LayerArch::Linear {
                in_dim,
                out_dim,
                prunable_idx: Some(l),
            } => Some((l, out_dim, in_dim, BATCH)),
            _ => None,
        })
        .max_by_key(|&(_, m, k, n)| m * k * n)
}

pub fn layer_pass(inputs: &Inputs, fin: &Final, tracer: &Tracer) -> Values {
    let mut v = Values::new();
    let root = tracer.open("bench.layers", None);
    let cfg = &inputs.cfg;
    let model = fin.model.as_ref();
    let mask = &fin.mask;
    let pool = Runtime::new(cfg.threads);
    let sequential = Runtime::sequential();

    // --- data, runtime
    let gen = tracer.span("data.generate", None, || {
        time_repeated(3, 0.05, || {
            black_box(inputs.synth.generate());
        })
    });
    v.insert("data.generate_ms", median_ms(&gen));
    let scatter = tracer.span("runtime.scatter", None, || {
        time_repeated(200, 0.02, || {
            pool.scatter(vec![(); pool.threads()], black_box);
        })
    });
    v.insert("runtime.scatter_us", median_us(&scatter));

    // --- fl.train: every device once, alone, on the final global. The
    // round index lies past the run, so the RNG stream is a fresh one.
    let round = cfg.rounds;
    let ctx = wire_ctx(model, mask, 0);
    let wire = WireSpec {
        codec: cfg.codec,
        ctx: &ctx,
        peer_epoch: 0,
    };
    let feedback = cfg.codec.uses_error_feedback();
    let mut residuals = vec![Vec::new(); fin.env.parts.len()];
    let mut device_ms = Vec::with_capacity(fin.env.parts.len());
    let mut updates: Vec<DeviceUpdate> = Vec::with_capacity(fin.env.parts.len());
    for (k, (data, residual)) in fin.env.parts.iter().zip(residuals.iter_mut()).enumerate() {
        let started = Instant::now();
        let update = tracer.span("fl.train.device", Some(k), || {
            train_one_device(
                model,
                data,
                Some(mask),
                cfg,
                round,
                k,
                0,
                &wire,
                feedback.then_some(residual),
                &sequential,
            )
        });
        device_ms.push(started.elapsed().as_secs_f64() * 1e3);
        updates.push(update);
    }
    v.insert("fl.train.device_ms_p50", median(&device_ms));
    v.insert("fl.train.device_ms_max", quantile(&device_ms, 1.0));
    v.insert("fl.train.device_ms_sum", device_ms.iter().sum());

    let cohort_secs = |rt: &Runtime| {
        let mut residuals = vec![Vec::new(); fin.env.parts.len()];
        let started = Instant::now();
        black_box(tracer.span("fl.train.cohort", None, || {
            train_devices_parallel(
                model,
                &fin.env.parts,
                Some(mask),
                cfg,
                round,
                &wire,
                &mut residuals,
                rt,
            )
        }));
        started.elapsed().as_secs_f64()
    };
    let speedup = if pool.is_parallel() {
        let one = cohort_secs(&sequential);
        one / cohort_secs(&pool)
    } else {
        1.0
    };
    v.insert("fl.train.par_speedup", speedup);

    // --- nn: one training step on one batch under the final mask, with
    // the sequential kernels a fanned-out device runs on.
    let clones = tracer.span("nn.clone", None, || {
        time_repeated(3, 0.05, || {
            black_box(model.clone_model());
        })
    });
    v.insert("nn.clone_ms", median_ms(&clones));
    let mut step_model = model.clone_model();
    step_model.set_runtime(sequential);
    let mut batch = BatchBuf::default();
    fin.env
        .test
        .batch_range_into(0, BATCH.min(fin.env.test.len()), &mut batch);
    let mut sgd = Sgd::new(cfg.sgd);
    let (mut logits, mut grad) = (Tensor::default(), Tensor::default());
    let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
    let nn_started = Instant::now();
    // One more step than is kept: the first sizes the layer arenas.
    while fwd.len() < 4 || nn_started.elapsed().as_secs_f64() < 0.3 {
        if fwd.len() == 1 {
            step_model.reset_realized_flops();
        }
        let t = Instant::now();
        tracer.span("nn.forward", None, || {
            step_model.forward_into(&batch.images, &mut logits, Mode::Train)
        });
        fwd.push(t.elapsed().as_secs_f64());
        let _ = softmax_cross_entropy_into(&logits, &batch.labels, &mut grad);
        let t = Instant::now();
        tracer.span("nn.backward", None, || step_model.backward_scratch(&grad));
        bwd.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        tracer.span("nn.step", None, || {
            sgd.step(step_model.as_mut(), Some(mask));
            step_model.zero_grad();
        });
        step.push(t.elapsed().as_secs_f64());
    }
    for samples in [&mut fwd, &mut bwd, &mut step] {
        samples.remove(0);
    }
    let busy: f64 = fwd.iter().sum::<f64>() + bwd.iter().sum::<f64>();
    v.insert("nn.forward_ms", median_ms(&fwd));
    v.insert("nn.backward_ms", median_ms(&bwd));
    v.insert("nn.step_ms", median_ms(&step));
    v.insert(
        "nn.realized_gflops",
        step_model.realized_flops() / busy / 1e9,
    );
    let mut eval_model = model.clone_model();
    eval_model.set_runtime(pool);
    let evals = tracer.span("nn.eval", None, || {
        time_repeated(2, 0.1, || {
            black_box(evaluate(eval_model.as_mut(), &fin.env.test));
        })
    });
    v.insert("nn.eval_ms", median_ms(&evals));

    // --- tensor: the public kernels at the heaviest prunable layer's GEMM
    // shape, on its real weights and mask.
    for name in [
        "tensor.matmul_gflops",
        "tensor.spmm_gflops",
        "tensor.sddmm_gflops",
    ] {
        v.insert(name, 0.0);
    }
    let params = model.params();
    let prunable: Vec<&[f32]> = params
        .iter()
        .filter(|p| p.prunable)
        .map(|p| p.data.data())
        .collect();
    if let Some((l, m, k, n)) = heaviest_prunable_layer(model) {
        let weights = prunable[l];
        assert_eq!(weights.len(), m * k, "arch entry disagrees with its weight");
        let a = Tensor::from_vec(weights.to_vec(), &[m, k]);
        let b = Tensor::from_vec(filler(k * n, 0x9e37_79b9_7f4a_7c15), &[k, n]);
        let dy = Tensor::from_vec(filler(m * n, 0xd1b5_4a32_d192_ed03), &[m, n]);
        let mut c = Tensor::zeros(&[m, n]);
        let csr = CsrMatrix::from_mask_values(mask.layer(l), weights, m, k);
        let gflops = |flops: usize, samples: &[f64]| flops as f64 / median(samples) / 1e9;
        let t = tracer.span("tensor.matmul", None, || {
            time_repeated(3, 0.1, || matmul_into(&a, &b, &mut c))
        });
        v.insert("tensor.matmul_gflops", gflops(2 * m * k * n, &t));
        if csr.nnz() > 0 {
            let t = tracer.span("tensor.spmm", None, || {
                time_repeated(3, 0.1, || spmm_into(csr.view(), &b, &mut c))
            });
            v.insert("tensor.spmm_gflops", gflops(2 * csr.nnz() * n, &t));
            let mut vals = vec![0.0f32; csr.nnz()];
            let t = tracer.span("tensor.sddmm", None, || {
                time_repeated(3, 0.1, || sddmm_nt_into(csr.view(), &dy, &b, &mut vals))
            });
            v.insert("tensor.sddmm_gflops", gflops(2 * csr.nnz() * n, &t));
        }
        black_box(&c);
    }

    // --- sparse: the run's codec on a real device delta.
    let delta = updates[0].payload.decode(&ctx);
    let mut residual = Vec::new();
    let encodes = tracer.span("sparse.encode", None, || {
        time_repeated(5, 0.05, || {
            black_box(
                cfg.codec
                    .encode(&delta, &ctx, 0, feedback.then_some(&mut residual)),
            );
        })
    });
    v.insert("sparse.encode_us", median_us(&encodes));
    let payload = &updates[0].payload;
    let to_bytes = tracer.span("sparse.to_bytes", None, || {
        time_repeated(5, 0.05, || {
            black_box(payload.to_bytes(&ctx));
        })
    });
    v.insert("sparse.to_bytes_us", median_us(&to_bytes));
    let bytes = payload.to_bytes(&ctx);
    let parses = tracer.span("sparse.parse", None, || {
        time_repeated(5, 0.05, || {
            black_box(PayloadView::parse(&bytes, &ctx).expect("own bytes parse"));
        })
    });
    v.insert("sparse.parse_us", median_us(&parses));
    v.insert("sparse.payload_bytes", bytes.len() as f64);
    let layout = sparse_layout(model);
    let density = inputs.density_target().unwrap_or_else(|| mask.density());
    let densities = uniform_density_vector(&layout, density);
    let masks = tracer.span("sparse.magnitude_mask", None, || {
        time_repeated(3, 0.1, || {
            black_box(magnitude_mask(&layout, &prunable, &densities));
        })
    });
    v.insert("sparse.magnitude_mask_ms", median_ms(&masks));

    // --- fl.aggregate: the run's rule over one server step's payloads.
    let cohort: Vec<(&ft_sparse::Payload, f64)> = updates
        .iter()
        .take(inputs.devices_per_step())
        .map(|u| (&u.payload, u.samples as f64))
        .collect();
    let anchor = flat_params(model);
    let mut scratch = AggScratch::new();
    let aggregates = tracer.span("fl.aggregate.into", None, || {
        time_repeated(5, 0.1, || {
            black_box(
                cfg.aggregator
                    .aggregate_into(&cohort, &anchor, &ctx, &pool, &mut scratch)
                    .params
                    .map(<[f32]>::len),
            );
        })
    });
    v.insert("fl.aggregate.into_us", median_us(&aggregates));
    v.insert(
        "fl.aggregate.mcoords_per_s",
        (cohort.len() * anchor.len()) as f64 / median(&aggregates) / 1e6,
    );

    tracer.close(root);
    v
}

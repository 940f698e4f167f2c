//! Criterion micro-benchmarks for the numerical substrate: convolution
//! forward/backward, the `O(k)` top-k buffer vs a full sort (the ablation
//! behind progressive pruning's `O(a)` device buffer), masked SGD steps, and
//! BN-adaptation forward passes. The last target writes the
//! persisted trajectory (`BENCH_micro_ops.json`) that `bench_check` gates:
//! every record it holds times a kernel or a step the system runs, and every
//! ratio a gate reads pairs two records of this one run.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ft_bench::{allocated_bytes, measure_ns, BenchReport};
use ft_data::Dataset;
use ft_fl::{local_train_scratch, TrainScratch};
use ft_nn::loss::softmax_cross_entropy_into;
use ft_nn::models::{ResNet18, SmallCnn};
use ft_nn::optim::{Sgd, SgdConfig};
use ft_nn::{apply_mask, sparse_layout, Mode, Model};
use ft_runtime::Runtime;
use ft_sparse::{
    magnitude_mask, uniform_density_vector, CsrMatrix, Mask, SparseLayout, TopKBuffer,
};
use ft_tensor::oracle::{self, col2im_ld, im2col_batched, matmul_nt_seg_into};
use ft_tensor::{
    bn_backward, bn_batch_stats, bn_normalize, dconv_backward_rt, dconv_forward_rt, matmul_into,
    matmul_into_rt, matmul_tn_into_rt, spconv_backward_rt, spconv_forward_rt, ConvBufs, ConvGeom,
    LaneTensor, SpConvIndex, Tensor,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

// The train-step records pin an *allocation* budget, which only a counting
// global allocator can observe. Counting overhead is a relaxed atomic add
// per allocation — negligible against the timed kernels.
#[global_allocator]
static ALLOC: ft_bench::CountingAlloc = ft_bench::CountingAlloc;

fn conv_benches(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut model = SmallCnn::new(&mut rng, 8, 10, 3, 16);
    let x = ft_tensor::normal(&mut rng, &[8, 3, 16, 16], 0.0, 1.0);
    c.bench_function("small_cnn_forward_b8", |b| {
        b.iter(|| black_box(model.forward(&x, Mode::Train)))
    });
    c.bench_function("small_cnn_forward_backward_b8", |b| {
        b.iter(|| {
            let y = model.forward(&x, Mode::Train);
            model.backward_scratch(&Tensor::ones(y.shape()));
            model.zero_grad();
        })
    });
}

fn topk_benches(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let values: Vec<f32> = (0..100_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let k = 512;
    c.bench_function("topk_buffer_100k_k512", |b| {
        b.iter(|| {
            let mut buf = TopKBuffer::new(k);
            buf.extend_from_slice(black_box(&values));
            black_box(buf.into_sorted())
        })
    });
    c.bench_function("full_sort_100k_k512", |b| {
        b.iter_batched(
            || values.iter().cloned().enumerate().collect::<Vec<_>>(),
            |mut all| {
                all.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite"));
                all.truncate(k);
                black_box(all)
            },
            BatchSize::LargeInput,
        )
    });
}

fn sgd_benches(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut model = SmallCnn::new(&mut rng, 8, 10, 3, 16);
    let layout = ft_nn::sparse_layout(&model);
    let mut mask = Mask::ones(&layout);
    for l in 0..layout.num_layers() {
        for i in (0..layout.layer(l).len).step_by(2) {
            mask.set(l, i, false);
        }
    }
    let mut sgd = Sgd::new(SgdConfig::default());
    c.bench_function("masked_sgd_step", |b| {
        b.iter(|| sgd.step(black_box(&mut model), Some(&mask)))
    });
}

fn bn_adapt_benches(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut model = SmallCnn::new(&mut rng, 8, 10, 3, 16);
    model.set_bn_momentum(1.0);
    let x = ft_tensor::normal(&mut rng, &[32, 3, 16, 16], 0.0, 1.0);
    c.bench_function("bn_adaptation_pass_b32", |b| {
        b.iter(|| black_box(model.forward(&x, Mode::Train)))
    });
}

fn mask_benches(c: &mut Criterion) {
    let layout = SparseLayout::new(vec![("w".into(), 1_000_000)]);
    let mask = Mask::ones(&layout);
    c.bench_function("mask_density_1m", |b| b.iter(|| black_box(mask.density())));
}

/// The acceptance check for the sparse execution engine: a full training
/// epoch (forward + backward + masked SGD) through the SmallCnn profile,
/// dense path vs sparse path, at and below the crossover. The dense twin is
/// the same masked model with its mask records cleared.
fn sparse_epoch_benches(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let x = ft_tensor::normal(&mut rng, &[16, 3, 16, 16], 0.0, 1.0);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();

    for density in [1.0f32, 0.5, 0.2, 0.05] {
        let mut model = SmallCnn::new(&mut ChaCha8Rng::seed_from_u64(6), 8, 10, 3, 16);
        let mask = apply_magnitude_mask(&mut model, density);

        for path in ["dense", "sparse"] {
            if density == 1.0 && path == "sparse" {
                continue; // identical to dense by construction
            }
            let mut m = model.clone();
            if path == "dense" {
                m.for_each_param_mut(&mut |p| p.mask_bits = None);
            }
            let mut sgd = Sgd::new(SgdConfig::default());
            c.bench_function(&format!("small_cnn_epoch_{path}_d{density}"), |b| {
                b.iter(|| {
                    let logits = m.forward(&x, Mode::Train);
                    let (_, grad) = ft_nn::loss::softmax_cross_entropy(&logits, &labels);
                    m.backward_scratch(&grad);
                    sgd.step(&mut m, Some(&mask));
                    m.zero_grad();
                })
            });
        }
    }
    println!("acceptance: at density <= 0.2 the sparse epoch must be measurably faster than dense");
}

/// Magnitude-prunes every prunable layer of `model` to `density`, applies
/// the mask and returns it.
fn apply_magnitude_mask(model: &mut dyn Model, density: f32) -> Mask {
    let layout = sparse_layout(model);
    let weights: Vec<&[f32]> = model
        .params()
        .into_iter()
        .filter(|p| p.prunable)
        .map(|p| p.data.data())
        .collect();
    let mask = magnitude_mask(&layout, &weights, &uniform_density_vector(&layout, density));
    drop(weights);
    apply_mask(model, &mask);
    mask
}

/// Median of interleaved timing samples (sorts in place).
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    v[v.len() / 2]
}

/// A random `[rows, cols]` dense tensor.
fn rand_dense(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(
        (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
        &[rows, cols],
    )
}

/// A random CSR matrix at `density` plus its mask-alive count.
fn rand_csr(rng: &mut ChaCha8Rng, rows: usize, cols: usize, density: f64) -> CsrMatrix {
    let mut mask = vec![false; rows * cols];
    let mut vals = vec![0.0f32; rows * cols];
    for (bit, v) in mask.iter_mut().zip(vals.iter_mut()) {
        if rng.gen_range(0.0f64..1.0) < density {
            *bit = true;
            *v = rng.gen_range(-1.0f32..1.0);
        }
    }
    CsrMatrix::from_mask_values(&mask, &vals, rows, cols)
}

/// Measures the training engine end to end and records `train_step` (the
/// batched alloc-free engine, SmallCnn, driven exactly like a device round)
/// at one worker thread: median ns per epoch, realized GFLOP/s, and — under
/// the counting allocator — allocator traffic per epoch, which `bench_check`
/// pins to zero bytes. (Throughput is gated on the benchmark's own model:
/// see [`resnet_step_records`].)
fn train_step_records(report: &mut BenchReport) {
    let (n_samples, batch, width, classes, in_c, side) =
        (256usize, 32usize, 8usize, 10usize, 3usize, 16usize);
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let images: Vec<f32> = (0..n_samples * in_c * side * side)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let labels: Vec<usize> = (0..n_samples).map(|i| i % classes).collect();
    let data = Dataset::new(images, labels, in_c, side, side, classes);
    let shape = format!("b{batch}x{in_c}x{side}x{side}");
    let alloc_rounds = 4u64;

    let mut model = SmallCnn::new(
        &mut ChaCha8Rng::seed_from_u64(22),
        width,
        classes,
        in_c,
        side,
    );
    model.set_runtime(Runtime::sequential());
    let mut sgd = Sgd::new(SgdConfig::default());
    let mut scratch = TrainScratch::default();
    let mut train_rng = ChaCha8Rng::seed_from_u64(23);
    let epoch =
        |model: &mut SmallCnn, sgd: &mut Sgd, scratch: &mut TrainScratch, rng: &mut ChaCha8Rng| {
            local_train_scratch(model, &data, None, 1, batch, sgd, rng, scratch);
        };
    // Realized MAC FLOPs of one epoch.
    model.reset_realized_flops();
    epoch(&mut model, &mut sgd, &mut scratch, &mut train_rng);
    let flops_per_epoch = model.realized_flops();
    // Steady-state allocation traffic: warm further, then count.
    epoch(&mut model, &mut sgd, &mut scratch, &mut train_rng);
    let before = allocated_bytes();
    for _ in 0..alloc_rounds {
        epoch(&mut model, &mut sgd, &mut scratch, &mut train_rng);
    }
    let alloc = (allocated_bytes() - before) as f64 / alloc_rounds as f64;

    let reps = if ft_bench::quick_mode() { 9usize } else { 21 };
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = std::time::Instant::now();
        epoch(&mut model, &mut sgd, &mut scratch, &mut train_rng);
        black_box(&model);
        times.push(t.elapsed().as_nanos() as f64);
    }
    let ns = median(&mut times);

    report.push("train_step", &shape, 1.0, 1, 1, ns, flops_per_epoch);
    report
        .records
        .last_mut()
        .expect("just pushed")
        .alloc_bytes_per_round = alloc;
    println!("train_step: {ns:.0} ns/epoch, {alloc:.1} B/epoch");
}

/// One device-side model at the benchmark's shape (ResNet18 width 0.25 on
/// 16×16 inputs, batch 32). Two allocator counts under the d = 0.05 mask,
/// which repeat exactly: `resnet_step_first_alloc_bytes` — cloning the model
/// and taking its first training step, i.e. every arena a fresh trainer
/// grows — and `resnet_step_steady_alloc_bytes`, the traffic of each later
/// step. And two `resnet_step` timings, density 0.05 and 1.0 (the same model
/// under an all-ones mask), steady steps interleaved so host drift hits both:
/// their ratio is "time tracks nnz" as a number, and the dense step's
/// GFLOP/s over the `dconv_fwd` record of this run is what a whole training
/// step keeps of its convolution kernel. `bench_check` gates all five.
fn resnet_step_records(report: &mut BenchReport) {
    let (batch, classes, in_c, side) = (32usize, 10usize, 3usize, 16usize);
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let fresh = ResNet18::new(&mut rng, 0.25, classes, in_c, side);
    let mut base = fresh.clone();
    let mask = apply_magnitude_mask(&mut base, 0.05);
    let x = ft_tensor::normal(&mut rng, &[batch, in_c, side, side], 0.0, 1.0);
    let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
    let shape = format!("b{batch}x{in_c}x{side}x{side}");

    let step = |model: &mut ResNet18,
                mask: &Mask,
                sgd: &mut Sgd,
                logits: &mut Tensor,
                grad: &mut Tensor| {
        model.forward_into(&x, logits, Mode::Train);
        let _ = softmax_cross_entropy_into(logits, &labels, grad);
        model.backward_scratch(grad);
        sgd.step(model, Some(mask));
        model.zero_grad();
    };

    let before = allocated_bytes();
    let mut model = base.clone();
    let mut sgd = Sgd::new(SgdConfig::default());
    let (mut logits, mut grad) = (Tensor::default(), Tensor::default());
    step(&mut model, &mask, &mut sgd, &mut logits, &mut grad);
    let first = (allocated_bytes() - before) as f64;

    let steady_steps = 4u32;
    let before = allocated_bytes();
    let t = std::time::Instant::now();
    for _ in 0..steady_steps {
        step(&mut model, &mask, &mut sgd, &mut logits, &mut grad);
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(steady_steps);
    let steady = (allocated_bytes() - before) as f64 / f64::from(steady_steps);

    // The masked step alone, repeated on one backward pass's gradients — of
    // a copy, which the repeated steps carry far from `model`'s weights.
    let mut stepped = model.clone();
    stepped.forward_into(&x, &mut logits, Mode::Train);
    let _ = softmax_cross_entropy_into(&logits, &labels, &mut grad);
    stepped.backward_scratch(&grad);
    let step_ns = measure_ns(|| {
        sgd.step(&mut stepped, Some(&mask));
        black_box(&stepped);
    });
    report.push("masked_sgd_step", &shape, 0.05, 1, 1, step_ns, 0.0);
    println!("masked_sgd_step {shape} d=0.05: {:.3} ms", step_ns / 1e6);

    report.push_count("resnet_step_first_alloc_bytes", &shape, 1, ns, first);
    report.push_count("resnet_step_steady_alloc_bytes", &shape, 1, ns, steady);
    println!(
        "resnet_step {shape} d=0.05: clone + first step {:.2} MB, steady step {steady:.0} B ({ns:.0} ns)",
        first / 1e6
    );

    // The same weights dense: an all-ones mask keeps every layer on the GEMM.
    let mut dense = fresh;
    let ones = Mask::ones(&sparse_layout(&dense));
    apply_mask(&mut dense, &ones);
    let mut dense_sgd = Sgd::new(SgdConfig::default());
    step(&mut dense, &ones, &mut dense_sgd, &mut logits, &mut grad);
    let reps = if ft_bench::quick_mode() { 9usize } else { 21 };
    let (mut sparse_ns, mut dense_ns) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let (mut sparse_flops, mut dense_flops) = (0.0, 0.0);
    for _ in 0..reps {
        model.reset_realized_flops();
        let t = std::time::Instant::now();
        step(&mut model, &mask, &mut sgd, &mut logits, &mut grad);
        sparse_ns.push(t.elapsed().as_nanos() as f64);
        sparse_flops = model.realized_flops();
        dense.reset_realized_flops();
        let t = std::time::Instant::now();
        step(&mut dense, &ones, &mut dense_sgd, &mut logits, &mut grad);
        dense_ns.push(t.elapsed().as_nanos() as f64);
        dense_flops = dense.realized_flops();
    }
    black_box((&model, &dense));
    let (sparse_ns, dense_ns) = (median(&mut sparse_ns), median(&mut dense_ns));
    report.push("resnet_step", &shape, 0.05, 1, 1, sparse_ns, sparse_flops);
    report.push("resnet_step", &shape, 1.0, 1, 1, dense_ns, dense_flops);
    println!(
        "resnet_step {shape}: d=0.05 {:.2} ms, dense {:.2} ms, ratio {:.3} for {:.3} of the MACs",
        sparse_ns / 1e6,
        dense_ns / 1e6,
        sparse_ns / dense_ns,
        sparse_flops / dense_flops
    );
}

/// The direct sparse convolution's three kernels, single-thread, at
/// [`stage_geoms`] and d = 0.05, on lane activations as a model hands them
/// over (`spconv_dx` is a backward without dW, `spconv_dw` one without dX).
fn spconv_records(report: &mut BenchReport, rng: &mut ChaCha8Rng) {
    let (n, density) = (CONV_BATCH, 0.05f64);
    let rt = Runtime::sequential();
    for (g, shape) in stage_geoms() {
        let ch = g.in_c;
        let csr = rand_csr(rng, ch, g.col_rows(), density);
        let idx = SpConvIndex::new(csr.view(), &g, g.pad);
        let (x, dy) = conv_operands(rng, &g);
        let (mut out, mut gx) = (LaneTensor::default(), LaneTensor::default());
        let mut vals = vec![0.0f32; csr.nnz()];
        let flops = 2.0 * (csr.nnz() * g.col_cols() * n) as f64;
        let fwd = measure_ns(|| {
            spconv_forward_rt(&rt, &idx, csr.view(), &x, &mut out);
            black_box(&out);
        });
        let dw = measure_ns(|| {
            vals.fill(0.0);
            let slots = Some(&mut vals[..]);
            spconv_backward_rt(&rt, &idx, csr.view(), &x, &dy, slots, None);
            black_box(&vals);
        });
        let dx = measure_ns(|| {
            spconv_backward_rt(&rt, &idx, csr.view(), &x, &dy, None, Some(&mut gx));
            black_box(&gx);
        });
        for (op, ns) in [("spconv_fwd", fwd), ("spconv_dw", dw), ("spconv_dx", dx)] {
            report.push(op, &shape, density, 1, 1, ns, flops);
            let gflops = report.records.last().expect("just pushed").gflops;
            println!("{op:<10} {shape:>16} {density:>8.2}     1/1   {ns:>14.0} {gflops:>10.2}");
        }
    }
}

/// Medians of `a` and `b` timed alternately, sample by sample, so that host
/// drift hits both alike (the `train_step` design); a sample repeats its side
/// until it lasts a few milliseconds.
fn alternate_ns(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (reps, sample_ns) = if ft_bench::quick_mode() {
        (9usize, 2_000_000u128)
    } else {
        (21, 5_000_000)
    };
    let time = |f: &mut dyn FnMut(), iters: u32| {
        let t = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_nanos() as f64 / f64::from(iters)
    };
    // One discarded call, then one warmed call to size the samples by.
    let calibrate = |f: &mut dyn FnMut()| {
        f();
        (sample_ns as f64 / time(f, 1).max(1.0)).clamp(1.0, 65_536.0) as u32
    };
    let (iters_a, iters_b) = (calibrate(&mut a), calibrate(&mut b));
    let (mut ns_a, mut ns_b) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        ns_a.push(time(&mut a, iters_a));
        ns_b.push(time(&mut b, iters_b));
    }
    (median(&mut ns_a), median(&mut ns_b))
}

/// The two conv shapes the kernel records use: the first and the last
/// residual stage of the benchmark's ResNet18 (batch 32) — 16 channels on
/// 16 px and 128 channels on 2 px carry the same multiply-adds, so the pair
/// shows what plane size costs.
fn stage_geoms() -> [(ConvGeom, String); 2] {
    [(16usize, 16usize), (128, 2)].map(|(ch, side)| {
        let g = ConvGeom {
            in_c: ch,
            in_h: side,
            in_w: side,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        (g, format!("b{CONV_BATCH}x{ch}x{side}x{side}k3"))
    })
}

/// Batch of the conv kernel records.
const CONV_BATCH: usize = 32;

/// Random input and output gradient of a batch of [`CONV_BATCH`] through
/// `g` (as many output channels as input ones), in lanes as a model hands
/// them to a convolution: the input with a ring of the padding.
fn conv_operands(rng: &mut ChaCha8Rng, g: &ConvGeom) -> (LaneTensor, LaneTensor) {
    let (n, ch) = (CONV_BATCH, g.in_c);
    let lanes = |t: Tensor, shape, ring| {
        let mut l = LaneTensor::default();
        l.copy_from_nchw(t.data(), shape, ring);
        l
    };
    let x = rand_dense(rng, n, ch * g.in_h * g.in_w);
    let dy = rand_dense(rng, n, ch * g.col_cols());
    (
        lanes(x, [n, ch, g.in_h, g.in_w], g.pad),
        lanes(dy, [n, ch, g.out_h(), g.out_w()], 0),
    )
}

/// The direct dense convolution's three kernels, single-thread, each timed
/// alternately with the im2col + GEMM route it replaced behind `Conv2d` and
/// is pinned `to_bits`-equal to (`dconv_*` against `dconv_*_oracle`;
/// `bench_check` gates their sum per shape). Each side works on its route's
/// layout: the direct engine on lane activations as a model hands them over,
/// the oracle on NCHW with its `dY` repack, NCHW scatter, zeroing and col2im
/// — but the oracle's dW reuses the column matrix its forward built.
fn dconv_records(report: &mut BenchReport, rng: &mut ChaCha8Rng) {
    let (n, rt) = (CONV_BATCH, Runtime::sequential());
    for (g, shape) in stage_geoms() {
        let ch = g.in_c;
        let (cr, cc) = (g.col_rows(), g.col_cols());
        let sample = ch * g.in_h * g.in_w;
        let w = rand_dense(rng, ch, cr);
        let x = rand_dense(rng, n, sample);
        let dy = rand_dense(rng, n, ch * cc);
        let flops = 2.0 * (n * cc * ch * cr) as f64;
        let lanes = |t: &Tensor, shape, ring| {
            let mut l = LaneTensor::default();
            l.copy_from_nchw(t.data(), shape, ring);
            l
        };
        let lx = lanes(&x, [n, ch, g.in_h, g.in_w], g.pad);
        let ldy = lanes(&dy, [n, ch, g.out_h(), g.out_w()], 0);

        let mut bufs = ConvBufs::default();
        let (mut out, mut gx) = (LaneTensor::default(), LaneTensor::default());
        let mut gw = vec![0.0f32; w.numel()];
        let mut cols = Tensor::zeros(&[cr, n * cc]);
        let (mut out_b, mut dy_b) = (Tensor::zeros(&[ch, n * cc]), Tensor::zeros(&[ch, n * cc]));
        let mut dcol = Tensor::zeros(&[cr, n * cc]);
        let mut gw_o = Tensor::zeros(&[ch, cr]);
        let (mut out_o, mut gx_o) = (vec![0.0f32; dy.numel()], vec![0.0f32; x.numel()]);
        // `[n, ch, cc]` ↔ `[ch, n·cc]`, the GEMM route's layout change:
        // `(offset in NCHW, offset in rows)` of every `cc`-long run.
        let runs = || (0..n * ch).map(|ic| (ic * cc, (ic % ch * n + ic / ch) * cc));
        let to_rows = |nchw: &[f32], rows: &mut [f32]| {
            for (a, b) in runs() {
                rows[b..][..cc].copy_from_slice(&nchw[a..][..cc]);
            }
        };
        let to_nchw = |rows: &[f32], nchw: &mut [f32]| {
            for (a, b) in runs() {
                nchw[a..][..cc].copy_from_slice(&rows[b..][..cc]);
            }
        };

        let fwd = alternate_ns(
            || {
                dconv_forward_rt(&rt, &g, w.data(), &lx, &mut bufs, &mut out);
                black_box(&out);
            },
            || {
                im2col_batched(x.data(), n, &g, cols.data_mut());
                out_b.data_mut().fill(0.0);
                matmul_into(&w, &cols, &mut out_b);
                to_nchw(out_b.data(), &mut out_o);
                black_box(&out_o);
            },
        );
        let dw = alternate_ns(
            || {
                let grad = Some(&mut gw[..]);
                dconv_backward_rt(&rt, &g, w.data(), &lx, &ldy, &mut bufs, grad, None);
                black_box(&gw);
            },
            || {
                to_rows(dy.data(), dy_b.data_mut());
                matmul_nt_seg_into(&dy_b, &cols, cc, &mut gw_o);
                black_box(&gw_o);
            },
        );
        let dx = alternate_ns(
            || {
                let grad = Some(&mut gx);
                dconv_backward_rt(&rt, &g, w.data(), &lx, &ldy, &mut bufs, None, grad);
                black_box(&gx);
            },
            || {
                to_rows(dy.data(), dy_b.data_mut());
                dcol.data_mut().fill(0.0);
                matmul_tn_into_rt(&rt, &w, &dy_b, &mut dcol);
                gx_o.fill(0.0);
                for (i, gx) in gx_o.chunks_mut(sample).enumerate() {
                    col2im_ld(&dcol.data()[i * cc..], n * cc, &g, gx);
                }
                black_box(&gx_o);
            },
        );
        for (op, (direct, oracle)) in [("dconv_fwd", fwd), ("dconv_dw", dw), ("dconv_dx", dx)] {
            report.push(op, &shape, 1.0, 1, 1, direct, flops);
            let gflops = report.records.last().expect("just pushed").gflops;
            report.push(&format!("{op}_oracle"), &shape, 1.0, 1, 1, oracle, flops);
            println!(
                "{op:<10} {shape:>16} {:>8.2}     1/1   {direct:>14.0} {gflops:>10.2}   \
                 {:.2}x its im2col + GEMM oracle",
                1.0,
                direct / oracle
            );
        }
    }
}

/// BatchNorm with its ReLU — the layer every convolution but a residual
/// block's second feeds — at the two stage shapes, single-thread: the Train
/// forward (batch statistics, the inverse deviations, the fused normalising
/// pass: `bn_fwd`) and its backward (`bn_bwd`) on lane activations, each
/// timed alternately with the scalar NCHW loops it is pinned `to_bits`-equal
/// to followed by the separate ReLU pass (and its mask) the layers ran
/// before (`_oracle`, [`ft_tensor::oracle`]; `bench_check` gates their sum
/// per shape as g4).
fn bn_records(report: &mut BenchReport, rng: &mut ChaCha8Rng) {
    let n = CONV_BATCH;
    for (c, side) in [(16usize, 16usize), (128, 2)] {
        let shape = format!("b{n}x{c}x{side}x{side}");
        let plane = side * side;
        let (x, dy) = (rand_dense(rng, n, c * plane), rand_dense(rng, n, c * plane));
        let lanes = |t: &Tensor, ring| {
            let mut l = LaneTensor::default();
            l.copy_from_nchw(t.data(), [n, c, side, side], ring);
            l
        };
        let (lx, ldy) = (lanes(&x, 0), lanes(&dy, 1));
        let (gamma, beta) = (rand_dense(rng, 1, c), rand_dense(rng, 1, c));
        let (gamma, beta) = (gamma.data(), beta.data());
        let per_channel = || vec![0.0f32; c];
        let per_element = || vec![0.0f32; x.numel()];
        let ([mut mean, mut var, mut inv_std], [mut gg, mut gb]) = (
            [per_channel(), per_channel(), per_channel()],
            [per_channel(), per_channel()],
        );
        let ([mut mean_o, mut var_o, mut inv_o], [mut gg_o, mut gb_o]) = (
            [per_channel(), per_channel(), per_channel()],
            [per_channel(), per_channel()],
        );
        let (mut out, mut gx) = (LaneTensor::default(), LaneTensor::default());
        let [mut xhat_o, mut out_o, mut dz_o, mut gx_o] =
            [per_element(), per_element(), per_element(), per_element()];
        let inverse = |var: &[f32], inv_std: &mut [f32]| {
            for (i, v) in inv_std.iter_mut().zip(var) {
                *i = 1.0 / (v + 1e-5).sqrt();
            }
        };
        let fwd = alternate_ns(
            || {
                bn_batch_stats(&lx, &mut mean, &mut var);
                inverse(&var, &mut inv_std);
                bn_normalize(&lx, &mean, &inv_std, gamma, beta, true, 1, &mut out);
                black_box(&out);
            },
            || {
                oracle::bn_batch_stats(x.data(), plane, &mut mean_o, &mut var_o);
                inverse(&var_o, &mut inv_o);
                let (m, is) = (&mean_o, &inv_o);
                oracle::bn_normalize(x.data(), plane, m, is, gamma, beta, &mut xhat_o, &mut out_o);
                out_o.iter_mut().for_each(|v| *v = v.max(0.0));
                black_box(&out_o);
            },
        );
        let bwd = alternate_ns(
            || {
                let consts = [&mean[..], &inv_std, gamma, beta];
                let (gg, gb) = (&mut gg, &mut gb);
                bn_backward(&lx, &ldy, consts, true, true, gg, gb, &mut gx);
                black_box(&gx);
            },
            || {
                for ((d, &g), &o) in dz_o.iter_mut().zip(dy.data()).zip(&out_o) {
                    *d = if o > 0.0 { g } else { 0.0 };
                }
                let (is, gg, gb) = (&inv_o, &mut gg_o, &mut gb_o);
                oracle::bn_backward(&dz_o, &xhat_o, plane, gamma, is, true, gg, gb, &mut gx_o);
                black_box(&gx_o);
            },
        );
        for (op, (kernel, reference)) in [("bn_fwd", fwd), ("bn_bwd", bwd)] {
            report.push(op, &shape, 1.0, 1, 1, kernel, 0.0);
            report.push(&format!("{op}_oracle"), &shape, 1.0, 1, 1, reference, 0.0);
            println!(
                "{op:<10} {shape:>16}   {:.1} us, {:.2}x its scalar oracle",
                kernel / 1e3,
                kernel / reference
            );
        }
    }
}

/// `dispatch_sweep`: forward and backward (dW + dX in one call, as `Conv2d`
/// makes it) of both direct engines over one masked weight, at six densities
/// and the two stage shapes, each pair timed alternately. The dense engine
/// multiplies the masked zeros like any weight, so its time is flat in `d`;
/// where the CSR engine's line crosses it is what
/// `ft_nn::DEFAULT_SPARSE_CROSSOVER` should say. `bench_check` reads the
/// d = 0.05 pairs back as the sparse engine's floor; the rest is measurement.
fn dispatch_sweep_records(report: &mut BenchReport, rng: &mut ChaCha8Rng) {
    let (n, rt) = (CONV_BATCH, Runtime::sequential());
    for (g, shape) in stage_geoms() {
        let ch = g.in_c;
        let cr = g.col_rows();
        let (x, dy) = conv_operands(rng, &g);
        let mut ratios = Vec::new();
        for density in [0.05f64, 0.1, 0.25, 0.5, 0.75, 1.0] {
            let csr = rand_csr(rng, ch, cr, density);
            let mut w = vec![0.0f32; ch * cr];
            csr.scatter_add(csr.vals(), &mut w);
            let idx = SpConvIndex::new(csr.view(), &g, g.pad);
            let mut dense = ConvBufs::default();
            let (mut out_d, mut out_s) = (LaneTensor::default(), LaneTensor::default());
            let (mut gx_d, mut gx_s) = (LaneTensor::default(), LaneTensor::default());
            let (mut gw, mut vals) = (vec![0.0f32; w.len()], vec![0.0f32; csr.nnz()]);
            let fwd = alternate_ns(
                || {
                    dconv_forward_rt(&rt, &g, &w, &x, &mut dense, &mut out_d);
                    black_box(&out_d);
                },
                || {
                    spconv_forward_rt(&rt, &idx, csr.view(), &x, &mut out_s);
                    black_box(&out_s);
                },
            );
            let bwd = alternate_ns(
                || {
                    let (grad, gx) = (Some(&mut gw[..]), Some(&mut gx_d));
                    dconv_backward_rt(&rt, &g, &w, &x, &dy, &mut dense, grad, gx);
                    black_box((&gw, &gx_d));
                },
                || {
                    vals.fill(0.0);
                    let (s, slots, gx) = (csr.view(), Some(&mut vals[..]), Some(&mut gx_s));
                    spconv_backward_rt(&rt, &idx, s, &x, &dy, slots, gx);
                    black_box((&vals, &gx_s));
                },
            );
            let macs = (n * g.col_cols()) as f64;
            for (dir, passes, (dense_ns, csr_ns)) in [("fwd", 2.0, fwd), ("bwd", 4.0, bwd)] {
                let op = format!("dispatch_sweep_{dir}");
                let dense_flops = passes * macs * (ch * cr) as f64;
                report.push(
                    &format!("{op}_dense"),
                    &shape,
                    density,
                    1,
                    1,
                    dense_ns,
                    dense_flops,
                );
                let csr_flops = passes * macs * csr.nnz() as f64;
                report.push(
                    &format!("{op}_csr"),
                    &shape,
                    density,
                    1,
                    1,
                    csr_ns,
                    csr_flops,
                );
            }
            ratios.push((density, fwd.1 / fwd.0, bwd.1 / bwd.0));
        }
        let row = |pick: fn(&(f64, f64, f64)) -> f64| {
            let cells = ratios.iter().map(|r| format!("{:.2}@{}", pick(r), r.0));
            cells.collect::<Vec<_>>().join("  ")
        };
        println!("dispatch_sweep {shape} CSR / dense fwd: {}", row(|r| r.1));
        println!("dispatch_sweep {shape} CSR / dense bwd: {}", row(|r| r.2));
    }
}

/// The persisted perf trajectory (`BENCH_micro_ops.json`): dense matmul at
/// 1 / 2 / 4 worker threads with warmup strictly separated from measurement
/// (see `ft_bench::trajectory`), then both convolution engines, the
/// batch-norm kernels, the dispatch sweep and the training steps. The table rows are printed alongside,
/// mirroring the criterion output above.
fn trajectory_benches(_c: &mut Criterion) {
    let mut report = BenchReport::new("micro_ops");
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let threads_grid = [1usize, 2, 4];
    println!(
        "\n{:<10} {:>12} {:>8} {:>9} {:>14} {:>10}",
        "op", "shape", "density", "req/eff", "ns/iter", "GFLOP/s"
    );
    // Dense matmul at the shapes the CI gate reads (≥256², plus the 512²
    // acceptance shape).
    for &dim in &[256usize, 512] {
        let a = rand_dense(&mut rng, dim, dim);
        let b = rand_dense(&mut rng, dim, dim);
        let shape = format!("{dim}x{dim}x{dim}");
        let flops = 2.0 * (dim * dim * dim) as f64;
        for &t in &threads_grid {
            let rt = Runtime::new(t);
            let mut out = Tensor::zeros(&[dim, dim]);
            let ns = measure_ns(|| {
                out.data_mut().fill(0.0);
                matmul_into_rt(&rt, &a, &b, &mut out);
                black_box(&out);
            });
            let (req, eff) = (rt.requested(), rt.threads());
            report.push("matmul", &shape, 1.0, req, eff, ns, flops);
            let gflops = report.records.last().expect("just pushed").gflops;
            println!(
                "{:<10} {shape:>12} {:>8.2} {req:>5}/{eff:<3} {ns:>14.0} {gflops:>10.2}",
                "matmul", 1.0
            );
        }
    }

    spconv_records(&mut report, &mut rng);
    dconv_records(&mut report, &mut rng);
    bn_records(&mut report, &mut rng);
    dispatch_sweep_records(&mut report, &mut rng);
    train_step_records(&mut report);
    resnet_step_records(&mut report);

    let path = report.write();
    println!(
        "trajectory: {} records -> {} (host_threads={}, quick={})",
        report.records.len(),
        path.display(),
        report.host_threads,
        report.quick
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = conv_benches, topk_benches, sgd_benches, bn_adapt_benches, mask_benches,
        sparse_epoch_benches, trajectory_benches
}
criterion_main!(benches);

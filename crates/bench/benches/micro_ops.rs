//! Criterion micro-benchmarks for the numerical substrate: convolution
//! forward/backward, the `O(k)` top-k buffer vs a full sort, masked SGD
//! steps, and BN-adaptation forward passes. These back the DESIGN.md
//! ablation "top-k buffer vs full sort".

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ft_bench::{allocated_bytes, measure_ns, BenchReport};
use ft_data::Dataset;
use ft_fl::{local_train_scratch, TrainScratch};
use ft_nn::loss::{softmax_cross_entropy, softmax_cross_entropy_into};
use ft_nn::models::{ResNet18, SmallCnn};
use ft_nn::optim::{Sgd, SgdConfig};
use ft_nn::{apply_mask, sparse_layout, Linear, Mode, Model};
use ft_runtime::Runtime;
use ft_sparse::{
    magnitude_mask, uniform_density_vector, CsrMatrix, Mask, SparseLayout, TopKBuffer,
};
use ft_tensor::{
    col2im_ld, dconv_backward_rt, dconv_forward_rt, im2col_batched, matmul_into, matmul_into_rt,
    matmul_nt_into_rt, matmul_nt_seg_into, matmul_tn_into, matmul_tn_into_rt, sddmm_nt_into_rt,
    spconv_backward_rt, spconv_forward_rt, spmm_into, spmm_into_rt, ConvBufs, ConvGeom,
    SpConvIndex, Tensor,
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
            model.backward(&Tensor::ones(y.shape()));
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

/// Raw kernel comparison: dense GEMM vs CSR spmm on the same masked matrix.
fn spmm_benches(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let (m, k, n) = (256, 256, 128);
    for density in [0.5f64, 0.2, 0.05] {
        let mut dense = Tensor::zeros(&[m, k]);
        let mut mask = vec![false; m * k];
        for (v, bit) in dense.data_mut().iter_mut().zip(mask.iter_mut()) {
            if rng.gen_range(0.0f64..1.0) < density {
                *v = rng.gen_range(-1.0f32..1.0);
                *bit = true;
            }
        }
        let csr = CsrMatrix::from_mask_values(&mask, dense.data(), m, k);
        let b_mat: Tensor = {
            let data = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            Tensor::from_vec(data, &[k, n])
        };
        c.bench_function(&format!("matmul_256x256x128_d{density}"), |b| {
            b.iter(|| {
                let mut out = Tensor::zeros(&[m, n]);
                matmul_into(&dense, &b_mat, &mut out);
                black_box(out)
            })
        });
        c.bench_function(&format!("spmm_256x256x128_d{density}"), |b| {
            b.iter(|| {
                let mut out = Tensor::zeros(&[m, n]);
                spmm_into(csr.view(), &b_mat, &mut out);
                black_box(out)
            })
        });
    }
}

/// The acceptance check for the sparse execution engine: a full training
/// epoch (forward + backward + masked SGD) through the SmallCnn profile,
/// dense path vs sparse path, at and below the default crossover.
fn sparse_epoch_benches(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let x = ft_tensor::normal(&mut rng, &[16, 3, 16, 16], 0.0, 1.0);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();

    for density in [1.0f32, 0.5, 0.2, 0.05] {
        let mut model = SmallCnn::new(&mut ChaCha8Rng::seed_from_u64(6), 8, 10, 3, 16);
        let mask = apply_magnitude_mask(&mut model, density);

        for (path, crossover) in [("dense", 0.0f32), ("sparse", 1.0)] {
            if density == 1.0 && path == "sparse" {
                continue; // identical to dense by construction
            }
            let mut m = model.clone();
            m.set_sparse_crossover(crossover);
            let mut sgd = Sgd::new(SgdConfig::default());
            c.bench_function(&format!("small_cnn_epoch_{path}_d{density}"), |b| {
                b.iter(|| {
                    let logits = m.forward(&x, Mode::Train);
                    let (_, grad) = ft_nn::loss::softmax_cross_entropy(&logits, &labels);
                    m.backward(&grad);
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

// ---------------------------------------------------------------------------
// Legacy training-engine replica (the pre-batched per-sample path)
// ---------------------------------------------------------------------------

/// The convolution data path exactly as the engine computed it before the
/// batched rewrite: one im2col + one GEMM *per sample*, a full reshaped
/// copy of the weight tensor on every forward and backward, fresh column /
/// output buffers each call, and the weight gradient staged in a dense
/// `[oc, cr]` buffer before an `add_assign` pass into the accumulator. The
/// `train_step` floor gate in `bench_check` measures the batched engine
/// against this replica, so the committed baseline stays reproducible even
/// though the legacy code itself is gone.
struct LegacyConv {
    w: Tensor,
    grad_w: Tensor,
    in_c: usize,
    out_c: usize,
    kernel: usize,
    rt: Runtime,
    cols: Tensor,
    x_shape: Vec<usize>,
}

/// Scalar per-element im2col exactly as the pre-rewrite engine shipped it
/// (bounds-checked gather per output position). The crate kernel has since
/// grown contiguous-run fast paths; the replica keeps its own copy so the
/// committed baseline measures the engine as it existed, not the engine
/// after this rewrite's kernel work.
fn legacy_im2col(x: &[f32], g: &ConvGeom, out: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = oh * ow;
    let taps = g.kernel * g.kernel;
    for row in 0..g.in_c * taps {
        let c = row / taps;
        let (kh, kw) = ((row % taps) / g.kernel, row % g.kernel);
        let plane = &x[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        let dst = &mut out[row * cols..(row + 1) * cols];
        let mut idx = 0usize;
        for oy in 0..oh {
            let iy = (oy * g.stride + kh) as isize - g.pad as isize;
            for ox in 0..ow {
                let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                dst[idx] = if iy >= 0 && (iy as usize) < g.in_h && ix >= 0 && (ix as usize) < g.in_w
                {
                    plane[iy as usize * g.in_w + ix as usize]
                } else {
                    0.0
                };
                idx += 1;
            }
        }
    }
}

/// Scalar accumulating col2im matching the pre-rewrite engine (see
/// [`legacy_im2col`]).
fn legacy_col2im(col: &[f32], g: &ConvGeom, out: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = oh * ow;
    let mut row = 0usize;
    for c in 0..g.in_c {
        let base = c * g.in_h * g.in_w;
        for kh in 0..g.kernel {
            for kw in 0..g.kernel {
                let src = &col[row * cols..(row + 1) * cols];
                let mut idx = 0usize;
                for oy in 0..oh {
                    let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                        if iy >= 0 && (iy as usize) < g.in_h && ix >= 0 && (ix as usize) < g.in_w {
                            out[base + iy as usize * g.in_w + ix as usize] += src[idx];
                        }
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

impl LegacyConv {
    fn new(rng: &mut ChaCha8Rng, in_c: usize, out_c: usize, kernel: usize) -> Self {
        let shape = [out_c, in_c, kernel, kernel];
        LegacyConv {
            w: ft_tensor::kaiming_normal(rng, &shape),
            grad_w: Tensor::zeros(&shape),
            in_c,
            out_c,
            kernel,
            rt: Runtime::sequential(),
            cols: Tensor::default(),
            x_shape: Vec::new(),
        }
    }

    fn geom(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            in_c: self.in_c,
            in_h: h,
            in_w: w,
            kernel: self.kernel,
            stride: 1,
            pad: 1,
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let n = x.shape()[0];
        let g = self.geom(x.shape()[2], x.shape()[3]);
        let (oh, ow) = (g.out_h(), g.out_w());
        let cc = oh * ow;
        let cr = self.in_c * self.kernel * self.kernel;
        let sample = self.in_c * g.in_h * g.in_w;
        let w2 = self.w.reshaped(&[self.out_c, cr]);
        let mut cols = Tensor::zeros(&[n, cr, cc]);
        let mut out = Tensor::zeros(&[n, self.out_c, oh, ow]);
        for i in 0..n {
            let col_slice = &mut cols.data_mut()[i * cr * cc..(i + 1) * cr * cc];
            legacy_im2col(&x.data()[i * sample..(i + 1) * sample], &g, col_slice);
            let col_t = Tensor::from_vec(col_slice.to_vec(), &[cr, cc]);
            let mut out_i = Tensor::zeros(&[self.out_c, cc]);
            matmul_into_rt(&self.rt, &w2, &col_t, &mut out_i);
            out.data_mut()[i * self.out_c * cc..(i + 1) * self.out_c * cc]
                .copy_from_slice(out_i.data());
        }
        self.cols = cols;
        self.x_shape = x.shape().to_vec();
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let n = grad_out.shape()[0];
        let g = self.geom(self.x_shape[2], self.x_shape[3]);
        let cc = g.out_h() * g.out_w();
        let cr = self.in_c * self.kernel * self.kernel;
        let sample = self.in_c * g.in_h * g.in_w;
        let w2 = self.w.reshaped(&[self.out_c, cr]);
        let mut grad_w2 = Tensor::zeros(&[self.out_c, cr]);
        let mut gx = Tensor::zeros(&self.x_shape);
        for i in 0..n {
            let gob_i = Tensor::from_vec(
                grad_out.data()[i * self.out_c * cc..(i + 1) * self.out_c * cc].to_vec(),
                &[self.out_c, cc],
            );
            let col = Tensor::from_vec(
                self.cols.data()[i * cr * cc..(i + 1) * cr * cc].to_vec(),
                &[cr, cc],
            );
            matmul_nt_into_rt(&self.rt, &gob_i, &col, &mut grad_w2);
            let mut dcol = Tensor::zeros(&[cr, cc]);
            matmul_tn_into_rt(&self.rt, &w2, &gob_i, &mut dcol);
            legacy_col2im(
                dcol.data(),
                &g,
                &mut gx.data_mut()[i * sample..(i + 1) * sample],
            );
        }
        let staged = grad_w2.reshaped(&[self.out_c, self.in_c, self.kernel, self.kernel]);
        for (d, s) in self.grad_w.data_mut().iter_mut().zip(staged.data()) {
            *d += s;
        }
        gx
    }
}

/// Pre-rewrite BatchNorm2d: fresh `out` / `xhat` tensors and statistic
/// vectors on every call, naive per-channel two-pass reduction loops —
/// exactly the shape of the retired implementation.
struct LegacyBn {
    gamma: Tensor,
    beta: Tensor,
    ggrad: Tensor,
    bgrad: Tensor,
    run_mean: Vec<f32>,
    run_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    channels: usize,
    cache: Option<(Tensor, Vec<f32>, Vec<usize>)>,
}

impl LegacyBn {
    fn new(channels: usize) -> Self {
        LegacyBn {
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            ggrad: Tensor::zeros(&[channels]),
            bgrad: Tensor::zeros(&[channels]),
            run_mean: vec![0.0; channels],
            run_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cache: None,
        }
    }

    #[allow(clippy::needless_range_loop)] // verbatim replica of the retired loops
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let s = x.shape().to_vec();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(c, self.channels);
        let plane = h * w;
        let count = (n * plane) as f32;
        let xd = x.data();
        let mut out = Tensor::zeros(&s);
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for ci in 0..c {
            let mut sum = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                sum += xd[base..base + plane].iter().sum::<f32>();
            }
            mean[ci] = sum / count;
        }
        for ci in 0..c {
            let m = mean[ci];
            let mut sq = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                sq += xd[base..base + plane]
                    .iter()
                    .map(|&v| (v - m) * (v - m))
                    .sum::<f32>();
            }
            var[ci] = sq / count;
        }
        for ci in 0..c {
            self.run_mean[ci] =
                (1.0 - self.momentum) * self.run_mean[ci] + self.momentum * mean[ci];
            self.run_var[ci] = (1.0 - self.momentum) * self.run_var[ci] + self.momentum * var[ci];
        }
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut xhat = Tensor::zeros(&s);
        {
            let xh = xhat.data_mut();
            let od = out.data_mut();
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * plane;
                    let (m, is) = (mean[ci], inv_std[ci]);
                    let (g, b) = (self.gamma.data()[ci], self.beta.data()[ci]);
                    for idx in base..base + plane {
                        let xn = (xd[idx] - m) * is;
                        xh[idx] = xn;
                        od[idx] = g * xn + b;
                    }
                }
            }
        }
        self.cache = Some((xhat, inv_std, s));
        out
    }

    #[allow(clippy::needless_range_loop)] // verbatim replica of the retired loops
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (xhat, inv_std, s) = self.cache.take().expect("bn backward before forward");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let god = grad_out.data();
        let xh = xhat.data();
        let mut gx = Tensor::zeros(&s);
        for ci in 0..c {
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for idx in base..base + plane {
                    sum_dy += god[idx];
                    sum_dy_xhat += god[idx] * xh[idx];
                }
            }
            self.bgrad.data_mut()[ci] += sum_dy;
            self.ggrad.data_mut()[ci] += sum_dy_xhat;
            let g = self.gamma.data()[ci];
            let is = inv_std[ci];
            let gxd = gx.data_mut();
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for idx in base..base + plane {
                    gxd[idx] = g * is / count * (count * god[idx] - sum_dy - xh[idx] * sum_dy_xhat);
                }
            }
        }
        gx
    }
}

/// Pre-rewrite ReLU: a fresh `Vec<bool>` mask plus a mapped output tensor
/// per forward, and a cloned, branch-per-element zeroing pass per backward.
struct LegacyRelu {
    cache: Option<Vec<bool>>,
}

impl LegacyRelu {
    fn new() -> Self {
        LegacyRelu { cache: None }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mask: Vec<bool> = x.data().iter().map(|&v| v > 0.0).collect();
        let out = Tensor::from_vec(x.data().iter().map(|&v| v.max(0.0)).collect(), x.shape());
        self.cache = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.cache.take().expect("relu backward before forward");
        let mut g = grad_out.clone();
        for (v, &alive) in g.data_mut().iter_mut().zip(mask.iter()) {
            if !alive {
                *v = 0.0;
            }
        }
        g
    }
}

/// Pre-rewrite 2×2 max pool: the allocating kernel entry points plus a
/// per-call argmax vector and input-shape copy, as the retired layer kept.
struct LegacyPool {
    rt: Runtime,
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl LegacyPool {
    fn new() -> Self {
        LegacyPool {
            rt: Runtime::sequential(),
            cache: None,
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (out, arg) = ft_tensor::max_pool2x2_rt(&self.rt, x);
        self.cache = Some((arg, x.shape().to_vec()));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (arg, shape) = self.cache.take().expect("pool backward before forward");
        ft_tensor::max_pool2x2_backward(grad_out, &arg, &shape)
    }
}

/// The SmallCnn profile assembled from the pre-rewrite layer replicas above
/// (conv / BN / ReLU / max pool); global average pooling and the classifier
/// head run through the allocating kernel entry points the retired layers
/// wrapped. Together they reproduce the committed pre-rewrite engine —
/// per-sample conv data path, per-call activations, and all the per-batch
/// allocations — so the baseline stays meaningful as the shared kernels
/// keep improving.
struct LegacyCnn {
    c1: LegacyConv,
    bn1: LegacyBn,
    r1: LegacyRelu,
    p1: LegacyPool,
    c2: LegacyConv,
    bn2: LegacyBn,
    r2: LegacyRelu,
    p2: LegacyPool,
    c3: LegacyConv,
    bn3: LegacyBn,
    r3: LegacyRelu,
    gap_rt: Runtime,
    gap_shape: Vec<usize>,
    fc: Linear,
}

impl LegacyCnn {
    fn new(rng: &mut ChaCha8Rng, width: usize, classes: usize, in_c: usize) -> Self {
        let (c1, c2, c3) = (width, 2 * width, 4 * width);
        LegacyCnn {
            c1: LegacyConv::new(rng, in_c, c1, 3),
            bn1: LegacyBn::new(c1),
            r1: LegacyRelu::new(),
            p1: LegacyPool::new(),
            c2: LegacyConv::new(rng, c1, c2, 3),
            bn2: LegacyBn::new(c2),
            r2: LegacyRelu::new(),
            p2: LegacyPool::new(),
            c3: LegacyConv::new(rng, c2, c3, 3),
            bn3: LegacyBn::new(c3),
            r3: LegacyRelu::new(),
            gap_rt: Runtime::sequential(),
            gap_shape: Vec::new(),
            fc: Linear::new(rng, c3, classes, false, "fc"),
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.c1.forward(x);
        let h = self.bn1.forward(&h);
        let h = self.r1.forward(&h);
        let h = self.p1.forward(&h);
        let h = self.c2.forward(&h);
        let h = self.bn2.forward(&h);
        let h = self.r2.forward(&h);
        let h = self.p2.forward(&h);
        let h = self.c3.forward(&h);
        let h = self.bn3.forward(&h);
        let h = self.r3.forward(&h);
        self.gap_shape = h.shape().to_vec();
        let h = ft_tensor::avg_pool_global_rt(&self.gap_rt, &h);
        self.fc.forward(&h, Mode::Train)
    }

    fn backward(&mut self, grad: &Tensor) {
        let g = self.fc.backward(grad);
        let g = ft_tensor::avg_pool_global_backward(&g, &self.gap_shape);
        let g = self.r3.backward(&g);
        let g = self.bn3.backward(&g);
        let g = self.c3.backward(&g);
        let g = self.p2.backward(&g);
        let g = self.r2.backward(&g);
        let g = self.bn2.backward(&g);
        let g = self.c2.backward(&g);
        let g = self.p1.backward(&g);
        let g = self.r1.backward(&g);
        let g = self.bn1.backward(&g);
        let _ = self.c1.backward(&g);
    }

    fn step(&mut self, lr: f32) {
        for conv in [&mut self.c1, &mut self.c2, &mut self.c3] {
            for (w, g) in conv.w.data_mut().iter_mut().zip(conv.grad_w.data().iter()) {
                *w -= lr * g;
            }
            conv.grad_w.fill_zero();
        }
        for bn in [&mut self.bn1, &mut self.bn2, &mut self.bn3] {
            for (w, g) in bn.gamma.data_mut().iter_mut().zip(bn.ggrad.data().iter()) {
                *w -= lr * g;
            }
            for (w, g) in bn.beta.data_mut().iter_mut().zip(bn.bgrad.data().iter()) {
                *w -= lr * g;
            }
            bn.ggrad.fill_zero();
            bn.bgrad.fill_zero();
        }
        for p in [&mut self.fc.w, &mut self.fc.b] {
            for (w, g) in p.data.data_mut().iter_mut().zip(p.grad.data().iter()) {
                *w -= lr * g;
            }
            p.zero_grad();
        }
    }
}

/// Measures the training engine end to end and records `train_step` (the
/// batched alloc-free engine) and `train_step_legacy` (the per-sample
/// replica above) at one worker thread: median ns per epoch, realized
/// GFLOP/s, and — under the counting allocator — allocator traffic per
/// epoch. `bench_check` pins `train_step` to zero bytes per round and to a
/// throughput floor over the committed baseline (the replica's numbers).
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

    // -- The batched engine, driven exactly like a device round ------------
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
            local_train_scratch(model, &data, None, 1, batch, sgd, rng, 0.0, scratch);
        };
    // Realized MAC FLOPs of one epoch (identical math in both engines).
    model.reset_realized_flops();
    epoch(&mut model, &mut sgd, &mut scratch, &mut train_rng);
    let flops_per_epoch = model.realized_flops();
    // Steady-state allocation traffic: warm further, then count.
    epoch(&mut model, &mut sgd, &mut scratch, &mut train_rng);
    let before = allocated_bytes();
    for _ in 0..alloc_rounds {
        epoch(&mut model, &mut sgd, &mut scratch, &mut train_rng);
    }
    let new_alloc = (allocated_bytes() - before) as f64 / alloc_rounds as f64;

    // -- The legacy per-sample replica -------------------------------------
    let mut legacy = LegacyCnn::new(&mut ChaCha8Rng::seed_from_u64(22), width, classes, in_c);
    let mut legacy_rng = ChaCha8Rng::seed_from_u64(23);
    let legacy_epoch = |m: &mut LegacyCnn, rng: &mut ChaCha8Rng| {
        for (x, y) in data.iter_batches(rng, batch) {
            let logits = m.forward(&x);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            m.backward(&grad);
            m.step(0.05);
        }
    };
    legacy_epoch(&mut legacy, &mut legacy_rng);
    legacy_epoch(&mut legacy, &mut legacy_rng);
    let before = allocated_bytes();
    for _ in 0..alloc_rounds {
        legacy_epoch(&mut legacy, &mut legacy_rng);
    }
    let legacy_alloc = (allocated_bytes() - before) as f64 / alloc_rounds as f64;

    // -- Interleaved A/B timing --------------------------------------------
    // The two engines alternate epoch by epoch so slow frequency / thermal
    // drift hits both equally; a block design (all of one engine, then all
    // of the other) lets a few percent of drift masquerade as a speedup
    // change. Medians over the interleaved reps are directly comparable.
    let reps = if ft_bench::quick_mode() { 9usize } else { 21 };
    let mut new_times = Vec::with_capacity(reps);
    let mut legacy_times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = std::time::Instant::now();
        epoch(&mut model, &mut sgd, &mut scratch, &mut train_rng);
        black_box(&model);
        new_times.push(t.elapsed().as_nanos() as f64);
        let t = std::time::Instant::now();
        legacy_epoch(&mut legacy, &mut legacy_rng);
        black_box(&legacy);
        legacy_times.push(t.elapsed().as_nanos() as f64);
    }
    let new_ns = median(&mut new_times);
    let legacy_ns = median(&mut legacy_times);

    report.push("train_step", &shape, 1.0, 1, 1, new_ns, flops_per_epoch);
    report
        .records
        .last_mut()
        .expect("just pushed")
        .alloc_bytes_per_round = new_alloc;
    report.push(
        "train_step_legacy",
        &shape,
        1.0,
        1,
        1,
        legacy_ns,
        flops_per_epoch,
    );
    report
        .records
        .last_mut()
        .expect("just pushed")
        .alloc_bytes_per_round = legacy_alloc;

    println!(
        "train_step: {:.0} ns/epoch, {:.1} B/epoch | legacy: {:.0} ns/epoch, {:.1} B/epoch | speedup {:.2}x",
        new_ns,
        new_alloc,
        legacy_ns,
        legacy_alloc,
        legacy_ns / new_ns.max(1.0)
    );
}

/// One device-side model at the benchmark's shape (ResNet18 width 0.25 on
/// 16×16 inputs, batch 32). Two allocator counts under the d = 0.05 mask,
/// which repeat exactly: `resnet_step_first_alloc_bytes` — cloning the model
/// and taking its first training step, i.e. every arena a fresh trainer
/// grows — and `resnet_step_steady_alloc_bytes`, the traffic of each later
/// step. And two `resnet_step` timings, density 0.05 and 1.0 (the same model
/// under an all-ones mask), steady steps interleaved so host drift hits both:
/// their ratio is "time tracks nnz" as a number. `bench_check` gates all
/// four.
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
/// [`stage_geoms`] and d = 0.05. Each record includes its share of the layout
/// transposes (`spconv_dx` is a backward without dW, `spconv_dw` one without
/// dX).
fn spconv_records(report: &mut BenchReport, rng: &mut ChaCha8Rng) {
    let (n, density) = (CONV_BATCH, 0.05f64);
    let rt = Runtime::sequential();
    for (g, shape) in stage_geoms() {
        let ch = g.in_c;
        let side = g.in_h;
        let csr = rand_csr(rng, ch, g.col_rows(), density);
        let idx = SpConvIndex::new(csr.view(), &g);
        let x = rand_dense(rng, n, ch * side * side);
        let dy = rand_dense(rng, n, ch * g.col_cols());
        let mut bufs = ConvBufs::default();
        let mut out = vec![0.0f32; dy.numel()];
        let mut gx = vec![0.0f32; x.numel()];
        let mut vals = vec![0.0f32; csr.nnz()];
        let flops = 2.0 * (csr.nnz() * g.col_cols() * n) as f64;
        let fwd = measure_ns(|| {
            spconv_forward_rt(&rt, &idx, csr.view(), x.data(), n, &mut bufs, &mut out);
            black_box(&out);
        });
        let dw = measure_ns(|| {
            vals.fill(0.0);
            let slots = Some(&mut vals[..]);
            spconv_backward_rt(&rt, &idx, csr.view(), dy.data(), n, &mut bufs, slots, None);
            black_box(&vals);
        });
        let dx = measure_ns(|| {
            let grad = Some(&mut gx[..]);
            spconv_backward_rt(&rt, &idx, csr.view(), dy.data(), n, &mut bufs, None, grad);
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

/// The direct dense convolution's three kernels, single-thread, each timed
/// alternately with the im2col + GEMM route it replaced behind `Conv2d` and
/// is pinned `to_bits`-equal to (`dconv_*` against `dconv_*_oracle`;
/// `bench_check` gates their sum per shape). Each side includes its layout
/// work: the direct engine its lane transposes, the oracle its `dY` repack,
/// NCHW scatter, zeroing and col2im — but the oracle's dW reuses the column
/// matrix its forward built.
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

        let mut bufs = ConvBufs::default();
        let (mut out, mut gx) = (vec![0.0f32; dy.numel()], vec![0.0f32; x.numel()]);
        let mut gw = vec![0.0f32; w.numel()];
        let mut cols = Tensor::zeros(&[cr, n * cc]);
        let (mut out_b, mut dy_b) = (Tensor::zeros(&[ch, n * cc]), Tensor::zeros(&[ch, n * cc]));
        let mut dcol = Tensor::zeros(&[cr, n * cc]);
        let mut gw_o = Tensor::zeros(&[ch, cr]);
        let (mut out_o, mut gx_o) = (out.clone(), gx.clone());
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
                dconv_forward_rt(&rt, &g, w.data(), x.data(), n, &mut bufs, &mut out);
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
                dconv_backward_rt(&rt, &g, w.data(), dy.data(), n, &mut bufs, grad, None);
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
                let grad = Some(&mut gx[..]);
                dconv_backward_rt(&rt, &g, w.data(), dy.data(), n, &mut bufs, None, grad);
                black_box(&gx);
            },
            || {
                to_rows(dy.data(), dy_b.data_mut());
                dcol.data_mut().fill(0.0);
                matmul_tn_into(&w, &dy_b, &mut dcol);
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

/// `dispatch_sweep`: forward and backward (dW + dX in one call, as `Conv2d`
/// makes it) of both direct engines over one masked weight, at six densities
/// and the two stage shapes, each pair timed alternately. The dense engine
/// multiplies the masked zeros like any weight, so its time is flat in `d`;
/// where the CSR engine's line crosses it is what
/// `ft_nn::DEFAULT_SPARSE_CROSSOVER` should say. Measurement only: nothing
/// reads these records back.
fn dispatch_sweep_records(report: &mut BenchReport, rng: &mut ChaCha8Rng) {
    let (n, rt) = (CONV_BATCH, Runtime::sequential());
    for (g, shape) in stage_geoms() {
        let ch = g.in_c;
        let cr = g.col_rows();
        let x = rand_dense(rng, n, ch * g.in_h * g.in_w);
        let dy = rand_dense(rng, n, ch * g.col_cols());
        let mut ratios = Vec::new();
        for density in [0.05f64, 0.1, 0.25, 0.5, 0.75, 1.0] {
            let csr = rand_csr(rng, ch, cr, density);
            let mut w = vec![0.0f32; ch * cr];
            csr.scatter_add(csr.vals(), &mut w);
            let idx = SpConvIndex::new(csr.view(), &g);
            let (mut dense, mut sparse) = (ConvBufs::default(), ConvBufs::default());
            let (mut out_d, mut out_s) = (vec![0.0f32; dy.numel()], vec![0.0f32; dy.numel()]);
            let (mut gx_d, mut gx_s) = (vec![0.0f32; x.numel()], vec![0.0f32; x.numel()]);
            let (mut gw, mut vals) = (vec![0.0f32; w.len()], vec![0.0f32; csr.nnz()]);
            let fwd = alternate_ns(
                || {
                    dconv_forward_rt(&rt, &g, &w, x.data(), n, &mut dense, &mut out_d);
                    black_box(&out_d);
                },
                || {
                    let s = csr.view();
                    spconv_forward_rt(&rt, &idx, s, x.data(), n, &mut sparse, &mut out_s);
                    black_box(&out_s);
                },
            );
            let bwd = alternate_ns(
                || {
                    let (grad, gx) = (Some(&mut gw[..]), Some(&mut gx_d[..]));
                    dconv_backward_rt(&rt, &g, &w, dy.data(), n, &mut dense, grad, gx);
                    black_box((&gw, &gx_d));
                },
                || {
                    vals.fill(0.0);
                    let (s, slots, gx) = (csr.view(), Some(&mut vals[..]), Some(&mut gx_s[..]));
                    spconv_backward_rt(&rt, &idx, s, dy.data(), n, &mut sparse, slots, gx);
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

/// The persisted perf trajectory (`BENCH_micro_ops.json`): dense matmul,
/// CSR spmm, and sddmm at 1 / 2 / 4 worker threads, with warmup strictly
/// separated from measurement (see `ft_bench::trajectory`). The table rows
/// are printed alongside, mirroring the criterion output above.
fn trajectory_benches(_c: &mut Criterion) {
    let mut report = BenchReport::new("micro_ops");
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let threads_grid = [1usize, 2, 4];
    println!(
        "\n{:<10} {:>12} {:>8} {:>9} {:>14} {:>10}",
        "op", "shape", "density", "req/eff", "ns/iter", "GFLOP/s"
    );
    let emit = |report: &mut BenchReport,
                op: &str,
                shape: &str,
                density: f64,
                rt: &Runtime,
                ns: f64,
                flops: f64| {
        report.push(op, shape, density, rt.requested(), rt.threads(), ns, flops);
        let r = report.records.last().expect("just pushed");
        println!(
            "{:<10} {:>12} {:>8.2} {:>5}/{:<3} {:>14.0} {:>10.2}",
            op,
            shape,
            density,
            rt.requested(),
            rt.threads(),
            ns,
            r.gflops
        );
    };

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
            emit(&mut report, "matmul", &shape, 1.0, &rt, ns, flops);
        }
    }

    // CSR spmm on 512² structures at the engine's typical densities.
    for &density in &[0.2f64, 0.05] {
        let dim = 512usize;
        let csr = rand_csr(&mut rng, dim, dim, density);
        let b = rand_dense(&mut rng, dim, dim);
        let shape = format!("{dim}x{dim}x{dim}");
        let flops = 2.0 * (csr.nnz() * dim) as f64;
        for &t in &threads_grid {
            let rt = Runtime::new(t);
            let mut out = Tensor::zeros(&[dim, dim]);
            let ns = measure_ns(|| {
                out.data_mut().fill(0.0);
                spmm_into_rt(&rt, csr.view(), &b, &mut out);
                black_box(&out);
            });
            emit(&mut report, "spmm", &shape, density, &rt, ns, flops);
        }
    }

    // Sampled dense–dense product (the masked weight gradient).
    {
        let (dim, inner, density) = (512usize, 64usize, 0.05f64);
        let csr = rand_csr(&mut rng, dim, dim, density);
        let a = rand_dense(&mut rng, dim, inner);
        let b = rand_dense(&mut rng, dim, inner);
        let shape = format!("{dim}x{dim}x{inner}");
        let flops = 2.0 * (csr.nnz() * inner) as f64;
        for &t in &threads_grid {
            let rt = Runtime::new(t);
            let mut vals = vec![0.0f32; csr.nnz()];
            let ns = measure_ns(|| {
                vals.fill(0.0);
                sddmm_nt_into_rt(&rt, csr.view(), &a, &b, &mut vals);
                black_box(&vals);
            });
            emit(&mut report, "sddmm_nt", &shape, density, &rt, ns, flops);
        }
    }

    spconv_records(&mut report, &mut rng);
    dconv_records(&mut report, &mut rng);
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
        spmm_benches, sparse_epoch_benches, trajectory_benches
}
criterion_main!(benches);

//! Concrete layers with manual forward/backward passes.
//!
//! Every layer caches what its backward pass needs during `forward`, so a
//! model's backward pass is simply the layers' backward calls in reverse
//! order. Parameter gradients *accumulate* into [`Param::grad`]; call
//! [`Param::zero_grad`] (or `Model::zero_grad`) between batches.

use crate::param::{Param, ParamKind};
use ft_runtime::Runtime;
use ft_sparse::CsrMatrix;
use ft_tensor::{
    avg_pool_global_backward_into, avg_pool_global_into_rt, dconv_backward_rt, dconv_forward_rt,
    dsmm_into_rt, dsmm_nt_into_rt, kaiming_normal, matmul_into_rt, matmul_nt_into_rt,
    matmul_tn_into_rt, max_pool2x2_backward_into, max_pool2x2_into_rt, sddmm_tn_into_rt,
    spconv_backward_rt, spconv_forward_rt, ConvBufs, ConvGeom, CsrView, SpConvIndex, Tensor,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Density at or below which a `Conv2d` / `Linear` whose weight carries a
/// mask record ([`Param::mask_bits`]) leaves the dense engine for the sparse
/// one. It is the only dispatch input besides the record itself: a layer
/// without a record — never masked, or its record cleared by a pass that
/// reads pruned-coordinate gradients — runs dense.
///
/// For convolutions the break-even is measured: `BENCH_micro_ops.json`'s
/// `dispatch_sweep_*` records time both direct engines over one masked
/// weight (batch 32, the first and the last ResNet18-w0.25 stage shape, one
/// pinned core, four runs). CSR ÷ dense reads 0.12–0.22 at d = 0.05,
/// 0.22–0.33 at 0.1, 0.52–0.68 at 0.25, **1.02–1.38 at 0.5**, 1.4–2.0 at
/// 0.75 and 1.9–2.6 at 1.0, forward and backward alike: the lines cross at
/// d ≈ 0.46–0.48, and at 0.38 for the forward pass on 2 × 2 planes. So 0.5
/// sends a narrow band below it to an engine 2–38 % slower and everything
/// else to the faster one — and at the paper's densities (d ≤ 0.1) the
/// sparse engine wins three- to eightfold. The constant has not been moved
/// to the measured value: that changes a dispatch decision, and with it the
/// golden traces. `Linear`'s kernels have no sweep yet.
pub const DEFAULT_SPARSE_CROSSOVER: f32 = 0.5;

/// Cached sparse packing of a layer weight, keyed by the mask epoch that
/// produced its structure.
///
/// The structure is rebuilt only when [`Param::mask_epoch`] changes (a new
/// mask was applied); between optimizer steps only the values are
/// re-gathered, which is `O(nnz)`. A convolution keeps the direct engine's
/// offsets for its current input size beside the CSR structure they index.
#[derive(Clone, Debug)]
struct SparsePlan {
    epoch: u64,
    csr: CsrMatrix,
    conv_index: Option<SpConvIndex>,
}

impl SparsePlan {
    /// The CSR weight and its direct-convolution index for inputs of `geom`;
    /// the index is built on first use and again whenever the input size
    /// changes.
    fn for_conv(&mut self, geom: &ConvGeom) -> (CsrView<'_>, &SpConvIndex) {
        if self.conv_index.as_ref().map(SpConvIndex::geom) != Some(geom) {
            self.conv_index = Some(SpConvIndex::new(self.csr.view(), geom));
        }
        let index = self.conv_index.as_ref().expect("index just ensured");
        (self.csr.view(), index)
    }
}

/// Decides the execution path for a weight and keeps `plan` fresh: returns
/// `true` (and a valid, value-refreshed plan) when the weight carries a mask
/// record at density ≤ [`DEFAULT_SPARSE_CROSSOVER`], `false` (and clears the
/// plan) otherwise.
fn refresh_plan(plan: &mut Option<SparsePlan>, w: &Param, rows: usize, cols: usize) -> bool {
    let bits = match &w.mask_bits {
        Some(bits) if w.mask_density() <= DEFAULT_SPARSE_CROSSOVER => bits,
        _ => {
            *plan = None;
            return false;
        }
    };
    match plan {
        Some(p) if p.epoch == w.mask_epoch => p.csr.refresh_values(w.data.data()),
        _ => {
            *plan = Some(SparsePlan {
                epoch: w.mask_epoch,
                csr: CsrMatrix::from_mask_values(bits, w.data.data(), rows, cols),
                conv_index: None,
            });
        }
    }
    true
}

/// Forward-pass mode.
///
/// `Train` uses batch statistics in BatchNorm and updates the running
/// statistics — this is also the mode used for FedTiny's *BN adaptation*
/// forward passes (parameters frozen, statistics refreshed). `Eval` uses the
/// stored running statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Batch statistics; running statistics are updated.
    Train,
    /// Running statistics; nothing is updated.
    Eval,
}

/// Running statistics of one BatchNorm layer.
///
/// These are the `µ, σ` the FedTiny selection module aggregates across
/// devices (Alg. 1 lines 10–13).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BnStats {
    /// Per-channel running mean.
    pub mean: Vec<f32>,
    /// Per-channel running variance.
    pub var: Vec<f32>,
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution with square kernels.
///
/// Bias-free by convention in this workspace (every conv is followed by
/// BatchNorm, which supplies the shift).
///
/// Both execution paths are direct engines over one layout — groups of eight
/// samples transposed into a zero-padded, sample-innermost copy of the input
/// — and neither builds a column matrix. Dense weights run on the
/// register-blocked engine ([`dconv_forward_rt`]), at every batch size and in
/// both modes. When the weight carries a mask record (see
/// [`Param::note_mask`]) at density ≤ [`DEFAULT_SPARSE_CROSSOVER`], forward
/// and backward run on the CSR engine instead ([`spconv_forward_rt`]).
/// Outputs are identical up to float rounding, but the sparse backward only
/// produces weight gradients at mask-alive coordinates: a scoring pass that
/// needs pruned-coordinate gradients clears the record
/// (`w.mask_bits = None`), which runs the layer dense.
///
/// A clone copies the weight, the configuration and the sparse plan; it
/// starts with empty scratch and no cached forward, like a layer that has
/// never run.
#[derive(Debug)]
pub struct Conv2d {
    /// Kernel weights `[out_c, in_c, k, k]`.
    pub w: Param,
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    runtime: Runtime,
    plan: Option<SparsePlan>,
    realized_flops: f64,
    cache: Option<ConvMeta>,
    scratch: ConvScratch,
}

impl Clone for Conv2d {
    fn clone(&self) -> Self {
        Conv2d {
            w: self.w.clone(),
            in_c: self.in_c,
            out_c: self.out_c,
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
            runtime: self.runtime,
            plan: self.plan.clone(),
            realized_flops: self.realized_flops,
            cache: None,
            scratch: ConvScratch::default(),
        }
    }
}

/// Per-layer scratch, sized on first use and reused across batches, epochs
/// and rounds (same idiom as `AggScratch` in `ft_fl`): the direct engines'
/// buffers — the kept input and the transposed `dY` cover the batch, the
/// staging holds one eight-sample group per worker — shared by the dense and
/// the sparse path, whichever ran last. Nothing here scales with
/// `in_c·k²·oh·ow`.
#[derive(Debug, Default)]
struct ConvScratch {
    bufs: ConvBufs,
    /// Sparse-path `dW` values at the CSR structure.
    grad_w_vals: Vec<f32>,
}

#[derive(Clone, Copy, Debug)]
struct ConvMeta {
    geom: ConvGeom,
    batch: usize,
    /// Whether the forward pass ran on the sparse path (backward must match).
    sparse: bool,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    ///
    /// `prunable` marks whether the weight participates in pruning masks
    /// (the input layer of a model passes `false`).
    #[allow(clippy::too_many_arguments)] // geometry is naturally positional
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        prunable: bool,
        name: &str,
    ) -> Self {
        let w = Param::new(
            kaiming_normal(rng, &[out_c, in_c, kernel, kernel]),
            ParamKind::ConvWeight,
            prunable,
            format!("{name}.w"),
        );
        Conv2d {
            w,
            in_c,
            out_c,
            kernel,
            stride,
            pad,
            runtime: Runtime::sequential(),
            plan: None,
            realized_flops: 0.0,
            cache: None,
            scratch: ConvScratch::default(),
        }
    }

    /// Sets the parallel runtime this layer's kernels execute on. The
    /// default is the sequential runtime; parallel output is bit-identical
    /// either way, so this only changes wall-clock.
    pub fn set_runtime(&mut self, rt: Runtime) {
        self.runtime = rt;
    }

    /// The runtime this layer's kernels execute on.
    pub fn runtime(&self) -> Runtime {
        self.runtime
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Multiply–accumulate FLOPs actually executed by this layer's forward
    /// and backward GEMMs since the last [`Conv2d::reset_realized_flops`].
    pub fn realized_flops(&self) -> f64 {
        self.realized_flops
    }

    /// Clears the realized-FLOPs counter.
    pub fn reset_realized_flops(&mut self) {
        self.realized_flops = 0.0;
    }

    /// `(in_c, out_c, kernel, stride, pad)` geometry tuple.
    pub fn geometry(&self) -> (usize, usize, usize, usize, usize) {
        (self.in_c, self.out_c, self.kernel, self.stride, self.pad)
    }

    /// This layer's convolution geometry over `h × w` inputs.
    fn geom(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            in_c: self.in_c,
            in_h: h,
            in_w: w,
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Floats (and offsets) this layer's scratch holds.
    #[cfg(test)]
    pub(crate) fn scratch_len(&self) -> usize {
        self.scratch.bufs.total_len() + self.scratch.grad_w_vals.len()
    }

    /// What [`Conv2d::scratch_len`] may reach after a sequential step over
    /// `n` samples of `side × side`: the padded input and `dY` (its rows an
    /// odd number of lanes apart) of the batch rounded up to whole
    /// eight-sample groups, one more group of each as staging, and three
    /// weight-sized tables (the dense path's transposed weight and offsets,
    /// the sparse path's gradient slots).
    #[cfg(test)]
    pub(crate) fn scratch_bound(&self, n: usize, side: usize) -> usize {
        let geom = self.geom(side, side);
        let padded = self.in_c * (side + 2 * self.pad) * (side + 2 * self.pad);
        let group = 8 * (padded + self.out_c * (geom.col_cols() | 1));
        (n.div_ceil(8) + 1) * group + 3 * (self.out_c + 6) * geom.col_rows() + geom.col_cols()
    }

    /// Forward over `[n, in_c, h, w]` into a caller-owned output tensor.
    ///
    /// Either engine takes the whole batch, whatever its size and the mode,
    /// and keeps its transposed input for backward. Both accumulate an
    /// output element in ascending `k` / stored-entry order whatever samples
    /// share its group, so the result is bit-identical to the per-sample
    /// composition.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank-4 or the channel count differs.
    pub fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, _mode: Mode) {
        let s = x.shape();
        assert_eq!(s.len(), 4, "conv input must be [n,c,h,w]");
        assert_eq!(
            s[1], self.in_c,
            "conv expected {} input channels, got {}",
            self.in_c, s[1]
        );
        let (n, h, w) = (s[0], s[2], s[3]);
        let geom = self.geom(h, w);
        let (cr, cc) = (geom.col_rows(), geom.col_cols());
        let sparse = refresh_plan(&mut self.plan, &self.w, self.out_c, cr);
        out.resize_for_overwrite(&[n, self.out_c, geom.out_h(), geom.out_w()]);
        let bufs = &mut self.scratch.bufs;
        if sparse {
            let plan = self.plan.as_mut().expect("refresh_plan kept the plan");
            let (csr, index) = plan.for_conv(&geom);
            spconv_forward_rt(&self.runtime, index, csr, x.data(), n, bufs, out.data_mut());
            self.realized_flops += 2.0 * (n * cc * csr.nnz()) as f64;
        } else {
            let w = self.w.data.data();
            dconv_forward_rt(&self.runtime, &geom, w, x.data(), n, bufs, out.data_mut());
            self.realized_flops += 2.0 * (n * cc * self.out_c * cr) as f64;
        }
        self.cache = Some(ConvMeta {
            geom,
            batch: n,
            sparse,
        });
    }

    /// Backward pass: accumulates `w.grad` and writes the input gradient into
    /// a caller-owned tensor.
    ///
    /// The engine that ran the forward runs its dW and dX kernels over the
    /// input that forward kept. On both, the weight gradient takes one fresh
    /// accumulator per sample, added in sample order, so the result is
    /// bit-identical to the per-sample loop followed by `add_assign`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_into(&mut self, grad_out: &Tensor, gx: &mut Tensor) {
        self.backward_impl(grad_out, Some(gx));
    }

    /// Backward pass that only accumulates the parameter gradients,
    /// skipping the input gradient entirely (no dX kernel).
    /// For a network's leading convolution the input gradient is dead —
    /// there is no layer before it — so the training engine drops roughly
    /// half of the first conv's backward FLOPs by calling this.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_params_only(&mut self, grad_out: &Tensor) {
        self.backward_impl(grad_out, None);
    }

    fn backward_impl(&mut self, grad_out: &Tensor, gx: Option<&mut Tensor>) {
        let meta = self
            .cache
            .take()
            .expect("Conv2d::backward called before forward");
        let geom = meta.geom;
        let (cr, cc) = (geom.col_rows(), geom.col_cols());
        let n = meta.batch;
        assert_eq!(
            grad_out.shape(),
            &[n, self.out_c, geom.out_h(), geom.out_w()],
            "conv grad_out shape mismatch"
        );
        let scratch = &mut self.scratch;
        let passes = if gx.is_some() { 4.0 } else { 2.0 };
        let gx = gx.map(|gx| {
            gx.resize_for_overwrite(&[n, geom.in_c, geom.in_h, geom.in_w]);
            gx.data_mut()
        });
        if meta.sparse {
            let plan = self.plan.as_ref().expect("sparse forward left its plan");
            let index = plan.conv_index.as_ref().expect("and its index");
            // dW lands at the CSR structure (mask-alive coordinates only).
            scratch.grad_w_vals.clear();
            scratch.grad_w_vals.resize(plan.csr.nnz(), 0.0);
            spconv_backward_rt(
                &self.runtime,
                index,
                plan.csr.view(),
                grad_out.data(),
                n,
                &mut scratch.bufs,
                Some(&mut scratch.grad_w_vals),
                gx,
            );
            plan.csr
                .scatter_add(&scratch.grad_w_vals, self.w.grad.data_mut());
            self.realized_flops += passes * (n * cc * plan.csr.nnz()) as f64;
        } else {
            dconv_backward_rt(
                &self.runtime,
                &geom,
                self.w.data.data(),
                grad_out.data(),
                n,
                &mut scratch.bufs,
                Some(self.w.grad.data_mut()),
                gx,
            );
            self.realized_flops += passes * (n * cc * self.out_c * cr) as f64;
        }
    }
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

/// Batch normalization over the channel dimension of `[n, c, h, w]`.
///
/// In `Train` mode the layer normalizes with batch statistics and updates
/// the running statistics with momentum (`running = (1-m)·running +
/// m·batch`). FedTiny's adaptive selection performs exactly this forward
/// pass with frozen parameters to re-estimate `µ, σ` on device data.
///
/// A clone copies parameters, statistics and configuration; like every
/// layer's, it starts with empty scratch and no cached forward.
#[derive(Debug)]
pub struct BatchNorm2d {
    /// Scale `γ`, initialized to 1.
    pub gamma: Param,
    /// Shift `β`, initialized to 0.
    pub beta: Param,
    /// Running statistics used in `Eval` mode.
    pub stats: BnStats,
    channels: usize,
    momentum: f32,
    eps: f32,
    /// `Some(batch_mode)` after a forward: whether normalization used batch
    /// statistics (Train) — the backward pass then includes the
    /// statistic-dependent terms — or fixed running statistics (Eval),
    /// where the statistics are constants.
    cache: Option<bool>,
    scratch: BnScratch,
}

impl Clone for BatchNorm2d {
    fn clone(&self) -> Self {
        BatchNorm2d {
            gamma: self.gamma.clone(),
            beta: self.beta.clone(),
            stats: self.stats.clone(),
            channels: self.channels,
            momentum: self.momentum,
            eps: self.eps,
            cache: None,
            scratch: BnScratch::default(),
        }
    }
}

/// Reused across batches: normalized activations, per-channel statistics,
/// and the batch shape the backward pass validates against.
#[derive(Debug, Default)]
struct BnScratch {
    mean: Vec<f32>,
    var: Vec<f32>,
    inv_std: Vec<f32>,
    xhat: Tensor,
    batch_shape: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a BatchNorm layer over `channels` channels with the standard
    /// momentum of 0.1 and epsilon 1e-5.
    pub fn new(channels: usize, name: &str) -> Self {
        BatchNorm2d {
            gamma: Param::new(
                Tensor::ones(&[channels]),
                ParamKind::BnGamma,
                false,
                format!("{name}.gamma"),
            ),
            beta: Param::new(
                Tensor::zeros(&[channels]),
                ParamKind::BnBeta,
                false,
                format!("{name}.beta"),
            ),
            stats: BnStats {
                mean: vec![0.0; channels],
                var: vec![1.0; channels],
            },
            channels,
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
            scratch: BnScratch::default(),
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Overrides the running-statistics momentum.
    ///
    /// FedTiny's BN adaptation (Alg. 1 line 5) sets momentum to 1.0 so a
    /// single forward pass over the development split replaces the running
    /// statistics with that split's exact batch statistics.
    pub fn set_momentum(&mut self, momentum: f32) {
        self.momentum = momentum.clamp(0.0, 1.0);
    }

    /// The running-statistics momentum.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Forward pass into a caller-owned output; statistics and normalized
    /// activations land in the layer's scratch arena.
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[n, c, h, w]` with matching channels.
    #[allow(clippy::needless_range_loop)] // index math mirrors the NCHW layout
    pub fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, mode: Mode) {
        let s = x.shape();
        assert_eq!(s.len(), 4, "batchnorm input must be [n,c,h,w]");
        assert_eq!(s[1], self.channels, "batchnorm channel mismatch");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let xd = x.data();
        out.resize_for_overwrite(s);
        let scratch = &mut self.scratch;
        scratch.batch_shape.clear();
        scratch.batch_shape.extend_from_slice(s);
        scratch.xhat.resize_for_overwrite(s);

        match mode {
            Mode::Train => {
                scratch.mean.clear();
                scratch.mean.resize(c, 0.0);
                scratch.var.clear();
                scratch.var.resize(c, 0.0);
                for ci in 0..c {
                    let mut sum = 0.0f32;
                    for ni in 0..n {
                        let base = (ni * c + ci) * plane;
                        sum += xd[base..base + plane].iter().sum::<f32>();
                    }
                    scratch.mean[ci] = sum / count;
                }
                for ci in 0..c {
                    let m = scratch.mean[ci];
                    let mut sq = 0.0f32;
                    for ni in 0..n {
                        let base = (ni * c + ci) * plane;
                        sq += xd[base..base + plane]
                            .iter()
                            .map(|&v| (v - m) * (v - m))
                            .sum::<f32>();
                    }
                    scratch.var[ci] = sq / count;
                }
                for ci in 0..c {
                    self.stats.mean[ci] = (1.0 - self.momentum) * self.stats.mean[ci]
                        + self.momentum * scratch.mean[ci];
                    self.stats.var[ci] = (1.0 - self.momentum) * self.stats.var[ci]
                        + self.momentum * scratch.var[ci];
                }
                scratch.inv_std.clear();
                scratch
                    .inv_std
                    .extend(scratch.var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()));
                let xh = scratch.xhat.data_mut();
                let od = out.data_mut();
                for ni in 0..n {
                    for ci in 0..c {
                        let base = (ni * c + ci) * plane;
                        let (m, is) = (scratch.mean[ci], scratch.inv_std[ci]);
                        let (g, b) = (self.gamma.data.data()[ci], self.beta.data.data()[ci]);
                        for idx in base..base + plane {
                            let xn = (xd[idx] - m) * is;
                            xh[idx] = xn;
                            od[idx] = g * xn + b;
                        }
                    }
                }
                self.cache = Some(true);
            }
            Mode::Eval => {
                scratch.inv_std.clear();
                scratch
                    .inv_std
                    .extend(self.stats.var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()));
                let xh = scratch.xhat.data_mut();
                let od = out.data_mut();
                for ni in 0..n {
                    for ci in 0..c {
                        let base = (ni * c + ci) * plane;
                        let m = self.stats.mean[ci];
                        let is = scratch.inv_std[ci];
                        let (g, b) = (self.gamma.data.data()[ci], self.beta.data.data()[ci]);
                        for idx in base..base + plane {
                            let xn = (xd[idx] - m) * is;
                            xh[idx] = xn;
                            od[idx] = g * xn + b;
                        }
                    }
                }
                self.cache = Some(false);
            }
        }
    }

    /// Backward pass into a caller-owned input-gradient tensor. After a
    /// `Train`-mode forward the full batch-statistic gradient is used; after
    /// an `Eval`-mode forward the running statistics are constants, so
    /// `∂y/∂x = γ/σ` (used e.g. by SynFlow's linearized probe).
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding forward.
    pub fn backward_into(&mut self, grad_out: &Tensor, gx: &mut Tensor) {
        let batch_mode = self
            .cache
            .take()
            .expect("BatchNorm2d::backward requires a forward first");
        let scratch = &mut self.scratch;
        let s = &scratch.batch_shape;
        assert_eq!(
            grad_out.shape(),
            &s[..],
            "batchnorm grad_out shape mismatch"
        );
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let god = grad_out.data();
        let xh = scratch.xhat.data();

        gx.resize_for_overwrite(s);
        for ci in 0..c {
            // Per-channel reductions.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for idx in base..base + plane {
                    sum_dy += god[idx];
                    sum_dy_xhat += god[idx] * xh[idx];
                }
            }
            self.beta.grad.data_mut()[ci] += sum_dy;
            self.gamma.grad.data_mut()[ci] += sum_dy_xhat;
            let g = self.gamma.data.data()[ci];
            let is = scratch.inv_std[ci];
            let gxd = gx.data_mut();
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for idx in base..base + plane {
                    gxd[idx] = if batch_mode {
                        g * is / count * (count * god[idx] - sum_dy - xh[idx] * sum_dy_xhat)
                    } else {
                        g * is * god[idx]
                    };
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully-connected layer `y = x Wᵀ + b` over `[n, in]`.
///
/// Dispatches to the CSR sparse kernels on a low-density mask record exactly
/// like [`Conv2d`] (see there for the gradient-coverage caveat, and for what
/// a clone carries).
#[derive(Debug)]
pub struct Linear {
    /// Weights `[out, in]`.
    pub w: Param,
    /// Bias `[out]`.
    pub b: Param,
    in_dim: usize,
    out_dim: usize,
    runtime: Runtime,
    plan: Option<SparsePlan>,
    realized_flops: f64,
    /// `Some(sparse)` after a forward: which path ran (backward must match).
    cache: Option<bool>,
    scratch: LinearScratch,
}

impl Clone for Linear {
    fn clone(&self) -> Self {
        Linear {
            w: self.w.clone(),
            b: self.b.clone(),
            in_dim: self.in_dim,
            out_dim: self.out_dim,
            runtime: self.runtime,
            plan: self.plan.clone(),
            realized_flops: self.realized_flops,
            cache: None,
            scratch: LinearScratch::default(),
        }
    }
}

/// Per-layer scratch arena reused across batches.
#[derive(Debug, Default)]
struct LinearScratch {
    /// Copy of the forward input, consumed by the dW GEMM in backward.
    x_cache: Tensor,
    /// Sparse-path `dW` values at the CSR structure.
    vals: Vec<f32>,
}

impl Linear {
    /// Creates a Kaiming-initialized linear layer.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_dim: usize,
        out_dim: usize,
        prunable: bool,
        name: &str,
    ) -> Self {
        Linear {
            w: Param::new(
                kaiming_normal(rng, &[out_dim, in_dim]),
                ParamKind::LinearWeight,
                prunable,
                format!("{name}.w"),
            ),
            b: Param::new(
                Tensor::zeros(&[out_dim]),
                ParamKind::Bias,
                false,
                format!("{name}.b"),
            ),
            in_dim,
            out_dim,
            runtime: Runtime::sequential(),
            plan: None,
            realized_flops: 0.0,
            cache: None,
            scratch: LinearScratch::default(),
        }
    }

    /// `(in_dim, out_dim)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.in_dim, self.out_dim)
    }

    /// Sets the parallel runtime this layer's kernels execute on. The
    /// default is the sequential runtime; parallel output is bit-identical
    /// either way, so this only changes wall-clock.
    pub fn set_runtime(&mut self, rt: Runtime) {
        self.runtime = rt;
    }

    /// Multiply–accumulate FLOPs actually executed since the last
    /// [`Linear::reset_realized_flops`].
    pub fn realized_flops(&self) -> f64 {
        self.realized_flops
    }

    /// Clears the realized-FLOPs counter.
    pub fn reset_realized_flops(&mut self) {
        self.realized_flops = 0.0;
    }

    /// Forward pass over `[n, in]` into a caller-owned output tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, _mode: Mode) {
        assert_eq!(x.shape().len(), 2, "linear input must be [n, in]");
        assert_eq!(x.shape()[1], self.in_dim, "linear input dim mismatch");
        let n = x.shape()[0];
        let sparse = refresh_plan(&mut self.plan, &self.w, self.out_dim, self.in_dim);
        out.resize_zeroed(&[n, self.out_dim]);
        match &self.plan {
            // Y += X · Wᵀ with W in CSR.
            Some(plan) if sparse => dsmm_nt_into_rt(&self.runtime, x, plan.csr.view(), out),
            _ => matmul_nt_into_rt(&self.runtime, x, &self.w.data, out),
        }
        let mac = match &self.plan {
            Some(plan) if sparse => plan.csr.nnz(),
            _ => self.out_dim * self.in_dim,
        };
        self.realized_flops += 2.0 * (n * mac) as f64;
        let od = out.data_mut();
        for i in 0..n {
            for (j, &bv) in self.b.data.data().iter().enumerate() {
                od[i * self.out_dim + j] += bv;
            }
        }
        self.scratch.x_cache.copy_from(x);
        self.cache = Some(sparse);
    }

    /// Backward pass into a caller-owned input-gradient tensor.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_into(&mut self, grad_out: &Tensor, gx: &mut Tensor) {
        let was_sparse = self
            .cache
            .take()
            .expect("Linear::backward called before forward");
        let scratch = &mut self.scratch;
        let n = scratch.x_cache.shape()[0];
        assert_eq!(
            grad_out.shape(),
            &[n, self.out_dim],
            "linear grad_out shape mismatch"
        );
        let sparse_plan = if was_sparse { self.plan.as_ref() } else { None };
        gx.resize_zeroed(&[n, self.in_dim]);
        match sparse_plan {
            Some(plan) => {
                // dW (mask-alive coordinates only) += dYᵀ · X sampled at the
                // CSR structure.
                scratch.vals.clear();
                scratch.vals.resize(plan.csr.nnz(), 0.0);
                sddmm_tn_into_rt(
                    &self.runtime,
                    plan.csr.view(),
                    grad_out,
                    &scratch.x_cache,
                    &mut scratch.vals,
                );
                plan.csr.scatter_add(&scratch.vals, self.w.grad.data_mut());
                // dX = dY · W through the sparse kernel.
                dsmm_into_rt(&self.runtime, grad_out, plan.csr.view(), gx);
                self.realized_flops += 4.0 * (n * plan.csr.nnz()) as f64;
            }
            None => {
                // dW += dYᵀ · X   ([n,out]ᵀ x [n,in] → [out,in])
                matmul_tn_into_rt(&self.runtime, grad_out, &scratch.x_cache, &mut self.w.grad);
                // dX = dY · W   ([n,out] x [out,in] → [n,in])
                matmul_into_rt(&self.runtime, grad_out, &self.w.data, gx);
                self.realized_flops += 4.0 * (n * self.out_dim * self.in_dim) as f64;
            }
        }
        // db += column sums of dY
        let bd = self.b.grad.data_mut();
        for row in grad_out.data().chunks_exact(self.out_dim) {
            for (b, &g) in bd.iter_mut().zip(row.iter()) {
                *b += g;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stateless layers
// ---------------------------------------------------------------------------

/// ReLU activation.
#[derive(Debug, Default)]
pub struct Relu {
    /// Reused activation mask (arena).
    mask: Vec<bool>,
    primed: bool,
}

/// The stateless layers hold nothing but scratch and the record of their
/// last forward, so a clone is a fresh layer (on the source's runtime).
impl Clone for Relu {
    fn clone(&self) -> Self {
        Relu::default()
    }
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }

    /// Forward pass (any shape) into a caller-owned output tensor.
    pub fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, _mode: Mode) {
        self.mask.clear();
        self.mask.extend(x.data().iter().map(|&v| v > 0.0));
        out.resize_for_overwrite(x.shape());
        for (o, &v) in out.data_mut().iter_mut().zip(x.data().iter()) {
            *o = v.max(0.0);
        }
        self.primed = true;
    }

    /// Backward pass into a caller-owned input-gradient tensor.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a mismatched shape.
    pub fn backward_into(&mut self, grad_out: &Tensor, gx: &mut Tensor) {
        assert!(self.primed, "Relu::backward called before forward");
        self.primed = false;
        assert_eq!(
            grad_out.numel(),
            self.mask.len(),
            "relu grad shape mismatch"
        );
        gx.copy_from(grad_out);
        // Branchless select: the mask is ~50/50 in practice, so a
        // conditional store would mispredict on half the elements.
        for (v, &alive) in gx.data_mut().iter_mut().zip(self.mask.iter()) {
            *v = if alive { *v } else { 0.0 };
        }
    }
}

/// 2×2 max pooling with stride 2.
#[derive(Debug, Default)]
pub struct MaxPool2x2 {
    runtime: Runtime,
    /// Reused argmax indices (arena).
    arg: Vec<usize>,
    /// Reused input-shape record (arena).
    in_shape: Vec<usize>,
    primed: bool,
}

impl Clone for MaxPool2x2 {
    fn clone(&self) -> Self {
        MaxPool2x2 {
            runtime: self.runtime,
            ..MaxPool2x2::default()
        }
    }
}

impl MaxPool2x2 {
    /// Creates a pooling layer.
    pub fn new() -> Self {
        MaxPool2x2::default()
    }

    /// Sets the parallel runtime the pooling kernel executes on.
    pub fn set_runtime(&mut self, rt: Runtime) {
        self.runtime = rt;
    }

    /// Forward pass over `[n, c, h, w]` into a caller-owned output tensor.
    pub fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, _mode: Mode) {
        max_pool2x2_into_rt(&self.runtime, x, out, &mut self.arg);
        self.in_shape.clear();
        self.in_shape.extend_from_slice(x.shape());
        self.primed = true;
    }

    /// Backward pass into a caller-owned input-gradient tensor.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_into(&mut self, grad_out: &Tensor, gx: &mut Tensor) {
        assert!(self.primed, "MaxPool2x2::backward before forward");
        self.primed = false;
        max_pool2x2_backward_into(grad_out, &self.arg, &self.in_shape, gx);
    }
}

/// Global average pooling `[n, c, h, w] → [n, c]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    runtime: Runtime,
    /// Reused input-shape record (arena).
    in_shape: Vec<usize>,
    primed: bool,
}

impl Clone for GlobalAvgPool {
    fn clone(&self) -> Self {
        GlobalAvgPool {
            runtime: self.runtime,
            ..GlobalAvgPool::default()
        }
    }
}

impl GlobalAvgPool {
    /// Creates a pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }

    /// Sets the parallel runtime the pooling kernel executes on.
    pub fn set_runtime(&mut self, rt: Runtime) {
        self.runtime = rt;
    }

    /// Forward pass into a caller-owned output tensor.
    pub fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, _mode: Mode) {
        self.in_shape.clear();
        self.in_shape.extend_from_slice(x.shape());
        avg_pool_global_into_rt(&self.runtime, x, out);
        self.primed = true;
    }

    /// Backward pass into a caller-owned input-gradient tensor.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_into(&mut self, grad_out: &Tensor, gx: &mut Tensor) {
        assert!(self.primed, "GlobalAvgPool::backward before forward");
        self.primed = false;
        avg_pool_global_backward_into(grad_out, &self.in_shape, gx);
    }
}

/// Flattens `[n, ...] → [n, prod(...)]`.
#[derive(Debug, Default)]
pub struct Flatten {
    /// Reused input-shape record (arena).
    in_shape: Vec<usize>,
    primed: bool,
}

impl Clone for Flatten {
    fn clone(&self) -> Self {
        Flatten::default()
    }
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }

    /// Forward pass into a caller-owned output tensor.
    pub fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, _mode: Mode) {
        self.in_shape.clear();
        self.in_shape.extend_from_slice(x.shape());
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        out.copy_from(x);
        out.reshape_in_place(&[n, rest]);
        self.primed = true;
    }

    /// Backward pass into a caller-owned input-gradient tensor.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_into(&mut self, grad_out: &Tensor, gx: &mut Tensor) {
        assert!(self.primed, "Flatten::backward before forward");
        self.primed = false;
        gx.copy_from(grad_out);
        gx.reshape_in_place(&self.in_shape);
    }
}

// ---------------------------------------------------------------------------
// AnyLayer + Sequential
// ---------------------------------------------------------------------------

/// A closed sum of every layer type, enabling heterogeneous [`Sequential`]
/// stacks without trait objects (and therefore cheap cloning).
// A model holds a few dozen of these in one `Vec`; boxing the convolution
// (two engines' worth of arena handles) would buy nothing there.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum AnyLayer {
    /// Convolution.
    Conv(Conv2d),
    /// Batch normalization.
    Bn(BatchNorm2d),
    /// ReLU.
    Relu(Relu),
    /// 2×2 max pooling.
    MaxPool(MaxPool2x2),
    /// Global average pooling.
    GlobalAvg(GlobalAvgPool),
    /// Flatten.
    Flatten(Flatten),
    /// Fully-connected.
    Linear(Linear),
}

impl AnyLayer {
    /// Alloc-free forward dispatch into a caller-owned output tensor.
    pub fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, mode: Mode) {
        match self {
            AnyLayer::Conv(l) => l.forward_into(x, out, mode),
            AnyLayer::Bn(l) => l.forward_into(x, out, mode),
            AnyLayer::Relu(l) => l.forward_into(x, out, mode),
            AnyLayer::MaxPool(l) => l.forward_into(x, out, mode),
            AnyLayer::GlobalAvg(l) => l.forward_into(x, out, mode),
            AnyLayer::Flatten(l) => l.forward_into(x, out, mode),
            AnyLayer::Linear(l) => l.forward_into(x, out, mode),
        }
    }

    /// Alloc-free backward dispatch into a caller-owned gradient tensor.
    pub fn backward_into(&mut self, grad: &Tensor, gx: &mut Tensor) {
        match self {
            AnyLayer::Conv(l) => l.backward_into(grad, gx),
            AnyLayer::Bn(l) => l.backward_into(grad, gx),
            AnyLayer::Relu(l) => l.backward_into(grad, gx),
            AnyLayer::MaxPool(l) => l.backward_into(grad, gx),
            AnyLayer::GlobalAvg(l) => l.backward_into(grad, gx),
            AnyLayer::Flatten(l) => l.backward_into(grad, gx),
            AnyLayer::Linear(l) => l.backward_into(grad, gx),
        }
    }

    /// Visits the layer's parameters in a fixed order (weight then bias,
    /// γ then β) without allocating.
    pub fn for_each_param<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
        match self {
            AnyLayer::Conv(l) => f(&l.w),
            AnyLayer::Bn(l) => {
                f(&l.gamma);
                f(&l.beta);
            }
            AnyLayer::Linear(l) => {
                f(&l.w);
                f(&l.b);
            }
            _ => {}
        }
    }

    /// Visits the layer's parameters mutably, in the same order as
    /// [`AnyLayer::for_each_param`], without allocating.
    pub fn for_each_param_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        match self {
            AnyLayer::Conv(l) => f(&mut l.w),
            AnyLayer::Bn(l) => {
                f(&mut l.gamma);
                f(&mut l.beta);
            }
            AnyLayer::Linear(l) => {
                f(&mut l.w);
                f(&mut l.b);
            }
            _ => {}
        }
    }

    /// The BN statistics if this is a BatchNorm layer.
    pub fn bn_stats(&self) -> Option<&BnStats> {
        match self {
            AnyLayer::Bn(l) => Some(&l.stats),
            _ => None,
        }
    }

    /// Mutable BN statistics if this is a BatchNorm layer.
    pub fn bn_stats_mut(&mut self) -> Option<&mut BnStats> {
        match self {
            AnyLayer::Bn(l) => Some(&mut l.stats),
            _ => None,
        }
    }

    /// Sets the BN momentum if this is a BatchNorm layer.
    pub fn set_bn_momentum(&mut self, momentum: f32) {
        if let AnyLayer::Bn(l) = self {
            l.set_momentum(momentum);
        }
    }

    /// The BN momentum if this is a BatchNorm layer.
    pub fn bn_momentum(&self) -> Option<f32> {
        match self {
            AnyLayer::Bn(l) => Some(l.momentum()),
            _ => None,
        }
    }

    /// Sets the parallel runtime of every kernel-bearing layer.
    pub fn set_runtime(&mut self, rt: Runtime) {
        match self {
            AnyLayer::Conv(l) => l.set_runtime(rt),
            AnyLayer::Linear(l) => l.set_runtime(rt),
            AnyLayer::MaxPool(l) => l.set_runtime(rt),
            AnyLayer::GlobalAvg(l) => l.set_runtime(rt),
            _ => {}
        }
    }

    /// The runtime if this is a convolution (a model reports its first).
    pub fn runtime(&self) -> Option<Runtime> {
        match self {
            AnyLayer::Conv(l) => Some(l.runtime()),
            _ => None,
        }
    }

    /// Multiply–accumulate FLOPs actually executed by this layer's GEMMs.
    pub fn realized_flops(&self) -> f64 {
        match self {
            AnyLayer::Conv(l) => l.realized_flops(),
            AnyLayer::Linear(l) => l.realized_flops(),
            _ => 0.0,
        }
    }

    /// Clears the realized-FLOPs counter.
    pub fn reset_realized_flops(&mut self) {
        match self {
            AnyLayer::Conv(l) => l.reset_realized_flops(),
            AnyLayer::Linear(l) => l.reset_realized_flops(),
            _ => {}
        }
    }
}

/// An ordered stack of layers executed front to back.
///
/// Activations flow through a pair of ping-pong tensors owned by the stack,
/// so a full forward/backward pass allocates nothing once the buffers have
/// grown to the batch geometry. A clone copies the layers and starts with
/// empty buffers.
#[derive(Debug, Default)]
pub struct Sequential {
    /// The layers, in execution order.
    pub layers: Vec<AnyLayer>,
    ping: Tensor,
    pong: Tensor,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential {
            layers: self.layers.clone(),
            ..Sequential::default()
        }
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer (builder style).
    pub fn push(&mut self, layer: AnyLayer) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Forward through every layer into a caller-owned output tensor,
    /// ping-ponging intermediate activations between two reused buffers.
    pub fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, mode: Mode) {
        let Sequential { layers, ping, pong } = self;
        let n = layers.len();
        if n == 0 {
            out.copy_from(x);
            return;
        }
        for (idx, l) in layers.iter_mut().enumerate() {
            let src: &Tensor = if idx == 0 { x } else { &*ping };
            if idx == n - 1 {
                l.forward_into(src, out, mode);
            } else {
                l.forward_into(src, pong, mode);
                std::mem::swap(ping, pong);
            }
        }
    }

    /// Backward through every layer in reverse, discarding the network
    /// input gradient. The leading layer only accumulates its parameter
    /// gradients — for a leading convolution this skips the dX kernel
    /// entirely, since no layer sits before it to consume the result; its
    /// weight gradient does not depend on whether dX runs.
    pub fn backward_discard_input(&mut self, grad: &Tensor) {
        self.backward_from(grad, 0);
    }

    /// Backward from the output down to the layer holding prunable weight
    /// number `shallowest_prunable` (in parameter order, front to back)
    /// and no further: that layer accumulates its parameter gradients and, like
    /// the leading layer of [`Sequential::backward_discard_input`], produces
    /// no input gradient if it is a convolution. Every layer beneath it is
    /// left as its forward pass left it, gradients untouched.
    ///
    /// # Panics
    ///
    /// Panics if the stack has no such prunable weight.
    pub fn backward_down_to(&mut self, grad: &Tensor, shallowest_prunable: usize) {
        let stop = self
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| match l {
                AnyLayer::Conv(c) => c.w.prunable,
                AnyLayer::Linear(fc) => fc.w.prunable,
                _ => false,
            })
            .nth(shallowest_prunable)
            .map(|(idx, _)| idx)
            .expect("prunable layer index out of range");
        self.backward_from(grad, stop);
    }

    /// Backward through `layers[first..]` in reverse; `layers[first]` takes
    /// the parameters-only path when it is a convolution.
    fn backward_from(&mut self, grad: &Tensor, first: usize) {
        let Sequential { layers, ping, pong } = self;
        let layers = &mut layers[first..];
        let n = layers.len();
        for (idx, l) in layers.iter_mut().rev().enumerate() {
            let src: &Tensor = if idx == 0 { grad } else { &*ping };
            if idx == n - 1 {
                if let AnyLayer::Conv(c) = l {
                    c.backward_params_only(src);
                } else {
                    l.backward_into(src, pong);
                }
            } else {
                l.backward_into(src, pong);
                std::mem::swap(ping, pong);
            }
        }
    }
}

/// Allocating passes for the unit tests: each call returns a fresh tensor.
#[cfg(test)]
pub(crate) trait Fresh {
    /// The forward pass into a new tensor.
    fn fwd(&mut self, x: &Tensor, mode: Mode) -> Tensor;
    /// The backward pass into a new tensor.
    fn bwd(&mut self, grad: &Tensor) -> Tensor;
}

#[cfg(test)]
macro_rules! impl_fresh {
    ($($layer:ty),*) => {$(
        impl Fresh for $layer {
            fn fwd(&mut self, x: &Tensor, mode: Mode) -> Tensor {
                let mut out = Tensor::default();
                self.forward_into(x, &mut out, mode);
                out
            }

            fn bwd(&mut self, grad: &Tensor) -> Tensor {
                let mut gx = Tensor::default();
                self.backward_into(grad, &mut gx);
                gx
            }
        }
    )*};
}

#[cfg(test)]
impl_fresh!(
    Conv2d,
    BatchNorm2d,
    Linear,
    Relu,
    MaxPool2x2,
    GlobalAvgPool,
    Flatten,
    AnyLayer
);

/// A stack's input gradient: its layers' backward passes, last to first.
#[cfg(test)]
impl Fresh for Sequential {
    fn fwd(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(x, &mut out, mode);
        out
    }

    fn bwd(&mut self, grad: &Tensor) -> Tensor {
        (self.layers.iter_mut().rev()).fold(grad.clone(), |g, l| l.bwd(&g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_tensor::assert_close;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    /// Finite-difference gradient check for a scalar loss = sum(forward(x)).
    fn grad_check_conv() {
        // implemented in numeric tests below
    }

    #[test]
    fn conv_forward_shape() {
        let mut c = Conv2d::new(&mut rng(), 3, 5, 3, 1, 1, true, "c");
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let y = c.fwd(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 5, 8, 8]);
        let mut c2 = Conv2d::new(&mut rng(), 3, 4, 3, 2, 1, true, "c2");
        let y2 = c2.fwd(&x, Mode::Train);
        assert_eq!(y2.shape(), &[2, 4, 4, 4]);
        let _ = grad_check_conv;
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = rng();
        let mut c = Conv2d::new(&mut rng, 2, 3, 3, 1, 1, true, "c");
        let x = ft_tensor::normal(&mut rng, &[1, 2, 4, 4], 0.0, 1.0);
        let y = c.fwd(&x, Mode::Train);
        let gy = Tensor::ones(y.shape());
        let gx = c.bwd(&gy);

        // Finite differences wrt input.
        let eps = 1e-3;
        for check in [0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[check] += eps;
            let mut xm = x.clone();
            xm.data_mut()[check] -= eps;
            let yp = c.fwd(&xp, Mode::Train).sum();
            let _ = c.bwd(&Tensor::ones(&[1, 3, 4, 4])); // clear cache
            let ym = c.fwd(&xm, Mode::Train).sum();
            let _ = c.bwd(&Tensor::ones(&[1, 3, 4, 4]));
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (gx.data()[check] - num).abs() < 1e-2,
                "input grad {} vs numeric {}",
                gx.data()[check],
                num
            );
        }

        // Finite differences wrt a few weights.
        let mut c2 = Conv2d::new(&mut rng, 2, 3, 3, 1, 1, true, "c");
        let _ = c2.fwd(&x, Mode::Train);
        let gw = {
            let _ = c2.bwd(&Tensor::ones(&[1, 3, 4, 4]));
            c2.w.grad.clone()
        };
        for check in [0usize, 10, 25] {
            let orig = c2.w.data.data()[check];
            c2.w.data.data_mut()[check] = orig + eps;
            let yp = c2.fwd(&x, Mode::Train).sum();
            let _ = c2.bwd(&Tensor::ones(&[1, 3, 4, 4]));
            c2.w.data.data_mut()[check] = orig - eps;
            let ym = c2.fwd(&x, Mode::Train).sum();
            let _ = c2.bwd(&Tensor::ones(&[1, 3, 4, 4]));
            c2.w.data.data_mut()[check] = orig;
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (gw.data()[check] - num).abs() < 1e-2,
                "weight grad {} vs numeric {}",
                gw.data()[check],
                num
            );
        }
    }

    #[test]
    fn linear_forward_matches_manual() {
        let mut l = Linear::new(&mut rng(), 3, 2, true, "fc");
        l.w.data = Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5], &[2, 3]);
        l.b.data = Tensor::from_vec(vec![0.1, -0.1], &[2]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = l.fwd(&x, Mode::Train);
        assert_close(y.data(), &[1.0 - 3.0 + 0.1, 6.0 * 0.5 - 0.1], 1e-6);
    }

    #[test]
    fn linear_gradient_check() {
        let mut rng = rng();
        let mut l = Linear::new(&mut rng, 4, 3, true, "fc");
        let x = ft_tensor::normal(&mut rng, &[2, 4], 0.0, 1.0);
        let y = l.fwd(&x, Mode::Train);
        let gx = l.bwd(&Tensor::ones(y.shape()));
        let eps = 1e-3;
        for check in 0..8 {
            let mut xp = x.clone();
            xp.data_mut()[check] += eps;
            let yp = l.fwd(&xp, Mode::Train).sum();
            let _ = l.bwd(&Tensor::ones(&[2, 3]));
            let mut xm = x.clone();
            xm.data_mut()[check] -= eps;
            let ym = l.fwd(&xm, Mode::Train).sum();
            let _ = l.bwd(&Tensor::ones(&[2, 3]));
            let num = (yp - ym) / (2.0 * eps);
            assert!((gx.data()[check] - num).abs() < 1e-2);
        }
    }

    #[test]
    fn bn_train_normalizes_batch() {
        let mut bn = BatchNorm2d::new(2, "bn");
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            &[1, 2, 2, 2],
        );
        let y = bn.fwd(&x, Mode::Train);
        // Each channel should be ~zero-mean, unit-var after normalization.
        for c in 0..2 {
            let ch: Vec<f32> = (0..4).map(|i| y.data()[c * 4 + i]).collect();
            let mean: f32 = ch.iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4, "channel {c} mean {mean}");
        }
        // Running stats moved toward batch stats.
        assert!(bn.stats.mean[0] > 0.0);
        assert!(bn.stats.mean[1] > bn.stats.mean[0]);
    }

    #[test]
    fn bn_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1, "bn");
        bn.stats.mean = vec![5.0];
        bn.stats.var = vec![4.0];
        let x = Tensor::from_vec(vec![5.0, 7.0], &[2, 1, 1, 1]);
        let y = bn.fwd(&x, Mode::Eval);
        assert_close(y.data(), &[0.0, 2.0 / (4.0f32 + 1e-5).sqrt()], 1e-4);
    }

    #[test]
    fn bn_gradient_check() {
        let mut rng = rng();
        let mut bn = BatchNorm2d::new(2, "bn");
        let x = ft_tensor::normal(&mut rng, &[2, 2, 2, 2], 1.0, 2.0);
        let y = bn.fwd(&x, Mode::Train);
        // Loss = sum(y * w) for a fixed random w so the gradient is nontrivial.
        let wv = ft_tensor::normal(&mut rng, &[16], 0.0, 1.0);
        let gy = Tensor::from_vec(wv.data().to_vec(), y.shape());
        let gx = bn.bwd(&gy);
        let eps = 2e-3;
        for check in [0usize, 5, 11, 15] {
            let mut bn2 = BatchNorm2d::new(2, "bn");
            let mut xp = x.clone();
            xp.data_mut()[check] += eps;
            let yp = bn2.fwd(&xp, Mode::Train).mul(&gy).sum();
            let mut xm = x.clone();
            xm.data_mut()[check] -= eps;
            let ym = bn2.fwd(&xm, Mode::Train).mul(&gy).sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (gx.data()[check] - num).abs() < 2e-2,
                "bn input grad {} vs numeric {}",
                gx.data()[check],
                num
            );
        }
    }

    #[test]
    fn relu_masks_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0], &[3]);
        let y = r.fwd(&x, Mode::Train);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0]);
        let g = r.bwd(&Tensor::ones(&[3]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = f.fwd(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.bwd(&y);
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn sequential_composes() {
        let mut rng = rng();
        let mut seq = Sequential::new();
        seq.push(AnyLayer::Conv(Conv2d::new(
            &mut rng, 1, 2, 3, 1, 1, true, "c",
        )))
        .push(AnyLayer::Bn(BatchNorm2d::new(2, "bn")))
        .push(AnyLayer::Relu(Relu::new()))
        .push(AnyLayer::Flatten(Flatten::new()))
        .push(AnyLayer::Linear(Linear::new(
            &mut rng,
            2 * 16,
            4,
            true,
            "fc",
        )));
        let x = ft_tensor::normal(&mut rng, &[3, 1, 4, 4], 0.0, 1.0);
        let y = seq.fwd(&x, Mode::Train);
        assert_eq!(y.shape(), &[3, 4]);
        let gx = seq.bwd(&Tensor::ones(&[3, 4]));
        assert_eq!(gx.shape(), &[3, 1, 4, 4]);
        let (mut params, mut bns) = (0, 0);
        for l in &seq.layers {
            l.for_each_param(&mut |_| params += 1);
            bns += usize::from(l.bn_stats().is_some());
        }
        assert_eq!((params, bns), (1 + 2 + 2, 1)); // conv w, bn γβ, fc w+b
    }

    #[test]
    fn maxpool_layer_roundtrip() {
        let mut p = MaxPool2x2::new();
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = p.fwd(&x, Mode::Train);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        let g = p.bwd(&Tensor::ones(y.shape()));
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.sum(), 4.0);
    }

    #[test]
    fn global_avg_pool_layer() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = p.fwd(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 3]);
        assert_close(y.data(), &[1.0; 6], 1e-6);
    }

    /// Applies an every-other-weight mask directly to a weight param,
    /// zeroing and recording it like `ft_nn::apply_mask` does.
    fn mask_param(w: &mut Param, keep_every: usize) {
        let bits: Vec<bool> = (0..w.len()).map(|i| i % keep_every == 0).collect();
        for (v, &alive) in w.data.data_mut().iter_mut().zip(bits.iter()) {
            if !alive {
                *v = 0.0;
            }
        }
        w.note_mask(&bits);
    }

    /// Applies a *clustered* mask: the first `keep_rows` weight rows stay
    /// fully alive, the rest are pruned (what structured / channel pruning
    /// produces). It runs on the same CSR path as a scattered mask.
    fn mask_param_rows(w: &mut Param, cols: usize, keep_rows: usize) {
        let bits: Vec<bool> = (0..w.len()).map(|i| i / cols < keep_rows).collect();
        for (v, &alive) in w.data.data_mut().iter_mut().zip(bits.iter()) {
            if !alive {
                *v = 0.0;
            }
        }
        w.note_mask(&bits);
    }

    /// How a sparse-vs-dense test case masks its weight.
    type MaskFn = fn(&mut Param);

    #[test]
    fn conv_sparse_forward_matches_dense_masked() {
        // Scattered at density 0.2 over [8, 27], then clustered: 2 of the 8
        // rows of [8, 18] alive.
        let cases: [(usize, MaskFn); 2] = [
            (3, |w| mask_param(w, 5)),
            (2, |w| mask_param_rows(w, 18, 2)),
        ];
        for (in_c, mask) in cases {
            let mut rng = rng();
            let mut sparse = Conv2d::new(&mut rng, in_c, 8, 3, 1, 1, true, "c");
            mask(&mut sparse.w);
            let mut dense = sparse.clone();
            dense.w.mask_bits = None;
            let x = ft_tensor::normal(&mut rng, &[4, in_c, 8, 8], 0.0, 1.0);
            let ys = sparse.fwd(&x, Mode::Train);
            let yd = dense.fwd(&x, Mode::Train);
            assert_close(ys.data(), yd.data(), 1e-5);
            // The sparse path executes one MAC per alive coordinate and
            // output position: 2·n·cc·nnz, well under the dense count.
            let nnz = sparse.w.mask_alive;
            assert_eq!(sparse.realized_flops(), 2.0 * (4 * 8 * 8 * nnz) as f64);
            assert!(
                sparse.realized_flops() < 0.3 * dense.realized_flops(),
                "sparse {} vs dense {}",
                sparse.realized_flops(),
                dense.realized_flops()
            );
        }
    }

    #[test]
    fn conv_sparse_backward_matches_dense_on_alive_coords() {
        // Scattered over [6, 18], then clustered: 4 of the 8 rows of [8, 18]
        // alive.
        let cases: [(usize, MaskFn); 2] = [
            (6, |w| mask_param(w, 4)),
            (8, |w| mask_param_rows(w, 18, 4)),
        ];
        for (out_c, mask) in cases {
            let mut rng = rng();
            let mut sparse = Conv2d::new(&mut rng, 2, out_c, 3, 1, 1, true, "c");
            mask(&mut sparse.w);
            let mut dense = sparse.clone();
            dense.w.mask_bits = None;
            let x = ft_tensor::normal(&mut rng, &[2, 2, 6, 6], 0.0, 1.0);
            let go = ft_tensor::normal(&mut rng, &[2, out_c, 6, 6], 0.0, 1.0);
            let _ = sparse.fwd(&x, Mode::Train);
            let _ = dense.fwd(&x, Mode::Train);
            let gxs = sparse.bwd(&go);
            let gxd = dense.bwd(&go);
            // Input gradients agree exactly (pruned weights are zero either way).
            assert_close(gxs.data(), gxd.data(), 1e-4);
            // Weight gradients agree at mask-alive coordinates and are zero at
            // pruned coordinates on the sparse path.
            let bits = sparse.w.mask_bits.clone().expect("mask recorded");
            for (i, &alive) in bits.iter().enumerate() {
                if alive {
                    let (a, b) = (sparse.w.grad.data()[i], dense.w.grad.data()[i]);
                    assert!((a - b).abs() < 1e-3, "alive grad {i}: {a} vs {b}");
                } else {
                    assert_eq!(sparse.w.grad.data()[i], 0.0, "pruned grad {i} nonzero");
                }
            }
        }
    }

    #[test]
    fn linear_sparse_paths_match_dense() {
        // Scattered at density 0.2 over [16, 32], then clustered: 4 of the 8
        // rows of [8, 16] alive.
        let cases: [(usize, usize, MaskFn); 2] = [
            (32, 16, |w| mask_param(w, 5)),
            (16, 8, |w| mask_param_rows(w, 16, 4)),
        ];
        for (in_dim, out_dim, mask) in cases {
            let mut rng = rng();
            let mut sparse = Linear::new(&mut rng, in_dim, out_dim, true, "fc");
            mask(&mut sparse.w);
            let mut dense = sparse.clone();
            dense.w.mask_bits = None;
            let x = ft_tensor::normal(&mut rng, &[8, in_dim], 0.0, 1.0);
            let ys = sparse.fwd(&x, Mode::Train);
            let yd = dense.fwd(&x, Mode::Train);
            assert_close(ys.data(), yd.data(), 1e-5);
            // One MAC per alive coordinate and sample.
            let nnz = sparse.w.mask_alive;
            assert_eq!(sparse.realized_flops(), 2.0 * (8 * nnz) as f64);
            let go = ft_tensor::normal(&mut rng, &[8, out_dim], 0.0, 1.0);
            let gxs = sparse.bwd(&go);
            let gxd = dense.bwd(&go);
            assert_close(gxs.data(), gxd.data(), 1e-4);
            assert_close(sparse.b.grad.data(), dense.b.grad.data(), 1e-4);
            let bits = sparse.w.mask_bits.clone().expect("mask recorded");
            for (i, &alive) in bits.iter().enumerate() {
                if alive {
                    let (a, b) = (sparse.w.grad.data()[i], dense.w.grad.data()[i]);
                    assert!((a - b).abs() < 1e-3, "alive grad {i}: {a} vs {b}");
                } else {
                    assert_eq!(sparse.w.grad.data()[i], 0.0, "pruned grad {i} nonzero");
                }
            }
        }
    }

    /// The one dispatch rule: a weighted layer runs sparse exactly when its
    /// weight carries a mask record at density ≤ `DEFAULT_SPARSE_CROSSOVER`.
    /// A cleared record runs dense and yields a gradient at every coordinate
    /// — even for a fully pruned layer, whose record would run sparse —
    /// which is what the grow-scoring probes rely on.
    #[test]
    fn dispatch_is_sparse_exactly_on_a_record_at_or_below_the_crossover() {
        /// One step from zeroed gradients: the sparse plan's stored entries
        /// (`None` on the dense path) and the realized FLOPs.
        fn step(l: &mut Linear) -> (Option<usize>, f64) {
            l.reset_realized_flops();
            l.w.zero_grad();
            let y = l.fwd(&Tensor::ones(&[2, 20]), Mode::Train);
            let _ = l.bwd(&Tensor::ones(y.shape()));
            (l.plan.as_ref().map(|p| p.csr.nnz()), l.realized_flops())
        }
        // Forward and backward: six MACs per stored weight and sample.
        let dense = (None, 12.0 * 200.0);
        let mut l = Linear::new(&mut rng(), 20, 10, true, "fc");
        assert_eq!(step(&mut l), dense, "no record");
        mask_param(&mut l.w, 4);
        assert_eq!(step(&mut l), (Some(50), 12.0 * 50.0), "d = 0.25");
        mask_param_rows(&mut l.w, 20, 5);
        assert_eq!(step(&mut l), (Some(100), 12.0 * 100.0), "d = 0.5");
        mask_param_rows(&mut l.w, 20, 6);
        assert_eq!(step(&mut l), dense, "d = 0.6");
        mask_param_rows(&mut l.w, 20, 0);
        assert_eq!(step(&mut l), (Some(0), 0.0), "d = 0");
        l.w.mask_bits = None;
        assert_eq!(step(&mut l), dense, "cleared");
        assert!(l.w.grad.data().iter().all(|&g| g != 0.0));
    }

    /// A whole layer stack produces bit-identical activations, gradients,
    /// and realized-FLOPs counters on the parallel runtime — the layer-level
    /// face of the runtime determinism contract, covering both the dense
    /// and the sparse dispatch paths.
    #[test]
    fn parallel_runtime_is_bit_identical_through_layers() {
        // The 48×48 input is one sample per conv tile: five tiles a batch.
        let cases = [
            ([3usize, 2, 8, 8], 1usize),
            ([3, 2, 8, 8], 4),
            ([5, 2, 48, 48], 1),
            ([5, 2, 48, 48], 4),
        ];
        for (x_shape, density_keep) in cases {
            let mut rng = rng();
            let mut seq_stack = Sequential::new();
            seq_stack
                .push(AnyLayer::Conv(Conv2d::new(
                    &mut rng, 2, 4, 3, 1, 1, true, "c",
                )))
                .push(AnyLayer::MaxPool(MaxPool2x2::new()))
                .push(AnyLayer::GlobalAvg(GlobalAvgPool::new()))
                .push(AnyLayer::Linear(Linear::new(&mut rng, 4, 3, true, "fc")));
            for l in &mut seq_stack.layers {
                l.for_each_param_mut(&mut |p| {
                    if p.prunable && density_keep > 1 {
                        mask_param(p, density_keep);
                    }
                });
            }
            let mut par_stack = seq_stack.clone();
            for l in &mut par_stack.layers {
                l.set_runtime(Runtime::exact(4).with_min_work(0));
            }

            let x = ft_tensor::normal(&mut rng, &x_shape, 0.0, 1.0);
            let ys = seq_stack.fwd(&x, Mode::Train);
            let yp = par_stack.fwd(&x, Mode::Train);
            assert_eq!(ys.data(), yp.data(), "forward diverged");
            let g = ft_tensor::normal(&mut rng, &[x_shape[0], 3], 0.0, 1.0);
            let gs = seq_stack.bwd(&g);
            let gp = par_stack.bwd(&g);
            assert_eq!(gs.data(), gp.data(), "input grads diverged");
            for (a, b) in seq_stack.layers.iter().zip(&par_stack.layers) {
                let mut par_params = Vec::new();
                b.for_each_param(&mut |p| par_params.push(p));
                let mut par_params = par_params.into_iter();
                a.for_each_param(&mut |a| {
                    let b = par_params.next().expect("same stack");
                    assert_eq!(a.grad.data(), b.grad.data(), "param grads diverged");
                });
                assert_eq!(a.realized_flops(), b.realized_flops());
            }
        }
    }

    #[test]
    fn csr_plan_reused_until_mask_epoch_changes() {
        let mut rng = rng();
        let mut l = Linear::new(&mut rng, 16, 8, true, "fc");
        mask_param(&mut l.w, 4);
        let x = Tensor::ones(&[2, 16]);
        let _ = l.fwd(&x, Mode::Train);
        let epoch0 = l.plan.as_ref().expect("plan built").epoch;
        // An optimizer step within the epoch: structure kept, values re-gathered.
        for v in l.w.data.data_mut().iter_mut() {
            *v *= 2.0;
        }
        let y = l.fwd(&x, Mode::Train);
        assert_eq!(l.plan.as_ref().expect("plan kept").epoch, epoch0);
        let mut dense = l.clone();
        dense.w.mask_bits = None;
        assert_close(y.data(), dense.fwd(&x, Mode::Train).data(), 1e-5);
        // A new mask invalidates the structure.
        mask_param(&mut l.w, 2);
        let _ = l.fwd(&x, Mode::Train);
        let plan = l.plan.as_ref().expect("plan rebuilt");
        assert_ne!(plan.epoch, epoch0);
        assert_eq!(plan.csr.nnz(), 16 * 8 / 2);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Sample `i` of a batch as its own `n = 1` tensor.
    fn sample(t: &Tensor, i: usize) -> Tensor {
        let per = t.numel() / t.shape()[0];
        let mut shape = t.shape().to_vec();
        shape[0] = 1;
        Tensor::from_vec(t.data()[i * per..(i + 1) * per].to_vec(), &shape)
    }

    /// The per-sample composition of a conv layer — an oracle that shares
    /// no tile loop with the engine: one `n = 1` forward and backward per
    /// sample on a zeroed gradient, outputs and input gradients
    /// concatenated, weight gradients `add_assign`ed in sample order.
    fn per_sample_oracle(
        layer: &Conv2d,
        x: &Tensor,
        go: &Tensor,
        mode: Mode,
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut l = layer.clone();
        let (mut y, mut gx) = (Vec::new(), Vec::new());
        let mut gw = Tensor::zeros(l.w.grad.shape());
        for i in 0..x.shape()[0] {
            l.w.zero_grad();
            y.extend(bits(&l.fwd(&sample(x, i), mode)));
            gx.extend(bits(&l.bwd(&sample(go, i))));
            gw.add_assign(&l.w.grad);
        }
        (y, gx, bits(&gw))
    }

    /// Byte budget of one column-matrix tile of the im2col engines both
    /// paths ran on before the direct ones; the CSR oracle below still walks
    /// the batch in such tiles.
    const COL_TILE_BYTES: usize = 256 * 1024;

    /// Whole samples per tile for a batch of `n`: at least one, at most the
    /// batch.
    fn tile_samples(geom: &ConvGeom, n: usize) -> usize {
        let sample_bytes = geom.col_rows() * geom.col_cols() * std::mem::size_of::<f32>();
        (COL_TILE_BYTES / sample_bytes.max(1)).clamp(1, n.max(1))
    }

    /// `(in_c, kernel, stride, pad, input side)` of the tile-boundary cases:
    /// 3×3 and 1×1, stride 1 and 2, each sized so exactly three samples fit
    /// one column tile (every case has a 12×12 output).
    const TILE_GEOMS: [(usize, usize, usize, usize, usize); 4] = [
        (16, 3, 1, 1, 12),
        (16, 3, 2, 1, 24),
        (128, 1, 1, 0, 12),
        (128, 1, 2, 0, 24),
    ];

    /// Dense, scattered-sparse and clustered-sparse variants of one layer.
    fn tile_variants(in_c: usize, kernel: usize, stride: usize, pad: usize) -> Vec<Conv2d> {
        let base = Conv2d::new(&mut rng(), in_c, 8, kernel, stride, pad, true, "c");
        let cr = in_c * kernel * kernel;
        let mut scattered = base.clone();
        mask_param(&mut scattered.w, 5);
        let mut clustered = base.clone();
        mask_param_rows(&mut clustered.w, cr, 3);
        vec![base, scattered, clustered]
    }

    #[test]
    fn tile_boundary_batches_match_per_sample_composition_bit_for_bit() {
        for (in_c, kernel, stride, pad, side) in TILE_GEOMS {
            let geom = ConvGeom {
                in_c,
                in_h: side,
                in_w: side,
                kernel,
                stride,
                pad,
            };
            let t = tile_samples(&geom, usize::MAX);
            assert_eq!(t, 3, "case must put three samples in a tile");
            for (v, layer) in tile_variants(in_c, kernel, stride, pad)
                .into_iter()
                .enumerate()
            {
                // Around the oracle's tile, then around the eight-sample group.
                for n in [1, t - 1, t, t + 1, 2 * t + 1, 8, 9] {
                    // Eval → backward is the SynFlow-style probe.
                    for mode in [Mode::Train, Mode::Eval] {
                        let tag = format!("k{kernel} s{stride} variant {v} n={n} {mode:?}");
                        let mut rng = rng();
                        let x = ft_tensor::normal(&mut rng, &[n, in_c, side, side], 0.0, 1.0);
                        let go = ft_tensor::normal(&mut rng, &[n, 8, 12, 12], 0.0, 1.0);
                        let (y, gx, gw) = per_sample_oracle(&layer, &x, &go, mode);
                        // The oracle is sequential; the tiled layer runs on
                        // the FT_THREADS pool (CI: 1 and 4).
                        let mut l = layer.clone();
                        l.set_runtime(Runtime::from_env().with_min_work(0));
                        assert_eq!(bits(&l.fwd(&x, mode)), y, "forward {tag}");
                        assert_eq!(bits(&l.bwd(&go)), gx, "gx {tag}");
                        assert_eq!(bits(&l.w.grad), gw, "w.grad {tag}");
                    }
                }
            }
        }
    }

    /// Every ftbench device sees a full batch and then a shorter one; the
    /// second must not read anything the first left in the buffers, and on
    /// either path those are the kept input, `dY` and one group of staging
    /// per worker ([`Conv2d::scratch_bound`]) — under half the column matrix
    /// of the batch — and back to the same size when the full batch returns.
    #[test]
    fn scratch_holds_no_column_matrix_and_is_reused_across_batch_sizes() {
        let (in_c, kernel, stride, pad, side) = TILE_GEOMS[0];
        for (v, layer) in tile_variants(in_c, kernel, stride, pad)
            .into_iter()
            .enumerate()
        {
            let mut l = layer.clone();
            let mut rng = rng();
            let mut held = Vec::new();
            for n in [32usize, 18, 32] {
                let x = ft_tensor::normal(&mut rng, &[n, in_c, side, side], 0.0, 1.0);
                let go = ft_tensor::normal(&mut rng, &[n, 8, 12, 12], 0.0, 1.0);
                let (y, gx, gw) = per_sample_oracle(&layer, &x, &go, Mode::Train);
                l.w.zero_grad();
                assert_eq!(bits(&l.fwd(&x, Mode::Train)), y, "forward n={n}");
                assert_eq!(bits(&l.bwd(&go)), gx, "gx n={n}");
                assert_eq!(bits(&l.w.grad), gw, "w.grad n={n}");
                let padded = in_c * (side + 2 * pad) * (side + 2 * pad);
                let kept = l.scratch.bufs.kept_input_len();
                assert_eq!(kept, n.div_ceil(8) * 8 * padded, "variant {v}");
                let (len, bound) = (l.scratch_len(), l.scratch_bound(n, side));
                let columns = n * in_c * kernel * kernel * 12 * 12;
                assert!(kept < len && len <= bound, "variant {v}: {len} > {bound}");
                assert!(2 * bound < columns, "variant {v}: {bound} vs {columns}");
                held.push(len);
            }
            assert_eq!(held[0], held[2], "variant {v}");
            assert!(held[1] < held[0], "variant {v}");
        }
    }

    /// The engines do not look at the mode: an `Eval` forward is a `Train`
    /// forward, bit for bit, and backward runs from either.
    #[test]
    fn eval_forward_equals_train_forward_bit_for_bit() {
        for (in_c, kernel, stride, pad, side) in TILE_GEOMS {
            for (v, layer) in tile_variants(in_c, kernel, stride, pad)
                .into_iter()
                .enumerate()
            {
                let x = ft_tensor::normal(&mut rng(), &[11, in_c, side, side], 0.0, 1.0);
                let go = Tensor::ones(&[11, 8, 12, 12]);
                let (mut train, mut eval) = (layer.clone(), layer);
                let tag = format!("k{kernel} s{stride} variant {v}");
                let y = train.fwd(&x, Mode::Train);
                assert_eq!(bits(&eval.fwd(&x, Mode::Eval)), bits(&y), "{tag}");
                assert_eq!(bits(&eval.bwd(&go)), bits(&train.bwd(&go)), "{tag}");
                assert_eq!(bits(&eval.w.grad), bits(&train.w.grad), "{tag}");
                assert_eq!(eval.realized_flops(), train.realized_flops(), "{tag}");
            }
        }
    }

    /// The sparse path as it ran before the direct engine, kept as the
    /// layer-level oracle on `ft_tensor::oracle`'s sequential kernels: per
    /// 256 KiB tile, im2col → CSR SpMM → NCHW scatter forward, and dY repack →
    /// segmented SDDMM → CSR `Sᵀ·dY` → col2im backward. Returns `(y, gx,
    /// w.grad after the batch, FLOPs)`.
    fn csr_tile_loop_oracle(
        layer: &Conv2d,
        x: &Tensor,
        go: &Tensor,
        want_gx: bool,
    ) -> (Tensor, Option<Tensor>, Tensor, f64) {
        use ft_tensor::oracle;
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let geom = layer.geom(h, w);
        let (cr, cc, oc) = (geom.col_rows(), geom.col_cols(), layer.out_c);
        let bits = layer.w.mask_bits.as_ref().expect("oracle needs a mask");
        let csr = CsrMatrix::from_mask_values(bits, layer.w.data.data(), oc, cr);
        let sample = geom.in_c * h * w;
        let mut y = Tensor::zeros(&[n, oc, geom.out_h(), geom.out_w()]);
        let mut gx = Tensor::zeros(&[n, geom.in_c, h, w]);
        let mut grad_w_vals = vec![0.0f32; csr.nnz()];
        let tile = tile_samples(&geom, n);
        for i0 in (0..n).step_by(tile) {
            let tn = tile.min(n - i0);
            let mut cols_b = Tensor::zeros(&[cr, tn * cc]);
            let xs = &x.data()[i0 * sample..(i0 + tn) * sample];
            oracle::im2col_batched(xs, tn, &geom, cols_b.data_mut());
            let mut out_b = Tensor::zeros(&[oc, tn * cc]);
            oracle::spmm_into(csr.view(), &cols_b, &mut out_b);
            let mut gob = Tensor::zeros(&[oc, tn * cc]);
            for i in 0..tn {
                for c in 0..oc {
                    y.data_mut()[((i0 + i) * oc + c) * cc..][..cc]
                        .copy_from_slice(&out_b.data()[(c * tn + i) * cc..][..cc]);
                    gob.data_mut()[(c * tn + i) * cc..][..cc]
                        .copy_from_slice(&go.data()[((i0 + i) * oc + c) * cc..][..cc]);
                }
            }
            oracle::sddmm_nt_seg_into(csr.view(), &gob, &cols_b, cc, &mut grad_w_vals);
            if want_gx {
                let mut dcol_b = Tensor::zeros(&[cr, tn * cc]);
                oracle::spmm_tn_into(csr.view(), &gob, &mut dcol_b);
                for i in 0..tn {
                    oracle::col2im_ld(
                        &dcol_b.data()[i * cc..],
                        tn * cc,
                        &geom,
                        &mut gx.data_mut()[(i0 + i) * sample..(i0 + i + 1) * sample],
                    );
                }
            }
        }
        let mut gw = layer.w.grad.clone();
        csr.scatter_add(&grad_w_vals, gw.data_mut());
        let passes = if want_gx { 6.0 } else { 4.0 };
        let flops = passes * (n * cc * csr.nnz()) as f64;
        (y, want_gx.then_some(gx), gw, flops)
    }

    /// The direct engine behind `Conv2d` reproduces the CSR tile loop it
    /// replaced — outputs, input gradients, accumulated weight gradients and
    /// the realized-FLOPs counter — over one layer fed batch 32, then 18,
    /// then 32 (index and buffers reused), then a different input size (the
    /// index is rebuilt), with and without the input gradient.
    #[test]
    fn sparse_path_matches_the_csr_tile_loop_it_replaced_bit_for_bit() {
        for (in_c, kernel, stride, pad, side) in TILE_GEOMS {
            for (v, layer) in tile_variants(in_c, kernel, stride, pad)
                .into_iter()
                .enumerate()
                .skip(1)
            {
                let mut l = layer;
                l.set_runtime(Runtime::from_env().with_min_work(0));
                let mut rng = rng();
                let smaller = side - 2 * stride;
                for (n, side, want_gx) in [
                    (32usize, side, true),
                    (18, side, true),
                    (32, side, false),
                    (9, smaller, true),
                ] {
                    let tag = format!("k{kernel} s{stride} variant {v} n={n} side={side}");
                    let x = ft_tensor::normal(&mut rng, &[n, in_c, side, side], 0.0, 1.0);
                    let out_side = l.geom(side, side).out_h();
                    let go = ft_tensor::normal(&mut rng, &[n, 8, out_side, out_side], 0.0, 1.0);
                    let (y, gx, gw, flops) = csr_tile_loop_oracle(&l, &x, &go, want_gx);
                    l.reset_realized_flops();
                    assert_eq!(bits(&l.fwd(&x, Mode::Train)), bits(&y), "forward {tag}");
                    let index = l.plan.as_ref().and_then(|p| p.conv_index.as_ref());
                    assert_eq!(index.expect("sparse path").geom().in_h, side, "index {tag}");
                    match gx {
                        Some(gx) => assert_eq!(bits(&l.bwd(&go)), bits(&gx), "gx {tag}"),
                        None => l.backward_params_only(&go),
                    }
                    assert_eq!(bits(&l.w.grad), bits(&gw), "w.grad {tag}");
                    assert_eq!(l.realized_flops(), flops, "flops {tag}");
                }
            }
        }
    }

    /// A clone is a layer that has never run: the weight, the configuration
    /// and the sparse plan are copied, scratch and the cached forward are not.
    #[test]
    fn scratch_is_not_cloned_and_the_forward_cache_is_cleared() {
        let mut conv = tile_variants(4, 3, 1, 1).remove(1);
        let x = ft_tensor::normal(&mut rng(), &[9, 4, 6, 6], 0.0, 1.0);
        let y = conv.fwd(&x, Mode::Train);
        let fresh = conv.clone();
        assert!(fresh.cache.is_none());
        assert_eq!(fresh.scratch_len(), 0);
        assert!(fresh.plan.is_some(), "the plan is structure, not scratch");
        let mut bn = BatchNorm2d::new(8, "bn");
        let _ = bn.fwd(&y, Mode::Train);
        assert!(bn.clone().cache.is_none() && bn.clone().scratch.xhat.numel() == 0);
        let mut relu = Relu::new();
        let _ = relu.fwd(&y, Mode::Train);
        assert!(!relu.clone().primed && relu.clone().mask.is_empty());
    }

    /// Backward on a clone of a layer that ran forward is the "before
    /// forward" panic, not a read of the source's buffers.
    #[test]
    #[should_panic(expected = "called before forward")]
    fn scratch_free_clone_refuses_backward_before_its_own_forward() {
        let mut conv = tile_variants(4, 3, 1, 1).remove(1);
        let x = ft_tensor::normal(&mut rng(), &[9, 4, 6, 6], 0.0, 1.0);
        let y = conv.fwd(&x, Mode::Train);
        let _ = conv.clone().bwd(&y);
    }
}

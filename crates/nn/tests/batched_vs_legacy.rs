//! Property tests pinning the batched training engine to the retired
//! per-sample semantics, bit for bit.
//!
//! The engine's contract (see ARCHITECTURE.md, "Training engine") is that a
//! whole-batch forward/backward is *exactly* `==` to running the same layer
//! one sample at a time and accumulating — not merely close: golden traces
//! and the federated aggregation paths compare checkpoints byte-wise. The
//! per-sample reference here is the layer itself driven at `n = 1` (a
//! single-sample batch is one occupied lane of the direct convolution
//! engines' eight-sample group, or one row of `Linear`'s GEMM: one pass and
//! one gradient accumulation per sample), so the property fails if lane
//! grouping, register blocking or the batch-wide GEMM ever reorders a
//! floating-point reduction.
//!
//! Geometries are adversarial: kernels bigger than the padded input are
//! filtered out, but everything else — odd spatial dims, stride > kernel,
//! pad ≥ kernel, single-channel and single-sample degenerates — is fair
//! game, across dense and sparse (CSR-dispatched) weights and 1- vs
//! 4-thread runtimes.

use ft_nn::{Conv2d, Linear, Mode, Param, Relu, Runtime};
use ft_tensor::Tensor;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random tensor data in [-1, 1).
fn rand_vec(rng: &mut ChaCha8Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Masks roughly 70% of the weight away and records the mask, keeping at
/// most half of it alive so the layer dispatches sparse, and at least one
/// weight where that fits.
fn sparsify(w: &mut Param, rng: &mut ChaCha8Rng) {
    let n = w.len();
    let mut bits: Vec<bool> = (0..n).map(|_| rng.gen_range(0.0f32..1.0) < 0.3).collect();
    bits[0] = n > 1;
    let excess = bits.iter().filter(|&&b| b).count().saturating_sub(n / 2);
    for b in bits.iter_mut().rev().filter(|b| **b).take(excess) {
        *b = false;
    }
    for (v, &b) in w.data.data_mut().iter_mut().zip(bits.iter()) {
        if !b {
            *v = 0.0;
        }
    }
    w.note_mask(&bits);
}

/// The layers' passes into fresh tensors.
trait Fresh {
    fn fwd(&mut self, x: &Tensor, mode: Mode) -> Tensor;
    fn bwd(&mut self, grad: &Tensor) -> Tensor;
}

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

impl_fresh!(Conv2d, Linear, Relu);

/// Batch sizes exercised: the degenerate single sample, the smallest true
/// batch, and one that is not a multiple of any blocking factor.
fn batch_sizes() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [1, 2, 7][i])
}

/// Near-equality for reductions whose accumulation order legitimately
/// differs between the batched and per-sample compositions (Linear's dW
/// reduces over the batch axis inside one GEMM; per-sample calls round into
/// the accumulator after every sample). A couple of ulps at these
/// magnitudes.
fn assert_close(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        let tol = 1e-5f32 * x.abs().max(y.abs()).max(1.0);
        assert!((x - y).abs() <= tol, "index {i}: {x} vs {y} (tol {tol})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv_batched_matches_per_sample(
        geom in (1usize..=4, 1usize..=5, 1usize..=3, 1usize..=3, 0usize..=2),
        dims in (3usize..=11, 3usize..=11),
        n in batch_sizes(),
        sparse in 0usize..2,
        seed in 0u64..1000,
    ) {
        let (in_c, out_c, kernel, stride, pad) = geom;
        let (h, w) = dims;
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut batched = Conv2d::new(&mut rng, in_c, out_c, kernel, stride, pad, true, "c");
        if sparse == 1 {
            sparsify(&mut batched.w, &mut rng);
        }
        let mut per_sample = batched.clone();
        let mut threaded = batched.clone();
        threaded.set_runtime(Runtime::exact(4));
        let mut fused_eval = batched.clone();

        let x = Tensor::from_vec(
            rand_vec(&mut rng, n * in_c * h * w),
            &[n, in_c, h, w],
        );
        let out = batched.fwd(&x, Mode::Train);
        let go = Tensor::from_vec(
            rand_vec(&mut rng, out.numel()),
            out.shape(),
        );
        let gx = batched.bwd(&go);

        // The fused implicit-GEMM eval path reads the same packed values in
        // the same kernel order as the materialized train path.
        let out_eval = fused_eval.fwd(&x, Mode::Eval);
        prop_assert_eq!(out_eval.data(), out.data());

        // 4 worker threads must be byte-identical to sequential.
        let out_t = threaded.fwd(&x, Mode::Train);
        let gx_t = threaded.bwd(&go);
        prop_assert_eq!(out_t.data(), out.data());
        prop_assert_eq!(gx_t.data(), gx.data());
        prop_assert_eq!(threaded.w.grad.data(), batched.w.grad.data());

        // Per-sample composition: forward + backward one sample at a time,
        // parameter gradients accumulating across calls in sample order.
        let sample_in = in_c * h * w;
        let sample_out = out.numel() / n;
        for i in 0..n {
            let xi = Tensor::from_vec(
                x.data()[i * sample_in..(i + 1) * sample_in].to_vec(),
                &[1, in_c, h, w],
            );
            let oi = per_sample.fwd(&xi, Mode::Train);
            prop_assert_eq!(oi.data(), &out.data()[i * sample_out..(i + 1) * sample_out]);
            let goi = Tensor::from_vec(
                go.data()[i * sample_out..(i + 1) * sample_out].to_vec(),
                oi.shape(),
            );
            let gi = per_sample.bwd(&goi);
            prop_assert_eq!(gi.data(), &gx.data()[i * sample_in..(i + 1) * sample_in]);
        }
        prop_assert_eq!(per_sample.w.grad.data(), batched.w.grad.data());
    }

    #[test]
    fn linear_batched_matches_per_sample(
        dims in (1usize..=9, 1usize..=6),
        n in batch_sizes(),
        sparse in 0usize..2,
        seed in 0u64..1000,
    ) {
        let (in_dim, out_dim) = dims;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut batched = Linear::new(&mut rng, in_dim, out_dim, true, "fc");
        if sparse == 1 {
            sparsify(&mut batched.w, &mut rng);
        }
        let mut per_sample = batched.clone();
        let mut threaded = batched.clone();
        threaded.set_runtime(Runtime::exact(4));

        let x = Tensor::from_vec(rand_vec(&mut rng, n * in_dim), &[n, in_dim]);
        let out = batched.fwd(&x, Mode::Train);
        let go = Tensor::from_vec(rand_vec(&mut rng, out.numel()), out.shape());
        let gx = batched.bwd(&go);

        let out_t = threaded.fwd(&x, Mode::Train);
        let gx_t = threaded.bwd(&go);
        prop_assert_eq!(out_t.data(), out.data());
        prop_assert_eq!(gx_t.data(), gx.data());
        prop_assert_eq!(threaded.w.grad.data(), batched.w.grad.data());
        prop_assert_eq!(threaded.b.grad.data(), batched.b.grad.data());

        for i in 0..n {
            let xi = Tensor::from_vec(
                x.data()[i * in_dim..(i + 1) * in_dim].to_vec(),
                &[1, in_dim],
            );
            let oi = per_sample.fwd(&xi, Mode::Train);
            prop_assert_eq!(oi.data(), &out.data()[i * out_dim..(i + 1) * out_dim]);
            let goi = Tensor::from_vec(
                go.data()[i * out_dim..(i + 1) * out_dim].to_vec(),
                &[1, out_dim],
            );
            let gi = per_sample.bwd(&goi);
            prop_assert_eq!(gi.data(), &gx.data()[i * in_dim..(i + 1) * in_dim]);
        }
        // The retired engine already fed Linear whole batches, so batched dW
        // (one GEMM reduction over n) IS the legacy semantics; the per-sample
        // composition rounds into the accumulator after every sample and may
        // differ in the last ulp. Pin it near-equal; bias sums row-by-row in
        // the same order either way, so it stays exact.
        assert_close(per_sample.w.grad.data(), batched.w.grad.data());
        prop_assert_eq!(per_sample.b.grad.data(), batched.b.grad.data());
    }

    /// ReLU's arena-cached mask must behave per-sample too (regression guard
    /// for the branchless backward rewrite).
    #[test]
    fn relu_batched_matches_per_sample(
        len in 1usize..=64,
        n in batch_sizes(),
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut batched = Relu::new();
        let mut per_sample = Relu::new();
        let x = Tensor::from_vec(rand_vec(&mut rng, n * len), &[n, len]);
        let out = batched.fwd(&x, Mode::Train);
        let go = Tensor::from_vec(rand_vec(&mut rng, out.numel()), out.shape());
        let gx = batched.bwd(&go);
        for i in 0..n {
            let xi = Tensor::from_vec(
                x.data()[i * len..(i + 1) * len].to_vec(),
                &[1, len],
            );
            let oi = per_sample.fwd(&xi, Mode::Train);
            prop_assert_eq!(oi.data(), &out.data()[i * len..(i + 1) * len]);
            let goi = Tensor::from_vec(
                go.data()[i * len..(i + 1) * len].to_vec(),
                &[1, len],
            );
            let gi = per_sample.bwd(&goi);
            prop_assert_eq!(gi.data(), &gx.data()[i * len..(i + 1) * len]);
        }
    }
}

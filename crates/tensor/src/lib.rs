//! Minimal dense `f32` tensor library backing the FedTiny reproduction.
//!
//! This crate provides exactly the numerical substrate the federated pruning
//! stack needs and nothing more: a row-major [`Tensor`] type, the
//! [`LaneTensor`] a network's 4-D activations live in between its input and
//! its pooling head, blocked matrix multiplication, the two direct
//! convolution engines that execute every convolution ([`dconv_forward_rt`]
//! for dense weights, [`spconv_forward_rt`] for pruned ones, in `O(nnz)`
//! instead of `O(rows · cols)`), the CSR kernels behind a pruned `Linear`
//! ([`dsmm_nt_into_rt`], [`sddmm_tn_into_rt`], [`dsmm_into_rt`]), the
//! batch-norm kernels with their fused ReLU ([`bn_batch_stats`],
//! [`bn_normalize`], [`bn_backward`]), pooling, the residual add, the
//! rank rules' column sort ([`sorted_mean_into`]), elementwise arithmetic, reductions, seeded random initializers and the
//! int8 quantizer of the wire codecs.
//!
//! The GEMM and the kernels over a `LaneTensor` run on one of two kernel
//! families, AVX2+FMA or portable, picked in one place: each kernel is a job
//! handed to `lanes::run_lanes`.
//!
//! The root exports one entry point per kernel — the one its caller uses.
//! The im2col + GEMM / CSR route the convolution engines replaced, and the
//! scalar NCHW loops the batch-norm and pooling kernels replaced, survive as
//! their sequential test references, behind [`oracle`].
//!
//! Design notes:
//! - Shapes are validated eagerly; mismatches panic with a descriptive
//!   message (documented under "Panics" on each operation). This mirrors the
//!   behaviour of mainstream array libraries: shape errors are programming
//!   errors, not recoverable conditions.
//! - Everything is deterministic given a seeded RNG; all experiment code in
//!   the workspace threads `rand_chacha::ChaCha8Rng` seeds through.
//!
//! # Examples
//!
//! ```
//! use ft_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod act;
mod bn;
mod dconv;
mod im2col;
mod init;
mod lanes;
mod matmul;
mod ops;
mod pool;
mod proptests;
mod quant;
mod rank;
mod spconv;
mod spmm;
mod tensor;

pub use act::{relu_backward, residual_relu, LaneTensor};
pub use bn::{bn_backward, bn_batch_stats, bn_normalize};
pub use dconv::{dconv_backward_rt, dconv_forward_rt, ConvBufs};
pub use ft_runtime::Runtime;
pub use im2col::ConvGeom;
pub use init::{kaiming_normal, normal};
pub use matmul::{matmul_into, matmul_into_rt, matmul_nt_into_rt, matmul_tn_into_rt};
pub use pool::{avg_pool_global, avg_pool_global_backward, max_pool2x2, max_pool2x2_backward};
pub use quant::{dequantize_one, quantize_affine_i8, QuantParams};
pub use rank::{sorted_mean_into, RankScratch};
pub use spconv::{spconv_backward_rt, spconv_forward_rt, SpConvIndex};
// `spmm_into` and `sddmm_nt_into` are oracle kernels (see [`oracle`]): plain
// loops no production path calls. They stay at the root as well because the
// whole-run benchmark (`examples/ftbench`) times them under these names, as
// `tensor.spmm_gflops` and `tensor.sddmm_gflops`.
pub use spmm::{
    dsmm_into_rt, dsmm_nt_into_rt, sddmm_nt_into, sddmm_tn_into_rt, spmm_into, CsrView,
};
pub use tensor::Tensor;

/// The im2col route the direct convolution engines replaced, kept as their
/// reference: im2col, a GEMM ([`matmul_into`] / `matmul_nt_seg_into` /
/// [`matmul_tn_into_rt`]) or a CSR product, col2im. Sequential only — the
/// engines under test run on a pool, and the property pinned is "parallel
/// engine ≡ sequential oracle that shares no loop with it". Beside them, the
/// scalar NCHW batch-norm and pooling loops the lane kernels are pinned
/// `to_bits`-equal to, and the per-coordinate sort the rank rules' column
/// network replaced. Nothing outside tests and benches calls these.
pub mod oracle {
    pub use crate::bn::oracle::{bn_backward, bn_batch_stats, bn_normalize};
    pub use crate::im2col::{col2im, col2im_ld, im2col, im2col_batched};
    pub use crate::matmul::matmul_nt_seg_into;
    pub use crate::pool::oracle::{
        avg_pool_global_backward_into, avg_pool_global_into, max_pool2x2_backward_into,
        max_pool2x2_into,
    };
    pub use crate::rank::oracle::sorted_mean_into;
    pub use crate::spmm::{sddmm_nt_into, sddmm_nt_seg_into, spmm_into, spmm_tn_into};
}

/// Asserts that two `f32` slices are elementwise close.
///
/// Intended for tests; panics with the first offending index on failure.
///
/// # Panics
///
/// Panics if lengths differ or any pair differs by more than `tol`.
pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol,
            "index {i}: {x} vs {y} differ by more than {tol}"
        );
    }
}

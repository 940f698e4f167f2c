//! Property-based tests for the tensor substrate, including the sparse
//! execution kernels (CSR round-trips and spmm-vs-matmul equivalence).

#![cfg(test)]

use crate::oracle::{col2im, im2col, sddmm_nt_into, sddmm_nt_seg_into, spmm_into, spmm_tn_into};
use crate::{
    dsmm_into_rt, dsmm_nt_into_rt, matmul_into, matmul_into_rt, matmul_nt_into_rt,
    matmul_tn_into_rt, ConvGeom, Tensor,
};
use ft_runtime::Runtime;
use ft_sparse::CsrMatrix;
use proptest::prelude::*;

fn small_matrix(max: usize) -> impl Strategy<Value = Tensor> {
    (1..=max, 1..=max).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-2.0f32..2.0, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A · I = A and I · A = A.
    #[test]
    fn matmul_identity_laws(a in small_matrix(6)) {
        let (r, c) = (a.shape()[0], a.shape()[1]);
        let left = Tensor::eye(r).matmul(&a);
        let right = a.matmul(&Tensor::eye(c));
        for (x, y) in left.data().iter().zip(a.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        for (x, y) in right.data().iter().zip(a.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// (A + B) · C = A·C + B·C (distributivity).
    #[test]
    fn matmul_distributes(
        dims in (1usize..5, 1usize..5, 1usize..5),
        seed in 0u64..100,
    ) {
        use rand::{Rng, SeedableRng};
        let (m, k, n) = dims;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut t = |r: usize, c: usize| {
            Tensor::from_vec((0..r * c).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), &[r, c])
        };
        let a = t(m, k);
        let b = t(m, k);
        let c = t(k, n);
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Scaling commutes with matmul: (s·A)·B = s·(A·B).
    #[test]
    fn matmul_scales(s in -3.0f32..3.0, a in small_matrix(5)) {
        let b = Tensor::eye(a.shape()[1]);
        let lhs = a.scaled(s).matmul(&b);
        let rhs = a.matmul(&b).scaled(s);
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(a in small_matrix(8)) {
        prop_assert_eq!(a.transposed().transposed(), a);
    }

    /// im2col of a zero image is zero; col2im of a zero matrix adds nothing.
    #[test]
    fn im2col_zero_preserving(h in 3usize..8, w in 3usize..8, k in 1usize..4) {
        prop_assume!(k <= h && k <= w);
        let g = ConvGeom { in_c: 2, in_h: h, in_w: w, kernel: k, stride: 1, pad: 0 };
        let x = vec![0.0f32; 2 * h * w];
        let mut col = vec![1.0f32; g.col_rows() * g.col_cols()];
        im2col(&x, &g, &mut col);
        prop_assert!(col.iter().all(|&v| v == 0.0));
        let mut out = vec![7.0f32; 2 * h * w];
        col2im(&vec![0.0; g.col_rows() * g.col_cols()], &g, &mut out);
        prop_assert!(out.iter().all(|&v| v == 7.0));
    }

    /// The sum of an im2col matrix with stride 1 / pad 0 counts each pixel
    /// once per window it appears in — total mass is conserved per window
    /// count (linearity sanity check).
    #[test]
    fn im2col_is_linear(h in 3usize..6, seed in 0u64..50) {
        use rand::{Rng, SeedableRng};
        let g = ConvGeom { in_c: 1, in_h: h, in_w: h, kernel: 2, stride: 1, pad: 0 };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let x1: Vec<f32> = (0..h * h).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let x2: Vec<f32> = (0..h * h).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let n = g.col_rows() * g.col_cols();
        let (mut c1, mut c2, mut c12) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        im2col(&x1, &g, &mut c1);
        im2col(&x2, &g, &mut c2);
        let sum: Vec<f32> = x1.iter().zip(x2.iter()).map(|(a, b)| a + b).collect();
        im2col(&sum, &g, &mut c12);
        for i in 0..n {
            prop_assert!((c12[i] - c1[i] - c2[i]).abs() < 1e-5);
        }
    }
}

/// Rebuilds a `crate::CsrView` from a `CsrMatrix`'s raw parts.
///
/// The dev-dependency cycle (`ft-tensor` tests use `ft-sparse`, which
/// depends on `ft-tensor`) gives the test binary two distinct builds of
/// this crate, so `CsrMatrix::view()`'s `CsrView` is a different *type*
/// than `crate::CsrView` even though it is the same code. Reassembling the
/// view from raw slices sidesteps that.
pub(crate) fn view_of(csr: &CsrMatrix) -> crate::CsrView<'_> {
    crate::CsrView {
        rows: csr.rows(),
        cols: csr.cols(),
        row_ptr: csr.row_ptr(),
        col_idx: csr.col_idx(),
        vals: csr.vals(),
    }
}

/// A random mask + weight buffer for a `rows × cols` matrix: roughly a
/// `density` fraction of coordinates is alive, and some alive coordinates
/// hold an exact 0.0 (modelling freshly grown weights).
fn masked_weights(max_dim: usize) -> impl Strategy<Value = (usize, usize, Vec<bool>, Vec<f32>)> {
    (1..=max_dim, 1..=max_dim, 0.0f64..1.0, 0u64..1_000).prop_map(|(rows, cols, density, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mask: Vec<bool> = (0..rows * cols)
            .map(|_| rng.gen_range(0.0f64..1.0) < density)
            .collect();
        let weights: Vec<f32> = mask
            .iter()
            .map(|&alive| {
                if !alive || rng.gen_range(0.0f64..1.0) < 0.1 {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect();
        (rows, cols, mask, weights)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR round-trip: mask + flat params → CSR → dense reproduces the
    /// masked weights exactly, and the structure tracks the mask (not the
    /// zero pattern of the values).
    #[test]
    fn csr_roundtrip_reproduces_masked_weights((rows, cols, mask, weights) in masked_weights(12)) {
        let csr = CsrMatrix::from_mask_values(&mask, &weights, rows, cols);
        prop_assert_eq!(csr.nnz(), mask.iter().filter(|&&b| b).count());
        let dense = csr.to_dense();
        for i in 0..rows * cols {
            let expect = if mask[i] { weights[i] } else { 0.0 };
            prop_assert!(dense[i] == expect, "index {}: {} vs {}", i, dense[i], expect);
        }
    }

    /// Refreshing values after a simulated optimizer step keeps CSR and
    /// masked-dense views identical.
    #[test]
    fn csr_refresh_tracks_updates((rows, cols, mask, weights) in masked_weights(10), delta in -1.0f32..1.0) {
        let mut csr = CsrMatrix::from_mask_values(&mask, &weights, rows, cols);
        let updated: Vec<f32> = weights.iter().map(|&w| w + delta).collect();
        csr.refresh_values(&updated);
        let dense = csr.to_dense();
        for i in 0..rows * cols {
            let expect = if mask[i] { updated[i] } else { 0.0 };
            prop_assert!(dense[i] == expect);
        }
    }

    /// `spmm_into` agrees with the dense GEMM on the mask-zeroed matrix.
    #[test]
    fn spmm_matches_matmul((rows, cols, mask, weights) in masked_weights(9), n in 1usize..8) {
        let csr = CsrMatrix::from_mask_values(&mask, &weights, rows, cols);
        let dense = Tensor::from_vec(csr.to_dense(), &[rows, cols]);
        let b = rand_matrix(cols, n, 42);
        let mut out_sparse = Tensor::zeros(&[rows, n]);
        let mut out_dense = Tensor::zeros(&[rows, n]);
        spmm_into(view_of(&csr), &b, &mut out_sparse);
        matmul_into(&dense, &b, &mut out_dense);
        close(out_sparse.data(), out_dense.data());
    }

    /// `spmm_tn_into` agrees with the dense transposed GEMM.
    #[test]
    fn spmm_tn_matches_matmul_tn((rows, cols, mask, weights) in masked_weights(9), n in 1usize..8) {
        let csr = CsrMatrix::from_mask_values(&mask, &weights, rows, cols);
        let dense = Tensor::from_vec(csr.to_dense(), &[rows, cols]);
        let b = rand_matrix(rows, n, 43);
        let mut out_sparse = Tensor::zeros(&[cols, n]);
        let mut out_dense = Tensor::zeros(&[cols, n]);
        spmm_tn_into(view_of(&csr), &b, &mut out_sparse);
        matmul_tn_into_rt(&Runtime::sequential(), &dense, &b, &mut out_dense);
        close(out_sparse.data(), out_dense.data());
    }

    /// The dense×sparse kernels agree with their dense counterparts.
    #[test]
    fn dsmm_variants_match_dense((rows, cols, mask, weights) in masked_weights(9), m in 1usize..8) {
        let csr = CsrMatrix::from_mask_values(&mask, &weights, rows, cols);
        let dense = Tensor::from_vec(csr.to_dense(), &[rows, cols]);
        // C += A · S
        let a = rand_matrix(m, rows, 44);
        let mut out_sparse = Tensor::zeros(&[m, cols]);
        let mut out_dense = Tensor::zeros(&[m, cols]);
        dsmm_into_rt(&Runtime::sequential(), &a, view_of(&csr), &mut out_sparse);
        matmul_into(&a, &dense, &mut out_dense);
        close(out_sparse.data(), out_dense.data());
        // C += A · Sᵀ
        let a = rand_matrix(m, cols, 45);
        let mut out_sparse = Tensor::zeros(&[m, rows]);
        let mut out_dense = Tensor::zeros(&[m, rows]);
        dsmm_nt_into_rt(&Runtime::sequential(), &a, view_of(&csr), &mut out_sparse);
        matmul_nt_into_rt(&Runtime::sequential(), &a, &dense, &mut out_dense);
        close(out_sparse.data(), out_dense.data());
    }

    /// The runtime determinism contract: for arbitrary shapes, densities,
    /// and thread counts, the parallel matmul is **bit-for-bit** equal to
    /// its sequential form (`==` on the raw f32 buffers, no tolerance).
    #[test]
    fn rt_kernels_bit_equal_sequential(
        (rows, cols, mask, weights) in masked_weights(9),
        n in 1usize..8,
        threads in 1usize..9,
    ) {
        let rt = Runtime::exact(threads).with_min_work(0);
        let csr = CsrMatrix::from_mask_values(&mask, &weights, rows, cols);
        let dense = Tensor::from_vec(csr.to_dense(), &[rows, cols]);

        // matmul: C += D · B
        let b = rand_matrix(cols, n, 46);
        let mut seq = Tensor::ones(&[rows, n]);
        let mut par = Tensor::ones(&[rows, n]);
        matmul_into(&dense, &b, &mut seq);
        matmul_into_rt(&rt, &dense, &b, &mut par);
        prop_assert_eq!(seq.data(), par.data());
    }

    /// Both sampled NT kernels keep every slot `to_bits`-equal to one
    /// sequential `acc += a·b` chain per segment (`vals += acc` after each),
    /// for row lengths 0–9 and every segment width.
    #[test]
    fn sddmm_nt_bit_equal_one_chain_oracle(
        row_lens in proptest::collection::vec(0usize..10, 1..6),
        segs in 1usize..4,
        seed in 0u64..1_000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (rows, cols, c) = (row_lens.len(), 12usize, 16 * segs);
        let mut row_ptr = vec![0usize];
        let mut col_idx: Vec<u32> = Vec::new();
        for &len in &row_lens {
            let first = rng.gen_range(0..=cols - len);
            col_idx.extend((first..first + len).map(|j| j as u32));
            row_ptr.push(col_idx.len());
        }
        let structure = vec![0.0f32; col_idx.len()];
        let view = crate::CsrView { rows, cols, row_ptr: &row_ptr, col_idx: &col_idx, vals: &structure };
        let a = rand_matrix(rows, c, seed + 1);
        let b = rand_matrix(cols, c, seed + 2);

        let oracle = |seg: usize| {
            let mut vals = vec![0.25f32; col_idx.len()];
            for r in 0..rows {
                for nz in row_ptr[r]..row_ptr[r + 1] {
                    let j = col_idx[nz] as usize;
                    for off in (0..c).step_by(seg) {
                        let mut acc = 0.0f32;
                        for i in off..off + seg {
                            acc += a.data()[r * c + i] * b.data()[j * c + i];
                        }
                        vals[nz] += acc;
                    }
                }
            }
            vals
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut vals = vec![0.25f32; col_idx.len()];
        sddmm_nt_into(view, &a, &b, &mut vals);
        prop_assert_eq!(bits(&vals), bits(&oracle(c)), "unsegmented");
        for seg in [1usize, 4, 16, c] {
            let mut vals = vec![0.25f32; col_idx.len()];
            sddmm_nt_seg_into(view, &a, &b, seg, &mut vals);
            prop_assert_eq!(bits(&vals), bits(&oracle(seg)), "seg={}", seg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The direct sparse convolution against the route it replaced —
    /// `im2col_batched` → `spmm_into` / `sddmm_nt_seg_into(seg = cc)` /
    /// `spmm_tn_into` → per-sample `col2im_ld` — `to_bits`-equal in the
    /// output, the weight gradient accumulated over two consecutive batches
    /// and the input gradient: non-square planes down to one pixel, 1×1 and
    /// 3×3 taps, both strides, with and without padding, batches around the
    /// eight-sample group, structures from empty to full with an empty row
    /// and an empty column, sequentially and on four workers.
    #[test]
    fn spconv_matches_im2col_csr_bit_for_bit(
        (in_c, out_c) in (1usize..=6, 1usize..=9),
        (in_h, in_w) in (1usize..=10, 1usize..=10),
        (kernel, stride, pad) in (0usize..2, 1usize..=2, 0usize..=1),
        (batch, density) in (0usize..5, 0usize..4),
        dead in (0usize..9, 0usize..54),
        seed in 0u64..1_000,
    ) {
        use crate::spconv::tests::{assert_matches_oracle, random_weight};
        use rand::SeedableRng;
        let kernel = [1usize, 3][kernel];
        prop_assume!(in_h != in_w && in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel);
        let n = [1usize, 7, 8, 9, 18][batch];
        let density = [0.0f64, 0.05, 0.5, 1.0][density];
        let g = ConvGeom { in_c, in_h, in_w, kernel, stride, pad };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let w = random_weight(out_c, g.col_rows(), density, dead, &mut rng);
        for rt in [Runtime::sequential(), Runtime::exact(4).with_min_work(0)] {
            assert_matches_oracle(&rt, &w, &g, &[n, n], &mut rng);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The direct dense convolution against the route it replaced —
    /// `im2col_batched` → `matmul_into` / `matmul_nt_seg_into(seg = cc)` /
    /// `matmul_tn_into_rt` → per-sample `col2im_ld` — `to_bits`-equal in the
    /// output, the weight gradient accumulated over two consecutive batches
    /// (with and without the input gradient) and the input gradient:
    /// non-square planes down to one pixel, 1×1 and 3×3 taps, both strides,
    /// with and without padding, channel counts on both sides of the register
    /// blocks, batches around the eight-sample group, sequentially and on
    /// four workers.
    #[test]
    fn dconv_matches_im2col_gemm_bit_for_bit(
        (in_c, out_c) in (1usize..=13, 1usize..=13),
        (in_h, in_w) in (1usize..=10, 1usize..=10),
        (kernel, stride, pad) in (0usize..2, 1usize..=2, 0usize..=1),
        batch in 0usize..5,
        seed in 0u64..1_000,
    ) {
        use crate::dconv::tests::assert_matches_oracle;
        use crate::spconv::tests::rand_vec;
        use rand::SeedableRng;
        let kernel = [1usize, 3][kernel];
        prop_assume!(in_h != in_w && in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel);
        let n = [1usize, 7, 8, 9, 18][batch];
        let g = ConvGeom { in_c, in_h, in_w, kernel, stride, pad };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let w = rand_vec(out_c * g.col_rows(), &mut rng);
        for rt in [Runtime::sequential(), Runtime::exact(4).with_min_work(0)] {
            assert_matches_oracle(&rt, &w, &g, &[n, n], &mut rng);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batch-norm kernels against the NCHW loops they replaced
    /// (`crate::oracle::bn_*`, then `max(·, 0)` and its mask when the ReLU
    /// is fused), `to_bits`-equal, at random batches, channel counts off
    /// the eight-channel block and planes, with and without the ReLU, into
    /// outputs with and without a ring (see `bn::tests::assert_bn_matches`).
    #[test]
    fn bn_kernels_match_oracle_bit_for_bit(
        (n, c) in (1usize..=40, 1usize..=130),
        (h, w) in (1usize..=16, 1usize..=16),
        (relu, ring) in (0usize..2, 0usize..2),
        seed in 0u64..1_000,
    ) {
        crate::bn::tests::assert_bn_matches([n, c, h, w], relu == 1, ring, seed);
    }
}

/// Dimensions adversarial to the blocked GEMM: 1, the register-tile edges
/// and cache-block edges ± 1, and values straddling the packing panels —
/// every combination exercises partial microtiles, partial panels, and
/// tall-skinny / wide shapes.
fn adversarial_dim() -> impl Strategy<Value = usize> {
    const DIMS: [usize; 20] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 97, 130, 255, 257,
    ];
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

/// Thread counts adversarial to the row-splitting fan-out: non-divisors of
/// most row counts and a pool far larger than any test matrix.
fn adversarial_threads() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1usize, 2, 3, 64][i])
}

/// Plain-triple-loop reference GEMM with `f64` accumulation.
fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a[i * k + p] as f64 * b[p * n + j] as f64;
            }
            c[i * n + j] = acc as f32;
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The blocked, packed GEMM agrees with a naive reference on shapes
    /// chosen to straddle every tile and panel boundary, for all three
    /// layouts.
    #[test]
    fn blocked_gemm_matches_naive_on_adversarial_shapes(
        m in adversarial_dim(),
        k in adversarial_dim(),
        n in adversarial_dim(),
        seed in 0u64..1_000,
    ) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 0xDEAD);
        let reference = naive_matmul(a.data(), b.data(), m, k, n);
        let tol = 1e-4 * (k as f32).sqrt().max(1.0);

        let mut c = Tensor::zeros(&[m, n]);
        matmul_into(&a, &b, &mut c);
        for (i, (x, y)) in c.data().iter().zip(reference.iter()).enumerate() {
            prop_assert!((x - y).abs() <= tol, "matmul index {}: {} vs {}", i, x, y);
        }

        let at = a.transposed();
        let mut c = Tensor::zeros(&[m, n]);
        matmul_tn_into_rt(&Runtime::sequential(), &at, &b, &mut c);
        for (i, (x, y)) in c.data().iter().zip(reference.iter()).enumerate() {
            prop_assert!((x - y).abs() <= tol, "matmul_tn index {}: {} vs {}", i, x, y);
        }

        let bt = b.transposed();
        let mut c = Tensor::zeros(&[m, n]);
        matmul_nt_into_rt(&Runtime::sequential(), &a, &bt, &mut c);
        for (i, (x, y)) in c.data().iter().zip(reference.iter()).enumerate() {
            prop_assert!((x - y).abs() <= tol, "matmul_nt index {}: {} vs {}", i, x, y);
        }
    }

    /// The blocked dense `_rt` kernels stay bit-identical to sequential on
    /// adversarial shapes at awkward thread counts (non-divisors of the row
    /// count and pools larger than the matrix).
    #[test]
    fn blocked_gemm_rt_bit_equal_on_adversarial_shapes(
        m in adversarial_dim(),
        k in adversarial_dim(),
        n in adversarial_dim(),
        threads in adversarial_threads(),
        seed in 0u64..1_000,
    ) {
        let rt = Runtime::exact(threads).with_min_work(0);
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 0xBEEF);
        let mut seq = Tensor::ones(&[m, n]);
        let mut par = Tensor::ones(&[m, n]);
        matmul_into(&a, &b, &mut seq);
        matmul_into_rt(&rt, &a, &b, &mut par);
        prop_assert_eq!(seq.data(), par.data());
    }
}

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_vec(
        (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
        &[rows, cols],
    )
}

fn close(a: &[f32], b: &[f32]) {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!((x - y).abs() <= 1e-4, "index {i}: {x} vs {y}");
    }
}

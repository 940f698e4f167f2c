//! Sparse matrix kernels over a borrowed CSR view.
//!
//! Each kernel touches only the stored nonzeros, so work scales with `nnz`
//! rather than `rows · cols`. They fall in two groups (`S` is the CSR
//! operand, `A`/`B` dense):
//!
//! **Production — `Linear`'s sparse path.** When a prunable `Linear`'s
//! weight density drops below the dispatch crossover, `ft-nn` repacks the
//! weight into CSR (see `ft_sparse::CsrMatrix`) and routes its three GEMMs
//! here instead of [`crate::matmul`]. `ResNet18`'s and `SmallCnn`'s
//! classifiers are not prunable; `Vgg11`'s hidden classifier is, and VGG11
//! is the model of `fig4_ablation`, `fig5_pool_size`, `table1_cost`,
//! `table2_bn_overhead` and `table3_schedule` — that layer is these
//! kernels' user. Each takes a [`Runtime`]: output rows (or CSR rows, for the
//! sampled product) are partitioned into deterministic contiguous chunks and
//! every worker runs the same loop body over its range, so results are
//! bit-for-bit identical for any thread count.
//!
//! - [`dsmm_nt_into_rt`]: `C += A · Sᵀ` (forward, `Y = X · Wᵀ`)
//! - [`sddmm_tn_into_rt`]: `vals[nz] += Σₙ A[n, row(nz)] · B[n, col(nz)]`
//!   (the weight gradient at mask-alive coordinates only)
//! - [`dsmm_into_rt`]: `C += A · S` (input gradient, `dX = dY · W`)
//!
//! **Oracle — the im2col + CSR convolution route.** Convolutions run on
//! [`crate::spconv_forward_rt`]; the route it replaced is what its tests pin
//! it to, bit for bit. These are sequential only and reached through
//! [`crate::oracle`] (`spmm_into` and `sddmm_nt_into` also stay at the crate
//! root, where the whole-run benchmark times them).
//!
//! - [`spmm_into`]: `C += S · B` (sparse × dense)
//! - [`spmm_tn_into`]: `C += Sᵀ · B`
//! - [`sddmm_nt_into`] / [`sddmm_nt_seg_into`]:
//!   `vals[nz] += A[row(nz), :] · B[col(nz), :]`, whole or per column segment
//!
//! All kernels accumulate into their output, matching the dense `_into`
//! conventions.

use crate::matmul::simd_active;
use crate::Tensor;
use ft_runtime::Runtime;
use std::ops::Range;

/// A borrowed compressed-sparse-row matrix.
///
/// `row_ptr` has `rows + 1` entries; row `r`'s nonzeros live at
/// `row_ptr[r]..row_ptr[r + 1]` in `col_idx` / `vals`. Column indices are
/// `u32` to halve index memory traffic (no layer in this workspace is
/// anywhere near 2³² columns).
#[derive(Clone, Copy, Debug)]
pub struct CsrView<'a> {
    /// Number of rows of the logical dense matrix.
    pub rows: usize,
    /// Number of columns of the logical dense matrix.
    pub cols: usize,
    /// Row start offsets (`rows + 1` entries, last is `nnz`).
    pub row_ptr: &'a [usize],
    /// Column index of each stored entry.
    pub col_idx: &'a [u32],
    /// Value of each stored entry.
    pub vals: &'a [f32],
}

impl<'a> CsrView<'a> {
    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Checks the structural invariants (row pointer from 0 to `nnz` and
    /// monotone, column indices in range, parallel arrays equal length).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn validate(&self) {
        assert_eq!(
            self.row_ptr.len(),
            self.rows + 1,
            "csr row_ptr must have rows + 1 entries"
        );
        assert_eq!(
            self.col_idx.len(),
            self.vals.len(),
            "csr col_idx/vals length mismatch"
        );
        assert_eq!(self.row_ptr[0], 0, "csr row_ptr must start at 0");
        assert_eq!(
            *self.row_ptr.last().unwrap_or(&0),
            self.vals.len(),
            "csr row_ptr must end at nnz"
        );
        assert!(
            self.row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "csr row_ptr must be non-decreasing"
        );
        debug_assert!(
            self.col_idx.iter().all(|&c| (c as usize) < self.cols),
            "csr column index out of range"
        );
    }
}

/// `C += S[m×k] · B[k×n]`.
///
/// The sparse analogue of [`crate::matmul_into`]: row `i` of `C` accumulates
/// `v · B[j, :]` for every stored `(i, j, v)`, in ascending stored order.
/// Each step is one fused multiply-add exactly when `simd_active()` (the
/// AVX2+FMA family, the rounding [`crate::spconv_forward_rt`]'s forward
/// pass is pinned to) and a multiply then an add otherwise.
///
/// # Panics
///
/// Panics if shapes are incompatible or the view is malformed.
///
/// # Examples
///
/// ```
/// use ft_tensor::{spmm_into, CsrView, Tensor};
///
/// // S = [[2, 0], [0, 3]] in CSR.
/// let s = CsrView { rows: 2, cols: 2, row_ptr: &[0, 1, 2], col_idx: &[0, 1], vals: &[2.0, 3.0] };
/// let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let mut c = Tensor::zeros(&[2, 2]);
/// spmm_into(s, &b, &mut c);
/// assert_eq!(c.data(), &[2.0, 4.0, 9.0, 12.0]);
/// ```
pub fn spmm_into(s: CsrView<'_>, b: &Tensor, c: &mut Tensor) {
    let n = check_spmm(&s, b, c);
    let fused = simd_active();
    let (bd, cd) = (b.data(), c.data_mut());
    for i in 0..s.rows {
        let crow = &mut cd[i * n..(i + 1) * n];
        for nz in s.row_ptr[i]..s.row_ptr[i + 1] {
            let (v, brow) = (s.vals[nz], &bd[s.col_idx[nz] as usize * n..][..n]);
            if fused {
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv = v.mul_add(bv, *cv);
                }
            } else {
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += v * bv;
                }
            }
        }
    }
}

fn check_spmm(s: &CsrView<'_>, b: &Tensor, c: &Tensor) -> usize {
    s.validate();
    let (k, n) = dims2(b, "B");
    assert_eq!(k, s.cols, "spmm inner dims differ: {} vs {k}", s.cols);
    let (cm, cn) = dims2(c, "C");
    assert_eq!((cm, cn), (s.rows, n), "spmm output shape mismatch");
    n
}

/// `C += Sᵀ · B` where `S` is `[k×m]` CSR and `B` is `[k×n]`.
///
/// The sparse analogue of [`crate::matmul_tn_into_rt`]: for every stored
/// `(p, i, v)` the kernel scatters `v · B[p, :]` into `C[i, :]`.
///
/// # Panics
///
/// Panics if shapes are incompatible or the view is malformed.
pub fn spmm_tn_into(s: CsrView<'_>, b: &Tensor, c: &mut Tensor) {
    let n = check_spmm_tn(&s, b, c);
    spmm_tn_rows(s, b.data(), n, c.data_mut());
}

fn check_spmm_tn(s: &CsrView<'_>, b: &Tensor, c: &Tensor) -> usize {
    s.validate();
    let (k, n) = dims2(b, "B");
    assert_eq!(k, s.rows, "spmm_tn inner dims differ: {} vs {k}", s.rows);
    let (cm, cn) = dims2(c, "C");
    assert_eq!((cm, cn), (s.cols, n), "spmm_tn output shape mismatch");
    n
}

/// `C += Sᵀ · B`: scans every stored entry in sequential order, scattering
/// `v · B[p, :]` into the output row its column index names.
fn spmm_tn_rows(s: CsrView<'_>, bd: &[f32], n: usize, cd: &mut [f32]) {
    for p in 0..s.rows {
        let brow = &bd[p * n..(p + 1) * n];
        for nz in s.row_ptr[p]..s.row_ptr[p + 1] {
            let (i, v) = (s.col_idx[nz] as usize, s.vals[nz]);
            let crow = &mut cd[i * n..(i + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                *cv += v * bv;
            }
        }
    }
}

/// `C += A[m×k] · S` where `S` is `[k×n]` CSR, the output rows fanned out
/// over `rt`'s workers (bit-identical for any thread count).
///
/// Production — `Linear`'s input gradient (`dX = dY · W`), reached through
/// VGG11's hidden classifier: each scalar `A[i, p]` scatters
/// `A[i, p] · S[p, :]` along the sparse row.
///
/// # Panics
///
/// Panics if shapes are incompatible or the view is malformed.
pub fn dsmm_into_rt(rt: &Runtime, a: &Tensor, s: CsrView<'_>, c: &mut Tensor) {
    let (m, k) = check_dsmm(a, &s, c);
    if !rt.should_parallelize(m.saturating_mul(s.nnz())) || m <= 1 {
        return dsmm_rows(a.data(), s, k, 0..m, c.data_mut());
    }
    let ad = a.data();
    let jobs = rt.split_rows_mut(c.data_mut(), s.cols.max(1));
    rt.scatter(jobs, |(rows, cchunk)| {
        dsmm_rows(ad, s, k, rows, cchunk);
    });
}

fn check_dsmm(a: &Tensor, s: &CsrView<'_>, c: &Tensor) -> (usize, usize) {
    s.validate();
    let (m, k) = dims2(a, "A");
    assert_eq!(k, s.rows, "dsmm inner dims differ: {k} vs {}", s.rows);
    let (cm, cn) = dims2(c, "C");
    assert_eq!((cm, cn), (m, s.cols), "dsmm output shape mismatch");
    (m, k)
}

/// `C += A · S` restricted to the output-row range `rows`.
fn dsmm_rows(ad: &[f32], s: CsrView<'_>, k: usize, rows: Range<usize>, cchunk: &mut [f32]) {
    for (local, i) in rows.enumerate() {
        let arow = &ad[i * k..(i + 1) * k];
        let crow = &mut cchunk[local * s.cols..(local + 1) * s.cols];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for nz in s.row_ptr[p]..s.row_ptr[p + 1] {
                crow[s.col_idx[nz] as usize] += av * s.vals[nz];
            }
        }
    }
}

/// `C += A[m×k] · Sᵀ` where `S` is `[n×k]` CSR, the output rows fanned out
/// over `rt`'s workers (bit-identical for any thread count).
///
/// Production — `Linear`'s forward pass (`Y = X · Wᵀ`), reached through
/// VGG11's hidden classifier: `C[i, r]` accumulates the dot product of
/// `A[i, :]` with sparse row `r`, gathering from the dense row.
///
/// # Panics
///
/// Panics if shapes are incompatible or the view is malformed.
pub fn dsmm_nt_into_rt(rt: &Runtime, a: &Tensor, s: CsrView<'_>, c: &mut Tensor) {
    let (m, k) = check_dsmm_nt(a, &s, c);
    if !rt.should_parallelize(m.saturating_mul(s.nnz())) || m <= 1 {
        return dsmm_nt_rows(a.data(), s, k, 0..m, c.data_mut());
    }
    let ad = a.data();
    let jobs = rt.split_rows_mut(c.data_mut(), s.rows.max(1));
    rt.scatter(jobs, |(rows, cchunk)| {
        dsmm_nt_rows(ad, s, k, rows, cchunk);
    });
}

fn check_dsmm_nt(a: &Tensor, s: &CsrView<'_>, c: &Tensor) -> (usize, usize) {
    s.validate();
    let (m, k) = dims2(a, "A");
    assert_eq!(k, s.cols, "dsmm_nt inner dims differ: {k} vs {}", s.cols);
    let (cm, cn) = dims2(c, "C");
    assert_eq!((cm, cn), (m, s.rows), "dsmm_nt output shape mismatch");
    (m, k)
}

/// `C += A · Sᵀ` restricted to the output-row range `rows`.
fn dsmm_nt_rows(ad: &[f32], s: CsrView<'_>, k: usize, rows: Range<usize>, cchunk: &mut [f32]) {
    for (local, i) in rows.enumerate() {
        let arow = &ad[i * k..(i + 1) * k];
        let crow = &mut cchunk[local * s.rows..(local + 1) * s.rows];
        for (r, cv) in crow.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for nz in s.row_ptr[r]..s.row_ptr[r + 1] {
                acc += s.vals[nz] * arow[s.col_idx[nz] as usize];
            }
            *cv += acc;
        }
    }
}

/// Sampled dense–dense product, NT layout: for each stored coordinate
/// `(r, j)` of the structure `s`, accumulates `A[r, :] · B[j, :]` into
/// `vals[nz]`.
///
/// This computes `(A · Bᵀ) ⊙ structure(S)` without materializing the dense
/// product — exactly the masked weight gradient `dW = dY · colᵀ` restricted
/// to mask-alive coordinates. `s.vals` is ignored (structure only). It is
/// [`sddmm_nt_seg_into`] with one segment spanning the inner dimension.
///
/// # Panics
///
/// Panics if shapes are incompatible, the view is malformed, or `vals` does
/// not have one slot per stored entry.
pub fn sddmm_nt_into(s: CsrView<'_>, a: &Tensor, b: &Tensor, vals: &mut [f32]) {
    let c = check_sddmm_nt(&s, a, b, vals);
    // An empty inner dimension has no segment to sum, at any width.
    sddmm_nt_seg(s, a.data(), b.data(), c, c.max(1), vals);
}

/// Segmented [`sddmm_nt_into`]: the dot product for every stored coordinate
/// is evaluated one `seg`-wide column segment at a time (fresh accumulator
/// per segment, `vals[nz] += acc` after each), ascending. Bit-identical to
/// calling [`sddmm_nt_into`] once per materialized segment pair — the
/// batched form of the per-sample masked weight-gradient loop (`seg` = one
/// sample's columns).
///
/// # Panics
///
/// Panics on the same shape mismatches as [`sddmm_nt_into`], or when `seg`
/// is zero or does not divide the inner dimension.
pub fn sddmm_nt_seg_into(s: CsrView<'_>, a: &Tensor, b: &Tensor, seg: usize, vals: &mut [f32]) {
    let c = check_sddmm_nt(&s, a, b, vals);
    assert!(
        seg > 0 && c.is_multiple_of(seg),
        "sddmm_nt_seg: segment {seg} must divide c={c}"
    );
    sddmm_nt_seg(s, a.data(), b.data(), c, seg, vals);
}

/// Per stored entry and per `seg`-wide segment, ascending: one mul-then-add
/// chain from `+0.0`, added into the entry's slot.
fn sddmm_nt_seg(s: CsrView<'_>, ad: &[f32], bd: &[f32], c: usize, seg: usize, vals: &mut [f32]) {
    for r in 0..s.rows {
        let arow = &ad[r * c..(r + 1) * c];
        for nz in s.row_ptr[r]..s.row_ptr[r + 1] {
            let brow = &bd[s.col_idx[nz] as usize * c..][..c];
            for (asg, bsg) in arow.chunks_exact(seg).zip(brow.chunks_exact(seg)) {
                let mut acc = 0.0f32;
                for (&av, &bv) in asg.iter().zip(bsg) {
                    acc += av * bv;
                }
                vals[nz] += acc;
            }
        }
    }
}

fn check_sddmm_nt(s: &CsrView<'_>, a: &Tensor, b: &Tensor, vals: &[f32]) -> usize {
    s.validate();
    let (m, c) = dims2(a, "A");
    let (k, c2) = dims2(b, "B");
    assert_eq!(c, c2, "sddmm_nt inner dims differ: {c} vs {c2}");
    assert_eq!(m, s.rows, "sddmm_nt row count mismatch");
    assert_eq!(k, s.cols, "sddmm_nt col count mismatch");
    assert_eq!(vals.len(), s.nnz(), "sddmm_nt output slot count mismatch");
    c
}

/// Sampled dense–dense product, TN layout: for each stored coordinate
/// `(r, j)` of the structure `s`, accumulates `Σₙ A[n, r] · B[n, j]` into
/// `vals[nz]`.
///
/// Production — `Linear`'s masked weight gradient, reached through VGG11's
/// hidden classifier: this computes `(Aᵀ · B) ⊙ structure(S)`, i.e.
/// `dW = dYᵀ · X` restricted to mask-alive coordinates. `s.vals` is ignored
/// (structure only). The CSR rows fan out over `rt`'s workers (the `vals`
/// buffer is split at `row_ptr` boundaries; every worker keeps the
/// batch-outer loop, so per-slot accumulation order is unchanged):
/// bit-identical for any thread count.
///
/// # Panics
///
/// Panics if shapes are incompatible, the view is malformed, or `vals` does
/// not have one slot per stored entry.
pub fn sddmm_tn_into_rt(rt: &Runtime, s: CsrView<'_>, a: &Tensor, b: &Tensor, vals: &mut [f32]) {
    let (n1, r, k) = check_sddmm_tn(&s, a, b, vals);
    if !rt.should_parallelize(n1.saturating_mul(s.nnz())) || s.rows <= 1 {
        return sddmm_tn_rows(s, a.data(), b.data(), n1, r, k, 0..s.rows, vals);
    }
    let (ad, bd) = (a.data(), b.data());
    let jobs = rt.split_at_offsets_mut(vals, s.rows, |row| s.row_ptr[row]);
    rt.scatter(jobs, |(rows, chunk)| {
        sddmm_tn_rows(s, ad, bd, n1, r, k, rows, chunk);
    });
}

fn check_sddmm_tn(s: &CsrView<'_>, a: &Tensor, b: &Tensor, vals: &[f32]) -> (usize, usize, usize) {
    s.validate();
    let (n1, r) = dims2(a, "A");
    let (n2, k) = dims2(b, "B");
    assert_eq!(n1, n2, "sddmm_tn batch dims differ: {n1} vs {n2}");
    assert_eq!(r, s.rows, "sddmm_tn row count mismatch");
    assert_eq!(k, s.cols, "sddmm_tn col count mismatch");
    assert_eq!(vals.len(), s.nnz(), "sddmm_tn output slot count mismatch");
    (n1, r, k)
}

/// Sampled TN product over the CSR-row range `rows`; `vals_chunk` holds
/// exactly the stored entries of those rows. The batch loop stays outermost
/// so every slot accumulates samples in ascending order, exactly like the
/// sequential kernel.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's natural operands
fn sddmm_tn_rows(
    s: CsrView<'_>,
    ad: &[f32],
    bd: &[f32],
    n1: usize,
    r: usize,
    k: usize,
    rows: Range<usize>,
    vals_chunk: &mut [f32],
) {
    let base = s.row_ptr[rows.start];
    // Batch-outer loop streams both dense operands once per sample.
    for n in 0..n1 {
        let arow = &ad[n * r..(n + 1) * r];
        let brow = &bd[n * k..(n + 1) * k];
        for row in rows.clone() {
            let av = arow[row];
            if av == 0.0 {
                continue;
            }
            let range = s.row_ptr[row]..s.row_ptr[row + 1];
            let local = range.start - base..range.end - base;
            for (&j, val) in s.col_idx[range].iter().zip(&mut vals_chunk[local]) {
                *val += av * brow[j as usize];
            }
        }
    }
}

fn dims2(t: &Tensor, name: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().len(),
        2,
        "{name} must be rank-2, got shape {:?}",
        t.shape()
    );
    (t.shape()[0], t.shape()[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_close, matmul_into, matmul_nt_into_rt, matmul_tn_into_rt};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// An owned CSR fixture plus its dense equivalent.
    struct Fixture {
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f32>,
        dense: Tensor,
    }

    impl Fixture {
        fn random(rows: usize, cols: usize, density: f64, seed: u64) -> Self {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut row_ptr = vec![0usize];
            let mut col_idx = Vec::new();
            let mut vals = Vec::new();
            let mut dense = Tensor::zeros(&[rows, cols]);
            for r in 0..rows {
                for c in 0..cols {
                    if rng.gen_range(0.0f64..1.0) < density {
                        let v = rng.gen_range(-1.0f32..1.0);
                        col_idx.push(c as u32);
                        vals.push(v);
                        dense.data_mut()[r * cols + c] = v;
                    }
                }
                row_ptr.push(vals.len());
            }
            Fixture {
                rows,
                cols,
                row_ptr,
                col_idx,
                vals,
                dense,
            }
        }

        fn view(&self) -> CsrView<'_> {
            CsrView {
                rows: self.rows,
                cols: self.cols,
                row_ptr: &self.row_ptr,
                col_idx: &self.col_idx,
                vals: &self.vals,
            }
        }
    }

    fn rand_t(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), shape)
    }

    /// Empty to full structures, and a wide `B` (`n = 273`) whose rows hold
    /// four or more stored entries plus a tail.
    #[test]
    fn spmm_matches_dense() {
        for (seed, (m, k, n), density, tol) in [
            (1u64, (7, 5, 9), 0.1, 1e-5),
            (2, (7, 5, 9), 0.5, 1e-5),
            (3, (7, 5, 9), 1.0, 1e-5),
            (4, (7, 5, 9), 0.0, 1e-5),
            (77, (13, 40, 273), 0.35, 1e-4),
        ] {
            let f = Fixture::random(m, k, density, seed);
            let b = rand_t(&[k, n], seed + 100);
            let mut sparse = Tensor::ones(&[m, n]);
            let mut dense = Tensor::ones(&[m, n]);
            spmm_into(f.view(), &b, &mut sparse);
            matmul_into(&f.dense, &b, &mut dense);
            assert_close(sparse.data(), dense.data(), tol);
        }
    }

    #[test]
    fn spmm_tn_matches_dense() {
        for seed in 1..5u64 {
            let f = Fixture::random(6, 4, 0.4, seed);
            let b = rand_t(&[6, 8], seed + 200);
            let mut sparse = Tensor::zeros(&[4, 8]);
            let mut dense = Tensor::zeros(&[4, 8]);
            spmm_tn_into(f.view(), &b, &mut sparse);
            matmul_tn_into_rt(&Runtime::sequential(), &f.dense, &b, &mut dense);
            assert_close(sparse.data(), dense.data(), 1e-5);
        }
    }

    #[test]
    fn dsmm_matches_dense() {
        for seed in 1..5u64 {
            let f = Fixture::random(5, 7, 0.3, seed);
            let a = rand_t(&[3, 5], seed + 300);
            let mut sparse = Tensor::zeros(&[3, 7]);
            let mut dense = Tensor::zeros(&[3, 7]);
            dsmm_into_rt(&Runtime::sequential(), &a, f.view(), &mut sparse);
            matmul_into(&a, &f.dense, &mut dense);
            assert_close(sparse.data(), dense.data(), 1e-5);
        }
    }

    #[test]
    fn dsmm_nt_matches_dense() {
        for seed in 1..5u64 {
            let f = Fixture::random(6, 5, 0.3, seed);
            let a = rand_t(&[4, 5], seed + 400);
            let mut sparse = Tensor::zeros(&[4, 6]);
            let mut dense = Tensor::zeros(&[4, 6]);
            dsmm_nt_into_rt(&Runtime::sequential(), &a, f.view(), &mut sparse);
            matmul_nt_into_rt(&Runtime::sequential(), &a, &f.dense, &mut dense);
            assert_close(sparse.data(), dense.data(), 1e-5);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // nz indexes three parallel arrays
    fn sddmm_nt_matches_masked_dense() {
        for seed in 1..5u64 {
            let f = Fixture::random(5, 6, 0.4, seed);
            let a = rand_t(&[5, 7], seed + 500);
            let b = rand_t(&[6, 7], seed + 600);
            let mut vals = vec![0.0f32; f.vals.len()];
            sddmm_nt_into(f.view(), &a, &b, &mut vals);
            let mut dense = Tensor::zeros(&[5, 6]);
            matmul_nt_into_rt(&Runtime::sequential(), &a, &b, &mut dense);
            for r in 0..5 {
                for nz in f.row_ptr[r]..f.row_ptr[r + 1] {
                    let j = f.col_idx[nz] as usize;
                    assert!(
                        (vals[nz] - dense.at2(r, j)).abs() < 1e-4,
                        "({r},{j}): {} vs {}",
                        vals[nz],
                        dense.at2(r, j)
                    );
                }
            }
        }
    }

    /// The segmented SDDMM must be *bit-identical* to one [`sddmm_nt_into`]
    /// call per materialized segment pair — the contract that lets the
    /// batched masked weight-gradient path replace the per-sample loop.
    #[test]
    fn sddmm_nt_seg_matches_per_segment_calls_exactly() {
        for (seed, seg, segs) in [(1u64, 3usize, 4usize), (2, 7, 1), (3, 5, 7)] {
            let c = seg * segs;
            let f = Fixture::random(6, 5, 0.5, seed);
            let a = rand_t(&[6, c], seed + 700);
            let b = rand_t(&[5, c], seed + 800);

            let mut expect = vec![0.5f32; f.vals.len()];
            for s in 0..segs {
                let slice = |t: &Tensor, rows: usize| {
                    let mut out = vec![0.0f32; rows * seg];
                    for r in 0..rows {
                        out[r * seg..(r + 1) * seg]
                            .copy_from_slice(&t.data()[r * c + s * seg..][..seg]);
                    }
                    Tensor::from_vec(out, &[rows, seg])
                };
                sddmm_nt_into(f.view(), &slice(&a, 6), &slice(&b, 5), &mut expect);
            }

            let mut vals = vec![0.5f32; f.vals.len()];
            sddmm_nt_seg_into(f.view(), &a, &b, seg, &mut vals);
            assert_eq!(vals, expect, "seed={seed} seg={seg}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // nz indexes three parallel arrays
    fn sddmm_tn_matches_masked_dense() {
        for seed in 1..5u64 {
            let f = Fixture::random(4, 6, 0.4, seed);
            let a = rand_t(&[8, 4], seed + 700);
            let b = rand_t(&[8, 6], seed + 800);
            let mut vals = vec![0.0f32; f.vals.len()];
            sddmm_tn_into_rt(&Runtime::sequential(), f.view(), &a, &b, &mut vals);
            let mut dense = Tensor::zeros(&[4, 6]);
            matmul_tn_into_rt(&Runtime::sequential(), &a, &b, &mut dense);
            for r in 0..4 {
                for nz in f.row_ptr[r]..f.row_ptr[r + 1] {
                    let j = f.col_idx[nz] as usize;
                    assert!(
                        (vals[nz] - dense.at2(r, j)).abs() < 1e-4,
                        "({r},{j}): {} vs {}",
                        vals[nz],
                        dense.at2(r, j)
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_accumulate() {
        let f = Fixture::random(3, 3, 0.5, 9);
        let b = Tensor::eye(3);
        let mut c = Tensor::ones(&[3, 3]);
        spmm_into(f.view(), &b, &mut c);
        let expect = f.dense.add(&Tensor::ones(&[3, 3]));
        assert_close(c.data(), expect.data(), 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn spmm_rejects_bad_shapes() {
        let f = Fixture::random(3, 4, 0.5, 10);
        let b = Tensor::zeros(&[3, 2]);
        let mut c = Tensor::zeros(&[3, 2]);
        spmm_into(f.view(), &b, &mut c);
    }

    /// Every `_rt` kernel is bit-identical on one worker and on many, across
    /// densities including nnz = 0.
    #[test]
    fn rt_variants_are_bit_identical() {
        let seq_rt = Runtime::sequential();
        for (seed, density) in [(1u64, 0.0), (2, 0.05), (3, 0.4), (4, 1.0)] {
            let f = Fixture::random(9, 7, density, seed);
            let a_m = rand_t(&[4, 9], seed + 12); // for dsmm: A[4x9] · S[9x7]
            let a_nt = rand_t(&[4, 7], seed + 13); // for dsmm_nt: A[4x7] · Sᵀ
            let tn_a = rand_t(&[8, 9], seed + 16); // sddmm_tn: A[8x9], B[8x7]
            let tn_b = rand_t(&[8, 7], seed + 17);
            for threads in [2usize, 3, 64] {
                let rt = Runtime::exact(threads).with_min_work(0);
                let tag = format!("d={density} t={threads}");

                let mut seq = Tensor::ones(&[4, 7]);
                let mut par = Tensor::ones(&[4, 7]);
                dsmm_into_rt(&seq_rt, &a_m, f.view(), &mut seq);
                dsmm_into_rt(&rt, &a_m, f.view(), &mut par);
                assert_eq!(seq.data(), par.data(), "dsmm {tag}");

                let mut seq = Tensor::ones(&[4, 9]);
                let mut par = Tensor::ones(&[4, 9]);
                dsmm_nt_into_rt(&seq_rt, &a_nt, f.view(), &mut seq);
                dsmm_nt_into_rt(&rt, &a_nt, f.view(), &mut par);
                assert_eq!(seq.data(), par.data(), "dsmm_nt {tag}");

                let mut seq = vec![0.5f32; f.vals.len()];
                let mut par = vec![0.5f32; f.vals.len()];
                sddmm_tn_into_rt(&seq_rt, f.view(), &tn_a, &tn_b, &mut seq);
                sddmm_tn_into_rt(&rt, f.view(), &tn_a, &tn_b, &mut par);
                assert_eq!(seq, par, "sddmm_tn {tag}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row_ptr")]
    fn validate_rejects_malformed_view() {
        let v = CsrView {
            rows: 2,
            cols: 2,
            row_ptr: &[0, 1],
            col_idx: &[0],
            vals: &[1.0],
        };
        v.validate();
    }

    /// A row pointer that does not start at 0 would shift every sampled
    /// kernel's slots, which rebase on `row_ptr[rows.start]`.
    #[test]
    #[should_panic(expected = "row_ptr")]
    fn validate_rejects_row_ptr_not_starting_at_zero() {
        let v = CsrView {
            rows: 1,
            cols: 2,
            row_ptr: &[1, 2],
            col_idx: &[0, 1],
            vals: &[1.0, 2.0],
        };
        v.validate();
    }
}

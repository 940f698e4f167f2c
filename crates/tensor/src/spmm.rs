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

    /// Checks the structural invariants (row pointer monotone and in range,
    /// column indices in range, parallel arrays equal length).
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
/// `v · B[j, :]` for every stored `(i, j, v)`, streaming `B` and `C` rows.
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
    spmm_rows(s, b.data(), n, 0..s.rows, c.data_mut());
}

fn check_spmm(s: &CsrView<'_>, b: &Tensor, c: &Tensor) -> usize {
    s.validate();
    let (k, n) = dims2(b, "B");
    assert_eq!(k, s.cols, "spmm inner dims differ: {} vs {k}", s.cols);
    let (cm, cn) = dims2(c, "C");
    assert_eq!((cm, cn), (s.rows, n), "spmm output shape mismatch");
    n
}

/// Column-block width for [`spmm_rows`]: the kernel sweeps `B` and `C` in
/// `SPMM_NC`-column slices so the gathered `B` rows of one slice stay
/// cache-resident across all the sparse rows that touch them.
const SPMM_NC: usize = 256;

/// `C += S · B` restricted to the output-row range `rows`; `cchunk` holds
/// exactly those rows.
///
/// Blocked two ways, neither of which changes the per-element accumulation
/// order (ascending stored-entry order, exactly the naive kernel's):
///
/// - columns are processed in [`SPMM_NC`]-wide slices (the blocking knob of
///   the dense driver applied to the sparse streaming kernel), and
/// - stored entries are consumed four at a time, so each `C` row slice is
///   loaded and stored once per quad instead of once per entry — the quad's
///   four multiply-adds are issued sequentially per output element, keeping
///   results bit-identical to the one-entry-at-a-time loop.
///
/// With the `simd` feature on a CPU with AVX2+FMA, the same loop runs with
/// explicit fused multiply-adds (see [`avx::spmm_rows_fma`]); like the dense
/// kernels, fusion rounds differently from the portable mul-then-add path,
/// but the choice is fixed per process so sequential and parallel runs stay
/// bit-identical to each other.
fn spmm_rows(s: CsrView<'_>, bd: &[f32], n: usize, rows: Range<usize>, cchunk: &mut [f32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if crate::matmul::simd_active() {
        // SAFETY: `simd_active` verified avx2+fma at runtime.
        return unsafe { avx::spmm_rows_fma(s, bd, n, rows, cchunk) };
    }
    spmm_rows_portable(s, bd, n, rows, cchunk)
}

fn spmm_rows_portable(
    s: CsrView<'_>,
    bd: &[f32],
    n: usize,
    rows: Range<usize>,
    cchunk: &mut [f32],
) {
    let mut jc = 0;
    while jc < n {
        let nc = (n - jc).min(SPMM_NC);
        for (local, i) in rows.clone().enumerate() {
            let crow = &mut cchunk[local * n + jc..local * n + jc + nc];
            let (start, end) = (s.row_ptr[i], s.row_ptr[i + 1]);
            let mut nz = start;
            while nz + 4 <= end {
                let j0 = s.col_idx[nz] as usize;
                let j1 = s.col_idx[nz + 1] as usize;
                let j2 = s.col_idx[nz + 2] as usize;
                let j3 = s.col_idx[nz + 3] as usize;
                let (v0, v1, v2, v3) = (s.vals[nz], s.vals[nz + 1], s.vals[nz + 2], s.vals[nz + 3]);
                let b0 = &bd[j0 * n + jc..][..nc];
                let b1 = &bd[j1 * n + jc..][..nc];
                let b2 = &bd[j2 * n + jc..][..nc];
                let b3 = &bd[j3 * n + jc..][..nc];
                for (idx, cv) in crow.iter_mut().enumerate() {
                    let mut acc = *cv;
                    acc += v0 * b0[idx];
                    acc += v1 * b1[idx];
                    acc += v2 * b2[idx];
                    acc += v3 * b3[idx];
                    *cv = acc;
                }
                nz += 4;
            }
            while nz < end {
                let (j, v) = (s.col_idx[nz] as usize, s.vals[nz]);
                let brow = &bd[j * n + jc..][..nc];
                for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv += v * bv;
                }
                nz += 1;
            }
        }
        jc += nc;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx {
    use super::{CsrView, SPMM_NC};
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// [`super::spmm_rows_portable`] with explicit AVX2 fused multiply-adds:
    /// same column blocking, same four-entries-at-a-time consumption, same
    /// ascending per-element accumulation order. The column slice is swept
    /// in 8-lane vectors with a scalar `mul_add` tail — `f32::mul_add` is
    /// the same fused IEEE operation as `_mm256_fmadd_ps`, so lane width
    /// doesn't affect results.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn spmm_rows_fma(
        s: CsrView<'_>,
        bd: &[f32],
        n: usize,
        rows: Range<usize>,
        cchunk: &mut [f32],
    ) {
        let mut jc = 0;
        while jc < n {
            let nc = (n - jc).min(SPMM_NC);
            for (local, i) in rows.clone().enumerate() {
                let crow = &mut cchunk[local * n + jc..local * n + jc + nc];
                let (start, end) = (s.row_ptr[i], s.row_ptr[i + 1]);
                let mut nz = start;
                while nz + 4 <= end {
                    let j0 = s.col_idx[nz] as usize;
                    let j1 = s.col_idx[nz + 1] as usize;
                    let j2 = s.col_idx[nz + 2] as usize;
                    let j3 = s.col_idx[nz + 3] as usize;
                    let (v0, v1, v2, v3) =
                        (s.vals[nz], s.vals[nz + 1], s.vals[nz + 2], s.vals[nz + 3]);
                    let b0 = &bd[j0 * n + jc..][..nc];
                    let b1 = &bd[j1 * n + jc..][..nc];
                    let b2 = &bd[j2 * n + jc..][..nc];
                    let b3 = &bd[j3 * n + jc..][..nc];
                    // SAFETY: all slices checked to length nc; idx + 8 <= nc
                    // inside the vector loop.
                    unsafe {
                        let (w0, w1, w2, w3) = (
                            _mm256_set1_ps(v0),
                            _mm256_set1_ps(v1),
                            _mm256_set1_ps(v2),
                            _mm256_set1_ps(v3),
                        );
                        let mut idx = 0usize;
                        while idx + 8 <= nc {
                            let cp = crow.as_mut_ptr().add(idx);
                            let mut acc = _mm256_loadu_ps(cp);
                            acc = _mm256_fmadd_ps(w0, _mm256_loadu_ps(b0.as_ptr().add(idx)), acc);
                            acc = _mm256_fmadd_ps(w1, _mm256_loadu_ps(b1.as_ptr().add(idx)), acc);
                            acc = _mm256_fmadd_ps(w2, _mm256_loadu_ps(b2.as_ptr().add(idx)), acc);
                            acc = _mm256_fmadd_ps(w3, _mm256_loadu_ps(b3.as_ptr().add(idx)), acc);
                            _mm256_storeu_ps(cp, acc);
                            idx += 8;
                        }
                        while idx < nc {
                            let mut acc = crow[idx];
                            acc = v0.mul_add(b0[idx], acc);
                            acc = v1.mul_add(b1[idx], acc);
                            acc = v2.mul_add(b2[idx], acc);
                            acc = v3.mul_add(b3[idx], acc);
                            crow[idx] = acc;
                            idx += 1;
                        }
                    }
                    nz += 4;
                }
                while nz < end {
                    let (j, v) = (s.col_idx[nz] as usize, s.vals[nz]);
                    let brow = &bd[j * n + jc..][..nc];
                    // SAFETY: as above.
                    unsafe {
                        let w = _mm256_set1_ps(v);
                        let mut idx = 0usize;
                        while idx + 8 <= nc {
                            let cp = crow.as_mut_ptr().add(idx);
                            let acc = _mm256_fmadd_ps(
                                w,
                                _mm256_loadu_ps(brow.as_ptr().add(idx)),
                                _mm256_loadu_ps(cp),
                            );
                            _mm256_storeu_ps(cp, acc);
                            idx += 8;
                        }
                        while idx < nc {
                            crow[idx] = v.mul_add(brow[idx], crow[idx]);
                            idx += 1;
                        }
                    }
                    nz += 1;
                }
            }
            jc += nc;
        }
    }
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
/// to mask-alive coordinates. `s.vals` is ignored (structure only).
///
/// # Panics
///
/// Panics if shapes are incompatible, the view is malformed, or `vals` does
/// not have one slot per stored entry.
pub fn sddmm_nt_into(s: CsrView<'_>, a: &Tensor, b: &Tensor, vals: &mut [f32]) {
    let c = check_sddmm_nt(&s, a, b, vals);
    sddmm_nt_rows(s, a.data(), b.data(), c, 0..s.rows, vals);
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
    sddmm_nt_seg_rows(s, a.data(), b.data(), c, seg, 0..s.rows, vals);
}

/// Segmented sampled NT product over the CSR-row range `rows`: per stored
/// entry, one fresh-accumulator dot per `seg`-wide segment, ascending
/// (`seg == c` is the unsegmented product).
///
/// A row's entries are consumed four at a time: the four dot products share
/// the `A` row and run as four independent accumulator chains, so the adds
/// of one chain no longer wait on each other's latency. Every chain keeps
/// its own mul-then-add sequence in ascending column order, so each slot is
/// bit-identical to the one-entry-at-a-time loop (which the remainder still
/// runs).
fn sddmm_nt_seg_rows(
    s: CsrView<'_>,
    ad: &[f32],
    bd: &[f32],
    c: usize,
    seg: usize,
    rows: Range<usize>,
    vals_chunk: &mut [f32],
) {
    let base = s.row_ptr[rows.start];
    for r in rows {
        let arow = &ad[r * c..(r + 1) * c];
        let range = s.row_ptr[r]..s.row_ptr[r + 1];
        let cols = &s.col_idx[range.clone()];
        let vals = &mut vals_chunk[range.start - base..range.end - base];
        let brow = |j: u32| &bd[j as usize * c..(j as usize + 1) * c];
        let mut quads = vals.chunks_exact_mut(4);
        for (js, vs) in cols.chunks_exact(4).zip(&mut quads) {
            let (b0, b1, b2, b3) = (brow(js[0]), brow(js[1]), brow(js[2]), brow(js[3]));
            let mut off = 0usize;
            while off < c {
                let end = off + seg;
                let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for ((((&av, &x0), &x1), &x2), &x3) in arow[off..end]
                    .iter()
                    .zip(&b0[off..end])
                    .zip(&b1[off..end])
                    .zip(&b2[off..end])
                    .zip(&b3[off..end])
                {
                    a0 += av * x0;
                    a1 += av * x1;
                    a2 += av * x2;
                    a3 += av * x3;
                }
                vs[0] += a0;
                vs[1] += a1;
                vs[2] += a2;
                vs[3] += a3;
                off = end;
            }
        }
        let tail = &cols[cols.len() - cols.len() % 4..];
        for (&j, val) in tail.iter().zip(quads.into_remainder()) {
            let b = brow(j);
            let mut off = 0usize;
            while off < c {
                let mut acc = 0.0f32;
                for (&av, &bv) in arow[off..off + seg].iter().zip(&b[off..off + seg]) {
                    acc += av * bv;
                }
                *val += acc;
                off += seg;
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

/// Sampled NT product over the CSR-row range `rows`; `vals_chunk` holds
/// exactly the stored entries of those rows. One segment spanning the whole
/// inner dimension is the same op sequence as the unsegmented dot.
fn sddmm_nt_rows(
    s: CsrView<'_>,
    ad: &[f32],
    bd: &[f32],
    c: usize,
    rows: Range<usize>,
    vals_chunk: &mut [f32],
) {
    sddmm_nt_seg_rows(s, ad, bd, c, c, rows, vals_chunk);
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

    #[test]
    fn spmm_matches_dense() {
        for (seed, density) in [(1u64, 0.1), (2, 0.5), (3, 1.0), (4, 0.0)] {
            let f = Fixture::random(7, 5, density, seed);
            let b = rand_t(&[5, 9], seed + 100);
            let mut sparse = Tensor::ones(&[7, 9]);
            let mut dense = Tensor::ones(&[7, 9]);
            spmm_into(f.view(), &b, &mut sparse);
            matmul_into(&f.dense, &b, &mut dense);
            assert_close(sparse.data(), dense.data(), 1e-5);
        }
    }

    /// The column-blocked, quad-unrolled spmm path (wide `B` crossing the
    /// `SPMM_NC` slice boundary, rows with ≥ 4 stored entries plus a tail)
    /// agrees with the dense GEMM.
    #[test]
    fn spmm_blocked_wide_matches_dense() {
        let f = Fixture::random(13, 40, 0.35, 77);
        let n = SPMM_NC + 17; // forces a second, partial column slice
        let b = rand_t(&[40, n], 78);
        let mut sparse = Tensor::zeros(&[13, n]);
        let mut dense = Tensor::zeros(&[13, n]);
        spmm_into(f.view(), &b, &mut sparse);
        matmul_into(&f.dense, &b, &mut dense);
        assert_close(sparse.data(), dense.data(), 1e-4);
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
}

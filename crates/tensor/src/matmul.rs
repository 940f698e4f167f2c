//! Cache-blocked, packed matrix-multiplication kernels.
//!
//! Three layouts are provided because backward passes need products against
//! transposed operands and materializing the transpose would double the
//! memory traffic. `Linear` runs on them; for convolutions they are, with
//! im2col / col2im around them, the route the direct dense engine
//! ([`crate::dconv_forward_rt`]) reproduces bit for bit and is tested against:
//!
//! - [`matmul_into_rt`]: `C = A · B` (and its sequential form
//!   [`matmul_into`], which [`Tensor::matmul`] and the oracles call)
//! - [`matmul_tn_into_rt`]: `C = Aᵀ · B`
//! - [`matmul_nt_into_rt`]: `C = A · Bᵀ`
//!
//! [`matmul_nt_seg_into`] — the segmented NT product the im2col route's
//! weight gradient needs — is oracle-only, sequential, and reached through
//! [`crate::oracle`].
//!
//! # Blocking scheme
//!
//! All three layouts run the same GEMM driver: the iteration space is tiled
//! `NC × KC × MC` (columns, depth, rows — see [`KC`]/[`NC`] and the
//! per-microkernel `MC`), the active `A`/`B` panels are repacked into
//! contiguous scratch so the inner loops never see a strided access, and an
//! `MR × NR` register-tiled microkernel does all the arithmetic. Operand
//! transposition is handled entirely in the packing routines, so the
//! microkernel is shared by every layout. Edge tiles are zero-padded in the
//! packed panels; the padded lanes land in accumulator slots that are never
//! written back.
//!
//! Two microkernels exist:
//!
//! - a portable `4 × 8` kernel written so the autovectorizer emits SIMD for
//!   whatever the target baseline is, and
//! - an explicit `6 × 16` AVX2+FMA kernel (`std::arch`), compiled behind the
//!   default-on `simd` cargo feature and selected by runtime CPU detection.
//!
//! The two kernels round differently (the FMA path fuses each
//! multiply-accumulate), so a given binary always picks one deterministically
//! — detection depends only on the CPU, never on shapes or thread counts.
//!
//! # Determinism
//!
//! The `_rt` kernels take a [`Runtime`](ft_runtime::Runtime): the output is
//! partitioned into contiguous row ranges (deterministic chunks, see
//! [`ft_runtime::chunk_ranges`]) and each worker runs the *same* blocked
//! driver over its range, so parallel results are bit-for-bit identical to
//! sequential ones. This holds because the accumulation order of any output
//! element — ascending `KC` depth panels, ascending `k` within a panel, one
//! `C += panel_sum` per panel — is a pure function of `k` alone and never
//! depends on how rows were split across workers.

use crate::Tensor;
use ft_runtime::Runtime;
use std::cell::RefCell;
use std::ops::Range;

/// Depth (`k`) blocking: one packed `A` strip (`KC × MR`) and one packed `B`
/// strip (`KC × NR`) stay L1-resident while the microkernel runs.
pub(crate) const KC: usize = 256;
/// Column (`n`) blocking: the packed `B` panel (`KC × NC` ≤ 512 KiB) is
/// sized for L2 and reused across every row tile.
const NC: usize = 512;

/// Upper bounds for the shared accumulator tile; individual microkernels use
/// the top-left `MR × NR` corner.
const MR_MAX: usize = 6;
const NR_MAX: usize = 16;

/// One register tile of `C`. Kept flat across microkernels so the driver can
/// zero and write back without knowing which kernel ran.
type Acc = [[f32; NR_MAX]; MR_MAX];

/// A register-tiled inner kernel: computes
/// `acc[..MR][..NR] += Apanel · Bpanel` over a packed `kc`-deep strip pair.
trait Micro {
    /// Rows of `C` per register tile.
    const MR: usize;
    /// Columns of `C` per register tile.
    const NR: usize;
    /// Row blocking (multiple of `MR`): rows of `A` packed per panel.
    const MC: usize;
    /// `ap` is `kc × MR` (row-groups of `A`), `bp` is `kc × NR`
    /// (column-groups of `B`), both contiguous and zero-padded.
    fn kernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut Acc);
}

/// Portable microkernel: plain nested loops over a `4 × 8` tile, shaped so
/// the autovectorizer keeps the tile in registers and emits SIMD
/// multiply-adds for the target baseline.
struct Portable;

impl Micro for Portable {
    const MR: usize = 4;
    const NR: usize = 8;
    const MC: usize = 64;

    #[inline]
    fn kernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut Acc) {
        for (a, b) in ap.chunks_exact(4).zip(bp.chunks_exact(8)).take(kc) {
            for (&av, accr) in a.iter().zip(acc.iter_mut()) {
                for (cv, &bv) in accr.iter_mut().zip(b.iter()) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// Whether the explicit AVX2+FMA kernels are active in this process — the
/// one switch every kernel family in this crate reads, so dense, sparse,
/// convolution and batch-norm kernels always make the same choice.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn simd_active() -> bool {
    avx::available()
}

/// Without the `simd` feature, or off x86-64, no explicit kernel exists.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub(crate) fn simd_active() -> bool {
    false
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx {
    use super::{Acc, Micro};
    use std::arch::x86_64::*;

    /// Whether the explicit AVX2+FMA microkernel may run on this CPU.
    /// Detected once; the choice depends only on the host CPU, so a process
    /// always uses the same kernel for every shape and thread count.
    pub(super) fn available() -> bool {
        static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAILABLE
            .get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// Explicit `6 × 16` AVX2+FMA microkernel: twelve `__m256` accumulators,
    /// two packed-`B` vectors, and a broadcast `A` lane per step — 15 of the
    /// 16 ymm registers, no spills.
    pub(super) struct AvxFma;

    impl Micro for AvxFma {
        const MR: usize = 6;
        const NR: usize = 16;
        const MC: usize = 96;

        #[inline]
        fn kernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut Acc) {
            debug_assert!(ap.len() >= kc * Self::MR && bp.len() >= kc * Self::NR);
            // SAFETY: `AvxFma` is only instantiated after `available()`
            // confirmed AVX2+FMA at runtime, and the slice lengths cover
            // every unchecked access below.
            unsafe { kernel_fma(kc, ap, bp, acc) }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn kernel_fma(kc: usize, ap: &[f32], bp: &[f32], acc: &mut Acc) {
        unsafe {
            let mut r = [[_mm256_setzero_ps(); 2]; 6];
            for (racc, row) in r.iter_mut().zip(acc.iter()) {
                racc[0] = _mm256_loadu_ps(row.as_ptr());
                racc[1] = _mm256_loadu_ps(row.as_ptr().add(8));
            }
            for kk in 0..kc {
                let b = bp.as_ptr().add(kk * 16);
                let b0 = _mm256_loadu_ps(b);
                let b1 = _mm256_loadu_ps(b.add(8));
                let a = ap.as_ptr().add(kk * 6);
                for (ir, racc) in r.iter_mut().enumerate() {
                    let av = _mm256_broadcast_ss(&*a.add(ir));
                    racc[0] = _mm256_fmadd_ps(av, b0, racc[0]);
                    racc[1] = _mm256_fmadd_ps(av, b1, racc[1]);
                }
            }
            for (racc, row) in r.iter().zip(acc.iter_mut()) {
                _mm256_storeu_ps(row.as_mut_ptr(), racc[0]);
                _mm256_storeu_ps(row.as_mut_ptr().add(8), racc[1]);
            }
        }
    }
}

/// Packs rows `rows` × depth `kr` of `A` into `MR`-row strips:
/// `out[strip][kk][ir] = A(rows.start + strip·mr + ir, kr.start + kk)`,
/// zero-padding row lanes past `rows.end`.
///
/// `AT = false` reads `A` stored `[m × k]` (`lda = k`); `AT = true` reads
/// `A` stored `[k × m]` and consumed transposed (`lda = m`), which makes the
/// pack a contiguous row copy.
fn pack_a<const AT: bool>(
    ad: &[f32],
    lda: usize,
    mr: usize,
    rows: Range<usize>,
    kr: Range<usize>,
    out: &mut [f32],
) {
    let kc = kr.len();
    let mut i0 = rows.start;
    let mut strip = 0usize;
    while i0 < rows.end {
        let valid = (rows.end - i0).min(mr);
        let panel = &mut out[strip * kc * mr..(strip + 1) * kc * mr];
        if AT {
            for kk in 0..kc {
                let src = &ad[(kr.start + kk) * lda + i0..][..valid];
                let dst = &mut panel[kk * mr..(kk + 1) * mr];
                dst[..valid].copy_from_slice(src);
                dst[valid..].fill(0.0);
            }
        } else {
            if valid < mr {
                panel.fill(0.0);
            }
            for ir in 0..valid {
                let arow = &ad[(i0 + ir) * lda + kr.start..][..kc];
                for (kk, &v) in arow.iter().enumerate() {
                    panel[kk * mr + ir] = v;
                }
            }
        }
        i0 += mr;
        strip += 1;
    }
}

/// Packs depth `kr` × columns `cols` of `B` into `NR`-column strips:
/// `out[strip][kk][jr] = B(kr.start + kk, cols.start + strip·nr + jr)`,
/// zero-padding column lanes past `cols.end`.
///
/// `BT = false` reads `B` stored `[k × n]` (`ldb = n`); `BT = true` reads
/// `B` stored `[n × k]` and consumed transposed (`ldb = k`).
fn pack_b<const BT: bool>(
    bd: &[f32],
    ldb: usize,
    nr: usize,
    kr: Range<usize>,
    cols: Range<usize>,
    out: &mut [f32],
) {
    let kc = kr.len();
    let mut j0 = cols.start;
    let mut strip = 0usize;
    while j0 < cols.end {
        let valid = (cols.end - j0).min(nr);
        let panel = &mut out[strip * kc * nr..(strip + 1) * kc * nr];
        if BT {
            if valid < nr {
                panel.fill(0.0);
            }
            for jr in 0..valid {
                let brow = &bd[(j0 + jr) * ldb + kr.start..][..kc];
                for (kk, &v) in brow.iter().enumerate() {
                    panel[kk * nr + jr] = v;
                }
            }
        } else {
            for kk in 0..kc {
                let src = &bd[(kr.start + kk) * ldb + j0..][..valid];
                let dst = &mut panel[kk * nr..(kk + 1) * nr];
                dst[..valid].copy_from_slice(src);
                dst[valid..].fill(0.0);
            }
        }
        j0 += nr;
        strip += 1;
    }
}

/// Shape and stride bundle for one GEMM call; `lda`/`ldb` are the row
/// strides of the *stored* operands (so `m` for a transposed `A`, `k` for a
/// transposed `B`).
struct GemmShape {
    k: usize,
    n: usize,
    lda: usize,
    ldb: usize,
}

thread_local! {
    /// Per-thread packing scratch (`bpack`, `apack`), reused across GEMM
    /// calls so the steady-state training loop performs no allocations. The
    /// packing routines fully overwrite every panel the driver reads, so
    /// stale contents from a previous call are never observable.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The blocked driver: `C[rows] += op(A) · op(B)` for the output-row range
/// `rows`, where `cchunk` holds exactly those rows. Shared by every layout
/// and every microkernel; see the module docs for the blocking scheme and
/// the accumulation-order contract.
fn gemm_with<M: Micro, const AT: bool, const BT: bool>(
    shape: &GemmShape,
    ad: &[f32],
    bd: &[f32],
    rows: Range<usize>,
    cchunk: &mut [f32],
) {
    let (k, n) = (shape.k, shape.n);
    if rows.is_empty() || n == 0 || k == 0 {
        return;
    }
    let kc_max = k.min(KC);
    let bstrips = n.min(NC).div_ceil(M::NR);
    let astrips = rows.len().min(M::MC).div_ceil(M::MR);
    PACK_SCRATCH.with(|scratch| {
        let (bpack, apack) = &mut *scratch.borrow_mut();
        bpack.resize(bstrips * M::NR * kc_max, 0.0);
        apack.resize(astrips * M::MR * kc_max, 0.0);
        let mut acc: Acc = [[0.0; NR_MAX]; MR_MAX];

        let mut jc = 0;
        while jc < n {
            let nc = (n - jc).min(NC);
            let mut pc = 0;
            while pc < k {
                let kc = (k - pc).min(KC);
                pack_b::<BT>(bd, shape.ldb, M::NR, pc..pc + kc, jc..jc + nc, bpack);
                let mut ic = rows.start;
                while ic < rows.end {
                    let mc = (rows.end - ic).min(M::MC);
                    pack_a::<AT>(ad, shape.lda, M::MR, ic..ic + mc, pc..pc + kc, apack);
                    for jt in 0..nc.div_ceil(M::NR) {
                        let bp = &bpack[jt * kc * M::NR..(jt + 1) * kc * M::NR];
                        let j0 = jc + jt * M::NR;
                        let jvalid = (jc + nc - j0).min(M::NR);
                        for it in 0..mc.div_ceil(M::MR) {
                            let ap = &apack[it * kc * M::MR..(it + 1) * kc * M::MR];
                            let i0 = ic + it * M::MR;
                            let ivalid = (ic + mc - i0).min(M::MR);
                            for row in acc.iter_mut().take(M::MR) {
                                row[..M::NR].fill(0.0);
                            }
                            M::kernel(kc, ap, bp, &mut acc);
                            for (ir, accr) in acc.iter().enumerate().take(ivalid) {
                                let at = (i0 - rows.start + ir) * n + j0;
                                for (cv, &av) in cchunk[at..at + jvalid].iter_mut().zip(accr.iter())
                                {
                                    *cv += av;
                                }
                            }
                        }
                    }
                    ic += mc;
                }
                pc += kc;
            }
            jc += nc;
        }
    });
}

/// Selects the microkernel (explicit SIMD when compiled in and supported,
/// portable otherwise) and runs the blocked driver.
fn gemm<const AT: bool, const BT: bool>(
    shape: &GemmShape,
    ad: &[f32],
    bd: &[f32],
    rows: Range<usize>,
    cchunk: &mut [f32],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx::available() {
        return gemm_with::<avx::AvxFma, AT, BT>(shape, ad, bd, rows, cchunk);
    }
    gemm_with::<Portable, AT, BT>(shape, ad, bd, rows, cchunk)
}

fn check_matmul(a: &Tensor, b: &Tensor, c: &Tensor) -> (usize, usize, usize) {
    let (m, k) = dims2(a, "A");
    let (k2, n) = dims2(b, "B");
    assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
    let (cm, cn) = dims2(c, "C");
    assert_eq!((cm, cn), (m, n), "matmul output shape mismatch");
    (m, k, n)
}

fn check_matmul_tn(a: &Tensor, b: &Tensor, c: &Tensor) -> (usize, usize, usize) {
    let (k, m) = dims2(a, "A");
    let (k2, n) = dims2(b, "B");
    assert_eq!(k, k2, "matmul_tn inner dims differ: {k} vs {k2}");
    let (cm, cn) = dims2(c, "C");
    assert_eq!((cm, cn), (m, n), "matmul_tn output shape mismatch");
    (k, m, n)
}

fn check_matmul_nt(a: &Tensor, b: &Tensor, c: &Tensor) -> (usize, usize, usize) {
    let (m, k) = dims2(a, "A");
    let (n, k2) = dims2(b, "B");
    assert_eq!(k, k2, "matmul_nt inner dims differ: {k} vs {k2}");
    let (cm, cn) = dims2(c, "C");
    assert_eq!((cm, cn), (m, n), "matmul_nt output shape mismatch");
    (m, k, n)
}

/// `C += A[m×k] · B[k×n]`, accumulating into `c`.
///
/// Exact zeros in `A` are multiplied like any other value, so non-finite
/// inputs propagate (`0 × NaN = NaN`) instead of being silently skipped.
///
/// # Panics
///
/// Panics if shapes are not `[m,k]`, `[k,n]`, `[m,n]`.
pub fn matmul_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, k, n) = check_matmul(a, b, c);
    let shape = GemmShape {
        k,
        n,
        lda: k,
        ldb: n,
    };
    gemm::<false, false>(&shape, a.data(), b.data(), 0..m, c.data_mut());
}

/// [`matmul_into`] with the output rows fanned out over `rt`'s workers.
/// Bit-identical to the sequential kernel for any thread count.
///
/// # Panics
///
/// Panics on the same shape mismatches as [`matmul_into`].
pub fn matmul_into_rt(rt: &Runtime, a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, k, n) = check_matmul(a, b, c);
    let shape = GemmShape {
        k,
        n,
        lda: k,
        ldb: n,
    };
    if !rt.should_parallelize(m.saturating_mul(k).saturating_mul(n)) || m <= 1 {
        return gemm::<false, false>(&shape, a.data(), b.data(), 0..m, c.data_mut());
    }
    let (ad, bd) = (a.data(), b.data());
    let jobs = rt.split_rows_mut(c.data_mut(), n.max(1));
    rt.scatter(jobs, |(rows, cchunk)| {
        gemm::<false, false>(&shape, ad, bd, rows, cchunk);
    });
}

/// `C += Aᵀ[k×m]ᵀ · B[k×n]`, i.e. `A` has shape `[k, m]` and is consumed
/// transposed, accumulating into `c` of shape `[m, n]`; the output rows fan
/// out over `rt`'s workers, bit-identical for any thread count.
///
/// # Panics
///
/// Panics on incompatible shapes.
pub fn matmul_tn_into_rt(rt: &Runtime, a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (k, m, n) = check_matmul_tn(a, b, c);
    let shape = GemmShape {
        k,
        n,
        lda: m,
        ldb: n,
    };
    if !rt.should_parallelize(k.saturating_mul(m).saturating_mul(n)) || m <= 1 {
        return gemm::<true, false>(&shape, a.data(), b.data(), 0..m, c.data_mut());
    }
    let (ad, bd) = (a.data(), b.data());
    let jobs = rt.split_rows_mut(c.data_mut(), n.max(1));
    rt.scatter(jobs, |(rows, cchunk)| {
        gemm::<true, false>(&shape, ad, bd, rows, cchunk);
    });
}

/// `C += A[m×k] · Bᵀ` where `B` has shape `[n, k]`, accumulating into `c`
/// of shape `[m, n]`; the output rows fan out over `rt`'s workers,
/// bit-identical for any thread count.
///
/// # Panics
///
/// Panics on incompatible shapes.
pub fn matmul_nt_into_rt(rt: &Runtime, a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, k, n) = check_matmul_nt(a, b, c);
    let shape = GemmShape {
        k,
        n,
        lda: k,
        ldb: k,
    };
    if !rt.should_parallelize(m.saturating_mul(k).saturating_mul(n)) || m <= 1 {
        return gemm::<false, true>(&shape, a.data(), b.data(), 0..m, c.data_mut());
    }
    let (ad, bd) = (a.data(), b.data());
    let jobs = rt.split_rows_mut(c.data_mut(), n.max(1));
    rt.scatter(jobs, |(rows, cchunk)| {
        gemm::<false, true>(&shape, ad, bd, rows, cchunk);
    });
}

/// Shared body of the segmented-`k` NT product. A naive implementation runs
/// one full blocked GEMM per `seg`-wide depth segment; for the convolution
/// weight gradient `seg` is one sample's column count, which can be single
/// digits, and the per-call fixed costs (packing-buffer setup, block-loop
/// bookkeeping, repacking the same panels) swamp the arithmetic. This driver
/// instead packs each `A`/`B` panel once per cache block and walks the
/// segments *inside* the register-tile loop: the accumulator tile restarts
/// at every segment boundary and flushes into `C` per segment, which is the
/// exact `C += panel_sum` sequence the per-segment GEMMs produce — same
/// packed values, same microkernel, same flush points — so the result stays
/// bit-identical while the packing and driver overheads amortize across
/// `KC / seg` segments.
fn gemm_nt_segments(
    k: usize,
    n: usize,
    seg: usize,
    ad: &[f32],
    bd: &[f32],
    rows: Range<usize>,
    cchunk: &mut [f32],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx::available() {
        return gemm_nt_seg_with::<avx::AvxFma>(k, n, seg, ad, bd, rows, cchunk);
    }
    gemm_nt_seg_with::<Portable>(k, n, seg, ad, bd, rows, cchunk)
}

/// [`gemm_nt_segments`] specialized to one microkernel. `A` is `[m, k]`
/// stored (`lda = k`), `B` is `[n, k]` stored and consumed transposed
/// (`ldb = k`).
///
/// Depth blocks never span a segment boundary: when `seg ≤ KC` a block
/// covers `⌊KC / seg⌋` whole segments, otherwise a segment is cut into
/// `KC`-deep blocks exactly like the blocked GEMM a per-segment call would
/// run, so every accumulator-flush boundary matches the naive sequence.
fn gemm_nt_seg_with<M: Micro>(
    k: usize,
    n: usize,
    seg: usize,
    ad: &[f32],
    bd: &[f32],
    rows: Range<usize>,
    cchunk: &mut [f32],
) {
    if rows.is_empty() || n == 0 || k == 0 {
        return;
    }
    let kc_max = k.min(KC.max(seg.min(KC)));
    let bstrips = n.min(NC).div_ceil(M::NR);
    let astrips = rows.len().min(M::MC).div_ceil(M::MR);
    PACK_SCRATCH.with(|scratch| {
        let (bpack, apack) = &mut *scratch.borrow_mut();
        bpack.resize(bstrips * M::NR * kc_max, 0.0);
        apack.resize(astrips * M::MR * kc_max, 0.0);
        let mut acc: Acc = [[0.0; NR_MAX]; MR_MAX];

        let mut jc = 0;
        while jc < n {
            let nc = (n - jc).min(NC);
            let mut pc = 0;
            while pc < k {
                // Whole segments per block when they fit; otherwise a
                // `KC`-deep slice of the current segment.
                let kc = if seg <= KC {
                    ((KC / seg) * seg).min(k - pc)
                } else {
                    (seg - pc % seg).min(KC)
                };
                let chunk = seg.min(kc);
                pack_b::<true>(bd, k, M::NR, pc..pc + kc, jc..jc + nc, bpack);
                let mut ic = rows.start;
                while ic < rows.end {
                    let mc = (rows.end - ic).min(M::MC);
                    pack_a::<false>(ad, k, M::MR, ic..ic + mc, pc..pc + kc, apack);
                    for jt in 0..nc.div_ceil(M::NR) {
                        let bp = &bpack[jt * kc * M::NR..(jt + 1) * kc * M::NR];
                        let j0 = jc + jt * M::NR;
                        let jvalid = (jc + nc - j0).min(M::NR);
                        for it in 0..mc.div_ceil(M::MR) {
                            let ap = &apack[it * kc * M::MR..(it + 1) * kc * M::MR];
                            let i0 = ic + it * M::MR;
                            let ivalid = (ic + mc - i0).min(M::MR);
                            let mut off = 0;
                            while off < kc {
                                let step = chunk.min(kc - off);
                                for row in acc.iter_mut().take(M::MR) {
                                    row[..M::NR].fill(0.0);
                                }
                                M::kernel(step, &ap[off * M::MR..], &bp[off * M::NR..], &mut acc);
                                for (ir, accr) in acc.iter().enumerate().take(ivalid) {
                                    let at = (i0 - rows.start + ir) * n + j0;
                                    for (cv, &av) in
                                        cchunk[at..at + jvalid].iter_mut().zip(accr.iter())
                                    {
                                        *cv += av;
                                    }
                                }
                                off += step;
                            }
                        }
                    }
                    ic += mc;
                }
                pc += kc;
            }
            jc += nc;
        }
    });
}

/// `C += A · Bᵀ` (`A` is `[m, k]`, `B` is `[n, k]`) computed as one blocked
/// GEMM per `seg`-wide segment of `k`, ascending: the accumulator for every
/// output element restarts at each segment boundary, so the result is
/// bit-identical to calling [`matmul_nt_into_rt`] once per segment with the
/// segment slices materialized as standalone matrices. This is the batched
/// form of the per-sample weight-gradient loop (`seg` = one sample's
/// columns), preserving the legacy accumulation order exactly.
///
/// # Panics
///
/// Panics on incompatible shapes or when `seg` is zero or does not divide
/// `k`.
pub fn matmul_nt_seg_into(a: &Tensor, b: &Tensor, seg: usize, c: &mut Tensor) {
    let (m, k, n) = check_matmul_nt(a, b, c);
    assert!(
        seg > 0 && k % seg == 0,
        "matmul_nt_seg: segment {seg} must divide k={k}"
    );
    gemm_nt_segments(k, n, seg, a.data(), b.data(), 0..m, c.data_mut());
}

impl Tensor {
    /// Returns `self · other` for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or inner dimensions differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use ft_tensor::Tensor;
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
    /// assert_eq!(a.matmul(&b).data(), &[19.0, 22.0, 43.0, 50.0]);
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let m = self.shape()[0];
        let n = other.shape()[1];
        let mut c = Tensor::zeros(&[m, n]);
        matmul_into(self, other, &mut c);
        c
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
    use crate::assert_close;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at2(i, p) * b.at2(p, j);
                }
                c.data_mut()[i * n + j] = s;
            }
        }
        c
    }

    fn rand_t(shape: &[usize], seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(), shape)
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_t(&[7, 5], 1);
        let b = rand_t(&[5, 9], 2);
        assert_close(a.matmul(&b).data(), naive(&a, &b).data(), 1e-4);
    }

    #[test]
    fn matmul_identity() {
        let a = rand_t(&[4, 4], 3);
        assert_close(a.matmul(&Tensor::eye(4)).data(), a.data(), 1e-6);
    }

    /// The blocked driver agrees with the naive triple loop on dimensions
    /// straddling every tile boundary (`MR`/`NR` strips, `MC`/`KC`/`NC`
    /// panels, and the 1-sized degenerate edges), for all three layouts.
    #[test]
    fn blocked_matches_naive_on_tile_edges() {
        let ms = [1usize, 5, 6, 7, 97];
        let ks = [1usize, 3, 256, 257];
        let ns = [1usize, 8, 15, 17];
        let mut cases = Vec::new();
        for &m in &ms {
            for &k in &ks {
                for &n in &ns {
                    cases.push((m, k, n));
                }
            }
        }
        for (ci, &(m, k, n)) in cases.iter().enumerate() {
            let seed = 500 + ci as u64;
            let a = rand_t(&[m, k], seed);
            let at = a.transposed();
            let b = rand_t(&[k, n], seed + 1);
            let bt = b.transposed();
            let expect = naive(&a, &b);

            let mut c = Tensor::zeros(&[m, n]);
            matmul_into(&a, &b, &mut c);
            assert_close(c.data(), expect.data(), 1e-3);

            let mut c = Tensor::zeros(&[m, n]);
            matmul_tn_into_rt(&Runtime::sequential(), &at, &b, &mut c);
            assert_close(c.data(), expect.data(), 1e-3);

            let mut c = Tensor::zeros(&[m, n]);
            matmul_nt_into_rt(&Runtime::sequential(), &a, &bt, &mut c);
            assert_close(c.data(), expect.data(), 1e-3);
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let a = rand_t(&[6, 3], 4); // k=6, m=3
        let b = rand_t(&[6, 5], 5);
        let mut c = Tensor::zeros(&[3, 5]);
        matmul_tn_into_rt(&Runtime::sequential(), &a, &b, &mut c);
        let expect = a.transposed().matmul(&b);
        assert_close(c.data(), expect.data(), 1e-4);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = rand_t(&[3, 6], 6);
        let b = rand_t(&[5, 6], 7); // n=5, k=6
        let mut c = Tensor::zeros(&[3, 5]);
        matmul_nt_into_rt(&Runtime::sequential(), &a, &b, &mut c);
        let expect = a.matmul(&b.transposed());
        assert_close(c.data(), expect.data(), 1e-4);
    }

    #[test]
    fn into_variants_accumulate() {
        let a = rand_t(&[2, 2], 8);
        let b = rand_t(&[2, 2], 9);
        let mut c = Tensor::ones(&[2, 2]);
        matmul_into(&a, &b, &mut c);
        let expect = a.matmul(&b).add(&Tensor::ones(&[2, 2]));
        assert_close(c.data(), expect.data(), 1e-5);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn rejects_bad_inner_dim() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    /// `0 × NaN` and `0 × ∞` must reach the output as NaN: a zero in `A`
    /// is a value, not a structural hole, so it cannot short-circuit the
    /// multiply. (The pre-blocking kernels skipped `av == 0.0` and silently
    /// produced finite outputs from non-finite inputs.)
    #[test]
    fn zero_times_nonfinite_propagates() {
        let (m, k, n) = (3usize, 4usize, 5usize);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let a = Tensor::zeros(&[m, k]); // every product is 0 × bad
            let at = Tensor::zeros(&[k, m]);
            let b = Tensor::from_vec(vec![bad; k * n], &[k, n]);
            let bt = Tensor::from_vec(vec![bad; n * k], &[n, k]);

            let mut c = Tensor::zeros(&[m, n]);
            matmul_into(&a, &b, &mut c);
            assert!(
                c.data().iter().all(|v| v.is_nan()),
                "matmul swallowed 0 x {bad}"
            );

            let mut c = Tensor::zeros(&[m, n]);
            matmul_tn_into_rt(&Runtime::sequential(), &at, &b, &mut c);
            assert!(
                c.data().iter().all(|v| v.is_nan()),
                "matmul_tn swallowed 0 x {bad}"
            );

            let mut c = Tensor::zeros(&[m, n]);
            matmul_nt_into_rt(&Runtime::sequential(), &a, &bt, &mut c);
            assert!(
                c.data().iter().all(|v| v.is_nan()),
                "matmul_nt swallowed 0 x {bad}"
            );

            // The parallel variants inherit the same semantics.
            let rt = Runtime::exact(3).with_min_work(0);
            let mut c = Tensor::zeros(&[m, n]);
            matmul_into_rt(&rt, &a, &b, &mut c);
            assert!(c.data().iter().all(|v| v.is_nan()), "matmul_rt");
            let mut c = Tensor::zeros(&[m, n]);
            matmul_tn_into_rt(&rt, &at, &b, &mut c);
            assert!(c.data().iter().all(|v| v.is_nan()), "matmul_tn_rt");
            let mut c = Tensor::zeros(&[m, n]);
            matmul_nt_into_rt(&rt, &a, &bt, &mut c);
            assert!(c.data().iter().all(|v| v.is_nan()), "matmul_nt_rt");
        }
    }

    /// Every layout is bit-identical on one worker and on many, for every
    /// thread count, including threads > rows and single-row outputs.
    #[test]
    fn rt_variants_are_bit_identical() {
        let cases = [
            (17usize, 13usize, 11usize),
            (1, 8, 5),
            (4, 1, 3),
            (130, 300, 40),
        ];
        for (ci, &(m, k, n)) in cases.iter().enumerate() {
            let seed = 100 + ci as u64 * 10;
            let a = rand_t(&[m, k], seed);
            let at = rand_t(&[k, m], seed + 1);
            let b = rand_t(&[k, n], seed + 2);
            let bt = rand_t(&[n, k], seed + 3);
            for threads in [1usize, 2, 3, 7, 64] {
                let rt = Runtime::exact(threads).with_min_work(0);
                let mut seq = Tensor::ones(&[m, n]);
                let mut par = Tensor::ones(&[m, n]);
                matmul_into(&a, &b, &mut seq);
                matmul_into_rt(&rt, &a, &b, &mut par);
                assert_eq!(seq.data(), par.data(), "matmul t={threads} {m}x{k}x{n}");

                let mut seq = Tensor::ones(&[m, n]);
                let mut par = Tensor::ones(&[m, n]);
                matmul_tn_into_rt(&Runtime::sequential(), &at, &b, &mut seq);
                matmul_tn_into_rt(&rt, &at, &b, &mut par);
                assert_eq!(seq.data(), par.data(), "tn t={threads} {m}x{k}x{n}");

                let mut seq = Tensor::ones(&[m, n]);
                let mut par = Tensor::ones(&[m, n]);
                matmul_nt_into_rt(&Runtime::sequential(), &a, &bt, &mut seq);
                matmul_nt_into_rt(&rt, &a, &bt, &mut par);
                assert_eq!(seq.data(), par.data(), "nt t={threads} {m}x{k}x{n}");
            }
        }
    }

    /// The segmented NT product must be *bit-identical* to running one
    /// [`matmul_nt_into_rt`] per materialized segment pair — that is the
    /// contract that lets the batched weight-gradient path replace the
    /// legacy per-sample loop without perturbing golden traces.
    #[test]
    fn nt_seg_matches_per_segment_calls_exactly() {
        let cases = [
            (5usize, 3usize, 4usize, 7usize), // m, seg, segs, n
            (1, 8, 2, 1),
            (13, 17, 7, 9),
            (6, 300, 2, 33),
        ];
        for (ci, &(m, seg, segs, n)) in cases.iter().enumerate() {
            let k = seg * segs;
            let seed = 900 + ci as u64 * 10;
            let a = rand_t(&[m, k], seed);
            let b = rand_t(&[n, k], seed + 1);

            let mut expect = Tensor::ones(&[m, n]);
            for s in 0..segs {
                let slice = |t: &Tensor, rows: usize| {
                    let mut out = vec![0.0f32; rows * seg];
                    for r in 0..rows {
                        out[r * seg..(r + 1) * seg]
                            .copy_from_slice(&t.data()[r * k + s * seg..][..seg]);
                    }
                    Tensor::from_vec(out, &[rows, seg])
                };
                matmul_nt_into_rt(
                    &Runtime::sequential(),
                    &slice(&a, m),
                    &slice(&b, n),
                    &mut expect,
                );
            }

            let mut c = Tensor::ones(&[m, n]);
            matmul_nt_seg_into(&a, &b, seg, &mut c);
            assert_eq!(c.data(), expect.data(), "{m}x{k}({seg})x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn nt_seg_rejects_ragged_segments() {
        let a = Tensor::zeros(&[2, 7]);
        let b = Tensor::zeros(&[3, 7]);
        let mut c = Tensor::zeros(&[2, 3]);
        matmul_nt_seg_into(&a, &b, 3, &mut c);
    }

    #[test]
    fn rt_empty_output_is_a_noop() {
        let rt = Runtime::exact(4).with_min_work(0);
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 5]);
        let mut c = Tensor::zeros(&[0, 5]);
        matmul_into_rt(&rt, &a, &b, &mut c);
        assert_eq!(c.numel(), 0);
    }
}

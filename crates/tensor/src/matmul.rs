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
//! Every product runs one blocked driver, the [`LaneJob`] `Gemm`: the
//! iteration space is tiled `NC × KC × MC` (columns, depth, rows — see
//! [`KC`], [`NC`], [`MC`]), the active `A`/`B` panels are repacked into
//! contiguous scratch so the inner loops never see a strided access, and an
//! `MR × NR` = `6 × 16` register-tiled microkernel does all the arithmetic:
//! twelve accumulators of two lane vectors per row, one broadcast `A` value
//! per row and step. Operand transposition is handled entirely in the
//! packing routines, so the microkernel is shared by every layout. Edge
//! tiles are zero-padded in the packed panels; the padded lanes land in
//! accumulator slots that are never written back.
//!
//! The microkernel is written once over [`Lanes`], and [`run_lanes`] picks
//! its family: each step is [`Lanes::axpy`], fused on the AVX2+FMA family
//! and a multiply then an add on the portable one. Detection depends only on
//! the CPU, never on shapes or thread counts, so a process always rounds the
//! same way.
//!
//! The driver takes a depth-segment width `seg`: a depth block never spans
//! a segment boundary, and the accumulator tile restarts and flushes into
//! `C` at every one. The products pass `seg = k`; [`matmul_nt_seg_into`]
//! passes its segment, which packs each panel once for `KC / seg` segments
//! instead of once per segment.
//!
//! # Determinism
//!
//! The `_rt` kernels take a [`Runtime`](ft_runtime::Runtime): the output is
//! partitioned into contiguous row ranges (deterministic chunks, see
//! [`ft_runtime::chunk_ranges`]) and each worker runs the *same* blocked
//! driver over its range, so parallel results are bit-for-bit identical to
//! sequential ones. This holds because the accumulation order of any output
//! element — per `KC`-deep panel of a segment a chain from `+0.0` over
//! ascending `k`, then one `C += panel` per panel, panels ascending — is a
//! pure function of `k` and `seg` alone and never depends on the tile shape
//! or on how rows were split across workers.

use crate::lanes::{run_lanes, LaneJob, Lanes, LANES};
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
/// Row blocking (a multiple of [`MR`]): rows of `A` packed per panel.
const MC: usize = 96;
/// Rows of `C` per register tile.
const MR: usize = 6;
/// Columns of `C` per register tile: two lane vectors.
const NR: usize = 2 * LANES;

/// The microkernel: `Σ Apanel · Bpanel` over a packed strip pair, `ap` being
/// `kc × MR` (row-groups of `A`) and `bp` `kc × NR` (column-groups of `B`),
/// one chain from `+0.0` per element over ascending depth.
#[inline(always)]
fn kernel<V: Lanes>(ap: &[f32], bp: &[f32]) -> [[V; 2]; MR] {
    let mut acc = [[V::splat(0.0); 2]; MR];
    let (bp, _) = bp.as_chunks::<LANES>();
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(2)) {
        let b = [V::load(&b[0]), V::load(&b[1])];
        for (row, &a) in acc.iter_mut().zip(a) {
            let a = V::splat(a);
            row[0] = row[0].axpy(a, b[0]);
            row[1] = row[1].axpy(a, b[1]);
        }
    }
    acc
}

/// Packs rows `rows` × depth `kr` of `A` into `MR`-row strips:
/// `out[strip][kk][ir] = A(rows.start + strip·MR + ir, kr.start + kk)`,
/// zero-padding row lanes past `rows.end`.
///
/// `AT = false` reads `A` stored `[m × k]` (`lda = k`); `AT = true` reads
/// `A` stored `[k × m]` and consumed transposed (`lda = m`), which makes the
/// pack a contiguous row copy.
fn pack_a<const AT: bool>(
    ad: &[f32],
    lda: usize,
    rows: Range<usize>,
    kr: Range<usize>,
    out: &mut [f32],
) {
    let kc = kr.len();
    let mut i0 = rows.start;
    let mut strip = 0usize;
    while i0 < rows.end {
        let valid = (rows.end - i0).min(MR);
        let panel = &mut out[strip * kc * MR..(strip + 1) * kc * MR];
        if AT {
            for kk in 0..kc {
                let src = &ad[(kr.start + kk) * lda + i0..][..valid];
                let dst = &mut panel[kk * MR..(kk + 1) * MR];
                dst[..valid].copy_from_slice(src);
                dst[valid..].fill(0.0);
            }
        } else {
            if valid < MR {
                panel.fill(0.0);
            }
            for ir in 0..valid {
                let arow = &ad[(i0 + ir) * lda + kr.start..][..kc];
                for (kk, &v) in arow.iter().enumerate() {
                    panel[kk * MR + ir] = v;
                }
            }
        }
        i0 += MR;
        strip += 1;
    }
}

/// Packs depth `kr` × columns `cols` of `B` into `NR`-column strips:
/// `out[strip][kk][jr] = B(kr.start + kk, cols.start + strip·NR + jr)`,
/// zero-padding column lanes past `cols.end`.
///
/// `BT = false` reads `B` stored `[k × n]` (`ldb = n`); `BT = true` reads
/// `B` stored `[n × k]` and consumed transposed (`ldb = k`).
fn pack_b<const BT: bool>(
    bd: &[f32],
    ldb: usize,
    kr: Range<usize>,
    cols: Range<usize>,
    out: &mut [f32],
) {
    let kc = kr.len();
    let mut j0 = cols.start;
    let mut strip = 0usize;
    while j0 < cols.end {
        let valid = (cols.end - j0).min(NR);
        let panel = &mut out[strip * kc * NR..(strip + 1) * kc * NR];
        if BT {
            if valid < NR {
                panel.fill(0.0);
            }
            for jr in 0..valid {
                let brow = &bd[(j0 + jr) * ldb + kr.start..][..kc];
                for (kk, &v) in brow.iter().enumerate() {
                    panel[kk * NR + jr] = v;
                }
            }
        } else {
            for kk in 0..kc {
                let src = &bd[(kr.start + kk) * ldb + j0..][..valid];
                let dst = &mut panel[kk * NR..(kk + 1) * NR];
                dst[..valid].copy_from_slice(src);
                dst[valid..].fill(0.0);
            }
        }
        j0 += NR;
        strip += 1;
    }
}

/// Shape and stride bundle for one GEMM call; `lda`/`ldb` are the row
/// strides of the *stored* operands (so `m` for a transposed `A`, `k` for a
/// transposed `B`), and `seg` the depth-segment width (`k` for one product).
struct GemmShape {
    k: usize,
    n: usize,
    lda: usize,
    ldb: usize,
    seg: usize,
}

thread_local! {
    /// Per-thread packing scratch (`bpack`, `apack`), reused across GEMM
    /// calls so the steady-state training loop performs no allocations. The
    /// packing routines fully overwrite every panel the driver reads, so
    /// stale contents from a previous call are never observable.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// `C[rows] += op(A) · op(B)` for the output-row range `rows`, where
/// `cchunk` holds exactly those rows: borrows the packing scratch and runs
/// the blocked driver on the family [`run_lanes`] picks.
fn gemm<const AT: bool, const BT: bool>(
    shape: &GemmShape,
    ad: &[f32],
    bd: &[f32],
    rows: Range<usize>,
    cchunk: &mut [f32],
) {
    if rows.is_empty() || shape.n == 0 || shape.k == 0 {
        return;
    }
    let kc_max = shape.k.min(KC);
    PACK_SCRATCH.with(|scratch| {
        let (bpack, apack) = &mut *scratch.borrow_mut();
        bpack.resize(shape.n.min(NC).div_ceil(NR) * NR * kc_max, 0.0);
        apack.resize(rows.len().min(MC).div_ceil(MR) * MR * kc_max, 0.0);
        run_lanes(Gemm::<AT, BT> {
            shape,
            ad,
            bd,
            rows,
            cchunk,
            bpack,
            apack,
        });
    });
}

/// The blocked driver over the packing scratch; see the module docs for the
/// blocking scheme and the accumulation-order contract.
struct Gemm<'a, const AT: bool, const BT: bool> {
    shape: &'a GemmShape,
    ad: &'a [f32],
    bd: &'a [f32],
    rows: Range<usize>,
    cchunk: &'a mut [f32],
    bpack: &'a mut [f32],
    apack: &'a mut [f32],
}

impl<const AT: bool, const BT: bool> LaneJob for Gemm<'_, AT, BT> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Gemm {
            shape,
            ad,
            bd,
            rows,
            cchunk,
            bpack,
            apack,
        } = self;
        let GemmShape {
            k,
            n,
            lda,
            ldb,
            seg,
        } = *shape;
        let mut jc = 0;
        while jc < n {
            let nc = (n - jc).min(NC);
            let mut pc = 0;
            while pc < k {
                // Whole segments per block when they fit; otherwise a
                // `KC`-deep slice of the current segment.
                let kc = if seg <= KC {
                    (KC / seg * seg).min(k - pc)
                } else {
                    (seg - pc % seg).min(KC)
                };
                let chunk = seg.min(kc);
                pack_b::<BT>(bd, ldb, pc..pc + kc, jc..jc + nc, bpack);
                let mut ic = rows.start;
                while ic < rows.end {
                    let mc = (rows.end - ic).min(MC);
                    pack_a::<AT>(ad, lda, ic..ic + mc, pc..pc + kc, apack);
                    for jt in 0..nc.div_ceil(NR) {
                        let bp = &bpack[jt * kc * NR..(jt + 1) * kc * NR];
                        let j0 = jc + jt * NR;
                        let jvalid = (jc + nc - j0).min(NR);
                        for it in 0..mc.div_ceil(MR) {
                            let ap = &apack[it * kc * MR..(it + 1) * kc * MR];
                            let i0 = ic + it * MR;
                            let ivalid = (ic + mc - i0).min(MR);
                            for off in (0..kc).step_by(chunk) {
                                let step = chunk.min(kc - off);
                                let acc = kernel::<V>(
                                    &ap[off * MR..(off + step) * MR],
                                    &bp[off * NR..(off + step) * NR],
                                );
                                for (ir, acc) in acc.iter().enumerate().take(ivalid) {
                                    let mut tile = [[0.0; LANES]; 2];
                                    acc[0].store(&mut tile[0]);
                                    acc[1].store(&mut tile[1]);
                                    let at = (i0 - rows.start + ir) * n + j0;
                                    for (cv, &av) in
                                        cchunk[at..at + jvalid].iter_mut().zip(tile.as_flattened())
                                    {
                                        *cv += av;
                                    }
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
    }
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

/// Runs the driver over all `m` output rows, fanned out over `rt`'s workers
/// when the product is large enough to pay for it.
fn gemm_rt<const AT: bool, const BT: bool>(
    rt: &Runtime,
    shape: &GemmShape,
    m: usize,
    ad: &[f32],
    bd: &[f32],
    c: &mut [f32],
) {
    let work = m.saturating_mul(shape.k).saturating_mul(shape.n);
    if !rt.should_parallelize(work) || m <= 1 {
        return gemm::<AT, BT>(shape, ad, bd, 0..m, c);
    }
    let jobs = rt.split_rows_mut(c, shape.n.max(1));
    rt.scatter(jobs, |(rows, cchunk)| {
        gemm::<AT, BT>(shape, ad, bd, rows, cchunk);
    });
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
    matmul_into_rt(&Runtime::exact(1), a, b, c);
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
        seg: k,
    };
    gemm_rt::<false, false>(rt, &shape, m, a.data(), b.data(), c.data_mut());
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
        seg: k,
    };
    gemm_rt::<true, false>(rt, &shape, m, a.data(), b.data(), c.data_mut());
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
        seg: k,
    };
    gemm_rt::<false, true>(rt, &shape, m, a.data(), b.data(), c.data_mut());
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
    let shape = GemmShape {
        k,
        n,
        lda: k,
        ldb: k,
        seg,
    };
    gemm::<false, true>(&shape, a.data(), b.data(), 0..m, c.data_mut());
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
    use crate::spconv::tests::bits;

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

    /// `C += op(A) · op(B)` in the documented order, one scalar at a time:
    /// per `KC`-deep panel of each `seg`-wide segment, a chain from `+0.0`
    /// over ascending `k` — fused exactly when `simd_active()` — then
    /// `C += panel`.
    fn documented_order(
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        (m, k, n): (usize, usize, usize),
        seg: usize,
        c: &mut Tensor,
    ) {
        let fused = crate::lanes::simd_active();
        for i in 0..m {
            for j in 0..n {
                let mut total = c.data()[i * n + j];
                for s0 in (0..k).step_by(seg) {
                    for p0 in (s0..s0 + seg).step_by(KC) {
                        let mut chain = 0.0f32;
                        for p in p0..(p0 + KC).min(s0 + seg) {
                            chain = if fused {
                                a(i, p).mul_add(b(p, j), chain)
                            } else {
                                chain + a(i, p) * b(p, j)
                            };
                        }
                        total += chain;
                    }
                }
                c.data_mut()[i * n + j] = total;
            }
        }
    }

    fn assert_bits(got: &Tensor, expect: &Tensor, what: &str) {
        assert!(
            bits(got.data()) == bits(expect.data()),
            "{what}: bits differ from the documented order"
        );
    }

    /// Every layout, sequential and on four workers, is `to_bits`-equal to
    /// the documented accumulation order on shapes straddling `MR`, `NR`,
    /// `MC`, `NC` and `KC`, accumulating into a non-zero `C`.
    #[test]
    fn bits_follow_the_documented_order() {
        let mn = [
            (1usize, 1usize),
            (5, 15),
            (6, 16),
            (7, 17),
            (97, 33),
            (12, 513),
        ];
        for (ci, &k) in [1usize, 255, 256, 257, 513].iter().enumerate() {
            for (cj, &(m, n)) in mn.iter().enumerate() {
                let seed = 3000 + ci as u64 * 100 + cj as u64 * 10;
                let a = rand_t(&[m, k], seed);
                let at = a.transposed();
                let b = rand_t(&[k, n], seed + 1);
                let bt = b.transposed();
                let c0 = rand_t(&[m, n], seed + 2);
                let mut expect = c0.clone();
                documented_order(
                    |i, p| a.at2(i, p),
                    |p, j| b.at2(p, j),
                    (m, k, n),
                    k,
                    &mut expect,
                );
                let what = |op: &str, t: usize| format!("{op} {m}x{k}x{n} on {t} workers");

                let mut c = c0.clone();
                matmul_into(&a, &b, &mut c);
                assert_bits(&c, &expect, &what("matmul_into", 1));
                for threads in [1usize, 4] {
                    let rt = Runtime::exact(threads).with_min_work(0);
                    let mut c = c0.clone();
                    matmul_into_rt(&rt, &a, &b, &mut c);
                    assert_bits(&c, &expect, &what("nn", threads));
                    let mut c = c0.clone();
                    matmul_tn_into_rt(&rt, &at, &b, &mut c);
                    assert_bits(&c, &expect, &what("tn", threads));
                    let mut c = c0.clone();
                    matmul_nt_into_rt(&rt, &a, &bt, &mut c);
                    assert_bits(&c, &expect, &what("nt", threads));
                }
            }
        }
    }

    /// The segmented product is `to_bits`-equal to the documented order per
    /// segment, for segments of one column, a few, half and all of `k`, and
    /// segments deeper than `KC`.
    #[test]
    fn nt_seg_bits_follow_the_documented_order() {
        for (ci, &(m, k, n)) in [(7usize, 10usize, 17usize), (13, 520, 33)]
            .iter()
            .enumerate()
        {
            let seed = 4000 + ci as u64 * 10;
            let a = rand_t(&[m, k], seed);
            let bt = rand_t(&[n, k], seed + 1);
            let c0 = rand_t(&[m, n], seed + 2);
            for seg in [1, 5, k / 2, k] {
                let mut expect = c0.clone();
                documented_order(
                    |i, p| a.at2(i, p),
                    |p, j| bt.at2(j, p),
                    (m, k, n),
                    seg,
                    &mut expect,
                );
                let mut c = c0.clone();
                matmul_nt_seg_into(&a, &bt, seg, &mut c);
                assert_bits(&c, &expect, &format!("nt_seg {m}x{k}({seg})x{n}"));
            }
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

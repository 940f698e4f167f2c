//! Direct sparse convolution: CSR weights against a zero-padded,
//! sample-innermost input, with no column matrix anywhere.
//!
//! The im2col route ([`crate::oracle::im2col_batched`] → [`crate::oracle::spmm_into`] /
//! [`crate::oracle::sddmm_nt_seg_into`] / [`crate::oracle::spmm_tn_into`] →
//! [`crate::oracle::col2im_ld`]) builds and folds a `[in_c·k², n·oh·ow]` matrix whose
//! rows a pruning mask makes almost all dead. This engine keeps the same
//! arithmetic and drops the matrix:
//!
//! - **Layout.** The batch is cut into groups of [`LANES`] samples. A group's
//!   input is transposed once into `xT[c][y + pad][x + pad][lane]` — zero
//!   padded, the sample index innermost — so the operand of a stored weight
//!   `(o, c, ky, kx)` at output pixel `(y, x)` is one aligned lane vector at
//!   `origin(c, ky, kx) + pixel(y, x)`, two offsets an [`SpConvIndex`]
//!   precomputes per stored entry and per output pixel. Any stride, any
//!   plane size, always a full vector, and the padding ring answers every
//!   out-of-image tap with the `+0.0` im2col would have written there.
//! - **Forward** accumulates each output pixel over its CSR row's entries in
//!   ascending stored order, a block of pixels held in registers.
//! - **dW** gives every stored entry one fresh accumulator vector (lane =
//!   sample), walks the output pixels in ascending order with mul-then-add,
//!   eight entries interleaved, then adds the live lanes into the entry's
//!   slot in ascending sample order.
//! - **dX** walks the weight columns `(c, ky, kx)` in ascending order through
//!   a CSC view of the same structure: `tmp = Σ_o v·dY[o]` (ascending `o`,
//!   mul-then-add from `+0.0`), added once into a zeroed padded `gxT` at the
//!   tap's offset; the padding ring absorbs what col2im would have clipped.
//!
//! **Bit identity.** A lane is a sample, and each lane runs exactly the
//! scalar operation sequence the im2col + CSR route runs for that sample:
//! the same products in the same order from the same `+0.0` start, fused in
//! the forward pass exactly when `simd_active()` (the AVX2+FMA family, as in
//! [`crate::oracle::spmm_into`]) and never elsewhere. Padded taps multiply a
//! stored `+0.0` like im2col's structural zeros; nothing is skipped or
//! reassociated. (dX leaves out the columns with no stored entry: their
//! `tmp` is `+0.0`, and adding `+0.0` to a sum that started at `+0.0` never
//! changes it.) Outputs, weight gradients and input gradients are therefore
//! `to_bits`-equal to the im2col route at any batch size and thread count —
//! groups fan out over the [`Runtime`] for forward and dX, CSR rows for dW —
//! which the tests pin against those kernels as the oracle.

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use crate::matmul::simd_active;
use crate::{ConvGeom, CsrView};
use ft_runtime::Runtime;
use std::ops::Range;

/// Samples per lane vector (one AVX2 register of `f32`). Results do not
/// depend on it: a lane never reads another lane.
pub(crate) const LANES: usize = 8;

/// One value per sample of a group.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, align(32))]
pub(crate) struct Lane(pub(crate) [f32; LANES]);

pub(crate) const ZERO: Lane = Lane([0.0; LANES]);

/// Geometry- and structure-keyed offsets of one sparse convolution: where
/// every stored weight reads the padded input, and the CSC view dX walks.
/// Built once per (mask structure, input size) and reused while the values
/// change underneath it.
#[derive(Clone, Debug)]
pub struct SpConvIndex {
    geom: ConvGeom,
    out_c: usize,
    /// Lanes in one group's padded input: `in_c · (h + 2p) · (w + 2p)`.
    group_in: usize,
    /// Per stored entry, CSR order: offset of its tap `(c, ky, kx)` at output
    /// pixel `(0, 0)` inside a group's padded input.
    origin: Vec<u32>,
    /// Per stored entry: its CSR row (output channel).
    entry_row: Vec<u32>,
    /// Per output pixel, row-major: offset of its window's first tap,
    /// `y·s·(w + 2p) + x·s`. `origin[e] + pixel[p] < group_in` for every
    /// pair — the bound the kernels index by.
    pixel: Vec<u32>,
    /// CSC view: column `j`'s entries are `col_ptr[j]..col_ptr[j + 1]` of
    /// `col_row` (output channel, ascending) and `col_entry` (CSR slot).
    col_ptr: Vec<u32>,
    col_row: Vec<u32>,
    col_entry: Vec<u32>,
}

impl SpConvIndex {
    /// Indexes the structure of `s` (`[out_c, in_c·k²]`; values ignored)
    /// for inputs of geometry `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is malformed or empty-shaped, its column count is not
    /// `geom`'s `col_rows`, or a padded group does not fit `u32` offsets.
    pub fn new(s: CsrView<'_>, geom: &ConvGeom) -> Self {
        s.validate();
        let cr = geom.col_rows();
        assert_eq!(s.cols, cr, "spconv weight columns differ from in_c·k²");
        assert!(
            s.rows > 0 && cr > 0,
            "spconv needs input and output channels"
        );
        let (hp, wp) = (geom.in_h + 2 * geom.pad, geom.in_w + 2 * geom.pad);
        let group_in = geom.in_c * hp * wp;
        assert!(
            group_in <= u32::MAX as usize && s.nnz() <= u32::MAX as usize,
            "spconv geometry exceeds u32 offsets"
        );
        let origin = s
            .col_idx
            .iter()
            .map(|&j| tap_origin(geom, j as usize) as u32)
            .collect();
        let mut entry_row = Vec::with_capacity(s.nnz());
        let mut col_ptr = vec![0u32; cr + 1];
        for o in 0..s.rows {
            for &j in &s.col_idx[s.row_ptr[o]..s.row_ptr[o + 1]] {
                entry_row.push(o as u32);
                col_ptr[j as usize + 1] += 1;
            }
        }
        for j in 0..cr {
            col_ptr[j + 1] += col_ptr[j];
        }
        // Rows are visited in ascending order, so every column's list comes
        // out sorted by output channel.
        let mut next = col_ptr.clone();
        let (mut col_row, mut col_entry) = (vec![0u32; s.nnz()], vec![0u32; s.nnz()]);
        for (e, (&j, &o)) in s.col_idx.iter().zip(&entry_row).enumerate() {
            let slot = &mut next[j as usize];
            col_row[*slot as usize] = o;
            col_entry[*slot as usize] = e as u32;
            *slot += 1;
        }
        let pixel = (0..geom.col_cols())
            .map(|p| pixel_origin(geom, p) as u32)
            .collect();
        SpConvIndex {
            geom: *geom,
            out_c: s.rows,
            group_in,
            origin,
            entry_row,
            pixel,
            col_ptr,
            col_row,
            col_entry,
        }
    }

    /// The input geometry this index was built for.
    pub fn geom(&self) -> &ConvGeom {
        &self.geom
    }

    /// Output pixels per sample and channel.
    fn cc(&self) -> usize {
        self.pixel.len()
    }

    /// Floats in one input sample `[in_c, h, w]`.
    fn sample_in(&self) -> usize {
        self.geom.in_c * self.geom.in_h * self.geom.in_w
    }

    /// Floats in one output sample `[out_c, oh, ow]`.
    fn sample_out(&self) -> usize {
        self.out_c * self.cc()
    }

    /// The view must be the structure this index was built from (values may
    /// have changed). Shape and entry count are what the kernels' indexing
    /// relies on, so those are checked.
    fn check(&self, s: &CsrView<'_>) {
        s.validate();
        assert_eq!(
            (s.rows, s.cols, s.nnz()),
            (self.out_c, self.geom.col_rows(), self.origin.len()),
            "spconv index was built for a different structure"
        );
    }
}

/// Offset, inside a group's padded input, of weight column `j`'s tap
/// `(c, ky, kx)` at output pixel `(0, 0)`.
pub(crate) fn tap_origin(g: &ConvGeom, j: usize) -> usize {
    let taps = g.kernel * g.kernel;
    let (c, ky, kx) = (j / taps, (j % taps) / g.kernel, j % g.kernel);
    (c * (g.in_h + 2 * g.pad) + ky) * (g.in_w + 2 * g.pad) + kx
}

/// Offset, inside a group's padded input, of the first tap of output pixel
/// `p`'s window (`p` row-major): `y·s·(w + 2p) + x·s`.
pub(crate) fn pixel_origin(g: &ConvGeom, p: usize) -> usize {
    let ow = g.out_w();
    (p / ow * (g.in_w + 2 * g.pad) + p % ow) * g.stride
}

/// The buffers of both direct engines — this one and the dense one
/// ([`crate::dconv_forward_rt`]) — grown on first use and reused from then
/// on, whichever engine ran last. The transposed padded input (kept from
/// forward for backward) and the transposed output gradient (dX reads it by
/// group, dW by weight row) cover the batch; the staging of the output and
/// of the padded input gradient holds one group per worker. None of them
/// scales with `in_c·k²·oh·ow`: there is no column matrix.
#[derive(Debug, Default)]
pub struct ConvBufs {
    pub(crate) xt: Vec<Lane>,
    /// Geometry `xt`'s padding ring was zeroed for.
    pub(crate) xt_geom: Option<ConvGeom>,
    pub(crate) dy_t: Vec<Lane>,
    pub(crate) out_t: Vec<Lane>,
    pub(crate) gx_t: Vec<Lane>,
    /// What only the dense engine needs: its offset tables and the weight
    /// transposed for dX.
    pub(crate) dense: crate::dconv::DenseBufs,
}

impl ConvBufs {
    /// Floats in the kept input: `⌈n/8⌉·8·in_c·(h + 2p)·(w + 2p)` after a
    /// forward over `n` samples, 0 before the first.
    pub fn kept_input_len(&self) -> usize {
        self.xt.len() * LANES
    }

    /// Floats (or offsets) held by all buffers together.
    pub fn total_len(&self) -> usize {
        (self.xt.len() + self.dy_t.len() + self.out_t.len() + self.gx_t.len()) * LANES
            + self.dense.len()
    }

    /// Sizes the kept input for `groups` groups of `geom`, its padding ring
    /// `+0.0`. The interior is rewritten by every forward and the ring never
    /// is, so the ring only needs zeroing when the layout under it changes.
    pub(crate) fn size_kept_input(&mut self, geom: &ConvGeom, groups: usize) {
        if self.xt_geom != Some(*geom) {
            self.xt.clear();
            self.xt_geom = Some(*geom);
        }
        let (hp, wp) = (geom.in_h + 2 * geom.pad, geom.in_w + 2 * geom.pad);
        self.xt.resize(groups * geom.in_c * hp * wp, ZERO);
    }
}

/// Whether a pass over `groups` groups is worth fanning out on `rt`. The
/// work measure is lane-vector operations — [`LANES`] multiply-adds each.
fn worth_fanning_out(rt: &Runtime, s: &CsrView<'_>, idx: &SpConvIndex, groups: usize) -> bool {
    rt.should_parallelize(s.nnz().saturating_mul(idx.cc()).saturating_mul(groups))
}

/// Runs `pass(src, lanes, slot, dst)` over the groups of a batch of `n`.
/// `src` and `dst` hold whole samples (`.1` floats each), `lanes` one block
/// of `.1` lanes per group, and `slots` is resized to one staging block of
/// `.1` lanes per worker. Without a runtime to fan out on that is one call
/// over the whole batch; with one, each of its workers gets a contiguous
/// run of groups and its own slot. `pass` walks the groups it is handed in
/// order.
pub(crate) fn over_groups(
    fan_out: Option<&Runtime>,
    n: usize,
    (src, src_len): (&[f32], usize),
    (lanes, lanes_len): (&mut [Lane], usize),
    (slots, slot_len): (&mut Vec<Lane>, usize),
    (dst, dst_len): (&mut [f32], usize),
    pass: impl Fn(&[f32], &mut [Lane], &mut [Lane], &mut [f32]) + Sync,
) {
    let groups = n.div_ceil(LANES);
    let Some(rt) = fan_out.filter(|_| groups > 1) else {
        slots.resize(slot_len, ZERO);
        return pass(src, lanes, slots, dst);
    };
    slots.resize(rt.threads().min(groups) * slot_len, ZERO);
    let samples = |g: usize| (g * LANES).min(n);
    let lanes = rt.split_at_offsets_mut(lanes, groups, |g| g * lanes_len);
    let dsts = rt.split_at_offsets_mut(dst, groups, |g| samples(g) * dst_len);
    let jobs = (lanes.into_iter().zip(dsts))
        .zip(slots.chunks_mut(slot_len))
        .map(|(((g, lanes), (_, dst)), slot)| {
            let src = &src[samples(g.start) * src_len..samples(g.end) * src_len];
            (src, lanes, slot, dst)
        });
    rt.scatter(jobs.collect(), |(src, lanes, slot, dst)| {
        pass(src, lanes, slot, dst)
    });
}

/// Sparse convolution forward: `out[n, out_c, oh, ow] = W ∗ x` for
/// `x[n, in_c, h, w]` and the CSR weight `s`, overwriting `out`. The
/// transposed input stays in `bufs` for [`spconv_backward_rt`].
/// Bit-identical to im2col → [`crate::oracle::spmm_into`] into a zeroed output, on
/// any runtime.
///
/// # Panics
///
/// Panics if `s` is not the structure `idx` was built from or a slice length
/// does not match `n` and the geometry.
pub fn spconv_forward_rt(
    rt: &Runtime,
    idx: &SpConvIndex,
    s: CsrView<'_>,
    x: &[f32],
    n: usize,
    bufs: &mut ConvBufs,
    out: &mut [f32],
) {
    idx.check(&s);
    let (sample_in, sample_out) = (idx.sample_in(), idx.sample_out());
    assert_eq!(x.len(), n * sample_in, "spconv input length mismatch");
    assert_eq!(out.len(), n * sample_out, "spconv output length mismatch");
    let groups = n.div_ceil(LANES);
    bufs.size_kept_input(&idx.geom, groups);
    let ConvBufs { xt, out_t, .. } = bufs;
    over_groups(
        worth_fanning_out(rt, &s, idx, groups).then_some(rt),
        n,
        (x, sample_in),
        (xt, idx.group_in),
        (out_t, sample_out),
        (out, sample_out),
        |x, xt, out_t, out| {
            let groups = (x.chunks(LANES * sample_in))
                .zip(xt.chunks_mut(idx.group_in))
                .zip(out.chunks_mut(LANES * sample_out));
            for ((x, xt), out) in groups {
                forward_job(idx, &s, x, xt, out_t, out);
            }
        },
    );
}

/// Sparse convolution backward from `dy[n, out_c, oh, ow]`, over the input
/// the last [`spconv_forward_rt`] left in `bufs`:
///
/// - `grad_vals` (one slot per stored entry) *accumulates* the weight
///   gradient, one fresh accumulator per sample added in sample order —
///   bit-identical to [`crate::oracle::sddmm_nt_seg_into`] with `seg = oh·ow` over
///   the batched column matrix;
/// - `gx[n, in_c, h, w]` is *overwritten* with the input gradient —
///   bit-identical to [`crate::oracle::spmm_tn_into`] into a zeroed matrix followed
///   by per-sample [`crate::oracle::col2im_ld`] into a zeroed `gx`.
///
/// Either output may be left out.
///
/// # Panics
///
/// Panics if `s` is not the structure `idx` was built from, `bufs` does not
/// hold the forward input of `n` samples, or a slice length is wrong.
#[allow(clippy::too_many_arguments)] // the kernel's natural operands
pub fn spconv_backward_rt(
    rt: &Runtime,
    idx: &SpConvIndex,
    s: CsrView<'_>,
    dy: &[f32],
    n: usize,
    bufs: &mut ConvBufs,
    grad_vals: Option<&mut [f32]>,
    gx: Option<&mut [f32]>,
) {
    idx.check(&s);
    let (sample_in, sample_out) = (idx.sample_in(), idx.sample_out());
    let groups = n.div_ceil(LANES);
    assert_eq!(dy.len(), n * sample_out, "spconv dy length mismatch");
    assert!(
        bufs.xt_geom == Some(idx.geom) && bufs.xt.len() == groups * idx.group_in,
        "spconv backward called before forward"
    );
    let fan_out = worth_fanning_out(rt, &s, idx, groups);
    let ConvBufs { xt, dy_t, gx_t, .. } = bufs;
    dy_t.resize(groups * sample_out, ZERO);

    // dY into lanes and, when asked for, dX — by group.
    match gx {
        None => {
            for (dy, dy_t) in (dy.chunks(LANES * sample_out)).zip(dy_t.chunks_mut(sample_out)) {
                backward_job(idx, &s, dy, dy_t, None);
            }
        }
        Some(gx) => {
            assert_eq!(gx.len(), n * sample_in, "spconv gx length mismatch");
            over_groups(
                fan_out.then_some(rt),
                n,
                (dy, sample_out),
                (dy_t, sample_out),
                (gx_t, idx.group_in),
                (gx, sample_in),
                |dy, dy_t, gx_t, gx| {
                    let groups = (dy.chunks(LANES * sample_out))
                        .zip(dy_t.chunks_mut(sample_out))
                        .zip(gx.chunks_mut(LANES * sample_in));
                    for ((dy, dy_t), gx) in groups {
                        backward_job(idx, &s, dy, dy_t, Some((&mut *gx_t, gx)));
                    }
                },
            );
        }
    }

    // dW: CSR rows split at `row_ptr`, every worker walking the groups in
    // ascending order so each slot adds its samples in order.
    if let Some(vals) = grad_vals {
        assert_eq!(vals.len(), s.nnz(), "spconv grad slot count mismatch");
        let (xt, dy_t) = (&xt[..], &dy_t[..]);
        let run = |(rows, chunk): (Range<usize>, &mut [f32])| {
            let entries = s.row_ptr[rows.start]..s.row_ptr[rows.end];
            let groups = xt.chunks(idx.group_in).zip(dy_t.chunks(sample_out));
            for (gi, (xt, dy_t)) in groups.enumerate() {
                let valid = LANES.min(n - gi * LANES);
                dw_job(idx, xt, dy_t, valid, entries.clone(), chunk);
            }
        };
        if s.rows > 1 && fan_out {
            let jobs = rt.split_at_offsets_mut(vals, s.rows, |r| s.row_ptr[r]);
            rt.scatter(jobs, run);
        } else {
            run((0..s.rows, vals));
        }
    }
}

/// Eight `f32` lanes and the arithmetic of one kernel family. The kernels
/// are written once over this trait and instantiated per family, like the
/// dense GEMM's `Micro`.
pub(crate) trait Lanes: Copy {
    fn splat(v: f32) -> Self;
    fn load(src: &[f32; LANES]) -> Self;
    fn store(self, dst: &mut [f32; LANES]);
    fn add(self, rhs: Self) -> Self;
    fn sub(self, rhs: Self) -> Self;
    fn mul(self, rhs: Self) -> Self;
    /// `self + v·x` as this family's forward pass rounds it: fused in the
    /// AVX2+FMA family, mul-then-add in the portable one — the rule
    /// [`crate::oracle::spmm_into`] follows.
    fn axpy(self, v: Self, x: Self) -> Self;
    /// `out[k][l] = rows[l][k]`.
    fn transpose(rows: [Self; LANES]) -> [Self; LANES];
}

/// The portable family: plain lane loops the autovectorizer turns into
/// whatever the target baseline offers; every operation rounds once.
impl Lanes for Lane {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        Lane([v; LANES])
    }
    #[inline(always)]
    fn load(src: &[f32; LANES]) -> Self {
        Lane(*src)
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32; LANES]) {
        *dst = self.0;
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Lane(std::array::from_fn(|l| self.0[l] + rhs.0[l]))
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Lane(std::array::from_fn(|l| self.0[l] - rhs.0[l]))
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Lane(std::array::from_fn(|l| self.0[l] * rhs.0[l]))
    }
    #[inline(always)]
    fn axpy(self, v: Self, x: Self) -> Self {
        self.add(v.mul(x))
    }
    #[inline(always)]
    fn transpose(rows: [Self; LANES]) -> [Self; LANES] {
        std::array::from_fn(|k| Lane(std::array::from_fn(|l| rows[l].0[k])))
    }
}

/// The AVX2+FMA family: the same kernels on `__m256`, entered only through
/// the `target_feature` wrappers at the bottom of the module. Only `axpy`
/// — the forward pass — fuses, as [`crate::oracle::spmm_into`] does whenever
/// this family runs; `add` and `mul` round like the portable family's, so dW
/// and dX gain vector width and keep their bits.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod avx {
    use super::*;
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub(crate) struct Ymm(__m256);

    // SAFETY (every block below): `Ymm` is only named by the
    // `target_feature(enable = "avx2,fma")` wrappers of this module and of
    // `dconv`, which `simd_active()` guards; the pointers come from
    // `[f32; 8]` references and the accesses are the unaligned forms.
    impl Lanes for Ymm {
        #[inline(always)]
        fn splat(v: f32) -> Self {
            Ymm(unsafe { _mm256_set1_ps(v) })
        }
        #[inline(always)]
        fn load(src: &[f32; LANES]) -> Self {
            Ymm(unsafe { _mm256_loadu_ps(src.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, dst: &mut [f32; LANES]) {
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            Ymm(unsafe { _mm256_add_ps(self.0, rhs.0) })
        }
        #[inline(always)]
        fn sub(self, rhs: Self) -> Self {
            Ymm(unsafe { _mm256_sub_ps(self.0, rhs.0) })
        }
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            Ymm(unsafe { _mm256_mul_ps(self.0, rhs.0) })
        }
        #[inline(always)]
        fn axpy(self, v: Self, x: Self) -> Self {
            Ymm(unsafe { _mm256_fmadd_ps(v.0, x.0, self.0) })
        }
        #[inline(always)]
        fn transpose(r: [Self; LANES]) -> [Self; LANES] {
            unsafe {
                // 32-bit, then 64-bit interleaves inside each 128-bit half,
                // then the halves are exchanged.
                let t: [__m256; 8] = std::array::from_fn(|i| {
                    let (a, b) = (r[i & !1].0, r[i | 1].0);
                    if i & 1 == 0 {
                        _mm256_unpacklo_ps(a, b)
                    } else {
                        _mm256_unpackhi_ps(a, b)
                    }
                });
                let u: [__m256; 8] = std::array::from_fn(|i| {
                    let (a, b) = (t[(i & 4) | (i & 1)], t[(i & 4) | (i & 1) | 2]);
                    if i & 2 == 0 {
                        _mm256_shuffle_ps::<0b0100_0100>(a, b)
                    } else {
                        _mm256_shuffle_ps::<0b1110_1110>(a, b)
                    }
                });
                // `u[i]` holds columns `c` and `c + 4` of rows 0–3 (`i < 4`)
                // or rows 4–7, where `c = [0, 2, 1, 3][i & 3]`.
                std::array::from_fn(|k| {
                    let i = [0, 2, 1, 3][k & 3];
                    Ymm(if k < 4 {
                        _mm256_permute2f128_ps::<0x20>(u[i], u[i + 4])
                    } else {
                        _mm256_permute2f128_ps::<0x31>(u[i], u[i + 4])
                    })
                })
            }
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn forward_job(
        idx: &SpConvIndex,
        s: &CsrView<'_>,
        x: &[f32],
        xt: &mut [Lane],
        out_t: &mut [Lane],
        out: &mut [f32],
    ) {
        forward_job_impl::<Ymm>(idx, s, x, xt, out_t, out)
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn backward_job(
        idx: &SpConvIndex,
        s: &CsrView<'_>,
        dy: &[f32],
        dy_t: &mut [Lane],
        gx: Option<(&mut [Lane], &mut [f32])>,
    ) {
        backward_job_impl::<Ymm>(idx, s, dy, dy_t, gx)
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dw_job(
        idx: &SpConvIndex,
        xt: &[Lane],
        dy_t: &[Lane],
        valid: usize,
        entries: Range<usize>,
        vals: &mut [f32],
    ) {
        dw_job_impl::<Ymm>(idx, xt, dy_t, valid, entries, vals)
    }
}

/// One group of a forward pass: `x[valid ≤ 8, in_c, h, w]` into the lanes of
/// `xt`, the kernel, `out_t` back out to `out[valid, out_c, oh, ow]`.
fn forward_job(
    idx: &SpConvIndex,
    s: &CsrView<'_>,
    x: &[f32],
    xt: &mut [Lane],
    out_t: &mut [Lane],
    out: &mut [f32],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: `simd_active` verified avx2+fma at runtime.
        return unsafe { avx::forward_job(idx, s, x, xt, out_t, out) };
    }
    forward_job_impl::<Lane>(idx, s, x, xt, out_t, out)
}

/// One group of a backward pass: `dy[valid, out_c, oh, ow]` into the lanes
/// of `dy_t` and, given `(gx_t, gx)`, the dX kernel and its result back out
/// to `gx[valid, in_c, h, w]`.
fn backward_job(
    idx: &SpConvIndex,
    s: &CsrView<'_>,
    dy: &[f32],
    dy_t: &mut [Lane],
    gx: Option<(&mut [Lane], &mut [f32])>,
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: `simd_active` verified avx2+fma at runtime.
        return unsafe { avx::backward_job(idx, s, dy, dy_t, gx) };
    }
    backward_job_impl::<Lane>(idx, s, dy, dy_t, gx)
}

/// One group's contribution to the weight-gradient slots of `entries`
/// (`vals[0]` is the slot of `entries.start`).
fn dw_job(
    idx: &SpConvIndex,
    xt: &[Lane],
    dy_t: &[Lane],
    valid: usize,
    entries: Range<usize>,
    vals: &mut [f32],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: `simd_active` verified avx2+fma at runtime.
        return unsafe { avx::dw_job(idx, xt, dy_t, valid, entries, vals) };
    }
    dw_job_impl::<Lane>(idx, xt, dy_t, valid, entries, vals)
}

// Everything below is `#[inline(always)]`: the AVX2 family exists only as
// code inlined into its `target_feature` wrappers.

#[inline(always)]
fn forward_job_impl<V: Lanes>(
    idx: &SpConvIndex,
    s: &CsrView<'_>,
    x: &[f32],
    xt: &mut [Lane],
    out_t: &mut [Lane],
    out: &mut [f32],
) {
    let (sample_in, sample_out) = (idx.sample_in(), idx.sample_out());
    let valid = x.len() / sample_in;
    to_lanes::<V>(x, sample_in, valid, xt, Cursor::interior(&idx.geom));
    forward_kernel::<V>(idx, s, xt, out_t);
    from_lanes::<V>(out_t, Cursor::flat(), valid, sample_out, out);
}

#[inline(always)]
fn backward_job_impl<V: Lanes>(
    idx: &SpConvIndex,
    s: &CsrView<'_>,
    dy: &[f32],
    dy_t: &mut [Lane],
    gx: Option<(&mut [Lane], &mut [f32])>,
) {
    let (sample_in, sample_out) = (idx.sample_in(), idx.sample_out());
    let valid = dy.len() / sample_out;
    to_lanes::<V>(dy, sample_out, valid, dy_t, Cursor::flat());
    if let Some((gx_t, gx)) = gx {
        gx_t.fill(ZERO);
        dx_kernel::<V>(idx, s, dy_t, gx_t);
        from_lanes::<V>(gx_t, Cursor::interior(&idx.geom), valid, sample_in, gx);
    }
}

/// Walks the positions of `[in_c, h, w]` in flat order and yields where each
/// lies in a lane buffer: inside the padded `[in_c, h + 2p, w + 2p]`
/// ([`Cursor::interior`]), at the same flat offset ([`Cursor::flat`]), or in
/// rows with a gap after each ([`Cursor::rows`]).
#[derive(Clone, Copy)]
pub(crate) struct Cursor {
    at: usize,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    /// Padding lanes between two rows, and the further ones between planes.
    row_skip: usize,
    plane_skip: usize,
}

impl Cursor {
    pub(crate) fn flat() -> Self {
        Cursor {
            at: 0,
            x: 0,
            y: 0,
            w: usize::MAX,
            h: usize::MAX,
            row_skip: 0,
            plane_skip: 0,
        }
    }

    /// Rows of `w` positions with `skip` unused lanes after each.
    pub(crate) fn rows(w: usize, skip: usize) -> Self {
        Cursor {
            w,
            row_skip: skip,
            ..Cursor::flat()
        }
    }

    pub(crate) fn interior(g: &ConvGeom) -> Self {
        let wp = g.in_w + 2 * g.pad;
        Cursor {
            at: g.pad * wp + g.pad,
            x: 0,
            y: 0,
            w: g.in_w,
            h: g.in_h,
            row_skip: 2 * g.pad,
            plane_skip: 2 * g.pad * wp,
        }
    }

    #[inline(always)]
    fn next(&mut self) -> usize {
        let at = self.at;
        self.at += 1;
        self.x += 1;
        if self.x == self.w {
            self.x = 0;
            self.at += self.row_skip;
            self.y += 1;
            if self.y == self.h {
                self.y = 0;
                self.at += self.plane_skip;
            }
        }
        at
    }
}

/// `dst[at(i)][l] = src[l·sample + i]` for `i < sample` and the `valid` live
/// lanes, `+0.0` in the rest: up to eight whole samples of `sample` floats,
/// transposed into the lanes `at` walks. Full groups move as 8 × 8 register
/// blocks.
#[inline(always)]
pub(crate) fn to_lanes<V: Lanes>(
    src: &[f32],
    sample: usize,
    valid: usize,
    dst: &mut [Lane],
    mut at: Cursor,
) {
    let mut i = 0;
    if valid == LANES {
        while i + LANES <= sample {
            let rows: [V; LANES] = std::array::from_fn(|l| {
                let row = &src[l * sample + i..][..LANES];
                V::load(row.try_into().expect("eight floats"))
            });
            for v in V::transpose(rows) {
                v.store(&mut dst[at.next()].0);
            }
            i += LANES;
        }
    }
    while i < sample {
        let mut v = ZERO;
        for (l, vl) in v.0[..valid].iter_mut().enumerate() {
            *vl = src[l * sample + i];
        }
        dst[at.next()] = v;
        i += 1;
    }
}

/// `dst[l·sample + i] = src[at(i)][l]` for `i < sample` and the `valid` live
/// lanes — the inverse of [`to_lanes`]; dead lanes are dropped.
#[inline(always)]
pub(crate) fn from_lanes<V: Lanes>(
    src: &[Lane],
    mut at: Cursor,
    valid: usize,
    sample: usize,
    dst: &mut [f32],
) {
    let mut i = 0;
    if valid == LANES {
        while i + LANES <= sample {
            let mut block = [V::splat(0.0); LANES];
            for v in &mut block {
                *v = V::load(&src[at.next()].0);
            }
            for (l, v) in V::transpose(block).into_iter().enumerate() {
                let row = &mut dst[l * sample + i..][..LANES];
                v.store(row.try_into().expect("eight floats"));
            }
            i += LANES;
        }
    }
    while i < sample {
        let v = src[at.next()];
        for (l, &vl) in v.0[..valid].iter().enumerate() {
            dst[l * sample + i] = vl;
        }
        i += 1;
    }
}

/// Pixels in the next register block when `left > 0` remain: 8 while they
/// last, then the largest power of two that fits — every width a
/// compile-time constant of the kernel it selects.
fn block_width(left: usize) -> usize {
    if left >= 8 {
        8
    } else {
        1 << left.ilog2()
    }
}

/// Forward over one group: `out_t[o][p] = Σ_e v_e · xt[origin_e + pixel_p]`
/// over row `o`'s entries in stored order, from `+0.0`.
#[inline(always)]
fn forward_kernel<V: Lanes>(idx: &SpConvIndex, s: &CsrView<'_>, xt: &[Lane], out_t: &mut [Lane]) {
    #[inline(always)]
    fn block<V: Lanes, const P: usize>(
        xt: &[Lane],
        origin: &[u32],
        vals: &[f32],
        pixel: &[u32],
        out: &mut [Lane],
    ) {
        let pixel: [usize; P] = std::array::from_fn(|i| pixel[i] as usize);
        let mut acc = [V::splat(0.0); P];
        for (&org, &v) in origin.iter().zip(vals) {
            let (taps, v) = (&xt[org as usize..], V::splat(v));
            for (a, &px) in acc.iter_mut().zip(&pixel) {
                *a = a.axpy(v, V::load(&taps[px].0));
            }
        }
        for (a, o) in acc.into_iter().zip(out) {
            a.store(&mut o.0);
        }
    }
    let cc = idx.cc();
    for (o, out_row) in out_t.chunks_mut(cc).enumerate() {
        let row = s.row_ptr[o]..s.row_ptr[o + 1];
        let (origin, vals) = (&idx.origin[row.clone()], &s.vals[row]);
        let mut p = 0;
        while p < cc {
            let (pixel, out) = (&idx.pixel[p..], &mut out_row[p..]);
            let width = block_width(cc - p);
            match width {
                8 => block::<V, 8>(xt, origin, vals, pixel, out),
                4 => block::<V, 4>(xt, origin, vals, pixel, out),
                2 => block::<V, 2>(xt, origin, vals, pixel, out),
                _ => block::<V, 1>(xt, origin, vals, pixel, out),
            }
            p += width;
        }
    }
}

/// dX over one group: for every non-empty weight column, `tmp[p] = Σ_o
/// v·dy_t[o][p]` (ascending `o`, mul-then-add from `+0.0`), then
/// `gx_t[tap + pixel_p] += tmp[p]`. `gx_t` arrives zeroed.
#[inline(always)]
fn dx_kernel<V: Lanes>(idx: &SpConvIndex, s: &CsrView<'_>, dy_t: &[Lane], gx_t: &mut [Lane]) {
    #[inline(always)]
    fn block<V: Lanes, const P: usize>(
        dy_rows: &[Lane],
        cc: usize,
        rows: &[u32],
        vals: &[f32],
        entries: &[u32],
        pixel: &[u32],
        taps: &mut [Lane],
    ) {
        let mut acc = [V::splat(0.0); P];
        for (&o, &e) in rows.iter().zip(entries) {
            let (dy, v) = (&dy_rows[o as usize * cc..][..P], V::splat(vals[e as usize]));
            for (a, d) in acc.iter_mut().zip(dy) {
                *a = a.add(v.mul(V::load(&d.0)));
            }
        }
        for (a, &px) in acc.into_iter().zip(&pixel[..P]) {
            let tap = &mut taps[px as usize].0;
            V::load(tap).add(a).store(tap);
        }
    }
    let cc = idx.cc();
    for j in 0..idx.col_ptr.len() - 1 {
        let col = idx.col_ptr[j] as usize..idx.col_ptr[j + 1] as usize;
        if col.is_empty() {
            continue;
        }
        let (rows, entries) = (&idx.col_row[col.clone()], &idx.col_entry[col]);
        let taps = &mut gx_t[tap_origin(&idx.geom, j)..];
        let mut p = 0;
        while p < cc {
            let (dy, pixel) = (&dy_t[p..], &idx.pixel[p..]);
            let width = block_width(cc - p);
            match width {
                8 => block::<V, 8>(dy, cc, rows, s.vals, entries, pixel, taps),
                4 => block::<V, 4>(dy, cc, rows, s.vals, entries, pixel, taps),
                2 => block::<V, 2>(dy, cc, rows, s.vals, entries, pixel, taps),
                _ => block::<V, 1>(dy, cc, rows, s.vals, entries, pixel, taps),
            }
            p += width;
        }
    }
}

/// dW over one group for the stored entries `entries`: per entry a fresh
/// accumulator, `acc += dy·x` over the output pixels in ascending order,
/// then the `valid` live lanes added to the slot in ascending sample order.
/// Eight entries run interleaved so their add chains hide each other's
/// latency, and their lane sums run as one vector — the accumulators
/// transposed, so lane `l` of every entry is added at step `l`.
#[inline(always)]
fn dw_job_impl<V: Lanes>(
    idx: &SpConvIndex,
    xt: &[Lane],
    dy_t: &[Lane],
    valid: usize,
    entries: Range<usize>,
    vals: &mut [f32],
) {
    #[inline(always)]
    fn chains<V: Lanes, const E: usize>(
        idx: &SpConvIndex,
        xt: &[Lane],
        dy_t: &[Lane],
        e0: usize,
    ) -> [V; E] {
        let cc = idx.cc();
        let taps: [&[Lane]; E] = std::array::from_fn(|k| &xt[idx.origin[e0 + k] as usize..]);
        let dys: [&[Lane]; E] =
            std::array::from_fn(|k| &dy_t[idx.entry_row[e0 + k] as usize * cc..][..cc]);
        let mut acc = [V::splat(0.0); E];
        for (p, &px) in idx.pixel.iter().enumerate() {
            for k in 0..E {
                let (d, x) = (V::load(&dys[k][p].0), V::load(&taps[k][px as usize].0));
                acc[k] = acc[k].add(d.mul(x));
            }
        }
        acc
    }
    let mut e = entries.start;
    while e + LANES <= entries.end {
        let acc = chains::<V, LANES>(idx, xt, dy_t, e);
        let octet = &mut vals[e - entries.start..][..LANES];
        let octet: &mut [f32; LANES] = octet.try_into().expect("eight slots");
        let mut sum = V::load(octet);
        for lane in V::transpose(acc).into_iter().take(valid) {
            sum = sum.add(lane);
        }
        sum.store(octet);
        e += LANES;
    }
    while e < entries.end {
        let [acc] = chains::<V, 1>(idx, xt, dy_t, e);
        let mut samples = [0.0; LANES];
        acc.store(&mut samples);
        for &sample in &samples[..valid] {
            vals[e - entries.start] += sample;
        }
        e += 1;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::oracle::{col2im_ld, im2col_batched, sddmm_nt_seg_into, spmm_into, spmm_tn_into};
    use crate::proptests::view_of;
    use crate::Tensor;
    use ft_sparse::CsrMatrix;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A CSR weight `[out_c, in_c·k²]` with a Bernoulli(`density`) structure
    /// in which row `dead.0` and column `dead.1` (if in range) are left
    /// empty; some stored values are an exact `0.0` (freshly grown).
    pub(crate) fn random_weight(
        rows: usize,
        cols: usize,
        density: f64,
        dead: (usize, usize),
        rng: &mut ChaCha8Rng,
    ) -> CsrMatrix {
        let mask: Vec<bool> = (0..rows * cols)
            .map(|i| {
                let alive = rng.gen_range(0.0f64..1.0) < density;
                alive && i / cols != dead.0 && i % cols != dead.1
            })
            .collect();
        let grown = |rng: &mut ChaCha8Rng| rng.gen_range(0.0f64..1.0) < 0.1;
        let vals: Vec<f32> = (0..rows * cols)
            .map(|_| {
                if grown(rng) {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect();
        CsrMatrix::from_mask_values(&mask, &vals, rows, cols)
    }

    pub(crate) fn rand_vec(len: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The im2col + CSR route over the whole batch: `(out, dW slots
    /// accumulated onto `grad`, gx)`.
    pub(crate) fn im2col_csr_oracle(
        s: CsrView<'_>,
        g: &ConvGeom,
        x: &[f32],
        dy: &[f32],
        n: usize,
        grad: &mut [f32],
    ) -> (Vec<f32>, Vec<f32>) {
        let (cr, cc, oc) = (g.col_rows(), g.col_cols(), s.rows);
        let mut cols = Tensor::zeros(&[cr, n * cc]);
        im2col_batched(x, n, g, cols.data_mut());
        // Forward, then [oc, n·cc] → NCHW.
        let mut out_b = Tensor::zeros(&[oc, n * cc]);
        spmm_into(s, &cols, &mut out_b);
        let mut out = vec![0.0f32; n * oc * cc];
        let mut dy_b = Tensor::zeros(&[oc, n * cc]);
        for i in 0..n {
            for o in 0..oc {
                out[(i * oc + o) * cc..][..cc]
                    .copy_from_slice(&out_b.data()[(o * n + i) * cc..][..cc]);
                dy_b.data_mut()[(o * n + i) * cc..][..cc]
                    .copy_from_slice(&dy[(i * oc + o) * cc..][..cc]);
            }
        }
        if n > 0 {
            sddmm_nt_seg_into(s, &dy_b, &cols, cc, grad);
        }
        let mut dcol = Tensor::zeros(&[cr, n * cc]);
        spmm_tn_into(s, &dy_b, &mut dcol);
        let sample = g.in_c * g.in_h * g.in_w;
        let mut gx = vec![0.0f32; n * sample];
        for i in 0..n {
            col2im_ld(
                &dcol.data()[i * cc..],
                n * cc,
                g,
                &mut gx[i * sample..][..sample],
            );
        }
        (out, gx)
    }

    /// Forward, dW (accumulated over `batches` consecutive batches of `n`
    /// on one index and one set of buffers) and dX of the engine against the
    /// im2col + CSR route, `to_bits`, on `rt`.
    pub(crate) fn assert_matches_oracle(
        rt: &Runtime,
        w: &CsrMatrix,
        g: &ConvGeom,
        batches: &[usize],
        rng: &mut ChaCha8Rng,
    ) {
        let (s, cc) = (view_of(w), g.col_cols());
        let idx = SpConvIndex::new(s, g);
        let mut bufs = ConvBufs::default();
        let mut grad = vec![0.25f32; s.nnz()];
        let mut grad_oracle = grad.clone();
        for &n in batches {
            let x = rand_vec(n * g.in_c * g.in_h * g.in_w, rng);
            let dy = rand_vec(n * s.rows * cc, rng);
            let (out_o, gx_o) = im2col_csr_oracle(s, g, &x, &dy, n, &mut grad_oracle);
            let mut out = vec![f32::NAN; out_o.len()];
            spconv_forward_rt(rt, &idx, s, &x, n, &mut bufs, &mut out);
            assert_eq!(bits(&out), bits(&out_o), "forward n={n} {g:?}");
            assert_eq!(
                bufs.kept_input_len(),
                n.div_ceil(8) * 8 * g.in_c * (g.in_h + 2 * g.pad) * (g.in_w + 2 * g.pad)
            );
            let mut gx = vec![f32::NAN; gx_o.len()];
            spconv_backward_rt(
                rt,
                &idx,
                s,
                &dy,
                n,
                &mut bufs,
                Some(&mut grad),
                Some(&mut gx),
            );
            assert_eq!(bits(&gx), bits(&gx_o), "gx n={n} {g:?}");
            assert_eq!(bits(&grad), bits(&grad_oracle), "dW n={n} {g:?}");
        }
    }

    /// Every conv geometry of ResNet18 at width 0.25 on 16×16 inputs, batch
    /// 32 then 18 at d = 0.05: 3×3 and 1×1, stride 1 and 2, 16/8/4/2 px.
    #[test]
    fn spconv_matches_im2col_csr_on_resnet_geometries() {
        // (in_c, out_c, kernel, stride, pad, side)
        let geoms = [
            (16usize, 16usize, 3usize, 1usize, 1usize, 16usize),
            (16, 32, 3, 2, 1, 16),
            (32, 32, 3, 1, 1, 8),
            (16, 32, 1, 2, 0, 16),
            (32, 64, 3, 2, 1, 8),
            (64, 64, 3, 1, 1, 4),
            (32, 64, 1, 2, 0, 8),
            (64, 128, 3, 2, 1, 4),
            (128, 128, 3, 1, 1, 2),
            (64, 128, 1, 2, 0, 4),
            (128, 128, 1, 1, 0, 2),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for (in_c, out_c, kernel, stride, pad, side) in geoms {
            let g = ConvGeom {
                in_c,
                in_h: side,
                in_w: side,
                kernel,
                stride,
                pad,
            };
            let w = random_weight(
                out_c,
                g.col_rows(),
                0.05,
                (usize::MAX, usize::MAX),
                &mut rng,
            );
            for rt in [Runtime::sequential(), Runtime::exact(4).with_min_work(0)] {
                assert_matches_oracle(&rt, &w, &g, &[32, 18], &mut rng);
            }
        }
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn spconv_backward_needs_the_forward_input() {
        let g = ConvGeom {
            in_c: 1,
            in_h: 3,
            in_w: 3,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let w = random_weight(2, 9, 1.0, (9, 9), &mut ChaCha8Rng::seed_from_u64(1));
        let idx = SpConvIndex::new(view_of(&w), &g);
        let dy = vec![0.0; 2 * 9];
        let mut gx = vec![0.0; 9];
        spconv_backward_rt(
            &Runtime::sequential(),
            &idx,
            view_of(&w),
            &dy,
            1,
            &mut ConvBufs::default(),
            None,
            Some(&mut gx),
        );
    }
}

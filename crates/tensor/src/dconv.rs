//! Direct dense convolution: register-blocked kernels over the sparse
//! engine's zero-padded, sample-innermost input, with no column matrix.
//!
//! The im2col route ([`crate::oracle::im2col_batched`] → [`crate::matmul_into`] /
//! [`crate::oracle::matmul_nt_seg_into`] / [`crate::matmul_tn_into_rt`] →
//! [`crate::oracle::col2im_ld`]) writes nine times the input, re-packs it into GEMM
//! panels and reads it a third time, to feed a GEMM whose `M` is a layer's
//! handful of output channels. This engine runs on [`crate::spconv`]'s layout
//! — the network's [`LaneTensor`] activations, groups of eight samples as
//! `[c][y + r][x + r][lane]` with a `+0.0` ring `r ≥ pad`, so every operand
//! is one lane vector at `origin(c, ky, kx) + pixel(y, x)` — reading its
//! input and writing its output in place, and runs three kernels on it, each
//! holding a block of accumulators in registers like the GEMM's microkernel:
//!
//! - **Forward**: six output channels × two pixels, over the weight columns
//!   `k = (c, ky, kx)` in ascending order.
//! - **dW**: four output channels × two taps, over the output pixels in
//!   ascending order; the accumulators of a row's eight consecutive taps are
//!   transposed so lane `l` of all eight is one vector, and the live lanes
//!   are added into `w.grad` in ascending sample order. On a plane of fewer
//!   pixels than output channels the lanes hold taps instead: the input is
//!   transposed once per pixel, and three channels × sixteen taps keep their
//!   running totals in registers while each sample's chain is added on.
//! - **dX**: six input channels × two pixels, over the output channels in
//!   ascending order, added into the zeroed input-gradient group (its ring
//!   zeroed again afterwards). A group's `dY` rows are first copied an odd
//!   number of lanes apart (see [`Shape::dy_row`]) — a copy, not a
//!   transpose; dW reads `dY` in place. Taps of different
//!   channels never meet in an element, and within a channel the order of
//!   the walk ([`dx_kernel`]) hands every element its taps in ascending `k`
//!   without staging them.
//!
//! **Bit identity.** A lane is a sample, and each lane runs the scalar
//! operation sequence the GEMM route runs for that sample's output element,
//! weight-gradient element or input-gradient element:
//!
//! - forward — per [`KC`]-deep panel of `k` a chain from `+0.0`, then
//!   `total = total + panel` from a `+0.0` total, as the blocked driver's
//!   `C += acc` into a zeroed `C` does (the literal add matters: a fused
//!   chain whose products all underflow ends at `−0.0`, and `+0.0 + −0.0` is
//!   `+0.0`);
//! - dW — per sample a fresh chain over the output pixels, cut into
//!   [`KC`]-deep blocks when `oh·ow > KC`, added into the gradient
//!   sample-major, block-minor — [`crate::oracle::matmul_nt_seg_into`]'s flush order
//!   with `seg = oh·ow`;
//! - dX — `tmp = Σ_o w·dY[o]` per [`KC`]-deep panel of `o` from `+0.0`,
//!   `+0.0 + tmp` (the zeroed dCol), then added into the zeroed input
//!   gradient in ascending `k`, as [`crate::oracle::col2im_ld`] folds dCol's rows.
//!
//! Every multiply-add goes through [`Lanes::axpy`], as in the GEMM's
//! microkernel: fused in the AVX2+FMA family, rounded twice in the portable
//! one; each kernel is a [`LaneJob`] per group, and [`run_lanes`] picks the
//! family. Padded taps multiply the
//! ring's stored `+0.0` like im2col's structural zeros, and the ring of the
//! input gradient absorbs what col2im clips. Register blocks that run past the last channel
//! recompute it and drop the result. Outputs, weight gradients and input
//! gradients are therefore `to_bits`-equal to the GEMM route at any batch
//! size and thread count — groups fan out over the [`Runtime`] for forward
//! and dX, weight rows for dW, every worker walking its groups in ascending
//! order — which the tests pin with those kernels as the oracle.

use crate::act::zero_ring;
use crate::lanes::{run_lanes, Lane, LaneJob, Lanes, LANES, ZERO};
use crate::matmul::KC;
use crate::spconv::{for_groups, pixel_origin, tap_origin};
use crate::{ConvGeom, LaneTensor};
use ft_runtime::Runtime;
use std::ops::Range;

/// Channels per register block of forward (output channels) and dX (input
/// channels), and its pixels: twelve accumulators, two operand vectors and
/// one broadcast, like the GEMM's 6 × 16 microkernel. A 4 × 3 block needs all
/// sixteen registers and spills.
const CH: usize = 6;
const PX: usize = 2;
/// Output channels and taps per register block of dW; four blocks side by
/// side make the eight taps a flush transposes.
const DW_ROWS: usize = 4;
const DW_TAPS: usize = 2;
/// dW with lanes of taps ([`Shape::dw_over_taps`]): output channels and tap
/// vectors per register block (six running totals, six chains); the tap
/// vectors are also the panel of the input transposed at a time.
const DWT_ROWS: usize = 3;
const DWT_VECS: usize = 2;

/// What the dense engine keeps between calls, grown on first use and reused
/// from then on: the offset tables of its current geometry and ring, the
/// weight transposed for dX, `dY` with its rows an odd number of lanes apart,
/// and the per-worker staging of dW's blocked chains. None of it scales with
/// `in_c·k²·oh·ow`: there is no column matrix. (The sparse engine reads and
/// writes the activations themselves and needs none of it.)
#[derive(Debug, Default)]
pub struct ConvBufs {
    /// Geometry and input ring `origin` and `pixel` were built for.
    layout: Option<(ConvGeom, usize)>,
    /// Per weight column `k`: offset of its tap at output pixel `(0, 0)`.
    origin: Vec<u32>,
    /// Per output pixel, row-major: offset of its window's first tap.
    pixel: Vec<u32>,
    /// The largest `origin[k] + pixel[p]`: inside an input group, and the
    /// one bound the kernels' unchecked loads rest on. Written with the
    /// tables it describes, by [`ConvBufs::index`] and nothing else.
    reach: usize,
    /// `[in_c/6][k²][out_c][6]`: the six channels' weights of one tap and
    /// output channel side by side, in the order dX reads them.
    w_t: Vec<f32>,
    /// Per worker, one group's `dY` with its rows `dy_row` apart, for dX.
    dy_t: Vec<Lane>,
    /// Per worker, `[4][blocks][8]` transposed dW chains, used when a
    /// sample's chain is cut into blocks (see [`Dw`]), or a panel of the
    /// input transposed for [`dw_over_taps`].
    dw_stage: Vec<Lane>,
}

impl ConvBufs {
    /// Floats (or offsets) held by all buffers together.
    pub fn total_len(&self) -> usize {
        self.origin.len()
            + self.pixel.len()
            + self.w_t.len()
            + (self.dy_t.len() + self.dw_stage.len()) * LANES
    }

    /// Builds the offset tables on first use and whenever the geometry or
    /// the input's ring changes.
    fn index(&mut self, g: &ConvGeom, ring: usize) {
        if self.layout == Some((*g, ring)) {
            return;
        }
        assert!(ring >= g.pad, "dconv input ring {ring} < pad {}", g.pad);
        let (hp, wp) = (g.in_h + 2 * ring, g.in_w + 2 * ring);
        assert!(
            g.in_c * hp * wp <= u32::MAX as usize,
            "dconv geometry exceeds u32 offsets"
        );
        self.origin.clear();
        self.origin
            .extend((0..g.col_rows()).map(|k| tap_origin(g, ring, k) as u32));
        self.pixel.clear();
        self.pixel
            .extend((0..g.col_cols()).map(|p| pixel_origin(g, ring, p) as u32));
        let max = |table: &[u32]| table.iter().max().map_or(0, |&at| at as usize);
        self.reach = max(&self.origin) + max(&self.pixel);
        self.layout = Some((*g, ring));
    }

    /// Transposes `w[out_c][in_c·k²]` into `w_t`. The slots of a last
    /// block's missing channels keep whatever they held: dX computes them
    /// and drops the result.
    fn transpose_weight(&mut self, w: &[f32], g: &ConvGeom, out_c: usize) {
        let taps = g.kernel * g.kernel;
        self.w_t
            .resize(g.in_c.div_ceil(CH) * taps * out_c * CH, 0.0);
        for (o, row) in w.chunks_exact(g.in_c * taps).enumerate() {
            for (c, vals) in row.chunks_exact(taps).enumerate() {
                let at = (c / CH * taps * out_c + o) * CH + c % CH;
                for (t, &v) in vals.iter().enumerate() {
                    self.w_t[at + t * out_c * CH] = v;
                }
            }
        }
    }
}

/// One convolution's shape and offset tables, as the kernels see them.
#[derive(Clone, Copy)]
struct Shape<'a> {
    geom: &'a ConvGeom,
    /// The input's ring.
    ring: usize,
    out_c: usize,
    origin: &'a [u32],
    pixel: &'a [u32],
    /// `origin[k] + pixel[p] ≤ reach` for every pair: [`ConvBufs::reach`].
    reach: usize,
}

impl Shape<'_> {
    /// Weight columns, `in_c·k²`.
    fn cr(&self) -> usize {
        self.origin.len()
    }

    /// Output pixels per sample and channel.
    fn cc(&self) -> usize {
        self.pixel.len()
    }

    /// Lanes in one output group `[out_c, oh, ow]`.
    fn group_out(&self) -> usize {
        self.out_c * self.cc()
    }

    /// Lanes from one channel's row of the transposed `dY` to the next:
    /// `oh·ow` rounded up to odd. dX reads one pixel of every channel in
    /// turn, and rows a power of two apart all land in one cache set — at
    /// 64 channels of 32 × 32 pixels that cost dX a quarter of its speed.
    fn dy_row(&self) -> usize {
        self.cc() | 1
    }

    /// Lanes in one group's transposed `dY`.
    fn group_dy(&self) -> usize {
        self.out_c * self.dy_row()
    }

    /// Lanes in one input plane, `(h + 2r)·(w + 2r)`.
    fn plane(&self) -> usize {
        let (g, r) = (self.geom, self.ring);
        (g.in_h + 2 * r) * (g.in_w + 2 * r)
    }

    /// Lanes in one input group.
    fn group_in(&self) -> usize {
        self.geom.in_c * self.plane()
    }

    /// [`KC`]-deep blocks a sample's dW chain is cut into.
    fn dw_blocks(&self) -> usize {
        self.cc().div_ceil(KC)
    }

    /// Whether dW runs with lanes of taps rather than lanes of samples: on a
    /// plane of fewer pixels than output channels, where transposing the
    /// input once per pixel costs less than transposing every row's chains,
    /// and whose chains are one block.
    fn dw_over_taps(&self) -> bool {
        self.cc() < self.out_c && self.dw_blocks() == 1
    }

    /// Whether a pass over `groups` groups is worth fanning out on `rt`; the
    /// work measure is lane-vector multiply-adds.
    fn worth_fanning_out(&self, rt: &Runtime, groups: usize) -> bool {
        let work = (self.out_c * self.cr()).saturating_mul(self.cc());
        rt.should_parallelize(work.saturating_mul(groups))
    }

    /// `x` must be an input of this geometry and ring.
    fn check_input(&self, x: &LaneTensor) {
        let g = self.geom;
        assert_eq!(
            (&x.shape()[1..], x.ring()),
            (&[g.in_c, g.in_h, g.in_w][..], self.ring),
            "dconv input does not match its geometry"
        );
    }
}

/// `out_c` of a `[out_c, in_c·k²]` weight slice.
fn out_channels(w: &[f32], geom: &ConvGeom) -> usize {
    let cr = geom.col_rows();
    assert!(
        cr > 0 && !w.is_empty() && w.len().is_multiple_of(cr),
        "dconv weight is not [out_c, in_c·k²]"
    );
    w.len() / cr
}

/// Dense convolution forward: `out[n, out_c, oh, ow] = W ∗ x` for the input
/// activation `x` (geometry `geom`, any ring `≥ pad`) and the row-major
/// weight `w[out_c, in_c·k²]`; `out` is resized with no ring and
/// overwritten. Bit-identical to im2col → [`crate::matmul_into`] into a
/// zeroed output, on any runtime.
///
/// # Panics
///
/// Panics if `w` is not whole rows of `in_c·k²` or `x` not an input of
/// `geom`.
pub fn dconv_forward_rt(
    rt: &Runtime,
    geom: &ConvGeom,
    w: &[f32],
    x: &LaneTensor,
    bufs: &mut ConvBufs,
    out: &mut LaneTensor,
) {
    let out_c = out_channels(w, geom);
    bufs.index(geom, x.ring());
    let sh = Shape {
        geom,
        ring: x.ring(),
        out_c,
        origin: &bufs.origin,
        pixel: &bufs.pixel,
        reach: bufs.reach,
    };
    sh.check_input(x);
    out.resize([x.shape()[0], out_c, geom.out_h(), geom.out_w()], 0);
    let (xs, group_in) = (x.lanes(), sh.group_in());
    let fan_out = sh.worth_fanning_out(rt, x.groups()).then_some(rt);
    let no_slots = (&mut Vec::new(), 0);
    for_groups(
        fan_out,
        out.lanes_mut(),
        sh.group_out(),
        no_slots,
        |gi, out, _| {
            run_lanes(Forward(&sh, w, &xs[gi * group_in..][..group_in], out));
        },
    );
}

/// Dense convolution backward from `dy[n, out_c, oh, ow]` (no ring) over the
/// forward's input `x`:
///
/// - `grad_w[out_c, in_c·k²]` *accumulates* the weight gradient, one fresh
///   accumulator per sample added in sample order — bit-identical to
///   [`crate::oracle::matmul_nt_seg_into`] with `seg = oh·ow` over the batched
///   column matrix;
/// - `gx` is resized to `x`'s layout and *overwritten* with the input
///   gradient — bit-identical to [`crate::matmul_tn_into_rt`] into a zeroed
///   matrix followed by per-sample [`crate::oracle::col2im_ld`] into a zeroed
///   `gx`.
///
/// Either output may be left out.
///
/// # Panics
///
/// Panics if `x` is not an input of `geom`, `dy` not its output's layout, or
/// a slice length is wrong.
#[allow(clippy::too_many_arguments)] // the kernel's natural operands
pub fn dconv_backward_rt(
    rt: &Runtime,
    geom: &ConvGeom,
    w: &[f32],
    x: &LaneTensor,
    dy: &LaneTensor,
    bufs: &mut ConvBufs,
    grad_w: Option<&mut [f32]>,
    gx: Option<&mut LaneTensor>,
) {
    let out_c = out_channels(w, geom);
    bufs.index(geom, x.ring());
    if gx.is_some() {
        bufs.transpose_weight(w, geom, out_c);
    }
    let ConvBufs {
        origin,
        pixel,
        reach,
        w_t,
        dy_t,
        dw_stage,
        ..
    } = bufs;
    let sh = Shape {
        geom,
        ring: x.ring(),
        out_c,
        origin,
        pixel,
        reach: *reach,
    };
    sh.check_input(x);
    let n = x.shape()[0];
    assert!(
        dy.shape() == [n, out_c, geom.out_h(), geom.out_w()] && dy.ring() == 0,
        "dconv dy is not the output's layout"
    );
    let (groups, group_in) = (x.groups(), sh.group_in());
    let fan_out = sh.worth_fanning_out(rt, groups);
    let (cc, dy_row, group_out) = (sh.cc(), sh.dy_row(), sh.group_out());
    let dys = dy.lanes();

    if let Some(gx) = gx {
        gx.resize(x.shape(), x.ring());
        let slots = (dy_t, sh.group_dy());
        for_groups(
            fan_out.then_some(rt),
            gx.lanes_mut(),
            group_in,
            slots,
            |gi, gx, dy_t| {
                // This group's `dY`, its rows `dy_row` apart.
                let dy = &dys[gi * group_out..][..group_out];
                for (dst, src) in dy_t.chunks_mut(dy_row).zip(dy.chunks(cc)) {
                    dst[..cc].copy_from_slice(src);
                }
                run_lanes(Dx(&sh, w_t, dy_t, gx));
            },
        );
    }

    // dW: weight rows split over the workers, each walking the groups in
    // ascending order so every element adds its samples in order.
    if let Some(grad) = grad_w {
        assert_eq!(grad.len(), w.len(), "dconv weight gradient length mismatch");
        let xs = x.lanes();
        // The transposed input panel, or a chain cut into blocks.
        let stage_len = match sh.dw_blocks() {
            _ if sh.dw_over_taps() => DWT_VECS * LANES * cc,
            1 => 0,
            blocks => DW_ROWS * blocks * LANES,
        };
        let run = |((rows, grad), stage): ((Range<usize>, &mut [f32]), &mut [Lane])| {
            let groups = xs.chunks(group_in).zip(dys.chunks(group_out));
            for (gi, (xt, dy_t)) in groups.enumerate() {
                run_lanes(Dw(&sh, xt, dy_t, x.live(gi), rows.clone(), grad, stage));
            }
        };
        if out_c > 1 && fan_out {
            let jobs = rt.split_rows_mut(grad, sh.cr());
            dw_stage.resize(jobs.len() * stage_len, ZERO);
            let mut stages = &mut dw_stage[..];
            let jobs = jobs.into_iter().map(|job| {
                let (stage, rest) = std::mem::take(&mut stages).split_at_mut(stage_len);
                stages = rest;
                (job, stage)
            });
            rt.scatter(jobs.collect(), run);
        } else {
            dw_stage.resize(stage_len, ZERO);
            run(((0..out_c, grad), dw_stage));
        }
    }
}

/// One group of a forward pass, `(sh, w, xt, out_t)`.
struct Forward<'a>(&'a Shape<'a>, &'a [f32], &'a [Lane], &'a mut [Lane]);

impl LaneJob for Forward<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Forward(sh, w, xt, out_t) = self;
        forward_kernel::<V>(sh, w, xt, out_t);
    }
}

/// One group of dX, `(sh, w_t, dy_t, gx_t)`: `gx_t` zeroed, the kernel over
/// the transposed weight `w_t`, the ring zeroed again.
struct Dx<'a>(&'a Shape<'a>, &'a [f32], &'a [Lane], &'a mut [Lane]);

impl LaneJob for Dx<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Dx(sh, w_t, dy_t, gx_t) = self;
        gx_t.fill(ZERO);
        dx_kernel::<V>(sh, w_t, dy_t, gx_t);
        let g = sh.geom;
        zero_ring(gx_t, [g.in_c, g.in_h, g.in_w], sh.ring);
    }
}

/// `lanes[at]`, unchecked.
///
/// # Safety
///
/// `at < lanes.len()`.
#[inline(always)]
unsafe fn lane_at<V: Lanes>(lanes: &[Lane], at: usize) -> V {
    // SAFETY: in bounds by the caller's contract.
    V::load(unsafe { &lanes.get_unchecked(at).0 })
}

/// `acc[i][j] += a[i] · b[j]`, the register block's rank-1 update.
#[inline(always)]
fn rank1<V: Lanes, const R: usize, const P: usize>(acc: &mut [[V; P]; R], a: [V; R], b: [V; P]) {
    for (row, a) in acc.iter_mut().zip(a) {
        for (acc, b) in row.iter_mut().zip(b) {
            *acc = acc.axpy(a, b);
        }
    }
}

/// `total[i][j] = total[i][j] + panel[i][j]`: the GEMM driver's `C += acc`.
#[inline(always)]
fn add_panel<V: Lanes, const P: usize>(total: &mut [[V; P]; CH], panel: [[V; P]; CH]) {
    for (row, panel) in total.iter_mut().zip(panel) {
        for (total, panel) in row.iter_mut().zip(panel) {
            *total = total.add(panel);
        }
    }
}

/// Forward over one group: `out_t[o][p] = Σ_k w[o][k] · xt[origin_k +
/// pixel_p]` in ascending `k`, one chain from `+0.0` per [`KC`] columns,
/// the chains added in order onto `+0.0`.
#[inline(always)]
fn forward_kernel<V: Lanes>(sh: &Shape<'_>, w: &[f32], xt: &[Lane], out_t: &mut [Lane]) {
    #[inline(always)]
    fn block<V: Lanes, const P: usize>(
        sh: &Shape<'_>,
        xt: &[Lane],
        rows: [&[f32]; CH],
        pixel: &[u32],
    ) -> [[V; P]; CH] {
        let pixel: [usize; P] = std::array::from_fn(|j| pixel[j] as usize);
        let mut total = [[V::splat(0.0); P]; CH];
        for k0 in (0..sh.cr()).step_by(KC) {
            let origin = &sh.origin[k0..sh.cr().min(k0 + KC)];
            let rows: [&[f32]; CH] = std::array::from_fn(|i| &rows[i][k0..][..origin.len()]);
            let mut acc = [[V::splat(0.0); P]; CH];
            for (k, &org) in origin.iter().enumerate() {
                // SAFETY: `org` and `pixel[j]` are entries of the tables
                // `sh.reach` bounds, and `forward_kernel` checked
                // `sh.reach < xt.len()`; `k < origin.len()`, the length
                // every `rows[i]` was just sliced to.
                let (x, w): ([V; P], [V; CH]) = unsafe {
                    (
                        std::array::from_fn(|j| lane_at(xt, org as usize + pixel[j])),
                        std::array::from_fn(|i| V::splat(*rows[i].get_unchecked(k))),
                    )
                };
                rank1(&mut acc, w, x);
            }
            add_panel(&mut total, acc);
        }
        total
    }
    #[inline(always)]
    fn store<V: Lanes, const P: usize>(
        out_t: &mut [Lane],
        cc: usize,
        live: usize,
        block: [[V; P]; CH],
    ) {
        for (i, row) in block.into_iter().enumerate().take(live) {
            for (j, v) in row.into_iter().enumerate() {
                v.store(&mut out_t[i * cc + j].0);
            }
        }
    }
    assert!(sh.reach < xt.len(), "dconv group shorter than its geometry");
    let (cr, cc) = (sh.cr(), sh.cc());
    for o in (0..sh.out_c).step_by(CH) {
        // Rows past the last repeat it; `store` drops them.
        let rows: [&[f32]; CH] =
            std::array::from_fn(|i| &w[(o + i).min(sh.out_c - 1) * cr..][..cr]);
        let live = CH.min(sh.out_c - o);
        for p in (0..cc).step_by(PX) {
            let (pixel, out) = (&sh.pixel[p..], &mut out_t[o * cc + p..]);
            if cc - p >= PX {
                store(out, cc, live, block::<V, PX>(sh, xt, rows, pixel));
            } else {
                store(out, cc, live, block::<V, 1>(sh, xt, rows, pixel));
            }
        }
    }
}

/// dX over one group: for every weight column `k = (c, t)`, `tmp[p] = Σ_o
/// w[o][k] · dy_t[o][p]` (ascending `o`, one chain from `+0.0` per [`KC`]
/// output channels, the chains added in order onto `+0.0`), then
/// `gx_t[origin_k + pixel_p] += tmp[p]`. `gx_t` arrives zeroed.
///
/// An element must add its taps in ascending `k`. Taps of different channels
/// never meet in an element, so six channels run side by side. Within a
/// channel both offsets grow with their index, so of two taps that meet in
/// an element the *later* tap comes from the *earlier* pixel: walking the
/// pixel blocks backwards, and the taps `t` forwards inside each block, hands
/// every element its taps in ascending order — while a block's `dY` lanes
/// stay in L1 for all `k²` taps instead of streaming past once per tap.
#[inline(always)]
fn dx_kernel<V: Lanes>(sh: &Shape<'_>, w_t: &[f32], dy_t: &[Lane], gx_t: &mut [Lane]) {
    #[inline(always)]
    fn block<V: Lanes, const P: usize>(dy: &[Lane], dy_row: usize, w: &[f32]) -> [[V; P]; CH] {
        let mut total = [[V::splat(0.0); P]; CH];
        for (panel, w) in w.chunks(KC * CH).enumerate() {
            let mut acc = [[V::splat(0.0); P]; CH];
            for (o, w) in w.chunks_exact(CH).enumerate() {
                let dy = &dy[(panel * KC + o) * dy_row..][..P];
                let d: [V; P] = std::array::from_fn(|j| V::load(&dy[j].0));
                let w: [V; CH] = std::array::from_fn(|i| V::splat(w[i]));
                rank1(&mut acc, w, d);
            }
            add_panel(&mut total, acc);
        }
        total
    }
    #[inline(always)]
    fn add<V: Lanes, const P: usize>(
        taps: &mut [Lane],
        plane: usize,
        live: usize,
        pixel: &[u32],
        block: [[V; P]; CH],
    ) {
        for (i, row) in block.into_iter().enumerate().take(live) {
            for (v, &px) in row.into_iter().zip(pixel) {
                let tap = &mut taps[i * plane + px as usize].0;
                V::load(tap).add(v).store(tap);
            }
        }
    }
    let (cc, dy_row, plane) = (sh.cc(), sh.dy_row(), sh.plane());
    let kk = sh.geom.kernel * sh.geom.kernel;
    for (cb, w) in w_t.chunks_exact(kk * sh.out_c * CH).enumerate() {
        let c = cb * CH;
        // Channels past the last hold stale weights; `add` drops them.
        let live = CH.min(sh.geom.in_c - c);
        for p in (0..cc).step_by(PX).rev() {
            let (dy, pixel) = (&dy_t[p..], &sh.pixel[p..]);
            for (t, w) in w.chunks_exact(sh.out_c * CH).enumerate() {
                let taps = &mut gx_t[sh.origin[c * kk + t] as usize..];
                if cc - p >= PX {
                    add(taps, plane, live, pixel, block::<V, PX>(dy, dy_row, w));
                } else {
                    add(taps, plane, live, pixel, block::<V, 1>(dy, dy_row, w));
                }
            }
        }
    }
}

/// dW over one group, `(sh, xt, dy_t, valid, rows, grad, stage)`, for the
/// weight rows `rows` (`grad` holds exactly those rows; `stage` is this
/// worker's): per element and sample a fresh chain
/// `Σ_p dy_t[o][p] · xt[origin_k + pixel_p]` per [`KC`] output pixels, then
/// the `valid` live lanes added to the element sample-major, block-minor.
/// Four rows × two taps share a register block; the chains of a row's eight
/// consecutive taps are transposed, so lane `l` of all eight is one vector
/// and a sample is one vector add. A chain cut into blocks waits in `stage`,
/// transposed, `[row][block][lane]`, until its last block is in; a whole
/// chain is flushed from registers (through `stage` it cost a fifth more on
/// 2 × 2 planes). [`Shape::dw_over_taps`] hands the group to
/// [`dw_over_taps`] instead.
struct Dw<'a>(
    &'a Shape<'a>,
    &'a [Lane],
    &'a [Lane],
    usize,
    Range<usize>,
    &'a mut [f32],
    &'a mut [Lane],
);

impl LaneJob for Dw<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        #[inline(always)]
        fn chains<V: Lanes>(
            sh: &Shape<'_>,
            xt: &[Lane],
            dy: [&[Lane]; DW_ROWS],
            taps: [usize; DW_TAPS],
            pixel: &[u32],
        ) -> [[V; DW_TAPS]; DW_ROWS] {
            assert!(dy.iter().all(|dy| dy.len() == pixel.len()));
            let origin = taps.map(|k| sh.origin[k] as usize);
            let mut acc = [[V::splat(0.0); DW_TAPS]; DW_ROWS];
            for (p, &px) in pixel.iter().enumerate() {
                // SAFETY: `p < pixel.len()`, every `dy[i]`'s length as just
                // asserted; `origin[e]` and `px` are entries of the tables
                // `sh.reach` bounds, and `Dw::run` checked
                // `sh.reach < xt.len()`.
                let (d, x): ([V; DW_ROWS], [V; DW_TAPS]) = unsafe {
                    (
                        std::array::from_fn(|i| lane_at(dy[i], p)),
                        std::array::from_fn(|e| lane_at(xt, origin[e] + px as usize)),
                    )
                };
                rank1(&mut acc, d, x);
            }
            acc
        }
        /// `slots[t] = (…(slots[t] + addends[0][t]) + addends[1][t]) + …`.
        #[inline(always)]
        fn flush<V: Lanes>(slots: &mut [f32], addends: impl Iterator<Item = V>) {
            let mut sum = load_part::<V>(slots);
            for v in addends {
                sum = sum.add(v);
            }
            store_part(sum, slots);
        }
        let Dw(sh, xt, dy_t, valid, rows, grad, stage) = self;
        assert!(sh.reach < xt.len(), "dconv group shorter than its geometry");
        if sh.dw_over_taps() {
            return dw_over_taps::<V>(sh, xt, dy_t, valid, rows, grad, stage);
        }
        let (cr, cc, blocks) = (sh.cr(), sh.cc(), sh.dw_blocks());
        for o in rows.clone().step_by(DW_ROWS) {
            // Rows and taps past the last repeat it; the flush drops them.
            let live = DW_ROWS.min(rows.end - o);
            let dy: [&[Lane]; DW_ROWS] =
                std::array::from_fn(|i| &dy_t[(o + i).min(rows.end - 1) * cc..][..cc]);
            for k in (0..cr).step_by(LANES) {
                let at = (o - rows.start) * cr + k;
                let width = LANES.min(cr - k);
                for b in 0..blocks {
                    let span = b * KC..cc.min((b + 1) * KC);
                    let dy: [&[Lane]; DW_ROWS] = std::array::from_fn(|i| &dy[i][span.clone()]);
                    let mut acc = [[V::splat(0.0); LANES]; DW_ROWS];
                    for e in (0..LANES).step_by(DW_TAPS) {
                        let taps = std::array::from_fn(|j| (k + e + j).min(cr - 1));
                        let block = chains::<V>(sh, xt, dy, taps, &sh.pixel[span.clone()]);
                        for (acc, block) in acc.iter_mut().zip(block) {
                            acc[e..e + DW_TAPS].copy_from_slice(&block);
                        }
                    }
                    for (i, acc) in acc.into_iter().enumerate().take(live) {
                        let samples = V::transpose(acc);
                        if blocks == 1 {
                            let slots = &mut grad[at + i * cr..][..width];
                            flush(slots, samples.into_iter().take(valid));
                        } else {
                            let lanes = &mut stage[(i * blocks + b) * LANES..][..LANES];
                            for (lane, v) in lanes.iter_mut().zip(samples) {
                                v.store(&mut lane.0);
                            }
                        }
                    }
                }
                if blocks > 1 {
                    for (i, stage) in stage.chunks(blocks * LANES).enumerate().take(live) {
                        let chains = (0..valid)
                            .flat_map(|l| stage[l..].iter().step_by(LANES))
                            .map(|lane| V::load(&lane.0));
                        flush(&mut grad[at + i * cr..][..width], chains);
                    }
                }
            }
        }
    }
}

/// [`Dw`] with lanes of taps, on a plane of one block: per sixteen taps the
/// input is transposed into `stage`, `[vector][sample][pixel]`, so one
/// vector holds eight consecutive taps of one sample at one pixel. A
/// register block holds three rows' running totals of those taps, loaded
/// from `grad`; per live sample a fresh chain over the pixels in ascending
/// order (the broadcast `dY` times the taps) is added onto them, and the
/// totals are stored back — the same scalar operations per element as the
/// lanes-of-samples flush.
#[inline(always)]
fn dw_over_taps<V: Lanes>(
    sh: &Shape<'_>,
    xt: &[Lane],
    dy_t: &[Lane],
    valid: usize,
    rows: Range<usize>,
    grad: &mut [f32],
    stage: &mut [Lane],
) {
    let (cr, cc) = (sh.cr(), sh.cc());
    let octets = cr.div_ceil(LANES);
    for v0 in (0..octets).step_by(DWT_VECS) {
        // Taps and tap vectors past the last repeat it; their totals are
        // not stored.
        let vecs = DWT_VECS.min(octets - v0);
        let vec = |j: usize| v0 + j.min(vecs - 1);
        for j in 0..vecs {
            let mut origin = [0; LANES];
            for (t, origin) in origin.iter_mut().enumerate() {
                *origin = sh.origin[(LANES * vec(j) + t).min(cr - 1)] as usize;
            }
            for (p, &px) in sh.pixel.iter().enumerate() {
                let mut taps = [V::splat(0.0); LANES];
                for (tap, &origin) in taps.iter_mut().zip(&origin) {
                    // SAFETY: `origin` and `px` are entries of the tables
                    // `sh.reach` bounds, and `Dw::run` checked
                    // `sh.reach < xt.len()`.
                    *tap = unsafe { lane_at(xt, origin + px as usize) };
                }
                for (l, samples) in V::transpose(taps).into_iter().enumerate() {
                    samples.store(&mut stage[(j * LANES + l) * cc + p].0);
                }
            }
        }
        let xs: [&[Lane]; DWT_VECS] =
            std::array::from_fn(|j| &stage[(vec(j) - v0) * LANES * cc..][..LANES * cc]);
        for o in rows.clone().step_by(DWT_ROWS) {
            // Rows past the last repeat it; their totals are not stored.
            let row = |i: usize| (o + i).min(rows.end - 1);
            let dy: [&[Lane]; DWT_ROWS] = std::array::from_fn(|i| &dy_t[row(i) * cc..][..cc]);
            // The gradient slots of block row `i` and tap vector `j`.
            let slots = |i: usize, j: usize| {
                let (at, k) = ((row(i) - rows.start) * cr, LANES * vec(j));
                at + k..at + cr.min(k + LANES)
            };
            let mut total = [[V::splat(0.0); DWT_VECS]; DWT_ROWS];
            for (i, total) in total.iter_mut().enumerate() {
                for (j, total) in total.iter_mut().enumerate() {
                    *total = load_part(&grad[slots(i, j)]);
                }
            }
            let samples = xs[0].chunks_exact(cc).zip(xs[1].chunks_exact(cc));
            for (l, x) in samples.take(valid).enumerate() {
                let x = <[&[Lane]; DWT_VECS]>::from(x);
                let mut chain = [[V::splat(0.0); DWT_VECS]; DWT_ROWS];
                for p in 0..cc {
                    let mut d = [V::splat(0.0); DWT_ROWS];
                    for (d, dy) in d.iter_mut().zip(&dy) {
                        *d = V::splat(dy[p].0[l]);
                    }
                    let mut taps = [V::splat(0.0); DWT_VECS];
                    for (tap, x) in taps.iter_mut().zip(&x) {
                        *tap = V::load(&x[p].0);
                    }
                    rank1(&mut chain, d, taps);
                }
                for (total, chain) in total.iter_mut().zip(chain) {
                    for (total, chain) in total.iter_mut().zip(chain) {
                        *total = total.add(chain);
                    }
                }
            }
            for (i, total) in total.into_iter().enumerate().take(rows.end - o) {
                for (j, total) in total.into_iter().enumerate().take(vecs) {
                    store_part(total, &mut grad[slots(i, j)]);
                }
            }
        }
    }
}

/// The up to eight floats of `slots` (fewer for the last taps of a row) as
/// one vector, zeros after them.
#[inline(always)]
fn load_part<V: Lanes>(slots: &[f32]) -> V {
    match <&[f32; LANES]>::try_from(slots) {
        Ok(octet) => V::load(octet),
        Err(_) => {
            let mut octet = [0.0; LANES];
            octet[..slots.len()].copy_from_slice(slots);
            V::load(&octet)
        }
    }
}

/// The first `slots.len()` lanes of `v` into `slots`.
#[inline(always)]
fn store_part<V: Lanes>(v: V, slots: &mut [f32]) {
    match <&mut [f32; LANES]>::try_from(&mut *slots) {
        Ok(octet) => v.store(octet),
        Err(_) => {
            let mut octet = [0.0; LANES];
            v.store(&mut octet);
            slots.copy_from_slice(&octet[..slots.len()]);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::oracle::{col2im_ld, im2col_batched, matmul_nt_seg_into};
    use crate::spconv::tests::{bits, lanes_of, nchw_of, rand_vec};
    use crate::{matmul_into, matmul_tn_into_rt, Tensor};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The im2col + GEMM route over the whole batch: `(out, gx)`, the weight
    /// gradient accumulated onto `grad`.
    pub(crate) fn im2col_gemm_oracle(
        w: &[f32],
        g: &ConvGeom,
        x: &[f32],
        dy: &[f32],
        n: usize,
        grad: &mut [f32],
    ) -> (Vec<f32>, Vec<f32>) {
        let (cr, cc) = (g.col_rows(), g.col_cols());
        let oc = w.len() / cr;
        let w = Tensor::from_vec(w.to_vec(), &[oc, cr]);
        let mut cols = Tensor::zeros(&[cr, n * cc]);
        im2col_batched(x, n, g, cols.data_mut());
        // Forward, then [oc, n·cc] → NCHW.
        let mut out_b = Tensor::zeros(&[oc, n * cc]);
        matmul_into(&w, &cols, &mut out_b);
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
        let mut gw = Tensor::from_vec(grad.to_vec(), &[oc, cr]);
        matmul_nt_seg_into(&dy_b, &cols, cc, &mut gw);
        grad.copy_from_slice(gw.data());
        let mut dcol = Tensor::zeros(&[cr, n * cc]);
        matmul_tn_into_rt(&Runtime::sequential(), &w, &dy_b, &mut dcol);
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

    /// Forward, dW (accumulated over consecutive `batches` on one set of
    /// buffers, onto a gradient that starts non-zero) and dX of the engine
    /// against the im2col + GEMM route, `to_bits`, on `rt` — then dW again
    /// with the input gradient left out.
    pub(crate) fn assert_matches_oracle(
        rt: &Runtime,
        w: &[f32],
        g: &ConvGeom,
        batches: &[usize],
        rng: &mut ChaCha8Rng,
    ) {
        let (sample_in, sample_out) = (
            g.in_c * g.in_h * g.in_w,
            w.len() / g.col_rows() * g.col_cols(),
        );
        let mut bufs = ConvBufs::default();
        let mut grad = vec![0.25f32; w.len()];
        let mut grad_oracle = grad.clone();
        for &n in batches {
            let x = rand_vec(n * sample_in, rng);
            let dy = rand_vec(n * sample_out, rng);
            assert_batch_matches(
                rt,
                w,
                g,
                (&x, &dy, n),
                &mut bufs,
                (&mut grad, &mut grad_oracle),
            );
        }
    }

    /// One batch of [`assert_matches_oracle`], on given operands.
    pub(crate) fn assert_batch_matches(
        rt: &Runtime,
        w: &[f32],
        g: &ConvGeom,
        (x, dy, n): (&[f32], &[f32], usize),
        bufs: &mut ConvBufs,
        (grad, grad_oracle): (&mut [f32], &mut [f32]),
    ) {
        use crate::act::tests::assert_ring_and_dead_lanes_zero;
        let entry = grad_oracle.to_vec();
        let (out_o, gx_o) = im2col_gemm_oracle(w, g, x, dy, n, grad_oracle);
        // Odd batches read an input whose ring is one wider than the padding.
        let ring = g.pad + n % 2;
        let lx = lanes_of(x, [n, g.in_c, g.in_h, g.in_w], ring);
        let mut out = LaneTensor::default();
        dconv_forward_rt(rt, g, w, &lx, bufs, &mut out);
        assert_ring_and_dead_lanes_zero(&out, "forward");
        assert_eq!(bits(&nchw_of(&out)), bits(&out_o), "forward n={n} {g:?}");
        let ldy = lanes_of(dy, out.shape(), 0);
        let mut params_only = entry;
        dconv_backward_rt(rt, g, w, &lx, &ldy, bufs, Some(&mut params_only), None);
        assert_eq!(
            bits(&params_only),
            bits(grad_oracle),
            "dW alone n={n} {g:?}"
        );
        let mut gx = LaneTensor::default();
        dconv_backward_rt(rt, g, w, &lx, &ldy, bufs, Some(grad), Some(&mut gx));
        assert_ring_and_dead_lanes_zero(&gx, "gx");
        assert_eq!(bits(&nchw_of(&gx)), bits(&gx_o), "gx n={n} {g:?}");
        assert_eq!(bits(grad), bits(grad_oracle), "dW n={n} {g:?}");
    }

    fn runtimes() -> [Runtime; 2] {
        [Runtime::sequential(), Runtime::exact(4).with_min_work(0)]
    }

    fn geom(
        in_c: usize,
        (in_h, in_w): (usize, usize),
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> ConvGeom {
        ConvGeom {
            in_c,
            in_h,
            in_w,
            kernel,
            stride,
            pad,
        }
    }

    /// Every conv geometry of ResNet18 at width 0.25 on 16×16 inputs — the
    /// 3-channel stem, 3×3 and 1×1, stride 1 and 2, `in_c·k²` up to 1152 —
    /// and SmallCnn's three at width 16 on 8×8, batch 32 then 18.
    #[test]
    fn dconv_matches_im2col_gemm_on_model_geometries() {
        // (in_c, out_c, kernel, stride, pad, side)
        let geoms = [
            (3usize, 16usize, 3usize, 1usize, 1usize, 16usize),
            (16, 16, 3, 1, 1, 16),
            (16, 32, 3, 2, 1, 16),
            (32, 32, 3, 1, 1, 8),
            (16, 32, 1, 2, 0, 16),
            (32, 64, 3, 2, 1, 8),
            (64, 64, 3, 1, 1, 4),
            (32, 64, 1, 2, 0, 8),
            (64, 128, 3, 2, 1, 4),
            (128, 128, 3, 1, 1, 2),
            (64, 128, 1, 2, 0, 4),
            (3, 16, 3, 1, 1, 8),
            (16, 32, 3, 1, 1, 4),
            (32, 64, 3, 1, 1, 2),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        for (in_c, out_c, kernel, stride, pad, side) in geoms {
            let g = geom(in_c, (side, side), kernel, stride, pad);
            let w = rand_vec(out_c * g.col_rows(), &mut rng);
            for rt in runtimes() {
                assert_matches_oracle(&rt, &w, &g, &[32, 18], &mut rng);
            }
        }
    }

    /// The edges of the order contract: `in_c·k²` on both sides of a forward
    /// panel (27, 144, 256, 257), a 32×32 plane (four dW blocks per sample)
    /// and a 17×17 one (a block of 256 and a block of 33), 300 output
    /// channels (two dX panels), channel counts that are not a multiple of
    /// the register block, non-square planes, stride 2 with and without
    /// padding — over batches with dead lanes and a tail group.
    #[test]
    fn dconv_matches_im2col_gemm_on_panel_and_block_edges() {
        // (in_c, out_c, kernel, stride, pad, (h, w))
        let geoms = [
            (3usize, 5usize, 3usize, 1usize, 1usize, (6usize, 5usize)),
            (16, 7, 3, 1, 1, (5, 6)),
            (256, 6, 1, 1, 0, (3, 2)),
            (257, 5, 1, 2, 0, (3, 4)),
            (2, 3, 3, 1, 1, (32, 32)),
            (2, 3, 3, 1, 1, (17, 17)),
            (5, 300, 1, 1, 0, (2, 3)),
            (6, 9, 3, 2, 1, (7, 10)),
            (6, 9, 3, 2, 0, (7, 10)),
            (7, 2, 1, 2, 1, (4, 5)),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for (in_c, out_c, kernel, stride, pad, plane) in geoms {
            let g = geom(in_c, plane, kernel, stride, pad);
            let w = rand_vec(out_c * g.col_rows(), &mut rng);
            for rt in runtimes() {
                assert_matches_oracle(&rt, &w, &g, &[1, 7, 8, 9, 33], &mut rng);
            }
        }
    }

    /// Chains that end at `−0.0` — exact negative zeros in the portable
    /// family's sums, underflowing products in the fused family's — come out
    /// as the GEMM route's `+0.0`-normalised totals, onto a gradient that is
    /// `−0.0` on entry.
    #[test]
    fn dconv_keeps_the_gemm_routes_signed_zeros() {
        let g = geom(3, (4, 5), 3, 1, 1);
        let (out_c, n) = (5, 9);
        for (wv, xv) in [(1.0f32, -0.0f32), (1e-30, -1e-30), (-0.0, 1.0)] {
            let w = vec![wv; out_c * g.col_rows()];
            let x = vec![xv; n * 3 * 4 * 5];
            let dy = vec![xv; n * out_c * g.col_cols()];
            for rt in runtimes() {
                let mut grad = vec![-0.0f32; w.len()];
                let mut grad_oracle = grad.clone();
                assert_batch_matches(
                    &rt,
                    &w,
                    &g,
                    (&x, &dy, n),
                    &mut ConvBufs::default(),
                    (&mut grad, &mut grad_oracle),
                );
            }
        }
    }

    /// One set of buffers serves a second geometry: the tables are rebuilt
    /// and the new padding ring is zero.
    #[test]
    fn dconv_buffers_follow_a_change_of_geometry() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut bufs = ConvBufs::default();
        for (plane, stride) in [((6, 6), 1), ((9, 4), 2), ((6, 6), 1)] {
            let g = geom(4, plane, 3, stride, 1);
            let w = rand_vec(6 * g.col_rows(), &mut rng);
            let n = 10;
            let x = rand_vec(n * 4 * plane.0 * plane.1, &mut rng);
            let dy = rand_vec(n * 6 * g.col_cols(), &mut rng);
            let mut grad = vec![0.5f32; w.len()];
            let mut grad_oracle = grad.clone();
            assert_batch_matches(
                &Runtime::sequential(),
                &w,
                &g,
                (&x, &dy, n),
                &mut bufs,
                (&mut grad, &mut grad_oracle),
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not match its geometry")]
    fn dconv_refuses_an_input_of_another_geometry() {
        let g = geom(1, (3, 3), 3, 1, 1);
        let (w, x) = (vec![0.5; 2 * 9], lanes_of(&[0.0; 16], [1, 1, 4, 4], 1));
        dconv_forward_rt(
            &Runtime::sequential(),
            &g,
            &w,
            &x,
            &mut ConvBufs::default(),
            &mut LaneTensor::default(),
        );
    }
}

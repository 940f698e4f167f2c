//! Direct sparse convolution: CSR weights against a zero-padded,
//! sample-innermost input, with no column matrix anywhere.
//!
//! The im2col route ([`crate::oracle::im2col_batched`] → [`crate::oracle::spmm_into`] /
//! [`crate::oracle::sddmm_nt_seg_into`] / [`crate::oracle::spmm_tn_into`] →
//! [`crate::oracle::col2im_ld`]) builds and folds a `[in_c·k², n·oh·ow]` matrix whose
//! rows a pruning mask makes almost all dead. This engine keeps the same
//! arithmetic and drops the matrix:
//!
//! - **Layout.** Input and output are [`LaneTensor`]s — the network's
//!   activation layout, groups of [`LANES`] samples as
//!   `[c][y + r][x + r][lane]` with a `+0.0` ring of `r ≥ pad` — so the
//!   operand of a stored weight `(o, c, ky, kx)` at output pixel `(y, x)` is
//!   one aligned lane vector at `origin(c, ky, kx) + pixel(y, x)`, two
//!   offsets an [`SpConvIndex`] precomputes per stored entry and per output
//!   pixel. Any stride, any plane size, always a full vector, and the ring
//!   answers every out-of-image tap with the `+0.0` im2col would have written
//!   there. Nothing is transposed: the engine reads the activation the layer
//!   before wrote and writes the one the layer after reads.
//! - **Forward** accumulates each output pixel over its CSR row's entries in
//!   ascending stored order, a block of pixels held in registers, straight
//!   into the output group (ring 0).
//! - **dW** gives every stored entry one fresh accumulator vector (lane =
//!   sample), walks the output pixels in ascending order with mul-then-add,
//!   eight entries interleaved, then adds the live lanes into the entry's
//!   slot in ascending sample order.
//! - **dX** walks the weight columns `(c, ky, kx)` in ascending order through
//!   a CSC view of the same structure: `tmp = Σ_o v·dY[o]` (ascending `o`,
//!   mul-then-add from `+0.0`), added once into the zeroed input-gradient
//!   group at the tap's offset; the ring absorbs what col2im would have
//!   clipped and is zeroed again afterwards.
//!
//! **Bit identity.** A lane is a sample, and each lane runs exactly the
//! scalar operation sequence the im2col + CSR route runs for that sample:
//! the same products in the same order from the same `+0.0` start, fused in
//! the forward pass exactly when `simd_active()` (the AVX2+FMA family, as in
//! [`crate::oracle::spmm_into`]) and never elsewhere. Each of the three passes
//! is a [`LaneJob`] per group, and [`run_lanes`] picks its family. Padded taps multiply a
//! stored `+0.0` like im2col's structural zeros; nothing is skipped or
//! reassociated. (dX leaves out the columns with no stored entry: their
//! `tmp` is `+0.0`, and adding `+0.0` to a sum that started at `+0.0` never
//! changes it.) Dead lanes hold `+0.0` on the way in, so they hold `+0.0` on
//! the way out. Outputs, weight gradients and input gradients are therefore
//! `to_bits`-equal to the im2col route at any batch size and thread count —
//! groups fan out over the [`Runtime`] for forward and dX, CSR rows for dW —
//! which the tests pin against those kernels as the oracle.

use crate::act::zero_ring;
use crate::lanes::{run_lanes, Lane, LaneJob, Lanes, LANES, ZERO};
use crate::{ConvGeom, CsrView, LaneTensor};
use ft_runtime::Runtime;
use std::ops::Range;

/// Geometry- and structure-keyed offsets of one sparse convolution: where
/// every stored weight reads the ringed input, and the CSC view dX walks.
/// Built once per (mask structure, input size, ring) and reused while the
/// values change underneath it.
#[derive(Clone, Debug)]
pub struct SpConvIndex {
    geom: ConvGeom,
    /// The input's ring, `≥ geom.pad`.
    ring: usize,
    out_c: usize,
    /// Lanes in one group of the input: `in_c · (h + 2r) · (w + 2r)`.
    group_in: usize,
    /// Per stored entry, CSR order: offset of its tap `(c, ky, kx)` at output
    /// pixel `(0, 0)` inside an input group.
    origin: Vec<u32>,
    /// Per stored entry: its CSR row (output channel).
    entry_row: Vec<u32>,
    /// Per output pixel, row-major: offset of its window's first tap,
    /// `y·s·(w + 2r) + x·s`. `origin[e] + pixel[p] < group_in` for every
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
    /// for inputs of geometry `geom` carrying a ring of `ring`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is malformed or empty-shaped, its column count is not
    /// `geom`'s `col_rows`, `ring < geom.pad`, or an input group does not fit
    /// `u32` offsets.
    pub fn new(s: CsrView<'_>, geom: &ConvGeom, ring: usize) -> Self {
        s.validate();
        let cr = geom.col_rows();
        assert_eq!(s.cols, cr, "spconv weight columns differ from in_c·k²");
        assert!(
            s.rows > 0 && cr > 0,
            "spconv needs input and output channels"
        );
        assert!(
            ring >= geom.pad,
            "spconv input ring {ring} < pad {}",
            geom.pad
        );
        let (hp, wp) = (geom.in_h + 2 * ring, geom.in_w + 2 * ring);
        let group_in = geom.in_c * hp * wp;
        assert!(
            group_in <= u32::MAX as usize && s.nnz() <= u32::MAX as usize,
            "spconv geometry exceeds u32 offsets"
        );
        let origin = s
            .col_idx
            .iter()
            .map(|&j| tap_origin(geom, ring, j as usize) as u32)
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
            .map(|p| pixel_origin(geom, ring, p) as u32)
            .collect();
        SpConvIndex {
            geom: *geom,
            ring,
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

    /// The input geometry and ring this index was built for.
    pub fn layout(&self) -> (&ConvGeom, usize) {
        (&self.geom, self.ring)
    }

    /// Output pixels per sample and channel.
    fn cc(&self) -> usize {
        self.pixel.len()
    }

    /// Lanes in one output group `[out_c, oh, ow]`.
    fn group_out(&self) -> usize {
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

    /// `x` must be an input of this index's geometry and ring.
    fn check_input(&self, x: &LaneTensor) {
        let g = &self.geom;
        assert_eq!(
            (&x.shape()[1..], x.ring()),
            (&[g.in_c, g.in_h, g.in_w][..], self.ring),
            "spconv input does not match its index"
        );
    }
}

/// Offset, inside an input group with a ring of `ring`, of weight column
/// `j`'s tap `(c, ky, kx)` at output pixel `(0, 0)`.
pub(crate) fn tap_origin(g: &ConvGeom, ring: usize, j: usize) -> usize {
    let taps = g.kernel * g.kernel;
    let (c, ky, kx) = (j / taps, (j % taps) / g.kernel, j % g.kernel);
    let skip = ring - g.pad;
    (c * (g.in_h + 2 * ring) + ky + skip) * (g.in_w + 2 * ring) + kx + skip
}

/// Offset, inside an input group with a ring of `ring`, of the first tap of
/// output pixel `p`'s window (`p` row-major): `y·s·(w + 2r) + x·s`.
pub(crate) fn pixel_origin(g: &ConvGeom, ring: usize, p: usize) -> usize {
    let ow = g.out_w();
    (p / ow * (g.in_w + 2 * ring) + p % ow) * g.stride
}

/// Whether a pass over `groups` groups is worth fanning out on `rt`. The
/// work measure is lane-vector operations — [`LANES`] multiply-adds each.
fn worth_fanning_out(rt: &Runtime, s: &CsrView<'_>, idx: &SpConvIndex, groups: usize) -> bool {
    rt.should_parallelize(s.nnz().saturating_mul(idx.cc()).saturating_mul(groups))
}

/// Runs `pass(g, dst_g, slot)` over the groups of `dst` (`group_len` lanes
/// each), in order; `slots` is resized to one staging slot of `slot_len`
/// lanes per worker. Without a runtime to fan out on that is one loop on the
/// calling thread; with one, each of its workers gets a contiguous run of
/// groups and a slot of its own.
pub(crate) fn for_groups(
    fan_out: Option<&Runtime>,
    dst: &mut [Lane],
    group_len: usize,
    (slots, slot_len): (&mut Vec<Lane>, usize),
    pass: impl Fn(usize, &mut [Lane], &mut [Lane]) + Sync,
) {
    let groups = dst.len().checked_div(group_len).unwrap_or(0);
    let run = |first: usize, dst: &mut [Lane], slot: &mut [Lane]| {
        for (g, dst) in dst.chunks_mut(group_len).enumerate() {
            pass(first + g, dst, slot);
        }
    };
    match fan_out.filter(|_| groups > 1) {
        None => {
            slots.resize(slot_len, ZERO);
            run(0, dst, slots)
        }
        Some(rt) => {
            let jobs = rt.split_at_offsets_mut(dst, groups, |g| g * group_len);
            slots.resize(jobs.len() * slot_len, ZERO);
            let mut rest = &mut slots[..];
            let jobs: Vec<_> = (jobs.into_iter())
                .map(|job| {
                    let (slot, tail) = std::mem::take(&mut rest).split_at_mut(slot_len);
                    rest = tail;
                    (job, slot)
                })
                .collect();
            rt.scatter(jobs, |((g, dst), slot)| run(g.start, dst, slot));
        }
    }
}

/// Sparse convolution forward: `out[n, out_c, oh, ow] = W ∗ x` for the input
/// activation `x` (the index's geometry and ring) and the CSR weight `s`;
/// `out` is resized with no ring and overwritten. Bit-identical to im2col →
/// [`crate::oracle::spmm_into`] into a zeroed output, on any runtime.
///
/// # Panics
///
/// Panics if `s` is not the structure `idx` was built from or `x` not an
/// input of its geometry and ring.
pub fn spconv_forward_rt(
    rt: &Runtime,
    idx: &SpConvIndex,
    s: CsrView<'_>,
    x: &LaneTensor,
    out: &mut LaneTensor,
) {
    idx.check(&s);
    idx.check_input(x);
    let g = &idx.geom;
    out.resize([x.n(), idx.out_c, g.out_h(), g.out_w()], 0);
    let (xs, group_in) = (x.lanes(), idx.group_in);
    let fan_out = worth_fanning_out(rt, &s, idx, x.groups()).then_some(rt);
    let no_slots = (&mut Vec::new(), 0);
    for_groups(
        fan_out,
        out.lanes_mut(),
        idx.group_out(),
        no_slots,
        |gi, out, _| {
            run_lanes(Forward(idx, s, &xs[gi * group_in..][..group_in], out));
        },
    );
}

/// Sparse convolution backward from `dy[n, out_c, oh, ow]` (no ring) over
/// the forward's input `x`:
///
/// - `grad_vals` (one slot per stored entry) *accumulates* the weight
///   gradient, one fresh accumulator per sample added in sample order —
///   bit-identical to [`crate::oracle::sddmm_nt_seg_into`] with `seg = oh·ow` over
///   the batched column matrix;
/// - `gx` is resized to `x`'s layout and *overwritten* with the input
///   gradient — bit-identical to [`crate::oracle::spmm_tn_into`] into a zeroed
///   matrix followed by per-sample [`crate::oracle::col2im_ld`] into a zeroed
///   `gx`.
///
/// Either output may be left out.
///
/// # Panics
///
/// Panics if `s` is not the structure `idx` was built from, `x` is not an
/// input of its geometry and ring, or `dy` not its output's shape.
pub fn spconv_backward_rt(
    rt: &Runtime,
    idx: &SpConvIndex,
    s: CsrView<'_>,
    x: &LaneTensor,
    dy: &LaneTensor,
    grad_vals: Option<&mut [f32]>,
    gx: Option<&mut LaneTensor>,
) {
    idx.check(&s);
    idx.check_input(x);
    let g = &idx.geom;
    assert!(
        dy.shape() == [x.n(), idx.out_c, g.out_h(), g.out_w()] && dy.ring() == 0,
        "spconv dy is not the output's layout"
    );
    let fan_out = worth_fanning_out(rt, &s, idx, x.groups());
    let (group_in, group_out) = (idx.group_in, idx.group_out());
    let (xs, dys) = (x.lanes(), dy.lanes());

    if let Some(gx) = gx {
        gx.resize(x.shape(), x.ring());
        let (fan_out, no_slots) = (fan_out.then_some(rt), (&mut Vec::new(), 0));
        for_groups(fan_out, gx.lanes_mut(), group_in, no_slots, |gi, gx, _| {
            run_lanes(Dx(idx, s, &dys[gi * group_out..][..group_out], gx));
        });
    }

    // dW: CSR rows split at `row_ptr`, every worker walking the groups in
    // ascending order so each slot adds its samples in order.
    if let Some(vals) = grad_vals {
        assert_eq!(vals.len(), s.nnz(), "spconv grad slot count mismatch");
        let run = |(rows, chunk): (Range<usize>, &mut [f32])| {
            let entries = s.row_ptr[rows.start]..s.row_ptr[rows.end];
            let groups = xs.chunks(group_in).zip(dys.chunks(group_out));
            for (gi, (xt, dy_t)) in groups.enumerate() {
                run_lanes(Dw(idx, xt, dy_t, x.live(gi), entries.clone(), chunk));
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

/// One group of a forward pass, `(idx, s, xt, out_t)`.
struct Forward<'a>(&'a SpConvIndex, CsrView<'a>, &'a [Lane], &'a mut [Lane]);

impl LaneJob for Forward<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Forward(idx, s, xt, out_t) = self;
        forward_kernel::<V>(idx, &s, xt, out_t);
    }
}

/// One group of dX, `(idx, s, dy_t, gx_t)`: `gx_t` zeroed, the kernel, the
/// ring zeroed again.
struct Dx<'a>(&'a SpConvIndex, CsrView<'a>, &'a [Lane], &'a mut [Lane]);

impl LaneJob for Dx<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Dx(idx, s, dy_t, gx_t) = self;
        gx_t.fill(ZERO);
        dx_kernel::<V>(idx, &s, dy_t, gx_t);
        let g = &idx.geom;
        zero_ring(gx_t, [g.in_c, g.in_h, g.in_w], idx.ring);
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
        let taps = &mut gx_t[tap_origin(&idx.geom, idx.ring, j)..];
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

/// dW over one group, `(idx, xt, dy_t, valid, entries, vals)`, for the stored
/// entries `entries` (`vals[0]` is the slot of `entries.start`): per entry a
/// fresh accumulator, `acc += dy·x` over the output pixels in ascending
/// order, then the `valid` live lanes added to the slot in ascending sample
/// order. Eight entries run interleaved so their add chains hide each other's
/// latency, and their lane sums run as one vector — the accumulators
/// transposed, so lane `l` of every entry is added at step `l`.
struct Dw<'a>(
    &'a SpConvIndex,
    &'a [Lane],
    &'a [Lane],
    usize,
    Range<usize>,
    &'a mut [f32],
);

impl LaneJob for Dw<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
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
        let Dw(idx, xt, dy_t, valid, entries, vals) = self;
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

    /// `x` (`[n, c, h, w]`) in lanes with a ring of `ring`.
    pub(crate) fn lanes_of(x: &[f32], shape: [usize; 4], ring: usize) -> LaneTensor {
        let mut t = LaneTensor::default();
        t.copy_from_nchw(x, shape, ring);
        t
    }

    /// The interior of `t` as NCHW.
    pub(crate) fn nchw_of(t: &LaneTensor) -> Vec<f32> {
        let mut out = vec![f32::NAN; t.shape().iter().product()];
        t.copy_to_nchw(&mut out);
        out
    }

    /// Forward, dW (accumulated over `batches` consecutive batches of `n`
    /// on one index) and dX of the engine against the im2col + CSR route,
    /// `to_bits`, on `rt`, over inputs whose ring is the padding and one
    /// wider; the outputs' rings and dead lanes are `+0.0`.
    pub(crate) fn assert_matches_oracle(
        rt: &Runtime,
        w: &CsrMatrix,
        g: &ConvGeom,
        batches: &[usize],
        rng: &mut ChaCha8Rng,
    ) {
        use crate::act::tests::assert_ring_and_dead_lanes_zero;
        let (s, cc) = (view_of(w), g.col_cols());
        for ring in [g.pad, g.pad + 1] {
            let idx = SpConvIndex::new(s, g, ring);
            let mut grad = vec![0.25f32; s.nnz()];
            let mut grad_oracle = grad.clone();
            let (mut out, mut gx) = (LaneTensor::default(), LaneTensor::default());
            for &n in batches {
                let x = rand_vec(n * g.in_c * g.in_h * g.in_w, rng);
                let dy = rand_vec(n * s.rows * cc, rng);
                let (out_o, gx_o) = im2col_csr_oracle(s, g, &x, &dy, n, &mut grad_oracle);
                let lx = lanes_of(&x, [n, g.in_c, g.in_h, g.in_w], ring);
                spconv_forward_rt(rt, &idx, s, &lx, &mut out);
                let tag = format!("n={n} r{ring} {g:?}");
                assert_ring_and_dead_lanes_zero(&out, &tag);
                assert_eq!(bits(&nchw_of(&out)), bits(&out_o), "forward {tag}");
                let ldy = lanes_of(&dy, out.shape(), 0);
                spconv_backward_rt(rt, &idx, s, &lx, &ldy, Some(&mut grad), Some(&mut gx));
                assert_ring_and_dead_lanes_zero(&gx, &tag);
                assert_eq!(bits(&nchw_of(&gx)), bits(&gx_o), "gx {tag}");
                assert_eq!(bits(&grad), bits(&grad_oracle), "dW {tag}");
            }
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
    #[should_panic(expected = "does not match its index")]
    fn spconv_refuses_an_input_of_another_ring() {
        let g = ConvGeom {
            in_c: 1,
            in_h: 3,
            in_w: 3,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let w = random_weight(2, 9, 1.0, (9, 9), &mut ChaCha8Rng::seed_from_u64(1));
        let idx = SpConvIndex::new(view_of(&w), &g, 1);
        let x = lanes_of(&[0.0; 9], [1, 1, 3, 3], 2);
        spconv_forward_rt(
            &Runtime::sequential(),
            &idx,
            view_of(&w),
            &x,
            &mut LaneTensor::default(),
        );
    }
}

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
//! - **Register tiles.** Each pass holds a tile of up to eight lane vectors
//!   in registers and issues one bounds-checked slice per run of contiguous
//!   taps, not one indexed load per pixel. The output plane is cut in
//!   ascending pixel order into runs of eight pixels of one row while they
//!   last, then 4, 2, 1; a plane whose rows are 4, 2 or 1 px wide stacks
//!   whole rows into one tile. Along a run a stored entry's taps lie
//!   `stride` lanes apart. The shapes come from the geometry alone.
//! - **Forward** runs tile by tile, every output channel in turn: the
//!   tile's pixels accumulate over the row's entries in ascending stored
//!   order, one slice of taps per entry and run, straight into the output
//!   group (ring 0). A plane of fewer than eight pixels gives fewer than
//!   eight chains, so two groups (samples 0–7 and 8–15) run as one unit:
//!   they share the entries and never a chain.
//! - **dW** gives every stored entry a fresh accumulator vector (lane =
//!   sample) and adds `dy·x` over the output pixels in ascending order, run
//!   by run. Eight entries run interleaved — as two quads on runs of eight
//!   pixels, so that four accumulators sit beside the run's eight `dY`
//!   vectors — and entries of one CSR row share one `dY` run loaded into
//!   registers. The live lanes then go into the entries' slots in ascending
//!   sample order: the eight accumulators transposed, lane `l` of all eight
//!   added at step `l`.
//! - **dX** stages the group's `dY` with a margin of `+0.0` around every
//!   plane and writes each interior element of the input gradient once. Per
//!   input channel and phase — the elements `ring + phase + stride·i` along
//!   each axis — a tile of up to eight elements sits in registers from
//!   `+0.0` while the channel's tap columns that reach the phase pass in
//!   ascending column order, each adding `tmp = Σ_o v·dY[o]` (ascending
//!   `o`, mul-then-add from `+0.0`) read from one staged run per entry. The
//!   ring is zeroed afterwards. Small phases pair groups like the forward.
//!   The staging is the calling thread's, one slot per worker, grown on
//!   first use; it is cleared when the layout changes, and otherwise only
//!   its interior is written, so the margin stays `+0.0`.
//!
//! **Bit identity.** A lane is a sample, and each lane runs exactly the
//! scalar operation sequence the im2col + CSR route runs for that sample:
//! the same products in the same order from the same `+0.0` start, fused in
//! the forward pass exactly when `simd_active()` (the AVX2+FMA family, as in
//! [`crate::oracle::spmm_into`]) and never elsewhere. A tile only decides
//! which chains share the registers; it never splits or reorders one. The
//! forward's chain per output element is its row's entries in stored
//! order. dW's chain per entry and sample is the pixels in ascending order,
//! whatever run a pixel falls in, and the slot adds the samples in order.
//! dX's sum per input-gradient element takes its taps' columns in ascending
//! order — the order col2im folds dCol's rows — each `tmp` as
//! [`crate::oracle::spmm_tn_into`] forms it. Each of the three passes is a
//! [`LaneJob`] per unit of groups, and [`run_lanes`] picks its family.
//! Padded taps multiply a stored `+0.0` like im2col's structural zeros;
//! nothing is reassociated. dX departs from the route only by adding exact
//! `+0.0`s, and adding `+0.0` to a sum that started at `+0.0` never changes
//! it: a column with no stored entry is left out (its `tmp` is `+0.0`), and
//! an element whose tap falls off the output plane reads the staged margin,
//! where `v·(+0.0)` sums to `+0.0` for every finite `v`. When a stored value
//! is not finite that product is a NaN, so dX then masks those elements'
//! `tmp` to `+0.0` instead. Dead lanes hold `+0.0` on the way in, so they
//! hold `+0.0` on the way out. Outputs, weight gradients and input
//! gradients are therefore `to_bits`-equal to the im2col route at any batch
//! size and thread count — units of groups fan out over the [`Runtime`] for
//! forward and dX, CSR rows for dW — which the tests pin against those
//! kernels as the oracle.

use crate::act::zero_ring;
use crate::lanes::{run_lanes, Lane, LaneJob, Lanes, LANES, ZERO};
use crate::{ConvGeom, CsrView, LaneTensor};
use ft_runtime::Runtime;
use std::cell::RefCell;
use std::ops::Range;

/// Geometry- and structure-keyed offsets of one sparse convolution: where
/// every stored weight reads the ringed input, the CSC view dX walks, and
/// the register tiles of each pass. Built once per (mask structure, input
/// size, ring) and reused while the values change underneath it.
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
    /// The tiles of the output plane, for the forward and dW.
    strips: Vec<Strip>,
    /// dX's view of the structure and geometry.
    dx: DxPlan,
}

/// `count` consecutive tiles of one shape: `runs` runs of `width`
/// contiguous output pixels each — whole rows when `runs > 1` — the first
/// starting at pixel `first`, each tile where the one before ends. Walking
/// a tile's runs in order walks its pixels in ascending order.
#[derive(Clone, Copy, Debug)]
struct Strip {
    first: usize,
    width: usize,
    runs: usize,
    count: usize,
}

/// How dX walks one structure and geometry.
///
/// dX stages a group's `dY` with a `margin` of `+0.0` around every plane.
/// The interior of the input gradient splits into `stride²` phases — the
/// elements `(r + py + s·a, r + px + s·b)` — and a tap column `(ky, kx)`
/// reaches a phase exactly when `skip + ky ≡ r + py` and `skip + kx ≡ r + px`
/// (mod `s`), mapping its element `(a, b)` to output pixel `(a + oy, b +
/// ox)`: on the staged `dY`, one run of a phase row reads one contiguous run.
#[derive(Clone, Debug)]
struct DxPlan {
    margin: usize,
    /// Lanes in one staged row and plane.
    row: usize,
    plane: usize,
    /// Groups per unit: two when every phase holds fewer than eight
    /// elements.
    unit: usize,
    phases: Vec<Phase>,
    /// Per interior element, phase by phase, row-major within its phase:
    /// offsets of its staged `dY` position `(a, b)` (before a tap's shift)
    /// and of itself inside one input-gradient plane.
    at: Vec<[u32; 2]>,
    /// The tap columns with entries of input channel `c` reaching phase
    /// `ph`, ascending: `taps[tap_ptr[c·phases + ph]..tap_ptr[c·phases + ph +
    /// 1]]`.
    taps: Vec<DxTap>,
    tap_ptr: Vec<u32>,
    /// Stored entries in column order, output channel ascending within a
    /// column: `[staged-dY offset of the output channel's plane, CSR slot]`.
    csc: Vec<[u32; 2]>,
}

/// One dX phase: `rows × cols` elements from `at[first]`, and their tiles.
#[derive(Clone, Debug)]
struct Phase {
    first: usize,
    cols: usize,
    strips: Vec<Strip>,
}

/// A tap column reaching a phase: the staged-`dY` shift of its reads —
/// `(oy + margin)·row + ox + margin` for the output pixel `(oy, ox)` the
/// phase's element `(0, 0)` reaches — and its range of [`DxPlan::csc`].
#[derive(Clone, Copy, Debug)]
struct DxTap {
    shift: u32,
    entries: [u32; 2],
}

thread_local! {
    /// The calling thread's dX staging — one slot per worker of its widest
    /// fan-out, grown on first use and reused by every later call, whatever
    /// the layer — and the layout `[margin, row, plane, slot]` its margin
    /// lanes are `+0.0` for.
    static STAGING: RefCell<(Vec<Lane>, [usize; 4])> = const { RefCell::new((Vec::new(), [0; 4])) };
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
        let entry_row: Vec<u32> = (0..s.rows)
            .flat_map(|o| std::iter::repeat_n(o as u32, s.row_ptr[o + 1] - s.row_ptr[o]))
            .collect();
        let pixel = (0..geom.col_cols())
            .map(|p| pixel_origin(geom, ring, p) as u32)
            .collect();
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let dx = DxPlan::new(geom, ring, &s, &entry_row);
        SpConvIndex {
            geom: *geom,
            ring,
            out_c: s.rows,
            group_in,
            origin,
            entry_row,
            pixel,
            strips: strips(oh, ow),
            dx,
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

/// `[f(0), f(1), …]`: `std::array::from_fn` as a plain loop, which the
/// kernels' vector code around it inlines.
#[inline(always)]
fn array_of<T: Copy + Default, const N: usize>(f: impl Fn(usize) -> T) -> [T; N] {
    let mut out = [T::default(); N];
    for (k, out) in out.iter_mut().enumerate() {
        *out = f(k);
    }
    out
}

/// Accumulators in a register tile: pixels (or input-gradient elements),
/// one lane vector each.
const TILE: usize = 8;

/// Pixels in the next register block when `left > 0` remain: [`TILE`] while
/// they last, then the largest power of two that fits — every width a
/// compile-time constant of the kernel it selects.
fn block_width(left: usize) -> usize {
    if left >= TILE {
        TILE
    } else {
        1 << left.ilog2()
    }
}

/// The tiles of an `oh × ow` plane in ascending pixel order, at most
/// [`TILE`] pixels each, as strips. A row whose width is a power of two up
/// to [`TILE`] is one run, and consecutive rows stack into one tile; any
/// other row is cut into runs of [`block_width`].
fn strips(oh: usize, ow: usize) -> Vec<Strip> {
    let mut out: Vec<Strip> = Vec::new();
    let mut push = |first, width, runs| match out.last_mut() {
        Some(s) if (s.width, s.runs) == (width, runs) => s.count += 1,
        _ => out.push(Strip {
            first,
            width,
            runs,
            count: 1,
        }),
    };
    if ow.is_power_of_two() && ow <= TILE {
        let mut y = 0;
        while y < oh {
            let runs = block_width((oh - y).min(TILE / ow));
            push(y * ow, ow, runs);
            y += runs;
        }
    } else {
        for y in 0..oh {
            let mut x = 0;
            while x < ow {
                let width = block_width(ow - x);
                push(y * ow + x, width, 1);
                x += width;
            }
        }
    }
    out
}

impl DxPlan {
    /// The plan of geometry `g` with an input ring of `ring` for the
    /// structure `s`, whose stored entries lie in the CSR rows `entry_row`.
    fn new(g: &ConvGeom, ring: usize, s: &CsrView<'_>, entry_row: &[u32]) -> Self {
        let (st, k, skip) = (g.stride, g.kernel, ring - g.pad);
        let (oh, ow, wp) = (g.out_h(), g.out_w(), g.in_w + 2 * ring);
        // Per phase `(py, px)`: its size, and the output row or column its
        // element `(0, 0)` reaches through tap row or column `kk`, if any.
        let reach = |p: usize, kk: usize| {
            let d = (ring + p) as isize - (skip + kk) as isize;
            (d.rem_euclid(st as isize) == 0).then_some(d.div_euclid(st as isize))
        };
        let phases: Vec<[usize; 4]> = (0..st.min(g.in_h))
            .flat_map(|py| (0..st.min(g.in_w)).map(move |px| [py, px]))
            .map(|[py, px]| {
                [
                    py,
                    px,
                    (g.in_h - py).div_ceil(st),
                    (g.in_w - px).div_ceil(st),
                ]
            })
            .collect();
        let mut margin = 0isize;
        for &[py, px, rows, cols] in &phases {
            for (p, n, out) in [(py, rows, oh), (px, cols, ow)] {
                for o in (0..k).filter_map(|kk| reach(p, kk)) {
                    margin = margin.max(-o).max(n as isize - 1 + o - (out as isize - 1));
                }
            }
        }
        let margin = margin as usize;
        let row = ow + 2 * margin;
        let plane = (oh + 2 * margin) * row;
        assert!(
            s.rows * plane <= u32::MAX as usize,
            "spconv geometry exceeds u32 offsets"
        );
        let mut at = Vec::with_capacity(g.in_h * g.in_w);
        let mut out_phases = Vec::with_capacity(phases.len());
        for &[py, px, rows, cols] in &phases {
            out_phases.push(Phase {
                first: at.len(),
                cols,
                strips: strips(rows, cols),
            });
            for a in 0..rows {
                for b in 0..cols {
                    let gx = (ring + py + st * a) * wp + ring + px + st * b;
                    at.push([(a * row + b) as u32, gx as u32]);
                }
            }
        }
        // The CSC view. Rows are visited in ascending order, so every
        // column's entries come out sorted by output channel.
        let mut col_ptr = vec![0u32; s.cols + 1];
        for &j in s.col_idx {
            col_ptr[j as usize + 1] += 1;
        }
        for j in 0..s.cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut next = col_ptr.clone();
        let mut csc = vec![[0u32; 2]; s.nnz()];
        for (e, (&j, &o)) in s.col_idx.iter().zip(entry_row).enumerate() {
            let slot = &mut next[j as usize];
            csc[*slot as usize] = [o * plane as u32, e as u32];
            *slot += 1;
        }
        // A column reaches at most one phase.
        let columns = col_ptr.windows(2).filter(|c| c[0] < c[1]).count();
        let mut taps = Vec::with_capacity(columns);
        let mut tap_ptr = Vec::with_capacity(g.in_c * phases.len() + 1);
        tap_ptr.push(0);
        for c in 0..g.in_c {
            for &[py, px, ..] in &phases {
                for t in 0..k * k {
                    let j = c * k * k + t;
                    let entries = [col_ptr[j], col_ptr[j + 1]];
                    if let (Some(oy), Some(ox), true) =
                        (reach(py, t / k), reach(px, t % k), entries[0] < entries[1])
                    {
                        let (oy, ox) = (
                            (oy + margin as isize) as usize,
                            (ox + margin as isize) as usize,
                        );
                        let shift = (oy * row + ox) as u32;
                        taps.push(DxTap { shift, entries });
                    }
                }
                tap_ptr.push(taps.len() as u32);
            }
        }
        let largest = phases.iter().map(|&[.., rows, cols]| rows * cols).max();
        DxPlan {
            margin,
            row,
            plane,
            unit: if largest.unwrap_or(0) < TILE { 2 } else { 1 },
            phases: out_phases,
            at,
            taps,
            tap_ptr,
            csc,
        }
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

/// Runs `pass(u, dst_u, slot)` over the units of `dst` — `unit_len` lanes
/// each, the last one possibly shorter — in order; `slots` is resized to one
/// staging slot of `slot_len` lanes per worker. A unit is one group, or two
/// where a kernel takes them together. Without a runtime to fan out on that
/// is one loop on the calling thread; with one, each of its workers gets a
/// contiguous run of units and a slot of its own.
pub(crate) fn for_groups(
    fan_out: Option<&Runtime>,
    dst: &mut [Lane],
    unit_len: usize,
    (slots, slot_len): (&mut Vec<Lane>, usize),
    pass: impl Fn(usize, &mut [Lane], &mut [Lane]) + Sync,
) {
    let units = dst.len().div_ceil(unit_len);
    let run = |first: usize, dst: &mut [Lane], slot: &mut [Lane]| {
        for (u, dst) in dst.chunks_mut(unit_len).enumerate() {
            pass(first + u, dst, slot);
        }
    };
    match fan_out.filter(|_| units > 1) {
        None => {
            slots.resize(slot_len, ZERO);
            run(0, dst, slots)
        }
        Some(rt) => {
            let len = dst.len();
            let jobs = rt.split_at_offsets_mut(dst, units, |u| (u * unit_len).min(len));
            slots.resize(jobs.len() * slot_len, ZERO);
            let mut rest = &mut slots[..];
            let jobs: Vec<_> = (jobs.into_iter())
                .map(|job| {
                    let (slot, tail) = std::mem::take(&mut rest).split_at_mut(slot_len);
                    rest = tail;
                    (job, slot)
                })
                .collect();
            rt.scatter(jobs, |((u, dst), slot)| run(u.start, dst, slot));
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
    let (xs, group_in, group_out) = (x.lanes(), idx.group_in, idx.group_out());
    let fan_out = worth_fanning_out(rt, &s, idx, x.groups()).then_some(rt);
    // A plane of fewer than eight pixels gives fewer than eight chains per
    // group: two groups then run as one unit.
    let unit = if idx.cc() < TILE { 2 } else { 1 };
    let no_slots = (&mut Vec::new(), 0);
    for_groups(
        fan_out,
        out.lanes_mut(),
        unit * group_out,
        no_slots,
        |u, out, _| {
            let xs = &xs[u * unit * group_in..][..out.len() / group_out * group_in];
            run_lanes(Forward(idx, s, xs, out));
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
        // With a stored value that is not finite, `v·(+0.0)` off the plane
        // is not `+0.0`: those elements are masked instead.
        let finite = s.vals.iter().fold(true, |all, v| all & v.is_finite());
        let (plan, unit) = (&idx.dx, idx.dx.unit);
        let slot = unit * idx.out_c * plan.plane;
        STAGING.with_borrow_mut(|(staging, layout)| {
            // A slot's margin lanes are `+0.0` while the layout stays; a new
            // one empties the staging, which `for_groups` grows back as
            // `+0.0` without reallocating.
            let this = [plan.margin, plan.row, plan.plane, slot];
            if *layout != this {
                staging.clear();
                *layout = this;
            }
            for_groups(
                fan_out.then_some(rt),
                gx.lanes_mut(),
                unit * group_in,
                (staging, slot),
                |u, gx, slot| {
                    let dy = &dys[u * unit * group_out..][..gx.len() / group_in * group_out];
                    run_lanes(Dx(idx, s, dy, gx, slot, finite));
                },
            )
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

/// One unit of a forward pass — one group, or two — `(idx, s, xs, out)`.
struct Forward<'a>(&'a SpConvIndex, CsrView<'a>, &'a [Lane], &'a mut [Lane]);

impl LaneJob for Forward<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Forward(idx, s, xs, out) = self;
        // The stride as a literal where it is 1 or 2, so that the inlined
        // kernel indexes a run's taps at constant offsets.
        match idx.geom.stride {
            1 => forward_kernel::<V>(idx, &s, xs, out, 1),
            2 => forward_kernel::<V>(idx, &s, xs, out, 2),
            stride => forward_kernel::<V>(idx, &s, xs, out, stride),
        }
    }
}

/// Forward over one unit of groups: `out[g][o][p] = Σ_e v_e ·
/// xs[g][origin_e + pixel_p]` over row `o`'s entries in stored order, from
/// `+0.0`, one tile of up to eight pixels at a time — across both groups of
/// a unit of two — every output channel in turn.
#[inline(always)]
fn forward_kernel<V: Lanes>(
    idx: &SpConvIndex,
    s: &CsrView<'_>,
    xs: &[Lane],
    out: &mut [Lane],
    stride: usize,
) {
    let groups = out.len() / idx.group_out();
    for st in &idx.strips {
        let f = (idx, s, xs, &mut *out, stride);
        match (st.width, st.runs * groups) {
            (8, _) => forward_strip::<V, 8, 1>(f, st),
            (4, 1) => forward_strip::<V, 4, 1>(f, st),
            (4, _) => forward_strip::<V, 4, 2>(f, st),
            (2, 1) => forward_strip::<V, 2, 1>(f, st),
            (2, 2) => forward_strip::<V, 2, 2>(f, st),
            (2, _) => forward_strip::<V, 2, 4>(f, st),
            (_, 1) => forward_strip::<V, 1, 1>(f, st),
            (_, 2) => forward_strip::<V, 1, 2>(f, st),
            (_, 4) => forward_strip::<V, 1, 4>(f, st),
            _ => forward_strip::<V, 1, 8>(f, st),
        }
    }
}

/// The tiles of one forward strip, `K` runs of `P` pixels each: run `k` is
/// row `k % runs` of group `k / runs`.
#[inline(always)]
fn forward_strip<V: Lanes, const P: usize, const K: usize>(
    (idx, s, xs, out, stride): (&SpConvIndex, &CsrView<'_>, &[Lane], &mut [Lane], usize),
    st: &Strip,
) {
    let ow = idx.geom.out_w();
    for t in 0..st.count {
        let first = st.first + t * st.width * st.runs;
        let at = |k: usize| {
            let (g, p) = (k / st.runs, first + k % st.runs * ow);
            (
                g * idx.group_in + idx.pixel[p] as usize,
                g * idx.group_out() + p,
            )
        };
        let f = (idx, s, xs, &mut *out, stride);
        forward_tile::<V, P, K>(f, array_of(at));
    }
}

/// One forward tile of `K` runs of `P` pixels, run `k` reading the input at
/// `at[k].0` and writing the output at `at[k].1`: per output channel, `K·P`
/// accumulators, and per stored entry one bounds-checked slice of each
/// run's taps (`stride` lanes apart).
#[inline(always)]
fn forward_tile<V: Lanes, const P: usize, const K: usize>(
    (idx, s, xs, out, stride): (&SpConvIndex, &CsrView<'_>, &[Lane], &mut [Lane], usize),
    at: [(usize, usize); K],
) {
    let (cc, span) = (idx.cc(), (P - 1) * stride + 1);
    for o in 0..idx.out_c {
        let row = s.row_ptr[o]..s.row_ptr[o + 1];
        let mut acc = [[V::splat(0.0); P]; K];
        for (&org, &v) in idx.origin[row.clone()].iter().zip(&s.vals[row]) {
            let v = V::splat(v);
            for (acc, &(x_at, _)) in acc.iter_mut().zip(&at) {
                let taps = &xs[org as usize + x_at..][..span];
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = a.axpy(v, V::load(&taps[i * stride].0));
                }
            }
        }
        for (acc, &(_, out_at)) in acc.iter().zip(&at) {
            for (a, dst) in acc.iter().zip(&mut out[out_at + o * cc..][..P]) {
                a.store(&mut dst.0);
            }
        }
    }
}

/// One unit of dX — one group, or two — `(idx, s, dy, gx, slot,
/// finite)`: `dy` staged into `slot` with its zero margin, the kernel over
/// the interior of `gx`, then `gx`'s ring zeroed.
struct Dx<'a>(
    &'a SpConvIndex,
    CsrView<'a>,
    &'a [Lane],
    &'a mut [Lane],
    &'a mut [Lane],
    bool,
);

impl LaneJob for Dx<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Dx(idx, s, dy, gx, slot, finite) = self;
        let (plan, g) = (&idx.dx, &idx.geom);
        // Only the interior is written: the margin holds the `+0.0` the
        // staging was cleared to for this layout.
        let (ow, m) = (g.out_w(), plan.margin);
        let staged_planes = slot.chunks_mut(plan.plane).take(dy.len() / idx.cc());
        for (staged, dy) in staged_planes.zip(dy.chunks(idx.cc())) {
            for (dst, src) in staged[m * plan.row + m..]
                .chunks_mut(plan.row)
                .zip(dy.chunks(ow))
            {
                copy_lanes(&mut dst[..ow], src);
            }
        }
        if finite {
            dx_kernel::<V, false>(idx, &s, slot, gx);
        } else {
            dx_kernel::<V, true>(idx, &s, slot, gx);
        }
        for gx in gx.chunks_mut(idx.group_in) {
            zero_ring(gx, [g.in_c, g.in_h, g.in_w], idx.ring);
        }
    }
}

/// `dst = src` in blocks of 8, 4, 2 and 1 lanes — copies of constant size,
/// which the compiler inlines where a short copy of any other length would
/// be a call.
#[inline(always)]
fn copy_lanes(dst: &mut [Lane], src: &[Lane]) {
    let (mut dst, mut src) = (dst, src);
    while !src.is_empty() {
        let n = block_width(src.len());
        let (d, rest) = std::mem::take(&mut dst).split_at_mut(n);
        match n {
            8 => d.copy_from_slice(&src[..8]),
            4 => d.copy_from_slice(&src[..4]),
            2 => d.copy_from_slice(&src[..2]),
            _ => d.copy_from_slice(&src[..1]),
        }
        (dst, src) = (rest, &src[n..]);
    }
}

/// dX over one unit: every interior element of `gx`, one tile of up to
/// eight elements of one phase of one input channel at a time — across both
/// groups of a unit of two — written once.
#[inline(always)]
fn dx_kernel<V: Lanes, const MASK: bool>(
    idx: &SpConvIndex,
    s: &CsrView<'_>,
    staged: &[Lane],
    gx: &mut [Lane],
) {
    let plan = &idx.dx;
    let groups = gx.len() / idx.group_in;
    for c in 0..idx.geom.in_c {
        for (ph, phase) in plan.phases.iter().enumerate() {
            let i = c * plan.phases.len() + ph;
            let taps = &plan.taps[plan.tap_ptr[i] as usize..plan.tap_ptr[i + 1] as usize];
            for st in &phase.strips {
                let f = (idx, s, staged, &mut *gx, (taps, phase));
                match (st.width, st.runs * groups) {
                    (8, _) => dx_strip::<V, 8, 1, MASK>(f, c, st),
                    (4, 1) => dx_strip::<V, 4, 1, MASK>(f, c, st),
                    (4, _) => dx_strip::<V, 4, 2, MASK>(f, c, st),
                    (2, 1) => dx_strip::<V, 2, 1, MASK>(f, c, st),
                    (2, 2) => dx_strip::<V, 2, 2, MASK>(f, c, st),
                    (2, _) => dx_strip::<V, 2, 4, MASK>(f, c, st),
                    (_, 1) => dx_strip::<V, 1, 1, MASK>(f, c, st),
                    (_, 2) => dx_strip::<V, 1, 2, MASK>(f, c, st),
                    (_, 4) => dx_strip::<V, 1, 4, MASK>(f, c, st),
                    _ => dx_strip::<V, 1, 8, MASK>(f, c, st),
                }
            }
        }
    }
}

/// The operands of a dX tile: `(idx, s, staged, gx, (taps, phase))`.
type DxOperands<'a, 'b> = (
    &'a SpConvIndex,
    &'a CsrView<'b>,
    &'a [Lane],
    &'a mut [Lane],
    (&'a [DxTap], &'a Phase),
);

/// The tiles of one dX strip of input channel `c`, `K` runs of `P`
/// elements each: run `k` is row `k % runs` of group `k / runs`.
#[inline(always)]
fn dx_strip<V: Lanes, const P: usize, const K: usize, const MASK: bool>(
    (idx, s, staged, gx, (taps, phase)): DxOperands<'_, '_>,
    c: usize,
    st: &Strip,
) {
    let (g, plan) = (&idx.geom, &idx.dx);
    let gx_c = c * (g.in_h + 2 * idx.ring) * (g.in_w + 2 * idx.ring);
    let staged_group = idx.out_c * plan.plane;
    for t in 0..st.count {
        let first = st.first + t * st.width * st.runs;
        let runs = array_of(|k| {
            let (g, p) = (k / st.runs, first + k % st.runs * phase.cols);
            let [dy_at, gx_at] = plan.at[phase.first + p];
            let dy_at = g * staged_group + dy_at as usize;
            (dy_at, g * idx.group_in + gx_c + gx_at as usize, p)
        });
        dx_tile::<V, P, K, MASK>((idx, s, staged, &mut *gx, (taps, phase)), runs);
    }
}

/// Column entry `[plane, e]`'s products `v·dY` over the run of `P` staged
/// `dY` vectors at `plane + at`.
#[inline(always)]
fn dx_products<V: Lanes, const P: usize>(
    vals: &[f32],
    staged: &[Lane],
    &[plane, e]: &[u32; 2],
    at: usize,
) -> [V; P] {
    let v = V::splat(vals[e as usize]);
    let mut products = [v; P];
    for (p, d) in products.iter_mut().zip(&staged[plane as usize + at..][..P]) {
        *p = v.mul(V::load(&d.0));
    }
    products
}

/// One dX tile of `K` runs of `P` elements, run `k` at staged-`dY` offset
/// `runs[k].0`, input-gradient offset `runs[k].1` and phase element
/// `runs[k].2`: `K·P` accumulators from `+0.0`, and per tap column, in
/// ascending order, `tmp = Σ_o v·dY[o]` (ascending `o`, mul-then-add from
/// `+0.0`, one bounds-checked slice per run and entry) added to them. An
/// element whose output pixel lies off the plane reads the margin and adds
/// an exact `+0.0`; with `MASK` its `tmp` is replaced by `+0.0` instead.
#[inline(always)]
fn dx_tile<V: Lanes, const P: usize, const K: usize, const MASK: bool>(
    (idx, s, staged, gx, (taps, phase)): DxOperands<'_, '_>,
    runs: [(usize, usize, usize); K],
) {
    let zero = V::splat(0.0);
    let mut acc = [[zero; P]; K];
    for tap in taps {
        let [start, end] = tap.entries.map(|e| e as usize);
        let (staged, entries) = (&staged[tap.shift as usize..], &idx.dx.csc[start..end]);
        let [first, rest @ ..] = entries else {
            continue;
        };
        if !MASK && rest.is_empty() {
            // One entry: `tmp = +0.0 + v·dY` goes straight into the tile.
            for (acc, run) in acc.iter_mut().zip(&runs) {
                let p = dx_products::<V, P>(s.vals, staged, first, run.0);
                for (a, p) in acc.iter_mut().zip(p) {
                    *a = a.add(zero.add(p));
                }
            }
            continue;
        }
        let mut tmp = [[zero; P]; K];
        for (t, run) in tmp.iter_mut().zip(&runs) {
            let p = dx_products::<V, P>(s.vals, staged, first, run.0);
            for (t, p) in t.iter_mut().zip(p) {
                *t = zero.add(p);
            }
        }
        for entry in rest {
            for (t, run) in tmp.iter_mut().zip(&runs) {
                let p = dx_products::<V, P>(s.vals, staged, entry, run.0);
                for (t, p) in t.iter_mut().zip(p) {
                    *t = t.add(p);
                }
            }
        }
        if MASK {
            let (oh, ow) = (idx.geom.out_h() as isize, idx.geom.out_w() as isize);
            let (row, margin) = (idx.dx.row as isize, idx.dx.margin as isize);
            let [oy, ox] = [
                tap.shift as isize / row - margin,
                tap.shift as isize % row - margin,
            ];
            for (t, &(.., p)) in tmp.iter_mut().zip(&runs) {
                let (y, x) = (
                    (p / phase.cols) as isize + oy,
                    (p % phase.cols) as isize + ox,
                );
                for (i, t) in t.iter_mut().enumerate() {
                    if !(0..oh).contains(&y) || !(0..ow).contains(&(x + i as isize)) {
                        *t = V::splat(0.0);
                    }
                }
            }
        }
        for (acc, tmp) in acc.iter_mut().zip(tmp) {
            for (a, t) in acc.iter_mut().zip(tmp) {
                *a = a.add(t);
            }
        }
    }
    let stride = idx.geom.stride;
    for (acc, &(_, at, _)) in acc.iter().zip(&runs) {
        for (i, a) in acc.iter().enumerate() {
            a.store(&mut gx[at + i * stride].0);
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
        match self.0.geom.stride {
            1 => dw_kernel::<V>(self, 1),
            2 => dw_kernel::<V>(self, 2),
            stride => dw_kernel::<V>(self, stride),
        }
    }
}

/// [`Dw`]'s body at a given stride.
#[inline(always)]
fn dw_kernel<V: Lanes>(Dw(idx, xt, dy_t, valid, entries, vals): Dw<'_>, stride: usize) {
    let mut e = entries.start;
    while e + LANES <= entries.end {
        // Runs of eight pixels take the octet as two quads of chains: four
        // accumulators beside a run's eight `dY` vectors fit the registers,
        // and four chains still hide the adds' latency.
        let acc = if idx.geom.out_w() >= 8 {
            let [a0, a1, a2, a3] = dw_chains::<V, 4>(idx, xt, dy_t, e, stride);
            let [a4, a5, a6, a7] = dw_chains::<V, 4>(idx, xt, dy_t, e + 4, stride);
            [a0, a1, a2, a3, a4, a5, a6, a7]
        } else {
            dw_chains::<V, LANES>(idx, xt, dy_t, e, stride)
        };
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
        let [acc] = dw_chains::<V, 1>(idx, xt, dy_t, e, stride);
        let mut samples = [0.0; LANES];
        acc.store(&mut samples);
        for &sample in &samples[..valid] {
            vals[e - entries.start] += sample;
        }
        e += 1;
    }
}

/// The `E` chains of entries `e0..e0 + E`, one run of up to eight pixels
/// of one output row at a time. When the entries share a CSR row — their
/// rows ascend, so when the first and last do — the run's `dY` is loaded
/// once for all of them.
#[inline(always)]
fn dw_chains<V: Lanes, const E: usize>(
    idx: &SpConvIndex,
    xt: &[Lane],
    dy_t: &[Lane],
    e0: usize,
    stride: usize,
) -> [V; E] {
    let chains = (
        array_of(|k| idx.entry_row[e0 + k] as usize * idx.cc()),
        array_of(|k| idx.origin[e0 + k] as usize),
    );
    if chains.0[0] == chains.0[E - 1] {
        dw_strips::<V, E, true>(idx, (xt, dy_t, stride), &chains)
    } else {
        dw_strips::<V, E, false>(idx, (xt, dy_t, stride), &chains)
    }
}

/// [`dw_chains`] over the runs of every strip, whole rows split into their
/// runs; with `SHARED` every chain reads the first one's `dY` row.
#[inline(always)]
fn dw_strips<V: Lanes, const E: usize, const SHARED: bool>(
    idx: &SpConvIndex,
    (xt, dy_t, stride): (&[Lane], &[Lane], usize),
    chains: &([usize; E], [usize; E]),
) -> [V; E] {
    let ow = idx.geom.out_w();
    let mut acc = [V::splat(0.0); E];
    for st in &idx.strips {
        for t in 0..st.count {
            for r in 0..st.runs {
                let p = st.first + t * st.width * st.runs + r * ow;
                let f = (xt, dy_t, p, idx.pixel[p] as usize, stride);
                match st.width {
                    8 => dw_run::<V, E, 8, SHARED>(f, &mut acc, chains),
                    4 => dw_run::<V, E, 4, SHARED>(f, &mut acc, chains),
                    2 => dw_run::<V, E, 2, SHARED>(f, &mut acc, chains),
                    _ => dw_run::<V, E, 1, SHARED>(f, &mut acc, chains),
                }
            }
        }
    }
    acc
}

/// One run of `P` output pixels from pixel `p` (window origin `px`) for
/// the `E` chains whose `dY` rows start at `chains.0` and whose taps sit at
/// `chains.1`: pixel by pixel, every chain adds `dy·x` — one bounds-checked
/// slice of taps per chain, and of `dY` per chain or, with `SHARED`, one in
/// registers for all.
#[inline(always)]
fn dw_run<V: Lanes, const E: usize, const P: usize, const SHARED: bool>(
    (xt, dy_t, p, px, stride): (&[Lane], &[Lane], usize, usize, usize),
    acc: &mut [V; E],
    (dy, origin): &([usize; E], [usize; E]),
) {
    let span = (P - 1) * stride + 1;
    let taps: [&[Lane]; E] = array_of(|k| &xt[origin[k] + px..][..span]);
    if SHARED {
        let mut d = [V::splat(0.0); P];
        for (d, src) in d.iter_mut().zip(&dy_t[dy[0] + p..][..P]) {
            *d = V::load(&src.0);
        }
        for (i, d) in d.into_iter().enumerate() {
            for (a, taps) in acc.iter_mut().zip(&taps) {
                *a = a.add(d.mul(V::load(&taps[i * stride].0)));
            }
        }
    } else {
        let dy: [&[Lane]; E] = array_of(|k| &dy_t[dy[k] + p..][..P]);
        for i in 0..P {
            for k in 0..E {
                let (d, x) = (V::load(&dy[k][i].0), V::load(&taps[k][i * stride].0));
                acc[k] = acc[k].add(d.mul(x));
            }
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

    /// A `[rows, cols]` weight whose row `o` holds `counts[o % counts.len()]`
    /// entries (at most `cols − 1`) at random columns, column `dead` left
    /// empty, and about one stored value in five an exact `0.0`.
    fn counted_weight(
        rows: usize,
        cols: usize,
        counts: &[usize],
        dead: usize,
        rng: &mut ChaCha8Rng,
    ) -> CsrMatrix {
        let mut mask = vec![false; rows * cols];
        for (o, row) in mask.chunks_mut(cols).enumerate() {
            let mut left = counts[o % counts.len()].min(cols - 1);
            while left > 0 {
                let j = rng.gen_range(0..cols);
                if j != dead && !row[j] {
                    row[j] = true;
                    left -= 1;
                }
            }
        }
        let vals: Vec<f32> = (0..rows * cols)
            .map(|_| {
                if rng.gen_range(0.0f64..1.0) < 0.2 {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect();
        CsrMatrix::from_mask_values(&mask, &vals, rows, cols)
    }

    /// Every blocking branch of the three kernels, `to_bits` against the
    /// im2col + CSR route on both runtimes and both rings, rings and dead
    /// lanes `+0.0`: planes of 1–17 px and one non-square plane, stride 1
    /// and 2, kernel 1 and 3 — so whole-row and in-row tiles, every run
    /// width, forward and dX units of one and two groups, every dX phase
    /// and margin, dW quads and octets — over batches of 1, 3, 8, 9 and 17
    /// (one to three groups, an odd last unit, dead lanes). Weights
    /// alternate between Bernoulli structures at d = 0.02, 0.05, 0.3 and
    /// 1.0 and rows of exactly 0, 1, 7, 8, 9 and 17 entries, with empty
    /// columns and stored exact zeros throughout.
    #[test]
    fn spconv_sweep_matches_im2col_csr_on_every_blocking_branch() {
        let (batches, densities) = ([1, 3, 8, 9, 17], [0.02, 0.05, 0.3, 1.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(36);
        let planes = (1..=17).map(|side| (side, side)).chain([(5, 11)]);
        let mut case = 0;
        for (in_h, in_w) in planes {
            for (kernel, stride) in [(1, 1), (1, 2), (3, 1), (3, 2)] {
                // 18 weight columns either way, so a row can hold 17.
                let in_c = if kernel == 1 { 18 } else { 2 };
                let g = ConvGeom {
                    in_c,
                    in_h,
                    in_w,
                    kernel,
                    stride,
                    pad: kernel / 2,
                };
                let w = if case % 2 == 0 {
                    let density = densities[case / 2 % densities.len()];
                    random_weight(6, g.col_rows(), density, (case % 7, case % 5), &mut rng)
                } else {
                    counted_weight(6, g.col_rows(), &[0, 1, 7, 8, 9, 17], case % 18, &mut rng)
                };
                let n = batches[case % batches.len()];
                for rt in [Runtime::sequential(), Runtime::exact(4).with_min_work(0)] {
                    assert_matches_oracle(&rt, &w, &g, &[n], &mut rng);
                }
                case += 1;
            }
        }
    }

    /// A stored `±∞` makes `v·(+0.0)` a NaN, so dX masks the elements whose
    /// tap falls off the plane instead of adding the margin's product: the
    /// engine still matches the im2col + CSR route bit for bit (full groups,
    /// so no dead lane meets the infinity).
    #[test]
    fn spconv_dx_masks_off_plane_taps_of_a_non_finite_weight() {
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        for (side, stride) in [(2, 1), (5, 1), (9, 2), (16, 1)] {
            let g = ConvGeom {
                in_c: 3,
                in_h: side,
                in_w: side,
                kernel: 3,
                stride,
                pad: 1,
            };
            let mut w = random_weight(4, g.col_rows(), 0.5, (9, 99), &mut rng);
            let mut dense = w.to_dense();
            let stored: Vec<usize> = (0..dense.len()).filter(|&i| dense[i] != 0.0).collect();
            dense[stored[0]] = f32::INFINITY;
            dense[stored[stored.len() - 1]] = f32::NEG_INFINITY;
            w.refresh_values(&dense);
            for rt in [Runtime::sequential(), Runtime::exact(4).with_min_work(0)] {
                assert_matches_oracle(&rt, &w, &g, &[8, 16], &mut rng);
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

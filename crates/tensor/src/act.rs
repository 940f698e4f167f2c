//! The activation layout: a 4-D activation `[n, c, h, w]` (or its
//! gradient) as a [`LaneTensor`], `[group][c][h + 2r][w + 2r][lane]`.
//!
//! The batch is cut into groups of [`LANES`] samples, lane = sample, so a
//! lane vector holds one position of eight samples — the operand layout of
//! both convolution engines ([`crate::spconv`], [`crate::dconv`]). Every
//! plane carries a ring of `r` lanes on each side; a convolution with
//! padding `p ≤ r` reads it as its zero padding, so an activation that feeds
//! a convolution is already that convolution's input.
//!
//! Two invariants hold for every `LaneTensor` a kernel of this crate writes:
//!
//! - **the ring is `+0.0`**, in every plane of every group;
//! - **dead lanes are `+0.0`**: in the last group, lanes `n mod 8..8` (when
//!   `n` is not a multiple of eight) hold no sample and read `+0.0` at
//!   every position.
//!
//! A kernel writes its whole output — interior, ring and dead lanes — so a
//! buffer never needs zeroing when it is reused, whatever layout it held
//! before. Reductions over samples (batch-norm statistics, weight
//! gradients) read the live lanes only, so the invariants are what keeps a
//! dead lane from ever reaching a number; they are pinned by the tests.
//!
//! NCHW enters and leaves this layout in two places: [`LaneTensor::copy_from_nchw`]
//! (`to_lanes`, the model input, and the gradient of a flattened feature
//! map) and [`LaneTensor::copy_to_nchw`] (`from_lanes`, a flattened feature
//! map). Both move full 8 × 8 register blocks, a partial group's missing
//! samples as zero rows.
//!
//! The elementwise kernels here — the residual add with its ReLU and that
//! ReLU's backward mask — walk the interior rows of each plane and write the
//! ring and the dead lanes as `+0.0`. Their scalar references are the
//! `Tensor` operations the layers ran on NCHW before (`add`, `max(0.0)`,
//! the ReLU mask), and the tests pin them `to_bits`-equal.

use crate::lanes::{live_mask, run_lanes, Lane, LaneJob, Lanes, LANES, ZERO};

/// A 4-D activation `[n, c, h, w]` in the lane layout (see the module
/// docs): `⌈n/8⌉` groups of `c` planes of `(h + 2r) × (w + 2r)` lane vectors,
/// ring and dead lanes `+0.0`.
#[derive(Clone, Debug, Default)]
pub struct LaneTensor {
    shape: [usize; 4],
    ring: usize,
    data: Vec<Lane>,
}

impl LaneTensor {
    /// `[n, c, h, w]`.
    pub fn shape(&self) -> [usize; 4] {
        self.shape
    }

    /// Lanes of zero padding on each side of every plane.
    pub fn ring(&self) -> usize {
        self.ring
    }

    /// Floats this tensor holds: `⌈n/8⌉·8·c·(h + 2r)·(w + 2r)`.
    pub fn len(&self) -> usize {
        self.data.len() * LANES
    }

    /// Whether it holds no sample.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Sizes the buffer for `shape` with a ring of `ring`, reusing its
    /// capacity. The contents are unspecified until a kernel writes them.
    pub fn resize(&mut self, shape: [usize; 4], ring: usize) {
        self.shape = shape;
        self.ring = ring;
        let len = self.groups() * self.group_len();
        self.data.resize(len, ZERO);
    }

    /// Whether `self` and `other` have the same shape and ring.
    pub fn same_layout(&self, other: &LaneTensor) -> bool {
        (self.shape, self.ring) == (other.shape, other.ring)
    }

    /// `to_lanes`: `x` (`[n, c, h, w]`, row-major) into this tensor with a
    /// ring of `ring`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `shape`'s length.
    pub fn copy_from_nchw(&mut self, x: &[f32], shape: [usize; 4], ring: usize) {
        assert_eq!(
            x.len(),
            shape.iter().product::<usize>(),
            "to_lanes input length mismatch"
        );
        self.resize(shape, ring);
        let (group, sample, at) = (self.group_len(), self.sample(), self.cursor());
        for (g, dst) in self.data.chunks_mut(group.max(1)).enumerate() {
            let src = &x[g * LANES * sample..];
            let live = LANES.min(shape[0] - g * LANES);
            run_lanes(ToLanes(&src[..live * sample], sample, live, dst, at));
        }
    }

    /// `from_lanes`: the interior of this tensor into `out` (`[n, c, h, w]`,
    /// row-major), the ring and the dead lanes dropped.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not this tensor's `n·c·h·w` long.
    pub fn copy_to_nchw(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.shape.iter().product::<usize>(),
            "from_lanes output length mismatch"
        );
        let (group, sample) = (self.group_len(), self.sample());
        for (g, src) in self.data.chunks(group.max(1)).enumerate() {
            let live = LANES.min(self.shape[0] - g * LANES);
            let dst = &mut out[g * LANES * sample..][..live * sample];
            run_lanes(FromLanes(src, self.cursor(), live, sample, dst));
        }
    }

    /// `self = self + other` over the interior; the two may differ in ring.
    /// The ring and the dead lanes stay `+0.0` (`+0.0 + +0.0`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &LaneTensor) {
        assert_eq!(self.shape, other.shape, "lane add shape mismatch");
        run_lanes(AddAssign(self, other));
    }

    /// Samples.
    pub(crate) fn n(&self) -> usize {
        self.shape[0]
    }

    /// Groups of [`LANES`] samples.
    pub(crate) fn groups(&self) -> usize {
        self.shape[0].div_ceil(LANES)
    }

    /// `(h + 2r, w + 2r)`.
    pub(crate) fn padded(&self) -> (usize, usize) {
        let [_, _, h, w] = self.shape;
        (h + 2 * self.ring, w + 2 * self.ring)
    }

    /// Lanes in one padded plane.
    pub(crate) fn plane(&self) -> usize {
        let (hp, wp) = self.padded();
        hp * wp
    }

    /// Lanes in one group.
    pub(crate) fn group_len(&self) -> usize {
        self.shape[1] * self.plane()
    }

    /// Floats in one NCHW sample.
    fn sample(&self) -> usize {
        let [_, c, h, w] = self.shape;
        c * h * w
    }

    /// Live lanes of group `g`.
    pub(crate) fn live(&self, g: usize) -> usize {
        LANES.min(self.shape[0] - g * LANES)
    }

    /// Lane offset of interior position `(c, y, x)` inside a group.
    pub(crate) fn at(&self, c: usize, y: usize, x: usize) -> usize {
        let wp = self.padded().1;
        (c * self.padded().0 + y + self.ring) * wp + x + self.ring
    }

    pub(crate) fn lanes(&self) -> &[Lane] {
        &self.data
    }

    pub(crate) fn lanes_mut(&mut self) -> &mut [Lane] {
        &mut self.data
    }

    /// Walks the interior of a group in NCHW order.
    fn cursor(&self) -> Cursor {
        let [_, _, h, w] = self.shape;
        Cursor::interior(h, w, self.ring)
    }
}

/// Walks the positions of `[c, h, w]` in flat order and yields where each
/// lies inside a group padded by `ring`.
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
    pub(crate) fn interior(h: usize, w: usize, ring: usize) -> Self {
        let wp = w + 2 * ring;
        Cursor {
            at: ring * wp + ring,
            x: 0,
            y: 0,
            w,
            h,
            row_skip: 2 * ring,
            plane_skip: 2 * ring * wp,
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

/// One group of [`LaneTensor::copy_from_nchw`], `(src, sample, live, dst,
/// at)`: `dst[at(i)][l] = src[l·sample + i]` for the `live` samples, `+0.0`
/// in the dead lanes and the ring. Whole runs of eight floats move as 8 × 8
/// register blocks, a dead lane as a zero row.
struct ToLanes<'a>(&'a [f32], usize, usize, &'a mut [Lane], Cursor);

impl LaneJob for ToLanes<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let ToLanes(src, sample, live, dst, mut at) = self;
        if at.row_skip > 0 {
            dst.fill(ZERO);
        }
        let mut i = 0;
        while i + LANES <= sample {
            let rows: [V; LANES] = std::array::from_fn(|l| {
                if l < live {
                    V::load(src[l * sample + i..][..LANES].try_into().expect("eight"))
                } else {
                    V::splat(0.0)
                }
            });
            for v in V::transpose(rows) {
                v.store(&mut dst[at.next()].0);
            }
            i += LANES;
        }
        while i < sample {
            let mut v = ZERO;
            for (l, vl) in v.0[..live].iter_mut().enumerate() {
                *vl = src[l * sample + i];
            }
            dst[at.next()] = v;
            i += 1;
        }
    }
}

/// One group of [`LaneTensor::copy_to_nchw`], `(src, at, live, sample, dst)`:
/// `dst[l·sample + i] = src[at(i)][l]` for the `live` samples.
struct FromLanes<'a>(&'a [Lane], Cursor, usize, usize, &'a mut [f32]);

impl LaneJob for FromLanes<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let FromLanes(src, mut at, live, sample, dst) = self;
        let mut i = 0;
        while i + LANES <= sample {
            let mut block = [V::splat(0.0); LANES];
            for v in &mut block {
                *v = V::load(&src[at.next()].0);
            }
            for (l, v) in V::transpose(block).into_iter().enumerate().take(live) {
                let row = &mut dst[l * sample + i..][..LANES];
                v.store(row.try_into().expect("eight floats"));
            }
            i += LANES;
        }
        while i < sample {
            let v = src[at.next()];
            for (l, &vl) in v.0[..live].iter().enumerate() {
                dst[l * sample + i] = vl;
            }
            i += 1;
        }
    }
}

/// Writes `+0.0` over the ring of every plane of one group `[c, h, w]`
/// padded by `ring`.
pub(crate) fn zero_ring(group: &mut [Lane], [c, h, w]: [usize; 3], ring: usize) {
    if ring == 0 {
        return;
    }
    let wp = w + 2 * ring;
    for plane in group.chunks_mut((h + 2 * ring) * wp).take(c) {
        plane[..ring * wp].fill(ZERO);
        plane[(h + ring) * wp..].fill(ZERO);
        for y in 0..h {
            let row = &mut plane[(y + ring) * wp..][..wp];
            row[..ring].fill(ZERO);
            row[ring + w..].fill(ZERO);
        }
    }
}

/// Per group, channel and interior row of `out`: `out = f(inputs, consts(c))`
/// lane vector by lane vector, the dead lanes masked to `+0.0`, then the
/// row's ring lanes — and the ring rows above and below the plane — written
/// `+0.0`; with no ring on any operand, a plane is one run. Every input has
/// `out`'s shape; each may have its own ring.
#[inline(always)]
pub(crate) fn zip_rows<V: Lanes, const I: usize, K>(
    inputs: [&LaneTensor; I],
    out: &mut LaneTensor,
    mut consts: impl FnMut(usize) -> K,
    f: impl Fn([V; I], &K) -> V,
) {
    let [_, c, h, w] = out.shape;
    assert!(
        inputs.iter().all(|x| x.shape == out.shape),
        "lane kernel shape mismatch"
    );
    let (r, wp, plane) = (out.ring, out.padded().1, out.plane());
    let flat = r == 0 && inputs.iter().all(|x| x.ring == 0);
    let (n, group) = (out.n(), out.group_len());
    for (g, dst) in out.data.chunks_mut(group.max(1)).enumerate() {
        let live: V = live_mask(LANES.min(n - g * LANES));
        let srcs: [&[Lane]; I] =
            std::array::from_fn(|k| &inputs[k].data[g * inputs[k].group_len()..]);
        for ci in 0..c {
            let k = consts(ci);
            let dst = &mut dst[ci * plane..][..plane];
            if flat {
                // No ring anywhere: the plane is one run.
                let rows: [&[Lane]; I] = std::array::from_fn(|q| &srcs[q][ci * plane..][..plane]);
                for (x, o) in dst.iter_mut().enumerate() {
                    let v = f(std::array::from_fn(|q| V::load(&rows[q][x].0)), &k);
                    v.and(live).store(&mut o.0);
                }
                continue;
            }
            dst[..r * wp].fill(ZERO);
            dst[(h + r) * wp..].fill(ZERO);
            for y in 0..h {
                let row = &mut dst[(y + r) * wp..][..wp];
                row[..r].fill(ZERO);
                row[r + w..].fill(ZERO);
                let rows: [&[Lane]; I] =
                    std::array::from_fn(|q| &srcs[q][inputs[q].at(ci, y, 0)..][..w]);
                for (x, o) in row[r..r + w].iter_mut().enumerate() {
                    let v = f(std::array::from_fn(|q| V::load(&rows[q][x].0)), &k);
                    v.and(live).store(&mut o.0);
                }
            }
        }
    }
}

/// [`LaneTensor::add_assign`]'s operands.
struct AddAssign<'a>(&'a mut LaneTensor, &'a LaneTensor);

impl LaneJob for AddAssign<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let AddAssign(acc, other) = self;
        let [_, c, h, w] = acc.shape;
        let (group, other_group) = (acc.group_len(), other.group_len());
        let (at, other_at) = ((acc.shape, acc.ring), (other.shape, other.ring));
        let offset = |(shape, ring): ([usize; 4], usize), ci: usize, y: usize| {
            let (hp, wp) = (shape[2] + 2 * ring, shape[3] + 2 * ring);
            (ci * hp + y + ring) * wp + ring
        };
        for (g, dst) in acc.data.chunks_mut(group.max(1)).enumerate() {
            let src = &other.data[g * other_group..];
            for ci in 0..c {
                for y in 0..h {
                    let dst = &mut dst[offset(at, ci, y)..][..w];
                    let src = &src[offset(other_at, ci, y)..][..w];
                    for (d, s) in dst.iter_mut().zip(src) {
                        V::load(&d.0).add(V::load(&s.0)).store(&mut d.0);
                    }
                }
            }
        }
    }
}

/// An elementwise kernel of this module.
#[derive(Clone, Copy)]
enum Op {
    /// `max(a + b, 0)`: the residual add and the block's closing ReLU.
    AddRelu,
    /// `b > 0 ? a : +0.0`: the ReLU's backward, `b` its output.
    Mask,
}

/// `out = op(inputs[0], inputs[1])` over the interior (see [`zip_rows`]).
struct Zip<'a>(&'a [&'a LaneTensor; 2], &'a mut LaneTensor, Op);

impl LaneJob for Zip<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Zip(inputs, out, op) = self;
        let zero = V::splat(0.0);
        match op {
            Op::AddRelu => zip_rows(*inputs, out, |_| (), |[a, b]: [V; 2], _| a.add(b).relu()),
            Op::Mask => zip_rows(*inputs, out, |_| (), |[a, b]: [V; 2], _| a.and(b.gt(zero))),
        }
    }
}

/// The residual block's closing pass: `out = max(main + short, 0)` over the
/// interior, `out` resized to the operands' shape with a ring of `ring`.
///
/// # Panics
///
/// Panics if the operands' shapes differ.
pub fn residual_relu(main: &LaneTensor, short: &LaneTensor, ring: usize, out: &mut LaneTensor) {
    out.resize(main.shape, ring);
    run_lanes(Zip(&[main, short], out, Op::AddRelu));
}

/// A ReLU's backward from its output: `gx = out > 0 ? dy : +0.0` over the
/// interior, `gx` resized to `dy`'s shape with a ring of `ring`.
///
/// # Panics
///
/// Panics if `dy` and `out` differ in shape.
pub fn relu_backward(dy: &LaneTensor, out: &LaneTensor, ring: usize, gx: &mut LaneTensor) {
    gx.resize(dy.shape, ring);
    run_lanes(Zip(&[dy, out], gx, Op::Mask));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spconv::tests::{bits, rand_vec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The batch sizes and planes the lane-layout properties hold at.
    pub(crate) const BATCHES: [usize; 7] = [1, 3, 7, 8, 9, 17, 32];
    pub(crate) const SIDES: [usize; 5] = [1, 2, 4, 8, 16];

    /// Every ring lane and every dead lane of `t` is `+0.0`.
    pub(crate) fn assert_ring_and_dead_lanes_zero(t: &LaneTensor, tag: &str) {
        let [_, c, h, w] = t.shape;
        let r = t.ring;
        let (hp, wp) = t.padded();
        for g in 0..t.groups() {
            let live = t.live(g);
            for ci in 0..c {
                for y in 0..hp {
                    for x in 0..wp {
                        let v = t.data[g * t.group_len() + (ci * hp + y) * wp + x];
                        let interior = (r..r + h).contains(&y) && (r..r + w).contains(&x);
                        let dead = if interior { &v.0[live..] } else { &v.0[..] };
                        assert!(
                            dead.iter().all(|d| d.to_bits() == 0),
                            "{tag}: non-zero ring or dead lane at g{g} c{ci} ({y}, {x})"
                        );
                    }
                }
            }
        }
    }

    /// `to_lanes` then `from_lanes` is the identity on NCHW, at every batch
    /// size (partial groups go through the block path too), plane and ring,
    /// and a buffer that held another layout is fully rewritten.
    #[test]
    fn to_lanes_roundtrips_and_zeroes_ring_and_dead_lanes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut t = LaneTensor::default();
        for n in BATCHES {
            for side in SIDES {
                for (c, ring) in [(3, 1), (9, 0), (2, 2)] {
                    let shape = [n, c, side, side];
                    let x = rand_vec(n * c * side * side, &mut rng);
                    // Poison what the last layout left behind.
                    t.data.fill(Lane([f32::NAN; LANES]));
                    t.copy_from_nchw(&x, shape, ring);
                    let tag = format!("n{n} c{c} {side}px r{ring}");
                    assert_ring_and_dead_lanes_zero(&t, &tag);
                    let mut back = vec![f32::NAN; x.len()];
                    t.copy_to_nchw(&mut back);
                    assert_eq!(bits(&back), bits(&x), "{tag}");
                    assert_eq!(
                        t.data[t.at(c - 1, side - 1, side - 1)].0[0],
                        x[c * side * side - 1]
                    );
                }
            }
        }
    }

    /// The residual add + ReLU, its backward mask and the gradient sum equal
    /// the NCHW `Tensor` operations bit for bit — `−0.0`, NaN and ties
    /// included — over operands with different rings.
    #[test]
    fn residual_kernels_match_nchw_elementwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for n in BATCHES {
            for side in SIDES {
                let shape = [n, 3, side, side];
                let len = n * 3 * side * side;
                let mut a = rand_vec(len, &mut rng);
                let b = rand_vec(len, &mut rng);
                a[0] = -0.0;
                if len > 2 {
                    a[1] = f32::NAN;
                    a[2] = -b[2];
                }
                let (mut la, mut lb) = (LaneTensor::default(), LaneTensor::default());
                la.copy_from_nchw(&a, shape, 0);
                lb.copy_from_nchw(&b, shape, 1);
                let tag = format!("n{n} {side}px");

                let mut out = LaneTensor::default();
                residual_relu(&la, &lb, 1, &mut out);
                assert_ring_and_dead_lanes_zero(&out, &tag);
                let mut got = vec![0.0; len];
                out.copy_to_nchw(&mut got);
                let want: Vec<f32> = a.iter().zip(&b).map(|(x, y)| (x + y).max(0.0)).collect();
                assert_eq!(bits(&got), bits(&want), "add+relu {tag}");

                let mut gx = LaneTensor::default();
                relu_backward(&lb, &out, 0, &mut gx);
                assert_ring_and_dead_lanes_zero(&gx, &tag);
                gx.copy_to_nchw(&mut got);
                let want: Vec<f32> = (b.iter().zip(&want))
                    .map(|(&g, &o)| if o > 0.0 { g } else { 0.0 })
                    .collect();
                assert_eq!(bits(&got), bits(&want), "relu mask {tag}");

                la.add_assign(&lb);
                assert_ring_and_dead_lanes_zero(&la, &tag);
                la.copy_to_nchw(&mut got);
                let want: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
                assert_eq!(bits(&got), bits(&want), "add {tag}");
            }
        }
    }
}

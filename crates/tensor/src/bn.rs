//! Batch normalisation over `[n, c, plane]` activations (`plane = h·w`):
//! the batch statistics, the normalising pass and the backward pass behind
//! `ft_nn`'s `BatchNorm2d`, on the same two kernel families as the direct
//! convolution engines (AVX2 and portable [`Lanes`]).
//!
//! **Bit identity.** The sequential loops these kernels replaced survive as
//! [`crate::oracle::bn_batch_stats`], [`crate::oracle::bn_normalize`] and
//! [`crate::oracle::bn_backward`], and every result here is `to_bits`-equal
//! to theirs. Only the three reductions have an order to keep, and each
//! keeps it with one channel per lane: eight channels of one sample are
//! loaded as an 8 × 8 block of (channel, pixel) and transposed, so each
//! pixel vector holds one pixel of eight channels and lane `k` sees channel
//! `k`'s pixels in order.
//!
//! - **Batch mean and variance** are, per channel, one chain per sample over
//!   its pixels (an `f32` `sum()`, which starts at `-0.0`), and those partial
//!   sums added to `+0.0` in ascending sample order. Each lane runs exactly
//!   that: a fresh `-0.0` partial per sample, then the partial added into the
//!   lane's total. Two samples' partials are independent and interleave.
//! - **`Σdy` and `Σdy·x̂`** are, per channel, one chain over (sample, pixel)
//!   from `+0.0`, each product rounded before its add. Each lane runs that
//!   chain, sample after sample.
//!
//! No multiply-add is fused, in either family: the oracle rounds every
//! product, so the kernels use separate `mul` and `add`. The normalising
//! pass and the input gradient are elementwise; their vector and scalar
//! forms round alike. They walk per-channel planes with splatted constants,
//! except for planes that are not a multiple of eight (and below
//! [`SMALL_PLANE`]), where they walk a block of eight channels as one flat
//! run against per-element copies of the constants.

use crate::spconv::{Lane, Lanes, LANES};

/// Planes below this size that are not a multiple of [`LANES`] are walked
/// eight channels at a time (see the module docs).
const SMALL_PLANE: usize = 64;

/// Samples in a `[n, c, plane]` activation of `len` floats.
fn samples(len: usize, c: usize, plane: usize) -> usize {
    let sample = c * plane;
    let n = len.checked_div(sample).unwrap_or(0);
    assert_eq!(n * sample, len, "batchnorm input is not [n, {c}, {plane}]");
    n
}

/// Batch statistics of `x` (`[n, c, plane]`, `c = mean.len()`): per-channel
/// mean into `mean` and biased variance into `var`.
///
/// # Panics
///
/// Panics if `var` and `mean` differ in length or `x` is not a whole number
/// of samples.
pub fn bn_batch_stats(x: &[f32], plane: usize, mean: &mut [f32], var: &mut [f32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if crate::matmul::simd_active() {
        // SAFETY: `simd_active` verified avx2+fma at runtime.
        return unsafe { avx::batch_stats(x, plane, mean, var) };
    }
    batch_stats::<Lane>(x, plane, mean, var)
}

/// `x̂ = (x − mean)·inv_std` into `xhat` and `γ·x̂ + β` into `out`, with the
/// per-channel constants of `mean`, `inv_std`, `gamma`, `beta` (each `c`
/// long) over `x` (`[n, c, plane]`).
///
/// # Panics
///
/// Panics if the constants differ in length or the buffers in shape.
#[allow(clippy::too_many_arguments)] // the four per-channel constants
pub fn bn_normalize(
    x: &[f32],
    plane: usize,
    mean: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    beta: &[f32],
    xhat: &mut [f32],
    out: &mut [f32],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if crate::matmul::simd_active() {
        // SAFETY: `simd_active` verified avx2+fma at runtime.
        return unsafe { avx::normalize(x, plane, [mean, inv_std, gamma, beta], xhat, out) };
    }
    normalize::<Lane>(x, plane, [mean, inv_std, gamma, beta], xhat, out)
}

/// The backward pass of [`bn_normalize`] given `dy` and the forward's
/// `xhat`: `Σdy` is added into `grad_beta`, `Σdy·x̂` into `grad_gamma`, and
/// `gx` is overwritten with the input gradient — through the batch
/// statistics when `batch_stats` (a `Train` forward), through constant
/// statistics (`γ·inv_std·dy`) otherwise.
///
/// # Panics
///
/// Panics if the per-channel slices differ in length or the buffers in
/// shape.
#[allow(clippy::too_many_arguments)] // two gradients, two constants, one flag
pub fn bn_backward(
    dy: &[f32],
    xhat: &[f32],
    plane: usize,
    gamma: &[f32],
    inv_std: &[f32],
    batch_stats: bool,
    grad_gamma: &mut [f32],
    grad_beta: &mut [f32],
    gx: &mut [f32],
) {
    let consts = [gamma, inv_std];
    let grads = [grad_gamma, grad_beta];
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if crate::matmul::simd_active() {
        // SAFETY: `simd_active` verified avx2+fma at runtime.
        return unsafe { avx::backward(dy, xhat, plane, consts, batch_stats, grads, gx) };
    }
    backward::<Lane>(dy, xhat, plane, consts, batch_stats, grads, gx)
}

/// The AVX2 family: the kernels below on `__m256`, entered only here.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx {
    use crate::spconv::avx::Ymm;

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn batch_stats(x: &[f32], plane: usize, mean: &mut [f32], var: &mut [f32]) {
        super::batch_stats::<Ymm>(x, plane, mean, var)
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn normalize(
        x: &[f32],
        plane: usize,
        consts: [&[f32]; 4],
        xhat: &mut [f32],
        out: &mut [f32],
    ) {
        super::normalize::<Ymm>(x, plane, consts, xhat, out)
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn backward(
        dy: &[f32],
        xhat: &[f32],
        plane: usize,
        consts: [&[f32]; 2],
        batch_stats: bool,
        grads: [&mut [f32]; 2],
        gx: &mut [f32],
    ) {
        super::backward::<Ymm>(dy, xhat, plane, consts, batch_stats, grads, gx)
    }
}

// Everything below is `#[inline(always)]`: the AVX2 family exists only as
// code inlined into its `target_feature` wrappers.

#[inline(always)]
fn load<V: Lanes>(src: &[f32], at: usize) -> V {
    V::load(src[at..at + LANES].try_into().expect("eight floats"))
}

/// `[f(0), f(1), …]` — `std::array::from_fn` for vectors, spelled out so
/// that it always inlines into the AVX2 wrappers (a vector crossing a call
/// into code compiled without AVX2 goes through memory).
#[inline(always)]
fn vectors<V: Lanes, const N: usize>(f: impl Fn(usize) -> V) -> [V; N] {
    let mut out = [V::splat(0.0); N];
    for (k, v) in out.iter_mut().enumerate() {
        *v = f(k);
    }
    out
}

#[inline(always)]
fn lanes<V: Lanes>(v: V) -> [f32; LANES] {
    let mut out = [0.0; LANES];
    v.store(&mut out);
    out
}

/// Rows `first + step·min(l, live − 1)` for the eight lanes: the lanes past
/// `live` repeat the last live row, so every lane reads real data.
#[inline(always)]
fn rows(first: usize, step: usize, live: usize) -> [usize; LANES] {
    std::array::from_fn(|l| first + step * l.min(live - 1))
}

/// Pixels `p..p + 8` of the eight `rows` of both sources as pixel vectors:
/// `out[k][q]` holds pixel `p + q` of every row of source `k`, lane `l` from
/// row `l`.
#[inline(always)]
fn transposed<V: Lanes>(srcs: &[&[f32]; 2], rows: &[usize; LANES], p: usize) -> [[V; LANES]; 2] {
    let mut out = [[V::splat(0.0); LANES]; 2];
    for (block, src) in out.iter_mut().zip(srcs) {
        *block = V::transpose(vectors(|l| load(src, rows[l] + p)));
    }
    out
}

/// Two reduction chains per lane, fed one pixel at a time. (A trait rather
/// than a closure so that `feed` is certain to inline into the AVX2
/// wrappers.)
trait Chains<V: Lanes> {
    /// Adds one pixel: `v[k]` is source `k`'s pixel vector.
    fn feed(&mut self, v: [V; 2]);
}

/// Walks pixels `0..plane` of the eight `rows` of both sources in pixel
/// order into `chains` (lane `l` from row `l`). Whole blocks of eight pixels
/// are transposed; so is a tail when the block stays inside the sources (the
/// pixels past the plane are read and dropped), else the tail is gathered.
#[inline(always)]
fn pixel_vectors<V: Lanes>(
    srcs: &[&[f32]; 2],
    rows: &[usize; LANES],
    plane: usize,
    chains: &mut impl Chains<V>,
) {
    let whole = plane - plane % LANES;
    for p in (0..whole).step_by(LANES) {
        let [a, b] = transposed(srcs, rows, p);
        for (&a, &b) in a.iter().zip(&b) {
            chains.feed([a, b]);
        }
    }
    if whole == plane {
        return;
    }
    if rows[LANES - 1] + whole + LANES <= srcs[0].len().min(srcs[1].len()) {
        let [a, b] = transposed(srcs, rows, whole);
        for (&a, &b) in a.iter().zip(&b).take(plane - whole) {
            chains.feed([a, b]);
        }
    } else {
        for p in whole..plane {
            chains.feed(vectors(|k| {
                V::load(&std::array::from_fn(|l| srcs[k][rows[l] + p]))
            }));
        }
    }
}

/// One channel per lane, fed the same pixel of two samples: each sample's
/// `Σ x`, or with `SQUARES` `Σ (x − mean)²`, each product rounded before
/// its add.
struct SampleSums<V, const SQUARES: bool> {
    partial: [V; 2],
    mean: V,
}

impl<V: Lanes, const SQUARES: bool> Chains<V> for SampleSums<V, SQUARES> {
    #[inline(always)]
    fn feed(&mut self, v: [V; 2]) {
        for (partial, &v) in self.partial.iter_mut().zip(&v) {
            let term = if SQUARES {
                let d = v.sub(self.mean);
                d.mul(d)
            } else {
                v
            };
            *partial = partial.add(term);
        }
    }
}

/// One channel per lane, fed `[dy, x̂]`: `Σdy` and `Σdy·x̂`.
struct GradSums<V> {
    dy: V,
    dy_xhat: V,
}

impl<V: Lanes> Chains<V> for GradSums<V> {
    #[inline(always)]
    fn feed(&mut self, [dy, xhat]: [V; 2]) {
        self.dy = self.dy.add(dy);
        self.dy_xhat = self.dy_xhat.add(dy.mul(xhat));
    }
}

/// The mean into `out` (`SQUARES = false`), or the variance about `mean`:
/// per channel `Σ_samples (Σ_pixels term)` over `count`, one channel per
/// lane. Each (sample, channel) chain runs over the pixels from `-0.0` and
/// is added to `+0.0` in ascending sample order; two samples' chains
/// interleave.
#[inline(always)]
fn stat<V: Lanes, const SQUARES: bool>(
    x: &[f32],
    [n, c, plane]: [usize; 3],
    mean: &[f32],
    out: &mut [f32],
) {
    let count = (n * plane) as f32;
    for c0 in (0..c).step_by(LANES) {
        let chans = c0..c.min(c0 + LANES);
        let at = |k: usize| (c0 + k).min(chans.end - 1);
        let mean = if SQUARES {
            V::load(&std::array::from_fn(|k| mean[at(k)]))
        } else {
            V::splat(0.0)
        };
        let mut total = V::splat(0.0);
        for n0 in (0..n).step_by(2) {
            let rows = rows((n0 * c + c0) * plane, plane, chans.len());
            // The second sample's rows sit one sample further on.
            let pair = n0 + 1 < n;
            let next = if pair { &x[c * plane..] } else { x };
            let mut sums = SampleSums::<V, SQUARES> {
                partial: [V::splat(-0.0); 2],
                mean,
            };
            pixel_vectors(&[x, next], &rows, plane, &mut sums);
            total = total.add(sums.partial[0]);
            if pair {
                total = total.add(sums.partial[1]);
            }
        }
        for (out, total) in out[chans].iter_mut().zip(lanes(total)) {
            *out = total / count;
        }
    }
}

#[inline(always)]
fn batch_stats<V: Lanes>(x: &[f32], plane: usize, mean: &mut [f32], var: &mut [f32]) {
    let c = mean.len();
    assert_eq!(var.len(), c, "batchnorm statistics length mismatch");
    let shape = [samples(x.len(), c, plane), c, plane];
    stat::<V, false>(x, shape, &[], mean);
    stat::<V, true>(x, shape, mean, var);
}

/// `outputs = f(inputs, consts)` elementwise over `[n, c, plane]`, a block
/// of up to eight channels at a time: `block(channels)` returns the
/// constants of the block's channels (it runs before the block's first
/// element). A plane that is a multiple of eight, or large, is a run of
/// whole vectors against splatted constants; the planes of a block of small
/// ones are one flat run against per-element copies of the constants. Tails
/// run the same operations in one lane.
#[inline(always)]
fn per_channel<V: Lanes, const I: usize, const K: usize, const O: usize>(
    [n, c, plane]: [usize; 3],
    inputs: [&[f32]; I],
    mut outputs: [&mut [f32]; O],
    mut block: impl FnMut(std::ops::Range<usize>) -> [[f32; K]; LANES],
    f: impl Fn([V; I], [V; K]) -> [V; O],
) {
    let small = !plane.is_multiple_of(LANES) && plane < SMALL_PLANE;
    let mut expanded = small.then_some([[0.0f32; LANES * SMALL_PLANE]; K]);
    for c0 in (0..c).step_by(LANES) {
        let chans = c0..c.min(c0 + LANES);
        let consts = block(chans.clone());
        if let Some(expanded) = &mut expanded {
            for (j, vals) in consts[..chans.len()].iter().enumerate() {
                for (dst, &v) in expanded.iter_mut().zip(vals) {
                    dst[j * plane..(j + 1) * plane].fill(v);
                }
            }
        }
        for ni in 0..n {
            let o = (ni * c + c0) * plane;
            if let Some(expanded) = &expanded {
                let vector = |i| vectors(|k| load(&expanded[k], i));
                let scalar = |i| std::array::from_fn(|k| expanded[k][i]);
                let len = chans.len() * plane;
                run(&inputs, &mut outputs, o, len, vector, scalar, &f);
            } else {
                for (j, k) in consts[..chans.len()].iter().enumerate() {
                    let splat = vectors(|q| V::splat(k[q]));
                    run(
                        &inputs,
                        &mut outputs,
                        o + j * plane,
                        plane,
                        |_| splat,
                        |_| *k,
                        &f,
                    );
                }
            }
        }
    }
}

/// `outputs[o..o + len] = f(inputs[o..o + len], consts)`: whole vectors
/// against `vector(i)`, then a tail in one lane against `scalar(i)`, `i`
/// counted from `o`.
#[inline(always)]
fn run<V: Lanes, const I: usize, const K: usize, const O: usize>(
    inputs: &[&[f32]; I],
    outputs: &mut [&mut [f32]; O],
    o: usize,
    len: usize,
    vector: impl Fn(usize) -> [V; K],
    scalar: impl Fn(usize) -> [f32; K],
    f: &impl Fn([V; I], [V; K]) -> [V; O],
) {
    let whole = len - len % LANES;
    for i in (0..whole).step_by(LANES) {
        let res = f(vectors(|k| load(inputs[k], o + i)), vector(i));
        for (dst, v) in outputs.iter_mut().zip(res) {
            v.store(
                (&mut dst[o + i..o + i + LANES])
                    .try_into()
                    .expect("eight floats"),
            );
        }
    }
    for i in whole..len {
        let k = scalar(i);
        let res = f(
            vectors(|q| V::splat(inputs[q][o + i])),
            vectors(|q| V::splat(k[q])),
        );
        for (dst, v) in outputs.iter_mut().zip(res) {
            dst[o + i] = lanes(v)[0];
        }
    }
}

#[inline(always)]
fn normalize<V: Lanes>(
    x: &[f32],
    plane: usize,
    consts: [&[f32]; 4],
    xhat: &mut [f32],
    out: &mut [f32],
) {
    let c = consts[0].len();
    assert!(
        consts.iter().all(|k| k.len() == c),
        "batchnorm constants length mismatch"
    );
    assert!(
        xhat.len() == x.len() && out.len() == x.len(),
        "batchnorm buffer mismatch"
    );
    let shape = [samples(x.len(), c, plane), c, plane];
    let block = |chans: std::ops::Range<usize>| {
        std::array::from_fn(|j| consts.map(|k| k[(chans.start + j).min(chans.end - 1)]))
    };
    per_channel(
        shape,
        [x],
        [xhat, out],
        block,
        |[x]: [V; 1], [m, is, g, b]| {
            let xn = x.sub(m).mul(is);
            [xn, g.mul(xn).add(b)]
        },
    );
}

#[inline(always)]
fn backward<V: Lanes>(
    dy: &[f32],
    xhat: &[f32],
    plane: usize,
    [gamma, inv_std]: [&[f32]; 2],
    batch_stats: bool,
    [grad_gamma, grad_beta]: [&mut [f32]; 2],
    gx: &mut [f32],
) {
    let c = gamma.len();
    assert!(
        inv_std.len() == c && grad_gamma.len() == c && grad_beta.len() == c,
        "batchnorm per-channel length mismatch"
    );
    assert!(
        xhat.len() == dy.len() && gx.len() == dy.len(),
        "batchnorm buffer mismatch"
    );
    let n = samples(dy.len(), c, plane);
    let count = (n * plane) as f32;
    // Lane `j` is channel `c0 + j`: its two chains over (sample, pixel), then
    // the block's constants (γ·inv_std / count, Σdy, Σdy·x̂) after a Train
    // forward, (γ·inv_std, 0, 0) after an Eval one.
    let block = |chans: std::ops::Range<usize>| {
        let mut sums = GradSums {
            dy: V::splat(0.0),
            dy_xhat: V::splat(0.0),
        };
        for ni in 0..n {
            let rows = rows((ni * c + chans.start) * plane, plane, chans.len());
            pixel_vectors(&[dy, xhat], &rows, plane, &mut sums);
        }
        let (sum_dy, sum_dy_xhat) = (lanes(sums.dy), lanes(sums.dy_xhat));
        let mut consts = [[0.0f32; 3]; LANES];
        for (j, ci) in chans.enumerate() {
            grad_beta[ci] += sum_dy[j];
            grad_gamma[ci] += sum_dy_xhat[j];
            let gi = gamma[ci] * inv_std[ci];
            consts[j] = if batch_stats {
                [gi / count, sum_dy[j], sum_dy_xhat[j]]
            } else {
                [gi, 0.0, 0.0]
            };
        }
        consts
    };
    let cnt = V::splat(count);
    per_channel(
        [n, c, plane],
        [dy, xhat],
        [gx],
        block,
        |[d, xh]: [V; 2], [k, s1, s2]| {
            if batch_stats {
                [k.mul(cnt.mul(d).sub(s1).sub(xh.mul(s2)))]
            } else {
                [k.mul(d)]
            }
        },
    );
}

/// The sequential loops the kernels above replaced, kept as their reference
/// ([`crate::oracle`]).
pub(crate) mod oracle {
    /// Batch mean and biased variance per channel of `x` (`[n, c, plane]`,
    /// `c = mean.len()`), one scalar chain per sample.
    pub fn bn_batch_stats(x: &[f32], plane: usize, mean: &mut [f32], var: &mut [f32]) {
        let c = mean.len();
        let n = super::samples(x.len(), c, plane);
        let count = (n * plane) as f32;
        #[allow(clippy::needless_range_loop)] // index math mirrors the NCHW layout
        for ci in 0..c {
            let mut sum = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                sum += x[base..base + plane].iter().sum::<f32>();
            }
            mean[ci] = sum / count;
        }
        for ci in 0..c {
            let m = mean[ci];
            let mut sq = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                sq += x[base..base + plane]
                    .iter()
                    .map(|&v| (v - m) * (v - m))
                    .sum::<f32>();
            }
            var[ci] = sq / count;
        }
    }

    /// `x̂ = (x − mean)·inv_std`, `out = γ·x̂ + β`, one element at a time.
    #[allow(clippy::too_many_arguments)]
    pub fn bn_normalize(
        x: &[f32],
        plane: usize,
        mean: &[f32],
        inv_std: &[f32],
        gamma: &[f32],
        beta: &[f32],
        xhat: &mut [f32],
        out: &mut [f32],
    ) {
        let c = mean.len();
        let n = super::samples(x.len(), c, plane);
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                let (m, is, g, b) = (mean[ci], inv_std[ci], gamma[ci], beta[ci]);
                for idx in base..base + plane {
                    let xn = (x[idx] - m) * is;
                    xhat[idx] = xn;
                    out[idx] = g * xn + b;
                }
            }
        }
    }

    /// `Σdy` and `Σdy·x̂` as one scalar chain per channel, then the input
    /// gradient one element at a time.
    #[allow(clippy::too_many_arguments)]
    pub fn bn_backward(
        dy: &[f32],
        xhat: &[f32],
        plane: usize,
        gamma: &[f32],
        inv_std: &[f32],
        batch_stats: bool,
        grad_gamma: &mut [f32],
        grad_beta: &mut [f32],
        gx: &mut [f32],
    ) {
        let c = gamma.len();
        let n = super::samples(dy.len(), c, plane);
        let count = (n * plane) as f32;
        for ci in 0..c {
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for idx in base..base + plane {
                    sum_dy += dy[idx];
                    sum_dy_xhat += dy[idx] * xhat[idx];
                }
            }
            grad_beta[ci] += sum_dy;
            grad_gamma[ci] += sum_dy_xhat;
            let (g, is) = (gamma[ci], inv_std[ci]);
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for idx in base..base + plane {
                    gx[idx] = if batch_stats {
                        g * is / count * (count * dy[idx] - sum_dy - xhat[idx] * sum_dy_xhat)
                    } else {
                        g * is * dy[idx]
                    };
                }
            }
        }
    }
}

//! Batch normalisation over a [`LaneTensor`] — the batch statistics, the
//! normalising pass (with the ReLU that follows it fused in) and the backward
//! pass behind `ft_nn`'s `BatchNorm2d`. Like the convolution engines, each
//! kernel is a [`LaneJob`] that [`run_lanes`] runs on the AVX2 or the
//! portable [`Lanes`] family.
//!
//! In the lane layout a vector holds one position of eight samples of one
//! channel, so the elementwise passes — `x̂ = (x − mean)·inv_std`,
//! `γ·x̂ + β` (then `max(·, 0)` when the layer carries the ReLU) and the
//! input gradient — run against splatted per-channel constants, row by
//! row, writing the output's ring and dead lanes as `+0.0` (see
//! [`crate::act`]). `x̂` is not stored: the backward pass recomputes it from
//! the forward's input with the same two operations, so it is the same
//! value. With the ReLU fused, the backward pass masks `dy` where the
//! forward's pre-activation `γ·x̂ + β` — recomputed the same way, so the same
//! value — is not positive, exactly where the ReLU layer's backward masked
//! it (`out > 0` holds where the pre-activation is positive).
//!
//! **Bit identity.** The sequential NCHW loops these kernels replaced survive
//! as [`crate::oracle::bn_batch_stats`], [`crate::oracle::bn_normalize`] and
//! [`crate::oracle::bn_backward`], and every result here is `to_bits`-equal to
//! theirs. Only the reductions have an order to keep:
//!
//! - **Batch mean and variance** are, per channel, one chain per sample over
//!   its pixels (an `f32` `sum()`, which starts at `-0.0`), and those partial
//!   sums added to `+0.0` in ascending sample order. Lane = sample makes the
//!   per-sample chains one vector chain per channel; eight channels' partial
//!   vectors are transposed so lane `k` holds channel `k`, and the live
//!   samples are added in order.
//! - **`Σdy` and `Σdy·x̂`** are, per channel, one chain over (sample, pixel)
//!   from `+0.0`, sample-major, each product rounded before its add. A group
//!   of eight channels is staged transposed — per sample, per pixel, one
//!   vector whose lane `k` is channel `k` — in a per-thread buffer of
//!   `2 · 8 · h·w` vectors, and the chain walks the live samples' pixels in
//!   order, eight channels at once.
//!
//! No multiply-add is fused, in either family: the oracle rounds every
//! product, so the kernels use separate `mul` and `add`. The ReLU is
//! [`Lanes::relu`], which is `f32::max(·, 0.0)` bit for bit.

use crate::act::{zero_ring, zip_rows};
use crate::lanes::{live_mask, run_lanes, Lane, LaneJob, Lanes, LANES, ZERO};
use crate::LaneTensor;
use std::cell::RefCell;

thread_local! {
    /// [`bn_backward`]'s staging of a transposed block of eight channels,
    /// one per thread, grown to the largest plane the thread has seen and
    /// reused from then on.
    static STAGE: RefCell<Vec<Lane>> = const { RefCell::new(Vec::new()) };
}

/// The per-channel slices a kernel reads or writes must each be `c` long.
fn check_channels(x: &LaneTensor, per_channel: &[&[f32]]) {
    let c = x.shape()[1];
    assert!(
        per_channel.iter().all(|k| k.len() == c),
        "batchnorm per-channel length mismatch"
    );
}

/// Batch statistics of `x`: per-channel mean into `mean` and biased variance
/// into `var`, over the live samples.
///
/// # Panics
///
/// Panics if `mean` or `var` is not `c` long.
pub fn bn_batch_stats(x: &LaneTensor, mean: &mut [f32], var: &mut [f32]) {
    run_lanes(BatchStats(x, mean, var))
}

/// `out = γ·x̂ + β` with `x̂ = (x − mean)·inv_std`, then `max(out, 0)` when
/// `relu`, over `x`'s interior; `out` is resized to `x`'s shape with a ring
/// of `ring`.
///
/// # Panics
///
/// Panics if a per-channel slice is not `c` long.
#[allow(clippy::too_many_arguments)] // the four per-channel constants
pub fn bn_normalize(
    x: &LaneTensor,
    mean: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    beta: &[f32],
    relu: bool,
    ring: usize,
    out: &mut LaneTensor,
) {
    check_channels(x, &[mean, inv_std, gamma, beta]);
    out.resize(x.shape(), ring);
    run_lanes(Normalize(x, [mean, inv_std, gamma, beta], relu, out))
}

/// The backward pass of [`bn_normalize`] given its input `x` and `dy`
/// (shaped like `x`, any ring): with `dz = dy`, or under the ReLU
/// `dz = γ·x̂ + β > 0 ? dy : +0.0` (the forward's pre-activation,
/// recomputed with the forward's operations, so the same mask), `Σdz` is
/// added into `grad_beta`, `Σdz·x̂` into `grad_gamma`, and `gx` (resized to
/// `x`'s layout) is overwritten with the input gradient — through the batch
/// statistics when `batch_stats` (a `Train` forward), through constant
/// statistics (`γ·inv_std·dz`) otherwise. The per-channel constants are
/// the forward's.
///
/// # Panics
///
/// Panics if the shapes or the per-channel slices disagree.
#[allow(clippy::too_many_arguments)] // two gradients, four constants, two flags
pub fn bn_backward(
    x: &LaneTensor,
    dy: &LaneTensor,
    [mean, inv_std, gamma, beta]: [&[f32]; 4],
    relu: bool,
    batch_stats: bool,
    grad_gamma: &mut [f32],
    grad_beta: &mut [f32],
    gx: &mut LaneTensor,
) {
    check_channels(x, &[mean, inv_std, gamma, beta, grad_gamma, grad_beta]);
    assert_eq!(dy.shape(), x.shape(), "batchnorm backward shape mismatch");
    gx.resize(x.shape(), x.ring());
    STAGE.with_borrow_mut(|stage| {
        run_lanes(Backward {
            x,
            dy,
            consts: [mean, inv_std, gamma, beta],
            flags: [relu, batch_stats],
            grads: [grad_gamma, grad_beta],
            stage,
            gx,
        })
    })
}

/// `[f(0), f(1), …]` — `std::array::from_fn` for vectors, spelled out so
/// that it always inlines into the AVX2 family's entry point (a vector
/// crossing a call into code compiled without AVX2 goes through memory).
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

/// Channel `c0 + k` for lane `k` of a block of up to eight channels; the
/// lanes past the last channel repeat it and are dropped.
#[inline(always)]
fn block_channel(c0: usize, c: usize, k: usize) -> usize {
    (c0 + k).min(c - 1)
}

/// The lane offsets of channel `ch`'s interior row `y` in group `g`.
#[inline(always)]
fn row(t: &LaneTensor, g: usize, ch: usize, y: usize) -> usize {
    g * t.group_len() + t.at(ch, y, 0)
}

/// The mean into `out` (`SQUARES = false`), or the variance about `mean`:
/// per channel `Σ_samples (Σ_pixels term)` over `count`. Lane = sample runs
/// the eight samples' chains of one channel as one vector chain from `-0.0`;
/// the eight channels' chains of a block are transposed so lane `k` is
/// channel `k`, and the live samples are added to a `+0.0` total in order.
#[inline(always)]
fn stat<V: Lanes, const SQUARES: bool>(x: &LaneTensor, mean: &[f32], out: &mut [f32]) {
    let [n, c, h, w] = x.shape();
    let count = (n * h * w) as f32;
    for c0 in (0..c).step_by(LANES) {
        let chans = c0..c.min(c0 + LANES);
        let means: [V; LANES] = vectors(|k| {
            if SQUARES {
                V::splat(mean[block_channel(c0, c, k)])
            } else {
                V::splat(0.0)
            }
        });
        let ch: [usize; LANES] = std::array::from_fn(|k| block_channel(c0, c, k));
        let mut total = V::splat(0.0);
        for g in 0..x.groups() {
            let mut partial = [V::splat(-0.0); LANES];
            for y in 0..h {
                let rows = channel_rows(x, g, &ch, y);
                // The eight rows walk in lockstep, one pixel at a time.
                #[allow(clippy::needless_range_loop)]
                for xi in 0..w {
                    for k in 0..LANES {
                        let v = V::load(&rows[k][xi].0);
                        let term = if SQUARES {
                            let d = v.sub(means[k]);
                            d.mul(d)
                        } else {
                            v
                        };
                        partial[k] = partial[k].add(term);
                    }
                }
            }
            for sample in V::transpose(partial).into_iter().take(x.live(g)) {
                total = total.add(sample);
            }
        }
        for (out, total) in out[chans].iter_mut().zip(lanes(total)) {
            *out = total / count;
        }
    }
}

/// [`bn_batch_stats`]'s operands `(x, mean, var)`.
struct BatchStats<'a>(&'a LaneTensor, &'a mut [f32], &'a mut [f32]);

impl LaneJob for BatchStats<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let BatchStats(x, mean, var) = self;
        check_channels(x, &[mean, var]);
        stat::<V, false>(x, &[], mean);
        stat::<V, true>(x, mean, var);
    }
}

/// [`bn_normalize`]'s operands `(x, [mean, inv_std, gamma, beta], relu,
/// out)`.
struct Normalize<'a>(&'a LaneTensor, [&'a [f32]; 4], bool, &'a mut LaneTensor);

impl LaneJob for Normalize<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Normalize(x, consts, relu, out) = self;
        let splats = |c: usize| consts.map(|k| V::splat(k[c]));
        let affine = |x: V, [m, is, g, b]: &[V; 4]| g.mul(x.sub(*m).mul(*is)).add(*b);
        if relu {
            zip_rows([x], out, splats, |[x]: [V; 1], k| affine(x, k).relu());
        } else {
            zip_rows([x], out, splats, |[x]: [V; 1], k| affine(x, k));
        }
    }
}

/// Planes of at most this many pixels keep `dz` in the input gradient's
/// buffer between the two passes of [`bn_backward`] (the buffer is still in
/// cache when the second pass reads it); larger ones recompute it from
/// `dy`, which costs fewer cache misses than storing it.
const KEEP_DZ_PLANE: usize = 64;

/// Lanes from one sample's staged plane to the next: `plane` rounded up to
/// odd. The staging stores one pixel of eight samples in turn while it loads
/// one pixel of eight channel planes, and rows a power of two apart alias
/// (4 KiB apart, a load waits on an unrelated store).
fn stage_stride(plane: usize) -> usize {
    plane | 1
}

/// Interior row `y` of each channel of `ch` in group `g` of `t`.
#[inline(always)]
fn channel_rows<'t>(
    t: &'t LaneTensor,
    g: usize,
    ch: &[usize; LANES],
    y: usize,
) -> [&'t [Lane]; LANES] {
    let w = t.shape()[3];
    std::array::from_fn(|k| &t.lanes()[row(t, g, ch[k], y)..][..w])
}

/// `dy` masked by the ReLU (when `RELU`) at one position of one channel:
/// `γ·x̂ + β > 0 ? dy : +0.0`, with `x̂` and the constants as the forward
/// had them.
#[inline(always)]
fn masked<V: Lanes, const RELU: bool>(dy: V, xhat: V, gamma: V, beta: V) -> V {
    if RELU {
        dy.and(gamma.mul(xhat).add(beta).gt(V::splat(0.0)))
    } else {
        dy
    }
}

/// Stages group `g` of the channel block `ch` for [`bn_backward`]'s sums,
/// transposed so that lane `k` is channel `ch[k]`: `st_dz[l·stride + p]` is
/// `dz` of sample `l` at pixel `p`, `st_prod[l·stride + p]` is `dz·x̂` (the
/// product rounds alike in either layout). Only the group's live samples
/// are stored. With `KEEP`, `dz` itself is also written, untransposed, into
/// `gz` (`x`'s layout; the input gradient's buffer), where the elementwise
/// pass picks it up.
#[inline(always)]
#[allow(clippy::type_complexity)] // one call's operands, passed whole
fn stage_block<V: Lanes, const RELU: bool, const KEEP: bool>(
    ([x, dy], g, ch, [m, is, gamma, beta], (st_dz, st_prod, gz)): (
        [&LaneTensor; 2],
        usize,
        &[usize; LANES],
        &[[V; LANES]; 4],
        (&mut [Lane], &mut [Lane], &mut [Lane]),
    ),
) {
    let [_, c, h, w] = x.shape();
    let (stride, live, zero) = (stage_stride(h * w), x.live(g), V::splat(0.0));
    // Channels past the last repeat it: computed, not written.
    let chans = LANES.min(c - ch[0]);
    for y in 0..h {
        let (xr, dyr) = (channel_rows(x, g, ch, y), channel_rows(dy, g, ch, y));
        let at: [usize; LANES] = std::array::from_fn(|k| row(x, g, ch[k], y));
        for xi in 0..w {
            let mut dz = [zero; LANES];
            let mut prod = [zero; LANES];
            for k in 0..LANES {
                let xhat = V::load(&xr[k][xi].0).sub(m[k]).mul(is[k]);
                let d = masked::<V, RELU>(V::load(&dyr[k][xi].0), xhat, gamma[k], beta[k]);
                (dz[k], prod[k]) = (d, d.mul(xhat));
            }
            if KEEP {
                for (d, &at) in dz.iter().zip(&at).take(chans) {
                    d.store(&mut gz[at + xi].0);
                }
            }
            let p = y * w + xi;
            for (l, v) in V::transpose(dz).into_iter().enumerate().take(live) {
                v.store(&mut st_dz[l * stride + p].0);
            }
            for (l, v) in V::transpose(prod).into_iter().enumerate().take(live) {
                v.store(&mut st_prod[l * stride + p].0);
            }
        }
    }
}

/// [`bn_backward`]'s operands.
struct Backward<'a> {
    x: &'a LaneTensor,
    dy: &'a LaneTensor,
    consts: [&'a [f32]; 4],
    /// `[relu, batch_stats]`.
    flags: [bool; 2],
    grads: [&'a mut [f32]; 2],
    stage: &'a mut Vec<Lane>,
    gx: &'a mut LaneTensor,
}

impl LaneJob for Backward<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Backward {
            x,
            dy,
            consts,
            flags: [relu, batch_stats],
            grads: [grad_gamma, grad_beta],
            stage,
            gx,
        } = self;
        let [n, c, h, w] = x.shape();
        let plane = h * w;
        let count = (n * plane) as f32;
        let zero = V::splat(0.0);
        let st = stage;
        let stride = stage_stride(plane);
        st.resize(2 * LANES * stride, ZERO);
        let (st_dz, st_prod) = st.split_at_mut(LANES * stride);
        let [mean, inv_std, gamma, beta] = consts;
        let cnt = V::splat(count);
        let (r, group, dy_group) = (x.ring(), x.group_len(), dy.group_len());
        let keep = plane <= KEEP_DZ_PLANE;
        let gz = gx.lanes_mut();
        // A block of eight channels at a time: its sums over every group,
        // then its input gradient while its planes are still in cache.
        for c0 in (0..c).step_by(LANES) {
            let ch: [usize; LANES] = std::array::from_fn(|k| block_channel(c0, c, k));
            let splats: [[V; LANES]; 4] = consts.map(|k| vectors(|j| V::splat(k[ch[j]])));
            let (mut s1, mut s2) = (zero, zero);
            for g in 0..x.groups() {
                let stage = (&mut *st_dz, &mut *st_prod, &mut *gz);
                let operands = ([x, dy], g, &ch, &splats, stage);
                match (relu, keep) {
                    (true, true) => stage_block::<V, true, true>(operands),
                    (true, false) => stage_block::<V, true, false>(operands),
                    (false, true) => stage_block::<V, false, true>(operands),
                    (false, false) => stage_block::<V, false, false>(operands),
                }
                let samples = (st_dz.chunks(stride)).zip(st_prod.chunks(stride));
                for (dz, prod) in samples.take(x.live(g)) {
                    for (d, prod) in dz[..plane].iter().zip(&prod[..plane]) {
                        s1 = s1.add(V::load(&d.0));
                        s2 = s2.add(V::load(&prod.0));
                    }
                }
            }
            let chans = c0..c.min(c0 + LANES);
            let (s1, s2) = (lanes(s1), lanes(s2));
            for (k, ci) in chans.clone().enumerate() {
                grad_beta[ci] += s1[k];
                grad_gamma[ci] += s2[k];
            }
            // `gx = k·(count·dz − Σdz − x̂·Σdz·x̂)` with `k = γ·inv_std /
            // count` after a Train forward, `γ·inv_std·dz` after an Eval
            // one; `dz` from `gz` where staging kept it, recomputed from `dy`
            // otherwise.
            for g in 0..x.groups() {
                let live: V = live_mask(x.live(g));
                let (xs, gz) = (
                    &x.lanes()[g * group..][..group],
                    &mut gz[g * group..][..group],
                );
                let dys = &dy.lanes()[g * dy_group..][..dy_group];
                for (k, ci) in chans.clone().enumerate() {
                    let gi = gamma[ci] * inv_std[ci];
                    let kc = if batch_stats { gi / count } else { gi };
                    let [m, is, gc, bc, kc, s1, s2] =
                        [mean[ci], inv_std[ci], gamma[ci], beta[ci], kc, s1[k], s2[k]]
                            .map(V::splat);
                    for y in 0..h {
                        let (at, dy_at) = (x.at(ci, y, 0), dy.at(ci, y, 0));
                        let rows = gz[at..][..w].iter_mut().zip(&xs[at..][..w]);
                        for ((gv, xv), dyv) in rows.zip(&dys[dy_at..][..w]) {
                            let xhat = V::load(&xv.0).sub(m).mul(is);
                            let d = match (keep, relu) {
                                (true, _) => V::load(&gv.0),
                                (false, true) => masked::<V, true>(V::load(&dyv.0), xhat, gc, bc),
                                (false, false) => V::load(&dyv.0),
                            };
                            let v = if batch_stats {
                                kc.mul(cnt.mul(d).sub(s1).sub(xhat.mul(s2)))
                            } else {
                                kc.mul(d)
                            };
                            v.and(live).store(&mut gv.0);
                        }
                    }
                }
            }
        }
        for g in 0..x.groups() {
            zero_ring(&mut gz[g * group..][..group], [c, h, w], r);
        }
    }
}

/// The sequential loops the kernels above replaced, kept as their reference
/// ([`crate::oracle`]).
pub(crate) mod oracle {
    /// Samples in a `[n, c, plane]` activation of `len` floats.
    fn samples(len: usize, c: usize, plane: usize) -> usize {
        let sample = c * plane;
        let n = len.checked_div(sample).unwrap_or(0);
        assert_eq!(n * sample, len, "batchnorm input is not [n, {c}, {plane}]");
        n
    }

    /// Batch mean and biased variance per channel of `x` (`[n, c, plane]`,
    /// `c = mean.len()`), one scalar chain per sample.
    pub fn bn_batch_stats(x: &[f32], plane: usize, mean: &mut [f32], var: &mut [f32]) {
        let c = mean.len();
        let n = samples(x.len(), c, plane);
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
        let n = samples(x.len(), c, plane);
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
        let n = samples(dy.len(), c, plane);
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::act::tests::{assert_ring_and_dead_lanes_zero, BATCHES, SIDES};
    use crate::oracle;
    use crate::spconv::tests::{bits, lanes_of, nchw_of, rand_vec};
    use rand::SeedableRng;

    /// One BN layer's Train forward (batch statistics), then an Eval
    /// forward on running statistics, each followed by its backward, on the
    /// lane kernels and on the NCHW oracle (`max(·, 0)` and its mask around
    /// it when `relu`): statistics, outputs, `Σdz`, `Σdz·x̂` (onto non-zero
    /// gradients) and input gradients `to_bits`-equal, rings and dead lanes
    /// `+0.0`. Inputs carry signed zeros.
    pub(crate) fn assert_bn_matches(shape: [usize; 4], relu: bool, ring: usize, seed: u64) {
        let [n, c, h, w] = shape;
        let (plane, len) = (h * w, n * c * h * w);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut x = rand_vec(len, &mut rng);
        let dy = rand_vec(len, &mut rng);
        for (i, v) in x.iter_mut().enumerate().step_by(7) {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        let (gamma, beta) = (rand_vec(c, &mut rng), rand_vec(c, &mut rng));
        let grads = (rand_vec(c, &mut rng), rand_vec(c, &mut rng));
        let running = rand_vec(c, &mut rng);
        let tag = format!("{shape:?} relu {relu} ring {ring}");
        let lx = lanes_of(&x, shape, 0);
        let (mut mean, mut var) = (vec![0.0; c], vec![0.0; c]);
        let (mut mean_o, mut var_o) = (vec![0.0; c], vec![0.0; c]);
        bn_batch_stats(&lx, &mut mean, &mut var);
        oracle::bn_batch_stats(&x, plane, &mut mean_o, &mut var_o);
        assert_eq!(bits(&mean), bits(&mean_o), "mean {tag}");
        assert_eq!(bits(&var), bits(&var_o), "var {tag}");
        let inv = |v: &[f32]| -> Vec<f32> {
            v.iter()
                .map(|&v| 1.0 / (v.abs() + 1e-5f32).sqrt())
                .collect()
        };
        let train = (mean, inv(&var));
        let eval = (running.clone(), inv(&running));
        for (batch, (mean, inv_std)) in [(true, train), (false, eval)] {
            let tag = format!("{tag} batch {batch}");
            let mut out = LaneTensor::default();
            bn_normalize(&lx, &mean, &inv_std, &gamma, &beta, relu, ring, &mut out);
            assert_ring_and_dead_lanes_zero(&out, &tag);
            let (mut xhat_o, mut out_o) = (vec![0.0; len], vec![0.0; len]);
            oracle::bn_normalize(
                &x,
                plane,
                &mean,
                &inv_std,
                &gamma,
                &beta,
                &mut xhat_o,
                &mut out_o,
            );
            if relu {
                out_o.iter_mut().for_each(|v| *v = v.max(0.0));
            }
            assert_eq!(bits(&nchw_of(&out)), bits(&out_o), "out {tag}");

            let ldy = lanes_of(&dy, shape, ring);
            let ((mut gg, mut gb), mut gx) = (grads.clone(), LaneTensor::default());
            let consts = [&mean[..], &inv_std, &gamma, &beta];
            bn_backward(&lx, &ldy, consts, relu, batch, &mut gg, &mut gb, &mut gx);
            assert_ring_and_dead_lanes_zero(&gx, &tag);
            let dz: Vec<f32> = (dy.iter().zip(&out_o))
                .map(|(&d, &o)| if !relu || o > 0.0 { d } else { 0.0 })
                .collect();
            let ((mut gg_o, mut gb_o), mut gx_o) = (grads.clone(), vec![0.0; len]);
            let (is, g) = (&inv_std, &gamma);
            oracle::bn_backward(
                &dz, &xhat_o, plane, g, is, batch, &mut gg_o, &mut gb_o, &mut gx_o,
            );
            assert_eq!(bits(&gb), bits(&gb_o), "grad beta (sum dy) {tag}");
            assert_eq!(bits(&gg), bits(&gg_o), "grad gamma (sum dy xhat) {tag}");
            assert_eq!(bits(&nchw_of(&gx)), bits(&gx_o), "gx {tag}");
        }
    }

    /// The lane-layout property suite's batch-norm half: every property batch
    /// size and plane, channel counts on and off the eight-channel block,
    /// with and without the fused ReLU.
    #[test]
    fn bn_kernels_match_the_oracle_at_every_property_shape() {
        for (i, (n, side)) in BATCHES
            .iter()
            .flat_map(|&n| SIDES.map(|s| (n, s)))
            .enumerate()
        {
            for (c, relu) in [(3, true), (16, false), (9, true)] {
                assert_bn_matches([n, c, side, side], relu, usize::from(relu), i as u64);
            }
        }
    }
}

//! Pooling over a [`LaneTensor`]: 2×2 max pooling and global average
//! pooling, each a [`LaneJob`] on the AVX2 or the portable [`Lanes`] family.
//!
//! Lane = sample, so every window, and every plane's average, is one lane
//! vector chain over the same positions the NCHW loops walk, in the same
//! order:
//!
//! - **max pooling** starts from the window's top-left value and replaces it
//!   with the top-right, bottom-left, bottom-right one in turn when that one
//!   is strictly greater — [`Lanes::gt`] then [`Lanes::select`], so ties and
//!   NaNs keep the earlier value exactly as the scalar `>` does. Backward
//!   recomputes the winner from the forward's input instead of storing it,
//!   and routes `+0.0 + dy` there (the scalar path added `dy` into a zeroed
//!   gradient), `+0.0` elsewhere — odd trailing rows and columns included.
//! - **global average pooling** is, per sample and channel, an `f32` `sum()`
//!   over the plane (from `-0.0`) divided by `h·w`; backward spreads
//!   `dy / (h·w)` over the plane.
//!
//! The sequential NCHW loops these replaced are the oracle
//! ([`crate::oracle::max_pool2x2_into`] and friends), pinned `to_bits`-equal
//! by the tests. Outputs are written whole, ring and dead lanes `+0.0`.

use crate::lanes::{run_lanes, LaneJob, Lanes, LANES, ZERO};
use crate::{LaneTensor, Tensor};

/// 2×2 max pooling with stride 2 of `x` into `out` (resized to
/// `[n, c, h/2, w/2]` with a ring of `ring`). Odd trailing rows and columns
/// are dropped, the common `floor` convention.
///
/// # Panics
///
/// Panics if either spatial dim is < 2.
pub fn max_pool2x2(x: &LaneTensor, ring: usize, out: &mut LaneTensor) {
    let [n, c, h, w] = x.shape();
    assert!(
        h >= 2 && w >= 2,
        "max_pool2x2 needs spatial dims >= 2, got {h}x{w}"
    );
    out.resize([n, c, h / 2, w / 2], ring);
    run_lanes(MaxPool(x, None, out))
}

/// Backward pass of [`max_pool2x2`] from its input `x` and the output
/// gradient `dy`: `gx` (resized to `x`'s layout) holds `+0.0 + dy` at each
/// window's winner and `+0.0` everywhere else.
///
/// # Panics
///
/// Panics if `dy` is not the pooled shape of `x`.
pub fn max_pool2x2_backward(x: &LaneTensor, dy: &LaneTensor, gx: &mut LaneTensor) {
    let [n, c, h, w] = x.shape();
    assert_eq!(
        dy.shape(),
        [n, c, h / 2, w / 2],
        "max_pool2x2 grad shape mismatch"
    );
    gx.resize(x.shape(), x.ring());
    run_lanes(MaxPool(x, Some(dy), gx))
}

/// Global average pooling of `x` into `out` (`[n, c]`, resized in place).
pub fn avg_pool_global(x: &LaneTensor, out: &mut Tensor) {
    let [n, c, _, _] = x.shape();
    out.resize_for_overwrite(&[n, c]);
    run_lanes(AvgPool(x, out.data_mut()))
}

/// Backward pass of [`avg_pool_global`]: `gx` (resized to `shape` with a
/// ring of `ring`) holds `dy[n, c] / (h·w)` at every position of plane
/// `(n, c)`.
///
/// # Panics
///
/// Panics if `dy` is not `[n, c]` of `shape`.
pub fn avg_pool_global_backward(dy: &Tensor, shape: [usize; 4], ring: usize, gx: &mut LaneTensor) {
    let [n, c, h, w] = shape;
    assert_eq!(dy.shape(), &[n, c], "grad_out must be [n,c]");
    gx.resize(shape, ring);
    let area = (h * w) as f32;
    let group = gx.group_len();
    for (g, dst) in gx.lanes_mut().chunks_mut(group.max(1)).enumerate() {
        dst.fill(ZERO);
        let live = LANES.min(n - g * LANES);
        for ci in 0..c {
            let mut v = ZERO;
            for (l, vl) in v.0[..live].iter_mut().enumerate() {
                *vl = dy.data()[(g * LANES + l) * c + ci] / area;
            }
            let wp = w + 2 * ring;
            let plane = &mut dst[ci * (h + 2 * ring) * wp..];
            for y in 0..h {
                plane[(y + ring) * wp + ring..][..w].fill(v);
            }
        }
    }
}

/// Both passes of the max pool, `(x, dy, out)`: forward into `out` when `dy`
/// is `None`, backward into `out` = `gx` otherwise.
struct MaxPool<'a>(&'a LaneTensor, Option<&'a LaneTensor>, &'a mut LaneTensor);

impl LaneJob for MaxPool<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let MaxPool(x, dy, out) = self;
        let [_, c, h, w] = x.shape();
        let (oh, ow) = (h / 2, w / 2);
        let zero = V::splat(0.0);
        let (src, group) = (x.lanes(), x.group_len());
        let out_group = out.group_len();
        // Where the forward's output position `(ci, oy, ox)` lies in `out`.
        let (r, [_, _, ohp, owp]) = (out.ring(), out.shape());
        let (ohp, owp) = (ohp + 2 * r, owp + 2 * r);
        let pooled = |ci: usize, oy: usize, ox: usize| (ci * ohp + oy + r) * owp + ox + r;
        for (g, dst) in out.lanes_mut().chunks_mut(out_group.max(1)).enumerate() {
            dst.fill(ZERO);
            let src = &src[g * group..][..group];
            for ci in 0..c {
                for oy in 0..oh {
                    let top = x.at(ci, 2 * oy, 0);
                    let bottom = x.at(ci, 2 * oy + 1, 0);
                    for ox in 0..ow {
                        let taps = [
                            top + 2 * ox,
                            top + 2 * ox + 1,
                            bottom + 2 * ox,
                            bottom + 2 * ox + 1,
                        ];
                        let v: [V; 4] = std::array::from_fn(|t| V::load(&src[taps[t]].0));
                        let mut best = v[0];
                        let mut arg = zero;
                        for (t, &vt) in v.iter().enumerate().skip(1) {
                            let wins = vt.gt(best);
                            best = V::select(wins, vt, best);
                            arg = V::select(wins, V::splat(t as f32), arg);
                        }
                        match dy {
                            None => best.store(&mut dst[pooled(ci, oy, ox)].0),
                            Some(dy) => {
                                let d =
                                    V::load(&dy.lanes()[g * dy.group_len() + dy.at(ci, oy, ox)].0);
                                let d = zero.add(d);
                                for (t, &at) in taps.iter().enumerate() {
                                    V::select(arg.eq(V::splat(t as f32)), d, zero)
                                        .store(&mut dst[at].0);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// [`avg_pool_global`]'s operands `(x, out)`.
struct AvgPool<'a>(&'a LaneTensor, &'a mut [f32]);

impl LaneJob for AvgPool<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let AvgPool(x, out) = self;
        let [n, c, h, w] = x.shape();
        let area = (h * w) as f32;
        let (src, group) = (x.lanes(), x.group_len());
        for g in 0..x.groups() {
            let src = &src[g * group..];
            for ci in 0..c {
                let mut sum = V::splat(-0.0);
                for y in 0..h {
                    for v in &src[x.at(ci, y, 0)..][..w] {
                        sum = sum.add(V::load(&v.0));
                    }
                }
                let mut lanes = [0.0f32; LANES];
                sum.store(&mut lanes);
                for (l, &s) in lanes.iter().enumerate().take(LANES.min(n - g * LANES)) {
                    out[(g * LANES + l) * c + ci] = s / area;
                }
            }
        }
    }
}

/// The sequential NCHW loops the lane kernels replaced, kept as their
/// reference ([`crate::oracle`]).
pub(crate) mod oracle {
    use crate::Tensor;

    /// 2×2 max pooling with stride 2 over `[n, c, h, w]` into `out`, the
    /// flat argmax of every window into `arg`.
    pub fn max_pool2x2_into(x: &Tensor, out: &mut Tensor, arg: &mut Vec<usize>) {
        let s = x.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (oh, ow) = (h / 2, w / 2);
        out.resize_for_overwrite(&[n, c, oh, ow]);
        arg.clear();
        arg.resize(n * c * oh * ow, 0);
        let xd = x.data();
        for plane in 0..n * c {
            let (base, obase) = (plane * h * w, plane * oh * ow);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_idx = base + (2 * oy) * w + 2 * ox;
                    let mut best = xd[best_idx];
                    for (dy, dx) in [(0, 1), (1, 0), (1, 1)] {
                        let idx = base + (2 * oy + dy) * w + 2 * ox + dx;
                        if xd[idx] > best {
                            best = xd[idx];
                            best_idx = idx;
                        }
                    }
                    out.data_mut()[obase + oy * ow + ox] = best;
                    arg[obase + oy * ow + ox] = best_idx;
                }
            }
        }
    }

    /// Routes each output gradient to its window's argmax, in a zeroed `gx`.
    pub fn max_pool2x2_backward_into(
        grad_out: &Tensor,
        arg: &[usize],
        input_shape: &[usize],
        gx: &mut Tensor,
    ) {
        gx.resize_zeroed(input_shape);
        let gd = gx.data_mut();
        for (g, &idx) in grad_out.data().iter().zip(arg.iter()) {
            gd[idx] += g;
        }
    }

    /// Global average pooling `[n, c, h, w] → [n, c]`.
    pub fn avg_pool_global_into(x: &Tensor, out: &mut Tensor) {
        let s = x.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        out.resize_for_overwrite(&[n, c]);
        let area = (h * w) as f32;
        for (plane, o) in out.data_mut().iter_mut().enumerate() {
            let sum: f32 = x.data()[plane * h * w..][..h * w].iter().sum();
            *o = sum / area;
        }
    }

    /// Spreads each gradient uniformly over the plane it averaged.
    pub fn avg_pool_global_backward_into(
        grad_out: &Tensor,
        input_shape: &[usize],
        gx: &mut Tensor,
    ) {
        let area = (input_shape[2] * input_shape[3]) as f32;
        let plane = input_shape[2] * input_shape[3];
        gx.resize_for_overwrite(input_shape);
        for (dst, &g) in gx.data_mut().chunks_mut(plane).zip(grad_out.data()) {
            dst.fill(g / area);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use super::*;
    use crate::act::tests::{assert_ring_and_dead_lanes_zero, BATCHES, SIDES};
    use crate::spconv::tests::{bits, rand_vec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn lanes(x: &[f32], shape: [usize; 4], ring: usize) -> LaneTensor {
        let mut t = LaneTensor::default();
        t.copy_from_nchw(x, shape, ring);
        t
    }

    fn nchw(t: &LaneTensor) -> Vec<f32> {
        let mut out = vec![f32::NAN; t.shape().iter().product()];
        t.copy_to_nchw(&mut out);
        out
    }

    /// Both pools, forward and backward, equal the NCHW oracle `to_bits` at
    /// every property batch size and plane (odd ones too), with ties, `−0.0`
    /// and NaN inside windows, and write their ring and dead lanes `+0.0`.
    #[test]
    fn pools_match_the_nchw_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for n in BATCHES {
            for side in SIDES.into_iter().chain([3, 5]) {
                let c = 3;
                let shape = [n, c, side, side];
                let len = n * c * side * side;
                let mut x = rand_vec(len, &mut rng);
                // Ties, signed zeros and a NaN.
                for (i, v) in x.iter_mut().enumerate() {
                    match i % 11 {
                        3 => *v = 0.5,
                        4 => *v = 0.5,
                        5 => *v = -0.0,
                        9 if i % 3 == 0 => *v = f32::NAN,
                        _ => {}
                    }
                }
                let xt = Tensor::from_vec(x.clone(), &[n, c, side, side]);
                let lx = lanes(&x, shape, 1);
                let tag = format!("n{n} {side}px");

                let mut avg = Tensor::default();
                avg_pool_global(&lx, &mut avg);
                let mut avg_o = Tensor::default();
                avg_pool_global_into(&xt, &mut avg_o);
                assert_eq!(bits(avg.data()), bits(avg_o.data()), "gap {tag}");
                let g = Tensor::from_vec(rand_vec(n * c, &mut rng), &[n, c]);
                let mut gx = LaneTensor::default();
                avg_pool_global_backward(&g, shape, 1, &mut gx);
                assert_ring_and_dead_lanes_zero(&gx, &tag);
                let mut gx_o = Tensor::default();
                avg_pool_global_backward_into(&g, xt.shape(), &mut gx_o);
                assert_eq!(bits(&nchw(&gx)), bits(gx_o.data()), "gap bwd {tag}");

                if side < 2 {
                    continue;
                }
                let mut out = LaneTensor::default();
                max_pool2x2(&lx, 1, &mut out);
                assert_ring_and_dead_lanes_zero(&out, &tag);
                let (mut out_o, mut arg) = (Tensor::default(), Vec::new());
                max_pool2x2_into(&xt, &mut out_o, &mut arg);
                assert_eq!(bits(&nchw(&out)), bits(out_o.data()), "maxpool {tag}");
                let mut dy = rand_vec(out_o.numel(), &mut rng);
                dy[0] = -0.0;
                let dy_t = Tensor::from_vec(dy.clone(), out_o.shape());
                let ldy = lanes(&dy, out.shape(), 1);
                max_pool2x2_backward(&lx, &ldy, &mut gx);
                assert_ring_and_dead_lanes_zero(&gx, &tag);
                max_pool2x2_backward_into(&dy_t, &arg, xt.shape(), &mut gx_o);
                assert_eq!(bits(&nchw(&gx)), bits(gx_o.data()), "maxpool bwd {tag}");
            }
        }
    }

    #[test]
    fn max_pool_forward_and_backward_by_hand() {
        let x: Vec<f32> = (1..=16).map(|v| v as f32).collect();
        let lx = lanes(&x, [1, 1, 4, 4], 0);
        let mut y = LaneTensor::default();
        max_pool2x2(&lx, 0, &mut y);
        assert_eq!(y.shape(), [1, 1, 2, 2]);
        assert_eq!(nchw(&y), [6.0, 8.0, 14.0, 16.0]);
        let dy = lanes(&[2.5, 1.0, 1.0, 1.0], [1, 1, 2, 2], 0);
        let mut gx = LaneTensor::default();
        max_pool2x2_backward(&lx, &dy, &mut gx);
        let g = nchw(&gx);
        assert_eq!(
            (g[5], g[7], g[13], g[15], g.iter().sum::<f32>()),
            (2.5, 1.0, 1.0, 1.0, 5.5)
        );
    }

    #[test]
    fn avg_pool_forward_and_backward_by_hand() {
        let x = [1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0];
        let mut y = Tensor::default();
        avg_pool_global(&lanes(&x, [1, 2, 2, 2], 1), &mut y);
        assert_eq!(y.data(), &[2.5, 10.0]);
        let mut gx = LaneTensor::default();
        avg_pool_global_backward(
            &Tensor::from_vec(vec![4.0, 8.0], &[1, 2]),
            [1, 2, 2, 2],
            1,
            &mut gx,
        );
        assert_eq!(nchw(&gx), [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }
}

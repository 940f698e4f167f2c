//! Pooling kernels (2×2 max pooling and global average pooling).
//!
//! Both forward kernels fan the `n·c` planes out over a
//! [`Runtime`](ft_runtime::Runtime)'s workers; planes are written
//! independently, so the results (including argmax caches) are bit-identical
//! for any thread count. Every kernel writes into caller-owned buffers that
//! it resizes in place, so a training loop allocates nothing once warm.

use crate::Tensor;
use ft_runtime::Runtime;
use std::ops::Range;

/// Max-pools the plane range `planes`; `ochunk`/`achunk` hold exactly those
/// planes' outputs.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's natural operands
fn max_pool_planes(
    xd: &[f32],
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    planes: Range<usize>,
    ochunk: &mut [f32],
    achunk: &mut [usize],
) {
    for (local, plane) in planes.enumerate() {
        let base = plane * h * w;
        let obase = local * oh * ow;
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
                ochunk[obase + oy * ow + ox] = best;
                achunk[obase + oy * ow + ox] = best_idx;
            }
        }
    }
}

/// 2×2 max pooling with stride 2 over a `[n, c, h, w]` tensor, the `n·c`
/// planes fanned out over `rt`'s workers.
///
/// `out` receives the pooled tensor and `arg` the flat argmax indices (into
/// the input buffer) needed by [`max_pool2x2_backward_into`]; both are
/// resized to the pooled geometry (allocation-free once warm). Odd trailing
/// rows/columns are dropped, matching the common `floor` convention.
///
/// # Panics
///
/// Panics if `x` is not rank-4 or either spatial dim is < 2.
pub fn max_pool2x2_into_rt(rt: &Runtime, x: &Tensor, out: &mut Tensor, arg: &mut Vec<usize>) {
    let s = x.shape();
    assert_eq!(s.len(), 4, "max_pool2x2 requires [n,c,h,w]");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    assert!(
        h >= 2 && w >= 2,
        "max_pool2x2 needs spatial dims >= 2, got {h}x{w}"
    );
    let (oh, ow) = (h / 2, w / 2);
    out.resize_for_overwrite(&[n, c, oh, ow]);
    arg.clear();
    arg.resize(n * c * oh * ow, 0);
    let xd = x.data();
    let planes = n * c;
    if !rt.should_parallelize(planes.saturating_mul(h * w)) || planes <= 1 {
        return max_pool_planes(xd, h, w, oh, ow, 0..planes, out.data_mut(), arg);
    }
    // `split_rows_mut` chunks both buffers identically (same plane count,
    // same runtime), so zipping them pairs each range with its slices.
    let out_parts = rt.split_rows_mut(out.data_mut(), oh * ow);
    let arg_parts = rt.split_rows_mut(arg, oh * ow);
    let jobs: Vec<_> = out_parts
        .into_iter()
        .zip(arg_parts)
        .map(|((range, ochunk), (_, achunk))| (range, ochunk, achunk))
        .collect();
    rt.scatter(jobs, |(range, ochunk, achunk)| {
        max_pool_planes(xd, h, w, oh, ow, range, ochunk, achunk);
    });
}

/// Backward pass of [`max_pool2x2_into_rt`]: routes each output gradient to
/// the argmax input position, into a caller-owned gradient tensor (resized
/// and zeroed in place; allocation-free once warm).
///
/// # Panics
///
/// Panics if `grad_out.numel() != arg.len()`.
pub fn max_pool2x2_backward_into(
    grad_out: &Tensor,
    arg: &[usize],
    input_shape: &[usize],
    gx: &mut Tensor,
) {
    assert_eq!(grad_out.numel(), arg.len(), "argmax cache length mismatch");
    gx.resize_zeroed(input_shape);
    let gd = gx.data_mut();
    for (g, &idx) in grad_out.data().iter().zip(arg.iter()) {
        gd[idx] += g;
    }
}

/// Global average pooling over a `[n, c, h, w]` tensor, producing `[n, c]`
/// in a caller-owned tensor (resized in place; allocation-free once warm),
/// the `n·c` planes fanned out over `rt`'s workers.
///
/// # Panics
///
/// Panics if `x` is not rank-4.
pub fn avg_pool_global_into_rt(rt: &Runtime, x: &Tensor, out: &mut Tensor) {
    let s = x.shape();
    assert_eq!(s.len(), 4, "avg_pool_global requires [n,c,h,w]");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let area = (h * w) as f32;
    out.resize_for_overwrite(&[n, c]);
    let xd = x.data();
    let pool_planes = |planes: Range<usize>, ochunk: &mut [f32]| {
        for (local, plane) in planes.enumerate() {
            let base = plane * h * w;
            let sum: f32 = xd[base..base + h * w].iter().sum();
            ochunk[local] = sum / area;
        }
    };
    let planes = n * c;
    if !rt.should_parallelize(planes.saturating_mul(h * w)) || planes <= 1 {
        return pool_planes(0..planes, out.data_mut());
    }
    let jobs = rt.split_rows_mut(out.data_mut(), 1);
    rt.scatter(jobs, |(range, ochunk)| pool_planes(range, ochunk));
}

/// Backward pass of [`avg_pool_global_into_rt`]: spreads each gradient
/// uniformly over the spatial positions it averaged, into a caller-owned
/// gradient tensor (resized in place; allocation-free once warm).
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn avg_pool_global_backward_into(grad_out: &Tensor, input_shape: &[usize], gx: &mut Tensor) {
    assert_eq!(input_shape.len(), 4, "input shape must be [n,c,h,w]");
    let (n, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    assert_eq!(grad_out.shape(), &[n, c], "grad_out must be [n,c]");
    let area = (h * w) as f32;
    gx.resize_for_overwrite(input_shape);
    let gd = gx.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let g = grad_out.data()[ni * c + ci] / area;
            let base = (ni * c + ci) * h * w;
            for v in &mut gd[base..base + h * w] {
                *v = g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_pool(rt: &Runtime, x: &Tensor) -> (Tensor, Vec<usize>) {
        let (mut out, mut arg) = (Tensor::default(), Vec::new());
        max_pool2x2_into_rt(rt, x, &mut out, &mut arg);
        (out, arg)
    }

    fn max_pool_backward(g: &Tensor, arg: &[usize], shape: &[usize]) -> Tensor {
        let mut gx = Tensor::default();
        max_pool2x2_backward_into(g, arg, shape, &mut gx);
        gx
    }

    fn avg_pool(rt: &Runtime, x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        avg_pool_global_into_rt(rt, x, &mut out);
        out
    }

    #[test]
    fn max_pool_forward() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        );
        let (y, arg) = max_pool(&Runtime::sequential(), &x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let (_, arg) = max_pool(&Runtime::sequential(), &x);
        let g = Tensor::from_vec(vec![2.5], &[1, 1, 1, 1]);
        let gx = max_pool_backward(&g, &arg, &[1, 1, 2, 2]);
        assert_eq!(gx.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_drops_odd_edges() {
        let x = Tensor::zeros(&[1, 1, 5, 3]);
        let (y, _) = max_pool(&Runtime::sequential(), &x);
        assert_eq!(y.shape(), &[1, 1, 2, 1]);
    }

    #[test]
    fn avg_pool_forward_and_backward() {
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
            &[1, 2, 2, 2],
        );
        let y = avg_pool(&Runtime::sequential(), &x);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 10.0]);
        let g = Tensor::from_vec(vec![4.0, 8.0], &[1, 2]);
        let mut gx = Tensor::default();
        avg_pool_global_backward_into(&g, &[1, 2, 2, 2], &mut gx);
        assert_eq!(gx.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pool_rt_variants_are_bit_identical() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let x = Tensor::from_vec(
            (0..3 * 4 * 6 * 6)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
            &[3, 4, 6, 6],
        );
        let (seq_y, seq_arg) = max_pool(&Runtime::sequential(), &x);
        let seq_avg = avg_pool(&Runtime::sequential(), &x);
        for threads in [1usize, 2, 5, 64] {
            let rt = Runtime::exact(threads).with_min_work(0);
            let (y, arg) = max_pool(&rt, &x);
            assert_eq!(y.data(), seq_y.data(), "maxpool threads={threads}");
            assert_eq!(arg, seq_arg, "argmax threads={threads}");
            let avg = avg_pool(&rt, &x);
            assert_eq!(avg.data(), seq_avg.data(), "avgpool threads={threads}");
        }
    }

    #[test]
    fn pooling_gradient_check() {
        // Sum-of-output as loss: gradient wrt input of maxpool is an
        // indicator of argmax positions.
        let x = Tensor::from_vec(vec![0.1, 0.9, 0.4, 0.3], &[1, 1, 2, 2]);
        let (y, arg) = max_pool(&Runtime::sequential(), &x);
        let g = Tensor::ones(y.shape());
        let gx = max_pool_backward(&g, &arg, x.shape());
        assert_eq!(gx.data(), &[0.0, 1.0, 0.0, 0.0]);
    }
}

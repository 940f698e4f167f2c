//! im2col / col2im transforms used to express convolution as matmul.
//!
//! Two layouts exist: the classic per-sample `[col_rows, col_cols]` matrix,
//! and the *batched* layout `[col_rows, n · col_cols]` where sample `i`'s
//! columns occupy the contiguous column slice `i·cc..(i+1)·cc` of every row.
//! The batched layout lets one whole-batch GEMM replace a per-sample loop
//! without changing any per-output-element accumulation order (the GEMM `k`
//! dimension — `col_rows` — is untouched by batching).
//!
//! No layer runs on these any more: `Conv2d` executes on the two direct
//! engines ([`crate::dconv_forward_rt`], [`crate::spconv_forward_rt`]), and
//! this route — im2col, a GEMM or CSR product, col2im — is the oracle their
//! tests pin them against, bit for bit: sequential only, and reached through
//! [`crate::oracle`]. [`ConvGeom`] is the one thing here the engines share.

/// Geometry of a 2-D convolution over a single sample.
///
/// The same geometry object drives the forward im2col, the backward
/// col2im, and the analytic FLOPs accounting in `ft-metrics`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (same in both dims).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height after the convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_h(&self) -> usize {
        checked_out(self.in_h, self.kernel, self.stride, self.pad)
    }

    /// Output width after the convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_w(&self) -> usize {
        checked_out(self.in_w, self.kernel, self.stride, self.pad)
    }

    /// Rows of the im2col matrix: `in_c * kernel * kernel`.
    pub fn col_rows(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Columns of the im2col matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

fn checked_out(dim: usize, k: usize, s: usize, p: usize) -> usize {
    let padded = dim + 2 * p;
    assert!(
        padded >= k && s > 0,
        "kernel {k} with stride {s} does not fit input dim {dim} (pad {p})"
    );
    (padded - k) / s + 1
}

/// Unfolds one sample `x` of shape `[in_c, in_h, in_w]` (given as a flat
/// slice) into a `[col_rows, col_cols]` matrix written into `out` — the
/// batched layout at `n = 1`.
///
/// Padding positions contribute zeros.
///
/// # Panics
///
/// Panics if slice lengths do not match the geometry.
pub fn im2col(x: &[f32], g: &ConvGeom, out: &mut [f32]) {
    im2col_batched(x, 1, g, out);
}

/// Decodes a column-matrix row index into its `(channel, kh, kw)` tap.
#[inline]
fn decode_tap(g: &ConvGeom, row: usize) -> (usize, usize, usize) {
    let taps = g.kernel * g.kernel;
    (row / taps, (row % taps) / g.kernel, row % g.kernel)
}

/// Writes one sample's full `col_cols` span for the tap `(kh, kw)` of
/// `plane` into `dst`.
///
/// For the ubiquitous `stride == 1` case each output row is a contiguous
/// input run flanked by padding zeros, so the inner loop becomes one
/// `copy_from_slice` plus two fills — every element is the same pure copy
/// (or structural zero) the scalar loop writes, just written faster.
#[inline]
fn fill_tap(
    plane: &[f32],
    g: &ConvGeom,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
    dst: &mut [f32],
) {
    if g.stride == 1 {
        // ox + kw - pad must land in [0, in_w): zeros before `lead`, a
        // contiguous copy until `hi`, zeros after.
        let lead = g.pad.saturating_sub(kw).min(ow);
        let hi = (g.in_w + g.pad).saturating_sub(kw).min(ow);
        let ix0 = (kw + lead).saturating_sub(g.pad);
        for oy in 0..oh {
            let row = &mut dst[oy * ow..(oy + 1) * ow];
            let iy = (oy + kh) as isize - g.pad as isize;
            if iy < 0 || iy as usize >= g.in_h {
                row.fill(0.0);
                continue;
            }
            row[..lead].fill(0.0);
            if hi > lead {
                row[lead..hi].copy_from_slice(&plane[iy as usize * g.in_w + ix0..][..hi - lead]);
            }
            row[hi..].fill(0.0);
        }
        return;
    }
    let mut idx = 0usize;
    for oy in 0..oh {
        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
        for ox in 0..ow {
            let ix = (ox * g.stride + kw) as isize - g.pad as isize;
            dst[idx] = if iy >= 0 && (iy as usize) < g.in_h && ix >= 0 && (ix as usize) < g.in_w {
                plane[iy as usize * g.in_w + ix as usize]
            } else {
                0.0
            };
            idx += 1;
        }
    }
}

/// Unfolds a whole batch `x` of shape `[n, in_c, in_h, in_w]` (flat) into
/// the batched column layout `[col_rows, n · col_cols]`: sample `i`'s
/// per-sample im2col matrix occupies the column slice `i·cc..(i+1)·cc` of
/// every row. Each output element is a pure copy (or structural zero), so
/// the batched matrix is byte-identical to `n` per-sample [`im2col`] calls.
///
/// # Panics
///
/// Panics if slice lengths do not match the geometry.
pub fn im2col_batched(x: &[f32], n: usize, g: &ConvGeom, out: &mut [f32]) {
    check_im2col_batched(x, n, g, out);
    let (oh, ow) = (g.out_h(), g.out_w());
    let cc = oh * ow;
    let plane_len = g.in_h * g.in_w;
    let sample_len = g.in_c * plane_len;
    // Tap rows `(c, kh, kw)` in lexicographic order.
    for row in 0..g.col_rows() {
        let (c, kh, kw) = decode_tap(g, row);
        let dst_row = &mut out[row * n * cc..(row + 1) * n * cc];
        for i in 0..n {
            let plane = &x[i * sample_len + c * plane_len..][..plane_len];
            fill_tap(plane, g, oh, ow, kh, kw, &mut dst_row[i * cc..(i + 1) * cc]);
        }
    }
}

fn check_im2col_batched(x: &[f32], n: usize, g: &ConvGeom, out: &[f32]) {
    assert_eq!(
        x.len(),
        n * g.in_c * g.in_h * g.in_w,
        "im2col_batched input length mismatch"
    );
    assert_eq!(
        out.len(),
        g.col_rows() * n * g.col_cols(),
        "im2col_batched output length mismatch"
    );
}

/// Folds a `[col_rows, col_cols]` matrix back into the input layout,
/// *accumulating* overlapping contributions into `out` (shape
/// `[in_c, in_h, in_w]` flat). This is the adjoint of [`im2col`] and is used
/// for the convolution input gradient.
///
/// # Panics
///
/// Panics if slice lengths do not match the geometry.
pub fn col2im(col: &[f32], g: &ConvGeom, out: &mut [f32]) {
    assert_eq!(
        col.len(),
        g.col_rows() * g.col_cols(),
        "col2im input length mismatch"
    );
    col2im_ld(col, g.col_cols(), g, out);
}

/// [`col2im`] over a column matrix with row stride `ld ≥ col_cols`: row `r`
/// occupies `col[r·ld..r·ld + col_cols]`. This folds one sample's slice out
/// of a batched `[col_rows, n · col_cols]` gradient matrix (pass
/// `ld = n · col_cols` and the slice starting at that sample's first
/// column) without copying it into a per-sample buffer first. The
/// accumulation order over taps is identical to [`col2im`].
///
/// # Panics
///
/// Panics if slice lengths do not match the geometry and stride.
pub fn col2im_ld(col: &[f32], ld: usize, g: &ConvGeom, out: &mut [f32]) {
    assert_eq!(
        out.len(),
        g.in_c * g.in_h * g.in_w,
        "col2im output length mismatch"
    );
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = oh * ow;
    assert!(ld >= cols, "col2im_ld stride {ld} < col_cols {cols}");
    assert!(
        col.len() >= (g.col_rows() - 1) * ld + cols,
        "col2im_ld input too short"
    );
    let mut row = 0usize;
    for c in 0..g.in_c {
        let base = c * g.in_h * g.in_w;
        for kh in 0..g.kernel {
            for kw in 0..g.kernel {
                let src = &col[row * ld..row * ld + cols];
                if g.stride == 1 {
                    // Contiguous accumulate runs, mirroring `fill_tap`'s
                    // window: each in-bounds output row receives one
                    // `out[ix0..] += src[lead..hi]` sweep. Every target
                    // element takes the same single add per tap row, in the
                    // same ascending-`ox` order, as the scalar loop.
                    let lead = g.pad.saturating_sub(kw).min(ow);
                    let hi = (g.in_w + g.pad).saturating_sub(kw).min(ow);
                    let ix0 = (kw + lead).saturating_sub(g.pad);
                    for oy in 0..oh {
                        let iy = (oy + kh) as isize - g.pad as isize;
                        if iy < 0 || iy as usize >= g.in_h || hi <= lead {
                            continue;
                        }
                        let dst = &mut out[base + iy as usize * g.in_w + ix0..][..hi - lead];
                        for (d, &v) in dst.iter_mut().zip(&src[oy * ow + lead..oy * ow + hi]) {
                            *d += v;
                        }
                    }
                    row += 1;
                    continue;
                }
                let mut idx = 0usize;
                for oy in 0..oh {
                    let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                        if iy >= 0 && (iy as usize) < g.in_h && ix >= 0 && (ix as usize) < g.in_w {
                            out[base + iy as usize * g.in_w + ix as usize] += src[idx];
                        }
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_close, Tensor};
    use rand::{Rng, SeedableRng};

    /// Reference direct convolution of one sample, the nested loops im2col +
    /// matmul must agree with. `w` has shape `[out_c, in_c, k, k]` flat.
    fn conv2d_direct(x: &[f32], w: &[f32], g: &ConvGeom, out_c: usize) -> Tensor {
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = Tensor::zeros(&[out_c, oh, ow]);
        let od = out.data_mut();
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ic in 0..g.in_c {
                        for kh in 0..g.kernel {
                            for kw in 0..g.kernel {
                                let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                                let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                                if iy >= 0
                                    && (iy as usize) < g.in_h
                                    && ix >= 0
                                    && (ix as usize) < g.in_w
                                {
                                    let xv = x[(ic * g.in_h + iy as usize) * g.in_w + ix as usize];
                                    let wv =
                                        w[((oc * g.in_c + ic) * g.kernel + kh) * g.kernel + kw];
                                    acc += xv * wv;
                                }
                            }
                        }
                    }
                    od[(oc * oh + oy) * ow + ox] = acc;
                }
            }
        }
        out
    }

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn geometry() {
        let g = ConvGeom {
            in_c: 3,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(g.out_h(), 8);
        assert_eq!(g.out_w(), 8);
        assert_eq!(g.col_rows(), 27);
        assert_eq!(g.col_cols(), 64);
        let g2 = ConvGeom {
            in_c: 1,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        assert_eq!(g2.out_h(), 4);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn geometry_rejects_oversized_kernel() {
        let g = ConvGeom {
            in_c: 1,
            in_h: 2,
            in_w: 2,
            kernel: 5,
            stride: 1,
            pad: 0,
        };
        let _ = g.out_h();
    }

    #[test]
    fn im2col_matmul_matches_direct_conv() {
        for (stride, pad) in [(1, 1), (2, 1), (1, 0)] {
            let g = ConvGeom {
                in_c: 3,
                in_h: 7,
                in_w: 6,
                kernel: 3,
                stride,
                pad,
            };
            let out_c = 4;
            let x = rand_vec(g.in_c * g.in_h * g.in_w, 10 + stride as u64);
            let w = rand_vec(out_c * g.col_rows(), 20 + pad as u64);
            let mut col = vec![0.0; g.col_rows() * g.col_cols()];
            im2col(&x, &g, &mut col);
            let wt = Tensor::from_vec(w.clone(), &[out_c, g.col_rows()]);
            let colt = Tensor::from_vec(col, &[g.col_rows(), g.col_cols()]);
            let got = wt.matmul(&colt);
            let expect = conv2d_direct(&x, &w, &g, out_c);
            assert_close(got.data(), expect.data(), 1e-4);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        let g = ConvGeom {
            in_c: 2,
            in_h: 5,
            in_w: 5,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let x = rand_vec(g.in_c * g.in_h * g.in_w, 33);
        let y = rand_vec(g.col_rows() * g.col_cols(), 44);
        let mut cx = vec![0.0; y.len()];
        im2col(&x, &g, &mut cx);
        let lhs: f32 = cx.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let mut xy = vec![0.0; x.len()];
        col2im(&y, &g, &mut xy);
        let rhs: f32 = x.iter().zip(xy.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// The batched layout must be byte-identical to per-sample im2col calls
    /// interleaved into the `[cr, n·cc]` layout — the property that makes
    /// whole-batch GEMMs trace-compatible with the per-sample loop.
    #[test]
    fn batched_matches_per_sample_exactly() {
        for (n, stride, pad) in [(1usize, 1, 1), (2, 2, 1), (7, 1, 0)] {
            let g = ConvGeom {
                in_c: 3,
                in_h: 7,
                in_w: 5,
                kernel: 3,
                stride,
                pad,
            };
            let (cr, cc) = (g.col_rows(), g.col_cols());
            let sample = g.in_c * g.in_h * g.in_w;
            let x = rand_vec(n * sample, 70 + n as u64);
            let mut expect = vec![0.0f32; cr * n * cc];
            let mut one = vec![0.0f32; cr * cc];
            for i in 0..n {
                im2col(&x[i * sample..(i + 1) * sample], &g, &mut one);
                for r in 0..cr {
                    expect[r * n * cc + i * cc..][..cc].copy_from_slice(&one[r * cc..][..cc]);
                }
            }
            let mut got = vec![1.0f32; cr * n * cc]; // overwritten, not accumulated
            im2col_batched(&x, n, &g, &mut got);
            assert_eq!(got, expect, "n={n} stride={stride} pad={pad}");
        }
    }

    /// Folding a sample's slice of a batched gradient with `col2im_ld` must
    /// be bit-identical to copying the slice out and running plain col2im.
    #[test]
    fn col2im_ld_matches_materialized_slice() {
        let g = ConvGeom {
            in_c: 2,
            in_h: 6,
            in_w: 5,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let n = 3usize;
        let (cr, cc) = (g.col_rows(), g.col_cols());
        let batched = rand_vec(cr * n * cc, 81);
        for i in 0..n {
            let mut slice = vec![0.0f32; cr * cc];
            for r in 0..cr {
                slice[r * cc..][..cc].copy_from_slice(&batched[r * n * cc + i * cc..][..cc]);
            }
            let mut expect = vec![0.25f32; g.in_c * g.in_h * g.in_w];
            col2im(&slice, &g, &mut expect);
            let mut got = vec![0.25f32; g.in_c * g.in_h * g.in_w];
            col2im_ld(&batched[i * cc..], n * cc, &g, &mut got);
            assert_eq!(got, expect, "sample {i}");
        }
    }

    #[test]
    fn col2im_accumulates() {
        let g = ConvGeom {
            in_c: 1,
            in_h: 3,
            in_w: 3,
            kernel: 3,
            stride: 1,
            pad: 0,
        };
        let col = vec![1.0; 9];
        let mut out = vec![5.0; 9];
        col2im(&col, &g, &mut out);
        assert_eq!(out, vec![6.0; 9]);
    }
}

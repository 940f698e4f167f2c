//! The kernels' two families and their one entry point.
//!
//! The dense GEMM's microkernel ([`crate::matmul`]), the direct convolutions
//! ([`crate::spconv`], [`crate::dconv`]), the batch-norm kernels
//! ([`crate::bn`]), pooling, the residual add and the rank rules' column
//! sort ([`crate::rank`]) are written once over
//! [`Lanes`] — eight `f32` lanes and the arithmetic of one kernel family —
//! and instantiated per family: the portable [`Lane`], and `Ymm` on `__m256`
//! when the crate's `simd` feature is on and the target is x86-64.
//!
//! A kernel is a [`LaneJob`]: its operands, plus a body generic over the
//! family. This module is the only place that picks the family:
//! [`simd_active`] detects AVX2+FMA once per process, and [`run_lanes`]
//! reads it per job and, when it holds, runs the body inside the crate's one
//! `target_feature(enable = "avx2,fma")` function.
//! Everything a body calls is `#[inline(always)]`, so the AVX2 family exists
//! only as code inlined there (a vector crossing a call into code compiled
//! without AVX2 goes through memory).

/// Lanes per vector (one AVX2 register of `f32`): samples in the
/// convolutions, columns in the GEMM. Results do not depend on it: a lane
/// never reads another lane.
pub(crate) const LANES: usize = 8;

/// One value per sample of a group.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, align(32))]
pub(crate) struct Lane(pub(crate) [f32; LANES]);

pub(crate) const ZERO: Lane = Lane([0.0; LANES]);

/// Eight `f32` lanes and the arithmetic of one kernel family.
pub(crate) trait Lanes: Copy {
    fn splat(v: f32) -> Self;
    fn load(src: &[f32; LANES]) -> Self;
    fn store(self, dst: &mut [f32; LANES]);
    fn add(self, rhs: Self) -> Self;
    fn sub(self, rhs: Self) -> Self;
    fn mul(self, rhs: Self) -> Self;
    /// `self + v·x` as this family's GEMM and forward passes round it: fused
    /// in the AVX2+FMA family, mul-then-add in the portable one — the rule
    /// [`crate::oracle::spmm_into`] follows.
    fn axpy(self, v: Self, x: Self) -> Self;
    /// `out[k][l] = rows[l][k]`.
    fn transpose(rows: [Self; LANES]) -> [Self; LANES];
    /// `self > 0 ? self : +0.0` per lane — `f32::max(self, 0.0)`, whose
    /// x86-64 lowering is exactly this (a NaN or a `−0.0` gives `+0.0`).
    fn relu(self) -> Self;
    /// All-ones bits where `self > rhs`, zero bits elsewhere (NaN compares
    /// false): a mask for [`Lanes::and`] and [`Lanes::select`].
    fn gt(self, rhs: Self) -> Self;
    /// All-ones bits where `self == rhs`, zero bits elsewhere.
    fn eq(self, rhs: Self) -> Self;
    /// `self` where `mask` is all ones, `+0.0` where it is zero.
    fn and(self, mask: Self) -> Self;
    /// `a` where `mask` is all ones, `b` where it is zero.
    fn select(mask: Self, a: Self, b: Self) -> Self;
    /// Per lane, the integer key `f32::total_cmp` orders by, in the lane's
    /// bits: the sign bit kept and the other 31 flipped on a negative value,
    /// read as `i32`. Its own inverse.
    fn total_key(self) -> Self;
    /// Per lane, the smaller of two keys read as `i32`.
    fn key_min(self, rhs: Self) -> Self;
    /// Per lane, the larger of two keys read as `i32`.
    fn key_max(self, rhs: Self) -> Self;
}

/// The bits of `v` read as `i32`, and back.
#[inline(always)]
fn as_i32(v: f32) -> i32 {
    v.to_bits() as i32
}
#[inline(always)]
fn from_i32(k: i32) -> f32 {
    f32::from_bits(k as u32)
}

/// Whether the AVX2+FMA family runs in this process: the one switch every
/// kernel in this crate reads. Detected once; it depends only on the CPU, so
/// a process makes the same choice for every shape and thread count.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn simd_active() -> bool {
    static ACTIVE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

/// Without the `simd` feature, or off x86-64, only the portable family
/// exists.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub(crate) fn simd_active() -> bool {
    false
}

/// The bits of a set mask lane.
pub(crate) const ALL_ONES: f32 = f32::from_bits(u32::MAX);

/// All-ones in the first `live` lanes, zero bits in the rest: the mask
/// that keeps a group's dead lanes `+0.0`.
#[inline(always)]
pub(crate) fn live_mask<V: Lanes>(live: usize) -> V {
    V::load(&std::array::from_fn(
        |l| if l < live { ALL_ONES } else { 0.0 },
    ))
}

/// A lane kernel: its operands, and its body written once over the family.
/// [`run_lanes`] runs it; `run` and everything it calls must be
/// `#[inline(always)]` to be compiled for the AVX2 family.
pub(crate) trait LaneJob {
    fn run<V: Lanes>(self);
}

/// Runs `job` on the AVX2+FMA family when [`simd_active`], on the portable
/// family otherwise.
#[inline]
pub(crate) fn run_lanes(job: impl LaneJob) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        #[target_feature(enable = "avx2,fma")]
        fn on_avx2(job: impl LaneJob) {
            job.run::<avx::Ymm>()
        }
        // SAFETY: `simd_active` verified avx2+fma at runtime.
        return unsafe { on_avx2(job) };
    }
    job.run::<Lane>()
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
    #[inline(always)]
    fn relu(self) -> Self {
        Lane(self.0.map(|v| if v > 0.0 { v } else { 0.0 }))
    }
    #[inline(always)]
    fn gt(self, rhs: Self) -> Self {
        Lane(std::array::from_fn(|l| {
            if self.0[l] > rhs.0[l] {
                ALL_ONES
            } else {
                0.0
            }
        }))
    }
    #[inline(always)]
    fn eq(self, rhs: Self) -> Self {
        Lane(std::array::from_fn(|l| {
            if self.0[l] == rhs.0[l] {
                ALL_ONES
            } else {
                0.0
            }
        }))
    }
    #[inline(always)]
    fn and(self, mask: Self) -> Self {
        Lane(std::array::from_fn(|l| {
            f32::from_bits(self.0[l].to_bits() & mask.0[l].to_bits())
        }))
    }
    #[inline(always)]
    fn select(mask: Self, a: Self, b: Self) -> Self {
        Lane(std::array::from_fn(|l| {
            if mask.0[l].to_bits() != 0 {
                a.0[l]
            } else {
                b.0[l]
            }
        }))
    }
    #[inline(always)]
    fn total_key(self) -> Self {
        Lane(std::array::from_fn(|l| {
            let k = as_i32(self.0[l]);
            from_i32(k ^ (((k >> 31) as u32) >> 1) as i32)
        }))
    }
    #[inline(always)]
    fn key_min(self, rhs: Self) -> Self {
        Lane(std::array::from_fn(|l| {
            from_i32(as_i32(self.0[l]).min(as_i32(rhs.0[l])))
        }))
    }
    #[inline(always)]
    fn key_max(self, rhs: Self) -> Self {
        Lane(std::array::from_fn(|l| {
            from_i32(as_i32(self.0[l]).max(as_i32(rhs.0[l])))
        }))
    }
}

/// The AVX2+FMA family: the same kernels on `__m256`. Only `axpy` — the
/// GEMM and the convolutions' forward passes — fuses, as
/// [`crate::oracle::spmm_into`] does whenever this family runs; `add` and
/// `mul` round like the portable family's, so the other kernels gain vector
/// width and keep their bits.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx {
    use super::{Lanes, LANES};
    use std::arch::x86_64::*;

    /// `_CMP_GT_OQ` and `_CMP_EQ_OQ`: ordered, so a NaN lane compares false.
    const GT: i32 = _CMP_GT_OQ;
    const EQ: i32 = _CMP_EQ_OQ;

    #[derive(Clone, Copy)]
    pub(super) struct Ymm(__m256);

    // SAFETY (every block below): `Ymm` is private to this module and only
    // named by `run_lanes`'s AVX2 branch, which `simd_active()` guards; the
    // pointers come from `[f32; 8]` references and the accesses are the
    // unaligned forms.
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
        fn relu(self) -> Self {
            // `maxps a, b` is `a > b ? a : b`.
            Ymm(unsafe { _mm256_max_ps(self.0, _mm256_setzero_ps()) })
        }
        #[inline(always)]
        fn gt(self, rhs: Self) -> Self {
            Ymm(unsafe { _mm256_cmp_ps::<GT>(self.0, rhs.0) })
        }
        #[inline(always)]
        fn eq(self, rhs: Self) -> Self {
            Ymm(unsafe { _mm256_cmp_ps::<EQ>(self.0, rhs.0) })
        }
        #[inline(always)]
        fn and(self, mask: Self) -> Self {
            Ymm(unsafe { _mm256_and_ps(self.0, mask.0) })
        }
        #[inline(always)]
        fn select(mask: Self, a: Self, b: Self) -> Self {
            Ymm(unsafe { _mm256_blendv_ps(b.0, a.0, mask.0) })
        }
        #[inline(always)]
        fn total_key(self) -> Self {
            unsafe {
                let k = _mm256_castps_si256(self.0);
                let flip = _mm256_srli_epi32::<1>(_mm256_srai_epi32::<31>(k));
                Ymm(_mm256_castsi256_ps(_mm256_xor_si256(k, flip)))
            }
        }
        #[inline(always)]
        fn key_min(self, rhs: Self) -> Self {
            unsafe {
                let (a, b) = (_mm256_castps_si256(self.0), _mm256_castps_si256(rhs.0));
                Ymm(_mm256_castsi256_ps(_mm256_min_epi32(a, b)))
            }
        }
        #[inline(always)]
        fn key_max(self, rhs: Self) -> Self {
            unsafe {
                let (a, b) = (_mm256_castps_si256(self.0), _mm256_castps_si256(rhs.0));
                Ymm(_mm256_castsi256_ps(_mm256_max_epi32(a, b)))
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::type_name;

    /// Reports the family it ran on.
    struct Family<'a>(&'a mut &'static str);

    impl LaneJob for Family<'_> {
        fn run<V: Lanes>(self) {
            *self.0 = type_name::<V>();
        }
    }

    /// `run_lanes` picks the AVX2+FMA family exactly when `simd_active()`,
    /// and the portable one otherwise — also in a build without `simd`.
    #[test]
    fn run_lanes_picks_the_family_simd_active_names() {
        let mut ran = "";
        run_lanes(Family(&mut ran));
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if simd_active() {
            return assert_eq!(ran, type_name::<avx::Ymm>());
        }
        assert_eq!(ran, type_name::<Lane>());
    }
}

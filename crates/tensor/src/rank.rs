//! The rank rules' order statistics, eight coordinates at a time.
//!
//! A coordinate-wise trimmed mean or median sorts, per coordinate, the
//! column of the cohort's values and averages a middle range of it.
//! [`sorted_mean_into`] sorts eight columns side by side: each cohort member
//! contributes one lane vector of eight consecutive coordinates, mapped to
//! the integer key `f32::total_cmp` orders by ([`Lanes::total_key`]), and
//! Batcher's merge-exchange network (Knuth, *TAOCP* vol. 3, §5.2.2,
//! Algorithm M) — a fixed sequence of compare-exchanges that sorts any
//! number of rows — runs on the keys with lane-wise integer minima and
//! maxima. The key is a bijection, so the sorted keys map back to exactly
//! the bits `sort_unstable_by(f32::total_cmp)` leaves, NaNs of either sign
//! and signed zeros included. The kept rows are then added in `f64`, in
//! sorted order from `-0.0` as `Iterator::sum` adds, one lane per
//! coordinate.
//!
//! The per-coordinate sort this replaced is the oracle
//! ([`crate::oracle::sorted_mean_into`]), pinned `to_bits`-equal by the
//! tests.

use crate::lanes::{run_lanes, LaneJob, Lanes, LANES};
use std::ops::Range;

/// The column scratch of [`sorted_mean_into`]: one lane vector per row and
/// the network's compare-exchange list, both rebuilt only when the row
/// count changes, so a later call with as many rows allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct RankScratch {
    cols: Vec<[f32; LANES]>,
    pairs: Vec<(usize, usize)>,
}

impl RankScratch {
    /// Sizes the scratch for `n` rows.
    fn ensure(&mut self, n: usize) {
        if self.cols.len() != n {
            self.cols.resize(n, [0.0; LANES]);
            self.pairs.clear();
            merge_exchange(n, |a, b| self.pairs.push((a, b)));
        }
    }
}

/// For every coordinate `i` in `start..start + out.len()`: sorts the column
/// `rows[0][i], …, rows[n − 1][i]` by `f32::total_cmp` and writes
/// `out[i − start] = (anchor[i] as f64 + s / kept.len() as f64) as f32`,
/// where `s` adds the sorted column's `kept` entries in `f64`, in order,
/// from `-0.0`.
///
/// # Panics
///
/// Panics if `kept` is empty or reaches past `n`, or if `anchor` or a row
/// ends before `start + out.len()`.
pub fn sorted_mean_into(
    rows: &[Vec<f32>],
    anchor: &[f32],
    start: usize,
    kept: Range<usize>,
    out: &mut [f32],
    scratch: &mut RankScratch,
) {
    check(rows, anchor, start, &kept, out.len());
    scratch.ensure(rows.len());
    run_lanes(SortedMean {
        rows,
        anchor,
        start,
        kept,
        out,
        cols: &mut scratch.cols,
        pairs: &scratch.pairs,
    })
}

/// The shared argument checks of the kernel and its oracle.
fn check(rows: &[Vec<f32>], anchor: &[f32], start: usize, kept: &Range<usize>, len: usize) {
    let (n, end) = (rows.len(), start + len);
    assert!(
        kept.start < kept.end && kept.end <= n,
        "kept rows {kept:?} of a {n}-row column"
    );
    assert!(
        anchor.len() >= end && rows.iter().all(|r| r.len() >= end),
        "coordinates {start}..{end} past the anchor or a row"
    );
}

/// [`sorted_mean_into`]'s operands, `cols` one lane vector per row.
struct SortedMean<'a> {
    rows: &'a [Vec<f32>],
    anchor: &'a [f32],
    start: usize,
    kept: Range<usize>,
    out: &'a mut [f32],
    cols: &'a mut [[f32; LANES]],
    pairs: &'a [(usize, usize)],
}

impl LaneJob for SortedMean<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self) {
        let SortedMean {
            rows,
            anchor,
            start,
            kept,
            out,
            cols,
            pairs,
        } = self;
        let count = kept.len() as f64;
        for (b, out) in out.chunks_mut(LANES).enumerate() {
            let at = start + b * LANES;
            for (col, row) in cols.iter_mut().zip(rows) {
                V::load(&lanes_at(row, at)).total_key().store(col);
            }
            for &(i, j) in pairs {
                let (a, b) = (V::load(&cols[i]), V::load(&cols[j]));
                a.key_min(b).store(&mut cols[i]);
                a.key_max(b).store(&mut cols[j]);
            }
            let mut sum = [-0.0f64; LANES];
            for col in &cols[kept.clone()] {
                let mut v = [0.0f32; LANES];
                V::load(col).total_key().store(&mut v);
                for (s, &x) in sum.iter_mut().zip(&v) {
                    *s += x as f64;
                }
            }
            let w = lanes_at(anchor, at);
            let mut mean = [0.0f32; LANES];
            for l in 0..LANES {
                mean[l] = (w[l] as f64 + sum[l] / count) as f32;
            }
            match out.first_chunk_mut::<LANES>() {
                Some(out) => *out = mean,
                None => out.copy_from_slice(&mean[..out.len()]),
            }
        }
    }
}

/// The eight values of `src` from `at`, zero past its end.
#[inline(always)]
fn lanes_at(src: &[f32], at: usize) -> [f32; LANES] {
    match src[at..].first_chunk::<LANES>() {
        Some(x) => *x,
        None => {
            let mut x = [0.0; LANES];
            x[..src.len() - at].copy_from_slice(&src[at..]);
            x
        }
    }
}

/// Calls `exchange(a, b)`, `a < b`, for every compare-exchange of
/// Batcher's merge-exchange network on `n` rows, in order: after them, each
/// setting the smaller value at `a` and the larger at `b`, the rows are
/// sorted. It needs no padding to a power of two: 19 compare-exchanges sort
/// 8 rows, 63 sort 16.
fn merge_exchange(n: usize, mut exchange: impl FnMut(usize, usize)) {
    if n < 2 {
        return;
    }
    let top = 1usize << (usize::BITS - 1 - (n - 1).leading_zeros());
    let mut p = top;
    while p > 0 {
        let (mut q, mut r, mut d) = (top, 0, p);
        loop {
            for i in (0..n - d).filter(|&i| i & p == r) {
                exchange(i, i + d);
            }
            if q == p {
                break;
            }
            (d, q, r) = (q - p, q / 2, p);
        }
        p /= 2;
    }
}

pub(crate) mod oracle {
    use std::ops::Range;

    /// [`crate::sorted_mean_into`] one coordinate at a time: the column
    /// gathered into `col` and sorted with `sort_unstable_by(total_cmp)`,
    /// the kept entries added with `Iterator::sum::<f64>`.
    pub fn sorted_mean_into(
        rows: &[Vec<f32>],
        anchor: &[f32],
        start: usize,
        kept: Range<usize>,
        out: &mut [f32],
        col: &mut Vec<f32>,
    ) {
        super::check(rows, anchor, start, &kept, out.len());
        col.resize(rows.len(), 0.0);
        for (k, o) in out.iter_mut().enumerate() {
            let i = start + k;
            for (c, row) in col.iter_mut().zip(rows) {
                *c = row[i];
            }
            col.sort_unstable_by(|a, b| a.total_cmp(b));
            let kept = &col[kept.clone()];
            let mean = kept.iter().map(|&v| v as f64).sum::<f64>() / kept.len() as f64;
            *o = (anchor[i] as f64 + mean) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A value from the classes that break naive sorts and sums: signed
    /// zeros and infinities, NaNs of both signs with distinct payloads,
    /// subnormals, and ordinary floats, some repeated.
    fn hostile(rng: &mut ChaCha8Rng) -> f32 {
        let sign = rng.gen_range(0..2u32) << 31;
        let bits = match rng.gen_range(0..6u32) {
            0 => 0,
            1 => 0x7f80_0000,
            2 => 0x7f80_0000 | rng.gen_range(1..0x80_0000u32),
            3 => rng.gen_range(1..0x80_0000u32),
            4 => [1.0f32, 0.5, 3.25][rng.gen_range(0..3usize)].to_bits(),
            _ => rng.gen_range(-1e3f32..1e3).abs().to_bits(),
        };
        f32::from_bits(bits | sign)
    }

    /// Sorts whole key columns through [`merge_exchange`]'s pairs on the
    /// family `run_lanes` picks.
    struct Network<'a>(&'a mut [[f32; LANES]], &'a [(usize, usize)]);

    impl LaneJob for Network<'_> {
        #[inline(always)]
        fn run<V: Lanes>(self) {
            let Network(keys, pairs) = self;
            for k in keys.iter_mut() {
                V::load(k).total_key().store(k);
            }
            for &(i, j) in pairs {
                let (a, b) = (V::load(&keys[i]), V::load(&keys[j]));
                a.key_min(b).store(&mut keys[i]);
                a.key_max(b).store(&mut keys[j]);
            }
            for k in keys.iter_mut() {
                V::load(k).total_key().store(k);
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The network leaves every lane's column in exactly the bits
    /// `sort_unstable_by(total_cmp)` does, for every row count from 1 to
    /// 40.
    #[test]
    fn merge_exchange_sorts_like_total_cmp() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in 1..=40usize {
            let mut keys: Vec<[f32; LANES]> = (0..n)
                .map(|_| std::array::from_fn(|_| hostile(&mut rng)))
                .collect();
            let mut want: Vec<Vec<f32>> = (0..LANES)
                .map(|l| keys.iter().map(|k| k[l]).collect())
                .collect();
            let mut pairs = Vec::new();
            merge_exchange(n, |a, b| pairs.push((a, b)));
            // Batcher's counts (Knuth, §5.3.4).
            let counts = [
                (2, 1),
                (3, 3),
                (4, 5),
                (5, 9),
                (6, 12),
                (7, 16),
                (8, 19),
                (16, 63),
            ];
            if let Some(&(_, count)) = counts.iter().find(|&&(m, _)| m == n) {
                assert_eq!(pairs.len(), count, "{n} rows");
            }
            run_lanes(Network(&mut keys, &pairs));
            for (l, want) in want.iter_mut().enumerate() {
                want.sort_unstable_by(|a, b| a.total_cmp(b));
                let got: Vec<f32> = keys.iter().map(|k| k[l]).collect();
                assert_eq!(bits(&got), bits(want), "n = {n}, lane {l}");
            }
        }
    }

    /// The network and the per-coordinate sort agree bit for bit for every
    /// cohort size from 1 to 40, every kept range a trimmed mean or a
    /// median takes, and coordinate counts and offsets that are not
    /// multiples of eight — on both families when AVX2 runs. One exception
    /// is IEEE 754's: where two or more NaNs meet in a coordinate's sum
    /// (among its kept entries and its anchor, counting `∞ − ∞` as one), the
    /// result is a NaN whose payload is one of theirs, unspecified which —
    /// the compiler may commute an addition — so there both sides need only
    /// be NaN.
    #[test]
    fn sorted_mean_matches_the_per_coordinate_sort() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (mut scratch, mut col) = (RankScratch::default(), Vec::new());
        for n in 1..=40usize {
            let len = rng.gen_range(1..60);
            let rows: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..len).map(|_| hostile(&mut rng)).collect())
                .collect();
            let anchor: Vec<f32> = (0..len).map(|_| hostile(&mut rng)).collect();
            for t in [0, n / 8, (n - 1) / 2] {
                let start = rng.gen_range(0..len);
                let kept = t..n - t;
                let mut got = vec![0.0f32; len - start];
                let mut want = got.clone();
                sorted_mean_into(&rows, &anchor, start, kept.clone(), &mut got, &mut scratch);
                oracle::sorted_mean_into(&rows, &anchor, start, kept.clone(), &mut want, &mut col);
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    let i = start + k;
                    let mut column: Vec<f32> = rows.iter().map(|r| r[i]).collect();
                    column.sort_unstable_by(|a, b| a.total_cmp(b));
                    let terms: Vec<f32> = column[kept.clone()]
                        .iter()
                        .chain([&anchor[i]])
                        .copied()
                        .collect();
                    let made = terms.contains(&f32::INFINITY) && terms.contains(&f32::NEG_INFINITY);
                    let nans = terms.iter().filter(|v| v.is_nan()).count() + usize::from(made);
                    let open = nans >= 2;
                    assert!(
                        g.to_bits() == w.to_bits() || (open && g.is_nan() && w.is_nan()),
                        "n = {n}, t = {t}, coordinate {i}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }
}

//! Mask constructors: magnitude pruning, random pruning, and the
//! uniform-noise layer-wise density vectors used for candidate-pool
//! generation (Sec. IV-A2).

use crate::{Mask, SparseLayout};
use rand::seq::SliceRandom;
use rand::Rng;

/// Number of weights kept in a layer of `len` weights at density `d`.
///
/// Uses `ceil` so any strictly positive density keeps at least one weight —
/// a fully disconnected layer would make the loss undefined rather than
/// merely bad.
fn keep_count(len: usize, d: f32) -> usize {
    if len == 0 || d <= 0.0 {
        return 0;
    }
    // f32→f64 widening makes e.g. 0.4 * 5 come out as 2.0000000298; snap to
    // the nearest integer when within tolerance before taking the ceiling.
    let x = d as f64 * len as f64;
    let snapped = if (x - x.round()).abs() < 1e-6 {
        x.round()
    } else {
        x.ceil()
    };
    (snapped as usize).min(len)
}

/// A density vector assigning the same density to every layer.
pub fn uniform_density_vector(layout: &SparseLayout, density: f32) -> Vec<f32> {
    vec![density.clamp(0.0, 1.0); layout.num_layers()]
}

/// Samples a layer-wise density vector `d_l = d_target + e_l` with
/// `e_l ~ U(-spread·d_target, +spread·d_target)`, accepted only when the
/// size-weighted total density does not exceed `d_target` (the paper's
/// Uniform Noise candidate strategy). After `max_tries` rejections the last
/// sample is rescaled to satisfy the constraint, so the function always
/// terminates.
///
/// # Panics
///
/// Panics if `d_target` is not in `(0, 1]` or `spread` is negative.
pub fn noisy_density_vector<R: Rng + ?Sized>(
    rng: &mut R,
    layout: &SparseLayout,
    d_target: f32,
    spread: f32,
) -> Vec<f32> {
    assert!(
        d_target > 0.0 && d_target <= 1.0,
        "target density must be in (0,1], got {d_target}"
    );
    assert!(spread >= 0.0, "noise spread must be non-negative");
    let lens = layout.lens();
    let total: usize = lens.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let max_tries = 32;
    let mut last = Vec::new();
    for _ in 0..max_tries {
        let d: Vec<f32> = lens
            .iter()
            .map(|_| {
                let e = if spread > 0.0 {
                    rng.gen_range(-spread * d_target..spread * d_target)
                } else {
                    0.0
                };
                (d_target + e).clamp(0.0, 1.0)
            })
            .collect();
        let overall = overall_density(&d, &lens);
        if overall <= d_target {
            return d;
        }
        last = d;
    }
    // Rescale the final rejected sample to meet the budget exactly.
    let overall = overall_density(&last, &lens);
    let scale = d_target / overall;
    last.iter_mut()
        .for_each(|d| *d = (*d * scale).clamp(0.0, 1.0));
    last
}

/// Size-weighted overall density of a layer-wise density vector.
pub fn overall_density(densities: &[f32], lens: &[usize]) -> f32 {
    let total: usize = lens.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let kept: f32 = densities
        .iter()
        .zip(lens.iter())
        .map(|(&d, &n)| d * n as f32)
        .sum();
    kept / total as f32
}

/// Magnitude-prunes each layer to its own density: keeps the
/// `ceil(d_l · n_l)` weights with the largest `|w|` per layer. The
/// one-vector case of [`magnitude_masks`], and ranked by its rule.
///
/// # Panics
///
/// Panics if the number of weight buffers or densities mismatches the
/// layout, or any buffer length differs from its spec.
pub fn magnitude_mask(layout: &SparseLayout, weights: &[&[f32]], densities: &[f32]) -> Mask {
    magnitude_masks(layout, weights, &[densities])
        .pop()
        .expect("one density vector, one mask")
}

/// One magnitude mask per density vector over the same weights — a
/// selection candidate pool — ranking every layer **once**: a layer's
/// coordinates are ordered by `|w|` descending (`total_cmp`), equal
/// magnitudes by ascending index, non-finite values left out, as deep as
/// the largest keep count any vector asks of that layer; each mask then
/// keeps a prefix of that one ranking. So which of two equal magnitudes at a
/// cut survives is a rule (the lowest index), the same in every mask, and
/// `k` masks cost one partial sort per layer instead of `k`.
///
/// A layer with fewer finite weights than its keep count keeps them all and
/// nothing else.
///
/// # Panics
///
/// Panics if the number of weight buffers, or the length of any density
/// vector, mismatches the layout, or any buffer length differs from its
/// spec.
pub fn magnitude_masks<D: AsRef<[f32]>>(
    layout: &SparseLayout,
    weights: &[&[f32]],
    densities: &[D],
) -> Vec<Mask> {
    assert_eq!(
        weights.len(),
        layout.num_layers(),
        "weights/layout layer count mismatch"
    );
    for d in densities {
        assert_eq!(
            d.as_ref().len(),
            layout.num_layers(),
            "densities/layout layer count mismatch"
        );
    }
    let mut masks: Vec<Vec<Vec<bool>>> = densities
        .iter()
        .map(|_| Vec::with_capacity(weights.len()))
        .collect();
    let mut ranked = Vec::new();
    for (l, &w) in weights.iter().enumerate() {
        assert_eq!(
            w.len(),
            layout.layer(l).len,
            "weight buffer length mismatch at layer {l}"
        );
        let keeps: Vec<usize> = densities
            .iter()
            .map(|d| keep_count(w.len(), d.as_ref()[l]))
            .collect();
        rank_by_magnitude(w, keeps.iter().copied().max().unwrap_or(0), &mut ranked);
        for (layers, &keep) in masks.iter_mut().zip(&keeps) {
            let mut m = vec![false; w.len()];
            for &key in &ranked[..keep.min(ranked.len())] {
                m[(key & INDEX_BITS) as usize] = true;
            }
            layers.push(m);
        }
    }
    masks.into_iter().map(Mask::from_layers).collect()
}

/// Low half of a ranking key: the coordinate's index.
const INDEX_BITS: u64 = u32::MAX as u64;

/// Fills `ranked` with the first `depth` coordinates of `w` in ranking
/// order, as keys `(!|w|.to_bits(), index)` packed high to low. For finite
/// values the bit pattern of `|w|` orders exactly like `total_cmp`, so
/// ascending keys are descending magnitudes, then ascending indices — and no
/// two keys are equal, so the unstable partition and sort are deterministic.
fn rank_by_magnitude(w: &[f32], depth: usize, ranked: &mut Vec<u64>) {
    assert!(
        w.len() as u64 <= INDEX_BITS,
        "layer too large to rank: {} weights",
        w.len()
    );
    ranked.clear();
    if depth == 0 {
        return;
    }
    ranked.extend(
        w.iter()
            .enumerate()
            .filter(|(_, v)| v.is_finite())
            .map(|(i, v)| (u64::from(!v.abs().to_bits()) << 32) | i as u64),
    );
    if depth < ranked.len() {
        ranked.select_nth_unstable(depth - 1);
        ranked.truncate(depth);
    }
    ranked.sort_unstable();
}

/// Magnitude-prunes *globally*: keeps the `ceil(d · N)` weights with the
/// largest `|w|` across all layers together ([`global_topk_mask`] over
/// `|w|`). Used by LotteryFL-style iterative magnitude pruning.
///
/// # Panics
///
/// Panics on layout/buffer mismatches (see [`magnitude_mask`]).
pub fn magnitude_mask_global(layout: &SparseLayout, weights: &[&[f32]], density: f32) -> Mask {
    assert_eq!(
        weights.len(),
        layout.num_layers(),
        "weights/layout layer count mismatch"
    );
    for (l, w) in weights.iter().enumerate() {
        assert_eq!(
            w.len(),
            layout.layer(l).len,
            "weight buffer length mismatch at layer {l}"
        );
    }
    let scores: Vec<f32> = weights
        .iter()
        .flat_map(|w| w.iter().map(|v| v.abs()))
        .collect();
    global_topk_mask(layout, &scores, keep_count(scores.len(), density))
}

/// Keeps the `keep` highest-scoring coordinates of all layers together.
/// `scores` holds one value per coordinate in flat (layer-major) order; they
/// are ranked descending, equal scores by ascending flat index — which of
/// several tied coordinates at the cut survives is a rule, not the accident
/// of a heap's sift order — and a non-finite score is never kept (with fewer
/// than `keep` finite scores, all of those are kept and nothing else). The
/// one "global top-k over flat scores → layered mask" step behind
/// [`magnitude_mask_global`] and `ft-pruning`'s score-based pruners (SNIP,
/// SynFlow, GraSP, PruneFL).
///
/// # Panics
///
/// Panics if `scores.len()` differs from the layout's total length.
pub fn global_topk_mask(layout: &SparseLayout, scores: &[f32], keep: usize) -> Mask {
    assert_eq!(
        scores.len(),
        layout.total_len(),
        "scores/layout length mismatch"
    );
    let mut ranked: Vec<usize> = (0..scores.len())
        .filter(|&i| scores[i].is_finite())
        .collect();
    if keep < ranked.len() {
        if keep > 0 {
            // Finite scores and distinct indices make this a strict total
            // order, so the unstable partition is deterministic.
            ranked.select_nth_unstable_by(keep - 1, |&a, &b| {
                let by_score = scores[b].partial_cmp(&scores[a]).expect("finite scores");
                by_score.then(a.cmp(&b))
            });
        }
        ranked.truncate(keep);
    }
    let mut flat = vec![false; scores.len()];
    for i in ranked {
        flat[i] = true;
    }
    let mut rest = flat.as_slice();
    let layers = layout.iter().map(|spec| {
        let (layer, tail) = rest.split_at(spec.len);
        rest = tail;
        layer.to_vec()
    });
    Mask::from_layers(layers.collect())
}

/// Random mask at per-layer densities, used for FedDST's random initial
/// pruning and as a control in tests.
pub fn random_mask<R: Rng + ?Sized>(rng: &mut R, layout: &SparseLayout, densities: &[f32]) -> Mask {
    assert_eq!(
        densities.len(),
        layout.num_layers(),
        "densities/layout layer count mismatch"
    );
    let mut layers = Vec::with_capacity(layout.num_layers());
    for (spec, &d) in layout.iter().zip(densities.iter()) {
        let keep = keep_count(spec.len, d);
        let mut idx: Vec<usize> = (0..spec.len).collect();
        idx.shuffle(rng);
        let mut m = vec![false; spec.len];
        for &i in idx.iter().take(keep) {
            m[i] = true;
        }
        layers.push(m);
    }
    Mask::from_layers(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn layout() -> SparseLayout {
        SparseLayout::new(vec![("a".into(), 10), ("b".into(), 20)])
    }

    #[test]
    fn magnitude_keeps_largest_per_layer() {
        let l = SparseLayout::new(vec![("a".into(), 5)]);
        let w = [0.1f32, -0.9, 0.5, 0.05, -0.3];
        let m = magnitude_mask(&l, &[&w], &[0.4]);
        // ceil(0.4*5)=2 -> keep |-0.9| and |0.5|
        assert_eq!(m.layer(0), &[false, true, true, false, false]);
    }

    #[test]
    fn magnitude_global_crosses_layers() {
        let l = SparseLayout::new(vec![("a".into(), 2), ("b".into(), 2)]);
        let wa = [0.9f32, 0.1];
        let wb = [0.8f32, 0.7];
        let m = magnitude_mask_global(&l, &[&wa, &wb], 0.5);
        // keep top ceil(0.5*4)=2: 0.9 (a0) and 0.8 (b0)
        assert_eq!(m.layer(0), &[true, false]);
        assert_eq!(m.layer(1), &[true, false]);
    }

    /// The shared global top-k, on the cases its four callers used to settle
    /// each their own way (a heap's sift order, a stable sort, `v > 0.0`).
    #[test]
    fn global_topk_ties_go_to_the_lowest_flat_index_and_non_finite_is_never_kept() {
        let l = SparseLayout::new(vec![("a".into(), 3), ("b".into(), 4)]);
        let s = [0.5f32, 2.0, f32::NAN, 0.5, f32::INFINITY, 0.5, -1.0];
        let kept = |keep: usize| {
            let m = global_topk_mask(&l, &s, keep);
            [m.layer(0).to_vec(), m.layer(1).to_vec()].concat()
        };
        // Three 0.5s tie at the cut; they are admitted in flat-index order,
        // across the layer boundary. Scores are signed: -1.0 ranks last.
        assert_eq!(kept(0), [false; 7]);
        assert_eq!(kept(1), [false, true, false, false, false, false, false]);
        assert_eq!(kept(2), [true, true, false, false, false, false, false]);
        assert_eq!(kept(3), [true, true, false, true, false, false, false]);
        assert_eq!(kept(4), [true, true, false, true, false, true, false]);
        // `keep = total`: every finite score and nothing else.
        assert_eq!(kept(7), [true, true, false, true, false, true, true]);
        // ±0.0 are one score; a layer of ties keeps its first coordinates.
        let zeros = [-0.0f32, 0.0, 0.0, -0.0, 0.0, 0.0, -0.0];
        let m = global_topk_mask(&l, &zeros, 4);
        assert_eq!((m.layer_ones(0), m.layer(1)[0]), (3, true));
        assert_eq!(m.ones_count(), 4);
        // The magnitude form ranks `|w|` through it.
        let m = magnitude_mask_global(&l, &[&[0.5, -2.0, 0.1], &[-0.5, 0.2, 0.5, 0.0]], 0.4);
        assert_eq!(m.layer(0), &[true, true, false]);
        assert_eq!(m.layer(1), &[true, false, false, false]);
    }

    #[test]
    fn keep_count_ceils_and_clamps() {
        assert_eq!(keep_count(100, 0.015), 2);
        assert_eq!(keep_count(100, 0.0), 0);
        assert_eq!(keep_count(100, 1.5), 100);
        assert_eq!(keep_count(0, 0.5), 0);
        assert_eq!(keep_count(1000, 0.001), 1);
        // ceil keeps at least one weight at any positive density.
        assert_eq!(keep_count(10, 0.001), 1);
    }

    /// Two equal magnitudes straddle the cut: the lower index survives,
    /// wherever the pair sits relative to the larger weights around it. (The
    /// heap this replaced kept whichever its sift order happened to leave.)
    #[test]
    fn magnitude_ties_at_the_cut_go_to_the_lowest_index() {
        let l = SparseLayout::new(vec![("a".into(), 6)]);
        // keep 3 of 6: 0.9, 0.7 and one of the two ±0.5.
        let w = [0.5f32, 0.9, 0.1, -0.5, 0.7, 0.2];
        let m = magnitude_mask(&l, &[&w], &[0.5]);
        assert_eq!(m.layer(0), &[true, true, false, false, true, false]);
        // The same multiset in another order: again the first ±0.5 wins.
        let w = [0.2f32, -0.5, 0.7, 0.1, 0.9, 0.5];
        let m = magnitude_mask(&l, &[&w], &[0.5]);
        assert_eq!(m.layer(0), &[false, true, true, false, true, false]);
        // A whole layer of ties keeps its first `keep` coordinates.
        let m = magnitude_mask(&l, &[&[-0.0f32, 0.0, 0.0, -0.0, 0.0, 0.0]], &[0.5]);
        assert_eq!(m.layer(0), &[true, true, true, false, false, false]);
    }

    #[test]
    fn non_finite_weights_are_never_kept() {
        let l = SparseLayout::new(vec![("a".into(), 5)]);
        let w = [f32::NAN, 0.1, f32::INFINITY, -0.2, f32::NEG_INFINITY];
        assert_eq!(
            magnitude_mask(&l, &[&w], &[0.4]).layer(0),
            &[false, true, false, true, false]
        );
        // Fewer finite weights than the keep count: all of them, no more.
        assert_eq!(magnitude_mask(&l, &[&w], &[1.0]).layer_ones(0), 2);
    }

    #[test]
    fn magnitude_masks_equal_one_call_per_vector() {
        let l = layout();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        // Quantised so every layer holds many equal magnitudes.
        let mut draw = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| (rng.gen_range(-1.0f32..1.0) * 4.0).round() / 4.0)
                .collect()
        };
        let (wa, wb) = (draw(10), draw(20));
        let weights: [&[f32]; 2] = [&wa, &wb];
        let pool = vec![
            vec![0.3f32, 0.05],
            vec![0.0, 1.0],
            vec![0.75, 0.5],
            vec![0.3, 0.05],
        ];
        let masks = magnitude_masks(&l, &weights, &pool);
        assert_eq!(masks.len(), pool.len());
        for (m, d) in masks.iter().zip(&pool) {
            assert_eq!(m, &magnitude_mask(&l, &weights, d));
        }
        assert!(magnitude_masks(&l, &weights, &[] as &[Vec<f32>]).is_empty());
    }

    #[test]
    fn uniform_vector() {
        let v = uniform_density_vector(&layout(), 0.25);
        assert_eq!(v, vec![0.25, 0.25]);
        assert_eq!(uniform_density_vector(&layout(), 2.0), vec![1.0, 1.0]);
    }

    #[test]
    fn noisy_vector_respects_budget() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let l = layout();
        for _ in 0..50 {
            let d = noisy_density_vector(&mut rng, &l, 0.1, 0.5);
            let overall = overall_density(&d, &l.lens());
            assert!(
                overall <= 0.1 + 1e-5,
                "overall density {overall} exceeds target"
            );
            assert!(d.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn noisy_vector_zero_spread_is_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let d = noisy_density_vector(&mut rng, &layout(), 0.2, 0.0);
        assert_eq!(d, vec![0.2, 0.2]);
    }

    #[test]
    #[should_panic(expected = "target density")]
    fn noisy_vector_rejects_zero_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let _ = noisy_density_vector(&mut rng, &layout(), 0.0, 0.1);
    }

    #[test]
    fn random_mask_density() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let m = random_mask(&mut rng, &layout(), &[0.5, 0.1]);
        assert_eq!(m.layer_ones(0), 5);
        assert_eq!(m.layer_ones(1), 2); // ceil(0.1*20)=2
    }

    #[test]
    fn random_masks_differ_across_draws() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let big = SparseLayout::new(vec![("a".into(), 100)]);
        let m1 = random_mask(&mut rng, &big, &[0.3]);
        let m2 = random_mask(&mut rng, &big, &[0.3]);
        assert_ne!(m1, m2);
    }

    proptest! {
        /// Magnitude masks hit the requested per-layer keep counts exactly.
        #[test]
        fn magnitude_mask_counts(d in 0.0f32..1.0, n in 1usize..200) {
            let l = SparseLayout::new(vec![("x".into(), n)]);
            let w: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let m = magnitude_mask(&l, &[&w], &[d]);
            let expect = if d <= 0.0 { 0 } else { ((d as f64 * n as f64).ceil() as usize).min(n) };
            prop_assert_eq!(m.layer_ones(0), expect);
        }

        /// The ranked form against the rule written out naively: a stable
        /// full sort of the finite coordinates by descending `|w|`, first
        /// `keep` kept. Values are drawn from a handful of magnitudes plus
        /// NaN, ±inf and ±0.0, so cuts land on ties all the time.
        #[test]
        fn magnitude_masks_match_naive_stable_sort(
            picks in proptest::collection::vec(0usize..9, 0..65),
            d in 0usize..4,
        ) {
            const VALUES: [f32; 9] = [
                f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 0.25, -0.25, 1.5, -3.0,
            ];
            let w: Vec<f32> = picks.iter().map(|&p| VALUES[p]).collect();
            let density = [0.0f32, 0.05, 0.5, 1.0][d];
            let l = SparseLayout::new(vec![("x".into(), w.len())]);

            let mut order: Vec<usize> = (0..w.len()).filter(|&i| w[i].is_finite()).collect();
            order.sort_by(|&a, &b| w[b].abs().total_cmp(&w[a].abs()));
            let mut expect = vec![false; w.len()];
            for &i in order.iter().take(keep_count(w.len(), density)) {
                expect[i] = true;
            }

            let got = magnitude_mask(&l, &[&w], &[density]);
            prop_assert_eq!(got.layer(0), &expect[..]);
            // Asked for beside a deeper cut, the same mask comes back.
            let pool = magnitude_masks(&l, &[&w], &[[1.0f32], [density]]);
            prop_assert_eq!(pool[1].layer(0), &expect[..]);
        }

        /// The global top-k against the rule written out naively: a stable
        /// full sort of the finite flat scores, descending, first `keep`
        /// kept — over two layers, with cuts landing on ties all the time.
        #[test]
        fn global_topk_matches_naive_stable_sort(
            picks in proptest::collection::vec(0usize..9, 0..65),
            split in 0usize..65,
            keep in 0usize..70,
        ) {
            const VALUES: [f32; 9] = [
                f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 0.25, -0.25, 1.5, -3.0,
            ];
            let s: Vec<f32> = picks.iter().map(|&p| VALUES[p]).collect();
            let split = split.min(s.len());
            let l = SparseLayout::new(vec![("a".into(), split), ("b".into(), s.len() - split)]);

            let mut order: Vec<usize> = (0..s.len()).filter(|&i| s[i].is_finite()).collect();
            order.sort_by(|&a, &b| s[b].partial_cmp(&s[a]).unwrap());
            let mut expect = vec![false; s.len()];
            for &i in order.iter().take(keep) {
                expect[i] = true;
            }

            let got = global_topk_mask(&l, &s, keep);
            prop_assert_eq!(got.layer(0), &expect[..split]);
            prop_assert_eq!(got.layer(1), &expect[split..]);
        }

        /// Every weight kept by a magnitude mask is at least as large as
        /// every dropped weight (per layer).
        #[test]
        fn magnitude_mask_dominates(n in 2usize..100, seed in 0u64..50) {
            let l = SparseLayout::new(vec![("x".into(), n)]);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let w: Vec<f32> = (0..n).map(|_| rand::Rng::gen_range(&mut rng, -1.0f32..1.0)).collect();
            let m = magnitude_mask(&l, &[&w], &[0.5]);
            let kept_min = m.alive_indices(0).iter().map(|&i| w[i].abs()).fold(f32::INFINITY, f32::min);
            let dropped_max = m.pruned_indices(0).iter().map(|&i| w[i].abs()).fold(0.0f32, f32::max);
            prop_assert!(kept_min >= dropped_max - 1e-6);
        }
    }
}

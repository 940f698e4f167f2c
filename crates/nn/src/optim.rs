//! Stochastic gradient descent with mask-aware updates.

use crate::model::Model;
use ft_sparse::Mask;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// SGD hyperparameters: plain SGD (no momentum, no weight decay), the
/// paper's local optimizer.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate `η`.
    pub lr: f32,
    /// Global gradient-norm clip; 0 disables clipping.
    pub clip_norm: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.05,
            clip_norm: 0.0,
        }
    }
}

/// The SGD optimizer. Plain SGD keeps no state between steps beyond its
/// configuration; it reuses the buffers of the masked step's survivor list.
#[derive(Clone, Debug, Default)]
pub struct Sgd {
    cfg: SgdConfig,
    /// The alive indices of every mask layer that has a pruned coordinate,
    /// concatenated in layer order.
    survivors: Vec<u32>,
    /// Per mask layer, its range of `survivors`, or `None` when the layer
    /// has no pruned coordinate.
    layers: Vec<Option<Range<usize>>>,
}

impl Sgd {
    /// Creates an optimizer with the given configuration.
    pub fn new(cfg: SgdConfig) -> Self {
        Sgd {
            cfg,
            ..Sgd::default()
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> SgdConfig {
        self.cfg
    }

    /// Re-arms the optimizer with a fresh configuration — equivalent to
    /// replacing it with `Sgd::new(cfg)`, which is how the per-device
    /// trainer cache starts each local round.
    pub fn reset_with(&mut self, cfg: SgdConfig) {
        self.cfg = cfg;
    }

    /// One SGD step, `θ ← θ − η ∇L`. When `mask` is given, only the
    /// surviving coordinates of prunable parameters move (Eq. 5:
    /// `θ ← θ − η ∇L ⊙ m`), so pruned weights stay exactly where they are.
    /// With `clip_norm > 0`, every gradient is first scaled so that the
    /// global L2 norm — over the survivors and every unprunable coordinate —
    /// does not exceed `clip_norm`.
    ///
    /// The survivors of each mask layer are listed once per step; a
    /// prunable parameter is then walked once per pass (the clipping norm,
    /// the update) and only at its survivors, so the step costs `O(nnz)`
    /// plus one scan of the flags. That is exact: a pruned coordinate's
    /// update would be `w − η·(+0.0) == w`, and its square `+0.0` leaves the
    /// norm's bits alone. (A mask layer with nothing pruned is walked whole,
    /// like an unprunable parameter.) The weights are therefore
    /// `to_bits`-equal to [`mask_grads`](crate::mask_grads), clipping, then
    /// the dense update.
    /// The step does **not** write the gradients: the pruned ones keep
    /// whatever the backward left there, unclipped, so callers clear every
    /// gradient with [`Model::zero_grad`] before the next backward, as
    /// `local_train_scratch` does.
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not match the model's prunable layout.
    pub fn step(&mut self, model: &mut dyn Model, mask: Option<&Mask>) {
        let (lr, clip_norm) = (self.cfg.lr, self.cfg.clip_norm);
        self.survivors.clear();
        self.layers.clear();
        for alive in mask
            .iter()
            .flat_map(|m| (0..m.num_layers()).map(|l| m.layer(l)))
        {
            let start = self.survivors.len();
            let pruned = append_alive(alive, &mut self.survivors);
            if !pruned {
                self.survivors.truncate(start);
            }
            let end = self.survivors.len();
            self.layers.push(pruned.then_some(start..end));
        }
        let walk = || Survivors {
            mask,
            list: &self.survivors,
            layers: &self.layers,
            layer: 0,
        };
        let scale = if clip_norm > 0.0 {
            let (mut total, mut survivors) = (0.0f32, walk());
            model.for_each_param(&mut |p| {
                let g = p.grad.data();
                let mut partial = -0.0f32;
                match survivors.of(p.prunable, g.len()) {
                    Some(alive) => alive.iter().for_each(|&i| {
                        let g = g[i as usize];
                        partial += g * g;
                    }),
                    None => g.iter().for_each(|g| partial += g * g),
                }
                total += partial;
            });
            let norm = total.sqrt();
            (norm > clip_norm && norm.is_finite()).then(|| clip_norm / norm)
        } else {
            None
        };
        let delta = |g: f32| lr * scale.map_or(g, |s| g * s);
        let mut survivors = walk();
        model.for_each_param_mut(&mut |p| {
            let (w, g) = (p.data.data_mut(), p.grad.data());
            match survivors.of(p.prunable, w.len()) {
                Some(alive) => alive
                    .iter()
                    .for_each(|&i| w[i as usize] -= delta(g[i as usize])),
                None => w.iter_mut().zip(g).for_each(|(w, &g)| *w -= delta(g)),
            }
        });
        if let Some(m) = mask {
            assert_eq!(survivors.layer, m.num_layers(), "mask layer count mismatch");
        }
    }
}

/// Hands each parameter of a walk in order its survivors: `None` (every
/// coordinate) without a mask, for an unprunable parameter or for a mask
/// layer with nothing pruned, else the alive indices of the next mask
/// layer.
struct Survivors<'a> {
    mask: Option<&'a Mask>,
    list: &'a [u32],
    layers: &'a [Option<Range<usize>>],
    layer: usize,
}

impl<'a> Survivors<'a> {
    fn of(&mut self, prunable: bool, len: usize) -> Option<&'a [u32]> {
        let m = self.mask.filter(|_| prunable)?;
        let l = self.layer;
        assert_eq!(len, m.layer(l).len(), "mask/weights length mismatch");
        self.layer += 1;
        self.layers[l].clone().map(|range| &self.list[range])
    }
}

/// Appends to `out` every `i` with `alive[i]`, in ascending order, and
/// returns whether any flag is dead; a layer with none appends nothing past
/// the check that finds its first dead run. The flags are read eight at a
/// time: the live runs of a stretch are listed first, then each listed run
/// appends all eight of its indices and keeps those that are alive. Neither
/// walk branches on a flag, so nothing waits on a mispredicted branch, and a
/// run of eight dead flags costs one compare.
fn append_alive(alive: &[bool], out: &mut Vec<u32>) -> bool {
    const RUN: usize = 8;
    const STRETCH: usize = 256;
    let runs = alive.chunks_exact(RUN);
    let word = |run: &[bool]| {
        u64::from_ne_bytes(
            <[bool; RUN]>::try_from(run)
                .expect("eight flags")
                .map(u8::from),
        )
    };
    if runs
        .clone()
        .all(|run| word(run) == u64::from_ne_bytes([1; RUN]))
        && runs.remainder().iter().all(|&a| a)
    {
        return false;
    }
    assert!(
        u32::try_from(alive.len()).is_ok(),
        "a mask layer of 2^32 coordinates"
    );
    let body = alive.len() - runs.remainder().len();
    let mut live = [0u32; STRETCH];
    let mut found = [0u32; RUN * STRETCH];
    for start in (0..body).step_by(RUN * STRETCH) {
        let end = body.min(start + RUN * STRETCH);
        let mut k = 0;
        for (r, run) in alive[start..end].chunks_exact(RUN).enumerate() {
            live[k] = (start + r * RUN) as u32;
            k += usize::from(word(run) != 0);
        }
        let mut n = 0;
        for &at in &live[..k] {
            let run = &alive[at as usize..at as usize + RUN];
            for (i, &a) in (at..).zip(run) {
                found[n] = i;
                n += usize::from(a);
            }
        }
        out.extend_from_slice(&found[..n]);
    }
    out.extend((body..alive.len()).filter(|&i| alive[i]).map(|i| i as u32));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::loss::softmax_cross_entropy;
    use crate::model::{apply_mask, mask_grads, sparse_layout, Model};
    use crate::models::SmallCnn;
    use ft_sparse::Mask;
    use ft_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (SmallCnn, Tensor, Vec<usize>) {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let model = SmallCnn::new(&mut rng, 4, 4, 3, 8);
        let x = ft_tensor::normal(&mut rng, &[8, 3, 8, 8], 0.0, 1.0);
        let y = vec![0, 1, 2, 3, 0, 1, 2, 3];
        (model, x, y)
    }

    #[test]
    fn sgd_reduces_loss() {
        let (mut model, x, y) = setup();
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            ..Default::default()
        });
        let logits = model.forward(&x, Mode::Train);
        let (loss0, grad) = softmax_cross_entropy(&logits, &y);
        model.backward_scratch(&grad);
        opt.step(&mut model, None);
        model.zero_grad();
        let mut last = loss0;
        for _ in 0..10 {
            let logits = model.forward(&x, Mode::Train);
            let (loss, grad) = softmax_cross_entropy(&logits, &y);
            model.backward_scratch(&grad);
            opt.step(&mut model, None);
            model.zero_grad();
            last = loss;
        }
        assert!(last < loss0, "loss did not decrease: {loss0} -> {last}");
    }

    /// The clip `step` replaced: scales all gradients in place so that
    /// their global L2 norm does not exceed `max_norm`.
    fn clip_gradients(model: &mut dyn Model, max_norm: f32) {
        let mut total = 0.0f32;
        model.for_each_param(&mut |p| total += p.grad.data().iter().map(|g| g * g).sum::<f32>());
        let norm = total.sqrt();
        if norm > max_norm && norm.is_finite() {
            let scale = max_norm / norm;
            model.for_each_param_mut(&mut |p| p.grad.scale(scale));
        }
    }

    /// `step` ≡ `mask_grads`, then (with `clip_norm > 0`) the clip, then
    /// the dense update `w −= η·g` — `to_bits` on every weight, with every
    /// weight and gradient non-zero, dead coordinates included, under a
    /// sparse mask, an all-ones mask and no mask.
    #[test]
    fn sgd_step_equals_mask_grads_then_dense_update() {
        use rand::Rng;
        let (base, _, _) = setup();
        let layout = sparse_layout(&base);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut base = base;
        base.for_each_param_mut(&mut |p| {
            for v in p.data.data_mut().iter_mut().chain(p.grad.data_mut()) {
                *v = rng.gen_range(-1.0f32..1.0);
            }
        });
        // Layer 0 entirely dead (its share of the norm is `-0.0`), the
        // rest in runs of eight that are dead, or alive at random.
        let mut sparse = Mask::ones(&layout);
        for l in 0..layout.num_layers() {
            for i in 0..layout.layer(l).len {
                let live = l > 0 && (i / 8) % 3 == 0 && rng.gen_range(0.0f32..1.0) < 0.3;
                sparse.set(l, i, live);
            }
        }
        let ones = Mask::ones(&layout);
        let weights = |m: &SmallCnn| -> Vec<u32> {
            let params = m.params();
            params
                .iter()
                .flat_map(|p| p.data.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        // No clipping, a clip that scales, a clip the norm stays under.
        for clip_norm in [0.0f32, 0.5, 1e9] {
            for mask in [Some(&sparse), Some(&ones), None] {
                let cfg = SgdConfig { lr: 0.1, clip_norm };
                let mut stepped = base.clone();
                Sgd::new(cfg).step(&mut stepped, mask);
                let mut reference = base.clone();
                if let Some(m) = mask {
                    mask_grads(&mut reference, m);
                }
                if clip_norm > 0.0 {
                    clip_gradients(&mut reference, clip_norm);
                }
                reference.for_each_param_mut(&mut |p| {
                    for (w, g) in p.data.data_mut().iter_mut().zip(p.grad.data()) {
                        *w -= cfg.lr * g;
                    }
                });
                assert_eq!(
                    weights(&stepped),
                    weights(&reference),
                    "clip {clip_norm}, mask {}",
                    mask.map_or("none", |m| if m == &ones { "ones" } else { "sparse" })
                );
                assert_ne!(weights(&stepped), weights(&base), "the step moved nothing");
            }
        }
        // The model's layers are whole runs of eight inside one stretch:
        // a run cut by the end and stretches past the first, directly.
        // Sparse layers, then layers with nothing pruned.
        let cases = [0usize, 1, 7, 9, 21, 2048, 4100].map(|len| (len, 0.05));
        for (len, density) in cases.into_iter().chain([(21, 1.0), (4100, 1.0)]) {
            let alive: Vec<bool> = (0..len)
                .map(|_| rng.gen_range(0.0f32..1.0) < density)
                .collect();
            let mut found = vec![7];
            let pruned = append_alive(&alive, &mut found);
            assert_eq!(pruned, alive.contains(&false), "len {len}");
            let expected: Vec<u32> = std::iter::once(7)
                .chain((0..len as u32).filter(|&i| pruned && alive[i as usize]))
                .collect();
            assert_eq!(found, expected, "len {len}");
        }
    }

    #[test]
    fn masked_step_keeps_pruned_weights_zero() {
        let (mut model, x, y) = setup();
        let layout = sparse_layout(&model);
        let mut mask = Mask::ones(&layout);
        // Prune half of the first prunable layer.
        for i in 0..layout.layer(0).len / 2 {
            mask.set(0, i, false);
        }
        apply_mask(&mut model, &mask);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            ..Default::default()
        });
        for _ in 0..3 {
            let logits = model.forward(&x, Mode::Train);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward_scratch(&grad);
            opt.step(&mut model, Some(&mask));
            model.zero_grad();
        }
        let prunable: Vec<&crate::Param> =
            model.params().into_iter().filter(|p| p.prunable).collect();
        for i in 0..layout.layer(0).len / 2 {
            assert_eq!(prunable[0].data.data()[i], 0.0, "pruned weight {i} moved");
        }
        // Alive weights did move.
        assert!(prunable[0].data.data()[layout.layer(0).len - 1] != 0.0);
    }
}

//! Stochastic gradient descent with mask-aware updates.

use crate::model::{mask_grads, Model};
use ft_sparse::Mask;
use serde::{Deserialize, Serialize};

/// SGD hyperparameters.
///
/// Momentum and weight decay default to the values used throughout the
/// paper's experiments (plain SGD, no decay); both knobs exist because the
/// ablation benches exercise them.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate `η`.
    pub lr: f32,
    /// Classical momentum coefficient; 0 disables momentum.
    pub momentum: f32,
    /// L2 weight decay; 0 disables it.
    pub weight_decay: f32,
    /// Global gradient-norm clip; 0 disables clipping.
    pub clip_norm: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.05,
            momentum: 0.0,
            weight_decay: 0.0,
            clip_norm: 0.0,
        }
    }
}

/// SGD optimizer state (velocity buffers when momentum is enabled).
#[derive(Clone, Debug, Default)]
pub struct Sgd {
    cfg: SgdConfig,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimizer with the given configuration.
    pub fn new(cfg: SgdConfig) -> Self {
        Sgd {
            cfg,
            velocity: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> SgdConfig {
        self.cfg
    }

    /// Re-arms the optimizer with a fresh configuration and zeroed velocity,
    /// keeping the velocity buffers allocated. Equivalent to replacing the
    /// optimizer with `Sgd::new(cfg)` but allocation-free, which is how the
    /// per-device trainer cache starts each local round.
    pub fn reset_with(&mut self, cfg: SgdConfig) {
        self.cfg = cfg;
        for v in &mut self.velocity {
            v.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// One SGD step. When `mask` is given, the gradients of pruned weights
    /// are zeroed first (Eq. 5: `θ ← θ − η ∇L ⊙ m`), so pruned weights stay
    /// exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not match the model's prunable layout.
    pub fn step(&mut self, model: &mut dyn Model, mask: Option<&Mask>) {
        if let Some(m) = mask {
            mask_grads(model, m);
        }
        if self.cfg.clip_norm > 0.0 {
            clip_gradients(model, self.cfg.clip_norm);
        }
        let cfg = self.cfg;
        let velocity = &mut self.velocity;
        let mut i = 0;
        model.for_each_param_mut(&mut |p| {
            if cfg.momentum > 0.0 {
                if velocity.len() <= i {
                    velocity.push(vec![0.0; p.len()]);
                } else if velocity[i].len() != p.len() {
                    velocity[i].clear();
                    velocity[i].resize(p.len(), 0.0);
                }
                let vel = &mut velocity[i];
                for ((w, g), v) in p
                    .data
                    .data_mut()
                    .iter_mut()
                    .zip(p.grad.data().iter())
                    .zip(vel.iter_mut())
                {
                    let grad = g + cfg.weight_decay * *w;
                    *v = cfg.momentum * *v + grad;
                    *w -= cfg.lr * *v;
                }
            } else {
                for (w, g) in p.data.data_mut().iter_mut().zip(p.grad.data().iter()) {
                    *w -= cfg.lr * (g + cfg.weight_decay * *w);
                }
            }
            i += 1;
        });
    }
}

/// Scales all gradients so their global L2 norm does not exceed `max_norm`.
fn clip_gradients(model: &mut dyn Model, max_norm: f32) {
    let mut total = 0.0f32;
    model.for_each_param(&mut |p| total += p.grad.data().iter().map(|g| g * g).sum::<f32>());
    let norm = total.sqrt();
    if norm > max_norm && norm.is_finite() {
        let scale = max_norm / norm;
        model.for_each_param_mut(&mut |p| p.grad.scale(scale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::loss::softmax_cross_entropy;
    use crate::model::{apply_mask, sparse_layout, Model};
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
        model.backward(&grad);
        opt.step(&mut model, None);
        model.zero_grad();
        let mut last = loss0;
        for _ in 0..10 {
            let logits = model.forward(&x, Mode::Train);
            let (loss, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            opt.step(&mut model, None);
            model.zero_grad();
            last = loss;
        }
        assert!(last < loss0, "loss did not decrease: {loss0} -> {last}");
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
            model.backward(&grad);
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

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        // With constant grad g, momentum accumulates: after 2 steps the
        // parameter moved further than 2 * lr * g.
        let (mut model, x, y) = setup();
        let w0 = model.params()[0].data.data()[0];
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.01,
            momentum: 0.9,
            ..Default::default()
        });
        for _ in 0..3 {
            let logits = model.forward(&x, Mode::Train);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            opt.step(&mut model, None);
            model.zero_grad();
        }
        assert_ne!(model.params()[0].data.data()[0], w0);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let (mut model, _, _) = setup();
        let norm0: f32 = model.params().iter().map(|p| p.data.norm2()).sum();
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            weight_decay: 0.1,
            ..Default::default()
        });
        // No forward/backward: gradients are zero, so only decay acts.
        for _ in 0..5 {
            opt.step(&mut model, None);
        }
        let norm1: f32 = model.params().iter().map(|p| p.data.norm2()).sum();
        assert!(norm1 < norm0);
    }
}

//! Stochastic gradient descent with mask-aware updates.

use crate::model::{mask_grads, Model};
use ft_sparse::Mask;
use serde::{Deserialize, Serialize};

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
/// configuration.
#[derive(Clone, Debug, Default)]
pub struct Sgd {
    cfg: SgdConfig,
}

impl Sgd {
    /// Creates an optimizer with the given configuration.
    pub fn new(cfg: SgdConfig) -> Self {
        Sgd { cfg }
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

    /// One SGD step, `θ ← θ − η ∇L`. When `mask` is given, the gradients of
    /// pruned weights are zeroed first (Eq. 5: `θ ← θ − η ∇L ⊙ m`), so pruned
    /// weights stay exactly zero.
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
        let lr = self.cfg.lr;
        model.for_each_param_mut(&mut |p| {
            for (w, g) in p.data.data_mut().iter_mut().zip(p.grad.data().iter()) {
                *w -= lr * g;
            }
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

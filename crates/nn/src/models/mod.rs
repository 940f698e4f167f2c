//! The three architectures used in the paper's evaluation.
//!
//! - [`SmallCnn`] — the 3-convolution dense baseline of Tables IV/V.
//! - [`Vgg11`] — VGG11 with batch normalization.
//! - [`ResNet18`] — the CIFAR-style ResNet18 (3×3 stem, no stem pooling).
//!
//! All models take a *width multiplier* and an input resolution so the same
//! topology runs at paper scale or at laptop/test scale; the layer/block
//! structure (which is what the pruning algorithms operate on) is identical
//! at every scale.

/// `impl Model` for a model that is one `Sequential` stack (`seq`) beside
/// its static description (`arch`) and its Fig. 2 blocks (`blocks`): the
/// passes run the stack, and the layer walk visits its layers in order.
/// [`SmallCnn`] and [`Vgg11`] differ in how they are built, not in how they
/// run.
macro_rules! impl_stacked_model {
    ($model:ty) => {
        impl crate::model::Model for $model {
            fn forward_into(
                &mut self,
                x: &ft_tensor::Tensor,
                out: &mut ft_tensor::Tensor,
                mode: crate::layer::Mode,
            ) {
                self.seq.forward_into(x, out, mode);
            }

            fn backward_scratch(&mut self, grad_logits: &ft_tensor::Tensor) {
                self.seq.backward_discard_input(grad_logits);
            }

            fn backward_down_to(
                &mut self,
                grad_logits: &ft_tensor::Tensor,
                shallowest_prunable: usize,
            ) {
                self.seq.backward_down_to(grad_logits, shallowest_prunable);
            }

            fn for_each_layer<'a>(&'a self, f: &mut dyn FnMut(&'a crate::layer::AnyLayer)) {
                self.seq.layers.iter().for_each(f);
            }

            fn for_each_layer_mut<'a>(
                &'a mut self,
                f: &mut dyn FnMut(&'a mut crate::layer::AnyLayer),
            ) {
                self.seq.layers.iter_mut().for_each(f);
            }

            fn clone_model(&self) -> Box<dyn crate::model::Model> {
                Box::new(self.clone())
            }

            fn arch(&self) -> crate::model::ArchInfo {
                self.arch.clone()
            }

            fn block_partition(&self) -> Vec<Vec<usize>> {
                self.blocks.clone()
            }
        }
    };
}

mod resnet;
mod small_cnn;
mod vgg;

pub use resnet::ResNet18;
pub use small_cnn::SmallCnn;
pub use vgg::Vgg11;

/// Scales a channel count by the width multiplier, flooring at 1.
pub(crate) fn scaled(c: usize, width: f32) -> usize {
    ((c as f32 * width).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use crate::{apply_mask, prunable_param_indices, sparse_layout, Mode, Model};
    use ft_sparse::{magnitude_mask, uniform_density_vector};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn scaled_floors_at_one() {
        assert_eq!(scaled(64, 1.0), 64);
        assert_eq!(scaled(64, 0.25), 16);
        assert_eq!(scaled(64, 0.001), 1);
        assert_eq!(scaled(3, 2.0), 6);
    }

    /// For every unit of `block_partition()`, dense and with the rest of the
    /// model on its sparse plan (the pruning probe's set-up: the unit's own
    /// mask records cleared): `backward_down_to` the unit's shallowest layer
    /// gives every parameter from that layer up the bits `backward_scratch`
    /// gives it, and leaves every gradient beneath the stopping point zero — the
    /// layer itself in a stacked model, the start of its residual block in
    /// ResNet18.
    #[test]
    fn backward_down_to_equals_backward_from_the_stop_up_and_is_zero_beneath() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let models: Vec<(Box<dyn Model>, usize, bool)> = vec![
            (Box::new(ResNet18::new(&mut rng, 0.25, 10, 3, 8)), 8, true),
            (Box::new(Vgg11::new(&mut rng, 0.125, 10, 3, 8)), 8, false),
            (Box::new(SmallCnn::new(&mut rng, 8, 10, 3, 8)), 8, false),
        ];
        for (mut base, side, stops_at_block) in models {
            base.set_runtime(ft_runtime::Runtime::from_env().with_min_work(0));
            let x = ft_tensor::normal(&mut rng, &[6, 3, side, side], 0.0, 1.0);
            let labels: Vec<usize> = (0..6).map(|i| i % 10).collect();
            let prunable_pos = prunable_param_indices(base.as_ref());
            let names: Vec<String> = base.params().iter().map(|p| p.name.clone()).collect();
            let units = base.block_partition();
            assert!(units.len() > 1, "{}", base.arch().name);
            for (masked, unit) in [false, true]
                .into_iter()
                .flat_map(|m| units.iter().map(move |u| (m, u)))
            {
                let mut full = base.clone_model();
                if masked {
                    let layout = sparse_layout(full.as_ref());
                    let mask = {
                        let params = full.params();
                        let weights: Vec<&[f32]> = prunable_pos
                            .iter()
                            .map(|&i| params[i].data.data())
                            .collect();
                        magnitude_mask(&layout, &weights, &uniform_density_vector(&layout, 0.3))
                    };
                    apply_mask(full.as_mut(), &mask);
                    for &l in unit {
                        full.params_mut()[prunable_pos[l]].mask_bits = None;
                    }
                }
                let mut short = full.clone_model();
                let stop = *unit.iter().min().expect("units are not empty");
                let what = format!("{} unit {unit:?} masked {masked}", base.arch().name);

                let logits = full.forward(&x, Mode::Train);
                let (_, grad) = softmax_cross_entropy(&logits, &labels);
                full.backward_scratch(&grad);
                let _ = short.forward(&x, Mode::Train);
                short.backward_down_to(&grad, stop);

                // Where the pass is allowed to stop.
                let stop_param = prunable_pos[stop];
                let first = if stops_at_block {
                    let block: String = names[stop_param].split('.').take(2).collect();
                    (names.iter())
                        .position(|n| n.split('.').take(2).collect::<String>() == block)
                        .expect("the stop layer itself matches")
                } else {
                    stop_param
                };
                assert!(first <= stop_param && (stop == 0 || first > 0), "{what}");
                for (i, (f, s)) in full.params().iter().zip(short.params()).enumerate() {
                    let (f, s) = (f.grad.data(), s.grad.data());
                    if i >= first {
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(f), bits(s), "{what}: {}", names[i]);
                    } else {
                        assert!(s.iter().all(|&g| g == 0.0), "{what}: {} moved", names[i]);
                        assert!(f.iter().any(|&g| g != 0.0), "{what}: {} is dead", names[i]);
                    }
                }
                // A stopped pass leaves no layer unable to run again.
                let again = short.forward(&x, Mode::Eval);
                assert_eq!(again.shape(), &[6, 10], "{what}");
            }
        }
    }
}

//! VGG11 with batch normalization.

use super::scaled;
use crate::layer::{AnyLayer, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2x2, Relu, Sequential};
use crate::model::{ArchInfo, LayerArch};
use rand::Rng;

/// Configuration string of VGG11: channel counts with `None` marking a 2×2
/// max-pool.
const VGG11_CFG: &[Option<usize>] = &[
    Some(64),
    None,
    Some(128),
    None,
    Some(256),
    Some(256),
    None,
    Some(512),
    Some(512),
    None,
    Some(512),
    Some(512),
    None,
];

/// VGG11 with batch normalization, width multiplier and configurable input
/// resolution.
///
/// Deviations from the ImageNet original, documented in `DESIGN.md`:
/// - pooling steps that would shrink the spatial size below 2 are skipped,
///   so the topology also runs on small synthetic inputs;
/// - the classifier is `Linear(512·s² → 512) → ReLU → Linear(512 → classes)`
///   instead of the 4096-wide ImageNet head (CIFAR-style head).
///
/// The first convolution and the final linear layer are not prunable; the
/// remaining 7 convolutions and the hidden classifier linear are, giving 8
/// prunable layers split into the 5 blocks of Fig. 2.
#[derive(Clone, Debug)]
pub struct Vgg11 {
    seq: Sequential,
    arch: ArchInfo,
    blocks: Vec<Vec<usize>>,
}

impl Vgg11 {
    /// Builds VGG11-BN.
    ///
    /// # Panics
    ///
    /// Panics if `input_size == 0`.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        width: f32,
        classes: usize,
        in_c: usize,
        input_size: usize,
    ) -> Self {
        assert!(input_size > 0, "input_size must be positive");
        let mut seq = Sequential::new();
        let mut layers = Vec::new();
        let mut s = input_size;
        let mut prev_c = in_c;
        let mut prunable_idx = 0usize;
        let mut conv_count = 0usize;
        // Prunable-layer indices grouped by pooling stage → Fig. 2 blocks.
        let mut stage_groups: Vec<Vec<usize>> = vec![Vec::new()];

        for item in VGG11_CFG {
            match item {
                Some(c) => {
                    let out_c = scaled(*c, width);
                    conv_count += 1;
                    let prunable = conv_count > 1; // first conv = input layer
                    let name = format!("features.conv{conv_count}");
                    seq.push(AnyLayer::Conv(Conv2d::new(
                        rng, prev_c, out_c, 3, 1, 1, prunable, &name,
                    )));
                    let idx = if prunable {
                        let i = prunable_idx;
                        prunable_idx += 1;
                        stage_groups.last_mut().expect("nonempty").push(i);
                        Some(i)
                    } else {
                        None
                    };
                    layers.push(LayerArch::Conv {
                        in_c: prev_c,
                        out_c,
                        kernel: 3,
                        out_h: s,
                        out_w: s,
                        prunable_idx: idx,
                    });
                    seq.push(AnyLayer::Bn(BatchNorm2d::new(out_c, &format!("{name}.bn"))));
                    layers.push(LayerArch::BatchNorm {
                        channels: out_c,
                        spatial: s * s,
                    });
                    seq.push(AnyLayer::Relu(Relu::new()));
                    prev_c = out_c;
                }
                None => {
                    if s >= 2 {
                        seq.push(AnyLayer::MaxPool(MaxPool2x2::new()));
                        s /= 2;
                    }
                    stage_groups.push(Vec::new());
                }
            }
        }

        seq.push(AnyLayer::Flatten(Flatten::new()));
        let feat = prev_c * s * s;
        let hidden = scaled(512, width);
        // Hidden classifier layer is prunable; the output layer is not.
        seq.push(AnyLayer::Linear(Linear::new(
            rng,
            feat,
            hidden,
            true,
            "classifier.fc1",
        )));
        let fc1_idx = prunable_idx;
        prunable_idx += 1;
        stage_groups.last_mut().expect("nonempty").push(fc1_idx);
        layers.push(LayerArch::Linear {
            in_dim: feat,
            out_dim: hidden,
            prunable_idx: Some(fc1_idx),
        });
        seq.push(AnyLayer::Relu(Relu::new()));
        seq.push(AnyLayer::Linear(Linear::new(
            rng,
            hidden,
            classes,
            false,
            "classifier.fc2",
        )));
        layers.push(LayerArch::Linear {
            in_dim: hidden,
            out_dim: classes,
            prunable_idx: None,
        });

        let blocks: Vec<Vec<usize>> = stage_groups.into_iter().filter(|g| !g.is_empty()).collect();
        debug_assert_eq!(blocks.iter().map(Vec::len).sum::<usize>(), prunable_idx);

        Vgg11 {
            seq,
            arch: ArchInfo {
                name: "vgg11".into(),
                input: [in_c, input_size, input_size],
                classes,
                layers,
            },
            blocks,
        }
    }
}

impl_stacked_model!(Vgg11);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::model::{sparse_layout, Model};
    use ft_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_vgg() -> Vgg11 {
        Vgg11::new(&mut ChaCha8Rng::seed_from_u64(1), 0.125, 10, 3, 16)
    }

    #[test]
    fn forward_backward_shapes() {
        let mut m = small_vgg();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = m.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 10]);
        m.backward_scratch(&Tensor::ones(y.shape()));
    }

    #[test]
    fn has_eight_prunable_layers() {
        let m = small_vgg();
        // 7 prunable convs + hidden classifier linear.
        assert_eq!(sparse_layout(&m).num_layers(), 8);
    }

    #[test]
    fn blocks_partition_all_prunable_layers() {
        let m = small_vgg();
        let blocks = m.block_partition();
        assert_eq!(blocks.len(), 5, "Fig. 2: five blocks");
        let mut flat: Vec<usize> = blocks.into_iter().flatten().collect();
        flat.sort_unstable();
        assert_eq!(flat, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn pool_skipping_keeps_tiny_inputs_alive() {
        // 8×8 input: only 3 of the 5 pools can execute (8→4→2→1).
        let mut m = Vgg11::new(&mut ChaCha8Rng::seed_from_u64(2), 0.125, 10, 3, 8);
        let y = m.forward(&Tensor::zeros(&[1, 3, 8, 8]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn full_width_channel_counts() {
        let m = Vgg11::new(&mut ChaCha8Rng::seed_from_u64(3), 1.0, 10, 3, 32);
        let convs: Vec<usize> = m
            .arch()
            .layers
            .iter()
            .filter_map(|l| match l {
                LayerArch::Conv { out_c, .. } => Some(*out_c),
                _ => None,
            })
            .collect();
        assert_eq!(convs, vec![64, 128, 256, 256, 512, 512, 512, 512]);
    }
}

//! The 3-convolution dense baseline of Tables IV and V.

use crate::layer::{
    AnyLayer, BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2x2, Relu, Sequential,
};
use crate::model::{contiguous_blocks, ArchInfo, LayerArch};
use rand::Rng;

/// A small CNN with three convolution layers (Sec. IV-G): conv-BN-ReLU-pool
/// ×2, conv-BN-ReLU, global average pooling and a linear classifier.
///
/// The paper sizes this model to match a 1%-density ResNet18's parameter
/// count; use [`SmallCnn::new`]'s `width` to hit a parameter target.
#[derive(Clone, Debug)]
pub struct SmallCnn {
    seq: Sequential,
    arch: ArchInfo,
    blocks: Vec<Vec<usize>>,
}

impl SmallCnn {
    /// Builds the model.
    ///
    /// `width` is the base channel count (the three convolutions get
    /// `width`, `2·width`, `4·width` channels); `classes` the number of
    /// outputs; `in_c`/`input_size` the input geometry.
    ///
    /// # Panics
    ///
    /// Panics if `input_size < 4` (two 2×2 poolings must fit).
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        width: usize,
        classes: usize,
        in_c: usize,
        input_size: usize,
    ) -> Self {
        assert!(
            input_size >= 4,
            "SmallCnn needs input_size >= 4, got {input_size}"
        );
        let (c1, c2, c3) = (width, 2 * width, 4 * width);
        let mut seq = Sequential::new();
        let mut layers = Vec::new();
        let mut s = input_size;

        // Input conv is never prunable (Sec. IV-A2).
        seq.push(AnyLayer::Conv(Conv2d::new(
            rng, in_c, c1, 3, 1, 1, false, "conv1",
        )));
        layers.push(LayerArch::Conv {
            in_c,
            out_c: c1,
            kernel: 3,
            out_h: s,
            out_w: s,
            prunable_idx: None,
        });
        seq.push(AnyLayer::Bn(BatchNorm2d::new(c1, "bn1")));
        layers.push(LayerArch::BatchNorm {
            channels: c1,
            spatial: s * s,
        });
        seq.push(AnyLayer::Relu(Relu::new()));
        seq.push(AnyLayer::MaxPool(MaxPool2x2::new()));
        s /= 2;

        seq.push(AnyLayer::Conv(Conv2d::new(
            rng, c1, c2, 3, 1, 1, true, "conv2",
        )));
        layers.push(LayerArch::Conv {
            in_c: c1,
            out_c: c2,
            kernel: 3,
            out_h: s,
            out_w: s,
            prunable_idx: Some(0),
        });
        seq.push(AnyLayer::Bn(BatchNorm2d::new(c2, "bn2")));
        layers.push(LayerArch::BatchNorm {
            channels: c2,
            spatial: s * s,
        });
        seq.push(AnyLayer::Relu(Relu::new()));
        seq.push(AnyLayer::MaxPool(MaxPool2x2::new()));
        s /= 2;

        seq.push(AnyLayer::Conv(Conv2d::new(
            rng, c2, c3, 3, 1, 1, true, "conv3",
        )));
        layers.push(LayerArch::Conv {
            in_c: c2,
            out_c: c3,
            kernel: 3,
            out_h: s,
            out_w: s,
            prunable_idx: Some(1),
        });
        seq.push(AnyLayer::Bn(BatchNorm2d::new(c3, "bn3")));
        layers.push(LayerArch::BatchNorm {
            channels: c3,
            spatial: s * s,
        });
        seq.push(AnyLayer::Relu(Relu::new()));
        seq.push(AnyLayer::GlobalAvg(GlobalAvgPool::new()));

        // Output layer is never prunable.
        seq.push(AnyLayer::Linear(Linear::new(rng, c3, classes, false, "fc")));
        layers.push(LayerArch::Linear {
            in_dim: c3,
            out_dim: classes,
            prunable_idx: None,
        });

        let arch = ArchInfo {
            name: "small_cnn".into(),
            input: [in_c, input_size, input_size],
            classes,
            layers,
        };
        SmallCnn {
            seq,
            arch,
            // Only two prunable layers: every granularity degenerates gracefully.
            blocks: contiguous_blocks(2, 5),
        }
    }
}

impl_stacked_model!(SmallCnn);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::model::{flat_params, sparse_layout, Model};
    use ft_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn model() -> SmallCnn {
        SmallCnn::new(&mut ChaCha8Rng::seed_from_u64(0), 4, 10, 3, 8)
    }

    #[test]
    fn forward_shapes() {
        let mut m = model();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = m.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn backward_runs_and_fills_grads() {
        let mut m = model();
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let y = m.forward(&x, Mode::Train);
        m.backward_scratch(&Tensor::ones(y.shape()));
        let total_grad: f32 = m.params().iter().map(|p| p.grad.max_abs()).sum();
        assert!(total_grad > 0.0);
    }

    #[test]
    fn prunable_layout_is_two_convs() {
        let m = model();
        let layout = sparse_layout(&m);
        assert_eq!(layout.num_layers(), 2);
        assert_eq!(layout.layer(0).len, 8 * 4 * 9); // conv2: [8,4,3,3]
        assert_eq!(layout.layer(1).len, 16 * 8 * 9); // conv3: [16,8,3,3]
    }

    #[test]
    fn clone_is_deep() {
        let m = model();
        let mut c = m.clone_model();
        c.params_mut()[0].data.data_mut()[0] += 1.0;
        assert_ne!(flat_params(&m)[0], flat_params(c.as_ref())[0]);
    }

    #[test]
    fn arch_matches_structure() {
        let m = model();
        let arch = m.arch();
        assert_eq!(arch.name, "small_cnn");
        assert_eq!(arch.input, [3, 8, 8]);
        let convs = arch
            .layers
            .iter()
            .filter(|l| matches!(l, LayerArch::Conv { .. }))
            .count();
        assert_eq!(convs, 3);
    }

    #[test]
    #[should_panic(expected = "input_size")]
    fn rejects_tiny_input() {
        let _ = SmallCnn::new(&mut ChaCha8Rng::seed_from_u64(0), 4, 10, 3, 2);
    }
}

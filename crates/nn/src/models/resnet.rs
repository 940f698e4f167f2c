//! CIFAR-style ResNet18.

use super::scaled;
use crate::layer::{AnyLayer, BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Mode, Relu};
use crate::model::{ArchInfo, LayerArch, Model};
use ft_tensor::Tensor;
use rand::Rng;

/// One residual basic block: two 3×3 conv-BN pairs with an optional
/// 1×1-conv-BN downsample shortcut.
#[derive(Clone, Debug)]
struct BasicBlock {
    conv1: AnyLayer,
    bn1: AnyLayer,
    relu1: AnyLayer,
    conv2: AnyLayer,
    bn2: AnyLayer,
    down: Option<(AnyLayer, AnyLayer)>,
    relu_out: AnyLayer,
}

impl BasicBlock {
    #[allow(clippy::too_many_arguments)]
    fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_c: usize,
        out_c: usize,
        stride: usize,
        name: &str,
    ) -> Self {
        let conv = |rng: &mut R, in_c, kernel, stride, pad, part: &str| {
            let name = format!("{name}.{part}");
            AnyLayer::Conv(Conv2d::new(
                rng, in_c, out_c, kernel, stride, pad, true, &name,
            ))
        };
        let bn = |part: &str| AnyLayer::Bn(BatchNorm2d::new(out_c, &format!("{name}.{part}")));
        let down = (stride != 1 || in_c != out_c)
            .then(|| (conv(rng, in_c, 1, stride, 0, "down"), bn("down.bn")));
        BasicBlock {
            conv1: conv(rng, in_c, 3, stride, 1, "conv1"),
            bn1: bn("bn1"),
            relu1: AnyLayer::Relu(Relu::new()),
            conv2: conv(rng, out_c, 3, 1, 1, "conv2"),
            bn2: bn("bn2"),
            down,
            relu_out: AnyLayer::Relu(Relu::new()),
        }
    }

    /// The block's layers in execution order: the main branch, the
    /// shortcut, the closing ReLU.
    fn layers(&self) -> impl Iterator<Item = &AnyLayer> {
        let main = [&self.conv1, &self.bn1, &self.relu1, &self.conv2, &self.bn2];
        let short = self.down.iter().flat_map(|(conv, bn)| [conv, bn]);
        main.into_iter().chain(short).chain([&self.relu_out])
    }

    /// [`BasicBlock::layers`], mutably.
    fn layers_mut(&mut self) -> impl Iterator<Item = &mut AnyLayer> {
        let main = [
            &mut self.conv1,
            &mut self.bn1,
            &mut self.relu1,
            &mut self.conv2,
            &mut self.bn2,
        ];
        let short = self.down.iter_mut().flat_map(|(conv, bn)| [conv, bn]);
        main.into_iter().chain(short).chain([&mut self.relu_out])
    }

    /// Block forward over the model's shared activation buffers: `out`
    /// doubles as a temporary until the final ReLU writes it, and the
    /// residual add happens in place on the main branch.
    fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, tmp: &mut [Tensor; 2], mode: Mode) {
        let [main, short] = tmp;
        self.conv1.forward_into(x, main, mode);
        self.bn1.forward_into(main, out, mode);
        self.relu1.forward_into(out, main, mode);
        self.conv2.forward_into(main, out, mode);
        self.bn2.forward_into(out, main, mode);
        match &mut self.down {
            Some((conv, bn)) => {
                conv.forward_into(x, out, mode);
                bn.forward_into(out, short, mode);
                main.add_assign(short);
            }
            None => main.add_assign(x),
        }
        self.relu_out.forward_into(main, out, mode);
    }

    /// Block backward over the same buffers: `gx` doubles as a temporary
    /// until the main branch's input gradient lands in it, then the
    /// shortcut's gradient is added in place.
    fn backward_into(&mut self, grad: &Tensor, gx: &mut Tensor, tmp: &mut [Tensor; 2]) {
        let [g_sum, g] = tmp;
        self.relu_out.backward_into(grad, g_sum);
        // The addition fans the gradient to both branches.
        self.bn2.backward_into(g_sum, gx);
        self.conv2.backward_into(gx, g);
        self.relu1.backward_into(g, gx);
        self.bn1.backward_into(gx, g);
        self.conv1.backward_into(g, gx);
        if let Some((conv, bn)) = &mut self.down {
            bn.backward_into(g_sum, g);
            conv.backward_into(g, g_sum);
        }
        gx.add_assign(g_sum);
    }
}

/// CIFAR-style ResNet18: a 3×3 stem (no max-pool), four stages of two
/// basic blocks with channel widths `64·w, 128·w, 256·w, 512·w`, global
/// average pooling and a linear classifier.
///
/// The stem convolution and the classifier are not prunable; the 19
/// convolution weights inside the residual stages are, partitioned into 5
/// blocks (one per stage, the last stage split in two) per Fig. 2.
#[derive(Clone, Debug)]
pub struct ResNet18 {
    stem_conv: AnyLayer,
    stem_bn: AnyLayer,
    stem_relu: AnyLayer,
    stages: Vec<BasicBlock>, // 8 blocks: 2 per stage
    gap: AnyLayer,
    fc: AnyLayer,
    arch: ArchInfo,
    blocks: Vec<Vec<usize>>,
    scratch: ResScratch,
}

/// The one set of activation buffers the whole network runs through: the
/// running activation (or gradient) ping-pongs between `ping` and `pong`
/// from block to block, and `tmp` holds a block's two branches. Each buffer
/// grows to the widest stage it ever carries and is reused from then on, so
/// a steady step allocates nothing — and the model holds four activation
/// tensors, not seven per block. Like the layers' scratch, a clone of the
/// model starts with these empty.
#[derive(Debug, Default)]
struct ResScratch {
    ping: Tensor,
    pong: Tensor,
    tmp: [Tensor; 2],
}

impl Clone for ResScratch {
    fn clone(&self) -> Self {
        ResScratch::default()
    }
}

impl ResNet18 {
    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if `input_size < 8` (three stride-2 stages must fit).
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        width: f32,
        classes: usize,
        in_c: usize,
        input_size: usize,
    ) -> Self {
        assert!(
            input_size >= 8,
            "ResNet18 needs input_size >= 8, got {input_size}"
        );
        let c = [
            scaled(64, width),
            scaled(128, width),
            scaled(256, width),
            scaled(512, width),
        ];
        let stem_conv = Conv2d::new(rng, in_c, c[0], 3, 1, 1, false, "stem.conv");

        let mut stages = Vec::with_capacity(8);
        let mut layers = Vec::new();
        let mut s = input_size;
        layers.push(LayerArch::Conv {
            in_c,
            out_c: c[0],
            kernel: 3,
            out_h: s,
            out_w: s,
            prunable_idx: None,
        });
        layers.push(LayerArch::BatchNorm {
            channels: c[0],
            spatial: s * s,
        });

        let mut prunable_idx = 0usize;
        let mut stage_groups: Vec<Vec<usize>> = Vec::new();
        let mut prev_c = c[0];
        for (stage, &out_c) in c.iter().enumerate() {
            let mut group = Vec::new();
            for b in 0..2 {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                if stride == 2 {
                    s /= 2;
                }
                let name = format!("layer{}.{}", stage + 1, b);
                let block = BasicBlock::new(rng, prev_c, out_c, stride, &name);
                // Arch entries: conv1, conv2, optional downsample.
                layers.push(LayerArch::Conv {
                    in_c: prev_c,
                    out_c,
                    kernel: 3,
                    out_h: s,
                    out_w: s,
                    prunable_idx: Some(prunable_idx),
                });
                group.push(prunable_idx);
                prunable_idx += 1;
                layers.push(LayerArch::BatchNorm {
                    channels: out_c,
                    spatial: s * s,
                });
                layers.push(LayerArch::Conv {
                    in_c: out_c,
                    out_c,
                    kernel: 3,
                    out_h: s,
                    out_w: s,
                    prunable_idx: Some(prunable_idx),
                });
                group.push(prunable_idx);
                prunable_idx += 1;
                layers.push(LayerArch::BatchNorm {
                    channels: out_c,
                    spatial: s * s,
                });
                if block.down.is_some() {
                    layers.push(LayerArch::Conv {
                        in_c: prev_c,
                        out_c,
                        kernel: 1,
                        out_h: s,
                        out_w: s,
                        prunable_idx: Some(prunable_idx),
                    });
                    group.push(prunable_idx);
                    prunable_idx += 1;
                    layers.push(LayerArch::BatchNorm {
                        channels: out_c,
                        spatial: s * s,
                    });
                }
                stages.push(block);
                prev_c = out_c;
            }
            stage_groups.push(group);
        }

        // Fig. 2: five blocks. Stages give four groups; split the last stage
        // into its two residual blocks to obtain five.
        let last = stage_groups.pop().expect("four stages");
        let (a, b) = last.split_at(last.len() / 2);
        stage_groups.push(a.to_vec());
        stage_groups.push(b.to_vec());

        let fc = Linear::new(rng, prev_c, classes, false, "fc");
        layers.push(LayerArch::Linear {
            in_dim: prev_c,
            out_dim: classes,
            prunable_idx: None,
        });

        ResNet18 {
            stem_conv: AnyLayer::Conv(stem_conv),
            stem_bn: AnyLayer::Bn(BatchNorm2d::new(c[0], "stem.bn")),
            stem_relu: AnyLayer::Relu(Relu::new()),
            stages,
            gap: AnyLayer::GlobalAvg(GlobalAvgPool::new()),
            fc: AnyLayer::Linear(fc),
            arch: ArchInfo {
                name: "resnet18".into(),
                input: [in_c, input_size, input_size],
                classes,
                layers,
            },
            blocks: stage_groups,
            scratch: ResScratch::default(),
        }
    }
}

impl ResNet18 {
    /// The classifier, the pooling and the residual blocks `first..`, output
    /// to input; the gradient at block `first`'s input ends in
    /// `scratch.ping`.
    fn backward_blocks(&mut self, grad_logits: &Tensor, first: usize) {
        let ResScratch { ping, pong, tmp } = &mut self.scratch;
        self.fc.backward_into(grad_logits, pong);
        self.gap.backward_into(pong, ping);
        for block in self.stages[first..].iter_mut().rev() {
            block.backward_into(ping, pong, tmp);
            std::mem::swap(ping, pong);
        }
    }
}

impl Model for ResNet18 {
    fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, mode: Mode) {
        let ResScratch { ping, pong, tmp } = &mut self.scratch;
        self.stem_conv.forward_into(x, ping, mode);
        self.stem_bn.forward_into(ping, pong, mode);
        self.stem_relu.forward_into(pong, ping, mode);
        for block in &mut self.stages {
            block.forward_into(ping, pong, tmp, mode);
            std::mem::swap(ping, pong);
        }
        self.gap.forward_into(ping, pong, mode);
        self.fc.forward_into(pong, out, mode);
    }

    fn backward_scratch(&mut self, grad_logits: &Tensor) {
        self.backward_blocks(grad_logits, 0);
        let ResScratch { ping, pong, .. } = &mut self.scratch;
        self.stem_relu.backward_into(ping, pong);
        self.stem_bn.backward_into(pong, ping);
        // The stem's input gradient is dead, but `backward_params_only`
        // would lower `realized_flops`, which run fingerprints fold in;
        // switching it is a change of its own.
        self.stem_conv.backward_into(ping, pong);
    }

    /// Stops beneath the residual block that holds the layer: the block runs
    /// whole (both branches, its input gradient included), the blocks before
    /// it and the stem not at all.
    fn backward_down_to(&mut self, grad_logits: &Tensor, shallowest_prunable: usize) {
        let mut prunable = 0;
        let first = self
            .stages
            .iter()
            .position(|b| {
                prunable += 2 + usize::from(b.down.is_some());
                shallowest_prunable < prunable
            })
            .expect("prunable layer index out of range");
        self.backward_blocks(grad_logits, first);
    }

    fn for_each_layer<'a>(&'a self, f: &mut dyn FnMut(&'a AnyLayer)) {
        let stem = [&self.stem_conv, &self.stem_bn, &self.stem_relu];
        let blocks = self.stages.iter().flat_map(BasicBlock::layers);
        let head = [&self.gap, &self.fc];
        stem.into_iter().chain(blocks).chain(head).for_each(f);
    }

    fn for_each_layer_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut AnyLayer)) {
        let stem = [&mut self.stem_conv, &mut self.stem_bn, &mut self.stem_relu];
        let blocks = self.stages.iter_mut().flat_map(BasicBlock::layers_mut);
        let head = [&mut self.gap, &mut self.fc];
        stem.into_iter().chain(blocks).chain(head).for_each(f);
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn arch(&self) -> ArchInfo {
        self.arch.clone()
    }

    fn block_partition(&self) -> Vec<Vec<usize>> {
        self.blocks.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{BnStats, Fresh};
    use crate::model::sparse_layout;
    use crate::param::Param;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_resnet() -> ResNet18 {
        ResNet18::new(&mut ChaCha8Rng::seed_from_u64(5), 0.125, 10, 3, 8)
    }

    fn conv(layer: &AnyLayer) -> &Conv2d {
        match layer {
            AnyLayer::Conv(c) => c,
            other => panic!("not a convolution: {other:?}"),
        }
    }

    /// The allocating block composition the scratch path replaced: a fresh
    /// tensor per layer, `x.clone()` for the identity shortcut and
    /// `Tensor::add` for the residual sum. Kept as the oracle.
    fn oracle_block_forward(b: &mut BasicBlock, x: &Tensor, mode: Mode) -> Tensor {
        let mut main = b.conv1.fwd(x, mode);
        main = b.bn1.fwd(&main, mode);
        main = b.relu1.fwd(&main, mode);
        main = b.conv2.fwd(&main, mode);
        main = b.bn2.fwd(&main, mode);
        let short = match &mut b.down {
            Some((conv, bn)) => {
                let s = conv.fwd(x, mode);
                bn.fwd(&s, mode)
            }
            None => x.clone(),
        };
        let sum = main.add(&short);
        b.relu_out.fwd(&sum, mode)
    }

    fn oracle_block_backward(b: &mut BasicBlock, grad: &Tensor) -> Tensor {
        let g_sum = b.relu_out.bwd(grad);
        let mut g_main = b.bn2.bwd(&g_sum);
        g_main = b.conv2.bwd(&g_main);
        g_main = b.relu1.bwd(&g_main);
        g_main = b.bn1.bwd(&g_main);
        let gx_main = b.conv1.bwd(&g_main);
        let gx_short = match &mut b.down {
            Some((conv, bn)) => {
                let g = bn.bwd(&g_sum);
                conv.bwd(&g)
            }
            None => g_sum,
        };
        gx_main.add(&gx_short)
    }

    fn oracle_forward(m: &mut ResNet18, x: &Tensor, mode: Mode) -> Tensor {
        let mut h = m.stem_conv.fwd(x, mode);
        h = m.stem_bn.fwd(&h, mode);
        h = m.stem_relu.fwd(&h, mode);
        for block in &mut m.stages {
            h = oracle_block_forward(block, &h, mode);
        }
        let pooled = m.gap.fwd(&h, mode);
        m.fc.fwd(&pooled, mode)
    }

    fn oracle_backward(m: &mut ResNet18, grad_logits: &Tensor) {
        let mut g = m.fc.bwd(grad_logits);
        g = m.gap.bwd(&g);
        for block in m.stages.iter_mut().rev() {
            g = oracle_block_backward(block, &g);
        }
        g = m.stem_relu.bwd(&g);
        g = m.stem_bn.bwd(&g);
        let _ = m.stem_conv.bwd(&g);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Three SGD steps from the same seed, dense and at d = 0.05, a full
    /// batch then a short one (stage 1 spans several conv tiles at both):
    /// every logit, gradient, parameter and BN statistic of the scratch
    /// path is `to_bits`-equal to the allocating oracle.
    #[test]
    fn scratch_path_matches_allocating_oracle_bit_for_bit() {
        use crate::loss::softmax_cross_entropy;
        use crate::optim::{Sgd, SgdConfig};
        use ft_sparse::{magnitude_mask, uniform_density_vector};
        for density in [1.0f32, 0.05] {
            let mut oracle = tiny_resnet();
            let mask = (density < 1.0).then(|| {
                let layout = sparse_layout(&oracle);
                let weights: Vec<&[f32]> = oracle
                    .params()
                    .into_iter()
                    .filter(|p| p.prunable)
                    .map(|p| p.data.data())
                    .collect();
                magnitude_mask(&layout, &weights, &uniform_density_vector(&layout, density))
            });
            if let Some(mask) = &mask {
                crate::apply_mask(&mut oracle, mask);
            }
            // The oracle is sequential; the scratch path runs on the
            // FT_THREADS pool (CI: 1 and 4).
            let mut scratch = oracle.clone();
            scratch.set_runtime(ft_runtime::Runtime::from_env().with_min_work(0));
            let (mut sgd_o, mut sgd_s) = (
                Sgd::new(SgdConfig::default()),
                Sgd::new(SgdConfig::default()),
            );
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let mut logits = Tensor::default();
            for n in [32usize, 18, 32] {
                let x = ft_tensor::normal(&mut rng, &[n, 3, 8, 8], 0.0, 1.0);
                let labels: Vec<usize> = (0..n).map(|i| i % 10).collect();
                let expect = oracle_forward(&mut oracle, &x, Mode::Train);
                scratch.forward_into(&x, &mut logits, Mode::Train);
                assert_eq!(bits(logits.data()), bits(expect.data()), "logits n={n}");
                let (_, grad) = softmax_cross_entropy(&expect, &labels);
                oracle_backward(&mut oracle, &grad);
                scratch.backward_scratch(&grad);
                for (a, b) in oracle.params().iter().zip(scratch.params()) {
                    assert_eq!(bits(a.grad.data()), bits(b.grad.data()), "{} grad", a.name);
                }
                sgd_o.step(&mut oracle, mask.as_ref());
                sgd_s.step(&mut scratch, mask.as_ref());
                for (a, b) in oracle.params().iter().zip(scratch.params()) {
                    assert_eq!(bits(a.data.data()), bits(b.data.data()), "{}", a.name);
                }
                for (a, b) in oracle.bn_stats().iter().zip(scratch.bn_stats()) {
                    assert_eq!(bits(&a.mean), bits(&b.mean), "bn mean n={n}");
                    assert_eq!(bits(&a.var), bits(&b.var), "bn var n={n}");
                }
                assert_eq!(oracle.realized_flops(), scratch.realized_flops());
                oracle.zero_grad();
                scratch.zero_grad();
            }
        }
    }

    /// At the benchmark's shape (width 0.25, 16 px, batch 32) a training
    /// step leaves every conv with its kept input, `dY` and one group of
    /// staging, and nothing the size of a column matrix.
    #[test]
    fn scratch_step_leaves_no_conv_a_column_matrix() {
        let mut m = ResNet18::new(&mut ChaCha8Rng::seed_from_u64(5), 0.25, 10, 3, 16);
        let x = ft_tensor::normal(
            &mut ChaCha8Rng::seed_from_u64(6),
            &[32, 3, 16, 16],
            0.0,
            1.0,
        );
        let mut logits = Tensor::default();
        m.forward_into(&x, &mut logits, Mode::Train);
        m.backward_scratch(&Tensor::ones(&[32, 10]));
        let mut side = 16;
        let mut convs = vec![(conv(&m.stem_conv), side)];
        for b in &m.stages {
            let out_side = if b.down.is_some() { side / 2 } else { side };
            convs.push((conv(&b.conv1), side));
            convs.push((conv(&b.conv2), out_side));
            if let Some((down, _)) = &b.down {
                convs.push((conv(down), side));
            }
            side = out_side;
        }
        assert_eq!(convs.len(), 20);
        for (conv, side) in convs {
            let (len, bound) = (conv.scratch_len(), conv.scratch_bound(32, side));
            assert!(len > 0 && len <= bound, "{}: {len} > {bound}", conv.w.name);
        }
    }

    /// The non-allocating visitors walk exactly the `params()` /
    /// `bn_stats()` sequences (same objects, same order).
    #[test]
    fn scratch_visitors_follow_params_and_bn_stats_order() {
        let mut m = tiny_resnet();
        let params: Vec<*const Param> = m.params().into_iter().map(|p| p as *const _).collect();
        let stats: Vec<*const BnStats> = m.bn_stats().into_iter().map(|s| s as *const _).collect();
        assert_eq!(params.len(), 62);
        assert_eq!(stats.len(), 20);

        let mut seen = Vec::new();
        m.for_each_param(&mut |p| seen.push(p as *const Param));
        assert_eq!(seen, params);
        seen.clear();
        m.for_each_param_mut(&mut |p| seen.push(p as *const Param));
        assert_eq!(seen, params);

        let mut seen = Vec::new();
        m.for_each_bn_stats(&mut |s| seen.push(s as *const BnStats));
        assert_eq!(seen, stats);
        seen.clear();
        m.for_each_bn_stats_mut(&mut |s| seen.push(s as *const BnStats));
        assert_eq!(seen, stats);
    }

    #[test]
    fn forward_backward_shapes() {
        let mut m = tiny_resnet();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = m.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 10]);
        m.backward_scratch(&Tensor::ones(y.shape()));
        assert!(m.params().iter().any(|p| p.grad.max_abs() > 0.0));
    }

    #[test]
    fn has_nineteen_prunable_layers() {
        // 8 blocks x 2 convs + 3 downsample convs = 19.
        let m = tiny_resnet();
        assert_eq!(sparse_layout(&m).num_layers(), 19);
    }

    #[test]
    fn blocks_partition_into_five() {
        let m = tiny_resnet();
        let blocks = m.block_partition();
        assert_eq!(blocks.len(), 5);
        let mut flat: Vec<usize> = blocks.into_iter().flatten().collect();
        flat.sort_unstable();
        assert_eq!(flat, (0..19).collect::<Vec<_>>());
    }

    #[test]
    fn downsample_shortcut_exists_per_stage() {
        let m = tiny_resnet();
        let with_down = m.stages.iter().filter(|b| b.down.is_some()).count();
        assert_eq!(with_down, 3, "stages 2-4 begin with a stride-2 block");
    }

    #[test]
    fn full_width_parameter_count_matches_resnet18() {
        // ~11.17M parameters at width 1.0 on 3x32x32/10 classes.
        let m = ResNet18::new(&mut ChaCha8Rng::seed_from_u64(6), 1.0, 10, 3, 32);
        let total: usize = m.params().iter().map(|p| p.len()).sum();
        assert!(
            (11_000_000..11_400_000).contains(&total),
            "got {total} parameters"
        );
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let mut m = tiny_resnet();
        let x = Tensor::ones(&[1, 3, 8, 8]);
        let y1 = m.forward(&x, Mode::Eval);
        let y2 = m.forward(&x, Mode::Eval);
        assert_eq!(y1, y2);
    }

    #[test]
    fn gradient_flows_to_stem() {
        let mut m = tiny_resnet();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let x = ft_tensor::normal(&mut rng, &[2, 3, 8, 8], 0.0, 1.0);
        let y = m.forward(&x, Mode::Train);
        m.backward_scratch(&Tensor::ones(y.shape()));
        assert!(
            conv(&m.stem_conv).w.grad.max_abs() > 0.0,
            "residual paths must reach the stem"
        );
    }
}

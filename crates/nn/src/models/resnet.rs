//! CIFAR-style ResNet18.

use super::scaled;
use crate::layer::{Act, AnyLayer, BatchNorm2d, Conv2d, GlobalAvgPool, Grads, Linear, Mode};
use crate::model::{ArchInfo, LayerArch, Model};
use ft_tensor::{relu_backward, residual_relu, LaneTensor, Tensor};
use rand::Rng;

/// One residual basic block: two 3×3 conv-BN pairs (the first BN with its
/// ReLU fused) with an optional 1×1-conv-BN downsample shortcut, and the
/// closing `max(main + shortcut, 0)` into the block's output.
#[derive(Clone, Debug)]
struct BasicBlock {
    conv1: AnyLayer,
    bn1: AnyLayer,
    conv2: AnyLayer,
    bn2: AnyLayer,
    down: Option<(AnyLayer, AnyLayer)>,
    /// The ring of the block's output: what the next block's convolutions
    /// read, none before the pooling.
    out_ring: usize,
    /// The block's output; a clone starts without one.
    out: BlockOut,
}

/// A residual block's output, carrying the ring the next block's
/// convolutions read. Scratch: a clone starts empty.
#[derive(Debug, Default)]
struct BlockOut(LaneTensor);

impl Clone for BlockOut {
    fn clone(&self) -> Self {
        BlockOut::default()
    }
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
        let bn = |part: &str| BatchNorm2d::new(out_c, &format!("{name}.{part}"));
        let down = (stride != 1 || in_c != out_c).then(|| {
            (
                conv(rng, in_c, 1, stride, 0, "down"),
                AnyLayer::Bn(bn("down.bn")),
            )
        });
        // Drawn in this order: the weights follow from the seed.
        let conv1 = conv(rng, in_c, 3, stride, 1, "conv1");
        let conv2 = conv(rng, out_c, 3, 1, 1, "conv2");
        let mut bn1 = AnyLayer::Bn(bn("bn1").with_relu());
        bn1.set_output_ring(conv2.input_ring());
        BasicBlock {
            conv1,
            bn1,
            conv2,
            bn2: AnyLayer::Bn(bn("bn2")),
            down,
            out_ring: 0,
            out: BlockOut::default(),
        }
    }

    /// The ring the block's input must carry: what its convolutions read.
    fn input_ring(&self) -> usize {
        let down = self.down.as_ref().map_or(0, |(conv, _)| conv.input_ring());
        self.conv1.input_ring().max(down)
    }

    /// The block's layers in execution order: the main branch, then the
    /// shortcut.
    fn layers(&self) -> impl Iterator<Item = &AnyLayer> {
        let main = [&self.conv1, &self.bn1, &self.conv2, &self.bn2];
        let short = self.down.iter().flat_map(|(conv, bn)| [conv, bn]);
        main.into_iter().chain(short)
    }

    /// [`BasicBlock::layers`], mutably.
    fn layers_mut(&mut self) -> impl Iterator<Item = &mut AnyLayer> {
        let main = [
            &mut self.conv1,
            &mut self.bn1,
            &mut self.conv2,
            &mut self.bn2,
        ];
        let short = self.down.iter_mut().flat_map(|(conv, bn)| [conv, bn]);
        main.into_iter().chain(short)
    }

    /// Block forward from `x`: every layer into its own output, then the
    /// residual sum and its ReLU into the block's.
    fn forward(&mut self, x: &LaneTensor, mode: Mode) {
        self.conv1.forward(Act::Lanes(x), mode);
        self.bn1.forward(self.conv1.output(), mode);
        self.conv2.forward(self.bn1.output(), mode);
        self.bn2.forward(self.conv2.output(), mode);
        let short = match &mut self.down {
            Some((conv, bn)) => {
                conv.forward(Act::Lanes(x), mode);
                bn.forward(conv.output(), mode);
                bn.output().lanes()
            }
            None => x,
        };
        let main = self.bn2.output().lanes();
        residual_relu(main, short, self.out_ring, &mut self.out.0);
    }

    /// Block backward from `grad` (the output's gradient) over the forward's
    /// input `x`, the input gradient into `gx.lanes`: the closing ReLU's mask
    /// into `tmp[0]`, which the main branch and the shortcut both read, then
    /// the main branch through `tmp[1]` and `gx`, then the shortcut's
    /// gradient added in place.
    fn backward(
        &mut self,
        x: &LaneTensor,
        grad: &LaneTensor,
        gx: &mut Grads,
        tmp: &mut [Grads; 2],
    ) {
        let [g_sum, g] = tmp;
        relu_backward(grad, &self.out.0, 0, &mut g_sum.lanes);
        let g_sum_act = Act::Lanes(&g_sum.lanes);
        self.bn2.backward(self.conv2.output(), g_sum_act, Some(g));
        self.conv2
            .backward(self.bn1.output(), Act::Lanes(&g.lanes), Some(gx));
        self.bn1
            .backward(self.conv1.output(), Act::Lanes(&gx.lanes), Some(g));
        self.conv1
            .backward(Act::Lanes(x), Act::Lanes(&g.lanes), Some(gx));
        if let Some((conv, bn)) = &mut self.down {
            bn.backward(conv.output(), Act::Lanes(&g_sum.lanes), Some(g));
            conv.backward(Act::Lanes(x), Act::Lanes(&g.lanes), Some(g_sum));
        }
        gx.lanes.add_assign(&g_sum.lanes);
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
    stages: Vec<BasicBlock>, // 8 blocks: 2 per stage
    gap: AnyLayer,
    fc: AnyLayer,
    arch: ArchInfo,
    blocks: Vec<Vec<usize>>,
    scratch: ResScratch,
}

/// The network's input in the lane layout and the gradient buffers a
/// backward pass runs through: the running gradient ping-pongs between
/// `ping` and `pong` from block to block, and `tmp` holds a block's two
/// branches. The activations themselves are the layers' and blocks' own
/// outputs. Each buffer grows to the widest stage it ever carries and is
/// reused from then on, so a steady step allocates nothing. Like the
/// layers' scratch, a clone of the model starts with these empty.
#[derive(Debug, Default)]
struct ResScratch {
    input: LaneTensor,
    ping: Grads,
    pong: Grads,
    tmp: [Grads; 2],
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

        // Each block writes the ring the next one reads; the last feeds the
        // pooling.
        for i in 1..stages.len() {
            stages[i - 1].out_ring = stages[i].input_ring();
        }
        let mut stem_bn = AnyLayer::Bn(BatchNorm2d::new(c[0], "stem.bn").with_relu());
        stem_bn.set_output_ring(stages[0].input_ring());

        let fc = Linear::new(rng, prev_c, classes, false, "fc");
        layers.push(LayerArch::Linear {
            in_dim: prev_c,
            out_dim: classes,
            prunable_idx: None,
        });

        ResNet18 {
            stem_conv: AnyLayer::Conv(stem_conv),
            stem_bn,
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
    /// The input activation of residual block `i`: the stem's output or
    /// the block before's.
    fn block_input<'a>(
        stem_bn: &'a AnyLayer,
        stages: &'a [BasicBlock],
        i: usize,
    ) -> &'a LaneTensor {
        match i {
            0 => stem_bn.output().lanes(),
            _ => &stages[i - 1].out.0,
        }
    }

    /// The classifier, the pooling and the residual blocks `first..`, output
    /// to input; the gradient at block `first`'s input ends in
    /// `scratch.ping.lanes`.
    fn backward_blocks(&mut self, grad_logits: &Tensor, first: usize) {
        let ResScratch {
            ping, pong, tmp, ..
        } = &mut self.scratch;
        let last = &self.stages.last().expect("eight blocks").out.0;
        self.fc
            .backward(self.gap.output(), Act::Flat(grad_logits), Some(pong));
        self.gap
            .backward(Act::Lanes(last), Act::Flat(&pong.flat), Some(ping));
        for i in (first..self.stages.len()).rev() {
            let (before, rest) = self.stages.split_at_mut(i);
            let x = ResNet18::block_input(&self.stem_bn, before, i);
            rest[0].backward(x, &ping.lanes, pong, tmp);
            std::mem::swap(ping, pong);
        }
    }
}

impl Model for ResNet18 {
    fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, mode: Mode) {
        let s = x.shape();
        assert_eq!(s.len(), 4, "ResNet18 input must be [n,c,h,w]");
        let input = &mut self.scratch.input;
        let ring = self.stem_conv.input_ring();
        input.copy_from_nchw(x.data(), [s[0], s[1], s[2], s[3]], ring);
        self.stem_conv.forward(Act::Lanes(input), mode);
        self.stem_bn.forward(self.stem_conv.output(), mode);
        for i in 0..self.stages.len() {
            let (before, rest) = self.stages.split_at_mut(i);
            rest[0].forward(ResNet18::block_input(&self.stem_bn, before, i), mode);
        }
        let last = &self.stages.last().expect("eight blocks").out.0;
        self.gap.forward(Act::Lanes(last), mode);
        self.fc.forward(self.gap.output(), mode);
        out.copy_from(self.fc.output().flat());
    }

    fn backward_scratch(&mut self, grad_logits: &Tensor) {
        self.backward_blocks(grad_logits, 0);
        let ResScratch {
            input, ping, pong, ..
        } = &mut self.scratch;
        let (stem_out, dy) = (self.stem_conv.output(), Act::Lanes(&ping.lanes));
        self.stem_bn.backward(stem_out, dy, Some(pong));
        // The stem's input gradient is dead, but the parameters-only path
        // would lower `realized_flops`, which run fingerprints fold in;
        // switching it is a change of its own.
        let dy = Act::Lanes(&pong.lanes);
        self.stem_conv.backward(Act::Lanes(input), dy, Some(ping));
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
        let stem = [&self.stem_conv, &self.stem_bn];
        let blocks = self.stages.iter().flat_map(BasicBlock::layers);
        let head = [&self.gap, &self.fc];
        stem.into_iter().chain(blocks).chain(head).for_each(f);
    }

    fn for_each_layer_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut AnyLayer)) {
        let stem = [&mut self.stem_conv, &mut self.stem_bn];
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

    /// What an oracle block forward produced: every layer's input, and the
    /// block's output.
    struct Trace {
        x: Tensor,
        h1: Tensor,
        a1: Tensor,
        h2: Tensor,
        hd: Option<Tensor>,
        out: Tensor,
    }

    /// The allocating block composition on NCHW tensors: a fresh tensor per
    /// layer, converted into and out of lanes at each layer's boundary,
    /// `x.clone()` for the identity shortcut, `Tensor::add` and `max(0.0)`
    /// for the residual sum and its ReLU. Kept as the oracle of the scratch
    /// path's buffer reuse.
    fn oracle_block_forward(b: &mut BasicBlock, x: &Tensor, mode: Mode) -> Trace {
        let h1 = b.conv1.fwd(x, mode);
        let a1 = b.bn1.fwd(&h1, mode);
        let h2 = b.conv2.fwd(&a1, mode);
        let main = b.bn2.fwd(&h2, mode);
        let (hd, short) = match &mut b.down {
            Some((conv, bn)) => {
                let hd = conv.fwd(x, mode);
                let s = bn.fwd(&hd, mode);
                (Some(hd), s)
            }
            None => (None, x.clone()),
        };
        let sum = main.add(&short);
        let out = Tensor::from_vec(sum.data().iter().map(|v| v.max(0.0)).collect(), sum.shape());
        Trace {
            x: x.clone(),
            h1,
            a1,
            h2,
            hd,
            out,
        }
    }

    fn oracle_block_backward(b: &mut BasicBlock, t: &Trace, grad: &Tensor) -> Tensor {
        let masked = grad.data().iter().zip(t.out.data());
        let g_sum = masked
            .map(|(&g, &o)| if o > 0.0 { g } else { 0.0 })
            .collect();
        let g_sum = Tensor::from_vec(g_sum, grad.shape());
        let mut g_main = b.bn2.bwd(&t.h2, &g_sum);
        g_main = b.conv2.bwd(&t.a1, &g_main);
        g_main = b.bn1.bwd(&t.h1, &g_main);
        let gx_main = b.conv1.bwd(&t.x, &g_main);
        let gx_short = match (&mut b.down, &t.hd) {
            (Some((conv, bn)), Some(hd)) => {
                let g = bn.bwd(hd, &g_sum);
                conv.bwd(&t.x, &g)
            }
            _ => g_sum,
        };
        gx_main.add(&gx_short)
    }

    /// The oracle forward: logits, and what its backward reads.
    fn oracle_forward(
        m: &mut ResNet18,
        x: &Tensor,
        mode: Mode,
    ) -> (Tensor, Vec<Tensor>, Vec<Trace>) {
        let h = m.stem_conv.fwd(x, mode);
        let mut a = m.stem_bn.fwd(&h, mode);
        let mut traces = Vec::new();
        for block in &mut m.stages {
            let t = oracle_block_forward(block, &a, mode);
            a = t.out.clone();
            traces.push(t);
        }
        let pooled = m.gap.fwd(&a, mode);
        let logits = m.fc.fwd(&pooled, mode);
        (logits, vec![x.clone(), h, a, pooled], traces)
    }

    fn oracle_backward(
        m: &mut ResNet18,
        (inputs, traces): (&[Tensor], &[Trace]),
        grad_logits: &Tensor,
    ) {
        let [x, h, last, pooled] = inputs else {
            unreachable!()
        };
        let mut g = m.fc.bwd(pooled, grad_logits);
        g = m.gap.bwd(last, &g);
        for (block, t) in m.stages.iter_mut().zip(traces).rev() {
            g = oracle_block_backward(block, t, &g);
        }
        g = m.stem_bn.bwd(h, &g);
        let _ = m.stem_conv.bwd(x, &g);
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
                let (expect, inputs, traces) = oracle_forward(&mut oracle, &x, Mode::Train);
                scratch.forward_into(&x, &mut logits, Mode::Train);
                assert_eq!(bits(logits.data()), bits(expect.data()), "logits n={n}");
                let (_, grad) = softmax_cross_entropy(&expect, &labels);
                oracle_backward(&mut oracle, (&inputs, &traces), &grad);
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
    /// step leaves every conv with its output and the dense engine's `dY`
    /// copy and tables, and nothing the size of a column matrix.
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

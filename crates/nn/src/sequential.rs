//! [`Sequential`]: an ordered stack of layers, the whole of SmallCnn and
//! VGG11.

use crate::layer::{Act, AnyLayer, Grads, Mode};
use ft_tensor::{LaneTensor, Tensor};

/// An ordered stack of layers executed front to back.
///
/// Every layer owns its output, so the stack only holds the network input
/// in the lane layout (converted once per forward, with the ring its first
/// layer reads) and the two gradient buffers a backward pass
/// ping-pongs between; a full forward/backward pass allocates nothing once
/// they have grown to the batch geometry. A clone copies the layers and
/// starts with empty buffers.
#[derive(Debug, Default)]
pub struct Sequential {
    /// The layers, in execution order.
    pub layers: Vec<AnyLayer>,
    input: LaneTensor,
    grads: [Grads; 2],
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential {
            layers: self.layers.clone(),
            ..Sequential::default()
        }
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer (builder style); the layer before it writes its
    /// output with the ring the new one reads.
    pub fn push(&mut self, layer: AnyLayer) -> &mut Self {
        if let Some(last) = self.layers.last_mut() {
            last.set_output_ring(layer.input_ring());
        }
        self.layers.push(layer);
        self
    }

    /// Forward through every layer, from `x` (`[n, c, h, w]`, NCHW) to the
    /// `[n, features]` output of the last layer, copied into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4 or the stack does not end in a flat
    /// layer.
    pub fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, mode: Mode) {
        let s = x.shape();
        assert_eq!(s.len(), 4, "stack input must be [n,c,h,w]");
        let ring = self.layers.first().map_or(0, AnyLayer::input_ring);
        self.input
            .copy_from_nchw(x.data(), [s[0], s[1], s[2], s[3]], ring);
        for i in 0..self.layers.len() {
            let (before, rest) = self.layers.split_at_mut(i);
            let src = before
                .last()
                .map_or(Act::Lanes(&self.input), AnyLayer::output);
            rest[0].forward(src, mode);
        }
        match self.layers.last().map(AnyLayer::output) {
            Some(Act::Flat(y)) => out.copy_from(y),
            _ => panic!("a stack's last layer must produce [n, features]"),
        }
    }

    /// Backward through every layer in reverse, discarding the network
    /// input gradient. The leading layer only accumulates its parameter
    /// gradients — for a leading convolution this skips the dX kernel
    /// entirely, since no layer sits before it to consume the result; its
    /// weight gradient does not depend on whether dX runs.
    pub fn backward_discard_input(&mut self, grad: &Tensor) {
        self.backward_from(grad, 0);
    }

    /// Backward from the output down to the layer holding prunable weight
    /// number `shallowest_prunable` (in parameter order, front to back)
    /// and no further: that layer accumulates its parameter gradients and, like
    /// the leading layer of [`Sequential::backward_discard_input`], produces
    /// no input gradient if it is a convolution. Every layer beneath it is
    /// left as its forward pass left it, gradients untouched.
    ///
    /// # Panics
    ///
    /// Panics if the stack has no such prunable weight.
    pub fn backward_down_to(&mut self, grad: &Tensor, shallowest_prunable: usize) {
        let stop = self
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| match l {
                AnyLayer::Conv(c) => c.w.prunable,
                AnyLayer::Linear(fc) => fc.w.prunable,
                _ => false,
            })
            .nth(shallowest_prunable)
            .map(|(idx, _)| idx)
            .expect("prunable layer index out of range");
        self.backward_from(grad, stop);
    }

    /// Backward through `layers[first..]` in reverse; `layers[first]` takes
    /// the parameters-only path when it is a convolution.
    fn backward_from(&mut self, grad: &Tensor, first: usize) {
        let Sequential {
            layers,
            input,
            grads: [ping, pong],
        } = self;
        let last = layers.len() - 1;
        let (mut src, mut dst) = (ping, pong);
        for i in (first..=last).rev() {
            let (before, rest) = layers.split_at_mut(i);
            let x = before.last().map_or(Act::Lanes(&*input), AnyLayer::output);
            let layer = &mut rest[0];
            let dy = if i == last {
                Act::Flat(grad)
            } else {
                src.of_kind(layer.output())
            };
            let skip_gx = i == first && matches!(layer, AnyLayer::Conv(_));
            layer.backward(x, dy, (!skip_gx).then_some(&mut *dst));
            std::mem::swap(&mut src, &mut dst);
        }
    }
}

/// A stack's input gradient: its layers' backward passes, last to first,
/// the first one's included.
#[cfg(test)]
impl crate::layer::Fresh for Sequential {
    fn fwd(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(x, &mut out, mode);
        out
    }

    fn bwd(&mut self, _x: &Tensor, grad: &Tensor) -> Tensor {
        let Sequential { layers, input, .. } = self;
        let mut dy = crate::layer::Owned::Flat(grad.clone());
        for i in (0..layers.len()).rev() {
            let (before, rest) = layers.split_at_mut(i);
            let x = before.last().map_or(Act::Lanes(&*input), AnyLayer::output);
            let mut gx = Grads::default();
            rest[0].backward(x, dy.act(), Some(&mut gx));
            dy = match x {
                Act::Lanes(_) => crate::layer::Owned::Lanes(gx.lanes),
                Act::Flat(_) => crate::layer::Owned::Flat(gx.flat),
            };
        }
        crate::layer::nchw(dy.act())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{mask_param, rng};
    use crate::layer::{BatchNorm2d, Conv2d, Flatten, Fresh, GlobalAvgPool, Linear, MaxPool2x2};
    use ft_runtime::Runtime;

    #[test]
    fn sequential_composes() {
        let mut rng = rng();
        let mut seq = Sequential::new();
        seq.push(AnyLayer::Conv(Conv2d::new(
            &mut rng, 1, 2, 3, 1, 1, true, "c",
        )))
        .push(AnyLayer::Bn(BatchNorm2d::new(2, "bn").with_relu()))
        .push(AnyLayer::Flatten(Flatten::new()))
        .push(AnyLayer::Linear(Linear::new(
            &mut rng,
            2 * 16,
            4,
            true,
            "fc",
        )));
        let x = ft_tensor::normal(&mut rng, &[3, 1, 4, 4], 0.0, 1.0);
        let y = seq.fwd(&x, Mode::Train);
        assert_eq!(y.shape(), &[3, 4]);
        let gx = seq.bwd(&x, &Tensor::ones(&[3, 4]));
        assert_eq!(gx.shape(), &[3, 1, 4, 4]);
        let (mut params, mut bns) = (0, 0);
        for l in &seq.layers {
            l.for_each_param(&mut |_| params += 1);
            bns += usize::from(l.bn_stats().is_some());
        }
        assert_eq!((params, bns), (1 + 2 + 2, 1)); // conv w, bn γβ, fc w+b
    }

    /// A whole layer stack produces bit-identical activations, gradients,
    /// and realized-FLOPs counters on the parallel runtime — the layer-level
    /// face of the runtime determinism contract, covering both the dense
    /// and the sparse dispatch paths.
    #[test]
    fn parallel_runtime_is_bit_identical_through_layers() {
        // The 48×48 input is one sample per conv tile: five tiles a batch.
        let cases = [
            ([3usize, 2, 8, 8], 1usize),
            ([3, 2, 8, 8], 4),
            ([5, 2, 48, 48], 1),
            ([5, 2, 48, 48], 4),
        ];
        for (x_shape, density_keep) in cases {
            let mut rng = rng();
            let mut seq_stack = Sequential::new();
            seq_stack
                .push(AnyLayer::Conv(Conv2d::new(
                    &mut rng, 2, 4, 3, 1, 1, true, "c",
                )))
                .push(AnyLayer::MaxPool(MaxPool2x2::new()))
                .push(AnyLayer::GlobalAvg(GlobalAvgPool::new()))
                .push(AnyLayer::Linear(Linear::new(&mut rng, 4, 3, true, "fc")));
            for l in &mut seq_stack.layers {
                l.for_each_param_mut(&mut |p| {
                    if p.prunable && density_keep > 1 {
                        mask_param(p, density_keep);
                    }
                });
            }
            let mut par_stack = seq_stack.clone();
            for l in &mut par_stack.layers {
                l.set_runtime(Runtime::exact(4).with_min_work(0));
            }

            let x = ft_tensor::normal(&mut rng, &x_shape, 0.0, 1.0);
            let ys = seq_stack.fwd(&x, Mode::Train);
            let yp = par_stack.fwd(&x, Mode::Train);
            assert_eq!(ys.data(), yp.data(), "forward diverged");
            let g = ft_tensor::normal(&mut rng, &[x_shape[0], 3], 0.0, 1.0);
            let gs = seq_stack.bwd(&x, &g);
            let gp = par_stack.bwd(&x, &g);
            assert_eq!(gs.data(), gp.data(), "input grads diverged");
            for (a, b) in seq_stack.layers.iter().zip(&par_stack.layers) {
                let mut par_params = Vec::new();
                b.for_each_param(&mut |p| par_params.push(p));
                let mut par_params = par_params.into_iter();
                a.for_each_param(&mut |a| {
                    let b = par_params.next().expect("same stack");
                    assert_eq!(a.grad.data(), b.grad.data(), "param grads diverged");
                });
                assert_eq!(a.realized_flops(), b.realized_flops());
            }
        }
    }
}

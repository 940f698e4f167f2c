//! The [`Model`] trait and model-generic helpers (flat parameter vectors,
//! mask application, sparse layouts, accuracy).

use crate::layer::{AnyLayer, BnStats, Mode};
use crate::param::Param;
use ft_sparse::{Mask, SparseLayout, WireCtx};
use ft_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Architecture entry for one compute layer, consumed by the analytic
/// FLOPs/memory accounting in `ft-metrics`.
///
/// `prunable_idx` links the entry to its index in the model's
/// [`SparseLayout`] (i.e. its mask layer) when the layer's weight is
/// prunable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LayerArch {
    /// A convolution: `weights = out_c·in_c·k²`, output `out_h × out_w`.
    Conv {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Kernel side.
        kernel: usize,
        /// Output height.
        out_h: usize,
        /// Output width.
        out_w: usize,
        /// Mask layer index if prunable.
        prunable_idx: Option<usize>,
    },
    /// A fully-connected layer.
    Linear {
        /// Input features.
        in_dim: usize,
        /// Output features.
        out_dim: usize,
        /// Mask layer index if prunable.
        prunable_idx: Option<usize>,
    },
    /// A batch-normalization layer over `channels` at `spatial` positions.
    BatchNorm {
        /// Channels.
        channels: usize,
        /// `h·w` positions the statistics reduce over.
        spatial: usize,
    },
}

/// Static description of a model: its compute layers in execution order plus
/// the input geometry, enough for cost accounting without touching weights.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArchInfo {
    /// Human-readable model name (e.g. `"resnet18"`).
    pub name: String,
    /// Input `[channels, height, width]`.
    pub input: [usize; 3],
    /// Number of output classes.
    pub classes: usize,
    /// Compute layers in execution order.
    pub layers: Vec<LayerArch>,
}

/// The object-safe interface every network in this workspace implements.
///
/// The federated simulator, the pruning baselines, and FedTiny itself only
/// interact with models through this trait, so adding a new architecture
/// means implementing exactly its eight required methods:
/// [`Model::forward_into`], [`Model::backward_scratch`],
/// [`Model::backward_down_to`], [`Model::for_each_layer`],
/// [`Model::for_each_layer_mut`], [`Model::clone_model`], [`Model::arch`]
/// and [`Model::block_partition`]. No pass returns the network's input
/// gradient: no caller reads it.
///
/// Everything that only walks the layers — parameters, BatchNorm statistics
/// and momentum, the kernel runtime, realized FLOPs — is a provided method
/// over the two layer visitors and [`AnyLayer`]'s per-kind dispatch, so a
/// new per-layer question is one provided method. Which kernels a weighted
/// layer runs is not a model setting: its weight's mask record decides (see
/// [`crate::DEFAULT_SPARSE_CROSSOVER`]).
pub trait Model: Send + Sync {
    /// Forward pass from NCHW images `x` into a caller-owned logits tensor
    /// `[n, classes]`, through the model's internal scratch arenas:
    /// allocation-free at steady state. `x` enters the lane activation
    /// layout here, once per batch.
    fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, mode: Mode);

    /// [`Model::forward_into`] into a fresh tensor.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(x, &mut out, mode);
        out
    }

    /// Backward pass from the logits gradient through every layer,
    /// accumulating into [`Param::grad`] and discarding the input gradient
    /// — what a training step and the server-side scoring probes run.
    fn backward_scratch(&mut self, grad_logits: &Tensor);

    /// Backward pass that stops once the layer holding prunable weight
    /// number `shallowest_prunable` (a mask-layer index) has its gradient:
    /// every parameter at or above the stopping point receives exactly the
    /// gradient [`Model::backward_scratch`] gives it, bit for bit; parameters
    /// beneath it are left untouched. For a pass that reads gradients of
    /// a few layers near the output only (FedTiny's progressive adjustment
    /// reads one block's). The stacked models stop at the layer itself,
    /// ResNet18 at the residual block that contains it.
    fn backward_down_to(&mut self, grad_logits: &Tensor, shallowest_prunable: usize);

    /// Visits every layer in execution order (a residual block's shortcut
    /// after its main branch), without allocating. Flat parameter vectors,
    /// wire contexts and checkpoints all follow this order.
    fn for_each_layer<'a>(&'a self, f: &mut dyn FnMut(&'a AnyLayer));

    /// Visits every layer mutably, in [`Model::for_each_layer`] order,
    /// without allocating.
    fn for_each_layer_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut AnyLayer));

    /// Visits every parameter in deterministic execution order, without
    /// allocating.
    fn for_each_param<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
        self.for_each_layer(&mut |l| l.for_each_param(f));
    }

    /// Visits every parameter mutably, in [`Model::for_each_param`] order,
    /// without allocating.
    fn for_each_param_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        self.for_each_layer_mut(&mut |l| l.for_each_param_mut(f));
    }

    /// Visits every BatchNorm layer's running statistics in execution order.
    fn for_each_bn_stats<'a>(&'a self, f: &mut dyn FnMut(&'a BnStats)) {
        self.for_each_layer(&mut |l| l.bn_stats().into_iter().for_each(&mut *f));
    }

    /// Visits every BatchNorm layer's running statistics mutably.
    fn for_each_bn_stats_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut BnStats)) {
        self.for_each_layer_mut(&mut |l| l.bn_stats_mut().into_iter().for_each(&mut *f));
    }

    /// All parameters, collected in [`Model::for_each_param`] order.
    fn params(&self) -> Vec<&Param> {
        let mut v = Vec::new();
        self.for_each_param(&mut |p| v.push(p));
        v
    }

    /// All parameters, mutably, in the same order as [`Model::params`].
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = Vec::new();
        self.for_each_param_mut(&mut |p| v.push(p));
        v
    }

    /// Running statistics of every BatchNorm layer, in execution order.
    fn bn_stats(&self) -> Vec<&BnStats> {
        let mut v = Vec::new();
        self.for_each_bn_stats(&mut |s| v.push(s));
        v
    }

    /// Mutable running statistics of every BatchNorm layer.
    fn bn_stats_mut(&mut self) -> Vec<&mut BnStats> {
        let mut v = Vec::new();
        self.for_each_bn_stats_mut(&mut |s| v.push(s));
        v
    }

    /// Overrides the momentum of every BatchNorm layer. Setting 1.0 makes a
    /// single `Train`-mode forward pass replace the running statistics with
    /// the batch statistics (FedTiny's BN adaptation).
    fn set_bn_momentum(&mut self, momentum: f32) {
        self.for_each_layer_mut(&mut |l| l.set_bn_momentum(momentum));
    }

    /// The momentum of the model's BatchNorm layers — one value, since
    /// [`Model::set_bn_momentum`] is the only way to change it. Whoever
    /// turns a used model back into a copy of another (`ft-fl`'s device-model
    /// pool) reads it here, from the first BatchNorm layer.
    ///
    /// # Panics
    ///
    /// Panics if the model has no BatchNorm layer.
    fn bn_momentum(&self) -> f32 {
        let mut first = None;
        self.for_each_layer(&mut |l| first = first.or_else(|| l.bn_momentum()));
        first.expect("the model has BatchNorm")
    }

    /// Deep copy as a boxed trait object.
    fn clone_model(&self) -> Box<dyn Model>;

    /// Static architecture description.
    fn arch(&self) -> ArchInfo;

    /// Partition of *prunable layer indices* into the blocks progressive
    /// pruning iterates over (Fig. 2 of the paper: 5 blocks).
    fn block_partition(&self) -> Vec<Vec<usize>>;

    /// Hands every kernel-bearing layer the parallel
    /// [`Runtime`](ft_runtime::Runtime) its convolution and GEMM
    /// kernels execute on. Models start on the sequential runtime; because
    /// the parallel kernels are bit-identical to the sequential ones, this
    /// only changes wall-clock, never outputs. Cloned models (e.g.
    /// per-device snapshots in `ft-fl`) inherit the runtime of their source.
    fn set_runtime(&mut self, rt: ft_runtime::Runtime) {
        self.for_each_layer_mut(&mut |l| l.set_runtime(rt));
    }

    /// The runtime the model's kernels execute on: what the last
    /// [`Model::set_runtime`] handed it, sequential before that. Read from
    /// the first convolution.
    ///
    /// # Panics
    ///
    /// Panics if the model has no convolution.
    fn runtime(&self) -> ft_runtime::Runtime {
        let mut first = None;
        self.for_each_layer(&mut |l| first = first.or_else(|| l.runtime()));
        first.expect("the model has convolutions")
    }

    /// Multiply–accumulate FLOPs actually executed by the model's forward
    /// and backward kernels since the last reset — the *realized*
    /// counterpart of `ft-metrics`' analytic counts. Every layer's count is
    /// an integer below 2^53, so the sum is exact in any order.
    fn realized_flops(&self) -> f64 {
        let mut total = 0.0;
        self.for_each_layer(&mut |l| total += l.realized_flops());
        total
    }

    /// Clears the realized-FLOPs counters.
    fn reset_realized_flops(&mut self) {
        self.for_each_layer_mut(&mut |l| l.reset_realized_flops());
    }

    /// Clears every gradient accumulator.
    fn zero_grad(&mut self) {
        self.for_each_param_mut(&mut |p| p.zero_grad());
    }
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// Splits `n` prunable layers into `blocks` contiguous, near-equal groups.
/// Used by models to implement [`Model::block_partition`].
pub(crate) fn contiguous_blocks(n: usize, blocks: usize) -> Vec<Vec<usize>> {
    if n == 0 || blocks == 0 {
        return Vec::new();
    }
    let blocks = blocks.min(n);
    let mut out = Vec::with_capacity(blocks);
    let base = n / blocks;
    let extra = n % blocks;
    let mut start = 0;
    for b in 0..blocks {
        let len = base + usize::from(b < extra);
        out.push((start..start + len).collect());
        start += len;
    }
    out
}

/// Flattens every parameter (prunable or not) into one `Vec<f32>`, in
/// [`Model::params`] order. The inverse is [`set_flat_params`].
pub fn flat_params(model: &dyn Model) -> Vec<f32> {
    let mut out = Vec::new();
    flat_params_into(model, &mut out);
    out
}

/// [`flat_params`] into a caller-owned vector: the vector is cleared and
/// refilled, reusing its capacity, so steady-state callers allocate nothing.
pub fn flat_params_into(model: &dyn Model, out: &mut Vec<f32>) {
    out.clear();
    model.for_each_param(&mut |p| out.extend_from_slice(p.data.data()));
}

/// Writes a flat vector produced by [`flat_params`] back into the model.
///
/// # Panics
///
/// Panics if `flat.len()` differs from the model's total parameter count.
pub fn set_flat_params(model: &mut dyn Model, flat: &[f32]) {
    let mut offset = 0;
    model.for_each_param_mut(&mut |p| {
        let n = p.len();
        assert!(
            offset + n <= flat.len(),
            "flat parameter vector too short: {} < {}",
            flat.len(),
            offset + n
        );
        p.data.data_mut().copy_from_slice(&flat[offset..offset + n]);
        offset += n;
    });
    assert_eq!(offset, flat.len(), "flat parameter vector too long");
}

/// Extracts the [`SparseLayout`] of a model: one entry per prunable
/// parameter, in [`Model::params`] order.
pub fn sparse_layout(model: &dyn Model) -> SparseLayout {
    SparseLayout::new(
        model
            .params()
            .into_iter()
            .filter(|p| p.prunable)
            .map(|p| (p.name.clone(), p.len()))
            .collect(),
    )
}

/// Zeroes pruned weights in place: `θ = Θ ⊙ m`.
///
/// Also records the mask on each prunable [`Param`] (bits, density, and a
/// bumped epoch), which is what arms the sparse execution dispatch in
/// `Conv2d` / `Linear`: from the next forward pass on, layers whose density
/// is at or below [`crate::DEFAULT_SPARSE_CROSSOVER`] run on the CSR
/// kernels.
///
/// # Panics
///
/// Panics if the mask does not match the model's prunable layout.
pub fn apply_mask(model: &mut dyn Model, mask: &Mask) {
    let mut l = 0;
    model.for_each_param_mut(&mut |p| {
        if p.prunable {
            mask.apply_layer(l, p.data.data_mut());
            p.note_mask(mask.layer(l));
            l += 1;
        }
    });
    assert_eq!(l, mask.num_layers(), "mask layer count mismatch");
}

/// Zeroes the gradients of pruned weights: `∇L ⊙ m` (Eq. 5 — sparse SGD only
/// updates surviving coordinates).
///
/// # Panics
///
/// Panics if the mask does not match the model's prunable layout.
pub fn mask_grads(model: &mut dyn Model, mask: &Mask) {
    let mut l = 0;
    model.for_each_param_mut(&mut |p| {
        if p.prunable {
            mask.apply_layer(l, p.grad.data_mut());
            l += 1;
        }
    });
    assert_eq!(l, mask.num_layers(), "mask layer count mismatch");
}

/// Builds the [`WireCtx`] the update codecs encode/decode against: one
/// aliveness bit per coordinate of [`flat_params`] (prunable coordinates
/// from `mask`, unprunable ones always alive), the parameter-tensor segment
/// lengths, and the mask epoch stamped on the context.
///
/// # Panics
///
/// Panics if the mask does not match the model's prunable layout.
pub fn wire_ctx(model: &dyn Model, mask: &Mask, epoch: u64) -> WireCtx {
    let params = model.params();
    let mut alive = Vec::with_capacity(params.iter().map(|p| p.len()).sum());
    let mut segments = Vec::with_capacity(params.len());
    let mut l = 0;
    for p in &params {
        segments.push(p.len());
        if p.prunable {
            alive.extend_from_slice(mask.layer(l));
            l += 1;
        } else {
            alive.extend(std::iter::repeat_n(true, p.len()));
        }
    }
    assert_eq!(l, mask.num_layers(), "mask layer count mismatch");
    WireCtx::new(alive, segments, epoch)
}

/// A bit-exact snapshot of a model's learnable state: the flat parameter
/// vector plus every BatchNorm layer's running statistics — everything a
/// transport must ship (or a checkpoint must persist) so a receiver's
/// [`restore_snapshot`] reproduces the sender's model exactly.
///
/// # Examples
///
/// ```
/// use ft_nn::models::SmallCnn;
/// use ft_nn::{restore_snapshot, take_snapshot};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let src = SmallCnn::new(&mut rng, 8, 10, 3, 4);
/// let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let mut dst = SmallCnn::new(&mut rng2, 8, 10, 3, 4);
/// restore_snapshot(&mut dst, &take_snapshot(&src));
/// assert_eq!(take_snapshot(&dst), take_snapshot(&src));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// Every parameter, flattened in [`Model::params`] order.
    pub params: Vec<f32>,
    /// BatchNorm running statistics, in execution order.
    pub bn: Vec<BnStats>,
}

/// Captures a model's learnable state ([`flat_params`] + BN statistics).
pub fn take_snapshot(model: &dyn Model) -> ModelSnapshot {
    ModelSnapshot {
        params: flat_params(model),
        bn: model.bn_stats().into_iter().cloned().collect(),
    }
}

/// Writes a snapshot back into a model of the same architecture; the
/// round-trip with [`take_snapshot`] is exact (no float re-serialization).
///
/// # Panics
///
/// Panics if the parameter count or the BatchNorm layer structure differs
/// from the model's.
pub fn restore_snapshot(model: &mut dyn Model, snap: &ModelSnapshot) {
    set_flat_params(model, &snap.params);
    set_bn_stats(model, &snap.bn);
}

/// Overwrites every BatchNorm layer's running statistics with `stats`, one
/// set per layer in [`Model::for_each_bn_stats`] order — the one writer of
/// BN statistics into a model. Element copies, so the destination buffers
/// are reused.
///
/// # Panics
///
/// Panics if `stats` has a different number of sets than the model has
/// BatchNorm layers, or a set's channel count differs from its layer's.
pub fn set_bn_stats<'s>(model: &mut dyn Model, stats: impl IntoIterator<Item = &'s BnStats>) {
    let mut stats = stats.into_iter();
    model.for_each_bn_stats_mut(&mut |dst| {
        let src = stats
            .next()
            .expect("BatchNorm layer count mismatch: too few sets");
        assert_eq!(dst.mean.len(), src.mean.len(), "BatchNorm channel mismatch");
        assert_eq!(dst.var.len(), src.var.len(), "BatchNorm channel mismatch");
        dst.mean.copy_from_slice(&src.mean);
        dst.var.copy_from_slice(&src.var);
    });
    assert!(
        stats.next().is_none(),
        "BatchNorm layer count mismatch: too many sets"
    );
}

/// The bytes billed for one full set of BatchNorm statistics (what a device
/// uploads per candidate in Alg. 1): a `u32` layer count, then per layer one
/// `u32` channel count and `mean`/`var` as `f32` pairs — `4 + Σ(4 + 8c)`.
///
/// This is 4 bytes per layer short of the wire: the BN section of the
/// transport frames and the checkpoint (`put_bn_stats` in
/// `ft_fl::transport`) writes `mean` and `var` as two counted vectors,
/// `4 + Σ(8 + 8c)`. Correcting it moves every payload figure that
/// bills BN uploads, so the fix waits for a change that re-blesses them.
pub fn bn_stats_encoded_len(stats: &[&BnStats]) -> usize {
    4 + stats
        .iter()
        .map(|s| 4 + 4 * (s.mean.len() + s.var.len()))
        .sum::<usize>()
}

/// Indices into [`Model::params`] of the prunable parameters, in prunable
/// (mask-layer) order.
pub fn prunable_param_indices(model: &dyn Model) -> Vec<usize> {
    model
        .params()
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.prunable.then_some(i))
        .collect()
}

/// Top-1 accuracy of logits against labels.
///
/// # Panics
///
/// Panics if the batch sizes differ or the batch is empty.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let preds = logits.argmax_rows();
    assert_eq!(preds.len(), labels.len(), "accuracy batch mismatch");
    assert!(!labels.is_empty(), "accuracy of empty batch");
    let correct = preds
        .iter()
        .zip(labels.iter())
        .filter(|(p, y)| p == y)
        .count();
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_blocks_cover_everything() {
        let b = contiguous_blocks(7, 3);
        assert_eq!(b, vec![vec![0, 1, 2], vec![3, 4], vec![5, 6]]);
        let flat: Vec<usize> = b.into_iter().flatten().collect();
        assert_eq!(flat, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn contiguous_blocks_edge_cases() {
        assert!(contiguous_blocks(0, 5).is_empty());
        assert!(contiguous_blocks(5, 0).is_empty());
        assert_eq!(contiguous_blocks(3, 5).len(), 3); // capped at n
        assert_eq!(contiguous_blocks(10, 1), vec![(0..10).collect::<Vec<_>>()]);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
    }

    #[test]
    fn wire_ctx_marks_unprunable_coords_alive() {
        use crate::models::SmallCnn;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let model = SmallCnn::new(&mut rng, 8, 10, 3, 4);
        let layout = sparse_layout(&model);
        let mut mask = Mask::ones(&layout);
        for i in 0..layout.layer(0).len {
            mask.set(0, i, false); // kill the whole first prunable layer
        }
        let ctx = wire_ctx(&model, &mask, 7);
        assert_eq!(ctx.epoch, 7);
        assert_eq!(ctx.len(), flat_params(&model).len());
        assert_eq!(
            ctx.segments,
            model.params().iter().map(|p| p.len()).collect::<Vec<_>>()
        );
        // Exactly the pruned prunable coordinates are dead.
        let total_prunable_dead = layout.layer(0).len;
        assert_eq!(ctx.alive_count(), ctx.len() - total_prunable_dead);
    }

    #[test]
    fn bn_stats_wire_size_by_hand() {
        let stats = [
            BnStats {
                mean: vec![0.0; 4],
                var: vec![0.0; 4],
            },
            BnStats {
                mean: vec![0.0; 2],
                var: vec![0.0; 2],
            },
        ];
        let refs: Vec<&BnStats> = stats.iter().collect();
        // 4 (layer count) + per layer: 4 + 4·(mean+var) floats.
        assert_eq!(bn_stats_encoded_len(&refs), 4 + (4 + 32) + (4 + 16));
    }
}

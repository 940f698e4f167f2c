//! Device-side local training and model evaluation.

use crate::config::FlConfig;
use ft_data::{BatchBuf, Dataset};
use ft_nn::loss::{cross_entropy_loss_only, softmax_cross_entropy_into};
use ft_nn::optim::Sgd;
use ft_nn::{
    accuracy, flat_params, flat_params_into, set_flat_params, ArchInfo, BnStats, Mode, Model,
};
use ft_runtime::Runtime;
use ft_sparse::{Codec, Mask, Payload, WireCtx};
use ft_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;

/// Everything the encoder side of the update pipeline needs: the codec, the
/// wire context (aliveness, segments, mask epoch) and the receiver's known
/// mask epoch.
#[derive(Clone, Copy, Debug)]
pub struct WireSpec<'a> {
    /// Wire codec for the upload.
    pub codec: Codec,
    /// Context both ends encode/decode against.
    pub ctx: &'a WireCtx,
    /// Mask epoch the server holds (`MaskCsr` drops indices when it equals
    /// `ctx.epoch`).
    pub peer_epoch: u64,
}

/// What a device sends back after local training: its *encoded update
/// delta* (`θ_k − anchor` under the run's [`Codec`] — never a raw dense
/// parameter vector), refreshed BN statistics, its dataset size (the
/// FedAvg weight), and the realized execution cost of its local epochs.
#[derive(Clone, Debug)]
pub struct DeviceUpdate {
    /// Encoded parameter delta against the global the device downloaded.
    pub payload: Payload,
    /// BatchNorm running statistics after local training.
    pub bn: Vec<BnStats>,
    /// `|D_k|`.
    pub samples: usize,
    /// Multiply–accumulate FLOPs the device's kernels actually executed
    /// (dense or sparse path, whichever the dispatcher chose).
    pub realized_flops: f64,
    /// Wall-clock seconds the device spent in local training.
    pub wall_secs: f64,
}

/// Raw device-side training outcome *before* wire encoding. Stays inside
/// the crate: the buffered scheduler encodes at arrival time (when the
/// server's mask epoch is known), which can be after the task trained, so
/// it briefly holds this device-local state.
#[derive(Clone, Debug)]
pub(crate) struct LocalOutcome {
    /// `θ_k − anchor`, dense, device-local.
    pub(crate) delta: Vec<f32>,
    /// BatchNorm running statistics after local training.
    pub(crate) bn: Vec<BnStats>,
    /// `|D_k|`.
    pub(crate) samples: usize,
    /// Realized kernel FLOPs.
    pub(crate) realized_flops: f64,
    /// Host wall-clock seconds of local training.
    pub(crate) wall_secs: f64,
}

impl LocalOutcome {
    /// Encodes the delta into a [`DeviceUpdate`], consuming the outcome.
    pub(crate) fn encode(
        self,
        codec: Codec,
        ctx: &WireCtx,
        peer_epoch: u64,
        residual: Option<&mut Vec<f32>>,
    ) -> DeviceUpdate {
        DeviceUpdate {
            payload: codec.encode(&self.delta, ctx, peer_epoch, residual),
            bn: self.bn,
            samples: self.samples,
            realized_flops: self.realized_flops,
            wall_secs: self.wall_secs,
        }
    }
}

/// Reusable buffers for the local-training loop: one of these per worker
/// makes every epoch of [`local_train_scratch`] allocation-free at steady
/// state (batch assembly, forward activations, loss gradient, proximal
/// anchor all live here or inside the model's own arenas).
#[derive(Clone, Debug, Default)]
pub struct TrainScratch {
    /// Shuffled sample order for the current epoch.
    order: Vec<usize>,
    /// Mini-batch assembly buffers.
    buf: BatchBuf,
    /// Forward logits.
    logits: Tensor,
    /// Loss gradient w.r.t. the logits.
    grad: Tensor,
    /// FedProx anchor (`θ_global` at entry); only filled when `mu > 0`.
    prox_anchor: Vec<f32>,
}

/// Runs `epochs` of mini-batch SGD on `model` over `data`, with gradients
/// masked by `mask` when given (Eq. 5). The RNG drives batch shuffling only.
pub fn local_train(
    model: &mut dyn Model,
    data: &Dataset,
    mask: Option<&Mask>,
    epochs: usize,
    batch_size: usize,
    sgd: &mut Sgd,
    rng: &mut ChaCha8Rng,
) {
    local_train_prox(model, data, mask, epochs, batch_size, sgd, rng, 0.0);
}

/// [`local_train`] with an optional FedProx proximal term: when `mu > 0`,
/// each step adds `µ(θ − θ_global)` to the gradient, where `θ_global` is the
/// model's state at entry (Li et al., "Federated Optimization in
/// Heterogeneous Networks").
#[allow(clippy::too_many_arguments)]
pub fn local_train_prox(
    model: &mut dyn Model,
    data: &Dataset,
    mask: Option<&Mask>,
    epochs: usize,
    batch_size: usize,
    sgd: &mut Sgd,
    rng: &mut ChaCha8Rng,
    mu: f32,
) {
    let mut scratch = TrainScratch::default();
    local_train_scratch(
        model,
        data,
        mask,
        epochs,
        batch_size,
        sgd,
        rng,
        mu,
        &mut scratch,
    );
}

/// [`local_train_prox`] running through caller-owned [`TrainScratch`]
/// buffers. Bit-identical to the allocating form (same RNG draws, same
/// batch order, same kernel sequence); a reused scratch just skips the
/// per-batch allocations.
#[allow(clippy::too_many_arguments)]
pub fn local_train_scratch(
    model: &mut dyn Model,
    data: &Dataset,
    mask: Option<&Mask>,
    epochs: usize,
    batch_size: usize,
    sgd: &mut Sgd,
    rng: &mut ChaCha8Rng,
    mu: f32,
    scratch: &mut TrainScratch,
) {
    if mu > 0.0 {
        flat_params_into(model, &mut scratch.prox_anchor);
    }
    let bs = batch_size.max(1);
    for _ in 0..epochs {
        scratch.order.clear();
        scratch.order.extend(0..data.len());
        scratch.order.shuffle(rng);
        let mut pos = 0;
        while pos < scratch.order.len() {
            let end = (pos + bs).min(scratch.order.len());
            data.batch_into(&scratch.order[pos..end], &mut scratch.buf);
            pos = end;
            model.forward_into(&scratch.buf.images, &mut scratch.logits, Mode::Train);
            let _ =
                softmax_cross_entropy_into(&scratch.logits, &scratch.buf.labels, &mut scratch.grad);
            model.backward_scratch(&scratch.grad);
            if mu > 0.0 {
                add_proximal_term(model, &scratch.prox_anchor, mu);
            }
            sgd.step(model, mask);
            model.zero_grad();
        }
    }
}

/// Adds `µ(θ − θ_anchor)` to every gradient accumulator.
fn add_proximal_term(model: &mut dyn Model, anchor: &[f32], mu: f32) {
    let mut offset = 0;
    for p in model.params_mut() {
        let n = p.len();
        let a = &anchor[offset..offset + n];
        for ((g, w), &w0) in p
            .grad
            .data_mut()
            .iter_mut()
            .zip(p.data.data().iter())
            .zip(a.iter())
        {
            *g += mu * (w - w0);
        }
        offset += n;
    }
}

/// The per-device RNG seed: a pure function of `(run seed, round, device)`
/// so parallel and sequential execution draw identical streams.
pub fn device_rng_seed(run_seed: u64, round: usize, device: usize) -> u64 {
    run_seed ^ (round as u64).wrapping_mul(0x9e37_79b9) ^ (device as u64) << 32
}

/// Per-worker cached device state: a device-local model restored from the
/// global parameters each round instead of deep-cloned, plus the optimizer,
/// training scratch and flat-vector arenas. One lives in each worker
/// thread's TLS, so repeated rounds reuse every buffer (model weights,
/// layer arenas, velocity, batch assembly) and the per-round cost drops to
/// a handful of `memcpy`s.
struct DeviceTrainer {
    model: Box<dyn Model>,
    sgd: Sgd,
    scratch: TrainScratch,
    anchor: Vec<f32>,
    arch: ArchInfo,
}

thread_local! {
    static DEVICE_TRAINER: RefCell<Option<DeviceTrainer>> = const { RefCell::new(None) };
}

impl DeviceTrainer {
    /// Restores the cached model to an exact functional copy of `global`:
    /// parameters, gradients, BN running statistics and mask state. Layer
    /// scratch arenas and cached sparse plans survive (they re-key on batch
    /// geometry and mask epoch), which is the whole point of the cache.
    fn restore_from(&mut self, global: &dyn Model, rt: &Runtime) {
        flat_params_into(global, &mut self.anchor);
        set_flat_params(self.model.as_mut(), &self.anchor);
        let src_bn = global.bn_stats();
        let mut l = 0;
        self.model.for_each_bn_stats_mut(&mut |dst| {
            let s = src_bn.get(l).expect("BatchNorm layer count mismatch");
            dst.mean.copy_from_slice(&s.mean);
            dst.var.copy_from_slice(&s.var);
            l += 1;
        });
        assert_eq!(l, src_bn.len(), "BatchNorm layer count mismatch");
        let src_params = global.params();
        let mut i = 0;
        self.model.for_each_param_mut(&mut |p| {
            let src = src_params[i];
            p.grad.copy_from(&src.grad);
            if let Some(bits) = &src.mask_bits {
                p.note_mask(bits);
            }
            i += 1;
        });
        self.model.set_runtime(*rt);
        self.model.reset_realized_flops();
    }

    /// Whether the cached model can impersonate `global` after a restore:
    /// same architecture, and no stale mask recorded on a parameter the
    /// global considers unmasked (masks can be asserted but not cleared).
    fn can_restore(&self, global: &dyn Model, arch: &ArchInfo) -> bool {
        if self.arch != *arch {
            return false;
        }
        let src_params = global.params();
        let mut ok = true;
        let mut i = 0;
        self.model.for_each_param(&mut |p| {
            ok &= src_params[i].mask_bits.is_some() || p.mask_bits.is_none();
            i += 1;
        });
        ok && i == src_params.len()
    }
}

/// Trains one device from a snapshot of the global model and returns its
/// *raw* outcome (the dense delta, not yet encoded). `round` selects the
/// RNG stream and the decayed learning rate; `salt` further separates
/// repeated tasks of the same `(round, device)` pair (buffered schedulers
/// restart a device at an unchanged server version) — barrier schedulers
/// pass `0`, which leaves the classic `(seed, round, device)` stream
/// untouched. `rt` is the runtime the device's *kernels* execute on
/// (sequential when the caller already fans devices out across the pool;
/// kernels are bit-identical either way).
///
/// The device model is not cloned: each worker thread keeps a cached
/// [`DeviceTrainer`] and restores it from `global` (bit-identical to a
/// fresh clone, since training state is a pure function of the restored
/// parameters and the round RNG stream).
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_one_device_raw(
    global: &dyn Model,
    data: &Dataset,
    mask: Option<&Mask>,
    cfg: &FlConfig,
    round: usize,
    device: usize,
    salt: u64,
    rt: &Runtime,
) -> LocalOutcome {
    DEVICE_TRAINER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let arch = global.arch();
        let reuse = slot.as_ref().is_some_and(|t| t.can_restore(global, &arch));
        if !reuse {
            *slot = Some(DeviceTrainer {
                model: global.clone_model(),
                sgd: Sgd::default(),
                scratch: TrainScratch::default(),
                anchor: Vec::new(),
                arch,
            });
        }
        let trainer = slot.as_mut().expect("trainer just installed");
        trainer.restore_from(global, rt);

        let mut sgd_cfg = cfg.sgd;
        if cfg.lr_decay != 1.0 {
            sgd_cfg.lr *= cfg.lr_decay.powi(round as i32);
        }
        trainer.sgd.reset_with(sgd_cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(
            device_rng_seed(cfg.seed, round, device) ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03),
        );
        let started = std::time::Instant::now();
        local_train_scratch(
            trainer.model.as_mut(),
            data,
            mask,
            cfg.local_epochs,
            cfg.batch_size,
            &mut trainer.sgd,
            &mut rng,
            cfg.prox_mu,
            &mut trainer.scratch,
        );
        let wall_secs = started.elapsed().as_secs_f64();
        let mut delta = flat_params(trainer.model.as_ref());
        for (d, &a) in delta.iter_mut().zip(trainer.anchor.iter()) {
            *d -= a;
        }
        LocalOutcome {
            delta,
            bn: trainer.model.bn_stats().into_iter().cloned().collect(),
            samples: data.len(),
            realized_flops: trainer.model.realized_flops(),
            wall_secs,
        }
    })
}

/// Trains one device and encodes its update delta under `wire` — the full
/// device side of the typed update pipeline. `residual` is the device's
/// persistent error-feedback accumulator (only used by
/// `Codec::TopK { error_feedback: true }`).
#[allow(clippy::too_many_arguments)]
pub fn train_one_device(
    global: &dyn Model,
    data: &Dataset,
    mask: Option<&Mask>,
    cfg: &FlConfig,
    round: usize,
    device: usize,
    salt: u64,
    wire: &WireSpec<'_>,
    residual: Option<&mut Vec<f32>>,
    rt: &Runtime,
) -> DeviceUpdate {
    train_one_device_raw(global, data, mask, cfg, round, device, salt, rt).encode(
        wire.codec,
        wire.ctx,
        wire.peer_epoch,
        residual,
    )
}

/// Whether a cohort of `cohort` devices trains side by side on `rt`'s pool
/// (one device per worker, kernels inline) rather than one device after
/// another. The server's wall-clock accounting asks the same question.
pub(crate) fn fans_out(cfg: &FlConfig, cohort: usize, rt: &Runtime) -> bool {
    cfg.parallel && cohort > 1 && rt.is_parallel()
}

/// Trains every device from the same global model and returns their encoded
/// updates in device order. When `cfg.parallel`, devices are fanned out over
/// `rt`'s shared worker pool (bounded by `rt.threads()`, not one unbounded
/// OS thread per device); otherwise devices run sequentially and each
/// device's *kernels* draw on `rt` instead.
///
/// `residuals` holds one error-feedback accumulator per device (an empty
/// vector until its first use); codecs without error feedback leave them
/// untouched. Device RNGs are derived from `(cfg.seed, round, device)`,
/// each device owns its residual, and the parallel kernels are bit-identical
/// to the sequential ones, so every execution shape produces identical
/// results.
///
/// # Panics
///
/// Panics if `residuals.len()` differs from `parts.len()`.
#[allow(clippy::too_many_arguments)]
pub fn train_devices_parallel(
    global: &dyn Model,
    parts: &[Dataset],
    mask: Option<&Mask>,
    cfg: &FlConfig,
    round: usize,
    wire: &WireSpec<'_>,
    residuals: &mut [Vec<f32>],
    rt: &Runtime,
) -> Vec<DeviceUpdate> {
    assert_eq!(
        residuals.len(),
        parts.len(),
        "one residual accumulator per device"
    );
    let needs_residual = wire.codec.uses_error_feedback();
    let fan_out = fans_out(cfg, parts.len(), rt);
    // One thread budget for the whole run: either the devices occupy the
    // pool (kernels inline), or a lone device's kernels do.
    let kernel_rt = if fan_out { Runtime::sequential() } else { *rt };
    let run_one = |k: usize, data: &Dataset, res: &mut Vec<f32>| {
        train_one_device(
            global,
            data,
            mask,
            cfg,
            round,
            k,
            0,
            wire,
            needs_residual.then_some(res),
            &kernel_rt,
        )
    };

    if fan_out {
        let mut out: Vec<Option<DeviceUpdate>> = (0..parts.len()).map(|_| None).collect();
        let jobs: Vec<_> = parts
            .iter()
            .zip(residuals.iter_mut())
            .zip(out.iter_mut())
            .enumerate()
            .map(|(k, ((data, res), slot))| (k, data, res, slot))
            .collect();
        rt.scatter(jobs, |(k, data, res, slot)| {
            *slot = Some(run_one(k, data, res));
        });
        out.into_iter()
            .map(|u| u.expect("device job completed"))
            .collect()
    } else {
        parts
            .iter()
            .zip(residuals.iter_mut())
            .enumerate()
            .map(|(k, (d, res))| run_one(k, d, res))
            .collect()
    }
}

/// Top-1 accuracy on a dataset in `Eval` mode, batched to bound memory.
/// Batches are assembled through a reused [`BatchBuf`] (no per-batch index
/// vector or image copy allocation).
pub fn evaluate(model: &mut dyn Model, data: &Dataset) -> f32 {
    assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
    let mut correct = 0.0f64;
    let mut seen = 0usize;
    let n = data.len();
    let bs = 64;
    let mut buf = BatchBuf::default();
    let mut logits = Tensor::default();
    let mut i = 0;
    while i < n {
        data.batch_range_into(i, (i + bs).min(n), &mut buf);
        model.forward_into(&buf.images, &mut logits, Mode::Eval);
        correct += accuracy(&logits, &buf.labels) as f64 * buf.labels.len() as f64;
        seen += buf.labels.len();
        i += bs;
    }
    (correct / seen as f64) as f32
}

/// Mean cross-entropy loss on a dataset in `Eval` mode (Alg. 1 line 19).
pub fn eval_loss(model: &mut dyn Model, data: &Dataset) -> f32 {
    assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
    let mut total = 0.0f64;
    let mut seen = 0usize;
    let n = data.len();
    let bs = 64;
    let mut buf = BatchBuf::default();
    let mut logits = Tensor::default();
    let mut i = 0;
    while i < n {
        data.batch_range_into(i, (i + bs).min(n), &mut buf);
        model.forward_into(&buf.images, &mut logits, Mode::Eval);
        total += cross_entropy_loss_only(&logits, &buf.labels) as f64 * buf.labels.len() as f64;
        seen += buf.labels.len();
        i += bs;
    }
    (total / seen as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ExperimentEnv;
    use crate::spec::ModelSpec;
    use ft_nn::optim::SgdConfig;
    use ft_nn::{apply_mask, sparse_layout, wire_ctx};
    use ft_sparse::Mask;

    /// Dense-codec wire plumbing for a model (the classic exchange).
    fn dense_ctx(model: &dyn Model) -> WireCtx {
        let layout = sparse_layout(model);
        wire_ctx(model, &Mask::ones(&layout), 0)
    }

    fn no_residuals(n: usize) -> Vec<Vec<f32>> {
        vec![Vec::new(); n]
    }

    #[test]
    fn local_train_reduces_loss() {
        let env = ExperimentEnv::tiny_for_tests(1);
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let data = &env.parts[0];
        let before = eval_loss(model.as_mut(), data);
        let mut sgd = Sgd::new(SgdConfig {
            lr: 0.1,
            ..Default::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        local_train(model.as_mut(), data, None, 8, 8, &mut sgd, &mut rng);
        let after = eval_loss(model.as_mut(), data);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let env = ExperimentEnv::tiny_for_tests(2);
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let ctx = dense_ctx(model.as_ref());
        let wire = WireSpec {
            codec: Codec::Dense,
            ctx: &ctx,
            peer_epoch: 0,
        };
        let mut cfg_par = env.cfg;
        cfg_par.parallel = true;
        let mut cfg_seq = env.cfg;
        cfg_seq.parallel = false;
        let n = env.parts.len();
        let a = train_devices_parallel(
            model.as_ref(),
            &env.parts,
            None,
            &cfg_par,
            3,
            &wire,
            &mut no_residuals(n),
            &Runtime::exact(4),
        );
        let b = train_devices_parallel(
            model.as_ref(),
            &env.parts,
            None,
            &cfg_seq,
            3,
            &wire,
            &mut no_residuals(n),
            &Runtime::sequential(),
        );
        assert_eq!(a.len(), b.len());
        for (ua, ub) in a.iter().zip(b.iter()) {
            assert_eq!(ua.payload, ub.payload, "parallel/sequential divergence");
            assert_eq!(ua.samples, ub.samples);
        }
    }

    #[test]
    fn masked_training_preserves_sparsity() {
        let env = ExperimentEnv::tiny_for_tests(3);
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let layout = sparse_layout(model.as_ref());
        let mut mask = Mask::ones(&layout);
        for i in 0..layout.layer(0).len {
            if i % 2 == 0 {
                mask.set(0, i, false);
            }
        }
        apply_mask(model.as_mut(), &mask);
        let ctx = wire_ctx(model.as_ref(), &mask, 0);
        let wire = WireSpec {
            codec: Codec::MaskCsr,
            ctx: &ctx,
            peer_epoch: 0,
        };
        let n = env.parts.len();
        let updates = train_devices_parallel(
            model.as_ref(),
            &env.parts,
            Some(&mask),
            &env.cfg,
            0,
            &wire,
            &mut no_residuals(n),
            &Runtime::sequential(),
        );
        // Decoded deltas keep pruned coordinates at exactly zero (and the
        // anchor is zero there too, so the trained parameters stay zero).
        let mut offset = 0;
        for p in model.params() {
            if p.prunable {
                break;
            }
            offset += p.len();
        }
        for u in &updates {
            let delta = u.payload.decode(&ctx);
            for i in 0..layout.layer(0).len {
                if i % 2 == 0 {
                    assert_eq!(delta[offset + i], 0.0, "pruned weight moved on device");
                }
            }
        }
    }

    #[test]
    fn evaluate_bounds() {
        let env = ExperimentEnv::tiny_for_tests(4);
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let acc = evaluate(model.as_mut(), &env.test);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn device_updates_carry_bn_stats() {
        let env = ExperimentEnv::tiny_for_tests(5);
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let ctx = dense_ctx(model.as_ref());
        let wire = WireSpec {
            codec: Codec::Dense,
            ctx: &ctx,
            peer_epoch: 0,
        };
        let n = env.parts.len();
        let updates = train_devices_parallel(
            model.as_ref(),
            &env.parts,
            None,
            &env.cfg,
            0,
            &wire,
            &mut no_residuals(n),
            &Runtime::sequential(),
        );
        assert_eq!(updates.len(), env.num_devices());
        assert!(!updates[0].bn.is_empty());
        // Training must have moved the BN statistics away from init.
        assert!(updates[0]
            .bn
            .iter()
            .any(|s| s.mean.iter().any(|&m| m != 0.0)));
    }

    #[test]
    fn error_feedback_residuals_persist_across_rounds() {
        // Under TopK with error feedback the untransmitted mass stays on
        // the device: the residual is nonzero after a round and influences
        // the next round's payload.
        let env = ExperimentEnv::tiny_for_tests(9);
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let ctx = dense_ctx(model.as_ref());
        let wire = WireSpec {
            codec: Codec::TopK {
                k_frac: 0.05,
                error_feedback: true,
            },
            ctx: &ctx,
            peer_epoch: 0,
        };
        let mut residuals = no_residuals(env.parts.len());
        let _ = train_devices_parallel(
            model.as_ref(),
            &env.parts,
            None,
            &env.cfg,
            0,
            &wire,
            &mut residuals,
            &Runtime::sequential(),
        );
        assert!(
            residuals.iter().all(|r| !r.is_empty()),
            "residuals untouched"
        );
        assert!(
            residuals.iter().any(|r| r.iter().any(|&v| v != 0.0)),
            "no residual mass accumulated at k_frac = 0.05"
        );
    }
}

//! Device-side local training and model evaluation.

use crate::config::FlConfig;
use ft_data::{BatchBuf, Dataset};
use ft_nn::loss::{cross_entropy_loss_only, softmax_cross_entropy_into};
use ft_nn::optim::Sgd;
use ft_nn::{
    accuracy, flat_params, flat_params_into, set_bn_stats, set_flat_params, ArchInfo, BnStats,
    Mode, Model,
};
use ft_runtime::Runtime;
use ft_sparse::{Codec, Mask, Payload, WireCtx};
use ft_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::sync::Mutex;

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
/// state (batch assembly, forward activations and the loss gradient all
/// live here or inside the model's own arenas).
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
}

/// Runs `epochs` of mini-batch SGD on `model` over `data`, with gradients
/// masked by `mask` when given (Eq. 5); the RNG drives batch shuffling only.
/// Runs through caller-owned [`TrainScratch`] buffers: a reused scratch
/// skips the per-batch allocations and changes nothing else (same RNG draws,
/// same batch order, same kernel sequence).
#[allow(clippy::too_many_arguments)]
pub fn local_train_scratch(
    model: &mut dyn Model,
    data: &Dataset,
    mask: Option<&Mask>,
    epochs: usize,
    batch_size: usize,
    sgd: &mut Sgd,
    rng: &mut ChaCha8Rng,
    scratch: &mut TrainScratch,
) {
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
            sgd.step(model, mask);
            model.zero_grad();
        }
    }
}

/// The per-device RNG seed: a pure function of `(run seed, round, device)`
/// so parallel and sequential execution draw identical streams.
pub fn device_rng_seed(run_seed: u64, round: usize, device: usize) -> u64 {
    run_seed ^ (round as u64).wrapping_mul(0x9e37_79b9) ^ (device as u64) << 32
}

/// A device-local model and everything local training reuses around it:
/// the optimizer, the batch-assembly scratch and the flat anchor. Trainers
/// live in the process-wide [`TrainerPool`]; whoever needs a working copy of
/// the global model — a training device, a selection candidate, a pruning
/// probe — checks one out, has it restored from the global
/// ([`DeviceTrainer::restore_from`]) instead of deep-cloning, and parks it
/// again when done. A parked trainer keeps what a clone would have to
/// regrow: the layers' scratch arenas (≈ 25 MB after one batch-32 step of
/// the benchmark's ResNet18), the sparse plans of an unchanged mask and the
/// batch buffers. It belongs to no thread: which of the pool's workers
/// picks up a job is a matter of timing, so a trainer kept per worker would
/// serve whatever device came its way.
struct DeviceTrainer {
    model: Box<dyn Model>,
    sgd: Sgd,
    scratch: TrainScratch,
    anchor: Vec<f32>,
    arch: ArchInfo,
}

impl DeviceTrainer {
    /// A trainer around a fresh clone of `global`.
    fn new(global: &dyn Model, arch: ArchInfo) -> Self {
        DeviceTrainer {
            model: global.clone_model(),
            sgd: Sgd::default(),
            scratch: TrainScratch::default(),
            anchor: Vec::new(),
            arch,
        }
    }

    /// Makes the model an exact functional copy of `global`, whatever the
    /// previous borrower did to it through the [`Model`] trait: parameters,
    /// gradients, BN running statistics, BN momentum, every parameter's mask
    /// record — a record the global does not have is *cleared* — the kernel
    /// runtime (`rt`) and zeroed realized-FLOPs counters. Scratch arenas
    /// survive, and so does the sparse plan of every layer whose mask record
    /// is unchanged (plans re-key on the mask epoch, which only moves when
    /// the bits do).
    fn restore_from(&mut self, global: &dyn Model, rt: &Runtime) {
        flat_params_into(global, &mut self.anchor);
        set_flat_params(self.model.as_mut(), &self.anchor);
        set_bn_stats(self.model.as_mut(), global.bn_stats());
        let src_params = global.params();
        let mut i = 0;
        self.model.for_each_param_mut(&mut |p| {
            let src = src_params[i];
            p.grad.copy_from(&src.grad);
            match &src.mask_bits {
                Some(bits) => p.note_mask(bits),
                None => p.mask_bits = None,
            }
            i += 1;
        });
        assert_eq!(i, src_params.len(), "parameter count mismatch");
        self.model.set_bn_momentum(global.bn_momentum());
        self.model.set_runtime(*rt);
        self.model.reset_realized_flops();
    }

    /// One device's local training on the restored model: `cfg.local_epochs`
    /// of masked SGD over `data`, on the `(seed, round, device, salt)` RNG
    /// stream.
    fn train(
        &mut self,
        data: &Dataset,
        mask: Option<&Mask>,
        cfg: &FlConfig,
        round: usize,
        device: usize,
        salt: u64,
    ) -> LocalOutcome {
        self.sgd.reset_with(cfg.sgd);
        let mut rng = ChaCha8Rng::seed_from_u64(
            device_rng_seed(cfg.seed, round, device) ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03),
        );
        let started = std::time::Instant::now();
        local_train_scratch(
            self.model.as_mut(),
            data,
            mask,
            cfg.local_epochs,
            cfg.batch_size,
            &mut self.sgd,
            &mut rng,
            &mut self.scratch,
        );
        let wall_secs = started.elapsed().as_secs_f64();
        let mut delta = flat_params(self.model.as_ref());
        for (d, &a) in delta.iter_mut().zip(self.anchor.iter()) {
            *d -= a;
        }
        LocalOutcome {
            delta,
            bn: self.model.bn_stats().into_iter().cloned().collect(),
            samples: data.len(),
            realized_flops: self.model.realized_flops(),
            wall_secs,
        }
    }
}

/// The trainers nobody is using, most recently parked last.
#[derive(Default)]
struct TrainerPool(Mutex<Vec<DeviceTrainer>>);

/// Most trainers the pool keeps parked; one more evicts the one parked
/// longest. A fan-out borrows at most `rt.threads()` trainers at a time, so
/// what is parked beyond the widest pool in use is a trainer nobody comes
/// back for — a model of a run that ended. Eight covers four workers in each
/// of two runs sharing a process (a TCP server beside its loopback fleet, two
/// test threads), at ≈ 30 MB apiece for the benchmark's ResNet18.
const MAX_PARKED: usize = 8;

static POOL: TrainerPool = TrainerPool(Mutex::new(Vec::new()));

impl TrainerPool {
    /// Runs `f` on a trainer restored from `global`: the most recently parked
    /// one of `global`'s architecture, or a new one around a clone if none
    /// is parked. The trainer is parked again when `f` returns; if `f`
    /// panics it is dropped with whatever `f` left in it. The lock is held
    /// to take and to park, never across `f`, so a panicking borrower cannot
    /// poison it.
    fn with<R>(
        &self,
        global: &dyn Model,
        rt: &Runtime,
        f: impl FnOnce(&mut DeviceTrainer) -> R,
    ) -> R {
        let arch = global.arch();
        let parked = {
            let mut parked = self.0.lock().expect("trainer pool lock");
            (parked.iter().rposition(|t| t.arch == arch)).map(|i| parked.remove(i))
        };
        let mut trainer = parked.unwrap_or_else(|| DeviceTrainer::new(global, arch));
        trainer.restore_from(global, rt);
        let out = f(&mut trainer);
        let evicted = {
            let mut parked = self.0.lock().expect("trainer pool lock");
            parked.push(trainer);
            (parked.len() > MAX_PARKED).then(|| parked.remove(0))
        };
        // Freed after the lock is released.
        drop(evicted);
        out
    }
}

/// Lends `f` a working copy of `global` from the process-wide pool of device
/// models, its kernels on `kernel_rt`: an exact functional copy — same
/// parameters, gradients, BN statistics and momentum, mask records — that
/// `f` may change in any way the [`Model`] trait allows. Its realized-FLOPs
/// counters start at zero. What `f` gets over
/// `global.clone_model()` is a model whose arenas are already grown and
/// whose sparse plans are already built, when an earlier borrower left them
/// so; results are bit-identical either way.
pub fn with_device_model<R>(
    global: &dyn Model,
    kernel_rt: &Runtime,
    f: impl FnOnce(&mut dyn Model) -> R,
) -> R {
    POOL.with(global, kernel_rt, |t| f(t.model.as_mut()))
}

/// Trains one device from a snapshot of the global model and returns its
/// *raw* outcome (the dense delta, not yet encoded). `round` selects the
/// RNG stream; `salt` further separates
/// repeated tasks of the same `(round, device)` pair (buffered schedulers
/// restart a device at an unchanged server version) — barrier schedulers
/// pass `0`, which leaves the classic `(seed, round, device)` stream
/// untouched. `rt` is the runtime the device's *kernels* execute on
/// (sequential when the caller already fans devices out across the pool;
/// kernels are bit-identical either way).
///
/// The device model is not cloned: it is a pooled trainer's, restored from
/// `global` (bit-identical to a fresh clone, since training state is a pure
/// function of the restored model and the round RNG stream) — the same pool
/// [`with_device_model`] lends from.
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
    POOL.with(global, rt, |t| {
        t.train(data, mask, cfg, round, device, salt)
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
pub(crate) fn fans_out(cohort: usize, rt: &Runtime) -> bool {
    cohort > 1 && rt.is_parallel()
}

/// The one thread budget of a fan-out over `jobs` whole devices or selection
/// candidates: `(fan_out, kernel_rt)` — the runtime the jobs are scattered
/// on and the runtime each job's kernels get. Either the jobs occupy `rt`'s
/// pool and their kernels run inline, or (one job, a one-thread pool) the
/// job runs alone and its kernels draw on `rt`; never both, so runnable
/// threads stay within `rt.threads()`. Every device- or candidate-level
/// fan-out in the workspace takes its two runtimes from here.
pub fn thread_budget(jobs: usize, rt: &Runtime) -> (Runtime, Runtime) {
    if fans_out(jobs, rt) {
        (*rt, Runtime::sequential())
    } else {
        (Runtime::sequential(), *rt)
    }
}

/// The key every device-level fan-out sorts its jobs by before
/// [`Runtime::scatter`]: device `k` of `parts` goes by descending partition
/// size, ties by index. The pool hands the next job to whichever thread is
/// free, so this is Graham's longest-first list schedule: the large
/// partitions start early, the small ones fill the gaps, and a round's
/// training makespan stays within 4/3 of the optimum. Results still land
/// by device — every job writes its own slot — so the order moves no bits.
pub fn deal_key(parts: &[Dataset], k: usize) -> (Reverse<usize>, usize) {
    (Reverse(parts[k].len()), k)
}

/// Trains every device from the same global model and returns their encoded
/// updates in device order. Devices are fanned out over `rt`'s shared worker
/// pool (bounded by `rt.threads()`, not one unbounded OS thread per device),
/// longest partition first ([`deal_key`]); a lone device, or a one-thread
/// pool, trains on `rt`'s kernels instead ([`thread_budget`]).
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
    let (fan_out, kernel_rt) = thread_budget(parts.len(), rt);
    let mut out: Vec<Option<DeviceUpdate>> = (0..parts.len()).map(|_| None).collect();
    let mut jobs: Vec<_> = parts
        .iter()
        .zip(residuals.iter_mut())
        .zip(out.iter_mut())
        .enumerate()
        .map(|(k, ((data, res), slot))| (k, data, res, slot))
        .collect();
    jobs.sort_by_key(|&(k, ..)| deal_key(parts, k));
    fan_out.scatter(jobs, |(k, data, res, slot)| {
        *slot = Some(train_one_device(
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
        ));
    });
    out.into_iter()
        .map(|u| u.expect("device job completed"))
        .collect()
}

/// Top-1 accuracy on a dataset in `Eval` mode, batched to bound memory.
pub fn evaluate(model: &mut dyn Model, data: &Dataset) -> f32 {
    eval_mean(model, data, accuracy)
}

/// Mean cross-entropy loss on a dataset in `Eval` mode (Alg. 1 line 19).
pub fn eval_loss(model: &mut dyn Model, data: &Dataset) -> f32 {
    eval_mean(model, data, cross_entropy_loss_only)
}

/// The `Eval`-mode walk behind [`evaluate`] and [`eval_loss`]: batches of
/// 64 in dataset order, assembled through a reused [`BatchBuf`] (no
/// per-batch index vector or image copy allocation), each batch's
/// `stat(logits, labels)` weighted by its size, averaged over the dataset.
fn eval_mean(model: &mut dyn Model, data: &Dataset, stat: fn(&Tensor, &[usize]) -> f32) -> f32 {
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
        total += stat(&logits, &buf.labels) as f64 * buf.labels.len() as f64;
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
        let mut scratch = TrainScratch::default();
        local_train_scratch(
            model.as_mut(),
            data,
            None,
            8,
            8,
            &mut sgd,
            &mut rng,
            &mut scratch,
        );
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
        let n = env.parts.len();
        let a = train_devices_parallel(
            model.as_ref(),
            &env.parts,
            None,
            &env.cfg,
            3,
            &wire,
            &mut no_residuals(n),
            &Runtime::exact(4),
        );
        let b = train_devices_parallel(
            model.as_ref(),
            &env.parts,
            None,
            &env.cfg,
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_outcome(got: &LocalOutcome, want: &LocalOutcome, what: &str) {
        assert_eq!(bits(&got.delta), bits(&want.delta), "{what}: delta");
        assert_eq!(got.bn.len(), want.bn.len());
        for (g, w) in got.bn.iter().zip(&want.bn) {
            assert_eq!(bits(&g.mean), bits(&w.mean), "{what}: BN mean");
            assert_eq!(bits(&g.var), bits(&w.var), "{what}: BN var");
        }
        assert_eq!(got.realized_flops, want.realized_flops, "{what}: FLOPs");
        assert_eq!(got.samples, want.samples);
    }

    /// A magnitude mask over `model`'s prunable weights at one density.
    fn magnitude_mask_of(model: &dyn Model, density: f32) -> Mask {
        let layout = sparse_layout(model);
        let params = model.params();
        let weights: Vec<&[f32]> = params
            .iter()
            .filter(|p| p.prunable)
            .map(|p| p.data.data())
            .collect();
        let densities = ft_sparse::uniform_density_vector(&layout, density);
        ft_sparse::magnitude_mask(&layout, &weights, &densities)
    }

    /// Whatever the previous borrowers did, a pooled trainer trains like one
    /// that was never used: after a borrower that applied *another* mask,
    /// set BN momentum to 1.0 and ran `Train` forwards (selection), and
    /// after one that cleared two layers' mask records and ran a dense
    /// backward (the pruning probe) — dense and at d = 0.05, sequential
    /// kernels and four workers. The dense global has no mask records, so
    /// there the restore has to *clear* the first borrower's.
    #[test]
    fn pooled_trainer_matches_fresh_clone_bit_for_bit() {
        let env = ExperimentEnv::tiny_for_tests(6);
        let data = &env.parts[0];
        let (x, labels) = data.full_batch();
        for (density, rt) in [
            (1.0f32, Runtime::sequential()),
            (1.0, Runtime::exact(4).with_min_work(0)),
            (0.05, Runtime::sequential()),
            (0.05, Runtime::exact(4).with_min_work(0)),
        ] {
            let what = format!("d={density} threads={}", rt.threads());
            let mut global = env.build_model(&ModelSpec::small_cnn_test());
            let mask = (density < 1.0).then(|| magnitude_mask_of(global.as_ref(), density));
            if let Some(mask) = &mask {
                apply_mask(global.as_mut(), mask);
            }
            let global = global.as_ref();
            let train = |t: &mut DeviceTrainer| t.train(data, mask.as_ref(), &env.cfg, 2, 0, 0);
            let fresh = TrainerPool::default().with(global, &rt, train);
            assert!(fresh.delta.iter().any(|&d| d != 0.0), "{what}: no training");

            let pool = TrainerPool::default();
            let other = magnitude_mask_of(global, 0.4);
            pool.with(global, &rt, |t| {
                apply_mask(t.model.as_mut(), &other);
                t.model.set_bn_momentum(1.0);
                for _ in 0..2 {
                    let _ = t.model.forward(&x, Mode::Train);
                }
            });
            assert_same_outcome(&pool.with(global, &rt, train), &fresh, &what);

            pool.with(global, &rt, |t| {
                t.model.for_each_param_mut(&mut |p| p.mask_bits = None);
                let logits = t.model.forward(&x, Mode::Train);
                let (_, grad) = ft_nn::loss::softmax_cross_entropy(&logits, &labels);
                t.model.backward_scratch(&grad);
                assert!(t.model.params().iter().all(|p| p.grad.max_abs() > 0.0));
            });
            assert_same_outcome(&pool.with(global, &rt, train), &fresh, &what);
            // One trainer served all four borrowers.
            assert_eq!(pool.0.lock().unwrap().len(), 1, "{what}");
        }
    }

    fn model_address(t: &DeviceTrainer) -> *const u8 {
        t.model.as_ref() as *const dyn Model as *const u8
    }

    #[test]
    fn pooled_check_out_matches_the_architecture_and_keeps_the_rest_parked() {
        let env = ExperimentEnv::tiny_for_tests(7);
        let rt = Runtime::sequential();
        let narrow = env.build_model(&ModelSpec::small_cnn_test());
        let wide = env.build_model(&ModelSpec::SmallCnn { width: 6, input: 8 });
        let pool = TrainerPool::default();
        let first = pool.with(narrow.as_ref(), &rt, |t| model_address(t));
        // Another architecture: a new trainer, while the first stays parked.
        let second = pool.with(wide.as_ref(), &rt, |t| {
            assert_eq!(t.arch, wide.arch());
            model_address(t)
        });
        assert_ne!(first, second);
        assert_eq!(pool.0.lock().unwrap().len(), 2);
        // …and is the one handed out when its architecture comes back.
        let train = |t: &mut DeviceTrainer| {
            (
                model_address(t),
                t.train(&env.parts[1], None, &env.cfg, 0, 1, 0),
            )
        };
        let (again, got) = pool.with(narrow.as_ref(), &rt, train);
        assert_eq!(again, first);
        let (_, want) = TrainerPool::default().with(narrow.as_ref(), &rt, train);
        assert_same_outcome(&got, &want, "parked trainer");
        assert_eq!(pool.0.lock().unwrap().len(), 2);
    }

    #[test]
    fn pooled_parking_is_bounded() {
        let env = ExperimentEnv::tiny_for_tests(7);
        let rt = Runtime::sequential();
        let pool = TrainerPool::default();
        for width in 1..=MAX_PARKED + 2 {
            let model = env.build_model(&ModelSpec::SmallCnn { width, input: 8 });
            pool.with(model.as_ref(), &rt, |_| ());
        }
        let parked = pool.0.lock().unwrap();
        assert_eq!(parked.len(), MAX_PARKED);
        // The ones parked longest went first.
        let newest = env.build_model(&ModelSpec::SmallCnn {
            width: MAX_PARKED + 2,
            input: 8,
        });
        assert_eq!(parked.last().unwrap().arch, newest.arch());
    }

    #[test]
    fn pooled_panicking_borrower_does_not_poison_later_check_outs() {
        let env = ExperimentEnv::tiny_for_tests(8);
        let rt = Runtime::sequential();
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let pool = TrainerPool::default();
        pool.with(model.as_ref(), &rt, |_| ());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with(model.as_ref(), &rt, |t| {
                t.model.set_bn_momentum(1.0);
                panic!("borrower fails");
            })
        }));
        assert!(panicked.is_err());
        // Its trainer is gone, the pool is not.
        assert!(pool.0.lock().unwrap().is_empty());
        let out = pool.with(model.as_ref(), &rt, |t| {
            t.train(&env.parts[0], None, &env.cfg, 0, 0, 0)
        });
        assert_eq!(out.samples, env.parts[0].len());
        assert_eq!(pool.0.lock().unwrap().len(), 1);
    }

    /// The one fan-out rule, and the model a borrower gets is on the runtime
    /// it was promised: inside a fanned cohort the kernels are sequential,
    /// for a lone job they get the pool.
    #[test]
    fn pooled_models_run_on_the_kernel_runtime_of_the_thread_budget() {
        let env = ExperimentEnv::tiny_for_tests(9);
        let rt = Runtime::exact(4);
        let seq = Runtime::sequential();
        assert_eq!(thread_budget(6, &rt), (rt, seq));
        assert_eq!(thread_budget(1, &rt), (seq, rt));
        assert_eq!(thread_budget(6, &seq), (seq, seq));

        let mut global = env.build_model(&ModelSpec::small_cnn_test());
        global.set_runtime(rt);
        for jobs in [6usize, 1] {
            let (_, kernel_rt) = thread_budget(jobs, &rt);
            let seen = with_device_model(global.as_ref(), &kernel_rt, |m| m.runtime());
            assert_eq!(seen, kernel_rt, "{jobs} jobs");
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

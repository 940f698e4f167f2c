//! Adaptive batch-normalization selection (Algorithm 1) and the vanilla
//! selection ablation.

use crate::on_device_models;
use ft_data::Dataset;
use ft_fl::{aggregate_bn_stats, eval_loss, ExperimentEnv};
use ft_metrics::{bn_stats_bytes, densities_from_mask, forward_flops, sparse_model_bytes};
use ft_nn::{apply_mask, bn_stats_encoded_len, set_bn_stats, sparse_layout, Mode, Model, Runtime};
use ft_sparse::{magnitude_masks, noisy_density_vector, Mask};
use ft_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Candidate-pool generation knobs (Sec. IV-A2, "Uniform Noise strategy").
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SelectionConfig {
    /// Target overall density `d_target`.
    pub d_target: f32,
    /// Pool size `C` (paper default 50; optimal `C* = 0.1 / d_target`).
    pub pool_size: usize,
    /// Relative half-width of the uniform noise `e_l` added to each layer's
    /// density (`e_l ~ U(±spread · d_target)`).
    pub noise_spread: f32,
    /// Seed for candidate generation.
    pub seed: u64,
}

impl SelectionConfig {
    /// The paper's optimal pool size `C* = 0.1 / d_target`, capped to at
    /// least 1.
    pub fn optimal_pool_size(d_target: f32) -> usize {
        ((0.1 / d_target.max(1e-6)).round() as usize).max(1)
    }

    /// Paper-style config at a target density with `C = C*`.
    pub fn paper_default(d_target: f32, seed: u64) -> Self {
        SelectionConfig {
            d_target,
            pool_size: Self::optimal_pool_size(d_target),
            noise_spread: 0.5,
            seed,
        }
    }
}

/// Result of a selection pass.
#[derive(Clone, Debug)]
pub struct SelectionOutcome {
    /// The selected coarse-pruned mask `m_0`.
    pub mask: Mask,
    /// Index of the winning candidate.
    pub selected: usize,
    /// Weighted average loss of each candidate (lower = better).
    pub candidate_losses: Vec<f32>,
    /// Extra per-device FLOPs spent on the selection passes (Table II).
    pub extra_flops: f64,
    /// Per-device *analytic* communication volume in bytes (Fig. 5 right).
    pub comm_bytes: f64,
    /// Per-device *measured* wire bytes: the encoded candidate downloads
    /// plus the BN-stat exchanges at their exact encoded sizes.
    pub payload_bytes: f64,
}

/// Generates the candidate pool: `C` magnitude-pruned masks with layer-wise
/// densities `d_l = d_target + e_l`, each accepted only if its overall
/// density stays within `d_target`.
///
/// The first candidate always uses the exact uniform density vector (zero
/// noise) so the pool contains the "obvious" baseline the noise perturbs.
///
/// Every candidate prunes the *same* weights, so each layer is ranked once
/// and every candidate keeps a prefix of that ranking
/// ([`magnitude_masks`]): the pool costs about what one mask does, and
/// equal magnitudes at a cut go to the lowest index in every candidate.
pub fn generate_candidate_pool(model: &dyn Model, cfg: &SelectionConfig) -> Vec<Mask> {
    let layout = sparse_layout(model);
    let params = model.params();
    let weights: Vec<&[f32]> = params
        .iter()
        .filter(|p| p.prunable)
        .map(|p| p.data.data())
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xca41_d1da);
    let densities: Vec<Vec<f32>> = (0..cfg.pool_size.max(1))
        .map(|i| {
            if i == 0 {
                ft_sparse::uniform_density_vector(&layout, cfg.d_target)
            } else {
                noisy_density_vector(&mut rng, &layout, cfg.d_target, cfg.noise_spread)
            }
        })
        .collect();
    magnitude_masks(&layout, &weights, &densities)
}

/// Algorithm 1: adaptive batch-normalization selection.
///
/// Devices recalibrate each candidate's BN statistics on their development
/// split (forward passes with frozen parameters), the server aggregates the
/// statistics weighted by `|D̂_k|` (Eq. 4), devices score the recalibrated
/// candidates by local evaluation loss, and the server returns the candidate
/// with the lowest weighted loss.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn adaptive_bn_selection(
    global: &dyn Model,
    env: &ExperimentEnv,
    candidates: &[Mask],
) -> SelectionOutcome {
    select(global, env, candidates, true, &env.cfg.runtime())
}

/// Vanilla selection (the Fig. 4 ablation): devices score candidates with
/// the *unadapted* global BN statistics; no recalibration round happens.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn vanilla_selection(
    global: &dyn Model,
    env: &ExperimentEnv,
    candidates: &[Mask],
) -> SelectionOutcome {
    select(global, env, candidates, false, &env.cfg.runtime())
}

/// One candidate's `|D̂_k|`-weighted loss over the devices' development
/// splits, on `m`, a working copy of `global`. The candidate is built
/// **once** — the mask applied and its sparse plans packed one time — and
/// every device of both passes runs on it: what a device would do on a
/// private copy depends only on the candidate and on the BN statistics it
/// starts from, and those are put back before each device's turn.
fn score_candidate(
    global: &dyn Model,
    m: &mut dyn Model,
    mask: &Mask,
    dev_sets: &[Dataset],
    adapt_bn: bool,
) -> f32 {
    apply_mask(m, mask);
    // --- Device side, pass 1: BN recalibration (skipped for vanilla).
    if adapt_bn {
        // Momentum 1.0: one forward pass replaces the running stats with
        // this development split's batch statistics.
        m.set_bn_momentum(1.0);
        let global_stats = global.bn_stats();
        let mut logits = Tensor::default();
        let mut updates = Vec::with_capacity(dev_sets.len());
        for dev in dev_sets {
            // `1.0·batch + 0.0·running` still reads the running value (a
            // NaN or an infinity there survives the zero), so each device
            // starts from the global's, not its predecessor's.
            set_bn_stats(m, global_stats.iter().copied());
            let (x, _) = dev.full_batch();
            m.forward_into(&x, &mut logits, Mode::Train);
            let stats: Vec<_> = m.bn_stats().into_iter().cloned().collect();
            updates.push((stats, dev.len() as f64));
        }
        // --- Server side: Eq. 4 weighted aggregation.
        let updates: Vec<_> = updates.iter().map(|(s, w)| (s.as_slice(), *w)).collect();
        set_bn_stats(m, &aggregate_bn_stats(&updates));
    }

    // --- Device side, pass 2: score the candidate by local loss (`Eval`
    // forwards leave the model as they found it).
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for dev in dev_sets {
        let loss = eval_loss(m, dev);
        num += loss as f64 * dev.len() as f64;
        den += dev.len() as f64;
    }
    (num / den) as f32
}

/// Both selections, on the worker pool `rt`: one borrowed device model per
/// candidate ([`on_device_models`]).
fn select(
    global: &dyn Model,
    env: &ExperimentEnv,
    candidates: &[Mask],
    adapt_bn: bool,
    rt: &Runtime,
) -> SelectionOutcome {
    assert!(!candidates.is_empty(), "candidate pool is empty");
    let dev_sets = device_dev_splits(env);
    let arch = global.arch();

    let losses = on_device_models(
        global,
        candidates.len(),
        rt,
        |c| c,
        |c, m| score_candidate(global, m, &candidates[c], &dev_sets, adapt_bn),
    );

    let selected = losses
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .expect("nonempty pool");

    // --- Cost accounting (per device, Table II / Fig. 5 conventions):
    // the analytic formulas next to the measured encoded sizes.
    let max_dev = dev_sets.iter().map(Dataset::len).max().unwrap_or(0) as f64;
    let passes = if adapt_bn { 2.0 } else { 1.0 };
    let bn_wire = bn_stats_encoded_len(&global.bn_stats()) as f64;
    let mut extra_flops = 0.0;
    let mut comm = 0.0;
    let mut payload = 0.0;
    for mask in candidates {
        let d = densities_from_mask(mask);
        extra_flops += passes * max_dev * forward_flops(&arch, &d);
        // Download the sparse candidate; exchange BN stats both ways when
        // adapting; upload one loss scalar.
        comm += sparse_model_bytes(&arch, &d);
        // Measured: the candidate travels as an indexed MaskCsr payload
        // (the device does not hold the candidate mask yet).
        payload += candidate_payload_len(global, mask) as f64;
        if adapt_bn {
            comm += 3.0 * bn_stats_bytes(&arch); // up, aggregated down — and a refresh up
            payload += 3.0 * bn_wire;
        }
        comm += 4.0;
        payload += 4.0;
    }

    SelectionOutcome {
        mask: candidates[selected].clone(),
        selected,
        candidate_losses: losses,
        extra_flops,
        comm_bytes: comm,
        payload_bytes: payload,
    }
}

/// Measured wire size of one coarse-pruning candidate download: the global
/// model under the candidate mask as an *indexed* `MaskCsr` payload (the
/// receiving device has never seen this mask, so offsets must travel).
fn candidate_payload_len(global: &dyn Model, mask: &Mask) -> usize {
    let ctx = ft_nn::wire_ctx(global, mask, 1);
    // `encoded_len_for` is closed-form and exact; epoch 1 vs peer 0 forces
    // the indexed form.
    ft_sparse::Codec::MaskCsr.encoded_len_for(&ctx, false)
}

/// The per-device development splits `D̂_k ⊂ D_k` (ratio `cfg.dev_fraction`),
/// seeded so every selection pass sees the same splits.
fn device_dev_splits(env: &ExperimentEnv) -> Vec<Dataset> {
    env.parts
        .iter()
        .enumerate()
        .map(|(k, part)| {
            let mut rng = ChaCha8Rng::seed_from_u64(env.cfg.seed ^ 0xde5 ^ ((k as u64) << 16));
            part.dev_split(&mut rng, env.cfg.dev_fraction)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_fl::ModelSpec;

    fn setup() -> (ExperimentEnv, Box<dyn Model>) {
        let env = ExperimentEnv::tiny_for_tests(1);
        let model = env.build_model(&ModelSpec::small_cnn_test());
        (env, model)
    }

    /// The form `score_candidate` replaced, kept as its oracle: a fresh
    /// clone of the global model per candidate × device × pass.
    fn score_on_a_clone_per_device(
        global: &dyn Model,
        mask: &Mask,
        dev_sets: &[Dataset],
        adapt_bn: bool,
    ) -> f32 {
        let global_stats = if adapt_bn {
            let mut updates = Vec::with_capacity(dev_sets.len());
            for dev in dev_sets {
                let mut m = global.clone_model();
                apply_mask(m.as_mut(), mask);
                m.set_bn_momentum(1.0);
                let (x, _) = dev.full_batch();
                let _ = m.forward(&x, Mode::Train);
                let stats: Vec<_> = m.bn_stats().into_iter().cloned().collect();
                updates.push((stats, dev.len() as f64));
            }
            let updates: Vec<_> = updates.iter().map(|(s, w)| (s.as_slice(), *w)).collect();
            Some(aggregate_bn_stats(&updates))
        } else {
            None
        };
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for dev in dev_sets {
            let mut m = global.clone_model();
            apply_mask(m.as_mut(), mask);
            if let Some(stats) = &global_stats {
                set_bn_stats(m.as_mut(), stats);
            }
            let loss = eval_loss(m.as_mut(), dev);
            num += loss as f64 * dev.len() as f64;
            den += dev.len() as f64;
        }
        (num / den) as f32
    }

    /// One pooled model per candidate scores exactly like a clone per
    /// device: adaptive and vanilla, candidates one after another and dealt to
    /// four workers — on a global whose BN statistics have moved off
    /// their initial values and whose pooled copies the previous case left
    /// dirty (another candidate's mask, momentum 1.0, recalibrated
    /// statistics).
    #[test]
    fn one_model_per_candidate_scores_like_a_clone_per_device() {
        let (env, mut model) = setup();
        let (x, _) = env.parts[0].full_batch();
        for _ in 0..3 {
            let _ = model.forward(&x, Mode::Train);
        }
        let cfg = SelectionConfig {
            d_target: 0.3,
            pool_size: 5,
            noise_spread: 0.5,
            seed: 11,
        };
        let pool = generate_candidate_pool(model.as_ref(), &cfg);
        let dev_sets = device_dev_splits(&env);
        for adapt_bn in [true, false] {
            let want: Vec<u32> = pool
                .iter()
                .map(|m| {
                    score_on_a_clone_per_device(model.as_ref(), m, &dev_sets, adapt_bn).to_bits()
                })
                .collect();
            for rt in [Runtime::sequential(), Runtime::exact(4)] {
                let out = select(model.as_ref(), &env, &pool, adapt_bn, &rt);
                let got: Vec<u32> = out.candidate_losses.iter().map(|l| l.to_bits()).collect();
                assert_eq!(got, want, "adapt_bn={adapt_bn} threads={}", rt.threads());
            }
        }
    }

    #[test]
    fn pool_respects_density_budget() {
        let (_, model) = setup();
        let cfg = SelectionConfig {
            d_target: 0.3,
            pool_size: 6,
            noise_spread: 0.5,
            seed: 0,
        };
        let pool = generate_candidate_pool(model.as_ref(), &cfg);
        assert_eq!(pool.len(), 6);
        for mask in &pool {
            assert!(mask.density() <= 0.3 + 0.02, "density {}", mask.density());
        }
        // Candidates differ from one another.
        assert!(pool.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn first_candidate_is_uniform() {
        let (_, model) = setup();
        let cfg = SelectionConfig {
            d_target: 0.5,
            pool_size: 3,
            noise_spread: 0.9,
            seed: 2,
        };
        let pool = generate_candidate_pool(model.as_ref(), &cfg);
        let layout = sparse_layout(model.as_ref());
        for l in 0..layout.num_layers() {
            let expect =
                ((0.5f64 * layout.layer(l).len as f64).ceil() as usize).min(layout.layer(l).len);
            assert_eq!(pool[0].layer_ones(l), expect);
        }
    }

    #[test]
    fn adaptive_selection_returns_valid_outcome() {
        let (env, model) = setup();
        let cfg = SelectionConfig {
            d_target: 0.3,
            pool_size: 4,
            noise_spread: 0.5,
            seed: 3,
        };
        let pool = generate_candidate_pool(model.as_ref(), &cfg);
        let out = adaptive_bn_selection(model.as_ref(), &env, &pool);
        assert_eq!(out.candidate_losses.len(), 4);
        assert!(out.selected < 4);
        assert_eq!(out.mask, pool[out.selected]);
        // Selected candidate has the minimal loss.
        let min = out
            .candidate_losses
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        assert_eq!(out.candidate_losses[out.selected], min);
        assert!(out.extra_flops > 0.0);
        assert!(out.comm_bytes > 0.0);
    }

    #[test]
    fn vanilla_is_cheaper_than_adaptive() {
        let (env, model) = setup();
        let cfg = SelectionConfig {
            d_target: 0.3,
            pool_size: 3,
            noise_spread: 0.5,
            seed: 4,
        };
        let pool = generate_candidate_pool(model.as_ref(), &cfg);
        let adaptive = adaptive_bn_selection(model.as_ref(), &env, &pool);
        let vanilla = vanilla_selection(model.as_ref(), &env, &pool);
        assert!(vanilla.extra_flops < adaptive.extra_flops);
        assert!(vanilla.comm_bytes < adaptive.comm_bytes);
    }

    #[test]
    fn adaptation_changes_scores() {
        // BN recalibration must actually change candidate losses relative to
        // vanilla scoring (this is the entire point of Alg. 1).
        let (env, model) = setup();
        let cfg = SelectionConfig {
            d_target: 0.3,
            pool_size: 4,
            noise_spread: 0.5,
            seed: 5,
        };
        let pool = generate_candidate_pool(model.as_ref(), &cfg);
        let adaptive = adaptive_bn_selection(model.as_ref(), &env, &pool);
        let vanilla = vanilla_selection(model.as_ref(), &env, &pool);
        let diff: f32 = adaptive
            .candidate_losses
            .iter()
            .zip(vanilla.candidate_losses.iter())
            .map(|(a, v)| (a - v).abs())
            .sum();
        assert!(diff > 1e-4, "BN adaptation had no effect on losses");
    }

    #[test]
    fn bn_recalibration_lowers_candidate_losses() {
        // Recalibrated BN statistics match the evaluation data, so the
        // average candidate loss after adaptation should not exceed the
        // stale-statistics (vanilla) loss by more than noise.
        let (env, model) = setup();
        let cfg = SelectionConfig {
            d_target: 0.3,
            pool_size: 4,
            noise_spread: 0.5,
            seed: 8,
        };
        let pool = generate_candidate_pool(model.as_ref(), &cfg);
        let adaptive = adaptive_bn_selection(model.as_ref(), &env, &pool);
        let vanilla = vanilla_selection(model.as_ref(), &env, &pool);
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&adaptive.candidate_losses) <= mean(&vanilla.candidate_losses) + 0.05,
            "adaptation should not hurt average loss: {:?} vs {:?}",
            adaptive.candidate_losses,
            vanilla.candidate_losses
        );
    }

    #[test]
    fn selection_scales_with_pool_size() {
        let (env, model) = setup();
        for pool_size in [1usize, 2, 8] {
            let cfg = SelectionConfig {
                d_target: 0.4,
                pool_size,
                noise_spread: 0.5,
                seed: 9,
            };
            let pool = generate_candidate_pool(model.as_ref(), &cfg);
            assert_eq!(pool.len(), pool_size);
            let out = adaptive_bn_selection(model.as_ref(), &env, &pool);
            assert_eq!(out.candidate_losses.len(), pool_size);
        }
    }

    #[test]
    fn comm_grows_linearly_with_pool() {
        // Fig. 5 right: selection communication is linear in the pool size.
        let (env, model) = setup();
        let mk = |c: usize| {
            let cfg = SelectionConfig {
                d_target: 0.3,
                pool_size: c,
                noise_spread: 0.0,
                seed: 1,
            };
            let pool = generate_candidate_pool(model.as_ref(), &cfg);
            adaptive_bn_selection(model.as_ref(), &env, &pool).comm_bytes
        };
        let c2 = mk(2);
        let c4 = mk(4);
        assert!((c4 / c2 - 2.0).abs() < 0.05, "comm {c2} -> {c4} not linear");
    }

    #[test]
    fn optimal_pool_size_formula() {
        assert_eq!(SelectionConfig::optimal_pool_size(0.01), 10);
        assert_eq!(SelectionConfig::optimal_pool_size(0.005), 20);
        assert_eq!(SelectionConfig::optimal_pool_size(0.001), 100);
        assert_eq!(SelectionConfig::optimal_pool_size(1.0), 1);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (mut env, model) = setup();
        let cfg = SelectionConfig {
            d_target: 0.4,
            pool_size: 3,
            noise_spread: 0.5,
            seed: 6,
        };
        let pool = generate_candidate_pool(model.as_ref(), &cfg);
        env.cfg.threads = 1;
        let seq = adaptive_bn_selection(model.as_ref(), &env, &pool);
        env.cfg.threads = 4;
        let par = adaptive_bn_selection(model.as_ref(), &env, &pool);
        assert_eq!(seq.selected, par.selected);
        assert_eq!(seq.candidate_losses, par.candidate_losses);
    }
}

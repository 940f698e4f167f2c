//! Pruning-at-initialization mask constructors: SNIP, SynFlow, FL-PQSU.
//!
//! These all run *on the server* before federated training starts
//! (Sec. IV-A3): SNIP uses the public one-shot dataset `D_s`, SynFlow is
//! data-free, FL-PQSU ranks by L1 norm of the (random) initial weights.

use ft_data::Dataset;
use ft_nn::loss::softmax_cross_entropy;
use ft_nn::{prunable_param_indices, sparse_layout, Mode, Model};
use ft_sparse::{global_topk_mask, magnitude_mask, uniform_density_vector, Mask, SparseLayout};
use ft_tensor::Tensor;

/// Number of iterative pruning steps for SNIP/SynFlow. The paper uses 100
/// epochs; scores stabilize long before that at our scale, so the default is
/// smaller but the functions accept any count.
pub const DEFAULT_ITERATIVE_STEPS: usize = 10;

/// FL-PQSU's pruning stage: one-shot L1-norm (magnitude) pruning with a
/// uniform layer-wise density, applied to the initial weights on the server.
pub fn l1_oneshot_mask(model: &dyn Model, d_target: f32) -> Mask {
    let layout = sparse_layout(model);
    let params = model.params();
    let weights: Vec<&[f32]> = params
        .iter()
        .filter(|p| p.prunable)
        .map(|p| p.data.data())
        .collect();
    magnitude_mask(
        &layout,
        &weights,
        &uniform_density_vector(&layout, d_target),
    )
}

/// SNIP: iterative connection-sensitivity pruning on the server's public
/// dataset. Scores are `|g ⊙ w|` with a *global* ranking across layers —
/// which is exactly what makes SNIP collapse entire layers at extreme
/// sparsity (the failure mode Fig. 3 shows).
///
/// # Panics
///
/// Panics if `public` is empty or `steps == 0`.
pub fn snip_mask(model: &dyn Model, public: &Dataset, d_target: f32, steps: usize) -> Mask {
    assert!(!public.is_empty(), "SNIP needs a public dataset");
    assert!(steps > 0, "need at least one pruning step");
    let layout = sparse_layout(model);
    let mut mask = Mask::ones(&layout);
    for step in 1..=steps {
        let d_step = step_density(d_target, step, steps);
        let mut probe = model.clone_model();
        ft_nn::apply_mask(probe.as_mut(), &mask);
        let (x, y) = public.full_batch();
        let logits = probe.forward(&x, Mode::Train);
        let (_, grad) = softmax_cross_entropy(&logits, &y);
        probe.backward_scratch(&grad);
        let scores = saliency_scores(probe.as_ref(), &mask);
        mask = global_topk_mask(&layout, &scores, keep_of(&layout, d_step));
    }
    mask
}

/// SynFlow: iterative, data-free synaptic-flow pruning. The probe model
/// takes absolute values of all parameters, neutral BN statistics, and a
/// forward pass on an all-ones input; the objective is the sum of logits and
/// scores are `|∂R/∂w ⊙ w|`. Per-iteration *global* ranking with an
/// exponential density schedule, which preserves layer connectivity.
///
/// # Panics
///
/// Panics if `steps == 0`.
pub fn synflow_mask(model: &dyn Model, d_target: f32, steps: usize) -> Mask {
    assert!(steps > 0, "need at least one pruning step");
    let layout = sparse_layout(model);
    let [c, h, w] = model.arch().input;
    let mut mask = Mask::ones(&layout);
    for step in 1..=steps {
        let d_step = step_density(d_target, step, steps);
        let mut probe = model.clone_model();
        // Linearize: |params|, β = 0, neutral running statistics, Eval mode.
        for p in probe.params_mut() {
            match p.kind {
                ft_nn::ParamKind::BnBeta | ft_nn::ParamKind::Bias => p.data.fill_zero(),
                _ => p.data.map_in_place(f32::abs),
            }
        }
        for stats in probe.bn_stats_mut() {
            stats.mean.iter_mut().for_each(|m| *m = 0.0);
            stats.var.iter_mut().for_each(|v| *v = 1.0);
        }
        ft_nn::apply_mask(probe.as_mut(), &mask);
        // Eval mode: BN is the affine map `|γ|·x̂` with neutral statistics,
        // so synaptic flow is preserved (Train-mode batch statistics would
        // cancel the gradient of constant channels exactly).
        let ones = Tensor::ones(&[1, c, h, w]);
        let logits = probe.forward(&ones, Mode::Eval);
        // R = Σ logits ⇒ grad_logits = 1.
        probe.backward_scratch(&Tensor::ones(logits.shape()));
        let scores = saliency_scores(probe.as_ref(), &mask);
        mask = global_topk_mask(&layout, &scores, keep_of(&layout, d_step));
    }
    mask
}

/// GraSP (Wang et al., ICLR 2020): prunes the weights whose removal *least
/// reduces gradient flow* after pruning. Scores are `s_i = -w_i (H g)_i`
/// with the Hessian–gradient product approximated by finite differences,
/// `Hg ≈ (∇L(w + εg) − ∇L(w)) / ε`; the **highest**-scoring weights are
/// pruned (low score = keep).
///
/// Not part of the paper's evaluated baselines (it is cited as related
/// work); provided as an extension with the same server-side at-init
/// interface as SNIP.
///
/// # Panics
///
/// Panics if `public` is empty.
pub fn grasp_mask(model: &dyn Model, public: &Dataset, d_target: f32) -> Mask {
    assert!(!public.is_empty(), "GraSP needs a public dataset");
    let layout = sparse_layout(model);
    let (x, y) = public.full_batch();

    // Pass 1: gradient at w.
    let mut probe1 = model.clone_model();
    let logits = probe1.forward(&x, Mode::Train);
    let (_, grad) = softmax_cross_entropy(&logits, &y);
    probe1.backward_scratch(&grad);
    let g1: Vec<Vec<f32>> = probe1
        .params()
        .iter()
        .map(|p| p.grad.data().to_vec())
        .collect();

    // Pass 2: gradient at w + εg (same batch).
    let eps = {
        let gnorm: f32 = g1
            .iter()
            .flat_map(|g| g.iter())
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt();
        if gnorm > 0.0 {
            1e-2 / gnorm
        } else {
            1e-2
        }
    };
    let mut probe2 = model.clone_model();
    for (p, g) in probe2.params_mut().into_iter().zip(g1.iter()) {
        for (w, &gv) in p.data.data_mut().iter_mut().zip(g.iter()) {
            *w += eps * gv;
        }
    }
    let logits = probe2.forward(&x, Mode::Train);
    let (_, grad) = softmax_cross_entropy(&logits, &y);
    probe2.backward_scratch(&grad);

    // Keep the lowest s_i = -w_i (Hg)_i, i.e. prune the largest: rank by the
    // negated score, w_i (Hg)_i, highest first.
    let pos = prunable_param_indices(model);
    let params = model.params();
    let params2 = probe2.params();
    let scores: Vec<f32> = (pos.iter())
        .flat_map(|&pi| {
            let w = params[pi].data.data();
            let (g_before, g_after) = (&g1[pi], params2[pi].grad.data());
            (0..w.len()).map(move |i| w[i] * ((g_after[i] - g_before[i]) / eps))
        })
        .collect();
    global_topk_mask(&layout, &scores, keep_of(&layout, d_target))
}

/// Exponential density schedule `d_step = d_target^(step/steps)` used by the
/// iterative at-init pruners (Tanaka et al.).
fn step_density(d_target: f32, step: usize, steps: usize) -> f32 {
    d_target.powf(step as f32 / steps as f32)
}

/// `|g ⊙ w|` over the flat prunable coordinates. A coordinate that is pruned
/// or scores exactly zero gets NaN — never kept by the global ranking — so
/// pruned coordinates stay pruned and a dead one is not kept to fill a quota.
fn saliency_scores(model: &dyn Model, mask: &Mask) -> Vec<f32> {
    let pos = prunable_param_indices(model);
    let params = model.params();
    let mut scores = Vec::with_capacity(mask.total_len());
    for (l, &pi) in pos.iter().enumerate() {
        let (w, g) = (params[pi].data.data(), params[pi].grad.data());
        scores.extend((0..w.len()).map(|i| {
            let s = (w[i] * g[i]).abs();
            if mask.get(l, i) && s > 0.0 {
                s
            } else {
                f32::NAN
            }
        }));
    }
    scores
}

/// The `ceil(d·N)` coordinates a global density `d` keeps of the layout's `N`.
pub(crate) fn keep_of(layout: &SparseLayout, density: f32) -> usize {
    let total = layout.total_len();
    (((density as f64) * total as f64).ceil() as usize).min(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    use ft_fl::{ExperimentEnv, ModelSpec};

    fn setup() -> (ExperimentEnv, Box<dyn Model>) {
        let env = ExperimentEnv::tiny_for_tests(11);
        let model = env.build_model(&ModelSpec::small_cnn_test());
        (env, model)
    }

    #[test]
    fn l1_mask_hits_uniform_density_per_layer() {
        let (_, model) = setup();
        let mask = l1_oneshot_mask(model.as_ref(), 0.25);
        for l in 0..mask.num_layers() {
            let expect = ((0.25f64 * mask.layer(l).len() as f64).ceil()) as usize;
            assert_eq!(mask.layer_ones(l), expect, "layer {l}");
        }
    }

    #[test]
    fn snip_respects_global_budget() {
        let (env, model) = setup();
        let mask = snip_mask(model.as_ref(), &env.server_public, 0.2, 4);
        let total = mask.total_len() as f32;
        assert!(mask.ones_count() as f32 <= 0.2 * total + 2.0);
        assert!(mask.ones_count() > 0);
    }

    #[test]
    fn snip_uses_gradients_not_just_magnitude() {
        let (env, model) = setup();
        let snip = snip_mask(model.as_ref(), &env.server_public, 0.3, 3);
        let l1 = l1_oneshot_mask(model.as_ref(), 0.3);
        assert_ne!(snip, l1, "SNIP should differ from pure magnitude");
    }

    #[test]
    fn synflow_keeps_every_layer_alive_at_moderate_density() {
        let (_, model) = setup();
        let mask = synflow_mask(model.as_ref(), 0.1, 6);
        for l in 0..mask.num_layers() {
            assert!(mask.layer_ones(l) > 0, "SynFlow collapsed layer {l}");
        }
    }

    #[test]
    fn synflow_is_deterministic() {
        let (_, model) = setup();
        let a = synflow_mask(model.as_ref(), 0.2, 3);
        let b = synflow_mask(model.as_ref(), 0.2, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn step_density_schedule_endpoints() {
        assert!((step_density(0.01, 10, 10) - 0.01).abs() < 1e-6);
        assert!(step_density(0.01, 1, 10) > 0.5);
    }

    #[test]
    fn iterative_snip_differs_from_oneshot() {
        let (env, model) = setup();
        let one = snip_mask(model.as_ref(), &env.server_public, 0.1, 1);
        let many = snip_mask(model.as_ref(), &env.server_public, 0.1, 6);
        assert_ne!(one, many);
    }
}

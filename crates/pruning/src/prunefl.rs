//! PruneFL (Jiang et al., TNNLS 2022), adapted per Sec. IV-A3.
//!
//! The server produces the initial pruned model from a small public dataset
//! (all devices are resource-constrained, so no "powerful device" exists),
//! then *adaptive pruning* periodically reconfigures the mask from
//! **full-size aggregated gradients** uploaded by the devices. Devices
//! therefore hold dense importance scores (Table I's ~0.5× memory) and the
//! intermediate model is much denser than the target (~0.34× max FLOPs):
//! the density anneals from `d0 = max(d_target, 0.34)` down to `d_target`
//! by `R_stop`.
//!
//! Shared with FedTiny: the device probe ([`fedtiny::probe_devices`] — the
//! same batch per `(round, device)` and the same pooled engine, with *every*
//! prunable layer dense, since PruneFL reads them all) and the global
//! top-k ranking ([`ft_sparse::global_topk_mask`]). PruneFL's own: the
//! server-side saliency initialisation, full-size uploads folded in device
//! order, the `w² + g²` importance, the annealed density and the dense
//! scores in the device-memory model.

use crate::atinit::keep_of;
use fedtiny::probe_devices;
use ft_fl::{run_federated_rounds, CostLedger, ExperimentEnv, ModelSpec, RunResult};
use ft_metrics::{forward_flops_dense, total_params, ExtraMemory};
use ft_nn::loss::softmax_cross_entropy;
use ft_nn::{apply_mask, prunable_param_indices, sparse_layout, Mode, Model};
use ft_sparse::{global_topk_mask, Mask, PruneSchedule, SparseLayout};

/// Initial density of PruneFL's server-side coarse model. Matches the
/// ~0.34× max-FLOPs factor Table I reports at every target density.
pub const PRUNEFL_INITIAL_DENSITY: f32 = 0.34;

/// Runs PruneFL: server-side initial pruning at `d0`, then full-gradient
/// adaptive pruning every `schedule.delta_r` rounds with the density
/// annealing to `d_target` by `schedule.r_stop`.
pub fn run_prunefl(
    env: &ExperimentEnv,
    spec: &ModelSpec,
    d_target: f32,
    schedule: PruneSchedule,
    eval_every: usize,
) -> RunResult {
    let mut global = env.build_model(spec);
    let layout = sparse_layout(global.as_ref());
    let d0 = d_target.max(PRUNEFL_INITIAL_DENSITY);

    // Server-side initial pruning: one-shot |g ⊙ w| saliency on public data.
    let mut mask = server_saliency_mask(global.as_ref(), env, &layout, d0);
    apply_mask(global.as_mut(), &mask);

    let arch = global.arch();
    let total = layout.total_len();
    let batch_flops = |bs: f64| 3.0 * forward_flops_dense(&arch) * bs;
    let mut ledger = CostLedger::new();

    let history = {
        let mut hook = |model: &mut dyn Model,
                        mask: &mut Mask,
                        round: usize,
                        ledger: &mut CostLedger|
         -> f64 {
            if !schedule.adjusts_at(round) {
                return 0.0;
            }
            // Devices upload full-size gradients from one local batch.
            let agg = aggregated_probe_grads(model, env, round);
            // Anneal density toward the target.
            let frac = (round as f32 / schedule.r_stop.max(1) as f32).min(1.0);
            let d_round = d0 * (d_target / d0).powf(frac);
            // Importance: w² + g² — PruneFL retains parameters that are
            // either already useful (trained magnitude) or promising
            // (large aggregated gradient). Pure g² would discard every
            // trained weight at each adjustment and collapse accuracy.
            let scores: Vec<f32> = {
                let pos = prunable_param_indices(model);
                let params = model.params();
                let weights = pos.iter().map(|&pi| params[pi].data.data());
                (weights.zip(&agg))
                    .flat_map(|(w, g)| w.iter().zip(g).map(|(w, g)| w * w + g * g))
                    .collect()
            };
            *mask = global_topk_mask(&layout, &scores, keep_of(&layout, d_round));
            apply_mask(model, mask);
            // Comm: dense gradients up (4 B/param/device), new mask down.
            ledger.add_comm(4.0 * total_params(&arch) as f64 * env.num_devices() as f64);
            ledger.add_comm(total as f64 / 8.0);
            // Measured mirror: one Dense payload per device plus the mask
            // bitmap broadcast.
            ledger.add_payload_comm(
                (ft_sparse::PAYLOAD_HEADER_BYTES as f64 + 4.0 * total_params(&arch) as f64)
                    * env.num_devices() as f64
                    + (total as f64 / 8.0).ceil(),
            );
            // One dense forward/backward batch per device.
            let bs = env.cfg.batch_size as f64;
            batch_flops(bs)
        };
        run_federated_rounds(
            global.as_mut(),
            &mut mask,
            env,
            eval_every,
            &mut ledger,
            &mut hook,
        )
    };

    RunResult::from_ledger(
        "prunefl",
        history,
        &mask,
        &arch,
        ExtraMemory::DenseScores,
        env.cfg.codec.name(),
        &ledger,
    )
}

/// One-shot `|g ⊙ w|` global saliency mask from the server's public data.
fn server_saliency_mask(
    model: &dyn Model,
    env: &ExperimentEnv,
    layout: &SparseLayout,
    density: f32,
) -> Mask {
    // `model` carries no mask record yet, so every layer of the probe runs
    // dense and yields the dense `g ⊙ w` scores saliency needs.
    let mut probe = model.clone_model();
    let (x, y) = env.server_public.full_batch();
    let logits = probe.forward(&x, Mode::Train);
    let (_, grad) = softmax_cross_entropy(&logits, &y);
    probe.backward_scratch(&grad);
    let pos = prunable_param_indices(probe.as_ref());
    let params = probe.params();
    let scores: Vec<f32> = (pos.iter())
        .flat_map(|&pi| {
            let (w, g) = (params[pi].data.data(), params[pi].grad.data());
            w.iter().zip(g).map(|(w, g)| (w * g).abs())
        })
        .collect();
    global_topk_mask(layout, &scores, keep_of(layout, density))
}

/// Weighted-average dense gradients of every prunable layer, one probe batch
/// per device (what PruneFL devices upload during adaptive pruning), folded
/// in device order.
fn aggregated_probe_grads(global: &dyn Model, env: &ExperimentEnv, round: usize) -> Vec<Vec<f32>> {
    let weights = env.device_weights();
    let pos = prunable_param_indices(global);
    // PruneFL devices upload *dense* gradients (that is the method's cost
    // story): every prunable layer runs dense in the probe.
    let all_layers: Vec<usize> = (0..pos.len()).collect();
    let rt = env.cfg.runtime();
    let uploads = probe_devices(global, env, round, &all_layers, &rt, |k, model| {
        let w = weights[k] as f32;
        let params = model.params();
        pos.iter()
            .map(|&pi| params[pi].grad.data().iter().map(|&g| g * w).collect())
            .collect::<Vec<Vec<f32>>>()
    });
    let mut uploads = uploads.into_iter();
    let mut agg = uploads.next().expect("at least one device");
    for grads in uploads {
        for (a, g) in agg.iter_mut().zip(&grads) {
            for (av, &gv) in a.iter_mut().zip(g) {
                *av += gv;
            }
        }
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prunefl_anneals_to_target() {
        let env = ExperimentEnv::tiny_for_tests(30);
        let schedule = PruneSchedule {
            delta_r: 1,
            r_stop: 2,
            local_iters: 1,
        };
        let r = run_prunefl(&env, &ModelSpec::small_cnn_test(), 0.1, schedule, 2);
        assert_eq!(r.method, "prunefl");
        // After r_stop the density should be at (or near, ceil) the target.
        assert!(r.final_density <= 0.12, "density {}", r.final_density);
        assert!(r.max_round_flops > 0.0);
    }

    #[test]
    fn prunefl_memory_includes_dense_scores() {
        let env = ExperimentEnv::tiny_for_tests(31);
        let spec = ModelSpec::small_cnn_test();
        let schedule = PruneSchedule {
            delta_r: 1,
            r_stop: 2,
            local_iters: 1,
        };
        let r = run_prunefl(&env, &spec, 0.05, schedule, 0);
        let sparse_only = {
            let model = env.build_model(&spec);
            let mask = crate::atinit::l1_oneshot_mask(model.as_ref(), 0.05);
            crate::fixed::run_with_fixed_mask(&env, &spec, &mask, "x", ExtraMemory::None, 0)
        };
        assert!(
            r.memory_bytes > sparse_only.memory_bytes,
            "PruneFL must pay for dense scores"
        );
    }

    #[test]
    fn initial_density_floor_is_034() {
        let env = ExperimentEnv::tiny_for_tests(32);
        // With no adjustments (delta_r larger than rounds, so only round 0
        // adjusts at d_round = d0), density stays near d0 = 0.34.
        let schedule = PruneSchedule {
            delta_r: 100,
            r_stop: 100,
            local_iters: 1,
        };
        let r = run_prunefl(&env, &ModelSpec::small_cnn_test(), 0.01, schedule, 0);
        assert!(r.final_density > 0.2, "density {}", r.final_density);
    }
}

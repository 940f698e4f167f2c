//! Progressive pruning (Algorithm 2): grow/prune adjustments with `O(a)`
//! device memory.

use crate::on_device_models;
use ft_fl::{deal_key, ExperimentEnv};
use ft_metrics::{densities_from_mask, forward_flops, layer_forward_flops};
use ft_nn::loss::softmax_cross_entropy;
use ft_nn::{prunable_param_indices, LayerArch, Mode, Model, Runtime};
use ft_sparse::{Mask, PruneSchedule, TopKBuffer};
use ft_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How much of the model one adjustment round touches (Table III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// One prunable layer per adjustment.
    Layer,
    /// One Fig. 2 block per adjustment (the paper's choice).
    Block,
    /// Every prunable layer every adjustment.
    Entire,
}

/// Progressive-pruning configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProgressiveConfig {
    /// When adjustments happen and how large they are.
    pub schedule: PruneSchedule,
    /// Adjustment granularity.
    pub granularity: Granularity,
    /// Iterate units from the output toward the input (`(b)` rows of
    /// Table III; the paper's best setting).
    pub backward_order: bool,
    /// First round at which adjustments may fire. Algorithm 2 adjusts at
    /// `t = 0` (untrained weights), which is harmless over the paper's 300
    /// rounds but destructive in short runs where magnitude-based dropping
    /// has no signal yet; scaled runs set this to `ΔR`.
    pub start_round: usize,
}

impl ProgressiveConfig {
    /// The paper's defaults: block granularity, backward order,
    /// `ΔR = 10`, `R_stop = 100`.
    pub fn paper_default(local_iters: usize) -> Self {
        ProgressiveConfig {
            schedule: PruneSchedule::paper_default(local_iters),
            granularity: Granularity::Block,
            backward_order: true,
            start_round: 0,
        }
    }

    /// Fast schedule for unit tests (adjusts every round, stops early).
    pub fn tiny_for_tests() -> Self {
        ProgressiveConfig {
            schedule: PruneSchedule {
                delta_r: 1,
                r_stop: 3,
                local_iters: 1,
            },
            granularity: Granularity::Block,
            backward_order: true,
            start_round: 0,
        }
    }

    /// The sequence of *units* (groups of prunable-layer indices) that
    /// adjustments rotate through, already ordered according to
    /// `backward_order`.
    pub fn units(&self, model: &dyn Model, num_prunable: usize) -> Vec<Vec<usize>> {
        let mut units = match self.granularity {
            Granularity::Layer => (0..num_prunable).map(|l| vec![l]).collect(),
            Granularity::Block => model.block_partition(),
            Granularity::Entire => vec![(0..num_prunable).collect()],
        };
        if self.backward_order {
            units.reverse();
        }
        units
    }
}

/// One grow/prune adjustment's bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct AdjustmentReport {
    /// Per adjusted layer: `(layer, a_t)` counts actually applied.
    pub adjusted: Vec<(usize, usize)>,
    /// *Analytic* upload volume in bytes (top-k gradients, all devices).
    pub comm_bytes: f64,
    /// *Measured* upload volume: the exact wire size of every device's
    /// `(index, gradient)` pair payload.
    pub payload_bytes: f64,
    /// Extra per-device FLOPs for the dense-gradient batch.
    pub extra_flops: f64,
    /// Largest buffer capacity any device needed (`O(a)` bound).
    pub max_buffer: usize,
}

/// `a_t^l` per layer of `unit` at `round`, from the cosine schedule over
/// *alive* counts; layers with nothing to adjust are left out.
fn adjustment_counts(
    mask: &Mask,
    cfg: &ProgressiveConfig,
    unit: &[usize],
    round: usize,
) -> Vec<(usize, usize)> {
    unit.iter()
        .map(|&l| {
            let alive = mask.layer_ones(l);
            let pruned = mask.layer(l).len() - alive;
            let a = cfg.schedule.count_at(round, alive).min(pruned).min(alive);
            (l, a)
        })
        .filter(|&(_, a)| a > 0)
        .collect()
}

/// The one batch device `k` probes on at `round`: `batch_size` of its samples,
/// drawn from a stream of `(seed, round, k)` — every method that probes
/// scores a `(round, device)` on the same one.
fn probe_batch(env: &ExperimentEnv, k: usize, round: usize) -> (Tensor, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(
        env.cfg.seed ^ 0x9d0f ^ ((round as u64) << 20) ^ ((k as u64) << 44),
    );
    let data = &env.parts[k];
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(env.cfg.batch_size.min(data.len()));
    data.batch(&idx)
}

/// Device `k`'s probe batch of `round` (Eq. 6), run in place on `model` — a
/// working copy of the global model the caller borrowed and will not keep:
/// one forward pass, then a backward pass in which exactly the prunable
/// layers `dense` execute on the dense engine and which stops once the
/// shallowest of them has its gradient ([`Model::backward_down_to`]).
/// Gradients are left in place; nothing beneath the stop is computed.
///
/// The grow step scores gradients of *pruned* coordinates, which the sparse
/// execution path does not compute. Dropping a layer's mask record sends it
/// to the dense engine — its weights are already zero where pruned — and
/// every other layer keeps its sparse plan. With backward-order units the
/// adjusted layers sit near the output, so most of the backward pass is
/// never run; [`AdjustmentReport::extra_flops`] still bills all of it (it
/// is the paper's analytic figure, and the ledger folds it in).
fn probe(model: &mut dyn Model, env: &ExperimentEnv, k: usize, round: usize, dense: &[usize]) {
    let mut l = 0;
    model.for_each_param_mut(&mut |p| {
        if p.prunable {
            if dense.contains(&l) {
                p.mask_bits = None;
            }
            l += 1;
        }
    });
    let (x, y) = probe_batch(env, k, round);
    let logits = model.forward(&x, Mode::Train);
    let (_, grad) = softmax_cross_entropy(&logits, &y);
    let shallowest = *dense.iter().min().expect("a probe reads some layer");
    model.backward_down_to(&grad, shallowest);
}

/// The device-side gradient probe every grow/prune method shares (FedTiny's
/// and FedDST's adjustment, PruneFL's adaptive pruning): every device of
/// `env` takes a working copy of `global` borrowed from `ft-fl`'s
/// device-model pool (nothing is cloned; the devices fan out over `rt` under
/// the run's one thread budget, longest partition first), draws its probe
/// batch of `round`, and runs one forward pass and a backward pass in which
/// exactly the prunable layers `dense` execute on the dense engine — so
/// their *pruned* coordinates get gradients — and which stops beneath the
/// shallowest of them. `read(k, m)` then takes what device `k` needs from
/// its model `m`, whose [`Param::grad`](ft_nn::Param) fields hold the
/// gradients. Returns the devices' results in device order, the same bits
/// for any `rt`.
///
/// # Panics
///
/// Panics if `dense` is empty.
pub fn probe_devices<T: Send>(
    global: &dyn Model,
    env: &ExperimentEnv,
    round: usize,
    dense: &[usize],
    rt: &Runtime,
    read: impl Fn(usize, &dyn Model) -> T + Sync,
) -> Vec<T> {
    let order = |k| deal_key(&env.parts, k);
    on_device_models(global, env.parts.len(), rt, order, |k, model| {
        probe(model, env, k, round, dense);
        read(k, model)
    })
}

/// What one device uploads for an adjustment: per `(layer, a)` of the
/// adjustment, its `a` largest pruned-coordinate gradients.
type DeviceUpload = Vec<Vec<(usize, f32)>>;

/// Device side of an adjustment (Alg. 2 lines 10–16): every device probes
/// with the layers `dense` on the dense engine ([`probe_devices`]) and
/// streams the gradients of the *pruned* coordinates of each `(layer, a)` in
/// `counts` through a [`TopKBuffer`] of capacity `a`.
fn device_uploads(
    global: &dyn Model,
    mask: &Mask,
    env: &ExperimentEnv,
    counts: &[(usize, usize)],
    round: usize,
    dense: &[usize],
    rt: &Runtime,
) -> Vec<DeviceUpload> {
    let prunable_pos = prunable_param_indices(global);
    probe_devices(global, env, round, dense, rt, |_, model| {
        let params = model.params();
        counts
            .iter()
            .map(|&(l, a)| {
                let g = params[prunable_pos[l]].grad.data();
                let mut buf = TopKBuffer::new(a);
                for (i, alive) in mask.layer(l).iter().enumerate() {
                    if !alive {
                        buf.push(i, g[i]);
                    }
                }
                buf.into_sorted()
            })
            .collect()
    })
}

/// Server side of the grow step (Alg. 2 line 19): Eq. 7's `|D_k|`-weighted
/// sum of the devices' uploaded `(index, gradient)` pairs, then the `a`
/// coordinates with the largest aggregated magnitude. Coordinates are
/// ranked in ascending index order, so among equal magnitudes at the cut
/// (exact zeros from a dead channel, typically) the lowest indices win —
/// whatever order the pairs arrived in.
fn select_grow(uploads: &[(&[(usize, f32)], f64)], a: usize) -> Vec<usize> {
    let mut agg: BTreeMap<usize, f64> = BTreeMap::new();
    for &(pairs, weight) in uploads {
        for &(i, g) in pairs {
            *agg.entry(i).or_insert(0.0) += weight * g as f64;
        }
    }
    let mut ranked: Vec<(usize, f32)> = agg
        .into_iter()
        .map(|(i, g)| (i, (g as f32).abs()))
        .filter(|(_, g)| g.is_finite())
        .collect();
    // Stable: equal magnitudes stay in ascending index order.
    ranked.sort_by(|x, y| y.1.total_cmp(&x.1));
    ranked.truncate(a);
    ranked.into_iter().map(|(i, _)| i).collect()
}

/// Performs one adjustment (Alg. 2 lines 10–26) on the layers of `unit`.
///
/// Device side: each device runs one forward/backward batch on a working
/// copy of the sparse model in which only the adjusted layers execute dense
/// (the grow step reads their pruned-coordinate gradients; every other layer
/// stays on its sparse plan) and whose backward pass stops beneath the
/// shallowest of them, streams the gradients of *pruned* coordinates
/// of each target layer through a [`TopKBuffer`] of capacity `a_t^l`, and
/// uploads the surviving `(index, gradient)` pairs. Server side: gradients
/// are aggregated weighted by `|D_k|` (Eq. 7), the top `a_t^l` pruned
/// coordinates by aggregated magnitude are grown, and the same number of
/// surviving coordinates with the smallest weight magnitude (excluding the
/// just-grown ones) are dropped. The mask is updated in place; grown weights
/// start at zero.
///
/// # Panics
///
/// Panics if `mask` does not match the model's prunable layout.
pub fn progressive_adjust(
    global: &mut dyn Model,
    mask: &mut Mask,
    env: &ExperimentEnv,
    cfg: &ProgressiveConfig,
    unit: &[usize],
    round: usize,
) -> AdjustmentReport {
    let mut report = AdjustmentReport::default();
    let counts = adjustment_counts(mask, cfg, unit, round);
    if counts.is_empty() {
        return report;
    }

    // --- Device side: top-a gradients of pruned coordinates (Eq. 6). The
    // probe's cost is accounted below as the dense-minus-sparse backward
    // share of the adjusted layers.
    let adjusted: Vec<usize> = counts.iter().map(|&(l, _)| l).collect();
    let rt = env.cfg.runtime();
    let device_grads = device_uploads(global, mask, env, &counts, round, &adjusted, &rt);

    // --- Server side: Eq. 7 aggregation, then grow / drop.
    let weights = env.device_weights();
    let prunable_pos = prunable_param_indices(global);
    for (ui, &(l, a)) in counts.iter().enumerate() {
        let uploads: Vec<(&[(usize, f32)], f64)> = device_grads
            .iter()
            .zip(&weights)
            .map(|(grads, &w)| (grads[ui].as_slice(), w))
            .collect();
        for (pairs, _) in &uploads {
            report.comm_bytes += pairs.len() as f64 * 8.0;
            report.payload_bytes += ft_sparse::topk_pairs_encoded_len(pairs.len()) as f64;
        }
        // Grow: top-a pruned indices by |aggregated gradient|.
        let grow = select_grow(&uploads, a);

        // Drop: a surviving coordinates with smallest |weight|, excluding
        // the just-grown ones (they are zero and would be dropped at once).
        let mut alive: Vec<usize> = mask.alive_indices(l);
        {
            let params = global.params();
            let wdata = params[prunable_pos[l]].data.data();
            alive.sort_by(|&x, &y| {
                wdata[x]
                    .abs()
                    .partial_cmp(&wdata[y].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.cmp(&y))
            });
        }
        let drop_n = grow.len();
        let dropped: Vec<usize> = alive.into_iter().take(drop_n).collect();

        for &i in &grow {
            mask.set(l, i, true);
        }
        for &i in &dropped {
            mask.set(l, i, false);
        }
        // Zero the dropped weights; grown weights are already zero.
        {
            let mut params = global.params_mut();
            let w = params[prunable_pos[l]].data.data_mut();
            for &i in &dropped {
                w[i] = 0.0;
            }
        }
        report.adjusted.push((l, grow.len()));
        report.max_buffer = report.max_buffer.max(a);
    }

    // --- Cost accounting: one extra batch with dense gradients for the
    // target layers. Training the batch costs 3× forward at current
    // density; computing dense weight gradients for the unit layers adds
    // the dense-minus-sparse backward share of those layers.
    let arch = global.arch();
    let densities = densities_from_mask(mask);
    let bs = env
        .parts
        .iter()
        .map(|p| env.cfg.batch_size.min(p.len()))
        .max()
        .unwrap_or(0) as f64;
    let mut extra = 3.0 * forward_flops(&arch, &densities);
    for layer in &arch.layers {
        let pi = match layer {
            LayerArch::Conv {
                prunable_idx: Some(i),
                ..
            }
            | LayerArch::Linear {
                prunable_idx: Some(i),
                ..
            } => *i,
            _ => continue,
        };
        if counts.iter().any(|&(l, _)| l == pi) {
            let dense = layer_forward_flops(layer, 1.0);
            let sparse = layer_forward_flops(layer, densities[pi]);
            extra += dense - sparse; // dense weight-gradient GEMM share
        }
    }
    report.extra_flops = extra * bs;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_fl::ModelSpec;
    use ft_nn::{apply_mask, sparse_layout};
    use ft_sparse::uniform_density_vector;

    fn setup(density: f32) -> (ExperimentEnv, Box<dyn Model>, Mask) {
        let env = ExperimentEnv::tiny_for_tests(2);
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let layout = sparse_layout(model.as_ref());
        let weights: Vec<&[f32]> = model
            .params()
            .into_iter()
            .filter(|p| p.prunable)
            .map(|p| p.data.data())
            .collect();
        let mask =
            ft_sparse::magnitude_mask(&layout, &weights, &uniform_density_vector(&layout, density));
        drop(weights);
        apply_mask(model.as_mut(), &mask);
        (env, model, mask)
    }

    #[test]
    fn adjustment_preserves_density() {
        let (env, mut model, mut mask) = setup(0.3);
        let before = mask.ones_count();
        let cfg = ProgressiveConfig::tiny_for_tests();
        let unit: Vec<usize> = (0..mask.num_layers()).collect();
        let report = progressive_adjust(model.as_mut(), &mut mask, &env, &cfg, &unit, 0);
        assert!(!report.adjusted.is_empty(), "no adjustment happened");
        assert_eq!(mask.ones_count(), before, "density drifted");
    }

    #[test]
    fn adjustment_changes_mask() {
        let (env, mut model, mut mask) = setup(0.3);
        let before = mask.clone();
        let cfg = ProgressiveConfig::tiny_for_tests();
        let unit: Vec<usize> = (0..mask.num_layers()).collect();
        let _ = progressive_adjust(model.as_mut(), &mut mask, &env, &cfg, &unit, 0);
        assert_ne!(mask, before, "mask unchanged by adjustment");
    }

    #[test]
    fn pruned_weights_stay_zero_after_adjustment() {
        let (env, mut model, mut mask) = setup(0.4);
        let cfg = ProgressiveConfig::tiny_for_tests();
        let unit: Vec<usize> = (0..mask.num_layers()).collect();
        let _ = progressive_adjust(model.as_mut(), &mut mask, &env, &cfg, &unit, 0);
        let prunable_pos = prunable_param_indices(model.as_ref());
        let params = model.params();
        for l in 0..mask.num_layers() {
            let w = params[prunable_pos[l]].data.data();
            for (i, alive) in mask.layer(l).iter().enumerate() {
                if !alive {
                    assert_eq!(w[i], 0.0, "layer {l} weight {i} nonzero while pruned");
                }
            }
        }
    }

    #[test]
    fn beyond_rstop_is_noop() {
        let (env, mut model, mut mask) = setup(0.3);
        let before = mask.clone();
        let cfg = ProgressiveConfig::tiny_for_tests(); // r_stop = 3
        let unit: Vec<usize> = (0..mask.num_layers()).collect();
        let report = progressive_adjust(model.as_mut(), &mut mask, &env, &cfg, &unit, 10);
        assert!(report.adjusted.is_empty());
        assert_eq!(mask, before);
    }

    #[test]
    fn units_rotation_orders() {
        let (_, model, _) = setup(0.5);
        let layer_cfg = ProgressiveConfig {
            granularity: Granularity::Layer,
            backward_order: true,
            ..ProgressiveConfig::tiny_for_tests()
        };
        let units = layer_cfg.units(model.as_ref(), 2);
        assert_eq!(units, vec![vec![1], vec![0]]); // backward: output first
        let entire = ProgressiveConfig {
            granularity: Granularity::Entire,
            backward_order: false,
            ..ProgressiveConfig::tiny_for_tests()
        };
        assert_eq!(entire.units(model.as_ref(), 2), vec![vec![0, 1]]);
    }

    #[test]
    fn buffer_capacity_respects_schedule() {
        let (env, mut model, mut mask) = setup(0.3);
        let cfg = ProgressiveConfig::tiny_for_tests();
        let unit: Vec<usize> = (0..mask.num_layers()).collect();
        let report = progressive_adjust(model.as_mut(), &mut mask, &env, &cfg, &unit, 0);
        // At t=0 the cosine gives 0.30 · alive; buffers must not exceed that.
        let max_alive = (0..mask.num_layers())
            .map(|l| mask.layer_ones(l))
            .max()
            .unwrap();
        assert!(report.max_buffer <= (0.31 * max_alive as f32) as usize + 1);
        assert!(report.comm_bytes > 0.0);
        assert!(report.extra_flops > 0.0);
    }

    /// Which of several tied coordinates at the cut is grown must not depend
    /// on the order the pairs arrive in (the aggregate used to be walked in
    /// hash order): the lowest indices win.
    #[test]
    fn grow_selection_breaks_ties_by_lowest_index_in_any_arrival_order() {
        // A dead channel uploads exact zeros: 7, 3, 11 and 5 tie at the cut.
        let a = [(7usize, 0.0f32), (2, -4.0), (3, 0.0), (11, 0.0)];
        let b = [(5usize, 0.0f32), (9, 1.5), (3, 0.0)];
        let forward = select_grow(&[(&a, 0.6), (&b, 0.4)], 4);
        assert_eq!(forward, vec![2, 9, 3, 5]);
        let (mut ra, mut rb) = (a, b);
        ra.reverse();
        rb.reverse();
        assert_eq!(select_grow(&[(&ra, 0.6), (&rb, 0.4)], 4), forward);
        // Devices in the other order: the sums are the same two-term sums.
        assert_eq!(select_grow(&[(&rb, 0.4), (&ra, 0.6)], 4), forward);
        // Non-finite aggregates are never grown; short lists are not padded.
        let c = [(1usize, f32::INFINITY), (4, 2.0)];
        assert_eq!(select_grow(&[(&c, 1.0)], 3), vec![4]);
    }

    /// The exposed probe: one result per device, in device order, the same
    /// bits on one worker and fanned out over four; and with every prunable
    /// layer dense, a device's gradients are those of a fresh clone with its
    /// mask records cleared running a whole backward pass on the same batch
    /// — the clone-per-device pass the baselines used to run.
    #[test]
    fn probe_devices_is_ordered_thread_invariant_and_equals_a_dense_clone() {
        let (env, model, mask) = setup(0.3);
        let round = 2;
        let all: Vec<usize> = (0..mask.num_layers()).collect();
        let prunable_pos = prunable_param_indices(model.as_ref());
        let prunable_grads = |m: &dyn Model| -> Vec<Vec<u32>> {
            let params = m.params();
            (prunable_pos.iter())
                .map(|&pi| params[pi].grad.data().iter().map(|g| g.to_bits()).collect())
                .collect()
        };
        let probe_on = |rt: Runtime| {
            probe_devices(model.as_ref(), &env, round, &all, &rt, |k, m| {
                (k, prunable_grads(m))
            })
        };
        let one = probe_on(Runtime::exact(1));
        let devices: Vec<usize> = one.iter().map(|&(k, _)| k).collect();
        assert_eq!(devices, (0..env.parts.len()).collect::<Vec<_>>());
        assert_eq!(one, probe_on(Runtime::exact(4)));

        for (k, grads) in &one {
            let mut clone = model.clone_model();
            clone.for_each_param_mut(&mut |p| p.mask_bits = None);
            let (x, y) = probe_batch(&env, *k, round);
            let logits = clone.forward(&x, Mode::Train);
            clone.backward_scratch(&softmax_cross_entropy(&logits, &y).1);
            assert_eq!(grads, &prunable_grads(clone.as_ref()), "device {k}");
            // Pruned coordinates did get gradients: the layers ran dense.
            let params = clone.params();
            for l in 0..mask.num_layers() {
                let g = params[prunable_pos[l]].grad.data();
                assert!((mask.layer(l).iter().zip(g)).any(|(&alive, &g)| !alive && g != 0.0));
            }
        }
    }

    /// The probe forces dense exactly where Algorithm 2 reads
    /// pruned-coordinate gradients and stops beneath the unit: the adjusted
    /// layers yield those gradients, every other prunable layer stays on its
    /// sparse plan or is never reached (the realized-FLOPs counter is the
    /// witness), and the coordinates grown are the ones an all-dense probe
    /// grows.
    #[test]
    fn unit_only_probe_grows_what_the_all_dense_probe_grows() {
        let rt = Runtime::sequential();
        for density in [0.3f32, 0.4] {
            let (env, model, mask) = setup(density);
            let cfg = ProgressiveConfig::tiny_for_tests();
            let all: Vec<usize> = (0..mask.num_layers()).collect();
            let prunable_pos = prunable_param_indices(model.as_ref());
            // Per weighted layer, in execution order: its mask layer and the
            // multiply–accumulates of one pass per sample and stored weight.
            let weighted: Vec<(Option<usize>, usize, usize)> = (model.arch().layers.iter())
                .filter_map(|layer| match *layer {
                    LayerArch::Conv {
                        in_c,
                        out_c,
                        kernel,
                        out_h,
                        out_w,
                        prunable_idx,
                    } => Some((prunable_idx, out_h * out_w, out_c * in_c * kernel * kernel)),
                    LayerArch::Linear {
                        in_dim,
                        out_dim,
                        prunable_idx,
                    } => Some((prunable_idx, 1, out_dim * in_dim)),
                    LayerArch::BatchNorm { .. } => None,
                })
                .collect();
            for unit in [vec![0], vec![1], all.clone()] {
                let counts = adjustment_counts(&mask, &cfg, &unit, 0);
                assert_eq!(counts.len(), unit.len());

                // Same grown set, layer by layer.
                let of_unit = device_uploads(model.as_ref(), &mask, &env, &counts, 0, &unit, &rt);
                let of_all = device_uploads(model.as_ref(), &mask, &env, &counts, 0, &all, &rt);
                let weights = env.device_weights();
                for (ui, &(l, a)) in counts.iter().enumerate() {
                    let grown = |uploads: &[DeviceUpload]| {
                        let lists: Vec<(&[(usize, f32)], f64)> = uploads
                            .iter()
                            .zip(&weights)
                            .map(|(u, &w)| (u[ui].as_slice(), w))
                            .collect();
                        select_grow(&lists, a)
                    };
                    assert_eq!(grown(&of_unit), grown(&of_all), "layer {l} d={density}");
                    assert_eq!(grown(&of_unit).len(), a);
                }

                // One device's probe, looked at directly.
                let (pruned_grads, realized) = ft_fl::with_device_model(model.as_ref(), &rt, |m| {
                    probe(m, &env, 0, 0, &unit);
                    let params = m.params();
                    let pruned_grads: Vec<bool> = (0..mask.num_layers())
                        .map(|l| {
                            let g = params[prunable_pos[l]].grad.data();
                            (mask.layer(l).iter().zip(g)).any(|(&alive, &g)| !alive && g != 0.0)
                        })
                        .collect();
                    (pruned_grads, m.realized_flops())
                });
                let in_unit: Vec<bool> = all.iter().map(|l| unit.contains(l)).collect();
                assert_eq!(pruned_grads, in_unit, "unit {unit:?}");

                // Forward everywhere; backward from the output down to the
                // unit's shallowest layer, which skips its input gradient;
                // nothing beneath. Unit layers at every weight, the other
                // prunable layers at nnz.
                let n = env.cfg.batch_size.min(env.parts[0].len());
                let stop = *unit.iter().min().unwrap();
                let mut beneath = false;
                let mut expect = 0.0;
                for &(prunable, spatial, len) in weighted.iter().rev() {
                    let stored = match prunable {
                        Some(l) if !unit.contains(&l) => mask.layer_ones(l),
                        _ => len,
                    };
                    let backward = match prunable {
                        _ if beneath => 0.0,
                        Some(l) if l == stop => 2.0,
                        _ => 4.0,
                    };
                    expect += (2.0 + backward) * (n * spatial * stored) as f64;
                    beneath |= prunable == Some(stop);
                }
                assert_eq!(
                    realized, expect,
                    "unit {unit:?}: 2·n·cc·stored per pass, no pass beneath the unit"
                );
            }
        }
    }
}

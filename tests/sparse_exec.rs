//! End-to-end checks of the sparse execution engine: the sparse path must
//! produce the same numbers as the dense-masked path while executing
//! measurably fewer FLOPs at low density. The dense side is the same masked
//! model with its mask records cleared.

use fedtiny_suite::fedtiny::{run_fedtiny, FedTinyConfig};
use fedtiny_suite::fl::ExperimentEnv;
use fedtiny_suite::nn::{apply_mask, sparse_layout, Mode, Model};
use fedtiny_suite::sparse::{magnitude_mask, uniform_density_vector, Mask};
use fedtiny_suite::tensor::normal;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A masked SmallCnn at the given density plus a batch of inputs.
fn masked_model(density: f32, seed: u64) -> (Box<dyn Model>, Mask) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model: Box<dyn Model> = Box::new(fedtiny_suite::nn::models::SmallCnn::new(
        &mut rng, 8, 10, 3, 16,
    ));
    let layout = sparse_layout(model.as_ref());
    let weights: Vec<&[f32]> = model
        .params()
        .into_iter()
        .filter(|p| p.prunable)
        .map(|p| p.data.data())
        .collect();
    let mask = magnitude_mask(&layout, &weights, &uniform_density_vector(&layout, density));
    drop(weights);
    apply_mask(model.as_mut(), &mask);
    (model, mask)
}

#[test]
fn sparse_forward_matches_dense_masked_forward() {
    // Acceptance criterion: at density ≤ 0.2 on the SmallCnn profile the
    // sparse forward agrees with the dense-masked forward within 1e-5.
    let (mut sparse, _) = masked_model(0.2, 7);
    let (mut dense, _) = masked_model(0.2, 7);
    dense.for_each_param_mut(&mut |p| p.mask_bits = None);
    let x = normal(
        &mut ChaCha8Rng::seed_from_u64(99),
        &[4, 3, 16, 16],
        0.0,
        1.0,
    );
    for mode in [Mode::Train, Mode::Eval] {
        let ys = sparse.forward(&x, mode);
        let yd = dense.forward(&x, mode);
        assert_eq!(ys.shape(), yd.shape());
        for (a, b) in ys.data().iter().zip(yd.data().iter()) {
            assert!((a - b).abs() < 1e-5, "sparse {a} vs dense {b}");
        }
    }
}

#[test]
fn sparse_training_step_executes_fewer_flops() {
    // A full forward + backward at density 0.2 must realize well under half
    // the dense MAC count (the prunable layers dominate this model).
    let (mut sparse, _) = masked_model(0.2, 11);
    let (mut dense, _) = masked_model(0.2, 11);
    dense.for_each_param_mut(&mut |p| p.mask_bits = None);
    let x = normal(&mut ChaCha8Rng::seed_from_u64(5), &[8, 3, 16, 16], 0.0, 1.0);

    for model in [&mut sparse, &mut dense] {
        model.reset_realized_flops();
        let y = model.forward(&x, Mode::Train);
        let gy = fedtiny_suite::tensor::Tensor::ones(y.shape());
        model.backward_scratch(&gy);
    }
    let (s, d) = (sparse.realized_flops(), dense.realized_flops());
    assert!(s > 0.0 && d > 0.0);
    assert!(
        s < 0.55 * d,
        "sparse path executed {s:.3e} MACs vs dense {d:.3e} — not sparse enough"
    );
}

#[test]
fn sparse_and_dense_training_agree_after_a_step() {
    // One masked SGD step through each path keeps the models numerically
    // together (alive weight gradients match; pruned coordinates stay 0).
    let (mut sparse, mask) = masked_model(0.2, 13);
    let (mut dense, _) = masked_model(0.2, 13);
    dense.for_each_param_mut(&mut |p| p.mask_bits = None);
    let x = normal(&mut ChaCha8Rng::seed_from_u64(3), &[4, 3, 16, 16], 0.0, 1.0);
    let labels: Vec<usize> = (0..4).map(|i| i % 10).collect();

    use fedtiny_suite::nn::loss::softmax_cross_entropy;
    use fedtiny_suite::nn::optim::{Sgd, SgdConfig};
    for model in [&mut sparse, &mut dense] {
        let mut sgd = Sgd::new(SgdConfig {
            lr: 0.05,
            ..Default::default()
        });
        let logits = model.forward(&x, Mode::Train);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        model.backward_scratch(&grad);
        sgd.step(model.as_mut(), Some(&mask));
        model.zero_grad();
    }
    let ws = fedtiny_suite::nn::flat_params(sparse.as_ref());
    let wd = fedtiny_suite::nn::flat_params(dense.as_ref());
    for (i, (a, b)) in ws.iter().zip(wd.iter()).enumerate() {
        assert!((a - b).abs() < 1e-4, "weight {i}: sparse {a} vs dense {b}");
    }
}

#[test]
fn fedtiny_run_records_realized_costs() {
    let env = ExperimentEnv::tiny_for_tests(21);
    let cfg = FedTinyConfig::tiny_for_tests(0.3);
    let result = run_fedtiny(&env, &cfg);
    assert!(
        result.realized_round_flops > 0.0,
        "realized FLOPs not recorded"
    );
    assert!(result.train_wall_secs > 0.0, "wall-clock not recorded");
    // Realized counts only GEMM MACs while the analytic number includes BN
    // and a 3x-forward backward estimate — same order of magnitude, not
    // equal. Sanity: within a factor of 100 of the analytic count.
    let ratio = result.realized_round_flops / result.max_round_flops;
    assert!(
        (0.01..100.0).contains(&ratio),
        "realized/analytic ratio {ratio} out of range"
    );
}

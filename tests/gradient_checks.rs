//! Whole-model gradient checks: finite-difference validation of the manual
//! backprop through every architecture, including the residual paths of
//! ResNet18 and the pooling/classifier stack of VGG11.

use fedtiny_suite::nn::loss::softmax_cross_entropy;
use fedtiny_suite::nn::models::{ResNet18, SmallCnn, Vgg11};
use fedtiny_suite::nn::{Mode, Model};
use fedtiny_suite::tensor::{normal, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Checks `d loss / d w` for a handful of parameters of `model` against
/// central finite differences on a fixed batch.
fn check_model_gradients(model: &mut dyn Model, in_c: usize, size: usize, classes: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let x = normal(&mut rng, &[2, in_c, size, size], 0.0, 1.0);
    let y: Vec<usize> = (0..2).map(|i| i % classes).collect();

    // Batch-statistics BN makes a width-scaled deep net's loss chaotic in
    // any single weight (one weight shifts a whole channel's batch variance,
    // which rescales every activation), so finite differences cannot
    // converge in f32. Eval-mode BN is a smooth function of the weights and
    // still exercises every backward path (conv transposes, residual adds,
    // pooling, the classifier); the batch-statistics backward formula has
    // its own tight per-layer check in ft-nn.
    let logits = model.forward(&x, Mode::Eval);
    let (_, grad) = softmax_cross_entropy(&logits, &y);
    model.backward_scratch(&grad);
    let analytic: Vec<Vec<f32>> = model
        .params()
        .iter()
        .map(|p| p.grad.data().to_vec())
        .collect();
    model.zero_grad();

    let loss_at = |model: &mut dyn Model| -> f32 {
        let logits = model.forward(&x, Mode::Eval);
        let (loss, _) = softmax_cross_entropy(&logits, &y);
        loss
    };

    let eps = 1e-3;
    let n_params = model.params().len();
    // Probe the first weight of every 3rd parameter tensor plus one interior
    // coordinate — cheap but covers every layer type.
    for pi in (0..n_params).step_by(3) {
        for &ci in &[0usize, 1] {
            let len = model.params()[pi].len();
            if ci >= len {
                continue;
            }
            let orig = model.params()[pi].data.data()[ci];
            model.params_mut()[pi].data.data_mut()[ci] = orig + eps;
            let lp = loss_at(model);
            model.params_mut()[pi].data.data_mut()[ci] = orig - eps;
            let lm = loss_at(model);
            model.params_mut()[pi].data.data_mut()[ci] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = analytic[pi][ci];
            assert!(
                (got - numeric).abs() < 1e-2 + 0.1 * numeric.abs(),
                "param {pi}[{ci}]: analytic {got} vs numeric {numeric}"
            );
        }
    }
    // The batch gradient must be nonzero somewhere.
    let total: f32 = analytic
        .iter()
        .flat_map(|g| g.iter())
        .map(|g| g.abs())
        .sum();
    assert!(total > 0.0, "all-zero gradients");
}

#[test]
fn small_cnn_gradients_match_finite_differences() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut model = SmallCnn::new(&mut rng, 4, 4, 3, 8);
    check_model_gradients(&mut model, 3, 8, 4);
}

#[test]
fn resnet18_gradients_match_finite_differences() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut model = ResNet18::new(&mut rng, 0.125, 4, 3, 8);
    check_model_gradients(&mut model, 3, 8, 4);
}

#[test]
fn vgg11_gradients_match_finite_differences() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut model = Vgg11::new(&mut rng, 0.125, 4, 3, 8);
    check_model_gradients(&mut model, 3, 8, 4);
}

#[test]
fn zero_grad_clears_every_accumulator() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut model = ResNet18::new(&mut rng, 0.125, 10, 3, 8);
    let x = normal(&mut rng, &[1, 3, 8, 8], 0.0, 1.0);
    let logits = model.forward(&x, Mode::Train);
    model.backward_scratch(&Tensor::ones(logits.shape()));
    assert!(model.params().iter().any(|p| p.grad.max_abs() > 0.0));
    model.zero_grad();
    assert!(model.params().iter().all(|p| p.grad.max_abs() == 0.0));
}

#[test]
fn bn_momentum_override_reaches_every_layer() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for mut model in [
        Box::new(ResNet18::new(&mut rng, 0.125, 10, 3, 8)) as Box<dyn Model>,
        Box::new(Vgg11::new(&mut rng, 0.125, 10, 3, 8)) as Box<dyn Model>,
        Box::new(SmallCnn::new(&mut rng, 4, 10, 3, 8)) as Box<dyn Model>,
    ] {
        // momentum = 1.0 → one forward pass replaces all running means.
        model.set_bn_momentum(1.0);
        let x = normal(&mut rng, &[4, 3, 8, 8], 3.0, 1.0);
        let _ = model.forward(&x, Mode::Train);
        for (i, s) in model.bn_stats().iter().enumerate() {
            assert!(
                s.mean.iter().any(|&m| m != 0.0),
                "bn layer {i} mean untouched by adaptation"
            );
        }
    }
}

#[test]
fn gradients_accumulate_across_batches() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let mut model = SmallCnn::new(&mut rng, 4, 4, 3, 8);
    let x = normal(&mut rng, &[2, 3, 8, 8], 0.0, 1.0);
    let run = |m: &mut SmallCnn| {
        let logits = m.forward(&x, Mode::Train);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 1]);
        m.backward_scratch(&grad);
    };
    run(&mut model);
    let once = model.params()[0].grad.data().to_vec();
    run(&mut model);
    let twice = model.params()[0].grad.data().to_vec();
    // BN stats shift slightly between passes, so allow a small tolerance.
    for (a, b) in once.iter().zip(twice.iter()) {
        assert!((b - 2.0 * a).abs() < 1e-2 + 0.35 * a.abs(), "{b} vs 2*{a}");
    }
}

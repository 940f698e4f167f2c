//! Clones do not carry scratch: what a model clone allocates does not depend
//! on what its source has run, and a clone trains exactly like its source.
//!
//! The allocation half needs a counting global allocator, whose counter is
//! process-wide — so this binary holds one test and nothing runs beside it.

use fedtiny_suite::nn::loss::softmax_cross_entropy;
use fedtiny_suite::nn::models::ResNet18;
use fedtiny_suite::nn::optim::{Sgd, SgdConfig};
use fedtiny_suite::nn::{apply_mask, sparse_layout, Mode, Model};
use fedtiny_suite::sparse::{magnitude_mask, uniform_density_vector, Mask};
use fedtiny_suite::tensor::{normal, Tensor};
use ft_bench::{allocated_bytes, CountingAlloc};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes `f` requests from the allocator.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocated_bytes();
    let out = f();
    (out, allocated_bytes() - before)
}

fn step(model: &mut ResNet18, sgd: &mut Sgd, mask: Option<&Mask>, x: &Tensor, labels: &[usize]) {
    let logits = model.forward(x, Mode::Train);
    let (_, grad) = softmax_cross_entropy(&logits, labels);
    model.backward_scratch(&grad);
    sgd.step(model, mask);
    model.zero_grad();
}

fn state_bits(model: &ResNet18) -> Vec<u32> {
    let params = model.params().into_iter().flat_map(|p| p.data.data());
    let stats = model
        .bn_stats()
        .into_iter()
        .flat_map(|s| s.mean.iter().chain(&s.var));
    params.chain(stats).map(|v| v.to_bits()).collect()
}

/// ResNet18 at batch 32: under a d = 0.05 mask at the benchmark's shape
/// (width 0.25, 16 px), and dense at a shape a debug build steps quickly.
#[test]
fn clones_carry_no_scratch_and_train_like_their_source() {
    for (density, width, side) in [(0.05f32, 0.25f32, 16usize), (1.0, 0.125, 8)] {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut never_run = ResNet18::new(&mut rng, width, 10, 3, side);
        let mask = (density < 1.0).then(|| {
            let layout = sparse_layout(&never_run);
            let weights: Vec<&[f32]> = never_run
                .params()
                .into_iter()
                .filter(|p| p.prunable)
                .map(|p| p.data.data())
                .collect();
            magnitude_mask(&layout, &weights, &uniform_density_vector(&layout, density))
        });
        if let Some(mask) = &mask {
            apply_mask(&mut never_run, mask);
        }
        let x = normal(&mut rng, &[32, 3, side, side], 0.0, 1.0);
        let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();

        let mut stepped = never_run.clone();
        let mut sgd = Sgd::new(SgdConfig::default());
        let (_, arenas) = allocated_by(|| step(&mut stepped, &mut sgd, mask.as_ref(), &x, &labels));

        // Cloning the stepped model costs what cloning the freshly built
        // one costs. Under a mask the stepped model also owns its sparse
        // plan (CSR structure and conv index, ~1/8 of the parameters at
        // d = 0.05), which is structure and is copied; its arenas — several
        // times the parameters — are not.
        let (clone, of_stepped) = allocated_by(|| stepped.clone());
        let (_, of_never_run) = allocated_by(|| never_run.clone());
        assert!(arenas > 2 * of_never_run, "arenas {arenas} B");
        if mask.is_none() {
            assert_eq!(of_stepped, of_never_run, "dense clone carried scratch");
        } else {
            let plan = of_stepped - of_never_run;
            assert!(
                plan < of_never_run / 5,
                "masked clone carried scratch: {of_stepped} B vs {of_never_run} B"
            );
        }

        // Three SGD steps on the clone equal three on the original, bit for
        // bit.
        let (mut a, mut b) = (stepped, clone);
        let mut sgd = Sgd::new(SgdConfig::default());
        for _ in 0..3 {
            step(&mut a, &mut sgd, mask.as_ref(), &x, &labels);
            step(&mut b, &mut sgd, mask.as_ref(), &x, &labels);
            assert_eq!(state_bits(&a), state_bits(&b), "d={density}");
        }
        assert_eq!(a.realized_flops(), b.realized_flops());
    }
}

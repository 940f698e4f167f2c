//! Golden record of what the `Model` trait's layer walk reports for the
//! three architectures, at the widths the `ft-nn` tests use.
//!
//! Per model it pins every parameter in `for_each_param` order (name,
//! shape, kind, prunable), every BatchNorm statistics length in
//! `for_each_bn_stats` order, the BN momentum and kernel runtime the model
//! reports after setting them, and the bits of `realized_flops()` after one
//! training step of a masked copy on the sparse path (its mask records, at
//! d = 0.3) and on the dense path (the records cleared), then after a
//! reset. Flat parameter
//! vectors, wire contexts and checkpoints all follow this order, so a walk
//! that moves shows up here as a readable diff in
//! `tests/golden/model_layout.txt`.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```bash
//! FT_BLESS=1 cargo test --test model_layout
//! ```

use fedtiny_suite::nn::models::{ResNet18, SmallCnn, Vgg11};
use fedtiny_suite::nn::{apply_mask, sparse_layout, Mode, Model, Runtime};
use fedtiny_suite::sparse::{magnitude_mask, uniform_density_vector};
use fedtiny_suite::tensor::{normal, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/model_layout.txt");

/// Realized FLOPs of one `Train` forward plus `backward_scratch` on a copy
/// of `masked`, on the sparse path or, its mask records cleared, the dense
/// one.
fn step_flops(masked: &dyn Model, sparse: bool, x: &Tensor) -> f64 {
    let mut m = masked.clone_model();
    if !sparse {
        m.for_each_param_mut(&mut |p| p.mask_bits = None);
    }
    m.reset_realized_flops();
    let logits = m.forward(x, Mode::Train);
    m.backward_scratch(&Tensor::ones(logits.shape()));
    m.realized_flops()
}

fn render(model: &mut dyn Model, out: &mut String) {
    let name = model.arch().name;
    writeln!(out, "model {name}").unwrap();
    model.for_each_param(&mut |p| {
        writeln!(
            out,
            "  param {} shape={:?} kind={:?} prunable={}",
            p.name,
            p.data.shape(),
            p.kind,
            p.prunable
        )
        .unwrap();
    });
    let mut bn = Vec::new();
    model.for_each_bn_stats(&mut |s| bn.push(format!("{}/{}", s.mean.len(), s.var.len())));
    writeln!(out, "  bn_stats [{}]", bn.join(", ")).unwrap();

    model.set_bn_momentum(0.3);
    writeln!(out, "  bn_momentum {:08x}", model.bn_momentum().to_bits()).unwrap();
    model.set_runtime(Runtime::exact(3));
    writeln!(out, "  runtime_threads {}", model.runtime().threads()).unwrap();

    // The step itself runs on the FT_THREADS pool: realized FLOPs must not
    // depend on it.
    model.set_runtime(Runtime::from_env().with_min_work(0));
    let layout = sparse_layout(model);
    let mask = {
        let params = model.params();
        let weights: Vec<&[f32]> = params
            .iter()
            .filter(|p| p.prunable)
            .map(|p| p.data.data())
            .collect();
        magnitude_mask(&layout, &weights, &uniform_density_vector(&layout, 0.3))
    };
    apply_mask(model, &mask);
    let x = normal(&mut ChaCha8Rng::seed_from_u64(9), &[4, 3, 8, 8], 0.0, 1.0);
    for (path, sparse) in [("sparse", true), ("dense", false)] {
        let flops = step_flops(model, sparse, &x);
        writeln!(out, "  realized_flops path={path} {:016x}", flops.to_bits()).unwrap();
    }
    let mut m = model.clone_model();
    let logits = m.forward(&x, Mode::Train);
    m.backward_scratch(&Tensor::ones(logits.shape()));
    m.reset_realized_flops();
    writeln!(
        out,
        "  realized_flops reset {:016x}",
        m.realized_flops().to_bits()
    )
    .unwrap();
}

/// The three architectures' layer walks match the committed golden.
#[test]
fn layer_walk_matches_its_golden() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut models: Vec<Box<dyn Model>> = vec![
        Box::new(SmallCnn::new(&mut rng, 8, 10, 3, 8)),
        Box::new(Vgg11::new(&mut rng, 0.125, 10, 3, 8)),
        Box::new(ResNet18::new(&mut rng, 0.25, 10, 3, 8)),
    ];
    let mut got = String::from(
        "# Golden: the Model layer walk of SmallCnn(8), Vgg11(0.125) and ResNet18(0.25) on 3x8x8.\n\
         # f32/f64 values as hex bits; realized FLOPs of one step on a d = 0.3 masked copy.\n\
         # Regenerate: FT_BLESS=1 cargo test --test model_layout\n",
    );
    for m in &mut models {
        render(m.as_mut(), &mut got);
    }
    if std::env::var("FT_BLESS").is_ok() {
        std::fs::write(GOLDEN_PATH, &got).expect("write layout golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|_| {
        panic!("missing {GOLDEN_PATH} — run FT_BLESS=1 cargo test --test model_layout")
    });
    assert_eq!(
        got, want,
        "layout golden {GOLDEN_PATH} drifted; if intentional, regenerate with \
         FT_BLESS=1 cargo test --test model_layout"
    );
}

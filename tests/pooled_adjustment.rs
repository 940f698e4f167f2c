//! The pruning probe borrows pooled device models instead of cloning: the
//! second `progressive_adjust` of a process allocates a fraction of what the
//! first did — the first builds the pooled trainer and grows its arenas, the
//! second finds both. (`pooled_selection.rs` is the same question for the
//! selection, and for an adjustment that comes after one.)
//!
//! Needs a counting global allocator, whose counter is process-wide — so
//! this binary holds one test and nothing runs beside it.

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fedtiny::progressive::progressive_adjust;
use fedtiny_suite::fedtiny::ProgressiveConfig;
use fedtiny_suite::fl::{ExperimentEnv, FlConfig, ModelSpec};
use fedtiny_suite::nn::{apply_mask, sparse_layout};
use fedtiny_suite::sparse::{magnitude_mask, uniform_density_vector};
use ft_bench::{allocated_bytes, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes `f` requests from the allocator.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocated_bytes();
    let out = f();
    (out, allocated_bytes() - before)
}

/// The benchmark's model (ResNet18 width 0.25 at 16 px, d = 0.05, batch 32)
/// on a three-device fleet and one thread, so that exactly one pooled
/// trainer serves every probe. The second adjustment takes the next unit of
/// the rotation: its layers' dense arenas and sparse plans are new to the
/// pooled model, everything else is found.
#[test]
fn second_adjustment_finds_its_model_grown() {
    let synth = SynthConfig::bench_default(DatasetProfile::Cifar10, 3);
    let mut cfg = FlConfig::bench_default();
    cfg.devices = 3;
    cfg.threads = 1;
    let env = ExperimentEnv::new(synth, cfg);
    let mut global = env.build_model(&ModelSpec::ResNet18 {
        width: 0.25,
        input: 16,
    });
    let mut mask = {
        let layout = sparse_layout(global.as_ref());
        let params = global.params();
        let weights: Vec<&[f32]> = (params.iter().filter(|p| p.prunable))
            .map(|p| p.data.data())
            .collect();
        magnitude_mask(&layout, &weights, &uniform_density_vector(&layout, 0.05))
    };
    apply_mask(global.as_mut(), &mask);

    let prog = ProgressiveConfig::paper_default(1);
    let units = prog.units(global.as_ref(), mask.num_layers());
    let mut adjust = |unit: &[usize]| {
        allocated_by(|| progressive_adjust(global.as_mut(), &mut mask, &env, &prog, unit, 0))
    };
    let (first, first_bytes) = adjust(&units[0]);
    let (second, second_bytes) = adjust(&units[1]);
    assert!(!first.adjusted.is_empty() && !second.adjusted.is_empty());
    assert!(
        second_bytes < first_bytes / 5,
        "adjustment: {second_bytes} B after {first_bytes} B"
    );
}

//! Selection borrows pooled device models instead of cloning: the second
//! `adaptive_bn_selection` of a process allocates a fraction of what the
//! first did — the first builds the pooled trainer and grows its arenas, the
//! second finds both — and so does the first progressive adjustment after
//! it, because the stages share the pool. (`pooled_adjustment.rs` is the
//! same question for an adjustment that comes first.)
//!
//! Needs a counting global allocator, whose counter is process-wide — so
//! this binary holds one test and nothing runs beside it.

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fedtiny::progressive::progressive_adjust;
use fedtiny_suite::fedtiny::{
    adaptive_bn_selection, generate_candidate_pool, ProgressiveConfig, SelectionConfig,
};
use fedtiny_suite::fl::{ExperimentEnv, FlConfig, ModelSpec};
use fedtiny_suite::nn::apply_mask;
use ft_bench::{allocated_bytes, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes `f` requests from the allocator.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocated_bytes();
    let out = f();
    (out, allocated_bytes() - before)
}

/// The benchmark's model (ResNet18 width 0.25 at 16 px, d = 0.05) on a
/// three-device fleet and one thread, so that exactly one pooled trainer
/// serves every borrower. What a selection still allocates is what is new
/// with each candidate — its mask records and sparse plans, the server's
/// byte accounting — so the pool is the smallest there is: two.
#[test]
fn second_selection_finds_its_model_grown_and_so_does_the_adjustment_after_it() {
    let synth = SynthConfig::bench_default(DatasetProfile::Cifar10, 3);
    let mut cfg = FlConfig::bench_default();
    cfg.devices = 3;
    cfg.threads = 1;
    let env = ExperimentEnv::new(synth, cfg);
    let mut global = env.build_model(&ModelSpec::ResNet18 {
        width: 0.25,
        input: 16,
    });
    let selection = SelectionConfig {
        d_target: 0.05,
        pool_size: 2,
        noise_spread: 0.5,
        seed: 3,
    };
    let pool = generate_candidate_pool(global.as_ref(), &selection);

    let (first, first_bytes) = allocated_by(|| adaptive_bn_selection(global.as_ref(), &env, &pool));
    let (second, second_bytes) =
        allocated_by(|| adaptive_bn_selection(global.as_ref(), &env, &pool));
    assert_eq!(first.candidate_losses, second.candidate_losses);
    assert!(
        second_bytes < first_bytes / 5,
        "selection: {second_bytes} B after {first_bytes} B"
    );

    let mut mask = first.mask;
    apply_mask(global.as_mut(), &mask);
    let prog = ProgressiveConfig::paper_default(1);
    let units = prog.units(global.as_ref(), mask.num_layers());
    let (report, adjust_bytes) =
        allocated_by(|| progressive_adjust(global.as_mut(), &mut mask, &env, &prog, &units[0], 0));
    assert!(!report.adjusted.is_empty());
    assert!(
        adjust_bytes < first_bytes / 5,
        "adjustment: {adjust_bytes} B after the first selection's {first_bytes} B"
    );
}

//! Integration tests spanning the whole workspace: data generation →
//! federated split → selection → training → pruning → evaluation.

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fedtiny::{run_fedtiny, FedTinyConfig, SelectionMode};
use fedtiny_suite::fl::{evaluate, ExperimentEnv, FlConfig, ModelSpec};
use ft_bench::{run_method, Method};

fn small_env(seed: u64) -> ExperimentEnv {
    let synth = SynthConfig {
        profile: DatasetProfile::Cifar10,
        train_per_class: 10,
        test_per_class: 6,
        resolution: 8,
        channels: 3,
        seed,
    };
    let mut cfg = FlConfig::tiny_for_tests();
    cfg.rounds = 6;
    cfg.devices = 3;
    cfg.seed = seed;
    ExperimentEnv::new(synth, cfg)
}

#[test]
fn fedtiny_learns_above_chance_on_resnet() {
    let env = small_env(100);
    let mut cfg = FedTinyConfig::tiny_for_tests(0.3);
    cfg.model = ModelSpec::resnet_test();
    let result = run_fedtiny(&env, &cfg);
    // 10 classes → chance is 0.1; with 6 rounds on the easy synthetic task
    // the sparse model must clear it.
    assert!(
        result.accuracy > 0.15,
        "accuracy {} not above chance",
        result.accuracy
    );
    assert!(result.final_density <= 0.31);
}

#[test]
fn every_method_produces_consistent_cost_ordering() {
    let env = small_env(101);
    let spec = ModelSpec::small_cnn_test();
    let run = |m: Method, d| run_method(&env, m, &m.config(&env, &spec, d));
    let dense = run(Method::FedAvg, 1.0);
    let synflow = run(Method::SynFlow, 0.1);
    let prunefl = run(Method::PruneFl, 0.1);
    let lottery = run(Method::LotteryFl, 0.1);

    // Table I's qualitative cost structure.
    assert!(synflow.max_round_flops < dense.max_round_flops);
    assert!(
        synflow.max_round_flops < prunefl.max_round_flops,
        "PruneFL trains denser intermediates"
    );
    assert!(
        prunefl.memory_bytes > synflow.memory_bytes,
        "PruneFL stores dense scores"
    );
    assert!((lottery.max_round_flops - dense.max_round_flops).abs() < 1e-3 * dense.max_round_flops);
    assert_eq!(lottery.memory_bytes, dense.memory_bytes);
}

#[test]
fn fedtiny_cheaper_than_prunefl_and_better_memory() {
    let env = small_env(102);
    let spec = ModelSpec::small_cnn_test();
    let mut cfg = FedTinyConfig::tiny_for_tests(0.1);
    cfg.model = spec;
    let ft = run_fedtiny(&env, &cfg);
    let prunefl = run_method(
        &env,
        Method::PruneFl,
        &Method::PruneFl.config(&env, &spec, 0.1),
    );
    assert!(ft.max_round_flops < prunefl.max_round_flops);
    assert!(ft.memory_bytes < prunefl.memory_bytes);
}

#[test]
fn run_is_reproducible_end_to_end() {
    let cfg = FedTinyConfig::tiny_for_tests(0.2);
    let a = run_fedtiny(&small_env(103), &cfg);
    let b = run_fedtiny(&small_env(103), &cfg);
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.history, b.history);
    assert_eq!(a.comm_bytes, b.comm_bytes);
    assert_eq!(a.max_round_flops, b.max_round_flops);
}

#[test]
fn selection_modes_and_progressive_compose() {
    let env = small_env(104);
    for selection in [SelectionMode::AdaptiveBn, SelectionMode::Vanilla] {
        for progressive in [true, false] {
            let mut cfg = FedTinyConfig::tiny_for_tests(0.25);
            cfg.selection = selection;
            if !progressive {
                cfg.progressive = None;
            }
            let r = run_fedtiny(&env, &cfg);
            assert!(
                r.final_density <= 0.26,
                "{selection:?}/{progressive}: density {}",
                r.final_density
            );
        }
    }
}

#[test]
fn dense_fedavg_is_the_accuracy_upper_bound_given_budget() {
    // Not a strict invariant per-seed, but at trivial sparsity FedTiny
    // should land in the neighbourhood of dense FedAvg.
    let env = small_env(105);
    let spec = ModelSpec::small_cnn_test();
    let dense = run_method(
        &env,
        Method::FedAvg,
        &Method::FedAvg.config(&env, &spec, 1.0),
    );
    let mut cfg = FedTinyConfig::tiny_for_tests(0.9);
    cfg.model = spec;
    let ft = run_fedtiny(&env, &cfg);
    assert!(
        ft.accuracy >= dense.accuracy - 0.3,
        "{} vs {}",
        ft.accuracy,
        dense.accuracy
    );
}

#[test]
fn evaluation_is_stable_across_calls() {
    let env = small_env(106);
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let a1 = evaluate(model.as_mut(), &env.test);
    let a2 = evaluate(model.as_mut(), &env.test);
    assert_eq!(a1, a2, "Eval mode must not mutate the model");
}

#[test]
fn all_dataset_profiles_work_end_to_end() {
    for profile in [
        DatasetProfile::Cifar10,
        DatasetProfile::Cifar100,
        DatasetProfile::Cinic10,
        DatasetProfile::Svhn,
    ] {
        let synth = SynthConfig::tiny_for_tests(profile, 9);
        let mut cfg = FlConfig::tiny_for_tests();
        cfg.rounds = 2;
        let env = ExperimentEnv::new(synth, cfg);
        let mut ft = FedTinyConfig::tiny_for_tests(0.3);
        ft.eval_every = 1;
        let r = run_fedtiny(&env, &ft);
        assert!(
            (0.0..=1.0).contains(&r.accuracy),
            "{profile:?}: accuracy {}",
            r.accuracy
        );
    }
}

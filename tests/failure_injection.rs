//! Failure-injection tests: pathological-but-possible conditions the
//! federated pruning stack must survive (extreme skew, degenerate devices,
//! single-weight layers, empty candidate diversity).

use fedtiny_suite::data::{dirichlet_partition, Dataset, DatasetProfile, SynthConfig};
use fedtiny_suite::fedtiny::{run_fedtiny, FedTinyConfig};
use fedtiny_suite::fl::{
    no_hook, run_federated_rounds, CostLedger, DeviceProfile, ExperimentEnv, FlConfig, ModelSpec,
    Scheduler,
};
use fedtiny_suite::nn::{flat_params, sparse_layout};
use fedtiny_suite::sparse::Mask;
use ft_bench::{run_method, Method};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn survives_extreme_label_skew() {
    // α = 0.01: most devices see essentially one class.
    let synth = SynthConfig::tiny_for_tests(DatasetProfile::Cifar10, 200);
    let mut cfg = FlConfig::tiny_for_tests();
    cfg.alpha = 0.01;
    cfg.rounds = 3;
    let env = ExperimentEnv::new(synth, cfg);
    assert!(env.parts.iter().all(|p| !p.is_empty()));
    let r = run_fedtiny(&env, &FedTinyConfig::tiny_for_tests(0.3));
    assert!((0.0..=1.0).contains(&r.accuracy));
}

#[test]
fn survives_single_sample_devices() {
    // Hand-build an environment where one device owns a single sample.
    let synth = SynthConfig::tiny_for_tests(DatasetProfile::Cifar10, 201);
    let (train, test) = synth.generate();
    let mut cfg = FlConfig::tiny_for_tests();
    cfg.devices = 3;
    cfg.rounds = 2;
    let mut env = ExperimentEnv::new(synth, cfg);
    // Device 0 gets exactly one sample; the rest share everything else.
    let n = train.len();
    env.parts = vec![
        train.subset(&[0]),
        train.subset(&(1..n / 2).collect::<Vec<_>>()),
        train.subset(&(n / 2..n).collect::<Vec<_>>()),
    ];
    env.test = test;
    let r = run_fedtiny(&env, &FedTinyConfig::tiny_for_tests(0.3));
    assert!((0.0..=1.0).contains(&r.accuracy));
}

#[test]
fn extreme_density_one_weight_layers() {
    // A density so low that ceil() leaves one weight per layer.
    let env = ExperimentEnv::tiny_for_tests(202);
    let mut cfg = FedTinyConfig::tiny_for_tests(0.001);
    cfg.pool_size = 2;
    let r = run_fedtiny(&env, &cfg);
    assert!(
        r.final_density > 0.0,
        "mask must keep at least one weight per layer"
    );
    assert!((0.0..=1.0).contains(&r.accuracy));
}

#[test]
fn baselines_survive_extreme_density() {
    let env = ExperimentEnv::tiny_for_tests(203);
    let spec = ModelSpec::small_cnn_test();
    for method in [Method::SynFlow, Method::FlPqsu, Method::FedDst] {
        let r = run_method(&env, method, &method.config(&env, &spec, 0.002));
        assert!((0.0..=1.0).contains(&r.accuracy), "{method:?}");
    }
}

#[test]
fn dirichlet_handles_missing_classes() {
    // Labels covering only 2 of 10 declared classes.
    let mut rng = ChaCha8Rng::seed_from_u64(204);
    let labels: Vec<usize> = (0..40).map(|i| if i % 2 == 0 { 3 } else { 7 }).collect();
    let parts = dirichlet_partition(&mut rng, &labels, 10, 4, 0.5);
    let all: usize = parts.iter().map(Vec::len).sum();
    assert_eq!(all, 40);
    assert!(parts.iter().all(|p| !p.is_empty()));
}

#[test]
fn dataset_of_one_class_trains() {
    // Degenerate: a device whose data is a single class must still train
    // (loss well-defined, accuracy equals that class's share of the test set).
    let images = vec![0.5f32; 8 * 3 * 64];
    let labels = vec![2usize; 8];
    let part = Dataset::new(images, labels, 3, 8, 8, 10);
    let synth = SynthConfig::tiny_for_tests(DatasetProfile::Cifar10, 205);
    let mut cfg = FlConfig::tiny_for_tests();
    cfg.devices = 2;
    cfg.rounds = 2;
    let mut env = ExperimentEnv::new(synth, cfg);
    env.parts[0] = part;
    let r = run_fedtiny(&env, &FedTinyConfig::tiny_for_tests(0.4));
    assert!((0.0..=1.0).contains(&r.accuracy));
}

#[test]
fn zero_round_training_still_reports() {
    let synth = SynthConfig::tiny_for_tests(DatasetProfile::Cifar10, 206);
    let mut cfg = FlConfig::tiny_for_tests();
    cfg.rounds = 0;
    let env = ExperimentEnv::new(synth, cfg);
    let r = run_fedtiny(&env, &FedTinyConfig::tiny_for_tests(0.3));
    // No rounds: evaluation of the selected-but-untrained model.
    assert!(!r.history.is_empty());
    assert_eq!(r.max_round_flops, 0.0);
}

/// Runs plain masked FedAvg on `env` and returns (history, ledger, model
/// params after the run) — the fixture for the dropout scenarios below.
fn run_rounds(env: &ExperimentEnv) -> (Vec<f32>, CostLedger, Vec<f32>) {
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let history = run_federated_rounds(
        model.as_mut(),
        &mut mask,
        env,
        0,
        &mut ledger,
        &mut no_hook(),
    );
    (history, ledger, flat_params(model.as_ref()))
}

#[test]
fn device_dropping_every_round_is_survivable() {
    // Device 0's radio never delivers an update (dropout = 1.0); the rest
    // of the fleet must keep making progress under every policy.
    for scheduler in [
        Scheduler::Synchronous,
        Scheduler::Deadline {
            deadline_secs: 1.0e6,
        },
        Scheduler::Buffered { buffer_k: 2 },
    ] {
        let mut env = ExperimentEnv::tiny_for_tests(210);
        let mut fleet = DeviceProfile::fleet_uniform(env.num_devices());
        fleet[0].dropout = 1.0;
        env.fleet = fleet;
        env.scheduler = scheduler;
        let (history, ledger, params) = run_rounds(&env);
        let acc = *history.last().expect("nonempty");
        assert!((0.0..=1.0).contains(&acc), "{scheduler:?}");
        assert!(params.iter().all(|v| v.is_finite()), "{scheduler:?}");
        // Every one of device 0's finished tasks was discarded.
        assert!(
            ledger
                .timeline()
                .iter()
                .filter(|e| e.device == 0)
                .all(|e| !e.applied),
            "{scheduler:?}: a device-0 update slipped through"
        );
        assert!(ledger.dropped_updates() > 0, "{scheduler:?}");
        assert_eq!(ledger.zero_progress_rounds(), 0, "{scheduler:?}");
    }
}

#[test]
fn all_but_one_dropping_at_deadline_still_progresses() {
    // Every device except the first is 100x too slow for the deadline: each
    // round aggregates exactly one update.
    let mut env = ExperimentEnv::tiny_for_tests(211);
    let reference = DeviceProfile::uniform();
    let mut straggler = reference;
    straggler.flops_per_sec /= 100.0;
    straggler.bytes_per_sec /= 100.0;
    let mut fleet = vec![straggler; env.num_devices()];
    fleet[0] = reference;
    env.fleet = fleet;
    // Strictly between the tiers: generous for the reference device,
    // hopeless for the stragglers.
    let deadline_secs = {
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let densities = vec![1.0f32; sparse_layout(model.as_ref()).num_layers()];
        fedtiny_suite::fl::fleet_spread_deadline(&env, &model.arch(), &densities)
    };
    env.scheduler = Scheduler::Deadline { deadline_secs };
    let (history, ledger, params) = run_rounds(&env);
    assert!((0.0..=1.0).contains(history.last().expect("nonempty")));
    assert!(params.iter().all(|v| v.is_finite()));
    assert_eq!(ledger.zero_progress_rounds(), 0);
    for round in 0..env.cfg.rounds {
        let applied = ledger
            .timeline()
            .iter()
            .filter(|e| e.round == round && e.applied)
            .count();
        assert_eq!(applied, 1, "round {round} should keep only device 0");
    }
    // The deadline caps every round's simulated span.
    assert!(ledger.max_sim_round_secs() <= deadline_secs + 1e-9);
}

#[test]
fn empty_surviving_cohort_records_zero_progress() {
    // A deadline of zero simulated seconds: nobody ever arrives. The run
    // must not panic or NaN — it records zero-progress rounds and leaves
    // the global untouched.
    let mut env = ExperimentEnv::tiny_for_tests(212);
    env.scheduler = Scheduler::Deadline { deadline_secs: 0.0 };
    let before = {
        let model = env.build_model(&ModelSpec::small_cnn_test());
        flat_params(model.as_ref())
    };
    let (history, ledger, params) = run_rounds(&env);
    assert_eq!(ledger.zero_progress_rounds(), env.cfg.rounds);
    assert_eq!(ledger.rounds(), env.cfg.rounds);
    assert_eq!(params, before, "global model moved with no survivors");
    assert!(
        params.iter().all(|v| v.is_finite()),
        "NaN leaked into the global"
    );
    assert!(history.iter().all(|a| (0.0..=1.0).contains(a)));
    assert!(ledger.timeline().iter().all(|e| !e.applied));
}

#[test]
fn duplicate_candidates_in_pool_are_harmless() {
    use fedtiny_suite::fedtiny::{adaptive_bn_selection, generate_candidate_pool, SelectionConfig};
    let env = ExperimentEnv::tiny_for_tests(207);
    let model = env.build_model(&ModelSpec::small_cnn_test());
    let cfg = SelectionConfig {
        d_target: 0.5,
        pool_size: 1,
        noise_spread: 0.0,
        seed: 0,
    };
    let one = generate_candidate_pool(model.as_ref(), &cfg);
    // Duplicate the single candidate three times.
    let pool = vec![one[0].clone(), one[0].clone(), one[0].clone()];
    let out = adaptive_bn_selection(model.as_ref(), &env, &pool);
    assert!(out.selected < 3);
    let l0 = out.candidate_losses[0];
    assert!(out.candidate_losses.iter().all(|&l| (l - l0).abs() < 1e-5));
}

//! Resume-determinism net: a federated run killed at a round boundary and
//! resumed from its checkpoint must reproduce the *uninterrupted* run's
//! final trace byte for byte — accuracy history, final parameters, and the
//! full deterministic ledger projection (analytic FLOPs, simulated time,
//! measured payload bytes, timeline).
//!
//! "Kill" is emulated with `RunOptions::halt_after`, which stops the
//! server right after the due checkpoint is saved — exactly the state a
//! SIGKILL between rounds would leave behind (checkpoints are written
//! atomically).

use fedtiny::{run_fedtiny, run_fedtiny_with, FedTinyConfig, FedTinyRunOptions};
use fedtiny_suite::fl::{
    no_hook, run_federated_rounds, run_with, Checkpoint, CheckpointError, Codec, CostLedger,
    DeviceProfile, ExperimentEnv, InProcess, MetricsHub, ModelSpec, RunOptions, Scheduler,
    ServerError,
};
use fedtiny_suite::nn::{flat_params, sparse_layout, Model};
use fedtiny_suite::sparse::Mask;
use std::path::PathBuf;
use std::sync::Arc;

/// A unique temp path per test (the OS temp dir is shared across runs).
fn temp_ckpt(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ft_resume_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}_{}.ckpt", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// The deterministic projection compared byte-for-byte: history bits,
/// final parameter bits, and everything in the ledger except host
/// wall-clock.
fn trace(history: &[f32], model: &dyn Model, ledger: &CostLedger) -> String {
    let f32bits =
        |v: &[f32]| -> Vec<String> { v.iter().map(|x| format!("{:08x}", x.to_bits())).collect() };
    let f64bits =
        |v: &[f64]| -> Vec<String> { v.iter().map(|x| format!("{:016x}", x.to_bits())).collect() };
    format!(
        "history={:?} params={:?} flops={:?} realized={:?} sim={:?} comm={:016x} up={:?} down={:?} \
         extra={:016x} zero={} dropped={} timeline={}",
        f32bits(history),
        f32bits(&flat_params(model)),
        f64bits(ledger.round_flops_history()),
        f64bits(ledger.realized_flops_history()),
        f64bits(ledger.sim_secs_history()),
        ledger.total_comm_bytes().to_bits(),
        f64bits(ledger.payload_up_history()),
        f64bits(ledger.payload_down_history()),
        ledger.extra_flops().to_bits(),
        ledger.zero_progress_rounds(),
        ledger.dropped_updates(),
        ledger.timeline().len(),
    )
}

fn build_env(scheduler: Scheduler, codec: Codec, seed: u64) -> ExperimentEnv {
    let mut env = ExperimentEnv::tiny_for_tests(seed);
    env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
    env.scheduler = scheduler;
    env.cfg.codec = codec;
    env
}

/// One uninterrupted run via the classic entry point.
fn run_uninterrupted(scheduler: Scheduler, codec: Codec, seed: u64) -> String {
    let env = build_env(scheduler, codec, seed);
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let history = run_federated_rounds(
        model.as_mut(),
        &mut mask,
        &env,
        1,
        &mut ledger,
        &mut no_hook(),
    );
    trace(&history, model.as_ref(), &ledger)
}

/// The same run killed after `halt_after` rounds, then resumed from the
/// checkpoint in a *fresh* process-like state (new env, new model, new
/// ledger). `threads` are the worker counts of the two phases (`0` = auto).
fn run_killed_and_resumed(
    scheduler: Scheduler,
    codec: Codec,
    seed: u64,
    halt_after: usize,
    name: &str,
    threads: [usize; 2],
) -> String {
    let path = temp_ckpt(name);

    // Phase 1: run to the kill point.
    {
        let mut env = build_env(scheduler, codec, seed);
        env.cfg.threads = threads[0];
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let mut transport = InProcess;
        let _ = run_with(
            model.as_mut(),
            &mut mask,
            &env,
            1,
            &mut ledger,
            &mut no_hook(),
            RunOptions {
                transport: &mut transport,
                checkpoint: Some(path.clone()),
                resume: false,
                halt_after: Some(halt_after),
                hook_save: None,
                hook_load: None,
                presence: None,
                metrics: None,
            },
        )
        .expect("halted run");
        assert!(path.exists(), "checkpoint was not written");
    }

    // Phase 2: everything rebuilt from scratch, then resumed.
    let mut env = build_env(scheduler, codec, seed);
    env.cfg.threads = threads[1];
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut transport = InProcess;
    let history = run_with(
        model.as_mut(),
        &mut mask,
        &env,
        1,
        &mut ledger,
        &mut no_hook(),
        RunOptions {
            transport: &mut transport,
            checkpoint: Some(path.clone()),
            resume: true,
            halt_after: None,
            hook_save: None,
            hook_load: None,
            presence: None,
            metrics: None,
        },
    )
    .expect("resumed run");
    std::fs::remove_file(&path).ok();
    trace(&history, model.as_ref(), &ledger)
}

#[test]
fn ckpt_synchronous_resume_reproduces_uninterrupted_trace() {
    let full = run_uninterrupted(Scheduler::Synchronous, Codec::MaskCsr, 42);
    let resumed = run_killed_and_resumed(
        Scheduler::Synchronous,
        Codec::MaskCsr,
        42,
        2,
        "sync_maskcsr",
        [0, 0],
    );
    assert_eq!(full, resumed, "synchronous resume diverged");
}

#[test]
fn ckpt_buffered_resume_reproduces_uninterrupted_trace() {
    // The buffered checkpoint has to carry the whole event-loop state:
    // in-flight raw outcomes, per-device task counters, the virtual clock,
    // and the event budget.
    let sched = Scheduler::Buffered { buffer_k: 2 };
    let full = run_uninterrupted(sched, Codec::Dense, 42);
    let resumed = run_killed_and_resumed(sched, Codec::Dense, 42, 2, "buffered_dense", [0, 0]);
    assert_eq!(full, resumed, "buffered resume diverged");
}

#[test]
fn ckpt_buffered_halt_with_untrained_launches_resumes_exactly() {
    // Every buffered checkpoint is taken right after the finisher's
    // relaunch, i.e. with at least one launched-but-untrained task in
    // flight. The snapshot has to train it first (a checkpoint persists
    // outcomes, not launches) and the resumed run has to take it as
    // trained — at every aggregation, with error-feedback residuals riding
    // along.
    let sched = Scheduler::Buffered { buffer_k: 3 };
    let codec = Codec::TopK {
        k_frac: 0.1,
        error_feedback: true,
    };
    let full = run_uninterrupted(sched, codec, 17);
    for k in 1..4 {
        let resumed =
            run_killed_and_resumed(sched, codec, 17, k, &format!("buffered_topk_{k}"), [0, 0]);
        assert_eq!(full, resumed, "resume from aggregation {k} diverged");
    }
}

#[test]
fn ckpt_deadline_topk_resume_preserves_error_feedback_residuals() {
    // TopK with error feedback makes the per-device residuals part of the
    // run state; dropping them at the kill point would visibly shift every
    // later payload.
    let sched = Scheduler::Deadline { deadline_secs: 2.0 };
    let codec = Codec::TopK {
        k_frac: 0.1,
        error_feedback: true,
    };
    let full = run_uninterrupted(sched, codec, 7);
    let resumed = run_killed_and_resumed(sched, codec, 7, 2, "deadline_topk", [0, 0]);
    assert_eq!(full, resumed, "top-k error-feedback resume diverged");
}

#[test]
fn ckpt_halt_at_every_round_boundary_is_exact() {
    // Not just one kill point: every boundary of the 4-round run resumes
    // to the identical trace.
    let full = run_uninterrupted(Scheduler::Synchronous, Codec::Dense, 3);
    for k in 1..4 {
        let resumed = run_killed_and_resumed(
            Scheduler::Synchronous,
            Codec::Dense,
            3,
            k,
            &format!("sync_bound_{k}"),
            [0, 0],
        );
        assert_eq!(full, resumed, "resume from round {k} diverged");
    }
}

#[test]
fn ckpt_resume_under_another_thread_count_reproduces_uninterrupted_trace() {
    // The worker count only changes wall-clock (parallel ≡ sequential), so
    // a run halted on one worker resumes on two — and on auto — to the
    // uninterrupted trace instead of being refused as a different run.
    let full = run_uninterrupted(Scheduler::Synchronous, Codec::Dense, 11);
    for threads in [[1, 2], [2, 0]] {
        let resumed = run_killed_and_resumed(
            Scheduler::Synchronous,
            Codec::Dense,
            11,
            1,
            &format!("threads_{}_{}", threads[0], threads[1]),
            threads,
        );
        assert_eq!(full, resumed, "resume at threads {threads:?} diverged");
    }
}

/// Halts a run of `envs[0]` on `specs[0]` after one round, then resumes its
/// checkpoint under `envs[1]` on `specs[1]` and returns the refusal.
fn resume_error(name: &str, envs: [&ExperimentEnv; 2], specs: [&ModelSpec; 2]) -> ServerError {
    let path = temp_ckpt(name);
    let run = |env: &ExperimentEnv, spec: &ModelSpec, resume: bool| {
        let mut model = env.build_model(spec);
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = CostLedger::new();
        let mut transport = InProcess;
        let mut opts = RunOptions::new(&mut transport);
        opts.checkpoint = Some(path.clone());
        opts.resume = resume;
        opts.halt_after = Some(1);
        let mut hook = no_hook();
        run_with(
            model.as_mut(),
            &mut mask,
            env,
            1,
            &mut ledger,
            &mut hook,
            opts,
        )
    };
    run(envs[0], specs[0], false).expect("halted run");
    let err = run(envs[1], specs[1], true).expect_err("a changed run must refuse to resume");
    std::fs::remove_file(&path).ok();
    err
}

/// The path of the first field a resume refused on.
fn mismatch_path(err: ServerError) -> String {
    match err {
        ServerError::Checkpoint(CheckpointError::Mismatch(path)) => path,
        other => panic!("expected a typed mismatch, got {other}"),
    }
}

#[test]
fn ckpt_mismatched_run_is_rejected_with_typed_error() {
    // A checkpoint from seed 1 resumed under seed 2 is refused, not
    // silently diverged: the data recipe's seed is the first field.
    let spec = ModelSpec::small_cnn_test();
    let envs = [1, 2].map(|seed| build_env(Scheduler::Synchronous, Codec::Dense, seed));
    let err = resume_error("mismatch", [&envs[0], &envs[1]], [&spec; 2]);
    assert_eq!(mismatch_path(err), "data.seed");
}

/// The run identity covers the model, the data recipe and the fleet: a
/// resume under another of any is refused with the changed field's path,
/// not a panic in the restore or a silently different run.
#[test]
fn ckpt_resume_under_another_model_data_or_fleet_is_refused() {
    let base = ExperimentEnv::tiny_for_tests(6);
    let spec = ModelSpec::small_cnn_test();
    let mut more_data = base.synth;
    more_data.train_per_class += 1;
    let mixed_fleet = DeviceProfile::fleet_mixed(base.num_devices());
    let rows = [
        (
            "model",
            base.clone(),
            ModelSpec::SmallCnn { width: 1, input: 8 },
            "arch.",
        ),
        (
            "data",
            ExperimentEnv::new(more_data, base.cfg),
            spec,
            "data.train_per_class",
        ),
        (
            "fleet",
            base.clone().with_fleet(mixed_fleet),
            spec,
            "fleet[",
        ),
    ];
    for (name, env, changed_spec, field) in rows {
        let err = resume_error(
            &format!("refuse_{name}"),
            [&base, &env],
            [&spec, &changed_spec],
        );
        let path = mismatch_path(err);
        assert!(path.starts_with(field), "{name}: refused on {path}");
    }
}

#[test]
fn ckpt_corrupt_file_is_rejected_not_panicking() {
    let path = temp_ckpt("corrupt");
    std::fs::write(&path, b"FTCK garbage that is not a checkpoint").expect("write");
    let env = build_env(Scheduler::Synchronous, Codec::Dense, 5);
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut transport = InProcess;
    let err = run_with(
        model.as_mut(),
        &mut mask,
        &env,
        0,
        &mut ledger,
        &mut no_hook(),
        RunOptions {
            transport: &mut transport,
            checkpoint: Some(path.clone()),
            resume: true,
            halt_after: None,
            hook_save: None,
            hook_load: None,
            presence: None,
            metrics: None,
        },
    )
    .expect_err("corrupt checkpoint must be rejected");
    assert!(matches!(err, ServerError::Checkpoint(_)));
    std::fs::remove_file(&path).ok();
}

#[test]
fn ckpt_fedtiny_resume_matches_uninterrupted_run() {
    // The full pipeline: selection is recomputed deterministically, the
    // fine-tuning rounds resume from the checkpoint, and the progressive
    // hook's counters ride in the hook-state blob.
    let cfg = FedTinyConfig::tiny_for_tests(0.3);
    let uninterrupted = run_fedtiny(&ExperimentEnv::tiny_for_tests(11), &cfg);

    let path = temp_ckpt("fedtiny");
    let env = ExperimentEnv::tiny_for_tests(11);
    let mut transport = InProcess;
    let halted = run_fedtiny_with(
        &env,
        &cfg,
        FedTinyRunOptions {
            transport: &mut transport,
            checkpoint: Some(path.clone()),
            resume: false,
            halt_after: Some(2),
            metrics: None,
        },
    )
    .expect("halted fedtiny run");
    assert!(halted.history.len() < uninterrupted.history.len());

    let mut transport = InProcess;
    let resumed = run_fedtiny_with(
        &env,
        &cfg,
        FedTinyRunOptions {
            transport: &mut transport,
            checkpoint: Some(path.clone()),
            resume: true,
            halt_after: None,
            metrics: None,
        },
    )
    .expect("resumed fedtiny run");
    std::fs::remove_file(&path).ok();

    assert_eq!(resumed.accuracy.to_bits(), uninterrupted.accuracy.to_bits());
    assert_eq!(resumed.history, uninterrupted.history);
    assert_eq!(resumed.final_density, uninterrupted.final_density);
    assert_eq!(
        resumed.max_round_flops.to_bits(),
        uninterrupted.max_round_flops.to_bits()
    );
    assert_eq!(
        resumed.comm_bytes.to_bits(),
        uninterrupted.comm_bytes.to_bits()
    );
    assert_eq!(
        resumed.payload_comm_bytes.to_bits(),
        uninterrupted.payload_comm_bytes.to_bits()
    );
    assert_eq!(
        resumed.payload_upload_bytes.to_bits(),
        uninterrupted.payload_upload_bytes.to_bits()
    );
    assert_eq!(
        resumed.memory_bytes.to_bits(),
        uninterrupted.memory_bytes.to_bits()
    );
    assert_eq!(
        resumed.extra_flops.to_bits(),
        uninterrupted.extra_flops.to_bits()
    );
}

/// FedTiny's progressive counters ride in the hook-state blob; a resume that
/// silently dropped them would diverge from the uninterrupted run. So a blob
/// the hook cannot read (one byte short, one byte long), a missing blob, and
/// a blob resumed by a run without a hook are each a typed
/// `ServerError::Checkpoint` — while the file stays a canonical checkpoint.
#[test]
fn ckpt_unreadable_or_unexpected_hook_state_is_refused() {
    let cfg = FedTinyConfig::tiny_for_tests(0.3);
    let env = ExperimentEnv::tiny_for_tests(11);
    let path = temp_ckpt("fedtiny_hook_state");
    let run = |resume: bool| {
        let mut transport = InProcess;
        run_fedtiny_with(
            &env,
            &cfg,
            FedTinyRunOptions {
                transport: &mut transport,
                checkpoint: Some(path.clone()),
                resume,
                halt_after: Some(1),
                metrics: None,
            },
        )
    };
    run(false).expect("halted fedtiny run");
    let saved = std::fs::read(&path).expect("read checkpoint");
    // A barrier checkpoint ends with the hook blob: a `u32` count of 16,
    // then the two `u64` counters.
    let (head, blob) = saved.split_at(saved.len() - 20);
    assert_eq!(blob[..4], 16u32.to_le_bytes());
    let long = [&blob[4..], &[0]].concat();
    let cases: [(&str, &[u8]); 3] = [("short", &blob[4..19]), ("long", &long), ("empty", &[])];
    for (what, hook_state) in cases {
        let mut bytes = head.to_vec();
        bytes.extend_from_slice(&(hook_state.len() as u32).to_le_bytes());
        bytes.extend_from_slice(hook_state);
        let canonical = Checkpoint::from_bytes(&bytes).expect("still a checkpoint");
        assert_eq!(canonical.to_bytes(), bytes, "{what}");
        std::fs::write(&path, &bytes).expect("write checkpoint");
        let err = run(true).expect_err(what);
        let typed = match what {
            "empty" => matches!(err, ServerError::Checkpoint(CheckpointError::Mismatch(_))),
            _ => matches!(err, ServerError::Checkpoint(CheckpointError::Corrupt(_))),
        };
        assert!(typed, "{what}: {err}");
    }

    // The checkpoint as written, resumed by a run without a hook.
    std::fs::write(&path, &saved).expect("write checkpoint");
    let env = env.with_codec(cfg.codec);
    let mut model = env.build_model(&cfg.model);
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut transport = InProcess;
    let mut opts = RunOptions::new(&mut transport);
    opts.checkpoint = Some(path.clone());
    opts.resume = true;
    let err = run_with(
        model.as_mut(),
        &mut mask,
        &env,
        cfg.eval_every,
        &mut ledger,
        &mut no_hook(),
        opts,
    )
    .expect_err("a hook state without a hook");
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(err, ServerError::Checkpoint(CheckpointError::Mismatch(_))),
        "{err}"
    );
}

#[test]
fn ckpt_fedtiny_halt_before_first_eval_returns_nan_not_panic() {
    // FedTinyConfig::paper_default uses eval_every = 10: halting at round
    // 1 means no evaluation has happened yet. The Result-returning API
    // must report that as an empty history with NaN accuracy, not a panic
    // — the checkpoint carries the real state for the resume.
    let mut cfg = FedTinyConfig::tiny_for_tests(0.3);
    cfg.eval_every = 100; // only the final round would evaluate
    let path = temp_ckpt("fedtiny_noeval");
    let env = ExperimentEnv::tiny_for_tests(13);
    let mut transport = InProcess;
    let halted = run_fedtiny_with(
        &env,
        &cfg,
        FedTinyRunOptions {
            transport: &mut transport,
            checkpoint: Some(path.clone()),
            resume: false,
            halt_after: Some(1),
            metrics: None,
        },
    )
    .expect("halted fedtiny run must not panic");
    assert!(halted.history.is_empty());
    assert!(halted.accuracy.is_nan());

    // Resuming the same config completes normally with a real accuracy.
    let mut transport = InProcess;
    let resumed = run_fedtiny_with(
        &env,
        &cfg,
        FedTinyRunOptions {
            transport: &mut transport,
            checkpoint: Some(path.clone()),
            resume: true,
            halt_after: None,
            metrics: None,
        },
    )
    .expect("resumed fedtiny run");
    std::fs::remove_file(&path).ok();
    assert!(!resumed.history.is_empty());
    assert!(resumed.accuracy.is_finite());
}

#[test]
fn ckpt_changed_hyperparameters_are_rejected() {
    // The identity covers the *full* FlConfig: resuming under a changed
    // batch size (or any other hyperparameter) must refuse, because the
    // remaining rounds' math would silently diverge from both the original
    // and a fresh run.
    let env = build_env(Scheduler::Synchronous, Codec::Dense, 4);
    let mut changed = env.clone();
    changed.cfg.batch_size += 1;
    let spec = ModelSpec::small_cnn_test();
    let err = resume_error("hyperparam", [&env, &changed], [&spec; 2]);
    assert!(err.to_string().contains("cfg.batch_size differs"), "{err}");
    assert_eq!(mismatch_path(err), "cfg.batch_size");
}

#[test]
fn ckpt_resuming_a_finished_run_publishes_its_ledger() {
    // Resuming a run that had already finished does no round — but it
    // leaves through the loop's own exit, so a metrics hub attached to the
    // resume still reports the restored ledger's totals.
    for sched in [Scheduler::Synchronous, Scheduler::Buffered { buffer_k: 2 }] {
        let path = temp_ckpt(&format!("finished_{}", sched.name()));
        let run = |resume: bool, metrics: Option<Arc<MetricsHub>>| {
            let env = build_env(sched, Codec::MaskCsr, 11);
            let mut model = env.build_model(&ModelSpec::small_cnn_test());
            let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
            let mut ledger = CostLedger::new();
            let mut transport = InProcess;
            let mut opts = RunOptions::new(&mut transport);
            opts.checkpoint = Some(path.clone());
            opts.resume = resume;
            opts.metrics = metrics;
            let history = run_with(
                model.as_mut(),
                &mut mask,
                &env,
                1,
                &mut ledger,
                &mut no_hook(),
                opts,
            )
            .expect("run");
            (history, ledger, env.cfg.rounds)
        };
        let (history, ledger, rounds) = run(false, None);
        let hub = MetricsHub::new();
        let (resumed_history, resumed_ledger, _) = run(true, Some(Arc::clone(&hub)));
        std::fs::remove_file(&path).ok();
        assert_eq!(resumed_history, history, "{sched:?}: history not restored");
        let up = ledger.total_payload_upload_bytes();
        assert_eq!(resumed_ledger.total_payload_upload_bytes(), up);

        let body = hub.render_text();
        let value = |name: &str| -> f64 {
            body.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("{name} missing from\n{body}"))
        };
        assert_eq!(value("ft_rounds_completed"), rounds as f64, "{sched:?}");
        assert!(up > 0.0);
        assert_eq!(
            value("ft_payload_bytes_total{direction=\"up\"}").to_bits(),
            up.to_bits(),
            "{sched:?}: the hub missed the restored ledger"
        );
    }
}

/// The bytes of a checkpoint written after `halt_after` rounds of a run of
/// `spec` under `scheduler`.
fn sample_checkpoint(scheduler: Scheduler, spec: &ModelSpec, halt_after: usize) -> Vec<u8> {
    let path = temp_ckpt(&format!("fuzz_sample_{}", scheduler.name()));
    let env = build_env(scheduler, Codec::MaskCsr, 5);
    let mut model = env.build_model(spec);
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut transport = InProcess;
    let mut opts = RunOptions::new(&mut transport);
    opts.checkpoint = Some(path.clone());
    opts.halt_after = Some(halt_after);
    run_with(
        model.as_mut(),
        &mut mask,
        &env,
        1,
        &mut ledger,
        &mut no_hook(),
        opts,
    )
    .expect("halted sample run");
    let bytes = std::fs::read(&path).expect("read sample checkpoint");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Mutation fuzz of the checkpoint decoder: every mutant of two sample
/// checkpoints — one synchronous, one buffered with tasks in flight, both of
/// a model whose mask layers are not whole bytes — either fails with a typed
/// error or decodes to a checkpoint that re-serialises to exactly the
/// mutant's bytes. Never a panic, and never a second encoding of one value
/// (set padding bits in a packed bit vector were one). Mutations: a flipped
/// bit, a replaced byte, a truncation, a deleted or an inserted byte, from a
/// fixed seed.
#[test]
fn ckpt_decoder_mutants_are_typed_errors_or_canonical() {
    use rand::{Rng, SeedableRng};
    // `SmallCnn` at width 1: a 2·1·3·3 = 18-bit mask layer, six padding bits.
    let spec = ModelSpec::SmallCnn { width: 1, input: 8 };
    let samples = [
        sample_checkpoint(Scheduler::Synchronous, &spec, 2),
        sample_checkpoint(Scheduler::Buffered { buffer_k: 2 }, &spec, 2),
    ];
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x0f0f);
    let (mut errors, mut decoded) = (0usize, 0usize);
    for sample in &samples {
        let canonical = Checkpoint::from_bytes(sample).expect("sample decodes");
        assert_eq!(&canonical.to_bytes(), sample, "sample is canonical");
        for _ in 0..12_000 {
            let mut m = sample.clone();
            let at = rng.gen_range(0..m.len());
            match rng.gen_range(0..5u32) {
                0 | 1 => m[at] ^= 1 << rng.gen_range(0..8u32),
                2 => m[at] = rng.gen_range(0..=255u32) as u8,
                3 => m.truncate(at),
                _ if rng.gen_range(0..2u32) == 0 => {
                    m.remove(at);
                }
                _ => m.insert(at, rng.gen_range(0..=255u32) as u8),
            }
            match Checkpoint::from_bytes(&m) {
                Err(_) => errors += 1,
                Ok(c) => {
                    decoded += 1;
                    assert!(
                        c.to_bytes() == m,
                        "a mutant decoded to a non-canonical checkpoint"
                    );
                }
            }
        }
    }
    // Both outcomes occur: the mutants reach past the header.
    assert!(
        errors > 0 && decoded > 0,
        "{errors} errors, {decoded} decodes"
    );
}

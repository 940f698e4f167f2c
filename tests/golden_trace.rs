//! Golden-trace determinism net for the fleet simulation and the wire
//! byte-accounting.
//!
//! The committed traces pin the bit-exact accuracy history, simulated-time
//! ledger, and measured payload bytes of:
//!
//! - `tests/golden/synchronous_trace.txt` — a `Synchronous` run on a mixed
//!   fleet under the `Dense` codec;
//! - `tests/golden/deadline_maskcsr_trace.txt` — a `Deadline` run on the
//!   same fleet under `MaskCsr` with a half-pruned first layer, so the
//!   values-only sparse upload path (and its byte accounting) is pinned
//!   bit-for-bit;
//! - `tests/golden/buffered_fedavg_trace.txt` — a `Buffered { buffer_k: 2 }`
//!   run on the same fleet under `MaskCsr` and `FedAvg`, with a hook that
//!   moves the mask once, so staleness-discounted weights and stale-epoch
//!   (indexed) payloads go through the aggregation engine;
//! - `tests/golden/topk_feedback_trace.txt` — two `Buffered { buffer_k: 2 }`
//!   runs on the same fleet under error-feedback `TopK`, so the device
//!   residuals carry over between encodes. In the first (`k_frac` 0.1) a
//!   hook prunes most of layer 0 after aggregation 0; in the second
//!   (`k_frac` 0.5) it prunes most of both prunable layers, so more masked
//!   zeros tie at the cut than slots remain and the encoder's tie-overflow
//!   path picks among them;
//! - `tests/golden/buffered_trimmed_topk_trace.txt` — the whole-run
//!   benchmark's `buffered_fleet` recipe at test size: `Buffered
//!   { buffer_k: 8 }` over twelve mixed devices, error-feedback `TopK`
//!   (`k_frac` 0.1) and a `TrimmedMean` (β = 0.125), with one device fast
//!   enough to arrive twice in a window, so its second encode reads the
//!   residual its first one left.
//!
//! Any refactor of the round loop, the aggregation path, the RNG
//! derivation, the time model, or the codecs that changes observable
//! behavior shows up as a readable diff here.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```bash
//! FT_BLESS=1 cargo test --test golden_trace
//! ```

use fedtiny_suite::fl::{
    no_hook, run_federated_rounds, run_with, Aggregator, Codec, CostLedger, DeviceProfile,
    ExperimentEnv, ModelSpec, RunOptions, Scheduler, SimTime,
};
use fedtiny_suite::nn::{apply_mask, flat_params, sparse_layout, Model};
use fedtiny_suite::sparse::Mask;

const SYNCHRONOUS_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/synchronous_trace.txt"
);
const DEADLINE_MASKCSR_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/deadline_maskcsr_trace.txt"
);
const BUFFERED_FEDAVG_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/buffered_fedavg_trace.txt"
);
const TOPK_FEEDBACK_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/topk_feedback_trace.txt"
);
const BUFFERED_TRIMMED_TOPK_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/buffered_trimmed_topk_trace.txt"
);

/// Renders one run's trace: one line per round with accuracy, simulated
/// makespan, and measured payload bytes (display value + exact bits), then
/// a footer with run totals. Bits make the comparison exact; display values
/// make the diff human-readable.
fn render_trace(header: &str, history: &[f32], ledger: &CostLedger) -> String {
    let mut out = String::from(header);
    for (round, acc) in history.iter().enumerate() {
        let sim = ledger.sim_secs_history()[round];
        let flops = ledger.round_flops_history()[round];
        let up = ledger.payload_up_history()[round];
        let down = ledger.payload_down_history()[round];
        out.push_str(&format!(
            "round {round}: acc={acc:.4} acc_bits={:08x} sim_secs={sim:.6} sim_bits={:016x} \
             flops_bits={:016x} up_bytes={up:.0} up_bits={:016x} down_bytes={down:.0} down_bits={:016x}\n",
            acc.to_bits(),
            sim.to_bits(),
            flops.to_bits(),
            up.to_bits(),
            down.to_bits(),
        ));
    }
    out.push_str(&format!(
        "total: sim_makespan_bits={:016x} comm_bits={:016x} payload_bits={:016x} upload_bits={:016x} \
         zero_progress={} dropped={} timeline_events={}\n",
        ledger.sim_makespan_secs().to_bits(),
        ledger.total_comm_bytes().to_bits(),
        ledger.total_payload_bytes().to_bits(),
        ledger.total_payload_upload_bytes().to_bits(),
        ledger.zero_progress_rounds(),
        ledger.dropped_updates(),
        ledger.timeline().len(),
    ));
    out
}

fn compare_or_bless(path: &str, got: &str) {
    if std::env::var("FT_BLESS").is_ok() {
        std::fs::write(path, got).expect("write golden trace");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("missing {path} — run FT_BLESS=1 cargo test --test golden_trace")
    });
    assert_eq!(
        got, &want,
        "golden trace {path} drifted; if intentional, regenerate with \
         FT_BLESS=1 cargo test --test golden_trace"
    );
}

fn synchronous_trace() -> String {
    let mut env = ExperimentEnv::tiny_for_tests(42);
    env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
    env.scheduler = Scheduler::Synchronous;
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
    render_trace(
        "# Golden trace: Synchronous scheduler, mixed fleet, tiny env (seed 42),\n\
         # small_cnn_test, Dense codec, eval_every = 1.\n\
         # Regenerate: FT_BLESS=1 cargo test --test golden_trace\n",
        &history,
        &ledger,
    )
}

fn deadline_maskcsr_trace() -> String {
    let mut env = ExperimentEnv::tiny_for_tests(42);
    env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
    env.scheduler = Scheduler::Deadline { deadline_secs: 2.0 };
    env.cfg.codec = Codec::MaskCsr;
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let layout = sparse_layout(model.as_ref());
    let mut mask = Mask::ones(&layout);
    // Half-prune the first layer so the sparse values-only upload (and its
    // byte accounting) is genuinely exercised, not just dense-with-headers.
    for i in 0..layout.layer(0).len {
        if i % 2 == 0 {
            mask.set(0, i, false);
        }
    }
    apply_mask(model.as_mut(), &mask);
    let mut ledger = CostLedger::new();
    let history = run_federated_rounds(
        model.as_mut(),
        &mut mask,
        &env,
        1,
        &mut ledger,
        &mut no_hook(),
    );
    render_trace(
        "# Golden trace: Deadline(2.0s) scheduler, mixed fleet, tiny env (seed 42),\n\
         # small_cnn_test with layer 0 half-pruned, MaskCsr codec, eval_every = 1.\n\
         # Pins the measured values-only sparse byte accounting bit-for-bit.\n\
         # Regenerate: FT_BLESS=1 cargo test --test golden_trace\n",
        &history,
        &ledger,
    )
}

fn buffered_fedavg_trace() -> String {
    let mut env = ExperimentEnv::tiny_for_tests(42);
    env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
    env.scheduler = Scheduler::Buffered { buffer_k: 2 };
    env.cfg.codec = Codec::MaskCsr;
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let layout = sparse_layout(model.as_ref());
    let mut mask = Mask::ones(&layout);
    let mut ledger = CostLedger::new();
    // Half-prune the first layer after the first aggregation: the device
    // still in flight trained under mask epoch 0 and arrives at epoch 1, so
    // its `MaskCsr` upload carries explicit indices and a staleness > 0.
    let layer0 = layout.layer(0).len;
    let mut hook = |_: &mut dyn Model, mask: &mut Mask, round: usize, _: &mut CostLedger| {
        if round == 0 {
            for i in (0..layer0).step_by(2) {
                mask.set(0, i, false);
            }
        }
        0.0
    };
    let history = run_federated_rounds(model.as_mut(), &mut mask, &env, 1, &mut ledger, &mut hook);
    let mut out = render_trace(
        "# Golden trace: Buffered(k=2) scheduler, mixed fleet, tiny env (seed 42),\n\
         # small_cnn_test, MaskCsr codec, FedAvg, eval_every = 1; the hook half-prunes\n\
         # layer 0 after aggregation 0, so a stale-epoch indexed payload is aggregated.\n\
         # Regenerate: FT_BLESS=1 cargo test --test golden_trace\n",
        &history,
        &ledger,
    );
    out.push_str(&buffered_footer(model.as_ref(), &ledger));
    out
}

/// Accuracy on the tiny test split is a coarse witness of the aggregation
/// arithmetic; the staleness of every applied arrival and an FNV-1a fold of
/// the final parameter bits pin it exactly.
fn buffered_footer(model: &dyn Model, ledger: &CostLedger) -> String {
    let staleness: Vec<String> = ledger
        .timeline()
        .iter()
        .filter(|e| e.applied)
        .map(|e| e.staleness.to_string())
        .collect();
    let fold = flat_params(model)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!(
        "applied_staleness={} params_fold={fold:016x}\n",
        staleness.join(",")
    )
}

/// One buffered error-feedback `TopK` run at `k_frac` whose hook, after
/// aggregation 0, prunes seven of every eight weights of the first
/// `layers` prunable layers.
fn topk_feedback_run(k_frac: f32, layers: usize, header: &str) -> String {
    let mut env = ExperimentEnv::tiny_for_tests(42);
    env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
    env.scheduler = Scheduler::Buffered { buffer_k: 2 };
    env.cfg.codec = Codec::TopK {
        k_frac,
        error_feedback: true,
    };
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let layout = sparse_layout(model.as_ref());
    let mut mask = Mask::ones(&layout);
    let mut ledger = CostLedger::new();
    let lens: Vec<usize> = (0..layers).map(|l| layout.layer(l).len).collect();
    let mut hook = |_: &mut dyn Model, mask: &mut Mask, round: usize, _: &mut CostLedger| {
        if round == 0 {
            for (l, &len) in lens.iter().enumerate() {
                for i in (0..len).filter(|i| i % 8 != 0) {
                    mask.set(l, i, false);
                }
            }
        }
        0.0
    };
    let history = run_federated_rounds(model.as_mut(), &mut mask, &env, 1, &mut ledger, &mut hook);
    let mut out = render_trace(header, &history, &ledger);
    out.push_str(&buffered_footer(model.as_ref(), &ledger));
    out
}

fn topk_feedback_trace() -> String {
    let mut out = topk_feedback_run(
        0.1,
        1,
        "# Golden trace: Buffered(k=2) scheduler, mixed fleet, tiny env (seed 42),\n\
         # small_cnn_test, TopK { k_frac: 0.1, error_feedback: true }, FedAvg,\n\
         # eval_every = 1; the hook prunes 7/8 of layer 0 after aggregation 0.\n\
         # Regenerate: FT_BLESS=1 cargo test --test golden_trace\n",
    );
    out.push_str(&topk_feedback_run(
        0.5,
        2,
        "# Same run at TopK { k_frac: 0.5, error_feedback: true }; the hook prunes 7/8\n\
         # of layers 0 and 1, so masked zeros tie at the cut beyond the slots left.\n",
    ));
    out
}

/// The `buffered_fleet` recipe at test size. Returns the rendered trace and
/// whether some device arrived twice within one window.
fn buffered_trimmed_topk_trace() -> (String, bool) {
    let mut env = ExperimentEnv::tiny_for_tests(42);
    env.cfg.devices = 12;
    env.cfg.rounds = 6;
    env = ExperimentEnv::new(env.synth, env.cfg);
    env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
    env.scheduler = Scheduler::Buffered { buffer_k: 8 };
    env.cfg.codec = Codec::TopK {
        k_frac: 0.1,
        error_feedback: true,
    };
    env.cfg.aggregator = Aggregator::TrimmedMean { beta: 0.125 };
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
    let timeline = ledger.timeline();
    let lapped = timeline.iter().enumerate().any(|(i, a)| {
        (timeline[i + 1..].iter()).any(|b| (b.device, b.round) == (a.device, a.round))
    });
    let mut out = render_trace(
        "# Golden trace: Buffered(k=8) scheduler, 12 mixed devices, tiny data (seed 42),\n\
         # small_cnn_test, TopK { k_frac: 0.1, error_feedback: true },\n\
         # TrimmedMean { beta: 0.125 }, eval_every = 1.\n\
         # Regenerate: FT_BLESS=1 cargo test --test golden_trace\n",
        &history,
        &ledger,
    );
    out.push_str(&buffered_footer(model.as_ref(), &ledger));
    (out, lapped)
}

#[test]
fn sim_golden_trace_synchronous_matches_committed() {
    compare_or_bless(SYNCHRONOUS_PATH, &synchronous_trace());
}

/// The `SimTime` transport — every update serialized into a real frame and
/// parsed back — reproduces the committed `InProcess` golden trace byte for
/// byte. This is the wire layer's strongest guarantee: crossing the byte
/// boundary changes nothing, so the traces stay pinned to the SAME files.
#[test]
fn sim_golden_trace_synchronous_identical_over_byte_boundary() {
    if std::env::var("FT_BLESS").is_ok() {
        return; // blessing is the InProcess test's job
    }
    let mut env = ExperimentEnv::tiny_for_tests(42);
    env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
    env.scheduler = Scheduler::Synchronous;
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut transport = SimTime;
    let history = run_with(
        model.as_mut(),
        &mut mask,
        &env,
        1,
        &mut ledger,
        &mut no_hook(),
        RunOptions::new(&mut transport),
    )
    .expect("sim_time run");
    let got = render_trace(
        "# Golden trace: Synchronous scheduler, mixed fleet, tiny env (seed 42),\n\
         # small_cnn_test, Dense codec, eval_every = 1.\n\
         # Regenerate: FT_BLESS=1 cargo test --test golden_trace\n",
        &history,
        &ledger,
    );
    let want = std::fs::read_to_string(SYNCHRONOUS_PATH).expect("committed golden trace");
    assert_eq!(
        got, want,
        "SimTime transport diverged from the committed InProcess golden trace"
    );
}

#[test]
fn sim_golden_trace_deadline_maskcsr_matches_committed() {
    compare_or_bless(DEADLINE_MASKCSR_PATH, &deadline_maskcsr_trace());
}

#[test]
fn sim_golden_trace_buffered_fedavg_matches_committed() {
    compare_or_bless(BUFFERED_FEDAVG_PATH, &buffered_fedavg_trace());
}

#[test]
fn sim_golden_trace_topk_feedback_matches_committed() {
    compare_or_bless(TOPK_FEEDBACK_PATH, &topk_feedback_trace());
}

/// Error-feedback encodes of a device that laps its window run in arrival
/// order, each on the residual the previous one left.
#[test]
fn sim_golden_trace_buffered_trimmed_topk_matches_committed() {
    let (trace, lapped) = buffered_trimmed_topk_trace();
    assert!(lapped, "no device arrived twice in one window");
    compare_or_bless(BUFFERED_TRIMMED_TOPK_PATH, &trace);
}

/// The same scenario is bit-identical across parallel and sequential device
/// execution — the golden files pin two of them, this pins every scheduler
/// policy against itself (their ledgers embed jitter, staleness, and drop
/// decisions, so equality here is a strong invariant).
#[test]
fn sim_every_policy_parallel_equals_sequential_trace() {
    for scheduler in [
        Scheduler::Synchronous,
        Scheduler::Deadline { deadline_secs: 2.0 },
        Scheduler::Buffered { buffer_k: 2 },
    ] {
        let run = |parallel: bool| -> (Vec<f32>, Vec<String>, usize) {
            let mut env = ExperimentEnv::tiny_for_tests(42);
            env.cfg.threads = if parallel { 4 } else { 1 };
            env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
            env.scheduler = scheduler;
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
            let sim_bits: Vec<String> = ledger
                .sim_secs_history()
                .iter()
                .chain(ledger.payload_up_history().iter())
                .map(|s| format!("{:016x}", s.to_bits()))
                .collect();
            (history, sim_bits, ledger.dropped_updates())
        };
        let a = run(true);
        let b = run(false);
        assert_eq!(a, b, "{scheduler:?}: parallel/sequential divergence");
    }
}

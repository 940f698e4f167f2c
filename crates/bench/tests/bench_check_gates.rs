//! `bench_check`'s gates can fail: the built binary is run on doctored
//! copies of the committed reports, and each doctored record must turn the
//! exit code and name the gate it tripped. A gate that cannot be made to
//! fail guards nothing.

use ft_bench::trajectory::{BenchRecord, BenchReport};
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join(name)
}

fn committed(name: &str) -> BenchReport {
    let path = workspace_file(name);
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("committed {name}: {e}"));
    BenchReport::from_json(&json).expect("committed report parses")
}

fn committed_micro_ops() -> BenchReport {
    committed("BENCH_micro_ops.json")
}

/// Writes `report` under `case` for `bench_check` to read.
fn doctored(case: &str, report: &BenchReport) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{case}.json"));
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    std::fs::write(&path, json).expect("write doctored report");
    path
}

/// Runs `bench_check` on a micro-ops and a fleet report; returns `(passed,
/// stdout + stderr)`.
fn run_check(micro_ops: &Path, fleet: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_check"))
        .arg(micro_ops)
        .arg(fleet)
        .output()
        .expect("spawn bench_check");
    let text = [out.stdout, out.stderr].concat();
    (
        out.status.success(),
        String::from_utf8_lossy(&text).into_owned(),
    )
}

/// Runs `bench_check` on `report` (written under `case`) and the committed
/// fleet report.
fn check(case: &str, report: &BenchReport) -> (bool, String) {
    let path = doctored(&format!("{case}_micro_ops"), report);
    run_check(&path, &workspace_file("BENCH_fleet.json"))
}

/// Runs `bench_check` on the committed micro-ops report and `fleet`.
fn check_fleet(case: &str, fleet: &BenchReport) -> (bool, String) {
    let path = doctored(&format!("{case}_fleet"), fleet);
    run_check(&workspace_file("BENCH_micro_ops.json"), &path)
}

fn is_sweep(r: &BenchRecord, engine: &str) -> bool {
    r.op.starts_with("dispatch_sweep_") && r.op.ends_with(engine) && r.density == 0.05
}

#[test]
fn committed_reports_pass_with_g1_to_g4_evaluated() {
    let report = committed_micro_ops();
    let (passed, text) = check("committed", &report);
    assert!(passed, "{text}");
    for gate in [
        "ok g1 ",
        "ok g2 ",
        "ok g3 ",
        "ok g4 ",
        "ok topk_encode small_cnn_w16_8px:",
        "ok topk_encode small_cnn_w16_8px alloc",
        "ok topk_encode resnet18_w0.25_16px:",
        "ok topk_encode resnet18_w0.25_16px alloc",
        "ok rank_fold small_cnn_w16_8px:",
        "ok rank_fold small_cnn_w16_8px alloc",
        "ok rank_fold resnet18_w0.25_16px:",
        "ok rank_fold resnet18_w0.25_16px alloc",
        "ok fleet_synchronous ",
        "ok fleet_deadline ",
        "ok fleet_buffered ",
    ] {
        assert!(text.contains(gate), "{gate:?} not evaluated:\n{text}");
    }
    // The committed report times nothing the system does not run.
    for r in &report.records {
        let retired = r.op == "spmm" || r.op == "sddmm_nt" || r.op.ends_with("_legacy");
        assert!(!retired, "{} recorded", r.op);
    }
}

/// A sparse engine as slow as the dense one over the same masked weight.
#[test]
fn g1_fails_when_spconv_takes_dense_time() {
    let mut report = committed_micro_ops();
    let dense: Vec<BenchRecord> = report
        .records
        .iter()
        .filter(|r| is_sweep(r, "_dense"))
        .cloned()
        .collect();
    assert_eq!(dense.len(), 4, "fwd + bwd at two shapes");
    for r in report.records.iter_mut().filter(|r| is_sweep(r, "_csr")) {
        let twin = dense
            .iter()
            .find(|d| d.shape == r.shape && d.op == r.op.replace("_csr", "_dense"))
            .expect("dense twin");
        r.ns_per_iter = twin.ns_per_iter;
    }
    let (passed, text) = check("g1_slow", &report);
    assert!(!passed && text.contains("FAIL g1 spconv"), "{text}");
}

#[test]
fn g1_missing_records_fail_hard_instead_of_skipping() {
    let mut report = committed_micro_ops();
    report
        .records
        .retain(|r| !r.op.starts_with("dispatch_sweep_"));
    let (passed, text) = check("g1_missing", &report);
    assert!(!passed, "{text}");
    assert!(
        text.contains("FAIL g1 spconv") && text.contains("missing") && !text.contains("SKIP g1"),
        "{text}"
    );
}

/// A training step that keeps half as much of its convolution kernel —
/// where the im2col + GEMM step read.
#[test]
fn g2_fails_when_the_dense_step_halves() {
    let mut report = committed_micro_ops();
    let step = report
        .records
        .iter_mut()
        .find(|r| r.op == "resnet_step" && r.density == 1.0)
        .expect("resnet_step d=1.0");
    step.gflops /= 2.0;
    let (passed, text) = check("g2_slow", &report);
    assert!(!passed && text.contains("FAIL g2 resnet_step"), "{text}");
}

#[test]
fn g3_fails_when_matmul_reads_30_gflops() {
    let mut report = committed_micro_ops();
    let matmul = report
        .records
        .iter_mut()
        .find(|r| r.op == "matmul" && r.shape == "512x512x512" && r.requested_threads == 1)
        .expect("matmul 512² @1t");
    matmul.gflops = 30.0;
    let (passed, text) = check("g3_slow", &report);
    assert!(!passed && text.contains("FAIL g3 matmul"), "{text}");
}

/// Batch-norm kernels as slow as the scalar loops they replaced.
#[test]
fn g4_fails_when_bn_takes_oracle_time() {
    let mut report = committed_micro_ops();
    let oracles: Vec<BenchRecord> = report
        .records
        .iter()
        .filter(|r| r.op.starts_with("bn_") && r.op.ends_with("_oracle"))
        .cloned()
        .collect();
    assert_eq!(oracles.len(), 4, "fwd + bwd at two shapes");
    for r in report
        .records
        .iter_mut()
        .filter(|r| r.op == "bn_fwd" || r.op == "bn_bwd")
    {
        let twin = oracles
            .iter()
            .find(|o| o.shape == r.shape && o.op == format!("{}_oracle", r.op))
            .expect("oracle twin");
        r.ns_per_iter = twin.ns_per_iter;
    }
    let (passed, text) = check("g4_slow", &report);
    assert!(!passed && text.contains("FAIL g4 bn"), "{text}");
}

/// An UPDATE encoder that builds its payload in a temporary `Vec` again —
/// the 97 KB a `wide_fleet_tcp` frame carries — and one whose record is
/// gone: both fail the frame allocation gate.
#[test]
fn frame_encode_gate_fails_when_the_encoder_allocates() {
    let committed = committed_micro_ops();
    let mut report = committed.clone();
    let encode = report
        .records
        .iter_mut()
        .find(|r| r.op == "frame_update_encode")
        .expect("frame_update_encode record");
    encode.alloc_bytes_per_round = 97_000.0;
    let (passed, text) = check("frame_alloc", &report);
    assert!(
        !passed && text.contains("FAIL frame_update_encode"),
        "{text}"
    );

    let mut report = committed;
    report.records.retain(|r| r.op != "frame_update_encode");
    let (passed, text) = check("frame_missing", &report);
    assert!(
        !passed && text.contains("FAIL frame_update_encode") && text.contains("missing"),
        "{text}"
    );
}

/// An encoder back at the heap's time, one that copies its `n`-length input
/// again, and one whose record is gone: each fails the `topk_encode` gate.
#[test]
fn topk_encode_gate_fails_on_heap_time_a_copy_or_a_missing_record() {
    let committed = committed_micro_ops();
    let is_dense_encode = |r: &BenchRecord| r.op == "topk_encode" && r.density == 1.0;
    assert_eq!(
        committed
            .records
            .iter()
            .filter(|r| is_dense_encode(r))
            .count(),
        2,
        "one dense topk_encode record per model shape"
    );

    let mut report = committed.clone();
    let oracle = report
        .records
        .iter()
        .find(|r| r.op == "topk_encode_oracle" && r.shape == "small_cnn_w16_8px")
        .map(|r| r.ns_per_iter)
        .expect("topk_encode_oracle record");
    let encode = (report.records.iter_mut())
        .find(|r| is_dense_encode(r) && r.shape == "small_cnn_w16_8px")
        .expect("topk_encode record");
    encode.ns_per_iter = oracle;
    let (passed, text) = check("topk_slow", &report);
    assert!(
        !passed && text.contains("FAIL topk_encode small_cnn_w16_8px:"),
        "{text}"
    );

    let mut report = committed.clone();
    let encode = (report.records.iter_mut())
        .find(|r| is_dense_encode(r) && r.shape == "resnet18_w0.25_16px")
        .expect("topk_encode record");
    encode.alloc_bytes_per_round += 4.0 * encode.count_per_iter / 0.1;
    let (passed, text) = check("topk_copy", &report);
    assert!(
        !passed && text.contains("FAIL topk_encode resnet18_w0.25_16px alloc"),
        "{text}"
    );

    let mut report = committed;
    report.records.retain(|r| !is_dense_encode(r));
    let (passed, text) = check("topk_missing", &report);
    assert!(
        !passed && text.contains("FAIL topk_encode") && text.contains("missing"),
        "{text}"
    );
}

/// A fold back at the per-coordinate sort's time, one that allocates a
/// column per fold again, and one whose record is gone: each fails the
/// `rank_fold` gate.
#[test]
fn rank_fold_gate_fails_on_sort_time_an_allocation_or_a_missing_record() {
    fn fold_at<'r>(report: &'r mut BenchReport, shape: &str) -> &'r mut BenchRecord {
        (report.records.iter_mut())
            .find(|r| r.op == "rank_fold" && r.shape == shape)
            .expect("rank_fold record")
    }
    let committed = committed_micro_ops();

    let mut report = committed.clone();
    let oracle = (report.records.iter())
        .find(|r| r.op == "rank_fold_oracle" && r.shape == "small_cnn_w16_8px")
        .map(|r| r.ns_per_iter)
        .expect("rank_fold_oracle record");
    fold_at(&mut report, "small_cnn_w16_8px").ns_per_iter = oracle;
    let (passed, text) = check("rank_slow", &report);
    assert!(
        !passed && text.contains("FAIL rank_fold small_cnn_w16_8px:"),
        "{text}"
    );

    let mut report = committed.clone();
    fold_at(&mut report, "resnet18_w0.25_16px").alloc_bytes_per_round = 32.0;
    let (passed, text) = check("rank_alloc", &report);
    assert!(
        !passed && text.contains("FAIL rank_fold resnet18_w0.25_16px alloc"),
        "{text}"
    );

    let mut report = committed;
    report.records.retain(|r| r.op != "rank_fold_oracle");
    let (passed, text) = check("rank_missing", &report);
    assert!(
        !passed && text.contains("FAIL rank_fold") && text.contains("missing"),
        "{text}"
    );
}

/// A buffered run that takes longer at two threads than at one — as every
/// scheduler did in the quick record committed while each scatter spawned
/// its threads — a missing record, a four-core report (the gate reads its
/// 2-thread record, not the widest), and a one-core or quick report, which
/// skips the gate instead of failing it.
#[test]
fn fleet_gate_fails_when_two_threads_are_slower_than_one() {
    let committed = committed("BENCH_fleet.json");
    let wall = |r: &BenchReport, t: usize| {
        (r.records.iter())
            .find(|x| x.op == "fleet_buffered" && x.requested_threads == t)
            .map(|x| x.ns_per_iter)
            .expect("fleet_buffered record")
    };
    let mut report = committed.clone();
    let one = wall(&report, 1);
    let two = (report.records.iter_mut())
        .find(|r| r.op == "fleet_buffered" && r.requested_threads == 2)
        .expect("fleet_buffered @2t");
    two.ns_per_iter = one * 1.03;
    let (passed, text) = check_fleet("fleet_slow", &report);
    assert!(!passed && text.contains("FAIL fleet_buffered"), "{text}");
    assert!(text.contains("ok fleet_synchronous"), "{text}");

    let mut report = committed.clone();
    report
        .records
        .retain(|r| !(r.op == "fleet_deadline" && r.requested_threads == 2));
    let (passed, text) = check_fleet("fleet_missing", &report);
    assert!(
        !passed && text.contains("FAIL fleet_deadline") && text.contains("missing"),
        "{text}"
    );

    // A four-core host: the bench times 1, 2 and 4 threads. A 4-thread run
    // slower than one thread is not this gate's business; a report without
    // the 2-thread record is.
    let mut report = committed.clone();
    report.host_threads = 4;
    let widest: Vec<BenchRecord> = (report.records.iter())
        .filter(|r| r.op.starts_with("fleet_") && r.requested_threads == 2)
        .map(|r| BenchRecord {
            requested_threads: 4,
            threads: 4,
            ns_per_iter: 2.0 * r.ns_per_iter,
            ..r.clone()
        })
        .collect();
    report.records.extend(widest);
    let (passed, text) = check_fleet("fleet_four_cores", &report);
    assert!(passed && text.contains("ok fleet_buffered"), "{text}");
    report
        .records
        .retain(|r| !(r.op.starts_with("fleet_") && r.requested_threads == 2));
    let (passed, text) = check_fleet("fleet_four_cores_no_pair", &report);
    assert!(
        !passed && text.contains("FAIL fleet_synchronous") && text.contains("missing"),
        "{text}"
    );

    let mut one_core = committed.clone();
    one_core.host_threads = 1;
    assert!(wall(&one_core, 2) > 0.0);
    let (passed, text) = check_fleet("fleet_one_core", &one_core);
    assert!(passed && text.contains("SKIP fleet_buffered"), "{text}");

    let mut quick = committed;
    quick.quick = true;
    let one = wall(&quick, 1);
    for r in (quick.records.iter_mut()).filter(|r| r.op.starts_with("fleet_")) {
        if r.requested_threads == 2 {
            r.ns_per_iter = 2.0 * one;
        }
    }
    let (passed, text) = check_fleet("fleet_quick", &quick);
    assert!(passed && text.contains("SKIP fleet_buffered"), "{text}");
    assert!(!text.contains("ok fleet_"), "{text}");
}

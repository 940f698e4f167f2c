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

fn committed_micro_ops() -> BenchReport {
    let path = workspace_file("BENCH_micro_ops.json");
    let json = std::fs::read_to_string(&path).expect("committed BENCH_micro_ops.json");
    BenchReport::from_json(&json).expect("committed report parses")
}

/// Runs `bench_check` on `report` (written under `case`) and the committed
/// fleet report; returns `(passed, stdout + stderr)`.
fn check(case: &str, report: &BenchReport) -> (bool, String) {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{case}_micro_ops.json"));
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    std::fs::write(&path, json).expect("write doctored report");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_check"))
        .arg(&path)
        .arg(workspace_file("BENCH_fleet.json"))
        .output()
        .expect("spawn bench_check");
    let text = [out.stdout, out.stderr].concat();
    (
        out.status.success(),
        String::from_utf8_lossy(&text).into_owned(),
    )
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

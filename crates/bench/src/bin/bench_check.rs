//! CI gate over `BENCH_micro_ops.json`: fails when the kernels stop
//! delivering their wins, so a PR cannot silently regress them.
//!
//! Two families of gates:
//!
//! - **Single-thread floor** (always evaluated, any host): the current
//!   report's 1-thread GFLOP/s must stay above a required ratio of the
//!   *committed baseline* (`BENCH_baseline_micro_ops.json`, measured before
//!   the blocked/packed kernel rewrite). Missing records are a hard
//!   failure — this family cannot be skipped, so the check can never pass
//!   vacuously.
//! - **Parallel speedup** (scaled to what the measuring host can physically
//!   show): multi-thread records must beat the 1-thread record of the same
//!   shape. Records are paired by `requested_threads` (what the bench asked
//!   for), not the post-clamp effective count. A host with fewer cores than
//!   a gate's thread count skips that gate with a visible notice — speedup
//!   cannot exist without cores.
//!
//! A third family gates the Collect dataplane's allocation budget from
//! `BENCH_fleet.json`: the `collect_alloc_steady` record (pooled frames +
//! zero-copy decode + recycled aggregation scratch) must allocate exactly
//! **zero** bytes per round. A missing or unmeasured record is a hard
//! failure — the alloc-free claim may not silently rot out of the report.
//!
//! The same report carries the buffered event loop's two structure records
//! (shape `K16xB2`, both counts the program makes, so they repeat exactly):
//! `buffered_alloc_bytes_per_aggregation` must stay within
//! [`BUFFERED_ALLOC_HEADROOM`] of the committed value — an eager snapshot of
//! the in-flight tasks alone more than triples it — and
//! `buffered_train_cohort_mean` must be above 1.0: at exactly one task per
//! flush the loop trains its launches one at a time again and no pool can
//! help it. Missing records are hard failures.
//!
//! A fourth family gates the batched training engine from
//! `BENCH_micro_ops.json`: the `train_step` record must show exactly zero
//! allocator bytes per steady-state epoch and at least a 1.4x
//! single-thread epoch-throughput floor over the `train_step_legacy`
//! replica of the retired per-sample engine, measured interleaved in the
//! same run (the committed baseline carries the same record so the floor
//! stays documented). Missing records are hard failures.
//!
//! A fifth family gates the workspace of one device-side model from the
//! same report, as two allocator counts that repeat exactly (ResNet18 width
//! 0.25 on 16×16 inputs, batch 32, d = 0.05): cloning the model and taking
//! its first training step may allocate at most [`RESNET_FIRST_STEP_MAX`]
//! bytes (`resnet_step_first_alloc_bytes`), and every later step exactly
//! zero (`resnet_step_steady_alloc_bytes`). Missing records are hard
//! failures.
//!
//! A sixth gate is "a sparse step's time tracks its nnz" as a number: the
//! same report times one steady training step of that model at d = 0.05 and
//! dense (`resnet_step`, densities 0.05 and 1.0, interleaved in one run), and
//! the sparse step may take at most [`RESNET_SPARSE_STEP_MAX_RATIO`] of the
//! dense one. Both sides come from the same run on the same host, so the
//! ratio normalises host drift away. Missing records are hard failures.
//!
//! A seventh family gates the paper's own stages from the FedTiny leg of
//! `BENCH_fleet.json` (ResNet18 width 0.25 on 16 px inputs, six devices,
//! d = 0.05, eight candidates), every comparison inside one report so host
//! drift cancels: the candidate pool may cost at most
//! [`SELECTION_POOL_MAX_RATIO`] single magnitude masks over the same weights
//! (`selection_pool_ns` against `magnitude_mask_ns` — one ranking per layer,
//! not one per candidate), one progressive adjustment at most one sparse
//! training round (`progressive_adjust_ns` against `fedtiny_round_ns`), and
//! such a round may allocate at most [`FEDTINY_ROUND_ALLOC_MAX`] bytes
//! (`fedtiny_round_alloc_bytes` — pooled trainers, nothing cloned or
//! regrown). Missing records are hard failures.
//!
//! An eighth family gates the direct dense convolution against the route it
//! replaced behind `Conv2d`: at each of the two stage shapes the report times
//! `dconv_fwd` / `dconv_dw` / `dconv_dx` alternately with the im2col + GEMM
//! oracle (`dconv_*_oracle`), and the three direct kernels together may take
//! at most [`DCONV_MAX_RATIO`] of the three oracle ones. Missing records are
//! hard failures.
//!
//! If *zero* gates end up evaluated the check fails loudly: a gate file
//! that checks nothing is indistinguishable from a regression.
//!
//! ```bash
//! cargo run --release -p ft-bench --bin bench_check \
//!     [path/to/BENCH_micro_ops.json [path/to/BENCH_baseline_micro_ops.json \
//!     [path/to/BENCH_fleet.json]]]
//! ```

use ft_bench::trajectory::{BenchRecord, BenchReport};
use std::path::Path;
use std::process::ExitCode;

/// Minimum square dimension a "dense matmul ≥ 256²" record must have.
const MIN_GATED_DIM: usize = 256;

/// `buffered_alloc_bytes_per_aggregation` the gate is anchored to (16
/// devices, `buffer_k` 2, SmallCnn width 4 on 8×8 inputs, one thread); the
/// committed `BENCH_fleet.json` may read lower. Re-measure and update
/// together with the bench's shape.
const BUFFERED_ALLOC_COMMITTED: f64 = 47_142.0;
/// How far above the committed value the record may read before the gate
/// fails (allocator-growth policy differs a little between toolchains).
const BUFFERED_ALLOC_HEADROOM: f64 = 1.25;

/// Ceiling on `resnet_step_first_alloc_bytes`: every arena a fresh trainer
/// grows for one batch-32 step. The tile-sized conv workspace reads ≈ 30 MB;
/// batch-wide column matrices read 126.6 MB.
const RESNET_FIRST_STEP_MAX: f64 = 40e6;

/// Ceiling on `resnet_step` ns at d = 0.05 over ns dense, for 0.062 of the
/// multiply-adds: the measured ratio × 1.25. It was 0.30 while the dense step
/// ran on im2col + GEMM (d = 0.05 step ≈ 19 ms over dense ≈ 80 ms = 0.21–0.25
/// on the reference host); the direct dense engine took the *denominator* to
/// ≈ 42 ms and left the d = 0.05 step where it was (≈ 18 ms), so the same
/// sparse engine now reads 0.42–0.44 (0.429 committed) — a faster baseline,
/// not a slower sparse step. What the gate still catches is the sparse path
/// falling back to O(dense) work: im2col + CSR under today's dense step would
/// read ≈ 0.9.
const RESNET_SPARSE_STEP_MAX_RATIO: f64 = 0.54;

/// Ceiling on `dconv_fwd + dconv_dw + dconv_dx` ns over the same three
/// im2col + GEMM oracle records, per shape, timed alternately in one run:
/// the direct engine reads 0.28–0.34 on 16 px planes and 0.41–0.54 on 2 px
/// ones (where eight taps' worth of transposes ride on four pixels of
/// multiply-adds).
const DCONV_MAX_RATIO: f64 = 0.8;

/// Ceiling on `selection_pool_ns` over `magnitude_mask_ns`, timed alternately
/// in one run. A pool that ranks every layer once reads 1.5–1.8 (one
/// ranking, then seven more masks to write out than the single call has; 2.2
/// when each side runs in a tight loop of its own); one ranking per candidate
/// reads ≈ 8, the pool size.
const SELECTION_POOL_MAX_RATIO: f64 = 3.0;

/// Ceiling on `fedtiny_round_alloc_bytes`, the whole-round allocation budget
/// of the sparse training round: with pooled trainers it reads 24–36 MB (the
/// payloads, the flat deltas, and arena growth when a trainer draws a larger
/// batch than it has seen); a trainer rebuilt per worker per round reads
/// ≈ 290 MB. A ceiling, not an equality: which trainer draws which device is
/// a matter of timing.
const FEDTINY_ROUND_ALLOC_MAX: f64 = 64e6;

/// One parallel-speedup requirement against the report.
struct SpeedupGate {
    op: &'static str,
    min_dim: usize,
    dense_only: bool,
    threads: usize,
    min_speedup: f64,
}

/// One single-thread throughput-ratio requirement against the baseline.
struct FloorGate {
    op: &'static str,
    shape: &'static str,
    density: f64,
    min_ratio: f64,
}

/// Leading dimension of a `AxBxC` shape tag (0 when unparsable).
fn lead_dim(shape: &str) -> usize {
    shape
        .split('x')
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn find<'a>(
    records: &'a [BenchRecord],
    op: &str,
    shape: &str,
    density: f64,
    requested_threads: usize,
) -> Option<&'a BenchRecord> {
    records.iter().find(|r| {
        r.op == op
            && r.shape == shape
            && r.density == density
            && r.requested_threads == requested_threads
    })
}

fn load_report(path: &str) -> Result<BenchReport, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchReport::from_json(&json).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| {
        root.join("BENCH_micro_ops.json")
            .to_string_lossy()
            .into_owned()
    });
    let baseline_path = args.next().unwrap_or_else(|| {
        root.join("BENCH_baseline_micro_ops.json")
            .to_string_lossy()
            .into_owned()
    });
    let fleet_path = args
        .next()
        .unwrap_or_else(|| root.join("BENCH_fleet.json").to_string_lossy().into_owned());
    let report = match load_report(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match load_report(&baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench_check: {path} ({} records, host_threads={}, quick={}) vs baseline {baseline_path}",
        report.records.len(),
        report.host_threads,
        report.quick
    );

    let mut evaluated = 0usize;
    let mut failed = false;

    // -- Single-thread floors vs the committed baseline (never skipped) ----
    let floor_gates = [
        FloorGate {
            op: "matmul",
            shape: "512x512x512",
            density: 1.0,
            min_ratio: 3.0,
        },
        FloorGate {
            op: "spmm",
            shape: "512x512x512",
            density: 0.2,
            min_ratio: 1.5,
        },
        // Four dot-product chains per CSR row instead of one: the
        // single-chain kernel reads ≈ 1.3x the baseline, the quads ≈ 1.8x.
        FloorGate {
            op: "sddmm_nt",
            shape: "512x512x64",
            density: 0.05,
            min_ratio: 1.4,
        },
    ];
    for gate in &floor_gates {
        let cur = find(&report.records, gate.op, gate.shape, gate.density, 1);
        let base = find(&baseline.records, gate.op, gate.shape, gate.density, 1);
        let (Some(cur), Some(base)) = (cur, base) else {
            eprintln!(
                "  FAIL {} {} d={:.2} @1t: record missing from {} — this gate cannot be skipped",
                gate.op,
                gate.shape,
                gate.density,
                if cur.is_none() { "report" } else { "baseline" },
            );
            failed = true;
            continue;
        };
        evaluated += 1;
        let ratio = cur.gflops / base.gflops.max(1e-9);
        let verdict = if ratio >= gate.min_ratio {
            "ok"
        } else {
            failed = true;
            "FAIL"
        };
        println!(
            "  {verdict:>4} {} {} d={:.2} @1t: {:.2} GFLOP/s vs baseline {:.2} = {ratio:.2}x (need >= {:.1}x)",
            gate.op, gate.shape, gate.density, cur.gflops, base.gflops, gate.min_ratio
        );
    }

    // -- Parallel speedups within the current report -----------------------
    let speedup_gates = [
        SpeedupGate {
            op: "matmul",
            min_dim: MIN_GATED_DIM,
            dense_only: true,
            threads: 2,
            min_speedup: 1.2,
        },
        SpeedupGate {
            op: "matmul",
            min_dim: 512,
            dense_only: true,
            threads: 4,
            min_speedup: 1.5,
        },
        SpeedupGate {
            op: "spmm",
            min_dim: 512,
            dense_only: false,
            threads: 4,
            min_speedup: 1.3,
        },
    ];
    for gate in &speedup_gates {
        if report.host_threads < gate.threads {
            println!(
                "  SKIP {} @{}t >= {:.1}x: host has {} core(s); a speedup needs at least {}",
                gate.op, gate.threads, gate.min_speedup, report.host_threads, gate.threads
            );
            continue;
        }
        // Every (shape, density) pair of this op that has both a 1-thread
        // and a gate.threads-thread record is checked.
        let mut checked = 0usize;
        for base in report.records.iter().filter(|r| {
            r.op == gate.op
                && r.requested_threads == 1
                && lead_dim(&r.shape) >= gate.min_dim
                && (!gate.dense_only || r.density == 1.0)
        }) {
            let Some(par) = find(
                &report.records,
                gate.op,
                &base.shape,
                base.density,
                gate.threads,
            ) else {
                continue;
            };
            checked += 1;
            evaluated += 1;
            let speedup = base.ns_per_iter / par.ns_per_iter.max(1.0);
            let verdict = if speedup >= gate.min_speedup {
                "ok"
            } else {
                failed = true;
                "FAIL"
            };
            println!(
                "  {verdict:>4} {} {} d={:.2} @{}t: {speedup:.2}x (need >= {:.1}x)",
                gate.op, base.shape, base.density, gate.threads, gate.min_speedup
            );
        }
        if checked == 0 {
            eprintln!(
                "  FAIL {} @{}t: no measurable (1t, {}t) record pair in the report",
                gate.op, gate.threads, gate.threads
            );
            failed = true;
        }
    }

    // -- Collect dataplane allocation budget (BENCH_fleet.json) ------------
    match load_report(&fleet_path) {
        Err(e) => {
            eprintln!("  FAIL collect_alloc: {e} — the allocation gate cannot be skipped");
            failed = true;
        }
        Ok(fleet) => {
            let steady = fleet
                .records
                .iter()
                .find(|r| r.op == "collect_alloc_steady");
            match steady {
                Some(steady) if steady.alloc_bytes_per_round >= 0.0 => {
                    evaluated += 1;
                    let verdict = if steady.alloc_bytes_per_round == 0.0 {
                        "ok"
                    } else {
                        failed = true;
                        "FAIL"
                    };
                    println!(
                        "  {verdict:>4} collect_alloc: steady {:.1} B/round (need 0)",
                        steady.alloc_bytes_per_round
                    );
                }
                steady => {
                    let missing = match steady {
                        None => "collect_alloc_steady record missing",
                        Some(_) => "alloc_bytes_per_round not measured",
                    };
                    eprintln!(
                        "  FAIL collect_alloc: {missing} from {fleet_path} — \
                         this gate cannot be skipped"
                    );
                    failed = true;
                }
            }

            // -- Buffered event loop structure (same report) ---------------
            let measured = |op: &str, value: fn(&BenchRecord) -> f64| {
                let record = fleet.records.iter().find(|r| r.op == op);
                let found = record.filter(|r| value(r) >= 0.0);
                if found.is_none() {
                    eprintln!(
                        "  FAIL {op}: record {} {fleet_path} — this gate cannot be skipped",
                        if record.is_none() {
                            "missing from"
                        } else {
                            "not measured in"
                        }
                    );
                }
                found
            };
            match measured("buffered_alloc_bytes_per_aggregation", |r| {
                r.alloc_bytes_per_round
            }) {
                Some(r) => {
                    evaluated += 1;
                    let ceiling = BUFFERED_ALLOC_COMMITTED * BUFFERED_ALLOC_HEADROOM;
                    let ok = r.alloc_bytes_per_round <= ceiling;
                    failed |= !ok;
                    println!(
                        "  {:>4} buffered_alloc {}: {:.0} B/aggregation (committed {:.0}, \
                         need <= {ceiling:.0})",
                        if ok { "ok" } else { "FAIL" },
                        r.shape,
                        r.alloc_bytes_per_round,
                        BUFFERED_ALLOC_COMMITTED
                    );
                }
                None => failed = true,
            }
            match measured("buffered_train_cohort_mean", |r| r.count_per_iter) {
                Some(r) => {
                    evaluated += 1;
                    let ok = r.count_per_iter > 1.0;
                    failed |= !ok;
                    println!(
                        "  {:>4} buffered_train_cohort {} @{}t: {:.2} tasks/flush (need > 1)",
                        if ok { "ok" } else { "FAIL" },
                        r.shape,
                        r.threads,
                        r.count_per_iter
                    );
                }
                None => failed = true,
            }

            // -- The paper's own stages (same report) ----------------------
            let ns = |op: &str| measured(op, |r| r.ns_per_iter);
            for (op, per, ceiling) in [
                (
                    "selection_pool_ns",
                    "magnitude_mask_ns",
                    SELECTION_POOL_MAX_RATIO,
                ),
                ("progressive_adjust_ns", "fedtiny_round_ns", 1.0),
            ] {
                match (ns(op), ns(per)) {
                    (Some(a), Some(b)) => {
                        evaluated += 1;
                        let ratio = a.ns_per_iter / b.ns_per_iter;
                        let ok = a.shape == b.shape && ratio <= ceiling;
                        failed |= !ok;
                        println!(
                            "  {:>4} {op} {}: {:.2} ms / {per} {:.2} ms = {ratio:.2} \
                             (need <= {ceiling:.1})",
                            if ok { "ok" } else { "FAIL" },
                            a.shape,
                            a.ns_per_iter / 1e6,
                            b.ns_per_iter / 1e6
                        );
                    }
                    _ => failed = true,
                }
            }
            match measured("fedtiny_round_alloc_bytes", |r| r.count_per_iter) {
                Some(r) => {
                    evaluated += 1;
                    let ok = r.count_per_iter <= FEDTINY_ROUND_ALLOC_MAX;
                    failed |= !ok;
                    println!(
                        "  {:>4} fedtiny_round_alloc {} @{}t: {:.1} MB/round (need <= {:.0})",
                        if ok { "ok" } else { "FAIL" },
                        r.shape,
                        r.threads,
                        r.count_per_iter / 1e6,
                        FEDTINY_ROUND_ALLOC_MAX / 1e6
                    );
                }
                None => failed = true,
            }
        }
    }

    // -- Training-engine floors (train_step) -------------------------------
    // The batched alloc-free engine must (a) allocate zero bytes per epoch
    // at steady state and (b) hold a 1.4x single-thread epoch-throughput
    // floor over the committed pre-rewrite baseline. The in-run
    // `train_step_legacy` replica re-measures the retired engine on the
    // same host in the same interleaved run, so the ratio is host-fair;
    // the committed baseline record documents the floor the replica must
    // itself stay honest against. Any missing record is a hard failure.
    {
        let cur = report
            .records
            .iter()
            .find(|r| r.op == "train_step" && r.requested_threads == 1);
        let legacy = report
            .records
            .iter()
            .find(|r| r.op == "train_step_legacy" && r.requested_threads == 1);
        let base = baseline
            .records
            .iter()
            .find(|r| r.op == "train_step" && r.requested_threads == 1);
        match (cur, legacy, base) {
            (Some(cur), Some(legacy), Some(base)) => {
                if cur.shape != legacy.shape || cur.shape != base.shape {
                    eprintln!(
                        "  FAIL train_step: geometry mismatch (report {}, legacy {}, baseline {})",
                        cur.shape, legacy.shape, base.shape
                    );
                    failed = true;
                } else {
                    evaluated += 1;
                    let alloc_ok = cur.alloc_bytes_per_round == 0.0;
                    if !alloc_ok {
                        failed = true;
                    }
                    println!(
                        "  {:>4} train_step {} alloc: {:.1} B/epoch (need exactly 0)",
                        if alloc_ok { "ok" } else { "FAIL" },
                        cur.shape,
                        cur.alloc_bytes_per_round
                    );
                    evaluated += 1;
                    let speedup = legacy.ns_per_iter / cur.ns_per_iter.max(1.0);
                    let floor_ok = speedup >= 1.4;
                    if !floor_ok {
                        failed = true;
                    }
                    println!(
                        "  {:>4} train_step {} @1t: {speedup:.2}x vs in-run legacy replica \
                         (need >= 1.4x; committed baseline {:.0} ns/epoch)",
                        if floor_ok { "ok" } else { "FAIL" },
                        cur.shape,
                        base.ns_per_iter
                    );
                }
            }
            (cur, legacy, base) => {
                let missing = if cur.is_none() {
                    "train_step record missing from report"
                } else if legacy.is_none() {
                    "train_step_legacy record missing from report"
                } else {
                    debug_assert!(base.is_none());
                    "train_step record missing from baseline"
                };
                eprintln!("  FAIL train_step: {missing} — this gate cannot be skipped");
                failed = true;
            }
        }
    }

    // -- One model's training workspace (resnet_step_*) --------------------
    for (op, what, ceiling) in [
        (
            "resnet_step_first_alloc_bytes",
            "clone + first step",
            RESNET_FIRST_STEP_MAX,
        ),
        ("resnet_step_steady_alloc_bytes", "steady step", 0.0),
    ] {
        match report.records.iter().find(|r| r.op == op) {
            Some(r) if r.count_per_iter >= 0.0 => {
                evaluated += 1;
                let ok = r.count_per_iter <= ceiling;
                failed |= !ok;
                println!(
                    "  {:>4} resnet_step {} {what}: {:.0} B (need <= {ceiling:.0})",
                    if ok { "ok" } else { "FAIL" },
                    r.shape,
                    r.count_per_iter
                );
            }
            r => {
                eprintln!(
                    "  FAIL {op}: record {} the report — this gate cannot be skipped",
                    if r.is_none() {
                        "missing from"
                    } else {
                        "not measured in"
                    }
                );
                failed = true;
            }
        }
    }

    // -- Sparse step time against the dense step of the same run ----------
    {
        let step = |density: f64| {
            report
                .records
                .iter()
                .find(|r| r.op == "resnet_step" && r.density == density && r.ns_per_iter > 0.0)
        };
        match (step(0.05), step(1.0)) {
            (Some(sparse), Some(dense)) => {
                evaluated += 1;
                let ratio = sparse.ns_per_iter / dense.ns_per_iter;
                let ok = sparse.shape == dense.shape && ratio <= RESNET_SPARSE_STEP_MAX_RATIO;
                failed |= !ok;
                println!(
                    "  {:>4} resnet_step {} d=0.05 / dense: {:.2} ms / {:.2} ms = {ratio:.3} \
                     (need <= {RESNET_SPARSE_STEP_MAX_RATIO:.2})",
                    if ok { "ok" } else { "FAIL" },
                    sparse.shape,
                    sparse.ns_per_iter / 1e6,
                    dense.ns_per_iter / 1e6
                );
            }
            (sparse, _) => {
                eprintln!(
                    "  FAIL resnet_step: d={} record missing from the report — \
                     this gate cannot be skipped",
                    if sparse.is_none() { "0.05" } else { "1.0" }
                );
                failed = true;
            }
        }
    }

    // -- Direct dense convolution against its im2col + GEMM oracle ---------
    for shape in ["b32x16x16x16k3", "b32x128x2x2k3"] {
        let sum = |suffix: &str| {
            ["dconv_fwd", "dconv_dw", "dconv_dx"]
                .iter()
                .map(|op| {
                    find(&report.records, &format!("{op}{suffix}"), shape, 1.0, 1)
                        .map(|r| r.ns_per_iter)
                        .filter(|&ns| ns > 0.0)
                })
                .sum::<Option<f64>>()
        };
        match (sum(""), sum("_oracle")) {
            (Some(direct), Some(oracle)) => {
                evaluated += 1;
                let ratio = direct / oracle;
                let ok = ratio <= DCONV_MAX_RATIO;
                failed |= !ok;
                println!(
                    "  {:>4} dconv {shape} fwd + dW + dX: {:.2} ms / im2col + GEMM {:.2} ms = \
                     {ratio:.3} (need <= {DCONV_MAX_RATIO:.1})",
                    if ok { "ok" } else { "FAIL" },
                    direct / 1e6,
                    oracle / 1e6
                );
            }
            (direct, _) => {
                eprintln!(
                    "  FAIL dconv {shape}: a dconv_*{} record is missing from the report — \
                     this gate cannot be skipped",
                    if direct.is_none() { "" } else { "_oracle" }
                );
                failed = true;
            }
        }
    }

    if evaluated == 0 {
        eprintln!("bench_check: ZERO gates evaluated — refusing to pass vacuously");
        failed = true;
    }
    if failed {
        eprintln!("bench_check: throughput gate FAILED ({evaluated} gate(s) evaluated)");
        ExitCode::FAILURE
    } else {
        println!("bench_check: all gates passed ({evaluated} evaluated)");
        ExitCode::SUCCESS
    }
}

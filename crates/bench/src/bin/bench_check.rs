//! CI gate over `BENCH_micro_ops.json` and `BENCH_fleet.json`: fails when a
//! kernel or a stage the system runs stops delivering its win, so a PR cannot
//! silently regress it.
//!
//! Two rules hold for every gate. It guards something a run executes — the
//! GEMM under `Linear`, the two convolution engines, a training step, a
//! round's stages — never a kernel that only tests call. And, one constant
//! excepted, it compares two records of the *same* report, taken alternately
//! in one run on one host, so host drift cancels and nothing committed has to
//! be parsed. Every record a gate names is required: a missing one is a hard
//! failure, never a skip, and if *zero* gates end up evaluated the check
//! fails loudly — a gate file that checks nothing is indistinguishable from
//! a regression.
//!
//! From `BENCH_micro_ops.json`:
//!
//! - **g3, the `matmul` floor**: 512² at one thread must read at least
//!   [`MATMUL_512_FLOOR_GFLOPS`]. The one absolute number left: it catches
//!   the blocked, packed GEMM degrading to the triple loop it replaced.
//! - **`matmul` speedups**, scaled to what the measuring host can physically
//!   show: multi-thread records must beat the 1-thread record of the same
//!   shape (paired by `requested_threads`, not the post-clamp count). A host
//!   with fewer cores than a gate's thread count skips it with a visible
//!   notice — speedup cannot exist without cores. Catches a fan-out that
//!   costs more than it buys.
//! - **g1, the `spconv` floor**: per stage shape, the CSR engine's
//!   `dispatch_sweep_fwd_csr + dispatch_sweep_bwd_csr` at d = 0.05 may take
//!   at most [`SPCONV_MAX_RATIO`] of the dense engine's `_dense` pair over
//!   the same masked weight. Catches the paper's kernel doing `O(dense)`
//!   work, losing its vector lanes, or paying for a column matrix again.
//! - **g2, the training-step floor**: `resnet_step` at d = 1.0 (the
//!   benchmark's own model, a whole forward + backward + SGD step) must keep
//!   at least [`RESNET_STEP_MIN_EFFICIENCY`] of the GFLOP/s of
//!   `resnet_step_kernel`, `dconv_fwd` at the first stage shape timed in turn
//!   with the step. Catches everything
//!   *around* the convolution kernel — layout changes, BN, ReLU, the
//!   optimizer, a conv route that stages its operands — eating the kernel's
//!   win.
//! - **`train_step` allocation**: the batched engine's steady-state epoch
//!   must allocate exactly zero bytes.
//! - **`resnet_step_*` allocation**, two allocator counts that repeat
//!   exactly (ResNet18 width 0.25 on 16×16 inputs, batch 32, d = 0.05):
//!   cloning the model and taking its first training step may allocate at
//!   most [`RESNET_FIRST_STEP_MAX`] bytes — a column matrix anywhere reads
//!   four times that — and every later step exactly zero.
//! - **`resnet_step` sparse ÷ dense**, "a sparse step's time tracks its nnz"
//!   as a number: the d = 0.05 step may take at most
//!   [`RESNET_SPARSE_STEP_MAX_RATIO`] of the dense one. g1 at model level:
//!   catches a sparse layer falling back to the dense path.
//! - **`dconv` against its oracle**: at each stage shape `dconv_fwd` +
//!   `dconv_dw` + `dconv_dx` may take at most [`DCONV_MAX_RATIO`] of the
//!   im2col + GEMM route (`dconv_*_oracle`) timed alternately. Catches the
//!   direct dense engine losing to the route it replaced.
//! - **g4, the batch-norm kernels**: at each BN shape `bn_fwd` + `bn_bwd`
//!   may take at most [`BN_MAX_RATIO`] of the scalar loops they are pinned
//!   `to_bits`-equal to (`bn_*_oracle`), timed alternately. Catches the
//!   reductions losing their lanes — one scalar chain per channel again.
//! - **`frame_update_encode` allocation**: a device encoding an UPDATE into
//!   its reused frame buffer must allocate exactly zero bytes at steady
//!   state, at every model shape recorded. Catches the payload going
//!   through a temporary `Vec` on its way into the frame again.
//! - **`topk_encode` against its oracle**: at each model shape, on a dense
//!   delta, the error-feedback `TopK` encoder may take at most
//!   [`TOPK_MAX_RATIO`] of the `TopKBuffer` route it is pinned bit-equal to
//!   (`topk_encode_oracle`), timed alternately, and a steady-state encode
//!   must allocate exactly its payload, `8·k` bytes for `k` pairs. Catches
//!   the per-coordinate heap, or an `n`-length copy of the input, coming
//!   back on the buffered server thread.
//! - **`rank_fold` against its oracle**: at each model shape, the
//!   `TrimmedMean` fold of eight `TopK` payloads may take at most
//!   [`RANK_FOLD_MAX_RATIO`] of the route it replaced and is pinned
//!   `to_bits`-equal to — whole dense deltas decoded, then the
//!   per-coordinate sort (`rank_fold_oracle`) — timed alternately, and a
//!   steady-state fold must
//!   allocate exactly zero bytes. Catches the column network losing its
//!   lanes — one sort call per coordinate again — or a fold that gathers its
//!   columns into a fresh buffer.
//!
//! From `BENCH_fleet.json`:
//!
//! - **Buffered structure** (shape `K16xB2`, both counts the program makes,
//!   so they repeat exactly): `buffered_alloc_bytes_per_aggregation` must
//!   stay within [`BUFFERED_ALLOC_HEADROOM`] of the committed value — an
//!   eager snapshot of the in-flight tasks alone more than triples it — and
//!   `buffered_train_cohort_mean` must be above 1.0: at exactly one task per
//!   flush the loop trains its launches one at a time again and no pool can
//!   help it.
//! - **Fleet speedups**: each scheduler's whole run (`fleet_synchronous`,
//!   `fleet_deadline`, `fleet_buffered`, shape `K6xR8`) may take no longer
//!   at two threads than at one, both timed alternately in one run. A host
//!   with one core and a quick report (shape `K6xR4`, runs of 1–2 ms whose
//!   ratio flips from run to run) skip it with a visible notice, so the
//!   committed full-mode report carries it. Catches a fan-out whose
//!   wake-up and dealing cost more than the devices it runs side by side —
//!   the quick record committed while each scatter spawned its threads read
//!   every scheduler slower at two threads.
//! - **FedTiny stages** (ResNet18 width 0.25 on 16 px inputs, six devices,
//!   d = 0.05, eight candidates): the candidate pool may cost at most
//!   [`SELECTION_POOL_MAX_RATIO`] single magnitude masks over the same
//!   weights (one ranking per layer, not one per candidate), one progressive
//!   adjustment at most one sparse training round, and such a round may
//!   allocate at most [`FEDTINY_ROUND_ALLOC_MAX`] bytes (pooled trainers,
//!   nothing cloned or regrown).
//!
//! ```bash
//! cargo run --release -p ft-bench --bin bench_check \
//!     [path/to/BENCH_micro_ops.json [path/to/BENCH_fleet.json]]
//! ```

use ft_bench::trajectory::{BenchRecord, BenchReport};
use std::path::Path;
use std::process::ExitCode;

/// Minimum square dimension a "dense matmul ≥ 256²" record must have.
const MIN_GATED_DIM: usize = 256;

/// g3 — floor on `matmul` 512² at one thread, in GFLOP/s: three times the
/// 15.23 the unblocked triple-loop kernel read on the reference host before
/// the packed rewrite (PR 7; today's kernel reads 58–88 there). The only
/// gate that is not a ratio inside one report, so a host more than ~1.5×
/// slower than the reference can trip it with a healthy kernel.
const MATMUL_512_FLOOR_GFLOPS: f64 = 3.0 * 15.23;

/// The two conv shapes `micro_ops` times its kernel records at: the first
/// and the last residual stage of the benchmark's ResNet18, batch 32.
const STAGE_SHAPES: [&str; 2] = ["b32x16x16x16k3", "b32x128x2x2k3"];

/// g1 — ceiling on `dispatch_sweep_fwd_csr + dispatch_sweep_bwd_csr` ns over
/// the `_dense` pair at d = 0.05, per stage shape, timed alternately in one
/// run, for 0.05 of the multiply-adds: the largest reading × 1.25. Since the
/// CSR engine's kernels are register-blocked it reads 0.10–0.14 on 16 px
/// planes and 0.11–0.12 on 2 px ones (six full runs pinned to one core of a
/// 2-vCPU Xeon at 2.1 GHz, the last three on the committed kernels: 0.100
/// 0.135 0.117 0.117 0.119 0.106 and 0.123 0.120 0.120 0.118 0.115 0.111);
/// it read 0.20–0.24 and 0.13 before, under a bound of 0.30. An engine whose
/// time does not track nnz reads ≥ 1; im2col + CSR (the column matrix back)
/// reads ≈ 0.5.
const SPCONV_MAX_RATIO: f64 = 0.17;

/// g2 — floor on `resnet_step` d = 1.0 GFLOP/s over the GFLOP/s of
/// `resnet_step_kernel` (`dconv_fwd` at `b32x16x16x16k3`, timed in turn with
/// the step). Against the separately timed `dconv_fwd` record a whole dense
/// training step of the benchmark's model read 0.74–0.78 of its convolution
/// kernel since BatchNorm runs on vector kernels, and the gate failed when
/// that record caught a fast moment the step did not (3 of 20 runs); timed
/// in turn the pair reads 0.594–0.643 (eleven full runs on a 2-vCPU Xeon,
/// unpinned, while the host's own speed moved the step between 28.0 and
/// 42.7 GFLOP/s; 0.594 committed) and 0.646–0.649 in two `--quick` runs
/// pinned to one core. A step that keeps half of that — the doctored report
/// of `bench_check_gates` — must fail; the im2col + GEMM step the direct
/// engine replaced read ≈ 0.27.
const RESNET_STEP_MIN_EFFICIENCY: f64 = 0.45;

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
/// multiply-adds: the largest reading × 1.25. With the register-blocked CSR
/// kernels the step reads 0.25–0.33 (pinned to one core of a 2-vCPU Xeon at
/// 2.1 GHz: six full runs 0.271 0.263 0.285 0.294 0.251 0.263, the last
/// three on the committed kernels, and two `--quick` runs 0.255 0.330); the
/// bound was 0.54 while the sparse engine read 0.40–0.44 beside the direct
/// dense engine. What the gate catches is the sparse path falling back to
/// O(dense) work: im2col + CSR under today's dense step would read ≈ 0.9.
const RESNET_SPARSE_STEP_MAX_RATIO: f64 = 0.41;

/// Ceiling on `dconv_fwd + dconv_dw + dconv_dx` ns over the same three
/// im2col + GEMM oracle records, per shape, timed alternately in one run:
/// the direct engine reads 0.28–0.34 on 16 px planes and 0.41–0.54 on 2 px
/// ones (where eight taps' worth of transposes ride on four pixels of
/// multiply-adds).
const DCONV_MAX_RATIO: f64 = 0.8;

/// The two model shapes `micro_ops` times the `TopK` encoder at, on a dense
/// delta: `buffered_fleet`'s SmallCnn and the benchmark's ResNet18.
const TOPK_SHAPES: [&str; 2] = ["small_cnn_w16_8px", "resnet18_w0.25_16px"];

/// Ceiling on `topk_encode` ns over `topk_encode_oracle` ns at `k_frac` 0.1
/// with error feedback, per shape, timed alternately in one run. The
/// threshold pass reads 0.12–0.13 at the SmallCnn shape and 0.09–0.12 at
/// the ResNet18 one, where a few percent of encodes tie at the cut and run
/// the buffer (three full runs pinned to one core of a 2-vCPU Xeon); the
/// per-coordinate heap it replaced reads 1 by construction.
const TOPK_MAX_RATIO: f64 = 0.35;

/// Ceiling on `rank_fold` ns over `rank_fold_oracle` ns (eight `TopK`
/// payloads, `TrimmedMean` β = 0.125), per shape in [`TOPK_SHAPES`], timed
/// alternately in one run: 0.184–0.222 at the SmallCnn shape and
/// 0.170–0.218 at the ResNet18 one (six full runs on a 2-vCPU Xeon,
/// unpinned; 0.222 and 0.218 committed), 0.184–0.201 in two `--quick`
/// runs. The oracle decodes whole dense deltas first, as the fold did
/// before it went block by block: when it did, its own 22 MB of rows at
/// the ResNet18 shape put the ratio at 0.28–0.32, and 0.43 in a quick run
/// on a loaded host. The per-coordinate sort reads 1 by construction.
const RANK_FOLD_MAX_RATIO: f64 = 0.35;

/// The two activation shapes `micro_ops` times the batch-norm kernels at:
/// the first and the last residual stage's BN of the benchmark's ResNet18,
/// batch 32.
const BN_SHAPES: [&str; 2] = ["b32x16x16x16", "b32x128x2x2"];

/// g4 — ceiling on `bn_fwd + bn_bwd` ns over the `_oracle` pair, per BN
/// shape, timed alternately in one run. The vector kernels read 0.49–0.50 on
/// 16 px planes and 0.33–0.38 on 2 px ones (0.488 and 0.330 committed;
/// their elementwise passes stream at memory speed like the oracle's, the
/// reductions run 3–4× faster); scalar reduction chains read ≈ 1.
const BN_MAX_RATIO: f64 = 0.7;

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

/// One parallel-speedup requirement on the dense `matmul` records.
struct SpeedupGate {
    min_dim: usize,
    threads: usize,
    min_speedup: f64,
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

/// Total ns of the 1-thread records `ops` at `(shape, density)`; `None` when
/// one of them is missing or unmeasured.
fn sum_ns(records: &[BenchRecord], ops: &[String], shape: &str, density: f64) -> Option<f64> {
    ops.iter()
        .map(|op| {
            find(records, op, shape, density, 1)
                .map(|r| r.ns_per_iter)
                .filter(|&ns| ns > 0.0)
        })
        .sum()
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
    println!(
        "bench_check: {path} ({} records, host_threads={}, quick={})",
        report.records.len(),
        report.host_threads,
        report.quick
    );

    let mut evaluated = 0usize;
    let mut failed = false;

    // -- g3: the matmul floor ----------------------------------------------
    match find(&report.records, "matmul", "512x512x512", 1.0, 1) {
        Some(r) => {
            evaluated += 1;
            let ok = r.gflops >= MATMUL_512_FLOOR_GFLOPS;
            failed |= !ok;
            println!(
                "  {:>4} g3 matmul 512x512x512 @1t: {:.2} GFLOP/s (need >= {MATMUL_512_FLOOR_GFLOPS:.2})",
                if ok { "ok" } else { "FAIL" },
                r.gflops
            );
        }
        None => {
            eprintln!(
                "  FAIL g3 matmul 512x512x512 @1t: record missing from the report — \
                 this gate cannot be skipped"
            );
            failed = true;
        }
    }

    // -- Parallel speedups within the current report -----------------------
    let speedup_gates = [
        SpeedupGate {
            min_dim: MIN_GATED_DIM,
            threads: 2,
            min_speedup: 1.2,
        },
        SpeedupGate {
            min_dim: 512,
            threads: 4,
            min_speedup: 1.5,
        },
    ];
    for gate in &speedup_gates {
        if report.host_threads < gate.threads {
            println!(
                "  SKIP matmul @{}t >= {:.1}x: host has {} core(s); a speedup needs at least {}",
                gate.threads, gate.min_speedup, report.host_threads, gate.threads
            );
            continue;
        }
        // Every shape that has both a 1-thread and a gate.threads-thread
        // record is checked.
        let mut checked = 0usize;
        for base in report.records.iter().filter(|r| {
            r.op == "matmul" && r.requested_threads == 1 && lead_dim(&r.shape) >= gate.min_dim
        }) {
            let Some(par) = find(
                &report.records,
                "matmul",
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
                "  {verdict:>4} matmul {} @{}t: {speedup:.2}x (need >= {:.1}x)",
                base.shape, gate.threads, gate.min_speedup
            );
        }
        if checked == 0 {
            eprintln!(
                "  FAIL matmul @{}t: no measurable (1t, {}t) record pair in the report",
                gate.threads, gate.threads
            );
            failed = true;
        }
    }

    // -- g1: the sparse convolution engine against the dense one -----------
    for shape in STAGE_SHAPES {
        let sum = |engine: &str| {
            let ops = ["fwd", "bwd"].map(|dir| format!("dispatch_sweep_{dir}_{engine}"));
            sum_ns(&report.records, &ops, shape, 0.05)
        };
        match (sum("csr"), sum("dense")) {
            (Some(csr), Some(dense)) => {
                evaluated += 1;
                let ratio = csr / dense;
                let ok = ratio <= SPCONV_MAX_RATIO;
                failed |= !ok;
                println!(
                    "  {:>4} g1 spconv {shape} d=0.05 fwd + bwd: {:.3} ms / dense engine {:.3} ms \
                     = {ratio:.3} (need <= {SPCONV_MAX_RATIO:.2})",
                    if ok { "ok" } else { "FAIL" },
                    csr / 1e6,
                    dense / 1e6
                );
            }
            (csr, _) => {
                eprintln!(
                    "  FAIL g1 spconv {shape}: a dispatch_sweep_*_{} d=0.05 record is missing \
                     from the report — this gate cannot be skipped",
                    if csr.is_none() { "csr" } else { "dense" }
                );
                failed = true;
            }
        }
    }

    // -- Buffered event loop structure (BENCH_fleet.json) ------------------
    match load_report(&fleet_path) {
        Err(e) => {
            eprintln!("  FAIL fleet report: {e} — its gates cannot be skipped");
            failed = true;
        }
        Ok(fleet) => {
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

            // -- Fleet runs: two threads no slower than one ----------------
            for op in ["fleet_synchronous", "fleet_deadline", "fleet_buffered"] {
                if fleet.quick {
                    println!(
                        "  SKIP {op} @2t <= @1t: quick report; its runs are too short to \
                         order the two thread counts (a full-mode report carries this gate)"
                    );
                    continue;
                }
                if fleet.host_threads < 2 {
                    println!(
                        "  SKIP {op} @2t <= @1t: host has {} core(s); a speedup needs at least 2",
                        fleet.host_threads
                    );
                    continue;
                }
                let at = |t: usize| {
                    (fleet.records.iter())
                        .find(|r| r.op == op && r.requested_threads == t && r.ns_per_iter > 0.0)
                };
                match (at(1), at(2)) {
                    (Some(one), Some(two)) => {
                        evaluated += 1;
                        let ratio = two.ns_per_iter / one.ns_per_iter;
                        let ok = two.shape == one.shape && ratio <= 1.0;
                        failed |= !ok;
                        println!(
                            "  {:>4} {op} {}: {:.2} ms @2t / {:.2} ms @1t = {ratio:.2} \
                             (need <= 1.00)",
                            if ok { "ok" } else { "FAIL" },
                            two.shape,
                            two.ns_per_iter / 1e6,
                            one.ns_per_iter / 1e6
                        );
                    }
                    _ => {
                        eprintln!(
                            "  FAIL {op}: a 1- or 2-thread record is missing from {fleet_path} — \
                             this gate cannot be skipped"
                        );
                        failed = true;
                    }
                }
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

    // -- Training engine: zero steady-state allocation (train_step) --------
    match report
        .records
        .iter()
        .find(|r| r.op == "train_step" && r.requested_threads == 1)
    {
        Some(cur) => {
            evaluated += 1;
            let ok = cur.alloc_bytes_per_round == 0.0;
            failed |= !ok;
            println!(
                "  {:>4} train_step {} alloc: {:.1} B/epoch (need exactly 0)",
                if ok { "ok" } else { "FAIL" },
                cur.shape,
                cur.alloc_bytes_per_round
            );
        }
        None => {
            eprintln!(
                "  FAIL train_step: record missing from the report — this gate cannot be skipped"
            );
            failed = true;
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

    // -- TCP path: an UPDATE encoded into a reused frame allocates nothing --
    let encodes: Vec<&BenchRecord> = (report.records.iter())
        .filter(|r| r.op == "frame_update_encode")
        .collect();
    if encodes.is_empty() {
        eprintln!(
            "  FAIL frame_update_encode: record missing from the report — \
             this gate cannot be skipped"
        );
        failed = true;
    }
    for r in encodes {
        let measured = r.alloc_bytes_per_round >= 0.0;
        let ok = measured && r.alloc_bytes_per_round == 0.0;
        evaluated += usize::from(measured);
        failed |= !ok;
        println!(
            "  {:>4} frame_update_encode {} alloc: {:.0} B/frame (need exactly 0)",
            if ok { "ok" } else { "FAIL" },
            r.shape,
            r.alloc_bytes_per_round
        );
    }

    // -- Error-feedback TopK encode against the TopKBuffer route ------------
    for shape in TOPK_SHAPES {
        let find_ns =
            |op: &str| find(&report.records, op, shape, 1.0, 1).filter(|r| r.ns_per_iter > 0.0);
        match (find_ns("topk_encode"), find_ns("topk_encode_oracle")) {
            (Some(enc), Some(oracle)) => {
                evaluated += 2;
                let ratio = enc.ns_per_iter / oracle.ns_per_iter;
                let ok = ratio <= TOPK_MAX_RATIO;
                failed |= !ok;
                println!(
                    "  {:>4} topk_encode {shape}: {:.1} us / TopKBuffer oracle {:.1} us = \
                     {ratio:.3} (need <= {TOPK_MAX_RATIO:.2})",
                    if ok { "ok" } else { "FAIL" },
                    enc.ns_per_iter / 1e3,
                    oracle.ns_per_iter / 1e3
                );
                let payload = 8.0 * enc.count_per_iter;
                let ok = enc.count_per_iter > 0.0 && enc.alloc_bytes_per_round == payload;
                failed |= !ok;
                println!(
                    "  {:>4} topk_encode {shape} alloc: {:.0} B/encode (need exactly 8·k = {payload:.0})",
                    if ok { "ok" } else { "FAIL" },
                    enc.alloc_bytes_per_round
                );
            }
            (enc, _) => {
                eprintln!(
                    "  FAIL topk_encode {shape}: the {} d=1.0 record is missing from the report — \
                     this gate cannot be skipped",
                    if enc.is_none() {
                        "topk_encode"
                    } else {
                        "topk_encode_oracle"
                    }
                );
                failed = true;
            }
        }
    }

    // -- The TrimmedMean fold against the per-coordinate sort ---------------
    for shape in TOPK_SHAPES {
        let find_ns =
            |op: &str| find(&report.records, op, shape, 1.0, 1).filter(|r| r.ns_per_iter > 0.0);
        match (find_ns("rank_fold"), find_ns("rank_fold_oracle")) {
            (Some(fold), Some(oracle)) => {
                evaluated += 2;
                let ratio = fold.ns_per_iter / oracle.ns_per_iter;
                let ok = ratio <= RANK_FOLD_MAX_RATIO;
                failed |= !ok;
                println!(
                    "  {:>4} rank_fold {shape}: {:.1} us / per-coordinate sort {:.1} us = \
                     {ratio:.3} (need <= {RANK_FOLD_MAX_RATIO:.2})",
                    if ok { "ok" } else { "FAIL" },
                    fold.ns_per_iter / 1e3,
                    oracle.ns_per_iter / 1e3
                );
                let ok = fold.alloc_bytes_per_round == 0.0;
                failed |= !ok;
                println!(
                    "  {:>4} rank_fold {shape} alloc: {:.0} B/fold (need exactly 0)",
                    if ok { "ok" } else { "FAIL" },
                    fold.alloc_bytes_per_round
                );
            }
            (fold, _) => {
                eprintln!(
                    "  FAIL rank_fold {shape}: the {} record is missing from the report — \
                     this gate cannot be skipped",
                    if fold.is_none() {
                        "rank_fold"
                    } else {
                        "rank_fold_oracle"
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

    // -- g2: a whole dense training step against its convolution kernel ----
    {
        let step = report
            .records
            .iter()
            .find(|r| r.op == "resnet_step" && r.density == 1.0 && r.gflops > 0.0);
        let kernel = find(
            &report.records,
            "resnet_step_kernel",
            STAGE_SHAPES[0],
            1.0,
            1,
        )
        .filter(|r| r.gflops > 0.0);
        match (step, kernel) {
            (Some(step), Some(kernel)) => {
                evaluated += 1;
                let efficiency = step.gflops / kernel.gflops;
                let ok = efficiency >= RESNET_STEP_MIN_EFFICIENCY;
                failed |= !ok;
                println!(
                    "  {:>4} g2 resnet_step {} dense: {:.2} GFLOP/s / resnet_step_kernel {} {:.2} \
                     = {efficiency:.3} (need >= {RESNET_STEP_MIN_EFFICIENCY:.2})",
                    if ok { "ok" } else { "FAIL" },
                    step.shape,
                    step.gflops,
                    kernel.shape,
                    kernel.gflops
                );
            }
            (step, _) => {
                eprintln!(
                    "  FAIL g2 resnet_step: the {} record is missing from the report — \
                     this gate cannot be skipped",
                    if step.is_none() {
                        "resnet_step d=1.0"
                    } else {
                        "resnet_step_kernel"
                    }
                );
                failed = true;
            }
        }
    }

    // -- Direct dense convolution against its im2col + GEMM oracle ---------
    for shape in STAGE_SHAPES {
        let sum = |suffix: &str| {
            let ops = ["dconv_fwd", "dconv_dw", "dconv_dx"].map(|op| format!("{op}{suffix}"));
            sum_ns(&report.records, &ops, shape, 1.0)
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

    // -- g4: the batch-norm kernels against their scalar oracle ------------
    for shape in BN_SHAPES {
        let sum = |suffix: &str| {
            let ops = ["bn_fwd", "bn_bwd"].map(|op| format!("{op}{suffix}"));
            sum_ns(&report.records, &ops, shape, 1.0)
        };
        match (sum(""), sum("_oracle")) {
            (Some(kernel), Some(oracle)) => {
                evaluated += 1;
                let ratio = kernel / oracle;
                let ok = ratio <= BN_MAX_RATIO;
                failed |= !ok;
                println!(
                    "  {:>4} g4 bn {shape} fwd + bwd: {:.1} us / scalar oracle {:.1} us = \
                     {ratio:.3} (need <= {BN_MAX_RATIO:.1})",
                    if ok { "ok" } else { "FAIL" },
                    kernel / 1e3,
                    oracle / 1e3
                );
            }
            (kernel, _) => {
                eprintln!(
                    "  FAIL g4 bn {shape}: a bn_*{} record is missing from the report — \
                     this gate cannot be skipped",
                    if kernel.is_none() { "" } else { "_oracle" }
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

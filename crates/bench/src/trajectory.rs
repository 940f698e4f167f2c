//! Machine-readable benchmark trajectory artifacts (`BENCH_*.json`).
//!
//! The table benches print human-readable rows; this module persists the
//! numbers CI tracks over time: one JSON report per suite with `(op, shape,
//! density, threads, ns/iter, realized GFLOP/s)` records. The `bench-smoke`
//! CI job uploads these files as artifacts and `bench_check` gates on them,
//! so a PR that silently regresses the parallel kernels fails loudly.
//!
//! ## Warmup vs measurement
//!
//! [`measure_ns`] strictly separates *warmup* from *measurement*: the first
//! calls of a kernel pay one-time setup (CSR plan builds, allocator warmup,
//! page faults) that used to leak into wall-clock numbers and made them
//! unstable run-to-run. Warmup iterations are discarded, then the median of
//! several timed samples is reported — in CI quick mode the numbers stay
//! within ~10% across runs.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Environment variable: when set (to anything non-empty), benches run in
/// quick mode — fewer/shorter samples, same shapes — for CI smoke jobs.
pub const QUICK_ENV: &str = "FT_BENCH_QUICK";

/// Environment variable overriding the directory `BENCH_*.json` files are
/// written to (default: the workspace root).
pub const DIR_ENV: &str = "FT_BENCH_DIR";

/// Whether quick mode is on (see [`QUICK_ENV`]).
pub fn quick_mode() -> bool {
    std::env::var(QUICK_ENV)
        .map(|v| !v.is_empty())
        .unwrap_or(false)
}

/// One measured configuration of one operation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Operation name (`"matmul"`, `"spconv_fwd"`, `"fleet_synchronous"`, ...).
    pub op: String,
    /// Shape tag, e.g. `"512x512x512"` for GEMMs or `"K6xR8"` for fleet
    /// runs.
    pub shape: String,
    /// Operand density (1.0 = dense).
    pub density: f64,
    /// Worker threads the bench *asked* for. Gates pair records across
    /// reports by this tag — it is stable across hosts, while `threads` is
    /// what the oversubscription clamp let through.
    pub requested_threads: usize,
    /// Effective worker threads the runtime fanned out over (after the
    /// oversubscription clamp).
    pub threads: usize,
    /// Median wall time of one iteration, in nanoseconds (warmup excluded).
    pub ns_per_iter: f64,
    /// Realized throughput: executed FLOPs / second / 1e9.
    pub gflops: f64,
    /// Allocator traffic per iteration in bytes, for records measured
    /// under the counting allocator ([`crate::CountingAlloc`]); `-1.0`
    /// means "not measured" (throughput-only records).
    pub alloc_bytes_per_round: f64,
    /// A count the record exists to pin, per iteration (e.g. tasks trained
    /// per buffered flush); `-1.0` means "not measured".
    pub count_per_iter: f64,
}

/// A suite's full report: host facts plus the measured records.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// Suite name; the file is written as `BENCH_{suite}.json`.
    pub suite: String,
    /// Available parallelism of the measuring host — consumers must not
    /// expect speedups beyond this (a 1-core runner can't go faster with 2
    /// threads).
    pub host_threads: usize,
    /// Whether the numbers come from a quick (CI smoke) run.
    pub quick: bool,
    /// The measurements.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// An empty report for `suite` stamped with this host's parallelism.
    pub fn new(suite: &str) -> Self {
        BenchReport {
            suite: suite.to_string(),
            host_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            quick: quick_mode(),
            records: Vec::new(),
        }
    }

    /// Appends one record, deriving GFLOP/s from `flops_per_iter`.
    /// `requested_threads` is the pool size the bench asked for; `threads`
    /// the effective size after the runtime's oversubscription clamp.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        op: &str,
        shape: &str,
        density: f64,
        requested_threads: usize,
        threads: usize,
        ns_per_iter: f64,
        flops_per_iter: f64,
    ) {
        let gflops = if ns_per_iter > 0.0 {
            flops_per_iter / ns_per_iter // FLOPs/ns == GFLOP/s
        } else {
            0.0
        };
        self.records.push(BenchRecord {
            op: op.to_string(),
            shape: shape.to_string(),
            density,
            requested_threads,
            threads,
            ns_per_iter,
            gflops,
            alloc_bytes_per_round: -1.0,
            count_per_iter: -1.0,
        });
    }

    /// Appends one allocation-budget record: `alloc_bytes_per_round` is
    /// allocator traffic per iteration measured under the counting
    /// allocator (throughput fields are left at "not applicable").
    pub fn push_alloc(
        &mut self,
        op: &str,
        shape: &str,
        threads: usize,
        ns_per_iter: f64,
        alloc_bytes_per_round: f64,
    ) {
        self.records.push(BenchRecord {
            op: op.to_string(),
            shape: shape.to_string(),
            density: 1.0,
            requested_threads: threads,
            threads,
            ns_per_iter,
            gflops: 0.0,
            alloc_bytes_per_round,
            count_per_iter: -1.0,
        });
    }

    /// Appends one count record: `count_per_iter` is a count the program
    /// made per iteration (throughput and allocation fields are left at
    /// "not applicable").
    pub fn push_count(
        &mut self,
        op: &str,
        shape: &str,
        threads: usize,
        ns_per_iter: f64,
        count_per_iter: f64,
    ) {
        self.records.push(BenchRecord {
            op: op.to_string(),
            shape: shape.to_string(),
            density: 1.0,
            requested_threads: threads,
            threads,
            ns_per_iter,
            gflops: 0.0,
            alloc_bytes_per_round: -1.0,
            count_per_iter,
        });
    }

    /// Writes `BENCH_{suite}.json` into [`DIR_ENV`] (default: the workspace
    /// root) and returns the path.
    ///
    /// # Panics
    ///
    /// Panics if the report cannot be serialized or written — a bench that
    /// silently fails to persist its trajectory is worse than a loud one.
    pub fn write(&self) -> PathBuf {
        let dir = std::env::var(DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|_| workspace_root());
        let path = dir.join(format!("BENCH_{}.json", self.suite));
        let json = serde_json::to_string_pretty(self).expect("bench report serializes");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    }

    /// Parses a report back from JSON (what `bench_check` consumes).
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error message.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("{e:?}"))
    }
}

/// The workspace root, derived from this crate's manifest directory
/// (`crates/bench` → two levels up).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the workspace root")
        .to_path_buf()
}

/// Times `f` with warmup strictly separated from measurement and returns
/// the median nanoseconds per iteration.
///
/// Warmup: `f` runs until it has consumed ~the sample budget once (at least
/// one full call), absorbing one-time setup. Measurement: several samples of
/// auto-calibrated iteration counts; the median is robust against scheduler
/// noise. Quick mode (see [`quick_mode`]) shrinks the budgets but keeps the
/// protocol.
pub fn measure_ns<F: FnMut()>(mut f: F) -> f64 {
    let (samples, min_sample_ns) = if quick_mode() {
        (3usize, 25_000_000u128)
    } else {
        (7usize, 100_000_000u128)
    };
    // Warmup (discarded): at least one call, and enough repeats to touch
    // caches/allocations for fast kernels.
    let t = Instant::now();
    f();
    let first_ns = t.elapsed().as_nanos().max(1);
    let mut warm = first_ns;
    while warm < min_sample_ns / 2 {
        let t = Instant::now();
        f();
        warm += t.elapsed().as_nanos().max(1);
    }
    // Calibrate from a *warmed* call, not the cold first one — the first
    // call can be dominated by one-time setup, which would shrink every
    // sample far below the budget and leave the median at timer noise.
    let t = Instant::now();
    f();
    let warmed_ns = t.elapsed().as_nanos().max(1);
    // Calibrated measurement: each sample batches enough iterations to last
    // ~min_sample_ns, so timer granularity is negligible.
    let iters = (min_sample_ns / warmed_ns).clamp(1, 1 << 20) as u64;
    let mut medians: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    medians.sort_by(|a, b| a.total_cmp(b));
    medians[medians.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_json() {
        let mut r = BenchReport::new("unit_test");
        r.push("matmul", "8x8x8", 1.0, 4, 2, 1000.0, 1024.0);
        let json = serde_json::to_string(&r).expect("serializes");
        let back = BenchReport::from_json(&json).expect("parses");
        assert_eq!(back.suite, "unit_test");
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].requested_threads, 4);
        assert_eq!(back.records[0].threads, 2);
        // 1024 FLOPs in 1000ns ≈ 1.024 GFLOP/s.
        assert!((back.records[0].gflops - 1.024).abs() < 1e-9);
    }

    /// Allocation and count records round-trip and throughput records
    /// carry the "not measured" sentinels.
    #[test]
    fn alloc_records_roundtrip() {
        let mut r = BenchReport::new("unit_test");
        r.push("matmul", "8x8x8", 1.0, 1, 1, 1000.0, 1024.0);
        r.push_alloc("train_step", "K6", 1, 500.0, 0.0);
        r.push_count("buffered_train_cohort_mean", "K16xB2", 2, 500.0, 2.5);
        let json = serde_json::to_string(&r).expect("serializes");
        let back = BenchReport::from_json(&json).expect("parses");
        assert_eq!(back.records[0].alloc_bytes_per_round, -1.0);
        assert_eq!(back.records[0].count_per_iter, -1.0);
        assert_eq!(back.records[1].op, "train_step");
        assert_eq!(back.records[1].alloc_bytes_per_round, 0.0);
        assert_eq!(back.records[2].alloc_bytes_per_round, -1.0);
        assert_eq!(back.records[2].count_per_iter, 2.5);
    }

    #[test]
    fn measure_returns_positive_time() {
        let mut acc = 0u64;
        let ns = measure_ns(|| {
            acc = acc.wrapping_add(std::hint::black_box(17));
        });
        assert!(ns > 0.0);
        assert!(acc > 0);
    }
}

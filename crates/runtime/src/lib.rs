//! Deterministic parallel runtime for the workspace's hot kernels.
//!
//! A [`Runtime`] is a small handle — a bounded thread count — onto one
//! process-wide pool of parked workers (no dependencies): every parallel
//! region deals its jobs to the calling thread and at most `threads − 1`
//! workers, whoever is free next, and returns once every job has finished.
//! Workers are spawned on first use, up to the widest region that fanned
//! out, and park between regions instead of being spawned and joined per
//! call.
//!
//! ## Determinism contract
//!
//! Parallel output is **bit-for-bit identical** to sequential output, for any
//! thread count. The contract rests on two rules every kernel built on this
//! runtime follows:
//!
//! 1. Work is partitioned by *output rows*: each output element is computed
//!    entirely within one chunk, so no two threads ever accumulate into the
//!    same float.
//! 2. Within a chunk, the per-element accumulation order is exactly the
//!    sequential kernel's order (the chunk runs the same loop body over a
//!    sub-range of rows).
//!
//! Chunk boundaries ([`chunk_ranges`]) are a pure function of `(work size,
//! thread count)` — never of timing — so a run is reproducible even against
//! itself.
//!
//! ## Two kinds of jobs, one budget
//!
//! [`Runtime::scatter`] carries two kinds of jobs. Kernels deal it the
//! row-chunks of one output; `ft-fl` and `fedtiny` deal it whole devices and
//! whole selection candidates, each of which runs kernels of its own. The two
//! never nest: a fan-out over devices hands every device a *sequential*
//! runtime for its kernels (`ft_fl::thread_budget` is where that is
//! decided), so runnable threads stay within [`Runtime::threads`]. Which
//! worker runs which job is a matter of timing, so whatever a job needs to
//! keep — a device's model and its arenas — lives in `ft-fl`'s device-model
//! pool, not in a thread-local. A device-level fan-out lists its devices
//! longest first (`ft_fl::deal_key`): dealt to whoever is free next, the
//! large partitions start early and the short ones fill the gaps.
//!
//! A `Runtime` with one thread executes everything inline on the calling
//! thread: `FT_THREADS=1` is the exact legacy sequential path.
//!
//! # Examples
//!
//! ```
//! use ft_runtime::Runtime;
//!
//! // Square each element of a buffer, four rows at a time.
//! let rt = Runtime::new(4);
//! let mut data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
//! let chunks = rt.split_rows_mut(&mut data, 1); // row length 1 → 1000 rows
//! rt.scatter(chunks, |(rows, chunk)| {
//!     for (v, i) in chunk.iter_mut().zip(rows) {
//!         *v = (i as f32) * (i as f32);
//!     }
//! });
//! assert_eq!(data[31], 31.0 * 31.0);
//! ```

mod pool;

use std::ops::Range;

/// Environment variable selecting the worker count (`0` or unset ⇒ all
/// available cores; `1` ⇒ the exact sequential path).
pub const THREADS_ENV: &str = "FT_THREADS";

/// Resolves a configured thread count: `0` means "auto" — take
/// [`THREADS_ENV`] if set to a positive integer, otherwise the host's
/// available parallelism.
///
/// # Examples
///
/// ```
/// assert_eq!(ft_runtime::resolve_threads(3), 3);
/// assert!(ft_runtime::resolve_threads(0) >= 1);
/// ```
pub fn resolve_threads(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `0..n` into at most `parts` contiguous, near-equal, non-empty
/// ranges. The split is a pure function of `(n, parts)` — the deterministic
/// chunking underneath every parallel kernel.
///
/// # Examples
///
/// ```
/// use ft_runtime::chunk_ranges;
///
/// assert_eq!(chunk_ranges(10, 3), vec![0..4, 4..7, 7..10]);
/// assert_eq!(chunk_ranges(2, 8).len(), 2); // never more chunks than rows
/// assert!(chunk_ranges(0, 4).is_empty());
/// ```
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Default work threshold (in inner-loop operations) below which a kernel
/// runs inline: fanning out wakes a parked worker, which takes 15–35 µs to
/// start on a 2-vCPU VM (two 20 µs jobs take 38–54 µs on two threads
/// against 40 µs on one; a scoped spawn and join cost 52 µs before any job
/// ran), so tiny kernels are faster sequential. Purely a wall-clock
/// heuristic — results are bit-identical on either side of the threshold.
pub const PAR_WORK_MIN: usize = 1 << 18;

/// A deterministic worker-pool handle: just a bounded thread count onto the
/// process-wide pool. Cheap to copy and to store on every layer.
///
/// # Examples
///
/// ```
/// use ft_runtime::Runtime;
///
/// let rt = Runtime::from_env(); // FT_THREADS, else all cores
/// assert!(rt.threads() >= 1);
/// assert_eq!(Runtime::sequential().threads(), 1);
/// // Kernels fan out only when the job is worth a thread spawn:
/// let eager = Runtime::exact(4).with_min_work(0);
/// assert!(eager.should_parallelize(1));
/// // `new` records the requested count even when the oversubscription
/// // clamp caps the effective pool:
/// let rt = Runtime::new(10_000);
/// assert_eq!(rt.requested(), 10_000);
/// assert!(rt.threads() >= 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Runtime {
    requested: usize,
    threads: usize,
    min_work: usize,
}

impl Default for Runtime {
    /// The default runtime is sequential, so plain constructors keep the
    /// exact legacy path until a caller opts in via `set_runtime`.
    fn default() -> Self {
        Runtime::sequential()
    }
}

/// The host's available parallelism (≥ 1).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Runtime {
    /// A runtime with `threads` requested workers and the default
    /// [`PAR_WORK_MIN`] fan-out threshold.
    ///
    /// The *effective* worker count is clamped to [`host_parallelism`]:
    /// fanning 4 workers out on a 1-core host only adds spawn and switch
    /// overhead (results are bit-identical either way, so the clamp changes
    /// wall-clock only). When [`THREADS_ENV`] is set to a positive integer
    /// the clamp is disabled and counts are taken exactly — the determinism
    /// CI matrix oversubscribes on purpose to hunt thread-count-dependent
    /// drift. [`Runtime::exact`] opts out of the clamp programmatically.
    pub fn new(threads: usize) -> Self {
        let requested = threads.max(1);
        let clamp = match std::env::var(THREADS_ENV) {
            Ok(v) => !matches!(v.trim().parse::<usize>(), Ok(n) if n > 0),
            Err(_) => true,
        };
        let threads = if clamp {
            requested.min(host_parallelism())
        } else {
            requested
        };
        Runtime {
            requested,
            threads,
            min_work: PAR_WORK_MIN,
        }
    }

    /// A runtime with exactly `threads` effective workers (clamped to at
    /// least 1, never to the host's core count). For tests that must
    /// exercise real fan-out regardless of the machine they run on.
    pub fn exact(threads: usize) -> Self {
        Runtime {
            requested: threads.max(1),
            threads: threads.max(1),
            min_work: PAR_WORK_MIN,
        }
    }

    /// The single-threaded runtime: every parallel region runs inline on
    /// the calling thread (the exact legacy code path).
    pub fn sequential() -> Self {
        Runtime::new(1)
    }

    /// Overrides the fan-out work threshold (builder style). `0` makes
    /// every parallel region fan out regardless of size — useful in tests
    /// that must exercise the parallel path on small inputs.
    pub fn with_min_work(mut self, min_work: usize) -> Self {
        self.min_work = min_work;
        self
    }

    /// Whether a kernel with roughly `work` inner-loop operations should
    /// fan out on this runtime (parallel workers and worth a spawn).
    pub fn should_parallelize(&self, work: usize) -> bool {
        self.threads > 1 && work >= self.min_work
    }

    /// The runtime selected by the environment: `FT_THREADS` if set to a
    /// positive integer, otherwise one worker per available core.
    pub fn from_env() -> Self {
        Runtime::new(resolve_threads(0))
    }

    /// Effective worker count (after the oversubscription clamp).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The worker count that was asked for, before the oversubscription
    /// clamp. `requested() != threads()` exactly when [`Runtime::new`]
    /// clamped an oversubscribed pool to the host's core count.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// Whether parallel regions actually fan out (more than one worker).
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Splits `0..rows` into this runtime's deterministic chunks.
    pub fn ranges(&self, rows: usize) -> Vec<Range<usize>> {
        chunk_ranges(rows, self.threads)
    }

    /// Splits a row-major buffer of `rows = data.len() / row_len` rows into
    /// per-chunk `(row range, mutable slice)` pairs aligned with
    /// [`Runtime::ranges`]. Feed the result to [`Runtime::scatter`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `row_len` (`row_len == 0`
    /// is allowed only for an empty buffer).
    pub fn split_rows_mut<'a, T>(
        &self,
        data: &'a mut [T],
        row_len: usize,
    ) -> Vec<(Range<usize>, &'a mut [T])> {
        if data.is_empty() {
            return Vec::new();
        }
        assert!(
            row_len > 0 && data.len().is_multiple_of(row_len),
            "buffer of {} elements is not rows of {row_len}",
            data.len()
        );
        let rows = data.len() / row_len;
        self.split_at_offsets_mut(data, rows, |r| r * row_len)
    }

    /// Splits a buffer into per-chunk slices at arbitrary row offsets:
    /// `offset_of(r)` is the element index where row `r` starts (monotone,
    /// with `offset_of(rows) == data.len()`). This is how CSR value buffers
    /// are split at `row_ptr` boundaries.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are inconsistent with `data.len()`.
    pub fn split_at_offsets_mut<'a, T>(
        &self,
        data: &'a mut [T],
        rows: usize,
        offset_of: impl Fn(usize) -> usize,
    ) -> Vec<(Range<usize>, &'a mut [T])> {
        let ranges = self.ranges(rows);
        let mut out = Vec::with_capacity(ranges.len());
        let mut rest = data;
        let mut consumed = 0usize;
        for r in ranges {
            let end = offset_of(r.end);
            assert!(
                end >= consumed,
                "row offsets must be non-decreasing ({end} < {consumed})"
            );
            let (head, tail) = rest.split_at_mut(end - consumed);
            consumed = end;
            rest = tail;
            out.push((r, head));
        }
        assert!(
            rest.is_empty(),
            "row offsets cover {consumed} of {} elements",
            consumed + rest.len()
        );
        out
    }

    /// Runs `f` once per job, fanning the jobs out over the pool. The
    /// calling thread and at most `threads − 1` parked workers take the jobs
    /// in list order, each the next one when it is free, so concurrency
    /// never exceeds the pool size however many jobs are passed, and a
    /// caller that lists long jobs first gets a longest-first schedule. The
    /// call returns only when every job has finished. With one thread (or
    /// one job) everything runs inline, in order — the sequential path —
    /// and no worker is spawned.
    ///
    /// Jobs carry their own disjoint `&mut` state (see
    /// [`Runtime::split_rows_mut`]), so the closure only needs `Fn`.
    ///
    /// # Panics
    ///
    /// If a job panics, the other jobs still run, and then the call panics
    /// with `"runtime worker panicked"` followed by the job's message. The
    /// pool stays usable.
    pub fn scatter<J: Send, F: Fn(J) + Sync>(&self, jobs: Vec<J>, f: F) {
        pool::POOL.scatter(self.threads, jobs, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 2, 3, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 4, 9, 64] {
                let ranges = chunk_ranges(n, parts);
                assert!(ranges.len() <= parts.min(n.max(1)));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at {n}/{parts}");
                    assert!(r.end > r.start, "empty chunk at {n}/{parts}");
                    next = r.end;
                }
                assert_eq!(next, n, "coverage at {n}/{parts}");
                // Near-equal: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_are_deterministic() {
        assert_eq!(chunk_ranges(100, 4), chunk_ranges(100, 4));
        assert_eq!(chunk_ranges(10, 3), vec![0..4, 4..7, 7..10]);
    }

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(Runtime::new(0).threads(), 1);
        assert!(!Runtime::new(0).is_parallel());
        assert!(Runtime::exact(2).is_parallel());
    }

    /// The oversubscription clamp: `new` never fans out beyond the host's
    /// cores (a 4-worker pool on a 1-core host is strictly slower), while
    /// `exact` and an explicit `FT_THREADS` keep exact counts for the
    /// determinism suites. On the old code `new(host · 8)` reported
    /// `host · 8` effective workers and the scatter really spawned them.
    #[test]
    fn new_clamps_oversubscribed_pools() {
        let host = host_parallelism();
        let rt = Runtime::new(host * 8);
        assert_eq!(rt.requested(), host * 8);
        let env_pinned = matches!(
            std::env::var(THREADS_ENV).map(|v| v.trim().parse::<usize>()),
            Ok(Ok(n)) if n > 0
        );
        if env_pinned {
            // Determinism-matrix mode: counts are taken exactly.
            assert_eq!(rt.threads(), host * 8);
        } else {
            assert_eq!(rt.threads(), host);
        }
        // `exact` always bypasses the clamp.
        let rt = Runtime::exact(host * 8);
        assert_eq!(rt.threads(), host * 8);
        assert_eq!(rt.requested(), host * 8);
        // Requests within the host budget are never reduced.
        assert_eq!(Runtime::new(1).threads(), 1);
        assert_eq!(Runtime::new(host).requested(), host);
        assert_eq!(Runtime::new(host).threads(), host);
    }

    #[test]
    fn resolve_explicit_wins_over_env() {
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn scatter_runs_every_job_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1usize, 2, 4, 16] {
            let rt = Runtime::exact(threads);
            let hits = AtomicUsize::new(0);
            rt.scatter((0..10).collect(), |_i: usize| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 10, "threads={threads}");
        }
    }

    #[test]
    fn scatter_with_more_threads_than_jobs() {
        let rt = Runtime::exact(64);
        let mut data = vec![0u8; 3];
        let jobs: Vec<(usize, &mut u8)> = data.iter_mut().enumerate().collect();
        rt.scatter(jobs, |(i, v)| *v = i as u8 + 1);
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn scatter_concurrency_never_exceeds_pool_size() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let threads = 3usize;
        let rt = Runtime::exact(threads);
        let current = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        rt.scatter((0..40).collect::<Vec<usize>>(), |_| {
            let now = current.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            current.fetch_sub(1, Ordering::SeqCst);
        });
        // The caller and at most `threads − 1` workers take the jobs, so
        // observed concurrency is bounded by the pool size (one-sided: no
        // flakiness).
        assert!(peak.load(Ordering::SeqCst) <= threads);
    }

    /// A job that panics does not cut the region short: every other job
    /// finishes before the caller re-panics, and the pool serves the next
    /// scatter.
    #[test]
    fn a_panicking_job_surfaces_after_the_others_and_the_pool_survives() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = Runtime::exact(3);
        let done = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            rt.scatter((0..24).collect::<Vec<usize>>(), |i| {
                if i == 2 {
                    panic!("job {i} failed");
                }
                std::thread::sleep(std::time::Duration::from_micros(300));
                done.fetch_add(1, Ordering::SeqCst);
            });
        });
        let payload = caught.expect_err("the panic reaches the caller");
        let msg = payload.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("runtime worker panicked"), "{msg}");
        assert!(msg.contains("job 2 failed"), "{msg}");
        assert_eq!(done.load(Ordering::SeqCst), 23);
        let hits = AtomicUsize::new(0);
        rt.scatter((0..8).collect(), |_i: usize| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    /// A job that scatters in turn runs its inner region with whatever
    /// workers are free, or alone: it never waits for a seat.
    #[test]
    fn a_job_that_scatters_does_not_deadlock() {
        let outer = Runtime::exact(2);
        let inner = Runtime::exact(3);
        let mut sums = vec![0u64; 6];
        let jobs: Vec<(usize, &mut u64)> = sums.iter_mut().enumerate().collect();
        outer.scatter(jobs, |(k, sum)| {
            let mut parts = [0u64; 10];
            inner.scatter(parts.iter_mut().enumerate().collect(), |(i, p)| {
                *p = (k * 100 + i) as u64;
            });
            *sum = parts.iter().sum();
        });
        let want: Vec<u64> = (0..6)
            .map(|k| (0..10).map(|i| (k * 100 + i) as u64).sum())
            .collect();
        assert_eq!(sums, want);
    }

    /// Two OS threads that scatter at the same time share the pool and
    /// both get every row right. The first job of each region waits for the
    /// other's, so the two regions are open at once every time.
    #[test]
    fn concurrent_scatters_from_two_threads_are_both_correct() {
        let both_open = std::sync::Barrier::new(2);
        let fill = |seed: usize| {
            let rt = Runtime::exact(3);
            let mut out = vec![0usize; 257];
            let parts = rt.split_rows_mut(&mut out, 1);
            rt.scatter(parts, |(rows, chunk)| {
                if rows.start == 0 {
                    both_open.wait();
                }
                for (v, r) in chunk.iter_mut().zip(rows) {
                    *v = r * r + seed;
                }
            });
            out
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|seed| {
                    let fill = &fill;
                    scope.spawn(move || {
                        for _ in 0..200 {
                            let out = fill(seed);
                            assert!(out.iter().enumerate().all(|(r, &v)| v == r * r + seed));
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("scattering thread");
            }
        });
    }

    /// Workers are spawned lazily: a one-thread scatter spawns none, and a
    /// pool never holds more than the widest `threads − 1` that fanned out.
    /// A private pool, so tests running beside this one do not count.
    #[test]
    fn the_pool_spawns_only_the_widest_fan_out() {
        let pool: &'static pool::Pool = Box::leak(Box::new(pool::Pool::new()));
        let job = |_: usize| std::thread::sleep(std::time::Duration::from_micros(50));
        pool.scatter(1, (0..10).collect(), job);
        assert_eq!(pool.spawned(), 0);
        pool.scatter(4, vec![0], job);
        assert_eq!(pool.spawned(), 0, "one job runs inline");
        pool.scatter(3, (0..10).collect(), job);
        assert_eq!(pool.spawned(), 2);
        pool.scatter(2, (0..10).collect(), job);
        pool.scatter(8, (0..3).collect(), job);
        assert_eq!(pool.spawned(), 2, "three jobs need two helpers");
        pool.scatter(4, (0..10).collect(), job);
        assert_eq!(pool.spawned(), 3);
    }

    #[test]
    fn scatter_of_nothing_is_a_noop() {
        let rt = Runtime::exact(4);
        rt.scatter(Vec::<usize>::new(), |_| panic!("no jobs to run"));
    }

    #[test]
    fn split_rows_matches_ranges() {
        let rt = Runtime::exact(3);
        let mut data = vec![0f32; 10 * 4];
        let parts = rt.split_rows_mut(&mut data, 4);
        let ranges: Vec<_> = parts.iter().map(|(r, _)| r.clone()).collect();
        assert_eq!(ranges, chunk_ranges(10, 3));
        for (r, chunk) in &parts {
            assert_eq!(chunk.len(), r.len() * 4);
        }
    }

    #[test]
    fn split_rows_empty_buffer() {
        let rt = Runtime::exact(4);
        let mut data: Vec<f32> = Vec::new();
        assert!(rt.split_rows_mut(&mut data, 7).is_empty());
        assert!(rt.split_rows_mut(&mut data, 0).is_empty());
    }

    #[test]
    fn split_at_offsets_handles_empty_rows() {
        // CSR-style split where some rows (and whole chunks) hold nothing —
        // the nnz = 0 edge case.
        let rt = Runtime::exact(4);
        let row_ptr = [0usize, 0, 0, 0, 0];
        let mut vals: Vec<f32> = Vec::new();
        let parts = rt.split_at_offsets_mut(&mut vals, 4, |r| row_ptr[r]);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|(_, c)| c.is_empty()));
    }

    #[test]
    fn split_at_offsets_uneven_rows() {
        let rt = Runtime::exact(2);
        let row_ptr = [0usize, 3, 3, 7];
        let mut vals = vec![1f32; 7];
        let parts = rt.split_at_offsets_mut(&mut vals, 3, |r| row_ptr[r]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, 0..2);
        assert_eq!(parts[0].1.len(), 3); // rows 0..2 hold entries 0..3
        assert_eq!(parts[1].1.len(), 4);
    }

    #[test]
    #[should_panic(expected = "not rows of")]
    fn split_rows_rejects_ragged_buffer() {
        let rt = Runtime::exact(2);
        let mut data = vec![0f32; 7];
        let _ = rt.split_rows_mut(&mut data, 3);
    }

    #[test]
    fn parallel_fill_is_bit_identical_to_sequential() {
        let fill = |rt: &Runtime| -> Vec<f32> {
            let mut out = vec![0f32; 97 * 5];
            let parts = rt.split_rows_mut(&mut out, 5);
            rt.scatter(parts, |(rows, chunk)| {
                for (local, row) in rows.enumerate() {
                    for (j, v) in chunk[local * 5..(local + 1) * 5].iter_mut().enumerate() {
                        // Accumulation order inside an element is fixed.
                        for t in 0..4 {
                            *v += (row * 31 + j * 7 + t) as f32 * 0.3;
                        }
                    }
                }
            });
            out
        };
        let seq = fill(&Runtime::sequential());
        for threads in [2usize, 3, 8, 200] {
            assert_eq!(fill(&Runtime::exact(threads)), seq, "threads={threads}");
        }
    }
}

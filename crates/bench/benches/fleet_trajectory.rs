//! Fleet-simulation trajectory (`BENCH_fleet.json`): host wall-clock of the
//! federated round loop under each scheduler at 1 worker thread vs all
//! available ones, on a mixed fast/balanced/slow fleet.
//!
//! Environment generation (data synthesis, Dirichlet partitioning, model
//! init) happens strictly *outside* the timed region, and each measured run
//! is preceded by a discarded warmup run — the setup/measurement separation
//! that keeps these JSON numbers stable across CI runs.
//!
//! The simulated makespans are also cross-checked across thread counts:
//! they must be bit-identical (the runtime determinism contract), so this
//! bench doubles as a smoke test of the parallel round loop.
//!
//! Two further records pin the buffered event loop's structure rather than
//! its speed: allocator bytes per steady-state aggregation (the loop takes
//! no snapshot of its in-flight tasks unless a checkpoint is due) and the
//! mean number of tasks it trains per flush (launches are deferred and
//! trained as cohorts, not one at a time).
//!
//! A last leg times the paper's own stages at the whole-run benchmark's
//! operating point (ResNet18 width 0.25 on 16 px inputs, six devices,
//! d = 0.05): the candidate pool against a single magnitude mask over the same
//! weights, one selection candidate, one progressive adjustment against one
//! sparse training round, and the allocator bytes of such a round.

use fedtiny::progressive::progressive_adjust;
use fedtiny::{adaptive_bn_selection, generate_candidate_pool, ProgressiveConfig, SelectionConfig};
use ft_bench::{measure_ns, BenchReport};
use ft_data::{DatasetProfile, SynthConfig};
use ft_fl::{
    buffered_train_cohorts, no_hook, run_federated_rounds, CostLedger, DeviceProfile,
    ExperimentEnv, FlConfig, ModelSpec, Scheduler,
};
use ft_nn::{apply_mask, sparse_layout, take_snapshot};
use ft_sparse::{magnitude_mask, uniform_density_vector, Codec, Mask};
use std::hint::black_box;
use std::time::Instant;

/// Every byte this process allocates is counted, so the structure records
/// below can pin allocator traffic per aggregation and per training round,
/// not just wall time.
#[global_allocator]
static ALLOC: ft_bench::CountingAlloc = ft_bench::CountingAlloc;

const SEED: u64 = 23;
const DEVICES: usize = 6;

/// Rounds at the current quick/full mode — also the only shape input, so
/// the report's shape tags never need an environment rebuild.
fn rounds() -> usize {
    if ft_bench::quick_mode() {
        4
    } else {
        8
    }
}

fn build_env(scheduler: Scheduler, threads: usize) -> ExperimentEnv {
    build_env_sized(scheduler, threads, DEVICES, rounds())
}

fn build_env_sized(
    scheduler: Scheduler,
    threads: usize,
    devices: usize,
    rounds: usize,
) -> ExperimentEnv {
    let quick = ft_bench::quick_mode();
    let synth = SynthConfig {
        profile: DatasetProfile::Cifar10,
        train_per_class: if quick { 8 } else { 16 },
        test_per_class: 6,
        resolution: 8,
        channels: 3,
        seed: SEED,
    };
    let mut cfg = FlConfig::bench_default();
    cfg.devices = devices;
    cfg.rounds = rounds;
    cfg.local_epochs = 1;
    cfg.seed = SEED;
    cfg.threads = threads;
    let env = ExperimentEnv::new(synth, cfg);
    let fleet = DeviceProfile::fleet_mixed(env.num_devices());
    env.with_fleet(fleet).with_scheduler(scheduler)
}

/// One measured run: returns `(wall ns, realized FLOPs, sim makespan)` of
/// the round loop only — environment setup is excluded.
fn run_once(scheduler: Scheduler, threads: usize) -> (f64, f64, f64) {
    run_env(&build_env(scheduler, threads))
}

fn run_env(env: &ExperimentEnv) -> (f64, f64, f64) {
    let mut model = env.build_model(&ModelSpec::SmallCnn { width: 4, input: 8 });
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let t = Instant::now();
    let history = run_federated_rounds(
        model.as_mut(),
        &mut mask,
        env,
        0,
        &mut ledger,
        &mut no_hook(),
    );
    let wall_ns = t.elapsed().as_nanos() as f64;
    assert!(!history.is_empty());
    let realized: f64 = ledger.realized_flops_history().iter().sum();
    (wall_ns, realized, ledger.sim_makespan_secs())
}

/// Fleet, buffer and run length of the buffered-loop structure records. A
/// wide fleet over a short buffer keeps one snapshot of the in-flight tasks
/// (`BUFFERED_DEVICES` deltas) far above what an aggregation itself needs
/// (`BUFFERED_K` restarts), so the two cannot be confused.
const BUFFERED_DEVICES: usize = 16;
const BUFFERED_K: usize = 2;
const BUFFERED_ROUNDS: usize = 16;

/// Records `buffered_alloc_bytes_per_aggregation` — allocator traffic of one
/// steady-state aggregation with no checkpoint configured, taken at one
/// thread (where it repeats exactly) as the difference between a run of
/// `2R` and a run of `R` aggregations, which cancels set-up and the initial
/// wave — and `buffered_train_cohort_mean`, the tasks trained per flush of
/// the deferred-training loop on the widest pool of the grid.
fn measure_buffered_loop(report: &mut BenchReport, threads: usize) {
    let scheduler = Scheduler::Buffered {
        buffer_k: BUFFERED_K,
    };
    // `(wall ns, allocated bytes, flushes, tasks)` of one run, set-up excluded.
    let run_counting = |threads: usize, rounds: usize| {
        let env = build_env_sized(scheduler, threads, BUFFERED_DEVICES, rounds);
        let bytes_before = ft_bench::allocated_bytes();
        let (flushes_before, tasks_before) = buffered_train_cohorts();
        let (wall_ns, _, _) = run_env(&env);
        let (flushes, tasks) = buffered_train_cohorts();
        let bytes = ft_bench::allocated_bytes() - bytes_before;
        (
            wall_ns,
            bytes,
            flushes - flushes_before,
            tasks - tasks_before,
        )
    };
    let shape = format!("K{BUFFERED_DEVICES}xB{BUFFERED_K}");

    let _ = run_counting(1, BUFFERED_ROUNDS); // warmup: the pooled trainer
    let (_, short_bytes, ..) = run_counting(1, BUFFERED_ROUNDS);
    let (long_ns, long_bytes, ..) = run_counting(1, 2 * BUFFERED_ROUNDS);
    let per_agg = (long_bytes - short_bytes) as f64 / BUFFERED_ROUNDS as f64;
    let agg_ns = long_ns / (2 * BUFFERED_ROUNDS) as f64;
    // What one eager snapshot of the in-flight deltas alone would copy.
    let env = build_env_sized(scheduler, 1, BUFFERED_DEVICES, 1);
    let model = env.build_model(&ModelSpec::SmallCnn { width: 4, input: 8 });
    let snapshot_bytes = (BUFFERED_DEVICES * take_snapshot(model.as_ref()).params.len() * 4) as f64;
    assert!(
        per_agg < snapshot_bytes,
        "{per_agg:.0} B/aggregation with no checkpoint configured — an in-flight snapshot \
         alone is {snapshot_bytes:.0} B: the loop is copying its tasks again"
    );
    report.push_alloc(
        "buffered_alloc_bytes_per_aggregation",
        &shape,
        1,
        agg_ns,
        per_agg,
    );
    println!(
        "{:<36} {:>8} {:>14.3} {:>20.1}",
        "buffered_alloc_bytes_per_aggregation",
        1,
        agg_ns / 1e6,
        per_agg
    );

    let (wall_ns, _, flushes, tasks) = run_counting(threads, 2 * BUFFERED_ROUNDS);
    let cohort_mean = tasks as f64 / flushes.max(1) as f64;
    let agg_ns = wall_ns / (2 * BUFFERED_ROUNDS) as f64;
    report.push_count(
        "buffered_train_cohort_mean",
        &shape,
        threads,
        agg_ns,
        cohort_mean,
    );
    println!(
        "{:<36} {:>8} {:>14.3} {:>20.2}  ({tasks} tasks / {flushes} flushes)",
        "buffered_train_cohort_mean",
        threads,
        agg_ns / 1e6,
        cohort_mean
    );
}

/// Candidates in the FedTiny leg's pool (the whole-run benchmark's) and its
/// target density.
const FEDTINY_POOL: usize = 8;
const FEDTINY_DENSITY: f32 = 0.05;
/// Worker threads of the FedTiny leg: two, so a round's devices really fan
/// out over pooled trainers (one on a one-core host, where the pool clamps).
const FEDTINY_THREADS: usize = 2;

/// The whole-run benchmark's `fedtiny_sparse` environment, `rounds` long.
fn fedtiny_env(rounds: usize) -> ExperimentEnv {
    let mut synth = SynthConfig::bench_default(DatasetProfile::Cifar10, SEED);
    synth.train_per_class = 30;
    let mut cfg = FlConfig::bench_default();
    cfg.devices = DEVICES;
    cfg.rounds = rounds;
    cfg.local_epochs = 1;
    cfg.seed = SEED;
    cfg.threads = FEDTINY_THREADS;
    cfg.codec = Codec::MaskCsr;
    ExperimentEnv::new(synth, cfg)
}

/// The paper's two stages and the round they sit between, each as one
/// record: `magnitude_mask_ns` (one mask at uniform density) beside
/// `selection_pool_ns` (all [`FEDTINY_POOL`] candidates over the same
/// weights — the pool ranks a layer once, so the two read alike),
/// `selection_candidate_ns` (one adaptive-BN selection ÷ candidates),
/// `progressive_adjust_ns` (one adjustment of the last block, the copy of
/// model and mask it works on included, ≈ 1 %), `fedtiny_round_ns` (one
/// sparse training round, no hook) and `fedtiny_round_alloc_bytes`, the
/// allocator traffic of such a round taken as the difference between a run of
/// `2R` and a run of `R` rounds, which cancels set-up and the final
/// evaluation. With pooled trainers a round allocates what crosses the wire
/// plus whatever arena growth a larger batch than any seen so far causes on
/// the trainer that draws it — so the count is bounded, not exact, when
/// devices fan out.
fn measure_fedtiny(report: &mut BenchReport) {
    let spec = ModelSpec::ResNet18 {
        width: 0.25,
        input: 16,
    };
    let rounds = rounds() / 2;
    let env = fedtiny_env(rounds);
    let threads = env.cfg.runtime().threads();
    let mut global = env.build_model(&spec);
    let shape = format!("r18w0.25x16K{DEVICES}C{FEDTINY_POOL}");
    let emit = |report: &mut BenchReport, op: &str, ns: f64| {
        report.push(
            op,
            &shape,
            FEDTINY_DENSITY as f64,
            FEDTINY_THREADS,
            threads,
            ns,
            0.0,
        );
        println!("{op:<36} {threads:>8} {:>14.3}", ns / 1e6);
    };

    // --- Module 1: the pool against one mask, then one candidate. The gate
    // on the first pair is a ratio, so the two are timed alternately and host
    // drift lands on both.
    let layout = sparse_layout(global.as_ref());
    let selection = SelectionConfig {
        d_target: FEDTINY_DENSITY,
        pool_size: FEDTINY_POOL,
        noise_spread: 0.5,
        seed: SEED,
    };
    let (single_ns, pool_ns) = {
        let params = global.params();
        let weights: Vec<&[f32]> = (params.iter().filter(|p| p.prunable))
            .map(|p| p.data.data())
            .collect();
        let densities = uniform_density_vector(&layout, FEDTINY_DENSITY);
        let timed = |f: &dyn Fn()| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        };
        let single = || {
            black_box(magnitude_mask(&layout, &weights, &densities));
        };
        let pool = || {
            black_box(generate_candidate_pool(global.as_ref(), &selection));
        };
        let samples = if ft_bench::quick_mode() { 9 } else { 31 };
        let (mut singles, mut pools) = (Vec::new(), Vec::new());
        for i in 0..=samples {
            let (s, p) = (timed(&single), timed(&pool));
            if i > 0 {
                // The first round is the warmup.
                singles.push(s);
                pools.push(p);
            }
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        (median(&mut singles), median(&mut pools))
    };
    emit(report, "magnitude_mask_ns", single_ns);
    emit(report, "selection_pool_ns", pool_ns);
    let pool = generate_candidate_pool(global.as_ref(), &selection);
    let select_ns = measure_ns(|| {
        black_box(adaptive_bn_selection(global.as_ref(), &env, &pool));
    });
    emit(
        report,
        "selection_candidate_ns",
        select_ns / FEDTINY_POOL as f64,
    );

    // --- Module 2: one adjustment, one round, one round's allocations.
    let mask = adaptive_bn_selection(global.as_ref(), &env, &pool).mask;
    apply_mask(global.as_mut(), &mask);
    global.set_runtime(env.cfg.runtime());
    let prog = ProgressiveConfig::paper_default(env.cfg.local_epochs);
    let units = prog.units(global.as_ref(), mask.num_layers());
    let adjust_ns = measure_ns(|| {
        let (mut model, mut mask) = (global.clone_model(), mask.clone());
        let adjusted = progressive_adjust(model.as_mut(), &mut mask, &env, &prog, &units[0], 0);
        assert!(!adjusted.adjusted.is_empty());
    });
    emit(report, "progressive_adjust_ns", adjust_ns);

    // `(wall ns, allocated bytes)` of `rounds` sparse rounds from the
    // selected mask, set-up excluded.
    let run_counting = |rounds: usize| {
        let env = fedtiny_env(rounds);
        let (mut model, mut mask) = (global.clone_model(), mask.clone());
        let mut ledger = CostLedger::new();
        let before = ft_bench::allocated_bytes();
        let t = Instant::now();
        let history = run_federated_rounds(
            model.as_mut(),
            &mut mask,
            &env,
            0,
            &mut ledger,
            &mut no_hook(),
        );
        let wall_ns = t.elapsed().as_nanos() as f64;
        assert!(!history.is_empty());
        (wall_ns, ft_bench::allocated_bytes() - before)
    };
    let _ = run_counting(rounds); // warmup: the pooled trainers' training arenas
    let (_, short_bytes) = run_counting(rounds);
    let (long_ns, long_bytes) = run_counting(2 * rounds);
    let round_ns = long_ns / (2 * rounds) as f64;
    emit(report, "fedtiny_round_ns", round_ns);
    let per_round = long_bytes.saturating_sub(short_bytes) as f64 / rounds as f64;
    report.push_count(
        "fedtiny_round_alloc_bytes",
        &shape,
        threads,
        round_ns,
        per_round,
    );
    println!(
        "{:<36} {threads:>8} {:>14.3} {per_round:>20.0}",
        "fedtiny_round_alloc_bytes",
        round_ns / 1e6
    );
}

fn main() {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut threads_grid = vec![1usize];
    if host > 1 {
        threads_grid.push(host);
    }
    let mut report = BenchReport::new("fleet");
    let schedulers = [
        Scheduler::Synchronous,
        Scheduler::Deadline { deadline_secs: 2.0 },
        Scheduler::Buffered { buffer_k: 3 },
    ];
    println!(
        "{:<20} {:>8} {:>14} {:>14} {:>10}",
        "op", "threads", "wall_ms", "sim_makespan_s", "GFLOP/s"
    );
    for scheduler in schedulers {
        let mut makespans = Vec::new();
        for &t in &threads_grid {
            // Warmup run (discarded): pays data synthesis caches, page
            // faults, and thread-pool creation before the timed run.
            let _ = run_once(scheduler, t);
            let (wall_ns, realized, sim) = run_once(scheduler, t);
            makespans.push(sim);
            let op = format!("fleet_{}", scheduler.name());
            let shape = format!("K{DEVICES}xR{}", rounds());
            // The grid never exceeds host parallelism, so requested ==
            // effective here.
            report.push(&op, &shape, 1.0, t, t, wall_ns, realized);
            println!(
                "{:<20} {:>8} {:>14.1} {:>14.2} {:>10.3}",
                op,
                t,
                wall_ns / 1e6,
                sim,
                realized / wall_ns
            );
        }
        // Determinism net: the virtual-time outcome must not depend on how
        // many host threads computed it.
        for m in &makespans[1..] {
            assert_eq!(
                m.to_bits(),
                makespans[0].to_bits(),
                "{}: sim makespan diverged across thread counts",
                scheduler.name()
            );
        }
    }
    println!(
        "{:<36} {:>8} {:>14} {:>20}",
        "op", "threads", "wall_ms/agg", "bytes | tasks/flush"
    );
    measure_buffered_loop(&mut report, *threads_grid.last().expect("nonempty grid"));
    println!(
        "{:<36} {:>8} {:>14} {:>20}",
        "op", "threads", "wall_ms", "alloc_bytes/round"
    );
    measure_fedtiny(&mut report);
    let path = report.write();
    println!(
        "trajectory: {} records -> {} (host_threads={}, quick={})",
        report.records.len(),
        path.display(),
        report.host_threads,
        report.quick
    );
}

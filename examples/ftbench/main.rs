//! `ftbench` — the whole-run benchmark of this repository.
//!
//! ```text
//! ftbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one pass
//! ftbench all [--seed N] [--seconds S] [--workload name] [--quick]   every workload, both passes
//! ftbench compare A.json B.json                                      two `all` results
//! ftbench selfcheck [--seed N] [--seconds S]                         `all` twice, then compare
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over timed, untraced repeats;
//! `--trace 1` runs one traced repeat plus the layer pass and reports the
//! per-layer metrics. Both verify the run's outputs and print one JSON
//! object as their last line. See the README beside this file.

mod layers;
mod measure;
mod report;
mod trace;
mod workloads;

use measure::{median, median_opt, process_peak_rss_mb, quantile, reset_peak_rss, tail_percentile};
use report::{metrics_object, num, num_array, Verdict, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{durations_ms, self_ms_by_layer, Tracer};
use workloads::{
    drive, drive_fedtiny_composed, run_plain, set_up, workload_named, Inputs, Outcome, Via,
    Workload, WORKLOADS,
};

#[global_allocator]
static ALLOC: ft_bench::CountingAlloc = ft_bench::CountingAlloc;

const DEFAULT_SEED: u64 = 23;
/// Seconds of timed repeats per pass; `BENCHMARK.json` passes the same.
const DEFAULT_SECONDS: f64 = 12.0;
/// Timed repeats behind every end-to-end median, whatever the budget.
const MIN_REPEATS: usize = 3;
/// Set-ups behind `setup_s`: one per timed repeat, topped up to this many
/// (a set-up is milliseconds, and small medians need more samples).
const SETUP_SAMPLES: usize = 9;
/// Density the pruned model may end above its target (per-layer rounding).
const DENSITY_SLACK: f32 = 0.005;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_flags(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.to_string()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &o.workload {
        if workload_named(name).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; choose from {}",
                names.join(", ")
            ));
        }
    }
    Ok(o)
}

/// Worker threads of the in-process workloads: `min(nproc, 4)`.
fn bench_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Where result and trace files go: under the build directory, which the
/// repository already ignores.
fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    base.join("ftbench")
}

fn write_out(name: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// One output check: what was compared and whether it held.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

fn hex(v: u64) -> String {
    format!("\"{v:016x}\"")
}

/// The counts behind `fail_share`, `attempted` and `failed`.
#[derive(Default)]
struct Tally {
    events: u64,
    faulted: u64,
    runs: u64,
    failed_runs: u64,
}

impl Tally {
    fn add(&mut self, outcome: &Outcome) {
        self.events += outcome.events;
        self.faulted += outcome.faulted;
        self.runs += 1;
    }

    fn attempted(&self, checks: &[Check]) -> u64 {
        self.events + self.runs + checks.len() as u64
    }

    fn failed(&self, checks: &[Check]) -> u64 {
        self.faulted + self.failed_runs + checks.iter().filter(|c| !c.ok).count() as u64
    }
}

/// The twin comparison of the TCP workload: same inputs over function
/// calls must end bit-equal (parameters, mask, history, payload histories).
fn check_tcp_twin(
    inputs: &Inputs,
    tcp: &Outcome,
    tracer: Option<&Tracer>,
    checks: &mut Vec<Check>,
    tally: &mut Tally,
) {
    let twin_inputs = inputs.in_process_twin();
    let twin = set_up(&twin_inputs, None).and_then(|ready| drive(&twin_inputs, ready, tracer));
    tally.runs += 1;
    match twin {
        Ok((twin, _)) => {
            tally.events += twin.events;
            tally.faulted += twin.faulted;
            check(
                checks,
                "tcp_equals_in_process_twin",
                twin.fingerprint == tcp.fingerprint && twin.state_hash == tcp.state_hash,
                format!(
                    "tcp {:016x}/{:016x?} twin {:016x}/{:016x?}",
                    tcp.fingerprint, tcp.state_hash, twin.fingerprint, twin.state_hash
                ),
            );
        }
        Err(e) => {
            tally.failed_runs += 1;
            check(checks, "tcp_equals_in_process_twin", false, e);
        }
    }
}

fn check_density(inputs: &Inputs, outcome: &Outcome, checks: &mut Vec<Check>) {
    if let Some(target) = inputs.density_target() {
        check(
            checks,
            "density_within_target",
            outcome.density <= target + DENSITY_SLACK,
            format!("final density {} vs target {target}", outcome.density),
        );
    }
}

/// Prints the `workload metric value unit` lines and the checks, then the
/// one JSON object the caller's harness reads as the last line.
fn finish(
    workload: &str,
    printed: &[(&str, f64, &str)],
    contract: &[(&str, f64, &str)],
    checks: &[Check],
    tally: &Tally,
) -> ExitCode {
    for (name, value, unit) in printed {
        println!("{workload} {name} {} {unit}", num(*value));
    }
    for c in checks {
        let state = if c.ok { "ok" } else { "FAILED" };
        println!("{workload} check {} {state} ({})", c.name, c.detail);
    }
    let correct = tally.failed(checks) == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted(checks).max(1),
        tally.failed(checks),
        metrics_object(contract)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn checks_json(checks: &[Check]) -> String {
    let items: Vec<String> = checks
        .iter()
        .map(|c| format!("{{\"name\": \"{}\", \"ok\": {}}}", c.name, c.ok))
        .collect();
    format!("[{}]", items.join(", "))
}

/// What the timed repeats measured, one entry per repeat.
#[derive(Default)]
struct Repeats {
    setup_s: Vec<f64>,
    /// Resident-set peak of the repeat alone (the mark is reset before it).
    peak_rss_mb: Vec<Option<f64>>,
    outcomes: Vec<Outcome>,
}

/// Untraced runs of the whole workload, each on a freshly built
/// environment, until the budget is spent (never fewer than `min`).
fn timed_repeats(inputs: &Inputs, budget_secs: f64, min: usize) -> Result<Repeats, String> {
    let mut repeats = Repeats::default();
    let started = Instant::now();
    loop {
        let repeat_started = Instant::now();
        reset_peak_rss();
        let ready = set_up(inputs, None)?;
        repeats.setup_s.push(ready.setup_s);
        repeats.outcomes.push(run_plain(inputs, ready)?);
        repeats.peak_rss_mb.push(process_peak_rss_mb());
        let next_ends = started.elapsed() + repeat_started.elapsed();
        if repeats.outcomes.len() >= min && next_ends.as_secs_f64() > budget_secs {
            return Ok(repeats);
        }
    }
}

fn warm_up(inputs: &Inputs) -> Result<(), String> {
    let warm = inputs.warm_up();
    run_plain(&warm, set_up(&warm, None)?).map(|_| ())
}

/// `--trace 0`: the end-to-end pass.
fn end_to_end_pass(w: &Workload, o: &Options) -> Result<ExitCode, String> {
    let threads = bench_threads();
    let inputs = Inputs::new(w.kind, o.seed, threads, o.quick);
    warm_up(&inputs)?;
    let Repeats {
        setup_s: mut setups,
        peak_rss_mb,
        outcomes,
    } = timed_repeats(&inputs, o.seconds, MIN_REPEATS)?;
    while setups.len() < SETUP_SAMPLES {
        let ready = set_up(&inputs, None)?;
        setups.push(ready.setup_s);
        ready.discard();
    }

    let mut tally = Tally::default();
    outcomes.iter().for_each(|out| tally.add(out));
    let first = &outcomes[0];
    let mut checks = Vec::new();
    check(
        &mut checks,
        "repeats_bit_equal",
        outcomes
            .iter()
            .all(|r| r.fingerprint == first.fingerprint && r.state_hash == first.state_hash),
        format!(
            "{} repeats, fingerprint {:016x}",
            outcomes.len(),
            first.fingerprint
        ),
    );
    check_density(&inputs, first, &mut checks);
    if inputs.via == Via::Tcp {
        check_tcp_twin(&inputs, first, None, &mut checks, &mut tally);
    }

    let run_s: Vec<f64> = outcomes.iter().map(|r| r.run_s).collect();
    let rate: Vec<f64> = outcomes.iter().map(|r| r.samples / r.run_s).collect();
    let cpu_s: Vec<Option<f64>> = outcomes.iter().map(|r| r.cpu_s).collect();
    let fail_share = tally.failed(&checks) as f64 / tally.attempted(&checks).max(1) as f64;
    // A metric the host cannot measure (`None`) is left out, never zeroed.
    let values = [
        ("setup_s", Some(median(&setups))),
        ("run_s", Some(median(&run_s))),
        ("samples_per_s", Some(median(&rate))),
        ("cpu_s", median_opt(&cpu_s)),
        ("peak_rss_mb", median_opt(&peak_rss_mb)),
        ("wire_mb", Some(first.wire_bytes / 1e6)),
        ("accuracy", Some(first.accuracy as f64)),
        ("fail_share", Some(fail_share)),
    ];
    let present: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .filter_map(|def| {
            let (_, value) = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .expect("every end-to-end metric is measured above");
            value.map(|v| (def.name, v, def.unit))
        })
        .collect();
    let contract: Vec<(&str, f64, &str)> = present
        .iter()
        .filter(|(name, ..)| !report::UNBOUNDED_IN_CONTRACT.contains(name))
        .copied()
        .collect();

    let cpu_runs: Vec<f64> = cpu_s.iter().flatten().copied().collect();
    let rss_runs: Vec<f64> = peak_rss_mb.iter().flatten().copied().collect();
    write_out(
        &format!("e2e_{}.json", w.name),
        &format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"threads\": {threads}, \"quick\": {}, \
             \"repeats\": {}, \"fingerprint\": {}, \"state_hash\": {}, \"end_to_end\": {}, \
             \"runs\": {{\"setup_s\": {}, \"run_s\": {}, \"samples_per_s\": {}, \"cpu_s\": {}, \
             \"peak_rss_mb\": {}}}, \
             \"checks\": {}, \"attempted\": {}, \"failed\": {}}}\n",
            w.name,
            o.seed,
            o.quick,
            outcomes.len(),
            hex(first.fingerprint),
            first.state_hash.map_or("null".into(), hex),
            metrics_object(&present),
            num_array(&setups),
            num_array(&run_s),
            num_array(&rate),
            num_array(&cpu_runs),
            num_array(&rss_runs),
            checks_json(&checks),
            tally.attempted(&checks),
            tally.failed(&checks),
        ),
    )?;

    let mut printed = vec![
        ("threads", threads as f64, "count"),
        ("repeats", outcomes.len() as f64, "count"),
    ];
    printed.extend(present.iter().copied());
    Ok(finish(w.name, &printed, &contract, &checks, &tally))
}

/// `--trace 1`: one traced repeat and the layer pass.
fn traced_pass(w: &Workload, o: &Options) -> Result<ExitCode, String> {
    let threads = bench_threads();
    let inputs = Inputs::new(w.kind, o.seed, threads, o.quick);
    let rounds = inputs.cfg.rounds as f64;
    warm_up(&inputs)?;
    // The untraced side of `trace.overhead_pct`; never reported itself.
    let untraced = timed_repeats(&inputs, o.seconds / 2.0, 1)?.outcomes;
    let mut tally = Tally::default();
    untraced.iter().for_each(|out| tally.add(out));
    let untraced_run_s = median(&untraced.iter().map(|r| r.run_s).collect::<Vec<_>>());

    let tracer = Tracer::new();
    let setup_span = tracer.open("bench.setup", None);
    let ready = set_up(&inputs, Some(&tracer))?;
    tracer.close(setup_span);
    let alloc_before = ft_bench::allocated_bytes();
    let (traced, fin, progressive) = if inputs.fedtiny.is_some() {
        let (out, fin, log) = drive_fedtiny_composed(&inputs, ready, &tracer)?;
        (out, fin, Some(log))
    } else {
        let (out, fin) = drive(&inputs, ready, Some(&tracer))?;
        (out, fin, None)
    };
    let alloc_mb = (ft_bench::allocated_bytes() - alloc_before) as f64 / 1e6;
    tally.add(&traced);

    let mut checks = Vec::new();
    check(
        &mut checks,
        if inputs.fedtiny.is_some() {
            "composed_pipeline_equals_run_fedtiny_with"
        } else {
            "traced_equals_untraced"
        },
        untraced.iter().all(|u| u.fingerprint == traced.fingerprint),
        format!(
            "traced {:016x} untraced {:016x}",
            traced.fingerprint, untraced[0].fingerprint
        ),
    );
    check_density(&inputs, &traced, &mut checks);
    // The twin's own round spans are the base of `tcp_overhead_ms`.
    let twin_tracer = (inputs.via == Via::Tcp).then(Tracer::new);
    if twin_tracer.is_some() {
        check_tcp_twin(
            &inputs,
            &traced,
            twin_tracer.as_ref(),
            &mut checks,
            &mut tally,
        );
    }

    let mut v = layers::layer_pass(&inputs, &fin, &tracer);
    let spans = tracer.spans();
    let total_ms = |name: &str| durations_ms(&spans, name).iter().sum::<f64>();
    let run_ms = traced.run_s * 1e3;

    v.insert("fl.env.new_ms", total_ms("fl.env.new"));
    v.insert("nn.build_ms", total_ms("nn.build"));
    v.insert("fl.transport.accept_ms", total_ms("fl.transport.accept"));

    let pool_ms = total_ms("fedtiny.selection.pool");
    let select_ms = total_ms("fedtiny.selection.select");
    let candidates = inputs.fedtiny.map_or(1, |ft| ft.pool_size.max(1)) as f64;
    v.insert("fedtiny.selection.pool_ms", pool_ms);
    v.insert("fedtiny.selection.select_ms", select_ms);
    v.insert("fedtiny.selection.candidate_ms", select_ms / candidates);
    v.insert("fedtiny.selection.share", (pool_ms + select_ms) / run_ms);

    let adjusts = durations_ms(&spans, "fedtiny.progressive.adjust");
    let adjust_ms: f64 = adjusts.iter().sum();
    let log = progressive.unwrap_or_default();
    v.insert(
        "fedtiny.progressive.adjust_ms_p50",
        if adjusts.is_empty() {
            0.0
        } else {
            median(&adjusts)
        },
    );
    v.insert("fedtiny.progressive.adjust_calls", adjusts.len() as f64);
    v.insert("fedtiny.progressive.grown_total", log.grown_total as f64);
    v.insert(
        "fedtiny.progressive.topk_buffer_max",
        log.topk_buffer_max as f64,
    );
    v.insert("fedtiny.progressive.share", adjust_ms / run_ms);

    let round_ms = durations_ms(&spans, "fl.server.round");
    let round_p50 = median(&round_ms);
    // Mean server time per round, the last hook and evaluation included.
    let round_mean = total_ms("fl.server.run") / rounds;
    v.insert("fl.server.round_ms_mean", round_mean);
    let tail_pct = tail_percentile(round_ms.len());
    v.insert("fl.server.round_ms_p50", round_p50);
    v.insert(
        "fl.server.round_ms_tail",
        quantile(&round_ms, tail_pct / 100.0),
    );
    v.insert("fl.server.round_tail_pct", tail_pct);
    v.insert("fl.server.round_samples", round_ms.len() as f64);
    v.insert("fl.server.alloc_mb_per_round", alloc_mb / rounds);

    // What one server round should cost on average, from the layers
    // measured alone: its cohort's training (encode included) spread over
    // the threads that train side by side, the frame boundary where there
    // is one, the aggregation, and its share of the hook calls and
    // evaluations. The rest of the mean round is unattributed.
    let step_devices = inputs.devices_per_step() as f64;
    let device_mean_ms =
        v.remove("fl.train.device_ms_sum").unwrap_or(0.0) / inputs.cfg.devices as f64;
    let train_ms = device_mean_ms * step_devices / inputs.train_parallelism() as f64;
    let frames_ms = if inputs.via == Via::Calls {
        0.0
    } else {
        step_devices * (v["sparse.to_bytes_us"] + v["sparse.parse_us"]) / 1e3
    };
    let attributed = train_ms
        + frames_ms
        + v["fl.aggregate.into_us"] / 1e3
        + adjust_ms / rounds
        + v["nn.eval_ms"] * traced.evals as f64 / rounds;
    v.insert("fl.train.share", train_ms / round_mean);
    v.insert("fl.server.unattributed_ms", round_mean - attributed);
    v.insert(
        "fl.server.unattributed_share",
        (round_mean - attributed) / round_mean,
    );
    v.insert("fl.server.accuracy", traced.accuracy as f64);
    v.insert(
        "fl.server.fail_share",
        tally.failed(&checks) as f64 / tally.attempted(&checks).max(1) as f64,
    );

    v.insert(
        "fl.transport.tcp_overhead_ms",
        twin_tracer.map_or(0.0, |twin| {
            round_p50 - median(&durations_ms(&twin.spans(), "fl.server.round"))
        }),
    );
    v.insert(
        "fl.transport.wire_bytes_down",
        fin.ledger.payload_down_history().iter().sum(),
    );
    v.insert(
        "fl.transport.wire_bytes_up",
        fin.ledger.payload_up_history().iter().sum(),
    );
    v.insert(
        "trace.overhead_pct",
        (traced.run_s - untraced_run_s) / untraced_run_s * 100.0,
    );
    v.insert("trace.spans", spans.len() as f64);
    v.insert("trace.dropped_spans", tracer.dropped() as f64);
    v.insert("trace.run_s", traced.run_s);

    let per_layer: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = *v
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (name, value, unit)
        })
        .collect();

    let trace_path = write_out(
        &format!("trace_{}.json", w.name),
        &trace::to_json(w.name, o.seed, threads, &tracer),
    )?;
    write_out(
        &format!("layers_{}.json", w.name),
        &format!("{}\n", metrics_object(&per_layer)),
    )?;

    let run_root = spans
        .iter()
        .position(|s| s.name == "bench.run")
        .ok_or("traced run recorded no bench.run span")?;
    println!(
        "{} self time by layer over the traced run ({:.1} ms, {} rounds of {:.1} ms p50):",
        w.name,
        run_ms,
        round_ms.len(),
        round_p50
    );
    for (layer, ms) in self_ms_by_layer(&spans, run_root) {
        println!(
            "{}   {layer:<22} {ms:>10.2} ms {:>6.1} %",
            w.name,
            ms / run_ms * 100.0
        );
    }
    println!(
        "{}   unattributed_share {:.3}   trace.overhead_pct {:.2}   ({})",
        w.name,
        v["fl.server.unattributed_share"],
        v["trace.overhead_pct"],
        trace_path.display()
    );
    Ok(finish(w.name, &per_layer, &per_layer, &checks, &tally))
}

fn run_pass(o: &Options) -> ExitCode {
    let name = o.workload.as_deref().expect("caller checked --workload");
    let w = workload_named(name).expect("parse_flags checked the name");
    let result = if o.trace {
        traced_pass(w, o)
    } else {
        end_to_end_pass(w, o)
    };
    result.unwrap_or_else(|e| {
        // A run that returns `Err` is a failed operation; without its
        // numbers there is no result line to print.
        eprintln!("{name}: {e}");
        ExitCode::FAILURE
    })
}

/// `all`: one child process per workload and pass, so peak RSS and CPU time
/// are per workload; their detail files are joined into `result.json`.
fn run_all(o: &Options) -> Result<(PathBuf, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut entries = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| o.workload.as_deref().is_none_or(|name| name == w.name))
    {
        println!("# {}: {}", w.name, w.why);
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()]);
            if o.quick {
                cmd.arg("--quick");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                eprintln!("{}: --trace {trace} pass failed ({status})", w.name);
                all_ok = false;
            }
        }
        let read = |file: String| {
            let path = out_dir().join(file);
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
        };
        let e2e = read(format!("e2e_{}.json", w.name))?;
        let layers = read(format!("layers_{}.json", w.name))?;
        let e2e = e2e
            .trim_end()
            .strip_suffix('}')
            .ok_or("end-to-end detail file is not a JSON object")?;
        entries.push(format!(
            "\"{}\": {e2e}, \"per_layer\": {}}}",
            w.name,
            layers.trim_end()
        ));
    }
    let path = write_out(
        "result.json",
        &format!(
            "{{\"schema\": 1, \"quick\": {}, \"seed\": {}, \"seconds\": {}, \"threads\": {}, \
             \"claim\": null, \"workloads\": {{\n{}\n}}}}\n",
            o.quick,
            o.seed,
            num(o.seconds),
            bench_threads(),
            entries.join(",\n")
        ),
    )?;
    println!("wrote {}", path.display());
    Ok((path, all_ok))
}

fn load(path: &Path) -> Result<report::Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    report::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (rows, notes) = report::compare(&load(a)?, &load(b)?)?;
    print!("{}", report::render_compare(&rows, &notes));
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &rows {
        *counts.entry(r.verdict.name()).or_default() += 1;
    }
    println!("{counts:?}");
    let regressed = rows.iter().any(|r| r.verdict == Verdict::Regressed);
    Ok(if regressed || !notes.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run_selfcheck(o: &Options) -> Result<ExitCode, String> {
    let mut sides = Vec::new();
    let mut all_ok = true;
    for side in ["a", "b"] {
        let (result, ok) = run_all(o)?;
        all_ok &= ok;
        let kept = result.with_file_name(format!("result_{side}.json"));
        std::fs::rename(&result, &kept).map_err(|e| format!("rename result: {e}"))?;
        sides.push(kept);
    }
    let compared = run_compare(&sides[0], &sides[1])?;
    Ok(if all_ok { compared } else { ExitCode::FAILURE })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ftbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       \
         ftbench all [--seed N] [--seconds S] [--workload name] [--quick]\n       \
         ftbench compare A.json B.json\n       \
         ftbench selfcheck [--seed N] [--seconds S]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("all" | "compare" | "selfcheck")) => (c, &args[1..]),
        _ => ("pass", &args[..]),
    };
    let outcome = match command {
        "compare" => match rest {
            [a, b] => run_compare(Path::new(a), Path::new(b)),
            _ => return usage(),
        },
        _ => parse_flags(rest).and_then(|o| match command {
            "all" => run_all(&o).map(|(_, ok)| {
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            "selfcheck" => run_selfcheck(&o),
            _ if o.workload.is_some() => Ok(run_pass(&o)),
            _ => Err("no workload named".into()),
        }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ftbench: {e}");
        usage()
    })
}

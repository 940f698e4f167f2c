//! Fleet commands: `ft run`, `ft serve`, `ft device`, `ft resume`.
//!
//! One knob surface over seeded preset fleets: an in-process run, the
//! straggler preset's scheduler comparison, a TCP server (with real device
//! processes or loopback client threads) and the in-process reference twin
//! its final model is asserted bit-identical to. Every one of those runs
//! goes through one call, `run_fleet`, which also makes the one choice
//! between the plain and the adversarial in-process transport.
//! `ft run --method` is not a fleet command: it runs one experiment of the
//! paper's evaluation ([`crate::experiment`]).

use crate::args::{die, Args};
use ft_bench::claims::makespan_order;
use ft_data::{DatasetProfile, SynthConfig};
use ft_fl::{
    fleet_spread_deadline, no_hook, resolve_threads, run_byzantine_tcp_device, run_tcp_device,
    run_with, AdversarialTransport, Aggregator, Behavior, Codec, ConfigError, CostLedger,
    DeviceProfile, ExperimentEnv, FlConfig, InProcess, MetricsEndpoint, MetricsHub, ModelSpec,
    RunOptions, RunResult, Scheduler, TcpTransport, TimelineEvent, Transport,
};
use ft_metrics::ExtraMemory;
use ft_nn::{flat_params, sparse_layout, Model};
use ft_sparse::Mask;
use std::net::TcpListener;
use std::sync::Arc;

/// Seed of the demo/serve/device environments — shared with the in-process
/// reference twin so the bit-identity assertion is meaningful.
const DEMO_SEED: u64 = 23;
/// Seed of the straggler preset's heterogeneous fleet.
const STRAGGLER_SEED: u64 = 17;
/// Seed of the lab preset (matches the benchmark harness).
const LAB_SEED: u64 = 0;
/// Seed of the adversary's corruption streams — shared by TCP clients and
/// the in-process twin so both produce identical hostile bytes.
const ADV_SEED: u64 = 4242;

#[derive(Clone, Copy, PartialEq)]
enum Preset {
    Demo,
    Straggler,
    Lab,
}

impl Preset {
    fn name(self) -> &'static str {
        match self {
            Preset::Demo => "demo",
            Preset::Straggler => "straggler",
            Preset::Lab => "lab",
        }
    }
}

/// The knob surface shared by every fleet command.
#[derive(Clone)]
struct FleetOptions {
    preset: Preset,
    devices: usize,
    rounds: usize,
    codec: Codec,
    aggregator: Aggregator,
    byzantine: Vec<(usize, Behavior)>,
    threads: usize,
    checkpoint: Option<String>,
    resume: bool,
    halt_after: Option<usize>,
    metrics: Option<String>,
    no_verify: bool,
}

/// The options the fleet subcommands parse: `ft run` and `ft resume`
/// accept exactly these.
pub const RUN_FLAGS: &[&str] = &[
    "--preset",
    "--devices",
    "--rounds",
    "--codec",
    "--aggregator",
    "--byzantine",
    "--threads",
    "--checkpoint",
    "--resume",
    "--halt-after",
    "--metrics",
    "--no-verify",
];

/// `ft serve`'s options: the shared ones and its two modes.
pub const SERVE_FLAGS: &[&str] = &[
    "--preset",
    "--devices",
    "--rounds",
    "--codec",
    "--aggregator",
    "--byzantine",
    "--threads",
    "--checkpoint",
    "--resume",
    "--halt-after",
    "--metrics",
    "--no-verify",
    "--listen",
    "--demo",
];

/// `ft device`'s options: the shared ones and where to connect as whom.
pub const DEVICE_FLAGS: &[&str] = &[
    "--preset",
    "--devices",
    "--rounds",
    "--codec",
    "--aggregator",
    "--byzantine",
    "--threads",
    "--checkpoint",
    "--resume",
    "--halt-after",
    "--metrics",
    "--no-verify",
    "--connect",
    "--device",
];

impl FleetOptions {
    /// Parses the shared flags. `tcp` selects the TCP codec policy: `top_k`
    /// defaults to error feedback ON, but error-feedback residuals live on
    /// the device and cannot be rolled back over a remote transport (the
    /// server refuses the combination) — TCP ends therefore run the
    /// stateless variant.
    fn parse(a: &Args<'_>, tcp: bool) -> FleetOptions {
        let preset = match a.get("--preset") {
            None => Preset::Demo,
            Some("demo") => Preset::Demo,
            Some("straggler") => Preset::Straggler,
            Some("lab") => Preset::Lab,
            Some(other) => die(&format!(
                "unknown preset {other:?}; expected demo | straggler | lab"
            )),
        };
        let devices = match preset {
            Preset::Straggler => 6,
            Preset::Lab => ft_bench::Scale::new(ft_bench::ScaleKind::Lab).devices,
            Preset::Demo => a.get_parse("--devices").unwrap_or(4),
        };
        let default_rounds = match preset {
            Preset::Straggler => 8,
            Preset::Lab => ft_bench::Scale::new(ft_bench::ScaleKind::Lab).rounds,
            Preset::Demo => 6,
        };
        let codec = match a.get("--codec") {
            None => Codec::Dense,
            Some(name) => match Codec::from_name(name) {
                Some(Codec::TopK { k_frac, .. }) if tcp => Codec::TopK {
                    k_frac,
                    error_feedback: false,
                },
                Some(codec) => codec,
                None => die(&format!(
                    "unknown codec {name:?}; expected dense | mask_csr | quant_int8 | top_k"
                )),
            },
        };
        let aggregator = match a.get("--aggregator") {
            None => Aggregator::FedAvg,
            Some(name) => Aggregator::from_name(name).unwrap_or_else(|| {
                die(&format!(
                    "unknown aggregator {name:?}; expected fedavg | trimmed_mean[:beta] | \
                     median | norm_clipped[:tau]"
                ))
            }),
        };
        let byzantine: Vec<(usize, Behavior)> = a
            .get_all("--byzantine")
            .iter()
            .map(|spec| {
                let parsed = spec.split_once(':').and_then(|(dev, behavior)| {
                    Some((dev.parse::<usize>().ok()?, Behavior::from_name(behavior)?))
                });
                match parsed {
                    Some((device, _)) if device >= devices => die(&format!(
                        "--byzantine device {device} out of range (fleet has {devices})"
                    )),
                    Some(pair) => pair,
                    None => die(&format!(
                        "bad --byzantine spec {spec:?}; expected device:behavior, e.g. \
                         1:sign_flip:8, 3:garbage, 2:replay, 0:handshake_drop"
                    )),
                }
            })
            .collect();
        FleetOptions {
            preset,
            devices,
            rounds: a.get_parse("--rounds").unwrap_or(default_rounds),
            codec,
            aggregator,
            byzantine,
            threads: a.get_parse("--threads").unwrap_or(0),
            checkpoint: a.get("--checkpoint").map(String::from),
            resume: a.has("--resume"),
            halt_after: a.get_parse("--halt-after"),
            metrics: a.get("--metrics").map(String::from),
            no_verify: a.has("--no-verify"),
        }
    }

    /// Per-device behavior table (`Honest` default, overridden by
    /// `--byzantine device:behavior` entries).
    fn behaviors(&self) -> Vec<Behavior> {
        let mut table = vec![Behavior::Honest; self.devices];
        for &(device, behavior) in &self.byzantine {
            table[device] = behavior;
        }
        table
    }

    fn hostile(&self) -> bool {
        !self.byzantine.is_empty()
    }

    /// The environment every end of this fleet derives from the preset's
    /// seed — synthetic datasets are pure functions of it, so no training
    /// data ever crosses a wire, only snapshots and update deltas. A config
    /// the environment rejects (e.g. `--devices 0`) is its typed error.
    fn build_env(&self, scheduler: Option<Scheduler>) -> Result<ExperimentEnv, ConfigError> {
        let (synth, mut cfg) = match self.preset {
            Preset::Lab => {
                let scale = ft_bench::Scale::new(ft_bench::ScaleKind::Lab);
                (
                    scale.synth(DatasetProfile::Cifar10, LAB_SEED),
                    scale.fl_config(LAB_SEED),
                )
            }
            preset => {
                let seed = if preset == Preset::Straggler {
                    STRAGGLER_SEED
                } else {
                    DEMO_SEED
                };
                let synth = SynthConfig {
                    profile: DatasetProfile::Cifar10,
                    train_per_class: 12,
                    test_per_class: 8,
                    resolution: 8,
                    channels: 3,
                    seed,
                };
                let mut cfg = FlConfig::bench_default();
                cfg.local_epochs = 1;
                cfg.seed = seed;
                (synth, cfg)
            }
        };
        cfg.devices = self.devices;
        cfg.rounds = self.rounds;
        cfg.codec = self.codec;
        cfg.aggregator = self.aggregator;
        cfg.threads = self.threads;
        let env = ExperimentEnv::try_new(synth, cfg)?;
        let env = match self.preset {
            Preset::Straggler => env.with_fleet(DeviceProfile::fleet_mixed(self.devices)),
            _ => env,
        };
        Ok(match scheduler {
            Some(s) => env.with_scheduler(s),
            None => env,
        })
    }

    /// [`FleetOptions::build_env`], or exit 2 with the config error.
    fn env(&self, scheduler: Option<Scheduler>) -> ExperimentEnv {
        self.build_env(scheduler)
            .unwrap_or_else(|e| die(&format!("invalid fleet config: {e}")))
    }

    fn model_spec(&self) -> ModelSpec {
        match self.preset {
            Preset::Lab => ft_bench::Scale::new(ft_bench::ScaleKind::Lab).small_cnn(),
            _ => ModelSpec::SmallCnn { width: 4, input: 8 },
        }
    }

    /// The `--byzantine` table as the run headers print it, `-` when clean.
    fn byzantine_label(&self) -> String {
        if self.byzantine.is_empty() {
            return "-".to_string();
        }
        self.byzantine
            .iter()
            .map(|(d, b)| format!("{d}:{}", b.name()))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Self-describing run header (transport, codec, aggregator,
    /// adversaries, checkpoint path).
    fn print_header(&self, transport: &str) {
        println!(
            "transport: {transport} | codec: {} | aggregator: {} | byzantine: {} | \
             devices: {} | rounds: {} | checkpoint: {}{}",
            self.codec.name(),
            self.aggregator.name(),
            self.byzantine_label(),
            self.devices,
            self.rounds,
            self.checkpoint.as_deref().unwrap_or("-"),
            if self.resume { " (resume)" } else { "" },
        );
    }
}

/// Starts the metrics endpoint when `--metrics <addr>` was given. The
/// returned endpoint owns the listener thread; dropping it stops serving.
fn start_metrics(opts: &FleetOptions) -> Option<(Arc<MetricsHub>, MetricsEndpoint)> {
    let addr = opts.metrics.as_deref()?;
    let hub = MetricsHub::new();
    match hub.serve(addr) {
        Ok(endpoint) => {
            println!("metrics: serving on {}", endpoint.local_addr());
            Some((hub, endpoint))
        }
        Err(e) => die(&format!("--metrics {addr}: {e}")),
    }
}

/// Publishes the process's allocation traffic per completed round. Only
/// meaningful in the `ft` binary (which installs the counting allocator);
/// in other hosts the counter stays 0 and the gauge stays "unmeasured".
fn publish_alloc(hub: Option<&Arc<MetricsHub>>, alloc_before: u64, rounds: usize) {
    let Some(hub) = hub else { return };
    let delta = ft_bench::allocated_bytes().saturating_sub(alloc_before);
    if delta > 0 && rounds > 0 {
        hub.set_alloc_bytes_per_round(delta as f64 / rounds as f64);
    }
}

/// One machine-readable line of the server's fault ledger — the CI
/// hostile-fleet job collects these as its quarantine-stats artifact.
fn print_quarantine_stats(aggregator: Aggregator, ledger: &CostLedger) {
    let f = ledger.faults();
    println!(
        "quarantine_stats: {{\"aggregator\":\"{}\",\"malformed_frames\":{},\"replays\":{},\
         \"disconnects\":{},\"inflated_samples\":{},\"clipped_updates\":{},\
         \"rejected_handshakes\":{},\"quarantined\":{}}}",
        aggregator.name(),
        f.malformed_frames,
        f.replays,
        f.disconnects,
        f.inflated_samples,
        f.clipped_updates,
        f.rejected_handshakes,
        ledger.quarantined_updates(),
    );
}

/// `ft run`: an in-process fleet. The straggler preset compares the three
/// round schedulers; demo and lab run once and print the shared summary.
pub fn cmd_run(argv: &[String]) -> i32 {
    run_in_process(&FleetOptions::parse(&Args::new(argv), false))
}

/// `ft resume`: shorthand for `ft run --resume`; the checkpoint is
/// mandatory (resuming without one would silently start fresh).
pub fn cmd_resume(argv: &[String]) -> i32 {
    let mut opts = FleetOptions::parse(&Args::new(argv), false);
    if opts.checkpoint.is_none() {
        die("ft resume requires --checkpoint <path>");
    }
    opts.resume = true;
    run_in_process(&opts)
}

fn run_in_process(opts: &FleetOptions) -> i32 {
    let metrics = start_metrics(opts);
    let hub = metrics.as_ref().map(|(h, _)| h);
    match opts.preset {
        Preset::Straggler => run_straggler(opts, hub),
        _ => run_single(opts, hub),
    }
}

/// The one run call of every fleet command: the preset's model, from a
/// ones mask, through `run_with` under `opts`' checkpoint, resume and halt
/// knobs, with the allocation gauge published to `hub`. Without a `tcp`
/// transport the fleet runs in-process — through the seeded adversary when
/// `--byzantine` names one. Either transport's rejected handshakes land in
/// the returned ledger, next to the accuracy history and the final model.
/// A run error exits 1.
fn run_fleet(
    opts: &FleetOptions,
    scheduler: Option<Scheduler>,
    mut tcp: Option<&mut TcpTransport>,
    hub: Option<&Arc<MetricsHub>>,
) -> (Vec<f32>, Box<dyn Model>, CostLedger) {
    let env = opts.env(scheduler);
    let mut model = env.build_model(&opts.model_spec());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut plain = InProcess;
    let mut adversarial = AdversarialTransport::new(InProcess, opts.behaviors(), ADV_SEED);
    let transport: &mut dyn Transport = match tcp.as_deref_mut() {
        Some(tcp) => tcp,
        None if opts.hostile() => &mut adversarial,
        None => &mut plain,
    };
    let alloc_before = ft_bench::allocated_bytes();
    let history = run_with(
        model.as_mut(),
        &mut mask,
        &env,
        0,
        &mut ledger,
        &mut no_hook(),
        RunOptions {
            transport,
            checkpoint: opts.checkpoint.as_ref().map(Into::into),
            resume: opts.resume,
            halt_after: opts.halt_after,
            hook_save: None,
            hook_load: None,
            presence: None,
            metrics: hub.cloned(),
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("ft: run failed: {e}");
        std::process::exit(1);
    });
    publish_alloc(hub, alloc_before, opts.rounds);
    ledger.record_handshake_faults(match tcp {
        Some(tcp) => tcp.handshake_faults(),
        None => adversarial.handshake_faults(),
    });
    (history, model, ledger)
}

/// One in-process run on the preset's environment; prints the uniform
/// run summary every method in the workspace reports.
fn run_single(opts: &FleetOptions, hub: Option<&Arc<MetricsHub>>) -> i32 {
    opts.print_header("in_process");
    let (history, model, ledger) = run_fleet(opts, None, None, hub);
    // Plain rounds never move the ones mask the run starts from.
    let result = RunResult::from_ledger(
        format!("run:{}", opts.preset.name()),
        history,
        &Mask::ones(&sparse_layout(model.as_ref())),
        &model.arch(),
        ExtraMemory::None,
        opts.codec.name(),
        &ledger,
    );
    println!("{}", result.format_summary());
    if opts.hostile() {
        print_quarantine_stats(opts.aggregator, &ledger);
    }
    if let Some(halted) = opts.halt_after {
        println!("halted after {halted} rounds — checkpoint saved");
    }
    0
}

/// The straggler comparison: the same fleet under the synchronous,
/// deadline and buffered schedulers, plus the buffered timeline excerpt
/// and the host-parallelism report.
fn run_straggler(opts: &FleetOptions, hub: Option<&Arc<MetricsHub>>) -> i32 {
    let resolved = resolve_threads(opts.threads);
    let deadline_secs = {
        let env = opts.env(Some(Scheduler::Synchronous));
        let model = env.build_model(&opts.model_spec());
        let densities = vec![1.0f32; sparse_layout(model.as_ref()).num_layers()];
        fleet_spread_deadline(&env, &model.arch(), &densities)
    };
    let policies = [
        Scheduler::Synchronous,
        Scheduler::Deadline { deadline_secs },
        Scheduler::Buffered { buffer_k: 3 },
    ];
    println!(
        "transport: in_process | wire codec: {} | aggregator: {} | byzantine: {} | \
         worker threads: {resolved} | checkpoint: {}{}",
        opts.codec.name(),
        opts.aggregator.name(),
        opts.byzantine_label(),
        opts.checkpoint
            .as_deref()
            .map(|p| format!("{p}.<scheduler>"))
            .unwrap_or_else(|| "-".into()),
        if opts.resume { " (resume)" } else { "" },
    );
    println!(
        "{:>12}  {:>6}  {:>14}  {:>10}  {:>8}  {:>7}  {:>10}",
        "scheduler", "top1", "sim_makespan_s", "zero_prog", "dropped", "stale", "upload_kb"
    );
    let mut buffered_timeline: Vec<TimelineEvent> = Vec::new();
    let mut sync_wall = None;
    let mut makespans = Vec::new();
    for policy in policies {
        let (top1, ledger, wall) = straggler_run(opts, policy, opts.threads, true, hub);
        makespans.push(ledger.sim_makespan_secs());
        if matches!(policy, Scheduler::Synchronous) {
            sync_wall = Some((wall, ledger.sim_makespan_secs()));
        }
        let max_stale = ledger
            .timeline()
            .iter()
            .map(|e| e.staleness)
            .max()
            .unwrap_or(0);
        println!(
            "{:>12}  {top1:>6.4}  {:>14.1}  {:>10}  {:>8}  {max_stale:>7}  {:>10.1}",
            policy.name(),
            ledger.sim_makespan_secs(),
            ledger.zero_progress_rounds(),
            ledger.dropped_updates(),
            ledger.total_payload_upload_bytes() / 1e3,
        );
        if opts.hostile() {
            let f = ledger.faults();
            println!(
                "{:>12}  quarantined {} (malformed {} | replays {} | disconnects {} | \
                 inflated {}), clipped {}, rejected handshakes {}",
                "", // aligns under the scheduler column
                ledger.quarantined_updates(),
                f.malformed_frames,
                f.replays,
                f.disconnects,
                f.inflated_samples,
                f.clipped_updates,
                f.rejected_handshakes,
            );
        }
        if matches!(policy, Scheduler::Buffered { .. }) {
            buffered_timeline = ledger.timeline().to_vec();
        }
    }

    println!("\nbuffered timeline (first 12 arrivals):");
    println!(
        "{:>7}  {:>6}  {:>9}  {:>10}  {:>7}  {:>5}",
        "device", "round", "start_s", "arrive_s", "applied", "stale"
    );
    for e in buffered_timeline.iter().take(12) {
        println!(
            "{:>7}  {:>6}  {:>9.1}  {:>10.1}  {:>7}  {:>5}",
            e.device, e.round, e.start_secs, e.finish_secs, e.applied, e.staleness
        );
    }
    println!("\ndeadline: {deadline_secs:.1} simulated seconds per round");
    let [synchronous, deadline, buffered] = [0, 1, 2].map(|i| makespans[i]);
    println!("{}", makespan_order(synchronous, deadline, buffered));

    // Host-parallelism report: rerun the synchronous fleet single-threaded
    // and compare wall clocks. The *simulated* makespan must be identical
    // bit-for-bit — the runtime only changes how fast the host computes it.
    if resolved > 1 {
        let (wall_n, sim_n) = sync_wall.expect("synchronous policy ran");
        // The thread-count rerun never touches the checkpoint files: a
        // resumed run would skip the rounds this comparison measures.
        let (_, ledger_1, wall_1) = straggler_run(opts, Scheduler::Synchronous, 1, false, None);
        assert_eq!(
            ledger_1.sim_makespan_secs().to_bits(),
            sim_n.to_bits(),
            "simulated makespan drifted across thread counts"
        );
        println!(
            "\nhost speedup (synchronous round loop): {:.2}x at {resolved} threads \
             ({:.0} ms -> {:.0} ms; sim makespan identical at {:.1}s)",
            wall_1 / wall_n.max(f64::MIN_POSITIVE),
            wall_1 * 1e3,
            wall_n * 1e3,
            sim_n,
        );
    }
    0
}

/// One scheduler's run for the straggler comparison; returns the final
/// accuracy, the ledger, and the host wall-clock of the run.
fn straggler_run(
    opts: &FleetOptions,
    scheduler: Scheduler,
    threads: usize,
    durable: bool,
    hub: Option<&Arc<MetricsHub>>,
) -> (f32, CostLedger, f64) {
    let sub = FleetOptions {
        threads,
        // Each policy saves to its own `<path>.<scheduler>` file so the
        // three runs never collide.
        checkpoint: opts
            .checkpoint
            .as_ref()
            .filter(|_| durable)
            .map(|p| format!("{p}.{}", scheduler.name())),
        halt_after: None,
        ..opts.clone()
    };
    let started = std::time::Instant::now();
    let (history, _, ledger) = run_fleet(&sub, Some(scheduler), None, hub);
    let wall = started.elapsed().as_secs_f64();
    (*history.last().expect("nonempty history"), ledger, wall)
}

/// `ft serve`: the federation server end of a TCP fleet, either accepting
/// real devices (`--listen addr`) or spinning up a loopback demo fleet of
/// client threads. By default the final model is asserted bit-identical to
/// the in-process reference run of the same seed (`--no-verify` skips it).
pub fn cmd_serve(argv: &[String]) -> i32 {
    let a = Args::new(argv);
    let opts = FleetOptions::parse(&a, true);
    if opts.preset != Preset::Demo {
        die("ft serve runs the demo environment; --preset is not accepted here");
    }
    let metrics = start_metrics(&opts);
    let hub = metrics.as_ref().map(|(h, _)| h);
    let (mut transport, clients) = match a.get("--listen") {
        Some(addr) => {
            opts.print_header("tcp (server)");
            println!(
                "listening on {addr}, waiting for {} devices...",
                opts.devices
            );
            let transport = TcpTransport::listen(addr, opts.devices)
                .unwrap_or_else(|e| die(&format!("listen failed: {e}")));
            (transport, Vec::new())
        }
        None => {
            opts.print_header("tcp (demo: server + client threads)");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
            let addr = listener.local_addr().expect("local addr");
            println!("loopback fleet on {addr}");
            let behaviors = opts.behaviors();
            let clients: Vec<_> = (0..opts.devices)
                .map(|k| {
                    let behavior = behaviors[k];
                    let env = opts.env(None);
                    let spec = opts.model_spec();
                    std::thread::spawn(move || {
                        match behavior {
                            Behavior::Honest => run_tcp_device(addr, k, &env, &spec),
                            hostile => {
                                run_byzantine_tcp_device(addr, k, &env, &spec, hostile, ADV_SEED)
                            }
                        }
                        .unwrap_or_else(|e| panic!("device {k} failed: {e}"));
                    })
                })
                .collect();
            let transport = TcpTransport::accept_fleet(&listener, opts.devices)
                .unwrap_or_else(|e| die(&format!("accept failed: {e}")));
            (transport, clients)
        }
    };
    let tcp = run_fleet(&opts, None, Some(&mut transport), hub);
    for c in clients {
        c.join().expect("client thread");
    }
    assert_matches_reference(tcp, &opts);
    0
}

/// `ft device`: one TCP device (honest or, when listed in `--byzantine`,
/// misbehaving) against a server started with `ft serve --listen`.
pub fn cmd_device(argv: &[String]) -> i32 {
    let a = Args::new(argv);
    let opts = FleetOptions::parse(&a, true);
    let Some(addr) = a.get("--connect") else {
        die("ft device requires --connect <addr>");
    };
    let Some(device) = a.get_parse::<usize>("--device") else {
        die("ft device requires --device <k>");
    };
    opts.print_header("tcp (device)");
    let env = opts.env(None);
    let behavior = opts
        .byzantine
        .iter()
        .find(|(d, _)| *d == device)
        .map(|(_, b)| *b)
        .unwrap_or(Behavior::Honest);
    let result = match behavior {
        Behavior::Honest => run_tcp_device(addr, device, &env, &opts.model_spec()),
        hostile => {
            run_byzantine_tcp_device(addr, device, &env, &opts.model_spec(), hostile, ADV_SEED)
        }
    };
    if let Err(e) = result {
        eprintln!("ft: device {device} failed: {e}");
        return 1;
    }
    println!("device {device}: done ({})", behavior.name());
    0
}

/// Compares the TCP run against the in-process reference run of the same
/// seed and exits non-zero on any drift. A hostile reference replays the
/// same adversary schedule through [`AdversarialTransport`], so it
/// quarantines the identical bytes the TCP server saw. Skipped for halted
/// (checkpoint-partial) runs and under `--no-verify`.
fn assert_matches_reference(tcp: (Vec<f32>, Box<dyn Model>, CostLedger), opts: &FleetOptions) {
    let (history, model, ledger) = tcp;
    let top1 = history.last().copied().unwrap_or(f32::NAN);
    if let Some(halted) = opts.halt_after {
        println!("halted after {halted} rounds — checkpoint saved, reference comparison skipped");
        return;
    }
    if opts.no_verify {
        println!(
            "tcp top1 {top1:.4} ({:.1} simulated seconds, {:.1} KB measured uploads; \
             reference comparison skipped by --no-verify)",
            ledger.sim_makespan_secs(),
            ledger.total_payload_upload_bytes() / 1e3,
        );
        if opts.hostile() {
            print_quarantine_stats(opts.aggregator, &ledger);
        }
        return;
    }
    // The reference never touches the checkpoint: resuming the TCP run's
    // final one would compare the run with itself.
    let in_process = FleetOptions {
        checkpoint: None,
        ..opts.clone()
    };
    let (ref_history, ref_model, ref_ledger) = run_fleet(&in_process, None, None, None);
    let ref_top1 = ref_history.last().copied().unwrap_or(f32::NAN);
    let ref_params = flat_params(ref_model.as_ref());
    let drifted = flat_params(model.as_ref())
        .iter()
        .zip(&ref_params)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    println!(
        "tcp top1 {top1:.4} | in_process top1 {ref_top1:.4} | parameter drift: {drifted}/{} \
         coordinates",
        ref_params.len(),
    );
    assert_eq!(
        drifted, 0,
        "TCP run diverged from the in-process run — the byte boundary changed the math"
    );
    assert_eq!(top1.to_bits(), ref_top1.to_bits(), "accuracy drifted");
    if opts.hostile() {
        assert_eq!(
            ledger.faults(),
            ref_ledger.faults(),
            "TCP quarantine counters diverged from the in-process adversary twin"
        );
        print_quarantine_stats(opts.aggregator, &ledger);
    }
    println!(
        "ok: final aggregated model is bit-identical across the TCP byte boundary \
         ({:.1} simulated seconds, {:.1} KB measured uploads)",
        ledger.sim_makespan_secs(),
        ledger.total_payload_upload_bytes() / 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fleet config the environment rejects is its typed error, which the
    /// commands turn into exit 2 — not a panic inside `ExperimentEnv::new`.
    #[test]
    fn invalid_fleet_configs_are_typed_errors() {
        for (line, want) in [
            ("--devices 0", ConfigError::NoDevices),
            (
                "--aggregator trimmed_mean:0.7",
                ConfigError::BadTrimFraction { beta: 0.7 },
            ),
            (
                "--threads 5000",
                ConfigError::TooManyThreads { threads: 5000 },
            ),
        ] {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            let opts = FleetOptions::parse(&Args::new(&argv), false);
            assert_eq!(opts.build_env(None).err(), Some(want), "{line}");
        }
    }
}

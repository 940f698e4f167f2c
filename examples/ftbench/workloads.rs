//! The four workloads: their generated inputs, their set-up, and the two
//! ways each is driven — plain (timed repeats) and traced.
//!
//! Only public constructors, field assignment and free functions of the
//! crates are used; the benchmark implements none of their traits.

use crate::measure::{process_cpu_secs, BitFold};
use crate::trace::Tracer;
use fedtiny::progressive::progressive_adjust;
use fedtiny::{
    adaptive_bn_selection, generate_candidate_pool, run_fedtiny_with, FedTinyConfig,
    FedTinyRunOptions, SelectionConfig,
};
use ft_data::{DatasetProfile, SynthConfig};
use ft_fl::{
    run_tcp_devices, run_with, Aggregator, Codec, CostLedger, DeviceProfile, ExperimentEnv,
    FlConfig, InProcess, ModelSpec, RunOptions, RunResult, Scheduler, SimTime, TcpTransport,
    Transport,
};
use ft_nn::{apply_mask, flat_params, sparse_layout, Model};
use ft_sparse::Mask;
use std::cell::{Cell, RefCell};
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    FedtinySparse,
    DenseTrain,
    WideFleetTcp,
    BufferedFleet,
}

/// How device updates reach the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Via {
    /// Function calls (`InProcess`).
    Calls,
    /// In-memory frames (`SimTime`).
    Frames,
    /// Loopback sockets (`TcpTransport` + `run_tcp_devices`).
    Tcp,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
}

/// Name and one-line reason of every workload; `BENCHMARK.json` repeats
/// them and a unit test keeps the two in step.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::FedtinySparse,
        name: "fedtiny_sparse",
        why: "The paper's pipeline at d=0.05: the only workload with selection, progressive \
              pruning, CSR spmm/sddmm and sparse dispatch on the critical path.",
    },
    Workload {
        kind: Kind::DenseTrain,
        name: "dense_train",
        why: "Same data, fleet and ResNet18 under an all-ones mask and Dense codec: dense \
              GEMM/im2col/BN training only, the control for every sparse-path change.",
    },
    Workload {
        kind: Kind::WideFleetTcp,
        name: "wide_fleet_tcp",
        why: "128 devices with ~4 samples each over loopback TCP: frames, socket I/O, \
              multiplexed Collect and per-device fixed cost dominate, compute does not.",
    },
    Workload {
        kind: Kind::BufferedFleet,
        name: "buffered_fleet",
        why: "64 mixed devices under the buffered event loop, TopK error feedback and \
              TrimmedMean over SimTime: the other scheduler, aggregator and codec path.",
    },
];

pub fn workload_named(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything a run is a function of. `seed` reaches `SynthConfig.seed` and
/// `FlConfig.seed` and nothing else.
#[derive(Clone, Copy)]
pub struct Inputs {
    pub via: Via,
    pub synth: SynthConfig,
    pub cfg: FlConfig,
    pub spec: ModelSpec,
    pub eval_every: usize,
    pub scheduler: Scheduler,
    pub mixed_fleet: bool,
    pub fedtiny: Option<FedTinyConfig>,
}

impl Inputs {
    /// Sizes are the issue's, with rounds cut so that three timed repeats
    /// fit the run budget on a 2-core host; `quick` quarters them again.
    pub fn new(kind: Kind, seed: u64, threads: usize, quick: bool) -> Self {
        let (resolution, train_per_class, devices, rounds, eval_every) = match kind {
            Kind::FedtinySparse => (16, 30, 6, 8, 4),
            Kind::DenseTrain => (16, 30, 6, 6, 3),
            Kind::WideFleetTcp => (8, 51, 128, 25, 0),
            Kind::BufferedFleet => (8, 60, 64, 75, 25),
        };
        let mut synth = SynthConfig::bench_default(DatasetProfile::Cifar10, seed);
        synth.resolution = resolution;
        synth.train_per_class = train_per_class;

        let mut cfg = FlConfig::bench_default();
        cfg.devices = devices;
        cfg.rounds = if quick { (rounds / 4).max(2) } else { rounds };
        cfg.local_epochs = 1;
        cfg.batch_size = 32;
        cfg.alpha = 0.5;
        cfg.participation = 1.0;
        cfg.seed = seed;
        // One server thread and one lockstep client thread: runnable
        // threads never exceed a 2-core host's.
        cfg.threads = if kind == Kind::WideFleetTcp {
            1
        } else {
            threads
        };
        cfg.codec = match kind {
            Kind::FedtinySparse => Codec::MaskCsr,
            Kind::DenseTrain | Kind::WideFleetTcp => Codec::Dense,
            Kind::BufferedFleet => Codec::TopK {
                k_frac: 0.1,
                error_feedback: true,
            },
        };
        if kind == Kind::BufferedFleet {
            cfg.aggregator = Aggregator::TrimmedMean { beta: 0.125 };
        }

        let spec = match kind {
            Kind::FedtinySparse | Kind::DenseTrain => ModelSpec::ResNet18 {
                width: 0.25,
                input: resolution,
            },
            Kind::WideFleetTcp | Kind::BufferedFleet => ModelSpec::SmallCnn {
                width: 16,
                input: resolution,
            },
        };
        let fedtiny = (kind == Kind::FedtinySparse).then(|| {
            let mut ft = FedTinyConfig::paper_default(spec, 0.05, cfg.local_epochs);
            ft.pool_size = 8;
            ft.codec = cfg.codec;
            ft.eval_every = eval_every;
            if let Some(p) = &mut ft.progressive {
                // Block granularity, backward order (the paper's choice)
                // on a schedule that fits the shortened run.
                p.schedule.delta_r = 2;
                p.schedule.r_stop = 6;
                p.start_round = 2;
            }
            ft
        });
        Inputs {
            via: match kind {
                Kind::FedtinySparse | Kind::DenseTrain => Via::Calls,
                Kind::WideFleetTcp => Via::Tcp,
                Kind::BufferedFleet => Via::Frames,
            },
            synth,
            cfg,
            spec,
            eval_every,
            scheduler: match kind {
                Kind::BufferedFleet => Scheduler::Buffered { buffer_k: 8 },
                _ => Scheduler::Synchronous,
            },
            mixed_fleet: kind == Kind::BufferedFleet,
            fedtiny,
        }
    }

    /// The discarded warm-up: same code paths, two rounds, two candidates.
    pub fn warm_up(&self) -> Self {
        let mut w = *self;
        w.cfg.rounds = 2;
        if let Some(ft) = &mut w.fedtiny {
            ft.pool_size = 2;
        }
        w
    }

    /// The in-process twin of the TCP workload: identical inputs, function
    /// calls instead of sockets.
    pub fn in_process_twin(&self) -> Self {
        let mut w = *self;
        w.via = Via::Calls;
        w
    }

    pub fn density_target(&self) -> Option<f32> {
        self.fedtiny.map(|ft| ft.d_target)
    }

    /// Devices whose updates one server step (a barrier round, or one
    /// buffered aggregation) consumes.
    pub fn devices_per_step(&self) -> usize {
        match self.scheduler {
            Scheduler::Buffered { buffer_k } => buffer_k.clamp(1, self.cfg.devices),
            _ => self.cfg.devices,
        }
    }

    /// Devices that train side by side inside one server step: the barrier
    /// fans a cohort out over the pool; the lockstep TCP client and the
    /// buffered loop's restarts train one device at a time.
    pub fn train_parallelism(&self) -> usize {
        match (self.via, self.scheduler) {
            (Via::Tcp, _) | (_, Scheduler::Buffered { .. }) => 1,
            _ => ft_fl::Runtime::new(self.cfg.threads).threads(),
        }
    }

    fn env(&self) -> ExperimentEnv {
        let env = ExperimentEnv::new(self.synth, self.cfg).with_scheduler(self.scheduler);
        if self.mixed_fleet {
            env.with_fleet(DeviceProfile::fleet_mixed(self.cfg.devices))
        } else {
            env
        }
    }
}

/// The client half of the TCP workload: one thread serving every device
/// socket in lockstep, on its own copy of the generated inputs.
struct TcpFleet {
    transport: TcpTransport,
    client: JoinHandle<Result<(), String>>,
}

/// A workload ready to run: what `setup_s` pays for.
pub struct Ready {
    pub env: ExperimentEnv,
    pub model: Box<dyn Model>,
    pub mask: Mask,
    tcp: Option<TcpFleet>,
    pub setup_s: f64,
}

/// Data synthesis, partition and model build — plus, for the TCP workload,
/// listener bind, client start and fleet accept.
pub fn set_up(inputs: &Inputs, tracer: Option<&Tracer>) -> Result<Ready, String> {
    let started = Instant::now();
    let env = span(tracer, "fl.env.new", || inputs.env());
    let model = span(tracer, "nn.build", || env.build_model(&inputs.spec));
    let mask = Mask::ones(&sparse_layout(model.as_ref()));
    let tcp = if inputs.via == Via::Tcp {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let client_inputs = *inputs;
        let client = std::thread::spawn(move || {
            let env = client_inputs.env();
            run_tcp_devices(
                addr,
                0..client_inputs.cfg.devices,
                &env,
                &client_inputs.spec,
            )
            .map_err(|e| format!("tcp client fleet: {e}"))
        });
        let transport = span(tracer, "fl.transport.accept", || {
            TcpTransport::accept_fleet(&listener, inputs.cfg.devices)
        })
        .map_err(|e| format!("accept_fleet: {e}"))?;
        Some(TcpFleet { transport, client })
    } else {
        None
    };
    Ok(Ready {
        env,
        model,
        mask,
        tcp,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

impl Ready {
    /// Drops a set-up that will not be run. The TCP client is blocked
    /// reading its first frame; hanging up ends it with an error nobody
    /// needs.
    pub fn discard(self) {
        if let Some(TcpFleet { transport, client }) = self.tcp {
            drop(transport);
            let _ = client.join();
        }
    }
}

/// What one run produced, reduced to what the metrics and checks need.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub run_s: f64,
    pub cpu_s: Option<f64>,
    pub accuracy: f32,
    pub wire_bytes: f64,
    /// Training samples processed: Σ over timeline events of the device's
    /// partition size × local epochs.
    pub samples: f64,
    pub events: u64,
    /// Updates the server quarantined as `Faulted`.
    pub faulted: u64,
    pub density: f32,
    /// Evaluations of the global model on the test split.
    pub evals: usize,
    /// Fold of everything a `RunResult` exposes bit-exactly (history,
    /// density, byte and FLOP totals, simulated makespan).
    pub fingerprint: u64,
    /// Fold of final parameters, mask and per-round payload histories;
    /// `None` for `run_fedtiny_with`, which returns none of them.
    pub state_hash: Option<u64>,
}

/// The end state of a run driven through `run_with`, kept for the layer
/// pass and the twin comparison.
pub struct Final {
    pub env: ExperimentEnv,
    pub model: Box<dyn Model>,
    pub mask: Mask,
    pub ledger: CostLedger,
}

/// What the bench-owned progressive hook saw.
#[derive(Clone, Debug, Default)]
pub struct ProgressiveLog {
    pub grown_total: usize,
    pub topk_buffer_max: usize,
    pub calls: usize,
}

fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, None, f),
        None => f(),
    }
}

/// `totals`: measured payload bytes, upload bytes, analytic bytes, extra
/// FLOPs, max analytic and max realized round FLOPs, simulated makespan.
fn fingerprint(history: &[f32], density: f32, totals: [f64; 7]) -> u64 {
    let mut fold = BitFold::default();
    fold.f32s(history);
    fold.u32(density.to_bits());
    fold.f64s(&totals);
    fold.0
}

fn state_hash(model: &dyn Model, mask: &Mask, ledger: &CostLedger) -> u64 {
    let mut fold = BitFold::default();
    fold.f32s(&flat_params(model));
    for l in 0..mask.num_layers() {
        fold.bools(mask.layer(l));
    }
    fold.f64s(ledger.payload_up_history());
    fold.f64s(ledger.payload_down_history());
    fold.0
}

fn outcome_from_ledger(
    run_s: f64,
    cpu_s: Option<f64>,
    history: &[f32],
    fin: &Final,
    local_epochs: usize,
) -> Outcome {
    let ledger = &fin.ledger;
    let density = fin.mask.density();
    let samples: usize = ledger
        .timeline()
        .iter()
        .map(|e| fin.env.parts[e.device].len() * local_epochs)
        .sum();
    Outcome {
        run_s,
        cpu_s,
        accuracy: history.last().copied().unwrap_or(f32::NAN),
        wire_bytes: ledger.total_payload_bytes(),
        samples: samples as f64,
        events: ledger.timeline().len() as u64,
        faulted: ledger.quarantined_updates(),
        density,
        evals: history.len(),
        fingerprint: fingerprint(
            history,
            density,
            [
                ledger.total_payload_bytes(),
                ledger.total_payload_upload_bytes(),
                ledger.total_comm_bytes(),
                ledger.extra_flops(),
                ledger.max_round_flops(),
                ledger.max_realized_round_flops(),
                ledger.sim_makespan_secs(),
            ],
        ),
        state_hash: Some(state_hash(fin.model.as_ref(), &fin.mask, ledger)),
    }
}

fn outcome_from_result(
    run_s: f64,
    cpu_s: Option<f64>,
    r: &RunResult,
    env: &ExperimentEnv,
) -> Outcome {
    // Synchronous full participation: every device trains every round, so
    // the timeline `run_fedtiny_with` does not return is known in advance.
    let events = env.cfg.devices * env.cfg.rounds;
    let samples = env.total_train_samples() * env.cfg.local_epochs * env.cfg.rounds;
    Outcome {
        run_s,
        cpu_s,
        accuracy: r.accuracy,
        wire_bytes: r.payload_comm_bytes,
        samples: samples as f64,
        events: events as u64,
        faulted: 0,
        density: r.final_density,
        evals: r.history.len(),
        fingerprint: fingerprint(
            &r.history,
            r.final_density,
            [
                r.payload_comm_bytes,
                r.payload_upload_bytes,
                r.comm_bytes,
                r.extra_flops,
                r.max_round_flops,
                r.realized_round_flops,
                r.sim_makespan_secs,
            ],
        ),
        state_hash: None,
    }
}

fn cpu_delta(before: Option<f64>) -> Option<f64> {
    Some(process_cpu_secs()? - before?)
}

/// One untraced run of the whole workload, as a user would start it:
/// `run_fedtiny_with` for the paper's pipeline, `run_with` for the rest.
pub fn run_plain(inputs: &Inputs, ready: Ready) -> Result<Outcome, String> {
    if let Some(ft) = &inputs.fedtiny {
        let cpu0 = process_cpu_secs();
        let started = Instant::now();
        let mut transport = InProcess;
        let result = run_fedtiny_with(&ready.env, ft, FedTinyRunOptions::new(&mut transport))
            .map_err(|e| format!("run_fedtiny_with: {e}"))?;
        let run_s = started.elapsed().as_secs_f64();
        return Ok(outcome_from_result(
            run_s,
            cpu_delta(cpu0),
            &result,
            &ready.env,
        ));
    }
    drive(inputs, ready, None).map(|(outcome, _)| outcome)
}

/// One run through `run_with`; with a tracer, one span per server round
/// (hook entry to hook entry) is recorded from the bench-owned hook.
pub fn drive(
    inputs: &Inputs,
    ready: Ready,
    tracer: Option<&Tracer>,
) -> Result<(Outcome, Final), String> {
    let Ready {
        env,
        mut model,
        mut mask,
        tcp,
        ..
    } = ready;
    let mut ledger = CostLedger::new();
    let cpu0 = process_cpu_secs();
    let started = Instant::now();
    let run_span = tracer.and_then(|t| t.open("bench.run", None));
    let _server_span = tracer.and_then(|t| t.open("fl.server.run", None));
    let round_span = Cell::new(tracer.and_then(|t| t.open("fl.server.round", Some(0))));
    let mut hook = |_: &mut dyn Model, _: &mut Mask, round: usize, _: &mut CostLedger| {
        if let Some(t) = tracer {
            t.close(round_span.get());
            round_span.set(t.open("fl.server.round", Some(round + 1)));
        }
        0.0
    };
    let (mut calls, mut frames) = (InProcess, SimTime);
    let (mut sockets, client) = match tcp {
        Some(TcpFleet { transport, client }) => (Some(transport), Some(client)),
        None => (None, None),
    };
    let transport: &mut dyn Transport = match (&mut sockets, inputs.via) {
        (Some(tcp), _) => tcp,
        (None, Via::Frames) => &mut frames,
        (None, _) => &mut calls,
    };
    let history = run_with(
        model.as_mut(),
        &mut mask,
        &env,
        inputs.eval_every,
        &mut ledger,
        &mut hook,
        RunOptions::new(transport),
    );
    // Hang up before joining, so a failed run cannot leave the client
    // blocked on a socket nobody will write to.
    drop(sockets);
    let client_result = client.map(|c| c.join());
    if let Some(t) = tracer {
        t.rename(round_span.get(), "fl.server.tail");
        t.close(run_span);
    }
    let run_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_delta(cpu0);
    let history = history.map_err(|e| format!("run_with: {e}"))?;
    match client_result {
        Some(Err(_)) => return Err("tcp client thread panicked".into()),
        Some(Ok(Err(e))) => return Err(e),
        _ => {}
    }
    let fin = Final {
        env,
        model,
        mask,
        ledger,
    };
    let outcome = outcome_from_ledger(run_s, cpu_s, &history, &fin, inputs.cfg.local_epochs);
    Ok((outcome, fin))
}

/// The paper's pipeline composed from its public stages — candidate pool,
/// adaptive-BN selection, `apply_mask`, `run_with` under a bench-owned hook
/// that calls `progressive_adjust` — with a span around every call. Must
/// stay bit-equal to `run_fedtiny_with`; the output checks compare the two.
pub fn drive_fedtiny_composed(
    inputs: &Inputs,
    ready: Ready,
    tracer: &Tracer,
) -> Result<(Outcome, Final, ProgressiveLog), String> {
    let ft = inputs.fedtiny.as_ref().ok_or("not the fedtiny workload")?;
    let Ready { env, mut model, .. } = ready;
    let cpu0 = process_cpu_secs();
    let started = Instant::now();
    let run_span = tracer.open("bench.run", None);

    let selection = SelectionConfig {
        d_target: ft.d_target,
        pool_size: ft.pool_size,
        noise_spread: ft.noise_spread,
        seed: env.cfg.seed,
    };
    let pool = tracer.span("fedtiny.selection.pool", None, || {
        generate_candidate_pool(model.as_ref(), &selection)
    });
    let chosen = tracer.span("fedtiny.selection.select", None, || {
        adaptive_bn_selection(model.as_ref(), &env, &pool)
    });
    let mut mask = chosen.mask.clone();
    tracer.span("nn.apply_mask", None, || apply_mask(model.as_mut(), &mask));
    let mut ledger = CostLedger::new();
    ledger.add_extra_flops(chosen.extra_flops);
    ledger.add_comm(chosen.comm_bytes);
    ledger.add_payload_comm(chosen.payload_bytes);

    let progressive = ft.progressive;
    let units = progressive.map(|p| p.units(model.as_ref(), mask.num_layers()));
    let log = RefCell::new(ProgressiveLog::default());
    let server_span = tracer.open("fl.server.run", None);
    let round_span = Cell::new(tracer.open("fl.server.round", Some(0)));
    let history = {
        let mut hook =
            |model: &mut dyn Model, mask: &mut Mask, round: usize, ledger: &mut CostLedger| {
                tracer.close(round_span.get());
                round_span.set(tracer.open("fl.server.round", Some(round + 1)));
                let (Some(pcfg), Some(units)) = (progressive.as_ref(), units.as_ref()) else {
                    return 0.0;
                };
                if round < pcfg.start_round || !pcfg.schedule.adjusts_at(round) {
                    return 0.0;
                }
                let mut log = log.borrow_mut();
                let unit = &units[log.calls % units.len()];
                let report = tracer.span("fedtiny.progressive.adjust", Some(round), || {
                    progressive_adjust(model, mask, &env, pcfg, unit, round)
                });
                if report.adjusted.is_empty() {
                    return 0.0;
                }
                log.calls += 1;
                log.grown_total += report.adjusted.iter().map(|&(_, a)| a).sum::<usize>();
                log.topk_buffer_max = log.topk_buffer_max.max(report.max_buffer);
                ledger.add_comm(report.comm_bytes);
                ledger.add_payload_comm(report.payload_bytes);
                report.extra_flops
            };
        let mut transport = InProcess;
        run_with(
            model.as_mut(),
            &mut mask,
            &env,
            ft.eval_every,
            &mut ledger,
            &mut hook,
            RunOptions::new(&mut transport),
        )
    };
    tracer.rename(round_span.get(), "fl.server.tail");
    tracer.close(server_span);
    tracer.close(run_span);
    let run_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_delta(cpu0);
    let history = history.map_err(|e| format!("run_with (composed fedtiny): {e}"))?;
    let fin = Final {
        env,
        model,
        mask,
        ledger,
    };
    let outcome = outcome_from_ledger(run_s, cpu_s, &history, &fin, inputs.cfg.local_epochs);
    Ok((outcome, fin, log.into_inner()))
}

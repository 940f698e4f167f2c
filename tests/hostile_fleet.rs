//! Hostile-fleet net: Byzantine devices, churn, and robust aggregation
//! under the wire-level fault-injection harness.
//!
//! Three fronts, all deterministic:
//!
//! - **Golden adversarial traces** — a seeded 10-device fleet with two
//!   Byzantine members (a sign-flipping poisoner and a garbage/replay
//!   alternator) plus one handshake-botching device, pinned byte-for-byte
//!   under `TrimmedMean` (`tests/golden/byzantine_trimmed_mean_trace.txt`)
//!   and under plain `FedAvg`
//!   (`tests/golden/byzantine_fedavg_trace.txt`), each with its quarantine
//!   footer. `TrimmedMean` must land within one accuracy point of the
//!   honest baseline while `FedAvg` takes at least `FEDAVG_DAMAGE_FLOOR`
//!   of pinned damage. Regenerate after an intentional change with
//!   `FT_BLESS=1 cargo test --test hostile_fleet`.
//! - **TCP ≡ in-process equivalence** — the same hostile fleet over real
//!   loopback sockets produces the bit-identical trace
//!   and the identical fault counters as its [`AdversarialTransport`]
//!   twin, and the server finishes every round without a panic.
//! - **Churn** — devices leaving and rejoining (from the live run's
//!   broadcast state) at every round boundary over TCP reproduce the
//!   uninterrupted in-process run with the same effective cohort, bit for
//!   bit; a device killed *mid-round* is quarantined as a disconnect, not
//!   a crash.

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fl::{
    no_hook, run_byzantine_tcp_device, run_churn_tcp_device, run_tcp_device, run_with,
    AdversarialTransport, Aggregator, Behavior, Codec, CostLedger, ExperimentEnv, FaultCounters,
    FlConfig, InProcess, ModelSpec, PresenceSchedule, RunOptions, TcpTransport,
};
use fedtiny_suite::nn::optim::SgdConfig;
use fedtiny_suite::nn::{flat_params, sparse_layout};
use fedtiny_suite::sparse::Mask;
use std::io::Write;
use std::net::{TcpListener, TcpStream};

const TRIMMED_MEAN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/byzantine_trimmed_mean_trace.txt"
);
const FEDAVG_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/byzantine_fedavg_trace.txt"
);

/// Seed of the hostile fleet scenario (env + adversarial byte streams).
const SEED: u64 = 77;
const ADV_SEED: u64 = 1009;
const DEVICES: usize = 10;
const ROUNDS: usize = 16;

/// Minimum accuracy the poisoned `FedAvg` run must *lose* against the
/// honest baseline (in accuracy fraction: 0.10 = 10 points). The exact
/// damage is pinned by the golden trace; this floor keeps the scenario
/// honest if the trace is ever re-blessed.
const FEDAVG_DAMAGE_FLOOR: f32 = 0.10;

/// The 10-device scenario: devices 3 and 7 are Byzantine (model poisoning
/// and garbage/replay frames), device 5 botches one handshake then behaves.
fn hostile_behaviors() -> Vec<Behavior> {
    let mut behaviors = vec![Behavior::Honest; DEVICES];
    behaviors[3] = Behavior::SignFlip { scale: 16.0 };
    behaviors[7] = Behavior::GarbageOrReplay;
    behaviors[5] = Behavior::MidHandshakeDisconnect;
    behaviors
}

/// A 10-device environment big enough that one accuracy point is resolvable
/// (250 test samples → 0.4-point granularity), small enough to stay fast.
fn hostile_env(aggregator: Aggregator) -> ExperimentEnv {
    let cfg = FlConfig {
        devices: DEVICES,
        rounds: ROUNDS,
        local_epochs: 1,
        batch_size: 16,
        sgd: SgdConfig {
            lr: 0.1,
            clip_norm: 0.0,
        },
        alpha: 10.0,
        dev_fraction: 0.5,
        participation: 1.0,
        threads: 0,
        codec: Codec::Dense,
        aggregator,
        collect_timeout_secs: 30.0,
        seed: SEED,
    };
    let synth = SynthConfig {
        profile: DatasetProfile::Cifar10,
        train_per_class: 20,
        test_per_class: 25,
        resolution: 8,
        channels: 3,
        seed: SEED,
    };
    ExperimentEnv::new(synth, cfg)
}

/// Deterministic run projection: accuracy bits, final parameter bits, the
/// ledger's simulated/measured axes, and the quarantine counters.
type Trace = (
    Vec<u32>,
    Vec<u32>,
    Vec<u64>,
    Vec<u64>,
    Vec<u64>,
    FaultCounters,
);

fn project(history: &[f32], params: &[f32], ledger: &CostLedger) -> Trace {
    (
        history.iter().map(|v| v.to_bits()).collect(),
        params.iter().map(|v| v.to_bits()).collect(),
        ledger
            .sim_secs_history()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        ledger
            .payload_up_history()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        ledger
            .payload_down_history()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        *ledger.faults(),
    )
}

/// One hostile (or honest, with all-[`Behavior::Honest`] behaviors) run
/// over the in-process adversarial transport.
fn run_hostile_in_process(
    env: &ExperimentEnv,
    behaviors: Vec<Behavior>,
) -> (Vec<f32>, Vec<f32>, CostLedger) {
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut transport = AdversarialTransport::new(InProcess, behaviors, ADV_SEED);
    let history = run_with(
        model.as_mut(),
        &mut mask,
        env,
        1,
        &mut ledger,
        &mut no_hook(),
        RunOptions::new(&mut transport),
    )
    .expect("hostile in-process run");
    ledger.record_handshake_faults(transport.handshake_faults());
    (history, flat_params(model.as_ref()), ledger)
}

/// The honest reference: same env, everyone honest, classic `FedAvg`.
fn clean_baseline_final_acc() -> f32 {
    let env = hostile_env(Aggregator::FedAvg);
    let (history, _, ledger) = run_hostile_in_process(&env, vec![Behavior::Honest; DEVICES]);
    assert!(ledger.faults().is_clean(), "honest fleet must stay clean");
    *history.last().expect("nonempty history")
}

/// Renders one hostile run's trace with a quarantine footer; bits make the
/// comparison exact, display values make diffs readable.
fn render_hostile_trace(header: &str, history: &[f32], ledger: &CostLedger) -> String {
    let mut out = String::from(header);
    for (round, acc) in history.iter().enumerate() {
        let sim = ledger.sim_secs_history()[round];
        let up = ledger.payload_up_history()[round];
        out.push_str(&format!(
            "round {round}: acc={acc:.4} acc_bits={:08x} sim_bits={:016x} up_bytes={up:.0} \
             up_bits={:016x}\n",
            acc.to_bits(),
            sim.to_bits(),
            up.to_bits(),
        ));
    }
    let f = ledger.faults();
    out.push_str(&format!(
        "faults: malformed={} replays={} disconnects={} inflated={} clipped={} handshakes={} \
         quarantined={}\n",
        f.malformed_frames,
        f.replays,
        f.disconnects,
        f.inflated_samples,
        f.clipped_updates,
        f.rejected_handshakes,
        ledger.quarantined_updates(),
    ));
    out.push_str(&format!(
        "total: makespan_bits={:016x} upload_bits={:016x} zero_progress={} dropped={}\n",
        ledger.sim_makespan_secs().to_bits(),
        ledger.total_payload_upload_bytes().to_bits(),
        ledger.zero_progress_rounds(),
        ledger.dropped_updates(),
    ));
    out
}

fn compare_or_bless(path: &str, got: &str) {
    if std::env::var("FT_BLESS").is_ok() {
        std::fs::write(path, got).expect("write golden trace");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("missing {path} — run FT_BLESS=1 cargo test --test hostile_fleet")
    });
    assert_eq!(
        got, &want,
        "golden trace {path} drifted; if intentional, regenerate with \
         FT_BLESS=1 cargo test --test hostile_fleet"
    );
}

/// TrimmedMean under attack: the two Byzantine members are trimmed or
/// quarantined, the run converges within one point of the honest baseline,
/// and the whole hostile pipeline is pinned byte-for-byte.
#[test]
fn byzantine_trimmed_mean_golden_trace_and_recovery() {
    let env = hostile_env(Aggregator::TrimmedMean { beta: 0.15 });
    let (history, _, ledger) = run_hostile_in_process(&env, hostile_behaviors());
    let got = render_hostile_trace(
        "# Golden adversarial trace: TrimmedMean(0.15), 10 devices (seed 77),\n\
         # device 3 = sign_flip:16, device 7 = garbage_or_replay, device 5 = handshake_drop.\n\
         # Regenerate: FT_BLESS=1 cargo test --test hostile_fleet\n",
        &history,
        &ledger,
    );
    compare_or_bless(TRIMMED_MEAN_PATH, &got);

    // GarbageOrReplay: garbage on even rounds, replays on odd — half the
    // rounds each. The poisoner passes every screen — only the trim stops it.
    let f = ledger.faults();
    assert_eq!(f.malformed_frames, ROUNDS as u64 / 2);
    assert_eq!(f.replays, ROUNDS as u64 / 2);
    assert_eq!(f.rejected_handshakes, 1);
    assert_eq!(ledger.quarantined_updates(), ROUNDS as u64);

    let robust_final = *history.last().expect("nonempty history");
    let clean_final = clean_baseline_final_acc();
    assert!(
        clean_final - robust_final <= 0.0101,
        "TrimmedMean under attack must stay within one point of the honest \
         baseline: robust {robust_final:.4} vs clean {clean_final:.4}"
    );
}

/// The same fleet under plain FedAvg: the garbage device is still
/// quarantined (the screens are aggregator-independent), but the poisoner
/// is averaged straight in and the damage is pinned.
#[test]
fn byzantine_fedavg_damage_is_pinned() {
    let env = hostile_env(Aggregator::FedAvg);
    let (history, _, ledger) = run_hostile_in_process(&env, hostile_behaviors());
    let got = render_hostile_trace(
        "# Golden adversarial trace: plain FedAvg, same hostile fleet as the\n\
         # TrimmedMean trace (seed 77) — pins the UNdefended damage.\n\
         # Regenerate: FT_BLESS=1 cargo test --test hostile_fleet\n",
        &history,
        &ledger,
    );
    compare_or_bless(FEDAVG_PATH, &got);

    let poisoned_final = *history.last().expect("nonempty history");
    let clean_final = clean_baseline_final_acc();
    assert!(
        clean_final - poisoned_final >= FEDAVG_DAMAGE_FLOOR,
        "sign-flip poisoning must damage plain FedAvg by at least \
         {FEDAVG_DAMAGE_FLOOR}: poisoned {poisoned_final:.4} vs clean {clean_final:.4}"
    );
}

/// The acceptance scenario: the seeded 10-device fleet with its Byzantine
/// members over real loopback sockets. The TCP server completes every
/// round without a panic, and the whole run — accuracy bits, parameter
/// bits, ledger axes, and fault counters — is bit-identical to the
/// in-process adversarial twin.
#[test]
fn byzantine_tcp_fleet_matches_in_process_twin_bit_exactly() {
    let env = hostile_env(Aggregator::TrimmedMean { beta: 0.15 });
    let behaviors = hostile_behaviors();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let clients: Vec<_> = (0..DEVICES)
        .map(|k| {
            let behavior = behaviors[k];
            let client_env = hostile_env(Aggregator::TrimmedMean { beta: 0.15 });
            std::thread::spawn(move || match behavior {
                Behavior::Honest => {
                    run_tcp_device(addr, k, &client_env, &ModelSpec::small_cnn_test())
                        .unwrap_or_else(|e| panic!("honest device {k} failed: {e}"))
                }
                _ => run_byzantine_tcp_device(
                    addr,
                    k,
                    &client_env,
                    &ModelSpec::small_cnn_test(),
                    behavior,
                    ADV_SEED,
                )
                .unwrap_or_else(|e| panic!("byzantine device {k} failed: {e}")),
            })
        })
        .collect();
    let mut transport = TcpTransport::accept_fleet(&listener, DEVICES).expect("accept");

    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let history = run_with(
        model.as_mut(),
        &mut mask,
        &env,
        1,
        &mut ledger,
        &mut no_hook(),
        RunOptions::new(&mut transport),
    )
    .expect("hostile TCP run must complete without a server failure");
    ledger.record_handshake_faults(transport.handshake_faults());
    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(history.len(), ROUNDS, "every round must complete");
    let tcp = project(&history, &flat_params(model.as_ref()), &ledger);

    let (twin_history, twin_params, twin_ledger) = run_hostile_in_process(&env, behaviors);
    let twin = project(&twin_history, &twin_params, &twin_ledger);
    assert_eq!(
        tcp, twin,
        "hostile TCP run diverged from its in-process adversarial twin"
    );
}

// ---------------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------------

/// One device's planned absence: leaves after replying to `leave_after`,
/// rejoins at `rejoin` (or stays gone).
#[derive(Clone, Copy, Debug)]
struct Churn {
    device: usize,
    leave_after: usize,
    rejoin: Option<usize>,
}

fn presence_for(churns: &[Churn], rounds: usize) -> PresenceSchedule {
    let mut presence = PresenceSchedule::new();
    for c in churns {
        presence = presence.absent(c.device, c.leave_after + 1..c.rejoin.unwrap_or(rounds));
    }
    presence
}

/// The uninterrupted reference: the same effective cohort per round, run
/// in-process under the presence schedule.
fn run_churn_in_process(seed: u64, churns: &[Churn]) -> Trace {
    let env = ExperimentEnv::tiny_for_tests(seed);
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut transport = InProcess;
    let mut opts = RunOptions::new(&mut transport);
    opts.presence = Some(presence_for(churns, env.cfg.rounds));
    let history = run_with(
        model.as_mut(),
        &mut mask,
        &env,
        1,
        &mut ledger,
        &mut no_hook(),
        opts,
    )
    .expect("in-process churn run");
    project(&history, &flat_params(model.as_ref()), &ledger)
}

/// The same schedule over real sockets: churning devices close their
/// connections when they leave, and rejoiners are fresh clients accepted by
/// the retained listener at their scheduled round.
fn run_churn_over_tcp(seed: u64, churns: &[Churn]) -> Trace {
    let env = ExperimentEnv::tiny_for_tests(seed);
    let devices = env.num_devices();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let churning: Vec<usize> = churns.iter().map(|c| c.device).collect();

    let mut threads: Vec<std::thread::JoinHandle<()>> = (0..devices)
        .filter(|k| !churning.contains(k))
        .map(|k| {
            let client_env = ExperimentEnv::tiny_for_tests(seed);
            std::thread::spawn(move || {
                run_tcp_device(addr, k, &client_env, &ModelSpec::small_cnn_test())
                    .unwrap_or_else(|e| panic!("device {k} failed: {e}"));
            })
        })
        .collect();
    for c in churns.iter().copied() {
        let client_env = ExperimentEnv::tiny_for_tests(seed);
        threads.push(std::thread::spawn(move || {
            run_churn_tcp_device(
                addr,
                c.device,
                &client_env,
                &ModelSpec::small_cnn_test(),
                c.leave_after,
            )
            .unwrap_or_else(|e| panic!("departing device {} failed: {}", c.device, e));
            // The rejoin is a brand-new honest client, launched only after
            // the departure completed so its HELLO cannot race the initial
            // fleet accept; it waits in the listener's backlog — or parked,
            // if the server accepts it while readmitting another device —
            // until its rejoin round.
            if c.rejoin.is_some() {
                let rejoin_env = ExperimentEnv::tiny_for_tests(seed);
                run_tcp_device(addr, c.device, &rejoin_env, &ModelSpec::small_cnn_test())
                    .unwrap_or_else(|e| panic!("rejoining device {} failed: {}", c.device, e));
            }
        }));
    }

    let mut transport = TcpTransport::accept_fleet(&listener, devices).expect("accept");
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut opts = RunOptions::new(&mut transport);
    opts.presence = Some(presence_for(churns, env.cfg.rounds));
    let history = run_with(
        model.as_mut(),
        &mut mask,
        &env,
        1,
        &mut ledger,
        &mut no_hook(),
        opts,
    )
    .expect("tcp churn run");
    ledger.record_handshake_faults(transport.handshake_faults());
    for t in threads {
        t.join().expect("client thread");
    }
    project(&history, &flat_params(model.as_ref()), &ledger)
}

/// Kill/rejoin at every round boundary of the tiny 4-round run: each
/// schedule's TCP run must be bit-identical to the uninterrupted in-process
/// run with the same effective cohort — and scheduled churn is not a fault.
#[test]
fn churn_at_every_round_boundary_matches_in_process_twin() {
    let schedules: &[Churn] = &[
        Churn {
            device: 2,
            leave_after: 0,
            rejoin: Some(2),
        },
        Churn {
            device: 2,
            leave_after: 0,
            rejoin: Some(3),
        },
        Churn {
            device: 1,
            leave_after: 1,
            rejoin: Some(3),
        },
        Churn {
            device: 2,
            leave_after: 0,
            rejoin: None,
        },
        Churn {
            device: 0,
            leave_after: 1,
            rejoin: None,
        },
        Churn {
            device: 1,
            leave_after: 2,
            rejoin: None,
        },
    ];
    for (i, &churn) in schedules.iter().enumerate() {
        let seed = 50 + i as u64;
        let tcp = run_churn_over_tcp(seed, &[churn]);
        let twin = run_churn_in_process(seed, &[churn]);
        assert_eq!(tcp, twin, "churn schedule {churn:?} diverged over TCP");
        assert!(
            tcp.5.is_clean(),
            "scheduled churn must not be counted as a fault: {:?}",
            tcp.5
        );
    }
}

/// Two devices churning in overlapping windows, rejoining at different
/// rounds — the multi-rejoiner accept path.
#[test]
fn overlapping_churn_of_two_devices_matches_in_process_twin() {
    let churns = [
        Churn {
            device: 0,
            leave_after: 0,
            rejoin: Some(2),
        },
        Churn {
            device: 2,
            leave_after: 1,
            rejoin: Some(3),
        },
    ];
    let tcp = run_churn_over_tcp(61, &churns);
    let twin = run_churn_in_process(61, &churns);
    assert_eq!(tcp, twin, "overlapping churn diverged over TCP");
    assert!(tcp.5.is_clean());
}

/// An *unscheduled* mid-round death: the device HELLOs and vanishes. The
/// TCP server quarantines it as a disconnect every round it is
/// expected and still completes the run — a typed fault, never a panic.
#[test]
fn mid_round_kill_is_quarantined_not_fatal() {
    let seed = 31;
    let env = ExperimentEnv::tiny_for_tests(seed);
    let devices = env.num_devices();
    let rounds = env.cfg.rounds;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    let mut threads: Vec<_> = (1..devices)
        .map(|k| {
            let client_env = ExperimentEnv::tiny_for_tests(seed);
            std::thread::spawn(move || {
                run_tcp_device(addr, k, &client_env, &ModelSpec::small_cnn_test())
                    .unwrap_or_else(|e| panic!("device {k} failed: {e}"));
            })
        })
        .collect();
    // Device 0 is a raw socket: a valid HELLO frame (4-byte LE length,
    // kind byte 1, device id), then it hangs up before the first round.
    threads.push(std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&4u32.to_le_bytes()).expect("len");
        stream.write_all(&[1u8]).expect("kind");
        stream.write_all(&0u32.to_le_bytes()).expect("device id");
        // Read nothing; dropping the stream kills it mid-round.
    }));

    let mut transport = TcpTransport::accept_fleet(&listener, devices).expect("accept");
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let history = run_with(
        model.as_mut(),
        &mut mask,
        &env,
        1,
        &mut ledger,
        &mut no_hook(),
        RunOptions::new(&mut transport),
    )
    .expect("an unscheduled death must not abort the run");
    for t in threads {
        t.join().expect("client thread");
    }
    assert_eq!(history.len(), rounds);
    // One disconnect per round the dead device was in the cohort: the
    // mid-round death, then a dead-stream fault at every later broadcast.
    assert_eq!(ledger.faults().disconnects, rounds as u64);
    assert_eq!(ledger.quarantined_updates(), rounds as u64);
}

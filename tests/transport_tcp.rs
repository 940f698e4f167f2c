//! Loopback-TCP federation net: the same run exchanged over real sockets
//! (length-prefixed frames on 127.0.0.1) must reach the bit-identical
//! final aggregated model — and the identical deterministic ledger — as
//! the in-process transport of the same seed. The server screens every
//! handshake and frame, and an honest fleet trips none of it.

use fedtiny_suite::fl::{
    no_hook, run_federated_rounds, run_tcp_device, run_tcp_devices, run_with, Codec, CostLedger,
    ExperimentEnv, ModelSpec, RunOptions, Scheduler, TcpTransport,
};
use fedtiny_suite::nn::{apply_mask, flat_params, sparse_layout};
use fedtiny_suite::sparse::Mask;
use std::io::Write;
use std::net::{TcpListener, TcpStream};

/// Builds the shared environment; `half_prune` kills every even
/// coordinate of the first prunable layer so sparse values-only uploads
/// are genuinely exercised over the wire.
fn build_env(scheduler: Scheduler, codec: Codec, seed: u64) -> ExperimentEnv {
    build_env_part(scheduler, codec, seed, 1.0)
}

fn build_env_part(
    scheduler: Scheduler,
    codec: Codec,
    seed: u64,
    participation: f32,
) -> ExperimentEnv {
    let mut env = ExperimentEnv::tiny_for_tests(seed);
    env.scheduler = scheduler;
    env.cfg.codec = codec;
    env.cfg.participation = participation;
    env
}

fn initial_mask(env: &ExperimentEnv, half_prune: bool) -> Mask {
    let model = env.build_model(&ModelSpec::small_cnn_test());
    let layout = sparse_layout(model.as_ref());
    let mut mask = Mask::ones(&layout);
    if half_prune {
        for i in 0..layout.layer(0).len {
            if i % 2 == 0 {
                mask.set(0, i, false);
            }
        }
    }
    mask
}

/// Deterministic run projection: history bits + final param bits + the
/// ledger's simulated/measured axes.
type Trace = (Vec<u32>, Vec<u32>, Vec<u64>, Vec<u64>, Vec<u64>);

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
    )
}

/// The in-process reference run.
fn run_in_process(scheduler: Scheduler, codec: Codec, seed: u64, half_prune: bool) -> Trace {
    run_in_process_part(scheduler, codec, seed, half_prune, 1.0)
}

fn run_in_process_part(
    scheduler: Scheduler,
    codec: Codec,
    seed: u64,
    half_prune: bool,
    participation: f32,
) -> Trace {
    let env = build_env_part(scheduler, codec, seed, participation);
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = initial_mask(&env, half_prune);
    apply_mask(model.as_mut(), &mask);
    let mut ledger = CostLedger::new();
    let history = run_federated_rounds(
        model.as_mut(),
        &mut mask,
        &env,
        1,
        &mut ledger,
        &mut no_hook(),
    );
    project(&history, &flat_params(model.as_ref()), &ledger)
}

/// The same run with the server and one client thread per device on an
/// ephemeral loopback port.
fn run_over_tcp(scheduler: Scheduler, codec: Codec, seed: u64, half_prune: bool) -> Trace {
    run_over_tcp_part(scheduler, codec, seed, half_prune, 1.0)
}

fn run_over_tcp_part(
    scheduler: Scheduler,
    codec: Codec,
    seed: u64,
    half_prune: bool,
    participation: f32,
) -> Trace {
    let env = build_env_part(scheduler, codec, seed, participation);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let clients: Vec<_> = (0..env.num_devices())
        .map(|k| {
            let client_env = build_env_part(scheduler, codec, seed, participation);
            std::thread::spawn(move || {
                run_tcp_device(addr, k, &client_env, &ModelSpec::small_cnn_test())
                    .unwrap_or_else(|e| panic!("device {k} failed: {e}"));
            })
        })
        .collect();
    let mut transport =
        TcpTransport::accept_fleet(&listener, env.num_devices()).expect("fleet connects");
    assert_eq!(transport.devices(), env.num_devices());
    assert_eq!(
        transport.handshake_faults(),
        0,
        "an honest HELLO was refused"
    );
    let trace = serve(&env, &mut transport, half_prune);
    for c in clients {
        c.join().expect("client thread");
    }
    trace
}

/// The server side of a TCP run over an accepted fleet. Every fleet here is
/// honest, so nothing may be quarantined.
fn serve(env: &ExperimentEnv, transport: &mut TcpTransport, half_prune: bool) -> Trace {
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = initial_mask(env, half_prune);
    apply_mask(model.as_mut(), &mask);
    let mut ledger = CostLedger::new();
    let history = run_with(
        model.as_mut(),
        &mut mask,
        env,
        1,
        &mut ledger,
        &mut no_hook(),
        RunOptions::new(transport),
    )
    .expect("tcp run");
    assert!(
        ledger.faults().is_clean(),
        "an honest fleet was quarantined: {:?}",
        ledger.faults()
    );
    project(&history, &flat_params(model.as_ref()), &ledger)
}

#[test]
fn tcp_dense_synchronous_matches_in_process_bit_exactly() {
    let tcp = run_over_tcp(Scheduler::Synchronous, Codec::Dense, 42, false);
    let local = run_in_process(Scheduler::Synchronous, Codec::Dense, 42, false);
    assert_eq!(tcp, local, "TCP run diverged from in-process");
}

#[test]
fn tcp_maskcsr_halfpruned_matches_in_process_bit_exactly() {
    // Values-only sparse uploads (shared mask epoch) across a real socket:
    // indices are derived from the mask on both ends, never transmitted.
    let tcp = run_over_tcp(Scheduler::Synchronous, Codec::MaskCsr, 17, true);
    let local = run_in_process(Scheduler::Synchronous, Codec::MaskCsr, 17, true);
    assert_eq!(tcp, local, "MaskCsr TCP run diverged from in-process");
}

#[test]
fn tcp_quantized_deadline_matches_in_process_bit_exactly() {
    // Deadline cuts are a server-side virtual-time decision: the update
    // still crosses the socket, the sim decides it arrived late, and both
    // transports must agree on who survived.
    let sched = Scheduler::Deadline { deadline_secs: 2.0 };
    let tcp = run_over_tcp(sched, Codec::QuantInt8, 9, false);
    let local = run_in_process(sched, Codec::QuantInt8, 9, false);
    assert_eq!(tcp, local, "quantized deadline TCP run diverged");
}

/// A second HELLO for a device id already connected is the reconnect case:
/// the server counts the refused handshake, keeps the latest connection,
/// and the run stays bit-identical to in-process.
#[test]
fn tcp_duplicate_hello_is_counted_and_the_latest_connection_serves() {
    let env = build_env(Scheduler::Synchronous, Codec::Dense, 0);
    let devices = env.num_devices();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    // A stale connection claims device 0 first: HELLO is a u32 body length
    // (4), the kind byte (1) and the u32 device id (0).
    let mut stale = TcpStream::connect(addr).expect("connect");
    stale
        .write_all(&[4, 0, 0, 0, 1, 0, 0, 0, 0])
        .expect("stale hello");
    // Then the real fleet, device 0 first, from one lockstep client. The
    // accept queue is FIFO, so the server reads the stale HELLO before the
    // real one.
    let client = std::thread::spawn(move || {
        let env = build_env(Scheduler::Synchronous, Codec::Dense, 0);
        run_tcp_devices(addr, 0..devices, &env, &ModelSpec::small_cnn_test())
            .unwrap_or_else(|e| panic!("client fleet failed: {e}"));
    });
    let mut transport =
        TcpTransport::accept_fleet(&listener, devices).expect("a duplicate HELLO is not fatal");
    assert_eq!(transport.handshake_faults(), 1);
    let tcp = serve(&env, &mut transport, false);
    client.join().expect("client thread");
    drop(stale);
    let local = run_in_process(Scheduler::Synchronous, Codec::Dense, 0, false);
    assert_eq!(tcp, local, "the latest device-0 connection did not serve");
}

#[test]
fn tcp_partial_participation_matches_in_process_bit_exactly() {
    // Under participation < 1.0 the in-process loop trains cohort members
    // under their *positional* index within the sampled cohort; the ROUND
    // frame carries that position so TCP devices derive the same RNG
    // streams — without it, any round with a partial cohort diverges.
    let tcp = run_over_tcp_part(Scheduler::Synchronous, Codec::Dense, 5, false, 0.67);
    let local = run_in_process_part(Scheduler::Synchronous, Codec::Dense, 5, false, 0.67);
    assert_eq!(tcp, local, "partial-participation TCP run diverged");
}

//! Fleet-scale loopback net: one multiplexed server thread against one
//! lockstep client thread serving the whole fleet's sockets, bit-identical
//! to the in-process twin of the same seed.
//!
//! The point is the *dataplane shape*, not the model: with the event-driven
//! Collect loop, a single server thread owns every device socket, so the
//! fleet size is bounded by file descriptors — not OS threads. The CI
//! `fleet-scale` job runs this at 10 000 devices (`FT_FLEET_DEVICES=10000`
//! under `ulimit -n 65536`); the default stays small enough for any
//! developer machine.

use fedtiny_suite::fl::{
    no_hook, run_federated_rounds, run_tcp_devices, run_with, Codec, CostLedger, ExperimentEnv,
    FlConfig, ModelSpec, RunOptions, TcpTransport,
};
use fedtiny_suite::nn::{apply_mask, flat_params, sparse_layout};
use fedtiny_suite::sparse::Mask;
use ft_data::{DatasetProfile, SynthConfig};
use std::net::TcpListener;

/// Fleet size: `FT_FLEET_DEVICES` (CI scale-out) or a laptop default.
fn fleet_devices() -> usize {
    std::env::var("FT_FLEET_DEVICES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96)
}

/// An environment sized for `devices`: the synthetic dataset grows with
/// the fleet (the Dirichlet split needs at least one sample per device),
/// everything else stays tiny so 10k devices is sockets, not FLOPs.
fn scale_env(devices: usize, seed: u64) -> ExperimentEnv {
    let synth = SynthConfig {
        profile: DatasetProfile::Cifar10,
        train_per_class: (devices / 10 + 2).max(8),
        test_per_class: 2,
        resolution: 8,
        channels: 3,
        seed,
    };
    let mut cfg = FlConfig::tiny_for_tests();
    cfg.devices = devices;
    cfg.rounds = 2;
    cfg.seed = seed;
    // Full participation is what lets one client thread serve every socket
    // in lockstep (run_tcp_devices refuses anything else), and MaskCsr
    // exercises the zero-copy sparse decode at scale.
    cfg.participation = 1.0;
    cfg.codec = Codec::MaskCsr;
    ExperimentEnv::new(synth, cfg)
}

/// Half-prunes the first layer so MaskCsr frames are genuinely sparse.
fn initial_mask(env: &ExperimentEnv) -> Mask {
    let model = env.build_model(&ModelSpec::small_cnn_test());
    let layout = sparse_layout(model.as_ref());
    let mut mask = Mask::ones(&layout);
    for i in 0..layout.layer(0).len {
        if i % 2 == 0 {
            mask.set(0, i, false);
        }
    }
    mask
}

/// Deterministic run projection (history, params, ledger axes), in bits.
type Trace = (Vec<u32>, Vec<u32>, Vec<u64>, Vec<u64>);

fn project(history: &[f32], params: &[f32], ledger: &CostLedger) -> Trace {
    (
        history.iter().map(|v| v.to_bits()).collect(),
        params.iter().map(|v| v.to_bits()).collect(),
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

fn run_in_process(devices: usize, seed: u64) -> Trace {
    let env = scale_env(devices, seed);
    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = initial_mask(&env);
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

fn run_over_tcp(devices: usize, seed: u64) -> Trace {
    let env = scale_env(devices, seed);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let client = std::thread::spawn(move || {
        let client_env = scale_env(devices, seed);
        run_tcp_devices(addr, 0..devices, &client_env, &ModelSpec::small_cnn_test())
            .unwrap_or_else(|e| panic!("client fleet failed: {e}"));
    });
    let mut transport = TcpTransport::accept_fleet(&listener, devices).expect("fleet connects");
    assert_eq!(transport.devices(), devices);
    assert_eq!(
        transport.handshake_faults(),
        0,
        "an honest HELLO was refused"
    );

    let mut model = env.build_model(&ModelSpec::small_cnn_test());
    let mut mask = initial_mask(&env);
    apply_mask(model.as_mut(), &mask);
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
    .expect("tcp fleet run");
    // The collect quiet timeout applies to every TCP run: no device of an
    // honest fleet may be quarantined as silent, however large the fleet.
    assert!(
        ledger.faults().is_clean(),
        "an honest fleet was quarantined: {:?}",
        ledger.faults()
    );
    client.join().expect("client thread");
    project(&history, &flat_params(model.as_ref()), &ledger)
}

#[test]
fn fleet_scale_tcp_matches_in_process_bit_exactly() {
    let devices = fleet_devices();
    let tcp = run_over_tcp(devices, 23);
    let local = run_in_process(devices, 23);
    assert_eq!(
        tcp, local,
        "{devices}-device multiplexed TCP fleet diverged from in-process"
    );
}

#[test]
fn run_tcp_devices_refuses_partial_participation() {
    let mut env = scale_env(4, 7);
    env.cfg.participation = 0.5;
    // No server needed: the lockstep check fires before any connect.
    let err = run_tcp_devices("127.0.0.1:1", 0..4, &env, &ModelSpec::small_cnn_test())
        .expect_err("lockstep client must refuse partial participation");
    assert!(
        err.to_string().contains("participation"),
        "unexpected error: {err}"
    );
}

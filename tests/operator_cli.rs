//! Operator-surface integration: the live metrics endpoint, the trace
//! stream, and the `ft` CLI's pinned text contracts.
//!
//! The metrics plumbing's core promise is *observation without
//! interference*: a run with a hub attached is bit-identical to the same
//! run without one, and everything the endpoint reports is exactly what
//! the cost ledger recorded — no sampling, no drift.
//!
//! Regenerate the pinned CLI goldens after an *intentional* change with:
//!
//! ```bash
//! FT_BLESS=1 cargo test --test operator_cli
//! ```

use fedtiny_suite::data::{DatasetProfile, SynthConfig};
use fedtiny_suite::fl::{
    encode_trace_frame, no_hook, read_trace_frame, run_tcp_device, run_with, CostLedger,
    ExperimentEnv, FlConfig, InProcess, MetricsHub, ModelSpec, RunOptions, TcpTransport,
    TraceEvent, TraceStreamError,
};
use fedtiny_suite::nn::{flat_params, sparse_layout};
use fedtiny_suite::sparse::Mask;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

const SEED: u64 = 23;
const DEVICES: usize = 4;
const ROUNDS: usize = 6;

/// The `ft run` demo-preset environment (also the TCP examples' seed).
fn demo_env_rounds(rounds: usize) -> ExperimentEnv {
    let synth = SynthConfig {
        profile: DatasetProfile::Cifar10,
        train_per_class: 12,
        test_per_class: 8,
        resolution: 8,
        channels: 3,
        seed: SEED,
    };
    let mut cfg = FlConfig::bench_default();
    cfg.devices = DEVICES;
    cfg.rounds = rounds;
    cfg.local_epochs = 1;
    cfg.seed = SEED;
    ExperimentEnv::new(synth, cfg)
}

fn demo_env() -> ExperimentEnv {
    demo_env_rounds(ROUNDS)
}

fn spec() -> ModelSpec {
    ModelSpec::SmallCnn { width: 4, input: 8 }
}

/// Runs the demo fleet in-process with an optional hub; returns the final
/// params, accuracy history and the ledger.
fn run_demo(metrics: Option<Arc<MetricsHub>>) -> (Vec<f32>, Vec<f32>, CostLedger) {
    let env = demo_env();
    let mut model = env.build_model(&spec());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut transport = InProcess;
    let mut opts = RunOptions::new(&mut transport);
    opts.metrics = metrics;
    let history = run_with(
        model.as_mut(),
        &mut mask,
        &env,
        0,
        &mut ledger,
        &mut no_hook(),
        opts,
    )
    .expect("demo run");
    (flat_params(model.as_ref()), history, ledger)
}

/// Pulls one metric's samples out of a text exposition: `(labels, value)`
/// pairs in document order.
fn samples<'a>(body: &'a str, name: &str) -> Vec<(&'a str, f64)> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let labels = key.strip_prefix(name)?;
            if !labels.is_empty() && !labels.starts_with('{') {
                return None; // ft_rounds_completed vs ft_rounds_completed_foo
            }
            Some((labels, value.parse().ok()?))
        })
        .collect()
}

fn sample(body: &str, name: &str) -> f64 {
    let found = samples(body, name);
    assert_eq!(found.len(), 1, "{name}: expected one sample, got {found:?}");
    found[0].1
}

/// A real scrape over the endpoint's TCP listener.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("send scrape");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    let (headers, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP header/body split");
    assert!(headers.starts_with("HTTP/1.0 200 OK"), "{headers}");
    assert!(
        headers.contains("Content-Type: text/plain; version=0.0.4"),
        "{headers}"
    );
    body.to_string()
}

/// A seeded 4-device fleet over real TCP sockets with the endpoint
/// serving; after the run, the scrape must match the cost ledger
/// *exactly* — staleness histogram, payload counters, fault counters.
#[test]
fn tcp_run_scrape_matches_ledger_exactly() {
    let hub = MetricsHub::new();
    let endpoint = hub.serve("127.0.0.1:0").expect("bind metrics endpoint");
    let addr = endpoint.local_addr();

    let env = demo_env();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fleet port");
    let fleet_addr = listener.local_addr().expect("fleet addr");
    let clients: Vec<_> = (0..DEVICES)
        .map(|k| {
            let env = demo_env();
            std::thread::spawn(move || {
                run_tcp_device(fleet_addr, k, &env, &spec()).expect("device run");
            })
        })
        .collect();
    let mut transport = TcpTransport::accept_fleet(&listener, DEVICES).expect("accept fleet");
    let mut model = env.build_model(&spec());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut opts = RunOptions::new(&mut transport);
    opts.metrics = Some(hub.clone());
    run_with(
        model.as_mut(),
        &mut mask,
        &env,
        0,
        &mut ledger,
        &mut no_hook(),
        opts,
    )
    .expect("tcp server run");
    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(
        transport.handshake_faults(),
        0,
        "an honest HELLO was refused"
    );
    assert!(ledger.faults().is_clean(), "{:?}", ledger.faults());

    let body = scrape(addr);

    // Round/cohort/fleet gauges.
    assert_eq!(sample(&body, "ft_rounds_completed"), ROUNDS as f64);
    assert_eq!(sample(&body, "ft_fleet_devices"), DEVICES as f64);

    // Staleness histogram == the ledger's timeline, entry for entry.
    let timeline = ledger.timeline();
    assert_eq!(
        sample(&body, "ft_update_staleness_rounds_count"),
        timeline.len() as f64
    );
    let stale_sum: u64 = timeline.iter().map(|e| e.staleness as u64).sum();
    assert_eq!(
        sample(&body, "ft_update_staleness_rounds_sum"),
        stale_sum as f64
    );
    for (labels, value) in samples(&body, "ft_update_staleness_rounds_bucket") {
        let le = labels.trim_start_matches("{le=\"").trim_end_matches("\"}");
        let expected = if le == "+Inf" {
            timeline.len()
        } else {
            let edge: usize = le.parse().expect("bucket edge");
            timeline.iter().filter(|e| e.staleness <= edge).count()
        };
        assert_eq!(value, expected as f64, "bucket le={le}");
    }

    // Payload counters are the ledger's cumulative totals, bit-exact (the
    // exposition uses shortest-round-trip float formatting).
    let up = samples(&body, "ft_payload_bytes_total")
        .into_iter()
        .find(|(l, _)| l.contains("up"))
        .expect("up direction")
        .1;
    assert_eq!(up.to_bits(), ledger.total_payload_upload_bytes().to_bits());
    assert_eq!(
        sample(&body, "ft_sim_makespan_seconds").to_bits(),
        ledger.sim_makespan_secs().to_bits()
    );
    assert_eq!(
        sample(&body, "ft_zero_progress_rounds"),
        ledger.zero_progress_rounds() as f64
    );
    for (labels, value) in samples(&body, "ft_faults_total") {
        assert_eq!(value, 0.0, "clean run must report zero faults ({labels})");
    }

    endpoint.shutdown();
}

/// Attaching a hub must not change the math: metrics-on and metrics-off
/// runs of the same seed produce bit-identical models and histories.
#[test]
fn metrics_hub_is_strictly_observational() {
    let (params_off, history_off, ledger_off) = run_demo(None);
    let hub = MetricsHub::new();
    let (params_on, history_on, ledger_on) = run_demo(Some(hub.clone()));

    assert_eq!(params_off.len(), params_on.len());
    let drifted = params_off
        .iter()
        .zip(&params_on)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert_eq!(drifted, 0, "metrics hub changed the model");
    assert_eq!(history_off.len(), history_on.len());
    for (a, b) in history_off.iter().zip(&history_on) {
        assert_eq!(a.to_bits(), b.to_bits(), "metrics hub changed accuracy");
    }
    assert_eq!(
        ledger_off.sim_makespan_secs().to_bits(),
        ledger_on.sim_makespan_secs().to_bits()
    );

    // And the hub saw every timeline event the ledger recorded.
    let body = hub.render_text();
    assert_eq!(
        sample(&body, "ft_update_staleness_rounds_count"),
        ledger_on.timeline().len() as f64
    );
}

/// A live `WATCH` subscriber receives one frame per ledger timeline event
/// and a clean EOF when the endpoint shuts down.
#[test]
fn watch_stream_delivers_every_timeline_event() {
    let hub = MetricsHub::new();
    let endpoint = hub.serve("127.0.0.1:0").expect("bind metrics endpoint");
    let mut watcher = TcpStream::connect(endpoint.local_addr()).expect("connect watcher");
    watcher.write_all(b"WATCH\r\n").expect("subscribe");
    // The accept loop registers the subscription on its own thread; give
    // it a moment before the run starts emitting frames.
    std::thread::sleep(std::time::Duration::from_millis(300));

    let (_, _, ledger) = run_demo(Some(hub.clone()));
    endpoint.shutdown();

    let mut events: Vec<TraceEvent> = Vec::new();
    loop {
        match read_trace_frame(&mut watcher) {
            Ok(Some(ev)) => events.push(ev),
            Ok(None) => break,
            Err(e) => panic!("watch stream error: {e}"),
        }
    }
    let timeline = ledger.timeline();
    assert_eq!(events.len(), timeline.len());
    for (ev, t) in events.iter().zip(timeline.iter()) {
        assert_eq!(ev.device, t.device as u64);
        assert_eq!(ev.round, t.round as u64);
        assert_eq!(ev.applied, t.applied);
        assert_eq!(ev.staleness, t.staleness as u64);
        assert_eq!(ev.start_secs.to_bits(), t.start_secs.to_bits());
        assert_eq!(ev.finish_secs.to_bits(), t.finish_secs.to_bits());
    }
}

/// Truncating a frame stream at *any* byte offset is a typed error (or a
/// clean EOF at a frame boundary) — never a panic.
#[test]
fn truncated_trace_stream_is_a_typed_error() {
    let ev = TraceEvent {
        device: 3,
        round: 17,
        start_secs: 1.25,
        finish_secs: 2.5,
        applied: true,
        staleness: 2,
    };
    let frame = encode_trace_frame(&ev);
    // Full frame round-trips.
    let mut cursor = &frame[..];
    let decoded = read_trace_frame(&mut cursor).expect("full frame").unwrap();
    assert_eq!(decoded, ev);

    for cut in 0..frame.len() {
        let mut partial = &frame[..cut];
        match read_trace_frame(&mut partial) {
            // Empty input is a clean end-of-stream.
            Ok(None) => assert_eq!(cut, 0, "only an empty stream is clean EOF"),
            Ok(Some(_)) => panic!("decoded an event from {cut} truncated bytes"),
            Err(TraceStreamError::Io(_)) | Err(TraceStreamError::Decode(_)) => {}
        }
    }

    // The `ft watch` loop surfaces the same condition as exit code 1.
    let mut partial = &frame[..frame.len() - 1];
    let mut sink = Vec::new();
    let code = ft_cli::watch::watch_stream(&mut partial, None, &mut sink);
    assert_eq!(code, 1, "truncation must fail the watcher");
    assert!(sink.is_empty(), "no event line for a truncated frame");
}

/// A corrupt length prefix (oversized or unknown kind) is rejected before
/// any allocation or field decode.
#[test]
fn corrupt_trace_frames_are_rejected() {
    let ev = TraceEvent {
        device: 0,
        round: 1,
        start_secs: 0.0,
        finish_secs: 1.0,
        applied: false,
        staleness: 0,
    };
    let mut frame = encode_trace_frame(&ev);

    // Oversized body length.
    let mut oversized = frame.clone();
    oversized[..4].copy_from_slice(&(1u32 << 24).to_le_bytes());
    let mut r = &oversized[..];
    assert!(matches!(
        read_trace_frame(&mut r),
        Err(TraceStreamError::Decode(_))
    ));

    // Unknown frame kind.
    frame[4] = 0xEE;
    let mut r = &frame[..];
    assert!(matches!(
        read_trace_frame(&mut r),
        Err(TraceStreamError::Decode(_))
    ));
}

const HELP_TOP_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/help_top.txt");

/// The top-level `ft --help` text is a pinned contract (the CI lint job
/// smokes every subcommand's --help for exit 0; this pins the content).
#[test]
fn help_text_is_pinned() {
    let rendered = format!("{}\n", ft_cli::help::TOP);
    if std::env::var("FT_BLESS").is_ok() {
        std::fs::write(HELP_TOP_PATH, &rendered).expect("bless help golden");
        return;
    }
    let golden = std::fs::read_to_string(HELP_TOP_PATH).expect("read help golden");
    assert_eq!(
        rendered, golden,
        "ft --help drifted from tests/golden/help_top.txt; \
         rerun with FT_BLESS=1 if the change is intentional"
    );

    // Every subcommand help names itself and shows a usage block.
    for (cmd, text) in [
        ("run", ft_cli::help::RUN),
        ("serve", ft_cli::help::SERVE),
        ("device", ft_cli::help::DEVICE),
        ("resume", ft_cli::help::RESUME),
        ("ckpt", ft_cli::help::CKPT),
        ("watch", ft_cli::help::WATCH),
        ("bench", ft_cli::help::BENCH),
    ] {
        assert!(text.starts_with(&format!("ft {cmd} — ")), "{cmd}");
        assert!(text.contains("USAGE:"), "{cmd}");
        assert_eq!(ft_cli::help::for_topic(Some(cmd)), text);
    }
}

const CKPT_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/ckpt_inspect_demo.txt"
);

/// `ft ckpt inspect` of a seeded demo checkpoint is deterministic across
/// hosts and thread counts — pinned by a committed golden.
#[test]
fn ckpt_inspect_matches_golden() {
    let dir = std::env::temp_dir().join(format!("ft-cli-inspect-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("demo.ckpt");

    let env = demo_env_rounds(3);
    let mut model = env.build_model(&spec());
    let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
    let mut ledger = CostLedger::new();
    let mut transport = InProcess;
    let mut opts = RunOptions::new(&mut transport);
    opts.checkpoint = Some(path.clone());
    run_with(
        model.as_mut(),
        &mut mask,
        &env,
        0,
        &mut ledger,
        &mut no_hook(),
        opts,
    )
    .expect("checkpointed demo run");

    let ckpt = fedtiny_suite::fl::Checkpoint::load(&path).expect("load checkpoint");
    let rendered = ft_cli::ckpt::format_inspect(&ckpt.summary());
    std::fs::remove_dir_all(&dir).ok();

    if std::env::var("FT_BLESS").is_ok() {
        std::fs::write(CKPT_GOLDEN_PATH, &rendered).expect("bless ckpt golden");
        return;
    }
    let golden = std::fs::read_to_string(CKPT_GOLDEN_PATH).expect("read ckpt golden");
    assert_eq!(
        rendered, golden,
        "ckpt inspect drifted from tests/golden/ckpt_inspect_demo.txt; \
         rerun with FT_BLESS=1 if the change is intentional"
    );

    // Self-diff of the same state is empty (the `ft ckpt diff` contract).
    let again = fedtiny_suite::fl::Checkpoint::from_bytes(&ckpt.to_bytes()).expect("round-trip");
    assert!(ckpt.diff(&again).is_empty());
}

/// An option a subcommand does not declare is a usage error (exit 2) before
/// anything runs, never silently ignored: a misspelt `--rounds` must not run
/// the default round count. Declared options still run.
#[test]
fn unknown_options_are_refused_not_ignored() {
    let dispatch = |line: &str| {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        ft_cli::dispatch(&argv)
    };
    for line in [
        "run --round 3",
        "run --bogus",
        "run --rounds 1 --batch 0",
        "resume --checkpoint none.ckpt --bogus",
        "serve --demo --bogus 1",
        "device --connect 127.0.0.1:1 --device 0 --bogus",
        "ckpt inspect none.ckpt --bogus",
        "watch 127.0.0.1:1 --bogus",
        "bench --bogus",
    ] {
        assert_eq!(dispatch(line), 2, "{line}");
    }
    assert_eq!(dispatch("run --rounds 0 --devices 2"), 0);
}

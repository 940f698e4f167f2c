//! The `ft` operator CLI.
//!
//! One binary for everything an operator does with a fleet: run it
//! (in-process or across real TCP sockets), watch it live (Prometheus-style
//! metrics endpoint plus a length-prefixed trace-frame stream), checkpoint
//! it, inspect and diff the checkpoints, and drive the benchmark harness —
//! and for running any method of the paper's evaluation as one experiment.
//!
//! ```bash
//! ft run --method fedtiny --preset smoke         # one experiment, JSON record
//! ft run --preset lab --metrics 127.0.0.1:9090   # in-process fleet + metrics
//! ft serve --demo --devices 4                    # TCP server + client threads
//! ft serve --listen 127.0.0.1:7070               # TCP server, real processes
//! ft device --connect 127.0.0.1:7070 --device 0  # one TCP device
//! ft resume --checkpoint /tmp/fleet.ckpt         # continue a halted run
//! ft ckpt inspect /tmp/fleet.ckpt                # deterministic digest
//! ft ckpt diff a.ckpt b.ckpt                     # field-level comparison
//! ft watch 127.0.0.1:9090                        # tail the live trace stream
//! ft bench --quick                               # trajectory benches + gate
//! ```
//!
//! Everything is hand-rolled over `std` — no argument-parsing or HTTP
//! dependencies — and the metrics plumbing is strictly observational: a run
//! with `--metrics` is bit-identical to the same run without it.

pub mod args;
pub mod bench;
pub mod ckpt;
pub mod experiment;
pub mod fleet;
pub mod help;
pub mod watch;

/// Runs one CLI invocation (argv without the program name) and returns the
/// process exit code. Split from `main` so integration tests can drive the
/// exact command surface in-process.
pub fn dispatch(argv: &[String]) -> i32 {
    let Some(cmd) = argv.first().map(String::as_str) else {
        println!("{}", help::TOP);
        return 0;
    };
    let rest = &argv[1..];
    match cmd {
        "-h" | "--help" | "help" => {
            println!("{}", help::for_topic(rest.first().map(String::as_str)));
            0
        }
        "run" if rest.iter().any(|a| a == "--method") => {
            with_help(rest, help::RUN, experiment::cmd_run)
        }
        "run" => with_help(rest, help::RUN, fleet::cmd_run),
        "serve" => with_help(rest, help::SERVE, fleet::cmd_serve),
        "device" => with_help(rest, help::DEVICE, fleet::cmd_device),
        "resume" => with_help(rest, help::RESUME, fleet::cmd_resume),
        "ckpt" => with_help(rest, help::CKPT, ckpt::cmd_ckpt),
        "watch" => with_help(rest, help::WATCH, watch::cmd_watch),
        "bench" => with_help(rest, help::BENCH, bench::cmd_bench),
        other => {
            eprintln!("ft: unknown command {other:?}\n");
            eprintln!("{}", help::TOP);
            2
        }
    }
}

fn with_help(rest: &[String], help_text: &str, run: fn(&[String]) -> i32) -> i32 {
    if rest.iter().any(|a| a == "-h" || a == "--help") {
        println!("{help_text}");
        return 0;
    }
    run(rest)
}

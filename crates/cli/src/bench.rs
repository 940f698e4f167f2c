//! `ft bench` — drive the trajectory benches and the regression gate.
//!
//! A thin orchestration layer over the existing harness: `cargo bench -p
//! ft-bench` for the measurement binaries (they write `BENCH_*.json`
//! reports) and `cargo run -p ft-bench --bin bench_check` for the gate over
//! the reports just written — every gate but one absolute `matmul` floor
//! pairs two records of the same run, so nothing committed is read back.

use crate::args::Args;
use std::process::Command;

/// The default bench set: the kernel micro-benchmarks and the end-to-end
/// fleet trajectory (the two the CI bench-smoke job runs).
const DEFAULT_BENCHES: [&str; 2] = ["micro_ops", "fleet_trajectory"];

/// The options `ft bench` accepts.
pub const FLAGS: &[&str] = &["--quick", "--bench", "--check-only"];

pub fn cmd_bench(argv: &[String]) -> i32 {
    let a = Args::new(argv);
    let quick = a.has("--quick");
    let check_only = a.has("--check-only");
    let selected = a.get_all("--bench");
    let benches: Vec<&str> = if selected.is_empty() {
        DEFAULT_BENCHES.to_vec()
    } else {
        selected
    };

    if !check_only {
        for bench in &benches {
            let code = run_cargo(&["bench", "-p", "ft-bench", "--bench", bench], quick);
            if code != 0 {
                eprintln!("ft: bench {bench} failed (exit {code})");
                return code;
            }
        }
    }
    let code = run_cargo(
        &["run", "--release", "-p", "ft-bench", "--bin", "bench_check"],
        quick,
    );
    if code != 0 {
        eprintln!("ft: bench_check failed (exit {code})");
    }
    code
}

fn run_cargo(args: &[&str], quick: bool) -> i32 {
    let mut cmd = Command::new("cargo");
    cmd.args(args);
    if quick {
        cmd.env("FT_BENCH_QUICK", "1");
    }
    println!("ft: cargo {}", args.join(" "));
    match cmd.status() {
        Ok(status) => status.code().unwrap_or(1),
        Err(e) => {
            eprintln!("ft: failed to spawn cargo: {e}");
            1
        }
    }
}

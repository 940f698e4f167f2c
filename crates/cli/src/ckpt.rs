//! `ft ckpt` — list, inspect and diff checkpoint files.
//!
//! `inspect` prints only host-independent state, so its output for a
//! seeded run is byte-stable across machines and thread counts and is
//! pinned by a committed golden file in CI.

use crate::args::{die, Args};
use ft_fl::{Checkpoint, CheckpointSummary};
use std::path::Path;

pub fn cmd_ckpt(argv: &[String]) -> i32 {
    let a = Args::new(argv);
    let positionals = a.positionals();
    let Some((&action, paths)) = positionals.split_first() else {
        die("ft ckpt requires an action: list | inspect | diff");
    };
    match action {
        "list" => cmd_list(paths),
        "inspect" => cmd_inspect(paths),
        "diff" => cmd_diff(paths),
        other => die(&format!(
            "unknown ckpt action {other:?}; expected list | inspect | diff"
        )),
    }
}

fn load(path: &str) -> Checkpoint {
    Checkpoint::load(Path::new(path)).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// One summary line per checkpoint — enough to tell files apart at a
/// glance without the full inspect dump.
fn cmd_list(paths: &[&str]) -> i32 {
    if paths.is_empty() {
        die("ft ckpt list requires at least one path");
    }
    for path in paths {
        let s = load(path).summary();
        println!(
            "{path}: {} round {}/{} | scheduler {} | codec {} | seed {} | epoch {} | sim {:.1}s",
            s.kind,
            s.rounds_done,
            run_field(&s, "cfg.rounds"),
            run_field(&s, "scheduler"),
            run_field(&s, "cfg.codec"),
            run_field(&s, "cfg.seed"),
            s.mask_epoch,
            s.sim_now_secs,
        );
    }
    0
}

/// The run identity's leaves at or under `path`, on one line: the leaf's
/// value, or `field=value` for each leaf below it.
fn run_field(s: &CheckpointSummary, path: &str) -> String {
    let fields = s
        .run
        .iter()
        .filter_map(|(p, v)| match p.strip_prefix(path)? {
            "" => Some(v.clone()),
            below => Some(format!("{}={v}", below.strip_prefix('.')?)),
        });
    fields.collect::<Vec<_>>().join(" ")
}

fn cmd_inspect(paths: &[&str]) -> i32 {
    let [path] = paths else {
        die("ft ckpt inspect requires exactly one path");
    };
    print!("{}", format_inspect(&load(path).summary()));
    0
}

/// Field-level diff; exits 0 when the checkpoints describe identical run
/// state, 1 when they differ (mirrors `diff`'s convention).
fn cmd_diff(paths: &[&str]) -> i32 {
    let [a, b] = paths else {
        die("ft ckpt diff requires exactly two paths");
    };
    let lines = load(a).diff(&load(b));
    if lines.is_empty() {
        println!("checkpoints are identical");
        return 0;
    }
    for line in &lines {
        println!("{line}");
    }
    1
}

/// The deterministic `ft ckpt inspect` rendering. Pinned by an
/// integration test against a committed golden file — formatting changes
/// here must update the golden.
pub fn format_inspect(s: &CheckpointSummary) -> String {
    let mut out = String::new();
    let mut line = |k: &str, v: String| out.push_str(&format!("{k:<24} {v}\n"));
    line("format_version", s.format_version.to_string());
    line("kind", s.kind.to_string());
    line("rounds_done", s.rounds_done.to_string());
    line("mask_epoch", s.mask_epoch.to_string());
    line("sim_now_secs", format!("{:?}", s.sim_now_secs));
    line(
        "history",
        format!(
            "{} evals{}",
            s.history.len(),
            s.history
                .last()
                .map(|v| format!(", last {v:.4}"))
                .unwrap_or_default()
        ),
    );
    line("params", s.params.to_string());
    line("mask_density", format!("{:.4}", s.mask_density));
    line(
        "applied_mask_density",
        format!("{:.4}", s.applied_mask_density),
    );
    line("residual_devices", s.residual_devices.to_string());
    line("timeline_events", s.timeline_events.to_string());
    line("zero_progress_rounds", s.zero_progress_rounds.to_string());
    line("payload_down_bytes", format!("{:?}", s.payload_down_bytes));
    line("payload_up_bytes", format!("{:?}", s.payload_up_bytes));
    line(
        "analytic_comm_bytes",
        format!("{:?}", s.analytic_comm_bytes),
    );
    line("max_round_flops", format!("{:?}", s.max_round_flops));
    line(
        "faults",
        format!(
            "malformed {} | replays {} | disconnects {} | inflated {} | clipped {} | \
             rejected_handshakes {}",
            s.faults.malformed_frames,
            s.faults.replays,
            s.faults.disconnects,
            s.faults.inflated_samples,
            s.faults.clipped_updates,
            s.faults.rejected_handshakes,
        ),
    );
    line("in_flight_tasks", s.in_flight_tasks.to_string());
    line("hook_state_bytes", s.hook_state_bytes.to_string());
    for (path, value) in &s.run {
        line(&format!("run.{path}"), value.clone());
    }
    out
}

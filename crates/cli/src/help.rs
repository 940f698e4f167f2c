//! Help text for `ft` and every subcommand.
//!
//! These strings are part of the CLI's contract: an integration test pins
//! them, and the CI lint job runs every `--help` and expects exit 0. Edit
//! deliberately.

pub const TOP: &str = "\
ft — operate a federated-pruning fleet

USAGE:
    ft <command> [options]

COMMANDS:
    run      Run a fleet in-process (presets: demo | straggler | lab)
    serve    Run the federation server over TCP (or a loopback demo fleet)
    device   Run one TCP device against a listening server
    resume   Continue a checkpointed run (shorthand for run --resume)
    ckpt     Inspect checkpoints: list | inspect | diff
    watch    Tail the live trace-frame stream of a --metrics endpoint
    bench    Run the trajectory benches and the regression gate
    help     Show this message, or `ft help <command>`

Every command accepts --help. Fleet commands accept
--metrics <addr> to serve live Prometheus-style metrics and the
`ft watch` trace stream from the same listener.";

pub const RUN: &str = "\
ft run — run a fleet in-process, or one experiment with --method

USAGE:
    ft run [--preset demo|straggler|lab] [options]
    ft run --method <name> [method options]

PRESETS:
    demo       4 devices x 6 rounds, dense wire, synchronous (default)
    straggler  6-device fast/balanced/slow fleet compared across the
               synchronous, deadline and buffered schedulers
    lab        the CI lab scale: 4 devices x 24 rounds

OPTIONS:
    --devices <n>          Fleet size (demo preset only)
    --rounds <n>           Round count override
    --codec <name>         dense | mask_csr | quant_int8 | top_k
    --aggregator <name>    fedavg | trimmed_mean[:beta] | median | norm_clipped[:tau]
    --byzantine <d:b>      Hostile device (repeatable), e.g. 1:sign_flip:8
    --threads <n>          Worker threads (0 = auto via FT_THREADS)
    --checkpoint <path>    Save a checkpoint every round
    --resume               Resume from --checkpoint if the file exists
    --halt-after <n>       Stop after n rounds (kill emulation)
    --metrics <addr>       Serve live metrics + trace stream, e.g. 127.0.0.1:9090

METHOD OPTIONS (print the RunResult as JSON; no other option is accepted):
    --method <name>        fedtiny | vanilla | adaptive_bn | vanilla+prog |
                           small_model | fedavg | flpqsu | snip | synflow |
                           grasp | prunefl | feddst | lotteryfl
    --dataset <name>       cifar10 (default) | cifar100 | cinic10 | svhn
    --model <name>         resnet18 (default) | vgg11 | small_cnn
    --density <d>          Target density in (0, 1] (default 0.05)
    --preset <scale>       smoke | lab | paper (default lab, or $FT_SCALE)
    --seed <n>             Environment seed (default 0)
    --alpha <a>            Dirichlet non-iid concentration (default 0.5)";

pub const SERVE: &str = "\
ft serve — run the federation server over TCP

USAGE:
    ft serve [--listen <addr> | --demo] [options]

MODES:
    --listen <addr>   Accept real devices on addr (run them with `ft device`)
    --demo            Loopback fleet: server + client threads in one process
                      on an ephemeral port (the default)

The server trusts no device, whether or not --byzantine is given: a bad
handshake is refused and counted, a malformed, replayed or inflated update
is quarantined, and a stream silent for 30 s is dropped. An honest fleet
trips none of it.

OPTIONS:
    --devices <n>          Fleet size (default 4)
    --rounds <n>           Round count (default 6)
    --codec <name>         dense | mask_csr | quant_int8 | top_k
                           (top_k runs without error feedback over TCP)
    --aggregator <name>    fedavg | trimmed_mean[:beta] | median | norm_clipped[:tau]
    --byzantine <d:b>      Hostile device (repeatable), e.g. 3:garbage
    --checkpoint <path>    Save a checkpoint every round
    --resume               Resume from --checkpoint if the file exists
    --halt-after <n>       Stop after n rounds (kill emulation)
    --metrics <addr>       Serve live metrics + trace stream
    --no-verify            Skip the bit-identity check against the
                           in-process reference run";

pub const DEVICE: &str = "\
ft device — run one TCP device against a listening server

USAGE:
    ft device --connect <addr> --device <k> [options]

OPTIONS:
    --devices <n>          Fleet size the server expects (default 4)
    --rounds <n>           Round count (must match the server)
    --codec <name>         Wire codec (must match the server)
    --aggregator <name>    Aggregation rule (must match the server)
    --byzantine <d:b>      Behavior table; if this device is listed it
                           runs the misbehaving client
    --threads <n>          Worker threads (0 = auto via FT_THREADS)";

pub const RESUME: &str = "\
ft resume — continue a checkpointed run

USAGE:
    ft resume --checkpoint <path> [run options]

Shorthand for `ft run --resume --checkpoint <path>`: same presets and
options as `ft run`; the checkpoint must have been written by a run with
the same preset and knobs: its run identity (data recipe, configuration,
scheduler, fleet, evaluation cadence, model) must match, and a refusal
names the first field that differs.";

pub const CKPT: &str = "\
ft ckpt — inspect checkpoint files

USAGE:
    ft ckpt list <path>...          One summary line per checkpoint
    ft ckpt inspect <path>          Deterministic field-by-field digest
    ft ckpt diff <a> <b>            Field-level diff; exit 1 when they differ

`inspect` prints only host-independent state (round, mask epoch, fault
counters, ..., then the run identity leaf by leaf), so its output is stable
across machines and thread counts. `diff` prints one `run.<path>` line per
differing leaf of the run identity.";

pub const WATCH: &str = "\
ft watch — tail the live trace-frame stream

USAGE:
    ft watch <addr> [--limit <n>]

Connects to the --metrics endpoint of a running fleet and prints one line
per device-round trace frame as it arrives. --limit exits after n frames
(useful in scripts); otherwise watch runs until the server closes.";

pub const BENCH: &str = "\
ft bench — run the trajectory benches and the regression gate

USAGE:
    ft bench [--quick] [--bench <name>] [--check-only]

OPTIONS:
    --quick          Set FT_BENCH_QUICK=1 (the CI smoke configuration)
    --bench <name>   Run one bench target (repeatable); default:
                     micro_ops and fleet_trajectory
    --check-only     Skip the benches, only run the bench_check gate

Wraps `cargo bench -p ft-bench` and `cargo run -p ft-bench --bin
bench_check`, so it must run from the workspace root.";

/// Help text for `ft help <topic>`; unknown topics fall back to the
/// top-level summary.
pub fn for_topic(topic: Option<&str>) -> &'static str {
    match topic {
        Some("run") => RUN,
        Some("serve") => SERVE,
        Some("device") => DEVICE,
        Some("resume") => RESUME,
        Some("ckpt") => CKPT,
        Some("watch") => WATCH,
        Some("bench") => BENCH,
        _ => TOP,
    }
}

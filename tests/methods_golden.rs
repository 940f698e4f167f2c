//! Golden record of the method table: every method `ft_bench::run_method`
//! runs, at smoke scale on the CIFAR-10 profile with ResNet18 at d = 0.2,
//! pinned to the exact bits of its `RunResult`.
//!
//! One line per method carries the name, the wire codec and every result
//! field except `train_wall_secs` (host time) as hex bits, so any change in
//! which runner, schedule, cadence, codec or memory model a method gets
//! shows up as a readable one-line diff in `tests/golden/methods_smoke.txt`.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```bash
//! FT_BLESS=1 cargo test --test methods_golden
//! ```

use fedtiny_suite::data::DatasetProfile;
use fedtiny_suite::fl::RunResult;
use ft_bench::{run_method, Method, Scale, ScaleKind};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/methods_smoke.txt"
);

fn render(r: &RunResult) -> String {
    let history: Vec<String> = r
        .history
        .iter()
        .map(|a| format!("{:08x}", a.to_bits()))
        .collect();
    format!(
        "{} codec={} accuracy={:08x} history=[{}] final_density={:08x} \
         max_round_flops={:016x} memory_bytes={:016x} comm_bytes={:016x} \
         payload_comm_bytes={:016x} payload_upload_bytes={:016x} extra_flops={:016x} \
         realized_round_flops={:016x} sim_makespan_secs={:016x}\n",
        r.method,
        r.codec,
        r.accuracy.to_bits(),
        history.join(","),
        r.final_density.to_bits(),
        r.max_round_flops.to_bits(),
        r.memory_bytes.to_bits(),
        r.comm_bytes.to_bits(),
        r.payload_comm_bytes.to_bits(),
        r.payload_upload_bytes.to_bits(),
        r.extra_flops.to_bits(),
        r.realized_round_flops.to_bits(),
        r.sim_makespan_secs.to_bits(),
    )
}

/// Every method runs at smoke scale, a record's `method` field feeds back
/// into `--method` (it is the name the method parses from), and the
/// records match the committed golden bit for bit.
#[test]
fn every_method_matches_its_smoke_golden() {
    let s = Scale::new(ScaleKind::Smoke);
    let env = s.env(DatasetProfile::Cifar10, 0);
    let spec = s.resnet();
    let mut got = String::from(
        "# Golden: every method at smoke scale, CIFAR-10, ResNet18, d = 0.2, env seed 0.\n\
         # f32/f64 fields as hex bits; train_wall_secs (host time) omitted.\n\
         # Regenerate: FT_BLESS=1 cargo test --test methods_golden\n",
    );
    for m in Method::ALL {
        assert_eq!(Method::from_name(m.name()), Some(m));
        let r = run_method(&env, m, &m.config(&env, &spec, 0.2));
        assert_eq!(r.method, m.name());
        assert!((0.0..=1.0).contains(&r.accuracy), "{m:?}");
        got.push_str(&render(&r));
    }
    if std::env::var("FT_BLESS").is_ok() {
        std::fs::write(GOLDEN_PATH, &got).expect("write method golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|_| {
        panic!("missing {GOLDEN_PATH} — run FT_BLESS=1 cargo test --test methods_golden")
    });
    assert_eq!(
        got, want,
        "method golden {GOLDEN_PATH} drifted; if intentional, regenerate with \
         FT_BLESS=1 cargo test --test methods_golden"
    );
}

//! The figure/table grid: `run_grid` returns exactly what direct runs
//! return, in row order, on any pool width; predicates turn records into
//! each verdict; and the `lab` claims CI pins read what they read today.
//!
//! Every test is named `grid_*`; `cargo test --release -p ft-bench grid_ --
//! --include-ignored` also runs the `lab`-scale subset.

use fedtiny::{run_fedtiny, FedTinyConfig};
use ft_bench::claims::{
    makespan_order, nearest_class_mean_accuracy, no_worse, Claim, Verdict, SEPARABLE,
};
use ft_bench::grid::{deal_order, run_grid_on, Arm, Row};
use ft_bench::methods::fedtiny_config;
use ft_bench::{paper, run_method, Method, Scale, ScaleKind};
use ft_data::DatasetProfile;
use ft_fl::{ExperimentEnv, RunResult};
use ft_runtime::Runtime;
use std::sync::Arc;
use std::time::Instant;

/// A record as bits, wall-clock aside.
fn bits(r: &RunResult) -> String {
    format!(
        "{:?}",
        RunResult {
            train_wall_secs: 0.0,
            ..r.clone()
        }
    )
}

/// A `smoke` grid over two environments mixing `Method` and FedTiny config
/// rows, on a small CNN; the dense row is dealt first, so the dealing order
/// is not the row order.
fn smoke_rows() -> Vec<Row> {
    let scale = Scale::new(ScaleKind::Smoke);
    let spec = scale.small_cnn();
    let a = Arc::new(scale.env(DatasetProfile::Cifar10, 5));
    let b = Arc::new(scale.env(DatasetProfile::Svhn, 6));
    let pool = FedTinyConfig {
        pool_size: 2,
        ..fedtiny_config(&b, &spec, 0.1)
    };
    vec![
        Row::method(&a, spec, Method::Snip, 0.05),
        Row::fedtiny(&b, pool),
        Row::method(&b, spec, Method::FedTiny, 0.3),
        Row::method(&a, spec, Method::FedAvg, 1.0),
    ]
}

#[test]
fn grid_records_equal_direct_runs_at_every_pool_width() {
    let rows = smoke_rows();
    let direct: Vec<String> = (rows.iter())
        .map(|row| match &row.arm {
            Arm::Method(spec, m, d) => run_method(&row.env, spec, *m, *d),
            Arm::FedTiny(cfg) => run_fedtiny(&row.env, cfg),
        })
        .map(|r| bits(&r))
        .collect();
    for threads in [1, 2, 4] {
        let grid: Vec<String> = (run_grid_on(&rows, &Runtime::exact(threads)).iter())
            .map(bits)
            .collect();
        assert_eq!(grid, direct, "{threads} threads");
    }
}

#[test]
fn grid_records_come_back_in_row_order() {
    let rows = smoke_rows();
    let order = deal_order(&rows);
    assert_eq!(order[0], 3, "the dense row is the longest");
    assert_ne!(order, (0..rows.len()).collect::<Vec<_>>());
    let methods: Vec<String> = (run_grid_on(&rows, &Runtime::exact(2)).into_iter())
        .map(|r| r.method)
        .collect();
    assert_eq!(methods, ["snip", "fedtiny", "fedtiny", "fedavg"]);
}

/// A hand-built record: accuracy `acc`, its history `history`.
fn record(acc: f32, history: &[f32]) -> RunResult {
    RunResult {
        method: "hand".into(),
        accuracy: acc,
        history: history.to_vec(),
        final_density: 0.1,
        max_round_flops: 0.0,
        memory_bytes: 0.0,
        comm_bytes: 0.0,
        payload_comm_bytes: 0.0,
        payload_upload_bytes: 0.0,
        codec: "dense".into(),
        extra_flops: 0.0,
        realized_round_flops: 0.0,
        train_wall_secs: 0.0,
        sim_makespan_secs: 0.0,
    }
}

fn compare(ncm: f32, a: &RunResult, b: &RunResult) -> Verdict {
    let pair = (("a".to_string(), a), ("b".to_string(), b));
    no_worse("hand", "test", ncm, 0.01, &[pair]).verdict
}

#[test]
fn grid_predicates_return_every_verdict() {
    let (better, worse) = (record(0.6, &[0.4, 0.6]), record(0.5, &[0.3, 0.5]));
    let within = record(0.595, &[0.2, 0.595]);
    assert_eq!(compare(0.5, &better, &worse), Verdict::Reproduced);
    assert_eq!(compare(0.5, &within, &better), Verdict::Reproduced);
    assert_eq!(compare(0.5, &worse, &better), Verdict::NotReproduced);
    assert_eq!(
        compare(SEPARABLE, &better, &worse),
        Verdict::Inconclusive("task linearly separable".into())
    );
    assert_eq!(makespan_order(3.0, 2.0, 1.0).verdict, Verdict::Reproduced);
    assert_eq!(
        makespan_order(3.0, 1.0, 2.0).verdict,
        Verdict::NotReproduced
    );
}

#[test]
fn grid_identical_arms_are_inconclusive_not_a_tie() {
    let a = record(0.5, &[0.25, 0.5]);
    let b = RunResult {
        method: "other".into(),
        extra_flops: 7.0,
        ..a.clone()
    };
    match compare(0.5, &a, &b) {
        Verdict::Inconclusive(why) => assert!(why.contains("same model"), "{why}"),
        v => panic!("{v:?}"),
    }
    // One evaluation apart is a different model: a real (tied) verdict.
    let c = record(0.5, &[0.3, 0.5]);
    assert_eq!(compare(0.5, &a, &c), Verdict::Reproduced);
}

/// Today's synthetic task is solved by nearest-class-mean at `lab` scale, so
/// every accuracy claim there is inconclusive. A task that needs a network
/// flips this on purpose.
#[test]
fn grid_capacity_guard_reads_lab_cifar10_as_separable() {
    let env: ExperimentEnv = Scale::new(ScaleKind::Lab).env(DatasetProfile::Cifar10, 5);
    let ncm = nearest_class_mean_accuracy(&env);
    assert!(ncm >= SEPARABLE, "{ncm}");
}

fn verdict<'a>(claims: &'a [Claim], id: &str) -> &'a Verdict {
    let claim = claims.iter().find(|c| c.id == id);
    &claim.unwrap_or_else(|| panic!("no claim {id}")).verdict
}

/// Three predicates at `lab` scale, as the benches print them: Fig. 4's
/// accuracy claims, Table I's cost claims and the schedulers' makespans.
#[test]
#[ignore = "lab scale: tens of seconds in release; CI runs it with --include-ignored"]
fn grid_lab_claims_read_as_committed() {
    let scale = Scale::new(ScaleKind::Lab);
    let started = Instant::now();
    let separable = Verdict::Inconclusive("task linearly separable".into());
    let fig4 = paper::fig4(&scale).claims;
    for id in [
        "fig4.each_module_helps",
        "fig4.progressive_needs_adaptive_bn",
    ] {
        assert_eq!(verdict(&fig4, id), &separable, "{id}");
    }
    let table1 = paper::table1(&scale).claims;
    for model in ["ResNet18", "VGG11"] {
        let memory = format!("table1.memory_order.{model}");
        assert_eq!(verdict(&table1, &memory), &Verdict::Reproduced, "{memory}");
        // PruneFL's full-gradient rounds cost more than dense training here.
        let flops = format!("table1.flops_order.{model}");
        assert_eq!(verdict(&table1, &flops), &Verdict::NotReproduced, "{flops}");
        let best = format!("table1.fedtiny_best.{model}");
        assert_eq!(verdict(&table1, &best), &separable, "{best}");
    }
    let makespan = paper::heterogeneity(&scale).claims;
    let id = "heterogeneity.makespan_order";
    assert_eq!(verdict(&makespan, id), &Verdict::Reproduced);
    eprintln!(
        "lab claims subset: {:.1} s",
        started.elapsed().as_secs_f64()
    );
}

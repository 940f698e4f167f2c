//! The figure/table grid: `run_grid` returns exactly what direct runs
//! return, in row order, on any pool width; predicates turn records into
//! each verdict; and the `lab` claims CI pins read what they read today.
//!
//! Every test is named `grid_*`; `cargo test --release -p ft-bench grid_ --
//! --include-ignored` also runs the `lab`-scale subset.

use fedtiny::run_fedtiny;
use ft_bench::claims::{
    makespan_order, nearest_class_mean_accuracy, no_worse, Claim, Verdict, SEPARABLE,
};
use ft_bench::grid::{deal_order, run_grid_on, Row};
use ft_bench::{paper, run_method, Method, Scale, ScaleKind};
use ft_data::DatasetProfile;
use ft_fl::{Codec, ExperimentEnv, RunResult};
use ft_metrics::ExtraMemory;
use ft_pruning::{l1_oneshot_mask, run_with_fixed_mask};
use ft_runtime::Runtime;
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

/// A `smoke` grid over two environments on a small CNN: methods under
/// their own configs, FedTiny with a pool of its own, and FL-PQSU with its
/// codec overridden (`QuantInt8`, `TopK` with error feedback). The dense row
/// is dealt first, so the dealing order is not the row order.
fn smoke_rows() -> Vec<Row> {
    let scale = Scale::new(ScaleKind::Smoke);
    let spec = scale.small_cnn();
    let a = scale.env(DatasetProfile::Cifar10, 5);
    let b = scale.env(DatasetProfile::Svhn, 6);
    let mut pool = Row::method(&b, spec, Method::FedTiny, 0.1);
    pool.cfg.pool_size = 2;
    let mut int8 = Row::method(&a, spec, Method::FlPqsu, 0.05);
    int8.cfg.codec = Codec::QuantInt8;
    let mut topk = Row::method(&b, spec, Method::FlPqsu, 0.3);
    topk.cfg.codec = Codec::TopK {
        k_frac: 0.1,
        error_feedback: true,
    };
    vec![
        Row::method(&a, spec, Method::Snip, 0.05),
        pool,
        Row::method(&b, spec, Method::FedTiny, 0.3),
        Row::method(&a, spec, Method::FedAvg, 1.0),
        int8,
        topk,
    ]
}

/// A row run directly: FedTiny through its own runner, an FL-PQSU row whose
/// codec is overridden as its one-shot L1 mask on the environment under
/// that codec, and every other row through [`run_method`].
fn direct(row: &Row) -> RunResult {
    let (spec, cfg) = (&row.cfg.model, &row.cfg);
    match row.method {
        Method::FedTiny => run_fedtiny(&row.env, cfg),
        Method::FlPqsu if cfg.codec != Method::FlPqsu.codec() => {
            let env = row.env.clone().with_codec(cfg.codec);
            let mask = l1_oneshot_mask(env.build_model(spec).as_ref(), cfg.d_target);
            let extra = ExtraMemory::None;
            run_with_fixed_mask(&env, spec, &mask, "flpqsu", extra, cfg.eval_every)
        }
        m => run_method(&row.env, m, cfg),
    }
}

#[test]
fn grid_records_equal_direct_runs_at_every_pool_width() {
    let rows = smoke_rows();
    let direct: Vec<String> = rows.iter().map(|row| bits(&direct(row))).collect();
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
    let records = run_grid_on(&rows, &Runtime::exact(2));
    let methods: Vec<&str> = records.iter().map(|r| &*r.method).collect();
    assert_eq!(
        methods,
        ["snip", "fedtiny", "fedtiny", "fedavg", "flpqsu", "flpqsu"]
    );
    let codecs: Vec<&str> = records.iter().map(|r| &*r.codec).collect();
    assert_eq!(codecs[3..], ["dense", "quant_int8", "top_k"]);
}

/// A small-model row is dealt by the small CNN it runs, not by the ResNet18
/// its config names, so a FedTiny row on that ResNet18 goes first.
#[test]
fn grid_deals_small_model_rows_by_the_model_they_run() {
    let scale = Scale::new(ScaleKind::Smoke);
    let env = scale.env(DatasetProfile::Cifar10, 5);
    let rows =
        [Method::SmallModel, Method::FedTiny].map(|m| Row::method(&env, scale.resnet(), m, 0.1));
    assert_eq!(deal_order(&rows), [1, 0]);
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

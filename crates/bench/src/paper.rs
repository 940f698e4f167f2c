//! The paper's figures and tables as grids. Each artifact's function runs
//! its [`Row`]s on [`run_grid`] at a [`Scale`] and returns the [`Report`]
//! its records make: the paper-style tables and the checked [`Claim`]s.

use crate::claims::{self, makespan_order, nearest_class_mean_accuracy as ncm, Claim, Named};
use crate::claims::{nearest_class_mean_of, Report, ACCURACY_TOLERANCE};
use crate::grid::{run_grid, Row};
use crate::methods::Method;
use crate::table::{acc, factor, mb, Table};
use crate::{Scale, ScaleKind};
use fedtiny::{coarse_prune, Granularity, ProgressiveConfig};
use ft_data::DatasetProfile::{Cifar10, Cifar100, Cinic10, Svhn};
use ft_fl::{fleet_spread_deadline, DeviceProfile, RunResult, Scheduler};
use ft_nn::sparse_layout;
use ft_sparse::PruneSchedule;
use std::fmt::Display;

/// The records of a `rows × cols` grid, row-major, the labels naming them,
/// and the artifact and nearest-class-mean accuracy its claims are judged
/// with.
struct Cells<'a> {
    artifact: &'static str,
    ncm: f32,
    rows: Vec<String>,
    cols: Vec<String>,
    records: &'a [RunResult],
}

impl<'a> Cells<'a> {
    fn at(&self, (i, j): (usize, usize)) -> Named<'a> {
        let name = format!("{} {}", self.rows[i], self.cols[j]);
        (name, &self.records[i * self.cols.len() + j])
    }

    /// The grid's top-1 accuracies, `corner` naming the row labels.
    fn table(&self, title: &str, corner: &str) -> Table {
        let header = [corner].into_iter().chain(self.cols.iter().map(|c| &**c));
        let mut table = Table::new(title, header);
        for (label, records) in self.rows.iter().zip(self.records.chunks(self.cols.len())) {
            let cells = records.iter().map(|r| acc(r.accuracy));
            table.row([label.clone()].into_iter().chain(cells).collect());
        }
        table
    }

    /// [`claims::no_worse`] over pairs of `(row, col)` cells.
    fn no_worse<P>(&self, id: &str, pairs: P) -> Claim
    where
        P: IntoIterator<Item = ((usize, usize), (usize, usize))>,
    {
        let pairs: Vec<_> = (pairs.into_iter())
            .map(|(a, b)| (self.at(a), self.at(b)))
            .collect();
        claims::no_worse(id, self.artifact, self.ncm, ACCURACY_TOLERANCE, &pairs)
    }
}

fn labels<T: Display>(xs: impl IntoIterator<Item = T>) -> Vec<String> {
    xs.into_iter().map(|x| x.to_string()).collect()
}

/// Fig. 3: top-1 accuracy of FedTiny and the sparse baselines across
/// densities on all four dataset profiles (ResNet18), and FedTiny's analytic
/// against realized round FLOPs. One [`fig3_claim`] per profile.
pub fn fig3(scale: &Scale) -> Report {
    let (spec, ds) = (scale.resnet(), scale.density_grid());
    let profiles = [Cifar10, Svhn, Cifar100, Cinic10];
    let envs = profiles.map(|p| scale.env(p, 3));
    let rows: Vec<Row> = (envs.iter())
        .flat_map(|env| ds.iter().map(move |&d| (env, d)))
        .flat_map(|(env, d)| Method::FIGURE3.map(|m| Row::method(env, spec, m, d)))
        .collect();
    let records = run_grid(&rows);
    let mut report = Report::default();
    let per_profile = records.chunks(ds.len() * Method::FIGURE3.len());
    for ((profile, env), records) in profiles.iter().zip(&envs).zip(per_profile) {
        let cells = Cells {
            artifact: "Fig. 3",
            ncm: ncm(env),
            rows: labels(&ds),
            cols: labels(Method::FIGURE3.map(Method::name)),
            records,
        };
        let name = profile.name();
        let title = format!("Fig. 3 — top-1 accuracy vs density ({name}, ResNet18)");
        report.tables.push(cells.table(&title, "density"));
        let title = format!(
            "Fig. 3 cost check — analytic vs realized per-round FLOPs and wall-clock \
             (FedTiny, {name}, ResNet18)"
        );
        let header = [
            "density",
            "analytic_flops",
            "realized_flops",
            "train_wall_s",
        ];
        let mut cost = Table::new(&title, header);
        for (i, d) in cells.rows.iter().enumerate() {
            let r = cells.at((i, 5)).1;
            cost.row(vec![
                d.clone(),
                format!("{:.3e}", r.max_round_flops),
                format!("{:.3e}", r.realized_round_flops),
                format!("{:.2}", r.train_wall_secs),
            ]);
        }
        report.tables.push(cost);
        let last = ds.len() - 1;
        let baselines = (0..5).map(|j| cells.at((last, j))).collect();
        let claim = fig3_claim(name, cells.ncm, cells.at((last, 5)), baselines);
        report.claims.push(claim);
    }
    report
}

/// Fig. 3's claim on one profile: at the sweep's lowest density FedTiny
/// reads no worse than any baseline (the paper: FedTiny dominates below
/// d = 1e-2, where the at-init baselines collapse).
pub fn fig3_claim(profile: &str, ncm: f32, fedtiny: Named, baselines: Vec<Named>) -> Claim {
    let pairs: Vec<_> = (baselines.into_iter())
        .map(|b| (fedtiny.clone(), b))
        .collect();
    let id = format!("fig3.fedtiny_best.{profile}");
    claims::no_worse(&id, "Fig. 3", ncm, ACCURACY_TOLERANCE, &pairs)
}

/// Fig. 4's rows: the four ablation arms at every density of the scale's
/// grid, VGG11 on CIFAR-10.
pub fn fig4_rows(scale: &Scale) -> Vec<Row> {
    let env = scale.env(Cifar10, 5);
    (scale.density_grid().into_iter())
        .flat_map(|d| Method::ABLATION.map(|m| Row::method(&env, scale.vgg(), m, d)))
        .collect()
}

/// Fig. 4: FedTiny's two modules ablated ([`fig4_rows`]). Claims: each
/// module alone reads no worse than vanilla selection at every density, and
/// at the lowest density progressive pruning needs adaptive BN selection
/// (FedTiny no worse than vanilla selection + progressive).
pub fn fig4(scale: &Scale) -> Report {
    let rows = fig4_rows(scale);
    let records = run_grid(&rows);
    let cells = Cells {
        artifact: "Fig. 4",
        ncm: ncm(&rows[0].env),
        rows: labels(scale.density_grid()),
        cols: labels(Method::ABLATION.map(Method::name)),
        records: &records,
    };
    let last = cells.rows.len() - 1;
    let helps = (0..=last).flat_map(|i| [((i, 1), (i, 0)), ((i, 2), (i, 0))]);
    let needs = [((last, 3), (last, 2))];
    Report {
        tables: vec![cells.table("Fig. 4 — module ablation (VGG11, CIFAR-10)", "density")],
        claims: vec![
            cells.no_worse("fig4.each_module_helps", helps),
            cells.no_worse("fig4.progressive_needs_adaptive_bn", needs),
        ],
    }
}

/// Fig. 5: candidate pool size against accuracy and the selection's analytic
/// communication ([`coarse_prune`], the selection each run makes), VGG11 on
/// CIFAR-10. Claims: at each density a pool larger than the first with
/// `d · pool ≥ 0.1` (the `C* = 0.1/d` rule) buys no accuracy, and the
/// largest pool's selection communicates more than the smallest's.
pub fn fig5(scale: &Scale) -> Report {
    let env = scale.env(Cifar10, 6);
    let (spec, ds) = (scale.vgg(), scale.table_densities());
    let pools: &[usize] = match scale.kind {
        ScaleKind::Smoke => &[2, 4],
        _ => &[2, 4, 8, 16],
    };
    let rows: Vec<Row> = (ds.iter())
        .flat_map(|&d| pools.iter().map(move |&c| (d, c)))
        .map(|(d, pool_size)| {
            let mut row = Row::method(&env, spec, Method::FedTiny, d);
            row.cfg.pool_size = pool_size;
            row
        })
        .collect();
    let records = run_grid(&rows);
    let selection_comm: Vec<f64> = (rows.iter())
        .map(|row| coarse_prune(&row.env, &row.cfg).1.comm_bytes)
        .collect();
    let cells = Cells {
        artifact: "Fig. 5",
        ncm: ncm(&env),
        rows: labels(ds.iter().map(|d| format!("d={d}"))),
        cols: labels(pools.iter().map(|c| format!("pool={c}"))),
        records: &records,
    };
    let mut table = Table::new(
        "Fig. 5 — pool size vs accuracy and selection communication (VGG11, CIFAR-10)",
        ["density", "pool", "d*pool", "top1", "selection_comm"],
    );
    let (last, mut saturated, mut comm) = (pools.len() - 1, Vec::new(), Vec::new());
    for (i, &d) in ds.iter().enumerate() {
        let comm_of = |j: usize| selection_comm[i * pools.len() + j];
        for (j, &c) in pools.iter().enumerate() {
            table.row(vec![
                format!("{d}"),
                format!("{c}"),
                format!("{:.3}", d * c as f32),
                acc(cells.at((i, j)).1.accuracy),
                mb(comm_of(j)),
            ]);
        }
        let first = pools.iter().position(|&c| d * c as f32 >= 0.1);
        saturated.extend(first.filter(|&j| j < last).map(|j| ((i, j), (i, last))));
        for j in [0, last] {
            comm.push((cells.at((i, j)).0 + " selection_mb", comm_of(j) / 1e6));
        }
    }
    let grows = comm.chunks(2).all(|pair| pair[1].1 > pair[0].1);
    Report {
        tables: vec![table],
        claims: vec![
            cells.no_worse("fig5.saturates_at_c_star", saturated),
            Claim::judged("fig5.comm_grows_with_pool", "Fig. 5", comm, 0.0, grows),
        ],
    }
}

/// The density Fig. 6 and Table IV run at: the paper's 1 %, or the lowest
/// of the scale's table densities.
fn low_density(scale: &Scale) -> f32 {
    match scale.kind {
        ScaleKind::Paper => 0.01,
        _ => *scale.table_densities().last().expect("nonempty"),
    }
}

/// Fig. 6: accuracy of SynFlow, PruneFL and FedTiny as the Dirichlet α falls
/// (more non-iid), ResNet18 on CIFAR-10. Claim: FedTiny reads no worse than
/// either baseline at every α.
pub fn fig6(scale: &Scale) -> Report {
    let (spec, d) = (scale.resnet(), low_density(scale));
    let alphas = [0.3f64, 0.5, 0.7, 1.0];
    let methods = [Method::SynFlow, Method::PruneFl, Method::FedTiny];
    let envs = alphas.map(|a| scale.env_with_alpha(Cifar10, a, 9));
    let rows: Vec<Row> = (envs.iter())
        .flat_map(|env| methods.map(|m| Row::method(env, spec, m, d)))
        .collect();
    let records = run_grid(&rows);
    let cells = Cells {
        artifact: "Fig. 6",
        ncm: nearest_class_mean_of(&envs),
        rows: labels(alphas),
        cols: labels(methods.map(Method::name)),
        records: &records,
    };
    let title = format!("Fig. 6 — accuracy vs non-iid degree (ResNet18, CIFAR-10, d={d})");
    let best = (0..alphas.len()).flat_map(|i| [((i, 2), (i, 0)), ((i, 2), (i, 1))]);
    Report {
        tables: vec![cells.table(&title, "alpha")],
        claims: vec![cells.no_worse("fig6.fedtiny_best", best)],
    }
}

/// Heterogeneity (an extension beyond the paper): FedTiny at d = 0.1 under
/// the three round schedulers on one mixed fast/balanced/slow fleet, the
/// deadline strictly inside the fleet's spread at that density. Claim:
/// [`makespan_order`].
pub fn heterogeneity(scale: &Scale) -> Report {
    let (seed, d_target, spec) = (7, 0.1, scale.resnet());
    let env = scale.env(Cifar10, seed);
    let env = env
        .clone()
        .with_fleet(DeviceProfile::fleet_mixed(env.num_devices()));
    let deadline_secs = {
        let model = env.build_model(&spec);
        let densities = vec![d_target; sparse_layout(model.as_ref()).num_layers()];
        fleet_spread_deadline(&env, &model.arch(), &densities)
    };
    let buffer_k = (env.num_devices() / 2).max(1);
    let policies = [
        Scheduler::Synchronous,
        Scheduler::Deadline { deadline_secs },
        Scheduler::Buffered { buffer_k },
    ];
    let rows = policies.map(|policy| {
        let env = env.clone().with_scheduler(policy);
        Row::method(&env, spec, Method::FedTiny, d_target)
    });
    let records = run_grid(&rows);
    let mut table = Table::new(
        &format!(
            "Fig. heterogeneity — accuracy vs simulated makespan \
             (FedTiny d={d_target}, mixed fleet, seed {seed}, deadline {deadline_secs:.1}s, \
             K={buffer_k})"
        ),
        [
            "scheduler",
            "top1",
            "density",
            "sim_makespan_s",
            "vs_sync",
            "comm",
        ],
    );
    let makespans = [0, 1, 2].map(|i| records[i].sim_makespan_secs);
    for ((policy, r), makespan) in policies.iter().zip(&records).zip(makespans) {
        table.row(vec![
            policy.name().to_string(),
            acc(r.accuracy),
            format!("{:.3}", r.final_density),
            format!("{makespan:.1}"),
            format!("{:.2}x", makespan / makespans[0].max(f64::MIN_POSITIVE)),
            mb(r.comm_bytes),
        ]);
    }
    let [synchronous, deadline, buffered] = makespans;
    Report {
        tables: vec![table],
        claims: vec![makespan_order(synchronous, deadline, buffered)],
    }
}

/// Table I: top-1 accuracy, max per-round training FLOPs (× dense) and
/// device memory of every method on ResNet18 and VGG11 (CIFAR-10), dense
/// FedAvg first. Claims per model, at the lowest density: FedTiny no worse
/// than any baseline; and on memory and on FLOPs FedTiny pays less than
/// PruneFL, PruneFL less than LotteryFL, and LotteryFL at least what dense
/// training does (the paper at d = 0.01 on ResNet18: 0.014×, 0.34× and 1×
/// dense FLOPs; 2.79, 46.58 and 90.91 MB).
pub fn table1(scale: &Scale) -> Report {
    let env = scale.env(Cifar10, 4);
    let methods = [
        Method::FlPqsu,
        Method::Snip,
        Method::SynFlow,
        Method::PruneFl,
        Method::FedDst,
        Method::LotteryFl,
        Method::FedTiny,
    ];
    let ds = scale.table_densities();
    let models = [("ResNet18", scale.resnet()), ("VGG11", scale.vgg())];
    let arms = [(Method::FedAvg, 1.0)]
        .into_iter()
        .chain((ds.iter()).flat_map(|&d| methods.map(|m| (m, d))));
    let rows: Vec<Row> = (models.iter())
        .flat_map(|&(_, spec)| arms.clone().map(move |(m, d)| (spec, m, d)))
        .map(|(spec, m, d)| Row::method(&env, spec, m, d))
        .collect();
    let records = run_grid(&rows);
    let mut report = Report::default();
    let per_model = records.chunks(1 + ds.len() * methods.len());
    for ((model, _), records) in models.iter().zip(per_model) {
        let (dense, sparse) = records.split_first().expect("the dense row");
        let cells = Cells {
            artifact: "Table I",
            ncm: ncm(&env),
            rows: labels(&ds),
            cols: labels(methods.map(Method::name)),
            records: sparse,
        };
        let title = format!("Table I — accuracy and training cost ({model}, CIFAR-10)");
        let mut table = Table::new(&title, ["density", "method", "top1", "max_flops", "memory"]);
        table.row(vec![
            "1".into(),
            "fedavg".into(),
            acc(dense.accuracy),
            format!("1x({:.2e})", dense.max_round_flops),
            mb(dense.memory_bytes),
        ]);
        for (i, d) in cells.rows.iter().enumerate() {
            for (j, method) in cells.cols.iter().enumerate() {
                let r = cells.at((i, j)).1;
                table.row(vec![
                    d.clone(),
                    method.clone(),
                    acc(r.accuracy),
                    factor(r.max_round_flops, dense.max_round_flops),
                    mb(r.memory_bytes),
                ]);
            }
        }
        report.tables.push(table);
        let last = ds.len() - 1;
        let best = (0..6).map(|j| ((last, 6), (last, j)));
        let id = format!("table1.fedtiny_best.{model}");
        report.claims.push(cells.no_worse(&id, best));
        for (k, cost) in ["memory", "flops"].into_iter().enumerate() {
            let of = |r: &RunResult| [r.memory_bytes, r.max_round_flops][k];
            let arms = [6, 3, 5].map(|j| cells.at((last, j)));
            let [fedtiny, prunefl, lotteryfl] = arms.each_ref().map(|(_, r)| of(r) / of(dense));
            let holds = fedtiny < prunefl && prunefl < lotteryfl && lotteryfl >= 1.0;
            let ratios = arms.map(|(name, r)| (name + "/dense", of(r) / of(dense)));
            let id = format!("table1.{cost}_order.{model}");
            report
                .claims
                .push(Claim::judged(id, "Table I", ratios.into(), 0.0, holds));
        }
    }
    report
}

/// Table III: FedTiny's pruning schedule ablated — granularity, unit order
/// and frequency (ΔR / R_stop scaled to the run's rounds) — on VGG11,
/// CIFAR-10. Claim: backward block-wise adjustment at the paper's 10/100
/// reads no worse than any other schedule at every density.
pub fn table3(scale: &Scale) -> Report {
    let env = scale.env(Cifar10, 8);
    let (spec, ds, rounds) = (scale.vgg(), scale.table_densities(), env.cfg.rounds);
    // (label, granularity, backward, ΔR divisor, R_stop divisor).
    let schedules = [
        ("layer 5/100", Granularity::Layer, false, 60, 3),
        ("layer(b) 5/100", Granularity::Layer, true, 60, 3),
        ("block 10/100", Granularity::Block, false, 30, 3),
        ("block(b) 10/100", Granularity::Block, true, 30, 3),
        ("block(b) 5/50", Granularity::Block, true, 60, 6),
        ("entire 50/100", Granularity::Entire, false, 6, 3),
        ("entire 25/50", Granularity::Entire, false, 12, 6),
    ];
    let rows: Vec<Row> = (schedules.iter())
        .flat_map(|&schedule| ds.iter().map(move |&d| (schedule, d)))
        .map(|((_, granularity, backward_order, dr_div, rs_div), d)| {
            let delta_r = (rounds / dr_div).max(1);
            let schedule = PruneSchedule {
                delta_r,
                r_stop: (rounds / rs_div).max(1),
                local_iters: env.cfg.local_epochs,
            };
            let mut row = Row::method(&env, spec, Method::FedTiny, d);
            row.cfg.progressive = Some(ProgressiveConfig {
                schedule,
                granularity,
                backward_order,
                start_round: delta_r,
            });
            row
        })
        .collect();
    let records = run_grid(&rows);
    let cells = Cells {
        artifact: "Table III",
        ncm: ncm(&env),
        rows: labels(schedules.map(|s| s.0)),
        cols: labels(ds.iter().map(|d| format!("d={d}"))),
        records: &records,
    };
    let others = (0..schedules.len()).filter(|&i| i != 3);
    let best = others.flat_map(|i| (0..ds.len()).map(move |j| ((3, j), (i, j))));
    let title = "Table III — pruning scheduling strategies (VGG11, CIFAR-10)";
    Report {
        tables: vec![cells.table(title, "schedule")],
        claims: vec![cells.no_worse("table3.block_backward_best", best)],
    }
}

/// The methods of Tables IV and V: two pruning baselines, the dense small
/// model sized like ResNet18 at 1 % and FedTiny.
const SMALL_MODEL_TABLES: [Method; 4] = [
    Method::SynFlow,
    Method::PruneFl,
    Method::SmallModel,
    Method::FedTiny,
];

/// Table IV: pruned ResNet18 against the dense small model on all four
/// dataset profiles. Claim: FedTiny reads no worse than the small model on
/// every profile.
pub fn table4(scale: &Scale) -> Report {
    let (spec, d) = (scale.resnet(), low_density(scale));
    let profiles = [Cifar10, Cinic10, Svhn, Cifar100];
    let envs = profiles.map(|p| scale.env(p, 10));
    let rows: Vec<Row> = (SMALL_MODEL_TABLES.iter())
        .flat_map(|&m| envs.iter().map(move |env| Row::method(env, spec, m, d)))
        .collect();
    let records = run_grid(&rows);
    let cells = Cells {
        artifact: "Table IV",
        ncm: nearest_class_mean_of(&envs),
        rows: labels(SMALL_MODEL_TABLES.map(Method::name)),
        cols: labels(profiles.map(|p| p.name())),
        records: &records,
    };
    let title = format!("Table IV — ResNet18 at d={d} vs small dense model");
    let beats = (0..profiles.len()).map(|j| ((3, j), (2, j)));
    Report {
        tables: vec![cells.table(&title, "method")],
        claims: vec![cells.no_worse("table4.fedtiny_beats_small_model", beats)],
    }
}

/// Table V: pruned ResNet18 across densities against the dense small model
/// on CIFAR-10. Claims: FedTiny reads no worse than the small model at every
/// density, and at the lowest the small model reads no worse than SynFlow
/// and PruneFL.
pub fn table5(scale: &Scale) -> Report {
    let env = scale.env(Cifar10, 11);
    let ds = match scale.kind {
        ScaleKind::Paper => vec![0.01, 0.005, 0.003, 0.001],
        _ => scale.density_grid(),
    };
    let rows: Vec<Row> = (SMALL_MODEL_TABLES.iter())
        .flat_map(|&m| ds.iter().map(move |&d| (m, d)))
        .map(|(m, d)| Row::method(&env, scale.resnet(), m, d))
        .collect();
    let records = run_grid(&rows);
    let cells = Cells {
        artifact: "Table V",
        ncm: ncm(&env),
        rows: labels(SMALL_MODEL_TABLES.map(Method::name)),
        cols: labels(ds.iter().map(|d| format!("d={d}"))),
        records: &records,
    };
    let last = ds.len() - 1;
    let beats = (0..ds.len()).map(|j| ((3, j), (2, j)));
    let weak = [((2, last), (0, last)), ((2, last), (1, last))];
    let title = "Table V — ResNet18 vs small model across densities (CIFAR-10)";
    Report {
        tables: vec![cells.table(title, "method")],
        claims: vec![
            cells.no_worse("table5.fedtiny_beats_small_model", beats),
            cells.no_worse("table5.small_model_beats_weak_pruning", weak),
        ],
    }
}

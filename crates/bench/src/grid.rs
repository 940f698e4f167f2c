//! The grid every figure and table bench runs: a list of [`Row`]s, each one
//! independent run, dealt over the process-wide worker pool.
//!
//! [`run_grid`] hands the rows to [`Runtime::from_env`]'s pool (so
//! `FT_THREADS` sets its width) longest first, and each row runs on the
//! kernel runtime [`thread_budget`] leaves it: one thread when rows run side
//! by side, the whole pool when they cannot. Every run is bit-identical on
//! any runtime and each row writes its own slot, so neither the width nor
//! the dealing order moves a bit of the records, which come back in row
//! order.

use crate::methods::{run_method, Method};
use fedtiny::{run_fedtiny, FedTinyConfig};
use ft_fl::{thread_budget, ExperimentEnv, ModelSpec, RunResult};
use ft_metrics::forward_flops_dense;
use ft_runtime::Runtime;
use std::sync::Arc;

/// What a row runs, on which model.
#[derive(Clone, Debug)]
pub enum Arm {
    /// A method of [`Method`]'s table on a model at a target density, as
    /// [`run_method`] runs it.
    Method(ModelSpec, Method, f32),
    /// FedTiny under a config of its own (its model, a pool size, a
    /// schedule).
    FedTiny(FedTinyConfig),
}

/// One run of a grid: an environment, shared by every row built on it, and
/// an arm.
#[derive(Clone, Debug)]
pub struct Row {
    /// Data, fleet and federated config.
    pub env: Arc<ExperimentEnv>,
    /// The model, the method and its settings.
    pub arm: Arm,
}

impl Row {
    /// `method` at density `d` on `spec`.
    pub fn method(env: &Arc<ExperimentEnv>, spec: ModelSpec, method: Method, d: f32) -> Self {
        let arm = Arm::Method(spec, method, d);
        Row {
            env: Arc::clone(env),
            arm,
        }
    }

    /// FedTiny under `cfg`.
    pub fn fedtiny(env: &Arc<ExperimentEnv>, cfg: FedTinyConfig) -> Self {
        let arm = Arm::FedTiny(cfg);
        Row {
            env: Arc::clone(env),
            arm,
        }
    }

    fn run_in(&self, env: &ExperimentEnv) -> RunResult {
        match &self.arm {
            Arm::Method(spec, method, d) => run_method(env, spec, *method, *d),
            Arm::FedTiny(cfg) => run_fedtiny(env, cfg),
        }
    }

    /// The key [`deal_order`] deals the row by.
    fn work(&self) -> f64 {
        let (spec, d) = match &self.arm {
            Arm::Method(spec, Method::FedAvg | Method::LotteryFl | Method::SmallModel, _) => {
                (spec, 1.0)
            }
            Arm::Method(spec, _, d) => (spec, *d),
            Arm::FedTiny(cfg) => (&cfg.model, cfg.d_target),
        };
        let arch = self.env.build_model(spec).arch();
        let samples = self.env.total_train_samples() * self.env.cfg.rounds;
        forward_flops_dense(&arch) * samples as f64 * (1.0 + d as f64)
    }
}

/// The order rows are dealt in: longest first by a proxy for a row's work
/// (its model's dense forward FLOPs × samples × rounds × `1 + d`, since
/// sparse kernels track density in part), ties by index.
pub fn deal_order(rows: &[Row]) -> Vec<usize> {
    let work: Vec<f64> = rows.iter().map(Row::work).collect();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| work[b].total_cmp(&work[a]));
    order
}

/// Runs every row on [`Runtime::from_env`]; records in row order.
pub fn run_grid(rows: &[Row]) -> Vec<RunResult> {
    run_grid_on(rows, &Runtime::from_env())
}

/// Runs every row on `rt`'s pool, [`deal_order`] first; records in row order.
pub fn run_grid_on(rows: &[Row], rt: &Runtime) -> Vec<RunResult> {
    let (fan_out, kernel_rt) = thread_budget(rows.len(), rt);
    // An environment whose runtime is not the kernel runtime is copied once,
    // with its thread count, for every row built on it.
    let threads = kernel_rt.threads();
    let mut views: Vec<(&Arc<ExperimentEnv>, ExperimentEnv)> = Vec::new();
    for row in rows {
        let seen = views.iter().any(|(env, _)| Arc::ptr_eq(env, &row.env));
        if !seen && row.env.cfg.runtime().threads() != threads {
            let mut view = ExperimentEnv::clone(&row.env);
            view.cfg.threads = threads;
            views.push((&row.env, view));
        }
    }
    let mut out: Vec<Option<RunResult>> = rows.iter().map(|_| None).collect();
    let mut slots: Vec<_> = out.iter_mut().map(Some).collect();
    let jobs: Vec<_> = (deal_order(rows).into_iter())
        .map(|i| {
            let row = &rows[i];
            let env = (views.iter())
                .find(|(env, _)| Arc::ptr_eq(env, &row.env))
                .map_or(&*row.env, |(_, view)| view);
            (row, env, slots[i].take().expect("each row dealt once"))
        })
        .collect();
    fan_out.scatter(jobs, |(row, env, slot)| *slot = Some(row.run_in(env)));
    out.into_iter().map(|r| r.expect("every row ran")).collect()
}

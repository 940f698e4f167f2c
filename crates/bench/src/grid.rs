//! The grid every figure and table bench runs: a list of [`Row`]s, each one
//! independent run, dealt over the process-wide worker pool.
//!
//! [`run_grid`] hands the rows to [`Runtime::from_env`]'s pool (so
//! `FT_THREADS` sets its width) longest first, and each row runs on the
//! kernel runtime [`thread_budget`] leaves it: one thread when rows run side
//! by side, the whole pool when they cannot. A row's environment is cloned to
//! set that thread count; a clone shares its datasets, so no grid copies
//! one. Every run is bit-identical on any runtime and each row writes its
//! own slot, so neither the width nor the dealing order moves a bit of the
//! records, which come back in row order.

use crate::methods::{run_method, Method};
use fedtiny::FedTinyConfig;
use ft_fl::{thread_budget, ExperimentEnv, ModelSpec, RunResult};
use ft_metrics::forward_flops_dense;
use ft_runtime::Runtime;

/// One run of a grid: its environment (a clone, sharing the datasets of the
/// one the row was built from) and a [`Method`] under the config
/// [`run_method`] reads.
#[derive(Clone, Debug)]
pub struct Row {
    /// Data, fleet and federated config.
    pub env: ExperimentEnv,
    /// What runs.
    pub method: Method,
    /// Its model, density, schedule, evaluation cadence and wire codec.
    pub cfg: FedTinyConfig,
}

impl Row {
    /// `method` at density `d` on `spec`, under [`Method::config`].
    pub fn method(env: &ExperimentEnv, spec: ModelSpec, method: Method, d: f32) -> Self {
        let cfg = method.config(env, &spec, d);
        Row {
            env: env.clone(),
            method,
            cfg,
        }
    }

    /// The key [`deal_order`] deals the row by.
    fn work(&self) -> f64 {
        let d = match self.method {
            Method::FedAvg | Method::LotteryFl | Method::SmallModel => 1.0,
            _ => self.cfg.d_target,
        };
        let spec = self.method.model(&self.cfg.model);
        let arch = self.env.build_model(&spec).arch();
        let samples = self.env.total_train_samples() * self.env.cfg.rounds;
        forward_flops_dense(&arch) * samples as f64 * (1.0 + d as f64)
    }
}

/// The order rows are dealt in: longest first by a proxy for a row's work
/// (the dense forward FLOPs of the model it runs × samples × rounds ×
/// `1 + d`, since sparse kernels track density in part), ties by index.
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
    let mut out: Vec<Option<RunResult>> = rows.iter().map(|_| None).collect();
    let mut slots: Vec<_> = out.iter_mut().map(Some).collect();
    let jobs: Vec<_> = (deal_order(rows).into_iter())
        .map(|i| (&rows[i], slots[i].take().expect("each row dealt once")))
        .collect();
    fan_out.scatter(jobs, |(row, slot)| {
        let mut env = row.env.clone();
        env.cfg.threads = kernel_rt.threads();
        *slot = Some(run_method(&env, row.method, &row.cfg))
    });
    out.into_iter().map(|r| r.expect("every row ran")).collect()
}

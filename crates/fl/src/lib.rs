//! Federated-learning simulator: devices, server-side aggregation, local
//! SGD, evaluation, and cost bookkeeping.
//!
//! Every pruning method in this workspace — the baselines in `ft-pruning`
//! and FedTiny itself — is built from the primitives here:
//!
//! - [`ExperimentEnv`] — a generated dataset, its Dirichlet non-iid split
//!   across `K` devices, and the shared [`FlConfig`].
//! - [`local_train_scratch`] / [`train_devices_parallel`] — `E` epochs of
//!   (masked) SGD per device, fanned out over the run's worker pool;
//!   [`with_device_model`] lends the same pooled device models to whoever
//!   else needs a working copy of the global (selection, the pruning probe).
//! - [`Aggregator::aggregate_into`] / [`aggregate_bn_stats`] — the one
//!   aggregation engine (`anchor + Σ wₖ·decode(Δₖ)`, or a robust rank rule,
//!   Eq. 7) and the size-weighted average of BatchNorm running statistics
//!   (Eq. 4). A degenerate cohort yields `None` and the schedulers keep
//!   the previous global; straggler tolerance enters as a weight
//!   ([`staleness_weight`]), not as a second API.
//! - The typed update pipeline: a [`DeviceUpdate`] carries an encoded
//!   [`Payload`] (delta against the round anchor under the run's
//!   [`Codec`]) — over `SimTime` and TCP parsed straight out of the receive
//!   buffer — the engine decodes-and-accumulates it shard by shard
//!   without materializing per-device dense vectors ([`AggScratch`] is
//!   recycled round over round), and the schedulers bill the `SimClock`
//!   and [`CostLedger`] with *measured* `encoded_len()` bytes next to the
//!   analytic formulas.
//! - [`Scheduler`] — how the server closes rounds over the environment's
//!   simulated [`DeviceProfile`] fleet: synchronous barrier, deadline cut,
//!   or FedBuff-style buffered asynchrony, all on a virtual clock.
//! - [`server`] — the transport-agnostic round loop behind every scheduler:
//!   one event loop in which device tasks launch, arrive into a window, and
//!   the window folds into the global model when it closes. Checkpoint /
//!   resume ([`Checkpoint`], [`RunOptions::checkpoint`]) reproduces an interrupted
//!   run's final trace byte for byte.
//! - [`transport`] — how updates reach the server: [`InProcess`] (function
//!   calls, the golden-trace-pinned classic), [`SimTime`] (every update
//!   crosses a real in-memory frame boundary), and [`TcpTransport`] /
//!   [`run_tcp_device`] (length-prefixed frames over `std::net` sockets —
//!   same seed, bit-identical final model).
//! - [`evaluate`] — top-1 accuracy of the global model on the test split.
//! - [`CostLedger`] / [`RunResult`] — per-round FLOPs/communication records,
//!   simulated fleet makespans and per-device [`TimelineEvent`]s, and the
//!   uniform result struct every method runner returns.
//!
//! # Examples
//!
//! ```
//! use ft_fl::{evaluate, ExperimentEnv, ModelSpec};
//!
//! let env = ExperimentEnv::tiny_for_tests(7);
//! let mut model = env.build_model(&ModelSpec::small_cnn_test());
//! let acc = evaluate(model.as_mut(), &env.test);
//! assert!(acc >= 0.0 && acc <= 1.0);
//! ```

pub mod adversary;
mod aggregate;
mod checkpoint;
mod config;
mod env;
mod ledger;
mod rounds;
mod sched;
pub mod server;
mod spec;
mod train;
pub mod transport;

pub use adversary::{
    run_byzantine_tcp_device, run_churn_tcp_device, AdversarialTransport, Behavior,
};
pub use aggregate::{
    aggregate_bn_stats, staleness_weight, try_aggregate_bn_stats, AggScratch, AggregateRef,
    Aggregator,
};
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointSummary};
pub use config::{ConfigError, FlConfig, MAX_THREADS};
pub use env::ExperimentEnv;
pub use ft_metrics::{
    decode_trace_frame, encode_trace_frame, read_trace_frame, DeviceProfile, FaultCounters,
    MetricsEndpoint, MetricsHub, RoundStats, SimClock, TraceDecodeError, TraceEvent,
    TraceStreamError, STALENESS_BUCKETS,
};
pub use ft_runtime::{resolve_threads, Runtime};
pub use ft_sparse::{Codec, Payload, WireCtx};
pub use ledger::{CostLedger, RunResult, TimelineEvent};
pub use rounds::{no_hook, run_federated_rounds, RoundHook};
pub use sched::{
    broadcast_payload_len, device_round_cost, device_sim_secs, fleet_spread_deadline,
    PresenceSchedule, Scheduler,
};
pub use server::{buffered_train_cohorts, run_with, RunOptions, ServerError};
pub use spec::ModelSpec;
pub use train::{
    device_rng_seed, eval_loss, evaluate, local_train_scratch, thread_budget,
    train_devices_parallel, train_one_device, with_device_model, DeviceUpdate, TrainScratch,
    WireSpec,
};
pub use transport::{
    run_tcp_device, run_tcp_devices, Delivery, FaultKind, InProcess, RoundRequest, SimTime,
    TcpTransport, Transport, TransportError,
};

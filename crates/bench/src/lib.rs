//! Shared harness support for the experiment benches in `benches/`.
//!
//! Every table and figure of the paper has a `harness = false` bench target.
//! Ten of them are a grid ([`paper`]'s nine and the codec bench): their
//! runs are [`grid::Row`]s that [`grid::run_grid`] deals over the worker
//! pool (`FT_THREADS` wide), their
//! records render to the paper-style tables, and each ends in the
//! [`claims::Claim`]s those records are checked against, one verdict each.
//! The scale is chosen via the `FT_SCALE` environment variable:
//!
//! - `FT_SCALE=smoke` — seconds; sanity-checks the wiring.
//! - `FT_SCALE=lab` (default) — minutes. The cost claims (Table I's FLOPs
//!   and memory, Table II's selection overhead, measured upload bytes, the
//!   schedulers' makespans) get real verdicts; every accuracy claim reads
//!   inconclusive, because nearest-class-mean already solves the synthetic
//!   task at this scale.
//! - `FT_SCALE=paper` — the paper's settings (K = 10, 300 rounds, width 1.0,
//!   32 px); hours to days on a CPU, provided for completeness.

pub mod alloc_count;
pub mod claims;
pub mod grid;
pub mod methods;
pub mod paper;
pub mod scale;
pub mod table;
pub mod trajectory;

pub use alloc_count::{allocated_bytes, CountingAlloc};
pub use claims::{Claim, Report, Verdict};
pub use grid::{run_grid, Row};
pub use methods::{run_method, Method};
pub use scale::{Scale, ScaleKind};
pub use table::Table;
pub use trajectory::{measure_ns, quick_mode, BenchRecord, BenchReport};

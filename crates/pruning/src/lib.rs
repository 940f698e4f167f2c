//! Baseline federated pruning methods (Sec. IV-A3 of the paper): their
//! runners and at-init masks.
//!
//! Every runner produces the same [`ft_fl::RunResult`] as FedTiny so the
//! bench harnesses can tabulate them side by side. The method table that
//! names them, picks each one's wire codec and schedule, and dispatches to
//! these pieces is `ft_bench::Method` / `ft_bench::run_method`:
//!
//! | Method | Where pruning happens | Extra device cost |
//! |---|---|---|
//! | FedAvg ([`run_with_fixed_mask`], ones mask) | none (dense upper bound) | trains the dense model |
//! | FL-PQSU ([`l1_oneshot_mask`]) | server, one-shot L1 at init | none |
//! | SNIP ([`snip_mask`]) | server, iterative sensitivity at init | none |
//! | SynFlow ([`synflow_mask`]) | server, iterative data-free at init | none |
//! | GraSP ([`grasp_mask`], extension) | server, gradient flow at init | none |
//! | PruneFL ([`run_prunefl`]) | server init + full-gradient adaptation | dense scores in memory |
//! | FedDST ([`run_feddst`]) | random init + device mask adjustment | extra recovery epochs |
//! | LotteryFL ([`run_lotteryfl`]) | iterative magnitude + rewind | trains the dense model |
//!
//! Adaptations from the paper (Sec. IV-A3) are documented on each runner:
//! all iterative methods share FedTiny's `ΔR = 10 / R_stop = 100` schedule
//! and `a_t` counts, SNIP/SynFlow prune iteratively at initialization on the
//! server, FL-PQSU is converted to unstructured pruning, and LotteryFL
//! prunes the global model so all devices share one structure.

mod atinit;
#[cfg(test)]
mod engine_tests;
mod feddst;
mod fixed;
mod lotteryfl;
mod prunefl;

pub use atinit::{grasp_mask, l1_oneshot_mask, snip_mask, synflow_mask, DEFAULT_ITERATIVE_STEPS};
pub use feddst::run_feddst;
pub use fixed::run_with_fixed_mask;
pub use lotteryfl::run_lotteryfl;
pub use prunefl::run_prunefl;

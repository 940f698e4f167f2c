//! Analytic cost accounting for federated pruning experiments.
//!
//! The paper's Tables I and II report per-device training FLOPs, memory
//! footprint and (Fig. 5) communication cost as *multiples of the dense
//! model's analytic cost* — not wall-clock measurements. This crate
//! reproduces that accounting: everything is computed from a model's
//! [`ft_nn::ArchInfo`] plus per-layer densities, so costs are exact, deterministic
//! and independent of the host machine.
//!
//! Conventions:
//! - A multiply-accumulate counts as 2 FLOPs.
//! - Backward pass ≈ 2× forward, so training ≈ 3× forward
//!   (the standard estimate the paper also relies on).
//! - Sparse tensors are stored as value + index (8 bytes/nnz); training
//!   additionally keeps a gradient per surviving weight (4 bytes/nnz).
//! - Dense (unprunable) parameters cost 8 bytes each during training
//!   (weight + gradient).
//!
//! The [`DeviceProfile`] / [`SimClock`] pair extends the same analytic
//! philosophy to *time*: a device's round takes `flops / flops_per_sec +
//! bytes / bytes_per_sec` simulated seconds (plus deterministic jitter), so
//! fleet heterogeneity is modeled without ever sleeping on the host.

mod comm;
mod faults;
mod flops;
pub mod hub;
mod memory;
mod time;

pub use comm::{
    bn_stats_bytes, dense_download_bytes, sparse_model_bytes, sparse_model_bytes_with, IndexWidth,
};
pub use faults::FaultCounters;
pub use flops::{
    backward_flops, forward_flops, forward_flops_dense, layer_forward_flops, training_flops,
};
pub use hub::{
    decode_trace_frame, encode_trace_frame, read_trace_frame, MetricsEndpoint, MetricsHub,
    RoundStats, TraceDecodeError, TraceEvent, TraceStreamError, STALENESS_BUCKETS,
};
pub use memory::{
    device_memory_bytes, prunable_lens, total_params, unprunable_params, ExtraMemory,
};
pub use time::{DeviceProfile, SimClock};

use ft_sparse::Mask;

/// Extracts per-layer densities (in prunable-layer order) from a mask.
pub fn densities_from_mask(mask: &Mask) -> Vec<f32> {
    (0..mask.num_layers())
        .map(|l| mask.layer_density(l))
        .collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use ft_nn::{ArchInfo, LayerArch};

    /// A small fixed architecture used across this crate's tests:
    /// conv(3→8, 3x3, 8x8 out) [not prunable] → bn → conv(8→16, 3x3, 4x4 out)
    /// [prunable 0] → bn → linear(256→10) [prunable 1] → linear(10→10) [not].
    pub fn arch() -> ArchInfo {
        ArchInfo {
            name: "test".into(),
            input: [3, 8, 8],
            classes: 10,
            layers: vec![
                LayerArch::Conv {
                    in_c: 3,
                    out_c: 8,
                    kernel: 3,
                    out_h: 8,
                    out_w: 8,
                    prunable_idx: None,
                },
                LayerArch::BatchNorm {
                    channels: 8,
                    spatial: 64,
                },
                LayerArch::Conv {
                    in_c: 8,
                    out_c: 16,
                    kernel: 3,
                    out_h: 4,
                    out_w: 4,
                    prunable_idx: Some(0),
                },
                LayerArch::BatchNorm {
                    channels: 16,
                    spatial: 16,
                },
                LayerArch::Linear {
                    in_dim: 256,
                    out_dim: 10,
                    prunable_idx: Some(1),
                },
                LayerArch::Linear {
                    in_dim: 10,
                    out_dim: 10,
                    prunable_idx: None,
                },
            ],
        }
    }
}

//! Sparsity primitives for the FedTiny reproduction.
//!
//! This crate is deliberately model-agnostic: it manipulates *flat per-layer
//! parameter buffers* described by a [`SparseLayout`], so the same machinery
//! serves every model in `ft-nn` and every pruning method in `ft-pruning`.
//!
//! Contents:
//! - [`SparseLayout`] / [`Mask`] — per-prunable-tensor binary masks with
//!   density accounting.
//! - [`Codec`] / [`Payload`] / [`WireCtx`] — the typed wire formats of the
//!   device ↔ server update exchange (dense, mask-structured sparse,
//!   int8-quantized, top-k with error feedback), with exact measured byte
//!   sizes; [`wire`] holds the cursor and the bulk element coders every
//!   binary format of the workspace is built from.
//! - [`CsrMatrix`] — the row-compressed weight representation the sparse
//!   execution engine packs masked weights into (kernels live in
//!   `ft-tensor`; dispatch lives in `ft-nn`).
//! - [`TopKBuffer`] — the `O(k)` streaming buffer of Sec. III-D the devices
//!   use to keep only the top-k gradient magnitudes of pruned coordinates.
//! - [`cosine_prune_count`] — the paper's pruning-number schedule
//!   `a_t^l = 0.15 (1 + cos(tπ / (R_stop · E))) · n_l`.
//! - [`magnitude_mask`] / [`magnitude_masks`] / [`random_mask`] /
//!   [`noisy_density_vector`] — mask constructors used for coarse pruning
//!   and candidate-pool generation; [`global_topk_mask`] — the global
//!   ranking every score-based pruner ends in.
//!
//! # Examples
//!
//! ```
//! use ft_sparse::{Mask, SparseLayout};
//!
//! let layout = SparseLayout::new(vec![("conv1".into(), 8), ("fc".into(), 8)]);
//! let mut mask = Mask::ones(&layout);
//! mask.set(0, 3, false);
//! assert_eq!(mask.ones_count(), 15);
//! assert!((mask.density() - 15.0 / 16.0).abs() < 1e-6);
//! ```

mod codec;
mod layout;
mod mask;
mod prune;
mod schedule;
mod topk;
pub mod wire;

pub use codec::{
    sparse_index_width, topk_pairs_encoded_len, Codec, DecodeError, Payload, PayloadView,
    ShardPlan, WireCtx, PAYLOAD_HEADER_BYTES,
};
pub use layout::{CsrMatrix, LayerSpec, SparseLayout};
pub use mask::Mask;
pub use prune::{
    global_topk_mask, magnitude_mask, magnitude_mask_global, magnitude_masks, noisy_density_vector,
    random_mask, uniform_density_vector,
};
pub use schedule::{cosine_prune_count, PruneSchedule};
pub use topk::TopKBuffer;
pub use wire::WireReader;

//! Neural-network substrate for the FedTiny reproduction.
//!
//! A deliberately small, framework-free stack: concrete layers with manual
//! forward/backward passes, three models used by the paper (ResNet18, VGG11
//! and the 3-conv `SmallCnn` of Tables IV/V), softmax cross-entropy, and
//! plain SGD with mask-aware updates.
//!
//! Key types:
//! - [`Param`] — a weight tensor plus its gradient accumulator and pruning
//!   metadata.
//! - [`AnyLayer`] / [`Sequential`] — compositional layers that own their
//!   outputs for backprop.
//! - [`Model`] — the object-safe trait the federated simulator drives;
//!   constructors: [`models::SmallCnn`], [`models::Vgg11`],
//!   [`models::ResNet18`].
//! - [`BatchNorm2d`] — supports the *BN-adaptation* forward mode FedTiny's
//!   selection module relies on (update batch statistics with frozen
//!   parameters, no gradients).
//! - [`loss::softmax_cross_entropy`] and [`optim::SgdConfig`].
//!
//! Every layer runs one way: a 4-D activation stays in the lane layout
//! ([`ft_tensor::LaneTensor`]) from the model's input to its pooling head,
//! every layer owns its output ([`AnyLayer::output`]) and its backward pass
//! is handed the forward's input ([`Act`]) and writes the input gradient into
//! caller-owned [`Grads`] ([`Model::forward`] is the one allocating
//! convenience), and a `Conv2d` / `Linear` runs on the sparse kernels exactly
//! when its weight's mask record is at density ≤ [`DEFAULT_SPARSE_CROSSOVER`].
//!
//! # Examples
//!
//! ```
//! use ft_nn::models::SmallCnn;
//! use ft_nn::{Mode, Model};
//! use ft_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut model = SmallCnn::new(&mut rng, 8, 10, 3, 8);
//! let x = Tensor::zeros(&[2, 3, 8, 8]);
//! let logits = model.forward(&x, Mode::Train);
//! assert_eq!(logits.shape(), &[2, 10]);
//! ```

mod layer;
pub mod loss;
mod model;
pub mod models;
pub mod optim;
mod param;
mod sequential;

pub use ft_runtime::Runtime;
pub use layer::{
    Act, AnyLayer, BatchNorm2d, BnStats, Conv2d, Flatten, GlobalAvgPool, Grads, Linear, MaxPool2x2,
    Mode, Relu, DEFAULT_SPARSE_CROSSOVER,
};
pub use model::{
    accuracy, apply_mask, bn_stats_encoded_len, flat_params, flat_params_into, mask_grads,
    prunable_param_indices, restore_snapshot, set_bn_stats, set_flat_params, sparse_layout,
    take_snapshot, wire_ctx, ArchInfo, LayerArch, Model, ModelSnapshot,
};
pub use param::{Param, ParamKind};
pub use sequential::Sequential;

//! Neural-network substrate for the NIID-Bench reproduction.
//!
//! Design: layers own their forward caches and implement an explicit,
//! hand-derived backward pass (no autodiff graph). The whole model state
//! lives in one [`Arena`] of **flat `f32` vectors** — trainable
//! parameters, their gradients, and BatchNorm running statistics — which
//! layers borrow per pass, because every federated algorithm in the paper
//! is naturally expressed as arithmetic on those vectors:
//!
//! * FedAvg/FedNova aggregate `Δw` vectors on the server,
//! * FedProx adds `μ (w - wᵗ)` to local gradients,
//! * SCAFFOLD adds `c - cᵢ` control-variate corrections to local gradients,
//! * the BatchNorm ablation (paper §6.2, "only average the learned
//!   parameters but leave the statistics alone") toggles whether the buffer
//!   vector is aggregated.
//!
//! The paper's architectures are provided in [`models`]: the LeNet-style
//! CNN, the 32/16/8 MLP for tabular data, VGG-9 and a BatchNorm ResNet.

pub mod activation;
pub mod arena;
pub mod batchnorm;
pub mod conv;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod models;
pub mod network;
pub mod pool;
pub mod residual;
pub mod sequential;
pub mod sgd;

pub use activation::{Flatten, Relu};
pub use arena::{Arena, State};
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use layer::{Layer, LayerSpan, Phase};
pub use linear::Linear;
pub use loss::{LossScratch, SoftmaxCrossEntropy};
pub use models::{lenet_cnn, mlp, resnet_lite, vgg9, ModelSpec};
pub use network::Network;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::BasicBlock;
pub use sequential::Sequential;
pub use sgd::Sgd;

//! # metadpa-nn
//!
//! A modular neural-network substrate with hand-derived, finite-difference
//! verified backward passes.
//!
//! The calibration note for this reproduction — *"DL crates thin;
//! meta-learning unsupported"* — means the paper's dependency on a
//! PyTorch-class framework has to be rebuilt. Every model in the paper is a
//! small feed-forward network (CVAE encoders/decoders, an MLP preference
//! scorer, review-text towers), so this crate implements exactly the
//! operator set those models need:
//!
//! * layers: [`Dense`], [`Relu`], [`LeakyRelu`], [`Sigmoid`], [`Tanh`],
//!   [`Softmax`], [`Dropout`], [`Sequential`], plus an index-based
//!   [`Embedding`] table for id-embedding baselines such as NeuMF;
//! * losses: [`loss::bce_with_logits`], [`loss::mse`],
//!   [`kl::gaussian_kl_to_anchor`] (the Eq. 3 form used by the Dual-CVAE),
//!   and [`infonce::InfoNce`] (the mutual-information estimator backing both
//!   the MDI and ME constraints);
//! * optimizers: [`Sgd`] and [`Adam`], operating through
//!   [`Params::visit_params`] so the same code drives any composite model;
//! * [`grad_check`]: central-difference gradient verification used
//!   throughout the test suite — each differentiable component in this
//!   workspace carries a test proving its analytic gradient matches a
//!   numerical one.
//!
//! Meta-learning (first-order MAML) is built on top of this crate in
//! `metadpa-core::meta` using [`snapshot`]/[`restore`] parameter vectors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod dense;
pub mod dropout;
pub mod embedding;
pub mod grad_check;
pub mod infonce;
pub mod init;
pub mod kl;
pub mod layer_norm;
pub mod loss;
pub mod mlp;
pub mod module;
pub mod optim;
pub mod param;
pub mod schedule;
pub mod sequential;
pub mod workspace;

pub use activation::{LeakyRelu, Relu, Sigmoid, Softmax, Tanh};
pub use dense::Dense;
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use layer_norm::LayerNorm;
pub use mlp::Mlp;
pub use module::{restore, snapshot, snapshot_into, zero_grad, Mode, Module, Params};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use schedule::{clip_grad_norm, LrSchedule};
pub use sequential::Sequential;
pub use workspace::Workspace;

//! # neural — from-scratch machine-learning substrate
//!
//! Section 2 of the paper surveys the AI toolbox the I Trust AI studies draw
//! on: deep learning (CNNs for grid-like data, with VGG/EAST/YOLO as the
//! concrete architectures of Figure 1), classical ML, and the supervision
//! spectrum (supervised, semi-supervised self-/co-training, unsupervised
//! clustering). This crate implements that toolbox with **no external ML
//! dependencies** — tensors, layers, optimizers, losses, classical models,
//! semi-supervised meta-learners, and evaluation metrics are all built here
//! and unit-tested against analytically known results.
//!
//! Scope is deliberately "laptop-trainable": dense/conv networks of a few
//! tens of thousands of parameters, which is sufficient to reproduce the
//! *behavioral shape* of the paper's pipelines on synthetic corpora (see
//! the `perganet` crate).
//!
//! ## Layout
//!
//! * [`tensor`] — row-major `f32` n-d arrays with the linear algebra the
//!   layers need.
//! * [`layers`] — `Dense`, `Conv2d`, `MaxPool2d`, activations, `Dropout`.
//! * [`net`] — [`net::Sequential`] container wiring layers together.
//! * [`loss`] — softmax cross-entropy and MSE, with fused backward.
//! * [`optim`] — SGD with momentum, Adam.
//! * [`classical`] — naive Bayes (Gaussian & multinomial), logistic
//!   regression, k-means, decision tree.
//! * [`semi`] — self-training and co-training wrappers (the paper's §2
//!   semi-supervised paradigms).
//! * [`sequence`] — Elman RNN (truncated BPTT) and single-head
//!   self-attention, the §2 architecture families beyond CNNs.
//! * [`metrics`] — accuracy, precision/recall/F1, confusion matrix, IoU,
//!   average precision.
//! * [`data`] — dataset shuffling, splitting, batching, one-hot encoding.

#![deny(unsafe_code)]

pub mod classical;
pub mod data;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod net;
pub mod optim;
pub mod semi;
pub mod sequence;
pub mod tensor;

pub use tensor::Tensor;

#![warn(missing_docs)]

//! Performance profiler for heterogeneous backends (§4.3).
//!
//! The tensor-partition solver needs per-shape kernel costs for every
//! backend. The paper's profiler has two modes, both implemented here:
//!
//! - **Real-execution mode** ([`measure`]): run the target operator
//!   with each candidate tensor shape on the (simulated) hardware and
//!   record precise timings into a [`db::ProfileDb`]. Time-consuming
//!   but exact; conducted offline, with the search space pruned by the
//!   NPU's stage-performance alignment (rows to 256, sequence to 32).
//! - **Prediction mode** ([`tree`], [`predict`]): a decision-tree
//!   regressor (CART, built from scratch — variance-reduction splits)
//!   predicts NPU latency from shape features, while GPU latency is
//!   estimated analytically from a fixed TFLOPS rate, "given that GPU
//!   performance is more stable and less dependent on tensor shapes".

pub mod db;
pub mod measure;
pub mod predict;
pub mod tree;

pub use db::{ProfileDb, ProfileKey};
pub use predict::{
    AnalyticGpuPredictor, CostInterval, CostProvider, PredictedProvider, RealExecProvider,
};
pub use tree::DecisionTree;

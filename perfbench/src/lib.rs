//! Host-time benchmark of the HeteroLLM reproduction suite: three
//! workloads timed end to end, and a traced run that splits each pass by
//! layer from the benchmark's own calls into each crate. See `README.md`.

pub mod check;
pub mod fleet;
pub mod paper;
pub mod report;
pub mod stats;
pub mod trace;

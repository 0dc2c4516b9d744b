//! # muerp-perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Drives the program's public APIs from the outside on three seeded
//! workloads (`serve-paper`, `serve-wide`, `solve-paper`), checks every
//! output, and prints each metric with its unit. See `README.md` in
//! this directory for the metric list and how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

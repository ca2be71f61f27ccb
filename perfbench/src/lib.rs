//! End-to-end and per-layer benchmark for vermem.
//!
//! `perfbench gen` writes a seeded corpus of trace files with a manifest;
//! `perfbench run` feeds the program only those bytes, through the
//! library's public entry points, and times each input from bytes in to
//! verdict out. See `perfbench/README.md` for the workloads and metrics.

pub mod corpus;
pub mod harness;
pub mod layers;
pub mod manifest;
pub mod models;
pub mod probe;
pub mod stats;
pub mod stream;
pub mod vmc;
pub mod workload;

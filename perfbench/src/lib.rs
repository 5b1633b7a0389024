//! Benchmark of a loopback GRED cluster.
//!
//! One command boots a 16-switch cluster per workload, drives it from a
//! single closed-loop client, verifies every answer and prints the
//! end-to-end metrics (untraced run) or the per-layer metrics measured
//! from outside the program (traced run). See `perfbench/README.md`.

pub mod bench;
pub mod layers;
pub mod measure;
pub mod report;
pub mod rng;
pub mod run;
pub mod trace;
pub mod workload;

//! # manet-bench
//!
//! The in-tree [`harness`] (warmup + timed samples, median/p95
//! statistics, one JSON report — the workspace's zero-dependency
//! replacement for Criterion) and, in `benches/substrate.rs`, the one
//! suite that uses it.
//!
//! Speed questions are asked of the repository benchmark (`perfbench/`,
//! `BENCHMARK.json`); this suite holds only the rows it cannot see — a
//! flapping neighbor table, and the campaign scheduler inline against
//! two workers. EXPERIMENTS.md "Bench successors" maps every row that
//! used to live here to the `perfbench` metric that answers it.
//!
//! `cargo bench -p manet-bench --bench substrate` re-records
//! `BENCH_substrate.json` at the workspace root; append `-- --quick` for
//! a seconds-long does-it-run pass that writes nothing.

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "this crate exists to read the wall clock; nothing here feeds a simulation"
)]

pub mod harness;

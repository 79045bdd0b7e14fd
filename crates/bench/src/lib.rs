//! # vmp-bench — the evaluation reproduction harness
//!
//! One driver per table/figure of the paper's evaluation (as
//! reconstructed from the abstract; see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for recorded outcomes):
//!
//! | id | what it reproduces |
//! |----|---|
//! | T1/T2 | primitive timings vs matrix and machine size |
//! | T3/F3 | naive (element router) vs primitive implementations |
//! | T4 | full-algorithm timings (GE, simplex) + layout ablation |
//! | T5 | embedding-change costs |
//! | F1/F2 | the `m > p lg p` optimality claims as curves |
//! | F4 | spanning-tree collective schedule ablation |
//! | SCHED | multi-tenant subcube scheduler vs whole-machine FCFS (`BENCH_sched.json`) |
//! | ALLPORT | all-port collectives vs single-port schedules (`BENCH_allport.json`) |
//!
//! Run everything with `cargo run --release -p vmp-bench --bin reproduce`,
//! or a subset with e.g. `-- t1 f4`. Every number here is on the
//! simulated clock, so the output and both `BENCH_*.json` artifacts are
//! golden files that CI regenerates and diffs. Host time is measured
//! separately by the `perfbench/` package.

#![warn(missing_docs)]

pub mod common;
pub mod experiments;
pub mod table;

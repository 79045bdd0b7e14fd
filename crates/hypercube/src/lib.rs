//! # vmp-hypercube — a simulated hypercube multiprocessor
//!
//! This crate is the machine substrate for the reproduction of *Four
//! Vector-Matrix Primitives* (Agrawal, Blelloch, Krawitz & Phillips,
//! SPAA 1989). The paper implements its primitives on the Connection
//! Machine, a Boolean-cube (hypercube) multiprocessor; this crate
//! provides that machine in simulation:
//!
//! * [`topology`] — Boolean-cube address arithmetic and subcubes;
//! * [`gray`] — binary-reflected Gray codes for grid embeddings;
//! * [`cost`] — the `alpha + n*beta` channel cost model (with CM-2 and
//!   iPSC/1 presets) used throughout the contemporaneous literature;
//! * [`machine`] — the [`machine::Hypercube`] simulator: BSP-style
//!   integer cost-term counts (priced into a clock on read) and event
//!   counters over caller-owned per-processor buffers;
//! * [`fault`] — seeded deterministic fault plans (link failures and
//!   transient drops) and the constants of the fixed bounded-retry/reroute
//!   recovery policy the machine applies when one is installed;
//! * [`collective`] — broadcast / reduce / allreduce / allgather /
//!   exchange / inclusive scan / scatter on arbitrary subcube dimension
//!   subsets (rows and columns of a processor grid): the collectives the
//!   primitives, applications and experiments call, and no others;
//! * [`slab`] — the flat arena data plane ([`slab::NodeSlab`]) the
//!   collectives operate on;
//! * [`route`] — blocked dimension-ordered routing for irregular moves,
//!   charged from a `(src, dst, len)` message list;
//! * [`router`] — the cycle-accurate element-granular general router,
//!   charged from a `(src, dst)` list, modelling the paper's **naive**
//!   baseline;
//! * [`spanning`] — alternative (balanced / all-port) broadcast and
//!   reduction schedules for the spanning-tree ablation.
//!
//! Results are computed on the host, bit-exact and checked against serial
//! oracles, while the simulated clock and counters follow the standard
//! cost model, so the reproduced evaluation compares *time shapes*, not
//! just operation counts.

#![warn(missing_docs)]

pub mod collective;
pub mod cost;
pub mod counters;
pub mod fault;
pub mod gray;
pub mod machine;
pub mod route;
pub mod router;
pub mod slab;
pub mod spanning;
pub mod topology;

pub use cost::{CostModel, PortModel, Ticks};
pub use counters::Counters;
pub use fault::{FaultPlan, LinkFault};
pub use machine::Hypercube;
pub use slab::NodeSlab;
pub use topology::{Cube, NodeId};

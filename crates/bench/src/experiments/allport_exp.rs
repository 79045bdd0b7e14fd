//! ALLPORT — the all-port collective engine vs the single-port
//! schedules, as simulated-time speedups.
//!
//! Every collective runs twice over identical data: once on a machine
//! with the one-port CM-2 model (`CostModel::cm2()`) and once on the
//! all-port variant (`CostModel::cm2_allport()`), each picking its
//! schedule with `CostModel::choose`. The payloads are asserted
//! **bit-identical** between the two runs before any number is reported
//! — the port model may only change the simulated clock, never the data
//! plane (both arms execute the same movement and combine order; see
//! the `collective` module doc in `vmp-hypercube`).
//!
//! `len` is the per-node segment length, except for `allgather` where it
//! is the **gathered** result length per node (the input segment is
//! `len / p`); sweeping the raw segment length there would square the
//! working set with `p`.
//!
//! Results land in `BENCH_allport.json`, a golden file: every field is
//! simulated, so CI regenerates it and fails on any diff.

use serde::Serialize;
use vmp_hypercube::collective;
use vmp_hypercube::cost::{Algo, Collective, CostModel};
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_hypercube::topology::Cube;

use crate::common::{hash_entry, write_artifact};
use crate::table::{fmt_us, Table};

/// One measurement, as serialised into `BENCH_allport.json`.
#[derive(Debug, Clone, Serialize)]
pub struct AllportEntry {
    /// Collective name (`broadcast`, `reduce`, …).
    pub collective: String,
    /// Machine size.
    pub p: usize,
    /// Message length in elements (per node; gathered length for
    /// `allgather`).
    pub len: usize,
    /// Simulated microseconds under the one-port model.
    pub single_port_us: f64,
    /// Simulated microseconds under the all-port model.
    pub all_port_us: f64,
    /// `single_port_us / all_port_us`.
    pub sim_speedup: f64,
    /// Schedule the selector chose on the all-port machine.
    pub algo: String,
}

/// The five ported collectives, in presentation order.
const KINDS: [Collective; 5] = [
    Collective::Broadcast,
    Collective::Reduce,
    Collective::Allreduce,
    Collective::Allgather,
    Collective::Scan,
];

fn kind_name(kind: Collective) -> &'static str {
    match kind {
        Collective::Broadcast => "broadcast",
        Collective::Reduce => "reduce",
        Collective::Allreduce => "allreduce",
        Collective::Allgather => "allgather",
        Collective::Scan => "scan",
    }
}

fn algo_name(algo: Algo) -> String {
    match algo {
        Algo::SinglePort => "single-port".into(),
        Algo::AllPort { chunks: 1 } => "all-port".into(),
        Algo::AllPort { chunks } => format!("all-port/{chunks} chunks"),
    }
}

/// Cube dimensions swept: p = 64, 256 and 1024.
const DIMS: [u32; 3] = [6, 8, 10];
/// Message lengths swept (see the module doc for `allgather`).
const LENS: [usize; 3] = [256, 4096, 16384];

/// A fresh slab whose every segment holds `seg` deterministic entries.
fn fill_slab(p: usize, seg: usize) -> NodeSlab<f64> {
    let mut slab = NodeSlab::with_capacity(p, p * seg);
    let mut buf = Vec::with_capacity(seg);
    for node in 0..p {
        buf.clear();
        buf.extend((0..seg).map(|i| hash_entry(node, i)));
        slab.push_seg(&buf);
    }
    slab
}

/// Run `kind` once over a fresh slab on `hc`, returning the final data
/// for the payload-identity check.
fn run_collective(hc: &mut Hypercube, kind: Collective, dims: &[u32], seg: usize) -> Vec<f64> {
    let mut slab = fill_slab(hc.p(), seg);
    match kind {
        Collective::Broadcast => collective::broadcast_slab(hc, &mut slab, dims, 0),
        Collective::Reduce => collective::reduce_slab(hc, &mut slab, dims, 0, |a, b| a + b),
        Collective::Allreduce => collective::allreduce_slab(hc, &mut slab, dims, |a, b| a + b),
        Collective::Allgather => collective::allgather_slab(hc, &mut slab, dims),
        Collective::Scan => collective::scan_inclusive_slab(hc, &mut slab, dims, |a, b| a + b),
    }
    slab.data().to_vec()
}

/// Run every collective at every `(dim, len)` point on both port
/// models, asserting payload bit-identity.
fn sweep(cube_dims: &[u32], lens: &[usize]) -> Vec<AllportEntry> {
    let mut entries: Vec<AllportEntry> = Vec::new();
    for &dim in cube_dims {
        let p = 1usize << dim;
        let dims: Vec<u32> = Cube::new(dim).iter_dims().collect();
        for &len in lens {
            for kind in KINDS {
                // Allgather sweeps the gathered length; everyone else
                // the per-node segment.
                let seg = match kind {
                    Collective::Allgather => (len / p).max(1),
                    _ => len,
                };

                let mut hc_sp = Hypercube::new(dim, CostModel::cm2());
                let data_sp = run_collective(&mut hc_sp, kind, &dims, seg);
                let mut hc_ap = Hypercube::new(dim, CostModel::cm2_allport());
                let data_ap = run_collective(&mut hc_ap, kind, &dims, seg);
                assert_eq!(
                    data_sp,
                    data_ap,
                    "{} payload must be bit-identical across port models",
                    kind_name(kind)
                );
                let algo = hc_ap.choose_algo(kind, dims.len(), seg);

                entries.push(AllportEntry {
                    collective: kind_name(kind).into(),
                    p,
                    len,
                    single_port_us: hc_sp.elapsed_us(),
                    all_port_us: hc_ap.elapsed_us(),
                    sim_speedup: hc_sp.elapsed_us() / hc_ap.elapsed_us(),
                    algo: algo_name(algo),
                });
            }
        }
    }
    entries
}

/// ALLPORT: simulated speedup of the all-port collective engine over the
/// single-port schedules, across machine sizes and message lengths.
#[must_use]
pub fn allport() -> Table {
    let entries = sweep(&DIMS, &LENS);

    // The acceptance bar: broadcast and allgather at p = 1024, largest
    // message, must gain at least 2x simulated time.
    let max_len = *LENS.iter().max().expect("non-empty sweep");
    for kind in ["broadcast", "allgather"] {
        let e = entries
            .iter()
            .find(|e| e.collective == kind && e.p == 1024 && e.len == max_len)
            .expect("acceptance point measured");
        assert!(
            e.sim_speedup >= 2.0,
            "{kind} at p=1024 len={max_len}: speedup {:.2} below the 2x bar",
            e.sim_speedup
        );
    }

    let written = write_artifact("BENCH_allport.json", &entries);

    let mut t = Table::new(
        "ALLPORT",
        "all-port collective engine vs single-port schedules",
        "lg p edge-disjoint spanning binomial trees; same data plane, ported clock",
        &["collective", "p", "len", "single-port", "all-port", "speedup", "schedule"],
    );
    for e in &entries {
        t.row(vec![
            e.collective.clone(),
            e.p.to_string(),
            e.len.to_string(),
            fmt_us(e.single_port_us),
            fmt_us(e.all_port_us),
            format!("{:.2}x", e.sim_speedup),
            e.algo.clone(),
        ]);
    }
    t.note(written);
    t.note("payloads asserted bit-identical between the one-port and all-port machines");
    t.note("allgather's len column is the gathered length per node (input segment = len/p)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_covers_every_collective_and_serialises() {
        let entries = sweep(&[4], &[64, 256]);
        assert_eq!(entries.len(), 2 * KINDS.len(), "2 lens x 5 collectives on one cube");
        let json = serde_json::to_string_pretty(&entries).expect("serialisable entries");
        for kind in KINDS {
            assert!(json.contains(kind_name(kind)), "missing {} rows", kind_name(kind));
        }
        assert!(!json.contains("host"), "the artifact holds simulated fields only: {json}");
    }

    #[test]
    fn all_port_clock_never_loses_to_single_port() {
        // `CostModel::choose` falls back to the single-port schedule
        // whenever the ported one would be slower, so the all-port
        // machine's clock is bounded by the one-port machine's on every
        // sweep point.
        let dims: Vec<u32> = Cube::new(4).iter_dims().collect();
        for kind in KINDS {
            for seg in [1usize, 7, 64, 500] {
                let mut sp = Hypercube::new(4, CostModel::cm2());
                let a = run_collective(&mut sp, kind, &dims, seg);
                let mut ap = Hypercube::new(4, CostModel::cm2_allport());
                let b = run_collective(&mut ap, kind, &dims, seg);
                assert_eq!(a, b, "{} seg={seg} payload", kind_name(kind));
                assert!(
                    ap.elapsed_us() <= sp.elapsed_us(),
                    "{} seg={seg}: all-port {} vs single-port {}",
                    kind_name(kind),
                    ap.elapsed_us(),
                    sp.elapsed_us()
                );
            }
        }
    }
}

//! F4 — spanning-tree schedule ablation for broadcast and all-reduce.

use vmp_hypercube::collective;
use vmp_hypercube::slab::NodeSlab;
use vmp_hypercube::spanning::{allreduce_rabenseifner, broadcast_with, BroadcastSchedule};

use crate::common::cm2;
use crate::table::{fmt_us, Table};

/// Simulated broadcast time of `len` elements on a `dim`-cube under each
/// schedule: `(binomial, scatter_allgather, allport_esbt)`.
#[must_use]
pub fn broadcast_times(len: usize, dim: u32) -> (f64, f64, f64) {
    let dims: Vec<u32> = (0..dim).collect();
    let run = |sched| {
        let mut hc = cm2(dim);
        let mut slab = root_payload(hc.p(), len);
        broadcast_with(&mut hc, &mut slab, &dims, 0, sched);
        hc.elapsed_us()
    };
    (
        run(BroadcastSchedule::Binomial),
        run(BroadcastSchedule::ScatterAllgather),
        run(BroadcastSchedule::AllPortEsbt),
    )
}

/// Simulated all-reduce time: `(butterfly, rabenseifner)`.
#[must_use]
pub fn allreduce_times(len: usize, dim: u32) -> (f64, f64) {
    let dims: Vec<u32> = (0..dim).collect();
    let mut hc1 = cm2(dim);
    let mut a = node_ids(hc1.p(), len);
    collective::allreduce_slab(&mut hc1, &mut a, &dims, |x, y| x + y);
    let mut hc2 = cm2(dim);
    let mut b = node_ids(hc2.p(), len);
    allreduce_rabenseifner(&mut hc2, &mut b, &dims, |x, y| x + y);
    (hc1.elapsed_us(), hc2.elapsed_us())
}

/// `p` segments, node 0's holding `len` ones and the rest empty: a
/// broadcast payload at the root.
fn root_payload(p: usize, len: usize) -> NodeSlab<f64> {
    let mut lens = vec![0; p];
    lens[0] = len;
    NodeSlab::filled(&lens, 1.0)
}

/// `p` segments of length `len`, node `n`'s filled with `n`.
fn node_ids(p: usize, len: usize) -> NodeSlab<f64> {
    NodeSlab::build(p, p * len, |n, buf| buf.extend(std::iter::repeat_n(n as f64, len)))
}

/// F4: broadcast/all-reduce schedules vs message size on `p = 1024`.
#[must_use]
pub fn f4() -> Table {
    let dim = 10u32;
    let mut t = Table::new(
        "F4",
        "collective schedule ablation vs message length (p = 1024)",
        "design ablation: the balanced/edge-disjoint spanning trees of Johnsson & Ho vs the binomial tree",
        &["L", "bcast binomial", "bcast scat+ag", "bcast all-port", "allred butterfly", "allred rabenseifner"],
    );
    for len in [8usize, 64, 512, 4096, 32768] {
        let (b, s, a) = broadcast_times(len, dim);
        let (bf, rb) = allreduce_times(len, dim);
        t.row(vec![len.to_string(), fmt_us(b), fmt_us(s), fmt_us(a), fmt_us(bf), fmt_us(rb)]);
    }
    t.note("crossover: binomial wins small L (fewer start-ups), balanced schedules win large L (factor ~d/2 bandwidth)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_exists() {
        let (b_small, s_small, _) = broadcast_times(4, 8);
        assert!(b_small < s_small, "small messages: binomial wins");
        let (b_big, s_big, a_big) = broadcast_times(16384, 8);
        assert!(s_big < b_big, "large messages: scatter+allgather wins");
        assert!(a_big < s_big, "all-port pipelining wins biggest");
    }

    #[test]
    fn rabenseifner_wins_large_allreduce() {
        let (bf, rb) = allreduce_times(16384, 8);
        assert!(rb < bf, "butterfly {bf} vs rabenseifner {rb}");
        let (bf_s, rb_s) = allreduce_times(2, 8);
        assert!(bf_s < rb_s, "small messages favour the butterfly");
    }
}

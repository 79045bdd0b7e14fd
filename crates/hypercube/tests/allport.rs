//! Integration tests of the all-port collective engine: the rotated
//! spanning-binomial-tree forest partitions the directed hypercube
//! edges, and every ported collective stays bit-identical to the
//! single-port reference under zero-fault and recoverable-fault plans.

// Proptest sweeps are far too slow under Miri's interpreter; the
// dedicated Miri CI job covers the library's unsafe/aliasing surface
// via the unit tests instead (see .github/workflows/ci.yml).
#![cfg(not(miri))]

use std::collections::HashSet;

use proptest::prelude::*;

use vmp_hypercube::collective::{
    allgather_slab, allreduce_slab, broadcast_slab, reduce_slab, reference, scan_inclusive_slab,
};
use vmp_hypercube::cost::CostModel;
use vmp_hypercube::fault::FaultPlan;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_hypercube::spanning::EsbtForest;

/// Deterministic pseudo-random payloads; fp addition over these is
/// order-sensitive, so payload equality pins the combine order.
fn payloads(p: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..p)
        .map(|n| {
            (0..len)
                .map(|i| {
                    let mut h = (n as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((i as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
                        .wrapping_add(seed);
                    h ^= h >> 31;
                    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                    (h as f64 / u64::MAX as f64) * 2.0 - 1.0
                })
                .collect()
        })
        .collect()
}

/// A strategy for a dimension subset of a `dim`-cube.
fn dims_strategy(dim: u32) -> impl Strategy<Value = Vec<u32>> {
    (0u32..(1 << dim.max(1)))
        .prop_map(move |mask| (0..dim).filter(|&d| (mask >> d) & 1 == 1).collect())
}

fn rol(x: usize, j: u32, k: u32) -> usize {
    let mask = (1usize << k) - 1;
    if j == 0 {
        return x & mask;
    }
    ((x << j) | (x >> (k - j))) & mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The `k` rotated spanning binomial trees partition the directed
    /// hypercube edges: every non-source node appears as a child exactly
    /// once per tree, every directed edge not entering node 0 is used by
    /// exactly one tree, and tree `j` is the `j`-bit rotation of tree 0.
    #[test]
    fn rotated_trees_partition_directed_edges(k in 1u32..=9) {
        let forest = EsbtForest::new(k);
        let nodes = forest.nodes();
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        for tree in 0..k {
            let mut children = 0usize;
            for (parent, child) in forest.edges(tree) {
                prop_assert_eq!(
                    (parent ^ child).count_ones(), 1,
                    "tree {} edge {}->{} must be a cube edge", tree, parent, child
                );
                prop_assert_ne!(child, 0, "node 0 is every tree's source");
                prop_assert!(
                    seen.insert((parent, child)),
                    "edge {}->{} reused across trees", parent, child
                );
                children += 1;
            }
            prop_assert_eq!(children, nodes - 1, "tree {} must span", tree);
        }
        // k trees x (2^k - 1) edges = all k*2^k directed edges except
        // the k entering the source.
        prop_assert_eq!(seen.len(), k as usize * nodes - k as usize);
    }

    /// Tree `j`'s parent function is the rotation conjugate of tree 0's.
    #[test]
    fn tree_j_is_a_rotation_of_tree_zero(k in 1u32..=9, node in 1usize..512, tree in 0u32..9) {
        let forest = EsbtForest::new(k);
        let node = (node - 1) % (forest.nodes() - 1) + 1; // any non-source node
        let tree = tree % k;
        let p0 = forest.parent(0, node).expect("non-source node has a parent");
        prop_assert_eq!(
            forest.parent(tree, rol(node, tree, k)),
            Some(rol(p0, tree, k))
        );
    }

    /// Every ported collective's payload is bit-identical to the seed
    /// reference implementation, for every subcube and message length.
    #[test]
    fn allport_collectives_match_reference_payloads(
        dim in 1u32..=6,
        mask in 0usize..64,
        len in 0usize..24,
        seed in 0u64..1000,
        root_sel in 0usize..64,
    ) {
        let dims: Vec<u32> = (0..dim).filter(|&d| (mask >> d) & 1 == 1).collect();
        let k = dims.len();
        let root = if k == 0 { 0 } else { root_sel % (1 << k) };
        let p = 1usize << dim;

        let run = |f: &dyn Fn(&mut Hypercube, &mut Vec<Vec<f64>>)| {
            let mut reference_data = payloads(p, len, seed);
            let mut hc_ref = Hypercube::new(dim, CostModel::cm2());
            f(&mut hc_ref, &mut reference_data);
            reference_data
        };

        // broadcast
        let want = run(&|hc, d| reference::broadcast(hc, d, &dims, root));
        let mut got = NodeSlab::from_nested(&payloads(p, len, seed));
        let mut hc = Hypercube::new(dim, CostModel::cm2_allport());
        broadcast_slab(&mut hc, &mut got, &dims, root);
        prop_assert_eq!(&want, &got.to_nested(), "broadcast payload");

        // reduce
        let want = run(&|hc, d| reference::reduce(hc, d, &dims, root, |a, b| a + b));
        let mut got = NodeSlab::from_nested(&payloads(p, len, seed));
        let mut hc = Hypercube::new(dim, CostModel::cm2_allport());
        reduce_slab(&mut hc, &mut got, &dims, root, |a, b| a + b);
        prop_assert_eq!(&want, &got.to_nested(), "reduce payload");

        // allreduce
        let want = run(&|hc, d| reference::allreduce(hc, d, &dims, |a, b| a + b));
        let mut got = NodeSlab::from_nested(&payloads(p, len, seed));
        let mut hc = Hypercube::new(dim, CostModel::cm2_allport());
        allreduce_slab(&mut hc, &mut got, &dims, |a, b| a + b);
        prop_assert_eq!(&want, &got.to_nested(), "allreduce payload");

        // allgather
        let want = run(&|hc, d| reference::allgather(hc, d, &dims));
        let mut got = NodeSlab::from_nested(&payloads(p, len, seed));
        let mut hc = Hypercube::new(dim, CostModel::cm2_allport());
        allgather_slab(&mut hc, &mut got, &dims);
        prop_assert_eq!(&want, &got.to_nested(), "allgather payload");

        // scan
        let want = run(&|hc, d| reference::scan_inclusive(hc, d, &dims, |a, b| a + b));
        let mut got = NodeSlab::from_nested(&payloads(p, len, seed));
        let mut hc = Hypercube::new(dim, CostModel::cm2_allport());
        scan_inclusive_slab(&mut hc, &mut got, &dims, |a, b| a + b);
        prop_assert_eq!(&want, &got.to_nested(), "scan payload");
    }

    /// Ragged (per-node different) buffers through broadcast and
    /// allgather — the collectives that accept them — still match.
    #[test]
    fn ragged_broadcast_and_allgather_match_reference(
        dim in 1u32..=5,
        dims in dims_strategy(5),
        seed in 0u64..1000,
    ) {
        let dims: Vec<u32> = dims.into_iter().filter(|&d| d < dim).collect();
        let p = 1usize << dim;
        let ragged = |seed: u64| -> Vec<Vec<f64>> {
            (0..p).map(|n| payloads(1, n % 5 + 1, seed ^ n as u64)[0].clone()).collect()
        };

        let mut want = ragged(seed);
        let mut hc_ref = Hypercube::new(dim, CostModel::cm2());
        reference::broadcast(&mut hc_ref, &mut want, &dims, 0);
        let mut got = NodeSlab::from_nested(&ragged(seed));
        let mut hc = Hypercube::new(dim, CostModel::cm2_allport());
        broadcast_slab(&mut hc, &mut got, &dims, 0);
        prop_assert_eq!(&want, &got.to_nested(), "ragged broadcast payload");

        let mut want = ragged(seed);
        let mut hc_ref = Hypercube::new(dim, CostModel::cm2());
        reference::allgather(&mut hc_ref, &mut want, &dims);
        let mut got = NodeSlab::from_nested(&ragged(seed));
        let mut hc = Hypercube::new(dim, CostModel::cm2_allport());
        allgather_slab(&mut hc, &mut got, &dims);
        prop_assert_eq!(&want, &got.to_nested(), "ragged allgather payload");
    }
}

/// Under a recoverable fault plan the selector falls back to the
/// single-port schedule, so the all-port machine is indistinguishable
/// from the one-port machine: same payload, same clock, same counters —
/// and the result still matches the zero-fault run bit for bit.
#[test]
fn recoverable_faults_force_exact_single_port_fallback() {
    let dim = 4u32;
    let dims: Vec<u32> = (0..dim).collect();
    let p = 1usize << dim;
    let len = 32usize;
    let plans: [FaultPlan; 2] = [
        FaultPlan::none(7).with_drops(0.08, 0, u64::MAX),
        FaultPlan::none(9).with_link_fault(0, 1, 0),
    ];
    for plan in plans {
        let mut clean = NodeSlab::from_nested(&payloads(p, len, 3));
        let mut hc_clean = Hypercube::new(dim, CostModel::cm2_allport());
        allreduce_slab(&mut hc_clean, &mut clean, &dims, |a, b| a + b);

        let run = |cost: CostModel| {
            let mut data = NodeSlab::from_nested(&payloads(p, len, 3));
            let mut hc = Hypercube::new(dim, cost);
            hc.install_faults(plan.clone());
            allreduce_slab(&mut hc, &mut data, &dims, |a, b| a + b);
            hc.clear_faults();
            (data, hc.elapsed_us(), *hc.counters())
        };
        let (data_sp, us_sp, counters_sp) = run(CostModel::cm2());
        let (data_ap, us_ap, counters_ap) = run(CostModel::cm2_allport());
        assert_eq!(data_sp, data_ap, "faulted payloads must match across port models");
        assert_eq!(us_sp, us_ap, "faulted clocks must match bitwise");
        assert_eq!(counters_sp, counters_ap, "faulted counters must match");
        assert_eq!(counters_ap.allport_steps, 0, "no ported steps under live faults");
        assert_eq!(data_ap, clean, "recoverable faults must not change result bits");
    }
}

/// The ported schedules actually run (and are counted) on a healthy
/// all-port machine, and deliver the acceptance-bar speedup.
#[test]
fn healthy_allport_runs_counted_steps_and_beats_single_port() {
    let dim = 8u32;
    let dims: Vec<u32> = (0..dim).collect();
    let p = 1usize << dim;
    let len = 4096usize;

    let mut data_sp = NodeSlab::from_nested(&payloads(p, len, 1));
    let mut hc_sp = Hypercube::new(dim, CostModel::cm2());
    broadcast_slab(&mut hc_sp, &mut data_sp, &dims, 0);
    assert_eq!(hc_sp.counters().allport_steps, 0, "one-port model never runs ported steps");

    let mut data_ap = NodeSlab::from_nested(&payloads(p, len, 1));
    let mut hc_ap = Hypercube::new(dim, CostModel::cm2_allport());
    broadcast_slab(&mut hc_ap, &mut data_ap, &dims, 0);
    assert_eq!(data_sp, data_ap);
    let counters = hc_ap.counters();
    assert!(counters.allport_steps > 0, "large broadcast must take the ported schedule");
    assert_eq!(
        counters.allport_steps, counters.message_steps,
        "every step of this collective was a ported superstep"
    );
    let speedup = hc_sp.elapsed_us() / hc_ap.elapsed_us();
    assert!(speedup >= 2.0, "broadcast at p={p} len={len}: {speedup:.2}x below the bar");
}

/// The slab allreduce under the all-port model delivers the reference
/// payload bit for bit, and its charge does not depend on how the input
/// slab was built.
#[test]
fn slab_allreduce_matches_reference_under_allport() {
    let dim = 5u32;
    let dims: Vec<u32> = (0..dim).collect();
    let p = 1usize << dim;
    let mut want = payloads(p, 16, 11);
    let mut hc_ref = Hypercube::new(dim, CostModel::cm2());
    reference::allreduce(&mut hc_ref, &mut want, &dims, |a, b| a + b);

    let mut copied = NodeSlab::from_nested(&payloads(p, 16, 11));
    let mut hc1 = Hypercube::new(dim, CostModel::cm2_allport());
    allreduce_slab(&mut hc1, &mut copied, &dims, |a, b| a + b);
    let rows = payloads(p, 16, 11);
    let mut built = NodeSlab::build(p, p * 16, |n, buf| buf.extend_from_slice(&rows[n]));
    let mut hc2 = Hypercube::new(dim, CostModel::cm2_allport());
    allreduce_slab(&mut hc2, &mut built, &dims, |a, b| a + b);
    assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
    assert_eq!(hc1.counters(), hc2.counters());
    assert_eq!(copied, built);
    assert_eq!(copied.to_nested(), want);
}

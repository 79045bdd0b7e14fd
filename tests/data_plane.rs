//! Differential property tests for the flat-slab data plane.
//!
//! The collective layer and the elementwise kernels were rewritten from
//! per-node `Vec<Vec<T>>` buffers to arena-backed slabs with tiled local
//! loops. The seed implementations are preserved verbatim under
//! `collective::reference`; these tests assert the new path is
//! **bit-identical** to the seed path — payloads, simulated clock, and
//! event counters — across random machine sizes, buffer shapes, and
//! fault plans. Bitwise equality (no float tolerance) is the point: the
//! data plane may change host speed only, never a single result bit.

// Proptest sweeps are far too slow under Miri's interpreter; the
// dedicated Miri CI job covers the library's unsafe/aliasing surface
// via the unit tests instead (see .github/workflows/ci.yml).
#![cfg(not(miri))]

use proptest::prelude::*;

use four_vmp::core::elem::Sum;
use four_vmp::core::primitives;
use four_vmp::hypercube::collective::{self, reference};
use four_vmp::hypercube::slab::{NodeSlab, SegSlab};
use four_vmp::hypercube::{Cube, FaultPlan};
use four_vmp::prelude::*;

/// A cheap deterministic pseudo-random f64 in roughly `[-1, 1]`.
fn val(i: usize, j: usize) -> f64 {
    let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Two identically configured machines (same cost model, same fault
/// plan) — one drives the seed path, one the slab path.
fn machine_pair(dim: u32, fault: Option<(u64, f64)>) -> (Hypercube, Hypercube) {
    let make = || {
        let mut hc = Hypercube::cm2(dim);
        if let Some((seed, rate)) = fault {
            let plan = FaultPlan::none(seed).with_drops(rate, 0, u64::MAX);
            hc.install_faults(plan);
        }
        hc
    };
    (make(), make())
}

/// Per-node buffers with node-dependent lengths (some empty).
fn ragged_locals(dim: u32, max_len: usize, salt: usize) -> Vec<Vec<f64>> {
    let p = 1usize << dim;
    (0..p)
        .map(|n| {
            let len = (n * 7 + salt) % (max_len + 1);
            (0..len).map(|i| val(n + salt, i)).collect()
        })
        .collect()
}

/// Per-node buffers with one uniform length (the combine collectives
/// require equal lengths within a subcube).
fn uniform_locals(dim: u32, len: usize, salt: usize) -> Vec<Vec<f64>> {
    let p = 1usize << dim;
    (0..p).map(|n| (0..len).map(|i| val(n + salt, i)).collect()).collect()
}

fn assert_machines_identical(seed: &Hypercube, slab: &Hypercube, what: &str) {
    assert_eq!(seed.elapsed_us(), slab.elapsed_us(), "{what}: simulated clock diverged");
    assert_eq!(seed.counters(), slab.counters(), "{what}: event counters diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Move collectives (exchange / allgather / gather) on ragged buffers.
    #[test]
    fn move_collectives_match_reference(
        dim in 0u32..=4,
        max_len in 0usize..=9,
        salt in 0usize..=100,
        drops in prop_oneof![Just(None), (1u64..=50, Just(0.2f64)).prop_map(Some)],
    ) {
        let nested = ragged_locals(dim, max_len, salt);
        let dims: Vec<u32> = Cube::new(dim).iter_dims().collect();

        // exchange along each dimension in turn, on the ragged buffers
        // (rebuild pass) and on uniform ones (in-arena swap)
        let uniform = uniform_locals(dim, max_len, salt);
        for input in [&nested, &uniform] {
            for d in 0..dim {
                let (mut hc_seed, mut hc_slab) = machine_pair(dim, drops);
                let want = reference::exchange(&mut hc_seed, input, d);
                let mut got = NodeSlab::from_nested(input);
                collective::exchange_slab(&mut hc_slab, &mut got, d);
                prop_assert_eq!(&want, &got.to_nested(), "exchange dim {} payload", d);
                assert_machines_identical(&hc_seed, &hc_slab, "exchange");
            }
        }

        // allgather over the whole cube
        let (mut hc_seed, mut hc_slab) = machine_pair(dim, drops);
        let mut want = nested.clone();
        reference::allgather(&mut hc_seed, &mut want, &dims);
        let mut got = NodeSlab::from_nested(&nested);
        collective::allgather_slab(&mut hc_slab, &mut got, &dims);
        prop_assert_eq!(&want, &got.to_nested(), "allgather payload");
        assert_machines_identical(&hc_seed, &hc_slab, "allgather");

        // gather to coordinate 0
        let (mut hc_seed, mut hc_slab) = machine_pair(dim, drops);
        let mut want = nested.clone();
        reference::gather(&mut hc_seed, &mut want, &dims);
        let mut got = NodeSlab::from_nested(&nested);
        collective::gather_slab(&mut hc_slab, &mut got, &dims);
        prop_assert_eq!(&want, &got.to_nested(), "gather payload");
        assert_machines_identical(&hc_seed, &hc_slab, "gather");
    }

    /// Combine collectives (reduce / allreduce / scans) on uniform buffers.
    #[test]
    fn combine_collectives_match_reference(
        dim in 0u32..=4,
        len in 0usize..=9,
        salt in 0usize..=100,
        root in 0usize..=15,
        drops in prop_oneof![Just(None), (1u64..=50, Just(0.2f64)).prop_map(Some)],
    ) {
        let nested = uniform_locals(dim, len, salt);
        let dims: Vec<u32> = Cube::new(dim).iter_dims().collect();
        let root = root & ((1usize << dims.len()) - 1);

        let (mut hc_seed, mut hc_slab) = machine_pair(dim, drops);
        let mut want = nested.clone();
        reference::allreduce(&mut hc_seed, &mut want, &dims, |a, b| a + b);
        let mut got = NodeSlab::from_nested(&nested);
        collective::allreduce_slab(&mut hc_slab, &mut got, &dims, |a, b| a + b);
        prop_assert_eq!(&want, &got.to_nested(), "allreduce payload");
        assert_machines_identical(&hc_seed, &hc_slab, "allreduce");

        let (mut hc_seed, mut hc_slab) = machine_pair(dim, drops);
        let mut want = nested.clone();
        reference::reduce(&mut hc_seed, &mut want, &dims, root, |a, b| a + b);
        let mut got = NodeSlab::from_nested(&nested);
        collective::reduce_slab(&mut hc_slab, &mut got, &dims, root, |a, b| a + b);
        prop_assert_eq!(&want, &got.to_nested(), "reduce payload");
        assert_machines_identical(&hc_seed, &hc_slab, "reduce");

        let (mut hc_seed, mut hc_slab) = machine_pair(dim, drops);
        let mut want = nested.clone();
        reference::scan_inclusive(&mut hc_seed, &mut want, &dims, |a, b| a + b);
        let mut got = NodeSlab::from_nested(&nested);
        collective::scan_inclusive_slab(&mut hc_slab, &mut got, &dims, |a, b| a + b);
        prop_assert_eq!(&want, &got.to_nested(), "scan_inclusive payload");
        assert_machines_identical(&hc_seed, &hc_slab, "scan_inclusive");

        let (mut hc_seed, mut hc_slab) = machine_pair(dim, drops);
        let mut want = nested.clone();
        reference::scan_exclusive(&mut hc_seed, &mut want, &dims, 0.0, |a, b| a + b);
        let mut got = NodeSlab::from_nested(&nested);
        collective::scan_exclusive_slab(&mut hc_slab, &mut got, &dims, 0.0, |a, b| a + b);
        prop_assert_eq!(&want, &got.to_nested(), "scan_exclusive payload");
        assert_machines_identical(&hc_seed, &hc_slab, "scan_exclusive");
    }

    /// Broadcast and all-to-all (the redistribution collectives).
    #[test]
    fn redistribution_collectives_match_reference(
        dim in 0u32..=4,
        len in 0usize..=6,
        salt in 0usize..=100,
        root in 0usize..=15,
        drops in prop_oneof![Just(None), (1u64..=50, Just(0.2f64)).prop_map(Some)],
    ) {
        let p = 1usize << dim;
        let dims: Vec<u32> = Cube::new(dim).iter_dims().collect();
        let root = root & (p - 1);

        let nested = uniform_locals(dim, len, salt);
        let (mut hc_seed, mut hc_slab) = machine_pair(dim, drops);
        let mut want = nested.clone();
        reference::broadcast(&mut hc_seed, &mut want, &dims, root);
        let mut got = NodeSlab::from_nested(&nested);
        collective::broadcast_slab(&mut hc_slab, &mut got, &dims, root);
        prop_assert_eq!(&want, &got.to_nested(), "broadcast payload");
        assert_machines_identical(&hc_seed, &hc_slab, "broadcast");

        let send: Vec<Vec<Vec<f64>>> = (0..p)
            .map(|src| (0..p).map(|c| (0..len).map(|i| val(src * p + c, i + salt)).collect()).collect())
            .collect();
        let (mut hc_seed, mut hc_slab) = machine_pair(dim, drops);
        let want = reference::alltoall(&mut hc_seed, send.clone(), &dims);
        let got_slab = collective::alltoall_slab(&mut hc_slab, &SegSlab::from_nested(&send, p), &dims);
        prop_assert_eq!(&want, &got_slab.to_nested(), "alltoall payload");
        assert_machines_identical(&hc_seed, &hc_slab, "alltoall");
    }

    /// The tiled `reduce` local fold + slab butterfly is bit-identical to
    /// the seed per-node fold + hop-by-hop butterfly (f64: combine order
    /// matters, so this checks order, not just algebra).
    #[test]
    fn tiled_reduce_matches_seed_fold(
        dim in 0u32..=4,
        dr_frac in 0u32..=4,
        rows in 1usize..=17,
        cols in 1usize..=17,
    ) {
        let dr = dr_frac.min(dim);
        let grid = ProcGrid::new(Cube::new(dim), dr);
        let layout = MatrixLayout::cyclic(MatShape::new(rows, cols), grid);
        let m = DistMatrix::from_fn(layout.clone(), val);

        // Seed oracle: nested locals, offset-order fold, reference butterfly.
        let p = layout.grid().p();
        let nested: Vec<Vec<f64>> = (0..p)
            .map(|node| layout.local_elements(node).map(|(i, j, _)| val(i, j)).collect())
            .collect();
        let mut hc_seed = Hypercube::cm2(dim);
        let mut partials: Vec<Vec<f64>> = Vec::with_capacity(p);
        for node in 0..p {
            let (_, lc) = layout.local_shape(node);
            let mut acc = vec![0.0f64; lc];
            for (_, _, off) in layout.local_elements(node) {
                acc[off % lc.max(1)] += nested[node][off];
            }
            partials.push(acc);
        }
        hc_seed.charge_flops(layout.max_local_len());
        reference::allreduce(&mut hc_seed, &mut partials, layout.grid().row_dims(), |a, b| a + b);

        let mut hc_slab = Hypercube::cm2(dim);
        let v = primitives::reduce(&mut hc_slab, &m, Axis::Row, Sum);
        prop_assert_eq!(v.chunks().to_nested(), partials, "reduce payload");
        assert_machines_identical(&hc_seed, &hc_slab, "reduce primitive");
    }

    /// The tiled rank-1 kernel is bit-identical to the seed per-element
    /// offset walk (`off / lc`, `off % lc`) on random shapes.
    #[test]
    fn tiled_rank1_matches_seed_walk(
        dim in 0u32..=4,
        dr_frac in 0u32..=4,
        rows in 1usize..=17,
        cols in 1usize..=17,
        kind in prop_oneof![Just(Dist::Block), Just(Dist::Cyclic)],
    ) {
        let dr = dr_frac.min(dim);
        let grid = ProcGrid::new(Cube::new(dim), dr);
        let layout = MatrixLayout::new(MatShape::new(rows, cols), grid, kind, kind);
        let mut m = DistMatrix::from_fn(layout.clone(), val);

        let mk_vec = |axis: Axis, salt: usize| {
            let vl = VectorLayout::aligned(
                layout.shape().vector_len(axis),
                layout.grid().clone(),
                axis,
                Placement::Replicated,
                layout.vector_dist(axis).kind(),
            );
            DistVector::from_fn(vl, move |i| val(i, salt))
        };
        let col = mk_vec(Axis::Col, 5);
        let row = mk_vec(Axis::Row, 11);

        // Seed oracle on nested buffers.
        let p = layout.grid().p();
        let mut nested: Vec<Vec<f64>> = (0..p)
            .map(|node| layout.local_elements(node).map(|(i, j, _)| val(i, j)).collect())
            .collect();
        let col_chunks = col.chunks().to_nested();
        let row_chunks = row.chunks().to_nested();
        for node in 0..p {
            let lc = layout.local_shape(node).1;
            for (_, _, off) in layout.local_elements(node) {
                let li = off / lc.max(1);
                let lj = off % lc.max(1);
                nested[node][off] -= col_chunks[node][li] * row_chunks[node][lj];
            }
        }

        let mut hc = Hypercube::cm2(dim);
        m.rank1_update(&mut hc, &col, &row, |_, _, a, c, r| a - c * r);
        let dense = m.to_dense();
        for (i, drow) in dense.iter().enumerate() {
            for (j, &d) in drow.iter().enumerate() {
                let node = layout.owner(i, j);
                let off = layout.local_offset(i, j);
                prop_assert_eq!(d, nested[node][off], "divergence at ({}, {})", i, j);
            }
        }
    }
}

/// Fault plans beyond drops: a dead link forces detours; both paths must
/// retry and reroute identically because they issue identical exchange
/// supersteps.
#[test]
fn collectives_match_reference_under_link_fault() {
    let dim = 3u32;
    let dims: Vec<u32> = Cube::new(dim).iter_dims().collect();
    let nested = uniform_locals(dim, 5, 9);
    let mut fault_events = 0u64;
    for plan_seed in [3u64, 17, 99] {
        let make = || {
            let mut hc = Hypercube::cm2(dim);
            hc.install_faults(
                FaultPlan::none(plan_seed).with_drops(0.25, 0, u64::MAX).with_link_fault(0, 4, 0),
            );
            hc
        };
        let mut hc_seed = make();
        let mut want = nested.clone();
        reference::allreduce(&mut hc_seed, &mut want, &dims, |a, b| a + b);

        let mut hc_slab = make();
        let mut got = NodeSlab::from_nested(&nested);
        collective::allreduce_slab(&mut hc_slab, &mut got, &dims, |a, b| a + b);

        assert_eq!(want, got.to_nested(), "payload under faults");
        assert_machines_identical(&hc_seed, &hc_slab, "allreduce under faults");

        // A ragged exchange across the dead link's dimension detours too.
        let ragged = ragged_locals(dim, 6, plan_seed as usize);
        let want = reference::exchange(&mut hc_seed, &ragged, 2);
        let mut got = NodeSlab::from_nested(&ragged);
        collective::exchange_slab(&mut hc_slab, &mut got, 2);
        assert_eq!(want, got.to_nested(), "ragged exchange payload under faults");
        assert_machines_identical(&hc_seed, &hc_slab, "exchange under faults");
        let c = hc_seed.counters();
        fault_events += c.transient_drops + c.retries + c.reroutes + c.detour_hops;
    }
    assert!(fault_events > 0, "the plans actually injected faults");
}

//! Property-based tests of the machine substrate: random traffic through
//! the routers, random subcube collectives against serial folds, random
//! charge sequences against the tick clock.

// Proptest sweeps are far too slow under Miri's interpreter; the
// dedicated Miri CI job covers the library's unsafe/aliasing surface
// via the unit tests instead (see .github/workflows/ci.yml).
#![cfg(not(miri))]

use proptest::prelude::*;

use vmp_hypercube::collective::{
    allgather_slab, allreduce_slab, broadcast_slab, reduce_slab, scan_inclusive_slab, scatter_slab,
};
use vmp_hypercube::cost::{CostModel, Ticks};
use vmp_hypercube::counters::Counters;
use vmp_hypercube::fault::FaultPlan;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::route::charge_blocks;
use vmp_hypercube::router::route_elements;
use vmp_hypercube::slab::NodeSlab;

fn machine(dim: u32) -> Hypercube {
    Hypercube::new(dim, CostModel::unit())
}

/// One block: `(src, dst, len)`.
type Block = (usize, usize, usize);

/// Charge `blocks` in iteration order on a fresh unit-cost `dim`-cube
/// (with `plan` installed, if any) and return the machine.
fn charge_listed<'a>(
    dim: u32,
    plan: Option<FaultPlan>,
    blocks: impl Iterator<Item = &'a Block>,
) -> Hypercube {
    let mut hc = machine(dim);
    if let Some(plan) = plan {
        hc.install_faults(plan);
    }
    charge_blocks(&mut hc, blocks.copied());
    hc
}

/// A strategy for a dimension subset of a `dim`-cube, as a bitmask.
fn dims_strategy(dim: u32) -> impl Strategy<Value = Vec<u32>> {
    (0u32..(1 << dim.max(1)))
        .prop_map(move |mask| (0..dim).filter(|&d| (mask >> d) & 1 == 1).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_router_delivers_all_traffic(
        dim in 0u32..=6,
        seed in 0u64..10_000,
    ) {
        let p = 1usize << dim;
        // Pseudo-random traffic: each node posts 0..4 blocks.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let mut blocks: Vec<Block> = Vec::new();
        for src in 0..p {
            for _ in 0..(next() % 4) {
                let dst = next() % p;
                blocks.push((src, dst, next() % 5));
            }
        }
        let hc = charge_listed(dim, None, blocks.iter());

        // Independent e-cube model: while dimension `d` is resolved a
        // block sits at its destination's bits below `d` over its
        // source's bits from `d` up. Each ascending dimension that moves
        // any element costs one message of the busiest node's forwarded
        // elements.
        let mut ticks = Ticks::default();
        let mut want = Counters::default();
        for d in 0..dim {
            let bit = 1usize << d;
            let low = bit - 1;
            let mut fwd = vec![0usize; p];
            for (src, dst, len) in &blocks {
                if (src ^ dst) & bit != 0 {
                    fwd[(dst & low) | (src & !low)] += len;
                }
            }
            let max = fwd.iter().copied().max().unwrap_or(0);
            if max > 0 {
                ticks = ticks + Ticks::message(max);
                want.message_steps += 1;
                want.elements_transferred += fwd.iter().sum::<usize>() as u64;
                want.max_channel_load = want.max_channel_load.max(max as u64);
            }
        }
        prop_assert_eq!(hc.ticks(), ticks);
        prop_assert_eq!(hc.elapsed_us(), CostModel::unit().price(ticks));
        prop_assert_eq!(*hc.counters(), want);

        // Listing order changes nothing, and neither does an installed
        // but empty fault plan.
        let hc_rev = charge_listed(dim, None, blocks.iter().rev());
        prop_assert_eq!(hc_rev.elapsed_us(), hc.elapsed_us());
        prop_assert_eq!(hc_rev.counters(), hc.counters());
        let resil = charge_listed(dim, Some(FaultPlan::none(seed)), blocks.iter());
        prop_assert_eq!(resil.elapsed_us(), hc.elapsed_us());
        prop_assert_eq!(resil.counters(), hc.counters());

        // Under drops and a dead link (detours, parking, retries) every
        // block is still delivered, and the charge is still independent
        // of listing order. A 1-cube has no bypass around its one link.
        if dim >= 2 {
            let plan = FaultPlan::none(seed).with_drops(0.3, 0, u64::MAX).with_link_fault(0, 1, 0);
            let hc_f = charge_listed(dim, Some(plan.clone()), blocks.iter());
            let hc_f_rev = charge_listed(dim, Some(plan), blocks.iter().rev());
            prop_assert_eq!(hc_f_rev.elapsed_us(), hc_f.elapsed_us());
            prop_assert_eq!(hc_f_rev.counters(), hc_f.counters());
        }
    }

    #[test]
    fn charge_grouping_and_order_leave_the_clock_bits_alone(
        seed in 0u64..10_000,
        len in 1usize..24,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        // A random sequence of (charge kind, amount).
        let seq: Vec<(usize, usize)> = (0..len).map(|_| (next() % 6, next() % 1000)).collect();
        let run = |seq: &[(usize, usize)]| {
            let mut hc = Hypercube::new(4, CostModel::cm2());
            for &(kind, n) in seq {
                match kind {
                    0 => hc.charge_message_step(n, n as u64),
                    1 => hc.charge_elements(n),
                    2 => hc.charge_flops(n),
                    3 => hc.charge_moves(n),
                    4 => hc.charge_router_injection(n, n as u64),
                    _ => hc.charge_router_cycles(n as u64),
                }
            }
            hc
        };
        let whole = run(&seq);

        // Every element, flop and move charge split in two...
        let split: Vec<(usize, usize)> = seq
            .iter()
            .flat_map(|&(kind, n)| match kind {
                1..=3 => vec![(kind, n / 3), (kind, n - n / 3)],
                _ => vec![(kind, n)],
            })
            .collect();
        // ...and the split sequence shuffled.
        let mut shuffled = split.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, next() % (i + 1));
        }
        for (what, other) in [("split", run(&split)), ("shuffled", run(&shuffled))] {
            prop_assert_eq!(other.ticks(), whole.ticks(), "{}", what);
            prop_assert_eq!(other.elapsed_us().to_bits(), whole.elapsed_us().to_bits(), "{}", what);
        }
    }

    #[test]
    fn element_router_agrees_with_blocked_router(
        dim in 1u32..=5,
        seed in 0u64..10_000,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (s >> 33) as usize
        };
        let p = 1usize << dim;
        let moves: Vec<(usize, usize)> = (0..p * 2).map(|_| (next() % p, next() % p)).collect();
        let grouped: Vec<(usize, usize)> = (0..p)
            .flat_map(|n| moves.iter().copied().filter(move |&(src, _)| src == n))
            .collect();

        let mut hc1 = machine(dim);
        let stats1 = route_elements(&mut hc1, grouped.iter().copied());

        // Interleaving the sources' moves, each source's own order kept,
        // injects the same queues: same statistics, same clock.
        let mut hc2 = machine(dim);
        let stats2 = route_elements(&mut hc2, moves.iter().copied());
        prop_assert_eq!(stats2, stats1);
        prop_assert_eq!(hc2.elapsed_us(), hc1.elapsed_us());

        // Both routers follow the same e-cube paths: the element router's
        // hops are the blocked router's transferred elements.
        let mut hc3 = machine(dim);
        charge_blocks(&mut hc3, moves.iter().map(|&(src, dst)| (src, dst, 1)));
        prop_assert_eq!(stats1.hops, hc3.counters().elements_transferred);
    }

    #[test]
    fn collectives_match_serial_folds_on_random_subcubes(
        dim in 0u32..=5,
        mask_seed in 0u32..1024,
        len in 0usize..6,
    ) {
        let dims: Vec<u32> = (0..dim).filter(|&d| (mask_seed >> d) & 1 == 1).collect();
        let mut hc = machine(dim);
        let cube = hc.cube();
        let p = cube.nodes();
        let base: Vec<Vec<i64>> =
            (0..p).map(|n| (0..len).map(|i| (n * 31 + i * 7) as i64 - 40).collect()).collect();
        let submask = cube.dims_mask(&dims);

        // allreduce: every node gets the subcube-wide elementwise sum.
        let mut data = NodeSlab::from_nested(&base);
        allreduce_slab(&mut hc, &mut data, &dims, |a, b| a + b);
        for node in 0..p {
            for i in 0..len {
                let expect: i64 = cube
                    .subcube_nodes(node, &dims)
                    .map(|m| base[m][i])
                    .sum();
                prop_assert_eq!(data[node][i], expect, "allreduce node {} elem {}", node, i);
            }
        }

        // reduce to coordinate 0 within each subcube.
        let mut data = NodeSlab::from_nested(&base);
        reduce_slab(&mut hc, &mut data, &dims, 0, |a, b| a + b);
        for node in 0..p {
            if node & submask == 0 {
                for i in 0..len {
                    let expect: i64 = cube.subcube_nodes(node, &dims).map(|m| base[m][i]).sum();
                    prop_assert_eq!(data[node][i], expect);
                }
            } else {
                prop_assert!(data[node].is_empty());
            }
        }

        // broadcast from coordinate 0.
        let mut data = NodeSlab::from_nested(&base);
        broadcast_slab(&mut hc, &mut data, &dims, 0);
        for node in 0..p {
            let root = node & !submask;
            prop_assert_eq!(&data[node], &base[root], "broadcast node {}", node);
        }

        // scan (inclusive) in coordinate order.
        let mut data = NodeSlab::from_nested(&base);
        scan_inclusive_slab(&mut hc, &mut data, &dims, |a, b| a + b);
        for node in 0..p {
            let my_coord = cube.extract_coords(node, &dims);
            for i in 0..len {
                let expect: i64 = cube
                    .subcube_nodes(node, &dims)
                    .filter(|&m| cube.extract_coords(m, &dims) <= my_coord)
                    .map(|m| base[m][i])
                    .sum();
                prop_assert_eq!(data[node][i], expect, "scan node {} elem {}", node, i);
            }
        }
    }

    #[test]
    fn gather_scatter_allgather_roundtrip(
        dim in 0u32..=5,
        mask_seed in 0u32..1024,
        len in 0usize..5,
    ) {
        let dims: Vec<u32> = (0..dim).filter(|&d| (mask_seed >> d) & 1 == 1).collect();
        let mut hc = machine(dim);
        let cube = hc.cube();
        let p = cube.nodes();
        let base: Vec<Vec<u32>> =
            (0..p).map(|n| (0..len).map(|i| (n * 100 + i) as u32).collect()).collect();

        // allgather: concatenation in coordinate order, identical within
        // a subcube.
        let mut data = NodeSlab::from_nested(&base);
        allgather_slab(&mut hc, &mut data, &dims);
        for node in 0..p {
            let mut members: Vec<usize> = cube.subcube_nodes(node, &dims).collect();
            members.sort_by_key(|&m| cube.extract_coords(m, &dims));
            let expect: Vec<u32> = members.iter().flat_map(|&m| base[m].clone()).collect();
            prop_assert_eq!(&data[node], &expect, "allgather node {}", node);
        }

        // Scatter the concatenation back from coordinate 0: an even
        // split returns everyone's own chunk.
        data.retain_segs(|node| cube.extract_coords(node, &dims) == 0);
        scatter_slab(&mut hc, &mut data, &dims);
        for node in 0..p {
            prop_assert_eq!(&data[node], &base[node], "roundtrip node {}", node);
        }
    }
}

#[test]
fn dims_strategy_is_well_formed() {
    // Not a proptest: sanity-check the helper itself once.
    let s = dims_strategy(4);
    let _ = s; // strategies are lazily evaluated; construction suffices
}

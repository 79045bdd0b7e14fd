//! Property-based tests of the machine substrate: random traffic through
//! the routers, random subcube collectives against serial folds.

// Proptest sweeps are far too slow under Miri's interpreter; the
// dedicated Miri CI job covers the library's unsafe/aliasing surface
// via the unit tests instead (see .github/workflows/ci.yml).
#![cfg(not(miri))]

use proptest::prelude::*;

use vmp_hypercube::collective::{
    allgather_slab, allreduce_slab, alltoall_slab, broadcast_slab, gather_slab, reduce_slab,
    scan_inclusive_slab, scatter_slab,
};
use vmp_hypercube::cost::CostModel;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::route::{route_blocks, Block};
use vmp_hypercube::router::{route_elements, ElemMsg};
use vmp_hypercube::slab::{NodeSlab, SegSlab};

fn machine(dim: u32) -> Hypercube {
    Hypercube::new(dim, CostModel::unit())
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
        let mut hc = machine(dim);
        let p = hc.p();
        // Pseudo-random traffic: each node posts 0..4 blocks.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let mut expected: Vec<Vec<(u64, Vec<u64>)>> = vec![Vec::new(); p];
        let mut outgoing: Vec<Vec<Block<u64>>> = vec![Vec::new(); p];
        let mut tag = 0u64;
        for src in 0..p {
            for _ in 0..(next() % 4) {
                let dst = next() % p;
                let len = next() % 5;
                let data: Vec<u64> = (0..len).map(|_| next() as u64).collect();
                expected[dst].push((tag, data.clone()));
                outgoing[src].push(Block::new(dst, tag, data));
                tag += 1;
            }
        }
        let arrived = route_blocks(&mut hc, outgoing);
        for node in 0..p {
            expected[node].sort_by_key(|(t, _)| *t);
            let got: Vec<(u64, Vec<u64>)> =
                arrived[node].iter().map(|b| (b.tag, b.data.clone())).collect();
            prop_assert_eq!(got, expected[node].clone(), "node {}", node);
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
        let traffic: Vec<(usize, usize, u64)> = (0..p * 2)
            .map(|k| (next() % p, next() % p, k as u64))
            .collect();

        let mut hc1 = machine(dim);
        let out1: Vec<Vec<ElemMsg<u64>>> = (0..p)
            .map(|n| {
                traffic
                    .iter()
                    .filter(|(src, _, _)| *src == n)
                    .map(|&(_, dst, v)| ElemMsg::new(dst, v, v))
                    .collect()
            })
            .collect();
        let (arr1, _) = route_elements(&mut hc1, out1);

        let mut hc2 = machine(dim);
        let out2: Vec<Vec<Block<u64>>> = (0..p)
            .map(|n| {
                traffic
                    .iter()
                    .filter(|(src, _, _)| *src == n)
                    .map(|&(_, dst, v)| Block::new(dst, v, vec![v]))
                    .collect()
            })
            .collect();
        let arr2 = route_blocks(&mut hc2, out2);

        for node in 0..p {
            let a: Vec<u64> = arr1[node].iter().map(|m| m.val).collect();
            let b: Vec<u64> = arr2[node].iter().map(|bl| bl.data[0]).collect();
            prop_assert_eq!(a, b, "node {}", node);
        }
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

        // gather then scatter returns everyone's chunk.
        let mut data = NodeSlab::from_nested(&base);
        gather_slab(&mut hc, &mut data, &dims);
        let k = dims.len();
        let segments: Vec<Vec<Vec<u32>>> = (0..p)
            .map(|node| {
                if cube.extract_coords(node, &dims) == 0 {
                    // Split the gathered buffer back into per-coordinate
                    // chunks of length `len`.
                    (0..(1usize << k))
                        .map(|c| data[node][c * len..(c + 1) * len].to_vec())
                        .collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let spread = scatter_slab(&mut hc, &SegSlab::from_nested(&segments, 1 << k), &dims);
        for node in 0..p {
            prop_assert_eq!(&spread[node], &base[node], "roundtrip node {}", node);
        }
    }

    #[test]
    fn alltoall_is_a_block_transpose(
        dim in 0u32..=4,
        mask_seed in 0u32..256,
        blk in 0usize..4,
    ) {
        let dims: Vec<u32> = (0..dim).filter(|&d| (mask_seed >> d) & 1 == 1).collect();
        let k = dims.len();
        let mut hc = machine(dim);
        let cube = hc.cube();
        let p = cube.nodes();
        let send: Vec<Vec<Vec<u32>>> = (0..p)
            .map(|s| {
                (0..(1usize << k))
                    .map(|c| (0..blk).map(|e| (s * 1000 + c * 10 + e) as u32).collect())
                    .collect()
            })
            .collect();
        let recv = alltoall_slab(&mut hc, &SegSlab::from_nested(&send, 1 << k), &dims);
        for node in 0..p {
            let my_c = cube.extract_coords(node, &dims);
            for src_c in 0..(1usize << k) {
                let src_node = cube.with_coords(node, src_c, &dims);
                let expect: Vec<u32> =
                    (0..blk).map(|e| (src_node * 1000 + my_c * 10 + e) as u32).collect();
                prop_assert_eq!(recv.seg(node, src_c), &expect[..], "node {} src {}", node, src_c);
            }
        }
    }
}

#[test]
fn dims_strategy_is_well_formed() {
    // Not a proptest: sanity-check the helper itself once.
    let s = dims_strategy(4);
    let _ = s; // strategies are lazily evaluated; construction suffices
}

//! Gather, scatter and all-gather within subcubes.
//!
//! Concatenation/segmentation order is subcube **coordinate order**. The
//! gather/scatter roots are at subcube coordinate 0 (callers needing a
//! different root compose with a routed move — none of the primitives do).
//!
//! All three run **charge-then-place** over the flat slab: the per-step
//! loads of the binomial/recursive-doubling schedules are computed
//! analytically from segment lengths (each step is charged exactly as
//! the hop-by-hop seed implementation in [`super::reference`] charges
//! it), and the final buffer contents — which are deterministic — are
//! materialised in a single pass. This removes the `O(total * steps)`
//! host copying of the nested-`Vec` data plane.

use super::check_dims;
use crate::cost::{Algo, Collective};
use crate::machine::Hypercube;
use crate::slab::{NodeSlab, SegSlab};

/// All-gather over a flat [`NodeSlab`]: every segment ends holding the
/// concatenation of its subcube's segments in coordinate order.
///
/// Recursive doubling: step `j` exchanges the current accumulation along
/// `dims[j]`, so time is `sum_j (alpha + beta * L_j)` with `L_j`
/// doubling — `|dims| * alpha + beta * (total - own)` overall, the
/// one-port lower bound to within a constant.
pub fn allgather_slab<T: Copy>(hc: &mut Hypercube, slab: &mut NodeSlab<T>, dims: &[u32]) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(slab.p(), cube.nodes());
    let k = dims.len();

    let seg_len = slab.max_seg_len();
    let algo = hc.choose_algo(Collective::Allgather, k, seg_len);
    let mut allport_total: u64 = 0;

    // Walk the recursive-doubling schedule from lengths alone (the
    // merged lengths are needed for the totals under every schedule);
    // charge per step only on the single-port path.
    let mut lens: Vec<usize> = (0..slab.p()).map(|n| slab.len_of(n)).collect();
    for &d in dims {
        let chan = 1usize << d;
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for node in cube.iter_nodes() {
            if node & chan != 0 {
                continue;
            }
            let partner = node | chan;
            pairs.push((node, partner));
            let (lo_len, hi_len) = (lens[node], lens[partner]);
            max_len = max_len.max(lo_len.max(hi_len));
            total += (lo_len + hi_len) as u64;
            let merged = lo_len + hi_len;
            lens[node] = merged;
            lens[partner] = merged;
        }
        match algo {
            Algo::SinglePort => hc.charge_exchange_step(&pairs, max_len, total),
            Algo::AllPort { .. } => allport_total += total,
        }
    }
    if let Algo::AllPort { chunks } = algo {
        hc.charge_allport(Collective::Allgather, k, seg_len, chunks, allport_total);
    }
    if k == 0 {
        return;
    }

    // One placement pass: node <- concat of its subcube, coordinate order.
    let total_out: usize = lens.iter().sum();
    let mut out = NodeSlab::with_capacity(slab.p(), total_out);
    for node in 0..slab.p() {
        out.push_seg_with(|data| {
            for c in 0..(1usize << k) {
                data.extend_from_slice(&slab[cube.with_coords(node, c, dims)]);
            }
        });
    }
    slab.swap(&mut out);
}

/// Gather over a flat [`NodeSlab`]: the node at subcube coordinate 0
/// ends holding the concatenation of all members' segments in
/// coordinate order; every other member's segment becomes empty.
///
/// Reverse binomial tree: at step `j` the nodes whose coordinate is an
/// odd multiple of `2^j` forward their accumulation down `dims[j]`.
pub fn gather_slab<T: Copy>(hc: &mut Hypercube, slab: &mut NodeSlab<T>, dims: &[u32]) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(slab.p(), cube.nodes());
    let k = dims.len();

    let mut lens: Vec<usize> = (0..slab.p()).map(|n| slab.len_of(n)).collect();
    for (j, &d) in dims.iter().enumerate() {
        let bit = 1usize << j;
        let chan = 1usize << d;
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        let mut sends: Vec<(usize, usize)> = Vec::new();
        for node in cube.iter_nodes() {
            let c = cube.extract_coords(node, dims);
            // Senders this step: coordinate has bit j set, bits < j clear.
            if c & bit != 0 && c & (bit - 1) == 0 {
                let dst = node ^ chan;
                let len = lens[node];
                max_len = max_len.max(len);
                total += len as u64;
                sends.push((node, dst));
            }
        }
        for &(src, dst) in &sends {
            lens[dst] += lens[src];
            lens[src] = 0;
        }
        hc.charge_exchange_step(&sends, max_len, total);
    }
    if k == 0 {
        return;
    }

    let mut out = NodeSlab::with_capacity(slab.p(), slab.total_len());
    for node in 0..slab.p() {
        let c = cube.extract_coords(node, dims);
        out.push_seg_with(|data| {
            if c == 0 {
                for cc in 0..(1usize << k) {
                    data.extend_from_slice(&slab[cube.with_coords(node, cc, dims)]);
                }
            }
        });
    }
    slab.swap(&mut out);
}

/// Scatter over a flat [`SegSlab`]: each subcube root's `2^{|dims|}`
/// segments (coordinate order) are distributed so the member at
/// coordinate `c` ends holding segment `c`. Non-root nodes must carry
/// only empty segments.
///
/// # Panics
/// Panics unless `segments.nseg() == 2^{|dims|}` and every non-root
/// node's segments are empty.
pub fn scatter_slab<T: Copy>(
    hc: &mut Hypercube,
    segments: &SegSlab<T>,
    dims: &[u32],
) -> NodeSlab<T> {
    let cube = hc.cube();
    check_dims(cube, dims);
    let k = dims.len();
    let nseg = 1usize << k;
    assert_eq!(segments.p(), cube.nodes());
    assert_eq!(segments.nseg(), nseg, "root must supply 2^k segments");

    // Per-root prefix sums over segment lengths; non-root nodes must be
    // empty.
    let mut prefix: Vec<Vec<usize>> = vec![Vec::new(); cube.nodes()];
    for node in cube.iter_nodes() {
        let c = cube.extract_coords(node, dims);
        if c == 0 {
            let mut ps = Vec::with_capacity(nseg + 1);
            ps.push(0usize);
            for s in 0..nseg {
                ps.push(ps[s] + segments.seg_len(node, s));
            }
            prefix[node] = ps;
        } else {
            let held: usize = (0..nseg).map(|s| segments.seg_len(node, s)).sum();
            assert_eq!(held, 0, "non-root nodes must not supply segments");
        }
    }

    // Charge the binomial-tree schedule: before step j (descending), the
    // holders are the coordinates that are multiples of 2^{j+1}, each
    // holding its root's segments [c, c + 2^{j+1}); step j sends the
    // upper half [c + 2^j, c + 2^{j+1}) along dims[j].
    for j in (0..k).rev() {
        let bit = 1usize << j;
        let chan = 1usize << dims[j];
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        let mut sends: Vec<(usize, usize)> = Vec::new();
        for node in cube.iter_nodes() {
            let c = cube.extract_coords(node, dims);
            if c & ((bit << 1) - 1) == 0 {
                let root = cube.with_coords(node, 0, dims);
                let ps = &prefix[root];
                let len = ps[c + (bit << 1)] - ps[c + bit];
                max_len = max_len.max(len);
                total += len as u64;
                sends.push((node, node ^ chan));
            }
        }
        hc.charge_exchange_step(&sends, max_len, total);
    }

    // One placement pass: coordinate c receives its root's segment c.
    let mut out = NodeSlab::with_capacity(cube.nodes(), segments.total_len());
    for node in cube.iter_nodes() {
        let c = cube.extract_coords(node, dims);
        let root = cube.with_coords(node, 0, dims);
        out.push_seg(segments.seg(root, c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{slab_from_fn, unit_machine};
    use super::*;

    #[test]
    fn allgather_concatenates_in_coordinate_order() {
        let mut hc = unit_machine(3);
        let dims = [0u32, 1, 2];
        let mut locals = slab_from_fn(&hc, |n| vec![n as u32, 100 + n as u32]);
        allgather_slab(&mut hc, &mut locals, &dims);
        let expected: Vec<u32> = (0..8).flat_map(|n| [n, 100 + n]).collect();
        for n in 0..8 {
            assert_eq!(locals[n], expected, "node {n}");
        }
        assert_eq!(hc.counters().message_steps, 3);
    }

    #[test]
    fn allgather_ragged_buffers() {
        let mut hc = unit_machine(2);
        let dims = [0u32, 1];
        let mut locals = slab_from_fn(&hc, |n| vec![n as u8; n]);
        allgather_slab(&mut hc, &mut locals, &dims);
        let expected: Vec<u8> = (0..4).flat_map(|n| vec![n as u8; n]).collect();
        for n in 0..4 {
            assert_eq!(locals[n], expected);
        }
    }

    #[test]
    fn allgather_within_rows() {
        // dim-4 cube as 4x4 grid, row dims {0,1}: each row gathers its own.
        let mut hc = unit_machine(4);
        let dims = [0u32, 1];
        let mut locals = slab_from_fn(&hc, |n| vec![n]);
        allgather_slab(&mut hc, &mut locals, &dims);
        for n in 0..16usize {
            let row = n >> 2 << 2;
            assert_eq!(locals[n], vec![row, row + 1, row + 2, row + 3]);
        }
    }

    #[test]
    fn gather_concentrates_at_coordinate_zero() {
        let mut hc = unit_machine(3);
        let dims = [0u32, 1, 2];
        let mut locals = slab_from_fn(&hc, |n| vec![n as u16]);
        gather_slab(&mut hc, &mut locals, &dims);
        assert_eq!(locals[0], (0..8).collect::<Vec<u16>>());
        for n in 1..8 {
            assert!(locals[n].is_empty(), "node {n} consumed");
        }
        assert_eq!(hc.counters().message_steps, 3);
    }

    #[test]
    fn gather_subset_dims_keeps_other_subcubes_separate() {
        let mut hc = unit_machine(3);
        let dims = [1u32, 2]; // gather within each {bit0}-indexed subcube
        let mut locals = slab_from_fn(&hc, |n| vec![n as u16]);
        gather_slab(&mut hc, &mut locals, &dims);
        assert_eq!(locals[0], vec![0, 2, 4, 6]);
        assert_eq!(locals[1], vec![1, 3, 5, 7]);
        for n in 2..8 {
            assert!(locals[n].is_empty());
        }
    }

    #[test]
    fn scatter_delivers_segments_in_coordinate_order() {
        let mut hc = unit_machine(3);
        let dims = [0u32, 1, 2];
        let segments: Vec<Vec<Vec<u32>>> = (0..8)
            .map(|n| {
                if n == 0 {
                    (0..8).map(|c| vec![c * 10, c * 10 + 1]).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let locals =
            scatter_slab(&mut hc, &SegSlab::from_nested(&segments, 1 << dims.len()), &dims);
        for c in 0..8u32 {
            assert_eq!(locals[c as usize], vec![c * 10, c * 10 + 1], "coord {c}");
        }
        assert_eq!(hc.counters().message_steps, 3);
    }

    #[test]
    fn scatter_then_gather_roundtrips() {
        let mut hc = unit_machine(4);
        let dims = [0u32, 1, 2, 3];
        let original: Vec<Vec<u64>> = (0..16).map(|c| vec![c as u64; (c % 3) + 1]).collect();
        let segments: Vec<Vec<Vec<u64>>> =
            (0..16).map(|n| if n == 0 { original.clone() } else { Vec::new() }).collect();
        let mut locals =
            scatter_slab(&mut hc, &SegSlab::from_nested(&segments, 1 << dims.len()), &dims);
        for c in 0..16usize {
            assert_eq!(locals[c], original[c]);
        }
        gather_slab(&mut hc, &mut locals, &dims);
        let flat: Vec<u64> = original.into_iter().flatten().collect();
        assert_eq!(locals[0], flat);
    }

    #[test]
    fn scatter_within_columns() {
        // 4x4 grid, column dims {2,3}: each column root (nodes 0..4)
        // scatters 4 segments down its column.
        let mut hc = unit_machine(4);
        let dims = [2u32, 3];
        let segments: Vec<Vec<Vec<usize>>> = (0..16)
            .map(|n| if n < 4 { (0..4).map(|c| vec![n * 100 + c]).collect() } else { Vec::new() })
            .collect();
        let locals =
            scatter_slab(&mut hc, &SegSlab::from_nested(&segments, 1 << dims.len()), &dims);
        for n in 0..16usize {
            let col = n & 0b11;
            let row = n >> 2;
            assert_eq!(locals[n], vec![col * 100 + row], "node {n}");
        }
    }

    #[test]
    fn allgather_empty_dims_is_noop() {
        let mut hc = unit_machine(2);
        let mut locals = slab_from_fn(&hc, |n| vec![n]);
        let before = locals.clone();
        allgather_slab(&mut hc, &mut locals, &[]);
        assert_eq!(locals, before);
    }

    #[test]
    fn slab_paths_match_reference_clocks_on_ragged_inputs() {
        use super::super::reference;
        let dims = [1u32, 2];
        let ragged: Vec<Vec<u64>> = (0..8).map(|n| vec![n as u64; n % 4]).collect();
        // allgather
        let mut hc1 = unit_machine(3);
        let mut a = ragged.clone();
        reference::allgather(&mut hc1, &mut a, &dims);
        let mut hc2 = unit_machine(3);
        let mut b = NodeSlab::from_nested(&ragged);
        allgather_slab(&mut hc2, &mut b, &dims);
        assert_eq!(b.to_nested(), a);
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
        // gather
        let mut hc3 = unit_machine(3);
        let mut c = ragged.clone();
        reference::gather(&mut hc3, &mut c, &dims);
        let mut hc4 = unit_machine(3);
        let mut d = NodeSlab::from_nested(&ragged);
        gather_slab(&mut hc4, &mut d, &dims);
        assert_eq!(d.to_nested(), c);
        assert_eq!(hc3.elapsed_us(), hc4.elapsed_us());
        assert_eq!(hc3.counters(), hc4.counters());
    }

    #[test]
    fn slab_scatter_matches_reference_clock() {
        use super::super::reference;
        let dims = [0u32, 2];
        let segs: Vec<Vec<Vec<u32>>> = (0..8)
            .map(|n| {
                if n == 0 || n == 2 {
                    (0..4).map(|c| vec![(n * 100 + c) as u32; c + 1]).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut hc1 = unit_machine(3);
        let a = reference::scatter(&mut hc1, segs.clone(), &dims);
        let mut hc2 = unit_machine(3);
        let b = scatter_slab(&mut hc2, &SegSlab::from_nested(&segs, 4), &dims);
        assert_eq!(b.to_nested(), a);
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
    }
}

//! Scatter and all-gather within subcubes.
//!
//! Concatenation/segmentation order is subcube **coordinate order**. The
//! scatter root is at subcube coordinate 0 (a caller needing a different
//! root moves the payload there first, as
//! [`crate::spanning::broadcast_scatter_allgather`] does).
//!
//! Both run **charge-then-place** over the flat slab: the per-step
//! loads of the binomial/recursive-doubling schedules are computed
//! analytically from segment lengths (each step is charged exactly as
//! the hop-by-hop seed implementation in [`super::reference`] charges
//! it), and the final buffer contents — which are deterministic — are
//! materialised in a single pass. This removes the `O(total * steps)`
//! host copying of the nested-`Vec` data plane.

use super::{channel_pairs, check_dims, nodes_where};
use crate::cost::{Algo, Collective};
use crate::machine::Hypercube;
use crate::slab::NodeSlab;

/// All-gather over a flat [`NodeSlab`]: every segment ends holding the
/// concatenation of its subcube's segments in coordinate order.
///
/// Recursive doubling: step `j` exchanges the current accumulation along
/// `dims[j]`, so time is `sum_j (alpha + beta * L_j)` with `L_j`
/// doubling — `|dims| * alpha + beta * (total - own)` overall, the
/// one-port lower bound to within a constant. Charged by
/// [`charge_allgather`].
pub fn allgather_slab<T: Copy>(hc: &mut Hypercube, slab: &mut NodeSlab<T>, dims: &[u32]) {
    let cube = hc.cube();
    let p = slab.p();
    let lens: Vec<usize> = (0..p).map(|n| slab.len_of(n)).collect();
    charge_allgather(hc, dims, &lens);
    if dims.is_empty() {
        return;
    }

    // One placement pass: node <- concat of its subcube, coordinate order.
    let mut out = NodeSlab::with_capacity(p, slab.total_len() << dims.len());
    for node in 0..p {
        out.push_seg_with(|data| {
            for member in cube.subcube_nodes(node, dims) {
                data.extend_from_slice(&slab[member]);
            }
        });
    }
    slab.swap(&mut out);
}

/// Charge what [`allgather_slab`] charges for segments of lengths `lens`
/// (one per node), moving nothing: the recursive-doubling schedule's
/// per-step loads, walked from the lengths alone.
///
/// # Panics
/// Panics if `dims` is invalid or there is not one length per node.
pub fn charge_allgather(hc: &mut Hypercube, dims: &[u32], lens: &[usize]) {
    let cube = hc.cube();
    check_dims(cube, dims);
    let p = cube.nodes();
    assert_eq!(lens.len(), p, "one segment length per node");
    let k = dims.len();

    let seg_len = lens.iter().copied().max().unwrap_or(0);
    let algo = hc.choose_algo(Collective::Allgather, k, seg_len);
    let mut allport_total: u64 = 0;

    // The merged lengths are needed for the totals under every schedule;
    // charge per step only on the single-port path.
    let mut lens = lens.to_vec();
    for &d in dims {
        let chan = 1usize << d;
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        for (lo, hi) in channel_pairs(p, chan) {
            let (lo_len, hi_len) = (lens[lo], lens[hi]);
            max_len = max_len.max(lo_len.max(hi_len));
            total += (lo_len + hi_len) as u64;
            let merged = lo_len + hi_len;
            lens[lo] = merged;
            lens[hi] = merged;
        }
        match algo {
            Algo::SinglePort => hc.charge_exchange_step(channel_pairs(p, chan), max_len, total),
            Algo::AllPort { .. } => allport_total += total,
        }
    }
    if let Algo::AllPort { chunks } = algo {
        hc.charge_allport(Collective::Allgather, k, seg_len, chunks, allport_total);
    }
}

/// Where piece `c` of a `len`-element buffer cut into `2^k` pieces
/// starts: the first `len mod 2^k` pieces are one element longer.
fn piece_start(len: usize, k: usize, c: usize) -> usize {
    c * (len >> k) + c.min(len & ((1usize << k) - 1))
}

/// Scatter over a flat [`NodeSlab`]: each subcube's coordinate-0
/// segment is cut into `2^{|dims|}` contiguous pieces of near-equal
/// length (the first `len mod 2^{|dims|}` one element longer), and the
/// member at coordinate `c` ends holding piece `c`.
///
/// Binomial tree from coordinate 0: step `j` (descending) hands the
/// upper half of every holder's pieces down `dims[j]`.
///
/// # Panics
/// Panics unless every node off coordinate 0 holds an empty segment.
pub fn scatter_slab<T: Copy>(hc: &mut Hypercube, slab: &mut NodeSlab<T>, dims: &[u32]) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(slab.p(), cube.nodes());
    let k = dims.len();
    let p = slab.p();
    let mask = cube.dims_mask(dims);
    let roots = nodes_where(p, mask, 0);
    let root_total: usize = roots.clone().map(|root| slab.len_of(root)).sum();
    assert_eq!(root_total, slab.total_len(), "non-root nodes must not supply segments");

    // Charge the binomial-tree schedule: before step j, the holders are
    // the coordinates that are multiples of 2^{j+1}, each holding its
    // root's pieces [c, c + 2^{j+1}); step j sends the upper half
    // [c + 2^j, c + 2^{j+1}) along dims[j].
    for j in (0..k).rev() {
        let bit = 1usize << j;
        let chan = 1usize << dims[j];
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        for root in roots.clone() {
            let len = slab.len_of(root);
            for c in (0..1usize << k).step_by(bit << 1) {
                let sent = piece_start(len, k, c + (bit << 1)) - piece_start(len, k, c + bit);
                max_len = max_len.max(sent);
                total += sent as u64;
            }
        }
        let holders = nodes_where(p, cube.dims_mask(&dims[..=j]), 0);
        hc.charge_exchange_step(holders.map(|node| (node, node ^ chan)), max_len, total);
    }
    if k == 0 {
        return;
    }

    // One placement pass: coordinate c receives its root's piece c.
    let mut out = NodeSlab::build(p, slab.total_len(), |node, buf| {
        let root = &slab[node & !mask];
        let c = cube.extract_coords(node, dims);
        buf.extend_from_slice(
            &root[piece_start(root.len(), k, c)..piece_start(root.len(), k, c + 1)],
        );
    });
    slab.swap(&mut out);
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
    fn scatter_delivers_segments_in_coordinate_order() {
        let mut hc = unit_machine(3);
        let dims = [0u32, 1, 2];
        let mut locals = slab_from_fn(&hc, |n| {
            if n == 0 {
                (0..8).flat_map(|c| [c * 10, c * 10 + 1]).collect()
            } else {
                Vec::new()
            }
        });
        scatter_slab(&mut hc, &mut locals, &dims);
        for c in 0..8u32 {
            assert_eq!(locals[c as usize], vec![c * 10, c * 10 + 1], "coord {c}");
        }
        assert_eq!(hc.counters().message_steps, 3);
    }

    #[test]
    fn scatter_then_gather_roundtrips() {
        let mut hc = unit_machine(4);
        let dims = [0u32, 1, 2, 3];
        // 37 = 16 * 2 + 5: the first five pieces get three elements.
        let original: Vec<u64> = (0..37).collect();
        let mut locals = slab_from_fn(&hc, |n| if n == 0 { original.clone() } else { Vec::new() });
        scatter_slab(&mut hc, &mut locals, &dims);
        let lens: Vec<usize> = (0..16).map(|c| locals.len_of(c)).collect();
        assert_eq!(lens, [3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]);
        allgather_slab(&mut hc, &mut locals, &dims);
        for n in 0..16 {
            assert_eq!(locals[n], original, "node {n}");
        }
    }

    #[test]
    fn scatter_within_columns() {
        // 4x4 grid, column dims {2,3}: each column root (nodes 0..4)
        // scatters 4 pieces down its column.
        let mut hc = unit_machine(4);
        let dims = [2u32, 3];
        let column_root =
            |n: usize| if n < 4 { (0..4).map(|c| n * 100 + c).collect() } else { vec![] };
        let mut locals = slab_from_fn(&hc, column_root);
        scatter_slab(&mut hc, &mut locals, &dims);
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
        let mut hc1 = unit_machine(3);
        let mut a = ragged.clone();
        reference::allgather(&mut hc1, &mut a, &dims);
        let mut hc2 = unit_machine(3);
        let mut b = NodeSlab::from_nested(&ragged);
        allgather_slab(&mut hc2, &mut b, &dims);
        assert_eq!(b.to_nested(), a);
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
    }

    #[test]
    fn slab_scatter_matches_reference_clock() {
        use super::super::reference;
        let dims = [0u32, 2];
        // Roots 0 and 2 hold 7 and 10 elements: pieces of 2,2,2,1 and
        // 3,3,2,2.
        let lens = [7usize, 0, 10, 0, 0, 0, 0, 0];
        let buf = |n: usize| -> Vec<u32> { (0..lens[n]).map(|i| (n * 100 + i) as u32).collect() };
        let pieces = |n: usize, sizes: [usize; 4]| -> Vec<Vec<u32>> {
            let b = buf(n);
            let mut at = 0;
            sizes
                .iter()
                .map(|&s| {
                    at += s;
                    b[at - s..at].to_vec()
                })
                .collect()
        };
        let segs: Vec<Vec<Vec<u32>>> = (0..8)
            .map(|n| match n {
                0 => pieces(0, [2, 2, 2, 1]),
                2 => pieces(2, [3, 3, 2, 2]),
                _ => Vec::new(),
            })
            .collect();
        let mut hc1 = unit_machine(3);
        let a = reference::scatter(&mut hc1, segs, &dims);
        let mut hc2 = unit_machine(3);
        let mut b = slab_from_fn(&hc2, buf);
        scatter_slab(&mut hc2, &mut b, &dims);
        assert_eq!(b.to_nested(), a);
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
    }
}

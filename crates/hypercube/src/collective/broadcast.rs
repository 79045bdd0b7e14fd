//! One-to-all broadcast within subcubes (spanning binomial tree).

use super::check_dims;
use crate::cost::{Algo, Collective};
use crate::machine::Hypercube;
use crate::slab::NodeSlab;
use crate::topology::NodeId;

/// Broadcast, within every subcube spanned by `dims`, the segment of the
/// node at subcube coordinate `root_coord` to all other subcube members
/// (overwriting their segments).
///
/// Runs the classic spanning-binomial-tree schedule: `|dims|` supersteps,
/// step `j` doubling the set of informed nodes along `dims[j]`. Time
/// `|dims| * (alpha + beta * L)` for buffers of length `L` — the
/// one-port-optimal start-up count.
///
/// The spanning-binomial-tree *schedule* is charged step by step from
/// segment lengths alone (every informed sender holds exactly the root's
/// buffer, so each step's load is known analytically); the data is then
/// placed in **one** pass instead of being recopied at every hop. Same
/// simulated clock, counters, and fault interaction as the hop-by-hop
/// seed implementation ([`super::reference::broadcast`]), `k` times less
/// host copying.
///
/// # Panics
/// Panics if `dims` is invalid or `root_coord >= 2^{|dims|}`.
pub fn broadcast_slab<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    root_coord: usize,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    let k = dims.len();
    assert!(root_coord < (1usize << k), "root coordinate out of range");
    assert_eq!(slab.p(), cube.nodes());
    if k == 0 {
        return;
    }

    // Each node's subcube root and that root's buffer length — the only
    // payload any informed node ever holds.
    let root_of: Vec<usize> =
        (0..slab.p()).map(|node| cube.with_coords(node, root_coord, dims)).collect();

    let root_len = root_of.iter().map(|&r| slab.len_of(r)).max().unwrap_or(0);
    match hc.choose_algo(Collective::Broadcast, k, root_len) {
        Algo::SinglePort => {
            for (j, &d) in dims.iter().enumerate() {
                let bit = 1usize << j;
                let mut transfers: Vec<(NodeId, NodeId)> = Vec::new();
                let mut max_len = 0usize;
                let mut total: u64 = 0;
                for node in cube.iter_nodes() {
                    let c = cube.extract_coords(node, dims);
                    let x = c ^ root_coord;
                    if x < bit {
                        let partner = cube.neighbor(node, d);
                        let len = slab.len_of(root_of[node]);
                        max_len = max_len.max(len);
                        total += len as u64;
                        transfers.push((node, partner));
                    }
                }
                hc.charge_exchange_step(&transfers, max_len, total);
            }
        }
        Algo::AllPort { chunks } => {
            let total: u64 = root_of
                .iter()
                .enumerate()
                .filter(|&(node, &r)| node != r)
                .map(|(_, &r)| slab.len_of(r) as u64)
                .sum();
            hc.charge_allport(Collective::Broadcast, k, root_len, chunks, total);
        }
    }

    let total_out: usize = root_of.iter().map(|&r| slab.len_of(r)).sum();
    let mut out = NodeSlab::with_capacity(slab.p(), total_out);
    for &root in &root_of {
        out.push_seg(&slab[root]);
    }
    slab.swap(&mut out);
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{slab_from_fn, unit_machine};
    use super::*;

    #[test]
    fn broadcast_whole_cube() {
        let mut hc = unit_machine(4);
        let dims: Vec<u32> = hc.cube().iter_dims().collect();
        let mut locals = slab_from_fn(&hc, |n| if n == 0 { vec![1.0, 2.0, 3.0] } else { vec![] });
        broadcast_slab(&mut hc, &mut locals, &dims, 0);
        for buf in locals.iter_segs() {
            assert_eq!(buf, &vec![1.0, 2.0, 3.0]);
        }
        assert_eq!(hc.counters().message_steps, 4, "d supersteps");
        assert_eq!(hc.elapsed_us(), 4.0 * (1.0 + 3.0));
    }

    #[test]
    fn broadcast_nonzero_root() {
        let mut hc = unit_machine(3);
        let dims = [0u32, 1, 2];
        let root_coord = 5usize;
        let mut locals = slab_from_fn(&hc, |n| if n == 5 { vec![9u32] } else { vec![0] });
        broadcast_slab(&mut hc, &mut locals, &dims, root_coord);
        for buf in locals.iter_segs() {
            assert_eq!(buf, &vec![9u32]);
        }
    }

    #[test]
    fn broadcast_within_row_subcubes_only() {
        // Cube of dim 4 seen as a 4x4 grid: dims {0,1} = columns within a
        // row, dims {2,3} = rows. Broadcast along {0,1} from coord 0
        // spreads each row-leader's value across its row only.
        let mut hc = unit_machine(4);
        let row_dims = [0u32, 1];
        let mut locals = slab_from_fn(&hc, |n| vec![(n >> 2) as u32 * 100]); // row id * 100
                                                                             // Give non-leaders junk to prove it is overwritten.
        for n in hc.cube().iter_nodes() {
            if hc.cube().extract_coords(n, &row_dims) != 0 {
                locals[n][0] = u32::MAX;
            }
        }
        broadcast_slab(&mut hc, &mut locals, &row_dims, 0);
        for n in hc.cube().iter_nodes() {
            let row = n >> 2;
            assert_eq!(locals[n], vec![row as u32 * 100], "node {n}");
        }
        assert_eq!(hc.counters().message_steps, 2);
    }

    #[test]
    fn broadcast_empty_dims_is_noop() {
        let mut hc = unit_machine(3);
        let mut locals = slab_from_fn(&hc, |n| vec![n]);
        let before = locals.clone();
        broadcast_slab(&mut hc, &mut locals, &[], 0);
        assert_eq!(locals, before);
        assert_eq!(hc.elapsed_us(), 0.0);
    }

    #[test]
    fn broadcast_noncontiguous_dims() {
        let mut hc = unit_machine(5);
        let dims = [1u32, 4];
        // Roots: nodes with bits 1 and 4 equal to root_coord=0b10 -> bit1=0, bit4=1.
        let mut locals = slab_from_fn(&hc, |n| vec![n]);
        broadcast_slab(&mut hc, &mut locals, &dims, 0b10);
        for n in hc.cube().iter_nodes() {
            let root = hc.cube().with_coords(n, 0b10, &dims);
            assert_eq!(locals[n], vec![root], "node {n} gets its subcube root's value");
        }
    }

    #[test]
    fn slab_broadcast_matches_reference_with_ragged_roots() {
        let mut hc1 = unit_machine(4);
        let dims = [0u32, 2];
        let mut a: Vec<Vec<u64>> = (0..hc1.p()).map(|n| vec![n as u64; (n % 3) + 1]).collect();
        let mut b = NodeSlab::from_nested(&a);
        super::super::reference::broadcast(&mut hc1, &mut a, &dims, 1);
        let mut hc2 = unit_machine(4);
        broadcast_slab(&mut hc2, &mut b, &dims, 1);
        assert_eq!(b.to_nested(), a);
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
    }

    #[test]
    #[should_panic(expected = "root coordinate out of range")]
    fn bad_root_panics() {
        let mut hc = unit_machine(3);
        let mut locals: NodeSlab<u8> = NodeSlab::new(hc.p());
        broadcast_slab(&mut hc, &mut locals, &[0, 1], 4);
    }
}

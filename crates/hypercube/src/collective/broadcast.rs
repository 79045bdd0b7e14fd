//! One-to-all broadcast within subcubes (spanning binomial tree).

use super::{check_dims, nodes_where};
use crate::cost::{Algo, Collective};
use crate::machine::Hypercube;
use crate::slab::NodeSlab;

/// Broadcast, within every subcube spanned by `dims`, the segment of the
/// node at subcube coordinate `root_coord` to all other subcube members
/// (overwriting their segments).
///
/// Runs the classic spanning-binomial-tree schedule: `|dims|` supersteps,
/// step `j` doubling the set of informed nodes along `dims[j]`, charged
/// from the roots' segment lengths alone ([`charge_broadcast`]). The data
/// is then placed in **one** pass instead of being recopied at every
/// hop: same clock, counters and fault interaction as the hop-by-hop
/// seed implementation ([`super::reference::broadcast`]).
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
    assert_eq!(slab.p(), cube.nodes());
    // Each node's subcube root is the node with its `dims` bits replaced
    // by `root_bits`; the roots' segments are the only payload any
    // informed node ever holds. The charge rejects a root out of range.
    let (p, mask) = (slab.p(), cube.dims_mask(dims));
    let root_bits = cube.deposit_coords(root_coord, dims);
    let (root_len, root_total) = nodes_where(p, mask, root_bits)
        .map(|root| slab.len_of(root))
        .fold((0usize, 0u64), |(max, total), len| (max.max(len), total + len as u64));
    charge_broadcast(hc, dims, root_coord, root_len, root_total);
    *slab = NodeSlab::build(p, (root_total as usize) << dims.len(), |node, buf| {
        buf.extend_from_slice(&slab[(node & !mask) | root_bits]);
    });
}

/// The charge of [`broadcast_slab`] alone, from the roots' longest
/// segment `root_len` and their total `root_total`, for a caller that
/// already holds the result (an aligned vector's parts broadcast as
/// `(dist.max_count(), n)`). Every informed sender holds its root's
/// buffer, so step `j`'s busiest channel carries `root_len` elements
/// and its volume is `2^j · root_total`: `|dims| · (alpha + beta · L)`,
/// the one-port-optimal start-up count.
///
/// # Panics
/// Panics if `dims` is invalid or `root_coord >= 2^{|dims|}`.
pub fn charge_broadcast(
    hc: &mut Hypercube,
    dims: &[u32],
    root_coord: usize,
    root_len: usize,
    root_total: u64,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    let k = dims.len();
    assert!(root_coord < (1usize << k), "root coordinate out of range");
    if k == 0 {
        return;
    }
    let root_bits = cube.deposit_coords(root_coord, dims);
    match hc.choose_algo(Collective::Broadcast, k, root_len) {
        Algo::SinglePort => {
            for (j, &d) in dims.iter().enumerate() {
                let chan = 1usize << d;
                // Informed senders: relative coordinate below 2^j, i.e.
                // bits `dims[j..]` agree with the root's.
                let side = cube.dims_mask(&dims[j..]);
                let senders = nodes_where(cube.nodes(), side, root_bits & side);
                hc.charge_exchange_step(
                    senders.map(|node| (node, node ^ chan)),
                    root_len,
                    root_total << j,
                );
            }
        }
        Algo::AllPort { chunks } => {
            // Every non-root member receives its root's segment once.
            let total = root_total * ((1u64 << k) - 1);
            hc.charge_allport(Collective::Broadcast, k, root_len, chunks, total);
        }
    }
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

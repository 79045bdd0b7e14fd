//! All-to-all personalized communication within subcubes.

use super::check_dims;
use crate::machine::Hypercube;
use crate::slab::SegSlab;

/// All-to-all personalized exchange over a flat [`SegSlab`]: on entry,
/// the member at coordinate `s` holds segment `c` = the block bound for
/// coordinate `c` (`2^{|dims|}` segments per node); on return, the member
/// at coordinate `c` holds the blocks from every source, indexed by
/// source coordinate.
///
/// `|dims|` supersteps, each moving half of each node's data, so time is
/// `|dims| * (alpha + beta * B * 2^{k-1})` for uniform block size `B` —
/// the classic `O(B p lg p / 2)` transfer volume (Johnsson & Ho TR-610).
///
/// The standard hypercube store-and-forward schedule (step `j` forwards
/// every in-flight block whose destination differs in coordinate bit
/// `j`) is charged **analytically**: at entry to step `j` the node at
/// coordinate `c` holds exactly the blocks `(s, d)` with `s ≡ c` on
/// coordinate bits `≥ j` and `d ≡ c` on bits `< j`, so each step's
/// channel loads follow from the original block lengths without moving
/// anything. The final placement — `out[c][s] = send[s][c]` within each
/// subcube — is one pass. Same clock, counters, and fault interaction as
/// [`super::reference::alltoall`], but `O(total)` host copying instead
/// of `O(total * |dims| / 2)`.
pub fn alltoall_slab<T: Copy>(hc: &mut Hypercube, send: &SegSlab<T>, dims: &[u32]) -> SegSlab<T> {
    let cube = hc.cube();
    check_dims(cube, dims);
    let k = dims.len();
    let blocks_per_node = 1usize << k;
    let p = cube.nodes();
    assert_eq!(send.p(), p);
    assert_eq!(send.nseg(), blocks_per_node, "need one block per destination coordinate");

    // Coordinate tables, built once: each node's coordinate, and the
    // address bits of each coordinate (so a subcube member is
    // `(node & !mask) | coord_bits[c]`).
    let mask = cube.dims_mask(dims);
    let coord_bits: Vec<usize> =
        (0..blocks_per_node).map(|c| cube.deposit_coords(c, dims)).collect();
    let coords: Vec<usize> = (0..p).map(|node| cube.extract_coords(node, dims)).collect();

    for j in 0..k {
        let bit = 1usize << j;
        let chan = 1usize << dims[j];
        let low_mask = bit - 1;
        // Held blocks (s, d) at `node`: s ≡ my_c on bits >= j, d ≡ my_c
        // on bits < j. Forwarded now: those whose d bit j differs.
        let fwd_elems = |node: usize| -> usize {
            let my_c = coords[node];
            let mut elems = 0usize;
            for s_low in 0..bit {
                let src_node = (node & !mask) | coord_bits[(my_c & !low_mask) | s_low];
                for d_high in 0..(1usize << (k - j - 1)) {
                    let d = (my_c & low_mask) | ((my_c ^ bit) & bit) | (d_high << (j + 1));
                    elems += send.seg_len(src_node, d);
                }
            }
            elems
        };
        let mut max_fwd = 0usize;
        let mut total: u64 = 0;
        for node in 0..p {
            let elems = fwd_elems(node);
            max_fwd = max_fwd.max(elems);
            total += elems as u64;
        }
        let senders = (0..p).filter(|&node| fwd_elems(node) > 0);
        hc.charge_exchange_step(senders.map(|node| (node, node ^ chan)), max_fwd, total);
    }

    // One placement pass: at each node, blocks indexed by source coord.
    let mut out = SegSlab::with_capacity(blocks_per_node, p, send.total_len());
    for node in 0..p {
        for &s_bits in &coord_bits {
            out.push_seg(send.seg((node & !mask) | s_bits, coords[node]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::testutil::unit_machine;
    use super::*;

    #[test]
    fn alltoall_full_cube_transposes_block_matrix() {
        let mut hc = unit_machine(3);
        let dims = [0u32, 1, 2];
        // send[s][c] = [s*8 + c]
        let send: Vec<Vec<Vec<u32>>> =
            (0..8).map(|s| (0..8).map(|c| vec![(s * 8 + c) as u32]).collect()).collect();
        let recv = alltoall_slab(&mut hc, &SegSlab::from_nested(&send, 1 << dims.len()), &dims);
        for c in 0..8 {
            for s in 0..8 {
                assert_eq!(recv.seg(c, s), vec![(s * 8 + c) as u32], "dst {c} src {s}");
            }
        }
        assert_eq!(hc.counters().message_steps, 3);
        // Each step forwards exactly half of each node's 8 blocks.
        assert_eq!(hc.elapsed_us(), 3.0 * (1.0 + 4.0));
    }

    #[test]
    fn alltoall_variable_block_sizes() {
        let mut hc = unit_machine(2);
        let dims = [0u32, 1];
        let send: Vec<Vec<Vec<u8>>> =
            (0..4).map(|s| (0..4).map(|c| vec![s as u8; c]).collect()).collect();
        let recv = alltoall_slab(&mut hc, &SegSlab::from_nested(&send, 1 << dims.len()), &dims);
        for c in 0..4 {
            for s in 0..4 {
                assert_eq!(recv.seg(c, s), vec![s as u8; c], "dst {c} src {s}");
            }
        }
    }

    #[test]
    fn alltoall_within_rows_only() {
        // dim-4 cube as 4x4 grid; exchange within rows (dims {0,1}).
        let mut hc = unit_machine(4);
        let dims = [0u32, 1];
        let send: Vec<Vec<Vec<usize>>> =
            (0..16).map(|n| (0..4).map(|c| vec![n * 10 + c]).collect()).collect();
        let recv = alltoall_slab(&mut hc, &SegSlab::from_nested(&send, 1 << dims.len()), &dims);
        for n in 0..16usize {
            let row_base = n & !0b11;
            let my_c = n & 0b11;
            for s in 0..4usize {
                let src_node = row_base | s;
                assert_eq!(recv.seg(n, s), vec![src_node * 10 + my_c], "node {n} from {s}");
            }
        }
    }

    #[test]
    fn alltoall_empty_dims_returns_own_block() {
        let mut hc = unit_machine(2);
        let send: Vec<Vec<Vec<u8>>> = (0..4).map(|n| vec![vec![n as u8]]).collect();
        let recv = alltoall_slab(&mut hc, &SegSlab::from_nested(&send, 1), &[]);
        for n in 0..4 {
            assert_eq!(recv.seg(n, 0), [n as u8]);
        }
        assert_eq!(hc.elapsed_us(), 0.0);
    }

    #[test]
    fn slab_alltoall_matches_reference_on_ragged_blocks() {
        use super::super::reference;
        let dims = [1u32, 2];
        let send: Vec<Vec<Vec<u16>>> = (0..8)
            .map(|s| (0..4).map(|c| vec![(s * 10 + c) as u16; (s + c) % 3]).collect())
            .collect();
        let mut hc1 = unit_machine(3);
        let a = reference::alltoall(&mut hc1, send.clone(), &dims);
        let mut hc2 = unit_machine(3);
        let b = alltoall_slab(&mut hc2, &SegSlab::from_nested(&send, 4), &dims);
        assert_eq!(b.to_nested(), a);
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
    }

    #[test]
    #[should_panic(expected = "one block per destination")]
    fn wrong_block_count_panics() {
        let mut hc = unit_machine(2);
        let send: Vec<Vec<Vec<u8>>> = (0..4).map(|_| vec![vec![0u8]]).collect();
        let _ = alltoall_slab(&mut hc, &SegSlab::from_nested(&send, 1), &[0, 1]);
    }
}

//! Stable dimension permutations on Boolean cubes.
//!
//! A *dimension permutation* rearranges data so that the node at address
//! `(a_{d-1} ... a_0)` receives the data of the node whose address is the
//! bit-permutation `(a_{delta(d-1)} ... a_{delta(0)})`. Matrix
//! transposition, bit reversal and the k-shuffle are all special cases —
//! these are the subject of Ho & Johnsson's *Stable Dimension
//! Permutations on Boolean Cubes* (TR-617) and *Shuffle Permutations on
//! Boolean Cubes* (TR-653), both abstracted in the source booklet, and
//! they underlie the embedding changes of the vector-matrix primitives.
//!
//! The implementation routes whole local buffers through the blocked
//! dimension-ordered router: a permutation touching `q` address bits
//! moves every buffer across at most `q` dimensions, for `q` blocked
//! supersteps — the one-port-optimal start-up count up to a constant
//! (TR-617's lower bound is the number of permuted dimensions).

use crate::machine::Hypercube;
use crate::route::{route_blocks, Traffic};
use crate::slab::NodeSlab;
use crate::topology::NodeId;

/// Validate that `delta` is a permutation of `0..d`.
fn check_perm(d: u32, delta: &[u32]) {
    assert_eq!(delta.len(), d as usize, "permutation must cover every cube dimension");
    let mut seen = vec![false; d as usize];
    for &x in delta {
        assert!(x < d, "dimension {x} out of range");
        assert!(!seen[x as usize], "dimension {x} repeated");
        seen[x as usize] = true;
    }
}

/// Apply `delta` to a node address: output bit `i` = input bit
/// `delta[i]`.
#[must_use]
pub fn permute_address(node: NodeId, delta: &[u32]) -> NodeId {
    let mut out = 0usize;
    for (i, &src) in delta.iter().enumerate() {
        out |= ((node >> src) & 1) << i;
    }
    out
}

/// Perform the dimension permutation: on return, node `x` holds the
/// buffer previously held by node `permute_address(x, delta)`.
///
/// Charged as the blocked routed move it is: one superstep per cube
/// dimension that actually carries traffic (at most the number of
/// non-fixed points of `delta`).
pub fn dimension_permute<T: Clone>(hc: &mut Hypercube, locals: &mut NodeSlab<T>, delta: &[u32]) {
    let cube = hc.cube();
    check_perm(cube.dim(), delta);
    assert_eq!(locals.p(), cube.nodes());

    // Destination of node x's data: the y with permute_address(y) == x,
    // i.e. y = inverse-permuted address.
    let mut inverse = vec![0u32; delta.len()];
    for (i, &src) in delta.iter().enumerate() {
        inverse[src as usize] = i as u32;
    }

    let mut traffic = Traffic::new(cube.nodes());
    for (node, buf) in locals.iter_segs().enumerate() {
        traffic.post(node, permute_address(node, &inverse), node as u64, buf.iter().cloned());
    }
    route_blocks(hc, &mut traffic);
    *locals = NodeSlab::build(cube.nodes(), locals.total_len(), |node, buf| {
        for (_, payload) in traffic.inbox(node) {
            buf.extend_from_slice(payload);
        }
    });
}

/// The bit-reversal permutation `delta(i) = d-1-i` (FFT reordering).
#[must_use]
pub fn bit_reversal(d: u32) -> Vec<u32> {
    (0..d).rev().collect()
}

/// The k-shuffle: a cyclic rotation of the address bits by `k`
/// positions (`delta(i) = (i + k) mod d`), the generalised shuffle of
/// TR-653.
#[must_use]
pub fn shuffle(d: u32, k: u32) -> Vec<u32> {
    (0..d).map(|i| (i + k) % d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::testutil::{slab_from_fn, unit_machine as machine};

    #[test]
    fn identity_permutation_is_free() {
        let mut hc = machine(4);
        let delta: Vec<u32> = (0..4).collect();
        let mut locals = slab_from_fn(&hc, |n| vec![n as u64]);
        let before = locals.clone();
        dimension_permute(&mut hc, &mut locals, &delta);
        assert_eq!(locals, before);
        assert_eq!(hc.counters().message_steps, 0);
    }

    #[test]
    fn permute_address_applies_bitwise() {
        // delta = [1, 0]: output bit0 = input bit1, output bit1 = input bit0.
        assert_eq!(permute_address(0b01, &[1, 0]), 0b10);
        assert_eq!(permute_address(0b10, &[1, 0]), 0b01);
        assert_eq!(permute_address(0b11, &[1, 0]), 0b11);
    }

    #[test]
    fn permutation_semantics_match_definition() {
        let mut hc = machine(5);
        let delta = shuffle(5, 2);
        let mut locals = slab_from_fn(&hc, |n| vec![n as u64, 100 + n as u64]);
        dimension_permute(&mut hc, &mut locals, &delta);
        for node in 0..hc.p() {
            let src = permute_address(node, &delta);
            assert_eq!(locals[node], vec![src as u64, 100 + src as u64], "node {node}");
        }
    }

    #[test]
    fn bit_reversal_is_an_involution() {
        let mut hc = machine(6);
        let delta = bit_reversal(6);
        let mut locals = slab_from_fn(&hc, |n| vec![n]);
        dimension_permute(&mut hc, &mut locals, &delta);
        // Not identity in between (for nodes whose reversed address differs)...
        assert_ne!(locals[1], vec![1]);
        dimension_permute(&mut hc, &mut locals, &delta);
        for node in 0..hc.p() {
            assert_eq!(locals[node], vec![node], "involution restores node {node}");
        }
    }

    #[test]
    fn shuffle_composition_wraps_around() {
        // d applications of the 1-shuffle = identity.
        let d = 4u32;
        let mut hc = machine(d);
        let delta = shuffle(d, 1);
        let mut locals = slab_from_fn(&hc, |n| vec![n as u32]);
        for _ in 0..d {
            dimension_permute(&mut hc, &mut locals, &delta);
        }
        for node in 0..hc.p() {
            assert_eq!(locals[node], vec![node as u32]);
        }
    }

    #[test]
    fn startups_bounded_by_permuted_dimensions() {
        // A transposition of two dims moves data across at most 2 dims.
        let mut hc = machine(6);
        let mut delta: Vec<u32> = (0..6).collect();
        delta.swap(0, 5);
        let mut locals = slab_from_fn(&hc, |n| vec![n as u8; 3]);
        dimension_permute(&mut hc, &mut locals, &delta);
        assert!(
            hc.counters().message_steps <= 2,
            "two permuted dims, {} supersteps",
            hc.counters().message_steps
        );
    }

    #[test]
    fn ragged_buffers_travel_intact() {
        let mut hc = machine(3);
        let delta = bit_reversal(3);
        let mut locals = slab_from_fn(&hc, |n| vec![n as u16; n]);
        dimension_permute(&mut hc, &mut locals, &delta);
        for node in 0..hc.p() {
            let src = permute_address(node, &delta);
            assert_eq!(locals[node], vec![src as u16; src]);
        }
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn non_permutation_rejected() {
        let mut hc = machine(3);
        let mut locals = slab_from_fn(&hc, |_| Vec::<u8>::new());
        dimension_permute(&mut hc, &mut locals, &[0, 0, 2]);
    }
}

//! The seed nested-`Vec` collective implementations, kept verbatim.
//!
//! These are the original, straightforward `Vec<Vec<T>>` data-plane
//! versions of every collective. They are the differential-test oracle:
//! the slab-backed canonical collectives (see the sibling modules) must
//! produce bit-identical payloads, simulated clocks, and counters;
//! `tests/data_plane.rs` checks that property against these on random
//! shapes, machine sizes, and fault plans.
//!
//! Do not "optimise" this module: its value is being the known-good
//! seed semantics.

use super::check_dims;
use crate::machine::Hypercube;
use crate::topology::NodeId;

/// Seed [`super::exchange_slab`]: every node receives a copy of its
/// `dim`-neighbour's buffer, cloning one `Vec` per node.
pub fn exchange<T: Clone>(hc: &mut Hypercube, locals: &[Vec<T>], dim: u32) -> Vec<Vec<T>> {
    let cube = hc.cube();
    assert!(dim < cube.dim(), "dimension {dim} out of range for cube of dim {}", cube.dim());
    assert_eq!(locals.len(), cube.nodes());
    let bit = 1usize << dim;
    let mut max_len = 0usize;
    let mut total: u64 = 0;
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let out: Vec<Vec<T>> = (0..cube.nodes())
        .map(|node| {
            let buf = &locals[node ^ bit];
            max_len = max_len.max(buf.len());
            total += buf.len() as u64;
            if node & bit == 0 {
                pairs.push((node, node | bit));
            }
            buf.clone()
        })
        .collect();
    hc.charge_exchange_step(pairs.iter().copied(), max_len, total);
    out
}

/// Seed [`super::allgather_slab`]: recursive doubling with a merged
/// allocation and a clone per pair per step.
pub fn allgather<T: Clone>(hc: &mut Hypercube, locals: &mut [Vec<T>], dims: &[u32]) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(locals.len(), cube.nodes());

    for (j, &d) in dims.iter().enumerate() {
        let chan = 1usize << d;
        let _ = j;
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for node in cube.iter_nodes() {
            if node & chan != 0 {
                continue;
            }
            let partner = node | chan;
            pairs.push((node, partner));
            let lo_len = locals[node].len();
            let hi_len = locals[partner].len();
            max_len = max_len.max(lo_len.max(hi_len));
            total += (lo_len + hi_len) as u64;
            // vmplint: allow(s1) — seed reference body preserved verbatim; splits the host-side nested-Vec view, not slab storage
            let (lo_part, hi_part) = locals.split_at_mut(partner);
            let lo = &mut lo_part[node];
            let hi = &mut hi_part[0];
            let mut merged = Vec::with_capacity(lo.len() + hi.len());
            merged.extend_from_slice(lo);
            merged.extend_from_slice(hi);
            *lo = merged.clone();
            *hi = merged;
        }
        hc.charge_exchange_step(pairs.iter().copied(), max_len, total);
    }
}

/// Seed [`super::scatter_slab`]: binomial tree carrying nested segment
/// lists. Each root supplies its `2^k` segments explicitly; the slab
/// version cuts the root's buffer into them evenly.
pub fn scatter<T>(hc: &mut Hypercube, segments: Vec<Vec<Vec<T>>>, dims: &[u32]) -> Vec<Vec<T>> {
    let cube = hc.cube();
    check_dims(cube, dims);
    let k = dims.len();
    assert_eq!(segments.len(), cube.nodes());

    let mut holdings: Vec<Vec<Vec<T>>> = Vec::with_capacity(cube.nodes());
    for (node, segs) in segments.into_iter().enumerate() {
        let c = cube.extract_coords(node, dims);
        if c == 0 {
            assert_eq!(segs.len(), 1usize << k, "root must supply 2^k segments");
            holdings.push(segs);
        } else {
            assert!(segs.is_empty(), "non-root nodes must not supply segments");
            holdings.push(Vec::new());
        }
    }

    for j in (0..k).rev() {
        let bit = 1usize << j;
        let chan = 1usize << dims[j];
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        let mut sends: Vec<(usize, usize, Vec<Vec<T>>)> = Vec::new();
        for node in cube.iter_nodes() {
            let c = cube.extract_coords(node, dims);
            if c & ((bit << 1) - 1) == 0 && !holdings[node].is_empty() {
                let upper = holdings[node].split_off(bit);
                let len: usize = upper.iter().map(Vec::len).sum();
                max_len = max_len.max(len);
                total += len as u64;
                sends.push((node, node ^ chan, upper));
            }
        }
        let pairs: Vec<(usize, usize)> = sends.iter().map(|&(src, dst, _)| (src, dst)).collect();
        for (_src, dst, segs) in sends {
            holdings[dst] = segs;
        }
        hc.charge_exchange_step(pairs.iter().copied(), max_len, total);
    }

    holdings
        .into_iter()
        .map(|mut segs| if segs.is_empty() { Vec::new() } else { segs.swap_remove(0) })
        .collect()
}

/// Seed [`super::reduce_slab`]: reverse binomial tree taking and folding
/// whole `Vec`s.
pub fn reduce<T: Copy>(
    hc: &mut Hypercube,
    locals: &mut [Vec<T>],
    dims: &[u32],
    root_coord: usize,
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    let k = dims.len();
    assert!(root_coord < (1usize << k), "root coordinate out of range");
    assert_eq!(locals.len(), cube.nodes());
    if k == 0 {
        return;
    }

    for j in (0..k).rev() {
        let bit = 1usize << j;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        for node in cube.iter_nodes() {
            let x = cube.extract_coords(node, dims) ^ root_coord;
            if x >= bit && x < bit << 1 {
                let partner = cube.neighbor(node, dims[j]);
                let len = locals[node].len();
                max_len = max_len.max(len);
                total += len as u64;
                pairs.push((node, partner));
            }
        }
        for &(src, dst) in &pairs {
            let sent = std::mem::take(&mut locals[src]);
            assert_eq!(
                sent.len(),
                locals[dst].len(),
                "reduce requires equal buffer lengths within a subcube"
            );
            for (acc, v) in locals[dst].iter_mut().zip(sent) {
                *acc = op(*acc, v);
            }
        }
        hc.charge_exchange_step(pairs.iter().copied(), max_len, total);
        hc.charge_flops(max_len);
    }
}

/// Seed [`super::allreduce_slab`]: butterfly combine via `split_at_mut`.
pub fn allreduce<T: Copy>(
    hc: &mut Hypercube,
    locals: &mut [Vec<T>],
    dims: &[u32],
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(locals.len(), cube.nodes());

    for &d in dims {
        let bit = 1usize << d;
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for node in cube.iter_nodes() {
            if node & bit != 0 {
                continue;
            }
            let partner = node | bit;
            pairs.push((node, partner));
            assert_eq!(
                locals[node].len(),
                locals[partner].len(),
                "allreduce requires equal buffer lengths within a subcube"
            );
            let len = locals[node].len();
            max_len = max_len.max(len);
            total += 2 * len as u64;
            // vmplint: allow(s1) — seed reference body preserved verbatim; splits the host-side nested-Vec view, not slab storage
            let (lo_part, hi_part) = locals.split_at_mut(partner);
            let lo = &mut lo_part[node];
            let hi = &mut hi_part[0];
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                let combined = op(*a, *b);
                *a = combined;
                *b = combined;
            }
        }
        hc.charge_exchange_step(pairs.iter().copied(), max_len, total);
        hc.charge_flops(max_len);
    }
}

/// Seed [`super::scan_inclusive_slab`]: butterfly over a full cloned
/// `totals` copy of the inputs.
pub fn scan_inclusive<T: Copy>(
    hc: &mut Hypercube,
    locals: &mut [Vec<T>],
    dims: &[u32],
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(locals.len(), cube.nodes());
    if dims.is_empty() {
        return;
    }

    let mut totals: Vec<Vec<T>> = locals.to_vec();

    for (j, &d) in dims.iter().enumerate() {
        let bit_in_coord = 1usize << j;
        let chan = 1usize << d;
        let mut max_len = 0usize;
        let mut total_elems: u64 = 0;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for node in cube.iter_nodes() {
            if node & chan != 0 {
                continue;
            }
            let partner = node | chan;
            pairs.push((node, partner));
            let len = totals[node].len();
            assert_eq!(len, totals[partner].len(), "scan requires equal buffer lengths");
            max_len = max_len.max(len);
            total_elems += 2 * len as u64;

            // vmplint: allow(s1) — seed reference body preserved verbatim; splits the host-side nested-Vec view, not slab storage
            let (lo_part, hi_part) = totals.split_at_mut(partner);
            let lo_total = &mut lo_part[node];
            let hi_total = &mut hi_part[0];

            let node_coord = cube.extract_coords(node, dims);
            debug_assert_eq!(node_coord & bit_in_coord, 0);
            for i in 0..len {
                let lo_v = lo_total[i];
                let hi_v = hi_total[i];
                let combined = op(lo_v, hi_v);
                lo_total[i] = combined;
                hi_total[i] = combined;
                locals[partner][i] = op(lo_v, locals[partner][i]);
            }
        }
        hc.charge_exchange_step(pairs.iter().copied(), max_len, total_elems);
        hc.charge_flops(2 * max_len);
    }
}

/// Seed [`super::broadcast_slab`]: spanning binomial tree cloning the full
/// buffer at every hop.
pub fn broadcast<T: Clone>(
    hc: &mut Hypercube,
    locals: &mut [Vec<T>],
    dims: &[u32],
    root_coord: usize,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    let k = dims.len();
    assert!(root_coord < (1usize << k), "root coordinate out of range");
    assert_eq!(locals.len(), cube.nodes());
    if k == 0 {
        return;
    }

    for j in 0..k {
        let bit = 1usize << j;
        let mut transfers: Vec<(NodeId, NodeId)> = Vec::new();
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        for node in cube.iter_nodes() {
            let c = cube.extract_coords(node, dims);
            let x = c ^ root_coord;
            if x < bit {
                let partner = cube.neighbor(node, dims[j]);
                let len = locals[node].len();
                max_len = max_len.max(len);
                total += len as u64;
                transfers.push((node, partner));
            }
        }
        for &(src, dst) in &transfers {
            locals[dst] = locals[src].clone();
        }
        hc.charge_exchange_step(transfers.iter().copied(), max_len, total);
    }
}

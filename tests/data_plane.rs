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

use std::collections::BTreeSet;

use proptest::prelude::*;

use four_vmp::core::elem::{ArgMaxAbs, Loc, ReduceOp, Sum};
use four_vmp::core::primitives;
use four_vmp::hypercube::collective::{self, reference};
use four_vmp::hypercube::cost::{Algo, Collective};
use four_vmp::hypercube::slab::NodeSlab;
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
    assert_eq!(seed.ticks(), slab.ticks(), "{what}: cost-term ticks diverged");
    assert_eq!(
        seed.elapsed_us().to_bits(),
        slab.elapsed_us().to_bits(),
        "{what}: simulated clock diverged"
    );
    assert_eq!(seed.counters(), slab.counters(), "{what}: event counters diverged");
}

/// Every node's chunk of `v`, in node order: a replicated vector's
/// copies on every grid line, and empty chunks off a concentrated
/// vector's line.
fn node_chunks<T: four_vmp::core::Scalar>(v: &DistVector<T>) -> Vec<Vec<T>> {
    (0..v.layout().grid().p()).map(|node| v.node_chunk(node).to_vec()).collect()
}

/// Payload bits, so `-0.0` vs `0.0` or a NaN payload cannot hide.
fn bits(v: &[Vec<f64>]) -> Vec<Vec<u64>> {
    v.iter().map(|seg| seg.iter().map(|x| x.to_bits()).collect()).collect()
}

/// The machine states every differential case runs under.
#[derive(Debug, Clone, Copy)]
enum State {
    NoPlan,
    EmptyPlan,
    DropsAndDeadLink,
    Remap,
}

const STATES: [State; 4] = [State::NoPlan, State::EmptyPlan, State::DropsAndDeadLink, State::Remap];

/// One differential case: a cube, a subset of its dimensions in a random
/// order, a root coordinate, a payload shape and a port model.
#[derive(Debug, Clone)]
struct Case {
    dim: u32,
    dims: Vec<u32>,
    root: usize,
    len: usize,
    salt: usize,
    cost: CostModel,
}

/// Cases on cubes of up to 32 nodes with payloads of up to `max_len`
/// elements, long enough for the all-port schedules to be chosen.
fn cases(max_len: usize) -> impl Strategy<Value = Case> {
    (
        0u32..=5,
        0usize..32,
        0u64..1 << 40,
        0usize..32,
        0usize..=max_len,
        0usize..=100,
        proptest::bool::ANY,
    )
        .prop_map(|(dim, mask, order, root, len, salt, allport)| {
            let mut dims: Vec<u32> = (0..dim).filter(|&d| (mask >> d) & 1 == 1).collect();
            // Fisher-Yates, driven by `order`.
            let mut h = order;
            for i in (1..dims.len()).rev() {
                h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xBF58_476D_1CE4_E5B9);
                dims.swap(i, ((h >> 17) % (i as u64 + 1)) as usize);
            }
            let root = root & ((1usize << dims.len()) - 1);
            let cost = if allport { CostModel::cm2_allport() } else { CostModel::cm2() };
            Case { dim, dims, root, len, salt, cost }
        })
}

impl Case {
    fn p(&self) -> usize {
        1usize << self.dim
    }

    /// A fresh machine in `state`. The dead link lies on the first
    /// listed dimension, so the collective's own traffic meets it; the
    /// remap doubles node `p - 1` onto its dim-0 neighbour `p - 2`.
    fn machine(&self, state: State) -> Hypercube {
        let mut hc = Hypercube::new(self.dim, self.cost);
        let seed = self.salt as u64;
        match state {
            State::NoPlan => {}
            State::EmptyPlan => hc.install_faults(FaultPlan::none(seed)),
            State::DropsAndDeadLink => {
                let mut plan = FaultPlan::none(seed + 1).with_drops(0.2, 0, u64::MAX);
                if let Some(&d) = self.dims.first() {
                    plan = plan.with_link_fault(0, 1 << d, 0);
                }
                hc.install_faults(plan);
            }
            State::Remap => {
                if self.p() > 1 {
                    hc.degrade(&[self.p() - 1], &vec![0; self.p()]);
                }
            }
        }
        hc
    }

    /// The reference run's machine in `state`, charged as the slab path
    /// must be charged. Where the machine picks the all-port schedule
    /// for this call (`ported`: the collective and the critical-path
    /// length it selects on), that is the schedule priced from the
    /// reference's element total; otherwise the reference's own
    /// single-port supersteps.
    fn oracle(
        &self,
        state: State,
        ported: Option<(Collective, usize)>,
        mut reference: impl FnMut(&mut Hypercube),
    ) -> Hypercube {
        let mut hc = self.machine(state);
        if let Some((kind, max_len)) = ported {
            if let Algo::AllPort { chunks } = hc.choose_algo(kind, self.dims.len(), max_len) {
                let mut walked = self.machine(state);
                reference(&mut walked);
                let total = walked.counters().elements_transferred;
                hc.charge_allport(kind, self.dims.len(), max_len, chunks, total);
                return hc;
            }
        }
        reference(&mut hc);
        hc
    }
}

/// `buf` cut into `pieces` contiguous runs, the first `len % pieces` one
/// element longer.
fn split_even(buf: &[f64], pieces: usize) -> Vec<Vec<f64>> {
    let (base, extra) = (buf.len() / pieces, buf.len() % pieces);
    let mut rest = buf;
    (0..pieces)
        .map(|c| {
            let (piece, tail) = rest.split_at(base + usize::from(c < extra));
            rest = tail;
            piece.to_vec()
        })
        .collect()
}

/// Longest segment among the subcube roots at coordinate `root`.
fn root_len(case: &Case, locals: &[Vec<f64>]) -> usize {
    let cube = Cube::new(case.dim);
    (0..case.p())
        .filter(|&n| cube.extract_coords(n, &case.dims) == case.root)
        .map(|n| locals[n].len())
        .max()
        .unwrap_or(0)
}

/// Move collectives (exchange / allgather) on ragged buffers.
fn check_move_collectives(case: &Case) {
    let nested = ragged_locals(case.dim, case.len, case.salt);
    let uniform = uniform_locals(case.dim, case.len, case.salt);
    let seg_len = nested.iter().map(Vec::len).max().unwrap_or(0);
    for state in STATES {
        let what = |op: &str| format!("{op} {state:?} {case:?}");

        // exchange along each listed dimension, on the ragged buffers
        // (rebuild pass) and on uniform ones (in-arena swap)
        for input in [&nested, &uniform] {
            for &d in &case.dims {
                let mut want = Vec::new();
                let hc_ref =
                    case.oracle(state, None, |hc| want = reference::exchange(hc, input, d));
                let mut hc = case.machine(state);
                let mut got = NodeSlab::from_nested(input);
                collective::exchange_slab(&mut hc, &mut got, d);
                assert_eq!(bits(&want), bits(&got.to_nested()), "{}", what("exchange"));
                assert_machines_identical(&hc_ref, &hc, &what("exchange"));
            }
        }

        let mut want = nested.clone();
        let hc_ref = case.oracle(state, Some((Collective::Allgather, seg_len)), |hc| {
            want = nested.clone();
            reference::allgather(hc, &mut want, &case.dims);
        });
        let mut hc = case.machine(state);
        let mut got = NodeSlab::from_nested(&nested);
        collective::allgather_slab(&mut hc, &mut got, &case.dims);
        assert_eq!(bits(&want), bits(&got.to_nested()), "{}", what("allgather"));
        assert_machines_identical(&hc_ref, &hc, &what("allgather"));
    }
}

/// Per-node buffers whose length is equal within every subcube spanned by
/// `dims` but differs between subcubes (some empty): the combine
/// collectives' ragged case.
fn subcube_locals(dim: u32, dims: &[u32], max_len: usize, salt: usize) -> Vec<Vec<f64>> {
    let p = 1usize << dim;
    let mask = Cube::new(dim).dims_mask(dims);
    (0..p)
        .map(|n| {
            let len = ((n & !mask) * 5 + salt) % (max_len + 1);
            (0..len).map(|i| val(n + salt, i)).collect()
        })
        .collect()
}

/// Combine collectives (reduce / allreduce / inclusive scan) on uniform
/// buffers and on buffers ragged across subcubes, under a commutative
/// and a non-commutative operator. `a + b` is bitwise commutative, so
/// only the second op tells `op(lo, hi)` from `op(hi, lo)`.
fn check_combine_collectives(case: &Case) {
    type Op = fn(f64, f64) -> f64;
    let ops: [(&str, Op); 2] = [("a + b", |a, b| a + b), ("a - b/2", |a, b| a - 0.5 * b)];
    let inputs = [
        uniform_locals(case.dim, case.len, case.salt),
        subcube_locals(case.dim, &case.dims, case.len, case.salt),
    ];
    for ((name, op), nested) in ops.into_iter().flat_map(|op| inputs.iter().map(move |n| (op, n))) {
        let max_len = nested.iter().map(Vec::len).max().unwrap_or(0);
        for state in STATES {
            let what = |coll: &str| format!("{coll} with {name} {state:?} {case:?}");
            let mut want = nested.clone();
            let mut got = NodeSlab::from_nested(nested);
            let mut hc = case.machine(state);

            let hc_ref = case.oracle(state, Some((Collective::Allreduce, max_len)), |hc| {
                want = nested.clone();
                reference::allreduce(hc, &mut want, &case.dims, op);
            });
            collective::allreduce_slab(&mut hc, &mut got, &case.dims, op);
            assert_eq!(bits(&want), bits(&got.to_nested()), "{}", what("allreduce"));
            assert_machines_identical(&hc_ref, &hc, &what("allreduce"));

            let mut got = NodeSlab::from_nested(nested);
            let mut hc = case.machine(state);
            let hc_ref = case.oracle(state, Some((Collective::Reduce, max_len)), |hc| {
                want = nested.clone();
                reference::reduce(hc, &mut want, &case.dims, case.root, op);
            });
            collective::reduce_slab(&mut hc, &mut got, &case.dims, case.root, op);
            assert_eq!(bits(&want), bits(&got.to_nested()), "{}", what("reduce"));
            assert_machines_identical(&hc_ref, &hc, &what("reduce"));

            let mut got = NodeSlab::from_nested(nested);
            let mut hc = case.machine(state);
            let hc_ref = case.oracle(state, Some((Collective::Scan, max_len)), |hc| {
                want = nested.clone();
                reference::scan_inclusive(hc, &mut want, &case.dims, op);
            });
            collective::scan_inclusive_slab(&mut hc, &mut got, &case.dims, op);
            assert_eq!(bits(&want), bits(&got.to_nested()), "{}", what("scan_inclusive"));
            assert_machines_identical(&hc_ref, &hc, &what("scan_inclusive"));
        }
    }
}

/// Broadcast (ragged, so only the roots' lengths may set the load) and
/// scatter: the redistribution collectives.
fn check_redistribution_collectives(case: &Case) {
    let p = case.p();
    let k = case.dims.len();
    let nested = ragged_locals(case.dim, case.len, case.salt);
    // Scatter: every subcube's coordinate-0 node supplies a ragged
    // buffer; the reference gets it cut into 2^k pieces, the first
    // `len mod 2^k` one element longer.
    let mask = Cube::new(case.dim).dims_mask(&case.dims);
    let roots: Vec<Vec<f64>> =
        (0..p).map(|n| if n & mask == 0 { nested[n].clone() } else { Vec::new() }).collect();
    let segments: Vec<Vec<Vec<f64>>> = (0..p)
        .map(|n| if n & mask == 0 { split_even(&nested[n], 1 << k) } else { Vec::new() })
        .collect();
    for state in STATES {
        let what = |op: &str| format!("{op} {state:?} {case:?}");

        let mut want = nested.clone();
        let ported = Some((Collective::Broadcast, root_len(case, &nested)));
        let hc_ref = case.oracle(state, ported, |hc| {
            want = nested.clone();
            reference::broadcast(hc, &mut want, &case.dims, case.root);
        });
        let mut hc = case.machine(state);
        let mut got = NodeSlab::from_nested(&nested);
        collective::broadcast_slab(&mut hc, &mut got, &case.dims, case.root);
        assert_eq!(bits(&want), bits(&got.to_nested()), "{}", what("broadcast"));
        assert_machines_identical(&hc_ref, &hc, &what("broadcast"));

        let mut want = Vec::new();
        let hc_ref = case
            .oracle(state, None, |hc| want = reference::scatter(hc, segments.clone(), &case.dims));
        let mut hc = case.machine(state);
        let mut got = NodeSlab::from_nested(&roots);
        collective::scatter_slab(&mut hc, &mut got, &case.dims);
        assert_eq!(bits(&want), bits(&got.to_nested()), "{}", what("scatter"));
        assert_machines_identical(&hc_ref, &hc, &what("scatter"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Move collectives (exchange / allgather) on ragged buffers.
    #[test]
    fn move_collectives_match_reference(case in cases(40)) {
        check_move_collectives(&case);
    }

    /// Combine collectives (reduce / allreduce / inclusive scan) on uniform
    /// and subcube-ragged buffers, under a commutative and a
    /// non-commutative operator.
    #[test]
    fn combine_collectives_match_reference(case in cases(40)) {
        check_combine_collectives(&case);
    }

    /// Broadcast and scatter (the redistribution collectives).
    #[test]
    fn redistribution_collectives_match_reference(case in cases(40)) {
        check_redistribution_collectives(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The three sweeps above, 2,000 cases each: the mask arithmetic of
    /// the step loops is where a dimension-order bug would hide.
    #[test]
    #[ignore = "deep sweep; CI runs it"]
    fn collectives_match_reference_deep_sweep(case in cases(40)) {
        check_move_collectives(&case);
        check_combine_collectives(&case);
        check_redistribution_collectives(&case);
    }
}

/// Matrix layouts on cubes of up to `2^max_dim` nodes, with every grid
/// split, up to `max_len` rows and columns, and either `Dist` kind.
fn fold_layouts(max_dim: u32, max_len: usize) -> impl Strategy<Value = MatrixLayout> {
    (0..=max_dim, 0..=max_dim, 1..=max_len, 1..=max_len, proptest::bool::ANY).prop_map(
        |(dim, dr, rows, cols, cyclic)| {
            let kind = if cyclic { Dist::Cyclic } else { Dist::Block };
            let grid = ProcGrid::new(Cube::new(dim), dr.min(dim));
            MatrixLayout::new(MatShape::new(rows, cols), grid, kind, kind)
        },
    )
}

/// The seed's local fold: every node's elements visited in offset order
/// `off = li * lc + lj`, each added into the partial it feeds (`off % lc`
/// for a fold over rows, `off / lc` for a fold over columns).
fn seed_partials(
    layout: &MatrixLayout,
    axis: Axis,
    elem: impl Fn(usize, usize) -> f64,
) -> Vec<Vec<f64>> {
    (0..layout.grid().p())
        .map(|node| {
            let (lr, lc) = layout.local_shape(node);
            let mut acc = vec![0.0f64; if axis == Axis::Row { lc } else { lr }];
            for (i, j, off) in layout.local_elements(node) {
                acc[if axis == Axis::Row { off % lc } else { off / lc }] += elem(i, j);
            }
            acc
        })
        .collect()
}

/// Every fold that runs through the local fold kernel on `layout`, along
/// both axes, against the seed fold and the reference collectives: payload
/// bits, clock and counters. `reduce` all-reduces its partials; `reduce_to`
/// reduces them onto the last grid line; `reduce_zip` folds `f(a, v)` for a
/// vector along either axis, which covers the matvec shape (a row vector,
/// folded over columns) and the vecmat shape (a column vector, folded over
/// rows). The zip charges its pass before the fold, as the spelled-out
/// `zip_axis` + `reduce` does.
fn check_local_folds(layout: MatrixLayout) {
    let grid = layout.grid();
    let dim = grid.cube().dim();
    let m = DistMatrix::from_fn(layout, val);
    let f = |i: usize, j: usize, a: f64, x: f64| a * x + (i as f64 - j as f64) / 7.0;
    let fold = |hc: &mut Hypercube, axis: Axis, elem: &dyn Fn(usize, usize) -> f64| {
        hc.charge_flops(layout.max_local_len());
        seed_partials(&layout, axis, elem)
    };
    for axis in [Axis::Row, Axis::Col] {
        let (lines, dims) = grid.lines(axis);
        let what = |op: &str| format!("{op} over {axis:?} on {layout:?}");

        let mut hc_seed = Hypercube::cm2(dim);
        let mut want = fold(&mut hc_seed, axis, &val);
        reference::allreduce(&mut hc_seed, &mut want, dims, |a, b| a + b);
        let mut hc = Hypercube::cm2(dim);
        let got = primitives::reduce(&mut hc, &m, axis, Sum);
        assert_eq!(bits(&want), bits(&node_chunks(&got)), "{}", what("reduce"));
        assert_machines_identical(&hc_seed, &hc, &what("reduce"));

        // Only the root line's nodes keep their chunk of a concentrated
        // result.
        let line = lines - 1;
        let root = grid.line_coord(axis, line);
        let mut hc_seed = Hypercube::cm2(dim);
        let mut want = fold(&mut hc_seed, axis, &val);
        reference::reduce(&mut hc_seed, &mut want, dims, root, |a, b| a + b);
        for (node, chunk) in want.iter_mut().enumerate() {
            if grid.cube().extract_coords(node, dims) != root {
                chunk.clear();
            }
        }
        let mut hc = Hypercube::cm2(dim);
        let got = primitives::reduce_to(&mut hc, &m, axis, Sum, line);
        assert_eq!(bits(&want), bits(&node_chunks(&got)), "{}", what("reduce_to"));
        assert_machines_identical(&hc_seed, &hc, &what("reduce_to"));

        for along in [Axis::Row, Axis::Col] {
            let what = |op: &str| format!("{op} along {along:?} over {axis:?} on {layout:?}");
            let vl = VectorLayout::aligned(
                layout.shape().vector_len(along),
                grid,
                along,
                Placement::Replicated,
                layout.vector_dist(along).kind(),
            );
            let v = DistVector::from_fn(vl, |k| val(k, 7));
            // A row vector is indexed by the column, a column vector by the row.
            let elem = |i: usize, j: usize| {
                f(i, j, val(i, j), val(if along == Axis::Row { j } else { i }, 7))
            };
            let mut hc_seed = Hypercube::cm2(dim);
            hc_seed.charge_flops(layout.max_local_len());
            let mut want = fold(&mut hc_seed, axis, &elem);
            reference::allreduce(&mut hc_seed, &mut want, dims, |a, b| a + b);
            let mut hc = Hypercube::cm2(dim);
            let got = primitives::reduce_zip(&mut hc, &m, along, &v, f, axis, Sum);
            assert_eq!(bits(&want), bits(&node_chunks(&got)), "{}", what("reduce_zip"));
            assert_machines_identical(&hc_seed, &hc, &what("reduce_zip"));
        }
    }
}

/// Fixed layouts whose local blocks between them have every row count
/// the local fold treats apart: empty blocks, blocks with rows but no
/// columns, fewer than four rows, and each remainder past whole groups of
/// four.
#[test]
fn local_folds_match_seed_fold_on_every_row_remainder() {
    let mut seen = BTreeSet::new();
    let shapes = (1..=11).flat_map(|rows| [(rows, 5, 0, 0), (2 * rows + 1, 3, 2, 1)]);
    for (rows, cols, dim, dr) in shapes.chain([(3, 5, 3, 3), (5, 2, 3, 0)]) {
        for kind in [Dist::Block, Dist::Cyclic] {
            let grid = ProcGrid::new(Cube::new(dim), dr);
            let layout = MatrixLayout::new(MatShape::new(rows, cols), grid, kind, kind);
            seen.extend((0..grid.p()).map(|node| layout.local_shape(node)));
            check_local_folds(layout);
        }
    }
    let lrs: BTreeSet<usize> = seen.iter().map(|&(lr, _)| lr).collect();
    assert!((0..=11).all(|lr| lrs.contains(&lr)), "row counts covered: {lrs:?}");
    assert!(seen.iter().any(|&(lr, lc)| lr > 0 && lc == 0), "no block with rows but no columns");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `reduce`, `reduce_to` and `reduce_zip` (the local fold + slab
    /// combine collectives) are bit-identical to the seed per-node
    /// offset-order fold + hop-by-hop reference collectives, on both axes
    /// and both `Dist` kinds (f64: combine order matters, so this checks
    /// order, not just algebra).
    #[test]
    fn tiled_reduce_matches_seed_fold(layout in fold_layouts(4, 17)) {
        check_local_folds(layout);
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
        let mut m = DistMatrix::from_fn(layout, val);

        let mk_vec = |axis: Axis, salt: usize| {
            let vl = VectorLayout::aligned(
                layout.shape().vector_len(axis),
                layout.grid(),
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
        let col_chunks = node_chunks(&col);
        let row_chunks = node_chunks(&row);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The matrix-fold check above, 2,000 cases on cubes of up to 64
    /// nodes with up to 67 rows and columns: many four-row groups, long
    /// local rows, and grid shapes the shallow run rarely draws.
    #[test]
    #[ignore = "deep sweep; CI runs it"]
    fn tiled_reduce_matches_seed_fold_deep_sweep(layout in fold_layouts(6, 67)) {
        check_local_folds(layout);
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

/// A sum whose identity is `-0.0`, the exact additive identity: a fold of
/// `-0.0`s stays `-0.0` unless some path combines in a `+0.0`.
#[derive(Debug, Clone, Copy)]
struct SignedSum;

impl ReduceOp<f64> for SignedSum {
    fn identity(&self) -> f64 {
        -0.0
    }
    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// The vector fold spelled out: every node folds its chunk (element
/// `slot`, global index `i`, read as `lift(node, i, slot, x)`), the
/// partials of every node off a concentrated vector's grid line are reset
/// to the identity, then the reference butterfly combines them — over a
/// replicated vector's part dims (`grid.lines(axis.transpose()).1`: every
/// grid line folds its own copy), over every cube dimension otherwise.
fn spelled_out_fold<U: Copy, O: ReduceOp<U>>(
    hc: &mut Hypercube,
    v: &DistVector<f64>,
    op: O,
    lift: impl Fn(usize, usize, usize, f64) -> U,
) -> U {
    let layout = v.layout();
    let grid = layout.grid();
    let chunks = node_chunks(v);
    let mut partials: Vec<Vec<U>> = (0..grid.p())
        .map(|node| {
            let part = layout.part_of(node);
            let fold = chunks[node].iter().enumerate().fold(op.identity(), |acc, (slot, &x)| {
                op.combine(acc, lift(node, layout.dist().global_index(part, slot), slot, x))
            });
            vec![fold]
        })
        .collect();
    hc.charge_flops(chunks.iter().map(Vec::len).max().unwrap_or(0));
    let mut dims: Vec<u32> = grid.cube().iter_dims().collect();
    match layout.embedding() {
        VecEmbedding::Aligned { axis, placement: Placement::Replicated } => {
            dims = grid.lines(axis.transpose()).1.to_vec();
        }
        VecEmbedding::Aligned { axis, placement: Placement::Concentrated(line) } => {
            for (node, partial) in partials.iter_mut().enumerate() {
                let (gr, gc) = grid.grid_coords(node);
                if (if *axis == Axis::Row { gr } else { gc }) != *line {
                    partial[0] = op.identity();
                }
            }
        }
        VecEmbedding::Linear => {}
    }
    // One scalar per node: no cost model prices the ported schedule below
    // the butterfly's, so the reference's own supersteps are the charge.
    assert!(matches!(hc.choose_algo(Collective::Allreduce, dims.len(), 1), Algo::SinglePort));
    reference::allreduce(hc, &mut partials, &dims, |a, b| op.combine(a, b));
    partials[0][0]
}

/// `reduce_all`, `reduce_lifted` and `zip_reduce` of `layout`-shaped
/// vectors on fresh `machine()`s: result bits, clock bits and counters
/// equal the spelled-out fold. Chunks hold `-0.0`, so a path that
/// combined one identity more or less than the spelled-out fold would
/// flip a sign. Returns the transient drops the runs met.
fn check_vector_folds(layout: VectorLayout, machine: &dyn Fn() -> Hypercube, what: &str) -> u64 {
    // Every third element `-0.0`, the rest signed values; and an
    // all-`-0.0` twin.
    let v = DistVector::from_fn(layout, |i| if i % 3 == 0 { -0.0 } else { val(i, 1) });
    let zeros = DistVector::constant(layout, -0.0f64);
    let w = DistVector::from_fn(layout, |i| val(i, 2));
    let what = format!("{what} {layout:?}");
    let drops = std::cell::Cell::new(0u64);
    let pin = |run: &dyn Fn(&mut Hypercube) -> (u64, usize),
               oracle: &dyn Fn(&mut Hypercube) -> (u64, usize)| {
        let (mut hc, mut hc_ref) = (machine(), machine());
        assert_eq!(run(&mut hc), oracle(&mut hc_ref), "{what}: result bits");
        assert_machines_identical(&hc_ref, &hc, &what);
        drops.set(drops.get() + hc.counters().transient_drops);
    };
    for x in [&v, &zeros] {
        pin(&|hc| (x.reduce_all(hc, Sum).to_bits(), 0), &|hc| {
            (spelled_out_fold(hc, x, Sum, |_, _, _, e| e).to_bits(), 0)
        });
        pin(&|hc| (x.reduce_all(hc, SignedSum).to_bits(), 0), &|hc| {
            (spelled_out_fold(hc, x, SignedSum, |_, _, _, e| e).to_bits(), 0)
        });
        // The pivot-search shape: masked entries lift to a zero
        // candidate, ties broken by index.
        let lift = |i: usize, e: f64| {
            if i >= 5 {
                Loc::new(e, i)
            } else {
                Loc::new(0.0, usize::MAX)
            }
        };
        let loc_bits = |l: Loc<f64>| (l.value.to_bits(), l.index);
        pin(&|hc| loc_bits(x.reduce_lifted(hc, ArgMaxAbs, lift)), &|hc| {
            loc_bits(spelled_out_fold(hc, x, ArgMaxAbs, |_, i, _, e| lift(i, e)))
        });
        // The back-substitution shape: a fused product, its zip pass
        // charged first.
        let wc = node_chunks(&w);
        let f = |i: usize, a: f64, b: f64| a * b + i as f64;
        pin(&|hc| (x.zip_reduce(hc, &w, SignedSum, f).to_bits(), 0), &|hc| {
            hc.charge_flops(wc.iter().map(Vec::len).max().unwrap_or(0));
            let lift = |node: usize, i, slot: usize, a| f(i, a, wc[node][slot]);
            (spelled_out_fold(hc, x, SignedSum, lift).to_bits(), 0)
        });
    }
    drops.get()
}

/// The vector folds match the spelled-out fold for replicated,
/// concentrated (off line 0) and linear vectors, Gray and binary grids,
/// square and non-square grids, a grid whose rows are single nodes
/// (`dr = dim`: a row vector's line has no dims, so its fold exchanges
/// nothing) and one node, on both port models and under drops.
#[test]
fn vector_folds_match_the_spelled_out_fold() {
    use four_vmp::layout::GridEncoding;
    type Machine = Box<dyn Fn() -> Hypercube>;
    let grids = [
        ProcGrid::with_encoding(Cube::new(4), 2, GridEncoding::Gray),
        ProcGrid::with_encoding(Cube::new(5), 2, GridEncoding::Binary),
        ProcGrid::with_encoding(Cube::new(5), 3, GridEncoding::Gray),
        ProcGrid::with_encoding(Cube::new(4), 4, GridEncoding::Gray),
        ProcGrid::with_encoding(Cube::new(0), 0, GridEncoding::Gray),
    ];
    let (mut checked, mut drops) = (0, 0u64);
    for grid in grids {
        let n = 23;
        let (last_row, last_col) = (grid.pr() - 1, grid.pc() - 1);
        let layouts = [
            VectorLayout::aligned(n, grid, Axis::Row, Placement::Replicated, Dist::Cyclic),
            VectorLayout::aligned(n, grid, Axis::Col, Placement::Replicated, Dist::Block),
            VectorLayout::aligned(
                n,
                grid,
                Axis::Row,
                Placement::Concentrated(last_row),
                Dist::Block,
            ),
            VectorLayout::aligned(
                n,
                grid,
                Axis::Col,
                Placement::Concentrated(last_col),
                Dist::Cyclic,
            ),
            VectorLayout::linear(n, grid, Dist::Cyclic),
        ];
        let dim = grid.cube().dim();
        let machines: [(&str, Machine); 3] = [
            ("cm2", Box::new(move || Hypercube::new(dim, CostModel::cm2()))),
            ("cm2_allport", Box::new(move || Hypercube::new(dim, CostModel::cm2_allport()))),
            (
                "cm2 under drops",
                Box::new(move || {
                    let mut hc = Hypercube::new(dim, CostModel::cm2());
                    hc.install_faults(FaultPlan::none(7).with_drops(0.3, 0, u64::MAX));
                    hc
                }),
            ),
        ];
        for layout in layouts {
            for (name, machine) in &machines {
                drops += check_vector_folds(layout, machine, name);
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 5 * 5 * 3);
    assert!(drops > 0, "the drop plan injected drops");
}

/// One random fold case: a vector layout on a grid of up to 256 nodes,
/// a port model and an optional drop plan.
#[derive(Debug, Clone)]
struct FoldCase {
    layout: VectorLayout,
    cost: CostModel,
    drops: Option<(u64, f64)>,
}

fn fold_cases() -> impl Strategy<Value = FoldCase> {
    use four_vmp::layout::GridEncoding;
    (
        (0u32..=8, 0u32..=8, proptest::bool::ANY),
        (0usize..5, 0usize..256, 0usize..=40, proptest::bool::ANY),
        (proptest::bool::ANY, 0usize..3, 0u64..1 << 20),
    )
        .prop_map(|((dim, dr, gray), (embedding, line, n, cyclic), (allport, plan, seed))| {
            let encoding = if gray { GridEncoding::Gray } else { GridEncoding::Binary };
            let grid = ProcGrid::with_encoding(Cube::new(dim), dr % (dim + 1), encoding);
            let dist = if cyclic { Dist::Cyclic } else { Dist::Block };
            let axis = if embedding % 2 == 0 { Axis::Row } else { Axis::Col };
            let placement = if embedding < 2 {
                Placement::Replicated
            } else {
                Placement::Concentrated(line % grid.lines(axis).0)
            };
            let layout = if embedding == 4 {
                VectorLayout::linear(n, grid, dist)
            } else {
                VectorLayout::aligned(n, grid, axis, placement, dist)
            };
            let cost = if allport { CostModel::cm2_allport() } else { CostModel::cm2() };
            let drops = [None, Some((seed, 0.1)), Some((seed, 0.3))][plan];
            FoldCase { layout, cost, drops }
        })
}

fn check_fold_case(case: &FoldCase) {
    let machine = || {
        let mut hc = Hypercube::new(case.layout.grid().cube().dim(), case.cost);
        if let Some((seed, rate)) = case.drops {
            hc.install_faults(FaultPlan::none(seed).with_drops(rate, 0, u64::MAX));
        }
        hc
    };
    check_vector_folds(case.layout, &machine, &format!("{case:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random fold cases against the spelled-out fold.
    #[test]
    fn vector_folds_match_the_spelled_out_fold_random(case in fold_cases()) {
        check_fold_case(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The fold sweep above, 2,000 cases: the coordinate walk over the
    /// primary line and the memoised identity subtrees are where a
    /// grid-shape bug would hide.
    #[test]
    #[ignore = "deep sweep; CI runs it"]
    fn vector_folds_match_the_spelled_out_fold_deep_sweep(case in fold_cases()) {
        check_fold_case(&case);
    }
}

/// The machine states an embedding move runs under: fault-free, a drop
/// plan, a dead link on the move's first hop, and a degraded machine.
#[derive(Debug, Clone, Copy)]
enum MoveState {
    FaultFree,
    Drops,
    DeadLink,
    Degraded,
}

/// One embedding-move case: an `axis`-aligned vector of the matrix
/// `layout`, concentrated on grid line `from`, moved to grid line `to`
/// (replicated, concentrated there, or inserted into matrix line `index`,
/// which some grid line owns).
#[derive(Debug, Clone)]
struct MoveCase {
    layout: MatrixLayout,
    axis: Axis,
    from: usize,
    to: usize,
    index: usize,
    state: MoveState,
    seed: u64,
}

fn move_cases(max_dim: u32, max_len: usize) -> impl Strategy<Value = MoveCase> {
    use four_vmp::layout::GridEncoding;
    (
        (0u32..=max_dim, 0u32..=max_dim, proptest::bool::ANY, proptest::bool::ANY),
        (1usize..=max_len, 1usize..=max_len, proptest::bool::ANY, proptest::bool::ANY),
        (0usize..64, 0usize..64, 0usize..=max_len, 0usize..4, 0u64..1 << 20),
    )
        .prop_map(
            |(
                (dim, dr, gray, allport),
                (rows, cols, cyclic, row),
                (from, to, index, state, seed),
            )| {
                let encoding = if gray { GridEncoding::Gray } else { GridEncoding::Binary };
                let grid = ProcGrid::with_encoding(Cube::new(dim), dr % (dim + 1), encoding);
                let kind = if cyclic { Dist::Cyclic } else { Dist::Block };
                let layout = MatrixLayout::new(MatShape::new(rows, cols), grid, kind, kind);
                let axis = if row { Axis::Row } else { Axis::Col };
                let lines = grid.lines(axis).0;
                let state = [
                    MoveState::FaultFree,
                    MoveState::Drops,
                    MoveState::DeadLink,
                    MoveState::Degraded,
                ][state];
                let index = index % layout.shape().vector_count(axis);
                let seed = seed * 2 + u64::from(allport);
                MoveCase { layout, axis, from: from % lines, to: to % lines, index, state, seed }
            },
        )
}

impl MoveCase {
    /// A fresh machine in the case's state, on a one-port model for even
    /// seeds and an all-port one for odd seeds. The dead link is the first
    /// hop of part 0's move from `from` towards `to` (or of the broadcast
    /// out of `from`, when the lines agree), beside a light drop plan.
    fn machine(&self) -> Hypercube {
        let grid = self.layout.grid();
        let p = grid.p();
        let cost = if self.seed % 2 == 1 { CostModel::cm2_allport() } else { CostModel::cm2() };
        let mut hc = Hypercube::new(grid.cube().dim(), cost);
        match self.state {
            MoveState::FaultFree => {}
            MoveState::Drops => {
                hc.install_faults(FaultPlan::none(self.seed).with_drops(0.25, 0, u64::MAX));
            }
            MoveState::DeadLink => {
                let src = grid.node_on(self.axis, self.from, 0);
                let apart = grid.node_on(self.axis, self.to, 0) ^ src;
                let line_dims = grid.cube().dims_mask(grid.lines(self.axis).1);
                let bit = if apart != 0 { apart } else { line_dims };
                let mut plan = FaultPlan::none(self.seed).with_drops(0.1, 0, u64::MAX);
                // A cube of one dimension has no way around a dead link.
                if bit != 0 && grid.cube().dim() > 1 {
                    plan = plan.with_link_fault(src, src ^ (1 << bit.trailing_zeros()), 0);
                }
                hc.install_faults(plan);
            }
            MoveState::Degraded => {
                if p > 1 {
                    hc.degrade(&[p - 1], &vec![0; p]);
                }
            }
        }
        hc
    }
}

/// `v` (concentrated on `from`) moved onto line `to` with public APIs:
/// each part charged as one block from its node on `from` to its node on
/// `to` through `charge_blocks`, the move that `concentrate` and a routed
/// `insert` make, and the parts relabelled as held on `to`.
fn route_parts(hc: &mut Hypercube, v: &DistVector<f64>, from: usize, to: usize) -> DistVector<f64> {
    use four_vmp::hypercube::route::charge_blocks;
    let VecEmbedding::Aligned { axis, .. } = *v.layout().embedding() else { unreachable!() };
    let (grid, dist) = (v.layout().grid(), v.layout().dist());
    charge_blocks(
        hc,
        (0..dist.parts()).map(|part| {
            (grid.node_on(axis, from, part), grid.node_on(axis, to, part), dist.count(part))
        }),
    );
    DistVector::from_chunks(
        v.layout().with_placement(Placement::Concentrated(to)),
        v.chunks().clone(),
    )
}

/// `replicate`, a cross-line `concentrate` and an `insert` from another
/// line move no data on the host; each must charge what the data move
/// charges, spelled out with public APIs: a per-node slab through
/// `broadcast_slab`, and the parts charged as blocks through
/// `charge_blocks`. Clock bits, counters and every node's chunk must
/// agree.
fn check_embedding_moves(case: &MoveCase) -> u64 {
    let what = |op: &str| format!("{op} {case:?}");
    let (layout, axis) = (case.layout, case.axis);
    let grid = layout.grid();
    let vl = VectorLayout::aligned(
        layout.shape().vector_len(axis),
        grid,
        axis,
        Placement::Concentrated(case.from),
        layout.vector_dist(axis).kind(),
    );
    let v = DistVector::from_fn(vl, |i| val(i, case.index));

    let mut hc = case.machine();
    let got = replicate(&mut hc, &v);
    let mut hc_ref = case.machine();
    let mut want = NodeSlab::from_nested(&node_chunks(&v));
    let (dims, root) = (grid.lines(axis).1, grid.line_coord(axis, case.from));
    collective::broadcast_slab(&mut hc_ref, &mut want, dims, root);
    assert_eq!(bits(&node_chunks(&got)), bits(&want.to_nested()), "{}", what("replicate"));
    assert_machines_identical(&hc_ref, &hc, &what("replicate"));

    let mut hc = case.machine();
    let got = concentrate(&mut hc, &v, case.to);
    let mut hc_ref = case.machine();
    let want = route_parts(&mut hc_ref, &v, case.from, case.to);
    assert_eq!(bits(&node_chunks(&got)), bits(&node_chunks(&want)), "{}", what("concentrate"));
    assert_machines_identical(&hc_ref, &hc, &what("concentrate"));
    let mut faults = hc.counters().transient_drops + hc.counters().reroutes;

    // Insert from `from`: the reference moves the parts onto the owning
    // line itself, then inserts them from there, which is local.
    let m = DistMatrix::from_fn(layout, val);
    let target = layout.vector_dist(axis.transpose()).owner(case.index);
    let mut hc = case.machine();
    let mut got = m.clone();
    primitives::insert(&mut hc, &mut got, axis, case.index, &v);
    let mut hc_ref = case.machine();
    let on_target = route_parts(&mut hc_ref, &v, case.from, target);
    let mut want = m;
    primitives::insert(&mut hc_ref, &mut want, axis, case.index, &on_target);
    assert_eq!(bits(&got.to_dense()), bits(&want.to_dense()), "{}", what("insert"));
    assert_machines_identical(&hc_ref, &hc, &what("insert"));
    faults += hc.counters().transient_drops + hc.counters().reroutes;
    faults
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Charge-only embedding moves cost what the data moves cost.
    #[test]
    fn charge_only_moves_cost_what_data_moves_cost(case in move_cases(5, 13)) {
        check_embedding_moves(&case);
    }
}

/// The fixed cases meet every fault state on a grid where the lines lie
/// several dims apart, so drops and detours really fire.
#[test]
fn charge_only_moves_meet_faults() {
    let grid = ProcGrid::new(Cube::new(6), 3);
    let layout = MatrixLayout::new(MatShape::new(13, 10), grid, Dist::Cyclic, Dist::Cyclic);
    let mut faults = 0;
    for state in [MoveState::FaultFree, MoveState::Drops, MoveState::DeadLink, MoveState::Degraded]
    {
        for (axis, seed) in [(Axis::Row, 6), (Axis::Col, 7)] {
            let case = MoveCase { layout, axis, from: 0, to: 5, index: 2, state, seed };
            faults += check_embedding_moves(&case);
        }
    }
    assert!(faults > 0, "the plans actually dropped or detoured a block");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The embedding-move check, 1,000 cases on cubes of up to 64 nodes.
    #[test]
    #[ignore = "deep sweep; CI runs it"]
    fn charge_only_moves_cost_what_data_moves_cost_deep_sweep(case in move_cases(6, 40)) {
        check_embedding_moves(&case);
    }
}

//! Cost-model invariants across the stack: simulated time must be
//! monotone in problem size, never cheaper than its lower bound, and the
//! naive baseline must never win.

// Proptest sweeps are far too slow under Miri's interpreter; the
// dedicated Miri CI job covers the library's unsafe/aliasing surface
// via the unit tests instead (see .github/workflows/ci.yml).
#![cfg(not(miri))]

use four_vmp::algos::workloads;
use four_vmp::core::analysis;
use four_vmp::core::elem::Sum;
use four_vmp::core::{naive, primitives};
use four_vmp::hypercube::Cube;
use four_vmp::prelude::*;
use proptest::prelude::*;

fn matrix(n: usize, dim: u32) -> DistMatrix<f64> {
    let grid = ProcGrid::square(Cube::new(dim));
    DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), grid), |i, j| (i + j) as f64)
}

fn reduce_time(n: usize, dim: u32) -> f64 {
    let m = matrix(n, dim);
    let mut hc = Hypercube::cm2(dim);
    let _ = primitives::reduce(&mut hc, &m, Axis::Row, Sum);
    hc.elapsed_us()
}

#[test]
fn time_is_monotone_in_matrix_size() {
    let mut last = 0.0;
    for n in [8usize, 16, 32, 64, 128, 256] {
        let t = reduce_time(n, 6);
        assert!(t >= last, "n = {n}: {t} < {last}");
        last = t;
    }
}

#[test]
fn local_term_shrinks_with_machine_size() {
    // At large m/p, doubling p should cut reduce time substantially.
    let t4 = reduce_time(256, 4);
    let t8 = reduce_time(256, 8);
    assert!(t8 < t4 / 2.0, "p x16 should cut the local term: {t4} -> {t8}");
}

#[test]
fn simulated_time_respects_the_lower_bound() {
    let cost = CostModel::cm2();
    for dim in [0u32, 2, 4, 6, 8] {
        for n in [16usize, 64, 256] {
            let t = reduce_time(n, dim);
            let grid = ProcGrid::square(Cube::new(dim));
            let lb = analysis::lower_bound_dims(n * n, 1 << dim, grid.dr(), &cost);
            assert!(t >= lb * 0.999, "dim {dim} n {n}: simulated {t} below bound {lb}");
        }
    }
}

#[test]
fn naive_never_beats_primitives() {
    for dim in [2u32, 4, 6] {
        for n in [16usize, 64, 128] {
            let m = matrix(n, dim);
            let mut hn = Hypercube::cm2(dim);
            let _ = naive::naive_reduce(&mut hn, &m, Axis::Row, Sum);
            let mut ho = Hypercube::cm2(dim);
            let _ = primitives::reduce(&mut ho, &m, Axis::Row, Sum);
            assert!(
                hn.elapsed_us() >= ho.elapsed_us(),
                "dim {dim} n {n}: naive {} < primitives {}",
                hn.elapsed_us(),
                ho.elapsed_us()
            );
        }
    }
}

#[test]
fn the_naive_gap_grows_with_vp_ratio() {
    let ratio = |n: usize| {
        let m = matrix(n, 6);
        let mut hn = Hypercube::cm2(6);
        let _ = naive::naive_reduce(&mut hn, &m, Axis::Row, Sum);
        let mut ho = Hypercube::cm2(6);
        let _ = primitives::reduce(&mut ho, &m, Axis::Row, Sum);
        hn.elapsed_us() / ho.elapsed_us()
    };
    assert!(ratio(256) > ratio(16), "blocking amortises better at higher m/p");
}

#[test]
fn ge_cost_grows_cubically_in_the_serial_model_but_flatter_in_parallel() {
    let time = |n: usize| {
        let (a, b, _) = workloads::diag_dominant_system(n, 1);
        let mut hc = Hypercube::cm2(8);
        let grid = ProcGrid::square(Cube::new(8));
        four_vmp::algos::ge_solve(&mut hc, &a, &b, grid).expect("dominant");
        hc.elapsed_us()
    };
    let t64 = time(64);
    let t128 = time(128);
    // Serial doubling would cost 8x; the parallel version with fixed p
    // and growing m/p should sit well under that at these sizes.
    let growth = t128 / t64;
    assert!(growth < 6.0, "parallel growth {growth:.2} should be sub-cubic here");
    assert!(growth > 1.5, "but still supra-linear");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn widening_a_matrix_never_reduces_time(
        n in 4usize..32,
        extra in 1usize..32,
        dim in 0u32..=6,
    ) {
        let grid = ProcGrid::square(Cube::new(dim));
        let narrow = DistMatrix::from_fn(
            MatrixLayout::cyclic(MatShape::new(n, n), grid), |i, j| (i + j) as f64);
        let wide = DistMatrix::from_fn(
            MatrixLayout::cyclic(MatShape::new(n, n + extra), grid), |i, j| (i + j) as f64);
        let mut h1 = Hypercube::cm2(dim);
        let _ = primitives::reduce(&mut h1, &narrow, Axis::Row, Sum);
        let mut h2 = Hypercube::cm2(dim);
        let _ = primitives::reduce(&mut h2, &wide, Axis::Row, Sum);
        prop_assert!(h2.elapsed_us() >= h1.elapsed_us());
    }

    #[test]
    fn every_primitive_charges_nonnegative_time(
        n in 1usize..24,
        dim in 0u32..=5,
        idx in 0usize..64,
    ) {
        let grid = ProcGrid::square(Cube::new(dim));
        let m = DistMatrix::from_fn(
            MatrixLayout::cyclic(MatShape::new(n, n), grid), |i, j| (i * n + j) as f64);
        let mut hc = Hypercube::cm2(dim);
        let t0 = hc.elapsed_us();
        let v = primitives::reduce(&mut hc, &m, Axis::Row, Sum);
        let t1 = hc.elapsed_us();
        prop_assert!(t1 >= t0);
        let _ = primitives::distribute(&mut hc, &v, n, Dist::Cyclic);
        let t2 = hc.elapsed_us();
        prop_assert!(t2 >= t1);
        let r = primitives::extract_replicated(&mut hc, &m, Axis::Row, idx % n);
        let t3 = hc.elapsed_us();
        prop_assert!(t3 >= t2);
        let mut m2 = m.clone();
        primitives::insert(&mut hc, &mut m2, Axis::Row, (idx / 2) % n, &r);
        prop_assert!(hc.elapsed_us() >= t3);
    }
}

/// `scan::pack`, `indexing::gather_by_index` (through `listrank` and on a
/// hot spot of repeated indices), `scan::reverse`, the filled shift
/// inside `scan::segmented_reduce`, a torus `shift`, the panel fan-out,
/// the vector re-embeddings (to replicated and to linear) and the matrix
/// re-embeddings route traffic that no reproduced table covers (or covers
/// only fault-free), and the scans' allgather of part totals runs on a
/// Gray grid, so the golden-table check cannot see all their charges. Pin them exactly, fault-free and under transient drops: the
/// cost-term ticks, the clock they price to (bit for bit) and the
/// counters. The routed `transient_drops` count messages, one per run of
/// consecutive destination slots: the remap case moves a cyclic vector
/// onto block chunks, so each of its elements travels alone, while
/// reverse sends one run from each source node to each destination.
#[test]
fn routed_paths_outside_the_tables_charge_exactly() {
    use four_vmp::algos::listrank;
    use four_vmp::core::scan;
    use four_vmp::hypercube::{Counters, FaultPlan, Ticks};

    let drops = FaultPlan::none(5).with_drops(0.2, 0, u64::MAX);
    let machine = |dim: u32, plan: Option<&FaultPlan>| {
        let mut hc = Hypercube::cm2(dim);
        if let Some(plan) = plan {
            hc.install_faults(plan.clone());
        }
        hc
    };
    let pack = |hc: &mut Hypercube| {
        let layout = VectorLayout::linear(50, ProcGrid::square(hc.cube()), Dist::Block);
        let v = DistVector::from_fn(layout, |i| i as f64 * 0.5);
        let mask = DistVector::from_fn(layout, |i| i % 3 != 1);
        let packed = scan::pack(hc, &v, &mask);
        let want: Vec<f64> = (0..50).filter(|i| i % 3 != 1).map(|i| i as f64 * 0.5).collect();
        assert_eq!(packed.to_dense(), want);
    };
    let list_rank = |hc: &mut Hypercube| {
        let next = listrank::random_list(40, 7);
        let layout = VectorLayout::linear(40, ProcGrid::square(hc.cube()), Dist::Block);
        let ranks = listrank::list_rank(hc, &DistVector::from_fn(layout, |i| next[i]));
        assert_eq!(ranks.to_dense(), listrank::list_rank_serial(&next));
    };
    let remap = |hc: &mut Hypercube| {
        let grid = ProcGrid::square(hc.cube());
        let row = |placement, dist| VectorLayout::aligned(300, grid, Axis::Row, placement, dist);
        let v = DistVector::from_fn(row(Placement::Concentrated(3), Dist::Cyclic), |i| i as f64);
        let w = remap_vector(hc, &v, row(Placement::Replicated, Dist::Block));
        assert_eq!(w.to_dense(), v.to_dense());
    };
    let reembed = |hc: &mut Hypercube| {
        let grid = ProcGrid::square(hc.cube());
        let shape = MatShape::new(40, 56);
        let m = DistMatrix::from_fn(MatrixLayout::block(shape, grid), |i, j| (i * 56 + j) as f64);
        let cyclic = redistribute(hc, &m, MatrixLayout::cyclic(shape, grid));
        let t = transpose(hc, &cyclic);
        let want: Vec<Vec<f64>> =
            (0..56).map(|j| (0..40).map(|i| (i * 56 + j) as f64).collect()).collect();
        assert_eq!(t.to_dense(), want);
    };
    let reverse = |hc: &mut Hypercube| {
        let layout = VectorLayout::linear(300, ProcGrid::square(hc.cube()), Dist::Block);
        let r = scan::reverse(hc, &DistVector::from_fn(layout, |i| i as f64));
        assert_eq!(r.to_dense(), (0..300).rev().map(|i| i as f64).collect::<Vec<_>>());
    };
    let panel = |hc: &mut Hypercube| {
        let m = matrix(40, hc.cube().dim());
        let panel = primitives::extract_panel_replicated(hc, &m, Axis::Col, 5, 4);
        for node in 0..hc.p() {
            let (gr, _) = m.layout().grid().grid_coords(node);
            let rows: Vec<usize> = m.layout().rows().part_indices(gr).collect();
            let want = (5..9).flat_map(|j| rows.iter().map(move |&i| (i + j) as f64));
            assert!(panel.slab(node).iter().copied().eq(want), "node {node}");
        }
    };
    let shift = |hc: &mut Hypercube| {
        use four_vmp::core::shift::{shift, Boundary};
        let grid = ProcGrid::square(hc.cube());
        let layout = MatrixLayout::block(MatShape::new(40, 56), grid);
        let m = DistMatrix::from_fn(layout, |i, j| (i * 56 + j) as f64);
        let s = shift(hc, &m, Axis::Col, 3, Boundary::Wrap);
        let want: Vec<Vec<f64>> =
            (0..40).map(|i| (0..56).map(|j| ((i + 37) % 40 * 56 + j) as f64).collect()).collect();
        assert_eq!(s.to_dense(), want);
    };
    let segmented_reduce = |hc: &mut Hypercube| {
        let layout = VectorLayout::linear(50, ProcGrid::square(hc.cube()), Dist::Block);
        let starts = |i: usize| i % 7 == 0 || i == 3;
        let v = DistVector::from_fn(layout, |i| i as f64 * 0.5);
        let r = scan::segmented_reduce(hc, &v, &DistVector::from_fn(layout, starts), Sum);
        let mut want = vec![0.0; 50];
        for i in 0..50 {
            let first = (0..=i).rev().find(|&k| starts(k)).unwrap_or(0);
            let end = (i + 1..50).find(|&k| starts(k)).unwrap_or(50);
            want[i] = (first..end).map(|k| k as f64 * 0.5).sum();
        }
        assert_eq!(r.to_dense(), want);
    };
    let remap_to_linear = |hc: &mut Hypercube| {
        let grid = ProcGrid::square(hc.cube());
        let col =
            VectorLayout::aligned(300, grid, Axis::Col, Placement::Concentrated(5), Dist::Block);
        let v = DistVector::from_fn(col, |i| i as f64 * 0.25);
        let w = remap_vector(hc, &v, VectorLayout::linear(300, grid, Dist::Cyclic));
        assert_eq!(w.to_dense(), v.to_dense());
    };
    let hot_gather = |hc: &mut Hypercube| {
        use four_vmp::core::indexing::gather_by_index;
        let layout = VectorLayout::linear(60, ProcGrid::square(hc.cube()), Dist::Block);
        let values = DistVector::from_fn(layout, |i| i as f64 * 1.5);
        let index = DistVector::from_fn(layout, |i| i * i % 7);
        let out = gather_by_index(hc, &values, &index);
        assert_eq!(out.to_dense(), (0..60).map(|i| (i * i % 7) as f64 * 1.5).collect::<Vec<_>>());
    };
    let prefix = |inclusive: bool| -> Vec<f64> {
        let skip = usize::from(!inclusive);
        (0..300).map(|i| (0..i + 1 - skip).map(|k| k as f64 * 0.5).sum()).collect()
    };
    let scan_gray = |hc: &mut Hypercube| {
        let grid = ProcGrid::square(hc.cube());
        let row = VectorLayout::aligned(300, grid, Axis::Row, Placement::Replicated, Dist::Block);
        let s = scan::scan_inclusive(hc, &DistVector::from_fn(row, |i| i as f64 * 0.5), Sum);
        assert_eq!(s.to_dense(), prefix(true));
    };
    let scan_concentrated = |hc: &mut Hypercube| {
        let grid = ProcGrid::square(hc.cube());
        let col =
            VectorLayout::aligned(300, grid, Axis::Col, Placement::Concentrated(3), Dist::Block);
        let s = scan::scan_exclusive(hc, &DistVector::from_fn(col, |i| i as f64 * 0.5), Sum);
        assert_eq!(s.to_dense(), prefix(false));
    };
    let ticks = |startups, elements, flops, backoff| Ticks {
        startups,
        elements,
        flops,
        backoff,
        ..Ticks::default()
    };
    let msgs = |message_steps, elements_transferred, max_channel_load, flops| Counters {
        message_steps,
        elements_transferred,
        max_channel_load,
        flops,
        ..Counters::default()
    };
    let with_drops =
        |c: Counters, transient_drops, retries| Counters { transient_drops, retries, ..c };

    type Path<'a> = &'a dyn Fn(&mut Hypercube);
    type Case<'a> = (&'a str, Path<'a>, Option<&'a FaultPlan>, Ticks, f64, Counters);
    let cases: [Case; 4] = [
        ("pack", &pack, None, ticks(8, 19, 36, 0), 271.6, msgs(8, 304, 8, 36)),
        ("list_rank", &list_rank, None, ticks(96, 436, 169, 0), 3375.15, msgs(96, 1936, 19, 169)),
        (
            "pack",
            &pack,
            Some(&drops),
            ticks(18, 33, 36, 13),
            598.6,
            with_drops(msgs(18, 331, 8, 36), 21, 10),
        ),
        (
            "list_rank",
            &list_rank,
            Some(&drops),
            ticks(212, 604, 169, 176),
            7199.15,
            with_drops(msgs(212, 1936, 17, 169), 553, 62),
        ),
    ];
    // At p = 64: ticks `[startups, elements, moves, backoff]`, the clock,
    // and counters `[elements_transferred, max_channel_load,
    // transient_drops, retries]` beside the message steps and local moves
    // the ticks already give.
    type Raw<'a> = (&'a str, Path<'a>, Option<&'a FaultPlan>, [u64; 4], f64, [u64; 4]);
    let cases64: [Raw; 8] = [
        ("remap", &remap, None, [7, 212, 76, 0], 431.12, [2852, 38, 0, 0]),
        ("reembed", &reembed, None, [12, 587, 140, 0], 963.8, [12928, 140, 0, 0]),
        ("reverse", &reverse, None, [6, 30, 5, 0], 210.6, [1240, 5, 0, 0]),
        ("panel", &panel, None, [3, 55, 20, 0], 147.4, [1920, 20, 0, 0]),
        ("remap", &remap, Some(&drops), [17, 479, 76, 16], 1014.12, [3498, 38, 221, 8]),
        ("reembed", &reembed, Some(&drops), [42, 1230, 140, 38], 2544.8, [12928, 140, 1910, 8]),
        ("reverse", &reverse, Some(&drops), [19, 101, 5, 7], 678.6, [1240, 9, 93, 3]),
        ("panel", &panel, Some(&drops), [7, 115, 20, 3], 330.4, [1920, 20, 85, 2]),
    ];
    let cases64 = cases64.map(|(name, run, plan, [s, e, m, b], us, [t, l, d, r])| {
        let (ticks, counters) = (ticks(s, e, 0, b), with_drops(msgs(s, t, l, 0), d, r));
        (name, run, plan, Ticks { moves: m, ..ticks }, us, Counters { local_moves: m, ..counters })
    });
    // More sites at p = 64, with flops: ticks `[startups, elements,
    // flops, moves, backoff]`, the clock, and counters as above plus
    // `[reroutes, detour_hops]`. The segmented reduce's drop plan makes
    // one exchange step of its scans detour.
    type Full<'a> = (&'a str, Path<'a>, Option<&'a FaultPlan>, [u64; 5], f64, [u64; 6]);
    let more: [Full; 12] = [
        ("shift", &shift, None, [3, 63, 0, 70, 0], 161.4, [1344, 21, 0, 0, 0, 0]),
        (
            "seg_reduce",
            &segmented_reduce,
            None,
            [33, 147, 138, 4, 0],
            1185.78,
            [8621, 32, 0, 0, 0, 0],
        ),
        ("to_linear", &remap_to_linear, None, [6, 43, 0, 43, 0], 228.16, [870, 19, 0, 0, 0, 0]),
        ("hot_gather", &hot_gather, None, [12, 48, 17, 0, 0], 413.95, [342, 9, 0, 0, 0, 0]),
        ("scan_gray", &scan_gray, None, [3, 7, 84, 0, 0], 126.4, [448, 4, 0, 0, 0, 0]),
        ("scan_conc", &scan_concentrated, None, [3, 7, 84, 0, 0], 126.4, [448, 4, 0, 0, 0, 0]),
        ("shift", &shift, Some(&drops), [8, 168, 0, 70, 3], 419.4, [1344, 21, 15, 2, 0, 0]),
        (
            "seg_reduce",
            &segmented_reduce,
            Some(&drops),
            [89, 521, 138, 4, 74],
            3313.78,
            [9585, 32, 223, 35, 1, 2],
        ),
        (
            "to_linear",
            &remap_to_linear,
            Some(&drops),
            [23, 103, 0, 43, 31],
            829.16,
            [870, 19, 251, 5, 0, 0],
        ),
        (
            "hot_gather",
            &hot_gather,
            Some(&drops),
            [30, 93, 17, 0, 18],
            1016.95,
            [342, 9, 91, 6, 0, 0],
        ),
        ("scan_gray", &scan_gray, Some(&drops), [10, 25, 84, 0, 13], 367.4, [505, 4, 26, 7, 0, 0]),
        (
            "scan_conc",
            &scan_concentrated,
            Some(&drops),
            [10, 24, 84, 0, 15],
            368.4,
            [505, 4, 24, 7, 0, 0],
        ),
    ];
    let more = more.map(|(name, run, plan, [s, e, f, m, b], us, [t, l, d, r, rr, dh])| {
        let (ticks, counters) = (ticks(s, e, f, b), with_drops(msgs(s, t, l, f), d, r));
        let counters = Counters { local_moves: m, reroutes: rr, detour_hops: dh, ..counters };
        (name, run, plan, Ticks { moves: m, ..ticks }, us, counters)
    });
    let all = cases.iter().map(|c| (4, c)).chain(cases64.iter().chain(&more).map(|c| (6, c)));
    for (dim, &(name, run, plan, ticks, elapsed_us, counters)) in all {
        let mut hc = machine(dim, plan);
        run(&mut hc);
        assert_eq!(hc.ticks(), ticks, "{name} under {plan:?}");
        assert_eq!(hc.elapsed_us().to_bits(), elapsed_us.to_bits(), "{name} under {plan:?}");
        assert_eq!(*hc.counters(), counters, "{name} under {plan:?}");
    }
}

//! Property-based tests of the library's core invariants, across random
//! machine sizes, grid splits, matrix shapes and distribution rules.
//!
//! Integer element types make the algebraic identities exact (no float
//! tolerance hides a transposed index).

// Proptest sweeps are far too slow under Miri's interpreter; the
// dedicated Miri CI job covers the library's unsafe/aliasing surface
// via the unit tests instead (see .github/workflows/ci.yml).
#![cfg(not(miri))]

use proptest::prelude::*;

use four_vmp::algos::{simplex, workloads};
use four_vmp::core::elem::{Max, Min, Sum};
use four_vmp::core::{primitives, remap};
use four_vmp::hypercube::Cube;
use four_vmp::prelude::*;

fn kind_strategy() -> impl Strategy<Value = Dist> {
    prop_oneof![Just(Dist::Block), Just(Dist::Cyclic)]
}

/// (cube dim, grid row dims, rows, cols, kinds)
fn layout_strategy() -> impl Strategy<Value = (u32, u32, usize, usize, Dist, Dist)> {
    (0u32..=5).prop_flat_map(|dim| {
        (Just(dim), 0..=dim, 1usize..=17, 1usize..=17, kind_strategy(), kind_strategy())
    })
}

fn make_matrix(
    dim: u32,
    dr: u32,
    rows: usize,
    cols: usize,
    rk: Dist,
    ck: Dist,
) -> (Hypercube, DistMatrix<i64>) {
    let grid = ProcGrid::new(Cube::new(dim), dr);
    let layout = MatrixLayout::new(MatShape::new(rows, cols), grid, rk, ck);
    let m = DistMatrix::from_fn(layout, |i, j| ((i * 31 + j * 7) % 41) as i64 - 20);
    (Hypercube::cm2(dim), m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reduce_matches_serial_fold((dim, dr, rows, cols, rk, ck) in layout_strategy()) {
        let (mut hc, m) = make_matrix(dim, dr, rows, cols, rk, ck);
        let dense = m.to_dense();

        let v = primitives::reduce(&mut hc, &m, Axis::Row, Sum);
        v.assert_consistent();
        for j in 0..cols {
            let expect: i64 = dense.iter().map(|r| r[j]).sum();
            prop_assert_eq!(v.get(j), expect);
        }

        let w = primitives::reduce(&mut hc, &m, Axis::Col, Max);
        for i in 0..rows {
            let expect = dense[i].iter().copied().max().expect("nonempty");
            prop_assert_eq!(w.get(i), expect);
        }
    }

    #[test]
    fn reduce_to_agrees_with_reduce(
        (dim, dr, rows, cols, rk, ck) in layout_strategy(),
        line_pick in 0usize..64,
    ) {
        let (mut hc, m) = make_matrix(dim, dr, rows, cols, rk, ck);
        let pr = m.layout().grid().pr();
        let line = line_pick % pr;
        let a = primitives::reduce(&mut hc, &m, Axis::Row, Min);
        let b = primitives::reduce_to(&mut hc, &m, Axis::Row, Min, line);
        b.assert_consistent();
        prop_assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn extract_insert_roundtrip(
        (dim, dr, rows, cols, rk, ck) in layout_strategy(),
        idx_pick in 0usize..64,
    ) {
        let (mut hc, m) = make_matrix(dim, dr, rows, cols, rk, ck);
        let i = idx_pick % rows;
        let v = primitives::extract(&mut hc, &m, Axis::Row, i);
        prop_assert_eq!(v.to_dense(), m.to_dense()[i].clone());
        // Insert it into a different row of a copy; that row becomes row i.
        let tgt = (i + 1) % rows;
        let mut m2 = m.clone();
        primitives::insert(&mut hc, &mut m2, Axis::Row, tgt, &v);
        m2.assert_consistent();
        let dense = m.to_dense();
        let dense2 = m2.to_dense();
        for r in 0..rows {
            if r == tgt {
                prop_assert_eq!(&dense2[r], &dense[i]);
            } else {
                prop_assert_eq!(&dense2[r], &dense[r]);
            }
        }
    }

    #[test]
    fn distribute_then_reduce_scales(
        (dim, dr, _rows, cols, rk, ck) in layout_strategy(),
        count in 1usize..12,
    ) {
        let grid = ProcGrid::new(Cube::new(dim), dr);
        let vl = VectorLayout::aligned(cols, grid, Axis::Row, Placement::Replicated, ck);
        let v = DistVector::from_fn(vl, |j| (j as i64) - 3);
        let mut hc = Hypercube::cm2(dim);
        let m = primitives::distribute(&mut hc, &v, count, rk);
        m.assert_consistent();
        prop_assert_eq!(m.shape(), MatShape::new(count, cols));
        let s = primitives::reduce(&mut hc, &m, Axis::Row, Sum);
        for j in 0..cols {
            prop_assert_eq!(s.get(j), (count as i64) * ((j as i64) - 3));
        }
    }

    #[test]
    fn transpose_is_an_involution((dim, dr, rows, cols, rk, ck) in layout_strategy()) {
        let (mut hc, m) = make_matrix(dim, dr, rows, cols, rk, ck);
        let t = remap::transpose(&mut hc, &m);
        t.assert_consistent();
        let dense = m.to_dense();
        for i in 0..cols {
            for j in 0..rows {
                prop_assert_eq!(t.get(i, j), dense[j][i]);
            }
        }
        let tt = remap::transpose(&mut hc, &t);
        prop_assert_eq!(tt.to_dense(), dense);
    }

    #[test]
    fn redistribution_preserves_content(
        (dim, dr, rows, cols, rk, ck) in layout_strategy(),
        dr2 in 0u32..=5,
        rk2 in kind_strategy(),
        ck2 in kind_strategy(),
    ) {
        let (mut hc, m) = make_matrix(dim, dr, rows, cols, rk, ck);
        let grid2 = ProcGrid::new(Cube::new(dim), dr2.min(dim));
        let new_layout = MatrixLayout::new(MatShape::new(rows, cols), grid2, rk2, ck2);
        let r = remap::redistribute(&mut hc, &m, new_layout);
        r.assert_consistent();
        prop_assert_eq!(r.to_dense(), m.to_dense());
    }

    #[test]
    fn vector_remap_preserves_content_across_embeddings(
        dim in 0u32..=5,
        dr_pick in 0u32..=5,
        n in 1usize..=23,
        src_kind in kind_strategy(),
        dst_kind in kind_strategy(),
        src_sel in 0usize..6,
        dst_sel in 0usize..6,
        line_pick in 0usize..64,
    ) {
        let dr = dr_pick.min(dim);
        let grid = ProcGrid::new(Cube::new(dim), dr);
        let pick = |sel: usize, kind: Dist, line: usize| -> VectorLayout {
            match sel % 3 {
                0 => VectorLayout::aligned(n, grid, Axis::Row,
                        if sel % 2 == 0 { Placement::Replicated } else { Placement::Concentrated(line % grid.pr()) }, kind),
                1 => VectorLayout::aligned(n, grid, Axis::Col,
                        if sel % 2 == 0 { Placement::Replicated } else { Placement::Concentrated(line % grid.pc()) }, kind),
                _ => VectorLayout::linear(n, grid, kind),
            }
        };
        let src = pick(src_sel, src_kind, line_pick);
        let dst = pick(dst_sel, dst_kind, line_pick / 7);
        let v = DistVector::from_fn(src, |i| (i as i64) * 3 - 7);
        let mut hc = Hypercube::cm2(dim);
        let w = remap::remap_vector(&mut hc, &v, dst);
        w.assert_consistent();
        prop_assert_eq!(w.to_dense(), v.to_dense());
    }

    #[test]
    fn vecmat_matches_serial_exactly_on_integers(
        (dim, dr, rows, cols, rk, ck) in layout_strategy(),
    ) {
        let grid = ProcGrid::new(Cube::new(dim), dr);
        let layout = MatrixLayout::new(MatShape::new(rows, cols), grid, rk, ck);
        let a = DistMatrix::from_fn(layout, |i, j| ((i + 2 * j) % 9) as i64 - 4);
        let x = DistVector::from_fn(
            VectorLayout::aligned(rows, grid, Axis::Col, Placement::Replicated, rk),
            |i| (i % 5) as i64 - 2,
        );
        let mut hc = Hypercube::cm2(dim);
        let y = four_vmp::algos::vecmat(&mut hc, &x, &a);
        let dense = a.to_dense();
        let xd = x.to_dense();
        for j in 0..cols {
            let expect: i64 = (0..rows).map(|i| xd[i] * dense[i][j]).sum();
            prop_assert_eq!(y.get(j), expect);
        }
    }

    #[test]
    fn parallel_simplex_always_matches_serial(
        m_rows in 2usize..8,
        n_vars in 2usize..8,
        seed in 0u64..200,
        dim in 0u32..=4,
    ) {
        let lp = workloads::random_dense_lp(m_rows, n_vars, seed);
        let serial = four_vmp::algos::serial::simplex_solve(&lp, 500);
        let mut hc = Hypercube::cm2(dim);
        let par = simplex::solve_parallel(&mut hc, &lp, ProcGrid::square(Cube::new(dim)), 500);
        prop_assert_eq!(par.status, serial.status);
        prop_assert_eq!(par.objective, serial.objective);
        prop_assert_eq!(par.x, serial.x);
    }

    #[test]
    fn scan_matches_serial_prefix(
        n in 1usize..40,
        dim in 0u32..=5,
        sel in 0usize..3,
    ) {
        use four_vmp::core::scan::{scan_exclusive, scan_inclusive};
        let grid = ProcGrid::square(Cube::new(dim));
        let layout = match sel {
            0 => VectorLayout::linear(n, grid, Dist::Block),
            1 => VectorLayout::aligned(n, grid, Axis::Row, Placement::Replicated, Dist::Block),
            _ => VectorLayout::aligned(n, grid, Axis::Col, Placement::Replicated, Dist::Block),
        };
        let vals: Vec<i64> = (0..n).map(|i| ((i * 37 + 11) % 23) as i64 - 11).collect();
        let v = DistVector::from_fn(layout, |i| vals[i]);
        let mut hc = Hypercube::cm2(dim);
        let inc = scan_inclusive(&mut hc, &v, Sum);
        let exc = scan_exclusive(&mut hc, &v, Sum);
        inc.assert_consistent();
        exc.assert_consistent();
        let mut run = 0i64;
        for i in 0..n {
            prop_assert_eq!(exc.get(i), run);
            run += vals[i];
            prop_assert_eq!(inc.get(i), run);
        }
    }

    #[test]
    fn segmented_reduce_matches_per_segment_folds(
        n in 1usize..32,
        dim in 0u32..=4,
        flag_mask in 0u64..u64::MAX,
    ) {
        use four_vmp::core::scan::segmented_reduce;
        let grid = ProcGrid::square(Cube::new(dim));
        let layout = VectorLayout::linear(n, grid, Dist::Block);
        let flag_at = move |i: usize| i == 0 || (flag_mask >> (i % 64)) & 1 == 1;
        let vals: Vec<i64> = (0..n).map(|i| (i as i64) * 3 - 7).collect();
        let v = DistVector::from_fn(layout, |i| vals[i]);
        let f = DistVector::from_fn(layout, flag_at);
        let mut hc = Hypercube::cm2(dim);
        let r = segmented_reduce(&mut hc, &v, &f, Sum);
        // Brute-force per-segment totals.
        let mut seg_total = vec![0i64; n];
        let mut start = 0usize;
        for i in 0..=n {
            if i == n || (i > 0 && flag_at(i)) {
                let total: i64 = vals[start..i].iter().sum();
                for t in seg_total.iter_mut().take(i).skip(start) {
                    *t = total;
                }
                start = i;
            }
        }
        for i in 0..n {
            prop_assert_eq!(r.get(i), seg_total[i], "i = {}", i);
        }
    }

    #[test]
    fn wrap_shifts_rotate_indices(
        rows in 1usize..14,
        cols in 1usize..14,
        dim in 0u32..=4,
        offset in -20isize..20,
        horizontal in proptest::bool::ANY,
        kind in kind_strategy(),
    ) {
        use four_vmp::core::shift::{shift, Boundary};
        let grid = ProcGrid::square(Cube::new(dim));
        let layout = MatrixLayout::new(MatShape::new(rows, cols), grid, kind, kind);
        let m = DistMatrix::from_fn(layout, |i, j| (i * 1000 + j) as i64);
        let mut hc = Hypercube::cm2(dim);
        let axis = if horizontal { Axis::Row } else { Axis::Col };
        let s = shift(&mut hc, &m, axis, offset, Boundary::Wrap);
        s.assert_consistent();
        let extent = if horizontal { cols } else { rows } as isize;
        for i in 0..rows {
            for j in 0..cols {
                let (si, sj) = if horizontal {
                    (i, ((j as isize - offset).rem_euclid(extent)) as usize)
                } else {
                    (((i as isize - offset).rem_euclid(extent)) as usize, j)
                };
                prop_assert_eq!(s.get(i, j), (si * 1000 + sj) as i64);
            }
        }
    }

    #[test]
    fn matmul_matches_serial_exactly_on_integers(
        m in 1usize..10,
        k in 1usize..10,
        n in 1usize..10,
        dim in 0u32..=4,
    ) {
        use four_vmp::algos::matmul;
        let grid = ProcGrid::square(Cube::new(dim));
        let a = DistMatrix::from_fn(
            MatrixLayout::cyclic(MatShape::new(m, k), grid),
            |i, j| ((i * 5 + j * 3) % 7) as i64 - 3,
        );
        let b = DistMatrix::from_fn(
            MatrixLayout::cyclic(MatShape::new(k, n), grid),
            |i, j| ((i * 2 + j * 11) % 9) as i64 - 4,
        );
        let mut hc = Hypercube::cm2(dim);
        let c = matmul(&mut hc, &a, &b);
        let da = a.to_dense();
        let db = b.to_dense();
        for i in 0..m {
            for j in 0..n {
                let expect: i64 = (0..k).map(|t| da[i][t] * db[t][j]).sum();
                prop_assert_eq!(c.get(i, j), expect);
            }
        }
    }

    #[test]
    fn fft_roundtrips_and_matches_dft(
        log_n in 2u32..=7,
        dim in 0u32..=4,
        seed in 0u64..500,
    ) {
        use four_vmp::algos::fft::{dft_serial, fft, ifft, Cplx};
        let n = 1usize << log_n.max(dim); // need n >= p
        let grid = ProcGrid::square(Cube::new(dim));
        let layout = VectorLayout::linear(n, grid, Dist::Block);
        let x: Vec<Cplx> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(seed.wrapping_add(1)).wrapping_mul(0x9E3779B97F4A7C15);
                Cplx::new(((h >> 40) as f64) / 1e7 - 0.8, ((h >> 20 & 0xFFFFF) as f64) / 1e5 - 5.0)
            })
            .collect();
        let v = DistVector::from_slice(layout, &x);
        let mut hc = Hypercube::cm2(dim);
        let spec = fft(&mut hc, &v);
        // Round trip.
        let back = ifft(&mut hc, &spec).to_dense();
        for (a, b) in back.iter().zip(&x) {
            prop_assert!(a.sub(*b).abs() < 1e-8, "roundtrip");
        }
        // Against the naive DFT for small sizes.
        if n <= 64 {
            let naive = dft_serial(&x, false);
            for (a, b) in spec.to_dense().iter().zip(&naive) {
                prop_assert!(a.sub(*b).abs() < 1e-7, "dft agreement");
            }
        }
    }

    #[test]
    fn bitonic_sort_sorts_and_permutes(
        log_n in 1u32..=8,
        dim in 0u32..=4,
        seed in 0u64..500,
    ) {
        use four_vmp::algos::sort::sort_ascending;
        let n = 1usize << log_n.max(dim);
        let grid = ProcGrid::square(Cube::new(dim));
        let layout = VectorLayout::linear(n, grid, Dist::Block);
        let x: Vec<i64> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(seed.wrapping_add(7)).wrapping_mul(0xC2B2AE3D27D4EB4F);
                ((h >> 48) as i64) - 32768
            })
            .collect();
        let v = DistVector::from_slice(layout, &x);
        let mut hc = Hypercube::cm2(dim);
        let sorted = sort_ascending(&mut hc, &v).to_dense();
        let mut expect = x.clone();
        expect.sort_unstable();
        prop_assert_eq!(sorted, expect);
    }

    #[test]
    fn histograms_match_serial_both_ways(
        n in 1usize..80,
        bins_log in 1u32..=8,
        spread in 1usize..40,
        dim in 0u32..=4,
        seed in 0u64..500,
    ) {
        use four_vmp::algos::histogram::{histogram_dense, histogram_serial, histogram_sparse};
        let bins = 1usize << bins_log;
        let vals: Vec<usize> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed.wrapping_add(3)).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as usize
                % spread.min(bins))
            .collect();
        let expect = histogram_serial(&vals, bins);
        let grid = ProcGrid::square(Cube::new(dim));
        let layout = VectorLayout::linear(n, grid, Dist::Block);
        let v = DistVector::from_slice(layout, &vals);
        let mut h1 = Hypercube::cm2(dim);
        prop_assert_eq!(histogram_dense(&mut h1, &v, bins), expect.clone());
        let mut h2 = Hypercube::cm2(dim);
        prop_assert_eq!(histogram_sparse(&mut h2, &v, bins), expect);
    }

    #[test]
    fn ge_solves_random_dominant_systems(n in 2usize..20, seed in 0u64..100, dim in 0u32..=4) {
        let (a, b, x_true) = workloads::diag_dominant_system(n, seed);
        let mut hc = Hypercube::cm2(dim);
        let (x, _) = four_vmp::algos::ge_solve(&mut hc, &a, &b, ProcGrid::square(Cube::new(dim)))
            .expect("diagonally dominant");
        for i in 0..n {
            prop_assert!((x[i] - x_true[i]).abs() < 1e-7, "i = {}: {} vs {}", i, x[i], x_true[i]);
        }
    }
}

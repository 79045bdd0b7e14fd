//! X1 / X2 — extension experiments beyond the paper's evaluation:
//! matmul schedules and conjugate gradient, both composed from the
//! primitives.

use vmp_algos::cg::{cg_solve, CgOptions};
use vmp_algos::{matmul, matmul_panelled, workloads};
use vmp_core::prelude::*;

use crate::common::{cm2, random_dist_matrix, square_grid};
use crate::table::{fmt_us, fmt_x, Table};

/// X1: distributed matmul, rank-1 vs panel-blocked schedules.
#[must_use]
pub fn x1() -> Table {
    let dim = 8u32;
    let mut t = Table::new(
        "X1",
        "matmul schedules: rank-1 (pure primitives) vs panel blocking (p = 256)",
        "extension: the primitives compose into level-3 operations; panelling trades start-ups for bandwidth",
        &["n", "rank-1", "b=4", "b=16", "b=n", "best/b=n msg steps"],
    );
    for n in [32usize, 64, 128] {
        let run = |panel: Option<usize>| {
            let a = random_dist_matrix(n, square_grid(dim));
            let b = random_dist_matrix(n, square_grid(dim));
            let mut hc = cm2(dim);
            match panel {
                None => {
                    let _ = matmul(&mut hc, &a, &b);
                }
                Some(p) => {
                    let _ = matmul_panelled(&mut hc, &a, &b, p);
                }
            }
            (hc.elapsed_us(), hc.counters().message_steps)
        };
        let (t_r1, _) = run(None);
        let (t_b4, _) = run(Some(4));
        let (t_b16, _) = run(Some(16));
        let (t_bn, steps_bn) = run(Some(n));
        t.row(vec![
            n.to_string(),
            fmt_us(t_r1),
            fmt_us(t_b4),
            fmt_us(t_b16),
            fmt_us(t_bn),
            format!("{} steps", steps_bn),
        ]);
    }
    t.note("all schedules produce bit-identical results (same accumulation order); tested");
    t
}

/// X2: conjugate gradient on the primitives, vs machine size.
#[must_use]
pub fn x2() -> Table {
    let n = 96usize;
    let mut t = Table::new(
        "X2",
        "conjugate gradient (SPD, n = 96) vs machine size",
        "extension: iterative solvers compose from matvec + dots + embedding changes",
        &["p", "iterations", "time", "per-iteration", "speedup vs p=1"],
    );
    let (a, b, _) = workloads::spd_system(n, 5);
    let mut t_p1 = None;
    for dim in [0u32, 2, 4, 6, 8, 10] {
        let grid = square_grid(dim);
        let am = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), grid), |i, j| {
            a.get(i, j)
        });
        let mut hc = cm2(dim);
        let out = cg_solve(&mut hc, &am, &b, CgOptions::default());
        assert!(out.converged);
        let time = hc.elapsed_us();
        if t_p1.is_none() {
            t_p1 = Some(time);
        }
        t.row(vec![
            (1usize << dim).to_string(),
            out.iterations.to_string(),
            fmt_us(time),
            fmt_us(time / out.iterations as f64),
            fmt_x(t_p1.expect("set on first row") / time),
        ]);
    }
    t.note("iteration counts stay put (same arithmetic), time shrinks until the lg p collective term dominates");
    t
}

/// X3: Jacobi/Poisson stencil iteration cost — block vs cyclic layout
/// and machine-size scaling on the Gray-coded NEWS embedding.
#[must_use]
pub fn x3() -> Table {
    let n = 256usize;
    let iters = 5usize;
    let mut t = Table::new(
        "X3",
        "Jacobi stencil (5 sweeps, n = 256): NEWS shifts on the Gray-coded embedding",
        "extension: dilation-1 grid embedding makes nearest-neighbour shifts one blocked superstep",
        &["p", "block layout", "cyclic layout", "cyclic/block"],
    );
    for dim in [2u32, 4, 6, 8, 10] {
        let run = |cyclic: bool| {
            let grid = square_grid(dim);
            let layout = if cyclic {
                MatrixLayout::cyclic(MatShape::new(n, n), grid)
            } else {
                MatrixLayout::block(MatShape::new(n, n), grid)
            };
            let f = DistMatrix::from_fn(
                layout,
                |i, j| {
                    if i == n / 2 && j == n / 2 {
                        1.0
                    } else {
                        0.0
                    }
                },
            );
            let mut hc = cm2(dim);
            let _ = vmp_algos::stencil::jacobi_poisson(&mut hc, &f, 1.0, iters);
            hc.elapsed_us()
        };
        let block = run(false);
        let cyclic = run(true);
        t.row(vec![
            (1usize << dim).to_string(),
            fmt_us(block),
            fmt_us(cyclic),
            fmt_x(cyclic / block),
        ]);
    }
    t.note(
        "block embeddings move only block-boundary lines per shift; cyclic relocates every element",
    );
    t
}

/// X4: the hypercube FFT and bitonic sort vs machine size — the other
/// two booklet kernels built on the same neighbour-exchange stage
/// structure.
#[must_use]
pub fn x4() -> Table {
    use vmp_algos::fft::{fft, Cplx};
    use vmp_algos::sort::sort_ascending;
    let n = 4096usize;
    let mut t = Table::new(
        "X4",
        "FFT and bitonic sort (n = 4096) vs machine size",
        "extension: power-of-two-stride kernels map their node stages onto cube neighbours",
        &["p", "fft", "fft msg steps", "bitonic sort", "sort msg steps"],
    );
    for dim in [0u32, 2, 4, 6, 8] {
        let grid = square_grid(dim);
        let layout = VectorLayout::linear(n, grid, Dist::Block);
        let x: Vec<Cplx> = (0..n).map(|i| Cplx::new(((i * 37) % 11) as f64 - 5.0, 0.0)).collect();
        let v = DistVector::from_slice(layout, &x);
        let mut hc = cm2(dim);
        let _ = fft(&mut hc, &v);
        let (t_fft, steps_fft) = (hc.elapsed_us(), hc.counters().message_steps);

        let keys: Vec<i64> = (0..n).map(|i| ((i * 7919) % (2 * n)) as i64).collect();
        let kv = DistVector::from_slice(VectorLayout::linear(n, grid, Dist::Block), &keys);
        let mut hc2 = cm2(dim);
        let _ = sort_ascending(&mut hc2, &kv);
        let (t_sort, steps_sort) = (hc2.elapsed_us(), hc2.counters().message_steps);

        t.row(vec![
            (1usize << dim).to_string(),
            fmt_us(t_fft),
            steps_fft.to_string(),
            fmt_us(t_sort),
            steps_sort.to_string(),
        ]);
    }
    t.note(
        "FFT: d neighbour exchanges + bit-reversal route; sort: O(lg^2 n) compare-exchange stages",
    );
    t
}

/// X5: cost-model sensitivity — the reproduced shapes (here, T3's
/// naive/primitive gap and F1's efficiency climb) under three different
/// machine-constant presets.
#[must_use]
pub fn x5() -> Table {
    use crate::experiments::naive_exp::matvec_pair_with;
    use vmp_algos::vecmat;
    use vmp_core::analysis;
    let dim = 8u32;
    let p = 1usize << dim;
    let mut t = Table::new(
        "X5",
        "shape stability under different cost constants (p = 256, matvec)",
        "the reproduced claims are ratios/crossovers, insensitive to the exact machine constants",
        &["model", "naive/prim (n=256)", "naive/prim (n=512)", "eff @ m/p=64", "eff @ m/p=1024"],
    );
    for (name, cost) in
        [("CM-2", CostModel::cm2()), ("iPSC/1", CostModel::ipsc1()), ("unit", CostModel::unit())]
    {
        let (nv1, pv1) = matvec_pair_with(256, dim, cost);
        let (nv2, pv2) = matvec_pair_with(512, dim, cost);
        let eff = |n: usize| {
            let a = random_dist_matrix(n, square_grid(dim));
            let x = crate::common::random_aligned_vector(&a, Axis::Col);
            let mut hc = vmp_hypercube::Hypercube::new(dim, cost);
            let _ = vecmat(&mut hc, &x, &a);
            analysis::efficiency(cost.gamma * 2.0 * (n * n) as f64, p, hc.elapsed_us())
        };
        t.row(vec![
            name.to_string(),
            fmt_x(nv1 / pv1),
            fmt_x(nv2 / pv2),
            format!("{:.3}", eff(128)),
            format!("{:.3}", eff(512)),
        ]);
    }
    t.note("the gap and the efficiency climb survive every preset; only the constants move");
    t
}

/// X6: the histogram crossover (TR-682): dense (data-independent) vs
/// sparse (data-dependent) all-to-all reduction, sweeping elements per
/// processor at fixed bin count.
#[must_use]
pub fn x6() -> Table {
    use vmp_algos::histogram::{histogram_dense, histogram_sparse};
    let dim = 8u32;
    let p = 1usize << dim;
    let bins = 1024usize;
    let mut t = Table::new(
        "X6",
        "histogram: dense vs sparse all-to-all reduction (p = 256, B = 1024)",
        "TR-682 (same booklet): the data-dependent algorithm wins at low occupancy, loses as bins saturate",
        &["elems/proc", "distinct", "dense", "sparse", "sparse/dense"],
    );
    for (per_proc, spread) in
        [(1usize, 16usize), (4, 64), (16, 256), (64, 1024), (256, 1024), (1024, 1024)]
    {
        let n = per_proc * p;
        let vals: Vec<usize> = (0..n).map(|i| (i * 7919 + 13) % spread).collect();
        let grid = square_grid(dim);
        let layout = VectorLayout::linear(n, grid, Dist::Block);
        let v = DistVector::from_slice(layout, &vals);
        let mut hd = cm2(dim);
        let a = histogram_dense(&mut hd, &v, bins);
        let mut hs = cm2(dim);
        let b = histogram_sparse(&mut hs, &v, bins);
        assert_eq!(a, b, "identical histograms");
        t.row(vec![
            per_proc.to_string(),
            spread.to_string(),
            fmt_us(hd.elapsed_us()),
            fmt_us(hs.elapsed_us()),
            fmt_x(hs.elapsed_us() / hd.elapsed_us()),
        ]);
    }
    t.note("ratio < 1: sparse wins (few distinct bins in flight); the crossover moves with occupancy as TR-682 predicts");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panelled_matmul_is_faster_in_the_model() {
        let n = 24usize;
        let a = random_dist_matrix(n, square_grid(4));
        let b = random_dist_matrix(n, square_grid(4));
        let mut h1 = cm2(4);
        let _ = matmul(&mut h1, &a, &b);
        let mut h2 = cm2(4);
        let _ = matmul_panelled(&mut h2, &a, &b, 8);
        assert!(h2.elapsed_us() < h1.elapsed_us());
    }

    #[test]
    fn cg_speeds_up_with_processors() {
        let (a, b, _) = workloads::spd_system(48, 5);
        let time = |dim: u32| {
            let am = DistMatrix::from_fn(
                MatrixLayout::cyclic(MatShape::new(48, 48), square_grid(dim)),
                |i, j| a.get(i, j),
            );
            let mut hc = cm2(dim);
            let out = cg_solve(&mut hc, &am, &b, CgOptions::default());
            assert!(out.converged);
            hc.elapsed_us()
        };
        assert!(time(6) < time(0), "p = 64 should beat p = 1");
    }
}

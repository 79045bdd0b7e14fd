//! Analytic cost model for the primitives — the paper's complexity
//! claims, as executable formulas.
//!
//! The abstract's asymptotic claims:
//!
//! 1. *"The implementations are efficient in the frequently occurring
//!    case where there are fewer processors than matrix elements."*
//! 2. *"If there are `m > p lg p` matrix elements ... the implementations
//!    of some of the primitives are asymptotically optimal in that the
//!    processor-time product is no more than a constant factor higher
//!    than the running time of the best serial algorithm."*
//! 3. *"Furthermore, the parallel time required is optimal to within a
//!    constant factor"* (i.e. matches `Omega(m/p + lg p)`).
//!
//! The predictors below give the implemented schedules' charges as
//! [`Ticks`], so the machine's charge equals them with `==`; the
//! analytic bounds further down stay in microseconds. Tests in this
//! module and bench F1/F2 verify that the *simulated* machine agrees
//! with the formulas, and that the optimality predicates behave as
//! claimed across the `m = p lg p` threshold.

use vmp_hypercube::cost::{Collective, CostModel, Ticks};
use vmp_layout::{MatrixLayout, VecEmbedding, VectorLayout};

/// Per-processor block bound `ceil(n_r/p_r) * ceil(n_c/p_c)` — the local
/// work unit of every primitive.
#[must_use]
pub fn local_block(layout: &MatrixLayout) -> usize {
    layout.max_local_len()
}

/// Predicted ticks of one collective of `kind` over `k` dimensions with
/// critical-path segment length `len` on a healthy machine — exactly
/// what a [`vmp_hypercube::machine::Hypercube`] with this cost model
/// charges, since both ask [`CostModel::choose`] for the schedule.
/// One-port cost models make this the classic single-port formula; an
/// all-port model prices the same ported schedule the machine runs, so
/// predictions track charges under either port model.
#[must_use]
pub fn collective_cost(cost: &CostModel, kind: Collective, k: usize, len: usize) -> Ticks {
    let algo = cost.choose(kind, k, len, false);
    CostModel::collective_time(kind, k, len, algo)
}

/// Predicted ticks of `reduce` along rows (the `Axis::Row` case; swap
/// the grid factors for columns): local fold over the block plus an
/// allreduce over the `d_r` row dimensions on chunks of `ceil(n_c/p_c)`
/// elements (a `d_r`-step butterfly single-port; the staggered
/// piece-butterflies under an all-port model).
#[must_use]
pub fn predicted_reduce(layout: &MatrixLayout, cost: &CostModel) -> Ticks {
    let chunk = layout.cols().max_count();
    let dr = layout.grid().dr() as usize;
    Ticks::flops(local_block(layout)) + collective_cost(cost, Collective::Allreduce, dr, chunk)
}

/// Predicted ticks of `distribute` from a concentrated row vector: a
/// broadcast of the chunk over the `d_r` row dimensions, then local
/// replication.
#[must_use]
pub fn predicted_distribute_concentrated(layout: &MatrixLayout, cost: &CostModel) -> Ticks {
    let chunk = layout.cols().max_count();
    let dr = layout.grid().dr() as usize;
    collective_cost(cost, Collective::Broadcast, dr, chunk) + Ticks::moves(local_block(layout))
}

/// Predicted ticks of `extract` (concentrated result): one local chunk
/// copy on the owning grid line.
#[must_use]
pub fn predicted_extract(layout: &MatrixLayout) -> Ticks {
    Ticks::moves(layout.cols().max_count())
}

/// Predicted ticks of `extract` + replication: the local copy plus a
/// broadcast over the `d_r` row dimensions.
#[must_use]
pub fn predicted_extract_replicated(layout: &MatrixLayout, cost: &CostModel) -> Ticks {
    let chunk = layout.cols().max_count();
    let dr = layout.grid().dr() as usize;
    Ticks::moves(chunk) + collective_cost(cost, Collective::Broadcast, dr, chunk)
}

/// Predicted ticks of `reduce` along rows on a machine degraded by
/// single-hop concentration with the given `load_factor` (the largest
/// number of logical nodes co-hosted on one physical node; `1` means
/// healthy and the formula collapses to [`predicted_reduce`] under a
/// one-port cost model).
///
/// Degradation changes exactly one thing in the machine's charging: a
/// host running `load_factor` logical nodes serializes their *compute*,
/// so every `charge_flops` superstep scales by the load factor — the
/// local fold and the per-step combines here. Message supersteps do
/// **not** scale: each butterfly step is still one blocked superstep as
/// long as at least one of its exchange pairs crosses physical hosts,
/// which holds whenever the dead set is small relative to the row
/// dimension (every dead node has `d_r - 1` other row partners besides
/// the one it may share a host with). Intra-host pairs within a step
/// simply stop being channel traffic.
///
/// Deliberately single-port, and so free of the cost model: a machine
/// with `load_factor > 1` reports live faults, and the schedule
/// selector falls back to the single-port butterfly regardless of the
/// cost model's port capability — so the degraded prediction never
/// prices an all-port schedule.
#[must_use]
pub fn predicted_reduce_degraded(layout: &MatrixLayout, load_factor: usize) -> Ticks {
    let block = local_block(layout);
    let chunk = layout.cols().max_count();
    let dr = layout.grid().dr() as usize;
    Ticks::flops(load_factor * block)
        + (Ticks::message(chunk) + Ticks::flops(load_factor * chunk)) * dr
}

/// Predicted ticks of a vector fold (`reduce_all`, `reduce_lifted`;
/// `zip_reduce` adds its zip pass, `Ticks::flops(max_count)`): the local
/// fold over the largest chunk, then an all-reduce of one scalar per
/// node over [`VectorLayout::fold_dims`] — a replicated vector's part
/// dims, so each grid line folds its own copy and a line of one node
/// exchanges nothing; every cube dim for a concentrated or linear one.
#[must_use]
pub fn predicted_fold(layout: &VectorLayout, cost: &CostModel) -> Ticks {
    let k = layout.fold_dims().len();
    Ticks::flops(layout.dist().max_count()) + collective_cost(cost, Collective::Allreduce, k, 1)
}

/// Predicted ticks of `concentrate` of an aligned vector laid out as
/// `layout` from grid line `from` onto line `to`: one blocked message of
/// the largest part per cube dim in which the lines' addresses differ,
/// on either port model. An `insert` of a vector concentrated off the
/// owning line adds its local write, `Ticks::moves` of the chunk; a row
/// swap is two such inserts.
///
/// # Panics
/// Panics on a linear layout.
#[must_use]
pub fn predicted_concentrate(layout: &VectorLayout, from: usize, to: usize) -> Ticks {
    let VecEmbedding::Aligned { axis, .. } = *layout.embedding() else {
        panic!("concentrate applies to axis-aligned vectors only")
    };
    let grid = layout.grid();
    let hops = (grid.line_coord(axis, from) ^ grid.line_coord(axis, to)).count_ones() as usize;
    match layout.dist().max_count() {
        0 => Ticks::default(),
        max => Ticks::message(max) * hops,
    }
}

/// The generic lower bound for a primitive that must touch all `m`
/// elements and combine information across the machine:
/// `Omega(gamma * m/p + alpha * lg p)`.
#[must_use]
pub fn lower_bound(m: usize, p: usize, cost: &CostModel) -> f64 {
    let lg_p = (usize::BITS - p.leading_zeros() - 1) as f64; // floor(lg p), p a power of 2
    cost.gamma * (m as f64 / p as f64) + cost.alpha * lg_p
}

/// Lower bound with an explicit latency diameter: a row-wise reduce only
/// combines information across the `2^{lat_dims}` grid rows, so its
/// latency term is `alpha * lat_dims` rather than `alpha * lg p`.
#[must_use]
pub fn lower_bound_dims(m: usize, p: usize, lat_dims: u32, cost: &CostModel) -> f64 {
    cost.gamma * (m as f64 / p as f64) + cost.alpha * f64::from(lat_dims)
}

/// The paper's optimality threshold: `m > p lg p`.
#[must_use]
pub fn in_optimal_regime(m: usize, p: usize) -> bool {
    let lg_p = (usize::BITS - p.leading_zeros() - 1) as usize;
    m > p * lg_p
}

/// Parallel efficiency `T_serial / (p * T_parallel)` — the processor-time
/// product comparison behind claim 2. `serial_us` should be the best
/// serial algorithm's (modelled) time, typically `gamma * m` for a
/// reduction.
#[must_use]
pub fn efficiency(serial_us: f64, p: usize, parallel_us: f64) -> f64 {
    serial_us / (p as f64 * parallel_us)
}

/// Modelled serial time of a full-matrix reduction: `gamma * m`.
#[must_use]
pub fn serial_reduce_us(m: usize, cost: &CostModel) -> f64 {
    cost.gamma * m as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::Sum;
    use crate::matrix::DistMatrix;
    use crate::primitives;
    use vmp_hypercube::machine::Hypercube;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Axis, Dist, MatShape, ProcGrid};

    fn layout(n: usize, dim: u32) -> MatrixLayout {
        MatrixLayout::new(
            MatShape::new(n, n),
            ProcGrid::square(Cube::new(dim)),
            Dist::Cyclic,
            Dist::Cyclic,
        )
    }

    #[test]
    fn simulated_reduce_matches_formula_exactly() {
        // The prediction routes its communication term through the same
        // schedule selector the machine uses, so it stays exact when the
        // cost model advertises all ports and the machine actually runs
        // the ported schedule.
        for cost in [CostModel::unit(), CostModel::cm2(), CostModel::cm2_allport()] {
            for (n, dim) in [(16usize, 4u32), (32, 6), (64, 6), (24, 4)] {
                let l = layout(n, dim);
                let m = DistMatrix::from_fn(l, |i, j| (i + j) as f64);
                let mut hc = Hypercube::new(dim, cost);
                let _ = primitives::reduce(&mut hc, &m, Axis::Row, Sum);
                assert_eq!(hc.ticks(), predicted_reduce(&l, &cost), "n={n} dim={dim} {cost:?}");
            }
        }
    }

    #[test]
    fn simulated_extract_matches_formula() {
        let cost = CostModel::cm2();
        let l = layout(32, 6);
        let m = DistMatrix::from_fn(l, |i, j| (i * j) as f64);
        let mut hc = Hypercube::new(6, cost);
        let _ = primitives::extract(&mut hc, &m, Axis::Row, 5);
        assert_eq!(hc.ticks(), predicted_extract(&l));

        let mut hc2 = Hypercube::new(6, cost);
        let _ = primitives::extract_replicated(&mut hc2, &m, Axis::Row, 5);
        assert_eq!(hc2.ticks(), predicted_extract_replicated(&l, &cost));
    }

    #[test]
    fn simulated_distribute_matches_formula() {
        let cost = CostModel::cm2();
        let l = layout(32, 6);
        let m = DistMatrix::from_fn(l, |i, j| (i * j) as f64);
        let mut hc = Hypercube::new(6, cost);
        let v = primitives::extract(&mut hc, &m, Axis::Row, 0);
        hc.reset();
        let _ = primitives::distribute(&mut hc, &v, 32, Dist::Cyclic);
        assert_eq!(hc.ticks(), predicted_distribute_concentrated(&l, &cost));
    }

    #[test]
    fn simulated_fold_matches_formula_exactly() {
        use crate::elem::{ArgMaxAbs, Loc};
        use crate::vector::DistVector;
        use vmp_layout::{GridEncoding, Placement, VectorLayout};
        // Square and non-square grids, one node, and grids whose rows
        // (`dr = dim`) or columns (`dr = 0`) are single nodes, where a
        // replicated vector's line has no dims and its fold no exchange.
        let grids = [
            (4, 2, GridEncoding::Gray),
            (5, 2, GridEncoding::Binary),
            (5, 3, GridEncoding::Gray),
            (0, 0, GridEncoding::Gray),
            (4, 0, GridEncoding::Gray),
            (4, 4, GridEncoding::Binary),
        ];
        for cost in [CostModel::unit(), CostModel::cm2(), CostModel::cm2_allport()] {
            for (dim, dr, enc) in grids {
                let g = ProcGrid::with_encoding(Cube::new(dim), dr, enc);
                let (last_row, last_col) = (g.pr() - 1, g.pc() - 1);
                for n in [0usize, 5, 37] {
                    for layout in [
                        VectorLayout::aligned(n, g, Axis::Row, Placement::Replicated, Dist::Cyclic),
                        VectorLayout::aligned(n, g, Axis::Col, Placement::Replicated, Dist::Block),
                        VectorLayout::aligned(
                            n,
                            g,
                            Axis::Row,
                            Placement::Concentrated(last_row),
                            Dist::Block,
                        ),
                        VectorLayout::aligned(
                            n,
                            g,
                            Axis::Col,
                            Placement::Concentrated(last_col),
                            Dist::Cyclic,
                        ),
                        VectorLayout::linear(n, g, Dist::Cyclic),
                    ] {
                        let what = format!("{cost:?} {layout:?}");
                        let v = DistVector::from_fn(layout, |i| (i as f64).sin());
                        let want = predicted_fold(&layout, &cost);
                        let mut hc = Hypercube::new(dim, cost);
                        let _ = v.reduce_all(&mut hc, Sum);
                        assert_eq!(hc.ticks(), want, "reduce_all {what}");
                        let mut hc = Hypercube::new(dim, cost);
                        let _ = v.reduce_lifted(&mut hc, ArgMaxAbs, |i, x| Loc::new(x, i));
                        assert_eq!(hc.ticks(), want, "reduce_lifted {what}");
                        let mut hc = Hypercube::new(dim, cost);
                        let _ = v.zip_reduce(&mut hc, &v, Sum, |_, a, b| a * b);
                        let zip = Ticks::flops(layout.dist().max_count());
                        assert_eq!(hc.ticks(), want + zip, "zip_reduce {what}");
                    }
                }
            }
        }
    }

    /// Routed inserts charge their prediction exactly: both axes, Gray
    /// and binary grids, square and non-square grids (including rows or
    /// columns of one node), both port models, from every source line
    /// into rows owned by several target lines.
    #[test]
    fn simulated_insert_and_concentrate_match_formula_exactly() {
        use crate::remap::concentrate;
        use crate::vector::DistVector;
        use vmp_layout::{GridEncoding, Placement};
        let grids = [
            (4, 2, GridEncoding::Gray),
            (5, 2, GridEncoding::Binary),
            (5, 3, GridEncoding::Gray),
            (3, 0, GridEncoding::Gray),
            (3, 3, GridEncoding::Binary),
        ];
        for cost in [CostModel::cm2(), CostModel::cm2_allport()] {
            for (dim, dr, enc) in grids {
                let g = ProcGrid::with_encoding(Cube::new(dim), dr, enc);
                let l = MatrixLayout::new(MatShape::new(11, 6), g, Dist::Cyclic, Dist::Block);
                let m = DistMatrix::from_fn(l, |i, j| (i * 10 + j) as f64);
                for axis in [Axis::Row, Axis::Col] {
                    let count = l.shape().vector_count(axis);
                    for from in 0..g.lines(axis).0 {
                        let vl = VectorLayout::aligned(
                            l.shape().vector_len(axis),
                            g,
                            axis,
                            Placement::Concentrated(from),
                            l.vector_dist(axis).kind(),
                        );
                        let v = DistVector::from_fn(vl, |i| -(i as f64));
                        for to in 0..g.lines(axis).0 {
                            let mut hc = Hypercube::new(dim, cost);
                            let _ = concentrate(&mut hc, &v, to);
                            let want = predicted_concentrate(&vl, from, to);
                            assert_eq!(hc.ticks(), want, "{cost:?} {g:?} {axis:?} {from}->{to}");
                        }
                        for index in [0, count / 2, count - 1] {
                            let mut hc = Hypercube::new(dim, cost);
                            primitives::insert(&mut hc, &mut m.clone(), axis, index, &v);
                            let to = l.vector_dist(axis.transpose()).owner(index);
                            let write = Ticks::moves(l.vector_dist(axis).max_count());
                            let want = predicted_concentrate(&vl, from, to) + write;
                            assert_eq!(hc.ticks(), want, "{cost:?} {g:?} {axis:?} {from} {index}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn degraded_formula_collapses_to_healthy_at_load_factor_one() {
        for cost in [CostModel::unit(), CostModel::cm2()] {
            for (n, dim) in [(16usize, 4u32), (32, 6), (24, 4)] {
                let l = layout(n, dim);
                assert_eq!(
                    predicted_reduce_degraded(&l, 1),
                    predicted_reduce(&l, &cost),
                    "lf = 1 must be the healthy formula (n={n} dim={dim})"
                );
            }
        }
    }

    #[test]
    fn degraded_reduce_matches_formula_and_stays_bit_identical() {
        let cost = CostModel::unit();
        for (dead, dim, n) in [(vec![5usize], 4u32, 16usize), (vec![2, 6], 4, 24), (vec![1], 6, 32)]
        {
            let l = layout(n, dim);
            let gen = |i: usize, j: usize| ((i * 31 + j * 17) as f64).sin();

            let mut healthy = Hypercube::new(dim, cost);
            let m_h = DistMatrix::from_fn(l, gen);
            let want = primitives::reduce(&mut healthy, &m_h, Axis::Row, Sum).to_dense();

            let mut hc = Hypercube::new(dim, cost);
            let m_d = DistMatrix::from_fn(l, gen);
            let resident: Vec<usize> = (0..hc.p()).map(|n| m_d.locals().len_of(n)).collect();
            hc.degrade(&dead, &resident);
            assert!(hc.load_factor() >= 2, "dead set must actually concentrate");
            // Drop the one-off migration charge; the host map and load
            // factor survive reset, so what remains is the steady-state
            // degraded cost of the primitive itself.
            hc.reset();
            let got = primitives::reduce(&mut hc, &m_d, Axis::Row, Sum).to_dense();
            assert_eq!(got, want, "degraded reduce must stay bit-identical");

            let predicted = predicted_reduce_degraded(&l, hc.load_factor());
            assert_eq!(hc.ticks(), predicted, "dead={dead:?} dim={dim} n={n}");
        }
    }

    #[test]
    fn degraded_reduce_slowdown_is_compute_only() {
        // Degradation serializes co-hosted *compute*; the butterfly's
        // message supersteps are unchanged while every step keeps at
        // least one physical link. The formula therefore predicts a gap
        // of exactly (lf - 1) * (block + d_r * chunk) flops.
        let cost = CostModel::cm2();
        let l = layout(32, 6);
        let block = local_block(&l);
        let chunk = l.cols().max_count();
        let dr = l.grid().dr() as usize;
        for lf in [2usize, 3, 4] {
            let extra = Ticks::flops((lf - 1) * (block + dr * chunk));
            assert_eq!(
                predicted_reduce_degraded(&l, lf),
                predicted_reduce(&l, &cost) + extra,
                "lf={lf}"
            );
        }
    }

    #[test]
    fn optimal_regime_threshold() {
        assert!(in_optimal_regime(1025 * 10, 1024)); // m = 10250 > 1024*10
        assert!(!in_optimal_regime(1024 * 10, 1024)); // equality excluded
        assert!(in_optimal_regime(100, 1)); // lg 1 = 0
    }

    #[test]
    fn efficiency_approaches_constant_above_threshold() {
        // Claim 2: in the m > p lg p regime, p * T_par = O(T_serial).
        let cost = CostModel::cm2();
        let dim = 6u32;
        let p = 1usize << dim;
        let mut effs = Vec::new();
        for n in [8usize, 16, 32, 64, 128, 256, 512] {
            let l = layout(n, dim);
            let m = DistMatrix::from_fn(l, |i, j| (i + j) as f64);
            let mut hc = Hypercube::new(dim, cost);
            let _ = primitives::reduce(&mut hc, &m, Axis::Row, Sum);
            effs.push((n * n, efficiency(serial_reduce_us(n * n, &cost), p, hc.elapsed_us())));
        }
        // Efficiency grows with m and exceeds a healthy constant once
        // m > p lg p (= 384 for p = 64).
        for w in effs.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.99, "efficiency non-decreasing: {effs:?}");
        }
        // Deep in the optimal regime (m >> p lg p) efficiency reaches a
        // healthy constant; the CM-2 alpha/gamma ratio (~86) means the
        // crossover constant is large, so we check saturation at the top
        // of the sweep rather than right at the threshold.
        let (m_top, e_top) = *effs.last().expect("non-empty sweep");
        assert!(in_optimal_regime(m_top, p));
        assert!(e_top > 0.5, "constant-factor efficiency at m = {m_top}: {effs:?}");
    }

    #[test]
    fn parallel_time_tracks_lower_bound() {
        // Claim 3: T_par = O(m/p + lg p) — compare simulated time to the
        // lower bound across machine sizes at fixed m.
        let cost = CostModel::cm2();
        let n = 64usize;
        for dim in [2u32, 4, 6, 8] {
            let l = layout(n, dim);
            let m = DistMatrix::from_fn(l, |i, j| (i + j) as f64);
            let mut hc = Hypercube::new(dim, cost);
            let _ = primitives::reduce(&mut hc, &m, Axis::Row, Sum);
            let lb = lower_bound(n * n, 1 << dim, &cost);
            let ratio = hc.elapsed_us() / lb;
            assert!(
                ratio < 12.0,
                "dim {dim}: simulated {} vs lower bound {lb} (ratio {ratio:.1})",
                hc.elapsed_us()
            );
        }
    }
}

//! Parallel simplex — the paper's third application.
//!
//! The dense-tableau primal simplex, written in the primitive
//! vocabulary. Each pivot is:
//!
//! 1. `extract(Row, objective)` + an arg-min reduction — the entering
//!    column (Dantzig rule);
//! 2. `extract_replicated(Col, q)` and `extract_replicated(Col, rhs)` +
//!    an elementwise ratio and an arg-min reduction — the leaving row;
//! 3. `extract_replicated(Row, r)`, a scalar scale, `insert` — the pivot
//!    row normalisation;
//! 4. a local rank-1 update — the elimination.
//!
//! The pivot rule and the update arithmetic are shared with
//! [`crate::serial::simplex`]; both produce **bit-identical** iterates
//! (asserted by tests), so correctness of the parallel version reduces to
//! the serial oracle's.

use vmp_core::elem::{ArgMin, Loc, Sum};
use vmp_core::prelude::*;
use vmp_core::primitives;
use vmp_hypercube::machine::Hypercube;

use crate::serial::simplex::{GeneralLp, PivotRule, SimplexResult, SimplexStatus, StandardLp, EPS};

/// Build the distributed initial tableau for `lp`, cyclically laid out.
#[must_use]
pub fn build_tableau(lp: &StandardLp, grid: ProcGrid) -> DistMatrix<f64> {
    let t = lp.initial_tableau();
    let layout = MatrixLayout::cyclic(MatShape::new(t.rows(), t.cols()), grid);
    DistMatrix::from_fn(layout, |i, j| t.get(i, j))
}

/// Run the primal simplex on the machine (Dantzig rule).
#[must_use]
pub fn solve_parallel(
    hc: &mut Hypercube,
    lp: &StandardLp,
    grid: ProcGrid,
    max_iterations: usize,
) -> SimplexResult {
    solve_parallel_with(hc, lp, grid, max_iterations, PivotRule::Dantzig)
}

/// As [`solve_parallel`] with an explicit entering rule (Bland
/// guarantees termination on degenerate problems).
#[must_use]
pub fn solve_parallel_with(
    hc: &mut Hypercube,
    lp: &StandardLp,
    grid: ProcGrid,
    max_iterations: usize,
    rule: PivotRule,
) -> SimplexResult {
    let mut t = build_tableau(lp, grid);
    let (m, n) = (lp.m(), lp.n());
    let mut basis: Vec<usize> = (n..n + m).collect();
    let (status, iterations) =
        pivot_to_end(hc, &mut t, &mut basis, m, m, n + m, 0, max_iterations, rule);
    assemble(status, &t, &basis, lp, iterations)
}

/// The one pivot loop: pivots until optimal, unbounded, or
/// `max_iterations` pivots in all, counting the `done` already made.
/// The objective is row `obj_row`, entering columns are `j < n_allowed`
/// and the ratio test runs over rows `0..m`. Returns the status and the
/// total pivot count.
#[allow(clippy::too_many_arguments)]
fn pivot_to_end(
    hc: &mut Hypercube,
    t: &mut DistMatrix<f64>,
    basis: &mut [usize],
    m: usize,
    obj_row: usize,
    n_allowed: usize,
    mut done: usize,
    max_iterations: usize,
    rule: PivotRule,
) -> (SimplexStatus, usize) {
    while done < max_iterations {
        match pivot_once(hc, t, basis, m, obj_row, move |j| j < n_allowed, rule) {
            PivotOutcome::Optimal => return (SimplexStatus::Optimal, done),
            PivotOutcome::Unbounded => return (SimplexStatus::Unbounded, done),
            PivotOutcome::Pivoted(..) => done += 1,
        }
    }
    (SimplexStatus::MaxIterations, max_iterations)
}

/// Outcome of a single simplex pivot attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotOutcome {
    /// No eligible entering column — the current basis is optimal.
    Optimal,
    /// An entering column exists but no row limits it — unbounded.
    Unbounded,
    /// One pivot `(entering, leaving-row)` was performed.
    Pivoted(usize, usize),
}

/// Perform at most one simplex pivot on a distributed tableau — the
/// resumable unit of the solver. One run of `k` pivots and two runs of
/// `j` then `k - j` pivots over the same tableau produce bit-identical
/// iterates (each pivot depends only on the tableau and basis), so a
/// caller may drive the solver one pivot at a time.
pub fn pivot_once(
    hc: &mut Hypercube,
    t: &mut DistMatrix<f64>,
    basis: &mut [usize],
    m_constraints: usize,
    obj_row: usize,
    allowed: impl Fn(usize) -> bool + Copy,
    rule: PivotRule,
) -> PivotOutcome {
    let width = t.shape().cols;
    let rhs_col = width - 1;

    // 1. Entering column under the configured rule, masked to
    //    `allowed` (and never rhs).
    let objective = primitives::extract(hc, t, Axis::Row, obj_row);
    let chosen: Option<usize> = match rule {
        PivotRule::Dantzig => {
            let entering = objective.reduce_lifted(hc, ArgMin, move |j, v| {
                if j < rhs_col && allowed(j) {
                    Loc::new(v, j)
                } else {
                    Loc::new(f64::INFINITY, usize::MAX)
                }
            });
            if entering.index == usize::MAX || entering.value >= -EPS {
                None
            } else {
                Some(entering.index)
            }
        }
        PivotRule::Bland => {
            // Smallest eligible index: arg-min over the index itself.
            let entering = objective.reduce_lifted(hc, ArgMin, move |j, v| {
                if j < rhs_col && allowed(j) && v < -EPS {
                    Loc::new(j as f64, j)
                } else {
                    Loc::new(f64::INFINITY, usize::MAX)
                }
            });
            if entering.index == usize::MAX {
                None
            } else {
                Some(entering.index)
            }
        }
    };
    let Some(q) = chosen else {
        return PivotOutcome::Optimal;
    };

    // 2. Leaving row: minimum ratio over constraint rows with
    //    a_iq > EPS.
    let col_q = primitives::extract_replicated(hc, t, Axis::Col, q);
    let rhs = primitives::extract_replicated(hc, t, Axis::Col, rhs_col);
    let leaving = col_q.zip_reduce(hc, &rhs, ArgMin, move |i, c, b| {
        if i < m_constraints && c > EPS {
            Loc::new(b / c, i)
        } else {
            Loc::new(f64::MAX, usize::MAX)
        }
    });
    if leaving.index == usize::MAX {
        return PivotOutcome::Unbounded;
    }
    let r = leaving.index;

    // 3. Normalise the pivot row: a_rq as a masked-sum scalar, then
    //    scale and insert (the inserted row is replicated => local).
    let arq = col_q.reduce_lifted(hc, Sum, move |i, v| if i == r { v } else { 0.0 });
    let row_r = primitives::extract_replicated(hc, t, Axis::Row, r);
    let scaled = row_r.map(hc, move |_, v| v / arq);
    primitives::insert(hc, t, Axis::Row, r, &scaled);

    // 4. Eliminate column q from every other row. col_q still holds
    //    the pre-normalisation multipliers for rows != r.
    t.rank1_update(hc, &col_q, &scaled, move |i, _, a, c, s| if i == r { a } else { a - c * s });
    basis[r] = q;
    PivotOutcome::Pivoted(q, r)
}

/// Solve a general-form LP (`b` of any sign) with the two-phase method
/// on the machine. Bit-identical to
/// [`crate::serial::simplex::solve_general`].
#[must_use]
pub fn solve_general_parallel(
    hc: &mut Hypercube,
    lp: &GeneralLp,
    grid: ProcGrid,
    max_iterations: usize,
) -> SimplexResult {
    let (m, n) = (lp.m(), lp.n());
    let n_art = lp.negative_rows().len();
    let width = n + m + n_art + 1;
    let rhs_col = width - 1;

    let (host_t, mut basis) = lp.two_phase_tableau();
    let layout = MatrixLayout::cyclic(MatShape::new(m + 2, width), grid);
    let mut t = DistMatrix::from_fn(layout, |i, j| host_t.get(i, j));

    let mut used = 0usize;

    // Phase 1.
    let rule = PivotRule::Dantzig;
    if n_art > 0 {
        let (status, iterations) =
            pivot_to_end(hc, &mut t, &mut basis, m, m + 1, rhs_col, 0, max_iterations, rule);
        match status {
            SimplexStatus::Optimal => used = iterations,
            SimplexStatus::MaxIterations => {
                return assemble_general(status, &t, &basis, lp, iterations)
            }
            _ => unreachable!("phase-1 objective is bounded above by 0"),
        }
        // Infeasibility check: the w-row rhs (a single element read
        // through the primitive path).
        let w_row = primitives::extract(hc, &t, Axis::Row, m + 1);
        let w_value = w_row.reduce_lifted(hc, Sum, move |j, v| if j == rhs_col { v } else { 0.0 });
        if w_value < -EPS {
            return assemble_general(SimplexStatus::Infeasible, &t, &basis, lp, used);
        }
    }

    // Phase 2: artificials barred from entering; the budget counts both
    // phases.
    let (status, iterations) =
        pivot_to_end(hc, &mut t, &mut basis, m, m, n + m, used, max_iterations, rule);
    assemble_general(status, &t, &basis, lp, iterations)
}

fn assemble_general(
    status: SimplexStatus,
    t: &DistMatrix<f64>,
    basis: &[usize],
    lp: &GeneralLp,
    iterations: usize,
) -> SimplexResult {
    let n = lp.n();
    let rhs_col = t.shape().cols - 1;
    let mut x = vec![0.0; n];
    for (i, &var) in basis.iter().enumerate() {
        if var < n {
            x[var] = t.get(i, rhs_col); // host-side output read
        }
    }
    SimplexResult { status, objective: t.get(lp.m(), rhs_col), x, iterations }
}

fn assemble(
    status: SimplexStatus,
    t: &DistMatrix<f64>,
    basis: &[usize],
    lp: &StandardLp,
    iterations: usize,
) -> SimplexResult {
    let (m, n) = (lp.m(), lp.n());
    let rhs_col = n + m;
    let mut x = vec![0.0; n];
    for (i, &var) in basis.iter().enumerate() {
        if var < n {
            x[var] = t.get(i, rhs_col); // host-side output read
        }
    }
    SimplexResult { status, objective: t.get(m, rhs_col), x, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{simplex_solve, Dense};
    use crate::workloads;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;

    fn machine_and_grid(dim: u32) -> (Hypercube, ProcGrid) {
        (Hypercube::new(dim, CostModel::cm2()), ProcGrid::square(Cube::new(dim)))
    }

    #[test]
    fn textbook_lp_matches_serial_exactly() {
        let lp = StandardLp::new(
            Dense::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]]),
            vec![4.0, 12.0, 18.0],
            vec![3.0, 5.0],
        );
        let serial = simplex_solve(&lp, 100);
        let (mut hc, grid) = machine_and_grid(4);
        let parallel = solve_parallel(&mut hc, &lp, grid, 100);
        assert_eq!(parallel.status, SimplexStatus::Optimal);
        assert_eq!(parallel.iterations, serial.iterations);
        assert_eq!(parallel.objective, serial.objective, "bit-identical objective");
        assert_eq!(parallel.x, serial.x, "bit-identical solution");
    }

    #[test]
    fn random_lps_match_serial_bitwise() {
        for seed in 0..8u64 {
            let lp = workloads::random_dense_lp(7, 5, seed);
            let serial = simplex_solve(&lp, 500);
            let (mut hc, grid) = machine_and_grid(4);
            let parallel = solve_parallel(&mut hc, &lp, grid, 500);
            assert_eq!(parallel.status, serial.status, "seed {seed}");
            assert_eq!(parallel.iterations, serial.iterations, "seed {seed}");
            assert_eq!(parallel.objective, serial.objective, "seed {seed}");
            assert_eq!(parallel.x, serial.x, "seed {seed}");
        }
    }

    #[test]
    fn unbounded_detected_in_parallel() {
        let lp = StandardLp::new(Dense::from_rows(&[vec![-1.0, 1.0]]), vec![1.0], vec![1.0, 0.0]);
        let (mut hc, grid) = machine_and_grid(2);
        let r = solve_parallel(&mut hc, &lp, grid, 100);
        assert_eq!(r.status, SimplexStatus::Unbounded);
    }

    #[test]
    fn klee_minty_pivot_count_preserved() {
        let d = 5;
        let lp = workloads::klee_minty(d);
        let (mut hc, grid) = machine_and_grid(4);
        let r = solve_parallel(&mut hc, &lp, grid, 1 << (d + 2));
        assert_eq!(r.status, SimplexStatus::Optimal);
        assert_eq!(r.iterations, (1 << d) - 1, "Dantzig worst case survives parallelisation");
    }

    #[test]
    fn solution_is_identical_across_machine_sizes() {
        let lp = workloads::random_dense_lp(6, 6, 99);
        let mut results = Vec::new();
        for dim in [0u32, 2, 4, 5] {
            let (mut hc, grid) = machine_and_grid(dim);
            results.push(solve_parallel(&mut hc, &lp, grid, 500));
        }
        for r in &results[1..] {
            assert_eq!(r.x, results[0].x);
            assert_eq!(r.objective, results[0].objective);
            assert_eq!(r.iterations, results[0].iterations);
        }
    }

    #[test]
    fn bland_rule_reaches_the_same_optimum() {
        use crate::serial::simplex::solve_with_rule;
        for seed in 0..5u64 {
            let lp = workloads::random_dense_lp(8, 6, seed);
            let dantzig = simplex_solve(&lp, 2000);
            let bland_serial = solve_with_rule(&lp, 2000, PivotRule::Bland);
            let (mut hc, grid) = machine_and_grid(4);
            let bland_par = solve_parallel_with(&mut hc, &lp, grid, 2000, PivotRule::Bland);
            assert_eq!(bland_serial.status, SimplexStatus::Optimal, "seed {seed}");
            assert!(
                (bland_serial.objective - dantzig.objective).abs() < 1e-8,
                "seed {seed}: same optimum by either rule"
            );
            assert_eq!(bland_par.objective, bland_serial.objective, "seed {seed}: bitwise");
            assert_eq!(bland_par.x, bland_serial.x, "seed {seed}");
            assert_eq!(bland_par.iterations, bland_serial.iterations, "seed {seed}");
            assert!(
                bland_serial.iterations >= dantzig.iterations,
                "Bland typically takes more pivots"
            );
        }
    }

    #[test]
    fn two_phase_parallel_matches_serial_bitwise() {
        use crate::serial::simplex::{solve_general, GeneralLp};
        let cases: Vec<GeneralLp> = vec![
            // Feasible with negative rhs.
            GeneralLp::new(
                Dense::from_rows(&[vec![1.0, 1.0], vec![-1.0, -1.0], vec![1.0, 0.0]]),
                vec![8.0, -3.0, 5.0],
                vec![1.0, 1.0],
            ),
            // Equality-like band.
            GeneralLp::new(
                Dense::from_rows(&[vec![1.0, 2.0], vec![-1.0, -2.0]]),
                vec![2.0, -2.0],
                vec![3.0, 1.0],
            ),
            // Infeasible.
            GeneralLp::new(Dense::from_rows(&[vec![1.0], vec![-1.0]]), vec![1.0, -3.0], vec![1.0]),
            // Feasible then unbounded.
            GeneralLp::new(Dense::from_rows(&[vec![-1.0]]), vec![-2.0], vec![1.0]),
        ];
        for (k, lp) in cases.iter().enumerate() {
            let serial = solve_general(lp, 300);
            let (mut hc, grid) = machine_and_grid(4);
            let par = solve_general_parallel(&mut hc, lp, grid, 300);
            assert_eq!(par.status, serial.status, "case {k}");
            assert_eq!(par.iterations, serial.iterations, "case {k}");
            if par.status == SimplexStatus::Optimal {
                assert_eq!(par.objective, serial.objective, "case {k}");
                assert_eq!(par.x, serial.x, "case {k}");
                assert!(lp.is_feasible(&par.x, 1e-8), "case {k}");
            }
        }
    }

    /// Six random LPs made general: some constraints flipped to `>=`
    /// form by negating rows and rhs (keeps the same feasible set).
    fn mixed_sign_lps() -> Vec<GeneralLp> {
        (0..6u64)
            .map(|seed| {
                let base = workloads::random_dense_lp(6, 5, seed);
                let mut rows = Vec::new();
                let mut b = Vec::new();
                for i in 0..base.m() {
                    let flip = i % 3 == 1;
                    let row: Vec<f64> = (0..base.n())
                        .map(|j| if flip { -base.a.get(i, j) } else { base.a.get(i, j) })
                        .collect();
                    rows.push(row);
                    b.push(if flip { -0.5 } else { base.b[i] }); // some >= 0.5 lower bounds
                }
                GeneralLp::new(Dense::from_rows(&rows), b, base.c.clone())
            })
            .collect()
    }

    #[test]
    fn two_phase_random_mixed_sign_lps() {
        use crate::serial::simplex::solve_general;
        for (seed, g) in mixed_sign_lps().iter().enumerate() {
            let serial = solve_general(g, 1000);
            let (mut hc, grid) = machine_and_grid(3);
            let par = solve_general_parallel(&mut hc, g, grid, 1000);
            assert_eq!(par.status, serial.status, "seed {seed}");
            assert_eq!(par.objective, serial.objective, "seed {seed}");
            assert_eq!(par.x, serial.x, "seed {seed}");
        }
    }

    #[test]
    fn two_phase_iteration_budgets_match_serial() {
        use crate::serial::simplex::solve_general;
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut cases = 0;
        let mut exhausted = 0;
        for (seed, g) in mixed_sign_lps().iter().enumerate() {
            // Every budget from none to one past the pivots the solve
            // needs: exhaustion in phase 1, in phase 2, and enough.
            let pivots = solve_general(g, 1000).iterations;
            for budget in 0..=pivots + 1 {
                let serial = solve_general(g, budget);
                let (mut hc, grid) = machine_and_grid(3);
                let par = solve_general_parallel(&mut hc, g, grid, budget);
                let what = format!("seed {seed} budget {budget}");
                assert_eq!(par.status, serial.status, "{what}");
                assert_eq!(par.iterations, serial.iterations, "{what}");
                assert_eq!(par.objective.to_bits(), serial.objective.to_bits(), "{what}");
                assert_eq!(bits(&par.x), bits(&serial.x), "{what}");
                cases += 1;
                exhausted += usize::from(par.status == SimplexStatus::MaxIterations);
            }
        }
        assert_eq!(cases, 44);
        assert!(exhausted > 0 && exhausted < cases, "{exhausted} of {cases} ran out of budget");
    }

    #[test]
    fn feasibility_of_parallel_solutions() {
        for seed in [3u64, 14, 15] {
            let lp = workloads::random_dense_lp(9, 6, seed);
            let (mut hc, grid) = machine_and_grid(4);
            let r = solve_parallel(&mut hc, &lp, grid, 1000);
            assert_eq!(r.status, SimplexStatus::Optimal);
            assert!(lp.is_feasible(&r.x, 1e-7), "seed {seed}");
        }
    }
}

//! Chaos tests: every recoverable fault plan must be invisible in the
//! *results* — retries, detours and degradation change only the modeled
//! cost. Each test runs a workload twice, fault-free and under
//! injection, and compares outputs bit-for-bit while asserting the
//! recovery counters prove the faults actually fired.

// Proptest sweeps are far too slow under Miri's interpreter; the
// dedicated Miri CI job covers the library's unsafe/aliasing surface
// via the unit tests instead (see .github/workflows/ci.yml).
#![cfg(not(miri))]

use proptest::prelude::*;

use four_vmp::algos::{ge_solve, simplex, workloads};
use four_vmp::core::elem::Sum;
use four_vmp::core::primitives;
use four_vmp::hypercube::{Cube, FaultPlan};
use four_vmp::prelude::*;

/// The primitive chain whose outputs must survive any recoverable plan.
fn primitive_workload(hc: &mut Hypercube, rows: usize, cols: usize) -> Vec<Vec<f64>> {
    let grid = ProcGrid::square(hc.cube());
    let layout = MatrixLayout::cyclic(MatShape::new(rows, cols), grid);
    let m = DistMatrix::from_fn(layout, |i, j| ((i * 37 + j * 13) as f64).cos());
    let colsum = primitives::reduce(hc, &m, Axis::Row, Sum);
    let r = primitives::extract(hc, &m, Axis::Row, rows / 2);
    let mut m2 = m.clone();
    primitives::insert(hc, &mut m2, Axis::Row, 0, &r);
    let stacked = primitives::distribute(hc, &r, 3, Dist::Cyclic);
    let mut out = vec![colsum.to_dense(), r.to_dense()];
    out.extend(m2.to_dense());
    out.extend(stacked.to_dense());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite invariant: the resilient layer with an empty plan is
    /// bit-identical to the plain machine — same results, same modeled
    /// clock, same counters. Zero faults must cost exactly zero.
    #[test]
    fn zero_fault_resilient_layer_is_bitwise_free(
        dim in 0u32..=5,
        rows in 1usize..=17,
        cols in 1usize..=17,
        seed in 0u64..=1_000_000,
    ) {
        let mut plain = Hypercube::cm2(dim);
        let want = primitive_workload(&mut plain, rows, cols);

        let mut resilient = Hypercube::cm2(dim);
        resilient.install_faults(FaultPlan::none(seed));
        let got = primitive_workload(&mut resilient, rows, cols);

        prop_assert_eq!(got, want);
        prop_assert_eq!(resilient.elapsed_us().to_bits(), plain.elapsed_us().to_bits());
        prop_assert_eq!(*resilient.counters(), *plain.counters());
    }

    /// Any transient-drop plan is recoverable: results never change.
    #[test]
    fn transient_drops_never_change_results(
        dim in 1u32..=5,
        rows in 2usize..=13,
        cols in 1usize..=13,
        rate_pct in 0u32..=40,
        seed in 0u64..=1_000_000,
    ) {
        let mut plain = Hypercube::cm2(dim);
        let want = primitive_workload(&mut plain, rows, cols);

        let mut faulty = Hypercube::cm2(dim);
        let plan = FaultPlan::none(seed).with_drops(f64::from(rate_pct) / 100.0, 0, u64::MAX);
        faulty.install_faults(plan);
        let got = primitive_workload(&mut faulty, rows, cols);

        prop_assert_eq!(got, want);
        // Drops may only make the modeled run slower, never faster.
        prop_assert!(faulty.elapsed_us() >= plain.elapsed_us());
    }

    /// A dead link (and a dead node absorbed by degradation) is
    /// recoverable: detours and concentration change cost only.
    #[test]
    fn dead_links_and_nodes_never_change_results(
        dim in 2u32..=5,
        rows in 2usize..=13,
        link_bit in 0u32..=4,
        dead_node in 1usize..=7,
        seed in 0u64..=1_000_000,
    ) {
        let cols = rows;
        let mut plain = Hypercube::cm2(dim);
        let want = primitive_workload(&mut plain, rows, cols);

        let bit = link_bit % dim;
        let mut faulty = Hypercube::cm2(dim);
        faulty.install_faults(
            FaultPlan::none(seed).with_link_fault(0, 1 << bit, 0)
        );
        let node = dead_node % (1 << dim);
        if node != 0 {
            let resident = vec![1usize; faulty.p()];
            faulty.degrade(&[node], &resident);
        }
        let got = primitive_workload(&mut faulty, rows, cols);
        prop_assert_eq!(got, want);
    }
}

#[test]
fn ge_solve_is_bit_identical_under_heavy_chaos() {
    let n = 18;
    let a = workloads::pivot_stress_matrix(n, 7);
    let x_true: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();
    let b = a.matvec(&x_true);

    let mut plain = Hypercube::cm2(4);
    let (x0, stats0) =
        ge_solve(&mut plain, &a, &b, ProcGrid::square(Cube::new(4))).expect("nonsingular");

    let mut faulty = Hypercube::cm2(4);
    faulty.install_faults(
        FaultPlan::none(42).with_drops(0.25, 0, u64::MAX).with_link_fault(2, 3, 100),
    );
    let (x, stats) =
        ge_solve(&mut faulty, &a, &b, ProcGrid::square(Cube::new(4))).expect("nonsingular");

    assert_eq!(x, x0, "chaos must not change the solution bits");
    assert_eq!(stats, stats0);
    let c = faulty.counters();
    assert!(c.transient_drops > 0, "the drop schedule must actually fire");
    assert!(c.retries > 0, "drops must be retried");
    assert!(c.reroutes > 0, "the dead link must force detours");
    assert!(faulty.elapsed_us() > plain.elapsed_us(), "recovery costs modeled time");
}

#[test]
fn simplex_is_bit_identical_under_heavy_chaos() {
    let lp = workloads::random_dense_lp(8, 6, 11);
    let mut plain = Hypercube::cm2(4);
    let want = simplex::solve_parallel(&mut plain, &lp, ProcGrid::square(Cube::new(4)), 500);

    let mut faulty = Hypercube::cm2(4);
    faulty.install_faults(FaultPlan::none(7).with_drops(0.3, 0, u64::MAX));
    let got = simplex::solve_parallel(&mut faulty, &lp, ProcGrid::square(Cube::new(4)), 500);

    assert_eq!(got.status, want.status);
    assert_eq!(got.iterations, want.iterations);
    assert_eq!(got.objective, want.objective, "bit-identical objective under chaos");
    assert_eq!(got.x, want.x, "bit-identical solution under chaos");
    assert!(faulty.counters().retries > 0, "faults must have fired");
}

//! The four primitives on a machine degraded by node failures: the
//! logical cube never changes, only the machine's host map does, so every
//! result stays bit-identical at reduced capacity.

use vmp_core::prelude::*;

type Results = (Vec<f64>, Vec<f64>, Vec<Vec<f64>>, Vec<Vec<f64>>);

fn machine(dim: u32) -> Hypercube {
    Hypercube::new(dim, CostModel::unit())
}

fn sample_matrix(hc: &Hypercube) -> DistMatrix<f64> {
    let layout = MatrixLayout::new(
        MatShape::new(9, 7),
        ProcGrid::square(hc.cube()),
        Dist::Cyclic,
        Dist::Cyclic,
    );
    DistMatrix::from_fn(layout, |i, j| ((i * 31 + j * 17) as f64).sin())
}

/// Per-node resident element counts of `m`.
fn resident(m: &DistMatrix<f64>) -> Vec<usize> {
    (0..m.layout().grid().p()).map(|node| m.layout().local_len(node)).collect()
}

/// The workload whose results must survive degradation bit-exactly:
/// all four primitives, chained.
fn run_primitives(hc: &mut Hypercube, m: &DistMatrix<f64>) -> Results {
    let colsum = reduce(hc, m, Axis::Row, Sum);
    let row3 = extract(hc, m, Axis::Row, 3);
    let mut m2 = m.clone();
    insert(hc, &mut m2, Axis::Row, 1, &row3);
    let stacked = distribute(hc, &row3, 4, Dist::Cyclic);
    (colsum.to_dense(), row3.to_dense(), m2.to_dense(), stacked.to_dense())
}

#[test]
fn primitives_bit_identical_under_degradation() {
    let mut healthy = machine(4);
    let m_h = sample_matrix(&healthy);
    let want = run_primitives(&mut healthy, &m_h);

    let mut degraded = machine(4);
    let m_d = sample_matrix(&degraded);
    degraded.degrade(&[5], &resident(&m_d));
    assert_eq!(degraded.load_factor(), 2);
    let got = run_primitives(&mut degraded, &m_d);

    assert_eq!(want, got, "degraded run must be bit-identical");
    assert_eq!(degraded.counters().node_remaps, 1);
    assert!(degraded.counters().migrated_elements > 0, "node 5 held data");
    // The doubled-up host serializes compute: strictly slower.
    assert!(degraded.elapsed_us() > healthy.elapsed_us());
}

#[test]
fn migration_volume_matches_dead_nodes_blocks() {
    let mut hc = machine(3);
    let m = sample_matrix(&hc);
    let sizes = resident(&m);
    let expect: u64 = (sizes[2] + sizes[6]) as u64;
    hc.degrade(&[2, 6], &sizes);
    assert_eq!(hc.counters().migrated_elements, expect);
    assert_eq!(hc.counters().node_remaps, 2);
}

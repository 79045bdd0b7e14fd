//! Shared setup for the reproduction experiments.

use serde::Serialize;
use vmp_core::prelude::*;
use vmp_hypercube::topology::Cube;

/// The CM-2-flavoured machine used throughout the reproduction.
#[must_use]
pub fn cm2(dim: u32) -> Hypercube {
    Hypercube::new(dim, CostModel::cm2())
}

/// The squarest grid on a `dim`-cube.
#[must_use]
pub fn square_grid(dim: u32) -> ProcGrid {
    ProcGrid::square(Cube::new(dim))
}

/// A deterministic pseudo-random `n x n` distributed matrix (cyclic
/// layout) — cheap hash-based entries, no RNG state.
#[must_use]
pub fn random_dist_matrix(n: usize, grid: ProcGrid) -> DistMatrix<f64> {
    let layout = MatrixLayout::cyclic(MatShape::new(n, n), grid);
    DistMatrix::from_fn(layout, hash_entry)
}

/// A deterministic replicated, axis-aligned vector matching `m`'s
/// distribution along `axis`.
#[must_use]
pub fn random_aligned_vector(m: &DistMatrix<f64>, axis: Axis) -> DistVector<f64> {
    let layout = VectorLayout::aligned(
        m.shape().vector_len(axis),
        m.layout().grid().clone(),
        axis,
        Placement::Replicated,
        m.layout().vector_dist(axis).kind(),
    );
    DistVector::from_fn(layout, |i| hash_entry(i, 17))
}

/// A cheap deterministic value in roughly `[-1, 1]`.
#[must_use]
pub fn hash_entry(i: usize, j: usize) -> f64 {
    let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Write `value` as pretty-printed JSON to `path` (relative to the
/// working directory) and return the table note saying so. Every
/// `BENCH_*.json` artifact is a golden file that CI regenerates and
/// diffs, so a failed write panics rather than leaving a stale file.
pub fn write_artifact<T: Serialize>(path: &str, value: &T) -> String {
    let json = serde_json::to_string_pretty(value).expect("serialisable artifact");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    format!("wrote {path}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_entry_is_deterministic_and_bounded() {
        assert_eq!(hash_entry(3, 4), hash_entry(3, 4));
        assert_ne!(hash_entry(3, 4), hash_entry(4, 3));
        for i in 0..50 {
            for j in 0..50 {
                let v = hash_entry(i, j);
                assert!((-1.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn setup_helpers_compose() {
        let hc = cm2(4);
        let g = square_grid(4);
        let m = random_dist_matrix(8, g);
        m.assert_consistent();
        let v = random_aligned_vector(&m, Axis::Row);
        v.assert_consistent();
        assert_eq!(v.n(), 8);
        assert_eq!(hc.p(), 16);
    }
}

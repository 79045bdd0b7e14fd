//! Checkpoint/restart for the long-running solvers.
//!
//! A checkpoint is a host-side snapshot of everything a solver's next
//! step depends on: the exact distributed-matrix contents (bit-for-bit
//! `f64`s, serialised via [`f64::to_bits`]) plus the scalar progress
//! state (next column / basis / iteration count). Because both solvers
//! advance by steps that depend only on that state —
//! [`crate::gauss::forward_eliminate_range`] per column,
//! [`crate::simplex::pivot_once`] per pivot — a run that is interrupted
//! and resumed from a checkpoint produces **bit-identical** results to
//! an uninterrupted run (asserted by the tests here and by the chaos
//! suite).
//!
//! Snapshots serialise to a self-describing little-endian byte format
//! (`to_bytes`/`from_bytes`) so they can cross a process boundary; no
//! serialisation framework is involved.

use vmp_core::prelude::*;
use vmp_hypercube::machine::Hypercube;

use crate::gauss::{forward_eliminate_range, GeError, GeStats};
use crate::serial::simplex::{PivotRule, SimplexResult, StandardLp};
use crate::simplex::{assemble, pivot_to_end};

const MAGIC: u32 = 0x564d_5043; // "VMPC"
const VERSION: u16 = 1;
const KIND_GE: u8 = 1;
const KIND_SIMPLEX: u8 = 2;

/// Why a checkpoint byte string failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// Bad magic number or unsupported version.
    BadHeader,
    /// Header announces a different snapshot kind.
    WrongKind,
    /// Byte string too short or internally inconsistent.
    Truncated,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadHeader => write!(f, "bad checkpoint header"),
            CheckpointError::WrongKind => write!(f, "checkpoint is of a different kind"),
            CheckpointError::Truncated => write!(f, "checkpoint bytes truncated or inconsistent"),
        }
    }
}

impl std::error::Error for CheckpointError {}

// --- little-endian codec helpers -------------------------------------

struct Writer(Vec<u8>);

impl Writer {
    fn new(kind: u8) -> Self {
        let mut w = Writer(Vec::new());
        w.u32(MAGIC);
        w.u16(VERSION);
        w.0.push(kind);
        w
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn usize_(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.usize_(vs.len());
        for &v in vs {
            self.u64(v.to_bits());
        }
    }
    fn usizes(&mut self, vs: &[usize]) {
        self.usize_(vs.len());
        for &v in vs {
            self.usize_(v);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], kind: u8) -> Result<Self, CheckpointError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.u32()? != MAGIC || r.u16()? != VERSION {
            return Err(CheckpointError::BadHeader);
        }
        if r.u8()? != kind {
            return Err(CheckpointError::WrongKind);
        }
        Ok(r)
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    /// A fixed-size little-endian field; `take` already bounds-checked,
    /// so a length mismatch decodes as a truncation error rather than a
    /// panic (vmplint rule P1 keeps this path unwrap-free).
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        self.take(N)?.try_into().map_err(|_| CheckpointError::Truncated)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn usize_(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Truncated)
    }
    fn f64s(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.usize_()?;
        if n > self.bytes.len() / 8 {
            return Err(CheckpointError::Truncated);
        }
        (0..n).map(|_| Ok(f64::from_bits(self.u64()?))).collect()
    }
    fn usizes(&mut self) -> Result<Vec<usize>, CheckpointError> {
        let n = self.usize_()?;
        if n > self.bytes.len() / 8 {
            return Err(CheckpointError::Truncated);
        }
        (0..n).map(|_| self.usize_()).collect()
    }
    fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CheckpointError::Truncated)
        }
    }
}

// --- Gaussian elimination --------------------------------------------

/// A forward-elimination snapshot: the augmented matrix after columns
/// `0..next_col` are eliminated, plus the statistics so far.
#[derive(Debug, Clone, PartialEq)]
pub struct GeCheckpoint {
    /// Next column to eliminate.
    pub next_col: usize,
    /// Row interchanges performed so far.
    pub row_swaps: usize,
    /// Augmented-matrix row count `n`.
    pub rows: usize,
    /// Augmented-matrix column count (`> n`).
    pub cols: usize,
    /// Row-major dense snapshot (`rows * cols` exact `f64`s).
    pub data: Vec<f64>,
}

impl GeCheckpoint {
    /// Snapshot `aug` with `next_col` columns still to eliminate.
    #[must_use]
    pub fn capture(aug: &DistMatrix<f64>, next_col: usize, stats: GeStats) -> Self {
        let shape = aug.shape();
        let data = aug.to_dense().into_iter().flatten().collect();
        GeCheckpoint {
            next_col,
            row_swaps: stats.row_swaps,
            rows: shape.rows,
            cols: shape.cols,
            data,
        }
    }

    /// Rebuild the distributed matrix (cyclic on `grid`, as the GE
    /// drivers lay it out) and the statistics accumulated so far.
    #[must_use]
    pub fn restore(&self, grid: ProcGrid) -> (DistMatrix<f64>, GeStats) {
        let layout = MatrixLayout::cyclic(MatShape::new(self.rows, self.cols), grid);
        let cols = self.cols;
        let aug = DistMatrix::from_fn(layout, |i, j| self.data[i * cols + j]);
        (aug, GeStats { row_swaps: self.row_swaps })
    }

    /// Serialise to the self-describing byte format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_GE);
        w.usize_(self.next_col);
        w.usize_(self.row_swaps);
        w.usize_(self.rows);
        w.usize_(self.cols);
        w.f64s(&self.data);
        w.0
    }

    /// Decode from bytes produced by [`GeCheckpoint::to_bytes`].
    ///
    /// # Errors
    /// [`CheckpointError`] on a malformed or non-GE byte string.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes, KIND_GE)?;
        let ck = GeCheckpoint {
            next_col: r.usize_()?,
            row_swaps: r.usize_()?,
            rows: r.usize_()?,
            cols: r.usize_()?,
            data: r.f64s()?,
        };
        if ck.data.len() != ck.rows * ck.cols || ck.next_col > ck.rows {
            return Err(CheckpointError::Truncated);
        }
        r.finish()?;
        Ok(ck)
    }
}

/// Forward elimination that emits a checkpoint every `every` columns.
/// The final state is *not* emitted as a checkpoint (the caller has the
/// finished matrix); `sink` sees snapshots strictly mid-run.
///
/// The emitted snapshots are host-side copies and charge nothing — the
/// cost model prices the machine, not the host's stable store.
///
/// # Errors
/// [`GeError::Singular`] if a pivot column is numerically zero.
///
/// # Panics
/// Panics if `every` is zero.
pub fn forward_eliminate_checkpointed(
    hc: &mut Hypercube,
    aug: &mut DistMatrix<f64>,
    every: usize,
    mut sink: impl FnMut(&GeCheckpoint),
) -> Result<GeStats, GeError> {
    assert!(every > 0, "checkpoint interval must be positive");
    let n = aug.shape().rows;
    let mut stats = GeStats::default();
    let mut k = 0;
    while k < n {
        let end = (k + every).min(n);
        forward_eliminate_range(hc, aug, k, end, &mut stats)?;
        if end < n {
            sink(&GeCheckpoint::capture(aug, end, stats));
        }
        k = end;
    }
    Ok(stats)
}

/// Resume forward elimination from a checkpoint on a fresh machine:
/// rebuild the distributed matrix and eliminate the remaining columns.
/// The result is bit-identical to the uninterrupted run's.
///
/// # Errors
/// [`GeError::Singular`] if a remaining pivot column is numerically zero.
pub fn resume_forward_eliminate(
    hc: &mut Hypercube,
    ck: &GeCheckpoint,
    grid: ProcGrid,
) -> Result<(DistMatrix<f64>, GeStats), GeError> {
    let (mut aug, mut stats) = ck.restore(grid);
    forward_eliminate_range(hc, &mut aug, ck.next_col, ck.rows, &mut stats)?;
    Ok((aug, stats))
}

// --- simplex ---------------------------------------------------------

/// A simplex snapshot taken between pivots: the tableau, the basis, and
/// the pivot count so far.
#[derive(Debug, Clone, PartialEq)]
pub struct SimplexCheckpoint {
    /// Pivots performed so far.
    pub iterations: usize,
    /// Entering-variable rule the run uses (a resumed run must keep it).
    pub rule: PivotRule,
    /// Basic variable per constraint row.
    pub basis: Vec<usize>,
    /// Tableau row count (`m + 1`).
    pub rows: usize,
    /// Tableau column count (`n + m + 1`).
    pub cols: usize,
    /// Row-major dense tableau snapshot (exact `f64`s).
    pub data: Vec<f64>,
}

impl SimplexCheckpoint {
    /// Snapshot tableau `t` after `iterations` pivots.
    #[must_use]
    pub fn capture(
        t: &DistMatrix<f64>,
        basis: &[usize],
        iterations: usize,
        rule: PivotRule,
    ) -> Self {
        let shape = t.shape();
        SimplexCheckpoint {
            iterations,
            rule,
            basis: basis.to_vec(),
            rows: shape.rows,
            cols: shape.cols,
            data: t.to_dense().into_iter().flatten().collect(),
        }
    }

    /// Rebuild the distributed tableau (cyclic on `grid`).
    #[must_use]
    pub fn restore(&self, grid: ProcGrid) -> DistMatrix<f64> {
        let layout = MatrixLayout::cyclic(MatShape::new(self.rows, self.cols), grid);
        let cols = self.cols;
        DistMatrix::from_fn(layout, |i, j| self.data[i * cols + j])
    }

    /// Serialise to the self-describing byte format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_SIMPLEX);
        w.usize_(self.iterations);
        w.0.push(match self.rule {
            PivotRule::Dantzig => 0,
            PivotRule::Bland => 1,
        });
        w.usizes(&self.basis);
        w.usize_(self.rows);
        w.usize_(self.cols);
        w.f64s(&self.data);
        w.0
    }

    /// Decode from bytes produced by [`SimplexCheckpoint::to_bytes`].
    ///
    /// # Errors
    /// [`CheckpointError`] on a malformed or non-simplex byte string.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes, KIND_SIMPLEX)?;
        let iterations = r.usize_()?;
        let rule = match r.u8()? {
            0 => PivotRule::Dantzig,
            1 => PivotRule::Bland,
            _ => return Err(CheckpointError::Truncated),
        };
        let ck = SimplexCheckpoint {
            iterations,
            rule,
            basis: r.usizes()?,
            rows: r.usize_()?,
            cols: r.usize_()?,
            data: r.f64s()?,
        };
        if ck.data.len() != ck.rows * ck.cols || ck.basis.len() + 1 != ck.rows {
            return Err(CheckpointError::Truncated);
        }
        r.finish()?;
        Ok(ck)
    }
}

/// As [`crate::simplex::solve_parallel_with`], emitting a checkpoint to
/// `sink` after every pivot. Checkpoints are host-side copies and charge
/// nothing. The returned result is bit-identical to the plain solver's.
#[must_use]
pub fn solve_parallel_checkpointed(
    hc: &mut Hypercube,
    lp: &StandardLp,
    grid: ProcGrid,
    max_iterations: usize,
    rule: PivotRule,
    mut sink: impl FnMut(&SimplexCheckpoint),
) -> SimplexResult {
    let mut t = crate::simplex::build_tableau(lp, grid);
    let (m, n) = (lp.m(), lp.n());
    let mut basis: Vec<usize> = (n..n + m).collect();
    let mut capture = |t: &DistMatrix<f64>, basis: &[usize], done| {
        sink(&SimplexCheckpoint::capture(t, basis, done, rule));
    };
    let (status, iterations) =
        pivot_to_end(hc, &mut t, &mut basis, m, m, n + m, 0, max_iterations, rule, &mut capture);
    assemble(status, &t, &basis, lp, iterations)
}

/// Resume a simplex run from a checkpoint on a fresh machine. The final
/// result (status, objective, solution, total pivot count) is
/// bit-identical to the uninterrupted run's.
#[must_use]
pub fn resume_solve_parallel(
    hc: &mut Hypercube,
    lp: &StandardLp,
    grid: ProcGrid,
    ck: &SimplexCheckpoint,
    max_iterations: usize,
) -> SimplexResult {
    let (m, n) = (lp.m(), lp.n());
    assert_eq!(ck.basis.len(), m, "checkpoint is for a different LP shape");
    assert_eq!(ck.cols, n + m + 1, "checkpoint is for a different LP shape");
    let mut t = ck.restore(grid);
    let mut basis = ck.basis.clone();
    let (status, iterations) = pivot_to_end(
        hc,
        &mut t,
        &mut basis,
        m,
        m,
        n + m,
        ck.iterations,
        max_iterations,
        ck.rule,
        &mut |_, _, _| {},
    );
    assemble(status, &t, &basis, lp, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss::{build_augmented, forward_eliminate};
    use crate::serial::simplex::SimplexStatus;
    use crate::simplex::solve_parallel_with;
    use crate::workloads;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;

    fn machine_and_grid(dim: u32) -> (Hypercube, ProcGrid) {
        (Hypercube::new(dim, CostModel::cm2()), ProcGrid::square(Cube::new(dim)))
    }

    #[test]
    fn ge_restart_is_bit_identical_from_every_checkpoint() {
        let n = 13;
        let a = workloads::pivot_stress_matrix(n, 3);
        let b = workloads::random_vector(n, 4);

        // Uninterrupted reference.
        let (mut hc_ref, grid_ref) = machine_and_grid(4);
        let mut aug_ref = build_augmented(&a, &b, grid_ref);
        let stats_ref = forward_eliminate(&mut hc_ref, &mut aug_ref).expect("nonsingular");
        let dense_ref = aug_ref.to_dense();

        // Checkpointed run, every 3 columns.
        let mut cks: Vec<Vec<u8>> = Vec::new();
        let (mut hc, grid) = machine_and_grid(4);
        let mut aug = build_augmented(&a, &b, grid);
        let stats =
            forward_eliminate_checkpointed(&mut hc, &mut aug, 3, |ck| cks.push(ck.to_bytes()))
                .expect("nonsingular");
        assert_eq!(aug.to_dense(), dense_ref, "checkpointing must not perturb the run");
        assert_eq!(stats, stats_ref);
        assert_eq!(cks.len(), (n - 1) / 3, "mid-run snapshots only");

        // Restart from every snapshot, through the byte codec, on a
        // fresh machine — all must land on the reference bits.
        for bytes in &cks {
            let ck = GeCheckpoint::from_bytes(bytes).expect("round trip");
            let (mut hc2, grid2) = machine_and_grid(4);
            let (aug2, stats2) =
                resume_forward_eliminate(&mut hc2, &ck, grid2).expect("nonsingular");
            assert_eq!(aug2.to_dense(), dense_ref, "restart from col {}", ck.next_col);
            assert_eq!(stats2, stats_ref, "restart from col {}", ck.next_col);
        }
    }

    #[test]
    fn ge_restart_works_on_a_different_machine_size() {
        // The snapshot is machine-independent: resume on a smaller cube.
        let n = 10;
        let (a, b, _) = workloads::diag_dominant_system(n, 5);
        let (mut hc_ref, grid_ref) = machine_and_grid(4);
        let mut aug_ref = build_augmented(&a, &b, grid_ref);
        forward_eliminate(&mut hc_ref, &mut aug_ref).expect("nonsingular");

        let mut cks = Vec::new();
        let (mut hc, grid) = machine_and_grid(4);
        let mut aug = build_augmented(&a, &b, grid);
        forward_eliminate_checkpointed(&mut hc, &mut aug, 4, |ck| cks.push(ck.clone()))
            .expect("nonsingular");
        let (mut hc2, grid2) = machine_and_grid(2);
        let (aug2, _) = resume_forward_eliminate(&mut hc2, &cks[0], grid2).expect("nonsingular");
        assert_eq!(aug2.to_dense(), aug_ref.to_dense());
    }

    #[test]
    fn simplex_restart_is_bit_identical_from_every_pivot() {
        let lp = workloads::random_dense_lp(7, 5, 2);
        let (mut hc_ref, grid_ref) = machine_and_grid(4);
        let reference = solve_parallel_with(&mut hc_ref, &lp, grid_ref, 500, PivotRule::Dantzig);
        assert_eq!(reference.status, SimplexStatus::Optimal);

        let mut cks: Vec<Vec<u8>> = Vec::new();
        let (mut hc, grid) = machine_and_grid(4);
        let checkpointed =
            solve_parallel_checkpointed(&mut hc, &lp, grid, 500, PivotRule::Dantzig, |ck| {
                cks.push(ck.to_bytes())
            });
        assert_eq!(checkpointed.x, reference.x, "checkpointing must not perturb the run");
        assert_eq!(checkpointed.objective, reference.objective);
        assert_eq!(checkpointed.iterations, reference.iterations);
        // One snapshot per completed pivot (the last one resumes to an
        // immediate optimality detection).
        assert_eq!(cks.len(), reference.iterations);

        for bytes in &cks {
            let ck = SimplexCheckpoint::from_bytes(bytes).expect("round trip");
            let (mut hc2, grid2) = machine_and_grid(4);
            let resumed = resume_solve_parallel(&mut hc2, &lp, grid2, &ck, 500);
            assert_eq!(resumed.status, reference.status, "pivot {}", ck.iterations);
            assert_eq!(resumed.objective, reference.objective, "pivot {}", ck.iterations);
            assert_eq!(resumed.x, reference.x, "pivot {}", ck.iterations);
            assert_eq!(resumed.iterations, reference.iterations, "pivot {}", ck.iterations);
        }
    }

    #[test]
    fn codec_rejects_garbage_and_cross_kind_bytes() {
        let lp = workloads::random_dense_lp(4, 3, 1);
        let (mut hc, grid) = machine_and_grid(2);
        let mut simplex_bytes = Vec::new();
        let _ = solve_parallel_checkpointed(&mut hc, &lp, grid, 100, PivotRule::Dantzig, |ck| {
            simplex_bytes.push(ck.to_bytes());
        });
        assert!(!simplex_bytes.is_empty(), "LP must take at least two pivots");

        // Cross-kind: simplex bytes are not a GE checkpoint.
        assert_eq!(GeCheckpoint::from_bytes(&simplex_bytes[0]), Err(CheckpointError::WrongKind));
        // Garbage and truncation.
        assert_eq!(SimplexCheckpoint::from_bytes(b"no"), Err(CheckpointError::Truncated));
        assert_eq!(SimplexCheckpoint::from_bytes(b"nope"), Err(CheckpointError::BadHeader));
        assert_eq!(SimplexCheckpoint::from_bytes(&[0u8; 32]), Err(CheckpointError::BadHeader));
        let cut = &simplex_bytes[0][..simplex_bytes[0].len() - 3];
        assert_eq!(SimplexCheckpoint::from_bytes(cut), Err(CheckpointError::Truncated));

        // Round trip is the identity.
        let ck = SimplexCheckpoint::from_bytes(&simplex_bytes[0]).unwrap();
        assert_eq!(SimplexCheckpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }
}

//! Axes and shapes for dense matrices and vectors.

/// Which way a vector-matrix primitive is oriented.
///
/// The convention follows the operand/result: `Axis::Row` means the
/// vector involved is a *row vector* (length = number of matrix columns) —
/// `extract(M, Row, i)` pulls out row `i`, `reduce(M, Row, +)` adds all
/// rows together into one row, `distribute(v, Row, r)` stacks `r` copies
/// of the row `v`. `Axis::Col` is the transposed family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Row-vector orientation (vectors have length `cols`).
    Row,
    /// Column-vector orientation (vectors have length `rows`).
    Col,
}

impl Axis {
    /// The other axis.
    #[must_use]
    pub fn transpose(self) -> Axis {
        match self {
            Axis::Row => Axis::Col,
            Axis::Col => Axis::Row,
        }
    }
}

/// The shape of a dense matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatShape {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl MatShape {
    /// Construct a shape.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        MatShape { rows, cols }
    }

    /// Total element count `m = rows * cols` — the paper's `m`.
    #[must_use]
    pub fn elements(self) -> usize {
        self.rows * self.cols
    }

    /// Length of a vector oriented along `axis` with respect to this shape.
    #[must_use]
    pub fn vector_len(self, axis: Axis) -> usize {
        match axis {
            Axis::Row => self.cols,
            Axis::Col => self.rows,
        }
    }

    /// Number of vectors stacked along `axis` (rows for `Row`, cols for
    /// `Col`).
    #[must_use]
    pub fn vector_count(self, axis: Axis) -> usize {
        match axis {
            Axis::Row => self.rows,
            Axis::Col => self.cols,
        }
    }

    /// The transposed shape.
    #[must_use]
    pub fn transpose(self) -> MatShape {
        MatShape { rows: self.cols, cols: self.rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_transpose_is_involution() {
        assert_eq!(Axis::Row.transpose(), Axis::Col);
        assert_eq!(Axis::Col.transpose(), Axis::Row);
        assert_eq!(Axis::Row.transpose().transpose(), Axis::Row);
    }

    #[test]
    fn shape_accessors() {
        let s = MatShape::new(3, 5);
        assert_eq!(s.elements(), 15);
        assert_eq!(s.vector_len(Axis::Row), 5);
        assert_eq!(s.vector_len(Axis::Col), 3);
        assert_eq!(s.vector_count(Axis::Row), 3);
        assert_eq!(s.vector_count(Axis::Col), 5);
        assert_eq!(s.transpose(), MatShape::new(5, 3));
    }
}

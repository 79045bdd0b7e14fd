//! Element types and reduction operators.
//!
//! The primitives are generic over the element type (the CM implementation
//! handled fixed- and floating-point fields of any width) and over the
//! combining operator of `reduce`. Operators are small `Copy` structs
//! implementing [`ReduceOp`]; the indexed variants ([`ArgMin`],
//! [`ArgMaxAbs`]) reduce `(value, index)` pairs and are what
//! Gaussian elimination (pivot search) and simplex (entering-variable and
//! ratio test) consume.

/// Element types storable in distributed matrices and vectors.
pub trait Scalar: Copy + PartialEq + std::fmt::Debug + 'static {}

impl<T: Copy + PartialEq + std::fmt::Debug + 'static> Scalar for T {}

/// Numeric scalars with the arithmetic the primitives and algorithms use.
pub trait Numeric:
    Scalar
    + PartialOrd
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Least value (identity of max).
    const MIN_VALUE: Self;
    /// Greatest value (identity of min).
    const MAX_VALUE: Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Lossy conversion from f64 (for generic test/workload code).
    fn from_f64(x: f64) -> Self;
    /// Lossy conversion to f64.
    fn to_f64(self) -> f64;
}

macro_rules! impl_numeric_float {
    ($t:ty) => {
        impl Numeric for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const MIN_VALUE: Self = <$t>::NEG_INFINITY;
            const MAX_VALUE: Self = <$t>::INFINITY;
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    };
}

macro_rules! impl_numeric_int {
    ($t:ty) => {
        impl Numeric for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    };
}

impl_numeric_float!(f32);
impl_numeric_float!(f64);
impl_numeric_int!(i32);
impl_numeric_int!(i64);

/// A commutative, associative combining operator with identity, as
/// required by `reduce`.
pub trait ReduceOp<T>: Copy {
    /// The identity element (`combine(identity, x) == x`).
    fn identity(&self) -> T;
    /// Combine two values.
    fn combine(&self, a: T, b: T) -> T;
}

/// Elementwise sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum;

impl<T: Numeric> ReduceOp<T> for Sum {
    fn identity(&self) -> T {
        T::ZERO
    }
    fn combine(&self, a: T, b: T) -> T {
        a + b
    }
}

// Counting (enumerate/pack) sums `usize` indices, which is not a
// `Numeric` (no signed ops); give `Sum` a direct instance.
impl ReduceOp<usize> for Sum {
    fn identity(&self) -> usize {
        0
    }
    fn combine(&self, a: usize, b: usize) -> usize {
        a + b
    }
}

/// Elementwise maximum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Max;

impl<T: Numeric> ReduceOp<T> for Max {
    fn identity(&self) -> T {
        T::MIN_VALUE
    }
    fn combine(&self, a: T, b: T) -> T {
        if b > a {
            b
        } else {
            a
        }
    }
}

/// Elementwise minimum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Min;

impl<T: Numeric> ReduceOp<T> for Min {
    fn identity(&self) -> T {
        T::MAX_VALUE
    }
    fn combine(&self, a: T, b: T) -> T {
        if b < a {
            b
        } else {
            a
        }
    }
}

/// A value paired with the global index it came from, for indexed
/// (location-returning) reductions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Loc<T> {
    /// The value.
    pub value: T,
    /// Its global index (row or column number).
    pub index: usize,
}

impl<T> Loc<T> {
    /// Pair a value with its index.
    pub fn new(value: T, index: usize) -> Self {
        Loc { value, index }
    }
}

/// Arg-min: smallest value, ties broken toward the smallest index.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArgMin;

impl<T: Numeric> ReduceOp<Loc<T>> for ArgMin {
    fn identity(&self) -> Loc<T> {
        Loc::new(T::MAX_VALUE, usize::MAX)
    }
    fn combine(&self, a: Loc<T>, b: Loc<T>) -> Loc<T> {
        if b.value < a.value || (b.value == a.value && b.index < a.index) {
            b
        } else {
            a
        }
    }
}

/// Arg-max of absolute values — partial pivoting's operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArgMaxAbs;

impl<T: Numeric> ReduceOp<Loc<T>> for ArgMaxAbs {
    fn identity(&self) -> Loc<T> {
        Loc::new(T::ZERO, usize::MAX)
    }
    fn combine(&self, a: Loc<T>, b: Loc<T>) -> Loc<T> {
        let (aa, bb) = (a.value.abs(), b.value.abs());
        if bb > aa || (bb == aa && b.index < a.index && b.index != usize::MAX) {
            b
        } else {
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold<T, O: ReduceOp<T>>(op: O, vals: impl IntoIterator<Item = T>) -> T {
        vals.into_iter().fold(op.identity(), |acc, v| op.combine(acc, v))
    }

    #[test]
    fn sum_identity() {
        assert_eq!(fold(Sum, [1.0f64, 2.0, 3.5]), 6.5);
        assert_eq!(fold(Sum, Vec::<f64>::new()), 0.0);
    }

    #[test]
    fn max_min_handle_negatives_and_identity() {
        assert_eq!(fold(Max, [-5.0f64, -2.0, -9.0]), -2.0);
        assert_eq!(fold(Min, [-5i32, -2, -9]), -9);
        assert_eq!(fold(Max, Vec::<f64>::new()), f64::NEG_INFINITY);
        assert_eq!(fold(Min, Vec::<i32>::new()), i32::MAX);
    }

    #[test]
    fn argmin_basic() {
        let v = vec![Loc::new(3i64, 0), Loc::new(-7, 5), Loc::new(2, 1)];
        let r = fold(ArgMin, v);
        assert_eq!((r.value, r.index), (-7, 5));
    }

    #[test]
    fn argmaxabs_picks_largest_magnitude() {
        let v = vec![Loc::new(3.0f64, 0), Loc::new(-9.0, 2), Loc::new(8.0, 1)];
        let r = fold(ArgMaxAbs, v);
        assert_eq!((r.value, r.index), (-9.0, 2));
    }

    #[test]
    fn argmaxabs_identity_loses_to_any_real_entry() {
        let r = fold(ArgMaxAbs, vec![Loc::new(0.0f64, 3)]);
        assert_eq!(r.index, 3, "a real zero entry beats the identity");
    }

    #[test]
    fn ops_are_commutative_and_associative_spot_check() {
        let vals = [1.5f64, -2.25, 0.0, 8.0, -8.0];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(Sum.combine(a, b), Sum.combine(b, a));
                assert_eq!(Max.combine(a, b), Max.combine(b, a));
                assert_eq!(Min.combine(a, b), Min.combine(b, a));
                for &c in &vals {
                    assert_eq!(
                        Sum.combine(Sum.combine(a, b), c),
                        Sum.combine(a, Sum.combine(b, c))
                    );
                }
            }
        }
    }

    #[test]
    fn numeric_constants() {
        assert_eq!(f64::ZERO, 0.0);
        assert_eq!(i32::ONE, 1);
        assert_eq!(f32::MIN_VALUE, f32::NEG_INFINITY);
        assert_eq!((-3.5f64).abs(), 3.5);
        assert_eq!(i64::from_f64(4.9), 4);
        assert_eq!(2.5f64.to_f64(), 2.5);
    }
}

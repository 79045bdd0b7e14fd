//! Binary-reflected Gray codes.
//!
//! Grids and rings are embedded into Boolean cubes with binary-reflected
//! Gray codes (BRGC): consecutive Gray codes differ in exactly one bit, so
//! mesh neighbours land on cube neighbours (dilation 1). This is the
//! standard CM/iPSC embedding used by the paper and analysed at length in
//! Ho & Johnsson's mesh-embedding reports.

/// The binary-reflected Gray code of `i`.
#[inline]
#[must_use]
pub fn gray(i: usize) -> usize {
    i ^ (i >> 1)
}

/// Inverse Gray code: `gray_inverse(gray(i)) == i`.
///
/// Uses the standard prefix-XOR fold, `O(lg lg p)` word operations.
#[inline]
#[must_use]
pub fn gray_inverse(mut g: usize) -> usize {
    g ^= g >> 32;
    g ^= g >> 16;
    g ^= g >> 8;
    g ^= g >> 4;
    g ^= g >> 2;
    g ^= g >> 1;
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_is_bijective_on_small_ranges() {
        for d in 0..12u32 {
            let n = 1usize << d;
            let mut seen = vec![false; n];
            for i in 0..n {
                let g = gray(i);
                assert!(g < n, "gray stays in range");
                assert!(!seen[g], "gray is injective");
                seen[g] = true;
            }
        }
    }

    #[test]
    fn gray_inverse_roundtrip() {
        for i in 0..(1usize << 14) {
            assert_eq!(gray_inverse(gray(i)), i);
            assert_eq!(gray(gray_inverse(i)), i);
        }
        // A few large values exercising the high-word folds.
        for &i in &[usize::MAX >> 1, 0xDEAD_BEEF_usize, 1usize << 40] {
            assert_eq!(gray_inverse(gray(i)), i);
        }
    }

    #[test]
    fn consecutive_grays_differ_in_one_bit() {
        for i in 0..(1usize << 12) {
            let diff = gray(i) ^ gray(i + 1);
            assert_eq!(diff.count_ones(), 1, "i = {i}");
        }
    }

    #[test]
    fn gray_ring_wraparound_power_of_two() {
        // For a ring of 2^d nodes the wrap edge gray(2^d - 1) -> gray(0)
        // also has Hamming distance 1 (it differs in the top bit only).
        for d in 1..12u32 {
            let n = 1usize << d;
            let diff = gray(n - 1) ^ gray(0);
            assert_eq!(diff.count_ones(), 1, "d = {d}");
        }
    }
}

//! Fast Fourier Transform on the hypercube.
//!
//! The corpus around the paper devotes two reports to cube FFTs
//! (Johnsson, Ho, Jacquemin & Ruttenberg, *Computing Fast Fourier
//! Transforms on Boolean Cubes and Related Networks* and the systolic
//! follow-up, both abstracted in the source booklet): with `n = 2^q`
//! elements block-distributed over `p = 2^d` nodes, the first `d`
//! butterfly stages pair elements on cube **neighbours** (the stage's
//! stride selects one address bit — high bits are node bits, low bits
//! local), so each of them is one pairwise chunk exchange; the remaining
//! `q - d` stages are purely local. One blocked routed phase at the end
//! undoes the bit-reversal.
//!
//! Decimation-in-frequency with natural input; `fft` returns natural
//! order (the bit-reversal is part of the cost). The butterfly
//! arithmetic is identical for every machine size, so results are
//! bit-identical across `p` (tested).

use vmp_core::prelude::*;
use vmp_core::scan::route_permutation;
use vmp_hypercube::collective::exchange_slab;
use vmp_hypercube::machine::Hypercube;

/// A complex number (re, im). Deliberately minimal — just what the FFT
/// butterflies need.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

#[allow(clippy::should_implement_trait)]
impl Cplx {
    /// Construct from parts.
    #[must_use]
    pub fn new(re: f64, im: f64) -> Self {
        Cplx { re, im }
    }

    /// Zero.
    #[must_use]
    pub fn zero() -> Self {
        Cplx::new(0.0, 0.0)
    }

    /// `e^{i theta}`.
    #[must_use]
    pub fn cis(theta: f64) -> Self {
        Cplx::new(theta.cos(), theta.sin())
    }

    /// Complex addition.
    #[must_use]
    pub fn add(self, o: Cplx) -> Cplx {
        Cplx::new(self.re + o.re, self.im + o.im)
    }

    /// Complex subtraction.
    #[must_use]
    pub fn sub(self, o: Cplx) -> Cplx {
        Cplx::new(self.re - o.re, self.im - o.im)
    }

    /// Complex multiplication.
    #[must_use]
    pub fn mul(self, o: Cplx) -> Cplx {
        Cplx::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }

    /// Scale by a real.
    #[must_use]
    pub fn scale(self, s: f64) -> Cplx {
        Cplx::new(self.re * s, self.im * s)
    }

    /// Magnitude.
    #[must_use]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// Forward FFT of a block-distributed complex vector (`n` a power of
/// two, `n >= p`). Returns the spectrum in natural order.
///
/// # Panics
/// Panics unless the vector is linear, block-chunked, with power-of-two
/// length at least `p`.
#[must_use]
pub fn fft(hc: &mut Hypercube, v: &DistVector<Cplx>) -> DistVector<Cplx> {
    fft_impl(hc, v, false)
}

/// Inverse FFT (normalised by `1/n`).
#[must_use]
pub fn ifft(hc: &mut Hypercube, v: &DistVector<Cplx>) -> DistVector<Cplx> {
    fft_impl(hc, v, true)
}

fn fft_impl(hc: &mut Hypercube, v: &DistVector<Cplx>, inverse: bool) -> DistVector<Cplx> {
    let layout = *v.layout();
    assert!(matches!(layout.embedding(), VecEmbedding::Linear), "FFT expects the linear embedding");
    assert_eq!(layout.dist().kind(), Dist::Block, "FFT expects block chunking");
    let n = layout.n();
    assert!(n.is_power_of_two(), "length must be a power of two");
    let p = layout.grid().p();
    assert!(n >= p, "need at least one element per node");
    let m = n / p; // local chunk (block distribution divides exactly)
    for node in 0..p {
        debug_assert_eq!(layout.local_len(node), m);
    }
    let q = n.trailing_zeros() as usize;
    let local_bits = m.trailing_zeros() as usize;
    let sign = if inverse { 1.0 } else { -1.0 };

    let mut chunks = v.chunks().clone();

    // DIF stages, stride t = 2^s from n/2 down to 1.
    for s in (0..q).rev() {
        let t = 1usize << s;
        if t >= m {
            // Node-level stage: the stride selects one node bit; the
            // partner is a cube neighbour, so the whole stage is one
            // pairwise chunk exchange.
            let cube_dim = (s - local_bits) as u32;
            let node_bit = 1usize << cube_dim;
            let mut partners = chunks.clone();
            exchange_slab(hc, &mut partners, cube_dim);
            chunks.for_each_seg_mut(|node, chunk| {
                let partner_chunk = &partners[node];
                let lower = node & node_bit == 0;
                for (local, x) in chunk.iter_mut().enumerate() {
                    let g = node * m + local; // my global index
                    let other = partner_chunk[local];
                    if lower {
                        *x = x.add(other);
                    } else {
                        // I hold the "b" side: partner's a, my b.
                        let j = (g & (t - 1)) as f64;
                        let w = Cplx::cis(sign * std::f64::consts::PI * j / t as f64);
                        *x = other.sub(*x).mul(w);
                    }
                }
            });
            hc.charge_flops(10 * m);
        } else {
            // Local stage.
            chunks.for_each_seg_mut(|node, chunk| {
                let base = node * m;
                let mut blk = 0usize;
                while blk < m {
                    for off in 0..t {
                        let ia = blk + off;
                        let ib = ia + t;
                        let a = chunk[ia];
                        let b = chunk[ib];
                        let g = base + ia;
                        let j = (g & (t - 1)) as f64;
                        let w = Cplx::cis(sign * std::f64::consts::PI * j / t as f64);
                        chunk[ia] = a.add(b);
                        chunk[ib] = a.sub(b).mul(w);
                    }
                    blk += 2 * t;
                }
            });
            hc.charge_flops(10 * m);
        }
    }

    // Undo the bit-reversal with one blocked routed permutation.
    let scrambled = DistVector::from_chunks(layout, chunks);
    let reversed = route_permutation(hc, &scrambled, move |i| Some(bit_reverse(i, q)), None);

    if inverse {
        reversed.map(hc, move |_, x| x.scale(1.0 / n as f64))
    } else {
        reversed
    }
}

/// Reverse the low `bits` bits of `i`.
#[must_use]
pub fn bit_reverse(i: usize, bits: usize) -> usize {
    let mut out = 0usize;
    for b in 0..bits {
        out |= ((i >> b) & 1) << (bits - 1 - b);
    }
    out
}

/// Naive `O(n^2)` DFT oracle.
#[must_use]
pub fn dft_serial(x: &[Cplx], inverse: bool) -> Vec<Cplx> {
    let n = x.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Cplx::zero();
        for (j, &xj) in x.iter().enumerate() {
            let w = Cplx::cis(sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64);
            acc = acc.add(xj.mul(w));
        }
        if inverse {
            acc = acc.scale(1.0 / n as f64);
        }
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;

    fn dist(x: &[Cplx], dim: u32) -> (Hypercube, DistVector<Cplx>) {
        let grid = ProcGrid::square(Cube::new(dim));
        let layout = VectorLayout::linear(x.len(), grid, Dist::Block);
        (Hypercube::new(dim, CostModel::cm2()), DistVector::from_slice(layout, x))
    }

    fn signal(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|i| Cplx::new(((i * 37) % 11) as f64 - 5.0, ((i * 13) % 7) as f64 - 3.0))
            .collect()
    }

    fn close(a: &[Cplx], b: &[Cplx], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.sub(*y).abs() < tol, "element {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn bit_reverse_reverses() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        for i in 0..64 {
            assert_eq!(bit_reverse(bit_reverse(i, 6), 6), i);
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        for (n, dim) in [(8usize, 0u32), (16, 2), (64, 3), (128, 4), (256, 5)] {
            let x = signal(n);
            let expect = dft_serial(&x, false);
            let (mut hc, v) = dist(&x, dim);
            let got = fft(&mut hc, &v).to_dense();
            close(&got, &expect, 1e-8 * n as f64);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 128;
        let x = signal(n);
        let (mut hc, v) = dist(&x, 3);
        let spectrum = fft(&mut hc, &v);
        let back = ifft(&mut hc, &spectrum).to_dense();
        close(&back, &x, 1e-10);
    }

    #[test]
    fn delta_transforms_to_constant() {
        let n = 32;
        let mut x = vec![Cplx::zero(); n];
        x[0] = Cplx::new(1.0, 0.0);
        let (mut hc, v) = dist(&x, 2);
        let spec = fft(&mut hc, &v).to_dense();
        for s in &spec {
            assert!(s.sub(Cplx::new(1.0, 0.0)).abs() < 1e-12, "flat spectrum");
        }
    }

    #[test]
    fn pure_tone_transforms_to_spike() {
        let n = 64;
        let k0 = 5usize;
        let x: Vec<Cplx> = (0..n)
            .map(|i| Cplx::cis(2.0 * std::f64::consts::PI * (k0 * i) as f64 / n as f64))
            .collect();
        let (mut hc, v) = dist(&x, 3);
        let spec = fft(&mut hc, &v).to_dense();
        for (k, s) in spec.iter().enumerate() {
            if k == k0 {
                assert!((s.abs() - n as f64).abs() < 1e-8, "spike at {k0}");
            } else {
                assert!(s.abs() < 1e-8, "silence at {k}: {}", s.abs());
            }
        }
    }

    #[test]
    fn results_are_bit_identical_across_machine_sizes() {
        let n = 64;
        let x = signal(n);
        let mut results = Vec::new();
        for dim in [0u32, 1, 3, 5, 6] {
            let (mut hc, v) = dist(&x, dim);
            results.push(fft(&mut hc, &v).to_dense());
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0], "same butterflies, same floats");
        }
    }

    #[test]
    fn linearity() {
        let n = 32;
        let x = signal(n);
        let y: Vec<Cplx> = signal(n).iter().map(|c| c.mul(Cplx::new(0.0, 1.0))).collect();
        let sum: Vec<Cplx> = x.iter().zip(&y).map(|(a, b)| a.add(*b)).collect();
        let (mut hc, vx) = dist(&x, 2);
        let (_, vy) = dist(&y, 2);
        let (_, vs) = dist(&sum, 2);
        let fx = fft(&mut hc, &vx).to_dense();
        let fy = fft(&mut hc, &vy).to_dense();
        let fs = fft(&mut hc, &vs).to_dense();
        for i in 0..n {
            assert!(fs[i].sub(fx[i].add(fy[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn node_stages_use_one_exchange_each() {
        // n = 256 on p = 16: 4 node stages (one chunk exchange each,
        // distance-1 partners) + the bit-reversal route.
        let n = 256;
        let x = signal(n);
        let (mut hc, v) = dist(&x, 4);
        let _ = fft(&mut hc, &v);
        // 4 exchanges (1 superstep each: partners are neighbours) plus
        // <= 4 supersteps of bit-reversal routing.
        assert!(hc.counters().message_steps <= 4 + 4, "{} supersteps", hc.counters().message_steps);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let x = signal(12);
        let (mut hc, v) = dist(&x, 1);
        let _ = fft(&mut hc, &v);
    }
}

//! The hypercube FFT and bitonic sort: two more kernels from the
//! technical-report corpus around the paper, sharing the same
//! stage structure (power-of-two strides = cube neighbour exchanges).
//!
//! ```text
//! cargo run --release --example fft_and_sort [n] [cube_dim]
//! ```

use four_vmp::algos::fft::{dft_serial, fft, ifft, Cplx};
use four_vmp::algos::sort::sort_ascending;
use four_vmp::hypercube::Cube;
use four_vmp::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1024);
    let dim: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    assert!(n.is_power_of_two(), "n must be a power of two");

    let grid = ProcGrid::square(Cube::new(dim));
    let layout = VectorLayout::linear(n, grid, Dist::Block);

    // --- FFT: two tones + verification against the naive DFT ---------
    let x: Vec<Cplx> = (0..n)
        .map(|i| {
            let th1 = 2.0 * std::f64::consts::PI * (3 * i) as f64 / n as f64;
            let th2 = 2.0 * std::f64::consts::PI * (17 * i) as f64 / n as f64;
            Cplx::new(th1.sin() + 0.5 * th2.cos(), 0.0)
        })
        .collect();
    let v = DistVector::from_slice(layout, &x);

    let hc = &mut Hypercube::cm2(dim);
    let spectrum = fft(hc, &v);
    let t_fft = hc.elapsed_us();
    let spec = spectrum.to_dense();
    let mut peaks: Vec<(usize, f64)> = spec.iter().enumerate().map(|(k, c)| (k, c.abs())).collect();
    peaks.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
    println!("FFT of two tones (bins 3 and 17), n = {n}, p = {}:", 1usize << dim);
    println!("  top bins: {:?}", peaks[..4].iter().map(|&(k, _)| k).collect::<Vec<_>>());
    println!(
        "  simulated time {:.1} us, {} message supersteps",
        t_fft,
        hc.counters().message_steps
    );

    if n <= 512 {
        let naive = dft_serial(&x, false);
        let err = spec.iter().zip(&naive).map(|(a, b)| a.sub(*b).abs()).fold(0.0, f64::max);
        println!("  max |FFT - naive DFT| = {err:.2e}");
    }
    let back = ifft(hc, &spectrum).to_dense();
    let rt = back.iter().zip(&x).map(|(a, b)| a.sub(*b).abs()).fold(0.0, f64::max);
    println!("  round-trip |ifft(fft(x)) - x| = {rt:.2e}");

    // --- Bitonic sort -------------------------------------------------
    let data: Vec<i64> = (0..n).map(|i| ((i * 7919 + 31) % (3 * n)) as i64 - n as i64).collect();
    let dv = DistVector::from_slice(VectorLayout::linear(n, grid, Dist::Block), &data);
    let hc2 = &mut Hypercube::cm2(dim);
    let sorted = sort_ascending(hc2, &dv).to_dense();
    let mut expect = data.clone();
    expect.sort_unstable();
    println!("\nbitonic sort of {n} keys: correct = {}", sorted == expect);
    println!(
        "  simulated time {:.1} us, {} exchange supersteps (lg^2 n structure)",
        hc2.elapsed_us(),
        hc2.counters().message_steps
    );
}

//! Small helpers: order statistics, seeds, digests, host timing, memory.

use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64 finaliser: decorrelates nearby seeds.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The input seed of op `index` of a run with workload seed `seed`.
pub fn op_seed(seed: u64, index: u64) -> u64 {
    mix(mix(seed) ^ index)
}

/// FNV-1a over 64-bit words: the bit-identity digest of an op.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) -> &mut Self {
        for w in ws {
            self.word(w);
        }
        self
    }

    pub fn bytes(&mut self, s: &str) -> &mut Self {
        self.words(s.bytes().map(u64::from))
    }

    /// Raw bytes, one FNV-1a step each.
    pub fn slice(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the process CPU clock of 64-bit Linux");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// The host clock of every measurement: CPU time used by this process,
/// in ns. The simulator runs on one thread, so on an idle machine this
/// equals wall time; unlike wall time it leaves out the stretches when
/// a virtual machine's CPU is taken away by its host, which on shared
/// 2-core virtual machines swung a fixed loop's wall time by up to ±40%
/// from second to second. All threads count, so work moved to other threads cannot
/// look like a saving.
pub fn cpu_ns() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` with the 64-bit
    // Linux layout, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux supports CLOCK_PROCESS_CPUTIME_ID");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// System CPU time used by this process, in ms: the part of `cpu_ns`
/// the kernel spends on the process's behalf (mostly page faults).
/// Linux splits CPU time into user and system by sampling at clock
/// ticks, so this is exact only in sums over many ticks.
pub fn sys_ms() -> f64 {
    let mut ru = Rusage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `getrusage` writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "Linux supports RUSAGE_SELF");
    ru.stime[0] as f64 * 1e3 + ru.stime[1] as f64 / 1e3
}

/// Host (CPU) nanoseconds of one call of `f`.
pub fn time_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = cpu_ns();
    let r = std::hint::black_box(f());
    (r, cpu_ns() - t)
}

/// Median host (CPU) nanoseconds per call of `f`, over at least
/// `min_calls` calls and more until `budget` of wall time is spent (at
/// most 200 calls). Each sample times a batch of `batch` calls, for
/// calls too short to time one at a time.
pub fn median_ns(min_calls: usize, budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_calls || (start.elapsed() < budget && samples.len() < 200) {
        let t = cpu_ns();
        for _ in 0..batch {
            f();
        }
        samples.push((cpu_ns() - t) / batch as f64);
    }
    median(&samples)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A JSON number: finite values print in shortest round-trip form.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

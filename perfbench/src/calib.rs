//! The reference kernels: fixed pieces of work, run beside every timed
//! op, that put host times taken at different moments on one scale.
//!
//! On a shared virtual machine the CPU's speed moves in phases of
//! seconds to minutes, as neighbours load the physical core, its caches
//! and the memory system: the same elimination took 55 ms in one phase
//! and 100 ms in the next, in CPU time. Fixed kernels slow with it (in a
//! noisy five-minute run, the CPU kernel's parts correlated 0.93–0.97
//! with op time over 5 s windows), so an op's CPU time divided by the
//! kernels' slowdown against their reference times is what the op would
//! have taken at the reference speed.
//!
//! Two kernels, because ops spend CPU time in two ways that slow
//! differently. The CPU kernel mixes three kinds of work the simulator
//! does per node: an exchange along each hypercube dimension over flat
//! per-node blocks (streaming), the same moves through an index free
//! list (dependent loads), and sorting (unpredictable branches). The
//! page-fault kernel maps fresh memory, touches each page and unmaps it,
//! as an op does when it allocates a large temporary: half of a
//! `matvec-p64` op is such system time, and it slowed less than the CPU
//! kernel, so the CPU kernel alone over-corrected it. A run weighs the
//! two by the share of its ops' CPU time that was system time.
//!
//! Both kernels are the benchmark's own code and neither calls the
//! allocator, so no change to the program can move them, neither
//! directly nor through the state of the heap.

use crate::util::{cpu_ns, median};

/// CPU ms of one pass of each kernel at the reference speed: an
/// undisturbed 2.1 GHz Xeon vCPU of a 2-core virtual machine. Scaled
/// host times read as CPU times on that machine.
pub const REF_CPU_MS: f64 = 0.4;
pub const REF_FAULT_MS: f64 = 0.45;

/// The page-fault kernel touches 256 pages per pass, 16 at a time, so
/// it adds at most 64 KiB to the resident set `peak_rss_mib` reads.
const FAULT_CHUNKS: usize = 16;
const FAULT_CHUNK_BYTES: usize = 16 * PAGE_BYTES;
const PAGE_BYTES: usize = 4096;

const NODES: usize = 1024;
const WIDTH: usize = 4;
const DIMS: usize = 10;
const SORT_KEYS: usize = 4096;

pub struct Kernel {
    keys: Vec<u32>,
    cur: Vec<f64>,
    next: Vec<f64>,
    slots: Vec<[f64; WIDTH]>,
    free: Vec<u32>,
    owner: Vec<u32>,
}

impl Kernel {
    pub fn new() -> Self {
        Kernel {
            keys: vec![0; SORT_KEYS],
            cur: vec![1.0; NODES * WIDTH],
            next: vec![0.0; NODES * WIDTH],
            slots: vec![[0.0; WIDTH]; 2 * NODES],
            free: Vec::with_capacity(2 * NODES),
            owner: (0..NODES as u32).collect(),
        }
    }

    /// One pass of each kernel.
    pub fn sample(&mut self) -> Speed {
        let t = cpu_ns();
        std::hint::black_box(self.pass());
        let cpu_ms = (cpu_ns() - t) / 1e6;
        Speed { cpu_ms, fault_ms: fault_pass_ms() }
    }

    /// Median of `passes` passes of each kernel.
    pub fn median(&mut self, passes: usize) -> Speed {
        let samples: Vec<Speed> = (0..passes).map(|_| self.sample()).collect();
        Speed::median(&samples)
    }

    fn pass(&mut self) -> f64 {
        let mut acc = self.sort();
        for _ in 0..2 {
            acc += self.exchange() + self.relink();
        }
        acc
    }

    fn sort(&mut self) -> f64 {
        let mut x = 12_345u32;
        let mut acc = 0.0;
        for _ in 0..4 {
            for k in self.keys.iter_mut() {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                *k = x >> 8;
            }
            self.keys.sort_unstable();
            acc += f64::from(self.keys[100]);
        }
        acc
    }

    fn exchange(&mut self) -> f64 {
        for d in 0..DIMS {
            let bit = 1 << d;
            for i in 0..NODES {
                for k in 0..WIDTH {
                    self.next[i * WIDTH + k] =
                        (self.cur[i * WIDTH + k] + self.cur[(i ^ bit) * WIDTH + k]) * 0.5;
                }
            }
            std::mem::swap(&mut self.cur, &mut self.next);
        }
        self.cur[7]
    }

    fn relink(&mut self) -> f64 {
        let mut acc = 0.0;
        for d in 0..DIMS {
            self.free.clear();
            self.free.extend(0..2 * NODES as u32);
            for i in 0..NODES {
                let from = (self.owner[i] as usize ^ (1 << d)) % self.slots.len();
                let to = self.free.pop().map_or(0, |s| s as usize);
                let src = self.slots[from];
                self.slots[to] = [src[0] + 1.0, src[1], src[2], src[3]];
                self.owner[i] = (to % NODES) as u32;
                acc += self.slots[to][0];
            }
        }
        acc
    }
}

/// CPU ms of one pass of each kernel.
#[derive(Clone, Copy)]
pub struct Speed {
    pub cpu_ms: f64,
    pub fault_ms: f64,
}

impl Speed {
    fn median(samples: &[Speed]) -> Speed {
        let cpu: Vec<f64> = samples.iter().map(|s| s.cpu_ms).collect();
        let fault: Vec<f64> = samples.iter().map(|s| s.fault_ms).collect();
        Speed { cpu_ms: median(&cpu), fault_ms: median(&fault) }
    }

    /// How much slower than the reference speed this moment ran, for
    /// work that spends `sys_share` of its CPU time in the kernel.
    pub fn slowdown(&self, sys_share: f64) -> f64 {
        let w = sys_share.clamp(0.0, 1.0);
        (1.0 - w) * self.cpu_ms / REF_CPU_MS + w * self.fault_ms / REF_FAULT_MS
    }
}

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

/// CPU ms of one pass of the page-fault kernel: map fresh memory
/// straight from the kernel (not through the allocator, which would keep
/// and reuse it), write one byte per page, unmap; chunk by chunk.
fn fault_pass_ms() -> f64 {
    let t = cpu_ns();
    for _ in 0..FAULT_CHUNKS {
        // SAFETY: an anonymous private mapping of `FAULT_CHUNK_BYTES`;
        // every write stays inside it, and it is unmapped once, here, and
        // used by nothing else.
        unsafe {
            let p = mmap(
                std::ptr::null_mut(),
                FAULT_CHUNK_BYTES,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            );
            assert!(p as isize != -1, "an anonymous 64 KiB mapping");
            for offset in (0..FAULT_CHUNK_BYTES).step_by(PAGE_BYTES) {
                p.add(offset).write_volatile(1);
            }
            munmap(p, FAULT_CHUNK_BYTES);
        }
    }
    (cpu_ns() - t) / 1e6
}

/// Scale each op's CPU ms to the reference speed. The speed at op `i`
/// is the median of each kernel's times at ops `i - 4 ..= i + 4`, so one
/// pass hit by an interrupt does not throw its op off.
pub fn scale_to_ref(op_ms: &[f64], speeds: &[Speed], sys_share: f64) -> Vec<f64> {
    (0..op_ms.len())
        .map(|i| {
            let window = &speeds[i.saturating_sub(4)..(i + 5).min(speeds.len())];
            op_ms[i] / Speed::median(window).slowdown(sys_share)
        })
        .collect()
}

//! Communication/arithmetic cost model.
//!
//! The whole TMC/Yale corpus the paper sits in (Johnsson & Ho's collective
//! communication reports, the tridiagonal and banded solver papers) uses
//! the same two-parameter channel model: sending `n` elements between
//! neighbours costs `alpha + n * beta` — a start-up (latency) term plus a
//! per-element transfer term — and an arithmetic operation costs `gamma`.
//! We add `delta` for local memory moves (block copies during packing and
//! embedding changes) and an element-granular router model for the *naive*
//! baseline, where every element is injected into the general router as
//! its own message.
//!
//! All times are in microseconds; they are *simulated* times. The presets
//! are in the right regime for the machines of the era (CM-2, iPSC/1) so
//! the reproduced tables have plausible magnitudes, but the claims we
//! verify are about *shape* (ratios, crossovers), which are insensitive to
//! the exact constants — see `EXPERIMENTS.md`.

use serde::{Deserialize, Serialize};

/// Whether a node can use one channel at a time or all `d` channels
/// concurrently. The CM-2 NEWS/hypercube hardware supported concurrent
/// channel use; one-port is the conservative model most algorithms are
/// analysed under. [`CostModel::choose`] consults this: one-port machines
/// always run the single-port collective schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortModel {
    /// One channel per node active per step.
    OnePort,
    /// All `d` channels of a node may be active concurrently.
    AllPort,
}

/// Which collective a schedule is selected or priced for. The five
/// kinds the slab data plane implements all-port schedules for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Collective {
    /// One-to-all within each subcube.
    Broadcast,
    /// All-to-one combine within each subcube.
    Reduce,
    /// Butterfly combine, result replicated.
    Allreduce,
    /// Concatenation, result replicated.
    Allgather,
    /// Parallel prefix in coordinate order.
    Scan,
}

/// A concrete schedule choice for one collective call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// One dimension per superstep — the conservative seed schedules.
    SinglePort,
    /// All `k` ports concurrent over the `k` edge-disjoint spanning
    /// binomial trees (see [`crate::spanning::EsbtForest`]); each tree
    /// carries `ceil(L/k)` elements, pipelined as `chunks` cells.
    AllPort {
        /// Pipeline depth per tree (1 = unpipelined).
        chunks: usize,
    },
}

/// Pipeline cell: chunks are sized so one cell rides each tree edge per
/// superstep once a tree's share exceeds this many elements.
pub const DEFAULT_PIPELINE_CELL: usize = 256;

/// Height (edge depth) of one edge-disjoint spanning binomial tree of a
/// `k`-cube, source edge included: `k + 1` for `k >= 2`, else `k`. The
/// pipelined tree schedules take `height + chunks - 1` supersteps.
#[must_use]
pub fn esbt_height(k: usize) -> usize {
    if k <= 1 {
        k
    } else {
        k + 1
    }
}

/// One all-port schedule, normalised to `steps` identical supersteps in
/// which every node drives at most `per_port` elements per port and
/// combines at most `per_step_flops` elements locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSchedule {
    /// Concurrent supersteps.
    pub steps: usize,
    /// Elements per port per superstep (the message length charged).
    pub per_port: usize,
    /// Critical-path combines per superstep.
    pub per_step_flops: usize,
}

/// The all-port schedule for `kind` over `k` dimensions with
/// critical-path segment length `len`, pipelined as `chunks` cells per
/// tree. This is the single source of the ported cost model: the
/// machine charges exactly this schedule and `vmp::analysis` prices it,
/// so predictions cannot drift from charges.
///
/// * `Broadcast`: each of the `k` trees carries `ceil(len/k)` elements
///   in `chunks` cells; a cell descends one tree level per superstep,
///   so the last cell arrives after `esbt_height(k) + chunks - 1`
///   steps of `message(cell)`.
/// * `Reduce`: the same trees reversed; a node can receive one cell on
///   each of its `k` ports per step, combining them serially.
/// * `Allreduce`/`Scan`: `k` dimension-staggered butterflies, one per
///   payload piece, so every step exchanges `ceil(len/k)` per port but
///   still combines the full payload locally — the bandwidth term
///   drops by `k`, the flop term does not.
/// * `Allgather`: every node absorbs `2^k - 1` remote segments over
///   `k` ports: `ceil((2^k - 1)/k)` steps of `message(len)` (chunking
///   cannot reduce the start-up count further, so `chunks` is unused).
#[must_use]
pub fn allport_schedule(kind: Collective, k: usize, len: usize, chunks: usize) -> PortSchedule {
    let k = k.max(1);
    let piece = len.div_ceil(k);
    let c = chunks.max(1);
    match kind {
        Collective::Broadcast => PortSchedule {
            steps: esbt_height(k) + c - 1,
            per_port: piece.div_ceil(c),
            per_step_flops: 0,
        },
        Collective::Reduce => {
            let cell = piece.div_ceil(c);
            PortSchedule { steps: esbt_height(k) + c - 1, per_port: cell, per_step_flops: k * cell }
        }
        Collective::Allreduce => PortSchedule { steps: k, per_port: piece, per_step_flops: len },
        Collective::Scan => PortSchedule { steps: k, per_port: piece, per_step_flops: 2 * len },
        Collective::Allgather => PortSchedule {
            steps: ((1usize << k.min(usize::BITS as usize - 1)) - 1).div_ceil(k),
            per_port: len,
            per_step_flops: 0,
        },
    }
}

/// The machine cost parameters (all in microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Communication start-up per (blocked) neighbour message.
    pub alpha: f64,
    /// Per-element transfer time on a channel.
    pub beta: f64,
    /// Per floating-point operation.
    pub gamma: f64,
    /// Per-element local memory move (packing / copying).
    pub delta: f64,
    /// Overhead charged per *individually injected* router element — the
    /// cost that makes the naive element-per-message implementation slow.
    /// On the CM this is the Paris general-router send overhead.
    pub router_alpha: f64,
    /// Time per router petit cycle: in one cycle every cube channel can
    /// forward one element.
    pub router_cycle: f64,
    /// Channel concurrency model.
    pub ports: PortModel,
}

impl CostModel {
    /// Connection Machine CM-2-like constants. High start-up relative to
    /// per-element cost on blocked transfers; an expensive general router.
    #[must_use]
    pub fn cm2() -> Self {
        CostModel {
            alpha: 30.0,
            beta: 1.0,
            gamma: 0.35,
            delta: 0.12,
            router_alpha: 12.0,
            router_cycle: 3.0,
            ports: PortModel::OnePort,
        }
    }

    /// Intel iPSC/1-like constants: very large message start-up, the
    /// regime where minimising the number of start-ups dominates.
    #[must_use]
    pub fn ipsc1() -> Self {
        CostModel {
            alpha: 1000.0,
            beta: 2.5,
            gamma: 0.25,
            delta: 0.1,
            router_alpha: 900.0,
            router_cycle: 10.0,
            ports: PortModel::OnePort,
        }
    }

    /// Unit-cost model: `alpha = beta = gamma = 1`, `delta = 0`. Used by
    /// tests that check the analytic formulas exactly.
    #[must_use]
    pub fn unit() -> Self {
        CostModel {
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.0,
            delta: 0.0,
            router_alpha: 1.0,
            router_cycle: 1.0,
            ports: PortModel::OnePort,
        }
    }

    /// Zero-latency model (`alpha = 0`): isolates bandwidth terms.
    #[must_use]
    pub fn zero_latency() -> Self {
        CostModel { alpha: 0.0, ..Self::unit() }
    }

    /// CM-2 constants with concurrent channel use enabled — the preset
    /// under which [`CostModel::choose`] considers all-port schedules.
    #[must_use]
    pub fn cm2_allport() -> Self {
        CostModel { ports: PortModel::AllPort, ..Self::cm2() }
    }

    /// Predicted time of one collective over `k` dimensions with
    /// critical-path segment length `len` under schedule `algo`.
    ///
    /// The single-port forms reproduce the per-superstep charges of the
    /// slab collectives exactly (`k` exchange steps, allgather's
    /// doubling lengths summed step by step), so `vmp::analysis` keeps
    /// its exact-match property; the all-port form prices
    /// [`allport_schedule`], which the machine charges verbatim.
    #[must_use]
    pub fn collective_time(&self, kind: Collective, k: usize, len: usize, algo: Algo) -> f64 {
        match algo {
            Algo::SinglePort => {
                let kf = k as f64;
                match kind {
                    Collective::Broadcast => kf * self.message(len),
                    Collective::Reduce | Collective::Allreduce => {
                        kf * (self.message(len) + self.flops(len))
                    }
                    Collective::Scan => kf * (self.message(len) + self.flops(2 * len)),
                    Collective::Allgather => {
                        let mut t = 0.0;
                        let mut l = len;
                        for _ in 0..k {
                            t += self.message(l);
                            l *= 2;
                        }
                        t
                    }
                }
            }
            Algo::AllPort { chunks } => {
                let s = allport_schedule(kind, k, len, chunks);
                s.steps as f64 * (self.message(s.per_port) + self.flops(s.per_step_flops))
            }
        }
    }

    /// Choose the schedule for one collective call: `k = |dims|`, `len`
    /// the critical-path segment length, `live_faults` whether the
    /// machine currently has a non-empty fault plan or degradation
    /// remaps installed. Single-port under a one-port model or live
    /// faults (its exchange steps carry the detour/retry machinery);
    /// otherwise the cheaper of single-port and all-port, pipelined in
    /// [`DEFAULT_PIPELINE_CELL`]-element cells.
    #[must_use]
    pub fn choose(&self, kind: Collective, k: usize, len: usize, live_faults: bool) -> Algo {
        if k == 0 || len == 0 || live_faults || self.ports == PortModel::OnePort {
            return Algo::SinglePort;
        }
        let ap = Algo::AllPort { chunks: len.div_ceil(k).div_ceil(DEFAULT_PIPELINE_CELL) };
        if self.collective_time(kind, k, len, ap)
            < self.collective_time(kind, k, len, Algo::SinglePort)
        {
            ap
        } else {
            Algo::SinglePort
        }
    }

    /// Time for one blocked neighbour message of `n` elements.
    #[inline]
    #[must_use]
    pub fn message(&self, n: usize) -> f64 {
        self.alpha + self.beta * n as f64
    }

    /// Time for `n` local arithmetic operations.
    #[inline]
    #[must_use]
    pub fn flops(&self, n: usize) -> f64 {
        self.gamma * n as f64
    }

    /// Time for `n` local element moves.
    #[inline]
    #[must_use]
    pub fn moves(&self, n: usize) -> f64 {
        self.delta * n as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::cm2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_is_affine_in_length() {
        let c = CostModel::unit();
        assert_eq!(c.message(0), 1.0);
        assert_eq!(c.message(10), 11.0);
        let z = CostModel::zero_latency();
        assert_eq!(z.message(10), 10.0);
    }

    #[test]
    fn presets_are_sane() {
        for m in [CostModel::cm2(), CostModel::ipsc1(), CostModel::unit(), CostModel::cm2_allport()]
        {
            assert!(m.alpha >= 0.0 && m.beta > 0.0 && m.gamma > 0.0);
            assert!(m.router_alpha >= 0.0 && m.router_cycle > 0.0);
            // Start-up should dominate a single-element transfer on real
            // presets — this is what makes blocking worthwhile.
            if m.alpha > 1.0 {
                assert!(m.alpha > m.beta);
            }
        }
    }

    #[test]
    fn flops_and_moves_scale_linearly() {
        let c = CostModel::cm2();
        assert!((c.flops(100) - 100.0 * c.gamma).abs() < 1e-12);
        assert!((c.moves(100) - 100.0 * c.delta).abs() < 1e-12);
        assert_eq!(c.flops(0), 0.0);
    }

    #[test]
    fn copy_semantics() {
        let c = CostModel::cm2();
        let d = c; // Copy
        assert_eq!(c, d);
    }

    #[test]
    fn single_port_times_match_per_step_charges() {
        let c = CostModel::unit();
        let (k, l) = (4usize, 10usize);
        assert_eq!(c.collective_time(Collective::Broadcast, k, l, Algo::SinglePort), 4.0 * 11.0);
        assert_eq!(
            c.collective_time(Collective::Allreduce, k, l, Algo::SinglePort),
            4.0 * (11.0 + 10.0)
        );
        assert_eq!(
            c.collective_time(Collective::Scan, k, l, Algo::SinglePort),
            4.0 * (11.0 + 20.0)
        );
        // Allgather sums doubling message lengths: l, 2l, 4l, 8l.
        assert_eq!(
            c.collective_time(Collective::Allgather, k, l, Algo::SinglePort),
            4.0 + (10 + 20 + 40 + 80) as f64
        );
    }

    #[test]
    fn allport_schedule_shapes() {
        // Unpipelined broadcast: one cell per tree, esbt_height(k) steps.
        let s = allport_schedule(Collective::Broadcast, 4, 100, 1);
        assert_eq!((s.steps, s.per_port, s.per_step_flops), (5, 25, 0));
        // Pipelining adds chunks-1 steps and shrinks the cell.
        let s = allport_schedule(Collective::Broadcast, 4, 100, 5);
        assert_eq!((s.steps, s.per_port), (9, 5));
        // Reduce combines up to one cell per port per step.
        let s = allport_schedule(Collective::Reduce, 4, 100, 1);
        assert_eq!((s.steps, s.per_port, s.per_step_flops), (5, 25, 100));
        // Staggered butterflies: k steps on pieces, full-payload flops.
        let s = allport_schedule(Collective::Allreduce, 4, 100, 3);
        assert_eq!((s.steps, s.per_port, s.per_step_flops), (4, 25, 100));
        let s = allport_schedule(Collective::Scan, 4, 100, 1);
        assert_eq!((s.steps, s.per_port, s.per_step_flops), (4, 25, 200));
        // Allgather: ceil((2^k - 1)/k) full-segment steps.
        let s = allport_schedule(Collective::Allgather, 4, 100, 7);
        assert_eq!((s.steps, s.per_port, s.per_step_flops), (4, 100, 0));
    }

    #[test]
    fn auto_policy_is_single_port_on_one_port_presets() {
        for kind in [
            Collective::Broadcast,
            Collective::Reduce,
            Collective::Allreduce,
            Collective::Allgather,
            Collective::Scan,
        ] {
            assert_eq!(CostModel::cm2().choose(kind, 10, 1 << 14, false), Algo::SinglePort);
        }
    }

    #[test]
    fn auto_policy_picks_all_port_for_large_broadcasts() {
        let c = CostModel::cm2_allport();
        let algo = c.choose(Collective::Broadcast, 10, 1 << 14, false);
        let Algo::AllPort { chunks } = algo else {
            panic!("expected all-port for a large broadcast, got {algo:?}");
        };
        assert!(chunks > 1, "large payload should pipeline");
        let sp = c.collective_time(Collective::Broadcast, 10, 1 << 14, Algo::SinglePort);
        let ap = c.collective_time(Collective::Broadcast, 10, 1 << 14, algo);
        assert!(
            sp / ap >= 2.0,
            "acceptance regime: expected >= 2x at p=1024 large messages, got {:.2}x",
            sp / ap
        );
    }

    #[test]
    fn live_faults_force_single_port() {
        let c = CostModel::cm2_allport();
        let healthy = c.choose(Collective::Broadcast, 8, 4096, false);
        assert!(matches!(healthy, Algo::AllPort { .. }), "healthy payload goes all-port");
        assert_eq!(c.choose(Collective::Broadcast, 8, 4096, true), Algo::SinglePort);
        assert_eq!(c.choose(Collective::Broadcast, 0, 4096, false), Algo::SinglePort);
        assert_eq!(c.choose(Collective::Broadcast, 8, 0, false), Algo::SinglePort);
    }
}

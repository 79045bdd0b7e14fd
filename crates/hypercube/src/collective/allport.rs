//! How the slab collectives run and charge the all-port schedules.
//!
//! The all-port engine follows the repo's charge-then-place discipline:
//! the *data movement* of every collective is performed by the same code
//! in the same combine order regardless of schedule, so payloads are
//! bit-identical across schedules (and against `collective::reference`);
//! only the simulated clock follows the selected schedule. A collective
//! therefore does:
//!
//! 1. `hc.choose_algo(kind, k, max_len)` once, up front — the machine's
//!    cost model picks the schedule ([`crate::cost::CostModel::choose`]):
//!    single-port under a one-port model or any live fault (its exchange
//!    steps carry the detour/retry machinery), otherwise the cheaper of
//!    single-port and pipelined all-port;
//! 2. the movement passes, with per-superstep charges only under
//!    [`crate::cost::Algo::SinglePort`];
//! 3. under [`crate::cost::Algo::AllPort`], one
//!    [`crate::machine::Hypercube::charge_allport`] call for the whole
//!    schedule — `steps` concurrent supersteps of
//!    `message(per_port)` plus the per-step critical-path combines,
//!    priced by [`crate::cost::allport_schedule`].
//!
//! The schedules are the Johnsson & Ho (TR-610) all-port constructions
//! over the `k` edge-disjoint spanning binomial trees of
//! [`crate::spanning::EsbtForest`]: broadcast/reduce pipeline
//! `chunks` cells down/up each tree (`esbt_height(k) + chunks - 1`
//! supersteps of `ceil(ceil(L/k)/chunks)` elements per port), while
//! allreduce/scan run `k` dimension-staggered piece butterflies and
//! allgather absorbs `2^k - 1` segments over `k` ports in
//! `ceil((2^k - 1)/k)` supersteps.

#[cfg(test)]
mod tests {
    use crate::cost::{allport_schedule, esbt_height, Algo, Collective, CostModel};
    use crate::machine::Hypercube;
    use crate::spanning::EsbtForest;

    #[test]
    fn tree_schedules_match_forest_height() {
        // The pipelined tree schedules must take exactly
        // height + chunks - 1 supersteps — the forest is the ground
        // truth for the cost model's step counts.
        for k in 1..=8u32 {
            let f = EsbtForest::new(k);
            let h = f.height(0);
            assert_eq!(h, esbt_height(k as usize));
            for chunks in [1usize, 2, 7] {
                for kind in [Collective::Broadcast, Collective::Reduce] {
                    let s = allport_schedule(kind, k as usize, 4096, chunks);
                    assert_eq!(s.steps, h + chunks - 1, "k={k} chunks={chunks} {kind:?}");
                }
            }
        }
    }

    #[test]
    fn charge_is_priced_like_collective_time() {
        let mut hc = Hypercube::new(5, CostModel::cm2_allport());
        hc.charge_allport(Collective::Allgather, 5, 333, 4, 10_000);
        let want = CostModel::cm2_allport().collective_time(
            Collective::Allgather,
            5,
            333,
            Algo::AllPort { chunks: 4 },
        );
        assert!((hc.elapsed_us() - want).abs() < 1e-9);
        assert!(hc.counters().allport_steps > 0);
    }

    #[test]
    fn allport_beats_single_port_where_it_should() {
        // The selection rule is the priced comparison itself, so
        // spot-check the two acceptance collectives at p = 1024.
        let c = CostModel::cm2_allport();
        for kind in [Collective::Broadcast, Collective::Allgather] {
            let algo = c.choose(kind, 10, 16384, false);
            assert!(matches!(algo, Algo::AllPort { .. }), "{kind:?} should go all-port");
            let sp = c.collective_time(kind, 10, 16384, Algo::SinglePort);
            let ap = c.collective_time(kind, 10, 16384, algo);
            assert!(sp / ap >= 2.0, "{kind:?}: {:.2}x", sp / ap);
        }
    }
}

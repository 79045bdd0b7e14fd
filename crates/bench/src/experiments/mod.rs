//! The reproduction experiments — one driver per table/figure of
//! `DESIGN.md`'s experiment index.

pub mod algorithms_exp;
pub mod allport_exp;
pub mod embedding_exp;
pub mod extensions_exp;
pub mod fault_exp;
pub mod naive_exp;
pub mod optimality_exp;
pub mod primitives_exp;
pub mod sched_exp;
pub mod spanning_exp;

use crate::table::Table;

/// All experiment ids in presentation order (T/F reproduce the paper's
/// evaluation; X are this library's extensions; R are robustness;
/// `sched` is the multi-tenant scheduler study; `allport` the all-port
/// collective engine).
pub const ALL_IDS: [&str; 18] = [
    "t1", "t2", "t3", "t4", "t5", "f1", "f2", "f3", "f4", "x1", "x2", "x3", "x4", "x5", "x6", "r1",
    "sched", "allport",
];

/// `(id, one-line description)` for every experiment, in [`ALL_IDS`]
/// order — what `reproduce --list` prints.
pub const DESCRIPTIONS: [(&str, &str); 18] = [
    ("t1", "primitive timings vs matrix size (p = 1024, CM-2 model)"),
    ("t2", "primitive timings vs machine size (n = 1024, CM-2 model)"),
    ("t3", "naive (general router) vs primitives, application kernels (p = 256)"),
    ("t4", "algorithm timings: matvec, elimination, simplex (p = 1024)"),
    ("t5", "embedding-change costs (n = 1024 vectors, 512x512 matrix, p = 1024)"),
    ("f1", "efficiency T_serial/(p*T_par) vs m/p at p = 1024"),
    ("f2", "T_par vs p at fixed n = 512, against Omega(m/p + lg p)"),
    ("f3", "per-primitive speedup of blocked over element-router implementations (p = 256)"),
    ("f4", "collective schedule ablation vs message length (p = 1024)"),
    ("x1", "matmul schedules: rank-1 (pure primitives) vs panel blocking (p = 256)"),
    ("x2", "conjugate gradient (SPD, n = 96) vs machine size"),
    ("x3", "Jacobi stencil (5 sweeps, n = 256): NEWS shifts on the Gray-coded embedding"),
    ("x4", "FFT and bitonic sort (n = 4096) vs machine size"),
    ("x5", "shape stability under different cost constants (p = 256, matvec)"),
    ("x6", "histogram: dense vs sparse all-to-all reduction (p = 256, B = 1024)"),
    ("r1", "fault-sweep: elimination under drops, dead links and degradation (p = 16)"),
    (
        "sched",
        "multi-tenant subcube scheduler vs whole-machine FCFS (p = 1024, + BENCH_sched.json)",
    ),
    (
        "allport",
        "all-port collectives vs single-port schedules (p up to 1024, + BENCH_allport.json)",
    ),
];

/// Run one experiment by id (case-insensitive). `None` for unknown ids.
#[must_use]
pub fn run(id: &str) -> Option<Table> {
    match id.to_ascii_lowercase().as_str() {
        "t1" => Some(primitives_exp::t1()),
        "t2" => Some(primitives_exp::t2()),
        "t3" => Some(naive_exp::t3()),
        "t4" => Some(algorithms_exp::t4()),
        "t5" => Some(embedding_exp::t5()),
        "f1" => Some(optimality_exp::f1()),
        "f2" => Some(optimality_exp::f2()),
        "f3" => Some(naive_exp::f3()),
        "f4" => Some(spanning_exp::f4()),
        "x1" => Some(extensions_exp::x1()),
        "x2" => Some(extensions_exp::x2()),
        "x3" => Some(extensions_exp::x3()),
        "x4" => Some(extensions_exp::x4()),
        "x5" => Some(extensions_exp::x5()),
        "x6" => Some(extensions_exp::x6()),
        "r1" => Some(fault_exp::r1()),
        "sched" => Some(sched_exp::sched()),
        "allport" => Some(allport_exp::allport()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run("t99").is_none());
    }

    #[test]
    fn ids_are_exhaustive() {
        // Every listed id resolves (running the cheap ones only would
        // still construct all closures; here we just check dispatch keys
        // without executing the heavy drivers).
        for id in ALL_IDS {
            assert!(
                matches!(
                    id,
                    "t1" | "t2"
                        | "t3"
                        | "t4"
                        | "t5"
                        | "f1"
                        | "f2"
                        | "f3"
                        | "f4"
                        | "x1"
                        | "x2"
                        | "x3"
                        | "x4"
                        | "x5"
                        | "x6"
                        | "r1"
                        | "sched"
                        | "allport"
                ),
                "{id} should be dispatchable"
            );
        }
    }

    #[test]
    fn descriptions_cover_every_id_in_order() {
        assert_eq!(DESCRIPTIONS.len(), ALL_IDS.len());
        for (&id, &(did, desc)) in ALL_IDS.iter().zip(DESCRIPTIONS.iter()) {
            assert_eq!(id, did, "DESCRIPTIONS must follow ALL_IDS order");
            assert!(!desc.is_empty());
        }
    }
}

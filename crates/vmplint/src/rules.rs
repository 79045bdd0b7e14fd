//! The repository-specific rules and their file scoping.
//!
//! Every rule protects an invariant the test suite asserts dynamically
//! (bit-identical payloads, clocks and counters — see DESIGN.md
//! § Static analysis & invariants); the pass makes the invariant
//! machine-checked at the source level so a violation is caught before
//! it can perturb a single run.

use crate::scan::{has_token, FileView};

/// A rule identifier, as written in waiver comments (`d1` … `p1`, plus
/// the meta-rule `w1` for malformed waivers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No `HashMap`/`HashSet` in simulator/primitive/layout code.
    D1,
    /// No host clocks or unseeded entropy outside `crates/bench`.
    D2,
    /// Slab storage is touched only through the `slab.rs` accessors.
    S1,
    /// No `unwrap`/`expect`/`todo!`/`unimplemented!` in hot paths.
    P1,
    /// Waiver hygiene: every waiver names a rule and a justification.
    W1,
}

impl RuleId {
    /// All enforceable rules, in report order.
    pub const ALL: [RuleId; 5] = [RuleId::D1, RuleId::D2, RuleId::S1, RuleId::P1, RuleId::W1];

    /// The short id used in waiver comments and reports.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            RuleId::D1 => "d1",
            RuleId::D2 => "d2",
            RuleId::S1 => "s1",
            RuleId::P1 => "p1",
            RuleId::W1 => "w1",
        }
    }

    /// Parse a waiver rule id (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim().to_ascii_lowercase().as_str() {
            "d1" => Some(RuleId::D1),
            "d2" => Some(RuleId::D2),
            "s1" => Some(RuleId::S1),
            "p1" => Some(RuleId::P1),
            "w1" => Some(RuleId::W1),
            _ => None,
        }
    }

    /// One-line description shown by `--list`.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "no std HashMap/HashSet in simulator, primitive or layout code \
                 (iteration-order nondeterminism; use BTreeMap or index tables)"
            }
            RuleId::D2 => {
                "no host clocks (Instant::now, SystemTime) or unseeded entropy \
                 (thread_rng, from_entropy) outside crates/bench and #[cfg(test)]"
            }
            RuleId::S1 => {
                "no direct offset-table indexing or manual split_at_mut on slab \
                 storage outside slab.rs (use pair_mut/push_seg_with/row accessors)"
            }
            RuleId::P1 => {
                "no unwrap()/expect()/todo!/unimplemented! in collective and \
                 primitive hot paths without a justified waiver"
            }
            RuleId::W1 => {
                "waiver hygiene: `// vmplint: allow(<rule>) — <justification>` \
                 must name a known rule and a non-empty justification"
            }
        }
    }
}

/// Which rules apply to a file. Produced by [`classify`] for workspace
/// scans; fixture scans use [`Scope::all`] so every rule can fire.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// D1/D2 apply (true for every scanned file).
    pub determinism: bool,
    /// S1 applies (everywhere except `slab.rs` itself).
    pub slab: bool,
    /// P1 applies (the curated hot-path set).
    pub panic_surface: bool,
}

impl Scope {
    /// Every rule armed — used for the fixture corpus.
    #[must_use]
    pub fn all() -> Self {
        Scope { determinism: true, slab: true, panic_surface: true }
    }
}

/// The crates swept by a workspace scan, relative to the root.
pub const SCANNED_CRATES: [&str; 5] = [
    "crates/hypercube/src",
    "crates/vmp/src",
    "crates/layout/src",
    "crates/algos/src",
    "crates/sched/src",
];

/// The hot-path files where the panic-surface rule (P1) is armed: the
/// machine's charging seam (every collective superstep is charged
/// there), the collective layer, the slab arena, the routing layer, the
/// four primitives and their per-node kernels, the distributed vector's
/// folds, the layout's grid geometry and vector embeddings (every
/// primitive asks them which node holds what), Gaussian elimination (the
/// longest-running application, thousands of supersteps per solve), and
/// the whole multi-tenant scheduler (its event loop must never unwind
/// mid-trace). An entry ending in `/` covers a directory; every entry
/// must name a path that exists, or P1 silently disarms (checked by
/// `every_listed_path_exists_in_the_workspace`).
const P1_HOT_PATHS: [&str; 17] = [
    "crates/hypercube/src/machine.rs",
    "crates/hypercube/src/collective/",
    "crates/hypercube/src/slab.rs",
    "crates/hypercube/src/spanning.rs",
    "crates/hypercube/src/route.rs",
    "crates/hypercube/src/router.rs",
    "crates/vmp/src/primitives/",
    "crates/vmp/src/scan.rs",
    "crates/vmp/src/shift.rs",
    "crates/vmp/src/remap.rs",
    "crates/vmp/src/indexing.rs",
    "crates/vmp/src/elementwise.rs",
    "crates/vmp/src/vector.rs",
    "crates/layout/src/grid.rs",
    "crates/layout/src/vector.rs",
    "crates/algos/src/gauss.rs",
    "crates/sched/src/",
];

/// Rule scoping for a workspace-relative path; `None` when the file is
/// outside the swept crates.
#[must_use]
pub fn classify(rel: &str) -> Option<Scope> {
    let rel = rel.replace('\\', "/");
    if !SCANNED_CRATES.iter().any(|c| rel.starts_with(c)) {
        return None;
    }
    Some(Scope {
        determinism: true,
        slab: rel != "crates/hypercube/src/slab.rs",
        panic_surface: P1_HOT_PATHS.iter().any(|p| rel.starts_with(p)),
    })
}

/// One raw (pre-waiver) finding on a line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    pub line: usize,
    pub what: String,
}

/// D1 patterns: hash collections whose iteration order is seeded per
/// process.
const D1_TOKENS: [&str; 2] = ["HashMap", "HashSet"];

/// D2 patterns: host clocks and unseeded entropy sources.
const D2_TOKENS: [&str; 6] =
    ["Instant::now", "SystemTime", "UNIX_EPOCH", "thread_rng", "from_entropy", "from_os_rng"];

/// S1 patterns: reaching around the slab accessors. `.offsets[` is the
/// private field (reachable within `vmp-hypercube`), `offsets()[` is
/// indexing the read-only table instead of using `seg`/`len_of`, and a
/// manual `split_at_mut` re-derives the aliasing argument `pair_mut`
/// already encapsulates.
const S1_TOKENS: [&str; 3] = [".offsets[", "offsets()[", "split_at_mut"];

/// P1 patterns: panics that would take down a whole collective from one
/// malformed element. Slice-index panics need type information a
/// lexical pass does not have; they are covered by the Miri job and the
/// slab accessors' own bounds discipline instead (DESIGN.md).
const P1_TOKENS: [&str; 4] = [".unwrap()", ".expect(", "todo!(", "unimplemented!("];

/// Run every armed rule over one file's lexical view. Test-span lines
/// are exempt (the rules protect production determinism; tests assert
/// it dynamically and may unwrap freely).
#[must_use]
pub fn check_file(view: &FileView, scope: Scope) -> Vec<Finding> {
    let mut findings = Vec::new();
    for line in 0..view.lines() {
        if view.is_test[line] {
            continue;
        }
        let code = &view.code[line];
        if code.is_empty() {
            continue;
        }
        if scope.determinism {
            for t in D1_TOKENS {
                if has_token(code, t) {
                    findings.push(Finding {
                        rule: RuleId::D1,
                        line,
                        what: format!("hash collection `{t}`"),
                    });
                }
            }
            for t in D2_TOKENS {
                if has_token(code, t) {
                    findings.push(Finding {
                        rule: RuleId::D2,
                        line,
                        what: format!("host clock / unseeded entropy `{t}`"),
                    });
                }
            }
        }
        if scope.slab {
            for t in S1_TOKENS {
                if has_token(code, t) {
                    findings.push(Finding {
                        rule: RuleId::S1,
                        line,
                        what: format!("slab storage reached around its accessors (`{t}`)"),
                    });
                }
            }
        }
        if scope.panic_surface {
            for t in P1_TOKENS {
                if has_token(code, t) {
                    findings.push(Finding {
                        rule: RuleId::P1,
                        line,
                        what: format!("panicking call `{t}` in a hot path"),
                    });
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes_the_sweep() {
        assert!(classify("crates/bench/src/lib.rs").is_none());
        assert!(classify("vendor/rand/src/lib.rs").is_none());
        let slab = classify("crates/hypercube/src/slab.rs").unwrap();
        assert!(!slab.slab, "slab.rs is exempt from S1");
        assert!(slab.panic_surface, "slab.rs is a P1 hot path");
        let layout = classify("crates/layout/src/shape.rs").unwrap();
        assert!(layout.determinism);
        assert!(layout.slab);
        assert!(!layout.panic_surface);
        for file in
            ["crates/vmp/src/vector.rs", "crates/layout/src/grid.rs", "crates/layout/src/vector.rs"]
        {
            assert!(classify(file).unwrap().panic_surface, "{file} must be a P1 hot path");
        }
        assert!(classify("crates/vmp/src/primitives/reduce.rs").unwrap().panic_surface);
        let sched = classify("crates/sched/src/sched.rs").unwrap();
        assert!(sched.determinism && sched.slab);
        assert!(sched.panic_surface, "the whole scheduler crate is a P1 hot path");
        let machine = classify("crates/hypercube/src/machine.rs").unwrap();
        assert!(machine.panic_surface, "the charging seam is a P1 hot path");
        // The all-port collective engine rides the collective/ prefix
        // and the spanning-tree entry: P1 and S1 both armed.
        for file in
            ["crates/hypercube/src/collective/broadcast.rs", "crates/hypercube/src/spanning.rs"]
        {
            let scope = classify(file).unwrap();
            assert!(scope.panic_surface, "{file} must be a P1 hot path");
            assert!(scope.slab, "{file} must keep S1 armed");
        }
    }

    /// A deleted or renamed file must not silently drop out of the
    /// sweep: every scanned crate and every P1 entry names a live path.
    #[test]
    fn every_listed_path_exists_in_the_workspace() {
        let root = crate::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
        for dir in SCANNED_CRATES {
            assert!(root.join(dir).is_dir(), "SCANNED_CRATES entry {dir} is not a directory");
        }
        for entry in P1_HOT_PATHS {
            let path = root.join(entry);
            let live = if entry.ends_with('/') { path.is_dir() } else { path.is_file() };
            assert!(live, "P1_HOT_PATHS entry {entry} does not exist");
            assert!(
                SCANNED_CRATES.iter().any(|c| entry.starts_with(c)),
                "P1_HOT_PATHS entry {entry} lies outside the scanned crates"
            );
        }
    }

    #[test]
    fn rules_fire_on_their_patterns() {
        let view = FileView::parse(
            "use std::collections::HashMap;\n\
             let t = Instant::now();\n\
             let o = slab.offsets()[3];\n\
             let v = x.unwrap();\n",
        );
        let findings = check_file(&view, Scope::all());
        let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec![RuleId::D1, RuleId::D2, RuleId::S1, RuleId::P1]);
    }

    #[test]
    fn strings_comments_and_tests_do_not_fire() {
        let view = FileView::parse(
            "// HashMap in prose, x.unwrap() too\n\
             let s = \"Instant::now()\";\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { x.unwrap(); }\n\
             }\n",
        );
        assert!(check_file(&view, Scope::all()).is_empty());
    }
}

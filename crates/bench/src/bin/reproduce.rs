//! Regenerate every table and figure of the reproduced evaluation.
//!
//! ```text
//! cargo run --release -p vmp-bench --bin reproduce            # everything
//! cargo run --release -p vmp-bench --bin reproduce -- t1 f4   # a subset
//! cargo run --release -p vmp-bench --bin reproduce -- r1      # fault sweep
//! cargo run --release -p vmp-bench --bin reproduce -- --list  # what exists
//! cargo run --release -p vmp-bench --bin reproduce -- --json out.json
//! cargo run --release -p vmp-bench --bin reproduce -- sched allport
//! ```
//!
//! `sched` and `allport` also rewrite `BENCH_sched.json` and
//! `BENCH_allport.json` in the working directory. Stdout and both
//! artifacts are golden files: CI diffs a full run against
//! `results_reproduce.txt` and the committed artifacts.
//!
//! Exit codes: 0 on success, 2 for unknown flags/ids or bad usage, 1
//! for I/O failures while writing `--json` output.

use std::io::Write;

use vmp_bench::experiments::{self, ALL_IDS, DESCRIPTIONS};
use vmp_bench::table::Table;

fn usage() -> String {
    format!(
        "usage: reproduce [--list] [--json PATH] [ID ...]\n\
         known experiment ids: {}\n\
         run with no ids to reproduce everything; --list describes each id;\n\
         sched and allport also write BENCH_sched.json and BENCH_allport.json\n\
         to the working directory",
        ALL_IDS.join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_path = it.next();
            if json_path.is_none() {
                eprintln!("--json requires a path\n{}", usage());
                std::process::exit(2);
            }
        } else if a == "--list" {
            for (id, desc) in DESCRIPTIONS {
                println!("{id:4} {desc}");
            }
            // Not an experiment, but part of reproducing the repo's
            // claims: the invariant linter shares this binary's exit
            // conventions (0 clean, 2 violations/bad usage, 1 I/O).
            println!(
                "\ntooling (not runnable from this binary):\n  \
                 vmplint   cargo run --release -p vmplint -- [--json PATH]   \
                 determinism/aliasing/panic-surface lint over the library crates"
            );
            return;
        } else if a == "--help" || a == "-h" {
            eprintln!("{}", usage());
            return;
        } else if a.starts_with('-') {
            eprintln!("unknown flag: {a}\n{}", usage());
            std::process::exit(2);
        } else {
            ids.push(a);
        }
    }
    // Validate up front so a typo late in the list doesn't waste a run.
    for id in &ids {
        if !ALL_IDS.contains(&id.to_ascii_lowercase().as_str()) {
            eprintln!("unknown experiment id: {id}\n{}", usage());
            std::process::exit(2);
        }
    }
    if ids.is_empty() {
        ids = ALL_IDS.iter().map(ToString::to_string).collect();
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(
        out,
        "Four Vector-Matrix Primitives (SPAA 1989) — evaluation reproduction\n\
         machine: simulated CM-2-model hypercube (see crates/hypercube/src/cost.rs)\n"
    )
    .expect("stdout");

    let mut tables: Vec<Table> = Vec::new();
    for id in &ids {
        match experiments::run(id) {
            Some(t) => {
                writeln!(out, "{}", t.render()).expect("stdout");
                tables.push(t);
            }
            None => {
                // Unreachable after up-front validation, but keep the
                // defence for direct library misuse.
                eprintln!("unknown experiment id: {id}\n{}", usage());
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&tables).expect("serialisable tables");
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        writeln!(out, "wrote {} tables to {path}", tables.len()).expect("stdout");
    }
}

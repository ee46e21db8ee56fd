//! Prints the paper-reproduction tables E1–E11. The renderer, the
//! drivers and the paper bound each table measures are in
//! `crates/harness/src/experiments.rs`. Simulated time only: the output
//! is deterministic per seed count, and
//! `crates/harness/tests/recorded_traces.rs` holds every table at the
//! default seed count to a recorded fold, so `cargo test` fails when a
//! cell moves.
//!
//! ```text
//! cargo run --release --example experiments -- [all|e1|…|e11] [--seeds N]
//! ```

use ssbyz::harness::experiments::{TABLES, TABLE_SEEDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut seeds = TABLE_SEEDS;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                seeds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seeds needs a number");
            }
            other => which = other.to_string(),
        }
        i += 1;
    }
    let selected: Vec<_> = TABLES
        .iter()
        .filter(|table| which == "all" || which == table.name)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = TABLES.iter().map(|table| table.name).collect();
        eprintln!(
            "unknown table {which:?}; valid names: all, {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
    for table in selected {
        print!("{}", table.render(seeds));
    }
}

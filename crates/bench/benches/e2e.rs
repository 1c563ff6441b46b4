//! `cargo bench --bench e2e` — the parse-once front-end and the
//! incremental detection cache vs the legacy per-statement front-end
//! (10k / 100k statements, 100 unique templates, 1% of statements edited
//! for the warm re-check).
//!
//! Prints the e2e table and writes the machine-readable results to
//! `BENCH_e2e.json` at the workspace root.

use sqlcheck_bench::experiments::e2e;
use std::path::Path;

fn main() {
    let sizes = [10_000usize, 100_000];
    let templates = 100;
    println!(
        "parse-once front-end e2e — {} templates, sizes {:?}, 1% edits",
        templates, sizes
    );
    let rows = e2e::run(&sizes, templates, 10, 0xE2E0);
    print!("{}", e2e::render(&rows));

    for r in &rows {
        assert!(
            r.identical,
            "{} statements: pipeline/warm output diverged from the legacy front-end",
            r.statements
        );
    }

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_e2e.json");
    std::fs::write(&out, e2e::to_json(&rows)).expect("write BENCH_e2e.json");
    println!("\nwrote {}", out.display());
}

//! `cargo bench --bench split_phase` — the deduping splitter vs the
//! two-pass reference (10k / 100k statements, 100 unique templates).
//!
//! Prints the split table and writes the machine-readable results to
//! `BENCH_split.json` at the workspace root.

use sqlcheck_bench::experiments::split;
use std::path::Path;

fn main() {
    let sizes = [10_000usize, 100_000];
    let templates = 100;
    println!("split phase — {templates} templates, sizes {sizes:?}");
    let rows = split::run(&sizes, templates, 0x5117);
    print!("{}", split::render(&rows));

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_split.json");
    std::fs::write(&out, split::to_json(&rows)).expect("write BENCH_split.json");
    println!("\nwrote {}", out.display());
}

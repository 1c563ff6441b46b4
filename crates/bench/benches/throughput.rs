//! `cargo bench --bench throughput` — the detection engine vs the
//! per-statement reference detector on template-heavy workloads (1k /
//! 10k / 100k statements, 100 unique templates).
//!
//! Prints a throughput table and writes the machine-readable results to
//! `BENCH_throughput.json` at the workspace root.

use sqlcheck_bench::experiments::throughput;
use std::path::Path;

fn main() {
    let sizes = [1_000usize, 10_000, 100_000];
    let templates = 100;
    println!(
        "batch detection throughput — {} templates, sizes {:?}",
        templates, sizes
    );
    let rows = throughput::run(&sizes, templates, 0xBA7C4);
    print!("{}", throughput::render(&rows));

    for r in &rows {
        assert!(
            r.identical,
            "{} statements: engine output diverged from the reference detector",
            r.statements
        );
    }

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_throughput.json");
    std::fs::write(&out, throughput::to_json(&rows)).expect("write BENCH_throughput.json");
    println!("\nwrote {}", out.display());
}

//! `expdriver` — regenerate every table and figure of the SQLCheck paper.
//!
//! ```text
//! expdriver all            # everything (default scales)
//! expdriver fig3           # Fig 3a–c   MVA task timings
//! expdriver fig7           # Fig 6/7    ranking model + Example 6
//! expdriver fig8           # Fig 8a–i   per-AP timings
//! expdriver table2         # Table 2    sqlcheck vs dbdeo accuracy; with --quick
//!                          # also gates sqlcheck precision/recall floors
//! expdriver table3         # Table 3    AP distributions (GitHub + study)
//! expdriver table4         # Table 4/7  Django applications
//! expdriver table5         # Table 5/6  Kaggle databases
//! expdriver table8         # Table 8    sqlcheck vs DETA features
//! expdriver user-study     # §8.3       acceptance statistics
//! expdriver incremental    # cold check_workload vs warm re-check: edit rates ×
//!                          # shapes, DDL edit          → BENCH_e2e.json
//! expdriver incremental-gate # CI gates: warm 1%-edit ≤ 0.35× cold pipeline,
//!                            # session VmHWM(1000 batches) ≤ 1.25× VmHWM(100)
//! expdriver phases         # engine vs per-statement reference, per-phase
//!                          # timing, plain + skewed   → BENCH_phases.json
//! expdriver split          # deduping splitter vs two-pass reference, and
//!                          # (count-allocs) ≤ 32 heap bytes per input byte
//!                          # building a context over the skewed shape
//!                          #                          → BENCH_split.json
//! expdriver corpus         # acceptance matrix: parse coverage on real corpora
//!                          #                          → BENCH_corpus.json
//! expdriver splitfile FILE # split configurations over a real dump (mmap'd)
//! expdriver fix-scaling    # CI gate: fix time at 10N repos ≤ 15× at N, and
//!                          # (count-allocs) ≤ 10k allocations fixing plain 100k
//!                          # and ≤ 1k writing its listing
//! ```
//!
//! Each `BENCH_*.json` artifact has one producer, listed above, and is
//! written into the current directory through one writer
//! ([`harness::write_artifact`]) by a full-scale run only. `--quick`
//! shrinks scales for a fast smoke run that prints its tables and writes
//! nothing.

use sqlcheck_bench::experiments::*;
use sqlcheck_bench::harness::{self, Json};
use sqlcheck_workload::github::CorpusConfig;
use sqlcheck_workload::globaleaks::Scale;
use sqlcheck_workload::user_study::StudyConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let positional: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    let what = positional.first().copied().unwrap_or("all");
    const EXPERIMENTS: &[&str] = &[
        "all", "fig3", "fig7", "fig8", "table2", "table3", "table4", "table5", "table8",
        "user-study", "incremental", "incremental-gate", "phases", "split", "corpus", "splitfile",
        "fix-scaling",
    ];
    if !EXPERIMENTS.contains(&what) {
        eprintln!("expdriver: unknown experiment {what:?}; one of: {}", EXPERIMENTS.join(", "));
        std::process::exit(2);
    }

    if what == "incremental-gate" {
        // Memory first: VmHWM is a process-wide peak, so the timing gate's
        // 100k-statement sessions would mask the session's own growth.
        section("Session memory gate — peak RSS after 1,000 edit batches vs after 100");
        let statements = if quick { 2_000 } else { 20_000 };
        match session_memory::run(statements, 0x3E30) {
            Some(r) => {
                println!(
                    "{} statements: VmHWM {:.1} MB after {} batches, {:.1} MB after {} \
                     ({:.2}x, ceiling {}x), {} fallback(s)",
                    r.statements,
                    r.hwm_early_kb as f64 / 1024.0,
                    session_memory::EARLY,
                    r.hwm_end_kb as f64 / 1024.0,
                    session_memory::BATCHES,
                    r.ratio(),
                    session_memory::CEILING,
                    r.fallbacks
                );
                assert!(r.identical, "warm session output diverged from a cold check of its script");
                assert_eq!(r.fallbacks, 0, "the edit batches must stay on the incremental path");
                assert!(
                    r.ratio() <= session_memory::CEILING,
                    "session peak RSS grew {:.2}x between batch {} and batch {} (ceiling {}x)",
                    r.ratio(),
                    session_memory::EARLY,
                    session_memory::BATCHES,
                    session_memory::CEILING
                );
                println!("gate ok: session memory plateaus");
            }
            None => println!(
                "memory gate skipped: VmHWM is not readable on this platform (/proc/self/status)"
            ),
        }

        // The CI ceiling on the delta-based warm re-check: the 1%-edit
        // warm recheck of a 100k-statement workload must come in at or
        // under 0.35× the cold pipeline, byte-identical to a cold check
        // of the edited script. No reference-context comparison — it
        // costs ~20x the pipeline and adds nothing to the ratio.
        section("Incremental gate — warm 1%-edit re-check vs cold pipeline");
        let n = if quick { 2_000 } else { 100_000 };
        let r = e2e::run_gate("plain", n, 100, 10, 0xE2E0);
        print!("{}", e2e::render(std::slice::from_ref(&r)));
        print!("{}", e2e::render_warm_phases(std::slice::from_ref(&r)));
        assert!(r.identical, "warm session output diverged from a cold check of the edited script");
        assert_eq!(r.fallbacks, 0, "the 1%-edit set must stay on the incremental path");
        // Timing ratio only at full scale: at smoke scale both sides are
        // sub-millisecond and the ratio is noise.
        if !quick {
            assert!(
                r.warm_vs_pipeline() <= 0.35,
                "warm re-check at {:.3}x of the cold pipeline exceeds the 0.35 ceiling \
                 (warm {}us vs pipeline {}us)",
                r.warm_vs_pipeline(),
                r.warm_micros,
                r.pipeline_micros
            );
            println!(
                "gate ok: warm {}us = {:.3}x of pipeline {}us (ceiling 0.35)",
                r.warm_micros,
                r.warm_vs_pipeline(),
                r.pipeline_micros
            );
        }
        return;
    }

    if what == "fix-scaling" {
        // Size-scaling gate for fix synthesis: 10x the GitHub corpus must
        // cost at most 15x the fix time. Linear is ~10x; a per-fix scan
        // of every statement (quadratic) is ~100x.
        section("Fix scaling — check, rank, fix on the GitHub corpus at N and 10N repos");
        let rows = fix_scaling::run(quick);
        print!("{}", fix_scaling::render(&rows));
        let ratio = fix_scaling::ratio(&rows);
        assert!(
            ratio <= fix_scaling::CEILING,
            "fix time at {} repos is {ratio:.1}x the time at {} repos (ceiling {}x)",
            rows[1].repositories,
            rows[0].repositories,
            fix_scaling::CEILING
        );
        println!("gate ok: 10x the corpus costs {ratio:.1}x the fix time (ceiling {}x)", fix_scaling::CEILING);
        // Allocation gates: fix synthesis once per unique text keeps the
        // plain shape's fix pass near its 100 unique texts' worth of
        // allocations, and the listing splices into one reused buffer
        // instead of formatting per detection (needs the count-allocs
        // build).
        match fix_scaling::plain_fix_allocs() {
            Some(row) => {
                println!(
                    "plain 100k: {} fixes, {} allocations in fix_all (ceiling {}), \
                     {} in write_listing (ceiling {})",
                    row.fixes,
                    row.allocs,
                    fix_scaling::ALLOC_CEILING,
                    row.render_allocs,
                    fix_scaling::RENDER_ALLOC_CEILING
                );
                assert!(
                    row.allocs <= fix_scaling::ALLOC_CEILING,
                    "fix_all made {} allocations on the plain shape (ceiling {})",
                    row.allocs,
                    fix_scaling::ALLOC_CEILING
                );
                assert!(
                    row.render_allocs <= fix_scaling::RENDER_ALLOC_CEILING,
                    "write_listing made {} allocations on the plain shape (ceiling {})",
                    row.render_allocs,
                    fix_scaling::RENDER_ALLOC_CEILING
                );
            }
            None => println!("allocation gate skipped (build with --features count-allocs)"),
        }
        return;
    }

    if what == "splitfile" {
        let Some(&path) = positional.get(1) else {
            eprintln!("expdriver splitfile: missing FILE argument");
            std::process::exit(2);
        };
        // Memory-mapped on Unix: the splitter reads the page cache
        // directly, so dump size is bounded by address space, not RAM.
        let script = match sqlcheck::input::read_script(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("expdriver splitfile: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        section("Split — external script (deduped vs reference, byte-identity gated)");
        println!(
            "{} bytes from {path} ({})",
            script.len(),
            if script.is_mapped() { "memory-mapped" } else { "buffered read" },
        );
        let rows = vec![split::run_script(&script)];
        print!("{}", split::render(&rows));
        return;
    }

    let run_all = what == "all";
    if run_all || what == "fig3" {
        section("Figure 3 — Multi-Valued Attribute AP (GlobaLeaks tasks)");
        let scale = if quick {
            Scale { users: 2_000, tenants: 200, memberships: 2, seed: 0x61EA }
        } else {
            Scale::default()
        };
        let t = fig3::run(scale, 5);
        println!("{}", t.report());
        println!("(paper: 636x / 256x / 193x on PostgreSQL with 10M rows)");
    }
    if run_all || what == "fig7" {
        section("Figures 6 & 7 — ranking model (Example 6)");
        print!("{}", fig7::render_example6());
    }
    if run_all || what == "fig8" {
        section("Figure 8 — per-AP performance impact");
        let scale = if quick {
            fig8::Fig8Scale { rows: 5_000, seed: 0xF18 }
        } else {
            fig8::Fig8Scale::default()
        };
        let t = fig8::run(scale, if quick { 2 } else { 5 });
        println!("{}", t.report());
        println!(
            "(paper: 8a ~10x, 8b ~1.3x, 8c index LOSES, 8d/8e ~1x, 8f 142x, 8g >1000x, 8h >100x, 8i ~1x)"
        );
    }
    let table2_result = if run_all || what == "table2" || what == "table3" {
        let cfg = if quick {
            CorpusConfig { repositories: 60, statements_per_repo: 60, seed: 0x9178B }
        } else {
            CorpusConfig { repositories: 400, statements_per_repo: 124, seed: 0x9178B }
        };
        Some(table2::run(cfg))
    } else {
        None
    };
    if run_all || what == "table2" {
        section("Table 2 — detection of anti-patterns (sqlcheck vs dbdeo)");
        let result = table2_result.as_ref().unwrap();
        print!("{}", table2::render(result));
        // The floors hold for the `--quick` corpus only.
        if quick {
            if let Err(e) = table2::check_floors(result, &table2::QUICK_FLOORS) {
                panic!("sqlcheck accuracy fell below its floors: {e}");
            }
            println!("gate ok: sqlcheck precision and recall at or above their floors");
        }
    }
    if run_all || what == "table3" {
        section("Table 3 — AP distribution: GitHub corpus (D vs S)");
        print!("{}", table2::render_histogram(table2_result.as_ref().unwrap()));
        section("Table 3 — AP distribution: user study (D vs S)");
        let cfg = if quick {
            StudyConfig { participants: 8, total_statements: 320, seed: 0xB1CE }
        } else {
            StudyConfig::default()
        };
        let dist = table345::user_study_distribution(cfg);
        print!("{}", table345::render_user_study_distribution(&dist));
    }
    if run_all || what == "table4" {
        section("Table 4 / Table 7 — Django web applications");
        print!("{}", table345::render_django(&table345::django_rows()));
    }
    if run_all || what == "table5" {
        section("Table 5 / Table 6 — Kaggle databases (data analysis only)");
        print!("{}", table345::render_kaggle(&table345::kaggle_rows()));
    }
    if run_all || what == "table8" {
        section("Table 8 — sqlcheck vs Microsoft DETA");
        print!("{}", fig7::render_table8());
    }
    if run_all || what == "incremental" {
        section("Incremental — warm re-check sweep: edit fraction × workload shape");
        let (n, rates, shapes): (usize, &[usize], &[&str]) = if quick {
            (2_000, &[10, 100], &["plain", "trigger"])
        } else {
            // 0.1% / 1% / 10% edits across every workload shape — the
            // O(edits) claim as a measured curve, not one point.
            (100_000, &[1, 10, 100], &["plain", "trigger", "skewed"])
        };
        let rows = e2e::run_sweep(n, 100, rates, shapes, 0xE2E0);
        print!("{}", e2e::render(&rows));
        print!("{}", e2e::render_warm_phases(&rows));
        // Byte-identity is the pipeline's correctness contract; CI runs
        // the quick scales specifically to catch a divergence.
        for r in &rows {
            assert!(
                r.identical,
                "{} {} statements / {} edited: pipeline or warm output diverged from reference",
                r.workload, r.statements, r.edited
            );
            assert_eq!(
                r.fallbacks, 0,
                "{} at {}permille: warm session fell back to a full rebuild",
                r.workload, r.edit_permille
            );
        }
        // Full-scale ceiling (also gated standalone by `incremental-gate`):
        // warm 1%-edit re-check ≤ 0.35× the cold pipeline on the plain row.
        if !quick {
            let g = rows
                .iter()
                .find(|r| r.workload == "plain" && r.edit_permille == 10)
                .expect("the sweep includes the plain 1% row");
            assert!(
                g.warm_vs_pipeline() <= 0.35,
                "warm re-check at {:.3}x of the cold pipeline exceeds the 0.35 ceiling",
                g.warm_vs_pipeline()
            );
        }
        // A DDL edit to one table patches the session in place: no
        // rebuild, and output identical to a cold check.
        let ddl = e2e::run_ddl_edit(if quick { 2_000 } else { 20_000 }, 10, 0xDD1);
        print!("{}", e2e::render_ddl_edit(&ddl));
        assert!(ddl.identical, "DDL-edit warm re-check diverged from cold check");
        assert_eq!(
            (ddl.fallbacks, ddl.cold_reverts),
            (0, 0),
            "the DDL-edit re-check rebuilt the session instead of patching it"
        );
        write_artifact(
            quick,
            "BENCH_e2e.json",
            "parse_once_frontend_e2e",
            rows.iter().map(e2e::json_row),
        );
    }
    if run_all || what == "phases" {
        section("Phases — detection engine vs per-statement reference, per-phase timing");
        let sizes: &[usize] = if quick { &[1_000] } else { &[10_000, 100_000] };
        let rows = phases::run(sizes, 64, 0x9A5E5);
        print!("{}", phases::render(&rows));
        for r in &rows {
            assert!(
                r.identical,
                "{} {} statements: engine output diverged from the reference detector",
                r.workload, r.statements
            );
        }
        write_artifact(
            quick,
            "BENCH_phases.json",
            "batch_detection_phases",
            rows.iter().map(phases::json_row),
        );
    }
    if run_all || what == "split" {
        section("Split — deduping splitter vs two-pass reference");
        let sizes: &[usize] = if quick { &[2_000] } else { &[10_000, 100_000] };
        let rows = split::run(sizes, 100, 0x5117);
        print!("{}", split::render(&rows));
        // `run` asserts both configurations agree before timing;
        // reaching this point means the byte-identity gate passed.

        // Front-end memory gate: a unique text keeps only its source,
        // tree, annotations and diagnostics, so one context build over
        // the unique-heavy skewed shape holds a bounded amount of heap
        // per input byte (needs the count-allocs build).
        section("Front-end memory — peak heap of one context build over the skewed shape");
        match split::frontend_memory() {
            Some(m) => {
                println!(
                    "skewed {} statements, {} bytes: peak heap {:.1} MB = {:.1} bytes per input \
                     byte (ceiling {})",
                    split::FRONTEND_MEMORY_STATEMENTS,
                    m.bytes,
                    m.peak_heap_bytes as f64 / (1024.0 * 1024.0),
                    m.per_input_byte(),
                    split::FRONTEND_HEAP_PER_BYTE_CEILING
                );
                assert!(
                    m.per_input_byte() <= split::FRONTEND_HEAP_PER_BYTE_CEILING,
                    "context build held {:.1} heap bytes per input byte (ceiling {})",
                    m.per_input_byte(),
                    split::FRONTEND_HEAP_PER_BYTE_CEILING
                );
                println!("gate ok: front-end heap stays under the per-byte ceiling");
            }
            None => println!("front-end memory gate skipped (build with --features count-allocs)"),
        }
        write_artifact(quick, "BENCH_split.json", "split_phase", rows.iter().map(split::json_row));
    }
    if run_all || what == "corpus" {
        section("Corpus — acceptance matrix: parse coverage + degradation by corpus");
        let rows = corpus::run(quick);
        print!("{}", corpus::render(&rows));
        // CI gate: per-corpus parse-coverage floors and zero isolated rule
        // failures; panics (non-zero exit) on violation.
        corpus::assert_floors(&rows);
        write_artifact(
            quick,
            "BENCH_corpus.json",
            "corpus_acceptance_matrix",
            rows.iter().map(corpus::json_row),
        );
    }
    if run_all || what == "user-study" {
        section("§8.3 — user study acceptance statistics");
        let cfg = if quick {
            StudyConfig { participants: 8, total_statements: 320, seed: 0xB1CE }
        } else {
            StudyConfig::default()
        };
        print!("{}", table345::render_user_study_stats(&table345::user_study_stats(cfg)));
    }
}

fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Write a full-scale artifact through the one JSON writer. A `--quick`
/// run writes nothing, so a smoke run never replaces the committed
/// full-scale numbers.
fn write_artifact(quick: bool, path: &str, experiment: &str, rows: impl Iterator<Item = Json>) {
    if quick {
        println!("--quick: {path} not written (full-scale runs only)");
    } else {
        harness::write_artifact(path, experiment, rows);
    }
}

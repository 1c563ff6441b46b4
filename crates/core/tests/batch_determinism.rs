//! Property test (satellite of the batch-engine PR): on randomized
//! scripts full of duplicate templates, `Detector::detect_batch` must
//! return **byte-identical detections, in the same order**, as the
//! sequential per-statement path.
//!
//! The build environment has no access to the `proptest` crate, so the
//! property runs over deterministically generated random scripts: same
//! seeds, same cases, every run.

use sqlcheck::detect::reference;
use sqlcheck::{ContextBuilder, DetectionConfig, Detector, FrontendOptions, IncrementalCache};
use sqlcheck_minidb::stats::SmallRng;

/// Build a random script that is heavy on duplicate templates: a small
/// pool of statement shapes, instantiated with a small pool of literals
/// (so exact duplicates, literal-only variants, and case/whitespace
/// variants all occur), in random order, with some DDL mixed in.
fn random_script(rng: &mut SmallRng, statements: usize) -> String {
    let n_tables = 1 + rng.gen_range(4);
    let tables: Vec<String> = (0..n_tables).map(|i| format!("tab{i}")).collect();
    let mut script = String::new();
    for (i, t) in tables.iter().enumerate() {
        // Some tables get primary keys, some don't; one gets a FLOAT.
        if i % 2 == 0 {
            script.push_str(&format!(
                "CREATE TABLE {t} (id INT PRIMARY KEY, name TEXT, price FLOAT, user_ids TEXT);\n"
            ));
        } else {
            script.push_str(&format!("CREATE TABLE {t} (a INT, b TEXT);\n"));
        }
    }
    // Literal pools kept tiny so duplicates dominate; pattern literals
    // include both AP-triggering (leading-wildcard) and benign shapes —
    // the pair shares a fingerprint but must not share detections.
    let lits = ["1", "2", "42"];
    let pats = ["'%x%'", "'x%'", "'[[:<:]]U1[[:>:]]'", "'U1,U2,U3'"];
    for _ in 0..statements {
        let t = &tables[rng.gen_range(tables.len())];
        let stmt = match rng.gen_range(8) {
            0 => format!("SELECT * FROM {t} WHERE id = {}", lits[rng.gen_range(lits.len())]),
            1 => format!("select * from {t} where id = {}", lits[rng.gen_range(lits.len())]),
            2 => format!("SELECT name FROM {t} WHERE name LIKE {}", pats[rng.gen_range(pats.len())]),
            3 => format!("INSERT INTO {t} VALUES ({}, 'v', 1.5, {})",
                lits[rng.gen_range(lits.len())], pats[rng.gen_range(pats.len())]),
            4 => format!(
                "SELECT DISTINCT a.id FROM {t} a JOIN {t} b ON a.id = b.id WHERE a.id > {}",
                lits[rng.gen_range(lits.len())]
            ),
            5 => format!("UPDATE {t} SET name = {} WHERE id = {}",
                pats[rng.gen_range(pats.len())], lits[rng.gen_range(lits.len())]),
            6 => format!("SELECT * FROM {t}   WHERE  id IN ({}, {})",
                lits[rng.gen_range(lits.len())], lits[rng.gen_range(lits.len())]),
            _ => format!("SELECT * FROM {t} ORDER BY RANDOM()"),
        };
        script.push_str(&stmt);
        script.push_str(";\n");
    }
    script
}

fn detections_debug(r: &sqlcheck::Report) -> Vec<String> {
    r.detections.iter().map(|d| format!("{d:?}")).collect()
}

fn assert_batch_matches(det: &Detector, script: &str, label: &str) {
    let ctx = ContextBuilder::new().add_script(script).build();
    let seq = detections_debug(&reference::detect(&ctx, &det.cfg));
    let batch = det.detect_batch(&ctx);
    let got = detections_debug(&batch.report);
    assert_eq!(seq, got, "{label}: batch must be byte-identical to sequential");
    // Order within the report is part of the contract, and so is the
    // fan-out bookkeeping.
    assert_eq!(batch.stats.statements, ctx.len(), "{label}");
    assert_eq!(
        batch.stats.cache_hits,
        batch.stats.statements - batch.stats.unique_texts,
        "{label}"
    );
    assert!(batch.stats.unique_templates <= batch.stats.unique_texts, "{label}");
}

/// The core property, across many random scripts and both detector
/// configurations (full and intra-only).
#[test]
fn detect_batch_is_byte_identical_to_sequential() {
    let mut rng = SmallRng::new(0xBA7C4);
    for case in 0..40 {
        let statements = 20 + rng.gen_range(120);
        let script = random_script(&mut rng, statements);
        assert_batch_matches(&Detector::default(), &script, &format!("case {case} full"));
        assert_batch_matches(
            &Detector::new(DetectionConfig::intra_only()),
            &script,
            &format!("case {case} intra"),
        );
    }
}

/// Randomly edit some statements of a script (one per line), producing
/// texts the original never contained. DDL lines are left alone so the
/// schema — and with it the cache epoch — stays stable; the dedicated
/// test below covers schema-changing edits.
fn edit_lines(script: &str, rng: &mut SmallRng) -> String {
    let mut out = String::new();
    for (i, line) in script.lines().enumerate() {
        let ddl = line.starts_with("CREATE") || line.starts_with("ALTER");
        if !line.is_empty() && !ddl && rng.gen_range(10) == 0 {
            out.push_str(&format!("SELECT * FROM tab0 WHERE id = {};\n", 7_000_000 + i));
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Cold sequential reference: legacy front-end (per-statement parse, no
/// sharing) + per-statement detection.
fn cold_reference(det: &Detector, script: &str) -> Vec<String> {
    let ctx = ContextBuilder::new()
        .with_frontend(FrontendOptions::legacy())
        .add_script(script)
        .build();
    detections_debug(&reference::detect(&ctx, &det.cfg))
}

/// Property (satellite of the parse-once PR): parse-dedup plus a cached
/// re-check must stay byte-identical to a cold sequential `check_script`
/// on randomized duplicate-heavy scripts — across edits and
/// detector-config switches (which must flush the cache, not poison
/// it).
#[test]
fn cached_recheck_is_byte_identical_to_cold_sequential() {
    let mut rng = SmallRng::new(0x1AC);
    for case in 0..12 {
        let statements = 40 + rng.gen_range(120);
        let script = random_script(&mut rng, statements);
        let edited = edit_lines(&script, &mut rng);
        let det = Detector::default();
        let cache = IncrementalCache::new(4096);

        for (round, (sql, label)) in
            [(&script, "cold"), (&edited, "edited"), (&script, "back")].iter().enumerate()
        {
            let ctx = ContextBuilder::new().add_script(sql).build();
            let got = detections_debug(&det.detect_batch_with(&ctx, Some(&cache)).report);
            assert_eq!(
                cold_reference(&det, sql),
                got,
                "case {case} round {round} ({label}): cached batch must equal cold sequential"
            );
        }
        // Rounds 2 and 3 revisit texts the cache has seen: hits required.
        let c = cache.counters();
        assert!(c.hits > 0, "case {case}: warm rounds must hit the cache");

        // A config switch invalidates the epoch; results must follow the
        // new config, not the cached one.
        let intra = Detector::new(DetectionConfig::intra_only());
        let ctx = ContextBuilder::new().add_script(&edited).build();
        let got = detections_debug(
            &intra.detect_batch_with(&ctx, Some(&cache)).report,
        );
        assert_eq!(
            cold_reference(&intra, &edited),
            got,
            "case {case}: config switch must flush, not replay stale entries"
        );
        assert!(cache.counters().evictions > 0, "case {case}: epoch flush counted");
    }
}

/// DDL edits change the schema context, which contextual intra rules
/// depend on — the cache must flush (epoch change) and re-detect.
#[test]
fn schema_edit_invalidates_cached_suppressions() {
    // `tab` has no PK: No Primary Key fires on the CREATE; adding an
    // ALTER later suppresses it. The SELECT's detections are cacheable
    // either way, but the suppression decision depends on the schema.
    let v1 = "CREATE TABLE tab (a INT);\nSELECT * FROM tab WHERE a = 1;\n";
    let v2 = "CREATE TABLE tab (a INT);\nALTER TABLE tab ADD CONSTRAINT pk PRIMARY KEY (a);\nSELECT * FROM tab WHERE a = 1;\n";
    let det = Detector::default();
    let cache = IncrementalCache::new(64);
    for sql in [v1, v2, v1] {
        let ctx = ContextBuilder::new().add_script(sql).build();
        let got = detections_debug(
            &det.detect_batch_with(&ctx, Some(&cache)).report,
        );
        assert_eq!(cold_reference(&det, sql), got, "schema change must invalidate");
    }
}

/// A small database over the `tab{i}` tables the random scripts use, so
/// the data-analysis phase has profiles to inspect.
fn sample_database(rng: &mut SmallRng) -> sqlcheck_minidb::database::Database {
    use sqlcheck_minidb::prelude::*;
    let mut db = Database::new();
    for i in 0..(2 + rng.gen_range(3)) {
        let name = format!("dbt{i}");
        db.create_table(
            TableSchema::new(&name)
                .column(Column::new("id", DataType::Int).not_null())
                .column(Column::new("role", DataType::Text))
                .column(Column::new("price", DataType::Float))
                .primary_key(&["id"]),
        )
        .unwrap();
        for r in 0..40 {
            db.insert(
                &name,
                vec![
                    Value::Int(r),
                    Value::text(format!("R{}", r % 3)),
                    Value::Float(r as f64 * 0.5),
                ],
            )
            .unwrap();
        }
    }
    db
}

/// Three-phase property: with the inter-query and data-analysis phases
/// sliced into per-rule and per-table units, the batch path must stay
/// byte-identical to the sequential path — **with a database attached**,
/// so all three phases do real work (the tests above never exercise the
/// data phase).
#[test]
fn inter_and_data_phases_identical_to_sequential() {
    use sqlcheck::DataAnalysisConfig;
    let mut rng = SmallRng::new(0x3F4A5E);
    for case in 0..12 {
        let n = 30 + rng.gen_range(90);
        let script = random_script(&mut rng, n);
        let db = sample_database(&mut rng);
        let ctx = ContextBuilder::new()
            .add_script(&script)
            .with_database(db, DataAnalysisConfig::default())
            .build();
        assert!(ctx.has_data(), "case {case}: data phase must be live");
        let det = Detector::default();
        let seq = reference::detect(&ctx, &det.cfg);
        assert!(
            seq.detections
                .iter()
                .any(|d| d.source == sqlcheck::DetectionSource::DataAnalysis),
            "case {case}: data rules must fire"
        );
        assert!(
            seq.detections
                .iter()
                .any(|d| d.source == sqlcheck::DetectionSource::InterQuery),
            "case {case}: inter rules must fire"
        );
        assert_eq!(
            detections_debug(&seq),
            detections_debug(&det.detect_batch(&ctx).report),
            "case {case}: three-phase batch must equal sequential"
        );
    }
}

/// Per-table invalidation safety: across random DDL edits — add a
/// column, add an index, drop a table — a cached re-check must never
/// serve a stale result. Compared against a cold legacy-front-end check
/// on every round.
#[test]
fn per_table_invalidation_never_serves_stale_results() {
    let mut rng = SmallRng::new(0x7AB1E);
    for case in 0..10 {
        let n = 40 + rng.gen_range(80);
        let base = random_script(&mut rng, n);
        let det = Detector::default();
        let cache = IncrementalCache::new(4096);
        let mut script = base.clone();
        for round in 0..5 {
            // Random DDL mutation of one table per round (the statement
            // stream is untouched, so unrelated entries could survive).
            match rng.gen_range(4) {
                0 => script.push_str(&format!(
                    "ALTER TABLE tab0 ADD COLUMN extra{round} INT;\n"
                )),
                1 => script.push_str(&format!(
                    "CREATE INDEX ix{case}_{round} ON tab0 (b);\n"
                )),
                2 => script.push_str(&format!(
                    "CREATE TABLE fresh{case}_{round} (x INT);\n"
                )),
                _ => { /* no DDL change this round */ }
            }
            let ctx = ContextBuilder::new().add_script(&script).build();
            let got = detections_debug(
                &det.detect_batch_with(&ctx, Some(&cache)).report,
            );
            assert_eq!(
                cold_reference(&det, &script),
                got,
                "case {case} round {round}: cached re-check after DDL edits must equal cold"
            );
        }
        assert!(cache.counters().hits > 0, "case {case}: re-checks must hit the cache");
    }
}

/// Per-table invalidation effectiveness: a DDL edit to one table keeps
/// every entry that only depends on other tables (hits), while entries on
/// the edited table re-analyse (misses) — and a content-identical schema
/// keeps the whole cache warm.
#[test]
fn ddl_edit_to_one_table_keeps_unrelated_entries() {
    let ddl = "CREATE TABLE hot (id INT PRIMARY KEY, v TEXT);\n\
               CREATE TABLE cold1 (id INT PRIMARY KEY, v TEXT);\n\
               CREATE TABLE cold2 (id INT PRIMARY KEY, v TEXT);\n";
    let mut body = String::new();
    for i in 0..30 {
        body.push_str(&format!("SELECT * FROM cold1 WHERE id = {i};\n"));
        body.push_str(&format!("SELECT * FROM cold2 WHERE id = {i};\n"));
        body.push_str(&format!("SELECT * FROM hot WHERE id = {i};\n"));
    }
    let script = format!("{ddl}{body}");
    let edited = script.replace(
        "CREATE TABLE hot (id INT PRIMARY KEY, v TEXT);",
        "CREATE TABLE hot (id INT PRIMARY KEY, v TEXT, w INT);",
    );
    let det = Detector::default();
    let cache = IncrementalCache::new(4096);

    // Prime, then a no-op re-check: identical schema must keep the cache
    // fully warm (every unique text hits; zero evictions).
    let ctx = ContextBuilder::new().add_script(&script).build();
    let first = det.detect_batch_with(&ctx, Some(&cache));
    assert_eq!(first.stats.incremental_hits, 0);
    let ctx2 = ContextBuilder::new().add_script(&script).build();
    let warm = det.detect_batch_with(&ctx2, Some(&cache));
    assert_eq!(
        warm.stats.incremental_misses, 0,
        "content-identical schema reload must not flush the cache"
    );
    assert_eq!(warm.stats.incremental_evictions, 0);
    assert!(warm.stats.incremental_hits > 0);

    // ADD COLUMN to `hot`: with column-granular dependency tracking,
    // even the entries on `hot` survive — they only read `hot.id`,
    // whose digest (and the table core) the edit leaves unchanged. Only
    // the edited DDL text itself is new work.
    let ctx3 = ContextBuilder::new().add_script(&edited).build();
    let after = det.detect_batch_with(&ctx3, Some(&cache));
    assert_eq!(
        detections_debug(&after.report),
        cold_reference(&det, &edited),
        "output after DDL edit must match a cold check"
    );
    assert!(
        after.stats.incremental_hits >= 90,
        "ADD COLUMN must keep entries on untouched columns warm (even on the edited table), got {} hits",
        after.stats.incremental_hits
    );
    assert!(
        after.stats.incremental_misses <= 2,
        "only the edited DDL text re-analyses, got {} misses",
        after.stats.incremental_misses
    );
    assert!(
        after.stats.table_evictions >= 1,
        "the old CREATE TABLE entry (whole-table dep) must drop"
    );

    // Edit the column the statements actually read (`hot.id` changes
    // type): now the `hot` entries are stale and must re-analyse, while
    // cold1/cold2 still survive.
    let retyped = edited.replace(
        "CREATE TABLE hot (id INT PRIMARY KEY, v TEXT, w INT);",
        "CREATE TABLE hot (id BIGINT PRIMARY KEY, v TEXT, w INT);",
    );
    let ctx4 = ContextBuilder::new().add_script(&retyped).build();
    let after2 = det.detect_batch_with(&ctx4, Some(&cache));
    assert_eq!(
        detections_debug(&after2.report),
        cold_reference(&det, &retyped),
        "output after column-type edit must match a cold check"
    );
    assert!(
        after2.stats.incremental_hits >= 60,
        "entries on unedited tables must survive, got {} hits",
        after2.stats.incremental_hits
    );
    assert!(
        after2.stats.incremental_misses >= 30,
        "entries reading the edited column must be invalidated, got {} misses",
        after2.stats.incremental_misses
    );
    assert!(
        after2.stats.column_evictions >= 30,
        "column-dep evictions must be classified, got {}",
        after2.stats.column_evictions
    );
}

/// Duplicate-template-heavy scripts must actually exercise the dedup
/// cache (the property above would pass vacuously on all-unique scripts).
#[test]
fn random_scripts_contain_duplicates() {
    let mut rng = SmallRng::new(0xD0D0);
    let script = random_script(&mut rng, 200);
    let ctx = ContextBuilder::new().add_script(&script).build();
    let b = Detector::default().detect_batch(&ctx);
    assert!(
        b.stats.cache_hits > 50,
        "expected heavy duplication, got {} hits over {} statements",
        b.stats.cache_hits,
        b.stats.statements
    );
    assert!(b.stats.unique_templates < b.stats.unique_texts, "literal variants must fold");
}

//! Property test (satellite of the batch-engine PR): on randomized
//! scripts full of duplicate templates, `Detector::detect_batch` must
//! return **byte-identical detections, in the same order**, as the
//! sequential per-statement path.
//!
//! The build environment has no access to the `proptest` crate, so the
//! property runs over deterministically generated random scripts: same
//! seeds, same cases, every run.

use sqlcheck::detect::reference;
use sqlcheck::{ContextBuilder, DetectionConfig, Detector, Edit, FrontendOptions, SqlCheck};
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
/// texts the original never contained, with the edits that put the
/// originals back. DDL lines are left alone so the schema stays stable;
/// the dedicated tests below cover schema-changing edits.
fn edit_lines(script: &str, rng: &mut SmallRng) -> (Vec<Edit>, Vec<Edit>) {
    let (mut edits, mut originals) = (Vec::new(), Vec::new());
    for (i, line) in script.lines().enumerate() {
        let ddl = line.starts_with("CREATE") || line.starts_with("ALTER");
        if !line.is_empty() && !ddl && rng.gen_range(10) == 0 {
            edits.push(Edit::new(i, format!("SELECT * FROM tab0 WHERE id = {}", 7_000_000 + i)));
            originals.push(Edit::new(i, line.trim_end_matches(';')));
        }
    }
    (edits, originals)
}

/// Cold sequential reference: per-occurrence reference context (no
/// sharing) + per-statement detection.
fn cold_reference(det: &Detector, script: &str) -> Vec<String> {
    let ctx = reference::context(script, &FrontendOptions::default());
    detections_debug(&reference::detect(&ctx, &det.cfg))
}

/// Detections of a session's current outcome.
fn session_output(session: &sqlcheck::CheckSession) -> Vec<String> {
    detections_debug(&session.outcome().outcome.report)
}

/// Property: a session re-checked through random edits and their revert
/// must stay byte-identical to a cold sequential check of its script on
/// randomized duplicate-heavy scripts — under both detector configs.
#[test]
fn session_recheck_is_byte_identical_to_cold_sequential() {
    let mut rng = SmallRng::new(0x1AC);
    for case in 0..12 {
        let statements = 40 + rng.gen_range(120);
        let script = random_script(&mut rng, statements);
        let (edits, originals) = edit_lines(&script, &mut rng);
        for (det, tool) in [
            (Detector::default(), SqlCheck::new()),
            (Detector::new(DetectionConfig::intra_only()), SqlCheck::new().intra_only()),
        ] {
            let mut session = tool.into_session(script.clone(), FrontendOptions::default());
            for (round, (label, batch)) in
                [("cold", &[][..]), ("edited", &edits), ("back", &originals)].iter().enumerate()
            {
                session.recheck(batch);
                assert_eq!(
                    cold_reference(&det, session.script()),
                    session_output(&session),
                    "case {case} round {round} ({label}): session must equal cold sequential"
                );
            }
            assert_eq!(session.script(), script, "case {case}: the revert restores the script");
            assert_eq!(session.fallbacks(), 0, "case {case}");
        }
    }
}

/// DDL edits change the schema context, which contextual intra rules
/// depend on: a session re-check must re-detect and flip suppressions.
#[test]
fn schema_edit_flips_suppressions_through_rechecks() {
    // `tab` has no PK: No Primary Key fires on the CREATE; turning a
    // query into an ALTER that adds one suppresses it.
    let filler: String = (0..10).map(|i| format!("SELECT a FROM tab WHERE a = {i};\n")).collect();
    let v1 = format!("CREATE TABLE tab (a INT);\nSELECT * FROM tab WHERE a = 1;\n{filler}");
    let alter = "ALTER TABLE tab ADD CONSTRAINT pk PRIMARY KEY (a)";
    let query = "SELECT * FROM tab WHERE a = 1";
    let det = Detector::default();
    let mut session = SqlCheck::new().into_session(v1.clone(), FrontendOptions::default());
    let no_pk = |s: &sqlcheck::CheckSession| {
        s.outcome().outcome.report.count(sqlcheck::AntiPatternKind::NoPrimaryKey)
    };
    assert!(no_pk(&session) > 0);
    for (round, text) in [alter, query].into_iter().enumerate() {
        session.recheck(&[Edit::new(1, text)]);
        assert_eq!(
            cold_reference(&det, session.script()),
            session_output(&session),
            "round {round}: schema change must re-detect"
        );
        assert_eq!(no_pk(&session) > 0, text == query, "round {round}");
    }
    assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0));
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

/// Across random DDL edits — add a column, add an index, add a table —
/// a session re-check must never serve a stale result. Compared against
/// a cold reference check on every round.
#[test]
fn ddl_edit_rounds_never_serve_stale_results() {
    let mut rng = SmallRng::new(0x7AB1E);
    for case in 0..10 {
        let n = 40 + rng.gen_range(80);
        let base = random_script(&mut rng, n);
        let det = Detector::default();
        // Five trailing statements each round may turn into DDL.
        let slots: String = (0..5).map(|k| format!("SELECT b FROM tab0 WHERE b = '{k}';\n")).collect();
        let mut session =
            SqlCheck::new().into_session(format!("{base}{slots}"), FrontendOptions::default());
        let last = session.outcome().stats.statements - 5;
        for round in 0..5 {
            // Random DDL mutation of one table per round (the other
            // statements are untouched).
            let ddl = match rng.gen_range(4) {
                0 => format!("ALTER TABLE tab0 ADD COLUMN extra{round} INT"),
                1 => format!("CREATE INDEX ix{case}_{round} ON tab0 (b)"),
                2 => format!("CREATE TABLE fresh{case}_{round} (x INT)"),
                _ => continue, // no DDL change this round
            };
            session.recheck(&[Edit::new(last + round, ddl)]);
            assert_eq!(
                cold_reference(&det, session.script()),
                session_output(&session),
                "case {case} round {round}: re-check after DDL edits must equal cold"
            );
        }
        assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0), "case {case}");
    }
}

/// A DDL edit to one table keeps the report entries of every statement
/// whose detections it cannot change: they move instead of re-emitting.
/// A content-identical DDL edit re-emits only itself.
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
    let det = Detector::default();
    let mut session = SqlCheck::new().into_session(script.clone(), FrontendOptions::default());
    let rounds = [
        // Content-identical: the schema does not change.
        ("CREATE TABLE hot (id INT PRIMARY KEY, v TEXT)", 1),
        // ADD COLUMN to `hot`: no statement reads `w`.
        ("CREATE TABLE hot (id INT PRIMARY KEY, v TEXT, w INT)", 1),
        // Retype the column the `hot` statements read: at most those
        // re-emit; `cold1`/`cold2` entries still move.
        ("CREATE TABLE hot (id BIGINT PRIMARY KEY, v TEXT, w INT)", 31),
    ];
    for (text, max_dirty) in rounds {
        session.recheck(&[Edit::new(0, text)]);
        assert_eq!(
            session_output(&session),
            cold_reference(&det, session.script()),
            "{text}: output after a DDL edit must match a cold check"
        );
        let dirty = session.outcome().stats.warm_dirty_statements;
        assert!((1..=max_dirty).contains(&dirty), "{text}: {dirty} statements re-emitted");
    }
    assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0));
}

/// Duplicate-template-heavy scripts must actually exercise the dedup
/// (the property above would pass vacuously on all-unique scripts).
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

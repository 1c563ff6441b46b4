//! Delta-based warm re-check properties (ISSUE 9).
//!
//! 1. **Byte-identity**: a `CheckSession::recheck` outcome must equal a
//!    cold `check_workload` of the edited script — detections, ranking,
//!    fixes, diagnostics — including DDL edits and fallback paths.
//! 2. **Delta-vs-rebuild**: the session's incrementally-maintained
//!    `WorkloadProfile` must match a from-scratch build (modulo all-zero
//!    usage entries, which retract leaves behind by design and which no
//!    consumer can observe).
//! 3. **DDL edits patch in place**: a DDL edit re-runs the intra-query
//!    rules over the live texts without a rebuild, re-emits only the
//!    statements whose detections changed (never-over-emit), and still
//!    matches cold (never-stale).

use sqlcheck::context::{ColumnUsage, WorkloadProfile};
use sqlcheck::{Dialect, FrontendOptions, Edit, SqlCheck, WorkloadOutcome};
use sqlcheck_minidb::database::Database;
use sqlcheck_minidb::schema::{Column, TableSchema};
use sqlcheck_minidb::value::{DataType, Value};

/// Deterministic xorshift so edit scripts are reproducible.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Render every outcome surface the session patches; equality here is
/// the "byte-identical" acceptance bar.
fn fingerprint(w: &WorkloadOutcome) -> String {
    let o = &w.outcome;
    let mut s = String::new();
    for d in &o.report.detections {
        s.push_str(&format!("{d:?}\n"));
    }
    for r in o.ranked() {
        s.push_str(&format!("{:.6} {:?}\n", r.score, r.detection));
    }
    for f in o.fixes() {
        s.push_str(&format!("{f:?}\n"));
    }
    for d in &o.diagnostics {
        s.push_str(&format!("{d:?}\n"));
    }
    s
}

/// Normalize a profile for delta-vs-rebuild comparison: drop all-zero
/// usage entries (retract leaves them; no consumer reads them).
fn normalized_usage(p: &WorkloadProfile) -> Vec<((String, String), ColumnUsage)> {
    let mut v: Vec<_> = p
        .iter_usage()
        .filter(|(_, _, u)| {
            u.eq_predicates + u.range_predicates + u.pattern_predicates + u.group_by
                + u.order_by
                + u.join
                + u.writes
                > 0
        })
        .map(|(t, c, u)| ((t.to_string(), c.to_string()), u.clone()))
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

fn seed_script() -> String {
    let mut s = String::from(
        "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT);\n\
         CREATE TABLE orders (id INT PRIMARY KEY, user_id INT, total FLOAT, note VARCHAR(20));\n\
         CREATE INDEX idx_orders_user ON orders (user_id);\n",
    );
    for i in 0..40 {
        match i % 5 {
            0 => s.push_str(&format!(
                "SELECT name FROM users WHERE id = {i} AND age > {};\n",
                i % 7
            )),
            1 => s.push_str(
                "SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.user_id \
                 WHERE o.total > 10 ORDER BY o.total;\n",
            ),
            2 => s.push_str(&format!("UPDATE orders SET note = 'x{i}' WHERE id = {i};\n")),
            3 => s.push_str("SELECT name FROM users WHERE bio LIKE '%rust%';\n"),
            // Duplicate text on purpose: dedup + fan-out paths.
            _ => s.push_str("SELECT name FROM users WHERE id = 1;\n"),
        }
    }
    s
}

/// Pool of single-statement replacements (non-DDL), exercising fresh
/// texts, revivals, shared texts, and span-length changes.
fn replacement(rng: &mut Rng, salt: usize) -> String {
    match rng.below(6) {
        0 => format!("SELECT name FROM users WHERE id = {salt}"),
        1 => "SELECT * FROM orders".to_string(),
        2 => format!("UPDATE users SET bio = 'longer replacement text {salt}' WHERE id = {salt}"),
        3 => "SELECT name FROM users WHERE id = 1".to_string(),
        4 => format!(
            "SELECT u.name FROM users u JOIN orders o ON u.id = o.user_id WHERE o.id = {salt}"
        ),
        _ => "SELECT age FROM users GROUP BY age ORDER BY RAND()".to_string(),
    }
}

/// Core property: random single-statement edit batches over several
/// rounds stay byte-identical to cold re-checks of the edited script,
/// across several edit sequences.
#[test]
fn random_edit_rounds_match_cold_checks() {
    let opts = FrontendOptions::default();
    for seed in [1u64, 2, 4] {
        let mut session = SqlCheck::new().into_session(seed_script(), opts.clone());
        let mut rng = Rng(0x5EED_0000 + seed * 31);
        let n = session.outcome().stats.statements;
        for round in 0..6 {
            // Up to 3 distinct indices per round. Skip index 0..3 (the
            // DDL statements) here; DDL edits get their own tests below.
            let mut idx: Vec<usize> = Vec::new();
            while idx.len() < 1 + rng.below(3) {
                let i = 3 + rng.below(n - 3);
                if !idx.contains(&i) {
                    idx.push(i);
                }
            }
            idx.sort();
            let edits: Vec<Edit> = idx
                .iter()
                .map(|&i| Edit::new(i, replacement(&mut rng, round * 100 + i)))
                .collect();
            session.recheck(&edits);
            assert_eq!(session.fallbacks(), 0, "non-DDL edits must stay incremental");

            let cold = SqlCheck::new().check_workload(session.script(), &opts);
            assert_eq!(
                fingerprint(session.outcome()),
                fingerprint(&cold),
                "seed={seed} round={round}"
            );
            // Delta-vs-rebuild on the retained workload profile.
            let warm_profile = &session.outcome().outcome.context.workload;
            let cold_profile = &cold.outcome.context.workload;
            assert_eq!(warm_profile.statement_count, cold_profile.statement_count);
            assert_eq!(warm_profile.join_edges, cold_profile.join_edges);
            assert_eq!(warm_profile.table_refs, cold_profile.table_refs);
            assert_eq!(normalized_usage(warm_profile), normalized_usage(cold_profile));
        }
    }
}

/// DDL edits take the refold path and must still match cold
/// byte-for-byte, without a rebuild.
#[test]
fn ddl_edit_rounds_match_cold_checks() {
    let opts = FrontendOptions::default();
    let mut session = SqlCheck::new().into_session(seed_script(), opts.clone());
    let ddl_variants = [
        // Type change of a column most statements read.
        "CREATE TABLE users (id BIGINT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT)",
        // Added column no statement reads.
        "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT, \
         flags INT)",
        // Back to the original text (revival).
        "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT)",
    ];
    for (round, ddl) in ddl_variants.iter().enumerate() {
        session.recheck(&[Edit::new(0, ddl.to_string())]);
        assert_eq!(session.fallbacks(), 0, "DDL edits stay incremental");
        let cold = SqlCheck::new().check_workload(session.script(), &opts);
        assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "ddl round={round}");
        let warm_profile = &session.outcome().outcome.context.workload;
        let cold_profile = &cold.outcome.context.workload;
        // The refold path rebuilds the profile exactly — no zombie
        // normalization should even be needed, but compare normalized
        // to keep one definition of equality.
        assert_eq!(normalized_usage(warm_profile), normalized_usage(cold_profile));
    }
}

/// DDL edits patch the session in place — no fallback, no cold revert —
/// and match a cold check: a `CREATE TABLE` retype, and the write-path
/// benchmark's shape, where an `ALTER TABLE … ADD COLUMN` replaces a query
/// in a batch of query edits and the next batch puts everything back.
#[test]
fn ddl_edits_patch_in_place_and_match_cold() {
    let opts = FrontendOptions::default();
    let mut session = SqlCheck::new().into_session(seed_script(), opts.clone());
    session.recheck(&[Edit::new(
        0,
        "CREATE TABLE users (id BIGINT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT)",
    )]);
    assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0), "retype patches in place");
    let cold = SqlCheck::new().check_workload(session.script(), &opts);
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "retype");

    let mut script = String::new();
    for k in 0..4 {
        script.push_str(&format!("CREATE TABLE app_t{k} (c0 INT PRIMARY KEY, c1 TEXT);\n"));
    }
    for i in 0..60 {
        script.push_str(&format!("SELECT c1 FROM app_t{} WHERE c0 = {};\n", i % 4, i % 7));
    }
    let mut session = SqlCheck::new().into_session(script, opts.clone());
    let stmts = &session.outcome().outcome.context.statements;
    let original = |i: usize| &session.script()[stmts[i].span.start..stmts[i].span.end];
    let batch = [
        Edit::new(9, "SELECT * FROM app_t1 WHERE c0 = 1000009"),
        Edit::new(21, "ALTER TABLE app_t1 ADD COLUMN c_e0 INT"),
        Edit::new(40, "SELECT * FROM app_t0 WHERE c0 = 1000040"),
    ];
    let revert: Vec<Edit> = batch.iter().map(|e| Edit::new(e.index, original(e.index))).collect();
    for (round, edits) in [&batch[..], &revert].into_iter().enumerate() {
        session.recheck(edits);
        assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0), "round {round}");
        let cold = SqlCheck::new().check_workload(session.script(), &opts);
        assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "round {round}");
    }
}

/// A DDL edit re-emits only the statements whose detections it changed:
/// ADD COLUMN of a column nothing reads re-emits the DDL alone, and a
/// retype of a column most statements read still matches cold.
#[test]
fn ddl_edit_never_over_emits_or_goes_stale() {
    let opts = FrontendOptions::default();
    let mut session = SqlCheck::new().into_session(seed_script(), opts.clone());

    // ADD COLUMN `flags`: no existing statement reads it, so the only
    // re-emitted statement is the DDL itself.
    session.recheck(&[Edit::new(
        0,
        "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT, flags INT)",
    )]);
    assert_eq!(
        session.outcome().stats.warm_dirty_statements,
        1,
        "ADD COLUMN re-emits only the edited DDL"
    );
    let cold = SqlCheck::new().check_workload(session.script(), &opts);
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "never stale");

    // Retype `users.id` — read by most statements: the outcome still
    // matches cold.
    session.recheck(&[Edit::new(
        0,
        "CREATE TABLE users (id BIGINT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT, \
         flags INT)",
    )]);
    let cold = SqlCheck::new().check_workload(session.script(), &opts);
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "never stale");
    assert_eq!(session.fallbacks(), 0);
}

/// Guard conditions route through the fallback and still match cold:
/// multi-statement replacement, empty replacement, parse-diagnostic
/// replacement.
#[test]
fn guarded_edits_fall_back_and_match() {
    let opts = FrontendOptions::default();
    let cases: [&str; 3] = [
        "SELECT 1; SELECT 2;",               // splits to two statements
        "",                                   // removes the statement
        "SELECT name FROM users WHERE (id =", // parse diagnostics
    ];
    for (k, text) in cases.iter().enumerate() {
        let mut session = SqlCheck::new().into_session(seed_script(), opts.clone());
        session.recheck(&[Edit::new(5, text.to_string())]);
        assert_eq!(session.fallbacks(), 1, "case {k} must fall back");
        let cold = SqlCheck::new().check_workload(session.script(), &opts);
        assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "case {k}");
    }
}

/// Sessions with an attached database: data units are kept, DDL refolds
/// merge the database schema back in, outcomes match cold (which gets
/// the same shared database).
#[test]
fn database_backed_session_matches_cold() {
    let mk = || {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("metrics")
                .column(Column::new("id", DataType::Int).not_null())
                .column(Column::new("label", DataType::Text))
                .column(Column::new("val", DataType::Float))
                .primary_key(&["id"]),
        )
        .expect("seed schema");
        for (id, label, val) in [(1, "a", 1.5), (2, "a", 2.5), (3, "b", 3.5)] {
            db.insert("metrics", vec![Value::Int(id), Value::text(label), Value::Float(val)])
                .expect("seed row");
        }
        SqlCheck::new().with_database(db)
    };

    let script = "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64));\n\
                  SELECT name FROM users WHERE id = 1;\n\
                  SELECT label FROM metrics WHERE val > 2;\n\
                  SELECT name FROM users WHERE id = 2;\n";
    let opts = FrontendOptions::default();
    let mut session = mk().into_session(script, opts.clone());

    // Non-DDL edit.
    session.recheck(&[Edit::new(2, "SELECT * FROM metrics WHERE val > 2")]);
    let cold = mk().check_workload(session.script(), &opts);
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold));
    // Four statements: the one-edit batch rebuilds cold, which runs the
    // metrics unit again.
    assert_eq!(session.outcome().stats.data_units_recomputed, 1, "metrics unit ran once");

    // DDL edit: the db-backed `metrics` table must be re-merged into the
    // refolded schema.
    session.recheck(&[Edit::new(
        0,
        "CREATE TABLE users (id BIGINT PRIMARY KEY, name VARCHAR(64))",
    )]);
    let cold = mk().check_workload(session.script(), &opts);
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold));
    assert_eq!(session.fallbacks(), 0);
}

/// An `ALTER TABLE ... ADD COLUMN` edit changes the arity of `t`, which
/// turns the Implicit Columns rewrite of every `INSERT INTO t VALUES`
/// occurrence into textual advice; reverting the edit turns it back.
/// After each re-check the warm fixes must equal a cold check's, so fix
/// synthesis may not reuse bodies from before the schema changed.
#[test]
fn ddl_edit_flips_implicit_columns_fix_and_back() {
    let script = "CREATE TABLE t (a INT, b INT);\n\
                  SELECT a FROM t WHERE b = 1;\n\
                  INSERT INTO t VALUES (1, 2);\n\
                  SELECT a FROM t WHERE b = 1;\n\
                  INSERT INTO t VALUES (1, 2);\n";
    let opts = FrontendOptions::default();
    // (statement index, is a rewrite) of each Implicit Columns fix.
    let insert_fixes = |w: &WorkloadOutcome| -> Vec<(usize, bool)> {
        let mut v: Vec<(usize, bool)> = w
            .outcome
            .fixes()
            .iter()
            .filter(|f| f.detection.kind == sqlcheck::AntiPatternKind::ImplicitColumns)
            .map(|f| {
                let index = f.detection.statement_index().expect("statement locus");
                (index, f.fix.is_automatic())
            })
            .collect();
        v.sort();
        v
    };
    let mut session = SqlCheck::new().into_session(script, opts.clone());
    assert_eq!(insert_fixes(session.outcome()), [(2, true), (4, true)]);
    for round in 0..4 {
        let (edit, rewrite) = if round % 2 == 0 {
            ("ALTER TABLE t ADD COLUMN c INT", false)
        } else {
            ("SELECT a FROM t WHERE b = 1", true)
        };
        session.recheck(&[Edit::new(1, edit)]);
        let warm = insert_fixes(session.outcome());
        assert_eq!(warm, [(2, rewrite), (4, rewrite)], "round={round}");
        let cold = SqlCheck::new().check_workload(session.script(), &opts);
        assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "round={round}");
    }
}

/// Freed slot ids are reused safely: a batch that swaps two
/// single-occurrence texts retires and revives both within one batch
/// (so nothing may be freed), a later batch replaces both with fresh
/// texts (freeing their slots), the next replaces those (reusing the
/// freed ids), and a last batch restores the originals. Every round
/// matches a cold check.
#[test]
fn swapped_and_freed_texts_reuse_slots_and_match_cold() {
    let opts = FrontendOptions::default();
    let script = seed_script();
    // Statements 3 and 5 hold texts that occur exactly once.
    let cold = SqlCheck::new().check_workload(&script, &opts);
    let [a, b] = [3, 5].map(|i| {
        let span = cold.outcome.context.statements[i].span;
        script[span.start..span.end].to_string()
    });
    assert_eq!(script.matches(a.as_str()).count(), 1);
    assert_eq!(script.matches(b.as_str()).count(), 1);
    let rounds: [[String; 2]; 4] = [
        [b.clone(), a.clone()],
        ["SELECT bio FROM users WHERE id = 901".into(), "DELETE FROM orders WHERE id = 902".into()],
        ["SELECT * FROM users WHERE id = 903".into(), "UPDATE users SET age = 1 WHERE id = 904".into()],
        [a, b],
    ];
    let mut session = SqlCheck::new().into_session(script.clone(), opts.clone());
    for (round, texts) in rounds.iter().enumerate() {
        session.recheck(&[Edit::new(3, texts[0].clone()), Edit::new(5, texts[1].clone())]);
        assert_eq!(session.fallbacks(), 0, "round={round}");
        let cold = SqlCheck::new().check_workload(session.script(), &opts);
        assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "round={round}");
        let warm_profile = &session.outcome().outcome.context.workload;
        let cold_profile = &cold.outcome.context.workload;
        assert_eq!(normalized_usage(warm_profile), normalized_usage(cold_profile));
        assert_eq!(warm_profile.join_edges, cold_profile.join_edges);
        assert_eq!(warm_profile.table_refs, cold_profile.table_refs);
    }
    assert_eq!(session.script(), script, "the last round restores the script");
}

/// Warm stats must attribute the work to the edit set, not the workload:
/// dirty statements stay bounded by edits on the non-DDL path and the
/// per-phase warm timers are populated.
#[test]
fn warm_stats_reflect_edit_proportionality() {
    let opts = FrontendOptions::default();
    let mut session = SqlCheck::new().into_session(seed_script(), opts);
    let n = session.outcome().stats.statements;
    session.recheck(&[Edit::new(7, "SELECT age FROM users WHERE age = 41")]);
    let stats = &session.outcome().stats;
    assert_eq!(stats.statements, n);
    assert!(
        stats.warm_dirty_statements <= 2,
        "one fresh text should dirty at most its own occurrences, got {}",
        stats.warm_dirty_statements
    );
    // Every re-check runs all four inter units.
    assert_eq!((stats.inter_units_reused, stats.inter_units_recomputed), (0, 4));
    assert!(stats.total_micros > 0);
    // Reverting and repeating the edit dirties the edited statement
    // alone again.
    session.recheck(&[Edit::new(7, "SELECT name FROM users WHERE bio LIKE '%rust%'")]);
    session.recheck(&[Edit::new(7, "SELECT age FROM users WHERE age = 41")]);
    let stats = &session.outcome().stats;
    assert!(stats.warm_dirty_statements <= 2, "got {}", stats.warm_dirty_statements);
}

/// Building a session runs detection once: the cold check's engine
/// hands its per-unique and per-unit results to the session, whose
/// outcome and stats are the cold check's — one run per inter unit.
#[test]
fn into_session_runs_detection_once() {
    let opts = FrontendOptions::default();
    let session = SqlCheck::new().into_session(seed_script(), opts.clone());
    let cold = SqlCheck::new().check_workload(&seed_script(), &opts);
    let stats = &session.outcome().stats;
    assert_eq!(stats.unique_texts, cold.stats.unique_texts);
    assert_eq!(stats.inter_units_recomputed, 4, "each inter unit runs once");
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold));
}

/// Every inter-query rule turns on and back off through warm re-checks,
/// and each round matches a cold check of the edited script. Non-DDL
/// edits flip No Foreign Key, Index Underuse and Index Overuse through
/// the workload profile alone; a DDL edit flips Clone Table. The script
/// has at least ten statements per edit, so no round reverts cold, and
/// none falls back.
#[test]
fn inter_rules_flip_through_warm_rechecks_and_match_cold() {
    use sqlcheck::AntiPatternKind::{CloneTable, IndexOveruse, IndexUnderuse, NoForeignKey};
    let script = "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), age INT);\n\
                  CREATE TABLE orders (id INT PRIMARY KEY, user_id INT, total FLOAT);\n\
                  CREATE INDEX idx_orders_total ON orders (total);\n\
                  CREATE TABLE log_1 (id INT PRIMARY KEY, msg TEXT);\n\
                  CREATE TABLE audit (id INT PRIMARY KEY, msg TEXT);\n\
                  SELECT name FROM users WHERE id = 1;\n\
                  SELECT total FROM orders WHERE total > 5;\n\
                  SELECT user_id FROM orders WHERE id = 2;\n\
                  SELECT msg FROM log_1 WHERE id = 3;\n\
                  SELECT msg FROM audit WHERE id = 4;\n\
                  UPDATE users SET name = 'n' WHERE id = 5;\n\
                  DELETE FROM orders WHERE id = 6;\n";
    let off = [
        (5, "SELECT name FROM users WHERE id = 1"),
        (7, "SELECT user_id FROM orders WHERE id = 2"),
        (6, "SELECT total FROM orders WHERE total > 5"),
        (4, "CREATE TABLE audit (id INT PRIMARY KEY, msg TEXT)"),
    ];
    let on = [
        (NoForeignKey, "SELECT u.name FROM users u JOIN orders o ON u.id = o.user_id"),
        (IndexUnderuse, "SELECT name FROM users WHERE age = 30"),
        (IndexOveruse, "SELECT user_id FROM orders WHERE id = 3"),
        (CloneTable, "CREATE TABLE log_2 (id INT PRIMARY KEY, msg TEXT)"),
    ];
    let opts = FrontendOptions::default();
    let mut session = SqlCheck::new().into_session(script, opts.clone());
    assert!(session.outcome().stats.statements >= 10);
    for (&(index, original), &(kind, text)) in off.iter().zip(&on) {
        for (text, fires) in [(text, true), (original, false)] {
            session.recheck(&[Edit::new(index, text)]);
            let tag = format!("{kind:?} {}", if fires { "on" } else { "off" });
            let warm = session.outcome();
            assert_eq!(warm.outcome.report.count(kind) > 0, fires, "{tag}");
            let cold = SqlCheck::new().check_workload(session.script(), &opts);
            assert_eq!(fingerprint(warm), fingerprint(&cold), "{tag}");
            assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0), "{tag}");
        }
    }
}

/// With dialect detection on, an edit that makes the script guess
/// another dialect re-checks under it — dialect, detections and the
/// `DialectGuessed` diagnostic match a cold check of the edited script.
#[test]
fn edit_that_changes_the_guessed_dialect_matches_cold() {
    let opts = FrontendOptions { detect_dialect: true, ..FrontendOptions::default() };
    let script: String = (0..40).map(|i| format!("SELECT a FROM t WHERE id = {i};\n")).collect();
    let mut session = SqlCheck::new().into_session(script, opts.clone());
    assert_eq!(session.outcome().outcome.context.dialect, Dialect::Generic);
    session.recheck(&[Edit::new(0, "SELECT `a` FROM t WHERE id = 1")]);
    let cold = SqlCheck::new().check_workload(session.script(), &opts);
    assert_eq!(cold.outcome.context.dialect, Dialect::MySql);
    assert_eq!(session.outcome().outcome.context.dialect, Dialect::MySql);
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold));
}

/// A DDL edit that changes the detections of a text re-emits every
/// occurrence of that text, not only the edited statements: here
/// `NOT NULL` columns suppress Concatenate Nulls on a query that occurs
/// twice and is never edited.
#[test]
fn ddl_edit_re_emits_unedited_occurrences_of_a_changed_text() {
    let opts = FrontendOptions::default();
    let mut script = String::from("CREATE TABLE t (a TEXT, b TEXT);\n");
    for i in 0..12 {
        script.push_str(&format!("SELECT a || b FROM t;\nSELECT a FROM t WHERE a = '{i}';\n"));
    }
    let mut session = SqlCheck::new().into_session(script, opts.clone());
    for ddl in [
        "CREATE TABLE t (a TEXT NOT NULL, b TEXT NOT NULL)",
        "CREATE TABLE t (a TEXT, b TEXT)",
    ] {
        session.recheck(&[Edit::new(0, ddl)]);
        assert_eq!(session.fallbacks(), 0, "{ddl}");
        let dirty = session.outcome().stats.warm_dirty_statements;
        assert!(dirty > 12, "{ddl}: the 12 unedited occurrences re-emit, got {dirty}");
        let cold = SqlCheck::new().check_workload(session.script(), &opts);
        assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "{ddl}");
    }
}

//! Delta-based warm re-check properties (ISSUE 9).
//!
//! 1. **Byte-identity**: a `CheckSession::recheck` outcome must equal a
//!    cold `check_workload` of the edited script — detections, ranking,
//!    fixes, diagnostics — cache on and off,
//!    including DDL edits and fallback paths.
//! 2. **Delta-vs-rebuild**: the session's incrementally-maintained
//!    `WorkloadProfile` must match a from-scratch build (modulo all-zero
//!    usage entries, which retract leaves behind by design and which no
//!    consumer can observe).
//! 3. **Column-granular eviction**: a DDL edit to an untouched column
//!    evicts nothing (never-over-evict) while the outcome still matches
//!    cold (never-stale).

use sqlcheck::context::{ColumnUsage, WorkloadProfile};
use sqlcheck::{FrontendOptions, Edit, SqlCheck, WorkloadOutcome};
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

fn tool(cache: bool) -> SqlCheck {
    let t = SqlCheck::new();
    if cache {
        t.with_cache(4096)
    } else {
        t
    }
}

/// Core property: random single-statement edit batches over several
/// rounds stay byte-identical to cold re-checks of the edited script,
/// across several edit sequences and cache on/off.
#[test]
fn random_edit_rounds_match_cold_checks() {
    let opts = FrontendOptions::default();
    for seed in [1u64, 2, 4] {
        for &cached in &[true, false] {
            let mut session = tool(cached).into_session(seed_script(), opts.clone());
            let mut rng = Rng(0x5EED_0000 + seed * 31 + cached as u64);
            let n = session.outcome().stats.statements;
            for round in 0..6 {
                // Up to 3 distinct indices per round. Skip index 0..3
                // (the DDL statements) here; DDL edits get their own
                // tests below.
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
                    "seed={seed} cached={cached} round={round}"
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
}

/// DDL edits take the refold path (with a cache) and must still match
/// cold byte-for-byte; the cache's column-granular tiers decide what
/// re-runs.
#[test]
fn ddl_edit_rounds_match_cold_checks() {
    let opts = FrontendOptions::default();
    let mut session = tool(true).into_session(seed_script(), opts.clone());
    let ddl_variants = [
        // Touched column type change: evicts users-dependent entries.
        "CREATE TABLE users (id BIGINT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT)",
        // Added column: core untouched, no eviction of untouched deps.
        "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT, \
         flags INT)",
        // Back to the original text (revival).
        "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT)",
    ];
    for (round, ddl) in ddl_variants.iter().enumerate() {
        session.recheck(&[Edit::new(0, ddl.to_string())]);
        assert_eq!(session.fallbacks(), 0, "cached DDL edits stay incremental");
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

/// DDL edit without a cache: correctness via declared fallback.
#[test]
fn ddl_edit_without_cache_falls_back_and_matches() {
    let opts = FrontendOptions::default();
    let mut session = tool(false).into_session(seed_script(), opts.clone());
    session.recheck(&[Edit::new(
        0,
        "CREATE TABLE users (id BIGINT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT)",
    )]);
    assert_eq!(session.fallbacks(), 1, "no cache → DDL rebuilds cold");
    let cold = SqlCheck::new().check_workload(session.script(), &opts);
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold));
}

/// Column-granular invalidation, observed end-to-end through the
/// session: ADD COLUMN evicts nothing (untouched deps), a column retype
/// evicts only dependents — and both stay byte-identical to cold.
#[test]
fn column_granular_eviction_never_over_evicts_or_goes_stale() {
    let opts = FrontendOptions::default();
    let mut session = tool(true).into_session(seed_script(), opts.clone());

    // ADD COLUMN `flags`: no existing statement reads it, so the sweep
    // must evict nothing and the only recomputed text is the DDL itself.
    session.recheck(&[Edit::new(
        0,
        "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT, flags INT)",
    )]);
    let stats = &session.outcome().stats;
    // The only eviction is the replaced DDL text's own entry (a whole-
    // table dependency); every query entry survives because none reads
    // the new column.
    assert_eq!(
        stats.incremental_evictions, 1,
        "ADD COLUMN evicts only the stale DDL entry"
    );
    assert_eq!(stats.column_evictions, 0, "no column-classified evictions");
    assert_eq!(stats.incremental_misses, 1, "only the edited DDL text re-analysed");
    assert!(stats.warm_dirty_statements >= 1);
    let cold = SqlCheck::new().check_workload(session.script(), &opts);
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "never stale");

    // Retype `users.id` — referenced by most statements: dependents are
    // evicted (column- or core-classified), and the outcome still
    // matches cold.
    session.recheck(&[Edit::new(
        0,
        "CREATE TABLE users (id BIGINT PRIMARY KEY, name VARCHAR(64), bio TEXT, age INT, \
         flags INT)",
    )]);
    let stats = &session.outcome().stats;
    assert!(stats.incremental_evictions > 0, "touched column must evict dependents");
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
        let mut session = tool(true).into_session(seed_script(), opts.clone());
        session.recheck(&[Edit::new(5, text.to_string())]);
        assert_eq!(session.fallbacks(), 1, "case {k} must fall back");
        let cold = SqlCheck::new().check_workload(session.script(), &opts);
        assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "case {k}");
    }
}

/// Sessions with an attached database: data units replay, DDL refolds
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
        SqlCheck::new().with_database(db).with_cache(1024)
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
    assert_eq!(session.outcome().stats.data_units_reused, 1, "metrics unit replayed");

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
    for cached in [true, false] {
        let mut session = tool(cached).into_session(script, opts.clone());
        assert_eq!(insert_fixes(session.outcome()), [(2, true), (4, true)]);
        for round in 0..4 {
            let (edit, rewrite) = if round % 2 == 0 {
                ("ALTER TABLE t ADD COLUMN c INT", false)
            } else {
                ("SELECT a FROM t WHERE b = 1", true)
            };
            session.recheck(&[Edit::new(1, edit)]);
            let warm = insert_fixes(session.outcome());
            assert_eq!(warm, [(2, rewrite), (4, rewrite)], "cached={cached} round={round}");
            let cold = tool(cached).check_workload(session.script(), &opts);
            assert_eq!(
                fingerprint(session.outcome()),
                fingerprint(&cold),
                "cached={cached} round={round}"
            );
        }
    }
}

/// Warm stats must attribute the work to the edit set, not the workload:
/// dirty statements stay bounded by edits on the non-DDL path and the
/// per-phase warm timers are populated.
#[test]
fn warm_stats_reflect_edit_proportionality() {
    let opts = FrontendOptions::default();
    let mut session = tool(true).into_session(seed_script(), opts);
    let n = session.outcome().stats.statements;
    session.recheck(&[Edit::new(7, "SELECT age FROM users WHERE age = 41")]);
    let stats = &session.outcome().stats;
    assert_eq!(stats.statements, n);
    assert!(
        stats.warm_dirty_statements <= 2,
        "one fresh text should dirty at most its own occurrences, got {}",
        stats.warm_dirty_statements
    );
    assert!(stats.incremental_misses <= 1);
    // The new eq-predicate may dirty an inter-unit digest; all four
    // units must be accounted for either way.
    assert_eq!(stats.inter_units_reused + stats.inter_units_recomputed, 4);
    assert!(stats.total_micros > 0);
    // Repeating the identical recheck revives the retired text — a pure
    // cache hit, zero dirty statements.
    session.recheck(&[Edit::new(7, "SELECT name FROM users WHERE bio LIKE '%rust%'")]);
    session.recheck(&[Edit::new(7, "SELECT age FROM users WHERE age = 41")]);
    let stats = &session.outcome().stats;
    assert_eq!(stats.incremental_misses, 0, "revived text replays from cache");
}

/// Building a session runs detection once: the cold check's engine
/// hands its per-unique and per-unit results to the session, so a fresh
/// shared cache sees one miss per unique text and one run per inter
/// unit — and no read-backs of what the check just stored.
#[test]
fn into_session_runs_detection_once() {
    let cache = std::sync::Arc::new(sqlcheck::IncrementalCache::new(4096));
    let session = SqlCheck::new()
        .with_shared_cache(std::sync::Arc::clone(&cache))
        .into_session(seed_script(), FrontendOptions::default());
    let unique_texts = session.outcome().stats.unique_texts as u64;
    let c = cache.counters();
    assert_eq!(c.hits, 0, "no cache read-backs");
    assert_eq!(c.misses, unique_texts, "one lookup per unique text");
    assert_eq!(c.inter_units_reused, 0, "no unit memo read-backs");
    assert_eq!(c.inter_units_recomputed, 4, "each inter unit runs once");
}

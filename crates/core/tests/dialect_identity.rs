//! End-to-end dialect properties (ISSUE 10).
//!
//! 1. **Generic identity**: threading `Dialect::Generic` explicitly
//!    through the pipeline — tool-level or `BatchOptions`-level — must be
//!    byte-identical to the pre-dialect default entry points, cache on
//!    and off.
//! 2. **Detection**: with no explicit dialect, `check_workload` guesses
//!    from the script and says so (`DiagKind::DialectGuessed`); an
//!    explicit dialect suppresses both the guess and the diagnostic.
//! 3. **Cache epoch**: the resolved dialect folds into the incremental
//!    cache's config epoch, so switching dialects on a shared cache never
//!    replays results computed under another dialect's grammar.
//! 4. **Cold reverts** (PR 9 remainder): a re-check whose dirty fraction
//!    exceeds ~10% self-selects a cold rebuild, counted as
//!    `cold_reverts` — not as a correctness `fallback` — and still
//!    matches a cold check byte-for-byte.

use sqlcheck::{BatchOptions, DiagKind, Dialect, Edit, SqlCheck, WorkloadOutcome};

/// Render every outcome surface; equality here is the byte-identity bar.
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

/// A dialect-neutral script that still stresses splitter state: compound
/// bodies, dollar quotes, string decoys, duplicates.
fn neutral_script() -> String {
    let mut s = String::from(
        "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), bio TEXT);\n\
         CREATE TABLE orders (id INT, user_id INT, total FLOAT);\n\
         CREATE TRIGGER trg AFTER INSERT ON orders FOR EACH ROW \
         BEGIN UPDATE users SET bio = 'n;ew'; DELETE FROM orders; END;\n\
         INSERT INTO users VALUES (1, $tag$v;1$tag$, 'b');\n",
    );
    for i in 0..30 {
        s.push_str(&format!("SELECT name FROM users WHERE id = {};\n", i % 7));
        s.push_str("SELECT * FROM orders WHERE total > 10 ORDER BY RANDOM();\n");
    }
    s
}

/// A small mysqldump-style script (the full-size generator lives in
/// `sqlcheck-workload`, which depends on this crate — so the test keeps
/// its own miniature): `#` comments, backticked identifiers, and a
/// `DELIMITER $$` routine section.
fn mysqldump_script() -> String {
    let mut s = String::from("# Host: localhost    Database: app\n");
    for t in 0..4 {
        s.push_str(&format!("# Dump of table `tbl_{t}`\n"));
        s.push_str(&format!(
            "CREATE TABLE `tbl_{t}` (`id` INTEGER, `name` VARCHAR(64), PRIMARY KEY (`id`));\n"
        ));
        for i in 0..10 {
            s.push_str(&format!(
                "INSERT INTO `tbl_{t}` (`id`, `name`) VALUES ({i}, 'n{i}');\n"
            ));
            s.push_str(&format!(
                "SELECT `id` FROM `tbl_{t}` WHERE `name` REGEXP '^n' LIMIT {};\n",
                10 + i
            ));
        }
    }
    s.push_str(
        "DELIMITER $$\n\
         CREATE TRIGGER `trg` BEFORE INSERT ON `tbl_0` FOR EACH ROW \
         BEGIN UPDATE `tbl_0` SET `name` = 'x'; END$$\n\
         DELIMITER ;\n",
    );
    s
}

/// Explicit `Dialect::Generic` — at either layer — is byte-identical to
/// the undialected default, cache on and off.
#[test]
fn explicit_generic_equals_the_undialected_default() {
    let script = neutral_script();
    let opts = BatchOptions::default();
    for &cached in &[false, true] {
        let mk = || if cached { SqlCheck::new().with_cache(1024) } else { SqlCheck::new() };

        let base = mk().check_workload(&script, &opts);
        let tool_level = mk()
            .with_dialect(Dialect::Generic)
            .with_dialect_detection(false)
            .check_workload(&script, &opts);
        let opts_level = mk().check_workload(
            &script,
            &BatchOptions { dialect: Dialect::Generic, ..opts.clone() },
        );

        assert_eq!(base.outcome.context.dialect, Dialect::Generic);
        assert_eq!(
            fingerprint(&base),
            fingerprint(&tool_level),
            "cached={cached}: tool-level Generic diverged"
        );
        assert_eq!(
            fingerprint(&base),
            fingerprint(&opts_level),
            "cached={cached}: opts-level Generic diverged"
        );
    }
}

/// No explicit dialect + detection on: the guess is recorded in the
/// context and announced via `DialectGuessed`. An explicit dialect
/// suppresses both.
#[test]
fn detection_guesses_and_explicit_dialect_suppresses() {
    let script = mysqldump_script();
    let opts = BatchOptions { detect_dialect: true, ..BatchOptions::default() };
    let guessed = SqlCheck::new().check_workload(&script, &opts);
    assert_eq!(guessed.outcome.context.dialect, Dialect::MySql);
    assert_eq!(
        guessed
            .outcome
            .diagnostics
            .iter()
            .filter(|d| d.kind == DiagKind::DialectGuessed)
            .count(),
        1,
        "exactly one guess announcement: {:?}",
        guessed.outcome.diagnostics
    );

    let explicit = SqlCheck::new().check_workload(
        &script,
        &BatchOptions { dialect: Dialect::MySql, ..BatchOptions::default() },
    );
    assert_eq!(explicit.outcome.context.dialect, Dialect::MySql);
    assert!(
        explicit.outcome.diagnostics.iter().all(|d| d.kind != DiagKind::DialectGuessed),
        "explicit dialect must not announce a guess"
    );
}

/// Switching dialects over one shared cache must never replay entries
/// computed under another dialect's grammar: every run equals its own
/// cold (cache-free) reference.
#[test]
fn dialect_folds_into_the_cache_epoch() {
    let script = mysqldump_script();
    let tool = SqlCheck::new().with_cache(4096);
    for dialect in [Dialect::Generic, Dialect::MySql, Dialect::Generic, Dialect::Postgres] {
        let opts = BatchOptions { dialect, ..BatchOptions::default() };
        let cached = tool.check_workload(&script, &opts);
        let cold = SqlCheck::new().check_workload(&script, &opts);
        assert_eq!(
            fingerprint(&cached),
            fingerprint(&cold),
            "{dialect}: cached run must equal a cold run under the same dialect"
        );
        assert_eq!(cached.outcome.context.dialect, dialect);
    }
}

/// Cost-aware warm re-check: a small edit stays warm (no revert), a bulk
/// edit above ~10% dirty self-selects the cold rebuild — counted as a
/// `cold_revert`, not a `fallback` — and both match cold byte-for-byte.
#[test]
fn bulk_edits_revert_to_cold_and_are_counted_separately() {
    let opts = BatchOptions::default();
    let script = neutral_script();
    let mut session = SqlCheck::new().into_session(script, opts.clone());
    let n = session.outcome().stats.statements;
    assert!(n > 40, "need a workload big enough to make 10% meaningful");

    // One edited statement out of ~64: far under the revert threshold.
    session.recheck(&[Edit::new(4, "SELECT bio FROM users WHERE id = 9")]);
    assert_eq!(session.cold_reverts(), 0, "small edits stay warm");
    assert_eq!(session.fallbacks(), 0);
    let cold = SqlCheck::new().check_workload(session.script(), &opts);
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "warm path identity");

    // Bulk round: rewrite a quarter of the statements in one batch.
    let edits: Vec<Edit> = (0..n / 4)
        .map(|i| Edit::new(4 + i, format!("SELECT name FROM users WHERE id = {}", 9000 + i)))
        .collect();
    session.recheck(&edits);
    assert_eq!(session.cold_reverts(), 1, "bulk edit must self-select the cold rebuild");
    assert_eq!(session.fallbacks(), 0, "a cost revert is not a correctness fallback");
    let cold = SqlCheck::new().check_workload(session.script(), &opts);
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "revert path identity");

    // The session stays usable after a revert: the next small edit is
    // warm again.
    session.recheck(&[Edit::new(6, "SELECT id FROM orders")]);
    assert_eq!(session.cold_reverts(), 1);
    assert_eq!(session.fallbacks(), 0);
    let cold = SqlCheck::new().check_workload(session.script(), &opts);
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold), "post-revert identity");
}

//! End-to-end dialect properties (ISSUE 10).
//!
//! 1. **Generic identity**: an explicit `Dialect::Generic` in
//!    `FrontendOptions` must be byte-identical to the default options,
//!    cache on and off.
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
//! 5. **One dialect end to end**: every statement the pipeline builds is
//!    parsed under the dialect it was split under, cold and through a
//!    session re-check.

use sqlcheck::{
    AntiPatternKind, ContextBuilder, DiagKind, Dialect, Edit, FrontendOptions, Locus, SqlCheck,
    WorkloadOutcome,
};
use sqlcheck_parser::parse_one;

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

/// Explicit `Dialect::Generic` is byte-identical to the default options.
#[test]
fn explicit_generic_equals_the_undialected_default() {
    let script = neutral_script();
    let opts = FrontendOptions::default();
    let base = SqlCheck::new().check_workload(&script, &opts);
    let opts_level = SqlCheck::new()
        .check_workload(&script, &FrontendOptions { dialect: Dialect::Generic, ..opts.clone() });
    assert_eq!(base.outcome.context.dialect, Dialect::Generic);
    assert_eq!(fingerprint(&base), fingerprint(&opts_level), "opts-level Generic diverged");
}

/// No explicit dialect + detection on: the guess is recorded in the
/// context and announced via `DialectGuessed`. An explicit dialect
/// suppresses both.
#[test]
fn detection_guesses_and_explicit_dialect_suppresses() {
    let script = mysqldump_script();
    let opts = FrontendOptions { detect_dialect: true, ..FrontendOptions::default() };
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
        &FrontendOptions { dialect: Dialect::MySql, ..FrontendOptions::default() },
    );
    assert_eq!(explicit.outcome.context.dialect, Dialect::MySql);
    assert!(
        explicit.outcome.diagnostics.iter().all(|d| d.kind != DiagKind::DialectGuessed),
        "explicit dialect must not announce a guess"
    );
}

/// Cost-aware warm re-check: a small edit stays warm (no revert), a bulk
/// edit above ~10% dirty self-selects the cold rebuild — counted as a
/// `cold_revert`, not a `fallback` — and both match cold byte-for-byte.
#[test]
fn bulk_edits_revert_to_cold_and_are_counted_separately() {
    let opts = FrontendOptions::default();
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

/// A statement whose `#` comment hides a `;` under MySQL: the
/// leading-wildcard `LIKE` sits after the comment, so the statement only
/// reports Pattern Matching when its tokens come from a MySQL lex.
const HASH_COMMENT_LIKE: &str = "SELECT name FROM t # note; pick names\nWHERE name LIKE '%abc%'";

fn mysql() -> FrontendOptions {
    FrontendOptions { dialect: Dialect::MySql, ..FrontendOptions::default() }
}

/// Whether `w` reports Pattern Matching on statement `index`.
fn pattern_matching_at(w: &WorkloadOutcome, index: usize) -> bool {
    w.outcome.report.detections.iter().any(|d| {
        d.kind == AntiPatternKind::PatternMatching && d.locus == Locus::Statement { index }
    })
}

/// Under MySQL, a `#` comment hiding a `;` must not cost the statement
/// its findings: the statement is materialised under the dialect it was
/// split under.
#[test]
fn mysql_hash_comment_keeps_the_pattern_matching_finding() {
    let script = format!("{HASH_COMMENT_LIKE};\nSELECT 1;");
    let w = SqlCheck::new().check_workload(&script, &mysql());
    assert_eq!(w.stats.statements, 2);
    assert!(pattern_matching_at(&w, 0), "{:?}", w.outcome.report.detections);
}

/// A MySQL session re-check that swaps a statement for the `#`-comment
/// text reports the finding, exactly as a cold check does.
#[test]
fn mysql_session_recheck_materialises_under_mysql() {
    let script = "SELECT id FROM t WHERE id = 1;\nSELECT id FROM u;\n";
    let mut session = SqlCheck::new().into_session(script, mysql());
    session.recheck(&[Edit::new(0, HASH_COMMENT_LIKE)]);
    assert_eq!(session.fallbacks(), 0, "a one-statement edit stays incremental");
    assert!(pattern_matching_at(session.outcome(), 0));
    let cold = SqlCheck::new().check_workload(session.script(), &mysql());
    assert_eq!(fingerprint(session.outcome()), fingerprint(&cold));
}

/// Under every dialect, each statement the context builder keeps holds
/// its source span's text and the tree a fresh parse of that text under
/// that dialect builds.
#[test]
fn built_statements_are_lexed_under_their_dialect() {
    let script = format!(
        "{HASH_COMMENT_LIKE};\n\
         SELECT \"a;b\", `c;d` FROM u -- tail; comment\nWHERE x = 1;\n\
         SELECT $$e;f$$ FROM v # g;\n;\n\
         INSERT INTO w VALUES (1, \"h\") -- i;\n;\n\
         {HASH_COMMENT_LIKE};\n"
    );
    for d in Dialect::ALL {
        let opts = FrontendOptions { dialect: d, ..FrontendOptions::default() };
        let ctx = ContextBuilder::new().with_frontend(opts).add_script(&script).build();
        assert!(ctx.len() >= 4, "{d}: {} statements", ctx.len());
        for (i, st) in ctx.statements.iter().enumerate() {
            let text = &script[st.span.start..st.span.end];
            assert_eq!(st.text(&ctx.uniques), text, "{d}: statement {i}");
            assert_eq!(
                st.parsed.to_sql(),
                parse_one(text, d).to_sql(),
                "{d}: statement {i} {text:?}"
            );
        }
    }
}

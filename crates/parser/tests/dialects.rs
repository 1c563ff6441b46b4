//! Per-dialect regression tests for the dialect-aware front door.
//!
//! The first three tests pin the three "known limits" the dialect work
//! cleared — each fails on the pre-dialect tolerant-union behaviour:
//!
//! 1. a `$$` custom delimiter no longer collides with dollar-quoting
//!    (MySQL scripts disable dollar-quoting entirely);
//! 2. `BEGIN ATOMIC` (SQL standard) opens a block under Postgres and
//!    Generic, so SQL-body routines survive splitting and parse with
//!    their sub-statements;
//! 3. Postgres scripts never raise the `DELIMITER` fallback diagnostic —
//!    the word is ordinary statement text, not a directive.
//!
//! The rest covers the per-dialect lexer surface (comments, identifier
//! quoting, string styles) and keyword admissibility, plus the property
//! that under every dialect the production splitter emits exactly the
//! two-pass reference splitter's statements on randomized scripts.

use sqlcheck_parser::diag::Limits;
use sqlcheck_parser::lexer::tokenize;
use sqlcheck_parser::parser::parse_raw_limited;
use sqlcheck_parser::splitter::reference::split_spanned;
use sqlcheck_parser::splitter::{split, split_deduped};
use sqlcheck_parser::{Dialect, Statement, TokenKind};

// ---------------------------------------------------------------------------
// Cleared limit 1: `$$` custom delimiters vs dollar-quoting
// ---------------------------------------------------------------------------

/// Under MySQL, `DELIMITER $$` works: dollar-quoting is not part of the
/// dialect, so `$$` is a plain custom delimiter and the trigger body
/// (with its internal `;`) stays one statement.
#[test]
fn mysql_dollar_delimiter_no_longer_collides_with_dollar_quoting() {
    let script = "DELIMITER $$\n\
                  CREATE TRIGGER trg BEFORE INSERT ON t FOR EACH ROW \
                  BEGIN UPDATE t SET a = 1; DELETE FROM u; END$$\n\
                  DELIMITER ;\n\
                  SELECT 1;\n";
    let stmts = split(script, Dialect::MySql);
    assert_eq!(stmts.len(), 2, "trigger + select: {:?}",
        stmts.iter().map(|s| s.text()).collect::<Vec<_>>());
    assert!(stmts[0].text().contains("DELETE FROM u"));
    assert_eq!(stmts[1].text().trim(), "SELECT 1");
}

/// The same bytes under Postgres read `$$ … $$` as a dollar-quoted
/// string (the pre-dialect collision), which is exactly why the split is
/// dialect-parameterised: each dialect gets its own reading.
#[test]
fn postgres_dollar_body_with_custom_delimiter_text_stays_one_statement() {
    // A dollar-quoted body containing `;;` — under Postgres the body is
    // one opaque token, so the function is ONE statement even though a
    // mysqldump reader would treat `;;` specially.
    let script = "CREATE FUNCTION f() RETURNS trigger AS $fn$ \
                  BEGIN UPDATE t SET a = 1;; DELETE FROM u; END; \
                  $fn$ LANGUAGE plpgsql;\nSELECT 2;\n";
    let stmts = split(script, Dialect::Postgres);
    assert_eq!(stmts.len(), 2);
    assert!(stmts[0].text().contains("$fn$"));
    assert_eq!(stmts[1].text().trim(), "SELECT 2");
}

// ---------------------------------------------------------------------------
// Cleared limit 2: `BEGIN ATOMIC` block integrity
// ---------------------------------------------------------------------------

/// `BEGIN ATOMIC … END` is a block under Postgres: body semicolons do
/// not split, and the routine parses with its body sub-statements.
#[test]
fn begin_atomic_body_survives_split_and_parse_under_postgres() {
    let script = "CREATE FUNCTION prune() RETURNS INTEGER LANGUAGE SQL \
                  BEGIN ATOMIC DELETE FROM t WHERE score < 0; SELECT 1; END;\n\
                  SELECT 2;\n";
    let stmts = split(script, Dialect::Postgres);
    assert_eq!(stmts.len(), 2, "routine + select: {:?}",
        stmts.iter().map(|s| s.text()).collect::<Vec<_>>());

    let (parsed, diags) =
        parse_raw_limited(stmts[0].clone(), &Limits::default(), Dialect::Postgres);
    assert!(diags.is_empty(), "clean parse expected: {diags:?}");
    match &parsed.stmt {
        Statement::CreateRoutine(r) => {
            assert_eq!(r.body.len(), 2, "DELETE + SELECT body: {:?}", r.body);
        }
        other => panic!("expected CreateRoutine, got {other:?}"),
    }
}

/// A statement-initial `BEGIN ATOMIC … END` (the SQL-standard anonymous
/// compound statement) is one statement under Postgres/Generic; under
/// MySQL and SQLite the capability is absent, so `ATOMIC` is ordinary
/// text and every body `;` splits. Dialect gating cuts both ways.
#[test]
fn statement_initial_begin_atomic_is_dialect_gated() {
    let script = "BEGIN ATOMIC UPDATE t SET a = 1; DELETE FROM u; END;\nSELECT 1;\n";
    for d in [Dialect::Generic, Dialect::Postgres] {
        assert_eq!(split(script, d).len(), 2, "{d}: block + select");
    }
    for d in [Dialect::MySql, Dialect::Sqlite] {
        assert_eq!(split(script, d).len(), 4, "{d}: every `;` splits");
    }
}

// ---------------------------------------------------------------------------
// Cleared limit 3: Postgres never pays the DELIMITER fallback
// ---------------------------------------------------------------------------

/// Under Postgres, `DELIMITER` is a plain word — not a directive — so a
/// script containing it records no directive and splits on every `;`.
#[test]
fn postgres_delimiter_word_is_not_a_directive() {
    let mut script = String::from("CREATE TABLE delimiter_log (id INTEGER, note VARCHAR(80));\n");
    for i in 0..400 {
        script.push_str(&format!(
            "INSERT INTO delimiter_log VALUES ({i}, 'DELIMITER is just a word here');\n"
        ));
    }
    let sequential = split_spanned(&script, Dialect::Postgres);
    assert_eq!(sequential.len(), 401);
    let deduped = split_deduped(&script, Dialect::Postgres);
    assert!(!deduped.saw_delimiter_directive);
    assert_eq!(deduped.occurrences.len(), sequential.len());
}

// ---------------------------------------------------------------------------
// Per-dialect lexer surface
// ---------------------------------------------------------------------------

#[test]
fn hash_comments_are_mysql_only() {
    let input = "# note\nSELECT 1";
    let my = tokenize(input, Dialect::MySql);
    assert_eq!(my[0].kind, TokenKind::Comment, "MySQL: `#` opens a line comment");
    for d in [Dialect::Generic, Dialect::Postgres, Dialect::Sqlite] {
        let toks = tokenize(input, d);
        assert!(
            toks.iter().all(|t| t.kind != TokenKind::Comment),
            "{d}: `#` must not open a comment"
        );
    }
}

#[test]
fn backtick_quoting_is_not_postgres() {
    let input = "SELECT `col` FROM t";
    for d in [Dialect::Generic, Dialect::MySql, Dialect::Sqlite] {
        let toks = tokenize(input, d);
        assert!(
            toks.iter().any(|t| t.kind == TokenKind::QuotedIdent && t.text.as_str() == "`col`"),
            "{d}: backticks quote identifiers"
        );
    }
    let pg = tokenize(input, Dialect::Postgres);
    assert!(
        pg.iter().all(|t| t.kind != TokenKind::QuotedIdent),
        "Postgres: backtick is not an identifier quote"
    );
}

#[test]
fn bracket_quoting_is_generic_and_sqlite_only() {
    let input = "SELECT [col] FROM t";
    for d in [Dialect::Generic, Dialect::Sqlite] {
        let toks = tokenize(input, d);
        assert!(
            toks.iter().any(|t| t.kind == TokenKind::QuotedIdent && t.text.as_str() == "[col]"),
            "{d}: brackets quote identifiers"
        );
    }
    for d in [Dialect::Postgres, Dialect::MySql] {
        let toks = tokenize(input, d);
        assert!(
            toks.iter().all(|t| t.kind != TokenKind::QuotedIdent),
            "{d}: brackets are not identifier quotes"
        );
    }
}

#[test]
fn double_quotes_are_strings_under_mysql_idents_elsewhere() {
    let input = "SELECT \"x\"";
    let my = tokenize(input, Dialect::MySql);
    assert!(my.iter().any(|t| t.kind == TokenKind::StringLit && t.text.as_str() == "\"x\""));
    for d in [Dialect::Generic, Dialect::Postgres, Dialect::Sqlite] {
        let toks = tokenize(input, d);
        assert!(
            toks.iter().any(|t| t.kind == TokenKind::QuotedIdent),
            "{d}: double quotes are identifier quotes"
        );
    }
}

#[test]
fn block_comments_nest_under_generic_and_postgres_only() {
    let input = "/* a /* b */ c */ SELECT 1";
    for d in [Dialect::Generic, Dialect::Postgres] {
        let toks = tokenize(input, d);
        assert_eq!(
            toks[0].text.as_str(),
            "/* a /* b */ c */",
            "{d}: block comments nest"
        );
    }
    for d in [Dialect::MySql, Dialect::Sqlite] {
        let toks = tokenize(input, d);
        assert_eq!(
            toks[0].text.as_str(),
            "/* a /* b */",
            "{d}: block comments end at the first `*/`"
        );
    }
}

// ---------------------------------------------------------------------------
// Keyword admissibility in the parser
// ---------------------------------------------------------------------------

/// Debug-render the parse result *including the expression arena* (the
/// shaped `Like`/`ILike`/… nodes live there, addressed by `ExprId`), so
/// a case-sensitive `contains("ILike")` observes shaping — the raw token
/// text is all-caps and never matches the variant spelling.
fn parse_under(sql: &str, dialect: Dialect) -> String {
    let stmts = split(sql, dialect);
    assert_eq!(stmts.len(), 1, "one statement expected from {sql:?}");
    let (p, _) = parse_raw_limited(stmts[0].clone(), &Limits::default(), dialect);
    format!("{:?} {:?}", p.stmt, p.arena)
}

#[test]
fn like_family_operators_follow_their_dialect() {
    // ILIKE is Postgres vocabulary: shaped there, raw under MySQL.
    let ilike = "SELECT a FROM t WHERE a ILIKE 'x%'";
    assert!(parse_under(ilike, Dialect::Postgres).contains("ILike"));
    assert!(!parse_under(ilike, Dialect::MySql).contains("ILike"));

    // REGEXP is MySQL/SQLite vocabulary: shaped there, raw under Postgres.
    let regexp = "SELECT a FROM t WHERE a REGEXP '^x'";
    assert!(parse_under(regexp, Dialect::MySql).contains("Regexp"));
    assert!(!parse_under(regexp, Dialect::Postgres).contains("Regexp"));

    // GLOB is SQLite vocabulary: shaped there, raw under MySQL.
    let glob = "SELECT a FROM t WHERE a GLOB 'x*'";
    assert!(parse_under(glob, Dialect::Sqlite).contains("Glob"));
    assert!(!parse_under(glob, Dialect::MySql).contains("Glob"));

    // Generic is the tolerant union: everything shapes.
    for sql in [ilike, regexp, glob] {
        let dbg = parse_under(sql, Dialect::Generic);
        assert!(
            dbg.contains("ILike") || dbg.contains("Regexp") || dbg.contains("Glob"),
            "Generic must shape {sql:?}: {dbg}"
        );
    }
}

// ---------------------------------------------------------------------------
// The production splitter equals the reference under every dialect
// ---------------------------------------------------------------------------

/// Deterministic xorshift64* generator (same idiom as `proptests.rs` —
/// the build environment has no `proptest` crate).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Script generator biased toward dialect-sensitive constructs: every
/// spelling whose reading *could* differ between dialects shows up here,
/// so splitter identity is tested exactly where dialects could break it.
fn dialect_stress_script(rng: &mut Rng) -> String {
    const FRAGMENTS: &[&str] = &[
        "SELECT * FROM t WHERE a = 1",
        "SELECT `b;tick` FROM t",
        "SELECT [bra;cket] FROM \"qu;oted\"",
        "SELECT \"double\" FROM t",
        "# hash line\nSELECT 1",
        "SELECT /* outer /* inner; */ tail */ x FROM y",
        "INSERT INTO t VALUES ($tag$v;1$tag$, 2)",
        "SELECT $$;$$",
        "SELECT a FROM t WHERE a ILIKE 'x%'",
        "SELECT a FROM t WHERE a REGEXP '^x' OR a RLIKE 'y'",
        "SELECT a FROM t WHERE a GLOB 'x*'",
        "SELECT a FROM t WHERE a SIMILAR TO 'x_'",
        "CREATE FUNCTION f() RETURNS INTEGER LANGUAGE SQL \
         BEGIN ATOMIC DELETE FROM t; SELECT 1; END",
        "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW \
         BEGIN UPDATE u SET a = 1; DELETE FROM v; END",
        "DELIMITER ;;\nSELECT 1; SELECT 2 ;;\nDELIMITER ;\n",
        "DELIMITER //\nUPDATE t SET a = 'x;y' //\nDELIMITER ;\n",
        "SELECT col$name FROM t",
        "SELECT e'esc;ape'",
        "",
        "-- just a comment",
    ];
    let n = rng.below(10);
    let mut script = String::new();
    for _ in 0..n {
        script.push_str(FRAGMENTS[rng.below(FRAGMENTS.len())]);
        script.push(';');
        if rng.below(3) == 0 {
            script.push('\n');
        }
    }
    script
}

/// Under every dialect, [`split`] and [`split_deduped`] must emit exactly
/// the statements of the two-pass reference splitter: same spans, content
/// hashes, template fingerprints, and materialised tokens.
#[test]
fn split_equals_reference_under_every_dialect() {
    let mut rng = Rng::new(0xD1A1);
    for case in 0..192 {
        let script = dialect_stress_script(&mut rng);
        for d in Dialect::ALL {
            let reference = split_spanned(&script, d);
            let deduped = split_deduped(&script, d);
            let raws = split(&script, d);
            assert_eq!(reference.len(), raws.len(), "case {case} {d}: count on {script:?}");
            assert_eq!(reference.len(), deduped.occurrences.len(), "case {case} {d}");
            for ((r, raw), (slot, span)) in reference.iter().zip(&raws).zip(&deduped.occurrences)
            {
                let u = &deduped.uniques[*slot as usize];
                assert_eq!(r.span, *span, "case {case} {d}: span on {script:?}");
                assert_eq!(r.span, raw.span, "case {case} {d}: split span on {script:?}");
                assert_eq!(r.content_hash, u.content_hash, "case {case} {d}: hash on {script:?}");
                assert_eq!(
                    r.fingerprint(&script),
                    u.fingerprint,
                    "case {case} {d}: fingerprint on {script:?}"
                );
                assert_eq!(
                    r.materialize(&script).tokens,
                    raw.tokens,
                    "case {case} {d}: tokens on {script:?}"
                );
            }
        }
    }
}

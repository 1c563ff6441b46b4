//! Property-based tests for the non-validating parser contract.
//!
//! The build environment has no access to the `proptest` crate, so these
//! properties are exercised with a small deterministic xorshift generator:
//! same seeds, same cases, every run.

use sqlcheck_parser::annotate::annotate;
use sqlcheck_parser::ast::Statement;
use sqlcheck_parser::lexer::tokenize;
use sqlcheck_parser::parser::{parse, parse_one};
use sqlcheck_parser::splitter::reference::split_spanned;
use sqlcheck_parser::splitter::{split, split_deduped};
use sqlcheck_parser::Dialect;

/// Deterministic xorshift64* generator for test-case synthesis.
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
    /// Arbitrary-ish string: ASCII printable, SQL punctuation, quotes,
    /// newlines, and some multi-byte unicode.
    fn arbitrary_string(&mut self, max_len: usize) -> String {
        const POOL: &[char] = &[
            'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '\t', '\n', '(', ')', ',', ';', '.', '*',
            '=', '<', '>', '\'', '"', '`', '[', ']', '%', '_', '$', ':', '?', '-', '/', '|',
            '\\', '#', '@', 'é', 'λ', '中', '😀', '\u{0}',
        ];
        let len = self.below(max_len + 1);
        (0..len).map(|_| POOL[self.below(POOL.len())]).collect()
    }
    fn ident(&mut self, max_extra: usize) -> String {
        const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
        const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        let mut s = String::new();
        s.push(HEAD[self.below(HEAD.len())] as char);
        for _ in 0..self.below(max_extra + 1) {
            s.push(TAIL[self.below(TAIL.len())] as char);
        }
        s
    }
}

const CASES: usize = 256;

/// The lexer must be lossless on arbitrary input: the concatenation of
/// token texts reproduces the input byte-for-byte, and lexing never
/// panics.
#[test]
fn lexer_is_lossless_on_arbitrary_input() {
    let mut rng = Rng::new(0x10A11);
    for case in 0..CASES {
        let input = rng.arbitrary_string(200);
        let toks = tokenize(&input, Dialect::Generic);
        let rebuilt: String = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rebuilt, input, "case {case}: lexer must be lossless");
    }
}

/// Token spans are contiguous and cover the input exactly.
#[test]
fn lexer_spans_are_contiguous() {
    let mut rng = Rng::new(0x5BA5);
    for case in 0..CASES {
        let input = rng.arbitrary_string(200);
        let toks = tokenize(&input, Dialect::Generic);
        let mut pos = 0usize;
        for t in &toks {
            assert_eq!(t.span.start, pos, "case {case}: span start");
            pos = t.span.end;
        }
        assert_eq!(pos, input.len(), "case {case}: spans cover input");
    }
}

/// The parser is total: any input parses without panicking.
#[test]
fn parser_is_total() {
    let mut rng = Rng::new(0x707A1);
    for _ in 0..CASES {
        let input = rng.arbitrary_string(300);
        let _ = parse(&input);
    }
}

/// Rendering a parsed statement and re-parsing it must be stable: the
/// second render equals the first (render is a fixpoint after one
/// normalisation step).
#[test]
fn render_is_fixpoint_on_generated_selects() {
    let mut rng = Rng::new(0xF1B);
    for case in 0..CASES {
        let n_cols = 1 + rng.below(4);
        let cols: Vec<String> = (0..n_cols).map(|_| rng.ident(8)).collect();
        let table = rng.ident(8);
        let val = rng.below(1000);
        let sql = format!(
            "SELECT {} FROM {} WHERE {} = {}",
            cols.join(", "),
            table,
            cols[0],
            val
        );
        let once = parse_one(&sql, Dialect::Generic).to_sql();
        let twice = parse_one(&once, Dialect::Generic).to_sql();
        assert_eq!(once, twice, "case {case}: render must be a fixpoint");
    }
}

/// Keywords injected between identifiers still produce a total parse
/// and a statement tag.
#[test]
fn statement_tag_is_always_defined() {
    const KWS: &[&str] =
        &["SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER", "PRAGMA"];
    const REST_POOL: &[char] =
        &[' ', 'a', 'z', '0', '9', '_', ',', '(', ')', '*', '=', '\''];
    let mut rng = Rng::new(0x7A6);
    for _ in 0..CASES {
        let kw = KWS[rng.below(KWS.len())];
        let len = rng.below(81);
        let rest: String = (0..len).map(|_| REST_POOL[rng.below(REST_POOL.len())]).collect();
        let sql = format!("{kw} {rest}");
        let p = parse_one(&sql, Dialect::Generic);
        let _ = p.stmt.tag();
    }
}

/// Build a random SQL-ish script stressing every construct that can hide
/// a `;` (string literals, line/block comments, dollar quotes, bracket
/// and quoted identifiers, DB-API parameters, `BEGIN…END` compound
/// bodies, `CASE…END` decoys, `DELIMITER` directives), plus empty
/// statements and an optional unterminated trailing statement.
fn random_script(rng: &mut Rng) -> String {
    const FRAGMENTS: &[&str] = &[
        "SELECT * FROM t WHERE a = 1",
        "SELECT 'a;b' FROM t",
        "SELECT 1 -- c;not a split\n, 2",
        "SELECT /* b;lock /* nested; */ */ x FROM y",
        "INSERT INTO t VALUES ($tag$v;1$tag$, 2)",
        "SELECT [col;umn] FROM \"ta;ble\"",
        "UPDATE `w;eird` SET a = %(pa;ram)s",
        "SELECT \";\"",
        "select a  ,  b from T where A in (1,2,3)",
        "",
        "   ",
        "-- just a comment",
        "DELETE FROM t WHERE x = :named",
        "SELECT $$;$$",
        // Compound statements and their decoys: the block-depth state
        // machine must keep every split path byte-identical on these.
        "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW \
         BEGIN UPDATE u SET a = 1; DELETE FROM v; END",
        "CREATE PROCEDURE p() BEGIN IF a THEN SELECT 1; END IF; \
         SELECT CASE WHEN b THEN 'x;y' END; END",
        "create trigger T2 before update on X for each row begin set a = 1; end",
        "SELECT CASE WHEN a = 1 THEN 'x;y' ELSE b END FROM t",
        "CREATE TABLE decoy (begin INT, end INT, [case] TEXT)",
        "BEGIN TRANSACTION",
        "BEGIN",
        "COMMIT",
        "END",
        "END IF",
        "CREATE TRIGGER dangling BEFORE DELETE ON t FOR EACH ROW BEGIN SELECT 1",
        "DELIMITER ;;\nSELECT 1; SELECT 2 ;;\nDELIMITER ;\n",
        "DELIMITER //\nUPDATE t SET a = 'x;y' //\nDELIMITER ;\n",
        "DELIMITER ;;",
    ];
    let n = rng.below(12);
    let mut script = String::new();
    for _ in 0..n {
        if rng.below(8) == 0 {
            // Raw fuzz between statements.
            script.push_str(&rng.arbitrary_string(24));
        } else {
            script.push_str(FRAGMENTS[rng.below(FRAGMENTS.len())]);
        }
        script.push(';');
        if rng.below(3) == 0 {
            script.push('\n');
        }
    }
    match rng.below(4) {
        0 => script.push_str("SELECT 'trailing unterminated"),
        1 => script.push_str("SELECT trailing_no_semi FROM t"),
        2 => script.push_str(&rng.arbitrary_string(16)),
        _ => {}
    }
    script
}

/// The production splitter must emit exactly the statements of the
/// two-pass `split_spanned` reference — same spans, same content hashes,
/// and identical materialised token streams — on randomized scripts full
/// of semicolon decoys.
#[test]
fn fused_split_equals_legacy_split_on_random_scripts() {
    let mut rng = Rng::new(0x5B11);
    for case in 0..CASES {
        let script = random_script(&mut rng);
        let d = split_deduped(&script, Dialect::Generic);
        let raws = split(&script, Dialect::Generic);
        let legacy = split_spanned(&script, Dialect::Generic);
        assert_eq!(d.occurrences.len(), legacy.len(), "case {case}: count on {script:?}");
        assert_eq!(raws.len(), legacy.len(), "case {case}: split count on {script:?}");
        for (((slot, span), raw), l) in d.occurrences.iter().zip(&raws).zip(&legacy) {
            let u = &d.uniques[*slot as usize];
            assert_eq!(*span, l.span, "case {case}: span on {script:?}");
            assert_eq!(u.content_hash, l.content_hash, "case {case}: hash on {script:?}");
            assert_eq!(
                raw.tokens,
                l.materialize(&script).tokens,
                "case {case}: materialised tokens on {script:?}"
            );
        }
    }
}

/// Splitter-level dedup must preserve the occurrence sequence exactly:
/// mapping every occurrence back through its unique slot reproduces the
/// reference splitter's spans and hashes, every occurrence's text equals
/// its slot's text, and no two slots hold the same text.
#[test]
fn deduped_split_round_trips_on_random_scripts() {
    let mut rng = Rng::new(0xDED0);
    for case in 0..CASES / 2 {
        let script = random_script(&mut rng);
        let full = split_spanned(&script, Dialect::Generic);
        let d = split_deduped(&script, Dialect::Generic);
        assert_eq!(d.occurrences.len(), full.len(), "case {case}");
        let text = |s: sqlcheck_parser::Span| &script[s.start..s.end];
        for ((slot, span), s) in d.occurrences.iter().zip(&full) {
            assert_eq!(*span, s.span, "case {case}: occurrence span");
            let u = &d.uniques[*slot as usize];
            assert_eq!(u.content_hash, s.content_hash, "case {case}: unique hash");
            assert_eq!(text(*span), text(u.span), "case {case}: occurrence text");
        }
        let distinct: std::collections::HashSet<&str> =
            d.uniques.iter().map(|u| text(u.span)).collect();
        assert_eq!(distinct.len(), d.uniques.len(), "case {case}: duplicate unique slot");
    }
}

/// A random statement over every construct that fills the expression
/// arena and the annotation lists: joins, pattern and range predicates,
/// subqueries, function calls, writes, and compound bodies holding
/// further statements.
fn random_statement(rng: &mut Rng, depth: usize) -> String {
    let col = |rng: &mut Rng| match rng.below(3) {
        0 => format!("{}.{}", rng.ident(3), rng.ident(4)),
        _ => rng.ident(6),
    };
    let pred = |rng: &mut Rng| -> String {
        let c = col(rng);
        match rng.below(7) {
            0 => format!("{c} = {}", rng.below(100)),
            1 => format!("'{}' <> {c}", rng.ident(4)),
            2 => format!("{c} LIKE '%{}%'", rng.ident(3)),
            3 => format!("{c} IN ({}, {})", rng.below(9), rng.below(9)),
            4 => format!("{c} BETWEEN 1 AND {}", rng.below(50)),
            5 => format!("{c} IS NOT NULL"),
            _ => format!("LOWER({c}) = '{}'", rng.ident(4)),
        }
    };
    let preds = |rng: &mut Rng| -> String {
        let n = 1 + rng.below(3);
        let joiner = [" AND ", " OR "][rng.below(2)];
        (0..n).map(|_| pred(rng)).collect::<Vec<_>>().join(joiner)
    };
    match rng.below(if depth > 0 { 6 } else { 8 }) {
        0 | 1 => {
            let distinct = ["", "DISTINCT "][rng.below(2)];
            let (a, b, t) = (col(rng), col(rng), rng.ident(5));
            let mut s = format!("SELECT {distinct}{a}, {b} FROM {t}");
            if rng.below(2) == 0 {
                s += &format!(" JOIN {} ON {} = {}", rng.ident(5), col(rng), col(rng));
            }
            s += &format!(" WHERE {}", preds(rng));
            if rng.below(3) == 0 {
                s += &format!(" AND x IN (SELECT y FROM {} WHERE {})", rng.ident(4), pred(rng));
            }
            if rng.below(3) == 0 {
                s += &format!(" GROUP BY {} ORDER BY UPPER({})", col(rng), col(rng));
            }
            s
        }
        2 => format!("INSERT INTO {} (a, b) VALUES ({}, NOW())", rng.ident(5), rng.below(9)),
        3 => {
            let (t, c) = (rng.ident(5), rng.ident(4));
            format!("UPDATE {t} SET {c} = COALESCE(b, 0) WHERE {}", preds(rng))
        }
        4 => format!("DELETE FROM {} WHERE {}", rng.ident(5), preds(rng)),
        5 => rng.arbitrary_string(40),
        kind => {
            let n = 1 + rng.below(4);
            let body: String =
                (0..n).map(|_| random_statement(rng, depth + 1) + "; ").collect();
            match kind {
                6 => format!(
                    "CREATE TRIGGER {} AFTER INSERT ON {} FOR EACH ROW BEGIN {body}END",
                    rng.ident(4),
                    rng.ident(5)
                ),
                _ => format!("CREATE PROCEDURE {}() BEGIN {body}END", rng.ident(4)),
            }
        }
    }
}

/// Parse and annotate `sql`, rendered for comparison: tree, arena,
/// annotations. The flag is true when the statement took a typed shape.
fn parse_and_annotate(sql: &str, dialect: Dialect) -> (String, bool) {
    let p = parse_one(sql, dialect);
    let shaped = !matches!(p.stmt, Statement::Other(_));
    (format!("{:?}\n{:?}", p, annotate(&p.stmt, &p.arena)), shaped)
}

/// The parser's scratch arena is reused per thread and must carry nothing
/// from one statement into the next: each statement parsed and annotated
/// right after a large trigger or routine must equal the same statement
/// on a fresh thread.
#[test]
fn reused_parse_state_matches_a_fresh_thread() {
    let mut rng = Rng::new(0x5C2A7C);
    let big = |i: usize| {
        let body: String = (0..48)
            .map(|j| format!("UPDATE t{j} SET a = LOWER(b) WHERE c IN (1, {j}) AND d LIKE 'x%'; "))
            .chain(["SELECT DISTINCT * FROM a JOIN b ON a.x = b.y; ".to_string()])
            .collect();
        match i % 2 {
            0 => format!("CREATE TRIGGER g AFTER INSERT ON t FOR EACH ROW BEGIN {body}END"),
            _ => format!("CREATE PROCEDURE p() BEGIN {body}END"),
        }
    };
    let mut shaped = 0;
    for case in 0..CASES {
        let sql = random_statement(&mut rng, 0);
        let dialect = Dialect::ALL[rng.below(Dialect::ALL.len())];
        assert!(parse_and_annotate(&big(case), dialect).1);
        let after_big = parse_and_annotate(&sql, dialect);
        let owned = sql.clone();
        let fresh = std::thread::spawn(move || parse_and_annotate(&owned, dialect));
        assert_eq!(after_big, fresh.join().unwrap(), "case {case} ({dialect}): {sql:?}");
        shaped += usize::from(after_big.1);
    }
    assert!(shaped > CASES / 2, "most generated statements must parse shaped ({shaped})");
}

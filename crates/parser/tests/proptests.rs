//! Property-based tests for the non-validating parser contract.
//!
//! The build environment has no access to the `proptest` crate, so these
//! properties are exercised with a small deterministic xorshift generator:
//! same seeds, same cases, every run.

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
/// and a statement tag; the fingerprint is insensitive to case and
/// whitespace mangling of the same statement.
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
/// same template fingerprints, and identical materialised token streams
/// — on randomized scripts full of semicolon decoys.
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
                u.fingerprint,
                l.fingerprint(&script),
                "case {case}: fingerprint on {script:?}"
            );
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
            assert_eq!(u.fingerprint, s.fingerprint(&script), "case {case}: unique fingerprint");
            assert_eq!(text(*span), text(u.span), "case {case}: occurrence text");
        }
        let distinct: std::collections::HashSet<&str> =
            d.uniques.iter().map(|u| text(u.span)).collect();
        assert_eq!(distinct.len(), d.uniques.len(), "case {case}: duplicate unique slot");
    }
}

/// Fingerprints are literal-, case-, and whitespace-insensitive on
/// generated statements, and the template never contains literal text.
#[test]
fn fingerprint_is_template_stable() {
    let mut rng = Rng::new(0xF160);
    for case in 0..CASES {
        let table = rng.ident(8);
        let col = rng.ident(6);
        let v1 = rng.below(100_000);
        let v2 = rng.below(100_000);
        let a = format!("SELECT {col} FROM {table} WHERE {col} = {v1}");
        let b = format!(
            "select  {}  from {} where {} = {v2}",
            col.to_ascii_uppercase(),
            table.to_ascii_uppercase(),
            col.to_ascii_uppercase()
        );
        let pa = parse_one(&a, Dialect::Generic);
        let pb = parse_one(&b, Dialect::Generic);
        assert_eq!(pa.fingerprint(), pb.fingerprint(), "case {case}: {a} vs {b}");
        assert!(!pa.template().contains(&v1.to_string()), "case {case}: literal leaked");
    }
}

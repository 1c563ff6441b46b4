//! Resource-budget regression tests: pathological inputs must degrade
//! deliberately (bounded CPU and stack, `OverLimit`/`ExprDegraded`/
//! `ParseDegraded` diagnostics) instead of crashing or hanging.

use sqlcheck_parser::ast::Statement;
use sqlcheck_parser::diag::{DiagKind, Limits};
use sqlcheck_parser::parser::{parse, parse_one, parse_raw_limited};
use sqlcheck_parser::splitter::split;
use sqlcheck_parser::Dialect;

fn diag_kinds(diags: &[sqlcheck_parser::diag::Diagnostic]) -> Vec<DiagKind> {
    diags.iter().map(|d| d.kind).collect()
}

#[test]
fn ten_thousand_nested_parens_do_not_blow_the_stack() {
    // The ISSUE regression case: expression recursion must be depth-
    // guarded, not bounded by the thread's stack size.
    let depth = 10_000;
    let mut sql = String::from("SELECT ");
    sql.extend(std::iter::repeat_n('(', depth));
    sql.push('1');
    sql.extend(std::iter::repeat_n(')', depth));
    let parsed = parse(&sql);
    assert_eq!(parsed.len(), 1);
    // The statement still shapes as a SELECT; the over-deep expression
    // sub-tree flattened to Raw.
    assert!(matches!(parsed[0].stmt, Statement::Select(_)), "{:?}", parsed[0].stmt);
}

#[test]
fn deep_parens_report_over_limit_and_degraded() {
    let depth = 1_000;
    let mut sql = String::from("SELECT ");
    sql.extend(std::iter::repeat_n('(', depth));
    sql.push('1');
    sql.extend(std::iter::repeat_n(')', depth));
    let raw = split(&sql, Dialect::Generic).pop().expect("one statement");
    let (p, diags) = parse_raw_limited(raw, &Limits::default(), Dialect::Generic);
    assert!(matches!(p.stmt, Statement::Select(_)));
    let kinds = diag_kinds(&diags);
    assert!(kinds.contains(&DiagKind::OverLimit), "{diags:?}");
    // The statement kept its shape: only a sub-expression degraded.
    assert!(kinds.contains(&DiagKind::ExprDegraded), "{diags:?}");
    assert!(!kinds.contains(&DiagKind::ParseDegraded), "{diags:?}");
}

#[test]
fn shallow_nesting_stays_fully_shaped() {
    let sql = "SELECT ((a + (b * 2))) FROM t WHERE (x IN (1, 2, (3)))";
    let raw = split(sql, Dialect::Generic).pop().expect("one statement");
    let (p, diags) = parse_raw_limited(raw, &Limits::default(), Dialect::Generic);
    assert!(matches!(p.stmt, Statement::Select(_)));
    assert!(diags.is_empty(), "clean statement must emit no diagnostics: {diags:?}");
}

#[test]
fn deep_unary_not_chain_is_bounded() {
    let mut sql = String::from("SELECT ");
    sql.push_str(&"NOT ".repeat(20_000));
    sql.push('1');
    let parsed = parse(&sql);
    assert_eq!(parsed.len(), 1);
}

#[test]
fn deeply_nested_subqueries_are_bounded() {
    let depth = 5_000;
    let mut sql = String::from("SELECT * FROM ");
    sql.extend(std::iter::repeat_n("(SELECT * FROM ", depth).map(String::from));
    sql.push('t');
    sql.extend(std::iter::repeat_n(')', depth));
    let parsed = parse(&sql);
    assert_eq!(parsed.len(), 1);
}

#[test]
fn deeply_nested_begin_blocks_are_bounded() {
    let depth = 5_000;
    let mut sql = String::from("CREATE PROCEDURE p() ");
    sql.extend(std::iter::repeat_n("BEGIN ", depth).map(String::from));
    sql.push_str("SELECT 1; ");
    sql.extend(std::iter::repeat_n("END; ", depth).map(String::from));
    let parsed = parse(&sql);
    assert!(!parsed.is_empty());
}

#[test]
fn over_byte_budget_skips_structural_parse() {
    let sql = format!("SELECT {} FROM t", "x".repeat(4096));
    let raw = split(&sql, Dialect::Generic).pop().expect("one statement");
    let tight = Limits { max_statement_bytes: 1024, ..Limits::default() };
    let (p, diags) = parse_raw_limited(raw, &tight, Dialect::Generic);
    let Statement::Other(o) = &p.stmt else { panic!("expected Other, got {:?}", p.stmt) };
    assert_eq!(o.leading_keyword, "SELECT");
    assert_eq!(diag_kinds(&diags), vec![DiagKind::OverLimit]);
    // The source text is preserved even when the structural parse is skipped.
    assert_eq!(p.text(), sql);
}

#[test]
fn over_token_budget_skips_structural_parse() {
    let cols: Vec<String> = (0..500).map(|i| format!("c{i}")).collect();
    let sql = format!("SELECT {} FROM t", cols.join(", "));
    let raw = split(&sql, Dialect::Generic).pop().expect("one statement");
    let tight = Limits { max_tokens: 64, ..Limits::default() };
    let (p, diags) = parse_raw_limited(raw, &tight, Dialect::Generic);
    assert!(matches!(p.stmt, Statement::Other(_)));
    assert_eq!(diag_kinds(&diags), vec![DiagKind::OverLimit]);
}

#[test]
fn unterminated_block_is_diagnosed() {
    let sql = "CREATE TRIGGER t1 BEFORE UPDATE ON x FOR EACH ROW BEGIN SELECT 1;";
    let raw = split(sql, Dialect::Generic).pop().expect("one statement");
    let (p, diags) = parse_raw_limited(raw, &Limits::default(), Dialect::Generic);
    assert!(matches!(p.stmt, Statement::CreateTrigger(_)), "{:?}", p.stmt);
    assert!(diag_kinds(&diags).contains(&DiagKind::UnterminatedBlock), "{diags:?}");
}

#[test]
fn orphan_end_is_diagnosed() {
    let raw = split("END", Dialect::Generic).pop().expect("one statement");
    let (p, diags) = parse_raw_limited(raw, &Limits::default(), Dialect::Generic);
    assert!(matches!(p.stmt, Statement::Other(_)));
    assert_eq!(diag_kinds(&diags), vec![DiagKind::OrphanEnd]);
}

#[test]
fn unshaped_statement_is_diagnosed_as_degraded() {
    let raw = split("GRANT ALL ON t TO alice", Dialect::Generic).pop().expect("one statement");
    let (p, diags) = parse_raw_limited(raw, &Limits::default(), Dialect::Generic);
    assert!(matches!(p.stmt, Statement::Other(_)));
    assert_eq!(diag_kinds(&diags), vec![DiagKind::ParseDegraded]);
}

#[test]
fn parse_one_handles_trivia_and_statements() {
    // All-trivia input: the whole input is kept as the source.
    let p = parse_one("  -- just a comment\n  ", Dialect::Generic);
    assert!(matches!(&p.stmt, Statement::Other(o) if o.leading_keyword.is_empty()));
    assert_eq!(p.text(), "  -- just a comment\n  ");
    // Normal input: first statement of several.
    let p = parse_one("SELECT a FROM t; SELECT b FROM u;", Dialect::Generic);
    let Statement::Select(s) = &p.stmt else { panic!("{:?}", p.stmt) };
    assert_eq!(s.from.as_ref().unwrap().name.to_string(), "t");
    // Empty input.
    let p = parse_one("", Dialect::Generic);
    assert!(matches!(p.stmt, Statement::Other(_)));
    // DELIMITER directive before the first statement.
    let p = parse_one("DELIMITER //\nSELECT 1 //", Dialect::Generic);
    assert!(matches!(p.stmt, Statement::Select(_)), "{:?}", p.stmt);
}

#[test]
fn budget_flags_do_not_leak_between_statements() {
    // A degraded parse followed by a clean parse on the same thread must
    // not smear diagnostics onto the clean statement.
    let deep = {
        let mut s = String::from("SELECT ");
        s.extend(std::iter::repeat_n('(', 500));
        s.push('1');
        s.extend(std::iter::repeat_n(')', 500));
        s
    };
    let raw_deep = split(&deep, Dialect::Generic).pop().unwrap();
    let (_, d1) = parse_raw_limited(raw_deep, &Limits::default(), Dialect::Generic);
    assert!(!d1.is_empty());
    let raw_clean = split("SELECT a FROM t", Dialect::Generic).pop().unwrap();
    let (_, d2) = parse_raw_limited(raw_clean, &Limits::default(), Dialect::Generic);
    assert!(d2.is_empty(), "{d2:?}");
}

#[test]
fn expr_raw_fallback_sets_sub_expression_diagnostic() {
    // A shaped statement whose WHERE clause cannot be shaped.
    let raw = split("SELECT a FROM t WHERE a ->> 'b' @> 'c'", Dialect::Generic).pop().unwrap();
    let (p, diags) = parse_raw_limited(raw, &Limits::default(), Dialect::Generic);
    if matches!(p.stmt, Statement::Select(_)) {
        // Either the whole clause went Raw (sub-expression diagnostic)
        // or the parser shaped it — both are valid total outcomes, but a
        // Raw fallback must be reported.
        let has_raw = format!("{:?}", p.stmt).contains("Raw");
        if has_raw {
            assert!(diag_kinds(&diags).contains(&DiagKind::ExprDegraded), "{diags:?}");
        }
    }
}

#[test]
fn delimiter_scripts_set_the_dedup_flag() {
    use sqlcheck_parser::splitter::split_deduped;
    use sqlcheck_parser::Dialect;
    let script = "DELIMITER //\nSELECT 1; SELECT 2 //\nDELIMITER ;\nSELECT 3;";
    assert!(split_deduped(script, Dialect::Generic).saw_delimiter_directive);
    let plain = "SELECT 1; SELECT 2; SELECT 3;";
    assert!(!split_deduped(plain, Dialect::Generic).saw_delimiter_directive);
    // The word appearing mid-statement is not a directive.
    let decoy = "SELECT delimiter FROM t;";
    assert!(!split_deduped(decoy, Dialect::Generic).saw_delimiter_directive);
}

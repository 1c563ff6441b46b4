//! End-to-end pipeline tests for compound statements: `BEGIN…END`
//! trigger/procedure bodies, dollar-quoted PL/pgSQL function bodies, and
//! MySQL dump `DELIMITER` blocks must survive split → parse → annotate →
//! detect → span reporting through `SqlCheck::check_workload`, and
//! through `CheckSession` re-checks whose DDL edits reach into
//! body-referenced tables.

use sqlcheck::detect::reference;
use sqlcheck::{AntiPatternKind, FrontendOptions, ContextBuilder, Detector, Locus, SqlCheck};
use sqlcheck_parser::ast::Statement;

/// The ISSUE 5 acceptance repro.
const REPRO: &str = "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW \
                     BEGIN UPDATE u SET a = 1; DELETE FROM v; END; SELECT 1;";

#[test]
fn repro_splits_parses_and_annotates() {
    let ctx = ContextBuilder::new().add_script(REPRO).build();
    assert_eq!(ctx.len(), 2, "trigger + SELECT — body semicolons must not split");
    let trigger = &ctx.statements[0];
    let Statement::CreateTrigger(tg) = &trigger.parsed.stmt else {
        panic!("expected a real CreateTrigger node, got {:?}", trigger.parsed.stmt);
    };
    assert_eq!(tg.body.len(), 2);
    // Body-referenced tables surface in the annotations.
    assert!(trigger.ann.tables.iter().any(|t| t == "u"));
    assert!(trigger.ann.tables.iter().any(|t| t == "v"));
}

#[test]
fn body_detections_point_into_the_body() {
    // A trigger body with two detectable sub-statements: an implicit-
    // columns INSERT and a SELECT * — both anti-patterns *inside* the
    // body, reported at the trigger's locus with spans into the body.
    let script = "CREATE TRIGGER audit AFTER UPDATE ON t FOR EACH ROW BEGIN \
                  INSERT INTO log VALUES (1); \
                  SELECT * FROM audit_rows ORDER BY RAND(); \
                  END;\nSELECT 2;";
    let ctx = ContextBuilder::new().add_script(script).build();
    let det = Detector::default();
    let seq = reference::detect(&ctx, &det.cfg);
    // Byte-identity across all paths is preserved with body fan-out.
    let batch = det.detect_batch(&ctx);
    let fmt =
        |r: &sqlcheck::Report| r.detections.iter().map(|d| format!("{d:?}")).collect::<Vec<_>>();
    assert_eq!(fmt(&seq), fmt(&batch.report));
    let find = |kind: AntiPatternKind| {
        seq.detections
            .iter()
            .find(|d| d.kind == kind && matches!(d.locus, Locus::Statement { index: 0 }))
            .unwrap_or_else(|| panic!("{kind:?} must be detected inside the trigger body"))
    };
    let implicit = find(AntiPatternKind::ImplicitColumns);
    let span = implicit.span.expect("body detection has a span");
    assert_eq!(&script[span.start..span.end], "INSERT INTO log VALUES (1)");
    let wildcard = find(AntiPatternKind::ColumnWildcard);
    let span = wildcard.span.expect("body detection has a span");
    assert_eq!(&script[span.start..span.end], "SELECT * FROM audit_rows ORDER BY RAND()");
    assert!(seq.detections.iter().any(|d| d.kind == AntiPatternKind::OrderingByRand));
}

#[test]
fn constructs_inside_bodies_are_still_detected() {
    // Statements guarded by IF/WHILE constructs are executable body
    // statements: the construct header is stripped at parse time, so the
    // rules see the SELECT/INSERT behind it.
    let script = "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW BEGIN \
                  IF NEW.a > 0 THEN SELECT * FROM big ORDER BY RAND(); END IF; \
                  WHILE NEW.b > 0 DO INSERT INTO log VALUES (1); END WHILE; \
                  END;";
    let ctx = ContextBuilder::new().add_script(script).build();
    let report = Detector::default().detect(&ctx);
    let kinds: Vec<AntiPatternKind> = report.detections.iter().map(|d| d.kind).collect();
    assert!(kinds.contains(&AntiPatternKind::ColumnWildcard), "{kinds:?}");
    assert!(kinds.contains(&AntiPatternKind::OrderingByRand), "{kinds:?}");
    assert!(kinds.contains(&AntiPatternKind::ImplicitColumns), "{kinds:?}");
    let wc = report
        .detections
        .iter()
        .find(|d| d.kind == AntiPatternKind::ColumnWildcard)
        .and_then(|d| d.span)
        .expect("span");
    assert_eq!(&script[wc.start..wc.end], "SELECT * FROM big ORDER BY RAND()");
}

#[test]
fn dollar_quoted_function_body_e2e() {
    // Lexer handled $tag$…$tag$ before; this pins the whole pipeline:
    // split → parse → detect → span reporting through check_workload.
    let script = "CREATE FUNCTION sweep() RETURNS trigger AS $fn$\n\
                  BEGIN\n\
                    DELETE FROM stale;\n\
                    SELECT * FROM counters;\n\
                  END\n\
                  $fn$ LANGUAGE plpgsql;\n\
                  SELECT name FROM t WHERE id = 1;";
    let tool = SqlCheck::new();
    let w = tool.check_workload(script, &FrontendOptions::default());
    assert_eq!(w.stats.statements, 2);
    let ctx = &w.outcome.context;
    let Statement::CreateRoutine(r) = &ctx.statements[0].parsed.stmt else {
        panic!("expected CreateRoutine, got {:?}", ctx.statements[0].parsed.stmt);
    };
    assert_eq!(r.body.len(), 2);
    assert!(ctx.statements[0].ann.tables.iter().any(|t| t == "stale"));
    assert!(ctx.statements[0].ann.tables.iter().any(|t| t == "counters"));
    // The wildcard inside the dollar-quoted body is detected, and its
    // span slices the original script at the body sub-statement.
    let d = w
        .outcome
        .report
        .detections
        .iter()
        .find(|d| {
            d.kind == AntiPatternKind::ColumnWildcard
                && matches!(d.locus, Locus::Statement { index: 0 })
        })
        .expect("wildcard inside the dollar-quoted body");
    let span = d.span.expect("span attached");
    assert_eq!(&script[span.start..span.end], "SELECT * FROM counters");
}

#[test]
fn mysqldump_delimiter_block_e2e() {
    let script = "DELIMITER ;;\n\
                  CREATE TRIGGER bump BEFORE INSERT ON t FOR EACH ROW\n\
                  BEGIN\n\
                    UPDATE counters SET n = n + 1;\n\
                  END ;;\n\
                  DELIMITER ;\n\
                  SELECT * FROM t;";
    let tool = SqlCheck::new();
    let w = tool.check_workload(script, &FrontendOptions::default());
    assert_eq!(w.stats.statements, 2, "directive lines are not statements");
    assert!(matches!(w.outcome.context.statements[0].parsed.stmt, Statement::CreateTrigger(_)));
    assert!(w
        .outcome
        .report
        .detections
        .iter()
        .any(|d| d.kind == AntiPatternKind::ColumnWildcard));
}

/// Script with a trigger whose body touches `v`, plus unrelated texts —
/// enough of them that a one-statement edit patches a session in place.
fn trigger_script(v_extra_col: bool) -> String {
    let v_ddl = if v_extra_col {
        "CREATE TABLE v (a INT PRIMARY KEY, b INT);"
    } else {
        "CREATE TABLE v (a INT PRIMARY KEY);"
    };
    let filler: String =
        (0..8).map(|i| format!("\nSELECT name FROM unrelated WHERE id = {i};")).collect();
    format!("{v_ddl}\n{REPRO}\nSELECT name FROM unrelated WHERE id = 1;{filler}")
}

#[test]
fn ddl_edit_to_body_referenced_table_matches_cold() {
    let opts = FrontendOptions::default();
    let fmt = |o: &sqlcheck::CheckOutcome| {
        o.report.detections.iter().map(|d| format!("{d:?}")).collect::<Vec<_>>()
    };
    let mut session = SqlCheck::new().into_session(trigger_script(false), opts.clone());
    // ADD COLUMN to `v` — a table referenced only from the trigger BODY
    // — then a retype of `v.a`, which the body's `DELETE FROM v` reads.
    // Both patch in place and match a cold check of the edited script.
    for (round, ddl) in [
        "CREATE TABLE v (a INT PRIMARY KEY, b INT)",
        "CREATE TABLE v (a BIGINT PRIMARY KEY, b INT)",
    ]
    .into_iter()
    .enumerate()
    {
        session.recheck(&[sqlcheck::Edit::new(0, ddl)]);
        assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0), "round {round}");
        let cold = SqlCheck::new().check_workload(session.script(), &opts);
        assert_eq!(fmt(&cold.outcome), fmt(&session.outcome().outcome), "round {round}");
    }
    let retyped = trigger_script(true).replace(
        "CREATE TABLE v (a INT PRIMARY KEY, b INT);",
        "CREATE TABLE v (a BIGINT PRIMARY KEY, b INT);",
    );
    assert_eq!(session.script(), retyped);
}

#[test]
fn compound_session_rechecks_stay_byte_identical() {
    let script = "CREATE TRIGGER audit AFTER UPDATE ON t FOR EACH ROW BEGIN \
                  INSERT INTO log VALUES (1); SELECT * FROM x; END;\n\
                  SELECT 2;\n\
                  CREATE TRIGGER audit AFTER UPDATE ON t FOR EACH ROW BEGIN \
                  INSERT INTO log VALUES (1); SELECT * FROM x; END;";
    let filler: String = (0..8).map(|i| format!("\nSELECT {i};")).collect();
    let script = format!("{script}{filler}");
    let opts = FrontendOptions::default();
    let fmt = |o: &sqlcheck::CheckOutcome| {
        o.report.detections.iter().map(|d| format!("{d:?}")).collect::<Vec<_>>()
    };
    // Lengthening the statement between the triggers moves the second
    // one; reverting moves it back.
    let mut session = SqlCheck::new().into_session(script.clone(), opts.clone());
    for text in ["SELECT 2 + 2 + 2 + 2", "SELECT 2"] {
        session.recheck(&[sqlcheck::Edit::new(1, text)]);
        assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0), "{text}");
        let cold = SqlCheck::new().check_workload(session.script(), &opts);
        assert_eq!(fmt(&cold.outcome), fmt(&session.outcome().outcome), "{text}");
        // Duplicate trigger occurrences: each body detection must carry
        // its own occurrence's absolute span.
        let warm = session.outcome();
        let spans: Vec<_> = warm
            .outcome
            .report
            .detections
            .iter()
            .filter(|d| d.kind == AntiPatternKind::ColumnWildcard)
            .filter_map(|d| d.span)
            .collect();
        assert_eq!(spans.len(), 2, "one wildcard per trigger occurrence");
        assert_ne!(spans[0], spans[1], "each occurrence points at its own body");
        for s in spans {
            assert_eq!(&session.script()[s.start..s.end], "SELECT * FROM x");
        }
    }
    assert_eq!(session.script(), script);
}

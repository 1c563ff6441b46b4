//! Regression tests for per-occurrence source spans (headline bugfix of
//! the three-phase-pipeline PR).
//!
//! The parse-once front-end shares one parse tree across duplicate
//! statement texts, so the *tokens* of a duplicate carry the first
//! occurrence's byte offsets. Detections and fixes must nevertheless
//! point at **their own** occurrence: `ContextBuilder` keeps a
//! per-occurrence span side table and the detection fan-out stamps every
//! statement-locus detection with its occurrence's span.

use sqlcheck::detect::reference;
use sqlcheck::{
    FrontendOptions, ContextBuilder, Detector, Locus, SqlCheck,
};
use std::sync::Arc;

/// The same bad statement twice, at different offsets, with distinct
/// statements around it.
const SCRIPT: &str = "CREATE TABLE t (a INT PRIMARY KEY, b TEXT);\n\
                      SELECT * FROM t WHERE b = 'x';\n\
                      INSERT INTO t (a, b) VALUES (1, 'y');\n\
                      SELECT * FROM t WHERE b = 'x';\n";

fn occurrence_texts(script: &str) -> Vec<(usize, usize)> {
    // Byte ranges of the two duplicate SELECTs in SCRIPT.
    let needle = "SELECT * FROM t WHERE b = 'x'";
    let first = script.find(needle).expect("first occurrence");
    let second = script[first + 1..].find(needle).expect("second occurrence") + first + 1;
    vec![(first, first + needle.len()), (second, second + needle.len())]
}

#[test]
fn duplicate_statements_share_tree_but_not_spans() {
    let ctx = ContextBuilder::new().add_script(SCRIPT).build();
    assert_eq!(ctx.len(), 4);
    let (s1, s3) = (&ctx.statements[1], &ctx.statements[3]);
    assert!(Arc::ptr_eq(&s1.parsed, &s3.parsed), "duplicates share the parse tree");
    assert_ne!(s1.span, s3.span, "each occurrence keeps its own span");
    let occ = occurrence_texts(SCRIPT);
    assert_eq!((s1.span.start, s1.span.end), occ[0]);
    assert_eq!((s3.span.start, s3.span.end), occ[1]);
}

#[test]
fn detections_on_duplicates_carry_their_own_occurrence_span() {
    let occ = occurrence_texts(SCRIPT);
    let ctx = ContextBuilder::new().add_script(SCRIPT).build();
    let det = Detector::default();
    for (label, report) in [
        ("reference", reference::detect(&ctx, &det.cfg)),
        ("batch", det.detect_batch(&ctx).report),
    ] {
        let mut seen = [false, false];
        for d in &report.detections {
            let Locus::Statement { index } = d.locus else { continue };
            let span = d.span.unwrap_or_else(|| panic!("{label}: statement detection has a span"));
            // Every statement-locus detection points inside its own
            // statement's source range.
            let stmt_span = ctx.statements[index].span;
            assert_eq!(span, stmt_span, "{label}: detection span is the occurrence's span");
            if index == 1 {
                assert_eq!((span.start, span.end), occ[0], "{label}: first occurrence");
                seen[0] = true;
            }
            if index == 3 {
                assert_eq!((span.start, span.end), occ[1], "{label}: second occurrence");
                seen[1] = true;
            }
        }
        assert!(seen[0] && seen[1], "{label}: both duplicate occurrences must be flagged");
    }
}

#[test]
fn fixes_for_duplicates_point_at_their_own_location() {
    let occ = occurrence_texts(SCRIPT);
    let tool = SqlCheck::new();
    let w = tool.check_workload(SCRIPT, &FrontendOptions::default());
    let spans: Vec<(usize, usize)> = w
        .outcome
        .fixes()
        .iter()
        .filter(|f| matches!(f.detection.locus, Locus::Statement { index: 1 | 3 }))
        .filter_map(|f| f.detection.span.map(|s| (s.start, s.end)))
        .collect();
    assert!(
        spans.contains(&occ[0]) && spans.contains(&occ[1]),
        "fixes must anchor at both occurrences, got {spans:?}"
    );
    // The slice of the script at each fix's span is the statement the
    // fix rewrites — the span is usable for in-place patching.
    for f in w.outcome.fixes() {
        if let (Some(span), sqlcheck::Fix::Rewrite { original, .. }) = (f.detection.span, &f.fix) {
            assert_eq!(&SCRIPT[span.start..span.end], original.trim_end_matches('\n'));
        }
    }
}

#[test]
fn session_rechecks_preserve_per_occurrence_spans() {
    // A session over SCRIPT plus filler (so one edit patches in place
    // rather than reverting cold). Lengthening the statement between the
    // duplicates moves the second one; reverting moves it back. The
    // re-emitted and moved detections must carry each round's occurrence
    // spans, not canonical or first-occurrence ones.
    let filler: String = (0..8).map(|i| format!("SELECT a FROM t WHERE a = {i};\n")).collect();
    let opts = FrontendOptions::default();
    let mut session = SqlCheck::new().into_session(format!("{SCRIPT}{filler}"), opts.clone());
    let key = |o: &sqlcheck::CheckOutcome| {
        o.report.detections.iter().map(|d| format!("{d:?}")).collect::<Vec<_>>()
    };
    for insert in [
        "INSERT INTO t (a, b) VALUES (1, 'a much longer literal than before')",
        "INSERT INTO t (a, b) VALUES (1, 'y')",
    ] {
        session.recheck(&[sqlcheck::Edit::new(2, insert)]);
        assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0), "{insert}");
        let cold = SqlCheck::new().check_workload(session.script(), &opts);
        assert_eq!(key(&cold.outcome), key(&session.outcome().outcome), "{insert}");
        let occ = occurrence_texts(session.script());
        for (index, want) in [(1, occ[0]), (3, occ[1])] {
            let spans: Vec<_> = session
                .outcome()
                .outcome
                .report
                .detections
                .iter()
                .filter(|d| d.locus == Locus::Statement { index })
                .map(|d| d.span.map(|s| (s.start, s.end)))
                .collect();
            assert!(!spans.is_empty(), "{insert}: statement {index} is flagged");
            assert!(spans.iter().all(|&s| s == Some(want)), "{insert}: {spans:?} vs {want:?}");
        }
    }
}

//! Engine vs reference on the labelled GitHub corpus, where per-tree
//! dedup matters: a `CREATE TABLE` with two float columns makes the
//! intra-query rules emit Rounding Errors twice at one `(kind, span)`.
//! The engine dedups such a list once per parse tree and fans it out;
//! the reference dedups every occurrence. Cold checks and warm session
//! re-checks must both equal the reference.

use sqlcheck::context::AnalyzedStatement;
use sqlcheck::detect::{intra, reference};
use sqlcheck::{ContextBuilder, Detector, Edit, FrontendOptions, SqlCheck, WorkloadOutcome};
use sqlcheck_workload::github::{generate_corpus, CorpusConfig, Repository};
use std::collections::HashSet;

fn corpus_script() -> String {
    let repos: Vec<String> =
        generate_corpus(CorpusConfig::small()).iter().map(Repository::script).collect();
    repos.join(";\n")
}

fn debug_lines<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> Vec<String> {
    items.into_iter().map(|d| format!("{d:?}")).collect()
}

/// Every outcome surface a session patches.
fn surfaces(w: &WorkloadOutcome) -> Vec<String> {
    let o = &w.outcome;
    let mut out = debug_lines(&o.report.detections);
    out.extend(o.ranked().iter().map(|r| format!("{:.6} {:?}", r.score, r.detection)));
    out.extend(debug_lines(o.fixes()));
    out.extend(debug_lines(&o.diagnostics));
    out
}

/// Whether the intra-query rules emit one `(kind, span)` twice for the
/// statement at `idx`.
fn repeats_intra_detection(idx: usize, stmt: &AnalyzedStatement, ctx: &sqlcheck::Context) -> bool {
    let dets = intra::detect_statement(idx, stmt, ctx, &Detector::default().cfg, true);
    let mut seen = HashSet::new();
    dets.iter().any(|d| !seen.insert((d.kind, d.span)))
}

#[test]
fn engine_matches_reference_where_intra_rules_repeat() {
    let script = corpus_script();
    let opts = FrontendOptions::default();
    let ctx = ContextBuilder::new().with_frontend(opts.clone()).add_script(&script).build();
    let repeating = ctx
        .statements
        .iter()
        .enumerate()
        .filter(|&(i, s)| repeats_intra_detection(i, s, &ctx))
        .count();
    assert!(repeating > 0, "the corpus must hold a statement with a repeated intra detection");

    let det = Detector::default();
    let oracle = reference::detect(&reference::context(&script, &opts), &det.cfg);
    let engine = det.detect_batch(&ctx).report;
    assert_eq!(debug_lines(&engine.detections), debug_lines(&oracle.detections));
}

#[test]
fn session_query_and_ddl_edits_match_cold() {
    let script = corpus_script();
    let opts = FrontendOptions::default();
    let mut session = SqlCheck::new().into_session(script, opts.clone());
    let (ddl, query) = {
        let (stmts, text) = (&session.outcome().outcome.context.statements, session.script());
        let index_of = |prefix: &str| {
            stmts
                .iter()
                .position(|s| text[s.span.start..s.span.end].starts_with(prefix))
                .unwrap_or_else(|| panic!("the corpus has a `{prefix}` statement"))
        };
        (index_of("CREATE TABLE"), index_of("SELECT"))
    };
    let table = "CREATE TABLE fresh_prices \
                 (pk INTEGER PRIMARY KEY, price FLOAT, tax DOUBLE PRECISION)";
    for edit in
        [Edit::new(query, "SELECT * FROM fresh_prices WHERE price = 1.5"), Edit::new(ddl, table)]
    {
        let label = edit.text.clone();
        session.recheck(&[edit]);
        let cold = SqlCheck::new().check_workload(session.script(), &opts);
        assert_eq!(surfaces(session.outcome()), surfaces(&cold), "{label}");
        let oracle = reference::detect(
            &reference::context(session.script(), &opts),
            &Detector::default().cfg,
        );
        let warm = &session.outcome().outcome.report.detections;
        assert_eq!(debug_lines(warm), debug_lines(&oracle.detections), "{label}");
    }
    assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0));
}

//! Cross-crate integration: parser → context → detect → rank → fix →
//! render → re-detect.

use sqlcheck::{
    AntiPatternKind, ContextBuilder, DetectionConfig, Detector, Fix, FixEngine, RankWeights,
    Ranker, SqlCheck,
};
use sqlcheck_parser::{parse_one, Dialect};

#[test]
fn fixes_reduce_detections_on_reapplication() {
    let script = "
        CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT, c TEXT);
        INSERT INTO t VALUES (1, 'x', 'y');
        SELECT * FROM t WHERE a = 1;
    ";
    let outcome = SqlCheck::new().check_script(script);
    // Apply every automatic rewrite.
    let mut patched = script.to_string();
    let mut applied = 0;
    for sf in outcome.fixes() {
        if let Fix::Rewrite { original, fixed } = &sf.fix {
            patched = patched.replace(original.trim(), fixed);
            applied += 1;
        }
    }
    assert!(applied >= 2, "implicit columns + wildcard rewrites expected, got {applied}");
    let before = outcome.report.detections.len();
    let after = SqlCheck::new().check_script(&patched).report.detections.len();
    assert!(
        after < before,
        "applying {applied} rewrites must reduce detections: {before} -> {after}"
    );
}

#[test]
fn rewritten_statements_reparse_to_equivalent_shape() {
    let script = "
        CREATE TABLE u (pk INTEGER PRIMARY KEY, name TEXT, mail TEXT);
        INSERT INTO u VALUES (1, 'n', 'm');
    ";
    let ctx = ContextBuilder::new().add_script(script).build();
    let report = Detector::default().detect(&ctx);
    let fixes = FixEngine.fix_all(&report.detections, &ctx);
    for sf in fixes {
        if let Fix::Rewrite { fixed, .. } = sf.fix {
            let reparsed = parse_one(&fixed, Dialect::Generic);
            // Rendering the reparsed statement is a fixpoint.
            assert_eq!(reparsed.to_sql(), parse_one(&reparsed.to_sql(), Dialect::Generic).to_sql());
        }
    }
}

#[test]
fn intra_only_is_a_superset_generator_of_noisy_detections() {
    // The §8.1 configuration comparison: intra-only never detects *fewer*
    // occurrences of the statement-level kinds than full analysis.
    let script = "
        CREATE TABLE a (x INTEGER);
        ALTER TABLE a ADD CONSTRAINT pk PRIMARY KEY (x);
        CREATE TABLE p (pk INTEGER PRIMARY KEY, first TEXT NOT NULL, last TEXT NOT NULL);
        SELECT first || last FROM p;
        SELECT DISTINCT p.first FROM p JOIN a ON a.x = p.pk;
    ";
    let ctx = ContextBuilder::new().add_script(script).build();
    let intra = Detector::new(DetectionConfig::intra_only()).detect(&ctx);
    let full = Detector::default().detect(&ctx);
    assert!(intra.detections.len() > full.detections.len());
    for kind in [
        AntiPatternKind::NoPrimaryKey,
        AntiPatternKind::ConcatenateNulls,
        AntiPatternKind::DistinctJoin,
    ] {
        assert!(intra.count(kind) > 0, "{kind} expected from intra-only");
        assert_eq!(full.count(kind), 0, "{kind} suppressed by context");
    }
}

#[test]
fn ranking_is_stable_and_weight_sensitive() {
    let script = "
        CREATE TABLE u (id INTEGER PRIMARY KEY, zone TEXT, role TEXT,
            CONSTRAINT rc CHECK (role IN ('a','b')));
        SELECT * FROM u WHERE zone = 'z1';
    ";
    let run = |w: RankWeights| {
        let ctx = ContextBuilder::new().add_script(script).build();
        let report = Detector::default().detect(&ctx);
        Ranker::with_weights(w).rank(&report)
    };
    let c1a = run(RankWeights::C1);
    let c1b = run(RankWeights::C1);
    let kinds =
        |v: &[sqlcheck::RankedDetection]| v.iter().map(|r| r.detection.kind).collect::<Vec<_>>();
    assert_eq!(kinds(&c1a), kinds(&c1b), "deterministic ranking");
    let c2 = run(RankWeights::C2);
    assert_ne!(kinds(&c1a), kinds(&c2), "weights change the order");
}

#[test]
fn custom_rule_participates_in_pipeline() {
    struct SelectStar;
    impl sqlcheck::CustomRule for SelectStar {
        fn name(&self) -> &str {
            "extra-select-star"
        }
        fn detect(&self, ctx: &sqlcheck::Context) -> Vec<sqlcheck::Detection> {
            ctx.statements
                .iter()
                .enumerate()
                .filter(|(_, s)| s.ann.wildcard)
                .map(|(i, _)| sqlcheck::Detection {
                    kind: AntiPatternKind::ColumnWildcard,
                    locus: sqlcheck::Locus::Statement { index: i },
                    message: "custom rule".into(),
                    source: sqlcheck::DetectionSource::InterQuery,
                    span: None,
                })
                .collect()
        }
    }
    let outcome = SqlCheck::new()
        .with_rule(Box::new(SelectStar))
        .check_script("SELECT * FROM t");
    assert!(
        outcome
            .report
            .detections
            .iter()
            .any(|d| &*d.message == "custom rule"),
        "custom rule ran"
    );
}

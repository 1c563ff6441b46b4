//! **Arena-vs-legacy equivalence suite** — the arena-allocated parse
//! path against the legacy reference paths that survived the rewrite.
//!
//! The Box/Vec AST is gone, so "legacy" here means the three reference
//! behaviours the arena path must still reproduce exactly:
//!
//! 1. the **legacy sequential front-end** (`FrontendOptions::legacy`):
//!    per-statement parse, no dedup — detections must be
//!    byte-identical to the parse-once pipeline on the same scripts;
//! 2. the **legacy two-pass splitter** (`split_spanned`) — statement
//!    spans and hashes must agree with the fused pass that feeds the
//!    arena parser;
//! 3. the **render fixed point** — `parse → to_sql → parse → to_sql`
//!    must converge after one round trip, proving the arena tree carries
//!    everything the renderer reads (no state was lost moving off
//!    `Box<Expr>`).

use sqlcheck::{ContextBuilder, Detector, FrontendOptions};
use sqlcheck_parser::parser::parse_one;
use sqlcheck_parser::splitter::{split_spanned, split_stream};

/// Scripts covering every statement family the parser models, plus the
/// dialect constructs that historically broke splitting.
fn corpus() -> Vec<&'static str> {
    vec![
        "SELECT * FROM Users WHERE id = 1;",
        "SELECT u.name, o.total FROM Users u JOIN Orders o ON u.id = o.user_id \
         WHERE o.total > 100 ORDER BY o.total DESC LIMIT 5;",
        "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2;",
        "INSERT INTO Orders (id, user_id, total) VALUES (1, 2, 9.99), (2, 3, 1.50);",
        "UPDATE Accounts SET balance = balance - 100, touched = NOW() WHERE owner_id = 7;",
        "DELETE FROM Sessions WHERE expires_at < '2020-01-01';",
        "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(30) NOT NULL, \
         status VARCHAR(8) CHECK (status IN ('on', 'off')), \
         FOREIGN KEY (name) REFERENCES u(n));",
        "CREATE INDEX idx_t_name ON t (name, status);",
        "ALTER TABLE t ADD COLUMN extra TEXT;",
        "DROP TABLE IF EXISTS obsolete;",
        "SELECT name FROM Products WHERE sku LIKE '%-99' AND tags LIKE '%red%';",
        "SELECT * FROM Tenants WHERE User_IDs LIKE '%U1%';",
        "CREATE TRIGGER trg BEFORE INSERT ON t FOR EACH ROW \
         BEGIN UPDATE audit SET n = n + 1; INSERT INTO log VALUES (1); END;",
        "SELECT 'a;b' AS s; SELECT [c;d] FROM \"e;f\"; -- tail;\nSELECT 2;",
        "SELECT x FROM a UNION SELECT x FROM b;",
        "SELECT id, CASE WHEN n > 0 THEN 'pos' ELSE 'neg' END FROM t;",
    ]
}

fn detections(script: &str, fe: FrontendOptions) -> Vec<String> {
    let ctx = ContextBuilder::new().with_frontend(fe).add_script(script).build();
    Detector::default()
        .detect_batch(&ctx)
        .report
        .detections
        .iter()
        .map(|d| format!("{d:?}"))
        .collect()
}

/// (1) Legacy sequential front-end vs parse-once pipeline: detection
/// output must be byte-identical script by script and on the
/// concatenation of the whole corpus.
#[test]
fn legacy_frontend_and_pipeline_detect_identically() {
    let pipeline = FrontendOptions::default();
    for script in corpus() {
        assert_eq!(
            detections(script, FrontendOptions::legacy()),
            detections(script, pipeline.clone()),
            "detection divergence on: {script}"
        );
    }
    let all = corpus().join("\n");
    assert_eq!(
        detections(&all, FrontendOptions::legacy()),
        detections(&all, pipeline),
        "detection divergence on concatenated corpus"
    );
}

/// (2) Legacy two-pass splitter vs the fused pass that feeds the arena
/// parser: same spans, same content hashes, on every corpus script.
#[test]
fn legacy_splitter_agrees_with_fused_on_corpus() {
    let all = corpus().join("\n");
    let legacy = split_spanned(&all);
    let fused = split_stream(&all);
    assert_eq!(legacy.len(), fused.len(), "statement count divergence");
    for (l, f) in legacy.iter().zip(&fused) {
        assert_eq!(l.span, f.span, "span divergence");
        assert_eq!(l.content_hash, f.content_hash, "hash divergence");
    }
}

/// (3) Render fixed point: one round trip through the arena tree and
/// back to text must be stable, and the re-parsed tree structurally
/// equal (same statement shape, same arena size) to the first re-parse.
#[test]
fn render_reaches_a_fixed_point_after_one_round_trip() {
    for script in corpus() {
        for stmt_text in script.split_inclusive(';') {
            if stmt_text.trim().is_empty() {
                continue;
            }
            let once = parse_one(stmt_text).to_sql();
            let p1 = parse_one(&once);
            let twice = p1.to_sql();
            assert_eq!(once, twice, "render not a fixed point for: {stmt_text}");
            let p2 = parse_one(&twice);
            assert_eq!(
                format!("{:?}", p1.stmt),
                format!("{:?}", p2.stmt),
                "structural divergence after round trip: {stmt_text}"
            );
            assert_eq!(p1.arena.len(), p2.arena.len(), "arena size divergence: {stmt_text}");
        }
    }
}

/// Parsing the same text twice yields structurally identical arenas —
/// the thread-local arena handoff leaks no state between statements.
#[test]
fn repeated_parses_are_structurally_identical() {
    for script in corpus() {
        let a = parse_one(script);
        let b = parse_one(script);
        assert_eq!(format!("{:?}", a.stmt), format!("{:?}", b.stmt));
        assert_eq!(
            format!("{:?}", a.arena),
            format!("{:?}", b.arena),
            "arena node divergence on: {script}"
        );
    }
}

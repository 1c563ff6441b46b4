//! Texts that differ only in number literals share one parse tree.
//!
//! The unique-text table keys each text by its exact bytes, and lets a
//! DML text take the tree of an earlier text of its *shape*: the same
//! token stream with number literals counted by kind and length only.
//! On seeded DML scripts whose texts differ only in their numbers (equal
//! and unequal lengths, negatives, decimals, exponents, `LIMIT`, `IN`
//! lists, `VALUES` rows, `CAST(… AS DECIMAL(10,2))`), every surface —
//! detections, ranking, fixes with their rendered rewrites, and the
//! listing — must be byte-identical to the per-occurrence reference
//! context, which shares nothing; cold, and through session edits and
//! reverts. DDL never shares, nor do tokens of another kind that happen
//! to read like numbers, and a shape is freed with its last text.

use sqlcheck::detect::reference;
use sqlcheck::{
    CheckSession, Context, Edit, Fix, FixEngine, FrontendOptions, RankedDetection, Ranker,
    SqlCheck, SuggestedFix, WorkloadOutcome,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// Deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const SCHEMA: &str =
    "CREATE TABLE t (id INT PRIMARY KEY, a INT, b VARCHAR(20), price DECIMAL(10,2));\n\
                      CREATE TABLE u (id INT PRIMARY KEY, t_id INT, tags TEXT);\n";

/// DML templates; each `{n}` is replaced by its own number literal.
const TEMPLATES: &[&str] = &[
    "SELECT * FROM t WHERE a = {n}",
    "SELECT a, b FROM t WHERE a > {n} AND price < {n} LIMIT {n}",
    "SELECT * FROM t WHERE a IN ({n}, {n}, {n}) ORDER BY b",
    "INSERT INTO t VALUES ({n}, {n}, 'x', {n})",
    "INSERT INTO t VALUES ({n}, {n}, 'x', {n}), ({n}, {n}, 'y', {n})",
    "UPDATE t SET a = {n}, price = {n} WHERE id = {n}",
    "DELETE FROM t WHERE id = {n} OR a < {n}",
    "SELECT CAST(a AS DECIMAL(10,2)) FROM t WHERE id = {n}",
    "SELECT DISTINCT t.b FROM t JOIN u ON t.a = u.t_id WHERE u.id = {n}",
    "SELECT a || b FROM t WHERE id = {n}",
    "SELECT * FROM t ORDER BY RAND() LIMIT {n}",
    "SELECT a FROM t WHERE b LIKE '%x{n}%'",
    "SELECT id FROM u WHERE tags LIKE '%,{n},%'",
];

/// A number literal: integers of several lengths (leading zeros too),
/// negatives, decimals and exponents.
fn number(rng: &mut Rng) -> String {
    let n = rng.below(1000);
    match rng.below(7) {
        0 => format!("{}", n % 10),
        1 => format!("{n}"),
        2 => format!("-{}", n % 50),
        3 => format!("{}.{:02}", n % 20, n % 100),
        4 => format!("{}e{}", 1 + n % 9, n % 4),
        5 => format!("{}.5E-{}", n % 10, 1 + n % 3),
        _ => format!("{:03}", n % 12),
    }
}

fn fill(template: &str, rng: &mut Rng) -> String {
    let mut out = String::new();
    let mut parts = template.split("{n}");
    out.push_str(parts.next().unwrap_or_default());
    for p in parts {
        out.push_str(&number(rng));
        out.push_str(p);
    }
    out
}

/// A seeded script: the schema, then `n` DML statements (one per line)
/// drawn from a few templates, so many texts differ only in numbers.
fn script(rng: &mut Rng, n: usize) -> (String, Vec<usize>) {
    let pool: Vec<usize> = (0..4).map(|_| rng.below(TEMPLATES.len())).collect();
    let mut s = String::from(SCHEMA);
    let mut templates = Vec::with_capacity(n);
    for _ in 0..n {
        let t = if rng.below(4) == 0 {
            rng.below(TEMPLATES.len())
        } else {
            pool[rng.below(4)]
        };
        s.push_str(&fill(TEMPLATES[t], rng));
        s.push_str(";\n");
        templates.push(t);
    }
    (s, templates)
}

/// The listing as `CheckOutcome::write_listing` prints it, from a
/// ranking and its fixes.
fn listing(ranked: &[RankedDetection], fixes: &[SuggestedFix]) -> String {
    let mut out = String::new();
    for (i, (r, f)) in ranked.iter().zip(fixes).enumerate() {
        let at = r
            .detection
            .span
            .map(|s| format!(" [bytes {s}]"))
            .unwrap_or_default();
        let d = &r.detection;
        let (kind, category, locus) = (d.kind, d.kind.category(), &d.locus);
        writeln!(
            out,
            "{:>3}. [{:.3}] {kind} ({category}) @ {locus}{at}",
            i + 1,
            r.score
        )
        .unwrap();
        writeln!(out, "     {}", d.message).unwrap();
        match &f.fix {
            Fix::Rewrite { fixed, .. } => writeln!(out, "     fix: {fixed}").unwrap(),
            Fix::SchemaChange {
                statements,
                impacted_queries,
            } => {
                for s in statements {
                    writeln!(out, "     fix: {s}").unwrap();
                }
                for (idx, q) in impacted_queries {
                    writeln!(out, "     impacted #{idx}: {q}").unwrap();
                }
            }
            Fix::Textual { advice } => writeln!(out, "     advice: {advice}").unwrap(),
        }
    }
    out
}

/// Detections, ranking, fixes and listing, one line each.
fn surfaces(
    detections: &[sqlcheck::Detection],
    ranked: &[RankedDetection],
    fixes: &[SuggestedFix],
    listing: String,
) -> Vec<String> {
    let mut v: Vec<String> = detections.iter().map(|d| format!("{d:?}")).collect();
    v.extend(
        ranked
            .iter()
            .map(|r| format!("{:.6} {:?}", r.score, r.detection)),
    );
    v.extend(fixes.iter().map(|f| format!("{f:?}")));
    v.push(listing);
    v
}

/// Every surface of the reference context of `script`, which shares
/// no tree between texts.
fn reference_surfaces(script: &str) -> Vec<String> {
    let ctx = reference::context(script, &FrontendOptions::default());
    let report = reference::detect(&ctx, &sqlcheck::DetectionConfig::default());
    let ranked = Ranker::default().rank(&report);
    let fixes = FixEngine.fix_all(ranked.iter().map(|r| &r.detection), &ctx);
    let text = listing(&ranked, &fixes);
    surfaces(&report.detections, &ranked, &fixes, text)
}

fn outcome_surfaces(w: &WorkloadOutcome) -> Vec<String> {
    let o = &w.outcome;
    surfaces(&o.report.detections, o.ranked(), o.fixes(), o.summary())
}

/// Rewrite fixes of statements whose text shares another text's tree.
fn shared_rewrites(w: &WorkloadOutcome) -> usize {
    let ctx: &Context = &w.outcome.context;
    w.outcome
        .fixes()
        .iter()
        .filter(|f| matches!(f.fix, Fix::Rewrite { .. }))
        .filter_map(|f| f.detection.statement_index())
        .filter(|&i| ctx.uniques[ctx.statements[i].unique].shares_tree())
        .count()
}

fn assert_matches_reference(w: &WorkloadOutcome, script: &str, what: &str) {
    let (got, want) = (outcome_surfaces(w), reference_surfaces(script));
    assert_eq!(got.len(), want.len(), "{what}: surface count");
    for (g, r) in got.iter().zip(&want) {
        assert_eq!(g, r, "{what}");
    }
}

/// Cold checks of seeded scripts equal the reference on every surface,
/// and the scripts really share trees and render shared rewrites.
#[test]
fn cold_checks_match_the_reference() {
    let mut rng = Rng(0x5_4A9E);
    let (mut shared, mut rewrites) = (0, 0);
    for case in 0..24 {
        let n = 30 + rng.below(60);
        let (script, _) = script(&mut rng, n);
        let w = SqlCheck::new().check_workload(&script, &FrontendOptions::default());
        assert_matches_reference(&w, &script, &format!("case {case}"));
        assert!(w.stats.parsed_trees <= w.stats.unique_texts, "case {case}");
        shared += w.stats.unique_texts - w.stats.parsed_trees;
        rewrites += shared_rewrites(&w);
    }
    assert!(shared > 200, "texts must share trees ({shared})");
    assert!(
        rewrites > 20,
        "shared texts must render their own rewrites ({rewrites})"
    );
}

/// A session re-checked by renumbered texts of the same templates, then
/// reverted, equals the reference (and a cold check) after every round,
/// patching in place.
#[test]
fn session_edits_and_reverts_match_the_reference() {
    let mut rng = Rng(0xED_17);
    for case in 0..8 {
        let n = 40 + rng.below(40);
        let (script, templates) = script(&mut rng, n);
        let lines: Vec<&str> = script.lines().collect();
        let ddl = lines.len() - templates.len();
        let mut session: CheckSession =
            SqlCheck::new().into_session(script.clone(), FrontendOptions::default());
        for round in 0..4 {
            let mut idx: Vec<usize> = (0..templates.len()).filter(|_| rng.below(6) == 0).collect();
            // At most a tenth of the script, so the session patches
            // rather than choosing a cold rebuild.
            idx.truncate(lines.len() / 10);
            let edits: Vec<Edit> = idx
                .iter()
                .map(|&i| Edit::new(ddl + i, fill(TEMPLATES[templates[i]], &mut rng)))
                .collect();
            let reverts: Vec<Edit> = idx
                .iter()
                .map(|&i| Edit::new(ddl + i, lines[ddl + i].trim_end_matches(';')))
                .collect();
            for (label, batch) in [("edit", &edits), ("revert", &reverts)] {
                session.recheck(batch);
                let what = format!("case {case} round {round} {label}");
                assert_matches_reference(session.outcome(), session.script(), &what);
                let cold =
                    SqlCheck::new().check_workload(session.script(), &FrontendOptions::default());
                assert_eq!(
                    outcome_surfaces(session.outcome()),
                    outcome_surfaces(&cold),
                    "{what}"
                );
            }
            assert_eq!(
                session.script(),
                script,
                "case {case}: the revert restores the script"
            );
        }
        assert_eq!(
            (session.fallbacks(), session.cold_reverts()),
            (0, 0),
            "case {case}"
        );
    }
}

/// DDL that differs only in numbers parses per text: its type lengths
/// and `CHECK` lists reach the schema and the fixes.
#[test]
fn ddl_never_shares() {
    let script = "CREATE TABLE p (x VARCHAR(10), y INT, CHECK (y IN (1,2)));\n\
                  CREATE TABLE p (x VARCHAR(20), y INT, CHECK (y IN (3,4)));\n\
                  ALTER TABLE p ADD CONSTRAINT c1 CHECK (y IN (5,6));\n\
                  ALTER TABLE p ADD CONSTRAINT c1 CHECK (y IN (7,8));\n\
                  SELECT x FROM p WHERE y = 1;\n";
    let w = SqlCheck::new().check_workload(script, &FrontendOptions::default());
    assert_matches_reference(&w, script, "ddl");
    let uniques = &w.outcome.context.uniques;
    assert_eq!((uniques.len(), uniques.trees()), (5, 5));
    assert!(uniques.iter().all(|(_, u)| !u.shares_tree()));
}

/// Tokens of another kind that read like numbers are not number
/// literals: quoted identifiers `"00"` and `"11"` keep their bytes in the
/// shape, while the numbers `00` and `11` share a tree.
#[test]
fn number_lookalikes_of_another_kind_never_share() {
    let script =
        "SELECT \"00\" FROM t;\nSELECT \"11\" FROM t;\nSELECT 00 FROM t;\nSELECT 11 FROM t;\n";
    let w = SqlCheck::new().check_workload(script, &FrontendOptions::default());
    assert_matches_reference(&w, script, "lookalikes");
    let ctx = &w.outcome.context;
    let tree = |i: usize| &ctx.statements[i].parsed;
    assert!(
        !Arc::ptr_eq(tree(0), tree(1)),
        "quoted identifiers differ in bytes"
    );
    assert!(
        !Arc::ptr_eq(tree(0), tree(2)),
        "a quoted identifier is no number"
    );
    assert!(Arc::ptr_eq(tree(2), tree(3)), "numbers of one length share");
    assert_eq!((ctx.uniques.len(), ctx.uniques.trees()), (4, 3));
    assert_eq!(ctx.statements[3].text(&ctx.uniques), "SELECT 11 FROM t");
}

/// Editing away every text of a shape frees the shape with them: the
/// table keeps no entry, and no one holds the tree.
#[test]
fn a_freed_shape_leaves_no_entry() {
    // Twenty duplicates of one more text keep each batch under a tenth
    // of the script, so the session patches instead of rebuilding cold.
    let script = "SELECT a FROM t WHERE id = 1;\nSELECT a FROM t WHERE id = 2;\n\
                  SELECT b FROM t WHERE id = 3;\nSELECT b FROM t WHERE id = 4;\n"
        .to_string()
        + &"SELECT d FROM t;\n".repeat(20);
    let mut session = SqlCheck::new().into_session(script, FrontendOptions::default());
    let uniques = |s: &CheckSession| {
        let table = &s.outcome().outcome.context.uniques;
        (table.shapes(), table.trees())
    };
    assert_eq!(uniques(&session), (3, 3));
    let tree = Arc::clone(&session.outcome().outcome.context.statements[0].parsed);
    session.recheck(&[
        Edit::new(0, "SELECT c FROM t WHERE id = 1"),
        Edit::new(1, "SELECT b FROM t WHERE id = 5"),
    ]);
    assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0));
    assert_eq!(
        uniques(&session),
        (3, 3),
        "the `a` shape is gone, a `c` shape is new"
    );
    assert_eq!(
        Arc::strong_count(&tree),
        1,
        "nothing but this test holds the freed tree"
    );
    assert_matches_reference(session.outcome(), session.script(), "freed shape");
    session.recheck(&[Edit::new(0, "SELECT b FROM t WHERE id = 6")]);
    assert_eq!(
        uniques(&session),
        (2, 2),
        "the `c` shape went with its last text"
    );
    assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0));
    assert_eq!(session.outcome().stats.unique_texts, 5);
    assert_matches_reference(session.outcome(), session.script(), "freed shape, one left");
}

//! `ap-fix`: suggesting fixes for detected anti-patterns (§6, Algorithm 4).
//!
//! Each repair rule is a pair: a *detection* (done by `ap-detect`) and an
//! *action*. The action either produces a non-ambiguous transformation —
//! a rewritten statement or a set of new DDL statements, rendered through
//! the parser's `ToSql` — or falls back to a textual fix tailored to the
//! application's context, exactly as the paper prescribes for the cases
//! where the non-validating parse tree lacks the syntactic information to
//! rewrite safely.
//!
//! Fix generation must degrade, never abort: a malformed or unmodelled
//! AST yields "no structural fix" (falling back to textual advice), so
//! `unwrap()` is linted against throughout this module tree.

#![warn(clippy::unwrap_used)]

pub mod textual;
pub mod transforms;

use crate::anti_pattern::AntiPatternKind;
use crate::context::Context;
use crate::hashutil::Prehashed;
use crate::report::Detection;
use std::collections::HashMap;
use std::sync::Arc;
pub use textual::Advice;
use transforms::ImpactIndex;

/// A suggested fix.
///
/// A statement-locus fix is a function of the statement text, its kind
/// and the schema, so every occurrence of one text shares one body: the
/// rewrite's `Arc<str>`s, or the advice body with only the statement
/// index differing.
#[derive(Debug, Clone)]
pub enum Fix {
    /// The offending statement rewritten in place.
    Rewrite {
        /// The original statement text.
        original: Arc<str>,
        /// The repaired statement.
        fixed: Arc<str>,
    },
    /// A schema change: new/changed DDL plus every impacted query,
    /// rewritten (the paper's `GetImpactedQueries` closure).
    SchemaChange {
        /// DDL statements to execute, in order.
        statements: Vec<String>,
        /// `(statement index, rewritten SQL)` for impacted queries.
        impacted_queries: Vec<(usize, String)>,
    },
    /// A context-tailored textual fix the developer applies manually.
    Textual {
        /// The advice; its `Display` names the occurrence's own site.
        advice: Advice,
    },
}

impl Fix {
    /// True when the fix is fully automatic (not textual).
    pub fn is_automatic(&self) -> bool {
        !matches!(self, Fix::Textual { .. })
    }

    /// This statement-locus fix for another occurrence of its text,
    /// statement `index`.
    fn at(&self, index: usize) -> Fix {
        match self {
            Fix::Textual { advice } => Fix::Textual { advice: advice.at(index) },
            other => other.clone(),
        }
    }
}

/// A detection paired with its suggested fix.
#[derive(Debug, Clone)]
pub struct SuggestedFix {
    /// The detection being fixed.
    pub detection: Detection,
    /// The suggestion.
    pub fix: Fix,
}

/// The repair engine.
#[derive(Debug, Clone, Default)]
pub struct FixEngine;

impl FixEngine {
    /// Suggest a fix for one detection. A schema fix that lists impacted
    /// queries builds a throwaway [`ImpactIndex`]; use
    /// [`FixEngine::fix_all`] to share one across many detections.
    pub fn fix(&self, detection: &Detection, ctx: &Context) -> Fix {
        self.fix_with(detection, ctx, &ImpactIndex::new(ctx))
    }

    /// Suggest fixes for an ordered detection list (Algorithm 4's loop),
    /// equal to [`FixEngine::fix`] on each detection.
    ///
    /// A statement-locus fix is synthesised once per (statement text
    /// hash, kind) and shared by every later occurrence of that text.
    /// Enumerated Types and Multi-Valued Attribute fixes list impacted
    /// queries from the whole context, so they stay per detection and
    /// look those up in one lazily built [`ImpactIndex`]. The memo lives
    /// for this call only.
    pub fn fix_all<'d>(
        &self,
        detections: impl IntoIterator<Item = &'d Detection>,
        ctx: &Context,
    ) -> Vec<SuggestedFix> {
        let impacts = ImpactIndex::new(ctx);
        let mut memo: HashMap<(u128, AntiPatternKind), Fix, Prehashed> = HashMap::default();
        detections
            .into_iter()
            .map(|d| {
                let fix = match memo_key(d, ctx) {
                    Some((key, index)) => memo
                        .entry(key)
                        .or_insert_with(|| self.fix_with(d, ctx, &impacts))
                        .at(index),
                    None => self.fix_with(d, ctx, &impacts),
                };
                SuggestedFix { detection: d.clone(), fix }
            })
            .collect()
    }

    fn fix_with(&self, detection: &Detection, ctx: &Context, impacts: &ImpactIndex<'_>) -> Fix {
        use AntiPatternKind::*;
        let transformed = match detection.kind {
            ImplicitColumns => transforms::implicit_columns(detection, ctx),
            ColumnWildcard => transforms::column_wildcard(detection, ctx),
            ConcatenateNulls => transforms::concatenate_nulls(detection, ctx),
            DistinctJoin => transforms::distinct_join(detection, ctx),
            EnumeratedTypes => transforms::enumerated_types(detection, ctx, impacts),
            MultiValuedAttribute => transforms::multi_valued_attribute(detection, ctx, impacts),
            NoForeignKey => transforms::no_foreign_key(detection, ctx),
            IndexUnderuse => transforms::index_underuse(detection, ctx),
            IndexOveruse => transforms::index_overuse(detection, ctx),
            RoundingErrors => transforms::rounding_errors(detection, ctx),
            _ => None,
        };
        transformed.unwrap_or_else(|| Fix::Textual {
            advice: textual::advice(detection, ctx),
        })
    }
}

/// The memo key of a detection whose fix depends only on its statement's
/// text, with that statement's index; `None` for a fix that reads more
/// of the context.
fn memo_key(d: &Detection, ctx: &Context) -> Option<((u128, AntiPatternKind), usize)> {
    use AntiPatternKind::*;
    if matches!(d.kind, EnumeratedTypes | MultiValuedAttribute) {
        return None;
    }
    let index = d.statement_index()?;
    let unique = ctx.statements.get(index)?.unique;
    Some(((ctx.uniques[unique].hash, d.kind), index))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::context::ContextBuilder;
    use crate::detect::Detector;
    use crate::report::Locus;
    use std::collections::HashSet;
    use transforms::tests::{random_fix_statement, Rng, FIX_SCHEMA};

    #[test]
    fn every_detection_gets_some_fix() {
        let sql = "CREATE TABLE t (a INT, b FLOAT, tag1 TEXT, tag2 TEXT, password TEXT);\
                   INSERT INTO t VALUES (1, 2.0, 'x', 'y', 'secret');\
                   SELECT * FROM t ORDER BY RAND();";
        let ctx = ContextBuilder::new().add_script(sql).build();
        let report = Detector::default().detect(&ctx);
        assert!(!report.detections.is_empty());
        let fixes = FixEngine.fix_all(&report.detections, &ctx);
        assert_eq!(fixes.len(), report.detections.len());
        for f in &fixes {
            match &f.fix {
                Fix::Textual { advice } => assert!(!advice.is_empty()),
                Fix::Rewrite { fixed, .. } => assert!(!fixed.is_empty()),
                Fix::SchemaChange { statements, .. } => assert!(!statements.is_empty()),
            }
        }
    }

    #[test]
    fn fix_and_fix_all_agree_on_schema_changes() {
        let sql = "CREATE TABLE Tenants (Tenant_ID TEXT PRIMARY KEY, User_IDs TEXT, \
                   Role VARCHAR(5), CHECK (Role IN ('R1','R2')));\
                   SELECT * FROM Tenants WHERE User_IDs LIKE '[[:<:]]U1[[:>:]]';\
                   SELECT Tenant_ID FROM tenants WHERE ROLE = 'R1';\
                   UPDATE Tenants SET Role = 'R2' WHERE Tenant_ID = 'T1';";
        let ctx = ContextBuilder::new().add_script(sql).build();
        let report = Detector::default().detect(&ctx);
        let all = FixEngine.fix_all(&report.detections, &ctx);
        let mut impacted = 0;
        for f in &all {
            if let Fix::SchemaChange { impacted_queries, .. } = &f.fix {
                impacted += impacted_queries.len();
                let one = FixEngine.fix(&f.detection, &ctx);
                assert_eq!(format!("{one:?}"), format!("{:?}", f.fix), "{}", f.detection.kind);
            }
        }
        assert!(impacted > 0, "the script must produce impacted queries");
    }

    /// The memoized `fix_all` must print exactly what per-detection
    /// synthesis prints, on scripts with duplicate texts, rewrites and
    /// their textual fallbacks, candidate-key advice and schema fixes.
    #[test]
    fn memoized_fix_all_matches_per_detection_fix() {
        let mut rng = Rng(0xF1C5_3E30);
        // (kind, fix variant) pairs seen, and memo hits on a text seen
        // before at another index.
        let mut seen: HashSet<(AntiPatternKind, &str)> = HashSet::new();
        let (mut shared, mut natural_keys, mut impacted) = (0, 0, 0);
        for _ in 0..16 {
            let mut stmts: Vec<String> = FIX_SCHEMA.iter().map(|s| s.to_string()).collect();
            for n in 0..60 {
                let s = random_fix_statement(&mut rng, n, &stmts);
                stmts.push(s);
            }
            let ctx = ContextBuilder::new().add_script(&stmts.join(";\n")).build();
            let report = Detector::default().detect(&ctx);
            let all = FixEngine.fix_all(&report.detections, &ctx);
            assert_eq!(all.len(), report.detections.len());
            let mut first_index: HashMap<(usize, AntiPatternKind), usize> = HashMap::new();
            for (d, f) in report.detections.iter().zip(&all) {
                assert_eq!(format!("{:?}", f.detection), format!("{d:?}"));
                let one = FixEngine.fix(d, &ctx);
                assert_eq!(format!("{:?}", f.fix), format!("{one:?}"), "{} @ {}", d.kind, d.locus);
                let variant = match &f.fix {
                    Fix::Rewrite { .. } => "rewrite",
                    Fix::SchemaChange { impacted_queries, .. } => {
                        impacted += impacted_queries.len();
                        "schema"
                    }
                    Fix::Textual { advice } => {
                        natural_keys += usize::from(
                            d.kind == AntiPatternKind::NoPrimaryKey
                                && advice.to_string().contains("looks like a natural key"),
                        );
                        "textual"
                    }
                };
                seen.insert((d.kind, variant));
                if let Locus::Statement { index } = d.locus {
                    let key = (ctx.statements[index].unique, d.kind);
                    shared += usize::from(*first_index.entry(key).or_insert(index) != index);
                }
            }
        }
        use AntiPatternKind::*;
        for want in [
            (ImplicitColumns, "rewrite"),
            (ImplicitColumns, "textual"),
            (ColumnWildcard, "rewrite"),
            (ColumnWildcard, "textual"),
            (EnumeratedTypes, "schema"),
            (MultiValuedAttribute, "schema"),
        ] {
            assert!(seen.contains(&want), "{want:?} never synthesised: {seen:?}");
        }
        assert!(natural_keys > 0, "No Primary Key advice must name a candidate key");
        assert!(impacted > 0, "schema fixes must list impacted queries");
        assert!(shared > 100, "duplicate texts must share memoized fixes ({shared})");
    }

    /// Two occurrences of one text share an advice body, and each prints
    /// its own statement index.
    #[test]
    fn shared_advice_names_each_occurrence() {
        let sql = "SELECT * FROM mystery; SELECT a FROM t; SELECT * FROM mystery";
        let ctx = ContextBuilder::new().add_script(sql).build();
        let report = Detector::default().detect(&ctx);
        let wildcard: Vec<Detection> = report
            .detections
            .into_iter()
            .filter(|d| d.kind == AntiPatternKind::ColumnWildcard)
            .collect();
        let fixes = FixEngine.fix_all(&wildcard, &ctx);
        let advice: Vec<String> = fixes
            .iter()
            .map(|f| match &f.fix {
                Fix::Textual { advice } => {
                    assert_eq!(format!("{advice:?}"), format!("{:?}", advice.to_string()));
                    advice.to_string()
                }
                other => panic!("an unknown table has no rewrite: {other:?}"),
            })
            .collect();
        let text = |i: usize| {
            format!(
                "List the needed columns explicitly in statement #{i}; SELECT * couples the \
                 application to the physical column order and fetches unused data."
            )
        };
        assert_eq!(advice, vec![text(0), text(2)]);
    }
}

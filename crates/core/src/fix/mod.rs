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

use crate::context::Context;
use crate::report::Detection;
use transforms::ImpactIndex;

/// A suggested fix.
#[derive(Debug, Clone)]
pub enum Fix {
    /// The offending statement rewritten in place.
    Rewrite {
        /// The original statement text.
        original: String,
        /// The repaired statement.
        fixed: String,
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
        /// The advice.
        advice: String,
    },
}

impl Fix {
    /// True when the fix is fully automatic (not textual).
    pub fn is_automatic(&self) -> bool {
        !matches!(self, Fix::Textual { .. })
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

    /// Suggest fixes for an ordered detection list (Algorithm 4's loop).
    /// Every schema fix looks its impacted queries up in one lazily built
    /// [`ImpactIndex`].
    pub fn fix_all(&self, detections: &[Detection], ctx: &Context) -> Vec<SuggestedFix> {
        let impacts = ImpactIndex::new(ctx);
        detections
            .iter()
            .map(|d| SuggestedFix { detection: d.clone(), fix: self.fix_with(d, ctx, &impacts) })
            .collect()
    }

    fn fix_with(&self, detection: &Detection, ctx: &Context, impacts: &ImpactIndex<'_>) -> Fix {
        use crate::anti_pattern::AntiPatternKind::*;
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::context::ContextBuilder;
    use crate::detect::Detector;

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
}

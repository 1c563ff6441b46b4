//! `ap-detect`: the anti-pattern detection engine (Algorithms 1–3).
//!
//! Detection runs in three phases, mirroring §4:
//!
//! 1. **Intra-query** ([`intra`]): rules applied to each statement in
//!    isolation. High recall, lower precision.
//! 2. **Inter-query** ([`inter`]): rules that need the application context
//!    (schema + workload) — both to detect APs no single statement reveals
//!    (No Foreign Key, Index Over/Underuse, Clone Table) and to *suppress*
//!    intra-query false positives (e.g. a `CREATE TABLE` without a PK that
//!    a later `ALTER TABLE` fixes).
//! 3. **Data analysis** ([`data`]): rules over sampled column profiles,
//!    when a database is attached.

pub mod batch;
pub mod data;
pub mod inter;
pub mod intra;
#[doc(hidden)]
pub mod reference;
pub(crate) mod schedule;

pub use batch::{BatchReport, BatchStats};

use crate::context::{Context, DataAnalysisConfig};
use crate::report::{Detection, Locus, Report};
use std::collections::HashSet;

/// Detector configuration (thresholds are the paper's defaults where it
/// names one; Table 1 mentions the God Table threshold of 10).
#[derive(Debug, Clone)]
pub struct DetectionConfig {
    /// Run only intra-query rules (the paper's first evaluation
    /// configuration in §8.1).
    pub intra_only: bool,
    /// Column-count threshold for the God Table AP.
    pub god_table_columns: usize,
    /// Join-count threshold for the Too Many Joins AP.
    pub too_many_joins: usize,
    /// Data-analysis thresholds.
    pub data: DataAnalysisConfig,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            intra_only: false,
            god_table_columns: 10,
            too_many_joins: 5,
            data: DataAnalysisConfig::default(),
        }
    }
}

impl DetectionConfig {
    /// The paper's intra-only configuration.
    pub fn intra_only() -> Self {
        DetectionConfig { intra_only: true, ..Default::default() }
    }
}

/// The detection engine.
#[derive(Debug, Clone, Default)]
pub struct Detector {
    /// Configuration.
    pub cfg: DetectionConfig,
}

impl Detector {
    /// Detector with a custom configuration.
    pub fn new(cfg: DetectionConfig) -> Self {
        Detector { cfg }
    }

    /// Run all applicable phases over the context and return the merged,
    /// de-duplicated report: the batch engine's report
    /// ([`Detector::detect_batch`]).
    pub fn detect(&self, ctx: &Context) -> Report {
        self.detect_batch(ctx).report
    }
}

/// Fill missing spans on externally-produced detections (custom
/// registry rules) with their statement occurrence's span. Unlike the
/// intra-query fan-out, which rebases a statement-relative span, a span
/// such a rule set itself is treated as **absolute** and left untouched.
pub(crate) fn attach_default_spans(detections: &mut [Detection], ctx: &Context) {
    for d in detections {
        if d.span.is_none() {
            if let Locus::Statement { index } = d.locus {
                d.span = ctx.statements.get(index).map(|s| s.span);
            }
        }
    }
}

/// Drop later detections that duplicate an earlier `(kind, locus, span)`
/// triple — the same AP found by several phases is reported once,
/// crediting the earliest (most specific) phase. The (still relative)
/// span participates so that the same AP kind at two different body
/// sub-statements of one compound statement is reported per
/// sub-statement, not collapsed. Runs in O(n) via a hash set, over one
/// tree's canonical list or the inter/data tail (and, in
/// [`reference::detect`], over the whole per-occurrence list).
pub(crate) fn dedup(detections: &mut Vec<Detection>) {
    let mut seen: HashSet<(
        crate::anti_pattern::AntiPatternKind,
        Locus,
        Option<crate::report::Span>,
    )> = HashSet::with_capacity(detections.len());
    detections.retain(|d| seen.insert((d.kind, d.locus.clone(), d.span)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anti_pattern::AntiPatternKind;
    use crate::context::ContextBuilder;

    fn run(sql: &str) -> Report {
        let ctx = ContextBuilder::new().add_script(sql).build();
        Detector::default().detect(&ctx)
    }

    fn run_intra(sql: &str) -> Report {
        let ctx = ContextBuilder::new().add_script(sql).build();
        Detector::new(DetectionConfig::intra_only()).detect(&ctx)
    }

    #[test]
    fn end_to_end_detects_multiple_kinds() {
        let r = run(
            "CREATE TABLE t (a INT, b FLOAT);\
             INSERT INTO t VALUES (1, 2.5);\
             SELECT * FROM t ORDER BY RAND();",
        );
        assert!(r.count(AntiPatternKind::NoPrimaryKey) >= 1);
        assert!(r.count(AntiPatternKind::RoundingErrors) >= 1);
        assert!(r.count(AntiPatternKind::ImplicitColumns) >= 1);
        assert!(r.count(AntiPatternKind::ColumnWildcard) >= 1);
        assert!(r.count(AntiPatternKind::OrderingByRand) >= 1);
    }

    #[test]
    fn inter_query_suppresses_no_pk_false_positive() {
        let sql = "CREATE TABLE t (a INT);\
                   ALTER TABLE t ADD CONSTRAINT pk PRIMARY KEY (a);";
        let intra = run_intra(sql);
        let full = run(sql);
        assert_eq!(intra.count(AntiPatternKind::NoPrimaryKey), 1, "intra-only FP");
        assert_eq!(full.count(AntiPatternKind::NoPrimaryKey), 0, "context eliminates FP");
    }

    #[test]
    fn dedup_keeps_single_detection_per_locus() {
        // God Table detected intra; ensure no duplicate from other phases.
        let cols: Vec<String> = (0..12).map(|i| format!("c{i} INT")).collect();
        let sql = format!("CREATE TABLE wide ({})", cols.join(", "));
        let r = run(&sql);
        assert_eq!(r.count(AntiPatternKind::GodTable), 1);
    }
}

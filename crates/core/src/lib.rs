//! # sqlcheck
//!
//! Rust reproduction of *SQLCheck: Automated Detection and Diagnosis of
//! SQL Anti-Patterns* (Dintyala, Narechania, Arulraj — SIGMOD 2020).
//!
//! sqlcheck takes an application's SQL statements and, optionally, a
//! connection to its database, and produces a **ranked list of
//! anti-patterns with suggested fixes**:
//!
//! 1. [`detect`] (`ap-detect`) finds 27 anti-pattern kinds using
//!    intra-query, inter-query, and data analysis;
//! 2. [`rank`] (`ap-rank`) orders them with the weighted impact model of
//!    Fig 6/7 (read/write performance, maintainability, data
//!    amplification, data integrity, accuracy);
//! 3. [`fix`] (`ap-fix`) suggests rule-based query/schema transformations,
//!    falling back to context-tailored textual fixes.
//!
//! ## Quick start
//!
//! ```
//! use sqlcheck::find_anti_patterns;
//!
//! let results = find_anti_patterns("INSERT INTO Users VALUES (1, 'foo')");
//! assert!(results.iter().any(|d| d.kind.name() == "Implicit Columns"));
//! ```
//!
//! ## Batch detection (workload scale)
//!
//! Application logs contain millions of statements drawn from a few
//! hundred templates. Every entry point — [`SqlCheck::check_script`],
//! [`SqlCheck::check_workload`], [`CheckSession`], and the lower-level
//! [`Detector::detect`] / [`Detector::detect_batch`] — runs one detection
//! engine that exploits that redundancy:
//!
//! * the front end splits and [content-hashes](sqlcheck_parser::hash)
//!   the script **before** parsing, and keeps one
//!   [`context::UniqueTable`] of distinct texts: each is parsed and
//!   annotated once and shared by its occurrences via `Arc`, and DML
//!   texts that differ only in number literals share one tree (their
//!   [shape](sqlcheck_parser::hash::ShapeHasher) keys it);
//! * intra-query rules run **once per parse tree**; each tree's list is
//!   deduped once and fans back out to every occurrence with corrected
//!   loci (the exact text or its shape keys the results, and the shape
//!   keeps every string literal, because some rules inspect string
//!   literal values) — the engine never dedups per occurrence;
//! * detection runs in panic-isolated units — intra-query rules per
//!   unique tree, inter-query rules per rule, data-analysis rules per
//!   profiled table — merged in statement, rule, and table order, the
//!   inter-query and data results deduped together as one tail;
//! * every statement-locus [`Detection`] (and the fix derived from it)
//!   carries the byte [`Span`] of **its own** occurrence in the source
//!   script, even when duplicate texts share one parse tree.
//!
//! A [`CheckSession`] keeps one check's context and per-text results,
//! so re-checking an edited workload only pays for the statements whose
//! text changed (and, after a DDL edit, for re-running the intra-query
//! rules over the live texts).
//!
//! The engine returns byte-identical detections, in the same order, as
//! the per-statement reference loop the identity suites keep as their
//! oracle — plus [`BatchStats`] instrumentation (text, tree and
//! duplicate counts, per-phase front-end and detection timings).
//!
//! ```
//! use sqlcheck::{FrontendOptions, SqlCheck};
//!
//! let mut script = String::new();
//! for i in 0..100 {
//!     script.push_str(&format!("SELECT * FROM Users WHERE id = {i};\n"));
//! }
//! let w = SqlCheck::new().check_workload(&script, &FrontendOptions::default());
//! assert_eq!(w.stats.statements, 100);
//! // One-digit and two-digit ids: two shapes, so two parsed trees.
//! assert_eq!(w.stats.parsed_trees, 2);
//! assert!(!w.outcome.ranked().is_empty());
//! ```
//!
//! The full pipeline, with a database attached for data analysis:
//!
//! ```
//! use sqlcheck::{SqlCheck, RankWeights};
//! use sqlcheck_minidb::prelude::*;
//!
//! let mut db = Database::new();
//! db.create_table(
//!     TableSchema::new("Users")
//!         .column(Column::new("id", DataType::Int).not_null())
//!         .column(Column::new("role", DataType::Text))
//!         .primary_key(&["id"]),
//! ).unwrap();
//! for i in 0..100 {
//!     db.insert("Users", vec![Value::Int(i), Value::text(format!("R{}", i % 3))]).unwrap();
//! }
//!
//! let outcome = SqlCheck::new()
//!     .with_weights(RankWeights::C2)
//!     .with_database(db)
//!     .check_script("SELECT * FROM Users WHERE role = 'R1'");
//! assert!(!outcome.ranked().is_empty());
//! ```

#![warn(missing_docs)]

pub mod anti_pattern;
pub mod context;
pub mod detect;
pub mod fix;
pub mod input;
pub(crate) mod hashutil;
mod listing;
pub mod rank;
pub mod registry;
pub mod report;
pub mod session;

pub use anti_pattern::{AntiPatternKind, Category, MetricImpact};
pub use context::{
    Context, ContextBuilder, DataAnalysisConfig, FrontendOptions, FrontendStats,
};
pub use detect::{BatchReport, BatchStats, DetectionConfig, Detector};
pub use fix::{Fix, FixEngine, SuggestedFix};
pub use input::{read_script, ScriptInput};
pub use rank::{
    ApMetrics, InterQueryModel, MetricsTable, RankWeights, RankedDetection, Ranker, Severity,
};
pub use registry::{CustomRule, RuleRegistry};
pub use report::{Detection, DetectionSource, Locus, Report, Span};
pub use session::{CheckSession, Edit};
pub use sqlcheck_parser::diag::{DiagKind, Diagnostic, Limits};
pub use sqlcheck_parser::Dialect;

use sqlcheck_minidb::database::Database;

/// The former name of [`FrontendOptions`], kept for out-of-tree callers.
#[doc(hidden)]
pub type BatchOptions = FrontendOptions;

/// An empty stand-in for the deleted incremental detection cache, with
/// `CacheCounters` and `SqlCheck::{with_cache, with_shared_cache}`:
/// perfbench's `edit` workload still names them. A `CheckSession`
/// keeps every result a re-check reuses, so the stand-ins hold nothing
/// and count nothing. They go with the next change to the benchmark.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct IncrementalCache;

#[doc(hidden)]
impl IncrementalCache {
    /// Ignores `capacity`.
    pub fn new(_capacity: usize) -> Self {
        IncrementalCache
    }

    /// Always zero.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters::default()
    }
}

/// The counters of the `IncrementalCache` stand-in: always zero.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub evictions: u64,
}

#[doc(hidden)]
impl SqlCheck {
    /// Returns `self` unchanged.
    pub fn with_cache(self, _capacity: usize) -> Self {
        self
    }

    /// Returns `self` unchanged.
    pub fn with_shared_cache(self, _cache: std::sync::Arc<IncrementalCache>) -> Self {
        self
    }
}

/// This process's peak resident set in kB (`VmHWM` in
/// `/proc/self/status`); `None` where that file or its `VmHWM` line does
/// not exist.
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Detect anti-patterns in a SQL string — the paper's interactive-shell
/// entry point (`from sqlcheck.finder import find_anti_patterns`, §7).
pub fn find_anti_patterns(sql: &str) -> Vec<Detection> {
    let ctx = ContextBuilder::new().add_script(sql).build();
    Detector::default().detect(&ctx).detections
}

/// The result of a full sqlcheck run: the raw report, the ranked
/// detections, and the suggested fixes, plus the context for inspection.
///
/// Ranking and fixes are **lazy**: computed on first access
/// ([`CheckOutcome::ranked`] / [`CheckOutcome::fixes`]) and memoized.
/// Both are pure functions of the report and context, so laziness is
/// unobservable except in timing — a caller that only reads detections
/// never pays for fix synthesis, and a warm
/// [`CheckSession::recheck`](session::CheckSession::recheck) stays
/// proportional to the edit set instead of re-ranking and re-fixing
/// every detection in the workload on each edit.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The application context that was built.
    pub context: Context,
    /// The unranked detection report.
    pub report: Report,
    /// Degradation diagnostics: parse-time events (attributed to the
    /// first occurrence of each unique statement text), script-level
    /// events, and isolated rule failures. The pipeline always completes;
    /// these describe where output quality was reduced.
    pub diagnostics: Vec<Diagnostic>,
    /// The ranker that produced (or will lazily produce) the ranking.
    ranker: Ranker,
    ranked: std::sync::OnceLock<Vec<RankedDetection>>,
    fixes: std::sync::OnceLock<Vec<SuggestedFix>>,
}

impl CheckOutcome {
    /// Assemble an outcome with ranking and fixes pending.
    fn new(context: Context, report: Report, diagnostics: Vec<Diagnostic>, ranker: Ranker) -> Self {
        CheckOutcome {
            context,
            report,
            diagnostics,
            ranker,
            ranked: std::sync::OnceLock::new(),
            fixes: std::sync::OnceLock::new(),
        }
    }

    /// Ranked detections, highest impact first. Computed on first access
    /// and memoized.
    pub fn ranked(&self) -> &[RankedDetection] {
        self.ranked.get_or_init(|| self.ranker.rank(&self.report))
    }

    /// One suggested fix per ranked detection, in rank order. Computed
    /// on first access (forcing the ranking too) and memoized.
    ///
    /// Each statement-locus fix is synthesised once per unique statement
    /// text and kind ([`FixEngine::fix_all`]); its occurrences share one
    /// [`Fix`] body (`Arc<str>` rewrites, shared [`fix::Advice`] text),
    /// and each carries its own detection and statement index.
    pub fn fixes(&self) -> &[SuggestedFix] {
        self.fixes.get_or_init(|| {
            FixEngine.fix_all(self.ranked().iter().map(|r| &r.detection), &self.context)
        })
    }

    /// Discard any memoized ranking/fixes (the report changed).
    pub(crate) fn invalidate_derived(&mut self) {
        self.ranked = std::sync::OnceLock::new();
        self.fixes = std::sync::OnceLock::new();
    }

    /// The ranked listing with fixes as a string: what
    /// [`CheckOutcome::write_listing`] writes, and what `sqlcheck FILE`
    /// prints.
    pub fn summary(&self) -> String {
        let mut out = Vec::new();
        self.write_listing(&mut out, true).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the listing is built from UTF-8 text")
    }
}

/// The top-level toolchain facade (Fig 4): configure, attach inputs, run.
///
/// The facade is reusable: [`SqlCheck::check_script`] and
/// [`SqlCheck::check_workload`] borrow it, so the same instance can check
/// many scripts. To re-check an evolving workload edit by edit, move it
/// into a [`CheckSession`] ([`SqlCheck::into_session`]).
pub struct SqlCheck {
    detector: Detector,
    ranker: Ranker,
    registry: RuleRegistry,
    database: Option<std::sync::Arc<Database>>,
    data_cfg: DataAnalysisConfig,
}

impl Default for SqlCheck {
    fn default() -> Self {
        Self::new()
    }
}

impl SqlCheck {
    /// Default-configured toolchain.
    pub fn new() -> Self {
        SqlCheck {
            detector: Detector::default(),
            ranker: Ranker::default(),
            registry: RuleRegistry::new(),
            database: None,
            data_cfg: DataAnalysisConfig::default(),
        }
    }

    /// Use a custom detection configuration.
    pub fn with_detection(mut self, cfg: DetectionConfig) -> Self {
        self.detector = Detector::new(cfg);
        self
    }

    /// Restrict detection to intra-query analysis (the paper's first
    /// evaluation configuration).
    pub fn intra_only(mut self) -> Self {
        self.detector = Detector::new(DetectionConfig::intra_only());
        self
    }

    /// Use custom ranking weights (Fig 7a's C1/C2 or bespoke).
    pub fn with_weights(mut self, weights: RankWeights) -> Self {
        self.ranker.weights = weights;
        self
    }

    /// Choose the inter-query ranking model.
    pub fn with_inter_query_model(mut self, model: InterQueryModel) -> Self {
        self.ranker.inter_model = model;
        self
    }

    /// Override metric rows with locally calibrated measurements.
    pub fn with_metrics(mut self, metrics: MetricsTable) -> Self {
        self.ranker.metrics = metrics;
        self
    }

    /// Attach a database for data analysis. The database is held behind
    /// an `Arc` and shared (not copied) across repeated checks.
    pub fn with_database(mut self, db: Database) -> Self {
        self.database = Some(std::sync::Arc::new(db));
        self
    }

    /// Configure the data analyzer (sampling, thresholds).
    pub fn with_data_config(mut self, cfg: DataAnalysisConfig) -> Self {
        self.data_cfg = cfg;
        self
    }

    /// Register a custom rule (§7 extensibility).
    pub fn with_rule(mut self, rule: Box<dyn CustomRule>) -> Self {
        self.registry.register(rule);
        self
    }

    /// Run every registered custom rule, each as its own panic-isolated
    /// unit: a panicking rule contributes a `RuleFailed` diagnostic and
    /// no detections, while every other rule's output is unaffected.
    /// Units run in registration order on the calling thread.
    fn run_registry(&self, context: &Context, diagnostics: &mut Vec<Diagnostic>) -> Vec<Detection> {
        let run = detect::schedule::run_units(self.registry.len(), |i| {
            self.registry.detect_one(i, context)
        });
        let mut extra = Vec::new();
        for (i, out) in run.into_iter().enumerate() {
            match out {
                Ok(d) => extra.extend(d),
                Err(p) => diagnostics.push(Diagnostic::new(
                    DiagKind::RuleFailed,
                    format!(
                        "custom rule '{}' panicked: {}",
                        self.registry.rule_name(i),
                        p.message
                    ),
                )),
            }
        }
        extra
    }

    /// Run the full pipeline over a SQL script: [`SqlCheck::check_workload`]
    /// with default [`FrontendOptions`], without the instrumentation.
    pub fn check_script(&self, script: &str) -> CheckOutcome {
        self.check_workload(script, &FrontendOptions::default()).outcome
    }

    /// Run the full pipeline over a script using the parse-once
    /// front-end and the detection engine: dedup by exact text before
    /// parsing, then per-unique-text parse/annotate/rule execution.
    /// Returns the outcome plus [`BatchStats`] instrumentation (dedup,
    /// per-phase front-end timings). `opts` sets the dialect and the
    /// per-statement budgets.
    pub fn check_workload(&self, script: &str, opts: &FrontendOptions) -> WorkloadOutcome {
        self.run_workload(script, opts).0
    }

    /// [`SqlCheck::check_workload`], also returning the engine's
    /// per-unique and per-unit results.
    pub(crate) fn run_workload(
        &self,
        script: &str,
        opts: &FrontendOptions,
    ) -> (WorkloadOutcome, detect::batch::EngineUnits) {
        let mut builder = ContextBuilder::new().with_frontend(opts.clone()).add_script(script);
        if let Some(db) = &self.database {
            builder = builder.with_shared_database(db.clone(), self.data_cfg.clone());
        }
        let (context, fe_stats) = builder.build_with_stats();
        let batch = self.detector.detect_batch(&context);
        let mut report = batch.report;
        let mut stats = batch.stats;
        let mut diagnostics = parse_diagnostics(&context);
        diagnostics.extend(batch.diagnostics);
        let failures_before = diagnostics.len();
        // Custom-rule detections get their spans attached separately: the
        // engine's own detections already carry absolute spans (and a
        // span a custom rule set itself is absolute and kept as-is).
        let mut extra = self.run_registry(&context, &mut diagnostics);
        let registry_failures = diagnostics.len() - failures_before;
        stats.rule_failures += registry_failures;
        stats.diag_counts[DiagKind::RuleFailed.index()] += registry_failures;
        detect::attach_default_spans(&mut extra, &context);
        report.detections.extend(extra);
        stats.absorb_frontend(&fe_stats);
        let outcome = WorkloadOutcome {
            outcome: CheckOutcome::new(context, report, diagnostics, self.ranker.clone()),
            stats,
        };
        (outcome, batch.units)
    }
}

/// Collect the degradation diagnostics carried by a built context:
/// script-level events first, then each unique statement text's parse
/// diagnostics attributed to its **first occurrence** index (duplicates
/// share one parse, so per-occurrence repetition would only amplify
/// counts without adding information).
fn parse_diagnostics(ctx: &Context) -> Vec<Diagnostic> {
    let mut out = ctx.diagnostics.clone();
    if ctx.uniques.iter().any(|(_, u)| !u.diags.is_empty()) {
        let first = ctx.first_occurrences();
        for (i, s) in ctx.statements.iter().enumerate() {
            if first[s.unique] == i {
                out.extend(s.diags.iter().map(|d| d.at(i)));
            }
        }
    }
    out
}

/// A [`CheckOutcome`] plus the batch-engine instrumentation.
#[derive(Debug)]
pub struct WorkloadOutcome {
    /// The regular pipeline outcome (context, report, ranking, fixes).
    pub outcome: CheckOutcome,
    /// Batch instrumentation: dedup effectiveness, timings.
    pub stats: BatchStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_entry_point_matches_paper_example() {
        // §7: find_anti_patterns("INSERT INTO Users VALUES (1, 'foo')")
        let results = find_anti_patterns("INSERT INTO Users VALUES (1, 'foo')");
        assert!(results.iter().any(|d| d.kind == AntiPatternKind::ImplicitColumns));
    }

    #[test]
    fn pipeline_orders_by_impact_and_fixes_everything() {
        let outcome = SqlCheck::new().check_script(
            "CREATE TABLE t (a INT, price FLOAT);\
             SELECT * FROM t WHERE price > 1;",
        );
        assert!(!outcome.ranked().is_empty());
        assert_eq!(outcome.ranked().len(), outcome.fixes().len());
        for w in outcome.ranked().windows(2) {
            assert!(w[0].score >= w[1].score, "ranked descending");
        }
        assert!(!outcome.summary().is_empty());
    }

    #[test]
    fn weights_change_ordering() {
        // A script with both an Index Underuse and an Enumerated Types AP —
        // Example 6's scenario end-to-end.
        let sql = "CREATE TABLE u (id INT PRIMARY KEY, zone TEXT, role TEXT, \
                     CONSTRAINT rc CHECK (role IN ('R1','R2','R3')));\
                   SELECT * FROM u WHERE zone = 'Z1';";
        let pick_first = |w: RankWeights| {
            let outcome = SqlCheck::new().with_weights(w).check_script(sql);
            outcome
                .ranked()
                .iter()
                .map(|r| r.detection.kind)
                .find(|k| {
                    matches!(
                        k,
                        AntiPatternKind::IndexUnderuse | AntiPatternKind::EnumeratedTypes
                    )
                })
                .unwrap()
        };
        assert_eq!(pick_first(RankWeights::C1), AntiPatternKind::IndexUnderuse);
        assert_eq!(pick_first(RankWeights::C2), AntiPatternKind::EnumeratedTypes);
    }
}

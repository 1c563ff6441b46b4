//! The detection engine: batched detection over large workloads
//! (template dedup). Every production path runs it.
//!
//! Production logs contain millions of statements drawn from a few
//! hundred templates. The batch engine exploits that redundancy:
//!
//! 1. **Unique texts** — intra-query rules run **once per unique text**
//!    of the context's [`UniqueTable`](crate::context::UniqueTable), at
//!    its first occurrence (the engine builds no grouping of its own),
//!    and the results fan back out to every occurrence with corrected
//!    loci. The exact-text key (rather than the template
//!    [fingerprint](sqlcheck_parser::fingerprint)) is what makes the
//!    fan-out byte-identical to the per-statement reference: several rules
//!    inspect literal *values* (leading-wildcard `LIKE`, token-list
//!    `INSERT`s).
//! 2. **Units** — the intra-query phase slices into per-unique-text
//!    units, the inter-query phase into per-rule units, and the
//!    data-analysis phase into per-table units, each run in order under
//!    a panic guard, so one panicking rule drops only its own unit's
//!    output. One helper runs intra units, for a cold check and for every
//!    [`CheckSession`](crate::session::CheckSession) re-check alike; the
//!    inter-query and data units read the whole context and run on every
//!    check.
//! 3. **Deterministic merge** — intra detections are re-emitted in
//!    statement order, inter-query units in rule order, data units in
//!    table order — exactly the orders the per-statement
//!    [`reference::detect`](crate::detect::reference::detect) produces —
//!    followed by the same `(kind, locus)` dedup. The engine therefore
//!    returns the *same detections in the same order* as the reference,
//!    for any input.

use crate::context::Context;
use crate::detect::schedule::guarded;
use crate::detect::{attach_spans, data, dedup, inter, intra, Detector};
use crate::report::{Detection, Locus, Report};
use sqlcheck_parser::ast::Statement;
use sqlcheck_parser::diag::{DiagKind, Diagnostic};
use std::sync::Arc;
use std::time::Instant;

/// Instrumentation of one [`Detector::detect_batch`] run.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Statements in the workload.
    pub statements: usize,
    /// Distinct template fingerprints (literal-insensitive).
    pub unique_templates: usize,
    /// Distinct exact statement texts — the number of intra-query rule
    /// executions actually performed.
    pub unique_texts: usize,
    /// Statements whose intra-query results were reused from an earlier
    /// identical statement (`statements - unique_texts`).
    pub cache_hits: usize,
    /// Wall-clock microseconds finding each unique text's first
    /// statement (its representative).
    pub group_micros: u128,
    /// Wall-clock microseconds spent in the intra-query phase.
    pub intra_micros: u128,
    /// Wall-clock microseconds spent fanning results out to occurrences.
    pub fanout_micros: u128,
    /// Wall-clock microseconds spent in the inter-query phase (per-rule
    /// units; 0 in intra-only mode).
    pub inter_micros: u128,
    /// Wall-clock microseconds spent in the data-analysis phase
    /// (per-table units; 0 without a database).
    pub data_micros: u128,
    /// Wall-clock microseconds deduplicating the merged detections and
    /// attaching their per-occurrence source spans.
    pub dedup_micros: u128,
    /// Wall-clock microseconds for the whole batch detection.
    pub total_micros: u128,
    /// Front-end: microseconds in the split pass — the boundary scan,
    /// dedup grouping, and one content hash per unique text (0 when the
    /// caller did not attach [`FrontendStats`]).
    ///
    /// [`FrontendStats`]: crate::context::FrontendStats
    pub split_micros: u128,
    /// Front-end: microseconds materialising token streams for new unique
    /// statement texts at intake (each new text's one lex) and
    /// fingerprinting them from those tokens.
    pub materialize_micros: u128,
    /// Front-end: microseconds in intake bookkeeping — looking up each
    /// unique text in the context's table and recording occurrences.
    pub intake_micros: u128,
    /// Front-end: microseconds parsing unique statements.
    pub parse_micros: u128,
    /// Front-end: microseconds annotating unique statements.
    pub annotate_micros: u128,
    /// Front-end: microseconds folding schema/workload/data context.
    pub context_micros: u128,
    /// Always 0: every check runs every inter-query rule unit.
    pub inter_units_reused: usize,
    /// Inter-query rule units run this call (0 in intra-only mode).
    pub inter_units_recomputed: usize,
    /// Per-table data-analysis units a warm re-check kept from the
    /// session's cold build (the attached database is never
    /// re-profiled); 0 on cold checks.
    pub data_units_reused: usize,
    /// Per-table data-analysis units run this call; 0 on warm re-checks.
    pub data_units_recomputed: usize,
    /// Warm re-check ([`CheckSession::recheck`]): microseconds applying
    /// the edit set — splicing texts, re-splitting edited statements,
    /// parsing/annotating new unique texts. 0 on cold checks.
    ///
    /// [`CheckSession::recheck`]: crate::session::CheckSession::recheck
    pub warm_edit_micros: u128,
    /// Warm re-check: microseconds delta-maintaining the retained
    /// context — workload aggregate retract ⊕ insert, schema refold on
    /// DDL edits, dirty-slot discovery. 0 on cold checks.
    pub warm_profile_micros: u128,
    /// Warm re-check: microseconds patching the retained report —
    /// recomputing dirty statements' detections, dropping the derived
    /// ranking and fixes, and rebuilding the per-statement detection
    /// slices. 0 on cold checks.
    pub warm_patch_micros: u128,
    /// Warm re-check: microseconds in the shared tail — the inter-query
    /// units, the deduped inter/data tail, and the registry rules. 0 on
    /// cold checks.
    pub warm_finalize_micros: u128,
    /// Warm re-check: statements whose detections were re-emitted from
    /// their text's canonical detections this re-check — the edited
    /// statements plus every occurrence of a text whose canonical
    /// detections changed (after a DDL edit, say). 0 on cold checks.
    pub warm_dirty_statements: usize,
    /// Unique statement texts whose parse degraded to `Statement::Other`
    /// (structural shape lost; detection power reduced).
    pub degraded_uniques: usize,
    /// Statements (occurrence-weighted) whose parse degraded to
    /// `Statement::Other`.
    pub degraded_statements: usize,
    /// Diagnostics per kind, indexed per [`DiagKind::index`]: parse-time
    /// diagnostics counted once per unique text, script-level events, and
    /// detection-phase rule failures.
    pub diag_counts: [usize; DiagKind::COUNT],
    /// Detection-rule units that panicked and were isolated (their
    /// output dropped, everything else unaffected).
    pub rule_failures: usize,
}

impl BatchStats {
    /// Fold front-end instrumentation into this record (the batch engine
    /// itself only sees an already-built context).
    pub fn absorb_frontend(&mut self, fe: &crate::context::FrontendStats) {
        self.split_micros = fe.split_micros;
        self.materialize_micros = fe.materialize_micros;
        self.intake_micros = fe.intake_micros;
        self.parse_micros = fe.parse_micros;
        self.annotate_micros = fe.annotate_micros;
        self.context_micros = fe.context_micros;
    }

    /// Fraction of statements whose parse kept structural shape
    /// (`1.0` = every statement shaped; an empty workload counts as
    /// fully covered).
    pub fn parse_coverage(&self) -> f64 {
        if self.statements == 0 {
            1.0
        } else {
            1.0 - self.degraded_statements as f64 / self.statements as f64
        }
    }
}

/// A [`Report`] plus the batch instrumentation that produced it.
#[derive(Debug)]
pub struct BatchReport {
    /// The detection report (identical to [`reference::detect`]'s).
    ///
    /// [`reference::detect`]: crate::detect::reference::detect
    pub report: Report,
    /// Instrumentation.
    pub stats: BatchStats,
    /// Detection-phase degradation events — [`DiagKind::RuleFailed`]
    /// entries for isolated rule-unit panics. Parse-time diagnostics
    /// live in the context's unique-text table, not here.
    pub diagnostics: Vec<Diagnostic>,
    /// The per-unique and per-unit results.
    pub(crate) units: EngineUnits,
}

/// What one engine run resolved per unique text and per tail unit,
/// handed to [`CheckSession`](crate::session::CheckSession) so that it
/// adopts the cold run's results instead of recomputing them.
#[derive(Debug)]
pub(crate) struct EngineUnits {
    /// Canonical intra-query detections per unique id of the context's
    /// table (see [`Detector::intra_results`]).
    pub(crate) intra: Vec<Arc<Vec<Detection>>>,
    /// Per-rule inter-query results (empty in intra-only mode).
    pub(crate) inter: Vec<Vec<Detection>>,
    /// Per-table data-analysis results, in `data.tables()` order.
    pub(crate) data: Vec<Vec<Detection>>,
}

/// Zero the statement locus so the detections replay at any occurrence.
/// Spans at this stage are statement-relative (body sub-statement
/// ranges) and therefore already occurrence-independent.
fn canonicalize(mut dets: Vec<Detection>) -> Vec<Detection> {
    for d in &mut dets {
        if let Locus::Statement { index } = &mut d.locus {
            *index = 0;
        }
    }
    dets
}

impl Detector {
    /// Batched detection: runs intra-query rules once per unique
    /// statement text of the context's table and fans the results out.
    /// Same detections, in the same order, as
    /// [`reference::detect`](crate::detect::reference::detect).
    pub fn detect_batch(&self, ctx: &Context) -> BatchReport {
        let t_start = Instant::now();
        let t_group = Instant::now();
        let use_context = !self.cfg.intra_only;
        let uniques = &ctx.uniques;

        // Phase 1: the representative (first occurrence) of each unique
        // text, in script order. The table keys texts by their 128-bit
        // content hash, treated as collision-free, the same assumption
        // content-addressed systems make.
        let first = ctx.first_occurrences();
        let mut reps: Vec<usize> = first.iter().copied().filter(|&i| i != usize::MAX).collect();
        reps.sort_unstable();
        let group_micros = t_group.elapsed().as_micros();

        // Degradation accounting: parse diagnostics counted once per
        // unique text (plus script-level events), and shaped-vs-degraded
        // statement counts for the parse-coverage ratio. A statement is
        // degraded when its unique text parsed to `Other` while carrying
        // real content (a leading keyword).
        let mut diag_counts = [0usize; DiagKind::COUNT];
        let mut degraded_uniques = 0usize;
        let mut degraded_statements = 0usize;
        for (_, u) in uniques.iter() {
            for d in u.diags.iter() {
                diag_counts[d.kind.index()] += 1;
            }
            if matches!(&u.parsed.stmt, Statement::Other(o) if !o.leading_keyword.is_empty()) {
                degraded_uniques += 1;
                degraded_statements += u.count;
            }
        }
        for d in &ctx.diagnostics {
            diag_counts[d.kind.index()] += 1;
        }
        let mut diagnostics: Vec<Diagnostic> = Vec::new();

        // Phase 2: intra-query rules, once per unique text.
        let t_intra = Instant::now();
        let results = self.intra_results(ctx, &reps, &mut diagnostics);
        let mut intra: Vec<Arc<Vec<Detection>>> = vec![Arc::default(); uniques.id_bound()];
        for (&rep, dets) in reps.iter().zip(results) {
            intra[ctx.statements[rep].unique] = dets;
        }
        let intra_micros = t_intra.elapsed().as_micros();

        // Phase 3: deterministic fan-out in statement order, the
        // statement locus rewritten to the occurrence index.
        let t_fanout = Instant::now();
        let mut report = Report::default();
        report
            .detections
            .reserve_exact(uniques.iter().map(|(id, u)| u.count * intra[id].len()).sum());
        for (idx, s) in ctx.statements.iter().enumerate() {
            for d in intra[s.unique].iter() {
                let mut d = d.clone();
                if let Locus::Statement { index } = &mut d.locus {
                    *index = idx;
                }
                report.detections.push(d);
            }
        }
        let fanout_micros = t_fanout.elapsed().as_micros();

        // Phase 4: inter-query rules, one unit per rule, merged in rule
        // order.
        let t_inter = Instant::now();
        let mut inter_units: Vec<Vec<Detection>> = Vec::new();
        if use_context {
            for rule in 0..inter::RULES.len() {
                let dets =
                    guarded(|| inter::detect_unit(rule, ctx, &self.cfg)).unwrap_or_else(|p| {
                        diagnostics.push(Diagnostic::new(
                            DiagKind::RuleFailed,
                            format!("inter-query rule unit {rule} panicked: {}", p.message),
                        ));
                        Vec::new()
                    });
                report.detections.extend(dets.iter().cloned());
                inter_units.push(dets);
            }
        }
        let inter_micros = t_inter.elapsed().as_micros();

        // Phase 5: data analysis, one unit per profiled table, merged in
        // `data.tables()` order.
        let t_data = Instant::now();
        let mut data_units: Vec<Vec<Detection>> = Vec::new();
        if let Some(data) = &ctx.data {
            for tp in data.tables() {
                let dets = guarded(|| data::detect_table(tp, ctx, &self.cfg)).unwrap_or_else(|p| {
                    diagnostics.push(Diagnostic::new(
                        DiagKind::RuleFailed,
                        format!(
                            "data-analysis unit for table '{}' panicked: {}",
                            tp.name, p.message
                        ),
                    ));
                    Vec::new()
                });
                report.detections.extend(dets.iter().cloned());
                data_units.push(dets);
            }
        }
        let data_micros = t_data.elapsed().as_micros();

        // The shared (kind, locus, span) dedup, then per-occurrence
        // source spans.
        let t_dedup = Instant::now();
        dedup(&mut report.detections);
        attach_spans(&mut report.detections, ctx);
        let dedup_micros = t_dedup.elapsed().as_micros();

        let rule_failures = diagnostics.len();
        diag_counts[DiagKind::RuleFailed.index()] += rule_failures;
        let stats = BatchStats {
            statements: ctx.statements.len(),
            unique_templates: uniques.templates(),
            unique_texts: uniques.len(),
            cache_hits: ctx.statements.len() - uniques.len(),
            group_micros,
            intra_micros,
            fanout_micros,
            inter_micros,
            data_micros,
            dedup_micros,
            total_micros: t_start.elapsed().as_micros(),
            degraded_uniques,
            degraded_statements,
            diag_counts,
            rule_failures,
            inter_units_recomputed: inter_units.len(),
            data_units_recomputed: data_units.len(),
            ..BatchStats::default()
        };
        let units = EngineUnits { intra, inter: inter_units, data: data_units };
        BatchReport { report, stats, diagnostics, units }
    }

    /// Canonical intra-query detections (statement locus zeroed, spans
    /// statement-relative) of each representative statement in `reps`,
    /// each computed under the panic guard. A panicking unit yields no
    /// detections and adds a [`DiagKind::RuleFailed`] diagnostic.
    pub(crate) fn intra_results(
        &self,
        ctx: &Context,
        reps: &[usize],
        diagnostics: &mut Vec<Diagnostic>,
    ) -> Vec<Arc<Vec<Detection>>> {
        let use_context = !self.cfg.intra_only;
        // Most statements have no intra detections; they share one entry.
        let empty: Arc<Vec<Detection>> = Arc::default();
        reps.iter()
            .map(|&rep| {
                let stmt = &ctx.statements[rep];
                match guarded(|| intra::detect_statement(rep, stmt, ctx, &self.cfg, use_context)) {
                    Ok(dets) if dets.is_empty() => Arc::clone(&empty),
                    Ok(dets) => Arc::new(canonicalize(dets)),
                    Err(p) => {
                        diagnostics.push(
                            Diagnostic::new(
                                DiagKind::RuleFailed,
                                format!("intra-query unit panicked: {}", p.message),
                            )
                            .at(rep),
                        );
                        Arc::clone(&empty)
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextBuilder;
    use crate::detect::reference;

    fn detections_debug(r: &Report) -> Vec<String> {
        r.detections.iter().map(|d| format!("{d:?}")).collect()
    }

    fn script_with_duplicates() -> String {
        let mut s = String::from(
            "CREATE TABLE t (a INT, price FLOAT);\
             CREATE TABLE u (id INT PRIMARY KEY, user_ids TEXT);\n",
        );
        for i in 0..40 {
            s.push_str("SELECT * FROM t WHERE a = 1;\n");
            s.push_str(&format!("SELECT * FROM t WHERE a = {i};\n"));
            s.push_str("SELECT * FROM u WHERE user_ids LIKE '%U1%';\n");
            s.push_str("INSERT INTO t VALUES (1, 2.5);\n");
        }
        s
    }

    #[test]
    fn batch_matches_sequential_byte_for_byte() {
        let ctx = ContextBuilder::new().add_script(&script_with_duplicates()).build();
        let det = Detector::default();
        let seq = reference::detect(&ctx, &det.cfg);
        let batch = det.detect_batch(&ctx);
        assert_eq!(detections_debug(&seq), detections_debug(&batch.report));
    }

    #[test]
    fn stats_reflect_dedup() {
        let ctx = ContextBuilder::new().add_script(&script_with_duplicates()).build();
        let b = Detector::default().detect_batch(&ctx);
        assert_eq!(b.stats.statements, ctx.len());
        assert!(b.stats.unique_texts < b.stats.statements, "duplicates must dedup");
        // The `a = {i}` family shares one template across 40 literals.
        assert!(b.stats.unique_templates < b.stats.unique_texts);
        assert_eq!(b.stats.cache_hits, b.stats.statements - b.stats.unique_texts);
    }

    #[test]
    fn literal_sensitive_rules_survive_template_sharing() {
        // Same template, different literal shape: only the leading-wildcard
        // variant is a Pattern Matching AP. The exact-text key must keep
        // them apart.
        let sql = "SELECT a FROM t WHERE a LIKE '%x%';\
                   SELECT a FROM t WHERE a LIKE 'x%';";
        let ctx = ContextBuilder::new().add_script(sql).build();
        let det = Detector::default();
        let seq = reference::detect(&ctx, &det.cfg);
        let batch = det.detect_batch(&ctx);
        assert_eq!(detections_debug(&seq), detections_debug(&batch.report));
        use crate::anti_pattern::AntiPatternKind;
        assert_eq!(batch.report.count(AntiPatternKind::PatternMatching), 1);
    }

    #[test]
    fn empty_and_single_statement_workloads() {
        for sql in ["", "SELECT * FROM t"] {
            let ctx = ContextBuilder::new().add_script(sql).build();
            let det = Detector::default();
            let seq = reference::detect(&ctx, &det.cfg);
            let batch = det.detect_batch(&ctx);
            assert_eq!(detections_debug(&seq), detections_debug(&batch.report));
        }
    }

    #[test]
    fn statement_level_degradation_counts_agree() {
        // A sub-expression `Raw` fallback keeps its statement shaped: it
        // is `expr-degraded`, not `parse-degraded`. Every `parse-degraded`
        // diagnostic is a degraded unique text, so the counts can never
        // contradict the parse-coverage line.
        let deep = format!("SELECT {}1{} FROM t", "(".repeat(500), ")".repeat(500));
        let sql = format!(
            "GRANT ALL ON t TO alice; GRANT ALL ON t TO alice; {deep}; {deep}; SELECT a FROM t;"
        );
        let ctx = ContextBuilder::new().add_script(&sql).build();
        let s = Detector::default().detect_batch(&ctx).stats;
        assert_eq!(s.degraded_uniques, 1);
        assert_eq!(s.degraded_statements, 2);
        assert_eq!(s.diag_counts[DiagKind::ParseDegraded.index()], 1);
        assert_eq!(s.diag_counts[DiagKind::ExprDegraded.index()], 1);
        assert!(s.diag_counts[DiagKind::ParseDegraded.index()] <= s.degraded_uniques);
    }
}

//! The detection engine: batched detection over large workloads
//! (template dedup). Every production path runs it.
//!
//! Production logs contain millions of statements drawn from a few
//! hundred templates. The batch engine exploits that redundancy:
//!
//! 1. **Grouping** — statements are grouped by their template
//!    [fingerprint](sqlcheck_parser::fingerprint) and, within a template,
//!    by exact statement text. Intra-query rules run **once per unique
//!    text** and the results fan back out to every occurrence with
//!    corrected loci. The exact-text key (rather than the fingerprint
//!    alone) is what makes the fan-out byte-identical to the per-statement
//!    reference: several rules inspect literal *values* (leading-wildcard
//!    `LIKE`, token-list `INSERT`s), so two statements sharing a template
//!    can still differ in their detections.
//! 2. **Units** — the intra-query phase slices into per-unique-text
//!    units, the inter-query phase into per-rule units, and the
//!    data-analysis phase into per-table units, each run in order under
//!    a panic guard, so one panicking rule drops only its own unit's
//!    output. One helper resolves intra units and one resolves tail
//!    units (memo, guarded run, memoize), for a cold check and for every
//!    [`CheckSession`](crate::session::CheckSession) re-check alike.
//! 3. **Deterministic merge** — intra detections are re-emitted in
//!    statement order, inter-query units in rule order, data units in
//!    table order — exactly the orders the per-statement
//!    [`reference::detect`](crate::detect::reference::detect) produces —
//!    followed by the same `(kind, locus)` dedup. The engine therefore
//!    returns the *same detections in the same order* as the reference,
//!    for any input.

use crate::context::{Context, SchemaVersions, TableProfile};
use crate::detect::cache::{DepSet, IncrementalCache, UNIT_DATA, UNIT_INTER};
use crate::detect::schedule::{guarded, UnitPanic};
use crate::detect::{attach_spans, data, dedup, inter, intra, Detector};
use crate::hashutil::Prehashed;
use crate::report::{Detection, Locus, Report};
use sqlcheck_parser::annotate::Annotations;
use sqlcheck_parser::ast::Statement;
use sqlcheck_parser::diag::{DiagKind, Diagnostic};
use sqlcheck_parser::fingerprint::fnv1a;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
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
    /// Wall-clock microseconds spent grouping statements.
    pub group_micros: u128,
    /// Wall-clock microseconds spent in the intra-query phase.
    pub intra_micros: u128,
    /// Wall-clock microseconds spent fanning results out to occurrences.
    pub fanout_micros: u128,
    /// Wall-clock microseconds spent in the inter-query phase (per-rule
    /// units; 0 in intra-only mode). Explicitly
    /// measured — no longer the implicit `total − group − intra − fanout`
    /// residual.
    pub inter_micros: u128,
    /// Wall-clock microseconds spent in the data-analysis phase
    /// (per-table units; 0 without a database).
    pub data_micros: u128,
    /// Wall-clock microseconds for the whole batch detection.
    pub total_micros: u128,
    /// Front-end: microseconds in the split pass — splitting, dedup
    /// grouping, and per-unique content hashing and template
    /// fingerprinting (0 when the caller did not attach
    /// [`FrontendStats`]).
    ///
    /// [`FrontendStats`]: crate::context::FrontendStats
    pub split_micros: u128,
    /// Front-end: microseconds materialising token streams for unique
    /// statement texts at intake (no longer lumped into `split_micros`).
    pub materialize_micros: u128,
    /// Front-end: microseconds in dedup intake bookkeeping — mapping
    /// script-local unique slots onto builder slots and recording
    /// occurrences. Previously mis-attributed to `split_micros`, which
    /// made warm re-checks (where the cache short-circuits
    /// materialization but intake still walks every occurrence) look
    /// like they were paying for cold splitting.
    pub intake_micros: u128,
    /// Front-end: microseconds grouping texts + parsing unique statements.
    pub parse_micros: u128,
    /// Front-end: microseconds annotating unique statements.
    pub annotate_micros: u128,
    /// Front-end: microseconds folding schema/workload/data context.
    pub context_micros: u128,
    /// Incremental cache: unique texts whose intra-query detections were
    /// reused from a previous `check_workload` call (0 without a cache).
    pub incremental_hits: usize,
    /// Incremental cache: unique texts analysed fresh this call.
    pub incremental_misses: usize,
    /// Incremental cache: entries dropped this call (capacity evictions
    /// plus config/schema-change flushes).
    pub incremental_evictions: usize,
    /// Incremental cache: evictions this call triggered by a
    /// **whole-table** schema dependency (DDL statements, wildcard
    /// reads).
    pub table_evictions: usize,
    /// Incremental cache: evictions this call triggered by a **core or
    /// column** dependency — the column-granular tier that lets a DDL
    /// edit to one column keep entries on its siblings warm.
    pub column_evictions: usize,
    /// Inter-query rule units replayed from the unit memo this call
    /// (input digest unchanged; 0 without a cache).
    pub inter_units_reused: usize,
    /// Inter-query rule units actually run this call.
    pub inter_units_recomputed: usize,
    /// Per-table data-analysis units replayed from the unit memo this
    /// call.
    pub data_units_reused: usize,
    /// Per-table data-analysis units actually run this call.
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
    /// recomputing dirty statements' detections and rebuilding the
    /// per-statement detection slices. 0 on cold checks.
    pub warm_patch_micros: u128,
    /// Warm re-check: microseconds in the shared tail — memoized
    /// inter/data units, registry rules, ranking, fixes. 0 on cold
    /// checks.
    pub warm_finalize_micros: u128,
    /// Warm re-check: statements whose intra-query detections were
    /// recomputed or re-fetched this re-check (the edit set plus, after a
    /// DDL edit, every occurrence of a column-evicted unique text). 0 on
    /// cold checks.
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
    /// live on the context's statements, not here.
    pub diagnostics: Vec<Diagnostic>,
    /// The per-unique and per-unit results, when the caller asked the
    /// engine to keep them ([`Detector::run_engine`]).
    pub(crate) units: Option<EngineUnits>,
}

/// One group of statements sharing an exact text (and hence a template).
#[derive(Debug)]
pub(crate) struct Group {
    /// Representative statement index (the first occurrence).
    pub(crate) rep: usize,
    /// Occurrences of the text.
    pub(crate) count: usize,
}

/// What one engine run resolved per unique text and per tail unit,
/// handed to [`CheckSession`](crate::session::CheckSession) so that it
/// adopts the cold run's results instead of recomputing them.
#[derive(Debug)]
pub(crate) struct EngineUnits {
    /// Unique texts in first-occurrence order.
    pub(crate) groups: Vec<Group>,
    /// Content hash → group index.
    pub(crate) group_by_hash: HashMap<u128, usize, Prehashed>,
    /// Group index per statement, script order.
    pub(crate) group_of: Vec<usize>,
    /// Canonical intra-query detections per group (see
    /// [`Detector::intra_results`]).
    pub(crate) intra: Vec<Arc<Vec<Detection>>>,
    /// Per-rule inter-query results (empty in intra-only mode).
    pub(crate) inter: Vec<Arc<Vec<Detection>>>,
    /// The input digests the inter-query units were resolved under.
    pub(crate) inter_digests: [u64; 4],
    /// Per-table data-analysis results, in `data.tables()` order.
    pub(crate) data: Vec<Arc<Vec<Detection>>>,
    /// The schema versions the run validated the cache against.
    pub(crate) versions: SchemaVersions,
}

/// One unit of the detection tail.
#[derive(Clone, Copy)]
pub(crate) enum TailUnit<'a> {
    /// Inter-query rule `rule` (an index into [`inter::RULES`]) whose
    /// inputs hash to `digest` ([`inter_unit_digests`]).
    Inter { rule: usize, digest: u64 },
    /// The data-analysis rules over one profiled table.
    Data(&'a TableProfile),
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
    /// statement text (grouped under template fingerprints) and fans the
    /// results out. Same detections, in the same order, as
    /// [`reference::detect`](crate::detect::reference::detect).
    pub fn detect_batch(&self, ctx: &Context) -> BatchReport {
        self.detect_batch_with(ctx, None)
    }

    /// [`Detector::detect_batch`] with an optional [`IncrementalCache`]:
    /// unique texts whose intra-query detections are cached (under the
    /// current config + schema epoch) are replayed instead of re-analysed,
    /// so re-checking an edited workload only pays for changed statements.
    /// The output is the same either way.
    pub fn detect_batch_with(&self, ctx: &Context, cache: Option<&IncrementalCache>) -> BatchReport {
        self.run_engine(ctx, cache, false)
    }

    /// The detection engine. With `keep_units` the report carries the
    /// per-unique and per-unit results in [`BatchReport::units`].
    pub(crate) fn run_engine(
        &self,
        ctx: &Context,
        cache: Option<&IncrementalCache>,
        keep_units: bool,
    ) -> BatchReport {
        let t_start = Instant::now();
        let t_group = Instant::now();
        let use_context = !self.cfg.intra_only;

        // Phase 1: group statements by their precomputed 128-bit content
        // hash (literal-sensitive, span-insensitive — computed once at
        // context-build time). Equal content implies equal fingerprints,
        // so the content partition refines the template partition.
        // 128 bits are treated as collision-free, the same assumption
        // content-addressed systems make.
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(ctx.statements.len());
        let mut by_hash: HashMap<u128, usize, Prehashed> = HashMap::with_capacity_and_hasher(
            ctx.statements.len().min(1024),
            Prehashed::default(),
        );
        let mut templates: HashSet<u64> = HashSet::new();
        for (idx, stmt) in ctx.statements.iter().enumerate() {
            let gi = *by_hash.entry(stmt.text_hash).or_insert_with(|| {
                templates.insert(stmt.template_hash);
                groups.push(Group { rep: idx, count: 0 });
                groups.len() - 1
            });
            groups[gi].count += 1;
            group_of.push(gi);
        }

        let group_micros = t_group.elapsed().as_micros();

        // Degradation accounting: parse diagnostics counted once per
        // unique text (plus script-level events), and shaped-vs-degraded
        // statement counts for the parse-coverage ratio. A statement is
        // degraded when its unique text parsed to `Other` while carrying
        // real content (a leading keyword).
        let mut diag_counts = [0usize; DiagKind::COUNT];
        let mut degraded_uniques = 0usize;
        let mut degraded_statements = 0usize;
        for g in &groups {
            let s = &ctx.statements[g.rep];
            for d in s.diags.iter() {
                diag_counts[d.kind.index()] += 1;
            }
            if matches!(&s.parsed.stmt, Statement::Other(o) if !o.leading_keyword.is_empty()) {
                degraded_uniques += 1;
                degraded_statements += g.count;
            }
        }
        for d in &ctx.diagnostics {
            diag_counts[d.kind.index()] += 1;
        }
        let mut diagnostics: Vec<Diagnostic> = Vec::new();

        // Phase 2: intra-query rules, once per group. Cached entries are
        // only valid under the current (config, schema) epoch; a mismatch
        // flushes the cache before any lookup.
        let t_intra = Instant::now();
        let counters_before = cache.map(|c| c.counters());
        let versions = if cache.is_some() || keep_units {
            ctx.schema.versions()
        } else {
            SchemaVersions::default()
        };
        if let Some(c) = cache {
            c.ensure_epoch(self.config_epoch(ctx), &versions);
        }
        let reps: Vec<usize> = groups.iter().map(|g| g.rep).collect();
        let intra = self.intra_results(ctx, cache, &reps, &mut diagnostics);
        let intra_micros = t_intra.elapsed().as_micros();

        // Phase 3: deterministic fan-out in statement order, the
        // statement locus rewritten to the occurrence index.
        let t_fanout = Instant::now();
        let mut report = Report::default();
        report.detections.reserve_exact(
            groups.iter().zip(&intra).map(|(g, dets)| g.count * dets.len()).sum(),
        );
        for (idx, &gi) in group_of.iter().enumerate() {
            for d in intra[gi].iter() {
                let mut d = d.clone();
                if let Locus::Statement { index } = &mut d.locus {
                    *index = idx;
                }
                report.detections.push(d);
            }
        }
        let fanout_micros = t_fanout.elapsed().as_micros();

        // Phase 4: inter-query rules, one unit per rule, merged in rule
        // order. With a cache each unit is keyed by a digest of exactly
        // the inputs it reads ([`inter_unit_digests`]), so an edit that
        // leaves a rule's inputs byte-identical replays its detections.
        let t_inter = Instant::now();
        let mut inter_units: Vec<Arc<Vec<Detection>>> = Vec::new();
        let mut inter_digests = [0u64; 4];
        if use_context {
            if cache.is_some() || keep_units {
                inter_digests = inter_unit_digests(ctx, &versions);
            }
            for (rule, &digest) in inter_digests.iter().enumerate() {
                let dets = self
                    .resolve_unit(ctx, cache, TailUnit::Inter { rule, digest })
                    .unwrap_or_else(|p| {
                        diagnostics.push(Diagnostic::new(
                            DiagKind::RuleFailed,
                            format!("inter-query rule unit {rule} panicked: {}", p.message),
                        ));
                        Arc::default()
                    });
                report.detections.extend(dets.iter().cloned());
                inter_units.push(dets);
            }
        }
        let inter_micros = t_inter.elapsed().as_micros();

        // Phase 5: data analysis, one unit per profiled table, merged in
        // `data.tables()` order.
        let t_data = Instant::now();
        let mut data_units: Vec<Arc<Vec<Detection>>> = Vec::new();
        if let Some(data) = &ctx.data {
            for tp in data.tables() {
                let dets = self.resolve_unit(ctx, cache, TailUnit::Data(tp)).unwrap_or_else(|p| {
                    diagnostics.push(Diagnostic::new(
                        DiagKind::RuleFailed,
                        format!(
                            "data-analysis unit for table '{}' panicked: {}",
                            tp.name, p.message
                        ),
                    ));
                    Arc::default()
                });
                report.detections.extend(dets.iter().cloned());
                data_units.push(dets);
            }
        }
        let data_micros = t_data.elapsed().as_micros();

        // The shared (kind, locus, span) dedup, then per-occurrence
        // source spans.
        dedup(&mut report.detections);
        attach_spans(&mut report.detections, ctx);

        let rule_failures = diagnostics.len();
        diag_counts[DiagKind::RuleFailed.index()] += rule_failures;
        let mut stats = BatchStats {
            statements: ctx.statements.len(),
            unique_templates: templates.len(),
            unique_texts: groups.len(),
            cache_hits: ctx.statements.len() - groups.len(),
            group_micros,
            intra_micros,
            fanout_micros,
            inter_micros,
            data_micros,
            total_micros: t_start.elapsed().as_micros(),
            degraded_uniques,
            degraded_statements,
            diag_counts,
            rule_failures,
            ..BatchStats::default()
        };
        if let (Some(before), Some(c)) = (counters_before, cache) {
            let after = c.counters();
            stats.incremental_hits = (after.hits - before.hits) as usize;
            stats.incremental_misses = (after.misses - before.misses) as usize;
            stats.incremental_evictions = (after.evictions - before.evictions) as usize;
            stats.table_evictions = (after.table_evictions - before.table_evictions) as usize;
            stats.column_evictions = (after.column_evictions - before.column_evictions) as usize;
            stats.inter_units_reused =
                (after.inter_units_reused - before.inter_units_reused) as usize;
            stats.inter_units_recomputed =
                (after.inter_units_recomputed - before.inter_units_recomputed) as usize;
            stats.data_units_reused = (after.data_units_reused - before.data_units_reused) as usize;
            stats.data_units_recomputed =
                (after.data_units_recomputed - before.data_units_recomputed) as usize;
        }
        let units = keep_units.then_some(EngineUnits {
            groups,
            group_by_hash: by_hash,
            group_of,
            intra,
            inter: inter_units,
            inter_digests,
            data: data_units,
            versions,
        });
        BatchReport { report, stats, diagnostics, units }
    }

    /// Canonical intra-query detections (statement locus zeroed, spans
    /// statement-relative) of each representative statement in `reps`:
    /// replayed from `cache` when it holds the text, else computed under
    /// the panic guard and inserted. A panicking unit yields no
    /// detections, is never cached (so a later run with the fault fixed
    /// re-analyses it), and adds a [`DiagKind::RuleFailed`] diagnostic.
    pub(crate) fn intra_results(
        &self,
        ctx: &Context,
        cache: Option<&IncrementalCache>,
        reps: &[usize],
        diagnostics: &mut Vec<Diagnostic>,
    ) -> Vec<Arc<Vec<Detection>>> {
        let use_context = !self.cfg.intra_only;
        // Most statements have no intra detections; they share one entry.
        let empty: Arc<Vec<Detection>> = Arc::default();
        // Every lookup happens before any insert, so one call's inserts
        // never evict another representative's entry before it is read.
        let hits: Vec<Option<Arc<Vec<Detection>>>> = reps
            .iter()
            .map(|&rep| cache.and_then(|c| c.get(ctx.statements[rep].text_hash)))
            .collect();
        hits.into_iter()
            .zip(reps)
            .map(|(hit, &rep)| {
                if let Some(hit) = hit {
                    return hit;
                }
                let stmt = &ctx.statements[rep];
                match guarded(|| intra::detect_statement(rep, stmt, ctx, &self.cfg, use_context)) {
                    Ok(dets) => {
                        let canon = if dets.is_empty() {
                            Arc::clone(&empty)
                        } else {
                            Arc::new(canonicalize(dets))
                        };
                        if let Some(c) = cache {
                            // Each entry records the schema objects its
                            // statement's rules may consult, for
                            // column-granular invalidation across DDL edits.
                            c.insert(
                                stmt.text_hash,
                                Arc::clone(&canon),
                                Arc::new(entry_deps(&stmt.parsed.stmt, &stmt.ann)),
                            );
                        }
                        canon
                    }
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

    /// Resolve one tail unit: replay it from the unit memo when `cache`
    /// holds it under its current input digest, else run it under the
    /// panic guard and memoize the result. A panicked unit is never
    /// memoized, so a later run with the fault fixed re-runs it.
    pub(crate) fn resolve_unit(
        &self,
        ctx: &Context,
        cache: Option<&IncrementalCache>,
        unit: TailUnit<'_>,
    ) -> Result<Arc<Vec<Detection>>, UnitPanic> {
        let (kind, id, digest) = match unit {
            TailUnit::Inter { rule, digest } => (UNIT_INTER, rule as u64, digest),
            TailUnit::Data(tp) => {
                let (id, digest) = if cache.is_some() { data_unit_key(tp) } else { (0, 0) };
                (UNIT_DATA, id, digest)
            }
        };
        if let Some(hit) = cache.and_then(|c| c.unit_get(kind, id, digest)) {
            return Ok(hit);
        }
        let dets = Arc::new(guarded(|| match unit {
            TailUnit::Inter { rule, .. } => inter::detect_unit(rule, ctx, &self.cfg),
            TailUnit::Data(tp) => data::detect_table(tp, ctx, &self.cfg),
        })?);
        if let Some(c) = cache {
            c.unit_put(kind, id, digest, Arc::clone(&dets));
        }
        Ok(dets)
    }

    /// Hash of the *non-schema* inputs a cached intra-query result
    /// depends on besides the statement text: the detection config, plus
    /// data-context presence for good measure. Schema validity is tracked
    /// separately — per table — via
    /// [`SchemaCatalog::table_digests`](crate::context::SchemaCatalog::table_digests),
    /// so a DDL edit to one table no longer flushes entries that only
    /// depend on others. Debug formatting is a deterministic canonical
    /// encoding within one process — exactly the lifetime of an
    /// [`IncrementalCache`].
    pub(crate) fn config_epoch(&self, ctx: &Context) -> u64 {
        let encoded = format!(
            "{:?}|{}|{}|{:?}",
            self.cfg,
            ctx.data.is_some(),
            ctx.limits_epoch,
            ctx.dialect
        );
        sqlcheck_parser::fingerprint::fnv1a(encoded.as_bytes())
    }
}

/// The schema surface one statement's intra-query rules may consult, as
/// a column-granular [`DepSet`].
///
/// The base table set is every table the statement references
/// (FROM/JOIN/DML/DDL, subqueries and trigger/routine bodies included)
/// **plus** every column qualifier: qualifiers are usually aliases, but
/// an unresolvable qualifier is looked up in the catalog as a table name
/// by the contextual rules, so it is a (conservative) dependency too.
///
/// * **DDL statements** record whole-table deps on the base set — their
///   rules inspect full definitions, and DDL is rare enough that finer
///   tracking buys nothing.
/// * **Everything else** records a *core* dep per base table (covers the
///   primary-key, foreign-key, and table-presence reads of
///   `joins_on_unique_keys` / `has_primary_key` suppression) plus a
///   *column* dep for every `(base table × referenced column)` pair.
///   The cross product is what makes alias resolution safe without
///   re-running it: whichever base table a qualifier actually resolves
///   to, that `(table, column)` pair is recorded. The result: `ALTER
///   TABLE t ADD COLUMN c` no longer evicts entries that only touch
///   `t.a` — the gap this closes over the old whole-table `deps`.
fn entry_deps(stmt: &Statement, ann: &Annotations) -> DepSet {
    let mut base: BTreeSet<String> = BTreeSet::new();
    for t in &ann.tables {
        base.insert(t.to_ascii_lowercase());
    }
    for c in &ann.columns {
        if let Some(q) = &c.qualifier {
            base.insert(q.to_ascii_lowercase());
        }
    }
    for p in &ann.predicates {
        if let Some(q) = &p.qualifier {
            base.insert(q.to_ascii_lowercase());
        }
    }
    for j in &ann.join_conditions {
        if let Some(q) = &j.left.0 {
            base.insert(q.to_ascii_lowercase());
        }
        if let Some((Some(q), _)) = &j.right {
            base.insert(q.to_ascii_lowercase());
        }
    }
    if matches!(
        stmt,
        Statement::CreateTable(_)
            | Statement::CreateIndex(_)
            | Statement::AlterTable(_)
            | Statement::Drop(_)
    ) {
        return DepSet { tables: base.into_iter().collect(), ..DepSet::default() };
    }
    let mut cols: BTreeSet<String> = BTreeSet::new();
    for c in &ann.columns {
        cols.insert(c.column.to_ascii_lowercase());
    }
    for p in &ann.predicates {
        cols.insert(p.column.to_ascii_lowercase());
    }
    for j in &ann.join_conditions {
        cols.insert(j.left.1.to_ascii_lowercase());
        if let Some((_, rc)) = &j.right {
            cols.insert(rc.to_ascii_lowercase());
        }
    }
    let columns: Vec<(String, String)> = base
        .iter()
        .flat_map(|t| cols.iter().map(move |c| (t.clone(), c.clone())))
        .collect();
    DepSet {
        tables: Box::default(),
        cores: base.into_iter().collect(),
        columns: columns.into(),
    }
}

/// Input digests for the four inter-query rule units, in
/// [`inter::RULES`] order. Each digest folds **exactly** the inputs its
/// rule reads — established by inspection of `inter.rs` and locked in by
/// the byte-identity property suites — so a workload edit that leaves a
/// rule's inputs unchanged leaves its digest unchanged and the unit
/// replays from the memo:
///
/// 0. `no_foreign_key`: the join-edge **key set** (multiplicities are
///    never read) + each edge table's core digest (presence, primary
///    key, declared FKs).
/// 1. `index_underuse`: per usage entry passing the `eq_predicates > 0
///    || group_by > 0` gate: the counts it prints, its table's full
///    digest (covers `has_index_on`: indexes + PK), and the data-profile
///    fields the low-cardinality refinement reads. Entries failing the
///    gate contribute nothing — so pure count drift on cold columns
///    (e.g. more `ORDER BY` traffic) keeps the unit clean.
/// 2. `index_overuse`: every index definition in catalog order plus the
///    **boolean** "leading column has reads" — count-only changes on an
///    already-read column keep the digest stable.
/// 3. `clone_table`: the catalog's table names, nothing else.
///
/// The detection config and data-analysis config are covered by the
/// cache's config epoch, not folded here.
pub(crate) fn inter_unit_digests(ctx: &Context, versions: &SchemaVersions) -> [u64; 4] {
    let mut s = String::new();

    // Unit 0 — no_foreign_key.
    let mut edge_tables: BTreeSet<&str> = BTreeSet::new();
    for edge in ctx.workload.join_edges.keys() {
        let _ = write!(s, "{edge:?};");
        edge_tables.insert(&edge.left.0);
        edge_tables.insert(&edge.right.0);
    }
    for t in edge_tables {
        let _ = write!(s, "{t}={:?};", versions.cores.get(t));
    }
    let d0 = fnv1a(s.as_bytes());

    // Unit 1 — index_underuse.
    s.clear();
    for (t, c, u) in ctx.workload.iter_usage() {
        if u.eq_predicates == 0 && u.group_by == 0 {
            continue;
        }
        let _ = write!(
            s,
            "{t}.{c}:{}:{}|{:?}|",
            u.eq_predicates,
            u.group_by,
            versions.tables.get(t)
        );
        if let Some(data) = &ctx.data {
            match data.table(t) {
                Some(tp) => {
                    let _ = write!(s, "r{}", tp.row_count);
                    if let Some(cp) = tp.column(c) {
                        let _ = write!(s, "{:?}", cp.stats);
                    }
                }
                None => s.push('-'),
            }
        }
        s.push(';');
    }
    let d1 = fnv1a(s.as_bytes());

    // Unit 2 — index_overuse.
    s.clear();
    for idx in &ctx.schema.indexes {
        let used = idx.columns.first().map(|leading| {
            ctx.workload.usage(&idx.table, leading).map(|u| u.reads() > 0).unwrap_or(false)
        });
        let _ = write!(s, "{idx:?}:{used:?};");
    }
    let d2 = fnv1a(s.as_bytes());

    // Unit 3 — clone_table.
    s.clear();
    for t in ctx.schema.tables() {
        let _ = write!(s, "{};", t.name);
    }
    let d3 = fnv1a(s.as_bytes());

    [d0, d1, d2, d3]
}

/// Memo key for one per-table data-analysis unit: a stable id (hash of
/// the lowercased table name) plus an input digest over the full
/// `TableProfile` content — the only input `data::detect_table` reads
/// besides the config (covered by the cache's epoch).
fn data_unit_key(tp: &TableProfile) -> (u64, u64) {
    let id = fnv1a(tp.name.to_ascii_lowercase().as_bytes());
    let digest = fnv1a(format!("{tp:?}").as_bytes());
    (id, digest)
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
        // variant is a Pattern Matching AP. The exact-text cache must keep
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

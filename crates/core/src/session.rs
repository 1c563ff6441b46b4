//! Delta-based warm re-checks: a retained [`CheckSession`] whose
//! [`CheckSession::recheck`] cost is proportional to the **edit set**,
//! not the workload size.
//!
//! A cold [`SqlCheck::check_workload`] re-lexes, re-splits, re-parses,
//! and re-profiles the whole script even when one statement changed; at
//! workload scale the front-end dominates, so a warm re-check through
//! the cold entry point barely beats a cold one. The session keeps the
//! cold check's context — its statements and its unique-text table
//! ([`UniqueTable`](crate::context::UniqueTable)) — and every phase's
//! retained form, and patches them in place:
//!
//! * **edit** — the script is spliced in one pass; each replacement text
//!   is split and goes through the table's one insert path (parsed and
//!   annotated only when new — an edit to a text still live elsewhere in
//!   the script costs a hash lookup), and the replaced text through its
//!   retract path. Downstream statement spans shift by the byte delta in
//!   a single sweep. A text whose last occurrence is edited away is
//!   freed at the end of the re-check, so retained memory tracks the
//!   live script, not every text the session has seen.
//! * **profile** — the workload aggregates are monoids over statements
//!   ([`StatementContribution`]): the edit applies as
//!   `retract(old unique) ⊕ insert(new unique)`. A DDL edit refolds the
//!   schema and workload with the cold build's own fold (still without
//!   touching the front-end).
//! * **patch** — each unique text keeps its canonical intra-query
//!   detections, and the report keeps per-statement slices with their
//!   offsets. The intra-query rules re-run on the edited texts — after a
//!   DDL edit, on every live text, since any of them may read the
//!   changed schema. Only edited statements and the occurrences of texts
//!   whose canonical detections changed are re-emitted; everything else
//!   **moves** — no re-analysis, just a span shift for statements after
//!   the edit point. The lazy ranking and fixes are dropped first, so the
//!   rebuilt report reuses their memory.
//! * **finalize** — the four inter-query rules re-run over the patched
//!   context and the deduped inter/data tail is rebuilt (the data units
//!   are kept from the cold build: the attached database is never
//!   re-profiled), then the registry runs — exactly the part a cold
//!   check pays too.
//!
//! The output is **byte-identical** to a cold [`SqlCheck::check_workload`]
//! on the edited script — property-tested in `tests/session_identity.rs`.
//! Anything the incremental path cannot prove safe (multi-statement
//! replacement texts, parse diagnostics, `DELIMITER` directives, rule
//! panics, an edit that changes the auto-detected dialect) falls back to
//! a full rebuild, which is always correct.
//!
//! The session is also **cost-aware**: when an edit set covers more than
//! ~10% of the workload, the per-edit patching overhead crosses the cold
//! path's streaming cost, so [`CheckSession::recheck`] deliberately
//! rebuilds cold instead — counted as [`CheckSession::cold_reverts`],
//! separately from the involuntary [`CheckSession::fallbacks`].

use crate::context::{
    FrontendOptions, PhaseTimes, SchemaCatalog, StatementContribution, WorkloadProfile,
};
use crate::detect::batch::EngineUnits;
use crate::detect::schedule::guarded;
use crate::detect::{inter, BatchStats};
use crate::report::{Detection, Locus, Span};
use crate::{parse_diagnostics, CheckOutcome, SqlCheck, WorkloadOutcome};
use sqlcheck_parser::diag::{DiagKind, Diagnostic};
use sqlcheck_parser::splitter::split_deduped;
use std::mem;
use std::sync::Arc;
use std::time::Instant;

/// One statement replacement: statement `index`'s text becomes `text`.
///
/// The replacement is expected to contain exactly one statement; an
/// empty or multi-statement replacement is still applied faithfully, but
/// through the full-rebuild fallback because it changes the statement
/// count.
#[derive(Debug, Clone)]
pub struct Edit {
    /// Index of the statement to replace (script order, 0-based).
    pub index: usize,
    /// The replacement SQL text.
    pub text: String,
}

impl Edit {
    /// Convenience constructor.
    pub fn new(index: usize, text: impl Into<String>) -> Self {
        Edit { index, text: text.into() }
    }
}

/// What the session keeps per unique id of the context's table.
#[derive(Default)]
struct Slot {
    /// Canonical **deduped** intra-query detections: statement locus
    /// zeroed, spans statement-relative. Fan-out to occurrence `i`
    /// rewrites the locus and rebases spans — exactly the batch engine's
    /// global dedup ⊕ span attachment, factored per statement (dedup
    /// keys are disjoint across statement loci).
    canon: Arc<Vec<Detection>>,
    /// Lazily computed workload contribution, valid for the current
    /// schema (cleared on DDL refolds — resolution consults the schema).
    contribution: Option<StatementContribution>,
}

/// Everything the session retains besides the toolchain itself.
struct State {
    outcome: WorkloadOutcome,
    /// Slot per unique id, as long as the table's id range.
    slots: Vec<Slot>,
    /// `n + 1` prefix offsets of per-statement slices in the intra
    /// portion of the retained report.
    bounds: Vec<usize>,
    /// Length of the deduped inter+data tail that follows the intra
    /// portion (registry extras follow the tail).
    tail_len: usize,
    /// Per-table data units in profile order, kept from the cold build:
    /// `data::detect_table` reads only its table's profile, and the
    /// attached database is not re-profiled within a session.
    data_units: Vec<Vec<Detection>>,
    /// Something the incremental path cannot patch safely (diagnostics,
    /// rule panics, derivation mismatch): every re-check falls back to a
    /// full rebuild until an edit clears the condition away.
    degraded: bool,
}

/// A retained workload check that re-checks **edits**, not scripts.
///
/// ```
/// use sqlcheck::{Edit, FrontendOptions, SqlCheck};
///
/// let script = "CREATE TABLE t (a INT PRIMARY KEY);\nSELECT a FROM t WHERE a = 1;";
/// let mut session = SqlCheck::new().into_session(script, FrontendOptions::default());
/// let before = session.outcome().outcome.report.detections.len();
/// let after = session
///     .recheck(&[Edit::new(1, "SELECT * FROM t WHERE a = 1")])
///     .outcome
///     .report
///     .detections
///     .len();
/// assert!(after > before, "the edit introduces a Column Wildcard");
/// ```
pub struct CheckSession {
    tool: SqlCheck,
    opts: FrontendOptions,
    script: String,
    state: State,
    rechecks: u64,
    fallbacks: u64,
    cold_reverts: u64,
}

impl SqlCheck {
    /// Check `script` and retain the full outcome as a [`CheckSession`]
    /// for warm [`CheckSession::recheck`]s.
    pub fn into_session(self, script: impl Into<String>, opts: FrontendOptions) -> CheckSession {
        let script = script.into();
        let state = State::init(&self, &script, &opts);
        CheckSession {
            tool: self,
            opts,
            script,
            state,
            rechecks: 0,
            fallbacks: 0,
            cold_reverts: 0,
        }
    }
}

/// Dedup a canonical entry, reusing the allocation when already clean.
fn dedup_arc(v: Arc<Vec<Detection>>) -> Arc<Vec<Detection>> {
    let mut d = (*v).clone();
    crate::detect::dedup(&mut d);
    if d.len() == v.len() {
        v
    } else {
        Arc::new(d)
    }
}

/// The units' detections concatenated in order and deduped: the report
/// portion between the intra slices and the registry extras.
fn dedup_tail<'a>(units: impl IntoIterator<Item = &'a Vec<Detection>>) -> Vec<Detection> {
    let mut tail: Vec<Detection> = units.into_iter().flatten().cloned().collect();
    crate::detect::dedup(&mut tail);
    tail
}

/// Emit `canon` fanned out to occurrence `i` of a statement spanning
/// `stmt_span`: locus rewritten, relative spans rebased — byte-identical
/// to the batch engine's fan-out + span attachment for this statement.
fn emit_fanout(out: &mut Vec<Detection>, canon: &[Detection], i: usize, stmt_span: Span) {
    for d in canon {
        let mut d = d.clone();
        if let Locus::Statement { index } = &mut d.locus {
            *index = i;
        }
        d.span = Some(match d.span {
            Some(rel) => Span::new(stmt_span.start + rel.start, stmt_span.start + rel.end),
            None => stmt_span,
        });
        out.push(d);
    }
}

impl State {
    /// Cold build: run the ordinary pipeline with the engine keeping its
    /// per-unique and per-unit results, then adopt them as the retained
    /// forms (per-unique canonical detections, per-statement slice
    /// bounds, tail units). Nothing is recomputed.
    fn init(tool: &SqlCheck, script: &str, opts: &FrontendOptions) -> State {
        let (base, EngineUnits { intra, inter, data: data_units }) =
            tool.run_workload(script, opts);
        let ctx = &base.outcome.context;
        let n = ctx.statements.len();
        let slots: Vec<Slot> = intra
            .into_iter()
            .map(|canon| Slot { canon: dedup_arc(canon), contribution: None })
            .collect();

        // Conditions the incremental path refuses to patch around:
        // diagnostic attribution and panic replay are cheap to get right
        // by rebuilding cold.
        let mut degraded = !ctx.diagnostics.is_empty()
            || base.stats.rule_failures > 0
            || ctx.uniques.iter().any(|(_, u)| !u.diags.is_empty());

        let mut bounds: Vec<usize> = Vec::with_capacity(n + 1);
        bounds.push(0);
        for s in &ctx.statements {
            bounds.push(bounds.last().unwrap() + slots[s.unique].canon.len());
        }

        let tail_len = dedup_tail(inter.iter().chain(&data_units)).len();

        // The derivation must tile the retained report exactly: intra
        // slices, then the tail, then registry extras. A mismatch means
        // an assumption broke — degrade rather than patch blind.
        if bounds[n] + tail_len > base.outcome.report.detections.len() {
            degraded = true;
        }

        State { outcome: base, slots, bounds, tail_len, data_units, degraded }
    }
}

/// One validated, resolved edit ready to apply.
struct Planned {
    index: usize,
    /// Replacement length minus the replaced statement's length.
    delta: i64,
    /// Statement span within the replacement text (the standalone split
    /// is identical to the in-context split: statement boundaries are
    /// context-free after a terminating `;`).
    rel: Span,
    /// Unique id of the replacement text.
    new: usize,
    /// Unique id of the replaced text.
    old: usize,
}

impl CheckSession {
    /// The most recent outcome (cold build or last re-check).
    pub fn outcome(&self) -> &WorkloadOutcome {
        &self.state.outcome
    }

    /// The current script text (edits applied).
    pub fn script(&self) -> &str {
        &self.script
    }

    /// Total re-checks performed.
    pub fn rechecks(&self) -> u64 {
        self.rechecks
    }

    /// Re-checks that fell back to a full rebuild because the
    /// incremental path could not patch safely (degraded state,
    /// multi-statement replacement, diagnostics, rule panic, a changed
    /// auto-detected dialect). DDL edits patch in place. Deliberate
    /// cost-based cold re-checks are counted separately
    /// ([`CheckSession::cold_reverts`]).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Re-checks where the session **chose** the cold path up front: the
    /// edit set covered more than ~10% of the workload, past the
    /// crossover where per-edit patching overhead (splice, delta
    /// profile, slice surgery) exceeds a straight rebuild. Not a
    /// failure — the outcome is identical either way — so these are not
    /// [`CheckSession::fallbacks`].
    pub fn cold_reverts(&self) -> u64 {
        self.cold_reverts
    }

    /// Apply `edits` (distinct statement indices) and re-check. The
    /// outcome is byte-identical to a cold [`SqlCheck::check_workload`]
    /// of the edited script; cost is proportional to the edit set on the
    /// incremental path.
    ///
    /// # Panics
    ///
    /// On out-of-range or duplicate indices — those are caller bugs, not
    /// workload properties.
    pub fn recheck(&mut self, edits: &[Edit]) -> &WorkloadOutcome {
        self.rechecks += 1;
        if edits.is_empty() {
            return &self.state.outcome;
        }
        let t_total = Instant::now();
        let n = self.state.outcome.outcome.context.statements.len();
        let mut sorted: Vec<&Edit> = edits.iter().collect();
        sorted.sort_by_key(|e| e.index);
        for w in sorted.windows(2) {
            assert!(w[0].index != w[1].index, "duplicate edit index {}", w[0].index);
        }
        let last = sorted.last().unwrap();
        assert!(last.index < n, "edit index {} out of range ({n} statements)", last.index);

        // Cost-based self-selection: past ~10% dirty statements the
        // incremental path's per-edit overhead crosses the cold path's
        // streaming cost (measured in BENCH_e2e.json) — rebuild
        // deliberately instead of patching, counted as a cold revert.
        let revert_cold = !self.state.degraded && edits.len() * 10 > n;
        let plan = if self.state.degraded || revert_cold { None } else { self.plan(&sorted) };
        self.splice(&sorted);
        let patched = plan.is_some_and(|plan| {
            // With auto-detection on, the edited script may guess another
            // dialect, under which every statement splits and parses anew.
            self.opts.resolve_dialect(&self.script).0 == self.state.outcome.outcome.context.dialect
                && self.apply(plan, t_total).is_some()
        });
        if !patched {
            // A rebuild from the spliced script is always correct.
            *if revert_cold { &mut self.cold_reverts } else { &mut self.fallbacks } += 1;
            self.state = State::init(&self.tool, &self.script, &self.opts);
            self.state.outcome.stats.total_micros = t_total.elapsed().as_micros();
        }
        &self.state.outcome
    }

    /// Validate the edit set for the incremental path and insert each
    /// replacement into the table: it must split to exactly one
    /// statement and parse without diagnostics. `None` → fallback.
    fn plan(&mut self, sorted: &[&Edit]) -> Option<Vec<Planned>> {
        let mut plan: Vec<Planned> = Vec::with_capacity(sorted.len());
        let state = &mut self.state;
        let ctx = &mut state.outcome.outcome.context;
        let dialect = ctx.dialect;
        let mut times = PhaseTimes::default();
        for e in sorted {
            let split = split_deduped(&e.text, dialect);
            if split.uniques.len() != 1
                || split.occurrences.len() != 1
                || split.saw_delimiter_directive
            {
                return None;
            }
            let u = &split.uniques[0];
            let new = ctx.uniques.insert(u, &e.text, dialect, &self.opts.limits, &mut times);
            if !ctx.uniques[new].diags.is_empty() {
                return None;
            }
            if new >= state.slots.len() {
                state.slots.resize_with(new + 1, Slot::default);
            }
            let span = ctx.statements[e.index].span;
            plan.push(Planned {
                index: e.index,
                delta: e.text.len() as i64 - (span.end - span.start) as i64,
                rel: u.span,
                new,
                old: ctx.statements[e.index].unique,
            });
        }
        Some(plan)
    }

    /// Splice every replacement into the script in one pass (spans are
    /// the **pre-edit** statement spans; edits are ascending).
    fn splice(&mut self, sorted: &[&Edit]) {
        let stmts = &self.state.outcome.outcome.context.statements;
        let extra: usize = sorted.iter().map(|e| e.text.len()).sum();
        let mut out = String::with_capacity(self.script.len() + extra);
        let mut pos = 0usize;
        for e in sorted {
            let span = stmts[e.index].span;
            out.push_str(&self.script[pos..span.start]);
            out.push_str(&e.text);
            pos = span.end;
        }
        out.push_str(&self.script[pos..]);
        self.script = out;
    }

    /// The incremental path. `None` → the caller falls back to a full
    /// rebuild (the script is already spliced, so the fallback is always
    /// correct regardless of how far this got).
    fn apply(&mut self, plan: Vec<Planned>, t_total: Instant) -> Option<()> {
        let state = &mut self.state;
        let tool = &self.tool;
        let use_context = !tool.detector.cfg.intra_only;
        let n = state.outcome.outcome.context.statements.len();

        // ---- edit: statement records, spans, table counts ------------
        let t_edit = Instant::now();
        let mut schema_dirty = false;
        {
            let ctx = &mut state.outcome.outcome.context;
            let mut cum: i64 = 0;
            let mut ei = 0usize;
            for (i, s) in ctx.statements.iter_mut().enumerate() {
                if ei < plan.len() && plan[ei].index == i {
                    let p = &plan[ei];
                    let u = &ctx.uniques[p.new];
                    schema_dirty |= SchemaCatalog::is_schema_stmt(&s.parsed.stmt)
                        || SchemaCatalog::is_schema_stmt(&u.parsed.stmt);
                    let region_start = (s.span.start as i64 + cum) as usize;
                    s.parsed = u.parsed.clone();
                    s.ann = u.ann.clone();
                    s.unique = p.new;
                    s.diags = u.diags.clone();
                    s.span = Span::new(region_start + p.rel.start, region_start + p.rel.end);
                    cum += p.delta;
                    ei += 1;
                } else if cum != 0 {
                    s.span = Span::new(
                        (s.span.start as i64 + cum) as usize,
                        (s.span.end as i64 + cum) as usize,
                    );
                }
            }
            for p in &plan {
                ctx.uniques.retract(p.old);
                ctx.uniques.add_occurrence(p.new);
            }
        }
        let warm_edit_micros = t_edit.elapsed().as_micros();

        // ---- profile: workload delta or DDL refold -------------------
        let t_profile = Instant::now();
        {
            let ctx = &mut state.outcome.outcome.context;
            if schema_dirty {
                // The cold build's fold, over the edited statements and
                // the live texts (which also clears any zero-usage
                // entries retired texts left behind). Contributions
                // resolve against the schema — recompute them lazily
                // under the new one.
                ctx.refold(tool.database.as_deref());
                for s in &mut state.slots {
                    s.contribution = None;
                }
            } else {
                // retract(old) ⊕ insert(new), one occurrence per edit.
                // Retiring a text may leave all-zero usage entries behind
                // (exact removal would need global refcounts over every
                // statement's touches); every workload consumer is
                // insensitive to them — pinned by the delta property
                // suite.
                for p in &plan {
                    for (id, insert) in [(p.old, false), (p.new, true)] {
                        let c = state.slots[id].contribution.get_or_insert_with(|| {
                            let u = &ctx.uniques[id];
                            WorkloadProfile::contribution(&u.parsed.stmt, &u.ann, &ctx.schema)
                        });
                        if insert {
                            ctx.workload.add_contribution(c, 1);
                        } else {
                            ctx.workload.sub_contribution(c, 1);
                        }
                    }
                }
            }
        }
        let ctx_ref = &state.outcome.outcome.context;
        let warm_profile_micros = t_profile.elapsed().as_micros();

        // ---- patch (a): dirty canonical slices -----------------------
        let t_patch = Instant::now();
        // Texts needing a canonical refresh: the edit set's, each run at
        // an edited statement (any occurrence gives the same canonical
        // detections), plus after a DDL edit every live text — their
        // rules may read the changed schema.
        let mut edited = vec![false; state.slots.len()];
        let mut need: Vec<(usize, usize)> = Vec::new();
        for p in &plan {
            if !edited[p.new] {
                edited[p.new] = true;
                need.push((p.new, p.index));
            }
        }
        if schema_dirty {
            let first = ctx_ref.first_occurrences();
            for (id, u) in ctx_ref.uniques.iter() {
                if u.count > 0 && !edited[id] {
                    need.push((id, first[id]));
                }
            }
        }
        let reps: Vec<usize> = need.iter().map(|&(_, rep)| rep).collect();
        let mut failures: Vec<Diagnostic> = Vec::new();
        let refreshed = tool.detector.intra_results(ctx_ref, &reps, &mut failures);
        if !failures.is_empty() {
            // A panicking unit needs the cold path's diagnostic replay —
            // rebuild.
            return None;
        }
        // Every occurrence of a content-changed text re-emits, edited or
        // not (shared texts, texts a DDL edit changed).
        let mut changed = vec![false; state.slots.len()];
        for (&(id, _), canon) in need.iter().zip(refreshed) {
            let canon = dedup_arc(canon);
            let slot = &mut state.slots[id];
            changed[id] = *canon != *slot.canon;
            slot.canon = canon;
        }
        let mut warm_patch_micros = t_patch.elapsed().as_micros();

        // ---- finalize (a): the inter/data tail ------------------------
        // Every inter-query rule re-runs; a panic needs the cold path's
        // diagnostic replay — rebuild.
        let t_finalize = Instant::now();
        let inter_units_run = if use_context { inter::RULES.len() } else { 0 };
        let inter = (0..inter_units_run)
            .map(|rule| guarded(|| inter::detect_unit(rule, ctx_ref, &tool.detector.cfg)).ok())
            .collect::<Option<Vec<_>>>()?;
        let tail = dedup_tail(inter.iter().chain(&state.data_units));
        let warm_finalize_a = t_finalize.elapsed().as_micros();

        // ---- patch (b): one-pass report rebuild ----------------------
        // Dirty statements — edited, or of a changed text — re-fan-out
        // from their text's canonical slice; clean ones MOVE, spans
        // shifted by the edits before them. The tail is replaced;
        // registry extras are recomputed below.
        let t_patch2 = Instant::now();
        let mut warm_dirty_statements = 0;
        {
            // Ranking and fixes are lazy on [`CheckOutcome`]; dropping the
            // memo keeps the re-check proportional to the edit set (fix
            // synthesis is O(detections) with context-wide reads — e.g.
            // impacted-query lists — so it cannot be patched in place).
            // Dropping it before the report is rebuilt lets the new report
            // reuse its memory instead of growing the heap.
            state.outcome.outcome.invalidate_derived();
            let CheckOutcome { context, report, .. } = &mut state.outcome.outcome;
            let old = mem::take(&mut report.detections);
            let mut out: Vec<Detection> = Vec::with_capacity(old.len() + 16);
            let mut it = old.into_iter();
            let mut new_bounds: Vec<usize> = Vec::with_capacity(n + 1);
            new_bounds.push(0);
            let (mut cum, mut ei) = (0i64, 0);
            for (i, s) in context.statements.iter().enumerate() {
                let old_cnt = state.bounds[i + 1] - state.bounds[i];
                let edited = ei < plan.len() && plan[ei].index == i;
                if edited || changed[s.unique] {
                    for _ in 0..old_cnt {
                        it.next()?;
                    }
                    emit_fanout(&mut out, &state.slots[s.unique].canon, i, s.span);
                    warm_dirty_statements += 1;
                } else {
                    for _ in 0..old_cnt {
                        let mut det = it.next()?;
                        if let Some(sp) = det.span.filter(|_| cum != 0) {
                            let shift = |x: usize| (x as i64 + cum) as usize;
                            det.span = Some(Span::new(shift(sp.start), shift(sp.end)));
                        }
                        out.push(det);
                    }
                }
                if edited {
                    cum += plan[ei].delta;
                    ei += 1;
                }
                new_bounds.push(out.len());
            }
            state.bounds = new_bounds;
            for _ in 0..state.tail_len {
                it.next()?;
            }
            state.tail_len = tail.len();
            out.extend(tail);
            // Whatever remains is the previous registry extras —
            // dropped; the registry re-runs below.
            report.detections = out;
        }
        warm_patch_micros += t_patch2.elapsed().as_micros();

        // ---- finalize (b): registry + derived invalidation -----------
        let t_finalize2 = Instant::now();
        // A non-degraded session has no script, parse, or unit
        // diagnostics by construction (init checked, plan re-checks
        // every replacement), so the base diagnostic set is empty
        // without an O(statements) sweep; debug builds verify.
        debug_assert!(parse_diagnostics(&state.outcome.outcome.context).is_empty());
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        let mut extra = tool.run_registry(&state.outcome.outcome.context, &mut diagnostics);
        let registry_failures = diagnostics.len();
        crate::detect::attach_default_spans(&mut extra, &state.outcome.outcome.context);
        state.outcome.outcome.report.detections.extend(extra);
        state.outcome.outcome.diagnostics = diagnostics;
        let warm_finalize_micros = warm_finalize_a + t_finalize2.elapsed().as_micros();

        // ---- free retired texts --------------------------------------
        // Only now: every count update has landed (a batch can retire and
        // revive one text) and the profile has retracted every retired
        // contribution.
        let uniques = &mut state.outcome.outcome.context.uniques;
        for p in &plan {
            if uniques.release(p.old) {
                state.slots[p.old] = Slot::default();
            }
        }

        // ---- stats ---------------------------------------------------
        let mut stats = BatchStats {
            statements: n,
            unique_templates: uniques.templates(),
            unique_texts: uniques.len(),
            cache_hits: n - uniques.len(),
            warm_edit_micros,
            warm_profile_micros,
            warm_patch_micros,
            warm_finalize_micros,
            warm_dirty_statements,
            inter_units_recomputed: inter_units_run,
            data_units_reused: state.data_units.len(),
            rule_failures: registry_failures,
            total_micros: t_total.elapsed().as_micros(),
            ..BatchStats::default()
        };
        stats.diag_counts[DiagKind::RuleFailed.index()] = registry_failures;
        state.outcome.stats = stats;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fresh-text apply/revert batches must not accumulate slots: a text
    /// whose last occurrence is edited away is freed and its id reused.
    #[test]
    fn retired_slots_are_freed_and_reused() {
        let text = |i: usize, b: usize| format!("SELECT a FROM t WHERE id = {i} AND b = {b}");
        let script: String = (0..100).map(|i| text(i, 0) + ";\n").collect();
        let mut session = SqlCheck::new().into_session(script, FrontendOptions::default());
        let per_batch = 5;
        for b in 1..=200 {
            // Odd batches write fresh texts, even ones restore the originals.
            let tag = if b % 2 == 1 { b } else { 0 };
            let edits: Vec<Edit> = (0..per_batch)
                .map(|j| ((b - 1) / 2 * 7 + j * 13) % 100)
                .map(|i| Edit::new(i, text(i, tag)))
                .collect();
            session.recheck(&edits);
            let uniques = &session.outcome().outcome.context.uniques;
            let (slots, live) = (uniques.id_bound(), session.outcome().stats.unique_texts);
            assert!(slots <= live + per_batch, "batch {b}: {slots} slots for {live} live texts");
        }
        assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0));
    }
}

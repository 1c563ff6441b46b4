//! Delta-based warm re-checks: a retained [`CheckSession`] whose
//! [`CheckSession::recheck`] cost is proportional to the **edit set**,
//! not the workload size.
//!
//! A cold [`SqlCheck::check_workload`] re-lexes, re-splits, re-parses,
//! and re-profiles the whole script even when one statement changed; at
//! workload scale the front-end dominates, so a warm re-check through
//! the cold entry point barely beats a cold one. The session keeps every
//! phase's retained form and patches it in place:
//!
//! * **edit** — the script is spliced in one pass; only the replacement
//!   texts are re-split/parsed/annotated (new unique texts only — an
//!   edit that revives a known text costs a hash lookup). Downstream
//!   statement spans shift by the byte delta in a single sweep.
//! * **profile** — the workload aggregates are monoids over statements
//!   ([`StatementContribution`]): the edit applies as
//!   `retract(old unique) ⊕ insert(new unique)`. A DDL edit refolds the
//!   schema and workload (still without touching the front-end) and
//!   lets the column-granular cache tiers decide what else went stale.
//! * **patch** — per-statement detection slices are retained with their
//!   offsets; only dirty statements' slices are recomputed (from the
//!   [`crate::IncrementalCache`] or fresh), everything else **moves** — no
//!   re-analysis, just a span shift for statements after the edit point.
//! * **finalize** — the inter-query/data tail replays from the unit
//!   memo (digest-keyed, so only genuinely-dirty units run), then the
//!   registry/rank/fix tail runs fresh — exactly the part a cold check
//!   pays too.
//!
//! The output is **byte-identical** to a cold [`SqlCheck::check_workload`]
//! on the edited script, with or without a cache —
//! property-tested in `tests/session_identity.rs`. Anything the
//! incremental path cannot prove safe (multi-statement replacement
//! texts, parse diagnostics, `DELIMITER` directives, rule panics, a DDL
//! edit without a cache) falls back to a full rebuild, which is always
//! correct.
//!
//! The session is also **cost-aware**: when an edit set covers more than
//! ~10% of the workload, the per-edit patching overhead crosses the cold
//! path's streaming cost, so [`CheckSession::recheck`] deliberately
//! rebuilds cold instead — counted as [`CheckSession::cold_reverts`],
//! separately from the involuntary [`CheckSession::fallbacks`].

use crate::context::{
    FrontendOptions, SchemaCatalog, SchemaVersions, StatementContribution, WorkloadProfile,
};
use crate::detect::batch::{inter_unit_digests, EngineUnits, TailUnit};
use crate::detect::BatchStats;
use crate::hashutil::Prehashed;
use crate::report::{Detection, Locus, Span};
use crate::{parse_diagnostics, CheckOutcome, SqlCheck, WorkloadOutcome};
use sqlcheck_parser::annotate::{annotate, Annotations};
use sqlcheck_parser::ast::{ParsedStatement, Statement};
use sqlcheck_parser::diag::{DiagKind, Diagnostic};
use sqlcheck_parser::parser::parse_raw_limited;
use sqlcheck_parser::splitter::split_deduped;
use std::collections::HashMap;
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

/// One retained unique statement text.
struct Slot {
    hash: u128,
    fingerprint: u64,
    parsed: Arc<ParsedStatement>,
    ann: Arc<Annotations>,
    diags: Arc<[Diagnostic]>,
    /// Live occurrence count (0 = retired, revivable).
    count: usize,
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
    slots: Vec<Slot>,
    slot_of: HashMap<u128, usize, Prehashed>,
    /// Slot per statement, script order.
    order: Vec<usize>,
    /// `n + 1` prefix offsets of per-statement slices in the intra
    /// portion of the retained report.
    bounds: Vec<usize>,
    /// Length of the deduped inter+data tail that follows the intra
    /// portion (registry extras follow the tail).
    tail_len: usize,
    inter_units: Vec<Arc<Vec<Detection>>>,
    inter_digests: [u64; 4],
    /// Per-table data units in profile order. Never dirty within a
    /// session: the attached database is not re-profiled, so every data
    /// digest is constant.
    data_units: Vec<Arc<Vec<Detection>>>,
    versions: SchemaVersions,
    live_uniques: usize,
    /// Live template fingerprints with refcounts, so `unique_templates`
    /// stays O(edit) to maintain.
    template_counts: HashMap<u64, usize>,
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
/// let mut session = SqlCheck::new()
///     .with_cache(1024)
///     .into_session(script, FrontendOptions::default());
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
    /// for warm [`CheckSession::recheck`]s. An attached
    /// [`SqlCheck::with_cache`] makes re-checks cheapest (intra results
    /// and inter/data units replay from it, and DDL edits stay
    /// incremental), but the session is correct without one.
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

/// Does folding this statement into [`SchemaCatalog`] do anything?
fn is_schema_stmt(s: &Statement) -> bool {
    matches!(
        s,
        Statement::CreateTable(_)
            | Statement::CreateIndex(_)
            | Statement::AlterTable(_)
            | Statement::Drop(_)
    )
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
    /// forms (slots, per-statement slice bounds, tail units). Nothing is
    /// recomputed or read back from the cache.
    fn init(tool: &SqlCheck, script: &str, opts: &FrontendOptions) -> State {
        let (base, units) = tool.run_workload(script, opts, true);
        let EngineUnits {
            groups,
            group_by_hash: slot_of,
            group_of: order,
            intra,
            inter: inter_units,
            inter_digests,
            data: data_units,
            versions,
        } = units.expect("the engine keeps its units when asked");
        let ctx = &base.outcome.context;
        let n = ctx.statements.len();

        let mut template_counts: HashMap<u64, usize> = HashMap::new();
        let slots: Vec<Slot> = groups
            .iter()
            .zip(intra)
            .map(|(g, canon)| {
                let s = &ctx.statements[g.rep];
                *template_counts.entry(s.template_hash).or_default() += g.count;
                Slot {
                    hash: s.text_hash,
                    fingerprint: s.template_hash,
                    parsed: s.parsed.clone(),
                    ann: s.ann.clone(),
                    diags: s.diags.clone(),
                    count: g.count,
                    canon: dedup_arc(canon),
                    contribution: None,
                }
            })
            .collect();

        // Conditions the incremental path refuses to patch around:
        // diagnostic attribution and panic replay are cheap to get right
        // by rebuilding cold.
        let mut degraded = !ctx.diagnostics.is_empty()
            || base.stats.rule_failures > 0
            || slots.iter().any(|s| !s.diags.is_empty());

        let mut bounds: Vec<usize> = Vec::with_capacity(n + 1);
        bounds.push(0);
        for &slot in &order {
            bounds.push(bounds.last().unwrap() + slots[slot].canon.len());
        }

        let mut tail: Vec<Detection> = Vec::new();
        for u in inter_units.iter().chain(&data_units) {
            tail.extend(u.iter().cloned());
        }
        crate::detect::dedup(&mut tail);
        let tail_len = tail.len();

        // The derivation must tile the retained report exactly: intra
        // slices, then the tail, then registry extras. A mismatch means
        // an assumption broke — degrade rather than patch blind.
        if bounds[n] + tail_len > base.outcome.report.detections.len() {
            degraded = true;
        }

        let live_uniques = slots.len();
        State {
            outcome: base,
            slots,
            slot_of,
            order,
            bounds,
            tail_len,
            inter_units,
            inter_digests,
            data_units,
            versions,
            live_uniques,
            template_counts,
            degraded,
        }
    }
}

/// One validated, resolved edit ready to apply.
struct Planned {
    index: usize,
    text_len: usize,
    /// Statement span within the replacement text (the standalone split
    /// is identical to the in-context split: statement boundaries are
    /// context-free after a terminating `;`).
    rel: Span,
    new_slot: usize,
    old_slot: usize,
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
    /// multi-statement replacement, diagnostics, rule panic). Deliberate
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
        let n = self.state.order.len();
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
        match plan {
            Some(plan) => {
                if self.apply(plan, t_total).is_none() {
                    self.full_rebuild(t_total);
                }
            }
            None if revert_cold => {
                self.cold_reverts += 1;
                self.rebuild(t_total);
            }
            None => self.full_rebuild(t_total),
        }
        &self.state.outcome
    }

    /// Validate the edit set for the incremental path: each replacement
    /// splits to exactly one statement, parses without diagnostics, and
    /// resolves to a (possibly fresh) slot. `None` → fallback.
    fn plan(&mut self, sorted: &[&Edit]) -> Option<Vec<Planned>> {
        let mut plan: Vec<Planned> = Vec::with_capacity(sorted.len());
        let dialect = self.state.outcome.outcome.context.dialect;
        for e in sorted {
            let split = split_deduped(&e.text, dialect);
            if split.uniques.len() != 1
                || split.occurrences.len() != 1
                || split.saw_delimiter_directive
            {
                return None;
            }
            let u = &split.uniques[0];
            let new_slot = match self.state.slot_of.get(&u.content_hash) {
                Some(&slot) => slot,
                None => {
                    let raw = u.materialize(&e.text, dialect);
                    let (parsed, diags) = parse_raw_limited(raw, &self.opts.limits, dialect);
                    if !diags.is_empty() {
                        return None;
                    }
                    let ann = annotate(&parsed.stmt, &parsed.arena);
                    let slot = self.state.slots.len();
                    self.state.slot_of.insert(u.content_hash, slot);
                    self.state.slots.push(Slot {
                        hash: u.content_hash,
                        fingerprint: u.fingerprint,
                        parsed: Arc::new(parsed),
                        ann: Arc::new(ann),
                        diags: Vec::new().into(),
                        count: 0,
                        canon: Arc::new(Vec::new()),
                        contribution: None,
                    });
                    slot
                }
            };
            plan.push(Planned {
                index: e.index,
                text_len: e.text.len(),
                rel: u.span,
                new_slot,
                old_slot: self.state.order[e.index],
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
        let cache = tool.cache.as_deref();
        let n = state.order.len();
        let counters_before = cache.map(|c| c.counters());

        // ---- edit: statement records, spans, slot bookkeeping --------
        let t_edit = Instant::now();
        let mut dirty = vec![false; n];
        let mut shift: Vec<i64> = vec![0; n];
        let mut schema_dirty = false;
        {
            let ctx = &mut state.outcome.outcome.context;
            let mut cum: i64 = 0;
            let mut ei = 0usize;
            for i in 0..n {
                let s = &mut ctx.statements[i];
                if ei < plan.len() && plan[ei].index == i {
                    let p = &plan[ei];
                    let slot = &state.slots[p.new_slot];
                    schema_dirty |=
                        is_schema_stmt(&s.parsed.stmt) || is_schema_stmt(&slot.parsed.stmt);
                    let region_start = (s.span.start as i64 + cum) as usize;
                    let old_len = (s.span.end - s.span.start) as i64;
                    s.parsed = slot.parsed.clone();
                    s.ann = slot.ann.clone();
                    s.text_hash = slot.hash;
                    s.template_hash = slot.fingerprint;
                    s.diags = slot.diags.clone();
                    s.span = Span::new(region_start + p.rel.start, region_start + p.rel.end);
                    dirty[i] = true;
                    cum += p.text_len as i64 - old_len;
                    ei += 1;
                } else if cum != 0 {
                    s.span = Span::new(
                        (s.span.start as i64 + cum) as usize,
                        (s.span.end as i64 + cum) as usize,
                    );
                    shift[i] = cum;
                }
            }
        }
        for p in &plan {
            let old = &mut state.slots[p.old_slot];
            old.count -= 1;
            if old.count == 0 {
                state.live_uniques -= 1;
            }
            let of = old.fingerprint;
            if let Some(c) = state.template_counts.get_mut(&of) {
                *c -= 1;
                if *c == 0 {
                    state.template_counts.remove(&of);
                }
            }
            let new = &mut state.slots[p.new_slot];
            if new.count == 0 {
                state.live_uniques += 1;
            }
            new.count += 1;
            *state.template_counts.entry(new.fingerprint).or_default() += 1;
            state.order[p.index] = p.new_slot;
        }
        let warm_edit_micros = t_edit.elapsed().as_micros();

        // ---- profile: workload delta or DDL refold -------------------
        let t_profile = Instant::now();
        if schema_dirty && cache.is_none() {
            // Column-granular invalidation of retained detections is the
            // cache's feature; without one a DDL edit rebuilds cold.
            return None;
        }
        {
            let ctx = &mut state.outcome.outcome.context;
            if schema_dirty {
                // Refold the schema exactly as a cold build would:
                // statements in order, then the attached database's
                // tables merged in for anything the DDL no longer
                // declares.
                let mut schema =
                    SchemaCatalog::from_statements(ctx.statements.iter().map(|a| &a.parsed.stmt));
                if let Some(db) = &tool.database {
                    schema.add_missing_tables(db);
                }
                ctx.schema = schema;
                // Contributions resolve against the schema — recompute
                // lazily under the new one, and refold the profile from
                // live uniques (which also clears any zero-usage entries
                // retired texts left behind).
                for s in &mut state.slots {
                    s.contribution = None;
                }
                ctx.workload = WorkloadProfile::build_weighted(
                    state
                        .slots
                        .iter()
                        .filter(|s| s.count > 0)
                        .map(|s| (&s.parsed.stmt, s.ann.as_ref(), s.count)),
                    &ctx.schema,
                );
                state.versions = ctx.schema.versions();
            } else {
                // retract(old) ⊕ insert(new), one occurrence per edit.
                // Retiring a text may leave all-zero usage entries behind
                // (exact removal would need global refcounts over every
                // statement's touches); every workload consumer and unit
                // digest is insensitive to them — pinned by the delta
                // property suite.
                let schema = &ctx.schema;
                let workload = &mut ctx.workload;
                for p in &plan {
                    for (slot, insert) in [(p.old_slot, false), (p.new_slot, true)] {
                        let s = &mut state.slots[slot];
                        if s.contribution.is_none() {
                            s.contribution = Some(WorkloadProfile::contribution(
                                &s.parsed.stmt,
                                &s.ann,
                                schema,
                            ));
                        }
                        let c = s.contribution.as_ref().unwrap();
                        if insert {
                            workload.add_contribution(c, 1);
                        } else {
                            workload.sub_contribution(c, 1);
                        }
                    }
                }
            }
        }
        let ctx_ref = &state.outcome.outcome.context;
        if let Some(c) = cache {
            c.ensure_epoch(tool.detector.config_epoch(ctx_ref), &state.versions);
        }
        let warm_profile_micros = t_profile.elapsed().as_micros();

        // ---- patch (a): dirty canonical slices -----------------------
        let t_patch = Instant::now();
        // Slots needing a canonical refresh: fresh/revived slots from the
        // edit set, plus — after a DDL edit — every live slot, so the
        // column-granular epoch sweep decides what actually re-runs.
        let mut seen = vec![false; state.slots.len()];
        let mut need: Vec<usize> = Vec::new();
        for p in &plan {
            if !seen[p.new_slot] {
                seen[p.new_slot] = true;
                need.push(p.new_slot);
            }
        }
        if schema_dirty {
            for (si, s) in state.slots.iter().enumerate() {
                if s.count > 0 && !seen[si] {
                    seen[si] = true;
                    need.push(si);
                }
            }
        }
        // Representative (first) occurrence per needed slot.
        let mut rep_of = vec![usize::MAX; state.slots.len()];
        for (i, &slot) in state.order.iter().enumerate() {
            if seen[slot] && rep_of[slot] == usize::MAX {
                rep_of[slot] = i;
            }
        }
        let reps: Vec<usize> = need.iter().map(|&si| rep_of[si]).collect();
        let mut failures: Vec<Diagnostic> = Vec::new();
        let refreshed = tool.detector.intra_results(ctx_ref, cache, &reps, &mut failures);
        if !failures.is_empty() {
            // A panicking unit needs the cold path's diagnostic replay —
            // rebuild.
            return None;
        }
        // Every occurrence of a content-changed slot re-emits. Edited
        // indices are already dirty; this catches the other occurrences
        // (shared texts, DDL-invalidated slots).
        let mut changed = vec![false; state.slots.len()];
        let mut any_changed = false;
        for (&si, canon) in need.iter().zip(refreshed) {
            let canon = dedup_arc(canon);
            if *canon != *state.slots[si].canon {
                changed[si] = true;
                any_changed = true;
            }
            state.slots[si].canon = canon;
        }
        if any_changed {
            for (i, &slot) in state.order.iter().enumerate() {
                if changed[slot] {
                    dirty[i] = true;
                }
            }
        }
        let mut warm_patch_micros = t_patch.elapsed().as_micros();

        // ---- finalize (a): tail units off the memo -------------------
        let t_finalize = Instant::now();
        let mut inter_units_changed = 0usize;
        if use_context {
            let nd = inter_unit_digests(ctx_ref, &state.versions);
            for (rule, &digest) in nd.iter().enumerate() {
                if digest == state.inter_digests[rule] {
                    continue;
                }
                inter_units_changed += 1;
                state.inter_units[rule] = tool
                    .detector
                    .resolve_unit(ctx_ref, cache, TailUnit::Inter { rule, digest })
                    .ok()?;
                state.inter_digests[rule] = digest;
            }
        }
        let data_units_reused = state.data_units.len();
        let warm_finalize_a = t_finalize.elapsed().as_micros();

        // ---- patch (b): one-pass report rebuild ----------------------
        // Clean statements MOVE (plus a span shift after the edit
        // point); dirty ones re-fan-out from their slot's canonical
        // slice. The tail moves unless a unit changed; registry extras
        // are recomputed below either way.
        let t_patch2 = Instant::now();
        let warm_dirty_statements = dirty.iter().filter(|&&d| d).count();
        {
            let CheckOutcome { context, report, .. } = &mut state.outcome.outcome;
            let old = mem::take(&mut report.detections);
            let mut out: Vec<Detection> = Vec::with_capacity(old.len() + 16);
            let mut it = old.into_iter();
            let mut new_bounds: Vec<usize> = Vec::with_capacity(n + 1);
            new_bounds.push(0);
            for i in 0..n {
                let old_cnt = state.bounds[i + 1] - state.bounds[i];
                if dirty[i] {
                    for _ in 0..old_cnt {
                        it.next()?;
                    }
                    emit_fanout(
                        &mut out,
                        &state.slots[state.order[i]].canon,
                        i,
                        context.statements[i].span,
                    );
                } else if shift[i] == 0 {
                    for _ in 0..old_cnt {
                        out.push(it.next()?);
                    }
                } else {
                    let d = shift[i];
                    for _ in 0..old_cnt {
                        let mut det = it.next()?;
                        if let Some(sp) = det.span {
                            det.span = Some(Span::new(
                                (sp.start as i64 + d) as usize,
                                (sp.end as i64 + d) as usize,
                            ));
                        }
                        out.push(det);
                    }
                }
                new_bounds.push(out.len());
            }
            if inter_units_changed > 0 {
                for _ in 0..state.tail_len {
                    it.next()?;
                }
                let mut tail: Vec<Detection> = Vec::new();
                for u in state.inter_units.iter().chain(&state.data_units) {
                    tail.extend(u.iter().cloned());
                }
                crate::detect::dedup(&mut tail);
                state.tail_len = tail.len();
                out.extend(tail);
            } else {
                for _ in 0..state.tail_len {
                    out.push(it.next()?);
                }
            }
            // Whatever remains is the previous registry extras —
            // dropped; the registry re-runs below.
            report.detections = out;
            state.bounds = new_bounds;
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
        // Ranking and fixes are lazy on [`CheckOutcome`]; dropping the
        // memo here keeps the re-check proportional to the edit set (fix
        // synthesis is O(detections) with context-wide reads — e.g.
        // impacted-query lists — so it cannot be patched in place).
        state.outcome.outcome.invalidate_derived();
        state.outcome.outcome.diagnostics = diagnostics;
        let warm_finalize_micros = warm_finalize_a + t_finalize2.elapsed().as_micros();

        // ---- stats ---------------------------------------------------
        let mut stats = BatchStats {
            statements: n,
            unique_templates: state.template_counts.len(),
            unique_texts: state.live_uniques,
            cache_hits: n - state.live_uniques,
            warm_edit_micros,
            warm_profile_micros,
            warm_patch_micros,
            warm_finalize_micros,
            warm_dirty_statements,
            data_units_reused,
            rule_failures: registry_failures,
            total_micros: t_total.elapsed().as_micros(),
            ..BatchStats::default()
        };
        stats.diag_counts[DiagKind::RuleFailed.index()] = registry_failures;
        // An inter unit whose digest is unchanged is reused without a
        // memo lookup; a changed one is reused when the memo holds it.
        let mut memo_reused = 0usize;
        if let (Some(before), Some(c)) = (counters_before, cache) {
            let after = c.counters();
            stats.incremental_hits = (after.hits - before.hits) as usize;
            stats.incremental_misses = (after.misses - before.misses) as usize;
            stats.incremental_evictions = (after.evictions - before.evictions) as usize;
            stats.table_evictions = (after.table_evictions - before.table_evictions) as usize;
            stats.column_evictions = (after.column_evictions - before.column_evictions) as usize;
            memo_reused = (after.inter_units_reused - before.inter_units_reused) as usize;
        }
        stats.inter_units_reused = state.inter_units.len() - inter_units_changed + memo_reused;
        stats.inter_units_recomputed = inter_units_changed - memo_reused;
        state.outcome.stats = stats;
        Some(())
    }

    /// Rebuild everything from the (already spliced) script — the
    /// unconditional-correctness path.
    fn full_rebuild(&mut self, t_total: Instant) {
        self.fallbacks += 1;
        self.rebuild(t_total);
    }

    /// The rebuild itself, shared by involuntary fallbacks and
    /// deliberate cost-based cold reverts.
    fn rebuild(&mut self, t_total: Instant) {
        self.state = State::init(&self.tool, &self.script, &self.opts);
        self.state.outcome.stats.total_micros = t_total.elapsed().as_micros();
    }
}

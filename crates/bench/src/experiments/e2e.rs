//! **End-to-end front-end experiment** — the parse-once pipeline, the
//! content-hash-keyed incremental cache, and the delta-based warm
//! re-check ([`CheckSession`]).
//!
//! Two timed configurations per workload shape:
//!
//! * `pipeline` — the parse-once front-end: split + dedup first,
//!   parse/annotate each unique text once, followed by batch detection;
//! * `warm` — a [`CheckSession`] retained from a cold check of the
//!   workload, re-checking an **edit set** (a fraction of statements
//!   replaced) through [`CheckSession::recheck`]: the script splices,
//!   the workload profile applies the edit as a delta, only dirty
//!   statements re-analyse, and the four inter-query rules re-run over
//!   the patched context. Cost is proportional to the edit set, not the
//!   workload.
//!
//! Every configuration is verified to produce byte-identical output
//! before any timing is reported: `pipeline` vs batch detection over the
//! per-occurrence reference context ([`reference::context`]) on the
//! original script, and the warm session vs a cold full check of the
//! edited script (detections **and** ranking).

use super::throughput::script_for_shape;
use crate::alloc_count::{alloc_count, allocs_per_stmt};
use sqlcheck::detect::reference;
use sqlcheck::{
    BatchStats, CheckSession, ContextBuilder, Detector, Edit, FrontendOptions, FrontendStats,
    IncrementalCache, Report, SqlCheck, WorkloadOutcome,
};
use std::time::Instant;

/// One measured workload configuration.
#[derive(Debug, Clone)]
pub struct E2eRow {
    /// Workload shape: `"plain"`, `"trigger"`, or `"skewed"`.
    pub workload: String,
    /// Statements in the workload.
    pub statements: usize,
    /// Unique templates the workload draws from.
    pub templates: usize,
    /// Requested edit rate in permille (‰) of statements.
    pub edit_permille: usize,
    /// Statements whose text was edited for the warm re-check.
    pub edited: usize,
    /// Detections produced on the original script.
    pub detections: usize,
    /// Whether all configurations produced byte-identical reports.
    pub identical: bool,
    /// Wall-clock microseconds: parse-once front-end + batch detection.
    pub pipeline_micros: u128,
    /// Wall-clock microseconds: warm [`CheckSession::recheck`] of the
    /// edit set (splice + delta profile + dirty-statement patch + unit
    /// replay + rank/fix tail).
    pub warm_micros: u128,
    /// Front-end phase breakdown of the cold pipeline run.
    pub frontend: FrontendStats,
    /// Warm re-check stats: per-phase micros, dirty-unit counts, cache
    /// outcomes — straight from the session's [`BatchStats`].
    pub warm: BatchStats,
    /// Full rebuilds the warm session fell back to (0 on the
    /// incremental path; any fallback voids the O(edits) claim).
    pub fallbacks: u64,
    /// Median observation for the pipeline configuration (noise context
    /// for the reported min).
    pub pipeline_median_micros: u128,
    /// Relative spread `(max-min)/min` of the pipeline observations,
    /// percent.
    pub pipeline_spread_pct: f64,
    /// Heap allocations per **unique** statement across one cold
    /// pipeline check (front-end + batch detection). `None` when the
    /// `count-allocs` feature is compiled out.
    pub allocs_per_stmt: Option<f64>,
}

impl E2eRow {
    /// Warm re-check **as a fraction of** the cold pipeline: below 1.0
    /// the warm path wins; the CI gate requires ≤ 0.35 on the 1%-edit
    /// 100k row. (Flipped from the pre-session `pipeline/warm` speedup
    /// so the gate reads as a ceiling.)
    pub fn warm_vs_pipeline(&self) -> f64 {
        self.warm_micros as f64 / self.pipeline_micros.max(1) as f64
    }
}

/// Deterministically pick `permille`/1000 of the statement indices and
/// pair each with a replacement text no template in the pool uses — a
/// genuinely new statement, as an application edit would produce.
/// Statement-index based, so it is shape-agnostic (trigger bodies span
/// lines; splicing is the session's job).
pub fn edit_set(statements: usize, permille: usize, seed: u64) -> Vec<Edit> {
    let mut rng = sqlcheck_minidb::stats::SmallRng::new(seed);
    let mut edits = Vec::new();
    for i in 0..statements {
        if rng.gen_range(1000) < permille {
            edits.push(Edit::new(
                i,
                format!("SELECT * FROM app_t{} WHERE c0 = {}", i % 97, 1_000_000 + i),
            ));
        }
    }
    edits
}

/// Render a report's detections for byte-identity comparison.
fn report_key(r: &Report) -> Vec<String> {
    r.detections.iter().map(|d| format!("{d:?}")).collect()
}

/// Render a full workload outcome — detections and ranking — for the
/// warm-vs-cold identity check (the session also patches ranking/fixes;
/// ranking covers both since it is derived from the detections).
fn outcome_key(o: &WorkloadOutcome) -> Vec<String> {
    let mut k = report_key(&o.outcome.report);
    k.extend(o.outcome.ranked().iter().map(|r| format!("{:.6} {:?}", r.score, r.detection)));
    k
}

/// Repetitions per measurement; the minimum observation is reported
/// (noise-robust: preemption and hypervisor steal only ever add time).
const REPS: usize = 3;

fn best_of<T>(mut f: impl FnMut() -> T) -> (T, u128) {
    let (out, s) = sample_full(&mut f);
    (out, s.0)
}

/// Time `f` REPS times; return the last output plus
/// `(min, median, spread_pct)` of the observations.
fn sample_full<T>(f: &mut impl FnMut() -> T) -> (T, (u128, u128, f64)) {
    let mut obs = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let out = f();
        obs.push(t.elapsed().as_micros());
        last = Some(out);
    }
    obs.sort_unstable();
    let min = obs[0];
    let max = obs[obs.len() - 1];
    let spread = if min == 0 { 0.0 } else { (max - min) as f64 * 100.0 / min as f64 };
    (last.unwrap(), (min, obs[obs.len() / 2], spread))
}

/// One full end-to-end check: front-end + batch detection.
fn check(script: &str, cache: Option<&IncrementalCache>) -> sqlcheck::BatchReport {
    let (ctx, fe_stats) = ContextBuilder::new().add_script(script).build_with_stats();
    let mut batch = Detector::default().detect_batch_with(&ctx, cache);
    batch.stats.absorb_frontend(&fe_stats);
    batch
}

/// Detections of batch detection over the per-occurrence reference
/// context of `script`.
fn reference_report(script: &str) -> Report {
    let ctx = reference::context(script, &FrontendOptions::default());
    Detector::default().detect_batch(&ctx).report
}

/// Run the experiment at one workload size and shape.
pub fn run_one(
    workload: &str,
    statements: usize,
    templates: usize,
    edit_permille: usize,
    seed: u64,
) -> E2eRow {
    run_inner(workload, statements, templates, edit_permille, seed, true)
}

/// The CI-gate variant: no comparison against the reference context
/// (it parses every occurrence, ~20x the pipeline at 100k, and adds
/// nothing to the `warm_vs_pipeline` ceiling); identity is still
/// asserted warm-vs-cold on the edited script.
pub fn run_gate(
    workload: &str,
    statements: usize,
    templates: usize,
    edit_permille: usize,
    seed: u64,
) -> E2eRow {
    run_inner(workload, statements, templates, edit_permille, seed, false)
}

fn run_inner(
    workload: &str,
    statements: usize,
    templates: usize,
    edit_permille: usize,
    seed: u64,
    with_reference: bool,
) -> E2eRow {
    let script = script_for_shape(workload, statements, templates, seed);
    let opts = FrontendOptions::default();

    // Cold, parse-once pipeline.
    let (pipeline, (pipeline_micros, pipeline_median_micros, pipeline_spread_pct)) =
        sample_full(&mut || check(&script, None));

    // Heap traffic per unique statement across one cold pipeline check
    // (only meaningful with the counting allocator compiled in).
    let a0 = alloc_count();
    let alloc_run = check(&script, None);
    let allocs = allocs_per_stmt(a0, alloc_count(), alloc_run.stats.unique_texts.max(1));

    // Warm: retain a session over the original workload (cold build,
    // untimed), then time only `recheck(&edits)`. Each repetition gets a
    // fresh session so no rep re-checks an already-applied edit set.
    let edits = edit_set(pipeline.stats.statements, edit_permille, seed ^ 0xE017);
    let edited = edits.len();
    let mut sessions: Vec<CheckSession> = (0..REPS)
        .map(|_| {
            SqlCheck::new().with_cache(1 << 14).into_session(script.clone(), opts.clone())
        })
        .collect();
    let (warm_session, warm_micros) = best_of(|| {
        let mut s = sessions.pop().expect("one retained session per repetition");
        s.recheck(&edits);
        s
    });
    let warm = warm_session.outcome().stats.clone();
    let fallbacks = warm_session.fallbacks();

    // Byte-identity: pipeline ≡ the reference context on the original
    // workload, and the warm session ≡ a cold full check of the edited
    // script (detections and ranking — the session patches both).
    let cold_edited = SqlCheck::new().check_workload(warm_session.script(), &opts);
    let identical = (!with_reference
        || report_key(&reference_report(&script)) == report_key(&pipeline.report))
        && outcome_key(&cold_edited) == outcome_key(warm_session.outcome());

    E2eRow {
        workload: workload.to_string(),
        statements,
        templates,
        edit_permille,
        edited,
        detections: pipeline.report.detections.len(),
        identical,
        pipeline_micros,
        warm_micros,
        frontend: FrontendStats {
            statements: pipeline.stats.statements,
            unique_texts: pipeline.stats.unique_texts,
            split_micros: pipeline.stats.split_micros,
            materialize_micros: pipeline.stats.materialize_micros,
            intake_micros: pipeline.stats.intake_micros,
            parse_micros: pipeline.stats.parse_micros,
            annotate_micros: pipeline.stats.annotate_micros,
            context_micros: pipeline.stats.context_micros,
        },
        warm,
        fallbacks,
        pipeline_median_micros,
        pipeline_spread_pct,
        allocs_per_stmt: allocs,
    }
}

/// Result of the DDL-edit cache scenario: how much of the cache survives
/// a schema edit to **one** table.
#[derive(Debug, Clone)]
pub struct DdlEditRow {
    /// Statements in the workload (DDL included).
    pub statements: usize,
    /// Tables the workload spreads over.
    pub tables: usize,
    /// Incremental-cache hits on the re-check after the DDL edit. Under
    /// whole-cache flushing this is 0; under column-granular invalidation
    /// it is every unique text not reading the added column.
    pub hits: usize,
    /// Incremental-cache misses on the re-check (texts invalidated by
    /// the edit, plus the edited DDL itself).
    pub misses: usize,
    /// Whether the warm re-check matched a cold check byte for byte.
    pub identical: bool,
}

/// Prime a cache over a multi-table workload, edit the DDL of a single
/// table, and re-check: column-granular invalidation must keep every
/// entry that does not read the edited column (shown by the hit
/// counter), while output stays byte-identical to a cold check.
pub fn run_ddl_edit(statements: usize, tables: usize, seed: u64) -> DdlEditRow {
    let prelude = super::phases::ddl_prelude(tables);
    let body = super::throughput::workload_script(statements, tables, seed);
    let script = format!("{prelude}{body}");
    // The DDL edit: one table grows a column; every other table's
    // definition is untouched.
    let edited = script.replace(
        "CREATE TABLE app_t0 (c0 INT PRIMARY KEY, c1 TEXT);",
        "CREATE TABLE app_t0 (c0 INT PRIMARY KEY, c1 TEXT, c2 INT);",
    );
    assert_ne!(script, edited, "edit must change the DDL");

    let cache = IncrementalCache::default();
    let _ = check(&script, Some(&cache));
    let warm = check(&edited, Some(&cache));

    DdlEditRow {
        statements: warm.stats.statements,
        tables,
        hits: warm.stats.incremental_hits,
        misses: warm.stats.incremental_misses,
        identical: report_key(&reference_report(&edited)) == report_key(&warm.report),
    }
}

/// Render the DDL-edit scenario result.
pub fn render_ddl_edit(r: &DdlEditRow) -> String {
    format!(
        "DDL edit to 1 of {} tables over {} statements: {} cache hit(s), {} miss(es), identical: {}\n\
         (whole-cache flushing would report 0 hits here)\n",
        r.tables, r.statements, r.hits, r.misses, r.identical
    )
}

/// Run the experiment over several workload sizes at one edit rate
/// (plain shape — the cross-PR regression reference).
pub fn run(sizes: &[usize], templates: usize, edit_permille: usize, seed: u64) -> Vec<E2eRow> {
    sizes.iter().map(|&n| run_one("plain", n, templates, edit_permille, seed)).collect()
}

/// Edit-fraction sweep at one workload size: every shape × every edit
/// rate (the `incremental` experiment — the O(edits) claim as a curve).
pub fn run_sweep(
    statements: usize,
    templates: usize,
    permilles: &[usize],
    shapes: &[&str],
    seed: u64,
) -> Vec<E2eRow> {
    let mut rows = Vec::with_capacity(shapes.len() * permilles.len());
    for &shape in shapes {
        for &pm in permilles {
            rows.push(run_one(shape, statements, templates, pm, seed));
        }
    }
    rows
}

/// Render rows as an aligned console table.
pub fn render(rows: &[E2eRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8} {:>8} {:>7} {:>11} {:>9} {:>6} {:>5} {:>9}\n",
        "workload", "stmts", "edited", "pipeline_us", "warm_us", "w/p", "dirty", "identical"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8} {:>8} {:>7} {:>11} {:>9} {:>6.2} {:>5} {:>9}\n",
            r.workload,
            r.statements,
            r.edited,
            r.pipeline_micros,
            r.warm_micros,
            r.warm_vs_pipeline(),
            r.warm.warm_dirty_statements,
            r.identical,
        ));
    }
    out
}

/// Render the per-phase warm breakdown of each row (edit / profile /
/// patch / finalize micros plus dirty-unit counts) — the measured shape
/// of the O(edits) claim.
pub fn render_warm_phases(rows: &[E2eRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8} {:>7} {:>8} {:>11} {:>9} {:>12} {:>6} {:>11} {:>11}\n",
        "workload", "edited", "edit_us", "profile_us", "patch_us", "finalize_us", "dirty",
        "inter_r/c", "data_reuse"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8} {:>7} {:>8} {:>11} {:>9} {:>12} {:>6} {:>9}/{} {:>11}\n",
            r.workload,
            r.edited,
            r.warm.warm_edit_micros,
            r.warm.warm_profile_micros,
            r.warm.warm_patch_micros,
            r.warm.warm_finalize_micros,
            r.warm.warm_dirty_statements,
            r.warm.inter_units_reused,
            r.warm.inter_units_recomputed,
            r.warm.data_units_reused,
        ));
    }
    out
}

/// Render rows as a JSON document (written to `BENCH_e2e.json`).
pub fn to_json(rows: &[E2eRow]) -> String {
    let mut out =
        String::from("{\n  \"experiment\": \"parse_once_frontend_e2e\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"statements\": {}, \"templates\": {}, \
             \"edit_permille\": {}, \"edited\": {}, \
             \"detections\": {}, \"identical\": {}, \"fallbacks\": {}, \
             \"pipeline_micros\": {}, \"warm_micros\": {}, \
             \"pipeline_median_micros\": {}, \"pipeline_spread_pct\": {:.1}, \
             \"allocs_per_stmt\": {}, \
             \"split_micros\": {}, \"materialize_micros\": {}, \"intake_micros\": {}, \
             \"parse_micros\": {}, \
             \"annotate_micros\": {}, \"context_micros\": {}, \"unique_texts\": {}, \
             \"warm_edit_micros\": {}, \"warm_profile_micros\": {}, \
             \"warm_patch_micros\": {}, \"warm_finalize_micros\": {}, \
             \"warm_dirty_statements\": {}, \
             \"inter_units_reused\": {}, \"inter_units_recomputed\": {}, \
             \"data_units_reused\": {}, \
             \"incremental_hits\": {}, \"incremental_misses\": {}, \
             \"warm_vs_pipeline\": {:.3}}}{}\n",
            r.workload,
            r.statements,
            r.templates,
            r.edit_permille,
            r.edited,
            r.detections,
            r.identical,
            r.fallbacks,
            r.pipeline_micros,
            r.warm_micros,
            r.pipeline_median_micros,
            r.pipeline_spread_pct,
            r.allocs_per_stmt.map(|a| format!("{a:.1}")).unwrap_or_else(|| "null".into()),
            r.frontend.split_micros,
            r.frontend.materialize_micros,
            r.frontend.intake_micros,
            r.frontend.parse_micros,
            r.frontend.annotate_micros,
            r.frontend.context_micros,
            r.frontend.unique_texts,
            r.warm.warm_edit_micros,
            r.warm.warm_profile_micros,
            r.warm.warm_patch_micros,
            r.warm.warm_finalize_micros,
            r.warm.warm_dirty_statements,
            r.warm.inter_units_reused,
            r.warm.inter_units_recomputed,
            r.warm.data_units_reused,
            r.warm.incremental_hits,
            r.warm.incremental_misses,
            r.warm_vs_pipeline(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_identical_at_small_scale() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run_one("plain", 400, 50, 10, 0xE2E);
        assert!(r.identical, "all three configurations must agree");
        assert!(r.detections > 0);
        assert!(r.edited > 0, "edit rate must actually edit something");
        assert_eq!(r.fallbacks, 0, "the edit set must stay on the incremental path");
        assert!(
            r.warm.warm_dirty_statements >= r.edited,
            "every edited statement is dirty on the warm path"
        );
    }

    #[test]
    fn trigger_and_skewed_shapes_stay_incremental() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for shape in ["trigger", "skewed"] {
            let r = run_one(shape, 300, 30, 20, 0x5A9E);
            assert!(r.identical, "{shape}: warm session diverged from cold check");
            assert_eq!(r.fallbacks, 0, "{shape}: edit set must stay incremental");
        }
    }

    #[test]
    fn edit_set_is_deterministic_and_bounded() {
        let a = edit_set(1_000, 10, 7);
        let b = edit_set(1_000, 10, 7);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.index == y.index && x.text == y.text));
        assert!(!a.is_empty() && a.len() < 100, "~1% of 1000 expected, got {}", a.len());
        assert!(edit_set(1_000, 0, 7).is_empty());
    }

    #[test]
    fn gate_variant_keeps_warm_identity() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run_gate("plain", 300, 30, 10, 0xE2E);
        assert!(r.identical, "warm session must equal the cold check of the edited script");
        assert_eq!(r.fallbacks, 0, "the edit set must stay on the incremental path");
    }

    #[test]
    fn ddl_edit_keeps_unrelated_cache_entries() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run_ddl_edit(400, 10, 0xDD1);
        assert!(r.identical, "warm re-check after a DDL edit must equal a cold check");
        assert!(
            r.hits > 0,
            "column-granular invalidation must keep entries that do not read the edit"
        );
        assert!(r.misses > 0, "statements invalidated by the edit must re-analyse");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rows = run(&[150], 20, 20, 3);
        let j = to_json(&rows);
        assert!(j.contains("\"statements\": 150"));
        assert!(j.contains("\"workload\": \"plain\""));
        assert!(j.contains("warm_patch_micros"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}

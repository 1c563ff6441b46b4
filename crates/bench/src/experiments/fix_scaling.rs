//! **Fix scaling** — a size-scaling gate for the back half of the CLI
//! path: check → [`CheckOutcome::ranked`] → [`CheckOutcome::fixes`] on the
//! labelled GitHub corpus at N and 10N repositories, in one process.
//!
//! Fix synthesis looks up every schema fix's impacted queries (the
//! paper's `GetImpactedQueries`). As a scan over all statements per fix
//! that step is O(fixes × statements): 10x the corpus costs ~100x the
//! time. The gate asserts fix time at 10N is at most [`CEILING`] times
//! fix time at N, so a quadratic that comes back fails CI. It is a ratio
//! of two timings from the same process, each the minimum of several
//! interleaved runs, so it holds on a shared runner where absolute
//! timings do not.
//!
//! Built with the `count-allocs` feature, the experiment also counts the
//! allocations of one fix pass over the plain 100k-statement,
//! 100-template shape: fixes are synthesised once per unique statement
//! text, so that count stays near the number of unique texts instead of
//! growing with the ~75k fixes. [`ALLOC_CEILING`] bounds it. It then
//! counts the allocations of writing that shape's listing with
//! [`CheckOutcome::write_listing`]: the listing is spliced from per-kind
//! heads into one reused buffer, so the count stays flat instead of
//! growing with the ~75k listed detections. [`RENDER_ALLOC_CEILING`]
//! bounds it.
//!
//! [`CheckOutcome::ranked`]: sqlcheck::CheckOutcome::ranked
//! [`CheckOutcome::fixes`]: sqlcheck::CheckOutcome::fixes
//! [`CheckOutcome::write_listing`]: sqlcheck::CheckOutcome::write_listing

use crate::alloc_count::{alloc_count, COUNTING};
use crate::experiments::throughput::script_for_shape;
use crate::harness::Sample;
use sqlcheck::{FrontendOptions, CheckOutcome, Detection, Fix, FixEngine, SqlCheck};
use sqlcheck_workload::github::{generate_corpus, CorpusConfig, Repository};
use std::time::Instant;

/// Largest allowed fix-time ratio between 10N and N repositories.
pub const CEILING: f64 = 15.0;

/// One corpus size.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Repositories in the corpus.
    pub repositories: usize,
    /// Statements in the concatenated script.
    pub statements: usize,
    /// Ranked detections, one fix each.
    pub fixes: usize,
    /// Fixes that are schema changes.
    pub schema_fixes: usize,
    /// Impacted-query lines across all schema fixes.
    pub impacted: usize,
    /// Wall time of the one `check_workload` call, microseconds.
    pub check_micros: u128,
    /// Wall time of fix synthesis over the ranked detections.
    pub fix: Sample,
}

/// A checked corpus: its size, the outcome, the ranked detections, and
/// the check time.
struct Checked {
    repositories: usize,
    outcome: CheckOutcome,
    ordered: Vec<Detection>,
    check_micros: u128,
}

/// Check, rank and fix the GitHub corpus at `repositories` repos.
fn check(repositories: usize) -> Checked {
    let cfg = CorpusConfig { repositories, statements_per_repo: 124, seed: 0x9178B };
    let script: Vec<String> = generate_corpus(cfg).iter().map(Repository::script).collect();
    let script = script.join(";\n");
    let t = Instant::now();
    let outcome = SqlCheck::new().check_workload(&script, &FrontendOptions::default()).outcome;
    let check_micros = t.elapsed().as_micros();
    let ordered = outcome.ranked().iter().map(|r| r.detection.clone()).collect();
    Checked { repositories, outcome, ordered, check_micros }
}

impl Checked {
    fn row(&self, fix: Sample) -> ScalingRow {
        let impacted: Vec<usize> = self
            .outcome
            .fixes()
            .iter()
            .filter_map(|f| match &f.fix {
                Fix::SchemaChange { impacted_queries, .. } => Some(impacted_queries.len()),
                _ => None,
            })
            .collect();
        ScalingRow {
            repositories: self.repositories,
            statements: self.outcome.context.len(),
            fixes: self.ordered.len(),
            schema_fixes: impacted.len(),
            impacted: impacted.iter().sum(),
            check_micros: self.check_micros,
            fix,
        }
    }
}

/// The N and 10N rows: N = 40 repositories, or 8 under `quick`.
///
/// `fixes()` is memoized, so the timed runs repeat its computation,
/// [`FixEngine::fix_all`] over the ranked detections. The runs alternate
/// between the sizes so both see the same host conditions and the same
/// cache state: timed back to back, the small corpus stays cache-resident
/// and a linear fix pass measures ~16x instead of ~11x.
pub fn run(quick: bool) -> [ScalingRow; 2] {
    let n = if quick { 8 } else { 40 };
    let sizes = [check(n), check(10 * n)];
    let mut obs = [Vec::new(), Vec::new()];
    for _ in 0..REPS {
        for (c, o) in sizes.iter().zip(&mut obs) {
            let t = Instant::now();
            std::hint::black_box(FixEngine.fix_all(&c.ordered, &c.outcome.context));
            o.push(t.elapsed().as_micros());
        }
    }
    let [small, large] = obs.map(Sample::of);
    [sizes[0].row(small), sizes[1].row(large)]
}

/// Most allocations one fix pass over the plain shape may make. Shared
/// per-text synthesis measures ~1k; synthesis per occurrence ~900k.
pub const ALLOC_CEILING: u64 = 10_000;

/// Most allocations writing the plain shape's listing with fixes may
/// make. Splicing into one reused buffer measures 5; a
/// `format!` per spanned detection ~75k.
pub const RENDER_ALLOC_CEILING: u64 = 1_000;

/// Allocation counts of one fix pass and one listing.
#[derive(Debug, Clone, Copy)]
pub struct AllocRow {
    /// Fixes synthesised.
    pub fixes: usize,
    /// Heap allocations (and reallocations) inside [`FixEngine::fix_all`].
    pub allocs: u64,
    /// Heap allocations (and reallocations) writing the listing with
    /// fixes into [`std::io::sink`].
    pub render_allocs: u64,
}

/// Check and rank the plain shape (100k statements, 100 templates), then
/// count the allocations of [`FixEngine::fix_all`] over the ranked
/// detections, and of one [`CheckOutcome::write_listing`] with fixes
/// once those are memoized. `None` unless built with the `count-allocs`
/// feature.
pub fn plain_fix_allocs() -> Option<AllocRow> {
    if !COUNTING {
        return None;
    }
    let script = script_for_shape("plain", 100_000, 100, 0x5EED);
    let outcome = SqlCheck::new().check_workload(&script, &FrontendOptions::default()).outcome;
    let ranked = outcome.ranked();
    let before = alloc_count();
    let fixes = FixEngine.fix_all(ranked.iter().map(|r| &r.detection), &outcome.context);
    let allocs = alloc_count() - before;
    // Memoize the fixes, so the count below is the listing's alone.
    outcome.fixes();
    let before = alloc_count();
    outcome.write_listing(&mut std::io::sink(), true).expect("a sink takes every write");
    let render_allocs = alloc_count() - before;
    Some(AllocRow { fixes: fixes.len(), allocs, render_allocs })
}

/// Timed fix runs per size.
const REPS: usize = 15;

/// Fix time at the larger size over fix time at the smaller, by minimum.
pub fn ratio(rows: &[ScalingRow; 2]) -> f64 {
    rows[1].fix.min_micros as f64 / rows[0].fix.min_micros.max(1) as f64
}

/// Render the rows as a table.
pub fn render(rows: &[ScalingRow]) -> String {
    let mut s = format!(
        "{:>6} {:>10} {:>7} {:>8} {:>9} {:>10} {:>10} {:>10}\n",
        "repos", "statements", "fixes", "schema", "impacted", "check_ms", "fix_ms", "fix_med_ms"
    );
    for r in rows {
        s.push_str(&format!(
            "{:>6} {:>10} {:>7} {:>8} {:>9} {:>10.1} {:>10.2} {:>10.2}\n",
            r.repositories,
            r.statements,
            r.fixes,
            r.schema_fixes,
            r.impacted,
            r.check_micros as f64 / 1e3,
            r.fix.min_micros as f64 / 1e3,
            r.fix.median_micros as f64 / 1e3,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_exercises_impacted_queries() {
        let r = check(4).row(Sample::of(vec![0]));
        assert!(r.statements > 0 && r.fixes > 0);
        assert!(r.schema_fixes > 0, "the gate must time schema fixes");
        assert!(r.impacted > 0, "the gate must time impacted-query lookups");
    }
}

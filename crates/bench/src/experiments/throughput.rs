//! **Throughput experiment** — the detection engine vs the per-statement
//! reference detector on template-heavy workloads.
//!
//! Real application logs contain millions of statements drawn from a few
//! hundred templates (§8 analyses thousands of repositories and Django
//! apps). This experiment synthesizes such workloads — `n` statements
//! drawn from a fixed pool of unique templates — and measures:
//!
//! * `reference` — [`sqlcheck::detect::reference::detect`], the
//!   per-statement loop the identity suites use as their oracle;
//! * `batch` — [`sqlcheck::Detector::detect_batch`] (exact-text
//!   dedup), the engine every production path runs.
//!
//! Both configurations are verified to produce byte-identical detections
//! before any timing is reported.

use sqlcheck::detect::reference;
use sqlcheck::{ContextBuilder, Detector};
use sqlcheck_minidb::stats::SmallRng;
use std::time::Instant;

/// One measured workload size.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Workload shape: `"plain"`, `"trigger"`, or `"skewed"`.
    pub workload: &'static str,
    /// Statements in the workload.
    pub statements: usize,
    /// Unique templates the workload draws from.
    pub templates: usize,
    /// Detections produced (identical across both paths).
    pub detections: usize,
    /// Whether both paths produced byte-identical reports.
    pub identical: bool,
    /// Wall-clock microseconds: per-statement reference detector.
    pub ref_micros: u128,
    /// Wall-clock microseconds: batch path.
    pub batch_micros: u128,
}

impl ThroughputRow {
    /// Statements per second for a measured duration.
    fn stmts_per_sec(&self, micros: u128) -> f64 {
        if micros == 0 {
            f64::INFINITY
        } else {
            self.statements as f64 / (micros as f64 / 1e6)
        }
    }

    /// Reference-detector throughput (statements/second).
    pub fn ref_throughput(&self) -> f64 {
        self.stmts_per_sec(self.ref_micros)
    }

    /// Batch throughput (statements/second).
    pub fn batch_throughput(&self) -> f64 {
        self.stmts_per_sec(self.batch_micros)
    }

    /// Speedup of batch over the reference detector.
    pub fn batch_speedup(&self) -> f64 {
        self.ref_micros as f64 / self.batch_micros.max(1) as f64
    }
}

/// Deterministically generate a workload of `statements` statements drawn
/// from `templates` unique statement shapes, shuffled. Each template is
/// instantiated with fixed literals, mirroring an application that
/// re-issues the same prepared statements throughout its log.
pub fn workload_script(statements: usize, templates: usize, seed: u64) -> String {
    // Each template gets its own table so fingerprints stay distinct
    // (literals fold to `?`, so varying only literals would collapse
    // the pool onto the eight statement shapes).
    let pool = workload_pool(templates);
    let mut rng = SmallRng::new(seed);
    let mut script = String::with_capacity(statements * 48);
    for _ in 0..statements {
        script.push_str(&pool[rng.gen_range(pool.len())]);
        script.push_str(";\n");
    }
    script
}

/// Deterministically generate a **trigger-heavy** workload: the plain
/// template pool of [`workload_script`] interleaved with compound
/// `CREATE TRIGGER … BEGIN … END` DDL (about one statement in six), the
/// shape of a real schema dump. Each trigger is ONE statement whose body
/// semicolons must survive splitting — the workload exercises the
/// splitter's block-depth state machine at scale and measures its
/// overhead against the plain shape.
pub fn trigger_workload_script(statements: usize, templates: usize, seed: u64) -> String {
    let mut pool: Vec<String> = Vec::with_capacity(templates);
    for k in 0..templates {
        pool.push(match k % 3 {
            0 => format!(
                "CREATE TRIGGER trg{k} AFTER INSERT ON app_t{k} FOR EACH ROW BEGIN \
                 UPDATE app_u{k} SET c0 = c0 + 1; \
                 DELETE FROM app_v{k} WHERE c0 = {k}; END"
            ),
            1 => format!(
                "CREATE TRIGGER chk{k} BEFORE UPDATE ON app_t{k} FOR EACH ROW BEGIN \
                 IF NEW.c0 > {k} THEN INSERT INTO app_log{k} VALUES ({k}); END IF; \
                 SELECT CASE WHEN NEW.c1 THEN 1 ELSE 0 END; END"
            ),
            _ => format!(
                "CREATE PROCEDURE proc{k}() BEGIN \
                 INSERT INTO app_log{k} VALUES ({k}, 'p'); \
                 UPDATE app_t{k} SET c1 = 'done' WHERE c0 = {k}; END"
            ),
        });
    }
    let trigger_pool = pool;
    let plain_pool = workload_pool(templates);
    let mut rng = SmallRng::new(seed);
    let mut script = String::with_capacity(statements * 72);
    for i in 0..statements {
        if i % 6 == 0 {
            script.push_str(&trigger_pool[rng.gen_range(trigger_pool.len())]);
        } else {
            script.push_str(&plain_pool[rng.gen_range(plain_pool.len())]);
        }
        script.push_str(";\n");
    }
    script
}

/// Deterministically generate a **skewed** workload — the unique-heavy
/// shape:
///
/// * ~90% of the statements instantiate **one hot template** with a
///   distinct literal each (distinct texts, so they are distinct intra
///   units — all cheap, all under one fingerprint);
/// * exactly one statement, placed mid-script, is a **giant trigger
///   body** (hundreds of `BEGIN…END` sub-statements) — a single intra
///   unit that costs orders of magnitude more than its neighbours;
/// * the rest draw from the plain template pool.
pub fn skewed_workload_script(statements: usize, templates: usize, seed: u64) -> String {
    let plain_pool = workload_pool(templates);
    let mut rng = SmallRng::new(seed);
    let giant_at = statements / 2;
    let mut script = String::with_capacity(statements * 56);
    for i in 0..statements {
        if i == giant_at && statements > 0 {
            // One giant compound statement: ~400 body sub-statements.
            script.push_str("CREATE PROCEDURE giant_migration() BEGIN ");
            for k in 0..400 {
                script.push_str(&format!(
                    "UPDATE app_t{} SET c0 = c0 + {k} WHERE c1 LIKE '%m{k}%'; ",
                    k % 97
                ));
            }
            script.push_str("END");
        } else if rng.gen_range(10) < 9 {
            // The hot template: same shape, fresh literal per occurrence.
            script.push_str(&format!("SELECT c0, c1 FROM app_hot WHERE c0 = {i}"));
        } else {
            script.push_str(&plain_pool[rng.gen_range(plain_pool.len())]);
        }
        script.push_str(";\n");
    }
    script
}

/// The script for one named workload shape (`plain`, `trigger`, or
/// `skewed`) — the tag every bench row carries.
pub fn script_for_shape(
    workload: &str,
    statements: usize,
    templates: usize,
    seed: u64,
) -> String {
    match workload {
        "plain" => workload_script(statements, templates, seed),
        "trigger" => trigger_workload_script(statements, templates, seed),
        "skewed" => skewed_workload_script(statements, templates, seed),
        other => {
            panic!("unknown workload shape {other:?} (use \"plain\", \"trigger\", or \"skewed\")")
        }
    }
}

/// The plain statement pool of [`workload_script`], reusable by other
/// workload shapes.
fn workload_pool(templates: usize) -> Vec<String> {
    let mut pool: Vec<String> = Vec::with_capacity(templates);
    for k in 0..templates {
        let t = k;
        pool.push(match k % 8 {
            0 => format!("SELECT * FROM app_t{t} WHERE c0 = {k}"),
            1 => format!("SELECT c0, c1 FROM app_t{t} WHERE c1 LIKE '%v{k}%'"),
            2 => format!("INSERT INTO app_t{t} VALUES ({k}, 'x{k}')"),
            3 => format!("UPDATE app_t{t} SET c0 = {k} WHERE c1 = 'u{k}'"),
            4 => format!("SELECT c0 FROM app_t{t} WHERE c0 IN ({k}, {}, {})", k + 1, k + 2),
            5 => format!(
                "SELECT DISTINCT a.c0 FROM app_t{t} a JOIN app_u{t} b ON a.c0 = b.c1 \
                 WHERE b.c0 > {k}"
            ),
            6 => format!("SELECT * FROM app_t{t} ORDER BY RANDOM() LIMIT {}", k + 1),
            _ => format!("DELETE FROM app_t{t} WHERE c0 = {k}"),
        });
    }
    pool
}

/// Render a report's detections for byte-identity comparison.
fn report_key(r: &sqlcheck::Report) -> Vec<String> {
    r.detections.iter().map(|d| format!("{d:?}")).collect()
}

/// Repetitions per measurement; the minimum observation is reported
/// (noise-robust: preemption and hypervisor steal only ever add time).
const REPS: usize = 3;

/// Time `f` over [`REPS`] runs, returning the last result and the
/// fastest observation in microseconds.
fn best_of<T>(mut f: impl FnMut() -> T) -> (T, u128) {
    let mut best = u128::MAX;
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_micros());
        last = Some(out);
    }
    (last.unwrap(), best)
}

/// Run the experiment at one workload size.
pub fn run_one(
    workload: &'static str,
    statements: usize,
    templates: usize,
    seed: u64,
) -> ThroughputRow {
    let script = script_for_shape(workload, statements, templates, seed);
    let ctx = ContextBuilder::new().add_script(&script).build();
    let det = Detector::default();

    let (oracle, ref_micros) = best_of(|| reference::detect(&ctx, &det.cfg));
    let (batch, batch_micros) = best_of(|| det.detect_batch(&ctx));
    let identical = report_key(&oracle) == report_key(&batch.report);

    ThroughputRow {
        workload,
        statements: ctx.len(),
        templates,
        detections: oracle.detections.len(),
        identical,
        ref_micros,
        batch_micros,
    }
}

/// Run the experiment over several workload sizes. The plain rows come
/// first (the cross-PR regression reference), then the unique-heavy
/// skewed shape.
pub fn run(sizes: &[usize], templates: usize, seed: u64) -> Vec<ThroughputRow> {
    let mut rows = Vec::with_capacity(sizes.len() * 2);
    for workload in ["plain", "skewed"] {
        for &n in sizes {
            rows.push(run_one(workload, n, templates, seed));
        }
    }
    rows
}

/// Render rows as an aligned console table.
pub fn render(rows: &[ThroughputRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8} {:>10} {:>10} {:>12} {:>12} {:>8} {:>9}\n",
        "workload", "stmts", "templates", "ref st/s", "batch st/s", "batch_x", "identical"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8} {:>10} {:>10} {:>12.0} {:>12.0} {:>7.1}x {:>9}\n",
            r.workload,
            r.statements,
            r.templates,
            r.ref_throughput(),
            r.batch_throughput(),
            r.batch_speedup(),
            r.identical,
        ));
    }
    out
}

/// Render rows as a JSON document (written to `BENCH_throughput.json`).
pub fn to_json(rows: &[ThroughputRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"batch_detection_throughput\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"statements\": {}, \"templates\": {}, \
             \"detections\": {}, \"identical\": {}, \
             \"reference_micros\": {}, \"batch_micros\": {}, \
             \"reference_stmts_per_sec\": {:.1}, \"batch_stmts_per_sec\": {:.1}, \
             \"batch_speedup\": {:.2}}}{}\n",
            r.workload,
            r.statements,
            r.templates,
            r.detections,
            r.identical,
            r.ref_micros,
            r.batch_micros,
            r.ref_throughput(),
            r.batch_throughput(),
            r.batch_speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcheck_parser::Dialect;

    #[test]
    fn workload_has_requested_shape() {
        let script = workload_script(500, 100, 7);
        let parsed = sqlcheck_parser::parse(&script);
        assert_eq!(parsed.len(), 500);
        let fps: std::collections::HashSet<u64> =
            parsed.iter().map(|p| p.fingerprint(Dialect::Generic)).collect();
        assert!(fps.len() <= 100, "at most 100 templates, got {}", fps.len());
        assert!(fps.len() > 50, "workload should draw from most templates");
    }

    #[test]
    fn outputs_identical_at_small_scale() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run_one("plain", 300, 50, 42);
        assert!(r.identical, "batch output must match the reference detector");
        assert!(r.detections > 0);
    }

    #[test]
    fn skewed_workload_has_hot_template_and_one_giant_statement() {
        let script = skewed_workload_script(600, 40, 0x5EED);
        let parsed = sqlcheck_parser::parse(&script);
        assert_eq!(parsed.len(), 600, "giant trigger body must stay one statement");
        // The hot template dominates: one fingerprint covers ~90%.
        let mut by_fp: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for p in &parsed {
            *by_fp.entry(p.fingerprint(Dialect::Generic)).or_default() += 1;
        }
        let hottest = by_fp.values().copied().max().unwrap();
        assert!(hottest > 500, "hot template should cover ~90%, got {hottest}/600");
        // And the giant statement dwarfs the median.
        let giant = script.lines().map(str::len).max().unwrap();
        assert!(giant > 10_000, "giant statement present ({giant} bytes)");
    }

    #[test]
    fn skewed_outputs_identical_at_small_scale() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run_one("skewed", 300, 30, 7);
        assert!(r.identical, "skewed batch output must match the reference detector");
        assert_eq!(r.workload, "skewed");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rows = run(&[100], 20, 1);
        let j = to_json(&rows);
        assert!(j.contains("\"statements\": 100"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}

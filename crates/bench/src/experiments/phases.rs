//! **Per-phase experiment** — timing breakdown of the three-phase batch
//! detection pipeline (intra-query / inter-query / data-analysis).
//!
//! The throughput and e2e experiments measure end-to-end wall clock; this
//! one records where the time goes. The workload is the template-heavy
//! statement stream of [`workload_script`] with a DDL prelude (so the
//! inter-query rules have a catalog to check against) and an attached
//! database over a slice of the tables (so the data-analysis phase
//! profiles real columns). Per-phase wall-clock
//! micros come straight from [`BatchStats`] — the inter and data phases
//! are measured explicitly, not inferred as a residual.
//!
//! Byte-identity of the batch path against the per-statement
//! [`reference::detect`] is asserted before any timing is reported.

use super::throughput::workload_script;
use sqlcheck::detect::reference;
use sqlcheck::{BatchStats, ContextBuilder, DataAnalysisConfig, Detector, Report};
use sqlcheck_minidb::prelude::*;
use std::time::Instant;

/// One measured workload size with its per-phase breakdown.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Statements in the workload (DDL prelude included).
    pub statements: usize,
    /// Unique templates the statement stream draws from.
    pub templates: usize,
    /// Tables profiled by the data-analysis phase.
    pub profiled_tables: usize,
    /// Detections produced (identical across paths).
    pub detections: usize,
    /// Whether batch output matched the reference detector byte for byte.
    pub identical: bool,
    /// Wall-clock microseconds: per-statement reference detector.
    pub ref_micros: u128,
    /// Wall-clock microseconds: batch three-phase path.
    pub batch_micros: u128,
    /// Per-phase stats of the timed batch run (front-end populated from
    /// the context build).
    pub stats: BatchStats,
}

/// DDL prelude declaring every `app_t{k}` table the workload references,
/// plus an index that the workload never reads (Index Overuse fodder).
pub fn ddl_prelude(templates: usize) -> String {
    let mut out = String::new();
    for k in 0..templates {
        out.push_str(&format!(
            "CREATE TABLE app_t{k} (c0 INT PRIMARY KEY, c1 TEXT);\n"
        ));
    }
    out.push_str("CREATE INDEX idx_phase_unused ON app_t0 (c1);\n");
    out
}

/// A small database over the first `tables` workload tables, populated so
/// the data-analysis rules have distributions to inspect.
pub fn sample_database(tables: usize, rows_per_table: usize) -> Database {
    let mut db = Database::new();
    for k in 0..tables {
        let name = format!("app_t{k}");
        db.create_table(
            TableSchema::new(&name)
                .column(Column::new("c0", DataType::Int).not_null())
                .column(Column::new("c1", DataType::Text))
                .primary_key(&["c0"]),
        )
        .expect("create sample table");
        for i in 0..rows_per_table {
            // Low-cardinality text: Enumerated Types territory.
            db.insert(&name, vec![Value::Int(i as i64), Value::text(format!("v{}", i % 4))])
                .expect("insert sample row");
        }
    }
    db
}

fn report_key(r: &Report) -> Vec<String> {
    r.detections.iter().map(|d| format!("{d:?}")).collect()
}

/// Repetitions per measurement; the minimum observation is reported.
const REPS: usize = 3;

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
pub fn run_one(statements: usize, templates: usize, seed: u64) -> PhaseRow {
    let profiled = templates.min(8);
    let script = format!("{}{}", ddl_prelude(templates), workload_script(statements, templates, seed));
    let db = sample_database(profiled, 64);
    let (ctx, fe_stats) = ContextBuilder::new()
        .add_script(&script)
        .with_database(db, DataAnalysisConfig::default())
        .build_with_stats();
    let det = Detector::default();

    let (oracle, ref_micros) = best_of(|| reference::detect(&ctx, &det.cfg));
    let (batch, batch_micros) = best_of(|| det.detect_batch(&ctx));

    let identical = report_key(&oracle) == report_key(&batch.report);
    let mut stats = batch.stats;
    stats.absorb_frontend(&fe_stats);

    PhaseRow {
        statements: ctx.len(),
        templates,
        profiled_tables: profiled,
        detections: oracle.detections.len(),
        identical,
        ref_micros,
        batch_micros,
        stats,
    }
}

/// Run the experiment over several workload sizes.
pub fn run(sizes: &[usize], templates: usize, seed: u64) -> Vec<PhaseRow> {
    sizes.iter().map(|&n| run_one(n, templates, seed)).collect()
}

/// Render rows as an aligned console table (one line per phase set).
pub fn render(rows: &[PhaseRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}\n",
        "stmts", "ref_us", "batch_us", "parse", "group", "intra", "fanout", "inter", "data",
        "identical"
    ));
    for r in rows {
        let s = &r.stats;
        out.push_str(&format!(
            "{:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}\n",
            r.statements,
            r.ref_micros,
            r.batch_micros,
            s.parse_micros,
            s.group_micros,
            s.intra_micros,
            s.fanout_micros,
            s.inter_micros,
            s.data_micros,
            r.identical,
        ));
    }
    out
}

/// Render rows as a JSON document (written to `BENCH_throughput.json`
/// when the experiment runs standalone).
pub fn to_json(rows: &[PhaseRow]) -> String {
    let mut out =
        String::from("{\n  \"experiment\": \"batch_detection_phases\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let s = &r.stats;
        out.push_str(&format!(
            "    {{\"statements\": {}, \"templates\": {}, \"profiled_tables\": {}, \
             \"detections\": {}, \"identical\": {}, \
             \"reference_micros\": {}, \"batch_micros\": {}, \
             \"split_micros\": {}, \"parse_micros\": {}, \"annotate_micros\": {}, \
             \"context_micros\": {}, \"group_micros\": {}, \"intra_micros\": {}, \
             \"fanout_micros\": {}, \"inter_micros\": {}, \"data_micros\": {}, \
             \"total_micros\": {}, \"unique_texts\": {}, \"speedup\": {:.2}}}{}\n",
            r.statements,
            r.templates,
            r.profiled_tables,
            r.detections,
            r.identical,
            r.ref_micros,
            r.batch_micros,
            s.split_micros,
            s.parse_micros,
            s.annotate_micros,
            s.context_micros,
            s.group_micros,
            s.intra_micros,
            s.fanout_micros,
            s.inter_micros,
            s.data_micros,
            s.total_micros,
            s.unique_texts,
            r.ref_micros as f64 / r.batch_micros.max(1) as f64,
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
    fn phases_identical_and_measured() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run_one(300, 24, 0x9A5E);
        assert!(r.identical, "batch three-phase output must match the reference detector");
        assert!(r.detections > 0);
        // The inter and data phases both did real, measured work: the
        // workload has hot unindexed predicates and the database has
        // profiled tables. (Timings can legitimately round to 0us at
        // this scale, so assert on the work items instead.)
        assert!(r.profiled_tables > 0);
        assert!(r.stats.unique_texts > 0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rows = run(&[120], 16, 1);
        let j = to_json(&rows);
        assert!(j.contains("\"inter_micros\""));
        assert!(j.contains("\"data_micros\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}

//! **Corpus acceptance matrix** — the four real-workload corpora driven
//! end-to-end through [`SqlCheck::check_workload`], recording how much of
//! each corpus the total parser kept structurally shaped.
//!
//! The pipeline is total: it never refuses input, it degrades. That
//! contract is only trustworthy if the degradation rate on *realistic*
//! SQL is measured, not assumed. Each row of the matrix runs one corpus
//! loader (`crates/workload`) through the full batch pipeline and
//! records:
//!
//! * **parse coverage** — the fraction of statements whose parse kept
//!   structural shape (did not fall back to `Statement::Other`);
//! * **degradation diagnostics by kind** — every `DiagKind` event the
//!   front-end emitted, counted once per unique statement text;
//! * **rule failures** — detection units isolated after a panic (must be
//!   zero on every corpus: the built-in rules never panic);
//! * detections and MB/s, so the acceptance matrix doubles as a coarse
//!   end-to-end throughput record.
//!
//! The per-corpus coverage floors ([`coverage_floor`]) are CI-gated via
//! `expdriver corpus --quick`: a parser or splitter change that silently
//! degrades statements on real-shaped SQL fails the build instead of
//! shipping as a quiet recall loss.

use sqlcheck::{BatchOptions, DiagKind, Dialect, SqlCheck, WorkloadOutcome};
use sqlcheck_minidb::database::Database;
use sqlcheck_workload::dialects::DialectCorpusConfig;
use sqlcheck_workload::github::CorpusConfig;
use sqlcheck_workload::globaleaks::Scale;
use sqlcheck_workload::{dialects, django, github, globaleaks, kaggle};
use std::time::Instant;

/// One corpus of the acceptance matrix.
#[derive(Debug, Clone)]
pub struct CorpusRow {
    /// Corpus name: `django`, `github`, `globaleaks`, `kaggle`,
    /// `mysqldump`, or `plpgsql`.
    pub corpus: &'static str,
    /// The dialect the corpus was checked under.
    pub dialect: Dialect,
    /// Statements checked (occurrences, not uniques).
    pub statements: usize,
    /// Unique statement texts.
    pub unique_texts: usize,
    /// Script bytes fed through the pipeline.
    pub script_bytes: usize,
    /// Detections reported (ranked list length).
    pub detections: usize,
    /// Statements whose parse degraded to `Other`.
    pub degraded_statements: usize,
    /// Unique texts whose parse degraded to `Other`.
    pub degraded_uniques: usize,
    /// Diagnostics per kind (indexes match [`DiagKind::ALL`]).
    pub diag_counts: [usize; DiagKind::COUNT],
    /// Detection units isolated after a panic (expected 0).
    pub rule_failures: usize,
    /// End-to-end wall-clock microseconds (front-end + detection +
    /// ranking + fixes), summed over the corpus' checks.
    pub micros: u128,
}

impl CorpusRow {
    /// Fraction of statements that kept structural shape.
    pub fn parse_coverage(&self) -> f64 {
        if self.statements == 0 {
            1.0
        } else {
            1.0 - self.degraded_statements as f64 / self.statements as f64
        }
    }

    /// End-to-end megabytes of SQL per second.
    pub fn mb_per_sec(&self) -> f64 {
        if self.micros == 0 {
            0.0
        } else {
            self.script_bytes as f64 / self.micros as f64
        }
    }
}

/// Minimum acceptable parse coverage per corpus. The generated corpora
/// are dominated by well-formed DML/DDL, so coverage sits near 1.0; the
/// floors leave headroom for corpus-generator drift while still catching
/// any real regression (a broken statement splitter or a parser fallback
/// regression shows up as a double-digit drop).
pub fn coverage_floor(corpus: &str) -> f64 {
    match corpus {
        // The GitHub corpus deliberately mixes in malformed and
        // exotic-dialect statements; its floor is lower by design.
        "github" => 0.80,
        // The dialect-tagged corpora (`mysqldump`, `plpgsql`) are pure
        // idiomatic SQL for their dialect — anything under 0.95 means a
        // dialect capability regressed, not that the corpus got harder.
        _ => 0.95,
    }
}

/// Fold one `check_workload` outcome into a row.
fn absorb(row: &mut CorpusRow, script: &str, w: &WorkloadOutcome) {
    row.statements += w.stats.statements;
    row.unique_texts += w.stats.unique_texts;
    row.script_bytes += script.len();
    row.detections += w.outcome.report.detections.len();
    row.degraded_statements += w.stats.degraded_statements;
    row.degraded_uniques += w.stats.degraded_uniques;
    for (i, c) in w.stats.diag_counts.iter().enumerate() {
        row.diag_counts[i] += c;
    }
    row.rule_failures += w.stats.rule_failures;
}

fn empty_row(corpus: &'static str) -> CorpusRow {
    empty_dialect_row(corpus, Dialect::Generic)
}

fn empty_dialect_row(corpus: &'static str, dialect: Dialect) -> CorpusRow {
    CorpusRow {
        corpus,
        dialect,
        statements: 0,
        unique_texts: 0,
        script_bytes: 0,
        detections: 0,
        degraded_statements: 0,
        degraded_uniques: 0,
        diag_counts: [0; DiagKind::COUNT],
        rule_failures: 0,
        micros: 0,
    }
}

/// Render a minidb database's live schema as a `CREATE TABLE` script, so
/// a data-analysis-only corpus (Kaggle ships databases, not queries) still
/// exercises the parser + schema-fold front door end to end.
fn schema_script(db: &Database) -> String {
    use sqlcheck_minidb::value::DataType as DT;
    let mut out = String::new();
    for table in db.tables() {
        let mut cols: Vec<String> = table
            .schema
            .columns
            .iter()
            .map(|c| {
                let ty = match c.dtype {
                    DT::Int => "INTEGER",
                    DT::Float => "FLOAT",
                    DT::Text => "TEXT",
                    DT::Bool => "BOOLEAN",
                    DT::Timestamp => {
                        if c.with_timezone {
                            "TIMESTAMPTZ"
                        } else {
                            "TIMESTAMP"
                        }
                    }
                };
                let nn = if c.not_null { " NOT NULL" } else { "" };
                format!("{} {}{}", c.name, ty, nn)
            })
            .collect();
        if !table.schema.primary_key.is_empty() {
            cols.push(format!("PRIMARY KEY ({})", table.schema.primary_key.join(", ")));
        }
        for fk in &table.schema.foreign_keys {
            cols.push(format!(
                "FOREIGN KEY ({}) REFERENCES {} ({})",
                fk.columns.join(", "),
                fk.ref_table,
                fk.ref_columns.join(", ")
            ));
        }
        out.push_str(&format!("CREATE TABLE {} ({});\n", table.schema.name, cols.join(", ")));
    }
    out
}

/// Check one script (optionally with a database attached), timed. The
/// row's dialect drives the front door.
fn check_one(row: &mut CorpusRow, script: &str, db: Option<Database>) {
    let mut tool = SqlCheck::new();
    if let Some(db) = db {
        tool = tool.with_database(db);
    }
    let opts = BatchOptions { dialect: row.dialect, ..BatchOptions::default() };
    let t = Instant::now();
    let w = tool.check_workload(script, &opts);
    row.micros += t.elapsed().as_micros();
    absorb(row, script, &w);
}

/// Run the acceptance matrix. `quick` shrinks the GitHub corpus and caps
/// the Kaggle database count for CI smoke runs; coverage floors apply at
/// every scale.
pub fn run(quick: bool) -> Vec<CorpusRow> {
    let mut rows = Vec::with_capacity(4);

    // Django: the 15 Table 7 applications' SQL traces, one check per app
    // (each trace is its own workload, like the paper's per-app runs).
    let mut dj = empty_row("django");
    for app in django::APPS {
        let script = django::sql_trace(app);
        check_one(&mut dj, &script, Some(django::database(app)));
    }
    rows.push(dj);

    // GitHub: the synthesized Table 2/3 corpus, one script per repository.
    let mut gh = empty_row("github");
    let cfg = if quick {
        CorpusConfig::small()
    } else {
        CorpusConfig { repositories: 400, statements_per_repo: 124, seed: 0x9178B }
    };
    for repo in github::generate_corpus(cfg) {
        let script = repo.script();
        check_one(&mut gh, &script, None);
    }
    rows.push(gh);

    // GlobaLeaks: the Fig 3 case-study trace with its AP-bearing database
    // attached, so the data-analysis phase runs too.
    let mut gl = empty_row("globaleaks");
    let script = globaleaks::sql_trace();
    check_one(&mut gl, &script, Some(globaleaks::build_ap_database(Scale::tiny())));
    rows.push(gl);

    // Kaggle: data-analysis-only databases; the schema script synthesized
    // from each database drives the parser + catalog front door.
    let mut kg = empty_row("kaggle");
    let specs = if quick { &kaggle::SPECS[..8] } else { kaggle::SPECS };
    for spec in specs {
        let db = kaggle::build(spec, 0xCA661E);
        let script = schema_script(&db);
        check_one(&mut kg, &script, Some(db));
    }
    rows.push(kg);

    // Dialect-tagged corpora: idiomatic scripts that would collide with
    // the tolerant-union front door (MySQL `$$` delimiters, `#`
    // comments) or raise the DELIMITER diagnostic (Postgres scripts
    // containing the word) — each checked under its own dialect, with the
    // same coverage gate as the clean corpora.
    let dcfg = if quick { DialectCorpusConfig::small() } else { DialectCorpusConfig::default() };
    let mut my = empty_dialect_row("mysqldump", Dialect::MySql);
    check_one(&mut my, &dialects::mysqldump_script(dcfg), None);
    rows.push(my);

    let mut pg = empty_dialect_row("plpgsql", Dialect::Postgres);
    check_one(&mut pg, &dialects::plpgsql_script(dcfg), None);
    rows.push(pg);

    rows
}

/// Render rows as an aligned console table.
pub fn render(rows: &[CorpusRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>12} {:>9} {:>8} {:>8} {:>9} {:>6} {:>9} {:>9} {:>6} {:>8}\n",
        "corpus", "dialect", "stmts", "uniques", "coverage", "degr", "detect", "MB/s", "fails",
        "floor"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>12} {:>9} {:>8} {:>8} {:>9.4} {:>6} {:>9} {:>9.2} {:>6} {:>8.2}\n",
            r.corpus,
            r.dialect,
            r.statements,
            r.unique_texts,
            r.parse_coverage(),
            r.degraded_statements,
            r.detections,
            r.mb_per_sec(),
            r.rule_failures,
            coverage_floor(r.corpus),
        ));
    }
    for r in rows {
        let kinds: Vec<String> = DiagKind::ALL
            .iter()
            .filter(|k| r.diag_counts[k.index()] > 0)
            .map(|k| format!("{} {}", k.name(), r.diag_counts[k.index()]))
            .collect();
        if !kinds.is_empty() {
            out.push_str(&format!("{:>12}: diagnostics: {}\n", r.corpus, kinds.join(", ")));
        }
    }
    out
}

/// Assert the CI gates: per-corpus parse-coverage floors, zero isolated
/// rule failures, and statement-level diagnostics that agree with the
/// coverage numbers. Panics (failing the driver) on violation.
pub fn assert_floors(rows: &[CorpusRow]) {
    for r in rows {
        let floor = coverage_floor(r.corpus);
        assert!(
            r.parse_coverage() >= floor,
            "{}: parse coverage {:.4} fell below the floor {:.2}",
            r.corpus,
            r.parse_coverage(),
            floor
        );
        assert_eq!(
            r.rule_failures, 0,
            "{}: built-in rules must never panic, {} unit(s) were isolated",
            r.corpus, r.rule_failures
        );
        // Every `parse-degraded` diagnostic is a statement that fell back
        // to `Other`, so it is counted among the degraded unique texts.
        let parse_degraded = r.diag_counts[DiagKind::ParseDegraded.index()];
        assert!(
            parse_degraded <= r.degraded_uniques,
            "{}: {parse_degraded} parse-degraded diagnostic(s) but only {} degraded unique text(s)",
            r.corpus,
            r.degraded_uniques
        );
    }
}

/// Render rows as a JSON document (written to `BENCH_corpus.json`).
pub fn to_json(rows: &[CorpusRow]) -> String {
    let mut out =
        String::from("{\n  \"experiment\": \"corpus_acceptance_matrix\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let diags: Vec<String> = DiagKind::ALL
            .iter()
            .map(|k| format!("\"{}\": {}", k.name(), r.diag_counts[k.index()]))
            .collect();
        out.push_str(&format!(
            "    {{\"corpus\": \"{}\", \"dialect\": \"{}\", \"statements\": {}, \
             \"unique_texts\": {}, \
             \"script_bytes\": {}, \"detections\": {}, \
             \"degraded_statements\": {}, \"degraded_uniques\": {}, \
             \"parse_coverage\": {:.6}, \"coverage_floor\": {:.2}, \
             \"rule_failures\": {}, \"micros\": {}, \"mb_per_sec\": {:.3}, \
             \"diagnostics\": {{{}}}}}{}\n",
            r.corpus,
            r.dialect,
            r.statements,
            r.unique_texts,
            r.script_bytes,
            r.detections,
            r.degraded_statements,
            r.degraded_uniques,
            r.parse_coverage(),
            coverage_floor(r.corpus),
            r.rule_failures,
            r.micros,
            r.mb_per_sec(),
            diags.join(", "),
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
    fn quick_matrix_meets_floors() {
        let rows = run(true);
        assert_eq!(rows.len(), 6);
        assert_floors(&rows);
        for r in &rows {
            assert!(r.statements > 0, "{}: corpus must not be empty", r.corpus);
        }
        let json = to_json(&rows);
        assert!(json.contains("\"corpus\": \"django\""));
        assert!(json.contains("\"corpus\": \"mysqldump\""));
        assert!(json.contains("\"dialect\": \"postgres\""));
        assert!(json.contains("parse_coverage"));
        assert!(!render(&rows).is_empty());
    }

    #[test]
    fn dialect_rows_hold_the_floor_without_degradation_noise() {
        let rows = run(true);
        for r in rows.iter().filter(|r| matches!(r.corpus, "mysqldump" | "plpgsql")) {
            assert!(
                r.parse_coverage() >= 0.95,
                "{}: coverage {:.4}",
                r.corpus,
                r.parse_coverage()
            );
            // `DELIMITER` is a plain word under Postgres: no
            // delimiter-fallback diagnostic may appear.
            if r.corpus == "plpgsql" {
                assert_eq!(
                    r.diag_counts[DiagKind::DelimiterFallbackSequential.index()],
                    0,
                    "plpgsql corpus must not trip the DELIMITER fallback"
                );
            }
        }
    }
}

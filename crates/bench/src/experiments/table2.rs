//! **Table 2 / Table 3 (GitHub column)** — detection comparison between
//! sqlcheck and dbdeo on the labelled query corpus (§8.1).
//!
//! For every statement the corpus generator knows the ground-truth AP
//! labels, so the manual analysis of the paper's Table 2 becomes an exact
//! computation: per AP kind we count detections found by sqlcheck only
//! (S), dbdeo only (D), by both, and split each tool-only column into
//! true/false positives against the labels.

use sqlcheck::{AntiPatternKind, ContextBuilder, DetectionConfig, Detector};
use sqlcheck_workload::github::{generate_corpus, CorpusConfig, Repository};
use std::collections::{BTreeMap, BTreeSet};

/// One Table 2 row.
#[derive(Debug, Clone, Default)]
pub struct Table2Row {
    /// Detections only sqlcheck made.
    pub s_only: usize,
    /// Detections only dbdeo made.
    pub d_only: usize,
    /// Detections both made.
    pub both: usize,
    /// True positives among sqlcheck-only detections.
    pub tp_s: usize,
    /// False positives among sqlcheck-only detections.
    pub fp_s: usize,
    /// True positives among dbdeo-only detections.
    pub tp_d: usize,
    /// False positives among dbdeo-only detections.
    pub fp_d: usize,
}

/// Aggregate precision/recall per tool.
#[derive(Debug, Clone, Default)]
pub struct Accuracy {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Accuracy {
    /// Precision.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }
}

/// Full experiment result.
#[derive(Debug, Clone, Default)]
pub struct Table2Result {
    /// Per-kind rows (kinds with any activity).
    pub rows: BTreeMap<AntiPatternKind, Table2Row>,
    /// sqlcheck aggregate accuracy (per (statement, kind) decisions).
    pub sqlcheck: Accuracy,
    /// sqlcheck accuracy per kind (kinds it detected or missed).
    pub sqlcheck_per_kind: BTreeMap<AntiPatternKind, Accuracy>,
    /// dbdeo aggregate accuracy.
    pub dbdeo: Accuracy,
    /// Per-kind detection totals: (dbdeo, sqlcheck-intra, sqlcheck-full).
    pub histogram: BTreeMap<AntiPatternKind, (usize, usize, usize)>,
    /// Total statements analysed.
    pub statements: usize,
}

/// Detection set: (statement index within repo, kind), per repository.
type DetSet = BTreeSet<(usize, AntiPatternKind)>;

fn sqlcheck_detections(repo: &Repository, intra_only: bool) -> DetSet {
    let script = repo.script();
    let ctx = ContextBuilder::new().add_script(&script).build();
    let cfg = if intra_only {
        DetectionConfig::intra_only()
    } else {
        DetectionConfig::default()
    };
    let report = Detector::new(cfg).detect(&ctx);
    // Detections anchored at tables/columns (inter-query rules) are mapped
    // back to the statement that created the table, so the comparison with
    // the per-statement labels stays apples-to-apples.
    let create_site = |table: &str| -> Option<usize> {
        ctx.statements.iter().position(|s| {
            matches!(&s.parsed.stmt, sqlcheck_parser::ast::Statement::CreateTable(ct)
                if ct.name.name_eq(table))
        })
    };
    report
        .detections
        .iter()
        .filter_map(|d| {
            let idx = d.statement_index().or_else(|| match &d.locus {
                sqlcheck::Locus::Table { table } => create_site(table),
                sqlcheck::Locus::Column { table, .. } => create_site(table),
                _ => None,
            })?;
            Some((idx, d.kind))
        })
        .collect()
}

fn dbdeo_detections(repo: &Repository) -> DetSet {
    sqlcheck_dbdeo::detect_script(&repo.script())
        .into_iter()
        .map(|d| (d.statement_index, d.kind))
        .collect()
}

fn truth(repo: &Repository) -> DetSet {
    repo.statements
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.labels.iter().map(move |k| (i, *k)))
        .collect()
}

/// Run the comparison over a generated corpus.
pub fn run(cfg: CorpusConfig) -> Table2Result {
    let corpus = generate_corpus(cfg);
    let mut result = Table2Result::default();

    for repo in &corpus {
        result.statements += repo.statements.len();
        let s_full = sqlcheck_detections(repo, false);
        let s_intra = sqlcheck_detections(repo, true);
        let d = dbdeo_detections(repo);
        let t = truth(repo);

        for key @ (_, kind) in s_full.union(&d) {
            let in_s = s_full.contains(key);
            let in_d = d.contains(key);
            let is_true = t.contains(key);
            let row = result.rows.entry(*kind).or_default();
            match (in_s, in_d) {
                (true, true) => row.both += 1,
                (true, false) => {
                    row.s_only += 1;
                    if is_true {
                        row.tp_s += 1;
                    } else {
                        row.fp_s += 1;
                    }
                }
                (false, true) => {
                    row.d_only += 1;
                    if is_true {
                        row.tp_d += 1;
                    } else {
                        row.fp_d += 1;
                    }
                }
                (false, false) => unreachable!(),
            }
        }

        // Aggregate accuracy per tool over all (statement, kind) decisions.
        for key @ (_, kind) in &s_full {
            let per_kind = result.sqlcheck_per_kind.entry(*kind).or_default();
            if t.contains(key) {
                result.sqlcheck.tp += 1;
                per_kind.tp += 1;
            } else {
                result.sqlcheck.fp += 1;
                per_kind.fp += 1;
            }
        }
        for key @ (_, kind) in &t {
            if !s_full.contains(key) {
                result.sqlcheck.fn_ += 1;
                result.sqlcheck_per_kind.entry(*kind).or_default().fn_ += 1;
            }
            if !d.contains(key) {
                result.dbdeo.fn_ += 1;
            }
        }
        for key in &d {
            if t.contains(key) {
                result.dbdeo.tp += 1;
            } else {
                result.dbdeo.fp += 1;
            }
        }

        // Histogram: dbdeo vs sqlcheck intra vs full.
        for (_, kind) in &d {
            result.histogram.entry(*kind).or_default().0 += 1;
        }
        for (_, kind) in &s_intra {
            result.histogram.entry(*kind).or_default().1 += 1;
        }
        for (_, kind) in &s_full {
            result.histogram.entry(*kind).or_default().2 += 1;
        }
    }
    result
}

/// sqlcheck's precision and recall floors on the `--quick` corpus (60
/// repositories of 60 statements, seed `0x9178B`): overall (`None`) and
/// per kind, each today's value cut to four decimals, so one more false
/// positive or false negative in any row fails [`check_floors`]. Overall
/// today: precision 1518/1582 (0.960), recall 1518/1520 (0.999).
pub const QUICK_FLOORS: [(Option<AntiPatternKind>, f64, f64); 14] = {
    use AntiPatternKind::*;
    [
        (None, 0.9595, 0.9986),
        (Some(MultiValuedAttribute), 0.6683, 1.0),
        (Some(NoPrimaryKey), 1.0, 1.0),
        (Some(DataInMetadata), 1.0, 1.0),
        (Some(AdjacencyList), 1.0, 1.0),
        (Some(GodTable), 1.0, 1.0),
        (Some(RoundingErrors), 1.0, 1.0),
        (Some(EnumeratedTypes), 1.0, 1.0),
        (Some(CloneTable), 1.0, 0.9891),
        (Some(ColumnWildcard), 1.0, 1.0),
        (Some(OrderingByRand), 1.0, 1.0),
        (Some(PatternMatching), 1.0, 1.0),
        (Some(ImplicitColumns), 1.0, 1.0),
        (Some(ReadablePassword), 1.0, 1.0),
    ]
};

/// Check sqlcheck's accuracy in `result` against `floors` (see
/// [`QUICK_FLOORS`]). The error names every row below its floor and
/// every kind sqlcheck reported that has no floor.
pub fn check_floors(
    result: &Table2Result,
    floors: &[(Option<AntiPatternKind>, f64, f64)],
) -> Result<(), String> {
    let mut short: Vec<String> = result
        .sqlcheck_per_kind
        .keys()
        .filter(|k| !floors.iter().any(|(f, ..)| *f == Some(**k)))
        .map(|k| format!("{}: no floor", k.name()))
        .collect();
    for &(kind, p, r) in floors {
        let a = match kind {
            Some(k) => result.sqlcheck_per_kind.get(&k).cloned().unwrap_or_default(),
            None => result.sqlcheck.clone(),
        };
        if a.precision() < p || a.recall() < r {
            short.push(format!(
                "{}: precision {:.4} (floor {p}), recall {:.4} (floor {r})",
                kind.map_or("overall", |k| k.name()),
                a.precision(),
                a.recall()
            ));
        }
    }
    if short.is_empty() {
        Ok(())
    } else {
        Err(short.join("; "))
    }
}

/// Render the Table 2 comparison.
pub fn render(result: &Table2Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
        "AP Name", "S", "D", "Both", "TP-S", "FP-S", "TP-D", "FP-D"
    ));
    let mut totals = Table2Row::default();
    for (kind, row) in &result.rows {
        out.push_str(&format!(
            "{:<28} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
            kind.name(),
            row.s_only,
            row.d_only,
            row.both,
            row.tp_s,
            row.fp_s,
            row.tp_d,
            row.fp_d
        ));
        totals.s_only += row.s_only;
        totals.d_only += row.d_only;
        totals.both += row.both;
        totals.tp_s += row.tp_s;
        totals.fp_s += row.fp_s;
        totals.tp_d += row.tp_d;
        totals.fp_d += row.fp_d;
    }
    out.push_str(&format!(
        "{:<28} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
        "Total:",
        totals.s_only,
        totals.d_only,
        totals.both,
        totals.tp_s,
        totals.fp_s,
        totals.tp_d,
        totals.fp_d
    ));
    out.push_str(&format!(
        "\nsqlcheck: precision {:.3}  recall {:.3}  (TP {} FP {} FN {})\n",
        result.sqlcheck.precision(),
        result.sqlcheck.recall(),
        result.sqlcheck.tp,
        result.sqlcheck.fp,
        result.sqlcheck.fn_
    ));
    out.push_str(&format!(
        "dbdeo:    precision {:.3}  recall {:.3}  (TP {} FP {} FN {})\n",
        result.dbdeo.precision(),
        result.dbdeo.recall(),
        result.dbdeo.tp,
        result.dbdeo.fp,
        result.dbdeo.fn_
    ));
    for (kind, a) in &result.sqlcheck_per_kind {
        out.push_str(&format!(
            "  {:<26} precision {:.4}  recall {:.4}  (TP {} FP {} FN {})\n",
            kind.name(),
            a.precision(),
            a.recall(),
            a.tp,
            a.fp,
            a.fn_
        ));
    }
    let fewer_fp = 1.0 - result.sqlcheck.fp as f64 / result.dbdeo.fp.max(1) as f64;
    let fewer_fn = 1.0 - result.sqlcheck.fn_ as f64 / result.dbdeo.fn_.max(1) as f64;
    out.push_str(&format!(
        "sqlcheck has {:.0}% fewer false positives and {:.0}% fewer false negatives than dbdeo\n",
        fewer_fp * 100.0,
        fewer_fn * 100.0
    ));
    out
}

/// Render the Table 3 GitHub columns (D vs S histogram).
pub fn render_histogram(result: &Table2Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>9} {:>9} {:>9}\n",
        "Anti-Pattern", "D", "S-intra", "S-full"
    ));
    let (mut td, mut ti, mut tf) = (0, 0, 0);
    for (kind, (d, si, sf)) in &result.histogram {
        out.push_str(&format!("{:<28} {:>9} {:>9} {:>9}\n", kind.name(), d, si, sf));
        td += d;
        ti += si;
        tf += sf;
    }
    out.push_str(&format!("{:<28} {:>9} {:>9} {:>9}\n", "Total:", td, ti, tf));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_result() -> Table2Result {
        run(CorpusConfig { repositories: 40, statements_per_repo: 50, seed: 77 })
    }

    #[test]
    fn sqlcheck_beats_dbdeo_on_both_axes() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = small_result();
        assert!(
            r.sqlcheck.precision() > r.dbdeo.precision(),
            "precision: sqlcheck {:.3} vs dbdeo {:.3}",
            r.sqlcheck.precision(),
            r.dbdeo.precision()
        );
        assert!(
            r.sqlcheck.recall() > r.dbdeo.recall(),
            "recall: sqlcheck {:.3} vs dbdeo {:.3}",
            r.sqlcheck.recall(),
            r.dbdeo.recall()
        );
        // The paper's headline: fewer FPs and fewer FNs than dbdeo.
        assert!(r.sqlcheck.fp < r.dbdeo.fp, "FPs: {} vs {}", r.sqlcheck.fp, r.dbdeo.fp);
        assert!(r.sqlcheck.fn_ < r.dbdeo.fn_, "FNs: {} vs {}", r.sqlcheck.fn_, r.dbdeo.fn_);
    }

    #[test]
    fn sqlcheck_detects_more_kinds_than_dbdeo() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = small_result();
        let s_kinds = r.histogram.iter().filter(|(_, (_, _, sf))| *sf > 0).count();
        let d_kinds = r.histogram.iter().filter(|(_, (d, _, _))| *d > 0).count();
        assert!(s_kinds > d_kinds, "sqlcheck {s_kinds} kinds vs dbdeo {d_kinds}");
    }

    #[test]
    fn intra_only_finds_more_but_noisier() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // The paper: intra-only finds 86656 (more, noisier); full finds
        // 63058 because inter-query context eliminates false positives.
        // Context analysis also *adds* kinds intra cannot see (Clone
        // Table, No Foreign Key, Index Over/Underuse), so the direction is
        // asserted per-kind: for every kind intra-only can detect, the
        // full configuration never reports more.
        let r = small_result();
        let mut some_kind_shrinks = false;
        for (kind, (_, si, sf)) in &r.histogram {
            if *si > 0 {
                assert!(sf <= si, "{kind}: full {sf} must not exceed intra {si}");
                some_kind_shrinks |= sf < si;
            }
        }
        assert!(some_kind_shrinks, "context analysis suppressed at least one FP family");
    }

    #[test]
    fn quick_floors_hold_and_catch_one_more_error() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run(CorpusConfig { repositories: 60, statements_per_repo: 60, seed: 0x9178B });
        assert_eq!(check_floors(&r, &QUICK_FLOORS), Ok(()));
        for kind in r.sqlcheck_per_kind.keys() {
            let mut worse = r.clone();
            worse.sqlcheck_per_kind.get_mut(kind).unwrap().fp += 1;
            assert!(check_floors(&worse, &QUICK_FLOORS).is_err(), "{kind}: one more FP");
            let mut worse = r.clone();
            worse.sqlcheck_per_kind.get_mut(kind).unwrap().fn_ += 1;
            assert!(check_floors(&worse, &QUICK_FLOORS).is_err(), "{kind}: one more FN");
        }
        let mut worse = r.clone();
        worse.sqlcheck.fp += 1;
        assert!(check_floors(&worse, &QUICK_FLOORS).is_err(), "overall: one more FP");
        worse = r;
        worse.sqlcheck.fn_ += 1;
        assert!(check_floors(&worse, &QUICK_FLOORS).is_err(), "overall: one more FN");
    }

    #[test]
    fn renders_are_nonempty() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = small_result();
        let t2 = render(&r);
        assert!(t2.contains("TP-S"));
        assert!(t2.contains("Total:"));
        let t3 = render_histogram(&r);
        assert!(t3.contains("S-full"));
    }
}

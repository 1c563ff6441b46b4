//! Inter-query detection rules (§4.1 ❷).
//!
//! These rules need the whole application context: the join graph, the
//! schema catalog, the workload profile, and (when present) data profiles.
//! They detect the APs no single statement can reveal — No Foreign Key,
//! Index Overuse/Underuse (Example 5), Clone Table — and apply the
//! paper's false-positive eliminators (e.g. the low-cardinality index
//! refinement of Fig 8c).

use crate::anti_pattern::AntiPatternKind;
use crate::context::Context;
use crate::detect::DetectionConfig;
use crate::report::{Detection, DetectionSource, Locus};

/// One inter-query rule, as a unit the engine runs on its own. All rules
/// share this signature so the phase can be sliced; the phase output is
/// each unit's output appended in [`RULES`] order.
pub(crate) type InterRule = fn(&Context, &DetectionConfig, &mut Vec<Detection>);

/// The inter-query rules in their canonical output order.
pub(crate) const RULES: &[InterRule] =
    &[no_foreign_key, index_underuse, index_overuse, clone_table];

/// Run the `unit`-th rule alone (the engine's phase slice).
pub(crate) fn detect_unit(unit: usize, ctx: &Context, cfg: &DetectionConfig) -> Vec<Detection> {
    let mut out = Vec::new();
    RULES[unit](ctx, cfg, &mut out);
    out
}

/// No Foreign Key (Example 3): the workload joins two tables on columns
/// with no declared FK between them, and one side is a primary key — the
/// classic unenforced one-to-many relationship.
fn no_foreign_key(ctx: &Context, _cfg: &DetectionConfig, out: &mut Vec<Detection>) {
    for edge in ctx.workload.join_edges.keys() {
        let (lt, lc) = (&edge.left.0, &edge.left.1);
        let (rt, rc) = (&edge.right.0, &edge.right.1);
        if lt == rt {
            continue; // self joins handled by AdjacencyList
        }
        let (Some(lti), Some(rti)) = (ctx.schema.table(lt), ctx.schema.table(rt)) else {
            continue; // tables unknown — cannot decide with confidence
        };
        let left_is_pk =
            lti.primary_key.len() == 1 && lti.primary_key[0].eq_ignore_ascii_case(lc);
        let right_is_pk =
            rti.primary_key.len() == 1 && rti.primary_key[0].eq_ignore_ascii_case(rc);
        if !(left_is_pk || right_is_pk) {
            continue;
        }
        if ctx.schema.fk_between(lt, lc, rt, rc) {
            continue;
        }
        // The referencing side is the non-PK side.
        let (ref_table, ref_col, target) =
            if left_is_pk { (rt, rc, lt) } else { (lt, lc, rt) };
        out.push(Detection {
            kind: AntiPatternKind::NoForeignKey,
            locus: Locus::Column { table: ref_table.clone(), column: ref_col.clone() },
            message: format!(
                "queries join {ref_table}.{ref_col} to {target}'s primary key but no foreign key is declared"
            ).into(),
            source: DetectionSource::InterQuery,
            span: None,
        });
    }
}

/// Index Underuse: a column carries equality/group-by traffic on a known
/// table with no index whose leading column matches. The data-analysis
/// refinement suppresses low-cardinality columns, where an index scan is
/// *slower* than a sequential scan (Fig 8c).
fn index_underuse(ctx: &Context, cfg: &DetectionConfig, out: &mut Vec<Detection>) {
    for (table, column, usage) in ctx.workload.iter_usage() {
        if usage.eq_predicates == 0 && usage.group_by == 0 {
            continue;
        }
        let Some(_tinfo) = ctx.schema.table(table) else { continue };
        if ctx.schema.has_index_on(table, column) {
            continue;
        }
        // Data refinement: low-cardinality columns don't benefit.
        if let Some(data) = &ctx.data {
            if let Some(tp) = data.table(table) {
                if let Some(cp) = tp.column(column) {
                    if tp.row_count >= cfg.data.min_rows
                        && cp.stats.distinct_ratio() < cfg.data.low_cardinality_ratio
                    {
                        continue; // index would be slower than a scan
                    }
                }
            }
        }
        out.push(Detection {
            kind: AntiPatternKind::IndexUnderuse,
            locus: Locus::Column { table: table.to_string(), column: column.to_string() },
            message: format!(
                "{} equality predicate(s) and {} GROUP BY use(s) on {table}.{column}, which has no index",
                usage.eq_predicates, usage.group_by
            ).into(),
            source: DetectionSource::InterQuery,
            span: None,
        });
    }
}

/// Index Overuse (Example 5): an index is flagged when the workload never
/// touches its leading column, or when it is a strict prefix of another
/// index (the composite already serves its queries).
fn index_overuse(ctx: &Context, _cfg: &DetectionConfig, out: &mut Vec<Detection>) {
    let indexes = &ctx.schema.indexes;
    for (i, idx) in indexes.iter().enumerate() {
        let leading = match idx.columns.first() {
            Some(c) => c,
            None => continue,
        };
        let used = ctx
            .workload
            .usage(&idx.table, leading)
            .map(|u| u.reads() > 0)
            .unwrap_or(false);
        let shadowed = indexes.iter().enumerate().any(|(j, other)| {
            i != j
                && other.table.eq_ignore_ascii_case(&idx.table)
                && other.columns.len() > idx.columns.len()
                && other
                    .columns
                    .iter()
                    .zip(&idx.columns)
                    .all(|(a, b)| a.eq_ignore_ascii_case(b))
        });
        if !used || shadowed {
            let reason = if shadowed {
                format!(
                    "index '{}' is a prefix of a wider composite index on {}",
                    idx.name, idx.table
                )
            } else {
                format!(
                    "index '{}' on {}({}) is never used by the workload but taxes every write",
                    idx.name,
                    idx.table,
                    idx.columns.join(", ")
                )
            };
            out.push(Detection {
                kind: AntiPatternKind::IndexOveruse,
                locus: Locus::Index { index: idx.name.to_string() },
                message: reason.into(),
                source: DetectionSource::InterQuery,
                span: None,
            });
        }
    }
}

/// Clone Table: several tables named `<stem>_N` / `<stem>N`.
fn clone_table(ctx: &Context, _cfg: &DetectionConfig, out: &mut Vec<Detection>) {
    use std::collections::BTreeMap;
    let mut stems: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for t in ctx.schema.tables() {
        let stripped = t.name.trim_end_matches(|c: char| c.is_ascii_digit());
        if stripped.len() < t.name.len() && !stripped.is_empty() {
            let stem = stripped.trim_end_matches('_').to_ascii_lowercase();
            if !stem.is_empty() {
                stems.entry(stem).or_default().push(t.name.to_string());
            }
        }
    }
    for (stem, tables) in stems {
        if tables.len() >= 2 {
            // One detection per member table so fixes and reports anchor
            // at the concrete object (and statement-level comparisons can
            // attribute them).
            for table in &tables {
                out.push(Detection {
                    kind: AntiPatternKind::CloneTable,
                    locus: Locus::Table { table: table.clone() },
                    message: format!(
                        "table '{table}' is one of {} clones of the '{stem}_N' pattern ({})",
                        tables.len(),
                        tables.join(", ")
                    ).into(),
                    source: DetectionSource::InterQuery,
                    span: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextBuilder;
    use crate::detect::Detector;

    fn kinds(sql: &str) -> Vec<AntiPatternKind> {
        let ctx = ContextBuilder::new().add_script(sql).build();
        Detector::default().detect(&ctx).kinds()
    }

    #[test]
    fn no_foreign_key_from_paper_example3() {
        // Example 3: Tenant / Questionnaire joined without an FK.
        let sql = "CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY, \
                     Zone_ID VARCHAR(30) NOT NULL, Active BOOLEAN);\
                   CREATE TABLE Questionnaire (Questionnaire_ID INTEGER PRIMARY KEY, \
                     Tenant_ID INTEGER, Name VARCHAR(30), Editable BOOLEAN);\
                   SELECT q.Name, q.Editable, t.Active FROM Questionnaire q \
                     JOIN Tenant t ON t.Tenant_ID = q.Tenant_ID WHERE q.Editable = true;";
        assert!(kinds(sql).contains(&AntiPatternKind::NoForeignKey));
    }

    #[test]
    fn fk_declared_suppresses_detection() {
        let sql = "CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY);\
                   CREATE TABLE Q (Q_ID INTEGER PRIMARY KEY, \
                     Tenant_ID INTEGER REFERENCES Tenant(Tenant_ID));\
                   SELECT * FROM Q JOIN Tenant t ON t.Tenant_ID = Q.Tenant_ID;";
        assert!(!kinds(sql).contains(&AntiPatternKind::NoForeignKey));
    }

    #[test]
    fn index_underuse_on_hot_predicate() {
        let sql = "CREATE TABLE t (id INT PRIMARY KEY, zone TEXT);\
                   SELECT * FROM t WHERE zone = 'Z1';\
                   SELECT * FROM t WHERE zone = 'Z2';";
        assert!(kinds(sql).contains(&AntiPatternKind::IndexUnderuse));
        let with_index = format!("{sql} CREATE INDEX iz ON t (zone);");
        assert!(!kinds(&with_index).contains(&AntiPatternKind::IndexUnderuse));
    }

    #[test]
    fn pk_predicate_is_not_underuse() {
        let sql = "CREATE TABLE t (id INT PRIMARY KEY);\
                   SELECT * FROM t WHERE id = 5;";
        assert!(!kinds(sql).contains(&AntiPatternKind::IndexUnderuse));
    }

    #[test]
    fn index_overuse_unused_index() {
        let sql = "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT);\
                   CREATE INDEX ia ON t (a);\
                   SELECT * FROM t WHERE id = 1;";
        assert!(kinds(sql).contains(&AntiPatternKind::IndexOveruse));
    }

    #[test]
    fn index_overuse_prefix_shadowing_from_example5() {
        // Example 5 workload 1: composite (Zone_ID, Active) makes the
        // single-column Zone_ID index redundant.
        let sql = "CREATE TABLE Tenant (Tenant_ID INT PRIMARY KEY, Zone_ID TEXT, Active BOOLEAN);\
                   CREATE INDEX idx_zone_actv ON Tenant (Zone_ID, Active);\
                   CREATE INDEX idx_zone ON Tenant (Zone_ID);\
                   SELECT Tenant_ID FROM Tenant WHERE Zone_ID = 'Z1' AND Active = 'True';";
        let ctx = ContextBuilder::new().add_script(sql).build();
        let report = Detector::default().detect(&ctx);
        let overused: Vec<_> = report
            .detections
            .iter()
            .filter(|d| d.kind == AntiPatternKind::IndexOveruse)
            .collect();
        assert!(
            overused.iter().any(|d| matches!(&d.locus, Locus::Index { index } if index == "idx_zone")),
            "prefix index idx_zone flagged: {overused:?}"
        );
        assert!(
            !overused
                .iter()
                .any(|d| matches!(&d.locus, Locus::Index { index } if index == "idx_zone_actv")),
            "the composite is used and not shadowed"
        );
    }

    #[test]
    fn used_index_not_flagged() {
        let sql = "CREATE TABLE t (id INT PRIMARY KEY, a INT);\
                   CREATE INDEX ia ON t (a);\
                   SELECT * FROM t WHERE a = 5;";
        assert!(!kinds(sql).contains(&AntiPatternKind::IndexOveruse));
    }

    #[test]
    fn clone_tables_detected() {
        let sql = "CREATE TABLE sales_2019 (id INT PRIMARY KEY);\
                   CREATE TABLE sales_2020 (id INT PRIMARY KEY);\
                   CREATE TABLE sales_2021 (id INT PRIMARY KEY);";
        assert!(kinds(sql).contains(&AntiPatternKind::CloneTable));
        assert!(!kinds("CREATE TABLE sales (id INT PRIMARY KEY)")
            .contains(&AntiPatternKind::CloneTable));
    }
}

//! Data-analysis detection rules (§4.2, Algorithm 3).
//!
//! These rules read the sampled column profiles in the data context. They
//! both *detect* the Data-category APs of Table 1 and *strengthen* query
//! detections (the MVA data rule "will correctly flag this column as
//! suffering from the MVA AP even if the query rules are unable to detect
//! it").

use crate::anti_pattern::AntiPatternKind;
use crate::context::{ColumnProfile, Context, TableProfile};
use crate::detect::intra::{address_like, external_storage_column, looks_like_token_list};
use crate::detect::DetectionConfig;
use crate::report::{Detection, DetectionSource, Locus};
use sqlcheck_minidb::value::{DataType, Value};

/// Run every data rule over **one** profiled table — the engine's phase
/// slice. Tables are independent under these rules, so the phase output
/// is each table's output appended in `data.tables()` order.
pub(crate) fn detect_table(
    table: &TableProfile,
    ctx: &Context,
    cfg: &DetectionConfig,
) -> Vec<Detection> {
    let _ = ctx;
    let mut out = Vec::new();
    if table.primary_key.is_empty() {
        out.push(col_detection(
            AntiPatternKind::NoPrimaryKey,
            table,
            None,
            format!("table '{}' has no primary key", table.name),
        ));
    } else if table.primary_key.len() == 1 && table.primary_key[0].eq_ignore_ascii_case("id") {
        out.push(col_detection(
            AntiPatternKind::GenericPrimaryKey,
            table,
            None,
            format!("table '{}' uses a generic 'id' primary key", table.name),
        ));
    }
    for col in &table.columns {
        multi_valued_attribute(table, col, cfg, &mut out);
        incorrect_data_type(table, col, cfg, &mut out);
        missing_timezone(table, col, &mut out);
        redundant_column(table, col, cfg, &mut out);
        enumerated_types(table, col, cfg, &mut out);
        denormalized_table(table, col, cfg, &mut out);
        no_domain_constraint(table, col, cfg, &mut out);
        external_data_storage(table, col, cfg, &mut out);
        rounding_errors(table, col, &mut out);
    }
    information_duplication(table, &mut out);
    data_in_metadata(table, &mut out);
    out
}

/// Data in Metadata (schema shape observed on the live database):
/// numbered column families like `tag1, tag2, tag3`.
fn data_in_metadata(table: &TableProfile, out: &mut Vec<Detection>) {
    use std::collections::BTreeMap;
    let mut stems: BTreeMap<String, usize> = BTreeMap::new();
    for col in &table.columns {
        let stripped = col.name.trim_end_matches(|c: char| c.is_ascii_digit());
        if stripped.len() < col.name.len() && !stripped.is_empty() {
            *stems
                .entry(stripped.trim_end_matches('_').to_ascii_lowercase())
                .or_default() += 1;
        }
    }
    for (stem, n) in stems {
        if n >= 2 {
            out.push(Detection {
                kind: AntiPatternKind::DataInMetadata,
                locus: Locus::Table { table: table.name.clone() },
                message: format!(
                    "table '{}' encodes data in {n} numbered '{stem}N' columns",
                    table.name
                ).into(),
                source: DetectionSource::DataAnalysis,
                span: None,
            });
        }
    }
}

fn col_detection(
    kind: AntiPatternKind,
    table: &TableProfile,
    col: Option<&str>,
    message: String,
) -> Detection {
    Detection {
        kind,
        locus: match col {
            Some(c) => Locus::Column { table: table.name.clone(), column: c.to_string() },
            None => Locus::Table { table: table.name.clone() },
        },
        message: message.into(),
        source: DetectionSource::DataAnalysis,
        span: None,
    }
}

/// Multi-Valued Attribute: a textual, non-key column whose sampled values
/// are mostly delimiter-separated token lists. Address-like columns are
/// excluded (the paper's stated false-positive source).
fn multi_valued_attribute(
    table: &TableProfile,
    col: &ColumnProfile,
    cfg: &DetectionConfig,
    out: &mut Vec<Detection>,
) {
    if col.dtype != DataType::Text || address_like(&col.name) {
        return;
    }
    if table.primary_key.iter().any(|k| k.eq_ignore_ascii_case(&col.name)) {
        return;
    }
    if table.row_count < cfg.data.min_rows {
        return;
    }
    let sample = &col.stats.sample;
    if sample.is_empty() {
        return;
    }
    let listy = sample
        .iter()
        .filter(|v| v.as_str().map(looks_like_token_list).unwrap_or(false))
        .count();
    let fraction = listy as f64 / sample.len() as f64;
    if fraction >= cfg.data.mva_fraction {
        out.push(col_detection(
            AntiPatternKind::MultiValuedAttribute,
            table,
            Some(&col.name),
            format!(
                "{:.0}% of sampled '{}' values are delimiter-separated lists",
                fraction * 100.0,
                col.name
            ),
        ));
    }
}

/// Incorrect Data Type: a TEXT column whose values overwhelmingly parse as
/// numbers.
fn incorrect_data_type(
    table: &TableProfile,
    col: &ColumnProfile,
    cfg: &DetectionConfig,
    out: &mut Vec<Detection>,
) {
    if col.dtype != DataType::Text || table.row_count < cfg.data.min_rows {
        return;
    }
    let sample = &col.stats.sample;
    if sample.is_empty() {
        return;
    }
    let numeric = sample
        .iter()
        .filter(|v| {
            v.as_str()
                .map(|s| {
                    let t = s.trim();
                    !t.is_empty() && (t.parse::<i64>().is_ok() || t.parse::<f64>().is_ok())
                })
                .unwrap_or(false)
        })
        .count();
    let fraction = numeric as f64 / sample.len() as f64;
    if fraction >= cfg.data.wrong_type_fraction {
        out.push(col_detection(
            AntiPatternKind::IncorrectDataType,
            table,
            Some(&col.name),
            format!(
                "{:.0}% of sampled '{}' values are numeric but the column is TEXT",
                fraction * 100.0,
                col.name
            ),
        ));
    }
}

/// Missing Timezone: a timestamp column declared without timezone.
fn missing_timezone(table: &TableProfile, col: &ColumnProfile, out: &mut Vec<Detection>) {
    if col.dtype == DataType::Timestamp && !col.with_timezone {
        out.push(col_detection(
            AntiPatternKind::MissingTimezone,
            table,
            Some(&col.name),
            format!("date-time column '{}' stores no timezone", col.name),
        ));
    }
}

/// Redundant Column: all NULL or a single constant value.
fn redundant_column(
    table: &TableProfile,
    col: &ColumnProfile,
    cfg: &DetectionConfig,
    out: &mut Vec<Detection>,
) {
    if table.row_count < cfg.data.min_rows {
        return;
    }
    if col.stats.null_count == col.stats.row_count {
        out.push(col_detection(
            AntiPatternKind::RedundantColumn,
            table,
            Some(&col.name),
            format!("column '{}' is entirely NULL", col.name),
        ));
    } else if col.stats.is_constant() {
        out.push(col_detection(
            AntiPatternKind::RedundantColumn,
            table,
            Some(&col.name),
            format!(
                "column '{}' holds a single constant value ({})",
                col.name,
                col.stats.min.as_ref().map(|v| v.to_string()).unwrap_or_default()
            ),
        ));
    }
}

/// Enumerated Types (Example 4): the ratio of distinct values to tuples is
/// below the configured threshold and the distinct set is small — whether
/// or not a CHECK constraint already encodes it.
fn enumerated_types(
    table: &TableProfile,
    col: &ColumnProfile,
    cfg: &DetectionConfig,
    out: &mut Vec<Detection>,
) {
    if col.dtype != DataType::Text || table.row_count < cfg.data.min_rows {
        return;
    }
    if col.stats.is_constant() {
        return; // RedundantColumn's territory
    }
    let constrained =
        table.checked_columns.iter().any(|c| c.eq_ignore_ascii_case(&col.name));
    let ratio = col.stats.distinct_ratio();
    let enum_like = col.stats.distinct_count >= 2
        && col.stats.distinct_count <= cfg.data.enum_max_distinct
        && ratio <= cfg.data.enum_distinct_ratio;
    if constrained || enum_like {
        out.push(col_detection(
            AntiPatternKind::EnumeratedTypes,
            table,
            Some(&col.name),
            if constrained {
                format!("CHECK constraint pins '{}' to a fixed value set", col.name)
            } else {
                format!(
                    "'{}' has {} distinct values over {} rows (ratio {:.4}) — an implicit enum",
                    col.name, col.stats.distinct_count, table.row_count, ratio
                )
            },
        ));
    }
}

/// Denormalized Table: a textual column with many repeated values that is
/// clearly not an enum (too many distinct values for that).
fn denormalized_table(
    table: &TableProfile,
    col: &ColumnProfile,
    cfg: &DetectionConfig,
    out: &mut Vec<Detection>,
) {
    if col.dtype != DataType::Text || table.row_count < cfg.data.min_rows {
        return;
    }
    // A declared FK means the repeated values ARE the normalisation.
    if table.foreign_key_columns.iter().any(|c| c.eq_ignore_ascii_case(&col.name)) {
        return;
    }
    let ratio = col.stats.distinct_ratio();
    if col.stats.distinct_count > cfg.data.enum_max_distinct && ratio <= 0.1 {
        out.push(col_detection(
            AntiPatternKind::DenormalizedTable,
            table,
            Some(&col.name),
            format!(
                "'{}' repeats {} distinct values across {} rows — candidates for a lookup table",
                col.name, col.stats.distinct_count, table.row_count
            ),
        ));
    }
}

/// No Domain Constraint: an integer column whose observed values live in a
/// small bounded range (ratings, scores) with no CHECK protecting it.
fn no_domain_constraint(
    table: &TableProfile,
    col: &ColumnProfile,
    cfg: &DetectionConfig,
    out: &mut Vec<Detection>,
) {
    if col.dtype != DataType::Int || table.row_count < cfg.data.min_rows {
        return;
    }
    if table.checked_columns.iter().any(|c| c.eq_ignore_ascii_case(&col.name)) {
        return;
    }
    if table.primary_key.iter().any(|k| k.eq_ignore_ascii_case(&col.name)) {
        return;
    }
    // A foreign key already constrains the domain to the referenced set.
    if table.foreign_key_columns.iter().any(|c| c.eq_ignore_ascii_case(&col.name)) {
        return;
    }
    let (Some(Value::Int(min)), Some(Value::Int(max))) = (&col.stats.min, &col.stats.max)
    else {
        return;
    };
    let bounded = *min >= 0 && *max <= 10 && (*max - *min) >= 1;
    let domain_name = {
        let n = col.name.to_ascii_lowercase();
        ["rating", "score", "stars", "grade", "level", "rank", "priority"]
            .iter()
            .any(|k| n.contains(k))
    };
    if bounded && (domain_name || col.stats.distinct_count <= 11) {
        out.push(col_detection(
            AntiPatternKind::NoDomainConstraint,
            table,
            Some(&col.name),
            format!(
                "'{}' values span [{min}, {max}] but no CHECK constraint enforces the domain",
                col.name
            ),
        ));
    }
}

/// External Data Storage: path-named textual column whose sampled values
/// look like filesystem paths or URLs.
fn external_data_storage(
    table: &TableProfile,
    col: &ColumnProfile,
    cfg: &DetectionConfig,
    out: &mut Vec<Detection>,
) {
    if col.dtype != DataType::Text || table.row_count < cfg.data.min_rows {
        return;
    }
    let named = external_storage_column(&col.name);
    let sample = &col.stats.sample;
    if sample.is_empty() {
        return;
    }
    let pathy = sample
        .iter()
        .filter(|v| {
            v.as_str()
                .map(|s| {
                    s.starts_with('/')
                        || s.starts_with("http://")
                        || s.starts_with("https://")
                        || s.contains(":\\")
                })
                .unwrap_or(false)
        })
        .count();
    if named && pathy as f64 / sample.len() as f64 >= 0.5 {
        out.push(col_detection(
            AntiPatternKind::ExternalDataStorage,
            table,
            Some(&col.name),
            format!("'{}' stores file paths/URLs instead of content", col.name),
        ));
    }
}

/// Rounding Errors: FLOAT columns observed in the live schema.
fn rounding_errors(table: &TableProfile, col: &ColumnProfile, out: &mut Vec<Detection>) {
    if col.dtype == DataType::Float {
        out.push(col_detection(
            AntiPatternKind::RoundingErrors,
            table,
            Some(&col.name),
            format!("'{}' stores fractional data in binary floating point", col.name),
        ));
    }
}

/// Information Duplication: column pairs where one is derived from the
/// other. Detected via (a) derivation-suggestive name pairs (`age` next to
/// a birth-date column, `total`/`sum` next to parts) and (b) statistically
/// identical columns (same distinct/null counts and min/max).
fn information_duplication(table: &TableProfile, out: &mut Vec<Detection>) {
    let lower: Vec<String> =
        table.columns.iter().map(|c| c.name.to_ascii_lowercase()).collect();
    // (a) name pairs
    let has = |pred: &dyn Fn(&str) -> bool| lower.iter().any(|n| pred(n));
    let age = lower.iter().find(|n| *n == "age" || n.ends_with("_age"));
    if let Some(age_col) = age {
        if has(&|n| n.contains("birth") || n.contains("dob")) {
            out.push(col_detection(
                AntiPatternKind::InformationDuplication,
                table,
                Some(age_col),
                format!("'{age_col}' duplicates information derivable from the birth-date column"),
            ));
        }
    }
    // (b) statistically identical column pairs
    for i in 0..table.columns.len() {
        for j in (i + 1)..table.columns.len() {
            let (a, b) = (&table.columns[i], &table.columns[j]);
            if a.dtype != b.dtype || a.stats.row_count < 20 {
                continue;
            }
            let same = a.stats.distinct_count == b.stats.distinct_count
                && a.stats.null_count == b.stats.null_count
                && a.stats.min == b.stats.min
                && a.stats.max == b.stats.max
                && a.stats.distinct_count > 1
                && a.stats.sample == b.stats.sample;
            if same {
                out.push(col_detection(
                    AntiPatternKind::InformationDuplication,
                    table,
                    Some(&b.name),
                    format!("'{}' appears to duplicate '{}'", b.name, a.name),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ContextBuilder, DataAnalysisConfig};
    use crate::detect::Detector;
    use sqlcheck_minidb::prelude::*;

    fn analyze(db: Database) -> crate::report::Report {
        let ctx = ContextBuilder::new()
            .with_database(db, DataAnalysisConfig::default())
            .build();
        Detector::default().detect(&ctx)
    }

    fn text_table(name: &str, col: &str, values: Vec<String>) -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(name)
                .column(Column::new("pk", DataType::Int).not_null())
                .column(Column::new(col, DataType::Text))
                .primary_key(&["pk"]),
        )
        .unwrap();
        for (i, v) in values.into_iter().enumerate() {
            db.insert(name, vec![Value::Int(i as i64), Value::text(v)]).unwrap();
        }
        db
    }

    #[test]
    fn mva_data_rule_fires_on_token_lists() {
        let vals = (0..40).map(|i| format!("U{i},U{}", i + 1)).collect();
        let r = analyze(text_table("Tenants", "User_IDs", vals));
        assert!(r.count(AntiPatternKind::MultiValuedAttribute) >= 1);
    }

    #[test]
    fn mva_data_rule_skips_addresses() {
        let vals = (0..40).map(|i| format!("{i} Main St, Springfield, IL")).collect();
        let r = analyze(text_table("Users", "address", vals));
        assert_eq!(r.count(AntiPatternKind::MultiValuedAttribute), 0);
    }

    #[test]
    fn incorrect_data_type_numeric_text() {
        let vals = (0..40).map(|i| format!("{}", i * 3)).collect();
        let r = analyze(text_table("T", "amount", vals));
        assert_eq!(r.count(AntiPatternKind::IncorrectDataType), 1);
    }

    #[test]
    fn missing_timezone_flagged() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("ev")
                .column(Column::new("id", DataType::Int).not_null())
                .column(Column::new("at", DataType::Timestamp))
                .column(Column::new("at_tz", DataType::Timestamp).with_timezone())
                .primary_key(&["id"]),
        )
        .unwrap();
        db.insert("ev", vec![Value::Int(1), Value::Timestamp(0), Value::Timestamp(0)])
            .unwrap();
        let r = analyze(db);
        let tz: Vec<_> = r
            .detections
            .iter()
            .filter(|d| d.kind == AntiPatternKind::MissingTimezone)
            .collect();
        assert_eq!(tz.len(), 1);
        assert!(tz[0].message.contains("'at'"));
    }

    #[test]
    fn redundant_column_constant_and_all_null() {
        let vals = vec!["en-us".to_string(); 30];
        let r = analyze(text_table("T", "locale", vals));
        assert_eq!(r.count(AntiPatternKind::RedundantColumn), 1);

        let mut db = Database::new();
        db.create_table(
            TableSchema::new("n")
                .column(Column::new("id", DataType::Int).not_null())
                .column(Column::new("unused", DataType::Text))
                .primary_key(&["id"]),
        )
        .unwrap();
        for i in 0..30 {
            db.insert("n", vec![Value::Int(i), Value::Null]).unwrap();
        }
        let r = analyze(db);
        assert_eq!(r.count(AntiPatternKind::RedundantColumn), 1);
    }

    #[test]
    fn enumerated_types_low_cardinality() {
        let vals = (0..60).map(|i| format!("R{}", i % 3)).collect();
        let r = analyze(text_table("U", "role", vals));
        assert!(r.count(AntiPatternKind::EnumeratedTypes) >= 1);
    }

    #[test]
    fn denormalized_table_many_repeats() {
        // 40 distinct cities over 2000 rows: ratio 0.02, distinct > 16.
        let vals = (0..2000).map(|i| format!("city_{}", i % 40)).collect();
        let r = analyze(text_table("O", "city", vals));
        assert!(r.count(AntiPatternKind::DenormalizedTable) >= 1);
    }

    #[test]
    fn no_domain_constraint_rating() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("review")
                .column(Column::new("id", DataType::Int).not_null())
                .column(Column::new("rating", DataType::Int))
                .primary_key(&["id"]),
        )
        .unwrap();
        for i in 0..50 {
            db.insert("review", vec![Value::Int(i), Value::Int(1 + i % 5)]).unwrap();
        }
        let r = analyze(db);
        assert_eq!(r.count(AntiPatternKind::NoDomainConstraint), 1);
    }

    #[test]
    fn domain_constraint_present_suppresses() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("review")
                .column(Column::new("id", DataType::Int).not_null())
                .column(Column::new("rating", DataType::Int))
                .primary_key(&["id"])
                .check(Check::Range {
                    name: "r".into(),
                    column: "rating".into(),
                    min: Value::Int(1),
                    max: Value::Int(5),
                }),
        )
        .unwrap();
        for i in 0..50 {
            db.insert("review", vec![Value::Int(i), Value::Int(1 + i % 5)]).unwrap();
        }
        let r = analyze(db);
        assert_eq!(r.count(AntiPatternKind::NoDomainConstraint), 0);
    }

    #[test]
    fn external_data_storage_paths() {
        let vals = (0..30).map(|i| format!("/var/uploads/photo_{i}.jpg")).collect();
        let r = analyze(text_table("P", "photo_path", vals));
        assert!(r.count(AntiPatternKind::ExternalDataStorage) >= 1);
    }

    #[test]
    fn information_duplication_age_and_dob() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("person")
                .column(Column::new("id", DataType::Int).not_null())
                .column(Column::new("birth_date", DataType::Timestamp))
                .column(Column::new("age", DataType::Int))
                .primary_key(&["id"]),
        )
        .unwrap();
        for i in 0..25 {
            db.insert(
                "person",
                vec![Value::Int(i), Value::Timestamp(i * 1000), Value::Int(30 + i % 3)],
            )
            .unwrap();
        }
        let r = analyze(db);
        assert!(r.count(AntiPatternKind::InformationDuplication) >= 1);
    }

    #[test]
    fn small_tables_do_not_trigger_distribution_rules() {
        let vals = vec!["a,b".to_string(); 3]; // below min_rows
        let r = analyze(text_table("tiny", "vals", vals));
        assert_eq!(r.count(AntiPatternKind::MultiValuedAttribute), 0);
    }
}

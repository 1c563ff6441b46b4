//! # sqlcheck-dbdeo
//!
//! A faithful re-implementation of **dbdeo** (Sharma et al., ICSE 2018) as
//! the comparison baseline of the SQLCheck paper (§8.1).
//!
//! dbdeo performs *regex-style static analysis over raw statement text* —
//! no parse tree, no application context, no data analysis. That design
//! yields exactly the behaviour Table 2 documents:
//!
//! * it supports only **11 AP types**;
//! * it misses variants sqlcheck's richer rules catch (false negatives —
//!   e.g. CHECK IN-list enums, word-boundary MVA patterns, `ALTER TABLE`
//!   primary keys);
//! * its context-free text matching over-fires (false positives — e.g.
//!   every `LIKE` flags Pattern Matching, prefix patterns included; string
//!   literal contents are not distinguished from syntax).
//!
//! The detection surface is intentionally crude; do not "improve" it, its
//! crudeness *is* the baseline being reproduced.

#![warn(missing_docs)]

use sqlcheck::AntiPatternKind;
use sqlcheck_parser::splitter::split;
use sqlcheck_parser::Dialect;

/// One dbdeo detection: an AP kind anchored at a statement index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbdeoDetection {
    /// Detected anti-pattern kind (one of the 11 supported).
    pub kind: AntiPatternKind,
    /// Statement index in the analysed script.
    pub statement_index: usize,
    /// The matched text fragment (evidence).
    pub evidence: String,
}

/// Run dbdeo over a whole script.
pub fn detect_script(script: &str) -> Vec<DbdeoDetection> {
    split(script, Dialect::Generic)
        .iter()
        .enumerate()
        .flat_map(|(i, stmt)| detect_statement(i, stmt.text()))
        .collect()
}

/// Run dbdeo over one statement's raw text.
pub fn detect_statement(index: usize, text: &str) -> Vec<DbdeoDetection> {
    let lower = collapse_ws(&text.to_ascii_lowercase());
    let mut out = Vec::new();
    let mut push = |kind: AntiPatternKind, evidence: &str| {
        out.push(DbdeoDetection { kind, statement_index: index, evidence: evidence.to_string() })
    };

    // --- Multi-Valued Attribute: the paper quotes dbdeo's actual regex:
    //     (id\s+regexp)|(id\s+like)
    if lower.contains("id regexp") || lower.contains("id like") || lower.contains("ids like") {
        push(AntiPatternKind::MultiValuedAttribute, "id ~ LIKE/REGEXP");
    }

    // --- Pattern Matching: ANY like/regexp keyword, prefix patterns and
    //     string contents included (the all-FP column of Table 2).
    if word(&lower, "like") || word(&lower, "regexp") || word(&lower, "rlike") {
        push(AntiPatternKind::PatternMatching, "LIKE/REGEXP present");
    }

    // --- No Primary Key: CREATE TABLE text without the literal phrase.
    if lower.starts_with("create table") && !lower.contains("primary key") {
        push(AntiPatternKind::NoPrimaryKey, "CREATE TABLE without PRIMARY KEY");
    }

    // --- God Table: comma count in a CREATE TABLE (counts constraint
    //     clauses and type args too — an FP source).
    if lower.starts_with("create table") {
        let commas = lower.matches(',').count();
        if commas + 1 >= 10 {
            push(AntiPatternKind::GodTable, "many commas in CREATE TABLE");
        }
    }

    // --- Enumerated Types: the substring `enum(` only; CHECK IN-lists are
    //     missed (FN), `enum` inside identifiers/strings matches (FP).
    if lower.contains("enum(") || lower.contains("enum (") {
        push(AntiPatternKind::EnumeratedTypes, "enum( literal");
    }

    // --- Rounding Errors: the words float/real/double anywhere in DDL.
    if (lower.starts_with("create table") || lower.starts_with("alter table"))
        && (word(&lower, "float") || word(&lower, "real") || word(&lower, "double"))
    {
        push(AntiPatternKind::RoundingErrors, "float/real/double keyword");
    }

    // --- Data in Metadata: identifiers carrying digit suffixes anywhere in
    //     the statement (values and table names alike — a big FP source).
    if has_numbered_identifier(&lower) {
        push(AntiPatternKind::DataInMetadata, "identifier with numeric suffix");
    }

    // --- Clone Table: a CREATE TABLE whose own name ends in digits. One
    //     statement suffices for dbdeo (no cross-statement grouping).
    if lower.starts_with("create table") {
        if let Some(name) = create_table_name(&lower) {
            if name.chars().last().map(|c| c.is_ascii_digit()).unwrap_or(false) {
                push(AntiPatternKind::CloneTable, "numbered table name");
            }
        }
    }

    // --- Adjacency List: the canonical column names, as plain substrings.
    if lower.contains("parent_id") || lower.contains("manager_id") || lower.contains("mgr_id") {
        push(AntiPatternKind::AdjacencyList, "parent/manager id column");
    }

    // --- Index Overuse: several indexes created in one statement batch is
    //     invisible to dbdeo; it flags composite indexes with many columns.
    if (lower.starts_with("create index") || lower.starts_with("create unique index"))
        && lower.matches(',').count() >= 3
    {
        push(AntiPatternKind::IndexOveruse, "wide composite index");
    }

    // --- Index Underuse: a SELECT with a WHERE over an OR-disjunction
    //     (heuristic: such predicates rarely have index support).
    if lower.starts_with("select") && lower.contains(" where ") && lower.contains(" or ") {
        push(AntiPatternKind::IndexUnderuse, "OR-predicate select");
    }

    out
}

/// Aggregate detections per AP kind (the shape of Table 3's `D` column).
pub fn histogram(detections: &[DbdeoDetection]) -> Vec<(AntiPatternKind, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for d in detections {
        *counts.entry(d.kind).or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

fn collapse_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_ws = false;
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_ws {
                out.push(' ');
            }
            last_ws = true;
        } else {
            out.push(c);
            last_ws = false;
        }
    }
    out
}

/// Word-boundary substring check (ASCII).
fn word(haystack: &str, needle: &str) -> bool {
    let hb = haystack.as_bytes();
    let mut start = 0;
    while let Some(p) = haystack[start..].find(needle) {
        let at = start + p;
        let before = at == 0 || !(hb[at - 1].is_ascii_alphanumeric() || hb[at - 1] == b'_');
        let end = at + needle.len();
        let after = end >= hb.len() || !(hb[end].is_ascii_alphanumeric() || hb[end] == b'_');
        if before && after {
            return true;
        }
        start = at + 1;
        if start >= haystack.len() {
            break;
        }
    }
    false
}

fn has_numbered_identifier(lower: &str) -> bool {
    // Two or more identifiers sharing a stem with different digit suffixes.
    let mut stems: std::collections::BTreeMap<&str, std::collections::BTreeSet<&str>> =
        Default::default();
    for tok in lower.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        if tok.len() < 2 {
            continue;
        }
        let stripped = tok.trim_end_matches(|c: char| c.is_ascii_digit());
        if stripped.len() < tok.len() && stripped.len() >= 2 {
            stems.entry(stripped).or_default().insert(tok);
        }
    }
    stems.values().any(|set| set.len() >= 2)
}

fn create_table_name(lower: &str) -> Option<&str> {
    let rest = lower.strip_prefix("create table")?.trim_start();
    let rest = rest.strip_prefix("if not exists").unwrap_or(rest).trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .unwrap_or(rest.len());
    if end == 0 {
        None
    } else {
        Some(&rest[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<AntiPatternKind> {
        detect_script(sql).into_iter().map(|d| d.kind).collect()
    }

    #[test]
    fn supports_only_dbdeo_kinds() {
        let corpus = "CREATE TABLE t1 (a FLOAT, b ENUM('x'), parent_id INT);\
                      SELECT * FROM t WHERE id LIKE '%x%' OR a = 1;\
                      CREATE INDEX i ON t (a, b, c, d);";
        for d in detect_script(corpus) {
            assert!(d.kind.dbdeo_supported(), "{:?} not a dbdeo kind", d.kind);
        }
    }

    #[test]
    fn pattern_matching_over_fires_on_prefix_like() {
        // sqlcheck knows 'x%' can use an index; dbdeo flags it anyway (FP).
        assert!(kinds("SELECT * FROM t WHERE a LIKE 'x%'")
            .contains(&AntiPatternKind::PatternMatching));
    }

    #[test]
    fn enum_check_in_list_is_a_false_negative() {
        // dbdeo misses the CHECK IN-list encoding of enumerated types.
        let k = kinds("ALTER TABLE u ADD CONSTRAINT c CHECK (role IN ('R1','R2'))");
        assert!(!k.contains(&AntiPatternKind::EnumeratedTypes));
        // ...but catches the ENUM( spelling.
        assert!(kinds("CREATE TABLE u (role ENUM('a','b'))")
            .contains(&AntiPatternKind::EnumeratedTypes));
    }

    #[test]
    fn no_pk_misses_alter_table_fix() {
        // dbdeo has no cross-statement context: the ALTER doesn't help.
        let k = kinds(
            "CREATE TABLE t (a INT); ALTER TABLE t ADD CONSTRAINT pk PRIMARY KEY (a);",
        );
        assert!(k.contains(&AntiPatternKind::NoPrimaryKey), "context-free FP");
    }

    #[test]
    fn mva_regex_matches_paper_quoted_pattern() {
        assert!(kinds("SELECT * FROM t WHERE user_ids LIKE '%u1%'")
            .contains(&AntiPatternKind::MultiValuedAttribute));
        // word-boundary variant dbdeo misses unless 'id like' appears
        let k = kinds("SELECT * FROM t WHERE members REGEXP '[[:<:]]U1[[:>:]]'");
        assert!(!k.contains(&AntiPatternKind::MultiValuedAttribute), "variant FN");
    }

    #[test]
    fn clone_table_single_statement() {
        assert!(kinds("CREATE TABLE sales_2020 (id INT PRIMARY KEY)")
            .contains(&AntiPatternKind::CloneTable));
    }

    #[test]
    fn adjacency_list_substring() {
        assert!(kinds("CREATE TABLE emp (id INT PRIMARY KEY, parent_id INT)")
            .contains(&AntiPatternKind::AdjacencyList));
    }

    #[test]
    fn histogram_groups() {
        let dets = detect_script(
            "SELECT * FROM a WHERE x LIKE '%1%'; SELECT * FROM b WHERE y LIKE '%2%';",
        );
        let h = histogram(&dets);
        let pm = h
            .iter()
            .find(|(k, _)| *k == AntiPatternKind::PatternMatching)
            .map(|(_, n)| *n)
            .unwrap();
        assert_eq!(pm, 2);
    }

    #[test]
    fn rounding_errors_word_boundary() {
        assert!(kinds("CREATE TABLE t (p FLOAT)").contains(&AntiPatternKind::RoundingErrors));
        assert!(!kinds("CREATE TABLE t (floaty INT)")
            .contains(&AntiPatternKind::RoundingErrors));
    }

    #[test]
    fn god_table_counts_commas_not_columns() {
        // 8 columns + 2 constraints = 10 comma-separated elements: FP.
        let cols: Vec<String> = (0..8).map(|i| format!("c{i} INT")).collect();
        let sql = format!(
            "CREATE TABLE t ({}, PRIMARY KEY (c0), UNIQUE (c1))",
            cols.join(", ")
        );
        assert!(kinds(&sql).contains(&AntiPatternKind::GodTable));
    }
}

//! Intra-query detection rules (§4.1 ❶).
//!
//! Each rule inspects one statement (plus, in contextual mode, the
//! application context for false-positive suppression). Rules are plain
//! functions over the annotated parse tree — "general-purpose functions
//! that leverage the overall context of the application".

use crate::anti_pattern::AntiPatternKind;
use crate::context::{AnalyzedStatement, Context};
use crate::detect::DetectionConfig;
use crate::report::{Detection, DetectionSource, Locus, Span};
use sqlcheck_parser::annotate::{annotate, Annotations};
use sqlcheck_parser::arena::{ExprArena, ExprId};
use sqlcheck_parser::IStr;
use sqlcheck_parser::ast::*;

/// Run every intra-query rule against one statement, fanning into the
/// body sub-statements of compound DDL (`CREATE TRIGGER` / `CREATE
/// PROCEDURE` / `CREATE FUNCTION`): a `SELECT *` or `ORDER BY RAND()`
/// inside a trigger body is still an anti-pattern. Body detections carry
/// the enclosing statement's locus plus a **statement-relative** span
/// pointing into the body (the engine's fan-out rebases it onto each
/// occurrence's source range).
pub fn detect_statement(
    idx: usize,
    stmt: &AnalyzedStatement,
    ctx: &Context,
    cfg: &DetectionConfig,
    use_context: bool,
) -> Vec<Detection> {
    let arena = &stmt.parsed.arena;
    let mut out = detect_one(idx, &stmt.parsed.stmt, arena, &stmt.ann, ctx, cfg, use_context, None);
    for b in stmt.parsed.stmt.body() {
        // The sub-statement gets its own annotation digest, so per-
        // statement rules (pattern predicates, wildcard, …) see only the
        // body statement — not the aggregated trigger digest. Computed
        // here (once per unique text on the batch path) rather than
        // stored in the AST. Body sub-statements share the enclosing
        // statement's arena.
        let sub_ann = annotate(&b.stmt, arena);
        out.extend(detect_one(idx, &b.stmt, arena, &sub_ann, ctx, cfg, use_context, Some(b.span)));
    }
    out
}

/// The per-statement rule set. `body_span` is `Some` when `stmt` is a
/// body sub-statement of a compound statement at index `idx`.
#[allow(clippy::too_many_arguments)]
fn detect_one(
    idx: usize,
    stmt: &Statement,
    arena: &ExprArena,
    ann: &Annotations,
    ctx: &Context,
    cfg: &DetectionConfig,
    use_context: bool,
    body_span: Option<Span>,
) -> Vec<Detection> {
    let mut out = Vec::new();
    let mut push = |kind: AntiPatternKind, message: String| {
        out.push(Detection {
            kind,
            locus: Locus::Statement { index: idx },
            message: message.into(),
            source: DetectionSource::IntraQuery,
            span: body_span,
        });
    };

    match stmt {
        Statement::Select(sel) => {
            select_rules(sel, arena, ann, ctx, cfg, use_context, &mut push);
        }
        Statement::Insert(ins) => insert_rules(ins, arena, &mut push),
        Statement::Update(upd) => update_rules(upd, arena, ctx, use_context, &mut push),
        Statement::CreateTable(ct) => create_table_rules(ct, ctx, cfg, use_context, &mut push),
        Statement::AlterTable(at) => alter_rules(at, &mut push),
        _ => {}
    }
    out
}

// ---------------------------------------------------------------------------
// SELECT rules
// ---------------------------------------------------------------------------

fn select_rules(
    sel: &Select,
    arena: &ExprArena,
    ann: &Annotations,
    ctx: &Context,
    cfg: &DetectionConfig,
    use_context: bool,
    push: &mut impl FnMut(AntiPatternKind, String),
) {
    // Column Wildcard Usage: SELECT * breaks on refactoring.
    if sel.has_wildcard() {
        push(
            AntiPatternKind::ColumnWildcard,
            "SELECT * retrieves all columns; schema changes silently break the application"
                .to_string(),
        );
    }

    // Ordering by RAND.
    let rand_in_order = sel.order_by.iter().any(|o| {
        arena
            .function_calls(o.expr)
            .iter()
            .any(|f| f == "RAND" || f == "RANDOM" || f == "NEWID")
    });
    if rand_in_order {
        push(
            AntiPatternKind::OrderingByRand,
            "ORDER BY RAND() sorts the entire table to pick random rows".to_string(),
        );
    }

    // DISTINCT + JOIN: DISTINCT papering over join-induced duplicates.
    if sel.distinct && sel.join_count() > 0 {
        let suppressed = use_context && joins_on_unique_keys(sel, arena, ctx);
        if !suppressed {
            push(
                AntiPatternKind::DistinctJoin,
                format!(
                    "DISTINCT over {} join(s) usually masks duplicates produced by the join",
                    sel.join_count()
                ),
            );
        }
    }

    // Too many joins.
    if sel.join_count() >= cfg.too_many_joins {
        push(
            AntiPatternKind::TooManyJoins,
            format!(
                "{} joins exceed the threshold of {}",
                sel.join_count(),
                cfg.too_many_joins
            ),
        );
    }

    // Pattern matching: leading-wildcard LIKE or regex operators.
    pattern_rules(ann, push);

    // Multi-valued attribute heuristics in queries (Example 1 / §4.1's
    // pattern rule `(id\s+regexp)|(id\s+like)`).
    mva_query_rule(ann, ctx, use_context, push);

    // Concatenate Nulls: `||` over possibly-NULL columns.
    concat_nulls_rule(sel, arena, ann, ctx, use_context, push);

    // Readable password in predicates (`WHERE password = '...'`).
    let pw_compared = ann.predicates.iter().any(|p| is_password_column(&p.column));
    if pw_compared {
        push(
            AntiPatternKind::ReadablePassword,
            "query compares a password column against a plain-text value".to_string(),
        );
    }
}

fn joins_on_unique_keys(sel: &Select, arena: &ExprArena, ctx: &Context) -> bool {
    // Suppress DISTINCT+JOIN when every equi-join lands on a primary key:
    // such joins cannot introduce duplicates, so DISTINCT is benign.
    let mut all_unique = true;
    let mut any = false;
    for j in &sel.joins {
        let Some(on) = j.on else { continue };
        let mut side_is_pk = false;
        arena.walk(on, &mut |e| {
            if let Expr::Binary { left, op, right } = e {
                if op == "=" || op == "==" {
                    for side in [left, right] {
                        if let Expr::Ident(parts) = arena.node(*side) {
                            if parts.len() == 2 {
                                let (q, c) = (&parts[0], &parts[1]);
                                let table = resolve_alias(sel, q);
                                if let Some(t) = ctx.schema.table(&table) {
                                    if t.primary_key.len() == 1
                                        && t.primary_key[0].eq_ignore_ascii_case(c)
                                    {
                                        side_is_pk = true;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        });
        any = true;
        all_unique &= side_is_pk;
    }
    any && all_unique
}

fn resolve_alias(sel: &Select, q: &str) -> String {
    for t in sel.tables() {
        if t.binding().eq_ignore_ascii_case(q) {
            return t.name.name().to_string();
        }
    }
    q.to_string()
}

fn pattern_rules(ann: &Annotations, push: &mut impl FnMut(AntiPatternKind, String)) {
    use sqlcheck_parser::ast::LikeOp;
    let mut worst: Option<String> = None;
    for op in &ann.pattern_ops {
        if matches!(op, LikeOp::Regexp | LikeOp::Similar | LikeOp::Glob) {
            worst = Some(format!("{} forces a full scan with per-row regex evaluation", op.sql()));
        }
    }
    if worst.is_none() {
        for pat in &ann.compared_strings {
            if pat.starts_with('%') || pat.starts_with('_') || pat.contains("[[:") {
                worst = Some(format!(
                    "LIKE '{pat}' cannot use an index (leading wildcard)"
                ));
                break;
            }
        }
    }
    if let Some(msg) = worst {
        push(AntiPatternKind::PatternMatching, msg);
    }
}

fn mva_query_rule(
    ann: &Annotations,
    ctx: &Context,
    use_context: bool,
    push: &mut impl FnMut(AntiPatternKind, String),
) {
    // Pattern predicates applied to id-list-looking columns, or patterns
    // carrying word-boundary markers, suggest a delimiter-separated list.
    let mut evidence: Option<String> = None;
    for p in &ann.predicates {
        let is_pattern =
            matches!(p.op.as_str(), "LIKE" | "ILIKE" | "REGEXP" | "GLOB" | "SIMILAR TO");
        if is_pattern && id_list_column(&p.column) {
            evidence = Some(format!(
                "pattern predicate on '{}' — a delimiter-separated id list?",
                p.column
            ));
        }
    }
    for s in &ann.compared_strings {
        if s.contains("[[:<:]]") || s.contains("[[:>:]]") {
            evidence =
                Some(format!("word-boundary pattern '{s}' searches inside a value list"));
        }
    }
    for jc in &ann.join_conditions {
        if jc.is_pattern {
            evidence = Some(format!(
                "expression join on '{}' via LIKE — joining against a value list",
                jc.left.1
            ));
        }
    }
    if let Some(msg) = evidence {
        // Contextual suppression: address-like columns legitimately contain
        // commas (the paper's stated false-positive source).
        if use_context {
            let suspicious_cols: Vec<&str> = ann
                .predicates
                .iter()
                .map(|p| p.column.as_str())
                .chain(ann.join_conditions.iter().map(|j| j.left.1.as_str()))
                .collect();
            if suspicious_cols.iter().all(|c| address_like(c)) && !suspicious_cols.is_empty() {
                return;
            }
            let _ = ctx;
        }
        push(AntiPatternKind::MultiValuedAttribute, msg);
    }
}

fn concat_nulls_rule(
    sel: &Select,
    arena: &ExprArena,
    ann: &Annotations,
    ctx: &Context,
    use_context: bool,
    push: &mut impl FnMut(AntiPatternKind, String),
) {
    // Find `||` over column references anywhere in the statement.
    let mut concat_cols: Vec<(Option<IStr>, IStr)> = Vec::new();
    let mut visit = |e: ExprId| {
        arena.walk(e, &mut |node| {
            if let Expr::Binary { left, op, right } = node {
                if op == "||" {
                    for side in [left, right] {
                        if let Expr::Ident(parts) = arena.node(*side) {
                            match parts.len() {
                                1 => concat_cols.push((None, parts[0].clone())),
                                2 => concat_cols
                                    .push((Some(parts[0].clone()), parts[1].clone())),
                                _ => {}
                            }
                        }
                    }
                }
            }
        });
    };
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            visit(*expr);
        }
    }
    if let Some(w) = sel.where_clause {
        visit(w);
    }
    for j in &sel.joins {
        if let Some(on) = j.on {
            visit(on);
        }
    }
    if concat_cols.is_empty() {
        return;
    }
    if use_context {
        // Suppress when every concatenated column is provably NOT NULL.
        let all_not_null = concat_cols.iter().all(|(q, c)| {
            let table = match q {
                Some(q) => resolve_alias(sel, q),
                None => ann.tables.first().map(|t| t.to_string()).unwrap_or_default(),
            };
            ctx.schema
                .table(&table)
                .and_then(|t| t.column(c))
                .map(|ci| ci.not_null)
                .unwrap_or(false)
        });
        if all_not_null {
            return;
        }
    }
    push(
        AntiPatternKind::ConcatenateNulls,
        format!(
            "'||' concatenation over column(s) {} yields NULL if any operand is NULL",
            concat_cols
                .iter()
                .map(|(_, c)| c.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
}

// ---------------------------------------------------------------------------
// INSERT / UPDATE rules
// ---------------------------------------------------------------------------

fn insert_rules(ins: &Insert, arena: &ExprArena, push: &mut impl FnMut(AntiPatternKind, String)) {
    if ins.columns.is_empty() && matches!(ins.source, InsertSource::Values(_)) {
        push(
            AntiPatternKind::ImplicitColumns,
            format!(
                "INSERT INTO {} without a column list breaks when the schema evolves",
                ins.table.name()
            ),
        );
    }
    // MVA evidence: inserting a delimiter-separated token list.
    if let InsertSource::Values(rows) = &ins.source {
        for row in rows {
            for e in row.iter() {
                if let Expr::StringLit(s) = arena.node(e) {
                    if looks_like_token_list(s) {
                        push(
                            AntiPatternKind::MultiValuedAttribute,
                            format!("inserting delimiter-separated list '{s}'"),
                        );
                        return;
                    }
                }
            }
        }
    }
}

fn update_rules(
    upd: &Update,
    arena: &ExprArena,
    _ctx: &Context,
    _use_context: bool,
    push: &mut impl FnMut(AntiPatternKind, String),
) {
    for (col, val) in &upd.assignments {
        if is_password_column(col) {
            if let Expr::StringLit(_) = arena.node(*val) {
                push(
                    AntiPatternKind::ReadablePassword,
                    format!("UPDATE stores a plain-text value into password column '{col}'"),
                );
            }
        }
        // REPLACE() surgery on a list column is the paper's DI example.
        if let Expr::Function { name, .. } = arena.node(*val) {
            if name.eq_ignore_ascii_case("REPLACE") && id_list_column(col) {
                push(
                    AntiPatternKind::MultiValuedAttribute,
                    format!("string surgery (REPLACE) on list column '{col}'"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// DDL rules
// ---------------------------------------------------------------------------

fn create_table_rules(
    ct: &CreateTable,
    ctx: &Context,
    cfg: &DetectionConfig,
    use_context: bool,
    push: &mut impl FnMut(AntiPatternKind, String),
) {
    let tname = ct.name.name();

    // No Primary Key — contextual mode checks whether a later ALTER TABLE
    // added one (the catalog already folded all DDL).
    if !ct.has_primary_key() {
        let fixed_later = use_context
            && ctx.schema.table(tname).map(|t| t.has_primary_key()).unwrap_or(false);
        if !fixed_later {
            push(
                AntiPatternKind::NoPrimaryKey,
                format!("table '{tname}' declares no primary key"),
            );
        }
    } else {
        // Generic Primary Key: a lone surrogate `id` column.
        let pk = ct.primary_key_columns();
        if pk.len() == 1 && pk[0].eq_ignore_ascii_case("id") {
            push(
                AntiPatternKind::GenericPrimaryKey,
                format!("table '{tname}' uses a generic 'id' primary key"),
            );
        }
    }

    // God Table.
    if ct.columns.len() >= cfg.god_table_columns {
        push(
            AntiPatternKind::GodTable,
            format!(
                "table '{tname}' has {} columns (threshold {})",
                ct.columns.len(),
                cfg.god_table_columns
            ),
        );
    }

    // Rounding Errors / Enumerated Types / External Data Storage /
    // Readable Password — per column.
    for col in &ct.columns {
        if let Some(ty) = &col.data_type {
            if ty.is_inexact_fractional() {
                push(
                    AntiPatternKind::RoundingErrors,
                    format!(
                        "column '{tname}.{}' stores fractional data as {}",
                        col.name, ty.name
                    ),
                );
            }
            if ty.name == "ENUM" {
                push(
                    AntiPatternKind::EnumeratedTypes,
                    format!(
                        "column '{tname}.{}' uses ENUM({} values)",
                        col.name,
                        ty.args.len()
                    ),
                );
            }
            if ty.is_textual() && external_storage_column(&col.name) {
                push(
                    AntiPatternKind::ExternalDataStorage,
                    format!("column '{tname}.{}' stores file paths/URLs", col.name),
                );
            }
            if ty.is_textual() && is_password_column(&col.name) {
                push(
                    AntiPatternKind::ReadablePassword,
                    format!("column '{tname}.{}' stores passwords as text", col.name),
                );
            }
            if ty.is_temporal() && ty.name != "DATE" && !ty.has_timezone() {
                push(
                    AntiPatternKind::MissingTimezone,
                    format!("column '{tname}.{}' stores date-time without timezone", col.name),
                );
            }
        }
        for c in &col.constraints {
            if let ColumnConstraint::Check(ch) = c {
                if ch.in_list.is_some() {
                    push(
                        AntiPatternKind::EnumeratedTypes,
                        format!(
                            "CHECK IN-list constrains '{tname}.{}' to fixed values",
                            col.name
                        ),
                    );
                }
            }
        }
    }

    // Table-level CHECK IN-lists.
    for tc in &ct.constraints {
        if let TableConstraintKind::Check(ch) = &tc.kind {
            if let Some((col, vals)) = &ch.in_list {
                push(
                    AntiPatternKind::EnumeratedTypes,
                    format!(
                        "CHECK IN-list constrains '{tname}.{col}' to {} fixed values",
                        vals.len()
                    ),
                );
            }
        }
    }

    // Adjacency List: self-referencing FK.
    for (cols, fk) in ct.foreign_keys() {
        if fk.table.name_eq(tname) {
            push(
                AntiPatternKind::AdjacencyList,
                format!(
                    "column '{}' references its own table '{tname}' (hierarchy as adjacency list)",
                    cols.join(", ")
                ),
            );
        }
    }

    // Data in Metadata: numbered column families (tag1, tag2, tag3 ...).
    let families = numbered_families(ct);
    for (stem, n) in families {
        push(
            AntiPatternKind::DataInMetadata,
            format!("table '{tname}' has {n} numbered '{stem}N' columns — data encoded in metadata"),
        );
    }

    // Multi-valued attribute hint in DDL: plural *_ids text column.
    for col in &ct.columns {
        let textual =
            col.data_type.as_ref().map(|t| t.is_textual()).unwrap_or(false);
        if textual && id_list_column(&col.name) {
            push(
                AntiPatternKind::MultiValuedAttribute,
                format!("text column '{tname}.{}' looks like an id list", col.name),
            );
        }
    }
}

fn alter_rules(at: &AlterTable, push: &mut impl FnMut(AntiPatternKind, String)) {
    if let AlterAction::AddConstraint(tc) = &at.action {
        if let TableConstraintKind::Check(ch) = &tc.kind {
            if let Some((col, vals)) = &ch.in_list {
                push(
                    AntiPatternKind::EnumeratedTypes,
                    format!(
                        "ALTER adds a CHECK IN-list on '{}.{col}' ({} values)",
                        at.table.name(),
                        vals.len()
                    ),
                );
            }
        }
    }
    if let AlterAction::AddColumn(cd) = &at.action {
        if let Some(ty) = &cd.data_type {
            if ty.is_inexact_fractional() {
                push(
                    AntiPatternKind::RoundingErrors,
                    format!(
                        "ALTER adds {} column '{}.{}'",
                        ty.name,
                        at.table.name(),
                        cd.name
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared heuristics
// ---------------------------------------------------------------------------

pub(crate) fn id_list_column(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n.ends_with("_ids") || n.ends_with("ids") && n.len() > 3 || n.ends_with("_list")
}

pub(crate) fn address_like(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    ["address", "addr", "description", "comment", "note", "body", "message", "text"]
        .iter()
        .any(|k| n.contains(k))
}

pub(crate) fn is_password_column(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n == "password" || n == "passwd" || n == "pwd" || n.ends_with("_password")
}

pub(crate) fn external_storage_column(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    ["path", "filepath", "file_name", "filename", "url", "uri", "image_path", "attachment"]
        .iter()
        .any(|k| n.contains(k))
}

/// True for strings like `U1,U2` or `a; b; c` — token lists.
pub(crate) fn looks_like_token_list(s: &str) -> bool {
    let seps = s.chars().filter(|c| *c == ',' || *c == ';').count();
    if seps == 0 {
        return false;
    }
    let tokens: Vec<&str> =
        s.split([',', ';']).map(str::trim).collect();
    tokens.len() >= 2
        && tokens.iter().all(|t| {
            !t.is_empty()
                && t.len() <= 24
                && t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        })
}

/// Column families like `tag1, tag2, tag3` in a CREATE TABLE.
fn numbered_families(ct: &CreateTable) -> Vec<(String, usize)> {
    use std::collections::BTreeMap;
    let mut stems: BTreeMap<String, usize> = BTreeMap::new();
    for col in &ct.columns {
        let name = col.name.trim_end_matches(|c: char| c.is_ascii_digit());
        if name.len() < col.name.len() && !name.is_empty() {
            *stems.entry(name.trim_end_matches('_').to_ascii_lowercase()).or_default() += 1;
        }
    }
    stems.into_iter().filter(|(_, n)| *n >= 2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextBuilder;
    use crate::detect::{DetectionConfig, Detector};

    fn kinds(sql: &str) -> Vec<AntiPatternKind> {
        let ctx = ContextBuilder::new().add_script(sql).build();
        Detector::default().detect(&ctx).kinds()
    }

    fn kinds_intra(sql: &str) -> Vec<AntiPatternKind> {
        let ctx = ContextBuilder::new().add_script(sql).build();
        Detector::new(DetectionConfig::intra_only()).detect(&ctx).kinds()
    }

    #[test]
    fn wildcard_and_implicit_columns() {
        assert!(kinds("SELECT * FROM t").contains(&AntiPatternKind::ColumnWildcard));
        assert!(kinds("INSERT INTO t VALUES (1)").contains(&AntiPatternKind::ImplicitColumns));
        assert!(!kinds("INSERT INTO t (a) VALUES (1)")
            .contains(&AntiPatternKind::ImplicitColumns));
    }

    #[test]
    fn order_by_rand_detected() {
        assert!(kinds("SELECT * FROM t ORDER BY RAND()")
            .contains(&AntiPatternKind::OrderingByRand));
        assert!(kinds("SELECT * FROM t ORDER BY RANDOM()")
            .contains(&AntiPatternKind::OrderingByRand));
        assert!(!kinds("SELECT * FROM t ORDER BY a").contains(&AntiPatternKind::OrderingByRand));
    }

    #[test]
    fn pattern_matching_leading_wildcard_only() {
        assert!(kinds("SELECT a FROM t WHERE a LIKE '%x%'")
            .contains(&AntiPatternKind::PatternMatching));
        assert!(kinds("SELECT a FROM t WHERE a REGEXP 'x.*'")
            .contains(&AntiPatternKind::PatternMatching));
        assert!(
            !kinds("SELECT a FROM t WHERE a LIKE 'x%'")
                .contains(&AntiPatternKind::PatternMatching),
            "prefix patterns can use an index — not an AP"
        );
    }

    #[test]
    fn mva_from_paper_task1_query() {
        let k = kinds("SELECT * FROM Tenants WHERE User_IDs LIKE '[[:<:]]U1[[:>:]]'");
        assert!(k.contains(&AntiPatternKind::MultiValuedAttribute));
    }

    #[test]
    fn mva_suppressed_for_address_columns() {
        let intra = kinds_intra("SELECT * FROM t WHERE address LIKE '%Main St,%'");
        let full = kinds("SELECT * FROM t WHERE address LIKE '%Main St,%'");
        // intra flags pattern matching either way, but MVA only without context
        assert!(!full.contains(&AntiPatternKind::MultiValuedAttribute));
        let _ = intra;
    }

    #[test]
    fn mva_from_insert_token_list() {
        let k = kinds("INSERT INTO Tenant (id, users) VALUES ('T1', 'U1,U2,U3')");
        assert!(k.contains(&AntiPatternKind::MultiValuedAttribute));
    }

    #[test]
    fn distinct_join_flagged_and_suppressed_on_pk_join() {
        let plain = kinds("SELECT DISTINCT a FROM t JOIN u ON t.x = u.y");
        assert!(plain.contains(&AntiPatternKind::DistinctJoin));
        let with_pk = kinds(
            "CREATE TABLE u (id INT PRIMARY KEY);\
             SELECT DISTINCT a FROM t JOIN u ON t.uid = u.id;",
        );
        assert!(
            !with_pk.contains(&AntiPatternKind::DistinctJoin),
            "join on PK cannot create duplicates"
        );
    }

    #[test]
    fn too_many_joins_threshold() {
        let sql = "SELECT * FROM a JOIN b ON a.x=b.x JOIN c ON b.x=c.x JOIN d ON c.x=d.x \
                   JOIN e ON d.x=e.x JOIN f ON e.x=f.x";
        assert!(kinds(sql).contains(&AntiPatternKind::TooManyJoins));
        assert!(!kinds("SELECT * FROM a JOIN b ON a.x=b.x")
            .contains(&AntiPatternKind::TooManyJoins));
    }

    #[test]
    fn concat_nulls_with_context_suppression() {
        let nullable = kinds(
            "CREATE TABLE u (first TEXT, last TEXT);\
             SELECT first || ' ' || last FROM u;",
        );
        assert!(nullable.contains(&AntiPatternKind::ConcatenateNulls));
        let not_null = kinds(
            "CREATE TABLE u (first TEXT NOT NULL, last TEXT NOT NULL);\
             SELECT first || last FROM u;",
        );
        assert!(
            !not_null.contains(&AntiPatternKind::ConcatenateNulls),
            "NOT NULL columns cannot produce NULL concat"
        );
    }

    #[test]
    fn ddl_rules() {
        let k = kinds(
            "CREATE TABLE t (id INT PRIMARY KEY, price FLOAT, role ENUM('a','b'), \
             photo_path TEXT, password VARCHAR(64), created DATETIME)",
        );
        assert!(k.contains(&AntiPatternKind::GenericPrimaryKey));
        assert!(k.contains(&AntiPatternKind::RoundingErrors));
        assert!(k.contains(&AntiPatternKind::EnumeratedTypes));
        assert!(k.contains(&AntiPatternKind::ExternalDataStorage));
        assert!(k.contains(&AntiPatternKind::ReadablePassword));
        assert!(k.contains(&AntiPatternKind::MissingTimezone));
        assert!(!k.contains(&AntiPatternKind::NoPrimaryKey));
    }

    #[test]
    fn adjacency_list_detected() {
        let k = kinds("CREATE TABLE emp (id INT PRIMARY KEY, mgr INT REFERENCES emp(id))");
        assert!(k.contains(&AntiPatternKind::AdjacencyList));
    }

    #[test]
    fn data_in_metadata_numbered_columns() {
        let k = kinds("CREATE TABLE p (id INT PRIMARY KEY, tag1 TEXT, tag2 TEXT, tag3 TEXT)");
        assert!(k.contains(&AntiPatternKind::DataInMetadata));
    }

    #[test]
    fn enumerated_types_via_alter_check() {
        let k = kinds(
            "ALTER TABLE User ADD CONSTRAINT c CHECK (Role IN ('R1','R2','R3'))",
        );
        assert!(k.contains(&AntiPatternKind::EnumeratedTypes));
    }

    #[test]
    fn timestamptz_not_flagged() {
        let k = kinds("CREATE TABLE t (id INT PRIMARY KEY, at TIMESTAMP WITH TIME ZONE)");
        assert!(!k.contains(&AntiPatternKind::MissingTimezone));
    }

    #[test]
    fn token_list_heuristic() {
        assert!(looks_like_token_list("U1,U2"));
        assert!(looks_like_token_list("a; b; c"));
        assert!(!looks_like_token_list("hello world"));
        assert!(!looks_like_token_list("one"));
        assert!(!looks_like_token_list("12 Main St, Springfield, IL"), "spaces in tokens");
    }
}

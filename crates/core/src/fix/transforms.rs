//! Non-ambiguous query/schema transformations (§6.1).
//!
//! Each function returns `Some(Fix)` when the context carries enough
//! syntactic information to transform safely, `None` to fall back to a
//! textual fix. Rewrites go through the AST and are rendered with
//! [`ToSql`], matching the paper's "transforms the parse tree to a SQL
//! string" step.

use crate::context::Context;
use crate::fix::Fix;
use crate::report::{Detection, Locus};
use sqlcheck_parser::arena::{ExprArena, ExprId, ExprRange};
use sqlcheck_parser::ast::*;
use sqlcheck_parser::parser::parse_raw_limited;
use sqlcheck_parser::render::ToSql;
use sqlcheck_parser::splitter::materialize_span;
use sqlcheck_parser::{Dialect, IStr, Limits, Span};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::Arc;

/// The rewrite of the statement `d` points at: `rewrite` renders a
/// repaired statement from a tree of its text, or declines. It runs on
/// the context's tree first; a text that shares its shape's tree (whose
/// number literals are another text's) is re-parsed only when that
/// yields a rewrite, and the rewrite is rendered again from its own
/// tree. The original is the text's own source.
fn rewrite_at(
    d: &Detection,
    ctx: &Context,
    rewrite: impl Fn(&ParsedStatement) -> Option<String>,
) -> Option<Fix> {
    let stmt = ctx.statements.get(d.statement_index()?)?;
    let mut fixed = rewrite(&stmt.parsed)?;
    let text = &ctx.uniques[stmt.unique];
    if text.shares_tree() {
        fixed = rewrite(&own_tree(&text.source, ctx.dialect))?;
    }
    Some(Fix::Rewrite { original: Arc::clone(&text.source), fixed: fixed.into() })
}

/// The tree of a text that shares its shape's tree, parsed from its own
/// `source`. Its shape's tree parsed without diagnostics under the
/// context's limits, and the text has the same tokens but for the digits
/// of its number literals, so no limit can bite here either.
fn own_tree(source: &str, dialect: Dialect) -> ParsedStatement {
    let unbounded = Limits {
        max_statement_bytes: usize::MAX,
        max_tokens: usize::MAX,
        max_block_depth: u32::MAX,
        max_expr_depth: u32::MAX,
    };
    let raw = materialize_span(source, Span::new(0, source.len()), dialect);
    parse_raw_limited(raw, &unbounded, dialect).0
}

/// Implicit Columns (Example 2): add the explicit column list from the
/// schema. Requires the schema to know the table and the arities to match.
pub fn implicit_columns(d: &Detection, ctx: &Context) -> Option<Fix> {
    rewrite_at(d, ctx, |parsed| {
        let Statement::Insert(ins) = &parsed.stmt else { return None };
        if !ins.columns.is_empty() {
            return None;
        }
        let table = ctx.schema.table(ins.table.name())?;
        let InsertSource::Values(rows) = &ins.source else { return None };
        let arity = rows.first()?.len();
        if table.columns.len() != arity {
            return None; // ambiguous — the paper falls back to a textual fix
        }
        let mut fixed = ins.clone();
        fixed.columns = table.columns.iter().map(|c| c.name.clone()).collect();
        Some(fixed.to_sql(&parsed.arena))
    })
}

/// Column Wildcard: expand `*` to the explicit column list when every
/// table in scope is known to the schema.
pub fn column_wildcard(d: &Detection, ctx: &Context) -> Option<Fix> {
    rewrite_at(d, ctx, |parsed| {
        let Statement::Select(sel) = &parsed.stmt else { return None };
        // New column-reference nodes go into a copy of the statement's
        // arena (existing ids stay valid — the arena is append-only).
        let mut arena = parsed.arena.clone();
        let mut fixed = sel.clone();
        let mut new_items = Vec::new();
        for item in &fixed.items {
            match item {
                SelectItem::Wildcard { qualifier } => {
                    let expansions = expand_wildcard(sel, qualifier.as_deref(), ctx, &mut arena)?;
                    new_items.extend(expansions);
                }
                other => new_items.push(other.clone()),
            }
        }
        fixed.items = new_items;
        Some(fixed.to_sql(&arena))
    })
}

fn expand_wildcard(
    sel: &Select,
    qualifier: Option<&str>,
    ctx: &Context,
    arena: &mut ExprArena,
) -> Option<Vec<SelectItem>> {
    let tables: Vec<&TableRef> = match qualifier {
        Some(q) => sel
            .tables()
            .into_iter()
            .filter(|t| t.binding().eq_ignore_ascii_case(q))
            .collect(),
        None => sel.tables(),
    };
    if tables.is_empty() {
        return None;
    }
    let mut items = Vec::new();
    let multi = tables.len() > 1;
    for t in tables {
        if t.subquery.is_some() {
            return None;
        }
        let info = ctx.schema.table(t.name.name())?;
        if info.columns.is_empty() {
            return None;
        }
        for c in &info.columns {
            let expr = if multi || qualifier.is_some() {
                Expr::Ident(vec![t.binding().into(), c.name.clone()])
            } else {
                Expr::ident(c.name.clone())
            };
            items.push(SelectItem::Expr { expr: arena.alloc(expr), alias: None });
        }
    }
    Some(items)
}

/// Concatenate Nulls: wrap nullable identifier operands of `||` in
/// `COALESCE(x, '')`.
pub fn concatenate_nulls(d: &Detection, ctx: &Context) -> Option<Fix> {
    rewrite_at(d, ctx, |parsed| {
        let Statement::Select(sel) = &parsed.stmt else { return None };
        let mut arena = parsed.arena.clone();
        let mut fixed = sel.clone();
        let mut changed = false;
        for item in &mut fixed.items {
            if let SelectItem::Expr { expr, .. } = item {
                *expr = rewrite_concat(&mut arena, *expr, &mut changed);
            }
        }
        if let Some(w) = fixed.where_clause.take() {
            fixed.where_clause = Some(rewrite_concat(&mut arena, w, &mut changed));
        }
        if !changed {
            return None;
        }
        Some(fixed.to_sql(&arena))
    })
}

fn rewrite_concat(arena: &mut ExprArena, id: ExprId, changed: &mut bool) -> ExprId {
    match arena.node(id).clone() {
        Expr::Binary { left, op, right } if op == "||" => {
            let l = rewrite_concat(arena, left, changed);
            let l = coalesce_ident(arena, l, changed);
            let r = rewrite_concat(arena, right, changed);
            let r = coalesce_ident(arena, r, changed);
            arena.alloc(Expr::Binary { left: l, op, right: r })
        }
        Expr::Binary { left, op, right } => {
            let l = rewrite_concat(arena, left, changed);
            let r = rewrite_concat(arena, right, changed);
            arena.alloc(Expr::Binary { left: l, op, right: r })
        }
        Expr::Paren(inner) => {
            let i = rewrite_concat(arena, inner, changed);
            arena.alloc(Expr::Paren(i))
        }
        _ => id,
    }
}

fn coalesce_ident(arena: &mut ExprArena, id: ExprId, changed: &mut bool) -> ExprId {
    if let Expr::Ident(_) = arena.node(id) {
        *changed = true;
        // Argument lists are contiguous runs, so re-allocate the ident
        // next to its '' fallback.
        let ident = arena.node(id).clone();
        let args = arena.alloc_range([ident, Expr::StringLit(IStr::empty())]);
        arena.alloc(Expr::Function { name: "COALESCE".into(), args, distinct: false })
    } else {
        id
    }
}

/// Distinct + Join: when the select list only touches the FROM table,
/// rewrite the join as an EXISTS semi-join (which cannot produce
/// duplicates), dropping the DISTINCT.
pub fn distinct_join(d: &Detection, ctx: &Context) -> Option<Fix> {
    rewrite_at(d, ctx, |parsed| {
        let Statement::Select(sel) = &parsed.stmt else { return None };
        if !sel.distinct || sel.joins.len() != 1 {
            return None;
        }
        let from = sel.from.as_ref()?;
        let join = &sel.joins[0];
        let on = join.on?;
        if join.table.subquery.is_some() || from.subquery.is_some() {
            return None;
        }
        // Every projected column must belong to the outer table.
        let outer_binding = from.binding().to_ascii_lowercase();
        let inner_binding = join.table.binding().to_ascii_lowercase();
        for item in &sel.items {
            match item {
                SelectItem::Wildcard { qualifier: Some(q) }
                    if q.to_ascii_lowercase() == outer_binding => {}
                SelectItem::Wildcard { .. } => return None,
                SelectItem::Expr { expr, .. } => {
                    for (q, _) in parsed.arena.column_refs(*expr) {
                        match q {
                            Some(q) if q.to_ascii_lowercase() == inner_binding => return None,
                            _ => {}
                        }
                    }
                }
            }
        }
        let mut arena = parsed.arena.clone();
        let one = arena.alloc(Expr::NumberLit("1".into()));
        let sub = Select {
            distinct: false,
            items: vec![SelectItem::Expr { expr: one, alias: None }],
            from: Some(join.table.clone()),
            joins: vec![],
            where_clause: Some(on),
            group_by: ExprRange::EMPTY,
            having: None,
            order_by: vec![],
            limit: None,
            set_op_tail: None,
        };
        let sub_id = arena.alloc(Expr::Subquery(Box::new(sub)));
        let exists = arena.alloc(Expr::Unary { op: "EXISTS".into(), expr: sub_id });
        let mut fixed = sel.clone();
        fixed.distinct = false;
        fixed.joins.clear();
        fixed.where_clause = Some(match fixed.where_clause.take() {
            Some(w) => arena.alloc(Expr::Binary { left: w, op: "AND".into(), right: exists }),
            None => exists,
        });
        Some(fixed.to_sql(&arena))
    })
}

/// Enumerated Types (Fig 5): introduce a lookup table and re-point the
/// column at it.
pub fn enumerated_types(d: &Detection, ctx: &Context, impacts: &ImpactIndex<'_>) -> Option<Fix> {
    // Identify (table, column, values) from the locus or the statement.
    let (table, column, values) = enum_site(d, ctx)?;
    let lookup = format!("{}_{}", table, column);
    let mut statements = vec![
        format!(
            "CREATE TABLE {lookup} ({column}_ID INTEGER PRIMARY KEY, {column}_Name VARCHAR(30) NOT NULL UNIQUE)"
        ),
    ];
    for (i, v) in values.iter().enumerate() {
        statements.push(format!(
            "INSERT INTO {lookup} ({column}_ID, {column}_Name) VALUES ({}, '{}')",
            i + 1,
            v.replace('\'', "''")
        ));
    }
    statements.push(format!(
        "ALTER TABLE {table} ADD COLUMN {column}_ID INTEGER REFERENCES {lookup}({column}_ID)"
    ));
    statements.push(format!(
        "-- backfill: UPDATE {table} SET {column}_ID = (SELECT {column}_ID FROM {lookup} WHERE {column}_Name = {table}.{column})"
    ));
    statements.push(format!("ALTER TABLE {table} DROP COLUMN {column}"));
    let impacted = impacts
        .impacted(&table, &column)
        .into_iter()
        .map(|i| (i, ctx.statements[i].text(&ctx.uniques).to_owned()))
        .collect();
    Some(Fix::SchemaChange { statements, impacted_queries: impacted })
}

fn enum_site(d: &Detection, ctx: &Context) -> Option<(String, String, Vec<String>)> {
    match &d.locus {
        Locus::Column { table, column } => {
            let values = ctx
                .schema
                .table(table)
                .and_then(|t| {
                    t.checks.iter().find_map(|c| {
                        c.in_list.as_ref().and_then(|(col, vals)| {
                            col.eq_ignore_ascii_case(column).then(|| vals.clone())
                        })
                    })
                })
                .unwrap_or_default();
            Some((table.clone(), column.clone(), values.iter().map(|v| v.to_string()).collect()))
        }
        Locus::Statement { index } => {
            let stmt = &ctx.statements.get(*index)?.parsed.stmt;
            match stmt {
                Statement::AlterTable(at) => {
                    if let AlterAction::AddConstraint(tc) = &at.action {
                        if let TableConstraintKind::Check(ch) = &tc.kind {
                            if let Some((col, vals)) = &ch.in_list {
                                return Some((
                                    at.table.name().to_string(),
                                    col.to_string(),
                                    vals.iter().map(|v| v.to_string()).collect(),
                                ));
                            }
                        }
                    }
                    None
                }
                Statement::CreateTable(ct) => {
                    // ENUM column or CHECK IN-list.
                    for col in &ct.columns {
                        if let Some(ty) = &col.data_type {
                            if ty.name == "ENUM" {
                                let vals = ty
                                    .args
                                    .iter()
                                    .map(|a| a.trim_matches('\'').to_string())
                                    .collect();
                                return Some((
                                    ct.name.name().to_string(),
                                    col.name.to_string(),
                                    vals,
                                ));
                            }
                        }
                    }
                    for tc in &ct.constraints {
                        if let TableConstraintKind::Check(ch) = &tc.kind {
                            if let Some((col, vals)) = &ch.in_list {
                                return Some((
                                    ct.name.name().to_string(),
                                    col.to_string(),
                                    vals.iter().map(|v| v.to_string()).collect(),
                                ));
                            }
                        }
                    }
                    None
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Multi-Valued Attribute (§2.1.1 / §6): create the intersection table,
/// drop the list column, and rewrite impacted queries as index joins.
pub fn multi_valued_attribute(
    d: &Detection,
    ctx: &Context,
    impacts: &ImpactIndex<'_>,
) -> Option<Fix> {
    let (table, column) = mva_site(d, ctx)?;
    // Guess the referenced entity from the column name: `User_IDs` → Users.
    let stem = column
        .trim_end_matches("_ids")
        .trim_end_matches("_IDS")
        .trim_end_matches("IDs")
        .trim_end_matches("ids")
        .trim_end_matches('_');
    let entity = if stem.is_empty() { "Item".to_string() } else { format!("{stem}s") };
    let entity_id = format!("{stem}_ID");
    let owner_pk = ctx
        .schema
        .table(&table)
        .and_then(|t| t.primary_key.first().cloned())
        .unwrap_or_else(|| format!("{table}_ID").into());
    let intersection = format!("{table}_{entity}");
    let statements = vec![
        format!(
            "CREATE TABLE {intersection} ({entity_id} VARCHAR(10) REFERENCES {entity}({entity_id}), \
             {owner_pk} VARCHAR(10) REFERENCES {table}({owner_pk}), \
             PRIMARY KEY ({entity_id}, {owner_pk}))"
        ),
        format!("-- backfill {intersection} by splitting {table}.{column}"),
        format!("ALTER TABLE {table} DROP COLUMN {column}"),
    ];
    let impacted = impacts
        .impacted(&table, &column)
        .into_iter()
        .map(|idx| {
            (
                idx,
                format!(
                    "SELECT * FROM {intersection} AS H JOIN {table} AS T ON H.{owner_pk} = T.{owner_pk} \
                     WHERE H.{entity_id} = ?"
                ),
            )
        })
        .collect();
    Some(Fix::SchemaChange { statements, impacted_queries: impacted })
}

fn mva_site(d: &Detection, ctx: &Context) -> Option<(String, String)> {
    match &d.locus {
        Locus::Column { table, column } => Some((table.clone(), column.clone())),
        Locus::Statement { index } => {
            let stmt = &ctx.statements.get(*index)?.parsed.stmt;
            // DDL site: the id-list text column itself.
            if let Statement::CreateTable(ct) = stmt {
                for col in &ct.columns {
                    let textual =
                        col.data_type.as_ref().map(|t| t.is_textual()).unwrap_or(false);
                    if textual && crate::detect::intra::id_list_column(&col.name) {
                        return Some((ct.name.name().to_string(), col.name.to_string()));
                    }
                }
            }
            let ann = &ctx.statements.get(*index)?.ann;
            // Pick the pattern-predicate column, resolved to its table.
            let col = ann
                .predicates
                .iter()
                .find(|p| {
                    matches!(p.op.as_str(), "LIKE" | "ILIKE" | "REGEXP" | "GLOB" | "SIMILAR TO")
                })
                .map(|p| p.column.clone())
                .or_else(|| {
                    ann.join_conditions
                        .iter()
                        .find(|j| j.is_pattern)
                        .map(|j| j.left.1.clone())
                })?;
            let table = ann.tables.first()?.clone();
            Some((table.into(), col.into()))
        }
        _ => None,
    }
}

/// No Foreign Key: emit the ALTER TABLE that declares the constraint.
pub fn no_foreign_key(d: &Detection, ctx: &Context) -> Option<Fix> {
    let Locus::Column { table, column } = &d.locus else { return None };
    // Find the PK side from the workload's join graph.
    let target = ctx.workload.join_edges.keys().find_map(|e| {
        if e.left.0.eq_ignore_ascii_case(table) && e.left.1.eq_ignore_ascii_case(column) {
            Some(e.right.clone())
        } else if e.right.0.eq_ignore_ascii_case(table) && e.right.1.eq_ignore_ascii_case(column)
        {
            Some(e.left.clone())
        } else {
            None
        }
    })?;
    let stmt = format!(
        "ALTER TABLE {table} ADD CONSTRAINT fk_{table}_{column} FOREIGN KEY ({column}) REFERENCES {}({})",
        target.0, target.1
    );
    Some(Fix::SchemaChange { statements: vec![stmt], impacted_queries: vec![] })
}

/// Index Underuse: emit the CREATE INDEX.
pub fn index_underuse(d: &Detection, _ctx: &Context) -> Option<Fix> {
    let Locus::Column { table, column } = &d.locus else { return None };
    Some(Fix::SchemaChange {
        statements: vec![format!("CREATE INDEX idx_{table}_{column} ON {table} ({column})")],
        impacted_queries: vec![],
    })
}

/// Index Overuse: emit the DROP INDEX.
pub fn index_overuse(d: &Detection, _ctx: &Context) -> Option<Fix> {
    let Locus::Index { index } = &d.locus else { return None };
    Some(Fix::SchemaChange {
        statements: vec![format!("DROP INDEX {index}")],
        impacted_queries: vec![],
    })
}

/// Rounding Errors: switch FLOAT columns to exact NUMERIC.
pub fn rounding_errors(d: &Detection, ctx: &Context) -> Option<Fix> {
    match &d.locus {
        Locus::Column { table, column } => Some(Fix::SchemaChange {
            statements: vec![format!(
                "ALTER TABLE {table} ALTER COLUMN {column} TYPE NUMERIC(19, 4)"
            )],
            impacted_queries: vec![],
        }),
        Locus::Statement { .. } => rewrite_at(d, ctx, |parsed| {
            let Statement::CreateTable(ct) = &parsed.stmt else { return None };
            let mut fixed = ct.clone();
            let mut changed = false;
            for col in &mut fixed.columns {
                if let Some(ty) = &mut col.data_type {
                    if ty.is_inexact_fractional() {
                        *ty = TypeName {
                            name: "NUMERIC".into(),
                            args: vec!["19".into(), "4".into()],
                            modifiers: vec![],
                        };
                        changed = true;
                    }
                }
            }
            changed.then(|| fixed.to_sql(&parsed.arena))
        }),
        _ => None,
    }
}

/// The paper's `GetImpactedQueries` as a lookup: posting lists from a
/// lowercased table name and from a lowercased column name (from the
/// annotations' column references and WHERE predicates) to the ascending
/// indexes of the statements that mention them. A statement is impacted
/// by a change to `table.column` when it is in both lists; comparing
/// lowercased names is the ASCII case-insensitive match of a scan.
///
/// The lists are built on the first lookup, in one pass over the
/// context's statements, so a fix run without Enumerated Types or
/// Multi-Valued Attribute schema fixes never pays for them. One index
/// serves every lookup against its context.
#[derive(Debug)]
pub struct ImpactIndex<'c> {
    ctx: &'c Context,
    postings: OnceCell<Postings>,
}

/// Lowercased name → ascending statement indexes.
type PostingList = HashMap<String, Vec<usize>>;

#[derive(Debug, Default)]
struct Postings {
    tables: PostingList,
    columns: PostingList,
}

impl<'c> ImpactIndex<'c> {
    /// An index over `ctx`'s statements; nothing is built until the
    /// first [`ImpactIndex::impacted`] call.
    pub fn new(ctx: &'c Context) -> Self {
        ImpactIndex { ctx, postings: OnceCell::new() }
    }

    /// Ascending indexes of the statements that reference `table` and
    /// `column` (ASCII case-insensitive).
    pub fn impacted(&self, table: &str, column: &str) -> Vec<usize> {
        let p = self.postings.get_or_init(|| Postings::build(self.ctx));
        intersect(lookup(&p.tables, table), lookup(&p.columns, column))
    }
}

impl Postings {
    fn build(ctx: &Context) -> Self {
        let mut p = Postings::default();
        let mut key = String::new();
        for (i, s) in ctx.statements.iter().enumerate() {
            for t in &s.ann.tables {
                post(&mut p.tables, &mut key, t, i);
            }
            let columns = s.ann.columns.iter().map(|c| &c.column);
            for c in columns.chain(s.ann.predicates.iter().map(|p| &p.column)) {
                post(&mut p.columns, &mut key, c, i);
            }
        }
        p
    }
}

/// `name`'s list, empty when no statement mentions it.
fn lookup<'p>(list: &'p PostingList, name: &str) -> &'p [usize] {
    list.get(&name.to_ascii_lowercase()).map_or(&[], Vec::as_slice)
}

/// Append statement `i` to `name`'s list. Statements arrive in ascending
/// order, so a repeat within one statement is the list's last entry.
fn post(list: &mut PostingList, key: &mut String, name: &str, i: usize) {
    key.clear();
    key.push_str(name);
    key.make_ascii_lowercase();
    match list.get_mut(key.as_str()) {
        Some(v) if v.last() == Some(&i) => {}
        Some(v) => v.push(i),
        None => {
            list.insert(key.clone(), vec![i]);
        }
    }
}

/// Intersect two ascending lists by walking the shorter one and
/// binary-searching the rest of the longer one. A common column name's
/// list spans the whole workload while a table's stays small, so a lookup
/// costs O(short · log long) rather than the O(long) of a merge.
fn intersect(a: &[usize], b: &[usize]) -> Vec<usize> {
    let (short, mut long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short
        .iter()
        .filter(|&&i| match long.binary_search(&i) {
            Ok(k) => {
                long = &long[k + 1..];
                true
            }
            Err(k) => {
                long = &long[k..];
                false
            }
        })
        .copied()
        .collect()
}

/// Test oracle for [`ImpactIndex::impacted`]: the linear scan over every
/// statement that the index replaces.
#[cfg(test)]
fn impacted_statements(ctx: &Context, table: &str, column: &str) -> Vec<usize> {
    ctx.statements
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            let touches_table =
                s.ann.tables.iter().any(|t| t.eq_ignore_ascii_case(table));
            let touches_col = s
                .ann
                .columns
                .iter()
                .any(|c| c.column.eq_ignore_ascii_case(column))
                || s.ann
                    .predicates
                    .iter()
                    .any(|p| p.column.eq_ignore_ascii_case(column));
            touches_table && touches_col
        })
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(super) mod tests {
    use super::*;
    use crate::anti_pattern::AntiPatternKind;
    use crate::context::ContextBuilder;
    use crate::detect::Detector;
    use crate::fix::FixEngine;
    use sqlcheck_parser::annotate::ColumnRole;

    fn fix_for(sql: &str, kind: AntiPatternKind) -> Fix {
        let ctx = ContextBuilder::new().add_script(sql).build();
        let report = Detector::default().detect(&ctx);
        let d = report
            .detections
            .iter()
            .find(|d| d.kind == kind)
            .unwrap_or_else(|| panic!("{kind} not detected in: {sql}"));
        FixEngine.fix(d, &ctx)
    }

    #[test]
    fn implicit_columns_rewritten_from_schema() {
        // Example 2 from the paper.
        let f = fix_for(
            "CREATE TABLE Tenant (Tenant_ID TEXT PRIMARY KEY, Zone_ID TEXT, Active BOOLEAN, User_IDs TEXT);\
             INSERT INTO Tenant VALUES ('T1', 'Z1', True, 'U9');",
            AntiPatternKind::ImplicitColumns,
        );
        let Fix::Rewrite { fixed, .. } = f else { panic!("expected rewrite, got {f:?}") };
        assert!(
            fixed.contains("(Tenant_ID, Zone_ID, Active, User_IDs)"),
            "column list injected: {fixed}"
        );
    }

    #[test]
    fn implicit_columns_arity_mismatch_falls_back() {
        let f = fix_for(
            "CREATE TABLE t (a INT, b INT, c INT);\
             INSERT INTO t VALUES (1, 2);",
            AntiPatternKind::ImplicitColumns,
        );
        assert!(matches!(f, Fix::Textual { .. }), "ambiguous → textual");
    }

    #[test]
    fn wildcard_expanded() {
        let f = fix_for(
            "CREATE TABLE t (a INT PRIMARY KEY, b TEXT);\
             SELECT * FROM t WHERE b = 'x';",
            AntiPatternKind::ColumnWildcard,
        );
        let Fix::Rewrite { fixed, .. } = f else { panic!("{f:?}") };
        assert!(fixed.starts_with("SELECT a, b FROM t"), "{fixed}");
    }

    #[test]
    fn wildcard_unknown_table_is_textual() {
        let f = fix_for("SELECT * FROM mystery", AntiPatternKind::ColumnWildcard);
        assert!(matches!(f, Fix::Textual { .. }));
    }

    #[test]
    fn concat_nulls_coalesced() {
        let f = fix_for(
            "CREATE TABLE u (first TEXT, last TEXT);\
             SELECT first || last FROM u;",
            AntiPatternKind::ConcatenateNulls,
        );
        let Fix::Rewrite { fixed, .. } = f else { panic!("{f:?}") };
        assert!(fixed.contains("COALESCE(first, '')"), "{fixed}");
        assert!(fixed.contains("COALESCE(last, '')"), "{fixed}");
    }

    #[test]
    fn distinct_join_becomes_exists() {
        let f = fix_for(
            "SELECT DISTINCT t.a FROM t JOIN u ON t.id = u.tid",
            AntiPatternKind::DistinctJoin,
        );
        let Fix::Rewrite { fixed, .. } = f else { panic!("{f:?}") };
        assert!(fixed.contains("EXISTS"), "{fixed}");
        assert!(!fixed.contains("DISTINCT"), "{fixed}");
        assert!(!fixed.contains("JOIN"), "{fixed}");
    }

    #[test]
    fn enumerated_types_lookup_table_from_paper_example4() {
        let f = fix_for(
            "CREATE TABLE User (User_ID TEXT PRIMARY KEY, Role VARCHAR(5));\
             ALTER TABLE User ADD CONSTRAINT User_Role_Check CHECK (Role IN ('R1','R2','R3'));",
            AntiPatternKind::EnumeratedTypes,
        );
        let Fix::SchemaChange { statements, .. } = f else { panic!("{f:?}") };
        assert!(statements[0].contains("CREATE TABLE User_Role"), "{statements:?}");
        assert!(statements.iter().any(|s| s.contains("'R2'")));
        assert!(statements.iter().any(|s| s.contains("DROP COLUMN Role")));
    }

    #[test]
    fn mva_intersection_table_from_paper() {
        let f = fix_for(
            "CREATE TABLE Tenants (Tenant_ID TEXT PRIMARY KEY, User_IDs TEXT);\
             SELECT * FROM Tenants WHERE User_IDs LIKE '[[:<:]]U1[[:>:]]';",
            AntiPatternKind::MultiValuedAttribute,
        );
        let Fix::SchemaChange { statements, impacted_queries } = f else { panic!("{f:?}") };
        assert!(statements.iter().any(|s| s.contains("CREATE TABLE")), "{statements:?}");
        assert!(statements.iter().any(|s| s.contains("DROP COLUMN User_IDs")));
        assert!(!impacted_queries.is_empty(), "LIKE query must be rewritten");
        assert!(impacted_queries[0].1.contains("JOIN"));
    }

    #[test]
    fn no_foreign_key_alter_statement() {
        let f = fix_for(
            "CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY);\
             CREATE TABLE Q (Q_ID INTEGER PRIMARY KEY, Tenant_ID INTEGER);\
             SELECT * FROM Q JOIN Tenant t ON t.Tenant_ID = Q.Tenant_ID;",
            AntiPatternKind::NoForeignKey,
        );
        let Fix::SchemaChange { statements, .. } = f else { panic!("{f:?}") };
        assert!(statements[0].contains("FOREIGN KEY (tenant_id)"), "{statements:?}");
        assert!(statements[0].to_lowercase().contains("references tenant"));
    }

    #[test]
    fn index_fixes() {
        let f = fix_for(
            "CREATE TABLE t (id INT PRIMARY KEY, zone TEXT);\
             SELECT * FROM t WHERE zone = 'Z';",
            AntiPatternKind::IndexUnderuse,
        );
        let Fix::SchemaChange { statements, .. } = f else { panic!("{f:?}") };
        assert!(statements[0].starts_with("CREATE INDEX"));

        let f = fix_for(
            "CREATE TABLE t (id INT PRIMARY KEY, a INT);\
             CREATE INDEX ia ON t (a);\
             SELECT * FROM t WHERE id = 1;",
            AntiPatternKind::IndexOveruse,
        );
        let Fix::SchemaChange { statements, .. } = f else { panic!("{f:?}") };
        assert_eq!(statements[0], "DROP INDEX ia");
    }

    /// Deterministic splitmix64 stream for the randomized oracle tests.
    pub(in crate::fix) struct Rng(pub(in crate::fix) u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
            xs[self.below(xs.len())]
        }

        /// `name` with each ASCII letter's case flipped at random.
        fn case(&mut self, name: &str) -> String {
            name.chars()
                .map(|c| if self.below(2) == 0 { c.to_ascii_uppercase() } else { c.to_ascii_lowercase() })
                .collect()
        }
    }

    const TABLES: [&str; 4] = ["Users", "orders", "TENANTS", "audit_Log"];
    const COLUMNS: [&str; 6] = ["Id", "name", "User_IDs", "role", "ZONE", "Größe"];

    /// One random statement. Shapes cover a column seen only in a WHERE
    /// predicate, tables touched without the column, joins, writes, and
    /// trigger bodies; `prior` supplies duplicate texts.
    pub(in crate::fix) fn random_statement(rng: &mut Rng, n: usize, prior: &[String]) -> String {
        let t = rng.pick(&TABLES);
        let t2 = rng.pick(&TABLES);
        let c = rng.pick(&COLUMNS);
        let c2 = rng.pick(&COLUMNS);
        let (t, t2, c, c2) = (rng.case(t), rng.case(t2), rng.case(c), rng.case(c2));
        match rng.below(9) {
            0 => format!("SELECT {c}, {c2} FROM {t} WHERE {c2} = 1"),
            1 => format!("SELECT * FROM {t} WHERE {c} LIKE '%x%'"),
            2 => format!("INSERT INTO {t} ({c}, {c2}) VALUES (1, 2)"),
            3 => format!("UPDATE {t} SET {c} = 1 WHERE {c2} > 3"),
            4 => format!("SELECT a.{c} FROM {t} a JOIN {t2} b ON a.{c} = b.{c2}"),
            5 => format!(
                "CREATE TRIGGER trg{n} AFTER INSERT ON {t} FOR EACH ROW BEGIN \
                 UPDATE {t2} SET {c} = 0 WHERE {c2} = 1; END"
            ),
            6 => format!("DELETE FROM {t} WHERE {c} IS NULL"),
            7 => format!("SELECT COUNT(*) FROM {t}"),
            _ => match prior.len() {
                0 => format!("SELECT {c} FROM {t}"),
                len => prior[rng.below(len)].clone(),
            },
        }
    }

    /// A schema over [`TABLES`] for fix synthesis: `Users` has two
    /// columns, so a two-value INSERT and `SELECT *` rewrite; `orders` has
    /// three, so the INSERT falls back to advice; `TENANTS` carries an
    /// Enumerated Types CHECK and a Multi-Valued Attribute id list;
    /// `audit_Log` has no primary key but a candidate key column.
    pub(in crate::fix) const FIX_SCHEMA: [&str; 4] = [
        "CREATE TABLE Users (Id INT PRIMARY KEY, name TEXT)",
        "CREATE TABLE orders (Id INT PRIMARY KEY, name TEXT, ZONE TEXT)",
        "CREATE TABLE TENANTS (Tenant_ID TEXT PRIMARY KEY, User_IDs TEXT, role VARCHAR(5), \
         CHECK (role IN ('R1','R2')))",
        "CREATE TABLE audit_Log (log_id INT, note TEXT)",
    ];

    /// One random statement for fix synthesis over [`FIX_SCHEMA`]: adds
    /// implicit-column INSERTs into every table, `SELECT *` over a known
    /// and an unknown table, and No Primary Key DDL to the
    /// [`random_statement`] shapes.
    pub(in crate::fix) fn random_fix_statement(
        rng: &mut Rng,
        n: usize,
        prior: &[String],
    ) -> String {
        let t = rng.pick(&TABLES);
        let t = rng.case(t);
        match rng.below(6) {
            0 => format!("INSERT INTO {t} VALUES ({n}, 'x')"),
            1 => format!("SELECT * FROM {t} WHERE Id = {}", rng.below(3)),
            2 => format!("SELECT * FROM mystery{} ORDER BY RAND()", rng.below(2)),
            3 => format!("CREATE TABLE audit_{n} (audit_id INT, note TEXT)"),
            _ => random_statement(rng, n, prior),
        }
    }

    #[test]
    fn impact_index_matches_linear_scan_oracle() {
        let mut rng = Rng(0x1A9AC7);
        let mut nonempty = 0;
        for _ in 0..24 {
            let mut stmts: Vec<String> = Vec::new();
            for n in 0..60 {
                let s = random_statement(&mut rng, n, &stmts);
                stmts.push(s);
            }
            let mut ctx = ContextBuilder::new().add_script(&stmts.join(";\n")).build();
            // The parser records WHERE columns as both column references
            // and predicates; drop the references from some statements so
            // their WHERE columns are seen only as predicates.
            for s in &mut ctx.statements {
                if rng.below(3) == 0 {
                    let ann = std::sync::Arc::make_mut(&mut s.ann);
                    ann.columns = ann
                        .columns
                        .iter()
                        .filter(|c| c.role != ColumnRole::Filtered)
                        .cloned()
                        .collect();
                }
            }
            let index = ImpactIndex::new(&ctx);
            let tables = TABLES.iter().chain(&["nosuch_table", "Users_x"]);
            for table in tables {
                for column in COLUMNS.iter().chain(&["nosuch_col", "I"]) {
                    for (t, c) in [
                        (table.to_string(), column.to_string()),
                        (rng.case(table), rng.case(column)),
                    ] {
                        let want = impacted_statements(&ctx, &t, &c);
                        assert_eq!(index.impacted(&t, &c), want, "{t}.{c}");
                        nonempty += usize::from(!want.is_empty());
                    }
                }
            }
        }
        assert!(nonempty > 100, "the scripts must produce impacted statements ({nonempty})");
    }

    #[test]
    fn impact_index_is_built_on_first_lookup() {
        let ctx = ContextBuilder::new().add_script("SELECT a FROM t WHERE b = 1").build();
        let index = ImpactIndex::new(&ctx);
        assert!(index.postings.get().is_none());
        assert_eq!(index.impacted("T", "B"), vec![0]);
        assert!(index.postings.get().is_some());
    }

    #[test]
    fn rounding_errors_rewrites_create_table() {
        let f = fix_for(
            "CREATE TABLE p (id INT PRIMARY KEY, price FLOAT)",
            AntiPatternKind::RoundingErrors,
        );
        let Fix::Rewrite { fixed, .. } = f else { panic!("{f:?}") };
        assert!(fixed.contains("NUMERIC(19, 4)"), "{fixed}");
        assert!(!fixed.contains("FLOAT"));
    }
}

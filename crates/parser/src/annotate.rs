//! Annotation layer over the loose parse tree.
//!
//! The paper (§4.1): *"unlike a typical DBMS parser, [the non-validating
//! parser] does not generate a semantically-rich parse tree. We address
//! this limitation by annotating the parse tree returned by sqlparse."*
//!
//! [`Annotations`] is that enrichment: a per-statement digest of table
//! references, column references, predicates, join conditions, pattern
//! predicates, and function calls, computed once and shared by the
//! detection rules and the context builder.
//!
//! Expression nodes live in the statement's [`ExprArena`], so [`annotate`]
//! takes the arena alongside the statement shape; compound bodies share
//! the enclosing statement's arena.

use crate::arena::{ExprArena, ExprId};
use crate::ast::*;
use crate::istr::IStr;

/// The role in which a column is referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnRole {
    /// In the select list.
    Projected,
    /// In a WHERE/HAVING predicate.
    Filtered,
    /// In a JOIN ON condition.
    Joined,
    /// In GROUP BY.
    Grouped,
    /// In ORDER BY.
    Ordered,
    /// Assigned by UPDATE SET or INSERT column list.
    Written,
}

/// One annotated column reference.
#[derive(Debug, Clone)]
pub struct ColumnRef {
    /// Table qualifier or alias, when written (`t` in `t.a`).
    pub qualifier: Option<IStr>,
    /// Column name.
    pub column: IStr,
    /// Where the reference occurred.
    pub role: ColumnRole,
}

/// A predicate of the shape `column <op> value-ish`, extracted from WHERE
/// clauses for workload analysis (index advisor rules).
#[derive(Debug, Clone)]
pub struct SimplePredicate {
    /// Qualifier, if any.
    pub qualifier: Option<IStr>,
    /// Column name.
    pub column: IStr,
    /// Operator text (`=`, `<`, `LIKE`, `IN`, ...).
    pub op: IStr,
}

/// A join condition of the shape `a.x = b.y` (equi) or an expression join
/// (the Multi-Valued Attribute smell when it is a LIKE over `||`).
#[derive(Debug, Clone)]
pub struct JoinCondition {
    /// Left side `(qualifier, column)`.
    pub left: (Option<IStr>, IStr),
    /// Right side `(qualifier, column)`; `None` when the right side is an
    /// expression rather than a bare column.
    pub right: Option<(Option<IStr>, IStr)>,
    /// True when the condition uses LIKE/REGEXP instead of equality.
    pub is_pattern: bool,
}

/// Statement annotations.
///
/// Every list is a boxed slice: annotations live as long as the statement
/// they describe, so each list is handed off at its exact length and keeps
/// no spare capacity. Only [`annotate`] builds them.
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    /// Every table referenced (FROM, JOIN, INSERT INTO, UPDATE, DELETE).
    pub tables: Box<[IStr]>,
    /// Every column reference with its role.
    pub columns: Box<[ColumnRef]>,
    /// Simple WHERE predicates (for index-usage analysis).
    pub predicates: Box<[SimplePredicate]>,
    /// Join conditions.
    pub join_conditions: Box<[JoinCondition]>,
    /// Uppercased names of all functions called anywhere in the statement.
    pub functions: Box<[IStr]>,
    /// Pattern operators appearing in WHERE/ON (`LIKE`, `REGEXP`, ...).
    pub pattern_ops: Box<[LikeOp]>,
    /// Number of JOIN clauses (comma joins included).
    pub join_count: usize,
    /// DISTINCT present on the (outer) SELECT.
    pub distinct: bool,
    /// A wildcard `*` appears in the select list.
    pub wildcard: bool,
    /// String-literal values appearing in comparisons (for data-in-metadata
    /// and MVA heuristics).
    pub compared_strings: Box<[IStr]>,
}

/// The growable lists [`annotate`] fills before handing them off exact:
/// [`Annotations`]' lists as `Vec`s.
#[derive(Default)]
struct Draft {
    tables: Vec<IStr>,
    columns: Vec<ColumnRef>,
    predicates: Vec<SimplePredicate>,
    join_conditions: Vec<JoinCondition>,
    functions: Vec<IStr>,
    pattern_ops: Vec<LikeOp>,
    join_count: usize,
    distinct: bool,
    wildcard: bool,
    compared_strings: Vec<IStr>,
}

impl Draft {
    fn finish(self) -> Annotations {
        Annotations {
            tables: self.tables.into_boxed_slice(),
            columns: self.columns.into_boxed_slice(),
            predicates: self.predicates.into_boxed_slice(),
            join_conditions: self.join_conditions.into_boxed_slice(),
            functions: self.functions.into_boxed_slice(),
            pattern_ops: self.pattern_ops.into_boxed_slice(),
            join_count: self.join_count,
            distinct: self.distinct,
            wildcard: self.wildcard,
            compared_strings: self.compared_strings.into_boxed_slice(),
        }
    }
}

/// Compute annotations for one statement. `arena` is the statement's
/// [`ExprArena`] ([`crate::ast::ParsedStatement::arena`]); compound-body
/// sub-statements resolve against the same arena and fill the same lists,
/// in body order.
pub fn annotate(stmt: &Statement, arena: &ExprArena) -> Annotations {
    let mut draft = Draft::default();
    annotate_into(stmt, arena, &mut draft);
    draft.finish()
}

fn annotate_into(stmt: &Statement, arena: &ExprArena, a: &mut Draft) {
    match stmt {
        Statement::Select(s) => annotate_select(s, arena, a),
        Statement::Insert(i) => {
            a.tables.push(i.table.name().into());
            for c in &i.columns {
                a.columns.push(ColumnRef {
                    qualifier: None,
                    column: c.clone(),
                    role: ColumnRole::Written,
                });
            }
            if let InsertSource::Select(s) = &i.source {
                annotate_select(s, arena, a);
            }
            if let InsertSource::Values(rows) = &i.source {
                for row in rows {
                    for e in row.iter() {
                        collect_functions(e, arena, a);
                    }
                }
            }
        }
        Statement::Update(u) => {
            a.tables.push(u.table.name().into());
            for (col, e) in &u.assignments {
                a.columns.push(ColumnRef {
                    qualifier: None,
                    column: col.clone(),
                    role: ColumnRole::Written,
                });
                collect_functions(*e, arena, a);
            }
            if let Some(w) = u.where_clause {
                annotate_where(w, arena, a);
            }
        }
        Statement::Delete(d) => {
            a.tables.push(d.table.name().into());
            if let Some(w) = d.where_clause {
                annotate_where(w, arena, a);
            }
        }
        Statement::CreateTable(c) => {
            a.tables.push(c.name.name().into());
        }
        Statement::CreateIndex(i) => {
            a.tables.push(i.table.name().into());
        }
        Statement::CreateTrigger(t) => {
            a.tables.push(t.table.name().into());
            annotate_body(&t.body, arena, a);
        }
        Statement::CreateRoutine(r) => {
            annotate_body(&r.body, arena, a);
        }
        Statement::AlterTable(t) => {
            a.tables.push(t.table.name().into());
        }
        Statement::Drop(d) => {
            a.tables.push(d.name.name().into());
        }
        Statement::Other(_) => {}
    }
}

/// Fold the annotations of a compound statement's body sub-statements
/// into the enclosing statement's digest: a trigger whose body writes
/// `u` and deletes from `v` *references* `u` and `v` — the contextual
/// rules and the inter-query rules depend on body tables being surfaced
/// here. Each body statement appends to every
/// list after the enclosing statement's own entries and the earlier body
/// statements'.
fn annotate_body(body: &[BodyStatement], arena: &ExprArena, a: &mut Draft) {
    for b in body {
        annotate_into(&b.stmt, arena, a);
    }
}

fn annotate_select(s: &Select, arena: &ExprArena, a: &mut Draft) {
    a.distinct |= s.distinct;
    a.wildcard |= s.has_wildcard();
    a.join_count += s.join_count();
    for t in s.tables() {
        if t.subquery.is_some() {
            if let Some(sub) = &t.subquery {
                annotate_select(sub, arena, a);
            }
        } else {
            a.tables.push(t.name.name().into());
        }
    }
    for item in &s.items {
        if let SelectItem::Expr { expr, .. } = item {
            for (q, c) in arena.column_refs(*expr) {
                a.columns.push(ColumnRef { qualifier: q, column: c, role: ColumnRole::Projected });
            }
            collect_functions(*expr, arena, a);
        }
    }
    for j in &s.joins {
        if let Some(on) = j.on {
            annotate_join_condition(on, arena, a);
            collect_functions(on, arena, a);
            collect_patterns(on, arena, a);
            for (q, c) in arena.column_refs(on) {
                a.columns.push(ColumnRef { qualifier: q, column: c, role: ColumnRole::Joined });
            }
        }
        for u in &j.using {
            a.columns.push(ColumnRef {
                qualifier: None,
                column: u.clone(),
                role: ColumnRole::Joined,
            });
        }
    }
    if let Some(w) = s.where_clause {
        annotate_where(w, arena, a);
    }
    for g in s.group_by.iter() {
        for (q, c) in arena.column_refs(g) {
            a.columns.push(ColumnRef { qualifier: q, column: c, role: ColumnRole::Grouped });
        }
    }
    if let Some(h) = s.having {
        annotate_where(h, arena, a);
    }
    for o in &s.order_by {
        for (q, c) in arena.column_refs(o.expr) {
            a.columns.push(ColumnRef { qualifier: q, column: c, role: ColumnRole::Ordered });
        }
        collect_functions(o.expr, arena, a);
    }
}

fn annotate_where(e: ExprId, arena: &ExprArena, a: &mut Draft) {
    collect_functions(e, arena, a);
    collect_patterns(e, arena, a);
    collect_predicates(e, arena, a);
    for (q, c) in arena.column_refs(e) {
        a.columns.push(ColumnRef { qualifier: q, column: c, role: ColumnRole::Filtered });
    }
    // subqueries
    let mut subs: Vec<&Select> = Vec::new();
    arena.walk(e, &mut |node| {
        if let Expr::Subquery(sub) = node {
            subs.push(sub);
        }
    });
    for sub in subs {
        annotate_select(sub, arena, a);
    }
}

fn collect_functions(e: ExprId, arena: &ExprArena, a: &mut Draft) {
    a.functions.extend(arena.function_calls(e));
}

fn collect_patterns(e: ExprId, arena: &ExprArena, a: &mut Draft) {
    arena.walk(e, &mut |node| {
        if let Expr::Like { op, pattern, .. } = node {
            a.pattern_ops.push(*op);
            if let Expr::StringLit(s) = arena.node(*pattern) {
                a.compared_strings.push(s.clone());
            }
        }
    });
}

fn collect_predicates(e: ExprId, arena: &ExprArena, a: &mut Draft) {
    arena.walk(e, &mut |node| match node {
        Expr::Binary { left, op, right } if is_comparison(op) => {
            if let Expr::Ident(parts) = arena.node(*left) {
                push_pred(a, parts, op.clone());
                if let Expr::StringLit(s) = arena.node(*right) {
                    a.compared_strings.push(s.clone());
                }
            } else if let Expr::Ident(parts) = arena.node(*right) {
                push_pred(a, parts, op.clone());
                if let Expr::StringLit(s) = arena.node(*left) {
                    a.compared_strings.push(s.clone());
                }
            }
        }
        Expr::Like { expr, op, .. } => {
            if let Expr::Ident(parts) = arena.node(*expr) {
                push_pred(a, parts, op.sql().into());
            }
        }
        Expr::InList { expr, .. } => {
            if let Expr::Ident(parts) = arena.node(*expr) {
                push_pred(a, parts, "IN".into());
            }
        }
        Expr::Between { expr, .. } => {
            if let Expr::Ident(parts) = arena.node(*expr) {
                push_pred(a, parts, "BETWEEN".into());
            }
        }
        Expr::IsNull { expr, .. } => {
            if let Expr::Ident(parts) = arena.node(*expr) {
                push_pred(a, parts, "IS NULL".into());
            }
        }
        _ => {}
    });
}

fn is_comparison(op: &str) -> bool {
    matches!(op, "=" | "==" | "<>" | "!=" | "<" | "<=" | ">" | ">=" | "<=>")
}

fn push_pred(a: &mut Draft, parts: &[IStr], op: IStr) {
    let (q, c) = match parts.len() {
        1 => (None, parts[0].clone()),
        2 => (Some(parts[0].clone()), parts[1].clone()),
        _ => return,
    };
    a.predicates.push(SimplePredicate { qualifier: q, column: c, op });
}

fn annotate_join_condition(on: ExprId, arena: &ExprArena, a: &mut Draft) {
    // Unwrap parens.
    let mut e = arena.node(on);
    while let Expr::Paren(inner) = e {
        e = arena.node(*inner);
    }
    match e {
        Expr::Binary { left, op, right } if is_comparison(op) => {
            let l = ident_parts(arena.node(*left));
            let r = ident_parts(arena.node(*right));
            if let Some(l) = l {
                a.join_conditions.push(JoinCondition {
                    left: l,
                    right: r,
                    is_pattern: false,
                });
            }
        }
        Expr::Binary { left, op, right } if op == "AND" => {
            annotate_join_condition(*left, arena, a);
            annotate_join_condition(*right, arena, a);
        }
        Expr::Like { expr, .. } => {
            if let Some(l) = ident_parts(arena.node(*expr)) {
                a.join_conditions.push(JoinCondition { left: l, right: None, is_pattern: true });
            }
        }
        _ => {}
    }
}

fn ident_parts(e: &Expr) -> Option<(Option<IStr>, IStr)> {
    if let Expr::Ident(parts) = e {
        match parts.len() {
            1 => Some((None, parts[0].clone())),
            2 => Some((Some(parts[0].clone()), parts[1].clone())),
            _ => None,
        }
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_one;
    use crate::dialect::Dialect;

    fn ann(sql: &str) -> Annotations {
        let p = parse_one(sql, Dialect::Generic);
        annotate(&p.stmt, &p.arena)
    }

    #[test]
    fn select_annotations() {
        let a = ann("SELECT t.a, b FROM t JOIN u ON t.id = u.tid WHERE t.c = 'x' GROUP BY t.a ORDER BY b");
        assert_eq!(*a.tables, ["t", "u"]);
        assert!(a.columns.iter().any(|c| c.role == ColumnRole::Projected && c.column == "a"));
        assert!(a.columns.iter().any(|c| c.role == ColumnRole::Joined && c.column == "tid"));
        assert!(a.columns.iter().any(|c| c.role == ColumnRole::Filtered && c.column == "c"));
        assert!(a.columns.iter().any(|c| c.role == ColumnRole::Grouped));
        assert!(a.columns.iter().any(|c| c.role == ColumnRole::Ordered));
        assert_eq!(a.join_count, 1);
        assert_eq!(a.join_conditions.len(), 1);
        assert!(!a.join_conditions[0].is_pattern);
        assert_eq!(*a.compared_strings, ["x"]);
    }

    #[test]
    fn pattern_join_is_flagged() {
        let a = ann("SELECT * FROM t JOIN u ON t.ids LIKE '%' || u.id || '%'");
        assert_eq!(a.join_conditions.len(), 1);
        assert!(a.join_conditions[0].is_pattern);
        assert!(a.wildcard);
        assert!(a.pattern_ops.contains(&LikeOp::Like));
    }

    #[test]
    fn update_annotations() {
        let a = ann("UPDATE u SET r = LOWER('R5') WHERE r = 'R2'");
        assert_eq!(*a.tables, ["u"]);
        assert!(a.columns.iter().any(|c| c.role == ColumnRole::Written && c.column == "r"));
        assert!(a.functions.iter().any(|f| f == "LOWER"));
        assert_eq!(a.predicates.len(), 1);
        assert_eq!(a.predicates[0].op, "=");
    }

    #[test]
    fn insert_annotations() {
        let a = ann("INSERT INTO t (a, b) VALUES (1, NOW())");
        assert_eq!(*a.tables, ["t"]);
        assert_eq!(
            a.columns.iter().filter(|c| c.role == ColumnRole::Written).count(),
            2
        );
        assert!(a.functions.iter().any(|f| f == "NOW"));
    }

    #[test]
    fn predicates_from_in_between_null() {
        let a = ann("SELECT * FROM t WHERE a IN (1,2) AND b BETWEEN 1 AND 2 AND c IS NULL AND d LIKE 'x%'");
        let ops: Vec<&str> = a.predicates.iter().map(|p| p.op.as_str()).collect();
        assert!(ops.contains(&"IN"));
        assert!(ops.contains(&"BETWEEN"));
        assert!(ops.contains(&"IS NULL"));
        assert!(ops.contains(&"LIKE"));
    }

    #[test]
    fn trigger_body_tables_are_surfaced() {
        // The acceptance repro: the trigger's annotations must include
        // both body-referenced tables (u, v) plus the attached table (t),
        // so the rules that read the schema see the body's tables.
        let a = ann(
            "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW \
             BEGIN UPDATE u SET a = 1; DELETE FROM v; END",
        );
        assert_eq!(*a.tables, ["t", "u", "v"]);
        assert!(a.columns.iter().any(|c| c.role == ColumnRole::Written && c.column == "a"));
    }

    #[test]
    fn dollar_function_body_tables_are_surfaced() {
        let a = ann(
            "CREATE FUNCTION bump() RETURNS trigger AS $fn$ \
             BEGIN UPDATE counters SET n = n + 1; DELETE FROM stale WHERE ts < now(); END \
             $fn$ LANGUAGE plpgsql",
        );
        assert_eq!(*a.tables, ["counters", "stale"]);
        assert!(a.functions.iter().any(|f| f == "NOW"));
    }

    #[test]
    fn subquery_tables_are_collected() {
        let a = ann("SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)");
        assert!(a.tables.iter().any(|t| t == "u"));
    }

    #[test]
    fn distinct_and_join_count() {
        let a = ann("SELECT DISTINCT a FROM t JOIN u ON t.x = u.x JOIN v ON u.y = v.y");
        assert!(a.distinct);
        assert_eq!(a.join_count, 2);
        assert_eq!(a.join_conditions.len(), 2);
    }

    /// One line per list, each entry in list order.
    fn lists(a: &Annotations) -> Vec<String> {
        fn col(q: &Option<IStr>, c: &IStr) -> String {
            q.as_ref().map_or(c.to_string(), |q| format!("{q}.{c}"))
        }
        fn line<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
            items.iter().map(f).collect::<Vec<_>>().join(" ")
        }
        vec![
            line(&a.tables, |t| t.to_string()),
            line(&a.columns, |c| format!("{}:{:?}", col(&c.qualifier, &c.column), c.role)),
            line(&a.predicates, |p| format!("{}{}", col(&p.qualifier, &p.column), p.op)),
            line(&a.join_conditions, |j| {
                let r = j.right.as_ref().map_or("-".into(), |(q, c)| col(q, c));
                format!("{}={r}{}", col(&j.left.0, &j.left.1), if j.is_pattern { "~" } else { "" })
            }),
            line(&a.functions, |f| f.to_string()),
            line(&a.pattern_ops, |o| o.sql().to_string()),
            line(&a.compared_strings, |s| s.to_string()),
            format!("joins {} distinct {} wildcard {}", a.join_count, a.distinct, a.wildcard),
        ]
    }

    #[test]
    fn body_statements_fill_every_list_in_body_order() {
        // Every list holds the enclosing statement's own entries first,
        // then each body statement's, in body order; within one body
        // statement the order is that of a standalone statement.
        let trigger = ann(
            "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW BEGIN \
             UPDATE u SET a = UPPER(b) WHERE c = 'x' AND d LIKE 'p%'; \
             SELECT DISTINCT v.e, COUNT(*) FROM v JOIN w ON v.id = w.vid AND v.n LIKE w.m \
             WHERE f IN (1, 2) AND 'y' = g GROUP BY v.e ORDER BY LOWER(v.e); \
             DELETE FROM z WHERE h NOT LIKE 'q%' OR k BETWEEN 1 AND 2 OR n IS NULL; END",
        );
        assert_eq!(
            lists(&trigger),
            [
                "t u v w z",
                "a:Written c:Filtered d:Filtered v.e:Projected v.id:Joined w.vid:Joined \
                 v.n:Joined w.m:Joined f:Filtered g:Filtered v.e:Grouped v.e:Ordered \
                 h:Filtered k:Filtered n:Filtered",
                "c= dLIKE fIN g= hLIKE kBETWEEN nIS NULL",
                "v.id=w.vid v.n=-~",
                "UPPER COUNT LOWER",
                "LIKE LIKE LIKE",
                "p% x y q%",
                "joins 1 distinct true wildcard false",
            ]
        );
        let routine = ann(
            "CREATE PROCEDURE p() BEGIN \
             INSERT INTO s (a, b) SELECT * FROM r WHERE r.a = 'z'; \
             IF x THEN UPDATE s SET b = NOW() WHERE a = 1; END IF; \
             SELECT 1 FROM q WHERE q.id IN (SELECT id FROM o WHERE o.t LIKE 'm%'); END",
        );
        assert_eq!(
            lists(&routine),
            [
                "s r s q o",
                "a:Written b:Written r.a:Filtered b:Written a:Filtered q.id:Filtered \
                 id:Projected o.t:Filtered",
                "r.a= a= q.idIN o.tLIKE",
                "",
                "NOW",
                "LIKE",
                "z m%",
                "joins 0 distinct false wildcard true",
            ]
        );
    }
}

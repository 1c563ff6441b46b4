//! Render ASTs back to SQL text.
//!
//! Used by the repair engine (`ap-fix`) after transforming a parse tree:
//! "It then transforms the parse tree to a SQL string based on the dialect
//! used by the application" (§6). Rendering is canonical (uppercase
//! keywords, single spaces) rather than byte-identical to the input — the
//! raw tokens remain available for untouched statements.
//!
//! Expression nodes live in the statement's [`ExprArena`], so every
//! `write_sql` threads the arena through; the owner-level entry point is
//! [`ParsedStatement::write_sql`](ParsedStatement), which supplies its own
//! arena.

use crate::arena::{ExprArena, ExprId};
use crate::ast::*;
use std::fmt::Write;

/// Types renderable to SQL text. `arena` resolves [`ExprId`] /
/// [`crate::arena::ExprRange`] indices; node-free types ignore it.
pub trait ToSql {
    /// Append SQL to `out`.
    fn write_sql(&self, arena: &ExprArena, out: &mut String);

    /// Render to a fresh string.
    fn to_sql(&self, arena: &ExprArena) -> String {
        let mut s = String::new();
        self.write_sql(arena, &mut s);
        s
    }
}

fn quote_ident(name: &str) -> String {
    let simple = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !name.chars().next().unwrap().is_ascii_digit();
    if simple {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

fn quote_string(value: &str) -> String {
    format!("'{}'", value.replace('\'', "''"))
}

impl ToSql for ObjectName {
    fn write_sql(&self, _arena: &ExprArena, out: &mut String) {
        let parts: Vec<String> = self.0.iter().map(|p| quote_ident(p)).collect();
        out.push_str(&parts.join("."));
    }
}

impl ToSql for TypeName {
    fn write_sql(&self, _arena: &ExprArena, out: &mut String) {
        out.push_str(&self.name);
        if !self.args.is_empty() {
            out.push('(');
            out.push_str(&self.args.join(", "));
            out.push(')');
        }
        for m in &self.modifiers {
            out.push(' ');
            out.push_str(m);
        }
    }
}

impl ToSql for ExprId {
    /// Render the arena node the id points at.
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        arena.node(*self).write_sql(arena, out);
    }
}

impl ToSql for Expr {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        match self {
            Expr::Ident(parts) => {
                let rendered: Vec<String> = parts
                    .iter()
                    .map(|p| if p == "*" { "*".to_string() } else { quote_ident(p) })
                    .collect();
                out.push_str(&rendered.join("."));
            }
            Expr::StringLit(s) => out.push_str(&quote_string(s)),
            Expr::NumberLit(n) => out.push_str(n),
            Expr::BoolLit(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
            Expr::Null => out.push_str("NULL"),
            Expr::Param(p) => out.push_str(p),
            Expr::Unary { op, expr } => {
                out.push_str(op);
                if op.chars().all(|c| c.is_ascii_alphabetic()) {
                    out.push(' ');
                }
                expr.write_sql(arena, out);
            }
            Expr::Binary { left, op, right } => {
                left.write_sql(arena, out);
                let _ = write!(out, " {op} ");
                right.write_sql(arena, out);
            }
            Expr::Function { name, args, distinct } => {
                out.push_str(name);
                out.push('(');
                if *distinct {
                    out.push_str("DISTINCT ");
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    a.write_sql(arena, out);
                }
                out.push(')');
            }
            Expr::Paren(e) => {
                out.push('(');
                e.write_sql(arena, out);
                out.push(')');
            }
            Expr::InList { expr, list, negated } => {
                expr.write_sql(arena, out);
                out.push_str(if *negated { " NOT IN (" } else { " IN (" });
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    e.write_sql(arena, out);
                }
                out.push(')');
            }
            Expr::Between { expr, low, high, negated } => {
                expr.write_sql(arena, out);
                out.push_str(if *negated { " NOT BETWEEN " } else { " BETWEEN " });
                low.write_sql(arena, out);
                out.push_str(" AND ");
                high.write_sql(arena, out);
            }
            Expr::Like { expr, op, pattern, negated } => {
                expr.write_sql(arena, out);
                out.push(' ');
                if *negated {
                    out.push_str("NOT ");
                }
                out.push_str(op.sql());
                out.push(' ');
                pattern.write_sql(arena, out);
            }
            Expr::IsNull { expr, negated } => {
                expr.write_sql(arena, out);
                out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
            }
            Expr::Subquery(sel) => {
                out.push('(');
                sel.write_sql(arena, out);
                out.push(')');
            }
            Expr::Raw(text) => out.push_str(text),
        }
    }
}

impl ToSql for SelectItem {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        match self {
            SelectItem::Wildcard { qualifier: Some(q) } => {
                out.push_str(&quote_ident(q));
                out.push_str(".*");
            }
            SelectItem::Wildcard { qualifier: None } => out.push('*'),
            SelectItem::Expr { expr, alias } => {
                expr.write_sql(arena, out);
                if let Some(a) = alias {
                    out.push_str(" AS ");
                    out.push_str(&quote_ident(a));
                }
            }
        }
    }
}

impl ToSql for TableRef {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        if let Some(sub) = &self.subquery {
            out.push('(');
            sub.write_sql(arena, out);
            out.push(')');
        } else {
            self.name.write_sql(arena, out);
        }
        if let Some(a) = &self.alias {
            out.push_str(" AS ");
            out.push_str(&quote_ident(a));
        }
    }
}

impl ToSql for Join {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        let kw = match self.join_type {
            JoinType::Inner => "JOIN",
            JoinType::Left => "LEFT JOIN",
            JoinType::Right => "RIGHT JOIN",
            JoinType::Full => "FULL JOIN",
            JoinType::Cross => "CROSS JOIN",
            JoinType::Comma => ",",
        };
        if self.join_type == JoinType::Comma {
            out.push_str(", ");
        } else {
            out.push(' ');
            out.push_str(kw);
            out.push(' ');
        }
        self.table.write_sql(arena, out);
        if let Some(on) = &self.on {
            out.push_str(" ON ");
            on.write_sql(arena, out);
        } else if !self.using.is_empty() {
            out.push_str(" USING (");
            out.push_str(&self.using.join(", "));
            out.push(')');
        }
    }
}

impl ToSql for Select {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        out.push_str("SELECT ");
        if self.distinct {
            out.push_str("DISTINCT ");
        }
        if self.items.is_empty() {
            out.push('*');
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            item.write_sql(arena, out);
        }
        if let Some(f) = &self.from {
            out.push_str(" FROM ");
            f.write_sql(arena, out);
        }
        for j in &self.joins {
            j.write_sql(arena, out);
        }
        if let Some(w) = &self.where_clause {
            out.push_str(" WHERE ");
            w.write_sql(arena, out);
        }
        if !self.group_by.is_empty() {
            out.push_str(" GROUP BY ");
            for (i, e) in self.group_by.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                e.write_sql(arena, out);
            }
        }
        if let Some(h) = &self.having {
            out.push_str(" HAVING ");
            h.write_sql(arena, out);
        }
        if !self.order_by.is_empty() {
            out.push_str(" ORDER BY ");
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                o.expr.write_sql(arena, out);
                if !o.asc {
                    out.push_str(" DESC");
                }
            }
        }
        if let Some(l) = &self.limit {
            out.push_str(" LIMIT ");
            out.push_str(l);
        }
        if let Some(tail) = &self.set_op_tail {
            out.push(' ');
            out.push_str(tail);
        }
    }
}

impl ToSql for CheckConstraint {
    fn write_sql(&self, _arena: &ExprArena, out: &mut String) {
        out.push_str("CHECK (");
        out.push_str(&self.expr_text);
        out.push(')');
    }
}

impl ToSql for ForeignKeyRef {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        out.push_str("REFERENCES ");
        self.table.write_sql(arena, out);
        if !self.columns.is_empty() {
            out.push('(');
            let cols: Vec<String> = self.columns.iter().map(|c| quote_ident(c)).collect();
            out.push_str(&cols.join(", "));
            out.push(')');
        }
        for a in &self.actions {
            out.push(' ');
            out.push_str(a);
        }
    }
}

impl ToSql for ColumnConstraint {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        match self {
            ColumnConstraint::PrimaryKey => out.push_str("PRIMARY KEY"),
            ColumnConstraint::NotNull => out.push_str("NOT NULL"),
            ColumnConstraint::Null => out.push_str("NULL"),
            ColumnConstraint::Unique => out.push_str("UNIQUE"),
            ColumnConstraint::AutoIncrement => out.push_str("AUTO_INCREMENT"),
            ColumnConstraint::Default(d) => {
                out.push_str("DEFAULT ");
                out.push_str(d);
            }
            ColumnConstraint::Check(c) => c.write_sql(arena, out),
            ColumnConstraint::References(r) => r.write_sql(arena, out),
            ColumnConstraint::Other(o) => out.push_str(o),
        }
    }
}

impl ToSql for ColumnDef {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        out.push_str(&quote_ident(&self.name));
        if let Some(t) = &self.data_type {
            out.push(' ');
            t.write_sql(arena, out);
        }
        for c in &self.constraints {
            out.push(' ');
            c.write_sql(arena, out);
        }
    }
}

impl ToSql for TableConstraint {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        if let Some(n) = &self.name {
            out.push_str("CONSTRAINT ");
            out.push_str(&quote_ident(n));
            out.push(' ');
        }
        match &self.kind {
            TableConstraintKind::PrimaryKey(cols) => {
                out.push_str("PRIMARY KEY (");
                let cols: Vec<String> = cols.iter().map(|c| quote_ident(c)).collect();
                out.push_str(&cols.join(", "));
                out.push(')');
            }
            TableConstraintKind::Unique(cols) => {
                out.push_str("UNIQUE (");
                let cols: Vec<String> = cols.iter().map(|c| quote_ident(c)).collect();
                out.push_str(&cols.join(", "));
                out.push(')');
            }
            TableConstraintKind::ForeignKey { columns, reference } => {
                out.push_str("FOREIGN KEY (");
                let cols: Vec<String> = columns.iter().map(|c| quote_ident(c)).collect();
                out.push_str(&cols.join(", "));
                out.push_str(") ");
                reference.write_sql(arena, out);
            }
            TableConstraintKind::Check(c) => c.write_sql(arena, out),
            TableConstraintKind::Other(o) => out.push_str(o),
        }
    }
}

impl ToSql for CreateTable {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        out.push_str("CREATE TABLE ");
        if self.if_not_exists {
            out.push_str("IF NOT EXISTS ");
        }
        self.name.write_sql(arena, out);
        out.push_str(" (");
        let mut first = true;
        for c in &self.columns {
            if !first {
                out.push_str(", ");
            }
            first = false;
            c.write_sql(arena, out);
        }
        for tc in &self.constraints {
            if !first {
                out.push_str(", ");
            }
            first = false;
            tc.write_sql(arena, out);
        }
        out.push(')');
        if !self.options.is_empty() {
            out.push(' ');
            out.push_str(&self.options);
        }
    }
}

impl ToSql for CreateIndex {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        out.push_str("CREATE ");
        if self.unique {
            out.push_str("UNIQUE ");
        }
        out.push_str("INDEX ");
        if !self.name.is_empty() {
            out.push_str(&quote_ident(&self.name));
            out.push(' ');
        }
        out.push_str("ON ");
        self.table.write_sql(arena, out);
        out.push_str(" (");
        let cols: Vec<String> = self.columns.iter().map(|c| quote_ident(c)).collect();
        out.push_str(&cols.join(", "));
        out.push(')');
    }
}

impl ToSql for AlterTable {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        out.push_str("ALTER TABLE ");
        self.table.write_sql(arena, out);
        out.push(' ');
        match &self.action {
            AlterAction::AddColumn(cd) => {
                out.push_str("ADD COLUMN ");
                cd.write_sql(arena, out);
            }
            AlterAction::DropColumn(n) => {
                out.push_str("DROP COLUMN ");
                out.push_str(&quote_ident(n));
            }
            AlterAction::AddConstraint(tc) => {
                out.push_str("ADD ");
                tc.write_sql(arena, out);
            }
            AlterAction::DropConstraint(n) => {
                out.push_str("DROP CONSTRAINT IF EXISTS ");
                out.push_str(&quote_ident(n));
            }
            AlterAction::Other(o) => out.push_str(o),
        }
    }
}

impl ToSql for Insert {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        out.push_str("INSERT INTO ");
        self.table.write_sql(arena, out);
        if !self.columns.is_empty() {
            out.push_str(" (");
            let cols: Vec<String> = self.columns.iter().map(|c| quote_ident(c)).collect();
            out.push_str(&cols.join(", "));
            out.push(')');
        }
        match &self.source {
            InsertSource::Values(rows) => {
                out.push_str(" VALUES ");
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('(');
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        e.write_sql(arena, out);
                    }
                    out.push(')');
                }
            }
            InsertSource::Select(s) => {
                out.push(' ');
                s.write_sql(arena, out);
            }
            InsertSource::Raw(r) => {
                out.push(' ');
                out.push_str(r);
            }
        }
    }
}

impl ToSql for Update {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        out.push_str("UPDATE ");
        self.table.write_sql(arena, out);
        out.push_str(" SET ");
        for (i, (col, e)) in self.assignments.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&quote_ident(col));
            out.push_str(" = ");
            e.write_sql(arena, out);
        }
        if let Some(w) = &self.where_clause {
            out.push_str(" WHERE ");
            w.write_sql(arena, out);
        }
    }
}

impl ToSql for Delete {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        out.push_str("DELETE FROM ");
        self.table.write_sql(arena, out);
        if let Some(w) = &self.where_clause {
            out.push_str(" WHERE ");
            w.write_sql(arena, out);
        }
    }
}

impl ToSql for Drop {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        out.push_str("DROP ");
        out.push_str(&self.object_kind);
        out.push(' ');
        if self.if_exists {
            out.push_str("IF EXISTS ");
        }
        self.name.write_sql(arena, out);
    }
}

impl ToSql for Statement {
    fn write_sql(&self, arena: &ExprArena, out: &mut String) {
        match self {
            Statement::CreateTable(s) => s.write_sql(arena, out),
            Statement::CreateIndex(s) => s.write_sql(arena, out),
            Statement::AlterTable(s) => s.write_sql(arena, out),
            Statement::Select(s) => s.write_sql(arena, out),
            Statement::Insert(s) => s.write_sql(arena, out),
            Statement::Update(s) => s.write_sql(arena, out),
            Statement::Delete(s) => s.write_sql(arena, out),
            Statement::Drop(s) => s.write_sql(arena, out),
            // Compound DDL renders from the original token text at the
            // ParsedStatement level (like Other): the body's dialect
            // details (delimiters, characteristics) are not modelled
            // losslessly enough to re-render canonically.
            Statement::CreateTrigger(_) | Statement::CreateRoutine(_) => {}
            Statement::Other(_) => {}
        }
    }
}

impl ParsedStatement {
    /// Append this statement's SQL to `out`, resolving arena indices
    /// against the statement's own [`ExprArena`].
    ///
    /// `Other` statements — and compound DDL, whose bodies are not
    /// re-rendered canonically — render as their original token text;
    /// shaped statements render canonically.
    pub fn write_sql(&self, out: &mut String) {
        if matches!(
            self.stmt,
            Statement::Other(_) | Statement::CreateTrigger(_) | Statement::CreateRoutine(_)
        ) {
            out.push_str(&self.text());
        } else {
            self.stmt.write_sql(&self.arena, out);
        }
    }

    /// Render to a fresh string (the arena-supplying counterpart of
    /// [`ToSql::to_sql`]).
    pub fn to_sql(&self) -> String {
        let mut s = String::new();
        self.write_sql(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_one;
    use crate::dialect::Dialect;

    fn roundtrip(sql: &str) -> String {
        parse_one(sql, Dialect::Generic).to_sql()
    }

    #[test]
    fn select_roundtrip_is_reparseable_and_stable() {
        let once = roundtrip("SELECT a, b AS x FROM t JOIN u ON t.id = u.id WHERE a = 'v' ORDER BY a DESC LIMIT 5");
        let twice = roundtrip(&once);
        assert_eq!(once, twice, "render must be a fixpoint");
        assert!(once.contains("JOIN u ON"));
    }

    #[test]
    fn create_table_roundtrip() {
        let sql = "CREATE TABLE Hosting (User_ID VARCHAR(10) REFERENCES Users(User_ID), PRIMARY KEY (User_ID))";
        let once = roundtrip(sql);
        assert!(once.contains("REFERENCES Users(User_ID)"));
        assert_eq!(roundtrip(&once), once);
    }

    #[test]
    fn insert_roundtrip() {
        let once = roundtrip("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
        assert_eq!(once, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
    }

    #[test]
    fn update_delete_roundtrip() {
        assert_eq!(
            roundtrip("UPDATE u SET r = 'R5' WHERE r = 'R2'"),
            "UPDATE u SET r = 'R5' WHERE r = 'R2'"
        );
        assert_eq!(roundtrip("DELETE FROM t WHERE a = 1"), "DELETE FROM t WHERE a = 1");
    }

    #[test]
    fn other_statement_renders_original_text() {
        let sql = "PRAGMA journal_mode = WAL";
        assert_eq!(roundtrip(sql), sql);
    }

    #[test]
    fn string_escaping() {
        let once = roundtrip("SELECT 'it''s' FROM t");
        assert!(once.contains("'it''s'"));
    }

    #[test]
    fn weird_identifier_gets_quoted() {
        let once = roundtrip("SELECT \"weird col\" FROM t");
        assert!(once.contains("\"weird col\""));
    }

    #[test]
    fn is_null_and_like_render() {
        let once = roundtrip("SELECT * FROM t WHERE a IS NOT NULL AND b LIKE '%x%'");
        assert!(once.contains("IS NOT NULL"));
        assert!(once.contains("LIKE '%x%'"));
    }
}

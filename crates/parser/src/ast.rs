//! Loose (non-validating) statement model.
//!
//! The parser shapes statements *best-effort*: everything it understands is
//! represented structurally; everything else is preserved verbatim as raw
//! token sequences ([`Expr::Raw`], [`Statement::Other`]). This mirrors the
//! annotated-parse-tree design the paper builds on top of `sqlparse` — the
//! detection rules need structure where available but must never reject a
//! statement from an unsupported dialect.

use crate::arena::{ExprArena, ExprId, ExprRange};
use crate::istr::IStr;
use crate::token::Span;
use std::sync::Arc;

/// A parsed statement together with the source text it came from.
///
/// The statement's tokens are transient parse input: they are dropped
/// once the tree is built, and only the source text is kept. Anything
/// that needs tokens again re-lexes [`ParsedStatement::source`] under
/// an explicit dialect.
#[derive(Debug, Clone)]
pub struct ParsedStatement {
    /// Structural interpretation of the statement.
    pub stmt: Statement,
    /// The statement's source text (trivia included) — the fallback
    /// representation used when a fix cannot be expressed structurally.
    /// Shared, so a rewrite fix can hold the original text without a
    /// copy.
    pub source: Arc<str>,
    /// Arena owning every expression node of `stmt`, including compound
    /// body sub-statements. All `ExprId`/`ExprRange` indices in the tree
    /// resolve here.
    pub arena: ExprArena,
}

impl ParsedStatement {
    /// Original statement text.
    pub fn text(&self) -> &str {
        &self.source
    }
}

/// Top-level statement classification.
#[derive(Debug, Clone)]
pub enum Statement {
    /// `CREATE TABLE ...`
    CreateTable(CreateTable),
    /// `CREATE [UNIQUE] INDEX ...`
    CreateIndex(CreateIndex),
    /// `CREATE TRIGGER ... BEGIN ... END` (or Postgres `EXECUTE
    /// FUNCTION` form) — the body is parsed sub-statements.
    CreateTrigger(CreateTrigger),
    /// `CREATE PROCEDURE|FUNCTION ...` with a `BEGIN…END` or
    /// dollar-quoted body of parsed sub-statements.
    CreateRoutine(CreateRoutine),
    /// `ALTER TABLE ...`
    AlterTable(AlterTable),
    /// `SELECT ...` (including set operations, loosely)
    Select(Select),
    /// `INSERT INTO ...`
    Insert(Insert),
    /// `UPDATE ...`
    Update(Update),
    /// `DELETE FROM ...`
    Delete(Delete),
    /// `DROP TABLE|INDEX ...`
    Drop(Drop),
    /// Any statement the parser does not model structurally.
    Other(OtherStatement),
}

impl Statement {
    /// Short uppercase tag naming the statement type (for reports).
    pub fn tag(&self) -> &'static str {
        match self {
            Statement::CreateTable(_) => "CREATE TABLE",
            Statement::CreateIndex(_) => "CREATE INDEX",
            Statement::CreateTrigger(_) => "CREATE TRIGGER",
            Statement::CreateRoutine(r) => match r.kind {
                RoutineKind::Procedure => "CREATE PROCEDURE",
                RoutineKind::Function => "CREATE FUNCTION",
            },
            Statement::AlterTable(_) => "ALTER TABLE",
            Statement::Select(_) => "SELECT",
            Statement::Insert(_) => "INSERT",
            Statement::Update(_) => "UPDATE",
            Statement::Delete(_) => "DELETE",
            Statement::Drop(_) => "DROP",
            Statement::Other(_) => "OTHER",
        }
    }

    /// The parsed body sub-statements, when this is compound DDL
    /// (trigger/procedure/function); empty otherwise.
    pub fn body(&self) -> &[BodyStatement] {
        match self {
            Statement::CreateTrigger(t) => &t.body,
            Statement::CreateRoutine(r) => &r.body,
            _ => &[],
        }
    }
}

/// An unmodelled statement: first significant keyword plus all tokens.
#[derive(Debug, Clone)]
pub struct OtherStatement {
    /// The leading keyword (uppercased), e.g. `PRAGMA`, `GRANT`; empty when
    /// the statement does not start with a keyword.
    pub leading_keyword: IStr,
}

/// A (possibly qualified) object name such as `schema.table`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ObjectName(pub Vec<IStr>);

impl ObjectName {
    /// Single-part name.
    pub fn simple(name: impl Into<IStr>) -> Self {
        ObjectName(vec![name.into()])
    }

    /// The final path component (the object's own name).
    pub fn name(&self) -> &str {
        self.0.last().map(IStr::as_str).unwrap_or("")
    }

    /// Case-insensitive comparison on the final component.
    pub fn name_eq(&self, other: &str) -> bool {
        self.name().eq_ignore_ascii_case(other)
    }
}

impl std::fmt::Display for ObjectName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0.join("."))
    }
}

/// A SQL type name with optional arguments and modifiers, e.g.
/// `VARCHAR(30)`, `DECIMAL(10, 2)`, `ENUM('a','b')`, `INT UNSIGNED`,
/// `TIMESTAMP WITH TIME ZONE`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TypeName {
    /// Uppercased base name (`VARCHAR`, `ENUM`, `TIMESTAMP`, ...).
    pub name: IStr,
    /// Raw argument texts inside parentheses (numbers or quoted strings).
    pub args: Vec<IStr>,
    /// Trailing modifiers, uppercased (`UNSIGNED`, `WITH TIME ZONE`, ...).
    pub modifiers: Vec<IStr>,
}

impl TypeName {
    /// Construct a simple type without args.
    pub fn simple(name: &str) -> Self {
        TypeName { name: IStr::new_upper(name), ..Default::default() }
    }

    /// True for textual types (`CHAR`, `VARCHAR`, `TEXT`, ...).
    pub fn is_textual(&self) -> bool {
        matches!(self.name.as_str(), "CHAR" | "VARCHAR" | "TEXT" | "CHARACTER" | "CLOB" | "STRING" | "NVARCHAR")
    }

    /// True for binary floating point types (the Rounding Errors AP).
    pub fn is_inexact_fractional(&self) -> bool {
        matches!(self.name.as_str(), "FLOAT" | "REAL" | "DOUBLE")
    }

    /// True for integer types.
    pub fn is_integral(&self) -> bool {
        matches!(
            self.name.as_str(),
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" | "MEDIUMINT" | "SERIAL"
        )
    }

    /// True for date/time types.
    pub fn is_temporal(&self) -> bool {
        matches!(self.name.as_str(), "DATE" | "TIME" | "DATETIME" | "TIMESTAMP" | "TIMESTAMPTZ")
    }

    /// True when the type carries timezone information.
    pub fn has_timezone(&self) -> bool {
        self.name == "TIMESTAMPTZ"
            || self.modifiers.iter().any(|m| m == "WITH TIME ZONE")
    }
}

/// One column definition in `CREATE TABLE`.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name (quoting stripped).
    pub name: IStr,
    /// Declared type; `None` when omitted (SQLite allows this).
    pub data_type: Option<TypeName>,
    /// Column-level constraints in declaration order.
    pub constraints: Vec<ColumnConstraint>,
}

impl ColumnDef {
    /// Whether the column is declared PRIMARY KEY at column level.
    pub fn is_primary_key(&self) -> bool {
        self.constraints.iter().any(|c| matches!(c, ColumnConstraint::PrimaryKey))
    }

    /// The referenced table if the column carries a `REFERENCES` clause.
    pub fn references(&self) -> Option<&ForeignKeyRef> {
        self.constraints.iter().find_map(|c| match c {
            ColumnConstraint::References(r) => Some(r),
            _ => None,
        })
    }
}

/// Column-level constraint.
#[derive(Debug, Clone)]
pub enum ColumnConstraint {
    /// `PRIMARY KEY`
    PrimaryKey,
    /// `NOT NULL`
    NotNull,
    /// `NULL`
    Null,
    /// `UNIQUE`
    Unique,
    /// `AUTO_INCREMENT` / `AUTOINCREMENT` / `SERIAL`-like
    AutoIncrement,
    /// `DEFAULT <expr>` (expression kept raw).
    Default(String),
    /// `CHECK (<expr>)`
    Check(CheckConstraint),
    /// `REFERENCES table (cols)`
    References(ForeignKeyRef),
    /// Anything else (`COLLATE`, dialect-specific), preserved as text.
    Other(String),
}

/// The target of a foreign key reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKeyRef {
    /// Referenced table.
    pub table: ObjectName,
    /// Referenced columns (may be empty → the table's PK).
    pub columns: Vec<IStr>,
    /// Referential actions (e.g. `ON DELETE CASCADE`), raw text.
    pub actions: Vec<String>,
}

/// A CHECK constraint body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckConstraint {
    /// Raw text of the check expression (inside the parentheses).
    pub expr_text: String,
    /// When the check has the shape `col IN ('a','b',...)` — the paper's
    /// Enumerated Types AP — the column and the permitted values.
    pub in_list: Option<(IStr, Vec<IStr>)>,
}

/// Table-level constraint.
#[derive(Debug, Clone)]
pub struct TableConstraint {
    /// Optional constraint name (`CONSTRAINT name ...`).
    pub name: Option<IStr>,
    /// The constraint body.
    pub kind: TableConstraintKind,
}

/// Table-level constraint body.
#[derive(Debug, Clone)]
pub enum TableConstraintKind {
    /// `PRIMARY KEY (cols)`
    PrimaryKey(Vec<IStr>),
    /// `UNIQUE (cols)`
    Unique(Vec<IStr>),
    /// `FOREIGN KEY (cols) REFERENCES table (cols)`
    ForeignKey {
        /// Referencing columns.
        columns: Vec<IStr>,
        /// The reference target.
        reference: ForeignKeyRef,
    },
    /// `CHECK (expr)`
    Check(CheckConstraint),
    /// Unrecognised constraint, preserved as text.
    Other(String),
}

/// `CREATE TABLE` statement.
#[derive(Debug, Clone)]
pub struct CreateTable {
    /// Table name.
    pub name: ObjectName,
    /// `IF NOT EXISTS` present.
    pub if_not_exists: bool,
    /// Column definitions.
    pub columns: Vec<ColumnDef>,
    /// Table-level constraints.
    pub constraints: Vec<TableConstraint>,
    /// Trailing table options (engine, charset...), raw text.
    pub options: String,
}

impl CreateTable {
    /// The set of primary-key columns, from either a column-level or a
    /// table-level declaration.
    pub fn primary_key_columns(&self) -> Vec<IStr> {
        for tc in &self.constraints {
            if let TableConstraintKind::PrimaryKey(cols) = &tc.kind {
                return cols.clone();
            }
        }
        self.columns
            .iter()
            .filter(|c| c.is_primary_key())
            .map(|c| c.name.clone())
            .collect()
    }

    /// True if the table declares any primary key.
    pub fn has_primary_key(&self) -> bool {
        !self.primary_key_columns().is_empty()
    }

    /// All foreign key references declared in this table (column level and
    /// table level), as `(local columns, reference)` pairs.
    pub fn foreign_keys(&self) -> Vec<(Vec<IStr>, ForeignKeyRef)> {
        let mut out = Vec::new();
        for col in &self.columns {
            if let Some(r) = col.references() {
                out.push((vec![col.name.clone()], r.clone()));
            }
        }
        for tc in &self.constraints {
            if let TableConstraintKind::ForeignKey { columns, reference } = &tc.kind {
                out.push((columns.clone(), reference.clone()));
            }
        }
        out
    }

    /// Find a column by name (case-insensitive).
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// One parsed statement inside a compound-statement body (`BEGIN … END`
/// block or dollar-quoted routine body).
#[derive(Debug, Clone)]
pub struct BodyStatement {
    /// The parsed sub-statement (recursively shaped; constructs the
    /// parser cannot model become [`Statement::Other`], like any other
    /// statement).
    pub stmt: Statement,
    /// Byte range of the sub-statement **relative to the enclosing
    /// statement's start**. Relative spans are occurrence-independent:
    /// duplicate texts share one parse tree, and a consumer rebases
    /// against the occurrence's own span to point into the source.
    pub span: Span,
}

/// `CREATE TRIGGER` statement with a parsed body.
#[derive(Debug, Clone)]
pub struct CreateTrigger {
    /// Trigger name.
    pub name: ObjectName,
    /// `BEFORE` / `AFTER` / `INSTEAD OF`, uppercased, when present.
    pub timing: Option<String>,
    /// Triggering events (`INSERT`, `UPDATE`, `DELETE`, `TRUNCATE`),
    /// uppercased.
    pub events: Vec<String>,
    /// The table the trigger is attached to (`ON <table>`).
    pub table: ObjectName,
    /// `FOR EACH ROW` present.
    pub for_each_row: bool,
    /// `WHEN <condition>` raw text, when present (SQLite/Postgres).
    pub when: Option<String>,
    /// Parsed body sub-statements (from `BEGIN…END`, or the single
    /// `EXECUTE FUNCTION …` statement in the Postgres form).
    pub body: Vec<BodyStatement>,
}

/// Which kind of routine a [`CreateRoutine`] declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutineKind {
    /// `CREATE PROCEDURE`
    Procedure,
    /// `CREATE FUNCTION`
    Function,
}

/// `CREATE PROCEDURE` / `CREATE FUNCTION` statement with a parsed body.
#[derive(Debug, Clone)]
pub struct CreateRoutine {
    /// Procedure or function.
    pub kind: RoutineKind,
    /// Routine name.
    pub name: ObjectName,
    /// Raw parameter-list text (inside the parentheses), when present.
    pub params: Option<String>,
    /// `LANGUAGE <name>`, when declared (Postgres).
    pub language: Option<String>,
    /// Parsed body sub-statements — from a `BEGIN…END` block, a
    /// dollar-quoted PL/pgSQL or SQL body (the splitter-level lexer keeps
    /// the body opaque; the parser re-lexes it here), or a single
    /// statement body.
    pub body: Vec<BodyStatement>,
}

/// `CREATE INDEX` statement.
#[derive(Debug, Clone)]
pub struct CreateIndex {
    /// Index name (may be empty for anonymous dialect forms).
    pub name: IStr,
    /// Indexed table.
    pub table: ObjectName,
    /// Indexed columns, in order.
    pub columns: Vec<IStr>,
    /// `UNIQUE` index.
    pub unique: bool,
}

/// `ALTER TABLE` statement.
#[derive(Debug, Clone)]
pub struct AlterTable {
    /// Target table.
    pub table: ObjectName,
    /// The action performed.
    pub action: AlterAction,
}

/// Recognised `ALTER TABLE` actions.
#[derive(Debug, Clone)]
pub enum AlterAction {
    /// `ADD [COLUMN] <def>`
    AddColumn(ColumnDef),
    /// `DROP [COLUMN] <name>`
    DropColumn(IStr),
    /// `ADD CONSTRAINT ...`
    AddConstraint(TableConstraint),
    /// `DROP CONSTRAINT [IF EXISTS] <name>`
    DropConstraint(IStr),
    /// Anything else, preserved as text.
    Other(String),
}

/// One item of a `SELECT` list.
#[derive(Debug, Clone)]
pub enum SelectItem {
    /// `*` or `t.*`
    Wildcard {
        /// Optional table qualifier (`t` in `t.*`).
        qualifier: Option<IStr>,
    },
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: ExprId,
        /// `AS alias` (or bare alias).
        alias: Option<IStr>,
    },
}

/// A table reference in `FROM`, with optional alias. Subqueries in FROM are
/// kept raw in `Expr::Raw` via `subquery`.
#[derive(Debug, Clone)]
pub struct TableRef {
    /// Table name; empty when the source is a subquery.
    pub name: ObjectName,
    /// Alias, if any.
    pub alias: Option<IStr>,
    /// A derived table `( SELECT ... )`, boxed to keep the struct small.
    pub subquery: Option<Box<Select>>,
}

impl TableRef {
    /// Name bound in the query scope: alias if present, else the table name.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or_else(|| self.name.name())
    }
}

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// `[INNER] JOIN`
    Inner,
    /// `LEFT [OUTER] JOIN`
    Left,
    /// `RIGHT [OUTER] JOIN`
    Right,
    /// `FULL [OUTER] JOIN`
    Full,
    /// `CROSS JOIN`
    Cross,
    /// comma-join in FROM
    Comma,
}

/// One JOIN clause.
#[derive(Debug, Clone)]
pub struct Join {
    /// Join type.
    pub join_type: JoinType,
    /// Joined table.
    pub table: TableRef,
    /// `ON <expr>`, if present.
    pub on: Option<ExprId>,
    /// `USING (cols)`, if present.
    pub using: Vec<IStr>,
}

/// `SELECT` statement (loosely parsed).
#[derive(Debug, Clone)]
pub struct Select {
    /// `DISTINCT` present.
    pub distinct: bool,
    /// Select list.
    pub items: Vec<SelectItem>,
    /// First FROM table (additional comma tables appear as `Comma` joins).
    pub from: Option<TableRef>,
    /// JOIN clauses in order.
    pub joins: Vec<Join>,
    /// WHERE predicate.
    pub where_clause: Option<ExprId>,
    /// GROUP BY expressions.
    pub group_by: ExprRange,
    /// HAVING predicate.
    pub having: Option<ExprId>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT expression text.
    pub limit: Option<String>,
    /// Trailing set-operation text (`UNION SELECT ...`), preserved raw.
    pub set_op_tail: Option<String>,
}

impl Select {
    /// All table references in scope (FROM plus all JOINs).
    pub fn tables(&self) -> Vec<&TableRef> {
        let mut v: Vec<&TableRef> = Vec::new();
        if let Some(f) = &self.from {
            v.push(f);
        }
        v.extend(self.joins.iter().map(|j| &j.table));
        v
    }

    /// Number of join clauses (comma joins included).
    pub fn join_count(&self) -> usize {
        self.joins.len()
    }

    /// True if any select item is a wildcard.
    pub fn has_wildcard(&self) -> bool {
        self.items.iter().any(|i| matches!(i, SelectItem::Wildcard { .. }))
    }
}

/// One `ORDER BY` item.
#[derive(Debug, Clone)]
pub struct OrderItem {
    /// Ordering expression.
    pub expr: ExprId,
    /// `true` for ASC (default), `false` for DESC.
    pub asc: bool,
}

/// `INSERT` statement.
#[derive(Debug, Clone)]
pub struct Insert {
    /// Target table.
    pub table: ObjectName,
    /// Explicit column list; empty ⇒ implicit columns (the Implicit
    /// Columns AP).
    pub columns: Vec<IStr>,
    /// The row source.
    pub source: InsertSource,
}

/// Source of inserted rows.
#[derive(Debug, Clone)]
pub enum InsertSource {
    /// `VALUES (..), (..)` — one arena range per row.
    Values(Vec<ExprRange>),
    /// `INSERT ... SELECT`
    Select(Box<Select>),
    /// Unparsed source text.
    Raw(String),
}

/// `UPDATE` statement.
#[derive(Debug, Clone)]
pub struct Update {
    /// Target table.
    pub table: ObjectName,
    /// `SET col = expr` assignments.
    pub assignments: Vec<(IStr, ExprId)>,
    /// WHERE predicate.
    pub where_clause: Option<ExprId>,
}

/// `DELETE` statement.
#[derive(Debug, Clone)]
pub struct Delete {
    /// Target table.
    pub table: ObjectName,
    /// WHERE predicate.
    pub where_clause: Option<ExprId>,
}

/// `DROP TABLE|INDEX` statement.
#[derive(Debug, Clone)]
pub struct Drop {
    /// What is dropped: `TABLE`, `INDEX`, `VIEW`, ... (uppercased).
    pub object_kind: IStr,
    /// Object name.
    pub name: ObjectName,
    /// `IF EXISTS` present.
    pub if_exists: bool,
}

/// The comparison-like operator used in pattern predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LikeOp {
    /// `LIKE`
    Like,
    /// `ILIKE`
    ILike,
    /// `REGEXP` / `RLIKE`
    Regexp,
    /// `GLOB`
    Glob,
    /// `SIMILAR TO`
    Similar,
}

impl LikeOp {
    /// SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            LikeOp::Like => "LIKE",
            LikeOp::ILike => "ILIKE",
            LikeOp::Regexp => "REGEXP",
            LikeOp::Glob => "GLOB",
            LikeOp::Similar => "SIMILAR TO",
        }
    }
}

/// Expression tree node. Child edges are typed indices into the
/// statement's [`ExprArena`] ([`ExprId`] for single children,
/// [`ExprRange`] for lists) — no per-node heap allocation. Constructs the
/// parser cannot shape fall back to [`Expr::Raw`]; every variant can be
/// rendered back to SQL. Traversal helpers (`walk`, `column_refs`,
/// `function_calls`) live on [`ExprArena`], which owns the nodes.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Possibly-qualified identifier (`a`, `t.a`).
    Ident(Vec<IStr>),
    /// String literal (unescaped value).
    StringLit(IStr),
    /// Numeric literal (original text).
    NumberLit(IStr),
    /// `TRUE` / `FALSE`
    BoolLit(bool),
    /// `NULL`
    Null,
    /// Bind parameter (original text, e.g. `?`, `$1`, `%s`).
    Param(IStr),
    /// Unary operator (`NOT`, `-`).
    Unary {
        /// Operator spelling (uppercased for word operators).
        op: IStr,
        /// Operand.
        expr: ExprId,
    },
    /// Binary operator.
    Binary {
        /// Left operand.
        left: ExprId,
        /// Operator spelling (uppercased for word operators like `AND`).
        op: IStr,
        /// Right operand.
        right: ExprId,
    },
    /// Function call.
    Function {
        /// Function name (original case).
        name: IStr,
        /// Arguments; a lone `*` argument is `Expr::Ident(vec!["*"])`.
        args: ExprRange,
        /// `DISTINCT` inside the call.
        distinct: bool,
    },
    /// Parenthesised expression.
    Paren(ExprId),
    /// `expr [NOT] IN (list)` — subquery forms fall back to Raw.
    InList {
        /// Tested expression.
        expr: ExprId,
        /// List elements.
        list: ExprRange,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        /// Tested expression.
        expr: ExprId,
        /// Lower bound.
        low: ExprId,
        /// Upper bound.
        high: ExprId,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE|REGEXP|... pattern`
    Like {
        /// Tested expression.
        expr: ExprId,
        /// The pattern operator.
        op: LikeOp,
        /// Pattern expression.
        pattern: ExprId,
        /// Negated form.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: ExprId,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// A scalar subquery or `EXISTS (...)` body, parsed recursively.
    Subquery(Box<Select>),
    /// Fallback: the raw token texts joined (significant tokens only).
    Raw(String),
}

impl Expr {
    /// Convenience constructor for an unqualified identifier.
    pub fn ident(name: impl Into<IStr>) -> Expr {
        Expr::Ident(vec![name.into()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_name_display_and_eq() {
        let n = ObjectName(vec!["public".into(), "Tenant".into()]);
        assert_eq!(n.to_string(), "public.Tenant");
        assert!(n.name_eq("tenant"));
    }

    #[test]
    fn type_name_classifiers() {
        assert!(TypeName::simple("VARCHAR").is_textual());
        assert!(TypeName::simple("FLOAT").is_inexact_fractional());
        assert!(TypeName::simple("BIGINT").is_integral());
        assert!(TypeName::simple("TIMESTAMPTZ").has_timezone());
        let mut t = TypeName::simple("TIMESTAMP");
        assert!(!t.has_timezone());
        t.modifiers.push("WITH TIME ZONE".into());
        assert!(t.has_timezone());
    }

    #[test]
    fn expr_walk_collects_columns_and_functions() {
        let mut arena = ExprArena::new();
        let left = arena.alloc(Expr::Ident(vec!["t".into(), "a".into()]));
        let args = arena.alloc_range([Expr::ident("b")]);
        let right = arena.alloc(Expr::Function { name: "lower".into(), args, distinct: false });
        let e = arena.alloc(Expr::Binary { left, op: "=".into(), right });
        let cols = arena.column_refs(e);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0], (Some("t".into()), "a".into()));
        assert_eq!(arena.function_calls(e), vec!["LOWER".to_string()]);
    }

    #[test]
    fn create_table_pk_helpers() {
        let ct = CreateTable {
            name: ObjectName::simple("t"),
            if_not_exists: false,
            columns: vec![ColumnDef {
                name: "id".into(),
                data_type: Some(TypeName::simple("INT")),
                constraints: vec![ColumnConstraint::PrimaryKey],
            }],
            constraints: vec![],
            options: String::new(),
        };
        assert!(ct.has_primary_key());
        assert_eq!(ct.primary_key_columns(), vec!["id".to_string()]);
    }
}

//! Schema catalog inferred from DDL statements.
//!
//! "If the database is not available, the ContextBuilder leverages the DDL
//! statements to construct the context" (§4.1). This module is that DDL
//! path: it folds `CREATE TABLE` / `CREATE INDEX` / `ALTER TABLE` /
//! `DROP` statements into a queryable catalog.

use sqlcheck_parser::ast::{
    AlterAction, ColumnConstraint, CreateIndex, CreateTable, Statement, TableConstraintKind,
    TypeName,
};
use sqlcheck_minidb::database::Database;
use sqlcheck_parser::{parse, IStr};
use std::collections::BTreeMap;

/// A column as known to the catalog.
#[derive(Debug, Clone)]
pub struct ColumnInfo {
    /// Column name.
    pub name: IStr,
    /// Declared type, if present.
    pub type_name: Option<TypeName>,
    /// NOT NULL declared.
    pub not_null: bool,
}

/// A CHECK constraint as known to the catalog.
#[derive(Debug, Clone)]
pub struct CheckInfo {
    /// Constraint name, when given.
    pub name: Option<IStr>,
    /// Raw check expression text.
    pub expr_text: String,
    /// `col IN (...)` shape, when recognised: `(column, values)`.
    pub in_list: Option<(IStr, Vec<IStr>)>,
}

/// A foreign key as known to the catalog.
#[derive(Debug, Clone)]
pub struct FkInfo {
    /// Referencing columns.
    pub columns: Vec<IStr>,
    /// Referenced table.
    pub ref_table: IStr,
    /// Referenced columns (may be empty, meaning the target PK).
    pub ref_columns: Vec<IStr>,
}

/// A table as known to the catalog.
#[derive(Debug, Clone, Default)]
pub struct TableInfo {
    /// Declared name (original case).
    pub name: IStr,
    /// Columns in declaration order.
    pub columns: Vec<ColumnInfo>,
    /// Primary key columns.
    pub primary_key: Vec<IStr>,
    /// Foreign keys.
    pub foreign_keys: Vec<FkInfo>,
    /// CHECK constraints.
    pub checks: Vec<CheckInfo>,
}

impl TableInfo {
    /// Look up a column (case-insensitive).
    pub fn column(&self, name: &str) -> Option<&ColumnInfo> {
        self.columns.iter().find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// True when the table declares any PK.
    pub fn has_primary_key(&self) -> bool {
        !self.primary_key.is_empty()
    }

    /// Columns with ENUM types or CHECK-IN lists — the Enumerated Types AP
    /// surface.
    pub fn enum_like_columns(&self) -> Vec<IStr> {
        let mut out = Vec::new();
        for c in &self.columns {
            if c.type_name.as_ref().map(|t| t.name == "ENUM").unwrap_or(false) {
                out.push(c.name.clone());
            }
        }
        for ch in &self.checks {
            if let Some((col, _)) = &ch.in_list {
                if !out.iter().any(|c| c.eq_ignore_ascii_case(col)) {
                    out.push(col.clone());
                }
            }
        }
        out
    }

    /// Foreign keys that reference this same table (Adjacency List AP).
    pub fn self_references(&self) -> Vec<&FkInfo> {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.ref_table.eq_ignore_ascii_case(&self.name))
            .collect()
    }
}

/// An index as known to the catalog.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    /// Index name.
    pub name: IStr,
    /// Indexed table.
    pub table: IStr,
    /// Indexed columns, in order.
    pub columns: Vec<IStr>,
    /// Unique index.
    pub unique: bool,
}

/// Content digests of a catalog at three granularities, used by the
/// incremental detection cache to decide what a schema edit invalidates.
///
/// * `tables` — one digest per table covering its full definition plus
///   every index on it (the coarse granularity PR 3 introduced);
/// * `cores` — per table, the **table-level** facts only: existence,
///   primary key, foreign keys, CHECK constraints. Adding a column or an
///   index leaves the core unchanged;
/// * `columns` — one digest per `(table, column)` (both lowercased)
///   covering the column's definition and every index that mentions it.
///
/// A cached result that recorded *column-granular* reads stays valid as
/// long as the cores of the tables it touched and the digests of the
/// exact columns it read are unchanged — a DDL edit to an untouched
/// column evicts nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemaVersions {
    /// Whole-table digests (lowercased table name → digest).
    pub tables: BTreeMap<String, u64>,
    /// Table-core digests (existence + PK + FKs + CHECKs).
    pub cores: BTreeMap<String, u64>,
    /// Per-column digests (`(table, column)` lowercased → digest).
    pub columns: BTreeMap<(String, String), u64>,
}

/// The schema catalog.
#[derive(Debug, Clone, Default)]
pub struct SchemaCatalog {
    tables: BTreeMap<String, TableInfo>,
    /// All known secondary indexes.
    pub indexes: Vec<IndexInfo>,
}

impl SchemaCatalog {
    /// Build a catalog by folding DDL statements. Non-DDL statements are
    /// ignored.
    pub fn from_statements<'a>(stmts: impl IntoIterator<Item = &'a Statement>) -> Self {
        let mut cat = SchemaCatalog::default();
        for s in stmts {
            cat.apply(s);
        }
        cat
    }

    /// Fold in every table of `db` the catalog does not know yet, as if
    /// its `CREATE TABLE` were part of the script: an attached database's
    /// live schema augments the DDL-derived catalog (tables created
    /// outside the script become visible to the rules).
    pub fn add_missing_tables(&mut self, db: &Database) {
        for table in db.tables() {
            if self.table(&table.schema.name).is_none() {
                for p in parse(&synthesize_ddl(table)) {
                    self.apply(&p.stmt);
                }
            }
        }
    }

    /// Does [`SchemaCatalog::apply`] do anything with `stmt`?
    pub(crate) fn is_schema_stmt(stmt: &Statement) -> bool {
        matches!(
            stmt,
            Statement::CreateTable(_)
                | Statement::CreateIndex(_)
                | Statement::AlterTable(_)
                | Statement::Drop(_)
        )
    }

    /// Apply one statement to the catalog.
    pub fn apply(&mut self, stmt: &Statement) {
        match stmt {
            Statement::CreateTable(ct) => self.apply_create_table(ct),
            Statement::CreateIndex(ci) => self.apply_create_index(ci),
            Statement::AlterTable(at) => {
                let key = at.table.name().to_ascii_lowercase();
                let entry = self.tables.entry(key).or_insert_with(|| TableInfo {
                    name: at.table.name().into(),
                    ..Default::default()
                });
                match &at.action {
                    AlterAction::AddColumn(cd) => {
                        entry.columns.push(column_info(cd));
                        fold_column_constraints(entry, cd);
                    }
                    AlterAction::DropColumn(name) => {
                        entry.columns.retain(|c| !c.name.eq_ignore_ascii_case(name));
                    }
                    AlterAction::AddConstraint(tc) => match &tc.kind {
                        TableConstraintKind::PrimaryKey(cols) => {
                            entry.primary_key = cols.clone();
                        }
                        TableConstraintKind::ForeignKey { columns, reference } => {
                            entry.foreign_keys.push(FkInfo {
                                columns: columns.clone(),
                                ref_table: reference.table.name().into(),
                                ref_columns: reference.columns.clone(),
                            });
                        }
                        TableConstraintKind::Check(ch) => {
                            entry.checks.push(CheckInfo {
                                name: tc.name.clone(),
                                expr_text: ch.expr_text.clone(),
                                in_list: ch.in_list.clone(),
                            });
                        }
                        _ => {}
                    },
                    AlterAction::DropConstraint(name) => {
                        entry.checks.retain(|c| {
                            c.name.as_deref().map(|n| !n.eq_ignore_ascii_case(name)).unwrap_or(true)
                        });
                    }
                    AlterAction::Other(_) => {}
                }
            }
            Statement::Drop(d) => match d.object_kind.as_str() {
                "TABLE" => {
                    self.tables.remove(&d.name.name().to_ascii_lowercase());
                }
                "INDEX" => {
                    self.indexes.retain(|i| !i.name.eq_ignore_ascii_case(d.name.name()));
                }
                _ => {}
            },
            _ => {}
        }
    }

    fn apply_create_table(&mut self, ct: &CreateTable) {
        let mut info = TableInfo {
            name: ct.name.name().into(),
            columns: ct.columns.iter().map(column_info).collect(),
            primary_key: ct.primary_key_columns(),
            foreign_keys: ct
                .foreign_keys()
                .into_iter()
                .map(|(cols, r)| FkInfo {
                    columns: cols,
                    ref_table: r.table.name().into(),
                    ref_columns: r.columns,
                })
                .collect(),
            checks: Vec::new(),
        };
        for col in &ct.columns {
            for c in &col.constraints {
                if let ColumnConstraint::Check(ch) = c {
                    info.checks.push(CheckInfo {
                        name: None,
                        expr_text: ch.expr_text.clone(),
                        in_list: ch
                            .in_list
                            .clone()
                            .or_else(|| Some((col.name.clone(), Vec::new())).filter(|_| false)),
                    });
                }
            }
        }
        for tc in &ct.constraints {
            if let TableConstraintKind::Check(ch) = &tc.kind {
                info.checks.push(CheckInfo {
                    name: tc.name.clone(),
                    expr_text: ch.expr_text.clone(),
                    in_list: ch.in_list.clone(),
                });
            }
        }
        self.tables.insert(ct.name.name().to_ascii_lowercase(), info);
    }

    fn apply_create_index(&mut self, ci: &CreateIndex) {
        self.indexes.push(IndexInfo {
            name: ci.name.clone(),
            table: ci.table.name().into(),
            columns: ci.columns.clone(),
            unique: ci.unique,
        });
    }

    /// Look up a table (case-insensitive).
    pub fn table(&self, name: &str) -> Option<&TableInfo> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// All tables.
    pub fn tables(&self) -> impl Iterator<Item = &TableInfo> {
        self.tables.values()
    }

    /// Number of known tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Indexes on a given table.
    pub fn indexes_on(&self, table: &str) -> Vec<&IndexInfo> {
        self.indexes.iter().filter(|i| i.table.eq_ignore_ascii_case(table)).collect()
    }

    /// Whether any index on `table` has `column` as its leading column.
    pub fn has_index_on(&self, table: &str, column: &str) -> bool {
        self.indexes_on(table).iter().any(|i| {
            i.columns.first().map(|c| c.eq_ignore_ascii_case(column)).unwrap_or(false)
        }) || self
            .table(table)
            .map(|t| {
                t.primary_key.first().map(|c| c.eq_ignore_ascii_case(column)).unwrap_or(false)
            })
            .unwrap_or(false)
    }

    /// Per-table content digests: one `u64` per table name (lowercased),
    /// covering the table's definition **and** every index declared on it
    /// (intra-query rules consult both). Indexes on tables the catalog
    /// does not otherwise know still get a digest under their table name,
    /// so a statement referencing such a table is invalidated when the
    /// index set changes. Digests are pure functions of catalog content:
    /// two catalogs folded from the same DDL produce identical maps, so a
    /// no-op schema reload is recognisable as such. Used by the
    /// incremental detection cache for per-table invalidation.
    pub fn table_digests(&self) -> BTreeMap<String, u64> {
        use sqlcheck_parser::fingerprint::fnv1a;
        use std::fmt::Write as _;
        let mut encoded: BTreeMap<String, String> = BTreeMap::new();
        for (key, info) in &self.tables {
            let _ = write!(encoded.entry(key.clone()).or_default(), "{info:?}");
        }
        for idx in &self.indexes {
            let key = idx.table.to_ascii_lowercase();
            let _ = write!(encoded.entry(key).or_default(), "|{idx:?}");
        }
        encoded.into_iter().map(|(k, s)| (k, fnv1a(s.as_bytes()))).collect()
    }

    /// Column-granular schema versions: the whole-table digests of
    /// [`SchemaCatalog::table_digests`] plus two finer-grained maps that
    /// let the incremental cache invalidate per **column** instead of per
    /// table. Like the table digests, every entry is a pure function of
    /// catalog content.
    pub fn versions(&self) -> SchemaVersions {
        use sqlcheck_parser::fingerprint::fnv1a;
        use std::fmt::Write as _;
        let mut cores: BTreeMap<String, String> = BTreeMap::new();
        let mut columns: BTreeMap<(String, String), String> = BTreeMap::new();
        for (key, info) in &self.tables {
            // Core: everything about the table that is not attributable to
            // a single column — existence, PK, FKs, CHECKs. Deliberately
            // excludes the column list and the index set, so ADD COLUMN /
            // CREATE INDEX leave the core untouched.
            let core = cores.entry(key.clone()).or_default();
            let _ = write!(
                core,
                "{:?}|{:?}|{:?}|{:?}",
                info.name, info.primary_key, info.foreign_keys, info.checks
            );
            for c in &info.columns {
                let _ = write!(
                    columns
                        .entry((key.clone(), c.name.to_ascii_lowercase()))
                        .or_default(),
                    "{c:?}"
                );
            }
        }
        // An index folds into the digest of every column it mentions (and
        // creates the column entry when the catalog knows the table only
        // through the index), so CREATE/DROP INDEX invalidates exactly the
        // entries that read an indexed column.
        for idx in &self.indexes {
            let key = idx.table.to_ascii_lowercase();
            for c in &idx.columns {
                let _ = write!(
                    columns.entry((key.clone(), c.to_ascii_lowercase())).or_default(),
                    "|{idx:?}"
                );
            }
        }
        SchemaVersions {
            tables: self.table_digests(),
            cores: cores.into_iter().map(|(k, s)| (k, fnv1a(s.as_bytes()))).collect(),
            columns: columns
                .into_iter()
                .map(|(k, s)| (k, fnv1a(s.as_bytes())))
                .collect(),
        }
    }

    /// Does a declared FK connect `(t1, c1)` to `(t2, c2)` in either
    /// direction?
    pub fn fk_between(&self, t1: &str, c1: &str, t2: &str, c2: &str) -> bool {
        let covered = |from: &str, from_col: &str, to: &str, to_col: &str| {
            self.table(from)
                .map(|t| {
                    t.foreign_keys.iter().any(|fk| {
                        fk.ref_table.eq_ignore_ascii_case(to)
                            && fk.columns.iter().any(|c| c.eq_ignore_ascii_case(from_col))
                            && (fk.ref_columns.is_empty()
                                || fk
                                    .ref_columns
                                    .iter()
                                    .any(|c| c.eq_ignore_ascii_case(to_col)))
                    })
                })
                .unwrap_or(false)
        };
        covered(t1, c1, t2, c2) || covered(t2, c2, t1, c1)
    }
}

fn column_info(cd: &sqlcheck_parser::ast::ColumnDef) -> ColumnInfo {
    ColumnInfo {
        name: cd.name.clone(),
        type_name: cd.data_type.clone(),
        not_null: cd
            .constraints
            .iter()
            .any(|c| matches!(c, ColumnConstraint::NotNull | ColumnConstraint::PrimaryKey)),
    }
}

fn fold_column_constraints(entry: &mut TableInfo, cd: &sqlcheck_parser::ast::ColumnDef) {
    for c in &cd.constraints {
        match c {
            ColumnConstraint::PrimaryKey => entry.primary_key = vec![cd.name.clone()],
            ColumnConstraint::References(r) => entry.foreign_keys.push(FkInfo {
                columns: vec![cd.name.clone()],
                ref_table: r.table.name().into(),
                ref_columns: r.columns.clone(),
            }),
            ColumnConstraint::Check(ch) => entry.checks.push(CheckInfo {
                name: None,
                expr_text: ch.expr_text.clone(),
                in_list: ch.in_list.clone(),
            }),
            _ => {}
        }
    }
}

/// Render a minidb table schema as `CREATE TABLE` DDL so the generic
/// catalog code can ingest it.
fn synthesize_ddl(table: &sqlcheck_minidb::table::Table) -> String {
    use sqlcheck_minidb::value::DataType as DT;
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
    format!("CREATE TABLE {} ({})", table.schema.name, cols.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcheck_parser::parse;

    fn catalog(sql: &str) -> SchemaCatalog {
        let parsed = parse(sql);
        SchemaCatalog::from_statements(parsed.iter().map(|p| &p.stmt))
    }

    #[test]
    fn create_table_registers() {
        let c = catalog(
            "CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY, Zone_ID VARCHAR(30) NOT NULL);",
        );
        let t = c.table("tenant").unwrap();
        assert_eq!(t.columns.len(), 2);
        assert!(t.has_primary_key());
        assert!(t.column("zone_id").unwrap().not_null);
    }

    #[test]
    fn alter_add_check_and_drop() {
        let c = catalog(
            "CREATE TABLE u (role VARCHAR(5));\
             ALTER TABLE u ADD CONSTRAINT rc CHECK (role IN ('R1','R2'));",
        );
        let t = c.table("u").unwrap();
        assert_eq!(t.checks.len(), 1);
        assert_eq!(t.enum_like_columns(), vec!["role"]);
        let c2 = catalog(
            "CREATE TABLE u (role VARCHAR(5));\
             ALTER TABLE u ADD CONSTRAINT rc CHECK (role IN ('R1','R2'));\
             ALTER TABLE u DROP CONSTRAINT rc;",
        );
        assert!(c2.table("u").unwrap().checks.is_empty());
    }

    #[test]
    fn index_tracking() {
        let c = catalog(
            "CREATE TABLE t (a INT, b INT);\
             CREATE INDEX ia ON t (a);\
             CREATE INDEX iab ON t (a, b);\
             DROP INDEX ia;",
        );
        assert_eq!(c.indexes_on("t").len(), 1);
        assert!(c.has_index_on("t", "a"));
        assert!(!c.has_index_on("t", "b"), "b is not a leading column");
    }

    #[test]
    fn pk_counts_as_index() {
        let c = catalog("CREATE TABLE t (id INT PRIMARY KEY, x INT)");
        assert!(c.has_index_on("t", "id"));
    }

    #[test]
    fn fk_between_both_directions() {
        let c = catalog(
            "CREATE TABLE a (id INT PRIMARY KEY);\
             CREATE TABLE b (a_id INT REFERENCES a(id));",
        );
        assert!(c.fk_between("b", "a_id", "a", "id"));
        assert!(c.fk_between("a", "id", "b", "a_id"));
        assert!(!c.fk_between("a", "id", "b", "other"));
    }

    #[test]
    fn self_reference_detected() {
        let c = catalog(
            "CREATE TABLE emp (id INT PRIMARY KEY, mgr_id INT REFERENCES emp(id))",
        );
        assert_eq!(c.table("emp").unwrap().self_references().len(), 1);
    }

    #[test]
    fn drop_table_removes() {
        let c = catalog("CREATE TABLE t (a INT); DROP TABLE t;");
        assert!(c.table("t").is_none());
    }

    #[test]
    fn table_digests_are_content_stable_and_table_local() {
        let ddl = "CREATE TABLE a (id INT PRIMARY KEY);\
                   CREATE TABLE b (x INT);\
                   CREATE INDEX ib ON b (x);";
        let d1 = catalog(ddl).table_digests();
        let d2 = catalog(ddl).table_digests();
        assert_eq!(d1, d2, "same DDL → identical digests (no-op reload stays warm)");
        assert_eq!(d1.len(), 2);
        // Editing one table changes only that table's digest.
        let edited = catalog(
            "CREATE TABLE a (id INT PRIMARY KEY, extra TEXT);\
             CREATE TABLE b (x INT);\
             CREATE INDEX ib ON b (x);",
        )
        .table_digests();
        assert_ne!(d1["a"], edited["a"]);
        assert_eq!(d1["b"], edited["b"]);
        // An index change alone re-versions its table.
        let dropped = catalog("CREATE TABLE a (id INT PRIMARY KEY); CREATE TABLE b (x INT);")
            .table_digests();
        assert_ne!(d1["b"], dropped["b"]);
    }

    #[test]
    fn column_versions_isolate_add_column() {
        let base = "CREATE TABLE t (a INT, b INT);";
        let v1 = catalog(base).versions();
        let v2 = catalog("CREATE TABLE t (a INT, b INT); ALTER TABLE t ADD COLUMN c INT;")
            .versions();
        // Whole-table digest changes, core and untouched columns do not.
        assert_ne!(v1.tables["t"], v2.tables["t"]);
        assert_eq!(v1.cores["t"], v2.cores["t"]);
        let key = |c: &str| ("t".to_string(), c.to_string());
        assert_eq!(v1.columns[&key("a")], v2.columns[&key("a")]);
        assert_eq!(v1.columns[&key("b")], v2.columns[&key("b")]);
        assert!(!v1.columns.contains_key(&key("c")));
        assert!(v2.columns.contains_key(&key("c")));
    }

    #[test]
    fn column_versions_fold_indexes_per_column() {
        let v1 = catalog("CREATE TABLE t (a INT, b INT);").versions();
        let v2 = catalog("CREATE TABLE t (a INT, b INT); CREATE INDEX ia ON t (a);")
            .versions();
        let key = |c: &str| ("t".to_string(), c.to_string());
        assert_ne!(v1.columns[&key("a")], v2.columns[&key("a")]);
        assert_eq!(v1.columns[&key("b")], v2.columns[&key("b")]);
        assert_eq!(v1.cores["t"], v2.cores["t"], "index change leaves the core");
    }

    #[test]
    fn core_versions_capture_pk_and_checks() {
        let v1 = catalog("CREATE TABLE t (a INT, b INT);").versions();
        let pk = catalog("CREATE TABLE t (a INT, b INT); \
                          ALTER TABLE t ADD CONSTRAINT p PRIMARY KEY (a);")
            .versions();
        assert_ne!(v1.cores["t"], pk.cores["t"]);
        let ck = catalog("CREATE TABLE t (a INT, b INT); \
                          ALTER TABLE t ADD CONSTRAINT c CHECK (a IN (1, 2));")
            .versions();
        assert_ne!(v1.cores["t"], ck.cores["t"]);
    }

    #[test]
    fn versions_are_content_stable() {
        let ddl = "CREATE TABLE a (id INT PRIMARY KEY); CREATE INDEX i ON a (id);";
        assert_eq!(catalog(ddl).versions(), catalog(ddl).versions());
    }

    #[test]
    fn enum_type_column_detected() {
        let c = catalog("CREATE TABLE u (role ENUM('a','b'))");
        assert_eq!(c.table("u").unwrap().enum_like_columns(), vec!["role"]);
    }
}

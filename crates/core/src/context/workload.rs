//! Workload profile: how the application's queries use tables and columns.
//!
//! The inter-query detection rules (§4.1 ❷) and the index advisor rules
//! (Example 5) need aggregate knowledge of the whole statement set: which
//! columns appear in equality predicates, which tables are joined on which
//! columns, how often each table is read or written.

use super::schema::SchemaCatalog;
use sqlcheck_parser::annotate::Annotations;
use sqlcheck_parser::ast::{Statement, TableRef};
use std::collections::BTreeMap;

/// Usage counters for one `(table, column)` pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnUsage {
    /// Equality predicates (`=`, `IN`).
    pub eq_predicates: usize,
    /// Range predicates (`<`, `>`, `BETWEEN`, ...).
    pub range_predicates: usize,
    /// Pattern predicates (`LIKE`, `REGEXP`, ...).
    pub pattern_predicates: usize,
    /// GROUP BY occurrences.
    pub group_by: usize,
    /// ORDER BY occurrences.
    pub order_by: usize,
    /// Join-condition occurrences.
    pub join: usize,
    /// Writes (UPDATE SET / INSERT).
    pub writes: usize,
}

impl ColumnUsage {
    /// Total read-side references.
    pub fn reads(&self) -> usize {
        self.eq_predicates
            + self.range_predicates
            + self.pattern_predicates
            + self.group_by
            + self.order_by
            + self.join
    }
}

/// One join-graph edge observed in a query.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinEdge {
    /// `(table, column)` — lexicographically smaller side first.
    pub left: (String, String),
    /// The other side.
    pub right: (String, String),
}

/// Aggregated workload profile.
///
/// Every aggregate in here is a **mergeable monoid over statements**:
/// counters are additive, and map entries exist exactly while their
/// supporting statements do. That is what makes the profile
/// delta-maintainable — see [`StatementContribution`]: a warm re-check
/// applies an edit as `retract(old unique) ⊕ insert(new unique)` instead
/// of re-folding the whole workload, and the result is byte-identical to
/// a from-scratch [`WorkloadProfile::build_weighted`] (property-tested).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadProfile {
    /// Per-(table-lowercase, column-lowercase) usage counters.
    usage: BTreeMap<(String, String), ColumnUsage>,
    /// Join edges with observation counts.
    pub join_edges: BTreeMap<JoinEdge, usize>,
    /// Statements per table (reads + writes).
    pub table_refs: BTreeMap<String, usize>,
    /// Total statements profiled.
    pub statement_count: usize,
}

impl WorkloadProfile {
    /// Build a profile from annotated statements, resolving alias
    /// qualifiers against each statement's own scope and falling back to
    /// the schema catalog for unqualified columns. Takes borrowed pairs so
    /// callers (notably `ContextBuilder::build`) never deep-clone the
    /// statement list just to profile it.
    pub fn build<'a>(
        stmts: impl IntoIterator<Item = (&'a Statement, &'a Annotations)>,
        schema: &SchemaCatalog,
    ) -> Self {
        Self::build_weighted(stmts.into_iter().map(|(s, a)| (s, a, 1)), schema)
    }

    /// Build a profile from *unique* annotated statements, each weighted
    /// by its occurrence count. Every profile counter is additive over
    /// statements, so folding one representative `n` times heavier is
    /// identical to folding `n` duplicates individually — this is what
    /// lets the parse-once front-end profile a workload in O(unique
    /// texts) instead of O(statements).
    pub fn build_weighted<'a>(
        stmts: impl IntoIterator<Item = (&'a Statement, &'a Annotations, usize)>,
        schema: &SchemaCatalog,
    ) -> Self {
        let mut w = WorkloadProfile::default();
        for (stmt, ann, n) in stmts {
            w.fold_one(stmt, ann, n, schema);
        }
        w
    }

    /// Fold one statement into the profile with occurrence weight `n` —
    /// the single source of truth for what a statement contributes, used
    /// by both the from-scratch build and [`WorkloadProfile::contribution`].
    fn fold_one(&mut self, stmt: &Statement, ann: &Annotations, n: usize, schema: &SchemaCatalog) {
        self.statement_count += n;
        let scope = Scope::of(stmt);
        for t in &ann.tables {
            *self.table_refs.entry(t.to_ascii_lowercase()).or_default() += n;
        }
        for p in &ann.predicates {
            let Some(table) = scope.resolve(p.qualifier.as_deref(), &p.column, schema) else {
                continue;
            };
            let u = self.usage_mut(&table, &p.column);
            match p.op.as_str() {
                "=" | "==" | "IN" | "<=>" => u.eq_predicates += n,
                "LIKE" | "ILIKE" | "REGEXP" | "GLOB" | "SIMILAR TO" => {
                    u.pattern_predicates += n
                }
                "IS NULL" => {}
                _ => u.range_predicates += n,
            }
        }
        for c in &ann.columns {
            use sqlcheck_parser::annotate::ColumnRole::*;
            let Some(table) = scope.resolve(c.qualifier.as_deref(), &c.column, schema) else {
                continue;
            };
            let u = self.usage_mut(&table, &c.column);
            match c.role {
                Grouped => u.group_by += n,
                Ordered => u.order_by += n,
                Joined => u.join += n,
                Written => u.writes += n,
                _ => {}
            }
        }
        for jc in &ann.join_conditions {
            let (Some(lt), Some((rq, rc))) = (
                scope.resolve(jc.left.0.as_deref(), &jc.left.1, schema),
                jc.right.clone(),
            ) else {
                continue;
            };
            let Some(rt) = scope.resolve(rq.as_deref(), &rc, schema) else { continue };
            let a = (lt.to_ascii_lowercase(), jc.left.1.to_ascii_lowercase());
            let b = (rt.to_ascii_lowercase(), rc.to_ascii_lowercase());
            let edge = if a <= b {
                JoinEdge { left: a, right: b }
            } else {
                JoinEdge { left: b, right: a }
            };
            *self.join_edges.entry(edge).or_default() += n;
        }
    }

    /// What one statement contributes to the profile per occurrence —
    /// precomputed so a retained profile can apply `count` changes as
    /// O(contribution) deltas. Resolution consults `schema` (unqualified
    /// columns, alias fallbacks), so cached contributions are only valid
    /// while the schema is unchanged.
    pub fn contribution(
        stmt: &Statement,
        ann: &Annotations,
        schema: &SchemaCatalog,
    ) -> StatementContribution {
        let mut tmp = WorkloadProfile::default();
        tmp.fold_one(stmt, ann, 1, schema);
        StatementContribution {
            usage: tmp.usage.into_iter().collect(),
            join_edges: tmp.join_edges.into_iter().collect(),
            table_refs: tmp.table_refs.into_iter().collect(),
        }
    }

    /// Merge `n` occurrences of a contribution into the profile
    /// (`insert` in retract ⊕ insert). Creates usage entries exactly
    /// like the from-scratch fold — including all-zero entries for pure
    /// touches (e.g. `IS NULL` predicates).
    pub fn add_contribution(&mut self, c: &StatementContribution, n: usize) {
        self.statement_count += n;
        for (key, u) in &c.usage {
            let e = self.usage.entry(key.clone()).or_default();
            e.eq_predicates += u.eq_predicates * n;
            e.range_predicates += u.range_predicates * n;
            e.pattern_predicates += u.pattern_predicates * n;
            e.group_by += u.group_by * n;
            e.order_by += u.order_by * n;
            e.join += u.join * n;
            e.writes += u.writes * n;
        }
        for (edge, k) in &c.join_edges {
            *self.join_edges.entry(edge.clone()).or_default() += k * n;
        }
        for (t, k) in &c.table_refs {
            *self.table_refs.entry(t.clone()).or_default() += k * n;
        }
    }

    /// Retract `n` occurrences of a contribution (`retract` in retract ⊕
    /// insert). Join-edge and table-ref entries vanish when their counts
    /// reach zero — exactly the entries a from-scratch build would not
    /// create. Usage entries stay even when all their counters reach
    /// zero, so a retracted profile can hold all-zero entries that a
    /// from-scratch build would not. No consumer can tell them apart
    /// from absent ones: every reader of usage gates on non-zero
    /// counters (`eq_predicates`/`group_by`, or `reads() > 0`).
    ///
    /// Panics (in debug) on counter underflow — retracting something
    /// never added is a caller bug.
    pub fn sub_contribution(&mut self, c: &StatementContribution, n: usize) {
        self.statement_count -= n;
        for (key, u) in &c.usage {
            let e = self.usage.get_mut(key).expect("retracting an untracked usage key");
            e.eq_predicates -= u.eq_predicates * n;
            e.range_predicates -= u.range_predicates * n;
            e.pattern_predicates -= u.pattern_predicates * n;
            e.group_by -= u.group_by * n;
            e.order_by -= u.order_by * n;
            e.join -= u.join * n;
            e.writes -= u.writes * n;
        }
        for (edge, k) in &c.join_edges {
            if let Some(e) = self.join_edges.get_mut(edge) {
                *e -= k * n;
                if *e == 0 {
                    self.join_edges.remove(edge);
                }
            }
        }
        for (t, k) in &c.table_refs {
            if let Some(e) = self.table_refs.get_mut(t) {
                *e -= k * n;
                if *e == 0 {
                    self.table_refs.remove(t);
                }
            }
        }
    }

    fn usage_mut(&mut self, table: &str, column: &str) -> &mut ColumnUsage {
        self.usage
            .entry((table.to_ascii_lowercase(), column.to_ascii_lowercase()))
            .or_default()
    }

    /// Usage counters for `(table, column)`, if any reference was seen.
    pub fn usage(&self, table: &str, column: &str) -> Option<&ColumnUsage> {
        self.usage.get(&(table.to_ascii_lowercase(), column.to_ascii_lowercase()))
    }

    /// Iterate all `(table, column, usage)` entries.
    pub fn iter_usage(&self) -> impl Iterator<Item = (&str, &str, &ColumnUsage)> {
        self.usage.iter().map(|((t, c), u)| (t.as_str(), c.as_str(), u))
    }

    /// Number of statements referencing a table.
    pub fn table_ref_count(&self, table: &str) -> usize {
        self.table_refs.get(&table.to_ascii_lowercase()).copied().unwrap_or(0)
    }
}

/// The per-occurrence delta one statement contributes to a
/// [`WorkloadProfile`] — sorted key/value pairs so two contributions of
/// the same statement text compare equal regardless of build order.
///
/// Retained by warm re-check sessions: an edit retracts the old unique's
/// contribution and inserts the new one instead of refolding the whole
/// workload. `statement_count` is implicit (always 1 per occurrence).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatementContribution {
    /// `(table, column)` usage counters, including all-zero pure touches.
    pub usage: Vec<((String, String), ColumnUsage)>,
    /// Canonicalised join edges with per-occurrence multiplicity.
    pub join_edges: Vec<(JoinEdge, usize)>,
    /// Referenced tables with per-occurrence multiplicity.
    pub table_refs: Vec<(String, usize)>,
}

impl StatementContribution {
    /// True when the statement contributes nothing beyond its count.
    pub fn is_empty(&self) -> bool {
        self.usage.is_empty() && self.join_edges.is_empty() && self.table_refs.is_empty()
    }
}

/// Alias scope of one statement.
struct Scope {
    /// `(binding-lowercase, table name)` pairs.
    bindings: Vec<(String, String)>,
}

impl Scope {
    fn of(stmt: &Statement) -> Scope {
        let mut bindings = Vec::new();
        let mut add_ref = |t: &TableRef| {
            if t.subquery.is_none() {
                bindings.push((t.binding().to_ascii_lowercase(), t.name.name().to_string()));
                // The bare table name also resolves even when aliased.
                bindings
                    .push((t.name.name().to_ascii_lowercase(), t.name.name().to_string()));
            }
        };
        match stmt {
            Statement::Select(s) => {
                for t in s.tables() {
                    add_ref(t);
                }
            }
            Statement::Insert(i) => {
                bindings.push((
                    i.table.name().to_ascii_lowercase(),
                    i.table.name().to_string(),
                ));
            }
            Statement::Update(u) => {
                bindings.push((
                    u.table.name().to_ascii_lowercase(),
                    u.table.name().to_string(),
                ));
            }
            Statement::Delete(d) => {
                bindings.push((
                    d.table.name().to_ascii_lowercase(),
                    d.table.name().to_string(),
                ));
            }
            _ => {}
        }
        Scope { bindings }
    }

    /// Resolve a column reference to its table name.
    fn resolve(
        &self,
        qualifier: Option<&str>,
        column: &str,
        schema: &SchemaCatalog,
    ) -> Option<String> {
        if let Some(q) = qualifier {
            let ql = q.to_ascii_lowercase();
            return self
                .bindings
                .iter()
                .find(|(b, _)| *b == ql)
                .map(|(_, t)| t.clone())
                .or(Some(q.to_string()));
        }
        // Unqualified: unique scope table wins; otherwise consult the schema.
        let mut distinct_tables: Vec<&String> = Vec::new();
        for (_, t) in &self.bindings {
            if !distinct_tables.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                distinct_tables.push(t);
            }
        }
        match distinct_tables.len() {
            0 => None,
            1 => Some(distinct_tables[0].clone()),
            _ => distinct_tables
                .iter()
                .find(|t| {
                    schema.table(t).map(|ti| ti.column(column).is_some()).unwrap_or(false)
                })
                .map(|t| t.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcheck_parser::{annotate, parse};

    fn profile(sql: &str) -> (WorkloadProfile, SchemaCatalog) {
        let parsed = parse(sql);
        let schema = SchemaCatalog::from_statements(parsed.iter().map(|p| &p.stmt));
        let stmts: Vec<_> =
            parsed.into_iter().map(|p| (p.stmt.clone(), annotate(&p.stmt, &p.arena))).collect();
        (WorkloadProfile::build(stmts.iter().map(|(s, a)| (s, a)), &schema), schema)
    }

    #[test]
    fn eq_predicates_counted_per_table_column() {
        let (w, _) = profile(
            "CREATE TABLE t (a INT, b INT);\
             SELECT * FROM t WHERE a = 1;\
             SELECT * FROM t WHERE a = 2 AND b > 3;",
        );
        assert_eq!(w.usage("t", "a").unwrap().eq_predicates, 2);
        assert_eq!(w.usage("t", "b").unwrap().range_predicates, 1);
    }

    #[test]
    fn alias_resolution() {
        let (w, _) = profile(
            "CREATE TABLE tenant (id INT, zone INT);\
             SELECT * FROM tenant AS t WHERE t.zone = 1;",
        );
        assert_eq!(w.usage("tenant", "zone").unwrap().eq_predicates, 1);
    }

    #[test]
    fn unqualified_column_resolved_via_schema() {
        let (w, _) = profile(
            "CREATE TABLE a (x INT);\
             CREATE TABLE b (y INT);\
             SELECT * FROM a JOIN b ON a.x = b.y WHERE y = 5;",
        );
        assert_eq!(w.usage("b", "y").unwrap().eq_predicates, 1);
        assert!(w.usage("a", "y").is_none());
    }

    #[test]
    fn join_edges_normalised() {
        let (w, _) = profile(
            "SELECT * FROM q JOIN t ON t.tid = q.tid;\
             SELECT * FROM t JOIN q ON q.tid = t.tid;",
        );
        assert_eq!(w.join_edges.len(), 1, "both orders collapse to one edge");
        assert_eq!(*w.join_edges.values().next().unwrap(), 2);
    }

    #[test]
    fn writes_counted() {
        let (w, _) = profile(
            "CREATE TABLE t (a INT, b INT);\
             UPDATE t SET a = 5 WHERE b = 1;\
             INSERT INTO t (a, b) VALUES (1, 2);",
        );
        assert_eq!(w.usage("t", "a").unwrap().writes, 2);
        assert_eq!(w.usage("t", "b").unwrap().eq_predicates, 1);
    }

    #[test]
    fn group_and_order_counted() {
        let (w, _) = profile(
            "CREATE TABLE t (g INT, v INT);\
             SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g;",
        );
        let u = w.usage("t", "g").unwrap();
        assert_eq!(u.group_by, 1);
        assert_eq!(u.order_by, 1);
    }

    #[test]
    fn table_ref_counts() {
        let (w, _) = profile("SELECT * FROM t; SELECT * FROM t; SELECT * FROM u;");
        assert_eq!(w.table_ref_count("t"), 2);
        assert_eq!(w.table_ref_count("u"), 1);
        assert_eq!(w.statement_count, 3);
    }

    /// A workload script with predicates, joins, writes, grouping, and a
    /// zero-usage touch (`IS NULL`) — every contribution shape at once.
    const DELTA_SQL: &str = "CREATE TABLE t (a INT, b INT);\
         CREATE TABLE u (tid INT, v INT);\
         SELECT * FROM t WHERE a = 1 AND b > 2;\
         SELECT * FROM t JOIN u ON t.a = u.tid WHERE v LIKE 'x%';\
         UPDATE t SET b = 9 WHERE a = 3;\
         SELECT a, COUNT(*) FROM t WHERE b IS NULL GROUP BY a ORDER BY a;";

    fn parsed_with_anns(
        sql: &str,
    ) -> (Vec<(Statement, sqlcheck_parser::annotate::Annotations)>, SchemaCatalog) {
        let parsed = parse(sql);
        let schema = SchemaCatalog::from_statements(parsed.iter().map(|p| &p.stmt));
        let stmts =
            parsed.into_iter().map(|p| (p.stmt.clone(), annotate(&p.stmt, &p.arena))).collect();
        (stmts, schema)
    }

    #[test]
    fn delta_build_matches_build_weighted() {
        let (stmts, schema) = parsed_with_anns(DELTA_SQL);
        let weights = [1usize, 7, 3, 2, 5, 4];
        let rebuilt = WorkloadProfile::build_weighted(
            stmts.iter().zip(weights).map(|((s, a), n)| (s, a, n)),
            &schema,
        );
        let mut delta = WorkloadProfile::default();
        for ((s, a), n) in stmts.iter().zip(weights) {
            let c = WorkloadProfile::contribution(s, a, &schema);
            delta.add_contribution(&c, n);
        }
        assert_eq!(delta, rebuilt, "delta-built profile must equal the from-scratch fold");
    }

    #[test]
    fn retract_insert_roundtrip_restores_profile() {
        let (stmts, schema) = parsed_with_anns(DELTA_SQL);
        let base = WorkloadProfile::build_weighted(
            stmts.iter().map(|(s, a)| (s, a, 2usize)),
            &schema,
        );
        // Retract then re-insert one statement's occurrences: the profile
        // must come back byte-identical (no zero-entry residue because the
        // entries are still supported by the remaining occurrence weight).
        for (s, a) in &stmts {
            let c = WorkloadProfile::contribution(s, a, &schema);
            let mut w = base.clone();
            w.sub_contribution(&c, 1);
            w.add_contribution(&c, 1);
            assert_eq!(w, base);
        }
    }

    #[test]
    fn full_retract_plus_usage_removal_reaches_empty() {
        let (stmts, schema) = parsed_with_anns(DELTA_SQL);
        let mut w = WorkloadProfile::build_weighted(
            stmts.iter().map(|(s, a)| (s, a, 3usize)),
            &schema,
        );
        let mut contributions = Vec::new();
        for (s, a) in &stmts {
            contributions.push(WorkloadProfile::contribution(s, a, &schema));
        }
        for c in &contributions {
            w.sub_contribution(c, 3);
        }
        // Counts hit zero; join edges and table refs vanish on their own.
        assert_eq!(w.statement_count, 0);
        assert!(w.join_edges.is_empty());
        assert!(w.table_refs.is_empty());
        // Usage entries stay behind, every counter retracted to zero.
        assert!(w.iter_usage().next().is_some(), "zero usage entries remain");
        for (_, _, u) in w.iter_usage() {
            assert_eq!(*u, ColumnUsage::default(), "all counters retracted to zero");
        }
    }

    #[test]
    fn zero_usage_touches_survive_in_contributions() {
        // `IS NULL` creates a usage entry with all-zero counters; the
        // contribution must carry it so delta inserts create the same
        // entry set as a from-scratch fold (index_underuse's gate reads
        // entry existence).
        let (stmts, schema) =
            parsed_with_anns("CREATE TABLE t (a INT); SELECT * FROM t WHERE a IS NULL;");
        let (s, a) = &stmts[1];
        let c = WorkloadProfile::contribution(s, a, &schema);
        assert!(
            c.usage.iter().any(|((t, col), u)| {
                t == "t" && col == "a" && *u == ColumnUsage::default()
            }),
            "zero-usage touch must appear in the contribution: {c:?}"
        );
    }
}

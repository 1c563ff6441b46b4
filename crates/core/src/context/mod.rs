//! The application context (Algorithm 1's `Context-Builder`).
//!
//! The context combines three ingredients:
//!
//! 1. **query context** — every statement, parsed and annotated;
//! 2. **schema context** — the catalog folded from DDL (or, when a
//!    database is attached, from its live schema);
//! 3. **data context** — per-column profiles sampled from the database,
//!    when one is available.
//!
//! Detection rules receive the whole [`Context`]; contextual rules use it
//! to "resolve cases where the presence or absence of an AP cannot be
//! determined with high precision by only looking at a given query".
//!
//! [`ContextBuilder`] is the one front end: every check splits, parses
//! and annotates its script through it, configured by one
//! [`FrontendOptions`] (budgets, dialect, dialect detection). The
//! per-occurrence [`crate::detect::reference::context`] is its test
//! oracle.
//!
//! The query context is [`Context::statements`], one per occurrence,
//! pointing by id into [`Context::uniques`], the table of distinct texts.
//! The builder fills the table at intake; the engine and a
//! [`CheckSession`](crate::CheckSession) read and update that one table.

pub mod data;
pub mod schema;
mod table;
pub mod workload;

pub use data::{ColumnProfile, DataAnalysisConfig, DataProfile, TableProfile};
pub use schema::{CheckInfo, ColumnInfo, FkInfo, IndexInfo, SchemaCatalog, TableInfo};
pub use table::{UniqueTable, UniqueText};
pub use workload::{ColumnUsage, JoinEdge, StatementContribution, WorkloadProfile};

use sqlcheck_minidb::database::Database;
use sqlcheck_parser::annotate::Annotations;
use sqlcheck_parser::ast::ParsedStatement;
use sqlcheck_parser::diag::{DiagKind, Diagnostic, Limits};
use sqlcheck_parser::splitter::{split_deduped, ShapeLex};
use sqlcheck_parser::Dialect;
use sqlcheck_parser::token::Span;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One statement occurrence, as stored in the context.
///
/// The parse tree, annotations and diagnostics are the [`Arc`]s of its
/// entry in [`Context::uniques`]: each unique text is parsed and
/// annotated once and shared by every occurrence, and a DML text shares
/// the tree of its shape (see [`UniqueText::parsed`]), so the tree's
/// source and number literals may be another text's. Token *spans*
/// inside the shared tree refer to the first occurrence;
/// [`AnalyzedStatement::span`] is the per-occurrence record, so consumers
/// that need the exact source location of a duplicate (reports, fixes)
/// read it from here, never from the tree, and the statement's own text
/// from [`AnalyzedStatement::text`].
#[derive(Debug, Clone)]
pub struct AnalyzedStatement {
    /// The parsed statement (shared across duplicate texts and texts of
    /// one shape).
    pub parsed: Arc<ParsedStatement>,
    /// Its annotation digest (shared with its tree).
    pub ann: Arc<Annotations>,
    /// Id of its text in [`Context::uniques`].
    pub unique: usize,
    /// Byte range of **this occurrence** in the original script — not
    /// shared across duplicates.
    pub span: Span,
    /// Degradation diagnostics from parsing this statement's unique text
    /// (shared across duplicate occurrences). `statement` indexes are
    /// unset here; consumers attribute the first occurrence.
    pub diags: Arc<[Diagnostic]>,
}

impl AnalyzedStatement {
    /// The statement's own source text, from its entry in `uniques` (the
    /// table of the context holding it).
    pub fn text<'t>(&self, uniques: &'t UniqueTable) -> &'t str {
        &uniques[self.unique].source
    }
}

/// The application context.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// All analysed statements, in script order.
    pub statements: Vec<AnalyzedStatement>,
    /// The unique statement texts the statements refer to.
    pub uniques: UniqueTable,
    /// Schema catalog (from DDL and/or the attached database).
    pub schema: SchemaCatalog,
    /// Workload profile.
    pub workload: WorkloadProfile,
    /// Data profiles, when a database was attached.
    pub data: Option<DataProfile>,
    /// Script-level degradation diagnostics not tied to one statement
    /// (e.g. [`DiagKind::DelimiterFallbackSequential`]).
    pub diagnostics: Vec<Diagnostic>,
    /// The dialect the statements were lexed, split, and parsed under
    /// (after auto-detection, when enabled).
    pub dialect: Dialect,
}

impl Context {
    /// Statement count.
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// True when no statements were analysed.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Whether data analysis is available.
    pub fn has_data(&self) -> bool {
        self.data.is_some()
    }

    /// Re-profile the database, replacing the cached data context. The
    /// paper's data analyzer "periodically refreshes the context over
    /// time \[and\] whenever the schema evolves" (§4.2) — profiles are
    /// cached and reused across checks, so a long-lived context must be
    /// refreshed explicitly when the data changes underneath it.
    pub fn refresh_data(&mut self, db: &Database, cfg: &DataAnalysisConfig) {
        self.schema.add_missing_tables(db);
        self.data = Some(DataProfile::build(db, cfg));
    }

    /// The index of the first statement of each unique id
    /// (`usize::MAX` for an id no statement refers to).
    pub(crate) fn first_occurrences(&self) -> Vec<usize> {
        let mut first = vec![usize::MAX; self.uniques.id_bound()];
        for (i, s) in self.statements.iter().enumerate() {
            if first[s.unique] == usize::MAX {
                first[s.unique] = i;
            }
        }
        first
    }

    /// Fold the schema from the statements in order, then the tables of
    /// `db` the DDL does not declare, then the workload profile once per
    /// live tree weighted by the summed count of its texts (every profile
    /// counter is additive, and no fold step reads a number literal, so
    /// this equals folding each occurrence).
    pub(crate) fn refold(&mut self, db: Option<&Database>) {
        let mut schema =
            SchemaCatalog::from_statements(self.statements.iter().map(|a| &a.parsed.stmt));
        if let Some(db) = db {
            schema.add_missing_tables(db);
        }
        self.workload = WorkloadProfile::build_weighted(self.uniques.weighted_trees(), &schema);
        self.schema = schema;
    }
}

/// Instrumentation of one [`ContextBuilder::build_with_stats`] run: where
/// the front-end (split → parse → annotate → context fold) spent its time,
/// and how effective the parse-once dedup was.
#[derive(Debug, Clone, Default)]
pub struct FrontendStats {
    /// Statements in the context (after splitting, duplicates included).
    pub statements: usize,
    /// Unique statement texts. Texts of one shape share a parse, so this
    /// exceeds the parses performed; see [`FrontendStats::parsed_trees`].
    pub unique_texts: usize,
    /// Parse trees built — the number of parses and annotations actually
    /// performed: one per shape, plus one per text no other text may
    /// share a tree with.
    pub parsed_trees: usize,
    /// Wall-clock microseconds in the split pass ([`split_deduped`]):
    /// the boundary scan, dedup grouping, and one content hash of each
    /// unique text's bytes (no per-unique lex).
    pub split_micros: u128,
    /// Wall-clock microseconds in each new unique text's one lex at
    /// intake (which hashes its shape), and, for a text whose shape no
    /// tree holds yet, building its owned tokens from that lex.
    pub materialize_micros: u128,
    /// Wall-clock microseconds in intake bookkeeping (table lookups and
    /// occurrence records), excluding the materialise, parse and annotate
    /// time of new unique texts that intake runs.
    pub intake_micros: u128,
    /// Wall-clock microseconds parsing new unique texts of new shapes at
    /// intake, each right after it is materialised (its tokens are then
    /// dropped).
    pub parse_micros: u128,
    /// Wall-clock microseconds annotating new unique texts of new shapes
    /// at intake.
    pub annotate_micros: u128,
    /// Wall-clock microseconds spent folding schema, workload, and data
    /// context.
    pub context_micros: u128,
}

/// Front-end phase times, summed at full precision and converted to the
/// microseconds of [`FrontendStats`] once: a phase made of many
/// sub-microsecond steps (one per new unique text) then adds up instead of
/// rounding each step down to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PhaseTimes {
    pub(crate) split: Duration,
    pub(crate) intake: Duration,
    pub(crate) materialize: Duration,
    pub(crate) parse: Duration,
    pub(crate) annotate: Duration,
}

impl PhaseTimes {
    /// Time materialising, parsing and annotating new unique texts.
    fn unique(&self) -> Duration {
        self.materialize + self.parse + self.annotate
    }

    /// The phase times in microseconds; every other field is zero.
    fn stats(&self) -> FrontendStats {
        FrontendStats {
            split_micros: self.split.as_micros(),
            intake_micros: self.intake.as_micros(),
            materialize_micros: self.materialize.as_micros(),
            parse_micros: self.parse.as_micros(),
            annotate_micros: self.annotate.as_micros(),
            ..FrontendStats::default()
        }
    }
}

/// Options for the parse-once front-end: the one options type every
/// entry point takes ([`ContextBuilder::with_frontend`],
/// [`SqlCheck::check_workload`](crate::SqlCheck::check_workload),
/// [`SqlCheck::into_session`](crate::SqlCheck::into_session)).
#[derive(Debug, Clone)]
pub struct FrontendOptions {
    /// Per-statement resource budgets; over-budget statements degrade to
    /// `Other` with an [`DiagKind::OverLimit`] diagnostic.
    pub limits: Limits,
    /// The dialect the whole front door (lexer → splitter → parser)
    /// applies; [`Dialect::Generic`] is the tolerant union of all.
    pub dialect: Dialect,
    /// Guess the dialect from the first added script's contents
    /// ([`Dialect::detect`]) when `dialect` is [`Dialect::Generic`]. A
    /// successful guess switches the front door for every script in this
    /// build and emits a [`DiagKind::DialectGuessed`] diagnostic. Off by
    /// default — library callers opt in; the CLI enables it whenever no
    /// explicit `--dialect` is given.
    pub detect_dialect: bool,
}

impl FrontendOptions {
    /// The dialect to process `script` under: the configured one, or —
    /// when auto-detection is on and the configured dialect is
    /// [`Dialect::Generic`] — the one [`Dialect::detect`] guesses from the
    /// script, reported by the returned [`DiagKind::DialectGuessed`]
    /// diagnostic.
    pub(crate) fn resolve_dialect(&self, script: &str) -> (Dialect, Option<Diagnostic>) {
        if !self.detect_dialect || self.dialect != Dialect::Generic {
            return (self.dialect, None);
        }
        match Dialect::detect(script) {
            Some(guess) => (
                guess,
                Some(Diagnostic::new(
                    DiagKind::DialectGuessed,
                    format!(
                        "no dialect specified; guessed `{guess}` from script \
                         contents (pass an explicit dialect to suppress)"
                    ),
                )),
            ),
            None => (Dialect::Generic, None),
        }
    }
}

impl Default for FrontendOptions {
    fn default() -> Self {
        FrontendOptions {
            limits: Limits::default(),
            dialect: Dialect::Generic,
            detect_dialect: false,
        }
    }
}

/// Builder for [`Context`] — the parse-once front-end.
///
/// Scripts enter through [`split_deduped`], which splits the script,
/// groups duplicate texts, and content-hashes each unique text's bytes —
/// before parsing, and without lexing any text twice. Each text the
/// context's [`UniqueTable`] does not hold yet is lexed once at intake,
/// which hashes its shape. A DML text whose shape the table holds shares
/// that tree; any other is materialised from the same lex, parsed and
/// annotated, one at a time, so at most one token vector is live. A text
/// the table holds is never lexed again: a unique text keeps only its
/// source, tree, annotations and diagnostics, shared across its
/// occurrences via [`Arc`]. The one [`FrontendOptions`] dialect governs
/// every step.
/// [`crate::detect::reference::context`] builds the same context without
/// any sharing; the identity suites compare the two.
#[derive(Default)]
pub struct ContextBuilder {
    /// The statements and unique texts added so far.
    ctx: Context,
    database: Option<(Arc<Database>, DataAnalysisConfig)>,
    opts: FrontendOptions,
    /// Front-end timings accumulated by intake.
    times: PhaseTimes,
    /// Whether any added script contained a `DELIMITER` directive (see
    /// [`sqlcheck_parser::splitter::DedupedSplit`]).
    saw_delimiter_directive: bool,
    /// The dialect the front door settled on, fixed by the first
    /// `add_script` call (auto-detection, when enabled, runs exactly
    /// once — on that first script — so every script in the build is
    /// processed under one dialect).
    resolved_dialect: Option<Dialect>,
    /// Pending [`DiagKind::DialectGuessed`] diagnostic, emitted into the
    /// built context when auto-detection fired.
    dialect_diag: Option<Diagnostic>,
}

impl ContextBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add every statement in a SQL script: [`split_deduped`] splits the
    /// script and groups duplicate texts before any parsing. Only texts
    /// this builder has not seen before are lexed, and of those only the
    /// ones whose shape no tree holds yet are materialised, parsed and
    /// annotated, under the dialect the script was split under,
    /// each token vector dropped as soon as its text is parsed; a
    /// duplicate costs one map lookup.
    pub fn add_script(mut self, script: &str) -> Self {
        let t = Instant::now();
        if self.resolved_dialect.is_none() {
            let (d, diag) = self.opts.resolve_dialect(script);
            self.resolved_dialect = Some(d);
            self.dialect_diag = diag;
        }
        let dialect = self.dialect();
        let split = split_deduped(script, dialect);
        // The pass above is the split; everything below is intake
        // bookkeeping, accounted separately so warm re-checks
        // (materialization short-circuited, bookkeeping still
        // O(occurrences)) report honest split numbers.
        self.times.split += t.elapsed();
        let t_intake = Instant::now();
        self.saw_delimiter_directive |= split.saw_delimiter_directive;
        let before = self.times.unique();
        let uniques = &mut self.ctx.uniques;
        uniques.reserve(split.uniques.len());
        let mut lex = ShapeLex::default();
        let ids: Vec<usize> = split
            .uniques
            .iter()
            .map(|u| {
                uniques.insert(u, script, dialect, &self.opts.limits, &mut self.times, &mut lex)
            })
            .collect();
        // Free the split's per-unique records and the lex buffer before
        // the statements grow.
        drop((split.uniques, lex));
        let statements = &mut self.ctx.statements;
        statements.reserve_exact(split.occurrences.len());
        for (local, span) in split.occurrences {
            let id = ids[local as usize];
            uniques.add_occurrence(id);
            let u = &uniques[id];
            statements.push(AnalyzedStatement {
                parsed: Arc::clone(&u.parsed),
                ann: Arc::clone(&u.ann),
                unique: id,
                span,
                diags: Arc::clone(&u.diags),
            });
        }
        let inner = self.times.unique() - before;
        self.times.intake += t_intake.elapsed().saturating_sub(inner);
        self
    }

    /// The dialect the front door applies: fixed by the first
    /// [`ContextBuilder::add_script`], the configured one before that.
    fn dialect(&self) -> Dialect {
        self.resolved_dialect.unwrap_or(self.opts.dialect)
    }

    /// Attach a database for data analysis (the optional input of Fig 4).
    pub fn with_database(self, db: Database, cfg: DataAnalysisConfig) -> Self {
        self.with_shared_database(Arc::new(db), cfg)
    }

    /// Attach a shared database handle. Profiling only reads the
    /// database, so a caller that re-checks workloads repeatedly (e.g.
    /// [`crate::SqlCheck`] or a [`crate::CheckSession`]) can hand the same
    /// `Arc` to every build instead of deep-cloning tables per check.
    pub fn with_shared_database(mut self, db: Arc<Database>, cfg: DataAnalysisConfig) -> Self {
        self.database = Some((db, cfg));
        self
    }

    /// Configure the front-end (limits, dialect).
    ///
    /// Must be called before any statements are added: the dialect
    /// governs intake.
    pub fn with_frontend(mut self, opts: FrontendOptions) -> Self {
        assert!(
            self.ctx.statements.is_empty(),
            "with_frontend must be called before add_script"
        );
        self.opts = opts;
        self
    }

    /// Build the context: fold the schema, profile the workload, and
    /// (when a database is attached) profile the data.
    pub fn build(self) -> Context {
        self.build_with_stats().0
    }

    /// Like [`ContextBuilder::build`], also returning per-phase front-end
    /// instrumentation.
    pub fn build_with_stats(self) -> (Context, FrontendStats) {
        let mut ctx = self.ctx;
        let mut stats = FrontendStats {
            statements: ctx.statements.len(),
            unique_texts: ctx.uniques.len(),
            parsed_trees: ctx.uniques.trees(),
            ..self.times.stats()
        };

        let t_ctx = Instant::now();
        // When a database is attached, its live schema augments the DDL-
        // derived catalog (tables created outside the script become
        // visible to the rules).
        ctx.refold(self.database.as_ref().map(|(db, _)| db.as_ref()));
        ctx.data = self.database.map(|(db, cfg)| DataProfile::build(&db, &cfg));
        stats.context_micros = t_ctx.elapsed().as_micros();

        if let Some(d) = self.dialect_diag {
            ctx.diagnostics.push(d);
        }
        if self.saw_delimiter_directive {
            ctx.diagnostics.push(Diagnostic::new(
                DiagKind::DelimiterFallbackSequential,
                "script contains a DELIMITER directive; the splitter used \
                 the tracked (sequential-equivalent) pass",
            ));
        }
        ctx.dialect = self.resolved_dialect.unwrap_or(self.opts.dialect);
        (ctx, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcheck_minidb::prelude::*;

    #[test]
    fn builds_query_and_schema_context() {
        let ctx = ContextBuilder::new()
            .add_script(
                "CREATE TABLE t (a INT PRIMARY KEY, b INT);\
                 SELECT * FROM t WHERE a = 1;",
            )
            .build();
        assert_eq!(ctx.len(), 2);
        assert!(ctx.schema.table("t").is_some());
        assert_eq!(ctx.workload.usage("t", "a").unwrap().eq_predicates, 1);
        assert!(!ctx.has_data());
    }

    #[test]
    fn database_schema_merged_into_catalog() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("Users")
                .column(sqlcheck_minidb::schema::Column::new("User_ID", DataType::Text).not_null())
                .column(sqlcheck_minidb::schema::Column::new("Name", DataType::Text))
                .primary_key(&["User_ID"]),
        )
        .unwrap();
        db.insert("Users", vec![Value::text("U1"), Value::text("N")]).unwrap();

        let ctx = ContextBuilder::new()
            .add_script("SELECT * FROM Users WHERE Name = 'N'")
            .with_database(db, DataAnalysisConfig::default())
            .build();
        let t = ctx.schema.table("users").expect("table from db visible in catalog");
        assert!(t.has_primary_key());
        assert!(ctx.has_data());
        assert_eq!(ctx.data.as_ref().unwrap().table("users").unwrap().row_count, 1);
    }

    #[test]
    fn sub_microsecond_phase_steps_add_up() {
        let mut t = PhaseTimes::default();
        for _ in 0..1_000 {
            t.materialize += Duration::from_nanos(400);
        }
        t.parse = Duration::from_nanos(1_999);
        let s = t.stats();
        assert_eq!((s.materialize_micros, s.parse_micros), (400, 1));
        assert_eq!(t.unique(), Duration::from_nanos(401_999));
    }

    #[test]
    fn empty_context() {
        let ctx = ContextBuilder::new().build();
        assert!(ctx.is_empty());
        assert_eq!(ctx.schema.table_count(), 0);
    }

    #[test]
    fn refresh_data_tracks_schema_and_data_evolution() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("a")
                .column(sqlcheck_minidb::schema::Column::new("x", DataType::Int).not_null())
                .primary_key(&["x"]),
        )
        .unwrap();
        db.insert("a", vec![Value::Int(1)]).unwrap();
        let cfg = DataAnalysisConfig::default();
        let mut ctx = ContextBuilder::new().with_database(db.clone(), cfg.clone()).build();
        assert_eq!(ctx.data.as_ref().unwrap().table("a").unwrap().row_count, 1);

        // The database evolves: a new table appears, rows accrete.
        db.create_table(
            TableSchema::new("b")
                .column(sqlcheck_minidb::schema::Column::new("y", DataType::Int).not_null())
                .primary_key(&["y"]),
        )
        .unwrap();
        db.insert("a", vec![Value::Int(2)]).unwrap();
        // Stale until refreshed.
        assert!(ctx.data.as_ref().unwrap().table("b").is_none());
        ctx.refresh_data(&db, &cfg);
        assert_eq!(ctx.data.as_ref().unwrap().table("a").unwrap().row_count, 2);
        assert!(ctx.data.as_ref().unwrap().table("b").is_some());
        assert!(ctx.schema.table("b").is_some(), "schema catalog follows");
    }
}

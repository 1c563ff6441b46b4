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

pub mod data;
pub mod schema;
pub mod workload;

pub use data::{ColumnProfile, DataAnalysisConfig, DataProfile, TableProfile};
pub use schema::{CheckInfo, ColumnInfo, FkInfo, IndexInfo, SchemaCatalog, SchemaVersions, TableInfo};
pub use workload::{ColumnUsage, JoinEdge, StatementContribution, WorkloadProfile};

use crate::hashutil::Prehashed;
use sqlcheck_minidb::database::Database;
use sqlcheck_parser::annotate::{annotate, Annotations};
use sqlcheck_parser::ast::ParsedStatement;
use sqlcheck_parser::diag::{DiagKind, Diagnostic, Limits};
use sqlcheck_parser::parser::parse_raw_limited;
use sqlcheck_parser::splitter::split_deduped;
use sqlcheck_parser::Dialect;
use sqlcheck_parser::token::Span;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One statement with its annotations, as stored in the context.
///
/// The parse tree and annotation digest are held behind [`Arc`]s: the
/// parse-once front-end parses and annotates each *unique* statement text
/// exactly once and shares the result across every duplicate occurrence.
/// Duplicates are therefore value-identical (same text, same tree, same
/// annotations). Token *spans* inside the shared tree refer to the first
/// occurrence; [`AnalyzedStatement::span`] is the per-occurrence side
/// record, so consumers that need the exact source location of a
/// duplicate (reports, fixes) read it from here, never from the tree.
#[derive(Debug, Clone)]
pub struct AnalyzedStatement {
    /// The parsed statement (shared across duplicate texts).
    pub parsed: Arc<ParsedStatement>,
    /// Its annotation digest (shared across duplicate texts).
    pub ann: Arc<Annotations>,
    /// Literal-sensitive 128-bit content hash of the token stream
    /// (span-insensitive), precomputed at build time so batch detection
    /// can group duplicate statements in O(1) per statement without
    /// re-walking tokens.
    pub text_hash: u128,
    /// Literal-insensitive template fingerprint
    /// ([`sqlcheck_parser::fingerprint`]), computed by the splitter once
    /// per unique text — batch detection counts unique templates without
    /// re-walking tokens.
    pub template_hash: u64,
    /// Byte range of **this occurrence** in the original script — not
    /// shared across duplicates.
    pub span: Span,
    /// Degradation diagnostics from parsing this statement's unique text
    /// (shared across duplicate occurrences). `statement` indexes are
    /// unset here; consumers attribute the first occurrence.
    pub diags: Arc<[Diagnostic]>,
}

/// The application context.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// All analysed statements, in script order.
    pub statements: Vec<AnalyzedStatement>,
    /// Schema catalog (from DDL and/or the attached database).
    pub schema: SchemaCatalog,
    /// Workload profile.
    pub workload: WorkloadProfile,
    /// Data profiles, when a database was attached.
    pub data: Option<DataProfile>,
    /// Script-level degradation diagnostics not tied to one statement
    /// (e.g. [`DiagKind::DelimiterFallbackSequential`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Epoch digest ([`Limits::epoch`]) of the budgets the statements
    /// were parsed under — folded into cache validity keys, because a
    /// budget change can alter the parse of the same statement text.
    pub limits_epoch: u64,
    /// The dialect the statements were lexed, split, and parsed under
    /// (after auto-detection, when enabled). Folded into cache validity
    /// keys: the same script text splits and parses differently under a
    /// different dialect.
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
}

/// Instrumentation of one [`ContextBuilder::build_with_stats`] run: where
/// the front-end (split → parse → annotate → context fold) spent its time,
/// and how effective the parse-once dedup was.
#[derive(Debug, Clone, Default)]
pub struct FrontendStats {
    /// Statements in the context (after splitting, duplicates included).
    pub statements: usize,
    /// Unique statement texts — the number of parses/annotations actually
    /// performed.
    pub unique_texts: usize,
    /// Wall-clock microseconds in the split pass ([`split_deduped`]):
    /// statement splitting, dedup grouping, and content hashing and
    /// template fingerprinting of each unique text. Excludes
    /// unique-text materialisation ([`FrontendStats::materialize_micros`]).
    pub split_micros: u128,
    /// Wall-clock microseconds spent materialising token streams for
    /// unique statement texts at intake (re-lexing each unique span into
    /// owned tokens). Previously lumped into `split_micros`.
    pub materialize_micros: u128,
    /// Wall-clock microseconds spent in dedup intake bookkeeping:
    /// mapping script-local unique slots onto builder slots and
    /// recording per-occurrence spans. Excludes the materialise and
    /// parse time of new unique texts, which runs inside intake but is
    /// reported in [`FrontendStats::materialize_micros`] and
    /// [`FrontendStats::parse_micros`].
    pub intake_micros: u128,
    /// Wall-clock microseconds spent parsing unique statements. Each new
    /// unique text is parsed at intake, right after it is materialised,
    /// and its token vector is dropped before the next one is built;
    /// that time is summed here, not in `intake_micros`.
    pub parse_micros: u128,
    /// Wall-clock microseconds spent annotating unique statements.
    pub annotate_micros: u128,
    /// Wall-clock microseconds spent folding schema, workload, and data
    /// context.
    pub context_micros: u128,
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
    /// applies. [`Dialect::Generic`] is the historical tolerant union
    /// and is byte-identical to the pre-dialect behaviour.
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

/// One unique statement text during the build: its parse tree (which
/// holds the source text) and parse diagnostics, content hash, template
/// fingerprint, and occurrence count. The text was parsed at intake; its
/// tokens are gone.
struct UniqueEntry {
    parsed: Arc<ParsedStatement>,
    diags: Arc<[Diagnostic]>,
    hash: u128,
    fingerprint: u64,
    count: usize,
}

/// Builder for [`Context`] — the parse-once front-end.
///
/// Scripts enter through [`split_deduped`], which splits the script,
/// groups duplicate texts, and content-hashes and fingerprints each
/// unique text — before parsing, and without materialising a token
/// stream. Each **unique** text is materialised and parsed at intake,
/// one at a time, so at most one token vector is live: a unique text
/// keeps only its source, tree and diagnostics, and gains its
/// annotations at build time. Trees and annotations are shared across
/// duplicate occurrences via [`Arc`]. The one [`FrontendOptions`]
/// dialect governs every step. [`crate::detect::reference::context`]
/// builds the same context without any sharing; the identity suites
/// compare the two.
#[derive(Default)]
pub struct ContextBuilder {
    /// Unique statement texts, in first-occurrence order.
    uniques: Vec<UniqueEntry>,
    /// Statement order: index into `uniques` per statement.
    order: Vec<usize>,
    /// Per-occurrence source spans, parallel to `order`. Dedup shares the
    /// parse tree across duplicates, but every occurrence keeps its own
    /// span so detections and fixes can point at the exact location.
    spans: Vec<Span>,
    /// Content hash → slot in `uniques`.
    slot_of: HashMap<u128, usize, Prehashed>,
    database: Option<(Arc<Database>, DataAnalysisConfig)>,
    opts: FrontendOptions,
    split_micros: u128,
    materialize_micros: u128,
    intake_micros: u128,
    parse_micros: u128,
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
    /// this builder has not seen before are materialised and parsed,
    /// under the dialect the script was split under, each token vector
    /// dropped as soon as its text is parsed; a duplicate costs one map
    /// lookup.
    pub fn add_script(mut self, script: &str) -> Self {
        let t = Instant::now();
        if self.resolved_dialect.is_none() {
            let (d, diag) = self.opts.resolve_dialect(script);
            self.resolved_dialect = Some(d);
            self.dialect_diag = diag;
        }
        let dialect = self.dialect();
        let deduped = split_deduped(script, dialect);
        // The pass above is the split; everything below is intake
        // bookkeeping, accounted separately so warm re-checks
        // (materialization short-circuited, bookkeeping still
        // O(occurrences)) report honest split numbers.
        self.split_micros += t.elapsed().as_micros();
        let t_intake = Instant::now();
        self.saw_delimiter_directive |= deduped.saw_delimiter_directive;
        let (mut mat_micros, mut parse_micros) = (0u128, 0u128);
        let limits = &self.opts.limits;
        let mut slot_map: Vec<usize> = Vec::with_capacity(deduped.uniques.len());
        for u in &deduped.uniques {
            let uniques = &mut self.uniques;
            slot_map.push(*self.slot_of.entry(u.content_hash).or_insert_with(|| {
                let tm = Instant::now();
                let raw = u.materialize(script, dialect);
                let tp = Instant::now();
                let (parsed, diags) = parse_raw_limited(raw, limits, dialect);
                mat_micros += (tp - tm).as_micros();
                parse_micros += tp.elapsed().as_micros();
                uniques.push(UniqueEntry {
                    parsed: Arc::new(parsed),
                    diags: diags.into(),
                    hash: u.content_hash,
                    fingerprint: u.fingerprint,
                    count: 0,
                });
                uniques.len() - 1
            }));
        }
        for (local, span) in deduped.occurrences {
            let slot = slot_map[local as usize];
            self.uniques[slot].count += 1;
            self.order.push(slot);
            self.spans.push(span);
        }
        self.intake_micros +=
            t_intake.elapsed().as_micros().saturating_sub(mat_micros + parse_micros);
        self.materialize_micros += mat_micros;
        self.parse_micros += parse_micros;
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
    /// [`crate::SqlCheck`] with an incremental cache) can hand the same
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
            self.order.is_empty(),
            "with_frontend must be called before add_script"
        );
        self.opts = opts;
        self
    }

    /// Build the context: annotate queries, fold the schema, profile the
    /// workload, and (when a database is attached) profile the data.
    pub fn build(self) -> Context {
        self.build_with_stats().0
    }

    /// Like [`ContextBuilder::build`], also returning per-phase front-end
    /// instrumentation.
    pub fn build_with_stats(self) -> (Context, FrontendStats) {
        let dialect = self.dialect();
        let uniques = self.uniques;
        let mut stats = FrontendStats {
            statements: self.order.len(),
            unique_texts: uniques.len(),
            split_micros: self.split_micros,
            materialize_micros: self.materialize_micros,
            intake_micros: self.intake_micros,
            parse_micros: self.parse_micros,
            ..FrontendStats::default()
        };

        // Annotate each unique parse tree exactly once.
        let t_ann = Instant::now();
        let anns: Vec<Arc<Annotations>> =
            uniques.iter().map(|e| Arc::new(annotate(&e.parsed.stmt, &e.parsed.arena))).collect();
        stats.annotate_micros = t_ann.elapsed().as_micros();

        // Assemble statements in script order (duplicates share
        // the unique entry's Arcs) and fold the context.
        let t_ctx = Instant::now();
        let analyzed: Vec<AnalyzedStatement> = self
            .order
            .iter()
            .zip(&self.spans)
            .map(|(&slot, &span)| {
                let e = &uniques[slot];
                AnalyzedStatement {
                    parsed: Arc::clone(&e.parsed),
                    ann: Arc::clone(&anns[slot]),
                    text_hash: e.hash,
                    template_hash: e.fingerprint,
                    span,
                    diags: Arc::clone(&e.diags),
                }
            })
            .collect();

        let mut schema =
            SchemaCatalog::from_statements(analyzed.iter().map(|a| &a.parsed.stmt));

        // When a database is attached, its live schema augments the DDL-
        // derived catalog (tables created outside the script become
        // visible to the rules).
        let data = self.database.map(|(db, cfg)| {
            schema.add_missing_tables(&db);
            DataProfile::build(&db, &cfg)
        });

        // Profile once per unique text, weighted by occurrence count —
        // every profile counter is additive over statements, so this is
        // identical to folding each duplicate individually.
        let workload = WorkloadProfile::build_weighted(
            uniques.iter().zip(&anns).map(|(e, ann)| (&e.parsed.stmt, ann.as_ref(), e.count)),
            &schema,
        );
        stats.context_micros = t_ctx.elapsed().as_micros();

        let mut diagnostics = Vec::new();
        if let Some(d) = self.dialect_diag {
            diagnostics.push(d);
        }
        if self.saw_delimiter_directive {
            diagnostics.push(Diagnostic::new(
                DiagKind::DelimiterFallbackSequential,
                "script contains a DELIMITER directive; the splitter used \
                 the tracked (sequential-equivalent) pass",
            ));
        }

        (
            Context {
                statements: analyzed,
                schema,
                workload,
                data,
                diagnostics,
                limits_epoch: self.opts.limits.epoch(),
                dialect,
            },
            stats,
        )
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

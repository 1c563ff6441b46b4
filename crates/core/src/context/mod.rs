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
use sqlcheck_parser::parse;
use sqlcheck_parser::parser::{diagnose_parsed, parse_raw_limited_dialect};
use sqlcheck_parser::fingerprint::fingerprint_of;
use sqlcheck_parser::splitter::{split_deduped, split_stream_dialect, RawStatement};
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
    /// ([`sqlcheck_parser::fingerprint`]), computed by the fused splitter
    /// in the same pass that lexed the statement — batch detection counts
    /// unique templates without re-walking tokens.
    pub template_hash: u64,
    /// Byte range of **this occurrence** in the original script — not
    /// shared across duplicates. Zero-length for statements added via
    /// [`ContextBuilder::add_statements`] without source text.
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
    /// time [and] whenever the schema evolves" (§4.2) — profiles are
    /// cached and reused across checks, so a long-lived context must be
    /// refreshed explicitly when the data changes underneath it.
    pub fn refresh_data(&mut self, db: &Database, cfg: &DataAnalysisConfig) {
        for table in db.tables() {
            if self.schema.table(&table.schema.name).is_none() {
                let ddl = synthesize_ddl(table);
                for p in parse(&ddl) {
                    self.schema.apply(&p.stmt);
                }
            }
        }
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
    /// performed when dedup is enabled.
    pub unique_texts: usize,
    /// Wall-clock microseconds in the fused split pass: lexing, statement
    /// splitting, content hashing, template fingerprinting, and dedup
    /// grouping — one streaming pass over the script bytes. Excludes
    /// unique-text materialisation ([`FrontendStats::materialize_micros`]).
    pub split_micros: u128,
    /// Wall-clock microseconds spent materialising token streams for
    /// unique statement texts at intake (re-lexing each unique span into
    /// owned tokens). Previously lumped into `split_micros`.
    pub materialize_micros: u128,
    /// Wall-clock microseconds spent in dedup intake bookkeeping:
    /// mapping script-local unique slots onto builder slots and
    /// recording per-occurrence spans. Previously lumped into
    /// `split_micros`, which inflated the apparent split cost of warm
    /// re-checks (the cache short-circuits materialization, but intake
    /// still walks every occurrence).
    pub intake_micros: u128,
    /// Wall-clock microseconds spent grouping texts and parsing unique
    /// statements.
    pub parse_micros: u128,
    /// Wall-clock microseconds spent annotating unique statements.
    pub annotate_micros: u128,
    /// Wall-clock microseconds spent folding schema, workload, and data
    /// context.
    pub context_micros: u128,
}

/// Options for the parse-once front-end.
#[derive(Debug, Clone)]
pub struct FrontendOptions {
    /// Group duplicate statement texts and parse + annotate each unique
    /// text exactly once, sharing the result via `Arc`. Output is
    /// value-identical to the per-statement path.
    pub dedup: bool,
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

impl Default for FrontendOptions {
    fn default() -> Self {
        FrontendOptions {
            dedup: true,
            limits: Limits::default(),
            dialect: Dialect::Generic,
            detect_dialect: false,
        }
    }
}

impl FrontendOptions {
    /// The pre-pipeline behaviour: parse and annotate every statement
    /// individually. Kept as the benchmark baseline.
    pub fn legacy() -> Self {
        FrontendOptions { dedup: false, ..FrontendOptions::default() }
    }
}

/// One unique statement text during the build: its (to-be-)parsed tree,
/// annotations, content hash, template fingerprint, and occurrence count.
struct UniqueEntry {
    raw: Option<RawStatement>,
    parsed: Option<Arc<ParsedStatement>>,
    ann: Option<Arc<Annotations>>,
    diags: Arc<[Diagnostic]>,
    hash: u128,
    fingerprint: u64,
    count: usize,
}

/// Empty shared diagnostic slice (the common, fully-shaped case).
fn no_diags() -> Arc<[Diagnostic]> {
    Arc::from(Vec::new())
}

/// Builder for [`Context`] — the parse-once front-end.
///
/// Scripts enter through the fused streaming splitter
/// ([`sqlcheck_parser::splitter::split_deduped`]): a single pass lexes,
/// splits, content-hashes, and fingerprints every statement and groups
/// duplicate texts — before parsing, and without ever materialising a
/// token stream. Token vectors exist only for **unique** texts, which are
/// materialised at intake and then parsed + annotated exactly once at
/// build time, with the resulting AST/annotations shared across duplicate
/// occurrences via [`Arc`].
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
    /// Content hash → slot in `uniques` (only populated when deduping).
    slot_of: HashMap<u128, usize, Prehashed>,
    database: Option<(Arc<Database>, DataAnalysisConfig)>,
    opts: FrontendOptions,
    split_micros: u128,
    materialize_micros: u128,
    intake_micros: u128,
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

    /// Record one intake statement with its content hash and occurrence
    /// span, deduping when enabled. `make` materialises the payload (and
    /// computes the template fingerprint) only for unique texts; the span
    /// is recorded for *every* occurrence.
    fn intake(
        &mut self,
        hash: u128,
        span: Span,
        make: impl FnOnce() -> (Option<RawStatement>, Option<Arc<ParsedStatement>>, u64),
    ) {
        self.spans.push(span);
        if self.opts.dedup {
            if let Some(&slot) = self.slot_of.get(&hash) {
                self.uniques[slot].count += 1;
                self.order.push(slot);
                return;
            }
            self.slot_of.insert(hash, self.uniques.len());
        }
        let (raw, parsed, fingerprint) = make();
        self.order.push(self.uniques.len());
        self.uniques.push(UniqueEntry {
            raw,
            parsed,
            ann: None,
            diags: no_diags(),
            hash,
            fingerprint,
            count: 1,
        });
    }

    /// Resolve the dialect for script intake. The first call fixes it:
    /// when auto-detection is enabled and the configured dialect is
    /// [`Dialect::Generic`], the first script's contents may switch the
    /// front door ([`Dialect::detect`]) — recorded as a
    /// [`DiagKind::DialectGuessed`] diagnostic on the built context.
    fn resolve_dialect(&mut self, script: &str) -> Dialect {
        if let Some(d) = self.resolved_dialect {
            return d;
        }
        let mut d = self.opts.dialect;
        if self.opts.detect_dialect && d == Dialect::Generic {
            if let Some(guess) = Dialect::detect(script) {
                d = guess;
                self.dialect_diag = Some(Diagnostic::new(
                    DiagKind::DialectGuessed,
                    format!(
                        "no dialect specified; guessed `{guess}` from script \
                         contents (pass an explicit dialect to suppress)"
                    ),
                ));
            }
        }
        self.resolved_dialect = Some(d);
        d
    }

    /// Add every statement in a SQL script through the fused streaming
    /// front door: one pass lexes,
    /// splits, content-hashes, and fingerprints the script, and groups
    /// duplicate texts — before any parsing. Token streams are
    /// materialised only for texts this builder has not seen before;
    /// duplicates cost one map lookup at split time and nothing here.
    pub fn add_script(mut self, script: &str) -> Self {
        let t = Instant::now();
        let dialect = self.resolve_dialect(script);
        let mut mat_micros = 0u128;
        if self.opts.dedup {
            let deduped = split_deduped(script, dialect);
            // The fused pass above is the split; everything below is
            // intake bookkeeping, accounted separately so warm re-checks
            // (materialization short-circuited, bookkeeping still O(
            // occurrences)) report honest split numbers.
            self.split_micros += t.elapsed().as_micros();
            let t_intake = Instant::now();
            self.saw_delimiter_directive |= deduped.saw_delimiter_directive;
            // Map script-local unique slots onto builder slots,
            // materialising only texts no earlier script contributed.
            let mut slot_map: Vec<usize> = Vec::with_capacity(deduped.uniques.len());
            for u in &deduped.uniques {
                let slot = match self.slot_of.get(&u.content_hash) {
                    Some(&slot) => slot,
                    None => {
                        let slot = self.uniques.len();
                        self.slot_of.insert(u.content_hash, slot);
                        let tm = Instant::now();
                        let raw = u.materialize(script);
                        mat_micros += tm.elapsed().as_micros();
                        self.uniques.push(UniqueEntry {
                            raw: Some(raw),
                            parsed: None,
                            ann: None,
                            diags: no_diags(),
                            hash: u.content_hash,
                            fingerprint: u.fingerprint,
                            count: 0,
                        });
                        slot
                    }
                };
                slot_map.push(slot);
            }
            for (local, span) in deduped.occurrences {
                let slot = slot_map[local as usize];
                self.uniques[slot].count += 1;
                self.order.push(slot);
                self.spans.push(span);
            }
            self.intake_micros +=
                t_intake.elapsed().as_micros().saturating_sub(mat_micros);
            self.materialize_micros += mat_micros;
            return self;
        } else {
            // Legacy mode: every occurrence keeps its own entry (and is
            // parsed individually later).
            for s in split_stream_dialect(script, dialect) {
                let tm = Instant::now();
                let raw = s.materialize_dialect(script, dialect);
                mat_micros += tm.elapsed().as_micros();
                self.order.push(self.uniques.len());
                self.spans.push(s.span);
                self.uniques.push(UniqueEntry {
                    raw: Some(raw),
                    parsed: None,
                    ann: None,
                    diags: no_diags(),
                    hash: s.content_hash,
                    fingerprint: s.fingerprint,
                    count: 1,
                });
            }
        }
        self.materialize_micros += mat_micros;
        self.split_micros += t.elapsed().as_micros().saturating_sub(mat_micros);
        self
    }

    /// Add pre-parsed statements (deduplicated against script statements
    /// by content hash, like everything else).
    pub fn add_statements(mut self, stmts: impl IntoIterator<Item = ParsedStatement>) -> Self {
        for p in stmts {
            let span = p
                .tokens
                .iter()
                .map(|t| t.span)
                .reduce(|a, b| a.merge(b))
                .unwrap_or(Span::new(0, 0));
            self.intake(p.content_hash(), span, || {
                let fingerprint = fingerprint_of(&p.tokens);
                (None, Some(Arc::new(p)), fingerprint)
            });
        }
        self
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

    /// Configure the front-end (dedup, limits, dialect). The default
    /// parses each unique text once.
    ///
    /// Must be called before any statements are added: dedup happens at
    /// intake.
    pub fn with_frontend(mut self, opts: FrontendOptions) -> Self {
        assert!(
            self.order.is_empty(),
            "with_frontend must be called before add_script/add_statements"
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
        let mut uniques = self.uniques;
        let mut stats = FrontendStats {
            statements: self.order.len(),
            unique_texts: uniques.len(),
            split_micros: self.split_micros,
            materialize_micros: self.materialize_micros,
            intake_micros: self.intake_micros,
            ..FrontendStats::default()
        };

        // Parse phase: each unique text exactly once.
        let t_parse = Instant::now();
        let limits = self.opts.limits;
        let dialect = self.resolved_dialect.unwrap_or(self.opts.dialect);
        for e in &mut uniques {
            if let Some(raw) = e.raw.take() {
                let (p, diags) = parse_raw_limited_dialect(raw, &limits, dialect);
                e.parsed = Some(Arc::new(p));
                if !diags.is_empty() {
                    e.diags = diags.into();
                }
            } else if let Some(p) = &e.parsed {
                // Pre-parsed intake (add_statements): re-derive the
                // statement-level diagnostics from the existing tree.
                let diags = diagnose_parsed(p);
                if !diags.is_empty() {
                    e.diags = diags.into();
                }
            }
        }
        stats.parse_micros = t_parse.elapsed().as_micros();

        // Phase 3: annotate each unique parse tree exactly once.
        let t_ann = Instant::now();
        for e in &mut uniques {
            let parsed = e.parsed.as_ref().expect("parsed in phase 2");
            e.ann = Some(Arc::new(annotate(&parsed.stmt, &parsed.arena)));
        }
        stats.annotate_micros = t_ann.elapsed().as_micros();

        // Phase 4: assemble statements in script order (duplicates share
        // the unique entry's Arcs) and fold the context.
        let t_ctx = Instant::now();
        let analyzed: Vec<AnalyzedStatement> = self
            .order
            .iter()
            .zip(&self.spans)
            .map(|(&slot, &span)| {
                let u = &uniques[slot];
                AnalyzedStatement {
                    parsed: u.parsed.clone().expect("parsed in phase 2"),
                    ann: u.ann.clone().expect("annotated in phase 3"),
                    text_hash: u.hash,
                    template_hash: u.fingerprint,
                    span,
                    diags: u.diags.clone(),
                }
            })
            .collect();

        let mut schema =
            SchemaCatalog::from_statements(analyzed.iter().map(|a| &a.parsed.stmt));

        // When a database is attached, its live schema augments the DDL-
        // derived catalog (tables created outside the script become
        // visible to the rules).
        let data = self.database.map(|(db, cfg)| {
            for table in db.tables() {
                if schema.table(&table.schema.name).is_none() {
                    let ddl = synthesize_ddl(table);
                    for p in parse(&ddl) {
                        schema.apply(&p.stmt);
                    }
                }
            }
            DataProfile::build(&db, &cfg)
        });

        // Profile once per unique text, weighted by occurrence count —
        // every profile counter is additive over statements, so this is
        // identical to folding each duplicate individually.
        let workload = WorkloadProfile::build_weighted(
            uniques.iter().map(|u| {
                (
                    &u.parsed.as_ref().expect("parsed").stmt,
                    u.ann.as_ref().expect("annotated").as_ref(),
                    u.count,
                )
            }),
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
                limits_epoch: limits.epoch(),
                dialect,
            },
            stats,
        )
    }
}

/// Render a minidb table schema as `CREATE TABLE` DDL so the generic
/// catalog code can ingest it.
pub(crate) fn synthesize_ddl(table: &sqlcheck_minidb::table::Table) -> String {
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

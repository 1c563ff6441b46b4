//! The per-statement reference pipeline: Algorithm 1 as plain loops.
//!
//! [`context`] builds the application context with no dedup and no
//! sharing: every statement occurrence is split by the two-pass
//! reference splitter, then parsed and annotated on its own; its
//! unique-text table keeps each text's first occurrence. [`detect`]
//! runs every statement's intra-query rules, in statement order, then
//! every inter-query rule in `inter::RULES` order, then the data rules
//! per profiled table — no grouping, no sharing, no panic guard.
//! Production runs through [`ContextBuilder`](crate::ContextBuilder) and
//! the batch engine
//! ([`Detector::detect_batch`](crate::Detector::detect_batch));
//! this module is the oracle the identity suites and the bench identity
//! asserts compare them against.

use super::{data, dedup, inter, intra, DetectionConfig};
use crate::context::{
    AnalyzedStatement, Context, FrontendOptions, SchemaCatalog, UniqueTable, WorkloadProfile,
};
use crate::report::{Detection, Locus, Report, Span};
use sqlcheck_parser::annotate::annotate;
use sqlcheck_parser::parser::parse_raw_limited;
use sqlcheck_parser::splitter::reference::split_spanned;
use std::sync::Arc;

/// Build the context of `script` one occurrence at a time: split under
/// the dialect `opts` resolves to, parse and annotate each occurrence
/// separately, fold the schema, and profile with
/// [`WorkloadProfile::build`]. Its statements, schema and workload must
/// equal [`ContextBuilder`](crate::ContextBuilder)'s. Of the
/// script-level diagnostics only the dialect guess is reproduced.
pub fn context(script: &str, opts: &FrontendOptions) -> Context {
    let (dialect, guessed) = opts.resolve_dialect(script);
    let mut uniques = UniqueTable::default();
    let statements: Vec<AnalyzedStatement> = split_spanned(script, dialect)
        .iter()
        .map(|s| {
            let (parsed, diags) = parse_raw_limited(s.materialize(script), &opts.limits, dialect);
            let ann = annotate(&parsed.stmt, &parsed.arena);
            let (parsed, ann, diags) = (Arc::new(parsed), Arc::new(ann), diags.into());
            let unique = uniques.intern(s.content_hash, || {
                (Arc::clone(&parsed), Arc::clone(&ann), Arc::clone(&diags))
            });
            uniques.add_occurrence(unique);
            AnalyzedStatement { parsed, ann, unique, span: s.span, diags }
        })
        .collect();
    let schema = SchemaCatalog::from_statements(statements.iter().map(|a| &a.parsed.stmt));
    let workload = WorkloadProfile::build(
        statements.iter().map(|a| (&a.parsed.stmt, a.ann.as_ref())),
        &schema,
    );
    Context {
        statements,
        uniques,
        schema,
        workload,
        data: None,
        diagnostics: guessed.into_iter().collect(),
        dialect,
    }
}

/// Detect with the per-statement reference loop. The engine's output
/// must equal this, detection for detection and in the same order.
pub fn detect(ctx: &Context, cfg: &DetectionConfig) -> Report {
    let mut report = Report::default();
    let use_context = !cfg.intra_only;
    for (idx, stmt) in ctx.statements.iter().enumerate() {
        report.detections.extend(intra::detect_statement(idx, stmt, ctx, cfg, use_context));
    }
    if use_context {
        for rule in 0..inter::RULES.len() {
            report.detections.extend(inter::detect_unit(rule, ctx, cfg));
        }
    }
    if let Some(profile) = &ctx.data {
        for table in profile.tables() {
            report.detections.extend(data::detect_table(table, ctx, cfg));
        }
    }
    dedup(&mut report.detections);
    attach_spans(&mut report.detections, ctx);
    report
}

/// Stamp every statement-locus detection with the source span of its
/// own statement occurrence, after the global dedup: a detection's span,
/// when present, is relative to its statement's start (a body
/// sub-statement of compound DDL) and is rebased onto the occurrence's
/// absolute source range; an absent span becomes the whole statement's.
fn attach_spans(detections: &mut [Detection], ctx: &Context) {
    for d in detections {
        if let Locus::Statement { index } = d.locus {
            d.span = ctx.statements.get(index).map(|s| match d.span {
                Some(rel) => Span::new(s.span.start + rel.start, s.span.start + rel.end),
                None => s.span,
            });
        }
    }
}

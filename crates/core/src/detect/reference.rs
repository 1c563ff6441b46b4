//! The per-statement reference detector: Algorithm 1 as a plain loop.
//!
//! Every statement's intra-query rules run, in statement order, then
//! every inter-query rule in `inter::RULES` order, then the data rules
//! per profiled table — no grouping, no cache, no panic guard. Production
//! detection runs through the batch engine
//! ([`Detector::detect_batch_with`](crate::Detector::detect_batch_with));
//! this module is the oracle the identity suites and the bench identity
//! asserts compare the engine against.

use super::{attach_spans, data, dedup, inter, intra, DetectionConfig};
use crate::context::Context;
use crate::report::Report;

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

//! Context-tailored textual fixes — the fallback when no non-ambiguous
//! transformation exists (Algorithm 4, line 12).

use crate::anti_pattern::AntiPatternKind;
use crate::context::Context;
use crate::report::{Detection, Locus};
use std::fmt;
use std::sync::Arc;

/// Textual advice: a body shared by every occurrence of one statement
/// text, plus the occurrence's own `statement #N` site, spliced in when
/// the advice is displayed. Advice for a table, column, index or
/// application locus names its site in the body itself.
#[derive(Clone)]
pub struct Advice {
    body: Arc<str>,
    /// `(byte offset into body, statement index)` of the spliced
    /// `statement #N`; `None` when the body is complete.
    site: Option<(usize, usize)>,
}

impl Advice {
    /// True when the advice has no text.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty() && self.site.is_none()
    }

    /// The same advice for another occurrence of its statement text:
    /// shares the body and splices statement `index` instead.
    pub(crate) fn at(&self, index: usize) -> Advice {
        Advice { body: self.body.clone(), site: self.site.map(|(at, _)| (at, index)) }
    }

    /// The body before the site, the site's statement index, and the
    /// body after it. The displayed advice is the first half, then
    /// `statement #N` when there is a site, then the second half.
    pub(crate) fn parts(&self) -> (&str, Option<usize>, &str) {
        match self.site {
            None => (&self.body, None, ""),
            Some((at, index)) => (&self.body[..at], Some(index), &self.body[at..]),
        }
    }
}

impl fmt::Display for Advice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (before, site, after) = self.parts();
        f.write_str(before)?;
        if let Some(index) = site {
            write!(f, "statement #{index}")?;
        }
        f.write_str(after)
    }
}

/// The `Debug` of the displayed text, as if the advice were a `String`.
impl fmt::Debug for Advice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

/// Stands in for a statement site while a body is rendered. Every
/// template names its site before any other interpolated text, so the
/// first match is the site.
const SITE: &str = "\0";

/// Produce the textual fix for a detection, weaving in the locus so the
/// advice is tailored to the application rather than generic. A
/// statement-locus body is rendered with its site marked, so every
/// occurrence of the same text can share it.
pub fn advice(d: &Detection, ctx: &Context) -> Advice {
    if let Locus::Statement { index } = d.locus {
        let mut text = body(d, ctx, SITE);
        if let Some(at) = text.find(SITE) {
            text.replace_range(at..at + SITE.len(), "");
            return Advice { body: text.into(), site: Some((at, index)) };
        }
    }
    Advice { body: body(d, ctx, &d.locus.to_string()).into(), site: None }
}

/// The advice text for `d`'s kind, naming its site as `site`.
fn body(d: &Detection, ctx: &Context, site: &str) -> String {
    use AntiPatternKind::*;
    match d.kind {
        MultiValuedAttribute => format!(
            "Replace the delimiter-separated list in {site} with an intersection table \
             carrying one row per (owner, member) pair; add foreign keys to both referenced \
             tables and a composite primary key."
        ),
        NoPrimaryKey => format!(
            "Declare a PRIMARY KEY on {site}. {}",
            pk_candidate(d, ctx)
                .map(|c| format!("Column '{c}' looks like a natural key."))
                .unwrap_or_else(|| "Add a natural key or a surrogate key column.".into())
        ),
        NoForeignKey => format!(
            "Declare a FOREIGN KEY for {site} so the DBMS enforces referential integrity \
             instead of application code."
        ),
        GenericPrimaryKey => format!(
            "Rename the generic 'id' key in {site} to a descriptive name (e.g. <table>_id) \
             so joins read unambiguously and USING clauses become possible."
        ),
        DataInMetadata => format!(
            "Move the values encoded in {site}'s column names into rows of a child table \
             (one row per value) instead of numbered columns."
        ),
        AdjacencyList => format!(
            "{site} models a hierarchy as an adjacency list; consider a path enumeration, \
             nested set, or closure table design — or recursive CTEs where the DBMS \
             supports them."
        ),
        GodTable => format!(
            "Split {site} into cohesive entities; move rarely-used or nullable column \
             groups into 1:1 satellite tables."
        ),
        RoundingErrors => format!(
            "Store fractional values in {site} as NUMERIC/DECIMAL with explicit precision \
             instead of binary FLOAT."
        ),
        EnumeratedTypes => format!(
            "Replace the fixed value set on {site} with a lookup table and a foreign key; \
             new values then require an INSERT instead of an ALTER."
        ),
        ExternalDataStorage => format!(
            "{site} stores file paths; store the content in the database (BLOB) or enforce \
             path integrity in one place — orphaned files violate integrity silently."
        ),
        IndexOveruse => format!(
            "Drop or consolidate {site}: every write pays for index maintenance. Prefer one \
             composite index serving several queries over many single-column indexes."
        ),
        IndexUnderuse => format!(
            "Create an index covering the predicate on {site} — the workload filters on it \
             repeatedly without index support."
        ),
        CloneTable => format!(
            "Merge the cloned tables ({site}) into one table with a discriminator column; \
             use partitioning if volume demands it."
        ),
        ColumnWildcard => format!(
            "List the needed columns explicitly in {site}; SELECT * couples the application \
             to the physical column order and fetches unused data."
        ),
        ConcatenateNulls => format!(
            "Wrap nullable operands in COALESCE(col, '') in {site}, or use CONCAT_WS — \
             '||' yields NULL if any operand is NULL."
        ),
        OrderingByRand => format!(
            "Avoid ORDER BY RAND() in {site}: pick a random key instead, e.g. \
             `WHERE key >= <random value> ORDER BY key LIMIT 1`, or sample row ids in the \
             application."
        ),
        PatternMatching => format!(
            "The pattern predicate in {site} defeats indexing. Use a prefix pattern, a \
             full-text index, or a dedicated search engine for substring/regex search."
        ),
        ImplicitColumns => format!(
            "Spell out the column list in {site}; implicit columns silently corrupt data \
             when the schema evolves."
        ),
        DistinctJoin => format!(
            "In {site}, DISTINCT hides duplicates created by the join; restructure as a \
             semi-join (EXISTS / IN) that never produces them."
        ),
        TooManyJoins => format!(
            "{site} exceeds the join threshold; consider materialising a pre-joined view, \
             denormalising hot attributes, or splitting the query."
        ),
        ReadablePassword => format!(
            "Never store or compare plain-text passwords ({site}); store a salted adaptive \
             hash (bcrypt/argon2) and compare digests."
        ),
        MissingTimezone => format!(
            "Declare {site} WITH TIME ZONE (or store UTC and convert at the edge); naive \
             timestamps corrupt cross-timezone data."
        ),
        IncorrectDataType => format!(
            "{site} stores numeric data as text; migrate to a numeric type to regain \
             comparison semantics, index order, and storage density."
        ),
        DenormalizedTable => format!(
            "Extract the repeated values of {site} into a lookup table referenced by id."
        ),
        InformationDuplication => format!(
            "{site} stores derivable data; compute it at query time (or in a view/generated \
             column) so the two copies can never disagree."
        ),
        RedundantColumn => format!(
            "{site} carries no information (constant or all NULL); drop it."
        ),
        NoDomainConstraint => format!(
            "Add a CHECK constraint to {site} enforcing the bounded domain the data already \
             follows."
        ),
    }
}

/// For No Primary Key advice: a unique-looking id column, if one exists.
fn pk_candidate(d: &Detection, ctx: &Context) -> Option<String> {
    let table = match &d.locus {
        Locus::Table { table } => table.clone(),
        Locus::Statement { index } => {
            ctx.statements.get(*index)?.ann.tables.first()?.to_string()
        }
        _ => return None,
    };
    let info = ctx.schema.table(&table)?;
    info.columns
        .iter()
        .find(|c| {
            let n = c.name.to_ascii_lowercase();
            n.ends_with("_id") || n == "id" || n.ends_with("_key")
        })
        .map(|c| c.name.to_string())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::context::ContextBuilder;
    use crate::detect::Detector;

    #[test]
    fn advice_is_site_specific() {
        let ctx = ContextBuilder::new()
            .add_script("CREATE TABLE t (tenant_id INT, x INT)")
            .build();
        let report = Detector::default().detect(&ctx);
        let d = report
            .detections
            .iter()
            .find(|d| d.kind == AntiPatternKind::NoPrimaryKey)
            .unwrap();
        let a = advice(d, &ctx).to_string();
        assert!(a.contains("statement #0"));
        assert!(a.contains("tenant_id"), "candidate key surfaced: {a}");
    }

    #[test]
    fn every_kind_has_nonempty_advice() {
        let ctx = ContextBuilder::new().build();
        for kind in AntiPatternKind::ALL {
            let d = Detection {
                kind,
                locus: Locus::Application,
                message: "".into(),
                source: crate::report::DetectionSource::IntraQuery,
                span: None,
            };
            assert!(!advice(&d, &ctx).is_empty());
        }
    }
}

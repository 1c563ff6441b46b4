//! Detection reports.

use crate::anti_pattern::AntiPatternKind;
use std::fmt;
use std::sync::Arc;

pub use sqlcheck_parser::token::Span;

/// Where a detection is anchored.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Locus {
    /// A statement, by index in the analysed script.
    Statement {
        /// Zero-based statement index.
        index: usize,
    },
    /// A table known from the schema or database.
    Table {
        /// Table name.
        table: String,
    },
    /// A column of a table.
    Column {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// An index.
    Index {
        /// Index name.
        index: String,
    },
    /// The application as a whole (cross-cutting detections).
    Application,
}

impl fmt::Display for Locus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locus::Statement { index } => write!(f, "statement #{index}"),
            Locus::Table { table } => write!(f, "table {table}"),
            Locus::Column { table, column } => write!(f, "column {table}.{column}"),
            Locus::Index { index } => write!(f, "index {index}"),
            Locus::Application => f.write_str("application"),
        }
    }
}

/// One detected anti-pattern occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The anti-pattern kind.
    pub kind: AntiPatternKind,
    /// Where it was found.
    pub locus: Locus,
    /// Human-readable explanation with concrete evidence. Shared
    /// (`Arc<str>`) so batch detection can fan one analysis result out to
    /// thousands of duplicate statements without re-allocating the text.
    pub message: Arc<str>,
    /// Which analysis produced it (used for the intra/inter/data ablation).
    pub source: DetectionSource,
    /// Source byte range this detection anchors to, when the locus is a
    /// statement from an analysed script: the whole statement, or — for
    /// a finding inside a compound statement's `BEGIN…END` body — the
    /// body sub-statement. Spans are **per occurrence**: duplicate
    /// statement texts share one parse tree but each detection points at
    /// its own location in the source. (Internally, intra-query body
    /// detections hold statement-relative spans until the fan-out to
    /// each occurrence rebases them; reported spans are always absolute.)
    pub span: Option<Span>,
}

/// The analysis phase that produced a detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionSource {
    /// Intra-query rule (single statement).
    IntraQuery,
    /// Inter-query rule (uses the application context).
    InterQuery,
    /// Data-analysis rule (uses the database).
    DataAnalysis,
}

impl Detection {
    /// The statement index, when the locus is a statement.
    pub fn statement_index(&self) -> Option<usize> {
        match self.locus {
            Locus::Statement { index } => Some(index),
            _ => None,
        }
    }
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} @ {}: {}", self.kind.category(), self.kind, self.locus, self.message)
    }
}

/// A full detection report over a script / application.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All detections, in rule application order (ranking reorders them).
    pub detections: Vec<Detection>,
}

impl Report {
    /// Count detections of a kind.
    pub fn count(&self, kind: AntiPatternKind) -> usize {
        self.detections.iter().filter(|d| d.kind == kind).count()
    }

    /// Detections grouped by kind, in catalog order, counted in one pass.
    pub fn by_kind(&self) -> Vec<(AntiPatternKind, usize)> {
        let mut counts = [0usize; AntiPatternKind::ALL.len()];
        for d in &self.detections {
            counts[d.kind as usize] += 1;
        }
        AntiPatternKind::ALL.into_iter().zip(counts).filter(|(_, n)| *n > 0).collect()
    }

    /// Distinct kinds present.
    pub fn kinds(&self) -> Vec<AntiPatternKind> {
        self.by_kind().into_iter().map(|(k, _)| k).collect()
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: Report) {
        self.detections.extend(other.detections);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(kind: AntiPatternKind) -> Detection {
        Detection {
            kind,
            locus: Locus::Statement { index: 0 },
            message: "m".into(),
            source: DetectionSource::IntraQuery,
            span: None,
        }
    }

    #[test]
    fn count_and_group() {
        let mut r = Report::default();
        r.detections.push(det(AntiPatternKind::ColumnWildcard));
        r.detections.push(det(AntiPatternKind::ColumnWildcard));
        r.detections.push(det(AntiPatternKind::NoPrimaryKey));
        assert_eq!(r.count(AntiPatternKind::ColumnWildcard), 2);
        let by = r.by_kind();
        assert_eq!(by.len(), 2);
        assert!(by.contains(&(AntiPatternKind::ColumnWildcard, 2)));
    }

    #[test]
    fn display_contains_key_fields() {
        let d = det(AntiPatternKind::NoPrimaryKey);
        let s = d.to_string();
        assert!(s.contains("No Primary Key"));
        assert!(s.contains("statement #0"));
        assert!(s.contains("Logical Design"));
    }

    #[test]
    fn merge_reports() {
        let mut a = Report::default();
        a.detections.push(det(AntiPatternKind::GodTable));
        let mut b = Report::default();
        b.detections.push(det(AntiPatternKind::CloneTable));
        a.merge(b);
        assert_eq!(a.detections.len(), 2);
    }
}

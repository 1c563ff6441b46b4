//! Degradation diagnostics and resource budgets.
//!
//! The parser is total — it never errors — which means it degrades
//! *silently*: a statement it cannot shape becomes [`Statement::Other`]
//! and a sub-expression becomes [`Expr::Raw`], and detection power is
//! quietly lost. This module makes that degradation observable. Every
//! fallback path emits a [`Diagnostic`] describing what was lost, and a
//! [`Limits`] budget bounds how much work a single pathological
//! statement may consume before it is degraded deliberately.
//!
//! [`Statement::Other`]: crate::ast::Statement::Other
//! [`Expr::Raw`]: crate::ast::Expr::Raw

use std::fmt;

/// What kind of degradation occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiagKind {
    /// A statement fell back to `Statement::Other` because the parser
    /// could not shape it.
    ParseDegraded,
    /// A compound statement opened a `BEGIN`/`CASE` block that never
    /// closed before the input ran out; the trailing piece was kept as a
    /// best-effort body.
    UnterminatedBlock,
    /// A statement began with `END` that matches no open block; the
    /// splitter tolerated it as an ordinary word.
    OrphanEnd,
    /// The script contains a `DELIMITER` directive. Informational: the
    /// splitter honours it; the name predates the single-threaded
    /// splitter and is kept for output stability.
    DelimiterFallbackSequential,
    /// A statement exceeded a [`Limits`] budget and was degraded to
    /// `Statement::Other` (or had a sub-tree flattened) instead of
    /// burning unbounded CPU or stack.
    OverLimit,
    /// A detection-rule unit panicked; its output was dropped and every
    /// other unit's output is unaffected.
    RuleFailed,
    /// No dialect was specified and the front door guessed one from the
    /// script's contents ([`crate::dialect::Dialect::detect`]); the
    /// detail names the guessed dialect and the triggering signal.
    /// Explicitly selecting a dialect suppresses this.
    DialectGuessed,
    /// The statement kept its shape, but at least one sub-expression fell
    /// back to `Expr::Raw` because the parser could not shape it.
    ExprDegraded,
}

impl DiagKind {
    /// All kinds, in stable order (indexes match [`DiagKind::index`]).
    pub const ALL: [DiagKind; 8] = [
        DiagKind::ParseDegraded,
        DiagKind::UnterminatedBlock,
        DiagKind::OrphanEnd,
        DiagKind::DelimiterFallbackSequential,
        DiagKind::OverLimit,
        DiagKind::RuleFailed,
        DiagKind::DialectGuessed,
        DiagKind::ExprDegraded,
    ];

    /// Number of kinds (length of [`DiagKind::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable index into per-kind count arrays.
    pub fn index(self) -> usize {
        match self {
            DiagKind::ParseDegraded => 0,
            DiagKind::UnterminatedBlock => 1,
            DiagKind::OrphanEnd => 2,
            DiagKind::DelimiterFallbackSequential => 3,
            DiagKind::OverLimit => 4,
            DiagKind::RuleFailed => 5,
            DiagKind::DialectGuessed => 6,
            DiagKind::ExprDegraded => 7,
        }
    }

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DiagKind::ParseDegraded => "parse-degraded",
            DiagKind::UnterminatedBlock => "unterminated-block",
            DiagKind::OrphanEnd => "orphan-end",
            DiagKind::DelimiterFallbackSequential => "delimiter-fallback-sequential",
            DiagKind::OverLimit => "over-limit",
            DiagKind::RuleFailed => "rule-failed",
            DiagKind::DialectGuessed => "dialect-guessed",
            DiagKind::ExprDegraded => "expr-degraded",
        }
    }
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One degradation event. Diagnostics are advisory: the pipeline always
/// completes; these describe where output quality was reduced.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Diagnostic {
    /// What happened.
    pub kind: DiagKind,
    /// Human-readable detail (rule name, limit exceeded, ...).
    pub detail: String,
    /// Statement index this applies to, when known. Parser-emitted
    /// diagnostics leave this `None`; the context builder fills in the
    /// first occurrence index of the unique statement.
    pub statement: Option<usize>,
}

impl Diagnostic {
    /// Build a diagnostic with no statement attribution.
    pub fn new(kind: DiagKind, detail: impl Into<String>) -> Self {
        Diagnostic { kind, detail: detail.into(), statement: None }
    }

    /// Copy with the statement index set.
    pub fn at(&self, statement: usize) -> Self {
        Diagnostic { kind: self.kind, detail: self.detail.clone(), statement: Some(statement) }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.statement {
            Some(i) => write!(f, "[{}] statement {}: {}", self.kind, i, self.detail),
            None => write!(f, "[{}] {}", self.kind, self.detail),
        }
    }
}

/// Resource budgets for a single statement. Exceeding a budget never
/// errors — the statement degrades to `Statement::Other` (or a sub-tree
/// is flattened) and an [`DiagKind::OverLimit`] diagnostic is emitted.
///
/// The defaults are far above anything a legitimate statement reaches
/// (a 1 MiB single statement, 64 levels of `BEGIN` nesting, 128 levels
/// of expression nesting) so ordinary workloads never see them, while a
/// pathological or adversarial input is bounded in CPU and stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Maximum statement source length in bytes before the statement is
    /// degraded without a structural parse.
    pub max_statement_bytes: usize,
    /// Maximum token count per statement before the statement is
    /// degraded without a structural parse.
    pub max_tokens: usize,
    /// Maximum `BEGIN`/`CASE` block-nesting depth inside a compound
    /// statement body; deeper blocks are kept flat instead of recursed.
    pub max_block_depth: u32,
    /// Maximum expression/subquery recursion depth; deeper sub-trees
    /// flatten to `Expr::Raw`. This is the stack-overflow guard.
    pub max_expr_depth: u32,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_statement_bytes: 1 << 20,
            max_tokens: 1 << 16,
            max_block_depth: 64,
            max_expr_depth: 128,
        }
    }
}

impl Limits {
    /// Effectively no budgets (for comparison runs; expression depth is
    /// still capped high enough to stay stack-safe).
    pub fn unlimited() -> Self {
        Limits {
            max_statement_bytes: usize::MAX,
            max_tokens: usize::MAX,
            max_block_depth: u32::MAX,
            max_expr_depth: 4096,
        }
    }

    /// FNV-1a digest of the budget values — used to key caches whose
    /// entries depend on how statements were parsed.
    pub fn epoch(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        mix(self.max_statement_bytes as u64);
        mix(self.max_tokens as u64);
        mix(self.max_block_depth as u64);
        mix(self.max_expr_depth as u64);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indexes_are_stable() {
        for (i, k) in DiagKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn display_formats() {
        let d = Diagnostic::new(DiagKind::ParseDegraded, "statement fell back to Other");
        assert_eq!(d.to_string(), "[parse-degraded] statement fell back to Other");
        assert_eq!(d.at(3).to_string(), "[parse-degraded] statement 3: statement fell back to Other");
    }

    #[test]
    fn limits_epoch_distinguishes_values() {
        let a = Limits::default();
        let b = Limits { max_expr_depth: 129, ..Limits::default() };
        assert_ne!(a.epoch(), b.epoch());
        assert_eq!(a.epoch(), Limits::default().epoch());
    }
}

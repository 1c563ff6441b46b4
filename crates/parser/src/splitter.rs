//! Statement splitter — the front door of the analysis pipeline.
//!
//! Splits a SQL script into individual statements on top of the token
//! stream, so that semicolons inside string literals, comments,
//! dollar-quoted bodies, or `BEGIN…END` compound-statement bodies
//! (trigger/procedure/function DDL — see the `block` tracker module for
//! the state machine) never split a statement. MySQL dump `DELIMITER` directives are honoured as
//! script-level directives: the directive line belongs to no statement
//! and switches the active terminator.
//!
//! The production path is [`split_deduped`]: a spans-only boundary scan
//! (no keyword classification) groups statement occurrences by their
//! exact bytes, and each **unique** text gets one content hash of its
//! bytes. The split lexes nothing per unique text. No whole-script token
//! buffer is ever built; per-statement token vectors exist only for the
//! texts a consumer materialises for parsing — from the one lex of a new
//! unique text ([`ShapeLex`]), which also hashes its shape — and only
//! until they are parsed: tokens are transient parse input, and
//! a [`ParsedStatement`](crate::ast::ParsedStatement) keeps the
//! statement's source text, not its tokens. [`split`] is the owned-token
//! view of the same pass.
//!
//! Every entry point takes the [`Dialect`] the script is lexed under, and
//! a statement must be materialised under the dialect it was split
//! under, or its re-lexed tokens differ from the ones the split saw.
//!
//! The original two-pass splitter ([`reference::split_spanned`]) is kept
//! as the readable reference implementation; property tests pin the
//! production path to it.

use crate::block::{BlockTracker, SplitAction};
use crate::dialect::Dialect;
use crate::hash::{content_hash_bytes, ShapeHasher};
use crate::lexer::{lex_into, SpannedToken, TokenSink};
use crate::token::{kw_lookup, Span, Token, TokenKind};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// One raw statement: its tokens (trivia included), overall span, and
/// source text.
#[derive(Debug, Clone)]
pub struct RawStatement {
    /// All tokens of the statement, excluding the terminating semicolon.
    pub tokens: Vec<Token>,
    /// Span covering the statement in the original script.
    pub span: Span,
    /// The statement's source text, sliced from the original script at
    /// materialisation time (trivia is kept inside statements, so the
    /// span is one contiguous slice). Parsing moves it into the
    /// [`ParsedStatement`](crate::ast::ParsedStatement) unchanged.
    pub source: Arc<str>,
}

impl RawStatement {
    /// The statement's source text — the script slice covered by
    /// [`RawStatement::span`], captured at materialisation (not rebuilt
    /// by concatenating per-token strings).
    pub fn text(&self) -> &str {
        &self.source
    }
}

/// Split a script into statements under `dialect`, each with its owned
/// tokens: every occurrence [`split_deduped`] groups, materialised.
/// Empty statements (runs of trivia between semicolons) are dropped.
///
/// ```
/// use sqlcheck_parser::splitter::split;
/// use sqlcheck_parser::Dialect;
/// let stmts = split("SELECT 1; SELECT ';'; -- done", Dialect::Generic);
/// assert_eq!(stmts.len(), 2);
/// assert_eq!(stmts[1].text().trim(), "SELECT ';'");
/// ```
pub fn split(script: &str, dialect: Dialect) -> Vec<RawStatement> {
    split_spans(script, dialect)
        .0
        .into_iter()
        .map(|span| materialize_span(script, span, dialect))
        .collect()
}

/// One statement as emitted by [`split_deduped`]: its span and content
/// hash — **no tokens**. Token vectors are built only when a consumer
/// [materialises](SplitStatement::materialize) a unique text for parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitStatement {
    /// Span covering the statement (leading/trailing trivia trimmed) in
    /// the original script.
    pub span: Span,
    /// Literal-sensitive 128-bit content hash
    /// ([`crate::hash::content_hash_bytes`] of the span's bytes).
    pub content_hash: u128,
}

impl SplitStatement {
    /// Build the statement's owned token stream by re-lexing its span
    /// under `dialect`, which must be the dialect the statement was split
    /// under (the span starts at a token boundary, so the re-lex then
    /// reproduces the original tokens exactly; spans stay
    /// script-absolute).
    pub fn materialize(&self, script: &str, dialect: Dialect) -> RawStatement {
        materialize_span(script, self.span, dialect)
    }
}

/// Materialise the statement covering `span` of `script`: re-lex the
/// slice under `dialect` into owned tokens (script-absolute spans) and
/// capture the source text. `span` must be a statement span produced by
/// this module's splitters under the same dialect — it begins and ends on
/// significant-token boundaries.
pub fn materialize_span(script: &str, span: Span, dialect: Dialect) -> RawStatement {
    let mut lex = ShapeLex::default();
    lex.lex(script, span, dialect);
    lex.materialize(script)
}

/// One statement text's single lex at intake: its [shape](ShapeHasher)
/// and its span tokens, kept so that a text which must be parsed builds
/// its owned tokens without lexing again. Words stay unclassified
/// (keyword lookup runs only for the tokens [`ShapeLex::materialize`]
/// builds), and the span buffer is reused from one text to the next, so
/// a text that shares an existing shape costs one allocation-free pass.
#[derive(Debug, Default)]
pub struct ShapeLex {
    /// Span tokens of the last lexed text, relative to its start; words
    /// are all [`TokenKind::Ident`].
    spans: Vec<SpannedToken>,
    /// The last lexed statement's span in its script.
    span: Span,
}

impl ShapeLex {
    /// Lex the statement covering `span` of `script` under `dialect`
    /// (the dialect it was split under), keep its span tokens, and
    /// return its shape.
    pub fn lex(&mut self, script: &str, span: Span, dialect: Dialect) -> u128 {
        self.spans.clear();
        self.span = span;
        let slice = &script[span.start..span.end];
        let (bytes, spans) = (slice.as_bytes(), &mut self.spans);
        let mut sink = ShapeSink { bytes, spans, shape: ShapeHasher::new() };
        lex_into(slice, dialect, &mut sink);
        sink.shape.finish()
    }

    /// The owned statement of the last [`ShapeLex::lex`] of `script`:
    /// its tokens, words classified and spans script-absolute, exactly
    /// as a classifying lex emits them.
    pub fn materialize(&self, script: &str) -> RawStatement {
        let (base, slice) = (self.span.start, &script[self.span.start..self.span.end]);
        // The source outlives the tokens (a parse keeps it and drops
        // them), so it is allocated first: the token vector's free then
        // happens above it instead of leaving a hole beneath a pinned
        // string.
        let source: Arc<str> = slice.into();
        let tokens = self
            .spans
            .iter()
            .map(|t| {
                let text = t.text(slice);
                let kw = if t.kind == TokenKind::Ident { kw_lookup(text) } else { None };
                let kind = if kw.is_some() { TokenKind::Keyword } else { t.kind };
                let span = Span::new(base + t.span.start, base + t.span.end);
                Token { kind, text: text.into(), span, kw }
            })
            .collect();
        RawStatement { tokens, span: self.span, source }
    }
}

/// The sink of [`ShapeLex::lex`]: span tokens and the shape hash.
struct ShapeSink<'a> {
    bytes: &'a [u8],
    spans: &'a mut Vec<SpannedToken>,
    shape: ShapeHasher,
}

impl TokenSink for ShapeSink<'_> {
    const CLASSIFY_WORDS: bool = false;

    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        self.spans.push(SpannedToken { kind, span: Span::new(start, end) });
        self.shape.token(kind, &self.bytes[start..end]);
    }
}

/// Spans-only statement boundary sink — the cheapest possible split pass,
/// used by [`split_deduped`]'s byte-level grouping. Statement spans
/// depend only on trivia-vs-significant classification and the block
/// tracker's terminator decisions, so keyword lookup is skipped entirely
/// and nothing is hashed (the tracker compares raw word bytes itself).
struct SpanOnlySink<'a> {
    bytes: &'a [u8],
    out: Vec<Span>,
    started: bool,
    start: usize,
    end: usize,
    tracker: BlockTracker,
}

impl SpanOnlySink<'_> {
    fn flush(&mut self) {
        if self.started {
            self.started = false;
            self.out.push(Span::new(self.start, self.end));
        }
    }

    /// Tracked token handling — out of line so the fast path in
    /// [`TokenSink::token`] stays small enough to inline at every lexer
    /// emit site (the sink body is monomorphised into the lexer loop;
    /// bloating it regresses the whole scan).
    #[inline(never)]
    fn token_slow(&mut self, kind: TokenKind, start: usize, end: usize) {
        match self.tracker.offer(self.bytes, kind, start, end) {
            SplitAction::Token => {
                if !self.started {
                    self.started = true;
                    self.start = start;
                }
                self.end = end;
            }
            SplitAction::Terminator => self.flush(),
            SplitAction::Directive => {}
        }
    }
}

impl TokenSink for SpanOnlySink<'_> {
    const CLASSIFY_WORDS: bool = false;

    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        if matches!(kind, TokenKind::Whitespace | TokenKind::Comment) {
            return;
        }
        // Fast path (plain mid-statement state): only `;` matters, and
        // ordinary tokens need no tracker interaction at all.
        if self.tracker.is_fast() {
            if kind == TokenKind::Punct && end - start == 1 && self.bytes[start] == b';' {
                self.tracker.fast_terminator();
                self.flush();
            } else {
                if !self.started {
                    self.started = true;
                    self.start = start;
                }
                self.end = end;
            }
            return;
        }
        self.token_slow(kind, start, end);
    }
}

/// Speculative spans-only sink: the pre-tracker scan (every top-level
/// `;` terminates) plus a watch for the marker words that could make
/// block tracking matter ([`crate::block`]'s `may_need_tracking`). On a hit it
/// aborts (via [`TokenSink::done`]) and the caller re-scans with the
/// tracked [`SpanOnlySink`]. Plain workloads — the overwhelmingly common
/// case — thus pay **zero** per-token tracking cost.
struct SpeculativeSpanSink<'a> {
    bytes: &'a [u8],
    out: Vec<Span>,
    started: bool,
    start: usize,
    end: usize,
    needs_tracking: bool,
}

impl TokenSink for SpeculativeSpanSink<'_> {
    const CLASSIFY_WORDS: bool = false;

    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        if matches!(kind, TokenKind::Whitespace | TokenKind::Comment) {
            return;
        }
        if kind == TokenKind::Punct && end - start == 1 && self.bytes[start] == b';' {
            if self.started {
                self.started = false;
                self.out.push(Span::new(self.start, self.end));
            }
            return;
        }
        if kind == TokenKind::Ident && crate::block::may_need_tracking(&self.bytes[start..end])
        {
            self.needs_tracking = true;
            return;
        }
        if !self.started {
            self.started = true;
            self.start = start;
        }
        self.end = end;
    }

    #[inline]
    fn done(&self) -> bool {
        self.needs_tracking
    }
}

/// Spans-only split of the script, plus whether a `DELIMITER` directive
/// was processed.
pub(crate) fn split_spans(script: &str, dialect: Dialect) -> (Vec<Span>, bool) {
    // First pass: untracked, aborting on the first word that could make
    // block tracking matter. Completing it means no DELIMITER word
    // exists in the script at all.
    let mut fast = SpeculativeSpanSink {
        bytes: script.as_bytes(),
        out: Vec::new(),
        started: false,
        start: 0,
        end: 0,
        needs_tracking: false,
    };
    lex_into(script, dialect, &mut fast);
    if !fast.needs_tracking {
        if fast.started {
            fast.out.push(Span::new(fast.start, fast.end));
        }
        return (fast.out, false);
    }
    // Trigger/procedure/function/DELIMITER/ATOMIC vocabulary present:
    // re-scan with the full block tracker.
    let mut sink = SpanOnlySink {
        bytes: script.as_bytes(),
        out: Vec::new(),
        started: false,
        start: 0,
        end: 0,
        tracker: BlockTracker::with_dialect(dialect),
    };
    lex_into(script, dialect, &mut sink);
    if sink.started {
        sink.out.push(Span::new(sink.start, sink.end));
    }
    let saw_directive = sink.tracker.saw_directive();
    (sink.out, saw_directive)
}

/// A script split and deduplicated in one step: every occurrence in
/// script order, referencing its unique statement text.
#[derive(Debug, Clone, Default)]
pub struct DedupedSplit {
    /// Unique statement texts, in first-occurrence order. Each carries
    /// the span of its **first** occurrence.
    pub uniques: Vec<SplitStatement>,
    /// One `(unique_index, span)` entry per statement occurrence, in
    /// script order.
    pub occurrences: Vec<(u32, Span)>,
    /// The script contains a `DELIMITER` directive: a property of the
    /// script bytes. The context builder reports it as the informational
    /// `delimiter-fallback-sequential` diagnostic (the name predates the
    /// single-threaded splitter and is kept for output stability), and
    /// `CheckSession` refuses to patch such scripts incrementally.
    pub saw_delimiter_directive: bool,
}

/// Fast non-cryptographic hasher for the dedup map's `&str` keys
/// (FxHash-style word-folding). Collisions only cost a key comparison —
/// the map's equality check is the exact statement bytes.
#[derive(Default)]
struct StrFold(u64);

impl Hasher for StrFold {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            h = (h.rotate_left(5) ^ w).wrapping_mul(K);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(K);
        }
        self.0 = h;
    }
    fn write_u8(&mut self, i: u8) {
        // `str`'s Hash impl appends a 0xFF length terminator.
        self.0 = (self.0.rotate_left(5) ^ i as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, i: usize) {
        self.0 = (self.0.rotate_left(5) ^ i as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Split the script and group duplicate statement texts, hashing each
/// **unique** text's bytes exactly once.
///
/// Duplicate detection needs no content hash at all: two statements are
/// duplicates iff their trimmed source bytes are equal (equal bytes lex
/// to equal tokens, hence equal hashes). So the pass is one spans-only
/// boundary scan (no hashing, no keyword classification), the only lex
/// of the script here; each unique text then costs one
/// [`content_hash_bytes`] of its slice. Duplicates cost one map probe
/// (exact byte comparison on hit) and carry nothing but their span.
pub fn split_deduped(script: &str, dialect: Dialect) -> DedupedSplit {
    let (spans, saw_delimiter_directive) = split_spans(script, dialect);
    let mut uniques: Vec<SplitStatement> = Vec::new();
    let mut occurrences: Vec<(u32, Span)> = Vec::with_capacity(spans.len());
    let mut slots: HashMap<&str, u32, BuildHasherDefault<StrFold>> =
        HashMap::with_capacity_and_hasher(spans.len().min(1024), Default::default());
    for span in spans {
        let text = &script[span.start..span.end];
        let slot = match slots.entry(text) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let slot = uniques.len() as u32;
                v.insert(slot);
                let content_hash = content_hash_bytes(text.as_bytes());
                uniques.push(SplitStatement { span, content_hash });
                slot
            }
        };
        occurrences.push((slot, span));
    }
    DedupedSplit { uniques, occurrences, saw_delimiter_directive }
}

/// Compatibility shim over [`split_deduped`]; `threads` is ignored. Its
/// only caller is the out-of-workspace benchmark (`perfbench/src/cli.rs`,
/// line 233), which cannot change in the same commit as this crate.
#[doc(hidden)]
pub fn split_deduped_dialect(script: &str, _threads: usize, dialect: Dialect) -> DedupedSplit {
    split_deduped(script, dialect)
}

/// The **two-pass reference splitter**: lex the whole script into a
/// token buffer, slice it into statements, and hash each slice. The
/// production [`split_deduped`] must emit the same spans and content
/// hashes, and [`split`] the same tokens; property tests and the split
/// experiment compare them. Not used by any production path.
#[doc(hidden)]
pub mod reference {
    use crate::block::{BlockTracker, SplitAction};
    use crate::dialect::Dialect;
    use crate::hash::content_hash_bytes;
    use crate::lexer::{lex_spans, SpannedToken};
    use crate::splitter::RawStatement;
    use crate::token::Span;

    /// One split-off statement at the span level: its span-tokens
    /// (trivia trimmed at both ends, kept inside) and its content hash.
    #[derive(Debug, Clone)]
    pub struct SpannedStatement {
        /// Span-level tokens of the statement (no owned text).
        pub tokens: Vec<SpannedToken>,
        /// Span covering the statement in the original script.
        pub span: Span,
        /// Literal-sensitive 128-bit content hash
        /// ([`crate::hash::content_hash_bytes`] of the span's bytes).
        pub content_hash: u128,
    }

    impl SpannedStatement {
        /// Build the equivalent owned [`RawStatement`].
        pub fn materialize(&self, script: &str) -> RawStatement {
            RawStatement {
                tokens: self.tokens.iter().map(|t| t.materialize(script)).collect(),
                span: self.span,
                source: script[self.span.start..self.span.end].into(),
            }
        }
    }

    /// Split a script under `dialect` into span-level statements,
    /// computing each one's content hash on the way.
    pub fn split_spanned(script: &str, dialect: Dialect) -> Vec<SpannedStatement> {
        let tokens = lex_spans(script, dialect);
        let bytes = script.as_bytes();
        let mut tracker = BlockTracker::with_dialect(dialect);
        let mut stmts = Vec::new();
        let mut start = 0usize;
        for (i, tok) in tokens.iter().enumerate() {
            if tok.is_trivia() {
                continue;
            }
            match tracker.offer(bytes, tok.kind, tok.span.start, tok.span.end) {
                SplitAction::Token => {}
                SplitAction::Terminator | SplitAction::Directive => {
                    // Directive tokens (a `DELIMITER` line, or the trailing
                    // bytes of a multi-byte terminator) sit between
                    // statements, so the slice before them holds trivia at
                    // most and `push_spanned` drops it.
                    push_spanned(script, &mut stmts, &tokens[start..i]);
                    start = i + 1;
                }
            }
        }
        push_spanned(script, &mut stmts, &tokens[start..]);
        stmts
    }

    fn push_spanned(script: &str, out: &mut Vec<SpannedStatement>, tokens: &[SpannedToken]) {
        // Trim leading/trailing trivia but keep interior trivia for
        // lossless text.
        let Some(first) = tokens.iter().position(|t| !t.is_trivia()) else { return };
        let last = tokens.iter().rposition(|t| !t.is_trivia()).unwrap();
        let trimmed = &tokens[first..=last];
        let span = trimmed[0].span.merge(trimmed[trimmed.len() - 1].span);
        out.push(SpannedStatement {
            tokens: trimmed.to_vec(),
            span,
            content_hash: content_hash_bytes(&script.as_bytes()[span.start..span.end]),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitter::reference::split_spanned;

    const G: Dialect = Dialect::Generic;

    #[test]
    fn splits_on_semicolons() {
        let stmts = split("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t", G);
        assert_eq!(stmts.len(), 3);
        assert!(stmts[0].text().starts_with("CREATE"));
        assert!(stmts[2].text().starts_with("SELECT"));
    }

    #[test]
    fn semicolon_in_string_is_not_a_split() {
        let stmts = split("SELECT 'a;b' FROM t; SELECT 2", G);
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].text().contains("'a;b'"));
    }

    #[test]
    fn semicolon_in_comment_is_not_a_split() {
        let stmts = split("SELECT 1 -- one; two\n; SELECT 2", G);
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn empty_statements_dropped() {
        let stmts = split(";;  ; SELECT 1; ;", G);
        assert_eq!(stmts.len(), 1);
    }

    #[test]
    fn whole_script_without_semicolon() {
        let stmts = split("SELECT 1", G);
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].text(), "SELECT 1");
    }

    #[test]
    fn text_is_a_script_slice_not_a_token_concat() {
        let script = "SELECT a /* interior ; trivia */ , b FROM t ; UPDATE t SET a = 1";
        for s in split(script, G) {
            assert_eq!(s.text(), &script[s.span.start..s.span.end]);
            let concat: String = s.tokens.iter().map(|t| t.text.as_str()).collect();
            assert_eq!(s.text(), concat, "slice must equal the token concatenation");
        }
    }

    #[test]
    fn fingerprinted_chunks_match_post_parse_hashes() {
        // The pre-parse content hash must agree with the hash computed
        // from the parsed statement — consumers rely on that to skip
        // parsing.
        let script = "SELECT a FROM t WHERE a = 1;\
                      select a from t where a = 2;\
                      INSERT INTO t VALUES (1, 'x');";
        let chunks = split_deduped(script, G).uniques;
        assert_eq!(chunks.len(), 3);
        for c in &chunks {
            let raw = c.materialize(script, G);
            let limits = crate::diag::Limits::default();
            let parsed = crate::parser::parse_raw_limited(raw, &limits, G).0;
            assert_eq!(c.content_hash, parsed.content_hash());
        }
        // Literal-only variants do not share a content hash.
        assert_ne!(chunks[0].content_hash, chunks[1].content_hash);
    }

    #[test]
    fn spans_index_into_original() {
        let script = "SELECT a FROM t;  UPDATE t SET a = 1";
        let stmts = split(script, G);
        assert_eq!(&script[stmts[1].span.start..stmts[1].span.end], "UPDATE t SET a = 1");
    }

    /// Scripts stressing every construct that can hide a `;` or end a
    /// statement early.
    fn nasty_scripts() -> Vec<&'static str> {
        vec![
            "SELECT 'a;b'; SELECT 2; -- tail ; comment\nSELECT 3",
            "SELECT 1 /* c1 ; /* nested ; */ still */; SELECT ';';;",
            "$tag$body; with ; semis$tag$; SELECT [br;acket] FROM t;",
            "SELECT $$;$$ , \";\" ; UPDATE \"u;u\" SET `a;a` = 1",
            "INSERT INTO t VALUES (%(na;me)s, :p1, $1, ?);",
            "SELECT 'unterminated ; string",
            "$unterminated$ ; ; ;",
            "  ; ;\t;\n ;",
            "",
            "SELECT a \";\" ; SELECT 1e; SELECT 1.5e+3;",
            "SELECT * FROM t WHERE c LIKE '%;%' ESCAPE '\\'; DELETE FROM t",
            // Compound statements: body semicolons are not terminators.
            "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW \
             BEGIN UPDATE u SET a = 1; DELETE FROM v; END; SELECT 1;",
            "CREATE PROCEDURE p() BEGIN IF a THEN SELECT 1; END IF; \
             SELECT CASE WHEN b THEN 'x;y' ELSE 2 END; END; SELECT 2;",
            // Decoys that must NOT open a block.
            "BEGIN; SELECT 1; COMMIT; BEGIN TRANSACTION; SELECT 2;",
            "CREATE TABLE t (begin INT, end INT); SELECT end FROM t;",
            "SELECT CASE WHEN a = 1 THEN 'x;y' ELSE b END FROM t; SELECT 2;",
            // Tolerant degradation: orphan END, unterminated BEGIN.
            "END; SELECT 1; END IF;",
            "CREATE TRIGGER t1 BEFORE UPDATE ON x FOR EACH ROW BEGIN SELECT 1;",
            // DELIMITER directives (mysqldump style).
            "DELIMITER ;;\nCREATE TRIGGER tr BEFORE INSERT ON t FOR EACH ROW \
             BEGIN SET @a = 1; END ;;\nDELIMITER ;\nSELECT 1;",
            "DELIMITER //\nSELECT 1; SELECT 2 //\nDELIMITER ;\nSELECT 3;",
            "DELIMITER GO\nSELECT agony FROM t GO\nDELIMITER ;\nSELECT 1;",
            "DELIMITER ;;",
        ]
    }

    #[test]
    fn fused_split_matches_legacy_reference() {
        for script in nasty_scripts() {
            let d = split_deduped(script, G);
            let raws = split(script, G);
            let legacy = split_spanned(script, G);
            assert_eq!(d.occurrences.len(), legacy.len(), "statement count on {script:?}");
            assert_eq!(raws.len(), legacy.len(), "split count on {script:?}");
            for (((slot, span), raw), l) in d.occurrences.iter().zip(&raws).zip(&legacy) {
                let u = &d.uniques[*slot as usize];
                assert_eq!(*span, l.span, "span on {script:?}");
                assert_eq!(u.content_hash, l.content_hash, "content hash on {script:?}");
                // Re-lex materialisation must reproduce the legacy tokens
                // exactly (kinds, texts, script-absolute spans).
                let lm = l.materialize(script);
                assert_eq!(raw.tokens, lm.tokens, "tokens on {script:?}");
                assert_eq!(raw.span, lm.span);
            }
        }
    }

    #[test]
    fn deduped_split_reconstructs_the_statement_sequence() {
        let script = "SELECT 1; SELECT 2; SELECT 1; SELECT 1; SELECT 2;";
        let d = split_deduped(script, G);
        assert_eq!(d.uniques.len(), 2);
        assert_eq!(d.occurrences.len(), 5);
        let full = split_spanned(script, G);
        for ((slot, span), s) in d.occurrences.iter().zip(&full) {
            assert_eq!(*span, s.span, "occurrence keeps its own span");
            assert_eq!(d.uniques[*slot as usize].content_hash, s.content_hash);
        }
        // Uniques carry their first occurrence's span.
        assert_eq!(d.uniques[0].span, full[0].span);
        assert_eq!(d.uniques[1].span, full[1].span);
    }

    #[test]
    fn trigger_body_survives_splitting() {
        // The ISSUE 5 repro: the trigger is ONE statement, the trailing
        // SELECT another — the body semicolons must not split.
        let script = "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW \
                      BEGIN UPDATE u SET a = 1; DELETE FROM v; END; SELECT 1;";
        let stmts = split(script, G);
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        assert!(stmts[0].text().starts_with("CREATE TRIGGER"));
        assert!(stmts[0].text().ends_with("END"));
        assert_eq!(stmts[1].text(), "SELECT 1");
    }

    #[test]
    fn delimiter_directive_is_honoured_and_excluded() {
        let script = "DELIMITER ;;\n\
                      CREATE TRIGGER tr BEFORE INSERT ON t FOR EACH ROW\n\
                      BEGIN\n  SET @c = @c + 1;\nEND ;;\n\
                      DELIMITER ;\n\
                      SELECT 1;";
        let stmts = split(script, G);
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        assert!(stmts[0].text().starts_with("CREATE TRIGGER"));
        assert!(!stmts[0].text().contains("DELIMITER"));
        assert_eq!(stmts[1].text(), "SELECT 1");
    }

    #[test]
    fn custom_delimiter_makes_bare_semicolons_ordinary_text() {
        let script = "DELIMITER //\nSELECT 1; SELECT 2 //\nSELECT 3 //";
        let stmts = split(script, G);
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        assert_eq!(stmts[0].text(), "SELECT 1; SELECT 2");
        assert_eq!(stmts[1].text(), "SELECT 3");
    }

    #[test]
    fn orphan_end_and_unterminated_begin_degrade_tolerantly() {
        // A bare END is its own one-word statement; trailing statements
        // survive.
        let stmts = split("END; SELECT 1;", G);
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].text(), "END");
        assert_eq!(stmts[1].text(), "SELECT 1");
        // An unterminated BEGIN runs to EOF as one tolerant statement —
        // nothing panics, nothing is dropped.
        let stmts = split("CREATE TRIGGER t1 BEFORE UPDATE ON x FOR EACH ROW BEGIN SELECT 1;", G);
        assert_eq!(stmts.len(), 1);
        assert!(stmts[0].text().ends_with("SELECT 1;"));
    }

    #[test]
    fn transaction_begin_and_case_end_are_not_blocks() {
        assert_eq!(split("BEGIN; SELECT 1; COMMIT;", G).len(), 3);
        assert_eq!(split("BEGIN TRANSACTION; SELECT 1;", G).len(), 2);
        assert_eq!(split("SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t; SELECT 2;", G).len(), 2);
        assert_eq!(split("CREATE TABLE t (begin INT, end INT); SELECT 1;", G).len(), 2);
    }

    /// Occurrence spans of the deduping boundary scan, in script order.
    fn deduped_spans(script: &str) -> Vec<Span> {
        split_deduped(script, G).occurrences.iter().map(|&(_, s)| s).collect()
    }

    fn reference_spans(script: &str) -> Vec<Span> {
        split_spanned(script, G).iter().map(|s| s.span).collect()
    }

    #[test]
    fn boundary_prescan_never_splits_inside_trigger_bodies() {
        // Many compound statements: the speculative spans-only scan must
        // hand over to the tracked one and agree with the reference split.
        let mut big = String::new();
        for i in 0..120 {
            big.push_str(&format!(
                "CREATE TRIGGER trg{i} AFTER INSERT ON t{i} FOR EACH ROW \
                 BEGIN UPDATE u SET a = {i}; DELETE FROM v WHERE x = {i}; END;\n"
            ));
            big.push_str(&format!("SELECT {i} FROM filler;\n"));
        }
        let sequential = reference_spans(&big);
        assert_eq!(sequential.len(), 240);
        assert_eq!(deduped_spans(&big), sequential);
    }

    #[test]
    fn delimiter_scripts_fall_back_to_sequential_chunking() {
        // A `DELIMITER` script is flagged (the flag feeds the
        // `delimiter-fallback-sequential` diagnostic) and the boundary
        // scan honours the custom terminator.
        let mut big = String::from("DELIMITER ;;\n");
        for i in 0..100 {
            big.push_str(&format!("SELECT {i}; SELECT {i} ;;\n"));
        }
        big.push_str("DELIMITER ;\nSELECT 1;");
        let sequential = reference_spans(&big);
        assert_eq!(sequential.len(), 101);
        assert_eq!(deduped_spans(&big), sequential);
        assert!(split_deduped(&big, Dialect::Generic).saw_delimiter_directive);
        assert!(!split_deduped("SELECT 1; SELECT 2;", Dialect::Generic).saw_delimiter_directive);
    }

    /// Development probe, not a test: the two lexes of the front door —
    /// the whole-script boundary scan ([`split_deduped`]) against the
    /// intake lex of every unique text, the shape lex a new text costs
    /// before it shares a tree or is parsed. Run with
    /// `cargo test -q -p sqlcheck-parser --release -- --ignored
    /// profile_front_layers --nocapture`.
    #[test]
    #[ignore]
    fn profile_front_layers() {
        use std::time::Instant;

        fn time<F: FnMut() -> u64>(label: &str, bytes: usize, mut f: F) {
            let mut best = u128::MAX;
            let mut acc = 0u64;
            for _ in 0..7 {
                let t = Instant::now();
                acc ^= f();
                best = best.min(t.elapsed().as_nanos());
            }
            let mbs = bytes as f64 / (best as f64 / 1e9) / 1e6;
            println!(
                "{label:28} {:>9.1} us  {mbs:>8.1} MB/s  (acc {acc:x})",
                best as f64 / 1e3
            );
        }

        let mut script = String::new();
        let mut x = 0x5117u64;
        for i in 0..100_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match i % 4 {
                0 => script.push_str(&format!(
                    "SELECT id, name, created_at FROM users WHERE tenant_id = {} AND active = TRUE;\n",
                    x % 10_000
                )),
                1 => script.push_str(&format!(
                    "INSERT INTO events (user_id, kind, payload) VALUES ({}, 'click', 'x{}');\n",
                    x % 9999,
                    x % 777
                )),
                2 => script.push_str(&format!(
                    "UPDATE sessions SET last_seen = '2026-01-01', hits = hits + 1 WHERE sid = '{x:x}';\n"
                )),
                _ => script.push_str(&format!("DELETE FROM audit WHERE ts < {};\n", x % 50_000)),
            }
        }
        let bytes = script.len();
        let split = split_deduped(&script, G);
        println!("script: {bytes} bytes, {} unique texts", split.uniques.len());
        time("boundary scan + dedup", bytes, || split_deduped(&script, G).uniques.len() as u64);
        let mut lex = ShapeLex::default();
        time("intake shape lex", bytes, || {
            split.uniques.iter().fold(0, |acc, u| acc ^ lex.lex(&script, u.span, G) as u64)
        });
    }

    #[test]
    fn boundary_prescan_never_splits_inside_tokens() {
        // `;` inside strings, comments and dollar quotes: the spans-only
        // scan must end statements exactly where the reference split does.
        let script = "SELECT '; ; ; ; ; ; ; ;'; /* ;;;;;;;; */ SELECT $t$;;;;;;;;$t$; SELECT 2;";
        assert_eq!(deduped_spans(script), reference_spans(script));
        assert_eq!(reference_spans(script).len(), 3);
    }
}

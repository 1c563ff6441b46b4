//! Compound-statement tracking for the statement splitter.
//!
//! Real schema dumps contain trigger/procedure DDL whose `BEGIN … END`
//! bodies hold whole statements — the inner semicolons terminate *body*
//! statements, not the DDL statement itself. [`BlockTracker`] is the
//! shared state machine that every split path (the spans-only dedup
//! scan and the two-pass reference) consults per
//! significant token so all of them agree, byte for byte, on where
//! statements end.
//!
//! The tracker answers three questions:
//!
//! 1. **Is this `;` a statement terminator?** Only at block depth 0.
//!    Block depth is raised by `BEGIN` when (and only when) the statement
//!    header identifies a routine (`CREATE [OR REPLACE] [DEFINER=…]
//!    TRIGGER|PROCEDURE|FUNCTION`), or when already inside a block
//!    (nested `BEGIN`). Transaction control (`BEGIN;`,
//!    `BEGIN TRANSACTION;`) therefore never opens a block. `END` closes a
//!    block — unless it closes a `CASE` expression (tracked separately)
//!    or reads `END IF` / `END LOOP` / `END WHILE` / `END REPEAT` /
//!    `END CASE`, which close constructs the tracker deliberately does
//!    not count (their interiors are already protected by the enclosing
//!    block). The `END` decision needs one token of lookahead, so it is
//!    *deferred* until the next significant token arrives.
//! 2. **Is this token a script-level directive?** MySQL dump `DELIMITER`
//!    lines change the statement terminator for the rest of the script.
//!    The directive line itself belongs to no statement, and while a
//!    custom delimiter is active a bare `;` is ordinary statement text.
//! 3. **Is this token part of a multi-byte terminator?** A custom
//!    delimiter like `;;` or `//` spans several tokens; the bytes after
//!    the first are skipped.
//!
//! Degradation is always tolerant: an orphan `END;` at top level is an
//! ordinary one-word statement, and an unterminated `BEGIN` runs to
//! end-of-input as a single statement (the splitter's EOF flush emits
//! it) — nothing panics and nothing is dropped.
//!
//! The tracker is dialect-aware ([`BlockTracker::with_dialect`]):
//! `DELIMITER` directives are honoured only where the dialect allows them
//! (Generic, MySQL) — under Postgres the word is an ordinary identifier,
//! so PL/pgSQL scripts record no directive — and a
//! statement-initial `BEGIN ATOMIC` (SQL standard, Postgres 14+ SQL-body
//! routines) opens a block under Generic/Postgres via one token of
//! lookahead, exactly like the deferred-`END` decision. The old `$$`
//! custom-delimiter vs dollar-quoting collision is resolved one layer
//! down: with dollar-quoting disabled (MySQL/SQLite) the lexer emits
//! `$$` as an ordinary word, which the delimiter match here then sees.

use crate::dialect::Dialect;
use crate::scan::memchr;
use crate::token::TokenKind;

/// What a significant token means for statement splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SplitAction {
    /// Ordinary statement content (including `;` inside an open block or
    /// under a custom delimiter).
    Token,
    /// Ends the current statement; the token (and, for multi-byte custom
    /// delimiters, the following delimiter bytes) belongs to no statement.
    Terminator,
    /// Script-level directive content (a `DELIMITER` line) or trailing
    /// bytes of a multi-byte terminator — part of no statement.
    Directive,
}

/// Statement-header classification, used to tell block `BEGIN` (routine
/// DDL) from transaction-control `BEGIN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Header {
    /// Not a routine header: `BEGIN` does not open a block at depth 0.
    Plain,
    /// Saw leading `CREATE`; awaiting the object-kind word.
    Create,
    /// `CREATE … TRIGGER|PROCEDURE|FUNCTION`: the next `BEGIN` opens the
    /// routine body block.
    Routine,
}

/// Per-script splitter state machine. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct BlockTracker {
    /// `BEGIN … END` nesting depth.
    depth: u32,
    /// `CASE … END` nesting depth (only tracked inside blocks, where a
    /// bare `END` is otherwise ambiguous).
    case_depth: u32,
    /// An `END` was seen and awaits its lookahead token (`END IF` vs
    /// block/CASE `END`).
    pending_end: bool,
    /// A statement-initial `BEGIN` was seen and awaits its lookahead
    /// token: `ATOMIC` opens a block (SQL-standard compound statement),
    /// anything else is transaction control. Only set when the dialect
    /// has [`Dialect::begin_atomic`].
    pending_begin: bool,
    /// Header state of the current statement.
    header: Header,
    /// No significant token of the current statement has been seen yet.
    at_stmt_start: bool,
    /// Custom statement delimiter (`DELIMITER` directive); `None` means
    /// the default `;`.
    delimiter: Option<Box<[u8]>>,
    /// Offsets below this belong to a directive line or to the
    /// trailing bytes of a multi-byte terminator.
    skip_until: usize,
    /// A `DELIMITER` directive was seen (reported as the
    /// `delimiter-fallback-sequential` diagnostic; `CheckSession` will not
    /// patch such scripts incrementally).
    saw_directive: bool,
    /// Single-branch fast-path flag, kept in sync with the rest of the
    /// state: true exactly when `;` is the terminator and no word can
    /// change the split state (mid-statement, plain header, depth 0, no
    /// deferred `END`). Plain workloads run almost entirely in this
    /// state, so the per-token cost is one boolean branch plus the `;`
    /// check — measured ~free next to the pre-tracker splitter.
    fast: bool,
    /// Active dialect: gates `DELIMITER` directives and `BEGIN ATOMIC`.
    dialect: Dialect,
}

impl Default for BlockTracker {
    fn default() -> Self {
        Self::new()
    }
}

/// Case-insensitive whole-word comparison (`up` must be uppercase ASCII).
#[inline]
fn is_word(w: &[u8], up: &[u8]) -> bool {
    w.len() == up.len() && w.eq_ignore_ascii_case(up)
}

/// Does this word make block tracking *necessary*? The tracker diverges
/// from naive top-level-`;` splitting only when a block is opened (which
/// requires a `CREATE … TRIGGER|PROCEDURE|FUNCTION` header or a
/// statement-initial `BEGIN ATOMIC` — `BEGIN`, `CASE`, and `END` alone
/// are all no-ops at depth 0) or a `DELIMITER` directive changes the
/// terminator. A script containing none of these five marker words (as
/// word tokens; quoted identifiers and string literals never reach the
/// tracker as words) therefore splits **identically** with and without
/// the tracker, so scanners may run a speculative untracked pass and
/// only re-scan tracked when this fires. The set is deliberately
/// dialect-independent: a false positive only costs a re-scan.
#[inline]
pub(crate) fn may_need_tracking(w: &[u8]) -> bool {
    /// True for the first bytes of the five marker words, both cases —
    /// one table load rejects the vast majority of words.
    const MARKER_START: [bool; 256] = {
        let mut t = [false; 256];
        let s = b"tpfdaTPFDA";
        let mut i = 0;
        while i < s.len() {
            t[s[i] as usize] = true;
            i += 1;
        }
        t
    };
    MARKER_START[w[0] as usize]
        && matches!(w.len(), 6..=9)
        && (is_word(w, b"TRIGGER")
            || is_word(w, b"PROCEDURE")
            || is_word(w, b"FUNCTION")
            || is_word(w, b"DELIMITER")
            || is_word(w, b"ATOMIC"))
}

/// Does the active custom delimiter match at `start`? Word-shaped
/// delimiters additionally require a word boundary after the match so a
/// delimiter like `GO` does not fire inside `GONE`.
fn delimiter_matches(bytes: &[u8], start: usize, d: &[u8]) -> bool {
    let end = start + d.len();
    if end > bytes.len() || !bytes[start..end].eq_ignore_ascii_case(d) {
        return false;
    }
    let last = d[d.len() - 1];
    if last.is_ascii_alphanumeric() || last == b'_' {
        if let Some(&next) = bytes.get(end) {
            if next.is_ascii_alphanumeric() || next == b'_' {
                return false;
            }
        }
    }
    true
}

impl BlockTracker {
    /// Fresh tracker under [`Dialect::Generic`]: default `;` delimiter,
    /// top level, statement start.
    pub(crate) fn new() -> Self {
        Self::with_dialect(Dialect::Generic)
    }

    /// Fresh tracker under an explicit dialect.
    pub(crate) fn with_dialect(dialect: Dialect) -> Self {
        BlockTracker {
            depth: 0,
            case_depth: 0,
            pending_end: false,
            pending_begin: false,
            header: Header::Plain,
            at_stmt_start: true,
            delimiter: None,
            skip_until: 0,
            saw_directive: false,
            fast: false,
            dialect,
        }
    }

    /// Recompute the fast-path flag after any state mutation.
    #[inline]
    fn sync_fast(&mut self) {
        self.fast = self.delimiter.is_none()
            && self.header == Header::Plain
            && self.depth == 0
            && !self.pending_end
            && !self.pending_begin
            && !self.at_stmt_start;
    }

    /// Whether a `DELIMITER` directive has been seen so far.
    pub(crate) fn saw_directive(&self) -> bool {
        self.saw_directive
    }

    /// Fast-path probe for the sinks' hot loops: when true, `;` is the
    /// statement terminator and **no other token can change the split
    /// state**, so the caller may handle the token without calling
    /// [`BlockTracker::offer`] at all — a plain token updates nothing,
    /// and a `;` must be reported via [`BlockTracker::fast_terminator`].
    /// Measured: routing every token through `offer` (even with the same
    /// internal fast check) costs ~15% on the spans-only dedup scan; this
    /// probe makes the tracker ~free on plain workloads.
    #[inline]
    pub(crate) fn is_fast(&self) -> bool {
        self.fast
    }

    /// Record a `;` terminator observed on the fast path (caller checked
    /// [`BlockTracker::is_fast`]): resets per-statement state.
    #[inline]
    pub(crate) fn fast_terminator(&mut self) {
        debug_assert!(self.fast);
        self.reset_statement_state();
    }

    /// Feed one significant token (`bytes` is the script being lexed;
    /// `start..end` the token's range within it) and learn what it means
    /// for statement splitting. Trivia must not be offered.
    #[inline]
    pub(crate) fn offer(
        &mut self,
        bytes: &[u8],
        kind: TokenKind,
        start: usize,
        end: usize,
    ) -> SplitAction {
        // Fast path: mid-statement at top level, default delimiter, in a
        // non-routine header — no word can change the split state (BEGIN
        // needs a routine header, CASE/END need an open block), so plain
        // workloads pay one branch plus the `;` check per token.
        if self.fast {
            if kind == TokenKind::Punct && end - start == 1 && bytes[start] == b';' {
                self.reset_statement_state();
                return SplitAction::Terminator;
            }
            return SplitAction::Token;
        }
        self.offer_slow(bytes, kind, start, end)
    }

    /// Kept out of line so the two-branch fast path above stays small
    /// enough to inline into every sink's token loop — inlining this
    /// body into `offer` was measured to push the whole function out of
    /// the callers' inlining budget and cost ~15% on the spans-only
    /// dedup scan.
    #[inline(never)]
    fn offer_slow(
        &mut self,
        bytes: &[u8],
        kind: TokenKind,
        start: usize,
        end: usize,
    ) -> SplitAction {
        if start < self.skip_until {
            return SplitAction::Directive;
        }
        if let Some(d) = &self.delimiter {
            if delimiter_matches(bytes, start, d) {
                // The custom delimiter terminates at *any* depth — the
                // mysql client splits without understanding blocks, and
                // matching it keeps unbalanced bodies from swallowing the
                // rest of the script. State resets tolerantly.
                self.skip_until = start + d.len();
                self.reset_statement_state();
                return SplitAction::Terminator;
            }
        } else if kind == TokenKind::Punct && end - start == 1 && bytes[start] == b';' {
            // `BEGIN;` — the lookahead token is the terminator itself, so
            // this was transaction control, not a compound statement.
            self.pending_begin = false;
            self.resolve_pending_bare();
            if self.depth == 0 {
                self.reset_statement_state();
                return SplitAction::Terminator;
            }
            return SplitAction::Token;
        }
        self.classify(bytes, kind, start, end)
    }

    /// Slow path: header scanning, `BEGIN`/`CASE`/`END` accounting, and
    /// `DELIMITER` directive recognition.
    fn classify(
        &mut self,
        bytes: &[u8],
        kind: TokenKind,
        start: usize,
        end: usize,
    ) -> SplitAction {
        let action = self.classify_inner(bytes, kind, start, end);
        self.sync_fast();
        action
    }

    fn classify_inner(
        &mut self,
        bytes: &[u8],
        kind: TokenKind,
        start: usize,
        end: usize,
    ) -> SplitAction {
        let word: Option<&[u8]> = if matches!(kind, TokenKind::Keyword | TokenKind::Ident) {
            // Quoted identifiers never participate: `"END"` is a name.
            Some(&bytes[start..end])
        } else {
            None
        };

        if self.pending_begin {
            // Statement-initial `BEGIN …` lookahead: `ATOMIC` opens the
            // SQL-standard compound block; anything else (TRANSACTION,
            // WORK, a bare `BEGIN`) is transaction control.
            self.pending_begin = false;
            if let Some(w) = word {
                if is_word(w, b"ATOMIC") {
                    self.depth += 1;
                    return SplitAction::Token;
                }
            }
        }

        if self.pending_end {
            self.pending_end = false;
            if let Some(w) = word {
                if is_word(w, b"IF")
                    || is_word(w, b"LOOP")
                    || is_word(w, b"WHILE")
                    || is_word(w, b"REPEAT")
                {
                    // `END IF` & friends close constructs whose openings
                    // are not counted — no depth change either way.
                    return SplitAction::Token;
                }
                if is_word(w, b"CASE") {
                    self.case_depth = self.case_depth.saturating_sub(1);
                    return SplitAction::Token;
                }
            }
            // Bare END: closes the innermost CASE, else the block.
            if self.case_depth > 0 {
                self.case_depth -= 1;
            } else {
                self.depth = self.depth.saturating_sub(1);
            }
            // Fall through: the current token is processed normally.
        }

        let Some(w) = word else {
            self.at_stmt_start = false;
            return SplitAction::Token;
        };

        if self.at_stmt_start {
            self.at_stmt_start = false;
            if self.depth == 0
                && self.dialect.delimiter_directives()
                && is_word(w, b"DELIMITER")
            {
                return self.directive(bytes, end);
            }
            self.header = if is_word(w, b"CREATE") { Header::Create } else { Header::Plain };
            if self.dialect.begin_atomic() && is_word(w, b"BEGIN") {
                self.pending_begin = true;
            }
            return SplitAction::Token;
        }

        if self.header == Header::Create {
            if is_word(w, b"TRIGGER") || is_word(w, b"PROCEDURE") || is_word(w, b"FUNCTION") {
                self.header = Header::Routine;
            } else if is_word(w, b"TABLE")
                || is_word(w, b"INDEX")
                || is_word(w, b"VIEW")
                || is_word(w, b"SCHEMA")
                || is_word(w, b"DATABASE")
                || is_word(w, b"SEQUENCE")
            {
                // A known non-routine object kind: later BEGIN/END words
                // (e.g. columns named `begin`) are ordinary identifiers.
                self.header = Header::Plain;
            }
            // Anything else (OR, REPLACE, DEFINER=`u`@`h`, TEMPORARY,
            // IF NOT EXISTS, unknown object kinds) keeps scanning: the
            // object kind always precedes the body.
            return SplitAction::Token;
        }

        if is_word(w, b"BEGIN") {
            if self.depth > 0 || self.header == Header::Routine {
                self.depth += 1;
            }
        } else if is_word(w, b"CASE") {
            if self.depth > 0 {
                self.case_depth += 1;
            }
        } else if is_word(w, b"END") && (self.depth > 0 || self.case_depth > 0) {
            // Defer: `END IF` must not close the block. An END at depth 0
            // is an orphan and stays an ordinary word (tolerance).
            self.pending_end = true;
        }
        SplitAction::Token
    }

    /// Process a `DELIMITER` directive: the rest of the line names the
    /// new statement terminator and belongs to no statement.
    fn directive(&mut self, bytes: &[u8], word_end: usize) -> SplitAction {
        self.saw_directive = true;
        let line_end = match memchr(b'\n', &bytes[word_end..]) {
            Some(off) => word_end + off,
            None => bytes.len(),
        };
        let raw = bytes[word_end..line_end].trim_ascii();
        self.delimiter = if raw.is_empty() || raw == b";" { None } else { Some(raw.into()) };
        self.skip_until = line_end;
        self.at_stmt_start = true;
        SplitAction::Directive
    }

    /// Resolve a deferred `END` as a bare block/CASE close (called when
    /// the lookahead token is a terminator or end-of-input).
    fn resolve_pending_bare(&mut self) {
        if self.pending_end {
            self.pending_end = false;
            if self.case_depth > 0 {
                self.case_depth -= 1;
            } else {
                self.depth = self.depth.saturating_sub(1);
            }
            self.sync_fast();
        }
    }

    fn reset_statement_state(&mut self) {
        self.depth = 0;
        self.case_depth = 0;
        self.pending_end = false;
        self.pending_begin = false;
        self.header = Header::Plain;
        self.at_stmt_start = true;
        self.fast = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offer every significant token of `script` (lexed with keyword
    /// classification under `dialect`) and collect the actions.
    fn actions_dialect(script: &str, dialect: Dialect) -> Vec<(String, SplitAction)> {
        let mut tracker = BlockTracker::with_dialect(dialect);
        let bytes = script.as_bytes();
        crate::lexer::tokenize(script, dialect)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| {
                let a = tracker.offer(bytes, t.kind, t.span.start, t.span.end);
                (t.text.to_string(), a)
            })
            .collect()
    }

    fn actions(script: &str) -> Vec<(String, SplitAction)> {
        actions_dialect(script, Dialect::Generic)
    }

    fn terminator_count_dialect(script: &str, dialect: Dialect) -> usize {
        actions_dialect(script, dialect)
            .iter()
            .filter(|(_, a)| *a == SplitAction::Terminator)
            .count()
    }

    fn terminator_count(script: &str) -> usize {
        terminator_count_dialect(script, Dialect::Generic)
    }

    #[test]
    fn plain_semicolons_terminate() {
        assert_eq!(terminator_count("SELECT 1; SELECT 2;"), 2);
    }

    #[test]
    fn trigger_body_semicolons_do_not_terminate() {
        let s = "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW \
                 BEGIN UPDATE u SET a = 1; DELETE FROM v; END; SELECT 1;";
        assert_eq!(terminator_count(s), 2);
    }

    #[test]
    fn transaction_begin_is_not_a_block() {
        assert_eq!(terminator_count("BEGIN; SELECT 1; COMMIT;"), 3);
        assert_eq!(terminator_count("BEGIN TRANSACTION; SELECT 1;"), 2);
    }

    #[test]
    fn case_end_does_not_close_the_block() {
        let s = "CREATE PROCEDURE p() BEGIN \
                 SELECT CASE WHEN a THEN 1 ELSE 2 END; \
                 SELECT CASE x WHEN 1 THEN 2 END CASE; \
                 IF a THEN SELECT 3; END IF; \
                 WHILE b DO SELECT 4; END WHILE; \
                 END; SELECT 99;";
        assert_eq!(terminator_count(s), 2);
    }

    #[test]
    fn create_table_with_begin_end_columns_is_plain() {
        assert_eq!(terminator_count("CREATE TABLE t (begin INT, end INT); SELECT 1;"), 2);
    }

    #[test]
    fn orphan_end_is_tolerated() {
        assert_eq!(terminator_count("END; SELECT 1;"), 2);
    }

    #[test]
    fn delimiter_directive_switches_terminator() {
        let s = "DELIMITER ;;\nSELECT 1; SELECT 2;;\nDELIMITER ;\nSELECT 3;";
        // One `;;` terminator, one default `;` after the reset.
        assert_eq!(terminator_count(s), 2);
    }

    #[test]
    fn word_delimiter_requires_boundary() {
        let s = "DELIMITER GO\nSELECT agony FROM t GO\n";
        let acts = actions(s);
        let term: Vec<&str> =
            acts.iter().filter(|(_, a)| *a == SplitAction::Terminator).map(|(t, _)| t.as_str()).collect();
        assert_eq!(term, vec!["GO"]);
    }

    #[test]
    fn begin_atomic_opens_a_block() {
        let s = "BEGIN ATOMIC UPDATE t SET a = 1; DELETE FROM u; END; SELECT 1;";
        for d in [Dialect::Generic, Dialect::Postgres] {
            assert_eq!(terminator_count_dialect(s, d), 2, "{d:?}");
        }
        // Transaction control is unaffected, ATOMIC or not.
        assert_eq!(terminator_count("BEGIN; SELECT atomic FROM t; COMMIT;"), 3);
        // Dialects without BEGIN ATOMIC split on every `;`.
        assert_eq!(terminator_count_dialect(s, Dialect::MySql), 4);
        assert_eq!(terminator_count_dialect(s, Dialect::Sqlite), 4);
    }

    #[test]
    fn delimiter_is_a_plain_word_under_postgres() {
        let s = "DELIMITER ;;\nSELECT 1; SELECT 2;;\n";
        // MySQL/Generic honour the directive: one `;;` terminator.
        assert_eq!(terminator_count_dialect(s, Dialect::MySql), 1);
        assert_eq!(terminator_count(s), 1);
        // Postgres treats DELIMITER as an identifier: every `;` terminates
        // (the `;;` pairs yield empty statements the splitter drops), and
        // no directive is recorded.
        let acts = actions_dialect(s, Dialect::Postgres);
        assert_eq!(
            acts.iter().filter(|(_, a)| *a == SplitAction::Terminator).count(),
            5
        );
        let mut tracker = BlockTracker::with_dialect(Dialect::Postgres);
        for t in crate::lexer::tokenize(s, Dialect::Postgres) {
            if !t.is_trivia() {
                tracker.offer(s.as_bytes(), t.kind, t.span.start, t.span.end);
            }
        }
        assert!(!tracker.saw_directive());
    }

    #[test]
    fn mysql_dollar_delimiter_works_without_quoting_collision() {
        let s = "DELIMITER $$\nCREATE PROCEDURE p() BEGIN SELECT 1; END$$\nSELECT 2$$\n";
        let acts = actions_dialect(s, Dialect::MySql);
        let term: Vec<&str> = acts
            .iter()
            .filter(|(_, a)| *a == SplitAction::Terminator)
            .map(|(t, _)| t.as_str())
            .collect();
        assert_eq!(term, vec!["$$", "$$"]);
    }

    #[test]
    fn atomic_is_a_tracking_marker() {
        assert!(may_need_tracking(b"ATOMIC"));
        assert!(may_need_tracking(b"atomic"));
        assert!(!may_need_tracking(b"ATOM"));
        assert!(!may_need_tracking(b"BEGIN"));
    }

    #[test]
    fn definer_clause_still_finds_trigger() {
        let s = "CREATE DEFINER = root@localhost TRIGGER trg BEFORE UPDATE ON t \
                 FOR EACH ROW BEGIN SET a = 1; END; SELECT 1;";
        assert_eq!(terminator_count(s), 2);
    }
}

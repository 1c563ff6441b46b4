//! Dialect-tolerant SQL tokenizer.
//!
//! The lexer never fails: any byte sequence it cannot classify becomes an
//! [`TokenKind::Unknown`] token. It is also lossless — whitespace and
//! comments are emitted as tokens — so the original statement can always be
//! reconstructed exactly. Both properties mirror the contract of the
//! `sqlparse` library the paper builds on.
//!
//! The lexer is a *push* machine: it drives a `TokenSink` one token at a
//! time and materialises nothing itself. [`lex_spans`] collects the stream
//! into a `Vec` for callers that want it, but the splitter's front door
//! ([`crate::splitter::split_deduped`]) consumes tokens directly — the
//! statement boundary scan keeps no whole-script token buffer and skips
//! keyword classification. A script's pipeline lexes each byte once for
//! that scan, and each new unique text once more at intake
//! ([`crate::splitter::ShapeLex`]), into span tokens and a shape hash
//! that the owned tokens of a parse are built from. The byte loop
//! dispatches through the `scan` module's class table and crosses long runs
//! (comments, string bodies, whitespace, words) with `memchr`-style skip
//! loops.

use crate::dialect::Dialect;
use crate::scan::{self, Class, F_DIGIT, F_WORD, F_WS};
use crate::token::{is_keyword, Span, Token, TokenKind};

/// Receiver of the lexer's token stream. Tokens arrive in source order as
/// `(kind, start, end)` byte ranges over the lexed slice; the sink slices
/// the source itself if it needs text.
pub(crate) trait TokenSink {
    /// When `false`, the lexer may skip keyword classification and emit
    /// every word token as [`TokenKind::Ident`] — for sinks that only
    /// care about token *boundaries* (e.g. the spans-only dedup scan).
    const CLASSIFY_WORDS: bool = true;

    /// One token.
    fn token(&mut self, kind: TokenKind, start: usize, end: usize);

    /// Early-exit check, polled once per token. The default never stops.
    #[inline]
    fn done(&self) -> bool {
        false
    }
}

/// Lex `input` under `dialect`, pushing every token into `sink`.
pub(crate) fn lex_into<S: TokenSink>(input: &str, dialect: Dialect, sink: &mut S) {
    Lexer { src: input, bytes: input.as_bytes(), pos: 0, dialect, sink }.run();
}

/// Sink collecting the full span-level stream.
struct SpanSink {
    out: Vec<SpannedToken>,
}

impl TokenSink for SpanSink {
    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        self.out.push(SpannedToken { kind, span: Span::new(start, end) });
    }
}

/// Tokenize `input` into a lossless token stream.
///
/// ```
/// use sqlcheck_parser::lexer::tokenize;
/// use sqlcheck_parser::token::TokenKind;
/// use sqlcheck_parser::Dialect;
/// let toks = tokenize("SELECT * FROM t WHERE a = 'x'", Dialect::Generic);
/// assert_eq!(toks[0].kind, TokenKind::Keyword);
/// let rebuilt: String = toks.iter().map(|t| t.text.as_str()).collect();
/// assert_eq!(rebuilt, "SELECT * FROM t WHERE a = 'x'");
/// ```
pub fn tokenize(input: &str, dialect: Dialect) -> Vec<Token> {
    lex_spans(input, dialect)
        .into_iter()
        .map(|t| Token::new(t.kind, &input[t.span.start..t.span.end], t.span))
        .collect()
}

/// Sink that materialises significant tokens only — trivia is filtered at
/// the span level, before any text is allocated.
struct SignificantSink<'a> {
    src: &'a str,
    out: Vec<Token>,
}

impl TokenSink for SignificantSink<'_> {
    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        if !matches!(kind, TokenKind::Whitespace | TokenKind::Comment) {
            self.out.push(Token::new(kind, &self.src[start..end], Span::new(start, end)));
        }
    }
}

/// Tokenize and drop whitespace/comment trivia. Convenient for detection
/// rules that only care about the significant token sequence. Trivia is
/// discarded at the span level — no text is ever allocated for it.
pub fn tokenize_significant(input: &str, dialect: Dialect) -> Vec<Token> {
    let mut sink = SignificantSink { src: input, out: Vec::with_capacity(input.len() / 4 + 4) };
    lex_into(input, dialect, &mut sink);
    sink.out
}

/// A token at the span level: lexical class and byte range, **no owned
/// text**. The allocation-free representation the parse-once front-end
/// splits and hashes on; owned [`Token`]s are materialised (via
/// [`SpannedToken::materialize`]) only for the statement texts that
/// actually get parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpannedToken {
    /// Lexical class.
    pub kind: TokenKind,
    /// Location in the original input.
    pub span: Span,
}

impl SpannedToken {
    /// The token's source text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.span.start..self.span.end]
    }

    /// True for tokens that carry no syntactic meaning.
    pub fn is_trivia(&self) -> bool {
        matches!(self.kind, TokenKind::Whitespace | TokenKind::Comment)
    }

    /// Build the equivalent owned [`Token`].
    pub fn materialize(&self, src: &str) -> Token {
        Token::new(self.kind, self.text(src), self.span)
    }
}

/// Tokenize `input` into span-level tokens without allocating any token
/// text. Same classification as [`tokenize`]; `tokenize` is in fact this
/// pass plus text materialisation.
pub fn lex_spans(input: &str, dialect: Dialect) -> Vec<SpannedToken> {
    // ~2.2 bytes/token on realistic SQL; reserve once, grow rarely.
    let mut sink = SpanSink { out: Vec::with_capacity(input.len() / 2) };
    lex_into(input, dialect, &mut sink);
    sink.out
}

struct Lexer<'a, 's, S: TokenSink> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    dialect: Dialect,
    sink: &'s mut S,
}

impl<S: TokenSink> Lexer<'_, '_, S> {
    fn run(mut self) {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let b = self.bytes[self.pos];
            match scan::CLASS[b as usize] {
                Class::Ws => self.lex_whitespace(start),
                Class::Word => self.lex_word(start),
                Class::Digit => self.lex_number(start),
                Class::SQuote => self.lex_single_quoted(start),
                Class::DQuote => {
                    // MySQL (without ANSI_QUOTES) reads "…" as a string.
                    let kind = if self.dialect.double_quote_strings() {
                        TokenKind::StringLit
                    } else {
                        TokenKind::QuotedIdent
                    };
                    self.lex_delimited(start, b'"', kind)
                }
                Class::Backtick => {
                    if self.dialect.backtick_idents() {
                        self.lex_delimited(start, b'`', TokenKind::QuotedIdent)
                    } else {
                        self.emit_one(start, TokenKind::Unknown)
                    }
                }
                Class::Bracket => {
                    if self.dialect.bracket_idents() {
                        self.lex_bracket_ident(start)
                    } else {
                        self.emit_one(start, TokenKind::Unknown)
                    }
                }
                Class::Dollar => {
                    if self.dialect.dollar_quoting() {
                        self.lex_dollar(start)
                    } else {
                        // '$' is F_WORD, so `$$`/`$tag$` lex as ordinary
                        // words — exactly what MySQL custom delimiters need.
                        self.lex_word(start)
                    }
                }
                Class::Question => self.emit_one(start, TokenKind::Param),
                Class::Percent => {
                    if matches!(self.peek(1), Some(b's') | Some(b'(')) {
                        self.lex_format_param(start)
                    } else {
                        self.lex_operator_or_unknown(start)
                    }
                }
                Class::Colon => {
                    if self
                        .peek(1)
                        .map(|c| c.is_ascii_alphabetic() || c == b'_')
                        .unwrap_or(false)
                    {
                        self.lex_named_param(start)
                    } else {
                        self.lex_operator_or_unknown(start)
                    }
                }
                Class::Dot => {
                    if self.peek(1).map(|c| c.is_ascii_digit()).unwrap_or(false) {
                        self.lex_number(start)
                    } else {
                        self.emit_one(start, TokenKind::Punct)
                    }
                }
                Class::Minus => {
                    if self.peek(1) == Some(b'-') {
                        self.lex_line_comment(start)
                    } else {
                        self.lex_operator_or_unknown(start)
                    }
                }
                Class::Slash => {
                    if self.peek(1) == Some(b'*') {
                        self.lex_block_comment(start)
                    } else {
                        self.lex_operator_or_unknown(start)
                    }
                }
                Class::Punct => self.emit_one(start, TokenKind::Punct),
                Class::Op => {
                    if b == b'#' && self.dialect.hash_comments() {
                        self.lex_line_comment(start)
                    } else {
                        self.lex_operator_or_unknown(start)
                    }
                }
            }
            if self.sink.done() {
                return;
            }
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn emit(&mut self, start: usize, kind: TokenKind) {
        self.sink.token(kind, start, self.pos);
    }

    fn emit_one(&mut self, start: usize, kind: TokenKind) {
        self.pos += 1;
        self.emit(start, kind);
    }

    /// Jump `self.pos` to the first match of `a`/`b` at or after it, or to
    /// end-of-input; returns the matched byte, if any.
    fn seek2(&mut self, a: u8, b: u8) -> Option<u8> {
        match scan::memchr2(a, b, &self.bytes[self.pos..]) {
            Some(off) => {
                self.pos += off;
                Some(self.bytes[self.pos])
            }
            None => {
                self.pos = self.bytes.len();
                None
            }
        }
    }

    fn lex_whitespace(&mut self, start: usize) {
        // The first byte is known whitespace; skip from the second.
        self.pos = scan::skip_while(self.bytes, self.pos + 1, F_WS);
        self.emit(start, TokenKind::Whitespace);
    }

    fn lex_line_comment(&mut self, start: usize) {
        self.pos = match scan::memchr(b'\n', &self.bytes[self.pos..]) {
            Some(off) => self.pos + off,
            None => self.bytes.len(),
        };
        self.emit(start, TokenKind::Comment);
    }

    fn lex_block_comment(&mut self, start: usize) {
        self.pos += 2; // consume "/*"
        let mut depth = 1usize;
        while depth > 0 {
            match self.seek2(b'*', b'/') {
                Some(b'*') if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.pos += 2;
                }
                Some(b'/') if self.peek(1) == Some(b'*') => {
                    if self.dialect.nested_block_comments() {
                        depth += 1;
                        self.pos += 2;
                    } else {
                        // Non-nesting dialects: an inner "/*" is comment
                        // text; step past the '/' only, so a following
                        // "*/" still closes.
                        self.pos += 1;
                    }
                }
                Some(_) => self.pos += 1,
                None => break,
            }
        }
        self.emit(start, TokenKind::Comment);
    }

    fn lex_single_quoted(&mut self, start: usize) {
        self.pos += 1; // opening quote
        loop {
            match self.seek2(b'\'', b'\\') {
                Some(b'\'') => {
                    if self.peek(1) == Some(b'\'') {
                        self.pos += 2; // escaped quote
                    } else {
                        self.pos += 1; // closing quote
                        break;
                    }
                }
                Some(_) => {
                    // Tolerate backslash escapes (MySQL); harmless elsewhere.
                    if self.pos + 1 < self.bytes.len() {
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                    }
                }
                None => break,
            }
        }
        self.emit(start, TokenKind::StringLit);
    }

    fn lex_delimited(&mut self, start: usize, quote: u8, kind: TokenKind) {
        self.pos += 1;
        loop {
            match scan::memchr(quote, &self.bytes[self.pos..]) {
                Some(off) => {
                    self.pos += off;
                    if self.peek(1) == Some(quote) {
                        self.pos += 2; // doubled delimiter escape
                    } else {
                        self.pos += 1;
                        break;
                    }
                }
                None => {
                    self.pos = self.bytes.len();
                    break;
                }
            }
        }
        self.emit(start, kind);
    }

    fn lex_bracket_ident(&mut self, start: usize) {
        // `[name]` T-SQL quoting; but a bare `[` followed by something that
        // is not a simple name..`]` is treated as an unknown/operator char
        // (e.g. the POSIX classes `[[:<:]]` appear *inside* string literals,
        // so they never reach here).
        match scan::memchr2(b']', b'\n', &self.bytes[self.pos + 1..]) {
            Some(off) if self.bytes[self.pos + 1 + off] == b']' => {
                self.pos += off + 2;
                self.emit(start, TokenKind::QuotedIdent);
            }
            _ => self.emit_one(start, TokenKind::Unknown),
        }
    }

    fn lex_dollar(&mut self, start: usize) {
        // $1 positional param, or $tag$...$tag$ dollar-quoted string.
        if self.peek(1).map(|c| c.is_ascii_digit()).unwrap_or(false) {
            self.pos = scan::skip_while(self.bytes, self.pos + 1, F_DIGIT);
            self.emit(start, TokenKind::Param);
            return;
        }
        // find closing '$' of the opening tag
        let mut i = self.pos + 1;
        while i < self.bytes.len()
            && (self.bytes[i].is_ascii_alphanumeric() || self.bytes[i] == b'_')
        {
            i += 1;
        }
        if i < self.bytes.len() && self.bytes[i] == b'$' {
            let tag = &self.src[self.pos..=i];
            if let Some(close) = self.src[i + 1..].find(tag) {
                self.pos = i + 1 + close + tag.len();
                self.emit(start, TokenKind::StringLit);
                return;
            }
            // Unterminated dollar-quote: consume the rest as a string.
            self.pos = self.bytes.len();
            self.emit(start, TokenKind::StringLit);
            return;
        }
        self.emit_one(start, TokenKind::Unknown);
    }

    fn lex_format_param(&mut self, start: usize) {
        // %s or %(name)s — Python DB-API style parameters commonly embedded
        // in the GitHub corpus statements.
        if self.peek(1) == Some(b's') {
            self.pos += 2;
            self.emit(start, TokenKind::Param);
            return;
        }
        // %(name)s
        let mut i = self.pos + 2;
        while i < self.bytes.len() && self.bytes[i] != b')' && self.bytes[i] != b'\n' {
            i += 1;
        }
        if i + 1 < self.bytes.len() && self.bytes[i] == b')' && self.bytes[i + 1] == b's' {
            self.pos = i + 2;
            self.emit(start, TokenKind::Param);
        } else {
            self.emit_one(start, TokenKind::Unknown);
        }
    }

    fn lex_named_param(&mut self, start: usize) {
        self.pos += 1;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'_')
        {
            self.pos += 1;
        }
        self.emit(start, TokenKind::Param);
    }

    fn lex_number(&mut self, start: usize) {
        let mut seen_dot = false;
        let mut seen_exp = false;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_digit() {
                self.pos = scan::skip_while(self.bytes, self.pos + 1, F_DIGIT);
            } else if b == b'.' && !seen_dot && !seen_exp {
                seen_dot = true;
                self.pos += 1;
            } else if (b == b'e' || b == b'E')
                && !seen_exp
                && self
                    .peek(1)
                    .map(|c| c.is_ascii_digit() || c == b'+' || c == b'-')
                    .unwrap_or(false)
            {
                seen_exp = true;
                self.pos += 2;
            } else {
                break;
            }
        }
        self.emit(start, TokenKind::NumberLit);
    }

    fn lex_word(&mut self, start: usize) {
        // The first byte is known word-class; skip from the second.
        self.pos = scan::skip_while(self.bytes, self.pos + 1, F_WORD);
        // Without dollar-quoting, an interior '$' starts a new token so a
        // custom delimiter fused to a word (`END$$`) still matches at a
        // token boundary. Words *starting* with '$' stay whole.
        if !self.dialect.dollar_quoting() && self.bytes[start] != b'$' {
            if let Some(off) = scan::memchr(b'$', &self.bytes[start + 1..self.pos]) {
                self.pos = start + 1 + off;
            }
        }
        let kind = if S::CLASSIFY_WORDS && is_keyword(&self.src[start..self.pos]) {
            TokenKind::Keyword
        } else {
            TokenKind::Ident
        };
        self.emit(start, kind);
    }

    fn lex_operator_or_unknown(&mut self, start: usize) {
        // Multi-char operators first, longest match wins.
        const OPS: &[&str] = &[
            "<=>", "!=", "<>", "<=", ">=", "||", "::", ":=", "==", "->>", "->", "<<", ">>",
        ];
        for op in OPS {
            if self.src[self.pos..].starts_with(op) {
                self.pos += op.len();
                self.emit(start, TokenKind::Operator);
                return;
            }
        }
        let b = self.bytes[self.pos];
        if matches!(b, b'=' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'!' | b'~' | b'^' | b':' | b'#' | b'@')
        {
            self.emit_one(start, TokenKind::Operator);
        } else {
            self.emit_one(start, TokenKind::Unknown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize_significant(sql, Dialect::Generic).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lossless_reconstruction() {
        let sql = "SELECT a, b FROM t -- trailing\n WHERE x = 'it''s' /* c */;";
        let rebuilt: String =
            tokenize(sql, Dialect::Generic).iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rebuilt, sql);
    }

    #[test]
    fn classifies_basic_select() {
        let k = kinds("SELECT * FROM t WHERE a = 1");
        assert_eq!(k, vec![Keyword, Operator, Keyword, Ident, Keyword, Ident, Operator, NumberLit]);
    }

    #[test]
    fn string_with_escaped_quote() {
        let toks = tokenize_significant("'it''s'", Dialect::Generic);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, StringLit);
        assert_eq!(toks[0].string_value().unwrap(), "it's");
    }

    #[test]
    fn quoting_dialects() {
        let toks = tokenize_significant("\"a\" `b` [c]", Dialect::Generic);
        assert!(toks.iter().all(|t| t.kind == QuotedIdent));
        assert_eq!(toks[0].ident_value(), "a");
        assert_eq!(toks[1].ident_value(), "b");
        assert_eq!(toks[2].ident_value(), "c");
    }

    #[test]
    fn dollar_quoted_string() {
        let toks = tokenize_significant("$tag$hello 'world'$tag$", Dialect::Generic);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, StringLit);
    }

    #[test]
    fn positional_and_named_params() {
        let k = kinds("? $1 :name %s %(key)s");
        assert_eq!(k, vec![Param, Param, Param, Param, Param]);
    }

    #[test]
    fn numbers() {
        let toks = tokenize_significant("1 2.5 .5 1e10 3.14E-2", Dialect::Generic);
        assert!(toks.iter().all(|t| t.kind == NumberLit), "{toks:?}");
        assert_eq!(toks.len(), 5);
    }

    #[test]
    fn nested_block_comment() {
        let toks = tokenize("/* outer /* inner */ still */x", Dialect::Generic);
        assert_eq!(toks[0].kind, Comment);
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn multi_char_operators() {
        let k = kinds("a <> b != c || d :: e == f");
        let ops: Vec<_> = tokenize_significant("a <> b != c || d :: e == f", Dialect::Generic)
            .into_iter()
            .filter(|t| t.kind == Operator)
            .map(|t| t.text)
            .collect();
        assert_eq!(ops, vec!["<>", "!=", "||", "::", "=="]);
        assert_eq!(k.len(), 11);
    }

    #[test]
    fn unterminated_string_does_not_panic() {
        let toks = tokenize("SELECT 'oops", Dialect::Generic);
        let rebuilt: String = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rebuilt, "SELECT 'oops");
    }

    #[test]
    fn unknown_bytes_preserved() {
        let sql = "SELECT \u{7f}\u{1} FROM t";
        let rebuilt: String =
            tokenize(sql, Dialect::Generic).iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rebuilt, sql);
    }

    #[test]
    fn like_pattern_with_posix_classes_stays_in_string() {
        let toks = tokenize_significant(
            "SELECT * FROM t WHERE c LIKE '[[:<:]]U1[[:>:]]'",
            Dialect::Generic,
        );
        let lit = toks.iter().find(|t| t.kind == StringLit).unwrap();
        assert!(lit.text.contains("[[:<:]]"));
    }

    #[test]
    fn significant_filter_happens_before_materialisation() {
        // Same significant stream as tokenize + filter, without trivia
        // texts ever existing.
        let sql = "  SELECT /* c */ a -- tail\n FROM t  ";
        let via_spans: Vec<_> = tokenize_significant(sql, Dialect::Generic);
        let via_owned: Vec<_> =
            tokenize(sql, Dialect::Generic).into_iter().filter(|t| !t.is_trivia()).collect();
        assert_eq!(via_spans, via_owned);
    }

    #[test]
    fn dialect_quoting_rules() {
        // MySQL: "…" is a string, backticks quote, brackets don't.
        let toks = tokenize_significant("\"s\" `b` [c]", Dialect::MySql);
        assert_eq!(toks[0].kind, StringLit);
        assert_eq!(toks[1].kind, QuotedIdent);
        assert!(toks[2..].iter().all(|t| t.kind != QuotedIdent));
        // Postgres: no backticks, no brackets.
        let toks = tokenize_significant("\"a\" `b` [c]", Dialect::Postgres);
        assert_eq!(toks[0].kind, QuotedIdent);
        assert!(toks[1..].iter().all(|t| t.kind != QuotedIdent));
        // SQLite: all three quote identifiers.
        let toks = tokenize_significant("\"a\" `b` [c]", Dialect::Sqlite);
        assert!(toks.iter().all(|t| t.kind == QuotedIdent));
    }

    #[test]
    fn mysql_hash_comment_and_dollar_words() {
        let toks = tokenize("SELECT 1 # tail\n", Dialect::MySql);
        assert!(toks.iter().any(|t| t.kind == Comment && t.text.starts_with('#')));
        // Generic keeps '#' as an operator.
        let toks = tokenize("SELECT 1 # tail\n", Dialect::Generic);
        assert!(toks.iter().all(|t| t.kind != Comment));
        // With dollar-quoting off, $$ is one ordinary word token.
        let toks = tokenize_significant("$$ x $tag$", Dialect::MySql);
        assert_eq!(toks[0].kind, Ident);
        assert_eq!(toks[0].text, "$$");
        assert_eq!(toks.last().unwrap().text, "$tag$");
    }

    #[test]
    fn non_nesting_block_comment_closes_at_first_terminator() {
        let toks = tokenize("/* outer /* inner */ rest", Dialect::MySql);
        assert_eq!(toks[0].kind, Comment);
        assert_eq!(toks[0].text, "/* outer /* inner */");
        let rebuilt: String = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rebuilt, "/* outer /* inner */ rest");
    }

    #[test]
    fn dialect_lexing_stays_lossless() {
        let sql = "\"q\" `b` [c] $$ # h\n /* a /* b */ c */ 'lit' $1";
        for d in Dialect::ALL {
            let rebuilt: String =
                tokenize(sql, d).iter().map(|t| t.text.as_str()).collect();
            assert_eq!(rebuilt, sql, "{d:?}");
        }
    }

    #[test]
    fn backslash_at_end_of_unterminated_string() {
        let sql = "'abc\\";
        let toks = tokenize(sql, Dialect::Generic);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, StringLit);
        assert_eq!(toks[0].text, sql);
    }
}


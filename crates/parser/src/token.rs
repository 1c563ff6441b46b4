//! Token model for the non-validating SQL lexer.
//!
//! The lexer is *lossless*: concatenating the `text` of every token in order
//! reproduces the input byte-for-byte. This property is what lets the
//! annotation layer and the repair engine operate on a tree while still
//! being able to fall back to the original SQL text for constructs the
//! parser does not model (mirroring the paper's use of the non-validating
//! `sqlparse` library).

use crate::istr::IStr;
use std::fmt;

/// Byte range of a token within the original SQL text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// Inclusive start byte offset.
    pub start: usize,
    /// Exclusive end byte offset.
    pub end: usize,
}

impl Span {
    /// Create a new span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Smallest span covering both `self` and `other`.
    pub fn merge(&self, other: Span) -> Span {
        Span::new(self.start.min(other.start), self.end.max(other.end))
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// The lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// A recognised SQL keyword (`SELECT`, `FROM`, ...). Keyword matching is
    /// case-insensitive; the original casing is preserved in the token text.
    Keyword,
    /// A bare identifier (table, column, alias, function name, ...).
    Ident,
    /// A quoted identifier: `"x"`, `` `x` ``, or `[x]`.
    QuotedIdent,
    /// A string literal: `'...'` (with `''` escapes) or dollar-quoted.
    StringLit,
    /// A numeric literal: integer, decimal, or scientific notation.
    NumberLit,
    /// An operator such as `=`, `<>`, `||`, `::`.
    Operator,
    /// Punctuation: `(`, `)`, `,`, `;`, `.`.
    Punct,
    /// A bind parameter: `?`, `$1`, `:name`, `%s`, `%(name)s`.
    Param,
    /// A `--` line comment or `/* ... */` block comment.
    Comment,
    /// Whitespace (spaces, tabs, newlines).
    Whitespace,
    /// A byte sequence the lexer could not classify. Never dropped: the
    /// non-validating contract requires the input to be preserved.
    Unknown,
}

/// A single lexed token. Owns its text so that token streams can outlive
/// the input buffer (statements are routinely stored in the application
/// context for inter-query analysis). The text is an [`IStr`]: SQL
/// lexemes are almost always short, so ownership costs no heap
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: IStr,
    /// Location in the original input.
    pub span: Span,
    /// Integer keyword code, resolved once at construction for
    /// [`TokenKind::Keyword`] tokens (`None` otherwise). Downstream
    /// keyword checks ([`Token::is_kw`]) are single integer compares —
    /// the string is never re-examined after lexing.
    pub kw: Option<Kw>,
}

impl Token {
    /// Construct a token. Keyword tokens resolve their [`Kw`] code here,
    /// once, so later checks never touch the text.
    pub fn new(kind: TokenKind, text: impl Into<IStr>, span: Span) -> Self {
        let text = text.into();
        let kw = if kind == TokenKind::Keyword { kw_lookup(&text) } else { None };
        Token { kind, text, span, kw }
    }

    /// Uppercased text, used for case-insensitive keyword comparisons.
    /// Inline (allocation-free) for any lexeme up to [`IStr::INLINE_CAP`]
    /// bytes — every keyword qualifies.
    pub fn upper(&self) -> IStr {
        IStr::new_upper(&self.text)
    }

    /// True if this token is the given keyword — one integer compare
    /// against the code cached at construction.
    #[inline]
    pub fn is_kw(&self, kw: Kw) -> bool {
        self.kw == Some(kw)
    }

    /// True if this token is the given keyword (case-insensitive). String
    /// flavour of [`Token::is_kw`], kept for call sites that work with
    /// dynamic or out-of-table words.
    pub fn is_keyword(&self, kw: &str) -> bool {
        self.kind == TokenKind::Keyword && self.text.eq_ignore_ascii_case(kw)
    }

    /// True if this token is the given punctuation character.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(ch)
    }

    /// True if this token is the given operator text.
    pub fn is_operator(&self, op: &str) -> bool {
        self.kind == TokenKind::Operator && self.text == op
    }

    /// True for tokens that carry no syntactic meaning (whitespace/comments).
    pub fn is_trivia(&self) -> bool {
        matches!(self.kind, TokenKind::Whitespace | TokenKind::Comment)
    }

    /// The identifier value with any quoting stripped: `"User"` -> `User`,
    /// `` `t` `` -> `t`, `[col]` -> `col`. Bare identifiers are returned
    /// unchanged (original case preserved).
    pub fn ident_value(&self) -> &str {
        match self.kind {
            TokenKind::QuotedIdent => {
                let t = self.text.as_str();
                // The boundary check matters only for *unterminated*
                // quoted identifiers, which run to end-of-input and can
                // end mid-character: slicing would panic, so return the
                // token raw. (A terminated identifier always ends with
                // its ASCII delimiter — a char boundary.)
                if t.len() >= 2 && t.is_char_boundary(t.len() - 1) {
                    &t[1..t.len() - 1]
                } else {
                    t
                }
            }
            _ => self.text.as_str(),
        }
    }

    /// The contents of a string literal with quotes stripped and `''`
    /// unescaped. Returns `None` for non-string tokens.
    pub fn string_value(&self) -> Option<IStr> {
        if self.kind != TokenKind::StringLit {
            return None;
        }
        let t = self.text.as_str();
        if t.starts_with('\'') && t.ends_with('\'') && t.len() >= 2 {
            let inner = &t[1..t.len() - 1];
            if inner.contains("''") {
                Some(inner.replace("''", "'").into())
            } else {
                Some(inner.into())
            }
        } else if let Some(rest) = t.strip_prefix('$') {
            // dollar-quoted: $tag$...$tag$
            let close = rest.find('$').map(|i| i + 2)?;
            let tag = &t[..close];
            Some(t[close..t.len().saturating_sub(tag.len())].into())
        } else {
            Some(IStr::new(t))
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Generates the keyword universe from one list: the string table
/// ([`KEYWORDS`]), the dense integer code enum ([`Kw`]), and the
/// discriminant-indexed [`Kw::LIST`] table. One source of truth means the
/// enum discriminants and the string table can never drift apart.
macro_rules! define_keywords {
    ($($kw:ident),* $(,)?) => {
        /// The set of words the lexer classifies as keywords. The list is
        /// intentionally broad (union of common dialects) because the parser is
        /// non-validating: treating a dialect-specific word as a keyword never
        /// rejects a statement, it only enriches the token classification.
        pub const KEYWORDS: &[&str] = &[$(stringify!($kw)),*];

        /// A recognised SQL keyword as a dense integer code.
        ///
        /// `Kw as u8` is the keyword's position in [`KEYWORDS`], so keyword
        /// identity checks anywhere in the pipeline are single integer
        /// compares — the parser never re-hashes or re-compares keyword
        /// strings after lexing.
        #[allow(non_camel_case_types, missing_docs)]
        #[repr(u8)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Kw { $($kw),* }

        impl Kw {
            /// Every keyword, indexed by discriminant (= position in
            /// [`KEYWORDS`]).
            pub const LIST: &'static [Kw] = &[$(Kw::$kw),*];
        }
    };
}

define_keywords!(
    ADD, AFTER, ALL, ALTER, ANALYZE, AND, ANY, AS, ASC,
    AUTOINCREMENT, AUTO_INCREMENT, BEFORE, BEGIN, BETWEEN, BIGINT, BLOB,
    BOOL, BOOLEAN, BY, CASCADE, CASE, CAST, CHAR, CHARACTER, CHECK,
    COLLATE, COLUMN, COMMIT, CONCAT, CONSTRAINT, CREATE, CROSS,
    CURRENT_DATE, CURRENT_TIME, CURRENT_TIMESTAMP, DATABASE, DATE,
    DATETIME, DECIMAL, DECLARE, DEFAULT, DELETE, DESC, DISTINCT,
    DOUBLE, DROP, EACH, ELSE, ELSEIF, END, ENUM, ESCAPE, EXCEPT,
    EXISTS, EXPLAIN, FALSE, FLOAT, FOR, FOREIGN, FROM, FULL,
    FUNCTION, GLOB, GRANT, GROUP, HAVING, IF, ILIKE, IN, INDEX,
    INNER, INSERT, INT, INTEGER, INTERSECT, INTERVAL, INTO, IS,
    JOIN, KEY, LANGUAGE, LEFT, LIKE, LIMIT, LOOP, MATERIALIZED,
    MEDIUMINT, MODIFY, NATURAL, NOT, NULL, NUMERIC, OFFSET, ON, OR,
    ORDER, OUTER, PRAGMA, PRECISION, PRIMARY, PROCEDURE, RAND, RANDOM,
    REAL, REFERENCES, REGEXP, RENAME, REPEAT, REPLACE, RESTRICT,
    RETURN, RETURNS, REVOKE, RIGHT, RLIKE, ROLLBACK, ROW, SELECT,
    SERIAL, SET, SIMILAR, SMALLINT, TABLE, TEMP, TEMPORARY, TEXT,
    THEN, TIME, TIMESTAMP, TIMESTAMPTZ, TINYINT, TO, TRANSACTION,
    TRIGGER, TRUE, TRUNCATE, UNION, UNIQUE, UNSIGNED, UPDATE, USING,
    VACUUM, VALUES, VARCHAR, VARYING, VIEW, WHEN, WHERE, WHILE,
    WITH, WITHOUT, ZONE,
);

impl Kw {
    /// The keyword's canonical (uppercase) spelling.
    pub fn text(self) -> &'static str {
        KEYWORDS[self as usize]
    }

    /// The keyword whose position in [`KEYWORDS`] is `index`, if any.
    /// Inverse of `kw as u8`.
    pub fn from_index(index: usize) -> Option<Kw> {
        Kw::LIST.get(index).copied()
    }
}

/// Longest keyword length (`CURRENT_TIMESTAMP`); words longer than this
/// are never keywords.
const MAX_KEYWORD_LEN: usize = 17;

/// A keyword packed for word-at-a-time comparison: its uppercased bytes
/// in three little-endian `u64` lanes, zero-padded.
type PackedWord = [u64; 3];

fn pack_upper(word: &str) -> PackedWord {
    let mut buf = [0u8; 24];
    for (i, b) in word.bytes().enumerate() {
        buf[i] = b.to_ascii_uppercase();
    }
    [
        u64::from_le_bytes(buf[0..8].try_into().unwrap()),
        u64::from_le_bytes(buf[8..16].try_into().unwrap()),
        u64::from_le_bytes(buf[16..24].try_into().unwrap()),
    ]
}

/// Keywords grouped by length, each group sorted for binary search on the
/// packed representation; each entry carries its [`Kw`] code. Built once,
/// on first lookup.
struct KeywordTable {
    /// `by_len[len]` is the `packed` range holding keywords of `len` bytes.
    by_len: [(u16, u16); MAX_KEYWORD_LEN + 1],
    packed: Vec<(PackedWord, Kw)>,
}

fn build_keyword_table() -> KeywordTable {
    let mut groups: Vec<Vec<(PackedWord, Kw)>> = vec![Vec::new(); MAX_KEYWORD_LEN + 1];
    for (i, k) in KEYWORDS.iter().enumerate() {
        groups[k.len()].push((pack_upper(k), Kw::LIST[i]));
    }
    let mut by_len = [(0u16, 0u16); MAX_KEYWORD_LEN + 1];
    let mut packed = Vec::with_capacity(KEYWORDS.len());
    for (len, mut g) in groups.into_iter().enumerate() {
        g.sort_unstable_by_key(|e| e.0);
        by_len[len] = (packed.len() as u16, (packed.len() + g.len()) as u16);
        packed.extend(g);
    }
    KeywordTable { by_len, packed }
}

static KEYWORD_TABLE: std::sync::OnceLock<KeywordTable> = std::sync::OnceLock::new();

/// Look up the [`Kw`] code for `word` (case-insensitive), or `None` if it
/// is not a keyword.
///
/// This is the hottest classification in the lexer (once per word token),
/// so it compares whole machine words instead of bytes: candidates are
/// pre-grouped by length and the uppercased word is packed into three
/// `u64` lanes, making each binary-search probe three integer compares.
/// Allocation-free after the first call builds the table.
pub fn kw_lookup(word: &str) -> Option<Kw> {
    let len = word.len();
    if !(2..=MAX_KEYWORD_LEN).contains(&len) {
        return None;
    }
    let table = KEYWORD_TABLE.get_or_init(build_keyword_table);
    let (lo, hi) = table.by_len[len];
    let group = &table.packed[lo as usize..hi as usize];
    let key = pack_upper(word);
    group.binary_search_by(|e| e.0.cmp(&key)).ok().map(|i| group[i].1)
}

/// Check whether `word` is a SQL keyword (case-insensitive).
pub fn is_keyword(word: &str) -> bool {
    kw_lookup(word).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_sorted_for_binary_search() {
        let mut sorted = KEYWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, KEYWORDS, "KEYWORDS must stay sorted");
    }

    #[test]
    fn kw_codes_match_keyword_table() {
        for (i, &k) in KEYWORDS.iter().enumerate() {
            let kw = kw_lookup(k).expect("every table word resolves");
            assert_eq!(kw as usize, i, "discriminant = KEYWORDS position");
            assert_eq!(kw.text(), k);
            assert_eq!(Kw::from_index(i), Some(kw));
        }
        assert_eq!(kw_lookup("tenant"), None);
        assert_eq!(kw_lookup("select"), Some(Kw::SELECT));
        assert_eq!(kw_lookup("SeLeCt"), Some(Kw::SELECT));
    }

    #[test]
    fn token_caches_kw_code() {
        let t = Token::new(TokenKind::Keyword, "Select", Span::new(0, 6));
        assert_eq!(t.kw, Some(Kw::SELECT));
        assert!(t.is_kw(Kw::SELECT));
        assert!(!t.is_kw(Kw::FROM));
        // Idents never carry a code, even for keyword-shaped text.
        let i = Token::new(TokenKind::Ident, "select", Span::new(0, 6));
        assert_eq!(i.kw, None);
    }

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert!(is_keyword("select"));
        assert!(is_keyword("SELECT"));
        assert!(is_keyword("SeLeCt"));
        assert!(!is_keyword("tenant"));
    }

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(2, 5);
        let b = Span::new(7, 9);
        assert_eq!(a.merge(b), Span::new(2, 9));
        assert_eq!(b.merge(a), Span::new(2, 9));
    }

    #[test]
    fn quoted_ident_value_strips_quotes() {
        let t = Token::new(TokenKind::QuotedIdent, "\"User\"", Span::new(0, 6));
        assert_eq!(t.ident_value(), "User");
        let t = Token::new(TokenKind::QuotedIdent, "`tbl`", Span::new(0, 5));
        assert_eq!(t.ident_value(), "tbl");
        let t = Token::new(TokenKind::QuotedIdent, "[col]", Span::new(0, 5));
        assert_eq!(t.ident_value(), "col");
    }

    #[test]
    fn string_value_unescapes_quotes() {
        let t = Token::new(TokenKind::StringLit, "'it''s'", Span::new(0, 7));
        assert_eq!(t.string_value().unwrap(), "it's");
    }

    #[test]
    fn is_keyword_helpers() {
        let t = Token::new(TokenKind::Keyword, "Select", Span::new(0, 6));
        assert!(t.is_keyword("SELECT"));
        assert!(!t.is_keyword("FROM"));
        let p = Token::new(TokenKind::Punct, "(", Span::new(0, 1));
        assert!(p.is_punct('('));
    }
}

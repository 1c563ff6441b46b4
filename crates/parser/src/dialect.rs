//! SQL dialect selection.
//!
//! The front door (lexer → splitter → parser) historically accepted a
//! *tolerant union* of dialects: backticks, brackets, dollar-quoting,
//! nested comments, and `DELIMITER` directives were all always on. That
//! union is a good default for mixed corpora, but it bakes in real
//! conflicts — a MySQL `$$` custom delimiter collides with Postgres
//! dollar-quoting, and `#` comments cannot be honoured at all because
//! `#` is an operator elsewhere. [`Dialect`] makes the choice explicit:
//! every layer consults the active dialect's capability methods instead
//! of hard-coding one syntax.
//!
//! [`Dialect::Generic`] preserves the historical union **byte for
//! byte** — every capability that was previously unconditional answers
//! `true` for it (and `#` comments, the one capability the union never
//! had, answers `false`). All pre-dialect entry points delegate to
//! `Generic`, so existing callers and cached results are unaffected.

use crate::token::{Kw, TokenKind};

/// The SQL dialect the front door should apply.
///
/// Capabilities are *syntactic*: they decide how bytes lex and where
/// statements end. Keyword admissibility ([`Dialect::admits_keyword`])
/// additionally gates a few dialect-specific operators in the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dialect {
    /// The historical tolerant union: backticks, brackets, and `"…"` all
    /// quote identifiers, dollar-quoting and `DELIMITER` directives are
    /// both honoured, block comments nest. Byte-identical to the
    /// pre-dialect behaviour.
    #[default]
    Generic,
    /// PostgreSQL: dollar-quoting, nested block comments, `"…"`
    /// identifiers; no backticks, brackets, `#` comments, or
    /// `DELIMITER` directives.
    Postgres,
    /// MySQL / MariaDB: backtick identifiers, `"…"` **strings**, `#`
    /// line comments, `DELIMITER` directives; block comments do not
    /// nest and `$` is an ordinary identifier character (so `DELIMITER
    /// $$` works instead of colliding with dollar-quoting).
    MySql,
    /// SQLite: backtick, bracket, and `"…"` identifiers; no
    /// dollar-quoting, `#` comments, nested comments, or `DELIMITER`
    /// directives.
    Sqlite,
}

impl Dialect {
    /// All dialects, in stable order.
    pub const ALL: [Dialect; 4] =
        [Dialect::Generic, Dialect::Postgres, Dialect::MySql, Dialect::Sqlite];

    /// Stable machine-readable name (accepted back by [`Dialect::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Dialect::Generic => "generic",
            Dialect::Postgres => "postgres",
            Dialect::MySql => "mysql",
            Dialect::Sqlite => "sqlite",
        }
    }

    /// Parse a dialect name (case-insensitive; common aliases accepted).
    pub fn parse(s: &str) -> Option<Dialect> {
        match s.to_ascii_lowercase().as_str() {
            "generic" | "ansi" | "" => Some(Dialect::Generic),
            "postgres" | "postgresql" | "pg" | "plpgsql" => Some(Dialect::Postgres),
            "mysql" | "mariadb" => Some(Dialect::MySql),
            "sqlite" | "sqlite3" => Some(Dialect::Sqlite),
            _ => None,
        }
    }

    /// `` `name` `` lexes as a quoted identifier.
    pub fn backtick_idents(self) -> bool {
        matches!(self, Dialect::Generic | Dialect::MySql | Dialect::Sqlite)
    }

    /// `[name]` lexes as a quoted identifier (T-SQL style, accepted by
    /// SQLite).
    pub fn bracket_idents(self) -> bool {
        matches!(self, Dialect::Generic | Dialect::Sqlite)
    }

    /// `"…"` lexes as a **string literal** instead of a quoted
    /// identifier (MySQL without `ANSI_QUOTES`).
    pub fn double_quote_strings(self) -> bool {
        matches!(self, Dialect::MySql)
    }

    /// `$tag$ … $tag$` lexes as a dollar-quoted string and `$1` as a
    /// positional parameter. When off, `$` is an ordinary word byte —
    /// which is what lets a MySQL `DELIMITER $$` terminator match as a
    /// plain word token.
    pub fn dollar_quoting(self) -> bool {
        matches!(self, Dialect::Generic | Dialect::Postgres)
    }

    /// `#` starts a line comment (MySQL).
    pub fn hash_comments(self) -> bool {
        matches!(self, Dialect::MySql)
    }

    /// `/* … /* … */ … */` block comments nest (SQL standard,
    /// Postgres). When off, the first `*/` closes the comment (MySQL,
    /// SQLite).
    pub fn nested_block_comments(self) -> bool {
        matches!(self, Dialect::Generic | Dialect::Postgres)
    }

    /// `DELIMITER xx` lines are script-level directives that switch the
    /// statement terminator (mysqldump). When off, `DELIMITER` is an
    /// ordinary word — Postgres scripts raise no
    /// `delimiter-fallback-sequential` diagnostic even when the word
    /// appears in them.
    pub fn delimiter_directives(self) -> bool {
        matches!(self, Dialect::Generic | Dialect::MySql)
    }

    /// A statement-initial `BEGIN ATOMIC` opens a compound block (SQL
    /// standard, accepted by Postgres 14+ for SQL-body routines).
    pub fn begin_atomic(self) -> bool {
        matches!(self, Dialect::Generic | Dialect::Postgres)
    }

    /// Is this keyword admissible as a dialect-specific operator? Gates
    /// the `LIKE`-family operators in the parser: a keyword another
    /// dialect owns falls through to the total `Raw` path instead of
    /// shaping a node the active dialect has no semantics for.
    /// Everything not listed is admissible everywhere.
    pub fn admits_keyword(self, kw: Kw) -> bool {
        match kw {
            Kw::ILIKE | Kw::SIMILAR => matches!(self, Dialect::Generic | Dialect::Postgres),
            Kw::REGEXP | Kw::RLIKE => {
                matches!(self, Dialect::Generic | Dialect::MySql | Dialect::Sqlite)
            }
            Kw::GLOB => matches!(self, Dialect::Generic | Dialect::Sqlite),
            _ => true,
        }
    }

    /// Guess the dialect from script contents — the auto-detection
    /// heuristic behind the CLI's default (no `--dialect`) mode.
    ///
    /// Signals, checked over the significant tokens of the first 64 KiB
    /// (lexed under [`Dialect::Generic`], so matches inside string
    /// literals or comments never count):
    ///
    /// * a `DELIMITER` directive at a statement start, or a
    ///   backtick-quoted identifier → [`Dialect::MySql`];
    /// * a dollar-quoted (`$tag$ … $tag$`) body → [`Dialect::Postgres`].
    ///
    /// The first signal in script order wins. `None` means no signal —
    /// the caller should stay on [`Dialect::Generic`].
    pub fn detect(script: &str) -> Option<Dialect> {
        const DETECT_BYTES: usize = 64 * 1024;
        let mut end = script.len().min(DETECT_BYTES);
        while end < script.len() && !script.is_char_boundary(end) {
            end -= 1;
        }
        let prefix = &script[..end];
        let bytes = prefix.as_bytes();
        let mut stmt_start = true;
        for t in crate::lexer::lex_spans(prefix, Dialect::Generic) {
            if t.is_trivia() {
                continue;
            }
            match t.kind {
                TokenKind::QuotedIdent if bytes[t.span.start] == b'`' => {
                    return Some(Dialect::MySql)
                }
                TokenKind::StringLit if bytes[t.span.start] == b'$' => {
                    return Some(Dialect::Postgres)
                }
                TokenKind::Ident | TokenKind::Keyword
                    if stmt_start
                        && prefix[t.span.start..t.span.end].eq_ignore_ascii_case("DELIMITER") =>
                {
                    return Some(Dialect::MySql)
                }
                _ => {}
            }
            stmt_start = t.kind == TokenKind::Punct
                && t.span.end - t.span.start == 1
                && bytes[t.span.start] == b';';
        }
        None
    }
}

impl std::fmt::Display for Dialect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_is_the_historical_union() {
        let g = Dialect::Generic;
        assert!(g.backtick_idents());
        assert!(g.bracket_idents());
        assert!(g.dollar_quoting());
        assert!(g.nested_block_comments());
        assert!(g.delimiter_directives());
        assert!(!g.hash_comments());
        assert!(!g.double_quote_strings());
        for kw in [Kw::ILIKE, Kw::REGEXP, Kw::RLIKE, Kw::GLOB, Kw::SIMILAR, Kw::LIKE] {
            assert!(g.admits_keyword(kw), "{kw:?}");
        }
    }

    #[test]
    fn parse_roundtrips_names_and_aliases() {
        for d in Dialect::ALL {
            assert_eq!(Dialect::parse(d.name()), Some(d));
        }
        assert_eq!(Dialect::parse("PostgreSQL"), Some(Dialect::Postgres));
        assert_eq!(Dialect::parse("MariaDB"), Some(Dialect::MySql));
        assert_eq!(Dialect::parse("SQLite3"), Some(Dialect::Sqlite));
        assert_eq!(Dialect::parse("oracle"), None);
    }

    #[test]
    fn detect_mysql_from_delimiter_and_backticks() {
        assert_eq!(
            Dialect::detect("DELIMITER ;;\nSELECT 1 ;;\n"),
            Some(Dialect::MySql)
        );
        assert_eq!(
            Dialect::detect("SELECT `a` FROM `t`;"),
            Some(Dialect::MySql)
        );
        // DELIMITER mid-statement is not a directive signal.
        assert_eq!(Dialect::detect("SELECT delimiter FROM t;"), None);
    }

    #[test]
    fn detect_postgres_from_dollar_bodies() {
        assert_eq!(
            Dialect::detect("CREATE FUNCTION f() RETURNS int AS $$ SELECT 1; $$ LANGUAGE sql;"),
            Some(Dialect::Postgres)
        );
    }

    #[test]
    fn detect_ignores_signals_inside_strings_and_comments() {
        assert_eq!(Dialect::detect("SELECT '`not a backtick ident`';"), None);
        assert_eq!(Dialect::detect("-- $tag$ not a body $tag$\nSELECT 1;"), None);
        assert_eq!(Dialect::detect("SELECT 1; /* `x` */ SELECT 2;"), None);
    }

    #[test]
    fn detect_returns_none_on_plain_sql() {
        assert_eq!(Dialect::detect("SELECT a, b FROM t WHERE a = 1;"), None);
        assert_eq!(Dialect::detect(""), None);
    }
}

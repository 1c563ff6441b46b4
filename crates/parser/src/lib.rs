//! # sqlcheck-parser
//!
//! A from-scratch, **non-validating** SQL lexer and parser — the Rust
//! analogue of the Python `sqlparse` library that the SQLCheck paper
//! (SIGMOD 2020) builds on.
//!
//! Design contract (what "non-validating" means here):
//!
//! 1. **Total**: [`parser::parse`] never fails. Unrecognised statements
//!    become [`ast::Statement::Other`]; unrecognised sub-expressions become
//!    [`ast::Expr::Raw`]. Arbitrary bytes never panic the lexer.
//! 2. **Lossless at the token level**: concatenating the lexed token texts
//!    reproduces the input exactly, so the original statement can always be
//!    recovered (used by the repair engine's textual-fix fallback).
//! 3. **Dialect-tolerant**: quoting styles of PostgreSQL / MySQL / SQLite /
//!    T-SQL, dollar-quoting, several bind-parameter styles, and a broad
//!    keyword set are all accepted.
//!
//! The [`mod@annotate`] module layers a semantically-richer digest on top of the
//! loose tree (table/column references, predicates, join conditions), which
//! is what the paper means by *annotating the parse tree* (§4.1).
//!
//! ## Quick example
//!
//! ```
//! use sqlcheck_parser::parser::parse_one;
//! use sqlcheck_parser::ast::Statement;
//! use sqlcheck_parser::Dialect;
//!
//! let p = parse_one("SELECT * FROM Tenants WHERE User_IDs LIKE '%U1%'", Dialect::Generic);
//! let Statement::Select(sel) = &p.stmt else { unreachable!() };
//! assert!(sel.has_wildcard());
//! ```

#![warn(missing_docs)]

pub mod annotate;
pub mod arena;
pub mod ast;
mod block;
pub mod diag;
pub mod dialect;
pub mod fingerprint;
pub mod istr;
pub mod lexer;
pub mod parser;
pub mod render;
mod scan;
pub mod splitter;
pub mod token;

pub use annotate::{annotate, Annotations};
pub use arena::{ExprArena, ExprId, ExprRange};
pub use ast::{ParsedStatement, Statement};
pub use diag::{DiagKind, Diagnostic, Limits};
pub use dialect::Dialect;
pub use istr::IStr;
pub use parser::{parse, parse_one, parse_raw_limited};
pub use render::ToSql;
pub use token::{Kw, Span, Token, TokenKind};
pub use lexer::{lex_spans, SpannedToken};
pub use splitter::{split_deduped, DedupedSplit, SplitStatement};

//! Best-effort, non-validating SQL parser.
//!
//! The parser is **total**: it never returns an error. Statements it can
//! shape structurally become typed [`Statement`] values; anything else is
//! preserved as [`Statement::Other`] (and sub-expressions it cannot shape
//! become [`Expr::Raw`]). This is the same contract as the `sqlparse`
//! library used by the paper, and it is what gives sqlcheck its dialect
//! coverage (§4.1 of the paper).

use crate::arena::{ExprArena, ExprId, ExprRange};
use crate::ast::*;
use crate::diag::{DiagKind, Diagnostic, Limits};
use crate::dialect::Dialect;
use crate::istr::IStr;
use crate::splitter::{materialize_span, split, split_spans, RawStatement};
use crate::token::{Kw, Token, TokenKind};
use std::cell::Cell;

/// Parse a script into statements under [`Dialect::Generic`].
pub fn parse(script: &str) -> Vec<ParsedStatement> {
    split(script, Dialect::Generic)
        .into_iter()
        .map(|raw| parse_raw_limited(raw, &Limits::default(), Dialect::Generic).0)
        .collect()
}

/// Parse a single statement under `dialect`. If the input contains
/// several statements the first one is returned; an all-trivia input
/// yields `Statement::Other` carrying the input's tokens. Default
/// [`Limits`] apply.
pub fn parse_one(sql: &str, dialect: Dialect) -> ParsedStatement {
    match split_spans(sql, dialect).0.first() {
        Some(&span) => {
            parse_raw_limited(materialize_span(sql, span, dialect), &Limits::default(), dialect).0
        }
        None => ParsedStatement {
            stmt: Statement::Other(OtherStatement { leading_keyword: IStr::empty() }),
            tokens: crate::lexer::tokenize(sql, dialect),
            arena: ExprArena::new(),
        },
    }
}

// ---------------------------------------------------------------------------
// Budgeted parsing + degradation diagnostics
// ---------------------------------------------------------------------------

// Per-statement parse state lives in thread-locals rather than being
// threaded through every mutually-recursive parse function: the state is
// armed/cleared at each statement's parse entry (`parse_raw_limited`), so
// no state leaks from one statement's parse into the next.
thread_local! {
    /// Arena collecting every expression node of the statement being
    /// parsed (including compound-body sub-statements). Armed empty at
    /// each statement's parse entry and moved into the resulting
    /// [`ParsedStatement`]; kept thread-local like the rest of the parse
    /// state so the mutually-recursive parse functions need no threading.
    static ARENA: std::cell::RefCell<ExprArena> = std::cell::RefCell::new(ExprArena::new());
    /// Current expression/subquery recursion depth.
    static EXPR_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Active `Limits::max_expr_depth`.
    static EXPR_DEPTH_LIMIT: Cell<u32> = const { Cell::new(128) };
    /// Current nested-`BEGIN` flattening depth inside a compound body.
    static BLOCK_NEST: Cell<u32> = const { Cell::new(0) };
    /// Active `Limits::max_block_depth`.
    static BLOCK_NEST_LIMIT: Cell<u32> = const { Cell::new(64) };
    /// A sub-expression fell back to `Expr::Raw`.
    static EXPR_DEGRADED: Cell<bool> = const { Cell::new(false) };
    /// A recursion budget was exhausted (expression or block depth).
    static DEPTH_HIT: Cell<bool> = const { Cell::new(false) };
    /// A compound body's `BEGIN` block never closed before end of input.
    static UNTERMINATED: Cell<bool> = const { Cell::new(false) };
    /// Dialect of the statement being parsed: gates dialect-specific
    /// keyword admissibility and internal re-lexes (expression strings,
    /// dollar-quoted bodies). Armed at each statement's parse entry.
    static DIALECT: Cell<Dialect> = const { Cell::new(Dialect::Generic) };
}

/// The dialect armed for the statement currently being parsed.
#[inline]
fn active_dialect() -> Dialect {
    DIALECT.with(Cell::get)
}

/// RAII recursion ticket: holding one means a depth slot was acquired;
/// dropping it releases the slot. `None` means the budget is exhausted —
/// the caller falls back to its total `Raw`/`Other` path.
struct DepthTicket(&'static std::thread::LocalKey<Cell<u32>>);

impl std::ops::Drop for DepthTicket {
    fn drop(&mut self) {
        self.0.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

fn enter(
    depth: &'static std::thread::LocalKey<Cell<u32>>,
    limit: &'static std::thread::LocalKey<Cell<u32>>,
) -> Option<DepthTicket> {
    let cur = depth.with(Cell::get);
    if cur >= limit.with(Cell::get) {
        DEPTH_HIT.with(|f| f.set(true));
        return None;
    }
    depth.with(|d| d.set(cur + 1));
    Some(DepthTicket(depth))
}

fn enter_expr() -> Option<DepthTicket> {
    enter(&EXPR_DEPTH, &EXPR_DEPTH_LIMIT)
}

fn enter_block() -> Option<DepthTicket> {
    enter(&BLOCK_NEST, &BLOCK_NEST_LIMIT)
}

/// Parse one pre-split raw statement under explicit resource budgets,
/// reporting every degradation the parse suffered.
///
/// The parse is still **total** — budgets never produce errors. A
/// statement over the byte/token budget skips the structural parse
/// entirely (degrading to [`Statement::Other`] with an
/// [`DiagKind::OverLimit`] diagnostic); recursion budgets flatten the
/// offending sub-tree to `Expr::Raw` / a flat body piece. Diagnostics
/// carry no statement index — callers that know the statement's position
/// attach it via [`Diagnostic::at`].
///
/// `dialect` must be the one the statement was split and materialised
/// under. Dialect-specific operators another dialect owns (`ILIKE`,
/// `GLOB`, …) fall through to the total `Raw` path instead of shaping
/// nodes the active dialect has no semantics for, and internal re-lexes
/// use the dialect's rules.
pub fn parse_raw_limited(
    raw: RawStatement,
    limits: &Limits,
    dialect: Dialect,
) -> (ParsedStatement, Vec<Diagnostic>) {
    let mut diags = Vec::new();
    let mut sig: Vec<Token> = Vec::with_capacity(raw.tokens.len());
    sig.extend(raw.tokens.iter().filter(|t| !t.is_trivia()).cloned());
    if raw.source.len() > limits.max_statement_bytes || raw.tokens.len() > limits.max_tokens {
        let leading = sig.first().map(|t| t.upper()).unwrap_or_default();
        diags.push(Diagnostic::new(
            DiagKind::OverLimit,
            format!(
                "statement skipped structural parse: {} bytes / {} tokens exceeds budget \
                 ({} bytes / {} tokens)",
                raw.source.len(),
                raw.tokens.len(),
                limits.max_statement_bytes,
                limits.max_tokens,
            ),
        ));
        let stmt = Statement::Other(OtherStatement { leading_keyword: leading });
        return (ParsedStatement { stmt, tokens: raw.tokens, arena: ExprArena::new() }, diags);
    }

    // Arm the recursion budgets and clear the degradation flags. Depth
    // counters are reset defensively: tickets rebalance them on every
    // normal path, but a caller-side `catch_unwind` must not leak depth
    // into the next statement parsed on this thread.
    DIALECT.with(|d| d.set(dialect));
    EXPR_DEPTH_LIMIT.with(|l| l.set(limits.max_expr_depth));
    BLOCK_NEST_LIMIT.with(|l| l.set(limits.max_block_depth));
    EXPR_DEPTH.with(|d| d.set(0));
    BLOCK_NEST.with(|d| d.set(0));
    EXPR_DEGRADED.with(|f| f.set(false));
    DEPTH_HIT.with(|f| f.set(false));
    UNTERMINATED.with(|f| f.set(false));
    // Pre-size the arena: expression nodes are bounded by (and usually a
    // small fraction of) the significant token count, so one up-front
    // reservation replaces the per-statement doubling churn.
    ARENA.with(|a| a.borrow_mut().reserve(sig.len() / 2 + 4));

    let stmt = parse_tokens(&sig);

    let expr_degraded = EXPR_DEGRADED.with(Cell::get);
    let depth_hit = DEPTH_HIT.with(Cell::get);
    let unterminated = UNTERMINATED.with(Cell::get);
    let is_other = matches!(stmt, Statement::Other(_));
    let leading = sig.first().map(|t| t.upper()).unwrap_or_default();
    let orphan_end = is_other && leading == "END";
    if orphan_end {
        diags.push(Diagnostic::new(
            DiagKind::OrphanEnd,
            "statement begins with END matching no open block",
        ));
    }
    if unterminated {
        diags.push(Diagnostic::new(
            DiagKind::UnterminatedBlock,
            "compound body opened a block that never closed; trailing piece kept",
        ));
    }
    if depth_hit {
        diags.push(Diagnostic::new(
            DiagKind::OverLimit,
            format!(
                "recursion budget exhausted (max expression depth {}, max block depth {}); \
                 sub-tree flattened",
                limits.max_expr_depth, limits.max_block_depth,
            ),
        ));
    }
    if is_other && !sig.is_empty() && !orphan_end {
        diags.push(Diagnostic::new(
            DiagKind::ParseDegraded,
            format!("statement fell back to Other (leading keyword {leading:?})"),
        ));
    } else if expr_degraded {
        diags.push(Diagnostic::new(DiagKind::ExprDegraded, "sub-expression fell back to Raw"));
    }
    (ParsedStatement { stmt, tokens: raw.tokens, arena: take_arena() }, diags)
}

/// Re-derive the statement-level diagnostics of an already-parsed
/// statement (no parse flags available — used for pre-parsed intake
/// paths). Sub-expression degradation is not re-detected here.
pub fn diagnose_parsed(p: &ParsedStatement) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if let Statement::Other(o) = &p.stmt {
        if o.leading_keyword == "END" {
            diags.push(Diagnostic::new(
                DiagKind::OrphanEnd,
                "statement begins with END matching no open block",
            ));
        } else if !o.leading_keyword.is_empty() {
            diags.push(Diagnostic::new(
                DiagKind::ParseDegraded,
                format!(
                    "statement fell back to Other (leading keyword {:?})",
                    o.leading_keyword
                ),
            ));
        }
    }
    diags
}

fn parse_tokens(sig: &[Token]) -> Statement {
    let cur = Cursor::new(sig);
    let Some(first) = cur.peek() else {
        return Statement::Other(OtherStatement { leading_keyword: IStr::empty() });
    };
    let leading = first.upper();
    let parsed = match leading.as_str() {
        "SELECT" => parse_select(&mut Cursor::new(sig)).map(Statement::Select),
        "CREATE" => parse_create(&mut Cursor::new(sig)),
        "ALTER" => parse_alter(&mut Cursor::new(sig)).map(Statement::AlterTable),
        "INSERT" | "REPLACE" => parse_insert(&mut Cursor::new(sig)).map(Statement::Insert),
        "UPDATE" => parse_update(&mut Cursor::new(sig)).map(Statement::Update),
        "DELETE" => parse_delete(&mut Cursor::new(sig)).map(Statement::Delete),
        "DROP" => parse_drop(&mut Cursor::new(sig)).map(Statement::Drop),
        _ => None,
    };
    parsed.unwrap_or(Statement::Other(OtherStatement { leading_keyword: leading }))
}

/// Allocate one expression node in the current statement's arena.
fn alloc(e: Expr) -> ExprId {
    ARENA.with(|a| a.borrow_mut().alloc(e))
}

/// Allocate a contiguous child list in the current statement's arena.
fn alloc_range(exprs: Vec<Expr>) -> ExprRange {
    ARENA.with(|a| a.borrow_mut().alloc_range(exprs))
}

/// Move the accumulated arena out (end of one statement's parse).
fn take_arena() -> ExprArena {
    ARENA.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    toks: &'a [Token],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(toks: &'a [Token]) -> Self {
        Cursor { toks, pos: 0 }
    }

    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, ahead: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + ahead)
    }

    fn next(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn eat_keyword(&mut self, kw: Kw) -> bool {
        if self.peek().map(|t| t.is_kw(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keywords(&mut self, kws: &[Kw]) -> bool {
        let save = self.pos;
        for &kw in kws {
            if !self.eat_keyword(kw) {
                self.pos = save;
                return false;
            }
        }
        true
    }

    fn eat_punct(&mut self, ch: char) -> bool {
        if self.peek().map(|t| t.is_punct(ch)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_keyword(&self, kw: Kw) -> bool {
        self.peek().map(|t| t.is_kw(kw)).unwrap_or(false)
    }

    /// Consume an identifier-like token (identifier, quoted identifier, or —
    /// tolerantly — a keyword used as a name).
    fn eat_name(&mut self) -> Option<IStr> {
        let t = self.peek()?;
        match t.kind {
            TokenKind::Ident | TokenKind::QuotedIdent | TokenKind::Keyword => {
                self.pos += 1;
                Some(t.ident_value().into())
            }
            _ => None,
        }
    }

    /// Consume a possibly-qualified object name (`a.b.c`).
    fn eat_object_name(&mut self) -> Option<ObjectName> {
        let mut parts = vec![self.eat_name()?];
        while self.peek().map(|t| t.is_punct('.')).unwrap_or(false)
            && self
                .peek_at(1)
                .map(|t| {
                    matches!(t.kind, TokenKind::Ident | TokenKind::QuotedIdent | TokenKind::Keyword)
                })
                .unwrap_or(false)
        {
            self.pos += 1; // '.'
            parts.push(self.eat_name()?);
        }
        Some(ObjectName(parts))
    }

    /// Collect the token range until the cursor reaches (at paren depth 0)
    /// one of the stop conditions, returning the sub-slice.
    fn take_until(&mut self, stop: impl Fn(&Token) -> bool) -> &'a [Token] {
        let start = self.pos;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0 && stop(t) {
                break;
            }
            self.pos += 1;
        }
        &self.toks[start..self.pos]
    }

    /// Take a balanced `( ... )` group, returning the inner tokens.
    fn take_paren_group(&mut self) -> Option<&'a [Token]> {
        if !self.peek().map(|t| t.is_punct('(')).unwrap_or(false) {
            return None;
        }
        let mut depth = 0i32;
        let start = self.pos + 1;
        let mut i = self.pos;
        while i < self.toks.len() {
            if self.toks[i].is_punct('(') {
                depth += 1;
            } else if self.toks[i].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    let inner = &self.toks[start..i];
                    self.pos = i + 1;
                    return Some(inner);
                }
            }
            i += 1;
        }
        // Unbalanced: consume the rest.
        let inner = &self.toks[start..];
        self.pos = self.toks.len();
        Some(inner)
    }

    /// Remaining tokens as text.
    fn rest_text(&self) -> String {
        join_tokens(&self.toks[self.pos.min(self.toks.len())..])
    }
}

/// Join significant tokens with single spaces (except around `.`, `(`/`)`
/// and before commas) — a readable raw form.
pub(crate) fn join_tokens(toks: &[Token]) -> String {
    let mut out = String::new();
    for (i, t) in toks.iter().enumerate() {
        if i > 0 {
            let prev = &toks[i - 1];
            let no_space = prev.is_punct('(')
                || prev.is_punct('.')
                || t.is_punct('.')
                || t.is_punct(')')
                || t.is_punct(',')
                || (prev.kind == TokenKind::Ident && t.is_punct('('));
            if !no_space {
                out.push(' ');
            }
        }
        out.push_str(&t.text);
    }
    out
}

/// Split a token slice on top-level commas.
fn split_on_commas(toks: &[Token]) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(',') {
            out.push(&toks[start..i]);
            start = i + 1;
        }
    }
    out.push(&toks[start..]);
    out.retain(|s| !s.is_empty());
    out
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

const CLAUSE_STARTERS: &[Kw] = &[
    Kw::FROM, Kw::WHERE, Kw::GROUP, Kw::HAVING, Kw::ORDER, Kw::LIMIT, Kw::OFFSET,
    Kw::UNION, Kw::EXCEPT, Kw::INTERSECT,
];
const JOIN_STARTERS: &[Kw] =
    &[Kw::JOIN, Kw::INNER, Kw::LEFT, Kw::RIGHT, Kw::FULL, Kw::CROSS, Kw::NATURAL];

fn is_clause_boundary(t: &Token) -> bool {
    t.kw.is_some_and(|k| CLAUSE_STARTERS.contains(&k))
}

fn is_join_or_clause_boundary(t: &Token) -> bool {
    is_clause_boundary(t)
        || t.kw.is_some_and(|k| JOIN_STARTERS.contains(&k))
        || t.is_punct(',')
}

fn parse_select(cur: &mut Cursor) -> Option<Select> {
    // Depth guard: derived tables (`FROM (SELECT …)`) recurse here
    // without passing through `parse_prefix`.
    let _depth = enter_expr()?;
    if !cur.eat_keyword(Kw::SELECT) {
        return None;
    }
    let distinct = cur.eat_keyword(Kw::DISTINCT);
    let _ = cur.eat_keyword(Kw::ALL);

    let item_toks = cur.take_until(is_clause_boundary);
    let items = split_on_commas(item_toks)
        .into_iter()
        .map(parse_select_item)
        .collect::<Vec<_>>();

    let mut select = Select {
        distinct,
        items,
        from: None,
        joins: Vec::new(),
        where_clause: None,
        group_by: ExprRange::EMPTY,
        having: None,
        order_by: Vec::new(),
        limit: None,
        set_op_tail: None,
    };

    if cur.eat_keyword(Kw::FROM) {
        select.from = parse_table_ref(cur);
        loop {
            if cur.eat_punct(',') {
                if let Some(table) = parse_table_ref(cur) {
                    select.joins.push(Join {
                        join_type: JoinType::Comma,
                        table,
                        on: None,
                        using: Vec::new(),
                    });
                    continue;
                }
                break;
            }
            let Some(jt) = parse_join_type(cur) else { break };
            let Some(table) = parse_table_ref(cur) else { break };
            let mut join = Join { join_type: jt, table, on: None, using: Vec::new() };
            if cur.eat_keyword(Kw::ON) {
                let on_toks = cur.take_until(is_join_or_clause_boundary);
                join.on = Some(alloc(parse_expr_tokens(on_toks)));
            } else if cur.eat_keyword(Kw::USING) {
                if let Some(inner) = cur.take_paren_group() {
                    join.using = split_on_commas(inner)
                        .into_iter()
                        .filter_map(|s| s.first().map(|t| IStr::new(t.ident_value())))
                        .collect();
                }
            }
            select.joins.push(join);
        }
    }

    if cur.eat_keyword(Kw::WHERE) {
        let toks = cur.take_until(is_clause_boundary);
        select.where_clause = Some(alloc(parse_expr_tokens(toks)));
    }
    if cur.eat_keywords(&[Kw::GROUP, Kw::BY]) {
        let toks = cur.take_until(is_clause_boundary);
        select.group_by = alloc_range(
            split_on_commas(toks).into_iter().map(parse_expr_tokens).collect::<Vec<_>>(),
        );
    }
    if cur.eat_keyword(Kw::HAVING) {
        let toks = cur.take_until(is_clause_boundary);
        select.having = Some(alloc(parse_expr_tokens(toks)));
    }
    if cur.eat_keywords(&[Kw::ORDER, Kw::BY]) {
        let toks = cur.take_until(is_clause_boundary);
        for part in split_on_commas(toks) {
            let (part, asc) = match part.last() {
                Some(t) if t.is_kw(Kw::DESC) => (&part[..part.len() - 1], false),
                Some(t) if t.is_kw(Kw::ASC) => (&part[..part.len() - 1], true),
                _ => (part, true),
            };
            select.order_by.push(OrderItem { expr: alloc(parse_expr_tokens(part)), asc });
        }
    }
    if cur.eat_keyword(Kw::LIMIT) {
        let toks = cur.take_until(|t| {
            t.is_kw(Kw::UNION) || t.is_kw(Kw::EXCEPT) || t.is_kw(Kw::INTERSECT)
                || t.is_kw(Kw::OFFSET)
        });
        select.limit = Some(join_tokens(toks));
        if cur.eat_keyword(Kw::OFFSET) {
            let off = cur.take_until(|t| {
                t.is_kw(Kw::UNION) || t.is_kw(Kw::EXCEPT) || t.is_kw(Kw::INTERSECT)
            });
            if let Some(l) = &mut select.limit {
                l.push_str(" OFFSET ");
                l.push_str(&join_tokens(off));
            }
        }
    }
    if !cur.at_end() {
        select.set_op_tail = Some(cur.rest_text());
    }
    Some(select)
}

fn parse_select_item(toks: &[Token]) -> SelectItem {
    // `*`
    if toks.len() == 1 && toks[0].is_operator("*") {
        return SelectItem::Wildcard { qualifier: None };
    }
    // `t.*`
    if toks.len() == 3 && toks[1].is_punct('.') && toks[2].is_operator("*") {
        return SelectItem::Wildcard { qualifier: Some(toks[0].ident_value().into()) };
    }
    // Trailing `AS alias` or bare alias.
    let (expr_toks, alias) = detach_alias(toks);
    SelectItem::Expr { expr: alloc(parse_expr_tokens(expr_toks)), alias }
}

/// Split `expr [AS] alias` — the alias must be a lone trailing identifier.
fn detach_alias(toks: &[Token]) -> (&[Token], Option<IStr>) {
    if toks.len() >= 3 && toks[toks.len() - 2].is_kw(Kw::AS) {
        let alias_tok = &toks[toks.len() - 1];
        if matches!(alias_tok.kind, TokenKind::Ident | TokenKind::QuotedIdent) {
            return (&toks[..toks.len() - 2], Some(alias_tok.ident_value().into()));
        }
    }
    if toks.len() >= 2 {
        let last = &toks[toks.len() - 1];
        let prev = &toks[toks.len() - 2];
        let prev_ends_expr = matches!(
            prev.kind,
            TokenKind::Ident
                | TokenKind::QuotedIdent
                | TokenKind::NumberLit
                | TokenKind::StringLit
        ) || prev.is_punct(')');
        if matches!(last.kind, TokenKind::Ident | TokenKind::QuotedIdent) && prev_ends_expr {
            // Heuristic bare alias: `expr alias` where both sides are atoms
            // and the pair is not a qualified name (no dot between).
            return (&toks[..toks.len() - 1], Some(last.ident_value().into()));
        }
    }
    (toks, None)
}

fn parse_join_type(cur: &mut Cursor) -> Option<JoinType> {
    let _natural = cur.eat_keyword(Kw::NATURAL);
    if cur.eat_keyword(Kw::JOIN) {
        return Some(JoinType::Inner);
    }
    if cur.eat_keyword(Kw::INNER) {
        cur.eat_keyword(Kw::JOIN);
        return Some(JoinType::Inner);
    }
    if cur.eat_keyword(Kw::LEFT) {
        cur.eat_keyword(Kw::OUTER);
        cur.eat_keyword(Kw::JOIN);
        return Some(JoinType::Left);
    }
    if cur.eat_keyword(Kw::RIGHT) {
        cur.eat_keyword(Kw::OUTER);
        cur.eat_keyword(Kw::JOIN);
        return Some(JoinType::Right);
    }
    if cur.eat_keyword(Kw::FULL) {
        cur.eat_keyword(Kw::OUTER);
        cur.eat_keyword(Kw::JOIN);
        return Some(JoinType::Full);
    }
    if cur.eat_keyword(Kw::CROSS) {
        cur.eat_keyword(Kw::JOIN);
        return Some(JoinType::Cross);
    }
    None
}

fn parse_table_ref(cur: &mut Cursor) -> Option<TableRef> {
    // Derived table: ( SELECT ... ) [AS] alias
    if cur.peek().map(|t| t.is_punct('(')).unwrap_or(false) {
        let inner = cur.take_paren_group()?;
        let sub = parse_select(&mut Cursor::new(inner));
        let alias = parse_optional_alias(cur);
        return Some(TableRef {
            name: ObjectName::default(),
            alias,
            subquery: sub.map(Box::new),
        });
    }
    let name = cur.eat_object_name()?;
    let alias = parse_optional_alias(cur);
    Some(TableRef { name, alias, subquery: None })
}

fn parse_optional_alias(cur: &mut Cursor) -> Option<IStr> {
    if cur.eat_keyword(Kw::AS) {
        return cur.eat_name();
    }
    // Bare alias: an identifier that is not a clause/join keyword.
    if let Some(t) = cur.peek() {
        if matches!(t.kind, TokenKind::Ident | TokenKind::QuotedIdent) {
            cur.pos += 1;
            return Some(t.ident_value().into());
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Expressions (Pratt parser, total via Raw fallback)
// ---------------------------------------------------------------------------

/// Parse a token slice into an expression. If the slice cannot be fully
/// consumed, the whole slice is preserved as [`Expr::Raw`].
pub fn parse_expr_tokens(toks: &[Token]) -> Expr {
    if toks.is_empty() {
        return Expr::Raw(String::new());
    }
    let mut cur = Cursor::new(toks);
    match parse_expr_bp(&mut cur, 0) {
        Some(e) if cur.at_end() => e,
        _ => {
            EXPR_DEGRADED.with(|f| f.set(true));
            Expr::Raw(join_tokens(toks))
        }
    }
}

/// Parse an expression string (helper for tests and the fix engine).
/// Returns the root node by value plus the arena its children live in.
pub fn parse_expr_str(sql: &str) -> (ExprArena, Expr) {
    let toks = crate::lexer::tokenize_significant(sql, active_dialect());
    let root = parse_expr_tokens(&toks);
    (take_arena(), root)
}

fn binding_power(tok: &Token) -> Option<(u8, &'static str)> {
    // (left binding power, canonical op). Right bp = lbp + 1 (left assoc).
    if tok.kind == TokenKind::Keyword {
        let u = tok.upper();
        return match u.as_str() {
            "OR" => Some((1, "OR")),
            "AND" => Some((3, "AND")),
            _ => None,
        };
    }
    if tok.kind == TokenKind::Operator {
        return match tok.text.as_str() {
            "=" | "==" | "<>" | "!=" | "<" | "<=" | ">" | ">=" | "<=>" => Some((7, "cmp")),
            "||" => Some((9, "||")),
            "+" | "-" => Some((9, "add")),
            "*" | "/" | "%" => Some((11, "mul")),
            _ => None,
        };
    }
    None
}

fn parse_expr_bp(cur: &mut Cursor, min_bp: u8) -> Option<Expr> {
    let mut lhs = parse_prefix(cur)?;

    while let Some(tok) = cur.peek() {

        // Postfix-ish keyword operators: IS [NOT] NULL, [NOT] IN, [NOT]
        // BETWEEN, [NOT] LIKE/ILIKE/REGEXP/RLIKE/GLOB/SIMILAR TO.
        if tok.kind == TokenKind::Keyword && min_bp <= 5 {
            let u = tok.upper();
            match u.as_str() {
                "IS" => {
                    cur.pos += 1;
                    let negated = cur.eat_keyword(Kw::NOT);
                    if cur.eat_keyword(Kw::NULL) {
                        lhs = Expr::IsNull { expr: alloc(lhs), negated };
                        continue;
                    }
                    // IS TRUE / IS FALSE / IS DISTINCT FROM ... — raw-ish
                    let rhs = parse_prefix(cur)?;
                    lhs = Expr::Binary {
                        left: alloc(lhs),
                        op: if negated { "IS NOT".into() } else { "IS".into() },
                        right: alloc(rhs),
                    };
                    continue;
                }
                "NOT" | "IN" | "BETWEEN" | "LIKE" | "ILIKE" | "REGEXP" | "RLIKE" | "GLOB"
                | "SIMILAR" => {
                    let save = cur.pos;
                    let negated = cur.eat_keyword(Kw::NOT);
                    if let Some(e) = parse_like_in_between(cur, lhs.clone(), negated) {
                        lhs = e;
                        continue;
                    }
                    cur.pos = save;
                }
                _ => {}
            }
        }

        let Some((lbp, class)) = binding_power(tok) else { break };
        if lbp < min_bp {
            break;
        }
        let op_text = if tok.kind == TokenKind::Keyword { tok.upper() } else { tok.text.clone() };
        let _ = class;
        cur.pos += 1;
        let rhs = parse_expr_bp(cur, lbp + 1)?;
        lhs = Expr::Binary { left: alloc(lhs), op: op_text, right: alloc(rhs) };
    }
    Some(lhs)
}

fn parse_like_in_between(cur: &mut Cursor, lhs: Expr, negated: bool) -> Option<Expr> {
    if cur.eat_keyword(Kw::IN) {
        let inner = cur.take_paren_group()?;
        // Subquery IN — keep raw to stay total.
        if inner.first().map(|t| t.is_kw(Kw::SELECT)).unwrap_or(false) {
            let sub = parse_select(&mut Cursor::new(inner))?;
            return Some(Expr::InList {
                expr: alloc(lhs),
                list: alloc_range(vec![Expr::Subquery(Box::new(sub))]),
                negated,
            });
        }
        let list = split_on_commas(inner).into_iter().map(parse_expr_tokens).collect();
        return Some(Expr::InList { expr: alloc(lhs), list: alloc_range(list), negated });
    }
    if cur.eat_keyword(Kw::BETWEEN) {
        let low = parse_expr_bp(cur, 8)?;
        if !cur.eat_keyword(Kw::AND) {
            return None;
        }
        let high = parse_expr_bp(cur, 8)?;
        return Some(Expr::Between {
            expr: alloc(lhs),
            low: alloc(low),
            high: alloc(high),
            negated,
        });
    }
    // Dialect-specific LIKE-family operators only shape nodes where the
    // active dialect admits them; elsewhere the keyword is left uneaten
    // and the caller's save/restore sends the expression to `Raw`.
    let d = active_dialect();
    let admits = |kw: Kw| d.admits_keyword(kw);
    let op = if cur.eat_keyword(Kw::LIKE) {
        LikeOp::Like
    } else if admits(Kw::ILIKE) && cur.eat_keyword(Kw::ILIKE) {
        LikeOp::ILike
    } else if (admits(Kw::REGEXP) && cur.eat_keyword(Kw::REGEXP))
        || (admits(Kw::RLIKE) && cur.eat_keyword(Kw::RLIKE))
    {
        LikeOp::Regexp
    } else if admits(Kw::GLOB) && cur.eat_keyword(Kw::GLOB) {
        LikeOp::Glob
    } else if admits(Kw::SIMILAR) && cur.eat_keywords(&[Kw::SIMILAR, Kw::TO]) {
        LikeOp::Similar
    } else {
        return None;
    };
    let pattern = parse_expr_bp(cur, 8)?;
    Some(Expr::Like { expr: alloc(lhs), op, pattern: alloc(pattern), negated })
}

fn parse_prefix(cur: &mut Cursor) -> Option<Expr> {
    // Depth guard: every expression recursion path passes through here
    // (unary chains, nested parens, subqueries via the paren branch), so
    // one ticket bounds the stack for the whole expression grammar.
    let _depth = enter_expr()?;
    let tok = cur.peek()?;
    match tok.kind {
        TokenKind::Keyword => {
            let u = tok.upper();
            match u.as_str() {
                "NOT" => {
                    cur.pos += 1;
                    let e = parse_expr_bp(cur, 5)?;
                    Some(Expr::Unary { op: "NOT".into(), expr: alloc(e) })
                }
                "NULL" => {
                    cur.pos += 1;
                    Some(Expr::Null)
                }
                "TRUE" => {
                    cur.pos += 1;
                    Some(Expr::BoolLit(true))
                }
                "FALSE" => {
                    cur.pos += 1;
                    Some(Expr::BoolLit(false))
                }
                "EXISTS" => {
                    cur.pos += 1;
                    let inner = cur.take_paren_group()?;
                    let sub = parse_select(&mut Cursor::new(inner))?;
                    Some(Expr::Unary {
                        op: "EXISTS".into(),
                        expr: alloc(Expr::Subquery(Box::new(sub))),
                    })
                }
                "CASE" => parse_case_raw(cur),
                "CAST" => {
                    cur.pos += 1;
                    let inner = cur.take_paren_group()?;
                    Some(Expr::Function {
                        name: "CAST".into(),
                        args: alloc_range(vec![Expr::Raw(join_tokens(inner))]),
                        distinct: false,
                    })
                }
                "INTERVAL" => {
                    cur.pos += 1;
                    let arg = parse_prefix(cur)?;
                    Some(Expr::Unary { op: "INTERVAL".into(), expr: alloc(arg) })
                }
                // Keyword used as function (REPLACE(...), RAND(), etc.) or
                // bare keyword-ish identifier (dialect-tolerant).
                _ => {
                    if cur.peek_at(1).map(|t| t.is_punct('(')).unwrap_or(false) {
                        parse_function(cur)
                    } else if matches!(
                        u.as_str(),
                        "CURRENT_TIMESTAMP" | "CURRENT_DATE" | "CURRENT_TIME"
                    ) {
                        cur.pos += 1;
                        Some(Expr::Function { name: u, args: ExprRange::EMPTY, distinct: false })
                    } else {
                        cur.pos += 1;
                        Some(Expr::ident(tok.ident_value()))
                    }
                }
            }
        }
        TokenKind::Ident | TokenKind::QuotedIdent => {
            if cur.peek_at(1).map(|t| t.is_punct('(')).unwrap_or(false) {
                return parse_function(cur);
            }
            // qualified identifier chain, possibly ending in `.*`
            let mut parts = vec![IStr::new(tok.ident_value())];
            cur.pos += 1;
            while cur.peek().map(|t| t.is_punct('.')).unwrap_or(false) {
                if let Some(nxt) = cur.peek_at(1) {
                    if nxt.is_operator("*") {
                        cur.pos += 2;
                        parts.push("*".into());
                        break;
                    }
                    if matches!(
                        nxt.kind,
                        TokenKind::Ident | TokenKind::QuotedIdent | TokenKind::Keyword
                    ) {
                        cur.pos += 2;
                        parts.push(nxt.ident_value().into());
                        continue;
                    }
                }
                break;
            }
            Some(Expr::Ident(parts))
        }
        TokenKind::StringLit => {
            cur.pos += 1;
            Some(Expr::StringLit(tok.string_value().unwrap_or_default()))
        }
        TokenKind::NumberLit => {
            cur.pos += 1;
            Some(Expr::NumberLit(tok.text.clone()))
        }
        TokenKind::Param => {
            cur.pos += 1;
            Some(Expr::Param(tok.text.clone()))
        }
        TokenKind::Operator => {
            let t = tok.text.clone();
            if t == "-" || t == "+" || t == "~" {
                cur.pos += 1;
                let e = parse_expr_bp(cur, 13)?;
                return Some(Expr::Unary { op: t, expr: alloc(e) });
            }
            if t == "*" {
                cur.pos += 1;
                return Some(Expr::ident("*"));
            }
            None
        }
        TokenKind::Punct => {
            if tok.is_punct('(') {
                let inner = cur.take_paren_group()?;
                if inner.first().map(|t| t.is_kw(Kw::SELECT)).unwrap_or(false) {
                    let sub = parse_select(&mut Cursor::new(inner))?;
                    return Some(Expr::Subquery(Box::new(sub)));
                }
                let e = parse_expr_tokens(inner);
                return Some(Expr::Paren(alloc(e)));
            }
            None
        }
        _ => None,
    }
}

fn parse_case_raw(cur: &mut Cursor) -> Option<Expr> {
    // CASE ... END preserved raw (detection rules don't descend into CASE).
    let start = cur.pos;
    let mut depth = 0i32;
    while let Some(t) = cur.next() {
        if t.is_kw(Kw::CASE) {
            depth += 1;
        } else if t.is_kw(Kw::END) {
            depth -= 1;
            if depth == 0 {
                return Some(Expr::Raw(join_tokens(&cur.toks[start..cur.pos])));
            }
        }
    }
    Some(Expr::Raw(join_tokens(&cur.toks[start..])))
}

fn parse_function(cur: &mut Cursor) -> Option<Expr> {
    let name_tok = cur.next()?;
    let name: IStr = name_tok.ident_value().into();
    let inner = cur.take_paren_group()?;
    let mut distinct = false;
    let arg_toks: &[Token] = if inner.first().map(|t| t.is_kw(Kw::DISTINCT)).unwrap_or(false) {
        distinct = true;
        &inner[1..]
    } else {
        inner
    };
    let args = if arg_toks.is_empty() {
        Vec::new()
    } else {
        split_on_commas(arg_toks).into_iter().map(parse_expr_tokens).collect()
    };
    Some(Expr::Function { name, args: alloc_range(args), distinct })
}

// ---------------------------------------------------------------------------
// CREATE TABLE / CREATE INDEX
// ---------------------------------------------------------------------------

fn parse_create(cur: &mut Cursor) -> Option<Statement> {
    if !cur.eat_keyword(Kw::CREATE) {
        return None;
    }
    let _ = cur.eat_keywords(&[Kw::OR, Kw::REPLACE]);
    let unique = cur.eat_keyword(Kw::UNIQUE);
    let _ = cur.eat_keyword(Kw::TEMP) || cur.eat_keyword(Kw::TEMPORARY);
    // MySQL `DEFINER = user@host` (also quoted forms): skip up to the
    // object kind — DEFINER only precedes routine-ish objects.
    if cur.eat_name_if("DEFINER") {
        let _ = cur.take_until(|t| {
            t.is_kw(Kw::TRIGGER) || t.is_kw(Kw::PROCEDURE) || t.is_kw(Kw::FUNCTION)
        });
    }
    if cur.eat_keyword(Kw::TABLE) {
        return parse_create_table(cur).map(Statement::CreateTable);
    }
    if cur.eat_keyword(Kw::INDEX) {
        return parse_create_index(cur, unique).map(Statement::CreateIndex);
    }
    if cur.eat_keyword(Kw::TRIGGER) {
        return parse_create_trigger(cur).map(Statement::CreateTrigger);
    }
    if cur.eat_keyword(Kw::PROCEDURE) {
        return parse_create_routine(cur, RoutineKind::Procedure).map(Statement::CreateRoutine);
    }
    if cur.eat_keyword(Kw::FUNCTION) {
        return parse_create_routine(cur, RoutineKind::Function).map(Statement::CreateRoutine);
    }
    None
}

// ---------------------------------------------------------------------------
// CREATE TRIGGER / PROCEDURE / FUNCTION (compound statements)
// ---------------------------------------------------------------------------

/// Base offset for body-statement spans: sub-statement spans are stored
/// relative to the enclosing statement's first significant token, so they
/// stay valid for every occurrence of a duplicated text.
fn stmt_base(cur: &Cursor) -> usize {
    cur.toks.first().map(|t| t.span.start).unwrap_or(0)
}

/// Parse one body piece (a token slice of a compound body) into
/// [`BodyStatement`]s with statement-relative spans. Control-flow
/// headers (`IF <cond> THEN`, `ELSEIF … THEN`, `ELSE`, `WHILE … DO`,
/// `LOOP`, `REPEAT`) are stripped so the *executable* statement inside
/// the construct surfaces — a `SELECT *` behind `IF … THEN` is still a
/// statement detection rules must see — and nested `BEGIN…END` pieces
/// recurse into their interior statements.
fn push_body(out: &mut Vec<BodyStatement>, toks: &[Token], base: usize) {
    let toks = strip_construct_header(toks);
    if toks.is_empty() {
        return;
    }
    if toks[0].is_kw(Kw::BEGIN) {
        // Nested block: flatten its interior statements (token spans are
        // statement-absolute, so recursion keeps spans correct). Past the
        // nesting budget the block is kept as one flat `Other` piece
        // instead of recursing further.
        if let Some(_nest) = enter_block() {
            let mut cur = Cursor::new(&toks[1..]);
            out.extend(collect_body(&mut cur, base, true));
            return;
        }
    }
    let start = toks[0].span.start.saturating_sub(base);
    let end = toks[toks.len() - 1].span.end.saturating_sub(base);
    out.push(BodyStatement { stmt: parse_tokens(toks), span: crate::token::Span::new(start, end) });
}

/// Strip leading control-flow construct headers from a body piece, so
/// the piece parses as the executable statement it guards:
///
/// * `IF <cond> THEN stmt` / `ELSEIF <cond> THEN stmt` → `stmt`
/// * `WHILE <cond> DO stmt` → `stmt`
/// * `ELSE stmt` / `LOOP stmt` / `REPEAT stmt` → `stmt`
/// * `END IF|LOOP|WHILE|REPEAT` and `UNTIL <cond> END REPEAT` → nothing
///
/// Headers nest (`IF a THEN IF b THEN stmt`), so stripping loops.
/// `IF(` (the MySQL function) and `IF [NOT] EXISTS` never reach here as
/// piece heads, and a headless piece is returned unchanged.
fn strip_construct_header(mut toks: &[Token]) -> &[Token] {
    loop {
        let Some(first) = toks.first() else { return toks };
        let word = |w: Kw| first.is_kw(w);
        if word(Kw::IF) || word(Kw::ELSEIF) {
            match find_marker(&toks[1..], "THEN") {
                Some(i) => toks = &toks[i + 2..],
                None => return toks, // no THEN: not a construct header
            }
        } else if word(Kw::WHILE) {
            match find_marker(&toks[1..], "DO") {
                Some(i) => toks = &toks[i + 2..],
                None => return toks,
            }
        } else if word(Kw::ELSE) || word(Kw::LOOP) || word(Kw::REPEAT) || word(Kw::THEN) {
            toks = &toks[1..];
        } else if word(Kw::END)
            && toks.get(1).map(|n| {
                ["IF", "LOOP", "WHILE", "REPEAT"]
                    .iter()
                    .any(|w| n.text.eq_ignore_ascii_case(w))
            }).unwrap_or(false)
        {
            return &[]; // `END IF;` pieces carry no statement
        } else if first.text.eq_ignore_ascii_case("UNTIL") {
            return &[]; // `UNTIL <cond> END REPEAT` carries no statement
        } else {
            return toks;
        }
    }
}

/// Index of the first `marker` word at paren/CASE depth 0 (the `THEN`
/// of an `IF` condition or the `DO` of a `WHILE` — a `CASE … THEN …
/// END` inside the condition must not end it).
fn find_marker(toks: &[Token], marker: &str) -> Option<usize> {
    let mut paren = 0i32;
    let mut case = 0i32;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_kw(Kw::CASE) {
            case += 1;
        } else if t.is_kw(Kw::END) {
            case -= 1;
        } else if paren == 0
            && case == 0
            && (t.kind == TokenKind::Keyword || t.kind == TokenKind::Ident)
            && t.text.eq_ignore_ascii_case(marker)
        {
            return Some(i);
        }
    }
    None
}

/// True when `t` closes a control-flow construct after `END` (`END IF`,
/// `END LOOP`, `END WHILE`, `END REPEAT`).
fn ends_construct(t: &Token) -> bool {
    ["IF", "LOOP", "WHILE", "REPEAT"].iter().any(|w| {
        (t.kind == TokenKind::Keyword || t.kind == TokenKind::Ident)
            && t.text.eq_ignore_ascii_case(w)
    })
}

/// Split the statements of a compound body, honouring nested
/// `BEGIN…END` blocks and `CASE…END` expressions — the token-level twin
/// of the splitter's block tracker (same `BEGIN`/`CASE`/`END` accounting
/// and `END` lookahead; control-flow constructs are not depth-counted in
/// either, their pieces are header-stripped by [`push_body`] instead).
/// When `in_block` is true the cursor stands right after a `BEGIN` and
/// parsing stops at (and consumes) the matching `END`; otherwise the
/// whole remaining stream is body text (dollar-quoted `LANGUAGE sql`
/// bodies).
fn collect_body(cur: &mut Cursor, base: usize, in_block: bool) -> Vec<BodyStatement> {
    let mut depth: u32 = u32::from(in_block);
    let mut case_depth: u32 = 0;
    let mut body = Vec::new();
    let mut piece = cur.pos;
    while let Some(t) = cur.peek() {
        if t.is_kw(Kw::BEGIN) {
            depth += 1;
        } else if t.is_kw(Kw::CASE) {
            case_depth += 1;
        } else if t.is_kw(Kw::END) {
            if cur.peek_at(1).map(ends_construct).unwrap_or(false) {
                cur.pos += 2; // END IF & friends: no depth change
                continue;
            }
            if cur.peek_at(1).map(|n| n.is_kw(Kw::CASE)).unwrap_or(false) {
                case_depth = case_depth.saturating_sub(1);
                cur.pos += 2;
                continue;
            }
            if case_depth > 0 {
                case_depth -= 1;
            } else if depth > 0 {
                depth -= 1;
                if in_block && depth == 0 {
                    push_body(&mut body, &cur.toks[piece..cur.pos], base);
                    cur.pos += 1; // consume the closing END
                    return body;
                }
            }
        } else if t.is_punct(';') && case_depth == 0 && depth == u32::from(in_block) {
            push_body(&mut body, &cur.toks[piece..cur.pos], base);
            cur.pos += 1;
            piece = cur.pos;
            continue;
        }
        cur.pos += 1;
    }
    // Unterminated block (or plain script body): keep the trailing piece.
    if in_block {
        // The matching END is only ever consumed by the early return
        // above, so falling through with `in_block` means the block ran
        // to end of input unclosed.
        UNTERMINATED.with(|f| f.set(true));
    }
    push_body(&mut body, &cur.toks[piece..cur.pos], base);
    body
}

fn parse_create_trigger(cur: &mut Cursor) -> Option<CreateTrigger> {
    let base = stmt_base(cur);
    let _ = cur.eat_keywords(&[Kw::IF, Kw::NOT, Kw::EXISTS]);
    let name = cur.eat_object_name()?;
    let timing = if cur.eat_keyword(Kw::BEFORE) {
        Some("BEFORE".to_string())
    } else if cur.eat_keyword(Kw::AFTER) {
        Some("AFTER".to_string())
    } else if cur.eat_name_if("INSTEAD") {
        let _ = cur.eat_name_if("OF");
        Some("INSTEAD OF".to_string())
    } else {
        None
    };
    // Events up to ON: `INSERT OR UPDATE OF col, col2 OR DELETE` etc.
    let ev_toks = cur.take_until(|t| t.is_kw(Kw::ON));
    let events: Vec<String> = ev_toks
        .iter()
        .filter(|t| {
            t.is_kw(Kw::INSERT)
                || t.is_kw(Kw::UPDATE)
                || t.is_kw(Kw::DELETE)
                || t.is_kw(Kw::TRUNCATE)
        })
        .map(|t| t.upper().to_string())
        .collect();
    if !cur.eat_keyword(Kw::ON) {
        return None;
    }
    let table = cur.eat_object_name()?;
    let for_each_row = cur.eat_keywords(&[Kw::FOR, Kw::EACH, Kw::ROW]);
    // `FOR EACH STATEMENT` is not consumed here: STATEMENT is not in the
    // keyword table (it lexes as an identifier), so the phrase never
    // matched a keyword sequence; the body collector tolerates it.
    let when = if cur.eat_keyword(Kw::WHEN) {
        let toks = cur
            .take_until(|t| t.is_kw(Kw::BEGIN) || t.text.eq_ignore_ascii_case("EXECUTE"));
        Some(join_tokens(toks))
    } else {
        None
    };
    let mut body = Vec::new();
    if cur.eat_keyword(Kw::BEGIN) {
        body = collect_body(cur, base, true);
    } else if !cur.at_end() {
        // Postgres form: `EXECUTE FUNCTION f(...)` — a one-statement body.
        push_body(&mut body, &cur.toks[cur.pos..], base);
        cur.pos = cur.toks.len();
    }
    Some(CreateTrigger { name, timing, events, table, for_each_row, when, body })
}

fn parse_create_routine(cur: &mut Cursor, kind: RoutineKind) -> Option<CreateRoutine> {
    let base = stmt_base(cur);
    let _ = cur.eat_keywords(&[Kw::IF, Kw::NOT, Kw::EXISTS]);
    let name = cur.eat_object_name()?;
    let params = cur.take_paren_group().map(join_tokens);
    let mut language = None;
    let mut body = Vec::new();
    // Scan header characteristics (RETURNS type, DETERMINISTIC, AS, …)
    // until the body: a BEGIN…END block, a dollar-quoted string, or a
    // bare single-statement body (MySQL `CREATE PROCEDURE p() SELECT 1`).
    while let Some(t) = cur.peek() {
        if t.is_kw(Kw::BEGIN) {
            cur.pos += 1;
            // SQL-standard `BEGIN ATOMIC` body (Postgres 14+ SQL-body
            // routines): ATOMIC is part of the opener, not the first
            // body statement. Not a [`Kw`] — it is an ordinary word
            // everywhere else.
            if active_dialect().begin_atomic() {
                if let Some(n) = cur.peek() {
                    if n.kind == TokenKind::Ident && n.text.eq_ignore_ascii_case("ATOMIC") {
                        cur.pos += 1;
                    }
                }
            }
            body = collect_body(cur, base, true);
            continue;
        }
        if t.kind == TokenKind::StringLit && t.text.starts_with('$') && body.is_empty() {
            body = parse_dollar_body(t, base);
            cur.pos += 1;
            continue;
        }
        if t.is_kw(Kw::LANGUAGE) {
            cur.pos += 1;
            language = cur.eat_name().map(String::from);
            continue;
        }
        if body.is_empty()
            && (t.is_kw(Kw::SELECT)
                || t.is_kw(Kw::INSERT)
                || t.is_kw(Kw::UPDATE)
                || t.is_kw(Kw::DELETE)
                || t.is_kw(Kw::SET)
                || t.is_kw(Kw::RETURN))
        {
            push_body(&mut body, &cur.toks[cur.pos..], base);
            cur.pos = cur.toks.len();
            break;
        }
        cur.pos += 1;
    }
    Some(CreateRoutine { kind, name, params, language, body })
}

/// Re-lex and parse a dollar-quoted routine body (`$tag$ … $tag$`): the
/// splitter keeps the body opaque (one string token), so compound
/// statements inside it are parsed here, with spans rebased into the
/// enclosing statement.
fn parse_dollar_body(tok: &Token, base: usize) -> Vec<BodyStatement> {
    let text = tok.text.as_str();
    let tag_len = match text[1..].find('$') {
        Some(i) => i + 2,
        None => return Vec::new(),
    };
    let inner_end = if text.len() >= 2 * tag_len && text.ends_with(&text[..tag_len]) {
        text.len() - tag_len
    } else {
        text.len() // unterminated dollar quote: take everything
    };
    let inner = &text[tag_len..inner_end];
    // Rebase inner offsets: absolute position of the body text, then
    // relative to the statement base (like every body span).
    let shift = tok.span.start + tag_len;
    let toks: Vec<Token> = crate::lexer::tokenize_significant(inner, active_dialect())
        .into_iter()
        .map(|t| {
            Token::new(
                t.kind,
                t.text,
                crate::token::Span::new(t.span.start + shift, t.span.end + shift),
            )
        })
        .collect();
    let mut cur = Cursor::new(&toks);
    // PL/pgSQL shape: optional DECLARE section, then BEGIN … END.
    if cur.peek_keyword(Kw::DECLARE) {
        let _ = cur.take_until(|t| t.is_kw(Kw::BEGIN));
    }
    if cur.eat_keyword(Kw::BEGIN) {
        collect_body(&mut cur, base, true)
    } else {
        // LANGUAGE sql body: a plain `;`-separated script.
        collect_body(&mut cur, base, false)
    }
}

fn parse_create_table(cur: &mut Cursor) -> Option<CreateTable> {
    let if_not_exists = cur.eat_keywords(&[Kw::IF, Kw::NOT, Kw::EXISTS]);
    let name = cur.eat_object_name()?;
    let body = cur.take_paren_group()?;
    let mut columns = Vec::new();
    let mut constraints = Vec::new();
    for element in split_on_commas(body) {
        let mut ec = Cursor::new(element);
        if let Some(tc) = try_parse_table_constraint(&mut ec) {
            constraints.push(tc);
        } else if let Some(cd) = parse_column_def(&mut Cursor::new(element)) {
            columns.push(cd);
        }
        // Unparseable elements are dropped from the structure but remain in
        // the raw tokens of the statement.
    }
    let options = cur.rest_text();
    Some(CreateTable { name, if_not_exists, columns, constraints, options })
}

fn try_parse_table_constraint(cur: &mut Cursor) -> Option<TableConstraint> {
    let mut name = None;
    if cur.peek_keyword(Kw::CONSTRAINT) {
        cur.pos += 1;
        name = cur.eat_name();
    }
    let kind = if cur.eat_keywords(&[Kw::PRIMARY, Kw::KEY]) {
        let cols = cur.take_paren_group().map(parse_name_list).unwrap_or_default();
        TableConstraintKind::PrimaryKey(cols)
    } else if cur.eat_keyword(Kw::UNIQUE) {
        let cols = cur.take_paren_group().map(parse_name_list)?;
        TableConstraintKind::Unique(cols)
    } else if cur.eat_keywords(&[Kw::FOREIGN, Kw::KEY]) {
        let cols = cur.take_paren_group().map(parse_name_list).unwrap_or_default();
        if !cur.eat_keyword(Kw::REFERENCES) {
            return Some(TableConstraint {
                name,
                kind: TableConstraintKind::Other(cur.rest_text()),
            });
        }
        let reference = parse_fk_ref(cur)?;
        TableConstraintKind::ForeignKey { columns: cols, reference }
    } else if cur.eat_keyword(Kw::CHECK) {
        let inner = cur.take_paren_group()?;
        TableConstraintKind::Check(parse_check(inner))
    } else {
        return None;
    };
    Some(TableConstraint { name, kind })
}

fn parse_name_list(toks: &[Token]) -> Vec<IStr> {
    split_on_commas(toks)
        .into_iter()
        .filter_map(|s| s.first().map(|t| IStr::new(t.ident_value())))
        .collect()
}

fn parse_fk_ref(cur: &mut Cursor) -> Option<ForeignKeyRef> {
    let table = cur.eat_object_name()?;
    let columns = if cur.peek().map(|t| t.is_punct('(')).unwrap_or(false) {
        cur.take_paren_group().map(parse_name_list).unwrap_or_default()
    } else {
        Vec::new()
    };
    let mut actions = Vec::new();
    while cur.peek_keyword(Kw::ON) {
        let start = cur.pos;
        cur.pos += 1; // ON
        let evt = cur.eat_name(); // DELETE / UPDATE
        let act1 = cur.eat_name(); // CASCADE / SET / RESTRICT / NO
        let act2 = if matches!(act1.as_deref().map(str::to_ascii_uppercase).as_deref(), Some("SET") | Some("NO"))
        {
            cur.eat_name()
        } else {
            None
        };
        if evt.is_none() || act1.is_none() {
            cur.pos = start;
            break;
        }
        let mut s = format!("ON {}", evt.unwrap().to_ascii_uppercase());
        s.push(' ');
        s.push_str(&act1.unwrap().to_ascii_uppercase());
        if let Some(a2) = act2 {
            s.push(' ');
            s.push_str(&a2.to_ascii_uppercase());
        }
        actions.push(s);
    }
    Some(ForeignKeyRef { table, columns, actions })
}

fn parse_check(inner: &[Token]) -> CheckConstraint {
    let expr_text = join_tokens(inner);
    // Recognise `col IN ('a', 'b', ...)` — the Enumerated Types AP shape.
    let mut cur = Cursor::new(inner);
    let in_list = (|| {
        let col = cur.eat_name()?;
        if !cur.eat_keyword(Kw::IN) {
            return None;
        }
        let list = cur.take_paren_group()?;
        if !cur.at_end() {
            return None;
        }
        let values: Vec<IStr> = split_on_commas(list)
            .iter()
            .filter_map(|s| s.first())
            .filter(|t| t.kind == TokenKind::StringLit || t.kind == TokenKind::NumberLit)
            .map(|t| t.string_value().unwrap_or_else(|| t.text.clone()))
            .collect();
        if values.is_empty() {
            None
        } else {
            Some((col, values))
        }
    })();
    CheckConstraint { expr_text, in_list }
}

const COLUMN_CONSTRAINT_STARTERS: &[Kw] = &[
    Kw::PRIMARY, Kw::NOT, Kw::NULL, Kw::UNIQUE, Kw::DEFAULT, Kw::CHECK, Kw::REFERENCES,
    Kw::AUTO_INCREMENT, Kw::AUTOINCREMENT, Kw::COLLATE, Kw::CONSTRAINT,
];

fn parse_column_def(cur: &mut Cursor) -> Option<ColumnDef> {
    let name = match cur.peek()?.kind {
        TokenKind::Ident | TokenKind::QuotedIdent => cur.eat_name()?,
        // Tolerate keywords as column names (e.g. `key`, `order` in sloppy
        // schemas) unless it *starts* a constraint.
        TokenKind::Keyword
            if !cur.peek().unwrap().kw.is_some_and(|k| COLUMN_CONSTRAINT_STARTERS.contains(&k)) =>
        {
            cur.eat_name()?
        }
        _ => return None,
    };
    let data_type = parse_type_name(cur);
    let mut constraints = Vec::new();
    while !cur.at_end() {
        if cur.eat_keywords(&[Kw::PRIMARY, Kw::KEY]) {
            constraints.push(ColumnConstraint::PrimaryKey);
        } else if cur.eat_keywords(&[Kw::NOT, Kw::NULL]) {
            constraints.push(ColumnConstraint::NotNull);
        } else if cur.eat_keyword(Kw::NULL) {
            constraints.push(ColumnConstraint::Null);
        } else if cur.eat_keyword(Kw::UNIQUE) {
            constraints.push(ColumnConstraint::Unique);
        } else if cur.eat_keyword(Kw::AUTO_INCREMENT) || cur.eat_keyword(Kw::AUTOINCREMENT) {
            constraints.push(ColumnConstraint::AutoIncrement);
        } else if cur.eat_keyword(Kw::DEFAULT) {
            let toks = cur.take_until(|t| {
                t.kw.is_some_and(|k| COLUMN_CONSTRAINT_STARTERS.contains(&k))
            });
            constraints.push(ColumnConstraint::Default(join_tokens(toks)));
        } else if cur.eat_keyword(Kw::CHECK) {
            if let Some(inner) = cur.take_paren_group() {
                constraints.push(ColumnConstraint::Check(parse_check(inner)));
            }
        } else if cur.eat_keyword(Kw::REFERENCES) {
            if let Some(r) = parse_fk_ref(cur) {
                constraints.push(ColumnConstraint::References(r));
            }
        } else {
            // Preserve whatever is left (COLLATE ..., dialect noise).
            let rest = cur.rest_text();
            cur.pos = cur.toks.len();
            if !rest.is_empty() {
                constraints.push(ColumnConstraint::Other(rest));
            }
        }
    }
    Some(ColumnDef { name, data_type, constraints })
}

fn parse_type_name(cur: &mut Cursor) -> Option<TypeName> {
    let tok = cur.peek()?;
    let is_type_word = matches!(tok.kind, TokenKind::Keyword | TokenKind::Ident);
    if !is_type_word {
        return None;
    }
    // Words that start a constraint cannot be a type.
    if tok.kw.is_some_and(|k| COLUMN_CONSTRAINT_STARTERS.contains(&k)) {
        return None;
    }
    let mut name = tok.upper();
    cur.pos += 1;
    // Two-word types: DOUBLE PRECISION, CHARACTER VARYING.
    if name == "DOUBLE" && cur.eat_keyword(Kw::PRECISION) {
        name = "DOUBLE".into();
    } else if name == "CHARACTER" && cur.eat_keyword(Kw::VARYING) {
        name = "VARCHAR".into();
    }
    let mut ty = TypeName { name, args: Vec::new(), modifiers: Vec::new() };
    if cur.peek().map(|t| t.is_punct('(')).unwrap_or(false) {
        if let Some(inner) = cur.take_paren_group() {
            ty.args = split_on_commas(inner).iter().map(|s| join_tokens(s).into()).collect();
        }
    }
    if cur.eat_keyword(Kw::UNSIGNED) {
        ty.modifiers.push("UNSIGNED".into());
    }
    if cur.eat_keywords(&[Kw::WITH, Kw::TIME, Kw::ZONE]) {
        ty.modifiers.push("WITH TIME ZONE".into());
    } else if cur.eat_keywords(&[Kw::WITHOUT, Kw::TIME, Kw::ZONE]) {
        ty.modifiers.push("WITHOUT TIME ZONE".into());
    }
    Some(ty)
}

fn parse_create_index(cur: &mut Cursor, unique: bool) -> Option<CreateIndex> {
    let _ = cur.eat_keywords(&[Kw::IF, Kw::NOT, Kw::EXISTS]);
    let name = cur.eat_name().unwrap_or_default();
    if !cur.eat_keyword(Kw::ON) {
        return None;
    }
    let table = cur.eat_object_name()?;
    let columns = cur.take_paren_group().map(parse_name_list).unwrap_or_default();
    Some(CreateIndex { name, table, columns, unique })
}

// ---------------------------------------------------------------------------
// ALTER / INSERT / UPDATE / DELETE / DROP
// ---------------------------------------------------------------------------

fn parse_alter(cur: &mut Cursor) -> Option<AlterTable> {
    if !cur.eat_keyword(Kw::ALTER) || !cur.eat_keyword(Kw::TABLE) {
        return None;
    }
    let _ = cur.eat_keywords(&[Kw::IF, Kw::EXISTS]);
    let table = cur.eat_object_name()?;
    let action = if cur.eat_keyword(Kw::ADD) {
        if cur.peek_keyword(Kw::CONSTRAINT)
            || cur.peek_keyword(Kw::PRIMARY)
            || cur.peek_keyword(Kw::FOREIGN)
            || cur.peek_keyword(Kw::UNIQUE)
            || cur.peek_keyword(Kw::CHECK)
        {
            match try_parse_table_constraint(cur) {
                Some(tc) => AlterAction::AddConstraint(tc),
                None => AlterAction::Other(cur.rest_text()),
            }
        } else {
            let _ = cur.eat_keyword(Kw::COLUMN);
            match parse_column_def(cur) {
                Some(cd) => AlterAction::AddColumn(cd),
                None => AlterAction::Other(cur.rest_text()),
            }
        }
    } else if cur.eat_keyword(Kw::DROP) {
        if cur.eat_keyword(Kw::CONSTRAINT) {
            let _ = cur.eat_keywords(&[Kw::IF, Kw::EXISTS]);
            match cur.eat_name() {
                Some(n) => AlterAction::DropConstraint(n),
                None => AlterAction::Other(cur.rest_text()),
            }
        } else {
            let _ = cur.eat_keyword(Kw::COLUMN);
            match cur.eat_name() {
                Some(n) => AlterAction::DropColumn(n),
                None => AlterAction::Other(cur.rest_text()),
            }
        }
    } else {
        AlterAction::Other(cur.rest_text())
    };
    Some(AlterTable { table, action })
}

fn parse_insert(cur: &mut Cursor) -> Option<Insert> {
    let _ = cur.eat_keyword(Kw::INSERT) || cur.eat_keyword(Kw::REPLACE);
    let _ = cur.eat_keyword(Kw::OR); // INSERT OR REPLACE / IGNORE (SQLite)
    let _ = cur.eat_keyword(Kw::REPLACE);
    let _ = cur.eat_name_if("IGNORE");
    cur.eat_keyword(Kw::INTO);
    let table = cur.eat_object_name()?;
    let mut columns = Vec::new();
    if cur.peek().map(|t| t.is_punct('(')).unwrap_or(false) && !cur.peek_paren_is_select() {
        columns = cur.take_paren_group().map(parse_name_list).unwrap_or_default();
    }
    let source = if cur.eat_keyword(Kw::VALUES) {
        let mut rows = Vec::new();
        while let Some(inner) = cur.take_paren_group() {
            rows.push(alloc_range(
                split_on_commas(inner).into_iter().map(parse_expr_tokens).collect::<Vec<_>>(),
            ));
            if !cur.eat_punct(',') {
                break;
            }
        }
        InsertSource::Values(rows)
    } else if cur.peek_keyword(Kw::SELECT) {
        match parse_select(cur) {
            Some(s) => InsertSource::Select(Box::new(s)),
            None => InsertSource::Raw(cur.rest_text()),
        }
    } else {
        InsertSource::Raw(cur.rest_text())
    };
    Some(Insert { table, columns, source })
}

impl<'a> Cursor<'a> {
    fn eat_name_if(&mut self, word: &str) -> bool {
        if let Some(t) = self.peek() {
            if t.text.eq_ignore_ascii_case(word) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn peek_paren_is_select(&self) -> bool {
        if !self.peek().map(|t| t.is_punct('(')).unwrap_or(false) {
            return false;
        }
        self.peek_at(1).map(|t| t.is_kw(Kw::SELECT)).unwrap_or(false)
    }
}

fn parse_update(cur: &mut Cursor) -> Option<Update> {
    if !cur.eat_keyword(Kw::UPDATE) {
        return None;
    }
    let table = cur.eat_object_name()?;
    let _alias = parse_optional_alias(cur);
    if !cur.eat_keyword(Kw::SET) {
        return None;
    }
    let set_toks = cur.take_until(|t| t.is_kw(Kw::WHERE));
    let mut assignments = Vec::new();
    for part in split_on_commas(set_toks) {
        // col = expr   (col may be qualified)
        let eq = part.iter().position(|t| t.is_operator("="))?;
        let col_toks = &part[..eq];
        let col: IStr = col_toks.last()?.ident_value().into();
        let val = alloc(parse_expr_tokens(&part[eq + 1..]));
        assignments.push((col, val));
    }
    let where_clause = if cur.eat_keyword(Kw::WHERE) {
        let toks = cur.take_until(|_| false);
        Some(alloc(parse_expr_tokens(toks)))
    } else {
        None
    };
    Some(Update { table, assignments, where_clause })
}

fn parse_delete(cur: &mut Cursor) -> Option<Delete> {
    if !cur.eat_keyword(Kw::DELETE) || !cur.eat_keyword(Kw::FROM) {
        return None;
    }
    let table = cur.eat_object_name()?;
    let _alias = parse_optional_alias(cur);
    let where_clause = if cur.eat_keyword(Kw::WHERE) {
        let toks = cur.take_until(|_| false);
        Some(alloc(parse_expr_tokens(toks)))
    } else {
        None
    };
    Some(Delete { table, where_clause })
}

fn parse_drop(cur: &mut Cursor) -> Option<Drop> {
    if !cur.eat_keyword(Kw::DROP) {
        return None;
    }
    let kind_tok = cur.next()?;
    let object_kind = kind_tok.upper();
    if !matches!(object_kind.as_str(), "TABLE" | "INDEX" | "VIEW" | "TRIGGER" | "DATABASE") {
        return None;
    }
    let if_exists = cur.eat_keywords(&[Kw::IF, Kw::EXISTS]);
    let name = cur.eat_object_name()?;
    Some(Drop { object_kind, name, if_exists })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> Select {
        sela(sql).0
    }

    /// Like [`sel`] but also hands back the arena for expr traversal.
    fn sela(sql: &str) -> (Select, ExprArena) {
        let p = parse_one(sql, Dialect::Generic);
        match p.stmt {
            Statement::Select(s) => (s, p.arena),
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    fn ct(sql: &str) -> CreateTable {
        match parse_one(sql, Dialect::Generic).stmt {
            Statement::CreateTable(c) => c,
            other => panic!("expected CREATE TABLE, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b FROM t WHERE a = 1");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.as_ref().unwrap().name.name(), "t");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn select_wildcard_and_qualified_wildcard() {
        let s = sel("SELECT *, t.* FROM t");
        assert!(matches!(s.items[0], SelectItem::Wildcard { qualifier: None }));
        assert!(
            matches!(&s.items[1], SelectItem::Wildcard { qualifier: Some(q) } if q == "t")
        );
    }

    #[test]
    fn select_with_join_on() {
        let (s, a) = sela(
            "SELECT q.Name FROM Questionnaire q JOIN Tenant t ON t.Tenant_ID = q.Tenant_ID \
             WHERE q.Editable = true",
        );
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].table.name.name(), "Tenant");
        assert_eq!(s.joins[0].table.alias.as_deref(), Some("t"));
        let on = s.joins[0].on.unwrap();
        assert_eq!(a.column_refs(on).len(), 2);
    }

    #[test]
    fn join_with_like_expression_on_clause() {
        // The paper's Task #2 query: expression join via LIKE.
        let (s, a) = sela(
            "SELECT * FROM Tenants AS t JOIN Users AS u \
             ON t.User_IDs LIKE '%' || u.User_ID || '%' WHERE t.Tenant_ID = 'T1'",
        );
        assert_eq!(s.joins.len(), 1);
        let on = s.joins[0].on.unwrap();
        let mut saw_like = false;
        a.walk(on, &mut |e| {
            if matches!(e, Expr::Like { .. }) {
                saw_like = true;
            }
        });
        assert!(saw_like, "LIKE in ON clause must be shaped: {on:?}");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn group_order_limit() {
        let s = sel("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 10");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].asc);
        assert_eq!(s.limit.as_deref(), Some("10"));
    }

    #[test]
    fn order_by_rand() {
        let (s, a) = sela("SELECT * FROM t ORDER BY RAND()");
        let fns = a.function_calls(s.order_by[0].expr);
        assert_eq!(fns, vec!["RAND".to_string()]);
    }

    #[test]
    fn comma_join() {
        let s = sel("SELECT * FROM a, b WHERE a.id = b.id");
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].join_type, JoinType::Comma);
    }

    #[test]
    fn union_tail_preserved() {
        let s = sel("SELECT a FROM t UNION SELECT b FROM u");
        assert!(s.set_op_tail.as_deref().unwrap().contains("UNION"));
    }

    #[test]
    fn create_table_with_constraints() {
        let c = ct(
            "CREATE TABLE Hosting (\
               User_ID VARCHAR(10) REFERENCES Users(User_ID),\
               Tenant_ID VARCHAR(10) REFERENCES Tenants(Tenant_ID),\
               PRIMARY KEY (User_ID, Tenant_ID))",
        );
        assert_eq!(c.columns.len(), 2);
        assert_eq!(c.primary_key_columns(), vec!["User_ID", "Tenant_ID"]);
        let fks = c.foreign_keys();
        assert_eq!(fks.len(), 2);
        assert!(fks[0].1.table.name_eq("Users"));
    }

    #[test]
    fn create_table_column_types() {
        let c = ct(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, price FLOAT, name VARCHAR(30) NOT NULL, \
             role ENUM('a','b'), created TIMESTAMP WITH TIME ZONE, big DOUBLE PRECISION)",
        );
        assert!(c.column("price").unwrap().data_type.as_ref().unwrap().is_inexact_fractional());
        let role = c.column("role").unwrap().data_type.as_ref().unwrap();
        assert_eq!(role.name, "ENUM");
        assert_eq!(role.args.len(), 2);
        assert!(c.column("created").unwrap().data_type.as_ref().unwrap().has_timezone());
        assert_eq!(c.column("big").unwrap().data_type.as_ref().unwrap().name, "DOUBLE");
    }

    #[test]
    fn create_table_check_in_list() {
        let c = ct("CREATE TABLE u (role VARCHAR(5), CHECK (role IN ('R1','R2','R3')))");
        let check = c
            .constraints
            .iter()
            .find_map(|tc| match &tc.kind {
                TableConstraintKind::Check(ch) => Some(ch),
                _ => None,
            })
            .unwrap();
        let (col, vals) = check.in_list.as_ref().unwrap();
        assert_eq!(col, "role");
        assert_eq!(vals, &vec!["R1".to_string(), "R2".into(), "R3".into()]);
    }

    #[test]
    fn alter_add_check_constraint() {
        let p = parse_one(
            "ALTER TABLE User ADD CONSTRAINT User_Role_Check CHECK (ROLE IN ('R1','R2','R3'))",
            Dialect::Generic,
        );
        let Statement::AlterTable(a) = p.stmt else { panic!() };
        assert!(a.table.name_eq("User"));
        let AlterAction::AddConstraint(tc) = a.action else { panic!() };
        assert_eq!(tc.name.as_deref(), Some("User_Role_Check"));
        assert!(matches!(tc.kind, TableConstraintKind::Check(_)));
    }

    #[test]
    fn alter_drop_constraint_if_exists() {
        let p = parse_one(
            "ALTER TABLE User DROP CONSTRAINT IF EXISTS User_Role_Check",
            Dialect::Generic,
        );
        let Statement::AlterTable(a) = p.stmt else { panic!() };
        assert!(matches!(a.action, AlterAction::DropConstraint(ref n) if n == "User_Role_Check"));
    }

    #[test]
    fn alter_drop_column() {
        let p = parse_one("ALTER TABLE Tenants DROP COLUMN User_IDs", Dialect::Generic);
        let Statement::AlterTable(a) = p.stmt else { panic!() };
        assert!(matches!(a.action, AlterAction::DropColumn(ref n) if n == "User_IDs"));
    }

    #[test]
    fn insert_without_columns() {
        let p = parse_one(
            "INSERT INTO Tenant VALUES ('T1', 'Z1', True, 'U1,U2')",
            Dialect::Generic,
        );
        let Statement::Insert(i) = p.stmt else { panic!() };
        assert!(i.columns.is_empty());
        let InsertSource::Values(rows) = i.source else { panic!() };
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn insert_with_columns_multi_row() {
        let p = parse_one("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)", Dialect::Generic);
        let Statement::Insert(i) = p.stmt else { panic!() };
        assert_eq!(i.columns, vec!["a", "b"]);
        let InsertSource::Values(rows) = i.source else { panic!() };
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn insert_select() {
        let p = parse_one("INSERT INTO t (a) SELECT x FROM u", Dialect::Generic);
        let Statement::Insert(i) = p.stmt else { panic!() };
        assert!(matches!(i.source, InsertSource::Select(_)));
    }

    #[test]
    fn update_statement() {
        let p = parse_one(
            "UPDATE User SET Role = 'R5', active = TRUE WHERE Role = 'R2'",
            Dialect::Generic,
        );
        let Statement::Update(u) = p.stmt else { panic!() };
        assert_eq!(u.assignments.len(), 2);
        assert_eq!(u.assignments[0].0, "Role");
        assert!(u.where_clause.is_some());
    }

    #[test]
    fn delete_statement() {
        let p = parse_one("DELETE FROM Users WHERE User_ID = 'U1'", Dialect::Generic);
        let Statement::Delete(d) = p.stmt else { panic!() };
        assert!(d.table.name_eq("Users"));
        assert!(d.where_clause.is_some());
    }

    #[test]
    fn drop_statements() {
        let p = parse_one("DROP TABLE IF EXISTS t", Dialect::Generic);
        let Statement::Drop(d) = p.stmt else { panic!() };
        assert_eq!(d.object_kind, "TABLE");
        assert!(d.if_exists);
    }

    #[test]
    fn create_index_statement() {
        let p = parse_one(
            "CREATE UNIQUE INDEX idx_zone ON Tenant (Zone_ID, Active)",
            Dialect::Generic,
        );
        let Statement::CreateIndex(i) = p.stmt else { panic!() };
        assert!(i.unique);
        assert_eq!(i.name, "idx_zone");
        assert_eq!(i.columns, vec!["Zone_ID", "Active"]);
    }

    #[test]
    fn create_trigger_parses_body_substatements() {
        // The ISSUE 5 repro trigger: a real AST node, body statements
        // parsed, spans relative to the statement start.
        let sql = "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW \
                   BEGIN UPDATE u SET a = 1; DELETE FROM v; END";
        let p = parse_one(sql, Dialect::Generic);
        let Statement::CreateTrigger(tg) = &p.stmt else { panic!("got {:?}", p.stmt) };
        assert!(tg.name.name_eq("trg"));
        assert_eq!(tg.timing.as_deref(), Some("AFTER"));
        assert_eq!(tg.events, vec!["INSERT"]);
        assert!(tg.table.name_eq("t"));
        assert!(tg.for_each_row);
        assert_eq!(tg.body.len(), 2);
        let Statement::Update(u) = &tg.body[0].stmt else { panic!() };
        assert!(u.table.name_eq("u"));
        let Statement::Delete(d) = &tg.body[1].stmt else { panic!() };
        assert!(d.table.name_eq("v"));
        // Relative spans slice the statement text at the sub-statement.
        for (b, text) in tg.body.iter().zip(["UPDATE u SET a = 1", "DELETE FROM v"]) {
            assert_eq!(&sql[b.span.start..b.span.end], text);
        }
    }

    #[test]
    fn create_trigger_with_nested_constructs() {
        let sql = "CREATE TRIGGER t2 BEFORE UPDATE ON x FOR EACH ROW \
                   BEGIN IF NEW.a > 0 THEN UPDATE u SET b = 1; END IF; \
                   SELECT CASE WHEN a THEN 1 ELSE 2 END; \
                   BEGIN DELETE FROM w; END; END";
        let p = parse_one(sql, Dialect::Generic);
        let Statement::CreateTrigger(tg) = &p.stmt else { panic!("got {:?}", p.stmt) };
        assert_eq!(tg.timing.as_deref(), Some("BEFORE"));
        // Three executable body statements: the UPDATE guarded by the IF
        // (header stripped), the SELECT, and the DELETE inside the
        // nested block (flattened).
        assert_eq!(tg.body.len(), 3, "{:?}", tg.body);
        assert_eq!(tg.body[0].stmt.tag(), "UPDATE");
        assert_eq!(tg.body[1].stmt.tag(), "SELECT");
        assert_eq!(tg.body[2].stmt.tag(), "DELETE");
    }

    #[test]
    fn construct_headers_are_stripped_to_executable_statements() {
        let sql = "CREATE TRIGGER t3 AFTER INSERT ON t FOR EACH ROW BEGIN \
                   IF NEW.a > 0 THEN SELECT * FROM big ORDER BY RAND(); END IF; \
                   WHILE NEW.b > 0 DO INSERT INTO log VALUES (1); END WHILE; \
                   IF CASE WHEN NEW.c THEN 1 ELSE 0 END = 1 THEN DELETE FROM d; END IF; \
                   END";
        let p = parse_one(sql, Dialect::Generic);
        let Statement::CreateTrigger(tg) = &p.stmt else { panic!("got {:?}", p.stmt) };
        let tags: Vec<&str> = tg.body.iter().map(|b| b.stmt.tag()).collect();
        assert_eq!(tags, vec!["SELECT", "INSERT", "DELETE"], "{:?}", tg.body);
        // The stripped statement's span still slices the source exactly.
        assert_eq!(
            &sql[tg.body[0].span.start..tg.body[0].span.end],
            "SELECT * FROM big ORDER BY RAND()"
        );
    }

    #[test]
    fn create_procedure_and_function_parse() {
        let p = parse_one(
            "CREATE PROCEDURE audit(IN uid INT) BEGIN INSERT INTO log VALUES (uid); END",
            Dialect::Generic,
        );
        let Statement::CreateRoutine(r) = &p.stmt else { panic!("got {:?}", p.stmt) };
        assert_eq!(r.kind, RoutineKind::Procedure);
        assert!(r.name.name_eq("audit"));
        assert!(r.params.as_deref().unwrap().contains("uid"));
        assert_eq!(r.body.len(), 1);
        assert_eq!(r.body[0].stmt.tag(), "INSERT");

        let p = parse_one("CREATE OR REPLACE FUNCTION f() RETURNS INT RETURN 1", Dialect::Generic);
        let Statement::CreateRoutine(r) = &p.stmt else { panic!("got {:?}", p.stmt) };
        assert_eq!(r.kind, RoutineKind::Function);
    }

    #[test]
    fn dollar_quoted_plpgsql_body_is_subparsed() {
        let sql = "CREATE FUNCTION bump() RETURNS trigger AS $fn$\n\
                   BEGIN UPDATE counters SET n = n + 1; DELETE FROM stale; END\n\
                   $fn$ LANGUAGE plpgsql";
        let p = parse_one(sql, Dialect::Generic);
        let Statement::CreateRoutine(r) = &p.stmt else { panic!("got {:?}", p.stmt) };
        assert_eq!(r.language.as_deref(), Some("plpgsql"));
        assert_eq!(r.body.len(), 2, "{:?}", r.body);
        assert_eq!(r.body[0].stmt.tag(), "UPDATE");
        assert_eq!(r.body[1].stmt.tag(), "DELETE");
        // Body spans point inside the dollar-quoted region of the source.
        for (b, text) in
            r.body.iter().zip(["UPDATE counters SET n = n + 1", "DELETE FROM stale"])
        {
            assert_eq!(&sql[b.span.start..b.span.end], text);
        }
    }

    #[test]
    fn dollar_quoted_sql_body_splits_statements() {
        let p = parse_one(
            "CREATE FUNCTION two() RETURNS void AS $$ SELECT 1; SELECT 2; $$ LANGUAGE sql",
            Dialect::Generic,
        );
        let Statement::CreateRoutine(r) = &p.stmt else { panic!("got {:?}", p.stmt) };
        assert_eq!(r.body.len(), 2);
        assert!(r.body.iter().all(|b| b.stmt.tag() == "SELECT"));
    }

    #[test]
    fn mysql_definer_trigger_parses() {
        let p = parse_one(
            "CREATE DEFINER = `root`@`localhost` TRIGGER trg BEFORE DELETE ON t \
             FOR EACH ROW BEGIN SET @n = @n - 1; END",
            Dialect::Generic,
        );
        let Statement::CreateTrigger(tg) = &p.stmt else { panic!("got {:?}", p.stmt) };
        assert_eq!(tg.events, vec!["DELETE"]);
        assert_eq!(tg.body.len(), 1);
    }

    #[test]
    fn postgres_execute_function_trigger_body() {
        let p = parse_one(
            "CREATE TRIGGER trg AFTER UPDATE ON t FOR EACH ROW EXECUTE FUNCTION audit()",
            Dialect::Generic,
        );
        let Statement::CreateTrigger(tg) = &p.stmt else { panic!("got {:?}", p.stmt) };
        assert_eq!(tg.body.len(), 1, "{:?}", tg.body);
        assert_eq!(tg.body[0].stmt.tag(), "OTHER");
    }

    #[test]
    fn unterminated_trigger_body_is_tolerated() {
        let p = parse_one(
            "CREATE TRIGGER t1 BEFORE INSERT ON x FOR EACH ROW BEGIN SELECT 1;",
            Dialect::Generic,
        );
        let Statement::CreateTrigger(tg) = &p.stmt else { panic!("got {:?}", p.stmt) };
        assert_eq!(tg.body.len(), 1);
        assert_eq!(tg.body[0].stmt.tag(), "SELECT");
    }

    #[test]
    fn unknown_statement_is_other() {
        let p = parse_one("PRAGMA journal_mode = WAL", Dialect::Generic);
        let Statement::Other(o) = p.stmt else { panic!() };
        assert_eq!(o.leading_keyword, "PRAGMA");
    }

    #[test]
    fn garbage_never_panics() {
        for sql in ["", ";;;", "SELECT FROM WHERE", "CREATE TABLE", ")(", "INSERT INTO"] {
            let _ = parse(sql);
        }
    }

    #[test]
    fn expr_in_list() {
        let (_a, e) = parse_expr_str("role IN ('R1', 'R2')");
        let Expr::InList { list, negated, .. } = e else { panic!() };
        assert!(!negated);
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn expr_not_in_and_between() {
        let (a, e) = parse_expr_str("a NOT IN (1,2) AND b BETWEEN 1 AND 10");
        let Expr::Binary { left, op, right } = e else { panic!() };
        assert_eq!(op, "AND");
        assert!(matches!(a.node(left), Expr::InList { negated: true, .. }));
        assert!(matches!(a.node(right), Expr::Between { negated: false, .. }));
    }

    #[test]
    fn expr_is_null() {
        let (_a, e) = parse_expr_str("a IS NOT NULL");
        assert!(matches!(e, Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn expr_concat_operator() {
        let (_a, e) = parse_expr_str("first_name || ' ' || last_name");
        let Expr::Binary { op, .. } = &e else { panic!() };
        assert_eq!(op, "||");
    }

    #[test]
    fn expr_precedence_and_or() {
        // a = 1 OR b = 2 AND c = 3  →  OR(a=1, AND(b=2, c=3))
        let (a, e) = parse_expr_str("a = 1 OR b = 2 AND c = 3");
        let Expr::Binary { op, right, .. } = &e else { panic!() };
        assert_eq!(op, "OR");
        let Expr::Binary { op: rop, .. } = a.node(*right) else { panic!() };
        assert_eq!(rop, "AND");
    }

    #[test]
    fn expr_exists_subquery() {
        let (a, e) = parse_expr_str("EXISTS (SELECT 1 FROM t WHERE t.id = u.id)");
        let Expr::Unary { op, expr } = e else { panic!() };
        assert_eq!(op, "EXISTS");
        assert!(matches!(a.node(expr), Expr::Subquery(_)));
    }

    #[test]
    fn expr_unparseable_falls_back_to_raw() {
        let (_a, e) = parse_expr_str("a = = = b ~~~");
        assert!(matches!(e, Expr::Raw(_)));
    }

    #[test]
    fn derived_table_in_from() {
        let s = sel("SELECT x FROM (SELECT a AS x FROM t) d WHERE x > 1");
        let f = s.from.as_ref().unwrap();
        assert!(f.subquery.is_some());
        assert_eq!(f.alias.as_deref(), Some("d"));
    }

    #[test]
    fn distinct_flag() {
        assert!(sel("SELECT DISTINCT a FROM t").distinct);
        assert!(!sel("SELECT a FROM t").distinct);
    }
}

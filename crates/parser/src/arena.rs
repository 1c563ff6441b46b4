//! Typed bump arena for parse output.
//!
//! The legacy AST heap-allocated every edge: each child expression was a
//! `Box<Expr>` and every argument list a `Vec<Expr>`, so a single
//! statement's tree cost one allocation per node plus growth churn per
//! list. The arena replaces all of that with **one contiguous node
//! buffer per statement**: nodes are pushed in parse order and referenced
//! by typed indices ([`ExprId`]) or contiguous runs ([`ExprRange`]).
//! The parser builds each statement's nodes in one reused per-thread
//! scratch arena and hands them off with `ExprArena::take_exact`: one
//! allocation of exactly the node count per statement, however large the
//! tree, so a retained arena keeps no spare capacity. Dropping a statement
//! frees the whole tree in one `Vec` drop instead of a recursive `Box`
//! walk.
//!
//! Index stability: ids are positions in the push order and are never
//! invalidated (the arena is append-only until dropped). A node's
//! children always have **smaller** indices than the node itself —
//! children are allocated before their parent is pushed — which makes
//! exhaustive traversal by index order a valid post-order walk.

use crate::ast::Expr;
use crate::istr::IStr;

/// Typed index of one [`Expr`] node in an [`ExprArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

impl ExprId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A contiguous run of nodes in an [`ExprArena`] — the arena's
/// replacement for `Vec<Expr>` child lists (function arguments, `IN`
/// lists, `GROUP BY` expressions, `VALUES` rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ExprRange {
    start: u32,
    len: u32,
}

impl ExprRange {
    /// The empty range.
    pub const EMPTY: ExprRange = ExprRange { start: 0, len: 0 };

    /// Number of nodes in the range.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the range is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Iterate the ids in the range.
    #[inline]
    pub fn iter(self) -> impl ExactSizeIterator<Item = ExprId> {
        (self.start..self.start + self.len).map(ExprId)
    }
}

/// Bump arena owning every expression node of one parsed statement (and
/// its compound-body sub-statements — the whole [`crate::ast::ParsedStatement`]
/// shares one arena). A parsed statement's arena is exact: its node
/// buffer holds no capacity beyond its nodes.
#[derive(Debug, Clone, Default)]
pub struct ExprArena {
    nodes: Vec<Expr>,
}

impl ExprArena {
    /// An empty arena.
    pub fn new() -> Self {
        ExprArena { nodes: Vec::new() }
    }

    /// Move every node out into a new arena of exactly their count,
    /// leaving `self` empty with its capacity kept for reuse.
    pub(crate) fn take_exact(&mut self) -> ExprArena {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        nodes.append(&mut self.nodes);
        ExprArena { nodes }
    }

    /// Drop every node, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Allocated node slots, used or not.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Number of nodes allocated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Allocate one node.
    #[inline]
    pub fn alloc(&mut self, expr: Expr) -> ExprId {
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(expr);
        id
    }

    /// Allocate a contiguous run of nodes from an iterator.
    pub fn alloc_range(&mut self, exprs: impl IntoIterator<Item = Expr>) -> ExprRange {
        let start = self.nodes.len() as u32;
        self.nodes.extend(exprs);
        ExprRange { start, len: self.nodes.len() as u32 - start }
    }

    /// The node behind `id`.
    #[inline]
    pub fn node(&self, id: ExprId) -> &Expr {
        &self.nodes[id.0 as usize]
    }

    /// The nodes behind a range.
    #[inline]
    pub fn range(&self, r: ExprRange) -> &[Expr] {
        &self.nodes[r.start as usize..(r.start + r.len) as usize]
    }

    /// Walk the subtree rooted at `id` pre-order, calling `f` on every
    /// node. The arena-level replacement for the legacy `Expr::walk`.
    /// Node references borrow from the arena itself, so callers may
    /// collect them past the walk.
    pub fn walk<'a>(&'a self, id: ExprId, f: &mut dyn FnMut(&'a Expr)) {
        let e = self.node(id);
        f(e);
        match e {
            Expr::Unary { expr, .. } | Expr::Paren(expr) | Expr::IsNull { expr, .. } => {
                self.walk(*expr, f);
            }
            Expr::Binary { left, right, .. } => {
                self.walk(*left, f);
                self.walk(*right, f);
            }
            Expr::Function { args, .. } => {
                for a in args.iter() {
                    self.walk(a, f);
                }
            }
            Expr::InList { expr, list, .. } => {
                self.walk(*expr, f);
                for e in list.iter() {
                    self.walk(e, f);
                }
            }
            Expr::Between { expr, low, high, .. } => {
                self.walk(*expr, f);
                self.walk(*low, f);
                self.walk(*high, f);
            }
            Expr::Like { expr, pattern, .. } => {
                self.walk(*expr, f);
                self.walk(*pattern, f);
            }
            Expr::Subquery(_) => {}
            _ => {}
        }
    }

    /// Collect every column reference `(qualifier, column)` in the
    /// subtree rooted at `id`.
    pub fn column_refs(&self, id: ExprId) -> Vec<(Option<IStr>, IStr)> {
        let mut out = Vec::new();
        self.walk(id, &mut |e| {
            if let Expr::Ident(parts) = e {
                match parts.len() {
                    1 if parts[0] != "*" => out.push((None, parts[0].clone())),
                    2 => out.push((Some(parts[0].clone()), parts[1].clone())),
                    _ => {}
                }
            }
        });
        out
    }

    /// Collect every function name called in the subtree (uppercased).
    pub fn function_calls(&self, id: ExprId) -> Vec<IStr> {
        let mut out = Vec::new();
        self.walk(id, &mut |e| {
            if let Expr::Function { name, .. } = e {
                out.push(IStr::new_upper(name));
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_walk() {
        let mut a = ExprArena::new();
        let l = a.alloc(Expr::Ident(vec!["t".into(), "a".into()]));
        let arg = a.alloc(Expr::ident("b"));
        let args = ExprRange { start: arg.0, len: 1 };
        let f = a.alloc(Expr::Function { name: "lower".into(), args, distinct: false });
        let root = a.alloc(Expr::Binary { left: l, op: "=".into(), right: f });

        let cols = a.column_refs(root);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0], (Some("t".into()), "a".into()));
        assert_eq!(a.function_calls(root), vec!["LOWER".to_string()]);

        // Children precede parents in index order.
        let mut seen = 0;
        a.walk(root, &mut |_| seen += 1);
        assert_eq!(seen, 4);
        assert!(l.index() < root.index() && f.index() < root.index());
    }

    #[test]
    fn ranges_are_contiguous() {
        let mut a = ExprArena::new();
        let r = a.alloc_range([Expr::ident("x"), Expr::ident("y")]);
        assert_eq!(r.len(), 2);
        let ids: Vec<_> = r.iter().collect();
        assert_eq!(a.range(r).len(), 2);
        assert!(matches!(a.node(ids[0]), Expr::Ident(p) if p[0] == "x"));
        assert!(matches!(a.node(ids[1]), Expr::Ident(p) if p[0] == "y"));
    }
}

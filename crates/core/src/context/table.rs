//! The unique-text table of a [`Context`](super::Context).

use super::PhaseTimes;
use sqlcheck_parser::annotate::{annotate, Annotations};
use sqlcheck_parser::ast::ParsedStatement;
use sqlcheck_parser::diag::{Diagnostic, Limits};
use sqlcheck_parser::fingerprint::fingerprint_of;
use sqlcheck_parser::parser::parse_raw_limited;
use sqlcheck_parser::splitter::SplitStatement;
use sqlcheck_parser::Dialect;
use crate::hashutil::Prehashed;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One unique statement text of a [`Context`](super::Context).
#[derive(Debug, Clone)]
pub struct UniqueText {
    /// Its parse tree (which holds the source text).
    pub parsed: Arc<ParsedStatement>,
    /// Its annotation digest.
    pub ann: Arc<Annotations>,
    /// Degradation diagnostics from parsing it.
    pub diags: Arc<[Diagnostic]>,
    /// Literal-sensitive 128-bit content hash: the key of the table.
    pub hash: u128,
    /// Literal-insensitive template fingerprint
    /// ([`sqlcheck_parser::fingerprint`]), computed at insert from the
    /// tokens the text materialises to for parsing.
    pub fingerprint: u64,
    /// Statements that refer to this text.
    pub count: usize,
}

/// The unique-text table of a [`Context`](super::Context): every
/// distinct statement text, parsed and annotated once, with its live
/// occurrence count.
///
/// A cold build inserts every text of the script; a
/// [`CheckSession`](crate::CheckSession) re-check inserts replacement
/// texts into the same table and retracts replaced ones, freeing a text
/// whose count drops to zero at the end of the re-check for its id to be
/// reused. Ids are dense: side tables index vectors by them.
#[derive(Debug, Clone, Default)]
pub struct UniqueTable {
    /// Entry by id; `None` for a freed id awaiting reuse.
    entries: Vec<Option<UniqueText>>,
    /// Freed ids.
    free: Vec<usize>,
    /// Live ids by content hash.
    by_hash: HashMap<u128, usize, Prehashed>,
    /// Live unique texts per template fingerprint.
    templates: HashMap<u64, usize>,
}

impl UniqueTable {
    /// Live unique texts.
    pub fn len(&self) -> usize {
        self.by_hash.len()
    }

    /// True when the table holds no text.
    pub fn is_empty(&self) -> bool {
        self.by_hash.is_empty()
    }

    /// One past the largest id ever handed out: the length of a vector
    /// indexed by id.
    pub fn id_bound(&self) -> usize {
        self.entries.len()
    }

    /// Distinct template fingerprints among the live texts.
    pub fn templates(&self) -> usize {
        self.templates.len()
    }

    /// The text with id `id`; `None` for a freed or unknown id.
    pub fn get(&self, id: usize) -> Option<&UniqueText> {
        self.entries.get(id)?.as_ref()
    }

    /// The id of the live text with content hash `hash`.
    pub fn id_of(&self, hash: u128) -> Option<usize> {
        self.by_hash.get(&hash).copied()
    }

    /// Live texts with their ids, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &UniqueText)> {
        self.entries.iter().enumerate().filter_map(|(id, e)| Some((id, e.as_ref()?)))
    }

    /// The insert path: the id of the text `u` splits to in `script`,
    /// materialised (the text's one lex), fingerprinted from those
    /// tokens, parsed (then its tokens dropped) and annotated when new. A
    /// text the table holds is not lexed at all. Counts no occurrence;
    /// adds the time spent to `times`.
    pub(crate) fn insert(
        &mut self,
        u: &SplitStatement,
        script: &str,
        dialect: Dialect,
        limits: &Limits,
        times: &mut PhaseTimes,
    ) -> usize {
        self.intern(u.content_hash, || {
            let tm = Instant::now();
            let raw = u.materialize(script, dialect);
            let fingerprint = fingerprint_of(&raw.tokens);
            let tp = Instant::now();
            let (parsed, diags) = parse_raw_limited(raw, limits, dialect);
            let ta = Instant::now();
            let ann = annotate(&parsed.stmt, &parsed.arena);
            times.materialize += tp - tm;
            times.parse += ta - tp;
            times.annotate += ta.elapsed();
            // `Arc::default` is one shared static empty slice: a text that
            // parses cleanly allocates no diagnostics.
            let diags = if diags.is_empty() { Arc::default() } else { diags.into() };
            (Arc::new(parsed), Arc::new(ann), diags, fingerprint)
        })
    }

    /// The id of the text with content hash `hash`, adding it with the
    /// tree, annotations, diagnostics and fingerprint `parse` returns when
    /// the table does not hold it yet (reusing a freed id first).
    pub(crate) fn intern(
        &mut self,
        hash: u128,
        parse: impl FnOnce() -> (Arc<ParsedStatement>, Arc<Annotations>, Arc<[Diagnostic]>, u64),
    ) -> usize {
        if let Some(id) = self.id_of(hash) {
            return id;
        }
        let (parsed, ann, diags, fingerprint) = parse();
        let entry = Some(UniqueText { parsed, ann, diags, hash, fingerprint, count: 0 });
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id] = entry;
                id
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        self.by_hash.insert(hash, id);
        *self.templates.entry(fingerprint).or_default() += 1;
        id
    }

    /// Make room for `additional` more texts.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
        self.by_hash.reserve(additional);
    }

    /// Count one more statement of text `id`.
    pub(crate) fn add_occurrence(&mut self, id: usize) {
        self.live_mut(id).count += 1;
    }

    /// The retract path: count one statement of text `id` less. The text
    /// stays in the table (a later edit of the same batch may revive it)
    /// until [`UniqueTable::release`].
    pub(crate) fn retract(&mut self, id: usize) {
        self.live_mut(id).count -= 1;
    }

    /// Free text `id` when no statement refers to it any more; true when
    /// it was freed.
    pub(crate) fn release(&mut self, id: usize) -> bool {
        if self.entries[id].as_ref().is_none_or(|e| e.count > 0) {
            return false;
        }
        let e = self.entries[id].take().expect("checked live above");
        self.by_hash.remove(&e.hash);
        if let Some(c) = self.templates.get_mut(&e.fingerprint) {
            *c -= 1;
            if *c == 0 {
                self.templates.remove(&e.fingerprint);
            }
        }
        self.free.push(id);
        true
    }

    fn live_mut(&mut self, id: usize) -> &mut UniqueText {
        self.entries[id].as_mut().expect("a statement refers to a freed unique text")
    }
}

impl std::ops::Index<usize> for UniqueTable {
    type Output = UniqueText;

    /// The live text with id `id`; panics on a freed or unknown id.
    fn index(&self, id: usize) -> &UniqueText {
        self.get(id).expect("no live unique text with this id")
    }
}


//! The unique-text table of a [`Context`](super::Context).

use super::PhaseTimes;
use crate::hashutil::Prehashed;
use sqlcheck_parser::annotate::{annotate, Annotations};
use sqlcheck_parser::ast::{ParsedStatement, Statement};
use sqlcheck_parser::diag::{Diagnostic, Limits};
use sqlcheck_parser::parser::parse_raw_limited;
use sqlcheck_parser::splitter::{ShapeLex, SplitStatement};
use sqlcheck_parser::Dialect;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One unique statement text of a [`Context`](super::Context).
#[derive(Debug, Clone)]
pub struct UniqueText {
    /// The parse tree of the text's shape: a DML text that differs from
    /// an earlier live text only in the digits of its number literals
    /// shares that text's tree, so the tree's `source` is the shape's
    /// first text. Rules, annotations and the profile fold read no
    /// number literal's value; read the text itself from
    /// [`UniqueText::source`].
    pub parsed: Arc<ParsedStatement>,
    /// The text's own source bytes.
    pub source: Arc<str>,
    /// Its annotation digest (shared with its shape's tree).
    pub ann: Arc<Annotations>,
    /// Degradation diagnostics from parsing it.
    pub diags: Arc<[Diagnostic]>,
    /// Literal-sensitive 128-bit content hash
    /// ([`sqlcheck_parser::hash::content_hash_bytes`]): the key of the
    /// table.
    pub hash: u128,
    /// Statements that refer to this text.
    pub count: usize,
    /// Id of its entry in the table's shape map; `None` for a text whose
    /// tree no other text may share.
    shape: Option<usize>,
}

impl UniqueText {
    /// True when the text's tree was parsed from another text of its
    /// shape (its [`UniqueText::parsed`] source is not its own).
    pub fn shares_tree(&self) -> bool {
        !Arc::ptr_eq(&self.parsed.source, &self.source)
    }
}

/// One shape a tree is shared under: the tree and its annotations, the
/// live texts holding it and their summed count.
#[derive(Debug, Clone)]
struct Shape {
    key: u128,
    parsed: Arc<ParsedStatement>,
    ann: Arc<Annotations>,
    /// Live texts of this shape.
    texts: usize,
    /// Statements that refer to any of them.
    count: usize,
}

/// The unique-text table of a [`Context`](super::Context): every
/// distinct statement text with its live occurrence count, and one parse
/// tree per shape.
///
/// Each new text is lexed once, and that pass hashes its
/// [shape](sqlcheck_parser::hash::ShapeHasher). A text whose shape
/// an eligible entry holds — a `SELECT`, `INSERT`, `UPDATE` or `DELETE`
/// tree that parsed without diagnostics — takes that entry's tree and
/// annotations and keeps only its own source; any other
/// text builds its owned tokens from the same pass's spans and is parsed
/// and annotated. DDL never shares: its number literals (type lengths,
/// `CHECK` lists) reach the schema.
///
/// A cold build inserts every text of the script; a
/// [`CheckSession`](crate::CheckSession) re-check inserts replacement
/// texts into the same table and retracts replaced ones, freeing a text
/// whose count drops to zero at the end of the re-check for its id to be
/// reused, and a shape with its last text. Ids are dense: side tables
/// index vectors by them.
#[derive(Debug, Clone, Default)]
pub struct UniqueTable {
    /// Entry by id; `None` for a freed id awaiting reuse.
    entries: Vec<Option<UniqueText>>,
    /// Freed ids.
    free: Vec<usize>,
    /// Live ids by content hash.
    by_hash: HashMap<u128, usize, Prehashed>,
    /// Shape entries by shape id; `None` for a freed one.
    shapes: Vec<Option<Shape>>,
    /// Freed shape ids.
    free_shapes: Vec<usize>,
    /// Live shape ids by shape hash.
    by_shape: HashMap<u128, usize, Prehashed>,
}

/// True for a tree texts of its shape may share: DML that parsed
/// without diagnostics. No intra rule, annotation or profile-fold step
/// reads a DML number literal's value, and such statements have no
/// compound body.
fn shareable(parsed: &ParsedStatement, diags: &[Diagnostic]) -> bool {
    diags.is_empty()
        && matches!(
            parsed.stmt,
            Statement::Select(_)
                | Statement::Insert(_)
                | Statement::Update(_)
                | Statement::Delete(_)
        )
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

    /// Distinct parse trees among the live texts: one per shape, plus
    /// one per text outside any shape.
    pub fn trees(&self) -> usize {
        let shared: usize = self.shapes.iter().flatten().map(|s| s.texts - 1).sum();
        self.len() - shared
    }

    /// Live shape entries.
    pub fn shapes(&self) -> usize {
        self.by_shape.len()
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
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(id, e)| Some((id, e.as_ref()?)))
    }

    /// Every live tree with the statements referring to it: each shape's
    /// tree once, weighted by its texts' summed count, then each text
    /// outside any shape. Trees no statement refers to are skipped.
    pub(crate) fn weighted_trees(&self) -> impl Iterator<Item = (&Statement, &Annotations, usize)> {
        let shaped = self
            .shapes
            .iter()
            .flatten()
            .map(|s| (&s.parsed, &s.ann, s.count));
        let unshaped = self
            .iter()
            .filter(|(_, u)| u.shape.is_none())
            .map(|(_, u)| (&u.parsed, &u.ann, u.count));
        shaped
            .chain(unshaped)
            .filter(|&(_, _, count)| count > 0)
            .map(|(parsed, ann, count)| (&parsed.stmt, ann.as_ref(), count))
    }

    /// The shape id of text `id` when more than one live text holds its
    /// tree: results that depend only on the tree can be computed once
    /// per such id.
    pub(crate) fn shared_shape(&self, id: usize) -> Option<usize> {
        let s = self.get(id)?.shape?;
        (self.shapes[s].as_ref()?.texts > 1).then_some(s)
    }

    /// The insert path: the id of the text `u` splits to in `script`.
    /// A text the table holds is not lexed at all. A new text is lexed
    /// once into `lex`; when its shape is held, it shares that tree,
    /// otherwise its tokens are materialised from the same pass, parsed
    /// (then dropped) and annotated. Counts no
    /// occurrence; adds the time spent to `times`.
    pub(crate) fn insert(
        &mut self,
        u: &SplitStatement,
        script: &str,
        dialect: Dialect,
        limits: &Limits,
        times: &mut PhaseTimes,
        lex: &mut ShapeLex,
    ) -> usize {
        if let Some(id) = self.id_of(u.content_hash) {
            return id;
        }
        let tm = Instant::now();
        let key = lex.lex(script, u.span, dialect);
        if let Some(&s) = self.by_shape.get(&key) {
            let shape = self.shapes[s].as_mut().expect("a live shape id");
            shape.texts += 1;
            let entry = UniqueText {
                parsed: Arc::clone(&shape.parsed),
                source: script[u.span.start..u.span.end].into(),
                ann: Arc::clone(&shape.ann),
                diags: Arc::default(),
                hash: u.content_hash,
                count: 0,
                shape: Some(s),
            };
            times.materialize += tm.elapsed();
            return self.add(entry);
        }
        let raw = lex.materialize(script);
        let tp = Instant::now();
        let (parsed, diags) = parse_raw_limited(raw, limits, dialect);
        let ta = Instant::now();
        let ann = Arc::new(annotate(&parsed.stmt, &parsed.arena));
        times.materialize += tp - tm;
        times.parse += ta - tp;
        times.annotate += ta.elapsed();
        let parsed = Arc::new(parsed);
        let shape = shareable(&parsed, &diags).then(|| {
            let shape = Shape {
                key,
                parsed: Arc::clone(&parsed),
                ann: Arc::clone(&ann),
                texts: 1,
                count: 0,
            };
            let s = match self.free_shapes.pop() {
                Some(s) => {
                    self.shapes[s] = Some(shape);
                    s
                }
                None => {
                    self.shapes.push(Some(shape));
                    self.shapes.len() - 1
                }
            };
            self.by_shape.insert(key, s);
            s
        });
        // `Arc::default` is one shared static empty slice: a text that
        // parses cleanly allocates no diagnostics.
        let diags = if diags.is_empty() {
            Arc::default()
        } else {
            diags.into()
        };
        let source = Arc::clone(&parsed.source);
        let entry = UniqueText {
            parsed,
            source,
            ann,
            diags,
            hash: u.content_hash,
            count: 0,
            shape,
        };
        self.add(entry)
    }

    /// The id of the text with content hash `hash`, adding it with the
    /// tree, annotations and diagnostics `parse` returns when the table
    /// does not hold it yet. A text added here shares its tree with no
    /// other text.
    pub(crate) fn intern(
        &mut self,
        hash: u128,
        parse: impl FnOnce() -> (Arc<ParsedStatement>, Arc<Annotations>, Arc<[Diagnostic]>),
    ) -> usize {
        if let Some(id) = self.id_of(hash) {
            return id;
        }
        let (parsed, ann, diags) = parse();
        let source = Arc::clone(&parsed.source);
        self.add(UniqueText {
            parsed,
            source,
            ann,
            diags,
            hash,
            count: 0,
            shape: None,
        })
    }

    /// Add a text the table does not hold, reusing a freed id first.
    fn add(&mut self, entry: UniqueText) -> usize {
        let hash = entry.hash;
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id] = Some(entry);
                id
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        };
        self.by_hash.insert(hash, id);
        id
    }

    /// Make room for `additional` more texts.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
        self.by_hash.reserve(additional);
    }

    /// Count one more statement of text `id`.
    pub(crate) fn add_occurrence(&mut self, id: usize) {
        let e = live_mut(&mut self.entries, id);
        e.count += 1;
        if let Some(s) = e.shape {
            self.shapes[s].as_mut().expect("a live shape id").count += 1;
        }
    }

    /// The retract path: count one statement of text `id` less. The text
    /// stays in the table (a later edit of the same batch may revive it)
    /// until [`UniqueTable::release`].
    pub(crate) fn retract(&mut self, id: usize) {
        let e = live_mut(&mut self.entries, id);
        e.count -= 1;
        if let Some(s) = e.shape {
            self.shapes[s].as_mut().expect("a live shape id").count -= 1;
        }
    }

    /// Free text `id` when no statement refers to it any more, and its
    /// shape with its last text; true when the text was freed.
    pub(crate) fn release(&mut self, id: usize) -> bool {
        if self.entries[id].as_ref().is_none_or(|e| e.count > 0) {
            return false;
        }
        let e = self.entries[id].take().expect("checked live above");
        self.by_hash.remove(&e.hash);
        if let Some(s) = e.shape {
            let shape = self.shapes[s].as_mut().expect("a live shape id");
            shape.texts -= 1;
            if shape.texts == 0 {
                self.by_shape.remove(&shape.key);
                self.shapes[s] = None;
                self.free_shapes.push(s);
            }
        }
        self.free.push(id);
        true
    }
}

fn live_mut(entries: &mut [Option<UniqueText>], id: usize) -> &mut UniqueText {
    entries[id]
        .as_mut()
        .expect("a statement refers to a freed unique text")
}

impl std::ops::Index<usize> for UniqueTable {
    type Output = UniqueText;

    /// The live text with id `id`; panics on a freed or unknown id.
    fn index(&self, id: usize) -> &UniqueText {
        self.get(id).expect("no live unique text with this id")
    }
}

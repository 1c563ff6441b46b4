//! Statement fingerprinting: literal-insensitive query templates.
//!
//! Real application logs contain millions of statements drawn from a few
//! hundred *templates* — the same query shape re-issued with different
//! bind values. The fingerprint collapses each statement onto its
//! template so batch analysis (`sqlcheck::Detector::detect_batch`) can
//! group duplicate shapes, and workload statistics can report unique
//! template counts.
//!
//! ## What normalizes
//!
//! * **Literals** — string, numeric, and bind-parameter tokens all become
//!   the placeholder `?`;
//! * **Literal lists** — runs of comma-separated placeholders collapse to
//!   one `?`, so `IN (1, 2, 3)` and `IN (?)` share a template;
//! * **Case** — keywords uppercase, bare identifiers lowercase;
//! * **Whitespace & comments** — dropped entirely (atoms are re-joined
//!   with single spaces);
//! * **Trailing semicolons** — dropped.
//!
//! ## What does *not* normalize
//!
//! * **Quoted identifiers** keep their exact case (`"User"` ≠ `"user"`,
//!   per SQL semantics);
//! * **Structure** — any difference in keywords, identifiers, operators,
//!   or punctuation yields a different template;
//! * **Literal *content*** is erased, which means two statements with the
//!   same fingerprint can still behave differently under rules that
//!   inspect literal values (e.g. leading-wildcard `LIKE` detection).
//!   Consumers that need byte-identical analysis results must therefore
//!   key their caches on the exact statement text *within* a fingerprint
//!   group — which is exactly what `detect_batch` does.

use crate::ast::ParsedStatement;
use crate::token::{Token, TokenKind};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash arbitrary bytes with FNV-1a (64-bit). Deterministic across
/// processes and platforms, unlike `DefaultHasher`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Render the normalized template of a token stream (see the module docs
/// for the normalization rules).
pub fn template_of(tokens: &[Token]) -> String {
    let mut atoms: Vec<String> = Vec::with_capacity(tokens.len());
    for t in tokens {
        if t.is_trivia() {
            continue;
        }
        let atom = match t.kind {
            TokenKind::StringLit | TokenKind::NumberLit | TokenKind::Param => "?".to_string(),
            TokenKind::Keyword => t.text.to_ascii_uppercase(),
            TokenKind::Ident => t.text.to_ascii_lowercase(),
            TokenKind::QuotedIdent => t.ident_value().to_string(),
            _ => t.text.to_string(),
        };
        if atom == "?" {
            // Collapse `?, ?` into `?` so variable-length literal lists
            // (IN lists, VALUES rows) share one template.
            let n = atoms.len();
            if n >= 2 && atoms[n - 1] == "," && atoms[n - 2] == "?" {
                atoms.pop();
                continue;
            }
        }
        atoms.push(atom);
    }
    while atoms.last().map(String::as_str) == Some(";") {
        atoms.pop();
    }
    atoms.join(" ")
}

/// How one template atom's bytes are folded before hashing.
#[derive(Clone, Copy)]
enum Fold {
    /// Hash bytes as-is.
    None,
    /// ASCII-uppercase every byte (keywords).
    Upper,
    /// ASCII-lowercase every byte (bare identifiers).
    Lower,
}

/// Streaming template hasher: produces exactly
/// `fnv1a(template_of(tokens))` without building the template string (or
/// any other allocation). The normalization rules live here once; the
/// string renderer [`template_of`] is the readable counterpart and the
/// equivalence is pinned by tests.
struct TemplateHasher {
    h: u64,
    emitted_any: bool,
    /// Last committed atom was the `?` placeholder.
    last_q: bool,
    /// A `,` atom is buffered, awaiting the next atom (placeholder-list
    /// collapse needs one atom of lookahead).
    pending_comma: bool,
}

impl Default for TemplateHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl TemplateHasher {
    fn new() -> Self {
        TemplateHasher { h: FNV_OFFSET, emitted_any: false, last_q: false, pending_comma: false }
    }

    fn eat(&mut self, b: u8) {
        self.h ^= b as u64;
        self.h = self.h.wrapping_mul(FNV_PRIME);
    }

    /// Commit one atom to the hash (joined by single spaces). The fold
    /// dispatch happens once per atom, not once per byte: each arm is a
    /// tight xor-multiply loop the hot path stays in.
    fn commit(&mut self, text: &str, fold: Fold) {
        if self.emitted_any {
            self.eat(b' ');
        }
        self.emitted_any = true;
        let mut h = self.h;
        match fold {
            Fold::None => {
                for b in text.bytes() {
                    h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
                }
            }
            Fold::Upper => {
                for b in text.bytes() {
                    h = (h ^ b.to_ascii_uppercase() as u64).wrapping_mul(FNV_PRIME);
                }
            }
            Fold::Lower => {
                for b in text.bytes() {
                    h = (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(FNV_PRIME);
                }
            }
        }
        self.h = h;
    }

    /// Commit an atom whose fingerprint fold is already applied (the
    /// interner stores keyword text uppercased, identifier text
    /// lowercased): a pure xor-multiply loop, no case work at all.
    fn commit_folded(&mut self, bytes: &[u8]) {
        if self.emitted_any {
            self.eat(b' ');
        }
        self.emitted_any = true;
        let mut h = self.h;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.h = h;
    }

    /// Feed one word token (keyword or identifier) as prefolded bytes.
    /// Words are never `?`, `,`, or `;` atoms (those characters are not
    /// word-class bytes), so the placeholder/list/semicolon dispatch of
    /// [`TemplateHasher::token`] reduces to the plain-atom arm.
    fn word_folded(&mut self, folded: &[u8]) {
        self.flush_comma();
        self.commit_folded(folded);
        self.last_q = false;
    }

    fn flush_comma(&mut self) {
        if self.pending_comma {
            self.pending_comma = false;
            self.commit(",", Fold::None);
            self.last_q = false;
        }
    }

    fn placeholder(&mut self) {
        if self.pending_comma && self.last_q {
            // `?, ?` collapses to `?`: drop the comma and this
            // placeholder; the previously committed `?` stands.
            self.pending_comma = false;
        } else {
            self.flush_comma();
            self.commit("?", Fold::None);
            self.last_q = true;
        }
    }

    /// Feed one significant token (trivia and trailing semicolons are the
    /// caller's responsibility).
    fn token(&mut self, kind: TokenKind, text: &str) {
        let (value, fold) = match kind {
            TokenKind::StringLit | TokenKind::NumberLit | TokenKind::Param => {
                self.placeholder();
                return;
            }
            TokenKind::Keyword => (text, Fold::Upper),
            TokenKind::Ident => (text, Fold::Lower),
            TokenKind::QuotedIdent => (atom_value(kind, text), Fold::None),
            _ => (text, Fold::None),
        };
        // The rendered template dispatches on the *atom string*, so an
        // atom that happens to read `?` or `,` (e.g. a quoted identifier
        // named `"?"`) participates in placeholder/list folding exactly
        // as a literal's placeholder would. Case folds never produce
        // these single-char atoms from anything else, so comparing the
        // unfolded value is equivalent.
        match value {
            "?" => self.placeholder(),
            "," => {
                self.flush_comma();
                self.pending_comma = true;
            }
            _ => {
                self.flush_comma();
                self.commit(value, fold);
                self.last_q = false;
            }
        }
    }

    fn finish(mut self) -> u64 {
        self.flush_comma();
        self.h
    }
}

/// The template atom string a non-literal token renders to (quoted
/// identifiers lose their delimiters; everything else is the raw text).
fn atom_value(kind: TokenKind, text: &str) -> &str {
    // The boundary check matters only for *unterminated* quoted
    // identifiers: the lexer consumes to end-of-input, so the final byte
    // can sit in the middle of a multi-byte character and slicing would
    // panic — render such a token as raw text instead. (A terminated
    // identifier always ends with its ASCII delimiter, a char boundary.
    // Must stay in lockstep with `Token::ident_value`.)
    if kind == TokenKind::QuotedIdent && text.len() >= 2 && text.is_char_boundary(text.len() - 1)
    {
        &text[1..text.len() - 1]
    } else {
        text
    }
}

/// Whether a token renders to the `;` atom (the trailing-semicolon fold
/// operates on atoms: a quoted identifier named `";"` counts, a literal
/// never does — it renders to `?`).
fn atom_is_semi(kind: TokenKind, text: &str) -> bool {
    match kind {
        TokenKind::StringLit | TokenKind::NumberLit | TokenKind::Param => false,
        _ => atom_value(kind, text) == ";",
    }
}

/// One-token-at-a-time template fingerprint — the push-style counterpart
/// of [`fingerprint_parts`], used by the splitter where tokens are
/// consumed as the lexer produces them and no token stream ever exists to
/// iterate twice.
///
/// The trailing-semicolon fold needs lookahead ([`fingerprint_parts`]
/// takes a second pass to find the last non-`;` atom); here `;` atoms are
/// instead *deferred* — committed only once a later non-semicolon atom
/// proves they are not trailing, and dropped at [`finish`] otherwise.
/// Produces exactly `fingerprint_parts(tokens)` for any token sequence
/// (equivalence pinned by tests).
///
/// [`finish`]: StreamingFingerprint::finish
#[derive(Default)]
pub struct StreamingFingerprint {
    hasher: TemplateHasher,
    /// `;` atoms seen but not yet proven non-trailing.
    pending_semis: u32,
}

impl StreamingFingerprint {
    /// Fresh hasher (empty template).
    pub fn new() -> Self {
        StreamingFingerprint { hasher: TemplateHasher::new(), pending_semis: 0 }
    }

    /// Feed one token. Trivia is skipped here, so the caller may push the
    /// raw lexer stream.
    #[inline]
    pub fn push(&mut self, kind: TokenKind, text: &str) {
        if matches!(kind, TokenKind::Whitespace | TokenKind::Comment) {
            return;
        }
        if atom_is_semi(kind, text) {
            self.pending_semis += 1;
            return;
        }
        for _ in 0..self.pending_semis {
            self.hasher.token(TokenKind::Punct, ";");
        }
        self.pending_semis = 0;
        self.hasher.token(kind, text);
    }

    /// Feed one word token whose fingerprint fold was precomputed —
    /// uppercase bytes for a keyword, lowercase for an identifier, which
    /// is exactly the form [`crate::intern::Interner::folded`] stores.
    /// Equivalent to `push(kind, text)` for any word token (pinned by
    /// tests); the win is that the fold ran once per *unique* word at
    /// intern time instead of once per occurrence here.
    #[inline]
    pub fn push_folded_word(&mut self, folded: &[u8]) {
        for _ in 0..self.pending_semis {
            self.hasher.token(TokenKind::Punct, ";");
        }
        self.pending_semis = 0;
        self.hasher.word_folded(folded);
    }

    /// The fingerprint of everything pushed so far (trailing `;` atoms
    /// folded away), resetting the hasher for the next statement.
    pub fn finish(&mut self) -> u64 {
        self.pending_semis = 0;
        std::mem::take(&mut self.hasher).finish()
    }
}

/// Murmur3-x64-128-style block constants for the content hash.
const MM_C1: u64 = 0x87c3_7b91_1142_53d5;
const MM_C2: u64 = 0x4cf5_ad43_2745_937f;

/// Murmur3 64-bit finaliser: full avalanche over one word.
#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// Streaming content hash — a Murmur3-x64-128-style hash over raw
/// statement bytes, two 64-bit lanes and 16 input bytes per mixing step
/// (the per-byte FNV-128 multiply chain this replaced was the
/// splitter's single largest cost).
///
/// The content hash is defined over a statement's **source bytes**, not
/// its token structure: the lexer is deterministic, so equal bytes lex
/// to equal tokens and unequal bytes differ somewhere the 128-bit hash
/// will see — token kinds add no discriminating power. Feeding each
/// token's exact text in order is therefore identical to hashing the
/// statement slice in one shot ([`content_hash_bytes`]), which is what
/// the splitter does once per unique statement text.
///
/// The struct is `Copy`, so a caller can snapshot the state before
/// feeding tokens that may turn out to be excluded (trailing trivia) and
/// keep the snapshot in O(1) instead of buffering tokens.
#[derive(Debug, Clone, Copy)]
pub struct ContentHasher {
    h1: u64,
    h2: u64,
    /// Partial block awaiting 16 buffered bytes.
    buf: [u8; 16],
    buf_len: u8,
    /// Total bytes fed (folded into the finaliser).
    total: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// Fresh hasher (empty byte stream).
    pub fn new() -> Self {
        ContentHasher { h1: 0, h2: 0, buf: [0; 16], buf_len: 0, total: 0 }
    }

    #[inline]
    fn mix_block(&mut self, k1: u64, k2: u64) {
        let k1 = k1.wrapping_mul(MM_C1).rotate_left(31).wrapping_mul(MM_C2);
        self.h1 ^= k1;
        self.h1 = self
            .h1
            .rotate_left(27)
            .wrapping_add(self.h2)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);
        let k2 = k2.wrapping_mul(MM_C2).rotate_left(33).wrapping_mul(MM_C1);
        self.h2 ^= k2;
        self.h2 = self
            .h2
            .rotate_left(31)
            .wrapping_add(self.h1)
            .wrapping_mul(5)
            .wrapping_add(0x3849_5ab5);
    }

    /// Feed raw bytes. Chunking is irrelevant: any sequence of pushes
    /// whose concatenation is equal yields the same hash.
    #[inline]
    pub fn push_bytes(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        let bl = self.buf_len as usize;
        if bl > 0 {
            let need = 16 - bl;
            if bytes.len() < need {
                self.buf[bl..bl + bytes.len()].copy_from_slice(bytes);
                self.buf_len += bytes.len() as u8;
                return;
            }
            self.buf[bl..].copy_from_slice(&bytes[..need]);
            bytes = &bytes[need..];
            let k1 = u64::from_le_bytes(self.buf[..8].try_into().expect("8 bytes"));
            let k2 = u64::from_le_bytes(self.buf[8..].try_into().expect("8 bytes"));
            self.mix_block(k1, k2);
            self.buf_len = 0;
        }
        let mut chunks = bytes.chunks_exact(16);
        for c in &mut chunks {
            let k1 = u64::from_le_bytes(c[..8].try_into().expect("8 bytes"));
            let k2 = u64::from_le_bytes(c[8..].try_into().expect("8 bytes"));
            self.mix_block(k1, k2);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len() as u8;
    }

    /// Feed one token's exact text (`kind` carries no information — see
    /// the type docs; the parameter is kept so push sites read uniformly
    /// with [`StreamingFingerprint::push`]).
    #[inline]
    pub fn push(&mut self, kind: TokenKind, text: &str) {
        let _ = kind;
        self.push_bytes(text.as_bytes());
    }

    /// The hash of everything pushed so far. Identical to
    /// [`content_hash_bytes`] over the concatenated pushed bytes.
    pub fn finish(&self) -> u128 {
        let tail_len = self.buf_len as usize;
        let (mut h1, mut h2) = (self.h1, self.h2);
        if tail_len > 8 {
            let mut b = [0u8; 8];
            b[..tail_len - 8].copy_from_slice(&self.buf[8..tail_len]);
            let k2 = u64::from_le_bytes(b)
                .wrapping_mul(MM_C2)
                .rotate_left(33)
                .wrapping_mul(MM_C1);
            h2 ^= k2;
        }
        if tail_len > 0 {
            let n = tail_len.min(8);
            let mut b = [0u8; 8];
            b[..n].copy_from_slice(&self.buf[..n]);
            let k1 = u64::from_le_bytes(b)
                .wrapping_mul(MM_C1)
                .rotate_left(31)
                .wrapping_mul(MM_C2);
            h1 ^= k1;
        }
        h1 ^= self.total;
        h2 ^= self.total;
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = fmix64(h1);
        h2 = fmix64(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        (h1 as u128) | ((h2 as u128) << 64)
    }
}

/// One-shot content hash of raw bytes — the core the splitter calls
/// once per unique statement span (no per-token work at all).
pub fn content_hash_bytes(bytes: &[u8]) -> u128 {
    let mut h = ContentHasher::new();
    h.push_bytes(bytes);
    h.finish()
}

/// Streaming fingerprint over `(kind, text)` pairs — the allocation-free
/// core shared by [`fingerprint_of`] and the span-level front-end. The
/// caller supplies significant *and* trivia tokens in order; trivia is
/// skipped here.
pub fn fingerprint_parts<'t>(parts: impl Iterator<Item = (TokenKind, &'t str)> + Clone) -> u64 {
    // Trailing-semicolon fold: count trailing significant `;` atoms so
    // the streaming pass can stop before them.
    let mut significant = 0usize;
    let mut last_non_semi = 0usize;
    for (kind, text) in parts.clone() {
        if matches!(kind, TokenKind::Whitespace | TokenKind::Comment) {
            continue;
        }
        significant += 1;
        if !atom_is_semi(kind, text) {
            last_non_semi = significant;
        }
    }
    let mut hasher = TemplateHasher::new();
    let mut seen = 0usize;
    for (kind, text) in parts {
        if matches!(kind, TokenKind::Whitespace | TokenKind::Comment) {
            continue;
        }
        seen += 1;
        if seen > last_non_semi {
            break;
        }
        hasher.token(kind, text);
    }
    hasher.finish()
}

/// Fingerprint of a token stream: the FNV-1a hash of its template.
pub fn fingerprint_of(tokens: &[Token]) -> u64 {
    fingerprint_parts(tokens.iter().map(|t| (t.kind, t.text.as_str())))
}

/// Content hash of a token stream: the 128-bit byte hash
/// ([`content_hash_bytes`]) of the concatenated token texts — for a
/// statement's token stream, exactly its source bytes (spans excluded,
/// so duplicate statements at different script offsets collide — by
/// design). Unlike the fingerprint, this is **literal-sensitive**: it
/// identifies statements whose analysis results are interchangeable.
/// 128 bits make accidental collisions negligible, which lets batch
/// analysis use the hash alone as a result-cache key.
pub fn content_hash_of(tokens: &[Token]) -> u128 {
    content_hash_parts(tokens.iter().map(|t| (t.kind, t.text.as_str())))
}

/// Streaming content hash over `(kind, text)` pairs — the core shared by
/// [`content_hash_of`] and the span-level front-end. Hashes the
/// concatenated texts; kinds carry no extra information (equal bytes lex
/// to equal kinds — see [`ContentHasher`]).
pub fn content_hash_parts<'t>(parts: impl Iterator<Item = (TokenKind, &'t str)>) -> u128 {
    let mut h = ContentHasher::new();
    for (_, text) in parts {
        h.push_bytes(text.as_bytes());
    }
    h.finish()
}

/// Content hash of span-level tokens (no text materialisation).
/// Identical to [`content_hash_of`] over the materialised tokens.
pub fn content_hash_spanned(src: &str, tokens: &[crate::lexer::SpannedToken]) -> u128 {
    content_hash_parts(tokens.iter().map(|t| (t.kind, t.text(src))))
}

/// Template fingerprint of span-level tokens (no text materialisation).
/// Identical to [`fingerprint_of`] over the materialised tokens.
pub fn fingerprint_spanned(src: &str, tokens: &[crate::lexer::SpannedToken]) -> u64 {
    fingerprint_parts(tokens.iter().map(|t| (t.kind, t.text(src))))
}

impl ParsedStatement {
    /// The statement's normalized template (literals → `?`, case and
    /// whitespace folded — see [`crate::fingerprint`] for exact
    /// semantics).
    pub fn template(&self) -> String {
        template_of(&self.tokens)
    }

    /// The statement's template fingerprint: a deterministic 64-bit hash
    /// of [`ParsedStatement::template`]. Statements that differ only in
    /// literal values, literal-list lengths, keyword/identifier case, or
    /// whitespace share a fingerprint.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(&self.tokens)
    }

    /// The statement's literal-sensitive content hash (see
    /// [`content_hash_of`]).
    pub fn content_hash(&self) -> u128 {
        content_hash_of(&self.tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_one;
    use crate::dialect::Dialect;

    fn fp(sql: &str) -> u64 {
        parse_one(sql, Dialect::Generic).fingerprint()
    }

    #[test]
    fn literals_fold_to_placeholders() {
        assert_eq!(
            fp("SELECT * FROM t WHERE a = 1"),
            fp("SELECT * FROM t WHERE a = 42")
        );
        assert_eq!(
            fp("SELECT * FROM t WHERE a = 'x'"),
            fp("SELECT * FROM t WHERE a = 'other value'")
        );
        assert_eq!(
            fp("SELECT * FROM t WHERE a = ?"),
            fp("SELECT * FROM t WHERE a = 7")
        );
    }

    #[test]
    fn case_and_whitespace_fold() {
        assert_eq!(
            fp("select  *\nfrom T where A = 1"),
            fp("SELECT * FROM t WHERE a = 2")
        );
        // comments are trivia
        assert_eq!(
            fp("SELECT * FROM t -- pick all\nWHERE a = 1"),
            fp("SELECT * FROM t WHERE a = 1")
        );
    }

    #[test]
    fn in_lists_collapse() {
        assert_eq!(
            fp("SELECT * FROM t WHERE a IN (1, 2, 3)"),
            fp("SELECT * FROM t WHERE a IN (4)")
        );
        assert_eq!(
            fp("INSERT INTO t (a, b) VALUES (1, 'x')"),
            fp("INSERT INTO t (a, b) VALUES (2, 'y')")
        );
    }

    #[test]
    fn trailing_semicolon_folds() {
        assert_eq!(fp("SELECT 1"), fp("SELECT 1;"));
    }

    #[test]
    fn structure_distinguishes() {
        assert_ne!(fp("SELECT a FROM t"), fp("SELECT b FROM t"));
        assert_ne!(fp("SELECT a FROM t"), fp("SELECT a FROM u"));
        assert_ne!(
            fp("SELECT * FROM t WHERE a = 1"),
            fp("SELECT * FROM t WHERE a > 1")
        );
        assert_ne!(fp("DELETE FROM t"), fp("SELECT * FROM t"));
    }

    #[test]
    fn quoted_identifiers_keep_case() {
        assert_ne!(fp("SELECT \"A\" FROM t"), fp("SELECT \"a\" FROM t"));
        // ...while bare identifiers fold
        assert_eq!(fp("SELECT A FROM t"), fp("SELECT a FROM t"));
    }

    #[test]
    fn template_text_is_readable() {
        let sql = "SELECT  *  FROM Users WHERE Name = 'N' AND id IN (1,2,3);";
        let t = parse_one(sql, Dialect::Generic).template();
        assert_eq!(t, "SELECT * FROM users WHERE name = ? AND id IN ( ? )");
    }

    #[test]
    fn streaming_fingerprint_equals_template_hash() {
        // The streaming hasher must agree byte-for-byte with hashing the
        // rendered template string, across every normalization rule:
        // literal folds, list collapses, case folds, quoted identifiers,
        // comments, trailing semicolons, pathological comma runs.
        let corpus = [
            "SELECT * FROM t WHERE a = 1",
            "select a, b from T where A = 'x' and b in (1, 2, 3);",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y');;",
            "SELECT \"Weird\" FROM `t2` WHERE x LIKE '%v%' -- c\n;",
            "UPDATE t SET a = ?, b = :name WHERE id = $1",
            "SELECT 1,2,3,4",
            "SELECT f(1 , 2 , 3), g( )",
            "SELECT ',' , ';' ; ;",
            "",
            ";;;",
            "SELECT a ,",
            "SELECT * FROM t WHERE a IN (?, ?, ?) AND b IN (1)",
            "/* only a comment */",
            // Pathological quoted identifiers whose *atom* collides with
            // structural characters: the rendered template dispatches on
            // the atom string, so these must fold identically.
            "SELECT \"?\", 1 FROM t",
            "SELECT 1, \"?\" FROM t",
            "SELECT a, \";\"",
            "SELECT a \";\" ;",
            "SELECT \",\" FROM t",
            "SELECT 1 \",\" 2 FROM t",
            "SELECT \"\" FROM t",
        ];
        for sql in corpus {
            let p = parse_one(sql, Dialect::Generic);
            assert_eq!(
                p.fingerprint(),
                fnv1a(p.template().as_bytes()),
                "streaming vs rendered template diverged on {sql:?} (template {:?})",
                p.template()
            );
        }
    }

    #[test]
    fn spanned_hashes_equal_materialized_hashes() {
        let sql = "SELECT a, \"B\" FROM t WHERE x = 'v' AND y IN (1,2); DELETE FROM t;";
        let toks = crate::lexer::lex_spans(sql, Dialect::Generic);
        let owned = crate::lexer::tokenize(sql, Dialect::Generic);
        assert_eq!(content_hash_spanned(sql, &toks), content_hash_of(&owned));
        assert_eq!(fingerprint_spanned(sql, &toks), fingerprint_of(&owned));
    }

    #[test]
    fn push_hashers_equal_pull_hashers() {
        // The push-style hashers the splitter feeds token-by-token
        // must agree with the iterator-based ones on any token stream —
        // including streams whose trailing atoms exercise the deferred
        // `;` fold (quoted identifiers named `";"`, trailing semicolon
        // runs, comma/semicolon interleavings).
        let corpus = [
            "SELECT * FROM t WHERE a = 1",
            "select a, b from T where A = 'x' and b in (1, 2, 3);",
            "SELECT a \";\"",
            "SELECT a \";\" ;",
            "SELECT a, \";\" ; ;",
            "SELECT \";\" , \";\"",
            "SELECT ',' , ';' ; ;",
            "SELECT 1,2,3,4",
            "",
            ";;;",
            "-- only trivia\n/* here */",
            "SELECT \"?\", 1 FROM t ;",
        ];
        for sql in corpus {
            let toks = crate::lexer::lex_spans(sql, Dialect::Generic);
            let mut fp = StreamingFingerprint::new();
            let mut ch = ContentHasher::new();
            for t in &toks {
                fp.push(t.kind, t.text(sql));
                ch.push(t.kind, t.text(sql));
            }
            assert_eq!(
                fp.finish(),
                fingerprint_spanned(sql, &toks),
                "streaming fingerprint diverged on {sql:?}"
            );
            assert_eq!(
                ch.finish(),
                content_hash_spanned(sql, &toks),
                "streaming content hash diverged on {sql:?}"
            );
        }
    }

    #[test]
    fn content_hash_is_a_byte_hash() {
        // Chunking invariance: any split of the byte stream into pushes
        // yields the one-shot hash (the splitter relies on this —
        // it hashes each unique statement slice at once, while the
        // token-stream front-ends push text-by-text).
        let data =
            b"SELECT * FROM t WHERE a = 'long literal body spanning blocks' AND b IN (1,2,3)";
        let oneshot = content_hash_bytes(data);
        for chunk in [1usize, 2, 3, 7, 8, 15, 16, 17, 64] {
            let mut h = ContentHasher::new();
            for c in data.chunks(chunk) {
                h.push_bytes(c);
            }
            assert_eq!(h.finish(), oneshot, "chunk size {chunk}");
        }
        assert_ne!(content_hash_bytes(b"a"), content_hash_bytes(b"b"));
        assert_ne!(content_hash_bytes(b""), content_hash_bytes(b"\0"));
        // A statement's content hash is the hash of its source slice.
        let sql = "SELECT a /* t */ , b FROM t";
        let toks = crate::lexer::lex_spans(sql, Dialect::Generic);
        assert_eq!(content_hash_spanned(sql, &toks), content_hash_bytes(sql.as_bytes()));
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: the fingerprint must not drift between releases,
        // it is used as a cross-run cache key.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

//! Statement fingerprinting: literal-insensitive query templates, and
//! the literal-sensitive content hash.
//!
//! Real application logs contain millions of statements drawn from a few
//! hundred *templates* — the same query shape re-issued with different
//! bind values. The fingerprint collapses each statement onto its
//! template, so workload statistics can report unique template counts
//! (`unique_templates`).
//!
//! The module keeps one fingerprint engine and one content hash:
//!
//! * [`StreamingFingerprint`] hashes a token stream pushed one token at
//!   a time; [`fingerprint_of`], [`fingerprint_spanned`] and
//!   [`ParsedStatement::fingerprint`] feed it owned tokens, span-level
//!   tokens and a re-lex. The context builder fingerprints each new
//!   unique text from the token vector it materialises for parsing, so
//!   no lex runs for the fingerprint alone. [`template_of`] renders the
//!   same template as a string: the readable oracle the tests pin the
//!   engine to.
//! * [`content_hash_bytes`] hashes a statement's source bytes; every
//!   caller hashes the slice.
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
use crate::dialect::Dialect;
use crate::lexer::{lex_into, tokenize_significant, SpannedToken, TokenSink};
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

/// Template hasher over significant atoms: produces exactly
/// `fnv1a(template_of(tokens))` without building the template string (or
/// any other allocation), except for the trailing-semicolon fold, which
/// [`StreamingFingerprint`] applies before atoms reach it.
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
        TemplateHasher { h: FNV_OFFSET, emitted_any: false, last_q: false, pending_comma: false }
    }
}

impl TemplateHasher {
    /// Commit one atom to the hash (joined by single spaces). The fold
    /// dispatch happens once per atom, not once per byte: each arm is a
    /// tight xor-multiply loop the hot path stays in.
    fn commit(&mut self, text: &str, fold: Fold) {
        let mut h = self.h;
        if self.emitted_any {
            h = (h ^ b' ' as u64).wrapping_mul(FNV_PRIME);
        }
        self.emitted_any = true;
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

/// The fingerprint engine: one token at a time, in source order, trivia
/// included (it is skipped here). Every fingerprint in the crate —
/// [`fingerprint_of`], [`fingerprint_spanned`] and
/// [`ParsedStatement::fingerprint`] — is this engine fed a token stream;
/// it produces exactly `fnv1a(template_of(tokens))` (pinned by tests).
///
/// The trailing-semicolon fold needs lookahead; here `;` atoms are
/// *deferred* — committed only once a later non-semicolon atom proves
/// they are not trailing, and dropped at [`finish`] otherwise.
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
        Self::default()
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

    /// The fingerprint of everything pushed (trailing `;` atoms folded
    /// away).
    pub fn finish(self) -> u64 {
        self.hasher.finish()
    }
}

/// Fingerprint of a token stream: the FNV-1a hash of its template.
pub fn fingerprint_of(tokens: &[Token]) -> u64 {
    let mut fp = StreamingFingerprint::new();
    for t in tokens {
        fp.push(t.kind, t.text.as_str());
    }
    fp.finish()
}

/// Template fingerprint of span-level tokens (no text materialisation).
/// Identical to [`fingerprint_of`] over the materialised tokens.
pub fn fingerprint_spanned(src: &str, tokens: &[SpannedToken]) -> u64 {
    let mut fp = StreamingFingerprint::new();
    for t in tokens {
        fp.push(t.kind, t.text(src));
    }
    fp.finish()
}

/// The sink behind [`ParsedStatement::fingerprint`]: each token of the
/// re-lexed source goes straight into the engine.
struct ReLexSink<'a> {
    src: &'a str,
    fp: StreamingFingerprint,
}

impl TokenSink for ReLexSink<'_> {
    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        self.fp.push(kind, &self.src[start..end]);
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

/// Up to 8 bytes as a little-endian word, zero-padded.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// The content hash: a Murmur3-x64-128-style hash over a statement's
/// source bytes, two 64-bit lanes and 16 input bytes per mixing step.
///
/// It is defined over the **source bytes**, not the token structure: the
/// lexer is deterministic, so equal bytes lex to equal tokens, and token
/// kinds add no discriminating power. Spans are excluded, so duplicate
/// statements at different script offsets collide — by design. Unlike
/// the fingerprint, it is **literal-sensitive**: it identifies statements
/// whose analysis results are interchangeable, and 128 bits make
/// accidental collisions negligible, which lets analysis use the hash
/// alone as a result-cache key.
pub fn content_hash_bytes(bytes: &[u8]) -> u128 {
    let (mut h1, mut h2) = (0u64, 0u64);
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let k1 = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let k2 = u64::from_le_bytes(b[8..].try_into().expect("8 bytes"));
        h1 ^= k1.wrapping_mul(MM_C1).rotate_left(31).wrapping_mul(MM_C2);
        h1 = h1.rotate_left(27).wrapping_add(h2).wrapping_mul(5).wrapping_add(0x52dc_e729);
        h2 ^= k2.wrapping_mul(MM_C2).rotate_left(33).wrapping_mul(MM_C1);
        h2 = h2.rotate_left(31).wrapping_add(h1).wrapping_mul(5).wrapping_add(0x3849_5ab5);
    }
    let tail = blocks.remainder();
    if tail.len() > 8 {
        h2 ^= le_word(&tail[8..]).wrapping_mul(MM_C2).rotate_left(33).wrapping_mul(MM_C1);
    }
    if !tail.is_empty() {
        let k1 = le_word(&tail[..tail.len().min(8)]);
        h1 ^= k1.wrapping_mul(MM_C1).rotate_left(31).wrapping_mul(MM_C2);
    }
    let total = bytes.len() as u64;
    h1 ^= total;
    h2 ^= total;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    (h1 as u128) | ((h2 as u128) << 64)
}

impl ParsedStatement {
    /// The statement's normalized template (literals → `?`, case and
    /// whitespace folded — see [`crate::fingerprint`] for exact
    /// semantics), re-lexing [`ParsedStatement::source`] under
    /// `dialect`, which must be the dialect the statement was parsed
    /// under.
    pub fn template(&self, dialect: Dialect) -> String {
        template_of(&tokenize_significant(&self.source, dialect))
    }

    /// The statement's template fingerprint: a deterministic 64-bit hash
    /// of [`ParsedStatement::template`] under the same `dialect`, streamed
    /// from a re-lex of the source (no token vector). Statements that
    /// differ only in literal values, literal-list lengths,
    /// keyword/identifier case, or whitespace share a fingerprint.
    pub fn fingerprint(&self, dialect: Dialect) -> u64 {
        let mut sink = ReLexSink { src: &self.source, fp: StreamingFingerprint::new() };
        lex_into(&self.source, dialect, &mut sink);
        sink.fp.finish()
    }

    /// The statement's literal-sensitive content hash
    /// ([`content_hash_bytes`] of its source). A statement's tokens
    /// concatenate to its source under every dialect, so this one needs
    /// no dialect and no re-lex.
    pub fn content_hash(&self) -> u128 {
        content_hash_bytes(self.source.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_one;

    fn fp(sql: &str) -> u64 {
        parse_one(sql, Dialect::Generic).fingerprint(Dialect::Generic)
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
        let t = parse_one(sql, Dialect::Generic).template(Dialect::Generic);
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
                p.fingerprint(Dialect::Generic),
                fnv1a(p.template(Dialect::Generic).as_bytes()),
                "streaming vs rendered template diverged on {sql:?} (template {:?})",
                p.template(Dialect::Generic)
            );
        }
    }

    #[test]
    fn spanned_hashes_equal_materialized_hashes() {
        let sql = "SELECT a, \"B\" FROM t WHERE x = 'v' AND y IN (1,2); DELETE FROM t;";
        let toks = crate::lexer::lex_spans(sql, Dialect::Generic);
        let owned = crate::lexer::tokenize(sql, Dialect::Generic);
        let concat: String = owned.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(content_hash_bytes(concat.as_bytes()), content_hash_bytes(sql.as_bytes()));
        assert_eq!(fingerprint_spanned(sql, &toks), fingerprint_of(&owned));
    }

    #[test]
    fn push_hashers_equal_pull_hashers() {
        // The one engine, fed through each of its wrappers, must equal
        // the FNV-1a hash of the rendered template on any token stream —
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
            let owned = crate::lexer::tokenize(sql, Dialect::Generic);
            let want = fnv1a(template_of(&owned).as_bytes());
            let toks = crate::lexer::lex_spans(sql, Dialect::Generic);
            assert_eq!(fingerprint_of(&owned), want, "fingerprint_of diverged on {sql:?}");
            assert_eq!(fingerprint_spanned(sql, &toks), want, "spanned diverged on {sql:?}");
            let parsed = parse_one(sql, Dialect::Generic);
            assert_eq!(parsed.fingerprint(Dialect::Generic), want, "re-lex diverged on {sql:?}");
        }
    }

    #[test]
    fn content_hash_is_a_byte_hash() {
        // Pinned values: a statement's content hash keys the unique-text
        // table, so the function must not drift. They cover the empty
        // input, a tail shorter than one word, one word, a tail longer
        // than one word, and several 16-byte blocks.
        let pinned: [(&str, u128); 5] = [
            ("", 0),
            ("a", 0xe6b53a48510e895a85555565f6597889),
            ("SELECT 1", 0x531b9ad41544872992942c53b00690e2),
            ("SELECT * FROM t WHERE", 0xc85ebfabe95a7e92bc18fa61d65091e9),
            (
                "SELECT * FROM t WHERE a = 'long literal body spanning blocks' AND b IN (1,2,3)",
                0xee6055ee130612715c2f9a1908bf9c6e,
            ),
        ];
        for (text, want) in pinned {
            assert_eq!(content_hash_bytes(text.as_bytes()), want, "{text:?}");
        }
        // Every prefix length of a 300-byte text: each tail length, at
        // every block count.
        let text: Vec<u8> = (0..300u32).map(|i| b'a' + ((i * 7 + i / 3) % 26) as u8).collect();
        let mut acc = 0u128;
        for n in 0..=text.len() {
            acc = acc.rotate_left(7) ^ content_hash_bytes(&text[..n]);
        }
        assert_eq!(acc, 0xd7ce5a596c8c8a9244bb02fd6ba1bc0a);
        assert_ne!(content_hash_bytes(b"a"), content_hash_bytes(b"b"));
        assert_ne!(content_hash_bytes(b""), content_hash_bytes(b"\0"));
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: the fingerprint must not drift between releases,
        // it is used as a cross-run cache key.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

//! Per-script string interning for word tokens.
//!
//! An [`Interner`] answers, once per *unique* word, whether a word is a
//! keyword and how it case-folds for the template fingerprint. Real
//! scripts draw their words from a tiny vocabulary (a few dozen keywords
//! plus the schema's identifiers), so after the first occurrence every
//! repeat resolves to a [`Symbol`] with one hash-and-probe: no keyword
//! binary search, no re-folding, no re-hashing of the slice. No pipeline
//! stage uses it yet; it is the basis for interned identifiers in the
//! context (schema, workload profile and inter-query rules).
//!
//! Symbols are **per script**: an [`Interner`] is created fresh for each
//! script and its symbols are meaningless
//! outside it. The keyword range is the exception — symbols
//! `0..KEYWORDS.len()` are pre-assigned to [`KEYWORDS`] in table order,
//! identical in every interner, which is what lets a `Symbol` answer
//! "is this a keyword" as a single integer compare.
//!
//! Interning is **ASCII-case-insensitive**: `Users`, `users`, and
//! `USERS` share a symbol. That is precisely the identity the consumers
//! want — keyword recognition is case-insensitive, and the template
//! fingerprint folds word case anyway. Consumers needing exact case
//! (e.g. quoted-identifier semantics) keep using the token's span; quoted
//! identifiers are not word tokens and never reach the interner.

use crate::token::KEYWORDS;

/// A word token's interned identity within one [`Interner`].
///
/// Values `0..KEYWORDS.len()` are keywords (index into [`KEYWORDS`]);
/// higher values are per-script identifiers in first-occurrence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Whether this symbol is a SQL keyword — one integer compare.
    #[inline]
    pub fn is_keyword(self) -> bool {
        (self.0 as usize) < KEYWORDS.len()
    }

    /// Index into [`KEYWORDS`] if this symbol is a keyword.
    #[inline]
    pub fn keyword_index(self) -> Option<usize> {
        if self.is_keyword() {
            Some(self.0 as usize)
        } else {
            None
        }
    }

    /// The raw symbol value (keyword range first, then identifiers in
    /// first-occurrence order).
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// FxHash-style multiplier (same constant as the splitter's dedup map).
const HASH_K: u64 = 0x517c_c1b7_2722_0a95;

/// Hash already-lowercased bytes, 8 at a time.
#[inline]
fn hash_folded(bytes: &[u8]) -> u64 {
    let mut h = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(HASH_K);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(HASH_K);
    }
    // Fold the length in so `"a"` and `"a\0"`-style tails cannot collide
    // structurally (the tail zero-pad above erases the distinction).
    (h.rotate_left(5) ^ bytes.len() as u64).wrapping_mul(HASH_K)
}

/// The static keyword side of every interner: an open-addressed probe
/// table over the lower-folded keyword texts, built once per process.
struct KwTable {
    /// Power-of-two slot array holding `keyword_index + 1` (0 = empty).
    slots: Box<[u16]>,
    /// Lower-folded keyword texts, concatenated; `offsets[i]..offsets[i+1]`
    /// is keyword `i`.
    lower: Box<str>,
    offsets: Box<[u32]>,
}

/// Slot count for the keyword table: 512 slots for ~150 keywords keeps
/// probe chains short (load factor < 0.3).
const KW_SLOTS: usize = 512;

fn build_kw_table() -> KwTable {
    let mut slots = vec![0u16; KW_SLOTS].into_boxed_slice();
    let mut lower = String::new();
    let mut offsets = Vec::with_capacity(KEYWORDS.len() + 1);
    offsets.push(0u32);
    for (i, kw) in KEYWORDS.iter().enumerate() {
        lower.push_str(&kw.to_ascii_lowercase());
        offsets.push(lower.len() as u32);
        let h = hash_folded(&lower.as_bytes()[offsets[i] as usize..]);
        let mut slot = h as usize & (KW_SLOTS - 1);
        while slots[slot] != 0 {
            slot = (slot + 1) & (KW_SLOTS - 1);
        }
        slots[slot] = (i + 1) as u16;
    }
    KwTable { slots, lower: lower.into_boxed_str(), offsets: offsets.into_boxed_slice() }
}

impl KwTable {
    #[inline]
    fn lower_of(&self, idx: usize) -> &[u8] {
        &self.lower.as_bytes()[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    /// Look up a lower-folded word; returns the keyword index.
    #[inline]
    fn lookup(&self, folded: &[u8], hash: u64) -> Option<usize> {
        let mut slot = hash as usize & (KW_SLOTS - 1);
        loop {
            let e = self.slots[slot];
            if e == 0 {
                return None;
            }
            let idx = (e - 1) as usize;
            if self.lower_of(idx) == folded {
                return Some(idx);
            }
            slot = (slot + 1) & (KW_SLOTS - 1);
        }
    }
}

static KW_TABLE: std::sync::OnceLock<KwTable> = std::sync::OnceLock::new();

/// One interned identifier: its hash plus the lower-folded text's range
/// in the interner's arena.
struct Entry {
    hash: u64,
    start: u32,
    end: u32,
}

/// Per-script word interner. See the module docs for the identity
/// contract (ASCII-case-insensitive, keyword symbols pre-assigned and
/// stable, identifier symbols per script in first-occurrence order).
pub struct Interner {
    kw: &'static KwTable,
    /// Open-addressed identifier slots holding `entry_index + 1`.
    slots: Vec<u32>,
    entries: Vec<Entry>,
    /// Lower-folded identifier texts, concatenated.
    arena: String,
    /// Scratch buffer the case fold writes into (reused across words).
    scratch: Vec<u8>,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl Interner {
    /// Fresh interner: keywords pre-interned, no identifiers.
    pub fn new() -> Self {
        Interner {
            kw: KW_TABLE.get_or_init(build_kw_table),
            slots: vec![0u32; 64],
            entries: Vec::new(),
            arena: String::new(),
            scratch: Vec::with_capacity(32),
        }
    }

    /// Number of distinct identifiers interned so far (keywords are not
    /// counted — they are pre-interned in every interner).
    pub fn ident_count(&self) -> usize {
        self.entries.len()
    }

    /// Intern one word token (identifier-class bytes as produced by the
    /// lexer). Returns the same symbol for every ASCII-case-insensitive
    /// spelling of the same word, within this interner.
    pub fn intern(&mut self, word: &str) -> Symbol {
        self.scratch.clear();
        self.scratch.extend(word.bytes().map(|b| b.to_ascii_lowercase()));
        let hash = hash_folded(&self.scratch);
        // Keyword range first: static table, shared by all interners.
        if let Some(idx) = self.kw.lookup(&self.scratch, hash) {
            return Symbol(idx as u32);
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let e = self.slots[slot];
            if e == 0 {
                break;
            }
            let entry = &self.entries[(e - 1) as usize];
            if entry.hash == hash
                && &self.arena.as_bytes()[entry.start as usize..entry.end as usize]
                    == self.scratch.as_slice()
            {
                return Symbol(KEYWORDS.len() as u32 + e - 1);
            }
            slot = (slot + 1) & mask;
        }
        let start = self.arena.len() as u32;
        // The fold maps ASCII bytes to ASCII and leaves non-ASCII bytes
        // untouched, so the scratch is valid UTF-8 whenever the input was.
        self.arena.push_str(
            std::str::from_utf8(&self.scratch).expect("case fold preserves UTF-8"),
        );
        let entry_idx = self.entries.len() as u32;
        self.entries.push(Entry { hash, start, end: self.arena.len() as u32 });
        self.slots[slot] = entry_idx + 1;
        if (self.entries.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        Symbol(KEYWORDS.len() as u32 + entry_idx)
    }

    #[cold]
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let mask = new_len - 1;
        let mut slots = vec![0u32; new_len];
        for (i, e) in self.entries.iter().enumerate() {
            let mut slot = e.hash as usize & mask;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = i as u32 + 1;
        }
        self.slots = slots;
    }

    /// The symbol's **fingerprint-folded** text: uppercase for keywords,
    /// lowercase for identifiers — exactly the byte sequence the template
    /// fingerprint hashes for this word ([`crate::fingerprint`]).
    ///
    /// # Panics
    /// If `sym` was produced by a different interner and is out of range
    /// here (keyword symbols are shared and always valid).
    #[inline]
    pub fn folded(&self, sym: Symbol) -> &str {
        match sym.keyword_index() {
            Some(idx) => KEYWORDS[idx],
            None => {
                let e = &self.entries[sym.0 as usize - KEYWORDS.len()];
                &self.arena[e.start as usize..e.end as usize]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::is_keyword;

    #[test]
    fn keyword_symbols_match_static_classifier() {
        // The interner's keyword decision must agree with `is_keyword`
        // for every keyword spelling and for near-miss identifiers.
        let mut i = Interner::new();
        for (idx, kw) in KEYWORDS.iter().enumerate() {
            let s = i.intern(kw);
            assert_eq!(s, Symbol(idx as u32), "{kw}");
            assert!(s.is_keyword());
            let lower = kw.to_ascii_lowercase();
            assert_eq!(i.intern(&lower), s, "case-insensitive {kw}");
            assert_eq!(i.folded(s), *kw, "folded form of a keyword is its table text");
        }
        for w in ["tenant", "selec", "selectx", "x", "_", "users", "from_id"] {
            let s = i.intern(w);
            assert!(!s.is_keyword(), "{w}");
            assert!(!is_keyword(w), "{w}");
            assert_eq!(i.folded(s), w.to_ascii_lowercase());
        }
    }

    /// Deterministic pseudo-random identifier stream for the property
    /// tests below (no RNG dependency).
    fn pseudo_words(seed: u64, n: usize) -> Vec<String> {
        let mut x = seed | 1;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 1 + (x % 11) as usize;
            let mut w = String::new();
            for k in 0..len {
                let c = b'a' + ((x >> (k * 5)) % 26) as u8;
                // Mix cases so interning exercises the fold.
                w.push(if (x >> k) & 1 == 0 { c as char } else { c.to_ascii_uppercase() as char });
            }
            out.push(w);
        }
        out
    }

    #[test]
    fn symbol_stability_property() {
        // Property: within one interner, two words get the same symbol
        // iff they are ASCII-case-insensitively equal; re-interning any
        // word returns its original symbol.
        let words = pseudo_words(0xD1CE, 4000);
        let mut i = Interner::new();
        let mut by_folded: std::collections::HashMap<String, Symbol> =
            std::collections::HashMap::new();
        for w in &words {
            let sym = i.intern(w);
            let folded = w.to_ascii_lowercase();
            match by_folded.get(&folded) {
                Some(&prev) => assert_eq!(sym, prev, "symbol drifted for {w:?}"),
                None => {
                    by_folded.insert(folded.clone(), sym);
                }
            }
            assert_eq!(i.intern(w), sym, "re-intern of {w:?} not stable");
            if sym.is_keyword() {
                assert!(i.folded(sym).eq_ignore_ascii_case(&folded));
            } else {
                assert_eq!(i.folded(sym), folded);
            }
        }
        // Distinct folded words must have distinct symbols.
        let symbols: std::collections::HashSet<_> = by_folded.values().copied().collect();
        assert_eq!(symbols.len(), by_folded.len(), "two distinct words shared a symbol");
    }

    #[test]
    fn no_cross_script_leakage_property() {
        // Property: a fresh interner starts empty and assigns identifier
        // symbols densely in first-occurrence order — symbols from a
        // previous script's interner have no influence.
        let a_words = pseudo_words(0xAAAA, 1000);
        let mut a = Interner::new();
        for w in &a_words {
            a.intern(w);
        }
        assert!(a.ident_count() > 0);
        let mut b = Interner::new();
        assert_eq!(b.ident_count(), 0, "fresh interner must start empty");
        // First identifier in any fresh interner gets the first
        // identifier symbol, regardless of what other interners hold.
        let first = b.intern("zz_first_ident");
        assert_eq!(first.index() as usize, KEYWORDS.len());
        // Interleaving more interns never reuses an existing symbol for
        // a new word.
        let mut seen = std::collections::HashSet::new();
        seen.insert(first.index());
        for w in pseudo_words(0xBBBB, 1000) {
            let s = b.intern(&w);
            if !s.is_keyword() {
                seen.insert(s.index());
            }
        }
        assert_eq!(seen.len(), b.ident_count(), "identifier symbols must be dense and unique");
    }

    #[test]
    fn folded_form_is_the_fingerprint_fold() {
        let mut i = Interner::new();
        let s = i.intern("SeLeCt");
        assert_eq!(i.folded(s), "SELECT", "keywords fold upper");
        let s = i.intern("UserName");
        assert_eq!(i.folded(s), "username", "identifiers fold lower");
    }
}

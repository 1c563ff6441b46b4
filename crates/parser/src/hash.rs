//! Statement hashes: the two keys the context's unique-text table groups
//! statements by.
//!
//! * [`content_hash_bytes`] hashes a statement's source bytes. Equal
//!   texts — and only those, up to 128-bit collisions — share a content
//!   hash, so it dedups the statements of a script: every occurrence of
//!   one text is analysed once. The splitter computes it for each unique
//!   text from the span's bytes, with no lex.
//! * [`ShapeHasher`] hashes a statement's token stream with number
//!   literals reduced to their kind and length. Texts that differ only
//!   in the digits of equally long number literals share a shape, and
//!   the unique-text table lets DML texts of one shape share one parse
//!   tree. The one lex of a new unique text feeds it.
//!
//! Both are Murmur3-x64-128-style hashes over the same two 64-bit lanes,
//! deterministic across processes and platforms.

use crate::ast::ParsedStatement;
use crate::token::TokenKind;

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

/// The two 64-bit lanes of the Murmur3-x64-128-style hashes below: 16
/// input bytes per mixing step, a tail of at most two words, and a
/// length-salted finaliser.
#[derive(Clone, Copy, Default)]
struct Lanes {
    h1: u64,
    h2: u64,
}

impl Lanes {
    /// Mix one 16-byte block (two little-endian words).
    #[inline]
    fn block(&mut self, k1: u64, k2: u64) {
        self.h1 ^= k1.wrapping_mul(MM_C1).rotate_left(31).wrapping_mul(MM_C2);
        self.h1 =
            self.h1.rotate_left(27).wrapping_add(self.h2).wrapping_mul(5).wrapping_add(0x52dc_e729);
        self.h2 ^= k2.wrapping_mul(MM_C2).rotate_left(33).wrapping_mul(MM_C1);
        self.h2 =
            self.h2.rotate_left(31).wrapping_add(self.h1).wrapping_mul(5).wrapping_add(0x3849_5ab5);
    }

    /// Mix the first word of a tail shorter than one block.
    #[inline]
    fn tail1(&mut self, k1: u64) {
        self.h1 ^= k1.wrapping_mul(MM_C1).rotate_left(31).wrapping_mul(MM_C2);
    }

    /// Mix the second word of a tail longer than one word.
    #[inline]
    fn tail2(&mut self, k2: u64) {
        self.h2 ^= k2.wrapping_mul(MM_C2).rotate_left(33).wrapping_mul(MM_C1);
    }

    /// The 128-bit hash of `total` input bytes.
    fn finish(self, total: u64) -> u128 {
        let (mut h1, mut h2) = (self.h1 ^ total, self.h2 ^ total);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = fmix64(h1);
        h2 = fmix64(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        (h1 as u128) | ((h2 as u128) << 64)
    }
}

/// The content hash: a Murmur3-x64-128-style hash over a statement's
/// source bytes, two 64-bit lanes and 16 input bytes per mixing step.
///
/// It is defined over the **source bytes**, not the token structure: the
/// lexer is deterministic, so equal bytes lex to equal tokens, and token
/// kinds add no discriminating power. Spans are excluded, so duplicate
/// statements at different script offsets collide — by design. It is
/// **literal-sensitive**: it identifies statements whose analysis
/// results are interchangeable, and 128 bits make accidental collisions
/// negligible, which lets the unique-text table key each text by the
/// hash alone.
pub fn content_hash_bytes(bytes: &[u8]) -> u128 {
    let mut lanes = Lanes::default();
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let k1 = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let k2 = u64::from_le_bytes(b[8..].try_into().expect("8 bytes"));
        lanes.block(k1, k2);
    }
    let tail = blocks.remainder();
    if tail.len() > 8 {
        lanes.tail2(le_word(&tail[8..]));
    }
    if !tail.is_empty() {
        lanes.tail1(le_word(&tail[..tail.len().min(8)]));
    }
    lanes.finish(bytes.len() as u64)
}

/// The shape hash of a statement: a 128-bit hash of its token stream in
/// which every number literal counts only by its kind and byte length,
/// and every other token — keywords, identifiers, string literals,
/// parameters, trivia — by its kind, length and exact bytes.
///
/// Statements that differ only in the digits of equally long number
/// literals share a shape; no rule, annotation or profile fold reads a
/// number literal's value, so for DML such texts parse to
/// interchangeable trees (only rendering, `ToSql`, prints the digits).
/// Feed it tokens in source order ([`ShapeHasher::token`]); like the
/// content hash, 128 bits are treated as collision-free.
#[derive(Default)]
pub struct ShapeHasher {
    lanes: Lanes,
    /// The first word of a block whose second has not arrived yet.
    pending: Option<u64>,
    words: u64,
}

impl ShapeHasher {
    /// A fresh hasher (the empty stream).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.words += 1;
        match self.pending.take() {
            Some(k1) => self.lanes.block(k1, w),
            None => self.pending = Some(w),
        }
    }

    /// Feed one token: its kind and length, then — except for a number
    /// literal — its bytes.
    #[inline]
    pub fn token(&mut self, kind: TokenKind, bytes: &[u8]) {
        self.word(kind as u64 | (bytes.len() as u64) << 8);
        if kind == TokenKind::NumberLit {
            return;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        if !words.remainder().is_empty() {
            self.word(le_word(words.remainder()));
        }
    }

    /// The shape of everything fed.
    pub fn finish(mut self) -> u128 {
        if let Some(k1) = self.pending.take() {
            self.lanes.tail1(k1);
        }
        self.lanes.finish(self.words * 8)
    }
}

impl ParsedStatement {
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
    use crate::dialect::Dialect;

    #[test]
    fn spanned_hashes_equal_materialized_hashes() {
        let sql = "SELECT a, \"B\" FROM t WHERE x = 'v' AND y IN (1,2); DELETE FROM t;";
        let owned = crate::lexer::tokenize(sql, Dialect::Generic);
        let concat: String = owned.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(content_hash_bytes(concat.as_bytes()), content_hash_bytes(sql.as_bytes()));
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
}

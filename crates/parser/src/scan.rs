//! Byte-scanning primitives for the lexer's hot loops.
//!
//! Three ingredients make the front door fast at the byte level:
//!
//! 1. a **byte-class table** ([`CLASS`]) so the lexer's main loop
//!    dispatches on one table load instead of a cascade of range
//!    comparisons, and a **flags table** ([`FLAGS`]) so run-skipping
//!    loops (whitespace, words, digit runs) test one bit per byte;
//! 2. **SIMD classify-and-skip** on x86_64: SSE2 (a compile-time
//!    baseline of the architecture) classifies 16 bytes per step for
//!    whitespace/word/digit runs and needle searches, and AVX2 —
//!    runtime-detected, used for the long-run needle scans where the
//!    detection check amortises — crosses 32 bytes per step;
//! 3. **widened SWAR fallbacks** ([`memchr`], [`memchr2`], whitespace
//!    runs) that cross uninteresting regions two machine words (16
//!    bytes) at a time on targets without the SIMD path — no external
//!    crates, portable to any `usize` width.
//!
//! The `force-scalar` cargo feature routes every entry point to the
//! obviously-correct byte-at-a-time reference loops ([`scalar`]); CI
//! runs the suite both ways and the in-module equivalence tests compare
//! the dispatched implementations against the reference on adversarial
//! inputs, so the SIMD paths can never silently diverge.

/// Lexical dispatch class of a byte — what the lexer's main loop does
/// when a token starts with it. One entry per byte in [`CLASS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Space, tab, CR, LF.
    Ws,
    /// Word start: ASCII letter, `_`, or any byte ≥ 0x80.
    Word,
    /// ASCII digit.
    Digit,
    /// `'` — single-quoted string.
    SQuote,
    /// `"` — quoted identifier.
    DQuote,
    /// `` ` `` — quoted identifier.
    Backtick,
    /// `[` — T-SQL bracket identifier (or unknown).
    Bracket,
    /// `$` — positional parameter or dollar-quoted string.
    Dollar,
    /// `?` — positional parameter.
    Question,
    /// `%` — DB-API parameter or operator.
    Percent,
    /// `:` — named parameter or operator.
    Colon,
    /// `.` — number start or punctuation.
    Dot,
    /// `-` — line comment or operator.
    Minus,
    /// `/` — block comment or operator.
    Slash,
    /// `(`, `)`, `,`, `;`.
    Punct,
    /// Everything else: operator characters and unclassifiable bytes.
    Op,
}

const fn classify(b: u8) -> Class {
    match b {
        b' ' | b'\t' | b'\r' | b'\n' => Class::Ws,
        b'\'' => Class::SQuote,
        b'"' => Class::DQuote,
        b'`' => Class::Backtick,
        b'[' => Class::Bracket,
        b'$' => Class::Dollar,
        b'?' => Class::Question,
        b'%' => Class::Percent,
        b':' => Class::Colon,
        b'.' => Class::Dot,
        b'-' => Class::Minus,
        b'/' => Class::Slash,
        b'0'..=b'9' => Class::Digit,
        b'(' | b')' | b',' | b';' => Class::Punct,
        b'_' => Class::Word,
        _ => {
            if b.is_ascii_alphabetic() || b >= 0x80 {
                Class::Word
            } else {
                Class::Op
            }
        }
    }
}

/// Byte → dispatch class, for the lexer's main loop.
pub(crate) static CLASS: [Class; 256] = {
    let mut t = [Class::Op; 256];
    let mut i = 0usize;
    while i < 256 {
        t[i] = classify(i as u8);
        i += 1;
    }
    t
};

/// Flag: byte is whitespace.
pub(crate) const F_WS: u8 = 1 << 0;
/// Flag: byte continues a word token (alphanumeric, `_`, `$`, ≥ 0x80).
pub(crate) const F_WORD: u8 = 1 << 1;
/// Flag: byte is an ASCII digit.
pub(crate) const F_DIGIT: u8 = 1 << 2;

/// Byte → run flags, for [`skip_while`] loops.
pub(crate) static FLAGS: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let b = i as u8;
        let mut f = 0u8;
        if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
            f |= F_WS;
        }
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'$' || b >= 0x80 {
            f |= F_WORD;
        }
        if b.is_ascii_digit() {
            f |= F_DIGIT;
        }
        t[i] = f;
        i += 1;
    }
    t
};

/// Byte-at-a-time reference implementations. These are the semantic
/// definition of every scan primitive: the SIMD/SWAR paths are pinned to
/// them by the equivalence tests below, and the `force-scalar` feature
/// makes them the production path (CI's scalar leg of the equivalence
/// gate).
#[cfg_attr(not(any(test, feature = "force-scalar")), allow(dead_code))]
pub(crate) mod scalar {
    use super::FLAGS;

    #[inline]
    pub(crate) fn skip_while(bytes: &[u8], mut pos: usize, mask: u8) -> usize {
        while pos < bytes.len() && FLAGS[bytes[pos] as usize] & mask != 0 {
            pos += 1;
        }
        pos
    }

    #[inline]
    pub(crate) fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
        hay.iter().position(|&b| b == needle)
    }

    #[inline]
    pub(crate) fn memchr2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
        hay.iter().position(|&x| x == a || x == b)
    }
}

/// Widened SWAR fallbacks: two `usize` lanes (16 bytes on 64-bit) per
/// iteration, used on targets without the x86_64 SIMD path.
#[cfg(not(any(target_arch = "x86_64", feature = "force-scalar")))]
mod swar {
    use super::{scalar, F_WS, FLAGS};

    const WORD: usize = std::mem::size_of::<usize>();
    const LO: usize = usize::from_ne_bytes([0x01; WORD]);
    const HI: usize = usize::from_ne_bytes([0x80; WORD]);

    #[inline]
    fn splat(b: u8) -> usize {
        usize::from_ne_bytes([b; WORD])
    }

    /// True when any byte of `w` is zero (classic SWAR zero-byte test).
    #[inline]
    fn has_zero_byte(w: usize) -> bool {
        w.wrapping_sub(LO) & !w & HI != 0
    }

    #[inline]
    fn load_word(bytes: &[u8], at: usize) -> usize {
        let mut buf = [0u8; WORD];
        buf.copy_from_slice(&bytes[at..at + WORD]);
        usize::from_ne_bytes(buf)
    }

    #[inline]
    pub(crate) fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
        let sp = splat(needle);
        let mut i = 0usize;
        // Two-word (128-bit on 64-bit targets) stride.
        while i + 2 * WORD <= hay.len() {
            let hit_lo = has_zero_byte(load_word(hay, i) ^ sp);
            let hit_hi = has_zero_byte(load_word(hay, i + WORD) ^ sp);
            if hit_lo || hit_hi {
                break;
            }
            i += 2 * WORD;
        }
        hay[i..].iter().position(|&b| b == needle).map(|p| i + p)
    }

    #[inline]
    pub(crate) fn memchr2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
        let (sa, sb) = (splat(a), splat(b));
        let mut i = 0usize;
        while i + 2 * WORD <= hay.len() {
            let w0 = load_word(hay, i);
            let w1 = load_word(hay, i + WORD);
            if has_zero_byte(w0 ^ sa)
                || has_zero_byte(w0 ^ sb)
                || has_zero_byte(w1 ^ sa)
                || has_zero_byte(w1 ^ sb)
            {
                break;
            }
            i += 2 * WORD;
        }
        hay[i..].iter().position(|&x| x == a || x == b).map(|p| i + p)
    }

    /// Per-byte mask (0x80 in matching lanes) of bytes equal to `n`.
    #[inline]
    fn eq_mask(w: usize, n: usize) -> usize {
        let x = w ^ n;
        x.wrapping_sub(LO) & !x & HI
    }

    #[inline]
    pub(crate) fn skip_while(bytes: &[u8], mut pos: usize, mask: u8) -> usize {
        // Whitespace runs get the SWAR treatment (the only run kind long
        // enough to amortise on non-x86 targets: formatted scripts indent
        // heavily); word/digit runs stay on the table loop.
        if mask == F_WS {
            let (sp, tb, cr, lf) =
                (splat(b' '), splat(b'\t'), splat(b'\r'), splat(b'\n'));
            while pos + WORD <= bytes.len() {
                let w = load_word(bytes, pos);
                let ws =
                    eq_mask(w, sp) | eq_mask(w, tb) | eq_mask(w, cr) | eq_mask(w, lf);
                if ws != HI {
                    break; // first non-whitespace lane found by the tail loop
                }
                pos += WORD;
            }
            while pos < bytes.len() && FLAGS[bytes[pos] as usize] & mask != 0 {
                pos += 1;
            }
            return pos;
        }
        scalar::skip_while(bytes, pos, mask)
    }
}

/// SSE2/AVX2 classify-and-skip. SSE2 is part of the x86_64 baseline, so
/// the 16-byte paths need no runtime detection; the 32-byte AVX2 needle
/// scans check [`std::arch::is_x86_feature_detected`] (one cached atomic
/// load) and are only used for the region-crossing searches — line
/// comments, string bodies — where runs are long enough to amortise it.
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
mod simd {
    use super::{scalar, F_DIGIT, F_WORD, F_WS};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// 16-bit mask of lanes holding whitespace (space, tab, CR, LF).
    #[inline]
    unsafe fn ws_mask16(v: __m128i) -> u32 {
        let sp = _mm_cmpeq_epi8(v, _mm_set1_epi8(b' ' as i8));
        let tb = _mm_cmpeq_epi8(v, _mm_set1_epi8(b'\t' as i8));
        let cr = _mm_cmpeq_epi8(v, _mm_set1_epi8(b'\r' as i8));
        let lf = _mm_cmpeq_epi8(v, _mm_set1_epi8(b'\n' as i8));
        _mm_movemask_epi8(_mm_or_si128(_mm_or_si128(sp, tb), _mm_or_si128(cr, lf))) as u32
    }

    /// 16-bit mask of lanes in `[lo, hi]` (unsigned).
    #[inline]
    unsafe fn range_mask16(v: __m128i, lo: u8, hi: u8) -> __m128i {
        let ge = _mm_cmpeq_epi8(_mm_max_epu8(v, _mm_set1_epi8(lo as i8)), v);
        let le = _mm_cmpeq_epi8(_mm_min_epu8(v, _mm_set1_epi8(hi as i8)), v);
        _mm_and_si128(ge, le)
    }

    /// 16-bit mask of lanes continuing a word token: ASCII alphanumeric,
    /// `_`, `$`, or any byte ≥ 0x80 (must agree with `FLAGS & F_WORD`).
    #[inline]
    unsafe fn word_mask16(v: __m128i) -> u32 {
        // Bytes ≥ 0x80 are exactly the ones negative as signed i8.
        let high = _mm_cmpgt_epi8(_mm_setzero_si128(), v);
        // Case-fold with `| 0x20`: folds A–Z onto a–z and cannot pull
        // any non-letter into the a–z range ('@'→'`', high bytes stay
        // above 0x7A unsigned and are caught by `high` regardless).
        let folded = _mm_or_si128(v, _mm_set1_epi8(0x20));
        let alpha = range_mask16(folded, b'a', b'z');
        let digit = range_mask16(v, b'0', b'9');
        let us = _mm_cmpeq_epi8(v, _mm_set1_epi8(b'_' as i8));
        let dl = _mm_cmpeq_epi8(v, _mm_set1_epi8(b'$' as i8));
        let m = _mm_or_si128(
            _mm_or_si128(high, alpha),
            _mm_or_si128(digit, _mm_or_si128(us, dl)),
        );
        _mm_movemask_epi8(m) as u32
    }

    #[inline]
    unsafe fn digit_mask16(v: __m128i) -> u32 {
        _mm_movemask_epi8(range_mask16(v, b'0', b'9')) as u32
    }

    #[inline]
    pub(crate) fn skip_while(bytes: &[u8], mut pos: usize, mask: u8) -> usize {
        let len = bytes.len();
        unsafe {
            while pos + 16 <= len {
                let v = _mm_loadu_si128(bytes.as_ptr().add(pos) as *const __m128i);
                let in_class = match mask {
                    F_WS => ws_mask16(v),
                    F_WORD => word_mask16(v),
                    F_DIGIT => digit_mask16(v),
                    // Combined masks never occur on the hot path.
                    _ => return scalar::skip_while(bytes, pos, mask),
                };
                let miss = !in_class & 0xFFFF;
                if miss != 0 {
                    return pos + miss.trailing_zeros() as usize;
                }
                pos += 16;
            }
        }
        scalar::skip_while(bytes, pos, mask)
    }

    #[inline]
    pub(crate) fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
        if hay.len() >= 32 && is_x86_feature_detected!("avx2") {
            return unsafe { memchr_avx2(needle, hay) };
        }
        unsafe { memchr_sse2(needle, hay) }
    }

    #[inline]
    pub(crate) fn memchr2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
        if hay.len() >= 32 && is_x86_feature_detected!("avx2") {
            return unsafe { memchr2_avx2(a, b, hay) };
        }
        unsafe { memchr2_sse2(a, b, hay) }
    }

    #[inline]
    unsafe fn memchr_sse2(needle: u8, hay: &[u8]) -> Option<usize> {
        let sp = _mm_set1_epi8(needle as i8);
        let mut i = 0usize;
        while i + 16 <= hay.len() {
            let v = _mm_loadu_si128(hay.as_ptr().add(i) as *const __m128i);
            let m = _mm_movemask_epi8(_mm_cmpeq_epi8(v, sp)) as u32;
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 16;
        }
        hay[i..].iter().position(|&b| b == needle).map(|p| i + p)
    }

    #[inline]
    unsafe fn memchr2_sse2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
        let (sa, sb) = (_mm_set1_epi8(a as i8), _mm_set1_epi8(b as i8));
        let mut i = 0usize;
        while i + 16 <= hay.len() {
            let v = _mm_loadu_si128(hay.as_ptr().add(i) as *const __m128i);
            let hit = _mm_or_si128(_mm_cmpeq_epi8(v, sa), _mm_cmpeq_epi8(v, sb));
            let m = _mm_movemask_epi8(hit) as u32;
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 16;
        }
        hay[i..].iter().position(|&x| x == a || x == b).map(|p| i + p)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn memchr_avx2(needle: u8, hay: &[u8]) -> Option<usize> {
        let sp = _mm256_set1_epi8(needle as i8);
        let mut i = 0usize;
        while i + 32 <= hay.len() {
            let v = _mm256_loadu_si256(hay.as_ptr().add(i) as *const __m256i);
            let m = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, sp)) as u32;
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 32;
        }
        memchr_sse2(needle, &hay[i..]).map(|p| i + p)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn memchr2_avx2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
        let (sa, sb) = (_mm256_set1_epi8(a as i8), _mm256_set1_epi8(b as i8));
        let mut i = 0usize;
        while i + 32 <= hay.len() {
            let v = _mm256_loadu_si256(hay.as_ptr().add(i) as *const __m256i);
            let hit = _mm256_or_si256(_mm256_cmpeq_epi8(v, sa), _mm256_cmpeq_epi8(v, sb));
            let m = _mm256_movemask_epi8(hit) as u32;
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 32;
        }
        memchr2_sse2(a, b, &hay[i..]).map(|p| i + p)
    }
}

/// Advance `pos` past every byte whose [`FLAGS`] entry intersects `mask`.
///
/// Runs on real SQL are usually *short* — one space, a 3–10 byte
/// identifier — so a scalar probe handles the first few bytes and the
/// wide loop only engages once a run has proven long enough to amortise
/// the vector setup.
#[inline]
pub(crate) fn skip_while(bytes: &[u8], pos: usize, mask: u8) -> usize {
    #[cfg(feature = "force-scalar")]
    return scalar::skip_while(bytes, pos, mask);
    #[cfg(not(feature = "force-scalar"))]
    {
        let n = bytes.len();
        let probe_end = n.min(pos + 4);
        let mut p = pos;
        while p < probe_end {
            if FLAGS[bytes[p] as usize] & mask == 0 {
                return p;
            }
            p += 1;
        }
        if p >= n {
            return p;
        }
        #[cfg(target_arch = "x86_64")]
        return simd::skip_while(bytes, p, mask);
        #[cfg(not(target_arch = "x86_64"))]
        return swar::skip_while(bytes, p, mask);
    }
}

/// Index of the first occurrence of `needle` in `hay`.
#[inline]
pub(crate) fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    #[cfg(feature = "force-scalar")]
    return scalar::memchr(needle, hay);
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    return simd::memchr(needle, hay);
    #[cfg(not(any(target_arch = "x86_64", feature = "force-scalar")))]
    return swar::memchr(needle, hay);
}

/// Index of the first occurrence of `a` or `b` in `hay`.
#[inline]
pub(crate) fn memchr2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
    #[cfg(feature = "force-scalar")]
    return scalar::memchr2(a, b, hay);
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    return simd::memchr2(a, b, hay);
    #[cfg(not(any(target_arch = "x86_64", feature = "force-scalar")))]
    return swar::memchr2(a, b, hay);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memchr_agrees_with_position() {
        let hay = b"SELECT * FROM t -- a much longer comment body without the byte\nrest";
        for needle in [b'\n', b'S', b't', b'z', b'\0'] {
            assert_eq!(
                memchr(needle, hay),
                hay.iter().position(|&b| b == needle),
                "needle {needle:#x}"
            );
        }
        assert_eq!(memchr(b'x', b""), None);
        // Hits in the unaligned tail after word-sized strides.
        let tail = b"aaaaaaaaab";
        assert_eq!(memchr(b'b', tail), Some(9));
    }

    #[test]
    fn memchr2_agrees_with_position() {
        let hay = b"it''s a \\'string\\' body; with ; semicolons and quotes '";
        for (a, b) in [(b'\'', b'\\'), (b';', b'\n'), (b'z', b'q'), (b'*', b'/')] {
            assert_eq!(
                memchr2(a, b, hay),
                hay.iter().position(|&x| x == a || x == b),
                "needles {a:#x} {b:#x}"
            );
        }
        assert_eq!(memchr2(b'x', b'y', b"no hits here at all......."), None);
    }

    #[test]
    fn class_table_matches_spot_checks() {
        assert_eq!(CLASS[b' ' as usize], Class::Ws);
        assert_eq!(CLASS[b'a' as usize], Class::Word);
        assert_eq!(CLASS[b'_' as usize], Class::Word);
        assert_eq!(CLASS[0xC3], Class::Word);
        assert_eq!(CLASS[b'7' as usize], Class::Digit);
        assert_eq!(CLASS[b';' as usize], Class::Punct);
        assert_eq!(CLASS[b'=' as usize], Class::Op);
        assert_eq!(CLASS[0x01], Class::Op);
    }

    #[test]
    fn flags_cover_word_runs() {
        assert_ne!(FLAGS[b'$' as usize] & F_WORD, 0, "lex_word consumes $");
        assert_eq!(FLAGS[b'$' as usize] & F_WS, 0);
        assert_eq!(skip_while(b"abc_9$ rest", 0, F_WORD), 6);
        assert_eq!(skip_while(b"   \t\nx", 0, F_WS), 5);
        assert_eq!(skip_while(b"123a", 0, F_DIGIT), 3);
    }

    /// Deterministic xorshift byte stream for the equivalence corpus.
    fn pseudo_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    /// The dispatched implementations (SIMD on x86_64, widened SWAR
    /// elsewhere, reference loops under `force-scalar`) must agree with
    /// the scalar reference on every byte value, every alignment, and
    /// inputs straddling the 16/32-byte stride boundaries.
    #[test]
    fn dispatched_scans_match_scalar_reference() {
        let mut corpus: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"   \t\r\n   word_99$ rest".to_vec(),
            vec![b' '; 127],
            vec![b'x'; 129],
            (0u8..=255).collect(),
        ];
        for seed in [1u64, 0xBEEF, 0x5EED] {
            for len in [15, 16, 17, 31, 32, 33, 63, 64, 65, 1000] {
                corpus.push(pseudo_bytes(seed, len));
            }
        }
        // Long homogeneous runs with a class break at every offset near
        // the stride boundaries.
        for brk in 0..40usize {
            let mut ws = vec![b' '; 48];
            ws[brk] = b'x';
            corpus.push(ws);
            let mut word = vec![b'w'; 48];
            word[brk] = b' ';
            corpus.push(word);
        }
        for bytes in &corpus {
            for mask in [F_WS, F_WORD, F_DIGIT] {
                for start in 0..bytes.len().min(20) {
                    assert_eq!(
                        skip_while(bytes, start, mask),
                        scalar::skip_while(bytes, start, mask),
                        "skip_while mask={mask} start={start} on {bytes:?}"
                    );
                }
            }
            for needle in [b' ', b'\n', b'\'', b'x', 0u8, 0xFF] {
                assert_eq!(
                    memchr(needle, bytes),
                    scalar::memchr(needle, bytes),
                    "memchr {needle:#x} on {bytes:?}"
                );
                assert_eq!(
                    memchr2(needle, b'*', bytes),
                    scalar::memchr2(needle, b'*', bytes),
                    "memchr2 {needle:#x} on {bytes:?}"
                );
            }
        }
    }
}

//! The ranked listing: what `sqlcheck FILE` prints and
//! [`CheckOutcome::summary`] returns.
//!
//! Every detection of a kind has the kind's score, so a ranked list is a
//! few runs of equal (score, kind). The `[score] Kind (Category) @ `
//! head is formatted once per run; each line then splices in its own
//! rank, locus and byte span as digits and copies its message, rewrite
//! or advice as bytes. One buffer holds the lines until it fills, so a
//! listing allocates a fixed handful of times however long it is.

use crate::fix::Fix;
use crate::report::{Locus, Span};
use crate::CheckOutcome;
use std::io::{self, Write};

/// Buffered bytes at which the listing is handed to the writer.
const CHUNK: usize = 64 * 1024;

/// Decimal digits of the largest `usize`.
const DIGITS: usize = usize::MAX.ilog10() as usize + 1;

impl CheckOutcome {
    /// Write the ranked listing to `out`, highest impact first; with
    /// `fixes`, each detection is followed by its fix lines. An outcome
    /// without detections writes nothing.
    ///
    /// ```text
    ///   1. [0.350] Column Wildcard (Query) @ statement #3 [bytes 120..152]
    ///      <message>
    ///      fix: <rewritten statement>          (Fix::Rewrite)
    ///      fix: <DDL statement>                (Fix::SchemaChange, one per statement,
    ///      impacted #<index>: <rewritten SQL>   then one per impacted query)
    ///      advice: <text>                      (Fix::Textual)
    /// ```
    ///
    /// The rank is right-aligned to three columns, and the byte span is
    /// printed only for a detection that has one.
    pub fn write_listing(&self, out: &mut impl Write, fixes: bool) -> io::Result<()> {
        let ranked = self.ranked();
        let fixes = fixes.then(|| self.fixes());
        let mut buf = Vec::with_capacity(CHUNK);
        let mut head = Vec::new();
        let mut head_of = None;
        for (i, r) in ranked.iter().enumerate() {
            let d = &r.detection;
            if head_of != Some((r.score.to_bits(), d.kind)) {
                head.clear();
                write!(head, "[{:.3}] {} ({}) @ ", r.score, d.kind, d.kind.category())?;
                head_of = Some((r.score.to_bits(), d.kind));
            }
            let rank = i + 1;
            buf.extend_from_slice(match rank {
                0..=9 => b"  ",
                10..=99 => b" ",
                _ => b"",
            });
            push_number(&mut buf, rank);
            buf.extend_from_slice(b". ");
            buf.extend_from_slice(&head);
            push_locus(&mut buf, &d.locus);
            // Each occurrence's own bytes: duplicate statement texts
            // point at their own spans, not the first occurrence's.
            if let Some(Span { start, end }) = d.span {
                buf.extend_from_slice(b" [bytes ");
                push_number(&mut buf, start);
                buf.extend_from_slice(b"..");
                push_number(&mut buf, end);
                buf.push(b']');
            }
            buf.push(b'\n');
            push_line(&mut buf, "     ", &d.message);
            if let Some(fixes) = fixes {
                push_fix(&mut buf, &fixes[i].fix);
            }
            if buf.len() >= CHUNK {
                out.write_all(&buf)?;
                buf.clear();
            }
        }
        out.write_all(&buf)
    }
}

/// Append `n` in decimal.
fn push_number(buf: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; DIGITS];
    let mut at = DIGITS;
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Append the locus as its `Display` writes it.
fn push_locus(buf: &mut Vec<u8>, locus: &Locus) {
    match locus {
        Locus::Statement { index } => {
            buf.extend_from_slice(b"statement #");
            push_number(buf, *index);
        }
        Locus::Table { table } => {
            buf.extend_from_slice(b"table ");
            buf.extend_from_slice(table.as_bytes());
        }
        Locus::Column { table, column } => {
            buf.extend_from_slice(b"column ");
            buf.extend_from_slice(table.as_bytes());
            buf.push(b'.');
            buf.extend_from_slice(column.as_bytes());
        }
        Locus::Index { index } => {
            buf.extend_from_slice(b"index ");
            buf.extend_from_slice(index.as_bytes());
        }
        Locus::Application => buf.extend_from_slice(b"application"),
    }
}

/// Append the line `prefix` + `text`.
fn push_line(buf: &mut Vec<u8>, prefix: &str, text: &str) {
    buf.extend_from_slice(prefix.as_bytes());
    buf.extend_from_slice(text.as_bytes());
    buf.push(b'\n');
}

/// Append the fix's lines.
fn push_fix(buf: &mut Vec<u8>, fix: &Fix) {
    match fix {
        Fix::Rewrite { fixed, .. } => push_line(buf, "     fix: ", fixed),
        Fix::SchemaChange { statements, impacted_queries } => {
            for s in statements {
                push_line(buf, "     fix: ", s);
            }
            for (index, q) in impacted_queries {
                buf.extend_from_slice(b"     impacted #");
                push_number(buf, *index);
                push_line(buf, ": ", q);
            }
        }
        Fix::Textual { advice } => {
            let (before, site, after) = advice.parts();
            buf.extend_from_slice(b"     advice: ");
            buf.extend_from_slice(before.as_bytes());
            if let Some(index) = site {
                buf.extend_from_slice(b"statement #");
                push_number(buf, index);
            }
            buf.extend_from_slice(after.as_bytes());
            buf.push(b'\n');
        }
    }
}

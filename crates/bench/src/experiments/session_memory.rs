//! **Session memory gate** — a [`CheckSession`] re-checked by a long run
//! of edit batches must keep memory for the live script, not for every
//! text it has seen.
//!
//! The batch mix is the write-path mix: even batches replace 1% of the
//! statements of the plain shape with texts no earlier batch used, and
//! every tenth batch also turns one statement into an `ALTER TABLE … ADD
//! COLUMN`; odd batches put the replaced texts back. Every batch reads
//! the ranking and the fixes. The script is stationary, so a session
//! whose memory tracks the live script reaches its peak early, while one
//! that retains every retired text grows with the batch count. The gate
//! compares the process's peak resident set (`VmHWM`, Linux only) after
//! [`EARLY`] batches with the one after [`BATCHES`].

use super::e2e::edit_set;
use super::throughput::script_for_shape;
use sqlcheck::{vm_hwm_kb, CheckSession, Edit, FrontendOptions, SqlCheck};
use std::hint::black_box;

/// Batches per run.
pub const BATCHES: usize = 1_000;
/// Batch after which the early peak is read.
pub const EARLY: usize = 100;
/// Ceiling on `VmHWM(BATCHES) / VmHWM(EARLY)`.
pub const CEILING: f64 = 1.25;

/// Share of statements one batch replaces, in permille.
const EDIT_PERMILLE: usize = 10;

/// One run of the batch mix.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Statements in the script.
    pub statements: usize,
    /// Peak resident set after [`EARLY`] batches, in kB.
    pub hwm_early_kb: u64,
    /// Peak resident set after [`BATCHES`] batches, in kB.
    pub hwm_end_kb: u64,
    /// Full rebuilds the session fell back to.
    pub fallbacks: u64,
    /// Whether the final warm outcome equals a cold check of its script.
    pub identical: bool,
}

impl MemoryRow {
    /// `VmHWM(BATCHES) / VmHWM(EARLY)`; the gate requires ≤ [`CEILING`].
    pub fn ratio(&self) -> f64 {
        self.hwm_end_kb as f64 / self.hwm_early_kb.max(1) as f64
    }
}

/// Batch `b` of fresh texts, plus the edits that put the originals back.
fn fresh_batch(session: &CheckSession, b: usize, seed: u64) -> (Vec<Edit>, Vec<Edit>) {
    let n = session.outcome().outcome.context.len();
    let pair = (b / 2) as u64;
    let seed = seed ^ pair.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut edits: Vec<Edit> = edit_set(n, EDIT_PERMILLE, seed)
        .into_iter()
        .map(|e| Edit::new(e.index, format!("{} AND c1 <> 'e{pair}'", e.text)))
        .collect();
    if b.is_multiple_of(10) {
        let mut j = (pair as usize * 7919) % n;
        while edits.iter().any(|e| e.index == j) {
            j = (j + 1) % n;
        }
        edits.push(Edit::new(j, format!("ALTER TABLE app_t{} ADD COLUMN c_e{pair} INT", j % 97)));
    }
    let stmts = &session.outcome().outcome.context.statements;
    let originals = edits
        .iter()
        .map(|e| Edit::new(e.index, &session.script()[stmts[e.index].span.start..stmts[e.index].span.end]))
        .collect();
    (edits, originals)
}

/// Run [`BATCHES`] batches of the mix over a plain script of
/// `statements` statements. `None` where `VmHWM` cannot be read.
pub fn run(statements: usize, seed: u64) -> Option<MemoryRow> {
    vm_hwm_kb()?;
    let opts = FrontendOptions::default();
    let script = script_for_shape("plain", statements, 100, seed);
    // The write-path benchmark's cache-to-script ratio (16k entries for
    // 100k statements): the cache fills with fresh texts within the
    // first few dozen batches, so its bounded growth ends before EARLY.
    let mut session =
        SqlCheck::new().with_cache(statements.div_ceil(6)).into_session(script, opts.clone());
    let mut revert: Option<Vec<Edit>> = None;
    let mut hwm_early_kb = 0;
    for b in 0..BATCHES {
        let batch = revert.take().unwrap_or_else(|| {
            let (edits, originals) = fresh_batch(&session, b, seed);
            revert = Some(originals);
            edits
        });
        let o = &session.recheck(&batch).outcome;
        black_box((o.ranked().len(), o.fixes().len()));
        if b + 1 == EARLY {
            hwm_early_kb = vm_hwm_kb()?;
        }
    }
    let hwm_end_kb = vm_hwm_kb()?;
    let cold = SqlCheck::new().check_workload(session.script(), &opts);
    Some(MemoryRow {
        statements,
        hwm_early_kb,
        hwm_end_kb,
        fallbacks: session.fallbacks(),
        identical: cold.outcome.report.detections == session.outcome().outcome.report.detections,
    })
}

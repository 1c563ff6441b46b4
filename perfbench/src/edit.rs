//! The `edit` workload: a retained `CheckSession` over the plain 100k
//! script, re-checked in a closed loop of edit batches.
//!
//! Even batches replace 1% of the statements with texts no earlier batch
//! used; every fifth of them (every tenth batch) also turns one statement
//! into an `ALTER TABLE … ADD COLUMN`. Odd batches put the replaced texts
//! back, so a long run stays stationary. One batch is timed from
//! `recheck` until `fixes()` returns: the report the user waits for.

use crate::oracle::Score;
use crate::trace::{median, quantile, Samples, Trace};
use crate::{cli, sys, timed_setup, Budget, EndToEnd, Traced, STATEMENTS, TEMPLATES};
use sqlcheck::{
    AntiPatternKind, BatchOptions, CheckOutcome, CheckSession, Dialect, Edit, IncrementalCache,
    SqlCheck,
};
use sqlcheck_bench::experiments::e2e::edit_set;
use sqlcheck_bench::experiments::throughput::script_for_shape;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Timed batches per untraced run, at least. Peak RSS is read after this
/// many: the session keeps every text it has seen, so its memory grows
/// with each batch of fresh texts, and a fixed count keeps runs comparable.
const MIN_BATCHES: usize = 100;
/// Traced batches per traced run, at least.
const MIN_TRACED: usize = 20;
/// Share of statements one batch replaces, in permille.
const EDIT_PERMILLE: usize = 10;
/// Unique texts the incremental cache holds.
const CACHE_CAPACITY: usize = 1 << 14;
/// Warm output is compared with a cold check after the first batch, every
/// `CHECK_EVERY`-th, and the last.
const CHECK_EVERY: usize = 25;

/// Generate the plain script and check it into a session with a cache.
fn build(seed: u64) -> CheckSession {
    let script = script_for_shape("plain", STATEMENTS, TEMPLATES, seed);
    SqlCheck::new()
        .with_cache(CACHE_CAPACITY)
        .into_session(script, BatchOptions::default())
}

struct Editor {
    session: CheckSession,
    seed: u64,
    batches: usize,
    /// The texts the last batch replaced, to put back next.
    revert: Option<Vec<Edit>>,
}

impl Editor {
    fn new(session: CheckSession, seed: u64) -> Editor {
        Editor {
            session,
            seed,
            batches: 0,
            revert: None,
        }
    }

    fn next_batch(&mut self) -> Vec<Edit> {
        let b = self.batches;
        self.batches += 1;
        if let Some(revert) = self.revert.take() {
            return revert;
        }
        let n = self.session.outcome().outcome.context.len();
        let pair = (b / 2) as u64;
        let seed = self.seed ^ pair.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut edits: Vec<Edit> = edit_set(n, EDIT_PERMILLE, seed)
            .into_iter()
            .map(|e| Edit::new(e.index, format!("{} AND c1 <> 'e{pair}'", e.text)))
            .collect();
        if b.is_multiple_of(10) {
            let mut j = (pair as usize * 7919) % n;
            while edits.iter().any(|e| e.index == j) {
                j = (j + 1) % n;
            }
            edits.push(Edit::new(
                j,
                format!("ALTER TABLE app_t{} ADD COLUMN c_e{pair} INT", j % 97),
            ));
        }
        let ctx = &self.session.outcome().outcome.context;
        let script = self.session.script();
        let originals = edits.iter().map(|e| {
            let span = ctx.statements[e.index].span;
            Edit::new(e.index, &script[span.start..span.end])
        });
        self.revert = Some(originals.collect());
        edits
    }

    /// Apply the next batch and read the ranking and fixes; returns the
    /// seconds this took, net of steal time.
    fn step(&mut self) -> f64 {
        let batch = self.next_batch();
        let watch = sys::Stopwatch::start();
        let o = &self.session.recheck(&batch).outcome;
        black_box((o.ranked().len(), o.fixes().len()));
        watch.net_s()
    }
}

/// A warm outcome to compare with a cold check of the same script later.
struct Checkpoint {
    batch: usize,
    script: PathBuf,
    digest: u64,
    counts: BTreeMap<AntiPatternKind, usize>,
}

impl Checkpoint {
    fn take(session: &CheckSession, batch: usize, dir: &Path) -> Checkpoint {
        let script = dir.join(format!("edit-checkpoint-{batch}.sql"));
        std::fs::write(&script, session.script()).expect("write the checkpoint script");
        let o = &session.outcome().outcome;
        Checkpoint {
            batch,
            script,
            digest: digest(o),
            counts: kind_counts(o),
        }
    }

    /// Check the warm outcome against a cold check of its script.
    fn verify(&self) -> (Score, bool) {
        let script = std::fs::read_to_string(&self.script).expect("read the checkpoint script");
        std::fs::remove_file(&self.script).expect("remove the checkpoint script");
        let cold = SqlCheck::new()
            .check_workload(&script, &BatchOptions::default())
            .outcome;
        let score = Score::of_multisets(&self.counts, &kind_counts(&cold));
        let same = digest(&cold) == self.digest;
        if !same {
            eprintln!("perfbench: batch {} differs from a cold check", self.batch);
        }
        (score, same && score.exact())
    }
}

/// A hash of everything the user reads: detections, ranking, fixes.
fn digest(o: &CheckOutcome) -> u64 {
    struct Sink(DefaultHasher);
    impl std::fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    // Writes into the hasher cannot fail, so their results are ignored.
    let mut h = Sink(DefaultHasher::new());
    for d in &o.report.detections {
        let _ = writeln!(h, "{d:?}");
    }
    for (r, f) in o.ranked().iter().zip(o.fixes()) {
        let _ = writeln!(h, "{:.6} {:?} {:?}", r.score, r.detection, f.fix);
    }
    h.0.finish()
}

fn kind_counts(o: &CheckOutcome) -> BTreeMap<AntiPatternKind, usize> {
    o.report.by_kind().into_iter().collect()
}

/// The untraced run: at least `MIN_BATCHES` timed batches, then the cold
/// checks, which would raise peak RSS if they ran before it is read.
pub fn run(seed: u64, seconds: f64, dir: &Path) -> EndToEnd {
    let (setup_s, session) = timed_setup(SETUPS, || build(seed));
    let mut ed = Editor::new(session, seed);
    let mut lat = Vec::new();
    let mut checkpoints = Vec::new();
    let mut peak_rss_mb = 0.0;
    let budget = Budget::start(seconds);
    while budget.more(lat.len(), MIN_BATCHES) {
        lat.push(ed.step());
        if lat.len() == MIN_BATCHES {
            peak_rss_mb = sys::vm_hwm_mb();
        }
        if (lat.len() - 1) % CHECK_EVERY == 0 {
            checkpoints.push(Checkpoint::take(&ed.session, lat.len() - 1, dir));
        }
    }
    if (lat.len() - 1) % CHECK_EVERY != 0 {
        checkpoints.push(Checkpoint::take(&ed.session, lat.len() - 1, dir));
    }
    eprintln!(
        "perfbench: {} batch(es), {} fallback(s), {} cold revert(s); VmHWM {peak_rss_mb:.1} MB \
         after {MIN_BATCHES} batches, {:.1} MB at the end",
        lat.len(),
        ed.session.fallbacks(),
        ed.session.cold_reverts(),
        sys::vm_hwm_mb()
    );
    drop(ed);
    let (mut score, mut failed) = (Score::default(), 0);
    for c in &checkpoints {
        let (s, ok) = c.verify();
        score.add(s);
        failed += usize::from(!ok);
    }
    EndToEnd {
        setup_s,
        wall_s: median(&lat),
        peak_rss_mb,
        p50_ms: median(&lat) * 1e3,
        p90_ms: quantile(&lat, 0.9) * 1e3,
        score,
        attempted: lat.len(),
        failed,
        correct: failed == 0,
    }
}

/// The traced run: the cold build, then traced batch pairs (apply and
/// revert), each followed by an untraced pair for the overhead comparison.
pub fn traced(seed: u64, seconds: f64, trace_path: &Path) -> Traced {
    let mut trace = Trace::new();
    let mut s = Samples::default();
    sys::set_counting(true);

    let script = script_for_shape("plain", STATEMENTS, TEMPLATES, seed);
    cli::traced_split(&mut trace, &mut s, &script, Dialect::Generic);

    let cache = Arc::new(IncrementalCache::new(CACHE_CAPACITY));
    let tool = SqlCheck::new().with_shared_cache(cache.clone());
    let (session, p) = trace.layer("session.build", || {
        tool.into_session(script, BatchOptions::default())
    });
    s.put("session.build_ms", p.wall_ms);
    let st = &session.outcome().stats;
    trace.phases(
        p.id,
        &[
            ("session.build.split", st.split_micros),
            ("session.build.intake", st.intake_micros),
            ("session.build.materialize", st.materialize_micros),
            ("session.build.parse", st.parse_micros),
            ("session.build.annotate", st.annotate_micros),
            ("session.build.fold", st.context_micros),
            ("session.build.detect", st.total_micros),
        ],
    );

    // The cold ranking and fixes of the built session.
    let o = &session.outcome().outcome;
    let (items, p) = trace.layer("rank", || o.ranked().len());
    s.put("rank.wall_ms", p.wall_ms);
    s.put("rank.items", items as f64);
    let (fixes, p) = trace.layer("fix", || o.fixes());
    s.probe("fix", &p);
    cli::put_fix_counts(&mut s, fixes);

    let c0 = cache.counters();
    let mut ed = Editor::new(session, seed);
    let (mut traced_batches, mut untraced) = (0, Vec::new());
    let budget = Budget::start(seconds);
    while budget.more(traced_batches, MIN_TRACED) {
        for _ in 0..2 {
            traced_batch(&mut ed, &mut trace, &mut s);
            traced_batches += 1;
        }
        sys::set_counting(false);
        untraced.extend([ed.step() * 1e3, ed.step() * 1e3]);
        sys::set_counting(true);
    }
    sys::set_counting(false);
    let c1 = cache.counters();
    let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
    s.put(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    s.put("cache.evictions", (c1.evictions - c0.evictions) as f64);
    s.put("session.fallbacks", ed.session.fallbacks() as f64);
    s.put("session.cold_reverts", ed.session.cold_reverts() as f64);

    let mut metrics = s.medians();
    let total = metrics["trace.total_ms"];
    metrics.insert("trace.untraced_ms".into(), median(&untraced));
    metrics.insert("trace.overhead_ms".into(), total - median(&untraced));
    std::fs::write(trace_path, trace.to_json()).expect("write the spans");

    let dir = trace_path.parent().expect("the trace file has a directory");
    let ok = Checkpoint::take(&ed.session, ed.batches, dir).verify().1;
    Traced {
        metrics,
        attempted: traced_batches,
        failed: usize::from(!ok),
        correct: ok,
    }
}

/// One traced batch: recheck (with its warm phases), ranking, fixes.
fn traced_batch(ed: &mut Editor, trace: &mut Trace, s: &mut Samples) {
    let batch = ed.next_batch();
    let root = trace.enter("batch");
    let (_, p) = trace.layer("session.recheck", || {
        ed.session.recheck(&batch);
    });
    let st = &ed.session.outcome().stats;
    let phases = [
        ("session.edit", st.warm_edit_micros),
        ("session.profile", st.warm_profile_micros),
        ("session.patch", st.warm_patch_micros),
        ("session.finalize", st.warm_finalize_micros),
    ];
    trace.phases(p.id, &phases);
    for (name, us) in phases {
        s.put(&format!("{name}_ms"), us as f64 / 1e3);
    }
    s.put("session.recheck_ms", p.wall_ms);
    s.put("session.hwm_mb", p.hwm_mb);
    s.put("session.dirty", st.warm_dirty_statements as f64);
    let reused = st.inter_units_reused + st.data_units_reused;
    let run = reused + st.inter_units_recomputed + st.data_units_recomputed;
    s.put(
        "session.units_reused_ratio",
        reused as f64 / run.max(1) as f64,
    );

    let o = &ed.session.outcome().outcome;
    let (_, p) = trace.layer("session.rank", || o.ranked().len());
    s.put("session.rank_ms", p.wall_ms);
    let (_, p) = trace.layer("session.fix", || o.fixes().len());
    s.put("session.fix_ms", p.wall_ms);
    s.put("trace.total_ms", trace.exit(root));
}

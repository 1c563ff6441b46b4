//! End-to-end and per-layer benchmark of sqlcheck.
//!
//! ```text
//! perfbench --sqlcheck BIN --work-dir DIR --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `plain`, `skewed` and `github` run the `sqlcheck` CLI binary on a
//! generated file, one process at a time; `edit` drives a `CheckSession`
//! in a closed loop of edit batches. With `--trace 0` the last stdout line
//! carries the end-to-end metrics, measured with tracing off; with
//! `--trace 1` it carries the per-layer metrics of a separate traced run,
//! and the spans are written to `DIR/trace-W-N.json`. See `README.md`.

mod cli;
mod edit;
mod oracle;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Statements of the `plain` and `skewed` scripts (and the `edit` session).
pub const STATEMENTS: usize = 100_000;
/// Templates the plain statement pool draws from.
pub const TEMPLATES: usize = 100;

/// Every per-layer metric with its unit, in output order. The traced run
/// reports 0 for a layer its workload never calls.
const PER_LAYER: &[(&str, &str)] = &[
    ("input.wall_ms", "ms"),
    ("input.bytes", "bytes"),
    ("splitter.wall_ms", "ms"),
    ("splitter.statements", "count"),
    ("splitter.uniques", "count"),
    ("splitter.unique_ratio", "ratio"),
    ("splitter.allocs", "count"),
    ("context.wall_ms", "ms"),
    ("context.split_ms", "ms"),
    ("context.intake_ms", "ms"),
    ("context.materialize_ms", "ms"),
    ("context.parse_ms", "ms"),
    ("context.annotate_ms", "ms"),
    ("context.fold_ms", "ms"),
    ("context.degraded", "count"),
    ("context.allocs", "count"),
    ("context.hwm_mb", "MB"),
    ("detect.wall_ms", "ms"),
    ("detect.detections", "count"),
    ("detect.allocs", "count"),
    ("detect.hwm_mb", "MB"),
    ("rank.wall_ms", "ms"),
    ("rank.items", "count"),
    ("fix.wall_ms", "ms"),
    ("fix.fixes", "count"),
    ("fix.schema_fixes", "count"),
    ("fix.impacted_lines", "count"),
    ("fix.allocs", "count"),
    ("fix.hwm_mb", "MB"),
    ("render.wall_ms", "ms"),
    ("render.bytes_out", "bytes"),
    ("render.lines", "count"),
    ("session.build_ms", "ms"),
    ("session.recheck_ms", "ms"),
    ("session.edit_ms", "ms"),
    ("session.profile_ms", "ms"),
    ("session.patch_ms", "ms"),
    ("session.finalize_ms", "ms"),
    ("session.dirty", "count"),
    ("session.units_reused_ratio", "ratio"),
    ("session.fallbacks", "count"),
    ("session.cold_reverts", "count"),
    ("session.rank_ms", "ms"),
    ("session.fix_ms", "ms"),
    ("session.hwm_mb", "MB"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("trace.total_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// The end-to-end result of one untraced run.
pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub score: oracle::Score,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
}

/// The per-layer result of one traced run.
pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
}

/// How long a run measures.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn start(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether to start another operation: always while fewer than `min`
    /// are done, then while one more of the mean length so far still fits.
    pub fn more(&self, done: usize, min: usize) -> bool {
        if done < min {
            return true;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        elapsed + elapsed / done.max(1) as f64 <= self.seconds
    }
}

/// Median of `k` timed repetitions of a set-up, in seconds, with the last
/// repetition's product.
pub fn timed_setup<T>(k: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k {
        // Free the previous product before building the next.
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (trace::median(&times), last.expect("at least one set-up"))
}

struct Args {
    sqlcheck: PathBuf,
    work_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        sqlcheck: get("--sqlcheck")?.into(),
        work_dir: get("--work-dir")?.into(),
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.work_dir).expect("create the work directory");
    let cli = |name| cli::Cli {
        workload: name,
        sqlcheck: &args.sqlcheck,
        dir: &args.work_dir,
    };
    let (w, seed, secs) = (args.workload.as_str(), args.seed, args.seconds);
    let trace_path = args.work_dir.join(format!("trace-{w}-{seed}.json"));
    let line = match (w, args.trace) {
        ("plain" | "skewed" | "github", false) => e2e_json(&cli(w).run(seed, secs)),
        ("plain" | "skewed" | "github", true) => {
            traced_json(&cli(w).traced(seed, secs, &trace_path))
        }
        ("edit", false) => e2e_json(&edit::run(seed, secs, &args.work_dir)),
        ("edit", true) => traced_json(&edit::traced(seed, secs, &trace_path)),
        _ => {
            eprintln!("perfbench: unknown workload {w:?} (plain, skewed, github, edit)");
            std::process::exit(2);
        }
    };
    println!("{line}");
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "{name} is not finite");
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn e2e_json(r: &EndToEnd) -> String {
    let ok_ratio = 1.0 - r.failed as f64 / r.attempted.max(1) as f64;
    let metrics = [
        metric("setup_s", r.setup_s, "s"),
        metric("wall_s", r.wall_s, "s"),
        metric("peak_rss_mb", r.peak_rss_mb, "MB"),
        metric("edit_p50_ms", r.p50_ms, "ms"),
        metric("edit_p90_ms", r.p90_ms, "ms"),
        metric("precision", r.score.precision(), "ratio"),
        metric("recall", r.score.recall(), "ratio"),
        metric("ok_ratio", ok_ratio, "ratio"),
    ];
    eprintln!(
        "perfbench: {} operation(s), {} failed; score tp {} fp {} fn {}",
        r.attempted, r.failed, r.score.tp, r.score.fp, r.score.fn_
    );
    result_json(r.correct && r.failed == 0, r.attempted, r.failed, &metrics)
}

fn traced_json(t: &Traced) -> String {
    for name in t.metrics.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "unlisted per-layer metric {name}"
        );
    }
    let metrics: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit)| metric(name, t.metrics.get(*name).copied().unwrap_or(0.0), unit))
        .collect();
    result_json(t.correct && t.failed == 0, t.attempted, t.failed, &metrics)
}

//! The CLI workloads: `sqlcheck FILE` with no flags, one process at a
//! time, on a generated file.
//!
//! The untraced run times each process from spawn to exit with stdout
//! captured, and takes its peak RSS from `wait4`. The traced run calls the
//! functions the CLI's default path calls, in the same order, with a span
//! around each.

use crate::oracle::{self, Labels, Score};
use crate::trace::{median, quantile, Samples, Trace};
use crate::{sys, timed_setup, Budget, EndToEnd, Traced, STATEMENTS, TEMPLATES};
use sqlcheck::{
    AntiPatternKind, ContextBuilder, Detection, Detector, Dialect, Fix, FixEngine, FrontendOptions,
    RankedDetection, Ranker, SuggestedFix,
};
use sqlcheck_bench::experiments::throughput::script_for_shape;
use sqlcheck_parser::splitter::split_deduped_dialect;
use sqlcheck_workload::github::{generate_corpus, CorpusConfig, Repository};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// CLI processes per untraced run, at least.
const MIN_RUNS: usize = 3;
/// The CLI's exit code when it lists findings.
const EXIT_FINDINGS: i32 = 1;
/// The GitHub corpus: 400 repositories of 124 statements.
const GITHUB_REPOS: usize = 400;
const GITHUB_STMTS: usize = 124;
/// Accuracy floors on the GitHub labels (precision, recall); a listing
/// below either one fails.
const GITHUB_FLOOR: (f64, f64) = (0.90, 0.95);

pub struct Cli<'a> {
    pub workload: &'a str,
    pub sqlcheck: &'a Path,
    pub dir: &'a Path,
}

/// How a listing of the input is checked.
enum Check {
    Counts(BTreeMap<AntiPatternKind, usize>),
    Labels(Labels),
}

struct Input {
    path: PathBuf,
    check: Check,
}

impl Cli<'_> {
    /// Generate the script (and, for `github`, the labelled corpus).
    fn generate(&self, seed: u64) -> (String, Vec<Repository>) {
        match self.workload {
            "github" => {
                let cfg = CorpusConfig {
                    repositories: GITHUB_REPOS,
                    statements_per_repo: GITHUB_STMTS,
                    seed,
                };
                let corpus = generate_corpus(cfg);
                let script: Vec<String> = corpus.iter().map(Repository::script).collect();
                (script.join(";\n"), corpus)
            }
            shape => (
                script_for_shape(shape, STATEMENTS, TEMPLATES, seed),
                Vec::new(),
            ),
        }
    }

    /// Generate the input and write it to a file, `k` times; returns the
    /// median set-up time and the input with its oracle.
    fn setup(&self, seed: u64, k: usize) -> (f64, Input) {
        let path = self.dir.join(format!("{}.sql", self.workload));
        let (setup_s, (script, corpus)) = timed_setup(k, || {
            let (script, corpus) = self.generate(seed);
            std::fs::write(&path, &script).expect("write the input file");
            (script, corpus)
        });
        let check = if corpus.is_empty() {
            Check::Counts(oracle::expected_counts(&script).expect("known statement shapes"))
        } else {
            Check::Labels(Labels::of(&corpus))
        };
        (setup_s, Input { path, check })
    }

    /// One `sqlcheck FILE` process: seconds from spawn to exit net of
    /// steal time, its stdout, and how it ended. Stdout goes to a file, so
    /// this process sleeps in `wait4` while the CLI runs and accrues no
    /// steal of its own.
    fn invoke(&self, path: &Path) -> (f64, Vec<u8>, sys::Reaped) {
        let out_path = path.with_extension("out");
        let out = File::create(&out_path).expect("create the output file");
        let watch = sys::Stopwatch::start();
        let child = Command::new(self.sqlcheck)
            .arg(path)
            .stdin(Stdio::null())
            .stdout(out)
            .spawn()
            .expect("spawn sqlcheck");
        let reaped = sys::reap(child).expect("reap sqlcheck");
        let net_s = watch.net_s();
        let out = std::fs::read(&out_path).expect("read sqlcheck's output");
        (net_s, out, reaped)
    }

    /// Score a listing against the oracle; the bool says whether it passes.
    fn score(&self, input: &Input, out: &[u8]) -> (Score, bool) {
        let listed = std::str::from_utf8(out)
            .map_err(|e| e.to_string())
            .and_then(oracle::parse_listing);
        let listed = match listed {
            Ok(l) => l,
            Err(e) => {
                eprintln!("perfbench: unreadable listing: {e}");
                return (Score::default(), false);
            }
        };
        match &input.check {
            Check::Counts(want) => {
                let got = oracle::listed_counts(&listed);
                let s = Score::of_multisets(&got, want);
                if !s.exact() {
                    eprintln!("perfbench: per-kind counts differ: got {got:?}, want {want:?}");
                }
                (s, s.exact())
            }
            Check::Labels(labels) => {
                let s = labels.score(&listed);
                (
                    s,
                    s.precision() >= GITHUB_FLOOR.0 && s.recall() >= GITHUB_FLOOR.1,
                )
            }
        }
    }

    /// The untraced run: CLI processes one after another until the time
    /// is up. The first listing is scored; every later one must match it
    /// byte for byte.
    pub fn run(&self, seed: u64, seconds: f64) -> EndToEnd {
        let (setup_s, input) = self.setup(seed, SETUPS);
        let budget = Budget::start(seconds);
        let (mut walls, mut rss) = (Vec::new(), Vec::new());
        let mut first: Option<Vec<u8>> = None;
        let (mut score, mut failed) = (Score::default(), 0);
        while budget.more(walls.len(), MIN_RUNS) {
            let (wall, out, reaped) = self.invoke(&input.path);
            walls.push(wall);
            rss.push(reaped.peak_rss_mb);
            let mut ok = reaped.exit_code == Some(EXIT_FINDINGS);
            match &first {
                None => {
                    let (s, pass) = self.score(&input, &out);
                    score = s;
                    ok &= pass;
                    first = Some(out);
                }
                Some(f) => ok &= *f == out,
            }
            if !ok {
                eprintln!(
                    "perfbench: run {} failed (exit {:?})",
                    walls.len(),
                    reaped.exit_code
                );
                failed += 1;
            }
        }
        EndToEnd {
            setup_s,
            wall_s: median(&walls),
            peak_rss_mb: median(&rss),
            p50_ms: median(&walls) * 1e3,
            p90_ms: quantile(&walls, 0.9) * 1e3,
            score,
            attempted: walls.len(),
            failed,
            correct: failed == 0,
        }
    }

    /// The traced run: traced in-process passes, each followed by one
    /// untraced CLI process for the overhead comparison.
    pub fn traced(&self, seed: u64, seconds: f64, trace_path: &Path) -> Traced {
        let (_, input) = self.setup(seed, 1);
        let path = input.path.to_str().expect("UTF-8 work directory");
        let mut trace = Trace::new();
        let mut samples = Samples::default();
        let (mut passes, mut failed) = (0, 0);
        let mut untraced = Vec::new();
        let budget = Budget::start(seconds);
        while budget.more(passes, 2) {
            sys::set_counting(true);
            let listing = traced_pass(path, &mut trace, &mut samples);
            sys::set_counting(false);
            let (wall, _, reaped) = self.invoke(&input.path);
            untraced.push(wall * 1e3);
            passes += 1;
            if !self.score(&input, &listing).1 || reaped.exit_code != Some(EXIT_FINDINGS) {
                failed += 1;
            }
        }
        let mut metrics = samples.medians();
        let total = metrics["trace.total_ms"];
        metrics.insert("trace.untraced_ms".into(), median(&untraced));
        metrics.insert("trace.overhead_ms".into(), total - median(&untraced));
        std::fs::write(trace_path, trace.to_json()).expect("write the spans");
        Traced {
            metrics,
            attempted: passes,
            failed,
            correct: failed == 0,
        }
    }
}

/// Split `script` in a `splitter` span as the context builder does: one
/// chunk per core above 16 KiB.
pub fn traced_split(trace: &mut Trace, s: &mut Samples, script: &str, dialect: Dialect) {
    let threads = if script.len() < 16 * 1024 {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    let (split, p) = trace.layer("splitter", || {
        split_deduped_dialect(script, threads, dialect)
    });
    let (n, uniques) = (split.occurrences.len(), split.uniques.len());
    s.put("splitter.wall_ms", p.wall_ms);
    s.put("splitter.allocs", p.allocs);
    s.put("splitter.statements", n as f64);
    s.put("splitter.uniques", uniques as f64);
    s.put("splitter.unique_ratio", uniques as f64 / n.max(1) as f64);
}

/// The fix layer's counts: fixes, schema fixes, and the impacted-query
/// lines those list.
pub fn put_fix_counts(s: &mut Samples, fixes: &[SuggestedFix]) {
    let impacted: Vec<usize> = fixes
        .iter()
        .filter_map(|f| match &f.fix {
            Fix::SchemaChange {
                impacted_queries, ..
            } => Some(impacted_queries.len()),
            _ => None,
        })
        .collect();
    s.put("fix.fixes", fixes.len() as f64);
    s.put("fix.schema_fixes", impacted.len() as f64);
    s.put("fix.impacted_lines", impacted.iter().sum::<usize>() as f64);
}

/// One traced pass of the CLI's default path — read, split, build the
/// context, detect, rank, fix, render — returning the rendered listing.
fn traced_pass(path: &str, trace: &mut Trace, s: &mut Samples) -> Vec<u8> {
    let root = trace.enter("pass");

    let (script, p) = trace.layer("input", || sqlcheck::read_script(path).expect("read input"));
    s.put("input.wall_ms", p.wall_ms);
    s.put("input.bytes", script.len() as f64);

    traced_split(
        trace,
        s,
        &script,
        Dialect::detect(&script).unwrap_or(Dialect::Generic),
    );

    // `check_script`'s front end: dedup on, default threads, the dialect
    // guessed from the script as the CLI asks when no --dialect is given.
    let frontend = FrontendOptions {
        detect_dialect: true,
        ..FrontendOptions::default()
    };
    let ((ctx, fe), p) = trace.layer("context", || {
        ContextBuilder::new()
            .with_frontend(frontend)
            .add_script(&script)
            .build_with_stats()
    });
    let phases = [
        ("context.split", fe.split_micros),
        ("context.intake", fe.intake_micros),
        ("context.materialize", fe.materialize_micros),
        ("context.parse", fe.parse_micros),
        ("context.annotate", fe.annotate_micros),
        ("context.fold", fe.context_micros),
    ];
    trace.phases(p.id, &phases);
    for (name, us) in phases {
        s.put(&format!("{name}_ms"), us as f64 / 1e3);
    }
    s.probe("context", &p);
    s.put(
        "context.degraded",
        ctx.statements
            .iter()
            .filter(|st| !st.diags.is_empty())
            .count() as f64,
    );

    let (report, p) = trace.layer("detect", || Detector::default().detect(&ctx));
    s.probe("detect", &p);
    s.put("detect.detections", report.detections.len() as f64);

    let (ranked, p) = trace.layer("rank", || Ranker::default().rank(&report));
    s.put("rank.wall_ms", p.wall_ms);
    s.put("rank.items", ranked.len() as f64);

    let (fixes, p) = trace.layer("fix", || {
        let ordered: Vec<Detection> = ranked.iter().map(|r| r.detection.clone()).collect();
        FixEngine.fix_all(&ordered, &ctx)
    });
    s.probe("fix", &p);
    put_fix_counts(s, &fixes);

    let (listing, p) = trace.layer("render", || render(&ranked, &fixes));
    s.put("render.wall_ms", p.wall_ms);
    s.put("render.bytes_out", listing.len() as f64);
    s.put(
        "render.lines",
        listing.iter().filter(|b| **b == b'\n').count() as f64,
    );

    s.put("trace.total_ms", trace.exit(root));
    listing
}

/// The CLI's listing, line for line, into memory. (Writes to a `String`
/// cannot fail, so their results are ignored.)
fn render(ranked: &[RankedDetection], fixes: &[SuggestedFix]) -> Vec<u8> {
    let mut out = String::new();
    for (i, (r, f)) in ranked.iter().zip(fixes).enumerate() {
        let at = match r.detection.span {
            Some(s) => format!(" [bytes {s}]"),
            None => String::new(),
        };
        let d = &r.detection;
        let _ = writeln!(
            out,
            "{:>3}. [{:.3}] {} ({}) @ {}{}",
            i + 1,
            r.score,
            d.kind,
            d.kind.category(),
            d.locus,
            at
        );
        let _ = writeln!(out, "     {}", d.message);
        let _ = match &f.fix {
            Fix::Rewrite { fixed, .. } => writeln!(out, "     fix: {fixed}"),
            Fix::SchemaChange {
                statements,
                impacted_queries,
            } => {
                for st in statements {
                    let _ = writeln!(out, "     fix: {st}");
                }
                for (idx, q) in impacted_queries {
                    let _ = writeln!(out, "     impacted #{idx}: {q}");
                }
                Ok(())
            }
            Fix::Textual { advice } => writeln!(out, "     advice: {advice}"),
        };
    }
    out.into_bytes()
}

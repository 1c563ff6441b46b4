//! `sqlcheck` — command-line interface (the paper's §7 interactive-shell
//! analogue).
//!
//! ```text
//! sqlcheck [FLAGS] [FILE]          # FILE omitted or '-' reads stdin
//!
//!   --intra-only         intra-query analysis only (§8.1 configuration 1)
//!   --weights c1|c2      ranking weight preset (Fig 7a; default c1)
//!   --rank-by count      inter-query model: AP count per query
//!   --no-fix             detection + ranking only
//!   --summary            per-kind histogram instead of full listing
//!   --stats              dedup/phase-timing stats and peak memory on
//!                        stderr
//!   --dialect D          SQL dialect: generic (default), postgres, mysql,
//!                        sqlite. Without this flag the dialect is guessed
//!                        from the script (DELIMITER/backticks -> mysql,
//!                        dollar-quoted bodies -> postgres) and the guess
//!                        is reported as a dialect-guessed diagnostic.
//!   --fail-on-degraded   exit 3 when any statement parsed degraded or a
//!                        rule unit failed (see --stats for details)
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or input error (unknown flag,
//! missing or unknown flag value, unreadable input), 3 degraded
//! input under `--fail-on-degraded`.
//!
//! Example:
//!
//! ```text
//! echo "INSERT INTO Users VALUES (1, 'foo')" | sqlcheck -
//! ```

use sqlcheck::{
    CheckOutcome, DetectionConfig, DiagKind, Dialect, FrontendOptions, InterQueryModel,
    RankWeights, SqlCheck,
};
use std::io::{self, BufWriter, Write};

/// Flags that take no value.
const SWITCHES: [&str; 7] = [
    "--intra-only",
    "--no-fix",
    "--summary",
    "--stats",
    "--fail-on-degraded",
    "--help",
    "-h",
];

/// Flags that take the next argument as their value.
const VALUED: [&str; 3] = ["--weights", "--rank-by", "--dialect"];

/// The settings of the valued flags; `None` where a flag is absent. A
/// repeated flag keeps its first value.
#[derive(Default)]
struct Values {
    weights: Option<RankWeights>,
    rank_by: Option<InterQueryModel>,
    dialect: Option<Dialect>,
}

/// Check the command line — every flag known, every valued flag followed
/// by a known value, at most one input — and return the input, if any,
/// with the valued flags' settings.
fn validate(args: &[String]) -> Result<(Option<&str>, Values), String> {
    let mut input: Option<&str> = None;
    let mut values = Values::default();
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if VALUED.contains(&a) {
            let v = it.next().ok_or_else(|| format!("{a} expects a value"))?;
            set_value(&mut values, a, v)?;
        } else if a.starts_with('-') && a != "-" {
            if !SWITCHES.contains(&a) {
                return Err(format!("unknown flag '{a}'"));
            }
        } else if let Some(first) = input.replace(a) {
            return Err(format!("unexpected argument '{a}' (input is already '{first}')"));
        }
    }
    Ok((input, values))
}

/// Parse `value` for the valued flag `flag` into `values`.
fn set_value(values: &mut Values, flag: &str, value: &str) -> Result<(), String> {
    match flag {
        "--weights" => {
            let w = match value.to_ascii_lowercase().as_str() {
                "c1" => RankWeights::C1,
                "c2" => RankWeights::C2,
                _ => return Err(format!("unknown weights '{value}' (expected c1 or c2)")),
            };
            values.weights.get_or_insert(w);
        }
        "--rank-by" => {
            if value != "count" {
                return Err(format!("unknown ranking model '{value}' (expected count)"));
            }
            values.rank_by.get_or_insert(InterQueryModel::ByApCount);
        }
        // --dialect, the last of VALUED.
        _ => {
            let d = Dialect::parse(value).ok_or_else(|| {
                format!(
                    "unknown dialect '{value}' (expected generic, postgres, mysql, or sqlite)"
                )
            })?;
            values.dialect.get_or_insert(d);
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (input, values) = match validate(&args) {
        Ok((input, values)) => (input.unwrap_or("-"), values),
        Err(e) => {
            eprintln!("sqlcheck: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // All stdout goes through one buffered writer; `finish` exits the
    // process without running destructors, so every path flushes first.
    let mut out = BufWriter::new(io::stdout().lock());
    if args.iter().any(|a| a == "--help" || a == "-h") {
        or_exit(print_help(&mut out).and_then(|()| out.flush()));
        return;
    }
    let intra_only = args.iter().any(|a| a == "--intra-only");
    let no_fix = args.iter().any(|a| a == "--no-fix");
    let summary = args.iter().any(|a| a == "--summary");
    let stats = args.iter().any(|a| a == "--stats");
    let fail_on_degraded = args.iter().any(|a| a == "--fail-on-degraded");
    let weights = values.weights.unwrap_or(RankWeights::C1);
    let inter_model = values.rank_by.unwrap_or(InterQueryModel::ByScore);
    // --dialect pins the front door; leaving it off opts into
    // auto-detection (an explicit choice always suppresses the guess).
    let dialect = values.dialect.unwrap_or(Dialect::Generic);
    let detect_dialect = values.dialect.is_none();

    // Files are memory-mapped (Unix): the splitter reads the page cache
    // directly, so multi-GB dumps stream without a userspace copy.
    let sql = if input == "-" {
        match sqlcheck::input::read_stdin() {
            Ok(s) => s,
            Err(_) => {
                eprintln!("sqlcheck: failed to read stdin");
                std::process::exit(2);
            }
        }
    } else {
        match sqlcheck::input::read_script(input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sqlcheck: cannot read {input}: {e}");
                std::process::exit(2);
            }
        }
    };

    let mut tool = SqlCheck::new().with_weights(weights).with_inter_query_model(inter_model);
    if intra_only {
        tool = tool.with_detection(DetectionConfig::intra_only());
    }
    let frontend = FrontendOptions { dialect, detect_dialect, ..FrontendOptions::default() };
    let w = tool.check_workload(&sql, &frontend);
    if stats {
        let s = &w.stats;
        let resolved = w.outcome.context.dialect;
        eprintln!(
            "stats: dialect {} ({})",
            resolved,
            if !detect_dialect {
                "explicit"
            } else if resolved == Dialect::Generic {
                "default"
            } else {
                "guessed"
            },
        );
        eprintln!(
            "stats: {} statement(s), {} unique text(s), {} parsed tree(s), \
             {} duplicate statement(s)",
            s.statements,
            s.unique_texts,
            s.parsed_trees,
            s.duplicate_statements,
        );
        eprintln!(
            "stats: front-end split {}us, intake {}us, materialize {}us, parse {}us, \
             annotate {}us, context {}us",
            s.split_micros,
            s.intake_micros,
            s.materialize_micros,
            s.parse_micros,
            s.annotate_micros,
            s.context_micros,
        );
        eprintln!(
            "stats: detect group {}us, intra {}us, fanout {}us, inter {}us, \
             data {}us, dedup {}us, total {}us",
            s.group_micros,
            s.intra_micros,
            s.fanout_micros,
            s.inter_micros,
            s.data_micros,
            s.dedup_micros,
            s.total_micros,
        );
        eprintln!(
            "stats: parse coverage {:.4} — {} degraded statement(s) across \
             {} degraded unique text(s), {} isolated rule failure(s)",
            s.parse_coverage(),
            s.degraded_statements,
            s.degraded_uniques,
            s.rule_failures,
        );
        let kinds: Vec<String> = DiagKind::ALL
            .iter()
            .filter(|k| s.diag_counts[k.index()] > 0)
            .map(|k| format!("{} {}", k.name(), s.diag_counts[k.index()]))
            .collect();
        if !kinds.is_empty() {
            eprintln!("stats: diagnostics by kind: {}", kinds.join(", "));
        }
    }
    let outcome = w.outcome;

    // --fail-on-degraded: exit 3 when any degradation diagnostic other
    // than the informational delimiter-fallback and dialect-guessed
    // notices was emitted — detection ran, but on reduced-fidelity
    // input. Takes precedence over the findings exit code (1).
    let degraded_exit = fail_on_degraded
        && outcome.diagnostics.iter().any(|d| {
            !matches!(
                d.kind,
                DiagKind::DelimiterFallbackSequential | DiagKind::DialectGuessed
            )
        });
    if degraded_exit && stats {
        for d in &outcome.diagnostics {
            eprintln!("degraded: {d}");
        }
    }

    let found = or_exit(
        render(&mut out, &outcome, summary, no_fix).and_then(|found| out.flush().map(|()| found)),
    );
    // Read after the listing is written, so the peak covers rank, fix
    // and render too.
    if let Some(kb) = stats.then(sqlcheck::vm_hwm_kb).flatten() {
        eprintln!("stats: peak rss {:.1} MB", kb as f64 / 1024.0);
    }
    // Exit code signals findings, like familiar linters.
    finish(degraded_exit, found);
}

/// Write the listing (or the `--summary` histogram) and report whether
/// anything was found. Detections are ranked only for the listing, and
/// fixes are synthesised only when they are printed.
fn render(
    out: &mut impl Write,
    outcome: &CheckOutcome,
    summary: bool,
    no_fix: bool,
) -> io::Result<bool> {
    if outcome.report.detections.is_empty() {
        writeln!(out, "no anti-patterns detected in {} statement(s)", outcome.context.len())?;
        return Ok(false);
    }

    if summary {
        writeln!(out, "{:<30} {:>6}", "anti-pattern", "count")?;
        for (kind, n) in outcome.report.by_kind() {
            writeln!(out, "{:<30} {:>6}", kind.name(), n)?;
        }
        writeln!(out, "{:<30} {:>6}", "total", outcome.report.detections.len())?;
        return Ok(true);
    }

    outcome.write_listing(out, !no_fix)?;
    Ok(true)
}

/// Unwrap a stdout write, or exit 2 with a one-line message (a closed
/// pipe or a full disk is an IO error, not a panic).
fn or_exit<T>(r: io::Result<T>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("sqlcheck: cannot write output: {e}");
        std::process::exit(2);
    })
}

/// Final exit: degraded input (3, under --fail-on-degraded) takes
/// precedence over findings (1); a clean run exits 0.
fn finish(degraded_exit: bool, found: bool) -> ! {
    std::process::exit(if degraded_exit {
        3
    } else if found {
        1
    } else {
        0
    })
}

/// One-line usage, printed with every command-line error.
const USAGE: &str = "usage: sqlcheck [--intra-only] [--weights c1|c2] [--rank-by count] [--no-fix] \
                     [--summary] [--stats] [--dialect generic|postgres|mysql|sqlite] \
                     [--fail-on-degraded] [FILE|-]";

fn print_help(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "sqlcheck — detect, rank, and fix SQL anti-patterns (SIGMOD 2020 reproduction)\n\n\
         {USAGE}\n\n\
         Reads SQL from FILE (or stdin with '-'), prints ranked anti-patterns\n\
         with suggested fixes. Exits 1 when anti-patterns are found; with\n\
         --fail-on-degraded, exits 3 when any statement parsed degraded or a\n\
         rule unit was isolated after a panic."
    )
}

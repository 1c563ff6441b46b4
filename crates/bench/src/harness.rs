//! Minimal, dependency-free benchmark harness.
//!
//! The workspace is std-only, so this module provides what the benches
//! and experiments need: warmup and timed iteration until a wall-clock
//! budget ([`bench()`]), one repeated-measurement timer ([`sample_of`])
//! and one JSON writer for the `BENCH_*.json` artifacts ([`Json`],
//! [`write_artifact`]).

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serialises timing-sensitive tests: Rust runs a binary's `#[test]`s on
/// parallel threads, and concurrent micro-benchmarks skew each other's
/// wall-clock ratios. Tests that assert speedups should hold this lock
/// for their timed region.
pub static TIMING_LOCK: Mutex<()> = Mutex::new(());

/// One measured benchmark result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark label.
    pub name: String,
    /// Iterations in the timed region.
    pub iters: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// Wall-clock budget for the timed region of each benchmark.
const BUDGET: Duration = Duration::from_millis(300);
/// Minimum iterations regardless of budget.
const MIN_ITERS: u64 = 5;

/// Run `f` repeatedly until the time budget elapses (after one warmup
/// call), print and return the measurement.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    black_box(f()); // warmup
    let mut iters = 0u64;
    let start = Instant::now();
    let mut elapsed;
    loop {
        black_box(f());
        iters += 1;
        elapsed = start.elapsed();
        if elapsed >= BUDGET && iters >= MIN_ITERS {
            break;
        }
    }
    finish(name, iters, elapsed)
}

fn finish(name: &str, iters: u64, elapsed: Duration) -> BenchResult {
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    let r = BenchResult { name: name.to_string(), iters, ns_per_iter: ns };
    println!("{:<44} {:>14.0} ns/iter   ({} iters)", r.name, r.ns_per_iter, r.iters);
    r
}

/// Print a benchmark group header.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}

/// Summary of a repeated wall-clock measurement. The experiments report
/// the **minimum** (noise-robust on a preemptible host: steal only ever
/// adds time) but also carry the median and the spread so the host noise
/// the README warns about is measured per row instead of folklore.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Fastest observation, microseconds.
    pub min_micros: u128,
    /// Median observation, microseconds.
    pub median_micros: u128,
    /// Slowest observation, microseconds.
    pub max_micros: u128,
}

impl Sample {
    /// Summarise wall-clock observations in microseconds (at least one).
    pub fn of(mut obs: Vec<u128>) -> Sample {
        assert!(!obs.is_empty());
        obs.sort_unstable();
        Sample {
            min_micros: obs[0],
            median_micros: obs[obs.len() / 2],
            max_micros: obs[obs.len() - 1],
        }
    }

    /// Relative spread of the observations: `(max - min) / min`, as a
    /// percentage. ~0 on a quiet host; tens of percent under steal.
    pub fn spread_pct(&self) -> f64 {
        if self.min_micros == 0 {
            0.0
        } else {
            (self.max_micros - self.min_micros) as f64 * 100.0 / self.min_micros as f64
        }
    }
}

/// Time `f` `reps` times (at least one); return the last output and the
/// summary of the observations. Each output is dropped outside the
/// timed region, so a large result's destructor is not billed to it.
pub fn sample_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Sample) {
    let mut obs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = black_box(f());
        obs.push(t.elapsed().as_micros());
        last = Some(out);
    }
    (last.expect("at least one repetition"), Sample::of(obs))
}

/// One value of a `BENCH_*.json` artifact row.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A measurement this build did not take (e.g. allocation counts
    /// without the `count-allocs` feature).
    Null,
    /// A flag, such as an identity check's outcome.
    Bool(bool),
    /// An exact count or a microsecond timing.
    Int(u128),
    /// A ratio or rate, written with the given number of decimals
    /// (`null` when not finite).
    Fixed(f64, usize),
    /// A label.
    Str(String),
    /// Fields in the order they are written.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object with `fields` in the given order.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(fields.into_iter().collect())
    }

    /// The keys of an object, in order; empty for any other value.
    pub fn keys(&self) -> Vec<&'static str> {
        match self {
            Json::Object(fields) => fields.iter().map(|(k, _)| *k).collect(),
            _ => Vec::new(),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Int(n) => write!(out, "{n}").unwrap(),
            Json::Fixed(x, _) if !x.is_finite() => out.push_str("null"),
            Json::Fixed(x, decimals) => write!(out, "{x:.decimals$}").unwrap(),
            Json::Str(s) => write_str(s, out),
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

macro_rules! json_from {
    ($($t:ty => $v:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from(x: $t) -> Json {
                $v(x)
            }
        })*
    };
}

json_from! {
    bool => Json::Bool,
    usize => |n| Json::Int(n as u128),
    u64 => |n| Json::Int(n as u128),
    u128 => Json::Int,
    &str => |s: &str| Json::Str(s.to_string()),
    String => Json::Str,
}

/// Write `s` as a JSON string literal.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render an artifact: the experiment's name and its rows, one row per
/// line.
pub fn artifact_json(experiment: &str, rows: impl IntoIterator<Item = Json>) -> String {
    let mut out = String::from("{\n  \"experiment\": ");
    write_str(experiment, &mut out);
    out.push_str(",\n  \"rows\": [");
    for (i, row) in rows.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        row.write(&mut out);
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Write [`artifact_json`] to `path` and report where it went.
pub fn write_artifact(path: &str, experiment: &str, rows: impl IntoIterator<Item = Json>) {
    match std::fs::write(path, artifact_json(experiment, rows)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_nests_and_writes_null() {
        let row = Json::object([
            ("label", Json::from("a \"q\" \\ b\n\t\u{1}")),
            ("count", 7usize.into()),
            ("ok", true.into()),
            ("missing", Json::Null),
            ("ratio", Json::Fixed(0.12345, 3)),
            ("inf", Json::Fixed(f64::INFINITY, 1)),
            ("nested", Json::object([("x-y", 1u64.into()), ("z", Json::object([]))])),
        ]);
        assert_eq!(
            artifact_json("demo", [row.clone()]),
            "{\n  \"experiment\": \"demo\",\n  \"rows\": [\n    \
             {\"label\": \"a \\\"q\\\" \\\\ b\\n\\t\\u0001\", \"count\": 7, \"ok\": true, \
             \"missing\": null, \"ratio\": 0.123, \"inf\": null, \
             \"nested\": {\"x-y\": 1, \"z\": {}}}\n  ]\n}\n"
        );
        assert_eq!(row.keys(), ["label", "count", "ok", "missing", "ratio", "inf", "nested"]);
    }

    #[test]
    fn writer_handles_an_empty_row_list() {
        assert_eq!(artifact_json("none", []), "{\n  \"experiment\": \"none\",\n  \"rows\": [\n  ]\n}\n");
    }
}

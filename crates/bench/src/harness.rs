//! Minimal, dependency-free benchmark harness.
//!
//! The container this workspace builds in has no registry access, so the
//! benches cannot use Criterion. This module provides the small subset the
//! experiment benches need: warmup, timed iteration until a wall-clock
//! budget, and a batched mode that excludes per-iteration setup from the
//! timed region. Results print in a `name ... ns/iter` format and can be
//! collected programmatically for JSON emission.

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

impl BenchResult {
    /// Iterations per second implied by the measurement.
    pub fn per_sec(&self) -> f64 {
        if self.ns_per_iter == 0.0 {
            0.0
        } else {
            1e9 / self.ns_per_iter
        }
    }
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

/// Like [`bench`], but re-creates the input with `setup` before every
/// iteration and excludes that setup time from the measurement — the
/// equivalent of Criterion's `iter_batched` for mutating benchmarks.
pub fn bench_batched<S, T>(
    name: &str,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> BenchResult {
    black_box(f(setup())); // warmup
    let mut iters = 0u64;
    let mut timed = Duration::ZERO;
    loop {
        let input = setup();
        let t0 = Instant::now();
        black_box(f(input));
        timed += t0.elapsed();
        iters += 1;
        if timed >= BUDGET && iters >= MIN_ITERS {
            break;
        }
    }
    finish(name, iters, timed)
}

fn finish(name: &str, iters: u64, elapsed: Duration) -> BenchResult {
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    let r = BenchResult { name: name.to_string(), iters, ns_per_iter: ns };
    println!("{:<44} {:>14.0} ns/iter   ({} iters)", r.name, r.ns_per_iter, r.iters);
    r
}

/// Print a group header, mirroring Criterion's benchmark groups.
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

/// Time `f` `reps` times and summarise the observations.
pub fn sample_of<T>(reps: usize, mut f: impl FnMut() -> T) -> Sample {
    Sample::of(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_micros()
            })
            .collect(),
    )
}

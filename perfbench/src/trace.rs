//! Spans and per-layer samples of the traced run.
//!
//! A span is recorded around each call into a layer: name, start, end and
//! parent, kept in memory and written out when the run ends. Phase times a
//! call already returns (`FrontendStats`, `BatchStats::warm_*`) become
//! child spans laid end to end from the parent's start. A span's self time
//! is its duration minus its children's.

use crate::sys;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// What one layer call cost.
pub struct Probe {
    pub id: usize,
    pub wall_ms: f64,
    pub allocs: f64,
    pub hwm_mb: f64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one); returns its duration in ms.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_us = self.now_us();
        (self.spans[id].end_us - self.spans[id].start_us) / 1e3
    }

    /// Run one layer call inside a span, with its allocation count and the
    /// peak RSS it reached.
    pub fn layer<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Probe) {
        sys::reset_hwm();
        let a0 = sys::allocs();
        let id = self.enter(name);
        let out = std::hint::black_box(f());
        let wall_ms = self.exit(id);
        let allocs = (sys::allocs() - a0) as f64;
        (
            out,
            Probe {
                id,
                wall_ms,
                allocs,
                hwm_mb: sys::vm_hwm_mb(),
            },
        )
    }

    /// Children of `parent` from phase micros the call returned, laid end
    /// to end from the parent's start.
    pub fn phases(&mut self, parent: usize, phases: &[(&str, u128)]) {
        let mut at = self.spans[parent].start_us;
        for (name, us) in phases {
            let end = at + *us as f64;
            self.spans.push(Span {
                name: name.to_string(),
                start_us: at,
                end_us: end,
                parent: Some(parent),
            });
            at = end;
        }
    }

    /// Self time per span name, summed over its spans, in ms, with the
    /// number of spans.
    pub fn self_ms(&self) -> BTreeMap<&str, (f64, usize)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            let e = out.entry(s.name.as_str()).or_insert((0.0, 0));
            e.0 += (s.end_us - s.start_us - c) / 1e3;
            e.1 += 1;
        }
        out
    }

    /// The spans and self times as one JSON document.
    pub fn to_json(&self) -> String {
        let mut j = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                j,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \
                 \"parent\": {parent}}}{sep}",
                s.name, s.start_us, s.end_us
            );
        }
        let selfs: Vec<String> = self
            .self_ms()
            .iter()
            .map(|(n, (ms, k))| format!("\"{n}\": {{\"self_ms\": {ms:.3}, \"spans\": {k}}}"))
            .collect();
        let _ = writeln!(j, "],\n\"self_time\": {{{}}}}}", selfs.join(", "));
        j
    }
}

/// Per-layer metric samples, one value per metric per pass.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// A layer call's wall time, allocations and peak RSS.
    pub fn probe(&mut self, layer: &str, p: &Probe) {
        self.put(&format!("{layer}.wall_ms"), p.wall_ms);
        self.put(&format!("{layer}.allocs"), p.allocs);
        self.put(&format!("{layer}.hwm_mb"), p.hwm_mb);
    }

    /// Median of each metric's samples.
    pub fn medians(&self) -> BTreeMap<String, f64> {
        self.0.iter().map(|(k, v)| (k.clone(), median(v))).collect()
    }
}

/// Median of unsorted values: the mean of the middle two for an even
/// count (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank quantile of unsorted values (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

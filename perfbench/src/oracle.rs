//! Output oracles that do not ask sqlcheck about itself.
//!
//! * `plain` / `skewed`: the generator's statement shapes are known, so
//!   each statement line is classified by its text and a hand-written
//!   table says which anti-patterns each shape carries. The expected
//!   per-kind counts follow from the shape counts.
//! * `github`: the generator labels every statement; detections are
//!   scored per (statement, kind), with table and column loci mapped to
//!   the statement that creates the table.
//!
//! Both read the CLI's rendered listing, so they check what a user sees.

use sqlcheck::AntiPatternKind::{self, *};
use sqlcheck_workload::github::Repository;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// True/false positives and false negatives of one comparison.
#[derive(Debug, Default, Clone, Copy)]
pub struct Score {
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
}

impl Score {
    pub fn add(&mut self, other: Score) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    pub fn precision(&self) -> f64 {
        self.tp as f64 / (self.tp + self.fp).max(1) as f64
    }

    pub fn recall(&self) -> f64 {
        self.tp as f64 / (self.tp + self.fn_).max(1) as f64
    }

    pub fn exact(&self) -> bool {
        self.fp == 0 && self.fn_ == 0
    }

    /// Score two multisets of keys against each other.
    pub fn of_multisets<K: Ord>(got: &BTreeMap<K, usize>, want: &BTreeMap<K, usize>) -> Score {
        let mut s = Score::default();
        for (k, &g) in got {
            let w = want.get(k).copied().unwrap_or(0);
            s.tp += g.min(w);
            s.fp += g.saturating_sub(w);
        }
        for (k, &w) in want {
            s.fn_ += w.saturating_sub(got.get(k).copied().unwrap_or(0));
        }
        s
    }
}

/// One generated statement shape of `script_for_shape`: how to recognise
/// it (prefix, and a substring it must contain) and the anti-patterns
/// every occurrence carries.
struct Shape {
    prefix: &'static str,
    contains: &'static str,
    kinds: &'static [AntiPatternKind],
}

/// The eight plain-pool shapes, the skewed hot template, and the giant
/// procedure, most specific first.
const SHAPES: &[Shape] = &[
    Shape {
        prefix: "SELECT * FROM app_t",
        contains: "ORDER BY RANDOM()",
        kinds: &[ColumnWildcard, OrderingByRand],
    },
    Shape {
        prefix: "SELECT * FROM app_t",
        contains: " WHERE c0 = ",
        kinds: &[ColumnWildcard],
    },
    Shape {
        prefix: "SELECT c0, c1 FROM app_t",
        contains: " LIKE '%v",
        kinds: &[PatternMatching],
    },
    Shape {
        prefix: "INSERT INTO app_t",
        contains: " VALUES (",
        kinds: &[ImplicitColumns],
    },
    Shape {
        prefix: "UPDATE app_t",
        contains: " WHERE c1 = ",
        kinds: &[],
    },
    Shape {
        prefix: "SELECT c0 FROM app_t",
        contains: " IN (",
        kinds: &[],
    },
    Shape {
        prefix: "SELECT DISTINCT a.c0 FROM app_t",
        contains: " JOIN app_u",
        kinds: &[DistinctJoin],
    },
    Shape {
        prefix: "DELETE FROM app_t",
        contains: " WHERE c0 = ",
        kinds: &[],
    },
    // The skewed shape's hot template: a keyed two-column read.
    Shape {
        prefix: "SELECT c0, c1 FROM app_hot WHERE c0 = ",
        contains: "",
        kinds: &[],
    },
    // The skewed shape's giant procedure: 400 `UPDATE … WHERE c1 LIKE
    // '%m…%'` statements in one body. The Pattern Matching rule inspects
    // SELECT predicates only, so none of them is a finding; widening that
    // rule's scope fails this oracle until this entry is updated.
    Shape {
        prefix: "CREATE PROCEDURE giant_migration() BEGIN ",
        contains: "",
        kinds: &[],
    },
];

/// Expected per-kind detection counts of a `script_for_shape` script, or
/// the first statement no shape recognises.
pub fn expected_counts(script: &str) -> Result<BTreeMap<AntiPatternKind, usize>, String> {
    let mut want = BTreeMap::new();
    for stmt in script.lines().filter(|l| !l.is_empty()) {
        let shape = SHAPES
            .iter()
            .find(|s| stmt.starts_with(s.prefix) && stmt.contains(s.contains))
            .ok_or_else(|| format!("statement of unknown shape: {stmt:.80}"))?;
        for k in shape.kinds {
            *want.entry(*k).or_insert(0) += 1;
        }
    }
    Ok(want)
}

/// One finding as the CLI lists it: kind and locus text.
pub struct Listed<'a> {
    pub kind: AntiPatternKind,
    pub locus: &'a str,
}

/// Parse the CLI's ranked listing: every header line
/// `  N. [score] Kind (Category) @ locus [bytes a..b]`.
pub fn parse_listing(out: &str) -> Result<Vec<Listed<'_>>, String> {
    let by_name: HashMap<&str, AntiPatternKind> = AntiPatternKind::ALL
        .iter()
        .map(|k| (k.name(), *k))
        .collect();
    let mut found = Vec::new();
    for line in out.lines() {
        // Header lines are indented by at most two spaces; message, fix and
        // advice lines by five.
        let body = line.trim_start();
        if line.len() - body.len() > 2 {
            continue;
        }
        let Some((num, rest)) = body.split_once(". [") else {
            continue;
        };
        if num.is_empty() || !num.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let parsed = rest.split_once("] ").and_then(|(_, r)| r.split_once(" @ "));
        let Some((kind_cat, locus)) = parsed else {
            return Err(format!("malformed listing line: {line:.120}"));
        };
        let name = kind_cat.rsplit_once(" (").map_or(kind_cat, |(n, _)| n);
        let kind = *by_name
            .get(name)
            .ok_or_else(|| format!("unknown kind {name:?}"))?;
        let locus = locus.rsplit_once(" [bytes ").map_or(locus, |(l, _)| l);
        found.push(Listed { kind, locus });
    }
    Ok(found)
}

/// Per-kind counts of a listing.
pub fn listed_counts(listed: &[Listed<'_>]) -> BTreeMap<AntiPatternKind, usize> {
    let mut got = BTreeMap::new();
    for l in listed {
        *got.entry(l.kind).or_insert(0) += 1;
    }
    got
}

/// Ground truth of a GitHub corpus concatenated into one script.
pub struct Labels {
    truth: BTreeSet<(usize, AntiPatternKind)>,
    /// Lowercased table name → index of the statement creating it.
    creates: HashMap<String, usize>,
}

impl Labels {
    pub fn of(corpus: &[Repository]) -> Labels {
        let mut truth = BTreeSet::new();
        let mut creates = HashMap::new();
        let stmts = corpus.iter().flat_map(|r| &r.statements);
        for (i, s) in stmts.enumerate() {
            truth.extend(s.labels.iter().map(|k| (i, *k)));
            if let Some(rest) = s.sql.strip_prefix("CREATE TABLE ") {
                let name = rest.split([' ', '(']).next().unwrap_or_default();
                creates.entry(name.to_ascii_lowercase()).or_insert(i);
            }
        }
        Labels { truth, creates }
    }

    /// Score a listing per (statement, kind), as the Table 2 experiment
    /// does: table and column loci count at the table's `CREATE TABLE`,
    /// and findings with no statement (indexes, the application) are
    /// left out.
    pub fn score(&self, listed: &[Listed<'_>]) -> Score {
        let site = |table: &str| self.creates.get(&table.to_ascii_lowercase()).copied();
        let got: BTreeSet<(usize, AntiPatternKind)> = listed
            .iter()
            .filter_map(|l| {
                let idx = if let Some(n) = l.locus.strip_prefix("statement #") {
                    n.parse().ok()
                } else if let Some(t) = l.locus.strip_prefix("table ") {
                    site(t)
                } else if let Some(c) = l.locus.strip_prefix("column ") {
                    c.split_once('.').and_then(|(t, _)| site(t))
                } else {
                    None
                }?;
                Some((idx, l.kind))
            })
            .collect();
        let tp = got.intersection(&self.truth).count();
        Score {
            tp,
            fp: got.len() - tp,
            fn_: self.truth.len() - tp,
        }
    }
}

//! Schema pins for the committed `BENCH_*.json` artifacts: the keys of
//! each file's first row must equal the keys its one producer emits, so
//! a renamed or dropped field shows up here instead of silently leaving
//! a stale file behind.

use sqlcheck_bench::experiments::{corpus, e2e, phases, split};
use sqlcheck_bench::harness::Json;

/// Top-level keys of the first object in the artifact's `rows` array.
fn first_row_keys(artifact: &str) -> Vec<String> {
    let rows = artifact.find("\"rows\"").expect("artifact has a rows array");
    let start = rows + artifact[rows..].find('{').expect("artifact has a first row");
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut chars = artifact[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return keys;
                }
            }
            '"' => {
                let mut s = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => s.extend(chars.next()),
                        '"' => break,
                        c => s.push(c),
                    }
                }
                // A string at depth 1 followed by `:` is a row key.
                let rest = chars.as_str().trim_start();
                if depth == 1 && rest.starts_with(':') {
                    keys.push(s);
                }
            }
            _ => {}
        }
    }
    panic!("unterminated first row");
}

fn assert_pinned(file: &str, produced: Json) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let produced: Vec<String> = produced.keys().into_iter().map(String::from).collect();
    assert_eq!(
        first_row_keys(&committed),
        produced,
        "{file}: committed keys differ from its producer's; regenerate it at full scale"
    );
}

#[test]
fn phases_artifact_matches_its_producer() {
    assert_pinned("BENCH_phases.json", phases::json_row(&phases::run_one("plain", 60, 8, 1)));
}

#[test]
fn e2e_artifact_matches_its_producer() {
    let rows = e2e::run_sweep(100, 10, &[10], &["plain"], 1);
    assert_pinned("BENCH_e2e.json", e2e::json_row(&rows[0]));
}

#[test]
fn split_artifact_matches_its_producer() {
    assert_pinned("BENCH_split.json", split::json_row(&split::run_one("plain", 100, 10, 1)));
}

#[test]
fn corpus_artifact_matches_its_producer() {
    assert_pinned("BENCH_corpus.json", corpus::json_row(&corpus::run(true)[0]));
}

//! The context's unique-text table stays consistent through warm
//! re-checks.
//!
//! Random edit rounds — fresh texts, texts revived from the original
//! script, and DDL — run through a `CheckSession`. After every round the
//! table must describe the statements exactly (counts, hash lookups,
//! freed ids) and hold the same live texts, with the same counts and the
//! same number of parse trees, as the table of a cold check of the
//! edited script.
//!
//! The table keys each text by the content hash the splitter computed;
//! every live text's source must hash to its key and equal the
//! per-occurrence reference context's text under that key, through edit
//! rounds and on random scripts under every dialect.

use sqlcheck::context::Context;
use sqlcheck::detect::reference;
use sqlcheck::{Dialect, Edit, FrontendOptions, SqlCheck, WorkloadOutcome};
use sqlcheck_parser::hash::content_hash_bytes;
use std::collections::HashMap;
use std::sync::Arc;

/// Deterministic xorshift so edit rounds are reproducible.
struct Rng(u64);
impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

const DDL: usize = 2;

fn seed_script() -> String {
    let mut s = String::from(
        "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), age INT);\n\
         CREATE TABLE orders (id INT PRIMARY KEY, user_id INT, total FLOAT);\n",
    );
    for i in 0..60 {
        s.push_str(&match i % 4 {
            0 => format!("SELECT name FROM users WHERE id = {};\n", i % 7),
            1 => "SELECT * FROM orders WHERE total > 10;\n".to_string(),
            2 => format!("UPDATE orders SET total = {i} WHERE id = {};\n", i % 5),
            _ => format!(
                "SELECT u.name FROM users u JOIN orders o ON u.id = o.user_id WHERE o.id = {i};\n"
            ),
        });
    }
    s
}

/// The statements and the table agree, and freed ids are unreferenced.
fn assert_consistent(ctx: &Context, what: &str) {
    let uniques = &ctx.uniques;
    let mut refs = vec![0usize; uniques.id_bound()];
    for s in &ctx.statements {
        refs[s.unique] += 1;
        let u = uniques.get(s.unique).unwrap_or_else(|| panic!("{what}: statement on a freed id"));
        assert!(Arc::ptr_eq(&s.parsed, &u.parsed) && Arc::ptr_eq(&s.ann, &u.ann), "{what}");
    }
    let mut live = 0;
    for (id, &n) in refs.iter().enumerate() {
        match uniques.get(id) {
            Some(u) => {
                live += 1;
                assert_eq!(u.count, n, "{what}: count of id {id}");
                assert_eq!(uniques.id_of(u.hash), Some(id), "{what}: lookup of id {id}");
            }
            None => assert_eq!(n, 0, "{what}: freed id {id} is referenced"),
        }
    }
    assert_eq!((uniques.len(), uniques.iter().count()), (live, live), "{what}");
}

/// The live `(hash, count)` multiset, sorted.
fn live_counts(ctx: &Context) -> Vec<(u128, usize)> {
    let mut v: Vec<(u128, usize)> = ctx.uniques.iter().map(|(_, u)| (u.hash, u.count)).collect();
    v.sort_unstable();
    v
}

/// Every live text's source hashes to its key and equals the reference
/// context's text under the same content hash, the live texts are
/// exactly the reference's, and the table's tree count is the one the
/// stats report.
fn assert_fingerprints(w: &WorkloadOutcome, script: &str, opts: &FrontendOptions, what: &str) {
    let ctx = &w.outcome.context;
    let oracle = reference::context(script, opts);
    let by_hash: HashMap<u128, &str> =
        oracle.uniques.iter().map(|(_, u)| (u.hash, &*u.source)).collect();
    for (id, u) in ctx.uniques.iter().filter(|(_, u)| u.count > 0) {
        let want = by_hash.get(&u.hash).unwrap_or_else(|| panic!("{what}: id {id} not in oracle"));
        assert_eq!(&*u.source, *want, "{what}: source of id {id}");
        assert_eq!(content_hash_bytes(u.source.as_bytes()), u.hash, "{what}: key of id {id}");
    }
    assert_eq!(live_counts(ctx), live_counts(&oracle), "{what}: live texts");
    assert_eq!(ctx.uniques.trees(), w.stats.parsed_trees, "{what}: parsed trees");
}

fn check_against_cold(w: &WorkloadOutcome, script: &str, what: &str) {
    let ctx = &w.outcome.context;
    assert_consistent(ctx, what);
    assert_fingerprints(w, script, &FrontendOptions::default(), what);
    let cold = SqlCheck::new().check_workload(script, &FrontendOptions::default());
    assert_consistent(&cold.outcome.context, what);
    assert_eq!(live_counts(ctx), live_counts(&cold.outcome.context), "{what}");
    // A shape's eligibility to share a tree depends only on its tokens,
    // so the same live texts hold the same number of trees however the
    // edits reached them.
    assert_eq!(
        (w.stats.unique_texts, w.stats.parsed_trees),
        (cold.stats.unique_texts, cold.stats.parsed_trees),
        "{what}"
    );
}

#[test]
fn table_matches_statements_and_cold_checks_through_edit_rounds() {
    let original = seed_script();
    let original_texts: Vec<&str> = original.lines().map(|l| l.trim_end_matches(';')).collect();
    let ddl = [
        "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), age INT, bio TEXT)",
        "CREATE TABLE orders (id INT PRIMARY KEY, user_id INT, total DECIMAL(10, 2))",
    ];
    for seed in [3u64, 5, 9] {
        let mut session = SqlCheck::new().into_session(original.clone(), FrontendOptions::default());
        let n = session.outcome().stats.statements;
        let mut rng = Rng(0x7AB1E ^ seed << 8);
        for round in 0..12 {
            // Every third round edits a DDL statement.
            let mut idx: Vec<usize> = if round % 3 == 0 { vec![round / 3 % DDL] } else { vec![] };
            while idx.len() < 1 + rng.below(4) {
                let i = rng.below(n);
                if !idx.contains(&i) {
                    idx.push(i);
                }
            }
            let edits: Vec<Edit> = idx
                .iter()
                .map(|&i| {
                    let text = match (i < DDL, rng.below(3)) {
                        (true, 0) => ddl[i].to_string(),
                        (_, 1) => format!("SELECT age FROM users WHERE id = {}", 900 + round),
                        _ => original_texts[DDL + rng.below(n - DDL)].to_string(),
                    };
                    Edit::new(i, text)
                })
                .collect();
            session.recheck(&edits);
            let what = format!("seed={seed} round={round}");
            check_against_cold(session.outcome(), session.script(), &what);
        }
        // DDL edits included, every round patches in place.
        let patched = session.rechecks() - session.fallbacks() - session.cold_reverts();
        assert_eq!(patched, 12, "seed={seed}");
    }
}

/// A random script of statements that share a query in many spellings:
/// literal and literal-list variants, keyword and identifier case, trivia,
/// quoted identifiers that read `;`, `?` or `,`, and dialect-specific
/// lexing (`#` comments, backticks, brackets, dollar quotes, compound
/// bodies, `DELIMITER` sections).
fn random_script(rng: &mut Rng) -> String {
    const SHAPES: &[&str] = &[
        "SELECT name FROM users WHERE id = {n}",
        "select NAME from Users where ID = {n} ;",
        "SELECT * FROM t WHERE a IN ({n}, {n}, 'x{n}')",
        "SELECT * FROM t WHERE a IN ({n})",
        "SELECT a /* {n} ; */ , b FROM t -- tail {n}\n",
        "SELECT \";\", \"?\" , {n} FROM t",
        "SELECT a \";\"",
        "SELECT `b{n}` FROM `t`",
        "SELECT [c{n}] FROM \"T\"",
        "# hash {n}\nSELECT {n}",
        "INSERT INTO t VALUES ($tag$v;{n}$tag$, ${n}, :p, ?)",
        "UPDATE t SET a = e'x;{n}' WHERE b = {n}",
        "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW \
         BEGIN UPDATE u SET a = {n}; DELETE FROM v; END",
        "DELIMITER ;;\nSELECT {n}; SELECT 2 ;;\nDELIMITER ;\n",
        "CREATE TABLE t{n} (id INT PRIMARY KEY, name VARCHAR(64))",
    ];
    let mut script = String::new();
    for _ in 0..1 + rng.below(24) {
        let shape = SHAPES[rng.below(SHAPES.len())];
        script.push_str(&shape.replace("{n}", &rng.below(4).to_string()));
        script.push_str(if rng.below(4) == 0 { ";\n" } else { "; " });
    }
    script
}

/// The table's keys — the content hash that dedups texts — match the
/// reference's on every live text under every dialect.
#[test]
fn fingerprints_match_the_reference_on_random_scripts_under_every_dialect() {
    let mut rng = Rng(0xF1_6E12);
    for case in 0..96 {
        let script = random_script(&mut rng);
        for dialect in Dialect::ALL {
            let opts = FrontendOptions { dialect, ..FrontendOptions::default() };
            let w = SqlCheck::new().check_workload(&script, &opts);
            let what = format!("case {case} {dialect}: {script:?}");
            assert_consistent(&w.outcome.context, &what);
            assert_fingerprints(&w, &script, &opts, &what);
        }
    }
}

#[test]
fn clean_texts_share_one_empty_diagnostics_slice() {
    let script =
        "SELECT a FROM t; SELECT b FROM u WHERE b = 1; EXPLAIN SELECT 1; INSERT INTO t VALUES (2);";
    let w = SqlCheck::new().check_workload(script, &FrontendOptions::default());
    let uniques = &w.outcome.context.uniques;
    let (clean, degraded): (Vec<_>, Vec<_>) =
        uniques.iter().map(|(_, u)| &u.diags).partition(|d| d.is_empty());
    assert_eq!((clean.len(), degraded.len()), (3, 1));
    assert!(clean.windows(2).all(|p| Arc::ptr_eq(p[0], p[1])), "clean texts share one slice");
    assert!(!Arc::ptr_eq(clean[0], degraded[0]));
}

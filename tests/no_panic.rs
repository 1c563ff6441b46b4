//! **No-panic property suite** — the degradation contract under fire.
//!
//! The pipeline's robustness claims are behavioural, not structural:
//! *any* byte sequence flows through split → parse → detect → rank → fix
//! without a panic, degradation is always *reported* (never silent), and
//! the diagnostics a run emits are deterministic — repeatable and
//! independent of cache state. These properties run over
//! deterministically generated random cases (the build environment has
//! no `proptest`; same seeds, same cases, every run).

use sqlcheck::{
    BatchOptions, CheckOutcome, CustomRule, Detection, DiagKind, SqlCheck, WorkloadOutcome,
};
use sqlcheck_minidb::stats::SmallRng;

const CASES: usize = 64;

/// Raw arbitrary bytes, decoded lossily the way a CLI `--file` read is.
fn arbitrary_bytes(rng: &mut SmallRng, max_len: usize) -> String {
    let len = rng.gen_range(max_len + 1);
    let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// SQL-shaped text with multibyte characters mixed in, so truncation can
/// land mid-codepoint.
fn multibyte_sqlish(rng: &mut SmallRng) -> String {
    let mut s = String::new();
    for _ in 0..(1 + rng.gen_range(6)) {
        s.push_str(match rng.gen_range(5) {
            0 => "SELECT * FROM café WHERE name = '中文值';\n",
            1 => "INSERT INTO tbl (a, é) VALUES (1, 'naïve');\n",
            2 => "CREATE TABLE 表 (id INT, note TEXT);\n",
            3 => "UPDATE t SET c = 'Ω≈ç√∫' WHERE id = 3;\n",
            _ => "DELIMITER $$\nCREATE TRIGGER trg BEFORE INSERT ON t\nBEGIN SELECT 1; END$$\nDELIMITER ;\n",
        });
    }
    s
}

/// The deterministic fingerprint of a run's observable degradation state:
/// every diagnostic (kind, detail, statement attribution) in order, plus
/// the detection list. Equal fingerprints mean equal user-visible output.
fn fingerprint(outcome: &CheckOutcome) -> String {
    let mut s = String::new();
    for d in &outcome.diagnostics {
        s.push_str(&format!("{:?}|{}|{:?};", d.kind, d.detail, d.statement));
    }
    s.push('#');
    for r in outcome.ranked() {
        s.push_str(&format!("{:?};", r.detection));
    }
    s
}

fn workload_fingerprint(w: &WorkloadOutcome) -> String {
    format!(
        "{}#deg:{}/{}#cov:{:.6}#diag:{:?}#fail:{}",
        fingerprint(&w.outcome),
        w.stats.degraded_statements,
        w.stats.degraded_uniques,
        w.stats.parse_coverage(),
        w.stats.diag_counts,
        w.stats.rule_failures,
    )
}

/// Arbitrary bytes through both entry points, with and without an
/// incremental cache: no panics, and the degradation fingerprint is
/// identical across all configurations.
#[test]
fn arbitrary_bytes_are_total_and_deterministic() {
    let mut rng = SmallRng::new(0x0B5E55);
    for case in 0..CASES {
        let input = arbitrary_bytes(&mut rng, 600);
        let opts = BatchOptions::default();
        let baseline = SqlCheck::new().check_workload(&input, &opts);
        let base_fp = workload_fingerprint(&baseline);
        let cached_tool = SqlCheck::new().with_cache(256);
        let cold = cached_tool.check_workload(&input, &opts);
        let warm = cached_tool.check_workload(&input, &opts);
        assert_eq!(workload_fingerprint(&cold), base_fp, "case {case}: cold cached run");
        assert_eq!(workload_fingerprint(&warm), base_fp, "case {case}: warm cached run");
        let script_fp = fingerprint(&SqlCheck::new().check_script(&input));
        assert_eq!(
            fingerprint(&SqlCheck::new().check_script(&input)),
            script_fp,
            "case {case}: check_script non-deterministic"
        );
    }
}

/// UTF-8 truncated at arbitrary byte offsets (then decoded lossily, as
/// any byte-oriented reader would) never panics and never loses the
/// DELIMITER-fallback diagnostic non-deterministically.
#[test]
fn truncated_utf8_is_total() {
    let mut rng = SmallRng::new(0x7A47C);
    for case in 0..CASES {
        let full = multibyte_sqlish(&mut rng);
        let cut = rng.gen_range(full.len() + 1);
        let input = String::from_utf8_lossy(&full.as_bytes()[..cut]).into_owned();
        let first = SqlCheck::new().check_workload(&input, &BatchOptions::default());
        let second = SqlCheck::new().check_workload(&input, &BatchOptions::default());
        assert_eq!(
            workload_fingerprint(&first),
            workload_fingerprint(&second),
            "case {case} (cut at byte {cut})"
        );
    }
}

/// The arena parser itself — below the batch pipeline — is total on
/// arbitrary and multibyte input: parse, annotate over the arena, and
/// render, all without panicking; and parsing the same bytes twice
/// produces structurally identical output (the thread-local arena
/// handoff leaks nothing between statements).
#[test]
fn arena_parser_is_total_and_deterministic() {
    let mut rng = SmallRng::new(0xA12E4A);
    for case in 0..CASES {
        let input = if case % 2 == 0 {
            arbitrary_bytes(&mut rng, 400)
        } else {
            multibyte_sqlish(&mut rng)
        };
        let a = sqlcheck_parser::parse_one(&input);
        let ann = sqlcheck_parser::annotate(&a.stmt, &a.arena);
        let rendered = a.to_sql();
        let b = sqlcheck_parser::parse_one(&input);
        assert_eq!(
            format!("{:?}", a.stmt),
            format!("{:?}", b.stmt),
            "case {case}: non-deterministic parse"
        );
        assert_eq!(a.arena.len(), b.arena.len(), "case {case}: arena size diverged");
        assert_eq!(rendered, b.to_sql(), "case {case}: non-deterministic render");
        std::hint::black_box(ann);
    }
}

/// Pathological nesting (10k parens, deep BEGIN towers) completes in
/// bounded time through the full pipeline and reports its own
/// degradation instead of blowing the stack.
#[test]
fn pathological_nesting_is_bounded_and_reported() {
    let deep_parens =
        format!("SELECT {}1{};", "(".repeat(10_000), ")".repeat(10_000));
    let outcome = SqlCheck::new().check_script(&deep_parens);
    let kinds: Vec<DiagKind> = outcome.diagnostics.iter().map(|d| d.kind).collect();
    assert!(kinds.contains(&DiagKind::OverLimit), "{kinds:?}");

    let mut towers = String::new();
    for _ in 0..200 {
        towers.push_str("BEGIN ");
    }
    towers.push_str("SELECT 1;");
    for _ in 0..200 {
        towers.push_str(" END;");
    }
    let w = SqlCheck::new().check_workload(&towers, &BatchOptions::default());
    assert!(
        w.stats.diag_counts[DiagKind::OverLimit.index()] > 0
            || w.stats.diag_counts[DiagKind::ParseDegraded.index()] > 0
            || w.stats.diag_counts[DiagKind::UnterminatedBlock.index()] > 0,
        "deep block tower degraded silently: {:?}",
        w.stats.diag_counts
    );
}

/// A custom rule that panics on every call — the fault-injection probe.
struct FaultyRule;

impl CustomRule for FaultyRule {
    fn name(&self) -> &str {
        "fault-injection-rule"
    }

    fn detect(&self, _ctx: &sqlcheck::Context) -> Vec<Detection> {
        panic!("injected fault: this rule always panics");
    }
}

/// Fault injection: a panicking registered rule is isolated — the run
/// completes, a `RuleFailed` diagnostic names the rule, and everything
/// else (detections, ranking, parse diagnostics) is byte-identical to a
/// run without the faulty rule.
#[test]
fn faulty_rule_is_isolated_everywhere() {
    let mut rng = SmallRng::new(0xFA017);
    for case in 0..16 {
        let n = 5 + rng.gen_range(20);
        let mut script = String::from("CREATE TABLE t (a INT, b TEXT);\n");
        for i in 0..n {
            script.push_str(&format!("SELECT * FROM t WHERE a = {i};\n"));
        }
        let opts = BatchOptions::default();
        let clean = SqlCheck::new().check_workload(&script, &opts);
        let faulty = SqlCheck::new().with_rule(Box::new(FaultyRule)).check_workload(&script, &opts);
        let clean_dets: Vec<String> =
            clean.outcome.ranked().iter().map(|r| format!("{:?}", r.detection)).collect();
        let faulty_dets: Vec<String> =
            faulty.outcome.ranked().iter().map(|r| format!("{:?}", r.detection)).collect();
        assert_eq!(clean_dets, faulty_dets, "case {case}");
        assert!(
            faulty.outcome.diagnostics.iter().any(|d| d.kind == DiagKind::RuleFailed
                && d.detail.contains("fault-injection-rule")),
            "case {case}: no RuleFailed naming the rule: {:?}",
            faulty.outcome.diagnostics
        );
        assert!(faulty.stats.rule_failures >= 1, "case {case}");
        assert_eq!(clean.stats.rule_failures, 0, "case {case}");
        // Same isolation through the plain script entry point.
        let clean = SqlCheck::new().check_script(&script);
        let faulty = SqlCheck::new().with_rule(Box::new(FaultyRule)).check_script(&script);
        let ka: Vec<String> =
            clean.ranked().iter().map(|r| format!("{:?}", r.detection)).collect();
        let kb: Vec<String> =
            faulty.ranked().iter().map(|r| format!("{:?}", r.detection)).collect();
        assert_eq!(ka, kb, "case {case}: check_script detections");
        assert!(faulty
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagKind::RuleFailed && d.detail.contains("fault-injection-rule")));
    }
}

/// A panicking rule does not poison the shared incremental cache: a
/// faulty run followed by a clean run on the same tool still produces
/// the clean baseline output.
#[test]
fn faulty_rule_does_not_poison_the_cache() {
    let script = "CREATE TABLE t (a INT);\nSELECT * FROM t;\nSELECT a FROM t WHERE a = 1;\n";
    let baseline = SqlCheck::new().check_workload(script, &BatchOptions::default());
    let cached = SqlCheck::new().with_cache(256).with_rule(Box::new(FaultyRule));
    let _ = cached.check_workload(script, &BatchOptions::default());
    let again = cached.check_workload(script, &BatchOptions::default());
    let base: Vec<String> =
        baseline.outcome.ranked().iter().map(|r| format!("{:?}", r.detection)).collect();
    let warm: Vec<String> =
        again.outcome.ranked().iter().map(|r| format!("{:?}", r.detection)).collect();
    assert_eq!(base, warm, "warm faulty-tool run lost or duplicated detections");
}

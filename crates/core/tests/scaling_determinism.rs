//! Property tests: skewed inputs and retained session state must be
//! invisible in the output.
//!
//! * batch detection, run and re-run, stays **byte-identical** to the
//!   sequential reference on skewed inputs — one giant compound statement
//!   among many cheap hot-template occurrences;
//! * one session carried through a warm edit and its revert and a DDL
//!   edit, and a session under a switched config, keep every output equal
//!   to the reference, and the DDL edit re-emits only what it changed.
//!
//! The build environment has no access to the `proptest` crate, so the
//! properties run over deterministically generated random scripts: same
//! seeds, same cases, every run.

use sqlcheck::detect::reference;
use sqlcheck::{ContextBuilder, Detector, Edit, FrontendOptions, SqlCheck};
use sqlcheck_minidb::stats::SmallRng;

/// A skewed script: ~90% of statements instantiate one hot template with
/// a fresh literal each (many cheap unique texts of one query),
/// one statement is a giant `BEGIN…END` body (`sub_stmts` sub-statements
/// — a single expensive intra unit), and the rest draw from a small
/// varied pool. DDL up front so contextual rules have a catalog.
fn skewed_script(rng: &mut SmallRng, statements: usize, sub_stmts: usize) -> String {
    let mut script = String::from(
        "CREATE TABLE hot (id INT PRIMARY KEY, v TEXT);\n\
         CREATE TABLE side (a INT, b FLOAT);\n",
    );
    let giant_at = 1 + rng.gen_range(statements.max(2) - 1);
    for i in 0..statements {
        if i == giant_at {
            script.push_str("CREATE PROCEDURE big_sweep() BEGIN ");
            for k in 0..sub_stmts {
                script.push_str(&format!(
                    "UPDATE side SET a = a + {k} WHERE b LIKE '%m{k}%'; "
                ));
            }
            script.push_str("END;\n");
        } else if rng.gen_range(10) < 9 {
            script.push_str(&format!("SELECT id, v FROM hot WHERE id = {i};\n"));
        } else {
            match rng.gen_range(3) {
                0 => script.push_str(&format!("SELECT * FROM side WHERE a = {i};\n")),
                1 => script.push_str(&format!("INSERT INTO side VALUES ({i}, 1.5);\n")),
                _ => script.push_str("SELECT * FROM hot ORDER BY RANDOM();\n"),
            }
        }
    }
    script
}

fn detections_debug(r: &sqlcheck::Report) -> Vec<String> {
    r.detections.iter().map(|d| format!("{d:?}")).collect()
}

/// Cold sequential reference: per-occurrence reference context +
/// per-statement detection.
fn cold_reference(det: &Detector, script: &str) -> Vec<String> {
    let ctx = reference::context(script, &FrontendOptions::default());
    detections_debug(&reference::detect(&ctx, &det.cfg))
}

/// On skewed inputs, batch output is byte-identical to sequential — on
/// the first run and on a repeated one.
#[test]
fn skewed_batch_identical_to_sequential() {
    let mut rng = SmallRng::new(0x5CA1E);
    for case in 0..8 {
        let statements = 30 + rng.gen_range(90);
        let sub_stmts = 40 + rng.gen_range(120);
        let script = skewed_script(&mut rng, statements, sub_stmts);
        let det = Detector::default();
        let reference = cold_reference(&det, &script);
        let ctx = ContextBuilder::new().add_script(&script).build();
        for round in 0..2 {
            assert_eq!(
                reference,
                detections_debug(&det.detect_batch(&ctx).report),
                "case {case} round {round}: skewed batch must equal sequential"
            );
        }
    }
}

/// The giant statement really is one expensive unit and the hot template
/// really dominates — otherwise the property above passes vacuously.
#[test]
fn skewed_script_is_actually_skewed() {
    let mut rng = SmallRng::new(0xFACE);
    let script = skewed_script(&mut rng, 120, 150);
    let ctx = ContextBuilder::new().add_script(&script).build();
    let longest =
        ctx.statements.iter().map(|s| s.span.end - s.span.start).max().unwrap_or(0);
    assert!(longest > 4_000, "giant unit present ({longest} bytes)");
    let b = Detector::default().detect_batch(&ctx);
    assert!(
        b.stats.unique_texts > 60,
        "hot template must contribute many distinct texts, got {}",
        b.stats.unique_texts
    );
}

/// One session through its cold build, a warm edit and its revert, and a
/// DDL edit, plus a session under a switched config: every output equals
/// the reference, nothing rebuilds, and the DDL edit re-emits only the
/// statements whose detections it changed.
#[test]
fn session_sequence_matches_reference_through_ddl_and_config_switch() {
    let mut rng = SmallRng::new(0x54A2D);
    let statements = 80 + rng.gen_range(60);
    let script = skewed_script(&mut rng, statements, 60);
    let edited = script.replace(
        "CREATE TABLE side (a INT, b FLOAT);",
        "CREATE TABLE side (a INT, b FLOAT, c INT);",
    );
    assert_ne!(script, edited);

    let det = Detector::default();
    let opts = FrontendOptions::default();
    let output = |o: &sqlcheck::WorkloadOutcome| detections_debug(&o.outcome.report);
    let mut session = SqlCheck::new().into_session(script.clone(), opts.clone());
    assert_eq!(output(session.outcome()), cold_reference(&det, &script));
    let cold_output = output(session.outcome());

    // A warm edit and its revert replay the cold output.
    let stmts = &session.outcome().outcome.context.statements;
    let at = |i: usize| script[stmts[i].span.start..stmts[i].span.end].to_string();
    let index = stmts.len() - 1;
    let original = at(index);
    session.recheck(&[Edit::new(index, "SELECT * FROM side WHERE a = 424242")]);
    session.recheck(&[Edit::new(index, original)]);
    assert_eq!(output(session.outcome()), cold_output, "the revert replays the cold output");

    // The DDL edit: statement 1 is `side`'s CREATE TABLE.
    session.recheck(&[Edit::new(1, "CREATE TABLE side (a INT, b FLOAT, c INT)")]);
    assert_eq!(session.script(), edited);
    assert_eq!(output(session.outcome()), cold_reference(&det, &edited));
    assert_eq!((session.fallbacks(), session.cold_reverts()), (0, 0));
    let dirty = session.outcome().stats.warm_dirty_statements;
    assert!(dirty < statements / 2, "the hot-table statements move, {dirty} re-emitted");

    let intra = Detector::new(sqlcheck::DetectionConfig::intra_only());
    let switched = SqlCheck::new().intra_only().into_session(edited.clone(), opts);
    assert_eq!(output(switched.outcome()), cold_reference(&intra, &edited));
}

//! Property tests: skewed inputs and the incremental cache must be
//! invisible in the output.
//!
//! * batch detection and cached re-checks stay **byte-identical** to the
//!   sequential reference on skewed inputs — one giant compound statement
//!   among many cheap hot-template occurrences;
//! * one cache carried through priming, a warm re-check, a DDL edit and
//!   a config switch keeps every output equal to the reference and
//!   evicts only what the edit can affect;
//! * many sessions sharing one cache concurrently stay correct.
//!
//! The build environment has no access to the `proptest` crate, so the
//! properties run over deterministically generated random scripts: same
//! seeds, same cases, every run.

use sqlcheck::detect::reference;
use sqlcheck::{ContextBuilder, Detector, FrontendOptions, IncrementalCache};
use sqlcheck_minidb::stats::SmallRng;

/// A skewed script: ~90% of statements instantiate one hot template with
/// a fresh literal each (many cheap unique texts under one fingerprint),
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

/// On skewed inputs, batch output is byte-identical to sequential — cold
/// and through a warm cache.
#[test]
fn skewed_batch_identical_to_sequential() {
    let mut rng = SmallRng::new(0x5CA1E);
    for case in 0..8 {
        let statements = 30 + rng.gen_range(90);
        let sub_stmts = 40 + rng.gen_range(120);
        let script = skewed_script(&mut rng, statements, sub_stmts);
        let det = Detector::default();
        let reference = cold_reference(&det, &script);
        let cache = IncrementalCache::new(4096);
        let ctx = ContextBuilder::new().add_script(&script).build();
        // Cold path (no cache).
        let cold = det.detect_batch(&ctx);
        assert_eq!(
            reference,
            detections_debug(&cold.report),
            "case {case}: skewed batch must equal sequential"
        );
        // Cached path: the first round populates, the second replays.
        for round in 0..2 {
            let cached = det.detect_batch_with(&ctx, Some(&cache));
            assert_eq!(
                reference,
                detections_debug(&cached.report),
                "case {case} round {round}: cached skewed batch must equal sequential"
            );
        }
        let c = cache.counters();
        assert!(c.hits > 0, "case {case}: the second round must hit");
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

/// One cache through priming, a warm re-check, a DDL edit (per-table
/// invalidation), and a config switch (epoch flush): every output equals
/// the reference and the counters show the warm hits and the DDL round's
/// targeted evictions.
#[test]
fn cache_sequence_matches_reference_through_ddl_and_config_switch() {
    let mut rng = SmallRng::new(0x54A2D);
    let statements = 80 + rng.gen_range(60);
    let script = skewed_script(&mut rng, statements, 60);
    let edited = script.replace(
        "CREATE TABLE side (a INT, b FLOAT);",
        "CREATE TABLE side (a INT, b FLOAT, c INT);",
    );
    assert_ne!(script, edited);

    let det = Detector::default();
    let intra = Detector::new(sqlcheck::DetectionConfig::intra_only());
    let cache = IncrementalCache::new(1 << 16);
    let mut outputs: Vec<Vec<String>> = Vec::new();
    let mut counter_trail = Vec::new();
    let rounds: [(&str, &Detector); 4] =
        [(&script, &det), (&script, &det), (&edited, &det), (&edited, &intra)];
    for (sql, d) in rounds {
        let ctx = ContextBuilder::new().add_script(sql).build();
        let b = d.detect_batch_with(&ctx, Some(&cache));
        outputs.push(detections_debug(&b.report));
        counter_trail.push((
            b.stats.incremental_hits,
            b.stats.incremental_misses,
            b.stats.incremental_evictions,
        ));
    }
    assert_eq!(outputs[0], cold_reference(&det, &script));
    assert_eq!(outputs[1], outputs[0], "the warm round replays the primed output");
    assert_eq!(outputs[2], cold_reference(&det, &edited));
    assert_eq!(outputs[3], cold_reference(&intra, &edited));
    // The warm round hit; the DDL round evicted `side` entries only.
    assert!(counter_trail[1].0 > 0, "warm round must hit");
    assert!(counter_trail[2].2 > 0, "DDL round must evict dependents");
    assert!(counter_trail[2].0 > 0, "DDL round must keep entries on unedited tables");
}

/// Concurrent sessions sharing one cache: every session's output stays
/// byte-identical to the sequential reference while all of them hit the
/// same entries, and counters account for every lookup.
#[test]
fn concurrent_sessions_share_one_cache_correctly() {
    let mut rng = SmallRng::new(0xC0C0);
    let script = skewed_script(&mut rng, 100, 50);
    let det = Detector::default();
    let reference = cold_reference(&det, &script);
    let cache = IncrementalCache::new(1 << 16);

    // Prime once so the concurrent phase is read-mostly.
    let ctx = ContextBuilder::new().add_script(&script).build();
    let _ = det.detect_batch_with(&ctx, Some(&cache));
    let warm_floor = cache.counters();

    std::thread::scope(|s| {
        for t in 0..4usize {
            let (cache, det, script, reference) = (&cache, &det, &script, &reference);
            s.spawn(move || {
                for round in 0..3 {
                    let ctx = ContextBuilder::new().add_script(script).build();
                    let b = det.detect_batch_with(&ctx, Some(cache));
                    assert_eq!(
                        reference,
                        &detections_debug(&b.report),
                        "session {t} round {round}: shared-cache output must stay identical"
                    );
                }
            });
        }
    });

    let c = cache.counters();
    assert_eq!(c.misses, warm_floor.misses, "fully warmed: no concurrent misses");
    assert_eq!(c.evictions, 0, "ample capacity, stable schema: no evictions");
    assert!(
        c.hits >= warm_floor.hits + 12,
        "all 12 session-rounds must hit the shared cache"
    );
}

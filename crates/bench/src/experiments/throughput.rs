//! **Workload generators** — the template-heavy statement streams the
//! `phases`, `split`, `incremental` (`e2e`), `fix-scaling` and
//! session-memory experiments run over.
//!
//! Real application logs contain millions of statements drawn from a few
//! hundred templates (§8 analyses thousands of repositories and Django
//! apps). Each shape here synthesizes such a workload deterministically
//! from a seed; [`script_for_shape`] names them.

use sqlcheck_minidb::stats::SmallRng;

/// Deterministically generate a workload of `statements` statements drawn
/// from `templates` unique statement shapes, shuffled. Each template is
/// instantiated with fixed literals, mirroring an application that
/// re-issues the same prepared statements throughout its log.
pub fn workload_script(statements: usize, templates: usize, seed: u64) -> String {
    // Each template gets its own table, so templates stay distinct
    // statements even to an analysis that ignores literal values (varying
    // only literals would collapse the pool onto eight query forms).
    let pool = workload_pool(templates);
    let mut rng = SmallRng::new(seed);
    let mut script = String::with_capacity(statements * 48);
    for _ in 0..statements {
        script.push_str(&pool[rng.gen_range(pool.len())]);
        script.push_str(";\n");
    }
    script
}

/// Deterministically generate a **trigger-heavy** workload: the plain
/// template pool of [`workload_script`] interleaved with compound
/// `CREATE TRIGGER … BEGIN … END` DDL (about one statement in six), the
/// shape of a real schema dump. Each trigger is ONE statement whose body
/// semicolons must survive splitting — the workload exercises the
/// splitter's block-depth state machine at scale and measures its
/// overhead against the plain shape.
pub fn trigger_workload_script(statements: usize, templates: usize, seed: u64) -> String {
    let mut pool: Vec<String> = Vec::with_capacity(templates);
    for k in 0..templates {
        pool.push(match k % 3 {
            0 => format!(
                "CREATE TRIGGER trg{k} AFTER INSERT ON app_t{k} FOR EACH ROW BEGIN \
                 UPDATE app_u{k} SET c0 = c0 + 1; \
                 DELETE FROM app_v{k} WHERE c0 = {k}; END"
            ),
            1 => format!(
                "CREATE TRIGGER chk{k} BEFORE UPDATE ON app_t{k} FOR EACH ROW BEGIN \
                 IF NEW.c0 > {k} THEN INSERT INTO app_log{k} VALUES ({k}); END IF; \
                 SELECT CASE WHEN NEW.c1 THEN 1 ELSE 0 END; END"
            ),
            _ => format!(
                "CREATE PROCEDURE proc{k}() BEGIN \
                 INSERT INTO app_log{k} VALUES ({k}, 'p'); \
                 UPDATE app_t{k} SET c1 = 'done' WHERE c0 = {k}; END"
            ),
        });
    }
    let trigger_pool = pool;
    let plain_pool = workload_pool(templates);
    let mut rng = SmallRng::new(seed);
    let mut script = String::with_capacity(statements * 72);
    for i in 0..statements {
        if i % 6 == 0 {
            script.push_str(&trigger_pool[rng.gen_range(trigger_pool.len())]);
        } else {
            script.push_str(&plain_pool[rng.gen_range(plain_pool.len())]);
        }
        script.push_str(";\n");
    }
    script
}

/// Deterministically generate a **skewed** workload — the unique-heavy
/// shape:
///
/// * ~90% of the statements instantiate **one hot template** with a
///   distinct literal each (distinct texts, so they are distinct intra
///   units — all cheap, all one query on one table);
/// * exactly one statement, placed mid-script, is a **giant trigger
///   body** (hundreds of `BEGIN…END` sub-statements) — a single intra
///   unit that costs orders of magnitude more than its neighbours;
/// * the rest draw from the plain template pool.
pub fn skewed_workload_script(statements: usize, templates: usize, seed: u64) -> String {
    let plain_pool = workload_pool(templates);
    let mut rng = SmallRng::new(seed);
    let giant_at = statements / 2;
    let mut script = String::with_capacity(statements * 56);
    for i in 0..statements {
        if i == giant_at && statements > 0 {
            // One giant compound statement: ~400 body sub-statements.
            script.push_str("CREATE PROCEDURE giant_migration() BEGIN ");
            for k in 0..400 {
                script.push_str(&format!(
                    "UPDATE app_t{} SET c0 = c0 + {k} WHERE c1 LIKE '%m{k}%'; ",
                    k % 97
                ));
            }
            script.push_str("END");
        } else if rng.gen_range(10) < 9 {
            // The hot template: same shape, fresh literal per occurrence.
            script.push_str(&format!("SELECT c0, c1 FROM app_hot WHERE c0 = {i}"));
        } else {
            script.push_str(&plain_pool[rng.gen_range(plain_pool.len())]);
        }
        script.push_str(";\n");
    }
    script
}

/// The script for one named workload shape (`plain`, `trigger`, or
/// `skewed`) — the tag every bench row carries.
pub fn script_for_shape(
    workload: &str,
    statements: usize,
    templates: usize,
    seed: u64,
) -> String {
    match workload {
        "plain" => workload_script(statements, templates, seed),
        "trigger" => trigger_workload_script(statements, templates, seed),
        "skewed" => skewed_workload_script(statements, templates, seed),
        other => {
            panic!("unknown workload shape {other:?} (use \"plain\", \"trigger\", or \"skewed\")")
        }
    }
}

/// The plain statement pool of [`workload_script`], reusable by other
/// workload shapes.
fn workload_pool(templates: usize) -> Vec<String> {
    let mut pool: Vec<String> = Vec::with_capacity(templates);
    for k in 0..templates {
        let t = k;
        pool.push(match k % 8 {
            0 => format!("SELECT * FROM app_t{t} WHERE c0 = {k}"),
            1 => format!("SELECT c0, c1 FROM app_t{t} WHERE c1 LIKE '%v{k}%'"),
            2 => format!("INSERT INTO app_t{t} VALUES ({k}, 'x{k}')"),
            3 => format!("UPDATE app_t{t} SET c0 = {k} WHERE c1 = 'u{k}'"),
            4 => format!("SELECT c0 FROM app_t{t} WHERE c0 IN ({k}, {}, {})", k + 1, k + 2),
            5 => format!(
                "SELECT DISTINCT a.c0 FROM app_t{t} a JOIN app_u{t} b ON a.c0 = b.c1 \
                 WHERE b.c0 > {k}"
            ),
            6 => format!("SELECT * FROM app_t{t} ORDER BY RANDOM() LIMIT {}", k + 1),
            _ => format!("DELETE FROM app_t{t} WHERE c0 = {k}"),
        });
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_has_requested_shape() {
        let script = workload_script(500, 100, 7);
        let parsed = sqlcheck_parser::parse(&script);
        assert_eq!(parsed.len(), 500);
        // Each template is one fixed text.
        let texts: std::collections::HashSet<&str> =
            parsed.iter().map(|p| p.source.as_ref()).collect();
        assert!(texts.len() <= 100, "at most 100 templates, got {}", texts.len());
        assert!(texts.len() > 50, "workload should draw from most templates");
    }

    #[test]
    fn outputs_identical_at_small_scale() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = super::super::phases::run_one("plain", 300, 50, 42);
        assert!(r.identical, "batch output must match the reference detector");
        assert!(r.detections > 0);
    }

    #[test]
    fn skewed_workload_has_hot_template_and_one_giant_statement() {
        let script = skewed_workload_script(600, 40, 0x5EED);
        let parsed = sqlcheck_parser::parse(&script);
        assert_eq!(parsed.len(), 600, "giant trigger body must stay one statement");
        // The hot template dominates: it covers ~90% of the statements.
        let hot = "SELECT c0, c1 FROM app_hot WHERE c0 = ";
        let hottest = parsed.iter().filter(|p| p.source.starts_with(hot)).count();
        assert!(hottest > 500, "hot template should cover ~90%, got {hottest}/600");
        // And the giant statement dwarfs the median.
        let giant = script.lines().map(str::len).max().unwrap();
        assert!(giant > 10_000, "giant statement present ({giant} bytes)");
    }

    #[test]
    fn skewed_outputs_identical_at_small_scale() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = super::super::phases::run_one("skewed", 300, 30, 7);
        assert!(r.identical, "skewed batch output must match the reference detector");
        assert!(r.detections > 0);
        assert_eq!(r.workload, "skewed");
    }
}

//! End-to-end tests of the `sqlcheck` binary: exit codes, stdin input,
//! command-line validation, agreement of the default listing with the
//! batch-engine listings (`--stats`, `--cache`) and with `--no-fix`, the
//! `--stats` peak-memory line, and output write errors.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const CLEAN: &str = "CREATE TABLE accounts (account_id INT PRIMARY KEY, name TEXT NOT NULL);\n\
                     SELECT name FROM accounts WHERE account_id = 1;\n";

/// Duplicate texts and a trigger body, so the listing exercises fan-out,
/// per-occurrence spans, body detections, rewrites and advice.
const FIXTURE: &str = "CREATE TABLE users (id INT, name TEXT, tags TEXT, price FLOAT);\n\
                       CREATE TABLE orders (order_id INT PRIMARY KEY, user_id INT);\n\
                       INSERT INTO users VALUES (1, 'a', 't1,t2', 1.5);\n\
                       SELECT * FROM users WHERE name LIKE '%a%';\n\
                       SELECT * FROM users WHERE name LIKE '%a%';\n\
                       SELECT u.name FROM users u JOIN orders o ON u.id = o.user_id;\n\
                       SELECT name FROM users ORDER BY RAND();\n\
                       CREATE TRIGGER trg AFTER INSERT ON orders FOR EACH ROW BEGIN \
                       INSERT INTO users VALUES (2, 'b', 't3', 2.5); END;\n\
                       SELECT * FROM users WHERE name LIKE '%a%';\n";

/// Schema fixes with impacted queries: an Enumerated Types CHECK and a
/// Multi-Valued Attribute id list, each referenced by later queries.
const SCHEMA_FIXTURE: &str = "CREATE TABLE Tenants (Tenant_ID TEXT PRIMARY KEY, User_IDs TEXT, \
                              Role VARCHAR(5), CHECK (Role IN ('R1','R2')));\n\
                              SELECT * FROM Tenants WHERE User_IDs LIKE '[[:<:]]U1[[:>:]]';\n\
                              SELECT Tenant_ID FROM Tenants WHERE Role = 'R1';\n\
                              UPDATE Tenants SET Role = 'R2' WHERE Tenant_ID = 'T1';\n";

fn sqlcheck(args: &[&str], stdin: Option<&str>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sqlcheck"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sqlcheck");
    let mut pipe = child.stdin.take().expect("stdin is piped");
    // A usage error exits before reading stdin, so the pipe may be closed.
    if let Err(e) = pipe.write_all(stdin.unwrap_or("").as_bytes()) {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write stdin: {e}");
    }
    drop(pipe);
    child.wait_with_output().expect("wait for sqlcheck")
}

/// Write `sql` to a file only this test uses (tests run in parallel).
fn fixture_file(name: &str, sql: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sqlcheck-cli-{}-{name}.sql", std::process::id()));
    std::fs::write(&path, sql).expect("write fixture");
    path
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exited normally")
}

#[test]
fn clean_input_exits_0() {
    let out = sqlcheck(&["-"], Some(CLEAN));
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("no anti-patterns detected"));
}

#[test]
fn findings_exit_1_and_stdin_is_read_with_or_without_dash() {
    let sql = "INSERT INTO Users VALUES (1, 'foo')";
    let dash = sqlcheck(&["-"], Some(sql));
    let bare = sqlcheck(&[], Some(sql));
    assert_eq!(code(&dash), 1);
    assert!(String::from_utf8_lossy(&dash.stdout).contains("Implicit Columns"));
    assert_eq!(dash.stdout, bare.stdout);
}

#[test]
fn usage_errors_exit_2() {
    for (args, needle) in [
        (&["--dialect", "oracle", "-"][..], "unknown dialect 'oracle'"),
        (&["--parralel", "-"][..], "unknown flag '--parralel'"),
        (&["-", "--threads", "2"][..], "unknown flag '--threads'"),
        (&["--parallel", "-"][..], "unknown flag '--parallel'"),
        (&["--cache", "-"][..], "unknown flag '--cache'"),
        (&["--weights"][..], "--weights expects a value"),
        (&["a.sql", "b.sql"][..], "unexpected argument 'b.sql'"),
    ] {
        let out = sqlcheck(args, Some(CLEAN));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing is checked");
    }
    let flag_error = sqlcheck(&["--parralel"], None);
    assert!(String::from_utf8_lossy(&flag_error.stderr).contains("usage: sqlcheck"));
}

#[test]
fn unknown_flag_values_exit_2_with_usage() {
    for (args, needle) in [
        (&["--weights", "c3", "-"][..], "unknown weights 'c3'"),
        (&["--rank-by", "foo", "-"][..], "unknown ranking model 'foo'"),
        (&["--dialect", "oracle", "-"][..], "unknown dialect 'oracle'"),
        (&["--weights", "c2", "--rank-by", "score", "-"][..], "unknown ranking model 'score'"),
    ] {
        let out = sqlcheck(args, Some(CLEAN));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing is checked");
        let lines: Vec<&str> = err.lines().collect();
        assert_eq!(lines.len(), 2, "{args:?}: one message line plus usage: {err}");
        assert!(lines[0].starts_with("sqlcheck: "), "{args:?}: {err}");
        assert!(lines[0].contains(needle), "{args:?}: {err}");
        assert!(lines[1].starts_with("usage: sqlcheck"), "{args:?}: {err}");
    }
    // The known values still run the check.
    for args in [&["--weights", "C2", "-"][..], &["--rank-by", "count", "-"][..]] {
        let out = sqlcheck(args, Some("INSERT INTO Users VALUES (1, 'foo')"));
        assert_eq!(code(&out), 1, "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn unreadable_file_exits_2() {
    let missing = std::env::temp_dir().join("sqlcheck-cli-does-not-exist.sql");
    let out = sqlcheck(&[missing.to_str().expect("utf-8 path")], None);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn degraded_input_exits_3_under_fail_on_degraded() {
    let deep = format!("SELECT {}1{} FROM t", "(".repeat(300), ")".repeat(300));
    for sql in ["GRANT ALL ON t TO alice", deep.as_str()] {
        assert_ne!(code(&sqlcheck(&["-"], Some(sql))), 3);
        let out = sqlcheck(&["--fail-on-degraded", "-"], Some(sql));
        assert_eq!(code(&out), 3, "{}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn default_listing_matches_the_stats_listing() {
    let path = fixture_file("listing", FIXTURE);
    let file = path.to_str().expect("utf-8 path");
    let default = sqlcheck(&[file], None);
    assert_eq!(code(&default), 1);
    assert!(default.stderr.is_empty(), "{}", String::from_utf8_lossy(&default.stderr));
    let stats = sqlcheck(&["--stats", file], None);
    assert_eq!(code(&stats), 1);
    assert!(default.stdout == stats.stdout, "--stats: listing differs from the default path");
    let err = String::from_utf8_lossy(&stats.stderr);
    assert!(err.contains("stats: parse coverage"), "{err}");
    assert!(!err.contains("thread"), "{err}");
    // The timing lines name every phase, and the detect phases account
    // for no more than the detect total.
    let front = timings(&err, "stats: front-end ");
    let names: Vec<&str> = front.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["split", "intake", "materialize", "parse", "annotate", "context"], "{err}");
    let detect = timings(&err, "stats: detect ");
    let names: Vec<&str> = detect.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["group", "intra", "fanout", "inter", "data", "dedup", "total"], "{err}");
    let (total, phases) = detect.split_last().expect("a detect total");
    assert!(phases.iter().map(|(_, us)| us).sum::<u128>() <= total.1, "{err}");
    std::fs::remove_file(&path).expect("remove fixture");
}

#[test]
fn stats_ends_with_the_peak_memory_line() {
    let path = fixture_file("peak", FIXTURE);
    let file = path.to_str().expect("utf-8 path");
    let readable = sqlcheck::vm_hwm_kb().is_some();
    for flags in [&[][..], &["--summary"][..], &["--no-fix"][..]] {
        let args: Vec<&str> = flags.iter().copied().chain([file]).collect();
        let without = sqlcheck(&args, None);
        let with = sqlcheck(&[&["--stats"][..], &args].concat(), None);
        assert_eq!((code(&without), code(&with)), (1, 1), "{flags:?}");
        assert!(without.stdout == with.stdout, "{flags:?}: --stats changed stdout");
        assert!(!String::from_utf8_lossy(&without.stderr).contains("peak rss"), "{flags:?}");
        let err = String::from_utf8_lossy(&with.stderr);
        let peaks: Vec<&str> =
            err.lines().filter_map(|l| l.strip_prefix("stats: peak rss ")).collect();
        if !readable {
            assert!(peaks.is_empty(), "{flags:?}: {err}");
            continue;
        }
        // One line, the last on stderr.
        assert_eq!(peaks.len(), 1, "{flags:?}: {err}");
        assert!(err.lines().last().is_some_and(|l| l.starts_with("stats: peak rss ")), "{err}");
        let mb: f64 = peaks[0].strip_suffix(" MB").expect("an MB value").parse().unwrap();
        assert!(mb > 0.0, "{err}");
    }
    std::fs::remove_file(&path).expect("remove fixture");
}

/// The `name Nus` pairs of the `--stats` line starting with `prefix`.
fn timings(stderr: &str, prefix: &str) -> Vec<(String, u128)> {
    let line = stderr.lines().find_map(|l| l.strip_prefix(prefix)).expect("the stats line");
    line.split(", ")
        .map(|pair| {
            let (name, us) = pair.rsplit_once(' ').expect("a `name Nus` pair");
            (name.to_string(), us.strip_suffix("us").expect("a micros value").parse().unwrap())
        })
        .collect()
}

#[test]
fn no_fix_listing_is_the_default_listing_without_fix_lines() {
    for (name, sql) in [("nofix", FIXTURE), ("nofix-schema", SCHEMA_FIXTURE)] {
        let path = fixture_file(name, sql);
        let file = path.to_str().expect("utf-8 path");
        let default = sqlcheck(&[file], None);
        let no_fix = sqlcheck(&["--no-fix", file], None);
        assert_eq!(code(&default), 1);
        assert_eq!(code(&no_fix), 1);
        let default = String::from_utf8(default.stdout).expect("utf-8 listing");
        let fix_line = |l: &&str| {
            ["     fix: ", "     advice: ", "     impacted #"].iter().any(|p| l.starts_with(p))
        };
        assert!(default.lines().any(|l| fix_line(&l)), "{name}: no fix lines\n{default}");
        let stripped: String =
            default.lines().filter(|l| !fix_line(l)).map(|l| format!("{l}\n")).collect();
        assert_eq!(String::from_utf8_lossy(&no_fix.stdout), stripped, "{name}");
        std::fs::remove_file(&path).expect("remove fixture");
    }
    // The schema fixture must exercise the impacted-query lines too.
    let out = sqlcheck(&["-"], Some(SCHEMA_FIXTURE));
    assert!(String::from_utf8_lossy(&out.stdout).contains("     impacted #"));
}

#[cfg(target_os = "linux")]
#[test]
fn write_error_exits_2_with_a_message() {
    let full = std::fs::OpenOptions::new().write(true).open("/dev/full").expect("open /dev/full");
    let out = Command::new(env!("CARGO_BIN_EXE_sqlcheck"))
        .arg("-")
        .stdin(Stdio::null())
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("run sqlcheck");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 2, "{err}");
    assert!(err.starts_with("sqlcheck: cannot write output"), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
}

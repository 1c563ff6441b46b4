//! End-to-end tests of the `sqlcheck` binary: exit codes, stdin input,
//! command-line validation, and agreement of the default listing with the
//! batch-engine listings (`--stats`, `--cache`).

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
fn default_listing_matches_stats_and_cache_listings() {
    let path = fixture_file("listing", FIXTURE);
    let file = path.to_str().expect("utf-8 path");
    let default = sqlcheck(&[file], None);
    assert_eq!(code(&default), 1);
    assert!(default.stderr.is_empty(), "{}", String::from_utf8_lossy(&default.stderr));
    for flags in [&["--stats"][..], &["--cache"][..], &["--stats", "--cache"][..]] {
        let args: Vec<&str> = flags.iter().copied().chain([file]).collect();
        let batch = sqlcheck(&args, None);
        assert_eq!(code(&batch), 1, "{flags:?}");
        assert!(
            default.stdout == batch.stdout,
            "{flags:?}: listing differs from the default path"
        );
    }
    let stats = sqlcheck(&["--stats", file], None);
    let err = String::from_utf8_lossy(&stats.stderr);
    assert!(err.contains("stats: parse coverage"), "{err}");
    assert!(!err.contains("thread"), "{err}");
    std::fs::remove_file(&path).expect("remove fixture");
}

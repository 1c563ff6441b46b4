//! Quick probe: allocations per unique-statement parse, by stage.
use sqlcheck_bench::alloc_count::alloc_count;
use sqlcheck_parser::{annotate, parse_one, Dialect};

fn main() {
    let stmts = [
        "SELECT name, email FROM Users WHERE id = 42 AND status = 'active'",
        "INSERT INTO Orders (id, user_id, total) VALUES (1, 2, 9.99)",
        "UPDATE Accounts SET balance = balance - 100 WHERE owner_id = 7",
        "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(30) NOT NULL, FOREIGN KEY (name) REFERENCES u(n))",
        "SELECT a.x, b.y FROM a JOIN b ON a.id = b.a_id WHERE a.x LIKE '%q%' AND b.y IN (1,2,3) ORDER BY a.x DESC LIMIT 10",
    ];
    // warm up lazy tables
    for s in &stmts {
        let _ = parse_one(s, Dialect::Generic);
    }
    for s in &stmts {
        let b0 = alloc_count();
        let toks = sqlcheck_parser::lexer::tokenize(s, Dialect::Generic);
        let b1 = alloc_count();
        let p = parse_one(s, Dialect::Generic);
        let b2 = alloc_count();
        let ann = annotate(&p.stmt, &p.arena);
        let b3 = alloc_count();
        println!(
            "lex {:3}  parse {:3}  annotate {:3}  ({} toks) {}",
            b1 - b0,
            b2 - b1,
            b3 - b2,
            toks.len(),
            &s[..s.len().min(50)]
        );
        std::hint::black_box((p, ann, toks));
    }
}

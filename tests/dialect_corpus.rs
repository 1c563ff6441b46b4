//! Dialect-coverage corpus: real-world-shaped statements from PostgreSQL,
//! MySQL, SQLite, and T-SQL. The non-validating contract (§4.1) demands
//! that every one of these parses totally; where the parser models the
//! construct, we assert the shape it produced.

use sqlcheck_parser::ast::*;
use sqlcheck_parser::{parse, parse_one, Dialect};

fn stmt(sql: &str) -> Statement {
    parse_one(sql, Dialect::Generic).stmt
}

#[test]
fn postgres_flavoured_statements() {
    let cases = [
        "SELECT id, data->>'name' FROM events WHERE payload IS NOT NULL",
        "CREATE TABLE m (id SERIAL PRIMARY KEY, at TIMESTAMPTZ DEFAULT CURRENT_TIMESTAMP)",
        "SELECT * FROM t WHERE name ILIKE '%smith%'",
        "INSERT INTO t (a) VALUES ($1)",
        "SELECT a::TEXT FROM t",
        "CREATE INDEX CONCURRENTLY_LIKE idx ON t (a)", // tolerated garbage word
        "SELECT x FROM generate_series(1, 10) g",
    ];
    for sql in cases {
        let parsed = parse(sql);
        assert_eq!(parsed.len(), 1, "{sql}");
    }
    // Shape checks
    let p = parse_one("SELECT * FROM t WHERE name ILIKE '%x%'", Dialect::Generic);
    let Statement::Select(s) = &p.stmt else { panic!() };
    let mut found = false;
    p.arena.walk(s.where_clause.unwrap(), &mut |e| {
        if let Expr::Like { op: LikeOp::ILike, .. } = e {
            found = true;
        }
    });
    assert!(found, "ILIKE recognised");
}

#[test]
fn mysql_flavoured_statements() {
    let cases = [
        "CREATE TABLE `orders` (`id` INT UNSIGNED AUTO_INCREMENT PRIMARY KEY, \
         `status` ENUM('a','b') NOT NULL) ENGINE=InnoDB DEFAULT CHARSET=utf8mb4",
        "SELECT * FROM t WHERE name RLIKE '^ab'",
        "INSERT INTO t SET a = 1", // unmodelled INSERT form → raw source
        "REPLACE INTO t (a) VALUES (1)",
        "SELECT SQL_CALC_FOUND_ROWS a FROM t LIMIT 10",
        "UPDATE t SET a = a + 1 ORDER BY id LIMIT 5",
    ];
    for sql in cases {
        assert_eq!(parse(sql).len(), 1, "{sql}");
    }
    let Statement::CreateTable(ct) = stmt(
        "CREATE TABLE `orders` (`id` INT UNSIGNED AUTO_INCREMENT PRIMARY KEY, `s` ENUM('a','b'))",
    ) else {
        panic!()
    };
    assert!(ct.name.name_eq("orders"));
    let id = ct.column("id").unwrap();
    assert!(id.data_type.as_ref().unwrap().modifiers.iter().any(|m| m == "UNSIGNED"));
    assert!(id.is_primary_key());
    assert_eq!(ct.column("s").unwrap().data_type.as_ref().unwrap().name, "ENUM");
}

#[test]
fn sqlite_flavoured_statements() {
    let cases = [
        "CREATE TABLE t (a)", // typeless columns
        "CREATE TABLE IF NOT EXISTS t (a INTEGER PRIMARY KEY AUTOINCREMENT)",
        "SELECT * FROM t WHERE a GLOB 'ab*'",
        "INSERT OR REPLACE INTO t (a) VALUES (1)",
        "PRAGMA table_info(t)",
        "SELECT * FROM t LIMIT 10 OFFSET 5",
    ];
    for sql in cases {
        assert_eq!(parse(sql).len(), 1, "{sql}");
    }
    let Statement::CreateTable(ct) = stmt("CREATE TABLE t (a)") else { panic!() };
    assert!(ct.columns[0].data_type.is_none(), "typeless column tolerated");
    let Statement::Other(o) = stmt("PRAGMA table_info(t)") else { panic!() };
    assert_eq!(o.leading_keyword, "PRAGMA");
}

#[test]
fn tsql_flavoured_statements() {
    let cases = [
        "SELECT [weird name], [order] FROM [my table] WHERE [id] = 1",
        "CREATE TABLE [dbo].[Users] ([Id] INT PRIMARY KEY, [Name] NVARCHAR(50))",
        "SELECT TOP_N a FROM t", // TOP not modelled; must not reject
    ];
    for sql in cases {
        assert_eq!(parse(sql).len(), 1, "{sql}");
    }
    let Statement::CreateTable(ct) =
        stmt("CREATE TABLE [dbo].[Users] ([Id] INT PRIMARY KEY, [Name] NVARCHAR(50))")
    else {
        panic!()
    };
    assert!(ct.name.name_eq("Users"));
    assert_eq!(ct.name.0, vec!["dbo", "Users"]);
    assert!(ct.column("Name").unwrap().data_type.as_ref().unwrap().is_textual());
}

#[test]
fn orm_generated_statements() {
    // Django / SQLAlchemy style output: verbose quoting, parameters.
    let cases = [
        r#"SELECT "auth_user"."id", "auth_user"."username" FROM "auth_user" WHERE "auth_user"."id" = %s"#,
        r#"INSERT INTO "django_session" ("session_key", "session_data", "expire_date") VALUES (%s, %s, %s)"#,
        r#"UPDATE "shop_product" SET "price" = %(price)s WHERE "shop_product"."id" IN (%(pk_0)s, %(pk_1)s)"#,
        r#"SELECT COUNT(*) AS "__count" FROM "shop_order" INNER JOIN "shop_customer" ON ("shop_order"."customer_id" = "shop_customer"."id")"#,
    ];
    for sql in cases {
        let parsed = parse(sql);
        assert_eq!(parsed.len(), 1, "{sql}");
        assert!(
            !matches!(parsed[0].stmt, Statement::Other(_)),
            "ORM statement should be modelled: {sql}"
        );
    }
    // The INNER JOIN with parenthesised ON shapes correctly.
    let Statement::Select(s) = stmt(
        r#"SELECT COUNT(*) FROM "a" INNER JOIN "b" ON ("a"."x" = "b"."y")"#,
    ) else {
        panic!()
    };
    assert_eq!(s.joins.len(), 1);
    assert!(s.joins[0].on.is_some());
}

#[test]
fn detection_works_across_dialects() {
    use sqlcheck::AntiPatternKind;
    // The same AP spelled four ways must be caught in all of them.
    let wildcards = [
        "SELECT * FROM t",
        "SELECT `t`.* FROM `t`",
        "SELECT [t].* FROM [t]",
        r#"SELECT "t".* FROM "t""#,
    ];
    for sql in wildcards {
        let found = sqlcheck::find_anti_patterns(sql)
            .iter()
            .any(|d| d.kind == AntiPatternKind::ColumnWildcard);
        assert!(found, "wildcard missed in: {sql}");
    }
    let enums = [
        "CREATE TABLE a (s ENUM('x','y'))",
        "CREATE TABLE b (s TEXT, CHECK (s IN ('x','y')))",
        "ALTER TABLE c ADD CONSTRAINT k CHECK (s IN ('x','y'))",
    ];
    for sql in enums {
        let found = sqlcheck::find_anti_patterns(sql)
            .iter()
            .any(|d| d.kind == AntiPatternKind::EnumeratedTypes);
        assert!(found, "enum missed in: {sql}");
    }
}

#[test]
fn comments_and_whitespace_are_transparent() {
    let sql = "SELECT /* cols */ a, -- trailing\n b FROM t /* done */";
    let Statement::Select(s) = stmt(sql) else { panic!() };
    assert_eq!(s.items.len(), 2);
    assert_eq!(s.from.unwrap().name.name(), "t");
}

#[test]
fn statement_splitting_across_dialect_noise() {
    let script = r#"
        -- schema
        CREATE TABLE a (x INT); /* ; tricky ; */
        INSERT INTO a VALUES (1);
        SELECT 'a;b' FROM a;
        $body$ not ; split $body$;
        SELECT 2
    "#;
    let parsed = parse(script);
    assert_eq!(parsed.len(), 5);
}

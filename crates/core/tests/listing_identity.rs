//! `CheckOutcome::write_listing` against a `format!` oracle: the
//! per-detection renderer the CLI used before the listing was built from
//! per-kind heads and spliced digits. On random scripts the two must be
//! byte-equal with fixes on and off, and `summary()` must be the listing
//! with fixes.

use sqlcheck::{
    AntiPatternKind, CheckOutcome, Context, CustomRule, Detection, DetectionSource, Fix, Locus,
    RankWeights, SqlCheck,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The listing as the CLI rendered it with one `format!` per field.
fn oracle(outcome: &CheckOutcome, fixes: bool) -> String {
    let mut out = String::new();
    let fixes = fixes.then(|| outcome.fixes());
    for (i, r) in outcome.ranked().iter().enumerate() {
        let at = match r.detection.span {
            Some(s) => format!(" [bytes {s}]"),
            None => String::new(),
        };
        writeln!(
            out,
            "{:>3}. [{:.3}] {} ({}) @ {}{}",
            i + 1,
            r.score,
            r.detection.kind,
            r.detection.kind.category(),
            r.detection.locus,
            at
        )
        .unwrap();
        writeln!(out, "     {}", r.detection.message).unwrap();
        let Some(f) = fixes.map(|fs| &fs[i]) else { continue };
        match &f.fix {
            Fix::Rewrite { fixed, .. } => writeln!(out, "     fix: {fixed}").unwrap(),
            Fix::SchemaChange { statements, impacted_queries } => {
                for s in statements {
                    writeln!(out, "     fix: {s}").unwrap();
                }
                for (idx, q) in impacted_queries {
                    writeln!(out, "     impacted #{idx}: {q}").unwrap();
                }
            }
            Fix::Textual { advice } => writeln!(out, "     advice: {advice}").unwrap(),
        }
    }
    out
}

/// Detections no built-in rule makes: an application locus, and a
/// statement locus past the end of the script, which has no span.
struct Unanchored;

impl CustomRule for Unanchored {
    fn name(&self) -> &str {
        "unanchored"
    }

    fn detect(&self, ctx: &Context) -> Vec<Detection> {
        let d = |locus| Detection {
            kind: AntiPatternKind::GodTable,
            locus,
            message: "custom".into(),
            source: DetectionSource::InterQuery,
            span: None,
        };
        vec![d(Locus::Application), d(Locus::Statement { index: ctx.len() + 7 })]
    }
}

/// Deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Tables for rewrites (`Users` has two columns), schema fixes with
/// impacted queries (`TENANTS`: an enumerated CHECK and an id list), a
/// rounding-error column, clone tables (a table locus), an unused index
/// (an index locus) and a join without a foreign key (a column locus).
const SCHEMA: [&str; 7] = [
    "CREATE TABLE Users (user_id INT PRIMARY KEY, name TEXT)",
    "CREATE TABLE orders (order_id INT PRIMARY KEY, user_id INT, zone TEXT, price FLOAT)",
    "CREATE TABLE TENANTS (Tenant_ID TEXT PRIMARY KEY, User_IDs TEXT, role VARCHAR(5), \
     CHECK (role IN ('R1','R2')))",
    "CREATE TABLE sales_2019 (id INT PRIMARY KEY)",
    "CREATE TABLE sales_2020 (id INT PRIMARY KEY)",
    "CREATE INDEX ia ON orders (price)",
    "CREATE TABLE notes (note TEXT)",
];

/// One random statement; `prior` supplies duplicate texts.
fn statement(rng: &mut Rng, n: usize, prior: &[String]) -> String {
    let v = rng.below(5);
    match rng.below(11) {
        0 => format!("INSERT INTO Users VALUES ({n}, 'u{v}')"),
        1 => format!("SELECT * FROM Users WHERE user_id = {v}"),
        2 => format!("SELECT * FROM mystery{v} ORDER BY RAND()"),
        3 => format!("SELECT Tenant_ID FROM TENANTS WHERE role = 'R{v}'"),
        4 => format!("SELECT * FROM TENANTS WHERE User_IDs LIKE '[[:<:]]U{v}[[:>:]]'"),
        5 => format!("SELECT o.zone FROM orders o JOIN Users u ON u.user_id = o.user_id WHERE o.zone = 'Z{v}'"),
        6 => format!("SELECT order_id FROM orders WHERE zone = 'Z{v}'"),
        7 => format!("INSERT INTO notes VALUES ('n{v}')"),
        8 => format!("SELECT name FROM Users WHERE name LIKE '%{v}%'"),
        _ => match prior.len() {
            0 => "SELECT DISTINCT u.name FROM Users u JOIN orders o ON u.user_id = o.user_id"
                .to_string(),
            len => prior[rng.below(len)].clone(),
        },
    }
}

#[test]
fn write_listing_matches_format_oracle() {
    let mut rng = Rng(0x115_7146);
    let mut seen: BTreeSet<(&str, &str)> = BTreeSet::new();
    let (mut unspanned, mut longest) = (0, 0);
    for round in 0..8 {
        let n = if round == 0 { 1_200 } else { rng.below(400) };
        let mut stmts: Vec<String> = SCHEMA.iter().map(|s| s.to_string()).collect();
        for i in 0..n {
            let s = statement(&mut rng, i, &stmts);
            stmts.push(s);
        }
        let weights = if round % 2 == 0 { RankWeights::C1 } else { RankWeights::C2 };
        let outcome = SqlCheck::new()
            .with_weights(weights)
            .with_rule(Box::new(Unanchored))
            .check_script(&stmts.join(";\n"));
        for fixes in [false, true] {
            let mut listing = Vec::new();
            outcome.write_listing(&mut listing, fixes).unwrap();
            let listing = String::from_utf8(listing).unwrap();
            assert!(listing == oracle(&outcome, fixes), "round {round}, fixes {fixes}");
        }
        assert!(outcome.summary() == oracle(&outcome, true), "round {round}: summary");

        longest = longest.max(outcome.ranked().len());
        for f in outcome.fixes() {
            let locus = match f.detection.locus {
                Locus::Statement { .. } => "statement",
                Locus::Table { .. } => "table",
                Locus::Column { .. } => "column",
                Locus::Index { .. } => "index",
                Locus::Application => "application",
            };
            let fix = match &f.fix {
                Fix::Rewrite { .. } => "rewrite",
                Fix::SchemaChange { impacted_queries, .. } if impacted_queries.is_empty() => {
                    "schema"
                }
                Fix::SchemaChange { .. } => "schema+impacted",
                Fix::Textual { .. } => "advice",
            };
            seen.insert((locus, fix));
            unspanned += usize::from(f.detection.span.is_none());
        }
    }
    for want in [
        ("statement", "rewrite"),
        ("statement", "schema+impacted"),
        // Advice with a spliced statement site.
        ("statement", "advice"),
        // Advice naming its site in the body.
        ("table", "advice"),
        ("application", "advice"),
        ("column", "schema"),
        ("index", "schema"),
    ] {
        assert!(seen.contains(&want), "{want:?} never listed: {seen:?}");
    }
    assert!(unspanned > 0, "some detections must have no span");
    assert!(longest >= 1_000, "ranks must reach four digits ({longest})");
}

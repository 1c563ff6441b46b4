//! **Figure 8** — per-AP performance impact on different SQL statement
//! types (§8.2). Nine panels:
//!
//! * 8a — Index Overuse: UPDATE with redundant indexes (~10× slower);
//! * 8b — Index Underuse: grouped aggregate, index-assisted vs hash
//!   (~1.3× faster with the index);
//! * 8c — Index Underuse *false positive*: scan with a low-cardinality
//!   predicate — the index does **not** help (paper: 3× slower; in an
//!   in-memory row store the penalty shrinks to ≈ parity);
//! * 8d/8e — No Foreign Key: UPDATE / SELECT with vs without the FK —
//!   not prominent, because FK validation probes the referenced PK index;
//! * 8f — the 142× panel: deleting referenced rows requires finding
//!   referencing rows; an index on the referencing column makes that a
//!   probe instead of a scan;
//! * 8g/8h/8i — Enumerated Types: UPDATE (constraint drop + re-validate,
//!   >1000×), INSERT of a new permitted value, SELECT (≈1×).

use sqlcheck_minidb::engine::Timings;
use sqlcheck_minidb::prelude::*;

/// Scale for the Fig 8 micro-databases.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Scale {
    /// Rows in the experiment tables.
    pub rows: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Fig8Scale {
    fn default() -> Self {
        Fig8Scale { rows: 60_000, seed: 0xF18 }
    }
}

impl Fig8Scale {
    /// Test-sized scale.
    pub fn tiny() -> Self {
        Fig8Scale { rows: 2_000, seed: 5 }
    }
}

/// Run all nine panels.
pub fn run(scale: Fig8Scale, runs: usize) -> Timings {
    let mut t = Timings::default();
    index_overuse_update(scale, runs, &mut t);
    index_underuse_grouped(scale, runs, &mut t);
    index_underuse_scan(scale, runs, &mut t);
    foreign_key_panels(scale, runs, &mut t);
    enumerated_types_panels(scale, runs, &mut t);
    t
}

fn base_table(rows: usize, seed: u64, extra_indexes: usize) -> Table {
    let mut table = Table::new(
        TableSchema::new("Tenant")
            .column(Column::new("Tenant_ID", DataType::Int).not_null())
            .column(Column::new("Zone_ID", DataType::Text))
            .column(Column::new("Active", DataType::Bool))
            .column(Column::new("Score", DataType::Int))
            .primary_key(&["Tenant_ID"]),
    );
    let mut rng = SmallRng::new(seed);
    for i in 0..rows {
        table
            .insert(vec![
                Value::Int(i as i64),
                Value::text(format!("Z{}", rng.gen_range(10))),
                Value::Bool(i % 2 == 0),
                Value::Int(rng.gen_range(1_000) as i64),
            ])
            .unwrap();
    }
    for k in 0..extra_indexes {
        // All cover the updated column so each one pays maintenance.
        let cols: Vec<&str> = match k % 3 {
            0 => vec!["Zone_ID"],
            1 => vec!["Zone_ID", "Active"],
            _ => vec!["Zone_ID", "Score"],
        };
        table.create_index(format!("idx_extra_{k}"), &cols, false).unwrap();
    }
    table
}

/// 8a — UPDATE cost with 5 redundant indexes vs none beyond the PK. Each
/// run flips the zone value back and forth so no cloning happens inside
/// the timed region.
fn index_overuse_update(scale: Fig8Scale, runs: usize, t: &mut Timings) {
    let mut with_ap = base_table(scale.rows, scale.seed, 5);
    let mut without_ap = base_table(scale.rows, scale.seed, 0);
    fn flip(table: &mut Table, from: &str, to: &str) -> usize {
        let victims: Vec<RowId> = table
            .scan()
            .filter(|(_, r)| matches!(&r[1], Value::Text(z) if z == from))
            .map(|(rid, _)| rid)
            .collect();
        let n = victims.len();
        for rid in victims {
            let mut row = table.get(rid).unwrap().clone();
            row[1] = Value::text(to);
            table.update_row(rid, row).unwrap();
        }
        n
    }
    let mut odd_a = false;
    let mut odd_b = false;
    t.measure(
        "Fig 8a  Index Overuse: Update (5 idx vs 0)",
        runs,
        || {
            odd_a = !odd_a;
            let (f, to) = if odd_a { ("Z3", "Z3b") } else { ("Z3b", "Z3") };
            std::hint::black_box(flip(&mut with_ap, f, to))
        },
        || {
            odd_b = !odd_b;
            let (f, to) = if odd_b { ("Z3", "Z3b") } else { ("Z3b", "Z3") };
            std::hint::black_box(flip(&mut without_ap, f, to))
        },
    );
}

/// 8b — grouped aggregate: hash aggregation (AP: no index) vs
/// index-assisted sorted aggregation.
fn index_underuse_grouped(scale: Fig8Scale, runs: usize, t: &mut Timings) {
    let mut table = base_table(scale.rows, scale.seed, 0);
    table.create_index("idx_zone", &["Zone_ID"], false).unwrap();
    t.measure(
        "Fig 8b  Index Underuse: Grouped Aggregate",
        runs,
        || std::hint::black_box(hash_group_aggregate(&table, 1, 3, AggFunc::Sum)),
        || std::hint::black_box(sorted_group_aggregate(&table, "idx_zone", 3, AggFunc::Sum)),
    );
}

/// 8c — scan with a low-cardinality predicate: the "fix" (an index on
/// `Active`) is measured against the plain scan. The paper observes the
/// indexed plan LOSING 3×; sqlcheck's data rule uses exactly this
/// cardinality signal to suppress the Index Underuse detection.
fn index_underuse_scan(scale: Fig8Scale, runs: usize, t: &mut Timings) {
    let mut indexed = base_table(scale.rows, scale.seed, 0);
    indexed.create_index("idx_active", &["Active"], false).unwrap();
    let plain = base_table(scale.rows, scale.seed, 0);
    let pred = PExpr::col_eq(2, Value::Bool(true));
    // NOTE the inverted orientation: "AP present" = table scan (no index),
    // "AP fixed" = the index the naive rule would have you build.
    t.measure(
        "Fig 8c  Index Underuse FP: Scan with low-cardinality predicate",
        runs,
        || std::hint::black_box(seq_scan_count(&plain, &pred)),
        || {
            std::hint::black_box(
                index_scan_eq(&indexed, "idx_active", &Value::Bool(true), None).len(),
            )
        },
    );
}

fn fk_database(scale: Fig8Scale, declare_fk: bool, index_fk_col: bool) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new("Tenant")
            .column(Column::new("Tenant_ID", DataType::Int).not_null())
            .column(Column::new("Zone_ID", DataType::Text))
            .primary_key(&["Tenant_ID"]),
    )
    .unwrap();
    let mut q = TableSchema::new("Questionnaire")
        .column(Column::new("Q_ID", DataType::Int).not_null())
        .column(Column::new("Tenant_ID", DataType::Int))
        .column(Column::new("Name", DataType::Text))
        .primary_key(&["Q_ID"]);
    if declare_fk {
        q = q.foreign_key(ForeignKey {
            name: "fk_q_tenant".into(),
            columns: vec!["Tenant_ID".into()],
            ref_table: "Tenant".into(),
            ref_columns: vec!["Tenant_ID".into()],
            on_delete_cascade: true,
        });
    }
    db.create_table(q).unwrap();
    // Few tenants, many referencing rows: the referencing-side scan is
    // the dominant cost, as in the paper's 142x panel.
    let tenants = (scale.rows / 20).max(10);
    for i in 0..tenants {
        db.insert("Tenant", vec![Value::Int(i as i64), Value::text(format!("Z{}", i % 10))])
            .unwrap();
    }
    for i in 0..scale.rows {
        db.insert(
            "Questionnaire",
            vec![
                Value::Int(i as i64),
                Value::Int((i % tenants) as i64),
                Value::text(format!("Q{i}")),
            ],
        )
        .unwrap();
    }
    if index_fk_col {
        db.table_mut("Questionnaire")
            .unwrap()
            .create_index("idx_q_tenant", &["Tenant_ID"], false)
            .unwrap();
    }
    db
}

/// 8d/8e/8f — the three No-Foreign-Key panels.
fn foreign_key_panels(scale: Fig8Scale, runs: usize, t: &mut Timings) {
    let no_fk = fk_database(scale, false, false);
    let with_fk = fk_database(scale, true, false);
    let with_fk_idx = fk_database(scale, true, true);

    // 8d: UPDATE re-pointing a questionnaire at another tenant. With the
    // FK, validation probes the Tenant PK index — cheap either way. Each
    // run assigns a different (valid) tenant so no cloning is needed.
    let mut no_fk_d = no_fk.clone();
    let mut with_fk_d = with_fk.clone();
    let mut tick_a = 0i64;
    let mut tick_b = 0i64;
    t.measure(
        "Fig 8d  Foreign Key: Update (AP = no FK)",
        runs,
        || {
            tick_a += 1;
            std::hint::black_box(
                no_fk_d
                    .update_where(
                        "Questionnaire",
                        &PExpr::col_eq(0, Value::Int(17)),
                        &[(1, Value::Int(tick_a % 3))],
                    )
                    .unwrap(),
            )
        },
        || {
            tick_b += 1;
            std::hint::black_box(
                with_fk_d
                    .update_where(
                        "Questionnaire",
                        &PExpr::col_eq(0, Value::Int(17)),
                        &[(1, Value::Int(tick_b % 3))],
                    )
                    .unwrap(),
            )
        },
    );

    // 8e: SELECT joining the two tables — identical plan either way.
    let join = |db: &Database| {
        let q = db.table("Questionnaire").unwrap();
        let te = db.table("Tenant").unwrap();
        hash_join(q, 1, te, 0).len()
    };
    t.measure(
        "Fig 8e  Foreign Key: Select (AP = no FK)",
        runs,
        || std::hint::black_box(join(&no_fk)),
        || std::hint::black_box(join(&with_fk)),
    );

    // 8f: the paper: "An index explicitly constructed by the user
    // accelerates the UPDATE operation by 142x". Updating questionnaires
    // of one tenant requires locating them by Tenant_ID — a full scan
    // without the index, a probe with it. Both sides then pay the same
    // per-row update cost.
    let mut scan_side = with_fk.clone();
    let mut probe_side = with_fk_idx.clone();
    let mut tick_f_a = 0i64;
    let mut tick_f_b = 0i64;
    fn update_tenant_rows(db: &mut Database, tenant: i64, tag: i64, use_index: bool) -> usize {
        let q = db.table("Questionnaire").unwrap();
        let rids: Vec<RowId> = if use_index {
            q.index("idx_q_tenant")
                .unwrap()
                .lookup_value(&Value::Int(tenant))
                .to_vec()
        } else {
            q.scan()
                .filter(|(_, r)| r[1] == Value::Int(tenant))
                .map(|(rid, _)| rid)
                .collect()
        };
        let n = rids.len();
        let q = db.table_mut("Questionnaire").unwrap();
        for rid in rids {
            let mut row = q.get(rid).unwrap().clone();
            row[2] = Value::text(format!("renamed-{tag}"));
            q.update_row(rid, row).unwrap();
        }
        n
    }
    t.measure(
        "Fig 8f  Foreign Key: Update with Index (referencing-side probe)",
        runs,
        || {
            tick_f_a += 1;
            std::hint::black_box(update_tenant_rows(&mut scan_side, 5, tick_f_a, false))
        },
        || {
            tick_f_b += 1;
            std::hint::black_box(update_tenant_rows(&mut probe_side, 5, tick_f_b, true))
        },
    );
}

fn enum_databases(scale: Fig8Scale) -> (Database, Database) {
    // AP variant: Users.Role is a CHECK-IN constrained string.
    let mut ap = Database::new();
    ap.create_table(
        TableSchema::new("User")
            .column(Column::new("User_ID", DataType::Int).not_null())
            .column(Column::new("Role", DataType::Text))
            .primary_key(&["User_ID"])
            .check(Check::InList {
                name: "User_Role_Check".into(),
                column: "Role".into(),
                values: vec![Value::text("R1"), Value::text("R2"), Value::text("R3")],
            }),
    )
    .unwrap();
    for i in 0..scale.rows {
        ap.insert("User", vec![Value::Int(i as i64), Value::text(format!("R{}", i % 3 + 1))])
            .unwrap();
    }
    // Fixed variant: Role lookup table, integer FK in User (Fig 5).
    let mut fixed = Database::new();
    fixed
        .create_table(
            TableSchema::new("Role")
                .column(Column::new("Role_ID", DataType::Int).not_null())
                .column(Column::new("Role_Name", DataType::Text).not_null())
                .primary_key(&["Role_ID"]),
        )
        .unwrap();
    for r in 1..=3i64 {
        fixed
            .insert("Role", vec![Value::Int(r), Value::text(format!("R{r}"))])
            .unwrap();
    }
    fixed
        .create_table(
            TableSchema::new("User")
                .column(Column::new("User_ID", DataType::Int).not_null())
                .column(Column::new("Role", DataType::Int))
                .primary_key(&["User_ID"])
                .foreign_key(ForeignKey {
                    name: "fk_user_role".into(),
                    columns: vec!["Role".into()],
                    ref_table: "Role".into(),
                    ref_columns: vec!["Role_ID".into()],
                    on_delete_cascade: false,
                }),
        )
        .unwrap();
    for i in 0..scale.rows {
        fixed
            .insert("User", vec![Value::Int(i as i64), Value::Int(i as i64 % 3 + 1)])
            .unwrap();
    }
    // The lookup-table design indexes the FK column so referential
    // maintenance (does any user still hold role X?) is a probe.
    fixed
        .table_mut("User")
        .unwrap()
        .create_index("idx_user_role", &["Role"], false)
        .unwrap();
    (ap, fixed)
}

/// 8g/8h/8i — the three Enumerated Types panels.
fn enumerated_types_panels(scale: Fig8Scale, runs: usize, t: &mut Timings) {
    let (ap, fixed) = enum_databases(scale);

    // 8g: rename R2 ↔ R5 (alternating, so state is restored every second
    // run). AP: drop the CHECK, rewrite every matching row, re-add the
    // CHECK (full-table validation). Fixed: one-row UPDATE on the lookup
    // table.
    let mut ap_g = ap.clone();
    let mut fixed_g = fixed.clone();
    let mut odd_g_ap = false;
    let mut odd_g_fx = false;
    t.measure(
        "Fig 8g  Enumerated Types: Update (rename R2→R5)",
        runs,
        || {
            odd_g_ap = !odd_g_ap;
            let (from, to) = if odd_g_ap { ("R2", "R5") } else { ("R5", "R2") };
            let table = ap_g.table_mut("User").unwrap();
            table.drop_check("User_Role_Check");
            ap_g.update_where(
                "User",
                &PExpr::col_eq(1, Value::text(from)),
                &[(1, Value::text(to))],
            )
            .unwrap();
            let table = ap_g.table_mut("User").unwrap();
            table
                .add_check(Check::InList {
                    name: "User_Role_Check".into(),
                    column: "Role".into(),
                    values: vec![Value::text("R1"), Value::text(to), Value::text("R3")],
                })
                .unwrap();
            std::hint::black_box(ap_g.table("User").unwrap().len())
        },
        || {
            odd_g_fx = !odd_g_fx;
            let (from, to) = if odd_g_fx { ("R2", "R5") } else { ("R5", "R2") };
            let n = fixed_g
                .update_where(
                    "Role",
                    &PExpr::col_eq(1, Value::text(from)),
                    &[(1, Value::text(to))],
                )
                .unwrap();
            std::hint::black_box(n)
        },
    );

    // 8h: admit / retire the role value R4 (alternating). AP: drop +
    // re-add the CHECK with the extended list (re-validating the whole
    // table). Fixed: INSERT / DELETE one lookup row.
    let mut ap_h = ap.clone();
    let mut fixed_h = fixed.clone();
    let mut odd_h_ap = false;
    let mut odd_h_fx = false;
    t.measure(
        "Fig 8h  Enumerated Types: Insert (new value R4)",
        runs,
        || {
            odd_h_ap = !odd_h_ap;
            let mut values =
                vec![Value::text("R1"), Value::text("R2"), Value::text("R3")];
            if odd_h_ap {
                values.push(Value::text("R4"));
            }
            let table = ap_h.table_mut("User").unwrap();
            table.drop_check("User_Role_Check");
            table
                .add_check(Check::InList {
                    name: "User_Role_Check".into(),
                    column: "Role".into(),
                    values,
                })
                .unwrap();
            std::hint::black_box(table.len())
        },
        || {
            odd_h_fx = !odd_h_fx;
            if odd_h_fx {
                fixed_h.insert("Role", vec![Value::Int(4), Value::text("R4")]).unwrap();
            } else {
                fixed_h
                    .delete_where("Role", &PExpr::col_eq(0, Value::Int(4)))
                    .unwrap();
            }
            std::hint::black_box(fixed_h.table("Role").unwrap().len())
        },
    );

    // 8i: select users holding role R2 — a scan either way (the fixed
    // variant resolves the role id first, then scans).
    t.measure(
        "Fig 8i  Enumerated Types: Select (users with R2)",
        runs,
        || {
            let users = ap.table("User").unwrap();
            std::hint::black_box(seq_scan_count(users, &PExpr::col_eq(1, Value::text("R2"))))
        },
        || {
            let roles = fixed.table("Role").unwrap();
            let rid = roles
                .scan()
                .find(|(_, r)| r[1] == Value::text("R2"))
                .map(|(_, r)| r[0].clone())
                .unwrap();
            let users = fixed.table("User").unwrap();
            std::hint::black_box(seq_scan_count(users, &PExpr::col_eq(1, rid)))
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nine_panels_run() {
        let t = run(Fig8Scale::tiny(), 1);
        assert_eq!(t.comparisons.len(), 9);
    }

    #[test]
    fn shapes_match_the_paper() {
        let _serial = crate::harness::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Thresholds are directional, not absolute: container hardware
        // measures the 8f index win at ~3x where the paper's machine saw
        // ~18x, and true-parity panels can wander to ~3x under CI noise.
        let t = run(Fig8Scale { rows: 20_000, seed: 11 }, 5);
        let by_label = |needle: &str| {
            t.comparisons
                .iter()
                .find(|c| c.label.contains(needle))
                .unwrap_or_else(|| panic!("{needle} missing"))
        };
        // 8a: redundant indexes slow the UPDATE.
        assert!(by_label("8a").speedup() > 1.5, "8a {:.2}", by_label("8a").speedup());
        // 8b: the index helps the grouped aggregate.
        assert!(by_label("8b").speedup() > 1.05, "8b {:.2}", by_label("8b").speedup());
        // 8d/8e: not prominent (within 2× either way).
        for p in ["8d", "8e"] {
            let s = by_label(p).speedup();
            assert!((0.25..4.0).contains(&s), "{p} should be ≈1x, got {s:.2}");
        }
        // 8f: the referencing-side index is a massive win.
        assert!(by_label("8f").speedup() > 1.8, "8f {:.2}", by_label("8f").speedup());
        // 8g/8h: constraint surgery vs lookup-table DML is a massive win.
        assert!(by_label("8g").speedup() > 20.0, "8g {:.2}", by_label("8g").speedup());
        assert!(by_label("8h").speedup() > 3.0, "8h {:.2}", by_label("8h").speedup());
        // 8i: ≈1×.
        let s = by_label("8i").speedup();
        assert!((0.25..4.0).contains(&s), "8i ≈1x, got {s:.2}");
    }
}

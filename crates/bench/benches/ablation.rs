//! Ablation benches for two design choices:
//!
//! * **sampling**: data-analysis cost as the reservoir sample grows;
//! * **join strategy**: expression join vs hash vs index join — the
//!   asymmetry that powers Fig 3.

use sqlcheck::{ContextBuilder, DataAnalysisConfig, Detector};
use sqlcheck_bench::harness::{bench, group};
use sqlcheck_minidb::prelude::*;
use sqlcheck_workload::globaleaks::{build_fixed_database, Scale};

fn bench_sampling() {
    let scale = Scale { users: 5_000, tenants: 500, memberships: 2, seed: 1 };
    group("ablate_sampling_size");
    for sample_size in [16usize, 64, 256, 1024] {
        let db = build_fixed_database(scale);
        bench(&format!("sample_{sample_size}"), || {
            let cfg = DataAnalysisConfig { sample_size, ..Default::default() };
            let ctx = ContextBuilder::new().with_database(db.clone(), cfg).build();
            Detector::default().detect(&ctx).detections.len()
        });
    }
}

fn bench_join_strategies() {
    let rows = 3_000usize;
    let mk = |name: &str| {
        let mut t = Table::new(
            TableSchema::new(name)
                .column(Column::new("k", DataType::Int).not_null())
                .column(Column::new("v", DataType::Text))
                .primary_key(&["k"]),
        );
        for i in 0..rows {
            t.insert(vec![Value::Int(i as i64), Value::text(format!("v{i}"))]).unwrap();
        }
        t
    };
    let left = mk("l");
    let right = mk("r");
    let on = PExpr::Cmp(
        Box::new(PExpr::Col(0)),
        CmpOp::Eq,
        Box::new(PExpr::Col(2)),
    );
    group("ablate_join_strategy");
    bench("nested_loop", || nested_loop_join(&left, &right, &on).len());
    bench("hash_join", || hash_join(&left, 0, &right, 0).len());
    bench("index_nl_join", || index_nl_join(&left, 0, &right, "r_pkey").len());
}

fn main() {
    bench_sampling();
    bench_join_strategies();
}

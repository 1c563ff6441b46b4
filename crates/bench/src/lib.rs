//! # sqlcheck-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§8) and per measured pipeline fact, run by the `expdriver`
//! binary and the `cargo bench` targets. The README's "Benchmarks"
//! section lists each `BENCH_*.json` artifact and the command that
//! regenerates it.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod harness;

/// Experiment implementations, one module per paper artefact.
pub mod experiments {
    pub mod corpus;
    pub mod e2e;
    pub mod fig3;
    pub mod fig7;
    pub mod fig8;
    pub mod fix_scaling;
    pub mod phases;
    pub mod session_memory;
    pub mod split;
    pub mod table2;
    pub mod table345;
    pub mod throughput;
}

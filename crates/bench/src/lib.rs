//! # sqlcheck-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§8), shared by the Criterion benches and the `expdriver`
//! binary. See `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured record.

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

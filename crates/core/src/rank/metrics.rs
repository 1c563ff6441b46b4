//! Per-AP impact metrics (§5.1).
//!
//! `ap-rank` collects six metrics per AP: read performance (RP), write
//! performance (WP), maintainability (M), data amplification (DA), data
//! integrity (DI), and accuracy (A). RP/WP are speedup factors measured by
//! fixing the AP and re-running the standard query types; M counts the
//! refactoring queries saved; DA is the storage shrink factor; DI and A
//! are binary.
//!
//! The default table below is the model "trained on data collected from
//! previous deployments" (§1): RP/WP come from the paper's own measured
//! numbers (Fig 3, Fig 8, §8.2) where it reports them, and from the
//! Table 1 ✓ marks otherwise. [`crate::SqlCheck::with_metrics`] can
//! overwrite any row with locally measured values.

use crate::anti_pattern::AntiPatternKind;

/// The six ranking metrics for one AP occurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApMetrics {
    /// Read-performance speedup factor from fixing the AP (1.0 = none).
    pub read_perf: f64,
    /// Write-performance speedup factor from fixing the AP.
    pub write_perf: f64,
    /// Maintainability: number of extra statements a representative
    /// refactoring task costs while the AP is present.
    pub maintainability: f64,
    /// Data amplification: storage shrink factor available by fixing.
    pub data_amplification: f64,
    /// Data integrity affected (binary).
    pub data_integrity: bool,
    /// Accuracy affected (binary).
    pub accuracy: bool,
}

impl ApMetrics {
    /// A neutral row (no impact).
    pub const NEUTRAL: ApMetrics = ApMetrics {
        read_perf: 1.0,
        write_perf: 1.0,
        maintainability: 0.0,
        data_amplification: 1.0,
        data_integrity: false,
        accuracy: false,
    };
}

/// Default metric table. Sources, per AP:
/// * Multi-Valued Attribute — Fig 3: lookups 636×, joins 256× (reads).
/// * Index Overuse — Fig 8a: UPDATE 10× slower with redundant indexes.
/// * Index Underuse — Fig 8b: grouped aggregate 1.3× (reads).
/// * No Foreign Key — Fig 8d–f: FK-supporting index 142× on UPDATE;
///   integrity/maintainability dominated.
/// * Enumerated Types — Fig 8g–h: >1000× UPDATE / INSERT; Fig 7b rows use
///   WP > 10×, M = 2, DA = 1.
/// * Others — derived from the Table 1 ✓ marks with conservative factors.
pub fn default_metrics(kind: AntiPatternKind) -> ApMetrics {
    use AntiPatternKind::*;
    match kind {
        MultiValuedAttribute => ApMetrics {
            read_perf: 636.0,
            write_perf: 5.0,
            maintainability: 3.0,
            data_amplification: 1.5,
            data_integrity: true,
            accuracy: true,
        },
        NoPrimaryKey => ApMetrics {
            read_perf: 10.0,
            write_perf: 1.0,
            maintainability: 2.0,
            data_amplification: 0.9, // fixing *adds* an index (DA ↑)
            data_integrity: true,
            accuracy: false,
        },
        NoForeignKey => ApMetrics {
            read_perf: 1.1,
            write_perf: 142.0,
            maintainability: 3.0,
            data_amplification: 1.0,
            data_integrity: true,
            accuracy: false,
        },
        GenericPrimaryKey => ApMetrics {
            maintainability: 1.0,
            ..ApMetrics::NEUTRAL
        },
        DataInMetadata => ApMetrics {
            read_perf: 2.0,
            write_perf: 1.5,
            maintainability: 4.0,
            data_amplification: 1.3,
            data_integrity: true,
            accuracy: true,
        },
        AdjacencyList => ApMetrics {
            read_perf: 1.1, // paper §8.5: 5× on PostgreSQL v9, 1.1× on v11
            ..ApMetrics::NEUTRAL
        },
        GodTable => ApMetrics {
            read_perf: 1.5,
            maintainability: 3.0,
            ..ApMetrics::NEUTRAL
        },
        RoundingErrors => ApMetrics { accuracy: true, ..ApMetrics::NEUTRAL },
        EnumeratedTypes => ApMetrics {
            read_perf: 1.0,
            write_perf: 1000.0, // Fig 8g: 1314s → 0.003s
            maintainability: 2.0,
            data_amplification: 1.5,
            data_integrity: false,
            accuracy: false,
        },
        ExternalDataStorage => ApMetrics {
            maintainability: 2.0,
            data_integrity: true,
            accuracy: true,
            ..ApMetrics::NEUTRAL
        },
        IndexOveruse => ApMetrics {
            read_perf: 1.0,
            write_perf: 10.0, // Fig 8a
            maintainability: 1.0,
            data_amplification: 1.3,
            data_integrity: false,
            accuracy: false,
        },
        IndexUnderuse => ApMetrics {
            read_perf: 1.5, // Fig 7b row: Srp = 1.5x
            write_perf: 1.0,
            maintainability: 0.0,
            data_amplification: 0.9,
            data_integrity: false,
            accuracy: false,
        },
        CloneTable => ApMetrics {
            read_perf: 2.0,
            write_perf: 1.0,
            maintainability: 4.0,
            data_amplification: 1.0,
            data_integrity: true,
            accuracy: true,
        },
        ColumnWildcard => ApMetrics {
            read_perf: 1.3,
            accuracy: true,
            ..ApMetrics::NEUTRAL
        },
        ConcatenateNulls => ApMetrics { accuracy: true, ..ApMetrics::NEUTRAL },
        OrderingByRand => ApMetrics { read_perf: 20.0, ..ApMetrics::NEUTRAL },
        PatternMatching => ApMetrics { read_perf: 100.0, ..ApMetrics::NEUTRAL },
        ImplicitColumns => ApMetrics {
            maintainability: 2.0,
            data_integrity: true,
            ..ApMetrics::NEUTRAL
        },
        DistinctJoin => ApMetrics {
            read_perf: 3.0,
            maintainability: 1.0,
            ..ApMetrics::NEUTRAL
        },
        TooManyJoins => ApMetrics { read_perf: 5.0, ..ApMetrics::NEUTRAL },
        ReadablePassword => ApMetrics { data_integrity: true, ..ApMetrics::NEUTRAL },
        MissingTimezone => ApMetrics { accuracy: true, ..ApMetrics::NEUTRAL },
        IncorrectDataType => ApMetrics {
            read_perf: 2.0,
            data_amplification: 1.5,
            ..ApMetrics::NEUTRAL
        },
        DenormalizedTable => ApMetrics {
            read_perf: 1.5,
            data_amplification: 2.0,
            ..ApMetrics::NEUTRAL
        },
        InformationDuplication => ApMetrics {
            maintainability: 2.0,
            data_integrity: true,
            accuracy: true,
            ..ApMetrics::NEUTRAL
        },
        RedundantColumn => ApMetrics {
            data_amplification: 1.2,
            ..ApMetrics::NEUTRAL
        },
        NoDomainConstraint => ApMetrics {
            maintainability: 1.0,
            data_amplification: 1.1,
            data_integrity: true,
            ..ApMetrics::NEUTRAL
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_metrics() {
        for k in AntiPatternKind::ALL {
            let m = default_metrics(k);
            assert!(m.read_perf >= 0.0 && m.write_perf >= 0.0);
        }
    }

    #[test]
    fn fig7b_rows_match() {
        // Index Underuse: Srp input 1.5x, everything else neutral.
        let iu = default_metrics(AntiPatternKind::IndexUnderuse);
        assert_eq!(iu.read_perf, 1.5);
        assert_eq!(iu.write_perf, 1.0);
        assert_eq!(iu.maintainability, 0.0);
        // Enumerated Types: WP > 10x, M = 2, DA present.
        let et = default_metrics(AntiPatternKind::EnumeratedTypes);
        assert!(et.write_perf > 10.0);
        assert_eq!(et.maintainability, 2.0);
        assert!(et.data_amplification > 1.0);
    }

    #[test]
    fn table1_alignment_spot_checks() {
        // Rounding Errors affects only accuracy.
        let r = default_metrics(AntiPatternKind::RoundingErrors);
        assert!(r.accuracy && !r.data_integrity && r.read_perf == 1.0);
        // MVA affects everything.
        let m = default_metrics(AntiPatternKind::MultiValuedAttribute);
        assert!(m.accuracy && m.data_integrity && m.read_perf > 100.0);
    }
}

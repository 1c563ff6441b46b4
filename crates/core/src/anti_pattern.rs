//! The anti-pattern catalog (Table 1 of the paper).
//!
//! 26 catalogued anti-patterns in four categories, plus *Readable
//! Password*, which is not in Table 1 but appears in the paper's Table 3
//! (sqlcheck detects it in the user study); we carry it as a 27th kind and
//! note the discrepancy in `EXPERIMENTS.md`.

use std::fmt;

/// The four AP categories of §2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Violations of logical design principles.
    LogicalDesign,
    /// Inefficient physical implementation of the logical design.
    PhysicalDesign,
    /// Bad practices in query formulation.
    Query,
    /// Detected from the data itself (requires database access).
    Data,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::LogicalDesign => "Logical Design",
            Category::PhysicalDesign => "Physical Design",
            Category::Query => "Query",
            Category::Data => "Data",
        };
        f.write_str(s)
    }
}

/// Which of the paper's five metrics an AP affects (the ✓ columns in
/// Table 1): Performance, Maintainability, Data Amplification, Data
/// Integrity, Accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricImpact {
    /// Performance (P).
    pub performance: bool,
    /// Maintainability (M).
    pub maintainability: bool,
    /// Data amplification (DA): `Some(true)` = fixing *increases* footprint
    /// (↑), `Some(false)` = fixing decreases it (↓), `None` = no effect.
    pub data_amplification: Option<bool>,
    /// Data integrity (DI).
    pub data_integrity: bool,
    /// Accuracy (A).
    pub accuracy: bool,
}

/// All anti-pattern kinds known to sqlcheck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AntiPatternKind {
    // -- Logical design ----------------------------------------------------
    /// Storing a list of values in a delimiter-separated string (1NF
    /// violation).
    MultiValuedAttribute,
    /// Table without a primary key.
    NoPrimaryKey,
    /// Missing referential integrity constraints.
    NoForeignKey,
    /// A generic `id` primary key column on every table.
    GenericPrimaryKey,
    /// Application logic hard-coded in table metadata (e.g. numbered
    /// column families `tag1, tag2, tag3`).
    DataInMetadata,
    /// Self-referencing foreign key used to model hierarchies.
    AdjacencyList,
    /// Table whose column count crosses a threshold.
    GodTable,
    // -- Physical design ---------------------------------------------------
    /// Fractional data stored in binary floating point.
    RoundingErrors,
    /// ENUM types / CHECK-IN lists constraining a column's domain.
    EnumeratedTypes,
    /// File paths stored instead of content.
    ExternalDataStorage,
    /// Too many infrequently used indexes.
    IndexOveruse,
    /// Missing performance-critical indexes.
    IndexUnderuse,
    /// Multiple tables matching `<TableName>_N`.
    CloneTable,
    // -- Query ---------------------------------------------------------- --
    /// `SELECT *`.
    ColumnWildcard,
    /// `||` concatenation over nullable columns.
    ConcatenateNulls,
    /// `ORDER BY RAND()`.
    OrderingByRand,
    /// Pattern matching with leading wildcards / regular expressions.
    PatternMatching,
    /// INSERT without an explicit column list.
    ImplicitColumns,
    /// DISTINCT used to mask JOIN-induced duplicates.
    DistinctJoin,
    /// Join count crosses a threshold.
    TooManyJoins,
    /// Plain-text password storage (Table 3 extra).
    ReadablePassword,
    // -- Data ----------------------------------------------------------- --
    /// Date-time columns without timezone.
    MissingTimezone,
    /// Data does not conform to the declared type.
    IncorrectDataType,
    /// Value duplication across rows (denormalisation).
    DenormalizedTable,
    /// Derived columns (e.g. age from date of birth).
    InformationDuplication,
    /// Column that is all NULL or a single constant.
    RedundantColumn,
    /// Bounded-domain column without a domain constraint.
    NoDomainConstraint,
}

impl AntiPatternKind {
    /// Every kind, in Table 1 order (Readable Password appended).
    pub const ALL: [AntiPatternKind; 27] = [
        AntiPatternKind::MultiValuedAttribute,
        AntiPatternKind::NoPrimaryKey,
        AntiPatternKind::NoForeignKey,
        AntiPatternKind::GenericPrimaryKey,
        AntiPatternKind::DataInMetadata,
        AntiPatternKind::AdjacencyList,
        AntiPatternKind::GodTable,
        AntiPatternKind::RoundingErrors,
        AntiPatternKind::EnumeratedTypes,
        AntiPatternKind::ExternalDataStorage,
        AntiPatternKind::IndexOveruse,
        AntiPatternKind::IndexUnderuse,
        AntiPatternKind::CloneTable,
        AntiPatternKind::ColumnWildcard,
        AntiPatternKind::ConcatenateNulls,
        AntiPatternKind::OrderingByRand,
        AntiPatternKind::PatternMatching,
        AntiPatternKind::ImplicitColumns,
        AntiPatternKind::DistinctJoin,
        AntiPatternKind::TooManyJoins,
        AntiPatternKind::ReadablePassword,
        AntiPatternKind::MissingTimezone,
        AntiPatternKind::IncorrectDataType,
        AntiPatternKind::DenormalizedTable,
        AntiPatternKind::InformationDuplication,
        AntiPatternKind::RedundantColumn,
        AntiPatternKind::NoDomainConstraint,
    ];

    /// The AP's category.
    pub fn category(&self) -> Category {
        use AntiPatternKind::*;
        match self {
            MultiValuedAttribute | NoPrimaryKey | NoForeignKey | GenericPrimaryKey
            | DataInMetadata | AdjacencyList | GodTable => Category::LogicalDesign,
            RoundingErrors | EnumeratedTypes | ExternalDataStorage | IndexOveruse
            | IndexUnderuse | CloneTable => Category::PhysicalDesign,
            ColumnWildcard | ConcatenateNulls | OrderingByRand | PatternMatching
            | ImplicitColumns | DistinctJoin | TooManyJoins | ReadablePassword => Category::Query,
            MissingTimezone | IncorrectDataType | DenormalizedTable | InformationDuplication
            | RedundantColumn | NoDomainConstraint => Category::Data,
        }
    }

    /// Human-readable name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        use AntiPatternKind::*;
        match self {
            MultiValuedAttribute => "Multi-Valued Attribute",
            NoPrimaryKey => "No Primary Key",
            NoForeignKey => "No Foreign Key",
            GenericPrimaryKey => "Generic Primary Key",
            DataInMetadata => "Data in Metadata",
            AdjacencyList => "Adjacency List",
            GodTable => "God Table",
            RoundingErrors => "Rounding Errors",
            EnumeratedTypes => "Enumerated Types",
            ExternalDataStorage => "External Data Storage",
            IndexOveruse => "Index Overuse",
            IndexUnderuse => "Index Underuse",
            CloneTable => "Clone Table",
            ColumnWildcard => "Column Wildcard Usage",
            ConcatenateNulls => "Concatenate Nulls",
            OrderingByRand => "Ordering by Rand",
            PatternMatching => "Pattern Matching",
            ImplicitColumns => "Implicit Columns",
            DistinctJoin => "Distinct and Join",
            TooManyJoins => "Too many Joins",
            ReadablePassword => "Readable Password",
            MissingTimezone => "Missing Timezone",
            IncorrectDataType => "Incorrect Data Type",
            DenormalizedTable => "Denormalized Table",
            InformationDuplication => "Information Duplication",
            RedundantColumn => "Redundant Column",
            NoDomainConstraint => "No Domain Constraint",
        }
    }

    /// Table 1's ✓ marks for this AP.
    pub fn metric_impact(&self) -> MetricImpact {
        use AntiPatternKind::*;
        let mi = |p, m, da: Option<bool>, di, a| MetricImpact {
            performance: p,
            maintainability: m,
            data_amplification: da,
            data_integrity: di,
            accuracy: a,
        };
        match self {
            MultiValuedAttribute => mi(true, true, Some(false), true, true),
            NoPrimaryKey => mi(true, true, Some(true), true, false),
            NoForeignKey => mi(true, true, None, true, false),
            GenericPrimaryKey => mi(false, true, None, false, false),
            DataInMetadata => mi(true, true, Some(false), true, true),
            AdjacencyList => mi(true, false, None, false, false),
            GodTable => mi(true, true, None, false, false),
            RoundingErrors => mi(false, false, None, false, true),
            EnumeratedTypes => mi(true, true, Some(false), false, false),
            ExternalDataStorage => mi(false, true, None, true, true),
            IndexOveruse => mi(true, true, Some(false), false, false),
            IndexUnderuse => mi(true, true, Some(true), false, false),
            CloneTable => mi(true, true, None, true, true),
            ColumnWildcard => mi(true, false, None, false, true),
            ConcatenateNulls => mi(false, false, None, false, true),
            OrderingByRand => mi(true, false, None, false, false),
            PatternMatching => mi(true, false, None, false, false),
            ImplicitColumns => mi(false, true, None, true, false),
            DistinctJoin => mi(true, true, None, false, false),
            TooManyJoins => mi(true, false, None, false, false),
            ReadablePassword => mi(false, false, None, true, false),
            MissingTimezone => mi(false, false, None, false, true),
            IncorrectDataType => mi(true, false, Some(false), false, false),
            DenormalizedTable => mi(true, false, Some(false), false, false),
            InformationDuplication => mi(false, true, None, true, true),
            RedundantColumn => mi(false, false, Some(false), false, false),
            NoDomainConstraint => mi(false, true, Some(false), true, false),
        }
    }

    /// Whether detecting this AP requires database (data) access.
    pub fn requires_data(&self) -> bool {
        self.category() == Category::Data
    }

    /// The 11 AP kinds the dbdeo baseline supports (per Table 2/3).
    pub fn dbdeo_supported(&self) -> bool {
        use AntiPatternKind::*;
        matches!(
            self,
            NoPrimaryKey
                | DataInMetadata
                | EnumeratedTypes
                | IndexUnderuse
                | GodTable
                | CloneTable
                | RoundingErrors
                | MultiValuedAttribute
                | PatternMatching
                | AdjacencyList
                | IndexOveruse
        )
    }
}

impl fmt::Display for AntiPatternKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_27_kinds() {
        assert_eq!(AntiPatternKind::ALL.len(), 27);
        // 26 from Table 1 + Readable Password
        let non_extra = AntiPatternKind::ALL
            .iter()
            .filter(|k| **k != AntiPatternKind::ReadablePassword)
            .count();
        assert_eq!(non_extra, 26);
    }

    /// Per-kind tables (the ranker's rows, `Report::by_kind`'s counts)
    /// index by `kind as usize`, which must be the kind's place in `ALL`.
    #[test]
    fn all_is_indexed_by_discriminant() {
        for (i, kind) in AntiPatternKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
            assert_eq!(AntiPatternKind::ALL[kind as usize], kind);
        }
    }

    #[test]
    fn category_counts_match_table1() {
        let count = |c: Category| {
            AntiPatternKind::ALL.iter().filter(|k| k.category() == c).count()
        };
        assert_eq!(count(Category::LogicalDesign), 7);
        assert_eq!(count(Category::PhysicalDesign), 6);
        assert_eq!(count(Category::Query), 8); // 7 + Readable Password
        assert_eq!(count(Category::Data), 6);
    }

    #[test]
    fn dbdeo_supports_exactly_11() {
        let n = AntiPatternKind::ALL.iter().filter(|k| k.dbdeo_supported()).count();
        assert_eq!(n, 11);
    }

    #[test]
    fn data_aps_require_data() {
        assert!(AntiPatternKind::MissingTimezone.requires_data());
        assert!(!AntiPatternKind::ColumnWildcard.requires_data());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = AntiPatternKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 27);
    }

    #[test]
    fn table1_spot_checks() {
        // Multi-Valued Attribute: P ✓ M ✓ DA ↓ DI ✓ A ✓
        let m = AntiPatternKind::MultiValuedAttribute.metric_impact();
        assert!(m.performance && m.maintainability && m.data_integrity && m.accuracy);
        assert_eq!(m.data_amplification, Some(false));
        // No Primary Key: DA ↑
        assert_eq!(
            AntiPatternKind::NoPrimaryKey.metric_impact().data_amplification,
            Some(true)
        );
        // Rounding Errors: only accuracy
        let r = AntiPatternKind::RoundingErrors.metric_impact();
        assert!(r.accuracy && !r.performance && !r.maintainability && !r.data_integrity);
    }
}

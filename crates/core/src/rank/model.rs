//! The ranking model (§5.2, Fig 6 & Fig 7).
//!
//! Scoring functions (Fig 6):
//!
//! ```text
//! Srp(x), Swp(x), Sm(x) = min(1, x/5)
//! Sda(x)               = min(1, x/8)
//! Sdi(x), Sa(x)        = x          (x ∈ {0, 1})
//! score = Wrp·Srp(RP) + Wwp·Swp(WP) + Wm·Sm(M)
//!       + Wda·Sda(DA) + Wdi·Sdi(DI) + Wa·Sa(A)
//! ```
//!
//! Metric inputs are normalised the way Fig 7b presents them: a speedup of
//! `x`× enters as `x` when the AP actually affects the metric and as `0`
//! when it does not (neutral speedup 1.0 → input 0).

use crate::anti_pattern::AntiPatternKind;
use crate::rank::metrics::{default_metrics, ApMetrics};
use crate::report::{Detection, Report};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Weight vector for the six metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankWeights {
    /// Read performance weight.
    pub wrp: f64,
    /// Write performance weight.
    pub wwp: f64,
    /// Maintainability weight.
    pub wm: f64,
    /// Data amplification weight.
    pub wda: f64,
    /// Data integrity weight.
    pub wdi: f64,
    /// Accuracy weight.
    pub wa: f64,
}

impl RankWeights {
    /// Fig 7a configuration **C1**: read-heavy analytical workloads.
    pub const C1: RankWeights =
        RankWeights { wrp: 0.7, wwp: 0.15, wm: 0.05, wda: 0.04, wdi: 0.02, wa: 0.02 };

    /// Fig 7a configuration **C2**: hybrid transactional/analytical.
    pub const C2: RankWeights =
        RankWeights { wrp: 0.4, wwp: 0.4, wm: 0.1, wda: 0.04, wdi: 0.02, wa: 0.02 };

    /// Custom weights (normalised by the caller if desired).
    pub fn custom(wrp: f64, wwp: f64, wm: f64, wda: f64, wdi: f64, wa: f64) -> Self {
        RankWeights { wrp, wwp, wm, wda, wdi, wa }
    }
}

/// `min(1, x/5)` — the Srp/Swp/Sm scoring function of Fig 6.
pub fn s5(x: f64) -> f64 {
    (x / 5.0).min(1.0)
}

/// `min(1, x/8)` — the Sda scoring function of Fig 6.
pub fn s8(x: f64) -> f64 {
    (x / 8.0).min(1.0)
}

/// Normalise a speedup factor into a Fig 7b-style metric input: factors at
/// or below 1 (no impact) become 0.
fn speedup_input(factor: f64) -> f64 {
    if factor <= 1.0 {
        0.0
    } else {
        factor
    }
}

/// Normalise a storage shrink factor: 1.5× shrink enters as 1.0 (the Fig
/// 7b Enumerated Types row), no shrink as 0.
fn amplification_input(factor: f64) -> f64 {
    if factor <= 1.0 {
        0.0
    } else {
        (factor - 1.0) * 2.0
    }
}

/// Compute the Fig 6 impact score for one metric row.
pub fn score(metrics: &ApMetrics, w: &RankWeights) -> f64 {
    w.wrp * s5(speedup_input(metrics.read_perf))
        + w.wwp * s5(speedup_input(metrics.write_perf))
        + w.wm * s5(metrics.maintainability)
        + w.wda * s8(amplification_input(metrics.data_amplification))
        + w.wdi * if metrics.data_integrity { 1.0 } else { 0.0 }
        + w.wa * if metrics.accuracy { 1.0 } else { 0.0 }
}

/// The metrics table the ranker consults: paper defaults, overridable with
/// locally calibrated measurements ("as new performance data is collected
/// over time, we update the ranking model", §5.2).
#[derive(Debug, Clone, Default)]
pub struct MetricsTable {
    overrides: BTreeMap<AntiPatternKind, ApMetrics>,
}

impl MetricsTable {
    /// Table with paper defaults only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override a row with locally measured metrics.
    pub fn set(&mut self, kind: AntiPatternKind, metrics: ApMetrics) {
        self.overrides.insert(kind, metrics);
    }

    /// Record a measured read/write speedup for a kind, keeping the other
    /// metric components at their defaults.
    pub fn calibrate_performance(
        &mut self,
        kind: AntiPatternKind,
        read_speedup: f64,
        write_speedup: f64,
    ) {
        let mut m = self.get(kind);
        m.read_perf = read_speedup;
        m.write_perf = write_speedup;
        self.overrides.insert(kind, m);
    }

    /// The effective metrics for a kind.
    pub fn get(&self, kind: AntiPatternKind) -> ApMetrics {
        self.overrides.get(&kind).copied().unwrap_or_else(|| default_metrics(kind))
    }
}

/// Coarse severity bucket derived from the impact score, used by the
/// reporting workflow of §8.4 ("we do not report low severity APs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Score < 0.05 — informational.
    Low,
    /// Score in [0.05, 0.2).
    Medium,
    /// Score ≥ 0.2 — worth reporting upstream.
    High,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Low => "low",
            Severity::Medium => "medium",
            Severity::High => "high",
        })
    }
}

/// A detection with its computed impact score.
#[derive(Debug, Clone)]
pub struct RankedDetection {
    /// The detection.
    pub detection: Detection,
    /// The metric row used.
    pub metrics: ApMetrics,
    /// The Fig 6 score.
    pub score: f64,
}

impl RankedDetection {
    /// Severity bucket for this detection.
    pub fn severity(&self) -> Severity {
        if self.score >= 0.2 {
            Severity::High
        } else if self.score >= 0.05 {
            Severity::Medium
        } else {
            Severity::Low
        }
    }
}

/// How the inter-query component orders queries (§5.2: the developer can
/// choose one of two models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterQueryModel {
    /// Queries with more APs rank higher.
    ByApCount,
    /// Queries rank by summed impact score (default).
    #[default]
    ByScore,
}

/// The ranker (`ap-rank`).
#[derive(Debug, Clone)]
pub struct Ranker {
    /// Metric weights.
    pub weights: RankWeights,
    /// Metrics table (defaults + calibration).
    pub metrics: MetricsTable,
    /// Inter-query ordering model.
    pub inter_model: InterQueryModel,
}

impl Default for Ranker {
    fn default() -> Self {
        Ranker {
            weights: RankWeights::C1,
            metrics: MetricsTable::new(),
            inter_model: InterQueryModel::ByScore,
        }
    }
}

impl Ranker {
    /// Ranker with explicit weights.
    pub fn with_weights(weights: RankWeights) -> Self {
        Ranker { weights, ..Default::default() }
    }

    /// Rank all detections in a report, highest impact first. Ties break
    /// on catalog order for determinism, then on report order.
    ///
    /// A score depends only on the detection's kind, so ranking orders
    /// the kinds, not the detections: one `(metrics, score)` row per
    /// kind, the kinds sorted by score then kind, and one stable counting
    /// sort that places each detection in its kind's bucket. The work is
    /// linear in the report.
    pub fn rank(&self, report: &Report) -> Vec<RankedDetection> {
        let rows = AntiPatternKind::ALL.map(|kind| {
            let metrics = self.metrics.get(kind);
            (metrics, score(&metrics, &self.weights))
        });
        let mut order = AntiPatternKind::ALL;
        order.sort_by(|a, b| {
            rows[*b as usize]
                .1
                .partial_cmp(&rows[*a as usize].1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.cmp(b))
        });
        // `next[k]`: the ranked position of the next detection of kind
        // `k` — first its count, then its bucket's start.
        let mut next = [0usize; AntiPatternKind::ALL.len()];
        for d in &report.detections {
            next[d.kind as usize] += 1;
        }
        let mut start = 0;
        for kind in order {
            let count = std::mem::replace(&mut next[kind as usize], start);
            start += count;
        }
        let mut permutation = vec![0u32; report.detections.len()];
        for (i, d) in report.detections.iter().enumerate() {
            let at = &mut next[d.kind as usize];
            permutation[*at] = u32::try_from(i).expect("a report holds fewer than 2^32 detections");
            *at += 1;
        }
        permutation
            .into_iter()
            .map(|i| {
                let detection = &report.detections[i as usize];
                let (metrics, score) = rows[detection.kind as usize];
                RankedDetection { detection: detection.clone(), metrics, score }
            })
            .collect()
    }

    /// Inter-query ranking: order statement indices by AP count or summed
    /// score (§5.2's two models). Returns `(statement index, weight)`
    /// pairs, highest first.
    pub fn rank_queries(&self, report: &Report) -> Vec<(usize, f64)> {
        let mut per_query: BTreeMap<usize, f64> = BTreeMap::new();
        for d in &report.detections {
            let Some(idx) = d.statement_index() else { continue };
            let w = match self.inter_model {
                InterQueryModel::ByApCount => 1.0,
                InterQueryModel::ByScore => score(&self.metrics.get(d.kind), &self.weights),
            };
            *per_query.entry(idx).or_default() += w;
        }
        let mut v: Vec<(usize, f64)> = per_query.into_iter().collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DetectionSource, Locus};

    /// Fig 7b metric rows, exactly as the paper presents them.
    fn index_underuse_row() -> ApMetrics {
        ApMetrics {
            read_perf: 1.5,
            write_perf: 1.0,
            maintainability: 0.0,
            data_amplification: 1.0,
            data_integrity: false,
            accuracy: false,
        }
    }

    fn enumerated_types_row() -> ApMetrics {
        ApMetrics {
            read_perf: 1.0,
            write_perf: 11.0, // ">10x"
            maintainability: 2.0,
            data_amplification: 1.5, // enters as Sda input 1
            data_integrity: false,
            accuracy: false,
        }
    }

    #[test]
    fn example6_config_c1_prioritises_index_underuse() {
        // Paper: C1 ranks Index Underuse (0.21) above Enumerated Types
        // (0.175).
        let iu = score(&index_underuse_row(), &RankWeights::C1);
        let et = score(&enumerated_types_row(), &RankWeights::C1);
        assert!((iu - 0.21).abs() < 1e-9, "index underuse C1 score = {iu}");
        assert!((et - 0.175).abs() < 1e-3, "enumerated types C1 score = {et}");
        assert!(iu > et);
    }

    #[test]
    fn example6_config_c2_flips_the_order() {
        // Paper: C2 ranks Enumerated Types (≈0.47) above Index Underuse
        // (0.12).
        let iu = score(&index_underuse_row(), &RankWeights::C2);
        let et = score(&enumerated_types_row(), &RankWeights::C2);
        assert!((iu - 0.12).abs() < 1e-9, "index underuse C2 score = {iu}");
        assert!(et > 0.4 && et < 0.5, "enumerated types C2 score = {et}");
        assert!(et > iu);
    }

    #[test]
    fn scoring_functions_saturate() {
        assert_eq!(s5(10.0), 1.0);
        assert_eq!(s5(2.5), 0.5);
        assert_eq!(s8(8.0), 1.0);
        assert_eq!(s8(4.0), 0.5);
    }

    #[test]
    fn neutral_metrics_score_zero() {
        assert_eq!(score(&ApMetrics::NEUTRAL, &RankWeights::C1), 0.0);
    }

    fn det(kind: AntiPatternKind, idx: usize) -> Detection {
        Detection {
            kind,
            locus: Locus::Statement { index: idx },
            message: "".into(),
            source: DetectionSource::IntraQuery,
            span: None,
        }
    }

    #[test]
    fn rank_orders_by_score_desc() {
        let mut report = Report::default();
        report.detections.push(det(AntiPatternKind::RoundingErrors, 0)); // accuracy only
        report.detections.push(det(AntiPatternKind::MultiValuedAttribute, 1)); // huge RP
        let ranked = Ranker::default().rank(&report);
        assert_eq!(ranked[0].detection.kind, AntiPatternKind::MultiValuedAttribute);
        assert!(ranked[0].score > ranked[1].score);
    }

    #[test]
    fn calibration_overrides_defaults() {
        let mut ranker = Ranker::default();
        ranker.metrics.calibrate_performance(AntiPatternKind::RoundingErrors, 50.0, 1.0);
        let m = ranker.metrics.get(AntiPatternKind::RoundingErrors);
        assert_eq!(m.read_perf, 50.0);
        assert!(m.accuracy, "non-performance components keep their defaults");
    }

    #[test]
    fn inter_query_models_differ() {
        let mut report = Report::default();
        // statement 0: two low-impact APs; statement 1: one high-impact AP.
        report.detections.push(det(AntiPatternKind::RoundingErrors, 0));
        report.detections.push(det(AntiPatternKind::MissingTimezone, 0));
        report.detections.push(det(AntiPatternKind::MultiValuedAttribute, 1));

        let by_count = Ranker {
            inter_model: InterQueryModel::ByApCount,
            ..Default::default()
        };
        assert_eq!(by_count.rank_queries(&report)[0].0, 0, "more APs wins by count");

        let by_score = Ranker::default();
        assert_eq!(by_score.rank_queries(&report)[0].0, 1, "higher impact wins by score");
    }

    #[test]
    fn severity_buckets() {
        let mk = |score: f64| RankedDetection {
            detection: det(AntiPatternKind::GodTable, 0),
            metrics: ApMetrics::NEUTRAL,
            score,
        };
        assert_eq!(mk(0.01).severity(), Severity::Low);
        assert_eq!(mk(0.1).severity(), Severity::Medium);
        assert_eq!(mk(0.5).severity(), Severity::High);
        assert!(Severity::High > Severity::Low);
    }

    /// The ranker before bucketing: score every detection, then one
    /// stable `sort_by` on score descending, then kind.
    fn reference_rank(ranker: &Ranker, report: &Report) -> Vec<RankedDetection> {
        let mut ranked: Vec<RankedDetection> = report
            .detections
            .iter()
            .map(|d| {
                let metrics = ranker.metrics.get(d.kind);
                RankedDetection {
                    detection: d.clone(),
                    metrics,
                    score: score(&metrics, &ranker.weights),
                }
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.detection.kind.cmp(&b.detection.kind))
        });
        ranked
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

        /// A finite weight in [-1, 1), exactly 0 one time in four.
        fn weight(&mut self) -> f64 {
            match self.below(4) {
                0 => 0.0,
                _ => (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
            }
        }
    }

    /// A report of `n` detections drawn from `kinds` catalog kinds, each
    /// at its own statement so report order is observable.
    fn random_report(rng: &mut Rng, n: usize, kinds: usize) -> Report {
        let detections = (0..n)
            .map(|i| det(AntiPatternKind::ALL[rng.below(kinds)], i))
            .collect();
        Report { detections }
    }

    /// Bucket ranking must equal the sort reference item for item —
    /// detection, metric row and score bits — under C1, C2, random
    /// weights, and a metrics table that ties distinct kinds.
    #[test]
    fn bucket_rank_matches_sort_reference() {
        let mut rng = Rng(0xB0C4E7);
        // Three kinds far apart in the catalog share one row, so they
        // tie under every weight vector and must order by kind.
        let mut tied = MetricsTable::new();
        let row = default_metrics(AntiPatternKind::GodTable);
        for kind in [AntiPatternKind::ReadablePassword, AntiPatternKind::NoPrimaryKey] {
            tied.set(kind, row);
        }
        tied.calibrate_performance(AntiPatternKind::ColumnWildcard, 40.0, 3.0);
        let mut ties = 0;
        for round in 0..60 {
            let weights = match round % 3 {
                0 => RankWeights::C1,
                1 => RankWeights::C2,
                _ => RankWeights::custom(
                    rng.weight(),
                    rng.weight(),
                    rng.weight(),
                    rng.weight(),
                    rng.weight(),
                    rng.weight(),
                ),
            };
            let metrics = if round % 2 == 0 { MetricsTable::new() } else { tied.clone() };
            let ranker = Ranker { weights, metrics, ..Ranker::default() };
            let kinds = [1, 3, AntiPatternKind::ALL.len()][rng.below(3)];
            let n = rng.below(400);
            let report = random_report(&mut rng, n, kinds);
            let got = ranker.rank(&report);
            let want = reference_rank(&ranker, &report);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.detection, w.detection, "round {round}");
                assert_eq!(g.metrics, w.metrics, "round {round}");
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "round {round}");
            }
            ties += got
                .windows(2)
                .filter(|p| p[0].score == p[1].score && p[0].detection.kind != p[1].detection.kind)
                .count();
        }
        assert!(ties > 0, "the reports must rank distinct kinds with equal scores");
    }

    #[test]
    fn custom_weights() {
        let w = RankWeights::custom(0.0, 0.0, 0.0, 0.0, 1.0, 0.0);
        let m = ApMetrics { data_integrity: true, ..ApMetrics::NEUTRAL };
        assert_eq!(score(&m, &w), 1.0);
    }
}

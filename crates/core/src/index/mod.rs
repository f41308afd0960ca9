//! The cost-effective variance index and similarity model (§4, Table 4,
//! Eqs. 7–8).
//!
//! Every shot is summarized by two scalars, `Var^BA` and `Var^OA`. The index
//! table stores, per shot, `√Var^BA`, `√Var^OA`, and the primary key
//! `D^v = √Var^BA − √Var^OA`. A query supplies the *impression* of how much
//! things change in the background and object areas (`Var_q^BA`,
//! `Var_q^OA`); the system returns every shot `i` satisfying
//!
//! ```text
//! D_q^v − α ≤ D_i^v ≤ D_q^v + α                      (Eq. 7)
//! √Var_q^BA − β ≤ √Var_i^BA ≤ √Var_q^BA + β          (Eq. 8)
//! ```
//!
//! with tolerances α = β = 1.0 in the paper's system.
//!
//! [`VarianceIndex`] keeps entries sorted by `D^v` so Eq. 7 is a binary-
//! search range scan; Eq. 8 filters the survivors. A [`QuantizedIndex`]
//! variant ("another common way to handle inexact queries is to do matching
//! on quantized data") is provided for the ablation benchmarks.
//!
//! At the scale ROADMAP targets ("millions of users / millions of shots")
//! the paper's flat table stops being enough, so the module grew into a
//! family:
//!
//! * [`bucket`] — [`BucketIndex`], a sorted bucket
//!   array over `D^v` answering range *and* top-k queries in sublinear
//!   time, reporting exactly how much work each probe did;
//! * [`cost`] — [`CostModel`], which predicts that work
//!   (buckets touched, candidates scored) from the index parameters and
//!   corpus statistics alone;
//! * [`planner`] — [`ShotIndex`], the maintained
//!   index used by the database layer: it plans every query (scan vs.
//!   buckets) from the cost estimate and records probe metrics into
//!   `vdb-obs`.
//!
//! **Tie-break contract:** every query in this family orders results by
//! ascending `(distance, ShotKey)` — equal-distance matches come back in
//! `(video, shot)` order. The property suites pin the bucketed structures
//! to the brute-force linear scan under exactly this rule.

pub mod bucket;
pub mod cost;
pub mod planner;

pub use bucket::{BucketIndex, BucketParams, ProbeStats};
pub use cost::{CorpusStats, CostEstimate, CostModel};
pub use planner::{Explain, IndexRuntime, Plan, PlanChoice, ShotIndex};

use crate::variance::ShotFeature;
use serde::{Deserialize, Serialize};

/// Globally unique shot key: which video, which shot within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ShotKey {
    /// Opaque video identifier assigned by the catalog layer.
    pub video: u64,
    /// Shot id within the video.
    pub shot: u32,
}

/// One row of the index table (Table 4's columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndexEntry {
    /// The shot this row describes.
    pub key: ShotKey,
    /// `Var^BA`.
    pub var_ba: f64,
    /// `Var^OA`.
    pub var_oa: f64,
}

impl IndexEntry {
    /// Build a row from a shot's feature vector.
    pub fn new(key: ShotKey, feature: ShotFeature) -> Self {
        IndexEntry {
            key,
            var_ba: feature.var_ba,
            var_oa: feature.var_oa,
        }
    }

    /// `√Var^BA` (Eq. 8's left side).
    #[inline]
    pub fn sqrt_ba(&self) -> f64 {
        self.var_ba.sqrt()
    }

    /// `√Var^OA`.
    #[inline]
    pub fn sqrt_oa(&self) -> f64 {
        self.var_oa.sqrt()
    }

    /// `D^v = √Var^BA − √Var^OA`.
    #[inline]
    pub fn d_v(&self) -> f64 {
        self.sqrt_ba() - self.sqrt_oa()
    }
}

/// A similarity query: the user's impression of change in background and
/// object areas, plus the matching tolerances.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VarianceQuery {
    /// `Var_q^BA`.
    pub var_ba: f64,
    /// `Var_q^OA`.
    pub var_oa: f64,
    /// α of Eq. 7.
    pub alpha: f64,
    /// β of Eq. 8.
    pub beta: f64,
}

impl VarianceQuery {
    /// The paper's tolerances: α = β = 1.0.
    pub const DEFAULT_ALPHA: f64 = 1.0;
    /// See [`Self::DEFAULT_ALPHA`].
    pub const DEFAULT_BETA: f64 = 1.0;

    /// Query with the paper's default tolerances.
    pub fn new(var_ba: f64, var_oa: f64) -> Self {
        VarianceQuery {
            var_ba,
            var_oa,
            alpha: Self::DEFAULT_ALPHA,
            beta: Self::DEFAULT_BETA,
        }
    }

    /// Query using an existing shot's feature vector as the example
    /// ("retrieve shots like this one" — the Figures 8–10 experiments).
    pub fn by_example(feature: ShotFeature) -> Self {
        Self::new(feature.var_ba, feature.var_oa)
    }

    /// Override the tolerances.
    pub fn with_tolerances(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// `D_q^v`.
    #[inline]
    pub fn d_v(&self) -> f64 {
        self.var_ba.sqrt() - self.var_oa.sqrt()
    }

    /// Whether an entry satisfies Eqs. 7 and 8.
    pub fn matches(&self, e: &IndexEntry) -> bool {
        let dq = self.d_v();
        let di = e.d_v();
        if di < dq - self.alpha || di > dq + self.alpha {
            return false;
        }
        let sq = self.var_ba.sqrt();
        let si = e.sqrt_ba();
        si >= sq - self.beta && si <= sq + self.beta
    }
}

/// A match, with its distance in `(D^v, √Var^BA)` space for ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// The matching row.
    pub entry: IndexEntry,
    /// Euclidean distance to the query in `(D^v, √Var^BA)` space; used only
    /// to order equally-valid matches for display (the paper shows "the
    /// three most similar shots").
    pub distance: f64,
}

/// The sorted index table.
///
/// Entries are kept ordered by `D^v`; Eq. 7 becomes one `partition_point`
/// range and Eq. 8 a filter over it. Build is O(n log n), queries are
/// O(log n + answer).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VarianceIndex {
    /// Sorted by `d_v` ascending.
    entries: Vec<IndexEntry>,
}

impl VarianceIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unsorted rows.
    pub fn build(mut entries: Vec<IndexEntry>) -> Self {
        entries.sort_by(|a, b| a.d_v().total_cmp(&b.d_v()));
        VarianceIndex { entries }
    }

    /// Insert one row (keeps order; O(n) shift).
    pub fn insert(&mut self, entry: IndexEntry) {
        let pos = self.entries.partition_point(|e| e.d_v() < entry.d_v());
        self.entries.insert(pos, entry);
    }

    /// Remove every row of a video (when a video is deleted from the
    /// database). Returns how many rows were removed.
    pub fn remove_video(&mut self, video: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.key.video != video);
        before - self.entries.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index has no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All rows, sorted by `D^v`.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Eq. 7 + Eq. 8 range query, results sorted by distance to the query
    /// (nearest first; ties by key for determinism).
    pub fn query(&self, q: &VarianceQuery) -> Vec<Match> {
        let dq = q.d_v();
        let lo = self.entries.partition_point(|e| e.d_v() < dq - q.alpha);
        let hi = self.entries.partition_point(|e| e.d_v() <= dq + q.alpha);
        let sq = q.var_ba.sqrt();
        let mut out: Vec<Match> = self.entries[lo..hi]
            .iter()
            .filter(|e| {
                let si = e.sqrt_ba();
                si >= sq - q.beta && si <= sq + q.beta
            })
            .map(|e| Match {
                entry: *e,
                distance: ((e.d_v() - dq).powi(2) + (e.sqrt_ba() - sq).powi(2)).sqrt(),
            })
            .collect();
        out.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then(a.entry.key.cmp(&b.entry.key))
        });
        out
    }

    /// Reference implementation: linear scan with the same predicate.
    /// Exists to validate the sorted index and to benchmark against it.
    pub fn query_scan(&self, q: &VarianceQuery) -> Vec<Match> {
        let dq = q.d_v();
        let sq = q.var_ba.sqrt();
        let mut out: Vec<Match> = self
            .entries
            .iter()
            .filter(|e| q.matches(e))
            .map(|e| Match {
                entry: *e,
                distance: ((e.d_v() - dq).powi(2) + (e.sqrt_ba() - sq).powi(2)).sqrt(),
            })
            .collect();
        out.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then(a.entry.key.cmp(&b.entry.key))
        });
        out
    }
}

/// The quantization-based alternative the paper mentions in passing:
/// `D^v` and `√Var^BA` are quantized to a grid of cell size α (resp. β)
/// and matching shots are looked up in the query's cell and its neighbors.
///
/// Exact with respect to Eqs. 7–8 (a candidate superset is range-checked),
/// but with O(1) expected lookup. Used by the ablation bench.
#[derive(Debug, Clone, Default)]
pub struct QuantizedIndex {
    cell_alpha: f64,
    cell_beta: f64,
    cells: std::collections::HashMap<(i64, i64), Vec<IndexEntry>>,
}

impl QuantizedIndex {
    /// Build with the given cell sizes (use the α/β you will query with).
    pub fn build(entries: &[IndexEntry], cell_alpha: f64, cell_beta: f64) -> Self {
        assert!(
            cell_alpha > 0.0 && cell_beta > 0.0,
            "cell sizes must be positive"
        );
        let mut cells: std::collections::HashMap<(i64, i64), Vec<IndexEntry>> =
            std::collections::HashMap::new();
        for e in entries {
            let cx = (e.d_v() / cell_alpha).floor() as i64;
            let cy = (e.sqrt_ba() / cell_beta).floor() as i64;
            cells.entry((cx, cy)).or_default().push(*e);
        }
        QuantizedIndex {
            cell_alpha,
            cell_beta,
            cells,
        }
    }

    /// Same semantics as [`VarianceIndex::query`].
    pub fn query(&self, q: &VarianceQuery) -> Vec<Match> {
        let dq = q.d_v();
        let sq = q.var_ba.sqrt();
        // The query window spans alpha/cell_alpha cells; visit all cells
        // overlapping it.
        let cx_lo = ((dq - q.alpha) / self.cell_alpha).floor() as i64;
        let cx_hi = ((dq + q.alpha) / self.cell_alpha).floor() as i64;
        let cy_lo = ((sq - q.beta) / self.cell_beta).floor() as i64;
        let cy_hi = ((sq + q.beta) / self.cell_beta).floor() as i64;
        let mut out = Vec::new();
        for cx in cx_lo..=cx_hi {
            for cy in cy_lo..=cy_hi {
                if let Some(v) = self.cells.get(&(cx, cy)) {
                    for e in v {
                        if q.matches(e) {
                            out.push(Match {
                                entry: *e,
                                distance: ((e.d_v() - dq).powi(2) + (e.sqrt_ba() - sq).powi(2))
                                    .sqrt(),
                            });
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then(a.entry.key.cmp(&b.entry.key))
        });
        out
    }
}

/// One row of the *extended* index (§6's more discriminating model):
/// per-channel variances instead of channel-averaged ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExtendedEntry {
    /// The shot this row describes.
    pub key: ShotKey,
    /// Per-channel feature vector.
    pub feature: crate::variance::ExtendedShotFeature,
}

impl ExtendedEntry {
    /// Mean of the per-channel `D^v` values — the index's sort key. (Note:
    /// this is *not* the basic model's `D^v`, which averages the variances
    /// before the square root; the per-channel mean is what the α-window
    /// soundly bounds: if every channel's `D^v` is within α of the query's,
    /// so is their mean.)
    pub fn mean_d_v(&self) -> f64 {
        let d = self.feature.d_v();
        (d[0] + d[1] + d[2]) / 3.0
    }
}

/// An extended query: Eqs. 7–8 applied *per channel* — a shot matches only
/// if every channel's `D^v` is within α and every channel's `√Var^BA` is
/// within β of the query's. Strictly more discriminating than the basic
/// model on the same tolerances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtendedQuery {
    /// The example feature to match.
    pub feature: crate::variance::ExtendedShotFeature,
    /// α of Eq. 7 (per channel).
    pub alpha: f64,
    /// β of Eq. 8 (per channel).
    pub beta: f64,
}

impl ExtendedQuery {
    /// Query by example with the paper's default tolerances.
    pub fn by_example(feature: crate::variance::ExtendedShotFeature) -> Self {
        ExtendedQuery {
            feature,
            alpha: VarianceQuery::DEFAULT_ALPHA,
            beta: VarianceQuery::DEFAULT_BETA,
        }
    }

    /// Override the tolerances.
    pub fn with_tolerances(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// Per-channel Eqs. 7–8.
    pub fn matches(&self, e: &ExtendedEntry) -> bool {
        let qd = self.feature.d_v();
        let ed = e.feature.d_v();
        for ch in 0..3 {
            if (ed[ch] - qd[ch]).abs() > self.alpha {
                return false;
            }
            let qs = self.feature.var_ba[ch].sqrt();
            let es = e.feature.var_ba[ch].sqrt();
            if (es - qs).abs() > self.beta {
                return false;
            }
        }
        true
    }

    /// Euclidean distance in the 6-dimensional `(D^v, √Var^BA)` per-channel
    /// space, for ranking.
    pub fn distance(&self, e: &ExtendedEntry) -> f64 {
        let qd = self.feature.d_v();
        let ed = e.feature.d_v();
        let mut sum = 0.0;
        for ch in 0..3 {
            sum += (ed[ch] - qd[ch]).powi(2);
            sum += (e.feature.var_ba[ch].sqrt() - self.feature.var_ba[ch].sqrt()).powi(2);
        }
        sum.sqrt()
    }
}

/// The extended index: rows sorted by channel-averaged `D^v` (which bounds
/// the per-channel window: if every channel's `D^v` is within α of the
/// query's, so is their mean), then filtered per channel.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExtendedIndex {
    entries: Vec<ExtendedEntry>,
}

impl ExtendedIndex {
    /// Build from unsorted rows.
    pub fn build(mut entries: Vec<ExtendedEntry>) -> Self {
        entries.sort_by(|a, b| a.mean_d_v().total_cmp(&b.mean_d_v()));
        ExtendedIndex { entries }
    }

    /// Insert one row.
    pub fn insert(&mut self, entry: ExtendedEntry) {
        let pos = self
            .entries
            .partition_point(|e| e.mean_d_v() < entry.mean_d_v());
        self.entries.insert(pos, entry);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index has no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Range query, nearest first.
    pub fn query(&self, q: &ExtendedQuery) -> Vec<(ExtendedEntry, f64)> {
        // Mean D^v is within α whenever all channels are: prune with it.
        let qd = q.feature.d_v();
        let mean_qd = (qd[0] + qd[1] + qd[2]) / 3.0;
        let lo = self
            .entries
            .partition_point(|e| e.mean_d_v() < mean_qd - q.alpha);
        let hi = self
            .entries
            .partition_point(|e| e.mean_d_v() <= mean_qd + q.alpha);
        let mut out: Vec<(ExtendedEntry, f64)> = self.entries[lo..hi]
            .iter()
            .filter(|e| q.matches(e))
            .map(|e| (*e, q.distance(e)))
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.key.cmp(&b.0.key)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(video: u64, shot: u32, var_ba: f64, var_oa: f64) -> IndexEntry {
        IndexEntry {
            key: ShotKey { video, shot },
            var_ba,
            var_oa,
        }
    }

    #[test]
    fn dv_arithmetic() {
        // D^v = sqrt(Var^BA) - sqrt(Var^OA). (The paper's Table 4(b) quotes
        // D^v = 5.86 with Var^BA = 17.37 for shot #12W, which is only
        // consistent if the two columns come from different rows of the
        // scanned table; we verify our own arithmetic, not the scan.)
        let e = entry(1, 12, 25.0, 4.0);
        assert!((e.d_v() - 3.0).abs() < 1e-12); // 5 - 2
        assert!((e.sqrt_ba() - 5.0).abs() < 1e-12);
        assert!((e.sqrt_oa() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn query_window_inclusive_bounds() {
        // Entry exactly on the α edge is included (Eq. 7 uses ≤).
        let idx = VarianceIndex::build(vec![
            entry(1, 0, 16.0, 9.0), // d_v = 1, sqrt_ba = 4
            entry(1, 1, 25.0, 9.0), // d_v = 2, sqrt_ba = 5
            entry(1, 2, 36.0, 9.0), // d_v = 3, sqrt_ba = 6
        ]);
        // Query d_v = 2, sqrt_ba = 5, α = 1, β = 1: all three match
        // (d_v in [1,3], sqrt_ba in [4,6]).
        let q = VarianceQuery::new(25.0, 9.0);
        let m = idx.query(&q);
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].entry.key.shot, 1, "exact match ranks first");
    }

    #[test]
    fn eq8_filters_background_variance() {
        // Two shots with the same d_v but very different sqrt_ba: only the
        // near one matches.
        let idx = VarianceIndex::build(vec![
            entry(1, 0, 16.0, 16.0),   // d_v = 0, sqrt_ba = 4
            entry(1, 1, 100.0, 100.0), // d_v = 0, sqrt_ba = 10
        ]);
        let q = VarianceQuery::new(16.0, 16.0);
        let m = idx.query(&q);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].entry.key.shot, 0);
    }

    #[test]
    fn sorted_and_scan_agree() {
        let entries: Vec<IndexEntry> = (0..200)
            .map(|i| {
                let v = f64::from(i);
                entry(i as u64 % 3, i, (v * 0.37) % 40.0, (v * 0.71) % 30.0)
            })
            .collect();
        let idx = VarianceIndex::build(entries);
        for i in 0..40 {
            let q =
                VarianceQuery::new(f64::from(i), f64::from(40 - i) * 0.5).with_tolerances(1.0, 2.0);
            let a = idx.query(&q);
            let b = idx.query_scan(&q);
            assert_eq!(a.len(), b.len(), "query {i}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.entry.key, y.entry.key);
            }
        }
    }

    #[test]
    fn quantized_agrees_with_sorted() {
        let entries: Vec<IndexEntry> = (0..300)
            .map(|i| {
                let v = f64::from(i);
                entry(7, i, (v * 1.31) % 55.0, (v * 0.47) % 25.0)
            })
            .collect();
        let idx = VarianceIndex::build(entries.clone());
        let qidx = QuantizedIndex::build(&entries, 1.0, 1.0);
        for i in 0..30 {
            let q = VarianceQuery::new(f64::from(i * 2), f64::from(i));
            let a = idx.query(&q);
            let b = qidx.query(&q);
            assert_eq!(
                a.iter().map(|m| m.entry.key).collect::<Vec<_>>(),
                b.iter().map(|m| m.entry.key).collect::<Vec<_>>(),
                "query {i}"
            );
        }
    }

    #[test]
    fn insert_maintains_order() {
        let mut idx = VarianceIndex::new();
        for (ba, oa) in [(9.0, 1.0), (1.0, 9.0), (25.0, 25.0), (49.0, 0.0)] {
            idx.insert(entry(1, idx.len() as u32, ba, oa));
        }
        let dvs: Vec<f64> = idx.entries().iter().map(IndexEntry::d_v).collect();
        assert!(dvs.windows(2).all(|w| w[0] <= w[1]), "{dvs:?}");
    }

    #[test]
    fn remove_video_drops_only_that_video() {
        let mut idx = VarianceIndex::build(vec![
            entry(1, 0, 1.0, 1.0),
            entry(2, 0, 2.0, 2.0),
            entry(1, 1, 3.0, 3.0),
        ]);
        assert_eq!(idx.remove_video(1), 2);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.entries()[0].key.video, 2);
    }

    #[test]
    fn empty_index_empty_answers() {
        let idx = VarianceIndex::new();
        assert!(idx.query(&VarianceQuery::new(5.0, 5.0)).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn by_example_returns_the_example_first() {
        let entries: Vec<IndexEntry> = (0..50)
            .map(|i| entry(1, i, f64::from(i) * 2.0, f64::from(i)))
            .collect();
        let idx = VarianceIndex::build(entries.clone());
        let q = VarianceQuery::by_example(crate::variance::ShotFeature {
            var_ba: entries[20].var_ba,
            var_oa: entries[20].var_oa,
        });
        let m = idx.query(&q);
        assert!(!m.is_empty());
        assert_eq!(m[0].entry.key.shot, 20);
        assert_eq!(m[0].distance, 0.0);
    }

    fn ext_entry(shot: u32, var_ba: [f64; 3], var_oa: [f64; 3]) -> ExtendedEntry {
        ExtendedEntry {
            key: ShotKey { video: 1, shot },
            feature: crate::variance::ExtendedShotFeature { var_ba, var_oa },
        }
    }

    #[test]
    fn extended_query_separates_channel_collisions() {
        // Two shots with the same channel-averaged variances but different
        // per-channel distributions: the basic model cannot tell them apart
        // (identical D^v and sqrt BA); the extended model can.
        let red_only = ext_entry(0, [30.0, 0.0, 0.0], [0.0; 3]);
        let spread = ext_entry(1, [10.0, 10.0, 10.0], [0.0; 3]);
        let basic_red = IndexEntry::new(red_only.key, red_only.feature.collapse());
        let basic_spread = IndexEntry::new(spread.key, spread.feature.collapse());
        assert!((basic_red.d_v() - basic_spread.d_v()).abs() < 1e-9);

        let idx = ExtendedIndex::build(vec![red_only, spread]);
        let q = ExtendedQuery::by_example(red_only.feature);
        let hits: Vec<u32> = idx.query(&q).into_iter().map(|(e, _)| e.key.shot).collect();
        assert_eq!(hits, vec![0], "extended query must exclude the collider");
    }

    #[test]
    fn extended_exact_match_first() {
        let entries: Vec<ExtendedEntry> = (0..24)
            .map(|i| {
                let v = f64::from(i);
                ext_entry(i, [v, v * 0.5, v * 0.25], [v * 0.1, 0.0, v * 0.3])
            })
            .collect();
        let idx = ExtendedIndex::build(entries.clone());
        let q = ExtendedQuery::by_example(entries[10].feature);
        let hits = idx.query(&q);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].0.key.shot, 10);
        assert_eq!(hits[0].1, 0.0);
    }

    #[test]
    fn extended_insert_keeps_order() {
        let mut idx = ExtendedIndex::default();
        for i in [5u32, 1, 9, 3] {
            let v = f64::from(i);
            idx.insert(ext_entry(i, [v; 3], [0.0; 3]));
        }
        assert_eq!(idx.len(), 4);
        let q = ExtendedQuery::by_example(crate::variance::ExtendedShotFeature {
            var_ba: [9.0; 3],
            var_oa: [0.0; 3],
        })
        .with_tolerances(100.0, 100.0);
        let hits = idx.query(&q);
        assert_eq!(hits[0].0.key.shot, 9);
        assert!(!idx.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The extended model never matches more than the basic model would
        /// on the same per-channel data... is false in general; what *is*
        /// guaranteed: extended query results all satisfy the per-channel
        /// predicate, and the index agrees with a full scan.
        #[test]
        fn prop_extended_index_equals_scan(
            rows in prop::collection::vec(
                ([0.0f64..40.0, 0.0f64..40.0, 0.0f64..40.0],
                 [0.0f64..40.0, 0.0f64..40.0, 0.0f64..40.0]),
                0..48,
            ),
            qi in 0usize..48,
        ) {
            let entries: Vec<ExtendedEntry> = rows
                .iter()
                .enumerate()
                .map(|(i, (ba, oa))| ext_entry(i as u32, *ba, *oa))
                .collect();
            let idx = ExtendedIndex::build(entries.clone());
            let q = match entries.get(qi.min(entries.len().saturating_sub(1))) {
                Some(e) => ExtendedQuery::by_example(e.feature),
                None => return Ok(()),
            };
            let via_index: Vec<u32> = idx.query(&q).into_iter().map(|(e, _)| e.key.shot).collect();
            let mut via_scan: Vec<(f64, u32)> = entries
                .iter()
                .filter(|e| q.matches(e))
                .map(|e| (q.distance(e), e.key.shot))
                .collect();
            via_scan.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            prop_assert_eq!(via_index, via_scan.into_iter().map(|(_, s)| s).collect::<Vec<_>>());
        }

        /// Every returned match satisfies Eqs. 7–8; every non-returned entry
        /// violates one of them.
        #[test]
        fn prop_query_exactly_the_predicate(
            vars in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 0..64),
            qba in 0.0f64..100.0,
            qoa in 0.0f64..100.0,
            alpha in 0.1f64..5.0,
            beta in 0.1f64..5.0,
        ) {
            let entries: Vec<IndexEntry> = vars
                .iter()
                .enumerate()
                .map(|(i, &(ba, oa))| entry(1, i as u32, ba, oa))
                .collect();
            let idx = VarianceIndex::build(entries.clone());
            let q = VarianceQuery::new(qba, qoa).with_tolerances(alpha, beta);
            let got: std::collections::HashSet<u32> =
                idx.query(&q).iter().map(|m| m.entry.key.shot).collect();
            for e in &entries {
                prop_assert_eq!(got.contains(&e.key.shot), q.matches(e),
                    "entry {:?} vs query {:?}", e, q);
            }
        }

        /// Sorted, scan, and quantized implementations agree on arbitrary data.
        #[test]
        fn prop_three_implementations_agree(
            vars in prop::collection::vec((0.0f64..60.0, 0.0f64..60.0), 0..48),
            qba in 0.0f64..60.0,
            qoa in 0.0f64..60.0,
        ) {
            let entries: Vec<IndexEntry> = vars
                .iter()
                .enumerate()
                .map(|(i, &(ba, oa))| entry(3, i as u32, ba, oa))
                .collect();
            let idx = VarianceIndex::build(entries.clone());
            let qidx = QuantizedIndex::build(&entries, 1.0, 1.0);
            let q = VarianceQuery::new(qba, qoa);
            let a: Vec<u32> = idx.query(&q).iter().map(|m| m.entry.key.shot).collect();
            let b: Vec<u32> = idx.query_scan(&q).iter().map(|m| m.entry.key.shot).collect();
            let c: Vec<u32> = qidx.query(&q).iter().map(|m| m.entry.key.shot).collect();
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&a, &c);
        }

        /// Results come back nearest-first.
        #[test]
        fn prop_results_sorted_by_distance(
            vars in prop::collection::vec((0.0f64..40.0, 0.0f64..40.0), 0..48),
            qba in 0.0f64..40.0,
            qoa in 0.0f64..40.0,
        ) {
            let entries: Vec<IndexEntry> = vars
                .iter()
                .enumerate()
                .map(|(i, &(ba, oa))| entry(1, i as u32, ba, oa))
                .collect();
            let idx = VarianceIndex::build(entries);
            let m = idx.query(&VarianceQuery::new(qba, qoa));
            prop_assert!(m.windows(2).all(|w| w[0].distance <= w[1].distance));
        }
    }
}

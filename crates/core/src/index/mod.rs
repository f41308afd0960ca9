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
//! The one index table is [`ShotIndex`]: the paper's "index table keyed on
//! `D^v`", kept as three parallel columns (rows, `D^v`, `√Var^BA`) sorted
//! by `(D^v, key)`. A range query is two binary searches and one walk:
//! the partition points of `D_q^v − α` and `D_q^v + α` bound the rows
//! Eq. 7 accepts, a count pass tests Eq. 8 on exactly those rows, and a
//! walk outward from `D_q^v` offers the nearest few to a bounded heap. A
//! top-k query is the same walk with no window. Every probe's work is
//! exact and reported by [`Explain`]:
//!
//! * [`table`] — the sorted columns and the reads over them (the
//!   window, the count pass, the walk, the merge);
//! * [`shot_index`] — [`ShotIndex`] itself, the maintained index used by
//!   the database layer and the experiments: the table, the staged tier,
//!   [`ShotIndex::select`] (the one door every query runs through), and
//!   its `core.index.*` metrics.
//!
//! [`ExtendedQuery`] is the §6 per-channel model, kept for the
//! basic-vs-extended ablation: a linear scan that tests each channel
//! through the basic model's Eqs. 7–8 bounds.
//!
//! **Tie-break contract:** every query in this family orders results by
//! ascending `(distance, ShotKey)` — equal-distance matches come back in
//! `(video, shot)` order. The property suites pin the index to the
//! brute-force linear scan under exactly this rule.

pub mod shot_index;
pub mod table;

pub use shot_index::{Explain, IndexRuntime, ShotIndex};
pub use table::ProbeStats;

use crate::variance::ShotFeature;

/// Globally unique shot key: which video, which shot within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShotKey {
    /// Opaque video identifier assigned by the catalog layer.
    pub video: u64,
    /// Shot id within the video.
    pub shot: u32,
}

/// One row of the index table (Table 4's columns).
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
        Window::new(self).accepts(e.d_v(), e.sqrt_ba())
    }
}

/// One query's Eqs. 7–8 bounds and distance origin, computed once per
/// probe so a row's test is four comparisons on its `(D^v, √Var^BA)`
/// pair. Every executor and [`VarianceQuery::matches`] test rows
/// through it, so they accept and rank with the same bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window {
    dq: f64,
    sq: f64,
    dv_lo: f64,
    dv_hi: f64,
    sba_lo: f64,
    sba_hi: f64,
}

impl Window {
    pub(crate) fn new(q: &VarianceQuery) -> Self {
        let dq = q.d_v();
        let sq = q.var_ba.sqrt();
        Window {
            dq,
            sq,
            dv_lo: dq - q.alpha,
            dv_hi: dq + q.alpha,
            sba_lo: sq - q.beta,
            sba_hi: sq + q.beta,
        }
    }

    /// Eq. 7 for a row with `D^v = dv`. A NaN anywhere fails it, as it
    /// lies outside the table's partition points (see
    /// `Table::window`).
    #[inline]
    pub(crate) fn eq7(&self, dv: f64) -> bool {
        (dv >= self.dv_lo) & (dv <= self.dv_hi)
    }

    /// Eq. 8 for a row with `√Var^BA = sba`. A NaN anywhere fails it.
    #[inline]
    pub(crate) fn eq8(&self, sba: f64) -> bool {
        (sba >= self.sba_lo) & (sba <= self.sba_hi)
    }

    /// Eqs. 7 and 8. Branch-free, so a counting loop vectorizes.
    #[inline]
    pub(crate) fn accepts(&self, dv: f64, sba: f64) -> bool {
        self.eq7(dv) & self.eq8(sba)
    }

    /// Euclidean distance from the query point in `(D^v, √Var^BA)` space.
    #[inline]
    pub(crate) fn distance(&self, dv: f64, sba: f64) -> f64 {
        ((dv - self.dq).powi(2) + (sba - self.sq).powi(2)).sqrt()
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

/// One row of the *extended* model (§6's more discriminating model):
/// per-channel variances instead of channel-averaged ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtendedEntry {
    /// The shot this row describes.
    pub key: ShotKey,
    /// Per-channel feature vector.
    pub feature: crate::variance::ExtendedShotFeature,
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

    /// Per-channel Eqs. 7–8: each channel's `(D^v, √Var^BA)` must pass
    /// the basic model's window around the query's same channel.
    pub fn matches(&self, e: &ExtendedEntry) -> bool {
        let ed = e.feature.d_v();
        (0..3).all(|ch| {
            let q = VarianceQuery::new(self.feature.var_ba[ch], self.feature.var_oa[ch])
                .with_tolerances(self.alpha, self.beta);
            Window::new(&q).accepts(ed[ch], e.feature.var_ba[ch].sqrt())
        })
    }

    /// The linear scan: every row that [`Self::matches`], with its
    /// [`Self::distance`], in ascending `(distance, key)` order.
    pub fn scan<'a>(
        &self,
        rows: impl IntoIterator<Item = &'a ExtendedEntry>,
    ) -> Vec<(ExtendedEntry, f64)> {
        let mut out: Vec<(ExtendedEntry, f64)> = rows
            .into_iter()
            .filter(|e| self.matches(e))
            .map(|e| (*e, self.distance(e)))
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.key.cmp(&b.0.key)));
        out
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

    fn build(entries: Vec<IndexEntry>) -> ShotIndex {
        ShotIndex::from_entries(entries)
    }

    /// Every Eqs. 7–8 match, nearest first: [`ShotIndex::select`]
    /// keeping every row, uncapped.
    fn range(idx: &ShotIndex, q: &VarianceQuery) -> Vec<Match> {
        idx.select(q, None, usize::MAX, None).0
    }

    fn keys(matches: &[Match]) -> Vec<ShotKey> {
        matches.iter().map(|m| m.entry.key).collect()
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
        let idx = build(vec![
            entry(1, 0, 16.0, 9.0), // d_v = 1, sqrt_ba = 4
            entry(1, 1, 25.0, 9.0), // d_v = 2, sqrt_ba = 5
            entry(1, 2, 36.0, 9.0), // d_v = 3, sqrt_ba = 6
        ]);
        // Query d_v = 2, sqrt_ba = 5, α = 1, β = 1: all three match
        // (d_v in [1,3], sqrt_ba in [4,6]).
        let q = VarianceQuery::new(25.0, 9.0);
        let m = range(&idx, &q);
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].entry.key.shot, 1, "exact match ranks first");
    }

    #[test]
    fn eq8_filters_background_variance() {
        // Two shots with the same d_v but very different sqrt_ba: only the
        // near one matches.
        let idx = build(vec![
            entry(1, 0, 16.0, 16.0),   // d_v = 0, sqrt_ba = 4
            entry(1, 1, 100.0, 100.0), // d_v = 0, sqrt_ba = 10
        ]);
        let q = VarianceQuery::new(16.0, 16.0);
        let m = range(&idx, &q);
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
        let idx = build(entries);
        for i in 0..40 {
            let q =
                VarianceQuery::new(f64::from(i), f64::from(40 - i) * 0.5).with_tolerances(1.0, 2.0);
            let a = range(&idx, &q);
            let b = idx.query_scan(&q);
            assert_eq!(keys(&a), keys(&b), "query {i}");
            assert_eq!(keys(&idx.probe_range(&q).0), keys(&b), "query {i}");
        }
    }

    #[test]
    fn quantized_agrees_with_sorted() {
        // Features on a coarse grid: many rows share a D^v, so the window
        // edges and the walk land inside runs of equal D^v.
        let entries: Vec<IndexEntry> = (0..300)
            .map(|i| {
                let v = f64::from(i);
                entry(
                    7,
                    i,
                    ((v * 1.31) % 55.0).round(),
                    ((v * 0.47) % 25.0).round(),
                )
            })
            .collect();
        let idx = build(entries);
        for i in 0..30 {
            let q = VarianceQuery::new(f64::from(i * 2), f64::from(i));
            let want = keys(&idx.query_scan(&q));
            assert_eq!(keys(&idx.probe_range(&q).0), want, "query {i}");
            assert_eq!(
                keys(&idx.select(&q, Some(9), usize::MAX, None).0),
                keys(&idx.query_topk_scan(&q, 9)),
                "query {i}"
            );
        }
    }

    #[test]
    fn nan_query_gets_one_answer_on_every_path() {
        // A NaN bound fails Eq. 7 (or Eq. 8) for every row, so the index,
        // the scan and the predicate all answer nothing.
        let entries: Vec<IndexEntry> = (0..2_000)
            .map(|i| {
                let v = f64::from(i);
                entry(u64::from(i % 11), i, (v * 0.37) % 40.0, (v * 0.71) % 30.0)
            })
            .collect();
        let idx = build(entries.clone());
        for idx in [&idx, &build(entries[..8].to_vec())] {
            for q in [
                VarianceQuery::new(4.0, f64::NAN),
                VarianceQuery::new(f64::NAN, 4.0),
                VarianceQuery::new(4.0, 4.0).with_tolerances(f64::NAN, 1.0),
                VarianceQuery::new(4.0, 4.0).with_tolerances(1.0, f64::NAN),
            ] {
                let predicate = idx.entries().iter().filter(|e| q.matches(e)).count();
                assert_eq!(predicate, 0, "{q:?}");
                assert!(range(idx, &q).is_empty(), "{q:?}");
                assert!(idx.query_scan(&q).is_empty(), "{q:?}");
            }
        }
    }

    #[test]
    fn insert_maintains_order() {
        let mut idx = ShotIndex::new();
        for (ba, oa) in [(9.0, 1.0), (1.0, 9.0), (25.0, 25.0), (49.0, 0.0)] {
            idx.extend(vec![entry(1, idx.len() as u32, ba, oa)]);
        }
        let dvs: Vec<f64> = idx.entries().iter().map(IndexEntry::d_v).collect();
        assert!(dvs.windows(2).all(|w| w[0] <= w[1]), "{dvs:?}");
    }

    #[test]
    fn remove_video_drops_only_that_video() {
        let mut idx = build(vec![
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
        let idx = ShotIndex::new();
        assert!(range(&idx, &VarianceQuery::new(5.0, 5.0)).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn by_example_returns_the_example_first() {
        let entries: Vec<IndexEntry> = (0..50)
            .map(|i| entry(1, i, f64::from(i) * 2.0, f64::from(i)))
            .collect();
        let idx = build(entries.clone());
        let q = VarianceQuery::by_example(crate::variance::ShotFeature {
            var_ba: entries[20].var_ba,
            var_oa: entries[20].var_oa,
        });
        let m = range(&idx, &q);
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

        let q = ExtendedQuery::by_example(red_only.feature);
        let hits: Vec<u32> = q
            .scan(&[red_only, spread])
            .into_iter()
            .map(|(e, _)| e.key.shot)
            .collect();
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
        let q = ExtendedQuery::by_example(entries[10].feature);
        let hits = q.scan(&entries);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].0.key.shot, 10);
        assert_eq!(hits[0].1, 0.0);
    }

    #[test]
    fn extended_scan_keeps_a_match_at_the_window_edge() {
        // Every channel's D^v and √Var^BA lie exactly α = β = 1 above the
        // query's, so the row matches. Its channel-mean D^v
        // (16.916666666666668) lies just past the query's mean + α
        // (16.916666666666664), so a prune on the mean would drop it.
        let sq = |v: [f64; 3]| v.map(|x| x * x);
        let example = ext_entry(0, sq([9.25, 21.875, 16.625]), [0.0; 3]);
        let edge = ext_entry(1, sq([10.25, 22.875, 17.625]), [0.0; 3]);
        let q = ExtendedQuery::by_example(example.feature);
        assert!(q.matches(&edge));
        let hits: Vec<u32> = q
            .scan(&[edge, example])
            .into_iter()
            .map(|(e, _)| e.key.shot)
            .collect();
        assert_eq!(hits, [0, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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
            let idx = build(entries.clone());
            let q = VarianceQuery::new(qba, qoa).with_tolerances(alpha, beta);
            let got: std::collections::HashSet<u32> =
                range(&idx, &q).iter().map(|m| m.entry.key.shot).collect();
            for e in &entries {
                prop_assert_eq!(got.contains(&e.key.shot), q.matches(e),
                    "entry {:?} vs query {:?}", e, q);
            }
        }

        /// The index, the forced scan, and the Eq. 7–8 predicate
        /// applied row by row agree on arbitrary data, order included.
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
            let idx = build(entries.clone());
            let q = VarianceQuery::new(qba, qoa);
            let (dq, sq) = (q.d_v(), q.var_ba.sqrt());
            let mut filtered: Vec<(f64, ShotKey)> = entries
                .iter()
                .filter(|e| q.matches(e))
                .map(|e| (((e.d_v() - dq).powi(2) + (e.sqrt_ba() - sq).powi(2)).sqrt(), e.key))
                .collect();
            filtered.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let c: Vec<ShotKey> = filtered.into_iter().map(|(_, k)| k).collect();
            let a = keys(&idx.probe_range(&q).0);
            let b = keys(&idx.query_scan(&q));
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
            let idx = build(entries);
            let m = range(&idx, &VarianceQuery::new(qba, qoa));
            prop_assert!(m.windows(2).all(|w| w[0].distance <= w[1].distance));
        }
    }
}

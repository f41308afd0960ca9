//! The sorted bucket array over `D^v` — the sublinear replacement for the
//! flat Table-4 scan.
//!
//! Entries are kept in one contiguous array sorted by `(D^v, ShotKey)`;
//! on top of it sits a *bucket directory*: the `D^v` axis is cut into
//! fixed-width buckets (width = [`BucketParams::bucket_width`], anchored
//! at the corpus minimum) and `offsets[b]..offsets[b+1]` is the slice of
//! the array belonging to bucket `b`. A probe therefore touches only the
//! buckets overlapping its `D^v` window and scores only the entries
//! inside them — the two numbers ([`ProbeStats`]) that the
//! [`CostModel`](super::cost::CostModel) predicts and the accuracy suite
//! checks.
//!
//! Two query shapes are supported, both **exact** (pinned against the
//! brute-force linear scan by the equivalence property suite):
//!
//! * **range** — the paper's Eqs. 7–8 window, identical semantics to
//!   [`VarianceQuery::matches`](super::VarianceQuery::matches) applied
//!   row by row. The test reads the cached `D^v` / `√Var^BA` columns
//!   (the same `d_v()` / `sqrt_ba()` bits the predicate computes) against
//!   bounds hoisted out of the row loop, so a candidate costs four
//!   comparisons, plus one square root for its distance if it matches.
//!   The planner's capped range never builds the match set: it counts
//!   the accepted rows (`count_window`) and then walks outward from
//!   `D_q^v` for the nearest few (`walk_nearest`);
//! * **top-k** — the `k` nearest entries to the query point in
//!   `(D^v, √Var^BA)` space, found by expanding outward from the query's
//!   bucket and stopping once the next bucket's best possible distance
//!   exceeds the current k-th best (ties broken by ascending
//!   [`ShotKey`], so equal-distance buckets are still probed).

use super::{IndexEntry, Match, ShotKey, VarianceQuery, Window};
use crate::index::cost::CorpusStats;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Construction parameters of the [`BucketIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketParams {
    /// Width of one bucket in `D^v` units. Smaller buckets touch fewer
    /// false candidates per probe but make the directory larger; the
    /// effective width is widened automatically when the corpus span
    /// would otherwise explode the directory (see
    /// [`BucketIndex::effective_width`]).
    pub bucket_width: f64,
    /// Number of equi-width bins in the corpus-statistics histogram the
    /// cost model estimates from.
    pub stats_bins: usize,
}

impl Default for BucketParams {
    fn default() -> Self {
        BucketParams {
            bucket_width: 0.25,
            stats_bins: 64,
        }
    }
}

impl BucketParams {
    /// Default parameters with an explicit bucket width.
    pub fn with_bucket_width(bucket_width: f64) -> Self {
        BucketParams {
            bucket_width,
            ..Self::default()
        }
    }

    fn sane_width(&self) -> f64 {
        if self.bucket_width.is_finite() && self.bucket_width > 0.0 {
            self.bucket_width
        } else {
            Self::default().bucket_width
        }
    }
}

/// How much work one probe did — the measured side of the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Buckets visited (for a scan: 0).
    pub buckets_touched: usize,
    /// Entries whose predicate/distance was evaluated.
    pub candidates: usize,
}

/// The sorted bucket array. Immutable once built; the maintained,
/// incrementally-updated wrapper is [`ShotIndex`](super::planner::ShotIndex).
#[derive(Debug, Clone)]
pub struct BucketIndex {
    params: BucketParams,
    /// Sorted by `(D^v, key)` ascending (`total_cmp` on `D^v`).
    entries: Vec<IndexEntry>,
    /// Cached `D^v` per entry (parallel to `entries`).
    dvs: Vec<f64>,
    /// Cached `√Var^BA` per entry.
    sbas: Vec<f64>,
    /// Left edge of bucket 0 (the corpus minimum `D^v`).
    origin: f64,
    /// Effective bucket width (≥ `params.bucket_width`).
    width: f64,
    /// `offsets[b]..offsets[b+1]` is bucket `b`'s slice of `entries`.
    offsets: Vec<u32>,
    stats: CorpusStats,
}

/// Max-heap item of [`Nearest`]: ordered by [`match_order`], so the
/// *worst* kept match is at the top and NaN distances order
/// deterministically.
struct Ranked(Match);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        match_order(&self.0, &other.0)
    }
}

/// A bounded selection of the `limit` smallest matches under
/// `(distance, key)`: a max-heap whose top is the worst match kept so
/// far. Shared by the top-k executors and the range walk.
pub(crate) struct Nearest {
    limit: usize,
    heap: BinaryHeap<Ranked>,
}

impl Nearest {
    /// Keep the `limit` smallest; `rows` bounds how many matches will be
    /// offered, so a huge `limit` sizes no allocation.
    pub(crate) fn new(limit: usize, rows: usize) -> Self {
        Nearest {
            limit,
            heap: BinaryHeap::with_capacity(limit.min(rows)),
        }
    }

    /// How many matches the selection keeps.
    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    /// Keep `m` if it is among the `limit` smallest offered so far.
    pub(crate) fn offer(&mut self, m: Match) {
        if self.heap.len() < self.limit {
            self.heap.push(Ranked(m));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if match_order(&m, &worst.0) == Ordering::Less {
                *worst = Ranked(m);
            }
        }
    }

    /// Once full, the worst kept distance: a match farther than this
    /// cannot place (an equal one still can, on a smaller key).
    pub(crate) fn bound(&self) -> Option<f64> {
        if self.heap.len() < self.limit {
            return None;
        }
        self.heap.peek().map(|worst| worst.0.distance)
    }

    /// The kept matches in ascending `(distance, key)` order.
    pub(crate) fn into_sorted(self) -> Vec<Match> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|r| r.0)
            .collect()
    }
}

/// Sort comparator shared by every build path: ascending `(D^v, key)`.
pub(crate) fn entry_order(a: &(f64, IndexEntry), b: &(f64, IndexEntry)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.key.cmp(&b.1.key))
}

/// Result order of every query: ascending `(distance, key)`.
pub(crate) fn match_order(a: &Match, b: &Match) -> Ordering {
    a.distance
        .total_cmp(&b.distance)
        .then(a.entry.key.cmp(&b.entry.key))
}

impl BucketIndex {
    /// Build from unsorted rows.
    pub fn build(entries: Vec<IndexEntry>, params: BucketParams) -> Self {
        let mut rows: Vec<(f64, IndexEntry)> = entries.into_iter().map(|e| (e.d_v(), e)).collect();
        rows.sort_by(entry_order);
        Self::from_sorted_rows(rows, params)
    }

    /// Build from rows already sorted by `(D^v, key)` — the incremental
    /// merge path of `ShotIndex`. Debug builds verify the order.
    pub(crate) fn from_sorted_rows(rows: Vec<(f64, IndexEntry)>, params: BucketParams) -> Self {
        debug_assert!(rows
            .windows(2)
            .all(|w| entry_order(&w[0], &w[1]) != Ordering::Greater));
        let n = rows.len();
        let mut entries = Vec::with_capacity(n);
        let mut dvs = Vec::with_capacity(n);
        let mut sbas = Vec::with_capacity(n);
        for (dv, e) in rows {
            entries.push(e);
            dvs.push(dv);
            sbas.push(e.sqrt_ba());
        }

        let base_width = params.sane_width();
        let (origin, width, nbuckets) = if n == 0 {
            (0.0, base_width, 1usize)
        } else {
            let lo = dvs[0];
            let hi = dvs[n - 1];
            let span = if hi.is_finite() && lo.is_finite() {
                (hi - lo).max(0.0)
            } else {
                0.0
            };
            // Cap the directory so a tiny width on a wide corpus cannot
            // allocate an absurd number of buckets.
            let cap = (4 * n + 8).min(1 << 22);
            let mut width = base_width;
            // `as usize` saturates, so a span far wider than the width
            // lands on the cap instead of overflowing the `+ 1`.
            let mut nb = ((span / width).floor() as usize).saturating_add(1);
            if nb > cap {
                width = span / cap as f64;
                nb = ((span / width).floor() as usize).saturating_add(1);
                nb = nb.min(cap + 1);
            }
            (if lo.is_finite() { lo } else { 0.0 }, width, nb.max(1))
        };

        let mut offsets = vec![0u32; nbuckets + 1];
        for &dv in &dvs {
            let b = bucket_of(dv, origin, width, nbuckets);
            offsets[b + 1] += 1;
        }
        for b in 0..nbuckets {
            offsets[b + 1] += offsets[b];
        }

        let stats = CorpusStats::from_sorted_dvs(&dvs, params.stats_bins);
        BucketIndex {
            params,
            entries,
            dvs,
            sbas,
            origin,
            width,
            offsets,
            stats,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index has no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All rows, sorted by `(D^v, key)`.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Cached `(D^v, entry)` rows in index order — the merge input for
    /// incremental refresh.
    pub(crate) fn sorted_rows(&self) -> impl Iterator<Item = (f64, IndexEntry)> + '_ {
        self.dvs.iter().copied().zip(self.entries.iter().copied())
    }

    /// The parameters this index was built with.
    pub fn params(&self) -> BucketParams {
        self.params
    }

    /// The bucket width actually in use (may exceed
    /// [`BucketParams::bucket_width`] when the directory was capped).
    pub fn effective_width(&self) -> f64 {
        self.width
    }

    /// Number of buckets in the directory.
    pub fn bucket_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The corpus statistics the cost model estimates from.
    pub fn stats(&self) -> &CorpusStats {
        &self.stats
    }

    fn bucket_of(&self, dv: f64) -> usize {
        bucket_of(dv, self.origin, self.width, self.bucket_count())
    }

    /// Eqs. 7–8 range query through the bucket directory, plus the probe's
    /// work accounting. Each candidate is tested on its cached columns
    /// (see the module docs). Results sorted by `(distance, key)` —
    /// identical IDs and order to [`Self::range_scan_with_stats`].
    pub fn range_with_stats(&self, q: &VarianceQuery) -> (Vec<Match>, ProbeStats) {
        let (rows, stats) = self.range_slice(q);
        let mut out = self.range_rows(q, rows);
        out.sort_by(match_order);
        (out, stats)
    }

    /// The rows of the buckets overlapping the α-window — every row
    /// Eq. 7 can accept — and the probe's work accounting: the buckets
    /// touched and the rows in them.
    pub(crate) fn range_slice(&self, q: &VarianceQuery) -> (Range<usize>, ProbeStats) {
        if self.entries.is_empty() {
            return (0..0, ProbeStats::default());
        }
        let dq = q.d_v();
        let lo_b = self.bucket_of(dq - q.alpha);
        let hi_b = self.bucket_of(dq + q.alpha);
        let (lo_b, hi_b) = (lo_b.min(hi_b), lo_b.max(hi_b));
        let lo = self.offsets[lo_b] as usize;
        let hi = self.offsets[hi_b + 1] as usize;
        let stats = ProbeStats {
            buckets_touched: hi_b - lo_b + 1,
            candidates: hi - lo,
        };
        (lo..hi, stats)
    }

    /// Reference range probe: linear scan with the same cached-column
    /// test and ordering. `candidates` is always the full table.
    pub fn range_scan_with_stats(&self, q: &VarianceQuery) -> (Vec<Match>, ProbeStats) {
        let (mut out, stats) = self.range_scan_unsorted(q);
        out.sort_by(match_order);
        (out, stats)
    }

    /// [`Self::range_scan_with_stats`] without the final sort.
    pub(crate) fn range_scan_unsorted(&self, q: &VarianceQuery) -> (Vec<Match>, ProbeStats) {
        let (rows, stats) = self.scan_slice();
        (self.range_rows(q, rows), stats)
    }

    /// Every row, and a scan's work accounting: no bucket, every row a
    /// candidate.
    pub(crate) fn scan_slice(&self) -> (Range<usize>, ProbeStats) {
        let stats = ProbeStats {
            buckets_touched: 0,
            candidates: self.entries.len(),
        };
        (0..self.entries.len(), stats)
    }

    /// Eqs. 7–8 over `rows`, read off the cached columns: the rows that
    /// match, in index order, each with its distance.
    fn range_rows(&self, q: &VarianceQuery, rows: Range<usize>) -> Vec<Match> {
        let w = Window::new(q);
        let entries = &self.entries[rows.clone()];
        let dvs = &self.dvs[rows.clone()];
        let sbas = &self.sbas[rows];
        entries
            .iter()
            .zip(dvs.iter().zip(sbas))
            .filter(|(_, (&dv, &sba))| w.accepts(dv, sba))
            .map(|(entry, (&dv, &sba))| Match {
                entry: *entry,
                distance: w.distance(dv, sba),
            })
            .collect()
    }

    /// How many rows of `rows` the window accepts, and how many of those
    /// `keep` keeps (`None` keeps all). Reads the two cached columns
    /// only; without `keep` the loop has no branch. `keep` is called once
    /// per accepted row.
    pub(crate) fn count_window(
        &self,
        w: &Window,
        rows: Range<usize>,
        keep: Option<&mut (dyn FnMut(ShotKey) -> bool + '_)>,
    ) -> (usize, usize) {
        let dvs = &self.dvs[rows.clone()];
        let sbas = &self.sbas[rows.clone()];
        let Some(keep) = keep else {
            let accepted = dvs
                .iter()
                .zip(sbas)
                .map(|(&dv, &sba)| usize::from(w.accepts(dv, sba)))
                .sum();
            return (accepted, accepted);
        };
        let (mut accepted, mut kept) = (0, 0);
        for ((&dv, &sba), e) in dvs.iter().zip(sbas).zip(&self.entries[rows]) {
            if w.accepts(dv, sba) {
                accepted += 1;
                kept += usize::from(keep(e.key));
            }
        }
        (accepted, kept)
    }

    /// Offer to `nearest` the rows of `rows` that the window accepts and
    /// `keep` keeps, of which there are `kept` (as [`Self::count_window`]
    /// counted them). The walk starts at `D_q^v`'s position in the sorted
    /// column and steps outward, always to the side whose next row is
    /// nearer in `D^v`, within `[D_q^v − α, D_q^v + α]`. It stops once
    /// all `kept` rows were offered, or once `nearest` is full and the
    /// next row's `D^v` gap alone puts it past the worst kept distance:
    /// every row further out on either side is farther still, so none
    /// can place. The gap is measured as [`Window::distance`] with a zero
    /// `√Var^BA` term — the same float operations as a row's distance
    /// minus a non-negative addend — so it never exceeds a computed
    /// distance and needs no rounding margin. The rows kept are therefore
    /// exactly those of a full sort, ties by key included.
    ///
    /// A NaN `D^v` sorts to an end of the column yet passes Eq. 7's
    /// comparisons, so a slice holding one is visited whole.
    pub(crate) fn walk_nearest(
        &self,
        w: &Window,
        rows: Range<usize>,
        mut keep: Option<&mut (dyn FnMut(ShotKey) -> bool + '_)>,
        mut kept: usize,
        nearest: &mut Nearest,
    ) {
        let dvs = &self.dvs[rows.clone()];
        let sbas = &self.sbas[rows.clone()];
        let entries = &self.entries[rows];
        let mut visit = |i: usize, nearest: &mut Nearest| {
            let (dv, sba) = (dvs[i], sbas[i]);
            let offered =
                w.accepts(dv, sba) && keep.as_mut().map_or(true, |keep| keep(entries[i].key));
            if offered {
                nearest.offer(Match {
                    entry: entries[i],
                    distance: w.distance(dv, sba),
                });
            }
            offered
        };
        if dvs.first().is_some_and(|dv| dv.is_nan()) || dvs.last().is_some_and(|dv| dv.is_nan()) {
            for i in 0..dvs.len() {
                visit(i, nearest);
            }
            return;
        }
        let mid = dvs.partition_point(|&dv| dv < w.dq);
        // The next rows to visit: `left - 1` below D_q^v, `right` above.
        let (mut left, mut right) = (mid, mid);
        while kept > 0 {
            let l = left.checked_sub(1).filter(|&i| !w.below(dvs[i]));
            let r = Some(right).filter(|&i| i < dvs.len() && !w.above(dvs[i]));
            let go_left = match (l, r) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(l), Some(r)) => w.dq - dvs[l] <= dvs[r] - w.dq,
            };
            let i = if go_left { left - 1 } else { right };
            if nearest
                .bound()
                .is_some_and(|bound| w.distance(dvs[i], w.sq) > bound)
            {
                break;
            }
            if visit(i, nearest) {
                kept -= 1;
            }
            if go_left {
                left -= 1;
            } else {
                right += 1;
            }
        }
    }

    /// The `k` entries nearest to the query point in `(D^v, √Var^BA)`
    /// space (α/β are ignored — top-k is unconditional), expanding
    /// bucket-by-bucket outward from the query's bucket. Exact: same IDs
    /// and order as [`Self::topk_scan_with_stats`], ties by ascending key.
    pub fn topk_with_stats(&self, q: &VarianceQuery, k: usize) -> (Vec<Match>, ProbeStats) {
        if self.entries.is_empty() || k == 0 {
            return (Vec::new(), ProbeStats::default());
        }
        let w = Window::new(q);
        let dq = q.d_v();
        let nb = self.bucket_count();
        let center = self.bucket_of(dq);
        let mut nearest = Nearest::new(k, self.entries.len());
        let mut stats = ProbeStats::default();

        // Visit buckets in order of their minimal horizontal distance to
        // dq; stop once that lower bound strictly exceeds the current
        // k-th best distance (on ties we keep probing: an equal-distance
        // entry with a smaller key must still win).
        let mut left: isize = center as isize; // next bucket to take on the left (inclusive)
        let mut right: usize = center + 1; // next bucket to take on the right
        let mut center_pending = true;
        loop {
            let next = if center_pending {
                center_pending = false;
                Some(center)
            } else {
                let ld = if left > 0 {
                    // left-1's right edge
                    Some(dq - (self.origin + (left as f64) * self.width))
                } else {
                    None
                };
                let rd = if right < nb {
                    Some((self.origin + (right as f64) * self.width) - dq)
                } else {
                    None
                };
                match (ld, rd) {
                    (None, None) => None,
                    (Some(_), None) => {
                        left -= 1;
                        Some(left as usize)
                    }
                    (None, Some(_)) => {
                        right += 1;
                        Some(right - 1)
                    }
                    (Some(l), Some(r)) => {
                        if l <= r {
                            left -= 1;
                            Some(left as usize)
                        } else {
                            right += 1;
                            Some(right - 1)
                        }
                    }
                }
            };
            let Some(b) = next else { break };

            // Horizontal lower bound on any distance inside bucket b.
            let b_lo = self.origin + b as f64 * self.width;
            let b_hi = b_lo + self.width;
            let hdist = if dq < b_lo {
                b_lo - dq
            } else if dq > b_hi {
                dq - b_hi
            } else {
                0.0
            };
            if nearest.bound().is_some_and(|bound| hdist > bound) {
                break;
            }

            stats.buckets_touched += 1;
            let lo = self.offsets[b] as usize;
            let hi = self.offsets[b + 1] as usize;
            stats.candidates += hi - lo;
            for i in lo..hi {
                nearest.offer(Match {
                    entry: self.entries[i],
                    distance: w.distance(self.dvs[i], self.sbas[i]),
                });
            }
        }
        (nearest.into_sorted(), stats)
    }

    /// Reference top-k: one linear pass over the whole table.
    pub fn topk_scan_with_stats(&self, q: &VarianceQuery, k: usize) -> (Vec<Match>, ProbeStats) {
        let stats = ProbeStats {
            buckets_touched: 0,
            candidates: self.entries.len(),
        };
        if self.entries.is_empty() || k == 0 {
            return (Vec::new(), ProbeStats::default());
        }
        let w = Window::new(q);
        let mut nearest = Nearest::new(k, self.entries.len());
        for i in 0..self.entries.len() {
            nearest.offer(Match {
                entry: self.entries[i],
                distance: w.distance(self.dvs[i], self.sbas[i]),
            });
        }
        (nearest.into_sorted(), stats)
    }
}

fn bucket_of(dv: f64, origin: f64, width: f64, nbuckets: usize) -> usize {
    // NaN and -inf land in bucket 0 (`as` saturates), +inf in the last.
    let raw = ((dv - origin) / width).floor();
    (raw as usize).min(nbuckets - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(video: u64, shot: u32, var_ba: f64, var_oa: f64) -> IndexEntry {
        IndexEntry {
            key: ShotKey { video, shot },
            var_ba,
            var_oa,
        }
    }

    fn corpus(n: usize) -> Vec<IndexEntry> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                entry(
                    (i % 13) as u64,
                    i as u32,
                    (x * 0.613) % 64.0,
                    (x * 0.271) % 48.0,
                )
            })
            .collect()
    }

    #[test]
    fn empty_index_is_calm() {
        let idx = BucketIndex::build(vec![], BucketParams::default());
        assert!(idx.is_empty());
        assert_eq!(idx.bucket_count(), 1);
        let q = VarianceQuery::new(4.0, 1.0);
        assert!(idx.range_with_stats(&q).0.is_empty());
        assert!(idx.topk_with_stats(&q, 5).0.is_empty());
    }

    #[test]
    fn range_matches_scan_exactly() {
        let idx = BucketIndex::build(corpus(500), BucketParams::with_bucket_width(0.5));
        for i in 0..40 {
            let q = VarianceQuery::new(f64::from(i) * 1.7, f64::from(i) * 0.9)
                .with_tolerances(1.5, 2.0);
            let (a, sa) = idx.range_with_stats(&q);
            let (b, sb) = idx.range_scan_with_stats(&q);
            assert_eq!(
                a.iter().map(|m| m.entry.key).collect::<Vec<_>>(),
                b.iter().map(|m| m.entry.key).collect::<Vec<_>>(),
                "query {i}"
            );
            assert!(
                sa.candidates <= sb.candidates,
                "bucket probe must not overscan"
            );
            assert!(sa.buckets_touched >= 1);
        }
    }

    #[test]
    fn topk_matches_scan_exactly_with_ties() {
        // Many exact duplicates force the tie-break path.
        let mut entries = corpus(300);
        for i in 0..50 {
            entries.push(entry(99, i, 16.0, 4.0));
        }
        let idx = BucketIndex::build(entries, BucketParams::with_bucket_width(0.25));
        for k in [1usize, 3, 10, 55, 1000] {
            let q = VarianceQuery::new(16.0, 4.0);
            let (a, _) = idx.topk_with_stats(&q, k);
            let (b, _) = idx.topk_scan_with_stats(&q, k);
            assert_eq!(a.len(), k.min(idx.len()));
            assert_eq!(
                a.iter().map(|m| m.entry.key).collect::<Vec<_>>(),
                b.iter().map(|m| m.entry.key).collect::<Vec<_>>(),
                "k={k}"
            );
        }
    }

    #[test]
    fn huge_k_answers_like_k_equal_to_len() {
        // A client-supplied k far beyond the table must neither size an
        // allocation from k nor overflow `k + 1`.
        let idx = BucketIndex::build(corpus(200), BucketParams::with_bucket_width(0.5));
        let q = VarianceQuery::new(9.0, 3.0);
        let all = idx.topk_scan_with_stats(&q, idx.len()).0;
        assert_eq!(all.len(), idx.len());
        for k in [1_000_000_000_000, usize::MAX] {
            assert_eq!(idx.topk_with_stats(&q, k).0, all, "k={k}");
            assert_eq!(idx.topk_scan_with_stats(&q, k).0, all, "k={k}");
        }
    }

    #[test]
    fn topk_probe_is_sublinear_on_big_corpus() {
        let idx = BucketIndex::build(corpus(50_000), BucketParams::default());
        let q = VarianceQuery::new(25.0, 9.0);
        let (hits, stats) = idx.topk_with_stats(&q, 10);
        assert_eq!(hits.len(), 10);
        assert!(
            stats.candidates < idx.len() / 10,
            "top-10 probe scored {} of {} candidates",
            stats.candidates,
            idx.len()
        );
    }

    #[test]
    fn directory_cap_widens_buckets() {
        // 3 entries spanning a huge D^v range with a microscopic width:
        // the cap must widen the effective bucket width instead of
        // allocating millions of buckets.
        let entries = vec![
            entry(1, 0, 0.0, 1_000_000.0),
            entry(1, 1, 4.0, 4.0),
            entry(1, 2, 1_000_000.0, 0.0),
        ];
        let idx = BucketIndex::build(entries, BucketParams::with_bucket_width(1e-6));
        assert!(idx.bucket_count() <= 4 * 3 + 9);
        assert!(idx.effective_width() > 1e-6);
        let (hits, _) = idx.topk_with_stats(&VarianceQuery::new(4.0, 4.0), 1);
        assert_eq!(hits[0].entry.key.shot, 1);
    }

    #[test]
    fn degenerate_params_fall_back_to_default_width() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let idx = BucketIndex::build(corpus(10), BucketParams::with_bucket_width(bad));
            assert_eq!(idx.effective_width(), BucketParams::default().bucket_width);
        }
    }

    #[test]
    fn identical_dv_corpus_has_single_bucket() {
        let entries: Vec<IndexEntry> = (0..20).map(|i| entry(1, i, 9.0, 4.0)).collect();
        let idx = BucketIndex::build(entries, BucketParams::default());
        assert_eq!(idx.bucket_count(), 1);
        let (hits, stats) = idx.topk_with_stats(&VarianceQuery::new(9.0, 4.0), 5);
        assert_eq!(hits.len(), 5);
        // Ties broken by key: shots 0..5 in order.
        let shots: Vec<u32> = hits.iter().map(|m| m.entry.key.shot).collect();
        assert_eq!(shots, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.buckets_touched, 1);
    }
}

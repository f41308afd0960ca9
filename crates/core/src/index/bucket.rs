//! The index table's storage: rows sorted by `(D^v, ShotKey)` in three
//! parallel columns, and the reads over them.
//!
//! Every row's `D^v` and `√Var^BA` are cached beside it (the same
//! `d_v()` / `sqrt_ba()` bits [`VarianceQuery::matches`] computes), so a
//! probe reads two columns of `f64` and touches a row only to name it.
//! Three reads answer every query, all **exact** (pinned against the
//! brute-force linear scan by the equivalence suites):
//!
//! * **the window** — the partition points of `D_q^v − α` and
//!   `D_q^v + α`: the rows Eq. 7 accepts, found in O(log n) before any
//!   row is read;
//! * **the count** — Eq. 8 over the window's `√Var^BA` column;
//! * **the walk** — outward from `D_q^v`, always to the side whose next
//!   row is nearer in `D^v`, offering rows to a bounded heap until the
//!   `D^v` gap alone puts the next row past the heap's worst distance.
//!   A range walks its window; top-k walks the whole table.
//!
//! Rows are finite: the store refuses a non-finite or negative feature
//! before it reaches the index, and debug builds assert it here.
//!
//! [`VarianceQuery::matches`]: super::VarianceQuery::matches

use super::{IndexEntry, Match, ShotKey, Window};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// How much work one probe did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Contiguous runs of the table the probe read: 1 if it read a row,
    /// else 0. The table has no buckets; the field keeps its name because
    /// the benchmark's `core.index.buckets_per_probe` metric reads it.
    pub buckets_touched: usize,
    /// Rows of the table the probe read: for a range every row of Eq. 7's
    /// window, for top-k the rows the walk visited. Staged rows are not
    /// counted here (see `Explain::staged_rows`).
    pub candidates: usize,
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
/// `(distance, key)`. The first `limit` matches offered are kept as they
/// come; once there are `limit` of them they become a max-heap whose top
/// is the worst match kept, so a selection that keeps every match it is
/// offered is one sort, not a heap. The one selection behind range,
/// top-k and the reference scans.
pub(crate) struct Nearest {
    limit: usize,
    filling: Vec<Ranked>,
    heap: BinaryHeap<Ranked>,
}

impl Nearest {
    /// Keep the `limit` smallest; `rows` bounds how many matches will be
    /// offered, so a huge `limit` sizes no allocation.
    pub(crate) fn new(limit: usize, rows: usize) -> Self {
        Nearest {
            limit,
            filling: Vec::with_capacity(limit.min(rows)),
            heap: BinaryHeap::new(),
        }
    }

    /// Keep `m` if it is among the `limit` smallest offered so far.
    pub(crate) fn offer(&mut self, m: Match) {
        if let Some(mut worst) = self.heap.peek_mut() {
            if match_order(&m, &worst.0) == Ordering::Less {
                *worst = Ranked(m);
            }
            return;
        }
        if self.filling.len() < self.limit {
            self.filling.push(Ranked(m));
            if self.filling.len() == self.limit {
                self.heap = BinaryHeap::from(std::mem::take(&mut self.filling));
            }
        }
    }

    /// Once full, the worst kept distance: a match farther than this
    /// cannot place (an equal one still can, on a smaller key).
    fn bound(&self) -> Option<f64> {
        self.heap.peek().map(|worst| worst.0.distance)
    }

    /// The kept matches in ascending `(distance, key)` order.
    pub(crate) fn into_sorted(self) -> Vec<Match> {
        let mut kept = match self.heap.is_empty() {
            true => self.filling,
            false => self.heap.into_vec(),
        };
        kept.sort_unstable();
        kept.into_iter().map(|r| r.0).collect()
    }
}

/// Table order: ascending `(D^v, key)`.
fn entry_order(a: &(f64, IndexEntry), b: &(f64, IndexEntry)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.key.cmp(&b.1.key))
}

/// Result order of every query: ascending `(distance, key)`.
pub(crate) fn match_order(a: &Match, b: &Match) -> Ordering {
    a.distance
        .total_cmp(&b.distance)
        .then(a.entry.key.cmp(&b.entry.key))
}

/// The sorted table: row `i` is `entries[i]`, with `D^v = dvs[i]` and
/// `√Var^BA = sbas[i]`, ascending by `(D^v, key)`. Every `D^v` and
/// `√Var^BA` is finite.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    entries: Vec<IndexEntry>,
    dvs: Vec<f64>,
    sbas: Vec<f64>,
}

impl Table {
    /// The table of `rows`, given in any order.
    pub(crate) fn build(rows: impl IntoIterator<Item = IndexEntry>) -> Self {
        let mut table = Table::default();
        table.merge(rows);
        table
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// All rows, in table order.
    pub(crate) fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Row `i`'s `D^v`.
    pub(crate) fn dv(&self, i: usize) -> f64 {
        self.dvs[i]
    }

    /// Every row with its cached `D^v` and `√Var^BA`, in table order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (IndexEntry, f64, f64)> + '_ {
        self.entries
            .iter()
            .zip(self.dvs.iter().zip(&self.sbas))
            .map(|(e, (&dv, &sba))| (*e, dv, sba))
    }

    /// Merge `fresh` (any order) into the table: sort it, then fill the
    /// three columns from the back, so each row moves at most once.
    pub(crate) fn merge(&mut self, fresh: impl IntoIterator<Item = IndexEntry>) {
        let mut fresh: Vec<(f64, IndexEntry)> = fresh.into_iter().map(|e| (e.d_v(), e)).collect();
        let Some(&(_, filler)) = fresh.first() else {
            return;
        };
        debug_assert!(
            fresh.iter().all(|(dv, _)| dv.is_finite()),
            "index rows must have finite, non-negative variances"
        );
        fresh.sort_by(entry_order);
        let (n, m) = (self.len(), fresh.len());
        self.entries.resize(n + m, filler);
        self.dvs.resize(n + m, 0.0);
        self.sbas.resize(n + m, 0.0);
        // Rows `..old` of the old table are still to place; the slot
        // being filled is `old + fresh.len() - 1`.
        let mut old = n;
        for slot in (0..n + m).rev() {
            let Some(&(dv, e)) = fresh.last() else {
                break;
            };
            let older = old > 0
                && entry_order(&(self.dvs[old - 1], self.entries[old - 1]), &(dv, e))
                    == Ordering::Greater;
            if older {
                old -= 1;
                self.entries[slot] = self.entries[old];
                self.dvs[slot] = self.dvs[old];
                self.sbas[slot] = self.sbas[old];
            } else {
                fresh.pop();
                self.entries[slot] = e;
                self.dvs[slot] = dv;
                self.sbas[slot] = e.sqrt_ba();
            }
        }
    }

    /// Drop every row of `video`, keeping the order of the rest. Returns
    /// how many rows went.
    pub(crate) fn remove_video(&mut self, video: u64) -> usize {
        let n = self.len();
        let mut kept = 0;
        for i in 0..n {
            if self.entries[i].key.video != video {
                self.entries[kept] = self.entries[i];
                self.dvs[kept] = self.dvs[i];
                self.sbas[kept] = self.sbas[i];
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        self.dvs.truncate(kept);
        self.sbas.truncate(kept);
        n - kept
    }

    /// The rows Eq. 7 accepts: `pp(D^v < D_q^v − α) .. pp(D^v ≤ D_q^v + α)`,
    /// where `pp` is a partition point. Empty when α < 0 or a bound is
    /// NaN, exactly as [`Window::eq7`] rejects every row then.
    pub(crate) fn window(&self, w: &Window) -> Range<usize> {
        let lo = self.dvs.partition_point(|&dv| dv < w.dv_lo);
        let hi = self.dvs.partition_point(|&dv| dv <= w.dv_hi);
        lo..hi.max(lo)
    }

    /// How many rows of `window` (a [`Self::window`]) Eq. 8 accepts, and
    /// how many of those `keep` keeps (`None` keeps all). Without `keep`
    /// the loop reads the `√Var^BA` column only and has no branch; `keep`
    /// is called once per accepted row.
    pub(crate) fn count(
        &self,
        w: &Window,
        window: Range<usize>,
        keep: Option<&mut (dyn FnMut(ShotKey) -> bool + '_)>,
    ) -> (usize, usize) {
        let sbas = &self.sbas[window.clone()];
        let Some(keep) = keep else {
            let accepted = sbas.iter().map(|&sba| usize::from(w.eq8(sba))).sum();
            return (accepted, accepted);
        };
        let (mut accepted, mut kept) = (0, 0);
        for (&sba, e) in sbas.iter().zip(&self.entries[window]) {
            if w.eq8(sba) {
                accepted += 1;
                kept += usize::from(keep(e.key));
            }
        }
        (accepted, kept)
    }

    /// Offer to `nearest` the rows of `rows` that `accept` accepts (given
    /// a row's key and `√Var^BA`), and return the run of rows read. The
    /// walk starts at `D_q^v`'s position and steps outward, always to the
    /// side whose next row is nearer in `D^v`. It stops once `offers`
    /// rows were offered, or once `nearest` is full and the next row's
    /// `D^v` gap alone puts it past the worst kept distance: every row
    /// further out on either side is farther still, so none can place.
    /// The gap is measured as [`Window::distance`] with a zero `√Var^BA`
    /// term — the same float operations as a row's distance minus a
    /// non-negative addend — so it never exceeds a computed distance and
    /// needs no rounding margin. The rows kept are therefore exactly
    /// those of a full sort, ties by key included. `nearest` must keep at
    /// least one row, or the walk would read every row of `rows`.
    pub(crate) fn walk(
        &self,
        w: &Window,
        rows: Range<usize>,
        mut accept: impl FnMut(ShotKey, f64) -> bool,
        mut offers: usize,
        nearest: &mut Nearest,
    ) -> Range<usize> {
        let mid = rows.start + self.dvs[rows.clone()].partition_point(|&dv| dv < w.dq);
        // The run read so far; the next rows are `left - 1` and `right`.
        let (mut left, mut right) = (mid, mid);
        while offers > 0 {
            let go_left = match (left > rows.start, right < rows.end) {
                (false, false) => break,
                (true, false) => true,
                (false, true) => false,
                (true, true) => w.dq - self.dvs[left - 1] <= self.dvs[right] - w.dq,
            };
            let i = if go_left { left - 1 } else { right };
            let (dv, sba) = (self.dvs[i], self.sbas[i]);
            if nearest
                .bound()
                .is_some_and(|bound| w.distance(dv, w.sq) > bound)
            {
                break;
            }
            if go_left {
                left -= 1;
            } else {
                right += 1;
            }
            let entry = self.entries[i];
            if accept(entry.key, sba) {
                nearest.offer(Match {
                    entry,
                    distance: w.distance(dv, sba),
                });
                offers -= 1;
            }
        }
        left..right
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{ShotIndex, VarianceQuery};

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

    fn keys(matches: &[Match]) -> Vec<ShotKey> {
        matches.iter().map(|m| m.entry.key).collect()
    }

    #[test]
    fn empty_index_is_calm() {
        let idx = ShotIndex::new();
        assert!(idx.is_empty());
        let q = VarianceQuery::new(4.0, 1.0);
        assert_eq!(idx.probe_range(&q), (vec![], ProbeStats::default()));
        assert_eq!(idx.probe_topk(&q, 5), (vec![], ProbeStats::default()));
    }

    #[test]
    fn range_matches_scan_exactly() {
        let rows = corpus(500);
        let idx = ShotIndex::from_entries(rows.clone());
        for i in 0..40 {
            let q = VarianceQuery::new(f64::from(i) * 1.7, f64::from(i) * 0.9)
                .with_tolerances(1.5, 2.0);
            let (a, sa) = idx.probe_range(&q);
            assert_eq!(keys(&a), keys(&idx.query_scan(&q)), "query {i}");
            // The window is exactly the rows Eq. 7 accepts.
            let (lo, hi) = (q.d_v() - q.alpha, q.d_v() + q.alpha);
            let window = rows
                .iter()
                .filter(|e| lo <= e.d_v() && e.d_v() <= hi)
                .count();
            assert_eq!(sa.candidates, window, "query {i}");
            assert_eq!(sa.buckets_touched, usize::from(window > 0), "query {i}");
        }
    }

    #[test]
    fn topk_matches_scan_exactly_with_ties() {
        // Many exact duplicates force the tie-break path.
        let mut entries = corpus(300);
        for i in 0..50 {
            entries.push(entry(99, i, 16.0, 4.0));
        }
        let idx = ShotIndex::from_entries(entries);
        for k in [1usize, 3, 10, 55, 1000] {
            let q = VarianceQuery::new(16.0, 4.0);
            let (a, _) = idx.probe_topk(&q, k);
            assert_eq!(a.len(), k.min(idx.len()));
            assert_eq!(keys(&a), keys(&idx.query_topk_scan(&q, k)), "k={k}");
        }
    }

    #[test]
    fn huge_k_answers_like_k_equal_to_len() {
        // A client-supplied k far beyond the table must neither size an
        // allocation from k nor overflow `k + 1`.
        let idx = ShotIndex::from_entries(corpus(200));
        let q = VarianceQuery::new(9.0, 3.0);
        let all = idx.query_topk_scan(&q, idx.len());
        assert_eq!(all.len(), idx.len());
        for k in [1_000_000_000_000, usize::MAX] {
            assert_eq!(idx.probe_topk(&q, k).0, all, "k={k}");
            assert_eq!(idx.query_topk_scan(&q, k), all, "k={k}");
        }
    }

    #[test]
    fn topk_probe_is_sublinear_on_big_corpus() {
        let idx = ShotIndex::from_entries(corpus(50_000));
        let q = VarianceQuery::new(25.0, 9.0);
        let (hits, stats) = idx.probe_topk(&q, 10);
        assert_eq!(hits.len(), 10);
        assert!(
            stats.candidates < idx.len() / 10,
            "top-10 probe read {} of {} rows",
            stats.candidates,
            idx.len()
        );
    }

    #[test]
    fn identical_dv_rows_tie_by_key() {
        let entries: Vec<IndexEntry> = (0..20).rev().map(|i| entry(1, i, 9.0, 4.0)).collect();
        let idx = ShotIndex::from_entries(entries);
        let (hits, stats) = idx.probe_topk(&VarianceQuery::new(9.0, 4.0), 5);
        // Ties broken by key: shots 0..5 in order.
        let shots: Vec<u32> = hits.iter().map(|m| m.entry.key.shot).collect();
        assert_eq!(shots, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.buckets_touched, 1);
    }

    #[test]
    fn merge_and_remove_keep_the_columns_sorted() {
        let rows = corpus(400);
        let mut table = Table::build(rows[..100].iter().copied());
        for chunk in rows[100..].chunks(37) {
            table.merge(chunk.iter().copied());
        }
        assert_eq!(
            table.remove_video(4),
            rows.iter().filter(|e| e.key.video == 4).count()
        );
        let mut want: Vec<(f64, IndexEntry)> = rows
            .iter()
            .filter(|e| e.key.video != 4)
            .map(|e| (e.d_v(), *e))
            .collect();
        want.sort_by(entry_order);
        let got: Vec<(f64, f64, IndexEntry)> =
            table.rows().map(|(e, dv, sba)| (dv, sba, e)).collect();
        let want: Vec<(f64, f64, IndexEntry)> = want
            .into_iter()
            .map(|(dv, e)| (dv, e.sqrt_ba(), e))
            .collect();
        assert_eq!(got, want);
    }
}

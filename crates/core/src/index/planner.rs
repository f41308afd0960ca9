//! The maintained shot index: the sorted table, its staged tier, and the
//! one selection every query runs through.
//!
//! [`ShotIndex`] is what the store embeds. Its table holds the finalized
//! rows in three columns sorted by `(D^v, key)` (see [`super::bucket`]):
//! a range probe reads exactly the rows of Eq. 7's window, found by two
//! binary searches, and walks from `D_q^v` for the nearest few; a top-k
//! probe is the same walk with no window. Nothing is estimated: the
//! probe timings and the exact work flow into `vdb-obs` under
//! `core.index.*`, and [`Explain`] reports the work of each request.
//!
//! Two ingestion modes:
//!
//! * **online** ([`ShotIndex::extend`]) — merge the batch into the sorted
//!   columns immediately (one O(n + m) merge per batch);
//! * **staged** ([`ShotIndex::stage`] + [`ShotIndex::finalize`] /
//!   [`ShotIndex::adopt`]) — the journal-replay path: entries pile up
//!   unsorted, then one merge folds them in, *or* a persisted copy
//!   whose [fingerprint](fingerprint_entries) matches the staged rows is
//!   adopted in their place. Staged rows are still visible to queries
//!   (they are scanned alongside the table), so correctness never
//!   depends on finalize discipline — only speed does.

use super::bucket::{match_order, Nearest, ProbeStats, Table};
use super::{IndexEntry, Match, ShotKey, VarianceQuery, Window};
use std::sync::OnceLock;
use vdb_obs::{global, global_tracer, Counter, Histogram};

/// The exact work of one *executed* probe — what the `explain` command
/// reports and what a traced probe attaches to its span.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// The `D^v` range the probe read, `(lo, hi)`: for a range
    /// `[D_q^v − α, D_q^v + α]`; for top-k the `D^v` of the first and
    /// last rows the walk read (`D_q^v` twice if it read none).
    pub window: (f64, f64),
    /// Rows of the table the probe read: for a range the window's rows,
    /// which the count pass reads; for top-k the rows the walk visited.
    pub probe: ProbeStats,
    /// Rows the walk visited (at most `probe.candidates`).
    pub visited: usize,
    /// Staged (unfinalized) rows scanned alongside the table.
    pub staged_rows: usize,
    /// Finalized rows in the table.
    pub rows: usize,
    /// Matches including the staged rows (for top-k: after the cut to
    /// the `k` nearest), before any caller's keep predicate.
    pub matches: usize,
}

impl Explain {
    /// One-line `key=value` rendering (the shape the shell prints and a
    /// traced probe attaches to its span).
    pub fn summary(&self) -> String {
        format!(
            "window=[{:.3},{:.3}] candidates={} visited={} staged={} rows={} matches={}",
            self.window.0,
            self.window.1,
            self.probe.candidates,
            self.visited,
            self.staged_rows,
            self.rows,
            self.matches,
        )
    }
}

/// Per-instance maintenance counters — unlike the `core.index.*` globals
/// these are not shared across databases, so tests can assert exact
/// counts even when suites run concurrently in one process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexRuntime {
    /// Rewrites of the table — merges, finalizes, removals.
    pub refreshes: u64,
    /// Persisted copies adopted in place of the staged rows.
    pub adoptions: u64,
}

struct IndexObs {
    build_us: Histogram,
    probe_us: Histogram,
    candidates_scored: Counter,
    refreshes: Counter,
    adoptions: Counter,
}

fn obs() -> &'static IndexObs {
    static OBS: OnceLock<IndexObs> = OnceLock::new();
    OBS.get_or_init(|| IndexObs {
        build_us: global().histogram("core.index.build_us"),
        probe_us: global().histogram("core.index.probe_us"),
        candidates_scored: global().counter("core.index.candidates_scored"),
        refreshes: global().counter("core.index.refreshes"),
        adoptions: global().counter("core.index.adoptions"),
    })
}

/// Order-independent fingerprint of an entry set: the wrapping sum of
/// per-entry FNV-1a hashes. Insertion order does not matter, so rows
/// staged from journal replay compare equal to the same rows persisted
/// sorted — and any divergence (extra, missing, or mutated row) almost
/// surely changes the sum.
pub fn fingerprint_entries<'a>(entries: impl Iterator<Item = &'a IndexEntry>) -> u64 {
    let mut sum = 0u64;
    for e in entries {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in [
            e.key.video,
            u64::from(e.key.shot),
            e.var_ba.to_bits(),
            e.var_oa.to_bits(),
        ] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        sum = sum.wrapping_add(h);
    }
    sum
}

/// The maintained shot index: the paper's table keyed on `D^v`, plus the
/// staged tier.
#[derive(Debug, Clone, Default)]
pub struct ShotIndex {
    table: Table,
    staged: Vec<IndexEntry>,
    runtime: IndexRuntime,
}

impl ShotIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build directly from a batch of entries.
    pub fn from_entries(entries: Vec<IndexEntry>) -> Self {
        let mut idx = Self::new();
        idx.extend(entries);
        idx
    }

    /// Rows indexed (finalized + staged).
    pub fn len(&self) -> usize {
        self.table.len() + self.staged.len()
    }

    /// Whether no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalized rows, sorted by `(D^v, key)`. Staged-but-unfinalized
    /// rows are not included — call [`Self::finalize`] first.
    pub fn entries(&self) -> &[IndexEntry] {
        debug_assert!(
            self.staged.is_empty(),
            "entries() read with {} rows still staged",
            self.staged.len()
        );
        self.table.entries()
    }

    /// Whether every staged row has been merged into the table — i.e.
    /// [`Self::entries`] currently describes the full row set.
    pub fn is_finalized(&self) -> bool {
        self.staged.is_empty()
    }

    /// Per-instance maintenance counters.
    pub fn runtime(&self) -> IndexRuntime {
        self.runtime
    }

    /// Fingerprint of the full row set (finalized + staged); what the
    /// store persists next to the index payload.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_entries(self.table.entries().iter().chain(self.staged.iter()))
    }

    /// Insert one row (merges immediately; prefer [`Self::extend`] for
    /// batches and [`Self::stage`] for replay).
    pub fn insert(&mut self, entry: IndexEntry) {
        self.extend(vec![entry]);
    }

    /// Merge a batch into the table (one refresh). Rows must have finite,
    /// non-negative variances.
    pub fn extend(&mut self, batch: Vec<IndexEntry>) {
        if batch.is_empty() {
            return;
        }
        self.staged.extend(batch);
        self.refresh();
    }

    /// Queue rows without merging — the journal-replay path. Staged rows
    /// remain queryable (scanned alongside the table).
    pub fn stage(&mut self, batch: impl IntoIterator<Item = IndexEntry>) {
        self.staged.extend(batch);
    }

    /// Merge anything staged into the table. No-op when nothing is
    /// staged.
    pub fn finalize(&mut self) {
        if !self.staged.is_empty() {
            self.refresh();
        }
    }

    /// Adopt a persisted copy of the index in place of the staged rows,
    /// if its row set matches what is currently staged + finalized
    /// (verified by [fingerprint](fingerprint_entries)). Returns `false`
    /// — leaving the index untouched, caller should [`Self::finalize`] —
    /// on mismatch.
    pub fn adopt(&mut self, entries: Vec<IndexEntry>) -> bool {
        if fingerprint_entries(entries.iter()) != self.fingerprint() {
            return false;
        }
        self.table = Table::build(entries);
        self.staged.clear();
        self.runtime.adoptions += 1;
        obs().adoptions.incr();
        true
    }

    /// Drop every row of `video`. Returns how many were removed.
    pub fn remove_video(&mut self, video: u64) -> usize {
        let staged_before = self.staged.len();
        self.staged.retain(|e| e.key.video != video);
        let span = obs().build_us.start();
        let dropped = self.table.remove_video(video);
        drop(span);
        if dropped > 0 {
            self.runtime.refreshes += 1;
            obs().refreshes.incr();
        }
        staged_before - self.staged.len() + dropped
    }

    fn refresh(&mut self) {
        let _span = obs().build_us.start();
        self.table.merge(self.staged.drain(..));
        self.runtime.refreshes += 1;
        obs().refreshes.incr();
    }

    /// Eqs. 7–8 range query. Results sorted by ascending
    /// `(distance, key)` — identical to [`Self::query_scan`].
    pub fn query(&self, q: &VarianceQuery) -> Vec<Match> {
        self.search(q, None).0
    }

    /// The `k` nearest rows to the query point in `(D^v, √Var^BA)` space
    /// (α/β ignored). Ties by ascending key.
    pub fn query_topk(&self, q: &VarianceQuery, k: usize) -> Vec<Match> {
        self.search(q, Some(k)).0
    }

    /// The probe with every match returned, sorted by ascending
    /// `(distance, key)`: [`Self::select`] keeping every row, uncapped.
    /// `k: None` runs the Eqs. 7–8 range, `Some(k)` the `k` nearest rows;
    /// the [`Explain`] is the probe's exact work, and the matches are the
    /// same [`Self::query`] / [`Self::query_topk`] return.
    pub fn search(&self, q: &VarianceQuery, k: Option<usize>) -> (Vec<Match>, Explain) {
        let (matches, _, explain) = self.select(q, k, usize::MAX, None);
        (matches, explain)
    }

    /// The one selection body behind every query. Returns the first `cap`
    /// matches whose key `keep` accepts (`None` accepts every key) in
    /// ascending `(distance, key)` order, the count of every kept match,
    /// and the [`Explain`] (whose `matches` is the count before `keep`).
    ///
    /// **Range** (`k: None`) never collects the match set. Two binary
    /// searches find Eq. 7's window; a count pass tests Eq. 8 on the
    /// window's `√Var^BA` column and Eqs. 7–8 on the staged rows; then a
    /// walk from `D_q^v` outward offers accepted rows to a heap of `cap`
    /// until no further row can place, so a reply's few rows cost a few
    /// hundred row visits, not a match per accepted row.
    ///
    /// **Top-k** (`Some(k)`) offers the staged rows to a heap of `k`,
    /// walks the table with no window, then drops the rows `keep` rejects
    /// and keeps the first `cap` of the rest.
    ///
    /// Keys are unique per `(video, shot)`, so `(distance, key)` is a
    /// strict total order and the rows are exactly a full sort's first
    /// `cap`. `keep` must be a pure function of the key: it may be called
    /// more than once per row, in no particular order. The
    /// `core.index.probe` trace span carries the explain summary and
    /// covers the whole selection.
    pub fn select(
        &self,
        q: &VarianceQuery,
        k: Option<usize>,
        cap: usize,
        keep: Option<&mut dyn FnMut(ShotKey) -> bool>,
    ) -> (Vec<Match>, usize, Explain) {
        let o = obs();
        let mut tspan = global_tracer().span("core.index.probe");
        let probe_us = o.probe_us.start();
        let w = Window::new(q);
        let (rows, kept, explain) = match k {
            None => self.select_range(&w, cap, keep),
            Some(k) => self.select_topk(&w, k, cap, keep),
        };
        drop(probe_us);
        o.candidates_scored
            .add((explain.probe.candidates + self.staged.len()) as u64);
        if tspan.is_recording() {
            tspan.attr("explain", explain.summary());
        }
        (rows, kept, explain)
    }

    /// The range side of [`Self::select`]: count, then walk.
    fn select_range(
        &self,
        w: &Window,
        cap: usize,
        mut keep: Option<&mut dyn FnMut(ShotKey) -> bool>,
    ) -> (Vec<Match>, usize, Explain) {
        let window = self.table.window(w);
        let mut nearest = Nearest::new(cap, window.len() + self.staged.len());
        let (mut matches, mut kept) = (0, 0);
        for e in &self.staged {
            let (dv, sba) = (e.d_v(), e.sqrt_ba());
            if w.accepts(dv, sba) {
                matches += 1;
                if keep.as_mut().map_or(true, |keep| keep(e.key)) {
                    kept += 1;
                    nearest.offer(Match {
                        entry: *e,
                        distance: w.distance(dv, sba),
                    });
                }
            }
        }
        let (table_matches, table_kept) = self.table.count(w, window.clone(), keep.as_deref_mut());
        let mut run = window.start..window.start;
        if cap > 0 {
            let accept = |key, sba| w.eq8(sba) && keep.as_mut().map_or(true, |keep| keep(key));
            run = self
                .table
                .walk(w, window.clone(), accept, table_kept, &mut nearest);
        }
        let explain = self.explain(
            (w.dv_lo, w.dv_hi),
            window.len(),
            run.len(),
            matches + table_matches,
        );
        (nearest.into_sorted(), kept + table_kept, explain)
    }

    /// The top-k side of [`Self::select`]: the `k` nearest of the staged
    /// rows and the table, then `keep`, then the first `cap`.
    fn select_topk(
        &self,
        w: &Window,
        k: usize,
        cap: usize,
        keep: Option<&mut dyn FnMut(ShotKey) -> bool>,
    ) -> (Vec<Match>, usize, Explain) {
        let mut nearest = Nearest::new(k, self.len());
        for e in &self.staged {
            nearest.offer(Match {
                entry: *e,
                distance: w.distance(e.d_v(), e.sqrt_ba()),
            });
        }
        let mut run = 0..0;
        if k > 0 {
            let all = 0..self.table.len();
            run = self
                .table
                .walk(w, all, |_, _| true, usize::MAX, &mut nearest);
        }
        let window = match run.len() {
            0 => (w.dq, w.dq),
            _ => (self.table.dv(run.start), self.table.dv(run.end - 1)),
        };
        let mut found = nearest.into_sorted();
        let explain = self.explain(window, run.len(), run.len(), found.len());
        if let Some(keep) = keep {
            found.retain(|m| keep(m.entry.key));
        }
        let kept = found.len();
        found.truncate(cap);
        (found, kept, explain)
    }

    fn explain(
        &self,
        window: (f64, f64),
        candidates: usize,
        visited: usize,
        matches: usize,
    ) -> Explain {
        Explain {
            window,
            probe: ProbeStats {
                buckets_touched: usize::from(candidates > 0),
                candidates,
            },
            visited,
            staged_rows: self.staged.len(),
            rows: self.table.len(),
            matches,
        }
    }

    /// Every row, finalized then staged, with its `D^v` and `√Var^BA`.
    fn all_rows(&self) -> impl Iterator<Item = (IndexEntry, f64, f64)> + '_ {
        let staged = self.staged.iter().map(|e| (*e, e.d_v(), e.sqrt_ba()));
        self.table.rows().chain(staged)
    }

    /// Forced linear scan (the pinning reference for equivalence tests).
    pub fn query_scan(&self, q: &VarianceQuery) -> Vec<Match> {
        let w = Window::new(q);
        let mut matches: Vec<Match> = self
            .all_rows()
            .filter(|&(_, dv, sba)| w.accepts(dv, sba))
            .map(|(entry, dv, sba)| Match {
                entry,
                distance: w.distance(dv, sba),
            })
            .collect();
        matches.sort_by(match_order);
        matches
    }

    /// Forced linear-scan top-k (the pinning reference).
    pub fn query_topk_scan(&self, q: &VarianceQuery, k: usize) -> Vec<Match> {
        let w = Window::new(q);
        let mut nearest = Nearest::new(k, self.len());
        self.all_rows().for_each(|(entry, dv, sba)| {
            nearest.offer(Match {
                entry,
                distance: w.distance(dv, sba),
            })
        });
        nearest.into_sorted()
    }

    /// The range probe with its exact work: [`Self::search`]'s matches
    /// and `explain.probe`.
    pub fn probe_range(&self, q: &VarianceQuery) -> (Vec<Match>, ProbeStats) {
        let (matches, explain) = self.search(q, None);
        (matches, explain.probe)
    }

    /// The top-k probe with its exact work: [`Self::search`]'s matches
    /// and `explain.probe`.
    pub fn probe_topk(&self, q: &VarianceQuery, k: usize) -> (Vec<Match>, ProbeStats) {
        let (matches, explain) = self.search(q, Some(k));
        (matches, explain.probe)
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

    fn corpus(n: usize) -> Vec<IndexEntry> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                entry(
                    (i % 7) as u64,
                    i as u32,
                    (x * 0.931) % 50.0,
                    (x * 0.417) % 30.0,
                )
            })
            .collect()
    }

    #[test]
    fn planned_query_equals_forced_scan() {
        let idx = ShotIndex::from_entries(corpus(5_000));
        for i in 0..20 {
            let q = VarianceQuery::new(f64::from(i) * 2.3, f64::from(i) * 1.1)
                .with_tolerances(2.0, 3.0);
            let keys = |ms: &[Match]| ms.iter().map(|m| m.entry.key).collect::<Vec<_>>();
            assert_eq!(keys(&idx.query(&q)), keys(&idx.query_scan(&q)));
            assert_eq!(
                keys(&idx.query_topk(&q, 7)),
                keys(&idx.query_topk_scan(&q, 7))
            );
        }
    }

    #[test]
    fn staged_rows_are_queryable_before_finalize() {
        let mut idx = ShotIndex::from_entries(corpus(100));
        let refreshes = idx.runtime().refreshes;
        idx.stage([entry(999, 0, 10.0, 10.0)]);
        assert_eq!(idx.runtime().refreshes, refreshes, "stage must not rebuild");
        let q = VarianceQuery::new(10.0, 10.0);
        assert!(idx.query(&q).iter().any(|m| m.entry.key.video == 999));
        assert!(idx
            .query_topk(&q, 1)
            .iter()
            .any(|m| m.entry.key.video == 999));
        idx.finalize();
        assert_eq!(idx.runtime().refreshes, refreshes + 1);
        assert!(idx.query(&q).iter().any(|m| m.entry.key.video == 999));
    }

    #[test]
    fn adopt_accepts_matching_rows_and_rejects_divergent_ones() {
        let rows = corpus(500);
        let mut idx = ShotIndex::new();
        idx.stage(rows.clone());
        // Persisted copy was saved sorted; shuffle order must not matter.
        let mut persisted = rows.clone();
        persisted.reverse();
        assert!(idx.adopt(persisted));
        assert_eq!(
            idx.runtime(),
            IndexRuntime {
                refreshes: 0,
                adoptions: 1
            }
        );
        assert_eq!(idx.len(), 500);

        let mut divergent = rows;
        divergent.pop();
        let mut idx2 = ShotIndex::new();
        idx2.stage(divergent.clone());
        divergent.push(entry(1234, 0, 1.0, 1.0));
        assert!(!idx2.adopt(divergent));
        assert_eq!(idx2.runtime().adoptions, 0);
        idx2.finalize();
        assert_eq!(idx2.runtime().refreshes, 1);
    }

    #[test]
    fn fingerprint_is_order_independent_and_content_sensitive() {
        let rows = corpus(64);
        let mut reversed = rows.clone();
        reversed.reverse();
        assert_eq!(
            fingerprint_entries(rows.iter()),
            fingerprint_entries(reversed.iter())
        );
        let mut mutated = rows.clone();
        mutated[10].var_ba += 1e-9;
        assert_ne!(
            fingerprint_entries(rows.iter()),
            fingerprint_entries(mutated.iter())
        );
    }

    #[test]
    fn remove_video_drops_rows_everywhere() {
        let mut idx = ShotIndex::from_entries(corpus(70));
        idx.stage([entry(3, 900, 1.0, 1.0)]);
        let before = idx.len();
        let removed = idx.remove_video(3);
        assert!(removed > 1);
        assert_eq!(idx.len(), before - removed);
        idx.finalize();
        assert!(idx.entries().iter().all(|e| e.key.video != 3));
    }

    #[test]
    fn explain_reports_the_probe_that_ran_without_changing_it() {
        let rows = corpus(20_000);
        let mut idx = ShotIndex::from_entries(rows.clone());
        idx.stage([entry(999, 0, 20.0, 5.0)]);
        let q = VarianceQuery::new(20.0, 5.0).with_tolerances(1.0, 1.0);
        let (matches, ex) = idx.search(&q, None);
        assert_eq!(matches, idx.query(&q), "explain must not change the query");
        assert_eq!(ex.matches, matches.len());
        assert_eq!(ex.staged_rows, 1);
        assert_eq!(ex.rows, 20_000);
        // The reported work is exact: the window's rows, of which the
        // walk visited some.
        let (lo, hi) = (q.d_v() - q.alpha, q.d_v() + q.alpha);
        assert_eq!(ex.window, (lo, hi));
        let window = rows
            .iter()
            .filter(|e| lo <= e.d_v() && e.d_v() <= hi)
            .count();
        assert_eq!(ex.probe.candidates, window);
        assert_eq!(ex.probe.buckets_touched, 1);
        assert!(0 < ex.visited && ex.visited <= window);
        assert_eq!(idx.probe_range(&q), (matches, ex.probe));
        let s = ex.summary();
        for key in [
            "window=[",
            "candidates=",
            "visited=",
            "staged=1 ",
            "matches=",
        ] {
            assert!(s.contains(key), "summary missing {key}: {s}");
        }

        let (top, tex) = idx.search(&q, Some(5));
        assert_eq!(tex.matches, 5);
        assert_eq!(tex.probe.candidates, tex.visited);
        assert!(tex.window.0 <= top[4].entry.d_v() && top[4].entry.d_v() <= tex.window.1);
    }

    #[test]
    fn traced_query_records_a_probe_span_with_explain_attrs() {
        let idx = ShotIndex::from_entries(corpus(5_000));
        let tracer = vdb_obs::global_tracer();
        let before = tracer.recorder().total_recorded();
        let root = tracer.trace_root_forced();
        let q = VarianceQuery::new(10.0, 5.0);
        let (range, top) = {
            let _entered = root.enter();
            (idx.search(&q, None).0, idx.search(&q, Some(3)).0)
        };
        assert_eq!(range, idx.query(&q));
        assert_eq!(top, idx.query_topk(&q, 3));
        let events = tracer.recorder().events_for(root.trace_id);
        assert_eq!(events.len(), 2, "two probes recorded");
        assert!(events.iter().all(|e| e.name == "core.index.probe"));
        assert!(events
            .iter()
            .all(|e| e.attrs.starts_with("explain=window=")));
        assert!(tracer.recorder().total_recorded() >= before + 2);
        // Unsampled context: nothing recorded.
        let after = tracer.recorder().total_recorded();
        let _entered = vdb_obs::TraceContext::disabled().enter();
        idx.search(&q, None);
        assert_eq!(tracer.recorder().total_recorded(), after);
    }

    /// A corpus whose rows share a few exact `(Var^BA, Var^OA)` points,
    /// so equal distances are common and the key decides the order.
    /// Keys are unique; videos are drawn from 0..9.
    fn tied_corpus(rng: &mut proptest::TestRng, n: usize) -> Vec<IndexEntry> {
        let points: Vec<(f64, f64)> = (0..1 + rng.below(24))
            .map(|_| {
                let ba = (rng.below(12) as f64 * 0.75).powi(2);
                let oa = (rng.below(12) as f64 * 0.75).powi(2);
                (ba, oa)
            })
            .collect();
        (0..n)
            .map(|i| {
                let (ba, oa) = points[rng.below(points.len() as u64) as usize];
                entry(rng.below(9), i as u32, ba, oa)
            })
            .collect()
    }

    /// Matches as comparable bits, so a NaN distance equals itself.
    fn bits(matches: &[Match]) -> Vec<(ShotKey, u64)> {
        matches
            .iter()
            .map(|m| (m.entry.key, m.distance.to_bits()))
            .collect()
    }

    /// `select` against `search` → filter → take(cap) on one index, for
    /// every k, predicate and cap of the grid (the caps include 0, 1 and
    /// the kept count −1, +0, +1); `search` itself against a brute-force
    /// sort of every row, and its explained work against a brute-force
    /// count of the table's rows (`finalized`; the rest of `rows` is
    /// staged).
    fn check_select(
        idx: &ShotIndex,
        rows: &[IndexEntry],
        finalized: &[IndexEntry],
        q: &VarianceQuery,
    ) -> Result<(), String> {
        let distance = |e: &IndexEntry| {
            ((e.d_v() - q.d_v()).powi(2) + (e.sqrt_ba() - q.var_ba.sqrt()).powi(2)).sqrt()
        };
        let mut brute: Vec<Match> = rows
            .iter()
            .map(|e| Match {
                entry: *e,
                distance: distance(e),
            })
            .collect();
        brute.sort_by(match_order);
        let (lo, hi) = (q.d_v() - q.alpha, q.d_v() + q.alpha);
        let window = finalized
            .iter()
            .filter(|e| lo <= e.d_v() && e.d_v() <= hi)
            .count();
        // No predicate, keep all, keep none, keep even videos.
        type Predicate = Option<fn(ShotKey) -> bool>;
        let predicates: [Predicate; 4] = [
            None,
            Some(|_| true),
            Some(|_| false),
            Some(|key| key.video % 2 == 0),
        ];
        for k in [None, Some(0), Some(3), Some(1usize << 40)] {
            let (all, ex) = idx.search(q, k);
            let want: Vec<Match> = match k {
                None => brute
                    .iter()
                    .filter(|m| q.matches(&m.entry))
                    .copied()
                    .collect(),
                Some(k) => brute.iter().take(k).copied().collect(),
            };
            prop_assert_eq!(bits(&all), bits(&want), "search, k={:?}", k);
            prop_assert_eq!(ex.matches, all.len(), "explain, k={:?}", k);
            prop_assert_eq!(ex.rows, finalized.len());
            prop_assert_eq!(ex.staged_rows, rows.len() - finalized.len());
            prop_assert!(ex.visited <= ex.probe.candidates, "{:?}", ex);
            match k {
                None => {
                    prop_assert_eq!(ex.probe.candidates, window, "window rows");
                    prop_assert_eq!(format!("{:?}", ex.window), format!("{:?}", (lo, hi)));
                }
                Some(k) => {
                    prop_assert_eq!(ex.probe.candidates, ex.visited, "top-k");
                    prop_assert!(k > 0 || ex.visited == 0, "k=0 reads no row");
                }
            }
            for (which, mut predicate) in predicates.into_iter().enumerate() {
                let keep = predicate.unwrap_or(|_| true);
                let filtered: Vec<Match> =
                    all.iter().filter(|m| keep(m.entry.key)).copied().collect();
                let (len, kept) = (all.len(), filtered.len());
                let caps = [0, 1, 7, kept.saturating_sub(1), kept, kept + 1, len + 3];
                for cap in caps.into_iter().chain([usize::MAX]) {
                    let keep = predicate
                        .as_mut()
                        .map(|f| f as &mut dyn FnMut(ShotKey) -> bool);
                    let (got, count, gex) = idx.select(q, k, cap, keep);
                    let want: Vec<Match> = filtered.iter().take(cap).copied().collect();
                    prop_assert_eq!(
                        bits(&got),
                        bits(&want),
                        "rows, k={:?} predicate {} cap={}",
                        k,
                        which,
                        cap
                    );
                    prop_assert_eq!(count, kept, "count, k={:?} predicate {}", k, which);
                    // A range walk stops once `cap` rows can no longer
                    // change; everything else is the uncapped probe's.
                    prop_assert!(gex.visited <= gex.probe.candidates);
                    let visited = if k.is_none() { ex.visited } else { gex.visited };
                    prop_assert_eq!(
                        format!("{:?}", Explain { visited, ..gex }),
                        format!("{:?}", ex),
                        "explain, k={:?} predicate {}",
                        k,
                        which
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn select_is_search_then_filter_then_take(
            seed in 0u64..1_000_000,
            tiny in 1usize..5,
            large in 2_000usize..3_000,
            staged_eighths in 0usize..4,
            alpha in 0.05f64..0.5,
            beta in 0.5f64..4.0,
            on_a_point in 0u8..2,
        ) {
            let mut rng = proptest::TestRng::new(seed);
            for n in [tiny, large] {
                let rows = tied_corpus(&mut rng, n);
                let (q_ba, q_oa) = if on_a_point == 1 {
                    let e = rows[rng.below(n as u64) as usize];
                    (e.var_ba, e.var_oa)
                } else {
                    (rng.unit_f64() * 60.0, rng.unit_f64() * 60.0)
                };
                let q = VarianceQuery::new(q_ba, q_oa).with_tolerances(alpha, beta);
                let split = n - n * staged_eighths / 8;
                let mut idx = ShotIndex::from_entries(rows[..split].to_vec());
                idx.stage(rows[split..].iter().copied());
                check_select(&idx, &rows, &rows[..split], &q)?;
            }
        }
    }

    /// Rows whose square roots are exact, placed on and just past every
    /// edge of the window of `ba=16 oa=4 alpha=1 beta=1` (`D_q^v` = 2,
    /// `√Var_q^BA` = 4: accepted `D^v` ∈ [1, 3], `√Var^BA` ∈ [3, 5]),
    /// and at equal `D^v` gaps on both sides of `D_q^v`. Video ids 0..5
    /// repeat every point, so equal distances tie and the key decides.
    fn edge_rows() -> Vec<IndexEntry> {
        let just = |x: f64, up: bool| if up { x + 1e-9 } else { x - 1e-9 };
        let points = [
            (4.0, 3.0),              // D^v = 1: on dv_lo
            (4.0, 1.0),              // D^v = 3: on dv_hi
            (3.0, 1.0),              // √Var^BA = 3: on sba_lo
            (5.0, 3.0),              // √Var^BA = 5: on sba_hi
            (4.0, just(3.0, true)),  // just below dv_lo
            (4.0, just(1.0, false)), // just above dv_hi
            (just(3.0, false), 1.0), // just below sba_lo
            (just(5.0, true), 3.0),  // just above sba_hi
            (4.0, 1.5),              // D^v = 2.5: gap 0.5 above
            (4.0, 2.5),              // D^v = 1.5: gap 0.5 below
            (4.5, 2.0),              // D^v = 2.5, off-axis
            (3.5, 2.0),              // D^v = 1.5, off-axis
            (4.0, 2.0),              // the query point itself
        ];
        let mut rows = Vec::new();
        for video in 0..5u64 {
            for (shot, (sba, soa)) in points.iter().enumerate() {
                rows.push(entry(video, shot as u32, sba * sba, soa * soa));
            }
        }
        rows
    }

    /// Spread rows far from the edge queries' windows, enough of them
    /// that a narrow range is planned through the buckets.
    fn filler_rows(n: usize) -> Vec<IndexEntry> {
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                // √Var^BA in [0, 9], √Var^OA in [0, 40]: D^v in [-40, 9].
                entry(
                    100 + (i % 3) as u64,
                    i as u32,
                    (9.0 * x).powi(2),
                    (40.0 * (1.0 - x)).powi(2),
                )
            })
            .collect()
    }

    #[test]
    fn select_is_exact_on_edges_ties_and_extremes() {
        let queries = [
            VarianceQuery::new(16.0, 4.0),
            VarianceQuery::new(16.0, 4.0).with_tolerances(0.5, 0.5),
            VarianceQuery::new(16.0, 4.0).with_tolerances(0.0, 0.0),
            // D_q^v far below and far above every row, windows wide
            // enough to reach the table from outside its span.
            VarianceQuery::new(0.0, 2500.0).with_tolerances(60.0, 100.0),
            VarianceQuery::new(2500.0, 0.0).with_tolerances(60.0, 100.0),
            VarianceQuery::new(0.0, 2500.0),
            VarianceQuery::new(2500.0, 0.0),
            // Negative tolerances accept nothing; a NaN query point
            // accepts nothing and ranks every row equal, so top-k falls
            // back on the key.
            VarianceQuery::new(16.0, 4.0).with_tolerances(-1.0, 1.0),
            VarianceQuery::new(16.0, 4.0).with_tolerances(1.0, -1.0),
            VarianceQuery::new(f64::NAN, 4.0),
            VarianceQuery::new(16.0, f64::NAN),
        ];
        let edges = edge_rows();
        let mut padded = edges.clone();
        padded.extend(filler_rows(3_000));
        for rows in [&edges, &padded] {
            let (tail, head) = (&rows[rows.len() / 2..], &rows[..rows.len() / 2]);
            let finalized = ShotIndex::from_entries(rows.clone());
            let mut half = ShotIndex::from_entries(tail.to_vec());
            half.stage(head.iter().copied());
            let mut staged = ShotIndex::new();
            staged.stage(rows.iter().copied());
            for (idx, table) in [(&finalized, &rows[..]), (&half, tail), (&staged, &[][..])] {
                for q in &queries {
                    check_select(idx, rows, table, q).unwrap();
                }
            }
        }
        // The edges bite: each on-edge point is in, each just-past point
        // out, for every video.
        let idx = ShotIndex::from_entries(edges);
        let shots: Vec<u32> = idx
            .query(&VarianceQuery::new(16.0, 4.0))
            .iter()
            .filter(|m| m.entry.key.video == 0)
            .map(|m| m.entry.key.shot)
            .collect();
        let mut sorted = shots.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 8, 9, 10, 11, 12]);
    }

    #[test]
    fn incremental_extend_matches_one_shot_build() {
        let rows = corpus(300);
        let whole = ShotIndex::from_entries(rows.clone());
        let mut grown = ShotIndex::new();
        for chunk in rows.chunks(37) {
            grown.extend(chunk.to_vec());
        }
        assert_eq!(whole.entries(), grown.entries());
        assert_eq!(whole.fingerprint(), grown.fingerprint());
    }
}

//! The maintained shot index and its query planner.
//!
//! [`ShotIndex`] is what the store embeds: a [`BucketIndex`] kept current
//! across ingests and removals, a cached [`CostModel`] rebuilt alongside
//! it, and a planner that prices every probe against the linear scan and
//! executes whichever side the estimate favours. The choice, the probe
//! timings, and the work counters all flow into `vdb-obs` under
//! `core.index.*`, which is how the scan-vs-index crossover shows up in
//! BENCH output.
//!
//! Two ingestion modes:
//!
//! * **online** ([`ShotIndex::extend`]) — merge the batch into the sorted
//!   array immediately (one O(n + m) refresh per batch);
//! * **staged** ([`ShotIndex::stage`] + [`ShotIndex::finalize`] /
//!   [`ShotIndex::adopt`]) — the journal-replay path: entries pile up
//!   unsorted, then one refresh builds the index, *or* a persisted copy
//!   whose [fingerprint](fingerprint_entries) matches the staged rows is
//!   adopted without a rebuild. Staged rows are still visible to queries
//!   (they are scanned alongside the bucket probe), so correctness never
//!   depends on finalize discipline — only speed does.

use super::bucket::{entry_order, match_order, BucketIndex, BucketParams, Nearest, ProbeStats};
use super::cost::{CostEstimate, CostModel, CostWeights};
use super::{IndexEntry, Match, ShotKey, VarianceQuery, Window};
use std::cmp::Ordering;
use std::sync::OnceLock;
use vdb_obs::{global, global_tracer, Counter, Histogram, TraceContext};

/// Which executor the planner chose for a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanChoice {
    /// Linear scan over the whole table.
    Scan,
    /// Bucket-directory probe.
    Buckets,
}

/// A priced decision: the estimate for the bucket probe, the scan cost it
/// was compared against, and the winner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// The executor the probe will use.
    pub choice: PlanChoice,
    /// Predicted bucket-probe cost.
    pub index_cost: CostEstimate,
    /// Cost of the linear scan in the same units.
    pub scan_cost: f64,
}

/// The planner's full decision trail for one *executed* probe — what the
/// `explain` command reports and what a traced probe attaches to its
/// span: the priced plan (estimates in [`Plan::index_cost`]) next to the
/// executor's measured work, so estimated-vs-actual is one comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// The priced decision the probe executed.
    pub plan: Plan,
    /// The `D^v` window the estimate was priced over, `(lo, hi)` —
    /// bucket-edge-snapped for range probes, k-expanded for top-k.
    pub probe_window: (f64, f64),
    /// Measured work of the executor that ran. For a [`PlanChoice::Scan`]
    /// plan the candidates are the full finalized row count.
    pub probe: ProbeStats,
    /// Staged (unfinalized) rows scanned alongside the probe.
    pub staged_rows: usize,
    /// Finalized rows in the index.
    pub rows: usize,
    /// Matches after the staged merge (for top-k: after the cut to the
    /// `k` nearest), before any caller's keep predicate.
    pub matches: usize,
}

impl Explain {
    /// One-line `key=value` rendering (the shape the shell prints and a
    /// traced probe attaches to its span).
    pub fn summary(&self) -> String {
        format!(
            "plan={} est_candidates={:.0} est_buckets={:.0} actual_candidates={} \
             actual_buckets={} window=[{:.3},{:.3}] staged={} rows={} matches={} \
             index_cost={:.0} scan_cost={:.0}",
            match self.plan.choice {
                PlanChoice::Scan => "scan",
                PlanChoice::Buckets => "buckets",
            },
            self.plan.index_cost.candidates,
            self.plan.index_cost.buckets_touched,
            self.probe.candidates,
            self.probe.buckets_touched,
            self.probe_window.0,
            self.probe_window.1,
            self.staged_rows,
            self.rows,
            self.matches,
            self.plan.index_cost.total,
            self.plan.scan_cost,
        )
    }
}

/// Per-instance maintenance counters — unlike the `core.index.*` globals
/// these are not shared across databases, so tests can assert exact
/// counts even when suites run concurrently in one process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexRuntime {
    /// Full (re)builds of the sorted array — merges, finalizes, removals.
    pub refreshes: u64,
    /// Persisted copies adopted wholesale instead of rebuilding.
    pub adoptions: u64,
}

struct IndexObs {
    build_us: Histogram,
    probe_us: Histogram,
    candidates_scored: Counter,
    buckets_touched: Counter,
    plan_scan: Counter,
    plan_bucket: Counter,
    refreshes: Counter,
    adoptions: Counter,
}

fn obs() -> &'static IndexObs {
    static OBS: OnceLock<IndexObs> = OnceLock::new();
    OBS.get_or_init(|| IndexObs {
        build_us: global().histogram("core.index.build_us"),
        probe_us: global().histogram("core.index.probe_us"),
        candidates_scored: global().counter("core.index.candidates_scored"),
        buckets_touched: global().counter("core.index.buckets_touched"),
        plan_scan: global().counter("core.index.plan_scan"),
        plan_bucket: global().counter("core.index.plan_bucket"),
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

/// The maintained, planner-routed shot index.
#[derive(Debug, Clone)]
pub struct ShotIndex {
    params: BucketParams,
    weights: CostWeights,
    bucket: BucketIndex,
    model: CostModel,
    staged: Vec<IndexEntry>,
    runtime: IndexRuntime,
}

impl Default for ShotIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl ShotIndex {
    /// An empty index with default parameters.
    pub fn new() -> Self {
        Self::with_params(BucketParams::default())
    }

    /// An empty index with explicit bucket parameters.
    pub fn with_params(params: BucketParams) -> Self {
        let bucket = BucketIndex::build(Vec::new(), params);
        let model = CostModel::new(
            bucket.effective_width(),
            bucket.stats().clone(),
            CostWeights::default(),
        );
        ShotIndex {
            params,
            weights: CostWeights::default(),
            bucket,
            model,
            staged: Vec::new(),
            runtime: IndexRuntime::default(),
        }
    }

    /// Build directly from a batch of entries.
    pub fn from_entries(entries: Vec<IndexEntry>, params: BucketParams) -> Self {
        let mut idx = Self::with_params(params);
        idx.extend(entries);
        idx
    }

    /// Rows indexed (finalized + staged).
    pub fn len(&self) -> usize {
        self.bucket.len() + self.staged.len()
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
        self.bucket.entries()
    }

    /// Whether every staged row has been merged into the sorted array —
    /// i.e. [`Self::entries`] currently describes the full row set.
    pub fn is_finalized(&self) -> bool {
        self.staged.is_empty()
    }

    /// The bucket parameters in force.
    pub fn params(&self) -> BucketParams {
        self.params
    }

    /// The underlying sorted bucket array.
    pub fn bucket(&self) -> &BucketIndex {
        &self.bucket
    }

    /// The cost model the planner consults (rebuilt on every refresh).
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Per-instance maintenance counters.
    pub fn runtime(&self) -> IndexRuntime {
        self.runtime
    }

    /// Fingerprint of the full row set (finalized + staged); what the
    /// store persists next to the index payload.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_entries(self.bucket.entries().iter().chain(self.staged.iter()))
    }

    /// Insert one row (merges immediately; prefer [`Self::extend`] for
    /// batches and [`Self::stage`] for replay).
    pub fn insert(&mut self, entry: IndexEntry) {
        self.extend(vec![entry]);
    }

    /// Merge a batch into the sorted array (one refresh).
    pub fn extend(&mut self, batch: Vec<IndexEntry>) {
        if batch.is_empty() {
            return;
        }
        self.staged.extend(batch);
        self.refresh();
    }

    /// Queue rows without rebuilding — the journal-replay path. Staged
    /// rows remain queryable (scanned alongside the bucket probe).
    pub fn stage(&mut self, batch: impl IntoIterator<Item = IndexEntry>) {
        self.staged.extend(batch);
    }

    /// Merge anything staged into the sorted array. No-op when nothing is
    /// staged.
    pub fn finalize(&mut self) {
        if !self.staged.is_empty() {
            self.refresh();
        }
    }

    /// Adopt a persisted copy of the index instead of rebuilding, if its
    /// row set matches what is currently staged + finalized (verified by
    /// [fingerprint](fingerprint_entries)). Returns `false` — leaving the
    /// index untouched, caller should [`Self::finalize`] — on mismatch.
    pub fn adopt(&mut self, entries: Vec<IndexEntry>) -> bool {
        if fingerprint_entries(entries.iter()) != self.fingerprint() {
            return false;
        }
        let mut rows: Vec<(f64, IndexEntry)> = entries.into_iter().map(|e| (e.d_v(), e)).collect();
        if !rows
            .windows(2)
            .all(|w| entry_order(&w[0], &w[1]) != Ordering::Greater)
        {
            rows.sort_by(entry_order);
        }
        self.bucket = BucketIndex::from_sorted_rows(rows, self.params);
        self.rebuild_model();
        self.staged.clear();
        self.runtime.adoptions += 1;
        obs().adoptions.incr();
        true
    }

    /// Drop every row of `video`. Returns how many were removed.
    pub fn remove_video(&mut self, video: u64) -> usize {
        let staged_before = self.staged.len();
        self.staged.retain(|e| e.key.video != video);
        let mut removed = staged_before - self.staged.len();
        let kept: Vec<(f64, IndexEntry)> = self
            .bucket
            .sorted_rows()
            .filter(|(_, e)| e.key.video != video)
            .collect();
        if kept.len() != self.bucket.len() {
            removed += self.bucket.len() - kept.len();
            let _span = obs().build_us.start();
            self.bucket = BucketIndex::from_sorted_rows(kept, self.params);
            self.rebuild_model();
            self.runtime.refreshes += 1;
            obs().refreshes.incr();
        }
        removed
    }

    fn refresh(&mut self) {
        let _span = obs().build_us.start();
        let mut fresh: Vec<(f64, IndexEntry)> =
            self.staged.drain(..).map(|e| (e.d_v(), e)).collect();
        fresh.sort_by(entry_order);
        let mut merged = Vec::with_capacity(self.bucket.len() + fresh.len());
        let mut old = self.bucket.sorted_rows().peekable();
        let mut new = fresh.into_iter().peekable();
        loop {
            match (old.peek(), new.peek()) {
                (Some(a), Some(b)) => {
                    if entry_order(a, b) != Ordering::Greater {
                        merged.push(old.next().unwrap());
                    } else {
                        merged.push(new.next().unwrap());
                    }
                }
                (Some(_), None) => merged.push(old.next().unwrap()),
                (None, Some(_)) => merged.push(new.next().unwrap()),
                (None, None) => break,
            }
        }
        drop(old);
        self.bucket = BucketIndex::from_sorted_rows(merged, self.params);
        self.rebuild_model();
        self.runtime.refreshes += 1;
        obs().refreshes.incr();
    }

    fn rebuild_model(&mut self) {
        self.model = CostModel::new(
            self.bucket.effective_width(),
            self.bucket.stats().clone(),
            self.weights,
        );
    }

    /// Price a range probe without running it.
    pub fn plan_range(&self, q: &VarianceQuery) -> Plan {
        let index_cost = self.model.estimate_range(q.d_v(), q.alpha);
        let scan_cost = self.model.scan_cost();
        Plan {
            choice: if index_cost.total <= scan_cost {
                PlanChoice::Buckets
            } else {
                PlanChoice::Scan
            },
            index_cost,
            scan_cost,
        }
    }

    /// Price a top-k probe without running it.
    pub fn plan_topk(&self, q: &VarianceQuery, k: usize) -> Plan {
        let index_cost = self.model.estimate_topk(q.d_v(), k);
        let scan_cost = self.model.scan_cost();
        Plan {
            choice: if index_cost.total <= scan_cost {
                PlanChoice::Buckets
            } else {
                PlanChoice::Scan
            },
            index_cost,
            scan_cost,
        }
    }

    /// Eqs. 7–8 range query, routed through the planner. Results sorted
    /// by ascending `(distance, key)` — identical to [`Self::query_scan`].
    pub fn query(&self, q: &VarianceQuery) -> Vec<Match> {
        self.search(q, None, &TraceContext::disabled()).0
    }

    /// The `k` nearest rows to the query point in `(D^v, √Var^BA)` space
    /// (α/β ignored), routed through the planner. Ties by ascending key.
    pub fn query_topk(&self, q: &VarianceQuery, k: usize) -> Vec<Match> {
        self.search(q, Some(k), &TraceContext::disabled()).0
    }

    /// The planned probe with every match returned, sorted by ascending
    /// `(distance, key)`: [`Self::select`] keeping every row, uncapped.
    /// `k: None` runs the Eqs. 7–8 range, `Some(k)` the `k` nearest rows;
    /// the [`Explain`] is the planner's full decision trail, and the
    /// matches are the same [`Self::query`] / [`Self::query_topk`]
    /// return, since explaining never changes what executes.
    pub fn search(
        &self,
        q: &VarianceQuery,
        k: Option<usize>,
        ctx: &TraceContext,
    ) -> (Vec<Match>, Explain) {
        let (matches, _, explain) = self.select(q, k, usize::MAX, None, ctx);
        (matches, explain)
    }

    /// The one selection body behind every query. Prices the plan, runs
    /// the chosen executor over the finalized and the staged rows, and
    /// returns the first `cap` matches whose key `keep` accepts (`None`
    /// accepts every key) in ascending `(distance, key)` order, the count
    /// of every kept match, and the [`Explain`] (whose `matches` is the
    /// count before `keep`).
    ///
    /// **Range** (`k: None`) never collects the match set. A count pass
    /// tests Eqs. 7–8 on the probed slice's two cached columns (the
    /// bucket range, or the whole table for a scan plan) and on the
    /// staged rows; then a walk from `D_q^v` outward offers accepted rows
    /// to a heap of `min(cap, kept)` until no further row can place (see
    /// `BucketIndex::walk_nearest`), so a reply's few rows cost a few
    /// hundred row visits, not a match per accepted row.
    ///
    /// **Top-k** (`Some(k)`) runs the executor, cuts the union with the
    /// staged rows to the global `k` nearest, drops the rows `keep`
    /// rejects, and sorts only the first `cap` of the rest.
    ///
    /// Keys are unique per `(video, shot)`, so `(distance, key)` is a
    /// strict total order and the rows are exactly a full sort's first
    /// `cap`. `keep` must be a pure function of the key: it may be called
    /// more than once per row, in no particular order. The
    /// `core.index.probe` span opens under `ctx`, carries the explain
    /// summary, and covers the executor and the selection.
    pub fn select(
        &self,
        q: &VarianceQuery,
        k: Option<usize>,
        cap: usize,
        keep: Option<&mut dyn FnMut(ShotKey) -> bool>,
        ctx: &TraceContext,
    ) -> (Vec<Match>, usize, Explain) {
        let (plan, (lo, hi, _)) = match k {
            None => (
                self.plan_range(q),
                self.model.probe_window(q.d_v(), q.alpha),
            ),
            Some(k) => (self.plan_topk(q, k), self.model.topk_window(q.d_v(), k)),
        };
        let o = obs();
        let mut tspan = global_tracer().span(ctx, "core.index.probe");
        let probe_us = o.probe_us.start();
        match plan.choice {
            PlanChoice::Buckets => o.plan_bucket.incr(),
            PlanChoice::Scan => o.plan_scan.incr(),
        }
        let (rows, kept, matches, stats) = match k {
            None => self.select_range(q, plan.choice, cap, keep),
            Some(k) => self.select_topk(q, k, plan.choice, cap, keep),
        };
        drop(probe_us);
        o.buckets_touched.add(stats.buckets_touched as u64);
        o.candidates_scored
            .add((stats.candidates + self.staged.len()) as u64);
        let explain = Explain {
            plan,
            probe_window: (lo, hi),
            probe: stats,
            staged_rows: self.staged.len(),
            rows: self.bucket.len(),
            matches,
        };
        if tspan.is_recording() {
            tspan.attr("explain", explain.summary());
        }
        (rows, kept, explain)
    }

    /// The range side of [`Self::select`]: count, then walk. Returns the
    /// rows, the kept count, the match count and the executor's work.
    fn select_range(
        &self,
        q: &VarianceQuery,
        choice: PlanChoice,
        cap: usize,
        mut keep: Option<&mut dyn FnMut(ShotKey) -> bool>,
    ) -> (Vec<Match>, usize, usize, ProbeStats) {
        let w = Window::new(q);
        let (rows, stats) = match choice {
            PlanChoice::Buckets => self.bucket.range_slice(q),
            PlanChoice::Scan => self.bucket.scan_slice(),
        };
        let (mut matches, finalized_kept) =
            self.bucket
                .count_window(&w, rows.clone(), keep.as_deref_mut());
        let mut staged_kept = 0;
        for e in &self.staged {
            if w.accepts(e.d_v(), e.sqrt_ba()) {
                matches += 1;
                staged_kept += usize::from(keep.as_mut().map_or(true, |keep| keep(e.key)));
            }
        }
        let kept = finalized_kept + staged_kept;
        let mut nearest = Nearest::new(cap.min(kept), kept);
        if nearest.limit() > 0 {
            for e in &self.staged {
                let (dv, sba) = (e.d_v(), e.sqrt_ba());
                if w.accepts(dv, sba) && keep.as_mut().map_or(true, |keep| keep(e.key)) {
                    nearest.offer(Match {
                        entry: *e,
                        distance: w.distance(dv, sba),
                    });
                }
            }
            self.bucket
                .walk_nearest(&w, rows, keep, finalized_kept, &mut nearest);
        }
        (nearest.into_sorted(), kept, matches, stats)
    }

    /// The top-k side of [`Self::select`]: the executor's `k` nearest
    /// merged with the staged rows, then `keep`, then the first `cap`.
    /// Returns the rows, the kept count, the match count and the
    /// executor's work.
    fn select_topk(
        &self,
        q: &VarianceQuery,
        k: usize,
        choice: PlanChoice,
        cap: usize,
        keep: Option<&mut dyn FnMut(ShotKey) -> bool>,
    ) -> (Vec<Match>, usize, usize, ProbeStats) {
        let (mut found, stats) = match choice {
            PlanChoice::Buckets => self.bucket.topk_with_stats(q, k),
            PlanChoice::Scan => self.bucket.topk_scan_with_stats(q, k),
        };
        self.push_staged(q, Some(k), &mut found);
        let matches = found.len();
        if let Some(keep) = keep {
            found.retain(|m| keep(m.entry.key));
        }
        let kept = found.len();
        keep_nearest(&mut found, cap);
        found.sort_unstable_by(match_order);
        (found, kept, matches, stats)
    }

    /// Forced linear scan (the pinning reference for equivalence tests).
    pub fn query_scan(&self, q: &VarianceQuery) -> Vec<Match> {
        let (mut matches, _) = self.bucket.range_scan_unsorted(q);
        self.push_staged(q, None, &mut matches);
        matches.sort_by(match_order);
        matches
    }

    /// Forced linear-scan top-k (the pinning reference).
    pub fn query_topk_scan(&self, q: &VarianceQuery, k: usize) -> Vec<Match> {
        let (mut matches, _) = self.bucket.topk_scan_with_stats(q, k);
        self.push_staged(q, Some(k), &mut matches);
        matches.sort_by(match_order);
        matches
    }

    /// Probe the bucket executor directly and report its work — the
    /// measured side of the cost-model accuracy suite.
    pub fn probe_range(&self, q: &VarianceQuery) -> (Vec<Match>, ProbeStats) {
        self.bucket.range_with_stats(q)
    }

    /// Probe the bucket top-k executor directly with its work accounting.
    pub fn probe_topk(&self, q: &VarianceQuery, k: usize) -> (Vec<Match>, ProbeStats) {
        self.bucket.topk_with_stats(q, k)
    }

    /// Add the staged rows to an executor's matches: for a range the
    /// ones Eqs. 7–8 accept, for top-k all of them, after which only the
    /// `k` nearest of the union stay (unsorted).
    fn push_staged(&self, q: &VarianceQuery, k: Option<usize>, matches: &mut Vec<Match>) {
        if self.staged.is_empty() {
            return;
        }
        let w = Window::new(q);
        for e in &self.staged {
            let (dv, sba) = (e.d_v(), e.sqrt_ba());
            if k.is_some() || w.accepts(dv, sba) {
                matches.push(Match {
                    entry: *e,
                    distance: w.distance(dv, sba),
                });
            }
        }
        if let Some(k) = k {
            keep_nearest(matches, k);
        }
    }
}

/// Cut `matches` to its `n` smallest under `(distance, key)`, in no
/// particular order — a linear-time selection, not a sort.
fn keep_nearest(matches: &mut Vec<Match>, n: usize) {
    if n < matches.len() {
        matches.select_nth_unstable_by(n, match_order);
        matches.truncate(n);
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
    fn planner_prefers_buckets_on_large_corpus_and_scan_on_tiny() {
        let big = ShotIndex::from_entries(corpus(100_000), BucketParams::default());
        let q = VarianceQuery::new(20.0, 5.0);
        assert_eq!(big.plan_range(&q).choice, PlanChoice::Buckets);
        assert_eq!(big.plan_topk(&q, 10).choice, PlanChoice::Buckets);

        let tiny = ShotIndex::from_entries(corpus(4), BucketParams::default());
        assert_eq!(tiny.plan_range(&q).choice, PlanChoice::Scan);
    }

    #[test]
    fn planned_query_equals_forced_scan() {
        let idx = ShotIndex::from_entries(corpus(5_000), BucketParams::default());
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
        let mut idx = ShotIndex::from_entries(corpus(100), BucketParams::default());
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
        let mut idx = ShotIndex::from_entries(corpus(70), BucketParams::default());
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
        let mut idx = ShotIndex::from_entries(corpus(20_000), BucketParams::default());
        idx.stage([entry(999, 0, 20.0, 5.0)]);
        let q = VarianceQuery::new(20.0, 5.0).with_tolerances(1.0, 1.0);
        let (matches, ex) = idx.search(&q, None, &TraceContext::disabled());
        assert_eq!(matches, idx.query(&q), "explain must not change the query");
        assert_eq!(ex.plan, idx.plan_range(&q));
        assert_eq!(ex.matches, matches.len());
        assert_eq!(ex.staged_rows, 1);
        assert_eq!(ex.rows, 20_000);
        // The reported estimate is exactly the cost model's, and the
        // reported actuals are exactly the executor's.
        let est = idx.cost_model().estimate_range(q.d_v(), q.alpha);
        assert_eq!(ex.plan.index_cost, est);
        if ex.plan.choice == PlanChoice::Buckets {
            let (_, stats) = idx.probe_range(&q);
            assert_eq!(ex.probe, stats);
        }
        let s = ex.summary();
        for key in [
            "plan=",
            "est_candidates=",
            "actual_candidates=",
            "window=[",
            "scan_cost=",
        ] {
            assert!(s.contains(key), "summary missing {key}: {s}");
        }

        let (_, tex) = idx.search(&q, Some(5), &TraceContext::disabled());
        assert_eq!(tex.plan, idx.plan_topk(&q, 5));
        assert_eq!(tex.matches, 5);
    }

    #[test]
    fn traced_query_records_a_probe_span_with_explain_attrs() {
        let idx = ShotIndex::from_entries(corpus(5_000), BucketParams::default());
        let tracer = vdb_obs::global_tracer();
        let before = tracer.recorder().total_recorded();
        let root = tracer.trace_root_forced();
        let q = VarianceQuery::new(10.0, 5.0);
        assert_eq!(idx.search(&q, None, &root).0, idx.query(&q));
        assert_eq!(idx.search(&q, Some(3), &root).0, idx.query_topk(&q, 3));
        let events = tracer.recorder().events_for(root.trace_id);
        assert_eq!(events.len(), 2, "two probes recorded");
        assert!(events.iter().all(|e| e.name == "core.index.probe"));
        assert!(events.iter().all(|e| e.attrs.starts_with("explain=plan=")));
        assert!(tracer.recorder().total_recorded() >= before + 2);
        // Unsampled context: nothing recorded.
        let after = tracer.recorder().total_recorded();
        idx.search(&q, None, &TraceContext::disabled());
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

    /// `select` against `search` → filter → take(cap) on one index, for
    /// every k, predicate and cap of the grid (the caps include 0, 1 and
    /// the kept count −1, +0, +1); `search` itself against a brute-force
    /// sort of every row.
    fn check_select(idx: &ShotIndex, rows: &[IndexEntry], q: &VarianceQuery) -> Result<(), String> {
        let ctx = TraceContext::disabled();
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
        // No predicate, keep all, keep none, keep even videos.
        type Predicate = Option<fn(ShotKey) -> bool>;
        let predicates: [Predicate; 4] = [
            None,
            Some(|_| true),
            Some(|_| false),
            Some(|key| key.video % 2 == 0),
        ];
        for k in [None, Some(0), Some(3), Some(1usize << 40)] {
            let (all, ex) = idx.search(q, k, &ctx);
            let want: Vec<Match> = match k {
                None => brute
                    .iter()
                    .filter(|m| q.matches(&m.entry))
                    .copied()
                    .collect(),
                Some(k) => brute.iter().take(k).copied().collect(),
            };
            prop_assert_eq!(&all, &want, "search, k={:?}", k);
            prop_assert_eq!(ex.matches, all.len(), "explain, k={:?}", k);
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
                    let (got, count, gex) = idx.select(q, k, cap, keep, &ctx);
                    let want: Vec<Match> = filtered.iter().take(cap).copied().collect();
                    prop_assert_eq!(
                        &got,
                        &want,
                        "rows, k={:?} predicate {} cap={}",
                        k,
                        which,
                        cap
                    );
                    prop_assert_eq!(count, kept, "count, k={:?} predicate {}", k, which);
                    prop_assert_eq!(&gex, &ex, "explain, k={:?} predicate {}", k, which);
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
            for (n, choice) in [(tiny, PlanChoice::Scan), (large, PlanChoice::Buckets)] {
                let rows = tied_corpus(&mut rng, n);
                let (q_ba, q_oa) = if on_a_point == 1 {
                    let e = rows[rng.below(n as u64) as usize];
                    (e.var_ba, e.var_oa)
                } else {
                    (rng.unit_f64() * 60.0, rng.unit_f64() * 60.0)
                };
                let q = VarianceQuery::new(q_ba, q_oa).with_tolerances(alpha, beta);
                let split = n - n * staged_eighths / 8;
                let mut idx = ShotIndex::from_entries(rows[..split].to_vec(), BucketParams::default());
                idx.stage(rows[split..].iter().copied());
                prop_assert_eq!(idx.plan_range(&q).choice, choice, "n={}", n);
                check_select(&idx, &rows, &q)?;
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
        ];
        let edges = edge_rows();
        let mut padded = edges.clone();
        padded.extend(filler_rows(3_000));
        let narrow = VarianceQuery::new(16.0, 4.0);
        for (rows, choice) in [(&edges, PlanChoice::Scan), (&padded, PlanChoice::Buckets)] {
            let finalized = ShotIndex::from_entries(rows.clone(), BucketParams::default());
            assert_eq!(finalized.plan_range(&narrow).choice, choice);
            let mut half =
                ShotIndex::from_entries(rows[rows.len() / 2..].to_vec(), BucketParams::default());
            half.stage(rows[..rows.len() / 2].iter().copied());
            let mut staged = ShotIndex::new();
            staged.stage(rows.iter().copied());
            for idx in [&finalized, &half, &staged] {
                for q in &queries {
                    check_select(idx, rows, q).unwrap();
                }
            }
        }
        // The edges bite: each on-edge point is in, each just-past point
        // out, for every video.
        let idx = ShotIndex::from_entries(edges, BucketParams::default());
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
        let whole = ShotIndex::from_entries(rows.clone(), BucketParams::default());
        let mut grown = ShotIndex::new();
        for chunk in rows.chunks(37) {
            grown.extend(chunk.to_vec());
        }
        assert_eq!(whole.entries(), grown.entries());
        assert_eq!(whole.fingerprint(), grown.fingerprint());
    }
}

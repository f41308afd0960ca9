//! Shared-access wrapper: many readers, exclusive ingest.
//!
//! A browsing workload is read-heavy — many users exploring scene trees and
//! issuing variance queries while new clips are occasionally ingested.
//! [`SharedDatabase`] wraps [`VideoDatabase`] in a `std::sync::RwLock`
//! behind an `Arc`, exposing the same operations with interior locking.
//! The lock does not poison: a panic under the write lock (a failed
//! request on a server worker) leaves the database usable for the rest.

use crate::catalog::{FormId, GenreId};
use crate::db::{DbError, QueryAnswer, VideoDatabase};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use vdb_core::frame::Video;
use vdb_core::index::VarianceQuery;

/// A cloneable, thread-safe handle to a video database.
#[derive(Clone, Default)]
pub struct SharedDatabase {
    inner: Arc<RwLock<VideoDatabase>>,
}

impl SharedDatabase {
    fn read_lock(&self) -> RwLockReadGuard<'_, VideoDatabase> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_lock(&self) -> RwLockWriteGuard<'_, VideoDatabase> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wrap an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing database.
    pub fn from_db(db: VideoDatabase) -> Self {
        SharedDatabase {
            inner: Arc::new(RwLock::new(db)),
        }
    }

    /// Ingest under the write lock.
    pub fn ingest(
        &self,
        name: impl Into<String>,
        video: &Video,
        genres: Vec<GenreId>,
        forms: Vec<FormId>,
    ) -> Result<u64, DbError> {
        self.write_lock().ingest(name, video, genres, forms)
    }

    /// Ingest many videos: analyses run on `workers` threads *outside* the
    /// lock (analysis dominates ingest cost), then results are registered
    /// under one short write lock, in submission order — so assigned ids
    /// are deterministic regardless of thread scheduling.
    ///
    /// Each worker owns one [`vdb_core::pipeline::AnalysisEngine`] for its
    /// whole lifetime, so per-frame scratch memory is allocated once per
    /// worker, not once per clip.
    pub fn ingest_batch(
        &self,
        items: Vec<(String, Video)>,
        workers: usize,
    ) -> Vec<Result<u64, DbError>> {
        let config = self.read_lock().config();
        let n = items.len();
        let mut slots: Vec<
            std::sync::Mutex<Option<Result<vdb_core::analyzer::VideoAnalysis, DbError>>>,
        > = Vec::with_capacity(n);
        slots.resize_with(n, || std::sync::Mutex::new(None));
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers.max(1) {
                s.spawn(|| {
                    let mut engine = vdb_core::pipeline::AnalysisEngine::new(config);
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let analysis = engine.analyze(&items[i].1).map_err(DbError::from);
                        slots[i].lock().unwrap().replace(analysis);
                    }
                });
            }
        });
        let mut db = self.write_lock();
        items
            .into_iter()
            .zip(slots)
            .map(|((name, video), slot)| {
                let analysis = slot.into_inner().unwrap().expect("slot filled")?;
                Ok(
                    db.ingest_precomputed(
                        name,
                        video.dims(),
                        video.fps(),
                        analysis,
                        vec![],
                        vec![],
                    ),
                )
            })
            .collect()
    }

    /// Query under a read lock (concurrent with other readers).
    pub fn query(&self, q: &VarianceQuery) -> Vec<QueryAnswer> {
        self.read_lock().query(q)
    }

    /// Set ingest-time extraction parallelism (takes the write lock
    /// briefly; applies to subsequent ingests).
    pub fn set_parallelism(&self, parallelism: vdb_core::parallel::Parallelism) {
        self.write_lock().set_parallelism(parallelism);
    }

    /// Set the ingest-time extraction SIMD level (takes the write lock
    /// briefly; applies to subsequent ingests).
    pub fn set_simd(&self, simd: vdb_core::simd::SimdLevel) {
        self.write_lock().set_simd(simd);
    }

    /// Number of videos.
    pub fn len(&self) -> usize {
        self.read_lock().len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.read_lock().is_empty()
    }

    /// Run a closure with read access to the full database (for browsing
    /// sessions and inspection).
    pub fn read<R>(&self, f: impl FnOnce(&VideoDatabase) -> R) -> R {
        f(&self.read_lock())
    }

    /// Run a closure with exclusive access.
    pub fn write<R>(&self, f: impl FnOnce(&mut VideoDatabase) -> R) -> R {
        f(&mut self.write_lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::index::VarianceQuery;
    use vdb_synth::script::{generate, ShotSpec, VideoScript};

    fn small_video(seed: u64) -> Video {
        let mut script = VideoScript::small(seed);
        script.push_shot(ShotSpec::fixed(0, 6));
        script.push_shot(ShotSpec::fixed(1, 6));
        generate(&script).video
    }

    #[test]
    fn concurrent_readers_with_writer() {
        let db = SharedDatabase::new();
        db.ingest("seed", &small_video(1), vec![], vec![]).unwrap();

        let mut handles = Vec::new();
        // Four reader threads hammer queries while two writers ingest.
        for r in 0..4u64 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let mut total = 0usize;
                for i in 0..50 {
                    let q = VarianceQuery::new((r * 7 + i) as f64 % 30.0, 1.0);
                    total += db.query(&q).len();
                }
                total
            }));
        }
        for w in 0..2u64 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..3 {
                    db.ingest(
                        format!("w{w}-{i}"),
                        &small_video(w * 10 + i),
                        vec![],
                        vec![],
                    )
                    .unwrap();
                }
                0
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len(), 7);
    }

    #[test]
    fn readers_see_consistent_answers_during_ingest() {
        use vdb_core::parallel::Parallelism;

        // One writer ingests clips (through the parallel extraction path)
        // while readers hammer variance queries. Every answer a reader
        // observes must reference a fully-registered video: its analysis
        // must be retrievable and its shot index valid. A torn ingest
        // (index updated before the analysis is stored, or vice versa)
        // would surface here as a missing analysis or an out-of-range
        // shot.
        let db = SharedDatabase::new();
        db.set_parallelism(Parallelism::Threads(2));
        db.ingest("seed", &small_video(42), vec![], vec![]).unwrap();

        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for r in 0..3u64 {
                let db = db.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut i = 0u64;
                    let mut last_len = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        i += 1;
                        // The database only ever grows.
                        let len = db.len();
                        assert!(len >= last_len, "video count went backwards");
                        last_len = len;
                        let q = VarianceQuery::new((r * 13 + i) as f64 % 40.0, 2.0);
                        for ans in db.query(&q) {
                            db.read(|d| {
                                let analysis = d
                                    .analysis(ans.key.video)
                                    .expect("answer references unregistered video");
                                assert!(
                                    (ans.key.shot as usize) < analysis.shots.len(),
                                    "answer references out-of-range shot"
                                );
                            });
                        }
                    }
                });
            }
            for i in 0..6u64 {
                db.ingest(format!("clip-{i}"), &small_video(100 + i), vec![], vec![])
                    .unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(db.len(), 7);
    }

    #[test]
    fn parallel_ingest_equals_serial_ingest() {
        use vdb_core::parallel::Parallelism;
        let video = small_video(9);
        let serial_db = SharedDatabase::new();
        let parallel_db = SharedDatabase::new();
        parallel_db.set_parallelism(Parallelism::Threads(4));
        let a = serial_db.ingest("v", &video, vec![], vec![]).unwrap();
        let b = parallel_db.ingest("v", &video, vec![], vec![]).unwrap();
        assert_eq!(a, b);
        let sa = serial_db.read(|d| d.analysis(a).unwrap().clone());
        let sb = parallel_db.read(|d| d.analysis(b).unwrap().clone());
        assert_eq!(sa, sb, "parallel ingest must store identical artifacts");
    }

    #[test]
    fn read_write_closures() {
        let db = SharedDatabase::new();
        let id = db.ingest("x", &small_video(3), vec![], vec![]).unwrap();
        let shots = db.read(|d| d.analysis(id).unwrap().shots.len());
        assert!(shots >= 1);
        db.write(|d| d.remove(id)).unwrap();
        assert!(db.is_empty());
    }

    #[test]
    fn batch_ingest_deterministic_ids_and_content() {
        // Batch with 3 workers equals sequential ingest, id for id.
        let items: Vec<(String, Video)> = (0..5u64)
            .map(|i| (format!("clip-{i}"), small_video(100 + i)))
            .collect();
        let batch_db = SharedDatabase::new();
        let ids: Vec<u64> = batch_db
            .ingest_batch(items.clone(), 3)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "submission-order ids");

        let seq_db = SharedDatabase::new();
        for (name, video) in &items {
            seq_db.ingest(name.clone(), video, vec![], vec![]).unwrap();
        }
        for &id in &ids {
            let a = batch_db.read(|d| d.analysis(id).unwrap().clone());
            let b = seq_db.read(|d| d.analysis(id).unwrap().clone());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn batch_ingest_reports_per_item_errors() {
        use vdb_core::frame::FrameBuf;
        let good = small_video(7);
        let tiny = Video::new(vec![FrameBuf::black(8, 8); 3], 3.0).unwrap();
        let db = SharedDatabase::new();
        let results = db.ingest_batch(vec![("ok".into(), good), ("tiny".into(), tiny)], 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert_eq!(db.len(), 1, "only the good clip registered");
    }

    #[test]
    fn clones_share_state() {
        let a = SharedDatabase::new();
        let b = a.clone();
        a.ingest("shared", &small_video(4), vec![], vec![]).unwrap();
        assert_eq!(b.len(), 1);
    }
}

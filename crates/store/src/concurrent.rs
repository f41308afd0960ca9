//! The one lock-wrapped database handle: many readers, exclusive mutation.
//!
//! A browsing workload is read-heavy — many users exploring scene trees and
//! issuing variance queries while new clips are occasionally ingested.
//! [`ServerStore`] wraps any [`DbBackend`] — the in-memory
//! [`VideoDatabase`] or the durable [`JournaledDatabase`] — in one
//! `std::sync::RwLock` behind an `Arc`, so the backend is the only place
//! the memory/journal choice is made. Readers get the `&VideoDatabase`;
//! a writer gets the `&mut dyn DbBackend`. The lock does not poison: a
//! panic under the write lock (a failed request on a server worker)
//! leaves the database usable for the rest.

use crate::backend::DbBackend;
use crate::db::{DbError, VideoDatabase};
use crate::journal::JournaledDatabase;
use std::path::PathBuf;
use std::sync::{Arc, PoisonError, RwLock};
use vdb_core::analyzer::AnalyzerConfig;

/// A cloneable, thread-safe handle to the database a server (or any
/// shared caller) serves: ephemeral in memory, or durable behind a
/// journal (every `demo` ingest and `remove` tombstone is flushed before
/// its response goes out). Clones share one database.
#[derive(Clone)]
pub struct ServerStore {
    inner: Arc<RwLock<dyn DbBackend>>,
}

impl ServerStore {
    /// Wrap any backend.
    pub fn new(backend: impl DbBackend + 'static) -> Self {
        ServerStore {
            inner: Arc::new(RwLock::new(backend)),
        }
    }

    /// An empty in-memory store.
    pub fn memory() -> Self {
        Self::new(VideoDatabase::new())
    }

    /// Open (or create) a journal-backed store.
    pub fn open_journal(path: impl Into<PathBuf>, config: AnalyzerConfig) -> Result<Self, DbError> {
        Ok(Self::new(JournaledDatabase::open(path, config)?))
    }

    /// Run a closure under a shared read lock.
    pub fn read<R>(&self, f: impl FnOnce(&VideoDatabase) -> R) -> R {
        f(self
            .inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .db())
    }

    /// Run a closure under the exclusive write lock. A request that
    /// panicked while holding it does not poison the store for the rest.
    pub fn write<R>(&self, f: impl FnOnce(&mut dyn DbBackend) -> R) -> R {
        f(&mut *self.inner.write().unwrap_or_else(PoisonError::into_inner))
    }

    /// Flush any buffered journal bytes (no-op for the in-memory store).
    pub fn sync(&self) -> Result<(), DbError> {
        self.write(|backend| backend.sync())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shell::{execute_mutation, execute_readonly, Command};
    use vdb_core::frame::Video;
    use vdb_core::parallel::Parallelism;
    use vdb_synth::script::{generate, ShotSpec, VideoScript};

    fn small_video(seed: u64) -> Video {
        let mut script = VideoScript::small(seed);
        script.push_shot(ShotSpec::fixed(0, 6));
        script.push_shot(ShotSpec::fixed(1, 6));
        generate(&script).video
    }

    /// Both backends behind the one handle, analysing with `config`: in
    /// memory, and journaled in a fresh directory (its journal path is
    /// returned for reopening and cleanup).
    fn stores(tag: &str, config: AnalyzerConfig) -> Vec<(ServerStore, Option<PathBuf>)> {
        let dir = std::env::temp_dir().join(format!("vdb-concurrent-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.vdbj");
        let journaled = ServerStore::open_journal(&path, config).unwrap();
        vec![
            (ServerStore::new(VideoDatabase::with_config(config)), None),
            (journaled, Some(path)),
        ]
    }

    fn cleanup(path: Option<PathBuf>) {
        if let Some(dir) = path.as_deref().and_then(|p| p.parent()) {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    fn ingest(store: &ServerStore, name: impl Into<String>, video: &Video) -> Result<u64, DbError> {
        store.write(|b| b.ingest_clip(name.into(), video, vec![], vec![]))
    }

    fn len(store: &ServerStore) -> usize {
        store.read(|d| d.len())
    }

    #[test]
    fn concurrent_readers_with_writer() {
        for (db, path) in stores("readers", AnalyzerConfig::default()) {
            ingest(&db, "seed", &small_video(1)).unwrap();

            let mut handles = Vec::new();
            // Four reader threads hammer queries while two writers ingest.
            for r in 0..4u64 {
                let db = db.clone();
                handles.push(std::thread::spawn(move || {
                    let mut total = 0usize;
                    for i in 0..50 {
                        let q = format!("ba={} oa=1", (r * 7 + i) as f64 % 30.0);
                        total += db.read(|d| d.query_str(&q).unwrap().len());
                    }
                    total
                }));
            }
            for w in 0..2u64 {
                let db = db.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..3 {
                        ingest(&db, format!("w{w}-{i}"), &small_video(w * 10 + i)).unwrap();
                    }
                    0
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(len(&db), 7);
            cleanup(path);
        }
    }

    #[test]
    fn readers_see_consistent_answers_during_ingest() {
        // One writer ingests clips (through the parallel extraction path)
        // while readers hammer variance queries. Every answer a reader
        // observes must reference a fully-registered video: its analysis
        // must be retrievable and its shot index valid. A torn ingest
        // (index updated before the analysis is stored, or vice versa)
        // would surface here as a missing analysis or an out-of-range
        // shot.
        let config = AnalyzerConfig {
            parallelism: Parallelism::Threads(2),
            ..AnalyzerConfig::default()
        };
        for (db, path) in stores("consistent", config) {
            ingest(&db, "seed", &small_video(42)).unwrap();

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
                            let n = len(&db);
                            assert!(n >= last_len, "video count went backwards");
                            last_len = n;
                            let q = format!("ba={} oa=2", (r * 13 + i) as f64 % 40.0);
                            for ans in db.read(|d| d.query_str(&q).unwrap()) {
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
                    ingest(&db, format!("clip-{i}"), &small_video(100 + i)).unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
            assert_eq!(len(&db), 7);
            cleanup(path);
        }
    }

    #[test]
    fn parallel_ingest_equals_serial_ingest() {
        let video = small_video(9);
        let parallel = AnalyzerConfig {
            parallelism: Parallelism::Threads(4),
            ..AnalyzerConfig::default()
        };
        let serial = AnalyzerConfig {
            parallelism: Parallelism::Serial,
            ..AnalyzerConfig::default()
        };
        let mut all = stores("serial", serial);
        all.extend(stores("parallel", parallel));
        let mut stored = Vec::new();
        for (db, path) in all {
            let id = ingest(&db, "v", &video).unwrap();
            assert_eq!(id, 0);
            stored.push(db.read(|d| d.analysis(id).unwrap().clone()));
            cleanup(path);
        }
        for s in &stored[1..] {
            assert_eq!(
                s, &stored[0],
                "parallel ingest must store identical artifacts"
            );
        }
    }

    #[test]
    fn read_write_closures() {
        for (db, path) in stores("closures", AnalyzerConfig::default()) {
            let id = ingest(&db, "x", &small_video(3)).unwrap();
            let shots = db.read(|d| d.analysis(id).unwrap().shots.len());
            assert!(shots >= 1);
            db.write(|b| b.remove_video(id)).unwrap();
            assert!(db.read(|d| d.is_empty()));
            cleanup(path);
        }
    }

    #[test]
    fn batch_ingest_deterministic_ids_and_content() {
        // Ingest through the handle equals direct ingest, id for id.
        let items: Vec<(String, Video)> = (0..5u64)
            .map(|i| (format!("clip-{i}"), small_video(100 + i)))
            .collect();
        let mut direct = VideoDatabase::new();
        for (name, video) in &items {
            direct.ingest(name.clone(), video, vec![], vec![]).unwrap();
        }
        for (db, path) in stores("batch", AnalyzerConfig::default()) {
            let ids: Vec<u64> = items
                .iter()
                .map(|(name, video)| ingest(&db, name.clone(), video).unwrap())
                .collect();
            assert_eq!(ids, vec![0, 1, 2, 3, 4], "submission-order ids");
            for &id in &ids {
                let a = db.read(|d| d.analysis(id).unwrap().clone());
                assert_eq!(&a, direct.analysis(id).unwrap());
            }
            cleanup(path);
        }
    }

    #[test]
    fn batch_ingest_reports_per_item_errors() {
        use vdb_core::frame::FrameBuf;
        let good = small_video(7);
        let tiny = Video::new(vec![FrameBuf::black(8, 8); 3], 3.0).unwrap();
        for (db, path) in stores("errors", AnalyzerConfig::default()) {
            assert!(ingest(&db, "ok", &good).is_ok());
            assert!(ingest(&db, "tiny", &tiny).is_err());
            assert_eq!(len(&db), 1, "only the good clip registered");
            if let Some(path) = &path {
                // Nothing of the failed clip reached the journal either.
                drop(db);
                let reopened = JournaledDatabase::open(path, AnalyzerConfig::default()).unwrap();
                assert_eq!(reopened.db().len(), 1);
                assert_eq!(reopened.db().catalog().get(0).unwrap().name, "ok");
            }
            cleanup(path);
        }
    }

    #[test]
    fn clones_share_state() {
        for (a, path) in stores("clones", AnalyzerConfig::default()) {
            let b = a.clone();
            ingest(&a, "shared", &small_video(4)).unwrap();
            assert_eq!(len(&b), 1);
            cleanup(path);
        }
    }

    #[test]
    fn memory_and_journal_answer_alike() {
        let mut answers = Vec::new();
        for (db, path) in stores("alike", AnalyzerConfig::default()) {
            for line in ["demo 3", "remove 1", "demo 1"] {
                db.write(|b| execute_mutation(b, &Command::parse(line)))
                    .expect("a mutation");
            }
            let read = |line: &str| {
                db.read(|d| execute_readonly(d, &Command::parse(line)))
                    .expect("a read-only command")
            };
            answers.push(
                [
                    "list",
                    "stats",
                    "query ba=0.5 oa=15 limit=5",
                    "tree 0",
                    // The query above finds nothing here; this one finds 5.
                    "query ba=0.4 oa=14 alpha=4 beta=4 limit=5",
                ]
                .map(read),
            );
            cleanup(path);
        }
        assert!(answers[0][1].contains("videos 3"), "{}", answers[0][1]);
        assert!(answers[0][3].contains("SN_"), "{}", answers[0][3]);
        assert!(answers[0][4].contains("5 answers"), "{}", answers[0][4]);
        assert_eq!(answers[0], answers[1], "memory and journal answers differ");
    }
}

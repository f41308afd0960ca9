//! Journaled persistence: every ingest is appended to the segment file as
//! it happens.
//!
//! [`crate::db::VideoDatabase::save`] rewrites the whole database — fine
//! for small catalogs, wrong for a store that grows by one clip at a time.
//! [`JournaledDatabase`] keeps the segment file open and appends each
//! video's records (catalog row + analysis) on ingest, so the on-disk
//! state is durable up to the last completed ingest; on open, the journal
//! is replayed and — thanks to the segment layer's checksummed records —
//! a torn tail from a crash is dropped cleanly.
//!
//! # Group commit
//!
//! Appends are two-phase: `JournalWriter::stage` copies the encoded
//! record into a pending buffer under a short lock and hands back a
//! monotonically increasing ticket; `JournalWriter::wait_durable` blocks
//! until every byte staged at or before that ticket has reached the OS.
//! The first waiter becomes the *leader*: it swaps the whole pending
//! buffer out, writes it with one `write_all` **outside** the state lock,
//! and wakes the followers — so K sessions committing concurrently share
//! one write barrier instead of paying K. The durability point is
//! unchanged from the single-writer design (write-to-OS, no `fdatasync`),
//! matching the crash model the truncation tests exercise.

use crate::backend::{CommitTicket, DbBackend};
use crate::catalog::{FormId, GenreId};
use crate::codec;
use crate::db::{DbError, VideoDatabase, TAG_ANALYSIS, TAG_META, TAG_REMOVE};
use crate::pages::{encode_record, read_segment, MAGIC};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use vdb_core::analyzer::{AnalyzerConfig, VideoAnalysis};
use vdb_core::frame::Video;
use vdb_obs::global_tracer;

/// A durability ticket: `wait_durable(t)` returns once every record staged
/// at or before `t` has been written to the OS.
pub type JournalTicket = u64;

/// Per-writer group-commit counters (instance-local, unlike the
/// process-global `store.journal.*` metrics — tests and benches that run
/// many journals in one process need exact accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Records staged since open.
    pub staged_records: u64,
    /// Batched write barriers issued (each covers ≥1 record; the
    /// group-commit win is `staged_records / batches`).
    pub batches: u64,
}

struct WriterState {
    /// Encoded records accepted but not yet written.
    pending: Vec<u8>,
    /// Highest ticket handed out by `stage`.
    staged: JournalTicket,
    /// Every record with a ticket ≤ this has reached the OS.
    durable: JournalTicket,
    /// A leader is currently writing a batch (outside this lock).
    syncing: bool,
    /// Sticky write failure: once a batch write fails the journal's tail
    /// position is unknown, so every later wait fails too.
    error: Option<String>,
}

/// The shared append path: staged bytes, the group-commit barrier, and the
/// journal file itself. Shared (`Arc`) between the [`JournaledDatabase`]
/// and any outstanding [`CommitTicket`]s, so waiting for durability never
/// needs the database lock.
pub(crate) struct JournalWriter {
    state: Mutex<WriterState>,
    cv: Condvar,
    /// Leader-only: taken without the state lock while writing a batch.
    file: Mutex<File>,
    staged_records: AtomicU64,
    batches: AtomicU64,
}

fn poisoned<T>(guard: std::sync::LockResult<T>) -> T {
    guard.unwrap_or_else(|e| panic!("journal writer lock poisoned: {e}"))
}

impl JournalWriter {
    fn new(file: File) -> Self {
        JournalWriter {
            state: Mutex::new(WriterState {
                pending: Vec::new(),
                staged: 0,
                durable: 0,
                syncing: false,
                error: None,
            }),
            cv: Condvar::new(),
            file: Mutex::new(file),
            staged_records: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// Stage one encoded record (tag + length + payload + checksum bytes,
    /// already framed) for the next batch. Cheap: one buffer append under
    /// a short lock.
    fn stage(&self, record: &[u8]) -> Result<JournalTicket, DbError> {
        let mut state = poisoned(self.state.lock());
        if let Some(e) = &state.error {
            return Err(write_error(e));
        }
        state.pending.extend_from_slice(record);
        state.staged += 1;
        self.staged_records.fetch_add(1, Ordering::Relaxed);
        Ok(state.staged)
    }

    /// Block until every record staged at or before `ticket` is durable
    /// (written to the OS). The first waiter to arrive while no write is
    /// in flight becomes the leader and writes *all* currently staged
    /// bytes in one batch — concurrent committers share the barrier.
    pub(crate) fn wait_durable(&self, ticket: JournalTicket) -> Result<(), DbError> {
        let mut state = poisoned(self.state.lock());
        loop {
            if let Some(e) = &state.error {
                return Err(write_error(e));
            }
            if state.durable >= ticket {
                return Ok(());
            }
            if !state.syncing {
                state.syncing = true;
                let batch = std::mem::take(&mut state.pending);
                let hi = state.staged;
                drop(state);
                let result = self.write_batch(&batch);
                state = poisoned(self.state.lock());
                state.syncing = false;
                match result {
                    Ok(()) => state.durable = state.durable.max(hi),
                    Err(e) => state.error = Some(e.to_string()),
                }
                self.cv.notify_all();
                // Loop around: re-check durable/error under the lock.
            } else {
                state = poisoned(self.cv.wait(state));
            }
        }
    }

    fn write_batch(&self, batch: &[u8]) -> std::io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let obs = crate::obs::journal();
        let tracer = global_tracer();
        let mut file = poisoned(self.file.lock());
        // The write is the batch's durability point; timed separately so
        // fsync-path tail latency is visible on its own.
        let mut fsync_tspan = tracer.span("store.journal.fsync");
        if fsync_tspan.is_recording() {
            fsync_tspan.attr("bytes", batch.len());
        }
        let _fsync_span = obs.fsync_us.start();
        self.batches.fetch_add(1, Ordering::Relaxed);
        file.write_all(batch)?;
        file.flush()
    }

    /// Drain everything staged so far (the final barrier on drop/sync).
    fn flush_all(&self) -> Result<(), DbError> {
        let staged = poisoned(self.state.lock()).staged;
        self.wait_durable(staged)
    }

    /// Swap in a fresh file handle after compaction. Pending bytes must
    /// already be drained (the caller flushes first).
    fn replace_file(&self, new_file: File) {
        let state = poisoned(self.state.lock());
        debug_assert!(
            state.pending.is_empty() && !state.syncing,
            "replace_file requires a drained writer"
        );
        drop(state);
        *poisoned(self.file.lock()) = new_file;
    }

    fn stats(&self) -> JournalStats {
        JournalStats {
            staged_records: self.staged_records.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

fn write_error(msg: &str) -> DbError {
    DbError::Segment(crate::pages::SegmentError::Io(std::io::Error::other(
        format!("journal write failed: {msg}"),
    )))
}

/// A [`VideoDatabase`] bound to an append-only journal file.
pub struct JournaledDatabase {
    db: VideoDatabase,
    writer: Arc<JournalWriter>,
    path: PathBuf,
}

impl JournaledDatabase {
    /// Open (or create) a journal. Existing records are replayed by
    /// [`VideoDatabase`]'s one checked replay; a torn tail is truncated
    /// away so subsequent appends form valid records, and a META row
    /// whose ANALYSIS record was torn off is swept so no partial video is
    /// ever visible. A journal that does not replay (another segment
    /// format version, a record that fails its checks) is an error, and
    /// the file is left as it was.
    pub fn open(path: impl Into<PathBuf>, config: AnalyzerConfig) -> Result<Self, DbError> {
        let path = path.into();
        let exists = path.exists() && std::fs::metadata(&path)?.len() > 0;
        if exists {
            let bytes = std::fs::read(&path)?;
            let records = read_segment(&bytes[..])?;
            // Replay is its own (head-sampled) trace: recovery cost shows
            // up in a `debug dump` like any other request.
            let db = {
                let tracer = global_tracer();
                let _root = tracer.trace_root().enter();
                let mut replay_span = tracer.span("store.journal.replay");
                let (db, swept) = VideoDatabase::replay(config, &records)?;
                if replay_span.is_recording() {
                    replay_span.attr("records", records.len());
                    replay_span.attr("swept", swept);
                }
                db
            };
            // Drop any torn tail so future appends start on a record edge
            // (each record is tag + len + payload + checksum). Only a
            // journal that replayed cleanly gets here: a refused one is
            // left exactly as it was.
            let valid_len = MAGIC.len() as u64
                + records
                    .iter()
                    .map(|r| 1 + 4 + r.payload.len() as u64 + 4)
                    .sum::<u64>();
            let mut file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(valid_len)?;
            file.seek(SeekFrom::End(0))?;
            return Ok(JournaledDatabase {
                db,
                writer: Arc::new(JournalWriter::new(file)),
                path,
            });
        }
        // Fresh journal: the segment magic, then the file handle is kept
        // for appends.
        let mut file = File::create(&path)?;
        file.write_all(MAGIC)?;
        Ok(JournaledDatabase {
            db: VideoDatabase::with_config(config),
            writer: Arc::new(JournalWriter::new(file)),
            path,
        })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read access to the underlying database.
    pub fn db(&self) -> &VideoDatabase {
        &self.db
    }

    /// Instance-local group-commit counters (staged records vs batched
    /// write barriers).
    pub fn journal_stats(&self) -> JournalStats {
        self.writer.stats()
    }

    /// Drain every staged record to the OS. `ingest`/`remove` already wait
    /// for durability before returning, so this only matters after staged
    /// streaming commits (see [`JournaledDatabase::commit_stream`]) — a
    /// server draining at shutdown calls it defensively.
    pub fn flush(&mut self) -> Result<(), DbError> {
        self.writer.flush_all()
    }

    fn stage_record(&self, tag: u8, payload: &[u8]) -> Result<JournalTicket, DbError> {
        let obs = crate::obs::journal();
        let mut append_tspan = global_tracer().span("store.journal.append");
        if append_tspan.is_recording() {
            append_tspan.attr("bytes", 1 + 4 + payload.len() + 4);
        }
        let _append_span = obs.append_us.start();
        let ticket = self.writer.stage(&encode_record(tag, payload))?;
        obs.appends.incr();
        obs.appended_bytes.add(1 + 4 + payload.len() as u64 + 4);
        Ok(ticket)
    }

    /// Ingest a video and append it to the journal. The in-memory ingest
    /// happens first; both records (META + ANALYSIS) are staged and then
    /// made durable behind one group-commit barrier, so a successful
    /// return means the clip is durable — at half the write barriers of
    /// the old append-then-flush-twice path.
    pub fn ingest(
        &mut self,
        name: impl Into<String>,
        video: &Video,
        genres: Vec<GenreId>,
        forms: Vec<FormId>,
    ) -> Result<u64, DbError> {
        self.ingest_clip(name.into(), video, genres, forms)
    }

    /// Stage the META + ANALYSIS records for an already-ingested video;
    /// the returned ticket covers both.
    fn stage_clip_records(&self, id: u64) -> Result<JournalTicket, DbError> {
        let meta = self.db.catalog().get(id).expect("just ingested");
        let analysis = self.db.analysis(id).expect("just ingested");
        self.stage_record(TAG_META, &codec::to_bytes(meta))?;
        self.stage_record(TAG_ANALYSIS, &analysis.encode())
    }

    /// Register a streaming session's finished analysis and stage its
    /// journal records *without* waiting for durability. The returned
    /// [`CommitTicket`] is waitable after the database lock is released,
    /// which is what lets K concurrent sessions share one write barrier
    /// (see `JournalWriter`). The video is visible in memory
    /// immediately; callers must not acknowledge the commit until
    /// [`CommitTicket::wait`] returns.
    pub fn commit_stream(
        &mut self,
        name: String,
        dims: (u32, u32),
        fps: f64,
        analysis: VideoAnalysis,
        genres: Vec<GenreId>,
        forms: Vec<FormId>,
    ) -> Result<(u64, CommitTicket), DbError> {
        let id = self
            .db
            .ingest_precomputed(name, dims, fps, analysis, genres, forms)?;
        let ticket = self.stage_clip_records(id)?;
        Ok((
            id,
            CommitTicket::journaled(Arc::clone(&self.writer), ticket),
        ))
    }

    /// Remove a video, durably: a tombstone record is staged and written
    /// before returning. The dead records remain on disk until
    /// [`JournaledDatabase::compact`] rewrites the file.
    pub fn remove(&mut self, id: u64) -> Result<(), DbError> {
        self.db.remove(id)?;
        let ticket = self.stage_record(TAG_REMOVE, &codec::to_bytes(&codec::Varint(id)))?;
        self.writer.wait_durable(ticket)
    }

    /// Rewrite the journal compactly (dropping tombstoned videos and their
    /// dead records). Uses the plain `save` format — the two are identical
    /// on disk.
    pub fn compact(&mut self) -> Result<(), DbError> {
        // Drain staged records first so nothing is lost when the file is
        // swapped out from under the writer.
        self.writer.flush_all()?;
        let tmp = self.path.with_extension("compact");
        self.db.save(&tmp)?;
        std::fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().write(true).read(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.writer.replace_file(file);
        Ok(())
    }
}

impl DbBackend for JournaledDatabase {
    fn db(&self) -> &VideoDatabase {
        JournaledDatabase::db(self)
    }

    /// The analysis (`store.ingest` and the pipeline stages beneath it),
    /// both journal appends, and the shared fsync barrier land in the
    /// current trace.
    fn ingest_clip(
        &mut self,
        name: String,
        video: &Video,
        genres: Vec<GenreId>,
        forms: Vec<FormId>,
    ) -> Result<u64, DbError> {
        let id = self.db.ingest_clip(name, video, genres, forms)?;
        let ticket = self.stage_clip_records(id)?;
        self.writer.wait_durable(ticket)?;
        Ok(id)
    }

    fn commit_stream(
        &mut self,
        name: String,
        dims: (u32, u32),
        fps: f64,
        analysis: VideoAnalysis,
        genres: Vec<GenreId>,
        forms: Vec<FormId>,
    ) -> Result<(u64, CommitTicket), DbError> {
        JournaledDatabase::commit_stream(self, name, dims, fps, analysis, genres, forms)
    }

    fn remove_video(&mut self, id: u64) -> Result<(), DbError> {
        self.remove(id)
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn sync(&mut self) -> Result<(), DbError> {
        self.flush()
    }
}

impl Drop for JournaledDatabase {
    fn drop(&mut self) {
        // Best-effort: drain staged streaming commits. Sessions that
        // waited on their CommitTicket are already durable; this covers a
        // server dropping the store without a final sync.
        let _ = self.writer.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_synth::script::{generate, ShotSpec, VideoScript};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vdb-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.vdbs")
    }

    fn clip(seed: u64) -> Video {
        let mut script = VideoScript::small(seed);
        script.push_shot(ShotSpec::fixed(0, 6));
        script.push_shot(ShotSpec::fixed(1, 6));
        generate(&script).video
    }

    #[test]
    fn ingest_survives_reopen() {
        let path = tmp("reopen");
        let id0;
        {
            let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
            id0 = j.ingest("first", &clip(1), vec![], vec![]).unwrap();
            j.ingest("second", &clip(2), vec![], vec![]).unwrap();
        } // dropped without any explicit save
        let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        assert_eq!(j.db().len(), 2);
        assert_eq!(j.db().catalog().get(id0).unwrap().name, "first");
        // Queries work after replay.
        let f = j.db().analysis(id0).unwrap().features[0];
        let text = format!("ba={} oa={}", f.var_ba, f.var_oa);
        assert!(!j.db().query_str(&text).unwrap().is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn append_after_reopen_keeps_everything() {
        let path = tmp("append");
        {
            let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
            j.ingest("a", &clip(3), vec![], vec![]).unwrap();
        }
        {
            let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
            let id = j.ingest("b", &clip(4), vec![], vec![]).unwrap();
            assert_eq!(j.db().len(), 2);
            assert!(id > 0, "ids continue after replay");
        }
        let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        assert_eq!(j.db().len(), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_recovered() {
        let path = tmp("torn");
        {
            let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
            j.ingest("keep", &clip(5), vec![], vec![]).unwrap();
            j.ingest("torn", &clip(6), vec![], vec![]).unwrap();
        }
        // Simulate a crash mid-append: chop 25 bytes off.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 25]).unwrap();
        {
            let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
            // The torn clip lost its analysis record, so its META row is
            // swept too: no partial video is visible.
            assert_eq!(j.db().len(), 1);
            // New appends land on a clean record edge.
            j.ingest("after-crash", &clip(7), vec![], vec![]).unwrap();
        }
        let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        let names: Vec<String> = j
            .db()
            .catalog()
            .all()
            .iter()
            .map(|m| m.name.clone())
            .collect();
        assert!(names.contains(&"keep".to_string()));
        assert!(names.contains(&"after-crash".to_string()));
        assert!(!names.contains(&"torn".to_string()), "no partial video");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn truncation_at_every_tail_offset_recovers_cleanly() {
        // Crash-recovery property, checked exhaustively: truncating the
        // journal at EVERY byte offset inside the tail record must (a)
        // reopen without error, (b) keep every earlier *committed* video
        // intact, and (c) drop the torn video entirely — analysis AND
        // catalog row (no partial video after replay). Every 64th offset
        // additionally proves the truncated journal accepts new appends
        // that survive a further reopen (appends land on a clean record
        // edge).
        let path = tmp("exhaustive");
        {
            let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
            j.ingest("intact", &clip(30), vec![], vec![]).unwrap();
            j.ingest("torn", &clip(31), vec![], vec![]).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let records = read_segment(&full[..]).unwrap();
        assert_eq!(records.len(), 4, "META+ANALYSIS per clip");
        let tail_len = 1 + 4 + records.last().unwrap().payload.len() as u64 + 4;
        let tail_start = (full.len() as u64 - tail_len) as usize;
        let reference = {
            let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
            j.db().analysis(0).unwrap().clone()
        };

        for cut in tail_start..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let j = JournaledDatabase::open(&path, AnalyzerConfig::default())
                .unwrap_or_else(|e| panic!("reopen failed at cut {cut}: {e}"));
            // Clip 0 (fully committed) is untouched; the torn clip lost
            // its analysis record, so its META row is swept with it.
            assert_eq!(j.db().len(), 1, "cut {cut}: only the committed video");
            assert_eq!(
                j.db().analysis(0).unwrap(),
                &reference,
                "cut {cut}: earlier analysis record must be intact"
            );
            assert!(
                j.db().analysis(1).is_err(),
                "cut {cut}: torn analysis record must be dropped"
            );
            assert!(
                j.db().catalog().get(1).is_none(),
                "cut {cut}: torn catalog row must be swept"
            );
            drop(j);
            if (cut - tail_start) % 64 == 0 {
                let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
                let id = j.ingest("after-crash", &clip(32), vec![], vec![]).unwrap();
                drop(j);
                let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
                assert_eq!(
                    j.db().catalog().get(id).unwrap().name,
                    "after-crash",
                    "cut {cut}: post-truncation append must survive reopen"
                );
                assert!(j.db().analysis(id).is_ok());
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn appends_are_observed_in_the_global_registry() {
        // The global registry is shared with every other test in this
        // process, so assert deltas, not absolutes: one ingest stages a
        // META and an ANALYSIS record behind one group-commit barrier.
        let before = vdb_obs::global().snapshot();
        let path = tmp("observed");
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        j.ingest("watched", &clip(40), vec![], vec![]).unwrap();
        let after = vdb_obs::global().snapshot();
        let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap_or(0);
        assert!(delta("store.journal.appends") >= 2);
        assert!(delta("store.journal.appended_bytes") > 0);
        let fsyncs = |snap: &vdb_obs::Snapshot| {
            snap.histogram("store.journal.fsync_us")
                .map(|h| h.count)
                .unwrap_or(0)
        };
        assert!(
            fsyncs(&after) > fsyncs(&before),
            "every ingest reaches a write barrier"
        );
        // The instance-local stats are exact: 2 records, 1 batch.
        assert_eq!(
            j.journal_stats(),
            JournalStats {
                staged_records: 2,
                batches: 1
            }
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn staged_commits_share_one_write_barrier() {
        // The group-commit pin: K streaming sessions that stage their
        // commits before any of them waits must complete with ONE batch —
        // strictly fewer write barriers than sessions.
        const K: usize = 6;
        let path = tmp("group");
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        let analyses: Vec<_> = (0..K)
            .map(|i| {
                let v = clip(50 + i as u64);
                let mut s = vdb_core::pipeline::AnalysisEngine::new(AnalyzerConfig::default());
                for f in v.frames() {
                    s.push_frame(f).unwrap();
                }
                (v.dims(), v.fps(), s.finish().unwrap())
            })
            .collect();
        let before = j.journal_stats();
        let tickets: Vec<CommitTicket> = analyses
            .into_iter()
            .enumerate()
            .map(|(i, (dims, fps, analysis))| {
                let (_, ticket) = j
                    .commit_stream(format!("s{i}"), dims, fps, analysis, vec![], vec![])
                    .unwrap();
                ticket
            })
            .collect();
        assert_eq!(
            j.journal_stats().batches,
            before.batches,
            "staging alone writes nothing"
        );
        for t in tickets {
            t.wait().unwrap();
        }
        let after = j.journal_stats();
        assert_eq!(after.staged_records - before.staged_records, 2 * K as u64);
        assert_eq!(
            after.batches - before.batches,
            1,
            "{K} commits must share one write barrier"
        );
        drop(j);
        let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        assert_eq!(j.db().len(), K, "every staged commit is durable");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn unwaited_stream_commit_is_flushed_on_drop() {
        let path = tmp("dropflush");
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        let v = clip(60);
        let mut s = vdb_core::pipeline::AnalysisEngine::new(AnalyzerConfig::default());
        for f in v.frames() {
            s.push_frame(f).unwrap();
        }
        let analysis = s.finish().unwrap();
        let (_, ticket) = j
            .commit_stream("late".into(), v.dims(), v.fps(), analysis, vec![], vec![])
            .unwrap();
        drop(ticket); // never waited
        drop(j); // Drop drains the staged records
        let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        assert_eq!(j.db().len(), 1);
        assert_eq!(j.db().catalog().all()[0].name, "late");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn inconsistent_stream_commit_is_refused_and_leaves_no_trace() {
        let path = tmp("inconsistent");
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        j.ingest("kept", &clip(61), vec![], vec![]).unwrap();
        let v = clip(62);
        let analysis = vdb_core::analyzer::VideoAnalyzer::new()
            .analyze(&v)
            .unwrap();
        let broken = [
            {
                let mut a = analysis.clone();
                a.features.pop();
                a
            },
            {
                let mut a = analysis.clone();
                a.signs_oa.pop();
                a
            },
        ];
        let rows = j.db().index().len();
        let stats = j.journal_stats();
        let bytes = std::fs::metadata(&path).unwrap().len();
        for a in broken {
            let err = j
                .commit_stream("broken".into(), v.dims(), v.fps(), a, vec![], vec![])
                .map(|(id, _)| id)
                .unwrap_err();
            assert!(matches!(err, DbError::Inconsistent(_)), "{err:?}");
            assert_eq!(j.db().len(), 1, "the catalog is untouched");
            assert_eq!(j.db().index().len(), rows, "the index is untouched");
            assert_eq!(j.journal_stats(), stats, "nothing was staged");
        }
        j.flush().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        // The refused commits took no id, and the journal still opens.
        let (id, ticket) = j
            .commit_stream("whole".into(), v.dims(), v.fps(), analysis, vec![], vec![])
            .unwrap();
        ticket.wait().unwrap();
        assert_eq!(id, 1);
        drop(j);
        let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        let names: Vec<&str> = j
            .db()
            .catalog()
            .all()
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, ["kept", "whole"]);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn journal_equals_batch_save() {
        // A journal written incrementally loads identically to a database
        // saved in one shot.
        let path = tmp("equiv");
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        j.ingest("x", &clip(8), vec![], vec![]).unwrap();
        j.ingest("y", &clip(9), vec![], vec![]).unwrap();
        drop(j);
        let from_journal = VideoDatabase::load(&path, AnalyzerConfig::default()).unwrap();

        let mut batch = VideoDatabase::new();
        batch.ingest("x", &clip(8), vec![], vec![]).unwrap();
        batch.ingest("y", &clip(9), vec![], vec![]).unwrap();
        assert_eq!(from_journal.len(), batch.len());
        for meta in batch.catalog().all() {
            assert_eq!(
                from_journal.analysis(meta.id).unwrap(),
                batch.analysis(meta.id).unwrap()
            );
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn tombstoned_removal_survives_reopen() {
        let path = tmp("tombstone");
        let dead;
        {
            let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
            dead = j.ingest("dead", &clip(20), vec![], vec![]).unwrap();
            j.ingest("alive", &clip(21), vec![], vec![]).unwrap();
            j.remove(dead).unwrap();
        }
        let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        assert_eq!(j.db().len(), 1);
        assert!(j.db().catalog().get(dead).is_none());
        assert!(j.db().analysis(dead).is_err());
        // The index holds only the surviving video's shots.
        assert!(j.db().index().entries().iter().all(|e| e.key.video != dead));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn compact_drops_tombstones_and_shrinks() {
        let path = tmp("shrink");
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        let dead = j.ingest("dead", &clip(22), vec![], vec![]).unwrap();
        j.ingest("alive", &clip(23), vec![], vec![]).unwrap();
        j.remove(dead).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        j.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(
            after < before,
            "compaction must shrink: {before} -> {after}"
        );
        drop(j);
        let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        assert_eq!(j.db().len(), 1);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// A segment of the JSON-era format is refused by both openers with
    /// an error naming its version and the one this build reads, and the
    /// refused file keeps every byte (no torn-tail truncation runs on it).
    #[test]
    fn vdbs1_segments_are_refused_and_left_untouched() {
        let path = tmp("vdbs1");
        let mut old = b"VDBS1\0".to_vec();
        old.extend(encode_record(
            TAG_META,
            br#"{"id":0,"name":"old","genres":[],"forms":[],"frame_count":3,"fps":3.0,"dims":[80,60]}"#,
        ));
        // A torn tail, which a truncation would cut off.
        old.extend_from_slice(&[TAG_ANALYSIS, 0xff, 0xff]);
        std::fs::write(&path, &old).unwrap();
        let opened = JournaledDatabase::open(&path, AnalyzerConfig::default()).map(|_| ());
        let loaded = VideoDatabase::load(&path, AnalyzerConfig::default()).map(|_| ());
        for text in [opened, loaded].map(|r| r.unwrap_err().to_string()) {
            assert!(text.contains("VDBS1") && text.contains("VDBS4"), "{text}");
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            old,
            "the refused file is untouched"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// A segment of an older binary layout — `VDBS2` (a META row with
    /// 8-byte id, lengths and frame count) or `VDBS3` (whose scene trees
    /// may put a node's level below a child's) — is refused the same way:
    /// both openers name its version and `VDBS4`, and the file keeps its
    /// bytes and length.
    #[test]
    fn vdbs2_segments_are_refused_and_left_untouched() {
        use crate::codec::Codec;
        let mut meta = Vec::new();
        0u64.encode(&mut meta);
        3u64.encode(&mut meta);
        meta.extend_from_slice(b"old");
        0u64.encode(&mut meta);
        0u64.encode(&mut meta);
        12u64.encode(&mut meta);
        3.0f64.encode(&mut meta);
        80u32.encode(&mut meta);
        60u32.encode(&mut meta);
        for version in ["VDBS2", "VDBS3"] {
            let path = tmp(version);
            let mut old = format!("{version}\0").into_bytes();
            old.extend(encode_record(TAG_META, &meta));
            old.extend_from_slice(&[TAG_ANALYSIS, 0xff, 0xff]);
            std::fs::write(&path, &old).unwrap();
            let opened = JournaledDatabase::open(&path, AnalyzerConfig::default()).map(|_| ());
            let loaded = VideoDatabase::load(&path, AnalyzerConfig::default()).map(|_| ());
            for text in [opened, loaded].map(|r| r.unwrap_err().to_string()) {
                assert!(text.contains(version) && text.contains("VDBS4"), "{text}");
            }
            assert_eq!(std::fs::metadata(&path).unwrap().len(), old.len() as u64);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                old,
                "the refused file is untouched"
            );
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }

    /// The record format's size, pinned exactly: one fixed synthetic
    /// clip ingested into a fresh journal. A change to any record's
    /// layout moves this number, and it must stay under 8 bytes a frame
    /// (`VDBS2`, with 8-byte ids, lengths and indexes, took 3 983).
    #[test]
    fn journal_bytes_per_frame_is_pinned() {
        let path = tmp("size");
        let script =
            vdb_synth::build_script(vdb_synth::Genre::Sitcom, 12, Some(25.0), (64, 48), 70);
        let video = generate(&script).video;
        let frames = video.len() as u64;
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        j.ingest("sized", &video, vec![], vec![]).unwrap();
        drop(j);
        let bytes = std::fs::metadata(&path).unwrap().len();
        assert_eq!((frames, bytes), (310, 2_418));
        assert!(bytes < 8 * frames, "{bytes} B for {frames} frames");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn compact_preserves_content() {
        let path = tmp("compact");
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        j.ingest("a", &clip(10), vec![], vec![]).unwrap();
        j.compact().unwrap();
        j.ingest("b", &clip(11), vec![], vec![]).unwrap();
        drop(j);
        let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        assert_eq!(j.db().len(), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}

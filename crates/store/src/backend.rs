//! A common mutation surface over the two database flavours.
//!
//! The REPL ([`crate::shell`]) and the network server (`vdb-server`, via
//! [`crate::concurrent::ServerStore`]) both run the same commands against
//! either a plain in-memory [`VideoDatabase`] or a durable
//! [`JournaledDatabase`](crate::journal::JournaledDatabase). Both hold a
//! `dyn DbBackend`, so the memory/journal choice is made once, where the
//! backend is built. [`DbBackend`] abstracts exactly the mutations those
//! command surfaces need — ingest, remove, sync — so command execution is
//! written once and the journal's append-on-write semantics (including
//! `TAG_REMOVE` tombstones) come for free wherever a journal is plugged in.

use crate::catalog::{FormId, GenreId};
use crate::db::{DbError, VideoDatabase};
use crate::journal::{JournalTicket, JournalWriter};
use std::sync::Arc;
use vdb_core::analyzer::VideoAnalysis;
use vdb_core::frame::Video;

/// A durability receipt from [`DbBackend::commit_stream`].
///
/// `commit_stream` registers the video and *stages* its journal records,
/// but does not wait for them to reach disk — that wait happens here,
/// after the caller has released the database lock. Decoupling the wait
/// from the lock is what lets concurrent streaming sessions share one
/// group-commit write barrier (see [`crate::journal`]). For non-durable
/// backends the ticket is already settled and `wait` returns immediately.
#[must_use = "the commit is not durable until wait() returns"]
pub struct CommitTicket(TicketInner);

enum TicketInner {
    /// Memory backend: nothing to persist.
    Settled,
    /// Journaled backend: records staged under `ticket`, waitable on the
    /// shared writer without any database lock.
    Journal(Arc<JournalWriter>, JournalTicket),
}

impl CommitTicket {
    /// A ticket that is already durable (non-durable backends).
    pub fn already_durable() -> Self {
        CommitTicket(TicketInner::Settled)
    }

    pub(crate) fn journaled(writer: Arc<JournalWriter>, ticket: JournalTicket) -> Self {
        CommitTicket(TicketInner::Journal(writer, ticket))
    }

    /// Whether a wait is still required for durability (`false` for
    /// memory backends).
    pub fn is_pending(&self) -> bool {
        matches!(self.0, TicketInner::Journal(..))
    }

    /// Block until the staged records are durable. Call *after* releasing
    /// the database lock, so concurrent committers can batch. A write
    /// this wait leads opens its `store.journal.fsync` span in the
    /// current trace.
    pub fn wait(self) -> Result<(), DbError> {
        match self.0 {
            TicketInner::Settled => Ok(()),
            TicketInner::Journal(writer, ticket) => writer.wait_durable(ticket),
        }
    }
}

/// The mutation surface shared by the REPL and the server: a database that
/// can ingest clips, remove them, and (if durable) sync to disk.
pub trait DbBackend: Send + Sync {
    /// Read access to the underlying in-memory database.
    fn db(&self) -> &VideoDatabase;

    /// Ingest one clip (analysis runs inline). Durable backends persist
    /// the clip before returning.
    fn ingest_clip(
        &mut self,
        name: String,
        video: &Video,
        genres: Vec<GenreId>,
        forms: Vec<FormId>,
    ) -> Result<u64, DbError>;

    /// Register a streaming session's finished analysis (computed outside
    /// any lock — see [`crate::session::StreamIngest`]). Durable backends
    /// stage the journal records but do **not** wait: the returned
    /// [`CommitTicket`] is waited on after this backend's lock is
    /// released, so concurrent sessions share one group-commit barrier.
    fn commit_stream(
        &mut self,
        name: String,
        dims: (u32, u32),
        fps: f64,
        analysis: VideoAnalysis,
        genres: Vec<GenreId>,
        forms: Vec<FormId>,
    ) -> Result<(u64, CommitTicket), DbError>;

    /// Remove a video. Durable backends append a tombstone record
    /// (`TAG_REMOVE`) before returning.
    fn remove_video(&mut self, id: u64) -> Result<(), DbError>;

    /// Whether mutations survive process death without an explicit save.
    fn is_durable(&self) -> bool {
        false
    }

    /// Flush any buffered writes to the OS.
    fn sync(&mut self) -> Result<(), DbError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournaledDatabase;
    use vdb_synth::script::{generate, ShotSpec, VideoScript};

    fn clip(seed: u64) -> Video {
        let mut script = VideoScript::small(seed);
        script.push_shot(ShotSpec::fixed(0, 6));
        script.push_shot(ShotSpec::fixed(1, 6));
        generate(&script).video
    }

    fn roundtrip(backend: &mut dyn DbBackend) -> u64 {
        let id = backend
            .ingest_clip("clip".into(), &clip(1), vec![], vec![])
            .unwrap();
        assert_eq!(backend.db().len(), 1);
        backend.sync().unwrap();
        id
    }

    #[test]
    fn memory_backend() {
        let mut db = VideoDatabase::new();
        let id = roundtrip(&mut db);
        assert!(!DbBackend::is_durable(&db));
        DbBackend::remove_video(&mut db, id).unwrap();
        assert!(DbBackend::db(&db).is_empty());
    }

    #[test]
    fn journaled_backend_is_durable() {
        let dir = std::env::temp_dir().join(format!("vdb-backend-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("backend.vdbj");
        let mut j =
            JournaledDatabase::open(&path, vdb_core::analyzer::AnalyzerConfig::default()).unwrap();
        let id = roundtrip(&mut j);
        assert!(DbBackend::is_durable(&j));
        DbBackend::remove_video(&mut j, id).unwrap();
        drop(j);
        // Both the ingest and the tombstone were journaled.
        let j =
            JournaledDatabase::open(&path, vdb_core::analyzer::AnalyzerConfig::default()).unwrap();
        assert!(j.db().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

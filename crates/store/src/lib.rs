//! # vdb-store
//!
//! The video database layer on top of [`vdb_core`]: the part of the paper's
//! framework that makes the three techniques usable as a DBMS.
//!
//! * [`catalog`] — video registry plus the 133-genre × 35-form taxonomy the
//!   paper's within-class retrieval argument rests on (§4.1);
//! * [`codec`] / [`pages`] — a compact binary codec and an append-only,
//!   checksummed segment store for persistence;
//! * [`db`] — [`db::VideoDatabase`]: ingest (runs the full analysis
//!   pipeline), variance queries answered as scene-tree nodes (§4.2),
//!   class-scoped queries, save/load;
//! * [`query`] — a small textual query language (`"ba=0.5 oa=15
//!   genre=comedy limit=5"`) over the variance index;
//! * [`session`] — scene-node views for browsing by request, storyboards,
//!   and streaming-ingest sessions;
//! * [`concurrent`] — [`concurrent::ServerStore`], the one lock-wrapped
//!   handle over either backend, shared by many readers and one writer;
//! * [`shell`] / [`backend`] — the command surface shared by the `vdbsh`
//!   REPL and the `vdb-server` network daemon, over either an in-memory
//!   or a journal-backed database.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod catalog;
pub mod codec;
pub mod concurrent;
pub mod db;
#[cfg(test)]
mod fuzz;
pub mod journal;
mod obs;
pub mod pages;
pub mod query;
pub mod session;
pub mod shell;
pub mod transfer;

pub use backend::{CommitTicket, DbBackend};
pub use catalog::{Catalog, FormId, GenreId, ListRow, Taxonomy, VideoMeta};
pub use concurrent::ServerStore;
pub use db::{
    DbError, DbStats, QueryAnswer, ShardQueryAnswers, ShardQueryRow, StoredAnalysis, VideoDatabase,
    SHOWN_ANSWERS,
};
pub use journal::{JournalStats, JournaledDatabase};
pub use query::{ParseError, QuerySpec};
pub use session::{
    find_node, node_view, render_node, storyboard, FinishedStream, NodeName, NodeView, StreamIngest,
};

#[cfg(test)]
mod tests {
    use crate::codec::{Codec, CodecError};

    #[test]
    fn roundtrip_scalars() {
        let mut buf = Vec::new();
        7u8.encode(&mut buf);
        0xbeef_u16.encode(&mut buf);
        0xdead_beef_u32.encode(&mut buf);
        (u64::MAX - 3).encode(&mut buf);
        std::f64::consts::PI.encode(&mut buf);
        // Fixed-width little-endian (ids, lengths and indexes are varints).
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 8);
        assert_eq!(buf[..7], [7, 0xef, 0xbe, 0xef, 0xbe, 0xad, 0xde]);
        let mut r: &[u8] = &buf;
        assert_eq!(u8::decode(&mut r), Ok(7));
        assert_eq!(u16::decode(&mut r), Ok(0xbeef));
        assert_eq!(u32::decode(&mut r), Ok(0xdead_beef));
        assert_eq!(u64::decode(&mut r), Ok(u64::MAX - 3));
        assert_eq!(
            f64::decode(&mut r).map(f64::to_bits),
            Ok(std::f64::consts::PI.to_bits())
        );
        assert!(r.is_empty());
    }

    #[test]
    fn advance_moves_cursor() {
        let data = [1u8, 2, 3, 4];
        let mut r: &[u8] = &data;
        assert_eq!(u16::decode(&mut r), Ok(0x0201));
        assert_eq!(r, [3, 4]);
        assert_eq!(u8::decode(&mut r), Ok(3));
        // A short read fails and leaves the cursor where it was.
        assert_eq!(u32::decode(&mut r), Err(CodecError::UnexpectedEof));
        assert_eq!(r, [4]);
    }
}

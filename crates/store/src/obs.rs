//! The store's handles into the process-wide observability registry.
//!
//! All three persistence layers record here: the segment/page layer
//! (records and bytes moved), the binary codec (encode/decode latency and
//! volume), and the journal (append and fsync-boundary latency, reported
//! by `metrics` and `stats`). Handles
//! are registered once per process into [`vdb_obs::global`] and shared by
//! every database instance, so they aggregate across the whole workload;
//! recording is lock-free (see `vdb-obs`).

use std::sync::OnceLock;
use vdb_obs::{global, Counter, Histogram};

/// Segment/page-layer counters.
pub(crate) struct PageObs {
    /// Records appended through any [`crate::pages::SegmentWriter`].
    pub records_written: Counter,
    /// Bytes appended (tag + length + payload + checksum).
    pub bytes_written: Counter,
    /// Valid records replayed by [`crate::pages::read_segment`].
    pub records_read: Counter,
    /// Payload bytes replayed.
    pub bytes_read: Counter,
}

pub(crate) fn pages() -> &'static PageObs {
    static OBS: OnceLock<PageObs> = OnceLock::new();
    OBS.get_or_init(|| PageObs {
        records_written: global().counter("store.pages.records_written"),
        bytes_written: global().counter("store.pages.bytes_written"),
        records_read: global().counter("store.pages.records_read"),
        bytes_read: global().counter("store.pages.bytes_read"),
    })
}

/// Binary-codec latency and volume.
pub(crate) struct CodecObs {
    /// Time to encode one stored analysis.
    pub encode_us: Histogram,
    /// Time to decode one stored analysis.
    pub decode_us: Histogram,
    /// Bytes produced by encoding.
    pub encoded_bytes: Counter,
    /// Bytes consumed by decoding.
    pub decoded_bytes: Counter,
}

pub(crate) fn codec() -> &'static CodecObs {
    static OBS: OnceLock<CodecObs> = OnceLock::new();
    OBS.get_or_init(|| CodecObs {
        encode_us: global().histogram("store.codec.encode_us"),
        decode_us: global().histogram("store.codec.decode_us"),
        encoded_bytes: global().counter("store.codec.encoded_bytes"),
        decoded_bytes: global().counter("store.codec.decoded_bytes"),
    })
}

/// Index load-path outcomes (the per-instance twin lives on
/// `ShotIndex::runtime`; these aggregate across all databases for BENCH
/// output).
pub(crate) struct IndexObs {
    /// Loads that adopted a persisted index copy without rebuilding.
    pub persisted_loads: Counter,
    /// Loads that fell back to rebuilding the index from replayed rows
    /// (legacy journals, stale or corrupt index records).
    pub rebuilds: Counter,
}

pub(crate) fn index() -> &'static IndexObs {
    static OBS: OnceLock<IndexObs> = OnceLock::new();
    OBS.get_or_init(|| IndexObs {
        persisted_loads: global().counter("store.index.persisted_loads"),
        rebuilds: global().counter("store.index.rebuilds"),
    })
}

/// Journal append-path latency.
pub(crate) struct JournalObs {
    /// Whole append (serialize + buffered write + flush), per record.
    pub append_us: Histogram,
    /// The flush-to-OS tail of each append — the journal's durability
    /// point (the layer issues no `fdatasync`; a record is considered
    /// durable once the OS has it, matching the crash model the
    /// truncation tests exercise).
    pub fsync_us: Histogram,
    /// Records appended.
    pub appends: Counter,
    /// Bytes appended (tag + length + payload + checksum).
    pub appended_bytes: Counter,
}

pub(crate) fn journal() -> &'static JournalObs {
    static OBS: OnceLock<JournalObs> = OnceLock::new();
    OBS.get_or_init(|| JournalObs {
        append_us: global().histogram("store.journal.append_us"),
        fsync_us: global().histogram("store.journal.fsync_us"),
        appends: global().counter("store.journal.appends"),
        appended_bytes: global().counter("store.journal.appended_bytes"),
    })
}

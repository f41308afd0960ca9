//! # vdb-router
//!
//! Sharded multi-node serving for the video database: a coordinator
//! daemon that consistent-hashes videos **by name** across N downstream
//! `vdbd` shards, speaking the existing length-prefixed text + `0xF5`
//! streaming protocol downstream so shards need no changes.
//!
//! * [`ring`] — the consistent hash ring (virtual nodes, stable FNV-1a
//!   placement) plus its replicable text config;
//! * [`pool`] — per-shard client pools with reconnect/backoff and the
//!   `shard-id` handshake;
//! * [`exec`] — the scatter-gather executor: per-shard deadlines,
//!   optional hedged retries, partial-result accounting;
//! * [`merge`] — the gid remap and partial marker around `vdb-store`'s
//!   own reply rows, merge and renderers for `query`, `list`, `stats`;
//! * [`catalog`] — the router's global id map (`gid` ↔ shard-local id);
//! * [`rebalance`] — topology-change planning and shard-to-shard video
//!   moves over the export/import path;
//! * [`serve`] — the router daemon itself (same wire protocol as
//!   `vdbd`, so `vdbc` and `loadgen` work against it unchanged).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod exec;
pub mod merge;
pub mod pool;
pub mod rebalance;
pub mod ring;
pub mod serve;

pub use catalog::RouterCatalog;
pub use exec::{ShardError, ShardOutcome};
pub use pool::ShardPool;
pub use ring::{HashRing, RingConfig};
pub use serve::{Router, RouterConfig, RouterHandle};

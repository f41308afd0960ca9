//! The video database facade: ingest → analyze → persist → query → browse.
//!
//! `VideoDatabase` owns the three artifacts the paper's pipeline produces
//! per video (shots + feature vectors, the scene tree, the per-frame signs)
//! plus the global variance index, and implements the §4.2 query flow: a
//! variance query returns not raw shots but *the largest scenes sharing a
//! representative frame with a matching shot* — the scene-tree nodes where
//! browsing should start.

use crate::backend::{CommitTicket, DbBackend};
use crate::catalog::{Catalog, FormId, GenreId, IdMap, Taxonomy, VideoMeta};
use crate::codec::{self, Codec, Varint};
use crate::pages::{read_segment_file, Record, SegmentError, SegmentWriter};
use crate::query::{field, parse_bits, parse_field, QuerySpec};
use std::fmt::Write as _;
use std::path::Path;
use vdb_core::analyzer::{AnalyzerConfig, VideoAnalysis};
use vdb_core::frame::Video;
use vdb_core::index::shot_index::fingerprint_entries;
use vdb_core::index::{Explain, IndexEntry, ShotIndex, ShotKey, VarianceQuery};
use vdb_core::pipeline::AnalysisEngine;
use vdb_core::pixel::Rgb;
use vdb_core::sbd::SbdStats;
use vdb_core::scenetree::{NodeId, SceneTree};
use vdb_core::shot::Shot;
use vdb_core::variance::ShotFeature;
use vdb_obs::global_tracer;

/// Errors of the database layer.
#[derive(Debug)]
pub enum DbError {
    /// Core analysis failed.
    Core(vdb_core::error::CoreError),
    /// Persistence failed.
    Segment(SegmentError),
    /// A stored record failed to decode.
    Codec(codec::CodecError),
    /// A transfer record of a format version this build does not read.
    TransferVersion(u8),
    /// Unknown video id.
    UnknownVideo(u64),
    /// A record had an unknown tag or arrived out of order.
    BadRecord(&'static str),
    /// A textual query failed to parse.
    Query(crate::query::ParseError),
    /// An analysis to store whose parts disagree (its shots, signs,
    /// features and scene tree); nothing was stored.
    Inconsistent(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Core(e) => write!(f, "analysis error: {e}"),
            DbError::Segment(e) => write!(f, "storage error: {e}"),
            DbError::Codec(e) => write!(f, "decode error: {e}"),
            DbError::TransferVersion(v) => write!(
                f,
                "transfer record version {v} is not supported (this build reads version {})",
                crate::transfer::TRANSFER_VERSION
            ),
            DbError::UnknownVideo(id) => write!(f, "unknown video id {id}"),
            DbError::BadRecord(what) => write!(f, "bad stored record: {what}"),
            DbError::Query(e) => write!(f, "query error: {e}"),
            DbError::Inconsistent(why) => write!(f, "inconsistent analysis: {why}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<vdb_core::error::CoreError> for DbError {
    fn from(e: vdb_core::error::CoreError) -> Self {
        DbError::Core(e)
    }
}
impl From<SegmentError> for DbError {
    fn from(e: SegmentError) -> Self {
        DbError::Segment(e)
    }
}
impl From<codec::CodecError> for DbError {
    fn from(e: codec::CodecError) -> Self {
        DbError::Codec(e)
    }
}
impl From<crate::query::ParseError> for DbError {
    fn from(e: crate::query::ParseError) -> Self {
        DbError::Query(e)
    }
}
impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Segment(SegmentError::Io(e))
    }
}

/// Everything the database keeps per video.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredAnalysis {
    /// The owning video id.
    pub video: u64,
    /// Detected shots.
    pub shots: Vec<Shot>,
    /// Per-shot `(Var^BA, Var^OA)`.
    pub features: Vec<ShotFeature>,
    /// Per-frame background signs.
    pub signs_ba: Vec<Rgb>,
    /// Per-frame object-area signs.
    pub signs_oa: Vec<Rgb>,
    /// The browsing hierarchy.
    pub scene_tree: SceneTree,
    /// Detection cascade statistics.
    pub stats: SbdStats,
}

impl StoredAnalysis {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let obs = crate::obs::codec();
        let _span = obs.encode_us.start();
        let mut buf = Vec::new();
        Varint(self.video).encode(&mut buf);
        codec::encode_shots(&self.shots, &mut buf);
        self.features.encode(&mut buf);
        self.signs_ba.encode(&mut buf);
        self.signs_oa.encode(&mut buf);
        self.scene_tree.encode(&mut buf);
        for v in [
            self.stats.pairs,
            self.stats.stage1_same,
            self.stats.stage2_same,
            self.stats.stage3_same,
            self.stats.boundaries,
        ] {
            v.encode(&mut buf);
        }
        obs.encoded_bytes.add(buf.len() as u64);
        buf
    }

    /// Decode a record and check that its parts agree (see
    /// [`StoredAnalysis::check_parts`]): an analysis that decodes is one
    /// the query, `tree` and `board` paths can walk.
    pub(crate) fn decode(mut buf: &[u8]) -> Result<Self, DbError> {
        let obs = crate::obs::codec();
        let _span = obs.decode_us.start();
        obs.decoded_bytes.add(buf.len() as u64);
        let buf = &mut buf;
        let stored = StoredAnalysis {
            video: Varint::decode(buf)?.0,
            shots: codec::decode_shots(buf)?,
            features: Vec::decode(buf)?,
            signs_ba: Vec::decode(buf)?,
            signs_oa: Vec::decode(buf)?,
            scene_tree: SceneTree::decode(buf)?,
            stats: SbdStats {
                pairs: usize::decode(buf)?,
                stage1_same: usize::decode(buf)?,
                stage2_same: usize::decode(buf)?,
                stage3_same: usize::decode(buf)?,
                boundaries: usize::decode(buf)?,
            },
        };
        if !buf.is_empty() {
            return Err(codec::CodecError::Invalid("trailing bytes").into());
        }
        stored
            .check_parts()
            .map_err(codec::CodecError::Inconsistent)?;
        Ok(stored)
    }

    /// Whether the parts of the analysis agree: the shots partition the
    /// frames in order, both sign histories and the feature list have
    /// one entry per frame and per shot, every feature's variances are
    /// finite and non-negative (what the index table requires), the
    /// scene tree has one leaf per shot, and every node's representative
    /// frame lies in its named shot. (The tree's own structure is checked
    /// when it is built.)
    pub(crate) fn check_parts(&self) -> Result<(), String> {
        let frames = self.signs_ba.len();
        if self.signs_oa.len() != frames {
            return Err(format!(
                "{} object-area signs for {frames} frames",
                self.signs_oa.len()
            ));
        }
        let mut next = 0;
        for (i, shot) in self.shots.iter().enumerate() {
            if shot.id != i || shot.start != next || shot.end >= frames {
                return Err(format!(
                    "shot {i} (id {}, frames {}..={}) breaks the partition of {frames} frames",
                    shot.id, shot.start, shot.end
                ));
            }
            next = shot.end + 1;
        }
        if next != frames {
            return Err(format!("shots cover {next} of {frames} frames"));
        }
        if self.features.len() != self.shots.len() {
            return Err(format!(
                "{} feature vectors for {} shots",
                self.features.len(),
                self.shots.len()
            ));
        }
        let variance = |v: f64| v.is_finite() && v >= 0.0;
        if let Some((i, f)) = (self.features.iter().enumerate())
            .find(|(_, f)| !(variance(f.var_ba) && variance(f.var_oa)))
        {
            return Err(format!(
                "shot {i} has Var^BA={} Var^OA={}; variances are finite and non-negative",
                f.var_ba, f.var_oa
            ));
        }
        if self.scene_tree.shot_count() != self.shots.len() {
            return Err(format!(
                "scene tree has {} leaves for {} shots",
                self.scene_tree.shot_count(),
                self.shots.len()
            ));
        }
        match self.scene_tree.nodes().iter().find(|n| {
            !self
                .shots
                .get(n.name_shot)
                .is_some_and(|shot| shot.contains(n.rep_frame))
        }) {
            Some(n) => Err(format!(
                "node {} shows frame {} outside its shot {}",
                n.id, n.rep_frame, n.name_shot
            )),
            None => Ok(()),
        }
    }
}

/// One answer to a variance query: the matching shot plus the scene-tree
/// node where browsing should start.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// The matching shot.
    pub key: ShotKey,
    /// Distance to the query in `(D^v, √Var^BA)` space (ranking only).
    pub distance: f64,
    /// The matched shot's `Var^BA`.
    pub var_ba: f64,
    /// The matched shot's `Var^OA`.
    pub var_oa: f64,
    /// The largest scene node named after the matching shot.
    pub scene_node: NodeId,
    /// That node's name, e.g. `SN_12^2`.
    pub scene_name: String,
    /// The node's representative frame (absolute frame index).
    pub rep_frame: usize,
}

/// How many answer rows a `query` or `explain` reply shows. A single
/// node builds no more than this, and a range-mode shard ships no more
/// than this: the global top rows are always a subset of the union of
/// the per-shard top rows.
pub const SHOWN_ANSWERS: usize = 10;

/// Append the count line and the shown answers to `out`: the one
/// rendering of a `query` or `explain` reply, a single node's or the
/// router's merge.
pub fn push_answers(out: &mut String, count: usize, answers: &[QueryAnswer]) {
    let _ = writeln!(out, "  {count} answers");
    for a in answers {
        let _ = writeln!(
            out,
            "  video {} shot#{:<3} Var^BA={:6.2} Var^OA={:6.2} -> {} (rep frame {})",
            a.key.video,
            a.key.shot + 1,
            a.var_ba,
            a.var_oa,
            a.scene_name,
            a.rep_frame
        );
    }
}

/// Aggregate database statistics (see [`VideoDatabase::stats`]). It
/// displays as the `stats` reply's first line and parses back from it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Registered videos.
    pub videos: usize,
    /// Total shots across all videos.
    pub shots: usize,
    /// Total analyzed frames.
    pub frames: usize,
    /// Total scene-tree nodes.
    pub scene_nodes: usize,
    /// Height of the tallest scene tree.
    pub max_tree_height: usize,
    /// Rows in the variance index (== `shots`).
    pub index_rows: usize,
}

impl DbStats {
    /// The statistics of a database holding both databases' videos
    /// (disjoint sets): every count adds, the tallest tree is the taller.
    pub fn union(self, other: DbStats) -> DbStats {
        DbStats {
            videos: self.videos + other.videos,
            shots: self.shots + other.shots,
            frames: self.frames + other.frames,
            scene_nodes: self.scene_nodes + other.scene_nodes,
            max_tree_height: self.max_tree_height.max(other.max_tree_height),
            index_rows: self.index_rows + other.index_rows,
        }
    }
}

impl std::fmt::Display for DbStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "videos {}  shots {}  frames {}  scene nodes {}  tallest tree {}  index rows {}",
            self.videos,
            self.shots,
            self.frames,
            self.scene_nodes,
            self.max_tree_height,
            self.index_rows
        )
    }
}

impl std::str::FromStr for DbStats {
    type Err = String;

    /// Parse exactly what `Display` writes (surrounding whitespace
    /// allowed): the six numbers in order, and a line that displays back
    /// to itself, labels and spacing included.
    fn from_str(line: &str) -> Result<DbStats, String> {
        let numbers: Vec<usize> = line
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        let stats = match numbers[..] {
            [videos, shots, frames, scene_nodes, max_tree_height, index_rows] => DbStats {
                videos,
                shots,
                frames,
                scene_nodes,
                max_tree_height,
                index_rows,
            },
            _ => DbStats::default(),
        };
        if stats.to_string() != line.trim() {
            return Err(format!("unparseable stats line '{line}'"));
        }
        Ok(stats)
    }
}

pub(crate) const TAG_META: u8 = 1;
pub(crate) const TAG_ANALYSIS: u8 = 2;
pub(crate) const TAG_REMOVE: u8 = 3;
/// A persisted copy of the shot index (written last by [`VideoDatabase::save`]
/// so a loader can adopt it instead of rebuilding). A journal that was
/// never compacted carries none — the loader falls back to a rebuild,
/// which the legacy-journal test pins.
const TAG_INDEX: u8 = 4;

/// On-disk format version of the [`TAG_INDEX`] payload. Version 2 stores
/// each row's key as varints ([`Varint`]); version 1 held them
/// fixed-width.
const INDEX_FORMAT_V2: u16 = 2;

/// The decoded [`TAG_INDEX`] payload: format version, an
/// order-independent fingerprint of the rows, and the rows themselves
/// (sorted as the index keeps them).
struct PersistedIndex {
    entries: Vec<IndexEntry>,
}

impl PersistedIndex {
    /// Encode the current finalized rows of `index`.
    fn encode_from(index: &ShotIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        INDEX_FORMAT_V2.encode(&mut buf);
        index.fingerprint().encode(&mut buf);
        index.entries().to_vec().encode(&mut buf);
        buf
    }

    /// Decode a payload. Unknown versions and fingerprint mismatches
    /// (i.e. a corrupt or stale record) yield `None` — the caller
    /// rebuilds instead of erroring, because the journal's analysis rows
    /// remain the source of truth.
    fn decode(mut buf: &[u8]) -> Option<Self> {
        let buf = &mut buf;
        let version = u16::decode(buf).ok()?;
        if version != INDEX_FORMAT_V2 {
            return None;
        }
        let fingerprint = u64::decode(buf).ok()?;
        let entries = Vec::<IndexEntry>::decode(buf).ok()?;
        if fingerprint_entries(entries.iter()) != fingerprint {
            return None;
        }
        Some(PersistedIndex { entries })
    }
}

/// The index rows one stored analysis contributes.
fn index_rows(stored: &StoredAnalysis) -> Vec<IndexEntry> {
    stored
        .shots
        .iter()
        .zip(&stored.features)
        .map(|(shot, feature)| {
            IndexEntry::new(
                ShotKey {
                    video: stored.video,
                    shot: shot.id as u32,
                },
                *feature,
            )
        })
        .collect()
}

/// The database.
#[derive(Debug, Default)]
pub struct VideoDatabase {
    taxonomy: Taxonomy,
    catalog: Catalog,
    analyses: IdMap<StoredAnalysis>,
    index: ShotIndex,
    config: AnalyzerConfig,
    /// The resident analysis engine: one per database, reused across
    /// ingests so its scratch arena warms up once per dimension class
    /// rather than once per video. Kept in sync with `config`.
    engine: AnalysisEngine,
}

impl VideoDatabase {
    /// Empty database with default analysis thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty database with explicit analysis configuration.
    pub fn with_config(config: AnalyzerConfig) -> Self {
        VideoDatabase {
            config,
            engine: AnalysisEngine::new(config),
            ..Self::default()
        }
    }

    /// The analysis configuration in use.
    pub fn config(&self) -> AnalyzerConfig {
        self.config
    }

    /// The taxonomy (for resolving genre/form names).
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Re-insert a previously persisted analysis (journal replay). Rows
    /// are *staged* into the index — replay finishes with
    /// [`Self::finalize_index`], which either adopts a persisted index
    /// copy or merges everything in one build.
    fn restore_analysis(&mut self, stored: StoredAnalysis) {
        // A second record for the same video replaces the first, rows
        // included, so every index row names a shot of the stored tree.
        if self.analyses.contains_key(&stored.video) {
            self.index.remove_video(stored.video);
        }
        self.index.stage(index_rows(&stored));
        self.analyses.insert(stored.video, stored);
    }

    /// Finish a replay: adopt `persisted` if it matches the staged rows
    /// (counted on `store.index.persisted_loads` and the index's own
    /// [`IndexRuntime::adoptions`](vdb_core::index::IndexRuntime)),
    /// otherwise rebuild from the staged rows (`store.index.rebuilds`).
    fn finalize_index(&mut self, persisted: Option<PersistedIndex>) {
        let obs = crate::obs::index();
        if let Some(p) = persisted {
            if self.index.adopt(p.entries) {
                obs.persisted_loads.incr();
                return;
            }
        }
        if !self.index.is_finalized() {
            obs.rebuilds.incr();
        }
        self.index.finalize();
    }

    /// The shot index (the `D^v`-sorted table and its staged tier).
    pub fn index(&self) -> &ShotIndex {
        &self.index
    }

    /// Number of videos.
    pub fn len(&self) -> usize {
        self.catalog.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.catalog.is_empty()
    }

    /// Ingest a video: run Steps 1–3 of the paper's pipeline, store every
    /// artifact, index every shot. Returns the assigned video id.
    pub fn ingest(
        &mut self,
        name: impl Into<String>,
        video: &Video,
        genres: Vec<GenreId>,
        forms: Vec<FormId>,
    ) -> Result<u64, DbError> {
        self.ingest_clip(name.into(), video, genres, forms)
    }

    /// Ingest a video whose analysis was already computed (e.g. by a
    /// streaming session, outside any lock — see
    /// [`crate::session::StreamIngest`]).
    ///
    /// The analysis must have been produced by a pipeline with this
    /// database's configuration for query behaviour to stay uniform. An
    /// analysis whose parts disagree (the checks a stored record's decode
    /// runs) is refused with [`DbError::Inconsistent`] and nothing is
    /// stored.
    pub fn ingest_precomputed(
        &mut self,
        name: impl Into<String>,
        dims: (u32, u32),
        fps: f64,
        analysis: VideoAnalysis,
        genres: Vec<GenreId>,
        forms: Vec<FormId>,
    ) -> Result<u64, DbError> {
        let frames = analysis.frame_count();
        self.store_analysis(analysis, |catalog| {
            catalog.register(name, genres, forms, frames, fps, dims)
        })
    }

    /// Decompose an owned analysis into the stored form (no copies of the
    /// shot list, features, or sign histories), check that its parts
    /// agree, and only then register it (`register` assigns the id) and
    /// index it: every write path goes through here or through the
    /// checked decode of [`Self::replay`], so every index row names a
    /// catalogued video whose scene tree has a leaf for the row's shot.
    fn store_analysis(
        &mut self,
        analysis: VideoAnalysis,
        register: impl FnOnce(&mut Catalog) -> u64,
    ) -> Result<u64, DbError> {
        let VideoAnalysis {
            signs_ba,
            signs_oa,
            segmentation,
            scene_tree,
            features,
        } = analysis;
        let mut stored = StoredAnalysis {
            video: 0,
            shots: segmentation.shots,
            features,
            signs_ba,
            signs_oa,
            scene_tree,
            stats: segmentation.stats,
        };
        stored.check_parts().map_err(DbError::Inconsistent)?;
        stored.video = register(&mut self.catalog);
        self.index.extend(index_rows(&stored));
        let id = stored.video;
        self.analyses.insert(id, stored);
        Ok(id)
    }

    /// Aggregate statistics over the whole database.
    pub fn stats(&self) -> DbStats {
        let mut s = DbStats {
            videos: self.catalog.len(),
            ..DbStats::default()
        };
        for a in self.analyses.values() {
            s.shots += a.shots.len();
            s.frames += a.signs_ba.len();
            s.scene_nodes += a.scene_tree.len();
            s.max_tree_height = s.max_tree_height.max(a.scene_tree.height());
        }
        s.index_rows = self.index.len();
        s
    }

    /// Remove a video and all its artifacts.
    pub fn remove(&mut self, id: u64) -> Result<(), DbError> {
        self.catalog.remove(id).ok_or(DbError::UnknownVideo(id))?;
        self.analyses.remove(&id);
        self.index.remove_video(id);
        Ok(())
    }

    /// Drop catalog rows that have no stored analysis — torn-tail
    /// leftovers where a crash landed between a video's META record and
    /// its ANALYSIS record — and stored analyses (with their index rows)
    /// that have no catalog row, which only a damaged file holds. The one
    /// replay (`VideoDatabase::replay`, behind `load` and the journal)
    /// calls this so a partially persisted video is never visible and
    /// every index row names a catalogued video. Returns how many videos
    /// were swept.
    pub fn drop_unanalyzed(&mut self) -> usize {
        let orphans: Vec<u64> = self
            .catalog
            .all()
            .iter()
            .map(|m| m.id)
            .filter(|id| !self.analyses.contains_key(id))
            .collect();
        for id in &orphans {
            let _ = self.remove(*id);
        }
        let uncatalogued: Vec<u64> = self
            .analyses
            .keys()
            .copied()
            .filter(|&id| self.catalog.get(id).is_none())
            .collect();
        for id in &uncatalogued {
            self.analyses.remove(id);
            self.index.remove_video(*id);
        }
        orphans.len() + uncatalogued.len()
    }

    /// The stored analysis of a video.
    pub fn analysis(&self, id: u64) -> Result<&StoredAnalysis, DbError> {
        self.analyses.get(&id).ok_or(DbError::UnknownVideo(id))
    }

    /// Run a textual query (see [`crate::query`] for the syntax), e.g.
    /// `"ba=0.5 oa=15 genre=comedy form=feature limit=5"`: every answer of
    /// [`Self::query_text`], nearest first.
    pub fn query_str(&self, text: &str) -> Result<Vec<QueryAnswer>, DbError> {
        self.query_text(text, usize::MAX)
            .map(|(answers, _, _)| answers)
    }

    /// The textual query entry behind the shell's `query` and `explain`:
    /// parse, then run the answer walk with the spec's genre/form
    /// predicate ([`QuerySpec::keeps`]), capped at its `limit` and at
    /// `max_rows`. Returns the first `min(limit, max_rows)` answers, the
    /// answer count `min(kept, limit)` — exact, whatever `max_rows` cut
    /// — and the probe's [`Explain`] (its exact work); explaining never
    /// changes what runs. Runs under a `store.query` trace span (the
    /// index probe is a child span carrying the explain payload).
    pub fn query_text(
        &self,
        text: &str,
        max_rows: usize,
    ) -> Result<(Vec<QueryAnswer>, usize, Explain), DbError> {
        let mut tspan = global_tracer().span("store.query");
        let spec = QuerySpec::parse(text, &self.taxonomy)?;
        let limit = spec.limit.unwrap_or(usize::MAX);
        let filter = |meta: &VideoMeta| spec.keeps(meta);
        let (answers, kept, explain) = self.answers(
            &spec.variance,
            spec.k,
            spec.filters().then_some(&filter),
            limit.min(max_rows),
        );
        let count = kept.min(limit);
        if tspan.is_recording() {
            tspan.attr("answers", count);
        }
        Ok((answers, count, explain))
    }

    /// The one §4.2 answer walk behind every variance query: the index's
    /// [`ShotIndex::select`] (`k: None` is the Eqs. 7–8 range,
    /// `Some(k)` the k nearest), keeping the matches whose video `filter`
    /// accepts (`None`: every match), nearest first.
    ///
    /// Every match is counted, but only the first `cap` kept matches come
    /// back sorted, and only those are mapped to the largest scene that
    /// shares their representative frame and built into a
    /// [`QueryAnswer`] — a reply shows a handful of rows out of thousands
    /// of matches. Without a filter no per-match lookup runs: every index
    /// row names a catalogued video whose tree has a leaf for its shot
    /// (see [`Self::store_analysis`] and [`Self::drop_unanalyzed`]). With
    /// one, the selection's keep predicate looks up the video's catalog
    /// row and checks the shot's leaf, as the rows are counted. Returns
    /// those rows, the exact kept count (whatever `cap` cut) and the
    /// probe's [`Explain`].
    fn answers(
        &self,
        q: &VarianceQuery,
        k: Option<usize>,
        filter: Option<&dyn Fn(&VideoMeta) -> bool>,
        cap: usize,
    ) -> (Vec<QueryAnswer>, usize, Explain) {
        let mut shows = filter.map(|filter| {
            move |key: ShotKey| {
                self.catalog.get(key.video).is_some_and(filter)
                    && self.analyses.get(&key.video).is_some_and(|stored| {
                        stored.scene_tree.leaf_of_shot(key.shot as usize).is_some()
                    })
            }
        });
        let keep = shows
            .as_mut()
            .map(|shows| shows as &mut dyn FnMut(ShotKey) -> bool);
        let (matches, kept, explain) = self.index.select(q, k, cap, keep);
        let rows = matches
            .iter()
            .map(|m| {
                let tree = &self.analyses[&m.entry.key.video].scene_tree;
                let node_id = tree
                    .largest_scene_for_shot(m.entry.key.shot as usize)
                    .expect("every indexed shot has a leaf");
                let node = tree.node(node_id);
                QueryAnswer {
                    key: m.entry.key,
                    distance: m.distance,
                    var_ba: m.entry.var_ba,
                    var_oa: m.entry.var_oa,
                    scene_node: node_id,
                    scene_name: node.name(),
                    rep_frame: node.rep_frame,
                }
            })
            .collect();
        (rows, kept, explain)
    }

    /// Persist the database to a segment file.
    pub fn save(&self, path: &Path) -> Result<(), DbError> {
        let mut w = SegmentWriter::create(path)?;
        for meta in self.catalog.all() {
            w.append(TAG_META, &codec::to_bytes(meta))?;
        }
        let mut ids: Vec<u64> = self.analyses.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            w.append(TAG_ANALYSIS, &self.analyses[&id].encode())?;
        }
        // The index copy goes last so every row it covers is already on
        // disk. If rows are still staged (mid-replay save), skip it — the
        // loader will rebuild, which is always correct.
        if self.index.is_finalized() {
            w.append(TAG_INDEX, &PersistedIndex::encode_from(&self.index))?;
        }
        w.finish()?;
        Ok(())
    }

    /// Load a database from a segment file: the records are replayed
    /// exactly as [`crate::JournaledDatabase::open`] replays a journal,
    /// every record decoded with its checks, and the index copy a `save`
    /// writes last is adopted if it matches the replayed rows.
    pub fn load(path: &Path, config: AnalyzerConfig) -> Result<Self, DbError> {
        Self::replay(config, &read_segment_file(path)?).map(|(db, _)| db)
    }

    /// Rebuild a database from its persisted records: the one replay
    /// behind [`Self::load`] and [`crate::JournaledDatabase::open`].
    /// META, ANALYSIS and REMOVE records are applied in order; the last
    /// `TAG_INDEX` copy is adopted if it matches the replayed rows, and
    /// otherwise (stale or corrupt copy, or none) the index is rebuilt
    /// from the stored per-shot features. Every record is decoded with
    /// its checks, so a record that does not decode fails the replay.
    ///
    /// A torn tail can leave a META row whose ANALYSIS record was cut
    /// off; it is swept so no partial video is visible. Returns the
    /// database and the number of rows swept.
    pub(crate) fn replay(
        config: AnalyzerConfig,
        records: &[Record],
    ) -> Result<(Self, usize), DbError> {
        let mut db = VideoDatabase::with_config(config);
        let mut persisted = None;
        for record in records {
            match record.tag {
                TAG_META => db.catalog.restore(codec::from_bytes(&record.payload)?),
                TAG_ANALYSIS => db.restore_analysis(StoredAnalysis::decode(&record.payload)?),
                // The video may already be absent (a double tombstone
                // after a compaction race): ignore.
                TAG_REMOVE => {
                    let _ = db.remove(codec::from_bytes::<Varint>(&record.payload)?.0);
                }
                // Only the last index copy can match: later appends
                // stale out earlier ones via the fingerprint check.
                TAG_INDEX => persisted = PersistedIndex::decode(&record.payload),
                _ => return Err(DbError::BadRecord("unknown record tag")),
            }
        }
        let swept = db.drop_unanalyzed();
        db.finalize_index(persisted);
        Ok((db, swept))
    }
}

/// One per-shard row of a distributed query (see
/// [`VideoDatabase::query_str_sharded`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardQueryRow {
    /// The answer; `distance` carries full precision for the global merge.
    pub answer: QueryAnswer,
    /// Whether the spec's genre/form predicate keeps this row.
    pub keep: bool,
}

/// A shard's contribution to a distributed query.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardQueryAnswers {
    /// `Some(k)` when the spec ran in top-k mode.
    pub k: Option<usize>,
    /// The spec's `limit`, to be applied globally by the coordinator.
    pub limit: Option<usize>,
    /// Rows for the merger (see [`VideoDatabase::query_str_sharded`]).
    pub rows: Vec<ShardQueryRow>,
    /// Rows surviving the filter on this shard, pre-limit (exact).
    pub kept_total: usize,
}

impl VideoDatabase {
    /// One shard's contribution to a distributed query (the `xquery` wire
    /// extra, see [`ShardQueryAnswers::encode`]): the same parse and
    /// answer walk as [`Self::query_text`], but the `limit` is *not*
    /// applied — it must run globally, in [`ShardQueryAnswers::merge`]:
    ///
    /// - **range mode**: the first [`SHOWN_ANSWERS`] rows the spec's
    ///   genre/form predicate keeps, nearest first. `kept_total` is the
    ///   walk's exact kept count; rows past the cap are counted, never
    ///   built.
    /// - **top-k mode**: the full pre-filter top-k, every row tagged with
    ///   [`QuerySpec::keeps`], because single-node semantics take the
    ///   *global* k nearest first and filter second — the merge must do
    ///   the same.
    pub fn query_str_sharded(&self, text: &str) -> Result<ShardQueryAnswers, DbError> {
        let spec = QuerySpec::parse(text, &self.taxonomy)?;
        let (rows, kept_total) = if spec.k.is_some() {
            let (answers, _, _) = self.answers(&spec.variance, spec.k, None, usize::MAX);
            let rows: Vec<ShardQueryRow> = answers
                .into_iter()
                .map(|answer| {
                    let keep = self
                        .catalog
                        .get(answer.key.video)
                        .is_some_and(|meta| spec.keeps(meta));
                    ShardQueryRow { answer, keep }
                })
                .collect();
            let kept_total = rows.iter().filter(|r| r.keep).count();
            (rows, kept_total)
        } else {
            let filter = |meta: &VideoMeta| spec.keeps(meta);
            let (answers, kept_total, _) = self.answers(
                &spec.variance,
                None,
                spec.filters().then_some(&filter),
                SHOWN_ANSWERS,
            );
            let rows = answers
                .into_iter()
                .map(|answer| ShardQueryRow { answer, keep: true })
                .collect();
            (rows, kept_total)
        };
        Ok(ShardQueryAnswers {
            k: spec.k,
            limit: spec.limit,
            rows,
            kept_total,
        })
    }
}

impl ShardQueryAnswers {
    /// The `xquery` reply: a `mode=… kept=… k=… limit=…` header, then one
    /// `row` line per row. `d=`, `ba=` and `oa=` are f64 bit patterns,
    /// so the merge compares the very distances the shard computed.
    pub fn encode(&self) -> String {
        let opt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        let mut out = format!(
            "mode={} kept={} k={} limit={}\n",
            if self.k.is_some() { "topk" } else { "range" },
            self.kept_total,
            opt(self.k),
            opt(self.limit),
        );
        for row in &self.rows {
            let a = &row.answer;
            let _ = writeln!(
                out,
                "row v={} s={} d={:016x} ba={:016x} oa={:016x} rep={} keep={} nid={} node={}",
                a.key.video,
                a.key.shot,
                a.distance.to_bits(),
                a.var_ba.to_bits(),
                a.var_oa.to_bits(),
                a.rep_frame,
                row.keep as u8,
                a.scene_node,
                a.scene_name
            );
        }
        out
    }

    /// Read back what [`Self::encode`] wrote.
    pub fn decode(text: &str) -> Result<ShardQueryAnswers, String> {
        let mut lines = text.lines();
        let head = lines.next().ok_or("empty reply")?;
        let opt = |key: &str| match field(head, key) {
            Some("-") => Ok(None),
            _ => parse_field(head, key).map(Some),
        };
        let rows = lines.filter_map(|line| line.strip_prefix("row "));
        let rows = rows.map(|row| {
            Ok(ShardQueryRow {
                answer: QueryAnswer {
                    key: ShotKey {
                        video: parse_field(row, "v")?,
                        shot: parse_field(row, "s")?,
                    },
                    distance: parse_bits(row, "d")?,
                    var_ba: parse_bits(row, "ba")?,
                    var_oa: parse_bits(row, "oa")?,
                    scene_node: parse_field(row, "nid")?,
                    scene_name: parse_field(row, "node")?,
                    rep_frame: parse_field(row, "rep")?,
                },
                keep: parse_field::<u8>(row, "keep")? == 1,
            })
        });
        Ok(ShardQueryAnswers {
            k: opt("k")?,
            limit: opt("limit")?,
            rows: rows.collect::<Result<_, String>>()?,
            kept_total: parse_field(head, "kept")?,
        })
    }

    /// Merge every shard's rows (their video ids already global) into
    /// what [`VideoDatabase::query_text`] returns on a node holding every
    /// shard's videos: the first [`SHOWN_ANSWERS`] answers and the count.
    /// Rows sort by `(distance, key)`, the index's own order. A range
    /// counts the shards' kept rows, which add because shards hold
    /// disjoint videos; a top-k ranks first (the global k nearest), then
    /// filters, then limits, as one node does.
    pub fn merge(shards: Vec<ShardQueryAnswers>) -> (Vec<QueryAnswer>, usize) {
        let Some(first) = shards.first() else {
            return (Vec::new(), 0);
        };
        let (k, limit) = (first.k, first.limit.unwrap_or(usize::MAX));
        let kept_total: usize = shards.iter().map(|s| s.kept_total).sum();
        let mut rows: Vec<ShardQueryRow> = shards.into_iter().flat_map(|s| s.rows).collect();
        rows.sort_by(|a, b| {
            let (a, b) = (&a.answer, &b.answer);
            a.distance.total_cmp(&b.distance).then(a.key.cmp(&b.key))
        });
        let count = match k {
            Some(k) => {
                rows.truncate(k);
                rows.retain(|r| r.keep);
                rows.len()
            }
            None => kept_total,
        };
        let answers = rows.into_iter().take(limit.min(SHOWN_ANSWERS));
        (answers.map(|r| r.answer).collect(), count.min(limit))
    }
}

impl DbBackend for VideoDatabase {
    fn db(&self) -> &VideoDatabase {
        self
    }

    /// Runs under a `store.ingest` trace span: the pipeline's stage spans
    /// (extract → cascade → assembly → tree) become children, so one
    /// traced ingest shows the whole Step 1–3 cost breakdown.
    fn ingest_clip(
        &mut self,
        name: String,
        video: &Video,
        genres: Vec<GenreId>,
        forms: Vec<FormId>,
    ) -> Result<u64, DbError> {
        let mut tspan = global_tracer().span("store.ingest");
        let analysis = self.engine.analyze(video)?;
        let id = self.store_analysis(analysis, |catalog| {
            catalog.register(name, genres, forms, video.len(), video.fps(), video.dims())
        })?;
        if tspan.is_recording() {
            tspan.attr("video", id);
        }
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
        let id = self.ingest_precomputed(name, dims, fps, analysis, genres, forms)?;
        Ok((id, CommitTicket::already_durable()))
    }

    fn remove_video(&mut self, id: u64) -> Result<(), DbError> {
        self.remove(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::frame::FrameBuf;
    use vdb_synth::script::{generate, VideoScript};
    use vdb_synth::ShotArchetype;

    fn sample_video(seed: u64) -> Video {
        let mut rng = vdb_synth::rng::Srng::new(seed);
        let mut script = VideoScript::small(seed);
        let dims = (script.width, script.height);
        script.push_shot(ShotArchetype::TalkingHeadCloseUp.to_spec(0, 10, dims, &mut rng));
        script.push_shot(ShotArchetype::ActionPan.to_spec(1, 10, dims, &mut rng));
        script.push_shot(ShotArchetype::StaticScenery.to_spec(2, 10, dims, &mut rng));
        generate(&script).video
    }

    #[test]
    fn ingest_and_inspect() {
        let mut db = VideoDatabase::new();
        let t = db.taxonomy().clone();
        let id = db
            .ingest(
                "clip-a",
                &sample_video(1),
                vec![t.genre("comedy").unwrap()],
                vec![t.form("feature").unwrap()],
            )
            .unwrap();
        assert_eq!(db.len(), 1);
        let a = db.analysis(id).unwrap();
        assert!(!a.shots.is_empty());
        assert_eq!(a.shots.len(), a.features.len());
        assert_eq!(db.index().len(), a.shots.len());
        a.scene_tree.check_invariants().unwrap();
    }

    #[test]
    fn query_returns_scene_nodes() {
        let mut db = VideoDatabase::new();
        let id = db.ingest("clip", &sample_video(2), vec![], vec![]).unwrap();
        let a = db.analysis(id).unwrap();
        // Query by example with the first shot's own feature.
        let f = a.features[0];
        let answers = db
            .query_str(&format!("ba={} oa={}", f.var_ba, f.var_oa))
            .unwrap();
        assert!(!answers.is_empty());
        assert_eq!(answers[0].key.video, id);
        // Every answer's scene node is named after the matching shot.
        let a = db.analysis(id).unwrap();
        for ans in &answers {
            let node = a.scene_tree.node(ans.scene_node);
            assert_eq!(node.name_shot, ans.key.shot as usize);
            assert_eq!(node.name(), ans.scene_name);
        }
    }

    #[test]
    fn class_scoped_query() {
        let mut db = VideoDatabase::new();
        let t = db.taxonomy().clone();
        let comedy = t.genre("comedy").unwrap();
        let horror = t.genre("horror").unwrap();
        let feature = t.form("feature").unwrap();
        let a = db
            .ingest("funny", &sample_video(3), vec![comedy], vec![feature])
            .unwrap();
        let b = db
            .ingest("scary", &sample_video(3), vec![horror], vec![feature])
            .unwrap();
        // Identical videos: an unscoped query sees both, a scoped one only
        // the comedy.
        let feat = db.analysis(a).unwrap().features[0];
        let text = format!("ba={} oa={}", feat.var_ba, feat.var_oa);
        let all = db.query_str(&text).unwrap();
        assert!(all.iter().any(|x| x.key.video == a));
        assert!(all.iter().any(|x| x.key.video == b));
        let scoped = db
            .query_str(&format!("{text} genre=comedy form=feature"))
            .unwrap();
        assert!(scoped.iter().all(|x| x.key.video == a));
        assert!(!scoped.is_empty());
    }

    #[test]
    fn query_str_end_to_end() {
        let mut db = VideoDatabase::new();
        let t = db.taxonomy().clone();
        let comedy = t.genre("comedy").unwrap();
        let feature = t.form("feature").unwrap();
        let id = db
            .ingest("talky", &sample_video(8), vec![comedy], vec![feature])
            .unwrap();
        let f = db.analysis(id).unwrap().features[0];
        let text = format!("ba={} oa={} alpha=1 beta=1", f.var_ba, f.var_oa);
        let answers = db.query_str(&text).unwrap();
        assert!(!answers.is_empty());
        // Scoped versions.
        let scoped = db
            .query_str(&format!("{text} genre=comedy form=feature"))
            .unwrap();
        assert_eq!(
            answers.iter().map(|a| a.key).collect::<Vec<_>>(),
            scoped.iter().map(|a| a.key).collect::<Vec<_>>()
        );
        let other = db.query_str(&format!("{text} genre=western")).unwrap();
        assert!(other.is_empty());
        // Limit.
        let limited = db.query_str(&format!("{text} limit=1")).unwrap();
        assert!(limited.len() <= 1);
        // Parse errors surface as DbError::Query.
        assert!(matches!(
            db.query_str("ba=1 oa=1 bogus=1"),
            Err(DbError::Query(_))
        ));
    }

    #[test]
    fn sharded_rows_agree_with_query_str() {
        let mut db = VideoDatabase::new();
        let t = db.taxonomy().clone();
        let classes = [
            ("comedy", "feature"),
            ("horror", "feature"),
            ("comedy", "short"),
            ("western", "short"),
            ("comedy", "feature"),
            ("horror", "short"),
        ];
        for (seed, (genre, form)) in classes.iter().enumerate() {
            db.ingest(
                format!("clip-{seed}"),
                &sample_video(40 + seed as u64),
                vec![t.genre(genre).unwrap()],
                vec![t.form(form).unwrap()],
            )
            .unwrap();
        }
        let wide = "ba=0 oa=0 alpha=1000 beta=1000";
        let kept = |sharded: &ShardQueryAnswers| -> Vec<QueryAnswer> {
            let limit = sharded.limit.unwrap_or(usize::MAX);
            let rows = sharded.rows.iter().filter(|r| r.keep);
            rows.take(limit).map(|r| r.answer.clone()).collect()
        };

        // (a) Range with a genre/form filter and a limit: the kept rows,
        // limited, are the single-node answers; `kept_total` is the
        // pre-limit kept count.
        let filter = "genre=comedy form=feature";
        let sharded = db
            .query_str_sharded(&format!("{wide} {filter} limit=2"))
            .unwrap();
        let all_kept = db.query_str(&format!("{wide} {filter}")).unwrap();
        assert!(all_kept.len() > 2, "the limit must bite");
        assert_eq!(sharded.limit, Some(2));
        assert!(sharded.rows.iter().all(|r| r.keep));
        assert_eq!(
            kept(&sharded),
            db.query_str(&format!("{wide} {filter} limit=2")).unwrap()
        );
        assert_eq!(sharded.kept_total, all_kept.len());

        // (b) Range with no filter: every row is kept, capped at
        // SHOWN_ANSWERS, and the count is exact.
        let sharded = db.query_str_sharded(wide).unwrap();
        let all = db.query_str(wide).unwrap();
        assert!(all.len() > SHOWN_ANSWERS, "the row cap must bite");
        assert_eq!(kept(&sharded), all[..SHOWN_ANSWERS]);
        assert_eq!(sharded.kept_total, all.len());

        // (c) Top-k with a filter: the unfiltered top-k, with `keep` set
        // exactly where the spec's predicate holds.
        let text = format!("{wide} k=9 genre=comedy limit=4");
        let spec = QuerySpec::parse(&text, &t).unwrap();
        let sharded = db.query_str_sharded(&text).unwrap();
        let unfiltered = db.query_str(&format!("{wide} k=9")).unwrap();
        assert_eq!(sharded.k, Some(9));
        let rows: Vec<QueryAnswer> = sharded.rows.iter().map(|r| r.answer.clone()).collect();
        assert_eq!(rows, unfiltered);
        for row in &sharded.rows {
            let meta = db.catalog().get(row.answer.key.video).unwrap();
            assert_eq!(row.keep, spec.keeps(meta), "{:?}", row.answer.key);
        }
        assert!(sharded.rows.iter().any(|r| r.keep));
        assert!(sharded.rows.iter().any(|r| !r.keep));
        assert_eq!(kept(&sharded), db.query_str(&text).unwrap());
        assert_eq!(
            sharded.kept_total,
            sharded.rows.iter().filter(|r| r.keep).count()
        );

        // (d) Range with a filter that keeps more rows than the cap (two
        // more comedies make it bite): the first kept rows ship, and every
        // kept row past them is counted.
        for seed in 46..48 {
            db.ingest(
                format!("clip-{seed}"),
                &sample_video(seed),
                vec![t.genre("comedy").unwrap()],
                vec![t.form("short").unwrap()],
            )
            .unwrap();
        }
        let sharded = db
            .query_str_sharded(&format!("{wide} genre=comedy"))
            .unwrap();
        let all_comedy = db.query_str(&format!("{wide} genre=comedy")).unwrap();
        assert!(all_comedy.len() > SHOWN_ANSWERS, "the row cap must bite");
        assert!(sharded.rows.iter().all(|r| r.keep));
        assert_eq!(kept(&sharded), all_comedy[..SHOWN_ANSWERS]);
        assert_eq!(sharded.kept_total, all_comedy.len());

        // (e) `limit=0`: the coordinator shows nothing, but the shard
        // still ships its rows and the exact pre-limit count.
        let sharded = db
            .query_str_sharded(&format!("{wide} genre=comedy limit=0"))
            .unwrap();
        assert_eq!(sharded.limit, Some(0));
        assert!(kept(&sharded).is_empty());
        assert!(db
            .query_str(&format!("{wide} genre=comedy limit=0"))
            .unwrap()
            .is_empty());
        assert_eq!(sharded.rows.len(), SHOWN_ANSWERS);
        assert_eq!(sharded.kept_total, all_comedy.len());
    }

    /// Every index row names a catalogued video whose scene tree has a
    /// leaf for the row's shot, and every stored analysis is indexed:
    /// what lets an unfiltered query skip the per-match lookups.
    fn assert_rows_are_showable(db: &VideoDatabase, step: &str) {
        let rows = db.index().entries();
        for e in rows {
            let key = e.key;
            assert!(
                db.catalog().get(key.video).is_some(),
                "{step}: {key:?} uncatalogued"
            );
            let tree = &db.analysis(key.video).unwrap().scene_tree;
            assert!(
                tree.leaf_of_shot(key.shot as usize).is_some(),
                "{step}: {key:?} has no leaf"
            );
            assert!(
                e.d_v().is_finite() && e.sqrt_ba().is_finite(),
                "{step}: {e:?} is not finite"
            );
        }
        assert_eq!(rows.len(), db.stats().shots, "{step}");
        assert_eq!(db.len(), db.analyses.len(), "{step}");
    }

    #[test]
    fn every_write_path_keeps_index_rows_showable() {
        let mut db = VideoDatabase::new();
        let a = db.ingest("a", &sample_video(50), vec![], vec![]).unwrap();
        let b = db.ingest("b", &sample_video(51), vec![], vec![]).unwrap();
        assert_rows_are_showable(&db, "ingest");

        let video = sample_video(52);
        let analysis = vdb_core::analyzer::VideoAnalyzer::new()
            .analyze(&video)
            .unwrap();
        // The last two shots merged: shots, signs and features agree, but
        // the tree keeps a leaf for a shot that no longer exists.
        let mut broken = analysis.clone();
        let shots = &mut broken.segmentation.shots;
        let last = shots.pop().unwrap();
        shots.last_mut().unwrap().end = last.end;
        broken.features.pop();
        let refused = db.commit_stream(
            "x".into(),
            video.dims(),
            video.fps(),
            broken,
            vec![],
            vec![],
        );
        assert!(matches!(refused, Err(DbError::Inconsistent(_))));
        // A feature no analyzer produces: every value edit is refused
        // before the catalog or the index sees it.
        let rows = db.index().entries().to_vec();
        for (var_ba, var_oa) in [(4.0, f64::NAN), (-1.0, 4.0), (f64::INFINITY, 4.0)] {
            let mut poisoned = analysis.clone();
            poisoned.features[0] = vdb_core::variance::ShotFeature { var_ba, var_oa };
            let refused = db.commit_stream(
                "x".into(),
                video.dims(),
                video.fps(),
                poisoned,
                vec![],
                vec![],
            );
            assert!(
                matches!(refused, Err(DbError::Inconsistent(_))),
                "({var_ba}, {var_oa}) was committed"
            );
            assert_eq!(db.len(), 2);
            assert_eq!(db.index().entries(), rows);
        }
        let (c, _) = db
            .commit_stream(
                "c".into(),
                video.dims(),
                video.fps(),
                analysis,
                vec![],
                vec![],
            )
            .unwrap();
        assert_rows_are_showable(&db, "commit_stream");

        db.remove(b).unwrap();
        assert_rows_are_showable(&db, "remove");

        let record = crate::transfer::ExportedVideo::from_db(&db, c)
            .unwrap()
            .encode();
        let (name, dims, fps, analysis, genres, forms) =
            crate::transfer::ExportedVideo::decode(&record)
                .unwrap()
                .into_analysis();
        let (imported, _) = db
            .commit_stream(name, dims, fps, analysis, genres, forms)
            .unwrap();
        assert_rows_are_showable(&db, "import");

        // Replay of what `save` writes, then of the same records damaged:
        // an ANALYSIS with no META, a META with no ANALYSIS, and a second
        // ANALYSIS for one video with another video's shots.
        let meta = |id: u64| Record {
            tag: TAG_META,
            payload: codec::to_bytes(db.catalog().get(id).unwrap()),
        };
        let analysis_as = |from: u64, id: u64| {
            let mut stored = db.analysis(from).unwrap().clone();
            stored.video = id;
            Record {
                tag: TAG_ANALYSIS,
                payload: stored.encode(),
            }
        };
        let clean = [meta(a), meta(c), analysis_as(a, a), analysis_as(c, c)];
        let (back, swept) = VideoDatabase::replay(AnalyzerConfig::default(), &clean).unwrap();
        assert_eq!(swept, 0);
        assert_rows_are_showable(&back, "replay");
        let not_imported: Vec<IndexEntry> = db
            .index()
            .entries()
            .iter()
            .filter(|e| e.key.video != imported)
            .copied()
            .collect();
        assert_eq!(back.index().entries(), not_imported);

        let damaged = [
            meta(a),
            analysis_as(a, a),
            analysis_as(c, a),
            analysis_as(c, 77),
            meta(c),
        ];
        let (back, swept) = VideoDatabase::replay(AnalyzerConfig::default(), &damaged).unwrap();
        assert_eq!(swept, 2, "video 77 has no META, video c no ANALYSIS");
        assert_rows_are_showable(&back, "drop_unanalyzed");
        assert_eq!(back.len(), 1);
        assert_eq!(
            back.analysis(a).unwrap().shots,
            db.analysis(c).unwrap().shots
        );
    }

    #[test]
    fn stats_reflect_contents() {
        let mut db = VideoDatabase::new();
        assert_eq!(db.stats(), DbStats::default());
        let a = db.ingest("one", &sample_video(31), vec![], vec![]).unwrap();
        let b = db.ingest("two", &sample_video(32), vec![], vec![]).unwrap();
        let s = db.stats();
        assert_eq!(s.videos, 2);
        assert_eq!(
            s.shots,
            db.analysis(a).unwrap().shots.len() + db.analysis(b).unwrap().shots.len()
        );
        assert_eq!(s.index_rows, s.shots);
        assert!(s.frames > 0);
        assert!(s.scene_nodes > s.shots, "internal nodes exist");
        assert!(s.max_tree_height >= 1);
    }

    #[test]
    fn ingest_precomputed_matches_ingest() {
        let video = sample_video(33);
        let mut db1 = VideoDatabase::new();
        let id1 = db1.ingest("x", &video, vec![], vec![]).unwrap();

        let mut db2 = VideoDatabase::new();
        let analysis = vdb_core::analyzer::VideoAnalyzer::new()
            .analyze(&video)
            .unwrap();
        let id2 = db2
            .ingest_precomputed("x", video.dims(), video.fps(), analysis, vec![], vec![])
            .unwrap();
        assert_eq!(
            db1.analysis(id1).unwrap().shots,
            db2.analysis(id2).unwrap().shots
        );
        assert_eq!(db1.index().entries(), db2.index().entries());
        assert_eq!(
            db1.catalog().get(id1).unwrap().frame_count,
            db2.catalog().get(id2).unwrap().frame_count
        );
    }

    #[test]
    fn remove_drops_everything() {
        let mut db = VideoDatabase::new();
        let id = db.ingest("gone", &sample_video(4), vec![], vec![]).unwrap();
        let n = db.index().len();
        assert!(n > 0);
        db.remove(id).unwrap();
        assert!(db.is_empty());
        assert_eq!(db.index().len(), 0);
        assert!(matches!(db.analysis(id), Err(DbError::UnknownVideo(_))));
        assert!(matches!(db.remove(id), Err(DbError::UnknownVideo(_))));
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("vdb-dbtest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.vdbs");

        let mut db = VideoDatabase::new();
        let t = db.taxonomy().clone();
        let id = db
            .ingest(
                "persisted",
                &sample_video(5),
                vec![t.genre("drama").unwrap_or(crate::catalog::GenreId(0))],
                vec![t.form("feature").unwrap()],
            )
            .unwrap();
        db.save(&path).unwrap();

        let back = VideoDatabase::load(&path, AnalyzerConfig::default()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.catalog().get(id).unwrap().name, "persisted");
        assert_eq!(back.analysis(id).unwrap(), db.analysis(id).unwrap());
        assert_eq!(back.index().len(), db.index().len());

        // Queries behave identically after reload.
        let feat = db.analysis(id).unwrap().features[0];
        let q = format!("ba={} oa={}", feat.var_ba, feat.var_oa);
        let before: Vec<ShotKey> = db.query_str(&q).unwrap().iter().map(|a| a.key).collect();
        let after: Vec<ShotKey> = back.query_str(&q).unwrap().iter().map(|a| a.key).collect();
        assert_eq!(before, after);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_rejects_tiny_frames() {
        let mut db = VideoDatabase::new();
        let v = Video::new(vec![FrameBuf::black(8, 8); 4], 3.0).unwrap();
        assert!(matches!(
            db.ingest("tiny", &v, vec![], vec![]),
            Err(DbError::Core(_))
        ));
        assert!(db.is_empty(), "failed ingest must not register the video");
    }

    #[test]
    fn ids_survive_reload_without_collision() {
        let dir = std::env::temp_dir().join(format!("vdb-dbtest2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.vdbs");

        let mut db = VideoDatabase::new();
        let id0 = db
            .ingest("first", &sample_video(6), vec![], vec![])
            .unwrap();
        db.save(&path).unwrap();
        let mut back = VideoDatabase::load(&path, AnalyzerConfig::default()).unwrap();
        let id1 = back
            .ingest("second", &sample_video(7), vec![], vec![])
            .unwrap();
        assert_ne!(id0, id1);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Shard-to-shard video transfer: a self-contained export record that
//! carries everything needed to re-create a video on another shard
//! through the streaming-ingest commit path.
//!
//! The record is the analyzed artifact set ([`StoredAnalysis`]) plus the
//! catalog metadata (`name`, dims, fps, genres, forms) — *not* pixels, so
//! a move costs O(analysis) bytes, not O(video). The router's `rebalance`
//! command ships it over the text protocol as hex (`export <id>` →
//! `import <hex>`), which keeps the frame codec untouched.

use crate::catalog::{FormId, GenreId};
use crate::codec::{self, Codec};
use crate::db::{DbError, StoredAnalysis, VideoDatabase};
use vdb_core::analyzer::VideoAnalysis;
use vdb_core::sbd::Segmentation;

/// Format version of the export record (first byte of the payload).
/// Version 3 carries the stored analysis in the varint layout of
/// [`crate::codec`] (ids, lengths and indexes as LEB128, shots as their
/// lengths). Version 2 held those fixed-width and version 1 held the
/// scene tree as JSON; a record of any version but this build's is
/// refused with [`DbError::TransferVersion`], which names both.
pub const TRANSFER_VERSION: u8 = 3;

/// A video packaged for re-ingest on another shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportedVideo {
    /// Display name (globally unique across the cluster by construction:
    /// the router hashes on it).
    pub name: String,
    /// Frame dimensions.
    pub dims: (u32, u32),
    /// Analysis frame rate.
    pub fps: f64,
    /// Genre classifications.
    pub genres: Vec<GenreId>,
    /// Form classifications.
    pub forms: Vec<FormId>,
    /// The stored analysis (source-local `video` id; ignored on import).
    pub analysis: StoredAnalysis,
}

impl ExportedVideo {
    /// Package video `id` of `db` for transfer.
    pub fn from_db(db: &VideoDatabase, id: u64) -> Result<Self, DbError> {
        let meta = db.catalog().get(id).ok_or(DbError::UnknownVideo(id))?;
        let analysis = db.analysis(id)?.clone();
        Ok(ExportedVideo {
            name: meta.name.clone(),
            dims: meta.dims,
            fps: meta.fps,
            genres: meta.genres.clone(),
            forms: meta.forms.clone(),
            analysis,
        })
    }

    /// Serialize to the versioned binary record.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![TRANSFER_VERSION];
        self.name.encode(&mut buf);
        codec::encode_dims(self.dims, &mut buf);
        self.fps.encode(&mut buf);
        self.genres.encode(&mut buf);
        self.forms.encode(&mut buf);
        self.analysis.encode().encode(&mut buf);
        buf
    }

    /// Parse a versioned binary record. The analysis goes through
    /// [`StoredAnalysis`]'s checked decode, so a record that decodes is
    /// safe to commit.
    pub fn decode(buf: &[u8]) -> Result<Self, DbError> {
        let (&version, rest) = buf
            .split_first()
            .ok_or(DbError::BadRecord("empty transfer record"))?;
        if version != TRANSFER_VERSION {
            return Err(DbError::TransferVersion(version));
        }
        let buf = &mut { rest };
        let name = String::decode(buf)?;
        let dims = codec::decode_dims(buf)?;
        let fps = f64::decode(buf)?;
        let genres = Vec::decode(buf)?;
        let forms = Vec::decode(buf)?;
        let analysis_bytes = Vec::<u8>::decode(buf)?;
        if !buf.is_empty() {
            return Err(DbError::BadRecord("trailing transfer bytes"));
        }
        let analysis = StoredAnalysis::decode(&analysis_bytes)?;
        Ok(ExportedVideo {
            name,
            dims,
            fps,
            genres,
            forms,
            analysis,
        })
    }

    /// Rebuild the [`VideoAnalysis`] that
    /// [`crate::backend::DbBackend::commit_stream`] ingests. Shot
    /// boundaries are re-derived from the shots (a partition of the
    /// frame range); per-pair cascade decisions are not persisted, so
    /// the rebuilt segmentation carries none — nothing downstream of
    /// ingest reads them.
    pub fn into_analysis(
        self,
    ) -> (
        String,
        (u32, u32),
        f64,
        VideoAnalysis,
        Vec<GenreId>,
        Vec<FormId>,
    ) {
        let StoredAnalysis {
            shots,
            features,
            signs_ba,
            signs_oa,
            scene_tree,
            stats,
            ..
        } = self.analysis;
        let boundaries = shots.iter().skip(1).map(|s| s.start).collect();
        let segmentation = Segmentation {
            shots,
            boundaries,
            decisions: Vec::new(),
            stats,
        };
        let analysis = VideoAnalysis {
            signs_ba,
            signs_oa,
            segmentation,
            scene_tree,
            features,
        };
        (
            self.name,
            self.dims,
            self.fps,
            analysis,
            self.genres,
            self.forms,
        )
    }
}

/// Lowercase hex of `bytes` (the wire form of an export record).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Parse lowercase/uppercase hex back to bytes.
pub fn from_hex(s: &str) -> Result<Vec<u8>, DbError> {
    let s = s.trim();
    if s.len() % 2 != 0 {
        return Err(DbError::BadRecord("odd-length hex payload"));
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or(DbError::BadRecord("invalid hex digit"))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or(DbError::BadRecord("invalid hex digit"))?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DbBackend;
    use crate::codec::{CodecError, Varint};
    use vdb_core::scenetree::SceneNode;
    use vdb_core::variance::ShotFeature;
    use vdb_synth::script::{generate, VideoScript};
    use vdb_synth::ShotArchetype;

    fn sample_db() -> VideoDatabase {
        let mut rng = vdb_synth::rng::Srng::new(11);
        let mut script = VideoScript::small(11);
        let dims = (script.width, script.height);
        script.push_shot(ShotArchetype::TalkingHeadCloseUp.to_spec(0, 10, dims, &mut rng));
        script.push_shot(ShotArchetype::ActionPan.to_spec(1, 10, dims, &mut rng));
        script.push_shot(ShotArchetype::StaticScenery.to_spec(2, 10, dims, &mut rng));
        let video = generate(&script).video;
        let mut db = VideoDatabase::new();
        db.ingest("transfer sample", &video, vec![GenreId(3)], vec![FormId(1)])
            .unwrap();
        db
    }

    #[test]
    fn export_record_round_trips() {
        let db = sample_db();
        let exported = ExportedVideo::from_db(&db, 0).unwrap();
        let bytes = exported.encode();
        let back = ExportedVideo::decode(&bytes).unwrap();
        assert_eq!(back, exported);
        let hexed = to_hex(&bytes);
        assert_eq!(from_hex(&hexed).unwrap(), bytes);
    }

    #[test]
    fn import_reproduces_query_results() {
        let db = sample_db();
        let exported = ExportedVideo::from_db(&db, 0).unwrap();
        let record = exported.encode();

        let mut dst = VideoDatabase::new();
        let decoded = ExportedVideo::decode(&record).unwrap();
        let (name, dims, fps, analysis, genres, forms) = decoded.into_analysis();
        let (id, ticket) = dst
            .commit_stream(name, dims, fps, analysis, genres, forms)
            .unwrap();
        assert!(!ticket.is_pending());
        assert_eq!(id, 0);

        let q = "ba=0.4 oa=12 alpha=6 beta=6";
        let src_answers = db.query_str(q).unwrap();
        let dst_answers = dst.query_str(q).unwrap();
        assert_eq!(src_answers, dst_answers);
        assert_eq!(db.catalog().get(0).unwrap(), dst.catalog().get(0).unwrap());
    }

    #[test]
    fn import_takes_the_destinations_next_id_not_the_exporters() {
        let mut src = sample_db();
        let video = {
            let mut rng = vdb_synth::rng::Srng::new(12);
            let mut script = VideoScript::small(12);
            let dims = (script.width, script.height);
            script.push_shot(ShotArchetype::ActionPan.to_spec(0, 10, dims, &mut rng));
            generate(&script).video
        };
        for name in ["second", "third"] {
            src.ingest(name, &video, vec![GenreId(3)], vec![FormId(1)])
                .unwrap();
        }
        let exported = ExportedVideo::from_db(&src, 2).unwrap();
        assert_eq!(exported.analysis.video, 2);
        let record = exported.encode();

        let mut dst = sample_db();
        let (name, dims, fps, analysis, genres, forms) =
            ExportedVideo::decode(&record).unwrap().into_analysis();
        let (id, _) = dst
            .commit_stream(name, dims, fps, analysis, genres, forms)
            .unwrap();
        assert_eq!(id, 1, "the destination's next id");
        assert_eq!(dst.catalog().get(1).unwrap().name, "third");
        assert_eq!(dst.analysis(1).unwrap().video, 1);
        assert!(dst.catalog().get(2).is_none());
        assert!(dst.analysis(2).is_err());
        let q = "ba=0.4 oa=12 alpha=1000 beta=1000";
        let videos: Vec<u64> = dst
            .query_str(q)
            .unwrap()
            .iter()
            .map(|a| a.key.video)
            .collect();
        assert!(videos.contains(&1) && !videos.contains(&2), "{videos:?}");
    }

    /// An export record written field by field with [`Codec`], so a test
    /// can hand the decoder parts that disagree. Shots are given as their
    /// lengths, as the record stores them.
    fn blob(
        e: &ExportedVideo,
        shot_lengths: &[usize],
        features: &[ShotFeature],
        nodes: &[SceneNode],
    ) -> Vec<u8> {
        let a = &e.analysis;
        let mut analysis = Vec::new();
        Varint(a.video).encode(&mut analysis);
        shot_lengths.to_vec().encode(&mut analysis);
        features.to_vec().encode(&mut analysis);
        a.signs_ba.encode(&mut analysis);
        a.signs_oa.encode(&mut analysis);
        nodes.to_vec().encode(&mut analysis);
        for v in [
            a.stats.pairs,
            a.stats.stage1_same,
            a.stats.stage2_same,
            a.stats.stage3_same,
            a.stats.boundaries,
        ] {
            v.encode(&mut analysis);
        }
        let mut buf = vec![TRANSFER_VERSION];
        e.name.encode(&mut buf);
        Varint(e.dims.0.into()).encode(&mut buf);
        Varint(e.dims.1.into()).encode(&mut buf);
        e.fps.encode(&mut buf);
        e.genres.encode(&mut buf);
        e.forms.encode(&mut buf);
        analysis.encode(&mut buf);
        buf
    }

    /// Each record decodes field by field but its parts disagree. Once
    /// committed, the first would panic the next query on an index out of
    /// range and the second would loop forever in the ancestor walk.
    #[test]
    fn inconsistent_records_are_rejected() {
        let exported = ExportedVideo::from_db(&sample_db(), 0).unwrap();
        let a = &exported.analysis;
        let tree = &a.scene_tree;
        let nodes = tree.nodes();
        let lengths: Vec<usize> = a.shots.iter().map(|s| s.len()).collect();
        assert_eq!(
            blob(&exported, &lengths, &a.features, nodes),
            exported.encode(),
            "the hand-written layout is the real one"
        );
        // A leaf with a grandparent: the cycle is on its ancestor path.
        let (leaf, up, top) = (0..tree.shot_count())
            .find_map(|s| {
                let leaf = tree.leaf_of_shot(s)?;
                let up = tree.node(leaf).parent?;
                Some((leaf, up, tree.node(up).parent?))
            })
            .unwrap();

        let mut wild_parent = nodes.to_vec();
        wild_parent[leaf].parent = Some(999);
        let mut cycle = nodes.to_vec();
        cycle[top].parent = Some(up);
        cycle[up].children.push(top);
        let mut short_shot = lengths.clone();
        let long = short_shot.iter().position(|&len| len > 1).unwrap();
        short_shot[long] -= 1;
        let short = &a.features[..a.features.len() - 1];

        for (what, record) in [
            (
                "leaf parent out of range",
                blob(&exported, &lengths, &a.features, &wild_parent),
            ),
            (
                "parent cycle",
                blob(&exported, &lengths, &a.features, &cycle),
            ),
            (
                "fewer features than shots",
                blob(&exported, &lengths, short, nodes),
            ),
            (
                "shot lengths sum to one frame fewer than the signs",
                blob(&exported, &short_shot, &a.features, nodes),
            ),
        ] {
            match ExportedVideo::decode(&record) {
                Err(DbError::Codec(CodecError::Inconsistent(why))) => {
                    assert!(!why.is_empty(), "{what}")
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn version_1_records_are_refused_by_name() {
        let mut record = ExportedVideo::from_db(&sample_db(), 0).unwrap().encode();
        record[0] = 1;
        let err = ExportedVideo::decode(&record).unwrap_err();
        assert!(matches!(err, DbError::TransferVersion(1)), "{err:?}");
        let text = err.to_string();
        assert!(
            text.contains("version 1") && text.contains("version 3"),
            "{text}"
        );
    }

    /// A record of the fixed-width layout (8-byte ids, lengths and
    /// indexes) is refused by its version byte before any field is read,
    /// with an error naming both versions.
    #[test]
    fn version_2_records_are_refused_by_name() {
        let mut record = ExportedVideo::from_db(&sample_db(), 0).unwrap().encode();
        record[0] = 2;
        let err = ExportedVideo::decode(&record).unwrap_err();
        assert!(matches!(err, DbError::TransferVersion(2)), "{err:?}");
        let text = err.to_string();
        assert!(
            text.contains("version 2") && text.contains("version 3"),
            "{text}"
        );
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
        assert!(ExportedVideo::decode(&[]).is_err());
        assert!(ExportedVideo::decode(&[9, 1, 2, 3]).is_err());
        let db = sample_db();
        let mut bytes = ExportedVideo::from_db(&db, 0).unwrap().encode();
        bytes.truncate(bytes.len() - 3);
        assert!(ExportedVideo::decode(&bytes).is_err());
    }
}

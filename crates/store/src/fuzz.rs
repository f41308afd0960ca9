//! Decoder robustness sweep over every record this crate reads back.
//!
//! A seeded mutator (on the proptest shim's `TestRng`) takes valid
//! encodings of [`StoredAnalysis`], [`ExportedVideo`], [`VideoMeta`] and a
//! whole journal segment and feeds the decoders every strict prefix plus
//! thousands of single-bit flips, length-field edits and splices of two
//! valid encodings. Each decode must return `Err` or a value that passes
//! the same checks a clean decode does — and that the query, `tree` and
//! `board` paths can walk — never a panic or a hang. A record that
//! decodes must also be the one encoding of its value.

use crate::catalog::{FormId, GenreId, VideoMeta};
use crate::codec::{self, Codec, Varint};
use crate::db::{StoredAnalysis, VideoDatabase, TAG_REMOVE};
use crate::journal::encode_record;
use crate::pages::{read_segment, Record, MAGIC};
use crate::session::storyboard;
use crate::transfer::ExportedVideo;
use proptest::TestRng;
use vdb_core::analyzer::AnalyzerConfig;
use vdb_synth::script::{generate, VideoScript};
use vdb_synth::ShotArchetype;

/// Mutated inputs per target.
const CASES: usize = 1500;

/// Seeded mutations of valid encodings.
struct Mutator(TestRng);

impl Mutator {
    fn pick(&mut self, bound: usize) -> usize {
        self.0.below(bound as u64) as usize
    }

    /// One mutation of `input` (non-empty); `other` is a second valid
    /// encoding for splices.
    fn mutate(&mut self, input: &[u8], other: &[u8]) -> Vec<u8> {
        let mut out = input.to_vec();
        match self.pick(3) {
            // One to three single-bit flips.
            0 => {
                for _ in 0..=self.pick(3) {
                    let bit = self.pick(out.len() * 8);
                    out[bit / 8] ^= 1 << (bit % 8);
                }
            }
            // Rewrite a length field: a canonical varint whose value is
            // no larger than the bytes after it.
            1 => {
                let varint_at = |p: usize| {
                    let mut rest = &out[p..];
                    let v = Varint::decode(&mut rest).ok()?.0;
                    (v <= rest.len() as u64).then_some((v, out.len() - p - rest.len()))
                };
                let fields: Vec<(usize, u64, usize)> = (0..out.len())
                    .filter_map(|p| varint_at(p).map(|(v, len)| (p, v, len)))
                    .collect();
                if !fields.is_empty() {
                    let (p, v, len) = fields[self.pick(fields.len())];
                    let edited = match self.pick(8) {
                        0 => codec::to_bytes(&Varint(0)),
                        1 => codec::to_bytes(&Varint(v + 1)),
                        2 => codec::to_bytes(&Varint(v.wrapping_sub(1))),
                        3 => codec::to_bytes(&Varint(1 << 32)),
                        4 => codec::to_bytes(&Varint(self.0.below(1 << 20))),
                        // The same value with one group too many.
                        5 => {
                            let mut b = codec::to_bytes(&Varint(v));
                            *b.last_mut().unwrap() |= 0x80;
                            b.push(0);
                            b
                        }
                        6 => codec::to_bytes(&Varint(u64::MAX)),
                        // Eleven bytes: past the longest u64 encoding.
                        _ => [[0xff; 10].as_slice(), &[0x01]].concat(),
                    };
                    out.splice(p..p + len, edited);
                }
            }
            // Splice: a prefix of this encoding, the tail of the other.
            _ => {
                out.truncate(self.pick(out.len() + 1));
                out.extend_from_slice(&other[self.pick(other.len() + 1)..]);
            }
        }
        out
    }
}

/// Run `decode` on every strict prefix of each input and on `CASES`
/// mutations, splicing the inputs with each other.
fn sweep(seed: u64, inputs: &[Vec<u8>], mut decode: impl FnMut(&[u8], bool)) {
    for input in inputs {
        for cut in 0..input.len() {
            decode(&input[..cut], true);
        }
    }
    let mut m = Mutator(TestRng::new(seed));
    for i in 0..CASES {
        let input = &inputs[i % inputs.len()];
        let other = &inputs[(i + 1) % inputs.len()];
        decode(&m.mutate(input, other), false);
    }
}

/// What every decoded analysis must allow: its checks pass, it re-encodes
/// to a record that decodes to the same bytes, and the browsing and
/// answer-mapping walks over it terminate.
fn walk(a: &StoredAnalysis) {
    a.check_parts().unwrap();
    a.scene_tree.check_invariants().unwrap();
    let bytes = a.encode();
    assert_eq!(StoredAnalysis::decode(&bytes).unwrap().encode(), bytes);
    for s in 0..a.shots.len() {
        a.scene_tree.largest_scene_for_shot(s).unwrap();
    }
    storyboard(a, 8);
    a.scene_tree.render_ascii();
}

fn clip(seed: u64, archetypes: &[ShotArchetype]) -> vdb_core::frame::Video {
    let mut rng = vdb_synth::rng::Srng::new(seed);
    let mut script = VideoScript::small(seed);
    let dims = (script.width, script.height);
    for (i, a) in archetypes.iter().enumerate() {
        script.push_shot(a.to_spec(i as u32, 6, dims, &mut rng));
    }
    generate(&script).video
}

/// Two small analysed videos with different shapes (so splices mix two
/// genuinely different records).
fn sample_db() -> VideoDatabase {
    use ShotArchetype::*;
    let mut db = VideoDatabase::new();
    db.ingest(
        "première",
        &clip(1, &[TalkingHeadCloseUp, ActionPan, TalkingHeadCloseUp]),
        vec![GenreId(3)],
        vec![FormId(1)],
    )
    .unwrap();
    db.ingest(
        "second",
        &clip(2, &[StaticScenery, ActionPan]),
        vec![],
        vec![FormId(0), FormId(34)],
    )
    .unwrap();
    db
}

#[test]
fn stored_analysis_decode_survives_mutation() {
    let db = sample_db();
    let inputs: Vec<Vec<u8>> = (0..2).map(|id| db.analysis(id).unwrap().encode()).collect();
    sweep(0xA11A, &inputs, |bytes, prefix| {
        if let Ok(a) = StoredAnalysis::decode(bytes) {
            assert!(!prefix, "a strict prefix decoded");
            assert_eq!(a.encode(), bytes, "a record has one encoding");
            walk(&a);
        }
    });
}

#[test]
fn exported_video_decode_survives_mutation() {
    let db = sample_db();
    let inputs: Vec<Vec<u8>> = (0..2)
        .map(|id| ExportedVideo::from_db(&db, id).unwrap().encode())
        .collect();
    sweep(0xE1, &inputs, |bytes, prefix| {
        if let Ok(e) = ExportedVideo::decode(bytes) {
            assert!(!prefix, "a strict prefix decoded");
            assert_eq!(e.encode(), bytes, "a record has one encoding");
            walk(&e.analysis);
        }
    });
}

#[test]
fn video_meta_decode_survives_mutation() {
    let db = sample_db();
    let inputs: Vec<Vec<u8>> = db
        .catalog()
        .all()
        .iter()
        .map(|m| codec::to_bytes(*m))
        .collect();
    sweep(0x3E7A, &inputs, |bytes, prefix| {
        if let Ok(meta) = codec::from_bytes::<VideoMeta>(bytes) {
            assert!(!prefix, "a strict prefix decoded");
            assert_eq!(codec::to_bytes(&meta), bytes, "a row has one encoding");
        }
    });
}

/// A compacted journal (both videos' META and ANALYSIS records and the
/// index copy, as `save` writes them) with a tombstone appended.
fn sample_segment(db: &VideoDatabase) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("vdb-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("saved.vdbs");
    db.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes.extend(encode_record(TAG_REMOVE, &codec::to_bytes(&Varint(0))));
    bytes
}

/// Replay must refuse the segment or yield a database whose every video
/// passes the analysis checks and answers queries.
fn replay_checked(records: &[Record]) {
    if let Ok((db, _)) = VideoDatabase::replay(AnalyzerConfig::default(), records) {
        for meta in db.catalog().all() {
            walk(db.analysis(meta.id).unwrap());
        }
        db.query_str("ba=0 oa=0 alpha=1000 beta=1000").unwrap();
        db.stats();
    }
}

#[test]
fn journal_replay_survives_mutated_segments() {
    let db = sample_db();
    let whole = sample_segment(&db);
    let records = read_segment(&whole[..]).unwrap();
    assert_eq!(records.len(), 6, "2 META, 2 ANALYSIS, INDEX, REMOVE");
    let (full, _) = VideoDatabase::replay(AnalyzerConfig::default(), &records).unwrap();
    assert_eq!(full.len(), 1, "the tombstone holds");

    // Whole-file mutations: most land behind a checksum and cut the
    // replay short, which must still leave a consistent prefix.
    let other = {
        let mut b = MAGIC.to_vec();
        for r in records.iter().rev() {
            b.extend(encode_record(r.tag, &r.payload));
        }
        b
    };
    sweep(0x5E6, &[whole.clone(), other], |bytes, _| {
        if let Ok(records) = read_segment(bytes) {
            replay_checked(&records);
        }
    });

    // Record mutations behind a fresh checksum reach the payload
    // decoders through the replay itself.
    let mut m = Mutator(TestRng::new(0x5E7));
    for i in 0..CASES {
        let mut mutated = records.clone();
        let at = i % mutated.len();
        let other = &records[(i + 1) % records.len()].payload;
        if !mutated[at].payload.is_empty() {
            mutated[at].payload = m.mutate(&mutated[at].payload, other);
        }
        replay_checked(&mutated);
    }
}

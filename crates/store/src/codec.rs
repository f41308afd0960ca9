//! Compact binary encoding of the database's record types.
//!
//! A small hand-rolled codec with one integer rule: every length, count,
//! id, size and frame or node index is an unsigned LEB128 varint
//! ([`Varint`]) — seven value bits per byte, low group first, the high
//! bit set on every byte but the last — in its one canonical (shortest)
//! form. `f64` is 8 bytes little-endian, option and bool tags are one
//! byte, and a sign is its three RGB bytes. The fixed-width `u16`/`u32`/
//! `u64` impls remain for values that are none of the above (the index
//! format version and its row fingerprint). Every record the segment
//! store ([`crate::pages`]) and the transfer format
//! ([`crate::transfer`]) carry is built from these impls — the scene
//! tree and the catalog row included — so there is one format and one
//! checked decoder, which takes exactly one encoding of each value: a
//! record that decodes re-encodes to the same bytes. A scene tree is
//! stored as its nodes in arena order and rebuilt through
//! [`SceneTree::from_nodes`], which refuses any node list that is not a
//! well-formed tree; a shot list is stored as its shots' lengths.

use crate::catalog::{FormId, GenreId, VideoMeta};
use vdb_core::index::{IndexEntry, ShotKey};
use vdb_core::pixel::Rgb;
use vdb_core::scenetree::{SceneNode, SceneTree};
use vdb_core::shot::Shot;
use vdb_core::variance::ShotFeature;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the value was complete.
    UnexpectedEof,
    /// Structurally invalid data.
    Invalid(&'static str),
    /// Every field decoded, but the parts of the record disagree (a scene
    /// tree that is not a tree, shots that do not cover the frames, …).
    Inconsistent(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
            CodecError::Inconsistent(what) => write!(f, "inconsistent record: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Binary-encodable type.
pub trait Codec: Sized {
    /// Append the encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

/// Split the next `n` bytes off the front of `buf`.
#[inline]
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if buf.len() < n {
        return Err(CodecError::UnexpectedEof);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

macro_rules! scalar_codec {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
                let bytes = take(buf, std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized by take")))
            }
        }
    )*};
}

scalar_codec!(u8, u16, u32, u64, f64);

/// An unsigned integer in canonical LEB128: the store's encoding of every
/// id, length, count, size and index (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Varint(pub u64);

/// The longest LEB128 encoding of a `u64`.
const VARINT_MAX_LEN: usize = 10;

impl Varint {
    /// Decode a varint whose value must fit `T` (a `u16` or `u32` field,
    /// or a `usize`).
    pub(crate) fn decode_as<T: TryFrom<u64>>(buf: &mut &[u8]) -> Result<T, CodecError> {
        T::try_from(Varint::decode(buf)?.0).map_err(|_| CodecError::Invalid("varint out of range"))
    }
}

impl Codec for Varint {
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut v = self.0;
        while v >= 0x80 {
            buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }
    /// Refuses overlong forms (a zero last byte after the first), runs of
    /// more than 10 bytes and values past `u64::MAX`, so every value has
    /// one encoding. A failed read leaves `buf` as it was.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let mut v = 0u64;
        for (i, &byte) in buf.iter().enumerate().take(VARINT_MAX_LEN) {
            let group = u64::from(byte & 0x7f);
            if i == VARINT_MAX_LEN - 1 && byte > 1 {
                return Err(CodecError::Invalid(if byte & 0x80 != 0 {
                    "varint longer than 10 bytes"
                } else {
                    "varint overflows u64"
                }));
            }
            v |= group << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(CodecError::Invalid("overlong varint"));
                }
                *buf = &buf[i + 1..];
                return Ok(Varint(v));
            }
        }
        Err(CodecError::UnexpectedEof)
    }
}

impl Codec for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        Varint(*self as u64).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Varint::decode_as(buf)
    }
}

impl Codec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }
}

impl Codec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(buf)?;
        let bytes = take(buf, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("utf8"))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(buf)?;
        // Defensive cap: a corrupt length must not trigger a huge allocation.
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
}

impl Codec for Rgb {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let p = take(buf, 3)?;
        Ok(Rgb([p[0], p[1], p[2]]))
    }
}

/// Append a shot list as its count and per-shot lengths. Shot `i`'s id is
/// `i` and its start the sum of the lengths before it, so only a list
/// that partitions the frames from 0 in order can be stored — what
/// [`crate::db::StoredAnalysis`] requires of every analysis.
pub(crate) fn encode_shots(shots: &[Shot], buf: &mut Vec<u8>) {
    shots.len().encode(buf);
    let mut next = 0;
    for (i, shot) in shots.iter().enumerate() {
        // What `check_parts` requires; anything else has no encoding.
        assert!(
            shot.id == i && shot.start == next,
            "shot {i} breaks the partition of the frames"
        );
        next = shot.end + 1;
        shot.len().encode(buf);
    }
}

/// Decode a shot list written by [`encode_shots`]; a length of 0 (a shot
/// with no frames) is refused.
pub(crate) fn decode_shots(buf: &mut &[u8]) -> Result<Vec<Shot>, CodecError> {
    let count = usize::decode(buf)?;
    let mut shots = Vec::with_capacity(count.min(1 << 16));
    let mut start = 0usize;
    for id in 0..count {
        let len = usize::decode(buf)?;
        if len == 0 {
            return Err(CodecError::Invalid("empty shot"));
        }
        let next = start
            .checked_add(len)
            .ok_or(CodecError::Invalid("shot range"))?;
        shots.push(Shot {
            id,
            start,
            end: next - 1,
        });
        start = next;
    }
    Ok(shots)
}

impl Codec for ShotFeature {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.var_ba.encode(buf);
        self.var_oa.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(ShotFeature {
            var_ba: f64::decode(buf)?,
            var_oa: f64::decode(buf)?,
        })
    }
}

impl Codec for ShotKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        Varint(self.video).encode(buf);
        Varint(self.shot.into()).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(ShotKey {
            video: Varint::decode(buf)?.0,
            shot: Varint::decode_as(buf)?,
        })
    }
}

impl Codec for IndexEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.key.encode(buf);
        self.var_ba.encode(buf);
        self.var_oa.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(IndexEntry {
            key: ShotKey::decode(buf)?,
            var_ba: f64::decode(buf)?,
            var_oa: f64::decode(buf)?,
        })
    }
}

impl Codec for GenreId {
    fn encode(&self, buf: &mut Vec<u8>) {
        Varint(self.0.into()).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Varint::decode_as(buf).map(GenreId)
    }
}

impl Codec for FormId {
    fn encode(&self, buf: &mut Vec<u8>) {
        Varint(self.0.into()).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Varint::decode_as(buf).map(FormId)
    }
}

/// Frame dimensions `(width, height)`, one varint each.
pub(crate) fn encode_dims(dims: (u32, u32), buf: &mut Vec<u8>) {
    Varint(dims.0.into()).encode(buf);
    Varint(dims.1.into()).encode(buf);
}

/// Decode dimensions written by [`encode_dims`].
pub(crate) fn decode_dims(buf: &mut &[u8]) -> Result<(u32, u32), CodecError> {
    Ok((Varint::decode_as(buf)?, Varint::decode_as(buf)?))
}

impl Codec for VideoMeta {
    fn encode(&self, buf: &mut Vec<u8>) {
        Varint(self.id).encode(buf);
        self.name.encode(buf);
        self.genres.encode(buf);
        self.forms.encode(buf);
        self.frame_count.encode(buf);
        self.fps.encode(buf);
        encode_dims(self.dims, buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(VideoMeta {
            id: Varint::decode(buf)?.0,
            name: String::decode(buf)?,
            genres: Vec::decode(buf)?,
            forms: Vec::decode(buf)?,
            frame_count: usize::decode(buf)?,
            fps: f64::decode(buf)?,
            dims: decode_dims(buf)?,
        })
    }
}

/// A node without its `id`: the id is its position in the stored list.
impl Codec for SceneNode {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.parent.encode(buf);
        self.children.encode(buf);
        self.shot.encode(buf);
        self.name_shot.encode(buf);
        self.level.encode(buf);
        self.rep_frame.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(SceneNode {
            id: 0,
            parent: Option::decode(buf)?,
            children: Vec::decode(buf)?,
            shot: Option::decode(buf)?,
            name_shot: usize::decode(buf)?,
            level: usize::decode(buf)?,
            rep_frame: usize::decode(buf)?,
        })
    }
}

/// The nodes in arena order; the root and the shot → leaf map are derived
/// again on decode, by [`SceneTree::from_nodes`].
impl Codec for SceneTree {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        for node in self.nodes() {
            node.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        SceneTree::from_nodes(Vec::decode(buf)?).map_err(CodecError::Inconsistent)
    }
}

/// Encode a value to a fresh byte vector.
pub fn to_bytes<T: Codec>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decode a value, requiring the buffer to be fully consumed.
pub fn from_bytes<T: Codec>(mut buf: &[u8]) -> Result<T, CodecError> {
    let v = T::decode(&mut buf)?;
    if !buf.is_empty() {
        return Err(CodecError::Invalid("trailing bytes"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{FORM_COUNT, GENRE_COUNT};
    use proptest::prelude::*;
    use vdb_core::analyzer::AnalyzerConfig;
    use vdb_core::pipeline::AnalysisEngine;
    use vdb_core::scenetree::build_scene_tree;
    use vdb_synth::script::generate;
    use vdb_synth::{build_script, Genre};

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(std::f64::consts::PI);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX);
    }

    #[test]
    fn strings_and_containers() {
        roundtrip(String::from("Wag the Dog"));
        roundtrip(String::new());
        roundtrip(String::from("ünïcödé 日本語"));
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![Some(String::from("a")), None]);
    }

    #[test]
    fn domain_types_roundtrip() {
        roundtrip(Rgb::new(1, 2, 3));
        let shots: Vec<Shot> = [(0, 99), (100, 175), (176, 176)]
            .into_iter()
            .enumerate()
            .map(|(id, (start, end))| Shot { id, start, end })
            .collect();
        let mut bytes = Vec::new();
        encode_shots(&shots, &mut bytes);
        assert_eq!(bytes, [3, 100, 76, 1], "a count, then one length per shot");
        assert_eq!(decode_shots(&mut &bytes[..]), Ok(shots));
        roundtrip(ShotFeature {
            var_ba: 17.37,
            var_oa: 2.25,
        });
        roundtrip(ShotKey { video: 9, shot: 12 });
        roundtrip(IndexEntry {
            key: ShotKey { video: 1, shot: 2 },
            var_ba: 9.37,
            var_oa: 0.5,
        });
        roundtrip(vec![Rgb::new(9, 9, 9); 100]);
    }

    /// The Figs. 5–6 worked example: ten shots A B A1 B1 C A2 C1 D D1 D2
    /// as `(label, length)`, one constant sign per shot.
    const FIGURE6: [(u8, usize); 10] = [
        (0, 20),
        (1, 10),
        (0, 9),
        (1, 8),
        (2, 12),
        (0, 7),
        (2, 13),
        (3, 11),
        (3, 6),
        (3, 5),
    ];

    /// The example's shots and per-frame signs.
    fn figure6() -> (Vec<Shot>, Vec<Rgb>) {
        let mut shots = Vec::new();
        let mut signs = Vec::new();
        for (id, &(label, len)) in FIGURE6.iter().enumerate() {
            let start = signs.len();
            shots.push(Shot {
                id,
                start,
                end: start + len - 1,
            });
            signs.extend(std::iter::repeat(Rgb::gray(label * 40)).take(len));
        }
        (shots, signs)
    }

    /// The example and every tree the pipeline builds over the synthetic
    /// genres × seeds come back from the codec unchanged.
    #[test]
    fn scene_trees_roundtrip() {
        let (shots, signs) = figure6();
        let figure6 = build_scene_tree(&shots, &signs);
        assert_eq!(figure6.node(figure6.root()).name(), "SN_1^3");
        roundtrip(figure6);

        let mut engine = AnalysisEngine::new(AnalyzerConfig::default());
        for &genre in Genre::all() {
            for seed in 0..3 {
                let clip = generate(&build_script(genre, 8, Some(6.0), (64, 48), seed));
                roundtrip(engine.analyze(&clip.video).unwrap().scene_tree);
            }
        }
    }

    /// Catalog rows: non-ASCII names, empty and full genre/form lists,
    /// and `fps` bit-exact (NaN included).
    #[test]
    fn video_meta_roundtrip() {
        let every_genre: Vec<GenreId> = (0..GENRE_COUNT as u16).map(GenreId).collect();
        let every_form: Vec<FormId> = (0..FORM_COUNT as u16).map(FormId).collect();
        let rows = [
            (
                "Dr. Zhivago",
                vec![GenreId(0), GenreId(4)],
                vec![FormId(3)],
                3.0,
            ),
            ("Ünïcödé 日本語 🎬", vec![], vec![], 29.97),
            ("", every_genre, every_form, 1.0 / 3.0),
            ("tiny", vec![GenreId(132)], vec![], f64::MIN_POSITIVE),
            ("nan", vec![], vec![FormId(34)], f64::NAN),
        ];
        for (id, (name, genres, forms, fps)) in rows.into_iter().enumerate() {
            let meta = VideoMeta {
                id: id as u64 * 0x1_0000_0001,
                name: name.into(),
                genres,
                forms,
                frame_count: 4_321,
                fps,
                dims: (160, 120),
            };
            let back: VideoMeta = from_bytes(&to_bytes(&meta)).unwrap();
            assert_eq!(back.fps.to_bits(), fps.to_bits(), "{name}");
            assert_eq!(
                VideoMeta { fps: 0.0, ..back },
                VideoMeta { fps: 0.0, ..meta }
            );
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        crate::transfer::from_hex(&hex.split_whitespace().collect::<String>()).unwrap()
    }

    /// The record format, pinned byte for byte: the Figs. 5–6 analysis
    /// (the signs are raw RGB triples, rebuilt here; every other byte is
    /// a checked-in literal) and one catalog row. A layout change fails
    /// here before it moves the journal's bytes per frame.
    #[test]
    fn record_layout_is_pinned() {
        use crate::db::StoredAnalysis;
        use vdb_core::sbd::SbdStats;
        let (shots, signs) = figure6();
        let analysis = StoredAnalysis {
            video: 300,
            features: FIGURE6
                .iter()
                .map(|&(label, len)| ShotFeature {
                    var_ba: f64::from(label),
                    var_oa: len as f64,
                })
                .collect(),
            signs_oa: signs.iter().map(|s| Rgb([s.0[0], 7, 9])).collect(),
            scene_tree: build_scene_tree(&shots, &signs),
            signs_ba: signs,
            shots,
            stats: SbdStats {
                pairs: 100,
                stage1_same: 88,
                stage2_same: 2,
                stage3_same: 1,
                boundaries: 9,
            },
        };
        let raw_signs = |oa: bool| -> Vec<u8> {
            let mut out = vec![101];
            for &(label, len) in &FIGURE6 {
                let g = label * 40;
                let px = if oa { [g, 7, 9] } else { [g, g, g] };
                out.extend(px.iter().cycle().take(3 * len));
            }
            out
        };
        // video 300; 10 shots as lengths; 10 × (Var^BA, Var^OA) as f64.
        let head = unhex(
            "ac02 0a 140a09080c070d0b0605 0a
             0000000000000000 0000000000003440  000000000000f03f 0000000000002440
             0000000000000000 0000000000002240  000000000000f03f 0000000000002040
             0000000000000040 0000000000002840  0000000000000000 0000000000001c40
             0000000000000040 0000000000002a40  0000000000000840 0000000000002640
             0000000000000840 0000000000001840  0000000000000840 0000000000001440",
        );
        // 15 nodes in arena order, one a line: parent (option tag +
        // varint), children (count + varints), shot, name_shot, level,
        // rep_frame. Then the five cascade counters.
        let tail = unhex(
            "0f
             010a 00 0100 00 00 00
             010a 00 0101 01 00 14
             010a 00 0102 02 00 1e
             010a 00 0103 03 00 27
             010b 00 0104 04 00 2f
             010b 00 0105 05 00 3b
             010b 00 0106 06 00 42
             010d 00 0107 07 00 4f
             010d 00 0108 08 00 5a
             010d 00 0109 09 00 60
             010c 0400010203 00 00 01 00
             010c 03040506 00 06 01 42
             010e 020a0b 00 00 02 00
             010e 03070809 00 07 01 4f
             00 020c0d 00 00 03 00
             64 58 02 01 09",
        );
        let expected = [head, raw_signs(false), raw_signs(true), tail].concat();
        let bytes = analysis.encode();
        assert_eq!(bytes.len(), 916);
        assert_eq!(bytes, expected);
        assert_eq!(StoredAnalysis::decode(&bytes).unwrap(), analysis);

        let meta = VideoMeta {
            id: 300,
            name: "Figure 6".into(),
            genres: vec![GenreId(3), GenreId(132)],
            forms: vec![FormId(34)],
            frame_count: 101,
            fps: 25.0,
            dims: (160, 120),
        };
        let row = unhex("ac02 08 4669677572652036 02 03 8401 01 22 65 0000000000003940 a001 78");
        assert_eq!(to_bytes(&meta), row);
        assert_eq!(from_bytes::<VideoMeta>(&row), Ok(meta));
    }

    #[test]
    fn eof_detected() {
        let bytes = to_bytes(&Varint(0xffff_ffff));
        assert_eq!(bytes.len(), 5);
        for cut in 0..bytes.len() {
            assert_eq!(
                from_bytes::<Varint>(&bytes[..cut]),
                Err(CodecError::UnexpectedEof),
                "cut {cut}"
            );
        }
        assert_eq!(
            from_bytes::<u32>(&0xffff_ffffu32.to_le_bytes()[..2]),
            Err(CodecError::UnexpectedEof)
        );
    }

    /// Canonical LEB128 at every width, and the four inputs the decoder
    /// refuses so that each value has exactly one encoding.
    #[test]
    fn varints_are_canonical() {
        for (v, hex) in [
            (0u64, "00"),
            (1, "01"),
            (127, "7f"),
            (128, "8001"),
            (300, "ac02"),
            (16_383, "ff7f"),
            (16_384, "808001"),
            (u64::from(u32::MAX), "ffffffff0f"),
            (u64::MAX, "ffffffffffffffffff01"),
        ] {
            let bytes = to_bytes(&Varint(v));
            assert_eq!(crate::transfer::to_hex(&bytes), hex, "{v}");
            assert_eq!(from_bytes::<Varint>(&bytes), Ok(Varint(v)));
        }
        for (bytes, why) in [
            (&[0x80, 0x00][..], "overlong varint"),
            (&[0xff, 0x80, 0x00][..], "overlong varint"),
            (&[0x80; 10][..], "varint longer than 10 bytes"),
            (
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02][..],
                "varint overflows u64",
            ),
        ] {
            assert_eq!(
                from_bytes::<Varint>(bytes),
                Err(CodecError::Invalid(why)),
                "{bytes:?}"
            );
        }
        let past_u32 = to_bytes(&Varint(1 << 32));
        assert_eq!(
            from_bytes::<ShotKey>(&[&[0][..], &past_u32].concat()),
            Err(CodecError::Invalid("varint out of range"))
        );
        assert_eq!(
            from_bytes::<GenreId>(&to_bytes(&Varint(1 << 16))),
            Err(CodecError::Invalid("varint out of range"))
        );
        // A failed read leaves the cursor where it was.
        let mut r: &[u8] = &[0x80, 0x80];
        assert_eq!(Varint::decode(&mut r), Err(CodecError::UnexpectedEof));
        assert_eq!(r, [0x80, 0x80]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert_eq!(
            from_bytes::<u32>(&bytes),
            Err(CodecError::Invalid("trailing bytes"))
        );
    }

    #[test]
    fn invalid_bool_and_option_tags() {
        assert_eq!(from_bytes::<bool>(&[2]), Err(CodecError::Invalid("bool")));
        assert_eq!(
            from_bytes::<Option<u8>>(&[7, 0]),
            Err(CodecError::Invalid("option tag"))
        );
    }

    /// A shot is stored as its length, so the one malformed shot is an
    /// empty one: a length of 0 is refused, as is a list whose running
    /// end passes `usize::MAX`.
    #[test]
    fn invalid_shot_range_rejected() {
        assert_eq!(
            decode_shots(&mut &[2, 5, 0][..]),
            Err(CodecError::Invalid("empty shot"))
        );
        let mut huge = to_bytes(&2usize);
        usize::MAX.encode(&mut huge);
        1usize.encode(&mut huge);
        assert_eq!(
            decode_shots(&mut &huge[..]),
            Err(CodecError::Invalid("shot range"))
        );
    }

    #[test]
    fn corrupt_length_does_not_overallocate() {
        // A Vec or shot list claiming u64::MAX elements (a 10-byte
        // varint) must fail with EOF, not OOM.
        let bytes = to_bytes(&Varint(u64::MAX));
        assert_eq!(bytes.len(), 10);
        assert_eq!(
            from_bytes::<Vec<u8>>(&bytes),
            Err(CodecError::UnexpectedEof)
        );
        assert_eq!(
            decode_shots(&mut &bytes[..]),
            Err(CodecError::UnexpectedEof)
        );
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v in any::<u64>()) {
            roundtrip(v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".{0,64}") {
            roundtrip(s);
        }

        #[test]
        fn prop_f64_roundtrip(v in any::<f64>()) {
            let bytes = to_bytes(&v);
            let back: f64 = from_bytes(&bytes).unwrap();
            prop_assert!(back == v || (back.is_nan() && v.is_nan()));
        }

        #[test]
        fn prop_entries_roundtrip(
            entries in prop::collection::vec(
                (any::<u64>(), any::<u32>(), 0.0f64..1e6, 0.0f64..1e6),
                0..32,
            )
        ) {
            let v: Vec<IndexEntry> = entries
                .into_iter()
                .map(|(video, shot, ba, oa)| IndexEntry {
                    key: ShotKey { video, shot },
                    var_ba: ba,
                    var_oa: oa,
                })
                .collect();
            let bytes = to_bytes(&v);
            let back: Vec<IndexEntry> = from_bytes(&bytes).unwrap();
            prop_assert_eq!(back.len(), v.len());
            for (a, b) in back.iter().zip(&v) {
                prop_assert_eq!(a.key, b.key);
                prop_assert_eq!(a.var_ba, b.var_ba);
            }
        }

        #[test]
        fn prop_random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
            // Decoding garbage may fail but must never panic.
            let _ = from_bytes::<Vec<IndexEntry>>(&bytes);
            let _ = decode_shots(&mut &bytes[..]);
            let _ = from_bytes::<String>(&bytes);
            let _ = from_bytes::<Vec<Rgb>>(&bytes);
            let _ = from_bytes::<SceneTree>(&bytes);
            let _ = from_bytes::<VideoMeta>(&bytes);
        }
    }
}

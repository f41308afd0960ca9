//! Compact binary encoding of the database's record types.
//!
//! A small hand-rolled codec: little-endian fixed-width scalars,
//! length-prefixed containers. Used by the segment store
//! ([`crate::pages`]) for everything except the scene tree, which is stored
//! as a JSON blob (its recursive structure changes most often during
//! development, and JSON keeps old store files inspectable).

use vdb_core::index::{IndexEntry, ShotKey};
use vdb_core::pixel::Rgb;
use vdb_core::shot::Shot;
use vdb_core::variance::ShotFeature;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the value was complete.
    UnexpectedEof,
    /// Structurally invalid data.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
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

impl Codec for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let v = u64::decode(buf)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid("usize overflow"))
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

impl Codec for Shot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.start.encode(buf);
        self.end.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let id = usize::decode(buf)?;
        let start = usize::decode(buf)?;
        let end = usize::decode(buf)?;
        if end < start {
            return Err(CodecError::Invalid("shot range"));
        }
        Ok(Shot { id, start, end })
    }
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
        self.video.encode(buf);
        self.shot.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(ShotKey {
            video: u64::decode(buf)?,
            shot: u32::decode(buf)?,
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
    use proptest::prelude::*;

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
        roundtrip(Shot {
            id: 3,
            start: 100,
            end: 175,
        });
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

    #[test]
    fn eof_detected() {
        let bytes = to_bytes(&0xffff_ffffu32);
        assert_eq!(from_bytes::<u64>(&bytes), Err(CodecError::UnexpectedEof));
        assert_eq!(
            from_bytes::<u32>(&bytes[..2]),
            Err(CodecError::UnexpectedEof)
        );
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

    #[test]
    fn invalid_shot_range_rejected() {
        let bad = Shot {
            id: 0,
            start: 10,
            end: 10,
        };
        let mut bytes = to_bytes(&bad);
        // Corrupt: end < start.
        let start_pos = 8; // after id (8 bytes)
        bytes[start_pos] = 99;
        assert!(matches!(
            from_bytes::<Shot>(&bytes),
            Err(CodecError::Invalid("shot range"))
        ));
    }

    #[test]
    fn corrupt_length_does_not_overallocate() {
        // A Vec claiming usize::MAX elements must fail with EOF, not OOM.
        let bytes = to_bytes(&u64::MAX);
        assert_eq!(
            from_bytes::<Vec<u8>>(&bytes),
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
            let _ = from_bytes::<Shot>(&bytes);
            let _ = from_bytes::<String>(&bytes);
            let _ = from_bytes::<Vec<Rgb>>(&bytes);
        }
    }
}

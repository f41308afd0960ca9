//! Append-only segment storage: the database's persistence substrate.
//!
//! A *segment* is a flat byte stream of checksummed, tagged records:
//!
//! ```text
//! magic "VDBS3\0"
//! repeat: [tag: u8] [len: u32 LE] [payload: len bytes] [checksum: u32 LE]
//! ```
//!
//! The checksum is FNV-1a over tag, length, and payload, so torn or
//! corrupted tails are detected on read; a read stops cleanly at the first
//! bad record (the classic crash-recovery contract of an append-only log).
//! This framing is the one fixed-width part of a segment.
//!
//! Every payload is [`crate::codec`] binary. The digit in the magic is the
//! format version, and it changes whenever a payload's layout does:
//! `VDBS1` segments stored the scene tree and catalog rows as JSON,
//! `VDBS2` stored ids, lengths and indexes as 8-byte words, and `VDBS3`
//! stores them as varints. A segment of any version but this build's is
//! refused, before anything is read or truncated, with an error naming
//! both versions ([`SegmentError::Version`]).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes at the start of every segment.
pub const MAGIC: &[u8; 6] = b"VDBS3\0";

/// One tagged record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record type tag (the database assigns meanings).
    pub tag: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Errors of the segment layer.
#[derive(Debug)]
pub enum SegmentError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with a segment magic.
    BadMagic,
    /// The file is a segment of another format version (its magic, e.g.
    /// `VDBS1`).
    Version(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment I/O error: {e}"),
            SegmentError::BadMagic => write!(f, "not a VDBS segment (bad magic)"),
            SegmentError::Version(found) => write!(
                f,
                "segment format {found} is not supported (this build reads {})",
                magic_name(MAGIC)
            ),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<io::Error> for SegmentError {
    fn from(e: io::Error) -> Self {
        SegmentError::Io(e)
    }
}

/// The printable part of a segment magic (`VDBS3` for `b"VDBS3\0"`).
fn magic_name(magic: &[u8]) -> String {
    String::from_utf8_lossy(magic.strip_suffix(b"\0").unwrap_or(magic)).into_owned()
}

fn fnv1a(parts: &[&[u8]]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for part in parts {
        for &b in *part {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

pub(crate) fn record_checksum(tag: u8, payload: &[u8]) -> u32 {
    let len = (payload.len() as u32).to_le_bytes();
    fnv1a(&[&[tag], &len, payload])
}

/// Streaming writer of a segment.
pub struct SegmentWriter<W: Write> {
    out: W,
}

impl SegmentWriter<BufWriter<File>> {
    /// Create (truncate) a segment file.
    pub fn create(path: &Path) -> Result<Self, SegmentError> {
        let file = File::create(path)?;
        Self::new(BufWriter::new(file))
    }
}

impl<W: Write> SegmentWriter<W> {
    /// Start a segment on any writer (writes the magic immediately).
    pub fn new(mut out: W) -> Result<Self, SegmentError> {
        out.write_all(MAGIC)?;
        Ok(SegmentWriter { out })
    }

    /// Append one record.
    pub fn append(&mut self, tag: u8, payload: &[u8]) -> Result<(), SegmentError> {
        self.out.write_all(&[tag])?;
        self.out.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.out.write_all(payload)?;
        self.out
            .write_all(&record_checksum(tag, payload).to_le_bytes())?;
        let obs = crate::obs::pages();
        obs.records_written.incr();
        obs.bytes_written.add(1 + 4 + payload.len() as u64 + 4);
        Ok(())
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W, SegmentError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Read every valid record of a segment; stops silently at a torn or
/// corrupt tail (returns what was durably written before it).
pub fn read_segment<R: Read>(mut input: R) -> Result<Vec<Record>, SegmentError> {
    let mut magic = [0u8; 6];
    if input.read_exact(&mut magic).is_err() {
        return Err(SegmentError::BadMagic);
    }
    if &magic != MAGIC {
        return Err(if magic.starts_with(b"VDBS") {
            SegmentError::Version(magic_name(&magic))
        } else {
            SegmentError::BadMagic
        });
    }
    let mut records = Vec::new();
    loop {
        let mut head = [0u8; 5];
        match read_exact_or_eof(&mut input, &mut head) {
            ReadOutcome::Eof => break,
            ReadOutcome::Partial => break, // torn header
            ReadOutcome::Full => {}
        }
        let tag = head[0];
        let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
        let mut payload = vec![0u8; len];
        if !matches!(
            read_exact_or_eof(&mut input, &mut payload),
            ReadOutcome::Full
        ) {
            break; // torn payload
        }
        let mut check = [0u8; 4];
        if !matches!(read_exact_or_eof(&mut input, &mut check), ReadOutcome::Full) {
            break; // torn checksum
        }
        if u32::from_le_bytes(check) != record_checksum(tag, &payload) {
            break; // corrupt record: stop at the last good prefix
        }
        let obs = crate::obs::pages();
        obs.records_read.incr();
        obs.bytes_read.add(payload.len() as u64);
        records.push(Record { tag, payload });
    }
    Ok(records)
}

/// Read a whole segment file.
pub fn read_segment_file(path: &Path) -> Result<Vec<Record>, SegmentError> {
    let file = File::open(path)?;
    read_segment(BufReader::new(file))
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

fn read_exact_or_eof<R: Read>(input: &mut R, buf: &mut [u8]) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                }
            }
            Ok(n) => filled += n,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Partial,
        }
    }
    ReadOutcome::Full
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_to_vec(records: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut w = SegmentWriter::new(Vec::new()).unwrap();
        for (tag, payload) in records {
            w.append(*tag, payload).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_in_memory() {
        let recs = vec![
            (1u8, b"hello".to_vec()),
            (2u8, vec![]),
            (7u8, vec![0u8; 1000]),
        ];
        let bytes = write_to_vec(&recs);
        let back = read_segment(&bytes[..]).unwrap();
        assert_eq!(back.len(), 3);
        for ((tag, payload), rec) in recs.iter().zip(&back) {
            assert_eq!(rec.tag, *tag);
            assert_eq!(&rec.payload, payload);
        }
    }

    #[test]
    fn empty_segment() {
        let bytes = write_to_vec(&[]);
        assert_eq!(read_segment(&bytes[..]).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            read_segment(&b"NOTDB1"[..]),
            Err(SegmentError::BadMagic)
        ));
        assert!(matches!(
            read_segment(&b""[..]),
            Err(SegmentError::BadMagic)
        ));
    }

    #[test]
    fn torn_tail_returns_prefix() {
        let bytes = write_to_vec(&[(1, b"first".to_vec()), (2, b"second".to_vec())]);
        // Cut the file mid-way through the second record.
        let cut = bytes.len() - 5;
        let back = read_segment(&bytes[..cut]).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].payload, b"first");
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut bytes = write_to_vec(&[(1, b"first".to_vec()), (2, b"second".to_vec())]);
        // Flip a byte inside the *second* record's payload.
        let pos = bytes.len() - 6;
        bytes[pos] ^= 0xff;
        let back = read_segment(&bytes[..]).unwrap();
        assert_eq!(back.len(), 1, "corruption must stop the scan");
    }

    #[test]
    fn corrupt_first_record_yields_nothing() {
        let mut bytes = write_to_vec(&[(1, b"data".to_vec())]);
        bytes[8] ^= 0x01; // inside first payload
        assert_eq!(read_segment(&bytes[..]).unwrap().len(), 0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("vdbs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.vdbs");
        {
            let mut w = SegmentWriter::create(&path).unwrap();
            w.append(9, b"persisted").unwrap();
            w.finish().unwrap();
        }
        let back = read_segment_file(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].tag, 9);
        assert_eq!(back[0].payload, b"persisted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_covers_tag() {
        let mut bytes = write_to_vec(&[(1, b"x".to_vec())]);
        bytes[6] = 2; // change the tag byte after magic
        assert_eq!(read_segment(&bytes[..]).unwrap().len(), 0);
    }

    #[test]
    fn large_record_roundtrip() {
        let big = vec![0xabu8; 1 << 20];
        let bytes = write_to_vec(&[(3, big.clone())]);
        let back = read_segment(&bytes[..]).unwrap();
        assert_eq!(back[0].payload, big);
    }
}

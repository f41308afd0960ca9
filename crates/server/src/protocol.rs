//! The wire protocol: length-prefixed frames with a one-byte status.
//!
//! Every message in either direction is one *frame*:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes]
//! ```
//!
//! A request payload is a UTF-8 command line (the same syntax as the
//! `vdbsh` REPL — see [`vdb_store::shell`]) **or** a binary streaming
//! message (see below). A response payload is a status byte (`+` ok, `-`
//! error) followed by UTF-8 text. Frames larger than the receiver's
//! configured maximum are a protocol violation: the receiver reports an
//! error and closes the connection, because the byte stream cannot be
//! resynchronized without trusting the bogus length.
//!
//! # Streaming-ingest messages
//!
//! A request payload whose first byte is [`STREAM_MAGIC`] (`0xF5` — an
//! invalid UTF-8 lead byte, so it can never collide with a command line)
//! is a binary [`StreamRequest`]:
//!
//! ```text
//! [0xF5] [op: u8] [session: u32 LE] [seq: u32 LE] [body...]
//! ```
//!
//! * `OPEN` (op 1): body is `[width: u32][height: u32][fps_milli: u32]`
//!   followed by the UTF-8 video name; `session`/`seq` are zero. The ok
//!   response text is `session=<id> credits=<window>` — the server grants
//!   a fixed window of in-flight frames (credit-based flow control).
//! * `FRAME` (op 2): body is exactly `width*height*3` bytes of raw RGB24.
//!   `seq` starts at 0 and increments by one per frame. The ok response
//!   (`seq=<n> credits=<free>`) is the credit grant: a client may have at
//!   most `window` unacknowledged frames outstanding.
//! * `COMMIT` (op 3): close the session and make the video durable. The
//!   ok response is `video=<id> shots=<k> frames=<n> durable=<bool>`,
//!   sent only after the journal write barrier.
//! * `ABORT` (op 4): discard the session.
//!
//! Stream errors (bad sequence, wrong body size, dimension mismatch) are
//! ordinary `-` responses that *poison the session*, not the connection —
//! the same TCP connection can keep serving commands and other sessions.

use std::io::{self, IoSlice, Read, Write};

/// Default upper bound on a frame payload (1 MiB). Command lines and
/// rendered scene trees are orders of magnitude smaller; anything bigger
/// is a corrupt or hostile length prefix.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Response status byte for success.
pub const STATUS_OK: u8 = b'+';
/// Response status byte for an error.
pub const STATUS_ERR: u8 = b'-';

/// First payload byte of a binary streaming-ingest message. `0xF5` is an
/// invalid UTF-8 lead byte, so stream messages can never be confused with
/// text command lines.
pub const STREAM_MAGIC: u8 = 0xF5;

/// Bytes of framing before a stream message's body (magic, op, session,
/// seq). An RGB24 frame message is exactly `STREAM_HEADER + w*h*3` bytes
/// of payload.
pub const STREAM_HEADER: usize = 1 + 1 + 4 + 4;

const OP_OPEN: u8 = 1;
const OP_FRAME: u8 = 2;
const OP_COMMIT: u8 = 3;
const OP_ABORT: u8 = 4;

/// A decoded streaming-ingest request (see the module docs for the wire
/// layout and response texts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamRequest<'a> {
    /// Open a session: declare the video's name, dimensions, and frame
    /// rate (millifps — 30_000 = 30 fps).
    Open {
        /// Video name for the catalog row.
        name: &'a str,
        /// Frame width in pixels.
        width: u32,
        /// Frame height in pixels.
        height: u32,
        /// Frame rate in millihertz (fps × 1000).
        fps_milli: u32,
    },
    /// Push one raw RGB24 frame into an open session.
    Frame {
        /// The session id from the open response.
        session: u32,
        /// Zero-based frame sequence number.
        seq: u32,
        /// Exactly `width*height*3` bytes, row-major RGB.
        data: &'a [u8],
    },
    /// Finalize the session's analysis and commit the video durably.
    Commit {
        /// The session id.
        session: u32,
    },
    /// Discard the session without committing.
    Abort {
        /// The session id.
        session: u32,
    },
}

/// Whether a request payload is a binary stream message (as opposed to a
/// UTF-8 command line).
pub fn is_stream_request(payload: &[u8]) -> bool {
    payload.first() == Some(&STREAM_MAGIC)
}

/// Encode a stream request into a frame payload.
pub fn encode_stream_request(req: &StreamRequest<'_>) -> Vec<u8> {
    let (op, session, seq, body_len) = match req {
        StreamRequest::Open { name, .. } => (OP_OPEN, 0, 0, 12 + name.len()),
        StreamRequest::Frame {
            session, seq, data, ..
        } => (OP_FRAME, *session, *seq, data.len()),
        StreamRequest::Commit { session } => (OP_COMMIT, *session, 0, 0),
        StreamRequest::Abort { session } => (OP_ABORT, *session, 0, 0),
    };
    let mut out = Vec::with_capacity(STREAM_HEADER + body_len);
    out.push(STREAM_MAGIC);
    out.push(op);
    out.extend_from_slice(&session.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    match req {
        StreamRequest::Open {
            name,
            width,
            height,
            fps_milli,
        } => {
            out.extend_from_slice(&width.to_le_bytes());
            out.extend_from_slice(&height.to_le_bytes());
            out.extend_from_slice(&fps_milli.to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        StreamRequest::Frame { data, .. } => out.extend_from_slice(data),
        StreamRequest::Commit { .. } | StreamRequest::Abort { .. } => {}
    }
    out
}

/// Decode a stream request from a frame payload (which must start with
/// [`STREAM_MAGIC`] — check [`is_stream_request`] first).
pub fn decode_stream_request(payload: &[u8]) -> Result<StreamRequest<'_>, FrameError> {
    if payload.len() < STREAM_HEADER || payload[0] != STREAM_MAGIC {
        return Err(FrameError::Malformed("truncated stream message"));
    }
    let op = payload[1];
    let session = u32::from_le_bytes(payload[2..6].try_into().unwrap());
    let seq = u32::from_le_bytes(payload[6..10].try_into().unwrap());
    let body = &payload[STREAM_HEADER..];
    match op {
        OP_OPEN => {
            if body.len() < 12 {
                return Err(FrameError::Malformed("stream open body too short"));
            }
            let width = u32::from_le_bytes(body[0..4].try_into().unwrap());
            let height = u32::from_le_bytes(body[4..8].try_into().unwrap());
            let fps_milli = u32::from_le_bytes(body[8..12].try_into().unwrap());
            let name = std::str::from_utf8(&body[12..])
                .map_err(|_| FrameError::Malformed("stream name is not UTF-8"))?;
            if name.is_empty() {
                return Err(FrameError::Malformed("stream name is empty"));
            }
            Ok(StreamRequest::Open {
                name,
                width,
                height,
                fps_milli,
            })
        }
        OP_FRAME => Ok(StreamRequest::Frame {
            session,
            seq,
            data: body,
        }),
        OP_COMMIT => Ok(StreamRequest::Commit { session }),
        OP_ABORT => Ok(StreamRequest::Abort { session }),
        _ => Err(FrameError::Malformed("unknown stream opcode")),
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Whether the command succeeded.
    pub ok: bool,
    /// The command output (or error message).
    pub text: String,
}

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The declared payload length exceeds the receiver's maximum.
    TooLarge {
        /// The declared payload length.
        declared: u32,
        /// The receiver's limit.
        max: usize,
    },
    /// The peer closed the stream mid-frame.
    Torn,
    /// The payload was not a valid message (e.g. an empty response).
    Malformed(&'static str),
    /// Underlying socket error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte limit")
            }
            FrameError::Torn => write!(f, "connection closed mid-frame"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write `head` then `body` with one vectored write, looping only on a
/// short write. On a `TCP_NODELAY` socket two `write`s are two segments
/// and two wake-ups of the peer; one `writev` is one of each.
fn write_all_pair<W: Write>(w: &mut W, head: &[u8], body: &[u8]) -> io::Result<()> {
    let total = head.len() + body.len();
    let mut sent = 0;
    while sent < total {
        let wrote = if sent < head.len() {
            w.write_vectored(&[IoSlice::new(&head[sent..]), IoSlice::new(body)])
        } else {
            w.write(&body[sent - head.len()..])
        };
        match wrote {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write one frame (length prefix + payload) in a single write.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    write_all_pair(w, &(payload.len() as u32).to_le_bytes(), payload)?;
    w.flush()
}

/// Write one `FRAME` stream message — length prefix, stream header, then
/// `data` straight from the caller's buffer — in a single write. The
/// bytes are exactly `write_frame(encode_stream_request(Frame { .. }))`
/// without assembling the payload first.
pub fn write_stream_frame<W: Write>(
    w: &mut W,
    session: u32,
    seq: u32,
    data: &[u8],
) -> io::Result<()> {
    let mut head = [0u8; 4 + STREAM_HEADER];
    head[0..4].copy_from_slice(&((STREAM_HEADER + data.len()) as u32).to_le_bytes());
    head[4] = STREAM_MAGIC;
    head[5] = OP_FRAME;
    head[6..10].copy_from_slice(&session.to_le_bytes());
    head[10..14].copy_from_slice(&seq.to_le_bytes());
    write_all_pair(w, &head, data)?;
    w.flush()
}

/// Encode a response payload.
pub fn encode_response(ok: bool, text: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + text.len());
    payload.push(if ok { STATUS_OK } else { STATUS_ERR });
    payload.extend_from_slice(text.as_bytes());
    payload
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, FrameError> {
    let (&status, text) = payload
        .split_first()
        .ok_or(FrameError::Malformed("empty response"))?;
    let ok = match status {
        STATUS_OK => true,
        STATUS_ERR => false,
        _ => return Err(FrameError::Malformed("bad status byte")),
    };
    let text = std::str::from_utf8(text)
        .map_err(|_| FrameError::Malformed("response is not UTF-8"))?
        .to_string();
    Ok(Response { ok, text })
}

/// Read one frame, blocking until it is complete. Returns `Ok(None)` on a
/// clean end-of-stream at a frame boundary. (The server uses its own
/// deadline-aware reader; this one serves clients, which wait on exactly
/// one in-flight response.)
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Torn)
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let declared = u32::from_le_bytes(header);
    if declared as usize > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut payload = vec![0u8; declared as usize];
    let mut filled = 0;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Torn),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"stats").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"stats");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF");
    }

    /// A sink that takes at most `per_call` bytes per `write*` call and
    /// counts the calls, to force (and count) short writes.
    struct Trickle {
        per_call: usize,
        out: Vec<u8>,
        calls: usize,
    }

    impl Trickle {
        fn new(per_call: usize) -> Self {
            Trickle {
                per_call,
                out: Vec::new(),
                calls: 0,
            }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.per_call;
            for buf in bufs {
                let n = room.min(buf.len());
                self.out.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.per_call - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The vectored writers emit exactly `len ‖ payload` however short
    /// the sink's writes are, and a sink that takes everything sees one
    /// call per message.
    #[test]
    fn vectored_writes_survive_short_writes_byte_identically() {
        let data: Vec<u8> = (0..9_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let payload = encode_stream_request(&StreamRequest::Frame {
            session: 0x0102_0304,
            seq: 0x0a0b_0c0d,
            data: &data,
        });
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&payload);

        for per_call in [1, 7, 4096, usize::MAX] {
            let mut plain = Trickle::new(per_call);
            write_frame(&mut plain, &payload).unwrap();
            assert_eq!(plain.out, expected, "write_frame at {per_call} bytes/call");

            let mut streamed = Trickle::new(per_call);
            write_stream_frame(&mut streamed, 0x0102_0304, 0x0a0b_0c0d, &data).unwrap();
            assert_eq!(
                streamed.out, expected,
                "write_stream_frame at {per_call} bytes/call"
            );

            let min_calls = expected.len().div_ceil(per_call);
            assert_eq!(plain.calls, min_calls, "write_frame calls at {per_call}");
            assert_eq!(streamed.calls, min_calls, "stream calls at {per_call}");
        }
        // An empty payload is still one call, and a sink that accepts
        // nothing is an error rather than a spin.
        let mut empty = Trickle::new(usize::MAX);
        write_frame(&mut empty, b"").unwrap();
        assert_eq!((empty.out.as_slice(), empty.calls), (&[0u8; 4][..], 1));
        let err = write_frame(&mut Trickle::new(0), b"ping").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn oversized_and_torn_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        assert!(matches!(
            read_frame(&mut &buf[..], 10),
            Err(FrameError::TooLarge { declared: 100, .. })
        ));
        // Truncated payload.
        assert!(matches!(
            read_frame(&mut &buf[..50], 200),
            Err(FrameError::Torn)
        ));
        // Truncated header.
        assert!(matches!(
            read_frame(&mut &buf[..2], 200),
            Err(FrameError::Torn)
        ));
    }

    #[test]
    fn response_roundtrip() {
        let ok = encode_response(true, "hello\nworld");
        assert_eq!(
            decode_response(&ok).unwrap(),
            Response {
                ok: true,
                text: "hello\nworld".into()
            }
        );
        let err = encode_response(false, "nope");
        assert!(!decode_response(&err).unwrap().ok);
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(b"?x").is_err());
        assert!(decode_response(&[STATUS_OK, 0xff, 0xfe]).is_err());
    }

    #[test]
    fn stream_request_roundtrip() {
        let frame_data = vec![7u8; 48];
        let reqs = [
            StreamRequest::Open {
                name: "clip",
                width: 4,
                height: 4,
                fps_milli: 29_970,
            },
            StreamRequest::Frame {
                session: 3,
                seq: 17,
                data: &frame_data,
            },
            StreamRequest::Commit { session: 3 },
            StreamRequest::Abort { session: 9 },
        ];
        for req in &reqs {
            let wire = encode_stream_request(req);
            assert!(is_stream_request(&wire));
            assert_eq!(&decode_stream_request(&wire).unwrap(), req);
        }
        assert!(!is_stream_request(b"ping"));
        assert!(!is_stream_request(b""));
    }

    #[test]
    fn malformed_stream_requests_are_rejected() {
        // Too short for the fixed header.
        assert!(decode_stream_request(&[STREAM_MAGIC, OP_COMMIT]).is_err());
        // Unknown opcode.
        let mut wire = encode_stream_request(&StreamRequest::Commit { session: 1 });
        wire[1] = 99;
        assert!(decode_stream_request(&wire).is_err());
        // Open body too short / bad name.
        let open = encode_stream_request(&StreamRequest::Open {
            name: "x",
            width: 2,
            height: 2,
            fps_milli: 1000,
        });
        assert!(decode_stream_request(&open[..open.len() - 2]).is_err());
        let mut bad_name = open.clone();
        let last = bad_name.len() - 1;
        bad_name[last] = 0xff;
        assert!(decode_stream_request(&bad_name).is_err());
        let empty_name = &open[..open.len() - 1];
        assert!(decode_stream_request(empty_name).is_err());
    }
}

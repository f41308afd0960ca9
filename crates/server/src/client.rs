//! A blocking client for the `vdbd` wire protocol.
//!
//! One [`Client`] wraps one connection; requests are strictly
//! send-then-receive (the protocol has no pipelining), so the type needs
//! no internal locking. Used by the integration tests, the `vdbc` binary,
//! and the `loadgen` benchmark driver.

use crate::protocol::{
    decode_response, encode_stream_request, read_frame, write_frame, write_stream_frame,
    FrameError, Response, StreamRequest, DEFAULT_MAX_FRAME,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use vdb_core::frame::FrameBuf;
use vdb_core::pixel::rgb_as_bytes;
use vdb_store::query::field;

/// Why a request failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's bytes did not decode as a response frame.
    Protocol(FrameError),
    /// The server answered with an error status ([`Client::expect_ok`]).
    Server(String),
    /// The server closed the connection before responding (e.g. it is
    /// draining for shutdown and the request arrived too late).
    ServerClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other),
        }
    }
}

/// How to establish the TCP connection: a per-attempt timeout plus a
/// bounded retry-with-backoff budget, so a briefly-down server (say, a
/// shard mid-restart) surfaces as a short wait instead of an immediate
/// OS error. Used by `vdbc --connect-timeout` and the router's shard
/// client pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectOptions {
    /// Cap on each individual TCP connect attempt.
    pub attempt_timeout: Duration,
    /// Total budget across attempts and backoff sleeps; once a retry
    /// would start past this, the last error is returned. The first
    /// round always runs, so a zero budget means exactly one round.
    pub total_budget: Duration,
    /// Sleep before the second attempt; doubles per retry (capped at 1s).
    pub initial_backoff: Duration,
}

impl ConnectOptions {
    /// One attempt only, capped at `timeout` — what `--connect-timeout`
    /// alone means.
    pub fn single(timeout: Duration) -> Self {
        ConnectOptions {
            attempt_timeout: timeout,
            total_budget: Duration::ZERO,
            initial_backoff: Duration::from_millis(0),
        }
    }

    /// Retry within `budget`, capping each attempt at `attempt`.
    pub fn retrying(attempt: Duration, budget: Duration) -> Self {
        ConnectOptions {
            attempt_timeout: attempt,
            total_budget: budget,
            initial_backoff: Duration::from_millis(25),
        }
    }
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions::single(Duration::from_secs(5))
    }
}

/// One connection to a `vdbd` server.
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
}

impl Client {
    /// Connect with a 30-second response timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Client::from_stream(stream)
    }

    /// Connect under `opts`: every resolved address is tried per round
    /// with `attempt_timeout`, and rounds repeat with doubling backoff
    /// until one succeeds or `total_budget` is spent.
    pub fn connect_with(addr: impl ToSocketAddrs, opts: &ConnectOptions) -> io::Result<Client> {
        let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let started = std::time::Instant::now();
        let mut backoff = opts.initial_backoff;
        let mut last_err = None;
        loop {
            for a in &addrs {
                match TcpStream::connect_timeout(a, opts.attempt_timeout) {
                    Ok(stream) => {
                        stream.set_nodelay(true)?;
                        return Client::from_stream(stream);
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            let next_try = if backoff.is_zero() {
                Duration::from_millis(25)
            } else {
                backoff
            };
            if started.elapsed() + next_try >= opts.total_budget {
                return Err(last_err.unwrap());
            }
            std::thread::sleep(next_try);
            backoff = (next_try * 2).min(Duration::from_secs(1));
        }
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        let mut client = Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
        };
        client.set_timeout(Some(Duration::from_secs(30)))?;
        Ok(client)
    }

    /// Change the per-response timeout (`None` blocks forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Send one command line and wait for its response.
    pub fn request(&mut self, line: &str) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, line.as_bytes())?;
        self.read_response()
    }

    /// Send one pre-encoded request payload (text or binary stream
    /// message) and wait for its response. The router uses this to relay
    /// a client's stream frames downstream without re-encoding them.
    pub fn raw_request(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, payload)?;
        self.read_response()
    }

    /// Read the next response frame off the socket.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.stream, self.max_frame)? {
            Some(payload) => Ok(decode_response(&payload)?),
            None => Err(ClientError::ServerClosed),
        }
    }

    /// Send one binary stream message and require an ok status.
    fn stream_request(&mut self, req: &StreamRequest<'_>) -> Result<String, ClientError> {
        write_frame(&mut self.stream, &encode_stream_request(req))?;
        let resp = self.read_response()?;
        if resp.ok {
            Ok(resp.text)
        } else {
            Err(ClientError::Server(resp.text))
        }
    }

    /// Open a live streaming-ingest session. The returned [`FrameStream`]
    /// pushes raw frames under the server's credit window (the server
    /// grants `credits()` in-flight frames and every ack reports how many
    /// of its buffer slots are free; `push` blocks on an ack once the
    /// frames in flight reach [`in_flight_cap`]) and finishes with
    /// [`FrameStream::commit`] or [`FrameStream::abort`].
    pub fn open_stream(
        &mut self,
        name: &str,
        width: u32,
        height: u32,
        fps: f64,
    ) -> Result<FrameStream<'_>, ClientError> {
        let fps_milli = (fps * 1000.0).round().max(0.0) as u32;
        let text = self.stream_request(&StreamRequest::Open {
            name,
            width,
            height,
            fps_milli,
        })?;
        let session = field(&text, "session")
            .ok_or_else(bad_open_reply)?
            .parse::<u32>()
            .map_err(|_| bad_open_reply())?;
        let window = field(&text, "credits")
            .ok_or_else(bad_open_reply)?
            .parse::<u32>()
            .map_err(|_| bad_open_reply())?;
        let frame_bytes = (width as usize) * (height as usize) * 3;
        Ok(FrameStream {
            client: self,
            session,
            window: window.max(1),
            free: window.max(1),
            inflight: 0,
            next_seq: 0,
            width,
            height,
            frame_bytes,
        })
    }

    /// Send one command and require an ok status; the error branch
    /// carries the server's message.
    pub fn expect_ok(&mut self, line: &str) -> Result<String, ClientError> {
        let resp = self.request(line)?;
        if resp.ok {
            Ok(resp.text)
        } else {
            Err(ClientError::Server(format!("'{line}': {}", resp.text)))
        }
    }

    /// Split off the raw stream (for tests that need to write garbage).
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }
}

fn bad_open_reply() -> ClientError {
    ClientError::Protocol(FrameError::Malformed("bad stream-open reply"))
}

/// A committed streaming session's summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCommit {
    /// The id the video was registered under.
    pub video: u64,
    /// Shots detected.
    pub shots: usize,
    /// Frames the server consumed.
    pub frames: usize,
    /// Whether the commit waited on journal durability (`false` for
    /// in-memory servers).
    pub durable: bool,
}

/// How many unacknowledged frames a client may have on the wire: the free
/// buffer slots the server last advertised, but never fewer than half the
/// granted window (and never more than all of it).
///
/// A frame sent past the advertised credits is not buffered on arrival —
/// the server holds it until its analyzer frees a slot — so it only adds
/// to what a later `commit` must wait out. Half a window stays in flight
/// regardless, so a server that was briefly held up refills its buffer
/// from the socket rather than from an ack round trip per frame.
pub fn in_flight_cap(window: u32, advertised: u32) -> u32 {
    advertised.clamp((window / 2).max(1), window.max(1))
}

/// A live streaming-ingest session over one [`Client`] connection.
///
/// Frames go out strictly in sequence; the client keeps at most
/// [`in_flight_cap`] of them in flight and blocks on acks past it, so
/// server-side backpressure propagates here as `push` latency.
pub struct FrameStream<'a> {
    client: &'a mut Client,
    session: u32,
    window: u32,
    /// Free buffer slots the server advertised in its latest ack.
    free: u32,
    inflight: u32,
    next_seq: u32,
    width: u32,
    height: u32,
    frame_bytes: usize,
}

impl FrameStream<'_> {
    /// The server-assigned session id.
    pub fn session(&self) -> u32 {
        self.session
    }

    /// The credit window granted at open.
    pub fn credits(&self) -> u32 {
        self.window
    }

    /// Frames pushed so far.
    pub fn pushed(&self) -> u32 {
        self.next_seq
    }

    /// Push one frame. Its pixels already are the wire's raw RGB24, so
    /// they go out as they lie, without a copy.
    pub fn push(&mut self, frame: &FrameBuf) -> Result<(), ClientError> {
        self.push_rgb24(rgb_as_bytes(frame.pixels()))
    }

    /// Push one raw RGB24 frame (`width*height*3` bytes).
    pub fn push_rgb24(&mut self, data: &[u8]) -> Result<(), ClientError> {
        if data.len() != self.frame_bytes {
            return Err(ClientError::Protocol(FrameError::Malformed(
                "frame bytes do not match the declared dimensions",
            )));
        }
        while self.inflight >= in_flight_cap(self.window, self.free) {
            self.await_ack()?;
        }
        write_stream_frame(&mut self.client.stream, self.session, self.next_seq, data)?;
        self.next_seq += 1;
        self.inflight += 1;
        Ok(())
    }

    /// The declared frame dimensions.
    pub fn dims(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Read one pending frame ack.
    fn await_ack(&mut self) -> Result<(), ClientError> {
        let resp = self.client.read_response()?;
        self.inflight -= 1;
        if resp.ok {
            // An ack without the field (not this server's) leaves the cap
            // where it was.
            if let Some(free) = field(&resp.text, "credits").and_then(|v| v.parse().ok()) {
                self.free = free;
            }
            Ok(())
        } else {
            Err(ClientError::Server(resp.text))
        }
    }

    /// Drain every outstanding ack.
    fn drain_acks(&mut self) -> Result<(), ClientError> {
        while self.inflight > 0 {
            self.await_ack()?;
        }
        Ok(())
    }

    /// Commit: finalize the analysis server-side and wait until the video
    /// is registered (and durable, on journal-backed servers).
    pub fn commit(mut self) -> Result<StreamCommit, ClientError> {
        self.drain_acks()?;
        let text = self.client.stream_request(&StreamRequest::Commit {
            session: self.session,
        })?;
        let parse = |key: &str| {
            field(&text, key).ok_or(ClientError::Protocol(FrameError::Malformed(
                "bad stream-commit reply",
            )))
        };
        Ok(StreamCommit {
            video: parse("video")?
                .parse()
                .map_err(|_| ClientError::Protocol(FrameError::Malformed("bad video id")))?,
            shots: parse("shots")?
                .parse()
                .map_err(|_| ClientError::Protocol(FrameError::Malformed("bad shot count")))?,
            frames: parse("frames")?
                .parse()
                .map_err(|_| ClientError::Protocol(FrameError::Malformed("bad frame count")))?,
            durable: parse("durable")? == "true",
        })
    }

    /// Abort: discard the session server-side; nothing is committed.
    pub fn abort(mut self) -> Result<(), ClientError> {
        self.drain_acks()?;
        self.client.stream_request(&StreamRequest::Abort {
            session: self.session,
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_stream_request, encode_response};
    use std::net::TcpListener;

    #[test]
    fn in_flight_cap_follows_the_advertised_credits_down_to_half_a_window() {
        assert_eq!(in_flight_cap(8, 8), 8);
        assert_eq!(in_flight_cap(8, 5), 5);
        assert_eq!(in_flight_cap(8, 4), 4);
        assert_eq!(in_flight_cap(8, 0), 4);
        // Never above the grant, whatever an ack claims.
        assert_eq!(in_flight_cap(8, 100), 8);
        // Small windows always leave room for one frame.
        assert_eq!(in_flight_cap(2, 0), 1);
        assert_eq!(in_flight_cap(1, 0), 1);
        assert_eq!(in_flight_cap(0, 0), 1);
    }

    /// A scripted server that buffers nothing (`credits=0` in every ack):
    /// the client fills the granted window before the first ack, then
    /// holds at half of it — and follows the credits back up.
    #[test]
    fn push_holds_frames_back_when_the_server_reports_no_free_credit() {
        const WINDOW: u32 = 4;
        const QUIET: Duration = Duration::from_millis(150);
        const PATIENT: Duration = Duration::from_secs(30);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frame = [9u8; 2 * 2 * 3];

        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut next_seq = 0u32;
            // Read exactly `want` frames, then require the socket to stay
            // quiet for `QUIET`: a slow client can make this pass late,
            // never fail.
            let mut expect_frames = |sock: &mut TcpStream, want: u32| {
                sock.set_read_timeout(Some(PATIENT)).unwrap();
                for _ in 0..want {
                    let payload = read_frame(sock, DEFAULT_MAX_FRAME).unwrap().unwrap();
                    match decode_stream_request(&payload).unwrap() {
                        StreamRequest::Frame { seq, .. } => {
                            assert_eq!(seq, next_seq, "frames arrive in order");
                            next_seq += 1;
                        }
                        other => panic!("unexpected message {other:?}"),
                    }
                }
                sock.set_read_timeout(Some(QUIET)).unwrap();
                match read_frame(sock, DEFAULT_MAX_FRAME) {
                    Err(FrameError::Io(e))
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                    other => panic!("expected silence after {want} frames, got {other:?}"),
                }
            };
            let ack = |sock: &mut TcpStream, seq: u32, credits: u32| {
                let text = format!("seq={seq} credits={credits}");
                write_frame(sock, &encode_response(true, &text)).unwrap();
            };

            let open = read_frame(&mut sock, DEFAULT_MAX_FRAME).unwrap().unwrap();
            assert!(matches!(
                decode_stream_request(&open).unwrap(),
                StreamRequest::Open { .. }
            ));
            let granted = format!("session=7 credits={WINDOW}");
            write_frame(&mut sock, &encode_response(true, &granted)).unwrap();

            // Nothing acked yet: the whole grant goes out, and no more.
            expect_frames(&mut sock, 4);
            // Two acks with no credit leave 2 in flight = the cap: silence.
            ack(&mut sock, 0, 0);
            ack(&mut sock, 1, 0);
            expect_frames(&mut sock, 0);
            // Each further ack lets exactly one frame through.
            ack(&mut sock, 2, 0);
            expect_frames(&mut sock, 1);
            // Credits back: the client follows them up to 3 in flight.
            ack(&mut sock, 3, 3);
            expect_frames(&mut sock, 2);
            // Let the rest through and acknowledge the commit.
            sock.set_read_timeout(Some(PATIENT)).unwrap();
            for seq in 4..10 {
                ack(&mut sock, seq, WINDOW);
            }
            loop {
                let payload = read_frame(&mut sock, DEFAULT_MAX_FRAME).unwrap().unwrap();
                match decode_stream_request(&payload).unwrap() {
                    StreamRequest::Frame { .. } => {}
                    StreamRequest::Commit { session } => {
                        assert_eq!(session, 7);
                        break;
                    }
                    other => panic!("unexpected message {other:?}"),
                }
            }
            let done = "video=1 shots=1 frames=10 durable=false";
            write_frame(&mut sock, &encode_response(true, done)).unwrap();
        });

        let mut client = Client::connect(addr).unwrap();
        let mut stream = client.open_stream("scripted", 2, 2, 25.0).unwrap();
        assert_eq!(stream.credits(), WINDOW);
        for _ in 0..10 {
            stream.push_rgb24(&frame).unwrap();
        }
        let commit = stream.commit().unwrap();
        assert_eq!(commit.frames, 10);
        server.join().unwrap();
    }
}

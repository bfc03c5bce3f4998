//! All raw I/O of the server crate lives here: socket framing plus the handful of
//! file-system touches the serving layer needs (config loading, tenant directory
//! creation, existence probes).
//!
//! [`FrameConn`] is the one path bytes take to and from a socket, for server and
//! client alike: a fixed read buffer that frames are parsed out of, and a small write
//! buffer that is emptied before every socket read.
//!
//! This is the server-side analogue of `gss-core`'s storage-layer containment rule
//! (gss-lint L004): every other module in this crate is pure — `protocol` never sees
//! a byte source, `namespace`/`server`/`client` route every file or socket operation
//! through this module — so the fault surface reviewers must audit for partial reads,
//! interrupted writes and resource leaks is one file.  The module is accordingly on
//! the lint's L004 allowlist; nothing outside it may name `std::fs` or `OpenOptions`.

use crate::protocol::{self, ProtocolError, HEADER_BYTES};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// How a frame read can fail: transport death and protocol damage are distinct —
/// the server drops the connection on the former and answers a typed error frame on
/// the latter.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed or closed.
    Io(io::Error),
    /// The bytes arrived but do not form a valid frame.
    Protocol(ProtocolError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ProtocolError> for FrameError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

/// Size of a connection's read buffer: one `read` pulls in up to this many bytes of
/// whatever frames have arrived.
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// Pending output at or beyond this is written out at once, and a single frame this
/// large bypasses the write buffer.  It must stay a few KiB: it is how long a peer
/// that is already decoding earlier answers waits for the next ones while a burst is
/// still being served (at 64 KiB the server sat on large successor/precursor lists
/// until the burst ended and pipelined precursor throughput fell 13 %).
const FLUSH_THRESHOLD_BYTES: usize = 4 * 1024;

/// A framed connection: one TCP stream carrying GSSP frames in both directions,
/// buffered both ways so that a pipelining peer costs one `read` and one `write` per
/// burst instead of several per frame.
///
/// Output is held back only while there is input left to serve: the write buffer is
/// flushed **before every socket read** — the one place a conversation can block on
/// the peer — so a frame written and then awaited is on the wire, and neither of two
/// peers can be waiting for bytes the other still holds.  A caller that writes and
/// then goes quiet without reading calls [`flush`](Self::flush).
pub struct FrameConn {
    stream: TcpStream,
    /// Received bytes not yet handed out are `read_buf[read_at..read_end]`.
    read_buf: Box<[u8]>,
    read_at: usize,
    read_end: usize,
    /// Whole encoded frames not yet written to the socket.
    write_buf: Vec<u8>,
}

impl FrameConn {
    /// Wraps an accepted or connected stream.  `TCP_NODELAY` is set because batching
    /// is done here, where a burst's end is known — Nagle would only add a round-trip
    /// of latency to the last small frame of each flush.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            read_buf: vec![0; READ_BUFFER_BYTES].into_boxed_slice(),
            read_at: 0,
            read_end: 0,
            write_buf: Vec::with_capacity(2 * FLUSH_THRESHOLD_BYTES),
        })
    }

    /// Bounds how long a blocking read may stall (used by the server so a silent
    /// client cannot pin a connection-cap slot forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Bounds how long a blocking write may stall (used by the server so a client
    /// that sends requests but never reads the answers cannot pin a connection-cap
    /// slot forever).  A write that times out fails the connection.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_write_timeout(timeout)
    }

    /// One `read` from the socket into `read_buf[read_end..]`, pending output flushed
    /// first.  EOF surfaces as [`io::ErrorKind::UnexpectedEof`].
    fn fill(&mut self) -> io::Result<()> {
        // Callers refill only with less than a header left over: moving it to the
        // front costs nothing and leaves the read almost the whole buffer to fill.
        self.read_buf.copy_within(self.read_at..self.read_end, 0);
        self.read_end -= self.read_at;
        self.read_at = 0;
        let free = &mut self.read_buf[self.read_end..];
        self.read_end += read_some(&mut self.stream, &mut self.write_buf, free)?;
        Ok(())
    }

    /// Reads exactly one frame and returns `(kind, payload)`.
    ///
    /// The header is validated *before* the payload is allocated or awaited, so a
    /// lying length field is rejected without allocating; `Ok` means magic, version,
    /// length bound and CRC all checked out.  An EOF — between frames or inside one —
    /// surfaces as [`io::ErrorKind::UnexpectedEof`].
    pub fn read_frame(&mut self) -> Result<(u8, Vec<u8>), FrameError> {
        let mut payload = Vec::new();
        let kind = self.read_frame_into(&mut payload)?;
        Ok((kind, payload))
    }

    /// [`read_frame`](Self::read_frame) into a buffer the caller keeps across frames:
    /// `payload` is overwritten with the frame's payload and the kind returned.
    pub fn read_frame_into(&mut self, payload: &mut Vec<u8>) -> Result<u8, FrameError> {
        while self.read_end - self.read_at < HEADER_BYTES {
            self.fill()?;
        }
        let mut header = [0u8; HEADER_BYTES];
        header.copy_from_slice(&self.read_buf[self.read_at..self.read_at + HEADER_BYTES]);
        let (kind, len) = protocol::decode_header(&header)?;
        self.read_at += HEADER_BYTES;

        payload.clear();
        payload.resize(len, 0);
        let mut filled = 0;
        while filled < len {
            if self.read_at == self.read_end {
                let rest = &mut payload[filled..];
                if rest.len() >= self.read_buf.len() {
                    // More than a buffer-full is still to come: receive it where it
                    // is going instead of copying it through the buffer.
                    filled += read_some(&mut self.stream, &mut self.write_buf, rest)?;
                    continue;
                }
                self.fill()?;
            }
            let take = (len - filled).min(self.read_end - self.read_at);
            payload[filled..filled + take]
                .copy_from_slice(&self.read_buf[self.read_at..self.read_at + take]);
            self.read_at += take;
            filled += take;
        }
        protocol::check_crc(&header, payload)?;
        Ok(kind)
    }

    /// Queues one already-encoded frame (from `protocol::encode_request` /
    /// `encode_response`).  It reaches the socket no later than this connection's next
    /// socket read or [`flush`](Self::flush) — at once if it is large or enough
    /// output is pending.  An error is final: the stream may hold half a frame.
    pub fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        if frame.len() >= FLUSH_THRESHOLD_BYTES {
            self.flush()?;
            return self.stream.write_all(frame);
        }
        self.write_buf.extend_from_slice(frame);
        if self.write_buf.len() >= FLUSH_THRESHOLD_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes out every queued frame.  Needed only before going quiet without reading:
    /// ahead of closing, or when the answer is awaited by other means.
    pub fn flush(&mut self) -> io::Result<()> {
        flush_pending(&mut self.stream, &mut self.write_buf)
    }

    /// Writes raw bytes without any framing, behind whatever frames are queued and
    /// straight through to the socket — the `wirecheck` path of the client binary
    /// uses this to assert byte-level behaviour against a live server.
    pub fn write_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.flush()?;
        self.stream.write_all(bytes)
    }

    /// Flushes, then half-closes the write side so the peer sees EOF after our final
    /// frame.
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.flush()?;
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}

/// Writes out `pending` and empties it — also on failure, after which the stream may
/// hold half a frame and nothing more may be sent on it.
fn flush_pending(stream: &mut TcpStream, pending: &mut Vec<u8>) -> io::Result<()> {
    if pending.is_empty() {
        return Ok(());
    }
    let written = stream.write_all(pending);
    pending.clear();
    written
}

/// The connection's one socket read: flushes `pending` output (a read is where the
/// peer may be waiting for it), then reads at least one byte into `into`.
fn read_some(stream: &mut TcpStream, pending: &mut Vec<u8>, into: &mut [u8]) -> io::Result<usize> {
    flush_pending(stream, pending)?;
    loop {
        match stream.read(into) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(got) => return Ok(got),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads a whole file as UTF-8 (server config loading).
pub fn read_file_string(path: &Path) -> io::Result<String> {
    std::fs::read_to_string(path)
}

/// Creates a directory and its parents if missing (tenant data directories).
pub fn ensure_dir(path: &Path) -> io::Result<()> {
    std::fs::create_dir_all(path)
}

/// Whether a path exists on disk — the namespace registry probes for a tenant's
/// shard-0 file to choose between first-boot create and restart reopen.
pub fn path_exists(path: &Path) -> bool {
    path.exists()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_frame, encode_request, Request, MAX_PAYLOAD_BYTES};
    use std::net::TcpListener;
    use std::thread;

    /// Two ends of one loopback connection.
    fn pair() -> (FrameConn, FrameConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        (FrameConn::new(near).unwrap(), FrameConn::new(far).unwrap())
    }

    /// Echoes frames back, never flushing by hand, until the peer closes.
    fn echo_until_eof(mut conn: FrameConn) -> thread::JoinHandle<()> {
        thread::spawn(move || loop {
            match conn.read_frame() {
                Ok((kind, payload)) => conn.write_frame(&encode_frame(kind, &payload)).unwrap(),
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => return,
                Err(other) => panic!("echo side failed: {other}"),
            }
        })
    }

    fn edge_frame(i: u64) -> Vec<u8> {
        encode_request(&Request::Edge { source: i, destination: i + 1 })
    }

    #[test]
    fn frames_cross_a_real_socket_intact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FrameConn::new(stream).unwrap();
            let (kind, payload) = conn.read_frame().unwrap();
            conn.write_frame(&protocol::encode_frame(kind, &payload)).unwrap();
            conn.flush().unwrap();
        });
        let mut conn = FrameConn::new(TcpStream::connect(addr).unwrap()).unwrap();
        let frame = encode_request(&Request::Hello { tenant: "a".into(), token: "t".into() });
        conn.write_frame(&frame).unwrap();
        let (kind, payload) = conn.read_frame().unwrap();
        assert_eq!(protocol::encode_frame(kind, &payload), frame);
        echo.join().unwrap();
    }

    #[test]
    fn garbage_on_the_wire_is_a_protocol_error_not_a_hang() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FrameConn::new(stream).unwrap();
            conn.write_raw(b"HTTP/1.1 GET / please").unwrap();
        });
        let mut conn = FrameConn::new(TcpStream::connect(addr).unwrap()).unwrap();
        match conn.read_frame() {
            Err(FrameError::Protocol(ProtocolError::BadMagic)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        sender.join().unwrap();
    }

    #[test]
    fn a_lying_length_is_refused_from_the_header_alone() {
        let (mut sender, mut receiver) = pair();
        let mut header = encode_frame(0x09, b"");
        header[6..10].copy_from_slice(&(MAX_PAYLOAD_BYTES as u32 + 1).to_le_bytes());
        // Only the header is ever sent: a reader that allocated for the claimed length
        // and waited for it would hang here instead of answering.
        sender.write_raw(&header).unwrap();
        match receiver.read_frame() {
            Err(FrameError::Protocol(ProtocolError::Oversized(len))) => {
                assert_eq!(len as usize, MAX_PAYLOAD_BYTES + 1);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn a_peer_dribbling_single_bytes_still_yields_intact_frames() {
        let (mut sender, mut receiver) = pair();
        let frames: Vec<Vec<u8>> = vec![
            edge_frame(1),
            encode_request(&Request::Health),
            encode_request(&Request::Hello { tenant: "alpha".into(), token: "secret".into() }),
        ];
        let sent = frames.clone();
        let dribbler = thread::spawn(move || {
            for byte in sent.concat() {
                sender.write_raw(&[byte]).unwrap();
            }
        });
        for frame in &frames {
            let (kind, payload) = receiver.read_frame().unwrap();
            assert_eq!(&encode_frame(kind, &payload), frame);
        }
        dribbler.join().unwrap();
    }

    #[test]
    fn many_frames_in_one_segment_come_out_one_by_one_in_order() {
        let (mut sender, mut receiver) = pair();
        let burst: Vec<u8> = (0..500).flat_map(edge_frame).collect();
        sender.write_raw(&burst).unwrap();
        for i in 0..500 {
            let (kind, payload) = receiver.read_frame().unwrap();
            assert_eq!(encode_frame(kind, &payload), edge_frame(i), "frame {i}");
        }
    }

    #[test]
    fn payloads_beyond_the_read_buffer_and_at_the_cap_round_trip() {
        let (mut sender, receiver) = pair();
        let echo = echo_until_eof(receiver);
        for len in [READ_BUFFER_BYTES - HEADER_BYTES, READ_BUFFER_BYTES + 1000, MAX_PAYLOAD_BYTES] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            // A small frame in front, so the big one starts in the middle of the buffer.
            sender.write_frame(&edge_frame(7)).unwrap();
            sender.write_frame(&encode_frame(0x02, &payload)).unwrap();
            let (kind, _) = sender.read_frame().unwrap();
            assert_eq!(kind, 0x03);
            let mut echoed = Vec::new();
            assert_eq!(sender.read_frame_into(&mut echoed).unwrap(), 0x02);
            assert!(echoed == payload, "{len}-byte payload came back changed");
        }
        // A frame that size passed through both ends without growing either's buffers.
        assert!(sender.write_buf.capacity() <= 2 * FLUSH_THRESHOLD_BYTES);
        assert_eq!(sender.read_buf.len(), READ_BUFFER_BYTES);
        drop(sender);
        echo.join().unwrap();
    }

    #[test]
    fn answers_to_whole_frames_arrive_while_the_next_frame_is_half_sent() {
        let (mut client, server) = pair();
        let echo = echo_until_eof(server);
        let mut bytes: Vec<u8> = (0..3).flat_map(edge_frame).collect();
        let last = edge_frame(3);
        bytes.extend_from_slice(&last[..last.len() / 2]);
        client.write_raw(&bytes).unwrap();
        // The echo side holds three small answers and is now blocked reading the rest
        // of the fourth frame; it must have flushed them before blocking.
        for i in 0..3 {
            let (kind, payload) = client.read_frame().unwrap();
            assert_eq!(encode_frame(kind, &payload), edge_frame(i));
        }
        client.write_raw(&last[last.len() / 2..]).unwrap();
        let (kind, payload) = client.read_frame().unwrap();
        assert_eq!(encode_frame(kind, &payload), last);
        drop(client);
        echo.join().unwrap();
    }

    #[test]
    fn pending_output_stays_under_the_threshold_plus_one_frame() {
        let (mut writer, mut reader) = pair();
        let frame = edge_frame(9);
        let count = 20 * FLUSH_THRESHOLD_BYTES / frame.len();
        let drain = thread::spawn(move || {
            for _ in 0..count + 1 {
                reader.read_frame().unwrap();
            }
        });
        let capacity = writer.write_buf.capacity();
        for _ in 0..count {
            writer.write_frame(&frame).unwrap();
            assert!(writer.write_buf.len() < FLUSH_THRESHOLD_BYTES + frame.len());
        }
        // A large frame goes around the buffer, behind what was pending.
        writer.write_frame(&encode_frame(0x02, &vec![5; 10 * FLUSH_THRESHOLD_BYTES])).unwrap();
        assert!(writer.write_buf.is_empty());
        assert_eq!(writer.write_buf.capacity(), capacity);
        drain.join().unwrap();
    }

    #[test]
    fn a_peer_that_never_reads_fails_the_writer_instead_of_pinning_it() {
        let (mut writer, _stalled) = pair();
        writer.set_write_timeout(Some(Duration::from_millis(100))).unwrap();
        let frame = encode_frame(0x83, &vec![0; 1 << 20]);
        // Far more than the socket buffers of both ends can absorb.
        let failure = (0..256).find_map(|_| writer.write_frame(&frame).err());
        let kind = failure.expect("256 MiB cannot fit a loopback socket").kind();
        assert!(matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut), "{kind:?}");
    }
}

//! The server-side MHNP-D driver: one thread, one `UdpSocket`, the same
//! shared state the TCP reactors serve.
//!
//! The driver owns no cipher state of its own. Streams live in the
//! shared [`mhhea::gateway::StreamMux`]; eviction snapshots and resume
//! tokens live in the shared registry; the driver only keeps the
//! *datagram-specific* per-stream state: which peer address the stream
//! is bound to, the epoch its replay windows were built for, and the
//! windows themselves. Every cipher operation goes through
//! [`mhhea::gateway::StreamMux::seal_chunk`]/
//! [`mhhea::gateway::StreamMux::open_chunk`], which re-check the epoch under the shard
//! lock — the driver's epoch cache is an optimisation and a window-reset
//! trigger, never the authority.
//!
//! Refusal policy, from cheapest to most specific:
//!
//! * **Undecodable packets** (bad magic/CRC, truncation, trailing bytes,
//!   unknown kind) are dropped silently — reflecting errors at unverified
//!   sources would make the server a UDP amplifier.
//! * **Stream-transport kinds** over UDP are dropped silently too, and
//!   counted as protocol errors.
//! * **Well-formed but unattributable** packets get silence as well:
//!   data for a stream that is not attached here (or bound to a
//!   different peer address), and any `DgramResume` that is malformed
//!   or fails the token check. Until a source address survives the
//!   token check it has proved nothing; an `Error` reply (~2x the size
//!   of a minimal probe) would be amplification toward a spoofed
//!   victim, and answering at all would leak which ids are served.
//! * Everything attributed to an attached stream — a packet from the
//!   peer address that last passed the stream's token check, even while
//!   the stream itself is parked in an eviction snapshot — gets an
//!   explicit `Error` reply echoing the packet's stream and sequence,
//!   so the client can account for the chunk instead of timing out.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mhhea::gateway::{GatewayError, StreamId};

use crate::frame::{
    decode_blocks, encode_blocks, encode_error, encode_raw, flags, split_seq, ErrorCode, FrameKind,
};
use crate::reactor::Shared;
use crate::server::ServerStats;

use super::frame::{decode_datagram, DGRAM_MAX_CHUNK_BYTES, DGRAM_MAX_PACKET_BYTES};
use super::window::{ReorderWindow, Slot};

/// Datagram-path state for one attached stream.
///
/// The entry outlives the stream's presence in the mux: when a TCP
/// disconnect evicts the stream to a parked snapshot, the entry — and
/// with it the replay windows — stays, because a resume restores the
/// snapshot at the **same** epoch and rebuilding fresh windows on the
/// re-attach would reopen every index already served in that epoch
/// (index reuse = two-time pad). The entry is dropped only once the
/// registry holds no resume token for the stream, i.e. once it can
/// never legally return.
struct Attached {
    /// The peer address the stream answered its last successful attach
    /// from. Data packets from any other address are refused — a valid
    /// re-attach (token check and all) is how a roaming client rebinds.
    peer: SocketAddr,
    /// The epoch the replay windows below were built for. Refreshed from
    /// the mux on every data packet; a rotation resets both windows
    /// (chunk indices restart per epoch).
    epoch: u32,
    /// Replay window for seal requests — security-critical: a replayed
    /// seal index would be sealed under the same keystream twice.
    seal_window: ReorderWindow,
    /// Replay window for open requests — hygiene: dedups the decrypt
    /// work a replayed packet would otherwise repeat.
    open_window: ReorderWindow,
}

/// What `vet_data` decided about a `DgramData` packet, borrow-free so the
/// socket can be written to afterwards.
enum Verdict {
    /// Drop silently (and count): the packet could not be attributed to
    /// an attached stream, so answering it would be amplification.
    Drop,
    /// Refuse with an `Error` reply carrying this code and detail.
    Refuse(ErrorCode, String),
    /// Seal this plaintext at (epoch, index).
    Seal(Vec<u8>),
    /// Open these blocks at (epoch, index).
    Open(u32, Vec<u16>),
}

/// The datagram driver loop. Built by `NetServer` when the datagram path
/// is enabled; runs on its own `mhnp-dgram` thread until shutdown.
pub(crate) struct DgramDriver {
    shared: Arc<Shared>,
    sock: UdpSocket,
    streams: HashMap<u64, Attached>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl DgramDriver {
    pub(crate) fn new(shared: Arc<Shared>, sock: UdpSocket) -> DgramDriver {
        DgramDriver {
            shared,
            sock,
            streams: HashMap::new(),
            rbuf: vec![0; DGRAM_MAX_PACKET_BYTES],
            wbuf: Vec::with_capacity(DGRAM_MAX_PACKET_BYTES),
        }
    }

    /// Serves packets until `shutdown` turns true. The socket read times
    /// out on the server's idle-sleep cadence so the flag is observed
    /// promptly even on a silent socket.
    pub(crate) fn run(mut self, shutdown: &AtomicBool) {
        let poll = self.shared.cfg.idle_sleep.max(Duration::from_millis(1));
        let _ = self.sock.set_read_timeout(Some(poll));
        while !shutdown.load(Ordering::Relaxed) {
            let (n, src) = match self.sock.recv_from(&mut self.rbuf) {
                Ok(got) => got,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                // Transient socket errors (e.g. ICMP-unreachable surfacing
                // on some platforms) must not kill the driver thread.
                Err(_) => continue,
            };
            ServerStats::bump(&self.shared.stats.dgram_packets_received);
            // lint: allow(panic-path, reason = "recv_from returns n <= rbuf.len() by contract")
            let frame = match decode_datagram(&self.rbuf[..n]) {
                Ok(frame) => frame,
                Err(_) => {
                    // Undecodable: silent drop, never reflected.
                    ServerStats::bump(&self.shared.stats.dgram_rejected);
                    continue;
                }
            };
            match frame.kind {
                FrameKind::DgramResume => self.handle_attach(&frame, src),
                FrameKind::DgramData => self.handle_data(&frame, src),
                // Stream-transport kinds (and server-emitted dgram kinds)
                // have no business arriving here; drop without reflection.
                _ => {
                    ServerStats::bump(&self.shared.stats.dgram_rejected);
                    ServerStats::bump(&self.shared.stats.protocol_errors);
                }
            }
        }
    }

    /// A `DgramResume`: verify the resume token against the shared
    /// registry, restore the stream if parked, bind it to the source
    /// address, and ack with the current epoch. Every refusal — a
    /// malformed token payload, a wrong token, an unknown stream, a
    /// failed restore — is a uniform silent drop: the source address has
    /// not passed the token check, so a reply would be amplification and
    /// a live/parked oracle. The client learns of refusal by its ack
    /// deadline (attach is idempotent; it just retries).
    fn handle_attach(&mut self, frame: &crate::frame::Frame, src: SocketAddr) {
        let stream = frame.stream;
        let Ok(token_bytes) = <[u8; 8]>::try_from(frame.payload.as_slice()) else {
            ServerStats::bump(&self.shared.stats.dgram_rejected);
            return;
        };
        let token = u64::from_le_bytes(token_bytes);
        match self.shared.dgram_attach(stream, token) {
            Some(epoch) => {
                match self.streams.get_mut(&stream) {
                    // Same-epoch re-attach (a retried or duplicated
                    // DgramResume, a roaming client, or a client coming
                    // back after its stream was parked and restored):
                    // rebind the peer but KEEP the replay windows —
                    // resetting them would reopen every already-served
                    // seal index to replay.
                    Some(at) if at.epoch == epoch => at.peer = src,
                    _ => {
                        let window = self.shared.cfg.dgram_window;
                        self.streams.insert(
                            stream,
                            Attached {
                                peer: src,
                                epoch,
                                seal_window: ReorderWindow::new(window),
                                open_window: ReorderWindow::new(window),
                            },
                        );
                        ServerStats::bump(&self.shared.stats.dgram_attached);
                    }
                }
                // The ack payload is the 4-byte LE epoch — the same shape
                // as a Rekey payload.
                Self::send(
                    &self.sock,
                    &mut self.wbuf,
                    &self.shared.stats,
                    src,
                    FrameKind::DgramAck,
                    0,
                    stream,
                    frame.seq,
                    &epoch.to_le_bytes(),
                );
            }
            None => {
                ServerStats::bump(&self.shared.stats.dgram_rejected);
            }
        }
    }

    /// A `DgramData`: attribute it to an attached stream, run it through
    /// the replay window, and serve the chunk operation.
    fn handle_data(&mut self, frame: &crate::frame::Frame, src: SocketAddr) {
        let stream = frame.stream;
        let (epoch, index) = split_seq(frame.seq);
        let verdict = self.vet_data(frame, src);
        match verdict {
            Verdict::Drop => {
                ServerStats::bump(&self.shared.stats.dgram_rejected);
            }
            Verdict::Refuse(code, detail) => {
                ServerStats::bump(&self.shared.stats.dgram_rejected);
                self.reply_error(src, stream, frame.seq, code, &detail);
            }
            Verdict::Seal(plain) => {
                match self
                    .shared
                    .mux
                    .seal_chunk(StreamId(stream), epoch, index, &plain)
                {
                    Ok(blocks) => {
                        ServerStats::bump(&self.shared.stats.dgram_chunks);
                        // lint: allow(truncating-cast, reason = "plain.len() <= DGRAM_MAX_CHUNK_BYTES so the bit count fits u32")
                        let payload = encode_blocks((plain.len() * 8) as u32, &blocks);
                        Self::send(
                            &self.sock,
                            &mut self.wbuf,
                            &self.shared.stats,
                            src,
                            FrameKind::DgramReply,
                            0,
                            stream,
                            frame.seq,
                            &payload,
                        );
                    }
                    Err(e) => {
                        ServerStats::bump(&self.shared.stats.dgram_rejected);
                        let (code, detail) = Self::gateway_reply(e);
                        self.reply_error(src, stream, frame.seq, code, &detail);
                    }
                }
            }
            Verdict::Open(bit_len, blocks) => {
                match self
                    .shared
                    .mux
                    .open_chunk(StreamId(stream), epoch, &blocks, bit_len as usize)
                {
                    Ok(plain) => {
                        ServerStats::bump(&self.shared.stats.dgram_chunks);
                        Self::send(
                            &self.sock,
                            &mut self.wbuf,
                            &self.shared.stats,
                            src,
                            FrameKind::DgramReply,
                            flags::DIR_OPEN,
                            stream,
                            frame.seq,
                            &plain,
                        );
                    }
                    Err(e) => {
                        ServerStats::bump(&self.shared.stats.dgram_rejected);
                        let (code, detail) = Self::gateway_reply(e);
                        self.reply_error(src, stream, frame.seq, code, &detail);
                    }
                }
            }
        }
    }

    /// Everything about a `DgramData` packet that can be decided from the
    /// driver's own state: attribution, epoch freshness, payload shape,
    /// and the replay window. Returns a borrow-free verdict so the caller
    /// can write to the socket afterwards.
    fn vet_data(&mut self, frame: &crate::frame::Frame, src: SocketAddr) -> Verdict {
        let stream = frame.stream;
        // One uniform answer — silence — for "never attached" and "bound
        // to a different peer": a sender probing stream ids must not
        // learn which are attached, an injector sending from the wrong
        // address must not learn that the id was right, and neither
        // source has earned a reply (see the module docs).
        let Some(at) = self.streams.get_mut(&stream) else {
            return Verdict::Drop;
        };
        if at.peer != src {
            return Verdict::Drop;
        }
        // The mux is the epoch authority: a TCP Rekey may have rotated
        // the stream since the last packet, and an evicted/closed stream
        // must refuse here.
        let current = match self.shared.mux.epoch(StreamId(stream)) {
            Ok(epoch) => epoch,
            Err(_) => {
                // The stream left the mux — evicted to a parked snapshot
                // on a TCP disconnect, or torn down for good. The entry
                // (and with it the replay windows) must survive a park: a
                // resume restores the snapshot at the SAME epoch, so
                // forgetting the windows here would reopen every index
                // already served in that epoch on the next re-attach.
                // Only when no resume token exists can the stream never
                // legally return, and only then is the entry dropped.
                if !self.shared.has_token(stream) {
                    self.streams.remove(&stream);
                }
                // Attributed (the peer passed the token check), so the
                // refusal is answered: it tells the client to re-attach.
                return Verdict::Refuse(
                    ErrorCode::UnknownStream,
                    "stream not attached on the datagram path".into(),
                );
            }
        };
        if current != at.epoch {
            at.epoch = current;
            at.seal_window.reset();
            at.open_window.reset();
        }
        let (epoch, index) = split_seq(frame.seq);
        if epoch != current {
            return Verdict::Refuse(
                ErrorCode::StaleEpoch,
                format!("stream is at epoch {current}, datagram stamped epoch {epoch}"),
            );
        }
        // Shape and size checks come before the window: a malformed or
        // oversize packet must not burn its index's replay slot.
        let open = frame.flags & flags::DIR_OPEN != 0;
        let verdict = if open {
            let (bit_len, blocks) = match decode_blocks(&frame.payload) {
                Ok(decoded) => decoded,
                Err(e) => return Verdict::Refuse(ErrorCode::Protocol, e.to_string()),
            };
            if bit_len as usize > DGRAM_MAX_CHUNK_BYTES * 8 {
                return Verdict::Refuse(
                    ErrorCode::MessageTooLarge,
                    format!("chunk of {bit_len} bits exceeds the datagram chunk cap"),
                );
            }
            Verdict::Open(bit_len, blocks)
        } else {
            if frame.payload.len() > DGRAM_MAX_CHUNK_BYTES {
                return Verdict::Refuse(
                    ErrorCode::MessageTooLarge,
                    format!(
                        "chunk of {} bytes exceeds the {DGRAM_MAX_CHUNK_BYTES}-byte datagram chunk cap",
                        frame.payload.len()
                    ),
                );
            }
            Verdict::Seal(frame.payload.clone())
        };
        // The replay window is the last gate: an accepted index is burned
        // even if the cipher op then fails — the fail modes are all
        // stream-fatal races (eviction, rotation) where the client
        // re-attaches anyway, and never re-serving an index is the
        // property that matters.
        let window = if open {
            &mut at.open_window
        } else {
            &mut at.seal_window
        };
        match window.insert(index) {
            Slot::Accepted => verdict,
            Slot::Duplicate => Verdict::Refuse(
                ErrorCode::DuplicateChunk,
                format!("chunk index {index} was already served in epoch {epoch}"),
            ),
            Slot::Expired => Verdict::Refuse(
                ErrorCode::ChunkExpired,
                format!("chunk index {index} fell behind the replay window"),
            ),
        }
    }

    /// Maps a chunk-op failure to its wire error.
    fn gateway_reply(e: GatewayError) -> (ErrorCode, String) {
        let code = match &e {
            GatewayError::UnknownStream(_) => ErrorCode::UnknownStream,
            GatewayError::StaleEpoch { .. } => ErrorCode::StaleEpoch,
            _ => ErrorCode::Engine,
        };
        (code, e.to_string())
    }

    fn reply_error(
        &mut self,
        dst: SocketAddr,
        stream: u64,
        seq: u64,
        code: ErrorCode,
        detail: &str,
    ) {
        let payload = encode_error(code, detail);
        Self::send(
            &self.sock,
            &mut self.wbuf,
            &self.shared.stats,
            dst,
            FrameKind::Error,
            0,
            stream,
            seq,
            &payload,
        );
    }

    /// Encodes one frame into the scratch buffer and sends it. Send
    /// failures are ignored: UDP gives no delivery promise anyway, and
    /// the client's deadline accounts for the loss.
    #[allow(clippy::too_many_arguments)]
    fn send(
        sock: &UdpSocket,
        wbuf: &mut Vec<u8>,
        stats: &ServerStats,
        dst: SocketAddr,
        kind: FrameKind,
        frame_flags: u8,
        stream: u64,
        seq: u64,
        payload: &[u8],
    ) {
        wbuf.clear();
        encode_raw(wbuf, kind, frame_flags, stream, seq, payload);
        if sock.send_to(wbuf, dst).is_ok() {
            ServerStats::bump(&stats.dgram_packets_sent);
        }
    }
}

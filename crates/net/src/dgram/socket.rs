//! The server side of MHNP-D: the UDP socket and its attach table,
//! owned by reactor 0 and served in that reactor's tick.
//!
//! The port owns no cipher state of its own. Streams live in the shared
//! [`mhhea::gateway::StreamMux`]; eviction snapshots and resume tokens
//! live in the shared registry; the port only keeps the
//! *datagram-specific* per-stream state: which peer address the stream
//! is bound to, the epoch its replay windows were built for, and the
//! windows themselves. Each tick, after the TCP connections are parsed,
//! reactor 0 drains the socket: attaches are answered inline, and
//! accepted chunks join the tick's [`mhhea::gateway::StreamMux::submit_batch`]
//! as [`StreamOp::SealChunk`]/[`StreamOp::OpenChunk`], which re-check
//! the epoch under the shard lock — the port's epoch cache is an
//! optimisation and a window-reset trigger, never the authority. Their
//! replies go back to the source address in the tick's reply pass.
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

use mhhea::gateway::{GatewayError, StreamId, StreamOp};

use crate::conn::{encode_answer, Answer, ReplyTo, TickSink, Verdict};
use crate::frame::{
    decode_blocks, decode_token, encode_raw, flags, split_seq, ErrorCode, Frame, FrameKind,
};
use crate::reactor::{Shared, Unpark};
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

/// The smallest attach-table length at which entries without a resume
/// token are swept.
const MIN_SWEEP_AT: usize = 64;

/// The MHNP-D socket and attach table. Built by `NetServer` when the
/// datagram path is enabled and handed to reactor 0.
pub(crate) struct DgramPort {
    sock: UdpSocket,
    streams: HashMap<u64, Attached>,
    /// Sweep entries whose stream lost its resume token (it ended by
    /// `Bye` or was closed for want of snapshot room) once `streams`
    /// reaches this length: max(2 × live at the last sweep, 64).
    sweep_at: usize,
    /// Reply-payload and whole-packet encode buffers.
    scratch: Vec<u8>,
    wbuf: Vec<u8>,
}

impl DgramPort {
    /// Wraps a bound, non-blocking socket.
    pub(crate) fn new(sock: UdpSocket) -> DgramPort {
        DgramPort {
            sock,
            streams: HashMap::new(),
            sweep_at: MIN_SWEEP_AT,
            scratch: Vec::new(),
            wbuf: Vec::with_capacity(DGRAM_MAX_PACKET_BYTES),
        }
    }

    /// Drains the socket through `scratch`, reading at most `budget`
    /// bytes: attaches are answered inline, vetted data packets join the
    /// tick's batch (or its refusals) through `sink`, and everything else
    /// is dropped. Returns whether any packet arrived.
    pub(crate) fn drain_tick(
        &mut self,
        shared: &Shared,
        scratch: &mut [u8],
        budget: usize,
        sink: &mut TickSink<'_>,
    ) -> bool {
        // A datagram bigger than the largest legal packet is truncated by
        // the socket, fails the CRC, and is dropped like any other
        // undecodable packet.
        let cap = scratch.len().min(DGRAM_MAX_PACKET_BYTES);
        let Some(rbuf) = scratch.get_mut(..cap) else {
            return false;
        };
        let mut budget = budget;
        let mut moved = false;
        while budget > 0 {
            let (n, src) = match self.sock.recv_from(rbuf) {
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // WouldBlock ends the drain. So does any other error
                // (e.g. an ICMP unreachable surfacing on some platforms):
                // it is consumed, and the next tick reads on.
                Err(_) => break,
            };
            moved = true;
            // Empty datagrams still cost budget, so a flood of them
            // cannot hold the tick.
            budget = budget.saturating_sub(n.max(1));
            ServerStats::bump(&shared.stats.dgram_packets_received);
            let frame = match rbuf.get(..n).map(decode_datagram) {
                Some(Ok(frame)) => frame,
                // Undecodable: silent drop, never reflected.
                _ => {
                    ServerStats::bump(&shared.stats.dgram_rejected);
                    continue;
                }
            };
            match frame.kind {
                FrameKind::DgramResume => self.handle_attach(shared, &frame, src),
                FrameKind::DgramData => {
                    let (stream, seq) = (frame.stream, frame.seq);
                    match self.vet_data(shared, frame, src) {
                        Some(verdict) => sink.push(ReplyTo::Peer(src), stream, seq, verdict),
                        None => ServerStats::bump(&shared.stats.dgram_rejected),
                    }
                }
                // Stream-transport kinds (and server-emitted dgram kinds)
                // have no business arriving here; drop without reflection.
                _ => {
                    ServerStats::bump(&shared.stats.dgram_rejected);
                    ServerStats::bump(&shared.stats.protocol_errors);
                }
            }
        }
        moved
    }

    /// A `DgramResume`, the MHNP-D side of a TCP `Resume`: verify the
    /// resume token, restore the stream if parked (exactly as a TCP
    /// `Resume` would) or attach it in place if live, bind it to the
    /// source address, and ack with its epoch. The client cannot tell
    /// the two apart, so attach is idempotent under duplication and
    /// retry. Every refusal — a malformed token payload, a wrong token,
    /// an unknown stream, a failed restore, a stream neither parked nor
    /// live (a teardown race) — is a uniform silent drop: the source has
    /// not passed the token check, so a reply would be amplification and
    /// a live/parked oracle. The client learns of refusal by its ack
    /// deadline, and retries.
    fn handle_attach(&mut self, shared: &Shared, frame: &Frame, src: SocketAddr) {
        let stream = frame.stream;
        let epoch = match decode_token(&frame.payload).map(|t| shared.unpark(stream, t)) {
            Some(Unpark::Restored(epoch)) => Some(epoch),
            // Live, or a TCP resume raced the restore and it is live now.
            Some(Unpark::NotParked | Unpark::Failed(GatewayError::StreamExists(_))) => {
                shared.mux.epoch(StreamId(stream)).ok()
            }
            _ => None,
        };
        let Some(epoch) = epoch else {
            ServerStats::bump(&shared.stats.dgram_rejected);
            return;
        };
        match self.streams.get_mut(&stream) {
            // Same-epoch re-attach (a retried or duplicated DgramResume, a
            // roaming client, or a client coming back after its stream was
            // parked and restored): rebind the peer but KEEP the replay
            // windows — resetting them would reopen every already-served
            // seal index to replay.
            Some(at) if at.epoch == epoch => at.peer = src,
            _ => {
                if self.streams.len() >= self.sweep_at {
                    // Streams that ended without another datagram never
                    // reach the drop in `vet_data`; sweep them here.
                    shared.retain_tokened(&mut self.streams);
                    self.sweep_at = (2 * self.streams.len()).max(MIN_SWEEP_AT);
                }
                let window = shared.cfg.dgram_window;
                self.streams.insert(
                    stream,
                    Attached {
                        peer: src,
                        epoch,
                        seal_window: ReorderWindow::new(window),
                        open_window: ReorderWindow::new(window),
                    },
                );
                ServerStats::bump(&shared.stats.dgram_attached);
            }
        }
        // The ack payload is the 4-byte LE epoch — the same shape as a
        // Rekey payload.
        self.wbuf.clear();
        let ack = epoch.to_le_bytes();
        encode_raw(
            &mut self.wbuf,
            FrameKind::DgramAck,
            0,
            stream,
            frame.seq,
            &ack,
        );
        self.send(&shared.stats, src);
    }

    /// Everything about a `DgramData` packet that can be decided from the
    /// port's own state: attribution, epoch freshness, payload shape,
    /// and the replay window. `None` means drop silently: the packet
    /// could not be attributed to an attached stream, so answering it
    /// would be amplification.
    fn vet_data(&mut self, shared: &Shared, frame: Frame, src: SocketAddr) -> Option<Verdict> {
        let stream = frame.stream;
        // One uniform answer — silence — for "never attached" and "bound
        // to a different peer": a sender probing stream ids must not
        // learn which are attached, an injector sending from the wrong
        // address must not learn that the id was right, and neither
        // source has earned a reply (see the module docs).
        let at = self.streams.get_mut(&stream)?;
        if at.peer != src {
            return None;
        }
        // The mux is the epoch authority: a TCP Rekey may have rotated
        // the stream since the last packet, and an evicted/closed stream
        // must refuse here.
        let Ok(current) = shared.mux.epoch(StreamId(stream)) else {
            // The stream left the mux — evicted to a parked snapshot on a
            // TCP disconnect, or torn down for good. The entry (and with
            // it the replay windows) must survive a park: a resume
            // restores the snapshot at the SAME epoch, so forgetting the
            // windows here would reopen every index already served in
            // that epoch on the next re-attach. Only when no resume token
            // exists can the stream never legally return, and only then
            // is the entry dropped.
            if !shared.has_token(stream) {
                self.streams.remove(&stream);
            }
            // Attributed (the peer passed the token check), so the
            // refusal is answered: it tells the client to re-attach.
            return Some(Err((
                ErrorCode::UnknownStream,
                "stream not attached on the datagram path".into(),
            )));
        };
        if current != at.epoch {
            at.epoch = current;
            at.seal_window.reset();
            at.open_window.reset();
        }
        let (epoch, index) = split_seq(frame.seq);
        if epoch != current {
            return Some(Err((
                ErrorCode::StaleEpoch,
                format!("stream is at epoch {current}, datagram stamped epoch {epoch}"),
            )));
        }
        // Shape and size checks come before the window: a malformed or
        // oversize packet must not burn its index's replay slot.
        let open = frame.flags & flags::DIR_OPEN != 0;
        let op = if open {
            let (bit_len, blocks) = match decode_blocks(&frame.payload) {
                Ok(decoded) => decoded,
                Err(e) => return Some(Err((ErrorCode::Protocol, e.to_string()))),
            };
            if bit_len as usize > DGRAM_MAX_CHUNK_BYTES * 8 {
                return Some(Err((
                    ErrorCode::MessageTooLarge,
                    format!("chunk of {bit_len} bits exceeds the datagram chunk cap"),
                )));
            }
            StreamOp::OpenChunk {
                epoch,
                blocks,
                bit_len: bit_len as usize,
            }
        } else {
            let len = frame.payload.len();
            if len > DGRAM_MAX_CHUNK_BYTES {
                return Some(Err((
                    ErrorCode::MessageTooLarge,
                    format!(
                        "chunk of {len} bytes exceeds the {DGRAM_MAX_CHUNK_BYTES}-byte datagram chunk cap"
                    ),
                )));
            }
            StreamOp::SealChunk {
                epoch,
                index,
                plain: frame.payload,
            }
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
        Some(match window.insert(index) {
            Slot::Accepted => Ok(op),
            Slot::Duplicate => Err((
                ErrorCode::DuplicateChunk,
                format!("chunk index {index} was already served in epoch {epoch}"),
            )),
            Slot::Expired => Err((
                ErrorCode::ChunkExpired,
                format!("chunk index {index} fell behind the replay window"),
            )),
        })
    }

    /// Sends a datagram ticket's answer to `dst`, framed by
    /// [`encode_answer`] as a `DgramReply` (or an `Error`, counted as
    /// rejected).
    pub(crate) fn answer(
        &mut self,
        stats: &ServerStats,
        dst: SocketAddr,
        stream: u64,
        seq: u64,
        bit_len: u32,
        answer: &Answer,
    ) {
        self.wbuf.clear();
        let (out, scratch) = (&mut self.wbuf, &mut self.scratch);
        let reply = FrameKind::DgramReply;
        let Some(kind) = encode_answer(out, scratch, reply, stream, seq, bit_len, answer) else {
            debug_assert!(false, "datagram tickets never rekey");
            return;
        };
        let served = if kind == FrameKind::Error {
            &stats.dgram_rejected
        } else {
            &stats.dgram_chunks
        };
        ServerStats::bump(served);
        self.send(stats, dst);
    }

    /// Sends the frame encoded in `wbuf`. Send failures are ignored: UDP
    /// gives no delivery promise anyway, and the client's deadline
    /// accounts for the loss.
    fn send(&self, stats: &ServerStats, dst: SocketAddr) {
        if self.sock.send_to(&self.wbuf, dst).is_ok() {
            ServerStats::bump(&stats.dgram_packets_sent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::frame::Hello;
    use crate::server::ServerConfig;

    /// Streams that attach and then end by `Bye`, with no datagram after,
    /// leave no attach entry behind once the table has grown; a stream
    /// that stays live keeps its entry, replay window and all.
    #[test]
    fn ended_streams_do_not_grow_the_attach_table() {
        let key = mhhea::Key::from_nibbles(&[(0, 3), (2, 5)]).unwrap();
        let cfg = ServerConfig::new([(1, key)]).with_dgram();
        let shared = Shared::new(cfg, Arc::new(ServerStats::default()));
        let mut port = DgramPort::new(UdpSocket::bind("127.0.0.1:0").unwrap());
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (mut streams, mut kex) = (HashMap::new(), HashMap::new());
        let mut control = |kind, stream, payload| {
            let frame = Frame::new(kind, stream, 0).with_payload(payload);
            shared.handle_control(&mut streams, &mut kex, &frame).reply
        };
        let src = peer.local_addr().unwrap();
        for stream in std::iter::once(7).chain(1_000..11_000u64) {
            let ack = control(FrameKind::Hello, stream, Hello::new(1, 0xACE1).encode());
            assert_eq!(ack.kind, FrameKind::HelloAck, "stream {stream}");
            let resume = Frame::new(FrameKind::DgramResume, stream, 0).with_payload(ack.payload);
            port.handle_attach(&shared, &resume, src);
            if stream == 7 {
                port.streams.get_mut(&7).unwrap().seal_window.insert(3);
                continue;
            }
            let bye = control(FrameKind::Bye, stream, Vec::new());
            assert_eq!(bye.kind, FrameKind::Bye);
            assert!(port.streams.len() <= MIN_SWEEP_AT, "stream {stream}");
        }
        let live = port.streams.get_mut(&7).expect("live stream kept");
        assert_eq!(live.seal_window.insert(3), Slot::Duplicate);
    }
}

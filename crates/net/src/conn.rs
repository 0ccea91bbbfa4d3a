//! The per-connection state machine — the bottom layer of the server.
//!
//! A [`Conn`] owns everything that belongs to exactly one connection:
//! the receive buffer and incremental frame parsing, the per-stream
//! sequence expectations (validated here, including the epoch split and
//! the rekey synchronisation point), the write buffer with backpressure
//! accounting, and the close/half-close grace machinery.
//!
//! What a `Conn` deliberately does **not** know about is the loop that
//! drives it: it is generic over any non-blocking [`Read`] + [`Write`]
//! byte stream and has no notion of readiness loops, reactors, accept
//! sharding, or the shared stream registry. The reactor layer
//! ([`crate::reactor`]) calls `read_tick` / `parse_tick` / `flush_tick`
//! and routes anything connection-transcending (handshakes, the gateway
//! batch, eviction) through shared state it owns. That decoupling is
//! what lets N reactor threads drive disjoint connection sets over one
//! gateway. The tick plumbing defined here (tickets and [`TickSink`])
//! also carries the datagram path's chunks, which reactor 0 queues into
//! the same batch with replies routed to a peer address.
//!
//! Reply framing is zero-copy per frame: payloads are encoded into a
//! per-connection scratch buffer (or borrowed outright) and appended to
//! the write buffer via [`frame::encode_raw`], so the reply path
//! performs no per-frame allocations once the buffers are warm.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mhhea::gateway::{GatewayError, StreamId, StreamOp, StreamOutput};

use crate::frame::{
    self, decode_blocks, decode_rekey, encode_error, flags, split_seq, ErrorCode, Frame, FrameKind,
    HEADER_LEN, MAX_ERROR_DETAIL_BYTES,
};
use crate::server::{ServerStats, MAX_MESSAGE_BYTES};

/// stream id → next expected `Data`/`Rekey` sequence number, for the
/// streams a connection owns.
pub(crate) type StreamTable = HashMap<u64, u64>;

/// stream id → the half-done MHKX exchange parked between `KeyEx`
/// phase 1 and phase 2 on this connection.
pub(crate) type KexTable = HashMap<u64, PendingKex>;

/// Most simultaneous half-open MHKX exchanges one connection may park.
/// Each entry is a few dozen bytes, but phase 2 may never arrive — the
/// cap keeps a handshake-spraying client from growing server memory.
pub(crate) const MAX_PENDING_KEX: usize = 16;

/// Everything the server keeps between `KeyEx` phase 1 and phase 2 —
/// deliberately *not* the ephemeral secret, which is dropped as soon as
/// the shared secret is derived (forward secrecy): a phase-1 frame
/// costs the server one DH plus this struct, never a live secret.
pub(crate) struct PendingKex {
    /// The client tag that must arrive in phase 2 (constant-time
    /// compared).
    pub expected_tag: [u8; frame::KEX_TAG_LEN],
    /// Derived key-pair schedule bytes for `Key::from_bytes`.
    pub key_bytes: [u8; 16],
    /// Derived LFSR master seed (nonzero).
    pub seed: u16,
    /// Cipher variant the stream will run.
    pub algorithm: mhhea::Algorithm,
    /// Buffering profile the stream will run.
    pub profile: mhhea::Profile,
    /// Target epoch: 0 = fresh open, > 0 = fresh-DH rotation.
    pub epoch: u32,
}

/// What validating a `Data`/`Rekey` frame or a `DgramData` packet
/// decided: the gateway op to queue, or the refusal to answer without
/// touching cipher state.
pub(crate) type Verdict = Result<StreamOp, (ErrorCode, String)>;

/// A ticket's answer: its op's output, or the refusal to send back.
pub(crate) type Answer = Result<StreamOutput, (ErrorCode, String)>;

/// Where a ticket's answer goes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReplyTo {
    /// The connection at this index in the reactor's table.
    Conn(usize),
    /// The datagram peer at this source address.
    Peer(SocketAddr),
}

/// One validated request, answered *in request order*.
pub(crate) struct DataTicket {
    pub to: ReplyTo,
    pub stream: u64,
    pub seq: u64,
    /// The plaintext bit length a seal reply's blocks are prefixed with.
    pub bit_len: u32,
    /// The request's slot in this tick's gateway batch, or its refusal
    /// (made before touching any cipher state).
    pub slot: Result<usize, (ErrorCode, String)>,
}

/// Takes a ticket's answer out of the tick's batch results. A missing
/// slot is a bookkeeping bug, answered as an engine error rather than
/// with a reactor panic.
pub(crate) fn take_answer(
    slot: Result<usize, (ErrorCode, String)>,
    results: &mut [Option<Result<StreamOutput, GatewayError>>],
) -> Answer {
    match results.get_mut(slot?).and_then(Option::take) {
        Some(Ok(output)) => Ok(output),
        Some(Err(e)) => {
            // The machine-distinguishable failures: a rotation (or a
            // chunk) racing another rotation, and a stream that left the
            // mux under a datagram chunk.
            let code = match e {
                GatewayError::StaleEpoch { .. } => ErrorCode::StaleEpoch,
                GatewayError::UnknownStream(_) => ErrorCode::UnknownStream,
                _ => ErrorCode::Engine,
            };
            Err((code, e.to_string()))
        }
        None => {
            debug_assert!(false, "each slot consumed once");
            let detail = "internal: batch result slot missing";
            Err((ErrorCode::Engine, detail.into()))
        }
    }
}

/// Appends a ticket's answer to `out` as one frame, and returns its
/// kind. A seal's blocks (prefixed with `bit_len`) and an open's
/// plaintext (flagged [`flags::DIR_OPEN`]) travel as a `reply` frame, a
/// refusal as an `Error` frame (`code ∥ truncated detail`); payloads are
/// encoded through the reusable `scratch`. A rotation's ack is TCP-only,
/// so it yields `None` and appends nothing.
pub(crate) fn encode_answer(
    out: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    reply: FrameKind,
    stream: u64,
    seq: u64,
    bit_len: u32,
    answer: &Answer,
) -> Option<FrameKind> {
    scratch.clear();
    let (kind, flags, payload) = match answer {
        Ok(StreamOutput::Blocks(blocks)) => {
            scratch.extend_from_slice(&bit_len.to_le_bytes());
            for b in blocks {
                scratch.extend_from_slice(&b.to_le_bytes());
            }
            (reply, 0, scratch.as_slice())
        }
        Ok(StreamOutput::Plain(plain)) => (reply, flags::DIR_OPEN, plain.as_slice()),
        Ok(StreamOutput::Rekeyed { .. }) => return None,
        Err((code, detail)) => {
            // lint: allow(truncating-cast, reason = "ErrorCode is repr(u8); the discriminant is the wire byte")
            scratch.push(*code as u8);
            let cap = detail.len().min(MAX_ERROR_DETAIL_BYTES);
            scratch.extend_from_slice(detail.as_bytes().get(..cap).unwrap_or_default());
            (FrameKind::Error, 0, scratch.as_slice())
        }
    };
    frame::encode_raw(out, kind, flags, stream, seq, payload);
    Some(kind)
}

/// The per-tick accumulators the parse phase feeds: the reactor's shared
/// gateway batch, the ordered ticket list, deferred goodbye frames, and
/// the set of streams with a rotation in flight.
pub(crate) struct TickSink<'a> {
    pub batch: &'a mut Vec<(StreamId, StreamOp)>,
    pub tickets: &'a mut Vec<DataTicket>,
    pub goodbyes: &'a mut Vec<(usize, Frame)>,
    pub rekey_pending: &'a mut HashSet<u64>,
    pub stats: &'a ServerStats,
}

impl TickSink<'_> {
    /// Queues a validated request: its op joins the batch behind a
    /// ticket, or its refusal becomes a ticket of its own.
    pub(crate) fn push(&mut self, to: ReplyTo, stream: u64, seq: u64, verdict: Verdict) {
        // Both validators cap a seal's plaintext far below u32::MAX bits.
        let bit_len = match &verdict {
            Ok(StreamOp::Encrypt(plain) | StreamOp::SealChunk { plain, .. }) => {
                u32::try_from(plain.len() * 8).unwrap_or(u32::MAX)
            }
            _ => 0,
        };
        let slot = verdict.map(|op| {
            self.batch.push((StreamId(stream), op));
            self.batch.len() - 1
        });
        self.tickets.push(DataTicket {
            to,
            stream,
            seq,
            bit_len,
            slot,
        });
    }
}

/// What the control layer decided about a `Hello`/`Resume`/`Bye` (or a
/// protocol-violating kind): the reply to queue, and whether the
/// connection must be hung up.
pub(crate) struct ControlAction {
    pub reply: Frame,
    pub hang_up: bool,
}

/// One live connection. Generic over the byte stream so the state
/// machine carries no socket (or loop) assumptions; the server
/// instantiates it with a non-blocking `TcpStream`.
pub(crate) struct Conn<S> {
    sock: S,
    /// Unparsed received bytes (a frame may span many reads).
    rbuf: Vec<u8>,
    /// Bytes queued for the socket; `wpos..` is still unsent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Streams owned by this connection, with their sequence
    /// expectations. Ownership is the cross-connection isolation
    /// boundary: no other connection (on any reactor) can address them.
    pub(crate) streams: StreamTable,
    /// Half-open MHKX exchanges (between `KeyEx` phases), keyed by
    /// stream id. Connection-scoped like `streams`: an exchange begun
    /// here can only be completed here, so a phase-2 frame replayed on
    /// another connection finds nothing.
    pub(crate) kex: KexTable,
    /// Reusable payload-encode scratch for the reply path.
    payload_scratch: Vec<u8>,
    /// Flush what is queued, then close (set after a protocol violation).
    closing: bool,
    /// The peer half-closed (EOF on read). Frames already received are
    /// still parsed and answered; the connection dies once every queued
    /// reply flushes.
    eof: bool,
    /// When `closing`/`eof` was first observed — a peer that never drains
    /// the remaining frames is torn down once the close grace elapses.
    closing_since: Option<Instant>,
    /// Tear down at the end of the tick.
    pub(crate) dead: bool,
}

impl<S: Read + Write> Conn<S> {
    pub(crate) fn new(sock: S) -> Conn<S> {
        Conn {
            sock,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            streams: HashMap::new(),
            kex: HashMap::new(),
            payload_scratch: Vec::new(),
            closing: false,
            eof: false,
            closing_since: None,
            dead: false,
        }
    }

    /// Bytes queued for the socket but not yet written — the
    /// backpressure measure.
    pub(crate) fn queued(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Marks the connection for teardown after its queued frames flush
    /// (or the close grace expires). Pending unparsed input is discarded —
    /// framing is already lost.
    pub(crate) fn start_closing(&mut self) {
        self.closing = true;
        self.closing_since.get_or_insert_with(Instant::now);
        self.rbuf.clear();
    }

    /// Promotes an aged-out closing/half-closed connection to dead: a
    /// peer that never drains the remaining frames must not linger
    /// forever (`flush_tick` only kills it once the write buffer empties).
    pub(crate) fn expire_grace(&mut self, grace: Duration) {
        if (self.closing || self.eof) && !self.dead {
            let expired = self
                .closing_since
                .is_none_or(|since| since.elapsed() >= grace);
            if expired {
                self.dead = true;
            }
        }
    }

    /// Drains the socket into the receive buffer, honouring the read
    /// budget and write-side backpressure (`write_buf_limit`). Returns
    /// whether bytes moved.
    pub(crate) fn read_tick(
        &mut self,
        scratch: &mut [u8],
        read_budget: usize,
        write_buf_limit: usize,
    ) -> bool {
        if self.dead || self.eof {
            return false;
        }
        if self.closing {
            // No longer parsing, but keep draining-and-discarding (within
            // the tick's read budget) so a peer that hangs up is noticed
            // now rather than only when the close grace expires.
            let mut budget = read_budget;
            while budget > 0 {
                let want = scratch.len().min(budget);
                // lint: allow(panic-path, reason = "`want` is clamped to scratch.len() on the previous line")
                match self.sock.read(&mut scratch[..want]) {
                    Ok(0) => {
                        self.dead = true;
                        break;
                    }
                    Ok(n) => budget -= n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            return false;
        }
        if self.queued() >= write_buf_limit {
            // Backpressure: a client that stops reading replies stops
            // being read from, instead of growing server memory.
            return false;
        }
        let mut moved = false;
        let mut budget = read_budget;
        while budget > 0 {
            let want = scratch.len().min(budget);
            // lint: allow(panic-path, reason = "`want` is clamped to scratch.len() on the previous line")
            match self.sock.read(&mut scratch[..want]) {
                Ok(0) => {
                    // Half-close, not death: frames already in rbuf (even
                    // ones received in this very tick) are still parsed
                    // and answered before the connection is torn down.
                    self.eof = true;
                    self.closing_since.get_or_insert_with(Instant::now);
                    break;
                }
                Ok(n) => {
                    // lint: allow(panic-path, reason = "a conforming Read returns n ≤ the slice it was handed")
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    moved = true;
                    budget -= n;
                    if n < want {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        moved
    }

    /// Parses complete frames in arrival order. `Data`/`Rekey` frames are
    /// validated against this connection's sequence expectations and join
    /// the tick's batch via `sink`; control frames are dispatched to
    /// `control` — but only while no data frame from this connection is
    /// already queued, otherwise the control frame waits a tick so
    /// replies never overtake each other.
    ///
    /// `idx` is this connection's index in the reactor's table, stamped
    /// into tickets and goodbyes so the reply phase can route back.
    pub(crate) fn parse_tick(
        &mut self,
        idx: usize,
        sink: &mut TickSink<'_>,
        control: &mut dyn FnMut(&mut StreamTable, &mut KexTable, &Frame) -> ControlAction,
    ) -> bool {
        if self.closing || self.dead {
            return false;
        }
        let mut consumed = 0;
        let mut data_queued = false;
        let mut handled = false;
        loop {
            // lint: allow(panic-path, reason = "decode reports `used` ≤ the slice it parsed, so `consumed` never passes rbuf.len()")
            let frame = match frame::decode(&self.rbuf[consumed..]) {
                Ok(None) => break,
                Ok(Some((frame, used))) => {
                    consumed += used;
                    frame
                }
                Err(e) => {
                    // Framing is lost: answer once (deferred behind this
                    // tick's replies so it cannot overtake them), then
                    // hang up. Other connections (and their streams) are
                    // untouched.
                    ServerStats::bump(&sink.stats.protocol_errors);
                    sink.goodbyes.push((
                        idx,
                        Frame::new(FrameKind::Error, 0, 0)
                            .with_payload(encode_error(ErrorCode::Protocol, &e.to_string())),
                    ));
                    self.start_closing();
                    return true;
                }
            };
            if frame.kind == FrameKind::Data || frame.kind == FrameKind::Rekey {
                ServerStats::bump(&sink.stats.frames_received);
                handled = true;
                data_queued = true;
                let (stream, seq) = (frame.stream, frame.seq);
                let verdict = self.validate_data(frame, sink.rekey_pending);
                sink.push(ReplyTo::Conn(idx), stream, seq, verdict);
            } else {
                if data_queued {
                    // Preserve order: this control frame executes only
                    // after the queued data work ran. Rewind and retry
                    // next tick (not counted as received yet).
                    consumed -= HEADER_LEN + frame.payload.len();
                    break;
                }
                ServerStats::bump(&sink.stats.frames_received);
                handled = true;
                let action = control(&mut self.streams, &mut self.kex, &frame);
                self.push_frame(&action.reply);
                ServerStats::bump(&sink.stats.frames_sent);
                if action.hang_up {
                    // The control layer hung up (server-only kind) —
                    // nothing left to parse or drain on this connection.
                    self.start_closing();
                    return true;
                }
            }
        }
        self.rbuf.drain(..consumed);
        handled
    }

    /// Validates a `Data`/`Rekey` frame (ownership, epoch, sequence,
    /// payload shape) against this connection's stream table and either
    /// returns the gateway op to enqueue or the rejection to answer.
    /// Rejections never touch cipher state, so the stream survives them.
    fn validate_data(&mut self, frame: Frame, rekey_pending: &mut HashSet<u64>) -> Verdict {
        let stream = frame.stream;
        let seq = frame.seq;
        let Some(&expected) = self.streams.get(&stream) else {
            return Err((
                ErrorCode::UnknownStream,
                format!("stream {stream} is not open on this connection"),
            ));
        };
        if self.kex.contains_key(&stream) {
            // An MHKX rotation for this stream is between phase 1 and
            // phase 2: like the classic rekey synchronisation point, the
            // sequence space is about to be restamped, so data is
            // rejected without consuming anything until the exchange
            // completes (or fails and is discarded).
            return Err((
                ErrorCode::BadSequence,
                "a key exchange is in flight on this stream; finish it first".to_string(),
            ));
        }
        if rekey_pending.contains(&stream) {
            // A rotation for this stream is queued but not yet acked: the
            // sequence space this frame would be validated against is
            // about to be restamped, and the gateway would execute the
            // frame *after* the rotation whatever its stamp claims. Rekey
            // is a synchronisation point — reject without consuming
            // anything; the client resends after the ack.
            return Err((
                ErrorCode::BadSequence,
                "a rekey is in flight on this stream; wait for the ack".to_string(),
            ));
        }
        let (cur_epoch, cur_counter) = split_seq(expected);
        let (frame_epoch, frame_counter) = split_seq(seq);
        if frame_epoch < cur_epoch {
            // A replay from before a rotation. The dedicated code lets
            // clients and monitors tell "stale capture" from an ordinary
            // sequencing bug; either way no cipher state is touched and
            // the sequence number is not consumed.
            return Err((
                ErrorCode::StaleEpoch,
                format!(
                    "frame stamped with retired epoch {frame_epoch}; stream is at epoch {cur_epoch}"
                ),
            ));
        }
        if seq != expected {
            return Err((
                ErrorCode::BadSequence,
                format!(
                    "expected epoch {cur_epoch} counter {cur_counter}, \
                     got epoch {frame_epoch} counter {frame_counter}"
                ),
            ));
        }
        if cur_counter == u32::MAX && frame.kind != FrameKind::Rekey {
            // Accepting a Data frame here would roll the counter into the
            // epoch bits. Practically unreachable (2³² messages in one
            // epoch), but never silently — and `Rekey` is deliberately
            // exempt: rotating to a fresh epoch is the escape hatch this
            // error advises, so it must still be accepted.
            return Err((
                ErrorCode::Protocol,
                "per-epoch sequence space exhausted; rekey the stream".to_string(),
            ));
        }
        let op = if frame.kind == FrameKind::Rekey {
            match decode_rekey(&frame.payload) {
                Ok(epoch) if epoch > cur_epoch => StreamOp::Rekey { epoch },
                Ok(epoch) => {
                    return Err((
                        ErrorCode::StaleEpoch,
                        format!(
                            "rekey to epoch {epoch} is not newer than current epoch {cur_epoch}"
                        ),
                    ));
                }
                Err(e) => return Err((ErrorCode::Protocol, e.to_string())),
            }
        } else if frame.flags & flags::DIR_OPEN != 0 {
            match decode_blocks(&frame.payload) {
                Ok((bit_len, blocks)) => StreamOp::Decrypt {
                    blocks,
                    bit_len: bit_len as usize,
                },
                Err(e) => return Err((ErrorCode::Protocol, e.to_string())),
            }
        } else {
            if frame.payload.len() > MAX_MESSAGE_BYTES {
                // The sealed reply could exceed MAX_PAYLOAD (worst-case
                // key expansion is 16×) — reject before the cipher runs
                // rather than panic framing an unsendable reply.
                return Err((
                    ErrorCode::MessageTooLarge,
                    format!(
                        "message of {} bytes exceeds the {MAX_MESSAGE_BYTES}-byte seal cap",
                        frame.payload.len()
                    ),
                ));
            }
            StreamOp::Encrypt(frame.payload)
        };
        // Consume the sequence number in the *current* epoch; a
        // successful rekey additionally restamps it to the new epoch's
        // counter 0 when the ack is built. An accepted Rekey also blocks
        // every further frame on the stream until that restamp
        // (`rekey_pending`), so nothing can be validated against the old
        // epoch but executed after the rotation. At counter u32::MAX only
        // a Rekey can get here — skip the bump (it would roll into the
        // epoch bits); the pending guard covers the gap until the ack.
        if matches!(op, StreamOp::Rekey { .. }) {
            rekey_pending.insert(stream);
        }
        if cur_counter != u32::MAX {
            // `expected` was read out of this entry above, so the lookup
            // cannot miss; `if let` keeps that assumption panic-free.
            if let Some(next) = self.streams.get_mut(&stream) {
                *next = expected + 1;
            }
        }
        Ok(op)
    }

    /// Appends an already-built frame to the write buffer (handshake and
    /// goodbye path — not per-message hot).
    pub(crate) fn push_frame(&mut self, frame: &Frame) {
        frame.encode_into(&mut self.wbuf);
    }

    /// Appends a ticket's answer, framed by [`encode_answer`] as a
    /// `Reply` (or an `Error`) — no per-frame allocation.
    pub(crate) fn push_answer(&mut self, stream: u64, seq: u64, bit_len: u32, answer: &Answer) {
        let scratch = &mut self.payload_scratch;
        encode_answer(
            &mut self.wbuf,
            scratch,
            FrameKind::Reply,
            stream,
            seq,
            bit_len,
            answer,
        );
    }

    /// Writes as much of the queued bytes as the socket takes. Returns
    /// whether bytes moved; promotes fully-drained closing/half-closed
    /// connections to dead.
    pub(crate) fn flush_tick(&mut self) -> bool {
        if self.dead {
            return false;
        }
        let mut moved = false;
        while self.wpos < self.wbuf.len() {
            // lint: allow(panic-path, reason = "the loop condition keeps wpos < wbuf.len()")
            match self.sock.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if moved && (self.closing || self.eof) {
            // close_grace is an *idle* timeout, not an absolute deadline:
            // a half-closed peer actively draining a large reply backlog
            // must not be torn down mid-drain.
            self.closing_since = Some(Instant::now());
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.closing || (self.eof && self.rbuf.is_empty()) {
                // Goodbye (or the half-closed peer's last replies) fully
                // flushed and nothing left to parse — nothing more will
                // ever arrive or leave. (An eof conn with leftover bytes
                // gets one more tick to parse them — e.g. a control frame
                // deferred behind data — or ages out via close_grace if
                // they are a forever-partial frame.)
                self.dead = true;
            }
        } else if self.wpos > (64 << 10) {
            // Reclaim flushed prefix without waiting for full drain.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        moved
    }
}

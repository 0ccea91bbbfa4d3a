//! The MHNP wire format: length-prefixed, CRC-protected frames.
//!
//! Every message on an MHNP connection — handshakes, data, errors — is
//! one frame:
//!
//! ```text
//! offset size field
//! 0      4    magic  "MHNP"
//! 4      1    version (1)
//! 5      1    kind (see FrameKind)
//! 6      1    flags (see the `flags` module)
//! 7      1    reserved (0)
//! 8      8    stream id (u64 LE)
//! 16     8    sequence number (u64 LE)
//! 24     4    payload length (u32 LE, capped at MAX_PAYLOAD)
//! 28     4    CRC-32 (u32 LE) over bytes 0..28 (CRC field zeroed) ∥ payload
//! 32     n    payload
//! ```
//!
//! Decoding is incremental: [`decode`] reads from the front of a growing
//! receive buffer and distinguishes "not enough bytes yet" (`Ok(None)`)
//! from a protocol violation (`Err`), which is always connection-fatal —
//! once framing is lost there is no way to resynchronise a binary stream.
//! The declared payload length is validated *before* waiting for the
//! body, so a frame claiming 4 GiB is rejected from its header alone.
//!
//! Sequence numbers are per-stream and per-session, and the 64-bit `seq`
//! field is split: the **high 32 bits carry the stream's key epoch**, the
//! low 32 bits the per-epoch counter (see [`split_seq`]/[`join_seq`]).
//! A stream that never rekeys therefore puts plain `0, 1, 2, …` in the
//! field, exactly as before epochs existed. The first `Data`
//! frame after a `Hello`, `Resume` or `RekeyAck` carries counter 0, and
//! every accepted `Data`/`Rekey` frame increments the expectation by
//! one. Replays and gaps are rejected without touching the cipher state
//! — a frame stamped with a *retired* epoch with the dedicated
//! [`ErrorCode::StaleEpoch`] — so a rejected frame never desynchronises
//! the stream.

use bitkit::{le_u16, le_u32, le_u64};
use mhhea::{Algorithm, Profile};

use crate::crc::crc32_parts;

/// Frame magic bytes: "MHNP", the MHhea Network Protocol.
pub const MAGIC: [u8; 4] = *b"MHNP";
/// Wire format version.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes (payload follows).
pub const HEADER_LEN: usize = 32;
/// Largest accepted payload. Anything declaring more is rejected from the
/// header alone — before the receiver waits for (or allocates) the body.
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Longest error detail carried by an [`encode_error`] payload; longer
/// details are truncated so error frames stay small no matter what
/// produced the message.
pub const MAX_ERROR_DETAIL_BYTES: usize = 256;

/// What a frame means. The discriminants are the on-wire `kind` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: open a stream (payload: [`Hello`]).
    Hello = 1,
    /// Server → client: stream opened (flag [`flags::RESUMED`] when it was
    /// restored from an eviction snapshot). Payload: the stream's 8-byte
    /// resume token (u64 LE), which a later [`FrameKind::Resume`] must
    /// present; on a resumed ack the token is followed by the stream's
    /// current key epoch (u32 LE, see [`encode_resumed_ack`]) so the
    /// client can restamp its sequence numbers.
    HelloAck = 2,
    /// Client → server: work for the stream's cipher sessions. Without
    /// [`flags::DIR_OPEN`] the payload is plaintext to encrypt; with it,
    /// a `bit_len ∥ blocks` payload (see [`encode_blocks`]) to decrypt.
    Data = 3,
    /// Server → client: the result of a [`FrameKind::Data`] frame, echoing
    /// its sequence number. Payload mirrors the direction: `bit_len ∥
    /// blocks` for an encrypt, plaintext for a decrypt.
    Reply = 4,
    /// Client → server: close the stream and discard its state; the
    /// server echoes the frame back as confirmation.
    Bye = 5,
    /// Server → client: a stream-scoped or connection-fatal failure
    /// (payload: [`encode_error`]).
    Error = 6,
    /// Client → server: re-open a stream from the snapshot the server took
    /// when the previous connection died. Payload: the 8-byte resume token
    /// (u64 LE) the stream's `HelloAck` handed out — without it, any
    /// connection could hijack a parked stream by guessing its id.
    Resume = 7,
    /// Client → server: rotate the stream to a new key epoch (payload:
    /// [`encode_rekey`] — the epoch, u32 LE). Sequenced like `Data` — the
    /// frame consumes the next counter of the *current* epoch, so it is
    /// applied in order relative to in-flight traffic — and answered with
    /// [`FrameKind::RekeyAck`].
    Rekey = 8,
    /// Server → client: the stream now runs the requested epoch. Payload:
    /// [`encode_rekey_ack`] — the epoch plus a **freshly minted resume
    /// token** (the pre-rotation token is retired with the old epoch).
    /// The next `Data` frame must carry `seq = join_seq(epoch, 0)`.
    RekeyAck = 9,
    /// Client → server: ephemeral key agreement (MHKX). Phase 1 carries
    /// the client's X25519 public key plus the stream parameters
    /// ([`KeyExInit`]); phase 2 the client's key-confirmation tag
    /// ([`encode_key_ex_confirm`]). Opens a stream without any
    /// pre-shared key (`epoch = 0`) or rotates an open stream to a
    /// freshly derived key (`epoch > 0`). Answered with
    /// [`FrameKind::KeyExAck`].
    KeyEx = 10,
    /// Server → client: the MHKX answer. Phase 1 carries the server's
    /// X25519 public key and confirmation tag
    /// ([`encode_key_ex_ack_init`]); phase 2 the freshly minted resume
    /// token ([`encode_key_ex_ack_done`]) once the client's tag
    /// verified and the stream was opened (or rotated).
    KeyExAck = 11,
    /// Client → server, **MHNP-D (datagram) only**: attach a stream to
    /// the sender's UDP address. Payload: the 8-byte resume token (u64
    /// LE) the stream's TCP handshake handed out — key establishment
    /// stays on the reliable transport (`Hello` or MHKX); the datagram
    /// path only *presents* the result. A parked stream is restored from
    /// its eviction snapshot first; a live one is attached in place.
    DgramResume = 12,
    /// Server → client, MHNP-D only: the stream is attached to the
    /// sender's address. Payload: the stream's current key epoch (u32
    /// LE), which every subsequent [`FrameKind::DgramData`] must stamp.
    DgramAck = 13,
    /// Client → server, MHNP-D only: one independently-sealed chunk of
    /// work. `seq = join_seq(epoch, chunk_index)` — the index, not a
    /// counter, so each datagram is decodable and serviceable in
    /// isolation. Without [`flags::DIR_OPEN`] the payload is a plaintext
    /// chunk to seal; with it, an [`encode_blocks`] chunk to open.
    DgramData = 14,
    /// Server → client, MHNP-D only: the result of one
    /// [`FrameKind::DgramData`], echoing its sequence field (epoch ∥
    /// chunk index). Payload mirrors the direction: [`encode_blocks`]
    /// for a seal, raw plaintext for an open.
    DgramReply = 15,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::Data,
            4 => FrameKind::Reply,
            5 => FrameKind::Bye,
            6 => FrameKind::Error,
            7 => FrameKind::Resume,
            8 => FrameKind::Rekey,
            9 => FrameKind::RekeyAck,
            10 => FrameKind::KeyEx,
            11 => FrameKind::KeyExAck,
            12 => FrameKind::DgramResume,
            13 => FrameKind::DgramAck,
            14 => FrameKind::DgramData,
            15 => FrameKind::DgramReply,
            _ => return None,
        })
    }
}

/// Splits a `Data`/`Rekey` sequence field into `(epoch, counter)`: the
/// epoch rides the high 32 bits, the per-epoch counter the low 32. At
/// epoch 0 the field is numerically identical to a plain counter, which
/// is what keeps never-rekeyed streams byte-compatible with the
/// pre-epoch wire format.
///
/// ```
/// use mhhea_net::frame::{join_seq, split_seq};
///
/// assert_eq!(split_seq(5), (0, 5));
/// assert_eq!(split_seq(join_seq(3, 7)), (3, 7));
/// ```
pub fn split_seq(seq: u64) -> (u32, u32) {
    // lint: allow(truncating-cast, reason = "deliberate split: the two casts select the high and low 32-bit halves")
    ((seq >> 32) as u32, seq as u32)
}

/// Inverse of [`split_seq`].
pub fn join_seq(epoch: u32, counter: u32) -> u64 {
    (u64::from(epoch) << 32) | u64::from(counter)
}

/// Bit assignments for the header's `flags` byte.
pub mod flags {
    /// On [`super::FrameKind::Data`]: the payload is ciphertext to *open*
    /// (decrypt). Absent: plaintext to *seal* (encrypt).
    pub const DIR_OPEN: u8 = 0b0000_0001;
    /// On [`super::FrameKind::HelloAck`]: the stream was restored from an
    /// eviction snapshot rather than opened fresh.
    pub const RESUMED: u8 = 0b0000_0010;
}

/// One decoded (or to-be-encoded) MHNP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame means.
    pub kind: FrameKind,
    /// Kind-specific flag bits (see [`flags`]).
    pub flags: u8,
    /// The stream the frame belongs to (`0` for connection-scoped errors).
    pub stream: u64,
    /// Per-stream, per-session sequence number.
    pub seq: u64,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-less frame.
    pub fn new(kind: FrameKind, stream: u64, seq: u64) -> Frame {
        Frame {
            kind,
            flags: 0,
            stream,
            seq,
            payload: Vec::new(),
        }
    }

    /// Sets flag bits.
    #[must_use]
    pub fn with_flags(mut self, flags: u8) -> Frame {
        self.flags = flags;
        self
    }

    /// Attaches a payload.
    #[must_use]
    pub fn with_payload(mut self, payload: Vec<u8>) -> Frame {
        self.payload = payload;
        self
    }

    /// Serialises the frame, computing the CRC over header and payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`] — the caller is
    /// producing a frame no conforming receiver would accept.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the serialised frame to `out` — the allocation-free path
    /// for write buffers that batch many frames per flush.
    ///
    /// # Panics
    ///
    /// As [`Frame::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_raw(
            out,
            self.kind,
            self.flags,
            self.stream,
            self.seq,
            &self.payload,
        );
    }
}

/// Appends one frame built from borrowed parts — lets hot paths frame a
/// payload they do not own without first copying it into a [`Frame`].
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`] — the caller is
/// producing a frame no conforming receiver would accept.
pub fn encode_raw(
    out: &mut Vec<u8>,
    kind: FrameKind,
    flags: u8,
    stream: u64,
    seq: u64,
    payload: &[u8],
) {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "payload of {} bytes exceeds MAX_PAYLOAD",
        payload.len()
    );
    let start = out.len();
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind as u8); // lint: allow(truncating-cast, reason = "FrameKind is repr(u8); the discriminant is the wire byte")
    out.push(flags);
    out.push(0); // reserved
    out.extend_from_slice(&stream.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    // lint: allow(truncating-cast, reason = "the assert above caps payload.len() at MAX_PAYLOAD = 2^20, well inside u32")
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32_parts(&[&out[start..], payload]); // lint: allow(panic-path, reason = "start was out.len() before the appends above; the range is always in bounds")
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why a byte stream is not a valid MHNP frame. Every variant is
/// connection-fatal: framing cannot be recovered once it is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported wire format version.
    UnsupportedVersion(u8),
    /// Unknown `kind` byte.
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The length the header declared.
        declared: u64,
    },
    /// The CRC over header + payload does not match.
    BadCrc {
        /// The CRC the frame carried.
        carried: u32,
        /// The CRC the receiver computed.
        computed: u32,
    },
    /// A kind-specific payload had the wrong shape.
    BadPayload(&'static str),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "not an MHNP frame"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported MHNP version {v}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized { declared } => write!(
                f,
                "declared payload of {declared} bytes exceeds the {MAX_PAYLOAD}-byte limit"
            ),
            FrameError::BadCrc { carried, computed } => write!(
                f,
                "CRC mismatch: frame carries {carried:#010x}, computed {computed:#010x}"
            ),
            FrameError::BadPayload(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Tries to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds a valid prefix of a frame (read
/// more bytes and retry), or `Ok(Some((frame, consumed)))` when a whole
/// frame was decoded — drop the first `consumed` bytes and decode again.
///
/// # Errors
///
/// Any [`FrameError`]: the stream is not (or no longer) speaking MHNP and
/// the connection should be torn down. The oversized-length check runs
/// from the header alone, before any of the body has arrived.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    // Reject garbage as early as the bytes allow: a bad magic or version
    // should not wait for a full header to arrive.
    let probe = buf.len().min(4);
    // lint: allow(panic-path, reason = "probe = min(buf.len(), 4) keeps both range slices in bounds")
    if buf[..probe] != MAGIC[..probe] {
        return Err(FrameError::BadMagic);
    }
    match buf.get(4) {
        Some(&v) if v != VERSION => return Err(FrameError::UnsupportedVersion(v)),
        _ => {}
    }
    // The CRC field ends the header, so once it reads, every field does.
    let (Some(&kind_byte), Some(&flags), Some(stream), Some(seq), Some(payload_len), Some(carried)) = (
        buf.get(5),
        buf.get(6),
        le_u64(buf, 8),
        le_u64(buf, 16),
        le_u32(buf, 24),
        le_u32(buf, 28),
    ) else {
        return Ok(None);
    };
    let kind = FrameKind::from_u8(kind_byte).ok_or(FrameError::UnknownKind(kind_byte))?;
    if payload_len as usize > MAX_PAYLOAD {
        return Err(FrameError::Oversized {
            declared: u64::from(payload_len),
        });
    }
    let total = HEADER_LEN + payload_len as usize;
    let (Some(head), Some(payload)) = (buf.get(..28), buf.get(HEADER_LEN..total)) else {
        return Ok(None);
    };
    let computed = crc32_parts(&[head, payload]);
    if carried != computed {
        return Err(FrameError::BadCrc { carried, computed });
    }
    let frame = Frame {
        kind,
        flags,
        stream,
        seq,
        payload: payload.to_vec(),
    };
    Ok(Some((frame, total)))
}

/// A handshake naming an [`Algorithm::tag`] or [`Profile::tag`] byte
/// that does not exist (the same bytes the MHKX transcript binds).
const UNKNOWN_ALGORITHM: FrameError = FrameError::BadPayload("unknown algorithm tag");
const UNKNOWN_PROFILE: FrameError = FrameError::BadPayload("unknown profile tag");

/// The [`FrameKind::Hello`] payload: which key (by id, out of the
/// server's keyring), which LFSR seed, and which cipher variant/profile
/// the stream runs. Key *material* never travels — both ends already hold
/// it; the handshake only names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Names a key in the server's keyring.
    pub key_id: u32,
    /// The encrypt side's LFSR seed (nonzero).
    pub seed: u16,
    /// Cipher variant.
    pub algorithm: Algorithm,
    /// Buffering profile.
    pub profile: Profile,
}

impl Hello {
    /// Encoded size: `key_id (4) ∥ seed (2) ∥ algorithm (1) ∥ profile (1)`.
    pub const ENCODED_LEN: usize = 8;

    /// A handshake with the defaults (MHHEA, streaming profile).
    pub fn new(key_id: u32, seed: u16) -> Hello {
        Hello {
            key_id,
            seed,
            algorithm: Algorithm::Mhhea,
            profile: Profile::Streaming,
        }
    }

    /// Selects the cipher variant.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Hello {
        self.algorithm = algorithm;
        self
    }

    /// Selects the buffering profile.
    #[must_use]
    pub fn with_profile(mut self, profile: Profile) -> Hello {
        self.profile = profile;
        self
    }

    /// Serialises the handshake payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Hello::ENCODED_LEN);
        out.extend_from_slice(&self.key_id.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.push(self.algorithm.tag());
        out.push(self.profile.tag());
        out
    }

    /// Parses a handshake payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] on wrong length or unknown tags.
    pub fn decode(payload: &[u8]) -> Result<Hello, FrameError> {
        let (Hello::ENCODED_LEN, Some(key_id), Some(seed), Some(&algorithm), Some(&profile)) = (
            payload.len(),
            le_u32(payload, 0),
            le_u16(payload, 4),
            payload.get(6),
            payload.get(7),
        ) else {
            return Err(FrameError::BadPayload("hello payload must be 8 bytes"));
        };
        Ok(Hello {
            key_id,
            seed,
            algorithm: Algorithm::from_tag(algorithm).ok_or(UNKNOWN_ALGORITHM)?,
            profile: Profile::from_tag(profile).ok_or(UNKNOWN_PROFILE)?,
        })
    }
}

/// Encodes a ciphertext payload: `bit_len (u32 LE) ∥ blocks (u16 LE
/// each)`. Used by `Data` frames in the open direction and by `Reply`
/// frames in the seal direction.
pub fn encode_blocks(bit_len: u32, blocks: &[u16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + blocks.len() * 2);
    out.extend_from_slice(&bit_len.to_le_bytes());
    for b in blocks {
        out.extend_from_slice(&b.to_le_bytes());
    }
    out
}

/// Inverts [`encode_blocks`].
///
/// # Errors
///
/// [`FrameError::BadPayload`] when the payload is shorter than the length
/// prefix or the block bytes are odd.
pub fn decode_blocks(payload: &[u8]) -> Result<(u32, Vec<u16>), FrameError> {
    let (Some(bit_len), Some(body)) = (le_u32(payload, 0), payload.get(4..)) else {
        return Err(FrameError::BadPayload("blocks payload shorter than prefix"));
    };
    if !body.len().is_multiple_of(2) {
        return Err(FrameError::BadPayload("odd number of block bytes"));
    }
    // Every chunk holds two bytes, so the default never applies; `map`
    // (unlike `filter_map`) keeps the exact length, and the loop
    // vectorises.
    let blocks = body
        .chunks_exact(2)
        .map(|c| le_u16(c, 0).unwrap_or_default())
        .collect();
    Ok((bit_len, blocks))
}

/// Machine-readable failure codes carried by [`FrameKind::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The connection violated the framing or protocol rules; the server
    /// closes it after this frame.
    Protocol = 1,
    /// The handshake named a key id the server's keyring does not hold.
    UnknownKeyId = 2,
    /// The stream id is already open (on this server, possibly by another
    /// connection).
    StreamExists = 3,
    /// The frame referenced a stream this connection has not opened.
    UnknownStream = 4,
    /// The `Data` frame's sequence number is not the next expected one
    /// (replay or gap). The stream state is untouched; resend with the
    /// correct sequence.
    BadSequence = 5,
    /// No eviction snapshot is held for the stream id a `Resume` named.
    NoSnapshot = 6,
    /// The handshake payload was malformed (bad tags, zero seed).
    BadHandshake = 7,
    /// The cipher engine rejected the operation (e.g. truncated
    /// ciphertext). The sequence number was consumed; the stream remains
    /// usable.
    Engine = 8,
    /// A seal-direction `Data` payload exceeded the server's per-message
    /// cap ([`crate::server::MAX_MESSAGE_BYTES`] — sized so the expanded
    /// reply always fits one frame). Rejected before touching cipher
    /// state: the sequence number was *not* consumed; chunk the message
    /// and resend.
    MessageTooLarge = 9,
    /// The server is at a configured resource limit (e.g. its stream
    /// capacity) and cannot honour the request right now; retry later or
    /// elsewhere.
    ServerBusy = 10,
    /// The frame is stamped with a **retired key epoch**: a `Data` frame
    /// whose sequence field names an epoch older than the stream's
    /// current one (a replay from before a rotation), or a `Rekey`
    /// naming an epoch that is not strictly newer. The stream state is
    /// untouched and the sequence number was *not* consumed.
    StaleEpoch = 11,
    /// The MHKX handshake failed: the peer's public key was a low-order
    /// point, or the key-confirmation tag did not match the transcript
    /// (a replayed, reflected or tampered handshake). **No session
    /// state was created** — the pending exchange is discarded and the
    /// stream id stays free.
    KeyConfirmFailed = 12,
    /// MHNP-D only: the datagram's chunk index was **already served**
    /// within the stream's replay window. Each index names one derived
    /// keystream, so re-sealing an index — possibly with different bytes
    /// — would hand out a two-time pad; duplicates (replayed or merely
    /// channel-duplicated) are refused, never re-served. The stream is
    /// untouched.
    DuplicateChunk = 13,
    /// MHNP-D only: the datagram's chunk index fell **behind the replay
    /// window** — the stream has since accepted indices far enough ahead
    /// that this one's dedup state was retired. The chunk is refused (it
    /// can no longer be distinguished from a replay); the stream is
    /// untouched. This is the bounded-memory cost of loss tolerance.
    ChunkExpired = 14,
}

impl ErrorCode {
    /// Parses the on-wire code byte.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::UnknownKeyId,
            3 => ErrorCode::StreamExists,
            4 => ErrorCode::UnknownStream,
            5 => ErrorCode::BadSequence,
            6 => ErrorCode::NoSnapshot,
            7 => ErrorCode::BadHandshake,
            8 => ErrorCode::Engine,
            9 => ErrorCode::MessageTooLarge,
            10 => ErrorCode::ServerBusy,
            11 => ErrorCode::StaleEpoch,
            12 => ErrorCode::KeyConfirmFailed,
            13 => ErrorCode::DuplicateChunk,
            14 => ErrorCode::ChunkExpired,
            _ => return None,
        })
    }
}

impl core::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            ErrorCode::Protocol => "protocol violation",
            ErrorCode::UnknownKeyId => "unknown key id",
            ErrorCode::StreamExists => "stream already open",
            ErrorCode::UnknownStream => "unknown stream",
            ErrorCode::BadSequence => "bad sequence number",
            ErrorCode::NoSnapshot => "no snapshot held",
            ErrorCode::BadHandshake => "bad handshake",
            ErrorCode::Engine => "engine failure",
            ErrorCode::MessageTooLarge => "message too large",
            ErrorCode::ServerBusy => "server at capacity",
            ErrorCode::StaleEpoch => "stale key epoch",
            ErrorCode::KeyConfirmFailed => "key confirmation failed",
            ErrorCode::DuplicateChunk => "duplicate chunk index",
            ErrorCode::ChunkExpired => "chunk index behind the replay window",
        };
        write!(f, "{name}")
    }
}

/// Encodes a [`FrameKind::Rekey`] payload: the requested epoch (u32 LE).
pub fn encode_rekey(epoch: u32) -> Vec<u8> {
    epoch.to_le_bytes().to_vec()
}

/// Inverts [`encode_rekey`].
///
/// # Errors
///
/// [`FrameError::BadPayload`] unless the payload is exactly 4 bytes.
pub fn decode_rekey(payload: &[u8]) -> Result<u32, FrameError> {
    let bytes: [u8; 4] = payload
        .try_into()
        .map_err(|_| FrameError::BadPayload("rekey payload must be the 4-byte epoch"))?;
    Ok(u32::from_le_bytes(bytes))
}

/// Encodes a [`FrameKind::RekeyAck`] payload: `epoch (u32 LE) ∥ fresh
/// resume token (u64 LE)`.
pub fn encode_rekey_ack(epoch: u32, token: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&token.to_le_bytes());
    out
}

/// Inverts [`encode_rekey_ack`].
///
/// # Errors
///
/// [`FrameError::BadPayload`] unless the payload is exactly 12 bytes.
pub fn decode_rekey_ack(payload: &[u8]) -> Result<(u32, u64), FrameError> {
    match (payload.len(), le_u32(payload, 0), le_u64(payload, 4)) {
        (12, Some(epoch), Some(token)) => Ok((epoch, token)),
        _ => Err(FrameError::BadPayload(
            "rekey-ack payload must be epoch (4) + token (8)",
        )),
    }
}

/// Parses a bare resume-token payload (`Resume`, `DgramResume`, a fresh
/// `HelloAck`): the token as u64 LE, or `None` unless exactly 8 bytes.
pub(crate) fn decode_token(payload: &[u8]) -> Option<u64> {
    match (payload.len(), le_u64(payload, 0)) {
        (8, token) => token,
        _ => None,
    }
}

/// Encodes a *resumed* [`FrameKind::HelloAck`] payload: `resume token
/// (u64 LE) ∥ current epoch (u32 LE)`. A fresh (non-resumed) ack carries
/// the bare 8-byte token — the stream is necessarily at epoch 0.
pub fn encode_resumed_ack(token: u64, epoch: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&token.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out
}

/// Inverts [`encode_resumed_ack`].
///
/// # Errors
///
/// [`FrameError::BadPayload`] unless the payload is exactly 12 bytes.
pub fn decode_resumed_ack(payload: &[u8]) -> Result<(u64, u32), FrameError> {
    match (payload.len(), le_u64(payload, 0), le_u32(payload, 8)) {
        (12, Some(token), Some(epoch)) => Ok((token, epoch)),
        _ => Err(FrameError::BadPayload(
            "resumed hello-ack payload must be token (8) + epoch (4)",
        )),
    }
}

/// Length of the MHKX key-confirmation tags (mirrors
/// [`mhhea_kex::TAG_LEN`]).
pub const KEX_TAG_LEN: usize = mhhea_kex::TAG_LEN;

/// Phase byte opening every `KeyEx`/`KeyExAck` payload: phase 1 carries
/// public keys, phase 2 confirmation/completion.
const KEX_PHASE_INIT: u8 = 1;
const KEX_PHASE_CONFIRM: u8 = 2;

/// The phase-1 [`FrameKind::KeyEx`] payload: the client's ephemeral
/// X25519 public key plus the stream parameters an MHKX handshake
/// negotiates in place of a [`Hello`].
///
/// `epoch = 0` opens the stream fresh (keyless onboarding); `epoch > 0`
/// requests a fresh-DH rotation of an already-open stream to that epoch
/// — each rotation's key is then independently derived rather than
/// drawn from a configured key list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyExInit {
    /// Target epoch: 0 = open fresh, > 0 = rotate an open stream.
    pub epoch: u32,
    /// The client's ephemeral X25519 public key.
    pub public_key: [u8; 32],
    /// Cipher variant the stream will run.
    pub algorithm: Algorithm,
    /// Buffering profile the stream will run.
    pub profile: Profile,
}

impl KeyExInit {
    /// Encoded size: `phase (1) ∥ epoch (4) ∥ public_key (32) ∥
    /// algorithm (1) ∥ profile (1)`.
    pub const ENCODED_LEN: usize = 39;

    /// A fresh-open handshake with the defaults (MHHEA, streaming).
    pub fn new(public_key: [u8; 32]) -> KeyExInit {
        KeyExInit {
            epoch: 0,
            public_key,
            algorithm: Algorithm::Mhhea,
            profile: Profile::Streaming,
        }
    }

    /// Targets a fresh-DH rotation to `epoch` instead of a fresh open.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u32) -> KeyExInit {
        self.epoch = epoch;
        self
    }

    /// Selects the cipher variant.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> KeyExInit {
        self.algorithm = algorithm;
        self
    }

    /// Selects the buffering profile.
    #[must_use]
    pub fn with_profile(mut self, profile: Profile) -> KeyExInit {
        self.profile = profile;
        self
    }

    /// Serialises the phase-1 payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(KeyExInit::ENCODED_LEN);
        out.push(KEX_PHASE_INIT);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.public_key);
        out.push(self.algorithm.tag());
        out.push(self.profile.tag());
        out
    }
}

/// A parsed [`FrameKind::KeyEx`] payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyExPayload {
    /// Phase 1: the client's public key and stream parameters.
    Init(KeyExInit),
    /// Phase 2: the client's key-confirmation tag over the transcript.
    Confirm([u8; KEX_TAG_LEN]),
}

/// Encodes a phase-2 [`FrameKind::KeyEx`] payload: the client's
/// confirmation tag.
pub fn encode_key_ex_confirm(tag: &[u8; KEX_TAG_LEN]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + KEX_TAG_LEN);
    out.push(KEX_PHASE_CONFIRM);
    out.extend_from_slice(tag);
    out
}

/// Parses a [`FrameKind::KeyEx`] payload (either phase).
///
/// # Errors
///
/// [`FrameError::BadPayload`] on a wrong length, unknown phase byte, or
/// unknown algorithm/profile tag.
pub fn decode_key_ex(payload: &[u8]) -> Result<KeyExPayload, FrameError> {
    match payload.split_first() {
        Some((&KEX_PHASE_INIT, body)) => {
            let (
                KeyExInit::ENCODED_LEN,
                Some(epoch),
                Some(public_key),
                Some(&algorithm),
                Some(&profile),
            ) = (
                payload.len(),
                le_u32(body, 0),
                body.get(4..36).and_then(|k| <[u8; 32]>::try_from(k).ok()),
                body.get(36),
                body.get(37),
            )
            else {
                return Err(FrameError::BadPayload(
                    "key-ex init payload must be 39 bytes",
                ));
            };
            Ok(KeyExPayload::Init(KeyExInit {
                epoch,
                public_key,
                algorithm: Algorithm::from_tag(algorithm).ok_or(UNKNOWN_ALGORITHM)?,
                profile: Profile::from_tag(profile).ok_or(UNKNOWN_PROFILE)?,
            }))
        }
        Some((&KEX_PHASE_CONFIRM, body)) => {
            let tag: [u8; KEX_TAG_LEN] = body
                .try_into()
                .map_err(|_| FrameError::BadPayload("key-ex confirm tag must be 16 bytes"))?;
            Ok(KeyExPayload::Confirm(tag))
        }
        Some(_) => Err(FrameError::BadPayload("unknown key-ex phase byte")),
        None => Err(FrameError::BadPayload("empty key-ex payload")),
    }
}

/// A parsed [`FrameKind::KeyExAck`] payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyExAckPayload {
    /// Phase 1: the server's public key and its confirmation tag.
    Init {
        /// The server's ephemeral X25519 public key.
        public_key: [u8; 32],
        /// The server's key-confirmation tag over the transcript.
        tag: [u8; KEX_TAG_LEN],
    },
    /// Phase 2: handshake complete; the stream's fresh resume token.
    Done {
        /// The freshly minted resume token.
        token: u64,
    },
}

/// Encodes a phase-1 [`FrameKind::KeyExAck`] payload: `phase (1) ∥
/// server public key (32) ∥ server tag (16)`.
pub fn encode_key_ex_ack_init(public_key: &[u8; 32], tag: &[u8; KEX_TAG_LEN]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 32 + KEX_TAG_LEN);
    out.push(KEX_PHASE_INIT);
    out.extend_from_slice(public_key);
    out.extend_from_slice(tag);
    out
}

/// Encodes a phase-2 [`FrameKind::KeyExAck`] payload: `phase (1) ∥
/// resume token (u64 LE)`.
pub fn encode_key_ex_ack_done(token: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(KEX_PHASE_CONFIRM);
    out.extend_from_slice(&token.to_le_bytes());
    out
}

/// Parses a [`FrameKind::KeyExAck`] payload (either phase).
///
/// # Errors
///
/// [`FrameError::BadPayload`] on a wrong length or unknown phase byte.
pub fn decode_key_ex_ack(payload: &[u8]) -> Result<KeyExAckPayload, FrameError> {
    match payload.split_first() {
        Some((&KEX_PHASE_INIT, body)) => {
            let Some((public_key, tag)) = body
                .split_first_chunk::<32>()
                .and_then(|(key, tag)| Some((*key, tag.try_into().ok()?)))
            else {
                return Err(FrameError::BadPayload(
                    "key-ex-ack init payload must be pubkey (32) + tag (16)",
                ));
            };
            Ok(KeyExAckPayload::Init { public_key, tag })
        }
        Some((&KEX_PHASE_CONFIRM, body)) => decode_token(body)
            .map(|token| KeyExAckPayload::Done { token })
            .ok_or(FrameError::BadPayload(
                "key-ex-ack done token must be 8 bytes",
            )),
        Some(_) => Err(FrameError::BadPayload("unknown key-ex-ack phase byte")),
        None => Err(FrameError::BadPayload("empty key-ex-ack payload")),
    }
}

/// Encodes an error payload: `code (1) ∥ utf-8 detail`.
pub fn encode_error(code: ErrorCode, detail: &str) -> Vec<u8> {
    // Keep error frames small no matter what produced the detail string.
    // lint: allow(panic-path, reason = "min(len, MAX_ERROR_DETAIL_BYTES) is always in bounds")
    let detail = &detail.as_bytes()[..detail.len().min(MAX_ERROR_DETAIL_BYTES)];
    let mut out = Vec::with_capacity(1 + detail.len());
    out.push(code as u8); // lint: allow(truncating-cast, reason = "ErrorCode is repr(u8); the discriminant is the wire byte")
    out.extend_from_slice(detail);
    out
}

/// Inverts [`encode_error`]; unknown codes and broken UTF-8 degrade to
/// `None` / lossy text rather than erroring (an error about an error
/// helps nobody).
pub fn decode_error(payload: &[u8]) -> (Option<ErrorCode>, String) {
    match payload.split_first() {
        Some((&code, detail)) => (
            ErrorCode::from_u8(code),
            String::from_utf8_lossy(detail).into_owned(),
        ),
        None => (None, String::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips() {
        let frame = Frame::new(FrameKind::Data, 42, 7)
            .with_flags(flags::DIR_OPEN)
            .with_payload(vec![1, 2, 3, 4, 5]);
        let bytes = frame.encode();
        let (got, used) = decode(&bytes).unwrap().expect("complete");
        assert_eq!(used, bytes.len());
        assert_eq!(got, frame);
    }

    #[test]
    fn incremental_decode_waits_for_bytes() {
        let bytes = Frame::new(FrameKind::Hello, 1, 0)
            .with_payload(Hello::new(1, 0xACE1).encode())
            .encode();
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]).unwrap(), None, "cut at {cut}");
        }
        assert!(decode(&bytes).unwrap().is_some());
    }

    #[test]
    fn early_garbage_rejected_before_full_header() {
        assert_eq!(decode(b"XHNP"), Err(FrameError::BadMagic));
        assert_eq!(decode(b"MX"), Err(FrameError::BadMagic));
        assert_eq!(decode(b"MHNP\x09"), Err(FrameError::UnsupportedVersion(9)));
    }

    #[test]
    fn oversized_rejected_from_header_alone() {
        let mut bytes = Frame::new(FrameKind::Data, 1, 0).encode();
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        // Only the header — no body — and the verdict is already in.
        assert_eq!(
            decode(&bytes[..HEADER_LEN]),
            Err(FrameError::Oversized {
                declared: u64::from(u32::MAX)
            })
        );
    }

    #[test]
    fn crc_flip_detected() {
        let mut bytes = Frame::new(FrameKind::Data, 3, 1)
            .with_payload(vec![0xAA; 16])
            .encode();
        *bytes.last_mut().unwrap() ^= 0x01;
        assert!(matches!(decode(&bytes), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut bytes = Frame::new(FrameKind::Data, 3, 1).encode();
        bytes[5] = 99;
        // The CRC still matches (kind is under it) — recompute to isolate
        // the kind check.
        let crc = crate::crc::crc32_parts(&[&bytes[..28]]);
        bytes[28..32].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&bytes), Err(FrameError::UnknownKind(99)));
    }

    #[test]
    fn hello_roundtrips_and_rejects_bad_tags() {
        let hello = Hello::new(9, 0xBEEF)
            .with_algorithm(Algorithm::Hhea)
            .with_profile(Profile::HardwareFaithful);
        assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);
        let mut bad = hello.encode();
        bad[6] = 7;
        assert!(Hello::decode(&bad).is_err());
        assert!(Hello::decode(&[0; 7]).is_err());
    }

    #[test]
    fn blocks_payload_roundtrips() {
        let payload = encode_blocks(100, &[0xABCD, 0x0001, 0xFFFF]);
        assert_eq!(
            decode_blocks(&payload).unwrap(),
            (100, vec![0xABCD, 0x0001, 0xFFFF])
        );
        assert!(decode_blocks(&payload[..3]).is_err());
        assert!(decode_blocks(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn error_payload_roundtrips() {
        let payload = encode_error(ErrorCode::BadSequence, "expected 4, got 2");
        let (code, detail) = decode_error(&payload);
        assert_eq!(code, Some(ErrorCode::BadSequence));
        assert_eq!(detail, "expected 4, got 2");
        assert_eq!(decode_error(&[]), (None, String::new()));
        assert_eq!(
            decode_error(&encode_error(ErrorCode::StaleEpoch, "")).0,
            Some(ErrorCode::StaleEpoch)
        );
    }

    #[test]
    fn seq_split_is_epoch_zero_compatible() {
        // At epoch 0 the field is a plain counter — old-wire compatible.
        assert_eq!(join_seq(0, 42), 42);
        assert_eq!(split_seq(42), (0, 42));
        assert_eq!(
            split_seq(join_seq(u32::MAX, u32::MAX)),
            (u32::MAX, u32::MAX)
        );
        assert_eq!(join_seq(1, 0), 1 << 32);
    }

    #[test]
    fn rekey_payloads_roundtrip_and_reject_bad_shapes() {
        assert_eq!(decode_rekey(&encode_rekey(7)).unwrap(), 7);
        assert!(decode_rekey(&[1, 2, 3]).is_err());
        assert!(decode_rekey(&[1, 2, 3, 4, 5]).is_err());

        let ack = encode_rekey_ack(3, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(decode_rekey_ack(&ack).unwrap(), (3, 0xDEAD_BEEF_CAFE_F00D));
        assert!(decode_rekey_ack(&ack[..11]).is_err());

        let resumed = encode_resumed_ack(0x1234_5678_9ABC_DEF0, 9);
        assert_eq!(
            decode_resumed_ack(&resumed).unwrap(),
            (0x1234_5678_9ABC_DEF0, 9)
        );
        assert!(decode_resumed_ack(&resumed[..8]).is_err());
    }

    #[test]
    fn key_ex_payloads_roundtrip() {
        let init = KeyExInit::new([0xAB; 32])
            .with_epoch(3)
            .with_algorithm(Algorithm::Hhea)
            .with_profile(Profile::HardwareFaithful);
        assert_eq!(
            decode_key_ex(&init.encode()).unwrap(),
            KeyExPayload::Init(init)
        );
        let tag = [0x5A; KEX_TAG_LEN];
        assert_eq!(
            decode_key_ex(&encode_key_ex_confirm(&tag)).unwrap(),
            KeyExPayload::Confirm(tag)
        );
    }

    #[test]
    fn key_ex_ack_payloads_roundtrip() {
        let pk = [0xCD; 32];
        let tag = [0x11; KEX_TAG_LEN];
        assert_eq!(
            decode_key_ex_ack(&encode_key_ex_ack_init(&pk, &tag)).unwrap(),
            KeyExAckPayload::Init {
                public_key: pk,
                tag
            }
        );
        assert_eq!(
            decode_key_ex_ack(&encode_key_ex_ack_done(0xF00D)).unwrap(),
            KeyExAckPayload::Done { token: 0xF00D }
        );
    }

    #[test]
    fn key_ex_payloads_reject_bad_shapes() {
        // Empty, unknown phase, truncated and oversized bodies.
        assert!(decode_key_ex(&[]).is_err());
        assert!(decode_key_ex(&[9]).is_err());
        let init = KeyExInit::new([1; 32]).encode();
        assert!(decode_key_ex(&init[..init.len() - 1]).is_err());
        let mut long = init.clone();
        long.push(0);
        assert!(decode_key_ex(&long).is_err());
        // Bad algorithm / profile tags.
        let mut bad = init.clone();
        bad[37] = 9;
        assert!(decode_key_ex(&bad).is_err());
        let mut bad = init;
        bad[38] = 9;
        assert!(decode_key_ex(&bad).is_err());
        // Confirm tag with the wrong width.
        assert!(decode_key_ex(&[2; 10]).is_err());

        assert!(decode_key_ex_ack(&[]).is_err());
        assert!(decode_key_ex_ack(&[7]).is_err());
        let ack = encode_key_ex_ack_init(&[1; 32], &[2; KEX_TAG_LEN]);
        assert!(decode_key_ex_ack(&ack[..ack.len() - 1]).is_err());
        let done = encode_key_ex_ack_done(1);
        assert!(decode_key_ex_ack(&done[..done.len() - 1]).is_err());
    }

    #[test]
    fn key_ex_frame_kinds_roundtrip_on_the_wire() {
        let kex =
            Frame::new(FrameKind::KeyEx, 7, 0).with_payload(KeyExInit::new([0x42; 32]).encode());
        let (got, _) = decode(&kex.encode()).unwrap().expect("complete");
        assert_eq!(got, kex);
        let ack =
            Frame::new(FrameKind::KeyExAck, 7, 0).with_payload(encode_key_ex_ack_done(0xBEEF));
        let (got, _) = decode(&ack.encode()).unwrap().expect("complete");
        assert_eq!(got.kind, FrameKind::KeyExAck);
    }

    #[test]
    fn dgram_kinds_and_codes_roundtrip_on_the_wire() {
        for kind in [
            FrameKind::DgramResume,
            FrameKind::DgramAck,
            FrameKind::DgramData,
            FrameKind::DgramReply,
        ] {
            let frame = Frame::new(kind, 7, join_seq(2, 40)).with_payload(vec![1, 2, 3]);
            let (got, used) = decode(&frame.encode()).unwrap().expect("complete");
            assert_eq!(got, frame, "{kind:?}");
            assert_eq!(used, HEADER_LEN + 3);
        }
        for code in [ErrorCode::DuplicateChunk, ErrorCode::ChunkExpired] {
            let (got, _) = decode_error(&encode_error(code, "dgram"));
            assert_eq!(got, Some(code));
        }
    }

    #[test]
    fn rekey_frame_kinds_roundtrip_on_the_wire() {
        let rekey = Frame::new(FrameKind::Rekey, 7, join_seq(0, 3)).with_payload(encode_rekey(1));
        let (got, _) = decode(&rekey.encode()).unwrap().expect("complete");
        assert_eq!(got, rekey);
        let ack = Frame::new(FrameKind::RekeyAck, 7, join_seq(0, 3))
            .with_payload(encode_rekey_ack(1, 99));
        let (got, _) = decode(&ack.encode()).unwrap().expect("complete");
        assert_eq!(got.kind, FrameKind::RekeyAck);
        assert_eq!(decode_rekey_ack(&got.payload).unwrap(), (1, 99));
    }
}

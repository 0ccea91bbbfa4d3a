//! Stateful encrypt/decrypt sessions with an explicit stream position.
//!
//! The cipher's key-pair schedule cycles with the *block index*: block `i`
//! uses pair `i mod L`. Any two endpoints exchanging more than one message
//! therefore have to agree on where in that cycle they are — the seed
//! engines did not (the encryptor kept counting, the decryptor restarted
//! at zero) and garbled every message after the first under a multi-pair
//! key. Sessions make the position first-class:
//!
//! * [`StreamCursor`] is the shared position: the block index driving the
//!   key schedule plus, for the hardware profile, the number of message
//!   bits already consumed from the current 16-bit alignment buffer.
//! * [`EncryptSession`] advances its cursor as it seals messages;
//!   [`DecryptSession`] advances in lockstep as it opens them. Encrypting
//!   three messages through one session and decrypting them through one
//!   session round-trips all three, in both profiles.
//! * Both sessions are thin wrappers over the crate's two cipher kernels,
//!   one encrypt function and one decrypt function. Each takes the key,
//!   algorithm, profile and a [`StreamCursor`], reads its spans from the
//!   static [`SpanTable`] and turns each block into a few shift/mask
//!   operations on `u16`s instead of a per-bit `Iterator<Item = bool>`
//!   loop (see [`crate::block`]). Every other caller runs the same two
//!   kernels: the single-shot engine, both container versions, and the
//!   gateway, whose streams hold one cursor per direction and one LFSR
//!   source. Nothing stores a table: the kernel builds its row view at
//!   the call, at most 16 pointer copies. A failed decrypt never moves
//!   its cursor.
//! * Both sessions rotate keys online: [`EncryptSession::rekey`] /
//!   [`DecryptSession::rekey`] move a live stream to a new
//!   [`crate::KeyRing`] epoch (new key, fresh LFSR reseed, cursor back at
//!   the stream origin) with a bit-exact handoff — rekey both endpoints
//!   at the same message boundary and the next message round-trips.
//!
//! The single-shot [`crate::Encryptor`]/[`crate::Decryptor`] run the same
//! kernels from the stream origin on every call.

use crate::block::SpanTable;
use crate::key::KeyRing;
use crate::source::{LfsrSource, VectorSource};
use crate::{Algorithm, Key, MhheaError, Profile};
use bitkit::{le_u64, word, BitReader, BitWriter};

/// A position in the cipher-block stream, shared by both endpoints.
///
/// Equal cursors on the encrypt and decrypt side mean the next message
/// round-trips; the container formats and the session regression tests
/// rely on that invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StreamCursor {
    /// Blocks processed since the start of the stream; drives the key-pair
    /// schedule (`pair = block_index mod schedule length`).
    pub block_index: u64,
    /// Hardware profile only: message bits already consumed from the
    /// current 16-bit alignment buffer (`0..16`). Always `0` at message
    /// boundaries because the message cache pads to whole 32-bit words;
    /// nonzero only while a buffer is partially drained mid-slice.
    pub buffered: u8,
}

/// Why a [`StreamCursor::from_bytes`] round-trip was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CursorDecodeError {
    /// The byte slice is not exactly [`StreamCursor::ENCODED_LEN`] long.
    WrongLength {
        /// Bytes supplied.
        have: usize,
    },
    /// The buffered-bit count is outside `0..16`.
    InvalidBuffered(u8),
}

impl core::fmt::Display for CursorDecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CursorDecodeError::WrongLength { have } => write!(
                f,
                "cursor snapshot must be {} bytes, got {have}",
                StreamCursor::ENCODED_LEN
            ),
            CursorDecodeError::InvalidBuffered(b) => {
                write!(f, "buffered bit count {b} out of range (0..16)")
            }
        }
    }
}

impl std::error::Error for CursorDecodeError {}

impl StreamCursor {
    /// Size of the serialized form: `block_index` (8 bytes, little-endian)
    /// followed by `buffered` (1 byte).
    pub const ENCODED_LEN: usize = 9;

    /// The origin of a fresh stream.
    pub fn start() -> Self {
        StreamCursor::default()
    }

    /// Serializes the cursor (the byte format documented on
    /// [`StreamCursor::ENCODED_LEN`]); [`StreamCursor::from_bytes`]
    /// inverts it. This is what lets a gateway evict an idle stream and
    /// resume it later bit-exactly — the software analogue of context
    /// switching the hardware core.
    pub fn to_bytes(self) -> [u8; StreamCursor::ENCODED_LEN] {
        let mut out = [0u8; StreamCursor::ENCODED_LEN];
        out[0..8].copy_from_slice(&self.block_index.to_le_bytes());
        out[8] = self.buffered;
        out
    }

    /// Deserializes a cursor written by [`StreamCursor::to_bytes`].
    ///
    /// # Errors
    ///
    /// Rejects a slice of the wrong length or a buffered-bit count outside
    /// `0..16` (no 16-bit alignment buffer can hold 16 leftover bits).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CursorDecodeError> {
        let (StreamCursor::ENCODED_LEN, Some(block_index), Some(&buffered)) =
            (bytes.len(), le_u64(bytes, 0), bytes.get(8))
        else {
            return Err(CursorDecodeError::WrongLength { have: bytes.len() });
        };
        if buffered >= 16 {
            return Err(CursorDecodeError::InvalidBuffered(buffered));
        }
        Ok(StreamCursor {
            block_index,
            buffered,
        })
    }
}

/// A stateful encryption endpoint: one cursor, many messages.
///
/// # Examples
///
/// ```
/// use mhhea::session::{DecryptSession, EncryptSession};
/// use mhhea::{Key, LfsrSource};
///
/// let key = Key::from_nibbles(&[(0, 3), (2, 5)])?;
/// let mut enc = EncryptSession::new(key.clone(), LfsrSource::new(0xACE1)?);
/// let first = enc.encrypt(b"first")?;
/// let second = enc.encrypt(b"second")?;
///
/// let mut dec = DecryptSession::new(key);
/// assert_eq!(dec.decrypt(&first, 40)?, b"first");
/// assert_eq!(dec.decrypt(&second, 48)?, b"second");
/// assert_eq!(enc.cursor(), dec.cursor());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct EncryptSession<S> {
    key: Key,
    source: S,
    algorithm: Algorithm,
    profile: Profile,
    cursor: StreamCursor,
    epoch: u32,
}

/// [`MhheaError::StaleEpoch`] unless `requested` is strictly newer.
fn check_epoch(current: u32, requested: u32) -> Result<(), MhheaError> {
    if requested <= current {
        return Err(MhheaError::StaleEpoch { current, requested });
    }
    Ok(())
}

impl<S: VectorSource> EncryptSession<S> {
    /// Creates a session at the stream origin (MHHEA, streaming profile).
    pub fn new(key: Key, source: S) -> Self {
        Self::with_options(key, source, Algorithm::Mhhea, Profile::Streaming)
    }

    /// Creates a session with an explicit variant and profile.
    pub fn with_options(key: Key, source: S, algorithm: Algorithm, profile: Profile) -> Self {
        EncryptSession {
            key,
            source,
            algorithm,
            profile,
            cursor: StreamCursor::start(),
            epoch: 0,
        }
    }

    /// Selects the cipher variant.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the buffering profile (the hardware profile schedules
    /// pairs through the 16-deep key cache).
    #[must_use]
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// The current stream position.
    pub fn cursor(&self) -> StreamCursor {
        self.cursor
    }

    /// Resets the cursor to the stream origin **without** touching the
    /// vector source (used by the single-shot [`crate::Encryptor`]).
    pub fn rewind(&mut self) {
        self.cursor = StreamCursor::start();
    }

    /// Moves the session to an explicit stream position (restoring an
    /// evicted stream from a [`StreamCursor::to_bytes`] snapshot). The
    /// caller is responsible for the vector source being at the matching
    /// position — for an LFSR source, reconstruct it from the snapshotted
    /// state.
    pub fn set_cursor(&mut self, cursor: StreamCursor) {
        self.cursor = cursor;
    }

    /// The session's current key epoch (0 until the first rekey).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Forces the epoch counter **without** touching key, source or
    /// cursor — for restoring a snapshotted stream, the epoch analogue of
    /// [`EncryptSession::set_cursor`]. To *rotate*, use
    /// [`EncryptSession::rekey_with`] or [`EncryptSession::rekey`].
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Rotates the session to a new epoch with explicit materials: the
    /// new key, a fresh vector source, and the
    /// cursor reset to the stream origin — the new epoch's schedule
    /// starts from block zero on both endpoints, which is what makes the
    /// handoff bit-exact. Call it only at a message boundary (every point
    /// between [`EncryptSession::encrypt`] calls is one), and mirror it
    /// with [`DecryptSession::rekey_with`] on the peer.
    ///
    /// # Errors
    ///
    /// [`MhheaError::StaleEpoch`] unless `epoch` is strictly newer than
    /// the current epoch — epochs only move forward.
    pub fn rekey_with(&mut self, key: Key, source: S, epoch: u32) -> Result<(), MhheaError> {
        check_epoch(self.epoch, epoch)?;
        self.key = key;
        self.source = source;
        self.cursor = StreamCursor::start();
        self.epoch = epoch;
        Ok(())
    }

    /// The hiding-vector source (read access: e.g. snapshotting
    /// [`crate::LfsrSource::state`] before evicting the stream).
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Encrypts a byte message, advancing the cursor.
    ///
    /// # Errors
    ///
    /// Returns [`MhheaError::SourceExhausted`] when the vector source runs
    /// out (finite cover data).
    pub fn encrypt(&mut self, message: &[u8]) -> Result<Vec<u16>, MhheaError> {
        self.encrypt_bits(message, message.len() * 8)
    }

    /// Encrypts the first `bit_len` bits of `message`, advancing the
    /// cursor.
    ///
    /// # Errors
    ///
    /// See [`EncryptSession::encrypt`].
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` exceeds `message.len() * 8`.
    pub fn encrypt_bits(&mut self, message: &[u8], bit_len: usize) -> Result<Vec<u16>, MhheaError> {
        encrypt_at(
            &self.key,
            self.algorithm,
            self.profile,
            &mut self.cursor,
            &mut self.source,
            message,
            bit_len,
        )
    }
}

impl EncryptSession<LfsrSource> {
    /// Rotates to `epoch` using a [`KeyRing`]: the epoch's key and a
    /// fresh LFSR reseeded with [`KeyRing::seed`]`(epoch)`, cursor back
    /// at the stream origin. See [`EncryptSession::rekey_with`] for the
    /// handoff contract.
    ///
    /// # Errors
    ///
    /// [`MhheaError::StaleEpoch`] unless `epoch` is strictly newer.
    ///
    /// ```
    /// use mhhea::session::{DecryptSession, EncryptSession};
    /// use mhhea::{Key, KeyRing, LfsrSource};
    ///
    /// let ring = KeyRing::single(Key::from_nibbles(&[(0, 3), (2, 5)])?, 0xACE1)?;
    /// let mut enc = EncryptSession::new(ring.key(0).clone(), LfsrSource::new(ring.seed(0))?);
    /// let mut dec = DecryptSession::new(ring.key(0).clone());
    ///
    /// let before = enc.encrypt(b"epoch zero")?;
    /// assert_eq!(dec.decrypt(&before, 80)?, b"epoch zero");
    ///
    /// enc.rekey(&ring, 1)?;
    /// dec.rekey(&ring, 1)?;
    /// let after = enc.encrypt(b"epoch one!")?;
    /// assert_eq!(dec.decrypt(&after, 80)?, b"epoch one!");
    /// assert_eq!(enc.epoch(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn rekey(&mut self, ring: &KeyRing, epoch: u32) -> Result<(), MhheaError> {
        let source = LfsrSource::new(ring.seed(epoch)).map_err(|_| MhheaError::InvalidSeed)?;
        self.rekey_with(ring.key(epoch).clone(), source, epoch)
    }
}

/// A stateful decryption endpoint mirroring an [`EncryptSession`].
///
/// Feed it the same message boundaries the encrypt side used and the
/// cursors stay in lockstep; see the module docs and the example on
/// [`EncryptSession`].
#[derive(Debug, Clone)]
pub struct DecryptSession {
    algorithm: Algorithm,
    profile: Profile,
    cursor: StreamCursor,
    key: Key,
    epoch: u32,
}

impl DecryptSession {
    /// Creates a session at the stream origin (MHHEA, streaming profile).
    pub fn new(key: Key) -> Self {
        Self::with_options(key, Algorithm::Mhhea, Profile::Streaming)
    }

    /// Creates a session with an explicit variant and profile.
    pub fn with_options(key: Key, algorithm: Algorithm, profile: Profile) -> Self {
        DecryptSession {
            algorithm,
            profile,
            cursor: StreamCursor::start(),
            key,
            epoch: 0,
        }
    }

    /// Selects the cipher variant (must match the encrypt side).
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the buffering profile (must match the encrypt side).
    #[must_use]
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// The current stream position.
    pub fn cursor(&self) -> StreamCursor {
        self.cursor
    }

    /// Resets the cursor to the stream origin.
    pub fn rewind(&mut self) {
        self.cursor = StreamCursor::start();
    }

    /// Moves the session to an explicit stream position (restoring an
    /// evicted stream from a [`StreamCursor::to_bytes`] snapshot).
    pub fn set_cursor(&mut self, cursor: StreamCursor) {
        self.cursor = cursor;
    }

    /// The session's current key epoch (0 until the first rekey).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Forces the epoch counter **without** touching key or cursor — for
    /// restoring a snapshotted stream, the epoch analogue of
    /// [`DecryptSession::set_cursor`]. To *rotate*, use
    /// [`DecryptSession::rekey_with`] or [`DecryptSession::rekey`].
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Rotates the session to a new epoch with an explicit key, resetting
    /// the cursor to the stream origin — the decrypt half of the
    /// bit-exact handoff [`EncryptSession::rekey_with`] describes. Call
    /// it at the same message boundary the encrypt side rotated at.
    ///
    /// # Errors
    ///
    /// [`MhheaError::StaleEpoch`] unless `epoch` is strictly newer than
    /// the current epoch.
    pub fn rekey_with(&mut self, key: Key, epoch: u32) -> Result<(), MhheaError> {
        check_epoch(self.epoch, epoch)?;
        self.key = key;
        self.cursor = StreamCursor::start();
        self.epoch = epoch;
        Ok(())
    }

    /// Rotates to `epoch` using a [`KeyRing`] (the epoch's key; the seed
    /// only matters on the encrypt side). See the doctest on
    /// [`EncryptSession::rekey`] for the paired usage.
    ///
    /// # Errors
    ///
    /// [`MhheaError::StaleEpoch`] unless `epoch` is strictly newer.
    pub fn rekey(&mut self, ring: &KeyRing, epoch: u32) -> Result<(), MhheaError> {
        self.rekey_with(ring.key(epoch).clone(), epoch)
    }

    /// Recovers `bit_len` message bits from one message's cipher blocks,
    /// advancing the cursor past all of them. Returns
    /// `ceil(bit_len / 8)` bytes (trailing bits zero).
    ///
    /// # Errors
    ///
    /// Returns [`MhheaError::CiphertextTruncated`] when the blocks carry
    /// fewer than `bit_len` bits; the cursor does not move.
    pub fn decrypt(&mut self, blocks: &[u16], bit_len: usize) -> Result<Vec<u8>, MhheaError> {
        decrypt_at(
            &self.key,
            self.algorithm,
            self.profile,
            &mut self.cursor,
            blocks,
            bit_len,
        )
    }
}

/// The next hiding vector, or [`MhheaError::SourceExhausted`] at `cursor`.
#[inline]
fn next_vector(source: &mut impl VectorSource, cursor: &StreamCursor) -> Result<u16, MhheaError> {
    source.next_vector().ok_or(MhheaError::SourceExhausted {
        blocks_produced: cursor.block_index as usize,
    })
}

/// The span table for `(key, algorithm, profile)`: the hardware profile
/// schedules pairs through the 16-deep key cache.
fn table(key: &Key, algorithm: Algorithm, profile: Profile) -> SpanTable {
    match profile {
        Profile::Streaming => SpanTable::new(key, algorithm),
        Profile::HardwareFaithful => SpanTable::new_hw(key, algorithm),
    }
}

/// The encrypt kernel, which every encrypting caller runs: seals the
/// first `bit_len` bits of `message` under `(key, algorithm, profile)`
/// from stream position `cursor`, one hiding vector from `source` per
/// block, and advances `cursor` past every block it produced (on
/// [`MhheaError::SourceExhausted`] too).
///
/// # Panics
///
/// Panics if `bit_len` exceeds `message.len() * 8`.
pub(crate) fn encrypt_at(
    key: &Key,
    algorithm: Algorithm,
    profile: Profile,
    cursor: &mut StreamCursor,
    source: &mut impl VectorSource,
    message: &[u8],
    bit_len: usize,
) -> Result<Vec<u16>, MhheaError> {
    let table = table(key, algorithm, profile);
    let mut reader = BitReader::with_bit_len(message, bit_len);
    let mut blocks = Vec::with_capacity(table.estimated_blocks(bit_len));
    match profile {
        Profile::Streaming => {
            while !reader.is_eof() {
                let v = next_vector(source, cursor)?;
                let e = table.entry(cursor.block_index as usize, (v >> 8) as u8);
                let (bits, got) = reader.read_bits16(e.width as usize);
                blocks.push(e.embed(v, bits, got));
                cursor.block_index += 1;
            }
        }
        Profile::HardwareFaithful => {
            // The message cache loads 32-bit words; each supplies two
            // 16-bit halves to the alignment buffer, least significant
            // first (zero-padded at end of message).
            let half_count = bit_len.div_ceil(32) * 2;
            for _ in 0..half_count {
                let (mut reg, _) = reader.read_bits16(16);
                let mut consumed = cursor.buffered as usize;
                while consumed < 16 {
                    let v = next_vector(source, cursor)?;
                    let e = table.entry(cursor.block_index as usize, (v >> 8) as u8);
                    // Circ state: rotate the next message bits onto the
                    // span, then blind full-span replacement (Encrypt
                    // state).
                    let aligned = word::rotl16(reg, e.lo as u32);
                    blocks.push(e.embed_aligned(v, aligned));
                    // Rotate consumed bits away: next bits return to the
                    // LSBs.
                    reg = word::rotr16(aligned, e.lo as u32 + e.width as u32);
                    consumed += e.width as usize;
                    cursor.block_index += 1;
                }
                // The buffer always drains completely (full-span
                // replacement overshoots past 16); the next half starts
                // fresh.
                cursor.buffered = 0;
            }
        }
    }
    Ok(blocks)
}

/// The decrypt kernel, which every decrypting caller runs: recovers
/// `bit_len` message bits from one message's cipher blocks under `(key,
/// algorithm, profile)` at stream position `cursor`. On success `cursor`
/// moves past every block; on [`MhheaError::CiphertextTruncated`] it
/// does not move, so a caller may retry the message with its full
/// blocks.
pub(crate) fn decrypt_at(
    key: &Key,
    algorithm: Algorithm,
    profile: Profile,
    cursor: &mut StreamCursor,
    blocks: &[u16],
    bit_len: usize,
) -> Result<Vec<u8>, MhheaError> {
    let table = table(key, algorithm, profile);
    let mut writer = BitWriter::new();
    let mut recovered = 0usize;
    let base = cursor.block_index;
    let mut consumed = cursor.buffered as usize;
    match profile {
        Profile::Streaming => {
            for (i, &cipher) in blocks.iter().enumerate() {
                if recovered >= bit_len {
                    break;
                }
                let e = table.entry((base + i as u64) as usize, (cipher >> 8) as u8);
                // Extraction is capped by `bit_len` — never trust a
                // (possibly corrupted) header to size the output.
                let take = (e.width as usize).min(bit_len - recovered);
                writer.push_bits(e.extract(cipher, take) as u64, take);
                recovered += take;
            }
        }
        Profile::HardwareFaithful => {
            for (i, &cipher) in blocks.iter().enumerate() {
                let e = table.entry((base + i as u64) as usize, (cipher >> 8) as u8);
                // Only the first `fresh` span positions carry new message
                // bits; the rest are the encryptor's stale buffer
                // wrap-around. Extraction is additionally capped by
                // `bit_len` (a corrupted header must not inflate the
                // output or the allocation).
                let fresh = (e.width as usize).min(16 - consumed);
                let take = fresh.min(bit_len.saturating_sub(recovered));
                writer.push_bits(e.extract(cipher, take) as u64, take);
                recovered += take;
                consumed += e.width as usize;
                if consumed >= 16 {
                    consumed = 0;
                }
            }
        }
    }
    if recovered < bit_len {
        return Err(MhheaError::CiphertextTruncated {
            got_bits: recovered,
            want_bits: bit_len,
        });
    }
    // Every supplied block advances the schedule — the encrypt side
    // produced all of them for this message, even past the `bit_len` cap.
    // The streaming arm never touches `consumed`.
    cursor.block_index = base + blocks.len() as u64;
    cursor.buffered = consumed as u8;
    Ok(writer.into_bytes())
}

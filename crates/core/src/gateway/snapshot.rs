//! The MHSS stream snapshot: encode and decode a stream's full resume
//! state (layout in the [gateway module docs](crate::gateway)).

use super::{StreamId, StreamState, TableInterner};
use crate::key::{KeyError, KeyRing, MAX_PAIRS};
use crate::session::{CursorDecodeError, StreamCursor};
use crate::source::LfsrSource;
use crate::{Algorithm, Key, Profile};

/// Stream snapshot magic bytes.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MHSS";
/// Stream snapshot format version emitted by [`super::StreamMux::evict`]
/// and the only one [`super::StreamMux::restore`] accepts (v2: carries
/// the key epoch and the keyring).
pub const SNAPSHOT_VERSION: u8 = 2;
/// Size of the fixed prefix every snapshot starts with: everything
/// through the decrypt cursor. A shorter input is reported as truncated
/// before its version is looked at.
pub const SNAPSHOT_HEADER_LEN: usize = 36;
/// Snapshot v2 header size (the fixed prefix + epoch, master seed, ring
/// count).
pub const SNAPSHOT_V2_HEADER_LEN: usize = 44;

/// Errors decoding a stream snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotDecodeError {
    /// The snapshot does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// Unsupported snapshot version.
    UnsupportedVersion(u8),
    /// The byte stream ended early.
    Truncated {
        /// Bytes needed.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// Unknown algorithm tag.
    UnknownAlgorithm(u8),
    /// Unknown profile tag.
    UnknownProfile(u8),
    /// Key pair count outside `1..=16`.
    BadPairCount(u8),
    /// The snapshotted LFSR state is zero (the lattice fixed point — a
    /// live stream can never reach it).
    ZeroLfsrState,
    /// The snapshot carries a keyring whose master seed is zero.
    ZeroRingSeed,
    /// A cursor field failed to decode.
    Cursor(CursorDecodeError),
    /// A key pair byte failed validation.
    Key(KeyError),
}

impl core::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotDecodeError::BadMagic => write!(f, "not a stream snapshot"),
            SnapshotDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotDecodeError::Truncated { need, have } => {
                write!(f, "snapshot truncated: need {need} bytes, have {have}")
            }
            SnapshotDecodeError::UnknownAlgorithm(a) => write!(f, "unknown algorithm tag {a}"),
            SnapshotDecodeError::UnknownProfile(p) => write!(f, "unknown profile tag {p}"),
            SnapshotDecodeError::BadPairCount(n) => {
                write!(f, "key pair count {n} out of range (1..=16)")
            }
            SnapshotDecodeError::ZeroLfsrState => write!(f, "snapshotted LFSR state is zero"),
            SnapshotDecodeError::ZeroRingSeed => {
                write!(f, "snapshotted keyring master seed is zero")
            }
            SnapshotDecodeError::Cursor(e) => write!(f, "cursor field: {e}"),
            SnapshotDecodeError::Key(e) => write!(f, "key field: {e}"),
        }
    }
}

impl std::error::Error for SnapshotDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotDecodeError::Cursor(e) => Some(e),
            SnapshotDecodeError::Key(e) => Some(e),
            _ => None,
        }
    }
}

/// Little-endian `u16` at `at`, or `None` past the end.
fn le_u16(bytes: &[u8], at: usize) -> Option<u16> {
    bytes
        .get(at..at.checked_add(2)?)?
        .try_into()
        .ok()
        .map(u16::from_le_bytes)
}

/// Little-endian `u32` at `at`, or `None` past the end.
fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at.checked_add(4)?)?
        .try_into()
        .ok()
        .map(u32::from_le_bytes)
}

/// Little-endian `u64` at `at`, or `None` past the end.
fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at.checked_add(8)?)?
        .try_into()
        .ok()
        .map(u64::from_le_bytes)
}

fn algorithm_tag(algorithm: Algorithm) -> u8 {
    match algorithm {
        Algorithm::Hhea => 0,
        Algorithm::Mhhea => 1,
    }
}

fn profile_tag(profile: Profile) -> u8 {
    match profile {
        Profile::Streaming => 0,
        Profile::HardwareFaithful => 1,
    }
}

fn push_pairs(out: &mut Vec<u8>, key: &Key) {
    for p in key.pairs() {
        let (l, r) = p.halves();
        out.push(l | (r << 3));
    }
}

pub(super) fn encode_snapshot(id: StreamId, state: &StreamState) -> Vec<u8> {
    let pairs = state.key.pairs();
    let mut out = Vec::with_capacity(SNAPSHOT_V2_HEADER_LEN + pairs.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.push(SNAPSHOT_VERSION);
    out.push(algorithm_tag(state.algorithm));
    out.push(profile_tag(state.profile));
    // lint: allow(truncating-cast, reason = "Key::from_nibbles caps a key at MAX_PAIRS = 16 pairs")
    out.push(pairs.len() as u8);
    out.extend_from_slice(&id.0.to_le_bytes());
    out.extend_from_slice(&state.enc.source().state().to_le_bytes());
    out.extend_from_slice(&state.enc.cursor().to_bytes());
    out.extend_from_slice(&state.dec.cursor().to_bytes());
    out.extend_from_slice(&state.epoch.to_le_bytes());
    match &state.ring {
        Some(ring) => {
            out.extend_from_slice(&ring.master_seed().to_le_bytes());
            // lint: allow(truncating-cast, reason = "KeyRing::new caps a ring at MAX_RING_KEYS = 255 keys")
            out.push(ring.len() as u8);
            out.push(0); // reserved
            push_pairs(&mut out, &state.key);
            for key in ring.keys() {
                // lint: allow(truncating-cast, reason = "Key::from_nibbles caps a key at MAX_PAIRS = 16 pairs")
                out.push(key.len() as u8);
                push_pairs(&mut out, key);
            }
        }
        None => {
            out.extend_from_slice(&0u16.to_le_bytes());
            out.push(0);
            out.push(0); // reserved
            push_pairs(&mut out, &state.key);
        }
    }
    out
}

/// Reads one `pair count ∥ pairs` key out of a snapshot's trailing bytes.
fn take_key(bytes: &[u8], at: &mut usize) -> Result<Key, SnapshotDecodeError> {
    let count = *bytes.get(*at).ok_or(SnapshotDecodeError::Truncated {
        need: *at + 1,
        have: bytes.len(),
    })? as usize;
    if count == 0 || count > MAX_PAIRS {
        // lint: allow(truncating-cast, reason = "count was widened from the single snapshot byte read above, so it is < 256")
        return Err(SnapshotDecodeError::BadPairCount(count as u8));
    }
    let need = *at + 1 + count;
    let Some(key_bytes) = bytes.get(*at + 1..need) else {
        return Err(SnapshotDecodeError::Truncated {
            need,
            have: bytes.len(),
        });
    };
    let key = key_from_pair_bytes(key_bytes)?;
    *at = need;
    Ok(key)
}

/// Rebuilds a key from packed `left | right << 3` pair bytes.
fn key_from_pair_bytes(bytes: &[u8]) -> Result<Key, SnapshotDecodeError> {
    let nibbles: Vec<(u8, u8)> = bytes.iter().map(|&b| (b & 0x07, (b >> 3) & 0x07)).collect();
    Key::from_nibbles(&nibbles).map_err(SnapshotDecodeError::Key)
}

/// Decodes a snapshot into a stream whose sessions run on `tables`'
/// shared table for the snapshotted key.
pub(super) fn decode_snapshot(
    bytes: &[u8],
    tables: &TableInterner,
) -> Result<(StreamId, StreamState), SnapshotDecodeError> {
    let truncated = |need: usize| SnapshotDecodeError::Truncated {
        need,
        have: bytes.len(),
    };
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    }
    if bytes.get(0..4) != Some(SNAPSHOT_MAGIC.as_slice()) {
        return Err(SnapshotDecodeError::BadMagic);
    }
    let (Some(&version), Some(&alg), Some(&prof), Some(&raw_pairs)) =
        (bytes.get(4), bytes.get(5), bytes.get(6), bytes.get(7))
    else {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    };
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotDecodeError::UnsupportedVersion(version));
    }
    let algorithm = match alg {
        0 => Algorithm::Hhea,
        1 => Algorithm::Mhhea,
        other => return Err(SnapshotDecodeError::UnknownAlgorithm(other)),
    };
    let profile = match prof {
        0 => Profile::Streaming,
        1 => Profile::HardwareFaithful,
        other => return Err(SnapshotDecodeError::UnknownProfile(other)),
    };
    let pair_count = raw_pairs as usize;
    if pair_count == 0 || pair_count > MAX_PAIRS {
        return Err(SnapshotDecodeError::BadPairCount(raw_pairs));
    }
    let Some(raw_id) = le_u64(bytes, 8) else {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    };
    let id = StreamId(raw_id);
    let Some(lfsr_state) = le_u16(bytes, 16) else {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    };
    if lfsr_state == 0 {
        return Err(SnapshotDecodeError::ZeroLfsrState);
    }
    let Some(enc_bytes) = bytes.get(18..27) else {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    };
    let enc_cursor = StreamCursor::from_bytes(enc_bytes).map_err(SnapshotDecodeError::Cursor)?;
    let Some(dec_bytes) = bytes.get(27..36) else {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    };
    let dec_cursor = StreamCursor::from_bytes(dec_bytes).map_err(SnapshotDecodeError::Cursor)?;
    let (Some(epoch), Some(master_seed), Some(&ring_count)) =
        (le_u32(bytes, 36), le_u16(bytes, 40), bytes.get(42))
    else {
        return Err(truncated(SNAPSHOT_V2_HEADER_LEN));
    };
    let ring_count = ring_count as usize;
    let need = SNAPSHOT_V2_HEADER_LEN + pair_count;
    let Some(key_bytes) = bytes.get(SNAPSHOT_V2_HEADER_LEN..need) else {
        return Err(truncated(need));
    };
    let key = key_from_pair_bytes(key_bytes)?;
    let ring = if ring_count > 0 {
        if master_seed == 0 {
            return Err(SnapshotDecodeError::ZeroRingSeed);
        }
        let mut at = need;
        let mut keys = Vec::with_capacity(ring_count);
        for _ in 0..ring_count {
            keys.push(take_key(bytes, &mut at)?);
        }
        // Count and seed were just validated; ring_count is a u8, so
        // the length caps cannot trip.
        Some(KeyRing::new(keys, master_seed).map_err(SnapshotDecodeError::Key)?)
    } else {
        None
    };
    // A fresh LfsrSource at the snapshotted state continues the exact
    // vector sequence: state() is the register before the next leap. The
    // state was validated nonzero above, so the error arm is unreachable
    // but keeps the serving path total.
    let source = LfsrSource::new(lfsr_state).map_err(|_| SnapshotDecodeError::ZeroLfsrState)?;
    let mut state = StreamState::new(key, algorithm, profile, source, ring, tables);
    state.enc.set_cursor(enc_cursor);
    state.enc.set_epoch(epoch);
    state.dec.set_cursor(dec_cursor);
    state.dec.set_epoch(epoch);
    state.epoch = epoch;
    Ok((id, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::tests::{key, ring};
    use crate::gateway::{StreamConfig, StreamMux};

    /// Decodes against a throwaway interner.
    fn decode_snapshot(bytes: &[u8]) -> Result<(StreamId, StreamState), SnapshotDecodeError> {
        super::decode_snapshot(bytes, &TableInterner::default())
    }

    #[test]
    fn snapshot_v2_ring_garbage_rejected() {
        let mux = StreamMux::with_shards(2);
        mux.open(StreamId(5), StreamConfig::new(key()).with_ring(ring()))
            .unwrap();
        let snap = mux.evict(StreamId(5)).unwrap();
        // Zero the ring master seed while keeping the ring count.
        let mut bad = snap.clone();
        bad[40] = 0;
        bad[41] = 0;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::ZeroRingSeed
        );
        // Truncate inside the trailing ring keys.
        assert!(matches!(
            decode_snapshot(&snap[..snap.len() - 1]),
            Err(SnapshotDecodeError::Truncated { .. })
        ));
        // Inflate a ring key's pair count past the cache depth.
        let mut bad = snap;
        let first_ring_key_count = SNAPSHOT_V2_HEADER_LEN + key().pairs().len();
        bad[first_ring_key_count] = 17;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::BadPairCount(17)
        );
    }

    /// A snapshot in the retired v1 layout (the fixed prefix, then the
    /// key pairs — shorter than a v2 header) is refused by version, not
    /// misread as a truncated v2, and restoring it leaves the mux as it
    /// was.
    #[test]
    fn snapshot_v1_is_refused() {
        let k = key();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&SNAPSHOT_MAGIC);
        v1.extend_from_slice(&[1, 1, 0, k.len() as u8]); // v1, MHHEA, streaming, P
        v1.extend_from_slice(&8u64.to_le_bytes());
        v1.extend_from_slice(&0xACE1u16.to_le_bytes());
        v1.extend_from_slice(&StreamCursor::start().to_bytes());
        v1.extend_from_slice(&StreamCursor::start().to_bytes());
        push_pairs(&mut v1, &k);
        assert!(v1.len() < SNAPSHOT_V2_HEADER_LEN);
        assert_eq!(
            decode_snapshot(&v1).unwrap_err(),
            SnapshotDecodeError::UnsupportedVersion(1)
        );
        let mux = StreamMux::with_shards(2);
        assert_eq!(
            mux.restore(&v1),
            Err(crate::gateway::GatewayError::Snapshot(
                SnapshotDecodeError::UnsupportedVersion(1)
            ))
        );
        assert!(mux.is_empty());
    }

    #[test]
    fn snapshot_decode_rejects_garbage() {
        let mux = StreamMux::new();
        mux.open(StreamId(3), StreamConfig::new(key())).unwrap();
        let snap = mux.evict(StreamId(3)).unwrap();
        assert!(matches!(
            decode_snapshot(&snap[..10]),
            Err(SnapshotDecodeError::Truncated { .. })
        ));
        let mut bad = snap.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::BadMagic
        );
        let mut bad = snap.clone();
        bad[4] = 9;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::UnsupportedVersion(9)
        );
        let mut bad = snap.clone();
        bad[5] = 5;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::UnknownAlgorithm(5)
        );
        let mut bad = snap.clone();
        bad[7] = 0;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::BadPairCount(0)
        );
        let mut bad = snap.clone();
        bad[16] = 0;
        bad[17] = 0;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::ZeroLfsrState
        );
        // Buffered byte of the encrypt cursor out of range.
        let mut bad = snap;
        bad[26] = 16;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotDecodeError::Cursor(
                CursorDecodeError::InvalidBuffered(16)
            ))
        ));
    }
}

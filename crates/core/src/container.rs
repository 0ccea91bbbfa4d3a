//! Self-describing ciphertext containers (v1 single-stream, v2 chunked).
//!
//! Raw MHHEA output is a sequence of 16-bit vectors; decryption
//! additionally needs the message bit length, the cipher variant and the
//! buffering profile. The containers serialise all of that with a key
//! fingerprint so wrong-key attempts fail loudly instead of returning
//! noise.
//!
//! **v1** ([`seal`]) is one stream sealed from the stream origin. **v2**
//! ([`seal_v2`]) frames the payload into fixed-size chunks, each sealed
//! independently from the stream origin with an LFSR seed derived from
//! the master seed and the chunk number ([`crate::pipeline::chunk_seed`]),
//! so a large payload seals *and* opens chunk-parallel across threads.
//! [`open`] reads both versions.
//!
//! v1 layout (little-endian):
//!
//! ```text
//! offset size field
//! 0      4    magic  "MHEA"
//! 4      1    version (1)
//! 5      1    algorithm (0 = HHEA, 1 = MHHEA)
//! 6      1    profile   (0 = streaming, 1 = hardware-faithful)
//! 7      1    reserved  (0)
//! 8      8    key fingerprint (FNV-1a; integrity hint, not authentication)
//! 16     8    message bit length
//! 24     4    block count
//! 28     2n   blocks (u16 little-endian)
//! ```
//!
//! v2 layout (little-endian):
//!
//! ```text
//! offset size field
//! 0      4    magic  "MHEA"
//! 4      1    version (2)
//! 5      1    algorithm (0 = HHEA, 1 = MHHEA)
//! 6      1    profile   (0 = streaming, 1 = hardware-faithful)
//! 7      1    reserved  (0)
//! 8      8    key fingerprint
//! 16     8    total message bit length
//! 24     2    master LFSR seed (per-chunk seeds derive from it)
//! 26     2    reserved (0)
//! 28     4    chunk count
//! 32     —    chunk frames, in index order:
//!               +0   4    chunk index (consistency check)
//!               +4   4    chunk bit length
//!               +8   4    block count n
//!               +12  2n   blocks (u16 little-endian)
//! ```
//!
//! Every chunk but the last carries a whole number of bytes, so opened
//! chunks concatenate without bit shifting.

use bitkit::{le_u16, le_u32, le_u64};

use crate::pipeline::{chunk_ranges, chunk_seed, parallel_map, DEFAULT_CHUNK_BYTES};
use crate::session::{decrypt_at, encrypt_at, StreamCursor};
use crate::source::LfsrSource;
use crate::{Algorithm, Key, MhheaError, Profile};

/// Container magic bytes.
pub const MAGIC: [u8; 4] = *b"MHEA";
/// Single-stream container version.
pub const VERSION: u8 = 1;
/// Chunked container version.
pub const VERSION_V2: u8 = 2;
/// v1 header size in bytes.
pub const HEADER_LEN: usize = 28;
/// v2 header size in bytes.
pub const HEADER_V2_LEN: usize = 32;
/// Per-chunk frame header size in bytes (index, bit length, block count).
pub const CHUNK_HEADER_LEN: usize = 12;

/// Errors opening or building containers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ContainerError {
    /// The payload does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported container version.
    UnsupportedVersion(u8),
    /// Unknown algorithm tag.
    UnknownAlgorithm(u8),
    /// Unknown profile tag.
    UnknownProfile(u8),
    /// The byte stream ended inside the header or block payload.
    Truncated {
        /// Bytes needed.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The supplied key does not match the container's fingerprint.
    KeyMismatch,
    /// A v2 chunk frame is inconsistent (out-of-order index, a mid-stream
    /// chunk with a fractional byte count, or bit lengths that do not sum
    /// to the header total).
    ChunkFraming {
        /// Index of the offending chunk frame.
        index: u32,
    },
    /// [`SealV2Options::chunk_bytes`] is unusable: zero, not a multiple of
    /// 4 (the hardware profile consumes whole 32-bit words), or too large
    /// to frame.
    InvalidChunkSize {
        /// The rejected size.
        chunk_bytes: usize,
    },
    /// An engine-level failure.
    Engine(MhheaError),
}

impl core::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "not an MHHEA container"),
            ContainerError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            ContainerError::UnknownAlgorithm(a) => write!(f, "unknown algorithm tag {a}"),
            ContainerError::UnknownProfile(p) => write!(f, "unknown profile tag {p}"),
            ContainerError::Truncated { need, have } => {
                write!(f, "container truncated: need {need} bytes, have {have}")
            }
            ContainerError::KeyMismatch => write!(f, "key fingerprint mismatch"),
            ContainerError::ChunkFraming { index } => {
                write!(f, "inconsistent chunk frame at index {index}")
            }
            ContainerError::InvalidChunkSize { chunk_bytes } => {
                write!(
                    f,
                    "chunk size {chunk_bytes} is invalid (must be a nonzero multiple of 4)"
                )
            }
            ContainerError::Engine(e) => write!(f, "engine failure: {e}"),
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MhheaError> for ContainerError {
    fn from(e: MhheaError) -> Self {
        ContainerError::Engine(e)
    }
}

/// Options for [`seal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealOptions {
    /// Cipher variant (default MHHEA).
    pub algorithm: Algorithm,
    /// Buffering profile (default streaming).
    pub profile: Profile,
    /// LFSR seed for the hiding-vector generator (nonzero; default
    /// `0xACE1`).
    pub lfsr_seed: u16,
}

impl Default for SealOptions {
    fn default() -> Self {
        SealOptions {
            algorithm: Algorithm::Mhhea,
            profile: Profile::Streaming,
            lfsr_seed: 0xACE1,
        }
    }
}

/// Encrypts `message` under `key` into a self-describing v1 container.
///
/// # Errors
///
/// Returns [`ContainerError::Engine`] for engine failures; a zero LFSR
/// seed is rejected as [`MhheaError::InvalidSeed`].
pub fn seal(key: &Key, message: &[u8], opts: &SealOptions) -> Result<Vec<u8>, ContainerError> {
    let mut source = LfsrSource::new(opts.lfsr_seed)
        .map_err(|_| ContainerError::Engine(MhheaError::InvalidSeed))?;
    let bit_len = message.len() * 8;
    let mut origin = StreamCursor::start();
    let blocks = encrypt_at(
        key,
        opts.algorithm,
        opts.profile,
        &mut origin,
        &mut source,
        message,
        bit_len,
    )?;

    let mut out = Vec::with_capacity(HEADER_LEN + blocks.len() * 2);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(opts.algorithm.tag());
    out.push(opts.profile.tag());
    out.push(0); // reserved
    out.extend_from_slice(&key.fingerprint().to_le_bytes());
    out.extend_from_slice(&(bit_len as u64).to_le_bytes());
    out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for b in blocks {
        out.extend_from_slice(&b.to_le_bytes());
    }
    Ok(out)
}

/// Options for [`seal_v2`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealV2Options {
    /// Cipher variant (default MHHEA).
    pub algorithm: Algorithm,
    /// Buffering profile (default streaming).
    pub profile: Profile,
    /// Master LFSR seed; each chunk runs on
    /// [`chunk_seed`]`(master_seed, index)` (nonzero; default `0xACE1`).
    pub master_seed: u16,
    /// Payload bytes per chunk (nonzero multiple of 4; default 64 KiB).
    pub chunk_bytes: usize,
    /// Worker threads for sealing; `0` (default) asks the OS.
    pub workers: usize,
}

impl Default for SealV2Options {
    fn default() -> Self {
        SealV2Options {
            algorithm: Algorithm::Mhhea,
            profile: Profile::Streaming,
            master_seed: 0xACE1,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            workers: 0,
        }
    }
}

fn validate_chunk_bytes(chunk_bytes: usize) -> Result<(), ContainerError> {
    // The 4-byte floor keeps every non-final chunk a whole number of the
    // hardware profile's 32-bit message words; the ceiling keeps the
    // per-chunk bit length inside its u32 frame field.
    if chunk_bytes == 0 || !chunk_bytes.is_multiple_of(4) || chunk_bytes > (u32::MAX / 8) as usize {
        return Err(ContainerError::InvalidChunkSize { chunk_bytes });
    }
    Ok(())
}

/// Encrypts `message` under `key` into a chunked v2 container,
/// parallelising across chunks.
///
/// # Errors
///
/// [`ContainerError::InvalidChunkSize`] for an unusable chunk size,
/// [`MhheaError::InvalidSeed`] (wrapped in [`ContainerError::Engine`]) for
/// a zero master seed, and [`ContainerError::Engine`] for engine failures.
pub fn seal_v2(key: &Key, message: &[u8], opts: &SealV2Options) -> Result<Vec<u8>, ContainerError> {
    validate_chunk_bytes(opts.chunk_bytes)?;
    if opts.master_seed == 0 {
        return Err(ContainerError::Engine(MhheaError::InvalidSeed));
    }
    let ranges = chunk_ranges(message.len(), opts.chunk_bytes);
    let chunk_count = ranges.len() as u32;
    let chunk_lens: Vec<usize> = ranges.iter().map(std::ops::Range::len).collect();

    // Pool jobs outlive this stack frame, so each chunk owns its bytes
    // (one payload-sized copy total) and the jobs share one key copy.
    // Every chunk runs from the stream origin, with its own LFSR source.
    let jobs: Vec<(u32, Vec<u8>)> = ranges
        .into_iter()
        .enumerate()
        .map(|(i, r)| (i as u32, message[r].to_vec()))
        .collect();
    let (algorithm, profile, master_seed) = (opts.algorithm, opts.profile, opts.master_seed);
    let shared = key.clone();
    let sealed: Vec<Result<Vec<u16>, MhheaError>> =
        parallel_map(jobs, opts.workers, move |_, (index, chunk)| {
            let seed = chunk_seed(master_seed, index);
            let mut source = LfsrSource::new(seed).expect("derived seeds are nonzero");
            let mut origin = StreamCursor::start();
            encrypt_at(
                &shared,
                algorithm,
                profile,
                &mut origin,
                &mut source,
                &chunk,
                chunk.len() * 8,
            )
        });

    let mut out = Vec::with_capacity(HEADER_V2_LEN + message.len() * 5);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION_V2);
    out.push(opts.algorithm.tag());
    out.push(opts.profile.tag());
    out.push(0); // reserved
    out.extend_from_slice(&key.fingerprint().to_le_bytes());
    out.extend_from_slice(&((message.len() * 8) as u64).to_le_bytes());
    out.extend_from_slice(&opts.master_seed.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&chunk_count.to_le_bytes());
    for (i, blocks) in sealed.into_iter().enumerate() {
        let blocks = blocks?;
        let bit_len = (chunk_lens[i] * 8) as u32;
        out.extend_from_slice(&(i as u32).to_le_bytes());
        out.extend_from_slice(&bit_len.to_le_bytes());
        out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        for b in blocks {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
    Ok(out)
}

/// Parsed v1 container header (exposed for diagnostics and tooling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Cipher variant.
    pub algorithm: Algorithm,
    /// Buffering profile.
    pub profile: Profile,
    /// Key fingerprint.
    pub fingerprint: u64,
    /// Message bit length.
    pub bit_len: u64,
    /// Number of 16-bit blocks.
    pub block_count: u32,
}

/// Parsed v2 container header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderV2 {
    /// Cipher variant.
    pub algorithm: Algorithm,
    /// Buffering profile.
    pub profile: Profile,
    /// Key fingerprint.
    pub fingerprint: u64,
    /// Total message bit length across all chunks.
    pub bit_len: u64,
    /// Master LFSR seed the per-chunk seeds derive from.
    pub master_seed: u16,
    /// Number of chunk frames.
    pub chunk_count: u32,
}

/// A container that ended before byte `need`.
fn truncated(bytes: &[u8], need: usize) -> ContainerError {
    ContainerError::Truncated {
        need,
        have: bytes.len(),
    }
}

/// Checks the length, magic and version every container header starts
/// with, and parses its algorithm and profile tags.
fn parse_common(
    bytes: &[u8],
    want_version: u8,
    header_len: usize,
) -> Result<(Algorithm, Profile), ContainerError> {
    if bytes.len() < header_len {
        return Err(truncated(bytes, header_len));
    }
    if bytes[0..4] != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    if bytes[4] != want_version {
        return Err(ContainerError::UnsupportedVersion(bytes[4]));
    }
    let algorithm =
        Algorithm::from_tag(bytes[5]).ok_or(ContainerError::UnknownAlgorithm(bytes[5]))?;
    let profile = Profile::from_tag(bytes[6]).ok_or(ContainerError::UnknownProfile(bytes[6]))?;
    Ok((algorithm, profile))
}

/// Parses and validates a v1 container header.
///
/// # Errors
///
/// All structural [`ContainerError`] variants except `KeyMismatch`; a v2
/// container reports [`ContainerError::UnsupportedVersion`]`(2)` — use
/// [`parse_header_v2`] for those.
pub fn parse_header(bytes: &[u8]) -> Result<Header, ContainerError> {
    let (algorithm, profile) = parse_common(bytes, VERSION, HEADER_LEN)?;
    let truncated = || truncated(bytes, HEADER_LEN);
    Ok(Header {
        algorithm,
        profile,
        fingerprint: le_u64(bytes, 8).ok_or_else(truncated)?,
        bit_len: le_u64(bytes, 16).ok_or_else(truncated)?,
        block_count: le_u32(bytes, 24).ok_or_else(truncated)?,
    })
}

/// Parses and validates a v2 container header.
///
/// # Errors
///
/// All structural [`ContainerError`] variants except `KeyMismatch`.
pub fn parse_header_v2(bytes: &[u8]) -> Result<HeaderV2, ContainerError> {
    let (algorithm, profile) = parse_common(bytes, VERSION_V2, HEADER_V2_LEN)?;
    let truncated = || truncated(bytes, HEADER_V2_LEN);
    Ok(HeaderV2 {
        algorithm,
        profile,
        fingerprint: le_u64(bytes, 8).ok_or_else(truncated)?,
        bit_len: le_u64(bytes, 16).ok_or_else(truncated)?,
        master_seed: le_u16(bytes, 24).ok_or_else(truncated)?,
        chunk_count: le_u32(bytes, 28).ok_or_else(truncated)?,
    })
}

/// Decrypts a container sealed with [`seal`] **or** [`seal_v2`] (the
/// version byte selects the path; v2 opens with automatic worker count).
///
/// # Errors
///
/// Structural errors from header parsing, [`ContainerError::KeyMismatch`]
/// for a wrong key, and [`ContainerError::Engine`] for decryption
/// failures.
pub fn open(key: &Key, bytes: &[u8]) -> Result<Vec<u8>, ContainerError> {
    match bytes.get(4) {
        Some(&VERSION_V2) => open_v2_with(key, bytes, 0),
        _ => open_v1(key, bytes),
    }
}

fn open_v1(key: &Key, bytes: &[u8]) -> Result<Vec<u8>, ContainerError> {
    let header = parse_header(bytes)?;
    if header.fingerprint != key.fingerprint() {
        return Err(ContainerError::KeyMismatch);
    }
    let need = HEADER_LEN + header.block_count as usize * 2;
    if bytes.len() < need {
        return Err(truncated(bytes, need));
    }
    let blocks: Vec<u16> = bytes[HEADER_LEN..need]
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
        .collect();
    let mut origin = StreamCursor::start();
    Ok(decrypt_at(
        key,
        header.algorithm,
        header.profile,
        &mut origin,
        &blocks,
        header.bit_len as usize,
    )?)
}

/// Decrypts a v2 container with automatic worker count.
///
/// # Errors
///
/// See [`open`].
pub fn open_v2(key: &Key, bytes: &[u8]) -> Result<Vec<u8>, ContainerError> {
    open_v2_with(key, bytes, 0)
}

/// Decrypts a v2 container across `workers` threads (`0` asks the OS).
///
/// # Errors
///
/// See [`open`].
pub fn open_v2_with(key: &Key, bytes: &[u8], workers: usize) -> Result<Vec<u8>, ContainerError> {
    let header = parse_header_v2(bytes)?;
    if header.fingerprint != key.fingerprint() {
        return Err(ContainerError::KeyMismatch);
    }

    // Walk the frames sequentially (cheap: header reads plus one slice per
    // chunk), validating indices and lengths before any decryption work.
    // Capacity hints come from what the byte stream can physically hold,
    // never from header fields alone — a corrupted chunk count or bit
    // length must fail with Truncated/ChunkFraming, not abort on a huge
    // allocation.
    let plausible_chunks = (header.chunk_count as usize).min(bytes.len() / CHUNK_HEADER_LEN);
    let mut frames: Vec<(u32, usize, Vec<u8>)> = Vec::with_capacity(plausible_chunks);
    let mut offset = HEADER_V2_LEN;
    let mut total_bits: u64 = 0;
    for i in 0..header.chunk_count {
        let (Some(index), Some(bit_len), Some(block_count)) = (
            le_u32(bytes, offset),
            le_u32(bytes, offset + 4),
            le_u32(bytes, offset + 8),
        ) else {
            return Err(truncated(bytes, offset + CHUNK_HEADER_LEN));
        };
        if index != i {
            return Err(ContainerError::ChunkFraming { index });
        }
        // Mid-stream chunks must hold whole bytes or the concatenation
        // below would need bit shifting (seal_v2 never produces that).
        if i + 1 != header.chunk_count && bit_len % 8 != 0 {
            return Err(ContainerError::ChunkFraming { index });
        }
        let body = offset + CHUNK_HEADER_LEN;
        let need = body + block_count as usize * 2;
        if bytes.len() < need {
            return Err(truncated(bytes, need));
        }
        // Owned body: pool jobs must not borrow the caller's buffer (a
        // memcpy per chunk, overlapped with decryption across workers).
        frames.push((index, bit_len as usize, bytes[body..need].to_vec()));
        total_bits += bit_len as u64;
        offset = need;
    }
    if total_bits != header.bit_len {
        return Err(ContainerError::ChunkFraming {
            index: header.chunk_count,
        });
    }

    // Each chunk was sealed independently from the stream origin, so
    // chunks decrypt in any order on any thread, each from a fresh cursor
    // on one shared key copy. The hiding vectors travel inside the
    // blocks themselves — the decrypt side never re-derives the per-chunk
    // seeds (the master seed in the header exists so a holder of the key
    // can reproduce the seal bit-for-bit).
    let (algorithm, profile) = (header.algorithm, header.profile);
    let shared = key.clone();
    let opened: Vec<Result<Vec<u8>, MhheaError>> =
        parallel_map(frames, workers, move |_, (_index, bit_len, body)| {
            let blocks: Vec<u16> = body
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            let mut origin = StreamCursor::start();
            decrypt_at(&shared, algorithm, profile, &mut origin, &blocks, bit_len)
        });

    // A chunk yields at most one plaintext byte per two sealed bytes, so
    // the input length bounds the output regardless of the header total.
    let out_cap = ((header.bit_len as usize) / 8).min(bytes.len());
    let mut out = Vec::with_capacity(out_cap);
    for chunk in opened {
        // Non-final chunks are whole bytes (validated above), so plain
        // byte concatenation reassembles the payload.
        out.extend_from_slice(&chunk?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key::from_nibbles(&[(0, 3), (2, 5), (1, 7)]).unwrap()
    }

    #[test]
    fn seal_open_roundtrip_all_modes() {
        for algorithm in [Algorithm::Hhea, Algorithm::Mhhea] {
            for profile in [Profile::Streaming, Profile::HardwareFaithful] {
                let opts = SealOptions {
                    algorithm,
                    profile,
                    lfsr_seed: 0x1234,
                };
                let sealed = seal(&key(), b"hello container", &opts).unwrap();
                let opened = open(&key(), &sealed).unwrap();
                assert_eq!(opened, b"hello container");
            }
        }
    }

    #[test]
    fn header_fields_roundtrip() {
        let sealed = seal(&key(), b"abc", &SealOptions::default()).unwrap();
        let h = parse_header(&sealed).unwrap();
        assert_eq!(h.algorithm, Algorithm::Mhhea);
        assert_eq!(h.profile, Profile::Streaming);
        assert_eq!(h.bit_len, 24);
        assert_eq!(h.fingerprint, key().fingerprint());
        assert_eq!(sealed.len(), HEADER_LEN + h.block_count as usize * 2);
    }

    #[test]
    fn wrong_key_detected() {
        let sealed = seal(&key(), b"secret", &SealOptions::default()).unwrap();
        let wrong = Key::from_nibbles(&[(4, 4)]).unwrap();
        assert_eq!(open(&wrong, &sealed), Err(ContainerError::KeyMismatch));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut sealed = seal(&key(), b"x", &SealOptions::default()).unwrap();
        sealed[0] = b'X';
        assert_eq!(open(&key(), &sealed), Err(ContainerError::BadMagic));
    }

    #[test]
    fn bad_version_and_tags_rejected() {
        let good = seal(&key(), b"x", &SealOptions::default()).unwrap();
        let mut v = good.clone();
        v[4] = 9;
        assert_eq!(open(&key(), &v), Err(ContainerError::UnsupportedVersion(9)));
        let mut a = good.clone();
        a[5] = 7;
        assert_eq!(open(&key(), &a), Err(ContainerError::UnknownAlgorithm(7)));
        let mut p = good;
        p[6] = 7;
        assert_eq!(open(&key(), &p), Err(ContainerError::UnknownProfile(7)));
    }

    #[test]
    fn truncation_detected() {
        let sealed = seal(&key(), b"a longer message here", &SealOptions::default()).unwrap();
        assert!(matches!(
            open(&key(), &sealed[..10]),
            Err(ContainerError::Truncated { .. })
        ));
        assert!(matches!(
            open(&key(), &sealed[..sealed.len() - 3]),
            Err(ContainerError::Truncated { .. })
        ));
    }

    #[test]
    fn empty_message_container() {
        let sealed = seal(&key(), b"", &SealOptions::default()).unwrap();
        assert_eq!(open(&key(), &sealed).unwrap(), b"");
        let h = parse_header(&sealed).unwrap();
        assert_eq!(h.block_count, 0);
        assert_eq!(h.bit_len, 0);
    }

    #[test]
    fn zero_seed_rejected() {
        let opts = SealOptions {
            lfsr_seed: 0,
            ..Default::default()
        };
        assert_eq!(
            seal(&key(), b"x", &opts),
            Err(ContainerError::Engine(MhheaError::InvalidSeed))
        );
    }

    fn v2_opts(profile: Profile, chunk_bytes: usize, workers: usize) -> SealV2Options {
        SealV2Options {
            profile,
            chunk_bytes,
            workers,
            ..Default::default()
        }
    }

    #[test]
    fn v2_roundtrip_all_modes_multichunk() {
        let message: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        for algorithm in [Algorithm::Hhea, Algorithm::Mhhea] {
            for profile in [Profile::Streaming, Profile::HardwareFaithful] {
                let opts = SealV2Options {
                    algorithm,
                    ..v2_opts(profile, 256, 3)
                };
                let sealed = seal_v2(&key(), &message, &opts).unwrap();
                let h = parse_header_v2(&sealed).unwrap();
                assert_eq!(h.chunk_count, 4); // 1000 bytes / 256
                assert_eq!(h.bit_len, 8000);
                // `open` dispatches on the version byte.
                assert_eq!(open(&key(), &sealed).unwrap(), message);
                // Explicit worker counts agree.
                assert_eq!(open_v2_with(&key(), &sealed, 4).unwrap(), message);
            }
        }
    }

    #[test]
    fn v2_empty_and_single_chunk() {
        let opts = v2_opts(Profile::Streaming, 256, 2);
        let sealed = seal_v2(&key(), b"", &opts).unwrap();
        assert_eq!(parse_header_v2(&sealed).unwrap().chunk_count, 0);
        assert_eq!(open(&key(), &sealed).unwrap(), b"");
        let sealed = seal_v2(&key(), b"small", &opts).unwrap();
        assert_eq!(parse_header_v2(&sealed).unwrap().chunk_count, 1);
        assert_eq!(open(&key(), &sealed).unwrap(), b"small");
    }

    #[test]
    fn v2_wrong_key_and_corruption_detected() {
        let message = vec![0x5Au8; 600];
        let sealed = seal_v2(&key(), &message, &v2_opts(Profile::Streaming, 256, 2)).unwrap();
        let wrong = Key::from_nibbles(&[(4, 4)]).unwrap();
        assert_eq!(open(&wrong, &sealed), Err(ContainerError::KeyMismatch));
        // Truncation inside a chunk body.
        assert!(matches!(
            open(&key(), &sealed[..sealed.len() - 3]),
            Err(ContainerError::Truncated { .. })
        ));
        // Corrupt the first chunk's index field.
        let mut bad = sealed.clone();
        bad[HEADER_V2_LEN] ^= 0x01;
        assert!(matches!(
            open(&key(), &bad),
            Err(ContainerError::ChunkFraming { .. })
        ));
    }

    #[test]
    fn v2_invalid_options_rejected() {
        for chunk_bytes in [0usize, 6, (u32::MAX / 8) as usize + 4] {
            assert_eq!(
                seal_v2(&key(), b"x", &v2_opts(Profile::Streaming, chunk_bytes, 1)),
                Err(ContainerError::InvalidChunkSize { chunk_bytes })
            );
        }
        let opts = SealV2Options {
            master_seed: 0,
            ..Default::default()
        };
        assert_eq!(
            seal_v2(&key(), b"x", &opts),
            Err(ContainerError::Engine(MhheaError::InvalidSeed))
        );
    }

    #[test]
    fn v2_chunks_use_distinct_seeds() {
        // Identical chunk plaintexts must not produce identical chunk
        // frames (each chunk reseeds from the master + index).
        let message = vec![0xA5u8; 512];
        let sealed = seal_v2(&key(), &message, &v2_opts(Profile::Streaming, 256, 1)).unwrap();
        let h = parse_header_v2(&sealed).unwrap();
        assert_eq!(h.chunk_count, 2);
        // Locate both frames and compare their block payloads.
        let c0_blocks = u32::from_le_bytes(
            sealed[HEADER_V2_LEN + 8..HEADER_V2_LEN + 12]
                .try_into()
                .unwrap(),
        );
        let c0_start = HEADER_V2_LEN + CHUNK_HEADER_LEN;
        let c0_end = c0_start + c0_blocks as usize * 2;
        let c1_start = c0_end + CHUNK_HEADER_LEN;
        assert_ne!(
            &sealed[c0_start..c0_start + 32.min(sealed.len() - c1_start)],
            &sealed[c1_start..c1_start + 32.min(sealed.len() - c1_start)]
        );
    }
}

//! The Modified Hybrid Hiding Encryption Algorithm (MHHEA).
//!
//! This crate is the software reference implementation of the cipher from
//! *"An Improved FPGA Implementation of the Modified Hybrid Hiding
//! Encryption Algorithm (MHHEA) for Data Communication Security"* (Farouk &
//! Saeb, DATE 2005), together with the original HHEA baseline the paper
//! compares against.
//!
//! # The cipher in one paragraph
//!
//! MHHEA hides plaintext bits inside 16-bit random *hiding vectors* drawn
//! from an LFSR (or, in steganography mode, from user cover data). A secret
//! key of up to sixteen 3-bit pairs picks, per vector, a span of bit
//! positions in the low byte; the span's location is *scrambled* by the
//! vector's high byte and the hidden bits are XORed with a repeating key
//! pattern. The high byte travels unmodified, which is what lets the
//! receiver recompute the scrambled locations and invert the embedding.
//!
//! # Modules
//!
//! * [`key`] — key material ([`Key`], [`KeyPair`]), the hardware key
//!   schedule, and the epoch-numbered [`KeyRing`] behind online key
//!   rotation.
//! * [`source`] — hiding-vector sources: LFSR (the paper's RNG module),
//!   any [`rand::Rng`], or cover data for steganography mode.
//! * [`block`] — the per-vector primitives: location scrambling, embedding
//!   and extraction, for both MHHEA and HHEA.
//! * [`engine`] — single-shot [`Encryptor`]/[`Decryptor`] in two profiles:
//!   the paper's pseudocode ([`Profile::Streaming`]) and the bit-exact
//!   model of the FPGA datapath ([`Profile::HardwareFaithful`]).
//! * [`session`] — stateful [`EncryptSession`]/[`DecryptSession`] carrying
//!   an explicit [`StreamCursor`], so multi-message traffic keeps both
//!   endpoints' key schedules in lockstep; both sessions rekey in place
//!   to a new [`KeyRing`] epoch with a bit-exact cursor handoff.
//! * [`lanes`] — a bitsliced lockstep kernel: up to 64 streams packed
//!   one-per-bit into `u64` lanes, advancing every lane's LFSR and
//!   hiding-vector substitution per instruction. No serving path calls
//!   it; it is kept as a measured alternative to the scalar path.
//! * [`pipeline`] — chunk planning, per-chunk seed derivation and the
//!   persistent [`pipeline::WorkerPool`] every parallel path submits to.
//! * [`container`] — a self-describing byte format so decryption knows the
//!   message length, profile and key fingerprint; v2 frames the payload
//!   into independently-seeded chunks that seal and open in parallel.
//! * [`gateway`] — a sharded [`StreamMux`] owning thousands of concurrent
//!   sessions keyed by [`StreamId`], with batched encrypt/seal APIs and
//!   evictable, bit-exact-resumable stream snapshots.
//! * [`stats`] — expected span width, expansion factor and throughput
//!   accounting used by the paper's evaluation.
//!
//! # Examples
//!
//! ```
//! use mhhea::{Algorithm, Key, Profile};
//! use mhhea::container::{open, seal, SealOptions};
//!
//! let key = Key::from_nibbles(&[(0, 3), (2, 5), (1, 7), (4, 6)])?;
//! let sealed = seal(&key, b"attack at dawn", &SealOptions::default())?;
//! let recovered = open(&key, &sealed)?;
//! assert_eq!(recovered, b"attack at dawn");
//! # let _ = (Algorithm::Mhhea, Profile::Streaming);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod block;
pub mod container;
pub mod engine;
pub mod gateway;
pub mod key;
pub mod lanes;
pub mod pipeline;
pub mod session;
pub mod source;
pub mod stats;

pub use engine::{Decryptor, Encryptor, Profile};
pub use gateway::{StreamConfig, StreamId, StreamMux};
pub use key::{Key, KeyError, KeyPair, KeyRing};
pub use session::{CursorDecodeError, DecryptSession, EncryptSession, StreamCursor};
pub use source::{CoverSource, LfsrSource, RngSource, VectorSource};

/// Which cipher variant to run.
///
/// The paper's contribution is [`Algorithm::Mhhea`]; the original
/// [`Algorithm::Hhea`] (no location or data scrambling) is implemented as
/// the baseline its security argument is made against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Original Hybrid Hiding Encryption Algorithm: the span is the sorted
    /// key pair itself and message bits are embedded unmodified.
    Hhea,
    /// Modified HHEA: span location scrambled by the vector's high byte,
    /// message bits XORed with the repeating low-key bit pattern.
    #[default]
    Mhhea,
}

impl Algorithm {
    /// Human-readable name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Hhea => "HHEA",
            Algorithm::Mhhea => "MHHEA",
        }
    }

    /// The byte MHEA containers, MHSS snapshots and MHNP handshakes (and
    /// so the MHKX transcript) carry: 0 = HHEA, 1 = MHHEA.
    pub fn tag(self) -> u8 {
        match self {
            Algorithm::Hhea => 0,
            Algorithm::Mhhea => 1,
        }
    }

    /// Inverts [`Algorithm::tag`]; `None` for an unknown tag.
    pub fn from_tag(tag: u8) -> Option<Algorithm> {
        match tag {
            0 => Some(Algorithm::Hhea),
            1 => Some(Algorithm::Mhhea),
            _ => None,
        }
    }
}

impl core::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Errors produced by the MHHEA engines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MhheaError {
    /// Key construction or validation failed.
    Key(KeyError),
    /// The hiding-vector source ran out (finite cover data).
    SourceExhausted {
        /// Blocks produced before exhaustion.
        blocks_produced: usize,
    },
    /// An LFSR seed of zero was supplied (the all-zero state is the
    /// lattice's fixed point and never produces a vector).
    InvalidSeed,
    /// The ciphertext ended before the promised number of message bits was
    /// recovered.
    CiphertextTruncated {
        /// Bits recovered.
        got_bits: usize,
        /// Bits promised.
        want_bits: usize,
    },
    /// A rekey named an epoch that is not strictly newer than the
    /// session's current one — epochs only move forward (accepting a
    /// stale epoch would replay a retired key schedule).
    StaleEpoch {
        /// The session's current epoch.
        current: u32,
        /// The rejected epoch.
        requested: u32,
    },
}

impl core::fmt::Display for MhheaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MhheaError::Key(e) => write!(f, "key error: {e}"),
            MhheaError::SourceExhausted { blocks_produced } => write!(
                f,
                "hiding-vector source exhausted after {blocks_produced} blocks"
            ),
            MhheaError::InvalidSeed => {
                write!(f, "LFSR seed must be nonzero")
            }
            MhheaError::CiphertextTruncated {
                got_bits,
                want_bits,
            } => write!(
                f,
                "ciphertext truncated: recovered {got_bits} of {want_bits} bits"
            ),
            MhheaError::StaleEpoch { current, requested } => write!(
                f,
                "rekey to epoch {requested} rejected: stream is already at epoch {current}"
            ),
        }
    }
}

impl std::error::Error for MhheaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MhheaError::Key(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KeyError> for MhheaError {
    fn from(e: KeyError) -> Self {
        MhheaError::Key(e)
    }
}

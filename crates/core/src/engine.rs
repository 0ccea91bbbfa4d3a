//! Single-shot encryption and decryption engines.
//!
//! Two profiles are provided:
//!
//! * [`Profile::Streaming`] — the paper's pseudocode taken literally: one
//!   global bit cursor, spans truncate only at end of message.
//! * [`Profile::HardwareFaithful`] — a bit-exact model of the FPGA
//!   datapath: the message is processed through a 16-bit alignment buffer
//!   (two halves of each 32-bit `LMsg` word, least-significant half
//!   first), each key pair always replaces its **full** span ("two clock
//!   cycles per key pair regardless of the number of bits replaced"), so
//!   the final span of a buffer may re-embed stale bits that the decryptor
//!   — mirroring the same consumed counter — discards. The key schedule is
//!   the 16-deep key cache ([`crate::Key::expand_cyclic`]).
//!
//! # Cursor semantics
//!
//! The key-pair schedule cycles with the block index, so both endpoints
//! must agree on the stream position. [`Encryptor`] and [`Decryptor`] are
//! **single-shot**: every `encrypt`/`decrypt` call restarts the schedule
//! at block zero (the cursor is rewound), which is what makes a stateless
//! receiver correct — any message a fresh or reused `Encryptor` produces
//! opens with any `Decryptor` holding the key. For continuous multi-
//! message traffic where the position should carry across messages, use
//! the stateful [`crate::session::EncryptSession`] /
//! [`crate::session::DecryptSession`] pair, which run the same kernels.
//!
//! Both profiles are invertible with only the key, the ciphertext and the
//! message bit length; the hiding vector's high byte travels in clear and
//! reseeds the location scrambler on the receive side. Both engines run
//! the crate's two word-level kernels on a precomputed span table (see
//! [`crate::block`] and [`crate::session`]); the per-bit reference
//! formulation is [`crate::block::embed`]/[`crate::block::extract`].

use crate::session::{decrypt_at, EncryptSession, StreamCursor};
use crate::source::VectorSource;
use crate::{Algorithm, Key, MhheaError};

/// Message-buffering discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Profile {
    /// The literal pseudocode: one global bit cursor.
    #[default]
    Streaming,
    /// Bit-exact model of the 16-bit-buffer micro-architecture.
    HardwareFaithful,
}

impl Profile {
    /// Name used in reports and the container header.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Streaming => "streaming",
            Profile::HardwareFaithful => "hardware-faithful",
        }
    }

    /// The byte MHEA containers, MHSS snapshots and MHNP handshakes (and
    /// so the MHKX transcript) carry: 0 = streaming, 1 = hardware-faithful.
    pub fn tag(self) -> u8 {
        match self {
            Profile::Streaming => 0,
            Profile::HardwareFaithful => 1,
        }
    }

    /// Inverts [`Profile::tag`]; `None` for an unknown tag.
    pub fn from_tag(tag: u8) -> Option<Profile> {
        match tag {
            0 => Some(Profile::Streaming),
            1 => Some(Profile::HardwareFaithful),
            _ => None,
        }
    }
}

impl core::fmt::Display for Profile {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The single-shot encryption engine: a thin wrapper that rewinds an
/// [`EncryptSession`] before every message.
///
/// # Examples
///
/// ```
/// use mhhea::{Decryptor, Encryptor, Key, LfsrSource};
///
/// let key = Key::from_nibbles(&[(0, 3), (2, 5)])?;
/// let source = LfsrSource::new(0xACE1)?;
/// let mut enc = Encryptor::new(key.clone(), source);
/// let blocks = enc.encrypt(b"hi")?;
/// let dec = Decryptor::new(key);
/// assert_eq!(dec.decrypt(&blocks, 16)?, b"hi");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Encryptor<S> {
    session: EncryptSession<S>,
    blocks_produced: usize,
}

impl<S: VectorSource> Encryptor<S> {
    /// Creates an MHHEA encryptor in the streaming profile.
    pub fn new(key: Key, source: S) -> Self {
        Encryptor {
            session: EncryptSession::new(key, source),
            blocks_produced: 0,
        }
    }

    /// Selects the cipher variant.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.session = self.session.with_algorithm(algorithm);
        self
    }

    /// Selects the buffering profile.
    #[must_use]
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.session = self.session.with_profile(profile);
        self
    }

    /// Total blocks produced over the encryptor's lifetime (the vector
    /// source advances monotonically even though each message restarts the
    /// key schedule).
    pub fn blocks_produced(&self) -> usize {
        self.blocks_produced
    }

    /// Encrypts a byte message (`bit_len = 8 × message.len()`).
    ///
    /// The key schedule restarts at block zero — the message is decryptable
    /// by any [`Decryptor`] with the key, independent of what this
    /// encryptor produced before.
    ///
    /// # Errors
    ///
    /// Returns [`MhheaError::SourceExhausted`] when the vector source runs
    /// out (finite cover data).
    pub fn encrypt(&mut self, message: &[u8]) -> Result<Vec<u16>, MhheaError> {
        self.encrypt_bits(message, message.len() * 8)
    }

    /// Encrypts the first `bit_len` bits of `message`.
    ///
    /// # Errors
    ///
    /// See [`Encryptor::encrypt`].
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` exceeds `message.len() * 8`.
    pub fn encrypt_bits(&mut self, message: &[u8], bit_len: usize) -> Result<Vec<u16>, MhheaError> {
        self.session.rewind();
        match self.session.encrypt_bits(message, bit_len) {
            Ok(blocks) => {
                self.blocks_produced += blocks.len();
                Ok(blocks)
            }
            Err(MhheaError::SourceExhausted { blocks_produced }) => {
                // The session counts from its rewound origin; surface the
                // lifetime total the way the source sees it.
                self.blocks_produced += blocks_produced;
                Err(MhheaError::SourceExhausted {
                    blocks_produced: self.blocks_produced,
                })
            }
            Err(e) => Err(e),
        }
    }
}

/// The single-shot decryption engine: runs the decrypt kernel from a
/// fresh stream origin on every call.
#[derive(Debug, Clone)]
pub struct Decryptor {
    key: Key,
    algorithm: Algorithm,
    profile: Profile,
}

impl Decryptor {
    /// Creates an MHHEA decryptor in the streaming profile.
    pub fn new(key: Key) -> Self {
        Decryptor {
            key,
            algorithm: Algorithm::Mhhea,
            profile: Profile::Streaming,
        }
    }

    /// Selects the cipher variant.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the buffering profile (must match the encryptor).
    #[must_use]
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Recovers `bit_len` message bits from cipher blocks, returned as
    /// `ceil(bit_len / 8)` bytes (trailing bits zero). Extraction and
    /// output allocation are both capped by `bit_len` in every profile, so
    /// a corrupted length never inflates the result.
    ///
    /// # Errors
    ///
    /// Returns [`MhheaError::CiphertextTruncated`] when the blocks carry
    /// fewer than `bit_len` bits.
    pub fn decrypt(&self, blocks: &[u16], bit_len: usize) -> Result<Vec<u8>, MhheaError> {
        let mut origin = StreamCursor::start();
        decrypt_at(
            &self.key,
            self.algorithm,
            self.profile,
            &mut origin,
            blocks,
            bit_len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CoverSource, LfsrSource, RngSource};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> Key {
        Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 4), (6, 0), (3, 3)]).unwrap()
    }

    fn roundtrip(algorithm: Algorithm, profile: Profile, message: &[u8]) {
        let src = LfsrSource::new(0xACE1).unwrap();
        let mut enc = Encryptor::new(key(), src)
            .with_algorithm(algorithm)
            .with_profile(profile);
        let blocks = enc.encrypt(message).unwrap();
        let dec = Decryptor::new(key())
            .with_algorithm(algorithm)
            .with_profile(profile);
        let got = dec.decrypt(&blocks, message.len() * 8).unwrap();
        assert_eq!(got, message, "alg={algorithm} profile={profile}");
    }

    #[test]
    fn roundtrip_all_modes() {
        let messages: [&[u8]; 5] = [b"", b"a", b"attack at dawn", &[0u8; 64], &[0xFF; 33]];
        for alg in [Algorithm::Hhea, Algorithm::Mhhea] {
            for profile in [Profile::Streaming, Profile::HardwareFaithful] {
                for msg in messages {
                    roundtrip(alg, profile, msg);
                }
            }
        }
    }

    #[test]
    fn second_message_from_one_encryptor_decrypts_statelessly() {
        // The seed bug: the encryptor's pair index kept counting across
        // messages while the stateless decryptor restarted at zero, so any
        // multi-pair key garbled every message after the first.
        for profile in [Profile::Streaming, Profile::HardwareFaithful] {
            let mut enc =
                Encryptor::new(key(), LfsrSource::new(0xACE1).unwrap()).with_profile(profile);
            let dec = Decryptor::new(key()).with_profile(profile);
            for msg in [b"first message".as_slice(), b"second".as_slice(), b"third!"] {
                let blocks = enc.encrypt(msg).unwrap();
                assert_eq!(
                    dec.decrypt(&blocks, msg.len() * 8).unwrap(),
                    msg,
                    "profile={profile}"
                );
            }
        }
    }

    #[test]
    fn empty_message_produces_no_blocks() {
        for profile in [Profile::Streaming, Profile::HardwareFaithful] {
            let src = LfsrSource::new(1).unwrap();
            let mut enc = Encryptor::new(key(), src).with_profile(profile);
            assert_eq!(enc.encrypt(b"").unwrap(), vec![]);
            assert_eq!(enc.blocks_produced(), 0);
        }
    }

    #[test]
    fn ciphertext_differs_from_message_and_varies_by_seed() {
        let msg = b"the same message";
        let mut e1 = Encryptor::new(key(), LfsrSource::new(0xACE1).unwrap());
        let mut e2 = Encryptor::new(key(), LfsrSource::new(0xBEEF).unwrap());
        let b1 = e1.encrypt(msg).unwrap();
        let b2 = e2.encrypt(msg).unwrap();
        assert_ne!(b1, b2, "different hiding vectors must change blocks");
        // Same seed reproduces exactly.
        let mut e3 = Encryptor::new(key(), LfsrSource::new(0xACE1).unwrap());
        assert_eq!(e3.encrypt(msg).unwrap(), b1);
    }

    #[test]
    fn expansion_factor_is_roughly_16_over_expected_span() {
        let msg = vec![0xA5u8; 4096];
        let mut enc = Encryptor::new(key(), RngSource::new(StdRng::seed_from_u64(7)));
        let blocks = enc.encrypt(&msg).unwrap();
        let bits_in = (msg.len() * 8) as f64;
        let bits_out = (blocks.len() * 16) as f64;
        let expansion = bits_out / bits_in;
        let expected = 16.0 / crate::stats::expected_span_key(&key(), Algorithm::Mhhea);
        assert!(
            (expansion - expected).abs() / expected < 0.05,
            "expansion {expansion:.3} vs expected {expected:.3}"
        );
    }

    #[test]
    fn cover_exhaustion_is_reported() {
        let src = CoverSource::new(vec![0xFFFF; 3]);
        let mut enc = Encryptor::new(key(), src);
        let err = enc.encrypt(&[0xA5; 100]).unwrap_err();
        assert_eq!(err, MhheaError::SourceExhausted { blocks_produced: 3 });
    }

    #[test]
    fn exhaustion_counts_lifetime_blocks() {
        // 10 cover words: the first message takes some, the second runs out;
        // the error reports the lifetime total the source actually supplied.
        let src = CoverSource::new(vec![0xFFFF; 10]);
        let mut enc = Encryptor::new(key(), src);
        let first = enc.encrypt(&[0xA5; 2]).unwrap();
        let err = enc.encrypt(&[0xA5; 100]).unwrap_err();
        assert_eq!(
            err,
            MhheaError::SourceExhausted {
                blocks_produced: 10
            }
        );
        assert_eq!(enc.blocks_produced(), 10);
        assert!(first.len() < 10);
    }

    #[test]
    fn truncated_ciphertext_is_reported() {
        let mut enc = Encryptor::new(key(), LfsrSource::new(0xACE1).unwrap());
        let blocks = enc.encrypt(b"0123456789").unwrap();
        let dec = Decryptor::new(key());
        let err = dec.decrypt(&blocks[..2], 80).unwrap_err();
        assert!(matches!(err, MhheaError::CiphertextTruncated { .. }));
    }

    #[test]
    fn wrong_key_garbles_plaintext() {
        let mut enc = Encryptor::new(key(), LfsrSource::new(0xACE1).unwrap());
        let msg = b"a longer secret message for the wrong-key check";
        let blocks = enc.encrypt(msg).unwrap();
        let wrong = Key::from_nibbles(&[(1, 6), (0, 2), (5, 5)]).unwrap();
        let dec = Decryptor::new(wrong);
        // Wrong key may yield a length error or garbage; never the message.
        match dec.decrypt(&blocks, msg.len() * 8) {
            Ok(got) => assert_ne!(got, msg),
            Err(MhheaError::CiphertextTruncated { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn hw_profile_blocks_cover_whole_halfwords() {
        // Per 16-bit half, embedded spans sum to >= 16 (blind full-span
        // embedding), so block count >= message halves.
        let msg = vec![0x3Cu8; 32]; // 256 bits = 16 halves
        let mut enc = Encryptor::new(key(), LfsrSource::new(0xACE1).unwrap())
            .with_profile(Profile::HardwareFaithful);
        let blocks = enc.encrypt(&msg).unwrap();
        assert!(
            blocks.len() >= 16 * 16 / 8,
            "too few blocks: {}",
            blocks.len()
        );
        // And the two profiles genuinely differ on the same input.
        let mut enc_s = Encryptor::new(key(), LfsrSource::new(0xACE1).unwrap());
        let blocks_s = enc_s.encrypt(&msg).unwrap();
        assert_ne!(blocks, blocks_s);
    }

    #[test]
    fn hw_decrypt_honors_bit_len() {
        // The seed decryptor ignored `bit_len` and extracted bits for every
        // block before truncating; a corrupted (huge) header length must
        // error, not inflate the output, and a short length must cap it.
        let msg = b"0123456789abcdef";
        let mut enc = Encryptor::new(key(), LfsrSource::new(0xACE1).unwrap())
            .with_profile(Profile::HardwareFaithful);
        let blocks = enc.encrypt(msg).unwrap();
        let dec = Decryptor::new(key()).with_profile(Profile::HardwareFaithful);
        // Corrupted-long: errors with the true recovered count.
        let err = dec.decrypt(&blocks, usize::MAX).unwrap_err();
        match err {
            MhheaError::CiphertextTruncated { got_bits, .. } => {
                assert_eq!(got_bits, msg.len() * 8)
            }
            e => panic!("unexpected error {e}"),
        }
        // Corrupted-short: output capped at ceil(bit_len / 8) bytes.
        let short = dec.decrypt(&blocks, 20).unwrap();
        assert_eq!(short.len(), 3);
        assert_eq!(&short[..2], &msg[..2]);
    }

    #[test]
    fn bit_level_message_roundtrip() {
        // 13 bits of a 2-byte buffer.
        let src = LfsrSource::new(0x1357).unwrap();
        let mut enc = Encryptor::new(key(), src);
        let blocks = enc.encrypt_bits(&[0b1010_1010, 0b0001_1111], 13).unwrap();
        let dec = Decryptor::new(key());
        let got = dec.decrypt(&blocks, 13).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], 0b1010_1010);
        assert_eq!(got[1] & 0x1F, 0b0001_1111 & 0x1F);
    }

    #[test]
    fn hw_bit_level_roundtrip_unaligned() {
        // Non-byte-aligned lengths through the 16-bit alignment buffer:
        // 13 bits (mid-half) and 40 bits (mid-word).
        for (bytes, bit_len) in [
            (vec![0b1010_1010u8, 0b0001_1111], 13usize),
            (vec![0xDE, 0xAD, 0xBE, 0xEF, 0x35], 40),
        ] {
            let mut enc = Encryptor::new(key(), LfsrSource::new(0x1357).unwrap())
                .with_profile(Profile::HardwareFaithful);
            let blocks = enc.encrypt_bits(&bytes, bit_len).unwrap();
            let dec = Decryptor::new(key()).with_profile(Profile::HardwareFaithful);
            let got = dec.decrypt(&blocks, bit_len).unwrap();
            assert_eq!(got.len(), bit_len.div_ceil(8));
            for i in 0..bit_len {
                assert_eq!(
                    (got[i / 8] >> (i % 8)) & 1,
                    (bytes[i / 8] >> (i % 8)) & 1,
                    "bit {i} of {bit_len}"
                );
            }
        }
    }

    #[test]
    fn single_pair_key_works() {
        let k = Key::from_nibbles(&[(3, 6)]).unwrap();
        let mut enc = Encryptor::new(k.clone(), LfsrSource::new(42).unwrap());
        let blocks = enc.encrypt(b"x").unwrap();
        let got = Decryptor::new(k).decrypt(&blocks, 8).unwrap();
        assert_eq!(got, b"x");
    }
}

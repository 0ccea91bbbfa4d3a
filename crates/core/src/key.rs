//! Key material: pairs of 3-bit hiding-location indices.
//!
//! The paper's key is a matrix `K[L×2]`, `L ≤ 16`, of values in `0..=7`.
//! Each pair bounds a span of bit positions in the hiding vector's low
//! byte; the smaller half additionally provides the 3-bit XOR pattern for
//! data scrambling. The micro-architecture's key cache always holds 16
//! pairs, so [`Key::expand_cyclic`] provides the hardware schedule.

use rand::Rng;

use crate::pipeline::chunk_seed;

/// Maximum number of key pairs (the key-cache depth).
pub const MAX_PAIRS: usize = 16;
/// Key halves are 3-bit values.
pub const MAX_HALF: u8 = 7;
/// Most keys a [`KeyRing`] can hold (the ring index travels as one byte
/// in the `MHSS` v2 snapshot format).
pub const MAX_RING_KEYS: usize = 255;

/// Errors constructing key material.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KeyError {
    /// A key half exceeded 7.
    HalfOutOfRange {
        /// The offending value.
        value: u8,
    },
    /// No pairs were supplied.
    Empty,
    /// More than [`MAX_PAIRS`] pairs were supplied.
    TooManyPairs {
        /// Number supplied.
        count: usize,
    },
    /// An odd number of nibbles was supplied to a byte/nibble constructor.
    OddNibbleCount,
    /// A [`KeyRing`] was given a zero master seed (the all-zero LFSR state
    /// is the lattice fixed point and never produces a vector).
    ZeroMasterSeed,
    /// A [`KeyRing`] was given more than [`MAX_RING_KEYS`] keys.
    TooManyKeys {
        /// Number supplied.
        count: usize,
    },
}

impl core::fmt::Display for KeyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KeyError::HalfOutOfRange { value } => {
                write!(f, "key half {value} exceeds 7")
            }
            KeyError::Empty => write!(f, "key must hold at least one pair"),
            KeyError::TooManyPairs { count } => {
                write!(f, "{count} pairs exceed the key-cache depth of {MAX_PAIRS}")
            }
            KeyError::OddNibbleCount => write!(f, "nibble list must have even length"),
            KeyError::ZeroMasterSeed => write!(f, "keyring master seed must be nonzero"),
            KeyError::TooManyKeys { count } => {
                write!(f, "{count} keys exceed the ring limit of {MAX_RING_KEYS}")
            }
        }
    }
}

impl std::error::Error for KeyError {}

/// One key pair `(k₁, k₂)`, each half in `0..=7`.
///
/// The pair is stored as supplied; [`KeyPair::sorted`] returns the
/// `(min, max)` ordering the algorithm works with (the pseudocode swaps
/// in place before use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyPair {
    left: u8,
    right: u8,
}

impl KeyPair {
    /// Creates a pair, validating both halves.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::HalfOutOfRange`] when a half exceeds 7.
    ///
    /// ```
    /// use mhhea::KeyPair;
    /// let p = KeyPair::new(5, 2)?;
    /// assert_eq!(p.sorted(), (2, 5));
    /// # Ok::<(), mhhea::KeyError>(())
    /// ```
    pub fn new(left: u8, right: u8) -> Result<Self, KeyError> {
        for value in [left, right] {
            if value > MAX_HALF {
                return Err(KeyError::HalfOutOfRange { value });
            }
        }
        Ok(KeyPair { left, right })
    }

    /// The pair as stored `(left, right)`.
    pub fn halves(self) -> (u8, u8) {
        (self.left, self.right)
    }

    /// The pair ordered `(min, max)` — the algorithm's working form.
    pub const fn sorted(self) -> (u8, u8) {
        if self.left <= self.right {
            (self.left, self.right)
        } else {
            (self.right, self.left)
        }
    }

    /// The pair as one index in `0..64`: `left | right << 3`, the byte
    /// `MHSS` snapshots carry.
    pub(crate) const fn index(self) -> usize {
        (self.left | self.right << 3) as usize
    }

    /// Inverts [`KeyPair::index`] (bits above the sixth are ignored).
    pub(crate) const fn from_index(index: usize) -> KeyPair {
        KeyPair {
            left: (index & 7) as u8,
            right: (index >> 3 & 7) as u8,
        }
    }

    /// Width of the *unscrambled* span, `max − min + 1` (1..=8).
    pub fn span_width(self) -> u8 {
        let (lo, hi) = self.sorted();
        hi - lo + 1
    }
}

impl core::fmt::Display for KeyPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.left, self.right)
    }
}

/// A full key: 1..=16 pairs, cycled block by block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key {
    pairs: Vec<KeyPair>,
}

impl Key {
    /// Creates a key from pairs.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::Empty`] or [`KeyError::TooManyPairs`].
    pub fn new(pairs: Vec<KeyPair>) -> Result<Self, KeyError> {
        if pairs.is_empty() {
            return Err(KeyError::Empty);
        }
        if pairs.len() > MAX_PAIRS {
            return Err(KeyError::TooManyPairs { count: pairs.len() });
        }
        Ok(Key { pairs })
    }

    /// Creates a key from `(left, right)` tuples.
    ///
    /// # Errors
    ///
    /// Propagates pair and length validation.
    ///
    /// ```
    /// let key = mhhea::Key::from_nibbles(&[(0, 3), (2, 5)])?;
    /// assert_eq!(key.len(), 2);
    /// # Ok::<(), mhhea::KeyError>(())
    /// ```
    pub fn from_nibbles(tuples: &[(u8, u8)]) -> Result<Self, KeyError> {
        let pairs = tuples
            .iter()
            .map(|&(l, r)| KeyPair::new(l, r))
            .collect::<Result<Vec<_>, _>>()?;
        Key::new(pairs)
    }

    /// Packs key halves from bytes: each byte supplies two 3-bit halves
    /// (low nibble then high nibble, masked to 3 bits), two halves per
    /// pair.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::Empty`]/[`KeyError::TooManyPairs`] on bad
    /// lengths.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, KeyError> {
        let pairs = bytes
            .iter()
            .map(|&b| KeyPair::new(b & 0x7, (b >> 4) & 0x7))
            .collect::<Result<Vec<_>, _>>()?;
        Key::new(pairs)
    }

    /// Draws a uniformly random key of `len` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::Empty`]/[`KeyError::TooManyPairs`] for invalid
    /// lengths.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Result<Self, KeyError> {
        if len == 0 {
            return Err(KeyError::Empty);
        }
        if len > MAX_PAIRS {
            return Err(KeyError::TooManyPairs { count: len });
        }
        let pairs = (0..len)
            .map(|_| KeyPair {
                left: rng.gen_range(0..=MAX_HALF),
                right: rng.gen_range(0..=MAX_HALF),
            })
            .collect();
        Ok(Key { pairs })
    }

    /// Number of pairs.
    #[allow(clippy::len_without_is_empty)] // a key is never empty
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The pairs in order.
    pub fn pairs(&self) -> &[KeyPair] {
        &self.pairs
    }

    /// The pair used for block index `i` (the pseudocode's `i mod L`).
    pub fn pair(&self, block_index: usize) -> KeyPair {
        self.pairs[block_index % self.pairs.len()]
    }

    /// The hardware key schedule: the key cycled out to `depth` pairs (the
    /// key cache always holds 16). When `depth % len == 0` this reproduces
    /// `i mod L` exactly.
    pub fn expand_cyclic(&self, depth: usize) -> Key {
        Key {
            pairs: (0..depth.max(1)).map(|i| self.pair(i)).collect(),
        }
    }

    /// A 64-bit FNV-1a fingerprint used by the container format to detect
    /// wrong-key decryption attempts. Not a cryptographic hash.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in &self.pairs {
            for b in [p.left, p.right] {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }
}

impl core::fmt::Display for Key {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Key[")?;
        for (i, p) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

/// Epoch-numbered key material for online key rotation.
///
/// A long-lived stream must not be pinned to one key for its entire life;
/// the ring gives every **epoch** (a monotonically increasing `u32`) its
/// own key and its own LFSR reseed, both derivable locally on each
/// endpoint so a rotation never puts key material on a wire:
///
/// * [`KeyRing::key`]`(epoch)` cycles through the supplied keys
///   (`keys[epoch mod len]` — the same schedule shape as
///   [`Key::pair`]'s block cycling). A single-key ring still rotates
///   usefully: the LFSR reseed changes every epoch.
/// * [`KeyRing::seed`]`(epoch)` derives the epoch's LFSR seed from the
///   master seed via the container pipeline's existing
///   [`crate::pipeline::chunk_seed`] avalanche. Epoch 0 runs the master
///   seed itself, so a stream that never rekeys behaves exactly like a
///   plain [`Key`]-configured stream; epochs ≥ 1 are always nonzero by
///   construction.
///
/// The ring is what [`crate::session::EncryptSession::rekey`] /
/// [`crate::session::DecryptSession::rekey`] and the gateway's
/// [`crate::gateway::StreamOp::Rekey`] consume.
///
/// # Examples
///
/// ```
/// use mhhea::{Key, KeyRing};
///
/// let ring = KeyRing::new(
///     vec![
///         Key::from_nibbles(&[(0, 3), (2, 5)])?,
///         Key::from_nibbles(&[(1, 6), (4, 7)])?,
///     ],
///     0xACE1,
/// )?;
/// assert_eq!(ring.key(0), ring.key(2)); // keys cycle
/// assert_eq!(ring.seed(0), 0xACE1); // epoch 0 is the master seed
/// assert_ne!(ring.seed(1), ring.seed(2)); // later epochs reseed
/// # Ok::<(), mhhea::KeyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRing {
    keys: Vec<Key>,
    master_seed: u16,
}

impl KeyRing {
    /// Creates a ring from epoch-ordered keys and a nonzero master seed.
    ///
    /// # Errors
    ///
    /// [`KeyError::Empty`] for no keys, [`KeyError::TooManyKeys`] past
    /// [`MAX_RING_KEYS`], [`KeyError::ZeroMasterSeed`] for a zero seed.
    pub fn new(keys: Vec<Key>, master_seed: u16) -> Result<Self, KeyError> {
        if keys.is_empty() {
            return Err(KeyError::Empty);
        }
        if keys.len() > MAX_RING_KEYS {
            return Err(KeyError::TooManyKeys { count: keys.len() });
        }
        if master_seed == 0 {
            return Err(KeyError::ZeroMasterSeed);
        }
        Ok(KeyRing { keys, master_seed })
    }

    /// A ring holding one key: every epoch reuses the key, but each epoch
    /// still reseeds the LFSR — the cheapest useful rotation.
    ///
    /// # Errors
    ///
    /// [`KeyError::ZeroMasterSeed`] for a zero seed.
    pub fn single(key: Key, master_seed: u16) -> Result<Self, KeyError> {
        KeyRing::new(vec![key], master_seed)
    }

    /// The key for `epoch` (`keys[epoch mod len]`).
    pub fn key(&self, epoch: u32) -> &Key {
        &self.keys[epoch as usize % self.keys.len()]
    }

    /// The LFSR seed for `epoch`: the master seed at epoch 0 (so an
    /// un-rotated stream matches a plain keyed stream bit for bit), a
    /// [`crate::pipeline::chunk_seed`] derivation — nonzero by
    /// construction — for every later epoch.
    pub fn seed(&self, epoch: u32) -> u16 {
        if epoch == 0 {
            self.master_seed
        } else {
            chunk_seed(self.master_seed, epoch)
        }
    }

    /// The master seed the per-epoch reseeds derive from.
    pub fn master_seed(&self) -> u16 {
        self.master_seed
    }

    /// The epoch-ordered keys.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Number of keys in the ring.
    #[allow(clippy::len_without_is_empty)] // a ring is never empty
    pub fn len(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pair_validation() {
        assert!(KeyPair::new(0, 7).is_ok());
        assert_eq!(
            KeyPair::new(8, 0),
            Err(KeyError::HalfOutOfRange { value: 8 })
        );
        assert_eq!(
            KeyPair::new(0, 9),
            Err(KeyError::HalfOutOfRange { value: 9 })
        );
    }

    #[test]
    fn pair_sorting_and_span() {
        let p = KeyPair::new(5, 2).unwrap();
        assert_eq!(p.halves(), (5, 2));
        assert_eq!(p.sorted(), (2, 5));
        assert_eq!(p.span_width(), 4);
        assert_eq!(KeyPair::new(3, 3).unwrap().span_width(), 1);
        assert_eq!(KeyPair::new(0, 7).unwrap().span_width(), 8);
    }

    #[test]
    fn key_length_limits() {
        assert_eq!(Key::new(vec![]), Err(KeyError::Empty));
        let too_many = vec![KeyPair::new(0, 1).unwrap(); 17];
        assert_eq!(
            Key::new(too_many),
            Err(KeyError::TooManyPairs { count: 17 })
        );
        let max = vec![KeyPair::new(0, 1).unwrap(); 16];
        assert_eq!(Key::new(max).unwrap().len(), 16);
    }

    #[test]
    fn pair_cycling() {
        let key = Key::from_nibbles(&[(0, 1), (2, 3), (4, 5)]).unwrap();
        assert_eq!(key.pair(0).halves(), (0, 1));
        assert_eq!(key.pair(3).halves(), (0, 1));
        assert_eq!(key.pair(5).halves(), (4, 5));
    }

    #[test]
    fn cyclic_expansion() {
        let key = Key::from_nibbles(&[(0, 1), (2, 3)]).unwrap();
        let hw = key.expand_cyclic(16);
        assert_eq!(hw.len(), 16);
        for i in 0..16 {
            assert_eq!(hw.pair(i), key.pair(i));
        }
        // Non-dividing lengths still produce a full schedule.
        let key3 = Key::from_nibbles(&[(0, 1), (2, 3), (4, 5)]).unwrap();
        assert_eq!(key3.expand_cyclic(16).len(), 16);
    }

    #[test]
    fn from_bytes_packs_nibbles() {
        let key = Key::from_bytes(&[0x31, 0x75]).unwrap();
        assert_eq!(key.pair(0).halves(), (1, 3));
        assert_eq!(key.pair(1).halves(), (5, 7));
        // Nibbles are masked to 3 bits.
        let masked = Key::from_bytes(&[0xFF]).unwrap();
        assert_eq!(masked.pair(0).halves(), (7, 7));
    }

    #[test]
    fn random_keys_are_valid_and_seeded() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Key::random(&mut rng, 16).unwrap();
        for p in a.pairs() {
            assert!(p.halves().0 <= 7 && p.halves().1 <= 7);
        }
        let mut rng2 = StdRng::seed_from_u64(9);
        let b = Key::random(&mut rng2, 16).unwrap();
        assert_eq!(a, b);
        assert_eq!(Key::random(&mut rng, 0), Err(KeyError::Empty));
        assert!(Key::random(&mut rng, 17).is_err());
    }

    #[test]
    fn fingerprints_differ() {
        let a = Key::from_nibbles(&[(0, 3)]).unwrap();
        let b = Key::from_nibbles(&[(3, 0)]).unwrap();
        let c = Key::from_nibbles(&[(0, 3), (0, 3)]).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn display_forms() {
        let key = Key::from_nibbles(&[(0, 3), (2, 5)]).unwrap();
        assert_eq!(key.to_string(), "Key[(0,3) (2,5)]");
        assert_eq!(KeyPair::new(1, 2).unwrap().to_string(), "(1,2)");
    }

    #[test]
    fn ring_validation() {
        let key = Key::from_nibbles(&[(0, 3)]).unwrap();
        assert_eq!(KeyRing::new(vec![], 0xACE1), Err(KeyError::Empty));
        assert_eq!(
            KeyRing::single(key.clone(), 0),
            Err(KeyError::ZeroMasterSeed)
        );
        assert_eq!(
            KeyRing::new(vec![key.clone(); 256], 0xACE1),
            Err(KeyError::TooManyKeys { count: 256 })
        );
        assert_eq!(KeyRing::new(vec![key; 255], 0xACE1).unwrap().len(), 255);
    }

    #[test]
    fn ring_keys_cycle_like_the_pair_schedule() {
        let a = Key::from_nibbles(&[(0, 1)]).unwrap();
        let b = Key::from_nibbles(&[(2, 3)]).unwrap();
        let ring = KeyRing::new(vec![a.clone(), b.clone()], 0x1234).unwrap();
        assert_eq!(ring.key(0), &a);
        assert_eq!(ring.key(1), &b);
        assert_eq!(ring.key(2), &a);
        assert_eq!(ring.key(u32::MAX), &b);
        assert_eq!(ring.keys(), &[a, b]);
        assert_eq!(ring.master_seed(), 0x1234);
    }

    #[test]
    fn ring_seeds_are_epoch_distinct_and_nonzero() {
        let ring = KeyRing::single(Key::from_nibbles(&[(0, 7)]).unwrap(), 0xACE1).unwrap();
        assert_eq!(ring.seed(0), 0xACE1, "epoch 0 must run the master seed");
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..64 {
            let s = ring.seed(epoch);
            assert_ne!(s, 0, "epoch {epoch} derived a zero seed");
            seen.insert(s);
        }
        assert!(seen.len() > 60, "epoch seeds barely spread: {}", seen.len());
        // Derivation matches the container pipeline's machinery exactly.
        assert_eq!(ring.seed(9), crate::pipeline::chunk_seed(0xACE1, 9));
    }
}

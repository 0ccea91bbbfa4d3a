//! Avalanche / diffusion metrics.
//!
//! A secure cipher flips ~50% of ciphertext bits when one input bit flips.
//! MHHEA, being an embedding cipher, has **no plaintext diffusion at
//! all** — each message bit lands in exactly one ciphertext bit (XORed
//! with a key bit) — while key bits avalanche strongly because they move
//! every subsequent span boundary. These metrics quantify both, rounding
//! out the honest security evaluation.

use mhhea::{Algorithm, EncryptSession, Key, LfsrSource, Profile};

/// Fraction of differing bits between two block streams (compared over
/// the shorter length, plus the length difference counted as differing).
pub fn diff_fraction(a: &[u16], b: &[u16]) -> f64 {
    let common = a.len().min(b.len());
    let mut diff: usize = a[..common]
        .iter()
        .zip(&b[..common])
        .map(|(&x, &y)| (x ^ y).count_ones() as usize)
        .sum();
    diff += (a.len().max(b.len()) - common) * 16;
    let total = a.len().max(b.len()) * 16;
    if total == 0 {
        0.0
    } else {
        diff as f64 / total as f64
    }
}

fn encrypt(algorithm: Algorithm, key: &Key, message: &[u8], seed: u16) -> Vec<u16> {
    let source = LfsrSource::new(seed).expect("nonzero");
    let mut enc = EncryptSession::with_options(key.clone(), source, algorithm, Profile::Streaming);
    enc.encrypt(message).expect("lfsr never exhausts")
}

/// Ciphertext difference when one *message* bit flips (same key, same
/// vector stream). For MHHEA this is exactly one bit per flip — the
/// cipher has no plaintext diffusion.
pub fn message_avalanche(
    algorithm: Algorithm,
    key: &Key,
    message: &[u8],
    flip_bit: usize,
    seed: u16,
) -> f64 {
    let base = encrypt(algorithm, key, message, seed);
    let mut flipped = message.to_vec();
    flipped[flip_bit / 8] ^= 1 << (flip_bit % 8);
    let other = encrypt(algorithm, key, &flipped, seed);
    diff_fraction(&base, &other)
}

/// Ciphertext difference when one *key* bit flips (same message, same
/// vector stream). Span boundaries move, so everything downstream
/// reshuffles.
pub fn key_avalanche(
    algorithm: Algorithm,
    key: &Key,
    message: &[u8],
    pair_index: usize,
    bit: usize,
    seed: u16,
) -> f64 {
    let base = encrypt(algorithm, key, message, seed);
    let mut nibbles: Vec<(u8, u8)> = key.pairs().iter().map(|p| p.halves()).collect();
    let (l, r) = nibbles[pair_index % nibbles.len()];
    let idx = pair_index % nibbles.len();
    nibbles[idx] = if bit < 3 {
        ((l ^ (1 << bit)) & 7, r)
    } else {
        (l, (r ^ (1 << (bit - 3))) & 7)
    };
    let other_key = Key::from_nibbles(&nibbles).expect("still valid");
    let other = encrypt(algorithm, &other_key, message, seed);
    diff_fraction(&base, &other)
}

/// Ciphertext difference when the hiding-vector seed changes (same key,
/// same message): near 50% because most cipher bits are vector bits.
pub fn seed_avalanche(algorithm: Algorithm, key: &Key, message: &[u8]) -> f64 {
    let a = encrypt(algorithm, key, message, 0xACE1);
    let b = encrypt(algorithm, key, message, 0xACE2);
    diff_fraction(&a, &b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 6)]).unwrap()
    }

    #[test]
    fn diff_fraction_basics() {
        assert_eq!(diff_fraction(&[0xFFFF], &[0x0000]), 1.0);
        assert_eq!(diff_fraction(&[0xAAAA], &[0xAAAA]), 0.0);
        assert_eq!(diff_fraction(&[], &[]), 0.0);
        // Length mismatch counts as fully different tail.
        assert!(diff_fraction(&[0xAAAA], &[0xAAAA, 0x1234]) > 0.4);
    }

    #[test]
    fn mhhea_has_no_plaintext_diffusion() {
        let msg = vec![0x5Au8; 64];
        for flip in [0usize, 13, 200, 511] {
            let frac = message_avalanche(Algorithm::Mhhea, &key(), &msg, flip, 0xACE1);
            // One flipped message bit flips exactly one cipher bit.
            let total_bits = {
                let blocks = encrypt(Algorithm::Mhhea, &key(), &msg, 0xACE1);
                blocks.len() * 16
            };
            let expected = 1.0 / total_bits as f64;
            assert!(
                (frac - expected).abs() < 1e-9,
                "flip {flip}: {frac} vs {expected}"
            );
        }
    }

    #[test]
    fn key_bits_avalanche_strongly() {
        let msg = vec![0xC3u8; 64];
        let frac = key_avalanche(Algorithm::Mhhea, &key(), &msg, 0, 1, 0xACE1);
        // Moving a span boundary desynchronises the whole embedding.
        assert!(frac > 0.05, "key avalanche too weak: {frac}");
    }

    #[test]
    fn seed_change_rewrites_most_bits() {
        let msg = vec![0x11u8; 64];
        let frac = seed_avalanche(Algorithm::Mhhea, &key(), &msg);
        assert!((0.3..0.7).contains(&frac), "seed avalanche {frac}");
    }

    #[test]
    fn hhea_also_lacks_plaintext_diffusion() {
        let msg = vec![0x0Fu8; 32];
        let frac = message_avalanche(Algorithm::Hhea, &key(), &msg, 7, 0xBEEF);
        assert!(frac > 0.0 && frac < 0.01, "{frac}");
    }
}

//! Ciphertext randomness evaluation.
//!
//! The paper argues the LFSR hiding vector makes the output "as scrambled
//! as possible". These helpers run the FIPS battery over cipher bit
//! streams so the claim can be tested — including the honest caveat that
//! encrypting a *pathological* plaintext (all zeros) with a weak key
//! leaves measurable bias, since ~22% of cipher bits carry pattern-XORed
//! message bits.

use bitkit::BitReader;
use lfsr::randomness::{fips_battery, BatteryReport, NotEnoughBits};
use mhhea::{Algorithm, EncryptSession, Key, LfsrSource, Profile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flattens cipher blocks into a bit stream (LSB-first per block).
pub fn cipher_bitstream(blocks: &[u16]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(blocks.len() * 16);
    for &b in blocks {
        for j in 0..16 {
            bits.push((b >> j) & 1 == 1);
        }
    }
    bits
}

/// Encrypts `message` and runs the FIPS battery over the cipher stream.
///
/// # Errors
///
/// Returns [`NotEnoughBits`] when the ciphertext is shorter than the
/// battery's 20 000 bits — supply at least ~600 message bytes.
pub fn battery_on_cipher(
    algorithm: Algorithm,
    key: &Key,
    message: &[u8],
    lfsr_seed: u16,
) -> Result<BatteryReport, NotEnoughBits> {
    let source = LfsrSource::new(lfsr_seed).expect("nonzero seed");
    let mut enc = EncryptSession::with_options(key.clone(), source, algorithm, Profile::Streaming);
    let blocks = enc.encrypt(message).expect("lfsr never exhausts");
    fips_battery(&cipher_bitstream(&blocks))
}

/// A reproducible pseudorandom message for randomness experiments.
pub fn random_message(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

/// Bit-level correlation between plaintext and ciphertext streams
/// (|corr| ≈ 0 for a good cipher; HHEA embeds plaintext bits verbatim so
/// windowed correlation stays visible to an attacker who knows positions).
pub fn plaintext_cipher_balance(message: &[u8], blocks: &[u16]) -> f64 {
    let msg_ones = BitReader::new(message).filter(|&b| b).count() as f64;
    let msg_balance = msg_ones / (message.len() * 8) as f64;
    let cipher_bits = cipher_bitstream(blocks);
    let cipher_ones = cipher_bits.iter().filter(|&&b| b).count() as f64;
    let cipher_balance = cipher_ones / cipher_bits.len() as f64;
    (cipher_balance - msg_balance).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 6)]).unwrap()
    }

    #[test]
    fn random_plaintext_cipher_passes_battery() {
        // Enough message bytes that the cipher stream exceeds 20k bits.
        let msg = random_message(1200, 3);
        let report = battery_on_cipher(Algorithm::Mhhea, &key(), &msg, 0xACE1).unwrap();
        assert!(report.all_pass(), "\n{report}");
    }

    #[test]
    fn short_cipher_is_rejected() {
        let err = battery_on_cipher(Algorithm::Mhhea, &key(), b"tiny", 0xACE1).unwrap_err();
        assert!(err.got < lfsr::randomness::BATTERY_BITS);
    }

    #[test]
    fn cipher_balance_is_near_half_even_for_biased_plaintext() {
        let msg = vec![0u8; 1200]; // all zeros: maximally biased input
        let mut enc = EncryptSession::new(key(), LfsrSource::new(0xACE1).unwrap());
        let blocks = enc.encrypt(&msg).unwrap();
        let bits = cipher_bitstream(&blocks);
        let ones = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        // ~78% of bits are LFSR output, ~22% carry pattern bits; the
        // stream stays near balanced but not perfectly so.
        assert!((0.35..0.65).contains(&ones), "ones fraction {ones}");
        assert!(plaintext_cipher_balance(&msg, &blocks) > 0.3);
    }

    #[test]
    fn bitstream_flattening() {
        let bits = cipher_bitstream(&[0x0001, 0x8000]);
        assert_eq!(bits.len(), 32);
        assert!(bits[0]);
        assert!(bits[31]);
        assert_eq!(bits.iter().filter(|&&b| b).count(), 2);
    }
}

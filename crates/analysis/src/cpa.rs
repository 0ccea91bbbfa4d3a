//! The constant chosen-plaintext attack (location recovery).
//!
//! Attack model: the adversary can submit a chosen plaintext — the
//! all-zeros message — to the encryptor any number of times (fresh hiding
//! vectors each run, fixed key) and observes the cipher blocks.
//!
//! Against **HHEA** the hiding locations are fixed per block residue
//! (`span = sorted key pair`), and embedded bits equal the message bits,
//! so every in-span cipher bit is constantly `0` while out-of-span bits
//! are ~uniform LFSR bits. Position-wise zero-frequency estimation pins
//! the span exactly, recovering the (sorted) key.
//!
//! Against **MHHEA** the span moves with the vector's high byte and the
//! embedded bits are XOR-scrambled, so no position is constant: the same
//! estimator finds nothing — the paper's claim, quantified.

use mhhea::{Algorithm, EncryptSession, Key, Profile, RngSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Zero-frequency threshold above which a position is declared in-span.
pub const DETECT_THRESHOLD: f64 = 0.995;

/// Per-block-residue statistics.
#[derive(Debug, Clone)]
pub struct ResidueStats {
    /// Observed frequency of a `0` cipher bit at positions 0..8.
    pub zero_freq: [f64; 8],
    /// Contiguous always-zero range detected, if any.
    pub recovered_span: Option<(u8, u8)>,
    /// Number of blocks observed for this residue.
    pub samples: usize,
}

/// Result of the attack.
#[derive(Debug, Clone)]
pub struct CpaReport {
    /// Which algorithm was attacked.
    pub algorithm: Algorithm,
    /// Per-residue statistics (index = block index mod key length).
    pub residues: Vec<ResidueStats>,
    /// The recovered sorted pairs when every residue yielded a span.
    pub recovered_key: Option<Vec<(u8, u8)>>,
}

impl CpaReport {
    /// `true` when the recovered pairs equal the true key's sorted pairs.
    pub fn breaks(&self, key: &Key) -> bool {
        match &self.recovered_key {
            None => false,
            Some(pairs) => {
                pairs.len() == key.len()
                    && pairs
                        .iter()
                        .zip(key.pairs())
                        .all(|(&got, want)| got == want.sorted())
            }
        }
    }
}

/// Runs the constant chosen-plaintext attack with `samples` encryptions of
/// an all-zeros message.
///
/// The oracle uses a seeded RNG vector source so the experiment is
/// reproducible; the attack itself sees only cipher blocks.
pub fn constant_cpa(algorithm: Algorithm, key: &Key, samples: usize, seed: u64) -> CpaReport {
    let len = key.len();
    let mut zero_counts = vec![[0usize; 8]; len];
    let mut block_counts = vec![0usize; len];
    let source = RngSource::new(StdRng::seed_from_u64(seed));
    let mut enc = EncryptSession::with_options(key.clone(), source, algorithm, Profile::Streaming);

    // One message long enough to produce at least `len` blocks; rewinding
    // the session before every message restarts its key schedule at block
    // zero, so a block's residue is simply its offset mod the key length.
    let zeros = vec![0u8; len * 2];
    for _ in 0..samples {
        enc.rewind();
        let blocks = enc.encrypt(&zeros).expect("rng source never exhausts");
        // The final block of each message is EOF-truncated (a partial span
        // keeps random vector bits), which would dilute the tail positions
        // of its residue's span — the attacker knows the message length
        // and discards it.
        let usable = blocks.len().saturating_sub(1);
        for (off, &b) in blocks[..usable].iter().enumerate() {
            let residue = off % len;
            block_counts[residue] += 1;
            for (j, count) in zero_counts[residue].iter_mut().enumerate() {
                if (b >> j) & 1 == 0 {
                    *count += 1;
                }
            }
        }
    }

    let residues: Vec<ResidueStats> = (0..len)
        .map(|r| {
            let n = block_counts[r].max(1);
            let mut zero_freq = [0f64; 8];
            for j in 0..8 {
                zero_freq[j] = zero_counts[r][j] as f64 / n as f64;
            }
            let in_span: Vec<u8> = (0..8u8)
                .filter(|&j| zero_freq[j as usize] >= DETECT_THRESHOLD)
                .collect();
            let recovered_span = match (in_span.first(), in_span.last()) {
                (Some(&lo), Some(&hi)) if in_span.len() == (hi - lo + 1) as usize => Some((lo, hi)),
                _ => None,
            };
            ResidueStats {
                zero_freq,
                recovered_span,
                samples: block_counts[r],
            }
        })
        .collect();

    let recovered_key = residues
        .iter()
        .map(|r| r.recovered_span)
        .collect::<Option<Vec<_>>>();

    CpaReport {
        algorithm,
        residues,
        recovered_key,
    }
}

/// Convenience: message recovery once the HHEA key (spans) is known.
///
/// Demonstrates the end-to-end break: with recovered spans, any HHEA
/// ciphertext decrypts without the real key.
pub fn hhea_decrypt_with_spans(spans: &[(u8, u8)], blocks: &[u16], bit_len: usize) -> Vec<u8> {
    let mut w = bitkit::BitWriter::new();
    'outer: for (i, &b) in blocks.iter().enumerate() {
        let (lo, hi) = spans[i % spans.len()];
        for j in lo..=hi {
            if w.bit_len() >= bit_len {
                break 'outer;
            }
            w.push((b >> j) & 1 == 1);
        }
    }
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key::from_nibbles(&[(1, 4), (0, 6), (3, 3), (7, 2)]).unwrap()
    }

    #[test]
    fn cpa_breaks_hhea() {
        let report = constant_cpa(Algorithm::Hhea, &key(), 400, 1);
        assert!(report.breaks(&key()), "{:?}", report.recovered_key);
        // Frequencies inside the span are exactly 1.
        for (r, stats) in report.residues.iter().enumerate() {
            let (lo, hi) = key().pairs()[r].sorted();
            for j in lo..=hi {
                assert_eq!(stats.zero_freq[j as usize], 1.0);
            }
        }
    }

    #[test]
    fn cpa_fails_against_mhhea() {
        let report = constant_cpa(Algorithm::Mhhea, &key(), 400, 1);
        assert!(!report.breaks(&key()));
        // No residue should present a clean constant span of the right
        // width; frequencies hover far from 1 at most positions.
        let clean = report
            .residues
            .iter()
            .filter(|r| r.recovered_span.is_some())
            .count();
        assert_eq!(clean, 0, "{:#?}", report.residues);
    }

    #[test]
    fn recovered_spans_decrypt_hhea_traffic() {
        let report = constant_cpa(Algorithm::Hhea, &key(), 300, 7);
        let spans = report.recovered_key.expect("attack succeeds");
        // Victim encrypts a real message with the same key.
        let source = mhhea::LfsrSource::new(0xBEEF).unwrap();
        let mut victim =
            EncryptSession::with_options(key(), source, Algorithm::Hhea, Profile::Streaming);
        let msg = b"no key needed";
        let blocks = victim.encrypt(msg).unwrap();
        let recovered = hhea_decrypt_with_spans(&spans, &blocks, msg.len() * 8);
        assert_eq!(recovered, msg);
    }

    #[test]
    fn few_samples_give_false_or_no_spans() {
        // With 2 samples the estimator cannot clear the threshold reliably
        // for out-of-span bits; the report may recover nothing.
        let report = constant_cpa(Algorithm::Hhea, &key(), 2, 3);
        // It must at least produce stats for every residue.
        assert_eq!(report.residues.len(), key().len());
        for r in &report.residues {
            assert!(r.samples > 0);
        }
    }
}

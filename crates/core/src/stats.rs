//! Span statistics and throughput accounting.
//!
//! The paper's Table 1 computes throughput as "the reciprocal of minimum
//! period times the expected output number of information bits", using 4
//! expected bits per period. The exact expectation over uniform key pairs
//! is 3.625 bits per key pair (see [`uniform_expected_span`]); this module
//! provides both accountings plus the per-key exact values used by the
//! expansion-factor experiments.

use crate::block::scramble_locations;
use crate::{Algorithm, Key, KeyPair};

/// The "expected output number of information bits" the paper plugs into
/// its throughput formula (E\[span\] = 3.625 rounded up).
pub const PAPER_BITS_PER_PERIOD: f64 = 4.0;

/// Exact expected span width of one key pair under `algorithm`, averaged
/// over uniformly random hiding vectors.
///
/// For HHEA the span never depends on the vector; for MHHEA the high-byte
/// slice is enumerated exhaustively (`2^w` equally likely values).
///
/// ```
/// use mhhea::{Algorithm, KeyPair};
/// use mhhea::stats::expected_span_pair;
///
/// let p = KeyPair::new(2, 5).unwrap();
/// assert_eq!(expected_span_pair(p, Algorithm::Hhea), 4.0);
/// let m = expected_span_pair(p, Algorithm::Mhhea);
/// assert!(m >= 1.0 && m <= 8.0);
/// ```
pub fn expected_span_pair(pair: KeyPair, algorithm: Algorithm) -> f64 {
    match algorithm {
        Algorithm::Hhea => pair.span_width() as f64,
        Algorithm::Mhhea => {
            let (k1, k2) = pair.sorted();
            let w = (k2 - k1 + 1) as u32;
            let combos = 1u32 << w;
            let mut total = 0u32;
            for slice in 0..combos {
                // Build a vector whose high-byte slice equals `slice`.
                let v = (slice as u16) << (8 + k1);
                let (lo, hi) = scramble_locations(pair, v);
                total += (hi - lo + 1) as u32;
            }
            total as f64 / combos as f64
        }
    }
}

/// Expected span width across a key's pair cycle.
pub fn expected_span_key(key: &Key, algorithm: Algorithm) -> f64 {
    let total: f64 = key
        .pairs()
        .iter()
        .map(|&p| expected_span_pair(p, algorithm))
        .sum();
    total / key.len() as f64
}

/// Expected span width over *uniformly random* pairs — the population
/// value behind the paper's "4 expected bits": exactly 3.625 for HHEA and
/// 3.6016 for MHHEA (the mod-8 wrap of the scrambled upper bound slightly
/// shrinks the average span when the high-byte slice is narrower than
/// 3 bits, so `kn₁` is not quite uniform).
pub fn uniform_expected_span(algorithm: Algorithm) -> f64 {
    let mut total = 0.0;
    for l in 0..=7u8 {
        for r in 0..=7u8 {
            total += expected_span_pair(KeyPair::new(l, r).expect("valid"), algorithm);
        }
    }
    total / 64.0
}

/// Ciphertext expansion: output bits per message bit (`16 / E[span]`).
pub fn expansion_factor(key: &Key, algorithm: Algorithm) -> f64 {
    16.0 / expected_span_key(key, algorithm)
}

/// Estimated cipher-block count for a `bit_len`-bit message — `bit_len /
/// E[span]` plus one cycle of slack. It is the mean, not a bound: about
/// half of all seals exceed it slightly. The encrypt kernel pre-sizes its
/// block buffer with the same estimate, read off its span table, plus a
/// margin of four square roots of it; a pathological vector sequence can
/// still exceed that, and `Vec` absorbs the difference.
pub fn estimated_blocks(key: &Key, algorithm: Algorithm, bit_len: usize) -> usize {
    blocks_for(bit_len, expected_span_key(key, algorithm), key.len())
}

/// `bit_len / expected_span` rounded up, plus `slack` (0 for no bits).
pub(crate) fn blocks_for(bit_len: usize, expected_span: f64, slack: usize) -> usize {
    if bit_len == 0 {
        return 0;
    }
    (bit_len as f64 / expected_span).ceil() as usize + slack
}

/// The paper's throughput formula: `bits_per_period / min_period`.
///
/// `95.532 Mbps = 4 bits / 41.871 ns` reproduces Table 1's MHHEA row.
///
/// ```
/// use mhhea::stats::{paper_throughput_mbps, PAPER_BITS_PER_PERIOD};
/// let t = paper_throughput_mbps(41.871, PAPER_BITS_PER_PERIOD);
/// assert!((t - 95.532).abs() < 0.01);
/// ```
pub fn paper_throughput_mbps(min_period_ns: f64, bits_per_period: f64) -> f64 {
    assert!(min_period_ns > 0.0, "period must be positive");
    bits_per_period / min_period_ns * 1000.0
}

/// Strict two-cycle accounting: each key pair costs one `Circ` plus one
/// `Encrypt` cycle, delivering `expected_span` fresh bits.
pub fn two_cycle_throughput_mbps(min_period_ns: f64, expected_span: f64) -> f64 {
    paper_throughput_mbps(min_period_ns, expected_span / 2.0)
}

/// Measured throughput from a cycle-accurate run.
pub fn measured_throughput_mbps(bits: usize, cycles: u64, min_period_ns: f64) -> f64 {
    assert!(cycles > 0, "cycle count must be positive");
    bits as f64 / (cycles as f64 * min_period_ns) * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(l: u8, r: u8) -> KeyPair {
        KeyPair::new(l, r).unwrap()
    }

    #[test]
    fn uniform_expectation_values() {
        assert!((uniform_expected_span(Algorithm::Hhea) - 3.625).abs() < 1e-12);
        // Exact enumeration: 3.6015625 (= 230.5/64). The wrap in
        // `kn2 = (kn1 + diff) mod 8` trims the average slightly.
        assert!((uniform_expected_span(Algorithm::Mhhea) - 3.6015625).abs() < 1e-12);
    }

    #[test]
    fn hhea_span_is_pair_width() {
        assert_eq!(expected_span_pair(pair(0, 7), Algorithm::Hhea), 8.0);
        assert_eq!(expected_span_pair(pair(4, 4), Algorithm::Hhea), 1.0);
    }

    #[test]
    fn mhhea_full_width_pair_is_unchanged_on_average() {
        // diff = 7: kn2 = (kn1 + 7) % 8; for kn1 = 0 span 8, else span
        // (kn1-1..kn1 sorted) width... enumerate and sanity-check bounds.
        let e = expected_span_pair(pair(0, 7), Algorithm::Mhhea);
        assert!(e > 1.0 && e <= 8.0);
        // diff = 0 spans exactly one bit regardless of scrambling.
        assert_eq!(expected_span_pair(pair(3, 3), Algorithm::Mhhea), 1.0);
    }

    #[test]
    fn mhhea_expectation_matches_monte_carlo() {
        use crate::block::locations;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = pair(2, 6);
        let exact = expected_span_pair(p, Algorithm::Mhhea);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let total: u64 = (0..n)
            .map(|_| {
                let v: u16 = rng.gen();
                let (lo, hi) = locations(Algorithm::Mhhea, p, v);
                (hi - lo + 1) as u64
            })
            .sum();
        let mc = total as f64 / n as f64;
        assert!((mc - exact).abs() < 0.02, "mc {mc} vs exact {exact}");
    }

    #[test]
    fn key_expectation_averages_pairs() {
        let key = Key::from_nibbles(&[(0, 7), (3, 3)]).unwrap();
        let e = expected_span_key(&key, Algorithm::Hhea);
        assert_eq!(e, (8.0 + 1.0) / 2.0);
    }

    #[test]
    fn estimated_blocks_tracks_expansion() {
        let key = Key::from_nibbles(&[(0, 7), (3, 3)]).unwrap();
        assert_eq!(estimated_blocks(&key, Algorithm::Hhea, 0), 0);
        // E[span] = 4.5; 900 bits -> 200 blocks + 2 slack.
        assert_eq!(estimated_blocks(&key, Algorithm::Hhea, 900), 202);
        // The estimate is within a few percent of an actual run.
        let msg = vec![0x5Au8; 512];
        let source = crate::LfsrSource::new(0xACE1).unwrap();
        let mut enc = crate::EncryptSession::new(key.clone(), source);
        let blocks = enc.encrypt(&msg).unwrap();
        let est = estimated_blocks(&key, Algorithm::Mhhea, msg.len() * 8);
        let ratio = blocks.len() as f64 / est as f64;
        assert!((0.9..=1.1).contains(&ratio), "ratio {ratio}");
    }

    /// The encrypt kernel pre-sizes from its span table: on the streaming
    /// schedule, the same estimate as the key-level formula.
    #[test]
    fn span_table_estimate_matches_the_key_formula() {
        let key = Key::from_nibbles(&[(0, 7), (3, 3), (2, 5), (6, 1), (4, 4)]).unwrap();
        for algorithm in [Algorithm::Hhea, Algorithm::Mhhea] {
            let table = crate::block::SpanTable::new(&key, algorithm);
            for bits in [0, 1, 13, 900, 1 << 17] {
                let want = estimated_blocks(&key, algorithm, bits);
                assert_eq!(table.estimated_blocks(bits), want, "{algorithm} {bits}");
            }
        }
    }

    #[test]
    fn expansion_factor_bounds() {
        let dense = Key::from_nibbles(&[(0, 7)]).unwrap();
        let sparse = Key::from_nibbles(&[(5, 5)]).unwrap();
        assert_eq!(expansion_factor(&dense, Algorithm::Hhea), 2.0);
        assert_eq!(expansion_factor(&sparse, Algorithm::Hhea), 16.0);
        let e = expansion_factor(&dense, Algorithm::Mhhea);
        assert!((2.0..=16.0).contains(&e));
    }

    #[test]
    fn paper_throughput_row() {
        let t = paper_throughput_mbps(41.871, PAPER_BITS_PER_PERIOD);
        assert!((t - 95.532).abs() < 0.01, "{t}");
        // Strict accounting halves it (two cycles per pair).
        let strict = two_cycle_throughput_mbps(41.871, 3.625);
        assert!((strict - 43.29).abs() < 0.1, "{strict}");
    }

    #[test]
    fn measured_throughput_formula() {
        // 16 bits in 2 cycles of 10ns = 800 Mbps.
        let t = measured_throughput_mbps(16, 2, 10.0);
        assert!((t - 800.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        paper_throughput_mbps(0.0, 4.0);
    }
}

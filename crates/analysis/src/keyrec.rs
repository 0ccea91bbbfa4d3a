//! Model-aware key recovery against MHHEA (extension experiment X5).
//!
//! MHHEA defeats the *constant* chosen-plaintext attack, but the
//! scrambling is public structure keyed by only 6 bits per pair, and the
//! hiding vector's high byte — the scrambling seed — travels in the clear.
//! An attacker who encrypts a known all-zeros message can therefore
//! *predict*, for each of the 36 candidate sorted pairs, exactly which
//! positions would be replaced and with what pattern bits, and eliminate
//! every candidate that ever disagrees with an observed block. The true
//! pair never disagrees; wrong pairs survive a sample with probability
//! well below 1. A few hundred blocks reduce the candidate set to the
//! true (sorted) pair — an honest bound on the paper's security claim.

use mhhea::block::{pattern_bit, scramble_locations};
use mhhea::{Algorithm, EncryptSession, Key, KeyPair, RngSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All 36 sorted candidate pairs.
pub fn candidate_pairs() -> Vec<KeyPair> {
    let mut v = Vec::with_capacity(36);
    for l in 0..=7u8 {
        for r in l..=7u8 {
            v.push(KeyPair::new(l, r).expect("in range"));
        }
    }
    v
}

/// Attack outcome.
#[derive(Debug, Clone)]
pub struct KeyRecReport {
    /// Surviving sorted pairs per block residue.
    pub survivors: Vec<Vec<KeyPair>>,
    /// Blocks observed per residue.
    pub samples_per_residue: Vec<usize>,
}

impl KeyRecReport {
    /// The uniquely recovered key, if every residue converged to one pair.
    pub fn unique_key(&self) -> Option<Vec<KeyPair>> {
        self.survivors
            .iter()
            .map(|s| (s.len() == 1).then(|| s[0]))
            .collect()
    }

    /// `true` when the true key's sorted pairs survive in every residue.
    pub fn consistent_with(&self, key: &Key) -> bool {
        key.pairs().iter().enumerate().all(|(r, p)| {
            let (l, h) = p.sorted();
            self.survivors[r].iter().any(|c| c.sorted() == (l, h))
        })
    }

    /// Total number of surviving candidates across residues (lower is a
    /// stronger break; `key.len()` means full recovery).
    pub fn survivor_count(&self) -> usize {
        self.survivors.iter().map(Vec::len).sum()
    }
}

/// Predicts whether cipher block `b` is consistent with `candidate` for an
/// all-zeros plaintext block that embedded a full span.
fn consistent(candidate: KeyPair, block: u16) -> bool {
    let (lo, hi) = scramble_locations(candidate, block);
    (lo..=hi).all(|j| {
        let predicted = pattern_bit(Algorithm::Mhhea, candidate, (j - lo) as usize);
        ((block >> j) & 1 == 1) == predicted
    })
}

/// Runs the model-aware chosen-plaintext attack with `samples` encryptions
/// of an all-zeros message.
pub fn model_aware_attack(key: &Key, samples: usize, seed: u64) -> KeyRecReport {
    let len = key.len();
    let mut survivors: Vec<Vec<KeyPair>> = vec![candidate_pairs(); len];
    let mut counts = vec![0usize; len];
    let mut enc = EncryptSession::new(key.clone(), RngSource::new(StdRng::seed_from_u64(seed)));
    let zeros = vec![0u8; len * 2];
    for _ in 0..samples {
        enc.rewind();
        let blocks = enc.encrypt(&zeros).expect("rng never exhausts");
        // The rewound session restarts its key schedule per message, so
        // residue = offset mod key length. The final block of a message
        // may be truncated at EOF (partial span), which would wrongly
        // eliminate the true pair — skip it.
        let usable = blocks.len().saturating_sub(1);
        for (off, &b) in blocks[..usable].iter().enumerate() {
            let residue = off % len;
            counts[residue] += 1;
            survivors[residue].retain(|&c| consistent(c, b));
        }
    }
    KeyRecReport {
        survivors,
        samples_per_residue: counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key::from_nibbles(&[(1, 4), (0, 6), (3, 3), (7, 2)]).unwrap()
    }

    #[test]
    fn candidates_enumerate_sorted_pairs() {
        let c = candidate_pairs();
        assert_eq!(c.len(), 36);
        assert!(c.iter().all(|p| {
            let (l, r) = p.halves();
            l <= r
        }));
    }

    #[test]
    fn true_key_always_survives() {
        let report = model_aware_attack(&key(), 50, 5);
        assert!(report.consistent_with(&key()));
    }

    #[test]
    fn attack_recovers_full_key() {
        let report = model_aware_attack(&key(), 400, 5);
        let recovered = report.unique_key().unwrap_or_else(|| {
            panic!(
                "ambiguous survivors: {:?}",
                report
                    .survivors
                    .iter()
                    .map(|s| s.iter().map(|p| p.sorted()).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            )
        });
        let expected: Vec<(u8, u8)> = key().pairs().iter().map(|p| p.sorted()).collect();
        let got: Vec<(u8, u8)> = recovered.iter().map(|p| p.sorted()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn survivor_set_shrinks_with_samples() {
        let few = model_aware_attack(&key(), 3, 9);
        let many = model_aware_attack(&key(), 200, 9);
        assert!(many.survivor_count() <= few.survivor_count());
        assert!(many.survivor_count() >= key().len());
    }
}

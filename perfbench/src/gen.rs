//! The seeded input generator: every stream id, Hello seed and message
//! byte the benchmark sends derives from the `--seed` argument.
//!
//! Messages are addressed by `(stream, index)` rather than drawn from one
//! running sequence, so the correctness checks can regenerate any message
//! after the timed phase instead of holding every one in memory.

/// SplitMix64 — small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

/// The SplitMix64 output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Gen {
    /// A generator for one purpose (`salt`) under one run seed.
    pub fn new(seed: u64, salt: u64) -> Gen {
        Gen {
            state: mix(seed ^ mix(salt.wrapping_add(0x9E37_79B9_7F4A_7C15))),
        }
    }

    /// The generator of message `index` on `stream`.
    pub fn message(seed: u64, stream: u64, index: u64) -> Gen {
        Gen::new(
            seed,
            mix(stream) ^ index.wrapping_mul(0xA24B_AED4_963E_E407),
        )
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        rest.copy_from_slice(&last[..rest.len()]);
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.fill(&mut out);
        out
    }

    /// A nonzero LFSR seed, as a `Hello` carries.
    pub fn seed16(&mut self) -> u16 {
        loop {
            let s = self.next_u64() as u16;
            if s != 0 {
                return s;
            }
        }
    }

    /// `n` distinct nonzero stream ids.
    pub fn stream_ids(&mut self, n: usize) -> Vec<u64> {
        let mut seen = std::collections::HashSet::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = self.next_u64();
            if id != 0 && seen.insert(id) {
                ids.push(id);
            }
        }
        ids
    }
}

/// Message `index` on `stream` under run seed `seed`, `len` bytes long.
pub fn message(seed: u64, stream: u64, index: u64, len: usize) -> Vec<u8> {
    Gen::message(seed, stream, index).bytes(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Gen::new(7, 1).stream_ids(64);
        let b = Gen::new(7, 1).stream_ids(64);
        assert_eq!(a, b);
        assert_eq!(message(7, a[3], 9, 300), message(7, b[3], 9, 300));
        let mut ga = Gen::new(7, 2);
        let mut gb = Gen::new(7, 2);
        assert_eq!(
            (0..32).map(|_| ga.seed16()).collect::<Vec<_>>(),
            (0..32).map(|_| gb.seed16()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn seeds_salts_and_addresses_differ() {
        assert_ne!(Gen::new(7, 1).stream_ids(8), Gen::new(8, 1).stream_ids(8));
        assert_ne!(Gen::new(7, 1).stream_ids(8), Gen::new(7, 2).stream_ids(8));
        assert_ne!(message(7, 1, 0, 64), message(7, 1, 1, 64));
        assert_ne!(message(7, 1, 0, 64), message(7, 2, 0, 64));
    }

    #[test]
    fn ids_are_distinct_and_nonzero() {
        let ids = Gen::new(3, 3).stream_ids(4096);
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
        assert!(ids.iter().all(|&id| id != 0));
    }

    #[test]
    fn odd_lengths_fill_completely() {
        for len in [0, 1, 7, 8, 9, 255] {
            assert_eq!(message(1, 1, 1, len).len(), len);
        }
        // A prefix of a longer message is not required to match, but the
        // same length must always reproduce.
        assert_eq!(message(1, 1, 1, 13), message(1, 1, 1, 13));
    }
}

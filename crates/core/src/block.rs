//! Per-vector primitives: location scrambling, embedding, extraction.
//!
//! These functions are the pseudocode of the paper's §II, one block at a
//! time. The worked example of Figure 8 — key pair `(0,3)`, hiding vector
//! `0xCA06`, message nibble `0` → scrambled span `(2,5)` and ciphertext
//! `0xCA02` — is pinned as a unit test.
//!
//! Two formulations coexist:
//!
//! * the **per-bit** reference ([`embed`]/[`extract`]), a literal
//!   transcription of the pseudocode used by tests and cross-checks;
//! * the **word-level** fast path ([`SpanTable`]/[`SpanEntry`]): the span
//!   location and XOR pattern depend only on the key pair and the vector's
//!   high byte, so both are precomputed into a 256-entry table per pair
//!   and each block becomes a handful of shift/mask operations on `u16`s.

use crate::key::MAX_PAIRS;
use crate::{Algorithm, Key, KeyPair};
use bitkit::word;

/// Outcome of embedding one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockOutcome {
    /// The output cipher vector (the hiding vector with the span replaced).
    pub cipher: u16,
    /// Number of message bits consumed (may be less than the span width at
    /// end of message).
    pub consumed: usize,
    /// The replacement span `(low, high)` used, inclusive.
    pub span: (u8, u8),
}

/// Computes the MHHEA scrambled span for a key pair and hiding vector.
///
/// Per the pseudocode: sort the pair to `(k₁, k₂)`; take the high-byte
/// slice `V[k₂+8 .. k₁+8]`; `kn₁ = (slice XOR k₁) & 7` (the hardware
/// truncates to the 3-bit register); `kn₂ = (kn₁ + (k₂−k₁)) mod 8`; sort
/// again (the mod-8 wrap can invert the pair, which also changes the span
/// width — both ends compute identically from transmitted bits).
///
/// ```
/// use mhhea::KeyPair;
/// use mhhea::block::scramble_locations;
///
/// // Figure 8: K=(0,3), V=0xCA06 -> KN=(2,5).
/// let pair = KeyPair::new(0, 3).unwrap();
/// assert_eq!(scramble_locations(pair, 0xCA06), (2, 5));
/// ```
pub fn scramble_locations(pair: KeyPair, v: u16) -> (u8, u8) {
    let (k1, k2) = pair.sorted();
    let slice = word::field16(v, k1 as u32 + 8, k2 as u32 + 8) as u8;
    let kn1 = (slice ^ k1) & 0x7;
    let kn2 = (kn1 + (k2 - k1)) % 8;
    (kn1.min(kn2), kn1.max(kn2))
}

/// The replacement span for `algorithm`: HHEA uses the sorted key pair
/// directly; MHHEA scrambles it with the vector's high byte.
pub fn locations(algorithm: Algorithm, pair: KeyPair, v: u16) -> (u8, u8) {
    match algorithm {
        Algorithm::Hhea => pair.sorted(),
        Algorithm::Mhhea => scramble_locations(pair, v),
    }
}

/// The data-scrambling bit: bit `offset mod 3` of the smaller key half
/// (the pseudocode's `Ki,1[q]`, `q := q mod 3`). HHEA never scrambles.
pub fn pattern_bit(algorithm: Algorithm, pair: KeyPair, offset: usize) -> bool {
    match algorithm {
        Algorithm::Hhea => false,
        Algorithm::Mhhea => {
            let (k1, _) = pair.sorted();
            (k1 >> (offset % 3)) & 1 == 1
        }
    }
}

/// Embeds message bits from `bits` into hiding vector `v`.
///
/// Consumes up to `span` bits; at end of message the remaining span
/// positions keep their random vector bits (the pseudocode's EOF check).
///
/// ```
/// use mhhea::{Algorithm, KeyPair};
/// use mhhea::block::embed;
///
/// // Figure 8: four zero message bits into V=0xCA06 at span (2,5).
/// let pair = KeyPair::new(0, 3).unwrap();
/// let mut bits = [false, false, false, false].into_iter();
/// let out = embed(Algorithm::Mhhea, pair, 0xCA06, &mut bits);
/// assert_eq!(out.cipher, 0xCA02);
/// assert_eq!(out.consumed, 4);
/// assert_eq!(out.span, (2, 5));
/// ```
pub fn embed(
    algorithm: Algorithm,
    pair: KeyPair,
    v: u16,
    bits: &mut impl Iterator<Item = bool>,
) -> BlockOutcome {
    let (lo, hi) = locations(algorithm, pair, v);
    let mut cipher = v;
    let mut consumed = 0usize;
    for j in lo..=hi {
        let Some(m) = bits.next() else { break };
        let b = m ^ pattern_bit(algorithm, pair, (j - lo) as usize);
        cipher = word::replace16(cipher, j as u32, j as u32, b as u16);
        consumed += 1;
    }
    BlockOutcome {
        cipher,
        consumed,
        span: (lo, hi),
    }
}

/// Extracts up to `max_bits` message bits from a received cipher vector.
///
/// The span is recomputed from the cipher itself: replacement only touches
/// the low byte, so the high byte — which drives the scrambling — arrives
/// intact.
pub fn extract(algorithm: Algorithm, pair: KeyPair, cipher: u16, max_bits: usize) -> Vec<bool> {
    let (lo, hi) = locations(algorithm, pair, cipher);
    (lo..=hi)
        .take(max_bits)
        .map(|j| word::bit16(cipher, j as u32) ^ pattern_bit(algorithm, pair, (j - lo) as usize))
        .collect()
}

/// One precomputed span: everything the word-level path needs to process a
/// block whose hiding vector carries a given high byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEntry {
    /// Low end of the replacement span (bit position in the low byte).
    pub lo: u8,
    /// Span width in bits (1..=8).
    pub width: u8,
    /// The XOR scrambling pattern, pre-shifted to positions
    /// `lo..lo+width` (zero for HHEA).
    pub pattern: u16,
    /// Mask with bits `lo..lo+width` set.
    pub mask: u16,
}

impl SpanEntry {
    fn new(algorithm: Algorithm, pair: KeyPair, high_byte: u8) -> Self {
        let (lo, hi) = locations(algorithm, pair, (high_byte as u16) << 8);
        let width = hi - lo + 1;
        let mut pattern = 0u16;
        for j in 0..width {
            pattern |= (pattern_bit(algorithm, pair, j as usize) as u16) << (lo + j);
        }
        SpanEntry {
            lo,
            width,
            pattern,
            mask: word::mask16(lo as u32, hi as u32),
        }
    }

    /// Embeds `consumed ≤ width` message bits (LSB-aligned in `bits`) into
    /// hiding vector `v`; span positions beyond `consumed` keep their
    /// vector bits (the pseudocode's EOF rule).
    #[inline]
    pub fn embed(self, v: u16, bits: u16, consumed: usize) -> u16 {
        let mask = word::low_mask16(consumed) << self.lo;
        (v & !mask) | (((bits << self.lo) ^ self.pattern) & mask)
    }

    /// Embeds the full span from an already-aligned register (the
    /// hardware profile's blind full-span replacement): span bit `j` of
    /// the output is `aligned[j] ^ pattern[j]`.
    #[inline]
    pub fn embed_aligned(self, v: u16, aligned: u16) -> u16 {
        (v & !self.mask) | ((aligned ^ self.pattern) & self.mask)
    }

    /// Extracts the first `take ≤ width` message bits from a cipher block,
    /// LSB-aligned.
    #[inline]
    pub fn extract(self, cipher: u16, take: usize) -> u16 {
        ((cipher ^ self.pattern) >> self.lo) & word::low_mask16(take)
    }
}

/// Per-pair span tables for a whole key schedule.
///
/// `table.entry(i, hb)` is the span for block index `i` (cycling through
/// the schedule) and hiding-vector high byte `hb`. Building a table costs
/// `256 × schedule length` [`scramble_locations`] evaluations (6 bytes per
/// entry, so 1.5 KiB per key pair); after that the engines never
/// recompute a span. A table depends only on the key, algorithm and
/// profile and is never mutated, so sessions hold it behind an `Arc`:
/// an encrypt/decrypt pair shares one, and a
/// [`StreamMux`](crate::gateway::StreamMux) shares one across every
/// stream on the same key.
#[derive(Debug, Clone)]
pub struct SpanTable {
    /// One 256-entry table per schedule position.
    per_pair: Vec<[SpanEntry; 256]>,
}

impl SpanTable {
    /// Builds the table for `key`'s pair cycle under `algorithm`.
    pub fn new(key: &Key, algorithm: Algorithm) -> Self {
        let per_pair = key
            .pairs()
            .iter()
            .map(|&pair| core::array::from_fn(|hb| SpanEntry::new(algorithm, pair, hb as u8)))
            .collect();
        SpanTable { per_pair }
    }

    /// The table for the hardware key schedule ([`Key::expand_cyclic`] to
    /// the 16-deep key cache).
    pub fn new_hw(key: &Key, algorithm: Algorithm) -> Self {
        SpanTable::new(&key.expand_cyclic(MAX_PAIRS), algorithm)
    }

    /// Number of schedule positions.
    pub fn schedule_len(&self) -> usize {
        self.per_pair.len()
    }

    /// The span for block index `block_index` and vector high byte
    /// `high_byte`.
    #[inline]
    pub fn entry(&self, block_index: usize, high_byte: u8) -> SpanEntry {
        self.per_pair[block_index % self.per_pair.len()][high_byte as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyPair;

    fn pair(l: u8, r: u8) -> KeyPair {
        KeyPair::new(l, r).unwrap()
    }

    #[test]
    fn figure8_worked_example() {
        // K=(0,3), V=0xCA06: slice = V[11:8] = 1010b; kn1 = (1010 ^ 000)&7
        // = 2; kn2 = 2 + 3 = 5.
        assert_eq!(scramble_locations(pair(0, 3), 0xCA06), (2, 5));
        // Message nibble 0 replaces bits 2..=5: 0xCA06 -> 0xCA02.
        let mut bits = std::iter::repeat_n(false, 4);
        let out = embed(Algorithm::Mhhea, pair(0, 3), 0xCA06, &mut bits);
        assert_eq!(out.cipher, 0xCA02);
    }

    #[test]
    fn scramble_is_insensitive_to_pair_order() {
        for v in [0x0000u16, 0xCA06, 0xFFFF, 0x8001] {
            assert_eq!(
                scramble_locations(pair(0, 3), v),
                scramble_locations(pair(3, 0), v)
            );
        }
    }

    #[test]
    fn scramble_span_stays_in_low_byte() {
        for l in 0..=7u8 {
            for r in 0..=7u8 {
                for v in [0x0000u16, 0xFFFF, 0xA5C3, 0x0F0F] {
                    let (lo, hi) = scramble_locations(pair(l, r), v);
                    assert!(lo <= hi && hi <= 7, "({l},{r}) v={v:04x} -> ({lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn mod8_wrap_changes_span_width() {
        // Find a case where kn1 + diff wraps: k=(0,7) diff=7, so kn2 =
        // (kn1+7)%8 = kn1-1 for kn1>0 — span inverts to width kn1..kn1-1
        // sorted = (kn1-1, kn1)? No: sorted(kn1, kn1-1) = width 2... For
        // kn1=0: kn2=7, width 8.
        let p = pair(0, 7);
        // v high byte 0x00 -> slice = 0, kn1 = 0, kn2 = 7: full span.
        assert_eq!(scramble_locations(p, 0x0000), (0, 7));
        // v high byte chosen so slice^k1 = 1 -> kn1 = 1, kn2 = (1+7)%8 = 0.
        let v = 0x0100; // bits 15..8 = 0b0000_0001 -> slice = 1
        assert_eq!(scramble_locations(p, v), (0, 1));
    }

    #[test]
    fn hhea_locations_ignore_vector() {
        assert_eq!(locations(Algorithm::Hhea, pair(5, 2), 0xFFFF), (2, 5));
        assert_eq!(locations(Algorithm::Hhea, pair(5, 2), 0x0000), (2, 5));
    }

    #[test]
    fn pattern_cycles_mod_3() {
        // k1 = 5 = 0b101: pattern bits 1,0,1,1,0,1...
        let p = pair(5, 6);
        let bits: Vec<bool> = (0..6)
            .map(|q| pattern_bit(Algorithm::Mhhea, p, q))
            .collect();
        assert_eq!(bits, [true, false, true, true, false, true]);
        assert!(!pattern_bit(Algorithm::Hhea, p, 0));
    }

    #[test]
    fn embed_extract_roundtrip_all_pairs() {
        for l in 0..=7u8 {
            for r in 0..=7u8 {
                for alg in [Algorithm::Hhea, Algorithm::Mhhea] {
                    let p = pair(l, r);
                    let v = 0x5AC3u16;
                    let message = [true, false, true, true, false, true, false, false];
                    let mut it = message.into_iter();
                    let out = embed(alg, p, v, &mut it);
                    let got = extract(alg, p, out.cipher, out.consumed);
                    assert_eq!(
                        got,
                        message[..out.consumed].to_vec(),
                        "alg={alg} pair=({l},{r})"
                    );
                }
            }
        }
    }

    #[test]
    fn embed_preserves_high_byte() {
        for v in [0xCA06u16, 0xFF00, 0x00FF, 0x1234] {
            let mut bits = std::iter::repeat_n(true, 8);
            let out = embed(Algorithm::Mhhea, pair(0, 7), v, &mut bits);
            assert_eq!(out.cipher & 0xFF00, v & 0xFF00);
        }
    }

    #[test]
    fn embed_at_eof_keeps_vector_bits() {
        let p = pair(2, 5); // HHEA span (2,5), width 4
        let v = 0xFFFFu16;
        let mut two_bits = [false, false].into_iter();
        let out = embed(Algorithm::Hhea, p, v, &mut two_bits);
        assert_eq!(out.consumed, 2);
        // Bits 2,3 cleared; bits 4,5 keep the vector's ones.
        assert_eq!(out.cipher, 0xFFF3);
    }

    #[test]
    fn extract_respects_max_bits() {
        let p = pair(0, 7);
        let got = extract(Algorithm::Hhea, p, 0x00FF, 3);
        assert_eq!(got, vec![true, true, true]);
        assert_eq!(extract(Algorithm::Hhea, p, 0x00FF, 0), Vec::<bool>::new());
    }

    #[test]
    fn span_entries_match_per_bit_primitives() {
        let key = crate::Key::from_nibbles(&[(0, 3), (7, 2), (4, 4), (0, 7)]).unwrap();
        for alg in [Algorithm::Hhea, Algorithm::Mhhea] {
            let table = SpanTable::new(&key, alg);
            assert_eq!(table.schedule_len(), key.len());
            for i in 0..key.len() {
                for hb in [0x00u8, 0x5A, 0xCA, 0xFF] {
                    let v = ((hb as u16) << 8) | 0x36;
                    let e = table.entry(i, hb);
                    let (lo, hi) = locations(alg, key.pair(i), v);
                    assert_eq!((e.lo, e.lo + e.width - 1), (lo, hi));
                    // Full-width embed agrees with the per-bit reference.
                    let message = [true, false, true, true, false, false, true, true];
                    let mut it = message.into_iter();
                    let per_bit = embed(alg, key.pair(i), v, &mut it);
                    let mut word_bits = 0u16;
                    for (j, &m) in message.iter().take(per_bit.consumed).enumerate() {
                        word_bits |= (m as u16) << j;
                    }
                    let word_cipher = e.embed(v, word_bits, per_bit.consumed);
                    assert_eq!(word_cipher, per_bit.cipher, "alg={alg} i={i} hb={hb:02x}");
                    // And extraction inverts it.
                    let got = e.extract(word_cipher, per_bit.consumed);
                    assert_eq!(got, word_bits);
                }
            }
        }
    }

    #[test]
    fn hw_table_uses_expanded_schedule() {
        // A 3-pair key does not divide the 16-deep cache: position 3 of the
        // expanded schedule wraps to pair 0, and the table must follow the
        // expanded (hardware) indexing, not `i mod 3` beyond the cache.
        let key = crate::Key::from_nibbles(&[(0, 3), (2, 5), (7, 1)]).unwrap();
        let hw = SpanTable::new_hw(&key, Algorithm::Mhhea);
        assert_eq!(hw.schedule_len(), crate::key::MAX_PAIRS);
        let expanded = key.expand_cyclic(crate::key::MAX_PAIRS);
        for i in 0..32 {
            let e = hw.entry(i, 0xCA);
            let (lo, hi) = locations(Algorithm::Mhhea, expanded.pair(i), 0xCA00);
            assert_eq!((e.lo, e.lo + e.width - 1), (lo, hi), "i={i}");
        }
    }

    #[test]
    fn single_position_span() {
        let p = pair(4, 4);
        let (lo, hi) = locations(Algorithm::Hhea, p, 0);
        assert_eq!((lo, hi), (4, 4));
        let mut one = std::iter::once(true);
        let out = embed(Algorithm::Hhea, p, 0x0000, &mut one);
        assert_eq!(out.cipher, 0x0010);
        assert_eq!(out.consumed, 1);
    }
}

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
//!   location and XOR pattern depend only on the algorithm, the ordered
//!   key pair (64 values) and the vector's high byte, so the reference
//!   formulas below are evaluated once, at compile time, into one static
//!   table of every entry (2 × 64 × 256, 192 KiB), and each block becomes
//!   a handful of shift/mask operations on `u16`s.

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
pub const fn scramble_locations(pair: KeyPair, v: u16) -> (u8, u8) {
    let (k1, k2) = pair.sorted();
    let slice = word::field16(v, k1 as u32 + 8, k2 as u32 + 8) as u8;
    let kn1 = (slice ^ k1) & 0x7;
    let kn2 = (kn1 + (k2 - k1)) % 8;
    if kn1 <= kn2 {
        (kn1, kn2)
    } else {
        (kn2, kn1)
    }
}

/// The replacement span for `algorithm`: HHEA uses the sorted key pair
/// directly; MHHEA scrambles it with the vector's high byte.
pub const fn locations(algorithm: Algorithm, pair: KeyPair, v: u16) -> (u8, u8) {
    match algorithm {
        Algorithm::Hhea => pair.sorted(),
        Algorithm::Mhhea => scramble_locations(pair, v),
    }
}

/// The data-scrambling bit: bit `offset mod 3` of the smaller key half
/// (the pseudocode's `Ki,1[q]`, `q := q mod 3`). HHEA never scrambles.
pub const fn pattern_bit(algorithm: Algorithm, pair: KeyPair, offset: usize) -> bool {
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
    const fn new(algorithm: Algorithm, pair: KeyPair, high_byte: u8) -> Self {
        let (lo, hi) = locations(algorithm, pair, (high_byte as u16) << 8);
        let width = hi - lo + 1;
        let mut pattern = 0u16;
        let mut j = 0;
        while j < width {
            pattern |= (pattern_bit(algorithm, pair, j as usize) as u16) << (lo + j);
            j += 1;
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

/// Every span entry and its row's width total, evaluated once from the
/// reference formulas above.
struct Spans {
    /// `rows[a][p][hb]`: algorithm `a` (HHEA 0, MHHEA 1), ordered pair
    /// index `p` ([`KeyPair::index`]), vector high byte `hb`.
    rows: [[[SpanEntry; 256]; 64]; 2],
    /// The sum of each row's 256 span widths.
    widths: [[u16; 64]; 2],
}

/// The one span table, the software analogue of the paper's fixed
/// location logic. A `static`, not a `const`: a `const` this size would
/// be copied into every use site.
static SPANS: Spans = build_spans();

const fn build_spans() -> Spans {
    const EMPTY: SpanEntry = SpanEntry {
        lo: 0,
        width: 0,
        pattern: 0,
        mask: 0,
    };
    let mut spans = Spans {
        rows: [[[EMPTY; 256]; 64]; 2],
        widths: [[0; 64]; 2],
    };
    let mut a = 0;
    while a < 2 {
        let algorithm = if a == 0 {
            Algorithm::Hhea
        } else {
            Algorithm::Mhhea
        };
        let mut p = 0;
        while p < 64 {
            let pair = KeyPair::from_index(p);
            let mut hb = 0;
            while hb < 256 {
                let e = SpanEntry::new(algorithm, pair, hb as u8);
                spans.rows[a][p][hb] = e;
                spans.widths[a][p] += e.width as u16;
                hb += 1;
            }
            p += 1;
        }
        a += 1;
    }
    spans
}

/// A key schedule's view of the static span table: one 256-entry row per
/// schedule position.
///
/// `table.entry(i, hb)` is the span for block index `i` (cycling through
/// the schedule) and hiding-vector high byte `hb`. A table is a heap-free
/// `Copy` value of up to [`MAX_PAIRS`] row references into one
/// compile-time table of every `(algorithm, pair, high byte)` entry, so
/// building one allocates nothing and computes no span; the kernels build
/// one per call from the key, algorithm and profile.
#[derive(Debug, Clone, Copy)]
pub struct SpanTable {
    /// The row of each schedule position; only the first `len` are read.
    rows: [&'static [SpanEntry; 256]; MAX_PAIRS],
    /// Number of schedule positions (`1..=MAX_PAIRS`).
    len: usize,
    /// Sum of the span widths of the first `len` rows.
    widths: u32,
}

impl SpanTable {
    /// The table for `key`'s pair cycle under `algorithm`.
    pub fn new(key: &Key, algorithm: Algorithm) -> Self {
        SpanTable::schedule(key, algorithm, key.len())
    }

    /// The table for the hardware key schedule: the key cycled out to the
    /// 16-deep key cache (as [`Key::expand_cyclic`] does).
    pub fn new_hw(key: &Key, algorithm: Algorithm) -> Self {
        SpanTable::schedule(key, algorithm, MAX_PAIRS)
    }

    /// `key` cycled out to `len ≤ MAX_PAIRS` positions.
    fn schedule(key: &Key, algorithm: Algorithm, len: usize) -> Self {
        let all = &SPANS.rows[algorithm as usize];
        let widths = &SPANS.widths[algorithm as usize];
        let cycle = || key.pairs().iter().cycle().map(|pair| pair.index());
        let mut rows = [&all[0]; MAX_PAIRS];
        for (row, p) in rows.iter_mut().zip(cycle()) {
            *row = &all[p];
        }
        SpanTable {
            rows,
            len,
            widths: cycle().take(len).map(|p| widths[p] as u32).sum(),
        }
    }

    /// Number of schedule positions.
    pub fn schedule_len(&self) -> usize {
        self.len
    }

    /// [`crate::stats::estimated_blocks`] read off the table; the encrypt
    /// kernel pre-sizes its output with it.
    pub(crate) fn estimated_blocks(&self, bit_len: usize) -> usize {
        let expected_span = self.widths as f64 / (256 * self.len) as f64;
        crate::stats::blocks_for(bit_len, expected_span, self.len)
    }

    /// The span for block index `block_index` and vector high byte
    /// `high_byte`.
    #[inline]
    pub fn entry(&self, block_index: usize, high_byte: u8) -> SpanEntry {
        self.rows[block_index % self.len][high_byte as usize]
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

    /// Every entry of the static table — each algorithm, ordered pair and
    /// high byte — against the per-bit reference, at every consumed count
    /// from 0 to the span width.
    #[test]
    fn span_entries_match_per_bit_primitives() {
        for alg in [Algorithm::Hhea, Algorithm::Mhhea] {
            for l in 0..=7u8 {
                for r in 0..=7u8 {
                    let p = pair(l, r);
                    let table = SpanTable::new(&Key::new(vec![p]).unwrap(), alg);
                    for hb in 0..=255u8 {
                        let v = ((hb as u16) << 8) | (hb ^ 0x36) as u16;
                        let e = table.entry(0, hb);
                        let (lo, hi) = locations(alg, p, v);
                        let at = format!("alg={alg} pair=({l},{r}) hb={hb:02x}");
                        assert_eq!((e.lo, e.lo + e.width - 1), (lo, hi), "{at}");
                        assert_eq!(e.mask, word::mask16(lo as u32, hi as u32), "{at}");
                        let bits = (hb ^ 0xA5) as u16;
                        let message: Vec<bool> = (0..8).map(|j| (bits >> j) & 1 == 1).collect();
                        for consumed in 0..=e.width as usize {
                            let mut it = message[..consumed].iter().copied();
                            let per_bit = embed(alg, p, v, &mut it);
                            assert_eq!(per_bit.consumed, consumed, "{at}");
                            let taken = bits & word::low_mask16(consumed);
                            let cipher = e.embed(v, taken, consumed);
                            assert_eq!(cipher, per_bit.cipher, "{at} consumed={consumed}");
                            assert_eq!(extract(alg, p, cipher, consumed), message[..consumed]);
                            assert_eq!(e.extract(cipher, consumed), taken, "{at}");
                        }
                        // The hardware profile's full-span replacement.
                        let full = e.embed(v, bits, e.width as usize);
                        assert_eq!(e.embed_aligned(v, bits << e.lo), full, "{at}");
                    }
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

//! Property-based tests for the bitkit primitives.

use bitkit::{word, BitReader, BitWriter};
use proptest::prelude::*;

proptest! {
    #[test]
    fn rotate_roundtrip(v in any::<u16>(), n in 0u32..200) {
        prop_assert_eq!(word::rotr16(word::rotl16(v, n), n), v);
        prop_assert_eq!(word::rotl16(word::rotr16(v, n), n), v);
    }

    #[test]
    fn rotate_preserves_popcount(v in any::<u16>(), n in 0u32..64) {
        prop_assert_eq!(word::rotl16(v, n).count_ones(), v.count_ones());
    }

    #[test]
    fn rotate_composes(v in any::<u16>(), a in 0u32..32, b in 0u32..32) {
        prop_assert_eq!(
            word::rotl16(word::rotl16(v, a), b),
            word::rotl16(v, (a + b) % 16)
        );
    }

    #[test]
    fn slice_concat_identity(v in any::<u16>(), cut in 1u32..16) {
        let low = word::field16(v, 0, cut - 1);
        let high = word::field16(v, cut, 15);
        prop_assert_eq!(low | (high << cut), v);
    }

    #[test]
    fn field_replace_roundtrip(v in any::<u16>(), lo in 0u32..16, span in 0u32..16) {
        let hi = (lo + span).min(15);
        let f = word::field16(v, lo, hi);
        prop_assert_eq!(word::replace16(v, lo, hi, f), v);
    }

    #[test]
    fn replace_then_field_reads_back(v in any::<u16>(), bits in any::<u16>(), lo in 0u32..16, span in 0u32..16) {
        let hi = (lo + span).min(15);
        let width = hi - lo + 1;
        let mask = if width == 16 { u16::MAX } else { (1u16 << width) - 1 };
        let r = word::replace16(v, lo, hi, bits);
        prop_assert_eq!(word::field16(r, lo, hi), bits & mask);
    }

    #[test]
    fn stream_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut w = BitWriter::new();
        w.extend(BitReader::new(&data));
        prop_assert_eq!(w.into_bytes(), data);
    }

    /// The 32-bit window read against the per-bit reader, from every
    /// cursor of a 1..=8-byte buffer at every width, with the exposed bit
    /// length short of the buffer so the window always overhangs bits it
    /// must mask (and, near the end, bytes it must zero-pad).
    #[test]
    fn read_bits16_matches_per_bit_at_every_cursor(
        bytes in proptest::collection::vec(any::<u8>(), 1..=8),
        cut in any::<usize>(),
    ) {
        let bit_len = cut % (bytes.len() * 8);
        for start in 0..=bit_len {
            for width in 0..=16usize {
                let mut word_reader = BitReader::with_bit_len(&bytes, bit_len);
                let mut bit_reader = word_reader.clone();
                for _ in 0..start {
                    word_reader.next();
                    bit_reader.next();
                }
                let mut want = 0u16;
                let mut want_got = 0usize;
                for (i, bit) in (&mut bit_reader).take(width).enumerate() {
                    want |= (bit as u16) << i;
                    want_got += 1;
                }
                prop_assert_eq!(
                    word_reader.read_bits16(width),
                    (want, want_got),
                    "start {} width {} bit_len {}", start, width, bit_len
                );
                prop_assert_eq!(word_reader.consumed(), bit_reader.consumed());
            }
        }
    }

    /// Interleaved single bits and 0..=64-bit words against a `Vec<bool>`
    /// model: `bit_len` after every call, and the bytes of a clone finished
    /// at every point (so every accumulator fill level is flushed once).
    #[test]
    fn writer_matches_bit_model_under_interleaved_pushes(
        ops in proptest::collection::vec((any::<bool>(), any::<u64>(), 0usize..=64), 0..48),
    ) {
        let mut writer = BitWriter::new();
        let mut model: Vec<bool> = Vec::new();
        for (single, value, width) in ops {
            if single {
                writer.push(value & 1 == 1);
                model.push(value & 1 == 1);
            } else {
                writer.push_bits(value, width);
                model.extend((0..width).map(|i| (value >> i) & 1 == 1));
            }
            prop_assert_eq!(writer.bit_len(), model.len());
            let mut want = vec![0u8; model.len().div_ceil(8)];
            for (i, &bit) in model.iter().enumerate() {
                want[i / 8] |= (bit as u8) << (i % 8);
            }
            prop_assert_eq!(writer.clone().into_bytes(), want);
        }
    }
}

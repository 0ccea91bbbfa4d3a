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
}

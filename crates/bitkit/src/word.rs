//! Fixed-width word helpers used when modelling 16-bit hardware registers.
//!
//! These free functions mirror the datapath primitives of the paper's
//! micro-architecture (16-bit barrel rotation, bit-field extraction and
//! replacement) on plain `u16` values, so the software reference model and
//! the gate-level model can be cross-checked against a third, independent
//! formulation.
//!
//! # Examples
//!
//! ```
//! use bitkit::word;
//!
//! // The paper's Figure 3: circulate left by KeyL = 2, then right by
//! // KeyR + 1 = 6.
//! assert_eq!(word::rotl16(0x48D0, 2), 0x2341);
//! assert_eq!(word::rotr16(0x2341, 6), 0x048D);
//! assert_eq!(word::rotr16(word::rotl16(0x48D0, 2), 6), 0x048D);
//! ```

/// Rotates a 16-bit word left by `n` (mod 16).
pub fn rotl16(v: u16, n: u32) -> u16 {
    v.rotate_left(n % 16)
}

/// Rotates a 16-bit word right by `n` (mod 16).
pub fn rotr16(v: u16, n: u32) -> u16 {
    v.rotate_right(n % 16)
}

/// Extracts bits `lo..=hi` of `v` (inclusive, LSB-numbered).
///
/// Models the HDL slice `v[hi downto lo]`.
///
/// # Panics
///
/// Panics if `hi < lo` or `hi > 15`.
///
/// ```
/// // V[11 downto 8] of 0xCA06 = 0b1010
/// assert_eq!(bitkit::word::field16(0xCA06, 8, 11), 0b1010);
/// ```
pub const fn field16(v: u16, lo: u32, hi: u32) -> u16 {
    assert!(lo <= hi && hi <= 15, "invalid field");
    let width = hi - lo + 1;
    let mask = if width == 16 {
        u16::MAX
    } else {
        (1u16 << width) - 1
    };
    (v >> lo) & mask
}

/// Replaces bits `lo..=hi` of `v` with the low bits of `bits`.
///
/// # Panics
///
/// Panics if `hi < lo` or `hi > 15`.
///
/// ```
/// // Replace bits 2..=5 of 0xCA06 with 0 -> 0xCA02.
/// assert_eq!(bitkit::word::replace16(0xCA06, 2, 5, 0), 0xCA02);
/// ```
pub fn replace16(v: u16, lo: u32, hi: u32, bits: u16) -> u16 {
    assert!(lo <= hi && hi <= 15, "invalid field {lo}..={hi}");
    let width = hi - lo + 1;
    let mask = if width == 16 {
        u16::MAX
    } else {
        ((1u16 << width) - 1) << lo
    };
    (v & !mask) | ((bits << lo) & mask)
}

/// Reads bit `i` of a word.
///
/// # Panics
///
/// Panics if `i > 15`.
pub fn bit16(v: u16, i: u32) -> bool {
    assert!(i <= 15, "bit index {i} out of range");
    (v >> i) & 1 == 1
}

/// A mask with the low `n` bits set (`n ≤ 16`).
///
/// # Panics
///
/// Panics if `n > 16`.
///
/// ```
/// assert_eq!(bitkit::word::low_mask16(0), 0x0000);
/// assert_eq!(bitkit::word::low_mask16(4), 0x000F);
/// assert_eq!(bitkit::word::low_mask16(16), 0xFFFF);
/// ```
pub const fn low_mask16(n: usize) -> u16 {
    assert!(n <= 16, "mask width exceeds 16");
    if n == 16 {
        u16::MAX
    } else {
        (1u16 << n) - 1
    }
}

/// A mask with bits `lo..=hi` set (inclusive, LSB-numbered).
///
/// This is the word-level form of the span a key pair selects: the engines
/// replace/extract whole spans with one masked operation instead of a
/// per-bit loop.
///
/// # Panics
///
/// Panics if `hi < lo` or `hi > 15`.
///
/// ```
/// assert_eq!(bitkit::word::mask16(2, 5), 0b0011_1100);
/// assert_eq!(bitkit::word::mask16(0, 15), 0xFFFF);
/// ```
pub const fn mask16(lo: u32, hi: u32) -> u16 {
    assert!(lo <= hi && hi <= 15, "invalid field");
    low_mask16((hi - lo + 1) as usize) << lo
}

/// Splits a 32-bit word into `(low16, high16)`.
///
/// The paper's message cache stores the 32-bit input as two 16-bit halves and
/// feeds the least-significant half to the alignment buffer first.
pub fn split32(v: u32) -> (u16, u16) {
    (v as u16, (v >> 16) as u16)
}

/// Rebuilds a 32-bit word from `(low16, high16)`.
pub fn join32(low: u16, high: u16) -> u32 {
    (low as u32) | ((high as u32) << 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotations_match_paper_example() {
        assert_eq!(rotl16(0x48D0, 2), 0x2341);
        assert_eq!(rotr16(0x2341, 6), 0x048D);
        assert_eq!(rotl16(0x1234, 2), 0x48D0);
    }

    #[test]
    fn rotation_wraps_mod_16() {
        assert_eq!(rotl16(0xBEEF, 16), 0xBEEF);
        assert_eq!(rotl16(0xBEEF, 18), rotl16(0xBEEF, 2));
        assert_eq!(rotr16(0xBEEF, 35), rotr16(0xBEEF, 3));
    }

    #[test]
    fn field_extracts_inclusive_range() {
        assert_eq!(field16(0xCA06, 8, 11), 0b1010);
        assert_eq!(field16(0xCA06, 0, 7), 0x06);
        assert_eq!(field16(0xCA06, 8, 15), 0xCA);
        assert_eq!(field16(0xFFFF, 0, 15), 0xFFFF);
        assert_eq!(field16(0x8000, 15, 15), 1);
    }

    #[test]
    #[should_panic(expected = "invalid field")]
    fn field_reversed_panics() {
        field16(0, 5, 2);
    }

    #[test]
    fn replace_overwrites_only_field() {
        assert_eq!(replace16(0xCA06, 2, 5, 0), 0xCA02);
        assert_eq!(replace16(0x0000, 0, 15, 0xABCD), 0xABCD);
        assert_eq!(replace16(0xFFFF, 7, 7, 0), 0xFF7F);
        // Excess bits of the replacement value are masked off.
        assert_eq!(replace16(0x0000, 0, 1, 0xFF), 0x0003);
    }

    #[test]
    fn masks_match_fields() {
        assert_eq!(low_mask16(0), 0);
        assert_eq!(low_mask16(7), 0x7F);
        assert_eq!(low_mask16(16), 0xFFFF);
        for lo in 0..16u32 {
            for hi in lo..16 {
                let m = mask16(lo, hi);
                // The mask extracts exactly what field16 reads.
                assert_eq!((0xA5C3 & m) >> lo, field16(0xA5C3, lo, hi));
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid field")]
    fn mask_reversed_panics() {
        mask16(5, 2);
    }

    #[test]
    fn bit_reads() {
        assert!(bit16(0x8000, 15));
        assert!(!bit16(0x8000, 0));
    }

    #[test]
    fn split_join_roundtrip() {
        let (lo, hi) = split32(0xABCD_1234);
        assert_eq!(lo, 0x1234);
        assert_eq!(hi, 0xABCD);
        assert_eq!(join32(lo, hi), 0xABCD_1234);
    }
}

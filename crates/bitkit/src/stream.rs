//! LSB-first bit streams over bytes.
//!
//! The MHHEA engines consume plaintext as a stream of bits and produce
//! 16-bit cipher vectors; these adapters define the byte ⇄ bit mapping used
//! by the whole suite: bytes in order, least-significant bit first within
//! each byte.

/// Reads bits LSB-first from a byte slice.
///
/// # Examples
///
/// ```
/// use bitkit::BitReader;
///
/// let mut r = BitReader::new(&[0b0000_0101]);
/// assert_eq!(r.next(), Some(true));
/// assert_eq!(r.next(), Some(false));
/// assert_eq!(r.next(), Some(true));
/// assert_eq!(r.remaining(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute next bit index.
    cursor: usize,
    /// Total number of bits exposed (may be less than `bytes.len() * 8`).
    len: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over all bits of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            cursor: 0,
            len: bytes.len() * 8,
        }
    }

    /// Creates a reader over only the first `bit_len` bits of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bit_len > bytes.len() * 8`.
    pub fn with_bit_len(bytes: &'a [u8], bit_len: usize) -> Self {
        assert!(
            bit_len <= bytes.len() * 8,
            "bit_len {bit_len} exceeds available {}",
            bytes.len() * 8
        );
        BitReader {
            bytes,
            cursor: 0,
            len: bit_len,
        }
    }

    /// Number of bits not yet read.
    pub fn remaining(&self) -> usize {
        self.len - self.cursor
    }

    /// Number of bits already read.
    pub fn consumed(&self) -> usize {
        self.cursor
    }

    /// Returns `true` when every bit has been read (the pseudocode's EOF).
    pub fn is_eof(&self) -> bool {
        self.cursor >= self.len
    }

    /// Reads the next bit without consuming it.
    pub fn peek(&self) -> Option<bool> {
        if self.is_eof() {
            None
        } else {
            Some((self.bytes[self.cursor / 8] >> (self.cursor % 8)) & 1 == 1)
        }
    }

    /// Reads up to `width` bits (`width ≤ 16`) into a word, LSB-first.
    ///
    /// Returns `(word, got)` where `got ≤ width` is the number of bits
    /// actually available; unread high bits are zero. This is the
    /// word-level fast path the MHHEA engines use to fill a whole span in
    /// one masked operation instead of one [`Iterator::next`] call per bit:
    /// one little-endian 32-bit window is loaded at the cursor's byte,
    /// shifted by the cursor's bit offset (≤ 7, so ≥ 25 window bits
    /// remain) and masked to `got`. Within the last three bytes of the
    /// buffer the window is zero-padded instead.
    ///
    /// # Panics
    ///
    /// Panics if `width > 16`.
    ///
    /// ```
    /// use bitkit::BitReader;
    ///
    /// let mut r = BitReader::new(&[0x06, 0xCA]);
    /// assert_eq!(r.read_bits16(12), (0xA06, 12));
    /// assert_eq!(r.read_bits16(16), (0xC, 4)); // only 4 bits left
    /// ```
    #[inline]
    pub fn read_bits16(&mut self, width: usize) -> (u16, usize) {
        assert!(width <= 16, "width {width} exceeds 16");
        let got = width.min(self.remaining());
        let at = self.cursor / 8;
        let window = match self.bytes.get(at..at + 4) {
            Some(&[b0, b1, b2, b3]) => u32::from_le_bytes([b0, b1, b2, b3]),
            _ => {
                let mut padded = [0u8; 4];
                let tail = self.bytes.get(at..).unwrap_or_default();
                padded[..tail.len()].copy_from_slice(tail);
                u32::from_le_bytes(padded)
            }
        };
        let out = (window >> (self.cursor % 8)) & ((1u32 << got) - 1);
        self.cursor += got;
        (out as u16, got)
    }
}

impl Iterator for BitReader<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.peek()?;
        self.cursor += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

impl ExactSizeIterator for BitReader<'_> {}

/// Accumulates bits LSB-first into bytes.
///
/// Bits collect in a 64-bit register and spill to the byte buffer 32 at a
/// time, so a push of up to 32 bits is a shift and an OR, plus one 4-byte
/// store per 32 bits written, whatever its width.
///
/// # Examples
///
/// ```
/// use bitkit::BitWriter;
///
/// let mut w = BitWriter::new();
/// for bit in [true, false, true] {
///     w.push(bit);
/// }
/// assert_eq!(w.bit_len(), 3);
/// assert_eq!(w.into_bytes(), vec![0b0000_0101]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    /// Every spilled 32-bit word, little-endian.
    bytes: Vec<u8>,
    /// Bits not yet spilled, LSB-first; every bit above `pending` is zero.
    acc: u64,
    /// Number of bits in `acc` (`0..32` between calls).
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bits` bits: writing at most
    /// that many never reallocates.
    pub fn with_capacity(bits: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            ..Self::default()
        }
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.push_word(bit as u64, 1);
    }

    /// Appends the low `width` bits of `value`, LSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    #[inline]
    pub fn push_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} exceeds 64");
        if width > 32 {
            self.push_wide(value, width as u32);
        } else {
            self.push_word(value & ((1u64 << width) - 1), width as u32);
        }
    }

    /// [`BitWriter::push_bits`] for `32 < width ≤ 64`: the low 32 bits,
    /// then the rest.
    fn push_wide(&mut self, value: u64, width: u32) {
        self.push_word(value & 0xFFFF_FFFF, 32);
        self.push_word((value >> 32) & (u64::MAX >> (96 - width)), width - 32);
    }

    /// Appends `width ≤ 32` bits already masked to `width`; spills the low
    /// 32 bits of the register once it holds that many.
    #[inline]
    fn push_word(&mut self, value: u64, width: u32) {
        self.acc |= value << self.pending;
        self.pending += width;
        if self.pending >= 32 {
            self.bytes
                .extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.pending -= 32;
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.pending as usize
    }

    /// Finishes the stream, returning the bytes (final partial byte padded
    /// with zero bits).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail = self.pending.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.bytes
    }
}

impl Extend<bool> for BitWriter {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_walks_lsb_first() {
        let mut r = BitReader::new(&[0x01, 0x80]);
        let bits: Vec<bool> = (&mut r).collect();
        assert_eq!(bits.len(), 16);
        assert!(bits[0]);
        assert!(bits[15]);
        assert_eq!(bits.iter().filter(|&&b| b).count(), 2);
        assert!(r.is_eof());
    }

    #[test]
    fn reader_respects_bit_len() {
        let mut r = BitReader::with_bit_len(&[0xFF], 3);
        assert_eq!(r.remaining(), 3);
        assert_eq!((&mut r).count(), 3);
        assert_eq!(r.next(), None);
    }

    #[test]
    #[should_panic(expected = "exceeds available")]
    fn reader_bit_len_overflow_panics() {
        BitReader::with_bit_len(&[0x00], 9);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = BitReader::new(&[0b1]);
        assert_eq!(r.peek(), Some(true));
        assert_eq!(r.consumed(), 0);
        r.next();
        assert_eq!(r.consumed(), 1);
    }

    #[test]
    fn read_bits16_zero_width_reads_nothing() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits16(0), (0, 0));
        assert_eq!(r.consumed(), 0);
    }

    #[test]
    fn read_bits16_matches_per_bit() {
        let data = [0xDE, 0xAD, 0xBE, 0xEF, 0x3C];
        for width in 1..=16usize {
            let mut word_reader = BitReader::new(&data);
            let mut bit_reader = BitReader::new(&data);
            loop {
                let (w, got) = word_reader.read_bits16(width);
                let mut want = 0u16;
                let mut want_got = 0usize;
                for i in 0..width {
                    let Some(b) = bit_reader.next() else { break };
                    want |= (b as u16) << i;
                    want_got += 1;
                }
                assert_eq!((w, got), (want, want_got), "width {width}");
                if got < width {
                    break;
                }
            }
            assert!(word_reader.is_eof());
        }
    }

    #[test]
    fn read_bits16_respects_bit_len() {
        let mut r = BitReader::with_bit_len(&[0xFF, 0xFF], 5);
        assert_eq!(r.read_bits16(16), (0b1_1111, 5));
        assert_eq!(r.read_bits16(8), (0, 0));
    }

    #[test]
    #[should_panic(expected = "exceeds 16")]
    fn read_bits16_overwide_panics() {
        BitReader::new(&[0; 4]).read_bits16(17);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let data = [0xDE, 0xAD, 0xBE, 0xEF, 0x01];
        let mut w = BitWriter::new();
        w.extend(BitReader::new(&data));
        assert_eq!(w.bit_len(), 40);
        assert_eq!(w.into_bytes(), data.to_vec());
    }

    #[test]
    fn writer_pads_partial_byte() {
        let mut w = BitWriter::new();
        w.push(true);
        w.push(true);
        assert_eq!(w.clone().into_bytes(), vec![0b11]);
        assert_eq!(w.into_bytes(), vec![0b11]);
    }

    #[test]
    fn with_capacity_holds_its_bits_without_regrowing() {
        for bits in 0..=100usize {
            let mut w = BitWriter::with_capacity(bits);
            for i in 0..bits / 7 {
                w.push_bits(i as u64, 7);
            }
            for _ in 0..bits % 7 {
                w.push(true);
            }
            assert_eq!(w.bit_len(), bits);
            assert_eq!(w.into_bytes().capacity(), bits.div_ceil(8), "{bits} bits");
        }
    }

    #[test]
    fn push_bits_matches_manual() {
        let mut w = BitWriter::new();
        w.push_bits(0xCA06, 16);
        assert_eq!(w.into_bytes(), vec![0x06, 0xCA]);
    }

    #[test]
    fn push_bits_matches_per_bit_at_any_alignment() {
        // Sweep every starting bit offset and width (including 0 and 64)
        // so the byte-at-a-time path is pinned to the per-bit reference.
        for offset in 0..8usize {
            for width in 0..=64usize {
                let value = 0xDEAD_BEEF_CAFE_F00Du64;
                let mut word = BitWriter::new();
                let mut bit = BitWriter::new();
                for i in 0..offset {
                    word.push(i % 3 == 0);
                    bit.push(i % 3 == 0);
                }
                word.push_bits(value, width);
                for i in 0..width {
                    bit.push((value >> i) & 1 == 1);
                }
                assert_eq!(word.bit_len(), bit.bit_len(), "off {offset} w {width}");
                assert_eq!(
                    word.into_bytes(),
                    bit.into_bytes(),
                    "off {offset} w {width}"
                );
            }
        }
    }

    #[test]
    fn size_hint_is_exact() {
        let r = BitReader::new(&[0u8; 4]);
        assert_eq!(r.size_hint(), (32, Some(32)));
        assert_eq!(r.len(), 32);
    }
}

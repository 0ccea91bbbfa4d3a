//! Checked little-endian field readers for the suite's byte formats (the
//! MHEA container, the MHSS snapshot, MHNP frames): a field that runs
//! past the end of the buffer reads as `None`, never a panic.

/// The `N` bytes at `at`, or `None` past the end.
#[inline]
fn field<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// Little-endian `u16` at `at`, or `None` past the end.
#[inline]
pub fn le_u16(bytes: &[u8], at: usize) -> Option<u16> {
    field(bytes, at).map(u16::from_le_bytes)
}

/// Little-endian `u32` at `at`, or `None` past the end.
#[inline]
pub fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    field(bytes, at).map(u32::from_le_bytes)
}

/// Little-endian `u64` at `at`, or `None` past the end.
#[inline]
pub fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    field(bytes, at).map(u64::from_le_bytes)
}

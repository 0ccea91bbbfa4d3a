//! Bit-manipulation primitives shared by the MHHEA reproduction suite.
//!
//! The crate provides four things:
//!
//! * [`BitVec`] — an arbitrary-width bit vector backed by `u64` limbs, with
//!   the rotation/slice/logic operations the MHHEA datapath is built from.
//! * [`BitReader`] / [`BitWriter`] — LSB-first bit streams over byte slices,
//!   used to turn plaintext bytes into the bit cursor the cipher consumes.
//! * [`word`] — tiny helpers over machine words (`u16` fields, rotations)
//!   used where a fixed 16-bit hardware register is being modelled.
//! * [`le_u16`]/[`le_u32`]/[`le_u64`] — checked little-endian field
//!   readers for the suite's byte formats.
//!
//! Bit order convention used throughout the suite: **index 0 is the least
//! significant bit**, matching the paper's "location zero refers to the least
//! significant bit". Byte streams are serialised LSB-first within each byte.
//!
//! # Examples
//!
//! ```
//! use bitkit::BitVec;
//!
//! let v = BitVec::from_u64(0x48D0, 16);
//! assert_eq!(v.rotate_left(2).to_u64(), 0x2341);
//! assert_eq!(v.rotate_left(2).rotate_right(6).to_u64(), 0x048D);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod le;
mod stream;
pub mod word;

pub use bitvec::{BitVec, Bits};
pub use le::{le_u16, le_u32, le_u64};
pub use stream::{BitReader, BitWriter};

/// Errors produced by bit-level operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BitError {
    /// A width larger than the operation supports was requested.
    WidthTooLarge {
        /// Requested width in bits.
        requested: usize,
        /// Maximum supported width in bits.
        max: usize,
    },
    /// A bit index was out of range for the vector it addressed.
    IndexOutOfRange {
        /// Offending index.
        index: usize,
        /// Length of the addressed vector.
        len: usize,
    },
    /// Two vectors had mismatched lengths in a binary operation.
    LengthMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
}

impl core::fmt::Display for BitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BitError::WidthTooLarge { requested, max } => {
                write!(f, "width {requested} exceeds supported maximum {max}")
            }
            BitError::IndexOutOfRange { index, len } => {
                write!(f, "bit index {index} out of range for length {len}")
            }
            BitError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for BitError {}

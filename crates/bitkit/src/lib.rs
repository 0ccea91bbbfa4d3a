//! Bit-manipulation primitives shared by the MHHEA reproduction suite.
//!
//! The crate provides three things:
//!
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
//! use bitkit::{le_u16, BitReader, BitWriter};
//!
//! // LSB-first: bit 0 of byte 0 is read first.
//! let bits: Vec<bool> = BitReader::new(&[0b0000_0101]).take(3).collect();
//! assert_eq!(bits, [true, false, true]);
//! let mut writer = BitWriter::new();
//! writer.push_bits(0x48D0, 16);
//! assert_eq!(le_u16(&writer.into_bytes(), 0), Some(0x48D0));
//! ```
//!
//! The [`word`] module carries the 16-bit register example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod le;
mod stream;
pub mod word;

pub use le::{le_u16, le_u32, le_u64};
pub use stream::{BitReader, BitWriter};

//! # mhhea-suite
//!
//! A complete reproduction of *"An Improved FPGA Implementation of the
//! Modified Hybrid Hiding Encryption Algorithm (MHHEA) for Data
//! Communication Security"* (Farouk & Saeb, DATE 2005) as a Rust
//! workspace. This facade crate re-exports every member so examples and
//! downstream users can depend on one crate.
//!
//! * [`bitkit`] — LSB-first bit streams and 16-bit word helpers.
//! * [`lfsr`] — maximal-length LFSRs, leap-forward matrices, randomness
//!   tests.
//! * [`rtl`] — gate-level netlists, four-state simulation, waveforms and
//!   the structural HDL builder.
//! * [`fpga`] — the Spartan-II-style implementation flow (pack, place,
//!   time, report, floorplan).
//! * [`mhhea`] — the cipher itself: keys, engines, container format,
//!   statistics.
//! * [`mhhea_net`] — MHNP, the framed TCP transport serving the stream
//!   gateway to remote clients.
//! * [`mhhea_hw`] — the gate-level micro-architectures (parallel MHHEA
//!   and the serial HHEA baseline) with cycle-accurate harnesses.
//! * [`mhhea_analysis`] — chosen-plaintext attacks, timing channels,
//!   randomness batteries.
//!
//! # Quickstart
//!
//! ```
//! use mhhea_suite::mhhea::container::{open, seal, SealOptions};
//! use mhhea_suite::mhhea::Key;
//!
//! let key = Key::from_nibbles(&[(0, 3), (2, 5), (1, 7), (4, 6)])?;
//! let sealed = seal(&key, b"packet payload", &SealOptions::default())?;
//! assert_eq!(open(&key, &sealed)?, b"packet payload");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bitkit;
pub use fpga;
pub use lfsr;
pub use mhhea;
pub use mhhea_analysis;
pub use mhhea_hw;
pub use mhhea_net;
pub use rtl;

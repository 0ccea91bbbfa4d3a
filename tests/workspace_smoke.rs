//! Workspace smoke test: exercises every facade re-export end to end so a
//! manifest regression (missing member, renamed package, broken re-export)
//! fails loudly and immediately.
//!
//! Deliberately written against `mhhea_suite::*` paths only — if any member
//! crate drops out of the facade, this file stops compiling.

use mhhea_suite::mhhea::container::{open, seal, SealOptions};
use mhhea_suite::mhhea::{Algorithm, EncryptSession, Key, LfsrSource, Profile};
use mhhea_suite::mhhea_hw::harness::{words_to_bytes, MhheaCoreSim};
use mhhea_suite::mhhea_hw::HW_LFSR_SEED;

#[test]
fn facade_seal_open_round_trip() {
    let key = Key::from_nibbles(&[(0, 3), (2, 5), (1, 7), (4, 6)]).unwrap();
    let payload = b"workspace smoke payload";
    let sealed = seal(&key, payload, &SealOptions::default()).unwrap();
    assert_eq!(open(&key, &sealed).unwrap(), payload);
}

#[test]
fn facade_hw_sw_equivalence_round() {
    let key = Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 4)]).unwrap();
    let words = [0xABCD_1234u32, 0x0F0F_5678];

    let core = mhhea_suite::mhhea_hw::core::build_mhhea_core();
    let hw = MhheaCoreSim::new(&core)
        .unwrap()
        .encrypt_words(&key, &words)
        .unwrap();

    let source = LfsrSource::new(HW_LFSR_SEED).unwrap();
    let mut enc =
        EncryptSession::with_options(key, source, Algorithm::Mhhea, Profile::HardwareFaithful);
    let sw = enc.encrypt(&words_to_bytes(&words)).unwrap();

    assert_eq!(hw.blocks, sw);
}

#[test]
fn facade_reexports_every_member() {
    // One cheap touch per re-exported crate.
    let v = mhhea_suite::bitkit::word::rotl16(0x48D0, 2);
    assert_eq!(mhhea_suite::bitkit::word::rotr16(v, 2), 0x48D0);

    let mut lfsr = mhhea_suite::lfsr::Fibonacci::from_table(16, 0xACE1).unwrap();
    let s0 = lfsr.state();
    lfsr.leap(16);
    assert_ne!(lfsr.state(), s0);

    let nl = mhhea_suite::rtl::netlist::Netlist::new("smoke");
    drop(nl);

    let device = mhhea_suite::fpga::device::Device::XC2S100;
    assert!(device.slices() > 0);

    let report = mhhea_suite::mhhea_analysis::cpa::constant_cpa(
        Algorithm::Hhea,
        &Key::from_nibbles(&[(0, 3), (2, 5)]).unwrap(),
        64,
        1,
    );
    assert!(!report.residues.is_empty());
}

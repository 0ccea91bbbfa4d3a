//! Drive the gate-level MHHEA processor: encrypt a plaintext word on the
//! simulated FPGA core, check it against the software reference, decrypt
//! it, and dump a waveform.
//!
//! Run with: `cargo run --example hardware_sim`

use mhhea::{Algorithm, DecryptSession, EncryptSession, LfsrSource, Profile};
use mhhea_hw::harness::{words_to_bytes, MhheaCoreSim};
use mhhea_hw::HW_LFSR_SEED;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = mhhea::Key::from_nibbles(&[(0, 3), (2, 5), (1, 7), (4, 6)])?;
    let words = [0xABCD_1234u32, 0xDEAD_BEEF];

    println!("elaborating the micro-architecture...");
    let core = mhhea_hw::core::build_mhhea_core();
    let stats = core.netlist.stats();
    println!(
        "  {} LUTs, {} FFs, {} TBUFs, {} IOBs, {} nets",
        stats.luts(),
        stats.dffs,
        stats.tbufs,
        stats.iobs(),
        stats.nets
    );

    let mut sim = MhheaCoreSim::new(&core)?;
    let run = sim.encrypt_words_traced(&key, &words)?;
    println!(
        "hardware run: {} cycles, {} cipher blocks",
        run.cycles,
        run.blocks.len()
    );

    // Cross-check against the bit-exact software model.
    let source = LfsrSource::new(HW_LFSR_SEED)?;
    let mut sw = EncryptSession::with_options(
        key.clone(),
        source,
        Algorithm::Mhhea,
        Profile::HardwareFaithful,
    );
    let expected = sw.encrypt(&words_to_bytes(&words))?;
    assert_eq!(run.blocks, expected, "hardware must match software");
    println!("hardware output matches the software reference bit-for-bit");

    // And the software decryptor recovers the plaintext from hardware
    // ciphertext.
    let mut dec = DecryptSession::with_options(key, Algorithm::Mhhea, Profile::HardwareFaithful);
    let recovered = dec.decrypt(&run.blocks, words.len() * 32)?;
    assert_eq!(recovered, words_to_bytes(&words));
    println!("software decryptor recovers the plaintext from hardware blocks");

    let trace = run.trace.expect("traced run");
    std::fs::write("hardware_sim.vcd", trace.to_vcd())?;
    println!(
        "waveform written to hardware_sim.vcd ({} cycles)",
        trace.cycles()
    );
    Ok(())
}

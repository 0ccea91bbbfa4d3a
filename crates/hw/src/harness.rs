//! Cycle-accurate drivers for the elaborated cores.
//!
//! The harness plays the role of the communication module feeding the
//! processor: it asserts `go`, supplies plaintext words during `LMsg`,
//! streams key pairs during `LKey`, collects `cipher_out` on every `ready`
//! pulse and counts clock cycles. Both cores share the same port
//! interface and the same `Init`/`LMsg`/`LKey` encodings, so one driver
//! serves both.

use crate::core::MhheaCore;
use crate::serial::SerialHheaCore;
use mhhea::key::MAX_PAIRS;
use mhhea::Key;
use rtl::netlist::{NetId, Netlist};
use rtl::sim::trace::Trace;
use rtl::sim::{SimError, Simulator};

/// Result of one encryption run.
#[derive(Debug, Clone)]
pub struct EncryptRun {
    /// Collected cipher blocks, in emission order.
    pub blocks: Vec<u16>,
    /// Clock cycle at which each block's `ready` pulsed (for timing-channel
    /// analysis: the serial core's inter-block gaps leak the span widths).
    pub ready_cycles: Vec<u64>,
    /// Clock cycles from `go` until the FSM returned to `Init`.
    pub cycles: u64,
    /// Waveform trace (present for traced runs).
    pub trace: Option<Trace>,
}

impl EncryptRun {
    /// Information bits per clock cycle (message bits / cycles).
    pub fn bits_per_cycle(&self, message_bits: usize) -> f64 {
        message_bits as f64 / self.cycles as f64
    }

    /// Gaps between consecutive `ready` pulses — the externally observable
    /// timing an eavesdropper sees.
    pub fn interblock_gaps(&self) -> Vec<u64> {
        self.ready_cycles.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// Packs 32-bit plaintext words into the byte order the software engines
/// consume (little-endian), so hardware and software runs see the same bit
/// stream.
pub fn words_to_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Inverse of [`words_to_bytes`] (zero-pads a trailing partial word).
pub fn bytes_to_words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks(4)
        .map(|c| {
            let mut w = [0u8; 4];
            w[..c.len()].copy_from_slice(c);
            u32::from_le_bytes(w)
        })
        .collect()
}

/// Watchable internal signals for traced runs.
type Watches<'a> = Vec<(&'static str, &'a [NetId])>;

/// The shared cycle-level driver.
///
/// # Errors
///
/// Propagates simulator errors; returns an error string-free `SimError`
/// if the FSM fails to return to `Init` within the cycle budget.
fn drive_encrypt(
    nl: &Netlist,
    state_nets: &[NetId],
    watches: Watches<'_>,
    key: &Key,
    words: &[u32],
    traced: bool,
) -> Result<EncryptRun, SimError> {
    assert!(!words.is_empty(), "supply at least one plaintext word");
    let hw_key = key.expand_cyclic(MAX_PAIRS);
    let mut sim = Simulator::new(nl)?;
    sim.reset();
    let mut trace = if traced {
        let mut t = Trace::new(nl.name());
        t.watch("state", state_nets);
        for (name, nets) in &watches {
            t.watch(*name, nets);
        }
        t.watch("ready", &nl.output_ports()["ready"]);
        t.watch("cipher_out", &nl.output_ports()["cipher_out"]);
        Some(t)
    } else {
        None
    };

    let read_state = |sim: &mut Simulator<'_>| -> u64 {
        state_nets
            .iter()
            .enumerate()
            .map(|(i, &n)| match sim.peek_net(n).to_bool() {
                Some(true) => 1u64 << i,
                _ => 0,
            })
            .sum()
    };

    let mut blocks = Vec::new();
    let mut ready_cycles = Vec::new();
    let mut cycles = 0u64;
    let mut word_idx = 0usize; // next word to present at LMsg
    let mut key_idx = 0usize; // next pair to present at LKey
    sim.set_input("go", 1)?;
    sim.set_input("plain_in", words[0] as u64)?;
    sim.set_input("key_in", 0)?;
    sim.set_input("last_word", 0)?;

    // Generous budget: worst case ~19 cycles per halfword block chain plus
    // key load, per word.
    let budget = 64 + words.len() as u64 * 2 * 20 * 18;
    let mut started = false;
    loop {
        let st = read_state(&mut sim);
        // Encoding 0/1/2 = Init/LMsg/LKey in both cores.
        match st {
            0 => {
                sim.set_input("go", if started { 0 } else { 1 })?;
            }
            1 => {
                sim.set_input("plain_in", words[word_idx] as u64)?;
            }
            2 => {
                let (l, r) = hw_key.pair(key_idx.min(MAX_PAIRS - 1)).halves();
                sim.set_input("key_in", (l as u64) | ((r as u64) << 3))?;
            }
            _ => {}
        }
        sim.set_input("last_word", (word_idx >= words.len()) as u64)?;

        sim.clock();
        cycles += 1;
        if let Some(t) = trace.as_mut() {
            t.sample(&mut sim);
        }
        // Post-edge bookkeeping: what did the cycle we just completed do?
        match st {
            1 => {
                word_idx += 1;
            }
            2 => {
                key_idx += 1;
            }
            _ => {}
        }
        if st != 0 {
            started = true;
            sim.set_input("go", 0)?;
        }
        if sim.output("ready")? == 1 {
            blocks.push(sim.output("cipher_out")? as u16);
            ready_cycles.push(cycles);
        }
        if started && read_state(&mut sim) == 0 {
            break;
        }
        if cycles > budget {
            return Err(SimError::UnknownPort {
                port: format!("<fsm stuck after {cycles} cycles in state {st}>"),
            });
        }
    }

    Ok(EncryptRun {
        blocks,
        ready_cycles,
        cycles,
        trace,
    })
}

/// Driver for the parallel MHHEA core.
#[derive(Debug)]
pub struct MhheaCoreSim<'a> {
    core: &'a MhheaCore,
}

impl<'a> MhheaCoreSim<'a> {
    /// Wraps an elaborated core (validates the netlist once).
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn new(core: &'a MhheaCore) -> Result<Self, SimError> {
        // Fail early if the netlist cannot simulate.
        Simulator::new(&core.netlist)?;
        Ok(MhheaCoreSim { core })
    }

    /// Encrypts plaintext words, collecting blocks and cycle counts.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn encrypt_words(&mut self, key: &Key, words: &[u32]) -> Result<EncryptRun, SimError> {
        self.run(key, words, false)
    }

    /// As [`MhheaCoreSim::encrypt_words`], with a full waveform trace.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn encrypt_words_traced(
        &mut self,
        key: &Key,
        words: &[u32],
    ) -> Result<EncryptRun, SimError> {
        self.run(key, words, true)
    }

    fn run(&mut self, key: &Key, words: &[u32], traced: bool) -> Result<EncryptRun, SimError> {
        let d = &self.core.debug;
        let watches: Watches<'_> = vec![
            ("msg_cache", &d.msg_cache),
            ("align_buf", &d.align_buf),
            ("vector", &d.vector),
            ("key_left", &d.key_left),
            ("key_right", &d.key_right),
            ("kn_low", &d.kn_low),
            ("kn_high", &d.kn_high),
            ("consumed", &d.consumed),
            ("key_ptr", &d.key_ptr),
        ];
        drive_encrypt(&self.core.netlist, &d.state, watches, key, words, traced)
    }
}

/// Driver for the bit-serial HHEA core.
#[derive(Debug)]
pub struct SerialHheaSim<'a> {
    core: &'a SerialHheaCore,
}

impl<'a> SerialHheaSim<'a> {
    /// Wraps an elaborated serial core.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn new(core: &'a SerialHheaCore) -> Result<Self, SimError> {
        Simulator::new(&core.netlist)?;
        Ok(SerialHheaSim { core })
    }

    /// Encrypts plaintext words on the serial core.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn encrypt_words(&mut self, key: &Key, words: &[u32]) -> Result<EncryptRun, SimError> {
        self.run(key, words, false)
    }

    /// Traced variant of [`SerialHheaSim::encrypt_words`].
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn encrypt_words_traced(
        &mut self,
        key: &Key,
        words: &[u32],
    ) -> Result<EncryptRun, SimError> {
        self.run(key, words, true)
    }

    fn run(&mut self, key: &Key, words: &[u32], traced: bool) -> Result<EncryptRun, SimError> {
        let d = &self.core.debug;
        let watches: Watches<'_> = vec![
            ("j", &d.j),
            ("msg_buf", &d.msg_buf),
            ("vector", &d.vector),
            ("consumed", &d.consumed),
        ];
        drive_encrypt(&self.core.netlist, &d.state, watches, key, words, traced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::build_mhhea_core;
    use crate::serial::build_serial_hhea_core;
    use mhhea::{Algorithm, DecryptSession, EncryptSession, LfsrSource, Profile};

    fn key() -> Key {
        Key::from_nibbles(&[
            (0, 3),
            (2, 5),
            (7, 1),
            (4, 4),
            (6, 0),
            (3, 3),
            (5, 2),
            (1, 6),
        ])
        .unwrap()
    }

    fn sw_blocks(algorithm: Algorithm, k: &Key, words: &[u32]) -> Vec<u16> {
        let source = LfsrSource::new(crate::HW_LFSR_SEED).unwrap();
        let mut enc =
            EncryptSession::with_options(k.clone(), source, algorithm, Profile::HardwareFaithful);
        enc.encrypt(&words_to_bytes(words)).unwrap()
    }

    #[test]
    fn parallel_core_matches_software_reference() {
        let core = build_mhhea_core();
        let mut sim = MhheaCoreSim::new(&core).unwrap();
        for words in [
            vec![0xABCD_1234u32],
            vec![0x0000_0000, 0xFFFF_FFFF, 0x1357_9BDF],
        ] {
            let run = sim.encrypt_words(&key(), &words).unwrap();
            let expected = sw_blocks(Algorithm::Mhhea, &key(), &words);
            assert_eq!(run.blocks, expected, "words {words:x?}");
        }
    }

    #[test]
    fn parallel_core_output_decrypts() {
        let core = build_mhhea_core();
        let mut sim = MhheaCoreSim::new(&core).unwrap();
        let words = vec![0xDEAD_BEEFu32, 0x0123_4567];
        let run = sim.encrypt_words(&key(), &words).unwrap();
        let mut dec =
            DecryptSession::with_options(key(), Algorithm::Mhhea, Profile::HardwareFaithful);
        let bytes = dec.decrypt(&run.blocks, words.len() * 32).unwrap();
        assert_eq!(bytes, words_to_bytes(&words));
    }

    #[test]
    fn serial_core_matches_software_reference() {
        let core = build_serial_hhea_core();
        let mut sim = SerialHheaSim::new(&core).unwrap();
        let words = vec![0xABCD_1234u32, 0x8001_7FFE];
        let run = sim.encrypt_words(&key(), &words).unwrap();
        let expected = sw_blocks(Algorithm::Hhea, &key(), &words);
        assert_eq!(run.blocks, expected);
    }

    #[test]
    fn parallel_takes_two_cycles_per_block() {
        let core = build_mhhea_core();
        let mut sim = MhheaCoreSim::new(&core).unwrap();
        let words = vec![0x1111_2222u32; 4];
        let run = sim.encrypt_words(&key(), &words).unwrap();
        // Overheads: 1 go + 1 LMsg/word + 16+1 LKey (first word only) +
        // 1 LMsgCache/half + 2 cycles/block + 1 return to Init.
        let blocks = run.blocks.len() as u64;
        let expected = 1 + 4 + 17 + 8 + 2 * blocks;
        assert!(
            run.cycles >= expected - 2 && run.cycles <= expected + 4,
            "cycles {} vs expected ~{expected} ({} blocks)",
            run.cycles,
            blocks
        );
    }

    #[test]
    fn serial_is_slower_than_parallel() {
        let pcore = build_mhhea_core();
        let score = build_serial_hhea_core();
        let words = vec![0xCAFE_F00Du32; 4];
        let prun = MhheaCoreSim::new(&pcore)
            .unwrap()
            .encrypt_words(&key(), &words)
            .unwrap();
        let srun = SerialHheaSim::new(&score)
            .unwrap()
            .encrypt_words(&key(), &words)
            .unwrap();
        assert!(
            srun.cycles > prun.cycles,
            "serial {} vs parallel {}",
            srun.cycles,
            prun.cycles
        );
    }

    #[test]
    fn word_byte_roundtrip() {
        let words = vec![0xABCD_1234, 0x0000_FFFF];
        assert_eq!(bytes_to_words(&words_to_bytes(&words)), words);
        assert_eq!(bytes_to_words(&[0xAA]), vec![0x0000_00AA]);
    }

    #[test]
    fn bits_per_cycle_accounting() {
        let run = EncryptRun {
            blocks: vec![0; 8],
            ready_cycles: vec![2, 4, 8],
            cycles: 64,
            trace: None,
        };
        assert!((run.bits_per_cycle(32) - 0.5).abs() < 1e-12);
        assert_eq!(run.interblock_gaps(), vec![2, 4]);
    }
}

/// Result of one gate-level decryption run.
#[derive(Debug, Clone)]
pub struct DecryptRun {
    /// Emitted 16-bit plaintext halves, in order.
    pub halves: Vec<u16>,
    /// Clock cycles from `go` until the FSM returned to `Init`.
    pub cycles: u64,
}

/// Driver for the decryption core.
#[derive(Debug)]
pub struct DecryptCoreSim<'a> {
    core: &'a crate::decrypt::MhheaDecryptCore,
}

impl<'a> DecryptCoreSim<'a> {
    /// Wraps an elaborated decrypt core.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn new(core: &'a crate::decrypt::MhheaDecryptCore) -> Result<Self, SimError> {
        Simulator::new(&core.netlist)?;
        Ok(DecryptCoreSim { core })
    }

    /// Feeds cipher blocks through the core, collecting plaintext halves.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures; errors if the FSM stalls.
    pub fn decrypt_blocks(&mut self, key: &Key, blocks: &[u16]) -> Result<DecryptRun, SimError> {
        assert!(!blocks.is_empty(), "supply at least one cipher block");
        let hw_key = key.expand_cyclic(MAX_PAIRS);
        let mut sim = Simulator::new(&self.core.netlist)?;
        sim.reset();
        let state_nets = &self.core.debug.state;
        let read_state = |sim: &mut Simulator<'_>| -> u64 {
            state_nets
                .iter()
                .enumerate()
                .map(|(i, &n)| match sim.peek_net(n).to_bool() {
                    Some(true) => 1u64 << i,
                    _ => 0,
                })
                .sum()
        };
        sim.set_input("go", 1)?;
        sim.set_input("cipher_in", blocks[0] as u64)?;
        sim.set_input("key_in", 0)?;
        sim.set_input("last_block", 0)?;
        let mut halves = Vec::new();
        let mut cycles = 0u64;
        let mut block_idx = 0usize;
        let mut key_idx = 0usize;
        let mut started = false;
        let budget = 64 + blocks.len() as u64 * 6;
        loop {
            let st = read_state(&mut sim);
            match st {
                0 => sim.set_input("go", if started { 0 } else { 1 })?,
                1 => sim.set_input("cipher_in", blocks[block_idx] as u64)?,
                2 => {
                    let (l, r) = hw_key.pair(key_idx.min(MAX_PAIRS - 1)).halves();
                    sim.set_input("key_in", (l as u64) | ((r as u64) << 3))?;
                }
                _ => {}
            }
            sim.set_input("last_block", (block_idx >= blocks.len()) as u64)?;
            sim.clock();
            cycles += 1;
            match st {
                1 => block_idx += 1,
                2 => key_idx += 1,
                _ => {}
            }
            if st != 0 {
                started = true;
                sim.set_input("go", 0)?;
            }
            if sim.output("ready")? == 1 {
                halves.push(sim.output("plain_out")? as u16);
            }
            if started && read_state(&mut sim) == 0 {
                break;
            }
            if cycles > budget {
                return Err(SimError::UnknownPort {
                    port: format!("<decrypt fsm stuck after {cycles} cycles in state {st}>"),
                });
            }
        }
        Ok(DecryptRun { halves, cycles })
    }
}

#[cfg(test)]
mod decrypt_tests {
    use super::*;
    use crate::core::build_mhhea_core;
    use crate::decrypt::build_mhhea_decrypt_core;
    use mhhea::{Algorithm, EncryptSession, LfsrSource, Profile};

    fn key() -> Key {
        Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 4), (6, 0), (3, 3)]).unwrap()
    }

    fn halves_of(words: &[u32]) -> Vec<u16> {
        words
            .iter()
            .flat_map(|w| [*w as u16, (*w >> 16) as u16])
            .collect()
    }

    #[test]
    fn decrypt_core_inverts_software_encryptor() {
        let words = vec![0xABCD_1234u32, 0xDEAD_BEEF];
        let source = LfsrSource::new(crate::HW_LFSR_SEED).unwrap();
        let mut enc = EncryptSession::with_options(
            key(),
            source,
            Algorithm::Mhhea,
            Profile::HardwareFaithful,
        );
        let blocks = enc.encrypt(&words_to_bytes(&words)).unwrap();
        let core = build_mhhea_decrypt_core();
        let run = DecryptCoreSim::new(&core)
            .unwrap()
            .decrypt_blocks(&key(), &blocks)
            .unwrap();
        assert_eq!(run.halves, halves_of(&words));
    }

    #[test]
    fn full_hardware_loopback() {
        // Gate-level encryptor -> gate-level decryptor, no software in the
        // data path.
        let words = vec![0x0123_4567u32, 0x89AB_CDEF, 0x5A5A_A5A5];
        let enc_core = build_mhhea_core();
        let enc_run = MhheaCoreSim::new(&enc_core)
            .unwrap()
            .encrypt_words(&key(), &words)
            .unwrap();
        let dec_core = build_mhhea_decrypt_core();
        let dec_run = DecryptCoreSim::new(&dec_core)
            .unwrap()
            .decrypt_blocks(&key(), &enc_run.blocks)
            .unwrap();
        assert_eq!(dec_run.halves, halves_of(&words));
    }

    #[test]
    fn wrong_key_garbles_hardware_decryption() {
        let words = vec![0xFEED_FACEu32];
        let enc_core = build_mhhea_core();
        let enc_run = MhheaCoreSim::new(&enc_core)
            .unwrap()
            .encrypt_words(&key(), &words)
            .unwrap();
        let wrong = Key::from_nibbles(&[(1, 6), (0, 2)]).unwrap();
        let dec_core = build_mhhea_decrypt_core();
        let dec_run = DecryptCoreSim::new(&dec_core)
            .unwrap()
            .decrypt_blocks(&wrong, &enc_run.blocks)
            .unwrap();
        assert_ne!(dec_run.halves, halves_of(&words));
    }
}

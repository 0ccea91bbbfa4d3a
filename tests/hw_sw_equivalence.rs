//! The central reproduction invariant: the gate-level micro-architecture
//! and the software hardware-faithful engine produce identical ciphertext
//! for identical inputs — across random keys and messages.

use mhhea::session::{DecryptSession, EncryptSession};
use mhhea::{Algorithm, Key, LfsrSource, Profile};
use mhhea_hw::harness::{words_to_bytes, DecryptCoreSim, MhheaCoreSim, SerialHheaSim};
use mhhea_hw::HW_LFSR_SEED;
use proptest::prelude::*;

fn sw_blocks(algorithm: Algorithm, key: &Key, words: &[u32]) -> Vec<u16> {
    let source = LfsrSource::new(HW_LFSR_SEED).unwrap();
    let mut enc =
        EncryptSession::with_options(key.clone(), source, algorithm, Profile::HardwareFaithful);
    enc.encrypt(&words_to_bytes(words)).unwrap()
}

proptest! {
    // Gate-level simulation is expensive; a modest case count still covers
    // the key/message space well thanks to per-case multi-block runs.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_core_equals_software(
        pairs in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        words in proptest::collection::vec(any::<u32>(), 1..=3),
    ) {
        let key = Key::from_nibbles(&pairs).unwrap();
        let core = mhhea_hw::core::build_mhhea_core();
        let mut sim = MhheaCoreSim::new(&core).unwrap();
        let run = sim.encrypt_words(&key, &words).unwrap();
        prop_assert_eq!(run.blocks, sw_blocks(Algorithm::Mhhea, &key, &words));
    }

    #[test]
    fn serial_core_equals_software(
        pairs in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        words in proptest::collection::vec(any::<u32>(), 1..=2),
    ) {
        let key = Key::from_nibbles(&pairs).unwrap();
        let core = mhhea_hw::serial::build_serial_hhea_core();
        let mut sim = SerialHheaSim::new(&core).unwrap();
        let run = sim.encrypt_words(&key, &words).unwrap();
        prop_assert_eq!(run.blocks, sw_blocks(Algorithm::Hhea, &key, &words));
    }
}

proptest! {
    // One gate-level run per case covers several messages, so a small
    // case count still sweeps keys, message counts and message sizes.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Beyond single-shot messages: a random multi-message stream pushed
    /// through one `EncryptSession` must match ONE uninterrupted run of
    /// the gate-level core over the concatenated words, word for word —
    /// the cursor is exactly the hardware's implicit stream position. The
    /// matching `DecryptSession` opens every message at its cursor, and
    /// the gate-level decrypt core inverts the whole stream.
    #[test]
    fn multi_message_session_stream_equals_hardware(
        pairs in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 1..=2),
            2..=3,
        ),
    ) {
        let key = Key::from_nibbles(&pairs).unwrap();

        // Session side: one stream, one encrypt call per message.
        let mut enc = EncryptSession::with_options(
            key.clone(),
            LfsrSource::new(HW_LFSR_SEED).unwrap(),
            Algorithm::Mhhea,
            Profile::HardwareFaithful,
        );
        let per_msg: Vec<Vec<u16>> = msgs
            .iter()
            .map(|words| enc.encrypt(&words_to_bytes(words)).unwrap())
            .collect();
        let stream_blocks: Vec<u16> = per_msg.concat();

        // Hardware side: the same words as one continuous run.
        let all_words: Vec<u32> = msgs.concat();
        let core = mhhea_hw::core::build_mhhea_core();
        let run = MhheaCoreSim::new(&core)
            .unwrap()
            .encrypt_words(&key, &all_words)
            .unwrap();
        prop_assert_eq!(&run.blocks, &stream_blocks);

        // The decrypt session tracks the same cursor message by message.
        let mut dec = DecryptSession::with_options(
            key.clone(),
            Algorithm::Mhhea,
            Profile::HardwareFaithful,
        );
        for (words, blocks) in msgs.iter().zip(&per_msg) {
            prop_assert_eq!(
                dec.decrypt(blocks, words.len() * 32).unwrap(),
                words_to_bytes(words)
            );
        }
        prop_assert_eq!(enc.cursor(), dec.cursor());

        // And the gate-level decrypt core inverts the whole stream.
        let halves: Vec<u16> = all_words
            .iter()
            .flat_map(|w| [*w as u16, (*w >> 16) as u16])
            .collect();
        let dec_core = mhhea_hw::decrypt::build_mhhea_decrypt_core();
        let drun = DecryptCoreSim::new(&dec_core)
            .unwrap()
            .decrypt_blocks(&key, &stream_blocks)
            .unwrap();
        prop_assert_eq!(drun.halves, halves);
    }
}

/// The serial HHEA core sees the same stream-vs-session identity on a
/// fixed multi-message exchange (kept non-random: the bit-serial core is
/// an order of magnitude slower to simulate).
#[test]
fn serial_core_matches_multi_message_session() {
    let key = Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 4), (6, 0)]).unwrap();
    let msgs: [Vec<u32>; 3] = [
        vec![0xABCD_1234],
        vec![0x0000_FFFF, 0x8001_7FFE],
        vec![0x5A5A_A5A5],
    ];
    let source = LfsrSource::new(HW_LFSR_SEED).unwrap();
    let mut enc = EncryptSession::with_options(
        key.clone(),
        source,
        Algorithm::Hhea,
        Profile::HardwareFaithful,
    );
    let stream_blocks: Vec<u16> = msgs
        .iter()
        .flat_map(|words| enc.encrypt(&words_to_bytes(words)).unwrap())
        .collect();
    let all_words: Vec<u32> = msgs.concat();
    let core = mhhea_hw::serial::build_serial_hhea_core();
    let run = SerialHheaSim::new(&core)
        .unwrap()
        .encrypt_words(&key, &all_words)
        .unwrap();
    assert_eq!(run.blocks, stream_blocks);
}

#[test]
fn hardware_ciphertext_decrypts_in_software() {
    let key = Key::from_nibbles(&[(0, 7), (1, 1), (5, 2), (6, 3)]).unwrap();
    let words = vec![0x0123_4567u32, 0x89AB_CDEF, 0xFFFF_0000];
    let core = mhhea_hw::core::build_mhhea_core();
    let run = MhheaCoreSim::new(&core)
        .unwrap()
        .encrypt_words(&key, &words)
        .unwrap();
    let mut dec = DecryptSession::with_options(key, Algorithm::Mhhea, Profile::HardwareFaithful);
    assert_eq!(
        dec.decrypt(&run.blocks, words.len() * 32).unwrap(),
        words_to_bytes(&words)
    );
}

#[test]
fn extreme_keys_run_on_both_cores() {
    // All-same-pair keys exercise the narrowest and widest spans.
    for pair in [(0u8, 0u8), (7, 7), (0, 7)] {
        let key = Key::from_nibbles(&[pair]).unwrap();
        let words = vec![0xA5A5_5A5Au32];
        let pcore = mhhea_hw::core::build_mhhea_core();
        let prun = MhheaCoreSim::new(&pcore)
            .unwrap()
            .encrypt_words(&key, &words)
            .unwrap();
        assert_eq!(prun.blocks, sw_blocks(Algorithm::Mhhea, &key, &words));
        let score = mhhea_hw::serial::build_serial_hhea_core();
        let srun = SerialHheaSim::new(&score)
            .unwrap()
            .encrypt_words(&key, &words)
            .unwrap();
        assert_eq!(srun.blocks, sw_blocks(Algorithm::Hhea, &key, &words));
    }
}

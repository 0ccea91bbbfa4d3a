//! Differential test for the bitsliced lane kernel: `seal_lanes` must be
//! bit-identical to the scalar `SpanTable` sessions.

use mhhea::lanes::{seal_lanes, LaneSealJob};
use mhhea::session::EncryptSession;
use mhhea::source::LfsrSource;
use mhhea::{Algorithm, Key, Profile};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = Key> {
    proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16)
        .prop_map(|pairs| Key::from_nibbles(&pairs).expect("in range"))
}

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![Just(Algorithm::Hhea), Just(Algorithm::Mhhea)]
}

/// Deterministic message bytes so shrinking stays meaningful.
fn message(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt) ^ (i >> 8) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The kernel itself, from the stream origin: arbitrary keys, both
    /// algorithms, message sizes that leave scalar tails.
    #[test]
    fn seal_lanes_matches_scalar_sessions(
        key in arb_key(),
        algorithm in arb_algorithm(),
        specs in proptest::collection::vec((1u16..=0xFFFF, 0usize..=48), 1..=70),
        salt in any::<u8>(),
    ) {
        let table = mhhea::block::SpanTable::new(&key, algorithm);
        let messages: Vec<Vec<u8>> = specs
            .iter()
            .enumerate()
            .map(|(i, &(_, len))| message(len, salt.wrapping_add(i as u8)))
            .collect();
        let jobs: Vec<LaneSealJob> = specs
            .iter()
            .zip(&messages)
            .map(|(&(seed, _), msg)| LaneSealJob { message: msg, state: seed, block_index: 0 })
            .collect();
        let outs = seal_lanes(&key, algorithm, &table, &jobs).unwrap();
        for ((&(seed, _), msg), out) in specs.iter().zip(&messages).zip(outs) {
            let source = LfsrSource::new(seed).unwrap();
            let mut session = EncryptSession::with_options(
                key.clone(),
                source,
                algorithm,
                Profile::Streaming,
            );
            let want = session.encrypt(msg).unwrap();
            prop_assert_eq!(out.blocks, want);
            prop_assert_eq!(out.block_index, session.cursor().block_index);
        }
    }
}

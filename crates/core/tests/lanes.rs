//! Differential tests for the bitsliced lane engine: every path through
//! the lane-filling scheduler must be bit-identical to the scalar
//! `SpanTable` path it replaces.
//!
//! The gateway tests run two muxes with identical configurations: one
//! drives whole batches (so busy shards engage the lane engine), the
//! other applies the same operations one at a time (pure scalar). The
//! outputs — and the stream states left behind — must match exactly.

use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
use mhhea::lanes::{seal_lanes, LaneSealJob, LANE_THRESHOLD, MAX_LANES};
use mhhea::session::EncryptSession;
use mhhea::source::LfsrSource;
use mhhea::{Algorithm, Key, KeyRing, Profile};
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

/// Opens `count` identical-key streams on both muxes, all in one shard so
/// the batch path sees a laneable group.
fn open_streams(count: u64, key: &Key, algorithm: Algorithm) -> (StreamMux, StreamMux) {
    let lane = StreamMux::with_shards(1);
    let scalar = StreamMux::with_shards(1);
    for id in 0..count {
        let cfg = StreamConfig::new(key.clone())
            .with_algorithm(algorithm)
            .with_seed(0x1000u16.wrapping_add(id as u16 * 7) | 1);
        lane.open(StreamId(id), cfg.clone()).unwrap();
        scalar.open(StreamId(id), cfg).unwrap();
    }
    (lane, scalar)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An encrypt-only `submit_batch` with enough compatible streams to
    /// fill lanes produces the exact blocks the scalar path produces —
    /// across two consecutive batches, so the second one lane-packs
    /// mid-stream states (nonzero block indices, mid-sequence LFSR
    /// registers).
    #[test]
    fn seal_batch_lanes_match_scalar_reference(
        key in arb_key(),
        algorithm in arb_algorithm(),
        lens in proptest::collection::vec(0usize..=96, LANE_THRESHOLD..=70),
        salt in any::<u8>(),
    ) {
        let (lane, scalar) = open_streams(lens.len() as u64, &key, algorithm);
        for round in 0..2u8 {
            let messages: Vec<Vec<u8>> = lens
                .iter()
                .map(|&len| message(len, salt.wrapping_add(round)))
                .collect();
            let batch = messages
                .iter()
                .enumerate()
                .map(|(i, msg)| (StreamId(i as u64), StreamOp::Encrypt(msg.clone())))
                .collect();
            let outs = lane.submit_batch(batch);
            for (i, (msg, out)) in messages.iter().zip(outs).enumerate() {
                let want = scalar.encrypt(StreamId(i as u64), msg).unwrap();
                prop_assert_eq!(out, Ok(StreamOutput::Blocks(want)), "stream {} round {}", i, round);
            }
        }
        // The lane commits left every stream exactly where scalar did.
        for i in 0..lens.len() as u64 {
            prop_assert_eq!(
                lane.cursor(StreamId(i)).unwrap().block_index,
                scalar.cursor(StreamId(i)).unwrap().block_index
            );
        }
    }

    /// A mixed `submit_batch` — lane-packed encrypts, scalar decrypts, and
    /// mid-batch rekeys on lane-packed streams — matches applying the same
    /// ops one at a time. Up to 70 streams crosses the 64-lane word; a
    /// second round lane-packs mid-stream states (nonzero block indices,
    /// mid-sequence LFSR registers).
    #[test]
    fn submit_batch_mixed_ops_match_scalar_reference(
        key in arb_key(),
        algorithm in arb_algorithm(),
        lens in proptest::collection::vec(0usize..=96, LANE_THRESHOLD..=70),
        rekey_mask in proptest::collection::vec(any::<bool>(), LANE_THRESHOLD..=70),
        rounds in 1u32..=2,
        salt in any::<u8>(),
    ) {
        let n = lens.len() as u64;
        let lane = StreamMux::with_shards(1);
        let scalar = StreamMux::with_shards(1);
        let feeder = StreamMux::with_shards(1);
        for id in 0..n {
            // Same keys on every stream (one lane group), distinct seeds
            // (distinct LFSR state per lane).
            let ring = KeyRing::new(
                vec![key.clone(), Key::from_nibbles(&[(1, 6), (0, 7)]).unwrap()],
                0x1000u16.wrapping_add(id as u16 * 7) | 1,
            )
            .unwrap();
            let cfg = StreamConfig::new(key.clone())
                .with_algorithm(algorithm)
                .with_ring(ring);
            lane.open(StreamId(id), cfg.clone()).unwrap();
            scalar.open(StreamId(id), cfg.clone()).unwrap();
            // Decrypt-side streams (ids offset by 1000) track a feeder
            // that seals the traffic they will open mid-batch.
            lane.open(StreamId(1000 + id), cfg.clone()).unwrap();
            scalar.open(StreamId(1000 + id), cfg.clone()).unwrap();
            feeder.open(StreamId(1000 + id), cfg).unwrap();
        }
        for round in 0..rounds {
            let salt = salt.wrapping_add(round as u8);
            let mut batch: Vec<(StreamId, StreamOp)> = Vec::new();
            for (i, &len) in lens.iter().enumerate() {
                let id = StreamId(i as u64);
                batch.push((id, StreamOp::Encrypt(message(len, salt))));
                if rekey_mask.get(i).copied().unwrap_or(false) {
                    // Mid-batch rotation on a lane-packed stream: the laned
                    // encrypt must commit before this runs.
                    batch.push((id, StreamOp::Rekey { epoch: round + 1 }));
                    batch.push((id, StreamOp::Encrypt(message(len / 2, salt ^ 0x55))));
                }
                let plain = message(len, salt.wrapping_add(3));
                let blocks = feeder.encrypt(StreamId(1000 + i as u64), &plain).unwrap();
                batch.push((
                    StreamId(1000 + i as u64),
                    StreamOp::Decrypt { blocks, bit_len: plain.len() * 8 },
                ));
            }
            let got = lane.submit_batch(batch.clone());
            let want: Vec<_> = batch
                .iter()
                .map(|(id, op)| match op {
                    StreamOp::Encrypt(msg) => {
                        scalar.encrypt(*id, msg).map(StreamOutput::Blocks)
                    }
                    StreamOp::Decrypt { blocks, bit_len } => {
                        scalar.decrypt(*id, blocks, *bit_len).map(StreamOutput::Plain)
                    }
                    StreamOp::Rekey { epoch } => {
                        scalar.rekey(*id, *epoch).map(|epoch| StreamOutput::Rekeyed { epoch })
                    }
                })
                .collect();
            prop_assert_eq!(got, want, "round {}", round);
        }
        // The lane commits left every stream exactly where scalar did.
        for id in 0..n {
            prop_assert_eq!(
                lane.epoch(StreamId(id)).unwrap(),
                scalar.epoch(StreamId(id)).unwrap()
            );
            prop_assert_eq!(
                lane.cursor(StreamId(id)).unwrap().block_index,
                scalar.cursor(StreamId(id)).unwrap().block_index
            );
        }
    }
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

/// The exact lane-boundary geometries: the threshold, one short of a
/// full lane word, one full word, and one over (forcing a second kernel
/// group).
#[test]
fn submit_batch_at_lane_word_boundaries() {
    let key = Key::from_nibbles(&[(0, 3), (2, 5), (1, 7)]).unwrap();
    for count in [
        LANE_THRESHOLD as u64,
        MAX_LANES as u64 - 1,
        MAX_LANES as u64,
        MAX_LANES as u64 + 1,
    ] {
        let (lane, scalar) = open_streams(count, &key, Algorithm::Mhhea);
        let messages: Vec<Vec<u8>> = (0..count)
            .map(|id| message(17 + (id as usize % 5), id as u8))
            .collect();
        let batch = (0..count)
            .map(|id| {
                (
                    StreamId(id),
                    StreamOp::Encrypt(messages[id as usize].clone()),
                )
            })
            .collect();
        let outs = lane.submit_batch(batch);
        for (id, (msg, out)) in (0..count).zip(messages.iter().zip(outs)) {
            let want = scalar.encrypt(StreamId(id), msg).unwrap();
            assert_eq!(
                out,
                Ok(StreamOutput::Blocks(want)),
                "stream {id} of {count}"
            );
        }
    }
}

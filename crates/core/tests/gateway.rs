//! Integration tests for the multi-stream gateway: batched traffic across
//! many streams, error confinement, and the evict/restore snapshot cycle.

use mhhea::gateway::{GatewayError, StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
use mhhea::{Algorithm, Key, KeyRing, MhheaError, Profile};
use proptest::prelude::*;

fn key() -> Key {
    Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 4)]).unwrap()
}

fn duplex_pair(ids: impl Iterator<Item = u64>, profile: Profile) -> (StreamMux, StreamMux) {
    let tx = StreamMux::with_shards(16);
    let rx = StreamMux::with_shards(16);
    for id in ids {
        let cfg = StreamConfig::new(key())
            .with_profile(profile)
            .with_seed(0x1111u16.wrapping_add(id as u16) | 1);
        tx.open(StreamId(id), cfg.clone()).unwrap();
        rx.open(StreamId(id), cfg).unwrap();
    }
    (tx, rx)
}

/// Encrypts `batch` on `tx` in one `submit_batch`, returning each
/// message's cipher blocks.
fn seal_all(tx: &StreamMux, batch: &[(StreamId, Vec<u8>)]) -> Vec<Vec<u16>> {
    let ops = batch
        .iter()
        .map(|(id, msg)| (*id, StreamOp::Encrypt(msg.clone())))
        .collect();
    tx.submit_batch(ops)
        .into_iter()
        .map(|out| match out {
            Ok(StreamOutput::Blocks(blocks)) => blocks,
            other => panic!("encrypt failed: {other:?}"),
        })
        .collect()
}

/// The decrypt ops that open `sealed` (one per message of `batch`).
fn open_ops(batch: &[(StreamId, Vec<u8>)], sealed: Vec<Vec<u16>>) -> Vec<(StreamId, StreamOp)> {
    batch
        .iter()
        .zip(sealed)
        .map(|((id, msg), blocks)| {
            let bit_len = msg.len() * 8;
            (*id, StreamOp::Decrypt { blocks, bit_len })
        })
        .collect()
}

/// A batch mixing several messages per stream must round-trip with
/// per-stream ordering preserved — in both profiles and both variants.
#[test]
fn batched_traffic_roundtrips_all_modes() {
    for algorithm in [Algorithm::Hhea, Algorithm::Mhhea] {
        for profile in [Profile::Streaming, Profile::HardwareFaithful] {
            let tx = StreamMux::with_shards(8);
            let rx = StreamMux::with_shards(8);
            for id in 0..10u64 {
                let cfg = StreamConfig::new(key())
                    .with_algorithm(algorithm)
                    .with_profile(profile);
                tx.open(StreamId(id), cfg.clone()).unwrap();
                rx.open(StreamId(id), cfg).unwrap();
            }
            // Three messages per stream, interleaved across the batch.
            let mut batch = Vec::new();
            for round in 0..3 {
                for id in 0..10u64 {
                    batch.push((
                        StreamId(id),
                        format!("r{round} on {id} ({algorithm}/{profile})").into_bytes(),
                    ));
                }
            }
            let sealed = seal_all(&tx, &batch);
            let opened = rx.submit_batch(open_ops(&batch, sealed));
            for (got, (_, want)) in opened.into_iter().zip(batch) {
                assert_eq!(
                    got,
                    Ok(StreamOutput::Plain(want)),
                    "alg={algorithm} profile={profile}"
                );
            }
        }
    }
}

/// Batched and one-at-a-time encryption must produce identical bytes —
/// the batch API is a throughput plan, not a different cipher.
#[test]
fn batch_equals_sequential_singles() {
    let (tx_batch, _) = duplex_pair(0..12, Profile::Streaming);
    let (tx_single, _) = duplex_pair(0..12, Profile::Streaming);
    let mut batch = Vec::new();
    for round in 0..4 {
        for id in 0..12u64 {
            batch.push((
                StreamId(id),
                format!("round {round} stream {id}").into_bytes(),
            ));
        }
    }
    let batched = seal_all(&tx_batch, &batch);
    for ((id, msg), got) in batch.into_iter().zip(batched) {
        let single = tx_single.encrypt(id, &msg).unwrap();
        assert_eq!(got, single, "stream {id}");
    }
}

/// A decrypt batch with a truncated message and one retargeted to an
/// unknown stream id: those two slots fail, and every healthy stream in
/// the same batch still opens its message.
#[test]
fn seal_open_batch_with_errors_interleaved() {
    let (tx, rx) = duplex_pair(0..5, Profile::Streaming);
    let batch: Vec<(StreamId, Vec<u8>)> = (0..5u64)
        .map(|id| (StreamId(id), format!("payload {id}").into_bytes()))
        .collect();
    let mut ops = open_ops(&batch, seal_all(&tx, &batch));
    if let (_, StreamOp::Decrypt { blocks, .. }) = &mut ops[1] {
        blocks.truncate(1);
    }
    ops[3].0 = StreamId(999);
    let opened = rx.submit_batch(ops);
    assert_eq!(opened.len(), 5);
    for (i, result) in opened.iter().enumerate() {
        match i {
            1 => assert!(
                matches!(
                    result,
                    Err(GatewayError::Engine(MhheaError::CiphertextTruncated { .. }))
                ),
                "slot 1: {result:?}"
            ),
            3 => assert_eq!(
                result,
                &Err(GatewayError::UnknownStream(StreamId(999))),
                "slot 3"
            ),
            _ => assert_eq!(result, &Ok(StreamOutput::Plain(batch[i].1.clone()))),
        }
    }
}

type Slot = Result<StreamOutput, GatewayError>;

const POISON_STREAMS: u64 = 20;

/// Opens `POISON_STREAMS` identically configured ring streams on three
/// one-shard muxes: the victim that sees the poisoned batch, a control
/// that sees the same batch without the poison, and a feeder that seals
/// traffic for the decrypt side. One shard puts every stream under the
/// same lock, and in the same sequential pool job, as the poisoned slots.
fn poison_muxes() -> (StreamMux, StreamMux, StreamMux) {
    let victim = StreamMux::with_shards(1);
    let control = StreamMux::with_shards(1);
    let feeder = StreamMux::with_shards(1);
    for id in 0..POISON_STREAMS {
        let ring = KeyRing::single(key(), 0x3000 + id as u16).unwrap();
        let cfg = StreamConfig::new(key()).with_ring(ring);
        victim.open(StreamId(id), cfg.clone()).unwrap();
        control.open(StreamId(id), cfg.clone()).unwrap();
        feeder.open(StreamId(id), cfg).unwrap();
    }
    (victim, control, feeder)
}

fn healthy_message(id: u64) -> Vec<u8> {
    format!("healthy message {id}").into_bytes()
}

/// Runs `clean` on `control`, and `clean` with each `(position, op)` of
/// `poison` (positions ascending) spliced in on `victim`. Asserts the
/// healthy slots match the control's results; returns them, then the
/// poisoned slots' results.
fn run_poisoned(
    victim: &StreamMux,
    control: &StreamMux,
    clean: Vec<(StreamId, StreamOp)>,
    poison: Vec<(usize, (StreamId, StreamOp))>,
) -> (Vec<Slot>, Vec<Slot>) {
    let positions: Vec<usize> = poison.iter().map(|(at, _)| *at).collect();
    let mut poisoned = clean.clone();
    for (at, op) in poison {
        poisoned.insert(at, op);
    }
    let want = control.submit_batch(clean);
    let (bad, healthy): (Vec<_>, Vec<_>) = victim
        .submit_batch(poisoned)
        .into_iter()
        .enumerate()
        .partition(|(i, _)| positions.contains(i));
    let healthy: Vec<Slot> = healthy.into_iter().map(|(_, r)| r).collect();
    assert_eq!(healthy, want, "a shard-mate diverged from the control");
    (healthy, bad.into_iter().map(|(_, r)| r).collect())
}

/// Every stream, the poisoned ones included, evicts to the same snapshot
/// bytes on `victim` as on `control`.
fn assert_same_states(victim: &StreamMux, control: &StreamMux) {
    for id in 0..POISON_STREAMS {
        assert_eq!(
            victim.evict(StreamId(id)).unwrap(),
            control.evict(StreamId(id)).unwrap(),
            "stream {id} state diverged from the control"
        );
    }
}

/// Poisoned slots among `submit_batch` encrypts — a stale rekey and an
/// encrypt on an unknown stream — fail only themselves: the 19 healthy
/// encrypts, all in the poisoned slots' shard, stay bit-exact with a
/// control mux that never saw the poison, and the poisoned stream is left
/// untouched and usable.
#[test]
fn seal_batch_poison_leaves_shardmates_bit_exact() {
    let (victim, control, _) = poison_muxes();
    let clean = (0..POISON_STREAMS)
        .filter(|id| *id != 3)
        .map(|id| (StreamId(id), StreamOp::Encrypt(healthy_message(id))))
        .collect();
    let poison = vec![
        (3, (StreamId(3), StreamOp::Rekey { epoch: 0 })),
        (10, (StreamId(99), StreamOp::Encrypt(healthy_message(99)))),
    ];
    let (_, bad) = run_poisoned(&victim, &control, clean, poison);
    assert_eq!(
        bad,
        vec![
            Err(GatewayError::StaleEpoch {
                current: 0,
                requested: 0
            }),
            Err(GatewayError::UnknownStream(StreamId(99))),
        ]
    );
    // The poisoned stream never advanced: it still encrypts from block 0.
    assert_eq!(victim.cursor(StreamId(3)).unwrap().block_index, 0);
    let after = victim.encrypt(StreamId(3), b"recovered").unwrap();
    assert_eq!(after, control.encrypt(StreamId(3), b"recovered").unwrap());
    assert_same_states(&victim, &control);
}

/// The decrypt-side counterpart: a stream fed truncated ciphertext among
/// `submit_batch` decrypts fails alone — shard-mates' plaintexts are
/// bit-exact with the control's, and the failed decrypt rolled back (the
/// full blocks still open on the same stream).
#[test]
fn decrypt_batch_poison_leaves_shardmates_bit_exact() {
    let (victim, control, feeder) = poison_muxes();
    let sealed: Vec<Vec<u16>> = (0..POISON_STREAMS)
        .map(|id| feeder.encrypt(StreamId(id), &healthy_message(id)).unwrap())
        .collect();
    let bit_len = |id: u64| healthy_message(id).len() * 8;
    let decrypt = |id: u64, blocks: &[u16]| {
        let blocks = blocks.to_vec();
        let bit_len = bit_len(id);
        (StreamId(id), StreamOp::Decrypt { blocks, bit_len })
    };
    let clean = (0..POISON_STREAMS)
        .filter(|id| *id != 2)
        .map(|id| decrypt(id, &sealed[id as usize]))
        .collect();
    let poison = vec![(2, decrypt(2, &sealed[2][..1]))];
    let (healthy, bad) = run_poisoned(&victim, &control, clean, poison);
    assert!(matches!(
        bad[..],
        [Err(GatewayError::Engine(
            MhheaError::CiphertextTruncated { .. }
        ))]
    ));
    let ids = (0..POISON_STREAMS).filter(|id| *id != 2);
    for (id, got) in ids.zip(healthy) {
        assert_eq!(got, Ok(StreamOutput::Plain(healthy_message(id))));
    }
    // The failed decrypt rolled back: the untruncated blocks still open
    // on the same mux, bit-exactly.
    for mux in [&victim, &control] {
        let plain = mux.decrypt(StreamId(2), &sealed[2], bit_len(2)).unwrap();
        assert_eq!(plain, healthy_message(2));
    }
    assert_same_states(&victim, &control);
}

/// Unknown stream ids inside a mixed `submit_batch` fail their own slots
/// only, in both directions.
#[test]
fn submit_batch_unknown_streams_fail_alone() {
    let (tx, _) = duplex_pair(0..2, Profile::Streaming);
    let results = tx.submit_batch(vec![
        (StreamId(0), StreamOp::Encrypt(b"fine".to_vec())),
        (StreamId(99), StreamOp::Encrypt(b"ghost".to_vec())),
        (
            StreamId(98),
            StreamOp::Decrypt {
                blocks: vec![0xABCD],
                bit_len: 8,
            },
        ),
        (StreamId(1), StreamOp::Encrypt(b"also fine".to_vec())),
    ]);
    assert!(matches!(results[0], Ok(StreamOutput::Blocks(_))));
    assert_eq!(results[1], Err(GatewayError::UnknownStream(StreamId(99))));
    assert_eq!(results[2], Err(GatewayError::UnknownStream(StreamId(98))));
    assert!(matches!(results[3], Ok(StreamOutput::Blocks(_))));
}

/// `rekey_with` installs externally derived material (the MHKX path):
/// the rotated stream matches a fresh session built from the same key
/// and seed, the stale-epoch guard holds, a zero seed is refused without
/// touching the stream, and the installed single-key ring survives an
/// evict/restore cycle.
#[test]
fn rekey_with_installs_derived_material() {
    use mhhea::session::{DecryptSession, EncryptSession};
    use mhhea::LfsrSource;

    let mux = StreamMux::with_shards(4);
    // Opened without a ring: `rekey` has nothing to rotate to, but
    // `rekey_with` brings its own material.
    mux.open(StreamId(1), StreamConfig::new(key())).unwrap();
    mux.encrypt(StreamId(1), b"epoch zero traffic").unwrap();
    assert!(matches!(
        mux.rekey(StreamId(1), 1),
        Err(GatewayError::NoKeyRing(StreamId(1)))
    ));

    let derived = Key::from_nibbles(&[(1, 6), (3, 2), (5, 5)]).unwrap();
    // A zero seed is rejected and the stream is untouched.
    assert!(mux.rekey_with(StreamId(1), 1, derived.clone(), 0).is_err());
    assert_eq!(mux.epoch(StreamId(1)).unwrap(), 0);

    assert_eq!(
        mux.rekey_with(StreamId(1), 1, derived.clone(), 0xBEEF)
            .unwrap(),
        1
    );
    // Not newer: refused, both for rekey_with and a ring rekey against
    // the single-entry ring it installed.
    assert!(matches!(
        mux.rekey_with(StreamId(1), 1, derived.clone(), 0xBEEF),
        Err(GatewayError::StaleEpoch {
            current: 1,
            requested: 1
        })
    ));

    // The rotated stream seals exactly like a fresh session built from
    // the derived material.
    let mut enc = EncryptSession::with_options(
        derived.clone(),
        LfsrSource::new(0xBEEF).unwrap(),
        Algorithm::Mhhea,
        Profile::Streaming,
    );
    enc.set_epoch(1);
    let msg = b"fresh-DH epoch one";
    let want = enc.encrypt(msg).unwrap();
    assert_eq!(mux.encrypt(StreamId(1), msg).unwrap(), want);
    let mut dec =
        DecryptSession::with_options(derived.clone(), Algorithm::Mhhea, Profile::Streaming);
    dec.set_epoch(1);
    dec.decrypt(&want, msg.len() * 8).unwrap();

    // The single-key ring rides the snapshot: evict, restore, continue
    // bit-exactly, and a *ring* rekey now works (reseed-only rotation).
    let snap = mux.evict(StreamId(1)).unwrap();
    let mux = StreamMux::with_shards(7);
    assert_eq!(mux.restore(&snap).unwrap(), StreamId(1));
    assert_eq!(mux.epoch(StreamId(1)).unwrap(), 1);
    let probe = b"post-restore probe";
    assert_eq!(
        mux.encrypt(StreamId(1), probe).unwrap(),
        enc.encrypt(probe).unwrap()
    );
    assert_eq!(mux.rekey(StreamId(1), 2).unwrap(), 2);
}

/// The acceptance bar: the gateway sustains well over 1,000 concurrent
/// streams, and every one of them round-trips through a batched
/// encrypt/decrypt cycle.
#[test]
fn thousand_streams_concurrent_roundtrip() {
    const STREAMS: u64 = 1200;
    let (tx, rx) = duplex_pair(0..STREAMS, Profile::Streaming);
    assert_eq!(tx.len(), STREAMS as usize);
    let batch: Vec<(StreamId, Vec<u8>)> = (0..STREAMS)
        .map(|id| (StreamId(id), format!("stream {id} says hello").into_bytes()))
        .collect();
    let opened = rx.submit_batch(open_ops(&batch, seal_all(&tx, &batch)));
    assert_eq!(opened.len(), STREAMS as usize);
    for (result, (_, msg)) in opened.into_iter().zip(batch) {
        assert_eq!(result, Ok(StreamOutput::Plain(msg)));
    }
}

/// A mux shared across OS threads (clone-and-go) stays consistent:
/// distinct streams progress independently under concurrent submitters.
#[test]
fn mux_is_shareable_across_threads() {
    let (tx, rx) = duplex_pair(0..8, Profile::Streaming);
    let handles: Vec<_> = (0..8u64)
        .map(|id| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                (0..5)
                    .map(|round| {
                        let msg = format!("t{id} r{round}");
                        (tx.encrypt(StreamId(id), msg.as_bytes()).unwrap(), msg)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for (id, handle) in handles.into_iter().enumerate() {
        for (blocks, msg) in handle.join().unwrap() {
            let got = rx
                .decrypt(StreamId(id as u64), &blocks, msg.len() * 8)
                .unwrap();
            assert_eq!(got, msg.as_bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance proptest: evicting a stream mid-conversation and
    /// restoring it from the snapshot bytes resumes **bit-exactly** — the
    /// restored mux produces the same ciphertext as an uninterrupted one,
    /// for random keys, messages, split points and both profiles.
    #[test]
    fn snapshot_restore_resumes_bit_exactly(
        pairs in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        msgs in proptest::collection::vec(
            proptest::collection::vec(proptest::arbitrary::any::<u8>(), 1..48),
            2..6,
        ),
        split in 1usize..5,
        hw in proptest::arbitrary::any::<bool>(),
        seed in 1u16..,
    ) {
        let split = split.min(msgs.len() - 1);
        let profile = if hw { Profile::HardwareFaithful } else { Profile::Streaming };
        let k = Key::from_nibbles(&pairs).unwrap();
        let cfg = StreamConfig::new(k).with_profile(profile).with_seed(seed);

        // Control: one uninterrupted stream.
        let control = StreamMux::with_shards(4);
        control.open(StreamId(1), cfg.clone()).unwrap();
        let want: Vec<Vec<u16>> = msgs
            .iter()
            .map(|m| control.encrypt(StreamId(1), m).unwrap())
            .collect();

        // Candidate: same stream, evicted and restored at `split`.
        let mux = StreamMux::with_shards(4);
        mux.open(StreamId(1), cfg.clone()).unwrap();
        let mut got: Vec<Vec<u16>> = Vec::new();
        let rx = StreamMux::with_shards(4);
        rx.open(StreamId(1), cfg).unwrap();
        for m in &msgs[..split] {
            got.push(mux.encrypt(StreamId(1), m).unwrap());
        }
        // Decrypt-side progress must survive the snapshot too.
        for (m, blocks) in msgs[..split].iter().zip(&got) {
            prop_assert_eq!(&rx.decrypt(StreamId(1), blocks, m.len() * 8).unwrap(), m);
        }
        let snap_tx = mux.evict(StreamId(1)).unwrap();
        let snap_rx = rx.evict(StreamId(1)).unwrap();
        prop_assert!(!mux.contains(StreamId(1)));

        let mux2 = StreamMux::with_shards(32); // shard geometry may differ
        prop_assert_eq!(mux2.restore(&snap_tx).unwrap(), StreamId(1));
        let rx2 = StreamMux::with_shards(2);
        prop_assert_eq!(rx2.restore(&snap_rx).unwrap(), StreamId(1));
        for m in &msgs[split..] {
            got.push(mux2.encrypt(StreamId(1), m).unwrap());
        }
        prop_assert_eq!(&got, &want, "ciphertext diverged after restore");
        // And the restored decrypt side opens the post-restore traffic.
        for (m, blocks) in msgs[split..].iter().zip(&got[split..]) {
            prop_assert_eq!(&rx2.decrypt(StreamId(1), blocks, m.len() * 8).unwrap(), m);
        }
    }

    /// Snapshot bytes round-trip structurally: restore → evict yields the
    /// identical byte string (the format has no lossy fields).
    #[test]
    fn snapshot_bytes_roundtrip(
        pairs in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        id in proptest::arbitrary::any::<u64>(),
        n_msgs in 0usize..4,
        hw in proptest::arbitrary::any::<bool>(),
        seed in 1u16..,
    ) {
        let profile = if hw { Profile::HardwareFaithful } else { Profile::Streaming };
        let cfg = StreamConfig::new(Key::from_nibbles(&pairs).unwrap())
            .with_profile(profile)
            .with_seed(seed);
        let mux = StreamMux::with_shards(8);
        mux.open(StreamId(id), cfg).unwrap();
        for i in 0..n_msgs {
            mux.encrypt(StreamId(id), format!("warmup {i}").as_bytes()).unwrap();
        }
        let snap = mux.evict(StreamId(id)).unwrap();
        let mux2 = StreamMux::with_shards(1);
        mux2.restore(&snap).unwrap();
        prop_assert_eq!(mux2.evict(StreamId(id)).unwrap(), snap);
    }

    /// The rekey acceptance proptest: a stream rotated at random points —
    /// interleaved with traffic in both directions and with evict/restore
    /// cycles, under both profiles — stays bit-exact against an oracle
    /// that is nothing but an [`mhhea::EncryptSession`]/
    /// [`mhhea::DecryptSession`] pair rekeyed at the same points, and
    /// stale-epoch rotations are rejected without perturbing the stream.
    #[test]
    fn rekey_schedules_match_session_oracle(
        pairs_a in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        pairs_b in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        ops in proptest::collection::vec(
            (0u8..5, proptest::collection::vec(proptest::arbitrary::any::<u8>(), 1..32)),
            1..14,
        ),
        hw in proptest::arbitrary::any::<bool>(),
        seed in 1u16..,
    ) {
        use mhhea::session::{DecryptSession, EncryptSession};
        use mhhea::LfsrSource;

        let profile = if hw { Profile::HardwareFaithful } else { Profile::Streaming };
        let ring = KeyRing::new(
            vec![
                Key::from_nibbles(&pairs_a).unwrap(),
                Key::from_nibbles(&pairs_b).unwrap(),
            ],
            seed,
        ).unwrap();

        let mut mux = StreamMux::with_shards(4);
        mux.open(
            StreamId(1),
            StreamConfig::new(ring.key(0).clone())
                .with_profile(profile)
                .with_ring(ring.clone()),
        ).unwrap();
        let mut enc = EncryptSession::with_options(
            ring.key(0).clone(),
            LfsrSource::new(ring.seed(0)).unwrap(),
            mhhea::Algorithm::Mhhea,
            profile,
        );
        let mut dec = DecryptSession::with_options(
            ring.key(0).clone(),
            mhhea::Algorithm::Mhhea,
            profile,
        );

        let mut epoch = 0u32;
        let mut shards = 8;
        for (kind, msg) in ops {
            match kind {
                // Traffic: gateway ciphertext == oracle ciphertext, and
                // the gateway's decrypt side opens it (advancing in
                // lockstep with the oracle's).
                0 | 1 => {
                    let got = mux.encrypt(StreamId(1), &msg).unwrap();
                    let want = enc.encrypt(&msg).unwrap();
                    prop_assert_eq!(&got, &want, "ciphertext drift at epoch {}", epoch);
                    let plain = mux.decrypt(StreamId(1), &got, msg.len() * 8).unwrap();
                    prop_assert_eq!(&plain, &msg);
                    dec.decrypt(&want, msg.len() * 8).unwrap();
                }
                // Rotate, sometimes skipping epochs; a replay of the
                // now-stale epoch must bounce without touching state.
                2 | 3 => {
                    epoch += 1 + u32::from(kind == 3);
                    prop_assert_eq!(mux.rekey(StreamId(1), epoch).unwrap(), epoch);
                    enc.rekey(&ring, epoch).unwrap();
                    dec.rekey(&ring, epoch).unwrap();
                    prop_assert_eq!(
                        mux.rekey(StreamId(1), epoch),
                        Err(GatewayError::StaleEpoch { current: epoch, requested: epoch })
                    );
                }
                // Evict → restore on a different shard geometry; the
                // snapshot must carry the rotation state.
                _ => {
                    let snap = mux.evict(StreamId(1)).unwrap();
                    shards = (shards * 2) % 31 + 1;
                    mux = StreamMux::with_shards(shards);
                    prop_assert_eq!(mux.restore(&snap).unwrap(), StreamId(1));
                    prop_assert_eq!(mux.epoch(StreamId(1)).unwrap(), epoch);
                }
            }
        }
        // Final probe: one more rotation and message after the schedule.
        epoch += 1;
        mux.rekey(StreamId(1), epoch).unwrap();
        enc.rekey(&ring, epoch).unwrap();
        let probe = b"post-schedule probe";
        prop_assert_eq!(
            mux.encrypt(StreamId(1), probe).unwrap(),
            enc.encrypt(probe).unwrap()
        );
    }
}

// Differential tests: one mux driven by whole `submit_batch` calls, one by
// the same ops one at a time. Outputs and the stream states left behind
// must match exactly.

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

/// Opens `count` identical-key streams on two one-shard muxes: `lane`
/// takes whole batches, `scalar` the same ops one at a time.
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

    /// An encrypt-only `submit_batch` over up to 70 same-key streams in
    /// one shard produces the exact blocks one-at-a-time encrypts produce
    /// — across two consecutive batches, so the second one starts from
    /// mid-stream states (nonzero block indices, mid-sequence LFSR
    /// registers).
    #[test]
    fn seal_batch_lanes_match_scalar_reference(
        key in arb_key(),
        algorithm in arb_algorithm(),
        lens in proptest::collection::vec(0usize..=96, 16..=70),
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
        // The batch left every stream exactly where scalar did.
        for i in 0..lens.len() as u64 {
            prop_assert_eq!(
                lane.cursor(StreamId(i)).unwrap().block_index,
                scalar.cursor(StreamId(i)).unwrap().block_index
            );
        }
    }

    /// A mixed `submit_batch` — encrypts, decrypts, and mid-batch rekeys
    /// between two encrypts on the same stream — matches applying the same
    /// ops one at a time. A second round starts from mid-stream states
    /// (nonzero block indices, mid-sequence LFSR registers).
    #[test]
    fn submit_batch_mixed_ops_match_scalar_reference(
        key in arb_key(),
        algorithm in arb_algorithm(),
        lens in proptest::collection::vec(0usize..=96, 16..=70),
        rekey_mask in proptest::collection::vec(any::<bool>(), 16..=70),
        rounds in 1u32..=2,
        salt in any::<u8>(),
    ) {
        let n = lens.len() as u64;
        let lane = StreamMux::with_shards(1);
        let scalar = StreamMux::with_shards(1);
        let feeder = StreamMux::with_shards(1);
        for id in 0..n {
            // Same keys on every stream, distinct seeds (distinct LFSR
            // state per stream).
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
                    // Mid-batch rotation: the stream's first encrypt must
                    // run under the old epoch, the second under the new.
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
        // The batch left every stream exactly where scalar did.
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

/// One-shard `submit_batch` encrypts at 16, 63, 64 and 65 streams match
/// one-at-a-time encrypts.
#[test]
fn submit_batch_at_lane_word_boundaries() {
    let key = Key::from_nibbles(&[(0, 3), (2, 5), (1, 7)]).unwrap();
    for count in [16u64, 63, 64, 65] {
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

/// 256 MHHEA streaming streams share one key (and so one span table) with
/// distinct seeds, interleaved with HHEA and hardware-faithful streams on
/// the same key. Driven through `submit_batch` across an evict/restore
/// and a mid-batch rekey, every seal equals a standalone session oracle
/// and every open round-trips: shared tables share no mutable state.
#[test]
fn shared_span_tables_match_standalone_sessions() {
    use mhhea::session::EncryptSession;
    use mhhea::LfsrSource;

    let other = Key::from_nibbles(&[(1, 6), (0, 7)]).unwrap();
    let mode = |id: u64| match id % 10 {
        3 => (Algorithm::Hhea, Profile::Streaming),
        7 => (Algorithm::Mhhea, Profile::HardwareFaithful),
        _ => (Algorithm::Mhhea, Profile::Streaming),
    };
    let ids: Vec<u64> = (0..320).collect();
    let tx = StreamMux::with_shards(8);
    let rx = StreamMux::with_shards(8);
    let mut rings = Vec::new();
    let mut oracles = Vec::new();
    for &id in &ids {
        let (algorithm, profile) = mode(id);
        let ring = KeyRing::new(vec![key(), other.clone()], 0x2000 + id as u16).unwrap();
        let cfg = StreamConfig::new(key())
            .with_algorithm(algorithm)
            .with_profile(profile)
            .with_ring(ring.clone());
        tx.open(StreamId(id), cfg.clone()).unwrap();
        rx.open(StreamId(id), cfg).unwrap();
        oracles.push(EncryptSession::with_options(
            key(),
            LfsrSource::new(ring.seed(0)).unwrap(),
            algorithm,
            profile,
        ));
        rings.push(ring);
    }
    let rotates = |id: u64| id.is_multiple_of(3);
    for round in 0..4u8 {
        if round == 2 {
            for &id in ids.iter().filter(|id| id.is_multiple_of(5)) {
                tx.restore(&tx.evict(StreamId(id)).unwrap()).unwrap();
                rx.restore(&rx.evict(StreamId(id)).unwrap()).unwrap();
            }
        }
        // Each stream sends one message; in round 1 every third stream
        // also rotates to epoch 1 and sends a second one.
        let mut sent: Vec<(u64, Option<u32>, Vec<u8>)> = Vec::new();
        for &id in &ids {
            let len = (id as usize * 7 + round as usize * 13) % 97;
            sent.push((id, None, message(len, id as u8 ^ round)));
            if round == 1 && rotates(id) {
                sent.push((id, Some(1), Vec::new()));
                sent.push((id, None, message(len / 2 + 1, round)));
            }
        }
        let seal_ops = sent
            .iter()
            .map(|(id, rekey, msg)| match rekey {
                Some(epoch) => (StreamId(*id), StreamOp::Rekey { epoch: *epoch }),
                None => (StreamId(*id), StreamOp::Encrypt(msg.clone())),
            })
            .collect();
        let mut open_ops = Vec::new();
        for ((id, rekey, msg), out) in sent.iter().zip(tx.submit_batch(seal_ops)) {
            let oracle = &mut oracles[*id as usize];
            match rekey {
                Some(epoch) => {
                    assert_eq!(out, Ok(StreamOutput::Rekeyed { epoch: *epoch }));
                    oracle.rekey(&rings[*id as usize], *epoch).unwrap();
                    open_ops.push((StreamId(*id), StreamOp::Rekey { epoch: *epoch }));
                }
                None => {
                    let want = oracle.encrypt(msg).unwrap();
                    assert_eq!(
                        out,
                        Ok(StreamOutput::Blocks(want.clone())),
                        "stream {id} round {round}"
                    );
                    let bit_len = msg.len() * 8;
                    open_ops.push((
                        StreamId(*id),
                        StreamOp::Decrypt {
                            blocks: want,
                            bit_len,
                        },
                    ));
                }
            }
        }
        for ((id, rekey, msg), out) in sent.iter().zip(rx.submit_batch(open_ops)) {
            let want = match rekey {
                Some(epoch) => StreamOutput::Rekeyed { epoch: *epoch },
                None => StreamOutput::Plain(msg.clone()),
            };
            assert_eq!(out, Ok(want), "stream {id} round {round}");
        }
    }
}

//! Property tests for the cipher's block-level invariants.

use mhhea::block::{self, embed, extract, locations, scramble_locations};
use mhhea::session::{DecryptSession, EncryptSession};
use mhhea::source::{CoverSource, VectorSource};
use mhhea::stats::expected_span_pair;
use mhhea::{Algorithm, Key, KeyPair, Profile};
use proptest::prelude::*;

fn arb_pair() -> impl Strategy<Value = KeyPair> {
    (0u8..=7, 0u8..=7).prop_map(|(l, r)| KeyPair::new(l, r).expect("in range"))
}

fn arb_key() -> impl Strategy<Value = Key> {
    proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16)
        .prop_map(|pairs| Key::from_nibbles(&pairs).expect("in range"))
}

/// The per-bit streaming engine, transcribed from the paper's pseudocode
/// (the seed implementation) — the reference the word-level span-table
/// path must reproduce block for block.
fn per_bit_streaming(
    key: &Key,
    algorithm: Algorithm,
    vectors: &mut impl VectorSource,
    message: &[u8],
) -> Vec<u16> {
    per_bit_streaming_from(key, algorithm, vectors, bitkit::BitReader::new(message), 0)
}

/// [`per_bit_streaming`] for a message that starts at stream block
/// `first_block` (the schedule continues across messages).
fn per_bit_streaming_from(
    key: &Key,
    algorithm: Algorithm,
    vectors: &mut impl VectorSource,
    mut bits: bitkit::BitReader,
    first_block: usize,
) -> Vec<u16> {
    let mut blocks = Vec::new();
    let mut i = first_block;
    while !bits.is_eof() {
        let v = vectors.next_vector().expect("enough cover words");
        let out = embed(algorithm, key.pair(i), v, &mut bits);
        blocks.push(out.cipher);
        i += 1;
    }
    blocks
}

/// The per-bit hardware-faithful engine (16-bit alignment buffer, blind
/// full-span replacement), transcribed from the seed implementation.
fn per_bit_hw(
    key: &Key,
    algorithm: Algorithm,
    vectors: &mut impl VectorSource,
    message: &[u8],
) -> Vec<u16> {
    per_bit_hw_from(key, algorithm, vectors, bitkit::BitReader::new(message), 0)
}

/// [`per_bit_hw`] for a message that starts at stream block
/// `first_block`.
fn per_bit_hw_from(
    key: &Key,
    algorithm: Algorithm,
    vectors: &mut impl VectorSource,
    mut reader: bitkit::BitReader,
    first_block: usize,
) -> Vec<u16> {
    use bitkit::word;
    let hw_key = key.expand_cyclic(16);
    let mut blocks = Vec::new();
    let mut produced = first_block;
    let half_count = reader.remaining().div_ceil(32) * 2;
    for _ in 0..half_count {
        let mut reg: u16 = 0;
        for t in 0..16 {
            if let Some(true) = reader.next() {
                reg |= 1 << t;
            }
        }
        let mut consumed = 0usize;
        while consumed < 16 {
            let v = vectors.next_vector().expect("enough cover words");
            let pair = hw_key.pair(produced);
            let (lo, hi) = locations(algorithm, pair, v);
            let ml = word::rotl16(reg, lo as u32);
            let mut cipher = v;
            for j in lo..=hi {
                let m = word::bit16(ml, j as u32);
                let b = m ^ block::pattern_bit(algorithm, pair, (j - lo) as usize);
                cipher = word::replace16(cipher, j as u32, j as u32, b as u16);
            }
            blocks.push(cipher);
            reg = word::rotr16(ml, hi as u32 + 1);
            consumed += (hi - lo + 1) as usize;
            produced += 1;
        }
    }
    blocks
}

/// Bit lengths for one piece of a split message: the empty, one-bit and
/// seven-bit edge cases, or anything up to 160 bits.
fn arb_piece_len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1usize), Just(7usize), 0usize..=160]
}

/// Splits the bits of `source` into consecutive pieces of `pieces[k].0`
/// bits and encrypts each with its own `encrypt_bits` call on one session,
/// comparing every piece with the per-bit reference continuing the same
/// global schedule; then decrypts the pieces on one `DecryptSession` and
/// requires each piece's exact bits back. Each piece's buffer carries
/// `pieces[k].1` trailing junk bytes past its `bit_len`, so the window
/// read both overhangs masked bits and reaches the buffer's last three
/// bytes.
fn check_split_message(
    key: &Key,
    alg: Algorithm,
    profile: Profile,
    cover: &[u16],
    source: &[u8],
    pieces: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    let mut reference_vectors = CoverSource::new(cover.to_vec());
    let mut enc =
        EncryptSession::with_options(key.clone(), CoverSource::new(cover.to_vec()), alg, profile);
    let mut dec = DecryptSession::with_options(key.clone(), alg, profile);
    let mut source_bits = bitkit::BitReader::new(source);
    let mut produced = 0usize;
    for (k, &(bit_len, junk)) in pieces.iter().enumerate() {
        let mut piece = bitkit::BitWriter::new();
        piece.extend((&mut source_bits).take(bit_len));
        let plain = piece.into_bytes();
        let mut buffer = plain.clone();
        buffer.extend((0..junk).map(|j| 0xA5 ^ (31 * j + k) as u8));

        let reader = bitkit::BitReader::with_bit_len(&buffer, bit_len);
        let reference = match profile {
            Profile::Streaming => {
                per_bit_streaming_from(key, alg, &mut reference_vectors, reader, produced)
            }
            Profile::HardwareFaithful => {
                per_bit_hw_from(key, alg, &mut reference_vectors, reader, produced)
            }
        };
        let sealed = enc.encrypt_bits(&buffer, bit_len).unwrap();
        prop_assert_eq!(&sealed, &reference, "piece {} of {:?}", k, pieces);
        produced += sealed.len();
        prop_assert_eq!(enc.cursor().block_index, produced as u64);

        let opened = dec.decrypt(&sealed, bit_len).unwrap();
        prop_assert_eq!(opened, plain, "piece {} of {:?}", k, pieces);
        prop_assert_eq!(dec.cursor(), enc.cursor());
    }
    Ok(())
}

proptest! {
    #[test]
    fn scramble_stays_in_low_byte(pair in arb_pair(), v in any::<u16>()) {
        let (lo, hi) = scramble_locations(pair, v);
        prop_assert!(lo <= hi);
        prop_assert!(hi <= 7);
    }

    #[test]
    fn scramble_depends_only_on_high_byte(pair in arb_pair(), v in any::<u16>(), low in any::<u8>()) {
        let a = scramble_locations(pair, v);
        let b = scramble_locations(pair, (v & 0xFF00) | low as u16);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn embed_then_extract_roundtrips(
        pair in arb_pair(),
        v in any::<u16>(),
        bits in proptest::collection::vec(any::<bool>(), 0..12),
        alg in prop_oneof![Just(Algorithm::Hhea), Just(Algorithm::Mhhea)],
    ) {
        let mut it = bits.clone().into_iter();
        let out = embed(alg, pair, v, &mut it);
        let got = extract(alg, pair, out.cipher, out.consumed);
        prop_assert_eq!(&got[..], &bits[..out.consumed]);
    }

    #[test]
    fn embed_consumes_at_most_span(
        pair in arb_pair(),
        v in any::<u16>(),
        n_bits in 0usize..20,
    ) {
        let mut it = std::iter::repeat_n(true, n_bits);
        let out = embed(Algorithm::Mhhea, pair, v, &mut it);
        let span_width = (out.span.1 - out.span.0 + 1) as usize;
        prop_assert!(out.consumed <= span_width);
        prop_assert_eq!(out.consumed, span_width.min(n_bits));
    }

    #[test]
    fn embed_touches_only_the_span(
        pair in arb_pair(),
        v in any::<u16>(),
        bits in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let mut it = bits.into_iter();
        let out = embed(Algorithm::Mhhea, pair, v, &mut it);
        let (lo, hi) = out.span;
        for j in 0..16u32 {
            if j < lo as u32 || j > hi as u32 {
                prop_assert_eq!(
                    (out.cipher >> j) & 1,
                    (v >> j) & 1,
                    "bit {} outside span {:?} changed", j, out.span
                );
            }
        }
    }

    #[test]
    fn cipher_locations_match_vector_locations(pair in arb_pair(), v in any::<u16>()) {
        // Embedding never changes the high byte, so the receiver's span
        // computation from the cipher equals the sender's from the vector.
        let mut it = std::iter::repeat_n(false, 8);
        let out = embed(Algorithm::Mhhea, pair, v, &mut it);
        prop_assert_eq!(
            locations(Algorithm::Mhhea, pair, out.cipher),
            locations(Algorithm::Mhhea, pair, v)
        );
    }

    #[test]
    fn expected_span_within_bounds(pair in arb_pair()) {
        for alg in [Algorithm::Hhea, Algorithm::Mhhea] {
            let e = expected_span_pair(pair, alg);
            prop_assert!((1.0..=8.0).contains(&e), "{alg}: {e}");
        }
    }

    #[test]
    fn key_fingerprint_is_order_sensitive(
        pairs in proptest::collection::vec((0u8..=7, 0u8..=7), 2..=16),
    ) {
        let key = Key::from_nibbles(&pairs).unwrap();
        let mut swapped = pairs.clone();
        swapped.swap(0, 1);
        let other = Key::from_nibbles(&swapped).unwrap();
        if pairs[0] != pairs[1] {
            prop_assert_ne!(key.fingerprint(), other.fingerprint());
        } else {
            prop_assert_eq!(key.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    fn word_level_path_matches_per_bit_streaming(
        key in arb_key(),
        message in proptest::collection::vec(any::<u8>(), 0..96),
        // Worst case one bit per block: 96 bytes can need 768 vectors.
        cover in proptest::collection::vec(any::<u16>(), 1024),
        alg in prop_oneof![Just(Algorithm::Hhea), Just(Algorithm::Mhhea)],
    ) {
        let reference = per_bit_streaming(
            &key, alg, &mut CoverSource::new(cover.clone()), &message,
        );
        let mut session =
            EncryptSession::with_options(key, CoverSource::new(cover), alg, Profile::Streaming);
        let word_level = session.encrypt(&message).unwrap();
        prop_assert_eq!(word_level, reference);
    }

    #[test]
    fn word_level_path_matches_per_bit_hw(
        key in arb_key(),
        message in proptest::collection::vec(any::<u8>(), 0..48),
        cover in proptest::collection::vec(any::<u16>(), 1024),
        alg in prop_oneof![Just(Algorithm::Hhea), Just(Algorithm::Mhhea)],
    ) {
        let reference = per_bit_hw(
            &key, alg, &mut CoverSource::new(cover.clone()), &message,
        );
        let mut session = EncryptSession::with_options(
            key, CoverSource::new(cover), alg, Profile::HardwareFaithful,
        );
        let word_level = session.encrypt(&message).unwrap();
        prop_assert_eq!(word_level, reference);
    }

    #[test]
    fn split_message_matches_per_bit_streaming(
        key in arb_key(),
        source in proptest::collection::vec(any::<u8>(), 80),
        pieces in proptest::collection::vec((arb_piece_len(), 0usize..=4), 1..=4),
        // Worst case one bit per block: 4 × 160 bits need 640 vectors.
        cover in proptest::collection::vec(any::<u16>(), 1024),
        alg in prop_oneof![Just(Algorithm::Hhea), Just(Algorithm::Mhhea)],
    ) {
        check_split_message(&key, alg, Profile::Streaming, &cover, &source, &pieces)?;
    }

    #[test]
    fn split_message_matches_per_bit_hw(
        key in arb_key(),
        source in proptest::collection::vec(any::<u8>(), 80),
        pieces in proptest::collection::vec((arb_piece_len(), 0usize..=4), 1..=4),
        // Worst case 16 blocks per 16-bit half: 4 × 10 halves.
        cover in proptest::collection::vec(any::<u16>(), 1024),
        alg in prop_oneof![Just(Algorithm::Hhea), Just(Algorithm::Mhhea)],
    ) {
        check_split_message(&key, alg, Profile::HardwareFaithful, &cover, &source, &pieces)?;
    }

    #[test]
    fn hw_key_schedule_agrees_with_mod_l(
        pairs in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        i in 0usize..64,
    ) {
        let key = Key::from_nibbles(&pairs).unwrap();
        let hw = key.expand_cyclic(16);
        // When L divides 16 the schedules agree everywhere.
        if 16 % key.len() == 0 {
            prop_assert_eq!(hw.pair(i), key.pair(i));
        }
        // The first 16 indices always agree by construction.
        if i < 16 {
            prop_assert_eq!(hw.pair(i), key.pair(i));
        }
    }
}

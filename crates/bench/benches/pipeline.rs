//! Criterion: the session/pipeline layer — word-level hot path vs the
//! per-bit baseline, and chunk-parallel container v2 scaling.
//!
//! The per-bit baseline is the paper's pseudocode transcribed literally
//! (one `Iterator<Item = bool>` step per message bit, `Vec<bool>`
//! intermediates on decrypt) — exactly what the seed engines did. The
//! word-level path is what [`mhhea::session`] ships: precomputed span
//! tables and whole-span `u16` mask operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mhhea::block::{self, BlockOutcome};
use mhhea::container::{open_v2_with, seal_v2, SealV2Options};
use mhhea::pipeline::DEFAULT_CHUNK_BYTES;
use mhhea::session::EncryptSession;
use mhhea::{Algorithm, Decryptor, Encryptor, Key, LfsrSource, VectorSource};

/// The seed engine's per-bit streaming encrypt loop.
fn per_bit_encrypt(key: &Key, source: &mut impl VectorSource, message: &[u8]) -> Vec<u16> {
    let mut reader = bitkit::BitReader::new(message);
    let mut blocks = Vec::new();
    let mut i = 0usize;
    while !reader.is_eof() {
        let v = source.next_vector().expect("lfsr never exhausts");
        let BlockOutcome { cipher, .. } =
            block::embed(Algorithm::Mhhea, key.pair(i), v, &mut reader);
        blocks.push(cipher);
        i += 1;
    }
    blocks
}

/// The seed engine's per-bit streaming decrypt loop (`Vec<bool>`
/// intermediate included, as shipped).
fn per_bit_decrypt(key: &Key, blocks: &[u16], bit_len: usize) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bit_len.min(blocks.len() * 16));
    for (i, &cipher) in blocks.iter().enumerate() {
        if bits.len() >= bit_len {
            break;
        }
        bits.extend(block::extract(
            Algorithm::Mhhea,
            key.pair(i),
            cipher,
            bit_len - bits.len(),
        ));
    }
    let mut w = bitkit::BitWriter::new();
    w.extend(bits.into_iter().take(bit_len));
    w.into_bytes()
}

fn bench_word_level_vs_per_bit(c: &mut Criterion) {
    let key = mhhea_bench::report_key();
    let message = vec![0xA5u8; 4096];

    // Steady-state traffic: the source/engine outlives the messages (as a
    // session does), so construction cost is not what's measured. Both
    // paths restart the key schedule per message and share the same
    // table-leaping LfsrSource — the comparison isolates the per-bit
    // iterator loop against the span-table mask operations.
    let mut group = c.benchmark_group("pipeline_encrypt_4k");
    group.throughput(Throughput::Bytes(message.len() as u64));
    let mut per_bit_src = LfsrSource::new(0xACE1).unwrap();
    group.bench_with_input(BenchmarkId::new("MHHEA", "per-bit"), &message, |b, msg| {
        b.iter(|| per_bit_encrypt(&key, &mut per_bit_src, msg))
    });
    let mut word_enc = Encryptor::new(key.clone(), LfsrSource::new(0xACE1).unwrap());
    group.bench_with_input(
        BenchmarkId::new("MHHEA", "word-level"),
        &message,
        |b, msg| b.iter(|| word_enc.encrypt(msg).unwrap()),
    );
    group.finish();

    let blocks = {
        let mut session = EncryptSession::new(key.clone(), LfsrSource::new(0xACE1).unwrap());
        session.encrypt(&message).unwrap()
    };
    let mut group = c.benchmark_group("pipeline_decrypt_4k");
    group.throughput(Throughput::Bytes(message.len() as u64));
    group.bench_function(BenchmarkId::new("MHHEA", "per-bit"), |b| {
        b.iter(|| per_bit_decrypt(&key, &blocks, message.len() * 8))
    });
    let word_dec = Decryptor::new(key.clone());
    group.bench_function(BenchmarkId::new("MHHEA", "word-level"), |b| {
        b.iter(|| word_dec.decrypt(&blocks, message.len() * 8).unwrap())
    });
    group.finish();
}

/// Container v2 over a 512 KiB payload at two chunk sizes: 64 KiB (8
/// chunks) and the default [`DEFAULT_CHUNK_BYTES`] (32 chunks), each at 1,
/// 2 and 4 workers.
fn bench_chunk_parallel_container(c: &mut Criterion) {
    let key = mhhea_bench::report_key();
    let payload = vec![0x3Cu8; 512 * 1024];
    let mut group = c.benchmark_group("container_v2_512k");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(payload.len() as u64));
    for chunk_bytes in [64 * 1024, DEFAULT_CHUNK_BYTES] {
        for workers in [1usize, 2, 4] {
            let opts = SealV2Options {
                chunk_bytes,
                workers,
                ..Default::default()
            };
            let row = format!("{}KiB/{workers}", chunk_bytes / 1024);
            group.bench_with_input(BenchmarkId::new("seal", &row), &payload, |b, payload| {
                b.iter(|| seal_v2(&key, payload, &opts).unwrap())
            });
            let sealed = seal_v2(&key, &payload, &opts).unwrap();
            group.bench_with_input(BenchmarkId::new("open", &row), &sealed, |b, sealed| {
                b.iter(|| open_v2_with(&key, sealed, workers).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_word_level_vs_per_bit,
    bench_chunk_parallel_container
);
criterion_main!(benches);

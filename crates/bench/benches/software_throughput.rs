//! Criterion: software encrypt/decrypt throughput, all algorithm/profile
//! combinations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mhhea::{Algorithm, DecryptSession, EncryptSession, LfsrSource, Profile};

fn bench_encrypt(c: &mut Criterion) {
    let key = mhhea_bench::report_key();
    let message = vec![0xA5u8; 4096];
    let mut group = c.benchmark_group("encrypt_4k");
    group.throughput(Throughput::Bytes(message.len() as u64));
    for alg in [Algorithm::Hhea, Algorithm::Mhhea] {
        for profile in [Profile::Streaming, Profile::HardwareFaithful] {
            group.bench_with_input(
                BenchmarkId::new(alg.name(), profile.name()),
                &message,
                |b, msg| {
                    b.iter(|| {
                        let source = LfsrSource::new(0xACE1).unwrap();
                        let mut enc =
                            EncryptSession::with_options(key.clone(), source, alg, profile);
                        enc.encrypt(msg).unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_decrypt(c: &mut Criterion) {
    let key = mhhea_bench::report_key();
    let message = vec![0xA5u8; 4096];
    let mut enc = EncryptSession::new(key.clone(), LfsrSource::new(0xACE1).unwrap());
    let blocks = enc.encrypt(&message).unwrap();
    let mut group = c.benchmark_group("decrypt_4k");
    group.throughput(Throughput::Bytes(message.len() as u64));
    group.bench_function("MHHEA/streaming", |b| {
        let mut dec = DecryptSession::new(key.clone());
        b.iter(|| {
            dec.rewind();
            dec.decrypt(&blocks, message.len() * 8).unwrap()
        })
    });
    group.finish();
}

fn bench_container(c: &mut Criterion) {
    use mhhea::container::{open, seal, SealOptions};
    let key = mhhea_bench::report_key();
    let message = vec![0x3Cu8; 1024];
    c.bench_function("container_seal_open_1k", |b| {
        b.iter(|| {
            let sealed = seal(&key, &message, &SealOptions::default()).unwrap();
            open(&key, &sealed).unwrap()
        })
    });
}

criterion_group!(benches, bench_encrypt, bench_decrypt, bench_container);
criterion_main!(benches);

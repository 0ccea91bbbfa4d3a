//! Criterion: the MHNP TCP transport — loopback throughput across a
//! connections × message-size sweep, against the raw in-process
//! `submit_batch` baseline.
//!
//! The baseline is the same workload submitted straight to a
//! [`StreamMux`] (no sockets, no frames, no readiness loop); the TCP rows
//! run it through real loopback connections with pipelined clients. The
//! gap between the two is the transport overhead the acceptance
//! criterion bounds: batched server throughput at 1 KiB messages must
//! stay within 2× of raw `submit_batch` (≥ 0.5× its throughput).

use std::sync::OnceLock;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp};
use mhhea_net::client::NetClient;
use mhhea_net::frame::Hello;
use mhhea_net::server::{NetServer, ServerConfig, ServerHandle};

/// Messages each connection pipelines per iteration.
const MSGS_PER_CONN: usize = 64;

fn message_for(stream: u64, i: usize, size: usize) -> Vec<u8> {
    (0..size)
        .map(|j| {
            ((stream as usize)
                .wrapping_mul(131)
                .wrapping_add(i.wrapping_mul(31))
                .wrapping_add(j.wrapping_mul(7))
                & 0xFF) as u8
        })
        .collect()
}

fn server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| {
        NetServer::spawn(
            "127.0.0.1:0",
            ServerConfig::new([(1, mhhea_bench::report_key())]),
        )
        .expect("bind bench server")
    })
}

/// Connections × message-size sweep over real loopback sockets; each
/// connection pipelines its whole batch so the server can coalesce.
fn bench_net_sweep(c: &mut Criterion) {
    // Stream ids must be unique across the whole bench process (the
    // server is shared); partition by group.
    let mut next_stream: u64 = 1;
    for msg_size in [64usize, 1024] {
        let mut group = c.benchmark_group(format!("net_loopback_{msg_size}B"));
        group.sample_size(10);
        for conns in [1usize, 4, 16] {
            let mut clients: Vec<(u64, NetClient)> = (0..conns)
                .map(|_| {
                    let stream = next_stream;
                    next_stream += 1;
                    let mut client = NetClient::connect(server().addr()).expect("connect");
                    client
                        .open_stream(stream, Hello::new(1, (stream as u16) | 1))
                        .expect("open stream");
                    (stream, client)
                })
                .collect();
            let total = (conns * MSGS_PER_CONN * msg_size) as u64;
            group.throughput(Throughput::Bytes(total));
            group.bench_function(BenchmarkId::new("tcp_pipelined", conns), |b| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        for (stream, client) in clients.iter_mut() {
                            let stream = *stream;
                            s.spawn(move || {
                                let batch: Vec<(u64, Vec<u8>)> = (0..MSGS_PER_CONN)
                                    .map(|i| (stream, message_for(stream, i, msg_size)))
                                    .collect();
                                let sealed = client.seal_pipelined(&batch).expect("pipelined seal");
                                assert_eq!(sealed.len(), MSGS_PER_CONN);
                            });
                        }
                    })
                })
            });
            for (stream, client) in clients.iter_mut() {
                client.bye(*stream).expect("bye");
            }
        }
        group.finish();
    }
}

/// The no-transport baseline: the identical workload (streams × messages)
/// submitted directly to a `StreamMux`, one `submit_batch` of encrypts per
/// iteration.
fn bench_raw_baseline(c: &mut Criterion) {
    let key = mhhea_bench::report_key();
    for msg_size in [64usize, 1024] {
        let mut group = c.benchmark_group(format!("net_raw_baseline_{msg_size}B"));
        group.sample_size(10);
        for conns in [1usize, 4, 16] {
            let mux = StreamMux::with_shards(64);
            for stream in 0..conns as u64 {
                mux.open(
                    StreamId(stream),
                    StreamConfig::new(key.clone()).with_seed((stream as u16) | 1),
                )
                .unwrap();
            }
            let batch: Vec<(StreamId, StreamOp)> = (0..conns as u64)
                .flat_map(|stream| {
                    (0..MSGS_PER_CONN).map(move |i| {
                        let msg = message_for(stream, i, msg_size);
                        (StreamId(stream), StreamOp::Encrypt(msg))
                    })
                })
                .collect();
            let total = (conns * MSGS_PER_CONN * msg_size) as u64;
            group.throughput(Throughput::Bytes(total));
            group.bench_with_input(
                BenchmarkId::new("mux_submit_batch", conns),
                &batch,
                |b, batch| {
                    b.iter(|| {
                        let results = mux.submit_batch(batch.clone());
                        assert!(results.iter().all(Result::is_ok));
                    })
                },
            );
        }
        group.finish();
    }
}

/// Connections × reactors sweep: the same pipelined loopback workload
/// against dedicated servers running 1 vs 4 reactor threads. This is the
/// scaling criterion's measurement point — at ≥ 64 connections the
/// 4-reactor aggregate throughput should approach linear (≥ 2.5× the
/// single-reactor row on a ≥ 4-core machine; a 1-core box can only show
/// parity).
fn bench_reactor_scaling(c: &mut Criterion) {
    const MSG_SIZE: usize = 256;
    const MSGS: usize = 32;
    for reactors in [1usize, 4] {
        // A dedicated server per row: reactor threads are a server-level
        // property, and sharing one would let rows warm each other.
        let server = NetServer::spawn(
            "127.0.0.1:0",
            ServerConfig::new([(1, mhhea_bench::report_key())]).with_reactors(reactors),
        )
        .expect("bind bench server");
        let mut group = c.benchmark_group(format!("net_reactor_scaling_r{reactors}"));
        group.sample_size(10);
        for conns in [16usize, 64] {
            let mut clients: Vec<(u64, NetClient)> = (0..conns as u64)
                .map(|stream| {
                    let mut client = NetClient::connect(server.addr()).expect("connect");
                    client
                        .open_stream(stream + 1, Hello::new(1, (stream as u16) | 1))
                        .expect("open stream");
                    (stream + 1, client)
                })
                .collect();
            let total = (conns * MSGS * MSG_SIZE) as u64;
            group.throughput(Throughput::Bytes(total));
            group.bench_function(BenchmarkId::new("tcp_pipelined", conns), |b| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        for (stream, client) in clients.iter_mut() {
                            let stream = *stream;
                            s.spawn(move || {
                                let batch: Vec<(u64, Vec<u8>)> = (0..MSGS)
                                    .map(|i| (stream, message_for(stream, i, MSG_SIZE)))
                                    .collect();
                                let sealed = client.seal_pipelined(&batch).expect("pipelined seal");
                                assert_eq!(sealed.len(), MSGS);
                            });
                        }
                    })
                })
            });
            for (stream, client) in clients.iter_mut() {
                client.bye(*stream).expect("bye");
            }
        }
        group.finish();
        server.stop();
    }
}

criterion_group!(
    benches,
    bench_net_sweep,
    bench_raw_baseline,
    bench_reactor_scaling
);
criterion_main!(benches);

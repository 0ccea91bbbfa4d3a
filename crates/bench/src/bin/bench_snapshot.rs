//! Normalized perf snapshot — the tracked trajectory's data points.
//!
//! Re-times the headline bench points (container pipeline, gateway
//! batch, net loopback at 1 and 4 reactors, the MHNP-D datagram
//! exchange) in a smoke-plus regime —
//! more than CI's single-iteration smoke, far less than a full criterion
//! run — and writes one normalized JSON file per PR at the repo root
//! (`BENCH_<pr>.json`). Successive snapshots, each stamped with a
//! machine fingerprint, are the perf trajectory: comparable when the
//! fingerprint matches, explicable when it does not.
//!
//! ```text
//! cargo run --release -p mhhea_bench --bin bench_snapshot -- [out.json]
//! ```

use std::fmt::Write as _;
use std::net::TcpStream;
use std::time::Instant;

use mhhea::container::{open_v2_with, seal_v2, SealV2Options};
use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp};
use mhhea_net::client::NetClient;
use mhhea_net::dgram::{DgramClient, DgramClientConfig};
use mhhea_net::frame::Hello;
use mhhea_net::server::{NetServer, ServerConfig};

/// Seeds the numbering when the output directory holds no snapshots at
/// all (see `next_snapshot_name`) and backstops the `"pr"` stamp for
/// explicit output paths that don't follow the `BENCH_<n>.json`
/// convention. The stamp itself is derived from the resolved output
/// name (see `pr_for_output`), so a snapshot named `BENCH_9.json` says
/// `"pr": 9` no matter when this constant was last touched.
const PR: u32 = 6;
const WARMUP_ITERS: usize = 2;
const TIMED_ITERS: usize = 5;

struct Point {
    bench: &'static str,
    bytes_per_iter: u64,
    ns_median: u128,
}

impl Point {
    fn throughput_mib_s(&self) -> f64 {
        if self.ns_median == 0 {
            return 0.0;
        }
        (self.bytes_per_iter as f64 / (1 << 20) as f64) / (self.ns_median as f64 / 1e9)
    }
}

/// Times `f` (warmup, then [`TIMED_ITERS`] timed runs) and returns the
/// median wall-clock nanoseconds — median, not mean, because a single
/// scheduler hiccup must not skew a 5-sample snapshot.
fn time_median(mut f: impl FnMut()) -> u128 {
    for _ in 0..WARMUP_ITERS {
        f();
    }
    let mut samples: Vec<u128> = (0..TIMED_ITERS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

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

/// Container pipeline: seal + open a 1 MiB payload through the chunked
/// v2 format on the shared worker pool.
fn bench_container_pipeline(points: &mut Vec<Point>) {
    let key = mhhea_bench::report_key();
    let message: Vec<u8> = (0..1 << 20).map(|i| ((i * 31) & 0xFF) as u8).collect();
    let opts = SealV2Options::default();

    let mut sealed = Vec::new();
    points.push(Point {
        bench: "container_seal_v2_1MiB",
        bytes_per_iter: message.len() as u64,
        ns_median: time_median(|| {
            sealed = seal_v2(&key, &message, &opts).expect("seal_v2");
        }),
    });
    points.push(Point {
        bench: "container_open_v2_1MiB",
        bytes_per_iter: message.len() as u64,
        ns_median: time_median(|| {
            let plain = open_v2_with(&key, &sealed, 0).expect("open_v2");
            assert_eq!(plain.len(), message.len());
        }),
    });
}

/// Gateway batch: 256 streams × one 256 B encrypt per stream, one
/// `submit_batch` per iteration (the server tick's inner workload).
fn bench_gateway_batch(points: &mut Vec<Point>) {
    const STREAMS: u64 = 256;
    const MSG_SIZE: usize = 256;
    let key = mhhea_bench::report_key();
    let mux = StreamMux::with_shards(64);
    for stream in 0..STREAMS {
        mux.open(
            StreamId(stream),
            StreamConfig::new(key.clone()).with_seed((stream as u16) | 1),
        )
        .expect("open stream");
    }
    let batch: Vec<(StreamId, StreamOp)> = (0..STREAMS)
        .map(|stream| {
            let msg = message_for(stream, 0, MSG_SIZE);
            (StreamId(stream), StreamOp::Encrypt(msg))
        })
        .collect();
    points.push(Point {
        bench: "gateway_submit_batch_256x256B",
        bytes_per_iter: STREAMS * MSG_SIZE as u64,
        ns_median: time_median(|| {
            let results = mux.submit_batch(batch.clone());
            assert!(results.iter().all(Result::is_ok));
        }),
    });
}

/// Net loopback: pipelined clients against a dedicated server per
/// (reactors, conns) cell — the reactor-scaling measurement the tentpole
/// criterion reads.
fn bench_net_loopback(points: &mut Vec<Point>) {
    const MSG_SIZE: usize = 256;
    const MSGS: usize = 32;
    for reactors in [1usize, 4] {
        for conns in [16usize, 64] {
            let server = NetServer::spawn(
                "127.0.0.1:0",
                ServerConfig::new([(1, mhhea_bench::report_key())]).with_reactors(reactors),
            )
            .expect("bind bench server");
            let mut clients: Vec<(u64, NetClient)> = (0..conns as u64)
                .map(|stream| {
                    let mut client = NetClient::connect(server.addr()).expect("connect");
                    client
                        .open_stream(stream + 1, Hello::new(1, (stream as u16) | 1))
                        .expect("open stream");
                    (stream + 1, client)
                })
                .collect();
            let bench: &'static str = match (reactors, conns) {
                (1, 16) => "net_loopback_r1_c16_256B",
                (1, 64) => "net_loopback_r1_c64_256B",
                (4, 16) => "net_loopback_r4_c16_256B",
                (4, 64) => "net_loopback_r4_c64_256B",
                _ => unreachable!("fixed sweep"),
            };
            points.push(Point {
                bench,
                bytes_per_iter: (conns * MSGS * MSG_SIZE) as u64,
                ns_median: time_median(|| {
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
                    });
                }),
            });
            for (stream, client) in clients.iter_mut() {
                client.bye(*stream).expect("bye");
            }
            drop(clients);
            server.stop();
        }
    }
}

/// Datagram path: one MHNP-D seal exchange per iteration — an 8 KiB
/// message as 32 independently-keyed 256 B chunks, request and reply
/// each one UDP packet, through the replay window and the one-shot
/// chunk sessions. The chunk-addressed counterpart of `net_loopback`.
fn bench_net_dgram(points: &mut Vec<Point>) {
    const MSG_SIZE: usize = 8 << 10;
    const CHUNK_BYTES: usize = 256;
    let server = NetServer::spawn(
        "127.0.0.1:0",
        ServerConfig::new([(1, mhhea_bench::report_key())]).with_dgram(),
    )
    .expect("bind bench server");
    let mut tcp = NetClient::connect(server.addr()).expect("connect");
    let token = tcp
        .open_stream(1, Hello::new(1, 0x5EED))
        .expect("open stream");
    let mut dgram = DgramClient::connect_with(
        server.dgram_addr().expect("dgram enabled"),
        DgramClientConfig {
            chunk_bytes: CHUNK_BYTES,
            recv_timeout: std::time::Duration::from_secs(1),
            attach_attempts: 4,
        },
    )
    .expect("dgram connect");
    dgram.attach(1, token).expect("attach");
    let message = message_for(1, 0, MSG_SIZE);
    // The transport is explicitly lossy — even loopback UDP drops under
    // socket-buffer pressure — so completeness is not asserted: a lost
    // chunk is the transport's contract, not a bench failure. Losses are
    // counted and reported; a refusal would be a real protocol bug
    // (indices are never reused) and still fails loudly.
    let mut lost = 0u64;
    points.push(Point {
        bench: "net_dgram_32x256B",
        bytes_per_iter: MSG_SIZE as u64,
        ns_median: time_median(|| {
            let sealed = dgram.seal(1, &message).expect("dgram seal");
            assert!(
                sealed.rejected.is_empty(),
                "server refused chunks: {:?}",
                sealed.rejected
            );
            lost += sealed.missing.len() as u64;
        }),
    });
    if lost > 0 {
        eprintln!("note: net_dgram lost {lost} chunk(s) to the lossy transport across the run");
    }
    tcp.bye(1).expect("bye");
    server.stop();
}

/// Ephemeral onboarding: one full MHKX handshake per iteration — TCP
/// connect, both X25519 exchanges, the KDF on each side, four frames on
/// the wire — measuring what serving a keyless client costs end to end.
fn bench_net_ephemeral_handshake(points: &mut Vec<Point>) {
    let server = NetServer::spawn("127.0.0.1:0", ServerConfig::new([]).with_ephemeral_keys())
        .expect("bind bench server");
    // A fresh stream id per iteration: the dropped connection's stream
    // parks as a snapshot, which would refuse a same-id re-open.
    let mut next_stream = 1u64;
    points.push(Point {
        bench: "net_ephemeral_handshake",
        // A handshake moves no payload; the datum is its latency.
        bytes_per_iter: 0,
        ns_median: time_median(|| {
            let (client, session) =
                NetClient::connect_ephemeral(server.addr(), next_stream).expect("handshake");
            assert_ne!(session.seed, 0);
            next_stream += 1;
            drop(client);
        }),
    });
    server.stop();
}

/// Checks loopback TCP is available (sandboxed builders may deny it);
/// net points are skipped, not failed, when it is not.
fn loopback_available() -> bool {
    std::net::TcpListener::bind("127.0.0.1:0")
        .ok()
        .and_then(|l| {
            let addr = l.local_addr().ok()?;
            TcpStream::connect(addr).ok()
        })
        .is_some()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The next free `BENCH_<n>.json` in `dir`: always one past the highest
/// existing snapshot number, regardless of gaps in the sequence (a
/// deleted `BENCH_4.json` must not make the next run renumber from 5
/// when 6 and 7 already exist). Only when `dir` holds no snapshots at
/// all does the binary's own [`PR`] seed the numbering.
fn next_snapshot_name(dir: &std::path::Path) -> String {
    let newest = std::fs::read_dir(dir)
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse::<u32>()
                .ok()
        })
        .max();
    match newest {
        Some(n) => format!("BENCH_{}.json", n.saturating_add(1)),
        None => format!("BENCH_{PR}.json"),
    }
}

/// The PR number stamped into the snapshot's `"pr"` field: the `<n>` of
/// the resolved `BENCH_<n>.json` output name, so the stamp always agrees
/// with the file the trajectory tooling indexes it under. An explicit
/// output path outside the convention falls back to [`PR`].
fn pr_for_output(path: &std::path::Path) -> u32 {
    path.file_name()
        .and_then(|name| name.to_str())
        .and_then(|name| {
            name.strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()
        })
        .unwrap_or(PR)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| next_snapshot_name(std::path::Path::new(".")));

    let mut points = Vec::new();
    bench_container_pipeline(&mut points);
    bench_gateway_batch(&mut points);
    if loopback_available() {
        bench_net_loopback(&mut points);
        bench_net_dgram(&mut points);
        bench_net_ephemeral_handshake(&mut points);
    } else {
        eprintln!("loopback TCP unavailable; skipping net_loopback points");
    }

    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let pr = pr_for_output(std::path::Path::new(&out_path));
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"mhhea-bench-snapshot/1\",");
    let _ = writeln!(json, "  \"pr\": {pr},");
    let _ = writeln!(
        json,
        "  \"fingerprint\": {{ \"arch\": \"{}\", \"os\": \"{}\", \"cpus\": {} }},",
        json_escape(std::env::consts::ARCH),
        json_escape(std::env::consts::OS),
        cpus
    );
    json.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"bench\": \"{}\", \"bytes_per_iter\": {}, \"iters\": {}, \
             \"ns_median\": {}, \"throughput_mib_s\": {:.3} }}{}",
            json_escape(p.bench),
            p.bytes_per_iter,
            TIMED_ITERS,
            p.ns_median,
            p.throughput_mib_s(),
            comma
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("wrote {out_path}:");
    for p in &points {
        println!(
            "  {:<32} {:>10.3} MiB/s  ({} ns median)",
            p.bench,
            p.throughput_mib_s(),
            p.ns_median
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A scratch directory seeded with the given file names, removed on
    /// drop so test runs don't accumulate state.
    struct Scratch(PathBuf);

    impl Scratch {
        fn with_files(tag: &str, names: &[&str]) -> Scratch {
            let dir = std::env::temp_dir()
                .join(format!("mhhea-bench-snapshot-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            for name in names {
                std::fs::write(dir.join(name), b"{}").expect("seed scratch file");
            }
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn numbering_survives_gaps() {
        // BENCH_4 deleted from a 3..=7 run: next must be 8, not a
        // renumbering from the gap.
        let s = Scratch::with_files(
            "gapped",
            &[
                "BENCH_3.json",
                "BENCH_5.json",
                "BENCH_6.json",
                "BENCH_7.json",
            ],
        );
        assert_eq!(next_snapshot_name(&s.0), "BENCH_8.json");
    }

    #[test]
    fn numbering_is_max_plus_one_even_below_pr_floor() {
        // Older snapshots than this binary's PR still just advance by
        // one — the floor only applies to an empty directory.
        let s = Scratch::with_files("old", &["BENCH_2.json"]);
        assert_eq!(next_snapshot_name(&s.0), "BENCH_3.json");
    }

    #[test]
    fn empty_directory_starts_at_pr() {
        let s = Scratch::with_files("empty", &[]);
        assert_eq!(next_snapshot_name(&s.0), format!("BENCH_{PR}.json"));
    }

    #[test]
    fn pr_stamp_follows_output_name() {
        // The regression this pins: PR 9's snapshot must say "pr": 9
        // even though the binary's own constant says 6.
        assert_eq!(pr_for_output(std::path::Path::new("BENCH_9.json")), 9);
        assert_eq!(
            pr_for_output(std::path::Path::new("/some/dir/BENCH_42.json")),
            42
        );
        // Outside the convention, the constant backstops the stamp.
        assert_eq!(pr_for_output(std::path::Path::new("custom-out.json")), PR);
        assert_eq!(pr_for_output(std::path::Path::new("BENCH_X.json")), PR);
    }

    #[test]
    fn non_snapshot_files_are_ignored() {
        let s = Scratch::with_files(
            "noise",
            &["BENCH_9.json", "BENCH_X.json", "BENCH_10.txt", "README.md"],
        );
        assert_eq!(next_snapshot_name(&s.0), "BENCH_10.json");
    }
}

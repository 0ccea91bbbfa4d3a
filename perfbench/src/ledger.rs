//! The per-layer ledger: each workload's own generated inputs replayed
//! through the public functions of every layer, each call timed, with
//! the median call reported.
//!
//! Replays run after the server has stopped, one thread, so each figure
//! is the layer's own cost with nothing else on the CPU.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use mhhea::block::SpanTable;
use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
use mhhea::lanes::{open_lanes, seal_lanes, LaneOpenJob, LaneSealJob};
use mhhea::{Algorithm, DecryptSession, Key, KeyPair, KeyRing, Profile};
use mhhea_kex::{derive_session, transcript, EphemeralSecret};
use mhhea_net::crc::crc32;
use mhhea_net::dgram::{decode_datagram, ReorderWindow};
use mhhea_net::frame::{self, encode_blocks, encode_raw, flags, FrameKind};
use mhhea_net::server::ServerConfig;

use crate::gen::{message, Gen};
use crate::stats::median;
use crate::workloads::{
    bench_key, Kind, BULK_MSG, CHURN_MSG, CHURN_SEALS, DGRAM_CHUNK, FANIN_CONNS, FANIN_MSG,
    FANIN_STREAMS, KEY_ID,
};

/// A request in a replayed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    /// Seal the stream's next message.
    Seal,
    /// Open the stream's oldest sealed, not yet opened message.
    Open,
}

/// The `submit_batch` calls the server makes for one round of a
/// workload, in order, and the message size its requests carry.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Plaintext bytes per request (or datagram chunk).
    pub msg: usize,
    /// Streams the round touches.
    streams: usize,
    /// Each batch's requests, as `(stream index, request)`.
    batches: Vec<Vec<(usize, Req)>>,
}

impl Plan {
    /// The workload's round, batched the way the server batches it.
    pub fn of(kind: Kind) -> Plan {
        use Req::{Open, Seal};
        match kind {
            Kind::FanIn => {
                let read_budget = ServerConfig::new([(KEY_ID, bench_key())]).read_budget;
                let (seal, open) = request_frame_lens(FANIN_MSG);
                fanin_plan(read_budget, seal, open)
            }
            // One request is outstanding, so a tick carries one request.
            Kind::Bulk => Plan {
                msg: BULK_MSG,
                streams: 1,
                batches: vec![vec![(0, Seal)], vec![(0, Open)]],
            },
            // The datagram path serves chunk by chunk and never calls
            // `submit_batch`; for comparison, one chunk-sized request per
            // batch, sealed and then opened.
            Kind::Dgram => Plan {
                msg: DGRAM_CHUNK,
                streams: 1,
                batches: vec![vec![(0, Seal)], vec![(0, Open)]],
            },
            // A cycle's two bursts of pipelined seals on its one stream.
            Kind::Churn => Plan {
                msg: CHURN_MSG,
                streams: 1,
                batches: vec![vec![(0, Seal); CHURN_SEALS]; 2],
            },
        }
    }

    /// Requests in one round.
    pub fn ops(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Share of requests that seal.
    pub fn seal_share(&self) -> f64 {
        let seals = self
            .batches
            .iter()
            .flatten()
            .filter(|r| r.1 == Req::Seal)
            .count();
        seals as f64 / self.ops() as f64
    }

    /// Rounds that keep a replay near 2 MiB of payload, within `lo..=hi`.
    fn rounds(&self, lo: usize, hi: usize) -> usize {
        reps(self.ops() * self.msg, lo, hi)
    }
}

/// The fan-in round as reactor ticks. Each connection writes its round
/// as every stream's seal and then every stream's open, and a tick reads
/// at most `read_budget` bytes from each connection; tick `k` therefore
/// carries the frames that end inside each connection's `k`-th budget,
/// connection by connection. Both connections start their rounds
/// together and every tick reads its full budget: an upper bound on how
/// full the served ticks are.
fn fanin_plan(read_budget: usize, seal_frame: usize, open_frame: usize) -> Plan {
    let mut batches: Vec<Vec<(usize, Req)>> = Vec::new();
    for conn in 0..FANIN_CONNS {
        let seals = (0..FANIN_STREAMS).map(|s| (s, Req::Seal, seal_frame));
        let opens = (0..FANIN_STREAMS).map(|s| (s, Req::Open, open_frame));
        let mut end = 0;
        for (s, req, len) in seals.chain(opens) {
            end += len;
            let tick = end.div_ceil(read_budget) - 1;
            if batches.len() <= tick {
                batches.resize(tick + 1, Vec::new());
            }
            batches[tick].push((conn * FANIN_STREAMS + s, req));
        }
    }
    Plan {
        msg: FANIN_MSG,
        streams: FANIN_CONNS * FANIN_STREAMS,
        batches,
    }
}

/// Wire bytes of a seal request for a `msg`-byte message, and of the
/// open request carrying its ciphertext.
fn request_frame_lens(msg: usize) -> (usize, usize) {
    let plain = message(0, 1, 0, msg);
    let mut enc = mhhea::EncryptSession::with_options(
        bench_key(),
        mhhea::LfsrSource::new(1).expect("nonzero seed"),
        Algorithm::Mhhea,
        Profile::Streaming,
    );
    let sealed = encode_blocks((msg * 8) as u32, &enc.encrypt(&plain).expect("encrypt"));
    let len = |payload: &[u8]| {
        let mut b = Vec::new();
        encode_raw(&mut b, FrameKind::Data, 0, 1, 0, payload);
        b.len()
    };
    (len(&plain), len(&sealed))
}

/// Repetitions that keep a replay near 2 MiB of payload, within
/// `lo..=hi`.
fn reps(bytes_per_rep: usize, lo: usize, hi: usize) -> usize {
    ((2 << 20) / bytes_per_rep.max(1)).clamp(lo, hi)
}

/// One replayed layer figure.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// The median over repetitions.
    pub value: f64,
}

/// Replay passes. Passes interleave the layers in time, so a slow spell
/// on a shared machine lands on every layer alike instead of on
/// whichever one it coincided with.
const PASSES: usize = 5;

/// Call times (ns) by name, gathered over every pass.
#[derive(Default)]
struct Times(BTreeMap<&'static str, Vec<f64>>);

impl Times {
    fn push(&mut self, name: &'static str, ns: f64) {
        self.0.entry(name).or_default().push(ns);
    }

    fn median(&self, name: &str) -> f64 {
        median(&self.0[name])
    }

    /// Times this pass's share of `reps` calls of `f`; returns the median
    /// call so far (all passes), in nanoseconds.
    fn timed(&mut self, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
        f(); // warm
        for _ in 0..reps.div_ceil(PASSES) {
            let t = Instant::now();
            f();
            self.push(name, t.elapsed().as_nanos() as f64);
        }
        self.median(name)
    }
}

/// Opens `ids` on a fresh mux the way the server does for a `Hello`:
/// the keyring's key under a single-key ring seeded by the handshake.
///
/// The mux runs one pool job at a time, so a batch's time is its CPU
/// cost — the figure the breakdown sums — rather than whatever overlap
/// the two CPUs allowed.
fn open_mux(ids: &[u64], keys: &[Key], seeds: &[u16]) -> StreamMux {
    let mux = StreamMux::new().with_workers(1);
    for ((&id, key), &seed) in ids.iter().zip(keys).zip(seeds) {
        let ring = KeyRing::single(key.clone(), seed).expect("nonzero seed");
        mux.open(StreamId(id), StreamConfig::new(key.clone()).with_ring(ring))
            .expect("fresh stream id");
    }
    mux
}

/// The benchmark key with its pairs rotated by `k`: the same spans in a
/// different order, so cost per byte stays put while the key differs.
fn rotated_key(k: usize) -> Key {
    let mut pairs: Vec<KeyPair> = bench_key().pairs().to_vec();
    let n = pairs.len();
    pairs.rotate_left(k % n);
    Key::new(pairs).expect("a rotation of a valid key is valid")
}

/// Replays one workload's inputs through every layer. Each figure is the
/// median over all passes' calls, read after the last pass.
pub fn replay(kind: Kind, seed: u64) -> Vec<Figure> {
    let plan = Plan::of(kind);
    let mut times = Times::default();
    let mut out = Vec::new();
    for _ in 0..PASSES {
        out = replay_pass(&plan, kind, seed, &mut times);
    }
    out
}

fn replay_pass(plan: &Plan, kind: Kind, seed: u64, times: &mut Times) -> Vec<Figure> {
    let key = bench_key();
    let mut g = Gen::new(seed, 0x4C45_4400);
    let ids = g.stream_ids(plan.streams);
    let seeds: Vec<u16> = ids.iter().map(|_| g.seed16()).collect();
    let mut out = Vec::new();
    let mut fig = |name, unit, value| out.push(Figure { name, unit, value });

    // --- kernel: steady-state sessions, span-table build -------------
    let msgs: Vec<Vec<u8>> = (0..64)
        .map(|i| message(seed, ids[0], i, plan.msg))
        .collect();
    let mut enc = mhhea::EncryptSession::with_options(
        key.clone(),
        mhhea::LfsrSource::new(seeds[0]).expect("nonzero seed"),
        Algorithm::Mhhea,
        Profile::Streaming,
    );
    let sealed: Vec<Vec<u16>> = msgs
        .iter()
        .map(|m| enc.encrypt(m).expect("encrypt"))
        .collect();
    let kernel_reps = reps(plan.msg, 32, 1024);
    let mut i = 0;
    let ns = times.timed("session.encrypt", kernel_reps, || {
        black_box(enc.encrypt(&msgs[i % msgs.len()]).expect("encrypt"));
        i += 1;
    });
    fig("session.encrypt_ns_per_byte", "ns/B", ns / plan.msg as f64);
    // Decrypt needs the ciphertexts in stream order; replay them from a
    // fresh session each pass over the 64 messages.
    let mut dec = DecryptSession::with_options(key.clone(), Algorithm::Mhhea, Profile::Streaming);
    let mut j = 0;
    let ns = times.timed("session.decrypt", kernel_reps, || {
        if j % sealed.len() == 0 {
            dec.rewind();
        }
        let k = j % sealed.len();
        black_box(dec.decrypt(&sealed[k], plan.msg * 8).expect("decrypt"));
        j += 1;
    });
    fig("session.decrypt_ns_per_byte", "ns/B", ns / plan.msg as f64);
    let ns = times.timed("block.span_table_new", 64, || {
        black_box(SpanTable::new(&key, Algorithm::Mhhea));
    });
    fig("block.span_table_new_us", "us", ns / 1e3);

    // --- lanes: 64 lanes of the workload's message size --------------
    let table = SpanTable::new(&key, Algorithm::Mhhea);
    let lane_msgs: Vec<Vec<u8>> = (0..64u64).map(|i| message(seed, i, 0, plan.msg)).collect();
    let lane_seeds: Vec<u16> = (0..64).map(|_| g.seed16()).collect();
    let jobs: Vec<LaneSealJob<'_>> = lane_msgs
        .iter()
        .zip(&lane_seeds)
        .map(|(m, &state)| LaneSealJob {
            message: m,
            state,
            block_index: 0,
        })
        .collect();
    let lane_bytes = 64 * plan.msg;
    let lane_reps = reps(lane_bytes, 5, 64);
    let mut lane_out = Vec::new();
    let ns = times.timed("lanes.seal", lane_reps, || {
        lane_out = seal_lanes(&key, Algorithm::Mhhea, &table, &jobs).expect("seal lanes");
    });
    fig("lanes.seal_ns_per_byte", "ns/B", ns / lane_bytes as f64);
    let open_jobs: Vec<LaneOpenJob<'_>> = lane_out
        .iter()
        .map(|o| LaneOpenJob {
            blocks: &o.blocks,
            bit_len: plan.msg * 8,
            block_index: 0,
        })
        .collect();
    let ns = times.timed("lanes.open", lane_reps, || {
        black_box(open_lanes(&key, Algorithm::Mhhea, &table, &open_jobs).expect("open lanes"));
    });
    fig("lanes.open_ns_per_byte", "ns/B", ns / lane_bytes as f64);

    // --- codec: the request and reply frames of one seal and one open -
    let plain = &msgs[0];
    let sealed_payload = encode_blocks((plain.len() * 8) as u32, &sealed[0]);
    let parts: Vec<(FrameKind, u8, &[u8])> = {
        let (req, rep) = if kind == Kind::Dgram {
            (FrameKind::DgramData, FrameKind::DgramReply)
        } else {
            (FrameKind::Data, FrameKind::Reply)
        };
        let mut p = vec![
            (req, 0, plain.as_slice()),
            (rep, 0, sealed_payload.as_slice()),
        ];
        if plan.seal_share() < 1.0 {
            p.push((req, flags::DIR_OPEN, sealed_payload.as_slice()));
            p.push((rep, flags::DIR_OPEN, plain.as_slice()));
        }
        p
    };
    let encoded: Vec<Vec<u8>> = parts
        .iter()
        .map(|&(k, f, p)| {
            let mut b = Vec::new();
            encode_raw(&mut b, k, f, ids[0], 7, p);
            b
        })
        .collect();
    let frames = encoded.len() as f64;
    let wire: usize = encoded.iter().map(Vec::len).sum();
    let codec_reps = reps(wire, 64, 4096);
    let mut buf = Vec::with_capacity(wire);
    let ns = times.timed("frame.encode", codec_reps, || {
        buf.clear();
        for &(k, f, p) in &parts {
            encode_raw(&mut buf, k, f, ids[0], 7, p);
        }
        black_box(&buf);
    });
    fig("frame.encode_ns", "ns", ns / frames);
    let ns = times.timed("frame.decode", codec_reps, || {
        for b in &encoded {
            black_box(frame::decode(b).expect("decode"));
        }
    });
    fig("frame.decode_ns", "ns", ns / frames);
    let ns = times.timed("crc", codec_reps, || {
        for b in &encoded {
            black_box(crc32(b));
        }
    });
    fig("crc.ns_per_kib", "ns/KiB", ns / (wire as f64 / 1024.0));
    // A request and its reply per op.
    fig("frame.wire_bytes_per_op", "B", 2.0 * wire as f64 / frames);

    // --- datagram codec and replay window -----------------------------
    let chunk = plan.msg.min(mhhea_net::dgram::DGRAM_MAX_CHUNK_BYTES);
    let chunk_plain = &plain[..chunk];
    let mut chunk_enc = mhhea::EncryptSession::with_options(
        key.clone(),
        mhhea::LfsrSource::new(seeds[0]).expect("nonzero seed"),
        Algorithm::Mhhea,
        Profile::Streaming,
    );
    let chunk_sealed = encode_blocks(
        (chunk * 8) as u32,
        &chunk_enc.encrypt(chunk_plain).expect("encrypt"),
    );
    let packets: Vec<Vec<u8>> = [
        (FrameKind::DgramData, 0, chunk_plain),
        (FrameKind::DgramReply, 0, chunk_sealed.as_slice()),
        (
            FrameKind::DgramData,
            flags::DIR_OPEN,
            chunk_sealed.as_slice(),
        ),
        (FrameKind::DgramReply, flags::DIR_OPEN, chunk_plain),
    ]
    .iter()
    .map(|&(k, f, p)| {
        let mut b = Vec::new();
        encode_raw(&mut b, k, f, ids[0], 3, p);
        b
    })
    .collect();
    let ns = times.timed("dgram.decode", 1024, || {
        for p in &packets {
            black_box(decode_datagram(p).expect("decode datagram"));
        }
    });
    fig("dgram.decode_ns", "ns", ns / packets.len() as f64);
    const INSERTS: u32 = 4096;
    let mut window = ReorderWindow::new(1024);
    let mut next = 0u32;
    let ns = times.timed("dgram.window_insert", 64, || {
        for _ in 0..INSERTS {
            black_box(window.insert(next));
            next = next.wrapping_add(1);
        }
    });
    fig("dgram.window_insert_ns", "ns", ns / f64::from(INSERTS));

    // --- gateway: submit_batch over the workload's round ----------------
    let same_keys = vec![key.clone(); plan.streams];
    let rotated: Vec<Key> = (0..plan.streams).map(rotated_key).collect();
    let rounds = plan.rounds(9, 256).div_ceil(PASSES);
    let submit_same = submit_us_per_op(
        times,
        "gateway.submit",
        plan,
        &ids,
        &same_keys,
        &seeds,
        seed,
        rounds,
    );
    let submit_scalar = submit_us_per_op(
        times,
        "gateway.submit_scalar",
        plan,
        &ids,
        &rotated,
        &seeds,
        seed,
        rounds,
    );
    fig("gateway.submit_us_per_op", "us", submit_same);
    fig("gateway.submit_scalar_us_per_op", "us", submit_scalar);
    fig("gateway.lane_speedup", "x", submit_scalar / submit_same);

    let open_n = plan.streams.clamp(32, 256);
    let mut og = Gen::new(seed, 0x4F50_4E00);
    let open_ids = og.stream_ids(open_n);
    let ns = {
        let mux = StreamMux::new();
        for &id in &open_ids {
            let ring = KeyRing::single(key.clone(), og.seed16()).expect("nonzero seed");
            let cfg = StreamConfig::new(key.clone()).with_ring(ring);
            let t = Instant::now();
            mux.open(StreamId(id), cfg).expect("fresh stream id");
            times.push("gateway.open_stream", t.elapsed().as_nanos() as f64);
        }
        times.median("gateway.open_stream")
    };
    fig("gateway.open_stream_us", "us", ns / 1e3);

    // --- chunk ops ----------------------------------------------------
    let mux = open_mux(&ids[..1], &same_keys[..1], &seeds[..1]);
    let id = StreamId(ids[0]);
    let mut index = 0u32;
    let mut chunks = Vec::new();
    let ns = times.timed("gateway.seal_chunk", 64, || {
        let blocks = mux
            .seal_chunk(id, 0, index, chunk_plain)
            .expect("seal chunk");
        if chunks.len() < 64 {
            chunks.push(blocks);
        }
        index += 1;
    });
    fig("gateway.seal_chunk_us", "us", ns / 1e3);
    let mut k = 0;
    let ns = times.timed("gateway.open_chunk", 64, || {
        let c = &chunks[k % chunks.len()];
        black_box(mux.open_chunk(id, 0, c, chunk * 8).expect("open chunk"));
        k += 1;
    });
    fig("gateway.open_chunk_us", "us", ns / 1e3);

    // --- snapshots ----------------------------------------------------
    for m in msgs.iter().take(4) {
        mux.encrypt(id, m).expect("encrypt");
    }
    let mut snap = mux.evict(id).expect("evict");
    mux.restore(&snap).expect("restore");
    for _ in 0..64usize.div_ceil(PASSES) {
        let t = Instant::now();
        snap = mux.evict(id).expect("evict");
        times.push("gateway.evict", t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        mux.restore(&snap).expect("restore");
        times.push("gateway.restore", t.elapsed().as_nanos() as f64);
    }
    fig(
        "gateway.evict_us",
        "us",
        times.median("gateway.evict") / 1e3,
    );
    fig(
        "gateway.restore_us",
        "us",
        times.median("gateway.restore") / 1e3,
    );
    fig("gateway.snapshot_bytes", "B", snap.len() as f64);

    // --- key exchange -------------------------------------------------
    let server_secret = EphemeralSecret::generate();
    let server_pub = server_secret.public_key();
    let mut client_pub = [0u8; 32];
    let ns = times.timed("kex.keygen", 32, || {
        client_pub = EphemeralSecret::generate().public_key();
    });
    fig("kex.keygen_us", "us", ns / 1e3);
    let mut shared = None;
    let ns = times.timed("kex.dh", 32, || {
        shared = Some(
            server_secret
                .diffie_hellman(&client_pub)
                .expect("valid point"),
        );
    });
    fig("kex.dh_us", "us", ns / 1e3);
    let shared = shared.expect("dh ran");
    let ns = times.timed("kex.derive", 256, || {
        let t = transcript(ids[0], 0, 0, 0, &client_pub, &server_pub);
        black_box(derive_session(&shared, &t));
    });
    fig("kex.derive_us", "us", ns / 1e3);

    out
}

/// Median `submit_batch` time per op over rounds of `plan`, streams
/// keyed by `keys`.
#[allow(clippy::too_many_arguments)]
fn submit_us_per_op(
    times: &mut Times,
    name: &'static str,
    plan: &Plan,
    ids: &[u64],
    keys: &[Key],
    seeds: &[u16],
    seed: u64,
    rounds: usize,
) -> f64 {
    let mux = open_mux(ids, keys, seeds);
    let mut streams = vec![ReplayStream::default(); ids.len()];
    // Prime with a round of seals only, so every open has a ciphertext.
    replay_round(&mux, plan, ids, seed, &mut streams, true);
    for _ in 0..rounds {
        let ns = replay_round(&mux, plan, ids, seed, &mut streams, false);
        times.push(name, ns / plan.ops() as f64);
    }
    times.median(name) / 1e3
}

/// A replayed stream's next message and its sealed, unopened messages.
#[derive(Debug, Clone, Default)]
struct ReplayStream {
    next: u64,
    sealed: VecDeque<Vec<u16>>,
}

/// Submits one round of `plan` batch by batch; returns the summed
/// `submit_batch` time (ns). Building the batches stays outside it.
fn replay_round(
    mux: &StreamMux,
    plan: &Plan,
    ids: &[u64],
    seed: u64,
    streams: &mut [ReplayStream],
    seals_only: bool,
) -> f64 {
    let mut ns = 0.0;
    for reqs in &plan.batches {
        let reqs: Vec<(usize, Req)> = reqs
            .iter()
            .copied()
            .filter(|r| !seals_only || r.1 == Req::Seal)
            .collect();
        let batch: Vec<(StreamId, StreamOp)> = reqs
            .iter()
            .map(|&(s, req)| {
                let st = &mut streams[s];
                let op = match req {
                    Req::Seal => {
                        st.next += 1;
                        StreamOp::Encrypt(message(seed, ids[s], st.next - 1, plan.msg))
                    }
                    Req::Open => StreamOp::Decrypt {
                        blocks: st.sealed.pop_front().expect("every open follows its seal"),
                        bit_len: plan.msg * 8,
                    },
                };
                (StreamId(ids[s]), op)
            })
            .collect();
        let t = Instant::now();
        let results = mux.submit_batch(batch);
        ns += t.elapsed().as_nanos() as f64;
        for (&(s, _), r) in reqs.iter().zip(results) {
            match r {
                Ok(StreamOutput::Blocks(b)) => streams[s].sealed.push_back(b),
                Ok(_) => {}
                Err(e) => panic!("replayed batch failed: {e}"),
            }
        }
    }
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanin_ticks_follow_the_read_budget() {
        // A budget that holds everything: one tick, both connections.
        let one = fanin_plan(usize::MAX / 2, 300, 1200);
        assert_eq!(one.batches.len(), 1);
        assert_eq!(one.ops(), 2 * FANIN_CONNS * FANIN_STREAMS);
        assert_eq!(one.seal_share(), 0.5);
        // A budget of ten seal frames: the first tick carries ten seals
        // per connection, connection 0's first.
        let p = fanin_plan(3000, 300, 1200);
        let first = &p.batches[0];
        assert_eq!(first.len(), 10 * FANIN_CONNS);
        assert!(first.iter().all(|r| r.1 == Req::Seal));
        assert_eq!(first[0].0, 0);
        assert_eq!(first[10].0, FANIN_STREAMS);
        // A frame straddling a budget boundary lands in the next tick.
        let p = fanin_plan(1000, 300, 1200);
        assert_eq!(p.batches[0].len(), 3 * FANIN_CONNS);
        assert_eq!(p.ops(), one.ops());
    }

    #[test]
    fn the_served_fanin_tick_is_lane_sized() {
        // With the default budget the first tick holds at least 16 seals
        // per shard for the server's 64 shards.
        let p = Plan::of(Kind::FanIn);
        let seals = p.batches[0].iter().filter(|r| r.1 == Req::Seal).count();
        assert!(seals >= 16 * 64, "first tick holds {seals} seals");
    }
}

//! The four served workloads: set-up, closed-loop timed phase, and the
//! correctness checks that run outside every timed window.
//!
//! Each workload serves real MHNP traffic from an in-process `NetServer`
//! over loopback. A timed window covers one unit of work; verification
//! and input generation happen between windows, and throughput divides
//! by the summed windows, so neither shows in any metric.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use mhhea::pipeline::chunk_seed;
use mhhea::{Algorithm, EncryptSession, Key, LfsrSource, Profile};
use mhhea_net::client::NetClient;
use mhhea_net::dgram::{DgramClient, DgramClientConfig};
use mhhea_net::frame::{self, decode_blocks, encode_raw, flags, Frame, FrameKind, Hello};
use mhhea_net::server::{NetServer, ServerConfig, ServerHandle, ServerStats};

use crate::gen::{message, Gen};
use crate::meters::{harness, window};
use crate::trace::Spans;

/// The keyring id every pre-shared-key stream names.
pub const KEY_ID: u32 = 1;
/// Seals checked against the local oracle on each sampled stream.
const ORACLE_SEALS: u64 = 256;
/// How long a client waits on the server before calling it a failure.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The pre-shared key: eight pairs of mixed span widths. It is fixed so
/// that every seed costs the same per byte; the seed varies everything
/// else.
pub fn bench_key() -> Key {
    Key::from_nibbles(&[
        (0, 3),
        (2, 5),
        (7, 1),
        (4, 4),
        (6, 0),
        (3, 3),
        (5, 2),
        (1, 6),
    ])
    .expect("the benchmark key is valid")
}

/// The server a workload runs against: default tuning, one pre-shared
/// key and MHKX onboarding; the datagram path (a polling driver thread)
/// only where the workload sends datagrams.
fn spawn_server(kind: Kind) -> Result<ServerHandle, String> {
    let mut cfg = ServerConfig::new([(KEY_ID, bench_key())]).with_ephemeral_keys();
    if kind == Kind::Dgram {
        cfg = cfg.with_dgram();
    }
    NetServer::spawn("127.0.0.1:0", cfg).map_err(|e| format!("spawn server: {e}"))
}

/// Stable 64-bit digest of a sealed message, for deferred oracle checks.
fn digest(bit_len: u32, blocks: &[u16]) -> u64 {
    let mut h = DefaultHasher::new();
    bit_len.hash(&mut h);
    blocks.hash(&mut h);
    h.finish()
}

/// A fresh streaming MHHEA encrypt session: what the server runs for a
/// stream keyed with `key` and seeded with `seed`.
fn oracle(key: &Key, seed: u16) -> Result<EncryptSession<LfsrSource>, String> {
    let source = LfsrSource::new(seed).map_err(|e| format!("oracle seed: {e}"))?;
    Ok(EncryptSession::with_options(
        key.clone(),
        source,
        Algorithm::Mhhea,
        Profile::Streaming,
    ))
}

/// Seals recorded on one sampled stream, checked after the timed phase.
#[derive(Debug)]
struct SealLog {
    stream: u64,
    seed: u16,
    msg_len: usize,
    /// `(message index, digest)` of the stream's first seals, in order.
    seals: Vec<(u64, u64)>,
}

impl SealLog {
    fn new(stream: u64, seed: u16, msg_len: usize) -> SealLog {
        SealLog {
            stream,
            seed,
            msg_len,
            seals: Vec::new(),
        }
    }

    fn record(&mut self, index: u64, bit_len: u32, blocks: &[u16]) {
        if (self.seals.len() as u64) < ORACLE_SEALS {
            self.seals.push((index, digest(bit_len, blocks)));
        }
    }

    /// Replays the stream's messages through a local session and
    /// compares every recorded seal bit-exactly. Returns the count.
    fn verify(&self, seed: u64) -> Result<u64, String> {
        let key = bench_key();
        let mut enc = oracle(&key, self.seed)?;
        for (expect_index, &(index, want)) in self.seals.iter().enumerate() {
            if index != expect_index as u64 {
                return Err(format!("stream {}: seal log has a gap", self.stream));
            }
            let msg = message(seed, self.stream, index, self.msg_len);
            let blocks = enc.encrypt(&msg).map_err(|e| format!("oracle: {e}"))?;
            if digest((msg.len() * 8) as u32, &blocks) != want {
                return Err(format!(
                    "stream {}: seal {index} differs from the local session",
                    self.stream
                ));
            }
        }
        Ok(self.seals.len() as u64)
    }
}

/// What one timed phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Unit-of-work latencies (µs).
    pub unit_us: Vec<f64>,
    /// Wall time of the timed windows (s): summed over windows run one
    /// after another, averaged over client threads run side by side.
    pub busy_s: f64,
    /// Plaintext bytes of completed requests.
    pub payload_bytes: u64,
    /// Requests completed — the per-op basis of the ledger.
    pub ops: u64,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed, refused or missing.
    pub failed: u64,
    /// MHKX handshake latencies (µs), where the phase ran any.
    pub handshake_us: Vec<f64>,
    /// Reconnect + resume latencies (µs), where the phase ran any.
    pub resume_us: Vec<f64>,
    /// Time from dropping a connection until the server had parked its
    /// stream (µs), where the phase dropped any.
    pub park_us: Vec<f64>,
    /// CPU seconds client threads spent outside their timed windows,
    /// while allocation counting was on.
    pub harness_cpu_s: f64,
    /// Datagram chunks that never came back.
    pub dgram_missing: u64,
    /// Spans recorded when the phase ran traced.
    pub spans: Vec<Spans>,
    /// `(wall s, payload bytes)` of the units that ended in each
    /// [`SLICE_S`]-wide slice of the phase.
    slices: Vec<(f64, u64)>,
}

/// Width of the slices throughput is reported over (s).
const SLICE_S: f64 = 1.0;

impl Phase {
    /// Adds another phase's work to this one. Slices add up index by
    /// index: slice `k` pools the `k`-th second of every phase, whether
    /// the phases ran side by side (client threads) or one after another
    /// (the parts of a run).
    pub fn merge(&mut self, other: Phase) {
        self.unit_us.extend(other.unit_us);
        self.busy_s += other.busy_s;
        self.payload_bytes += other.payload_bytes;
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.handshake_us.extend(other.handshake_us);
        self.resume_us.extend(other.resume_us);
        self.park_us.extend(other.park_us);
        self.harness_cpu_s += other.harness_cpu_s;
        self.dgram_missing += other.dgram_missing;
        self.spans.extend(other.spans);
        if self.slices.len() < other.slices.len() {
            self.slices.resize(other.slices.len(), (0.0, 0));
        }
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }

    /// Records one unit of work that took `us` and moved `bytes` of
    /// payload, ending now, in a phase that began at `start`.
    fn add_unit(&mut self, start: Instant, us: f64, bytes: u64) {
        self.unit_us.push(us);
        self.busy_s += us / 1e6;
        self.payload_bytes += bytes;
        let k = (start.elapsed().as_secs_f64() / SLICE_S) as usize;
        if self.slices.len() <= k {
            self.slices.resize(k + 1, (0.0, 0));
        }
        self.slices[k].0 += us / 1e6;
        self.slices[k].1 += bytes;
    }

    /// Median payload rate (MiB/s) over the phase's slices, each slice
    /// counting the units that ended in it. A median over one-second
    /// slices rides out a second or two of interference that would move
    /// a whole-phase mean. Slices with less than half a slice of timed
    /// work (the ragged last one) are left out.
    pub fn median_mib_per_s(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.0 >= SLICE_S / 2.0)
            .map(|s| s.1 as f64 / (1 << 20) as f64 / s.0)
            .collect();
        (!rates.is_empty()).then(|| crate::stats::median(&rates))
    }
}

/// Which workload runs, and its unit of work.
///
/// Where a unit could be a seal or an open alone, it is the two together:
/// with seals and opens in equal numbers, the median fell in the gap
/// between the two kinds' latencies and moved by 14% between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 2 connections × 1024 streams, pipelined 256 B seal + open rounds;
    /// the unit is one connection's round.
    FanIn,
    /// 1 connection × 1 stream, 16 KiB seal then open, one outstanding;
    /// the unit is one seal and its open. With a second connection the
    /// two requests met in the server's batches in whatever phase the
    /// scheduler gave them: over six seeds its p90 ranged 14% against 3%
    /// with one.
    Bulk,
    /// 1 stream, 8 KiB messages as 32 × 256 B datagram chunks; the unit
    /// is one message's 32 chunks sealed and opened back. Not in
    /// `BENCHMARK.json`: its speed wandered by a fifth between runs.
    Dgram,
    /// MHKX connect, seal, park, resume, seal, bye — one at a time.
    Churn,
}

impl Kind {
    /// Parses a workload name as `BENCHMARK.json` lists it.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "tcp_fanin_256B" => Some(Kind::FanIn),
            "tcp_bulk_16KiB" => Some(Kind::Bulk),
            "dgram_chunks_256B" => Some(Kind::Dgram),
            "tcp_churn_mhkx" => Some(Kind::Churn),
            _ => None,
        }
    }

    /// Set-ups per run; the median is reported. A fan-in set-up opens
    /// 2048 streams (~0.2 s); the others take about a millisecond, so
    /// many more fit and steady their median.
    pub fn setups(self) -> usize {
        match self {
            Kind::FanIn => 12,
            _ => 100,
        }
    }
}

/// A served workload between set-up and tear-down.
pub struct Served {
    seed: u64,
    server: ServerHandle,
    clients: Clients,
}

enum Clients {
    FanIn(Vec<FanConn>),
    Bulk(Box<BulkConn>),
    Dgram(Box<DgramConn>),
    Churn(ChurnState),
}

impl Served {
    /// Spawns the server and opens (and attaches) every stream the
    /// workload starts with. Returns the workload and the set-up time.
    pub fn setup(kind: Kind, seed: u64) -> Result<(Served, f64), String> {
        let start = Instant::now();
        let server = spawn_server(kind)?;
        let addr = server.addr();
        let clients = match kind {
            Kind::FanIn => Clients::FanIn(
                (0..FANIN_CONNS)
                    .map(|c| FanConn::open(addr, seed, c))
                    .collect::<Result<_, _>>()?,
            ),
            Kind::Bulk => Clients::Bulk(Box::new(BulkConn::open(addr, seed)?)),
            Kind::Dgram => Clients::Dgram(Box::new(DgramConn::open(&server, seed)?)),
            Kind::Churn => Clients::Churn(ChurnState::open(addr, seed)?),
        };
        let setup_s = start.elapsed().as_secs_f64();
        Ok((
            Served {
                seed,
                server,
                clients,
            },
            setup_s,
        ))
    }

    /// Shares the run's churn cycle budget with `parts - 1` other
    /// set-ups that serve the same run.
    pub fn share_budget(&mut self, parts: usize) {
        if let Clients::Churn(state) = &mut self.clients {
            state.max_cycles = CHURN_MAX_CYCLES / parts.max(1);
        }
    }

    /// The server's counters.
    pub fn stats(&self) -> &ServerStats {
        self.server.stats()
    }

    /// Runs the closed loop for `seconds`, recording spans when `traced`.
    pub fn run(&mut self, seconds: f64, traced: bool) -> Result<Phase, String> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let seed = self.seed;
        let server = &self.server;
        match &mut self.clients {
            Clients::FanIn(conns) => threaded(conns, |c| c.run(seed, start, deadline, traced)),
            Clients::Bulk(conn) => conn.run(seed, start, deadline, traced),
            Clients::Dgram(conn) => conn.run(seed, start, deadline, traced),
            Clients::Churn(state) => state.run(server, seed, start, deadline, traced),
        }
    }

    /// Untimed rounds that let caches fill and lazy set-up finish.
    pub fn warm_up(&mut self) -> Result<(), String> {
        let seed = self.seed;
        let server = &self.server;
        match &mut self.clients {
            Clients::FanIn(conns) => {
                for c in conns.iter_mut() {
                    for _ in 0..2 {
                        c.round(seed, None)?;
                    }
                }
            }
            Clients::Bulk(conn) => {
                for _ in 0..4 {
                    conn.request_pair(seed, None)?;
                }
            }
            Clients::Dgram(conn) => {
                for _ in 0..4 {
                    conn.exchange(seed, Instant::now(), None)?;
                }
            }
            Clients::Churn(state) => {
                for _ in 0..8 {
                    state.cycle(server, seed, Instant::now(), None)?;
                }
            }
        }
        Ok(())
    }

    /// Checks every deferred seal against the local oracle; returns how
    /// many seals were checked.
    pub fn verify(&self) -> Result<u64, String> {
        let logs: Vec<&SealLog> = match &self.clients {
            Clients::FanIn(conns) => conns.iter().flat_map(|c| c.logs.iter()).collect(),
            Clients::Bulk(conn) => vec![&conn.log],
            // Datagram and churn seals are checked in line, between
            // windows: their oracles are one-shot.
            Clients::Dgram(conn) => return Ok(conn.checked),
            Clients::Churn(state) => return Ok(state.checked),
        };
        logs.iter().map(|l| l.verify(self.seed)).sum()
    }

    /// MHKX handshakes and resumes against the live server, for the
    /// workloads whose timed phase runs none.
    pub fn probe_control(&mut self, cycles: usize) -> Result<Phase, String> {
        let mut state = ChurnState::new(self.seed ^ 0x5052_4F42_4500_0000);
        let mut phase = Phase::default();
        for _ in 0..cycles {
            phase.merge(state.cycle(&self.server, self.seed, Instant::now(), None)?);
        }
        Ok(phase)
    }
}

/// Runs `f` on every connection, one [`harness`] client thread each, and
/// merges the phases.
fn threaded<C: Send>(
    conns: &mut [C],
    f: impl Fn(&mut C) -> Result<Phase, String> + Sync,
) -> Result<Phase, String> {
    let results: Vec<Result<Phase, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| {
                s.spawn(|| {
                    let (phase, outside_cpu) = harness(|| f(c));
                    phase.map(|mut p| {
                        p.harness_cpu_s += outside_cpu;
                        p
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut phase = Phase::default();
    for r in results {
        phase.merge(r?);
    }
    // The threads' windows overlapped: wall time is their mean.
    let n = conns.len().max(1) as f64;
    phase.busy_s /= n;
    for s in &mut phase.slices {
        s.0 /= n;
    }
    Ok(phase)
}

/// Wraps `f` in a span when a trace is being recorded.
fn span<R>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

// ---------------------------------------------------------------------
// tcp_fanin_256B
// ---------------------------------------------------------------------

pub const FANIN_CONNS: usize = 2;
pub const FANIN_STREAMS: usize = 1024;
pub const FANIN_MSG: usize = 256;
/// Every 64th stream's seals go to the oracle.
const FANIN_SAMPLE_EVERY: usize = 64;

/// One pipelined connection built on the public frame codec:
/// `NetClient` pipelines seals only, and a round here interleaves seals
/// with opens.
struct FanConn {
    sock: TcpStream,
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` already decoded.
    rpos: usize,
    wbuf: Vec<u8>,
    streams: Vec<u64>,
    /// Each stream's last seal reply payload — the next open's request.
    prev: Vec<Vec<u8>>,
    /// Each stream's open reply of the current round.
    opened: Vec<Vec<u8>>,
    msgs: Vec<Vec<u8>>,
    /// Sequence number of every stream's next frame (they move together).
    seq: u64,
    /// Message index of the next round.
    round: u64,
    logs: Vec<SealLog>,
}

impl FanConn {
    fn open(addr: SocketAddr, seed: u64, conn: usize) -> Result<FanConn, String> {
        let mut g = Gen::new(seed, 0x4641_4E00 + conn as u64);
        let streams = g.stream_ids(FANIN_STREAMS);
        let seeds: Vec<u16> = streams.iter().map(|_| g.seed16()).collect();
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        sock.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let logs = (0..FANIN_STREAMS)
            .step_by(FANIN_SAMPLE_EVERY)
            .map(|i| SealLog::new(streams[i], seeds[i], FANIN_MSG))
            .collect();
        let mut c = FanConn {
            sock,
            rbuf: Vec::with_capacity(4 << 20),
            rpos: 0,
            wbuf: Vec::with_capacity(2 << 20),
            prev: vec![Vec::new(); FANIN_STREAMS],
            opened: vec![Vec::new(); FANIN_STREAMS],
            msgs: vec![vec![0; FANIN_MSG]; FANIN_STREAMS],
            streams,
            seq: 0,
            round: 0,
            logs,
        };
        // Pipelined handshakes: every Hello first, then every ack.
        for (&id, &s) in c.streams.iter().zip(&seeds) {
            Frame::new(FrameKind::Hello, id, 0)
                .with_payload(Hello::new(KEY_ID, s).encode())
                .encode_into(&mut c.wbuf);
        }
        c.sock
            .write_all(&c.wbuf)
            .map_err(|e| format!("send hellos: {e}"))?;
        for i in 0..FANIN_STREAMS {
            let f = c.next_frame()?;
            if f.kind != FrameKind::HelloAck || f.stream != c.streams[i] {
                return Err(format!("hello {i}: unexpected {:?} reply", f.kind));
            }
        }
        Ok(c)
    }

    /// Reads one frame, refilling the buffer from the socket.
    fn next_frame(&mut self) -> Result<Frame, String> {
        loop {
            let unread = &self.rbuf[self.rpos..];
            if let Some((f, used)) = frame::decode(unread).map_err(|e| e.to_string())? {
                self.rpos += used;
                if f.kind == FrameKind::Error {
                    let (code, detail) = frame::decode_error(&f.payload);
                    return Err(format!(
                        "server refused stream {}: {code:?} {detail}",
                        f.stream
                    ));
                }
                return Ok(f);
            }
            self.fill()?;
        }
    }

    /// Reads more bytes, first dropping the frames already consumed (once
    /// per read, not once per frame: a round's replies span megabytes).
    fn fill(&mut self) -> Result<(), String> {
        self.rbuf.drain(..self.rpos);
        self.rpos = 0;
        let start = self.rbuf.len();
        self.rbuf.resize(start + (256 << 10), 0);
        let n = loop {
            match self.sock.read(&mut self.rbuf[start..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
        };
        self.rbuf.truncate(start + n);
        Ok(())
    }

    /// One round: every stream seals a fresh message, then every stream
    /// opens its previous round's ciphertext, all pipelined. Seals go
    /// first so that a reactor tick reads many same-key first-op seals,
    /// which the gateway's lane prepass needs. Returns the round's
    /// latency (µs); verification follows outside the window.
    fn round(&mut self, seed: u64, spans: Option<&mut Spans>) -> Result<f64, String> {
        for (i, m) in self.msgs.iter_mut().enumerate() {
            Gen::message(seed, self.streams[i], self.round).fill(m);
        }
        let opens = self.round > 0;
        let elapsed = window(|| self.exchange(opens, spans))?;
        self.seq += if opens { 2 } else { 1 };

        // Outside the window: opens must return last round's plaintext,
        // sampled seals are logged for the oracle.
        if opens {
            for i in 0..FANIN_STREAMS {
                Gen::message(seed, self.streams[i], self.round - 1).fill(&mut self.msgs[i]);
                if self.opened[i] != self.msgs[i] {
                    return Err(format!(
                        "stream {}: open returned wrong bytes",
                        self.streams[i]
                    ));
                }
            }
        }
        for (k, log) in self.logs.iter_mut().enumerate() {
            let (bit_len, blocks) =
                decode_blocks(&self.prev[k * FANIN_SAMPLE_EVERY]).map_err(|e| e.to_string())?;
            log.record(self.round, bit_len, &blocks);
        }
        self.round += 1;
        Ok(elapsed)
    }

    /// The timed part of a round: write every request, read every reply.
    fn exchange(&mut self, opens: bool, mut spans: Option<&mut Spans>) -> Result<f64, String> {
        let start = Instant::now();
        let unit = spans.as_mut().map(|t| t.enter("unit"));
        span(&mut spans, "client.encode", || {
            self.wbuf.clear();
            for (&id, m) in self.streams.iter().zip(&self.msgs) {
                encode_raw(&mut self.wbuf, FrameKind::Data, 0, id, self.seq, m);
            }
            if opens {
                let seq = self.seq + 1;
                for (&id, c) in self.streams.iter().zip(&self.prev) {
                    encode_raw(&mut self.wbuf, FrameKind::Data, flags::DIR_OPEN, id, seq, c);
                }
            }
        });
        span(&mut spans, "client.write", || {
            self.sock.write_all(&self.wbuf)
        })
        .map_err(|e| format!("send round: {e}"))?;
        let read = span(&mut spans, "client.read", || -> Result<(), String> {
            for i in 0..FANIN_STREAMS {
                let f = self.next_frame()?;
                self.expect(&f, i, self.seq)?;
                self.prev[i] = f.payload;
            }
            if opens {
                for i in 0..FANIN_STREAMS {
                    let f = self.next_frame()?;
                    self.expect(&f, i, self.seq + 1)?;
                    self.opened[i] = f.payload;
                }
            }
            Ok(())
        });
        if let (Some(t), Some(id)) = (spans.as_mut(), unit) {
            t.exit(id);
        }
        read?;
        Ok(start.elapsed().as_secs_f64() * 1e6)
    }

    fn expect(&self, f: &Frame, i: usize, seq: u64) -> Result<(), String> {
        if f.kind != FrameKind::Reply || f.stream != self.streams[i] || f.seq != seq {
            return Err(format!(
                "wanted reply for stream {} seq {seq}, got {:?} for {} seq {}",
                self.streams[i], f.kind, f.stream, f.seq
            ));
        }
        Ok(())
    }

    fn run(
        &mut self,
        seed: u64,
        start: Instant,
        deadline: Instant,
        traced: bool,
    ) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let mut spans = traced.then(Spans::new);
        while Instant::now() < deadline {
            let us = self.round(seed, spans.as_mut())?;
            let ops = 2 * FANIN_STREAMS as u64;
            phase.add_unit(start, us, ops * FANIN_MSG as u64);
            phase.ops += ops;
            phase.attempted += ops;
        }
        phase.spans.extend(spans);
        Ok(phase)
    }
}

// ---------------------------------------------------------------------
// tcp_bulk_16KiB
// ---------------------------------------------------------------------

pub const BULK_MSG: usize = 16 << 10;

struct BulkConn {
    client: NetClient,
    id: u64,
    index: u64,
    log: SealLog,
}

impl BulkConn {
    fn open(addr: SocketAddr, seed: u64) -> Result<BulkConn, String> {
        let mut g = Gen::new(seed, 0x4255_4C00);
        let id = g.stream_ids(1)[0];
        let s = g.seed16();
        let mut client = NetClient::connect_with_timeout(addr, IO_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?;
        client
            .open_stream(id, Hello::new(KEY_ID, s))
            .map_err(|e| format!("open stream: {e}"))?;
        Ok(BulkConn {
            client,
            id,
            index: 0,
            log: SealLog::new(id, s, BULK_MSG),
        })
    }

    /// Seal one fresh message, then open it back. Returns the pair's
    /// latency (µs).
    fn request_pair(&mut self, seed: u64, mut spans: Option<&mut Spans>) -> Result<f64, String> {
        let msg = message(seed, self.id, self.index, BULK_MSG);
        let (client, id) = (&mut self.client, self.id);
        let (sealed, plain, us) = window(|| -> Result<_, String> {
            let t0 = Instant::now();
            let sealed = span(&mut spans, "client.seal", || client.seal(id, &msg))
                .map_err(|e| format!("seal: {e}"))?;
            let plain = span(&mut spans, "client.open", || {
                client.open(id, &sealed.blocks, sealed.bit_len)
            })
            .map_err(|e| format!("open: {e}"))?;
            Ok((sealed, plain, t0.elapsed().as_secs_f64() * 1e6))
        })?;
        if plain != msg {
            return Err(format!("stream {}: open returned wrong bytes", self.id));
        }
        self.log.record(self.index, sealed.bit_len, &sealed.blocks);
        self.index += 1;
        Ok(us)
    }

    fn run(
        &mut self,
        seed: u64,
        start: Instant,
        deadline: Instant,
        traced: bool,
    ) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let mut spans = traced.then(Spans::new);
        while Instant::now() < deadline {
            let us = self.request_pair(seed, spans.as_mut())?;
            phase.add_unit(start, us, 2 * BULK_MSG as u64);
            phase.ops += 2;
            phase.attempted += 2;
        }
        phase.spans.extend(spans);
        Ok(phase)
    }
}

// ---------------------------------------------------------------------
// dgram_chunks_256B
// ---------------------------------------------------------------------

const DGRAM_MSG: usize = 8 << 10;
pub const DGRAM_CHUNK: usize = 256;
const DGRAM_CHUNKS: u64 = (DGRAM_MSG / DGRAM_CHUNK) as u64;
/// Every 8th chunk index goes to the chunk oracle.
const DGRAM_SAMPLE_EVERY: u32 = 8;

struct DgramConn {
    /// Holds the stream's TCP connection open while datagrams flow.
    _tcp: NetClient,
    dg: DgramClient,
    id: u64,
    seed: u16,
    index: u64,
    checked: u64,
}

impl DgramConn {
    fn open(server: &ServerHandle, seed: u64) -> Result<DgramConn, String> {
        let mut g = Gen::new(seed, 0x4447_5200);
        let id = g.stream_ids(1)[0];
        let s = g.seed16();
        let mut tcp = NetClient::connect_with_timeout(server.addr(), IO_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?;
        let token = tcp
            .open_stream(id, Hello::new(KEY_ID, s))
            .map_err(|e| format!("open stream: {e}"))?;
        let addr = server.dgram_addr().ok_or("datagram path disabled")?;
        let mut dg = DgramClient::connect_with(
            addr,
            DgramClientConfig {
                chunk_bytes: DGRAM_CHUNK,
                recv_timeout: Duration::from_millis(500),
                attach_attempts: 4,
            },
        )
        .map_err(|e| format!("datagram connect: {e}"))?;
        dg.attach(id, token).map_err(|e| format!("attach: {e}"))?;
        Ok(DgramConn {
            _tcp: tcp,
            dg,
            id,
            seed: s,
            index: 0,
            checked: 0,
        })
    }

    /// Seals one 8 KiB message as 32 chunks, then opens them back.
    fn exchange(
        &mut self,
        seed: u64,
        start: Instant,
        mut spans: Option<&mut Spans>,
    ) -> Result<Phase, String> {
        let msg = message(seed, self.id, self.index, DGRAM_MSG);
        // Chunk indices are never reused: message k owns 32k..32k+31.
        let first = u32::try_from(self.index * DGRAM_CHUNKS).map_err(|_| "index space spent")?;
        let mut phase = Phase::default();

        let (dg, id) = (&mut self.dg, self.id);
        let (sealed, opened, us) = window(|| -> Result<_, String> {
            let t0 = Instant::now();
            let sealed = span(&mut spans, "client.dgram_seal", || dg.seal(id, &msg))
                .map_err(|e| format!("datagram seal: {e}"))?;
            let opened = span(&mut spans, "client.dgram_open", || {
                dg.open(id, &sealed.delivered)
            })
            .map_err(|e| format!("datagram open: {e}"))?;
            Ok((sealed, opened, t0.elapsed().as_secs_f64() * 1e6))
        })?;

        if let Some(r) = sealed.rejected.first().or(opened.rejected.first()) {
            return Err(format!(
                "server refused chunk {}: {:?} {}",
                r.index, r.code, r.detail
            ));
        }
        let chunk_of = |index: u32| -> Result<&[u8], String> {
            let k = index.checked_sub(first).ok_or("chunk index out of range")? as usize;
            msg.get(k * DGRAM_CHUNK..(k + 1) * DGRAM_CHUNK)
                .ok_or_else(|| "chunk index out of range".to_string())
        };
        for c in &sealed.delivered {
            let plain = chunk_of(c.index)?;
            if c.bit_len as usize != plain.len() * 8 {
                return Err(format!("chunk {}: wrong bit length", c.index));
            }
            if c.index % DGRAM_SAMPLE_EVERY == 0 {
                let mut enc = oracle(&bench_key(), chunk_seed(self.seed, c.index))?;
                let want = enc.encrypt(plain).map_err(|e| format!("oracle: {e}"))?;
                if want != c.blocks {
                    return Err(format!("chunk {}: seal differs from the oracle", c.index));
                }
                self.checked += 1;
            }
        }
        for c in &opened.delivered {
            if c.plain != chunk_of(c.index)? {
                return Err(format!("chunk {}: open returned wrong bytes", c.index));
            }
        }
        let delivered = (sealed.delivered.len() + opened.delivered.len()) as u64;
        let missing = (sealed.missing.len() + opened.missing.len()) as u64;
        phase.add_unit(start, us, delivered * DGRAM_CHUNK as u64);
        phase.ops = delivered;
        phase.attempted = DGRAM_CHUNKS + sealed.delivered.len() as u64;
        phase.failed = missing;
        phase.dgram_missing = missing;
        self.index += 1;
        Ok(phase)
    }

    fn run(
        &mut self,
        seed: u64,
        start: Instant,
        deadline: Instant,
        traced: bool,
    ) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let mut spans = traced.then(Spans::new);
        while Instant::now() < deadline {
            phase.merge(self.exchange(seed, start, spans.as_mut())?);
        }
        phase.spans.extend(spans);
        Ok(phase)
    }
}

// ---------------------------------------------------------------------
// tcp_churn_mhkx
// ---------------------------------------------------------------------

pub const CHURN_MSG: usize = 256;
pub const CHURN_SEALS: usize = 4;
/// Cycles per run at most: each opens two loopback connections, whose
/// client ports linger in TIME_WAIT after the run. 2 × 3000 ports stays
/// well inside the 28 000-port default range across back-to-back runs.
pub const CHURN_MAX_CYCLES: usize = 3000;
/// Handshake + resume cycles the other workloads run after their timed
/// phase. With 200, their handshake medians spread 8-10% over ten runs
/// against churn's 2% over its 3000 cycles.
pub const PROBE_CYCLES: usize = 600;

struct ChurnState {
    ids: Gen,
    cycles: usize,
    /// Cycles this state may run: its share of [`CHURN_MAX_CYCLES`].
    max_cycles: usize,
    checked: u64,
}

impl ChurnState {
    fn new(salt: u64) -> ChurnState {
        ChurnState {
            ids: Gen::new(salt, 0x4348_5500),
            cycles: 0,
            max_cycles: CHURN_MAX_CYCLES,
            checked: 0,
        }
    }

    /// Set-up: one pre-shared-key stream opened proves the server is
    /// serving, as the bulk set-up does; the stream is left to be parked,
    /// which the warm-up cycles absorb. An MHKX open and bye here repeated
    /// what `handshake_p50_us` measures, and their three round trips to
    /// a polling reactor made the set-up take 0.5 ms in some stretches
    /// and 1.4 ms in others.
    fn open(addr: SocketAddr, seed: u64) -> Result<ChurnState, String> {
        let mut state = ChurnState::new(seed);
        let id = state.ids.stream_ids(1)[0];
        let hello = Hello::new(KEY_ID, state.ids.seed16());
        NetClient::connect_with_timeout(addr, IO_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?
            .open_stream(id, hello)
            .map_err(|e| format!("open stream: {e}"))?;
        Ok(state)
    }

    /// One cycle: MHKX open, 4 seals, drop (the server parks the
    /// stream), reconnect + resume, 4 seals, bye. The wait for the park
    /// stays outside the timed windows and is reported on its own, so
    /// the resume never races the server's reaping of the connection.
    fn cycle(
        &mut self,
        server: &ServerHandle,
        seed: u64,
        start: Instant,
        mut spans: Option<&mut Spans>,
    ) -> Result<Phase, String> {
        let addr = server.addr();
        let id = self.ids.stream_ids(1)[0];
        let batch = |from: usize| -> Vec<(u64, Vec<u8>)> {
            (from..from + CHURN_SEALS)
                .map(|k| (id, message(seed, id, k as u64, CHURN_MSG)))
                .collect()
        };
        let (first, second) = (batch(0), batch(CHURN_SEALS));
        let evicted = || server.stats().streams_evicted.load(Ordering::Relaxed);
        let parked_before = evicted();

        let (session, mut sealed, [t0, t1, t2]) = window(|| -> Result<_, String> {
            let t0 = Instant::now();
            let (mut c1, session) = span(&mut spans, "client.handshake", || {
                NetClient::connect_ephemeral(addr, id)
            })
            .map_err(|e| format!("handshake: {e}"))?;
            let t1 = Instant::now();
            let sealed = span(&mut spans, "client.seal", || c1.seal_pipelined(&first))
                .map_err(|e| format!("seal: {e}"))?;
            drop(c1);
            Ok((session, sealed, [t0, t1, Instant::now()]))
        })?;
        span(&mut spans, "client.park_wait", || {
            while evicted() == parked_before {
                if t2.elapsed() > IO_TIMEOUT {
                    return Err(format!("stream {id}: the server never parked it"));
                }
                std::thread::yield_now();
            }
            Ok(())
        })?;
        let (c2, [t3, t4, t5]) = window(|| -> Result<_, String> {
            let t3 = Instant::now();
            let mut c2 = span(
                &mut spans,
                "client.resume",
                || -> Result<NetClient, String> {
                    let mut c = NetClient::connect_with_timeout(addr, IO_TIMEOUT)
                        .map_err(|e| format!("reconnect: {e}"))?;
                    c.resume_within(id, session.token, Duration::from_secs(5))
                        .map_err(|e| format!("resume: {e}"))?;
                    Ok(c)
                },
            )?;
            let t4 = Instant::now();
            span(&mut spans, "client.seal", || -> Result<(), String> {
                sealed.extend(
                    c2.seal_pipelined(&second)
                        .map_err(|e| format!("seal after resume: {e}"))?,
                );
                c2.bye(id).map_err(|e| format!("bye: {e}"))
            })?;
            Ok((c2, [t3, t4, Instant::now()]))
        })?;
        drop(c2);

        // Outside the window: the eight seals, across the resume, must
        // match a local session built from the derived key and seed.
        let mut enc = oracle(&session.key, session.seed)?;
        for ((_, msg), s) in first.iter().chain(&second).zip(&sealed) {
            let want = enc.encrypt(msg).map_err(|e| format!("oracle: {e}"))?;
            if want != s.blocks || s.bit_len as usize != msg.len() * 8 {
                return Err(format!("stream {id}: seal differs from the MHKX session"));
            }
        }
        self.checked += sealed.len() as u64;
        self.cycles += 1;
        let seals = sealed.len() as u64;
        let mut phase = Phase {
            ops: 1,
            // Handshake, resume and bye are requests too.
            attempted: seals + 3,
            handshake_us: vec![(t1 - t0).as_secs_f64() * 1e6],
            resume_us: vec![(t4 - t3).as_secs_f64() * 1e6],
            park_us: vec![(t3 - t2).as_secs_f64() * 1e6],
            ..Phase::default()
        };
        phase.add_unit(
            start,
            ((t2 - t0) + (t5 - t3)).as_secs_f64() * 1e6,
            seals * CHURN_MSG as u64,
        );
        Ok(phase)
    }

    fn run(
        &mut self,
        server: &ServerHandle,
        seed: u64,
        start: Instant,
        deadline: Instant,
        traced: bool,
    ) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let mut spans = traced.then(Spans::new);
        while Instant::now() < deadline && self.cycles < self.max_cycles {
            let unit = spans.as_mut().map(|s| s.enter("unit"));
            let p = self.cycle(server, seed, start, spans.as_mut())?;
            if let (Some(s), Some(u)) = (spans.as_mut(), unit) {
                s.exit(u);
            }
            phase.merge(p);
        }
        phase.spans.extend(spans);
        Ok(phase)
    }
}

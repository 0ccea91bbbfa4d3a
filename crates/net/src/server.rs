//! A non-blocking TCP server multiplexing client streams onto a shared
//! [`StreamMux`].
//!
//! The transport is layered (see `docs/ARCHITECTURE.md`, "Threading
//! model"):
//!
//! - `conn` (private) — the per-connection state machine (parse,
//!   sequence validation, write buffering, backpressure, close grace),
//!   generic over the byte stream and ignorant of any loop;
//! - `reactor` (private) — [`ServerConfig::reactors`] readiness loops,
//!   each owning a **disjoint** set of connections, each submitting one
//!   [`StreamMux::submit_batch`] per tick into the shared mux (whose
//!   per-shard locks make concurrent batches safe);
//! - this module — configuration, the shared stats, the acceptor that
//!   shards incoming sockets across reactors round-robin, and the
//!   run/spawn lifecycle.
//!
//! Each reactor tick: drain adopted sockets, read + parse every owned
//! connection, coalesce *every* parsed `Data` frame — across that
//! reactor's connections and both directions — into **one**
//! [`StreamMux::submit_batch`] call (one worker-pool job per busy
//! shard), route results back into per-connection write buffers, flush.
//! Reactor 0 also drains the MHNP-D socket (see [`crate::dgram`]) in the
//! same tick: its chunks join the same batch, and their replies go back
//! to each packet's source address. The datagram path has no thread of
//! its own.
//!
//! Backpressure is explicit: a connection whose write buffer is over the
//! configured limit is not read from until it drains, so a client that
//! stops reading replies eventually stops being served instead of growing
//! server memory.
//!
//! Disconnects are graceful by default: every stream the connection owned
//! is evicted through the gateway's atomic [`StreamMux::evict`] and the
//! `MHSS` snapshot parked in a store **shared by all reactors**. A later
//! connection — whichever reactor it lands on — can [`crate::frame::FrameKind::Resume`]
//! the stream id and continue bit-exactly: TCP session death does not
//! cost cipher stream state, and neither does crossing reactors.
//!
//! Key rotation is first-class: a [`crate::frame::FrameKind::Rekey`] frame is sequenced
//! like `Data` (it consumes the next counter of the current epoch and
//! rides the same batched gateway submission, so it lands in order
//! relative to in-flight traffic), rotates both directions of the stream
//! atomically, re-mints the resume token, and restarts the sequence space
//! at `(new epoch, counter 0)`. Frames stamped with a retired epoch —
//! replays captured before the rotation — are rejected with the dedicated
//! [`crate::frame::ErrorCode::StaleEpoch`] without touching cipher state. Because the
//! epoch lives in the `MHSS` snapshot (v2), rotation state survives
//! evict/resume cycles too.
//!
//! Ordering note: replies are ordered **per connection** only. Two
//! connections may be served by different reactor threads; nothing
//! sequences one connection's replies against another's.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use mhhea::gateway::StreamMux;
use mhhea::Key;

use crate::dgram::socket::DgramPort;
use crate::frame::MAX_PAYLOAD;
use crate::reactor::{Reactor, Shared};

/// Tuning knobs and the keyring for [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// key id → **epoch-ordered keys**. A [`crate::frame::Hello`] naming
    /// an id outside this map is rejected; key material itself never
    /// crosses the wire. A stream opened under id `k` gets a
    /// [`mhhea::KeyRing`] of these keys with the handshake seed as
    /// master: epoch `e` runs `keys[e mod len]`. [`ServerConfig::new`]
    /// installs single-key entries (every rotation reuses the key but
    /// reseeds the LFSR); use [`ServerConfig::with_epoch_keys`] for
    /// rotations that actually change the key — only those retire old
    /// ciphertext on the decrypt side.
    pub keyring: HashMap<u32, Vec<Key>>,
    /// Shard count for the underlying [`StreamMux`].
    pub shards: usize,
    /// Reactor threads. Each runs its own readiness loop over a disjoint
    /// set of connections (the acceptor deals sockets round-robin) and
    /// submits its own per-tick batch into the shared mux. `1` (the
    /// default) runs acceptor and reactor interleaved on the calling
    /// thread — exactly the pre-reactor single-loop behaviour.
    pub reactors: usize,
    /// Per-connection write buffer size above which the server stops
    /// reading from that connection until it drains (bytes).
    pub write_buf_limit: usize,
    /// Most bytes read from one connection per tick — bounds how much one
    /// chatty client can monopolise a tick.
    pub read_budget: usize,
    /// Most eviction snapshots parked for resumption; beyond it, streams
    /// of dying connections are closed instead of parked (counted in
    /// [`ServerStats::streams_dropped`]).
    pub snapshot_capacity: usize,
    /// Most simultaneously open connections (across all reactors); beyond
    /// it, accepted sockets are dropped immediately (counted in
    /// [`ServerStats::connections_rejected`]).
    pub max_connections: usize,
    /// Most simultaneously *live* streams in the mux; beyond it, `Hello`
    /// is answered with [`crate::frame::ErrorCode::ServerBusy`]. Bounds what one (or
    /// many) connections can allocate by looping handshakes. Every live
    /// stream costs the same, about 260 bytes of RSS with an 8-pair key
    /// (cursors, LFSR state, one key copy, map entry), whether its key is
    /// shared or unique (MHKX): no stream holds a span table. So this
    /// bound also bounds the mux's bytes.
    pub max_streams: usize,
    /// How long a connection marked for closing (protocol violation) may
    /// linger waiting for its goodbye frame to flush before it is torn
    /// down anyway — bounds what a peer that stops reading can pin.
    pub close_grace: Duration,
    /// Sleep between ticks when nothing happened (each loop otherwise
    /// busy-polls its non-blocking sockets).
    pub idle_sleep: Duration,
    /// Accept `KeyEx` handshakes: clients with **no pre-shared key** may
    /// open (and rekey) streams under session keys derived by an
    /// ephemeral X25519 exchange. Off by default — a keyring-only server
    /// rejects `KeyEx` frames with [`crate::frame::ErrorCode::BadHandshake`].
    /// Enable with [`ServerConfig::with_ephemeral_keys`].
    pub ephemeral: bool,
    /// Serve the MHNP-D datagram path (see [`crate::dgram`]): bind a UDP
    /// socket beside the listener, drained by reactor 0 in its tick. Off
    /// by default. Enable with [`ServerConfig::with_dgram`].
    pub dgram: bool,
    /// Replay-window span, in chunk indices, for each stream attached to
    /// the datagram path (see [`crate::dgram::window::ReorderWindow`];
    /// clamped to its supported range). Chunks reordered further than
    /// this fall behind the window and are refused with
    /// [`crate::frame::ErrorCode::ChunkExpired`].
    pub dgram_window: u32,
}

impl ServerConfig {
    /// A config with the given keyring (one key per id) and default
    /// tuning.
    pub fn new(keyring: impl IntoIterator<Item = (u32, Key)>) -> ServerConfig {
        ServerConfig {
            keyring: keyring.into_iter().map(|(id, k)| (id, vec![k])).collect(),
            shards: 64,
            reactors: 1,
            write_buf_limit: 4 << 20,
            read_budget: 256 << 10,
            snapshot_capacity: 65_536,
            max_connections: 4096,
            max_streams: 1 << 20,
            close_grace: Duration::from_secs(5),
            idle_sleep: Duration::from_micros(200),
            ephemeral: false,
            dgram: false,
            dgram_window: 1024,
        }
    }

    /// Enables the MHNP-D datagram path: [`NetServer::bind`] also binds a
    /// UDP socket (same IP, OS-picked port — read it back with
    /// [`ServerHandle::dgram_addr`]), and reactor 0 serves it in its tick
    /// beside its TCP connections; no thread is added. Streams are
    /// attached to it by resume token; see [`crate::dgram`].
    #[must_use]
    pub fn with_dgram(mut self) -> ServerConfig {
        self.dgram = true;
        self
    }

    /// Enables ephemeral key agreement (MHKX): clients without a
    /// pre-shared key may open streams — and rotate them with fresh
    /// Diffie–Hellman material — via `KeyEx`/`KeyExAck` handshakes (see
    /// `docs/PROTOCOL.md` §5.1). Pre-shared-key `Hello` handshakes keep
    /// working side by side.
    #[must_use]
    pub fn with_ephemeral_keys(mut self) -> ServerConfig {
        self.ephemeral = true;
        self
    }

    /// Sets the reactor-thread count (values below 1 are clamped to 1).
    #[must_use]
    pub fn with_reactors(mut self, reactors: usize) -> ServerConfig {
        self.reactors = reactors.max(1);
        self
    }

    /// Installs an epoch-ordered key list for `id` (replacing any single
    /// key [`ServerConfig::new`] put there): streams opened under `id`
    /// cycle through `keys` as they rekey, so a rotation genuinely
    /// changes the cipher key — pre-rotation ciphertext no longer opens.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty or longer than
    /// [`mhhea::key::MAX_RING_KEYS`] — a keyring no stream could be
    /// opened with is a deployment bug, not a runtime condition.
    #[must_use]
    pub fn with_epoch_keys(mut self, id: u32, keys: Vec<Key>) -> ServerConfig {
        assert!(
            !keys.is_empty() && keys.len() <= mhhea::key::MAX_RING_KEYS,
            "epoch key list must hold 1..={} keys",
            mhhea::key::MAX_RING_KEYS
        );
        self.keyring.insert(id, keys);
        self
    }
}

/// Counters exported by a running server (all relaxed atomics; read them
/// through [`ServerHandle::stats`]).
///
/// Coherence contract under concurrent reactors: every counter is
/// updated atomically, so individual values are always exact — but
/// *across* counters there is no snapshot; two reads can interleave with
/// updates on other reactor threads (e.g. `connections_opened` may be
/// momentarily ahead of `connections_open + connections_closed`).
///
/// Every field except [`ServerStats::connections_open`] is **monotonic**
/// (only ever incremented; safe to rate/diff). `connections_open` is a
/// **gauge** — it goes both ways and is the one field describing *now*
/// rather than *ever*.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Monotonic: connections accepted and handed to a reactor.
    pub connections_opened: AtomicU64,
    /// Monotonic: connections torn down (disconnect or protocol
    /// violation).
    pub connections_closed: AtomicU64,
    /// Gauge: connections alive right now (accepted, not yet torn down) —
    /// also the value the acceptor checks against
    /// [`ServerConfig::max_connections`].
    pub connections_open: AtomicU64,
    /// Monotonic: complete frames parsed.
    pub frames_received: AtomicU64,
    /// Monotonic: frames written back (replies, acks and errors).
    pub frames_sent: AtomicU64,
    /// Monotonic: connections dropped at accept because the server was at
    /// `max_connections`.
    pub connections_rejected: AtomicU64,
    /// Monotonic: connections killed for framing violations.
    pub protocol_errors: AtomicU64,
    /// Monotonic: streams opened by handshake.
    pub streams_opened: AtomicU64,
    /// Monotonic: streams evicted to the snapshot store on disconnect.
    pub streams_evicted: AtomicU64,
    /// Monotonic: streams closed on disconnect instead of evicted,
    /// because the snapshot store held
    /// [`ServerConfig::snapshot_capacity`] snapshots. Their resume
    /// tokens are removed with them, so a later `Resume` is refused.
    pub streams_dropped: AtomicU64,
    /// Monotonic: streams restored from the snapshot store by `Resume`.
    pub streams_resumed: AtomicU64,
    /// Monotonic: successful key rotations (`Rekey` → `RekeyAck`).
    pub streams_rekeyed: AtomicU64,
    /// Monotonic: completed `KeyEx` handshakes (fresh opens *and*
    /// fresh-DH rotations that passed key confirmation).
    pub kex_completed: AtomicU64,
    /// Monotonic: `KeyEx` handshakes rejected for a low-order public key
    /// or a failed key-confirmation tag.
    pub kex_rejected: AtomicU64,
    /// Monotonic: datagrams received on the MHNP-D socket (decodable or
    /// not).
    pub dgram_packets_received: AtomicU64,
    /// Monotonic: datagrams sent from the MHNP-D socket (acks, replies
    /// and error frames).
    pub dgram_packets_sent: AtomicU64,
    /// Monotonic: streams attached to the datagram path by `DgramResume`
    /// (counted once per stream per epoch; idempotent re-attaches do not
    /// count).
    pub dgram_attached: AtomicU64,
    /// Monotonic: chunks served (sealed or opened) on the datagram path.
    pub dgram_chunks: AtomicU64,
    /// Monotonic: datagrams refused — undecodable packets dropped
    /// silently plus every explicit datagram `Error` reply (duplicate or
    /// expired chunk index, stale epoch, unknown stream, …).
    pub dgram_rejected: AtomicU64,
}

impl ServerStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The framed TCP front-end over a [`StreamMux`].
///
/// Construct with [`NetServer::bind`] and either drive it yourself with
/// [`NetServer::run`] or let [`NetServer::spawn`] put it on a background
/// thread and hand back a [`ServerHandle`].
pub struct NetServer {
    listener: TcpListener,
    addr: SocketAddr,
    dgram: Option<UdpSocket>,
    dgram_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
}

impl NetServer {
    /// Binds the listener (use port 0 to let the OS pick) and prepares an
    /// empty stream table. With [`ServerConfig::dgram`] set, also binds
    /// the MHNP-D UDP socket on the same IP (OS-picked port).
    ///
    /// # Errors
    ///
    /// Any socket-level failure from bind/configure.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let dgram = if cfg.dgram {
            let sock = UdpSocket::bind((addr.ip(), 0))?;
            sock.set_nonblocking(true)?;
            Some(sock)
        } else {
            None
        };
        let dgram_addr = dgram.as_ref().map(UdpSocket::local_addr).transpose()?;
        Ok(NetServer {
            listener,
            addr,
            dgram,
            dgram_addr,
            shared: Arc::new(Shared::new(cfg, Arc::new(ServerStats::default()))),
        })
    }

    /// The bound address (the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The MHNP-D socket's address — `None` unless the config enabled
    /// the datagram path ([`ServerConfig::with_dgram`]).
    pub fn dgram_addr(&self) -> Option<SocketAddr> {
        self.dgram_addr
    }

    /// The underlying stream table (e.g. for monitoring stream counts).
    pub fn mux(&self) -> &StreamMux {
        &self.shared.mux
    }

    /// Binds and runs the server on a background thread, returning a
    /// handle that stops and joins it on drop. (With `reactors > 1` that
    /// thread becomes the acceptor and spawns the reactor threads
    /// scoped beneath itself.)
    ///
    /// # Errors
    ///
    /// See [`NetServer::bind`].
    pub fn spawn(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let server = NetServer::bind(addr, cfg)?;
        let addr = server.local_addr();
        let dgram_addr = server.dgram_addr();
        let stats = Arc::clone(&server.shared.stats);
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let join = std::thread::Builder::new()
            .name("mhnp-server".into())
            .spawn(move || server.run(&flag))?;
        Ok(ServerHandle {
            addr,
            dgram_addr,
            stats,
            shutdown,
            join: Some(join),
        })
    }

    /// Runs acceptor and reactors until `shutdown` turns true.
    /// Connections and parked snapshots are dropped on exit.
    ///
    /// With `reactors == 1` the single reactor is driven interleaved with
    /// the acceptor on the calling thread (the classic single-loop
    /// server); with more, this thread accepts and deals sockets while
    /// `reactors` scoped threads each run their own loop. Reactor 0 also
    /// serves the datagram socket, if there is one.
    pub fn run(self, shutdown: &AtomicBool) {
        let NetServer {
            listener,
            shared,
            mut dgram,
            ..
        } = self;
        let n = shared.cfg.reactors.max(1);
        let mut txs: Vec<mpsc::Sender<TcpStream>> = Vec::with_capacity(n);
        let mut reactors: Vec<Reactor> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel();
            txs.push(tx);
            // `take` hands the socket to the first reactor only.
            let port = dgram.take().map(DgramPort::new);
            reactors.push(Reactor::new(Arc::clone(&shared), rx, port));
        }
        let idle = shared.cfg.idle_sleep;
        let mut next = 0;
        if n == 1 {
            // Exactly one reactor, interleaved with the acceptor.
            for mut reactor in reactors {
                while !shutdown.load(Ordering::Relaxed) {
                    let mut progress = accept_pending(&listener, &shared, &txs, &mut next);
                    progress |= reactor.step();
                    if !progress {
                        std::thread::sleep(idle);
                    }
                }
            }
            return;
        }
        // The scope joins every reactor thread before run() returns, so
        // the shared state never outlives the loops.
        std::thread::scope(|scope| {
            for (i, reactor) in reactors.into_iter().enumerate() {
                std::thread::Builder::new()
                    .name(format!("mhnp-reactor-{i}"))
                    .spawn_scoped(scope, move || reactor.run(shutdown))
                    // lint: allow(panic-path, reason = "startup-only: failing to spawn a reactor thread means the server cannot run at all; there is no connection to answer yet")
                    .expect("spawn reactor thread");
            }
            while !shutdown.load(Ordering::Relaxed) {
                if !accept_pending(&listener, &shared, &txs, &mut next) {
                    std::thread::sleep(idle);
                }
            }
            drop(txs);
        });
    }
}

/// Accepts every pending socket and deals each to a reactor, strictly
/// round-robin in accept order (accept *k* goes to reactor *k* mod *n* —
/// deterministic, which the cross-reactor tests pin their placement on).
fn accept_pending(
    listener: &TcpListener,
    shared: &Shared,
    txs: &[mpsc::Sender<TcpStream>],
    next: &mut usize,
) -> bool {
    let mut accepted = false;
    loop {
        match listener.accept() {
            Ok((sock, _peer)) => {
                let open = shared.stats.connections_open.load(Ordering::Relaxed);
                if open >= shared.cfg.max_connections as u64 {
                    // At capacity: drop the socket now (the peer sees a
                    // close) instead of letting the backlog pin server
                    // memory.
                    ServerStats::bump(&shared.stats.connections_rejected);
                    continue;
                }
                // Per-connection setup failures just drop the socket.
                if sock.set_nonblocking(true).is_ok() {
                    let _ = sock.set_nodelay(true);
                    // The gauge rises *before* the hand-off: the reactor
                    // may adopt, serve and reap the socket concurrently,
                    // and its decrement must never observe the increment
                    // missing.
                    ServerStats::bump(&shared.stats.connections_opened);
                    shared
                        .stats
                        .connections_open
                        .fetch_add(1, Ordering::Relaxed);
                    // lint: allow(panic-path, reason = "index is reduced mod txs.len(), and txs holds at least one sender")
                    if txs[*next % txs.len()].send(sock).is_ok() {
                        *next = next.wrapping_add(1);
                        accepted = true;
                    } else {
                        // Reactor already gone — only during shutdown.
                        shared
                            .stats
                            .connections_open
                            .fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
    accepted
}

impl core::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("reactors", &self.shared.cfg.reactors)
            .field(
                "connections",
                &self.shared.stats.connections_open.load(Ordering::Relaxed),
            )
            .field("streams", &self.shared.mux.len())
            .field("parked_snapshots", &self.shared.parked())
            .finish()
    }
}

/// Owns a background server thread; dropping (or [`ServerHandle::stop`])
/// shuts the loop down and joins it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    dgram_addr: Option<SocketAddr>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's bound address — connect clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The MHNP-D socket's address — connect [`crate::dgram::DgramClient`]s
    /// here. `None` unless the config enabled the datagram path.
    pub fn dgram_addr(&self) -> Option<SocketAddr> {
        self.dgram_addr
    }

    /// Live counters (relaxed reads; momentarily inconsistent with each
    /// other under load — see the [`ServerStats`] coherence contract).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Stops the loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// The largest plaintext a single seal-direction `Data` frame can carry;
/// chunk bigger messages at the application layer.
///
/// MHHEA *expands*: a sealed reply carries `4 + 2 × blocks` bytes, and in
/// the worst case (a key pair of span 1) every plaintext bit costs one
/// 16-bit block — 16 reply bytes per message byte. The cap is sized so
/// the expanded reply always fits [`MAX_PAYLOAD`] no matter the key;
/// anything larger is rejected with [`crate::frame::ErrorCode::MessageTooLarge`]
/// *before* touching cipher state (sequence number not consumed).
pub const MAX_MESSAGE_BYTES: usize = (MAX_PAYLOAD - 4) / 16;

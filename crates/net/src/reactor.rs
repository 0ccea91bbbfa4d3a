//! The reactor layer: N readiness loops over disjoint connection sets,
//! one shared stream world.
//!
//! A [`Reactor`] owns a set of connections outright — their sockets,
//! buffers, and stream tables are touched by exactly one thread, so the
//! per-connection state machine ([`crate::conn`]) needs no locks. What
//! connections *share* lives in [`Shared`]:
//!
//! - the [`StreamMux`] — internally sharded, every method `&self`, so
//!   reactors call [`StreamMux::submit_batch`] concurrently and their
//!   batches interleave safely at shard granularity;
//! - the [`Registry`] (one mutex): parked eviction snapshots and the
//!   resume-token table. It is touched only on handshakes, rekeys, and
//!   teardown — never per data frame — so the lock is cold;
//! - the atomic [`ServerStats`].
//!
//! That split is what makes evict-on-A / resume-on-B work: a stream is
//! *located* nowhere but the mux and registry, so the connection that
//! resumes it does not care which reactor parked it.
//!
//! Lock ordering: the registry mutex is always taken **before** any mux
//! shard lock (handshakes and eviction hold it across their mux call),
//! and no code path takes them in the other order. Holding the registry
//! across the mux call is what makes park/resume/open atomic from every
//! other reactor's point of view — e.g. a `Hello` can never squeeze in
//! between "evict removed the stream from the mux" and "the snapshot is
//! parked".

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

use mhhea::gateway::{GatewayError, StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
use mhhea::{Algorithm, Key, KeyRing, Profile};
use mhhea_kex::{derive_session, tags_equal, transcript, EphemeralSecret};

use crate::conn::{
    take_answer, Conn, ControlAction, DataTicket, KexTable, PendingKex, ReplyTo, StreamTable,
    TickSink, MAX_PENDING_KEX,
};
use crate::dgram::socket::DgramPort;
use crate::frame::{
    decode_key_ex, decode_token, encode_error, encode_key_ex_ack_done, encode_key_ex_ack_init,
    encode_rekey_ack, encode_resumed_ack, flags, join_seq, split_seq, ErrorCode, Frame, FrameKind,
    Hello, KeyExInit, KeyExPayload, KEX_TAG_LEN,
};
use crate::server::{ServerConfig, ServerStats};

/// Cross-reactor stream bookkeeping, guarded by one mutex in [`Shared`].
#[derive(Default)]
pub(crate) struct Registry {
    /// stream id → parked `MHSS` snapshot, waiting for a `Resume` (from
    /// any connection on any reactor).
    snapshots: HashMap<u64, Vec<u8>>,
    /// stream id → resume token, for every live *and* parked stream. A
    /// `Resume` must present the token its `HelloAck` handed out; stream
    /// ids are guessable, tokens are not.
    tokens: HashMap<u64, u64>,
    /// Keyed-hash state and counter that resume tokens are minted from.
    token_rand: RandomState,
    token_counter: u64,
}

impl Registry {
    /// Mints `stream` a fresh resume token, retiring any older one: a
    /// keyed hash of a counter. Unpredictable to peers (the SipHash key
    /// never leaves the process), collision-free in practice, and free
    /// of any RNG dependency.
    fn mint(&mut self, stream: u64) -> u64 {
        let mut hasher = self.token_rand.build_hasher();
        hasher.write_u64(self.token_counter);
        self.token_counter += 1;
        let token = hasher.finish();
        self.tokens.insert(stream, token);
        token
    }
}

/// What [`Shared::unpark`] found for a stream id and resume token.
pub(crate) enum Unpark {
    /// No token is held for the id, or it is not this one.
    BadToken,
    /// The token matches but nothing is parked: the stream is live, or
    /// being torn down.
    NotParked,
    /// The snapshot was restored; the stream runs this epoch.
    Restored(u32),
    /// The restore failed and the snapshot is parked again.
    Failed(GatewayError),
}

/// The refusal a handshake names a parked id with.
const PARKED: &str = "stream id parked awaiting resume (present its resume token)";

/// An `Error` reply to a handshake on `stream` (handshake replies carry
/// sequence 0).
fn refuse(stream: u64, code: ErrorCode, detail: &str) -> Frame {
    Frame::new(FrameKind::Error, stream, 0).with_payload(encode_error(code, detail))
}

/// Everything the reactors (and the acceptor) share. One instance per
/// server, behind an `Arc`.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) mux: StreamMux,
    pub(crate) stats: Arc<ServerStats>,
    // lock-order: registry < mux_shard
    registry: Mutex<Registry>,
}

impl Shared {
    pub(crate) fn new(cfg: ServerConfig, stats: Arc<ServerStats>) -> Shared {
        Shared {
            mux: StreamMux::with_shards(cfg.shards),
            stats,
            registry: Mutex::default(),
            cfg,
        }
    }

    /// The registry lock. Poisoning is recovered rather than propagated:
    /// every critical section is a handful of `HashMap` operations with no
    /// multi-step invariant, so the state is coherent even if some earlier
    /// holder panicked — and one panicked reactor thread must not take the
    /// other reactors' handshake path down with it.
    pub(crate) fn registry(&self) -> MutexGuard<'_, Registry> {
        match self.registry.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Parked snapshots right now (for `Debug` output).
    pub(crate) fn parked(&self) -> usize {
        self.registry().snapshots.len()
    }

    /// Whether the registry still holds a resume token for `stream` —
    /// i.e. whether the stream can ever legally return (both TCP resume
    /// and datagram attach require the token). The datagram path uses
    /// this to decide when per-stream replay state is safe to drop.
    pub(crate) fn has_token(&self, stream: u64) -> bool {
        self.registry().tokens.contains_key(&stream)
    }

    /// Keeps only the entries of `map` whose stream still holds a resume
    /// token, under one registry lock.
    pub(crate) fn retain_tokened<V>(&self, map: &mut HashMap<u64, V>) {
        let reg = self.registry();
        map.retain(|stream, _| reg.tokens.contains_key(stream));
    }

    /// The bookkeeping after a rotation of `stream` to `epoch` took:
    /// restarts its sequence space at `(epoch, 0)` and re-mints its resume
    /// token (a snapshot thief must not outlive a rekey), which the ack
    /// hands back.
    fn rotated(&self, streams: &mut StreamTable, stream: u64, epoch: u32) -> u64 {
        streams.insert(stream, join_seq(epoch, 0));
        ServerStats::bump(&self.stats.streams_rekeyed);
        self.registry().mint(stream)
    }

    /// Handshake and teardown frames, answered inline by the owning
    /// reactor against the shared registry/mux.
    pub(crate) fn handle_control(
        &self,
        streams: &mut StreamTable,
        kex: &mut KexTable,
        frame: &Frame,
    ) -> ControlAction {
        let stream = frame.stream;
        let reply = match frame.kind {
            FrameKind::Hello => self.open_stream(streams, frame),
            FrameKind::KeyEx => self.key_ex(streams, kex, frame),
            FrameKind::Resume => self.resume_stream(streams, frame),
            FrameKind::Bye if streams.remove(&stream).is_some() => {
                let mut reg = self.registry();
                let _ = self.mux.close(StreamId(stream));
                reg.tokens.remove(&stream);
                Frame::new(FrameKind::Bye, stream, frame.seq)
            }
            FrameKind::Bye => {
                Frame::new(FrameKind::Error, stream, frame.seq).with_payload(encode_error(
                    ErrorCode::UnknownStream,
                    "bye for a stream this connection does not own",
                ))
            }
            other => {
                let (stream, seq, detail) = match other {
                    // Datagram-path kinds never travel over TCP: MHNP-D
                    // shares the kind space for the analyzer's sake, not
                    // the transport. A client mixing them into a stream
                    // is confused or hostile.
                    FrameKind::DgramResume
                    | FrameKind::DgramAck
                    | FrameKind::DgramData
                    | FrameKind::DgramReply => (
                        stream,
                        frame.seq,
                        "datagram-path frame kind on the stream transport",
                    ),
                    // `Data`/`Rekey` frames are routed through
                    // `validate_data` before this point; landing here is
                    // a dispatch bug. Answer it as a protocol error and
                    // hang up instead of panicking the reactor thread
                    // (debug builds still assert).
                    FrameKind::Data | FrameKind::Rekey => {
                        debug_assert!(false, "data and rekey frames go through validate_data");
                        (stream, frame.seq, "data frame routed to control path")
                    }
                    // Server-emitted kinds arriving at the server are
                    // protocol violations a conforming client never
                    // produces.
                    _ => (0, 0, "client sent a server-only frame kind"),
                };
                ServerStats::bump(&self.stats.protocol_errors);
                let error = encode_error(ErrorCode::Protocol, detail);
                return ControlAction {
                    reply: Frame::new(FrameKind::Error, stream, seq).with_payload(error),
                    hang_up: true,
                };
            }
        };
        ControlAction {
            reply,
            hang_up: false,
        }
    }

    fn open_stream(&self, streams: &mut StreamTable, frame: &Frame) -> Frame {
        let stream = frame.stream;
        let hello = match Hello::decode(&frame.payload) {
            Ok(h) => h,
            Err(e) => return refuse(stream, ErrorCode::BadHandshake, &e.to_string()),
        };
        let Some(epoch_keys) = self.cfg.keyring.get(&hello.key_id) else {
            return refuse(
                stream,
                ErrorCode::UnknownKeyId,
                &format!("key id {} not in keyring", hello.key_id),
            );
        };
        // Every served stream gets a ring of the id's epoch keys with the
        // handshake seed as master, so `Rekey` works out of the box. Each
        // epoch reseeds the LFSR via the chunk_seed derivation; whether a
        // rotation also *changes the key* depends on how the id was
        // configured (ServerConfig::with_epoch_keys vs a single key).
        // Epoch 0 runs the handshake seed itself, so a stream that never
        // rekeys seals exactly as it did before epochs existed.
        let ring = || {
            KeyRing::new(epoch_keys.clone(), hello.seed)
                .map_err(|e| refuse(stream, ErrorCode::BadHandshake, &e.to_string()))
        };
        match self.admit(streams, stream, hello.algorithm, hello.profile, ring) {
            Ok(token) => Frame::new(FrameKind::HelloAck, stream, 0)
                .with_payload(token.to_le_bytes().to_vec()),
            Err(reply) => reply,
        }
    }

    /// Refuses a handshake for a parked id (letting an unauthenticated
    /// handshake supersede the snapshot would destroy another client's
    /// only copy of its stream state) or on a server at stream capacity
    /// (streams are the one per-client allocation a handshake loop could
    /// grow without bound).
    fn check_admissible(&self, reg: &Registry, stream: u64) -> Result<(), Frame> {
        if reg.snapshots.contains_key(&stream) {
            return Err(refuse(stream, ErrorCode::StreamExists, PARKED));
        }
        if self.mux.len() >= self.cfg.max_streams {
            return Err(refuse(
                stream,
                ErrorCode::ServerBusy,
                "server at stream capacity",
            ));
        }
        Ok(())
    }

    /// Opens `stream` for a handshake and gives it to the connection:
    /// checks it is admissible, and only then builds the ring, opens the
    /// stream in the mux and mints its resume token. The registry is held
    /// throughout, so no other reactor can park or resume the id in
    /// between. Returns the token, or the `Error` reply.
    fn admit(
        &self,
        streams: &mut StreamTable,
        stream: u64,
        algorithm: Algorithm,
        profile: Profile,
        ring: impl FnOnce() -> Result<KeyRing, Frame>,
    ) -> Result<u64, Frame> {
        let mut reg = self.registry();
        self.check_admissible(&reg, stream)?;
        let ring = ring()?;
        let config = StreamConfig::new(ring.key(0).clone())
            .with_algorithm(algorithm)
            .with_profile(profile)
            .with_ring(ring);
        match self.mux.open(StreamId(stream), config) {
            Ok(()) => {
                let token = reg.mint(stream);
                streams.insert(stream, 0);
                ServerStats::bump(&self.stats.streams_opened);
                Ok(token)
            }
            Err(GatewayError::StreamExists(_)) => Err(refuse(
                stream,
                ErrorCode::StreamExists,
                "stream id already open",
            )),
            Err(e) => Err(refuse(stream, ErrorCode::BadHandshake, &e.to_string())),
        }
    }

    /// An MHKX `KeyEx` frame — either handshake phase (see
    /// `docs/PROTOCOL.md` §5.1). Every failure is a clean `Error` reply;
    /// nothing in the exchange is connection-fatal.
    fn key_ex(&self, streams: &mut StreamTable, kex: &mut KexTable, frame: &Frame) -> Frame {
        let stream = frame.stream;
        if !self.cfg.ephemeral {
            return refuse(
                stream,
                ErrorCode::BadHandshake,
                "ephemeral key agreement is not enabled on this server",
            );
        }
        match decode_key_ex(&frame.payload) {
            Ok(KeyExPayload::Init(init)) => self.key_ex_init(streams, kex, stream, init),
            Ok(KeyExPayload::Confirm(tag)) => self.key_ex_confirm(streams, kex, stream, &tag),
            Err(e) => refuse(stream, ErrorCode::BadHandshake, &e.to_string()),
        }
    }

    /// MHKX phase 1: derive session material from the client's ephemeral
    /// public key and park it until the client confirms. The server's
    /// ephemeral secret drops at the end of this function — after that,
    /// nothing held anywhere can reconstruct the shared secret (forward
    /// secrecy); only the derived session material survives.
    fn key_ex_init(
        &self,
        streams: &mut StreamTable,
        kex: &mut KexTable,
        stream: u64,
        init: KeyExInit,
    ) -> Frame {
        // Pre-checks mirror the Hello/Rekey paths so a handshake doomed to
        // fail in phase 2 is refused before any derivation work. They are
        // re-checked at phase 2 — the world can change in between.
        if init.epoch == 0 {
            if streams.contains_key(&stream) {
                return refuse(stream, ErrorCode::StreamExists, "stream id already open");
            }
            if let Err(reply) = self.check_admissible(&self.registry(), stream) {
                return reply;
            }
        } else {
            let Some(&expected) = streams.get(&stream) else {
                return refuse(
                    stream,
                    ErrorCode::UnknownStream,
                    "key-ex rekey targets a stream this connection does not own",
                );
            };
            let (current, _) = split_seq(expected);
            if init.epoch <= current {
                return refuse(
                    stream,
                    ErrorCode::StaleEpoch,
                    &format!("epoch {} is not newer than current {current}", init.epoch),
                );
            }
        }
        // A retry for the same stream replaces its pending entry; only
        // exchanges on *distinct* streams count against the cap.
        if kex.len() >= MAX_PENDING_KEX && !kex.contains_key(&stream) {
            return refuse(
                stream,
                ErrorCode::ServerBusy,
                "too many key exchanges in flight on this connection",
            );
        }
        let secret = EphemeralSecret::generate();
        let server_pub = secret.public_key();
        let Ok(shared) = secret.diffie_hellman(&init.public_key) else {
            ServerStats::bump(&self.stats.kex_rejected);
            return refuse(
                stream,
                ErrorCode::KeyConfirmFailed,
                "client public key is a low-order point",
            );
        };
        let t = transcript(
            stream,
            init.epoch,
            init.algorithm.tag(),
            init.profile.tag(),
            &init.public_key,
            &server_pub,
        );
        let material = derive_session(&shared, &t);
        kex.insert(
            stream,
            PendingKex {
                expected_tag: material.tag_client,
                key_bytes: material.key_bytes,
                seed: material.seed,
                algorithm: init.algorithm,
                profile: init.profile,
                epoch: init.epoch,
            },
        );
        Frame::new(FrameKind::KeyExAck, stream, 0)
            .with_payload(encode_key_ex_ack_init(&server_pub, &material.tag_server))
    }

    /// MHKX phase 2: verify the client's confirmation tag, then — and
    /// only then — allocate the stream (epoch 0) or rotate it (epoch >
    /// 0). A failed tag leaves **no** session state behind: the pending
    /// entry is consumed, the mux and registry are untouched.
    fn key_ex_confirm(
        &self,
        streams: &mut StreamTable,
        kex: &mut KexTable,
        stream: u64,
        tag: &[u8; KEX_TAG_LEN],
    ) -> Frame {
        let Some(pending) = kex.remove(&stream) else {
            return refuse(
                stream,
                ErrorCode::BadHandshake,
                "no key exchange in flight on this stream",
            );
        };
        if !tags_equal(tag, &pending.expected_tag) {
            ServerStats::bump(&self.stats.kex_rejected);
            return refuse(
                stream,
                ErrorCode::KeyConfirmFailed,
                "key-confirmation tag mismatch; no session was created",
            );
        }
        let key = match Key::from_bytes(&pending.key_bytes) {
            Ok(key) => key,
            // Unreachable for KDF output (16 bytes always pack), kept
            // total for the serving path.
            Err(e) => return refuse(stream, ErrorCode::Engine, &e.to_string()),
        };
        let token = if pending.epoch == 0 {
            // Unreachable failure: the KDF never derives a zero seed.
            let ring = || {
                KeyRing::single(key, pending.seed)
                    .map_err(|e| refuse(stream, ErrorCode::Engine, &e.to_string()))
            };
            match self.admit(streams, stream, pending.algorithm, pending.profile, ring) {
                Ok(token) => token,
                Err(reply) => return reply,
            }
        } else {
            if !streams.contains_key(&stream) {
                return refuse(
                    stream,
                    ErrorCode::UnknownStream,
                    "key-ex rekey targets a stream this connection does not own",
                );
            }
            match self
                .mux
                .rekey_with(StreamId(stream), pending.epoch, key, pending.seed)
            {
                Ok(epoch) => self.rotated(streams, stream, epoch),
                Err(GatewayError::StaleEpoch { current, requested }) => {
                    return refuse(
                        stream,
                        ErrorCode::StaleEpoch,
                        &format!("epoch {requested} is not newer than current {current}"),
                    );
                }
                Err(e) => return refuse(stream, ErrorCode::Engine, &e.to_string()),
            }
        };
        ServerStats::bump(&self.stats.kex_completed);
        Frame::new(FrameKind::KeyExAck, stream, 0).with_payload(encode_key_ex_ack_done(token))
    }

    fn resume_stream(&self, streams: &mut StreamTable, frame: &Frame) -> Frame {
        let stream = frame.stream;
        let Some(token) = decode_token(&frame.payload) else {
            return refuse(
                stream,
                ErrorCode::BadHandshake,
                "resume payload must be the 8-byte resume token",
            );
        };
        match self.unpark(stream, token) {
            Unpark::Restored(epoch) => {
                // The snapshot carries the key epoch; the new session's
                // sequence space starts at counter 0 *in that epoch*, and
                // the ack tells the client which epoch that is.
                streams.insert(stream, join_seq(epoch, 0));
                Frame::new(FrameKind::HelloAck, stream, 0)
                    .with_flags(flags::RESUMED)
                    .with_payload(encode_resumed_ack(token, epoch))
            }
            // One uniform answer for "no snapshot" and "wrong token":
            // probing ids must not reveal which streams are parked. (A
            // resume racing the eviction that parks the snapshot also
            // lands here — clients retry; the eviction is asynchronous by
            // design.)
            Unpark::BadToken | Unpark::NotParked => refuse(
                stream,
                ErrorCode::NoSnapshot,
                "no snapshot parked for this stream",
            ),
            Unpark::Failed(GatewayError::StreamExists(_)) => {
                refuse(stream, ErrorCode::StreamExists, "stream id already open")
            }
            Unpark::Failed(e) => refuse(stream, ErrorCode::Engine, &e.to_string()),
        }
    }

    /// Checks `token` against `stream`'s resume token and restores its
    /// parked snapshot into the mux. The registry is held across the
    /// restore, so the snapshot is never observable as "neither parked
    /// nor live" by another reactor; a failed restore parks it again, as
    /// it is still the only copy of the stream's state.
    pub(crate) fn unpark(&self, stream: u64, token: u64) -> Unpark {
        let mut reg = self.registry();
        if reg.tokens.get(&stream) != Some(&token) {
            return Unpark::BadToken;
        }
        let Some(snapshot) = reg.snapshots.remove(&stream) else {
            return Unpark::NotParked;
        };
        match self.mux.restore(&snapshot) {
            Ok(id) => {
                debug_assert_eq!(id.0, stream, "snapshot carries its own id");
                ServerStats::bump(&self.stats.streams_resumed);
                Unpark::Restored(self.mux.epoch(id).unwrap_or(0))
            }
            Err(e) => {
                reg.snapshots.insert(stream, snapshot);
                Unpark::Failed(e)
            }
        }
    }
}

/// One readiness loop over a disjoint set of connections. The acceptor
/// feeds it sockets over `intake`; everything else it owns — reactor 0
/// also owns the MHNP-D socket, when the datagram path is on.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    intake: mpsc::Receiver<TcpStream>,
    conns: Vec<Conn<TcpStream>>,
    dgram: Option<DgramPort>,
    /// Scratch for socket reads, allocated once per reactor.
    scratch: Vec<u8>,
}

impl Reactor {
    pub(crate) fn new(
        shared: Arc<Shared>,
        intake: mpsc::Receiver<TcpStream>,
        dgram: Option<DgramPort>,
    ) -> Reactor {
        Reactor {
            shared,
            intake,
            conns: Vec::new(),
            dgram,
            scratch: vec![0; 64 << 10],
        }
    }

    /// Runs the loop until `shutdown` turns true (dedicated-thread mode).
    pub(crate) fn run(mut self, shutdown: &AtomicBool) {
        while !shutdown.load(Ordering::Relaxed) {
            if !self.step() {
                std::thread::sleep(self.shared.cfg.idle_sleep);
            }
        }
    }

    /// One intake-drain plus one tick. Returns whether anything happened
    /// (socket adopted, bytes or datagrams moved, frames handled).
    pub(crate) fn step(&mut self) -> bool {
        let mut progress = false;
        while let Ok(sock) = self.intake.try_recv() {
            self.conns.push(Conn::new(sock));
            progress = true;
        }
        progress | self.tick()
    }

    /// One pass over this reactor's connections and its datagram socket.
    /// Reads and parses every connection, then drains the socket,
    /// funnelling `Data`/`Rekey` frames and datagram chunks into **one**
    /// [`StreamMux::submit_batch`] for the whole reactor tick; then
    /// answers every request in order — into its connection's write
    /// buffer, or straight back to its datagram peer — and flushes.
    fn tick(&mut self) -> bool {
        let Reactor {
            shared,
            conns,
            dgram,
            scratch,
            intake: _,
        } = self;
        let cfg = &shared.cfg;
        let mut progress = false;

        // Tickets remember per-conn request order; goodbye frames for
        // framing violations are deferred so they land *after* the
        // replies to valid frames parsed earlier in the same tick.
        // `rekey_pending` holds streams whose Rekey is queued but not yet
        // acked (see `Conn::validate_data`).
        let mut batch: Vec<(StreamId, StreamOp)> = Vec::new();
        let mut tickets: Vec<DataTicket> = Vec::new();
        let mut goodbyes: Vec<(usize, Frame)> = Vec::new();
        let mut rekey_pending: HashSet<u64> = HashSet::new();
        {
            let mut sink = TickSink {
                batch: &mut batch,
                tickets: &mut tickets,
                goodbyes: &mut goodbyes,
                rekey_pending: &mut rekey_pending,
                stats: &shared.stats,
            };
            let mut control = |streams: &mut StreamTable, kex: &mut KexTable, frame: &Frame| {
                shared.handle_control(streams, kex, frame)
            };
            for (idx, conn) in conns.iter_mut().enumerate() {
                progress |= conn.read_tick(scratch, cfg.read_budget, cfg.write_buf_limit);
                progress |= conn.parse_tick(idx, &mut sink, &mut control);
            }
            if let Some(port) = dgram.as_mut() {
                progress |= port.drain_tick(shared, scratch, cfg.read_budget, &mut sink);
            }
        }

        // The tick's entire crypto workload: one submission, one pool job
        // per busy shard, per-stream errors confined to their slots. (A
        // tick can hold tickets but no batch when every request was
        // rejected before touching cipher state.)
        if !tickets.is_empty() {
            // Results are taken (moved) into their replies — block
            // vectors are several times the plaintext size, so cloning
            // them here would dominate the reply path.
            let mut results: Vec<Option<Result<StreamOutput, GatewayError>>> = if batch.is_empty() {
                Vec::new()
            } else {
                shared
                    .mux
                    .submit_batch(batch)
                    .into_iter()
                    .map(Some)
                    .collect()
            };
            for DataTicket {
                to,
                stream,
                seq,
                bit_len,
                slot,
            } in tickets
            {
                let answer = take_answer(slot, &mut results);
                let idx = match to {
                    ReplyTo::Conn(idx) => idx,
                    ReplyTo::Peer(peer) => {
                        // Only reactor 0 queues datagram tickets, and it
                        // owns the socket.
                        if let Some(port) = dgram.as_mut() {
                            port.answer(&shared.stats, peer, stream, seq, bit_len, &answer);
                        }
                        continue;
                    }
                };
                // Tickets are minted with this tick's enumerate index, so
                // the lookup cannot miss; `get_mut` keeps a bookkeeping bug
                // from panicking the whole reactor.
                let Some(conn) = conns.get_mut(idx) else {
                    debug_assert!(false, "ticket for a connection this tick never saw");
                    continue;
                };
                if let Ok(StreamOutput::Rekeyed { epoch }) = answer {
                    let token = shared.rotated(&mut conn.streams, stream, epoch);
                    let ack = encode_rekey_ack(epoch, token);
                    conn.push_frame(
                        &Frame::new(FrameKind::RekeyAck, stream, seq).with_payload(ack),
                    );
                } else {
                    conn.push_answer(stream, seq, bit_len, &answer);
                }
                ServerStats::bump(&shared.stats.frames_sent);
            }
            progress = true;
        }

        // Goodbyes go out only now, behind every reply the connection is
        // still owed from this tick.
        for (idx, frame) in goodbyes {
            // Goodbye indices were minted by the same enumerate loop that
            // filled `conns`; a miss is a bookkeeping bug, and the peer is
            // being hung up on anyway.
            let Some(conn) = conns.get_mut(idx) else {
                debug_assert!(false, "goodbye for a connection this tick never saw");
                continue;
            };
            conn.push_frame(&frame);
            ServerStats::bump(&shared.stats.frames_sent);
            progress = true;
        }

        for conn in conns.iter_mut() {
            progress |= conn.flush_tick();
        }
        Self::reap_dead(shared, conns);
        progress
    }

    /// Tears down dead connections, parking each owned stream's snapshot
    /// for a future `Resume` — possibly arriving through a connection on
    /// a *different* reactor (or closing it when the store is full).
    fn reap_dead(shared: &Shared, conns: &mut Vec<Conn<TcpStream>>) {
        for conn in conns.iter_mut() {
            conn.expire_grace(shared.cfg.close_grace);
        }
        for conn in conns.iter_mut() {
            if !conn.dead {
                continue;
            }
            ServerStats::bump(&shared.stats.connections_closed);
            shared
                .stats
                .connections_open
                .fetch_sub(1, Ordering::Relaxed);
            let streams: Vec<u64> = conn.streams.drain().map(|(id, _)| id).collect();
            for id in streams {
                // Registry held across the evict: between "removed from
                // the mux" and "snapshot parked" no other reactor can
                // observe the stream as simply gone.
                let mut reg = shared.registry();
                if reg.snapshots.len() < shared.cfg.snapshot_capacity {
                    if let Ok(snap) = shared.mux.evict(StreamId(id)) {
                        reg.snapshots.insert(id, snap);
                        // The token survives with the snapshot: a Resume
                        // presenting it reclaims the stream.
                        ServerStats::bump(&shared.stats.streams_evicted);
                    }
                } else {
                    if shared.mux.close(StreamId(id)).is_ok() {
                        ServerStats::bump(&shared.stats.streams_dropped);
                    }
                    reg.tokens.remove(&id);
                }
            }
        }
        conns.retain(|c| !c.dead);
    }
}

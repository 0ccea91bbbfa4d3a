//! Adversarial MHNP-D suite: malformed, replayed, stale and cross-peer
//! datagrams against a live server's UDP path.
//!
//! Every case checks three things: the datagram driver answers abuse per
//! its refusal policy (an attributed `Error` frame for packets it can
//! pin to a stream, **silence** for packets it cannot — no UDP
//! amplification), the abuse burns no usable cipher state, and the blast
//! radius is zero — a healthy TCP stream pumping oracle-checked traffic
//! through the same mux, and a healthy datagram stream on the same
//! driver, both come out bit-exact after every attack.

use std::io::Write;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::Duration;

use mhhea::pipeline::chunk_seed;
use mhhea::session::EncryptSession;
use mhhea::{Key, KeyRing, LfsrSource};
use mhhea_net::client::NetClient;
use mhhea_net::dgram::{decode_datagram, DgramClient, DGRAM_MAX_PACKET_BYTES};
use mhhea_net::frame::{self, encode_blocks, flags, join_seq, ErrorCode, Frame, FrameKind, Hello};
use mhhea_net::server::{NetServer, ServerConfig, ServerHandle};

fn key() -> Key {
    Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 4)]).unwrap()
}

/// Reactor threads for every per-test server: 1 by default, overridable
/// with `MHNP_REACTORS` (reactor 0 serves the datagram socket either
/// way, but attach/rekey races differ with the TCP side's parallelism).
fn reactors() -> usize {
    std::env::var("MHNP_REACTORS")
        .ok()
        .map(|v| v.parse().expect("MHNP_REACTORS must be a positive integer"))
        .unwrap_or(1)
}

fn spawn_server() -> ServerHandle {
    NetServer::spawn(
        "127.0.0.1:0",
        ServerConfig::new([(1, key())])
            .with_dgram()
            .with_reactors(reactors()),
    )
    .expect("bind server")
}

fn dgram_addr(handle: &ServerHandle) -> SocketAddr {
    handle.dgram_addr().expect("dgram path enabled")
}

/// A healthy TCP client+oracle pair, used to prove an attack on the UDP
/// path desynchronised nothing on the shared mux.
struct Witness {
    client: NetClient,
    oracle: EncryptSession<LfsrSource>,
    stream: u64,
    round: u32,
}

impl Witness {
    fn open(addr: SocketAddr, stream: u64) -> Witness {
        let mut client = NetClient::connect(addr).unwrap();
        client.open_stream(stream, Hello::new(1, 0xD1CE)).unwrap();
        Witness {
            client,
            oracle: EncryptSession::new(key().clone(), LfsrSource::new(0xD1CE).unwrap()),
            stream,
            round: 0,
        }
    }

    /// One oracle-checked message; panics on any drift.
    fn pump(&mut self) {
        let msg = format!("witness round {} on stream {}", self.round, self.stream);
        self.round += 1;
        let sealed = self.client.seal(self.stream, msg.as_bytes()).unwrap();
        let want = self.oracle.encrypt(msg.as_bytes()).unwrap();
        assert_eq!(sealed.blocks, want, "witness TCP stream desynchronised");
    }
}

/// A raw attacker socket: full control over every header field.
struct Raw {
    sock: UdpSocket,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        Raw { sock }
    }

    fn send(&self, frame: &Frame) {
        self.sock.send(&frame.encode()).unwrap();
    }

    fn send_bytes(&self, bytes: &[u8]) {
        self.sock.send(bytes).unwrap();
    }

    /// One decodable reply, or `None` on timeout (the silent-drop case).
    fn recv(&self) -> Option<Frame> {
        let mut buf = [0u8; DGRAM_MAX_PACKET_BYTES];
        loop {
            match self.sock.recv(&mut buf) {
                Ok(n) => {
                    if let Ok(frame) = decode_datagram(&buf[..n]) {
                        return Some(frame);
                    }
                }
                Err(_) => return None,
            }
        }
    }

    fn exchange(&self, frame: &Frame) -> Option<Frame> {
        self.send(frame);
        self.recv()
    }

    /// Attaches `stream` by token and asserts the acked epoch.
    fn attach(&self, stream: u64, token: u64, want_epoch: u32) {
        let ack = self
            .exchange(
                &Frame::new(FrameKind::DgramResume, stream, 0)
                    .with_payload(token.to_le_bytes().to_vec()),
            )
            .expect("attach should be acked");
        assert_eq!(ack.kind, FrameKind::DgramAck);
        assert_eq!(frame::decode_rekey(&ack.payload).unwrap(), want_epoch);
    }
}

/// Unpacks an `Error` reply and asserts it is attributed to the frame
/// that provoked it.
fn expect_error(reply: Option<Frame>, stream: u64, seq: u64, code: ErrorCode) -> String {
    let reply = reply.expect("abuse should be answered, not ignored");
    assert_eq!(reply.kind, FrameKind::Error);
    assert_eq!(reply.stream, stream, "error not attributed to the stream");
    assert_eq!(reply.seq, seq, "error not attributed to the offending seq");
    let (got, detail) = frame::decode_error(&reply.payload);
    assert_eq!(got, Some(code), "wrong refusal code: {detail}");
    detail
}

/// Opens a stream over TCP and returns `(tcp, token, ring)` ready for
/// datagram attachment.
fn open_stream(handle: &ServerHandle, stream: u64, seed: u16) -> (NetClient, u64, KeyRing) {
    let mut tcp = NetClient::connect(handle.addr()).unwrap();
    let token = tcp.open_stream(stream, Hello::new(1, seed)).unwrap();
    (tcp, token, KeyRing::single(key(), seed).unwrap())
}

fn oracle_seal_chunk(ring: &KeyRing, epoch: u32, index: u32, chunk: &[u8]) -> Vec<u16> {
    let mut enc = EncryptSession::new(
        ring.key(epoch).clone(),
        LfsrSource::new(chunk_seed(ring.seed(epoch), index)).unwrap(),
    );
    enc.encrypt(chunk).unwrap()
}

/// Asserts a raw seal exchange succeeds and the ciphertext matches the
/// oracle — the liveness probe proving abuse burned no cipher state.
fn seal_exact(raw: &Raw, stream: u64, ring: &KeyRing, epoch: u32, index: u32, plain: &[u8]) {
    let reply = raw
        .exchange(
            &Frame::new(FrameKind::DgramData, stream, join_seq(epoch, index))
                .with_payload(plain.to_vec()),
        )
        .expect("healthy seal should be answered");
    assert_eq!(reply.kind, FrameKind::DgramReply, "healthy seal refused");
    assert_eq!(reply.seq, join_seq(epoch, index));
    let (bit_len, blocks) = frame::decode_blocks(&reply.payload).unwrap();
    assert_eq!(bit_len as usize, plain.len() * 8);
    assert_eq!(
        blocks,
        oracle_seal_chunk(ring, epoch, index, plain),
        "sealed chunk drifted after abuse"
    );
}

// ---------------------------------------------------------------------
// Unattributable garbage: silence, not amplification.
// ---------------------------------------------------------------------

#[test]
fn garbage_packets_are_dropped_silently() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 900);
    let (_tcp, token, ring) = open_stream(&server, 901, 0x5EED);
    let raw = Raw::connect(dgram_addr(&server));
    raw.attach(901, token, 0);

    let valid = Frame::new(FrameKind::DgramData, 901, join_seq(0, 7)).with_payload(vec![9; 8]);
    let bytes = valid.encode();

    // Truncated at every interesting boundary: mid-header, exactly a
    // header, mid-payload.
    for cut in [1, 8, frame::HEADER_LEN, bytes.len() - 1] {
        raw.send_bytes(&bytes[..cut]);
    }
    // Flipped payload byte (CRC fails), flipped magic, empty datagram.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0xFF;
    raw.send_bytes(&flipped);
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    raw.send_bytes(&bad_magic);
    raw.send_bytes(&[]);
    // Trailing garbage glued onto a valid frame.
    let mut padded = bytes.clone();
    padded.extend_from_slice(b"tail");
    raw.send_bytes(&padded);
    // A perfectly well-formed frame of a TCP-only kind: refused without
    // a reply, because an attacker could forge any source address.
    raw.send(&Frame::new(FrameKind::Data, 901, 0).with_payload(vec![1; 4]));

    assert!(raw.recv().is_none(), "garbage must not be answered");
    let rejected = server
        .stats()
        .dgram_rejected
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(rejected >= 8, "driver counted {rejected} of 8 rejections");

    // The driver is still alive and the attached stream still seals
    // bit-exactly: nothing above consumed an index or a keystream.
    seal_exact(&raw, 901, &ring, 0, 0, b"still alive after the garbage");
    witness.pump();
}

// ---------------------------------------------------------------------
// Attach abuse.
// ---------------------------------------------------------------------

#[test]
fn wrong_token_and_malformed_attach_are_dropped_silently() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 910);
    let (_tcp, token, ring) = open_stream(&server, 911, 0x0AD5);
    let raw = Raw::connect(dgram_addr(&server));

    // Wrong token, unknown stream, malformed (7-byte) token payload:
    // none of these sources has passed the token check, so each gets
    // the same uniform answer — silence. An `Error` reply would be ~2x
    // amplification toward a spoofed source and would leak whether the
    // stream exists, is live, or is parked.
    raw.send(
        &Frame::new(FrameKind::DgramResume, 911, 0)
            .with_payload((token ^ 0xBAD).to_le_bytes().to_vec()),
    );
    raw.send(
        &Frame::new(FrameKind::DgramResume, 987_654, 0).with_payload(token.to_le_bytes().to_vec()),
    );
    raw.send(&Frame::new(FrameKind::DgramResume, 911, 0).with_payload(vec![0; 7]));
    assert!(raw.recv().is_none(), "attach refusals must not be answered");
    let rejected = server
        .stats()
        .dgram_rejected
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(rejected >= 3, "driver counted {rejected} of 3 refusals");

    // The real token still works after all three refusals.
    raw.attach(911, token, 0);
    seal_exact(&raw, 911, &ring, 0, 0, b"attach abuse burned nothing");
    witness.pump();
}

// ---------------------------------------------------------------------
// Replay, stale epochs, window overflow.
// ---------------------------------------------------------------------

#[test]
fn replayed_chunk_indices_are_refused() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 920);
    let (_tcp, token, ring) = open_stream(&server, 921, 0x3E3D);
    let raw = Raw::connect(dgram_addr(&server));
    raw.attach(921, token, 0);

    // First use of index 5: sealed.
    seal_exact(&raw, 921, &ring, 0, 5, b"the one legitimate use");

    // Exact replay of index 5 — and a *different* plaintext at index 5,
    // the keystream-reuse attack the window exists to stop.
    for plain in [
        &b"the one legitimate use"[..],
        &b"second body, same pad"[..],
    ] {
        let reply = raw.exchange(
            &Frame::new(FrameKind::DgramData, 921, join_seq(0, 5)).with_payload(plain.to_vec()),
        );
        expect_error(reply, 921, join_seq(0, 5), ErrorCode::DuplicateChunk);
    }

    // Neighbouring indices are untouched by the refusals.
    seal_exact(&raw, 921, &ring, 0, 4, b"below the burned slot");
    seal_exact(&raw, 921, &ring, 0, 6, b"above the burned slot");
    witness.pump();
}

#[test]
fn stale_and_future_epoch_datagrams_are_refused() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 930);
    let (mut tcp, token, ring) = open_stream(&server, 931, 0x11AD);
    let raw = Raw::connect(dgram_addr(&server));
    raw.attach(931, token, 0);
    seal_exact(&raw, 931, &ring, 0, 0, b"epoch zero traffic");

    // Rotate over TCP: the datagram entry must follow the mux, not its
    // own cached epoch.
    tcp.rekey(931, 1).unwrap();

    // Old-epoch datagram (a capture replayed after rotation).
    let reply = raw
        .exchange(&Frame::new(FrameKind::DgramData, 931, join_seq(0, 1)).with_payload(vec![7; 8]));
    expect_error(reply, 931, join_seq(0, 1), ErrorCode::StaleEpoch);
    // Future epoch: equally refused — epochs only advance through the
    // rekey handshake.
    let reply = raw
        .exchange(&Frame::new(FrameKind::DgramData, 931, join_seq(9, 0)).with_payload(vec![7; 8]));
    expect_error(reply, 931, join_seq(9, 0), ErrorCode::StaleEpoch);

    // Current-epoch traffic flows, keyed under the rotated ring — and
    // index 0 is fresh again, because rotation reset the replay window
    // along with the keystream space.
    seal_exact(&raw, 931, &ring, 1, 0, b"epoch one traffic");
    witness.pump();
}

#[test]
fn window_overflow_expires_chunks_behind_the_flood() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 940);
    let (_tcp, token, ring) = open_stream(&server, 941, 0x77DD);
    let raw = Raw::connect(dgram_addr(&server));
    raw.attach(941, token, 0);

    // Jump the window far ahead (default width 1024): everything the
    // flood left behind is now unacceptable, even though it was never
    // used — the server cannot distinguish "late" from "replayed after
    // eviction from the ring", so it refuses.
    seal_exact(&raw, 941, &ring, 0, 50_000, b"the flood's high-water mark");
    for behind in [0u32, 1_000, 48_975] {
        let reply = raw.exchange(
            &Frame::new(FrameKind::DgramData, 941, join_seq(0, behind)).with_payload(vec![3; 8]),
        );
        expect_error(reply, 941, join_seq(0, behind), ErrorCode::ChunkExpired);
    }
    // Indices inside the window still work, in any order.
    seal_exact(
        &raw,
        941,
        &ring,
        0,
        49_500,
        b"inside the window, behind the head",
    );
    seal_exact(&raw, 941, &ring, 0, 50_001, b"ahead of the head");
    witness.pump();
}

// ---------------------------------------------------------------------
// Park / re-attach: the replay window must survive eviction.
// ---------------------------------------------------------------------

/// The keystream-reuse regression across a park: serve an index, kill
/// the TCP side so the stream evicts to a snapshot, poke the parked
/// stream over UDP (the path that used to discard the driver's entry),
/// re-attach at the same epoch, and replay the served index. The replay
/// windows must come back burned — fresh windows here would re-seal
/// index 5 under the exact keystream that already sealed it once, both
/// for a replaying attacker and for a restarted client whose chunk
/// counter restarts at 0.
#[test]
fn park_and_re_attach_does_not_reopen_burned_indices() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 990);
    let (tcp, token, ring) = open_stream(&server, 991, 0xAB1E);
    let raw = Raw::connect(dgram_addr(&server));
    raw.attach(991, token, 0);
    seal_exact(&raw, 991, &ring, 0, 5, b"the one legitimate use");

    // Kill the TCP connection and wait until the reactor parks the
    // stream (eviction is asynchronous with the disconnect).
    drop(tcp);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server
        .stats()
        .streams_evicted
        .load(std::sync::atomic::Ordering::Relaxed)
        == 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "stream 991 was never evicted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Data while parked: refused with a reply (this peer passed the
    // token check) — and the refusal runs before the window, so index 6
    // is not burned.
    let reply = raw
        .exchange(&Frame::new(FrameKind::DgramData, 991, join_seq(0, 6)).with_payload(vec![7; 8]));
    expect_error(reply, 991, join_seq(0, 6), ErrorCode::UnknownStream);

    // Re-attach restores the snapshot at the same epoch...
    raw.attach(991, token, 0);
    // ...with the replay history intact: the served index is refused,
    // whatever the plaintext.
    let reply = raw.exchange(
        &Frame::new(FrameKind::DgramData, 991, join_seq(0, 5))
            .with_payload(b"second body, same pad".to_vec()),
    );
    expect_error(reply, 991, join_seq(0, 5), ErrorCode::DuplicateChunk);
    // The index refused while parked burned nothing and still seals.
    seal_exact(&raw, 991, &ring, 0, 6, b"fresh index after the resume");
    witness.pump();
}

// ---------------------------------------------------------------------
// Cross-stream / cross-peer injection.
// ---------------------------------------------------------------------

#[test]
fn foreign_peers_cannot_reach_an_attached_stream() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 950);
    let (_tcp, token, ring) = open_stream(&server, 951, 0x5151);
    let owner = Raw::connect(dgram_addr(&server));
    owner.attach(951, token, 0);

    // A different socket (different source port) injects data for the
    // attached stream, then for a stream that never attached: both get
    // the same uniform answer — silence. Any reply would reveal that
    // the first id is served here, and the intruder's source address
    // has earned nothing better than an undecodable packet gets.
    let intruder = Raw::connect(dgram_addr(&server));
    intruder.send(&Frame::new(FrameKind::DgramData, 951, join_seq(0, 0)).with_payload(vec![1; 8]));
    intruder
        .send(&Frame::new(FrameKind::DgramData, 424_242, join_seq(0, 0)).with_payload(vec![1; 8]));
    assert!(
        intruder.recv().is_none(),
        "wrong-peer and never-attached data must not be answered"
    );

    // The intruder burned nothing: the owner's index 0 is still fresh.
    seal_exact(&owner, 951, &ring, 0, 0, b"owner's first chunk, untouched");
    witness.pump();
}

// ---------------------------------------------------------------------
// Kind/transport confusion, both directions.
// ---------------------------------------------------------------------

#[test]
fn datagram_kinds_over_tcp_hang_up_the_connection() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 960);

    for kind in [
        FrameKind::DgramResume,
        FrameKind::DgramAck,
        FrameKind::DgramData,
        FrameKind::DgramReply,
    ] {
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.write_all(&Frame::new(kind, 961, 0).with_payload(vec![0; 8]).encode())
            .unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = Vec::new();
        let mut scratch = [0u8; 4096];
        let reply = loop {
            if let Ok(Some((reply, used))) = frame::decode(&buf) {
                buf.drain(..used);
                break Some(reply);
            }
            match std::io::Read::read(&mut sock, &mut scratch) {
                Ok(0) | Err(_) => break None,
                Ok(n) => buf.extend_from_slice(&scratch[..n]),
            }
        };
        let reply = reply.expect("stream transport answers before hanging up");
        assert_eq!(reply.kind, FrameKind::Error);
        let (code, _) = frame::decode_error(&reply.payload);
        assert_eq!(code, Some(ErrorCode::Protocol));
        // And the connection is gone.
        assert_eq!(std::io::Read::read(&mut sock, &mut scratch).unwrap_or(0), 0);
    }
    witness.pump();
}

#[test]
fn oversize_and_malformed_data_payloads_are_refused_shape_first() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 970);
    let (_tcp, token, ring) = open_stream(&server, 971, 0x0777);
    let raw = Raw::connect(dgram_addr(&server));
    raw.attach(971, token, 0);

    // Oversize seal plaintext: refused before the window, so the index
    // is NOT burned.
    let reply = raw.exchange(
        &Frame::new(FrameKind::DgramData, 971, join_seq(0, 0)).with_payload(vec![0; 1025]),
    );
    expect_error(reply, 971, join_seq(0, 0), ErrorCode::MessageTooLarge);

    // Open request whose payload is not a block vector: a shape error.
    let reply = raw.exchange(
        &Frame::new(FrameKind::DgramData, 971, join_seq(0, 0))
            .with_flags(flags::DIR_OPEN)
            .with_payload(vec![1, 2, 3]),
    );
    expect_error(reply, 971, join_seq(0, 0), ErrorCode::Protocol);

    // Open request claiming more plaintext bits than a chunk may hold.
    let blocks = vec![0u16; 8];
    let reply = raw.exchange(
        &Frame::new(FrameKind::DgramData, 971, join_seq(0, 0))
            .with_flags(flags::DIR_OPEN)
            .with_payload(encode_blocks(1024 * 8 + 1, &blocks)),
    );
    expect_error(reply, 971, join_seq(0, 0), ErrorCode::MessageTooLarge);

    // None of the refusals burned index 0.
    seal_exact(&raw, 971, &ring, 0, 0, b"index zero survived the probes");
    witness.pump();
}

// ---------------------------------------------------------------------
// A flood does not wedge the driver for other clients.
// ---------------------------------------------------------------------

#[test]
fn a_flooding_peer_does_not_starve_a_healthy_dgram_client() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 980);
    let (_tcp, token, _ring) = open_stream(&server, 981, 0xF00D);

    // The flood: 500 packets of varied abuse from one socket.
    let attacker = Raw::connect(dgram_addr(&server));
    for i in 0..500u64 {
        match i % 3 {
            0 => attacker.send_bytes(b"not even a header"),
            1 => attacker.send(
                &Frame::new(FrameKind::DgramData, i, join_seq(0, i as u32))
                    .with_payload(vec![0; 32]),
            ),
            _ => attacker.send(
                &Frame::new(FrameKind::DgramResume, i, 0).with_payload(7u64.to_le_bytes().to_vec()),
            ),
        }
    }

    // A healthy client attaches and round-trips through the same driver
    // while the flood drains.
    let mut dgram = DgramClient::connect(dgram_addr(&server)).unwrap();
    assert_eq!(dgram.attach(981, token).unwrap(), 0);
    let sealed = dgram
        .seal(981, b"healthy traffic through the flood")
        .unwrap();
    assert!(sealed.is_complete(), "flood starved a healthy client");
    let opened = dgram.open(981, &sealed.delivered).unwrap();
    assert!(opened.is_complete());
    let plain: Vec<u8> = opened.delivered.into_iter().flat_map(|c| c.plain).collect();
    assert_eq!(plain, b"healthy traffic through the flood");
    witness.pump();
}

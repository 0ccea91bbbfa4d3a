//! Adversarial MHNP suite: malformed, corrupted and out-of-order frames
//! against a live server.
//!
//! Every case checks two things: the server answers the abuse cleanly
//! (a machine-readable `Error` frame, never a panic or a hang), and the
//! blast radius is exactly one connection or one stream — a healthy
//! stream pumping oracle-checked traffic through the same server must
//! come out bit-exact after each attack.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mhhea::session::EncryptSession;
use mhhea::{Key, LfsrSource};
use mhhea_net::client::NetClient;
use mhhea_net::frame::{
    self, encode_blocks, flags, ErrorCode, Frame, FrameKind, Hello, HEADER_LEN,
};
use mhhea_net::server::{NetServer, ServerConfig, ServerHandle};
use mhhea_net::ClientError;

fn key() -> Key {
    Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 4)]).unwrap()
}

/// Reactor threads for every per-test server: 1 by default, overridable
/// with `MHNP_REACTORS` so CI soaks the whole suite against the
/// multi-threaded server too (the abuse answers must not depend on how
/// many loops serve the connections).
fn reactors() -> usize {
    std::env::var("MHNP_REACTORS")
        .ok()
        .map(|v| v.parse().expect("MHNP_REACTORS must be a positive integer"))
        .unwrap_or(1)
}

fn spawn_server() -> ServerHandle {
    NetServer::spawn(
        "127.0.0.1:0",
        ServerConfig::new([(1, key())]).with_reactors(reactors()),
    )
    .expect("bind server")
}

/// A healthy client+oracle pair on its own connection, used to prove an
/// attack on *another* connection desynchronised nothing.
struct Witness {
    client: NetClient,
    oracle: EncryptSession<LfsrSource>,
    stream: u64,
    round: u32,
}

impl Witness {
    fn open(addr: std::net::SocketAddr, stream: u64) -> Witness {
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
        assert_eq!(sealed.blocks, want, "witness stream desynchronised");
    }
}

/// Reads frames off a raw socket until one decodes, EOF, or timeout.
fn read_one_frame(sock: &mut TcpStream) -> Option<Frame> {
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        if let Ok(Some((frame, used))) = frame::decode(&buf) {
            buf.drain(..used);
            return Some(frame);
        }
        match sock.read(&mut scratch) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(_) => return None,
        }
    }
}

/// Reads consecutive frames off a raw socket, carrying leftover bytes
/// between calls — [`read_one_frame`] discards them, which is fine for
/// one-shot exchanges but loses frames in back-to-back reply streams.
struct FrameReader {
    sock: TcpStream,
    buf: Vec<u8>,
}

impl FrameReader {
    fn new(sock: TcpStream) -> FrameReader {
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        FrameReader {
            sock,
            buf: Vec::new(),
        }
    }

    fn next(&mut self) -> Option<Frame> {
        let mut scratch = [0u8; 4096];
        loop {
            if let Ok(Some((frame, used))) = frame::decode(&self.buf) {
                self.buf.drain(..used);
                return Some(frame);
            }
            match self.sock.read(&mut scratch) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
                Err(_) => return None,
            }
        }
    }
}

fn expect_protocol_error_then_eof(sock: &mut TcpStream) {
    let frame = read_one_frame(sock).expect("server should answer before hanging up");
    assert_eq!(frame.kind, FrameKind::Error);
    let (code, _) = frame::decode_error(&frame.payload);
    assert_eq!(code, Some(ErrorCode::Protocol));
    // After the goodbye frame the server closes the connection.
    assert!(
        read_one_frame(sock).is_none(),
        "connection should be closed"
    );
}

#[test]
fn truncated_header_then_disconnect_is_harmless() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 1);
    witness.pump();

    // 10 bytes of a valid frame prefix, then vanish mid-header.
    let bytes = Frame::new(FrameKind::Hello, 9, 0)
        .with_payload(Hello::new(1, 0xACE1).encode())
        .encode();
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(&bytes[..10]).unwrap();
    drop(sock);

    witness.pump();
    witness.pump();
}

#[test]
fn bad_magic_kills_only_that_connection() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 2);
    witness.pump();

    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    expect_protocol_error_then_eof(&mut sock);

    witness.pump();
}

#[test]
fn wrong_version_rejected() {
    let server = spawn_server();
    let mut bytes = Frame::new(FrameKind::Hello, 3, 0).encode();
    bytes[4] = 9;
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(&bytes).unwrap();
    expect_protocol_error_then_eof(&mut sock);
}

#[test]
fn corrupted_crc_kills_connection_without_touching_cipher_state() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 4);
    witness.pump();

    // A raw connection runs a clean handshake and one clean message on
    // its own stream...
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    let mut oracle = EncryptSession::new(key().clone(), LfsrSource::new(0xBAD1).unwrap());
    sock.write_all(
        &Frame::new(FrameKind::Hello, 40, 0)
            .with_payload(Hello::new(1, 0xBAD1).encode())
            .encode(),
    )
    .unwrap();
    let ack = read_one_frame(&mut sock).unwrap();
    assert_eq!(ack.kind, FrameKind::HelloAck);
    let token = u64::from_le_bytes(ack.payload.as_slice().try_into().unwrap());
    sock.write_all(
        &Frame::new(FrameKind::Data, 40, 0)
            .with_payload(b"clean message".to_vec())
            .encode(),
    )
    .unwrap();
    let reply = read_one_frame(&mut sock).unwrap();
    let (_, blocks) = frame::decode_blocks(&reply.payload).unwrap();
    assert_eq!(blocks, oracle.encrypt(b"clean message").unwrap());

    // ...then a bit-flipped Data frame. Framing integrity is gone, so the
    // connection dies — but the flipped frame must never reach a session.
    let mut corrupt = Frame::new(FrameKind::Data, 40, 1)
        .with_payload(b"this byte flips".to_vec())
        .encode();
    *corrupt.last_mut().unwrap() ^= 0x40;
    sock.write_all(&corrupt).unwrap();
    expect_protocol_error_then_eof(&mut sock);

    // The corrupted frame never reached a cipher session: resuming the
    // evicted stream continues exactly where the oracle is.
    let mut client = NetClient::connect(server.addr()).unwrap();
    client
        .resume_within(40, token, Duration::from_secs(5))
        .unwrap();
    let sealed = client.seal(40, b"after the attack").unwrap();
    assert_eq!(sealed.blocks, oracle.encrypt(b"after the attack").unwrap());

    witness.pump();
}

#[test]
fn oversized_declared_length_rejected_from_header_alone() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 5);

    // Header declaring a 16 MiB payload; the body is never sent.
    let mut bytes = Frame::new(FrameKind::Data, 50, 0).encode();
    bytes[24..28].copy_from_slice(&(16u32 << 20).to_le_bytes());
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(&bytes[..HEADER_LEN]).unwrap();
    // The verdict must arrive although the declared body never will.
    expect_protocol_error_then_eof(&mut sock);

    witness.pump();
}

#[test]
fn replayed_and_skipped_sequence_numbers_rejected_without_desync() {
    let server = spawn_server();
    let mut client = NetClient::connect(server.addr()).unwrap();
    client.open_stream(60, Hello::new(1, 0x5EC1)).unwrap();
    let mut oracle = EncryptSession::new(key().clone(), LfsrSource::new(0x5EC1).unwrap());

    let sealed = client.seal(60, b"message zero").unwrap();
    assert_eq!(sealed.blocks, oracle.encrypt(b"message zero").unwrap());

    // Replay sequence 0 by hand: rejected, cipher state untouched.
    client
        .send_frame(&Frame::new(FrameKind::Data, 60, 0).with_payload(b"replayed".to_vec()))
        .unwrap();
    let reply = client.recv_frame().unwrap();
    assert_eq!(reply.kind, FrameKind::Error);
    assert_eq!(
        frame::decode_error(&reply.payload).0,
        Some(ErrorCode::BadSequence)
    );

    // Skip ahead to sequence 9: same rejection.
    client
        .send_frame(&Frame::new(FrameKind::Data, 60, 9).with_payload(b"skipped".to_vec()))
        .unwrap();
    let reply = client.recv_frame().unwrap();
    assert_eq!(reply.kind, FrameKind::Error);
    assert_eq!(
        frame::decode_error(&reply.payload).0,
        Some(ErrorCode::BadSequence)
    );

    // The stream is not desynchronised: the next in-order message still
    // matches an oracle that never saw the rejected frames.
    let sealed = client.seal(60, b"message one").unwrap();
    assert_eq!(sealed.blocks, oracle.encrypt(b"message one").unwrap());
}

#[test]
fn interleaved_stream_ids_fail_independently() {
    let server = spawn_server();
    let mut client = NetClient::connect(server.addr()).unwrap();
    client.open_stream(70, Hello::new(1, 0x0711)).unwrap();
    client.open_stream(71, Hello::new(1, 0x0712)).unwrap();
    let mut oracle_a = EncryptSession::new(key().clone(), LfsrSource::new(0x0711).unwrap());
    let mut oracle_b = EncryptSession::new(key().clone(), LfsrSource::new(0x0712).unwrap());

    // Pipeline: A(seq 0), never-opened stream 999, B(seq 0) — one tick.
    client
        .send_frame(&Frame::new(FrameKind::Data, 70, 0).with_payload(b"for A".to_vec()))
        .unwrap();
    client
        .send_frame(&Frame::new(FrameKind::Data, 999, 0).with_payload(b"for nobody".to_vec()))
        .unwrap();
    client
        .send_frame(&Frame::new(FrameKind::Data, 71, 0).with_payload(b"for B".to_vec()))
        .unwrap();

    // Replies come back in request order: Reply, Error, Reply.
    let a = client.recv_frame().unwrap();
    assert_eq!((a.kind, a.stream, a.seq), (FrameKind::Reply, 70, 0));
    let (_, blocks_a) = frame::decode_blocks(&a.payload).unwrap();
    assert_eq!(blocks_a, oracle_a.encrypt(b"for A").unwrap());

    let nobody = client.recv_frame().unwrap();
    assert_eq!((nobody.kind, nobody.stream), (FrameKind::Error, 999));
    assert_eq!(
        frame::decode_error(&nobody.payload).0,
        Some(ErrorCode::UnknownStream)
    );

    let b = client.recv_frame().unwrap();
    assert_eq!((b.kind, b.stream, b.seq), (FrameKind::Reply, 71, 0));
    let (_, blocks_b) = frame::decode_blocks(&b.payload).unwrap();
    assert_eq!(blocks_b, oracle_b.encrypt(b"for B").unwrap());
}

#[test]
fn truncated_ciphertext_fails_only_that_request() {
    let server = spawn_server();
    let mut client = NetClient::connect(server.addr()).unwrap();
    client.open_stream(80, Hello::new(1, 0x8080)).unwrap();
    let sealed = client.seal(80, b"a message to mangle").unwrap();

    // Drop the last block: the engine rejects, the stream survives.
    let err = client
        .open(
            80,
            &sealed.blocks[..sealed.blocks.len() - 1],
            sealed.bit_len,
        )
        .unwrap_err();
    assert!(err.is_code(ErrorCode::Engine), "got {err}");

    // The decrypt cursor did not advance: the full blocks still open.
    let plain = client.open(80, &sealed.blocks, sealed.bit_len).unwrap();
    assert_eq!(plain, b"a message to mangle");
}

/// A Data/OPEN frame whose blocks are genuine but whose `bit_len` claims
/// `u32::MAX` bits: the header must not size the decrypt's allocation,
/// the request fails alone, and the cursor stays put.
#[test]
fn forged_max_bit_len_fails_only_that_request() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 7);
    let mut client = NetClient::connect(server.addr()).unwrap();
    client.open_stream(84, Hello::new(1, 0x8484)).unwrap();
    client.open_stream(85, Hello::new(1, 0x8585)).unwrap();
    let sealed = client
        .seal(84, b"a message whose length is forged")
        .unwrap();

    // The client sends the frame as given and reads the server's `Error`
    // frame back as `ClientError::Server`.
    let err = client.open(84, &sealed.blocks, u32::MAX).unwrap_err();
    assert!(err.is_code(ErrorCode::Engine), "got {err}");

    // The stream beside it on the same connection, and another
    // connection's stream, never noticed.
    let other = client.seal(85, b"bystander").unwrap();
    assert_eq!(
        client.open(85, &other.blocks, other.bit_len).unwrap(),
        b"bystander"
    );
    witness.pump();

    // The decrypt cursor did not move: the genuine blocks still open.
    let plain = client.open(84, &sealed.blocks, sealed.bit_len).unwrap();
    assert_eq!(plain, b"a message whose length is forged");
}

#[test]
fn handshake_abuse_is_stream_scoped() {
    let server = spawn_server();
    let mut client = NetClient::connect(server.addr()).unwrap();

    // Unknown key id.
    let err = client.open_stream(90, Hello::new(42, 0xACE1)).unwrap_err();
    assert!(err.is_code(ErrorCode::UnknownKeyId), "got {err}");

    // Zero seed.
    let err = client.open_stream(90, Hello::new(1, 0)).unwrap_err();
    assert!(err.is_code(ErrorCode::BadHandshake), "got {err}");

    // Malformed hello payload.
    client
        .send_frame(&Frame::new(FrameKind::Hello, 90, 0).with_payload(vec![1, 2, 3]))
        .unwrap();
    let reply = client.recv_frame().unwrap();
    assert_eq!(reply.kind, FrameKind::Error);
    assert_eq!(
        frame::decode_error(&reply.payload).0,
        Some(ErrorCode::BadHandshake)
    );

    // Duplicate stream id (already open on another connection).
    let mut other = NetClient::connect(server.addr()).unwrap();
    other.open_stream(91, Hello::new(1, 0xACE1)).unwrap();
    let err = client.open_stream(91, Hello::new(1, 0xACE1)).unwrap_err();
    assert!(err.is_code(ErrorCode::StreamExists), "got {err}");

    // Resume for a stream nobody parked.
    let err = client.resume(92, 0xDEAD_BEEF).unwrap_err();
    assert!(err.is_code(ErrorCode::NoSnapshot), "got {err}");

    // After all of that, the connection still serves a proper handshake.
    client.open_stream(93, Hello::new(1, 0xACE1)).unwrap();
    let sealed = client.seal(93, b"still standing").unwrap();
    let plain = client.open(93, &sealed.blocks, sealed.bit_len).unwrap();
    assert_eq!(plain, b"still standing");
}

#[test]
fn client_sending_server_only_kinds_is_cut_off() {
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 6);

    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(&Frame::new(FrameKind::Reply, 1, 0).encode())
        .unwrap();
    expect_protocol_error_then_eof(&mut sock);

    witness.pump();
}

#[test]
fn open_direction_with_malformed_blocks_payload_is_stream_scoped() {
    let server = spawn_server();
    let mut client = NetClient::connect(server.addr()).unwrap();
    client.open_stream(95, Hello::new(1, 0x9595)).unwrap();
    let mut oracle = EncryptSession::new(key().clone(), LfsrSource::new(0x9595).unwrap());

    // A Data/OPEN frame whose payload is shorter than the bit_len prefix.
    client
        .send_frame(
            &Frame::new(FrameKind::Data, 95, 0)
                .with_flags(flags::DIR_OPEN)
                .with_payload(vec![1, 2]),
        )
        .unwrap();
    let reply = client.recv_frame().unwrap();
    assert_eq!(reply.kind, FrameKind::Error);
    // Rejected before any cipher work; the connection and stream live on,
    // but the sequence number was not consumed.
    client
        .send_frame(&Frame::new(FrameKind::Data, 95, 0).with_payload(b"recovering".to_vec()))
        .unwrap();
    let reply = client.recv_frame().unwrap();
    assert_eq!((reply.kind, reply.seq), (FrameKind::Reply, 0));
    let (_, blocks) = frame::decode_blocks(&reply.payload).unwrap();
    assert_eq!(blocks, oracle.encrypt(b"recovering").unwrap());

    // And a well-formed blocks payload with an odd block count trailing
    // byte is equally stream-scoped.
    client
        .send_frame(
            &Frame::new(FrameKind::Data, 95, 1)
                .with_flags(flags::DIR_OPEN)
                .with_payload(encode_blocks(8, &[0xABCD])[..6].to_vec()),
        )
        .unwrap();
    let reply = client.recv_frame().unwrap();
    assert_eq!(reply.kind, FrameKind::Error);
}

/// `ClientError` renders every variant; exercised here because the suite
/// above matches on codes rather than strings.
#[test]
fn client_error_display_is_informative() {
    let e = ClientError::Server {
        code: Some(ErrorCode::BadSequence),
        detail: "expected 1, got 0".into(),
    };
    assert!(e.to_string().contains("bad sequence"));
    assert!(ClientError::Disconnected.to_string().contains("closed"));
}

/// Blocks until the server has parked at least `want` eviction snapshots
/// (the reap of a dying connection is asynchronous to the client's drop).
fn wait_for_evictions(server: &ServerHandle, want: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server
        .stats()
        .streams_evicted
        .load(std::sync::atomic::Ordering::Relaxed)
        < want
    {
        assert!(
            std::time::Instant::now() < deadline,
            "server never parked the stream"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Regression: a parked stream id stays *occupied*. An unauthenticated
/// Hello can neither take it over nor destroy its snapshot (which is the
/// only copy of another client's cipher state); after a proper
/// Resume + Bye the id is free, and nothing resumes afterwards — no
/// stale state can ever be resurrected.
#[test]
fn parked_stream_id_is_protected_until_resumed_and_discarded() {
    let server = spawn_server();

    // Conn A opens stream 7, advances it, dies → snapshot parked.
    let mut a = NetClient::connect(server.addr()).unwrap();
    let token = a.open_stream(7, Hello::new(1, 0xBEEF)).unwrap();
    a.seal(7, b"state the snapshot will capture").unwrap();
    drop(a);
    wait_for_evictions(&server, 1);

    // An unauthenticated Hello must not supersede the parked snapshot —
    // destroying it would bypass the resume-token protection.
    let mut b = NetClient::connect(server.addr()).unwrap();
    let err = b.open_stream(7, Hello::new(1, 0xF00D)).unwrap_err();
    assert!(err.is_code(ErrorCode::StreamExists), "got {err}");

    // The snapshot survived the attempt: the token still reclaims it,
    // and Bye then genuinely discards the stream.
    b.resume(7, token).unwrap();
    b.seal(7, b"traffic after reclaim").unwrap();
    b.bye(7).unwrap();

    // The id is free for a fresh open now; after its Bye, nothing — not
    // even a once-valid token — resumes anything.
    let new_token = b.open_stream(7, Hello::new(1, 0xF00D)).unwrap();
    b.bye(7).unwrap();
    for tok in [token, new_token] {
        let err = b.resume(7, tok).expect_err("nothing left to resume");
        assert!(err.is_code(ErrorCode::NoSnapshot), "got {err}");
    }
}

/// The snapshot store bound: with room for one snapshot, two dying
/// connections park one stream and close the other; the closed stream's
/// token is gone, and the close is counted.
#[test]
fn full_snapshot_store_closes_and_counts_the_overflow() {
    let mut cfg = ServerConfig::new([(1, key())]).with_reactors(reactors());
    cfg.snapshot_capacity = 1;
    let server = NetServer::spawn("127.0.0.1:0", cfg).expect("bind server");
    let mut tokens = Vec::new();
    for id in [31, 32] {
        let mut conn = NetClient::connect(server.addr()).unwrap();
        tokens.push((
            id,
            conn.open_stream(id, Hello::new(1, 0x3100 + id as u16))
                .unwrap(),
        ));
        conn.seal(id, b"traffic before the disconnect").unwrap();
        drop(conn);
    }
    let stats = server.stats();
    let read = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while read(&stats.streams_evicted) + read(&stats.streams_dropped) < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "server never reaped both streams"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(read(&stats.streams_evicted), 1);
    assert_eq!(read(&stats.streams_dropped), 1);

    let mut resumed = 0;
    for (id, token) in tokens {
        let mut client = NetClient::connect(server.addr()).unwrap();
        match client.resume(id, token) {
            Ok(_) => {
                client.seal(id, b"resumed").unwrap();
                resumed += 1;
            }
            Err(err) => assert!(err.is_code(ErrorCode::NoSnapshot), "got {err}"),
        }
    }
    assert_eq!(resumed, 1);
}

/// The stream capacity bound: a handshake loop cannot allocate sessions
/// past `max_streams`; closing a stream frees its slot.
#[test]
fn stream_capacity_rejects_hello_with_server_busy() {
    let mut cfg = ServerConfig::new([(1, key())]).with_reactors(reactors());
    cfg.max_streams = 2;
    let server = NetServer::spawn("127.0.0.1:0", cfg).expect("bind server");
    let mut client = NetClient::connect(server.addr()).unwrap();

    client.open_stream(1, Hello::new(1, 0x0101)).unwrap();
    client.open_stream(2, Hello::new(1, 0x0202)).unwrap();
    let err = client.open_stream(3, Hello::new(1, 0x0303)).unwrap_err();
    assert!(err.is_code(ErrorCode::ServerBusy), "got {err}");

    // Freeing a stream frees capacity.
    client.bye(1).unwrap();
    client.open_stream(3, Hello::new(1, 0x0303)).unwrap();
    client.seal(3, b"capacity freed").unwrap();
}

/// A parked snapshot cannot be hijacked by guessing the stream id: Resume
/// must present the token the stream's own HelloAck handed out.
#[test]
fn resume_requires_the_streams_token() {
    let server = spawn_server();

    // The victim's connection dies; its stream is parked.
    let mut victim = NetClient::connect(server.addr()).unwrap();
    let token = victim.open_stream(40, Hello::new(1, 0x4040)).unwrap();
    victim.seal(40, b"victim traffic").unwrap();
    drop(victim);

    // Wait until the snapshot is actually parked, so the rejection below
    // is the token check and not a missing snapshot.
    wait_for_evictions(&server, 1);

    // An attacker who saw stream id 40 on the wire (but not the token —
    // it never crosses again) cannot reclaim it...
    let mut attacker = NetClient::connect(server.addr()).unwrap();
    let err = attacker
        .resume(40, token ^ 1)
        .expect_err("wrong token must never resume");
    assert!(err.is_code(ErrorCode::NoSnapshot), "got {err}");

    // ...while the victim, holding the token, resumes fine afterwards.
    let mut victim = NetClient::connect(server.addr()).unwrap();
    victim
        .resume_within(40, token, Duration::from_secs(5))
        .unwrap();
    victim.seal(40, b"reclaimed").unwrap();
}

/// Regression: a pipelined batch naming an unopened stream must fail
/// before anything is sent — earlier entries' sequence counters must not
/// advance for frames that never left the client.
#[test]
fn pipelined_batch_with_unopened_stream_fails_before_send() {
    let server = spawn_server();
    let mut client = NetClient::connect(server.addr()).unwrap();
    client.open_stream(20, Hello::new(1, 0x2020)).unwrap();
    let mut oracle = EncryptSession::new(key(), LfsrSource::new(0x2020).unwrap());

    let err = client
        .seal_pipelined(&[
            (20, b"would be fine".to_vec()),
            (21, b"stream never opened".to_vec()),
        ])
        .expect_err("unopened stream in batch");
    assert!(matches!(err, ClientError::StreamNotOpen(21)), "{err}");

    // Stream 20 is pristine: its next (first) message seals from block 0.
    let sealed = client.seal(20, b"first real message").unwrap();
    assert_eq!(
        sealed.blocks,
        oracle.encrypt(b"first real message").unwrap()
    );
}

/// Regression: when one item of a sent pipelined batch is rejected, the
/// remaining replies are drained — the first failure is reported and the
/// connection (and its other streams) stays usable.
#[test]
fn pipelined_rejection_drains_replies_and_keeps_connection_usable() {
    let server = spawn_server();
    let mut client = NetClient::connect(server.addr()).unwrap();
    client.open_stream(30, Hello::new(1, 0x3030)).unwrap();
    client.open_stream(31, Hello::new(1, 0x3131)).unwrap();
    let mut oracle31 = EncryptSession::new(key(), LfsrSource::new(0x3131).unwrap());

    // Advance the server's stream-30 expectation out from under the
    // client: a raw Data frame with the seq the client thinks is next.
    client
        .send_frame(&Frame::new(FrameKind::Data, 30, 0).with_payload(b"raw".to_vec()))
        .unwrap();
    let reply = client.recv_frame().unwrap();
    assert_eq!(reply.kind, FrameKind::Reply);

    // Item 0 now carries a stale sequence (BadSequence, not consumed);
    // item 1 succeeds server-side and must be drained, not left to
    // poison the next request.
    let err = client
        .seal_pipelined(&[
            (30, b"stale sequence".to_vec()),
            (31, b"accepted but drained".to_vec()),
        ])
        .expect_err("stale sequence must surface");
    assert!(err.is_code(ErrorCode::BadSequence), "{err}");

    // The connection is still in frame-sync: stream 31 continues, its
    // session having advanced through the drained message.
    oracle31.encrypt(b"accepted but drained").unwrap();
    let sealed = client.seal(31, b"next message").unwrap();
    assert_eq!(sealed.blocks, oracle31.encrypt(b"next message").unwrap());
}

/// The connection cap: sockets beyond `max_connections` are dropped at
/// accept, and a slot freed by a disconnect becomes usable again.
#[test]
fn connection_cap_rejects_then_recovers() {
    let mut cfg = ServerConfig::new([(1, key())]).with_reactors(reactors());
    cfg.max_connections = 2;
    let server = NetServer::spawn("127.0.0.1:0", cfg).expect("bind server");

    let mut a = NetClient::connect(server.addr()).unwrap();
    a.open_stream(1, Hello::new(1, 0x0A0A)).unwrap();
    let mut b = NetClient::connect(server.addr()).unwrap();
    b.open_stream(2, Hello::new(1, 0x0B0B)).unwrap();

    // The third connection is accepted by the kernel but dropped by the
    // server: its first exchange fails.
    let mut c = NetClient::connect(server.addr()).unwrap();
    assert!(
        c.open_stream(3, Hello::new(1, 0x0C0C)).is_err(),
        "connection over the cap must not be served"
    );

    // Freeing a slot lets a new connection in (retry while the server
    // notices the disconnect).
    drop(b);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut d = NetClient::connect(server.addr()).unwrap();
        match d.open_stream(4, Hello::new(1, 0x0D0D)) {
            Ok(_) => break,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
    a.seal(1, b"still served").unwrap();
}

/// Regression: a legal-size frame whose *sealed reply* would exceed the
/// frame payload cap must be rejected cleanly (worst-case MHHEA expansion
/// is 16 reply bytes per message byte) — not panic the server thread
/// while framing an unsendable reply.
#[test]
fn oversized_seal_message_is_rejected_without_killing_the_server() {
    use mhhea_net::server::MAX_MESSAGE_BYTES;
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 50);
    witness.pump();

    let mut client = NetClient::connect(server.addr()).unwrap();
    client.open_stream(51, Hello::new(1, 0x5151)).unwrap();
    let mut oracle = EncryptSession::new(key(), LfsrSource::new(0x5151).unwrap());

    let err = client
        .seal(51, &vec![0x42u8; MAX_MESSAGE_BYTES + 1])
        .expect_err("over-cap message must be rejected");
    assert!(err.is_code(ErrorCode::MessageTooLarge), "got {err}");

    // The rejection consumed nothing: the stream still seals from block 0
    // (sequence number rolled back, cipher state untouched), and the rest
    // of the server — other connections included — kept running.
    let sealed = client.seal(51, b"normal sized again").unwrap();
    assert_eq!(
        sealed.blocks,
        oracle.encrypt(b"normal sized again").unwrap()
    );
    witness.pump();

    // A message at exactly the cap goes through.
    let exact = vec![0x24u8; MAX_MESSAGE_BYTES];
    let sealed = client.seal(51, &exact).unwrap();
    assert_eq!(sealed.blocks, oracle.encrypt(&exact).unwrap());
}

/// Regression: frames that arrive in the same tick as the peer's EOF
/// (half-close) must still be processed and answered — a fire-and-forget
/// client that writes its batch and shuts down its write side gets every
/// reply before the server hangs up.
#[test]
fn frames_arriving_with_eof_are_still_answered() {
    let server = spawn_server();

    let sock = TcpStream::connect(server.addr()).unwrap();
    let mut reader = FrameReader::new(sock);
    reader
        .sock
        .write_all(
            &Frame::new(FrameKind::Hello, 60, 0)
                .with_payload(Hello::new(1, 0x6060).encode())
                .encode(),
        )
        .unwrap();
    let ack = reader.next().expect("hello ack");
    assert_eq!(ack.kind, FrameKind::HelloAck);

    // Pipeline a burst of Data frames and half-close immediately, so the
    // server sees the whole burst and the EOF in the same tick.
    const BURST: u64 = 65;
    let mut bytes = Vec::new();
    for seq in 0..BURST {
        bytes.extend_from_slice(
            &Frame::new(FrameKind::Data, 60, seq)
                .with_payload(format!("fire-and-forget {seq}").into_bytes())
                .encode(),
        );
    }
    reader.sock.write_all(&bytes).unwrap();
    reader.sock.shutdown(std::net::Shutdown::Write).unwrap();

    // Every frame is answered, in order, before the connection closes.
    for seq in 0..BURST {
        let reply = reader
            .next()
            .unwrap_or_else(|| panic!("reply {seq} missing after half-close"));
        assert_eq!((reply.kind, reply.seq), (FrameKind::Reply, seq));
    }
    assert!(reader.next().is_none(), "then EOF");
}

/// Regression: replies owed for valid frames parsed in the same tick as a
/// framing violation are written *before* the protocol goodbye, so a
/// client reading in request order sees its data answered, then the
/// error, then EOF.
#[test]
fn goodbye_does_not_overtake_replies_owed_in_the_same_tick() {
    let server = spawn_server();

    let sock = TcpStream::connect(server.addr()).unwrap();
    let mut reader = FrameReader::new(sock);
    reader
        .sock
        .write_all(
            &Frame::new(FrameKind::Hello, 70, 0)
                .with_payload(Hello::new(1, 0x7070).encode())
                .encode(),
        )
        .unwrap();
    assert_eq!(reader.next().unwrap().kind, FrameKind::HelloAck);

    // One burst: a valid Data frame, then garbage.
    let mut bytes = Frame::new(FrameKind::Data, 70, 0)
        .with_payload(b"answer me first".to_vec())
        .encode();
    bytes.extend_from_slice(b"XXXXXXXX");
    reader.sock.write_all(&bytes).unwrap();

    let first = reader.next().expect("the owed reply");
    assert_eq!((first.kind, first.seq), (FrameKind::Reply, 0));
    let second = reader.next().expect("then the goodbye");
    assert_eq!(second.kind, FrameKind::Error);
    assert_eq!(
        frame::decode_error(&second.payload).0,
        Some(ErrorCode::Protocol)
    );
    assert!(reader.next().is_none(), "then EOF");
}

/// A Data frame stamped with a retired epoch — a replay captured before a
/// rotation — is rejected with the dedicated `StaleEpoch` code, the
/// sequence number is not consumed, and neither the attacked stream nor a
/// shard-mate pumping oracle-checked traffic desynchronises.
#[test]
fn replayed_old_epoch_frames_rejected_without_desync() {
    use mhhea::KeyRing;
    let server = spawn_server();
    let mut witness = Witness::open(server.addr(), 81);

    let mut client = NetClient::connect(server.addr()).unwrap();
    client.open_stream(80, Hello::new(1, 0x8080)).unwrap();
    let ring = KeyRing::single(key(), 0x8080).unwrap();
    let mut oracle = EncryptSession::new(key(), LfsrSource::new(0x8080).unwrap());

    // Epoch 0 traffic, then rotate. Capture what a replayed frame looks
    // like: same stream, old epoch 0 in the sequence field's high bits.
    let sealed = client.seal(80, b"captured in epoch zero").unwrap();
    assert_eq!(
        sealed.blocks,
        oracle.encrypt(b"captured in epoch zero").unwrap()
    );
    client.rekey(80, 1).unwrap();
    oracle.rekey(&ring, 1).unwrap();

    // Replay: a well-formed Data frame whose seq names retired epoch 0.
    client
        .send_frame(
            &Frame::new(FrameKind::Data, 80, frame::join_seq(0, 0))
                .with_payload(b"captured in epoch zero".to_vec()),
        )
        .unwrap();
    let err = client.recv_frame().unwrap();
    assert_eq!(err.kind, FrameKind::Error);
    assert_eq!(
        frame::decode_error(&err.payload).0,
        Some(ErrorCode::StaleEpoch),
        "replays across a rotation must get the dedicated code"
    );

    // The stream is untouched: the next legitimate seal is bit-exact.
    let after = client.seal(80, b"epoch one continues").unwrap();
    assert_eq!(
        after.blocks,
        oracle.encrypt(b"epoch one continues").unwrap()
    );
    witness.pump();
    client.bye(80).unwrap();
}

/// Rekey requests that do not move the epoch strictly forward bounce with
/// `StaleEpoch` and do not consume a sequence number; rekeying a stream
/// the connection never opened is `UnknownStream`.
#[test]
fn stale_or_misaddressed_rekeys_rejected_cleanly() {
    let server = spawn_server();
    let mut client = NetClient::connect(server.addr()).unwrap();
    client.open_stream(85, Hello::new(1, 0x8585)).unwrap();
    client.rekey(85, 3).unwrap(); // skipping epochs forward is fine

    for stale in [3, 2, 0] {
        let err = client
            .rekey(85, stale)
            .expect_err("stale epoch must bounce");
        assert!(
            err.is_code(ErrorCode::StaleEpoch),
            "epoch {stale}: wrong code: {err}"
        );
    }
    // None of the rejections consumed a sequence number: plain traffic
    // continues at (epoch 3, counter 0).
    client.seal(85, b"still healthy").unwrap();

    // The client refuses locally for a stream it never opened…
    let err = client.rekey(9999, 1).expect_err("unopened stream");
    assert!(matches!(err, ClientError::StreamNotOpen(9999)));
    // …and the server refuses a raw frame that bypasses that check.
    client
        .send_frame(&Frame::new(FrameKind::Rekey, 9999, 0).with_payload(frame::encode_rekey(1)))
        .unwrap();
    let err = client.recv_frame().unwrap();
    assert_eq!(err.kind, FrameKind::Error);
    assert_eq!(
        frame::decode_error(&err.payload).0,
        Some(ErrorCode::UnknownStream)
    );

    // A malformed rekey payload (wrong size) is a Protocol rejection that
    // also leaves the sequence space untouched.
    client
        .send_frame(
            &Frame::new(FrameKind::Rekey, 85, frame::join_seq(3, 1)).with_payload(vec![1, 2, 3]),
        )
        .unwrap();
    let err = client.recv_frame().unwrap();
    assert_eq!(err.kind, FrameKind::Error);
    assert_eq!(
        frame::decode_error(&err.payload).0,
        Some(ErrorCode::Protocol)
    );
    client.seal(85, b"and still healthy").unwrap();
    client.bye(85).unwrap();
}

/// Rotation re-mints the resume token: the pre-rotation token must not
/// reclaim the parked snapshot (an attacker who stole it learns it died
/// with the epoch), while the fresh token resumes normally.
#[test]
fn rekey_reminted_token_invalidates_the_old_one() {
    let server = spawn_server();
    let mut client = NetClient::connect(server.addr()).unwrap();
    let old_token = client.open_stream(88, Hello::new(1, 0x8888)).unwrap();
    let new_token = client.rekey(88, 1).unwrap();
    assert_ne!(old_token, new_token);
    client.seal(88, b"rotated").unwrap();
    drop(client); // parks the snapshot (epoch 1) under the new token

    let mut thief = NetClient::connect(server.addr()).unwrap();
    let err = thief
        .resume_within(88, old_token, Duration::from_secs(5))
        .expect_err("the retired token must never resume");
    assert!(err.is_code(ErrorCode::NoSnapshot), "wrong code: {err}");

    let mut owner = NetClient::connect(server.addr()).unwrap();
    owner
        .resume_within(88, new_token, Duration::from_secs(5))
        .expect("the fresh token resumes");
    owner.seal(88, b"still mine").unwrap();
    owner.bye(88).unwrap();
}

/// The rekey synchronisation point holds even against pipelining: a
/// Data frame smuggled into the same burst as a Rekey — stamped with the
/// old epoch's next counter, which WOULD have been valid had the Rekey
/// not been there — must never execute. Depending on how the burst lands
/// in server ticks it dies as BadSequence (rekey in flight) or
/// StaleEpoch (retired epoch), but it is never answered with a Reply,
/// and nothing is consumed.
#[test]
fn data_pipelined_behind_a_rekey_never_executes() {
    let server = spawn_server();
    let sock = TcpStream::connect(server.addr()).unwrap();
    let mut reader = FrameReader::new(sock);
    reader
        .sock
        .write_all(
            &Frame::new(FrameKind::Hello, 90, 0)
                .with_payload(Hello::new(1, 0x9090).encode())
                .encode(),
        )
        .unwrap();
    assert_eq!(reader.next().unwrap().kind, FrameKind::HelloAck);

    // One write: Rekey consuming (0,0), then Data stamped (0,1) — the
    // counter the old epoch would have used next.
    let mut burst = Vec::new();
    Frame::new(FrameKind::Rekey, 90, frame::join_seq(0, 0))
        .with_payload(frame::encode_rekey(1))
        .encode_into(&mut burst);
    Frame::new(FrameKind::Data, 90, frame::join_seq(0, 1))
        .with_payload(b"smuggled across the rotation".to_vec())
        .encode_into(&mut burst);
    reader.sock.write_all(&burst).unwrap();

    let ack = reader.next().expect("rekey ack");
    assert_eq!(ack.kind, FrameKind::RekeyAck);
    let smuggled = reader.next().expect("answer for the smuggled frame");
    assert_eq!(
        smuggled.kind,
        FrameKind::Error,
        "a frame behind a rekey must never be executed"
    );
    let (code, _) = frame::decode_error(&smuggled.payload);
    assert!(
        code == Some(ErrorCode::BadSequence) || code == Some(ErrorCode::StaleEpoch),
        "wrong rejection: {code:?}"
    );

    // The rejection consumed nothing: (1, 0) is the next sequence
    // number, and the raw-frame path proves it.
    reader
        .sock
        .write_all(
            &Frame::new(FrameKind::Data, 90, frame::join_seq(1, 0))
                .with_payload(b"patient now".to_vec())
                .encode(),
        )
        .unwrap();
    let reply = reader.next().expect("reply in the new epoch");
    assert_eq!(
        (reply.kind, reply.seq),
        (FrameKind::Reply, frame::join_seq(1, 0))
    );
}

/// With a multi-key epoch list (`ServerConfig::with_epoch_keys`), a
/// rotation changes the cipher key itself: captured epoch-0 ciphertext
/// restamped with the new epoch no longer opens to the plaintext — the
/// decrypt side genuinely retired the old key.
#[test]
fn multi_key_rotation_retires_old_ciphertext() {
    let second_key = Key::from_nibbles(&[(7, 7), (0, 0), (3, 3)]).unwrap();
    let config = ServerConfig::new([(1, key())])
        .with_reactors(reactors())
        .with_epoch_keys(2, vec![key(), second_key.clone()]);
    let server = NetServer::spawn("127.0.0.1:0", config).expect("bind server");

    let mut client = NetClient::connect(server.addr()).unwrap();
    client.open_stream(95, Hello::new(2, 0x9595)).unwrap();
    let plaintext = b"sealed under the epoch-zero key";
    let captured = client.seal(95, plaintext).unwrap();
    // Keep the duplex decrypt cursor in lockstep, then rotate: epoch 1
    // runs `second_key`.
    client.open(95, &captured.blocks, captured.bit_len).unwrap();
    client.rekey(95, 1).unwrap();

    // An attacker restamps the captured blocks with the live epoch to
    // dodge the StaleEpoch check. The frame is well-formed, so the
    // server answers — but under the rotated key the plaintext is gone.
    match client.open(95, &captured.blocks, captured.bit_len) {
        Ok(got) => assert_ne!(
            got,
            plaintext.to_vec(),
            "rotated decrypt side must not recover old-epoch plaintext"
        ),
        // A span mismatch may under-run the bit count instead — an
        // engine rejection retires the ciphertext just as thoroughly.
        Err(e) => assert!(e.is_code(ErrorCode::Engine), "unexpected failure: {e}"),
    }
}

/// Multi-reactor blast radius: on a 4-reactor server with a witness
/// parked on every reactor (accepts #0..#4 → reactors 0..4), a framing
/// attack arriving on reactor 0 kills exactly its own connection — every
/// witness, including the one sharing the attacker's reactor, keeps
/// producing oracle-exact ciphertext.
#[test]
fn framing_attack_on_one_reactor_leaves_all_reactors_healthy() {
    let server = NetServer::spawn(
        "127.0.0.1:0",
        ServerConfig::new([(1, key())]).with_reactors(4),
    )
    .expect("bind 4-reactor server");

    let mut witnesses: Vec<Witness> = (0..4)
        .map(|i| Witness::open(server.addr(), 70 + i))
        .collect();
    for witness in &mut witnesses {
        witness.pump();
    }

    // Accept #4 → reactor 0, alongside the first witness.
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(b"\xff\xff\xff\xffgarbage, not MHNP")
        .unwrap();
    expect_protocol_error_then_eof(&mut sock);

    for witness in &mut witnesses {
        witness.pump();
        witness.pump();
    }
}

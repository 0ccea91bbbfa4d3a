//! A blocking MHNP client: open streams, seal/open messages, survive
//! reconnects.
//!
//! The client is deliberately simple — one blocking socket, synchronous
//! request/reply per call — with one concession to throughput:
//! [`NetClient::seal_pipelined`] writes a whole batch of `Data` frames
//! before reading any replies, letting the server coalesce them into a
//! single gateway submission.
//!
//! Sequence numbers are managed internally: each stream counts its `Data`
//! frames from 0 per session, stamped with the stream's key epoch in the
//! sequence field's high bits (see [`crate::frame::split_seq`]), mirroring
//! the server's expectation. After a reconnect, [`NetClient::resume`]
//! starts a fresh session (counter 0 again, in whatever epoch the resumed
//! snapshot carries) on the restored cipher state; [`NetClient::rekey`]
//! rotates the stream to a new epoch and restarts the counter under it.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mhhea::{Algorithm, Key, Profile};
use mhhea_kex::{derive_session, tags_equal, transcript, EphemeralSecret};

use crate::frame::{
    self, decode_blocks, decode_error, decode_key_ex_ack, decode_rekey_ack, decode_resumed_ack,
    encode_blocks, encode_key_ex_confirm, encode_rekey, flags, join_seq, ErrorCode, Frame,
    FrameError, FrameKind, Hello, KeyExAckPayload, KeyExInit,
};

/// A sealed message as it travels in a `Reply`: the plaintext bit length
/// plus the cipher blocks (exactly what [`mhhea::DecryptSession::decrypt`]
/// wants back).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    /// The plaintext's bit length.
    pub bit_len: u32,
    /// The cipher blocks.
    pub blocks: Vec<u16>,
}

/// Why a client call failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// A socket-level failure (includes read timeouts).
    Io(io::Error),
    /// The server's bytes failed to decode as MHNP.
    Frame(FrameError),
    /// The server answered with an `Error` frame.
    Server {
        /// The machine-readable code (`None` for codes this client does
        /// not know).
        code: Option<ErrorCode>,
        /// The human-readable detail string.
        detail: String,
    },
    /// The server answered with a frame that does not match the pending
    /// request.
    UnexpectedFrame(String),
    /// A local call referenced a stream this client has not opened.
    StreamNotOpen(u64),
    /// The server closed the connection.
    Disconnected,
    /// The MHKX handshake failed **on the client side**: the server
    /// presented a low-order public key, or its key-confirmation tag did
    /// not match the transcript. The derived material was discarded.
    KeyExchange(String),
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket failure: {e}"),
            ClientError::Frame(e) => write!(f, "undecodable server bytes: {e}"),
            ClientError::Server { code, detail } => match code {
                Some(code) => write!(f, "server rejected the request: {code}: {detail}"),
                None => write!(f, "server rejected the request (unknown code): {detail}"),
            },
            ClientError::UnexpectedFrame(what) => write!(f, "unexpected server frame: {what}"),
            ClientError::StreamNotOpen(id) => write!(f, "stream {id} is not open on this client"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::KeyExchange(detail) => write!(f, "key exchange failed: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl ClientError {
    /// True when the server answered with the given error code — the
    /// shape reconnect logic matches on (`NoSnapshot` while the server
    /// has not yet noticed the old connection died, for example).
    pub fn is_code(&self, want: ErrorCode) -> bool {
        matches!(self, ClientError::Server { code: Some(c), .. } if *c == want)
    }
}

/// The outcome of a completed MHKX handshake
/// ([`NetClient::open_ephemeral`] / [`NetClient::rekey_ephemeral`]): the
/// stream's fresh resume token plus the session material both sides
/// derived. `key` and `seed` are exactly what the server installed, so a
/// local [`mhhea::DecryptSession`]/[`mhhea::EncryptSession`] built from
/// them opens (and reproduces) the stream's sealed bytes bit-exactly.
#[derive(Clone)]
pub struct EphemeralSession {
    /// The resume token the server minted (present it to
    /// [`NetClient::resume`] after a disconnect).
    pub token: u64,
    /// The derived session key now running the stream.
    pub key: Key,
    /// The derived LFSR master seed now running the stream (nonzero).
    pub seed: u16,
}

impl core::fmt::Debug for EphemeralSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The key and seed are live cipher material — never log them.
        f.debug_struct("EphemeralSession")
            .field("token", &self.token)
            .finish_non_exhaustive()
    }
}

/// A blocking MHNP connection.
#[derive(Debug)]
pub struct NetClient {
    sock: TcpStream,
    rbuf: Vec<u8>,
    /// stream id → next `Data` sequence number for this session.
    seqs: HashMap<u64, u64>,
}

impl NetClient {
    /// Connects with a 10-second read timeout (a server bug surfaces as a
    /// timeout error instead of a hang).
    ///
    /// # Errors
    ///
    /// Socket-level connect/configure failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, ClientError> {
        NetClient::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connects with an explicit read timeout (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Socket-level connect/configure failures.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: impl Into<Option<Duration>>,
    ) -> Result<NetClient, ClientError> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(timeout.into())?;
        Ok(NetClient {
            sock,
            rbuf: Vec::new(),
            seqs: HashMap::new(),
        })
    }

    /// Opens a fresh stream: sends [`Hello`], waits for the ack, and
    /// returns the stream's **resume token**. Hold on to it (across
    /// connections — it outlives this client): [`NetClient::resume`]
    /// must present it to reclaim the stream after a disconnect.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::UnknownKeyId`],
    /// [`ErrorCode::StreamExists`] or [`ErrorCode::BadHandshake`]; any
    /// transport failure.
    pub fn open_stream(&mut self, stream: u64, hello: Hello) -> Result<u64, ClientError> {
        self.send_frame(&Frame::new(FrameKind::Hello, stream, 0).with_payload(hello.encode()))?;
        let ack = self.expect_frame(FrameKind::HelloAck, stream, 0)?;
        let token = Self::ack_token(&ack)?;
        self.seqs.insert(stream, 0);
        Ok(token)
    }

    /// Connects and opens `stream` with **no pre-shared key**: a
    /// convenience wrapper around [`NetClient::connect`] +
    /// [`NetClient::open_ephemeral`]. The server must have been
    /// configured with `ServerConfig::with_ephemeral_keys`.
    ///
    /// # Errors
    ///
    /// As [`NetClient::connect`] and [`NetClient::open_ephemeral`].
    pub fn connect_ephemeral(
        addr: impl ToSocketAddrs,
        stream: u64,
    ) -> Result<(NetClient, EphemeralSession), ClientError> {
        let mut client = NetClient::connect(addr)?;
        let session = client.open_ephemeral(stream)?;
        Ok((client, session))
    }

    /// Opens a fresh stream by **ephemeral key agreement** (MHKX, see
    /// `docs/PROTOCOL.md` §5.1) instead of a pre-shared key, with the
    /// default cipher parameters (MHHEA, streaming).
    ///
    /// # Errors
    ///
    /// As [`NetClient::open_ephemeral_with`].
    pub fn open_ephemeral(&mut self, stream: u64) -> Result<EphemeralSession, ClientError> {
        self.open_ephemeral_with(stream, Algorithm::Mhhea, Profile::Streaming)
    }

    /// Opens a fresh stream by ephemeral key agreement with explicit
    /// cipher parameters: a 4-message X25519 handshake derives the
    /// stream's key and LFSR seed on both sides, each end proves
    /// knowledge of the derived material with a confirmation tag, and
    /// only then does the server allocate the stream.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::BadHandshake`] when the
    /// server does not accept ephemeral handshakes,
    /// [`ErrorCode::StreamExists`]/[`ErrorCode::ServerBusy`] as for
    /// [`NetClient::open_stream`], or
    /// [`ErrorCode::KeyConfirmFailed`] when the server rejected the
    /// exchange; [`ClientError::KeyExchange`] when the *server's* key or
    /// tag fails verification locally (nothing was sent in phase 2, so
    /// the server allocated nothing); any transport failure.
    pub fn open_ephemeral_with(
        &mut self,
        stream: u64,
        algorithm: Algorithm,
        profile: Profile,
    ) -> Result<EphemeralSession, ClientError> {
        self.key_exchange(stream, 0, algorithm, profile)
    }

    /// Rotates the stream to `epoch` under a **fresh Diffie–Hellman
    /// exchange** instead of a server-side key list: the new epoch's key
    /// and seed are derived jointly, so they are independent of every
    /// earlier epoch's material (compare [`NetClient::rekey`], which
    /// rotates within the key list fixed at handshake time). Returns the
    /// fresh session material and resume token; the old token is
    /// retired, and both sides restart the sequence space at
    /// `(epoch, 0)`.
    ///
    /// The stream must currently be open on this connection. Unlike
    /// [`NetClient::rekey`], the exchange is a control-plane handshake:
    /// it does not consume a sequence number of the old epoch, but the
    /// server still applies it in order relative to traffic already
    /// queued on this connection.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::StaleEpoch`] when
    /// `epoch` is not strictly newer than the stream's current epoch, or
    /// [`ErrorCode::UnknownStream`] when this connection does not own
    /// the stream; otherwise as [`NetClient::open_ephemeral_with`].
    pub fn rekey_ephemeral(
        &mut self,
        stream: u64,
        epoch: u32,
    ) -> Result<EphemeralSession, ClientError> {
        if !self.seqs.contains_key(&stream) {
            return Err(ClientError::StreamNotOpen(stream));
        }
        // The cipher parameters were fixed when the stream was opened;
        // the transcript binds them by wire tag, and a rotation never
        // changes them — MHHEA/streaming are the only values the server
        // will re-derive for an already-open stream.
        self.key_exchange(stream, epoch, Algorithm::Mhhea, Profile::Streaming)
    }

    /// Runs one MHKX handshake (both phases) for `stream` at `epoch`
    /// (0 = fresh open, > 0 = fresh-DH rotation) and installs the local
    /// sequence counter at `(epoch, 0)` on success.
    fn key_exchange(
        &mut self,
        stream: u64,
        epoch: u32,
        algorithm: Algorithm,
        profile: Profile,
    ) -> Result<EphemeralSession, ClientError> {
        let secret = EphemeralSecret::generate();
        let client_pub = secret.public_key();
        let init = KeyExInit::new(client_pub)
            .with_epoch(epoch)
            .with_algorithm(algorithm)
            .with_profile(profile);
        self.send_frame(&Frame::new(FrameKind::KeyEx, stream, 0).with_payload(init.encode()))?;
        let ack = self.expect_frame(FrameKind::KeyExAck, stream, 0)?;
        let KeyExAckPayload::Init {
            public_key: server_pub,
            tag,
        } = decode_key_ex_ack(&ack.payload)?
        else {
            return Err(ClientError::UnexpectedFrame(
                "key-ex-ack completion before the confirmation phase".into(),
            ));
        };
        // Verify the server before answering: a low-order key or a bad
        // tag means whoever answered does not hold the shared secret, and
        // phase 2 (which would prove *our* knowledge of it) is never sent.
        let shared = secret
            .diffie_hellman(&server_pub)
            .map_err(|e| ClientError::KeyExchange(e.to_string()))?;
        let t = transcript(
            stream,
            epoch,
            algorithm.tag(),
            profile.tag(),
            &client_pub,
            &server_pub,
        );
        let material = derive_session(&shared, &t);
        if !tags_equal(&tag, &material.tag_server) {
            return Err(ClientError::KeyExchange(
                "server key-confirmation tag does not match the transcript".into(),
            ));
        }
        let key = Key::from_bytes(&material.key_bytes)
            .map_err(|e| ClientError::KeyExchange(e.to_string()))?;
        self.send_frame(
            &Frame::new(FrameKind::KeyEx, stream, 0)
                .with_payload(encode_key_ex_confirm(&material.tag_client)),
        )?;
        let done = self.expect_frame(FrameKind::KeyExAck, stream, 0)?;
        let KeyExAckPayload::Done { token } = decode_key_ex_ack(&done.payload)? else {
            return Err(ClientError::UnexpectedFrame(
                "key-ex-ack confirmation phase answered twice".into(),
            ));
        };
        self.seqs.insert(stream, join_seq(epoch, 0));
        Ok(EphemeralSession {
            token,
            key,
            seed: material.seed,
        })
    }

    /// Resumes a previously evicted stream from the server's parked
    /// snapshot, presenting the resume token its [`NetClient::open_stream`]
    /// returned; cipher state continues bit-exactly, sequence numbers
    /// restart at 0 for the new session.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSnapshot`] when the server holds no snapshot under
    /// this (stream, token) pair — most often it has not yet noticed the
    /// old connection died (retry), or the token is wrong;
    /// [`ErrorCode::StreamExists`] when the stream is still open.
    pub fn resume(&mut self, stream: u64, token: u64) -> Result<(), ClientError> {
        self.send_frame(
            &Frame::new(FrameKind::Resume, stream, 0).with_payload(token.to_le_bytes().to_vec()),
        )?;
        let ack = self.expect_frame(FrameKind::HelloAck, stream, 0)?;
        if ack.flags & flags::RESUMED == 0 {
            return Err(ClientError::UnexpectedFrame(
                "hello-ack without the resumed flag".into(),
            ));
        }
        // The resumed ack names the stream's key epoch (it may have been
        // rotated before the disconnect); sequence numbers restart at
        // counter 0 *in that epoch*.
        let (_token, epoch) = decode_resumed_ack(&ack.payload)?;
        self.seqs.insert(stream, join_seq(epoch, 0));
        Ok(())
    }

    /// Like [`NetClient::resume`], but retries while the server answers
    /// `NoSnapshot`/`StreamExists` — the window in which it has not yet
    /// reaped the previous connection.
    ///
    /// # Errors
    ///
    /// The last server answer once `deadline` elapses; any transport
    /// failure immediately.
    ///
    /// ```
    /// use std::time::Duration;
    /// use mhhea_net::client::NetClient;
    /// use mhhea_net::frame::Hello;
    /// use mhhea_net::server::{NetServer, ServerConfig};
    /// use mhhea::Key;
    ///
    /// let key = Key::from_nibbles(&[(0, 3), (2, 5)])?;
    /// let server = NetServer::spawn("127.0.0.1:0", ServerConfig::new([(1, key)]))?;
    /// let mut client = NetClient::connect(server.addr())?;
    /// let token = client.open_stream(7, Hello::new(1, 0xACE1))?;
    /// let before = client.seal(7, b"before the drop")?;
    ///
    /// drop(client); // the server evicts stream 7 into a parked snapshot
    /// let mut client = NetClient::connect(server.addr())?;
    /// client.resume_within(7, token, Duration::from_secs(5))?;
    /// // Cipher state continued bit-exactly across the reconnect.
    /// let after = client.seal(7, b"after the drop!")?;
    /// assert_ne!(before.blocks, after.blocks);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn resume_within(
        &mut self,
        stream: u64,
        token: u64,
        deadline: Duration,
    ) -> Result<(), ClientError> {
        let start = std::time::Instant::now();
        loop {
            match self.resume(stream, token) {
                Err(e)
                    if (e.is_code(ErrorCode::NoSnapshot) || e.is_code(ErrorCode::StreamExists))
                        && start.elapsed() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => return other,
            }
        }
    }

    /// Extracts the resume token from a `HelloAck` payload.
    fn ack_token(ack: &Frame) -> Result<u64, ClientError> {
        frame::decode_token(&ack.payload).ok_or_else(|| {
            ClientError::UnexpectedFrame("hello-ack without an 8-byte resume token".into())
        })
    }

    /// Rotates the stream to a new key epoch and returns the **fresh
    /// resume token** the server minted for it (the pre-rotation token is
    /// retired — replace whatever you stored from
    /// [`NetClient::open_stream`]).
    ///
    /// The rotation is a synchronisation point: the `Rekey` frame
    /// consumes the next sequence number of the old epoch, the server
    /// applies it in order relative to in-flight traffic, and after the
    /// ack both sides count from `(epoch, 0)`. Both cipher directions
    /// rotate atomically on the server: the LFSR reseeds, the schedule
    /// restarts, and frames stamped with the retired epoch are rejected
    /// ([`ErrorCode::StaleEpoch`]). Whether the *key* changes too —
    /// which is what retires pre-rotation ciphertext on the decrypt
    /// side — depends on the server's key list for the stream's key id
    /// (`ServerConfig::with_epoch_keys` vs a single key; see the
    /// protocol spec).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::StaleEpoch`] when
    /// `epoch` is not strictly newer than the stream's current epoch (the
    /// sequence number is not consumed); stream/transport failures as for
    /// [`NetClient::seal`].
    ///
    /// ```no_run
    /// use mhhea_net::client::NetClient;
    /// use mhhea_net::frame::Hello;
    ///
    /// let mut client = NetClient::connect("127.0.0.1:4040")?;
    /// let mut token = client.open_stream(7, Hello::new(1, 0xACE1))?;
    /// client.seal(7, b"epoch zero")?;
    /// token = client.rekey(7, 1)?; // the old token is now useless
    /// client.seal(7, b"epoch one")?;
    /// # let _ = token;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn rekey(&mut self, stream: u64, epoch: u32) -> Result<u64, ClientError> {
        let seq = self.next_seq(stream)?;
        self.send_frame(
            &Frame::new(FrameKind::Rekey, stream, seq).with_payload(encode_rekey(epoch)),
        )?;
        match self.expect_frame(FrameKind::RekeyAck, stream, seq) {
            Ok(ack) => {
                let (acked_epoch, token) = decode_rekey_ack(&ack.payload)?;
                if acked_epoch != epoch {
                    return Err(ClientError::UnexpectedFrame(format!(
                        "rekey-ack for epoch {acked_epoch}, wanted {epoch}"
                    )));
                }
                self.seqs.insert(stream, join_seq(epoch, 0));
                Ok(token)
            }
            Err(e) => {
                // Rejections that did not consume the sequence number
                // roll the local counter back, exactly like Data frames.
                if e.is_code(ErrorCode::StaleEpoch)
                    || e.is_code(ErrorCode::BadSequence)
                    || e.is_code(ErrorCode::UnknownStream)
                {
                    if let Some(s) = self.seqs.get_mut(&stream) {
                        *s = (*s).min(seq);
                    }
                }
                Err(e)
            }
        }
    }

    /// Closes a stream on the server (its state is discarded, not
    /// parked).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownStream`] when the stream is not open here.
    pub fn bye(&mut self, stream: u64) -> Result<(), ClientError> {
        if !self.seqs.contains_key(&stream) {
            return Err(ClientError::StreamNotOpen(stream));
        }
        self.send_frame(&Frame::new(FrameKind::Bye, stream, 0))?;
        self.expect_frame(FrameKind::Bye, stream, 0)?;
        self.seqs.remove(&stream);
        Ok(())
    }

    /// Encrypts `message` on the server's encrypt session for `stream`.
    ///
    /// # Errors
    ///
    /// Stream/sequence/server failures as [`ClientError::Server`]; any
    /// transport failure.
    ///
    /// ```
    /// use mhhea_net::client::NetClient;
    /// use mhhea_net::frame::Hello;
    /// use mhhea_net::server::{NetServer, ServerConfig};
    /// use mhhea::Key;
    ///
    /// let key = Key::from_nibbles(&[(0, 3), (2, 5)])?;
    /// let server = NetServer::spawn("127.0.0.1:0", ServerConfig::new([(1, key)]))?;
    /// let mut client = NetClient::connect(server.addr())?;
    /// client.open_stream(7, Hello::new(1, 0xACE1))?;
    ///
    /// let sealed = client.seal(7, b"fourteen bytes")?;
    /// assert_eq!(sealed.bit_len, 14 * 8);
    /// assert_eq!(client.open(7, &sealed.blocks, sealed.bit_len)?, b"fourteen bytes");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn seal(&mut self, stream: u64, message: &[u8]) -> Result<Sealed, ClientError> {
        let seq = self.next_seq(stream)?;
        let mut bytes = Vec::with_capacity(frame::HEADER_LEN + message.len());
        frame::encode_raw(&mut bytes, FrameKind::Data, 0, stream, seq, message);
        self.sock.write_all(&bytes)?;
        let reply = self.read_data_reply(stream, seq)?;
        let (bit_len, blocks) = decode_blocks(&reply.payload)?;
        Ok(Sealed { bit_len, blocks })
    }

    /// Decrypts cipher blocks on the server's decrypt session for
    /// `stream`.
    ///
    /// # Errors
    ///
    /// As [`NetClient::seal`]; additionally [`ErrorCode::Engine`] for
    /// truncated ciphertext (the sequence number is consumed, the stream
    /// stays usable).
    pub fn open(
        &mut self,
        stream: u64,
        blocks: &[u16],
        bit_len: u32,
    ) -> Result<Vec<u8>, ClientError> {
        let seq = self.next_seq(stream)?;
        self.send_frame(
            &Frame::new(FrameKind::Data, stream, seq)
                .with_flags(flags::DIR_OPEN)
                .with_payload(encode_blocks(bit_len, blocks)),
        )?;
        let reply = self.read_data_reply(stream, seq)?;
        Ok(reply.payload)
    }

    /// Seals a whole batch with pipelining: every request frame is written
    /// before any reply is read, so the server can coalesce the batch into
    /// one gateway submission. Results come back in request order.
    ///
    /// # Errors
    ///
    /// [`ClientError::StreamNotOpen`] before anything is sent if any batch
    /// entry names an unopened stream. After the batch is sent, the first
    /// per-item failure is returned — but the remaining replies are still
    /// drained (the server answers every submitted frame in order), so the
    /// connection and its other streams stay usable. Transport-level
    /// failures (socket errors, undecodable frames, disconnect) abort the
    /// drain: framing is already lost.
    pub fn seal_pipelined(&mut self, batch: &[(u64, Vec<u8>)]) -> Result<Vec<Sealed>, ClientError> {
        // Validate up front: a mid-encode failure would leave earlier
        // streams' counters bumped for frames that were never sent.
        for (stream, _) in batch {
            if !self.seqs.contains_key(stream) {
                return Err(ClientError::StreamNotOpen(*stream));
            }
        }
        let mut bytes = Vec::new();
        let mut expected: Vec<(u64, u64)> = Vec::with_capacity(batch.len());
        for (stream, message) in batch {
            let seq = self.next_seq(*stream)?;
            frame::encode_raw(&mut bytes, FrameKind::Data, 0, *stream, seq, message);
            expected.push((*stream, seq));
        }
        self.sock.write_all(&bytes)?;
        let mut out = Vec::with_capacity(batch.len());
        let mut first_err: Option<ClientError> = None;
        for (stream, seq) in expected {
            match self.read_data_reply(stream, seq) {
                Ok(reply) if first_err.is_none() => match decode_blocks(&reply.payload) {
                    Ok((bit_len, blocks)) => out.push(Sealed { bit_len, blocks }),
                    Err(e) => first_err = Some(e.into()),
                },
                // Draining after a failure: the reply is discarded.
                Ok(_) => {}
                Err(e) => {
                    let fatal = matches!(
                        e,
                        ClientError::Io(_)
                            | ClientError::Frame(_)
                            | ClientError::Disconnected
                            | ClientError::UnexpectedFrame(_)
                    );
                    if fatal {
                        // The transport failure supersedes any earlier
                        // per-item error: the connection is NOT usable,
                        // and a per-item error would claim it is.
                        return Err(e);
                    }
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Sends one frame (public for protocol tests and custom tooling).
    ///
    /// # Errors
    ///
    /// Socket-level write failures.
    pub fn send_frame(&mut self, frame: &Frame) -> Result<(), ClientError> {
        self.sock.write_all(&frame.encode())?;
        Ok(())
    }

    /// Blocks until one complete frame arrives (public for protocol tests
    /// and custom tooling).
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] on EOF; decode failures as
    /// [`ClientError::Frame`]; timeouts as [`ClientError::Io`].
    pub fn recv_frame(&mut self) -> Result<Frame, ClientError> {
        let mut scratch = [0u8; 16 << 10];
        loop {
            if let Some((frame, used)) = frame::decode(&self.rbuf)? {
                self.rbuf.drain(..used);
                return Ok(frame);
            }
            match self.sock.read(&mut scratch) {
                Ok(0) => return Err(ClientError::Disconnected),
                // lint: allow(panic-path, reason = "a conforming Read returns n ≤ the slice it was handed")
                Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    fn next_seq(&mut self, stream: u64) -> Result<u64, ClientError> {
        let seq = self
            .seqs
            .get_mut(&stream)
            .ok_or(ClientError::StreamNotOpen(stream))?;
        let current = *seq;
        // The server consumes the sequence number the moment it accepts
        // the frame, before running the op — mirror that optimistically
        // and roll back in read_data_reply for not-accepted rejections.
        *seq = current + 1;
        Ok(current)
    }

    /// Reads the reply for a `Data` request. On `BadSequence`/
    /// `UnknownStream`/`StaleEpoch` (the server did not consume the
    /// sequence number) the local counter is rolled back so the stream
    /// can continue. The rollback only ever moves the counter *down* —
    /// when several pipelined frames on one stream are all rejected, the
    /// counter lands on the first (lowest) unconsumed sequence number,
    /// not the last.
    fn read_data_reply(&mut self, stream: u64, seq: u64) -> Result<Frame, ClientError> {
        match self.expect_frame(FrameKind::Reply, stream, seq) {
            Ok(frame) => Ok(frame),
            Err(e) => {
                if e.is_code(ErrorCode::BadSequence)
                    || e.is_code(ErrorCode::UnknownStream)
                    || e.is_code(ErrorCode::MessageTooLarge)
                    || e.is_code(ErrorCode::StaleEpoch)
                {
                    if let Some(s) = self.seqs.get_mut(&stream) {
                        *s = (*s).min(seq);
                    }
                }
                Err(e)
            }
        }
    }

    fn expect_frame(
        &mut self,
        kind: FrameKind,
        stream: u64,
        seq: u64,
    ) -> Result<Frame, ClientError> {
        let frame = self.recv_frame()?;
        if frame.kind == FrameKind::Error {
            let (code, detail) = decode_error(&frame.payload);
            return Err(ClientError::Server { code, detail });
        }
        if frame.kind != kind || frame.stream != stream || frame.seq != seq {
            return Err(ClientError::UnexpectedFrame(format!(
                "wanted {kind:?} for stream {stream} seq {seq}, got {:?} for stream {} seq {}",
                frame.kind, frame.stream, frame.seq
            )));
        }
        Ok(frame)
    }

    /// Stream ids currently open on this client.
    pub fn open_streams(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.seqs.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

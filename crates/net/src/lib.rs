//! # mhhea-net — MHNP, a framed TCP transport for the MHHEA gateway
//!
//! The paper pitches MHHEA as an FPGA cipher *for data communication
//! security*; this crate is the layer that actually communicates. It puts
//! a length-prefixed, CRC-protected session protocol (**MHNP**) in front
//! of the multi-stream gateway ([`mhhea::gateway::StreamMux`]), in the
//! same front-end-before-the-accelerated-core shape
//! hardware-acceleration-as-a-service systems use.
//!
//! * [`frame`] — the wire format: 32-byte header (version, kind, flags,
//!   stream id, sequence number, payload length, CRC-32 over header +
//!   payload) and the handshake/data/error payload codecs.
//! * [`server`] — a non-blocking `std::net` TCP server, layered as an
//!   acceptor dealing sockets round-robin to `reactors` readiness loops
//!   (`ServerConfig::reactors`, default 1). Each reactor owns a disjoint
//!   set of connections and coalesces each tick's `Data` frames (both
//!   directions, all of its connections — and, on reactor 0, the
//!   datagram path's chunks) into one
//!   [`mhhea::gateway::StreamMux::submit_batch`] call on the shared
//!   worker pool; the per-connection state machine (parse, sequencing,
//!   write-side backpressure) lives in a private transport-agnostic
//!   module. On disconnect each stream's `MHSS` snapshot parks in a
//!   store shared across reactors, so a reconnecting client resumes
//!   bit-exactly — whichever reactor it lands on.
//! * [`client`] — a blocking client with per-stream sequence tracking and
//!   a pipelined batch path.
//! * [`dgram`] — **MHNP-D**, the datagram mode: the same frames over
//!   `UdpSocket`, one self-describing packet per chunk via the
//!   container-v2 per-chunk keystream derivation, a sliding replay
//!   window instead of a sequence counter, and explicit loss reporting
//!   instead of delivery guarantees. Streams are established over TCP
//!   and attached to the datagram path by resume token, so both
//!   transports serve the same mux entries, epochs and snapshots.
//! * [`crc`] — CRC-32 (IEEE), the per-frame integrity check.
//!
//! Streams are keyed one of two ways. A `Hello` handshake names a
//! pre-shared key id from the server's keyring. Alternatively — when the
//! server opts in with [`server::ServerConfig::with_ephemeral_keys`] — a
//! `KeyEx` handshake (MHKX) serves clients with **no pre-shared key at
//! all**: an ephemeral X25519 exchange ([`mhhea_kex`]) derives the
//! stream's key and LFSR seed jointly, both sides prove knowledge of the
//! derived material with confirmation tags, and only then does the
//! server allocate the stream. The same handshake at a nonzero epoch
//! rotates an open stream under fresh Diffie–Hellman material
//! ([`client::NetClient::rekey_ephemeral`]), making each epoch's key
//! independent of every earlier one. See `docs/PROTOCOL.md` §5.1.
//!
//! # A conversation in frames
//!
//! ```text
//! client                                server
//!   │ Hello(stream=7, key_id, seed) ──────▶ opens sessions for stream 7
//!   │ ◀──────────── HelloAck(7, token)
//!   │ Data(7, seq=0, plaintext) ──────────▶ encrypt on stream 7
//!   │ ◀──────── Reply(7, seq=0, bit_len ∥ blocks)
//!   │ Data(7, seq=1, OPEN, blocks) ───────▶ decrypt on stream 7
//!   │ ◀──────── Reply(7, seq=1, plaintext)
//!   │ Rekey(7, seq=2, epoch=1) ───────────▶ rotates key epoch, both
//!   │ ◀─── RekeyAck(7, epoch=1, token′)     directions, atomically
//!   │ Data(7, seq=(1,0), plaintext) ──────▶ sealed under epoch 1
//!   │ ◀──────── Reply(7, seq=(1,0), …)      (old-epoch replays: StaleEpoch)
//!   ✕ (disconnect)                          evicts stream 7 → snapshot
//!   │ (reconnect)
//!   │ Resume(7, token′) ──────────────────▶ restores from snapshot
//!   │ ◀── HelloAck(7, RESUMED, token′, 1)   cipher state + epoch continue
//! ```
//!
//! The sequence field carries the key epoch in its high 32 bits
//! ([`frame::split_seq`]); at epoch 0 it is numerically a plain counter,
//! so a stream that never rekeys puts identical `Data`/`Reply` bytes on
//! the wire as before epochs existed. (The `HelloAck` answering a
//! `Resume` did grow: it now appends the epoch to the token.)
//!
//! # Example
//!
//! ```
//! use mhhea_net::client::NetClient;
//! use mhhea_net::frame::Hello;
//! use mhhea_net::server::{NetServer, ServerConfig};
//! use mhhea::Key;
//!
//! let key = Key::from_nibbles(&[(0, 3), (2, 5)])?;
//! let server = NetServer::spawn("127.0.0.1:0", ServerConfig::new([(1, key.clone())]))?;
//!
//! let mut client = NetClient::connect(server.addr())?;
//! client.open_stream(7, Hello::new(1, 0xACE1))?;
//! let sealed = client.seal(7, b"over the wire")?;
//! let plain = client.open(7, &sealed.blocks, sealed.bit_len)?;
//! assert_eq!(plain, b"over the wire");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
mod conn;
pub mod crc;
pub mod dgram;
pub mod frame;
mod reactor;
pub mod server;

pub use client::{ClientError, EphemeralSession, NetClient, Sealed};
pub use dgram::{DgramClient, DgramClientConfig, DgramError, DgramOutcome};
pub use frame::{ErrorCode, Frame, FrameError, FrameKind, Hello};
pub use server::{NetServer, ServerConfig, ServerHandle, ServerStats};

//! **MHNP-D** — the datagram mode of MHNP, over `std::net::UdpSocket`.
//!
//! The TCP stack ([`crate::server`]/[`crate::client`]) assumes a
//! reliable ordered byte stream; MHNP-D assumes nothing: packets may be
//! lost, duplicated, reordered or delayed, and every packet must
//! therefore be decodable — and serviceable — **in isolation**. The
//! cipher property making that possible already exists: the container-v2
//! chunk path derives an independent LFSR seed per chunk index
//! (`mhhea::pipeline::chunk_seed`), so chunks share no cipher state and
//! decrypt in any order with any subset delivered. MHNP-D puts that
//! property on an unreliable wire.
//!
//! * [`frame`] — one standard MHNP frame per datagram (same 32-byte
//!   header, same CRC, new kinds), plus the datagram size caps.
//! * [`window`] — [`window::ReorderWindow`], the sliding replay window
//!   both ends run: per-stream chunk-index dedup with bounded memory.
//! * [`sender`] — [`sender::DgramClient`], the client: splits a message
//!   into independently-sealed chunks, one datagram each, and
//!   reassembles replies under a deadline, reporting losses explicitly.
//! * `socket` (private) — the server side: the UDP socket and its attach
//!   table, drained by reactor 0 in its tick, so datagram chunks ride the
//!   same [`mhhea::gateway::StreamMux::submit_batch`] and shared registry
//!   the TCP connections do.
//!
//! # Division of labour with TCP
//!
//! Key establishment stays on the reliable transport: a stream is opened
//! over TCP (`Hello` with a pre-shared key id, or an MHKX `KeyEx`
//! exchange) and *attached* to the datagram path by presenting its
//! **resume token** in a `DgramResume` packet. A parked stream (its TCP
//! connection died) is restored from its eviction snapshot exactly as a
//! TCP `Resume` would; a live stream is attached in place. Either way
//! the datagram path serves the same mux entry as TCP — same key
//! epochs, same snapshots, same stats.
//!
//! # The loss-tolerance contract
//!
//! Delivered chunks are **byte-exact or refused** — never silently
//! corrupted (the CRC rejects damage; the replay window rejects
//! duplicates; wrong-epoch stamps are refused before cipher state is
//! touched). Lost chunks are **reported, not recovered**: there is no
//! retransmission, no acknowledgement beyond the per-chunk reply, and no
//! cross-chunk ordering guarantee. See `docs/PROTOCOL.md` §6 for the
//! normative statement of what is (and is not) guaranteed.

pub mod frame;
pub mod sender;
pub(crate) mod socket;
pub mod window;

pub use frame::{decode_datagram, DGRAM_MAX_CHUNK_BYTES, DGRAM_MAX_PACKET_BYTES};
pub use sender::{
    DgramClient, DgramClientConfig, DgramError, DgramOutcome, OpenedChunk, SealedChunk,
};
pub use window::{ReorderWindow, Slot};

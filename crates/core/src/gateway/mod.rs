//! A sharded multi-stream gateway: thousands of concurrent cipher streams
//! over one shared worker pool.
//!
//! The paper's MHHEA core sits on a live data-communication link; a
//! deployment serves *many* such links at once. [`StreamMux`] is that
//! layer in software: it owns one [`EncryptSession`]/[`DecryptSession`]
//! pair per [`StreamId`], keeps them in a sharded session table (one lock
//! per shard, so independent streams never contend), and coalesces batches
//! of small messages from many streams into single submissions to the
//! shared [`WorkerPool`](crate::pipeline::WorkerPool).
//!
//! The API tour:
//!
//! * [`StreamMux::submit_batch`] — the serving path: a mixed tick of
//!   [`StreamOp`]s (encrypts, decrypts, key rotations) across many
//!   streams, one pool submission per busy shard, results in batch
//!   order.
//! * [`StreamMux::encrypt`]/[`StreamMux::decrypt`]/[`StreamMux::rekey`]
//!   — the same operations, one at a time.
//! * [`StreamMux::seal_chunk`]/[`StreamMux::open_chunk`] —
//!   chunk-addressed one-shot keystreams for lossy transports; they never
//!   move the stream's cursors.
//!
//! Every stream on one `(key, algorithm, profile)` shares one immutable
//! span table: the mux interns tables, the way the paper's datapath has
//! one key cache that every module reads. A stream itself holds its two
//! cursors, a 2-byte LFSR state, its key and a reference to the table.
//!
//! Streams are evictable: [`StreamMux::evict`] serialises a stream's
//! entire resume state (key, cursors, LFSR state) into a snapshot byte
//! string and [`StreamMux::restore`] resumes it bit-exactly — the software
//! analogue of context-switching the FPGA core between channels.
//!
//! # Snapshot format
//!
//! Little-endian; **contains key material** — protect it like the key
//! itself:
//!
//! ```text
//! offset size field
//! 0      4    magic  "MHSS"
//! 4      1    version (2)
//! 5      1    algorithm (0 = HHEA, 1 = MHHEA)
//! 6      1    profile   (0 = streaming, 1 = hardware-faithful)
//! 7      1    current-key pair count P (1..=16)
//! 8      8    stream id
//! 16     2    LFSR state (nonzero)
//! 18     9    encrypt cursor (StreamCursor::to_bytes)
//! 27     9    decrypt cursor (StreamCursor::to_bytes)
//! 36     4    key epoch (u32)
//! 40     2    keyring master seed (0 iff no keyring)
//! 42     1    keyring key count R (0 = no keyring)
//! 43     1    reserved (0)
//! 44     P    current key pairs, one byte each: left | right << 3
//! 44+P   —    R ring keys, each: 1-byte pair count Pᵢ ∥ Pᵢ pair bytes
//! ```
//!
//! Carrying the epoch and the ring is what lets an evicted stream resume
//! bit-exactly *across a key rotation* and keep rotating afterwards.
//!
//! # Examples
//!
//! ```
//! use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
//! use mhhea::Key;
//!
//! let key = Key::from_nibbles(&[(0, 3), (2, 5)])?;
//! let tx = StreamMux::new();
//! let rx = StreamMux::new();
//! for id in 0..4 {
//!     tx.open(StreamId(id), StreamConfig::new(key.clone()))?;
//!     rx.open(StreamId(id), StreamConfig::new(key.clone()))?;
//! }
//!
//! // One tick: every stream sends a message.
//! let message = |id: u64| format!("message on {id}").into_bytes();
//! let sealed = tx.submit_batch(
//!     (0..4)
//!         .map(|id| (StreamId(id), StreamOp::Encrypt(message(id))))
//!         .collect(),
//! );
//!
//! // The peer opens each message on its own copy of the stream.
//! let mut opens = Vec::new();
//! for (id, out) in (0..4).zip(sealed) {
//!     let StreamOutput::Blocks(blocks) = out? else {
//!         panic!("an encrypt yields blocks");
//!     };
//!     let bit_len = message(id).len() * 8;
//!     opens.push((StreamId(id), StreamOp::Decrypt { blocks, bit_len }));
//! }
//! for (id, out) in (0..4).zip(rx.submit_batch(opens)) {
//!     assert_eq!(out?, StreamOutput::Plain(message(id)));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use crate::block::SpanTable;
use crate::key::KeyRing;
use crate::pipeline::chunk_seed;
use crate::session::{build_table, decrypt_at, DecryptSession, EncryptSession, StreamCursor};
use crate::source::LfsrSource;
use crate::{Algorithm, Key, MhheaError, Profile};

mod batch;
mod snapshot;

pub use snapshot::{
    SnapshotDecodeError, SNAPSHOT_HEADER_LEN, SNAPSHOT_MAGIC, SNAPSHOT_V2_HEADER_LEN,
    SNAPSHOT_VERSION,
};

/// Default shard count for [`StreamMux::new`].
pub const DEFAULT_SHARDS: usize = 64;

/// Identifies one cipher stream within a [`StreamMux`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

impl core::fmt::Display for StreamId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

/// Per-stream cipher parameters handed to [`StreamMux::open`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The stream's key (both directions share it).
    pub key: Key,
    /// Cipher variant (default MHHEA).
    pub algorithm: Algorithm,
    /// Buffering profile (default streaming).
    pub profile: Profile,
    /// LFSR seed for the encrypt side's hiding vectors (nonzero; default
    /// `0xACE1`).
    pub seed: u16,
    /// Epoch-numbered key material enabling [`StreamMux::rekey`] /
    /// [`StreamOp::Rekey`] on this stream (default: none — the stream is
    /// pinned to `key` for its whole life and any rekey fails with
    /// [`GatewayError::NoKeyRing`]).
    pub ring: Option<KeyRing>,
}

impl StreamConfig {
    /// A config with the defaults (MHHEA, streaming profile, seed
    /// `0xACE1`, no keyring).
    pub fn new(key: Key) -> Self {
        StreamConfig {
            key,
            algorithm: Algorithm::Mhhea,
            profile: Profile::Streaming,
            seed: 0xACE1,
            ring: None,
        }
    }

    /// Selects the cipher variant.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the buffering profile.
    #[must_use]
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Selects the encrypt-side LFSR seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u16) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a [`KeyRing`] so the stream can rekey, **and** aligns the
    /// opening materials with the ring's epoch 0: `key` becomes
    /// [`KeyRing::key`]`(0)` and `seed` becomes [`KeyRing::seed`]`(0)`
    /// (the master seed), so the stream's pre-rotation behaviour is
    /// byte-identical to a plain `StreamConfig::new(ring.key(0))` with
    /// that seed.
    #[must_use]
    pub fn with_ring(mut self, ring: KeyRing) -> Self {
        self.key = ring.key(0).clone();
        self.seed = ring.seed(0);
        self.ring = Some(ring);
        self
    }
}

/// Errors from gateway operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GatewayError {
    /// [`StreamMux::open`]/[`StreamMux::restore`] hit an id already in the
    /// table.
    StreamExists(StreamId),
    /// The id is not in the table (never opened, closed, or evicted).
    UnknownStream(StreamId),
    /// An engine-level failure on the stream's session.
    Engine(MhheaError),
    /// A stream snapshot failed to decode.
    Snapshot(SnapshotDecodeError),
    /// A rekey was requested on a stream opened without a [`KeyRing`]
    /// (see [`StreamConfig::with_ring`]). The stream is untouched.
    NoKeyRing(StreamId),
    /// A rekey named an epoch that is not strictly newer than the
    /// stream's current one (a replayed or out-of-order rotation). The
    /// stream is untouched.
    StaleEpoch {
        /// The stream's current epoch.
        current: u32,
        /// The rejected epoch.
        requested: u32,
    },
    /// A batch slot was never filled by the scatter pass. This is an
    /// internal invariant violation that should be unreachable; it is
    /// reported as an error instead of panicking on the serving path.
    MissingResult {
        /// The batch position whose result went missing.
        position: usize,
    },
}

impl core::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GatewayError::StreamExists(id) => write!(f, "stream {} already open", id.0),
            GatewayError::UnknownStream(id) => write!(f, "unknown stream {}", id.0),
            GatewayError::Engine(e) => write!(f, "engine failure: {e}"),
            GatewayError::Snapshot(e) => write!(f, "snapshot decode: {e}"),
            GatewayError::NoKeyRing(id) => {
                write!(f, "stream {} was opened without a keyring", id.0)
            }
            GatewayError::StaleEpoch { current, requested } => write!(
                f,
                "rekey to epoch {requested} rejected: stream is already at epoch {current}"
            ),
            GatewayError::MissingResult { position } => write!(
                f,
                "internal error: batch position {position} produced no result"
            ),
        }
    }
}

impl std::error::Error for GatewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GatewayError::Engine(e) => Some(e),
            GatewayError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MhheaError> for GatewayError {
    fn from(e: MhheaError) -> Self {
        GatewayError::Engine(e)
    }
}

impl From<SnapshotDecodeError> for GatewayError {
    fn from(e: SnapshotDecodeError) -> Self {
        GatewayError::Snapshot(e)
    }
}

/// One unit of work in a [`StreamMux::submit_batch`] call: which half of
/// the duplex stream to drive, and with what.
///
/// A transport serving live connections sees encrypts, decrypts and
/// rekeys interleaved in one tick; `submit_batch` coalesces the whole
/// mixed tick into a single pool submission and keeps each stream's ops
/// in batch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamOp {
    /// Encrypt the plaintext bytes on the stream's encrypt session.
    Encrypt(Vec<u8>),
    /// Decrypt cipher blocks on the stream's decrypt session.
    Decrypt {
        /// The message's cipher blocks.
        blocks: Vec<u16>,
        /// The message's plaintext bit length.
        bit_len: usize,
    },
    /// Rotate the stream (both directions, atomically) to a new
    /// [`KeyRing`] epoch. Because rekeys ride the same per-shard
    /// sequential jobs as encrypts and decrypts, a batch mixing all three
    /// applies them to each stream *in batch order* — operations before
    /// the rekey run under the old epoch, operations after it under the
    /// new one — and a failed rekey is confined to its own slot.
    Rekey {
        /// The epoch to rotate to (must be strictly newer).
        epoch: u32,
    },
}

/// The output of one [`StreamOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamOutput {
    /// Cipher blocks produced by [`StreamOp::Encrypt`].
    Blocks(Vec<u16>),
    /// Plaintext bytes recovered by [`StreamOp::Decrypt`].
    Plain(Vec<u8>),
    /// Acknowledges a [`StreamOp::Rekey`]: the stream now runs `epoch`.
    Rekeyed {
        /// The epoch the stream rotated to.
        epoch: u32,
    },
}

/// One duplex stream: an encrypt endpoint, a decrypt endpoint tracking the
/// peer's encrypt side, and the parameters needed to snapshot both.
#[derive(Debug)]
struct StreamState {
    enc: EncryptSession<LfsrSource>,
    dec: DecryptSession,
    key: Key,
    algorithm: Algorithm,
    profile: Profile,
    /// Present iff the stream can rekey.
    ring: Option<KeyRing>,
    /// Current key epoch (0 until the first rekey).
    epoch: u32,
}

impl StreamState {
    /// A stream at the cipher-stream origin, epoch 0, both sessions on
    /// `tables`' shared table for `(key, algorithm, profile)`.
    fn new(
        key: Key,
        algorithm: Algorithm,
        profile: Profile,
        source: LfsrSource,
        ring: Option<KeyRing>,
        tables: &TableInterner,
    ) -> StreamState {
        let table = tables.get(&key, algorithm, profile);
        StreamState {
            enc: EncryptSession::with_table(
                key.clone(),
                source,
                algorithm,
                profile,
                Arc::clone(&table),
            ),
            dec: DecryptSession::with_table(key.clone(), algorithm, profile, table),
            key,
            algorithm,
            profile,
            ring,
            epoch: 0,
        }
    }

    /// Rotates both sessions to `epoch` atomically: the epoch's key from
    /// the ring, a fresh LFSR reseed on the encrypt side, both cursors
    /// back at the stream origin.
    fn rekey(
        &mut self,
        id: StreamId,
        epoch: u32,
        tables: &TableInterner,
    ) -> Result<u32, GatewayError> {
        let ring = self.ring.as_ref().ok_or(GatewayError::NoKeyRing(id))?;
        self.check_newer(epoch)?;
        let key = ring.key(epoch).clone();
        let source = LfsrSource::new(ring.seed(epoch))
            .map_err(|_| GatewayError::Engine(MhheaError::InvalidSeed))?;
        self.install(key, source, epoch, tables)
    }

    /// Rotates both sessions to `epoch` with externally derived material
    /// (a fresh Diffie–Hellman exchange) instead of a ring lookup. The
    /// stream's ring is replaced by a single-entry ring holding exactly
    /// this key and seed, so snapshots of the stream stay restorable.
    fn rekey_with(
        &mut self,
        key: Key,
        seed: u16,
        epoch: u32,
        tables: &TableInterner,
    ) -> Result<u32, GatewayError> {
        self.check_newer(epoch)?;
        // A single-key ring only rejects a zero master seed, exactly the
        // condition `LfsrSource::new` rejects below.
        let ring = KeyRing::single(key.clone(), seed)
            .map_err(|_| GatewayError::Engine(MhheaError::InvalidSeed))?;
        let source =
            LfsrSource::new(seed).map_err(|_| GatewayError::Engine(MhheaError::InvalidSeed))?;
        self.install(key, source, epoch, tables)?;
        self.ring = Some(ring);
        Ok(epoch)
    }

    fn check_newer(&self, epoch: u32) -> Result<(), GatewayError> {
        if epoch <= self.epoch {
            return Err(GatewayError::StaleEpoch {
                current: self.epoch,
                requested: epoch,
            });
        }
        Ok(())
    }

    /// Moves both sessions to `epoch` on `key`'s shared table. The caller
    /// has already checked the epoch, so neither session-level rekey can
    /// report a stale epoch; the two sessions always move together.
    fn install(
        &mut self,
        key: Key,
        source: LfsrSource,
        epoch: u32,
        tables: &TableInterner,
    ) -> Result<u32, GatewayError> {
        let table = tables.get(&key, self.algorithm, self.profile);
        self.enc
            .rekey_with_table(key.clone(), source, epoch, Arc::clone(&table))?;
        self.dec.rekey_with_table(key.clone(), epoch, table)?;
        self.key = key;
        self.epoch = epoch;
        Ok(epoch)
    }
}

/// Which cipher a span table serves: tables are shared on exact key
/// equality, never on [`Key::fingerprint`] (two keys with one
/// fingerprint must not share a table).
type TableId = (Key, Algorithm, Profile);

/// The mux's span-table interner: one immutable [`SpanTable`] per
/// [`TableId`], shared by every session on it. Entries are weak, so a
/// table lives exactly as long as some stream holds it, and dead entries
/// are pruned as the map grows — unique-key (MHKX) streams leave neither
/// tables nor map entries behind.
#[derive(Debug, Default)]
struct TableInterner {
    // lock-order: span_tables
    span_tables: Mutex<TableMap>,
}

#[derive(Debug, Default)]
struct TableMap {
    live: HashMap<TableId, Weak<SpanTable>>,
    /// Prune dead entries once `live` reaches this length.
    prune_at: usize,
}

/// The smallest map length at which dead entries are pruned.
const MIN_PRUNE_AT: usize = 64;

impl TableInterner {
    /// Locks the map, recovering from poisoning: every update is a single
    /// `insert` or `retain` of weak entries, so the map is always valid.
    fn lock_tables(&self) -> MutexGuard<'_, TableMap> {
        self.span_tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared table for `(key, algorithm, profile)`, built on first
    /// use. The build runs outside the lock, so one new key's build never
    /// stalls another shard's lookup; if two shards race to build the
    /// same table, the first one installed wins and is shared.
    fn get(&self, key: &Key, algorithm: Algorithm, profile: Profile) -> Arc<SpanTable> {
        let id = (key.clone(), algorithm, profile);
        if let Some(table) = self.lock_tables().live.get(&id).and_then(Weak::upgrade) {
            return table;
        }
        let built = build_table(key, algorithm, profile);
        let mut map = self.lock_tables();
        if let Some(table) = map.live.get(&id).and_then(Weak::upgrade) {
            return table;
        }
        if map.live.len() >= map.prune_at {
            map.live.retain(|_, table| table.strong_count() > 0);
            map.prune_at = (2 * map.live.len()).max(MIN_PRUNE_AT);
        }
        map.live.insert(id, Arc::downgrade(&built));
        built
    }
}

type Shard = Mutex<HashMap<u64, StreamState>>;

/// Locks a shard, recovering from poisoning. Every gateway operation
/// either completes or leaves its stream untouched, so the table behind a
/// poisoned lock is still consistent stream-by-stream; refusing service
/// on every stream in the shard forever would be strictly worse.
fn lock_shard(shard: &Shard) -> MutexGuard<'_, HashMap<u64, StreamState>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug)]
struct MuxInner {
    // lock-order: mux_shard < span_tables
    shards: Box<[Shard]>,
    /// Span tables shared by the streams in `shards`; rekeys look tables
    /// up while holding a shard lock.
    tables: TableInterner,
    /// `shards.len() - 1`; the count is a power of two.
    mask: u64,
    /// Max in-flight pool jobs for batch calls (`0` asks the OS).
    /// Atomic so [`StreamMux::set_workers`] is a plain store shared by
    /// every clone — never a table rebuild.
    workers: AtomicUsize,
}

impl MuxInner {
    /// SplitMix64 avalanche so sequential ids spread across shards.
    fn shard_of(&self, id: StreamId) -> usize {
        let mut z = id.0 ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) & self.mask) as usize
    }

    /// The shard holding `id`'s state.
    fn shard(&self, id: StreamId) -> &Shard {
        &self.shards[self.shard_of(id)] // lint: allow(panic-path, reason = "shard_of masks the index below shards.len(), a power of two")
    }

    fn with_stream<R>(
        &self,
        id: StreamId,
        f: impl FnOnce(&mut StreamState) -> Result<R, GatewayError>,
    ) -> Result<R, GatewayError> {
        let mut shard = lock_shard(self.shard(id));
        let state = shard
            .get_mut(&id.0)
            .ok_or(GatewayError::UnknownStream(id))?;
        f(state)
    }
}

/// A sharded table of concurrent cipher streams sharing one worker pool.
///
/// See the [module docs](crate::gateway) for the API tour and the
/// snapshot format. Cloning a `StreamMux` is cheap and shares the table, so one
/// gateway can be driven from many threads.
#[derive(Debug, Clone)]
pub struct StreamMux {
    inner: Arc<MuxInner>,
}

impl Default for StreamMux {
    fn default() -> Self {
        StreamMux::new()
    }
}

impl StreamMux {
    /// A mux with [`DEFAULT_SHARDS`] shards and OS-sized batch
    /// parallelism.
    pub fn new() -> Self {
        StreamMux::with_shards(DEFAULT_SHARDS)
    }

    /// A mux with at least `shards` shards (rounded up to a power of two,
    /// minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let shards: Box<[Shard]> = (0..count).map(|_| Mutex::new(HashMap::new())).collect();
        StreamMux {
            inner: Arc::new(MuxInner {
                shards,
                tables: TableInterner::default(),
                mask: (count - 1) as u64,
                workers: AtomicUsize::new(0),
            }),
        }
    }

    /// Builder form of [`StreamMux::set_workers`].
    #[must_use]
    pub fn with_workers(self, workers: usize) -> Self {
        self.set_workers(workers);
        self
    }

    /// Caps in-flight pool jobs for batch calls (`0`, the default, asks
    /// the OS). Takes effect for every clone of this mux from the next
    /// batch call on — the setting lives in the shared table, so no
    /// handle is invalidated.
    pub fn set_workers(&self, workers: usize) {
        self.inner.workers.store(workers, Ordering::Relaxed);
    }

    /// Number of shards in the session table.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Number of open streams (locks each shard briefly).
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| lock_shard(s).len()).sum()
    }

    /// True when no streams are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `id` is an open stream.
    pub fn contains(&self, id: StreamId) -> bool {
        lock_shard(self.inner.shard(id)).contains_key(&id.0)
    }

    /// Opens a fresh stream at the cipher-stream origin.
    ///
    /// # Errors
    ///
    /// [`GatewayError::StreamExists`] if `id` is already open;
    /// [`GatewayError::Engine`] ([`MhheaError::InvalidSeed`]) for a zero
    /// seed.
    pub fn open(&self, id: StreamId, config: StreamConfig) -> Result<(), GatewayError> {
        let source = LfsrSource::new(config.seed)
            .map_err(|_| GatewayError::Engine(MhheaError::InvalidSeed))?;
        let state = StreamState::new(
            config.key,
            config.algorithm,
            config.profile,
            source,
            config.ring,
            &self.inner.tables,
        );
        self.insert(id, state)
    }

    fn insert(&self, id: StreamId, state: StreamState) -> Result<(), GatewayError> {
        let mut shard = lock_shard(self.inner.shard(id));
        if shard.contains_key(&id.0) {
            return Err(GatewayError::StreamExists(id));
        }
        shard.insert(id.0, state);
        Ok(())
    }

    /// Closes a stream, discarding its state.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`] if `id` is not open.
    pub fn close(&self, id: StreamId) -> Result<(), GatewayError> {
        lock_shard(self.inner.shard(id))
            .remove(&id.0)
            .map(|_| ())
            .ok_or(GatewayError::UnknownStream(id))
    }

    /// Encrypts one message on one stream, advancing its cursor.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`]; engine failures as
    /// [`GatewayError::Engine`].
    pub fn encrypt(&self, id: StreamId, message: &[u8]) -> Result<Vec<u16>, GatewayError> {
        self.inner.with_stream(id, |s| Ok(s.enc.encrypt(message)?))
    }

    /// Decrypts one message's blocks on one stream, advancing its cursor.
    ///
    /// # Errors
    ///
    /// See [`StreamMux::encrypt`]; additionally
    /// [`MhheaError::CiphertextTruncated`] (wrapped) when `blocks` carry
    /// fewer than `bit_len` bits.
    pub fn decrypt(
        &self,
        id: StreamId,
        blocks: &[u16],
        bit_len: usize,
    ) -> Result<Vec<u8>, GatewayError> {
        self.inner
            .with_stream(id, |s| Ok(s.dec.decrypt(blocks, bit_len)?))
    }

    /// The stream's current encrypt-side cursor (for monitoring).
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`].
    pub fn cursor(&self, id: StreamId) -> Result<StreamCursor, GatewayError> {
        self.inner.with_stream(id, |s| Ok(s.enc.cursor()))
    }

    /// The stream's current key epoch (0 until the first rekey).
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`].
    pub fn epoch(&self, id: StreamId) -> Result<u32, GatewayError> {
        self.inner.with_stream(id, |s| Ok(s.epoch))
    }

    /// Rotates one stream (both directions, atomically) to a new
    /// [`KeyRing`] epoch: the epoch's key, a fresh LFSR reseed derived
    /// via [`KeyRing::seed`], both cursors back at the stream origin.
    /// Returns the epoch now in force. Batched form:
    /// [`StreamOp::Rekey`] through [`StreamMux::submit_batch`].
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`]; [`GatewayError::NoKeyRing`] when
    /// the stream was opened without a ring; [`GatewayError::StaleEpoch`]
    /// unless `epoch` is strictly newer than the stream's current epoch.
    /// On every error the stream is untouched and fully usable.
    pub fn rekey(&self, id: StreamId, epoch: u32) -> Result<u32, GatewayError> {
        let tables = &self.inner.tables;
        self.inner.with_stream(id, |s| s.rekey(id, epoch, tables))
    }

    /// Rotates one stream (both directions, atomically) to `epoch` using
    /// externally derived material — a fresh Diffie–Hellman exchange —
    /// instead of a ring lookup: the supplied key, an LFSR reseed from
    /// the supplied seed, both cursors back at the stream origin. The
    /// stream's ring is replaced by a single-entry ring holding exactly
    /// this material, so later snapshots and ring rekeys stay coherent.
    /// Returns the epoch now in force.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`]; [`GatewayError::StaleEpoch`]
    /// unless `epoch` is strictly newer than the stream's current epoch;
    /// [`GatewayError::Engine`] for a zero `seed`. On every error the
    /// stream is untouched and fully usable.
    pub fn rekey_with(
        &self,
        id: StreamId,
        epoch: u32,
        key: Key,
        seed: u16,
    ) -> Result<u32, GatewayError> {
        let tables = &self.inner.tables;
        self.inner
            .with_stream(id, |s| s.rekey_with(key, seed, epoch, tables))
    }

    /// Seals one **chunk-addressed** message on a stream: a one-shot
    /// encrypt session seeded with `chunk_seed(ring.seed(epoch),
    /// chunk_index)` — the container-v2 per-chunk derivation — so every
    /// chunk is independently decryptable, in any order, with any subset
    /// delivered. The stream's duplex cursors are **not** advanced: chunk
    /// traffic and the sequential [`StreamMux::encrypt`] path coexist on
    /// one stream without desynchronising each other.
    ///
    /// `epoch` must name the stream's *current* epoch — the caller's view
    /// of which key the chunk is sealed under is checked, not assumed.
    /// Chunk indices must never be reused within an epoch (each index
    /// names one keystream; reuse would be a two-time pad) — the caller
    /// owns that discipline, e.g. with a monotonic per-stream counter and
    /// a receive-side replay window.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`]; [`GatewayError::NoKeyRing`] when
    /// the stream was opened without a ring (no chunk-seed master to
    /// derive from); [`GatewayError::StaleEpoch`] unless `epoch` is the
    /// stream's current epoch; engine failures as
    /// [`GatewayError::Engine`]. On every error the stream is untouched.
    pub fn seal_chunk(
        &self,
        id: StreamId,
        epoch: u32,
        chunk_index: u32,
        message: &[u8],
    ) -> Result<Vec<u16>, GatewayError> {
        self.inner.with_stream(id, |s| {
            let ring = s.ring.as_ref().ok_or(GatewayError::NoKeyRing(id))?;
            if epoch != s.epoch {
                return Err(GatewayError::StaleEpoch {
                    current: s.epoch,
                    requested: epoch,
                });
            }
            let seed = chunk_seed(ring.seed(epoch), chunk_index);
            let source =
                LfsrSource::new(seed).map_err(|_| GatewayError::Engine(MhheaError::InvalidSeed))?;
            let mut enc = EncryptSession::with_table(
                s.key.clone(),
                source,
                s.algorithm,
                s.profile,
                Arc::clone(s.enc.table()),
            );
            Ok(enc.encrypt(message)?)
        })
    }

    /// Opens one chunk sealed by [`StreamMux::seal_chunk`] (this mux or
    /// any peer holding the same key): a one-shot decrypt session from the
    /// stream origin — decryption consults only the key, so no seed
    /// derivation is needed and chunks open in any order. The stream's
    /// duplex cursors are **not** advanced.
    ///
    /// `epoch` must name the stream's current epoch (the chunk was sealed
    /// under that epoch's key; opening it under any other would produce
    /// garbage, not an error — so the mismatch is refused up front).
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`]; [`GatewayError::StaleEpoch`]
    /// unless `epoch` is current; [`GatewayError::Engine`] (e.g.
    /// truncated ciphertext). On every error the stream is untouched.
    pub fn open_chunk(
        &self,
        id: StreamId,
        epoch: u32,
        blocks: &[u16],
        bit_len: usize,
    ) -> Result<Vec<u8>, GatewayError> {
        self.inner.with_stream(id, |s| {
            if epoch != s.epoch {
                return Err(GatewayError::StaleEpoch {
                    current: s.epoch,
                    requested: epoch,
                });
            }
            let mut origin = StreamCursor::start();
            Ok(decrypt_at(
                s.dec.table(),
                s.profile,
                &mut origin,
                blocks,
                bit_len,
            )?)
        })
    }

    /// Removes a stream and serialises its full resume state (format in
    /// the [module docs](crate::gateway); **contains the key**).
    ///
    /// Eviction is atomic: the snapshot is fully encoded *before* the
    /// stream leaves the table, so no failure mode (including a panic in
    /// the encoder) can discard live stream state without handing the
    /// caller the bytes that resume it.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`].
    pub fn evict(&self, id: StreamId) -> Result<Vec<u8>, GatewayError> {
        let mut shard = lock_shard(self.inner.shard(id));
        let state = shard.get(&id.0).ok_or(GatewayError::UnknownStream(id))?;
        let snapshot = snapshot::encode_snapshot(id, state);
        shard.remove(&id.0);
        Ok(snapshot)
    }

    /// Resumes a stream from an [`StreamMux::evict`] snapshot, bit-exact:
    /// the next message encrypts and decrypts exactly as it would have on
    /// the uninterrupted stream.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Snapshot`] for malformed bytes;
    /// [`GatewayError::StreamExists`] if the id is already open again.
    pub fn restore(&self, snapshot: &[u8]) -> Result<StreamId, GatewayError> {
        let (id, state) = snapshot::decode_snapshot(snapshot, &self.inner.tables)?;
        self.insert(id, state)?;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn key() -> Key {
        Key::from_nibbles(&[(0, 3), (2, 5), (1, 7)]).unwrap()
    }

    #[test]
    fn open_close_contains() {
        let mux = StreamMux::with_shards(4);
        assert!(mux.is_empty());
        mux.open(StreamId(1), StreamConfig::new(key())).unwrap();
        assert!(mux.contains(StreamId(1)));
        assert_eq!(mux.len(), 1);
        assert_eq!(
            mux.open(StreamId(1), StreamConfig::new(key())),
            Err(GatewayError::StreamExists(StreamId(1)))
        );
        mux.close(StreamId(1)).unwrap();
        assert_eq!(
            mux.close(StreamId(1)),
            Err(GatewayError::UnknownStream(StreamId(1)))
        );
    }

    #[test]
    fn per_stream_traffic_roundtrips() {
        let tx = StreamMux::with_shards(8);
        let rx = StreamMux::with_shards(2); // shard counts need not match
        for id in 0..6u64 {
            let cfg = StreamConfig::new(key()).with_seed(0x1000 + id as u16);
            tx.open(StreamId(id), cfg.clone()).unwrap();
            rx.open(StreamId(id), cfg).unwrap();
        }
        // Interleave messages across streams: cursors stay per-stream.
        for round in 0..3 {
            for id in 0..6u64 {
                let msg = format!("round {round} stream {id}");
                let blocks = tx.encrypt(StreamId(id), msg.as_bytes()).unwrap();
                let got = rx.decrypt(StreamId(id), &blocks, msg.len() * 8).unwrap();
                assert_eq!(got, msg.as_bytes());
            }
        }
    }

    #[test]
    fn worker_setting_is_shared_by_clones_without_divorcing_them() {
        let mux = StreamMux::with_shards(2);
        mux.open(StreamId(5), StreamConfig::new(key())).unwrap();
        let peer = mux.clone();
        let mux = mux.with_workers(3); // builder form must not rebuild the table
        assert_eq!(peer.len(), 1, "clone lost the shared table");
        peer.set_workers(1); // either handle can reconfigure
        let blocks = mux.encrypt(StreamId(5), b"shared").unwrap();
        // The clone sees the cursor advance the original produced.
        assert_eq!(
            peer.cursor(StreamId(5)).unwrap().block_index,
            blocks.len() as u64
        );
    }

    pub(super) fn ring() -> KeyRing {
        KeyRing::new(
            vec![key(), Key::from_nibbles(&[(1, 6), (0, 7)]).unwrap()],
            0xACE1,
        )
        .unwrap()
    }

    /// Rekeying both muxes at the same point keeps traffic round-tripping,
    /// each epoch under its own key/seed; errors leave streams untouched.
    #[test]
    fn rekey_rotates_both_directions_atomically() {
        let tx = StreamMux::with_shards(2);
        let rx = StreamMux::with_shards(8);
        let cfg = StreamConfig::new(key()).with_ring(ring());
        tx.open(StreamId(1), cfg.clone()).unwrap();
        rx.open(StreamId(1), cfg).unwrap();

        let before = tx.encrypt(StreamId(1), b"epoch zero").unwrap();
        assert_eq!(rx.decrypt(StreamId(1), &before, 80).unwrap(), b"epoch zero");

        assert_eq!(tx.rekey(StreamId(1), 1).unwrap(), 1);
        assert_eq!(rx.rekey(StreamId(1), 1).unwrap(), 1);
        assert_eq!(tx.epoch(StreamId(1)).unwrap(), 1);
        // The new epoch restarts the schedule from the stream origin.
        assert_eq!(tx.cursor(StreamId(1)).unwrap().block_index, 0);

        let after = tx.encrypt(StreamId(1), b"epoch one!").unwrap();
        assert_ne!(before, after, "rotation must change the keystream");
        assert_eq!(rx.decrypt(StreamId(1), &after, 80).unwrap(), b"epoch one!");

        // Stale and replayed epochs are rejected without touching state.
        assert_eq!(
            tx.rekey(StreamId(1), 1),
            Err(GatewayError::StaleEpoch {
                current: 1,
                requested: 1
            })
        );
        assert_eq!(
            tx.rekey(StreamId(1), 0),
            Err(GatewayError::StaleEpoch {
                current: 1,
                requested: 0
            })
        );
        let more = tx.encrypt(StreamId(1), b"still epoch 1").unwrap();
        assert_eq!(
            rx.decrypt(StreamId(1), &more, 13 * 8).unwrap(),
            b"still epoch 1"
        );
        // Epochs may skip forward (e.g. catching up after downtime).
        assert_eq!(tx.rekey(StreamId(1), 7).unwrap(), 7);
    }

    #[test]
    fn rekey_without_ring_is_rejected_and_confined() {
        let mux = StreamMux::with_shards(1); // one shard: ops share a job
        mux.open(StreamId(1), StreamConfig::new(key())).unwrap();
        mux.open(StreamId(2), StreamConfig::new(key()).with_ring(ring()))
            .unwrap();
        let results = mux.submit_batch(vec![
            (StreamId(1), StreamOp::Rekey { epoch: 1 }),
            (StreamId(2), StreamOp::Rekey { epoch: 1 }),
            (StreamId(1), StreamOp::Encrypt(b"unrotated".to_vec())),
        ]);
        assert_eq!(results[0], Err(GatewayError::NoKeyRing(StreamId(1))));
        assert_eq!(results[1], Ok(StreamOutput::Rekeyed { epoch: 1 }));
        // The failed rekey left its stream fully usable at epoch 0.
        assert!(matches!(results[2], Ok(StreamOutput::Blocks(_))));
        assert_eq!(mux.epoch(StreamId(1)).unwrap(), 0);
        assert_eq!(mux.epoch(StreamId(2)).unwrap(), 1);
    }

    /// Chunk-addressed seal/open: any order, any subset, and the stream's
    /// sequential cursors never move — chunk and stream traffic coexist.
    #[test]
    fn chunk_ops_roundtrip_out_of_order_without_touching_cursors() {
        let tx = StreamMux::with_shards(2);
        let rx = StreamMux::with_shards(4);
        let cfg = StreamConfig::new(key()).with_ring(ring());
        tx.open(StreamId(9), cfg.clone()).unwrap();
        rx.open(StreamId(9), cfg).unwrap();

        let chunks: Vec<Vec<u8>> = (0u32..5)
            .map(|i| format!("chunk payload {i}").into_bytes())
            .collect();
        let sealed: Vec<Vec<u16>> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| tx.seal_chunk(StreamId(9), 0, i as u32, c).unwrap())
            .collect();
        // Chunk seals leave the sequential encrypt cursor at the origin.
        assert_eq!(tx.cursor(StreamId(9)).unwrap().block_index, 0);
        // Distinct indices must produce distinct keystreams.
        let again = tx.seal_chunk(StreamId(9), 0, 1, &chunks[0]).unwrap();
        assert_ne!(again, sealed[0], "chunk seeds must differ per index");

        // Open in reverse order, skipping one — delivery order and loss
        // are invisible to chunk decryption.
        for i in [4usize, 2, 1, 0] {
            let got = rx
                .open_chunk(StreamId(9), 0, &sealed[i], chunks[i].len() * 8)
                .unwrap();
            assert_eq!(got, chunks[i]);
        }
        // The sequential stream path is byte-identical to a chunk-free
        // stream: cursors were never advanced by the chunk traffic.
        let blocks = tx.encrypt(StreamId(9), b"stream traffic").unwrap();
        assert_eq!(
            rx.decrypt(StreamId(9), &blocks, 14 * 8).unwrap(),
            b"stream traffic"
        );
    }

    /// Pins the chunk-seed derivation: `seal_chunk` is byte-identical to
    /// a one-shot session seeded with `chunk_seed(ring.seed(epoch), i)` —
    /// the contract a remote differential oracle reproduces.
    #[test]
    fn chunk_seal_matches_oracle_session() {
        let mux = StreamMux::with_shards(2);
        let cfg = StreamConfig::new(key()).with_ring(ring());
        mux.open(StreamId(4), cfg).unwrap();
        let msg = b"oracle me";
        for index in [0u32, 1, 7] {
            let sealed = mux.seal_chunk(StreamId(4), 0, index, msg).unwrap();
            let seed = crate::pipeline::chunk_seed(ring().seed(0), index);
            let mut oracle = EncryptSession::with_options(
                key(),
                LfsrSource::new(seed).unwrap(),
                Algorithm::Mhhea,
                Profile::Streaming,
            );
            assert_eq!(sealed, oracle.encrypt(msg).unwrap(), "index {index}");
        }
    }

    /// Chunk ops refuse wrong epochs and ringless streams, and follow the
    /// stream across a rotation.
    #[test]
    fn chunk_ops_check_epoch_and_ring() {
        let mux = StreamMux::with_shards(2);
        mux.open(StreamId(1), StreamConfig::new(key())).unwrap();
        mux.open(StreamId(2), StreamConfig::new(key()).with_ring(ring()))
            .unwrap();
        assert_eq!(
            mux.seal_chunk(StreamId(1), 0, 0, b"no ring"),
            Err(GatewayError::NoKeyRing(StreamId(1)))
        );
        assert_eq!(
            mux.seal_chunk(StreamId(7), 0, 0, b"nobody home"),
            Err(GatewayError::UnknownStream(StreamId(7)))
        );
        // A wrong epoch stamp — stale or future — is refused up front.
        assert_eq!(
            mux.seal_chunk(StreamId(2), 3, 0, b"future"),
            Err(GatewayError::StaleEpoch {
                current: 0,
                requested: 3
            })
        );
        let epoch0 = mux.seal_chunk(StreamId(2), 0, 0, b"rotate me").unwrap();
        mux.rekey(StreamId(2), 1).unwrap();
        assert_eq!(
            mux.open_chunk(StreamId(2), 0, &epoch0, 72),
            Err(GatewayError::StaleEpoch {
                current: 1,
                requested: 0
            })
        );
        // Index 0 is fresh keystream again under the rotated epoch seed.
        let epoch1 = mux.seal_chunk(StreamId(2), 1, 0, b"rotate me").unwrap();
        assert_ne!(epoch0, epoch1, "rotation must change the chunk keystream");
        assert_eq!(
            mux.open_chunk(StreamId(2), 1, &epoch1, 72).unwrap(),
            b"rotate me"
        );
    }

    /// An evict/restore cycle across a rotation keeps everything: epoch,
    /// ring (so the stream can keep rotating), and bit-exact state.
    #[test]
    fn snapshot_v2_roundtrips_epoch_and_ring() {
        let mux = StreamMux::with_shards(2);
        mux.open(StreamId(3), StreamConfig::new(key()).with_ring(ring()))
            .unwrap();
        mux.encrypt(StreamId(3), b"pre-rotation").unwrap();
        mux.rekey(StreamId(3), 2).unwrap();
        mux.encrypt(StreamId(3), b"post-rotation").unwrap();

        let control = mux.clone();
        let snap = mux.evict(StreamId(3)).unwrap();
        assert_eq!(snap[4], SNAPSHOT_VERSION);
        let restored = StreamMux::with_shards(16);
        restored.restore(&snap).unwrap();
        assert_eq!(restored.epoch(StreamId(3)).unwrap(), 2);
        // restore → evict reproduces the exact bytes.
        assert_eq!(restored.evict(StreamId(3)).unwrap(), snap);
        restored.restore(&snap).unwrap();
        // ...and the ring survived: the stream still rotates.
        restored.rekey(StreamId(3), 3).unwrap();
        control.restore(&snap).unwrap();
        control.rekey(StreamId(3), 3).unwrap();
        let a = restored.encrypt(StreamId(3), b"epoch three").unwrap();
        let b = control.encrypt(StreamId(3), b"epoch three").unwrap();
        assert_eq!(a, b, "post-restore rotation diverged");
    }

    /// The table a stream's sessions run on; both halves share it.
    fn table_of(mux: &StreamMux, id: u64) -> Arc<SpanTable> {
        mux.inner
            .with_stream(StreamId(id), |s| {
                assert!(
                    Arc::ptr_eq(s.enc.table(), s.dec.table()),
                    "enc and dec must share one table"
                );
                Ok(Arc::clone(s.enc.table()))
            })
            .unwrap()
    }

    fn interned(mux: &StreamMux) -> usize {
        mux.inner.tables.lock_tables().live.len()
    }

    #[test]
    fn streams_on_one_cipher_share_one_span_table() {
        let mux = StreamMux::with_shards(4);
        for id in 0..16u64 {
            let cfg = StreamConfig::new(key()).with_seed(0x0100 + id as u16);
            mux.open(StreamId(id), cfg).unwrap();
        }
        let first = table_of(&mux, 0);
        for id in 1..16 {
            assert!(Arc::ptr_eq(&first, &table_of(&mux, id)), "stream {id}");
        }
        // 16 streams, 32 sessions, one table (plus this test's handle).
        assert_eq!(Arc::strong_count(&first), 33);
        assert_eq!(interned(&mux), 1);
    }

    #[test]
    fn distinct_ciphers_get_distinct_span_tables() {
        let other = Key::from_nibbles(&[(0, 3), (2, 5), (1, 6)]).unwrap();
        let configs = [
            StreamConfig::new(key()),
            StreamConfig::new(key()).with_algorithm(Algorithm::Hhea),
            StreamConfig::new(key()).with_profile(Profile::HardwareFaithful),
            StreamConfig::new(other),
        ];
        let mux = StreamMux::with_shards(2);
        for (id, cfg) in configs.into_iter().enumerate() {
            mux.open(StreamId(id as u64), cfg).unwrap();
        }
        let tables: Vec<_> = (0..4).map(|id| table_of(&mux, id)).collect();
        for a in 0..4 {
            for b in a + 1..4 {
                assert!(!Arc::ptr_eq(&tables[a], &tables[b]), "streams {a} and {b}");
            }
        }
        assert_eq!(interned(&mux), 4);
    }

    /// A rotation onto a key some live stream already runs reuses that
    /// stream's table — through `rekey`, `submit_batch` and `rekey_with`.
    #[test]
    fn rekey_to_a_live_key_reuses_its_span_table() {
        let mux = StreamMux::with_shards(2);
        let epoch1_key = ring().key(1).clone();
        mux.open(StreamId(1), StreamConfig::new(key()).with_ring(ring()))
            .unwrap();
        mux.open(StreamId(2), StreamConfig::new(key()).with_ring(ring()))
            .unwrap();
        mux.open(StreamId(3), StreamConfig::new(epoch1_key.clone()))
            .unwrap();
        let epoch0 = table_of(&mux, 1);
        let epoch1 = table_of(&mux, 3);

        mux.rekey(StreamId(1), 1).unwrap();
        assert!(Arc::ptr_eq(&table_of(&mux, 1), &epoch1));
        let rotated = mux.submit_batch(vec![(StreamId(2), StreamOp::Rekey { epoch: 1 })]);
        assert_eq!(rotated[0], Ok(StreamOutput::Rekeyed { epoch: 1 }));
        assert!(Arc::ptr_eq(&table_of(&mux, 2), &epoch1));
        mux.rekey_with(StreamId(3), 1, key(), 0x5EED).unwrap();
        assert!(Arc::ptr_eq(&table_of(&mux, 3), &epoch0));
        assert_eq!(interned(&mux), 2);
    }

    #[test]
    fn last_stream_of_a_key_frees_its_span_table() {
        let mux = StreamMux::with_shards(2);
        mux.open(StreamId(1), StreamConfig::new(key())).unwrap();
        mux.open(StreamId(2), StreamConfig::new(key()).with_seed(0xBEEF))
            .unwrap();
        let table = Arc::downgrade(&table_of(&mux, 1));
        mux.close(StreamId(1)).unwrap();
        assert!(table.upgrade().is_some(), "stream 2 still runs on it");
        let snapshot = mux.evict(StreamId(2)).unwrap();
        assert!(table.upgrade().is_none(), "no stream holds the table");
        // A restore interns a fresh table for the key.
        mux.restore(&snapshot).unwrap();
        mux.open(StreamId(3), StreamConfig::new(key())).unwrap();
        assert!(Arc::ptr_eq(&table_of(&mux, 2), &table_of(&mux, 3)));
    }

    /// Unique-key streams (MHKX) opened and closed one after another
    /// leave the interner at a small constant size.
    #[test]
    fn unique_key_churn_keeps_the_interner_bounded() {
        let mux = StreamMux::with_shards(2);
        for i in 0..10_000u32 {
            let half = |shift: u32| ((i >> shift) & 7) as u8;
            let unique =
                Key::from_nibbles(&[(half(0), half(3)), (half(6), half(9)), (half(12), half(15))])
                    .unwrap();
            mux.open(StreamId(7), StreamConfig::new(unique)).unwrap();
            if i.is_multiple_of(2) {
                mux.close(StreamId(7)).unwrap();
            } else {
                mux.evict(StreamId(7)).unwrap();
            }
            assert!(interned(&mux) <= MIN_PRUNE_AT, "key {i}");
        }
    }

    #[test]
    fn zero_seed_rejected() {
        let mux = StreamMux::new();
        assert_eq!(
            mux.open(StreamId(9), StreamConfig::new(key()).with_seed(0)),
            Err(GatewayError::Engine(MhheaError::InvalidSeed))
        );
    }
}

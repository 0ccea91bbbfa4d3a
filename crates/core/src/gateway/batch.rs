//! The batch path: [`StreamMux::submit_batch`] — one pool job per busy
//! shard, a total scatter back into batch order, and the lane prepass
//! that runs compatible first-op encrypts through the bitsliced engine.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{lock_shard, GatewayError, StreamId, StreamMux, StreamOp, StreamOutput, StreamState};
use crate::lanes::{seal_lanes, LaneSealJob, LANE_THRESHOLD};
use crate::pipeline::WorkerPool;
use crate::{Algorithm, Key, Profile};

/// One shard's share of a batch: original position, stream, op.
type ShardItems = Vec<(usize, StreamId, StreamOp)>;

/// A batch position and its result.
type Done = Vec<(usize, Result<StreamOutput, GatewayError>)>;

impl StreamMux {
    /// Runs a mixed batch of encrypts, decrypts and key rotations in one
    /// coalesced pool submission: one sequential job per busy shard, under
    /// one lock acquisition. `results[i]` corresponds to `batch[i]`; a
    /// failing stream fails only its own slots — shard-mates in the same
    /// batch are untouched. Operations on the same stream (in any
    /// direction, including [`StreamOp::Rekey`]) keep their batch order,
    /// so work before a rekey runs under the old epoch and work after it
    /// under the new one.
    ///
    /// When a busy shard's share of the batch holds at least
    /// [`LANE_THRESHOLD`] streams whose *first* op is a streaming encrypt
    /// under the same algorithm and key, those encrypts run through the
    /// bitsliced lane engine ([`crate::lanes`]) in lockstep; everything
    /// else stays on the scalar path. The output is bit-identical either
    /// way.
    ///
    /// ```
    /// use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
    /// use mhhea::{Key, KeyRing};
    ///
    /// let ring = KeyRing::single(Key::from_nibbles(&[(0, 3), (2, 5)])?, 0xACE1)?;
    /// let mux = StreamMux::new();
    /// mux.open(StreamId(1), StreamConfig::new(ring.key(0).clone()).with_ring(ring))?;
    ///
    /// let results = mux.submit_batch(vec![
    ///     (StreamId(1), StreamOp::Encrypt(b"old epoch".to_vec())),
    ///     (StreamId(1), StreamOp::Rekey { epoch: 1 }),
    ///     (StreamId(1), StreamOp::Encrypt(b"new epoch".to_vec())),
    /// ]);
    /// assert!(matches!(results[0], Ok(StreamOutput::Blocks(_))));
    /// assert_eq!(results[1], Ok(StreamOutput::Rekeyed { epoch: 1 }));
    /// assert!(matches!(results[2], Ok(StreamOutput::Blocks(_))));
    /// assert_eq!(mux.epoch(StreamId(1))?, 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn submit_batch(
        &self,
        batch: Vec<(StreamId, StreamOp)>,
    ) -> Vec<Result<StreamOutput, GatewayError>> {
        let total = batch.len();
        let inner = Arc::clone(&self.inner);
        let mut groups: HashMap<usize, ShardItems> = HashMap::new();
        for (pos, (id, op)) in batch.into_iter().enumerate() {
            groups
                .entry(inner.shard_of(id))
                .or_default()
                .push((pos, id, op));
        }
        let groups: Vec<(usize, ShardItems)> = groups.into_iter().collect();
        let workers = inner.workers.load(Ordering::Relaxed);
        let scattered: Vec<Done> =
            WorkerPool::global().map(groups, workers, move |_, (shard_idx, mut items)| {
                let Some(shard) = inner.shards.get(shard_idx) else {
                    // Unreachable: shard_of masks into range. Stay total.
                    return items
                        .into_iter()
                        .map(|(pos, id, _)| (pos, Err(GatewayError::UnknownStream(id))))
                        .collect();
                };
                let mut shard = lock_shard(shard);
                // The lane prepass completes what it can first; the scalar
                // loop runs after it, so a laned first op commits its
                // stream state before any of the stream's later ops run.
                let mut done = lane_prepass(&mut shard, &mut items);
                done.extend(items.into_iter().map(|(pos, id, op)| {
                    let r = match shard.get_mut(&id.0) {
                        Some(state) => run_op(state, id, op),
                        None => Err(GatewayError::UnknownStream(id)),
                    };
                    (pos, r)
                }));
                done
            });
        // Pre-fill with the (unreachable) internal error so the scatter
        // stays total: every reported position overwrites its slot.
        let mut out: Vec<Result<StreamOutput, GatewayError>> = (0..total)
            .map(|position| Err(GatewayError::MissingResult { position }))
            .collect();
        for (pos, r) in scattered.into_iter().flatten() {
            if let Some(slot) = out.get_mut(pos) {
                *slot = r;
            }
        }
        out
    }
}

/// Runs one op on the scalar path.
fn run_op(s: &mut StreamState, id: StreamId, op: StreamOp) -> Result<StreamOutput, GatewayError> {
    match op {
        StreamOp::Encrypt(msg) => Ok(StreamOutput::Blocks(s.enc.encrypt(&msg)?)),
        StreamOp::Decrypt { blocks, bit_len } => {
            Ok(StreamOutput::Plain(s.dec.decrypt(&blocks, bit_len)?))
        }
        StreamOp::Rekey { epoch } => Ok(StreamOutput::Rekeyed {
            epoch: s.rekey(id, epoch)?,
        }),
    }
}

/// The lane-filling scheduler: one shard's share of a batch enters, and
/// every stream whose *first* op is a streaming encrypt becomes a lane
/// candidate. Candidates are grouped by cipher parameters (algorithm +
/// key — one span table serves a whole group) and groups of at least
/// [`LANE_THRESHOLD`] run through [`seal_lanes`] in bitsliced lockstep.
/// Smaller groups, decrypts, rekeys, and every stream's later ops stay
/// scalar.
///
/// Completed items are removed from `items` and returned with their
/// batch position. The prepass is all-or-nothing per stream: state
/// snapshots are read-only, and a stream is only advanced (`lane_commit`)
/// once its kernel output is in hand — any failure leaves the stream
/// untouched for the scalar path to redo.
fn lane_prepass(shard: &mut HashMap<u64, StreamState>, items: &mut ShardItems) -> Done {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut groups: HashMap<(Algorithm, Key), Vec<usize>> = HashMap::new();
    for (ix, (_pos, id, op)) in items.iter().enumerate() {
        if !seen.insert(id.0) {
            continue; // only a stream's first op may jump the queue
        }
        if !matches!(op, StreamOp::Encrypt(_)) {
            continue;
        }
        let Some(state) = shard.get(&id.0) else {
            continue; // unknown stream: the scalar path reports it
        };
        if state.profile != Profile::Streaming {
            continue; // hardware-faithful buffering is inherently serial
        }
        groups
            .entry((state.algorithm, state.key.clone()))
            .or_default()
            .push(ix);
    }
    let mut sealed: HashMap<usize, Vec<u16>> = HashMap::new();
    for group in groups.into_values() {
        if group.len() < LANE_THRESHOLD {
            continue; // too few lanes to beat the scalar path
        }
        let mut jobs: Vec<LaneSealJob> = Vec::with_capacity(group.len());
        for &ix in &group {
            let Some((_, id, StreamOp::Encrypt(message))) = items.get(ix) else {
                continue;
            };
            let Some(state) = shard.get(&id.0) else {
                continue;
            };
            let (block_index, lfsr) = state.enc.lane_snapshot();
            jobs.push(LaneSealJob {
                message,
                state: lfsr,
                block_index,
            });
        }
        if jobs.len() != group.len() {
            continue; // a candidate went missing (unreachable): scalar
        }
        let outs = {
            let Some((_, id0, _)) = group.first().and_then(|&ix| items.get(ix)) else {
                continue;
            };
            let Some(st0) = shard.get(&id0.0) else {
                continue;
            };
            match seal_lanes(&st0.key, st0.algorithm, st0.enc.span_table(), &jobs) {
                Ok(outs) => outs,
                Err(_) => continue, // kernel refused: scalar fallback
            }
        };
        drop(jobs);
        for (&ix, out) in group.iter().zip(outs) {
            let Some((_, id, _)) = items.get(ix) else {
                continue;
            };
            let Some(state) = shard.get_mut(&id.0) else {
                continue;
            };
            if state.enc.lane_commit(out.block_index, out.state).is_err() {
                continue; // stream untouched: the scalar path redoes it
            }
            sealed.insert(ix, out.blocks);
        }
    }
    if sealed.is_empty() {
        return Vec::new();
    }
    let mut done = Vec::with_capacity(sealed.len());
    let rest = std::mem::take(items);
    for (ix, (pos, id, op)) in rest.into_iter().enumerate() {
        match sealed.remove(&ix) {
            Some(blocks) => done.push((pos, Ok(StreamOutput::Blocks(blocks)))),
            None => items.push((pos, id, op)),
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::tests::key;
    use crate::gateway::StreamConfig;
    use crate::MhheaError;

    /// A mixed submit_batch drives both directions of the same stream in
    /// batch order, and failures stay confined to their own slot.
    #[test]
    fn submit_batch_mixes_directions_and_confines_errors() {
        let tx = StreamMux::with_shards(1); // one shard: all streams collide
        let rx = StreamMux::with_shards(1);
        for id in 0..3u64 {
            let cfg = StreamConfig::new(key()).with_seed(0x0B0B + id as u16);
            tx.open(StreamId(id), cfg.clone()).unwrap();
            rx.open(StreamId(id), cfg).unwrap();
        }
        let msgs: Vec<Vec<u8>> = (0..3u64)
            .map(|id| format!("duplex message {id}").into_bytes())
            .collect();
        let blocks: Vec<Vec<u16>> = (0..3u64)
            .map(|id| tx.encrypt(StreamId(id), &msgs[id as usize]).unwrap())
            .collect();

        // One batch: decrypt stream 0, fail stream 1 (truncated), decrypt
        // stream 2, and encrypt a follow-up on stream 0 — all interleaved.
        let batch = vec![
            (
                StreamId(0),
                StreamOp::Decrypt {
                    blocks: blocks[0].clone(),
                    bit_len: msgs[0].len() * 8,
                },
            ),
            (
                StreamId(1),
                StreamOp::Decrypt {
                    blocks: blocks[1][..1].to_vec(),
                    bit_len: msgs[1].len() * 8,
                },
            ),
            (
                StreamId(2),
                StreamOp::Decrypt {
                    blocks: blocks[2].clone(),
                    bit_len: msgs[2].len() * 8,
                },
            ),
            (StreamId(0), StreamOp::Encrypt(b"follow-up".to_vec())),
        ];
        let results = rx.submit_batch(batch);
        assert_eq!(results[0], Ok(StreamOutput::Plain(msgs[0].clone())));
        assert!(matches!(
            results[1],
            Err(GatewayError::Engine(MhheaError::CiphertextTruncated { .. }))
        ));
        assert_eq!(results[2], Ok(StreamOutput::Plain(msgs[2].clone())));
        assert!(matches!(results[3], Ok(StreamOutput::Blocks(_))));
        // The failed decrypt did not advance stream 1: the full blocks
        // still open, bit-exactly.
        assert_eq!(
            rx.decrypt(StreamId(1), &blocks[1], msgs[1].len() * 8)
                .unwrap(),
            msgs[1]
        );
    }

    fn encrypts(ids: impl Iterator<Item = u64>, msg: impl Fn(u64) -> Vec<u8>) -> ShardItems {
        ids.enumerate()
            .map(|(pos, id)| (pos, StreamId(id), StreamOp::Encrypt(msg(id))))
            .collect()
    }

    /// White-box: the lane prepass engages for a compatible group, removes
    /// the laned items (bit-exact vs scalar), and leaves ineligible ops —
    /// hardware-faithful streams, repeat messages — on the scalar path.
    #[test]
    fn lane_prepass_packs_compatible_first_ops() {
        let mux = StreamMux::with_shards(1);
        for id in 0..19u64 {
            mux.open(StreamId(id), StreamConfig::new(key())).unwrap();
        }
        // Stream 19 is hardware-faithful: never laned.
        mux.open(
            StreamId(19),
            StreamConfig::new(key()).with_profile(crate::Profile::HardwareFaithful),
        )
        .unwrap();
        let reference = StreamMux::with_shards(1);
        for id in 0..19u64 {
            reference
                .open(StreamId(id), StreamConfig::new(key()))
                .unwrap();
        }
        let msg = |id: u64| format!("msg {id}").into_bytes();
        let mut items = encrypts(0..20, msg);
        // A second message on stream 0 must stay scalar (order!).
        items.push((20, StreamId(0), StreamOp::Encrypt(b"second".to_vec())));
        let mut shard = lock_shard(&mux.inner.shards[0]);
        let done = lane_prepass(&mut shard, &mut items);
        drop(shard);
        assert_eq!(done.len(), 19, "19 compatible first ops lane-pack");
        assert_eq!(items.len(), 2, "HW stream + repeat message stay scalar");
        for (pos, out) in done {
            let id = StreamId(pos as u64);
            let want = reference.encrypt(id, &msg(id.0)).unwrap();
            assert_eq!(out, Ok(StreamOutput::Blocks(want)));
        }
    }

    #[test]
    fn lane_prepass_skips_below_threshold() {
        let mux = StreamMux::with_shards(1);
        let few = LANE_THRESHOLD as u64 - 1;
        for id in 0..few {
            mux.open(StreamId(id), StreamConfig::new(key())).unwrap();
        }
        let mut items = encrypts(0..few, |_| vec![0xAB; 8]);
        let mut shard = lock_shard(&mux.inner.shards[0]);
        let done = lane_prepass(&mut shard, &mut items);
        assert!(done.is_empty(), "below threshold nothing lanes");
        assert_eq!(items.len(), few as usize);
    }
}

//! The batch path: [`StreamMux::submit_batch`] — one pool job per busy
//! shard, each running its ops in batch order on the shard's streams, and
//! a total scatter back into batch order.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{
    lock_shard, GatewayError, StreamId, StreamMux, StreamOp, StreamOutput, StreamState,
    TableInterner,
};
use crate::pipeline::WorkerPool;

/// One shard's share of a batch: original position, stream, op.
type ShardItems = Vec<(usize, StreamId, StreamOp)>;

/// A batch position and its result.
type Done = Vec<(usize, Result<StreamOutput, GatewayError>)>;

impl StreamMux {
    /// Runs a mixed batch of encrypts, decrypts, key rotations and chunk
    /// ops in one coalesced pool submission: one sequential job per busy
    /// shard, under one lock acquisition. `results[i]` corresponds to
    /// `batch[i]`; a failing stream fails only its own slots —
    /// shard-mates in the same batch are untouched. Operations on the same stream (in any
    /// direction, including [`StreamOp::Rekey`]) keep their batch order,
    /// so work before a rekey runs under the old epoch and work after it
    /// under the new one.
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
            WorkerPool::global().map(groups, workers, move |_, (shard_idx, items)| {
                let Some(shard) = inner.shards.get(shard_idx) else {
                    // Unreachable: shard_of masks into range. Stay total.
                    return items
                        .into_iter()
                        .map(|(pos, id, _)| (pos, Err(GatewayError::UnknownStream(id))))
                        .collect();
                };
                let mut shard = lock_shard(shard);
                items
                    .into_iter()
                    .map(|(pos, id, op)| {
                        let r = match shard.get_mut(&id.0) {
                            Some(state) => run_op(state, id, op, &inner.tables),
                            None => Err(GatewayError::UnknownStream(id)),
                        };
                        (pos, r)
                    })
                    .collect()
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

/// Runs one op on the stream; a rekey takes its table from
/// `tables`. Chunk ops go through the same `StreamState` methods as
/// [`StreamMux::seal_chunk`]/[`StreamMux::open_chunk`].
fn run_op(
    s: &mut StreamState,
    id: StreamId,
    op: StreamOp,
    tables: &TableInterner,
) -> Result<StreamOutput, GatewayError> {
    match op {
        StreamOp::Encrypt(msg) => Ok(StreamOutput::Blocks(s.encrypt(&msg)?)),
        StreamOp::Decrypt { blocks, bit_len } => {
            Ok(StreamOutput::Plain(s.decrypt(&blocks, bit_len)?))
        }
        StreamOp::Rekey { epoch } => Ok(StreamOutput::Rekeyed {
            epoch: s.rekey(id, epoch, tables)?,
        }),
        StreamOp::SealChunk {
            epoch,
            index,
            plain,
        } => Ok(StreamOutput::Blocks(
            s.seal_chunk(id, epoch, index, &plain)?,
        )),
        StreamOp::OpenChunk {
            epoch,
            blocks,
            bit_len,
        } => Ok(StreamOutput::Plain(s.open_chunk(epoch, &blocks, bit_len)?)),
    }
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
}

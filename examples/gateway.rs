//! The multi-stream gateway end to end: a fleet of concurrent streams,
//! one batched traffic tick in each direction, and a mid-conversation
//! evict/restore cycle that resumes a stream bit-exactly.
//!
//! Run with `cargo run --release --example gateway`.

use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
use mhhea::{Key, Profile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 4)])?;

    // One mux per endpoint. Opening the same id with the same config on
    // both sides puts their cursors in lockstep.
    const STREAMS: u64 = 1500;
    let tx = StreamMux::with_shards(64);
    let rx = StreamMux::with_shards(64);
    for id in 0..STREAMS {
        let cfg = StreamConfig::new(key.clone())
            .with_profile(Profile::Streaming)
            .with_seed(0x2000u16.wrapping_add(id as u16) | 1);
        tx.open(StreamId(id), cfg.clone())?;
        rx.open(StreamId(id), cfg)?;
    }
    println!(
        "opened {} duplex streams across {} shards",
        tx.len(),
        tx.shard_count()
    );

    // A traffic tick: every stream sends one message; the whole batch is
    // one submission to the shared worker pool.
    let message = |id: u64| format!("tick 0 payload for stream {id}").into_bytes();
    let batch = (0..STREAMS)
        .map(|id| (StreamId(id), StreamOp::Encrypt(message(id))))
        .collect();
    let start = std::time::Instant::now();
    let sealed = tx.submit_batch(batch);
    let sealed_in = start.elapsed();

    // The peer's tick decrypts every stream's message on its own copy.
    let mut cipher_bytes = 0;
    let mut decrypts = Vec::with_capacity(sealed.len());
    for (id, out) in (0..STREAMS).zip(sealed) {
        let StreamOutput::Blocks(blocks) = out? else {
            return Err("an encrypt produced no cipher blocks".into());
        };
        cipher_bytes += blocks.len() * 2;
        let bit_len = message(id).len() * 8;
        decrypts.push((StreamId(id), StreamOp::Decrypt { blocks, bit_len }));
    }
    let start = std::time::Instant::now();
    let opened = rx.submit_batch(decrypts);
    let opened_in = start.elapsed();
    let ok = (0..STREAMS)
        .zip(&opened)
        .filter(|(id, r)| **r == Ok(StreamOutput::Plain(message(*id))))
        .count();
    println!(
        "tick: encrypted {STREAMS} messages ({cipher_bytes} cipher bytes) in {sealed_in:?}, \
         decrypted {ok}/{STREAMS} in {opened_in:?}"
    );

    // Evict an idle stream: its whole resume state (key, cursors, LFSR
    // register) serialises into a small snapshot.
    let snap_tx = tx.evict(StreamId(7))?;
    let snap_rx = rx.evict(StreamId(7))?;
    println!(
        "evicted stream 7: snapshot is {} bytes, {} streams remain",
        snap_tx.len(),
        tx.len()
    );

    // Restore later — possibly on a differently-sharded mux — and the
    // stream continues exactly where it left off.
    tx.restore(&snap_tx)?;
    rx.restore(&snap_rx)?;
    let blocks = tx.encrypt(StreamId(7), b"post-restore message")?;
    let plain = rx.decrypt(StreamId(7), &blocks, b"post-restore message".len() * 8)?;
    assert_eq!(plain, b"post-restore message");
    println!(
        "stream 7 restored and resumed at cursor block {} — round trip intact",
        tx.cursor(StreamId(7))?.block_index
    );
    Ok(())
}

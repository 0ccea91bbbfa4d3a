//! Chunk planning and the persistent worker pool behind all parallel paths.
//!
//! Large payloads are split into fixed-size chunks, each encrypted by an
//! independent [`crate::session::EncryptSession`] whose LFSR seed is
//! derived from a master seed and the chunk number. Chunks share no state,
//! so they seal and open in parallel — the same batching-for-bandwidth
//! move FPGA cipher pipelines make. The container v2 format
//! ([`crate::container::seal_v2`]) is the on-wire form of this plan, and
//! the multi-stream gateway ([`crate::gateway`]) runs its batches over the
//! same substrate.
//!
//! Threads are **not** spawned per call. A [`WorkerPool`] spawns its
//! workers once, accepts jobs over a channel, and shuts down gracefully on
//! drop; [`WorkerPool::global`] is the process-wide instance the container
//! layer and the gateway share. [`parallel_map`] is the order-preserving
//! fan-out primitive built on top of it.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Default chunk size for [`crate::container::SealV2Options`]: 16 KiB.
///
/// Sized so that a 1 MiB payload fans out into 64 chunks — enough to
/// spread over every pool worker with room to balance — while each chunk
/// stays large enough that the per-chunk frame and session set-up costs
/// are noise. The format is self-describing, so containers sealed with
/// any other chunk size (such as the old 64 KiB default) open unchanged.
pub const DEFAULT_CHUNK_BYTES: usize = 16 * 1024;

/// Derives the per-chunk LFSR seed from a master seed and chunk index.
///
/// A SplitMix-style avalanche over `master ∥ index`, folded to 16 bits and
/// forced nonzero (an all-zero LFSR state never leaves zero). Both ends
/// compute it locally; only the master seed travels in the container
/// header. The key-rotation layer rides the same derivation:
/// [`crate::KeyRing::seed`] feeds the *epoch* number through this
/// function to reseed a stream's LFSR at every rekey.
///
/// ```
/// use mhhea::pipeline::chunk_seed;
///
/// assert_ne!(chunk_seed(0xACE1, 0), chunk_seed(0xACE1, 1));
/// assert_ne!(chunk_seed(0xACE1, 0), 0);
/// ```
pub fn chunk_seed(master: u16, index: u32) -> u16 {
    let mut z = ((master as u64) << 32) ^ (index as u64) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let folded = (z as u16) ^ ((z >> 16) as u16) ^ ((z >> 32) as u16) ^ ((z >> 48) as u16);
    if folded == 0 {
        0xACE1
    } else {
        folded
    }
}

/// Splits `total` bytes into chunk byte-ranges of `chunk_bytes` each (the
/// final chunk may be short). An empty payload yields no chunks.
///
/// ```
/// use mhhea::pipeline::chunk_ranges;
///
/// assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
/// assert!(chunk_ranges(0, 4).is_empty());
/// ```
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero.
pub fn chunk_ranges(total: usize, chunk_bytes: usize) -> Vec<std::ops::Range<usize>> {
    assert!(chunk_bytes > 0, "chunk size must be nonzero");
    (0..total.div_ceil(chunk_bytes))
        .map(|i| {
            let start = i * chunk_bytes;
            start..(start + chunk_bytes).min(total)
        })
        .collect()
}

/// Resolves a requested worker count against a known job count.
///
/// * `requested == 0` means "ask the OS"
///   ([`std::thread::available_parallelism`]).
/// * The result never exceeds the number of jobs — extra workers would
///   only idle — and is always at least `1`, including the degenerate
///   `jobs == 0` and `requested == 0, jobs == 0` corners (a map over zero
///   items still needs a well-defined width for its inline path).
///
/// For sizing a pool whose job count is unknown at construction, pass
/// `usize::MAX` as `jobs` (what [`WorkerPool::new`] does).
pub fn resolve_workers(requested: usize, jobs: usize) -> usize {
    let hw = || {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    };
    let want = if requested == 0 { hw() } else { requested };
    want.clamp(1, jobs.max(1))
}

/// A unit of pool work: boxed, owned, run-once.
type Job = Box<dyn FnOnce() + Send + 'static>;

std::thread_local! {
    /// Set inside pool worker threads so nested fan-outs degrade to the
    /// inline path instead of submitting to (and then blocking on) the
    /// pool they are already running inside — the classic fixed-size-pool
    /// self-deadlock.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A persistent pool of worker threads fed over a channel.
///
/// Workers are spawned exactly once, at construction, and live until the
/// pool is dropped (or [`WorkerPool::shutdown`] is called): submitting a
/// batch costs channel sends, not thread spawns. The container layer
/// ([`crate::container::seal_v2`]/[`crate::container::open_v2`]) and the
/// stream gateway ([`crate::gateway::StreamMux`]) both run on the shared
/// [`WorkerPool::global`] instance.
///
/// A job that panics does not kill its worker: the panic is caught, the
/// worker keeps draining the queue, and map-style entry points re-raise
/// the payload on the submitting thread.
///
/// # Examples
///
/// ```
/// use mhhea::pipeline::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let squares = pool.map((0u64..64).collect(), 2, |_, x| x * x);
/// assert_eq!(squares[7], 49);
/// pool.shutdown();
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    /// `None` only during shutdown (dropping the sender is what releases
    /// the workers from `recv`).
    injector: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns a pool of `resolve_workers(requested, usize::MAX)` threads
    /// (`0` asks the OS).
    pub fn new(requested: usize) -> Self {
        let workers = resolve_workers(requested, usize::MAX);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles: Vec<JoinHandle<()>> = (0..workers)
            .filter_map(|i| {
                let rx = Arc::clone(&rx);
                // A failed spawn (thread exhaustion) shrinks the pool
                // instead of panicking; with zero workers every map runs
                // inline on the submitting thread.
                std::thread::Builder::new()
                    .name(format!("mhhea-pool-{i}"))
                    .spawn(move || Self::worker_loop(&rx))
                    .ok()
            })
            .collect();
        WorkerPool {
            injector: Some(tx),
            workers: handles.len(),
            handles,
        }
    }

    // lock-order: pool_intake
    fn worker_loop(rx: &Mutex<Receiver<Job>>) {
        IN_POOL_WORKER.with(|f| f.set(true));
        loop {
            // Hold the lock only for the dequeue, never while running.
            let job = match rx.lock() {
                Ok(guard) => guard.recv(),
                Err(_) => break, // a peer panicked holding the lock
            };
            match job {
                // The job's own panic is contained here; map() re-raises
                // it on the submitting thread via the result channel.
                Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
                Err(_) => break, // injector dropped: graceful shutdown
            }
        }
    }

    /// The process-wide shared pool (sized by the OS; created on first
    /// use, never torn down — process exit reaps the threads).
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(0))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submits one fire-and-forget job.
    ///
    /// The job is guaranteed to run: if the pool has no live worker to
    /// hand it to (every spawn failed, or the pool is mid-shutdown —
    /// neither reachable through the public API), it runs inline on the
    /// calling thread instead of being lost.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        let Some(tx) = self.injector.as_ref() else {
            return job();
        };
        if let Err(returned) = tx.send(job) {
            // Every worker has exited; the send hands the job back.
            (returned.0)();
        }
    }

    /// Maps `f` over `items` with at most `max_parallel` jobs in flight,
    /// preserving order (`0` asks the OS). The submitting thread processes
    /// the first shard itself, so a single-shard map never touches the
    /// queue, and calls from *inside* a pool worker run entirely inline
    /// rather than deadlocking the pool.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f` on the calling thread.
    pub fn map<T, U, F>(&self, items: Vec<T>, max_parallel: usize, f: F) -> Vec<U>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: Fn(usize, T) -> U + Send + Sync + 'static,
    {
        let jobs = items.len();
        let workers = resolve_workers(max_parallel, jobs).min(self.workers + 1);
        let inline = workers <= 1 || jobs <= 1 || IN_POOL_WORKER.with(std::cell::Cell::get);
        if inline {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }

        // Deal contiguous shards; shard 0 stays on this thread.
        let shard_len = jobs.div_ceil(workers);
        let mut shards: Vec<(usize, Vec<T>)> = Vec::with_capacity(workers);
        let mut items = items.into_iter();
        let mut start = 0;
        loop {
            let shard: Vec<T> = items.by_ref().take(shard_len).collect();
            if shard.is_empty() {
                break;
            }
            let len = shard.len();
            shards.push((start, shard));
            start += len;
        }

        let f = Arc::new(f);
        type ShardResult<U> = (usize, std::thread::Result<Vec<U>>);
        let (tx, rx) = channel::<ShardResult<U>>();
        let mut shards = shards.into_iter();
        let Some((base0, shard0)) = shards.next() else {
            return Vec::new(); // jobs > 1 implies a shard; stay total
        };
        let submitted = shards.len();
        for (slot, (base, shard)) in shards.enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            self.execute(move || {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    shard
                        .into_iter()
                        .enumerate()
                        .map(|(i, t)| f(base + i, t))
                        .collect::<Vec<U>>()
                }));
                // A dead receiver means the submitter already panicked;
                // nothing useful to do with the result either way.
                let _ = tx.send((slot, out));
            });
        }
        drop(tx);

        let first: Vec<U> = shard0
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(base0 + i, t))
            .collect();

        let mut collected: Vec<Option<Vec<U>>> = (0..submitted).map(|_| None).collect();
        let mut panic_payload = None;
        for _ in 0..submitted {
            // `execute` guarantees each job runs (inline at worst), so
            // every sender reports; a failed recv means a worker died
            // unnaturally and the remaining shards are gone.
            let Ok((slot, out)) = rx.recv() else { break };
            match out {
                Ok(v) => {
                    if let Some(c) = collected.get_mut(slot) {
                        *c = Some(v);
                    }
                }
                Err(p) => panic_payload = Some(p),
            }
        }
        if let Some(p) = panic_payload {
            resume_unwind(p);
        }
        let mut out = first;
        for shard in collected {
            let Some(v) = shard else {
                // Unreachable (see above): surface in debug, stay total
                // in release rather than panic the serving path.
                debug_assert!(false, "pool worker vanished mid-batch");
                continue;
            };
            out.extend(v);
        }
        out
    }

    /// Joins every worker after draining queued jobs (dropping the pool
    /// does the same; this form surfaces the join explicitly).
    pub fn shutdown(mut self) {
        self.join_workers();
    }

    fn join_workers(&mut self) {
        self.injector = None; // release recv() in every worker
        for h in self.handles.drain(..) {
            // A worker that somehow died still lets the rest join.
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// Maps `f` over `items` on the shared [`WorkerPool::global`] pool with at
/// most `workers` jobs in flight (`0` asks the OS), preserving order.
///
/// `f` receives `(index, item)`. Order is preserved: output index matches
/// input index. Both closures and items must be `'static` — the pool's
/// workers outlive any one call, so jobs own their data (clone or `Arc`
/// what you need inside).
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread.
pub fn parallel_map<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send + 'static,
    U: Send + 'static,
    F: Fn(usize, T) -> U + Send + Sync + 'static,
{
    WorkerPool::global().map(items, workers, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_seeds_are_nonzero_and_spread() {
        let mut seen = std::collections::HashSet::new();
        for master in [1u16, 0xACE1, 0xFFFF] {
            for i in 0..64u32 {
                let s = chunk_seed(master, i);
                assert_ne!(s, 0);
                seen.insert((master, s));
            }
        }
        // The fold should not collapse many (master, index) pairs.
        assert!(seen.len() > 180, "only {} distinct seeds", seen.len());
    }

    #[test]
    fn chunk_seed_is_deterministic() {
        assert_eq!(chunk_seed(0x1234, 7), chunk_seed(0x1234, 7));
    }

    #[test]
    fn ranges_cover_exactly() {
        for (total, size) in [(0usize, 3usize), (1, 3), (3, 3), (10, 3), (12, 4)] {
            let ranges = chunk_ranges(total, size);
            let mut cursor = 0;
            for r in &ranges {
                assert_eq!(r.start, cursor);
                assert!(r.end - r.start <= size);
                cursor = r.end;
            }
            assert_eq!(cursor, total);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_chunk_size_panics() {
        chunk_ranges(8, 0);
    }

    #[test]
    fn workers_resolve_sanely() {
        // Explicit request, plenty of jobs: taken literally.
        assert_eq!(resolve_workers(4, 100), 4);
        // More workers than jobs: capped at the job count.
        assert_eq!(resolve_workers(8, 3), 3);
        assert_eq!(resolve_workers(2, 1), 1);
        // Zero jobs never yields zero workers.
        assert_eq!(resolve_workers(3, 0), 1);
        assert_eq!(resolve_workers(0, 0), 1);
        // "Ask the OS" is at least one and still job-capped.
        assert!(resolve_workers(0, 64) >= 1);
        assert_eq!(resolve_workers(0, 1), 1);
        // Pool sizing with unknown job count passes usize::MAX through.
        assert_eq!(resolve_workers(5, usize::MAX), 5);
        assert!(resolve_workers(0, usize::MAX) >= 1);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u32> = (0..97).collect();
        for workers in [1usize, 2, 4, 7] {
            let got = parallel_map(items.clone(), workers, |i, x| {
                assert_eq!(i as u32, x);
                x * 3
            });
            let want: Vec<u32> = items.iter().map(|x| x * 3).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        assert_eq!(
            parallel_map(Vec::<u8>::new(), 4, |_, x| x),
            Vec::<u8>::new()
        );
        assert_eq!(parallel_map(vec![9u8], 4, |_, x| x + 1), vec![10]);
    }

    #[test]
    fn pool_survives_many_batches() {
        // The point of the pool: repeated batches reuse the same threads.
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        for round in 0..50u64 {
            let got = pool.map((0..32u64).collect(), 3, move |_, x| x + round);
            assert_eq!(got, (0..32u64).map(|x| x + round).collect::<Vec<_>>());
        }
        pool.shutdown();
    }

    #[test]
    fn pool_map_panic_propagates_and_pool_stays_usable() {
        let pool = Arc::new(WorkerPool::new(2));
        let p2 = Arc::clone(&pool);
        let boom = std::thread::spawn(move || {
            p2.map((0..16u32).collect(), 2, |_, x| {
                assert!(x != 13, "unlucky");
                x
            })
        })
        .join();
        assert!(boom.is_err(), "panic must propagate to the submitter");
        // The worker that caught the panic is still alive and serving.
        let ok = pool.map((0..16u32).collect(), 2, |_, x| x * 2);
        assert_eq!(ok[13], 26);
    }

    #[test]
    fn nested_map_runs_inline_instead_of_deadlocking() {
        // A job that itself fans out must not block on its own pool.
        let pool = Arc::new(WorkerPool::new(2));
        let outer = pool.map((0..4u32).collect(), 2, |_, x| {
            let inner: Vec<u32> = parallel_map((0..8u32).collect(), 4, move |_, y| y + x);
            inner.iter().sum::<u32>()
        });
        assert_eq!(outer, vec![28, 36, 44, 52]);
    }

    #[test]
    fn execute_runs_detached_jobs() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = channel();
        for i in 0..8u32 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i * i).unwrap());
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel();
        for i in 0..16u32 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i).unwrap());
        }
        drop(tx);
        pool.shutdown(); // joins only after the queue is drained
        assert_eq!(rx.iter().count(), 16);
    }
}

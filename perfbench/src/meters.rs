//! Process meters: CPU time and peak resident memory from `/proc/self`,
//! and an allocation counter that is switched on for traced runs only.
//!
//! Client threads mark themselves as [`harness`] and their timed work as
//! [`window`]s, so the benchmark's own input generation and checks count
//! neither as allocations nor as serving CPU time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Linux reports `utime`/`stime` in USER_HZ ticks, fixed at 100 on every
/// architecture the kernel exposes to user space.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')', field 3 (state) is index 0, so utime (14) is index 11.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / TICKS_PER_SECOND
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the first
/// line of `/proc/stat`: steal is time the hypervisor ran something else
/// on this machine's virtual CPUs.
pub fn machine_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // Fields: user nice system idle iowait irq softirq steal guest ...;
    // guest time is already counted in user.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds (user + system) the calling thread has used.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of a
    // 64-bit Linux target, and the clock id is a constant the kernel
    // defines; the call writes `ts` and nothing else.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_seconds() -> f64 {
    0.0
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The thread runs harness code outside any timed window.
    static OUTSIDE: Cell<bool> = const { Cell::new(false) };
    /// CPU seconds the thread spent inside windows since [`harness`] began.
    static WINDOW_CPU: Cell<f64> = const { Cell::new(0.0) };
}

/// Runs `f` on the calling thread as benchmark harness: while counting
/// is on, the thread's allocations count only inside [`window`]s. Returns
/// `f`'s result and the thread's CPU seconds outside windows (0 while
/// counting is off).
pub fn harness<R>(f: impl FnOnce() -> R) -> (R, f64) {
    if !COUNTING.load(Ordering::Relaxed) {
        return (f(), 0.0);
    }
    let cpu0 = thread_cpu_seconds();
    WINDOW_CPU.set(0.0);
    OUTSIDE.set(true);
    let out = f();
    OUTSIDE.set(false);
    (out, thread_cpu_seconds() - cpu0 - WINDOW_CPU.take())
}

/// Runs `f` as a timed window of a [`harness`] thread: its allocations
/// and CPU time count. Elsewhere it just runs `f`.
pub fn window<R>(f: impl FnOnce() -> R) -> R {
    if !OUTSIDE.get() {
        return f();
    }
    OUTSIDE.set(false);
    let cpu0 = thread_cpu_seconds();
    let out = f();
    WINDOW_CPU.set(WINDOW_CPU.get() + thread_cpu_seconds() - cpu0);
    OUTSIDE.set(true);
    out
}

/// The system allocator, counting allocations while
/// [`set_counting`] has switched it on.
pub struct CountingAlloc;

fn count(size: usize) {
    // `try_with`: the allocator can run while a thread's locals are torn
    // down; such allocations count.
    if COUNTING.load(Ordering::Relaxed) && !OUTSIDE.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System`, and the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations and allocated bytes counted so far.
pub fn allocations() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_meters_read_something() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(spin.elapsed());
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.0);
        let (steal, total) = machine_ticks();
        assert!(total > 0 && steal <= total);
    }

    #[test]
    fn harness_counts_only_windows() {
        // The counters are process-wide and tests run in parallel, so
        // only this thread's own allocations are compared, by size.
        const ODD: usize = 777_777;
        let before = allocations();
        set_counting(true);
        let (_, outside_cpu) = harness(|| {
            std::hint::black_box(vec![0u8; ODD]);
            window(|| std::hint::black_box(vec![0u8; 2 * ODD]));
        });
        set_counting(false);
        let after = allocations();
        let bytes = after.1 - before.1;
        assert!(bytes >= 2 * ODD as u64, "the window's allocation counts");
        assert!(bytes < 3 * ODD as u64, "the harness allocation does not");
        assert!(outside_cpu >= 0.0);
        assert!(!OUTSIDE.get());
    }
}

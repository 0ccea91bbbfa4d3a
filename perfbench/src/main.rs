//! The MHNP server benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tcp_fanin_256B --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Serves one workload's generated traffic from an in-process
//! `NetServer` over loopback, checks every reply, and prints the
//! workload's metrics. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer ledger: the same traffic measured
//! untraced and traced, server counters, process meters, and the
//! workload's inputs replayed through each layer's public functions.
//! The last line of standard output is one JSON object.

mod gen;
mod ledger;
mod meters;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use mhhea_net::server::ServerStats;

use ledger::Plan;
use workloads::{Kind, Phase, Served, PROBE_CYCLES};

#[global_allocator]
static ALLOC: meters::CountingAlloc = meters::CountingAlloc;

/// Command-line arguments.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

/// What the last output line carries.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they only arise from an
            // empty phase, which the run refuses earlier.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# workload={:?} seed={} seconds={} trace={} nproc={cpus} arch={} os={}",
        args.kind,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::consts::ARCH,
        std::env::consts::OS
    );
    let (steal0, total0) = meters::machine_ticks();
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    // Time the host took from this machine's CPUs moves every figure of
    // the run; it is printed so that such runs can be told apart.
    let (steal1, total1) = meters::machine_ticks();
    println!(
        "# cpu time stolen by the host during the run: {:.1}%",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    );
    match result {
        Ok(report) => println!("{}", report.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Sets the workload up `times` times, each on a fresh server, and
/// keeps the last. Appends each set-up time to `secs`.
fn setup(kind: Kind, seed: u64, times: usize, secs: &mut Vec<f64>) -> Result<Served, String> {
    let mut kept = None;
    for _ in 0..times.max(1) {
        // Stop the previous server before timing the next one.
        drop(kept.take());
        let (served, s) = Served::setup(kind, seed)?;
        secs.push(s);
        kept = Some(served);
    }
    kept.ok_or_else(|| "no set-up ran".into())
}

fn check_phase(phase: &Phase) -> Result<(), String> {
    if phase.unit_us.len() < 20 || phase.ops == 0 {
        return Err(format!(
            "only {} units completed; raise --seconds",
            phase.unit_us.len()
        ));
    }
    Ok(())
}

/// Untraced runs serve their timed phase from this many fresh set-ups in
/// turn. A server's thread placement and memory layout last for its
/// life, and moved whole runs' throughput by up to 13% while one-second
/// slices within a run agreed; several instances per run average that.
/// The set-ups timed for `setup_s` are spread over the parts alike: a
/// churn set-up took 0.45 ms in some runs and 1.4 ms in others, while
/// the set-ups of one short stretch agreed.
const PARTS: usize = 4;

fn run_untraced(args: &Args) -> Result<Report, String> {
    let mut setup_secs = Vec::new();
    let mut phase = Phase::default();
    let mut probe = Phase::default();
    let mut checked = 0;
    for _ in 0..PARTS {
        let times = args.kind.setups() / PARTS;
        let mut served = setup(args.kind, args.seed, times, &mut setup_secs)?;
        served.share_budget(PARTS);
        served.warm_up()?;
        phase.merge(served.run(args.seconds / PARTS as f64, false)?);
        checked += served.verify()?;
        // The churn phase runs handshakes and resumes itself; the others
        // probe them after their timed phase, because every run reports
        // every end-to-end metric.
        if args.kind != Kind::Churn {
            probe.merge(served.probe_control(PROBE_CYCLES / PARTS)?);
        }
    }
    check_phase(&phase)?;
    let setup_s = stats::median(&setup_secs);
    let per_part = args.kind.setups() / PARTS;
    let part_ms: Vec<String> = setup_secs
        .chunks(per_part.max(1))
        .map(|c| format!("{:.3}", stats::median(c) * 1e3))
        .collect();
    println!(
        "# set-ups: {} in {PARTS} parts, median of each part {} ms",
        setup_secs.len(),
        part_ms.join(" ")
    );
    let control = if args.kind == Kind::Churn {
        &phase
    } else {
        &probe
    };

    if !control.park_us.is_empty() {
        println!(
            "# park (drop until the server parked the stream) p50={:.1}us",
            stats::median(&control.park_us)
        );
    }
    let lat = stats::sorted(phase.unit_us.clone());
    let p50 = stats::percentile(&lat, 50);
    let tail =
        stats::block_tail(&phase.unit_us).ok_or("too few units for a tail; raise --seconds")?;
    let mib_s = phase
        .median_mib_per_s()
        .ok_or("no full throughput slice; raise --seconds")?;
    println!(
        "# units={} ops={} seals_checked={checked} attempted={} failed={}",
        lat.len(),
        phase.ops,
        phase.attempted,
        phase.failed
    );
    println!(
        "# latency p50={p50:.1}us ({} samples); tail: p90 of each block of {} \
         consecutive units ({} beyond it), median over {} blocks = {:.1}us \
         (whole-run p90={:.1}us)",
        lat.len(),
        stats::BLOCK,
        stats::BLOCK / 10,
        tail.blocks,
        tail.value,
        stats::percentile(&lat, 90)
    );

    let mut r = Report {
        attempted: phase.attempted + probe.attempted,
        failed: phase.failed + probe.failed,
        metrics: Vec::new(),
    };
    r.push("setup_s", "s", setup_s);
    r.push("payload_mib_per_s", "MiB/s", mib_s);
    r.push("latency_p50_us", "us", p50);
    r.push("latency_tail_us", "us", tail.value);
    r.push(
        "handshake_p50_us",
        "us",
        stats::median(&control.handshake_us),
    );
    r.push("resume_p50_us", "us", stats::median(&control.resume_us));
    r.push("rss_peak_mib", "MiB", meters::peak_rss_mib());
    for m in &r.metrics {
        println!("{:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(r)
}

/// The server counters the ledger reads, as plain numbers.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    frames: u64,
    protocol_errors: u64,
    dgram_packets: u64,
    dgram_chunks: u64,
    dgram_rejected: u64,
    kex_completed: u64,
    kex_rejected: u64,
}

impl Counters {
    fn read(s: &ServerStats) -> Counters {
        let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        Counters {
            frames: get(&s.frames_received) + get(&s.frames_sent),
            protocol_errors: get(&s.protocol_errors),
            dgram_packets: get(&s.dgram_packets_received) + get(&s.dgram_packets_sent),
            dgram_chunks: get(&s.dgram_chunks),
            dgram_rejected: get(&s.dgram_rejected),
            kex_completed: get(&s.kex_completed),
            kex_rejected: get(&s.kex_rejected),
        }
    }

    /// Adds `after - before` to `self`, field by field.
    fn add_delta(&mut self, before: Counters, after: Counters) {
        self.frames += after.frames - before.frames;
        self.protocol_errors += after.protocol_errors - before.protocol_errors;
        self.dgram_packets += after.dgram_packets - before.dgram_packets;
        self.dgram_chunks += after.dgram_chunks - before.dgram_chunks;
        self.dgram_rejected += after.dgram_rejected - before.dgram_rejected;
        self.kex_completed += after.kex_completed - before.kex_completed;
        self.kex_rejected += after.kex_rejected - before.kex_rejected;
    }
}

fn per_op_us(phase: &Phase) -> f64 {
    phase.busy_s * 1e6 / phase.ops as f64
}

/// Untraced and traced slices alternate, so drift over the run falls on
/// both sides of the tracing-overhead difference alike.
const TRACE_SLICES: usize = 4;

fn run_traced(args: &Args) -> Result<Report, String> {
    let mut served = setup(args.kind, args.seed, 1, &mut Vec::new())?;
    served.warm_up()?;
    let slice = args.seconds / (2 * TRACE_SLICES) as f64;
    let mut untraced = Phase::default();
    let mut traced = Phase::default();
    let mut delta = Counters::default();
    let (mut allocs, mut bytes, mut cpu) = (0, 0, 0.0);
    for _ in 0..TRACE_SLICES {
        untraced.merge(served.run(slice, false)?);

        let before = Counters::read(served.stats());
        let (allocs0, bytes0) = meters::allocations();
        let cpu0 = meters::cpu_seconds();
        meters::set_counting(true);
        let (phase, outside_cpu) = meters::harness(|| served.run(slice, true));
        meters::set_counting(false);
        let phase = phase?;
        // Serving CPU: the process's, less what client threads spent on
        // the benchmark's own work between their timed windows.
        cpu += meters::cpu_seconds() - cpu0 - phase.harness_cpu_s - outside_cpu;
        let (allocs1, bytes1) = meters::allocations();
        allocs += allocs1 - allocs0;
        bytes += bytes1 - bytes0;
        delta.add_delta(before, Counters::read(served.stats()));
        traced.merge(phase);
    }
    check_phase(&untraced)?;
    check_phase(&traced)?;
    served.verify()?;
    let kind = args.kind;
    drop(served);

    let figures = ledger::replay(kind, args.seed);
    let f: BTreeMap<&str, f64> = figures.iter().map(|x| (x.name, x.value)).collect();
    let ops = traced.ops as f64;
    let frames_per_op = delta.frames as f64 / ops;
    let e2e = per_op_us(&traced);
    let e2e_untraced = per_op_us(&untraced);

    // Where one op's time goes: each layer's self time per op, from the
    // replayed figures scaled by how often the op calls the layer.
    let plan = Plan::of(kind);
    let msg = plan.msg as f64;
    let seal = plan.seal_share();
    let kernel_bytes_ns = msg
        * (seal * f["session.encrypt_ns_per_byte"]
            + (1.0 - seal) * f["session.decrypt_ns_per_byte"]);
    let crc_per_op = 2.0 * f["frame.wire_bytes_per_op"] / 1024.0 * f["crc.ns_per_kib"] / 1e3;
    let mut rows: Vec<(&str, f64)> = Vec::new();
    match kind {
        Kind::FanIn | Kind::Bulk => {
            let codec = frames_per_op * (f["frame.encode_ns"] + f["frame.decode_ns"]) / 1e3;
            let kernel = kernel_bytes_ns / 1e3;
            rows.push(("codec", codec - crc_per_op));
            rows.push(("crc", crc_per_op));
            rows.push(("gateway", f["gateway.submit_us_per_op"] - kernel));
            rows.push(("kernel", kernel));
        }
        Kind::Dgram => {
            let codec = 2.0 * (f["frame.encode_ns"] + f["dgram.decode_ns"]) / 1e3
                + f["dgram.window_insert_ns"] / 1e3;
            let chunk =
                seal * f["gateway.seal_chunk_us"] + (1.0 - seal) * f["gateway.open_chunk_us"];
            let kernel = f["block.span_table_new_us"] + kernel_bytes_ns / 1e3;
            rows.push(("codec", codec - crc_per_op));
            rows.push(("crc", crc_per_op));
            rows.push(("gateway", chunk - kernel));
            rows.push(("kernel", kernel));
        }
        Kind::Churn => {
            let seals = plan.ops() as f64;
            let codec = frames_per_op * (f["frame.encode_ns"] + f["frame.decode_ns"]) / 1e3;
            let crc = seals * crc_per_op;
            let kernel = seals * kernel_bytes_ns / 1e3;
            let gateway = seals * f["gateway.submit_us_per_op"] - kernel
                + f["gateway.open_stream_us"]
                + f["gateway.evict_us"]
                + f["gateway.restore_us"];
            rows.push(("codec", codec - crc));
            rows.push(("crc", crc));
            rows.push(("gateway", gateway));
            rows.push(("kernel", kernel));
            // Both ends generate a key, run the DH step and derive.
            rows.push((
                "kex",
                2.0 * (f["kex.keygen_us"] + f["kex.dh_us"] + f["kex.derive_us"]),
            ));
        }
    }
    let park_us = if traced.park_us.is_empty() {
        0.0
    } else {
        stats::median(&traced.park_us)
    };
    let layers: f64 = rows.iter().map(|r| r.1).sum();
    rows.push(("transport (residual)", e2e - layers));

    println!(
        "# where one op's time goes ({kind:?}; op = {})",
        op_name(kind)
    );
    println!(
        "#   (layers: single-thread self times from the replays; the residual \
         is what end to end leaves over, below zero when layers overlapped on \
         several CPUs)"
    );
    println!("#   {:<22} {:>10} {:>7}", "layer", "us/op", "share");
    for (name, us) in &rows {
        println!("#   {name:<22} {us:>10.3} {:>6.1}%", 100.0 * us / e2e);
    }
    println!(
        "#   {:<22} {e2e:>10.3} {:>6.1}%",
        "end to end (traced)", 100.0
    );
    println!("#   {:<22} {e2e_untraced:>10.3}", "end to end (untraced)");
    println!("# client spans in the traced phase (self time per unit of work)");
    let mut merged: BTreeMap<&str, trace::Total> = BTreeMap::new();
    for s in &traced.spans {
        for (name, t) in s.summary() {
            let m = merged.entry(name).or_default();
            m.count += t.count;
            m.total_ns += t.total_ns;
            m.self_ns += t.self_ns;
        }
    }
    let units = traced.unit_us.len() as f64;
    for (name, t) in &merged {
        println!(
            "#   {name:<22} {:>10.3} us/unit over {} spans",
            t.self_ns as f64 / 1e3 / units,
            t.count
        );
    }

    let row = |name: &str| rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
    let mut r = Report {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: Vec::new(),
    };
    for x in &figures {
        r.push(x.name, x.unit, x.value);
    }
    r.push("reactor.frames_per_op", "frames/op", frames_per_op);
    r.push(
        "reactor.protocol_errors",
        "count",
        delta.protocol_errors as f64,
    );
    r.push(
        "dgram.packets_per_chunk",
        "packets/chunk",
        if delta.dgram_chunks == 0 {
            0.0
        } else {
            delta.dgram_packets as f64 / delta.dgram_chunks as f64
        },
    );
    r.push("dgram.rejected", "count", delta.dgram_rejected as f64);
    r.push("dgram.missing", "count", traced.dgram_missing as f64);
    r.push("kex.completed", "count", delta.kex_completed as f64);
    r.push("kex.rejected", "count", delta.kex_rejected as f64);
    r.push("process.cpu_util", "cpu/wall", cpu / traced.busy_s);
    r.push("alloc.per_op", "allocs/op", allocs as f64 / ops);
    r.push("alloc.bytes_per_op", "B/op", bytes as f64 / ops);
    r.push(
        "ops_failed_ratio",
        "ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
    );
    r.push("self.codec_us_per_op", "us", row("codec"));
    r.push("self.crc_us_per_op", "us", row("crc"));
    r.push("self.gateway_us_per_op", "us", row("gateway"));
    r.push("self.kernel_us_per_op", "us", row("kernel"));
    r.push(
        "transport.residual_us_per_op",
        "us",
        row("transport (residual)"),
    );
    r.push("transport.park_us", "us", park_us);
    r.push("e2e.traced_us_per_op", "us", e2e);
    r.push("e2e.untraced_us_per_op", "us", e2e_untraced);
    r.push("trace.overhead_us_per_op", "us", e2e - e2e_untraced);
    for m in &r.metrics {
        println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(r)
}

fn op_name(kind: Kind) -> &'static str {
    match kind {
        Kind::FanIn | Kind::Bulk => "one seal or open request",
        Kind::Dgram => "one datagram chunk sealed or opened",
        Kind::Churn => "one connect/seal, resume/seal/bye cycle, without the park wait",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload tcp_bulk_16KiB --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.kind, Kind::Bulk);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 3.0);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload tcp_churn_mhkx")).is_err());
        assert!(parse_args(&argv("--workload tcp_churn_mhkx --seed 1 --trace 2")).is_err());
    }

    #[test]
    fn report_is_one_json_line_with_all_digits() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("latency_p50_us", "us", 12.345_678_9);
        let j = r.json();
        assert!(!j.contains('\n'));
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 12.3456789, \"unit\": \"us\"}}}"
        );
    }
}

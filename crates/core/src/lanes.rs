//! The bitsliced lockstep engine: up to 64 streams per machine word.
//!
//! The paper's FPGA datapath earns its throughput by marching many key
//! pairs through one pipeline per clock. The software analogue is
//! *bitslicing*: bit `j` of every working word belongs to lane `j`, so
//! one `u64` instruction advances 64 independent streams at once. This
//! module packs W ≤ [`MAX_LANES`] independent streams into `u64` lanes
//! and runs the LFSR leap and the hiding-vector substitution across all
//! lanes per instruction.
//!
//! No serving path calls this module: the gateway and the v2 container
//! run the scalar word-level path ([`crate::block::SpanTable`]) through
//! the sessions, which measured as fast or faster on a CPU (see
//! `docs/ARCHITECTURE.md`, "Engine backends"). The kernel stays as a
//! measured alternative, timed by the benchmark's per-layer ledger.
//!
//! Lanes run in lockstep: at step `t` every active lane produces exactly
//! one cipher block at schedule position `block_index + t`. A lane
//! *retires* when fewer than 8 message bits remain (a span can be up to
//! 8 bits wide, and the kernel always embeds full spans); retired lanes
//! finish on the scalar `SpanTable` path inside this module. The engine
//! is [`crate::Profile::Streaming`]-only — the hardware-faithful
//! profile's 16-bit alignment buffer is inherently serial.
//!
//! Bit-exactness against the scalar sessions is proven by in-module
//! differential tests plus the `lanes` differential proptest in
//! `crates/core/tests`.

use crate::block::SpanTable;
use crate::{Algorithm, Key, MhheaError};

/// Maximum number of lanes one kernel invocation carries (`u64` width).
pub const MAX_LANES: usize = 64;

/// One stream's seal work order for [`seal_lanes`].
#[derive(Debug, Clone, Copy)]
pub struct LaneSealJob<'a> {
    /// Plaintext for this lane, consumed whole.
    pub message: &'a [u8],
    /// LFSR register to resume from (nonzero; the seed for a fresh
    /// stream, or [`crate::LfsrSource::state`] mid-stream).
    pub state: u16,
    /// Schedule position of the first block this lane produces.
    pub block_index: u64,
}

/// Per-lane outcome of [`seal_lanes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSealOut {
    /// Cipher blocks, in order.
    pub blocks: Vec<u16>,
    /// LFSR register after the last block (the resume state).
    pub state: u16,
    /// Schedule position after the last block.
    pub block_index: u64,
}

/// One stream's open work order for [`open_lanes`].
#[derive(Debug, Clone, Copy)]
pub struct LaneOpenJob<'a> {
    /// Cipher blocks for this lane.
    pub blocks: &'a [u16],
    /// Message bits to recover.
    pub bit_len: usize,
    /// Schedule position of the first block.
    pub block_index: u64,
}

/// Seals W independent streams in bitsliced lockstep.
///
/// `table` must be `SpanTable::new(key, algorithm)` — the scalar tables
/// the streaming sessions already hold — so callers share one table
/// across all lanes. Jobs beyond [`MAX_LANES`] are processed in
/// successive kernel invocations; results keep job order.
///
/// # Errors
///
/// Returns [`MhheaError::InvalidSeed`] if any lane's `state` is zero
/// (the all-zero LFSR state never produces a vector).
pub fn seal_lanes(
    key: &Key,
    algorithm: Algorithm,
    table: &SpanTable,
    jobs: &[LaneSealJob<'_>],
) -> Result<Vec<LaneSealOut>, MhheaError> {
    if jobs.iter().any(|j| j.state == 0) {
        return Err(MhheaError::InvalidSeed);
    }
    let mut out = Vec::with_capacity(jobs.len());
    for group in jobs.chunks(MAX_LANES) {
        out.extend(seal_group(key, algorithm, table, group));
    }
    Ok(out)
}

/// Opens W independent streams in bitsliced lockstep.
///
/// The decrypt direction needs no LFSR at all: the hiding vector *is*
/// the cipher block, and its untouched high byte drives the span
/// recomputation exactly as on the scalar path.
///
/// # Errors
///
/// Returns [`MhheaError::CiphertextTruncated`] if any lane's blocks run
/// out before its promised `bit_len` is recovered.
pub fn open_lanes(
    key: &Key,
    algorithm: Algorithm,
    table: &SpanTable,
    jobs: &[LaneOpenJob<'_>],
) -> Result<Vec<Vec<u8>>, MhheaError> {
    let mut out = Vec::with_capacity(jobs.len());
    for group in jobs.chunks(MAX_LANES) {
        out.append(&mut open_group(key, algorithm, table, group)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Bitsliced LFSR: 16 state words, bit j of word i = bit i of lane j.
// ---------------------------------------------------------------------

struct LaneLfsr {
    /// Leap-matrix rows: next bit `i` is the XOR of current bits in
    /// `rows[i]` (identical for every lane — the matrix depends only on
    /// the tap polynomial, not the seed).
    rows: [u16; 16],
    /// Bitsliced state columns.
    s: [u64; 16],
}

impl LaneLfsr {
    fn new(states: impl Iterator<Item = u16>) -> Self {
        let reference =
            lfsr::Fibonacci::from_table(16, 1).expect("width 16 is tabulated and seed 1 nonzero");
        let leap = reference.leap_matrix(16);
        let mut rows = [0u16; 16];
        for (i, row) in rows.iter_mut().enumerate() {
            *row = leap.row(i) as u16;
        }
        let mut s = [0u64; 16];
        for (j, st) in states.enumerate() {
            for (i, word) in s.iter_mut().enumerate() {
                *word |= (((st >> i) & 1) as u64) << j;
            }
        }
        LaneLfsr { rows, s }
    }

    /// One 16-step leap for every lane: the hardware's one-clock leap
    /// network, amortised across all lanes per XOR.
    fn step(&mut self) {
        let mut next = [0u64; 16];
        for (i, slot) in next.iter_mut().enumerate() {
            let mut row = self.rows[i];
            let mut acc = 0u64;
            while row != 0 {
                acc ^= self.s[row.trailing_zeros() as usize];
                row &= row - 1;
            }
            *slot = acc;
        }
        self.s = next;
    }

    fn state_of(&self, lane: usize) -> u16 {
        let mut st = 0u16;
        for (i, word) in self.s.iter().enumerate() {
            st |= (((word >> lane) & 1) as u16) << i;
        }
        st
    }
}

// ---------------------------------------------------------------------
// Per-phase constants: one set per schedule position, lane residues
// folded in at build time.
// ---------------------------------------------------------------------

struct Consts {
    /// Bit `b` of each lane's `k1` (the smaller key half).
    k1: [u64; 3],
    /// Data-scrambling pattern for span offset `q`: `pat[q % 3]`
    /// (equals `k1` for MHHEA, zero for HHEA).
    pat: [u64; 3],
    /// Bit `b` of each lane's `d = k2 − k1`.
    d: [u64; 3],
    /// Bit `b` of each lane's `(8 − d) & 7` (the wrapped span width − 1).
    d8: [u64; 3],
    /// Lanes whose `d ≥ b` (gates high-byte slice bit `b`).
    dge: [u64; 3],
    /// Lanes whose `k1 == c` (one-hot selector for the slice read); all
    /// zero for HHEA, which ignores the vector entirely.
    one: [u64; 8],
}

fn build_consts(
    key: &Key,
    algorithm: Algorithm,
    schedule_len: usize,
    residues: &[usize],
) -> Vec<Consts> {
    (0..schedule_len)
        .map(|phase| {
            let mut c = Consts {
                k1: [0; 3],
                pat: [0; 3],
                d: [0; 3],
                d8: [0; 3],
                dge: [0; 3],
                one: [0; 8],
            };
            for (j, &r) in residues.iter().enumerate() {
                let (k1, k2) = key.pair((r + phase) % schedule_len).sorted();
                let d = k2 - k1;
                let d8 = (8 - d) & 7;
                let bit = 1u64 << j;
                for b in 0..3 {
                    if (k1 >> b) & 1 == 1 {
                        c.k1[b] |= bit;
                    }
                    if (d >> b) & 1 == 1 {
                        c.d[b] |= bit;
                    }
                    if (d8 >> b) & 1 == 1 {
                        c.d8[b] |= bit;
                    }
                    if d >= b as u8 {
                        c.dge[b] |= bit;
                    }
                }
                if algorithm == Algorithm::Mhhea {
                    c.one[k1 as usize] |= bit;
                }
            }
            if algorithm == Algorithm::Mhhea {
                c.pat = c.k1;
            }
            c
        })
        .collect()
}

// ---------------------------------------------------------------------
// The location scramble, bitsliced: §II's pseudocode across all lanes.
// ---------------------------------------------------------------------

/// Computes each lane's span `(lo, hi)` as three bitsliced bit-planes
/// apiece, from the vector high-byte planes (`hi_bits[c]` = bit `8+c`).
fn locate(c: &Consts, hi_bits: &[u64]) -> ([u64; 3], [u64; 3], [u64; 3]) {
    // slice3[b] = vector bit (k1 + 8 + b), gated to b ≤ d; zero for
    // HHEA (one-hot selectors empty), collapsing kn1 to k1 itself.
    let mut kn1 = [0u64; 3];
    for b in 0..3 {
        let mut sel = 0u64;
        for cc in 0..8 - b {
            sel |= c.one[cc] & hi_bits[cc + b];
        }
        kn1[b] = (sel & c.dge[b]) ^ c.k1[b];
    }
    // kn2 = (kn1 + d) mod 8: a 3-bit ripple adder; the carry-out is the
    // wrap flag (kn2 < kn1 ⇒ the sorted span inverts and widens).
    let s0 = kn1[0] ^ c.d[0];
    let c0 = kn1[0] & c.d[0];
    let t1 = kn1[1] ^ c.d[1];
    let s1 = t1 ^ c0;
    let c1 = (kn1[1] & c.d[1]) | (t1 & c0);
    let t2 = kn1[2] ^ c.d[2];
    let s2 = t2 ^ c1;
    let wrap = (kn1[2] & c.d[2]) | (t2 & c1);
    let sum = [s0, s1, s2];
    let mut lo = [0u64; 3];
    let mut hi = [0u64; 3];
    let mut wm1 = [0u64; 3];
    for b in 0..3 {
        lo[b] = (wrap & sum[b]) | (!wrap & kn1[b]);
        hi[b] = (wrap & kn1[b]) | (!wrap & sum[b]);
        wm1[b] = (wrap & c.d8[b]) | (!wrap & c.d[b]);
    }
    (lo, hi, wm1)
}

/// Per-bit span masks: `msk[b]` holds the lanes whose span covers low
/// bit `b` (`lo ≤ b ≤ hi`).
fn span_masks(lo: &[u64; 3], hi: &[u64; 3]) -> [u64; 8] {
    let (l0, l1, l2) = (lo[0], lo[1], lo[2]);
    let (n0, n1, n2) = (!l0, !l1, !l2);
    let ge = [
        n2 & n1 & n0,
        n2 & n1,
        n2 & (n1 | n0),
        n2,
        n2 | (n1 & n0),
        n2 | n1,
        n2 | n1 | n0,
        !0u64,
    ];
    let (h0, h1, h2) = (hi[0], hi[1], hi[2]);
    let le = [
        !0u64,
        h2 | h1 | h0,
        h2 | h1,
        h2 | (h1 & h0),
        h2,
        h2 & (h1 | h0),
        h2 & h1,
        h2 & h1 & h0,
    ];
    core::array::from_fn(|b| ge[b] & le[b])
}

/// Barrel-shifts the eight span-offset planes left by each lane's `lo`
/// (three mux stages over the shift-amount bit-planes).
fn align_left(raw: &mut [u64; 8], lo: &[u64; 3]) {
    for (k, &p) in lo.iter().enumerate() {
        let sh = 1usize << k;
        let np = !p;
        for b in (0..8).rev() {
            let shifted = if b >= sh { raw[b - sh] } else { 0 };
            raw[b] = (p & shifted) | (np & raw[b]);
        }
    }
}

/// Barrel-shifts the eight low-byte planes right by each lane's `lo`.
fn align_right(raw: &mut [u64; 8], lo: &[u64; 3]) {
    for (k, &p) in lo.iter().enumerate() {
        let sh = 1usize << k;
        let np = !p;
        for b in 0..8 {
            let shifted = if b + sh < 8 { raw[b + sh] } else { 0 };
            raw[b] = (p & shifted) | (np & raw[b]);
        }
    }
}

/// Transposes an 8×8 bit matrix held row-major in a `u64` (three
/// block-swap stages; bit `8r + c` moves to `8c + r`).
#[inline]
fn transpose8(mut x: u64) -> u64 {
    x = (x & 0xF0F0_F0F0_0F0F_0F0F)
        | ((x & 0x0000_0000_F0F0_F0F0) << 28)
        | ((x >> 28) & 0x0000_0000_F0F0_F0F0);
    x = (x & 0xCCCC_3333_CCCC_3333)
        | ((x & 0x0000_CCCC_0000_CCCC) << 14)
        | ((x >> 14) & 0x0000_CCCC_0000_CCCC);
    x = (x & 0xAA55_AA55_AA55_AA55)
        | ((x & 0x00AA_00AA_00AA_00AA) << 7)
        | ((x >> 7) & 0x00AA_00AA_00AA_00AA);
    x
}

/// Reads 8 speculative bits at bit position `pos` (LSB-first); callers
/// guarantee `pos < msg.len() * 8`, and bits past the end read as zero.
#[inline]
fn read8(msg: &[u8], pos: usize) -> u8 {
    let byte = pos >> 3;
    debug_assert!(byte < msg.len());
    let lo = msg[byte] as u16;
    let hi = *msg.get(byte + 1).unwrap_or(&0) as u16;
    ((lo | (hi << 8)) >> (pos & 7)) as u8
}

/// Reads `take ≤ 8` bits at `pos`, LSB-aligned.
#[inline]
fn read_bits_at(msg: &[u8], pos: usize, take: usize) -> u16 {
    (read8(msg, pos) as u16) & ((1u16 << take) - 1)
}

// ---------------------------------------------------------------------
// Seal kernel.
// ---------------------------------------------------------------------

fn seal_group(
    key: &Key,
    algorithm: Algorithm,
    table: &SpanTable,
    jobs: &[LaneSealJob<'_>],
) -> Vec<LaneSealOut> {
    let w = jobs.len();
    debug_assert!(w <= MAX_LANES);
    let schedule_len = table.schedule_len();
    let residues: Vec<usize> = jobs
        .iter()
        .map(|j| (j.block_index % schedule_len as u64) as usize)
        .collect();
    let consts = build_consts(key, algorithm, schedule_len, &residues);
    let mut lfsr = LaneLfsr::new(jobs.iter().map(|j| j.state));

    let bit_lens: Vec<usize> = jobs.iter().map(|j| j.message.len() * 8).collect();
    let mut pos = vec![0usize; w];
    let mut blocks: Vec<Vec<u16>> = bit_lens
        .iter()
        .map(|&b| Vec::with_capacity(b / 4 + 8))
        .collect();
    let mut ret_state = vec![0u16; w];
    let mut active: u64 = if w == 64 { !0 } else { (1u64 << w) - 1 };
    let groups = w.div_ceil(8);

    let mut t: u64 = 0;
    loop {
        // Retire lanes that can no longer fill a full span (< 8 bits
        // left); record the LFSR register they resume the tail from.
        let mut still = active;
        while still != 0 {
            let j = still.trailing_zeros() as usize;
            still &= still - 1;
            if bit_lens[j] - pos[j] < 8 {
                active &= !(1u64 << j);
                ret_state[j] = lfsr.state_of(j);
            }
        }
        if active == 0 {
            break;
        }
        lfsr.step();
        let c = &consts[(t % schedule_len as u64) as usize];
        let (lo, hi, _) = locate(c, &lfsr.s[8..16]);
        let msk = span_masks(&lo, &hi);

        // Feed: 8 speculative message bits per active lane, transposed
        // into span-offset planes m[0..8].
        let mut m = [0u64; 8];
        for g in 0..groups {
            let mut x = 0u64;
            for k in 0..8 {
                let j = g * 8 + k;
                if j < w && (active >> j) & 1 == 1 {
                    x |= (read8(jobs[j].message, pos[j]) as u64) << (8 * k);
                }
            }
            if x != 0 {
                let y = transpose8(x);
                for (q, slot) in m.iter_mut().enumerate() {
                    *slot |= ((y >> (8 * q)) & 0xFF) << (8 * g);
                }
            }
        }
        // Data scramble (offset-indexed pattern) then shift to lo.
        for (q, slot) in m.iter_mut().enumerate() {
            *slot ^= c.pat[q % 3];
        }
        align_left(&mut m, &lo);

        // Substitute the span into the hiding vector's low byte; the
        // high byte travels clear (that is what lets the receiver
        // recompute the scramble).
        let mut clow = [0u64; 8];
        for b in 0..8 {
            let sel = msk[b] & active;
            clow[b] = (lfsr.s[b] & !sel) | (m[b] & sel);
        }

        // Emit: transpose back to per-lane u16 blocks, advance each
        // lane's cursor by its span width (re-read from the scalar
        // table off the block's clear high byte — cheaper than
        // extracting the bitsliced width planes per lane).
        for g in 0..groups {
            let mut xl = 0u64;
            let mut xh = 0u64;
            for (b, cl) in clow.iter().enumerate() {
                xl |= ((cl >> (8 * g)) & 0xFF) << (8 * b);
                xh |= ((lfsr.s[8 + b] >> (8 * g)) & 0xFF) << (8 * b);
            }
            let yl = transpose8(xl);
            let yh = transpose8(xh);
            for k in 0..8 {
                let j = g * 8 + k;
                if j < w && (active >> j) & 1 == 1 {
                    let block = (((yl >> (8 * k)) & 0xFF) as u16)
                        | ((((yh >> (8 * k)) & 0xFF) as u16) << 8);
                    let e = table.entry((jobs[j].block_index + t) as usize, (block >> 8) as u8);
                    blocks[j].push(block);
                    pos[j] += e.width as usize;
                }
            }
        }
        t += 1;
    }

    // Scalar tails: fewer than 8 bits left per lane, at most 7 more
    // blocks each. The leap is applied per block via the matrix (the
    // same linear map the kernel and LfsrSource fold into tables).
    let leap = lfsr::Fibonacci::from_table(16, 1)
        .expect("width 16 is tabulated and seed 1 nonzero")
        .leap_matrix(16);
    jobs.iter()
        .enumerate()
        .map(|(j, job)| {
            let mut st = ret_state[j];
            let mut lane_blocks = core::mem::take(&mut blocks[j]);
            let mut p = pos[j];
            while p < bit_lens[j] {
                st = leap.apply(st as u64) as u16;
                let e = table.entry(
                    (job.block_index + lane_blocks.len() as u64) as usize,
                    (st >> 8) as u8,
                );
                let take = (e.width as usize).min(bit_lens[j] - p);
                lane_blocks.push(e.embed(st, read_bits_at(job.message, p, take), take));
                p += take;
            }
            let produced = lane_blocks.len() as u64;
            LaneSealOut {
                blocks: lane_blocks,
                state: st,
                block_index: job.block_index + produced,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Open kernel.
// ---------------------------------------------------------------------

fn open_group(
    key: &Key,
    algorithm: Algorithm,
    table: &SpanTable,
    jobs: &[LaneOpenJob<'_>],
) -> Result<Vec<Vec<u8>>, MhheaError> {
    let w = jobs.len();
    debug_assert!(w <= MAX_LANES);
    let schedule_len = table.schedule_len();

    // The open direction recomputes spans from the cipher blocks'
    // untouched high bytes, so the per-phase constants are built the
    // same way as on the seal side — but there is no LFSR to run.
    let residues: Vec<usize> = jobs
        .iter()
        .map(|j| (j.block_index % schedule_len as u64) as usize)
        .collect();
    let consts = build_consts(key, algorithm, schedule_len, &residues);

    let mut writers: Vec<bitkit::BitWriter> = (0..w).map(|_| bitkit::BitWriter::new()).collect();
    let mut recovered = vec![0usize; w];
    let mut consumed = vec![0usize; w];
    let mut active: u64 = if w == 64 { !0 } else { (1u64 << w) - 1 };
    let groups = w.div_ceil(8);

    let mut t: usize = 0;
    loop {
        let mut still = active;
        while still != 0 {
            let j = still.trailing_zeros() as usize;
            still &= still - 1;
            if jobs[j].bit_len - recovered[j] < 8 || t >= jobs[j].blocks.len() {
                active &= !(1u64 << j);
            }
        }
        if active == 0 {
            break;
        }
        // Transpose this step's cipher block from every active lane
        // into 16 bit-planes.
        let mut cw = [0u64; 16];
        for g in 0..groups {
            let mut xl = 0u64;
            let mut xh = 0u64;
            for k in 0..8 {
                let j = g * 8 + k;
                if j < w && (active >> j) & 1 == 1 {
                    let block = jobs[j].blocks[t];
                    xl |= ((block & 0xFF) as u64) << (8 * k);
                    xh |= ((block >> 8) as u64) << (8 * k);
                }
            }
            let yl = transpose8(xl);
            let yh = transpose8(xh);
            for b in 0..8 {
                cw[b] |= ((yl >> (8 * b)) & 0xFF) << (8 * g);
                cw[8 + b] |= ((yh >> (8 * b)) & 0xFF) << (8 * g);
            }
        }
        let c = &consts[t % schedule_len];
        let (lo, _hi, _) = locate(c, &cw[8..16]);
        // Extract: shift the low byte down to the span origin and strip
        // the data scramble.
        let mut x: [u64; 8] = core::array::from_fn(|b| cw[b]);
        align_right(&mut x, &lo);
        for (q, slot) in x.iter_mut().enumerate() {
            *slot ^= c.pat[q % 3];
        }
        // Per-lane: transpose back, mask to the span width (read from
        // the scalar table off the clear high byte) and append.
        for g in 0..groups {
            let mut xb = 0u64;
            for (b, slot) in x.iter().enumerate() {
                xb |= ((slot >> (8 * g)) & 0xFF) << (8 * b);
            }
            let yb = transpose8(xb);
            for k in 0..8 {
                let j = g * 8 + k;
                if j < w && (active >> j) & 1 == 1 {
                    let e = table.entry(
                        (jobs[j].block_index + t as u64) as usize,
                        (jobs[j].blocks[t] >> 8) as u8,
                    );
                    let take = e.width as usize;
                    let bits = ((yb >> (8 * k)) & 0xFF) & ((1u64 << take) - 1);
                    writers[j].push_bits(bits, take);
                    recovered[j] += take;
                    consumed[j] = t + 1;
                }
            }
        }
        t += 1;
    }

    // Scalar tails (< 8 bits wanted, or truncated input to report).
    let mut out = Vec::with_capacity(w);
    for (j, job) in jobs.iter().enumerate() {
        let mut writer = core::mem::take(&mut writers[j]);
        let mut got = recovered[j];
        let mut n = consumed[j];
        while got < job.bit_len {
            let Some(&cb) = job.blocks.get(n) else {
                return Err(MhheaError::CiphertextTruncated {
                    got_bits: got,
                    want_bits: job.bit_len,
                });
            };
            let e = table.entry((job.block_index + n as u64) as usize, (cb >> 8) as u8);
            let take = (e.width as usize).min(job.bit_len - got);
            writer.push_bits(e.extract(cb, take) as u64, take);
            got += take;
            n += 1;
        }
        out.push(writer.into_bytes());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::EncryptSession;
    use crate::source::LfsrSource;
    use crate::{Profile, VectorSource};

    fn key(n: usize) -> Key {
        let pairs: Vec<(u8, u8)> = (0..n)
            .map(|i| (((i * 3 + 1) % 8) as u8, ((i * 5 + 2) % 8) as u8))
            .collect();
        Key::from_nibbles(&pairs).expect("in range")
    }

    fn message(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn transpose8_matches_naive() {
        for seed in [0x0123_4567_89AB_CDEFu64, !0, 1, 0xA5A5_5A5A_0FF0_F00F] {
            let mut naive = 0u64;
            for r in 0..8 {
                for c in 0..8 {
                    if (seed >> (8 * r + c)) & 1 == 1 {
                        naive |= 1u64 << (8 * c + r);
                    }
                }
            }
            assert_eq!(transpose8(seed), naive, "{seed:#018x}");
        }
    }

    #[test]
    fn lane_lfsr_tracks_scalar_source() {
        let seeds = [1u16, 0xACE1, 0xFFFF, 0x8000, 0x0042, 0xCA06];
        let mut lanes = LaneLfsr::new(seeds.iter().copied());
        let mut scalars: Vec<LfsrSource> = seeds
            .iter()
            .map(|&s| LfsrSource::new(s).expect("nonzero"))
            .collect();
        for (j, &s) in seeds.iter().enumerate() {
            assert_eq!(lanes.state_of(j), s, "initial state lane {j}");
        }
        for step in 0..200 {
            lanes.step();
            for (j, src) in scalars.iter_mut().enumerate() {
                let want = src.next_vector().expect("lfsr never exhausts");
                assert_eq!(lanes.state_of(j), want, "lane {j} step {step}");
            }
        }
    }

    fn scalar_seal(
        key: &Key,
        algorithm: Algorithm,
        seed: u16,
        messages: &[&[u8]],
    ) -> Vec<(Vec<u16>, u64)> {
        let mut session = EncryptSession::with_options(
            key.clone(),
            LfsrSource::new(seed).expect("nonzero"),
            algorithm,
            Profile::Streaming,
        );
        let mut out = Vec::new();
        let mut produced = 0u64;
        for msg in messages {
            let blocks = session.encrypt(msg).expect("lfsr never exhausts");
            produced += blocks.len() as u64;
            out.push((blocks, produced));
        }
        out
    }

    #[test]
    fn seal_lanes_matches_sessions_from_origin() {
        for algorithm in [Algorithm::Hhea, Algorithm::Mhhea] {
            for key_len in [1usize, 3, 8, 16] {
                let k = key(key_len);
                let table = SpanTable::new(&k, algorithm);
                // Mixed sizes, including empty, sub-span and tails that
                // are not a multiple of 8 bits' worth of blocks.
                let msgs: Vec<Vec<u8>> = (0..21)
                    .map(|i| message([0, 1, 2, 7, 8, 9, 63, 64, 65, 200][i % 10] + i, i as u8))
                    .collect();
                let jobs: Vec<LaneSealJob> = msgs
                    .iter()
                    .enumerate()
                    .map(|(i, m)| LaneSealJob {
                        message: m,
                        state: (0x1000 + i as u16) | 1,
                        block_index: 0,
                    })
                    .collect();
                let got = seal_lanes(&k, algorithm, &table, &jobs).expect("seeds nonzero");
                for (i, (job, out)) in jobs.iter().zip(&got).enumerate() {
                    let reference = scalar_seal(&k, algorithm, job.state, &[job.message]);
                    assert_eq!(out.blocks, reference[0].0, "{algorithm} lane {i}");
                    assert_eq!(out.block_index, reference[0].1, "{algorithm} lane {i}");
                }
            }
        }
    }

    #[test]
    fn seal_lanes_resumes_mid_stream_exactly() {
        // Scalar: one session seals msg_a then msg_b. Lanes: seal msg_a
        // from the origin, then msg_b from the returned resume state.
        let k = key(5);
        let algorithm = Algorithm::Mhhea;
        let table = SpanTable::new(&k, algorithm);
        let msg_a = message(37, 7);
        let msg_b = message(90, 11);
        let reference = scalar_seal(&k, algorithm, 0xBEEF, &[&msg_a, &msg_b]);
        let first = seal_lanes(
            &k,
            algorithm,
            &table,
            &[LaneSealJob {
                message: &msg_a,
                state: 0xBEEF,
                block_index: 0,
            }],
        )
        .expect("nonzero");
        assert_eq!(first[0].blocks, reference[0].0);
        let second = seal_lanes(
            &k,
            algorithm,
            &table,
            &[LaneSealJob {
                message: &msg_b,
                state: first[0].state,
                block_index: first[0].block_index,
            }],
        )
        .expect("nonzero");
        assert_eq!(second[0].blocks, reference[1].0);
        assert_eq!(second[0].block_index, reference[1].1);
    }

    #[test]
    fn open_lanes_inverts_seal_lanes() {
        for algorithm in [Algorithm::Hhea, Algorithm::Mhhea] {
            let k = key(7);
            let table = SpanTable::new(&k, algorithm);
            let msgs: Vec<Vec<u8>> = (0..70).map(|i| message(i * 3 % 101, i as u8)).collect();
            let jobs: Vec<LaneSealJob> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| LaneSealJob {
                    message: m,
                    state: (i as u16).wrapping_mul(2357) | 1,
                    block_index: (i as u64) % 13,
                })
                .collect();
            let sealed = seal_lanes(&k, algorithm, &table, &jobs).expect("nonzero");
            let open_jobs: Vec<LaneOpenJob> = sealed
                .iter()
                .zip(&jobs)
                .map(|(s, j)| LaneOpenJob {
                    blocks: &s.blocks,
                    bit_len: j.message.len() * 8,
                    block_index: j.block_index,
                })
                .collect();
            let opened = open_lanes(&k, algorithm, &table, &open_jobs).expect("complete");
            for (i, (bytes, msg)) in opened.iter().zip(&msgs).enumerate() {
                assert_eq!(bytes, msg, "{algorithm} lane {i}");
            }
        }
    }

    #[test]
    fn open_lanes_reports_truncation() {
        let k = key(4);
        let table = SpanTable::new(&k, Algorithm::Mhhea);
        let msg = message(50, 1);
        let sealed = seal_lanes(
            &k,
            Algorithm::Mhhea,
            &table,
            &[LaneSealJob {
                message: &msg,
                state: 0xACE1,
                block_index: 0,
            }],
        )
        .expect("nonzero");
        let short = &sealed[0].blocks[..sealed[0].blocks.len() / 2];
        let err = open_lanes(
            &k,
            Algorithm::Mhhea,
            &table,
            &[LaneOpenJob {
                blocks: short,
                bit_len: msg.len() * 8,
                block_index: 0,
            }],
        )
        .expect_err("half the blocks cannot carry all bits");
        assert!(matches!(err, MhheaError::CiphertextTruncated { .. }));
    }

    #[test]
    fn zero_state_rejected() {
        let k = key(2);
        let table = SpanTable::new(&k, Algorithm::Mhhea);
        let err = seal_lanes(
            &k,
            Algorithm::Mhhea,
            &table,
            &[LaneSealJob {
                message: b"x",
                state: 0,
                block_index: 0,
            }],
        )
        .expect_err("zero state is the LFSR fixed point");
        assert_eq!(err, MhheaError::InvalidSeed);
    }

    #[test]
    fn more_than_max_lanes_splits_into_groups() {
        let k = key(3);
        let table = SpanTable::new(&k, Algorithm::Mhhea);
        let msgs: Vec<Vec<u8>> = (0..150).map(|i| message(i % 40 + 1, i as u8)).collect();
        let jobs: Vec<LaneSealJob> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| LaneSealJob {
                message: m,
                state: (i as u16 + 1) | 1,
                block_index: 0,
            })
            .collect();
        let got = seal_lanes(&k, Algorithm::Mhhea, &table, &jobs).expect("nonzero");
        assert_eq!(got.len(), 150);
        for (i, (job, out)) in jobs.iter().zip(&got).enumerate() {
            let reference = scalar_seal(&k, Algorithm::Mhhea, job.state, &[job.message]);
            assert_eq!(out.blocks, reference[0].0, "lane {i}");
        }
    }
}

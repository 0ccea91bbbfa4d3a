//! Order statistics over latency samples.

/// Samples per block of [`block_tail`]: the p90 of a hundred samples
/// has exactly ten beyond it.
pub const BLOCK: usize = 100;

/// The tail percentile, taken within each block.
const TAIL_PERCENTILE: u64 = 90;

/// A run's tail latency, as [`block_tail`] finds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockTail {
    /// The median over blocks of each block's p90.
    pub value: f64,
    /// Full blocks the run held.
    pub blocks: usize,
}

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: u64) -> usize {
    let k = (p * n as u64).div_ceil(100).max(1);
    k as usize - 1
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile `p` (nearest rank) of a sample sorted ascending.
pub fn percentile(sorted: &[f64], p: u64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// The tail of a run's unit latencies, given in the order the units ran:
/// the sample is cut into consecutive blocks of [`BLOCK`] units, each
/// block's p90 is taken (ten samples beyond it), and the median over the
/// blocks is returned. `None` below one full block; a ragged last block
/// is left out.
///
/// Other tenants of a shared machine take its CPUs in bursts. A
/// whole-run p90 jumps once bursts cover a tenth of the run, and moved
/// by a third between sets of identical runs on a shared 2-CPU host; the
/// median over blocks moves only once they cover half the blocks.
pub fn block_tail(units: &[f64]) -> Option<BlockTail> {
    let tails: Vec<f64> = units
        .chunks_exact(BLOCK)
        .map(|b| percentile(&sorted(b.to_vec()), TAIL_PERCENTILE))
        .collect();
    (!tails.is_empty()).then(|| BlockTail {
        value: median(&tails),
        blocks: tails.len(),
    })
}

/// Sorts a sample ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn block_p90_leaves_ten_beyond() {
        // 100 samples: p90 is rank 90, with exactly ten beyond it.
        let t = block_tail(&ramp(100)).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.blocks, 1);
        assert_eq!(percentile(&ramp(100), 90), 90.0);
        // Below one block there is no tail.
        assert_eq!(block_tail(&ramp(99)), None);
        // The ragged last block is left out.
        assert_eq!(block_tail(&ramp(199)).unwrap().blocks, 1);
    }

    #[test]
    fn block_tail_rides_out_a_burst() {
        // Five blocks: two hit by a burst (every unit 10x slower), three
        // calm. The whole-run p90 lands in the burst; the block median
        // stays with the calm blocks.
        let calm = ramp(100);
        let burst: Vec<f64> = calm.iter().map(|v| v * 10.0).collect();
        let run: Vec<f64> = [&calm, &burst, &calm, &burst, &calm]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        let t = block_tail(&run).unwrap();
        assert_eq!(t.blocks, 5);
        assert_eq!(t.value, 90.0);
        assert!(percentile(&sorted(run), 90) > 500.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&ramp(5), 50), 3.0);
    }
}

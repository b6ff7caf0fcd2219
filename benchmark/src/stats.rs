//! Order statistics and output digests.

/// A timing summary: the low end, the median, and the highest percentile
/// that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The [`LOW_PCT`] percentile over the whole sample.
    pub low: f64,
    pub p50: f64,
    pub tail: f64,
    /// The percentile `tail` was read at.
    pub tail_pct: usize,
    /// How the tail was taken: over the whole sample, or as the median of
    /// per-block tails.
    pub tail_of: &'static str,
    pub samples: usize,
}

/// Percentile of a host-time series reported as its low end.
///
/// On a shared guest the host alternates between a quiet and a loaded
/// state for stretches of seconds to minutes, and every step of the serving
/// path slows together in the loaded one (the `paper_round` AP round moved
/// between ~3.9 and ~6.5 ms while the station heads moved 10%). The median
/// of a run reads whichever state held most of it: over ten runs of the
/// same code the median AP round of `paper_round` spread by 0.56 of its
/// value where the 1st percentile spread by 0.07. Interference only ever
/// adds time, so the fast end of the distribution tracks what the program
/// costs.
pub const LOW_PCT: usize = 1;

/// Candidate tail percentiles, highest first. The ladder stops at p95: on a
/// 2-vCPU guest, percentiles past p95 of sub-millisecond steps sit on the
/// knee where hypervisor steal starts (p99 of `hostile_stream` rounds moved
/// 0.61-0.81 ms between runs while p95 held), so they measure the host.
const TAIL_PCTS: [usize; 5] = [95, 90, 80, 75, 50];

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank_of(pct: usize, n: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n.max(1))
}

/// Highest candidate percentile with at least ten of `n` samples beyond it.
fn tail_pct(n: usize) -> usize {
    TAIL_PCTS
        .into_iter()
        .find(|&p| n >= rank_of(p, n) + 10)
        .unwrap_or(50)
}

/// A timed series whose samples carry the measurement block they fell in.
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<(usize, f64)>,
}

impl Series {
    pub fn push(&mut self, block: usize, value: f64) {
        self.samples.push((block, value));
    }

    /// One block holding every value (samples taken outside the window).
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        Self {
            samples: values.into_iter().map(|v| (0, v)).collect(),
        }
    }

    /// Appends every sample of `other` as block `block`.
    pub fn append_block(&mut self, block: usize, other: &Series) {
        self.samples
            .extend(other.samples.iter().map(|&(_, v)| (block, v)));
    }

    /// The low end and median over all samples, and the tail. When every
    /// block holds enough samples for a tail above the median (twenty or
    /// more), the tail is the median over blocks of each block's tail at the
    /// highest percentile the smallest block supports; otherwise it is read
    /// over the whole series.
    pub fn summary(&self) -> Summary {
        let values: Vec<f64> = self.samples.iter().map(|&(_, v)| v).collect();
        let whole = summarize(&values);
        let blocks = self.samples.iter().map(|&(b, _)| b).max().unwrap_or(0) + 1;
        let per_block: Vec<Vec<f64>> = (0..blocks)
            .map(|b| {
                let mut v: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|&&(sb, _)| sb == b)
                    .map(|&(_, v)| v)
                    .collect();
                v.sort_unstable_by(f64::total_cmp);
                v
            })
            .filter(|v| !v.is_empty())
            .collect();
        let pct = tail_pct(per_block.iter().map(Vec::len).min().unwrap_or(0));
        if per_block.len() < 3 || pct <= 50 {
            return whole;
        }
        let tails: Vec<f64> = per_block.iter().map(|v| rank(v, pct)).collect();
        Summary {
            tail: median(&tails),
            tail_pct: pct,
            tail_of: "median of block tails",
            ..whole
        }
    }
}

/// Nearest-rank percentile of ascending `sorted`.
fn rank(sorted: &[f64], pct: usize) -> f64 {
    sorted[rank_of(pct, sorted.len()) - 1]
}

/// Summarizes `values` (any order). Panics on an empty sample: every timed
/// series holds at least one round.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    let tail_pct = tail_pct(n);
    Summary {
        low: rank(&sorted, LOW_PCT),
        p50: rank(&sorted, 50),
        tail: rank(&sorted, tail_pct),
        tail_pct,
        tail_of: "whole sample",
        samples: n,
    }
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Bit patterns, so "identical" means bit-identical.
    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.tail_pct, 90);
        assert_eq!(s.tail, 90.0);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&many).tail_pct, 95);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.low, 1.0);

        let small: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(summarize(&small).tail_pct, 50);
    }
}

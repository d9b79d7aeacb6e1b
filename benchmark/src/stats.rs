//! Sample statistics and the seeded generator every input is drawn from.

/// Median of `v` (mean of the middle two for even lengths). Sorts in
/// place. An empty sample has no median; callers count that as a failure.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The p99, or — when fewer than ten samples lie beyond it — the highest
/// percentile that still has ten samples beyond it. With under eleven
/// samples that is the minimum, which says how little the tail is worth.
pub fn tail(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p99 = (n * 99).div_ceil(100).saturating_sub(1);
    v[p99.min(n.saturating_sub(11))]
}

/// The smallest of `samples`: the best pass, for a statistic of a whole
/// pass (see `harness::Best` for per-operation floors).
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::max)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` (exclusive
/// method) computes them — the rule the acceptance check uses.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// splitmix64: small, seedable, and good enough to pick names and
/// hold-out sets. Independent of the program under test.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for an independent stream of the same run seed.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what a
    /// benchmark stream can notice.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) ranks over `0..n` through a precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cdf.last().copied().unwrap_or(1.0);
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut v: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&mut v), 1979.0); // p99
        let mut v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&mut v), 89.0); // ten beyond
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn best_is_the_minimum() {
        assert_eq!(best(&[5.0, 3.0, 4.0]), 3.0);
        assert!(best(&[]).is_nan());
        assert_eq!(max(&[5.0, 3.0, 4.0]), 5.0);
    }

    #[test]
    fn rng_is_deterministic_and_zipf_is_skewed() {
        let mut a = Rng::fork(7, 1);
        let mut b = Rng::fork(7, 1);
        assert_eq!(a.next_u64(), b.next_u64());
        let z = Zipf::new(512, 1.1);
        let hits = (0..10_000).filter(|_| z.sample(&mut a) < 16).count();
        assert!(hits > 4_000, "top 16 ranks should dominate: {hits}");
    }
}

//! Streaming statistics used by the experiment harness.
//!
//! * [`OnlineStats`] — Welford's single-pass mean/variance, with Student-t
//!   confidence intervals matching the paper's reporting style (90% CIs
//!   over 5 runs).
//! * [`Histogram`] — fixed-width binning that stores only its filled
//!   bins, used for the paper's Figure 8 sleep-interval histogram.
//!
//! # Examples
//!
//! ```
//! use essat_sim::stats::OnlineStats;
//!
//! let mut s = OnlineStats::new();
//! for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
//!     s.add(x);
//! }
//! assert_eq!(s.mean(), 5.0);
//! assert!((s.population_variance() - 4.0).abs() < 1e-12);
//! ```

use std::fmt;

/// Single-pass mean / variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN (a NaN observation would silently poison every
    /// downstream summary).
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True if no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sample variance (n−1 denominator; 0.0 for fewer than 2 samples).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population variance (n denominator; 0.0 when empty).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of the confidence interval around the mean at the given
    /// [`Confidence`] level, using the Student-t distribution with `n−1`
    /// degrees of freedom (0.0 for fewer than 2 samples).
    pub fn ci_halfwidth(&self, level: Confidence) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        level.t_value((self.n - 1) as usize) * self.std_error()
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.4} ±{:.4} (90% CI, n={})",
            self.mean(),
            self.ci_halfwidth(Confidence::P90),
            self.n
        )
    }
}

/// Confidence level for [`OnlineStats::ci_halfwidth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Confidence {
    /// 90% two-sided confidence (the paper's level).
    P90,
    /// 95% two-sided confidence.
    P95,
}

impl Confidence {
    /// Two-sided Student-t critical value for `dof` degrees of freedom.
    /// Values for dof ≥ 31 use the normal approximation.
    pub fn t_value(self, dof: usize) -> f64 {
        const T90: [f64; 30] = [
            6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782,
            1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711,
            1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
        ];
        const T95: [f64; 30] = [
            12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
            2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
            2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
        ];
        let table = match self {
            Confidence::P90 => &T90,
            Confidence::P95 => &T95,
        };
        if dof == 0 {
            f64::INFINITY
        } else if dof <= 30 {
            table[dof - 1]
        } else {
            match self {
                Confidence::P90 => 1.645,
                Confidence::P95 => 1.960,
            }
        }
    }
}

/// Fixed-width histogram over `[0, bin_width × bins)` with explicit
/// overflow counting.
///
/// Only non-empty bins are stored, as ascending `(bin, count)` pairs, so
/// a histogram costs memory in proportion to the bins it filled, not to
/// its range: the simulator's sleep histogram spans 2,000 bins, and a
/// run fills a few hundred of them. Every accessor answers as if the
/// bins were dense ([`Histogram::iter`] yields all [`Histogram::bins`]
/// pairs, empty ones included), bit for bit.
///
/// # Examples
///
/// ```
/// use essat_sim::stats::Histogram;
///
/// // Paper Figure 8: sleep intervals in 25 ms bins up to 200 ms.
/// let mut h = Histogram::new(0.025, 8);
/// h.add(0.010); // -> bin 0 [0, 25ms)
/// h.add(0.030); // -> bin 1 [25ms, 50ms)
/// h.add(0.500); // -> overflow
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(1), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bin_width: f64,
    bins: usize,
    /// The non-empty bins as `(bin, count)`, ascending by bin; no count
    /// is zero, so equal histograms have equal lists.
    filled: Vec<(usize, u64)>,
    overflow: u64,
    total: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of width `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive and finite, or
    /// `bins` is zero.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "bin width must be positive, got {bin_width}"
        );
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            bin_width,
            bins,
            filled: Vec::new(),
            overflow: 0,
            total: 0,
            sum: 0.0,
        }
    }

    /// Adds an observation (negative values clamp into bin 0).
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        let idx = if x <= 0.0 {
            0
        } else {
            (x / self.bin_width) as usize
        };
        if idx < self.bins {
            self.bump(idx, 1);
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum += x.max(0.0);
    }

    /// Adds `count` to in-range bin `idx`, keeping the list ascending.
    fn bump(&mut self, idx: usize, count: u64) {
        match self.filled.binary_search_by_key(&idx, |&(b, _)| b) {
            Ok(at) => self.filled[at].1 += count,
            Err(at) => self.filled.insert(at, (idx, count)),
        }
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Number of in-range bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Count in bin `idx` (covering `[idx·w, (idx+1)·w)`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bin_count(&self, idx: usize) -> u64 {
        assert!(
            idx < self.bins,
            "bin {idx} out of range ({} bins)",
            self.bins
        );
        match self.filled.binary_search_by_key(&idx, |&(b, _)| b) {
            Ok(at) => self.filled[at].1,
            Err(_) => 0,
        }
    }

    /// Observations beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including overflow.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Fraction of observations strictly below `x` (approximated by whole
    /// bins plus linear interpolation in the partial bin).
    ///
    /// Only the filled bins are visited, yet the result is bit for bit
    /// that of a scan over every bin: an empty bin adds nothing, and
    /// where such a scan stops at an empty bin (the first whose rounded
    /// upper edge `lo + w` exceeds `x`), the next filled bin adds
    /// nothing either, because that edge is at most one ulp above the
    /// following bin's lower edge, so `x` is at or below it.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.total == 0 || x <= 0.0 {
            return 0.0;
        }
        let w = self.bin_width;
        let mut below = 0.0;
        for &(i, c) in &self.filled {
            let lo = i as f64 * w;
            if x >= lo + w {
                below += c as f64;
            } else {
                if x > lo {
                    below += c as f64 * (x - lo) / w;
                }
                break;
            }
        }
        below / self.total as f64
    }

    /// Iterates over `(bin_upper_edge, count)` pairs, paper-figure style:
    /// one pair for every bin, empty bins included.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut filled = self.filled.iter().peekable();
        (0..self.bins).map(move |i| {
            let count = filled.next_if(|&&(b, _)| b == i).map_or(0, |&(_, c)| c);
            ((i + 1) as f64 * self.bin_width, count)
        })
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if bin width or bin count differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin width mismatch");
        assert_eq!(self.bins, other.bins, "bin count mismatch");
        for &(idx, count) in &other.filled {
            self.bump(idx, count);
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// Relative change of `new` versus `baseline`, as the paper phrases its
/// headline claims ("X% lower than"): a positive result means `new` is
/// lower than `baseline` by that fraction.
///
/// Returns 0.0 when `baseline` is zero.
///
/// # Examples
///
/// ```
/// use essat_sim::stats::percent_lower;
/// assert_eq!(percent_lower(2.0, 8.0), 75.0); // 2 is 75% lower than 8
/// ```
pub fn percent_lower(new: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (1.0 - new / baseline) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [1.0, 2.5, -3.0, 7.25, 0.0, 2.0, 2.0];
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
        assert_eq!(s.count(), 7);
        assert_eq!(s.min(), -3.0);
        assert_eq!(s.max(), 7.25);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..40).map(|i| (i as f64) * 0.37 - 3.0).collect();
        let whole: OnlineStats = xs.iter().copied().collect();
        let mut left: OnlineStats = xs[..13].iter().copied().collect();
        let right: OnlineStats = xs[13..].iter().copied().collect();
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-10);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        let b: OnlineStats = [1.0, 2.0].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.mean(), 1.5);
        let mut c: OnlineStats = [5.0].iter().copied().collect();
        c.merge(&OnlineStats::new());
        assert_eq!(c.mean(), 5.0);
    }

    #[test]
    fn ci_for_five_runs_uses_t4() {
        // Paper setting: 5 runs, 90% CI -> t(4) = 2.132.
        let s: OnlineStats = [10.0, 11.0, 9.0, 10.5, 9.5].iter().copied().collect();
        let expected = 2.132 * s.std_error();
        assert!((s.ci_halfwidth(Confidence::P90) - expected).abs() < 1e-12);
        assert!(s.ci_halfwidth(Confidence::P90) > 0.0);
    }

    #[test]
    fn ci_degenerate_cases() {
        let empty = OnlineStats::new();
        assert_eq!(empty.ci_halfwidth(Confidence::P90), 0.0);
        let one: OnlineStats = [3.0].iter().copied().collect();
        assert_eq!(one.ci_halfwidth(Confidence::P95), 0.0);
    }

    #[test]
    fn t_values_monotone_in_dof() {
        for dof in 1..40 {
            assert!(
                Confidence::P90.t_value(dof) >= Confidence::P90.t_value(dof + 1) - 1e-9,
                "t must not increase with dof"
            );
            assert!(Confidence::P95.t_value(dof) > Confidence::P90.t_value(dof));
        }
        assert_eq!(Confidence::P90.t_value(100), 1.645);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_observation_panics() {
        OnlineStats::new().add(f64::NAN);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.025, 8);
        h.add(0.0);
        h.add(0.0249);
        h.add(0.025);
        h.add(0.19);
        h.add(0.2);
        h.add(1.0);
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(7), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_negative_clamps_to_first_bin() {
        let mut h = Histogram::new(1.0, 2);
        h.add(-3.0);
        assert_eq!(h.bin_count(0), 1);
    }

    #[test]
    fn histogram_fraction_below() {
        let mut h = Histogram::new(10.0, 4);
        for x in [1.0, 2.0, 3.0, 15.0, 25.0, 35.0] {
            h.add(x);
        }
        assert!((h.fraction_below(10.0) - 3.0 / 6.0).abs() < 1e-12);
        assert!((h.fraction_below(20.0) - 4.0 / 6.0).abs() < 1e-12);
        // Interpolation inside bin 0: half the bin -> half its mass.
        assert!((h.fraction_below(5.0) - 0.5 * 3.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.fraction_below(0.0), 0.0);
        assert_eq!(h.fraction_below(1e9), 1.0);
    }

    #[test]
    fn histogram_iter_edges() {
        let h = Histogram::new(0.5, 3);
        let edges: Vec<f64> = h.iter().map(|(e, _)| e).collect();
        assert_eq!(edges, vec![0.5, 1.0, 1.5]);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(1.0, 3);
        let mut b = Histogram::new(1.0, 3);
        a.add(0.5);
        b.add(0.7);
        b.add(2.5);
        b.add(9.0);
        a.merge(&b);
        assert_eq!(a.bin_count(0), 2);
        assert_eq!(a.bin_count(2), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn histogram_merge_geometry_checked() {
        let mut a = Histogram::new(1.0, 3);
        let b = Histogram::new(2.0, 3);
        a.merge(&b);
    }

    #[test]
    fn percent_lower_matches_paper_phrasing() {
        assert!((percent_lower(13.0, 100.0) - 87.0).abs() < 1e-12);
        assert!((percent_lower(62.0, 100.0) - 38.0).abs() < 1e-12);
        assert_eq!(percent_lower(5.0, 0.0), 0.0);
        assert!(percent_lower(8.0, 2.0) < 0.0, "higher value -> negative");
    }

    #[test]
    fn display_is_nonempty() {
        let s: OnlineStats = [1.0, 2.0, 3.0].iter().copied().collect();
        assert!(!s.to_string().is_empty());
    }
}

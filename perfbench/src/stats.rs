//! Order statistics and process probes shared by the workloads.

/// Nearest-rank index of the `p`-th percentile (`0 < p ≤ 100`) in a
/// sorted sample of `n > 0` values.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile of an ascending sample, but only if
/// at least ten samples lie strictly beyond it — a tail figure resting on
/// fewer is noise, so the caller must report a lower percentile or a
/// larger sample instead.
pub fn tail_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let i = rank(sorted.len(), p);
    (sorted.len() - 1 - i >= 10).then_some(sorted[i])
}

/// The timing figures of one round: operations per busy second and the
/// median and p99 latency in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTiming {
    pub throughput: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl RoundTiming {
    /// `ops` operations that kept the client busy for `busy_ns`, with one
    /// latency sample per decision or request (sorted in place).
    pub fn of(ops: u64, busy_ns: u64, samples: &mut [u64]) -> Result<Self, String> {
        samples.sort_unstable();
        let tail = |p| {
            tail_percentile(samples, p)
                .map(|ns| ns as f64 / 1e3)
                .ok_or_else(|| format!("{} samples are too few for p{p}", samples.len()))
        };
        Ok(Self {
            throughput: ratio(ops as f64, busy_ns as f64 / 1e9),
            p50_us: tail(50.0)?,
            p99_us: tail(99.0)?,
        })
    }

    /// Each figure's median over the run's rounds, which keeps a burst of
    /// machine noise in one round from moving the run's figure.
    pub fn median_of(rounds: &[RoundTiming]) -> Self {
        let pick =
            |f: fn(&RoundTiming) -> f64| median(&mut rounds.iter().map(f).collect::<Vec<_>>());
        Self {
            throughput: pick(|r| r.throughput),
            p50_us: pick(|r| r.p50_us),
            p99_us: pick(|r| r.p99_us),
        }
    }

    /// Sets the three timing metrics.
    pub fn report(&self, report: &mut crate::Report) {
        report.set("throughput_per_s", self.throughput);
        report.set("latency_us_p50", self.p50_us);
        report.set("latency_us_p99", self.p99_us);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let sample: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 is rank 990: exactly ten samples (991..=1000) beyond.
        assert_eq!(tail_percentile(&sample, 99.0), Some(990));
        // One sample fewer leaves only nine beyond the p99 rank.
        assert_eq!(tail_percentile(&sample[..999], 99.0), None);
        // The median of a tiny sample is still refused when the tail is thin.
        assert_eq!(tail_percentile(&sample[..15], 50.0), None);
        assert_eq!(tail_percentile(&sample[..21], 50.0), Some(11));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_counts_ties_beyond_the_rank() {
        // Every sample beyond the rank counts, equal or not.
        let sample = vec![5u64; 2000];
        assert_eq!(tail_percentile(&sample, 99.0), Some(5));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}

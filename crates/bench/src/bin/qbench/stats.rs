//! Order statistics and span arithmetic behind every reported number.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles with the interpolation of Python's
/// `statistics.quantiles(xs, n=4)` (its default "exclusive" method,
/// which extrapolates for tiny samples), so spreads printed here match
/// the ones an acceptance script computes.
///
/// # Panics
///
/// Panics with fewer than two values, as Python does.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentiles the benchmark may report, in hundredths of a percent
/// (9990 is p99.9), lowest first.
const LADDER: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// 1-based nearest rank of percentile `hundredths` among `n` samples.
fn rank(n: usize, hundredths: u32) -> usize {
    (hundredths as usize * n)
        .div_ceil(10_000)
        .clamp(1, n.max(1))
}

/// The highest percentile on [`LADDER`] (in hundredths of a percent)
/// that leaves at least ten of `n` samples above its rank, or `None`
/// when not even the median does. A tail percentile resting on fewer
/// samples is one outlier's value, not a property of the system.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&h| n >= 10 && n - rank(n, h) >= 10)
}

/// Nearest-rank percentile (`hundredths` of a percent) of ascending
/// `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u32], hundredths: u32) -> u32 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), hundredths) - 1]
}

/// A span's self time: its duration minus the part of `[start, end)`
/// covered by the union of its children's intervals (children may
/// overlap each other or spill past the parent; only the covered part
/// inside the parent counts, and only once).
pub fn self_time_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(5_000));
        assert_eq!(highest_supported_percentile(999), Some(9_000));
        assert_eq!(highest_supported_percentile(1_000), Some(9_900));
        assert_eq!(highest_supported_percentile(9_999), Some(9_900));
        assert_eq!(highest_supported_percentile(10_000), Some(9_990));
        assert_eq!(highest_supported_percentile(100_000), Some(9_999));
    }

    #[test]
    fn nearest_rank_percentile_leaves_ten_beyond_p999() {
        let xs: Vec<u32> = (1..=10_000).collect();
        assert_eq!(percentile(&xs, 5_000), 5_000);
        let p = percentile(&xs, 9_990);
        assert_eq!(xs.iter().filter(|&&x| x > p).count(), 10);
        assert_eq!(percentile(&[7], 9_990), 7);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time_ns(0, 100, &mut []), 100);
        assert_eq!(self_time_ns(0, 100, &mut [(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time_ns(0, 100, &mut [(30, 60), (10, 40)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_time_ns(0, 100, &mut [(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time_ns(10, 20, &mut [(0, 15), (18, 40)]), 3);
        assert_eq!(self_time_ns(10, 20, &mut [(0, 40)]), 0);
    }
}

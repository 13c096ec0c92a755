//! Summary statistics and metric-name rules shared by every workload.

/// The median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let q = quartiles(xs)?;
    Some(q.1)
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` does (its default
/// "exclusive" method, which extrapolates linearly past the ends for very
/// small samples). One value is its own three quartiles.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return None,
        1 => return Some((v[0], v[0], v[0])),
        _ => {}
    }
    let ld = v.len() as i64;
    let m = ld + 1;
    let q = |i: i64| -> f64 {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        (v[j as usize - 1] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, with that count of samples
/// beyond; `None` when even the median has too few (fewer than 20
/// samples).
pub fn highest_supported_percentile(n: usize) -> Option<(f64, usize)> {
    TAIL_LADDER.iter().find_map(|&p| {
        // Samples strictly above the p-th percentile: floor(n * (1 - p)).
        let beyond = ((n as f64) * (100.0 - p) / 100.0 + 1e-9).floor() as usize;
        (beyond >= MIN_BEYOND).then_some((p, beyond))
    })
}

/// The `p`-th percentile of `xs` by the nearest-rank method (the
/// smallest sample with at least `p`% of the samples at or below it);
/// `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// True for a valid metric or workload name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some((50.0, 10)));
        assert_eq!(highest_supported_percentile(99), Some((50.0, 49)));
        assert_eq!(highest_supported_percentile(100), Some((90.0, 10)));
        assert_eq!(highest_supported_percentile(999), Some((95.0, 49)));
        assert_eq!(highest_supported_percentile(1000), Some((99.0, 10)));
        assert_eq!(highest_supported_percentile(9999), Some((99.0, 99)));
        assert_eq!(highest_supported_percentile(10_000), Some((99.9, 10)));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
        assert_eq!(percentile(&xs, 100.0), Some(1000.0));
        assert_eq!(percentile(&[4.0], 99.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn metric_names() {
        for ok in [
            "wall_s",
            "core.sync.insts_per_s",
            "sweep.cache.hit_ratio",
            "p99-ms",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/name",
            "uni\u{e9}",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }
}

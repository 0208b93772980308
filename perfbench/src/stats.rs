//! Order statistics and formatting rules of the benchmark report.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (its default "exclusive" method), so a spread computed here agrees
//! with one computed from the printed values.

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// returns them. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The tail of a latency sample: the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile, in percent.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples above it: the `(n - 10)`-th smallest of `n` samples, at
/// percentile `100 (n - 10) / n`. `None` when fewer than eleven
/// samples exist, since no percentile then has ten beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    })
}

/// A ratio printed with its base: `0.8 (4/5)`.
pub fn ratio_with_base(num: u64, den: u64) -> String {
    if den == 0 {
        return format!("n/a ({num}/0)");
    }
    format!("{} ({num}/{den})", num as f64 / den as f64)
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A metric name as the report format admits it: 1 to 64 ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(
            t,
            Some(Tail {
                percentile: 99.0,
                value: 990.0,
                samples: 1000
            })
        );
        // exactly ten values lie above the reported one
        if let Some(t) = t {
            assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        }
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&eleven);
        assert_eq!(t.map(|t| t.value), Some(1.0));
        assert_eq!(t.map(|t| t.samples), Some(11));
    }

    #[test]
    fn ratio_is_printed_with_its_base() {
        assert_eq!(ratio_with_base(4, 5), "0.8 (4/5)");
        assert_eq!(ratio_with_base(0, 0), "n/a (0/0)");
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(1, 0), 0.0);
    }

    #[test]
    fn metric_names_follow_the_report_alphabet() {
        for ok in [
            "run_s",
            "core.beff.ns_per_msg.isend",
            "p50_ms",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }
}

//! Order statistics and metric naming shared by every workload.

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_TAIL`] samples lie strictly above the chosen rank:
/// a p99 over 200 samples is the second-largest value, not a p99.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// Each group's `q`-quantile, or `None` unless every group passes the
/// [`MIN_TAIL`] rule on its own.
fn group_percentiles<G: AsRef<[f64]>>(groups: &[G], q: f64) -> Option<Vec<f64>> {
    let per_group: Option<Vec<f64>> = groups
        .iter()
        .map(|g| {
            let mut v = g.as_ref().to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, q)
        })
        .collect();
    per_group.filter(|p| !p.is_empty())
}

/// The median over `groups` of each group's `q`-quantile, so that one
/// disturbed stretch of a run cannot set the figure.
pub fn median_percentile<G: AsRef<[f64]>>(groups: &[G], q: f64) -> Option<f64> {
    group_percentiles(groups, q).map(|p| median(&p))
}

/// The lowest over `groups` of each group's `q`-quantile. Host noise
/// only ever lengthens a stretch's tail, so the least disturbed
/// stretch's tail is the one that repeats from run to run.
pub fn lowest_percentile<G: AsRef<[f64]>>(groups: &[G], q: f64) -> Option<f64> {
    group_percentiles(groups, q).map(|p| p.into_iter().fold(f64::INFINITY, f64::min))
}

/// Split `values` (in arrival order) into as many consecutive groups
/// of at least `min_group` as fit, the last taking the remainder.
pub fn consecutive_groups(values: &[f64], min_group: usize) -> Vec<&[f64]> {
    let k = (values.len() / min_group.max(1)).max(1);
    let size = values.len() / k;
    (0..k)
        .map(|i| {
            &values[i * size..if i + 1 == k {
                values.len()
            } else {
                (i + 1) * size
            }]
        })
        .collect()
}

/// The values whose `exposure` is at most that of the `min_count`-th
/// least exposed one, ties included: every unexposed value when at
/// least `min_count` are, else the `min_count` least exposed.
pub fn least_exposed(values: &[f64], exposure: &[u64], min_count: usize) -> Vec<f64> {
    assert_eq!(values.len(), exposure.len(), "one exposure per value");
    let mut sorted = exposure.to_vec();
    sorted.sort_unstable();
    let Some(&limit) = sorted.get(min_count.max(1) - 1).or(sorted.last()) else {
        return Vec::new();
    };
    values
        .iter()
        .zip(exposure)
        .filter(|&(_, &e)| e <= limit)
        .map(|(&v, _)| v)
        .collect()
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A metric name as the result format allows it: starts with a letter
/// or digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Cumulative histogram read from a Prometheus exposition: `(le, count)`
/// pairs ascending in `le`, the last one `+Inf`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromHistogram {
    pub buckets: Vec<(f64, u64)>,
    pub sum: f64,
    pub count: u64,
}

impl PromHistogram {
    /// The unlabeled histogram `name` (already in Prometheus spelling,
    /// e.g. `serve_forward`) from a `/metrics` body; empty when absent.
    pub fn parse(body: &str, name: &str) -> Self {
        let bucket = format!("{name}_bucket{{le=\"");
        let sum = format!("{name}_sum ");
        let count = format!("{name}_count ");
        let mut h = PromHistogram::default();
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix(&bucket) {
                if let Some((le, n)) = rest.split_once("\"} ") {
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().unwrap_or(f64::NAN)
                    };
                    if let (false, Ok(n)) = (le.is_nan(), n.trim().parse()) {
                        h.buckets.push((le, n));
                    }
                }
            } else if let Some(v) = line.strip_prefix(&sum) {
                h.sum = v.trim().parse().unwrap_or(0.0);
            } else if let Some(v) = line.strip_prefix(&count) {
                h.count = v.trim().parse().unwrap_or(0);
            }
        }
        h.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        h
    }

    /// The observations recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &PromHistogram) -> PromHistogram {
        let before = |le: f64| {
            // Elided empty buckets carry the cumulative count of the
            // nearest bound below them.
            earlier
                .buckets
                .iter()
                .take_while(|(b, _)| *b <= le)
                .last()
                .map_or(0, |&(_, n)| n)
        };
        PromHistogram {
            buckets: self
                .buckets
                .iter()
                .map(|&(le, n)| (le, n.saturating_sub(before(le))))
                .collect(),
            sum: self.sum - earlier.sum,
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// Nearest-rank quantile as the upper bound of the bucket holding
    /// it, or `None` under the [`MIN_TAIL`] rule.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count as usize;
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, self.count);
        if n - (rank as usize) < MIN_TAIL {
            return None;
        }
        self.buckets
            .iter()
            .find(|&&(_, c)| c >= rank)
            .map(|&(le, _)| le)
            .filter(|le| le.is_finite())
    }

    /// Mean observation; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The same `MIN_TAIL` rule over an em-obs histogram snapshot.
pub fn obs_quantile(h: &em_obs::HistogramSnapshot, q: f64) -> Option<f64> {
    let n = h.count as usize;
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n > 0 && n - rank >= MIN_TAIL).then(|| h.quantile(q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), Some(990.0));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        // p90 of 100 has exactly ten beyond it: allowed.
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.90), None);
        assert_eq!(percentile(&[], 0.5), None);
        // p99 needs 1000 samples: 999 leave only nine beyond it.
        let w: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), None);
    }

    #[test]
    fn group_percentiles_take_the_middle_or_lowest_group() {
        let group = |shift: f64| -> Vec<f64> { (1..=1000).map(|i| f64::from(i) + shift).collect() };
        let groups = [group(0.0), group(5000.0), group(10.0)];
        assert_eq!(median_percentile(&groups, 0.99), Some(1000.0));
        assert_eq!(median_percentile(&groups, 0.5), Some(510.0));
        assert_eq!(lowest_percentile(&groups, 0.99), Some(990.0));
        let thin = [group(0.0), (1..=50).map(f64::from).collect()];
        assert_eq!(
            median_percentile(&thin, 0.99),
            None,
            "every group needs its tail"
        );
        assert_eq!(lowest_percentile(&thin, 0.99), None);
        assert_eq!(median_percentile::<Vec<f64>>(&[], 0.5), None);
    }

    #[test]
    fn consecutive_groups_cover_every_value_once() {
        let v: Vec<f64> = (0..3150).map(f64::from).collect();
        let g = consecutive_groups(&v, 1010);
        assert_eq!(
            g.iter().map(|g| g.len()).collect::<Vec<_>>(),
            vec![1050, 1050, 1050]
        );
        assert_eq!(g[1][0], 1050.0);
        let g = consecutive_groups(&v[..3031], 1010);
        assert_eq!(
            g.iter().map(|g| g.len()).collect::<Vec<_>>(),
            vec![1010, 1010, 1011]
        );
        assert_eq!(consecutive_groups(&v[..10], 1010).len(), 1);
    }

    #[test]
    fn least_exposed_keeps_every_unexposed_value_or_the_least_exposed() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        // Four unexposed values, two wanted: all four are kept.
        assert_eq!(
            least_exposed(&v, &[0, 3, 0, 0, 1, 0], 2),
            vec![1.0, 3.0, 4.0, 6.0]
        );
        // Two unexposed, four wanted: the next least exposed join, ties
        // included.
        assert_eq!(
            least_exposed(&v, &[0, 2, 0, 1, 1, 5], 4),
            vec![1.0, 3.0, 4.0, 5.0]
        );
        assert_eq!(
            least_exposed(&v, &[0, 2, 0, 2, 2, 5], 3),
            vec![1.0, 2.0, 3.0, 4.0, 5.0]
        );
        // Fewer values than wanted: all of them.
        assert_eq!(least_exposed(&v[..2], &[4, 1], 10), vec![1.0, 2.0]);
        assert!(least_exposed(&[], &[], 10).is_empty());
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_result_grammar() {
        for ok in [
            "p50_ms",
            "serve.forward_p99_ms",
            "gateway.parse_us",
            "9a-b_c.d",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn prometheus_histograms_parse_and_subtract() {
        let before = "x_bucket{le=\"0.001\"} 5\nx_bucket{le=\"+Inf\"} 5\nx_sum 0.004\nx_count 5\n";
        let after = "x_bucket{le=\"0.001\"} 5\nx_bucket{le=\"0.002\"} 25\n\
                     x_bucket{le=\"+Inf\"} 25\nx_sum 0.044\nx_count 25\ny_count 3\n";
        let d = PromHistogram::parse(after, "x").since(&PromHistogram::parse(before, "x"));
        assert_eq!(d.count, 20);
        assert_eq!(
            d.buckets,
            vec![(0.001, 0), (0.002, 20), (f64::INFINITY, 20)]
        );
        assert!((d.mean() - 0.002).abs() < 1e-12);
        assert_eq!(d.quantile(0.5), Some(0.002));
        assert_eq!(d.quantile(0.99), None, "20 samples cannot give a p99");
    }
}

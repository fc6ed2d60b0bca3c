//! Order statistics and case accounting shared by every workload.
//!
//! The quartile rule is the one the benchmark's consumers apply to its
//! repeated runs (Python's `statistics.quantiles(values, n=4)`, default
//! "exclusive" method), so spreads printed here match theirs.

/// Median of `values` (mean of the two middle values for an even count).
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

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a bound is compared against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank `p`-th percentile of `samples`, reported only when at least
/// `min_beyond` samples lie strictly above its rank — a tail figure resting
/// on fewer samples than that is noise. Returns the value and how many
/// samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: u32, min_beyond: usize) -> Option<(f64, usize)> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let rank = meissa_testkit::obs::percentile_index(v.len(), p).min(v.len() - 1);
    let beyond = v.len() - 1 - rank;
    (beyond >= min_beyond).then_some((v[rank], beyond))
}

/// Percentile of latency samples taken pass by pass: consecutive passes are
/// grouped until a group holds enough samples for [`tail_percentile`], each
/// group yields its percentile, and the result is the median over groups
/// (a leftover tail too small for a group of its own joins the last one).
/// A pass hit by a scheduling stall then moves one group's figure, not the
/// whole run's. Returns the value, the group count and the sample count.
pub fn grouped_percentile(
    passes: &[&[f64]],
    p: u32,
    min_beyond: usize,
) -> Option<(f64, usize, usize)> {
    let mut groups: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for pass in passes {
        open.extend_from_slice(pass);
        if tail_percentile(&open, p, min_beyond).is_some() {
            groups.push(std::mem::take(&mut open));
        }
    }
    match groups.last_mut() {
        Some(last) => last.append(&mut open),
        None => return None,
    }
    let values: Vec<f64> = groups
        .iter()
        .filter_map(|g| tail_percentile(g, p, min_beyond).map(|(v, _)| v))
        .collect();
    let samples = groups.iter().map(Vec::len).sum();
    Some((median(&values)?, groups.len(), samples))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Verdict tallies of one check stage. A wire case whose response never
/// arrived is checked against an empty observation, so it lands in `failed`
/// (or passes, when the reference expected a drop — the wire driver's
/// drain-phase rule).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CaseTally {
    /// Cases planned, skips included.
    pub total: u64,
    /// Cases that passed.
    pub passed: u64,
    /// Mismatches and intent violations (no-response cases included).
    pub failed: u64,
    /// Cases that could not be instantiated or serialized.
    pub skipped: u64,
}

impl CaseTally {
    /// Tallies a driver report.
    pub fn of(report: &meissa_driver::TestReport) -> Self {
        CaseTally {
            total: report.cases.len() as u64,
            passed: report.passed() as u64,
            failed: report.failed() as u64,
            skipped: report.skipped() as u64,
        }
    }

    /// Cases that were sent to the target: everything but the skips.
    pub fn attempted(&self) -> u64 {
        self.total - self.skipped
    }

    /// Cases attempted that did not pass, whatever the reason.
    pub fn not_passed(&self) -> u64 {
        self.attempted() - self.passed
    }

    /// Share of attempted cases that did not pass. Skips are excluded from
    /// both sides; a stage that attempted nothing reports `1.0`, since no
    /// verdict was reached.
    pub fn fail_frac(&self) -> f64 {
        match self.attempted() {
            0 => 1.0,
            a => self.not_passed() as f64 / a as f64,
        }
    }

    /// Folds another stage's tallies into this one.
    pub fn add(&mut self, other: &CaseTally) {
        self.total += other.total;
        self.passed += other.passed;
        self.failed += other.failed;
        self.skipped += other.skipped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meissa_driver::{CaseResult, TestReport, Verdict};

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = relative_iqr(&v).unwrap();
        assert!((r - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 100 samples: p99's nearest rank is index 98, one sample beyond.
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99, 10), None);
        assert_eq!(tail_percentile(&v, 99, 1), Some((98.0, 1)));
        // 1001 samples: rank 990, exactly ten beyond — reportable.
        let v: Vec<f64> = (0..1001).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99, 10), Some((990.0, 10)));
        // 1000 samples: rank 989 (rounded), ten beyond as well.
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99, 10), Some((989.0, 10)));
        let v: Vec<f64> = (0..900).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99, 10), None);
        assert_eq!(tail_percentile(&[], 50, 0), None);
        // The median of small samples is fine under a lower threshold.
        assert_eq!(tail_percentile(&[1.0, 2.0, 3.0], 50, 1), Some((2.0, 1)));
    }

    #[test]
    fn grouped_percentile_groups_small_passes_and_takes_the_median() {
        // Passes of 600 samples: p99 needs ~1000, so passes pair up; the
        // third pass is a leftover and joins the second group.
        let pass = |offset: f64| -> Vec<f64> { (0..600).map(|i| offset + f64::from(i)).collect() };
        let (a, b, c) = (pass(0.0), pass(0.0), pass(0.0));
        let passes: Vec<&[f64]> = vec![&a, &b, &c];
        let (_, groups, samples) = grouped_percentile(&passes, 99, 10).unwrap();
        assert_eq!((groups, samples), (1, 1800));
        let passes: Vec<&[f64]> = vec![&a, &b, &a, &b];
        let (v, groups, _) = grouped_percentile(&passes, 99, 10).unwrap();
        assert_eq!(groups, 2);
        assert_eq!(
            v,
            tail_percentile(&[a.clone(), b.clone()].concat(), 99, 10)
                .unwrap()
                .0
        );
        // One stalled pass among large ones moves only its own group.
        let big: Vec<f64> = (0..2000).map(f64::from).collect();
        let stalled: Vec<f64> = (0..2000).map(|i| f64::from(i) * 10.0).collect();
        let passes: Vec<&[f64]> = vec![&big, &stalled, &big];
        let (v, groups, _) = grouped_percentile(&passes, 99, 10).unwrap();
        assert_eq!((v, groups), (tail_percentile(&big, 99, 10).unwrap().0, 3));
        // Too few samples overall: nothing to report.
        let passes: Vec<&[f64]> = vec![&a];
        assert_eq!(grouped_percentile(&passes, 99, 10), None);
    }

    fn case(verdict: Verdict) -> CaseResult {
        CaseResult::new(0, verdict, Vec::new())
    }

    #[test]
    fn fail_frac_counts_skips_apart_and_missing_output_as_failure() {
        let mut report = TestReport::new("none");
        for _ in 0..6 {
            report.push(case(Verdict::Pass));
        }
        report.push(case(Verdict::Skipped {
            reason: "hash filter".into(),
        }));
        report.push(case(Verdict::Skipped {
            reason: "serialize".into(),
        }));
        report.push(case(Verdict::IntentViolation { intent: "i".into() }));
        report.push(case(Verdict::OutputMismatch {
            detail: "expected a forwarded packet, got none".into(),
        }));
        let t = CaseTally::of(&report);
        assert_eq!(
            t,
            CaseTally {
                total: 10,
                passed: 6,
                failed: 2,
                skipped: 2
            }
        );
        assert_eq!(t.attempted(), 8);
        assert_eq!(t.not_passed(), 2);
        assert!((t.fail_frac() - 0.25).abs() < 1e-12);

        let mut all = CaseTally::default();
        all.add(&t);
        all.add(&t);
        assert_eq!(all.attempted(), 16);
        assert!((all.fail_frac() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fail_frac_of_a_clean_run_is_zero_and_of_nothing_is_one() {
        let mut report = TestReport::new("none");
        report.push(case(Verdict::Pass));
        report.push(case(Verdict::Skipped { reason: "x".into() }));
        assert_eq!(CaseTally::of(&report).fail_frac(), 0.0);
        let only_skips = CaseTally {
            total: 3,
            skipped: 3,
            ..CaseTally::default()
        };
        assert_eq!(only_skips.fail_frac(), 1.0);
    }
}

//! The arithmetic behind the reported figures: medians, the tail
//! percentile, the merge/task/gap split of a run, and load ratios.

/// Median of `v` (mean of the middle pair for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile of a sample set: the highest whole multiple of 5
/// percent whose nearest-rank value still has at least [`TAIL_BEYOND`]
/// samples beyond it. Stepping in 5 % keeps the reported percentile the
/// same across runs whose job counts differ by a few.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub percentile: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
}

/// Computes the [`Tail`] of `v`, or `None` when `v` has too few samples
/// for any percentile of at least 50 % to have enough beyond it.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    // Highest p (a multiple of 5) with n - ceil(p n / 100) >= TAIL_BEYOND.
    let p = (10..=19)
        .rev()
        .map(|k| k * 5)
        .find(|&p| n >= TAIL_BEYOND + nearest_rank(p, n))?;
    Some(Tail {
        percentile: p,
        value: s[nearest_rank(p, n) - 1],
        samples: n,
    })
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// A half-open interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// How one run's wall time divides: every instant of `[start, end)` is
/// merge if a merge span covers it, else task if a task span covers it,
/// else scheduling gap. The three parts sum exactly to `end - start`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Split {
    /// Nanoseconds covered by at least one merge span.
    pub merge_ns: u64,
    /// Nanoseconds covered by a task span and no merge span.
    pub task_ns: u64,
    /// Nanoseconds covered by neither.
    pub gap_ns: u64,
}

/// Splits the window `run` by the merge and task spans inside it. Spans
/// are clipped to the window; overlaps within a class count once.
pub fn split(run: Interval, merges: &[Interval], tasks: &[Interval]) -> Split {
    let (lo, hi) = run;
    let clip = |&(s, e): &Interval| -> Option<Interval> {
        let (s, e) = (s.max(lo), e.min(hi));
        (s < e).then_some((s, e))
    };
    // Boundary events: +1/-1 on the merge or task depth at each edge.
    let mut events: Vec<(u64, i32, i32)> = Vec::new();
    for iv in merges.iter().filter_map(clip) {
        events.push((iv.0, 1, 0));
        events.push((iv.1, -1, 0));
    }
    for iv in tasks.iter().filter_map(clip) {
        events.push((iv.0, 0, 1));
        events.push((iv.1, 0, -1));
    }
    events.sort_unstable();
    let mut out = Split::default();
    let (mut merge_depth, mut task_depth, mut at) = (0i32, 0i32, lo);
    for (t, dm, dt) in events {
        let len = t - at;
        if merge_depth > 0 {
            out.merge_ns += len;
        } else if task_depth > 0 {
            out.task_ns += len;
        } else {
            out.gap_ns += len;
        }
        merge_depth += dm;
        task_depth += dt;
        at = t;
    }
    out.gap_ns += hi - at;
    out
}

/// Max ÷ mean of `loads` (1.0 for a perfectly even split); 0 when there
/// is no load at all.
pub fn load_ratio(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    loads.iter().copied().fold(f64::MIN, f64::max) / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=40: p75 has rank 30, leaving 10 beyond; p80 would leave 8.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (75, 30.0, 40));
        let beyond = v.iter().filter(|&&x| x > t.value).count();
        assert!(beyond >= TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_enough_samples() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value), (50, 10.0));
        // 200 samples reach p95 (rank 190, 10 beyond).
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 95);
    }

    #[test]
    fn tail_is_order_insensitive() {
        let mut v: Vec<f64> = (1..=30).map(f64::from).collect();
        let a = tail(&v);
        v.reverse();
        assert_eq!(a, tail(&v));
    }

    #[test]
    fn split_sums_to_window() {
        // Window 0..100; tasks 10..50 and 40..70; merge 60..80 (overlaps
        // a task, so 60..70 counts as merge); spans spill past the window.
        let s = split((0, 100), &[(60, 80)], &[(10, 50), (40, 70), (90, 130)]);
        assert_eq!(s.merge_ns, 20);
        assert_eq!(s.task_ns, 50 + 10); // 10..60 and 90..100
        assert_eq!(s.gap_ns, 10 + 10); // 0..10 and 80..90
        assert_eq!(s.merge_ns + s.task_ns + s.gap_ns, 100);
    }

    #[test]
    fn split_of_empty_run_is_all_gap() {
        let s = split((5, 25), &[], &[(0, 5), (25, 30)]);
        assert_eq!(
            s,
            Split {
                merge_ns: 0,
                task_ns: 0,
                gap_ns: 20
            }
        );
    }

    #[test]
    fn split_nested_merges_count_once() {
        let s = split((0, 10), &[(0, 10), (2, 4)], &[(0, 10)]);
        assert_eq!((s.merge_ns, s.task_ns, s.gap_ns), (10, 0, 0));
    }

    #[test]
    fn load_ratio_is_max_over_mean() {
        assert_eq!(load_ratio(&[1.0, 1.0, 1.0]), 1.0);
        assert_eq!(load_ratio(&[3.0, 1.0, 1.0, 1.0]), 2.0);
        assert_eq!(load_ratio(&[]), 0.0);
        assert_eq!(load_ratio(&[0.0, 0.0]), 0.0);
    }
}
